"""Synthetic workload generators replacing the SPEC/MiBench reference inputs."""

from .audio import PCM_MAX, PCM_MIN, clamp_pcm, speech_like_signal
from .images import (
    Image,
    moving_scene,
    object_template,
    synthetic_scene,
    thermal_image_with_objects,
)
from .networks import INFEASIBLE, SchedulingInstance, Trip, transit_instance
from .text import ascii_text, bytes_to_words, key_bytes, text_to_bytes, words_to_bytes

__all__ = [
    "INFEASIBLE",
    "Image",
    "PCM_MAX",
    "PCM_MIN",
    "SchedulingInstance",
    "Trip",
    "ascii_text",
    "bytes_to_words",
    "clamp_pcm",
    "key_bytes",
    "moving_scene",
    "object_template",
    "speech_like_signal",
    "synthetic_scene",
    "text_to_bytes",
    "thermal_image_with_objects",
    "transit_instance",
]
