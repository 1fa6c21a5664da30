"""Synthetic speech-like audio workloads.

The paper's GSM and ADPCM benchmarks run on recorded speech samples from
MiBench.  We replace them with deterministic synthetic signals that share
the properties the codecs exploit: a handful of voiced "formant" tones with
a slowly varying envelope, short bursts of unvoiced noise, and silence
gaps, quantised to 16-bit PCM.
"""

from __future__ import annotations

import math
import random
from typing import List

PCM_MAX = 32767
PCM_MIN = -32768


def clamp_pcm(value: float) -> int:
    """Clamp and round a sample to 16-bit PCM."""
    return max(PCM_MIN, min(PCM_MAX, int(round(value))))


def speech_like_signal(samples: int, seed: int = 0, sample_rate: int = 8000) -> List[int]:
    """Generate a speech-like 16-bit PCM signal of ``samples`` samples."""
    rng = random.Random(seed)
    formants = [rng.uniform(180.0, 280.0), rng.uniform(600.0, 900.0),
                rng.uniform(1800.0, 2400.0)]
    amplitudes = [0.55, 0.3, 0.12]
    signal: List[int] = []
    voiced = True
    segment_remaining = 0
    envelope = 0.0
    for index in range(samples):
        if segment_remaining <= 0:
            voiced = rng.random() < 0.7
            segment_remaining = rng.randint(sample_rate // 50, sample_rate // 12)
        segment_remaining -= 1
        target = 0.8 if voiced else 0.25
        envelope += (target - envelope) * 0.01
        t = index / sample_rate
        if voiced:
            value = sum(
                amplitude * math.sin(2.0 * math.pi * frequency * t)
                for amplitude, frequency in zip(amplitudes, formants)
            )
        else:
            value = rng.uniform(-0.6, 0.6)
        value += rng.uniform(-0.02, 0.02)
        signal.append(clamp_pcm(value * envelope * 12000.0))
    return signal
