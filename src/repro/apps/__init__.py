"""The seven benchmark applications studied by the paper."""

from .adpcm.app import AdpcmApp
from .art.app import ArtApp
from .blowfish.app import BlowfishApp
from .gsm.app import GsmApp
from .mcf.app import McfApp
from .mpeg.app import MpegApp
from .registry import APP_ORDER, SUITES, TABLE1_FIDELITY, create_app, small_suite, standard_suite
from .susan.app import SusanApp

__all__ = [
    "APP_ORDER",
    "AdpcmApp",
    "ArtApp",
    "BlowfishApp",
    "GsmApp",
    "McfApp",
    "MpegApp",
    "SUITES",
    "SusanApp",
    "TABLE1_FIDELITY",
    "create_app",
    "small_suite",
    "standard_suite",
]
