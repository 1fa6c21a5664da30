"""Registry of the paper's benchmark applications (Table 1).

The one place that spells out suite and application names (campaign
specs, the CLI and the static oracle validate against it), and the one
source of application instances.  :data:`SUITES` maps each suite to its
applications' constructor parameters: ``"small"`` for fast tests and
examples, ``"standard"`` at the benchmark harness's sizes.
:func:`suite_apps` returns a suite's instances from the process's
warm-app cache (:func:`cached_app`), so a later sweep, table or daemon
job finds what an earlier one warmed, and a pool worker forked
afterwards inherits it.  :func:`create_app` builds a fresh,
custom-sized instance.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Mapping, Type

from ..core.app import ErrorTolerantApp
from .adpcm.app import AdpcmApp
from .art.app import ArtApp
from .blowfish.app import BlowfishApp
from .gsm.app import GsmApp
from .mcf.app import McfApp
from .mpeg.app import MpegApp
from .susan.app import SusanApp

#: Order in which the paper's tables list the applications.
APP_ORDER: List[str] = ["susan", "mpeg", "mcf", "blowfish", "gsm", "art", "adpcm"]

#: Fidelity-measure summaries exactly as Table 1 states them.
TABLE1_FIDELITY: Dict[str, str] = {
    "susan": "Imagemagick comparison",
    "mpeg": "% frames not dropped",
    "mcf": "% extra time in schedule",
    "blowfish": "% bytes correct from original",
    "gsm": "signal-to-noise difference",
    "art": "error in confidence of match",
    "adpcm": "% similarity of decoded PCM output",
}


#: Suite name -> application name -> constructor parameters, in
#: :data:`APP_ORDER`.
SUITES: Dict[str, Dict[str, Dict[str, int]]] = {
    "small": {
        "susan": {"width": 12, "height": 12},
        "mpeg": {"width": 8, "height": 8, "frames": 3},
        "mcf": {"trips": 6},
        "blowfish": {"text_bytes": 64},
        "gsm": {"frames": 3},
        "art": {"image_size": 16, "window_size": 8, "stride": 4},
        "adpcm": {"samples": 400},
    },
    "standard": {
        "susan": {"width": 20, "height": 20},
        "mpeg": {"width": 16, "height": 16, "frames": 6},
        "mcf": {"trips": 10},
        "blowfish": {"text_bytes": 256},
        "gsm": {"frames": 10},
        "art": {"image_size": 24, "window_size": 8, "stride": 4},
        "adpcm": {"samples": 1500},
    },
}

_FACTORY: Dict[str, Type[ErrorTolerantApp]] = {app.name: app for app in (
    SusanApp, MpegApp, McfApp, BlowfishApp, GsmApp, ArtApp, AdpcmApp)}


class UnknownApplicationError(KeyError, ValueError):
    """An application name the registry does not know.

    A ``KeyError`` to lookups and a ``ValueError`` to spec validation, so
    the daemon answers 400 and the CLI reports it like any bad flag.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0]


def app_class(name: str) -> Type[ErrorTolerantApp]:
    """The application class registered under ``name``."""
    factory = _FACTORY.get(name) if isinstance(name, str) else None
    if factory is None:
        raise UnknownApplicationError(
            f"unknown application {name!r}; expected one of {sorted(_FACTORY)}")
    return factory


def create_app(name: str, **kwargs) -> ErrorTolerantApp:
    """Create a single application by name with custom workload parameters."""
    return app_class(name)(**kwargs)


#: Applications this process has built (and progressively warmed), keyed
#: by ``(name, wire_params())`` of the instance.
_APP_CACHE: Dict[str, ErrorTolerantApp] = {}
_APP_CACHE_LOCK = threading.Lock()


def _cache_key(name: str, params: Mapping) -> str:
    return json.dumps([name, sorted(params.items())], sort_keys=True)


def cached_app(name: str, params: Mapping) -> ErrorTolerantApp:
    """This process's one ``create_app(name, **params)`` instance.

    Built on first use; later calls get the same instance, with whatever
    it has warmed since.  Params that leave a default out (blowfish's
    ``key_length``) find the instance their full ``wire_params()`` name.
    """
    with _APP_CACHE_LOCK:
        app = _APP_CACHE.get(_cache_key(name, params))
        if app is None:
            built = create_app(name, **params)
            app = _APP_CACHE.setdefault(
                _cache_key(name, built.wire_params()), built)
        return app


def suite_apps(suite: str) -> Dict[str, ErrorTolerantApp]:
    """The applications of ``suite`` (a :data:`SUITES` name), in
    :data:`APP_ORDER`: this process's cached instances."""
    return {name: cached_app(name, params)
            for name, params in SUITES[suite].items()}


def seed_app_cache(apps: Iterable[ErrorTolerantApp]) -> None:
    """Adopt already-warm instances as this process's cached apps.

    A pool worker gets its parent's warm apps this way: a no-op under
    fork when they are the inherited cached ones, the only warm start
    under spawn or forkserver (see ``exec/local.py``).
    """
    with _APP_CACHE_LOCK:
        for app in apps:
            _APP_CACHE[_cache_key(app.name, app.wire_params())] = app
