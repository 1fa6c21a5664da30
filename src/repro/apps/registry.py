"""Registry of the paper's benchmark applications (Table 1).

The registry provides two standard configurations, named in
:data:`SUITES`:

* ``standard_suite()`` — workload sizes used by the benchmark harness
  (large enough for meaningful dynamic-instruction statistics, small enough
  for pure-Python fault campaigns);
* ``small_suite()`` — reduced workloads for fast tests and examples.

It is the one place that spells out suite and application names: campaign
specs, the CLI and the static oracle validate against it.
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Dict, Iterable, List, Mapping, Type

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


def standard_suite() -> Dict[str, ErrorTolerantApp]:
    """Applications at the workload sizes used by the benchmark harness."""
    return {
        "susan": SusanApp(width=20, height=20),
        "mpeg": MpegApp(width=16, height=16, frames=6),
        "mcf": McfApp(trips=10),
        "blowfish": BlowfishApp(text_bytes=256),
        "gsm": GsmApp(frames=10),
        "art": ArtApp(image_size=24, window_size=8, stride=4),
        "adpcm": AdpcmApp(samples=1500),
    }


def small_suite() -> Dict[str, ErrorTolerantApp]:
    """Reduced workloads for unit/integration tests and quick examples."""
    return {
        "susan": SusanApp(width=12, height=12),
        "mpeg": MpegApp(width=8, height=8, frames=3),
        "mcf": McfApp(trips=6),
        "blowfish": BlowfishApp(text_bytes=64),
        "gsm": GsmApp(frames=3),
        "art": ArtApp(image_size=16, window_size=8, stride=4),
        "adpcm": AdpcmApp(samples=400),
    }


#: Suite name -> builder of fresh application instances.
SUITES: Dict[str, Callable[[], Dict[str, ErrorTolerantApp]]] = {
    "small": small_suite,
    "standard": standard_suite,
}

_FACTORY: Dict[str, Type[ErrorTolerantApp]] = {
    "susan": SusanApp,
    "mpeg": MpegApp,
    "mcf": McfApp,
    "blowfish": BlowfishApp,
    "gsm": GsmApp,
    "art": ArtApp,
    "adpcm": AdpcmApp,
}


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
#: by ``(name, params)``.  A socket worker's reconnecting executor, or a
#: pool worker's next task, finds its application here instead of
#: recompiling the program and re-simulating golden runs.
_APP_CACHE: Dict[str, ErrorTolerantApp] = {}
_APP_CACHE_LOCK = threading.Lock()


def _cache_key(name: str, params: Mapping) -> str:
    return json.dumps([name, sorted(params.items())], sort_keys=True)


def cached_app(name: str, params: Mapping) -> ErrorTolerantApp:
    """This process's one ``create_app(name, **params)`` instance.

    Built on first use; later calls get the same instance, with whatever
    golden runs and checkpoint stores it has warmed since.
    """
    key = _cache_key(name, params)
    with _APP_CACHE_LOCK:
        app = _APP_CACHE.get(key)
        if app is None:
            app = _APP_CACHE[key] = create_app(name, **params)
        return app


def seed_app_cache(apps: Iterable[ErrorTolerantApp]) -> None:
    """Adopt already-warm instances as this process's cached apps.

    A pool worker forked from a sweep gets the parent's warm apps this
    way, so it repeats no golden run or checkpoint build.
    """
    with _APP_CACHE_LOCK:
        for app in apps:
            _APP_CACHE[_cache_key(app.name, app.wire_params())] = app


def app_names() -> List[str]:
    return list(APP_ORDER)
