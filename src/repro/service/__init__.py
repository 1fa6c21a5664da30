"""Campaign-as-a-service: asyncio orchestration daemon + result cache.

The service layer promotes the sweep orchestrator from a CLI loop into a
long-running daemon (``python -m repro serve``) that accepts campaign
specs from many concurrent clients over an HTTP/JSON API, schedules
cells across the socket-worker fleet (workers dial in and heartbeat via
:mod:`repro.exec.worker` ``--register``), and serves every cell already
present in its :class:`~repro.core.store.ShardStore` straight from disk
as a content-addressed cache — new traffic only pays for cells nobody
has run yet.

Modules:

* :mod:`repro.service.spec`   — :class:`CampaignSpec`, the one canonical
  description of a campaign (HTTP request body, CLI resolver output and
  ``meta.json`` pinning record are all the same codec);
* :mod:`repro.service.http`   — minimal stdlib asyncio HTTP/1.1 layer;
* :mod:`repro.service.daemon` — :class:`CampaignService`, the daemon
  (concurrent-lane scheduler, per-store locking);
* :mod:`repro.service.journal` — ``Job``, the one job record (its
  ``to_json`` is the job-status payload of daemon jobs, journal-replayed
  jobs and local :func:`repro.api.submit` runs alike), and
  :class:`JobJournal`, the crash-safe job ledger the daemon replays on
  restart;
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  HTTP client the CLI ``submit`` command and the worker registration
  loop use.

Everything here is stdlib-only: no web framework, no new dependencies.
"""

from .client import ServiceClient
from .daemon import CampaignService
from .journal import JobJournal
from .spec import CampaignSpec

__all__ = [
    "CampaignService",
    "CampaignSpec",
    "JobJournal",
    "ServiceClient",
]
