"""Blocking HTTP client for the campaign service.

Wraps the daemon's JSON API (:mod:`repro.service.daemon`) behind plain
method calls on stdlib ``http.client`` — the CLI ``submit`` command, the
worker ``--register`` heartbeat loop and the test-suite all talk to the
daemon through this class, so the wire format is exercised through one
code path.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union
from urllib.parse import urlencode, urlsplit

from .spec import CampaignSpec


class ServiceError(RuntimeError):
    """The daemon answered with an error status.

    Carries the HTTP ``status`` and the decoded JSON ``payload`` (the
    daemon always ships ``{"error": ...}`` bodies) so callers can relay
    the daemon's own message instead of a transport-level one.
    """

    def __init__(self, status: int, payload: Dict) -> None:
        message = (payload.get("error")
                   if isinstance(payload, dict) else None)
        super().__init__(message or f"service answered HTTP {status}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """One campaign-service endpoint, e.g. ``http://127.0.0.1:8340``.

    Stateless: every call opens one connection (the daemon speaks
    ``Connection: close``), so a client object is safe to share across
    threads and to keep around across daemon restarts.
    """

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"service URL must look like "
                             f"http://host:port, got {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    @property
    def url(self) -> str:
        """Base URL this client talks to."""
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"http://{host}:{self.port}"

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Union[Dict, str]:
        """One request/response cycle; raises :class:`ServiceError` on
        non-2xx statuses and :class:`ConnectionError` when the daemon is
        unreachable."""
        import http.client

        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout)
        try:
            payload = (json.dumps(body, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8")
                       if body is not None else None)
            headers = ({"Content-Type": "application/json"}
                       if payload is not None else {})
            try:
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except OSError as exc:
                raise ConnectionError(
                    f"campaign service at {self.url} is unreachable: {exc}"
                ) from exc
            content_type = response.getheader("Content-Type", "")
            if content_type.startswith("application/json"):
                data = json.loads(raw.decode("utf-8"))
            else:
                data = raw.decode("utf-8")
            if response.status >= 400:
                raise ServiceError(response.status,
                                   data if isinstance(data, dict)
                                   else {"error": data})
            return data
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Campaigns.
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec) -> Dict:
        """Submit a campaign; returns the job-status payload.

        Idempotent by construction: a byte-identical spec coalesces onto
        the existing job server-side, so retrying a submit never queues
        duplicate work.  A spec whose cells are all in the daemon's store
        already is answered from it in this call: the payload is
        ``complete`` with 0 runs executed and ``lane`` ``None``, and
        there is nothing to :meth:`wait` for.
        """
        return self._request("POST", "/v1/campaigns", body=spec.to_json())

    def status(self, job: str, cells: bool = False) -> Dict:
        """Status of one job; ``cells=True`` adds per-cell progress."""
        query = "?cells=1" if cells else ""
        return self._request("GET", f"/v1/campaigns/{job}{query}")

    def wait(self, job: str, timeout: Optional[float] = None,
             poll: float = 0.5) -> Dict:
        """Poll until the job leaves the queue; returns its final status.

        Raises :class:`TimeoutError` if the job is still queued or
        running after ``timeout`` seconds (``None`` waits forever).
        """
        import time

        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            payload = self.status(job)
            if payload["state"] in ("complete", "failed"):
                return payload
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job} still {payload['state']} after {timeout}s")
            time.sleep(poll)

    def results(self, job: str, app: str, mode: str, errors: int) -> Dict:
        """One cell's records, straight from the daemon's store."""
        query = urlencode({"app": app, "mode": mode, "errors": errors})
        return self._request("GET", f"/v1/campaigns/{job}/results?{query}")

    def tables(self, job: str, numbers: Sequence[int] = (2,)) -> str:
        """Rendered tables for a job's store (plain text)."""
        query = urlencode({"tables": ",".join(str(n) for n in numbers)})
        return self._request("GET", f"/v1/campaigns/{job}/tables?{query}")

    def figures(self, job: str,
                names: Optional[Sequence[str]] = None) -> str:
        """Rendered figures for a job's store (plain text)."""
        query = (f"?{urlencode({'figures': ','.join(names)})}"
                 if names else "")
        return self._request("GET", f"/v1/campaigns/{job}/figures{query}")

    def jobs(self) -> List[Dict]:
        """Every job the daemon knows about (including journal-restored)."""
        return self._request("GET", "/v1/campaigns")["jobs"]

    # ------------------------------------------------------------------
    # Workers and liveness.
    # ------------------------------------------------------------------
    def register_worker(self, address: str,
                        deregister: bool = False) -> Dict:
        """Register (or heartbeat, or deregister) one worker address."""
        body: Dict = {"address": address}
        if deregister:
            body["deregister"] = True
        return self._request("POST", "/v1/workers", body=body)

    def workers(self) -> List[Dict]:
        """The daemon's current worker registry snapshot."""
        return self._request("GET", "/v1/workers")["workers"]

    def health(self) -> Dict:
        """The daemon's liveness payload (lanes, queue depth, journal)."""
        return self._request("GET", "/v1/health")
