"""TCP campaign executor: shard run tasks over sockets to remote workers.

Wire protocol v2 — versioned, **non-executable**, length-prefixed JSON
frames.  Nothing on the wire can make either peer execute code: the init
payload names an application from the registry instead of shipping an
object, and records travel in their deterministic
:meth:`~repro.core.outcomes.RunRecord.to_json` form (the same codec the
shard store writes to disk).

Framing: a 12-byte big-endian header ``(length: u64, crc32: u32)``
followed by ``length`` bytes of compact UTF-8 JSON (sorted keys, the
shard-store encoding).  Both sides reject frames whose length exceeds
:data:`MAX_FRAME_BYTES` — the sender *before* transmitting (a too-large
frame would desync the stream when the peer drops it mid-read) — and
frames whose payload fails the CRC or does not decode to a JSON object
with a ``kind`` key.

Frame table (``kind`` / direction / payload):

===============  =========  ====================================================
``hello``        exec→wkr   ``protocol`` (int), ``nonce`` (hex)
``welcome``      wkr→exec   ``protocol``, ``nonce``, ``auth`` (HMAC hex or null)
``auth``         exec→wkr   ``mac`` (HMAC hex or null)
``ready``        wkr→exec   —  (handshake complete)
``init``         exec→wkr   ``app`` ({``name``, ``params``}), ``config``
                            (CampaignConfig fields), ``heartbeat`` (seconds)
``init-ok``      wkr→exec   —  (application constructed)
``run``          exec→wkr   ``tasks`` (``[[run_index, errors, mode], ...]``)
``heartbeat``    wkr→exec   —  (sent while a chunk is computing)
``records``      wkr→exec   ``records`` (``[RunRecord.to_json(), ...]``)
``error``        wkr→exec   ``message`` (handshake refusal or chunk traceback)
``bye``          exec→wkr   —  (end of session)
===============  =========  ====================================================

The handshake is mutual challenge-response: each side contributes a
random nonce, and when a shared secret is configured
(``CampaignConfig.worker_secret`` / worker ``--secret``) both sides prove
knowledge of it with an HMAC-SHA256 over ``(protocol, role, nonces)``
before any campaign traffic flows.  Version mismatches and bad MACs are
refused with an ``error`` frame naming the problem; those are
*configuration* failures (:class:`HandshakeError`) and abort the campaign
instead of being retried.

Liveness: workers emit ``heartbeat`` frames while a chunk computes, so
the executor distinguishes a *slow* worker from a *hung* one — a
connection that stays silent for ``heartbeat_interval x
heartbeat_misses`` seconds times out, its chunk is requeued, and the
dispatcher reconnects with exponential backoff (a worker restart is a
delay, not a permanent eviction).  Every chunk additionally carries a
hard deadline — ``CampaignConfig.chunk_timeout`` when set, else derived
from the watchdog budgets of the chunk's runs — so even a worker that
heartbeats forever cannot stall a cell indefinitely.

Degradation: when every worker of the fleet is gone mid-cell, the
executor falls back to local in-process execution with one loud
:class:`RuntimeWarning` (``CampaignConfig.fallback=False`` /
``--no-fallback`` raises :class:`FleetLostError` instead).  Because every
injection plan is a pure function of ``(base_seed, run_index, errors,
model)``, the record stream — and therefore the shard store — stays
byte-identical whichever path produced it (asserted against chaos
schedules in ``tests/test_chaos.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import queue
import secrets
import socket
import struct
import threading
import time
import warnings
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.outcomes import RunRecord
from ..sim import ProtectionMode
from .base import Executor, RunTask, make_records

#: Version spoken by this module; peers must match exactly.
PROTOCOL_VERSION = 2

#: Frame header: payload length (u64) and payload CRC32 (u32), big-endian.
_HEADER = struct.Struct(">QI")

#: Safety cap on a single frame.  The v2 payloads are small (the largest —
#: a chunk of records — is bounded by the orchestrator's chunk size), so
#: anything near this limit is a protocol error, not a big campaign.
MAX_FRAME_BYTES = 1 << 26

#: Seconds between worker heartbeat frames while a chunk computes.
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: Instructions/second floor used to derive chunk deadlines from watchdog
#: budgets.  The pure-Python engines execute well over 10^6 instr/s; a
#: 20k floor gives ~50x headroom for slow hosts before a live chunk is
#: wrongly declared dead (the deadline is a backstop — missing heartbeats
#: catch genuinely hung workers far sooner).
ASSUMED_MIN_INSTRUCTIONS_PER_SECOND = 20_000.0


class WorkerTaskError(RuntimeError):
    """A worker executed a chunk and reported an application-level error.

    Distinct from transport failures: the connection is still healthy and
    retrying the chunk elsewhere would deterministically fail the same
    way, so the executor propagates this immediately instead of burning
    through the worker rotation.
    """


class ProtocolError(ConnectionError):
    """A malformed, corrupt or unexpected frame arrived.

    Transport-class: the stream can no longer be trusted, so the
    connection is dropped and the in-flight chunk retried — corruption on
    the wire must never abort a campaign that other workers (or the local
    fallback) can finish.
    """


class HandshakeError(ConnectionError):
    """The peer refused the handshake for a *configuration* reason.

    Version mismatch, missing or wrong shared secret, unknown
    application: retrying cannot succeed, so — unlike
    :class:`ProtocolError` — this aborts the campaign with the peer's
    actionable message instead of being requeued.
    """


class HeartbeatTimeout(ConnectionError):
    """A worker went silent mid-chunk (no records, no heartbeats)."""


class ChunkDeadlineError(ConnectionError):
    """A chunk exceeded its hard wall-clock deadline."""


class FrameTooLargeError(ValueError):
    """An outgoing frame exceeds :data:`MAX_FRAME_BYTES`.

    Raised *before* any bytes are sent: emitting the frame and letting the
    peer reject it mid-stream would desync the protocol for both sides.
    """


class FleetLostError(RuntimeError):
    """Every worker is gone and local fallback is disabled."""


# ----------------------------------------------------------------------
# Frame codec.
# ----------------------------------------------------------------------
def encode_frame(message: Dict) -> bytes:
    """Serialise one frame (header + compact JSON payload).

    Raises :class:`FrameTooLargeError` when the payload would exceed
    :data:`MAX_FRAME_BYTES` — validated here, on the send side, so an
    oversized frame can never desync the peer mid-stream.
    """
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"outgoing {message.get('kind', '?')!r} frame is "
            f"{len(payload)} bytes, above the {MAX_FRAME_BYTES}-byte "
            f"protocol limit; split the chunk into smaller pieces"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def send_frame(sock: socket.socket, message: Dict) -> None:
    """Send one length-prefixed JSON frame (size-checked before send)."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict]:
    """Receive one frame; ``None`` on orderly EOF before a header.

    Raises :class:`ProtocolError` on oversized, truncated, CRC-failing or
    non-JSON frames — the stream is unrecoverable past any of those.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, checksum = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"oversized frame: {length} bytes")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    if zlib.crc32(payload) != checksum:
        raise ProtocolError("frame payload failed its CRC32 check "
                            "(corrupted in transit)")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "kind" not in message:
        raise ProtocolError(f"frame payload is not a tagged object: "
                            f"{message!r:.120}")
    return message


# ----------------------------------------------------------------------
# Payload codecs: everything that crosses the wire in structured form.
# ----------------------------------------------------------------------
#: Config fields never shipped to workers.  The shared secret
#: authenticates the handshake; sending it in cleartext inside the init
#: frame would defeat the point.
_PRIVATE_CONFIG_FIELDS = ("worker_secret",)


def encode_config(config) -> Dict:
    """``CampaignConfig`` fields as a JSON-safe dict for the init frame."""
    data = dataclasses.asdict(config)
    for name in _PRIVATE_CONFIG_FIELDS:
        data.pop(name, None)
    # The worker always executes its chunks in-process: a forwarded
    # worker list would make it dial further workers.
    data["workers"] = []
    return data


def decode_config(data: Dict):
    """Reconstruct a ``CampaignConfig`` from an init frame.

    Unknown keys are dropped (a same-version peer never sends any; the
    filter keeps a clear validation error from turning into an obscure
    ``TypeError``) and the private/worker fields are re-forced so a
    hostile frame cannot smuggle them back in.
    """
    from ..core.campaign import CampaignConfig

    known = {field.name for field in dataclasses.fields(CampaignConfig)}
    kwargs = {key: value for key, value in data.items() if key in known}
    for name in _PRIVATE_CONFIG_FIELDS:
        kwargs.pop(name, None)
    kwargs["workers"] = ()
    return CampaignConfig(**kwargs)


def encode_tasks(tasks: Sequence[RunTask]) -> List[List]:
    """Run tasks as JSON-safe triples (mode by its enum value)."""
    return [[run_index, errors, mode.value]
            for run_index, errors, mode in tasks]


def decode_tasks(data: Sequence[Sequence]) -> List[RunTask]:
    return [(int(run_index), int(errors), ProtectionMode(mode))
            for run_index, errors, mode in data]


def encode_records(records: Sequence[RunRecord]) -> List[Dict]:
    return [record.to_json() for record in records]


def decode_records(data: Sequence[Dict]) -> List[RunRecord]:
    return [RunRecord.from_json(item) for item in data]


def handshake_digest(secret: str, role: str, client_nonce: str,
                     worker_nonce: str) -> str:
    """HMAC-SHA256 proof of the shared secret for one handshake side.

    ``role`` ("worker" or "client") keeps the two directions from being
    reflectable: a peer cannot answer a challenge by echoing the MAC it
    was just shown.
    """
    message = "|".join(("repro-wire", str(PROTOCOL_VERSION), role,
                        client_nonce, worker_nonce)).encode("utf-8")
    return hmac.new(secret.encode("utf-8"), message,
                    hashlib.sha256).hexdigest()


def parse_worker_address(address: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` (host defaults to localhost for ``":port"``).

    IPv6 hosts use the bracketed URI form — ``"[::1]:7006"`` — and the
    brackets are stripped from the returned host, which is what
    :func:`socket.create_connection` expects.  An unbracketed
    multi-colon host (``"::1:7006"``) is rejected rather than guessed
    at: every split of it is some valid IPv6 address, so silently
    picking one would connect somewhere the user did not mean.
    """
    if address.startswith("["):
        host, bracket, port_part = address[1:].partition("]")
        if not bracket or not host or not port_part.startswith(":"):
            raise ValueError(
                f"invalid worker address {address!r}; expected '[host]:port'"
            )
        port_text = port_part[1:]
    else:
        host, separator, port_text = address.rpartition(":")
        if not separator:
            raise ValueError(
                f"invalid worker address {address!r}; expected 'host:port'"
            )
        if ":" in host:
            raise ValueError(
                f"ambiguous worker address {address!r}; bracket IPv6 hosts "
                f"as '[host]:port', e.g. '[::1]:7006'"
            )
    # Explicit ASCII-digit check: str.isdigit() alone accepts non-ASCII
    # digits (e.g. Arabic-Indic '٧٠٠٦'), and superscripts like '²' pass
    # isdigit() but crash int().
    if not port_text or not all("0" <= char <= "9" for char in port_text):
        raise ValueError(
            f"invalid worker address {address!r}; port must be a decimal "
            f"number"
        )
    port = int(port_text)
    if not 0 < port <= 65535:
        # Port 0 means "any free port" to a *binding* server; as a connect
        # target it can only fail, so reject it here with a clear message.
        raise ValueError(
            f"invalid worker address {address!r}; port {port} is out of range"
        )
    return host or "127.0.0.1", port


def parse_listen_address(address: str) -> Tuple[str, int]:
    """Parse a ``--listen`` bind address: like :func:`parse_worker_address`
    but port 0 is allowed (it asks the OS for a free port; the banner is
    how callers learn the choice)."""
    host, separator, port_text = address.rpartition(":")
    if separator and port_text == "0":
        return parse_worker_address(f"{host}:1")[0], 0
    return parse_worker_address(address)


class _WorkerConnection:
    """One authenticated protocol-v2 session with a remote worker."""

    def __init__(self, address: str, app, config, timeout: float,
                 heartbeat_interval: float) -> None:
        self.address = address
        self.heartbeat_interval = heartbeat_interval
        self.sock = socket.create_connection(parse_worker_address(address),
                                             timeout=timeout)
        try:
            # The whole handshake runs under the connect timeout: a
            # listen-backlog connect can succeed against a busy or wedged
            # worker, and a worker that never answers must surface as a
            # startup error, not hang the first chunk forever.
            self.sock.settimeout(timeout)
            self._handshake(config.worker_secret)
            send_frame(self.sock, {
                "kind": "init",
                "app": {"name": app.name, "params": app.wire_params()},
                "config": encode_config(config),
                "heartbeat": heartbeat_interval,
            })
            self._expect("init-ok", stage="init")
            # Chunk waits manage their own timeouts (heartbeat-based);
            # everything else on this socket is a short send.
            self.sock.settimeout(None)
        except Exception:
            try:
                self.sock.close()
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Handshake.
    # ------------------------------------------------------------------
    def _expect(self, kind: str, stage: str) -> Dict:
        """Receive one frame of the given kind or fail with context.

        An ``error`` frame here carries the worker's refusal (version
        mismatch, bad MAC, unknown app) — a configuration problem, so it
        surfaces as a fatal :class:`HandshakeError` with the worker's own
        actionable message rather than being retried.
        """
        frame = recv_frame(self.sock)
        if frame is None:
            raise ProtocolError(
                f"worker {self.address} closed the connection during "
                f"{stage} (worker died, or it speaks an older protocol "
                f"that cannot answer a v{PROTOCOL_VERSION} handshake)"
            )
        if frame["kind"] == "error":
            raise HandshakeError(
                f"worker {self.address} refused the {stage}: "
                f"{frame.get('message', '(no detail)')}"
            )
        if frame["kind"] != kind:
            raise ProtocolError(
                f"worker {self.address} sent {frame['kind']!r} during "
                f"{stage}, expected {kind!r}"
            )
        return frame

    def _handshake(self, secret: Optional[str]) -> None:
        client_nonce = secrets.token_hex(16)
        send_frame(self.sock, {"kind": "hello",
                               "protocol": PROTOCOL_VERSION,
                               "nonce": client_nonce})
        welcome = self._expect("welcome", stage="handshake")
        peer_version = welcome.get("protocol")
        if peer_version != PROTOCOL_VERSION:
            raise HandshakeError(
                f"worker {self.address} speaks wire protocol "
                f"v{peer_version}, this executor speaks "
                f"v{PROTOCOL_VERSION}; upgrade the older side so both run "
                f"the same repro version"
            )
        worker_nonce = str(welcome.get("nonce") or "")
        worker_mac = welcome.get("auth")
        mac = None
        if secret:
            if not worker_mac:
                raise HandshakeError(
                    f"worker {self.address} did not authenticate but this "
                    f"executor was given a shared secret; start the worker "
                    f"with the matching --secret"
                )
            expected = handshake_digest(secret, "worker", client_nonce,
                                        worker_nonce)
            if not hmac.compare_digest(str(worker_mac), expected):
                raise HandshakeError(
                    f"worker {self.address} failed HMAC verification: the "
                    f"shared secrets differ; make the sweep's --secret match "
                    f"the worker's --secret"
                )
            mac = handshake_digest(secret, "client", client_nonce,
                                   worker_nonce)
        elif worker_mac:
            raise HandshakeError(
                f"worker {self.address} requires a shared secret (it was "
                f"started with --secret); pass the matching "
                f"--secret to this sweep"
            )
        send_frame(self.sock, {"kind": "auth", "mac": mac})
        self._expect("ready", stage="handshake")

    # ------------------------------------------------------------------
    # Chunk execution.
    # ------------------------------------------------------------------
    def run_chunk(self, tasks: Sequence[RunTask], frame_timeout: float,
                  deadline: Optional[float]) -> List[RunRecord]:
        """Execute one chunk remotely, supervising liveness.

        ``frame_timeout`` bounds the silence between any two frames
        (records *or* heartbeats) — a hung worker trips it.  ``deadline``
        bounds the whole chunk in wall-clock seconds regardless of
        heartbeats.  Both raise transport-class errors so the dispatcher
        requeues the chunk.
        """
        send_frame(self.sock, {"kind": "run", "tasks": encode_tasks(tasks)})
        limit = (time.monotonic() + deadline) if deadline else None
        while True:
            wait = frame_timeout
            if limit is not None:
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    raise ChunkDeadlineError(
                        f"worker {self.address}: chunk of {len(tasks)} "
                        f"run(s) exceeded its {deadline:.0f}s deadline"
                    )
                wait = min(wait, remaining)
            self.sock.settimeout(wait)
            try:
                frame = recv_frame(self.sock)
            except socket.timeout as exc:
                if limit is not None and time.monotonic() >= limit:
                    raise ChunkDeadlineError(
                        f"worker {self.address}: chunk of {len(tasks)} "
                        f"run(s) exceeded its {deadline:.0f}s deadline"
                    ) from exc
                raise HeartbeatTimeout(
                    f"worker {self.address} sent no frame (records or "
                    f"heartbeat) for {frame_timeout:.1f}s mid-chunk; "
                    f"treating it as hung"
                ) from exc
            if frame is None:
                raise ProtocolError(
                    f"worker {self.address} closed the connection mid-chunk"
                )
            kind = frame["kind"]
            if kind == "heartbeat":
                continue
            if kind == "records":
                try:
                    return decode_records(frame["records"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ProtocolError(
                        f"worker {self.address} sent an undecodable "
                        f"records frame: {exc}"
                    ) from exc
            if kind == "error":
                raise WorkerTaskError(
                    f"worker {self.address} failed:\n"
                    f"{frame.get('message', '(no detail)')}"
                )
            raise ProtocolError(
                f"worker {self.address} sent unexpected {kind!r} mid-chunk"
            )

    def close(self) -> None:
        # Teardown runs on error paths too, so it must never raise and
        # mask the original campaign exception — not for socket errors
        # and not for serialization errors while building the bye frame.
        try:
            send_frame(self.sock, {"kind": "bye"})
        except Exception:  # noqa: BLE001 — best-effort goodbye only
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _WorkerSlot:
    """Executor-side state of one worker address across (re)connects."""

    def __init__(self, address: str) -> None:
        self.address = address
        self.connection: Optional[_WorkerConnection] = None
        #: False once the reconnect budget is exhausted for the current
        #: ``run`` call; a later call starts fresh.
        self.alive = True
        self.stats = {"chunks_ok": 0, "retries": 0, "reconnects": 0,
                      "failures": 0}


class SocketExecutor(Executor):
    """Shards campaign cells in chunks over TCP to remote worker processes.

    ``config.workers`` lists the ``host:port`` addresses of running
    ``python -m repro.exec.worker`` processes.  Each cell's tasks are cut
    into ``~4 x len(workers)`` contiguous chunks and pulled from a shared
    queue by one dispatcher thread per worker, so the shard assignment
    load-balances while the assembled record stream stays in task order.

    Failure model (details in the module docstring): hung workers are
    detected by missed heartbeats and hard chunk deadlines; dropped
    workers are re-dialled with exponential backoff; chunks lost to
    either are requeued for the surviving workers (with a per-chunk
    attempt cap so one poisonous chunk cannot loop forever); and a fleet
    that shrinks to zero degrades to local in-process execution — with
    one loud warning — unless ``config.fallback`` is off.
    """

    name = "socket"

    #: Chunks queued per worker: small enough to amortize round-trips,
    #: large enough that a slow worker cannot stall the whole cell.
    CHUNKS_PER_WORKER = 4
    #: Seconds between worker heartbeats while a chunk computes.
    HEARTBEAT_INTERVAL = DEFAULT_HEARTBEAT_INTERVAL
    #: Missed heartbeats before a silent connection is declared hung.
    HEARTBEAT_MISSES = 3
    #: Exponential-backoff reconnect schedule: ``BASE * 2**attempt``
    #: seconds, capped at ``CAP``, for up to ``ATTEMPTS`` attempts per
    #: disconnection.
    RECONNECT_BASE = 0.5
    RECONNECT_CAP = 8.0
    RECONNECT_ATTEMPTS = 4

    def __init__(self, app, config, connect_timeout: float = 30.0,
                 heartbeat_interval: Optional[float] = None,
                 reconnect_attempts: Optional[int] = None,
                 reconnect_base: Optional[float] = None) -> None:
        super().__init__(app, config)
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = (heartbeat_interval
                                   if heartbeat_interval is not None
                                   else self.HEARTBEAT_INTERVAL)
        self.reconnect_attempts = (reconnect_attempts
                                   if reconnect_attempts is not None
                                   else self.RECONNECT_ATTEMPTS)
        self.reconnect_base = (reconnect_base
                               if reconnect_base is not None
                               else self.RECONNECT_BASE)
        self._slots: List[_WorkerSlot] = []
        self._lock = threading.Lock()
        self._local_only = False
        self._fallback_runs = 0
        self._fallback_warned = False
        #: Optional zero-argument callable returning the *current* worker
        #: addresses (the campaign daemon passes its registry's ``live``).
        #: Re-queried before every :meth:`run` call, so workers that dial
        #: in mid-campaign join the fleet at the next chunk boundary.  A
        #: plain attribute, not a ``CampaignConfig`` field: the config
        #: travels the wire (``dataclasses.asdict``) and a live callable
        #: must never be part of it.
        self.fleet_source: Optional[Callable[[], Sequence[str]]] = None

    # ------------------------------------------------------------------
    # Connection management.
    # ------------------------------------------------------------------
    def _frame_timeout(self) -> float:
        return max(1.0, self.heartbeat_interval * self.HEARTBEAT_MISSES)

    def _connect(self, slot: _WorkerSlot) -> None:
        slot.connection = _WorkerConnection(
            slot.address, self.app, self.config, self.connect_timeout,
            self.heartbeat_interval,
        )

    def _drop_connection(self, slot: _WorkerSlot) -> None:
        if slot.connection is not None:
            slot.connection.close()
            slot.connection = None

    def _reconnect(self, slot: _WorkerSlot, stop: threading.Event) -> None:
        """Re-dial a dropped worker with exponential backoff.

        Raises the last connection error once the attempt budget is
        exhausted; :class:`HandshakeError` aborts immediately (a version
        or secret mismatch will not fix itself by waiting).
        """
        last_error: Exception = ConnectionError(
            f"worker {slot.address}: no reconnect attempts configured")
        for attempt in range(self.reconnect_attempts):
            delay = min(self.reconnect_base * (2 ** attempt),
                        self.RECONNECT_CAP)
            if stop.wait(delay):
                raise ConnectionError("executor shutting down")
            try:
                self._connect(slot)
            except HandshakeError:
                raise
            except (OSError, ProtocolError) as exc:
                last_error = exc
                continue
            with self._lock:
                slot.stats["reconnects"] += 1
            return
        raise last_error

    def start(self) -> None:
        """Probe every configured worker once.

        Addresses that fail to connect are *not* dropped — their
        dispatchers retry with backoff during :meth:`run` — but a fleet
        with zero reachable workers at startup is almost always a
        configuration problem, so it degrades (or fails) immediately
        rather than after a full backoff cycle per address.
        """
        if self._slots or self._local_only:
            return
        if not self.config.workers:
            raise ValueError("SocketExecutor requires CampaignConfig.workers")
        for address in self.config.workers:
            parse_worker_address(address)  # malformed addresses fail fast
        slots = [_WorkerSlot(address) for address in self.config.workers]
        startup_errors: List[Tuple[str, Exception]] = []
        for slot in slots:
            try:
                self._connect(slot)
            except HandshakeError:
                raise  # configuration problem: always fatal and loud
            except (OSError, ProtocolError) as exc:
                slot.stats["failures"] += 1
                startup_errors.append((slot.address, exc))
        self._slots = slots
        if not any(slot.connection for slot in slots):
            detail = "; ".join(f"{address}: {error}"
                               for address, error in startup_errors)
            if not self.config.fallback:
                raise ConnectionError(
                    f"no socket workers reachable at startup ({detail}); "
                    f"start the workers or drop --no-fallback"
                )
            self._degrade(f"no workers reachable at startup ({detail})")

    def _refresh_fleet(self) -> None:
        """Fold newly-registered workers into the fleet.

        Existing slots (and their stats/backoff state) are kept — a
        worker that fell out of the registry merely stops getting new
        chunks once its reconnect budget runs out; it is never yanked
        mid-chunk.  Malformed or duplicate addresses are skipped.
        """
        if self.fleet_source is None or self._local_only:
            return
        try:
            addresses = list(self.fleet_source())
        except Exception:  # noqa: BLE001 — a flaky registry must not
            return         # kill a healthy campaign
        known = {slot.address for slot in self._slots}
        for address in addresses:
            if address in known:
                continue
            try:
                parse_worker_address(address)
            except ValueError:
                continue
            self._slots.append(_WorkerSlot(address))

    def _degrade(self, reason: str) -> None:
        """Switch this executor to local in-process execution, loudly."""
        self._local_only = True
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                f"socket executor lost its whole worker fleet — falling "
                f"back to local in-process execution ({reason}); records "
                f"stay bit-identical but throughput drops to one host",
                RuntimeWarning, stacklevel=3,
            )

    # ------------------------------------------------------------------
    # Chunk deadlines.
    # ------------------------------------------------------------------
    def _chunk_deadline(self, chunk: Sequence[RunTask]) -> Optional[float]:
        """Hard wall-clock budget for one chunk.

        ``config.chunk_timeout`` when set; otherwise derived from the
        watchdog budgets of the chunk's runs — a run can execute at most
        ``watchdog_budget`` instructions, so dividing the chunk's total
        budget by a very conservative interpret rate (with 4x headroom
        and a 60s floor) bounds how long a *live* chunk can possibly
        take.  Anything past that is stuck, heartbeats or not.
        """
        if self.config.chunk_timeout is not None:
            return self.config.chunk_timeout
        total_budget = 0
        for run_index, _errors, _mode in chunk:
            seed = self.config.workload_seed_for(run_index)
            total_budget += self.app.golden(seed).watchdog_budget
        return max(60.0, 4.0 * total_budget
                   / ASSUMED_MIN_INSTRUCTIONS_PER_SECOND)

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[RunTask]) -> List[RunRecord]:
        if not self._slots and not self._local_only:
            self.start()
        self._refresh_fleet()
        tasks = list(tasks)
        if not tasks:
            return []
        if self._local_only:
            return self._run_locally(tasks)
        for slot in self._slots:
            slot.alive = True
        chunk_size = max(1, -(-len(tasks) // (len(self._slots)
                                              * self.CHUNKS_PER_WORKER)))
        chunks = [tasks[start:start + chunk_size]
                  for start in range(0, len(tasks), chunk_size)]

        pending: "queue.Queue[int]" = queue.Queue()
        for index in range(len(chunks)):
            pending.put(index)
        results: Dict[int, List[RunRecord]] = {}
        attempts = [0] * len(chunks)
        failures: List[Tuple[str, Exception]] = []
        task_errors: List[WorkerTaskError] = []
        fatal: List[Exception] = []
        stop = threading.Event()
        # One poisonous chunk (e.g. one that reproducibly crashes the
        # worker *process*) must not ping-pong around the fleet forever.
        max_attempts = max(3, 2 * len(self._slots))

        def dispatch(slot: _WorkerSlot) -> None:
            while not stop.is_set():
                try:
                    index = pending.get(timeout=0.05)
                except queue.Empty:
                    with self._lock:
                        if len(results) == len(chunks):
                            return
                    continue
                try:
                    if slot.connection is None:
                        self._reconnect(slot, stop)
                    records = slot.connection.run_chunk(
                        chunks[index], self._frame_timeout(),
                        self._chunk_deadline(chunks[index]))
                except WorkerTaskError as exc:
                    # Deterministic application error: retrying elsewhere
                    # would fail identically.  Abort the cell.
                    pending.put(index)
                    with self._lock:
                        task_errors.append(exc)
                    stop.set()
                    return
                except (HandshakeError, FrameTooLargeError) as exc:
                    # Configuration problems — fatal, never requeued
                    # around the fleet.
                    pending.put(index)
                    with self._lock:
                        fatal.append(exc)
                    stop.set()
                    return
                except (OSError, ProtocolError) as exc:
                    # Transport failure: account the failed lease, then
                    # either requeue the chunk or — past the attempt cap
                    # — stop bouncing it around the fleet (a chunk that
                    # keeps timing out or crashing workers would loop
                    # forever): execute it locally when fallback is on,
                    # abort when it is off.
                    self._drop_connection(slot)
                    with self._lock:
                        slot.stats["failures"] += 1
                        slot.stats["retries"] += 1
                        attempts[index] += 1
                        failures.append((slot.address, exc))
                        exhausted = attempts[index] > max_attempts
                    if not exhausted:
                        pending.put(index)
                    elif not self.config.fallback:
                        with self._lock:
                            fatal.append(RuntimeError(
                                f"chunk {index} failed on {attempts[index]} "
                                f"attempt(s) across the fleet (fallback "
                                f"disabled); last error from "
                                f"{slot.address}: {exc}"
                            ))
                        stop.set()
                        return
                    else:
                        warnings.warn(
                            f"chunk {index} exhausted its "
                            f"{attempts[index]} remote attempt(s) (last "
                            f"error from {slot.address}: {exc}); executing "
                            f"its {len(chunks[index])} run(s) locally",
                            RuntimeWarning, stacklevel=2,
                        )
                        records = self._run_locally(chunks[index])
                        with self._lock:
                            results[index] = records
                    try:
                        self._reconnect(slot, stop)
                    except HandshakeError as handshake_exc:
                        with self._lock:
                            fatal.append(handshake_exc)
                        stop.set()
                        return
                    except (OSError, ProtocolError) as reconnect_exc:
                        with self._lock:
                            failures.append((slot.address, reconnect_exc))
                            slot.alive = False
                        return
                else:
                    with self._lock:
                        results[index] = records
                        slot.stats["chunks_ok"] += 1

        threads = [threading.Thread(target=dispatch, args=(slot,),
                                    daemon=True)
                   for slot in self._slots if slot.connection is not None
                   or slot.alive]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()

        if task_errors:
            raise task_errors[0]
        if fatal:
            raise fatal[0]
        missing = [index for index in range(len(chunks))
                   if index not in results]
        if missing:
            # Fleet lost mid-cell: every dispatcher exhausted its
            # reconnect budget with chunks still unfinished.
            for slot in self._slots:
                self._drop_connection(slot)
            detail = "; ".join(f"{address}: {error}"
                               for address, error in failures[-len(
                                   self._slots) * 2:])
            if not self.config.fallback:
                raise FleetLostError(
                    f"socket campaign lost {len(missing)} chunk(s) with no "
                    f"workers left (fallback disabled); failures: "
                    f"{detail or 'none reported'}"
                )
            self._degrade(f"{len(missing)} chunk(s) unfinished; recent "
                          f"failures: {detail or 'none reported'}")
            for index in missing:
                results[index] = self._run_locally(chunks[index])
        return [record for index in range(len(chunks))
                for record in results[index]]

    def _run_locally(self, tasks: Sequence[RunTask]) -> List[RunRecord]:
        """Degraded mode: execute tasks in-process, bit-identically."""
        with self._lock:
            self._fallback_runs += len(tasks)
        return make_records(self.app, self.config, tasks)

    # ------------------------------------------------------------------
    # Fleet health.
    # ------------------------------------------------------------------
    def fleet_stats(self) -> Dict:
        """Per-worker transport counters plus the local-fallback tally.

        ``{"workers": {address: {chunks_ok, retries, reconnects,
        failures}}, "fallback_runs": N}`` — consumed by the sweep report
        and persisted to the store's ``fleet.json`` so fleet health is
        visible from ``python -m repro status`` without log-diving.
        """
        with self._lock:
            return {
                "workers": {slot.address: dict(slot.stats)
                            for slot in self._slots},
                "fallback_runs": self._fallback_runs,
            }

    def close(self) -> None:
        for slot in self._slots:
            self._drop_connection(slot)
        self._slots = []
