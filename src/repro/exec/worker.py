"""Campaign worker process: ``python -m repro.exec.worker``.

Listens on a TCP port, accepts sessions from a
:class:`~repro.exec.tcp.SocketExecutor`, and executes the chunks of
campaign run tasks it is sent (wire protocol v2; frame table in
:mod:`repro.exec.tcp`).  Start one per host (or per core) you want a
distributed sweep to use::

    python -m repro.exec.worker --listen 0.0.0.0:7006 --secret S3CR3T

``python -m repro worker`` is the same worker with the same flags
(:func:`add_worker_arguments`).  The worker prints
``repro-exec-worker listening on HOST:PORT`` once the socket is bound —
with port 0 the operating system picks a free port and the banner is how
callers (and the test suite) learn it.

Sessions are accepted on a thread each, so a half-open or stalled old
session never blocks an executor's reconnect — but chunk *computation*
is serialized through one lock: campaign chunks are CPU-bound, so a host
wanting N-way parallelism runs N worker processes rather than one worker
with N threads.  Applications are cached across sessions by ``(name,
params)``, so a reconnecting executor does not pay program compilation
or golden-run warmup again.

.. note:: Security model
   The v2 wire protocol is **non-executable**: every frame is plain JSON
   validated against a fixed schema, the init payload names an
   application from :mod:`repro.apps.registry` rather than shipping a
   serialized object, and nothing received from the socket is ever
   deserialized into code, eval'd or imported.  A hostile peer can therefore waste
   this worker's CPU (any registered app, any campaign size) but cannot
   execute code as the worker user.  For fleets crossing a trust
   boundary, start workers with ``--secret`` (or the
   ``REPRO_WORKER_SECRET`` environment variable) and pass the matching
   ``--secret`` to the sweep: the handshake then requires both
   sides to prove knowledge of the shared secret via HMAC-SHA256 before
   any campaign traffic is accepted.  The secret never crosses the wire;
   note that frames themselves stay cleartext — tunnel over SSH when the
   network itself is untrusted.
"""

from __future__ import annotations

import argparse
import hmac
import json
import os
import secrets
import socket
import sys
import threading
import traceback
from typing import Callable, Dict, Optional

from ..apps.registry import create_app
from ..core.app import ErrorTolerantApp
from .base import make_records
from .tcp import (
    DEFAULT_HEARTBEAT_INTERVAL,
    PROTOCOL_VERSION,
    FrameTooLargeError,
    ProtocolError,
    decode_config,
    decode_tasks,
    handshake_digest,
    recv_frame,
    send_frame,
)

#: Applications already constructed (and progressively warmed) by this
#: worker process, keyed by their init payload.  Reconnects after a
#: dropped session hit this cache instead of recompiling the program and
#: re-simulating golden runs.
_APP_CACHE: Dict[str, ErrorTolerantApp] = {}
_APP_CACHE_LOCK = threading.Lock()

#: Chunks are CPU-bound: one at a time per worker process, even when
#: several sessions are connected (e.g. an executor reconnect racing a
#: stalled old session).  Sessions waiting here still heartbeat, so the
#: executor sees them as alive-but-queued, not hung.
_COMPUTE_LOCK = threading.Lock()

#: Seconds a new connection gets to complete handshake + init before the
#: session is dropped — keeps half-open connections (port scanners, chaos
#: stalls) from pinning session threads forever.
HANDSHAKE_TIMEOUT = 60.0

#: Seconds between heartbeats to a campaign daemon under ``--register``
#: — comfortably inside the daemon's default 30s worker TTL, so one lost
#: heartbeat never drops a healthy worker from the fleet.
REGISTER_INTERVAL = 5.0


def _cached_app(name: str, params: Dict) -> ErrorTolerantApp:
    key = json.dumps([name, sorted(params.items())], sort_keys=True)
    with _APP_CACHE_LOCK:
        app = _APP_CACHE.get(key)
        if app is None:
            app = create_app(name, **params)
            _APP_CACHE[key] = app
        return app


def _refuse(connection: socket.socket, message: str) -> None:
    """Best-effort error frame; the session is over either way."""
    try:
        send_frame(connection, {"kind": "error", "message": message})
    except OSError:
        pass


def _handshake(connection: socket.socket,
               secret: Optional[str]) -> bool:
    """Run the worker side of the v2 handshake; True when it succeeded."""
    hello = recv_frame(connection)
    if hello is None:
        return False
    if hello["kind"] != "hello":
        _refuse(connection, f"expected a hello frame, got {hello['kind']!r}")
        return False
    peer_version = hello.get("protocol")
    if peer_version != PROTOCOL_VERSION:
        _refuse(connection,
                f"protocol version mismatch: executor speaks "
                f"v{peer_version}, this worker speaks v{PROTOCOL_VERSION}; "
                f"upgrade the older side so both run the same repro version")
        return False
    client_nonce = str(hello.get("nonce") or "")
    worker_nonce = secrets.token_hex(16)
    auth = (handshake_digest(secret, "worker", client_nonce, worker_nonce)
            if secret else None)
    send_frame(connection, {"kind": "welcome", "protocol": PROTOCOL_VERSION,
                            "nonce": worker_nonce, "auth": auth})
    reply = recv_frame(connection)
    if reply is None:
        return False
    if reply["kind"] != "auth":
        _refuse(connection, f"expected an auth frame, got {reply['kind']!r}")
        return False
    mac = reply.get("mac")
    if secret:
        expected = handshake_digest(secret, "client", client_nonce,
                                    worker_nonce)
        if not mac or not hmac.compare_digest(str(mac), expected):
            _refuse(connection,
                    "HMAC verification failed: the executor's shared "
                    "secret does not match this worker's --secret")
            return False
    elif mac:
        _refuse(connection,
                "this worker was started without --secret but the executor "
                "sent credentials; start the worker with the matching "
                "--secret")
        return False
    send_frame(connection, {"kind": "ready"})
    return True


def _compute_with_heartbeats(connection: socket.socket, app, config, tasks,
                             interval: float) -> Optional[Dict]:
    """Execute one chunk, heartbeating while it runs.

    The chunk computes on a helper thread; this (session) thread owns the
    socket and emits a ``heartbeat`` frame every ``interval`` seconds —
    including while the chunk queues behind :data:`_COMPUTE_LOCK` —
    so the executor can tell slow from hung.  Returns the reply frame, or
    ``None`` when the executor vanished mid-chunk.
    """
    outcome: Dict = {}
    done = threading.Event()

    def compute() -> None:
        try:
            with _COMPUTE_LOCK:
                records = make_records(app, config, tasks)
            outcome["reply"] = {
                "kind": "records",
                "records": [record.to_json() for record in records],
            }
        except Exception:  # noqa: BLE001 — reported to the executor
            outcome["reply"] = {"kind": "error",
                                "message": traceback.format_exc()}
        finally:
            done.set()

    worker = threading.Thread(target=compute, daemon=True)
    worker.start()
    while not done.wait(interval):
        try:
            send_frame(connection, {"kind": "heartbeat"})
        except OSError:
            # Executor gone; let the compute thread finish on its own
            # (it holds the compute lock) and drop the session.
            return None
    worker.join()
    return outcome["reply"]


def _handle_session(connection: socket.socket,
                    secret: Optional[str] = None) -> None:
    """Serve one executor session on an accepted connection."""
    connection.settimeout(HANDSHAKE_TIMEOUT)
    if not _handshake(connection, secret):
        return
    init = recv_frame(connection)
    if init is None:
        return
    if init["kind"] != "init":
        _refuse(connection, f"expected an init frame, got {init['kind']!r}")
        return
    try:
        app_spec = init["app"]
        app = _cached_app(str(app_spec["name"]),
                          dict(app_spec.get("params") or {}))
        config = decode_config(init["config"])
    except Exception as exc:  # noqa: BLE001 — refuse with the reason
        _refuse(connection, f"init payload rejected: {exc}")
        return
    interval = float(init.get("heartbeat") or DEFAULT_HEARTBEAT_INTERVAL)
    send_frame(connection, {"kind": "init-ok"})
    connection.settimeout(None)
    while True:
        frame = recv_frame(connection)
        if frame is None or frame["kind"] == "bye":
            return
        if frame["kind"] != "run":
            _refuse(connection, f"unexpected {frame['kind']!r} frame")
            return
        try:
            tasks = decode_tasks(frame["tasks"])
        except (KeyError, TypeError, ValueError) as exc:
            _refuse(connection, f"undecodable run frame: {exc}")
            return
        reply = _compute_with_heartbeats(connection, app, config, tasks,
                                         interval)
        if reply is None:
            return
        try:
            send_frame(connection, reply)
        except FrameTooLargeError as exc:
            _refuse(connection, str(exc))
            return


def _registration_loop(url: str, address: str,
                       stop: threading.Event) -> None:
    """Heartbeat ``address`` to a campaign daemon until ``stop`` is set.

    Registration is fire-and-forget: a daemon that is down or not yet up
    simply misses heartbeats (and this worker re-appears in its registry
    as soon as it answers again), so worker and daemon can start in any
    order.  A final best-effort deregister lets an orderly shutdown leave
    the fleet immediately instead of waiting out the TTL.
    """
    from ..service.client import ServiceClient

    try:
        client = ServiceClient(url, timeout=10.0)
    except ValueError:
        return  # malformed URL was already reported by main()
    while not stop.is_set():
        try:
            client.register_worker(address)
        except Exception:  # noqa: BLE001 — daemon down; keep trying
            pass
        stop.wait(REGISTER_INTERVAL)
    try:
        client.register_worker(address, deregister=True)
    except Exception:  # noqa: BLE001 — best effort only
        pass


def serve(host: str = "127.0.0.1", port: int = 0,
          max_sessions: Optional[int] = None,
          banner_stream=None, secret: Optional[str] = None,
          register_url: Optional[str] = None,
          advertise: Optional[str] = None) -> None:
    """Accept and serve executor sessions until ``max_sessions`` is reached.

    Each session runs on its own daemon thread, so a stalled or half-open
    session never blocks the accept loop — an executor reconnecting after
    a network fault gets a fresh session immediately.

    With ``register_url`` the worker dials into a campaign daemon: it
    POSTs its address (``advertise`` when given — e.g. when bound to
    ``0.0.0.0`` — else the bound address) to the daemon's ``/v1/workers``
    endpoint every few seconds, so ``python -m repro serve`` discovers
    the fleet without anyone passing ``--workers`` lists around.
    """
    stream = banner_stream if banner_stream is not None else sys.stdout

    def session(connection: socket.socket) -> None:
        with connection:
            try:
                _handle_session(connection, secret=secret)
            except (ProtocolError, ConnectionError, OSError, socket.timeout):
                pass  # executor vanished or sent garbage; drop the session

    stop_registration = threading.Event()
    registrar: Optional[threading.Thread] = None
    with socket.create_server((host, port)) as server:
        bound_host, bound_port = server.getsockname()[:2]
        if ":" in bound_host:
            # Advertise IPv6 hosts in the bracketed form
            # parse_worker_address accepts — the banner is the documented
            # way callers learn the --workers address.
            bound_host = f"[{bound_host}]"
        print(f"repro-exec-worker listening on {bound_host}:{bound_port}",
              file=stream, flush=True)
        if register_url:
            address = advertise or f"{bound_host}:{bound_port}"
            registrar = threading.Thread(
                target=_registration_loop,
                args=(register_url, address, stop_registration),
                daemon=True)
            registrar.start()
        try:
            served = 0
            threads = []
            while max_sessions is None or served < max_sessions:
                connection, _address = server.accept()
                thread = threading.Thread(target=session, args=(connection,),
                                          daemon=True)
                thread.start()
                threads.append(thread)
                served += 1
            for thread in threads:
                thread.join(timeout=HANDSHAKE_TIMEOUT)
        finally:
            stop_registration.set()
            if registrar is not None:
                registrar.join(timeout=REGISTER_INTERVAL * 3)


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker's flags, shared by both entry points."""
    parser.add_argument("--listen", default=None, metavar="HOST:PORT",
                        help="address to bind (default 127.0.0.1:0; port 0 "
                             "lets the OS pick — the printed banner is how "
                             "callers learn it)")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="exit after serving this many sessions "
                             "(default: serve forever)")
    parser.add_argument("--secret", default=None,
                        help="shared secret: refuse executors that cannot "
                             "prove knowledge of it via the handshake HMAC "
                             "(default: $REPRO_WORKER_SECRET, else no "
                             "authentication)")
    parser.add_argument("--register", default=None, metavar="URL",
                        help="campaign-service URL (e.g. "
                             "http://127.0.0.1:8340) to heartbeat this "
                             "worker's address to, so `python -m repro "
                             "serve` discovers it automatically")
    parser.add_argument("--advertise", default=None, metavar="HOST:PORT",
                        help="address to register at the campaign service "
                             "(default: the bound address; set this when "
                             "binding 0.0.0.0)")


def _print_usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_worker(args: argparse.Namespace,
               usage_error: Callable[[str], int] = _print_usage_error) -> int:
    """Serve with the flags of :func:`add_worker_arguments`.

    A malformed ``--listen`` or ``--advertise`` address is reported
    through ``usage_error``, whose return value becomes the exit status.
    """
    from .tcp import parse_listen_address, parse_worker_address

    try:
        host, port = (parse_listen_address(args.listen)
                      if args.listen is not None else ("127.0.0.1", 0))
        if args.advertise is not None:
            parse_worker_address(args.advertise)
    except ValueError as error:
        return usage_error(str(error))
    secret = args.secret
    if secret is None:
        secret = os.environ.get("REPRO_WORKER_SECRET") or None
    serve(host, port, max_sessions=args.max_sessions, secret=secret,
          register_url=args.register, advertise=args.advertise)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.worker",
        description="TCP worker serving campaign run tasks to SocketExecutor",
    )
    add_worker_arguments(parser)
    return run_worker(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
