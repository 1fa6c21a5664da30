"""Frame-aware chaos TCP proxy for exercising the campaign wire protocol.

Sits between a :class:`~repro.exec.tcp.SocketExecutor` and a real
``repro.exec.worker`` process and injects failures on a **deterministic
schedule**: every event fires on the Nth frame of a given kind in a given
direction, so a chaos test run is exactly reproducible — no timing
randomness, no flaky assertions.

The proxy speaks just enough of the wire protocol to cut the byte stream
on frame boundaries (12-byte length+CRC header, JSON payload) and peek at
each frame's ``kind``.  Supported actions:

``kill``
    Close both directions of the connection mid-protocol, right before
    the matched frame would have been forwarded (the executor sees an
    EOF or reset).
``stall``
    Swallow the matched frame and everything after it on that connection
    without closing — the half-open hang the heartbeat/deadline machinery
    exists to detect.
``truncate``
    Forward only the first half of the matched frame's bytes, then close
    — the peer reads a broken frame mid-stream.
``corrupt``
    Flip a byte in the matched frame's payload (CRC now fails) and
    forward it.
``blackhole``
    From this event on, accept new connections and immediately close
    them — a dead fleet, used by the total-loss schedules.  ``restore``
    (via ``skip`` on a later event) is not needed: the proxy stays dead.

Schedules are ordered lists of event dicts consumed head-first::

    [
        {"action": "kill", "on": "records", "direction": "s2c", "skip": 1},
        {"action": "corrupt", "on": "run", "direction": "c2s"},
    ]

``on`` names the frame kind to match (default ``"records"``),
``direction`` is ``"c2s"`` (executor to worker) or ``"s2c"`` (worker to
executor, the default), and ``skip`` matches the event on the
``skip+1``-th occurrence (default 0: the next one).  Events fire one at a
time, in order — the second event only starts matching after the first
has fired.

Used by ``tests/test_chaos.py``; importable anywhere (the proxy has no
test dependencies).
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Dict, List, Optional

from repro.exec.tcp import _HEADER

_C2S = "c2s"
_S2C = "s2c"


def _read_frame(sock: socket.socket) -> Optional[bytes]:
    """One whole raw frame (header + payload) from ``sock``, or ``None``
    at EOF.  EOF mid-frame returns the partial bytes read so far — the
    proxy forwards them verbatim; deciding what a broken tail means is
    the protocol's job, not the proxy's."""
    buffer = b""
    while len(buffer) < _HEADER.size:
        chunk = sock.recv(_HEADER.size - len(buffer))
        if not chunk:
            return buffer or None
        buffer += chunk
    length, _crc = _HEADER.unpack(buffer)
    while len(buffer) < _HEADER.size + length:
        chunk = sock.recv(min(1 << 16, _HEADER.size + length - len(buffer)))
        if not chunk:
            return buffer
        buffer += chunk
    return buffer


def _frame_kind(frame: bytes) -> str:
    try:
        payload = frame[_HEADER.size:]
        return str(json.loads(payload.decode("utf-8")).get("kind", "?"))
    except Exception:  # noqa: BLE001 — unparseable frames match nothing
        return "?"


def _corrupt(frame: bytes) -> bytes:
    """Flip one payload byte so the frame's CRC check fails on arrival."""
    if len(frame) <= _HEADER.size:
        return frame
    index = _HEADER.size + (len(frame) - _HEADER.size) // 2
    flipped = bytes([frame[index] ^ 0xFF])
    return frame[:index] + flipped + frame[index + 1:]


def _truncate(frame: bytes) -> bytes:
    return frame[:max(1, len(frame) // 2)]


class ChaosProxy:
    """Deterministic fault-injecting TCP proxy in front of one worker.

    ``ChaosProxy(upstream_address, schedule)`` listens on an OS-assigned
    loopback port (``proxy.address``); point the executor's ``workers``
    at it.  Thread-safe for the protocol's connection pattern (one active
    session at a time, reconnects after faults).
    """

    def __init__(self, upstream: str, schedule: List[Dict]) -> None:
        from repro.exec.tcp import parse_worker_address

        self._upstream = parse_worker_address(upstream)
        self._schedule = [dict(event) for event in schedule]
        self._skips_left = (self._schedule[0].get("skip", 0)
                            if self._schedule else 0)
        self._lock = threading.Lock()
        self._blackholed = False
        self._closing = False
        self._pumps: List[threading.Thread] = []
        self._server = socket.create_server(("127.0.0.1", 0))
        host, port = self._server.getsockname()[:2]
        self.address = f"{host}:{port}"
        self.events_fired = 0
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          daemon=True)
        self._acceptor.start()

    # ------------------------------------------------------------------
    # Schedule matching.
    # ------------------------------------------------------------------
    def _match(self, direction: str, kind: str) -> Optional[Dict]:
        """The head event if this frame fires it, consuming the schedule."""
        with self._lock:
            if not self._schedule:
                return None
            event = self._schedule[0]
            if event.get("direction", _S2C) != direction:
                return None
            if event.get("on", "records") != kind:
                return None
            if self._skips_left > 0:
                self._skips_left -= 1
                return None
            self._schedule.pop(0)
            self._skips_left = (self._schedule[0].get("skip", 0)
                                if self._schedule else 0)
            self.events_fired += 1
            return event

    @property
    def exhausted(self) -> bool:
        """True once every scheduled event has fired."""
        with self._lock:
            return not self._schedule

    # ------------------------------------------------------------------
    # Connection plumbing.
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                client, _address = self._server.accept()
            except OSError:
                return  # server socket closed
            if self._closing:
                client.close()
                return
            if self._blackholed:
                client.close()
                continue
            try:
                upstream = socket.create_connection(self._upstream,
                                                    timeout=10.0)
            except OSError:
                client.close()
                continue
            for direction, source, sink in ((_C2S, client, upstream),
                                            (_S2C, upstream, client)):
                pump = threading.Thread(
                    target=self._pump, args=(direction, source, sink),
                    daemon=True)
                pump.start()
                self._pumps.append(pump)

    def _pump(self, direction: str, source: socket.socket,
              sink: socket.socket) -> None:
        try:
            while True:
                frame = _read_frame(source)
                if frame is None:
                    break
                if len(frame) < _HEADER.size:
                    sink.sendall(frame)  # broken tail: forward verbatim
                    break
                event = self._match(direction, _frame_kind(frame))
                if event is None:
                    sink.sendall(frame)
                    continue
                action = event["action"]
                if action == "kill":
                    break
                if action == "stall":
                    # Swallow everything from here on without closing:
                    # the connection looks alive but goes silent.
                    while _read_frame(source) is not None:
                        pass
                    return
                if action == "truncate":
                    sink.sendall(_truncate(frame))
                    break
                if action == "corrupt":
                    sink.sendall(_corrupt(frame))
                    continue
                if action == "blackhole":
                    with self._lock:
                        self._blackholed = True
                    break
                raise ValueError(f"unknown chaos action {action!r}")
        except OSError:
            pass
        finally:
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._closing = True
        try:
            self._server.close()
        except OSError:
            pass
        for pump in self._pumps:
            pump.join(timeout=1.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ChaosProxy"]
