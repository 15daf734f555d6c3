"""A single-threaded socket load generator for the pricing service.

One process, at most two connections, non-blocking sockets and one
selector: requests are pre-encoded lines, responses are matched by
``id`` and checked byte for byte against the expected ``result``
encoding.  The server's responses are ``json.dumps(..., sort_keys=True)``
of ``{"id", "ok", "result"}``, so the ``result`` bytes sit between a fixed
prefix and the closing brace and compare with ``==`` — no JSON decoding
on the hot path.

Two loops:

* :meth:`LoadGenerator.open_loop` sends on a seeded Poisson schedule
  and times each request from when it was due;
* :meth:`LoadGenerator.closed_loop` keeps a fixed number of requests in
  flight per connection and times each from when it was sent.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

_perf = time.perf_counter

#: A request not answered ``ok`` within this long counts as failed.
ANSWER_TIMEOUT_S = 10.0

_OK = b'"ok": true, "result": '


@dataclass
class Request:
    """One request template: its frame after the id, and the expected result."""

    key: str
    frame_tail: bytes
    expected: bytes


def request_template(op: str, params: Dict[str, object], expected: object) -> Request:
    """Pre-encode ``op``/``params`` and the expected ``result`` bytes."""
    tail = json.dumps({"op": op, "params": params})[1:]
    return Request(
        key=f"{op}:{json.dumps(params, sort_keys=True)}",
        frame_tail=(", " + tail + "\n").encode("utf-8"),
        expected=json.dumps(expected, sort_keys=True).encode("utf-8"),
    )


def result_bytes(line: bytes) -> Tuple[Optional[int], Optional[bytes]]:
    """``(id, result bytes)`` of a response line; ``result`` is None unless ok.

    >>> result_bytes(b'{"id": 7, "ok": true, "result": {"a": 1}}\\n')
    (7, b'{"a": 1}')
    >>> result_bytes(b'{"error": {"code": "x"}, "id": 3, "ok": false}\\n')
    (3, None)
    """
    if line.startswith(b'{"id": ') and line.endswith(b"}\n"):
        comma = line.find(b", ", 7)
        if comma > 0 and line.startswith(_OK, comma + 2):
            try:
                rid = int(line[7:comma])
            except ValueError:
                return None, None
            return rid, line[comma + 2 + len(_OK) : -2]
    try:
        message = json.loads(line)
    except ValueError:
        return None, None
    rid = message.get("id") if isinstance(message, dict) else None
    return (rid if isinstance(rid, int) else None), None


@dataclass
class PhaseStats:
    """What one loop phase measured."""

    sent: int = 0
    answered: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    started_at: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    done_at: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    bad_keys: List[str] = field(default_factory=list)

    @property
    def cpu_frac(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0


class _Conn:
    __slots__ = ("sock", "inbuf", "outbuf")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = b""
        self.outbuf = bytearray()


class LoadGenerator:
    """Drive one server over ``n_conns`` connections (at most two)."""

    def __init__(self, host: str, port: int, n_conns: int = 2) -> None:
        if not 1 <= n_conns <= 2:
            raise ValueError("the load generator uses one or two connections")
        self.sel = selectors.DefaultSelector()
        self.conns: List[_Conn] = []
        for _ in range(n_conns):
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self.sel.register(sock, selectors.EVENT_READ, conn)
            self.conns.append(conn)
        self._next_id = 1_000_000

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    # -- plumbing ----------------------------------------------------------

    def _flush(self) -> None:
        for conn in self.conns:
            if conn.outbuf:
                try:
                    n = conn.sock.send(conn.outbuf)
                except BlockingIOError:
                    n = 0
                del conn.outbuf[:n]

    def _poll(self, timeout: float, on_line) -> None:
        for key, _ in self.sel.select(timeout):
            conn = key.data
            try:
                data = conn.sock.recv(1 << 20)
            except BlockingIOError:
                continue
            if not data:
                raise ConnectionError("server closed the connection")
            now = _perf()
            buf = conn.inbuf + data
            start = 0
            while True:
                end = buf.find(b"\n", start)
                if end < 0:
                    break
                on_line(conn, buf[start : end + 1], now)
                start = end + 1
            conn.inbuf = buf[start:]

    def _send(self, conn: _Conn, req: Request) -> int:
        rid = self._next_id
        self._next_id += 1
        conn.outbuf += b'{"id": %d' % rid
        conn.outbuf += req.frame_tail
        return rid

    def _drain(self, pending: Dict[int, tuple], on_line, stats: PhaseStats) -> None:
        """Wait up to the answer timeout for every outstanding request."""
        give_up = _perf() + ANSWER_TIMEOUT_S
        while pending and _perf() < give_up:
            self._flush()
            self._poll(0.05, on_line)
        stats.failed += len(pending)
        stats.bad_keys.extend(pending[r][0].key for r in list(pending)[:8])
        pending.clear()

    def _checker(self, pending: Dict[int, tuple], stats: PhaseStats):
        lat = stats.latencies_s.append
        done = stats.done_at.append

        def on_line(conn: _Conn, line: bytes, now: float) -> None:
            rid, result = result_bytes(line)
            entry = pending.pop(rid, None)
            if entry is None:
                stats.failed += 1
                return
            req, t_ref = entry
            stats.answered += 1
            if result is None or result != req.expected:
                stats.failed += 1
                if len(stats.bad_keys) < 8:
                    stats.bad_keys.append(req.key)
                return
            lat(now - t_ref)
            done(now)

        return on_line

    # -- loops -------------------------------------------------------------

    def open_loop(
        self, requests: Sequence[Request], rate_per_s: float, seconds: float,
        seed: int,
    ) -> PhaseStats:
        """Seeded Poisson arrivals; latency runs from each request's due time."""
        rng = random.Random(seed)
        dues: List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(rate_per_s)
            if t >= seconds:
                break
            dues.append(t)
        stats = PhaseStats()
        pending: Dict[int, tuple] = {}
        start = _perf() + 0.01
        stats.started_at = start
        on_line = self._checker(pending, stats)
        cpu0 = time.process_time()
        late = stats.late_s.append
        n = len(dues)
        i = 0
        n_req = len(requests)
        conns = self.conns
        while i < n:
            now = _perf() - start
            while i < n and dues[i] <= now:
                req = requests[i % n_req]
                rid = self._send(conns[i % len(conns)], req)
                pending[rid] = (req, start + dues[i])
                late(now - dues[i])
                i += 1
            self._flush()
            self._poll(0, on_line)
            if i < n:
                wait = dues[i] - (_perf() - start)
                if wait > 0.0015:
                    self._poll(wait - 0.001, on_line)
                elif wait > 0.00005:
                    time.sleep(wait - 0.00005)
        stats.sent = n
        stats.wall_s = _perf() - start
        stats.cpu_s = time.process_time() - cpu0
        self._drain(pending, on_line, stats)
        return stats

    def closed_loop(
        self, requests: Sequence[Request], depth: int, seconds: float,
        seed: int,
    ) -> PhaseStats:
        """``depth`` requests in flight per connection for ``seconds``."""
        order = list(range(len(requests)))
        random.Random(seed).shuffle(order)
        stats = PhaseStats()
        pending: Dict[int, tuple] = {}
        start = stats.started_at = _perf()
        window_end = start + seconds
        check = self._checker(pending, stats)
        cursor = [0]
        n_req = len(order)

        def issue(conn: _Conn) -> None:
            req = requests[order[cursor[0] % n_req]]
            cursor[0] += 1
            pending[self._send(conn, req)] = (req, _perf())

        def on_line(conn: _Conn, line: bytes, now: float) -> None:
            check(conn, line, now)
            if now < window_end:
                issue(conn)

        cpu0 = time.process_time()
        for conn in self.conns:
            for _ in range(depth):
                issue(conn)
        while _perf() < window_end:
            self._flush()
            self._poll(0.01, on_line)
        stats.wall_s = _perf() - start
        stats.cpu_s = time.process_time() - cpu0
        stats.sent = cursor[0]
        self._drain(pending, on_line, stats)
        return stats
