"""Resilient-serving primitives: drain, watchdog, brownout, idempotency.

The serving path (:mod:`repro.service.server`) assumes a perfect world —
clients that never vanish, sockets that never tear, load that never
exceeds what admission control can shed politely.  This module is the
imperfect-world toolkit the hardened server composes:

* :class:`DrainReport` — the structured record of a graceful shutdown,
  carrying the conservation law
  ``n_inflight_at_drain == n_completed_during_drain + n_cancelled``;
* :class:`PricingWatchdog` — liveness probe for the single pricing
  thread, so the ``health`` op can distinguish "ready" from "the
  settlement thread is wedged";
* :class:`BrownoutPolicy` / :class:`BrownoutController` — degraded mode:
  when the admission controller's reject streak crosses a threshold the
  server sheds expensive ops (``study``, ``tool``, ``compare``,
  full-detail bills) while keeping ``price`` summaries alive;
* :class:`IdempotencyCache` — the bounded server-side dedup cache behind
  client idempotency keys, so a retried ``price`` after a torn response
  replays the settled answer instead of double-settling;
* :func:`parse_frame` — wire-frame validation with the malformed-frame
  taxonomy (:class:`~repro.exceptions.FrameError`);
* :class:`SelfHealingClient` — a :class:`~repro.service.server.ServiceClient`
  wrapper that reconnects with
  :class:`~repro.robustness.supervisor.RetryPolicy` backoff and stamps
  idempotency keys on work ops, so one dropped socket costs a retry, not
  the dialogue.

>>> DrainReport(n_inflight_at_drain=2, n_completed_during_drain=2,
...             n_cancelled=0, deadline_s=5.0, drain_wall_s=0.01).conserved()
True
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..exceptions import (
    AdmissionError,
    FrameError,
    ServiceConnectionError,
    ServiceError,
)
from ..robustness.supervisor import RetryPolicy

__all__ = [
    "DrainReport",
    "PricingWatchdog",
    "BrownoutPolicy",
    "BrownoutController",
    "IdempotencyCache",
    "parse_frame",
    "IDEMPOTENT_OPS",
    "SelfHealingClient",
]

#: Work ops the self-healing client stamps with idempotency keys (the
#: same set the server gates through admission control).
IDEMPOTENT_OPS = frozenset({"price", "price_many", "compare", "study", "tool"})

#: Rejection codes that must *not* be pinned in the idempotency cache —
#: a later retry of the same key may legitimately succeed.
_RETRYABLE_CODES = frozenset(
    {"rate_limited", "overloaded", "deadline_exceeded", "brownout", "draining"}
)


@dataclass(frozen=True)
class DrainReport:
    """What happened to in-flight work during a graceful server stop.

    Emitted by :meth:`~repro.service.server.ContractPricingServer.stop`:
    the server first stops accepting connections, then gives the requests
    already in flight ``deadline_s`` seconds to finish, then cancels the
    stragglers.  Every in-flight request is accounted exactly once:

        ``n_inflight_at_drain == n_completed_during_drain + n_cancelled``

    >>> r = DrainReport(n_inflight_at_drain=3, n_completed_during_drain=2,
    ...                 n_cancelled=1, deadline_s=0.1, drain_wall_s=0.1)
    >>> r.conserved()
    True
    >>> r.to_dict()["n_cancelled"]
    1
    """

    n_inflight_at_drain: int
    n_completed_during_drain: int
    n_cancelled: int
    deadline_s: float
    drain_wall_s: float

    def conserved(self) -> bool:
        """True when every in-flight request was accounted exactly once."""
        return (
            self.n_inflight_at_drain
            == self.n_completed_during_drain + self.n_cancelled
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (for manifests and the CLI)."""
        return {
            "n_inflight_at_drain": self.n_inflight_at_drain,
            "n_completed_during_drain": self.n_completed_during_drain,
            "n_cancelled": self.n_cancelled,
            "deadline_s": self.deadline_s,
            "drain_wall_s": self.drain_wall_s,
            "conserved": self.conserved(),
        }


def _noop() -> None:
    return None


class PricingWatchdog:
    """Liveness probe for the single pricing thread.

    All settlement runs on one executor thread; if a rogue job wedges it,
    the event loop keeps answering ``ping`` while every priced op stalls.
    :meth:`beat` submits a no-op to that thread and waits up to
    ``probe_timeout_s`` — a timely echo proves the thread is alive.

    >>> import asyncio
    >>> from concurrent.futures import ThreadPoolExecutor
    >>> wd = PricingWatchdog(ThreadPoolExecutor(max_workers=1),
    ...                      probe_timeout_s=1.0)
    >>> asyncio.run(wd.beat())
    True
    >>> wd.alive
    True
    >>> wd.stats()["n_beats"]
    1
    """

    def __init__(self, executor, probe_timeout_s: float = 0.25) -> None:
        if probe_timeout_s <= 0:
            raise ServiceError("probe_timeout_s must be positive")
        self._executor = executor
        self.probe_timeout_s = float(probe_timeout_s)
        self._alive = True
        self._n_beats = 0
        self._n_misses = 0

    async def beat(self) -> bool:
        """Probe the pricing thread; True when it answered in time."""
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, _noop)
        try:
            await asyncio.wait_for(future, timeout=self.probe_timeout_s)
        except (asyncio.TimeoutError, RuntimeError):
            # RuntimeError: executor already shut down — equally "not alive".
            self._n_misses += 1
            self._alive = False
            return False
        self._n_beats += 1
        self._alive = True
        return True

    @property
    def alive(self) -> bool:
        """Result of the most recent :meth:`beat` (True before the first)."""
        return self._alive

    def stats(self) -> Dict[str, int]:
        """Probe counters: ``n_beats`` (answered) and ``n_misses``."""
        return {"n_beats": self._n_beats, "n_misses": self._n_misses}


@dataclass(frozen=True)
class BrownoutPolicy:
    """When and what the server sheds under sustained admission pressure.

    ``streak_threshold`` consecutive admission rejections engage brownout;
    ``recovery_observations`` consecutive pressure-free observations (the
    reject streak back at zero, i.e. the latest gated request was
    admitted) disengage it.  While engaged, ops in ``shed_ops`` and —
    with ``shed_full_detail`` — full-detail ``price`` bills are rejected
    with a structured ``brownout`` error; ``price`` summaries stay alive.

    >>> BrownoutPolicy(streak_threshold=4).shed_ops
    ('study', 'tool', 'compare')
    """

    streak_threshold: int = 8
    recovery_observations: int = 4
    shed_ops: Tuple[str, ...] = ("study", "tool", "compare")
    shed_full_detail: bool = True

    def __post_init__(self) -> None:
        if self.streak_threshold < 1:
            raise ServiceError("streak_threshold must be >= 1")
        if self.recovery_observations < 1:
            raise ServiceError("recovery_observations must be >= 1")


class BrownoutController:
    """Degraded-mode state machine driven by the admission reject streak.

    The server calls :meth:`observe` with
    :meth:`~repro.service.admission.AdmissionController.reject_streak`
    before admitting each gated op; the controller latches into brownout
    at the policy threshold and only releases after
    ``recovery_observations`` consecutive calm observations, so one lucky
    admission cannot flap the mode.

    >>> c = BrownoutController(BrownoutPolicy(streak_threshold=2,
    ...                                       recovery_observations=1))
    >>> c.observe(0), c.observe(2)
    (False, True)
    >>> c.should_shed("study", {})
    True
    >>> c.should_shed("price", {"detail": "summary"})
    False
    >>> c.observe(0)
    False
    """

    def __init__(self, policy: Optional[BrownoutPolicy] = None) -> None:
        self.policy = policy if policy is not None else BrownoutPolicy()
        self._active = False
        self._calm = 0
        self._n_entered = 0
        self._n_exited = 0
        self._n_shed = 0

    @property
    def active(self) -> bool:
        """True while the server is in brownout."""
        return self._active

    def observe(self, reject_streak: int) -> bool:
        """Feed one reject-streak reading; returns the updated state."""
        if not self._active:
            if reject_streak >= self.policy.streak_threshold:
                self._active = True
                self._calm = 0
                self._n_entered += 1
        else:
            if reject_streak == 0:
                self._calm += 1
                if self._calm >= self.policy.recovery_observations:
                    self._active = False
                    self._n_exited += 1
            else:
                self._calm = 0
        return self._active

    def should_shed(self, op: str, params: Dict[str, object]) -> bool:
        """True when brownout is active and ``op`` is expensive enough to shed."""
        if not self._active:
            return False
        if op in self.policy.shed_ops:
            return True
        if (
            self.policy.shed_full_detail
            and op == "price"
            and params.get("detail") == "full"
        ):
            return True
        return False

    def shed(self, op: str) -> Dict[str, object]:
        """The structured ``brownout`` rejection payload for ``op``."""
        self._n_shed += 1
        return {
            "code": "brownout",
            "message": (
                f"service is in brownout (admission reject streak >= "
                f"{self.policy.streak_threshold}); {op!r} is shed — retry "
                "later or use a summary op"
            ),
            "limit": {"streak_threshold": self.policy.streak_threshold},
        }

    def stats(self) -> Dict[str, int]:
        """Transition and shed counters (``n_entered``/``n_exited``/``n_shed``)."""
        return {
            "n_entered": self._n_entered,
            "n_exited": self._n_exited,
            "n_shed": self._n_shed,
        }


class _IdemEntry:
    """One idempotency-cache slot: pending waiters or a settled response."""

    __slots__ = ("response", "waiters")

    def __init__(self) -> None:
        self.response: Optional[Dict[str, object]] = None
        self.waiters: list = []


class IdempotencyCache:
    """Bounded at-most-once replay cache for idempotent work ops.

    A request carrying an ``idem`` key claims a slot before dispatching:
    the first claim owns the work; duplicates (same key, e.g. a client
    retry after a torn response) receive the owner's settled response —
    the op is never re-executed.  Rejections with retryable codes are
    delivered to waiters but not pinned, so a later retry can succeed.
    Capacity is enforced by evicting the oldest *settled* entry.

    >>> cache = IdempotencyCache(capacity=4)
    >>> cache.claim("k1") is None   # first claim: caller owns the work
    True
    >>> cache.resolve("k1", {"ok": True, "result": 42})
    >>> cache.claim("k1")["result"]  # replayed, not re-executed
    42
    >>> cache.stats()["n_replayed"]
    1
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ServiceError("idempotency capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: "Dict[str, _IdemEntry]" = {}
        self._n_replayed = 0
        self._n_evicted = 0

    def claim(self, key: str) -> Union[None, Dict[str, object], "asyncio.Future"]:
        """Claim ``key``: ``None`` → caller owns the work; a response dict
        → settled replay; an :class:`asyncio.Future` → the owner is still
        working, await it for the shared response."""
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = _IdemEntry()
            self._evict()
            return None
        self._n_replayed += 1
        if entry.response is not None:
            return dict(entry.response)
        future = asyncio.get_running_loop().create_future()
        entry.waiters.append(future)
        return future

    def resolve(
        self, key: str, response: Dict[str, object], cache: bool = True
    ) -> None:
        """Settle ``key`` with ``response`` (sans ``id``), waking duplicates.

        ``cache=False`` delivers to current waiters but drops the entry
        (used for retryable rejections that must not be pinned)."""
        entry = self._entries.get(key)
        if entry is None:
            return
        for future in entry.waiters:
            if not future.done():
                future.set_result(dict(response))
        entry.waiters = []
        if cache:
            entry.response = dict(response)
        else:
            self._entries.pop(key, None)

    def abandon(self, key: str) -> None:
        """Drop an unsettled claim (owner cancelled mid-drain); waiters get
        a :class:`~repro.exceptions.ServiceError` instead of hanging."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for future in entry.waiters:
            if not future.done():
                future.set_exception(
                    ServiceError(
                        f"idempotent request {key!r} was abandoned before "
                        "settling (server drain or internal cancellation)"
                    )
                )

    def _evict(self) -> None:
        # Only settled entries are evictable: dropping a pending slot would
        # strand its waiters or fork a duplicate execution.  When every
        # entry is still pending the cache overshoots temporarily.
        while len(self._entries) > self.capacity:
            oldest = next(
                (k for k, e in self._entries.items() if e.response is not None),
                None,
            )
            if oldest is None:
                return
            del self._entries[oldest]
            self._n_evicted += 1

    def stats(self) -> Dict[str, int]:
        """Cache counters: ``size``, ``n_replayed``, ``n_evicted``."""
        return {
            "size": len(self._entries),
            "n_replayed": self._n_replayed,
            "n_evicted": self._n_evicted,
        }


def parse_frame(line: bytes) -> Tuple[object, str, Dict[str, object], Optional[str]]:
    """Validate one request line against the ``repro-service-v1`` framing.

    Returns ``(request_id, op, params, idem)``; raises
    :class:`~repro.exceptions.FrameError` with a taxonomy code
    (``frame_invalid_json`` / ``frame_not_object`` / ``frame_bad_op`` /
    ``frame_bad_params`` / ``frame_bad_idem``) on violation.  Size limits
    are enforced upstream by the bounded ``readline`` (code
    ``frame_too_large``).

    >>> parse_frame(b'{"id": 1, "op": "ping"}')
    (1, 'ping', {}, None)
    >>> try:
    ...     parse_frame(b'[1, 2]')
    ... except FrameError as exc:
    ...     exc.code
    'frame_not_object'
    """
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FrameError("frame_invalid_json", f"invalid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise FrameError(
            "frame_not_object",
            f"request frame must be a JSON object, got {type(request).__name__}",
        )
    request_id = request.get("id")
    op = request.get("op")
    if not isinstance(op, str):
        raise FrameError(
            "frame_bad_op", "request needs a string 'op'", request_id=request_id
        )
    params = request.get("params", {})
    if not isinstance(params, dict):
        raise FrameError(
            "frame_bad_params", "'params' must be an object", request_id=request_id
        )
    idem = request.get("idem")
    if idem is not None and not isinstance(idem, str):
        raise FrameError(
            "frame_bad_idem",
            "'idem' must be a string when present",
            request_id=request_id,
        )
    return request_id, op, params, idem


#: Monotonic per-process sequence for default client ids.
_CLIENT_SEQ = itertools.count(1)


class SelfHealingClient:
    """A reconnecting, idempotent front on the line-protocol client.

    Wraps :class:`~repro.service.server.ServiceClient`: when the socket
    tears (EOF, reset, mid-response disconnect) the pending call fails
    fast with :class:`~repro.exceptions.ServiceConnectionError`, the
    wrapper reconnects with the
    :class:`~repro.robustness.supervisor.RetryPolicy` backoff law and
    resends.  Work ops carry a per-call idempotency key, so a retry of a
    request the server already settled replays the cached response —
    byte-identical, never double-settled.  Admission rejections and
    protocol errors are *not* retried; they propagate structured.

    >>> import asyncio
    >>> from repro.service.catalog import default_catalog
    >>> from repro.service.server import ContractPricingServer
    >>> async def demo():
    ...     server = ContractPricingServer(default_catalog(n_sites=1, days=7))
    ...     await server.start()
    ...     client = SelfHealingClient(*server.address)
    ...     pong = await client.call("ping")
    ...     await client.close()
    ...     await server.stop()
    ...     return pong["ok"]
    >>> asyncio.run(demo())
    True
    """

    def __init__(
        self,
        host: str,
        port: int,
        retry: Optional[RetryPolicy] = None,
        client_id: Optional[str] = None,
        seed: int = 0,
        max_frame_bytes: Optional[int] = None,
    ) -> None:
        self._host = host
        self._port = port
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(max_attempts=5, base_backoff_s=0.02, max_backoff_s=0.5)
        )
        self.client_id = (
            client_id
            if client_id is not None
            else f"shc-{os.getpid()}-{next(_CLIENT_SEQ)}"
        )
        self._max_frame_bytes = max_frame_bytes
        self._rng = random.Random(seed)
        self._op_seq = itertools.count(1)
        self._client = None
        self._conn_lock = asyncio.Lock()
        self._closed = False
        self.n_reconnects = 0
        self.n_retries = 0

    async def _ensure(self):
        """Connect (or reconnect) the underlying client under a lock."""
        from .server import ServiceClient  # late: server imports this module

        async with self._conn_lock:
            if self._closed:
                raise ServiceError("client is closed")
            if self._client is None or not self._client.connected:
                if self._client is not None:
                    await self._client.close()
                    self.n_reconnects += 1
                kwargs = {}
                if self._max_frame_bytes is not None:
                    kwargs["max_frame_bytes"] = self._max_frame_bytes
                self._client = await ServiceClient.connect(
                    self._host, self._port, **kwargs
                )
            return self._client

    async def call(self, op: str, params: Optional[Dict] = None) -> object:
        """Send ``op``; retry across connection faults, replay-safe.

        Raises :class:`~repro.exceptions.ServiceConnectionError` once the
        retry budget is exhausted, naming the op and the attempt count."""
        idem = (
            f"{self.client_id}:{next(self._op_seq)}"
            if op in IDEMPOTENT_OPS
            else None
        )
        attempts = max(1, self.retry.max_attempts)
        last_exc: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                self.n_retries += 1
                await asyncio.sleep(
                    self.retry.backoff_s(attempt - 1, self._rng.random())
                )
            try:
                client = await self._ensure()
                return await client.call(op, params, idem=idem)
            except AdmissionError:
                raise  # structured rejection: the caller's decision
            except (
                ServiceConnectionError,
                ConnectionError,
                asyncio.IncompleteReadError,
                OSError,
            ) as exc:
                last_exc = exc
        raise ServiceConnectionError(
            f"{op!r} failed after {attempts} attempt(s); last error: {last_exc}"
        )

    @property
    def connected(self) -> bool:
        """True while an underlying connection is open and readable."""
        return self._client is not None and self._client.connected

    async def close(self) -> None:
        """Close the underlying connection; further calls raise."""
        self._closed = True
        if self._client is not None:
            await self._client.close()
            self._client = None
