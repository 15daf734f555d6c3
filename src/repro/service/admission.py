"""Admission control for the pricing service: backpressure, rate, deadlines.

A heavy-traffic pricing service has three ways to say "not now", and all
three must be *structured* so clients can react programmatically rather
than parse prose:

* ``rate_limited`` — the token bucket ran dry.  The rejection names the
  configured rate and burst and carries a ``retry_after_s`` hint drawn
  from the :class:`~repro.robustness.supervisor.RetryPolicy` backoff law
  (capped full-jitter, the same law the sweep supervisor retries with),
  escalating with consecutive rejections and resetting on admission.
* ``overloaded`` — too many requests already in flight
  (``max_pending``).  Shedding early keeps tail latency bounded instead
  of queueing unboundedly.
* ``deadline_exceeded`` — an admitted request outlived its deadline.
  Batch operations use :meth:`Ticket.expired` to stop pricing mid-batch
  and return a *partial* result whose accounting still conserves
  (``n_requested == n_priced + n_timed_out``).

Every counter is tracked by the :class:`AdmissionController` and the
conservation laws are part of the public contract (see
:meth:`AdmissionController.accounting`); the clock is injectable so
tests are deterministic.

>>> t = [0.0]
>>> c = AdmissionController(AdmissionPolicy(rate_per_s=1.0, burst=1),
...                         clock=lambda: t[0])
>>> c.admit().finish()
>>> try:
...     c.admit()
... except AdmissionError as e:
...     e.payload["code"]
'rate_limited'
>>> t[0] = 2.0
>>> c.admit().finish()
>>> acct = c.accounting()
>>> acct["n_submitted"] == acct["n_admitted"] + acct["n_rate_limited"]
True
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .. import perfconfig
from ..exceptions import AdmissionError, ServiceError
from ..observability import metrics as _metrics
from ..robustness.supervisor import RetryPolicy

__all__ = ["AdmissionPolicy", "AdmissionController", "Ticket"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """The service's admission limits (all optional; ``None`` disables).

    Parameters
    ----------
    rate_per_s / burst:
        Token-bucket request rate: sustained ``rate_per_s`` requests per
        second with bursts up to ``burst``.  ``rate_per_s=None`` (the
        default) disables rate limiting.
    max_pending:
        Maximum admitted-but-unfinished requests before load shedding.
    timeout_s:
        Per-request deadline measured from admission; ``None`` disables.
    retry:
        The backoff law used for ``retry_after_s`` hints on rate-limit
        rejections — reused verbatim from the sweep supervisor so the
        whole repo retries one way.
    seed:
        Seed for the jitter draw in the retry-after hint (timing only;
        admission decisions never depend on it).

    >>> AdmissionPolicy(rate_per_s=100.0, burst=8).burst
    8
    """

    rate_per_s: Optional[float] = None
    burst: int = 16
    max_pending: int = 1024
    timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ServiceError("rate_per_s must be positive (or None)")
        if self.burst < 1:
            raise ServiceError("burst must be >= 1")
        if self.max_pending < 1:
            raise ServiceError("max_pending must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ServiceError("timeout_s must be positive (or None)")


class Ticket:
    """One admitted request: deadline bookkeeping plus completion.

    Returned by :meth:`AdmissionController.admit`; usable as a context
    manager (``with controller.admit():``) or finished explicitly.
    Finishing is idempotent — the first call wins.

    >>> c = AdmissionController()
    >>> with c.admit() as ticket:
    ...     ticket.expired()
    False
    >>> c.accounting()["n_completed"]
    1
    """

    __slots__ = ("_controller", "deadline_s", "_done")

    def __init__(self, controller: "AdmissionController", deadline_s: Optional[float]):
        self._controller = controller
        #: Absolute deadline on the controller's clock (``None`` = no limit).
        self.deadline_s = deadline_s
        self._done = False

    def remaining_s(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when unlimited)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - self._controller.clock()

    def expired(self) -> bool:
        """True once the deadline has passed on the controller's clock."""
        remaining = self.remaining_s()
        return remaining is not None and remaining <= 0

    def finish(self, timed_out: bool = False, cancelled: bool = False) -> None:
        """Release the pending slot, recording the outcome; idempotent.

        The outcome is ``cancelled`` (the request was cancelled, e.g. by
        a drain or a vanished peer), else ``timed_out``, else completed.
        """
        if not self._done:
            self._done = True
            self._controller._finish(timed_out=timed_out, cancelled=cancelled)

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(timed_out=isinstance(exc, AdmissionError))


class AdmissionController:
    """Thread-safe token bucket + pending gauge + deadline factory.

    Parameters
    ----------
    policy:
        The limits (defaults to an :class:`AdmissionPolicy` with no rate
        limit and a 1024-deep pending queue).
    clock:
        Monotonic-seconds callable; injectable so tests can step time
        deterministically.

    >>> c = AdmissionController(AdmissionPolicy(max_pending=1),
    ...                         clock=lambda: 0.0)
    >>> held = c.admit()
    >>> try:
    ...     c.admit()
    ... except AdmissionError as e:
    ...     sorted(e.payload["limit"])
    ['max_pending']
    >>> held.finish()
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.clock = clock
        self._lock = threading.Lock()
        self._tokens = float(self.policy.burst)
        self._refilled_at = clock()
        self._reject_streak = 0
        self._rng = random.Random(self.policy.seed)
        self._pending = 0
        self._n_submitted = 0
        self._n_admitted = 0
        self._n_rate_limited = 0
        self._n_overloaded = 0
        self._n_completed = 0
        self._n_timed_out = 0
        self._n_cancelled = 0

    def _refill(self, now: float) -> None:
        rate = self.policy.rate_per_s
        if rate is None:
            return
        elapsed = max(0.0, now - self._refilled_at)
        self._tokens = min(float(self.policy.burst), self._tokens + elapsed * rate)
        self._refilled_at = now

    def admit(self) -> Ticket:
        """Admit one request or raise a structured :class:`AdmissionError`.

        Overload is checked before rate (shedding is cheaper than
        refilling); on rate rejection the ``retry_after_s`` hint follows
        the policy's :class:`~repro.robustness.supervisor.RetryPolicy`
        law with the consecutive-rejection count as the attempt index.
        """
        observed = perfconfig.observability_enabled()
        with self._lock:
            now = self.clock()
            self._n_submitted += 1
            if self._pending >= self.policy.max_pending:
                self._reject_streak += 1
                self._n_overloaded += 1
                if observed:
                    _metrics.inc("service.admission.overloaded")
                raise AdmissionError(
                    {
                        "code": "overloaded",
                        "message": (
                            f"service overloaded: {self._pending} requests "
                            f"pending (max_pending={self.policy.max_pending})"
                        ),
                        "limit": {"max_pending": self.policy.max_pending},
                    }
                )
            if self.policy.rate_per_s is not None:
                self._refill(now)
                if self._tokens < 1.0:
                    attempt = self._reject_streak
                    self._reject_streak += 1
                    self._n_rate_limited += 1
                    retry_after = self.policy.retry.backoff_s(
                        attempt, self._rng.random()
                    )
                    if observed:
                        _metrics.inc("service.admission.rate_limited")
                    raise AdmissionError(
                        {
                            "code": "rate_limited",
                            "message": (
                                f"request rate limit exceeded: "
                                f"{self.policy.rate_per_s:g} req/s "
                                f"(burst {self.policy.burst})"
                            ),
                            "limit": {
                                "rate_per_s": self.policy.rate_per_s,
                                "burst": self.policy.burst,
                            },
                            "retry_after_s": retry_after,
                        }
                    )
                self._tokens -= 1.0
            self._reject_streak = 0
            self._pending += 1
            self._n_admitted += 1
            if observed:
                _metrics.inc("service.admission.admitted")
                _metrics.set_gauge("service.admission.pending", float(self._pending))
            deadline = (
                now + self.policy.timeout_s
                if self.policy.timeout_s is not None
                else None
            )
            return Ticket(self, deadline)

    def reject_streak(self) -> int:
        """Consecutive rejections (any limit) since the last admission.

        Grows on every ``rate_limited`` *and* ``overloaded`` rejection and
        resets to zero the moment a request is admitted — the pressure
        signal the server's brownout controller
        (:class:`~repro.service.resilience.BrownoutController`) watches.
        """
        with self._lock:
            return self._reject_streak

    def deadline_error(self, op: str) -> AdmissionError:
        """The structured error for a request that outlived its deadline."""
        return AdmissionError(
            {
                "code": "deadline_exceeded",
                "message": (
                    f"{op} request exceeded its deadline "
                    f"(timeout_s={self.policy.timeout_s})"
                ),
                "limit": {"timeout_s": self.policy.timeout_s},
            }
        )

    def _finish(self, timed_out: bool, cancelled: bool) -> None:
        with self._lock:
            self._pending -= 1
            if cancelled:
                self._n_cancelled += 1
            elif timed_out:
                self._n_timed_out += 1
            else:
                self._n_completed += 1
            if perfconfig.observability_enabled():
                _metrics.set_gauge("service.admission.pending", float(self._pending))

    def accounting(self) -> Dict[str, int]:
        """Counters satisfying the conservation laws, as a plain dict.

        Invariants (asserted by the admission tests):

        * ``n_submitted == n_admitted + n_rate_limited + n_overloaded``
        * ``n_admitted == n_completed + n_timed_out + n_cancelled + pending``
        """
        with self._lock:
            return {
                "n_submitted": self._n_submitted,
                "n_admitted": self._n_admitted,
                "n_rate_limited": self._n_rate_limited,
                "n_overloaded": self._n_overloaded,
                "n_completed": self._n_completed,
                "n_timed_out": self._n_timed_out,
                "n_cancelled": self._n_cancelled,
                "pending": self._pending,
            }
