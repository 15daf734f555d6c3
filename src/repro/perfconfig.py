"""Process-wide performance-cache switchboard.

The settlement fast path (see :mod:`repro.contracts.settlement`) leans on
several memoization layers:

* :class:`~repro.timeseries.calendar.SimCalendar` instances memoized by
  ``(interval_s, start_s)`` plus per-calendar coordinate-array caches;
* per-component TOU rate-vector caches keyed by load geometry
  ``(interval_s, start_s, n)``;
* lazy per-:class:`~repro.timeseries.series.PowerSeries` derived arrays
  (``energy_per_interval_kwh`` / ``times_s``);
* the global settlement-plan cache shared across bills of one load.

Every layer registers a clearer here, so :func:`clear_caches` empties the
whole stack at once.  The caches are a speedup, never a semantic
dependency: a bill settled right after :func:`clear_caches` and the same
bill settled again warm are bit-identical (the cold == warm law pinned by
``tests/test_settlement_fastpath.py``).

Since the observability layer landed, this switchboard also carries the
**observability master switch**: :func:`observability_enabled` gates every
tracing span, metric update and run-manifest emission in
:mod:`repro.observability`.  It defaults to *off*, and the instrumented hot
paths (settlement, sweeps, chaos) check it before calling into the
observability layer at all, so the disabled mode adds no allocations to
the settlement fast path — just one boolean read per instrumented site.

This module is dependency-free on purpose: every layer of the library may
import it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

__all__ = [
    "register_cache_clearer",
    "clear_caches",
    "observability_enabled",
    "set_observability",
    "observing",
]

_OBSERVABILITY_ENABLED: bool = False

#: Callables that drop every entry of one cache layer (registered by the
#: layers themselves at import time; called by :func:`clear_caches`).
_CACHE_CLEARERS: List = []


def register_cache_clearer(fn) -> None:
    """Register a zero-argument callable that empties one cache layer.

    Cache layers call this once at import time so :func:`clear_caches`
    can reach them without the switchboard importing any of them.

    >>> calls = []
    >>> register_cache_clearer(lambda: calls.append("cleared"))
    >>> clear_caches()
    >>> calls
    ['cleared']
    >>> _CACHE_CLEARERS.pop() is not None  # undo the demo registration
    True
    """
    _CACHE_CLEARERS.append(fn)


def clear_caches() -> None:
    """Empty every registered cache layer (calendars, rates, plans).

    >>> clear_caches()  # idempotent; safe with nothing cached
    """
    for fn in _CACHE_CLEARERS:
        fn()


# -- observability master switch ---------------------------------------------


def observability_enabled() -> bool:
    """True when tracing / metrics / manifest emission is active.

    The observability layer (:mod:`repro.observability`) is **off by
    default** — production settlement loops pay only this boolean read per
    instrumented site.  Enable it around a block with :func:`observing`, or
    globally with :func:`set_observability`.

    >>> from repro import perfconfig
    >>> perfconfig.observability_enabled()
    False
    >>> with perfconfig.observing():
    ...     perfconfig.observability_enabled()
    True
    """
    return _OBSERVABILITY_ENABLED


def set_observability(enabled: bool) -> bool:
    """Set the observability switch globally; returns the previous value.

    Prefer the scoped :func:`observing` context manager in library and test
    code; this setter exists for long-running services that decide once at
    startup.

    >>> from repro import perfconfig
    >>> previous = perfconfig.set_observability(True)
    >>> perfconfig.observability_enabled()
    True
    >>> _ = perfconfig.set_observability(previous)
    """
    global _OBSERVABILITY_ENABLED
    previous = _OBSERVABILITY_ENABLED
    _OBSERVABILITY_ENABLED = bool(enabled)
    return previous


@contextmanager
def observing(enabled: bool = True) -> Iterator[None]:
    """Enable (or force-disable) observability for the duration of a block.

    Restores the previous switch state on exit, even on exceptions, so
    instrumented test runs cannot leak tracing into the settlement
    benchmarks.

    >>> from repro import perfconfig
    >>> with perfconfig.observing():
    ...     perfconfig.observability_enabled()
    True
    >>> perfconfig.observability_enabled()
    False
    """
    global _OBSERVABILITY_ENABLED
    previous = _OBSERVABILITY_ENABLED
    _OBSERVABILITY_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _OBSERVABILITY_ENABLED = previous
