"""The :class:`PowerSeries` container.

A :class:`PowerSeries` is the library's universal exchange format for load
and generation profiles: a 1-D ``float64`` NumPy array of *mean power in
kilowatts* over consecutive, equal-length intervals.  All billing, grid and
facility code consumes and produces this type, and all per-interval math is
vectorized NumPy — no Python loops over samples (see the optimization guide
this repo follows: vectorize, avoid copies, use views).
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from ..exceptions import IntervalMismatchError, TimeSeriesError
from ..units import SECONDS_PER_HOUR

__all__ = ["PowerSeries"]


class PowerSeries:
    """Mean power (kW) over consecutive equal-length intervals.

    Parameters
    ----------
    values_kw:
        Mean power per interval, in kilowatts.  Converted to a read-only
        ``float64`` array.  Negative values are allowed (net metering with
        on-site generation, as at LANL in the paper's §4) unless the caller
        validates otherwise.
    interval_s:
        Interval length in seconds.  Must be positive.  Common values:
        ``900.0`` (the 15-minute demand-metering interval used by utilities)
        and ``3600.0`` (hourly market settlement).
    start_s:
        Simulation time of the first interval's left edge, in seconds.
        Defaults to 0.0 (midnight of day 0).

    Notes
    -----
    The array is frozen (``writeable=False``) so that series can be shared
    between contract components without defensive copies; all operations
    that "modify" a series return a new one (usually via views or fresh
    arrays, never by mutating the input).
    """

    __slots__ = (
        "_values",
        "_interval_s",
        "_start_s",
        "_energy_per_interval_cache",
        "_times_cache",
        "_plan_memo",
        "__weakref__",
    )

    def __init__(
        self,
        values_kw: Union[np.ndarray, Iterable[float]],
        interval_s: float,
        start_s: float = 0.0,
    ) -> None:
        arr = np.asarray(values_kw, dtype=np.float64)
        if arr.ndim != 1:
            raise TimeSeriesError(f"values must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise TimeSeriesError("a PowerSeries must contain at least one interval")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            first = int(bad[0])
            raise TimeSeriesError(
                f"power values must be finite: found {arr[first]!r} at index "
                f"{first} ({bad.size} non-finite value(s) of {arr.size}); "
                "represent metering gaps with QualityFlag masks + sentinel "
                "fill (see repro.robustness.faults), not NaN"
            )
        interval_s = float(interval_s)
        if not np.isfinite(interval_s) or interval_s <= 0.0:
            raise TimeSeriesError(f"interval_s must be positive, got {interval_s!r}")
        start_s = float(start_s)
        if not np.isfinite(start_s) or start_s < 0.0:
            raise TimeSeriesError(f"start_s must be non-negative, got {start_s!r}")
        if arr.base is not None or arr is values_kw:
            # asarray may return the caller's array; freeze a private copy so
            # the caller cannot mutate our state underneath us.
            arr = arr.copy()
        arr.setflags(write=False)
        self._values = arr
        self._interval_s = interval_s
        self._start_s = start_s
        # lazy caches for the settlement fast path; populated on first use
        # (see energy_per_interval_kwh / times_s) and always read-only.
        self._energy_per_interval_cache = None
        self._times_cache = None

    # -- basic accessors ---------------------------------------------------

    @property
    def values_kw(self) -> np.ndarray:
        """Read-only array of mean power per interval (kW)."""
        return self._values

    @property
    def interval_s(self) -> float:
        """Interval length in seconds."""
        return self._interval_s

    @property
    def start_s(self) -> float:
        """Simulation time of the first interval's left edge (s)."""
        return self._start_s

    @property
    def end_s(self) -> float:
        """Simulation time of the last interval's right edge (s)."""
        return self._start_s + self._interval_s * len(self._values)

    @property
    def duration_s(self) -> float:
        """Total covered duration in seconds."""
        return self._interval_s * len(self._values)

    @property
    def interval_h(self) -> float:
        """Interval length in hours (used by kWh conversions)."""
        return self._interval_s / SECONDS_PER_HOUR

    def __len__(self) -> int:
        return len(self._values)

    def __getstate__(self):
        """Canonical pickle state: data only, never the lazy caches.

        The settlement-plan memo (``_plan_memo``, see
        :func:`repro.contracts.settlement.plan_for`) holds weak references,
        which do not pickle; and including any lazily populated cache would
        make a series' pickle bytes — and therefore its sweep-journal
        ``item_fingerprint`` — depend on whether it had been billed yet.
        """
        return (self._values, self._interval_s, self._start_s)

    def __setstate__(self, state) -> None:
        self._values, self._interval_s, self._start_s = state
        self._energy_per_interval_cache = None
        self._times_cache = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PowerSeries(n={len(self._values)}, interval_s={self._interval_s:g}, "
            f"start_s={self._start_s:g}, mean={self.mean_kw():.3f} kW)"
        )

    # -- derived quantities --------------------------------------------------

    def times_s(self) -> np.ndarray:
        """Left-edge simulation times of every interval (s).

        The array is computed once per series and cached read-only; treat
        it as immutable (copy before mutating).
        """
        if self._times_cache is not None:
            return self._times_cache
        times = self._start_s + self._interval_s * np.arange(len(self._values))
        times.setflags(write=False)
        self._times_cache = times
        return times

    def energy_kwh(self) -> float:
        """Total energy over the series (kWh) — the paper's kWh domain."""
        return float(self._values.sum() * self.interval_h)

    def energy_per_interval_kwh(self) -> np.ndarray:
        """Energy delivered in each interval (kWh).

        The array is computed once per series and cached read-only (the
        settlement fast path takes per-period segment views of it); treat
        it as immutable (copy before mutating).
        """
        if self._energy_per_interval_cache is not None:
            return self._energy_per_interval_cache
        energy = self._values * self.interval_h
        energy.setflags(write=False)
        self._energy_per_interval_cache = energy
        return energy

    def mean_kw(self) -> float:
        """Mean power over the whole series (kW)."""
        return float(self._values.mean())

    def max_kw(self) -> float:
        """Maximum interval-mean power (kW) — the paper's kW domain."""
        return float(self._values.max())

    def min_kw(self) -> float:
        """Minimum interval-mean power (kW)."""
        return float(self._values.min())

    # -- combination / transformation ----------------------------------------

    def _check_compatible(self, other: "PowerSeries") -> None:
        if not isinstance(other, PowerSeries):
            raise TimeSeriesError(f"expected PowerSeries, got {type(other).__name__}")
        if other._interval_s != self._interval_s:
            raise IntervalMismatchError(
                f"interval mismatch: {self._interval_s} s vs {other._interval_s} s"
            )
        if other._start_s != self._start_s or len(other) != len(self):
            raise IntervalMismatchError(
                "series must cover the same span to be combined "
                f"(start {self._start_s} vs {other._start_s}, "
                f"n {len(self)} vs {len(other)})"
            )

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        """Superpose two aligned load profiles (e.g. SC + office buildings)."""
        self._check_compatible(other)
        return PowerSeries(self._values + other._values, self._interval_s, self._start_s)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        """Net one aligned profile against another (e.g. on-site generation)."""
        self._check_compatible(other)
        return PowerSeries(self._values - other._values, self._interval_s, self._start_s)

    def scale(self, factor: float) -> "PowerSeries":
        """Return the series with every value multiplied by ``factor``."""
        return PowerSeries(self._values * float(factor), self._interval_s, self._start_s)

    def shift_kw(self, offset_kw: float) -> "PowerSeries":
        """Return the series with a constant ``offset_kw`` added."""
        return PowerSeries(self._values + float(offset_kw), self._interval_s, self._start_s)

    def clip(self, lower_kw: float = -np.inf, upper_kw: float = np.inf) -> "PowerSeries":
        """Return the series clipped into ``[lower_kw, upper_kw]``.

        This models a hard power cap (one of the coarse-grained strategies
        the paper's prior work identifies) applied to a telemetry trace.
        """
        if lower_kw > upper_kw:
            raise TimeSeriesError(
                f"lower_kw ({lower_kw}) must not exceed upper_kw ({upper_kw})"
            )
        return PowerSeries(
            np.clip(self._values, lower_kw, upper_kw), self._interval_s, self._start_s
        )

    def slice_intervals(self, start: int, stop: int) -> "PowerSeries":
        """Return the sub-series covering interval indices ``[start, stop)``."""
        n = len(self._values)
        if not (0 <= start < stop <= n):
            raise TimeSeriesError(
                f"invalid interval slice [{start}, {stop}) for series of length {n}"
            )
        return PowerSeries(
            self._values[start:stop],
            self._interval_s,
            self._start_s + start * self._interval_s,
        )

    def interval_bounds(self, start_s: float, stop_s: float) -> Tuple[int, int]:
        """Interval-index bounds ``[i0, i1)`` covering ``[start_s, stop_s)``.

        Bounds must land on interval edges; the billing engine always works
        in whole metering intervals, as real interval meters do.  Raises
        :class:`TimeSeriesError` when an edge falls off the interval grid.
        """
        for name, t in (("start_s", start_s), ("stop_s", stop_s)):
            rel = (t - self._start_s) / self._interval_s
            if abs(rel - round(rel)) > 1e-9:
                raise TimeSeriesError(
                    f"{name}={t} does not fall on an interval edge "
                    f"(interval {self._interval_s} s, origin {self._start_s} s)"
                )
        i0 = int(round((start_s - self._start_s) / self._interval_s))
        i1 = int(round((stop_s - self._start_s) / self._interval_s))
        return i0, i1

    def slice_seconds(self, start_s: float, stop_s: float) -> "PowerSeries":
        """Return the sub-series covering simulation time ``[start_s, stop_s)``.

        Bounds must land on interval edges (see :meth:`interval_bounds`).
        """
        i0, i1 = self.interval_bounds(start_s, stop_s)
        return self.slice_intervals(i0, i1)

    def concat(self, other: "PowerSeries") -> "PowerSeries":
        """Append ``other``, which must start exactly where this series ends."""
        if not isinstance(other, PowerSeries):
            raise TimeSeriesError(f"expected PowerSeries, got {type(other).__name__}")
        if other._interval_s != self._interval_s:
            raise IntervalMismatchError(
                f"interval mismatch: {self._interval_s} s vs {other._interval_s} s"
            )
        if abs(other._start_s - self.end_s) > 1e-6:
            raise IntervalMismatchError(
                f"series are not contiguous: this ends at {self.end_s} s, "
                f"other starts at {other._start_s} s"
            )
        return PowerSeries(
            np.concatenate([self._values, other._values]),
            self._interval_s,
            self._start_s,
        )

    def with_values(self, values_kw: np.ndarray) -> "PowerSeries":
        """Return a series with the same time base but new values."""
        arr = np.asarray(values_kw, dtype=np.float64)
        if arr.shape != self._values.shape:
            raise TimeSeriesError(
                f"replacement values must have shape {self._values.shape}, "
                f"got {arr.shape}"
            )
        return PowerSeries(arr, self._interval_s, self._start_s)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def constant(
        power_kw: float, n_intervals: int, interval_s: float, start_s: float = 0.0
    ) -> "PowerSeries":
        """A flat profile — the ideal load an ESP would like an SC to have."""
        if n_intervals <= 0:
            raise TimeSeriesError("n_intervals must be positive")
        return PowerSeries(
            np.full(int(n_intervals), float(power_kw)), interval_s, start_s
        )

    @staticmethod
    def zeros(n_intervals: int, interval_s: float, start_s: float = 0.0) -> "PowerSeries":
        """An all-zero profile (e.g. a fully shut-down facility)."""
        return PowerSeries.constant(0.0, n_intervals, interval_s, start_s)

    def approx_equal(self, other: "PowerSeries", tol_kw: float = 1e-9) -> bool:
        """True when both series cover the same span with values within ``tol_kw``."""
        try:
            self._check_compatible(other)
        except TimeSeriesError:
            return False
        return bool(np.allclose(self._values, other._values, atol=tol_kw, rtol=0.0))

    def as_tuple(self) -> Tuple[np.ndarray, float, float]:
        """Return ``(values_kw, interval_s, start_s)`` for unpacking."""
        return self._values, self._interval_s, self._start_s
