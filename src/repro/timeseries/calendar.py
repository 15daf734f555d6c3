"""Epoch-free simulation calendar, billing periods and TOU windows.

The paper's typology distinguishes tariffs by *when* a kWh price applies:
fixed (always), time-of-use (contractually fixed windows: day/night,
seasonal), and dynamic (real-time).  This module supplies the calendar
machinery for the first two; dynamic tariffs take a price series instead.

Simulation second 0 is midnight of day 0 of a canonical non-leap year, and
day 0 is a Monday.  All mappings are vectorized over interval index arrays.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import perfconfig
from ..exceptions import CalendarError
from ..observability import metrics as _metrics
from ..units import SECONDS_PER_DAY, SECONDS_PER_HOUR
from .series import PowerSeries

__all__ = [
    "Season",
    "SimCalendar",
    "BillingPeriod",
    "monthly_billing_periods",
    "TOUWindow",
    "MONTH_LENGTHS_DAYS",
    "MONTH_NAMES",
]

#: Day counts of the canonical non-leap year, January..December.
MONTH_LENGTHS_DAYS: Tuple[int, ...] = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

#: Month names for reporting.
MONTH_NAMES: Tuple[str, ...] = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

_MONTH_STARTS_DAYS = np.concatenate([[0], np.cumsum(MONTH_LENGTHS_DAYS)])


class Season(enum.Enum):
    """Meteorological seasons used by seasonal TOU pricing.

    Winter = Dec/Jan/Feb, Spring = Mar/Apr/May, Summer = Jun/Jul/Aug,
    Autumn = Sep/Oct/Nov.
    """

    WINTER = "winter"
    SPRING = "spring"
    SUMMER = "summer"
    AUTUMN = "autumn"


_MONTH_TO_SEASON = {
    0: Season.WINTER, 1: Season.WINTER, 11: Season.WINTER,
    2: Season.SPRING, 3: Season.SPRING, 4: Season.SPRING,
    5: Season.SUMMER, 6: Season.SUMMER, 7: Season.SUMMER,
    8: Season.AUTUMN, 9: Season.AUTUMN, 10: Season.AUTUMN,
}

# integer season codes for vectorized masks, indexed by month 0..11
_SEASON_CODE_BY_MONTH = np.array(
    [list(Season).index(_MONTH_TO_SEASON[m]) for m in range(12)], dtype=np.int64
)


# Memoized calendar instances, keyed by (interval_s, start_s).  Calendars
# are immutable after construction, so sharing one instance per geometry is
# safe; the per-instance coordinate caches below then amortize hour/weekend/
# season arrays across every component that prices the same load geometry.
_CALENDAR_CACHE: Dict[Tuple[float, float], "SimCalendar"] = {}
_CALENDAR_CACHE_LOCK = threading.Lock()
_CALENDAR_CACHE_MAX = 256

#: Bound on distinct horizon lengths cached per calendar instance.
_COORD_CACHE_MAX = 32


def _clear_calendar_caches() -> None:
    with _CALENDAR_CACHE_LOCK:
        _CALENDAR_CACHE.clear()


perfconfig.register_cache_clearer(_clear_calendar_caches)


class SimCalendar:
    """Vectorized mappings from interval indices to calendar coordinates.

    Parameters
    ----------
    interval_s:
        Metering interval length (s).  Must evenly divide one day so that
        day/hour boundaries land on interval edges — true of every real
        metering interval (15 min, 30 min, 1 h).
    start_s:
        Simulation time of interval index 0 (s); must lie on an interval
        edge relative to simulation second 0.
    """

    def __init__(self, interval_s: float, start_s: float = 0.0) -> None:
        interval_s = float(interval_s)
        if interval_s <= 0:
            raise CalendarError(f"interval_s must be positive, got {interval_s!r}")
        per_day = SECONDS_PER_DAY / interval_s
        if abs(per_day - round(per_day)) > 1e-9:
            raise CalendarError(
                f"interval_s={interval_s} must evenly divide one day "
                f"({SECONDS_PER_DAY:.0f} s)"
            )
        offset = start_s / interval_s
        if abs(offset - round(offset)) > 1e-9:
            raise CalendarError(
                f"start_s={start_s} must be a whole number of intervals"
            )
        self._interval_s = interval_s
        self._start_index = int(round(offset))
        self._per_day = int(round(per_day))
        # horizon-length-keyed caches of coordinate arrays (read-only)
        self._coord_cache: Dict[Tuple[str, int], np.ndarray] = {}

    @classmethod
    def cached(cls, interval_s: float, start_s: float = 0.0) -> "SimCalendar":
        """A memoized calendar for ``(interval_s, start_s)``.

        Calendars are immutable, so one shared instance per geometry is
        returned (:func:`repro.perfconfig.clear_caches` drops them).
        """
        observed = perfconfig.observability_enabled()
        key = (float(interval_s), float(start_s))
        calendar = _CALENDAR_CACHE.get(key)
        if observed:
            _metrics.inc(
                "calendar.cache.hit" if calendar is not None else "calendar.cache.miss"
            )
        if calendar is None:
            calendar = cls(interval_s, start_s)
            with _CALENDAR_CACHE_LOCK:
                if len(_CALENDAR_CACHE) >= _CALENDAR_CACHE_MAX:
                    _CALENDAR_CACHE.clear()
                _CALENDAR_CACHE[key] = calendar
        return calendar

    @classmethod
    def for_series(cls, series: PowerSeries) -> "SimCalendar":
        """Calendar matching a series' interval and origin (memoized)."""
        return cls.cached(series.interval_s, series.start_s)

    @property
    def interval_s(self) -> float:
        """Metering interval length (s)."""
        return self._interval_s

    @property
    def intervals_per_day(self) -> int:
        """Number of metering intervals in one day."""
        return self._per_day

    @property
    def intervals_per_hour(self) -> float:
        """Number of metering intervals in one hour."""
        return self._per_day / 24.0

    def _absolute(self, indices: np.ndarray) -> np.ndarray:
        return np.asarray(indices, dtype=np.int64) + self._start_index

    def hour_of_day(self, indices: np.ndarray) -> np.ndarray:
        """Hour of day (0..23) of each interval's left edge."""
        absolute = self._absolute(indices)
        within_day = absolute % self._per_day
        return (within_day * self._interval_s // SECONDS_PER_HOUR).astype(np.int64)

    def day_index(self, indices: np.ndarray) -> np.ndarray:
        """Absolute simulation day number (0-based) of each interval."""
        return self._absolute(indices) // self._per_day

    def day_of_week(self, indices: np.ndarray) -> np.ndarray:
        """Day of week (0=Monday .. 6=Sunday); day 0 is a Monday."""
        return self.day_index(indices) % 7

    def is_weekend(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask, True on Saturday/Sunday."""
        return self.day_of_week(indices) >= 5

    def day_of_year(self, indices: np.ndarray) -> np.ndarray:
        """Day of the canonical 365-day year (0..364), wrapping."""
        return self.day_index(indices) % 365

    def month(self, indices: np.ndarray) -> np.ndarray:
        """Month (0=January .. 11=December) of each interval."""
        doy = self.day_of_year(indices)
        return (np.searchsorted(_MONTH_STARTS_DAYS, doy, side="right") - 1).astype(
            np.int64
        )

    def season_code(self, indices: np.ndarray) -> np.ndarray:
        """Integer season code per interval (index into ``list(Season)``)."""
        return _SEASON_CODE_BY_MONTH[self.month(indices)]

    def season(self, index: int) -> Season:
        """Season of a single interval index (scalar convenience)."""
        return list(Season)[int(self.season_code(np.array([index]))[0])]

    # -- cached coordinate arrays (settlement fast path) -------------------

    def _coords(self, kind: str, n_intervals: int, compute) -> np.ndarray:
        key = (kind, int(n_intervals))
        arr = self._coord_cache.get(key)
        if arr is None:
            arr = compute(np.arange(int(n_intervals)))
            arr.setflags(write=False)
            if len(self._coord_cache) >= _COORD_CACHE_MAX:
                self._coord_cache.clear()
            self._coord_cache[key] = arr
        return arr

    def hours_for(self, n_intervals: int) -> np.ndarray:
        """Cached read-only :meth:`hour_of_day` over ``0..n_intervals-1``."""
        return self._coords("hour", n_intervals, self.hour_of_day)

    def weekend_for(self, n_intervals: int) -> np.ndarray:
        """Cached read-only :meth:`is_weekend` over ``0..n_intervals-1``."""
        return self._coords("weekend", n_intervals, self.is_weekend)

    def season_codes_for(self, n_intervals: int) -> np.ndarray:
        """Cached read-only :meth:`season_code` over ``0..n_intervals-1``."""
        return self._coords("season", n_intervals, self.season_code)


@dataclass(frozen=True)
class BillingPeriod:
    """A contiguous billing period in simulation time.

    The paper's demand charges are computed *per billing period* (§3.2.2:
    "part of the electricity price is determined based on the peak
    consumption of a consumer across a billing period").
    """

    label: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise CalendarError(
                f"billing period {self.label!r} must have positive length "
                f"({self.start_s} .. {self.end_s})"
            )

    @property
    def duration_s(self) -> float:
        """Length of the billing period (s)."""
        return self.end_s - self.start_s

    def slice(self, series: PowerSeries) -> PowerSeries:
        """The sub-series of ``series`` covered by this period."""
        return series.slice_seconds(self.start_s, self.end_s)

    def covers(self, series: PowerSeries) -> bool:
        """True when ``series`` spans this entire period."""
        return series.start_s <= self.start_s and series.end_s >= self.end_s


def monthly_billing_periods(
    n_months: int = 12, first_month: int = 0, start_s: float = 0.0
) -> List[BillingPeriod]:
    """Calendar-month billing periods of the canonical year.

    Parameters
    ----------
    n_months:
        Number of consecutive months to emit (may exceed 12; wraps into the
        following canonical year).
    first_month:
        Month (0=January) of the first period.
    start_s:
        Simulation time at which the first period begins.  Must coincide
        with that month's first midnight for calendar labels to be honest;
        this function simply stacks month lengths from ``first_month``.
    """
    if n_months <= 0:
        raise CalendarError("n_months must be positive")
    if not 0 <= first_month < 12:
        raise CalendarError(f"first_month must be in 0..11, got {first_month}")
    periods: List[BillingPeriod] = []
    t = float(start_s)
    for k in range(n_months):
        m = (first_month + k) % 12
        length_s = MONTH_LENGTHS_DAYS[m] * SECONDS_PER_DAY
        year_offset = (first_month + k) // 12
        label = MONTH_NAMES[m] if year_offset == 0 else f"{MONTH_NAMES[m]}+{year_offset}y"
        periods.append(BillingPeriod(label=label, start_s=t, end_s=t + length_s))
        t += length_s
    return periods


@dataclass(frozen=True)
class TOUWindow:
    """One time-of-use pricing window: *when* a TOU rate applies.

    A window selects intervals by hour-of-day range, optionally restricted
    to weekdays/weekends and to a set of seasons.  This is expressive enough
    for the TOU variants the survey found ("seasonal pricing and day/night
    pricing", §3.2.1).

    Parameters
    ----------
    name:
        Label ("peak", "off-peak", "winter-day", ...).
    hour_start, hour_end:
        Half-open hour-of-day range ``[hour_start, hour_end)``.  A wrapping
        window (e.g. 22 → 6 for night) is expressed with
        ``hour_start > hour_end``.
    weekdays_only / weekends_only:
        Optional day-type restriction (mutually exclusive).
    seasons:
        Optional restriction to a set of :class:`Season`; ``None`` = all.
    """

    name: str
    hour_start: int
    hour_end: int
    weekdays_only: bool = False
    weekends_only: bool = False
    seasons: Optional[Tuple[Season, ...]] = None

    def __post_init__(self) -> None:
        for h, what in ((self.hour_start, "hour_start"), (self.hour_end, "hour_end")):
            if not 0 <= h <= 24:
                raise CalendarError(f"{what} must be in 0..24, got {h}")
        if self.hour_start == self.hour_end:
            raise CalendarError(
                f"window {self.name!r} is empty (hour_start == hour_end)"
            )
        if self.weekdays_only and self.weekends_only:
            raise CalendarError(
                f"window {self.name!r} cannot be both weekdays-only and weekends-only"
            )
        if self.seasons is not None and len(self.seasons) == 0:
            raise CalendarError(f"window {self.name!r} has an empty season set")

    def mask(self, calendar: SimCalendar, n_intervals: int) -> np.ndarray:
        """Boolean mask over interval indices ``0..n_intervals-1``.

        The hour/weekend/season coordinate arrays are memoized on the
        calendar (see :meth:`SimCalendar.hours_for`), so repeated masks over
        the same load geometry skip the index arithmetic entirely.
        """
        hours = calendar.hours_for(n_intervals)
        if self.hour_start < self.hour_end:
            m = (hours >= self.hour_start) & (hours < self.hour_end)
        else:  # wrapping window, e.g. 22..6
            m = (hours >= self.hour_start) | (hours < self.hour_end)
        if self.weekdays_only:
            m &= ~calendar.weekend_for(n_intervals)
        if self.weekends_only:
            m &= calendar.weekend_for(n_intervals)
        if self.seasons is not None:
            season_codes = calendar.season_codes_for(n_intervals)
            allowed = np.array(
                [list(Season).index(s) for s in self.seasons], dtype=np.int64
            )
            m &= np.isin(season_codes, allowed)
        return m

    def hours_per_day(self) -> int:
        """Nominal hours per day the window spans (ignoring day/season filters)."""
        if self.hour_start < self.hour_end:
            return self.hour_end - self.hour_start
        return 24 - self.hour_start + self.hour_end
