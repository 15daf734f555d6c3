"""Run-to-run spread and the paired comparison rule.

``spread`` reads N untraced runs per workload and reports each metric's
median and relative quartile distance.  ``compare`` applies the rule for
claiming a change: over paired runs of a parent (A) and a change (B),

* **gain** — at least ten pairs, B wins at least nine tenths of them
  (ties count for neither) and the medians differ by more than A's
  quartile distance;
* **unresolved** — the spread of either side exceeds the metric's
  bound, unless every run of B reads better than every run of A;
* **regression** — B's median is worse than A's by more than the bound;
* **same** — none of the above.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from .common import rel_iqr

#: Share of pairs the change must win for a gain, and the fewest pairs
#: that can show one (5 of 5 wins happens by chance 1 time in 32).
WIN_SHARE = 0.9
MIN_PAIRS = 10


def _better(x: float, y: float, higher: bool) -> bool:
    """True when ``y`` reads better than ``x``."""
    return y > x if higher else y < x


def verdict(a: Sequence[float], b: Sequence[float], higher: bool, bound: float) -> str:
    """Classify paired samples ``a`` (parent) and ``b`` (change).

    >>> verdict([10.0] * 5 + [10.1] * 5, [11.0] * 10, True, 0.05)
    'gain'
    >>> verdict([10.0, 10.1] * 5, [10.1, 10.0] * 5, True, 0.05)
    'same'
    >>> verdict([10.0, 10.1] * 5, [8.0, 8.1] * 5, True, 0.05)
    'regression'
    """
    n = min(len(a), len(b))
    if n == 0:
        raise ValueError("verdict needs at least one pair")
    a, b = list(a[:n]), list(b[:n])
    wins = sum(1 for x, y in zip(a, b) if _better(x, y, higher))
    med_a, med_b = statistics.median(a), statistics.median(b)
    if len(a) >= 2:
        q1, _, q3 = statistics.quantiles(a, n=4)
        iqr_a = q3 - q1
    else:
        iqr_a = 0.0
    gain = (med_b - med_a) if higher else (med_a - med_b)
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and gain > iqr_a:
        return "gain"
    dominates = all(_better(x, y, higher) for x in a for y in b)
    if max(rel_iqr(a), rel_iqr(b)) > bound and not dominates:
        return "unresolved"
    if -gain > bound * abs(med_a):
        return "regression"
    return "same"


def spread_rows(
    runs: Dict[str, List[Dict[str, float]]], metrics: Sequence[dict]
) -> List[Tuple[str, str, float, float, float, str]]:
    """``(workload, metric, median, rel IQR, suggested bound, flag)`` rows.

    The suggested bound is max(5%, 2 × relative IQR); a relative IQR over
    10% is flagged for lengthening or replacement.
    """
    rows = []
    for workload, samples in runs.items():
        for m in metrics:
            values = [s[m["name"]] for s in samples if m["name"] in s]
            if not values:
                continue
            spread = rel_iqr(values)
            flag = "WIDE" if spread > 0.10 else ""
            if spread > m.get("bound", 1.0) / 3:
                flag = (flag + " over-third-of-bound").strip()
            rows.append(
                (workload, m["name"], statistics.median(values), spread,
                 max(0.05, 2 * spread), flag)
            )
    return rows


def compare_runs(
    a: Dict[str, List[Dict[str, float]]],
    b: Dict[str, List[Dict[str, float]]],
    metrics: Sequence[dict],
) -> Dict[str, Dict[str, str]]:
    """Per workload, per end-to-end metric: the :func:`verdict`."""
    out: Dict[str, Dict[str, str]] = {}
    for workload in a:
        if workload not in b:
            continue
        row = {}
        for m in metrics:
            xs = [s[m["name"]] for s in a[workload]]
            ys = [s[m["name"]] for s in b[workload]]
            row[m["name"]] = verdict(xs, ys, m["better"] == "higher", m["bound"])
        out[workload] = row
    return out
