"""Run manifests: the reproducibility record of one computation.

A :class:`RunManifest` captures everything needed to *re-run and audit* one
unit of work — an annual settlement, a batched ``bill_many``, an ESP system
simulation, a chaos sweep, an analysis study: the seeds, the
:mod:`repro.perfconfig` switch state, component versions, wall/CPU time, a
deterministic metric snapshot and a payload of headline results (for a
bill: the per-component totals, which reconcile exactly with the returned
:class:`~repro.contracts.billing.Bill`).

Manifests round-trip losslessly through JSON (``to_json`` / ``from_json``)
and render as markdown for reports; :func:`repro.reporting.export.write_manifest`
writes either format to disk.

Instrumented entry points (``BillingEngine.bill``/``bill_many``,
``ESP.simulate_system``, ``run_chaos_sweep``) emit manifests automatically
while :func:`repro.perfconfig.observability_enabled` is true; emitted
manifests land in a bounded in-process log readable via :func:`emitted` /
:func:`last_manifest`.

>>> m = RunManifest(kind="bill", name="demo", created_unix=0.0,
...                 wall_s=0.01, cpu_s=0.01, seeds={"load": 0},
...                 params={"n_periods": 12}, payload={"total": 100.0})
>>> RunManifest.from_json(m.to_json()) == m
True
"""

from __future__ import annotations

import json
import platform
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .. import perfconfig
from ..exceptions import ObservabilityError
from .metrics import registry

__all__ = [
    "SCHEMA",
    "RunManifest",
    "collect_versions",
    "perfconfig_state",
    "record",
    "emitted",
    "last_manifest",
    "clear",
    "tracked_run",
]

#: Format tag embedded in every serialized manifest.
SCHEMA = "repro-manifest-v1"


def collect_versions() -> Dict[str, str]:
    """Versions of the components a manifest's numbers depend on.

    Includes the interpreter, the platform, :mod:`numpy` / :mod:`scipy`
    and the :mod:`repro` library itself.

    >>> v = collect_versions()
    >>> sorted(v)
    ['numpy', 'platform', 'python', 'repro', 'scipy']
    """
    import numpy
    import scipy

    import repro

    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
    }


def perfconfig_state() -> Dict[str, bool]:
    """The :mod:`repro.perfconfig` switch state a run executed under.

    >>> perfconfig_state()
    {'observability_enabled': False}
    """
    return {
        "observability_enabled": perfconfig.observability_enabled(),
    }


@dataclass(frozen=True)
class RunManifest:
    """The reproducibility record of one run.

    Attributes
    ----------
    kind:
        What ran — ``"bill"``, ``"bill_many"``, ``"simulate_system"``,
        ``"chaos_sweep"``, ``"study"``, ...
    name:
        Human label (contract name, study id).
    created_unix:
        Wall-clock completion time (Unix seconds).
    wall_s / cpu_s:
        Wall and process-CPU duration of the run.
    seeds:
        Every seed the run consumed, by role.
    params:
        The run's input parameters (JSON-safe).
    perfconfig:
        Switchboard state (see :func:`perfconfig_state`).
    versions:
        Component versions (see :func:`collect_versions`).
    metrics:
        A deterministic metric snapshot taken at completion.
    payload:
        Headline results — for bills, per-component totals that reconcile
        exactly with the returned :class:`~repro.contracts.billing.Bill`.

    >>> m = RunManifest(kind="study", name="peak-ratio", created_unix=0.0,
    ...                 wall_s=1.0, cpu_s=0.9, seeds={"grid": 7})
    >>> m.kind, m.seeds
    ('study', {'grid': 7})
    """

    kind: str
    name: str
    created_unix: float
    wall_s: float
    cpu_s: float
    seeds: Dict[str, int] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    perfconfig: Dict[str, bool] = field(default_factory=perfconfig_state)
    versions: Dict[str, str] = field(default_factory=collect_versions)
    metrics: Dict[str, Any] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (with the ``format`` tag) of this manifest.

        >>> m = RunManifest(kind="bill", name="x", created_unix=0.0,
        ...                 wall_s=0.0, cpu_s=0.0)
        >>> m.to_dict()["format"]
        'repro-manifest-v1'
        """
        out: Dict[str, Any] = {"format": SCHEMA}
        out.update(asdict(self))
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output.

        Raises :class:`~repro.exceptions.ObservabilityError` on a missing
        or foreign ``format`` tag.

        >>> m = RunManifest(kind="bill", name="x", created_unix=0.0,
        ...                 wall_s=0.0, cpu_s=0.0)
        >>> RunManifest.from_dict(m.to_dict()) == m
        True
        """
        if data.get("format") != SCHEMA:
            raise ObservabilityError(
                f"not a {SCHEMA} document (format={data.get('format')!r})"
            )
        fields = {k: v for k, v in data.items() if k != "format"}
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ObservabilityError(f"malformed manifest: {exc}") from exc

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to JSON (lossless round trip via :meth:`from_json`).

        >>> m = RunManifest(kind="bill", name="x", created_unix=0.0,
        ...                 wall_s=0.0, cpu_s=0.0)
        >>> RunManifest.from_json(m.to_json(indent=2)) == m
        True
        """
        return json.dumps(self.to_dict(), indent=indent, default=str, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_json` output.

        >>> m = RunManifest(kind="bill", name="x", created_unix=0.0,
        ...                 wall_s=0.0, cpu_s=0.0, payload={"total": 1.5})
        >>> RunManifest.from_json(m.to_json()).payload
        {'total': 1.5}
        """
        return cls.from_dict(json.loads(text))

    def to_markdown(self) -> str:
        """Render the manifest as a small markdown report.

        >>> m = RunManifest(kind="bill", name="demo SC", created_unix=0.0,
        ...                 wall_s=0.25, cpu_s=0.2, seeds={"load": 0},
        ...                 payload={"total": 12.5})
        >>> print(m.to_markdown().splitlines()[0])
        # Run manifest: bill — demo SC
        """
        lines: List[str] = [
            f"# Run manifest: {self.kind} — {self.name}",
            "",
            f"- format: `{SCHEMA}`",
            f"- completed: {self.created_unix:.3f} (unix)",
            f"- wall: {self.wall_s:.4f} s, cpu: {self.cpu_s:.4f} s",
        ]
        for title, mapping in (
            ("seeds", self.seeds),
            ("params", self.params),
            ("perfconfig", self.perfconfig),
            ("versions", self.versions),
            ("payload", self.payload),
        ):
            if not mapping:
                continue
            lines += ["", f"## {title}", ""]
            for key in sorted(mapping, key=str):
                lines.append(f"- `{key}`: {mapping[key]!r}")
        counters = (self.metrics or {}).get("counters", {})
        if counters:
            lines += ["", "## metric counters", ""]
            for key in sorted(counters):
                lines.append(f"- `{key}`: {counters[key]:g}")
        return "\n".join(lines)


# -- the emitted-manifest log --------------------------------------------------

_LOG_MAX = 64
_LOG: "deque[RunManifest]" = deque(maxlen=_LOG_MAX)


def record(manifest: RunManifest) -> RunManifest:
    """Append a manifest to the bounded in-process log; returns it.

    >>> clear()
    >>> m = RunManifest(kind="bill", name="x", created_unix=0.0,
    ...                 wall_s=0.0, cpu_s=0.0)
    >>> record(m) is m and emitted() == [m]
    True
    >>> clear()
    """
    if not isinstance(manifest, RunManifest):
        raise ObservabilityError("record() takes a RunManifest")
    _LOG.append(manifest)
    return manifest


def emitted() -> List[RunManifest]:
    """Manifests emitted so far (oldest first; bounded to the last 64).

    >>> clear(); emitted()
    []
    """
    return list(_LOG)


def last_manifest() -> Optional[RunManifest]:
    """The most recently emitted manifest, or ``None``.

    >>> clear()
    >>> print(last_manifest())
    None
    """
    return _LOG[-1] if _LOG else None


def clear() -> None:
    """Empty the emitted-manifest log.

    >>> clear(); len(emitted())
    0
    """
    _LOG.clear()


@contextmanager
def tracked_run(
    kind: str,
    name: str,
    seeds: Optional[Dict[str, int]] = None,
    params: Optional[Dict[str, Any]] = None,
) -> Iterator[Dict[str, Any]]:
    """Measure a block and emit its :class:`RunManifest`.

    Yields the (initially empty) ``payload`` dict — fill it with the run's
    headline results; on exit the manifest is built with wall/CPU timings,
    the current perfconfig/version/metric state, recorded in the log, and
    made available via :func:`last_manifest`.  Always records, independent
    of the observability switch (callers gate themselves; the instrumented
    library only reaches this with observability enabled).

    >>> clear()
    >>> with tracked_run("study", "demo", seeds={"grid": 3}) as payload:
    ...     payload["answer"] = 42
    >>> m = last_manifest()
    >>> m.kind, m.seeds, m.payload
    ('study', {'grid': 3}, {'answer': 42})
    >>> clear()
    """
    t0_wall = time.perf_counter()
    t0_cpu = time.process_time()
    payload: Dict[str, Any] = {}
    try:
        yield payload
    finally:
        record(
            RunManifest(
                kind=kind,
                name=name,
                created_unix=time.time(),
                wall_s=time.perf_counter() - t0_wall,
                cpu_s=time.process_time() - t0_cpu,
                seeds=dict(seeds or {}),
                params=dict(params or {}),
                metrics=registry().snapshot(),
                payload=payload,
            )
        )
