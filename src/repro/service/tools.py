"""MCP-style tool dispatch: every study remotely callable by name.

The server's ``tool`` wire op routes through a :class:`ToolRegistry` — a
flat dispatch table of named, described, keyword-argument tools, in the
style of an MCP tool list: clients discover tools with ``tools`` (name,
description, parameter docs) and invoke them by name with a JSON
argument object.  :func:`default_registry` wires up the whole existing
analysis surface: direct pricing, paired contract comparison, every
named study in :data:`repro.reporting.experiments.EXPERIMENTS`, the
catalog description and the observability taps.

All results pass through a JSON scrubber (numpy scalars/arrays become
plain floats/lists) so every tool response serializes with
``json.dumps(..., sort_keys=True)``.

>>> from repro.service.catalog import default_catalog
>>> reg = default_registry(default_catalog(n_sites=1, days=7))
>>> "run_study" in reg.names()
True
>>> reg.call("list_studies", {})[:2]
['table1', 'table2']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ServiceError
from ..observability import metrics as _metrics
from ..observability.manifest import last_manifest
from ..reporting.experiments import experiment_ids, run_experiment
from .catalog import ServiceCatalog, encode_bill

__all__ = ["ToolSpec", "ToolRegistry", "default_registry", "json_safe"]


def json_safe(value: object) -> object:
    """Recursively coerce a result into plain JSON types.

    Numpy scalars become Python numbers, arrays become lists, tuples
    become lists, dict keys become strings; anything else unknown is
    stringified rather than crashing the wire encoder.

    >>> import numpy as np
    >>> json_safe({"a": np.float64(1.5), "b": (1, np.int64(2))})
    {'a': 1.5, 'b': [1, 2]}
    """
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [json_safe(v) for v in seq]
    return str(value)


@dataclass(frozen=True)
class ToolSpec:
    """One named tool: description, parameter docs and the handler.

    ``params`` maps parameter name to a one-line description (the wire
    discovery payload); ``required`` names the subset a call must pass.

    >>> spec = ToolSpec("echo", "Echo the message back.",
    ...                 params={"message": "what to echo"},
    ...                 required=("message",),
    ...                 handler=lambda message: message)
    >>> spec.describe()["required"]
    ['message']
    """

    name: str
    description: str
    params: Dict[str, str] = field(default_factory=dict)
    required: Tuple[str, ...] = ()
    handler: Optional[Callable[..., object]] = None

    def describe(self) -> Dict[str, object]:
        """The JSON-safe discovery record (no handler)."""
        return {
            "name": self.name,
            "description": self.description,
            "params": dict(self.params),
            "required": list(self.required),
        }


class ToolRegistry:
    """A flat, validated dispatch table of :class:`ToolSpec` entries.

    >>> reg = ToolRegistry()
    >>> reg.register(ToolSpec("double", "Double a number.",
    ...                       params={"x": "the number"}, required=("x",),
    ...                       handler=lambda x: 2 * x))
    >>> reg.call("double", {"x": 21})
    42
    """

    def __init__(self) -> None:
        self._tools: Dict[str, ToolSpec] = {}

    def register(self, spec: ToolSpec) -> None:
        """Add a tool; duplicate names are an error."""
        if spec.name in self._tools:
            raise ServiceError(f"tool {spec.name!r} already registered")
        if spec.handler is None:
            raise ServiceError(f"tool {spec.name!r} has no handler")
        self._tools[spec.name] = spec

    def names(self) -> List[str]:
        """Registered tool names, in registration order."""
        return list(self._tools)

    def describe(self) -> List[Dict[str, object]]:
        """Discovery records for every tool (the ``tools`` wire op)."""
        return [spec.describe() for spec in self._tools.values()]

    def call(self, name: str, arguments: Optional[Dict[str, object]] = None) -> object:
        """Validate and dispatch one tool call; returns a JSON-safe result.

        Unknown tools, non-dict arguments, unexpected argument names and
        missing required arguments all raise
        :class:`~repro.exceptions.ServiceError` naming what was expected.
        """
        spec = self._tools.get(name)
        if spec is None:
            raise ServiceError(
                f"unknown tool {name!r}; registry has {sorted(self._tools)}"
            )
        arguments = {} if arguments is None else arguments
        if not isinstance(arguments, dict):
            raise ServiceError(
                f"tool arguments must be an object, got {type(arguments).__name__}"
            )
        unexpected = sorted(set(arguments) - set(spec.params))
        if unexpected:
            raise ServiceError(
                f"tool {name!r} got unexpected arguments {unexpected}; "
                f"accepts {sorted(spec.params)}"
            )
        missing = sorted(set(spec.required) - set(arguments))
        if missing:
            raise ServiceError(f"tool {name!r} missing required arguments {missing}")
        return json_safe(spec.handler(**arguments))


def default_registry(catalog: ServiceCatalog) -> ToolRegistry:
    """The stock tool table the server mounts over ``catalog``.

    Tools: ``catalog``, ``price_bill`` (direct serial pricing),
    ``price_many``, ``compare_contracts`` (paired comparison over the
    shared price realization), ``list_studies`` / ``run_study`` (the
    :data:`~repro.reporting.experiments.EXPERIMENTS` registry),
    ``metrics`` and ``last_manifest``.

    >>> from repro.service.catalog import default_catalog
    >>> reg = default_registry(default_catalog(n_sites=1, days=7))
    >>> out = reg.call("price_bill",
    ...     {"contract": "svc / post-tender formula", "load": "site00"})
    >>> out["currency"]
    'CHF'
    """
    registry = ToolRegistry()

    def _price_bill(contract: str, load: str, detail: str = "summary"):
        return encode_bill(catalog.price(contract, load), detail)

    def _price_many(load: str, contracts: Optional[Sequence[str]] = None):
        names = list(contracts) if contracts else catalog.contract_names()
        bills = catalog.price_many(names, load)
        return {"load": load, "bills": [encode_bill(b) for b in bills]}

    def _compare(load: str, contracts: Optional[Sequence[str]] = None):
        # Paired by construction: one load, one shared-plan settle, one
        # price realization (the catalog's pre-built context) — the same
        # semantics as analysis.comparison.compare_contracts, but on the
        # catalog's billing calendar instead of the 12 calendar months.
        names = list(contracts) if contracts else catalog.contract_names()
        bills = catalog.price_many(names, load)
        ranked = sorted(zip(names, bills), key=lambda pair: pair[1].total)
        series = catalog.load(load)
        cheapest_total = ranked[0][1].total
        out: Dict[str, object] = {
            "load": load,
            "load_peak_kw": float(series.max_kw()),
            "load_energy_kwh": float(series.energy_kwh()),
            "ranked": [
                {
                    "contract": name,
                    "currency": bill.contract.currency,
                    "total": bill.total,
                }
                for name, bill in ranked
            ],
            "cheapest": ranked[0][0],
            "spread_fraction": (
                (ranked[-1][1].total - cheapest_total) / cheapest_total
                if cheapest_total > 0
                else None
            ),
        }
        return out

    def _run_study(study: str):
        result = run_experiment(study)
        return {
            "experiment_id": result.experiment_id,
            "text": result.text,
            "payload": result.payload,
        }

    registry.register(
        ToolSpec(
            "catalog",
            "Describe the catalog: contracts, loads, billing periods.",
            handler=catalog.describe,
        )
    )
    registry.register(
        ToolSpec(
            "price_bill",
            "Price one catalog load under one catalog contract (direct, "
            "unbatched — the bit-identical reference path).",
            params={
                "contract": "catalog contract name",
                "load": "catalog load name",
                "detail": "'summary' (default) or 'full'",
            },
            required=("contract", "load"),
            handler=_price_bill,
        )
    )
    registry.register(
        ToolSpec(
            "price_many",
            "Price one load under many contracts in one shared-plan settle.",
            params={
                "load": "catalog load name",
                "contracts": "contract names (default: every catalog contract)",
            },
            required=("load",),
            handler=_price_many,
        )
    )
    registry.register(
        ToolSpec(
            "compare_contracts",
            "Paired contract comparison over a shared price realization.",
            params={
                "load": "catalog load name",
                "contracts": "contract names (default: every catalog contract)",
            },
            required=("load",),
            handler=_compare,
        )
    )
    registry.register(
        ToolSpec(
            "list_studies",
            "Names of every runnable named study.",
            handler=experiment_ids,
        )
    )
    registry.register(
        ToolSpec(
            "run_study",
            "Run one named study; returns its text and machine payload.",
            params={"study": "a study id from list_studies"},
            required=("study",),
            handler=_run_study,
        )
    )
    registry.register(
        ToolSpec(
            "metrics",
            "Deterministic snapshot of the process metrics registry.",
            # The operator's explicit metrics-read endpoint, not an
            # instrumentation site: reading the snapshot must work even
            # while the observability switch is off.
            handler=lambda: _metrics.registry().snapshot(),  # reprolint: disable=RPL030
        )
    )
    registry.register(
        ToolSpec(
            "last_manifest",
            "The most recent repro-manifest-v1 audit record (or null).",
            handler=lambda: (
                last_manifest().to_dict() if last_manifest() is not None else None
            ),
        )
    )
    return registry
