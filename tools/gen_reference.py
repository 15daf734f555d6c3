#!/usr/bin/env python
"""Generate the docstring-derived reference manuals.

Three manuals are *derived* rather than written: the observability
manual (``docs/reference_observability.md``, the public API of
:mod:`repro.observability` plus the :mod:`repro.perfconfig` switchboard),
the resilience manual (``docs/reference_resilience.md``, the supervised
sweep executor and crash-safe journal of :mod:`repro.robustness`), and
the static-analysis manual (``docs/reference_reprolint.md``, the
public engine/baseline API of :mod:`tools.reprolint`).  Editing the
markdown by hand is futile; edit the docstring and regenerate:

    PYTHONPATH=src python tools/gen_reference.py

CI runs the same script with ``--check`` and fails when any committed
manual drifts from the docstrings, and this generator itself fails when
any public symbol is missing a docstring or a runnable ``>>>`` example —
the docs archetype's contract: every generated-manual API is documented
*and* doctested.

The output is deterministic: modules and symbols appear in a fixed
declaration-driven order (``__all__``), no timestamps, no machine state.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for the tools.reprolint manual

_OBS_HEADER = """\
# Observability reference manual

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_reference.py -->

This manual is generated from the docstrings of the public observability
API.  Every entry below carries at least one runnable example; the whole
manual is exercised by `pytest --doctest-modules` in CI.

See [docs/observability.md](observability.md) for the narrative guide and
[docs/index.md](index.md) for the documentation map.
"""

_RES_HEADER = """\
# Resilience reference manual

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_reference.py -->

This manual is generated from the docstrings of the resilient sweep
runtime — the supervised executor (:mod:`repro.robustness.supervisor`),
the crash-safe journal (:mod:`repro.robustness.journal`), the sharded
multi-worker fabric (:mod:`repro.robustness.shards`), the streaming
aggregators (:mod:`repro.analysis.streaming`), the seeded wire-fault
proxy (:mod:`repro.robustness.netfaults`), and the chaos-serve harness
(:mod:`repro.robustness.chaos_service`).  Every entry below carries at
least one runnable example; the whole manual is exercised by
`pytest --doctest-modules` in CI.

See [docs/resilience.md](resilience.md) for the narrative guide and
[docs/index.md](index.md) for the documentation map.
"""

_COL_HEADER = """\
# Population-scale billing reference manual

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_reference.py -->

This manual is generated from the docstrings of the public columnar
billing API: the site-major population containers and vectorized
settlement plan (:mod:`repro.contracts.columnar`), the chunked synthetic
population generators (:mod:`repro.survey.population`), and the
streaming population bill study (:mod:`repro.analysis.population`).
Every entry below carries at least one runnable example; the whole
manual is exercised by `pytest --doctest-modules` in CI.

See [docs/population.md](population.md) for the narrative guide and
[docs/index.md](index.md) for the documentation map.
"""

_LINT_HEADER = """\
# Static-analysis (reprolint) reference manual

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_reference.py -->

This manual is generated from the docstrings of the public
`tools.reprolint` API — the per-file engine types, the cross-module
project engine (:mod:`tools.reprolint.project`), the unit-dimension
dataflow interpreter (:mod:`tools.reprolint.dataflow`), the content-hash
incremental cache (:mod:`tools.reprolint.cache`), the SARIF 2.1.0
exporter (:mod:`tools.reprolint.sarif`), and the baseline ledger format.
See [docs/static_analysis.md](static_analysis.md) for the narrative
guide and the rule catalog (RPL001–RPL051).
"""

_SVC_HEADER = """\
# Contract-pricing service reference manual

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_reference.py -->

This manual is generated from the docstrings of the public service-layer
API: the frozen pricing catalog with its startup-settled quotes and the
wire encoding (:mod:`repro.service.catalog`), admission control
(:mod:`repro.service.admission`), the ``price`` front and the pricing
thread (:mod:`repro.service.batching`), the tool registry
(:mod:`repro.service.tools`), the line-delimited JSON server and
client (:mod:`repro.service.server`), and the resilience layer — drain
reports, frame taxonomy, brownout, idempotency, self-healing client
(:mod:`repro.service.resilience`).  Every entry below carries at
least one runnable example; the whole manual is exercised by
`pytest --doctest-modules` in CI.

See [docs/service.md](service.md) for the operator's manual and
[docs/index.md](index.md) for the documentation map.
"""

#: Every generated manual: output path -> (header, modules in manual order).
MANUALS: Dict[Path, Tuple[str, List[str]]] = {
    REPO / "docs" / "reference_observability.md": (
        _OBS_HEADER,
        [
            "repro.perfconfig",
            "repro.observability",
            "repro.observability.trace",
            "repro.observability.metrics",
            "repro.observability.manifest",
        ],
    ),
    REPO / "docs" / "reference_resilience.md": (
        _RES_HEADER,
        [
            "repro.robustness.supervisor",
            "repro.robustness.journal",
            "repro.robustness.shards",
            "repro.analysis.streaming",
            "repro.robustness.netfaults",
            "repro.robustness.chaos_service",
        ],
    ),
    REPO / "docs" / "reference_columnar.md": (
        _COL_HEADER,
        [
            "repro.contracts.columnar",
            "repro.survey.population",
            "repro.analysis.population",
        ],
    ),
    REPO / "docs" / "reference_service.md": (
        _SVC_HEADER,
        [
            "repro.service",
            "repro.service.catalog",
            "repro.service.admission",
            "repro.service.batching",
            "repro.service.tools",
            "repro.service.server",
            "repro.service.resilience",
        ],
    ),
    REPO / "docs" / "reference_reprolint.md": (
        _LINT_HEADER,
        [
            "tools.reprolint",
            "tools.reprolint.engine",
            "tools.reprolint.project",
            "tools.reprolint.dataflow",
            "tools.reprolint.cache",
            "tools.reprolint.sarif",
            "tools.reprolint.baseline",
        ],
    ),
}

#: Back-compat aliases for the single-manual era (kept for callers/tests).
OUTPUT = REPO / "docs" / "reference_observability.md"
MODULE_NAMES = MANUALS[OUTPUT][1]
HEADER = _OBS_HEADER


class ReferenceError_(RuntimeError):
    """A public symbol violates the documented-and-doctested contract."""


def _public_symbols(module) -> List[Tuple[str, object]]:
    """(name, object) pairs for the module's public API, in __all__ order."""
    names = getattr(module, "__all__", None)
    if names is None:
        raise ReferenceError_(f"{module.__name__} has no __all__")
    out = []
    for name in names:
        try:
            out.append((name, getattr(module, name)))
        except AttributeError as exc:  # pragma: no cover - broken __all__
            raise ReferenceError_(f"{module.__name__}.{name} in __all__ but missing") from exc
    return out


def _docstring(obj, qualname: str) -> str:
    doc = inspect.getdoc(obj)
    if not doc or not doc.strip():
        raise ReferenceError_(f"{qualname} has no docstring")
    return doc


def _requires_doctest(obj) -> bool:
    """Constants/exception classes are exempt; callables and classes are not."""
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return False
    return inspect.isfunction(obj) or inspect.isclass(obj) or inspect.ismethod(obj)


def _check_doctest(doc: str, qualname: str, obj) -> None:
    if not _requires_doctest(obj):
        return
    if ">>>" not in doc:
        raise ReferenceError_(f"{qualname} docstring has no >>> doctest example")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def _entry(module_name: str, name: str, obj) -> List[str]:
    qualname = f"{module_name}.{name}"
    doc = _docstring(obj, qualname)
    _check_doctest(doc, qualname, obj)
    lines = [f"### `{name}`", ""]
    if inspect.isfunction(obj):
        lines += ["```python", f"{name}{_signature(obj)}", "```", ""]
    elif inspect.isclass(obj) and not issubclass(obj, BaseException):
        sig = _signature(obj)
        if sig and sig != "()":
            lines += ["```python", f"{name}{sig}", "```", ""]
    lines += [doc, ""]
    if inspect.isclass(obj) and not issubclass(obj, BaseException):
        methods = _public_methods(obj)
        for mname, mobj in methods:
            mdoc = _docstring(mobj, f"{qualname}.{mname}")
            lines += [f"#### `{name}.{mname}`", ""]
            lines += [textwrap.indent(mdoc, ""), ""]
    return lines


def _public_methods(cls) -> List[Tuple[str, object]]:
    """Public methods/properties defined by ``cls`` itself (declaration order)."""
    out = []
    for mname, mobj in vars(cls).items():
        if mname.startswith("_"):
            continue
        if isinstance(mobj, (staticmethod, classmethod)):
            mobj = mobj.__func__
        if isinstance(mobj, property):
            if mobj.fget is not None and inspect.getdoc(mobj.fget):
                out.append((mname, mobj.fget))
            continue
        if inspect.isfunction(mobj):
            out.append((mname, mobj))
    return out


def generate(header: str = HEADER, module_names: List[str] | None = None) -> str:
    """Build one manual's full text (deterministic)."""
    import importlib

    parts: List[str] = [header]
    toc: List[str] = ["## Contents", ""]
    bodies: List[str] = []
    for module_name in module_names if module_names is not None else MODULE_NAMES:
        module = importlib.import_module(module_name)
        mdoc = _docstring(module, module_name)
        anchor = module_name.replace(".", "")
        toc.append(f"- [`{module_name}`](#{anchor})")
        bodies.append(f'<a id="{anchor}"></a>')
        bodies.append(f"## `{module_name}`")
        bodies.append("")
        bodies.append(mdoc)
        bodies.append("")
        for name, obj in _public_symbols(module):
            if inspect.ismodule(obj):
                continue  # submodule re-exports documented in their own section
            bodies.extend(_entry(module_name, name, obj))
    toc.append("")
    return "\n".join(parts + toc + bodies).rstrip() + "\n"


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when any committed manual differs from the "
        "docstring-derived text instead of rewriting it",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    stale = False
    for output, (header, module_names) in MANUALS.items():
        try:
            text = generate(header, module_names)
        except ReferenceError_ as exc:
            print(f"reference contract violated: {exc}", file=sys.stderr)
            return 2
        if args.check:
            on_disk = output.read_text(encoding="utf-8") if output.exists() else ""
            if on_disk != text:
                print(
                    f"{output} is stale; regenerate with "
                    "PYTHONPATH=src python tools/gen_reference.py",
                    file=sys.stderr,
                )
                stale = True
            else:
                print(f"{output} is up to date")
            continue
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text, encoding="utf-8")
        print(f"wrote {output} ({len(text.splitlines())} lines)")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
