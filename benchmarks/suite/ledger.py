"""Outside-in layer timing: wrap public callables, keep sums and sampled spans.

A :class:`Ledger` replaces a layer's public callable, on the attribute its
caller resolves, with a timing wrapper.  Every call adds to per-layer
sums (inclusive time, self time, calls); self time is the span minus the
time of wrapped calls nested inside it on the same thread.  Full spans
(name, start, end, span id, parent id, unit id) are kept only for a
seeded share of *units* — a request, a chunk, a grid point — named by
:meth:`Ledger.unit`.  Nothing under ``src/`` is edited; the wrappers are
undone by :meth:`Ledger.uninstall`.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

_perf = time.perf_counter

#: Fraction of units whose full span tree is kept.
SAMPLE_RATE = 0.01


class _ThreadSums:
    """One thread's running sums and its stack of open wrapped calls."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0


class Ledger:
    """Per-layer sums for every call plus spans for sampled units."""

    def __init__(self, seed: int = 0, sample_rate: float = SAMPLE_RATE) -> None:
        self.seed = int(seed)
        self._threshold = int(sample_rate * (1 << 32))
        self._tls = threading.local()
        self._states: List[_ThreadSums] = []
        self._lock = threading.Lock()
        self._undo: List[tuple] = []
        self._leaves: List[tuple] = []
        self._unit: contextvars.ContextVar = contextvars.ContextVar(
            "ledger_unit", default=None
        )
        self._span_ids = itertools.count(1)
        self.spans: List[tuple] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)

    # -- thread-local state ------------------------------------------------

    def _local(self) -> _ThreadSums:
        try:
            return self._tls.sums
        except AttributeError:
            sums = self._tls.sums = _ThreadSums()
            with self._lock:
                self._states.append(sums)
            return sums

    # -- units and sampling ------------------------------------------------

    def sampled(self, unit_id: int) -> bool:
        """Seeded 1-in-100 choice of ``unit_id`` (a multiplicative hash)."""
        mixed = ((int(unit_id) ^ self.seed) * 0x9E3779B1) & 0xFFFFFFFF
        return mixed < self._threshold

    def set_unit(self, unit_id: Any) -> None:
        """Mark the current context (thread or asyncio task) as one unit."""
        keep = isinstance(unit_id, int) and self.sampled(unit_id)
        self._unit.set((unit_id, keep))

    @contextmanager
    def unit(self, unit_id: int) -> Iterator[None]:
        token = self._unit.set((unit_id, self.sampled(unit_id)))
        try:
            yield
        finally:
            self._unit.reset(token)

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self._local().counts[name] += amount

    def _enter(self) -> list:
        st = self._local()
        unit = self._unit.get()
        span_id = next(self._span_ids) if unit is not None and unit[1] else 0
        frame = [0.0, span_id]
        st.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        st = self._tls.sums
        st.stack.pop()
        dur = t1 - t0
        st.total[name] += dur
        st.self_s[name] += dur - frame[0]
        st.calls[name] += 1
        if st.stack:
            st.stack[-1][0] += dur
        else:
            st.top_s += dur
        if frame[1]:
            parent = st.stack[-1][1] if st.stack else 0
            self.spans.append(
                (name, t0, t1, frame[1], parent, self._unit.get()[0])
            )

    # -- installing wrappers -----------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as layer ``name``.

        ``owner`` is the module or class the caller resolves the name
        on.  On a class, the attribute must be defined there, not
        inherited, so a layer is never timed twice.  ``after`` sees
        ``(args, kwargs, result)`` and may add counts.
        """
        if isinstance(owner, type) and attr not in owner.__dict__:
            raise AttributeError(f"{owner.__name__}.{attr} is inherited, not defined")
        original = getattr(owner, attr)
        enter, leave = self._enter, self._exit

        def timed(*args, **kwargs):
            frame = enter()
            t0 = _perf()
            try:
                result = original(*args, **kwargs)
            finally:
                leave(name, frame, t0, _perf())
            if after is not None:
                after(args, kwargs, result)
            return result

        self._install(owner, attr, original, timed)

    def wrap_leaf(self, owner: Any, attr: str, name: str) -> None:
        """Time a hot, tiny callable with the least overhead.

        For callables that run on one thread and never inside another
        wrapped layer (the streaming reducers' ``update``): no span, no
        stack, just a running sum and a call count kept in the closure.
        """
        if isinstance(owner, type) and attr not in owner.__dict__:
            raise AttributeError(f"{owner.__name__}.{attr} is inherited, not defined")
        original = getattr(owner, attr)
        acc = [0.0, 0]
        self._leaves.append((name, acc))

        def timed(*args):
            t0 = _perf()
            result = original(*args)
            acc[0] += _perf() - t0
            acc[1] += 1
            return result

        self._install(owner, attr, original, timed)

    def _install(self, owner: Any, attr: str, original: Any, timed: Any) -> None:
        if not isinstance(original, type):
            functools.update_wrapper(timed, original)
        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def wrap_future(self, owner: Any, attr: str, name: str) -> None:
        """Time ``owner.attr`` from its call until the future it returns is done.

        Durations (seconds) go to ``samples[name]``; the waiting is not
        part of any thread's self time.
        """
        original = getattr(owner, attr)
        sample = self.samples[name].append

        def timed(*args, **kwargs):
            t0 = _perf()
            fut = original(*args, **kwargs)
            fut.add_done_callback(lambda _f: sample(_perf() - t0))
            return fut

        self._install(owner, attr, original, timed)

    def wrap_coroutine(self, owner: Any, attr: str, name: str) -> None:
        """Time an ``async def`` attribute, from its call until its await returns."""
        original = getattr(owner, attr)
        local = self._local

        async def timed(*args, **kwargs):
            t0 = _perf()
            try:
                return await original(*args, **kwargs)
            finally:
                st = local()
                st.total[name] += _perf() - t0
                st.calls[name] += 1

        self._install(owner, attr, original, timed)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Merged sums over every thread that recorded."""
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counts: Dict[str, float] = defaultdict(float)
        top = 0.0
        with self._lock:
            states = list(self._states)
        for st in states:
            for src, dst in (
                (st.total, total), (st.self_s, self_s),
                (st.calls, calls), (st.counts, counts),
            ):
                for k, v in list(src.items()):
                    dst[k] += v
            top += st.top_s
        for name, (seconds, n) in self._leaves:
            total[name] += seconds
            self_s[name] += seconds
            calls[name] += n
            top += seconds
        return {
            "total_s": dict(total),
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(counts),
            "top_s": top,
        }

    def span_records(self) -> List[Dict[str, Any]]:
        """The sampled spans: name, start, end, id, parent id, unit id."""
        return [
            {"name": n, "start": a, "end": b, "id": i, "parent": p, "unit": u}
            for n, a, b, i, p, u in self.spans
        ]

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write sums, samples and the sampled spans as one JSON file."""
        payload = dict(self.snapshot())
        payload["samples"] = {k: list(v) for k, v in self.samples.items()}
        payload["spans"] = self.span_records()
        payload.update(extra or {})
        Path(path).write_text(json.dumps(payload), encoding="utf-8")
