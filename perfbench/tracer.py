"""Spans and call counts around terntrain's public functions, from outside.

terntrain's modules import names directly (``from .ternarize import tern``),
so a function is wrapped in every namespace that looks it up. Spans stay in
memory while the run lasts; per-layer figures are derived from them when it
ends. Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        # One entry per span: [name, label, start, end, parent index].
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (name, innermost open span index) -> calls
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, label: str = ""):
        idx = self._open(name, label)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str, label: str) -> int | None:
        if not self.active:
            return None
        idx = len(self.spans)
        self.spans.append([name, label, _now(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int | None) -> None:
        if idx is None:
            return
        self.spans[idx][3] = _now()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, label=None, counter_only: bool = False) -> None:
        """Replace owner.attr by a recording wrapper; label(args, kwargs) names the layer."""
        fn = getattr(owner, attr)
        tracer = self

        if counter_only:

            def wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.counts[(name, tracer._stack[-1] if tracer._stack else None)] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                idx = tracer._open(name, label(args, kwargs) if label and tracer.active else "")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        wrapper.__wrapped__ = fn
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def analyse(self) -> "Trace":
        return Trace(self.spans, self.counts)


class Trace:
    """Inclusive and self durations plus ancestry queries over recorded spans."""

    def __init__(self, spans: list[list], counts: Counter):
        n = len(spans)
        self.name = [s[0] for s in spans]
        self.label = [s[1] for s in spans]
        self.parent = [s[4] for s in spans]
        self.dur = np.array([(s[3] or s[2]) - s[2] for s in spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, p in enumerate(self.parent):
            if p is not None:
                child[p] += self.dur[i]
        self.self_time = self.dur - child
        self.counts = counts
        self._anc: dict[int, frozenset] = {}

    def ancestors(self, i: int | None) -> frozenset:
        """Names of the spans enclosing span i, i included."""
        if i is None:
            return frozenset()
        got = self._anc.get(i)
        if got is None:
            got = self.ancestors(self.parent[i]) | {self.name[i]}
            self._anc[i] = got
        return got

    def select(self, name: str, label: str | None = None, within: str | None = None,
               outside: str | None = None) -> list[int]:
        out = []
        for i, nm in enumerate(self.name):
            if nm != name or (label is not None and self.label[i] != label):
                continue
            anc = self.ancestors(self.parent[i])
            if within is not None and within not in anc:
                continue
            if outside is not None and outside in anc:
                continue
            out.append(i)
        return out

    def total_ms(self, idx: list[int], self_time: bool = False) -> float:
        arr = self.self_time if self_time else self.dur
        return 1e3 * float(arr[idx].sum()) if idx else 0.0

    def mean_ms(self, idx: list[int]) -> float:
        return 1e3 * float(self.dur[idx].mean()) if idx else 0.0

    def count_within(self, name: str, within: str) -> int:
        return sum(c for (nm, i), c in self.counts.items() if nm == name and within in self.ancestors(i))

    def self_times_by_name(self) -> dict:
        """Total self ms and calls per span name and label: the written profile."""
        acc: dict = defaultdict(lambda: [0.0, 0])
        for i, nm in enumerate(self.name):
            key = f"{nm}[{self.label[i]}]" if self.label[i] else nm
            acc[key][0] += 1e3 * float(self.self_time[i])
            acc[key][1] += 1
        return {k: {"self_ms": round(v[0], 3), "calls": v[1]} for k, v in sorted(acc.items())}
