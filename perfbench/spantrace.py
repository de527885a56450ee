"""In-memory span tracing from outside a program, and the reductions the
benchmark reports: self time, the tail-percentile rule and per-slot rates.

A span is (name, start, end, parent): the wrappers installed by `Tracer`
record one per call, and `parent` is the index of the span that was open
when the call began (-1 at top level). Spans are kept in flat arrays so that
a run of a million calls costs tens of megabytes, not hundreds.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Patches:
    """Replaces attributes of modules or classes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        # vars() gives the raw function of a class attribute, not a bound method
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> list[str]:
        """Undo every replacement, newest first; returns the attributes that
        do not hold their original object afterwards."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if vars(owner).get(attr) is not original
        ]
        self._saved.clear()
        return left


def owners_of(obj, modules) -> list[tuple[object, str]]:
    """Every (module, attribute) through which callers can look `obj` up."""
    return [(m, k) for m in modules for k, v in list(vars(m).items()) if v is obj]


class Tracer:
    """Records a span for every call of the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.patches = Patches()
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, classify=None, observe=None):
        """A wrapper of `fn` that records a span named `name`, or
        `classify(args, kwargs)` when given, and then calls
        `observe(args, kwargs, result)` outside the span."""
        fixed = self.intern(name)
        intern, clock, stack = self.intern, self.clock, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if classify is None else intern(classify(args, kwargs))
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def counter(self, fn, name: str):
        """A wrapper of `fn` that only counts calls, for functions too small
        and too frequent to time."""
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def trace_function(self, fn, modules, name: str, **kwargs) -> None:
        """Wrap `fn` under every module attribute that holds it, so that
        callers that imported it by name see the wrapper too."""
        wrapped = self.wrap(fn, name, **kwargs)
        for owner, attr in owners_of(fn, modules):
            self.patches.replace(owner, attr, wrapped)

    def trace_method(self, cls, attr: str, name: str, count_only: bool = False, **kwargs) -> None:
        fn = vars(cls)[attr]
        new = self.counter(fn, name) if count_only else self.wrap(fn, name, **kwargs)
        self.patches.replace(cls, attr, new)

    def spans(self) -> "Spans":
        return Spans(
            self.names,
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )


class Spans:
    """Read-only view of recorded spans as numpy arrays."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.duration = end - start
        has_parent = parent >= 0
        self.parent_name_id = np.full(len(parent), -1, dtype=np.int32)
        self.parent_name_id[has_parent] = name_id[parent[has_parent]]

    def id_of(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def of(self, name: str) -> np.ndarray:
        """Indices of the spans named `name`, in start order."""
        return np.flatnonzero(self.name_id == self.id_of(name))

    def with_parent(self, idx: np.ndarray, parent_name: str) -> np.ndarray:
        return idx[self.parent_name_id[idx] == self.id_of(parent_name)]

    def has_children(self) -> np.ndarray:
        out = np.zeros(len(self.parent), dtype=bool)
        out[self.parent[self.parent >= 0]] = True
        return out

    def self_times(self, idx: np.ndarray) -> np.ndarray:
        """Duration of each span in `idx` minus the union of its child spans."""
        idx = np.asarray(idx)
        children = np.flatnonzero(np.isin(self.parent, idx))
        order = np.argsort(self.parent[children], kind="stable")
        children = children[order]
        bounds = np.searchsorted(self.parent[children], idx, side="left"), np.searchsorted(
            self.parent[children], idx, side="right"
        )
        out = np.empty(len(idx))
        for k, (i, lo, hi) in enumerate(zip(idx, *bounds)):
            c = children[lo:hi]
            out[k] = self_time(self.start[i], self.end[i], self.start[c], self.end[c])
        return out


def union_length(starts, ends, lo: float, hi: float) -> float:
    """Length of the union of the intervals [starts, ends] clipped to [lo, hi]."""
    s = np.clip(np.asarray(starts, dtype=float), lo, hi)
    e = np.clip(np.asarray(ends, dtype=float), lo, hi)
    keep = e > s
    s, e = s[keep], e[keep]
    if s.size == 0:
        return 0.0
    order = np.argsort(s, kind="stable")
    s, e = s[order], e[order]
    reach = np.maximum.accumulate(e)
    opens = np.ones(s.size, dtype=bool)
    opens[1:] = s[1:] > reach[:-1]
    first = np.flatnonzero(opens)
    last = np.append(first[1:] - 1, s.size - 1)
    return float(np.sum(reach[last] - s[first]))


def self_time(start: float, end: float, child_starts, child_ends) -> float:
    """A span's duration minus the part of it that its children cover."""
    return (end - start) - union_length(child_starts, child_ends, start, end)


TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten of `n` samples
    beyond it; the median when even that has fewer."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return 50.0


def per_call(samples) -> tuple[float, float, float, int]:
    """(p50, tail value, tail percentile, sample count); zeros when empty."""
    v = np.asarray(samples, dtype=float)
    if v.size == 0:
        return 0.0, 0.0, 50.0, 0
    p = tail_percentile(v.size)
    return float(np.percentile(v, 50.0)), float(np.percentile(v, p)), p, int(v.size)


def rate(total: float, count: int) -> float:
    """A run total per slot (or per round) of the run; 0 when it had none."""
    return total / count if count else 0.0
