"""Span tracing of gpoly's layers from outside the program.

A ``Tracer`` replaces chosen functions with wrappers that record one span per
call: an id, the id of the span that was open when the call began (its
parent), a name, start and end in nanoseconds, and a count taken from the
call (trials, subsets, quadrature evaluations...). Wrappers go where callers
look the names up, e.g. ``gpoly.experiments.simplex_volume``, and are removed
again on exit, restoring the original objects.

Spans stay in per-thread memory buffers while the tracer is installed and
are written out only at the end. Calls made by gpoly's worker threads have
no open span of their own thread; they are children of the innermost span
open in the thread that installed the tracer (the ``mc_run`` that is waiting
for them).
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_COLUMNS = ("id", "parent", "name", "start", "end", "count")


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``owner.attr``, recorded as span ``name``.

    ``count(args, kwargs, result)`` gives the span's count (default 1).
    """

    owner: Any
    attr: str
    name: str
    count: Callable[[tuple, dict, Any], int] | None = None


class _ThreadState:
    def __init__(self):
        self.stack: list[int] = []
        self.columns = [array("q") for _ in _COLUMNS]


class Tracer:
    """Context manager that installs the wrappers and collects the spans."""

    def __init__(self, targets, clock=time.perf_counter_ns):
        self.targets = list(targets)
        self.names = sorted({t.name for t in self.targets})
        self._clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count()
        self._originals: list[tuple[Any, str, Any]] = []
        self._main: _ThreadState | None = None
        self.t0 = 0

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, name_id: int, count):
        clock, ids = self._clock, self._ids

        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                main = self._main.stack
                parent = main[-1] if main else -1
            sid = next(ids)
            stack.append(sid)
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                n = 1 if count is None else int(count(args, kwargs, result))
                return result
            finally:
                end = clock()
                stack.pop()
                for column, value in zip(state.columns,
                                         (sid, parent, name_id, start, end, n)):
                    column.append(value)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def __enter__(self) -> "Tracer":
        self._main = self._state()
        self.t0 = self._clock()
        for t in self.targets:
            # read the class __dict__ so a method is restored as itself
            original = vars(t.owner)[t.attr] if isinstance(t.owner, type) \
                else getattr(t.owner, t.attr)
            self._originals.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr,
                    self._wrap(original, self.names.index(t.name), t.count))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as columns sorted by id; times relative to t0."""
        cols = {key: np.concatenate([np.asarray(s.columns[i], dtype=np.int64)
                                     for s in self._states])
                for i, key in enumerate(_COLUMNS)}
        order = np.argsort(cols["id"])
        out = {key: col[order] for key, col in cols.items()}
        out["start"] -= self.t0
        out["end"] -= self.t0
        return out

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(ids, parents, starts, ends) -> np.ndarray:
    """Duration of each span minus the part of it that its children cover.

    Children in different threads may overlap, so the covered part is the
    length of the union of the children's intervals, not the sum of their
    durations. ``ids`` must be 0..N-1 in order; a parent of -1 means none.
    """
    ids, parents, starts, ends = (np.asarray(a, dtype=np.int64)
                                  for a in (ids, parents, starts, ends))
    if not np.array_equal(ids, np.arange(len(ids))):
        raise ValueError("span ids must be 0..N-1 in order")
    out = ends - starts
    child = parents >= 0
    p, s, e = parents[child], starts[child], ends[child]
    if len(p) == 0:
        return out
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    first = np.r_[True, p[1:] != p[:-1]]
    group = np.cumsum(first) - 1
    # Running max of the ends within each parent's group: the offset keeps
    # every group above all earlier ones, so the max never leaks across.
    offset = group * (int(e.max()) + 1)
    furthest = np.maximum.accumulate(e + offset) - offset
    previous = np.r_[0, furthest[:-1]]
    previous[first] = np.iinfo(np.int64).min
    covered = np.maximum(0, e - np.maximum(s, previous))
    np.subtract.at(out, p, covered)
    return out
