"""The span tracer: self times, thread parents, and clean removal."""

import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import layers
import spans

SRC = Path(__file__).resolve().parent.parent / "src"


class FakeClock:
    """Returns the next preset time on each call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_span_minus_children_on_a_nested_call():
    ns = types.SimpleNamespace()
    ns.inner = lambda: None
    ns.outer = lambda: (ns.inner(), ns.inner())
    # clock reads: install, outer start, inner 10..30, inner 40..45, outer end
    clock = FakeClock([0, 0, 10, 30, 40, 45, 100])
    with spans.Tracer([spans.Target(ns, "outer", "outer"),
                       spans.Target(ns, "inner", "inner")],
                      clock=clock) as tracer:
        ns.outer()
    s = tracer.spans()
    assert list(s["parent"]) == [-1, 0, 0]
    own = spans.self_times(s["id"], s["parent"], s["start"], s["end"])
    assert list(own) == [100 - 20 - 5, 20, 5]


def test_overlapping_children_count_once():
    # children from two threads overlap on [30, 50]; the union covers 60
    own = spans.self_times([0, 1, 2, 3], [-1, 0, 0, 2],
                           [0, 10, 30, 35], [100, 50, 70, 40])
    assert list(own) == [40, 40, 35, 5]


def test_worker_thread_spans_hang_under_the_waiting_span():
    ns = types.SimpleNamespace()
    ns.work = lambda: None

    def run():
        t = threading.Thread(target=ns.work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    ns.run = run
    with spans.Tracer([spans.Target(ns, "run", "run"),
                       spans.Target(ns, "work", "work")]) as tracer:
        ns.run()
    s = tracer.spans()
    names = np.array(tracer.names)[s["name"]]
    assert list(names) == ["run", "work"]
    assert list(s["parent"]) == [-1, 0]


def test_counts_and_exceptions_are_recorded():
    ns = types.SimpleNamespace(f=lambda n: list(range(n)))

    def boom():
        raise KeyError("x")

    ns.boom = boom
    with spans.Tracer([spans.Target(ns, "f", "f", lambda a, k, r: len(r)),
                       spans.Target(ns, "boom", "boom")]) as tracer:
        ns.f(7)
        with pytest.raises(KeyError):
            ns.boom()
    assert list(tracer.spans()["count"]) == [7, 0]


def test_every_wrapped_gpoly_name_is_restored():
    sys.path.insert(0, str(SRC))
    import gpoly.cli

    targets = layers.targets(gpoly)
    before = [vars(t.owner)[t.attr] for t in targets]
    with spans.Tracer(targets):
        assert all(vars(t.owner)[t.attr] is not b
                   for t, b in zip(targets, before))
    assert all(vars(t.owner)[t.attr] is b for t, b in zip(targets, before))
