"""The benchmark's traced run wraps gpoly functions by name; a rename in
gpoly must fail here rather than break ``perfbench/run.py --trace 1``."""

import inspect
from pathlib import Path

import pytest

import gpoly.cli
from gpoly import experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    targets = layers.targets(gpoly)
    assert targets
    missing = [f"{t.owner.__name__}.{t.attr}" for t in targets
               if not callable(getattr(t.owner, t.attr, None))]
    assert not missing


@pytest.mark.parametrize("fn, index", [(experiments.mc_run, 1),
                                       (experiments.mc_run_vector, 2)])
def test_trials_stay_where_the_traced_run_reads_them(fn, index):
    # layers._arg reads trials at this positional index; anything added
    # after the kernel must be keyword-only so it cannot shift the order
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    assert names[index] == "trials"
    assert all(p.kind is p.KEYWORD_ONLY
               for p in params[names.index("kernel") + 1:])
