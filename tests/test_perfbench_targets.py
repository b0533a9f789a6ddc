"""The benchmark's traced run wraps gpoly functions by name; a rename in
gpoly must fail here rather than break ``perfbench/run.py --trace 1``."""

from pathlib import Path

import gpoly.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    targets = layers.targets(gpoly)
    assert targets
    missing = [f"{t.owner.__name__}.{t.attr}" for t in targets
               if not callable(getattr(t.owner, t.attr, None))]
    assert not missing
