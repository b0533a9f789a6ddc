"""The benchmark's traced run wraps gpoly functions by name; a rename in
gpoly must fail here rather than break ``perfbench/run.py --trace 1``."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import gpoly.cli
from gpoly import experiments, geometry
from gpoly.sampling import stream

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


def test_subsets_stay_where_the_traced_run_reads_them():
    # layers._subsets reads the subset list of geometry.signed_distances at
    # positional index 1, or by its keyword
    names = list(inspect.signature(geometry.signed_distances).parameters)
    assert names == ["coords", "subsets"]


def test_every_side_count_passes_the_traced_layer(monkeypatch):
    # the tracer wraps geometry.signed_distances by name, so the enumeration
    # must look it up there for each row chunk, ordinary point sets included
    calls = []
    sides = geometry.signed_distances

    def counting(coords, subsets):
        calls.append(len(coords))
        return sides(coords, subsets)

    monkeypatch.setattr(geometry, "signed_distances", counting)
    monkeypatch.setattr(geometry, "_BLOCK", 300)  # 126 sets: 2 rows a chunk
    block = stream(5, 0).standard_normal((5, 9, 3))
    subsets = geometry.subset_array(9, 3)
    geometry.profile_counts(block, subsets)
    assert calls == [2, 2, 1]
    calls.clear()
    geometry.facet_mask(block, subsets)
    assert calls == [2, 2, 1]
    calls.clear()
    # one subset in 4 sets: 75 rows per chunk of the 512 and 88-row blocks
    experiments.fixed_subset_kfacet_probability_mc(8, 4, 1, 600, 3)
    assert calls == [75] * 6 + [62] + [75, 13]


@pytest.mark.parametrize("fn", [experiments.mc_run,
                                experiments.mc_run_vector])
def test_row_shape_is_required_and_keyword_only(fn):
    # every draw fills its row, so the driver always needs the row shape
    row_shape = inspect.signature(fn).parameters["row_shape"]
    assert row_shape.kind is row_shape.KEYWORD_ONLY
    assert row_shape.default is row_shape.empty


def test_truncated_draw_returns_the_points_it_kept(monkeypatch):
    # layers._result_size counts the kept values from the returned array,
    # the numerator of sampling.truncation_accept_ratio
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    out = np.empty((5, 3))
    kept = experiments._truncated_coords(stream(1, 2), out, 0.0)
    assert kept is out
    assert layers._result_size((), {}, kept) == out.size == 15
