"""Single-layer timings at the sizes the ROADMAP Baseline quotes.

    python3 perfbench/baseline.py

The traced run's per-layer figures mix sizes (``simplex_volume`` over
d = 1..8, ``profile_counts`` over two point-set sizes); this script times
each layer at one size, as the median of repeated timings, and prints one
JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gpoly import geometry, theory  # noqa: E402
from gpoly.mathcore import simplex_volume  # noqa: E402
from gpoly.sampling import RngStream  # noqa: E402


def _median_s(fn, number: int, repeat: int = 7) -> float:
    return statistics.median(timeit.repeat(fn, number=number,
                                           repeat=repeat)) / number


def main() -> int:
    s = RngStream(1, 0)
    points = s.standard_normal((4, 3))
    coords = s.standard_normal((14, 7))
    subsets = geometry.subset_array(14, 7)
    print(json.dumps({
        "rng_reset_us": _median_s(lambda: s.reset(1, 5), 20000) * 1e6,
        "simplex_volume_d3_us": _median_s(lambda: simplex_volume(points),
                                          5000) * 1e6,
        "profile_counts_14_7_ms": _median_s(
            lambda: geometry.profile_counts(coords, subsets), 50) * 1e3,
        "estranged_constant_s": _median_s(
            lambda: theory.estranged_constant("-", "-"), 1, repeat=5),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
