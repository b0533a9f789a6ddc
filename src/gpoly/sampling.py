"""Deterministic, stream-splittable random sampling.

Streams are counter-based (Philox4x64 keyed by (master_seed, stream_id)), so
trial i of any experiment can be reproduced in isolation and parallel
consumers never share state. Point sets carry their seed provenance and
write themselves as CSV; ``_truncated_coords`` draws Gaussians conditioned
on a halfspace by rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1


class RngStream:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Equal keys reproduce the exact output sequence; distinct stream ids give
    statistically independent sequences. ``reset`` rewinds the stream to a
    new key in place, which is much cheaper than constructing a fresh
    generator in Monte Carlo loops.
    """

    __slots__ = ("master_seed", "stream_id", "_bitgen", "generator", "_state")

    def __init__(self, master_seed: int, stream_id: int):
        self.master_seed = int(master_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        self._bitgen = Philox(key=key)
        self.generator = Generator(self._bitgen)
        # The state getter copies the whole state on every call; reset only
        # rewrites the key of this private copy and hands it to the setter.
        # The counter stays zero and the buffer is marked empty.
        self._state = self._bitgen.state
        self._state["state"]["counter"][:] = 0
        self._state["buffer_pos"] = 4
        self._state["has_uint32"] = 0
        self._state["uinteger"] = 0

    def reset(self, master_seed: int, stream_id: int) -> "RngStream":
        self.master_seed = int(master_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = self._state["state"]["key"]
        key[0] = self.master_seed
        key[1] = self.stream_id
        self._bitgen.state = self._state
        return self

    def uniform(self, size=None):
        return self.generator.random(size)

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)


def stream(master_seed: int, stream_id: int) -> RngStream:
    """Create the stream keyed by (master_seed, stream_id)."""
    return RngStream(master_seed, stream_id)


@dataclass(frozen=True, eq=False)
class PointSet:
    """n points in R^d with seed provenance, immutable after construction."""

    n: int
    d: int
    coords: np.ndarray
    provenance: tuple[int, int] | str = "external"

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError("coords must be a 2-D array")
        if coords.shape != (self.n, self.d) or self.n < 1 or self.d < 1:
            raise ValueError(f"coords shape {coords.shape} does not match "
                             f"(n, d) = ({self.n}, {self.d})")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        coords = np.ascontiguousarray(coords)
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_coords(cls, coords) -> "PointSet":
        """A point set of external coordinates, one point per row."""
        coords = np.asarray(coords, dtype=float)
        return cls(n=coords.shape[0], d=coords.shape[1], coords=coords)

    def write_csv(self, fh) -> None:
        """Write `x1,...,xd` CSV at 17 significant digits (exact round-trip)."""
        fh.write(",".join(f"x{j + 1}" for j in range(self.d)) + "\n")
        for row in self.coords:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def gaussian_point_set(s: RngStream, n: int, d: int) -> PointSet:
    """n i.i.d. standard Gaussian points in R^d drawn from stream s."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    coords = s.standard_normal((n, d))
    return PointSet(n=n, d=d, coords=coords,
                    provenance=(s.master_seed, s.stream_id))


def _truncated_coords(s: RngStream, count: int, d: int, t: float) -> np.ndarray:
    """Rejection-sample standard Gaussians in R^d with first coordinate <= t.

    With t >= 0 the acceptance probability is Phi(t) >= 1/2, so rejection
    costs at most one extra draw per point in expectation.
    """
    out = np.empty((count, d))
    got = 0
    while got < count:
        batch = s.standard_normal((count - got, d))
        acc = batch[batch[:, 0] <= t]
        take = min(len(acc), count - got)
        out[got:got + take] = acc[:take]
        got += take
    return out
