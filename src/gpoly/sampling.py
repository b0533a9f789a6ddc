"""Deterministic, stream-splittable random sampling.

Streams are counter-based (Philox4x64 keyed by (master_seed, stream_id)), so
trial i of any experiment can be reproduced in isolation and parallel
consumers never share state. A stream rewinds to a new key in place, with
the draws of a fresh generator of that key. Point sets carry their seed
provenance and write themselves as CSV; ``_truncated_coords`` fills an
array with Gaussians conditioned on a halfspace, by rejection.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1

# The 12 state words an in-place reset writes, in the order a Philox lays
# them out behind ``Philox.ctypes.state_address``. The C struct is
# ``philox_state {ctr*, key*, int buffer_pos, uint64 buffer[4],
# int has_uint32, uint32 uinteger}``; its two pointers are skipped, and the
# key (2 words) and counter (4 words) they point at follow the struct.
_WORDS = 12
_KEY = slice(6, 8)


def _words_of(state: dict) -> np.ndarray:
    """The state words of a ``Philox.state`` dict, in the layout above."""
    words = np.zeros(_WORDS, dtype=np.uint64)
    halves = words.view(np.uint32)
    halves[0] = state["buffer_pos"]
    words[1:5] = state["buffer"]
    halves[10] = state["has_uint32"]
    halves[11] = state["uinteger"]
    words[_KEY] = state["state"]["key"]
    words[8:12] = state["state"]["counter"]
    return words


def _state_words(bitgen: Philox) -> np.ndarray | None:
    """A writable uint64 view of the state words of ``bitgen``, or None.

    None unless the struct, the key and the counter lie one after another
    inside the Philox object itself, where the two pointers say they are;
    nothing outside the object is read or written.
    """
    address = bitgen.ctypes.state_address
    start = id(bitgen)
    end = start + type(bitgen).__basicsize__
    if not start <= address <= end - 8 * (2 + _WORDS):
        return None
    raw = np.ctypeslib.as_array(
        (ctypes.c_uint64 * (2 + _WORDS)).from_address(address))
    # the key right after the 8-word struct, the counter right after the key
    if raw[1] != address + 64 or raw[0] != address + 80:
        return None
    return raw[2:]


@functools.cache
def _in_place_reset_works() -> bool:
    """Whether writing the state words in place rewinds a Philox exactly.

    Checked once per process on a private generator: the words must read
    back what the ``state`` getter reports, and for keys up to 2**64 - 1 a
    stream reset in place after a half-used buffer or a cached 32-bit half
    must report the state of, and draw the same numbers as, a fresh
    ``Philox(key=np.array([seed, id], dtype=np.uint64))``. A state dict
    or ``ctypes`` interface of another shape than assumed gives False.
    """
    try:
        return _check_in_place_reset()
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        return False


def _check_in_place_reset() -> bool:
    bitgen = Philox(0)
    words = _state_words(bitgen)
    if words is None:
        return False
    generator = Generator(bitgen)
    probe = bitgen.state
    probe["state"]["counter"][:] = (1, 2, 3, 2**63 + 4)
    probe["buffer"][:] = (5, 6, 7, 2**64 - 8)
    probe["buffer_pos"], probe["has_uint32"] = 2, 1
    probe["uinteger"] = 0xDEADBEEF
    bitgen.state = probe
    if not np.array_equal(words, _words_of(bitgen.state)):
        return False
    keys = ((0, 0), (2**53 + 1, 3), (2**63, 2**64 - 1),
            (12345678901234567890, 2**63 + 5))
    for seed, stream_id in keys:
        for leave_behind in (lambda: generator.standard_normal(3),
                             lambda: generator.integers(
                                 0, 2**32, dtype=np.uint32)):
            leave_behind()
            key = np.array([seed, stream_id], dtype=np.uint64)
            fresh = Philox(key=key)
            template = _words_of(fresh.state)
            words[:] = template
            if not np.array_equal(_words_of(bitgen.state), template):
                return False
            reference = Generator(fresh)
            for draw in (lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                         lambda g: g.standard_normal(5),
                         lambda g: g.random(3), lambda g: g.laplace(size=2)):
                if not np.array_equal(draw(generator), draw(reference)):
                    return False
    return True


class RngStream:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Equal keys reproduce the exact output sequence; distinct stream ids give
    statistically independent sequences. ``reset`` rewinds the stream to a
    new key in place, with the draws of a fresh generator of that key: it
    writes the key into a fresh state template (counter zero, buffer empty,
    no cached 32-bit half) and loads the template into the Philox. Where the
    one-time check ``_in_place_reset_works`` passes, the load is one copy of
    the state words through ``Philox.ctypes.state_address``; otherwise it
    goes through the ``Philox.state`` setter, which costs several times as
    much.
    """

    __slots__ = ("_bitgen", "generator", "_key", "_load")

    def __init__(self, master_seed: int, stream_id: int):
        key = np.array([int(master_seed) & _MASK64, int(stream_id) & _MASK64],
                       dtype=np.uint64)
        self._bitgen = Philox(key=key)
        self.generator = Generator(self._bitgen)
        # The getter copies the state of the fresh generator: its counter is
        # zero and its buffer empty, so reset only rewrites the key.
        state = self._bitgen.state
        words = _state_words(self._bitgen) if _in_place_reset_works() \
            else None
        if words is None:
            self._key = state["state"]["key"]
            self._load = functools.partial(setattr, self._bitgen, "state",
                                           state)
        else:
            template = _words_of(state)
            self._key = template[_KEY]
            self._load = functools.partial(words.__setitem__, Ellipsis,
                                           template)

    master_seed = property(lambda self: int(self._key[0]))
    stream_id = property(lambda self: int(self._key[1]))

    def reset(self, master_seed: int, stream_id: int) -> "RngStream":
        """Rewind to the key (master_seed, stream_id), two Python ints."""
        self._key[0] = master_seed & _MASK64
        self._key[1] = stream_id & _MASK64
        self._load()
        return self

    def uniform(self, size=None, out=None):
        return self.generator.random(size, out=out)

    def standard_normal(self, size=None, out=None):
        return self.generator.standard_normal(size, out=out)


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
        n, d = coords.shape if coords.ndim == 2 else (0, 0)
        return cls(n=n, d=d, coords=coords)

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


def _truncated_coords(s: RngStream, out: np.ndarray, t: float) -> np.ndarray:
    """Fill ``out`` (points x coordinates) with standard Gaussians whose
    first coordinate is <= t, by rejection; returns ``out``.

    Each pass draws the missing rows into place and moves the accepted ones
    up, so ``out`` holds the first accepted rows of the stream, in order, as
    a fresh draw of the missing rows per pass would; the truncated-bound
    check calls it only when its one-draw buffer falls short.
    """
    got = 0
    while got < len(out):
        rest = out[got:]
        s.standard_normal(out=rest)
        keep = rest[:, 0] <= t
        kept = int(np.count_nonzero(keep))
        if kept < len(rest):
            rest[:kept] = rest[keep]
        got += kept
    return out
