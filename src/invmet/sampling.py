"""Deterministic, forkable sampling streams.

A stream is identified by (seed, path); forked child streams are statistically
independent and reproducible: the same seed and path always produce the same
draws, regardless of what sibling streams consumed.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .errors import DegenerateInputError

# Rows of a direction stack whose squared moduli are held at a time.
_NORM_BLOCK = 4096
# Rows per column pass from which ``row_norms`` sums by column passes: one
# pass over a column costs about what numpy's reduce pays on this many rows.
_PASS_ROWS = 64


def row_norms(z):
    """|z[i]| per row of a 2-D stack of real or complex floats:
    ``np.linalg.norm(z, axis=1)`` bit for bit.

    numpy squares the moduli as (z.conj() * z).real and, below 8 columns,
    sums each row left to right.  Its reduce pays per row, which on a tall
    stack of a few columns costs more than the sums, so here the same squares
    are summed in the same order by whole-column passes, out += sq[:, k],
    over blocks of ``_NORM_BLOCK`` rows, which bound the temporaries.  A
    short stack, of fewer than ``_PASS_ROWS`` rows per column, keeps numpy's
    reduce, which costs less there; so does a stack of 8 or more columns,
    which numpy sums in other orders.
    """
    z = np.asarray(z)
    rows, cols = z.shape
    if not (0 < cols < 8 and rows >= _PASS_ROWS * cols):
        return np.sqrt(np.add.reduce((z.conj() * z).real, axis=1))
    out = np.empty(rows)
    for start in range(0, rows, _NORM_BLOCK):
        block = z[start:start + _NORM_BLOCK]
        sq = (block.conj() * block).real
        acc = out[start:start + _NORM_BLOCK]
        np.copyto(acc, sq[:, 0])
        for k in range(1, cols):
            acc += sq[:, k]
    return np.sqrt(out, out=out)


def vector_norms(z):
    """|z[i]| per row of a 2-D stack of real or complex floats, as
    ``np.linalg.norm(z[i])`` rounds each row on its own, bit for bit.

    The 1-D norm is sqrt(re . re + im . im) by dot products, which round
    apart from ``row_norms``'s sums; here each part's dot products are one
    stack of (1 x n) @ (n x 1) products, taken on the C-ordered stack as the
    1-D norm takes them on its contiguous row.
    """
    z = np.ascontiguousarray(z)
    parts = (z.real, z.imag) if np.iscomplexobj(z) else (z,)
    sq = parts[0][:, None, :] @ parts[0][:, :, None]
    if len(parts) == 2:
        sq = sq + parts[1][:, None, :] @ parts[1][:, :, None]
    return np.sqrt(sq[:, 0, 0])


def _unit_rows(z, norms):
    """Divide each row of a complex stack z by its nonzero norm, in place:
    both parts times 1 / norm, which is how numpy's complex-by-real division
    rounds, without its complex temporaries.  Overwrites ``norms``."""
    np.divide(1.0, norms, out=norms)
    parts = z.view(float)
    parts *= norms[:, None]
    return z


class SampleStream:
    # normals that a first draw served by ``_first_draws`` stood for: the
    # generator, once built, skips them
    _skip = 0

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise DegenerateInputError(f"seed must be at least 0, got {self.seed}")
        self.path = tuple(int(p) for p in path)

    @functools.cached_property
    def _rng(self):
        # built on the first draw: a stream that is only forked, or handed to
        # an oracle that draws nothing, costs no generator.  A generator's
        # normals do not depend on how its draws are split, so drawing the
        # skipped ones leaves it where the first draw would have.
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))
        if self._skip:
            rng.standard_normal(self._skip)
        return rng

    def fork(self, index: int) -> "SampleStream":
        """Independent child stream; deterministic in (seed, path, index)."""
        return SampleStream(self.seed, self.path + (int(index),))

    def uniform(self, size=None, low: float = 0.0, high: float = 1.0):
        return self._rng.uniform(low, high, size=size)

    def normal(self, size=None):
        return self._rng.standard_normal(size)

    def complex_normal(self, size):
        """Standard normals as real parts, then as many as imaginary parts."""
        z = np.empty(size, dtype=complex)
        part = np.empty(size)
        for view in (z.real, z.imag):
            self._rng.standard_normal(out=part)
            view[...] = part
        return z

    def unit_directions(self, count: int, dim: int):
        """Rows uniform on the unit sphere of C^dim; norms 1 to 1e-12.

        The draw is 2 * count * dim normals, the real parts then the
        imaginary parts, each row divided by its norm; a zero row is drawn
        again from the normals that follow.  A stream's first draw of at most
        64 entries (count * dim) is drawn once per process for each (seed,
        path, count, dim) and kept, at most 4096 draws, the table cleared when
        full; later first draws of that size read the kept bits.  A later draw
        of such a stream continues after it as it would have.  A first draw
        that drew a zero row again read more normals, and is not kept.
        """
        key = None
        if "_rng" not in self.__dict__ and not self._skip and count * dim <= _FIRST_DRAW_MAX:
            key = (self.seed, self.path, count, dim)
            with _lock:
                kept = _first_draws.get(key)
            if kept is not None:
                self._skip = 2 * count * dim
                return kept.copy()
        z = self.complex_normal((count, dim))
        norms = row_norms(z)
        # resample the (measure-zero) zero rows rather than dividing by 0;
        # such a draw read more normals than its size says, so is not kept
        while not norms.all():
            key = None
            bad = norms == 0.0
            z[bad] = self.complex_normal((int(bad.sum()), dim))
            norms = row_norms(z)
        z = _unit_rows(z, norms)
        if key is not None:
            kept = z.copy()
            kept.flags.writeable = False
            with _lock:
                if len(_first_draws) >= _FIRST_DRAWS_MAX:
                    _first_draws.clear()
                _first_draws[key] = kept
        return z

    def phases(self, size):
        return np.exp(2j * np.pi * self._rng.uniform(0.0, 1.0, size=size))

    def integers(self, low, high=None, size=None):
        return self._rng.integers(low, high, size=size)


# One lock for the two per-process tables below.
_lock = threading.Lock()

# First unit-direction draws of streams, (seed, path, count, dim) -> the
# read-only unit rows, for draws of at most _FIRST_DRAW_MAX complex entries
# (1 KiB).  At most _FIRST_DRAWS_MAX draws are kept (about 5 MB with their
# keys at the largest size); the table is cleared when full.
_FIRST_DRAW_MAX = 64
_FIRST_DRAWS_MAX = 4096
_first_draws = {}

# Normals of one root stream, SampleStream(seed), kept for the last seed asked
# for, with the generator that extends them: (seed, normals, generator).  At
# most _ROOT_NORMALS_MAX normals (8 MiB) are kept; a larger request draws
# afresh.
_ROOT_NORMALS_MAX = 1 << 20
_root_memo = None


def root_directions(seed: int, count: int, dim: int):
    """``SampleStream(seed).unit_directions(count, dim)``, bit for bit, with
    each seed's normals drawn once per process.

    The root stream's draw is its first count * dim normals as real parts and
    the next count * dim as imaginary parts, and a generator's normals do not
    depend on how its draws are split, so every (count, dim) at a seed reads a
    prefix of one sequence.  The last seed's sequence is kept and grown as
    requests need.  Each call returns a new array, normalised by
    ``row_norms`` as the plain stream's is.  For callers whose root stream
    draws nothing after the directions (it may fork).
    """
    global _root_memo
    seed, size = int(seed), int(count) * int(dim)
    if 2 * size > _ROOT_NORMALS_MAX:
        return SampleStream(seed).unit_directions(count, dim)
    with _lock:
        if _root_memo is not None and _root_memo[0] == seed:
            _, normals, rng = _root_memo
        else:
            # the last seed's normals go before the new ones are drawn
            _root_memo, normals, rng = None, np.empty(0), SampleStream(seed)._rng
        if normals.size < 2 * size:
            grown = np.empty(2 * size)
            grown[:normals.size] = normals
            rng.standard_normal(out=grown[normals.size:])
            normals = grown
            _root_memo = (seed, normals, rng)
    # the kept normals are never written after they are published
    z = np.empty((count, dim), dtype=complex)
    z.real = normals[:size].reshape(count, dim)
    z.imag = normals[size:2 * size].reshape(count, dim)
    norms = row_norms(z)
    if not norms.all():
        # the plain stream resamples a zero row from later normals
        return SampleStream(seed).unit_directions(count, dim)
    return _unit_rows(z, norms)
