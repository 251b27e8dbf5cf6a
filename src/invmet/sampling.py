"""Deterministic, forkable sampling streams.

A stream is identified by (seed, path); forked child streams are statistically
independent and reproducible: the same seed and path always produce the same
draws, regardless of what sibling streams consumed.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

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


def _unit_rows(z, norms):
    """Divide each row of a complex stack z by its nonzero norm, in place:
    both parts times 1 / norm, which is how numpy's complex-by-real division
    rounds, without its complex temporaries.  Overwrites ``norms``."""
    np.divide(1.0, norms, out=norms)
    parts = z.view(float)
    parts *= norms[:, None]
    return z


class SampleStream:
    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)

    @functools.cached_property
    def _rng(self):
        # built on the first draw: a stream that is only forked, or handed to
        # an oracle that draws nothing, costs no generator
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))

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
        """Rows uniform on the unit sphere of C^dim; norms 1 to 1e-12."""
        z = self.complex_normal((count, dim))
        norms = row_norms(z)
        # resample the (measure-zero) zero rows rather than dividing by 0
        while not norms.all():
            bad = norms == 0.0
            z[bad] = self.complex_normal((int(bad.sum()), dim))
            norms = row_norms(z)
        return _unit_rows(z, norms)

    def phases(self, size):
        return np.exp(2j * np.pi * self._rng.uniform(0.0, 1.0, size=size))

    def integers(self, low, high=None, size=None):
        return self._rng.integers(low, high, size=size)


# Normals of one root stream, SampleStream(seed), kept for the last seed asked
# for, with the generator that extends them: (seed, normals, generator).  At
# most _ROOT_NORMALS_MAX normals (8 MiB) are kept; a larger request draws
# afresh.
_ROOT_NORMALS_MAX = 1 << 20
_root_lock = threading.Lock()
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
    with _root_lock:
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
