"""Deterministic, forkable sampling streams.

A stream is identified by (seed, path); forked child streams are statistically
independent and reproducible: the same seed and path always produce the same
draws, regardless of what sibling streams consumed.
"""

from __future__ import annotations

import functools

import numpy as np


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
        return self._rng.standard_normal(size) + 1j * self._rng.standard_normal(size)

    def unit_directions(self, count: int, dim: int, field: str = "complex"):
        """Rows uniform on the unit sphere of C^dim (or R^dim); norms 1 to 1e-12."""
        if field == "complex":
            z = self.complex_normal((count, dim))
        elif field == "real":
            z = self._rng.standard_normal((count, dim))
        else:
            raise ValueError(f"unknown field {field!r}")
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        # resample the (measure-zero) zero rows rather than dividing by 0
        while np.any(norms == 0.0):
            bad = norms[:, 0] == 0.0
            z[bad] = (self.complex_normal((int(bad.sum()), dim)) if field == "complex"
                      else self._rng.standard_normal((int(bad.sum()), dim)))
            norms = np.linalg.norm(z, axis=1, keepdims=True)
        return z / norms

    def phases(self, size):
        return np.exp(2j * np.pi * self._rng.uniform(0.0, 1.0, size=size))

    def integers(self, low, high=None, size=None):
        return self._rng.integers(low, high, size=size)
