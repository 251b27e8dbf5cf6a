"""Complex linear algebra, certified intervals, and unit-sphere maximization.

Conventions used throughout the package:

* vectors are 1-d ``numpy`` arrays of ``complex`` (``CVector``);
* the Hermitian inner product ``<u, v> = sum_i u_i conj(v_i)``, which is
  ``np.vdot(v, u)``, is linear in its first argument;
* a direction is only ever meaningful up to a unit phase, and canonical
  representatives make the first significant coordinate real positive.
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EvaluationError,
    SingularMapError,
)

Array = np.ndarray


def cvector(data) -> Array:
    """Coerce to a complex 1-d vector (n >= 1)."""
    v = np.asarray(data, dtype=complex)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError("expected a 1-d vector with n >= 1")
    return v


def canonical_phase(v) -> Array:
    """Rotate v by a unit phase so its first significant entry is real positive."""
    v = np.asarray(v, dtype=complex)
    mags = np.abs(v)
    peak = mags.max(initial=0.0)
    if peak == 0.0:
        return v.copy()
    k = int(np.argmax(mags > 1e-12 * peak))
    return v * (np.conj(v[k]) / mags[k])


class CLinearMap:
    """Invertible-or-not complex linear map on C^n with a cached determinant."""

    __slots__ = ("matrix", "_det")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("expected a square matrix")
        m.setflags(write=False)
        self.matrix = m
        self._det = None

    @classmethod
    def identity(cls, n: int) -> "CLinearMap":
        return cls(np.eye(n, dtype=complex))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def det(self) -> complex:
        if self._det is None:
            self._det = complex(np.linalg.det(self.matrix))
        return self._det

    def __call__(self, v) -> Array:
        return self.matrix @ np.asarray(v, dtype=complex)

    def compose(self, other: "CLinearMap") -> "CLinearMap":
        """self after other."""
        return CLinearMap(self.matrix @ other.matrix)

    def inverse(self) -> "CLinearMap":
        n = self.dim
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise SingularMapError("matrix is singular to working precision")
        inv = np.linalg.solve(self.matrix, np.eye(n, dtype=complex))
        return CLinearMap(inv)

    def __repr__(self):
        return f"CLinearMap({self.matrix!r})"


class AffineMap:
    """z -> linear(z) + translation. Usable as a holomorphic map (has derivative)."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear, translation):
        if not isinstance(linear, CLinearMap):
            linear = CLinearMap(linear)
        t = cvector(translation)
        if t.size != linear.dim:
            raise DimensionMismatchError("translation length does not match matrix size")
        self.linear = linear
        self.translation = t

    @classmethod
    def translation_by(cls, t) -> "AffineMap":
        t = cvector(t)
        return cls(CLinearMap.identity(t.size), t)

    @property
    def dim(self) -> int:
        return self.linear.dim

    def __call__(self, z) -> Array:
        z = np.asarray(z, dtype=complex)
        # supports batches: z of shape (..., n)
        return z @ self.linear.matrix.T + self.translation

    def derivative(self, z=None) -> Array:
        return self.linear.matrix

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        lin = self.linear.compose(other.linear)
        return AffineMap(lin, self.linear(other.translation) + self.translation)

    def inverse(self) -> "AffineMap":
        linv = self.linear.inverse()
        return AffineMap(linv, -linv(self.translation))

    def __repr__(self):
        return f"AffineMap({self.linear!r}, {self.translation!r})"


def orthonormal_complement_basis(vectors, dim: int | None = None):
    """Orthonormal basis of the Hermitian-orthogonal complement of span(vectors).

    ``vectors`` is a sequence of unit vectors in C^dim, pairwise independent;
    an empty sequence (with ``dim`` given) yields a full orthonormal basis.
    Raises DegenerateInputError on non-unit inputs or rank deficiency.
    """
    vecs = [cvector(v) for v in vectors]
    if not vecs:
        if dim is None:
            raise DimensionMismatchError("dim is required when no vectors are given")
        return [np.eye(dim, dtype=complex)[:, j] for j in range(dim)]
    n = vecs[0].size
    if dim is not None and dim != n:
        raise DimensionMismatchError("dim does not match the supplied vectors")
    Q = np.column_stack(vecs)
    if Q.shape[0] < Q.shape[1]:
        raise DegenerateInputError("more vectors than the ambient dimension")
    norms = np.linalg.norm(Q, axis=0)
    if np.any(np.abs(norms - 1.0) > config.UNIT_NORM_TOL):
        raise DegenerateInputError("input vectors must have unit norm")
    u, s, _ = np.linalg.svd(Q, full_matrices=True)
    k = Q.shape[1]
    if s[-1] <= 1e-8:
        raise DegenerateInputError("input vectors are linearly dependent")
    return [canonical_phase(u[:, j]) for j in range(k, n)]


def call_rowwise(f, V):
    """f's value on each row of a stack V of shape (..., n), of shape
    V.shape[:-1]: the whole stack in one call when f answers that shape,
    else one call per row."""
    V = np.asarray(V, dtype=complex)
    try:
        out = np.asarray(f(V), dtype=float)
        if out.shape == V.shape[:-1]:
            return out
    except Exception:
        pass
    rows = V.reshape(-1, V.shape[-1])
    return np.array([float(f(row)) for row in rows], dtype=float).reshape(V.shape[:-1])


def pattern_search(g, x0):
    """Maximize g over R^d by a batched compass search started at ``x0``.

    ``g`` maps an (N, d) stack of points to N values.  Each iteration scores
    the 2d trial points x +- step e_i in one call of g and moves to the best
    of them when it improves on g(x); otherwise the step halves.  The step
    starts at 0.1, and the search stops once it is below 1e-10 or after 1000
    iterations.

    Returns ``(x, g(x))``; the value is never below g(x0).
    """
    x = np.array(x0, dtype=float)
    val = float(g(x[None, :])[0])
    moves = np.vstack([np.eye(x.size), -np.eye(x.size)])
    step = 0.1
    for _ in range(1000):
        if step < 1e-10:
            break
        trials = x + step * moves
        vals = g(trials)
        k = int(np.argmax(vals))
        if vals[k] > val:
            x, val = trials[k], float(vals[k])
        else:
            step *= 0.5
    return x, val


def _require_finite(vals, V):
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise EvaluationError("functional returned a non-finite value",
                              direction=V[bad])
    return vals


def maximize_on_unit_sphere(f, basis=None, dim: int | None = None, *, seed: int = 0):
    """Maximize a phase-invariant functional over unit vectors of a complex subspace.

    ``basis``: orthonormal vectors spanning the subspace (columns); omit (with
    ``dim``) for the whole of C^dim.  On a subspace of dimension 1, spanned by
    ``b``, every unit vector is a phase of ``b``, so the maximum is ``f(b)``
    and the result is ``(canonical_phase(b), f(b))`` in closed form.
    Otherwise the coordinate directions and seeded random directions (2048
    for subspace dimension <= 3, scaled 4x per extra dimension) are scored in
    one call, and ``pattern_search`` climbs from the best of them on the real
    chart c -> c / |c| of the subspace coefficients; the returned value is
    never below the coarse-grid maximum.  Grid ties within a relative band
    resolve to the lexicographically smallest canonical representative.

    Returns ``(direction, value)`` with the direction phase-canonicalized.
    Raises EvaluationError if f produces a non-finite value.
    """
    if basis is None:
        if dim is None:
            raise DimensionMismatchError("need basis or dim")
        B = np.eye(dim, dtype=complex)
    else:
        B = np.column_stack([cvector(b) for b in basis])
    n, m = B.shape
    gram = B.conj().T @ B
    if np.max(np.abs(gram - np.eye(m))) > 1e-8:
        raise DegenerateInputError("subspace basis must be orthonormal")
    if m == 1:
        b = B[:, 0]
        val = float(_require_finite(call_rowwise(f, b[None, :]), b[None, :])[0])
        return canonical_phase(b), val

    coarse = config.SPHERE_COARSE_BASE * (4 ** max(0, m - 3))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    C = rng.standard_normal((coarse, m)) + 1j * rng.standard_normal((coarse, m))
    # deterministic anchors: coordinate directions of the subspace
    C = np.vstack([np.eye(m, dtype=complex), C])
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    V = C @ B.T
    vals = _require_finite(call_rowwise(f, V), V)

    best = float(vals.max())
    band = abs(best) * config.SPHERE_TIE_BAND + config.SPHERE_TIE_BAND
    cand_idx = np.flatnonzero(vals >= best - band)

    def lex_key(vec):
        w = canonical_phase(vec)
        return tuple(x for c in w for x in (round(c.real, 9), round(c.imag, 9)))

    start = min(cand_idx, key=lambda i: lex_key(V[i]))
    coarse_val = float(vals[start])

    def chart(X):
        c = X[:, :m] + 1j * X[:, m:]
        return (c / np.linalg.norm(c, axis=1, keepdims=True)) @ B.T

    def objective(X):
        W = chart(X)
        return _require_finite(call_rowwise(f, W), W)

    x, val = pattern_search(objective, np.concatenate([C[start].real, C[start].imag]))
    if val > coarse_val:
        return canonical_phase(chart(x[None, :])[0]), val
    return canonical_phase(V[start]), coarse_val
