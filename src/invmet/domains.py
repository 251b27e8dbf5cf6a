"""Bounded convex domain oracles in C^n and their supporting geometry.

Kinds: the unit ball; the convex polyhedron, one face table of modulus faces
|f(z)| < c and real faces Re f(z) < b built from its arrays
(``ConvexPolyhedron``), of which the polydisc and the half-plane product
(``polydisc``, ``halfplane_product``) are instances built without checks;
balanced convex bodies given by a gauge; and affine images of any of these.

Every face table's metric lower side projects onto its faces: z -> f_k(z) / c_k
maps the body into the unit disc, so by the decreasing property
K(x; v) >= c |f_lin v| / (c^2 - |f(x)|^2) on a modulus face, and a real face
gives its half-plane's metric.  A table of n faces with independent rows is a
product of discs and half-planes, where by the product property the maximum
over faces is the metric and the largest face distance the distance: it
answers both sides, its metric form and its distance in closed form, and has
an exact sampler and automorphisms in its face coordinates w = f(z).  So does
a hidden product: more faces, of which n independent modulus faces S leave
each other face redundant, below its bound on their product by more than an
allowance for rounding.  Any other table shrinks that lower side by 4 eps
relative (``ConvexPolyhedron``).

Every domain carries a declared bounding radius and an interior base point.
Membership returns a signed gauge-like margin (positive inside). Directions and
normals use the Hermitian inner product <u, v> = sum u_i conj(v_i).

Every kind answers one row-paired protocol, where row i is the point P[i]
with the direction V[i] (in ``metric_paired``, ``section_distance_paired``
and ``bracket_paired`` P may also be a single row, shared by every row of
V):

* ``metric_paired(P, V)``: the closed-form metric K(P[i]; V[i]), or None when
  the kind has none;
* ``section_distance_paired(P, V)``: the distance from P[i] to the boundary of
  the planar section through P[i] along V[i];
* ``section_distance_along(x, W, T)``: the same at the nodes x + T[i, j] W[i]
  of rays from one point x, along W[i] (the distance quadrature of gauge
  bodies and the distance-ball sampler); polyhedra answer it in closed form;
* ``bracket_paired(P, V, stream)``: certified (lower, upper) bounds of the
  metric, the closed form on both sides where there is one; a body known
  through a gauge answers both sides from one section search;
* ``metric_pullback(P, V)``: (domain, P', V'), a kind whose metric at P', V'
  is this one's at P, V: an affine image's inner kind at the pulled-back rows;
* ``metric_form(x)``: K(x; .) at one point as a ``MetricForm`` (a Hermitian
  form or a max of moduli of linear functionals), or None;
* ``distance_value(x, w)``: the closed-form distance from x to x + w, or to
  x + W[i] for each row of a stack W, or None when the kind has none;
* ``distance_radii(x, U, T)``: per ray U[i] from x, the t > 0 at which
  ``distance_value(x, t U[i])`` is T[i], in closed form, or None;
* ``affine_disc_length(x, w)``: the integral of the affine-disc metric upper
  bound along [x, x + w] with its rounding allowance, in closed form on
  polyhedra, or None (the distance then takes a quadrature);
* ``distance_lower_bound(x, w, stream)``: a certified lower bound of the
  distance from x to x + w from projections onto a polyhedron's faces' discs
  and half-planes, or onto a gauge body's supporting half-spaces;
* ``contains_margins(Z)`` and ``coordinate_bounds()``;
* ``gauge(v)``: the Minkowski gauge of a kind balanced about 0, on one
  vector or row-wise on a stack, or None;
* ``interior_samples(count, stream)``: ``count`` interior points drawn from
  ``stream``;
* for the squeeze radii, ``inner_radius_exact(x, model)`` on the domain, and
  ``linear_sup(coeffs)`` and ``outer_radius_bound(domain, x)`` on the model;
* ``automorphism(frm, to)``: one of the domain sending frm to to, a
  ``ComposedMap`` with exact derivatives, on the ball, on products and on
  their affine images (checked by ``model_automorphism``).

Every distance takes a segment as its start x and offset w, so a separation
far below the rounding of x's coordinates survives.
``AffineImage`` pulls points back to its inner domain, and directions and
offsets through the linear part alone.  A nonzero direction row whose squared
norm underflows (so |V[i]| rounds to 0) is the caller's to rescale: the
oracles take |V[i]| as given.  The entry points of ``metrics`` scale such
rows by a power of two and the bounds back, exactly.

A gauge body's bracket rows do not depend on their batch, bit for bit, if the
gauge rounds a row alike in every stack.  ``ConvexPolyhedron`` rows may, from
C^2 up: BLAS takes a one-row product as zgemv, not a many-row zgemm.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .automorphisms import ComponentwiseMap, ComposedMap, Mobius1D, ball_move
from .core import AffineMap, CLinearMap, call_rowwise, cvector
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NotInteriorError,
    SingularMapError,
    SpecLoadError,
    UnsupportedKindError,
)
from .sampling import SampleStream, root_directions, row_norms, vector_norms


@dataclass(frozen=True)
class MetricForm:
    """K(x; .) at one point x in closed form.

    ``hermitian``: K(x; v)^2 = v* Q v with Q = ``matrix`` positive definite;
    otherwise K(x; v) = max_k |matrix[k] . v| over the rows of ``matrix``.
    """

    matrix: np.ndarray
    hermitian: bool

    def pulled_back(self, M) -> "MetricForm":
        """The form of v -> K(x; M v)."""
        if self.hermitian:
            return MetricForm(M.conj().T @ self.matrix @ M, True)
        return MetricForm(self.matrix @ M, False)

    @property
    def volume(self) -> float:
        """Euclidean volume of the unit ball {K(x; .) < 1} in C^n = R^{2n}:
        pi^n / (n! det Q), or pi^n / |det A|^2 for n rows A (the image of the
        unit polydisc under A^{-1})."""
        n = self.matrix.shape[1]
        if self.hermitian:
            return math.pi ** n / (math.factorial(n) * float(np.linalg.det(self.matrix).real))
        return math.pi ** n / float(abs(np.linalg.det(self.matrix))) ** 2


class Domain:
    """Common interface; concrete kinds override the oracles they support."""

    dim: int
    bounding_radius: float
    basepoint: np.ndarray
    # the method tag of a bracket's lower side where the kind has no closed form
    lower_method: str
    is_product = False  # a table of n independent faces (``ConvexPolyhedron``)

    @property
    def label(self) -> str:
        """The domain's name, else its kind."""
        return getattr(self, "name", "") or type(self).__name__

    # -- membership -------------------------------------------------------
    def contains(self, z) -> float:
        """Signed gauge-like margin: positive inside, negative outside."""
        return float(self.contains_margins(self._check_dim(z)))

    def contains_margins(self, Z):
        """Vectorized margins for a stack of points (..., n)."""
        raise NotImplementedError

    def require_interior(self, z, what: str = "point"):
        if self.contains(z) <= 0:
            raise NotInteriorError(f"{what} is not in the domain interior")

    # -- the row-paired protocol: row i is P[i] with direction V[i] --------
    def metric_paired(self, P, V):
        """Closed-form K(P[i]; V[i]) per row, or None when the kind has none."""
        return None

    def metric_form(self, x):
        """K(x; .) at the point x as a ``MetricForm``, or None when the kind
        has no closed form."""
        return None

    def metric_pullback(self, P, V):
        """(self, P, V): the metric oracles answer these rows themselves."""
        return self, P, V

    def section_distance_paired(self, P, V):
        """Euclidean distance from P[i] to the boundary of the planar section
        Omega intersect (P[i] + C V[i]), per row."""
        raise NotImplementedError

    def section_distance_along(self, x, W, T):
        """Section distance at x + T[i, j] W[i] along W[i], of shape T.shape
        (rays W of shape (rows, n), nodes T of shape (rows, nodes)): the rows
        of ``section_distance_paired`` on the points of rays from x."""
        W = np.asarray(W, dtype=complex)
        T = np.asarray(T, dtype=float)
        P = x + T[:, :, None] * W[:, None, :]
        V = np.broadcast_to(W[:, None, :], P.shape)
        return self.section_distance_paired(P.reshape(-1, self.dim),
                                            V.reshape(-1, self.dim)).reshape(T.shape)

    def bracket_paired(self, P, V, stream: SampleStream | None = None):
        """Certified (lower, upper) bounds of K(P[i]; V[i]) per row, any
        samples drawn from ``stream``; here the closed form on both sides."""
        exact = self.metric_paired(P, V)
        if exact is None:
            raise NotImplementedError
        return exact, exact

    def coordinate_bounds(self):
        """Certified per-coordinate sup |z_alpha| over the domain, or None."""
        if np.isfinite(self.bounding_radius):
            return np.full(self.dim, self.bounding_radius)
        return None

    # -- squeeze radii ------------------------------------------------------
    def inner_radius_exact(self, x, model: "Domain"):
        """Largest r with x + r * model inside the domain, by exact arithmetic,
        or None."""
        return None

    def linear_sup(self, coeffs):
        """As a model: exact sup of |c . w| over the closed unit body for each
        row c of ``coeffs``, or None."""
        return None

    def outer_radius_bound(self, domain: "Domain", x):
        """As a model: certified sup of the gauge of z - x over z in ``domain``,
        with its method tag."""
        raise UnsupportedKindError(
            f"no certified outer radius for model {type(self).__name__}")

    def automorphism(self, frm, to):
        """An automorphism of the domain sending the interior point ``frm`` to
        ``to``, with exact derivatives (``model_automorphism`` checks both)."""
        raise UnsupportedKindError(f"no automorphism model for {self.label}")

    # -- the other closed forms and the distance's lower side ---------------
    def distance_value(self, x, y):
        return None

    def distance_radii(self, x, U, T):
        """Per ray U[i] from x, the t at which ``distance_value(x, t U[i])``
        is T[i] >= 0, its only root, as distance balls are convex; or None."""
        return None

    def affine_disc_length(self, x, w):
        """The integral over t in [0, 1] of |w| / (section distance at x + t w
        along w) in closed form: the affine-disc upper bound of the distance
        from x to x + w, as (length, rounding) with the exact integral within
        ``rounding`` of ``length``, or None when the kind has no closed form."""
        return None

    def distance_lower_bound(self, x, w, stream: SampleStream | None = None) -> float:
        """Certified lower bound of the distance from x to x + w, any samples
        drawn from ``stream``, for kinds without a closed-form distance."""
        raise NotImplementedError

    def gauge(self, v):
        """Minkowski gauge for balanced kinds centered at 0; None otherwise."""
        return None

    # -- sampling -----------------------------------------------------------
    def interior_samples(self, count: int, stream: SampleStream):
        raise NotImplementedError

    def _check_dim(self, z):
        z = np.asarray(z, dtype=complex)
        if z.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected vectors of length {self.dim}, got {z.shape[-1]}")
        return z


def _read_only(a):
    """``a``, marked read-only: a domain is a value that callers share (the
    zoo keeps one per name per process), so each kind marks what it stores."""
    a.setflags(write=False)
    return a


def _face_disc(t, S, B):
    """The face-disc metric rate / (S (2 - S B)) of faces with rates t,
    slacks S and constants B (``ConvexPolyhedron``), broadcast; t = 1 gives
    its factor on the rate."""
    den = S * B
    np.subtract(2.0, den, out=den)
    den *= S
    return t / den


def _half_plane_distances(w1, dw, b):
    """atanh|dw / (2 (Re w1 - b) + dw)|, the distance between w1 and w1 + dw
    in the half-plane Re w < b, per entry; 0 where they are not both inside
    it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.abs(dw / (2.0 * (w1.real - b) + dw))
    return np.arctanh(np.where(t < 1.0, t, 0.0))


class UnitBall(Domain):
    """Open Euclidean unit ball in C^n."""

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
        self.dim = int(dim)
        self.bounding_radius = 1.0
        self.basepoint = _read_only(np.zeros(self.dim, dtype=complex))

    def contains_margins(self, Z):
        return 1.0 - np.linalg.norm(np.asarray(Z, dtype=complex), axis=-1)

    @staticmethod
    def _slack(P):
        """1 - |p|^2 over the last axis; raises unless every point is inside."""
        s2 = 1.0 - np.sum(np.abs(P) ** 2, axis=-1)
        if np.any(s2 <= 0):
            raise NotInteriorError("point outside the ball")
        return s2

    def _in_row_blocks(self, rows_form, P, V):
        """rows_form(P, V, slacks 1 - |p|^2), taken over blocks of at most
        ``_ROW_BLOCK`` rows of V, P one row shared by every row of V or a row
        per row: each row's sums are its own, so the blocks change no bit.
        The row forms hold conj(P) by name, as numpy would multiply a large
        temporary in place, conj(P) * V, which rounds apart from V * conj(P).
        Raises unless every point is inside."""
        S, shared = self._slack(P), len(P) != len(V)
        out = np.empty(len(V))
        for start in range(0, len(V), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            own = slice(None) if shared else rows
            out[rows] = rows_form(P[own], V[rows], S[own])
        return out

    @staticmethod
    def _metric_rows(P, V, s2):
        nv2 = np.sum(np.abs(V) ** 2, axis=1)
        Pc = P.conj()
        c2 = np.abs(np.sum(V * Pc, axis=1)) ** 2
        return np.sqrt(s2 * nv2 + c2) / s2

    def metric_paired(self, P, V):
        """K(p; v) = sqrt(s |v|^2 + |<v, p>|^2) / s with s = 1 - |p|^2: the
        batched value of ``metric_form``'s v* Q v, which it must agree with."""
        return self._in_row_blocks(self._metric_rows, P, V)

    def metric_form(self, x):
        x = self._check_dim(cvector(x))
        s2 = self._slack(x)
        Q = (s2 * np.eye(self.dim) + np.outer(x, x.conj())) / (s2 * s2)
        return MetricForm(Q, True)

    @staticmethod
    def _section_rows(P, V, r2):
        nv = row_norms(V)
        Pc = P.conj()
        c = np.abs(np.sum(V * Pc, axis=1))
        return (np.sqrt(c * c + r2 * nv * nv) - c) / nv

    def section_distance_paired(self, P, V):
        return self._in_row_blocks(self._section_rows, P, V)

    def inner_radius_exact(self, x, model):
        """1 - |x| for the ball as model.  For a model with ``linear_sup``, the
        root r > 0 of sum (|x_a| + r R_a)^2 = 1, R_a = sup |w_a| over it: a
        lower bound, as |x_a + r w_a| <= |x_a| + r R_a, exact on a polydisc."""
        if isinstance(model, UnitBall):
            return float(1.0 - np.linalg.norm(x))
        R = model.linear_sup(np.eye(self.dim))
        if R is not None:
            a = float(R @ R)
            b = float(np.abs(x) @ R)
            c = float(np.linalg.norm(x) ** 2 - 1.0)
            return (-b + math.sqrt(b * b - a * c)) / a
        return None

    def linear_sup(self, coeffs):
        return np.linalg.norm(coeffs, axis=1)

    def outer_radius_bound(self, domain, x):
        if np.isfinite(domain.bounding_radius):
            return float(domain.bounding_radius + np.linalg.norm(x)), "norm-bound"
        return super().outer_radius_bound(domain, x)

    def distance_value(self, x, w):
        """atanh |phi_x(x + w)| for the automorphism phi_x taking x to 0:
        phi_x(x + w) = -(P w + s Q w) / (s^2 - <w, x>), with s^2 = 1 - |x|^2,
        P the projection onto x and Q = 1 - P, so |phi_x(x + w)| is
        sqrt(s^2 |w|^2 + |<w, x>|^2) / |s^2 - <w, x>|.  The norms are taken
        by hypot, so an offset whose |w|^2 underflows keeps its size."""
        x = self._check_dim(cvector(x))
        w = np.asarray(w, dtype=complex)
        s2 = self._slack(x)
        c = w @ x.conj()
        t = np.hypot(math.sqrt(s2) * np.hypot.reduce(np.abs(w), axis=-1), np.abs(c))
        return np.arctanh(np.clip(t / np.abs(s2 - c), 0.0, 1.0 - 1e-16))

    def distance_radii(self, x, U, T):
        """``distance_value``'s equation |phi_x(x + t u)| = tanh T, with
        s^2 = 1 - |x|^2 and g = <u, x>: (s^2 |u|^2 + |g|^2) t^2 = tanh^2 T
        |s^2 - t g|^2."""
        x = self._check_dim(cvector(x))
        s2, g = self._slack(x), U @ x.conj()
        return _ray_roots(s2 * np.sum(np.abs(U) ** 2, axis=1) + np.abs(g) ** 2, s2, g, T)

    def gauge(self, v):
        v = np.asarray(v, dtype=complex)
        return np.linalg.norm(v, axis=-1)

    def automorphism(self, frm, to):
        return ball_move(frm, to)

    def interior_samples(self, count, stream: SampleStream):
        u = stream.unit_directions(count, self.dim)
        # radius ~ t^{1/2n} gives the uniform volume law on the 2n-real-dim ball
        t = stream.uniform(count) ** (1.0 / (2 * self.dim))
        return u * t[:, None]


class ConvexPolyhedron(Domain):
    """Intersection of modulus faces |F_k(z)| < c_k and real faces Re F_k(z) < b_k,
    built from its face table.

    The table is three arrays, modulus faces first: ``coeffs`` of shape
    (faces, n), ``consts`` and ``bounds``.  Face k takes
    F_k(z) = z . coeffs[k] + consts[k] and allows |F_k| < bounds[k] for
    k < ``modulus_count`` and Re F_k < bounds[k] after that.  The constructor
    checks the shapes, that no row is zero, that every modulus bound is
    positive and that the basepoint (0 by default) is interior, and divides
    each real row, its const and its bound by |coeffs[k]|: a real face
    Re<z, a> < b is held as conj(a) / |a|, 0 and b / |a|.  ``face_norms``
    divides a face's slack into a membership margin: |coeffs[k]| on modulus
    faces and 1 on real faces.  Every oracle reads the table through
    ``face_values`` and ``slacks``.  Convexity holds automatically;
    boundedness is declared (``bounding_radius``), not inferred.

    The metric's lower side is the face-disc projection: with slack
    S = c - |f(x)|, c = bounds[k], and rate |f_lin(v)|, a modulus face gives
    rate / (S (2 - S B)), B = 1 / c, which is c |f_lin v| / (c^2 - |f(x)|^2),
    the metric of the disc |f| < c; a real face gives the half-plane metric
    rate / (2 S), the same formula with B = 0.  The constructor derives
    ``is_product``: a table of n faces with independent rows is an affine
    product of discs and half-planes, whose metric is the maximum over faces.
    So is a hidden product.  ``_search`` takes as S the n faces of an n-face
    table, else the n modulus faces of least product volume
    prod c_k^2 / |det F_S|^2 (of at most ``_SEARCH_CAP`` subsets), as every
    such product contains the body; S needs n eps kappa < 1, kappa the
    infinity-norm condition number of F_S.  Face j = sum_k beta_jk f_k +
    gamma_j, beta_j = a_j F_S^-1, is redundant when |gamma_j| +
    sum_k |beta_jk| c_k, its supremum there (Re gamma_j + ... on a real
    face), plus 8 n eps kappa (|consts_j| + sum_k |beta_jk| (c_k + |consts_k|)),
    for beta's error and the sums' rounding, is below its bound; a tangent
    face, whose supremum is its bound, never is.  ``metric_paired``,
    ``bracket_paired``, ``distance_value`` and ``distance_radii`` take all
    faces, as a redundant one's value is below the product's; ``metric_form``
    (so its volume and the stretching frame), ``automorphism``, the sampler
    and the squeeze model's radii read S's rows, in w = F_S(z).  On any other
    table each modulus face's B is (1 - 4 eps) / c, which divides its value
    by 1 + 4 eps s / (2 - s), s = S / c.  A face's value is
    rate / S / (2 - s) against the upper side's at least rate / S, so the two
    sides can meet only at s = 1, as both are the gauge at the centre of a
    balanced body; there the allowance is 4 eps, which covers the roundings
    by which their formulas part, to first order.  The rounding of the face
    values and slacks, which both sides read, is not covered.
    """

    lower_method = "face-disc"

    def __init__(self, coeffs, consts, bounds, modulus_count, bounding_radius,
                 basepoint=None, name: str = ""):
        coeffs = np.array(coeffs, dtype=complex)
        consts = np.array(consts, dtype=complex)
        bounds = np.array(bounds, dtype=float)
        mc = int(modulus_count)
        if bounding_radius is None:
            raise DegenerateInputError("polyhedron requires a declared bounding radius")
        if (coeffs.ndim != 2 or coeffs.shape[1] < 1 or consts.shape != coeffs.shape[:1]
                or bounds.shape != consts.shape or not 0 <= mc <= bounds.size):
            raise DimensionMismatchError("face table shapes do not match")
        if not bounds.size:
            raise DegenerateInputError("polyhedron needs at least one face")
        norms = np.linalg.norm(coeffs, axis=1)
        if mc < norms.size:
            # a real row's norm as one vector's, which rounds apart from the
            # row-wise form
            norms[mc:] = vector_norms(coeffs[mc:])
        if not ((norms > 0).all() and (bounds[:mc] > 0).all()):
            raise DegenerateInputError("every face needs nonzero coefficients "
                                       "and every modulus face a positive bound")
        if mc < norms.size:
            coeffs[mc:] /= norms[mc:, None]
            consts[mc:] /= norms[mc:]
            bounds[mc:] /= norms[mc:]
            norms[mc:] = 1.0
        n = coeffs.shape[1]
        subset, product = self._search(mc, coeffs, consts, bounds)
        self._fill(coeffs, consts, bounds, mc, norms, bounding_radius,
                   np.zeros(n, dtype=complex) if basepoint is None else cvector(basepoint).copy(),
                   name, subset, product)
        if not (self.slacks(self._check_dim(self.basepoint)) > 0).all():
            raise NotInteriorError("declared basepoint is not interior")

    @staticmethod
    def _search(mc, coeffs, consts, bounds):
        """(S or None, is_product) of the table (see the class docstring)."""
        n, eps = coeffs.shape[1], np.finfo(float).eps
        k = n if bounds.size == n else mc     # the faces S is drawn from
        if k < n or math.comb(k, n) > _SEARCH_CAP:
            return None, False
        subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(k), n)),
                              np.intp).reshape(-1, n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            size = bounds[subsets].prod(axis=1) / np.abs(np.linalg.det(coeffs[subsets]))
            S = subsets[size.argmin()]
            Finv = np.linalg.inv(coeffs[S]) if np.isfinite(size.min()) else np.full((n, n), np.inf)
            kappa = np.abs(coeffs[S]).sum(axis=1).max() * np.abs(Finv).sum(axis=1).max()
            if not n * eps * kappa < 1.0:
                return None, False
            R = np.delete(np.arange(bounds.size), S)
            beta = coeffs[R] @ Finv
            ab, c, gamma = np.abs(beta), bounds[S], consts[R] - beta @ consts[S]
            sup = ab @ c + np.where(R < mc, np.abs(gamma), gamma.real)
            terms = np.abs(consts[R]) + ab @ (c + np.abs(consts[S]))
            return S, bool(np.all(sup + 8.0 * n * eps * kappa * terms < bounds[R]))

    def _fill(self, coeffs, consts, bounds, modulus_count, face_norms, bounding_radius,
              basepoint, name, subset, product):
        """Set the table and the domain's fields as given, unchecked and made
        read-only, S as ``subset``, and each face's face-disc constant B
        (``_face_disc``): 1 / c on a modulus face, times 1 - 4 eps off a
        product, 0 on a real face."""
        for a in (coeffs, consts, bounds, face_norms, basepoint, subset):
            if a is not None:
                _read_only(a)
        self.coeffs, self.consts, self.bounds = coeffs, consts, bounds
        self.modulus_count, self.face_norms, self.dim = modulus_count, face_norms, coeffs.shape[1]
        self.bounding_radius, self.basepoint, self.name = float(bounding_radius), basepoint, name
        self._subset, self.is_product = subset, bool(product)
        self._disc_b = np.zeros(bounds.size)
        np.divide(1.0 if product else 1.0 - 4.0 * np.finfo(float).eps,
                  bounds[:modulus_count], out=self._disc_b[:modulus_count])
        _read_only(self._disc_b)

    @functools.cached_property
    def _factors(self):
        """The faces S alone, a product table: this one when S is every face."""
        S = self._subset
        if S is None or S.size == self.bounds.size:
            return None if S is None else self
        d = object.__new__(ConvexPolyhedron)
        d._fill(self.coeffs[S], self.consts[S], self.bounds[S], S.size, self.face_norms[S],
                self.bounding_radius, self.basepoint, self.name, np.arange(S.size), True)
        return d

    def face_values(self, z):
        """F_k(z) of every face, of shape (..., faces), for z of shape (..., n)."""
        return np.asarray(z, dtype=complex) @ self.coeffs.T + self.consts

    def slacks(self, z):
        """bounds - |F| on the modulus faces and bounds - Re F on the real
        faces, of shape (..., faces): positive exactly inside each face."""
        F = self.face_values(z)
        mc = self.modulus_count
        S = np.abs(F) if mc == F.shape[-1] else F.real.copy()
        if 0 < mc < S.shape[-1]:
            np.abs(F[..., :mc], out=S[..., :mc])
        return np.subtract(self.bounds, S, out=S)

    def contains_margins(self, Z):
        S = self.slacks(Z)
        S /= self.face_norms
        return np.minimum.reduce(S, axis=-1)

    def _rate_blocks(self, P, V):
        """(rows, |V[rows]|, slacks, rates) per block of at most
        ``_ROW_BLOCK`` rows: the row norms by ``row_norms`` (numpy's bits, in
        column passes), the slacks of the block's points, taken once when P
        is one row shared by every row of V, and the rates |f_lin(V[i])|.
        Both are face-major, (faces, rows), so a reduction over the faces runs
        elementwise along the rows rather than row by row.  The rates are the
        row-major product V @ coeffs.T, transposed: the face-major product
        coeffs @ V.T rounds a stack of a few rows apart from a tall one.
        Raises NotInteriorError unless every slack is > 0."""
        shared = len(P) != len(V)
        for start in range(0, len(V), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            if not (shared and start):
                S = self.slacks(P if shared else P[rows])
                if not np.all(S > 0):
                    raise NotInteriorError("point outside the polyhedron")
                S = np.ascontiguousarray(S.T)
            yield (rows, row_norms(V[rows]), S,
                   np.ascontiguousarray(np.abs(V[rows] @ self.coeffs.T).T))

    @staticmethod
    def _section(nv, S, t):
        """|V[i]| min over faces of slack / rate, from nv = |V[i]| and
        face-major S and t: the section is cut by each face at that distance
        from its point or further, and a face with rate 0 never meets it
        (slack / 0 = inf, as every slack is > 0; so does a face whose
        slack / rate overflows).  Divides in place on the rates t."""
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(S, t, out=t)
        return nv * t.min(axis=0)

    def section_distance_paired(self, P, V):
        out = np.empty(len(V))
        for rows, nv, S, t in self._rate_blocks(P, V):
            out[rows] = self._section(nv, S, t)
        return out

    def section_distance_along(self, x, W, T):
        """Closed form along rays: each face is affine on a ray,
        f(x + t w) = f(x) + t f_lin(w), so f(x) and f_lin(W) are taken once
        and a node costs one multiply-add per face.  The faces are taken one
        at a time into a running minimum, each in place on one (rows, nodes)
        buffer, so the temporaries do not grow with the face count; a real
        face needs only the real part of its values."""
        W = np.asarray(W, dtype=complex)
        T = np.asarray(T, dtype=float)
        B = self.coeffs @ W.T
        Fx = self.face_values(x)
        per, reach, F = np.full(T.shape, np.inf), np.empty(T.shape), np.empty(T.shape, complex)
        for k, (b, f) in enumerate(zip(B, Fx)):
            if k < self.modulus_count:
                np.multiply(T, b[:, None], out=F)
                F += f
                np.abs(F, out=reach)
            else:
                np.multiply(T, b.real[:, None], out=reach)
                reach += f.real
            np.subtract(self.bounds[k], reach, out=reach)
            # a face with f_lin(w) = 0 never meets the ray's section: slack / 0 = inf;
            # nor does one whose slack / f_lin(w) overflows
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.divide(reach, np.abs(b)[:, None], out=reach)
            np.minimum(per, reach, out=per)
        # a node on or outside a face has slack <= 0, so per <= 0 or nan
        if not np.all(per > 0):
            raise NotInteriorError("point outside the polyhedron")
        return row_norms(W)[:, None] * per

    def metric_paired(self, P, V):
        """On a product, the largest face-disc metric; else None.  A
        product's arrays are the size of V, so it takes no row blocks."""
        if not self.is_product:
            return None
        S = self.slacks(P)
        if not S.min() > 0:
            raise NotInteriorError("point outside the polyhedron")
        return _face_disc(np.abs(V @ self.coeffs.T), S, self._disc_b).max(axis=1)

    def metric_form(self, x):
        """On a product, K(x; v) = max_k |a_k . v| over the faces S, with
        a_k = coeffs[k] times the face-disc factor at x; else None."""
        if not self.is_product:
            return None
        d = self._factors
        S = d.slacks(self._check_dim(cvector(x)))
        if not S.min() > 0:
            raise NotInteriorError("point outside the polyhedron")
        return MetricForm(d.coeffs * _face_disc(1.0, S, d._disc_b)[:, None], False)

    def bracket_paired(self, P, V, stream=None):
        """Lower: the largest face-disc metric (allowance included).  Upper:
        |V[i]| / the section distance.  Both read one block's slacks and
        rates.  A product answers its closed form on both sides."""
        if self.is_product:
            return super().bracket_paired(P, V)
        lower, upper = np.empty(len(V)), np.empty(len(V))
        for rows, nv, S, t in self._rate_blocks(P, V):
            lower[rows] = _face_disc(t, S, self._disc_b[:, None]).max(axis=0)
            upper[rows] = nv / self._section(nv, S, t)
        return lower, upper

    def _line_faces(self, x, u):
        """The faces in the coordinate s of the complex line x + s u, |u| = 1:
        modulus face k allows the disc |s - tau_k| < R_k, tau_k = p_k + i q_k
        with q_k >= 0, and real face k a half-plane, so at real s their slacks
        are R_k - |s - tau_k| and alpha_k - gamma_k s, with |gamma_k| <= 1.
        A face constant on the line (f_lin(u) = 0, or subnormal, so that its
        disc or half-plane overflows) bounds no section of the bounded body
        and is left out.  Returns (R, p, q, alpha, gamma)."""
        B = self.coeffs @ u
        F = self.face_values(x)
        aB = np.abs(B)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tau, R, alpha = -F / B, self.bounds / aB, (self.bounds - F.real) / aB
        modulus = np.arange(B.size) < self.modulus_count
        mod, real = modulus & np.isfinite(tau) & np.isfinite(R), ~modulus & np.isfinite(alpha)
        return R[mod], tau[mod].real, np.abs(tau[mod].imag), alpha[real], B[real].real / aB[real]

    def affine_disc_length(self, x, w):
        """Closed form in the arc length s on [0, |w|] of the line from x
        along w: the section distance at s is min_k d_k(s) over the slacks
        of ``_line_faces``, and between two parameters where the smallest
        slack may change face the integrand is 1 / d_k of one face, with an
        antiderivative in closed form (``_disc_antiderivative``, or a
        logarithm for a real face).  Arc length keeps the face data the size
        of the domain however short the segment.

        Each piece [a, b] gets a certified bracket: its closed form I_k plus
        or minus r_k, which bounds the rounding of the terms summed (each
        moves by about eps times its size) and of the face data (a relative
        eps moves I_k by at most about eps m_k (g(a) + g(b) + max(g(a),
        g(b)) I_k), with g = 1 / d_k convex on the piece, so that the
        integral of g^2 is at most max g times I_k, and m_k the face's
        magnitude 1 + |p_k| + q_k + R_k or 1 + |alpha_k| + |gamma_k|),
        intersected with the convexity bracket (b - a) g(mid) <= I_k <=
        (b - a) (g(a) + g(b)) / 2, each g good to about eps m_k g.  The
        second is the tighter on a piece much shorter than the domain, where
        the closed form cancels most of its digits.  ``length`` and
        ``rounding`` are the centre and half-width of the sum.  Against
        40-digit quadrature the error stays below ``rounding``, and below a
        hundredth of it on random polyhedra's segments across the domain."""
        x = np.asarray(x, dtype=complex)
        w = np.asarray(w, dtype=complex)
        L, e = float(np.linalg.norm(w)), 0
        if L == 0.0 and w.any():
            # |w|^2 underflows: w / L from w scaled by a power of two, exactly
            e = int(np.frexp(np.abs(w).max())[1])
            w = np.ldexp(w.view(float), -e).view(complex)
            L = float(np.linalg.norm(w))
        if L == 0.0:
            return 0.0, 0.0
        R, p, q, alpha, gamma = self._line_faces(x, w / L)
        L = math.ldexp(L, e)
        nd = R.size
        if nd + alpha.size == 0:
            return 0.0, 0.0
        # a repeated parameter makes a piece of width 0, whose bracket is [0, 0]
        T = np.sort(np.concatenate([[0.0, L], _slack_crossings(R, p, q, alpha, gamma, L)]))
        mid = 0.5 * (T[:-1] + T[1:])[:, None]
        D = np.concatenate([R - np.hypot(mid - p, q), alpha - gamma * mid], axis=1)
        face = D.argmin(axis=1)
        ends = np.stack([T[:-1], T[1:]])     # each piece's start over its end
        # per piece: the integral, the size of its terms, the face's
        # magnitude and the slack at both ends
        value, size, magnitude = (np.empty(face.size) for _ in range(3))
        slack = np.empty(ends.shape)
        on = face < nd
        if on.any():
            k = face[on]
            U = ends[:, on] - p[k]
            F, terms = _disc_antiderivative(U, R[k], q[k])
            value[on], size[on] = F[1] - F[0], terms.sum(axis=0)
            magnitude[on] = 1.0 + np.abs(p[k]) + q[k] + R[k]
            slack[:, on] = R[k] - np.hypot(U, q[k])
        if not on.all():
            k = face[~on] - nd
            t = ends[:, ~on]
            al, ga = alpha[k], gamma[k]
            slack[:, ~on] = al - ga * t
            with np.errstate(divide="ignore", invalid="ignore"):
                v = np.where(ga == 0, (t[1] - t[0]) / al,
                             np.log1p(ga * (t[1] - t[0]) / slack[1, ~on]) / ga)
            value[~on], size[~on] = v, np.abs(v)
            magnitude[~on] = 1.0 + np.abs(al) + np.abs(ga)
        if not ((slack > 0).all() and np.isfinite(value).all()):
            raise NotInteriorError("segment leaves the polyhedron")
        eps = np.finfo(float).eps
        g, gm = 1.0 / slack, 1.0 / D.min(axis=1)
        r = 16.0 * eps * (size + magnitude * (g.sum(axis=0) + g.max(axis=0) * np.abs(value)))
        h = ends[1] - ends[0]
        e = 16.0 * eps * (1.0 + magnitude * np.maximum(g.max(axis=0), gm))
        lo = np.maximum(value - r, h * gm * (1.0 - e))
        hi = np.minimum(value + r, 0.5 * h * (g[0] + g[1]) * (1.0 + e))
        return 0.5 * math.fsum(lo + hi), float(0.5 * (hi - lo).sum() + 4.0 * eps * hi.sum())

    def _face_distances(self, x, W):
        """max over faces of the distance between the face images of x and
        x + W[i], per row of W (or of one offset W).  A modulus face maps
        the polyhedron into the disc |f| < c, where f = f(x) and f + d,
        d = f_lin(w), are atanh(c |d| / |c^2 - |f|^2 - conj(f) d|) apart (d
        read from w, which a difference of face values could round away), 0
        where that rounds to 1 or more; a real face maps it into the
        half-plane Re F < bound."""
        F = self.face_values(x)
        dF = np.asarray(W, dtype=complex) @ self.coeffs.T
        mc = self.modulus_count
        c, f, d = self.bounds[:mc], F[:mc], dF[..., :mc]
        t = c * np.abs(d) / np.abs((c * c - np.abs(f) ** 2) - f.conj() * d)
        dist = np.arctanh(np.where(t < 1.0, t, 0.0)).max(axis=-1, initial=0.0)
        if mc < self.bounds.size:
            # skipped without real faces: on empty arrays the helper costs
            # about a tenth of a polyhedron distance
            dist = np.maximum(dist, _half_plane_distances(
                F[mc:], dF[..., mc:], self.bounds[mc:]).max(axis=-1))
        return dist

    def distance_value(self, x, w):
        """On a product, the largest face distance, from x to x + w or to
        x + W[i] for each row of a stack W; else None."""
        if not self.is_product:
            return None
        return self._face_distances(self._check_dim(cvector(x)), w)

    def distance_radii(self, x, U, T):
        """On a product, the least over faces of the root of the face's
        ``_face_distances`` equation, else None: with f = f(x), b = f_lin(u),
        c^2 |b|^2 t^2 = tanh^2 T |c^2 - |f|^2 - t conj(f) b|^2 on a modulus
        face, and |b|^2 t^2 = tanh^2 T |2 s - t b|^2 on a real one of slack s."""
        if not self.is_product:
            return None
        F, B = self.face_values(self._check_dim(cvector(x))), U @ self.coeffs.T
        mc = self.modulus_count
        c, G, A = self.bounds.copy(), F.conj(), 2.0 * (self.bounds - F.real)
        c[mc:], G[mc:] = 1.0, 1.0
        A[:mc] = c[:mc] ** 2 - np.abs(F[:mc]) ** 2
        return _ray_roots(np.abs(c * B) ** 2, A, G * B, T[:, None]).min(axis=1)

    def distance_lower_bound(self, x, w, stream=None):
        """The largest face distance.  Each tangent half-space of a modulus
        face contains its disc, so this is at least the bound of the faces'
        tangent half-spaces, drawing none."""
        return float(self._face_distances(x, w))

    def inner_radius_exact(self, x, model):
        S = model.linear_sup(self.coeffs)
        if S is None:
            return None
        return float(np.min(self.slacks(x) / S))

    @property
    def _balanced_product(self):
        d = self._factors
        return self.is_product and d.modulus_count == self.dim and not d.consts.any()

    def linear_sup(self, coeffs):
        """On a balanced product, |C F_S^-1| @ c_S, as w = F_S^-1 u with u over
        the polydisc |u_k| <= c_k of its faces S; else None."""
        if self._balanced_product:
            return np.abs(coeffs @ np.linalg.inv(self._factors.coeffs)) @ self._factors.bounds
        return None

    def outer_radius_bound(self, domain, x):
        """On a balanced product, max_k |a_k| @ (cb + |x|) / bounds[k] over its
        faces S, with a_k = coeffs[k] and cb the domain's ``coordinate_bounds``,
        which bounds |a_k . (z - x)| / bounds[k] over the domain."""
        cb = domain.coordinate_bounds()
        if cb is None or not self._balanced_product:
            return super().outer_radius_bound(domain, x)
        d = self._factors
        return (float(np.max((np.abs(d.coeffs) @ (cb + np.abs(x))) / d.bounds)),
                "coordinate-bounds")

    def automorphism(self, frm, to):
        """On a product, A^-1 psi A, A the map z -> F_S(z) of its faces S and
        psi the componentwise move of each face's disc |w| < c or half-plane
        Re w < b."""
        if not self.is_product:
            return super().automorphism(frm, to)
        d = self._factors
        A = AffineMap(d.coeffs, d.consts)
        p, q = A(frm), A(to)
        mc = d.modulus_count
        psi = [(Mobius1D.disc_move if k < mc else Mobius1D.halfplane_move)(p[k], q[k], b)
               for k, b in enumerate(d.bounds)]
        return ComposedMap([A, ComponentwiseMap(psi), A.inverse()])

    def coordinate_bounds(self):
        """Per-coordinate sup |z_alpha| upper bounds from the const-0 modulus
        faces on a single coordinate, or None on an unbounded table."""
        if not np.isfinite(self.bounding_radius):
            return None
        bounds = np.full(self.dim, self.bounding_radius)
        mc = self.modulus_count
        on = np.abs(self.coeffs[:mc]) > 0
        single = (on.sum(axis=1) == 1) & (self.consts[:mc] == 0)
        k = on[single].argmax(axis=1)
        np.minimum.at(bounds, k, self.bounds[:mc][single] / np.abs(self.coeffs[:mc][single, k]))
        return bounds

    def gauge(self, v):
        """Minkowski gauge when every face is balanced (modulus faces, const 0)."""
        if self.modulus_count < self.bounds.size or np.any(self.consts != 0):
            return None
        v = np.asarray(v, dtype=complex)
        return np.max(np.abs(v @ self.coeffs.T) / self.bounds, axis=-1)

    def interior_samples(self, count, stream: SampleStream):
        """On a product, drawn in the face coordinates w = F_S(z) of its faces
        S and mapped back by one solve: phase * sqrt(U) * c on a modulus face
        (uniform on its disc), b - e^U(-2, 2) + i tan U(-1.2, 1.2) on a real
        face.  Otherwise rejection from the polydisc of S drawn so, or without
        S from the box of ``coordinate_bounds``, in batches of at least 64."""
        d = self._factors
        if d is None:
            cb = self.coordinate_bounds()
            if cb is None:
                raise DegenerateInputError("interior sampling needs a bounded polyhedron")
            d = polydisc(cb)
        if self.is_product:
            mc, real = d.modulus_count, (count, self.dim - d.modulus_count)
            W = np.empty((count, self.dim), dtype=complex)
            if mc:
                ph = stream.phases((count, mc))
                W[:, :mc] = ph * np.sqrt(stream.uniform((count, mc))) * d.bounds[:mc]
            if real[1]:
                h = np.exp(stream.uniform(real, -2.0, 2.0))
                W[:, mc:] = d.bounds[mc:] - h + 1j * np.tan(stream.uniform(real, -1.2, 1.2))
            return np.linalg.solve(d.coeffs, (W - d.consts).T).T
        out = np.empty((count, self.dim), dtype=complex)
        have = 0
        attempts = 0
        while have < count:
            attempts += 1
            if attempts > 2000:
                raise DegenerateInputError("interior sampling starved; check faces "
                                           "and bounding radius")
            Z = d.interior_samples(max(count - have, 64), stream)
            ok = self.contains_margins(Z) > 0
            take = Z[ok][: count - have]
            out[have:have + take.shape[0]] = take
            have += take.shape[0]
        return out


def _slack_crossings(R, p, q, alpha, gamma, L):
    """The parameters s in (0, L) where the slacks of two faces of
    ``_line_faces`` may be equal.

    Each pair's equality becomes a quadratic by squaring away its square
    roots: disc-disc, rho_j - rho_k = R_j - R_k squared twice (the s^2 terms
    cancel the first time); disc-line, rho_j = R_j - alpha_k + gamma_k s
    squared once; line-line, linear.  Squaring only adds roots, and a
    negative discriminant is taken as zero, so each quadratic also yields its
    vertex: the extra parameters only split a piece of the segment.  Only a
    face all but constant on the line, R_k beyond about 1e77 times the
    domain's size, can overflow a pair's coefficients and lose its roots;
    such a face binds only within about 1e-77 of its own boundary.
    """
    # every ordered pair, as outer arrays: a pair of a face with itself, or a
    # repeated face, gives a = b = c = 0 and no root
    Rj, pj, qj, Rk, pk, qk = R[:, None], p[:, None], q[:, None], R, p, q
    with np.errstate(over="ignore", invalid="ignore"):
        dR2 = (Rj - Rk) ** 2
        m = 2.0 * (pk - pj)
        n = (pj - pk) * (pj + pk) + (qj - qk) * (qj + qk) - dR2
        # disc-disc: (m s + n)^2 = 4 dR^2 rho_k^2
        s = [_quadratic_roots(m * m - 4.0 * dR2, 2.0 * m * n + 8.0 * dR2 * pk,
                              n * n - 4.0 * dR2 * (pk * pk + qk * qk))]
        if alpha.size:
            e = Rj - alpha
            # disc-line and line-line
            s += [_quadratic_roots(1.0 - gamma * gamma, -2.0 * (pj + e * gamma),
                                   pj * pj + qj * qj - e * e),
                  _quadratic_roots(0.0, gamma - gamma[:, None], alpha[:, None] - alpha)]
    s = np.concatenate(s)
    return s[(s > 0.0) & (s < L)]


def _quadratic_roots(a, b, c):
    """Both roots of a s^2 + b s + c (broadcast), in the form that cancels
    nothing; a negative discriminant counts as zero, giving the vertex twice,
    and a = 0 gives the linear root and a non-finite one."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
        return np.concatenate([np.ravel(Q / a), np.ravel(c / Q)])


def _ray_roots(N, A, beta, T):
    """The t > 0 with N t^2 = tau^2 |A - t beta|^2, tau = tanh T (broadcast;
    A > 0): the root of a t^2 + b t + c, a = N - tau^2 |beta|^2 >= 0 > c, in
    the form that cancels nothing, Q / a (Q as in ``_quadratic_roots``) where
    b's sign bit is set, even at b = -0.0, else c / Q; inf where a = 0 leaves
    none (beta = 0, or tau rounded to 1), and 0 where tau^2 is 0."""
    tau2 = np.tanh(T) ** 2
    a, b, c = N - tau2 * np.abs(beta) ** 2, 2.0 * tau2 * A * beta.real, -tau2 * A * A
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        t = np.where(np.signbit(b), Q / a, c / Q)
    t[np.isnan(t)] = np.inf
    return np.where(tau2 > 0, t, 0.0)


def _disc_antiderivative(u, R, q):
    """(F(u), size): an antiderivative of 1 / (R - sqrt(u^2 + q^2)) for
    |u| < A = sqrt(R^2 - q^2), odd with F(0) = 0, and the sum of the moduli
    of the terms it adds.

    For u > 0, with rho = sqrt(u^2 + q^2) and z = R u / (A rho),
    F(u) = (R/A) log((1 + z) A rho / (A - u)) - log(u + rho)
    + (1 - R/A) log q, the last term 0 at q = 0.  No two terms cancel an
    infinity as q -> 0, and at q = 0 it is log(R / (R - u)).
    """
    au = np.abs(u)
    A = np.sqrt((R - q) * (R + q))
    rho = np.hypot(au, q)
    ra = R / A
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (ra * np.log((1.0 + R * au / (A * rho)) * A * rho / (A - au)),
                 -np.log(au + rho),
                 np.where(q > 0, (1.0 - ra) * np.log(q), 0.0))
        F = np.sign(u) * (terms[0] + terms[1] + terms[2])
        size = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
    zero = u == 0
    return np.where(zero, 0.0, F), np.where(zero, 0.0, size)


# Rows of a polyhedron bracket taken together: a block's slacks and rates are
# (faces, rows) arrays, so a 100,000-direction indicatrix on a 16-face body
# holds about a megabyte of them at a time rather than tens, and the heap's
# high-water mark does not grow with the batch.
_ROW_BLOCK = 4096

# Rows of a gauge body's query searched together, and given half-spaces
# together: each gauge call then sees the points of at most 32 rows, however
# many rows the query has, which bounds the temporaries.
_SECTION_BLOCK = 32


# Most n-subsets of modulus faces ``ConvexPolyhedron._search`` ranks: C(16, 4) is 1820
_SEARCH_CAP = 4096


@functools.cache
def _ray_phases(rays):
    """The rays' directions e^{2 pi i j / rays} in a section, j < rays."""
    phase = np.exp(2j * np.pi * np.arange(rays) / rays)
    phase.flags.writeable = False
    return phase


@functools.cache
def _ray_rings(rays):
    """Per ray of _SECTION_BLOCK rows of ``rays`` rays: its index, its row and
    its two neighbours' indices in its row's ring; fewer rows read a prefix."""
    ring = np.arange(_SECTION_BLOCK * rays).reshape(-1, rays)
    return tuple(_read_only(t.ravel()) for t in (ring, ring // rays, np.roll(ring, 1, axis=1),
                                                 np.roll(ring, -1, axis=1)))


def _edge_feet(a, b):
    """The foot of 0 on each segment [a, b] of the complex plane."""
    seg = b - a
    L2 = np.abs(seg) ** 2
    ts = -np.real(a * np.conj(seg)) / np.where(L2 > 0, L2, 1.0)
    return a + np.minimum(np.maximum(0.0, ts), 1.0) * seg


def _polygon_search(margin, X, D, phase, lo, f_lo, hi, f_hi, width):
    """The polygon inscribed in each row's section, searched on its rays.

    Row r has the rays t -> X[k] + t D[k], k = r * rays + j, D[k] = vhat
    phase[j], with ``phase`` the rays' equally spaced directions: in section
    coordinates around X[k] ray j runs along phase[j], and edge j joins its
    vertex to that of ray j + 1.  ``margin`` maps a stack of points to values
    > 0 exactly inside; on entry f_lo = margin > 0 at lo and f_hi = margin
    <= 0 at hi.  Each ray takes a secant step through its two latest
    iterates, kept about the points' rounding resolution away from both
    ends, and takes the bracket's midpoint instead when the secant leaves
    [lo, hi] or the bracket has not halved in three steps.

    A ray stops once hi - lo <= 4 eps hi (a vertex then moves by at most 4
    eps relative), or hi - lo <= width, or once neither edge at its vertex
    can be the nearest.  The ``width`` floor decides the rays whose hit lies
    within width / (4 eps) of X[k]: near the boundary the relative stop alone
    would go on halving brackets far below the points' rounding resolution,
    for up to 30 more gauge calls a row.  An edge's distance
    from X lies between cos(pi / rays) times its nearer vertex's distance
    (its points' projection on the edge's bisecting ray) and that distance.
    Inside ends only move out, so cos(pi / rays) min(lo) over a ray and its
    two neighbours bounds both its edges' final distances below, and the
    row's least hi bounds the final minimum above.  A ray whose lower bound
    passes that minimum by more than 1e-12 of the row's farthest outside end
    (the edge distances round within a few eps of it) keeps its edges
    farther than the nearest one.  So every ray that can carry the nearest
    edge runs to the end, and as each ray's iterates depend on its own
    margins alone, the nearest edge, its distance and its foot are those of
    searching every ray to the end, bit for bit, if ``margin`` rounds a
    point alike in every stack.

    At most _SECTION_BLOCK rows are searched, on ring tables cached per ray
    count.  Divide and invalid warnings are off, also in ``margin``: equal
    margins give an infinite or nan secant step, and so the midpoint.

    Returns (lo, hi, k): per row and ray (rows, rays) the last evaluated
    parameter inside and the first evaluated parameter outside, and per row
    the nearest edge of the polygon of the inside ends.
    """
    eps, rays = np.finfo(float).eps, phase.size
    rows = lo.size // rays
    LO, HI = lo.copy(), hi.copy()
    lows, highs = LO.reshape(rows, rays), HI.reshape(rows, rays)
    slack = 1e-12 * highs.max(axis=1)
    # per live ray: its index, row and neighbours' indices, the parameter
    # step that moves a point by about one rounding unit, the two latest
    # iterates and their margins, and the bracket's half-widths three, two
    # and one steps ago
    idx, row, prv, nxt = rings = [t[:lo.size] for t in _ray_rings(rays)]
    res = eps * row_norms(X) / row_norms(D)
    a, fa, b, fb = lo, f_lo, hi, f_hi
    h3 = h2 = h1 = np.full(lo.size, np.inf)
    cos = math.cos(math.pi / rays)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            gap = hi - lo
            live = gap > np.maximum(4.0 * eps * hi, width)
            live &= cos * np.minimum(np.minimum(LO[prv], lo), LO[nxt]) <= (
                np.minimum.reduce(highs, axis=1) + slack)[row]
            keep = live.nonzero()[0]
            if keep.size < live.size:
                if not keep.size:
                    break
                idx, row, prv, nxt, X, D, lo, hi, gap, res, a, fa, b, fb, h3, h2, h1 = (
                    v.take(keep, axis=0) for v in (idx, row, prv, nxt, X, D, lo, hi, gap,
                                                   res, a, fa, b, fb, h3, h2, h1))
            half = 0.5 * gap
            s = b - fb * (b - a) / (fb - fa)
            s = np.where((s >= lo) & (s <= hi) & (gap <= h3), s, lo + half)
            # at least one double in from each end (the midpoint once the
            # bracket is that narrow), so each evaluation shrinks the bracket
            nudge = np.minimum(res + 2.0 * eps * hi, half)
            s = np.maximum(np.minimum(s, hi - nudge), lo + nudge)
            Z = D * s[:, None]
            Z += X
            f = margin(Z)
            inside = f > 0
            lo, hi = np.where(inside, s, lo), np.where(inside, hi, s)
            LO[idx], HI[idx] = lo, hi
            a, fa, b, fb = b, fb, s, f
            h3, h2, h1 = h2, h1, half
    a = (lows * phase).ravel()
    return lows, highs, np.abs(_edge_feet(a, a[rings[3]])).reshape(rows, rays).argmin(axis=1)


class BalancedConvex(Domain):
    """Balanced convex body {g < 1} given by a homogeneous gauge oracle.

    ``inner_radius``/``bounding_radius`` declare a Euclidean annulus
    B(0, inner) subset {g < 1} subset B(0, bounding); both are spot-checked on
    64 seeded directions at construction, as is |c|-homogeneity of the gauge.

    The one kind that draws supporting half-spaces.  One search of the
    section through each row answers both sides of ``bracket_paired``: the
    inradius of the inscribed polygon it finds is the upper side's section
    distance (its nearest edge's ends are evaluated inside points within 4
    eps of evaluated outside ones; rays that cannot reach that edge stop
    sooner, so the bracket is that of the search run to the end), and the
    polygon's point nearest the row's point guides the lower side's
    half-spaces, certified from one-sided differences of the gauge
    (``supporting_half_spaces``), assuming the callable returns a convex
    gauge to within 8 eps relative.  A block of rows takes them in one pass
    of two gauge calls, each row from its own fork, batch-independent; a
    fork's rays are its first draw, which ``SampleStream.unit_directions``
    keeps per process, so a bracket repeated at one seed builds no
    generator.
    """

    lower_method = "half-space"

    def __init__(self, gauge, dim: int, bounding_radius: float, inner_radius: float):
        self.dim = int(dim)
        self._gauge = gauge
        self.bounding_radius = float(bounding_radius)
        self.inner_radius = float(inner_radius)
        self.basepoint = _read_only(np.zeros(self.dim, dtype=complex))
        # ``supporting_half_spaces`` steps h = 1e-6 along Re z_0, Im z_0, ...
        self._steps = _read_only(np.kron(np.eye(self.dim), [[1e-6], [1e-6j]]))
        if not (0 < self.inner_radius <= self.bounding_radius < np.inf):
            raise DegenerateInputError("need 0 < inner_radius <= bounding_radius < inf")
        U = root_directions(0, 64, self.dim)
        g = self.gauge(U)
        if np.any(~np.isfinite(g)) or np.any(g <= 0):
            raise DegenerateInputError("gauge must be finite and positive on directions")
        if np.any(g > 1.0 / self.inner_radius + 1e-9):
            raise DegenerateInputError("declared inner radius ball is not contained")
        if np.any(g < 1.0 / self.bounding_radius - 1e-9):
            raise DegenerateInputError("declared bounding radius does not contain the body")
        c = 0.37 - 1.91j
        if np.max(np.abs(self.gauge(c * U) - abs(c) * g)) > config.GAUGE_HOMOGENEITY_TOL * abs(c) * np.max(g):
            raise DegenerateInputError("gauge is not |c|-homogeneous")

    def gauge(self, v):
        v = np.asarray(v, dtype=complex)
        if v.ndim == 1:
            return float(self._gauge(v))
        return call_rowwise(self._gauge, v)

    def contains_margins(self, Z):
        # > 0 exactly when g < 1
        return (1.0 - self.gauge(np.asarray(Z, dtype=complex))) * self.inner_radius

    def section_distance_paired(self, P, V):
        """Row-paired section distances: row i is through P[i] along V[i].

        Exact disc radius at the center; off center, boundary hits along
        config.SECTION_RAYS planar directions are searched on the gauge
        (``_polygon_search``) and the inradius of the polygon of the last
        points found inside is returned -- a certified lower bound on the
        true section distance (the section is convex, so it contains that
        polygon).  A ray's search ends once its inside and outside points
        are within 4 eps of each other, relative; it stops sooner once
        neither polygon edge at its vertex can be the nearest, its vertex
        still an evaluated inside point, and the nearest edge's rays run to
        the end, so the value is that of searching every ray to the end, bit
        for bit.  Off-center rows are searched together, _SECTION_BLOCK rows
        at a time.
        """
        return self._section_search(P, V)[0]

    def bracket_paired(self, P, V, stream=None):
        """Upper: |V[i]| / the section distance.  Lower: the largest metric
        |<v, n>| / (2 gap) of a supporting half-space drawn from
        ``stream.fork(i)`` near the point of the same search's polygon
        nearest P[i] (at the center, the boundary point V[i] / g(V[i])), as a
        half-space's metric only shrinks as the domain grows, and at least
        the bounding-sphere floor: a supporting half-space with normal v/|v|
        lies within |x| + R of x, giving K >= |v| / (2(|x| + R)).  Each
        block of _SECTION_BLOCK rows draws its half-spaces in one pass of two
        gauge calls, so a row's bounds do not depend on the batching."""
        V = np.asarray(V, dtype=complex)
        P = np.broadcast_to(np.asarray(P, dtype=complex), V.shape)
        dist, near = self._section_search(P, V)
        stream = stream or SampleStream(0)
        lower = np.empty(len(P))
        for start in range(0, len(P), _SECTION_BLOCK):
            block = slice(start, start + _SECTION_BLOCK)
            N, b = self.supporting_half_spaces(
                near[block], [stream.fork(i) for i in range(len(P))[block]])
            N = N.conj()  # an empty slot's offset -inf leaves no gap
            gap = b - np.real(np.einsum("ikn,in->ik", N, P[block]))
            lower[block] = np.divide(np.abs(np.einsum("ikn,in->ik", N, V[block])), 2.0 * gap,
                                     out=np.zeros_like(gap), where=gap > 0).max(axis=1, initial=0.0)
        nv = row_norms(V)
        return (np.maximum(lower, nv / (2.0 * (np.linalg.norm(P, axis=1) + self.bounding_radius))),
                nv / dist)

    def distance_lower_bound(self, x, w, stream=None):
        """The largest half-plane distance between the projections of x and
        x + w onto the supporting half-spaces drawn from ``stream`` near x,
        x + w and their midpoint, one after another (without a stream, each
        from its own ``SampleStream(0)``)."""
        streams = [stream] * 3 if stream else [SampleStream(0) for _ in range(3)]
        N, b = self.supporting_half_spaces(np.stack([x, x + w, x + 0.5 * w]), streams)
        # an empty slot (N = 0, offset -inf) gives distance 0
        N = N.reshape(-1, self.dim).conj().T
        return float(_half_plane_distances(x @ N, w @ N, b.ravel()).max(initial=0.0))

    def _section_search(self, P, V):
        """(section distance, guide) per row, as ``section_distance_paired``
        describes; the guide is the point of the polygon nearest P[i]."""
        rays = config.SECTION_RAYS
        V = self._check_dim(V)
        P = np.broadcast_to(self._check_dim(P), V.shape)
        nv = row_norms(V)
        if (nv == 0.0).any():
            raise DegenerateInputError("zero direction")
        out = np.empty(P.shape[0])
        near = np.empty(P.shape, dtype=complex)
        centre = ~(P != 0).any(axis=1)
        off = (~centre).nonzero()[0]
        vhat = V[off] / nv[off, None]
        g = self.gauge(np.concatenate([P[off], vhat])) if off.size else np.empty(0)
        gx, gv = g[:off.size], g[off.size:]
        if (gx >= 1.0).any():
            raise NotInteriorError("x is not inside the body")
        if centre.any():
            gc = self.gauge(V[centre])
            out[centre] = nv[centre] / gc
            near[centre] = V[centre] / gc[:, None]
        phase = _ray_phases(rays)
        for start in range(0, off.size, _SECTION_BLOCK):
            block = slice(start, start + _SECTION_BLOCK)
            out[off[block]], near[off[block]] = self._polygon_inradius(
                P[off[block]], vhat[block], phase, gx[block], gv[block])
        return out, near

    def _polygon_inradius(self, X, vhat, phase, gx, gv):
        """Inradius about X[i] of the polygon of boundary hits along
        vhat[i] * phase, searched on the gauge from gx = g(X) and gv = g(vhat),
        and the polygon's point nearest X[i]."""
        n, rays = X.shape[0], phase.size
        dirs = (vhat[:, None, :] * phase[None, :, None]).reshape(-1, self.dim)
        Xr = np.repeat(X, rays, axis=0)
        brackets = self._hit_brackets(Xr, dirs, np.repeat(gx, rays), np.repeat(gv, rays))
        lo, _, k = _polygon_search(lambda Z: 1.0 - self.gauge(Z), Xr, dirs, phase, *brackets,
                                   2.0 * self.bounding_radius * 2.0 ** -60)
        # the foot of X[i] on the nearest edge, in section coordinates around 0
        rows, k1 = np.arange(n), (k + 1) % rays
        foot = _edge_feet(lo[rows, k] * phase[k], lo[rows, k1] * phase[k1])
        return np.abs(foot), X + foot[:, None] * vhat

    def _hit_brackets(self, X, D, gx, gv):
        """Evaluated brackets (lo, f_lo, hi, f_hi) of the boundary hits of the
        rays X[k] + t D[k], for unit D[k] = vhat e^{i theta}, g(X[k]) = gx[k]
        and g(vhat) = gv[k]; f is the margin 1 - g.

        The gauge is subadditive and g(vhat e^{i theta}) = g(vhat), so each
        hit lies in [t0, t1] = [(1 - g(x)) / g(vhat), (1 + g(x)) / g(vhat)].
        Both ends are evaluated in one gauge call, of at most 2 x 32 x 128
        points, and a ray whose end rounding puts on the wrong side falls back
        on t = 0 (inside, as g(x) < 1) or on t = 2R.
        """
        t0, t1 = t = np.concatenate([(1.0 - gx) / gv, (1.0 + gx) / gv]).reshape(2, -1)
        Z = t[:, :, None] * D
        Z += X
        f0, f1 = (1.0 - self.gauge(Z.reshape(-1, self.dim))).reshape(2, -1)
        inner = f0 > 0
        lo, f_lo = np.where(inner, t0, 0.0), np.where(inner, f0, 1.0 - gx)
        hi, f_hi = np.where(inner, t1, t0), np.where(inner, f1, f0)
        short = f_hi > 0
        if short.any():
            lo[short], f_lo[short] = hi[short], f_hi[short]
            hi[short] = 2.0 * self.bounding_radius
            f_hi[short] = 1.0 - self.gauge(X[short] + hi[short, None] * D[short])
            if np.any(f_hi > 0):
                raise DegenerateInputError(
                    "declared bounding radius does not contain the body")
        return lo, f_lo, hi, f_hi

    def supporting_half_spaces(self, near, streams):
        """(N, b): per guide row near[i], certified half-spaces
        {Re<z, N[i, k]> < b[i, k]} containing the body, unit N[i, k], from
        subgradients at boundary points on the ray through near[i] and on
        config.HALF_SPACE_COUNT rays drawn from streams[i], half jittered
        around near[i] (max(that, 2 dim), all drawn, at 0).  Slots a row
        leaves empty have N = 0 and offset -inf.

        The gauge g is convex and homogeneous, so a subgradient s at any
        point p has Re<z, s> <= g(z) for every z, which is < 1 on the body.
        One-sided differences along each real coordinate e_j bracket s:
        (g(p) - g(p - t e_j)) / t <= s_j <= (g(p + t e_j) - g(p)) / t, for the
        steps t actually taken (about 1e-6).  The normal is the bracket's
        midpoint m, and |m - s| is at most the norm w of its half-widths, so
        Re<z, m> < 1 + w R on the body (R = ``bounding_radius``).  The
        callable is assumed to return a convex gauge to within rel = 8 eps
        relative: each bracket end is widened by rel (g(p) + g(p + t e_j)) / t
        and 2 eps of its size for its rounding, and the offset gains rel, for
        a point the callable puts inside has g < 1 + rel.  The widening adds
        at least about 2 rel R / t to the offset, which also covers the few
        roundings that follow.
        A point whose midpoint vanishes gives no half-space; a row left with
        none raises DegenerateInputError.  The whole block takes two gauge
        calls: one finds every boundary point p on the rays, and a second
        takes g(p) and every step.  Row i reads only near[i] and streams[i]
        (drawn in row order), so its half-spaces do not depend on the batch.
        A stream that has not drawn before gives its rays as its first draw,
        served from the per-process table of ``SampleStream.unit_directions``
        once it has been drawn, with the same bits.
        """
        eps, count = np.finfo(float).eps, config.HALF_SPACE_COUNT
        rel = 8.0 * eps
        near, n = self._check_dim(near), self.dim
        # row i's rays: the ray through near[i], then the first half of its
        # drawn rays, plain and jittered around it; at 0 the drawn rays alone
        rays = np.empty((len(near), max(count, 2 * n) + 1, n), dtype=complex)
        rays[:, 1:] = [s.unit_directions(rays.shape[1] - 1, n) for s in streams]
        nq = vector_norms(near)
        on = nq > 0
        rays[:, 0] = near / np.where(on, nq, 1.0)[:, None]
        mixed = rays[:, :1] + 0.35 * rays[:, 1:count - count // 2 + 1]
        mixed /= np.linalg.norm(mixed, axis=2, keepdims=True)
        np.copyto(rays[:, count // 2 + 1:count + 1], mixed, where=on[:, None, None])
        live = np.ones(rays.shape[:2], dtype=bool)
        live[:, 0], live[:, count + 1:] = on, ~on[:, None]
        Y = rays[live]
        Y /= self.gauge(Y)[:, None]  # boundary points on the rays
        steps = np.stack([Y[:, None, :] + self._steps, Y[:, None, :] - self._steps])
        g = self.gauge(np.concatenate([Y, steps.reshape(-1, n)]))
        g0, g = g[:len(Y), None], g[len(Y):].reshape(steps.shape[:-1])
        j = np.arange(2 * n)
        t = (steps - Y[:, None, :])[:, :, j, j // 2]
        t = np.where(j % 2 == 0, t.real, t.imag)        # +-h up to rounding
        q = (g - g0) / t
        slop = rel * (g + g0) / np.abs(t) + 2.0 * eps * np.abs(q)
        hi, lo = q[0] + slop[0], q[1] - slop[1]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        N = mid[:, 0::2] + 1j * mid[:, 1::2]
        nn = np.linalg.norm(N, axis=1)
        keep = nn > 0
        live[live] = keep  # the slots that keep a half-space
        if not live.any(axis=1).all():
            raise DegenerateInputError("no supporting half-spaces found")
        b = 1.0 + rel + np.linalg.norm(half[keep], axis=1) * self.bounding_radius
        normals, offsets = np.zeros_like(rays), np.full(live.shape, -np.inf)
        normals[live], offsets[live] = N[keep] / nn[keep, None], b / nn[keep]
        return normals, offsets

    def outer_radius_bound(self, domain, x):
        if np.isfinite(domain.bounding_radius):
            # gauge(w) <= |w| / inner_radius
            return (float((domain.bounding_radius + np.linalg.norm(x)) / self.inner_radius),
                    "norm-bound")
        return super().outer_radius_bound(domain, x)

    def interior_samples(self, count, stream: SampleStream):
        u = stream.unit_directions(count, self.dim)
        g = self.gauge(u)
        t = stream.uniform(count) ** (1.0 / (2 * self.dim))
        return u * (t / g)[:, None]


class AffineImage(Domain):
    """T(inner) for an invertible affine map T; all oracles delegate exactly.

    Sampling operations are performed on ``inner`` and mapped forward, so
    seeded constructions on a domain and on its affine image correspond
    point-for-point -- this is what makes affine-invariance checks exact up to
    roundoff.
    """

    def __init__(self, inner: Domain, affine: AffineMap):
        if affine.dim != inner.dim:
            raise DimensionMismatchError("affine map dimension mismatch")
        self.inner = inner
        self.map = affine
        self.map_inv = affine.inverse()
        self.dim = inner.dim
        sv = np.linalg.svd(affine.linear.matrix, compute_uv=False)
        self._sv_min = float(sv[-1])
        self._sv_max = float(sv[0])
        self.basepoint = _read_only(affine(inner.basepoint))
        if np.isfinite(inner.bounding_radius):
            self.bounding_radius = (self._sv_max * inner.bounding_radius
                                    + float(np.linalg.norm(affine.translation)))
        else:
            self.bounding_radius = np.inf

    @property
    def lower_method(self):
        return self.inner.lower_method

    def contains_margins(self, Z):
        return self.inner.contains_margins(self.map_inv(Z)) * self._sv_min

    def _pull_back(self, P, V):
        # a shared row P stays one row, mapped as the first row of a two-row
        # stride-0 stack: numpy multiplies such a stack in its own loop, as it
        # does the caller's broadcast stack, while a one-row product goes to
        # BLAS and rounds apart; so the row keeps its broadcast stack's bits
        Pp = self.map_inv(P if len(P) == len(V) else np.broadcast_to(P, (2, self.dim)))
        return Pp[:len(P)], V @ self.map_inv.linear.matrix.T

    def metric_paired(self, P, V):
        return self.inner.metric_paired(*self._pull_back(P, V))

    def metric_pullback(self, P, V):
        return self.inner.metric_pullback(*self._pull_back(P, V))

    def metric_form(self, x):
        form = self.inner.metric_form(self.map_inv(self._check_dim(cvector(x))))
        return None if form is None else form.pulled_back(self.map_inv.linear.matrix)

    def section_distance_paired(self, P, V):
        Pp, Vp = self._pull_back(P, V)
        return (self.inner.section_distance_paired(Pp, Vp)
                * row_norms(V) / row_norms(Vp))

    def section_distance_along(self, x, W, T):
        W = np.asarray(W, dtype=complex)
        Wp = W @ self.map_inv.linear.matrix.T
        return (self.inner.section_distance_along(self.map_inv(x), Wp, T)
                * (row_norms(W) / row_norms(Wp))[:, None])

    def bracket_paired(self, P, V, stream=None):
        return self.inner.bracket_paired(*self._pull_back(P, V), stream)

    def affine_disc_length(self, x, w):
        # a complex-affine map scales each complex line uniformly, so the
        # integrand, a section distance in units of |w|, is unchanged
        return self.inner.affine_disc_length(*self._pull_back(x, w))

    def distance_lower_bound(self, x, w, stream=None):
        return self.inner.distance_lower_bound(*self._pull_back(x, w), stream)

    def distance_value(self, x, w):
        w = np.asarray(w, dtype=complex) @ self.map_inv.linear.matrix.T
        return self.inner.distance_value(self.map_inv(cvector(x)), w)

    def gauge(self, v):
        if np.any(np.abs(self.map.translation) > 0):
            return None  # translate breaks balancedness about 0
        probe = np.ones(self.dim, dtype=complex)
        if self.inner.gauge(probe) is None:
            return None
        v = np.asarray(v, dtype=complex)
        return self.inner.gauge(v @ self.map_inv.linear.matrix.T)

    def automorphism(self, frm, to):
        """T psi T^-1, psi the inner domain's automorphism moving T^-1(frm)
        to T^-1(to); where the inner domain has none, the error names this
        domain."""
        try:
            psi = self.inner.automorphism(self.map_inv(frm), self.map_inv(to))
        except UnsupportedKindError:
            return super().automorphism(frm, to)
        return ComposedMap([self.map_inv, psi, self.map])

    def interior_samples(self, count, stream: SampleStream):
        return self.map(self.inner.interior_samples(count, stream))


def _product_table(coeffs, bounds, modulus_count, bounding_radius, basepoint, name):
    """A product of unit rows and consts 0, without the constructor's checks:
    its builder's input checks keep the table valid and the basepoint inside."""
    d, n = object.__new__(ConvexPolyhedron), len(bounds)
    d._fill(coeffs, np.zeros(n, dtype=complex), bounds, modulus_count, np.ones(n),
            bounding_radius, basepoint, name, np.arange(n), True)
    return d


def polydisc(radii) -> ConvexPolyhedron:
    """The polydisc |z_k| < radii[k]: modulus rows e_k, consts 0."""
    radii = np.array(radii, dtype=float)    # a copy: the table is made read-only
    if radii.ndim != 1 or radii.size < 1 or (radii <= 0).any():
        raise DegenerateInputError("radii must be positive")
    n = radii.size
    return _product_table(np.eye(n, dtype=complex), radii, n, np.linalg.norm(radii),
                          np.zeros(n, dtype=complex), "polydisc")


def halfplane_product(dim: int, orientation: str = "upper") -> ConvexPolyhedron:
    """The product of half-planes Im z_k > 0 ("upper") or Re z_k < 0
    ("left"): real rows i e_k or e_k, bounds 0.  Unbounded, so it has no
    gauge and no coordinate bounds."""
    if orientation not in ("upper", "left"):
        raise DegenerateInputError(f"unknown orientation {orientation!r}")
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    n = int(dim)
    upper = orientation == "upper"
    return _product_table(np.eye(n, dtype=complex) * (1j if upper else 1.0), np.zeros(n),
                          0, np.inf, np.full(n, 1j) if upper else -np.ones(n, dtype=complex),
                          "halfplane")


def same_model(a: Domain, b: Domain) -> bool:
    """Whether a and b are one model: unit balls of one dimension, or face
    tables with equal arrays."""
    if isinstance(a, UnitBall) and isinstance(b, UnitBall):
        return a.dim == b.dim
    if isinstance(a, ConvexPolyhedron) and isinstance(b, ConvexPolyhedron):
        return a.modulus_count == b.modulus_count and all(
            np.array_equal(getattr(a, k), getattr(b, k)) for k in ("coeffs", "consts", "bounds"))
    return False


def balanced_polyhedron(coeffs, scales, dim: int, name: str = "") -> ConvexPolyhedron:
    """The balanced body max_k |c_k . z| / s_k < 1, as const-0 modulus faces.

    Raises DegenerateInputError unless the functionals c_k span C^dim.
    """
    C = np.asarray(coeffs, dtype=complex).reshape(-1, dim)
    s = np.asarray(scales, dtype=float)
    sv = np.linalg.svd(C, compute_uv=False)
    if C.shape[0] < dim or sv[-1] <= 1e-12:
        raise DegenerateInputError("functionals do not span C^n; body is unbounded")
    # max_k |c_k . z| / s_k < 1 forces ||C z|| < ||s||, so ||z|| < ||s|| / sigma_min(C)
    return ConvexPolyhedron(C, np.zeros(len(C)), s, len(C), np.linalg.norm(s) / sv[-1], name=name)


def model_automorphism(domain: Domain, frm, to):
    """Automorphism of a model domain sending ``frm`` to ``to``, with exact
    derivatives (``Domain.automorphism``); raises UnsupportedKindError on a
    kind without one."""
    frm, to = cvector(frm), cvector(to)
    domain.require_interior(frm, "source point")
    domain.require_interior(to, "target point")
    phi = domain.automorphism(frm, to)
    err = np.linalg.norm(phi(frm) - to)
    if err > config.AUTOMORPHISM_MAP_TOL:
        raise SingularMapError(f"automorphism misses its target by {err:.3e}")
    return phi


class AutomorphismFamily:
    """Automorphisms of a model domain dragging ``base`` toward a boundary (not
    interior) ``target``: member t sends base to base + (1 - 2^-t)(target - base)."""

    def __init__(self, model: Domain, target, base=None):
        self.model = model
        self.target = cvector(target)
        self.base = model.basepoint if base is None else cvector(base)
        model.require_interior(self.base, "family base point")
        if model.contains(self.target) > 0:
            raise DegenerateInputError("target point is inside the domain, not on its boundary")

    def point_at(self, t: float):
        return self.base + (1.0 - 2.0 ** (-float(t))) * (self.target - self.base)

    def automorphism(self, t: float):
        return model_automorphism(self.model, self.base, self.point_at(t))


# ---------------------------------------------------------------------------
# JSON domain specifications
# ---------------------------------------------------------------------------

def _is_number(obj) -> bool:
    """A JSON number: an int or a float, and not a bool, which subclasses int."""
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _load_complex(obj, loc):
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, str):
        try:
            return complex(obj.replace(" ", ""))
        except ValueError:
            raise SpecLoadError("cannot parse complex number", loc)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_number, obj)):
        return complex(obj[0], obj[1])
    raise SpecLoadError("expected a number, [re, im] pair, or complex string", loc)


def load_cvector(obj, loc, dim=None):
    """A complex vector from a JSON list; SpecLoadError names ``loc`` when malformed."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise SpecLoadError("expected a nonempty list", loc)
    v = np.array([_load_complex(x, f"{loc}[{i}]") for i, x in enumerate(obj)])
    if dim is not None and v.size != dim:
        raise SpecLoadError(f"expected length {dim}, got {v.size}", loc)
    return v


def _require(obj, key, loc, types=None):
    if key not in obj:
        raise SpecLoadError(f"missing required key {key!r}", loc)
    val = obj[key]
    # bool subclasses int, and no typed key takes JSON true or false
    if types is not None and (not isinstance(val, types) or isinstance(val, bool)):
        raise SpecLoadError(f"key {key!r} has the wrong type", loc)
    return val


def load_domain(spec) -> Domain:
    """Build a Domain from a JSON file path, JSON string, or parsed dict.

    Malformed specifications raise SpecLoadError with a location string such as
    ``faces[2].bound``.
    """
    if isinstance(spec, str):
        try:
            if spec.lstrip().startswith("{"):
                obj = json.loads(spec)
            else:
                with open(spec) as fh:
                    obj = json.load(fh)
        except FileNotFoundError:
            raise SpecLoadError(f"no such file: {spec}")
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecLoadError(f"cannot parse domain spec: {exc}")
    else:
        obj = spec
    if not isinstance(obj, dict):
        raise SpecLoadError("domain spec must be a JSON object")
    return _domain_from_dict(obj, "")


def _domain_from_dict(obj, loc) -> Domain:
    kind = _require(obj, "kind", loc or "<root>", str)
    p = f"{loc}." if loc else ""
    if kind == "ball":
        dim = _require(obj, "dim", f"{p}dim", int)
        return UnitBall(dim)
    if kind == "polydisc":
        if "radii" in obj:
            radii = obj["radii"]
            if not isinstance(radii, list) or not all(
                    _is_number(r) and r > 0 for r in radii):
                raise SpecLoadError("radii must be a list of positive numbers",
                                    f"{p}radii")
        else:
            radii = [1.0] * _require(obj, "dim", f"{p}dim", int)
        return polydisc(radii)
    if kind == "halfplane":
        dim = _require(obj, "dim", f"{p}dim", int)
        try:
            return halfplane_product(dim, obj.get("orientation", "upper"))
        except DegenerateInputError as exc:
            raise SpecLoadError(str(exc), f"{p}orientation")
    if kind == "polyhedron":
        dim = _require(obj, "dim", f"{p}dim", int)
        faces_obj = _require(obj, "faces", f"{p}faces", list)
        if not faces_obj:
            raise SpecLoadError("polyhedron needs at least one face", f"{p}faces")
        # (coeffs, const, bound) per face, modulus faces and real faces apart
        rows = {"modulus": [], "real": []}
        for i, fo in enumerate(faces_obj):
            floc = f"{p}faces[{i}]"
            if not isinstance(fo, dict):
                raise SpecLoadError("face must be an object", floc)
            ftype = _require(fo, "type", f"{floc}.type", str)
            if ftype == "modulus":
                coeffs = load_cvector(_require(fo, "coeffs", f"{floc}.coeffs"),
                                      f"{floc}.coeffs", dim)
                const = _load_complex(fo.get("const", 0.0), f"{floc}.const")
                bound = _require(fo, "bound", f"{floc}.bound", (int, float))
                if bound <= 0:
                    raise SpecLoadError("bound must be positive", f"{floc}.bound")
            elif ftype == "real":
                # Re<z, a> < b is Re(z . conj(a)) < b
                coeffs = load_cvector(_require(fo, "normal", f"{floc}.normal"),
                                      f"{floc}.normal", dim).conj()
                const = 0.0
                bound = _require(fo, "offset", f"{floc}.offset", (int, float))
            else:
                raise SpecLoadError(f"unknown face type {ftype!r}", f"{floc}.type")
            rows[ftype].append((coeffs, const, float(bound)))
        br = _require(obj, "bounding_radius", f"{p}bounding_radius", (int, float))
        basepoint = (np.zeros(dim, dtype=complex) if "basepoint" not in obj else
                     load_cvector(obj["basepoint"], f"{p}basepoint", dim))
        coeffs, consts, bounds = zip(*(rows["modulus"] + rows["real"]))
        try:
            return ConvexPolyhedron(np.stack(coeffs), consts, bounds, len(rows["modulus"]),
                                    br, basepoint, name=obj.get("name", ""))
        except (DegenerateInputError, NotInteriorError) as exc:
            raise SpecLoadError(str(exc), loc or "<root>")
    if kind == "balanced":
        dim = _require(obj, "dim", f"{p}dim", int)
        funcs_obj = _require(obj, "funcs", f"{p}funcs", list)
        coeffs, scales = [], []
        for i, fo in enumerate(funcs_obj):
            floc = f"{p}funcs[{i}]"
            if not isinstance(fo, dict):
                raise SpecLoadError("func must be an object", floc)
            coeffs.append(load_cvector(_require(fo, "coeffs", f"{floc}.coeffs"),
                                       f"{floc}.coeffs", dim))
            sc = _require(fo, "scale", f"{floc}.scale", (int, float))
            if sc <= 0:
                raise SpecLoadError("scale must be positive", f"{floc}.scale")
            scales.append(float(sc))
        try:
            return balanced_polyhedron(coeffs, scales, dim, name=obj.get("name", ""))
        except DegenerateInputError as exc:
            raise SpecLoadError(str(exc), f"{p}funcs")
    if kind == "affine_image":
        inner_obj = _require(obj, "inner", f"{p}inner", dict)
        inner = _domain_from_dict(inner_obj, f"{p}inner")
        mat_obj = _require(obj, "matrix", f"{p}matrix", list)
        rows = [load_cvector(r, f"{p}matrix[{i}]", inner.dim)
                for i, r in enumerate(mat_obj)]
        if len(rows) != inner.dim:
            raise SpecLoadError(f"expected {inner.dim} rows", f"{p}matrix")
        translation = (np.zeros(inner.dim, dtype=complex) if "translation" not in obj
                       else load_cvector(obj["translation"], f"{p}translation",
                                         inner.dim))
        try:
            amap = AffineMap(CLinearMap(np.stack(rows)), translation)
            amap.inverse()
        except (SingularMapError, DimensionMismatchError) as exc:
            raise SpecLoadError(str(exc), f"{p}matrix")
        return AffineImage(inner, amap)
    raise SpecLoadError(f"unknown domain kind {kind!r}", f"{p}kind")
