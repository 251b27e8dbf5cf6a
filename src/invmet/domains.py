"""Bounded convex domain oracles in C^n and their supporting geometry.

Kinds: unit ball, polydisc, half-plane product (upper/left), convex polyhedron
cut out by modulus faces |f(z)| < c and real half-space faces Re<z, a> < b,
balanced convex bodies given by a gauge, and affine images of any of these.

Every domain carries a declared bounding radius and an interior base point.
Membership returns a signed gauge-like margin (positive inside). Directions and
normals use the Hermitian inner product <u, v> = sum u_i conj(v_i).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import config
from .core import AffineMap, CLinearMap, canonical_phase, cvector, hdot
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NotInteriorError,
    SingularMapError,
    SpecLoadError,
    UnsupportedKindError,
)
from .sampling import SampleStream


@dataclass(frozen=True)
class SupportingHalfSpace:
    """The half-space {z : Re<z, normal> < offset} with a boundary base point.

    ``normal`` is a unit vector; ``base`` lies on the bounding hyperplane.
    """

    normal: np.ndarray
    offset: float
    base: np.ndarray

    def distance_inside(self, z):
        """Euclidean distance from interior points to the bounding hyperplane."""
        z = np.asarray(z, dtype=complex)
        return self.offset - np.real(z @ self.normal.conj())


def half_space_through(normal, base) -> SupportingHalfSpace:
    normal = cvector(normal)
    nn = np.linalg.norm(normal)
    if nn == 0:
        raise DegenerateInputError("half-space normal must be nonzero")
    normal = normal / nn
    base = cvector(base)
    return SupportingHalfSpace(normal, float(np.real(hdot(base, normal))), base)


@dataclass(frozen=True)
class ModulusFace:
    """|coeffs . z + const| < bound  (complex-affine modulus constraint)."""

    coeffs: np.ndarray
    const: complex
    bound: float

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        return z @ self.coeffs + self.const


@dataclass(frozen=True)
class RealFace:
    """Re<z, normal> < offset with a unit normal."""

    normal: np.ndarray
    offset: float


class Domain:
    """Common interface; concrete kinds override the oracles they support."""

    dim: int
    bounding_radius: float
    basepoint: np.ndarray
    # method tag of the half-space lower bounds on this kind
    lower_method = "half-space"

    # -- membership -------------------------------------------------------
    def contains(self, z) -> float:
        """Signed gauge-like margin: positive inside, negative outside."""
        raise NotImplementedError

    def contains_margins(self, Z):
        """Vectorized margins for a stack of points (..., n); the sign of each
        row agrees with ``contains`` on that row."""
        raise NotImplementedError

    def require_interior(self, z, what: str = "point"):
        if self.contains(z) <= 0:
            raise NotInteriorError(f"{what} is not in the domain interior")

    # -- sections and support ---------------------------------------------
    def section_boundary_distance(self, x, v) -> float:
        """Euclidean distance from x to the boundary of the planar section
        Omega  intersect (x + C v).  ``v`` may be a stack of directions."""
        raise NotImplementedError

    def section_distance_paired(self, P, V):
        """Row-paired section distances: row i is through P[i] along V[i]."""
        raise NotImplementedError

    def supporting_half_spaces(self, near=None, count: int = config.HALF_SPACE_COUNT,
                               stream: SampleStream | None = None):
        raise NotImplementedError

    # -- closed forms (None when the kind has no exact formula) ------------
    def metric_value(self, x, v):
        return None

    def distance_value(self, x, y):
        return None

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


def _as_direction_stack(v, dim):
    v = np.asarray(v, dtype=complex)
    single = v.ndim == 1
    if single:
        v = v[None, :]
    if v.shape[-1] != dim:
        raise DimensionMismatchError(f"direction length {v.shape[-1]} != {dim}")
    if np.any(np.linalg.norm(v, axis=1) == 0.0):
        raise DegenerateInputError("zero direction")
    return v, single


class UnitBall(Domain):
    """Open Euclidean unit ball in C^n."""

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
        self.dim = int(dim)
        self.bounding_radius = 1.0
        self.basepoint = np.zeros(self.dim, dtype=complex)

    def contains(self, z) -> float:
        z = self._check_dim(z)
        return 1.0 - float(np.linalg.norm(z))

    def contains_margins(self, Z):
        return 1.0 - np.linalg.norm(np.asarray(Z, dtype=complex), axis=-1)

    def section_boundary_distance(self, x, v):
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        nv = np.linalg.norm(V, axis=1)
        c = np.abs(V @ x.conj())
        r2 = 1.0 - float(np.linalg.norm(x)) ** 2
        if r2 <= 0:
            raise NotInteriorError("x is not inside the ball")
        d = (np.sqrt(c * c + r2 * nv * nv) - c) / nv
        return float(d[0]) if single else d

    def supporting_half_spaces(self, near=None, count=config.HALF_SPACE_COUNT,
                               stream: SampleStream | None = None):
        out = []
        if near is not None:
            q = cvector(near)
            nq = np.linalg.norm(q)
            q = q / nq if nq > 0 else np.eye(self.dim, dtype=complex)[:, 0]
            out.append(half_space_through(q, q))
        stream = stream or SampleStream(0)
        for u in stream.unit_directions(count, self.dim):
            out.append(half_space_through(u, u))
        return out

    def metric_value(self, x, v):
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        s2 = 1.0 - float(np.linalg.norm(x)) ** 2
        if s2 <= 0:
            raise NotInteriorError("x is not inside the ball")
        nv2 = np.sum(np.abs(V) ** 2, axis=1)
        c2 = np.abs(V @ x.conj()) ** 2
        k = np.sqrt(s2 * nv2 + c2) / s2
        return float(k[0]) if single else k

    def distance_value(self, x, y):
        from .automorphisms import BallMobius
        x = self._check_dim(cvector(x))
        y = np.asarray(y, dtype=complex)
        phi = BallMobius(x)
        img = phi(y)
        t = np.linalg.norm(img, axis=-1) if y.ndim > 1 else np.linalg.norm(img)
        return np.arctanh(np.clip(t, 0.0, 1.0 - 1e-16))

    def gauge(self, v):
        v = np.asarray(v, dtype=complex)
        return np.linalg.norm(v, axis=-1)

    def interior_samples(self, count, stream: SampleStream):
        u = stream.unit_directions(count, self.dim)
        # radius ~ t^{1/2n} gives the uniform volume law on the 2n-real-dim ball
        t = stream.uniform(count) ** (1.0 / (2 * self.dim))
        return u * t[:, None]


class Polydisc(Domain):
    """Product of discs |z_alpha| < radii_alpha."""

    def __init__(self, radii):
        radii = np.asarray(radii, dtype=float)
        if radii.ndim != 1 or radii.size < 1 or np.any(radii <= 0):
            raise DegenerateInputError("radii must be positive")
        self.radii = radii
        self.dim = radii.size
        self.bounding_radius = float(np.linalg.norm(radii))
        self.basepoint = np.zeros(self.dim, dtype=complex)

    def contains(self, z) -> float:
        z = self._check_dim(z)
        return float(np.min(self.radii - np.abs(z)))

    def contains_margins(self, Z):
        return np.min(self.radii - np.abs(np.asarray(Z, dtype=complex)), axis=-1)

    def section_boundary_distance(self, x, v):
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        slack = self.radii - np.abs(x)
        if np.any(slack <= 0):
            raise NotInteriorError("x is not inside the polydisc")
        av = np.abs(V)
        with np.errstate(divide="ignore"):
            per = np.where(av > 0, slack[None, :] / np.where(av > 0, av, 1.0), np.inf)
        d = np.linalg.norm(V, axis=1) * per.min(axis=1)
        return float(d[0]) if single else d

    def supporting_half_spaces(self, near=None, count=config.HALF_SPACE_COUNT,
                               stream: SampleStream | None = None):
        out = []
        if near is not None:
            q = cvector(near)
            for k in range(self.dim):
                if abs(q[k]) > 0:
                    phase = q[k] / abs(q[k])
                    normal = np.zeros(self.dim, dtype=complex)
                    normal[k] = phase
                    out.append(SupportingHalfSpace(normal, self.radii[k],
                                                   normal * self.radii[k]))
        stream = stream or SampleStream(0)
        ph = stream.phases((count, self.dim))
        ks = stream.integers(0, self.dim, size=count)
        for i in range(count):
            k = int(ks[i])
            normal = np.zeros(self.dim, dtype=complex)
            normal[k] = ph[i, k]
            out.append(SupportingHalfSpace(normal, self.radii[k],
                                           normal * self.radii[k]))
        return out

    def metric_value(self, x, v):
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        denom = self.radii ** 2 - np.abs(x) ** 2
        if np.any(denom <= 0):
            raise NotInteriorError("x is not inside the polydisc")
        k = np.max(self.radii[None, :] * np.abs(V) / denom[None, :], axis=1)
        return float(k[0]) if single else k

    def distance_value(self, x, y):
        x = self._check_dim(cvector(x))
        y = np.asarray(y, dtype=complex)
        R = self.radii
        t = np.abs(R * (y - x) / (R * R - np.conj(x) * y))
        t = np.clip(t, 0.0, 1.0 - 1e-16)
        return np.max(np.arctanh(t), axis=-1)

    def gauge(self, v):
        v = np.asarray(v, dtype=complex)
        return np.max(np.abs(v) / self.radii, axis=-1)

    def interior_samples(self, count, stream: SampleStream):
        ph = stream.phases((count, self.dim))
        t = np.sqrt(stream.uniform((count, self.dim)))
        return ph * t * self.radii[None, :]


class HalfPlaneProduct(Domain):
    """Product of half-planes: Im z_alpha > 0 ("upper") or Re z_alpha < 0 ("left").

    Unbounded but hyperbolic; the declared bounding radius is infinite.  The two
    orientations are exact rotations of one another (see halfplane_rotation).
    """

    def __init__(self, dim: int, orientation: str = "upper"):
        if orientation not in ("upper", "left"):
            raise ValueError(f"unknown orientation {orientation!r}")
        if dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
        self.dim = int(dim)
        self.orientation = orientation
        self.bounding_radius = np.inf
        if orientation == "upper":
            self.basepoint = 1j * np.ones(self.dim, dtype=complex)
        else:
            self.basepoint = -np.ones(self.dim, dtype=complex)

    def _heights(self, z):
        z = np.asarray(z, dtype=complex)
        return z.imag if self.orientation == "upper" else -z.real

    def contains(self, z) -> float:
        z = self._check_dim(z)
        return float(np.min(self._heights(z)))

    def contains_margins(self, Z):
        return np.min(self._heights(Z), axis=-1)

    def section_boundary_distance(self, x, v):
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        h = self._heights(x)
        if np.any(h <= 0):
            raise NotInteriorError("x is not inside the half-plane product")
        av = np.abs(V)
        with np.errstate(divide="ignore"):
            per = np.where(av > 0, h[None, :] / np.where(av > 0, av, 1.0), np.inf)
        d = np.linalg.norm(V, axis=1) * per.min(axis=1)
        if np.any(~np.isfinite(d)):
            raise DegenerateInputError("section has no boundary in this direction")
        return float(d[0]) if single else d

    def supporting_half_spaces(self, near=None, count=config.HALF_SPACE_COUNT,
                               stream: SampleStream | None = None):
        # the n flat faces; the sampled extras coincide with them
        out = []
        for k in range(self.dim):
            normal = np.zeros(self.dim, dtype=complex)
            normal[k] = -1j if self.orientation == "upper" else 1.0
            out.append(SupportingHalfSpace(normal, 0.0, np.zeros(self.dim, dtype=complex)))
        return out

    def metric_value(self, x, v):
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        h = self._heights(x)
        if np.any(h <= 0):
            raise NotInteriorError("x is not inside the half-plane product")
        k = np.max(np.abs(V) / (2.0 * h[None, :]), axis=1)
        return float(k[0]) if single else k

    def distance_value(self, x, y):
        x = self._check_dim(cvector(x))
        y = np.asarray(y, dtype=complex)
        if self.orientation == "upper":
            t = np.abs((y - x) / (y - np.conj(x)))
        else:
            t = np.abs((y - x) / (y + np.conj(x)))
        t = np.clip(t, 0.0, 1.0 - 1e-16)
        return np.max(np.arctanh(t), axis=-1)

    def interior_samples(self, count, stream: SampleStream):
        # heights log-uniform in [e^-2, e^2], offsets Cauchy-ish via tan
        h = np.exp(stream.uniform((count, self.dim), -2.0, 2.0))
        off = np.tan(stream.uniform((count, self.dim), -1.2, 1.2))
        z = off + 1j * h
        if self.orientation == "left":
            z = -h + 1j * off
        return z


def halfplane_rotation(dim: int, frm: str, to: str) -> CLinearMap:
    """Exact unitary rotation carrying one half-plane orientation to the other."""
    if frm == to:
        return CLinearMap.identity(dim)
    if (frm, to) == ("left", "upper"):
        # Re z < 0  ->  Im(-i z) = -Re z > 0
        return CLinearMap.diagonal([-1j] * dim)
    if (frm, to) == ("upper", "left"):
        return CLinearMap.diagonal([1j] * dim)
    raise ValueError(f"unknown orientations {frm!r} -> {to!r}")


class ConvexPolyhedron(Domain):
    """Intersection of modulus faces |f_k(z)| < c_k and real faces Re<z,a_k> < b_k.

    Convexity holds automatically (each face set is convex). Boundedness is
    declared via ``bounding_radius`` and spot-checked by sampling, not inferred.
    """

    def __init__(self, faces, dim: int, basepoint=None, bounding_radius=None,
                 name: str = ""):
        self.dim = int(dim)
        self.name = name
        mods, reals = [], []
        for f in faces:
            if isinstance(f, ModulusFace):
                c = cvector(f.coeffs)
                if c.size != dim:
                    raise DimensionMismatchError("face coefficient length mismatch")
                if np.linalg.norm(c) == 0 or f.bound <= 0:
                    raise DegenerateInputError("modulus face must have nonzero "
                                               "coefficients and positive bound")
                mods.append(ModulusFace(c, complex(f.const), float(f.bound)))
            elif isinstance(f, RealFace):
                a = cvector(f.normal)
                na = np.linalg.norm(a)
                if na == 0:
                    raise DegenerateInputError("real face normal must be nonzero")
                reals.append(RealFace(a / na, float(f.offset) / na))
            else:
                raise UnsupportedKindError(f"unknown face type {type(f).__name__}")
        if not mods and not reals:
            raise DegenerateInputError("polyhedron needs at least one face")
        self.modulus_faces = tuple(mods)
        self.real_faces = tuple(reals)
        # stacked arrays for vectorized evaluation
        self._W = (np.stack([f.coeffs for f in mods]) if mods
                   else np.zeros((0, dim), dtype=complex))
        self._wd = np.array([f.const for f in mods], dtype=complex)
        self._wc = np.array([f.bound for f in mods], dtype=float)
        self._wn = np.linalg.norm(self._W, axis=1) if mods else np.zeros(0)
        self._A = (np.stack([f.normal for f in reals]) if reals
                   else np.zeros((0, dim), dtype=complex))
        self._ab = np.array([f.offset for f in reals], dtype=float)

        self.basepoint = (np.zeros(dim, dtype=complex) if basepoint is None
                          else cvector(basepoint))
        if bounding_radius is None:
            raise DegenerateInputError("polyhedron requires a declared bounding radius")
        self.bounding_radius = float(bounding_radius)
        if self.contains(self.basepoint) <= 0:
            raise NotInteriorError("declared basepoint is not interior")

    def face_values(self, z):
        """(|f_k(z)| stack, Re-face excesses) for z of shape (..., n)."""
        z = np.asarray(z, dtype=complex)
        mv = np.abs(z @ self._W.T + self._wd) if self._W.size else None
        rv = (np.real(z @ self._A.conj().T) - self._ab) if self._A.size else None
        return mv, rv

    def contains(self, z) -> float:
        z = self._check_dim(z)
        mv, rv = self.face_values(z)
        margins = []
        if mv is not None:
            margins.append(np.min((self._wc - mv) / self._wn))
        if rv is not None:
            margins.append(np.min(-rv))
        return float(min(margins))

    def contains_margins(self, Z):
        """Vectorized membership margins for a stack of points."""
        Z = np.asarray(Z, dtype=complex)
        mv, rv = self.face_values(Z)
        parts = []
        if mv is not None:
            parts.append(np.min((self._wc - mv) / self._wn, axis=-1))
        if rv is not None:
            parts.append(np.min(-rv, axis=-1))
        return np.min(np.stack(parts), axis=0) if len(parts) > 1 else parts[0]

    def section_boundary_distance(self, x, v):
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        nv = np.linalg.norm(V, axis=1)
        per = np.full((V.shape[0],), np.inf)
        if self._W.size:
            fx = np.abs(x @ self._W.T + self._wd)
            if np.any(fx >= self._wc):
                raise NotInteriorError("x is not inside the polyhedron")
            fl = np.abs(V @ self._W.T)  # |f_lin(v_i)| per face
            with np.errstate(divide="ignore"):
                dist = np.where(fl > 0, (self._wc - fx)[None, :] / np.where(fl > 0, fl, 1.0),
                                np.inf)
            per = np.minimum(per, dist.min(axis=1))
        if self._A.size:
            rx = np.real(x @ self._A.conj().T) - self._ab
            if np.any(rx >= 0):
                raise NotInteriorError("x is not inside the polyhedron")
            s = np.abs(V @ self._A.conj().T)
            with np.errstate(divide="ignore"):
                dist = np.where(s > 0, (-rx)[None, :] / np.where(s > 0, s, 1.0), np.inf)
            per = np.minimum(per, dist.min(axis=1))
        d = nv * per
        if np.any(~np.isfinite(d)):
            raise DegenerateInputError("section has no boundary in this direction")
        return float(d[0]) if single else d

    def supporting_half_spaces(self, near=None, count=config.HALF_SPACE_COUNT,
                               stream: SampleStream | None = None):
        """Tangent half-spaces of every face, phased at ``near`` for modulus faces.

        For a modulus face the complex tangent hyperplane closest to ``near`` is
        f(z) = c e^{i arg f(near)}; the associated real supporting half-space is
        Re<z, phase * w / |w|> < (c - Re(conj(phase) d)) / |w| -- exact, so no
        extra sampled half-spaces are needed for polyhedra.
        """
        ref = cvector(near) if near is not None else self.basepoint
        out = []
        for f in self.modulus_faces:
            val = complex(f.value(ref))
            phase = val / abs(val) if abs(val) > 0 else 1.0
            w = np.conj(f.coeffs) * phase   # Hermitian normal of Re<z, n> form
            nw = np.linalg.norm(w)
            normal = w / nw
            offset = (f.bound - np.real(np.conj(phase) * f.const)) / nw
            base = normal * offset
            out.append(SupportingHalfSpace(normal, float(offset), base))
        for f in self.real_faces:
            out.append(SupportingHalfSpace(f.normal, f.offset, f.normal * f.offset))
        return out

    def coordinate_bounds(self):
        """Per-coordinate sup |z_alpha| upper bounds from matching faces."""
        bounds = np.full(self.dim, self.bounding_radius)
        for f in self.modulus_faces:
            nz = np.flatnonzero(np.abs(f.coeffs) > 0)
            if nz.size == 1 and f.const == 0:
                k = int(nz[0])
                bounds[k] = min(bounds[k], f.bound / abs(f.coeffs[k]))
        return bounds

    def gauge(self, v):
        """Minkowski gauge when every face is balanced (modulus faces, const 0)."""
        if self.real_faces or (self._wd.size and np.any(self._wd != 0)):
            return None
        v = np.asarray(v, dtype=complex)
        return np.max(np.abs(v @ self._W.T) / self._wc, axis=-1)

    def interior_samples(self, count, stream: SampleStream):
        cb = self.coordinate_bounds()
        out = np.empty((count, self.dim), dtype=complex)
        have = 0
        attempts = 0
        while have < count:
            attempts += 1
            if attempts > 2000:
                raise DegenerateInputError("interior sampling starved; check faces "
                                           "and bounding radius")
            m = max(count - have, 64)
            ph = stream.phases((m, self.dim))
            t = np.sqrt(stream.uniform((m, self.dim)))
            Z = ph * t * cb[None, :]
            ok = self.contains_margins(Z) > 0
            take = Z[ok][: count - have]
            out[have:have + take.shape[0]] = take
            have += take.shape[0]
        return out


# Rows of a paired section query bisected together: each gauge call then sees
# at most 32 * rays points, however many rows the query has, which bounds the
# bisection's temporaries.
_SECTION_BLOCK = 32


class BalancedConvex(Domain):
    """Balanced convex body {g < 1} given by a homogeneous gauge oracle.

    ``inner_radius``/``bounding_radius`` declare a Euclidean annulus
    B(0, inner) subset {g < 1} subset B(0, bounding); both are spot-checked by
    sampling at construction, as is |c|-homogeneity of the gauge.

    The supporting half-spaces come from finite-difference gradients, which
    can cut the body by roundoff, so lower bounds built on them are tagged
    heuristic ("half-space-fd").
    """

    lower_method = "half-space-fd"

    def __init__(self, gauge, dim: int, bounding_radius: float, inner_radius: float,
                 check_samples: int = 64, seed: int = 0):
        self.dim = int(dim)
        self._gauge = gauge
        self.bounding_radius = float(bounding_radius)
        self.inner_radius = float(inner_radius)
        self.basepoint = np.zeros(self.dim, dtype=complex)
        if not (0 < self.inner_radius <= self.bounding_radius < np.inf):
            raise DegenerateInputError("need 0 < inner_radius <= bounding_radius < inf")
        stream = SampleStream(seed)
        U = stream.unit_directions(check_samples, self.dim)
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
        try:
            out = np.asarray(self._gauge(v), dtype=float)
            if out.shape == v.shape[:-1]:
                return out
        except Exception:
            pass
        return np.array([float(self._gauge(row)) for row in v])

    def contains(self, z) -> float:
        z = self._check_dim(z)
        return (1.0 - float(self.gauge(z))) * self.inner_radius

    def contains_margins(self, Z):
        # > 0 exactly when g < 1
        return (1.0 - self.gauge(np.asarray(Z, dtype=complex))) * self.inner_radius

    def section_boundary_distance(self, x, v, rays: int = config.SECTION_RAYS):
        """Section distances from one point x; see ``section_distance_paired``."""
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        out = self.section_distance_paired(np.broadcast_to(x, V.shape), V, rays)
        return float(out[0]) if single else out

    def section_distance_paired(self, P, V, rays: int = config.SECTION_RAYS):
        """Row-paired section distances: row i is through P[i] along V[i].

        Exact disc radius at the center; off center, boundary points along
        ``rays`` planar directions are found by bisection and the inradius of
        their convex hull is returned -- a certified lower bound on the true
        section distance (the section is convex, so it contains the sampled
        polygon).  Off-center rows are bisected together, _SECTION_BLOCK rows
        at a time.
        """
        P = self._check_dim(P)
        V = self._check_dim(V)
        nv = np.linalg.norm(V, axis=1)
        if np.any(nv == 0.0):
            raise DegenerateInputError("zero direction")
        out = np.empty(P.shape[0])
        centre = ~np.any(P != 0, axis=1)
        off = np.flatnonzero(~centre)
        if off.size and np.any(self.gauge(P[off]) >= 1.0):
            raise NotInteriorError("x is not inside the body")
        if np.any(centre):
            out[centre] = nv[centre] / self.gauge(V[centre])
        phase = np.exp(2j * np.pi * np.arange(rays) / rays)
        for start in range(0, off.size, _SECTION_BLOCK):
            rows = off[start:start + _SECTION_BLOCK]
            out[rows] = self._polygon_inradius(P[rows], V[rows] / nv[rows, None], phase)
        return out

    def _polygon_inradius(self, X, vhat, phase):
        """Inradius about X[i] of the polygon of ray boundary hits along
        vhat[i] * phase, bisected on the gauge."""
        n, rays = X.shape[0], phase.size
        dirs = vhat[:, None, :] * phase[None, :, None]          # (n, rays, dim)
        lo = np.zeros((n, rays))
        hi = np.full((n, rays), 2.0 * self.bounding_radius)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            Z = (X[:, None, :] + mid[:, :, None] * dirs).reshape(-1, self.dim)
            inside = self.gauge(Z).reshape(n, rays) < 1.0
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        # inradius of the inscribed polygon around 0 in section coordinates
        a = lo * phase[None, :]
        b = np.roll(a, -1, axis=1)
        seg = b - a
        L2 = np.abs(seg) ** 2
        ts = np.clip(-np.real(a * np.conj(seg)) / np.where(L2 > 0, L2, 1.0),
                     0.0, 1.0)
        return np.min(np.abs(a + ts * seg), axis=1)

    def supporting_half_spaces(self, near=None, count=config.HALF_SPACE_COUNT,
                               stream: SampleStream | None = None, h: float = 1e-6):
        """Numerical tangent half-spaces at boundary points near ``near``.

        The gauge is convex, so the tangent plane at a boundary point supports
        the body; gradients come from central differences.  One gauge call finds
        every boundary point and a second takes every difference step.
        """
        stream = stream or SampleStream(0)
        dirs = []
        if near is not None:
            q = cvector(near)
            if np.linalg.norm(q) > 0:
                dirs.append(q / np.linalg.norm(q))
        base_dirs = stream.unit_directions(max(count, 2 * self.dim), self.dim)
        if dirs:
            # jitter around the reference direction to honour 'near'
            mixed = dirs[0][None, :] + 0.35 * base_dirs
            mixed /= np.linalg.norm(mixed, axis=1, keepdims=True)
            base_dirs = np.vstack([base_dirs[: count // 2], mixed[: count - count // 2]])
        U = np.vstack(dirs + [base_dirs])
        n = self.dim
        Y = U / self.gauge(U)[:, None]  # boundary points on the rays
        # steps h and i h along each coordinate, in the order Re z_0, Im z_0, ...
        E = np.zeros((2 * n, n), dtype=complex)
        E[0::2] = h * np.eye(n)
        E[1::2] = 1j * h * np.eye(n)
        steps = np.stack([Y[:, None, :] + E, Y[:, None, :] - E])  # (2, k, 2n, n)
        g = self.gauge(steps.reshape(-1, n)).reshape(steps.shape[:-1])
        grad = (g[0] - g[1]) / (2 * h)
        out = []
        for y, normal in zip(Y, grad[:, 0::2] + 1j * grad[:, 1::2]):
            if np.linalg.norm(normal) == 0:
                continue
            out.append(half_space_through(normal, y))
        if not out:
            raise DegenerateInputError("no supporting half-spaces found")
        return out

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
        self.basepoint = affine(inner.basepoint)
        if np.isfinite(inner.bounding_radius):
            self.bounding_radius = (self._sv_max * inner.bounding_radius
                                    + float(np.linalg.norm(affine.translation)))
        else:
            self.bounding_radius = np.inf

    @property
    def lower_method(self) -> str:
        return self.inner.lower_method

    def contains(self, z) -> float:
        z = self._check_dim(z)
        return self.inner.contains(self.map_inv(z)) * self._sv_min

    def contains_margins(self, Z):
        return self.inner.contains_margins(self.map_inv(Z)) * self._sv_min

    def section_boundary_distance(self, x, v):
        x = self._check_dim(cvector(x))
        V, single = _as_direction_stack(v, self.dim)
        xp = self.map_inv(x)
        Vp = V @ self.map_inv.linear.matrix.T
        nv = np.linalg.norm(V, axis=1)
        nvp = np.linalg.norm(Vp, axis=1)
        d = self.inner.section_boundary_distance(xp, Vp)
        d = np.atleast_1d(d) * nv / nvp
        return float(d[0]) if single else d

    def supporting_half_spaces(self, near=None, count=config.HALF_SPACE_COUNT,
                               stream: SampleStream | None = None):
        nearp = self.map_inv(cvector(near)) if near is not None else None
        out = []
        Linv_star = self.map_inv.linear.matrix.conj().T
        for hs in self.inner.supporting_half_spaces(near=nearp, count=count,
                                                    stream=stream):
            normal = Linv_star @ hs.normal
            out.append(half_space_through(normal, self.map(hs.base)))
        return out

    def metric_value(self, x, v):
        xp = self.map_inv(self._check_dim(cvector(x)))
        V, single = _as_direction_stack(v, self.dim)
        Vp = V @ self.map_inv.linear.matrix.T
        val = self.inner.metric_value(xp, Vp if not single else Vp[0])
        return val

    def distance_value(self, x, y):
        xp = self.map_inv(cvector(x))
        y = np.asarray(y, dtype=complex)
        return self.inner.distance_value(xp, self.map_inv(y))

    def gauge(self, v):
        if np.any(np.abs(self.map.translation) > 0):
            return None  # translate breaks balancedness about 0
        probe = np.ones(self.dim, dtype=complex)
        if self.inner.gauge(probe) is None:
            return None
        v = np.asarray(v, dtype=complex)
        return self.inner.gauge(v @ self.map_inv.linear.matrix.T)

    def interior_samples(self, count, stream: SampleStream):
        return self.map(self.inner.interior_samples(count, stream))


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
    return ConvexPolyhedron([ModulusFace(c, 0.0, float(sk)) for c, sk in zip(C, s)],
                            dim, None, float(np.linalg.norm(s) / sv[-1]), name=name)


def convexity_witness(domain: Domain, samples: int = config.CONVEXITY_WITNESS_SAMPLES,
                      seed: int = 0) -> float:
    """Worst midpoint margin over sampled interior pairs (>= 0 for convex sets)."""
    stream = SampleStream(seed)
    pts = domain.interior_samples(2 * samples, stream)
    mids = 0.5 * (pts[:samples] + pts[samples:])
    worst = np.inf
    for m in mids:
        worst = min(worst, domain.contains(m))
    return float(worst)


def model_automorphism(domain: Domain, frm, to):
    """Automorphism of a model domain sending ``frm`` to ``to``, with exact
    derivatives; raises UnsupportedKindError off the model kinds."""
    from .automorphisms import BallMobius, ComposedMap, ComponentwiseMap, IdentityMap, Mobius1D

    frm = cvector(frm)
    to = cvector(to)
    domain.require_interior(frm, "source point")
    domain.require_interior(to, "target point")
    if isinstance(domain, UnitBall):
        if not np.any(frm) and not np.any(to):
            phi = IdentityMap(domain.dim)
        else:
            phi = ComposedMap([BallMobius(frm), BallMobius(to)])
    elif isinstance(domain, Polydisc):
        phi = ComponentwiseMap([
            Mobius1D.disc_move(frm[k], to[k], domain.radii[k])
            for k in range(domain.dim)])
    elif isinstance(domain, HalfPlaneProduct):
        phi = ComponentwiseMap([
            Mobius1D.halfplane_move(frm[k], to[k], domain.orientation)
            for k in range(domain.dim)])
    else:
        raise UnsupportedKindError(
            f"no automorphism model for {type(domain).__name__}")
    err = np.linalg.norm(phi(frm) - to)
    if err > config.AUTOMORPHISM_MAP_TOL:
        raise SingularMapError(f"automorphism misses its target by {err:.3e}")
    return phi


class AutomorphismFamily:
    """Schedule t -> automorphism of a model domain dragging a base point toward
    a boundary target: member t sends ``base`` to base + (1 - 2^-t)(target - base)."""

    def __init__(self, model: Domain, target, base=None):
        self.model = model
        self.target = cvector(target)
        self.base = model.basepoint if base is None else cvector(base)
        model.require_interior(self.base, "family base point")

    def point_at(self, t: float):
        return self.base + (1.0 - 2.0 ** (-float(t))) * (self.target - self.base)

    def automorphism(self, t: float):
        return model_automorphism(self.model, self.base, self.point_at(t))


# ---------------------------------------------------------------------------
# JSON domain specifications
# ---------------------------------------------------------------------------

def _load_complex(obj, loc):
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, str):
        try:
            return complex(obj.replace(" ", ""))
        except ValueError:
            raise SpecLoadError("cannot parse complex number", loc)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(
            isinstance(x, (int, float)) for x in obj):
        return complex(obj[0], obj[1])
    raise SpecLoadError("expected a number, [re, im] pair, or complex string", loc)


def _load_cvector(obj, loc, dim=None):
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
    if types is not None and not isinstance(val, types):
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
                    isinstance(r, (int, float)) and r > 0 for r in radii):
                raise SpecLoadError("radii must be a list of positive numbers",
                                    f"{p}radii")
        else:
            radii = [1.0] * _require(obj, "dim", f"{p}dim", int)
        return Polydisc(radii)
    if kind == "halfplane":
        dim = _require(obj, "dim", f"{p}dim", int)
        orientation = obj.get("orientation", "upper")
        if orientation not in ("upper", "left"):
            raise SpecLoadError("orientation must be 'upper' or 'left'",
                                f"{p}orientation")
        return HalfPlaneProduct(dim, orientation)
    if kind == "polyhedron":
        dim = _require(obj, "dim", f"{p}dim", int)
        faces_obj = _require(obj, "faces", f"{p}faces", list)
        faces = []
        for i, fo in enumerate(faces_obj):
            floc = f"{p}faces[{i}]"
            if not isinstance(fo, dict):
                raise SpecLoadError("face must be an object", floc)
            ftype = _require(fo, "type", f"{floc}.type", str)
            if ftype == "modulus":
                coeffs = _load_cvector(_require(fo, "coeffs", f"{floc}.coeffs"),
                                       f"{floc}.coeffs", dim)
                const = _load_complex(fo.get("const", 0.0), f"{floc}.const")
                bound = _require(fo, "bound", f"{floc}.bound", (int, float))
                if bound <= 0:
                    raise SpecLoadError("bound must be positive", f"{floc}.bound")
                faces.append(ModulusFace(coeffs, const, float(bound)))
            elif ftype == "real":
                normal = _load_cvector(_require(fo, "normal", f"{floc}.normal"),
                                       f"{floc}.normal", dim)
                offset = _require(fo, "offset", f"{floc}.offset", (int, float))
                faces.append(RealFace(normal, float(offset)))
            else:
                raise SpecLoadError(f"unknown face type {ftype!r}", f"{floc}.type")
        br = _require(obj, "bounding_radius", f"{p}bounding_radius", (int, float))
        basepoint = (np.zeros(dim, dtype=complex) if "basepoint" not in obj else
                     _load_cvector(obj["basepoint"], f"{p}basepoint", dim))
        try:
            return ConvexPolyhedron(faces, dim, basepoint, br,
                                    name=obj.get("name", ""))
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
            coeffs.append(_load_cvector(_require(fo, "coeffs", f"{floc}.coeffs"),
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
        rows = [_load_cvector(r, f"{p}matrix[{i}]", inner.dim)
                for i, r in enumerate(mat_obj)]
        if len(rows) != inner.dim:
            raise SpecLoadError(f"expected {inner.dim} rows", f"{p}matrix")
        translation = (np.zeros(inner.dim, dtype=complex) if "translation" not in obj
                       else _load_cvector(obj["translation"], f"{p}translation",
                                          inner.dim))
        try:
            amap = AffineMap(CLinearMap(np.stack(rows)), translation)
            amap.inverse()
        except (SingularMapError, DimensionMismatchError) as exc:
            raise SpecLoadError(str(exc), f"{p}matrix")
        return AffineImage(inner, amap)
    raise SpecLoadError(f"unknown domain kind {kind!r}", f"{p}kind")
