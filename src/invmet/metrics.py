"""Kobayashi-Royden metric and distance with certified two-sided bounds.

Closed forms on the model domains (ball, polydisc, half-plane products, and
their affine images) make both sides of every bound coincide.  On general
convex domains the upper bound comes from the affine disc inscribed in the
planar section through (x, v) and the lower bound from holomorphic projections
onto supporting half-spaces; both directions are certified by monotonicity of
the metric under holomorphic maps, so lower <= K <= upper always holds.

Distance conventions: "standard" pairs the metric |v|/(2 Im z) on the upper
half-plane with the distance tanh^{-1}|.|, its actual integral.  "paper"
doubles all distances (2 tanh^{-1}); the lambda function of `domination`
switches its tanh parameter accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .core import cvector
from .domains import (
    AffineImage,
    ConvexPolyhedron,
    Domain,
    HalfPlaneProduct,
    Polydisc,
    UnitBall,
)
from .errors import DegenerateInputError, NotInteriorError, UnboundedValueError
from .sampling import SampleStream

CONVENTIONS = ("standard", "paper")


def distance_scale(convention: str) -> float:
    """Factor applied to standard (tanh^{-1}) distances: 1 or 2."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; pick from {CONVENTIONS}")
    return 2.0 if convention == "paper" else 1.0


@dataclass(frozen=True)
class MetricBound:
    """Certified interval for a metric value, with per-side method tags."""

    lower: float
    upper: float
    lower_method: str = "closed-form"
    upper_method: str = "closed-form"

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError(f"invalid bound [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def value(self) -> float:
        """Midpoint; equals the exact value when the bracket is degenerate."""
        return 0.5 * (self.lower + self.upper)

    @property
    def is_exact(self) -> bool:
        return self.width <= config.MODEL_BRACKET_TOL * max(1.0, self.upper)


@dataclass(frozen=True)
class DistanceBound:
    lower: float
    upper: float
    lower_method: str = "closed-form"
    upper_method: str = "closed-form"

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# Paired evaluators: stacks of (point, direction) rows, exact on models
# ---------------------------------------------------------------------------

def _exact_paired(d: Domain, P, V):
    """Exact metric values for row-paired points/directions, or None."""
    if isinstance(d, UnitBall):
        s2 = 1.0 - np.sum(np.abs(P) ** 2, axis=1)
        if np.any(s2 <= 0):
            raise NotInteriorError("point outside the ball")
        nv2 = np.sum(np.abs(V) ** 2, axis=1)
        c2 = np.abs(np.sum(V * P.conj(), axis=1)) ** 2
        return np.sqrt(s2 * nv2 + c2) / s2
    if isinstance(d, Polydisc):
        den = d.radii[None, :] ** 2 - np.abs(P) ** 2
        if np.any(den <= 0):
            raise NotInteriorError("point outside the polydisc")
        return np.max(d.radii[None, :] * np.abs(V) / den, axis=1)
    if isinstance(d, HalfPlaneProduct):
        h = P.imag if d.orientation == "upper" else -P.real
        if np.any(h <= 0):
            raise NotInteriorError("point outside the half-plane product")
        return np.max(np.abs(V) / (2.0 * h), axis=1)
    if isinstance(d, AffineImage):
        Minv = d.map_inv.linear.matrix
        inner = _exact_paired(d.inner, d.map_inv(P), V @ Minv.T)
        return inner
    return None


def _section_distance_paired(d: Domain, P, V):
    """Distance from P_i to the boundary of the section through direction V_i."""
    if isinstance(d, ConvexPolyhedron):
        nv = np.linalg.norm(V, axis=1)
        per = np.full(P.shape[0], np.inf)
        if d._W.size:
            fx = np.abs(P @ d._W.T + d._wd)
            if np.any(fx >= d._wc):
                raise NotInteriorError("point outside the polyhedron")
            fl = np.abs(V @ d._W.T)
            with np.errstate(divide="ignore"):
                t = np.where(fl > 0, (d._wc[None, :] - fx) / np.where(fl > 0, fl, 1.0),
                             np.inf)
            per = np.minimum(per, t.min(axis=1))
        if d._A.size:
            rx = np.real(P @ d._A.conj().T) - d._ab
            if np.any(rx >= 0):
                raise NotInteriorError("point outside the polyhedron")
            s = np.abs(V @ d._A.conj().T)
            with np.errstate(divide="ignore"):
                t = np.where(s > 0, -rx / np.where(s > 0, s, 1.0), np.inf)
            per = np.minimum(per, t.min(axis=1))
        return nv * per
    if isinstance(d, AffineImage):
        Pp = d.map_inv(P)
        Vp = V @ d.map_inv.linear.matrix.T
        inner = _section_distance_paired(d.inner, Pp, Vp)
        return inner * np.linalg.norm(V, axis=1) / np.linalg.norm(Vp, axis=1)
    if isinstance(d, UnitBall):
        nv = np.linalg.norm(V, axis=1)
        c = np.abs(np.sum(V * P.conj(), axis=1))
        r2 = 1.0 - np.sum(np.abs(P) ** 2, axis=1)
        if np.any(r2 <= 0):
            raise NotInteriorError("point outside the ball")
        return (np.sqrt(c * c + r2 * nv * nv) - c) / nv
    if isinstance(d, (Polydisc, HalfPlaneProduct)):
        if isinstance(d, Polydisc):
            slack = d.radii[None, :] - np.abs(P)
        else:
            slack = P.imag if d.orientation == "upper" else -P.real
        if np.any(slack <= 0):
            raise NotInteriorError("point outside the domain")
        av = np.abs(V)
        with np.errstate(divide="ignore"):
            t = np.where(av > 0, slack / np.where(av > 0, av, 1.0), np.inf)
        return np.linalg.norm(V, axis=1) * t.min(axis=1)
    return d.section_distance_paired(P, V)


def metric_upper_paired(d: Domain, P, V):
    """Certified upper bound for row-paired (point, direction) stacks."""
    P = np.asarray(P, dtype=complex)
    V = np.asarray(V, dtype=complex)
    exact = _exact_paired(d, P, V)
    if exact is not None:
        return exact
    return np.linalg.norm(V, axis=1) / _section_distance_paired(d, P, V)


def _polyhedron_lower_paired(d: ConvexPolyhedron, P, V):
    """max over faces of the half-plane metric of the face projection.

    For a modulus face the tangent-plane phase that maximizes the bound is
    arg f(x), and the resulting value |f_lin(v)| / (2(c - |f(x)|)) does not
    depend on the phase, so the optimum is exact and vectorizes.
    """
    best = np.zeros(P.shape[0])
    if d._W.size:
        fx = np.abs(P @ d._W.T + d._wd)
        fl = np.abs(V @ d._W.T)
        best = np.max(fl / (2.0 * (d._wc[None, :] - fx)), axis=1)
    if d._A.size:
        rx = d._ab[None, :] - np.real(P @ d._A.conj().T)
        s = np.abs(V @ d._A.conj().T)
        best = np.maximum(best, np.max(s / (2.0 * rx), axis=1))
    return best


def metric_lower_paired(d: Domain, P, V, stream: SampleStream | None = None):
    """Certified lower bound for row-paired stacks (exact on models)."""
    P = np.asarray(P, dtype=complex)
    V = np.asarray(V, dtype=complex)
    exact = _exact_paired(d, P, V)
    if exact is not None:
        return exact
    if isinstance(d, ConvexPolyhedron):
        return _polyhedron_lower_paired(d, P, V)
    if isinstance(d, AffineImage):
        return metric_lower_paired(d.inner, d.map_inv(P),
                                   V @ d.map_inv.linear.matrix.T, stream)
    stream = stream or SampleStream(0)
    return np.array([_lower_via_half_spaces(d, P[i], V[i], stream.fork(i))
                     for i in range(P.shape[0])])


def _section_nearest_boundary_point(d: Domain, x, v, rays: int = 24):
    """Approximate nearest boundary point of the planar section through (x, v)."""
    if not np.isfinite(d.bounding_radius):
        return x  # no finite bracket to bisect
    vhat = v / np.linalg.norm(v)
    th = np.linspace(0.0, 2.0 * np.pi, rays, endpoint=False)
    dirs = np.exp(1j * th)[:, None] * vhat[None, :]
    lo = np.zeros(rays)
    hi = np.full(rays, 2.0 * d.bounding_radius)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        inside = d.contains_margins(x[None, :] + mid[:, None] * dirs) > 0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    k = int(np.argmin(lo))
    return x + lo[k] * dirs[k]


def _lower_via_half_spaces(d: Domain, x, v, stream: SampleStream,
                           count: int = config.HALF_SPACE_COUNT) -> float:
    """Half-space projection bound near the section's nearest boundary point."""
    near = _section_nearest_boundary_point(d, x, v)
    best = 0.0
    for hs in d.supporting_half_spaces(near=near, count=count, stream=stream):
        gap = float(hs.distance_inside(x))
        if gap <= 0:
            continue
        best = max(best, abs(complex(v @ hs.normal.conj())) / (2.0 * gap))
    # bounding-sphere floor: a supporting half-space with normal v/|v| exists
    # within distance |x| + R of x, giving K >= |v| / (2(|x| + R))
    if np.isfinite(d.bounding_radius):
        best = max(best, float(np.linalg.norm(v))
                   / (2.0 * (np.linalg.norm(x) + d.bounding_radius)))
    return best


# ---------------------------------------------------------------------------
# Public single-evaluation API
# ---------------------------------------------------------------------------

def kobayashi_metric(d: Domain, x, v, *, seed: int = 0,
                     half_space_count: int = config.HALF_SPACE_COUNT) -> MetricBound:
    """Certified bounds for the infinitesimal metric K(x; v).

    Model domains (and their affine images) return a degenerate bracket from
    closed forms.  Homogeneity K(x; cv) = |c| K(x; v) is exact by construction:
    the direction is normalized first and the bound scaled back.
    """
    x = cvector(x)
    v = cvector(v)
    if x.size != d.dim or v.size != d.dim:
        raise DegenerateInputError(f"expected vectors of length {d.dim}")
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise DegenerateInputError("direction must be nonzero")
    d.require_interior(x, "base point")
    if not np.isfinite(d.bounding_radius) and d.metric_value(x, v) is None:
        raise UnboundedValueError("unbounded domain without a closed-form metric")
    vhat = v / nv
    exact = d.metric_value(x, vhat)
    if exact is not None:
        val = float(exact) * nv
        return MetricBound(val, val)
    upper = float(metric_upper_paired(d, x[None, :], vhat[None, :])[0]) * nv
    if isinstance(d, (ConvexPolyhedron, AffineImage)):
        lower = float(metric_lower_paired(d, x[None, :], vhat[None, :])[0]) * nv
    else:
        lower = _lower_via_half_spaces(d, x, vhat, SampleStream(seed),
                                       half_space_count) * nv
    return MetricBound(min(lower, upper), upper,
                       lower_method=d.lower_method, upper_method="affine-disc")


def kobayashi_metric_values(d: Domain, x, V, *, which: str = "mid",
                            stream: SampleStream | None = None):
    """Batch bounds at one base point for a stack of directions.

    which: "mid" (bracket midpoint), "upper", "lower", or "both".
    """
    x = cvector(x)
    V = np.asarray(V, dtype=complex)
    P = np.broadcast_to(x, V.shape)
    exact = _exact_paired(d, P, V)
    if exact is not None:
        if which == "both":
            return exact, exact.copy()
        return exact
    upper = metric_upper_paired(d, P, V)
    if which == "upper":
        return upper
    lower = metric_lower_paired(d, P, V, stream)
    lower = np.minimum(lower, upper)
    if which == "lower":
        return lower
    if which == "both":
        return lower, upper
    return 0.5 * (lower + upper)


def _segment_upper_integrand(d: Domain, x, y, ts):
    w = y - x
    P = x[None, :] + ts[:, None] * w[None, :]
    V = np.broadcast_to(w, P.shape)
    return metric_upper_paired(d, P, V)


def kobayashi_distance(d: Domain, x, y, *, convention: str = "standard",
                       tol: float = config.QUADRATURE_TOL,
                       seed: int = 0,
                       half_space_count: int = config.HALF_SPACE_COUNT) -> DistanceBound:
    """Certified bounds for the induced distance.

    Upper: trapezoid quadrature of the metric upper bound along [x, y]; the
    integrand is convex along the segment (the section distance is concave),
    so every trapezoid refinement overestimates the integral and the result
    is one-sided safe.  Lower: max over supporting half-spaces of the
    hyperbolic distance between the projections of x and y.
    """
    scale = distance_scale(convention)
    x = cvector(x)
    y = cvector(y)
    d.require_interior(x, "first point")
    d.require_interior(y, "second point")
    exact = d.distance_value(x, y)
    if exact is not None:
        val = float(exact) * scale
        return DistanceBound(val, val)
    if not np.isfinite(d.bounding_radius):
        raise UnboundedValueError("unbounded domain without a closed-form distance")
    if np.linalg.norm(y - x) == 0.0:
        return DistanceBound(0.0, 0.0, "coincident", "coincident")

    # upper: adaptive trapezoid, doubling nodes until stable
    ts = np.linspace(0.0, 1.0, 9)
    vals = _segment_upper_integrand(d, x, y, ts)
    est = float(np.trapezoid(vals, ts))
    delta = np.inf
    for _ in range(14):
        mids = 0.5 * (ts[:-1] + ts[1:])
        mid_vals = _segment_upper_integrand(d, x, y, mids)
        merged_t = np.empty(ts.size + mids.size)
        merged_v = np.empty_like(merged_t)
        merged_t[0::2], merged_t[1::2] = ts, mids
        merged_v[0::2], merged_v[1::2] = vals, mid_vals
        ts, vals = merged_t, merged_v
        new_est = float(np.trapezoid(vals, ts))
        delta = abs(est - new_est)
        est = new_est
        if delta < tol:
            break
    upper = est + delta  # fold the last refinement step in, one-sided

    # lower: half-space projections from both endpoints
    stream = SampleStream(seed)
    lower = 0.0
    half_spaces = []
    for near in (x, y, 0.5 * (x + y)):
        half_spaces.extend(d.supporting_half_spaces(near=near,
                                                    count=half_space_count,
                                                    stream=stream))
    for hs in half_spaces:
        w1 = complex(x @ hs.normal.conj())
        w2 = complex(y @ hs.normal.conj())
        den = w2 + np.conj(w1) - 2.0 * hs.offset
        if den == 0:
            continue
        t = abs((w2 - w1) / den)
        if t < 1.0:
            lower = max(lower, math.atanh(t))
    lower = min(lower, upper)
    return DistanceBound(lower * scale, upper * scale,
                         lower_method=d.lower_method, upper_method="quadrature")


# ---------------------------------------------------------------------------
# Indicatrix sampling and volume
# ---------------------------------------------------------------------------

@dataclass
class IndicatrixSample:
    """Radial picture of the unit indicatrix I(x) = {v : K(x; v) < 1}."""

    base_point: np.ndarray
    directions: np.ndarray          # (m, n) unit rows
    gauge_lower: np.ndarray         # per-direction K lower bounds
    gauge_upper: np.ndarray
    convexified: bool = False
    convex_radii: np.ndarray | None = None

    @property
    def radius_lower(self):
        """Certified inner radius per direction: 1 / upper gauge."""
        return 1.0 / self.gauge_upper

    @property
    def radius_upper(self):
        with np.errstate(divide="ignore"):
            return np.where(self.gauge_lower > 0, 1.0 / self.gauge_lower, np.inf)

    @property
    def radius_mid(self):
        return 0.5 * (self.radius_lower + self.radius_upper)


def indicatrix(d: Domain, x, directions: int = 256, convexify: bool = False,
               *, seed: int = 0) -> IndicatrixSample:
    """Sampled indicatrix at x; optionally its convex hull surrogate.

    The convexified radii replace each radial value with the hull's radial
    extent (the Kobayashi-Buseman convexification, approximated by the hull of
    midpoint boundary points with phase copies in R^{2n}).
    """
    x = cvector(x)
    d.require_interior(x, "base point")
    stream = SampleStream(seed)
    U = stream.unit_directions(directions, d.dim)
    lower, upper = kobayashi_metric_values(d, x, U, which="both",
                                           stream=stream.fork(1))
    sample = IndicatrixSample(x, U, lower, upper)
    if convexify:
        sample.convexified = True
        sample.convex_radii = _convex_hull_radii(U, sample.radius_mid)
    return sample


def _convex_hull_radii(U, radii, phase_count: int = 8):
    from scipy.spatial import ConvexHull

    m, n = U.shape
    phases = np.exp(2j * np.pi * np.arange(phase_count) / phase_count)
    pts = (radii[:, None] * U)[None, :, :] * phases[:, None, None]
    pts = pts.reshape(-1, n)
    real = np.concatenate([pts.real, pts.imag], axis=1)
    hull = ConvexHull(real)
    A = hull.equations[:, :-1]
    b = -hull.equations[:, -1]
    dirs = np.concatenate([U.real, U.imag], axis=1)
    proj = dirs @ A.T
    with np.errstate(divide="ignore"):
        t = np.where(proj > 1e-15, b[None, :] / np.where(proj > 1e-15, proj, 1.0),
                     np.inf)
    return t.min(axis=1)


def write_indicatrix_csv(sample: IndicatrixSample, fh):
    """Columns: direction components (re/im interleaved), radius_lo, radius_hi."""
    n = sample.directions.shape[1]
    cols = []
    for k in range(n):
        cols += [f"dir{k}_re", f"dir{k}_im"]
    cols += ["radius_lo", "radius_hi"]
    if sample.convexified:
        cols.append("radius_convex")
    fh.write(",".join(cols) + "\n")
    rl, ru = sample.radius_lower, sample.radius_upper
    for i, u in enumerate(sample.directions):
        row = []
        for k in range(n):
            row += [repr(float(u[k].real)), repr(float(u[k].imag))]
        row += [repr(float(rl[i])), repr(float(ru[i]))]
        if sample.convexified:
            row.append(repr(float(sample.convex_radii[i])))
        fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo indicatrix volume with its certified sensitivity bracket."""

    value: float
    se: float
    lower: float         # volume from certified inner radii
    upper: float         # volume from certified outer radii
    samples: int

    def __str__(self):
        return f"{self.value} ± {self.se} (bracket [{self.lower}, {self.upper}])"


def _ball_volume_coeff(n: int) -> float:
    # Euclidean volume of the unit ball of C^n = R^{2n}: pi^n / n!
    return math.pi ** n / math.factorial(n)


def indicatrix_volume(d: Domain, x, samples: int = 100_000, *,
                      seed: int = 0) -> VolumeEstimate:
    """Monte Carlo Euclidean volume of the indicatrix at x (midpoint radii).

    Radial sampling: Vol = omega_{2n} * E[r(u)^{2n}] over uniform directions u
    on the unit sphere of C^n.  Constant radii (isotropic metrics) give zero
    variance, so the model cases are exact up to floating point.
    """
    if samples < config.MIN_VOLUME_SAMPLES:
        raise ValueError(f"need at least {config.MIN_VOLUME_SAMPLES} samples")
    x = cvector(x)
    d.require_interior(x, "base point")
    stream = SampleStream(seed)
    U = stream.unit_directions(samples, d.dim)
    lower, upper = kobayashi_metric_values(d, x, U, which="both",
                                           stream=stream.fork(1))
    n = d.dim
    coeff = _ball_volume_coeff(n)

    def vol(radii):
        powered = radii ** (2 * n)
        return (float(coeff * powered.mean()),
                float(coeff * powered.std(ddof=1) / math.sqrt(samples)))

    r_lo = 1.0 / upper
    with np.errstate(divide="ignore"):
        r_hi = np.where(lower > 0, 1.0 / lower, np.inf)
    value, se = vol(0.5 * (r_lo + r_hi))
    v_lo, _ = vol(r_lo)
    v_hi, _ = vol(r_hi)
    return VolumeEstimate(value, se, v_lo, v_hi, samples)


# ---------------------------------------------------------------------------
# Certified distance-ball sampling
# ---------------------------------------------------------------------------

@dataclass
class DistanceBallSample:
    """Points certified inside B(x; r): distance_upper[i] < r for every row."""

    center: np.ndarray
    radius: float
    convention: str
    points: np.ndarray
    distance_upper: np.ndarray

    def __len__(self):
        return self.points.shape[0]


def _shell_targets(stream: SampleStream, count: int, r: float,
                   shell_fraction: float = 0.75) -> np.ndarray:
    """Distance targets concentrated near the ball's boundary shell."""
    u = stream.uniform(count)
    shell = stream.uniform(count) < shell_fraction
    t = np.where(shell, 1.0 - 0.1 * u, 0.9 * u)
    return r * np.minimum(t, 1.0 - 1e-9)


def _exact_radial_distances(d: Domain, x, U, ts):
    """Distance from x to x + ts[i] * U[i] via closed forms, vectorized."""
    Y = x[None, :] + ts[:, None] * U
    return np.asarray(d.distance_value(x, Y), dtype=float)


def distance_ball_sample(d: Domain, x, r: float, count: int = 1000, *,
                         seed: int = 0, convention: str = "standard",
                         shell_fraction: float = 0.75) -> DistanceBallSample:
    """Sample points with certified distance upper bound < r.

    Models bisect the exact radial distance; general convex domains use the
    cumulative trapezoid of the metric upper bound along each ray, which
    overestimates the true distance, so membership stays certified.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    x = cvector(x)
    d.require_interior(x, "center")
    scale = distance_scale(convention)

    if isinstance(d, AffineImage):
        inner = distance_ball_sample(d.inner, d.map_inv(x), r, count, seed=seed,
                                     convention=convention,
                                     shell_fraction=shell_fraction)
        return DistanceBallSample(x, r, convention, d.map(inner.points),
                                  inner.distance_upper)

    stream = SampleStream(seed)
    U = stream.unit_directions(count, d.dim)
    targets = _shell_targets(stream.fork(1), count, r / scale, shell_fraction)

    probe = d.distance_value(x, x + 1e-9 * U[0])
    if probe is not None:
        sec = np.atleast_1d(d.section_boundary_distance(x, U))
        hi = np.where(np.isfinite(sec), sec * (1.0 - 1e-12), 1.0)
        # grow hi until the target distance is bracketed (rays of infinite
        # section length still have unbounded distance: the metric is complete)
        for _ in range(200):
            need = _exact_radial_distances(d, x, U, hi) < targets
            if not np.any(need):
                break
            grow = np.where(np.isfinite(sec), hi, hi * 2.0)
            hi = np.where(need & ~np.isfinite(sec), grow, hi)
            if not np.any(need & ~np.isfinite(sec)):
                break
        lo = np.zeros(count)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = _exact_radial_distances(d, x, U, mid) < targets
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        pts = x[None, :] + lo[:, None] * U
        dist = _exact_radial_distances(d, x, U, lo)
        return DistanceBallSample(x, r, convention, pts, dist * scale)

    # general: certified one-sided quadrature along each ray
    sec = np.atleast_1d(d.section_boundary_distance(x, U))
    grid = 1.0 - np.logspace(0.0, -7.0, 97)   # 0 .. 1 - 1e-7, refined near 1
    ts = sec[:, None] * grid[None, :]
    P = (x[None, None, :] + ts[:, :, None] * U[:, None, :]).reshape(-1, d.dim)
    V = np.broadcast_to(U[:, None, :], (count, grid.size, d.dim)).reshape(-1, d.dim)
    K = metric_upper_paired(d, P, V).reshape(count, grid.size)
    # per-interval trapezoid, cumulative: certified upper bound of distance
    D = np.zeros_like(K)
    D[:, 1:] = np.cumsum(0.5 * (K[:, 1:] + K[:, :-1]) * np.diff(ts, axis=1), axis=1)
    idx = np.array([int(np.searchsorted(D[i], targets[i]) - 1)
                    for i in range(count)])
    idx = np.clip(idx, 0, grid.size - 1)
    chosen = ts[np.arange(count), idx]
    pts = x[None, :] + chosen[:, None] * U
    dist = D[np.arange(count), idx]
    return DistanceBallSample(x, r, convention, pts, dist * scale)


def indicatrix_gauge_upper(d: Domain, x, W, *, stream: SampleStream | None = None):
    """Upper bound of the indicatrix gauge at x of offset rows W (= K(x; W))."""
    x = cvector(x)
    W = np.asarray(W, dtype=complex)
    P = np.broadcast_to(x, W.shape)
    nz = np.linalg.norm(W, axis=1) > 0
    out = np.zeros(W.shape[0])
    if np.any(nz):
        out[nz] = metric_upper_paired(d, P[nz], W[nz])
    return out
