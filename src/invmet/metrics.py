"""Kobayashi-Royden metric and distance with certified two-sided bounds.

Closed forms on the model domains (ball, polydisc, half-plane products, any
face table of n independent faces, and their affine images) make both sides
of every bound coincide.  On general convex domains the upper bound comes
from the affine disc inscribed in the planar section through (x, v) and the
lower bound from holomorphic projections onto a polyhedron's face discs and
half-planes (tag "face-disc"), or onto half-spaces certified from a gauge
body's gauge (tag "half-space").  Both are certified by monotonicity of the
metric under holomorphic maps: lower <= K <= upper.

The distance's upper bound integrates that affine-disc upper bound along the
segment: exactly, in closed form, on polyhedra and their affine images, and
by a trapezoid quadrature to ``tol`` on bodies known through a gauge.  Its
lower bound is the largest distance between the projections of the two
points onto a disc or half-plane the domain maps into.

Distance conventions: "standard" pairs the metric |v|/(2 Im z) on the upper
half-plane with the distance tanh^{-1}|.|, its actual integral.  "paper"
doubles all distances (2 tanh^{-1}); the lambda function of `domination`
switches its tanh parameter accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .core import cvector
from .domains import AffineImage, Domain
from .errors import DegenerateInputError, UnboundedValueError
from .sampling import SampleStream, root_directions

CONVENTIONS = ("standard", "paper")


def distance_scale(convention: str) -> float:
    """Factor applied to standard (tanh^{-1}) distances: 1 or 2."""
    if convention not in CONVENTIONS:
        raise DegenerateInputError(
            f"unknown convention {convention!r}; pick from {CONVENTIONS}")
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
    """Certified interval for a distance, with per-side method tags and the
    quadrature's work: ``nodes`` on the segment (0 for closed forms), whether
    the last refinement moved the estimate by less than the tolerance, and
    that last move, which the upper side includes."""

    lower: float
    upper: float
    lower_method: str = "closed-form"
    upper_method: str = "closed-form"
    nodes: int = 0
    converged: bool = True
    final_delta: float = 0.0

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# Direction rows whose squared norm underflows
# ---------------------------------------------------------------------------

# 2^-511, whose square is the smallest normal double: a row whose squared norm
# falls below that is scaled
_SMALL = math.sqrt(np.finfo(float).tiny)


def _moderated(V):
    """(V, e): the direction rows, each nonzero row whose squared norm
    underflows (so |V[i]| rounds to 0) times 2^-e[i], e[i] the np.frexp
    exponent of its largest modulus; e[i] = 0 on the other rows, which keep
    their bits, and e is None when no row is scaled.  A power of two scales
    exactly, so the bound at V[i] is the scaled row's bound times 2^e[i]."""
    V = np.asarray(V, dtype=complex)
    R = np.ascontiguousarray(V).view(float)
    rows = np.flatnonzero(np.einsum("ij,ij->i", R, R) < _SMALL * _SMALL)
    rows = rows[np.any(V[rows] != 0, axis=1)]
    if not rows.size:
        return V, None
    e = np.zeros(len(V), dtype=int)
    e[rows] = np.frexp(np.abs(V[rows]).max(axis=1))[1]
    V = V.copy()
    for part in (V.real, V.imag):
        part[rows] = np.ldexp(part[rows], -e[rows, None])
    return V, e


# ---------------------------------------------------------------------------
# Metric and distance brackets
# ---------------------------------------------------------------------------

def kobayashi_metric(d: Domain, x, v, *, seed: int = 0) -> MetricBound:
    """Certified bounds for the infinitesimal metric K(x; v).

    Model domains (and their affine images) return a degenerate bracket from
    closed forms.  Homogeneity K(x; cv) = |c| K(x; v) is exact by construction:
    the direction is normalized first and the bound scaled back.
    """
    x = cvector(x)
    v = cvector(v)
    if x.size != d.dim or v.size != d.dim:
        raise DegenerateInputError(f"expected vectors of length {d.dim}")
    nv, e = float(np.linalg.norm(v)), None
    if nv <= _SMALL:
        (v,), e = _moderated(v[None, :])
        nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise DegenerateInputError("direction must be nonzero")
    d.require_interior(x, "base point")
    P, V = x[None, :], (v / nv)[None, :]
    nv = nv if e is None else math.ldexp(nv, int(e[0]))
    exact = d.metric_paired(P, V)
    if exact is not None:
        val = float(exact[0]) * nv
        return MetricBound(val, val)
    if not np.isfinite(d.bounding_radius):
        raise UnboundedValueError("unbounded domain without a closed-form metric")
    lower, upper = (float(side[0]) * nv for side in
                    d.bracket_paired(P, V, SampleStream(seed)))
    return MetricBound(min(lower, upper), upper,
                       lower_method=d.lower_method, upper_method="affine-disc")


def kobayashi_metric_values(d: Domain, x, V, *, stream: SampleStream | None = None):
    """Certified (lower, upper) bounds of K(x; V[i]) at one base point x for a
    stack of direction rows V, any samples drawn from ``stream``.

    A nonzero row whose squared norm underflows is scaled by a power of two
    before the domain's oracle sees it and its bounds are scaled back, so they
    stay exact multiples of the scaled row's.
    """
    x = cvector(x)
    V, e = _moderated(V)
    # the paired oracles take the base point as one shared row
    lower, upper = d.bracket_paired(x[None, :], V, stream)
    if e is not None:
        lower, upper = np.ldexp(lower, e), np.ldexp(upper, e)
    return np.minimum(lower, upper), upper


def _ray_metric_upper(d: Domain, x, W, T):
    """Affine-disc upper bound of K(x + T[i, j] W[i]; W[i]), of shape T.shape."""
    return np.linalg.norm(W, axis=1)[:, None] / d.section_distance_along(x, W, T)


def _trapezoid_upper(d: Domain, x, w, tol: float):
    """Trapezoid quadrature of the affine-disc metric upper bound along
    [x, x + w], nodes doubling from 9 until a refinement moves the estimate
    by less than ``tol`` or 131,073 nodes are spent: (upper, nodes,
    converged, last move), the last move folded into the upper side.  An
    offset ``_moderated`` scales by 2^-e gets its nodes and values times 2^e."""
    W, e = _moderated(w[None, :])
    e = 0 if e is None else int(e[0])

    def integrand(ts):
        return np.ldexp(_ray_metric_upper(d, x, W, np.ldexp(ts, e)[None, :])[0], e)

    ts = np.linspace(0.0, 1.0, 9)
    vals = integrand(ts)
    est = float(np.trapezoid(vals, ts))
    delta = np.inf
    for _ in range(14):
        mids = 0.5 * (ts[:-1] + ts[1:])
        mid_vals = integrand(mids)
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
    return est + delta, ts.size, bool(delta < tol), delta


def kobayashi_distance(d: Domain, x, y, *, convention: str = "standard",
                       tol: float = config.QUADRATURE_TOL,
                       seed: int = 0) -> DistanceBound:
    """Certified bounds for the induced distance.

    Upper: the integral of the affine-disc metric upper bound along [x, y]
    (its section distances taken on the line through x and y).  Polyhedra
    and their affine images give it in closed form (``affine_disc_length``,
    tag "affine-disc-length"), with the rounding allowance added to the upper
    side and reported as ``final_delta``, and 0 nodes.  Other kinds take a
    trapezoid quadrature (tag "quadrature"): the integrand is convex along
    the segment (the section distance is concave), so every trapezoid
    refinement overestimates the integral.  The nodes double from 9 until a
    refinement moves the estimate by less than ``tol`` or 131,073 nodes are
    spent; the last move is added to the upper side, and the bound reports
    the nodes, whether it converged and that move.  Lower: the domain's
    ``distance_lower_bound``, distances between projections of x and y onto
    the faces' discs and half-planes of a polyhedron (tag "face-disc") or
    the supporting half-spaces of a body known through a gauge (tag
    "half-space").
    """
    scale = distance_scale(convention)
    x = cvector(x)
    y = cvector(y)
    d.require_interior(x, "first point")
    d.require_interior(y, "second point")
    w = y - x
    exact = d.distance_value(x, w)
    if exact is not None:
        val = float(exact) * scale
        return DistanceBound(val, val)
    if not np.isfinite(d.bounding_radius):
        raise UnboundedValueError("unbounded domain without a closed-form distance")
    if not w.any():
        return DistanceBound(0.0, 0.0, "coincident", "coincident")

    closed = d.affine_disc_length(x, w)
    if closed is None:
        upper, nodes, converged, delta = _trapezoid_upper(d, x, w, tol)
        method = "quadrature"
    else:
        length, delta = closed
        upper, nodes, converged, method = length + delta, 0, True, "affine-disc-length"
    lower = min(d.distance_lower_bound(x, w, SampleStream(seed)), upper)
    return DistanceBound(lower * scale, upper * scale,
                         lower_method=d.lower_method, upper_method=method,
                         nodes=nodes, converged=converged, final_delta=delta * scale)


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

    The directions are ``SampleStream(seed).unit_directions(directions, n)``,
    read through ``root_directions``, which draws each seed's normals once per
    process, so repeated calls at one seed skip the draw and return the same
    bits; any samples the bracket draws come from ``SampleStream(seed).fork(1)``.
    The convexified radii replace each radial value with the hull's radial
    extent (the Kobayashi-Buseman convexification, approximated by the hull of
    midpoint boundary points with phase copies in R^{2n}).
    """
    x = cvector(x)
    d.require_interior(x, "base point")
    U = root_directions(seed, directions, d.dim)
    lower, upper = kobayashi_metric_values(d, x, U, stream=SampleStream(seed).fork(1))
    sample = IndicatrixSample(x, U, lower, upper)
    if convexify:
        sample.convexified = True
        sample.convex_radii = _convex_hull_radii(U, sample.radius_mid)
    return sample


def _convex_hull_radii(U, radii):
    from scipy.spatial import ConvexHull

    m, n = U.shape
    phases = np.exp(2j * np.pi * np.arange(8) / 8)
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
    on the unit sphere of C^n, the radii r(u) read off ``indicatrix(d, x,
    samples, seed=seed)``; the certified inner and outer radii give the
    bracket.  Constant radii (isotropic metrics) give zero variance, so the
    model cases are exact up to floating point.
    """
    if samples < config.MIN_VOLUME_SAMPLES:
        raise DegenerateInputError(f"need at least {config.MIN_VOLUME_SAMPLES} samples")
    sample = indicatrix(d, x, samples, seed=seed)
    # the sums read only the radii: the directions, the sample's largest
    # array, are freed first
    sample.directions = None
    r_lo, r_hi = sample.radius_lower, sample.radius_upper
    k = 2 * d.dim
    coeff = _ball_volume_coeff(d.dim)
    # the standard error is the midpoint's only: the bracket's sides are bounds
    mid = (0.5 * (r_lo + r_hi)) ** k
    v_lo, v_hi = (float(coeff * (r ** k).mean()) for r in (r_lo, r_hi))
    return VolumeEstimate(float(coeff * mid.mean()),
                          float(coeff * mid.std(ddof=1) / math.sqrt(samples)),
                          v_lo, v_hi, samples)


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


def _shell_targets(stream: SampleStream, count: int, r: float) -> np.ndarray:
    """Distance targets concentrated near the ball's boundary shell."""
    u = stream.uniform(count)
    shell = stream.uniform(count) < 0.75
    t = np.where(shell, 1.0 - 0.1 * u, 0.9 * u)
    return r * np.minimum(t, 1.0 - 1e-9)


def distance_ball_sample(d: Domain, x, r: float, count: int = 1000, *,
                         seed: int = 0, convention: str = "standard") -> DistanceBallSample:
    """Sample points with certified distance upper bound < r.

    Models bisect the exact radial distance; general convex domains use the
    cumulative trapezoid of the metric upper bound along each ray, which
    overestimates the true distance, so membership stays certified.  The rays
    are ``SampleStream(seed).unit_directions(count, n)``, read through
    ``root_directions`` as in ``indicatrix``, and the distance targets come
    from ``SampleStream(seed).fork(1)``.
    """
    if r <= 0:
        raise DegenerateInputError("radius must be positive")
    x = cvector(x)
    d.require_interior(x, "center")
    scale = distance_scale(convention)

    if isinstance(d, AffineImage):
        inner = distance_ball_sample(d.inner, d.map_inv(x), r, count, seed=seed,
                                     convention=convention)
        return DistanceBallSample(x, r, convention, d.map(inner.points),
                                  inner.distance_upper)

    U = root_directions(seed, count, d.dim)
    targets = _shell_targets(SampleStream(seed).fork(1), count, r / scale)

    probe = d.distance_value(x, 1e-9 * U[0])
    if probe is not None:
        # every model's section distance is finite along a nonzero direction
        hi = d.section_distance_paired(x[None, :], U) * (1.0 - 1e-12)
        lo = np.zeros(count)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = d.distance_value(x, mid[:, None] * U) < targets
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        pts = x[None, :] + lo[:, None] * U
        dist = d.distance_value(x, lo[:, None] * U)
        return DistanceBallSample(x, r, convention, pts, dist * scale)

    # general: certified one-sided quadrature along each ray
    sec = d.section_distance_paired(x[None, :], U)
    grid = 1.0 - np.logspace(0.0, -7.0, 97)   # 0 .. 1 - 1e-7, refined near 1
    ts = sec[:, None] * grid[None, :]
    K = _ray_metric_upper(d, x, U, ts)
    # per-interval trapezoid, cumulative: certified upper bound of distance
    D = np.zeros_like(K)
    D[:, 1:] = np.cumsum(0.5 * (K[:, 1:] + K[:, :-1]) * np.diff(ts, axis=1), axis=1)
    # rows of D are non-decreasing: the last node below each row's target
    idx = np.clip((D < targets[:, None]).sum(axis=1) - 1, 0, grid.size - 1)
    chosen = ts[np.arange(count), idx]
    pts = x[None, :] + chosen[:, None] * U
    dist = D[np.arange(count), idx]
    return DistanceBallSample(x, r, convention, pts, dist * scale)


def indicatrix_gauge_upper(d: Domain, x, W):
    """Upper bound of the indicatrix gauge at x of offset rows W (= K(x; W)):
    the closed form where the kind has one, else |W| / the section distance,
    0 on zero rows.  A nonzero row whose squared norm underflows is scaled by
    a power of two before the oracles see it, and its bound scaled back."""
    x = cvector(x)
    W = np.asarray(W, dtype=complex)
    nz = np.any(W != 0, axis=1)
    out = np.zeros(W.shape[0])
    if np.any(nz):
        P = np.broadcast_to(x, W.shape)[nz]
        V, e = _moderated(W[nz])
        upper = d.metric_paired(P, V)
        if upper is None:
            upper = np.linalg.norm(V, axis=1) / d.section_distance_paired(P, V)
        out[nz] = upper if e is None else np.ldexp(upper, e)
    return out
