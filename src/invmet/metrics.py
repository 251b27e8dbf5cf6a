"""Kobayashi-Royden metric and distance with certified two-sided bounds.

Closed forms on the model domains (ball, polydisc, half-plane products, any
face table of n independent faces or whose other faces are redundant on the
product of n of its modulus faces, and their affine images) make both sides
of every bound coincide.  On general convex domains the upper bound comes
from the affine disc inscribed in the planar section through (x, v) and the
lower bound from holomorphic projections onto a polyhedron's face discs and
half-planes (tag "face-disc"), or onto half-spaces certified from a gauge
body's gauge (tag "half-space").  Both are certified by monotonicity of the
metric under holomorphic maps: lower <= K <= upper.

The distance's upper bound integrates that affine-disc upper bound along the
segment: in closed form on polyhedra and their affine images, else by chord
bounds of the concave section distance (``_chord_areas``) to a fraction of
the bracket, or ``tol``.  Its lower bound is the largest distance between
the projections of the two points onto a disc or half-plane the domain maps
into.

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
from .errors import DegenerateInputError, DimensionMismatchError, UnboundedValueError
from .sampling import SampleStream, root_directions, row_norms

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
    the last refinement moved the estimate by less than its stop, the larger
    of ``tol`` and config.QUADRATURE_WIDTH_FRACTION of the bracket, and the
    allowance the upper side includes: a quadrature's last move plus its
    sum's rounding bound, or a closed-form length's rounding allowance."""

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

def _sized(d: Domain, z):
    """z as a complex vector of d's dimension; the oracles check interiority."""
    z = cvector(z)
    if z.size != d.dim:
        raise DimensionMismatchError(f"expected vectors of length {d.dim}, got {z.size}")
    return z


def kobayashi_metric(d: Domain, x, v, *, seed: int = 0) -> MetricBound:
    """Certified bounds for the infinitesimal metric K(x; v).

    Model domains (and their affine images) return a degenerate bracket from
    closed forms.  Homogeneity K(x; cv) = |c| K(x; v) is exact by construction:
    the direction is normalized first and the bound scaled back.
    """
    x, v = _sized(d, x), _sized(d, v)
    nv, e = float(np.linalg.norm(v)), None
    if nv <= _SMALL:
        (v,), e = _moderated(v[None, :])
        nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise DegenerateInputError("direction must be nonzero")
    # an affine image's rows are pulled back once, for both oracles below
    d, P, V = d.metric_pullback(x[None, :], (v / nv)[None, :])
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


def _chord_areas(h, da, db):
    """Upper bounds of the integral of 1 / d over intervals [a, a + h] with
    section distances d = da at a and db at a + h: concave along a segment,
    d lies above its chord there, and 1 / chord integrates to h over the
    logarithmic mean of da and db, which is at least their harmonic mean
    (never above the trapezoid) and grows in each (lower bounds of d keep it)."""
    r = (db - da) / da
    with np.errstate(divide="ignore", invalid="ignore"):
        per = np.where(r == 0, 1.0, np.log1p(r) / r)
    return h * per / da


def _chord_upper(d: Domain, x, w, tol: float, lower: float):
    """The chord bound of the affine-disc metric upper bound along [x, x + w],
    nodes doubling from 9 until a refinement moves it by less than ``tol`` or
    config.QUADRATURE_WIDTH_FRACTION of its distance from ``lower``, the
    bracket's lower side, or 131,073 nodes are spent: (upper, nodes,
    converged, allowance), the allowance the last move plus a bound on the
    sum's own rounding, both folded into the upper side.  An offset
    ``_moderated`` scales by 2^-e gets its nodes and sum times 2^e."""
    W, e = _moderated(w[None, :])
    e = 0 if e is None else int(e[0])

    def sections(ts):
        return d.section_distance_along(x, W, np.ldexp(ts, e)[None, :])[0]

    def estimate(ts, sec):
        areas = _chord_areas(np.diff(ts), sec[:-1], sec[1:])
        return math.ldexp(float(np.linalg.norm(W) * areas.sum()), e)

    ts = np.linspace(0.0, 1.0, 9)
    sec = sections(ts)
    est, delta = estimate(ts, sec), np.inf
    for _ in range(14):
        ts = np.linspace(0.0, 1.0, 2 * ts.size - 1)
        sec = np.insert(sec, np.arange(1, sec.size), sections(ts[1::2]))
        est, prev = estimate(ts, sec), est
        delta, stop = abs(prev - est), max(tol, config.QUADRATURE_WIDTH_FRACTION * (est - lower))
        if delta < stop:
            break
    # relative roundings, in units of eps: each chord area at most 8 +
    # 2 max(1, da / db) (r twice, log1p once and its argument's error grown
    # by at most da / db, then the quotient, the product and the division);
    # the sum of N areas at most N; |W|, the product and the final additions
    # at most dim + 4
    spread = max(1.0, float(np.max(sec[:-1] / sec[1:])))
    rounding = float(np.finfo(float).eps * (ts.size + W.size + 12 + 2.0 * spread) * est)
    return est + delta + rounding, ts.size, bool(delta < stop), delta + rounding


def kobayashi_distance(d: Domain, x, y, *, convention: str = "standard",
                       tol: float = config.QUADRATURE_TOL,
                       seed: int = 0) -> DistanceBound:
    """Certified bounds for the induced distance.

    Upper: the integral of the affine-disc metric upper bound along [x, y]
    (its section distances taken on the line through x and y).  Polyhedra
    and their affine images give it in closed form (``affine_disc_length``,
    tag "affine-disc-length"), with the rounding allowance added to the upper
    side and reported as ``final_delta``, and 0 nodes.  Other kinds take a
    quadrature of chord bounds (``_chord_upper``, tag "quadrature"), exact
    where the section distance is linear, whose nodes double from 9 until a
    refinement moves it by less than config.QUADRATURE_WIDTH_FRACTION of the
    bracket, as the lower side leaves it, or by less than ``tol``, whichever
    is larger: ``tol`` decides only where the bracket is narrower than tol /
    that fraction.  It reports the nodes, whether it so converged within
    131,073 nodes, and the last move plus the sum's rounding allowance,
    which the upper side includes.  Lower, taken first: the domain's
    ``distance_lower_bound``, distances between projections of x and y onto
    the faces' discs and half-planes of a polyhedron (tag "face-disc") or
    the supporting half-spaces of a gauge body ("half-space").
    """
    scale = distance_scale(convention)
    x, y = cvector(x), cvector(y)
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

    lower = d.distance_lower_bound(x, w, SampleStream(seed))
    closed = d.affine_disc_length(x, w)
    if closed is None:
        upper, nodes, converged, delta = _chord_upper(d, x, w, tol, lower)
    else:
        upper, nodes, converged, delta = closed[0] + closed[1], 0, True, closed[1]
    method = "quadrature" if nodes else "affine-disc-length"
    lower = min(lower, upper)
    return DistanceBound(lower * scale, upper * scale,
                         lower_method=d.lower_method, upper_method=method,
                         nodes=nodes, converged=converged, final_delta=delta * scale)


# ---------------------------------------------------------------------------
# Indicatrix sampling and volume
# ---------------------------------------------------------------------------

@dataclass
class IndicatrixSample:
    """Radial picture of the unit indicatrix I(x) = {v : K(x; v) < 1}."""

    directions: np.ndarray          # (m, n) unit rows
    gauge_lower: np.ndarray         # per-direction K lower bounds
    gauge_upper: np.ndarray

    @property
    def radius_lower(self):
        """Certified inner radius per direction: 1 / upper gauge."""
        return 1.0 / self.gauge_upper

    @property
    def radius_upper(self):
        with np.errstate(divide="ignore"):
            return np.where(self.gauge_lower > 0, 1.0 / self.gauge_lower, np.inf)


def indicatrix(d: Domain, x, directions: int = 256, *, seed: int = 0) -> IndicatrixSample:
    """Sampled indicatrix at x.

    The directions are ``SampleStream(seed).unit_directions(directions, n)``,
    read through ``root_directions``, which draws each seed's normals once per
    process, so repeated calls at one seed skip the draw and return the same
    bits; any samples the bracket draws come from ``SampleStream(seed).fork(1)``.
    A gauge body's half-space rays are the first draws of that stream's forks,
    which ``SampleStream.unit_directions`` keeps per process, so a repeated
    call at one seed builds no generator.
    Raises DegenerateInputError unless ``directions`` is at least 1.
    """
    if directions < 1:
        raise DegenerateInputError("need at least 1 direction")
    x = _sized(d, x)
    U = root_directions(seed, directions, d.dim)
    lower, upper = kobayashi_metric_values(d, x, U, stream=SampleStream(seed).fork(1))
    return IndicatrixSample(U, lower, upper)


def write_indicatrix_csv(sample: IndicatrixSample, fh):
    """Columns: direction components (re/im interleaved), radius_lo, radius_hi.
    Each row is one list of floats, the direction's real view then its two
    radii, each written by ``repr``."""
    n = sample.directions.shape[1]
    cols = []
    for k in range(n):
        cols += [f"dir{k}_re", f"dir{k}_im"]
    cols += ["radius_lo", "radius_hi"]
    fh.write(",".join(cols) + "\n")
    table = np.column_stack([np.ascontiguousarray(sample.directions, dtype=complex).view(float),
                             sample.radius_lower, sample.radius_upper])
    fh.write("".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))


@dataclass(frozen=True)
class VolumeEstimate:
    """Indicatrix volume with its certified sensitivity bracket: a Monte Carlo
    mean, or with ``samples == 0`` the closed form (se 0, lower = upper)."""

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
    """Euclidean volume of the indicatrix at x: ``MetricForm.volume`` where d
    has a ``metric_form`` at x (products, the ball and their affine images),
    drawing nothing, with value = lower = upper, se 0 and ``samples == 0``;
    else a Monte Carlo mean of midpoint radii.

    Radial sampling: Vol = omega_{2n} * E[r(u)^{2n}] over uniform directions u
    on the unit sphere of C^n, the radii r(u) read off ``indicatrix(d, x,
    samples, seed=seed)``; the certified inner and outer radii give the
    bracket.
    """
    if samples < config.MIN_VOLUME_SAMPLES:
        raise DegenerateInputError(f"need at least {config.MIN_VOLUME_SAMPLES} samples")
    x = _sized(d, x)
    form = d.metric_form(x)
    if form is not None:
        v = form.volume
        return VolumeEstimate(v, 0.0, v, v, 0)
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

    Kinds with a closed-form distance give each ray's radius as a root of
    its distance equation (``distance_radii``), capped inside the section.
    Other kinds sum chord bounds (``_chord_areas``) of the affine-disc metric
    upper bound along each ray, on 33 nodes from x to 1 - 1e-7 of the
    section distance, geometric toward its end, and invert the sum in closed
    form where it crosses the target.  A row whose distance does not read
    below its target steps down until it does.  The rays are
    ``SampleStream(seed).unit_directions(count, n)``, read through
    ``root_directions`` as in ``indicatrix``; the targets come from
    ``SampleStream(seed).fork(1)``.
    """
    if r <= 0:
        raise DegenerateInputError("radius must be positive")
    x = _sized(d, x)
    scale = distance_scale(convention)

    if isinstance(d, AffineImage):
        inner = distance_ball_sample(d.inner, d.map_inv(x), r, count, seed=seed,
                                     convention=convention)
        return DistanceBallSample(d.map(inner.points), inner.distance_upper)

    U = root_directions(seed, count, d.dim)
    targets = _shell_targets(SampleStream(seed).fork(1), count, r / scale)

    t = d.distance_radii(x, U, targets)
    sec = d.section_distance_paired(x[None, :], U)
    if t is not None:
        # capped inside the section, as tanh rounds a large target to 1 and a
        # product's face distances read 0 on or past its boundary
        t = np.minimum(t, sec * (1.0 - 1e-12))

        def measure(t):
            return d.distance_value(x, t[:, None] * U)
    else:
        # 33 nodes: the fewest measured with median points within 2% of their targets
        ts = sec[:, None] * (1.0 - np.logspace(0.0, -7.0, 33))
        ds = d.section_distance_along(x, U, ts)
        h = np.diff(ts, axis=1)
        D = np.pad(np.cumsum(_chord_areas(h, ds[:, :-1], ds[:, 1:]), axis=1), ((0, 0), (1, 0)))
        slope = np.diff(ds, axis=1) / h
        rows, last = np.arange(count), ts.shape[1] - 2

        def measure(t):
            k = np.clip((ts <= t[:, None]).sum(axis=1) - 1, 0, last)
            a, da = ts[rows, k], ds[rows, k]
            return D[rows, k] + _chord_areas(t - a, da, da + slope[rows, k] * (t - a))

        # from node a a chord of slope m integrates to log1p(m (t - a) / d_a) / m, so it
        # reads the rest of the target, rem, at a + d_a expm1(m rem) / m (capped at node k + 1)
        k = np.clip((D < targets[:, None]).sum(axis=1) - 1, 0, last)
        rem = targets - D[rows, k]
        z = slope[rows, k] * rem
        with np.errstate(divide="ignore", invalid="ignore"):
            grow = np.where(z == 0, 1.0, np.expm1(z) / z)
        t = np.minimum(ts[rows, k] + ds[rows, k] * rem * grow, ts[rows, k + 1])
    # rows the rounding leaves at their targets step down, to t = 0 at j = 52
    dist = measure(t)
    for j in range(1, 53):
        over = (dist >= targets) & (t > 0)
        if not over.any():
            break
        t[over] *= 1.0 - 2.0 ** (j - 52)
        dist = measure(t)
    return DistanceBallSample(x[None, :] + t[:, None] * U, dist * scale)


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
            upper = row_norms(V) / d.section_distance_paired(P, V)
        out[nz] = upper if e is None else np.ldexp(upper, e)
    return out
