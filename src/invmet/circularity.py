"""Squeezing certificates, circularity lower bounds, and corner asymptotics.

A squeeze certificate witnesses a two-sided inclusion r*D subset phi(Omega)
subset R*D for an injective holomorphic phi with phi(x) = 0 and a bounded
complete circular model D; it implies the circularity lower bound
c(x) >= (r/R)^2.  Certificates come from three constructions:

* identity-translate: phi(z) = z - x, with exact face arithmetic on
  polyhedra and the ball and polydisc, and a deflated sampled search
  otherwise;
* model automorphisms: phi(Omega) = D exactly, ratio 1;
* the corner pipeline: near a boundary point of a convex polyhedron where
  exactly n faces meet, the composition of a half-space normalization A_x,
  the componentwise Cayley transform, and a componentwise disc automorphism
  maps Omega into the unit polydisc with phi(x) = 0, and the largest inscribed
  polydisc is found by bisection on an exact per-face criterion.

Every certificate re-validates from fresh samples: inner points pull back
through the stored inverse and must land inside Omega; forward images of
Omega samples must stay inside R*D in the model gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .automorphisms import ComponentwiseMap, ComposedMap, Mobius1D, cayley
from .core import AffineMap, CLinearMap, cvector
from .domains import ConvexPolyhedron, Domain, model_automorphism, polydisc, same_model
from .errors import (
    CertificateError,
    DegenerateInputError,
    NormalityError,
    ProximityError,
    ScheduleError,
    SingularMapError,
    UnsupportedKindError,
)
from .metrics import indicatrix
from .sampling import SampleStream


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class CertificateCheck:
    """Fresh-sample re-validation of both inclusions of a certificate."""

    worst_outer_gauge: float     # max model gauge of forward(Omega) samples
    worst_inner_margin: float    # min domain margin of pulled-back r*D samples
    base_image_error: float      # |forward(x)| (should be 0)
    outer_bound: float

    @property
    def passed(self) -> bool:
        slack = config.CERTIFICATE_SLACK
        return (self.worst_outer_gauge <= self.outer_bound + slack
                and self.worst_inner_margin >= -slack
                and self.base_image_error <= 1e-9)


@dataclass
class SqueezeCertificate:
    """Witness of r*D subset phi(Omega) subset R*D with phi(x) = 0."""

    domain: Domain
    model: Domain
    base_point: np.ndarray
    inner_r: float
    outer_R: float
    forward: object              # callable z -> w, batch-friendly
    inverse: object              # callable w -> z, batch-friendly
    description: str
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.inner_r <= self.outer_R * (1 + 1e-12)):
            raise CertificateError(
                f"inconsistent certificate radii r={self.inner_r}, R={self.outer_R}")

    @property
    def ratio(self) -> float:
        if self.outer_R <= 0:
            raise CertificateError("outer radius must be positive")
        return min(self.inner_r / self.outer_R, 1.0)

    def validate(self, samples: int = 10_000, *, seed: int = 1) -> CertificateCheck:
        """Re-confirm both inclusions on fresh seeded samples."""
        stream = SampleStream(seed)
        Z = self.domain.interior_samples(samples, stream.fork(0))
        W = np.asarray(self.forward(Z), dtype=complex)
        outer = float(np.max(self.model.gauge(W)))
        base_err = float(np.linalg.norm(
            np.asarray(self.forward(self.base_point), dtype=complex)))
        if self.inner_r > 0 and self.inverse is not None:
            Wi = self.model.interior_samples(samples, stream.fork(1)) * self.inner_r
            Zi = np.asarray(self.inverse(Wi), dtype=complex)
            inner = float(np.min(self.domain.contains_margins(Zi)))
        else:
            inner = np.inf if self.inner_r == 0 else -np.inf
        return CertificateCheck(outer, inner, base_err, self.outer_R)


@dataclass(frozen=True)
class CircularityBound:
    """Lower bound on the maximal circularity c(x), with its provenance."""

    bound: float
    provenance: str

    def __post_init__(self):
        if not (0.0 < self.bound <= 1.0 + 1e-12):
            raise CertificateError(f"circularity bound {self.bound} not in (0, 1]")


# ---------------------------------------------------------------------------
# Identity-translate and automorphism certificates
# ---------------------------------------------------------------------------

def _inner_radius_sampled(d: Domain, inverse, model: Domain, hi: float,
                          stream: SampleStream) -> float:
    """Deflated bisection on sampled shells of r*D, along 4096 directions,
    pulled back into the domain."""
    U = stream.unit_directions(4096, model.dim)
    g = model.gauge(U)
    B = U / g[:, None]                       # gauge-boundary points of D
    shells = np.array([0.35, 0.7, 0.9, 1.0])
    pts = (B[None, :, :] * shells[:, None, None]).reshape(-1, model.dim)

    def ok(rho: float) -> bool:
        try:
            Z = np.asarray(inverse(rho * pts), dtype=complex)
        except SingularMapError:
            return False
        return bool(np.all(d.contains_margins(Z) > 0))

    lo, hi = 0.0, float(hi)
    if not ok(hi * 1e-6):
        return 0.0
    lo = hi * 1e-6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo * (1.0 - config.SAMPLED_PREDICATE_DEFLATION)


def squeeze_lower_bound(d: Domain, x, model: Domain, embedding=None, *,
                        seed: int = 0) -> SqueezeCertificate:
    """Certified squeeze pair (r, R) for the point x and a circular model.

    ``embedding``: None for the identity translate z -> z - x, or the string
    "automorphism" to move x to the center of a model domain that is the
    domain itself (exact ratio 1).  For the translate, the outer radius is the
    model's smallest certified bound in its gauge (``outer_radius_bound``),
    and the inner radius comes from exact face arithmetic when the domain has
    it (``inner_radius_exact``), otherwise from a bisection on 4096 sampled
    shell directions drawn from ``seed``, deflated by a recorded factor.
    """
    x = cvector(x)
    d.require_interior(x, "base point")
    probe = model.gauge(np.ones(model.dim, dtype=complex))
    if probe is None or not np.isfinite(model.bounding_radius):
        raise UnsupportedKindError("model must be bounded complete circular "
                                   "(gauge oracle required)")
    if model.dim != d.dim:
        raise DegenerateInputError("model dimension mismatch")
    if embedding not in (None, "automorphism"):
        raise DegenerateInputError(f"unknown embedding {embedding!r}")
    if embedding == "automorphism":
        if not same_model(d, model):
            raise UnsupportedKindError(
                "automorphism embedding needs the domain to be the model")
        phi = model_automorphism(d, x, d.basepoint)
        return SqueezeCertificate(
            d, model, x, 1.0, 1.0, phi, phi.inverse(),
            "model automorphism moving the point to the center",
            notes={"inner_method": "structural", "outer_method": "structural"})

    forward = AffineMap.translation_by(-x)
    inverse = AffineMap.translation_by(x)
    R, outer_method = model.outer_radius_bound(d, x)
    r = d.inner_radius_exact(x, model)
    if r is not None:
        inner_method = "closed-form"
    else:
        r = _inner_radius_sampled(d, inverse, model, R, SampleStream(seed).fork(1))
        inner_method = ("sampled shells, deflated by "
                        f"{config.SAMPLED_PREDICATE_DEFLATION}")
    r = min(r, R)
    return SqueezeCertificate(d, model, x, float(r), float(R), forward, inverse,
                              "identity translate",
                              notes={"inner_method": inner_method,
                                     "outer_method": outer_method})


def circularity_lower_bound(d: Domain, x, certificates) -> CircularityBound:
    """max over certificates of ratio^2, plus the exact center identity.

    At the center of a complete circular domain the indicatrix coincides with
    the domain itself, so c = 1 there; that certificate is added automatically.
    Max semantics: adding certificates never lowers the bound.
    """
    x = cvector(x)
    best = 0.0
    provenance = ""
    for cert in certificates:
        val = cert.ratio ** 2
        if val > best:
            best = val
            provenance = f"squeeze ratio {cert.ratio} ({cert.description})"
    probe = d.gauge(np.ones(d.dim, dtype=complex))
    if probe is not None and float(np.linalg.norm(x)) <= 1e-12 and best < 1.0:
        best = 1.0
        provenance = "circular center: the domain equals its indicatrix"
    if best <= 0.0:
        raise DegenerateInputError("no applicable certificate at this point")
    return CircularityBound(min(best, 1.0), provenance)


def barth_check(d: Domain, samples: int = 512, *, seed: int = 0) -> float:
    """Max discrepancy between the domain gauge and the indicatrix gauge at 0.

    The indicatrix gauge is the bracket midpoint of ``indicatrix(d, 0,
    samples, seed=seed)`` on its directions.  For a bounded complete circular
    domain the two agree exactly (Barth); closed-form kinds return
    roundoff-level values, bracketed kinds stay within the bracket half-width.
    """
    if d.gauge(np.ones(d.dim, dtype=complex)) is None:
        raise UnsupportedKindError("gauge oracle required (complete circular)")
    sample = indicatrix(d, np.zeros(d.dim, dtype=complex), samples, seed=seed)
    mid = 0.5 * (sample.gauge_lower + sample.gauge_upper)
    return float(np.max(np.abs(mid - np.asarray(d.gauge(sample.directions), dtype=float))))


# ---------------------------------------------------------------------------
# Corner pipeline on convex polyhedra
# ---------------------------------------------------------------------------

def _active_faces(d: ConvexPolyhedron, q):
    """Table indices of the faces active at the boundary point q: slack
    within 1e-9 of 0, relative to max(1, bound) on modulus faces."""
    s = d.slacks(cvector(q))
    tol = 1e-9 * np.where(np.arange(s.size) < d.modulus_count, np.maximum(1.0, d.bounds), 1.0)
    if np.any(s < -tol):
        raise DegenerateInputError("corner point lies outside the closure")
    return np.flatnonzero(np.abs(s) <= tol)


def polyhedral_pipeline(d: ConvexPolyhedron, q, x) -> SqueezeCertificate:
    """Squeeze certificate near a corner where exactly n faces meet.

    The chain: (i) each active face contributes the tangent complex hyperplane
    nearest to x (for a modulus face, the phase is arg f(x)); their common
    point p solves the associated linear system.  (ii) The affine map A_x
    sends p to 0 and each face's half-space to {Re < 0}, so A_x(Omega) lies in
    the left half-space product exactly, with A_x(x) real negative.  (iii) The
    componentwise Cayley transform takes the product to the unit polydisc with
    the corner going to (1, ..., 1).  (iv) A componentwise disc automorphism
    moves the image of x to 0 while fixing the corner at 1 (this normalization
    is one valid choice among the automorphisms interpolating the two
    conditions; it is recorded in the notes).  The outer radius is 1 by
    construction; the inner radius is the largest rho whose polydisc pulls
    back inside every face, decided exactly by interval arithmetic on the
    per-component disc preimages, and maximized by bisection.
    """
    if not isinstance(d, ConvexPolyhedron):
        raise UnsupportedKindError("the corner pipeline needs a polyhedral domain, got "
                                   + type(d).__name__)
    q = cvector(q)
    x = cvector(x)
    d.require_interior(x, "pipeline point")
    gap = float(np.linalg.norm(x - q))
    if gap > config.PIPELINE_PROXIMITY_RADIUS:
        raise ProximityError(
            f"point is {gap:.3f} away from the corner; the tangent-hyperplane "
            f"association is only certified within {config.PIPELINE_PROXIMITY_RADIUS}")
    active = _active_faces(d, q)
    n = d.dim
    if active.size != n:
        raise NormalityError(
            f"corner must have exactly {n} active faces, found {active.size}")

    # rows of the normalization A_x(z) = M z + t, one per active face: face k
    # is rotated by u_k (conj(f(x)) / |f(x)| on a modulus face, 1 on a real
    # one) and scaled by its margin divisor w_k, so that Re A_x < 0 is the
    # face's tangent half-space at x; a real row's imaginary part at x is
    # moved to 0 as well.  s is each face's gap at x.
    modulus = active < d.modulus_count
    F = d.face_values(x)[active]
    aF = np.abs(F)
    if np.any(aF[modulus] == 0):
        raise NormalityError("face value vanishes at the pipeline point; "
                             "tangent phase is undefined")
    u = np.where(modulus, F.conj() / np.where(modulus, aF, 1.0), 1.0)
    w, b = d.face_norms[active], d.bounds[active]
    M = u[:, None] * d.coeffs[active] / w[:, None]
    t = (u * d.consts[active] - b - 1j * np.where(modulus, 0.0, F.imag)) / w
    s = d.slacks(x)[active] / w
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise NormalityError("active face normals are degenerate at the corner")

    A = AffineMap(CLinearMap(M), t)
    ax = A(x)
    if float(np.max(np.abs(ax.imag))) > 1e-9 or np.any(ax.real >= 0):
        raise NormalityError("normalization failed to send the point to the "
                             "negative real axes")
    p = np.linalg.solve(M, -t)

    g = (1.0 - s) / (1.0 + s)
    phi = cayley(n)
    psi = ComponentwiseMap([Mobius1D(1.0, -gk, -gk, 1.0) for gk in g])
    forward = ComposedMap([A, phi, psi])
    inverse = forward.inverse()

    # pulled-back face arithmetic: z = Minv zeta + p, so every face value is
    # affine in zeta with matrix B = coeffs Minv; the sup of |affine| (of
    # Re affine on a real face) over a product of closed discs is its value
    # at the centers plus sum |B| * radii, exactly.
    Minv = np.linalg.solve(M, np.eye(n, dtype=complex))
    B = d.coeffs @ Minv
    Fp = d.face_values(p)
    mc = d.modulus_count
    phi_inv = Mobius1D.cayley_factor().inverse()

    def feasible(rho: float) -> bool:
        centers = np.empty(n, dtype=complex)
        radii = np.empty(n)
        for a in range(n):
            c1, r1 = Mobius1D(1.0, g[a], g[a], 1.0).disc_image(0.0, rho)
            c2, r2 = phi_inv.disc_image(c1, r1)
            centers[a], radii[a] = c2, r2
        at = Fp + B @ centers
        sup = np.concatenate([np.abs(at[:mc]), at[mc:].real]) + np.abs(B) @ radii
        return not np.any(sup >= d.bounds)

    lo, hi = 0.0, 1.0 - 1e-12
    if feasible(hi):
        lo = hi
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo < config.INNER_BISECT_TOL:
                break
    return SqueezeCertificate(
        d, polydisc(np.ones(n)), x, float(lo), 1.0, forward, inverse,
        "half-space normalization -> componentwise Cayley -> disc automorphism",
        notes={
            "inner_method": "bisection on exact per-face disc arithmetic",
            "outer_method": "structural (image lies in the half-space product)",
            "disc_factor": "componentwise Moebius fixing the boundary point 1; "
                           "any automorphism interpolating the two conditions "
                           "would do",
            "active_modulus_faces": [int(k) for k in active[modulus]],
            "active_real_faces": [int(k) - mc for k in active[~modulus]],
            "corner": [[float(c.real), float(c.imag)] for c in q],
            "tangent_point": [[float(c.real), float(c.imag)] for c in p],
            "face_gaps": [float(v) for v in s],
        })


# ---------------------------------------------------------------------------
# Boundary asymptotics sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    k: int
    dist_to_q: float
    r: float
    R: float
    ratio: float
    c_bound: float


@dataclass
class SweepReport:
    rows: list[SweepRow]
    threshold: float | None = None

    @property
    def final_ratio(self) -> float:
        return self.rows[-1].ratio

    @property
    def threshold_met(self) -> bool | None:
        if self.threshold is None:
            return None
        return self.final_ratio >= self.threshold

    def to_csv(self, fh):
        fh.write("k,dist_to_q,r,R,ratio,c_bound\n")
        for row in self.rows:
            fh.write(",".join([
                str(row.k), repr(row.dist_to_q), repr(row.r), repr(row.R),
                repr(row.ratio), repr(row.c_bound)]) + "\n")


def asymptotics_sweep(d: ConvexPolyhedron, q, steps: int = 12, *,
                      threshold: float | None = None) -> SweepReport:
    """Run the corner pipeline along x_k = base + (1 - 2^-k)(q - base), where
    base is the polyhedron's interior basepoint.

    Emits one row per step with the certified squeeze radii and the implied
    circularity bound; asserts nothing beyond an optional final-ratio
    threshold.  A schedule point outside the domain raises ScheduleError with
    the offending index.
    """
    q = cvector(q)
    base = d.basepoint
    rows = []
    for k in range(1, steps + 1):
        xk = base + (1.0 - 2.0 ** (-k)) * (q - base)
        if d.contains(xk) <= 0:
            raise ScheduleError("sweep point left the domain", index=k)
        cert = polyhedral_pipeline(d, q, xk)
        ratio = cert.ratio
        rows.append(SweepRow(k, float(np.linalg.norm(xk - q)), cert.inner_r,
                             cert.outer_R, ratio, ratio ** 2))
    return SweepReport(rows, threshold)
