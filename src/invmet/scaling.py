"""Indicatrix stretching frames and scaling-sequence equivalence audits.

The stretching frame at x collects greedy metric maximizers: mu_1 maximizes
K(x; .) on the unit sphere, mu_{alpha+1} maximizes on the Hermitian-orthogonal
complement of the earlier directions, and L maps u_alpha to mu_alpha e_alpha.
A schedule audit then compares the derivative-normalized sequence
tau = [dphi(p)]^{-1} (phi(.) - phi(p)) with the frame-normalized sequence
sigma = L (phi(.) - phi(p)) through the linear factor A = L dphi(p): the two
agree exactly as maps, so the sup-grid difference measures pure conditioning.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import config
from .automorphisms import ComposedMap
from .core import (
    AffineMap,
    CLinearMap,
    canonical_phase,
    cvector,
    maximize_on_unit_sphere,
    orthonormal_complement_basis,
)
from .domains import Domain
from .errors import DegenerateInputError, ScheduleError
from .metrics import MetricBound, indicatrix_volume, kobayashi_metric, kobayashi_metric_values
from .sampling import SampleStream


@dataclass(frozen=True)
class StretchingFrame:
    """Greedy metric frame: unit directions, values, and the stretching map."""

    base_point: np.ndarray
    directions: np.ndarray        # (n, n), row alpha = u_alpha
    values: np.ndarray            # (n,), descending positive
    map: CLinearMap               # L(u_alpha) = mu_alpha e_alpha
    brackets: tuple[MetricBound, ...]  # certified metric bounds per direction

    def __post_init__(self):
        n = self.values.size
        gram = self.directions @ self.directions.conj().T
        if np.max(np.abs(gram - np.eye(n))) > config.UNIT_NORM_TOL:
            raise DegenerateInputError("frame directions are not orthonormal")
        if np.any(self.values <= 0):
            raise DegenerateInputError("frame values must be positive")
        drops = np.diff(self.values)
        if np.any(drops > 1e-9 * self.values[:-1]):
            raise DegenerateInputError("frame values must be non-increasing")

    @property
    def det_abs(self) -> float:
        return abs(self.map.det)


def stretching_frame(d: Domain, x, *, seed: int = 0) -> StretchingFrame:
    """Greedy construction of the stretching frame at an interior point.

    Where the domain has a ``metric_form`` at x the frame is in closed form:
    for a Hermitian form Q it is the eigenbasis of Q by descending eigenvalue;
    for K = max_k |a_k . v| the maximum on a subspace S is max_k |P_S conj(a_k)|,
    attained along P_S conj(a_k).  Ties are broken deterministically: inside
    a cluster of eigenvalues equal within ``config.SPHERE_TIE_BAND`` the
    directions are the Householder QR of the cluster's projections of
    e_1, ..., e_n, in that order, and among tied rows the lowest index wins.
    Otherwise ``maximize_on_unit_sphere`` searches each complement on the
    bracket midpoint.  The certified bracket is kept alongside each value.
    """
    x = cvector(x)
    d.require_interior(x, "base point")
    n = d.dim
    form = d.metric_form(x)
    if form is None:
        U, mu = _searched_frame(d, x, seed)
    elif form.hermitian:
        U, mu = _eigen_frame(form.matrix)
    else:
        U, mu = _row_frame(form.matrix)
    brackets = tuple(kobayashi_metric(d, x, U[alpha], seed=seed + alpha) for alpha in range(n))
    # numerical near-ties may land out of order by strictly less than the
    # tie band; clamp to the theoretical monotone profile
    for a in range(1, n):
        if mu[a] > mu[a - 1]:
            if mu[a] - mu[a - 1] > 1e-9 * mu[a - 1]:
                raise DegenerateInputError("greedy frame values increased")
            mu[a] = mu[a - 1]
    L = CLinearMap(np.diag(mu) @ U.conj())
    return StretchingFrame(x, U, mu, L, brackets)


def _eigen_frame(Q):
    w, E = np.linalg.eigh(Q)
    w, E = w[::-1], E[:, ::-1]
    if w[-1] <= 0:
        raise DegenerateInputError("metric form is not positive definite")
    start = 0
    for end in range(1, w.size + 1):
        if end == w.size or w[end - 1] - w[end] > config.SPHERE_TIE_BAND * w[end - 1]:
            cluster = E[:, start:end]
            E[:, start:end] = cluster @ np.linalg.qr(cluster.conj().T)[0]
            start = end
    U = np.stack([canonical_phase(E[:, a]) for a in range(w.size)])
    return U, np.sqrt(w)


def _row_frame(A):
    n = A.shape[1]
    U = np.empty((n, n), dtype=complex)
    mu = np.empty(n)
    proj = np.eye(n, dtype=complex)
    for alpha in range(n):
        W = (A @ proj).conj()            # rows P_S conj(a_k), as P_S is Hermitian
        norms = np.linalg.norm(W, axis=1)
        top = norms.max()
        if top <= 0:
            raise DegenerateInputError("metric form vanishes on a subspace")
        k = int(np.argmax(norms >= top * (1.0 - config.SPHERE_TIE_BAND)))
        U[alpha] = canonical_phase(W[k] / norms[k])
        mu[alpha] = norms[k]
        proj = proj - np.outer(U[alpha], U[alpha].conj())
    return U, mu


def _searched_frame(d: Domain, x, seed: int):
    stream = SampleStream(seed)

    def f(V):
        lower, upper = kobayashi_metric_values(d, x, V, stream=stream.fork(0))
        return 0.5 * (lower + upper)

    chosen, values = [], []
    for alpha in range(d.dim):
        basis = orthonormal_complement_basis(chosen, dim=d.dim)
        u, val = maximize_on_unit_sphere(f, basis=basis, seed=seed + alpha)
        chosen.append(u)
        values.append(float(val))
    return np.stack(chosen), np.array(values)


def frankel_tau(phi, p) -> ComposedMap:
    """tau = [dphi(p)]^{-1} o (phi(.) - phi(p)); tau(p) = 0, dtau(p) = Id."""
    p = cvector(p)
    J = CLinearMap(np.asarray(phi.derivative(p), dtype=complex))
    Jinv = J.inverse()
    target = Jinv(np.asarray(phi(p), dtype=complex))
    return ComposedMap([phi, AffineMap(Jinv, -target)])


def indicatrix_sigma(phi, p, frame: StretchingFrame) -> ComposedMap:
    """sigma = L o (phi(.) - phi(p)); sigma(p) = 0.  L is the stretching map
    of ``frame``, which the caller computes at phi(p)."""
    q = np.asarray(phi(cvector(p)), dtype=complex)
    L = frame.map
    return ComposedMap([phi, AffineMap(L, -L(q))])


@dataclass
class ScalingRecord:
    index: int
    parameter: float
    point: np.ndarray             # p_j = phi_j(p)
    boundary_margin: float
    frame_values: np.ndarray
    singular_values: np.ndarray
    det_abs: float
    sup_grid_diff: float

    @property
    def c1(self) -> float:
        return float(self.singular_values[-1])

    @property
    def c2(self) -> float:
        return float(self.singular_values[0])


@dataclass
class ScalingReport:
    domain: str
    records: list[ScalingRecord]
    grid_size: int
    seed: int
    wall_time: float

    @property
    def max_det_abs(self) -> float:
        return max(r.det_abs for r in self.records)

    @property
    def max_distortion_ratio(self) -> float:
        return max(r.c2 / r.c1 for r in self.records)

    @property
    def max_sup_diff(self) -> float:
        return max(r.sup_grid_diff for r in self.records)

    @property
    def bounded(self) -> bool:
        vals = [r.det_abs for r in self.records] + \
               [r.c2 / r.c1 for r in self.records]
        return all(np.isfinite(v) for v in vals)

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "seed": self.seed,
            "grid_size": self.grid_size,
            "wall_time": self.wall_time,
            "summary": {
                "max_det_abs": self.max_det_abs,
                "max_distortion_ratio": self.max_distortion_ratio,
                "max_sup_grid_diff": self.max_sup_diff,
                "bounded": self.bounded,
            },
            "records": [
                {
                    "index": r.index,
                    "parameter": r.parameter,
                    "point": _cseq(r.point),
                    "boundary_margin": r.boundary_margin,
                    "frame_values": list(map(float, r.frame_values)),
                    "singular_values": list(map(float, r.singular_values)),
                    "det_abs": r.det_abs,
                    "c1": r.c1,
                    "c2": r.c2,
                    "sup_grid_diff": r.sup_grid_diff,
                }
                for r in self.records
            ],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


def _cseq(z):
    return [[float(c.real), float(c.imag)] for c in np.asarray(z, dtype=complex)]


def default_schedule(steps: int) -> list[float]:
    """Geometric drag schedule: member k leaves boundary distance ~ 2^-k."""
    return [float(k) for k in range(1, steps + 1)]


def equivalence_audit(d: Domain, family, p, schedule, *,
                      seed: int = 0, grid_size: int = 100) -> ScalingReport:
    """Audit tau_j vs A_j^{-1} o sigma_j over a boundary-drag schedule.

    The maps are compared on ``grid_size`` interior samples of ``d`` drawn
    from ``seed``, which also seeds each frame search.  The two maps coincide
    identically, so sup-grid differences reflect only floating-point
    conditioning; the report records |det A_j| and the singular value range
    as the empirical C_1, C_2 of the equivalence estimate.
    """
    start = time.monotonic()
    p = cvector(p)
    d.require_interior(p, "base point")
    grid = d.interior_samples(grid_size, SampleStream(seed).fork(977))

    records = []
    prev_margin = np.inf
    for j, t in enumerate(schedule):
        phi = family.automorphism(t)
        q = np.asarray(phi(p), dtype=complex)
        margin = d.contains(q)
        if margin <= 0:
            raise ScheduleError("schedule point left the domain", index=j)
        if margin > prev_margin * (1.0 + 1e-9):
            raise ScheduleError("boundary distance is not monotone", index=j)
        prev_margin = margin

        frame = stretching_frame(d, q, seed=seed)
        J = np.asarray(phi.derivative(p), dtype=complex)
        A = frame.map.matrix @ J
        svals = np.linalg.svd(A, compute_uv=False)
        tau = frankel_tau(phi, p)
        sigma = indicatrix_sigma(phi, p, frame)
        T = np.asarray(tau(grid), dtype=complex)
        S = np.asarray(sigma(grid), dtype=complex)
        back = np.linalg.solve(A, S.T).T
        sup = float(np.max(np.linalg.norm(T - back, axis=1)))
        records.append(ScalingRecord(
            index=j, parameter=float(t), point=q, boundary_margin=float(margin),
            frame_values=frame.values, singular_values=svals,
            det_abs=float(abs(np.linalg.det(A))), sup_grid_diff=sup))
    return ScalingReport(d.label, records, grid.shape[0], seed, time.monotonic() - start)


@dataclass(frozen=True)
class JacobianVolumeReport:
    """|det dphi(p)|^2 against the indicatrix volume ratio at p and phi(p)."""

    det_sq: float
    volume_ratio: float
    rel_error: float
    se_ratio: float
    volume_at_p: float
    volume_at_q: float

    @classmethod
    def from_volumes(cls, det_sq: float, vp, vq) -> "JacobianVolumeReport":
        """The report of volumes vp at p and vq at phi(p), whose ratio should
        be det_sq; the standard errors combine as independent."""
        ratio = vq.value / vp.value
        se = ratio * float(np.hypot(vp.se / vp.value, vq.se / vq.value))
        rel = abs(ratio - det_sq) / det_sq if det_sq > 0 else np.inf
        return cls(det_sq, ratio, rel, se, vp.value, vq.value)

    @property
    def within(self) -> float:
        """Discrepancy measured in combined standard errors: 0 for a ratio
        within ``MODEL_BRACKET_TOL`` relative of det_sq, as closed forms give
        with se 0, and inf for any other ratio with se 0."""
        if self.rel_error <= config.MODEL_BRACKET_TOL:
            return 0.0
        if self.se_ratio == 0.0:
            return np.inf
        return abs(self.volume_ratio - self.det_sq) / self.se_ratio


def volume_jacobian_check(d: Domain, phi, p, samples: int = 100_000, *,
                          seed: int = 0) -> JacobianVolumeReport:
    """Check |det dphi(p)|^2 = Vol(I(phi(p))) / Vol(I(p)), in closed form
    where d has a ``metric_form``, else by Monte Carlo."""
    p = cvector(p)
    q = np.asarray(phi(p), dtype=complex)
    det_sq = float(abs(np.linalg.det(np.asarray(phi.derivative(p)))) ** 2)
    return JacobianVolumeReport.from_volumes(
        det_sq, indicatrix_volume(d, p, samples, seed=seed),
        indicatrix_volume(d, q, samples, seed=seed + 1))
