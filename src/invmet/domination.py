"""Uniform domination of metric balls by scaled indicatrices.

The half-plane is the sharp model: the distance ball of radius r around ib is
the Apollonius disc with center i b (1+t^2)/(1-t^2) and Euclidean radius
2 b t / (1 - t^2), where t is the tanh parameter of the convention in force
(t = tanh r for the self-consistent pairing, tanh(r/2) for the doubled
distance).  Its worst indicatrix-gauge point sits on top of the circle and
achieves exactly lambda(r) = t / (1 - t).  Bounded convex domains satisfy the
same containment with an extra factor 2; the checks here are one-sided: points
enter a ball only with a certified distance upper bound, and their gauge is
evaluated through the metric's upper bound, so a pass never relies on
unproven exactness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .core import cvector
from .domains import Domain
from .errors import DegenerateInputError, UnboundedValueError
from .metrics import distance_ball_sample, distance_scale, indicatrix_gauge_upper
from .sampling import SampleStream

# the base points ib of the half-plane sharpness check
HALFPLANE_HEIGHTS = (0.1, 1.0, 10.0)


def tanh_parameter(r: float, convention: str = "standard") -> float:
    """The t with distance r = atanh(t) (standard) or 2 atanh(t) (paper)."""
    if r < 0:
        raise DegenerateInputError("radius must be nonnegative")
    return math.tanh(r / distance_scale(convention))


def lambda_halfplane(r: float, convention: str = "standard") -> float:
    """lambda(r) = t/(1-t): the sharp half-plane domination factor.

    Equivalently (b(r) - b + sqrt(b(r)^2 - b^2)) / (2b) with b(r) the
    Apollonius center height; the b-dependence cancels.
    """
    t = tanh_parameter(r, convention)
    if not (t < 1.0) or not math.isfinite(r):
        raise UnboundedValueError("lambda(r) is unbounded: tanh parameter >= 1")
    return t / (1.0 - t)


def apollonius_disc(b: float, r: float, convention: str = "standard"):
    """(imaginary center height, Euclidean radius) of B(ib; r) in Im z > 0."""
    if b <= 0:
        raise DegenerateInputError("base height must be positive")
    t = tanh_parameter(r, convention)
    if t >= 1.0:
        raise UnboundedValueError("distance ball fills the half-plane")
    return b * (1.0 + t * t) / (1.0 - t * t), 2.0 * b * t / (1.0 - t * t)


@dataclass
class DominationCell:
    """One (x, r) check: worst observed gauge against the claimed bound."""

    base_point: np.ndarray
    radius: float
    lambda_value: float
    claimed_bound: float
    worst_gauge: float
    samples: int

    @property
    def ratio(self) -> float:
        return self.worst_gauge / self.claimed_bound


@dataclass
class DominationProfile:
    domain: str
    convention: str
    factor: float                  # 1 for the sharp half-plane, 2 for convex
    cells: list[DominationCell] = field(default_factory=list)
    tolerance: float = config.DOMINATION_TOL
    warnings: list[str] = field(default_factory=list)

    @property
    def radii(self):
        return sorted({c.radius for c in self.cells})

    @property
    def worst_ratio(self) -> float:
        return max(c.ratio for c in self.cells)

    def holds(self, cell: DominationCell) -> bool:
        """The cell's worst gauge is within its claimed bound, to the tolerance."""
        return cell.worst_gauge <= cell.claimed_bound * (1 + self.tolerance)

    @property
    def passed(self) -> bool:
        return all(self.holds(c) for c in self.cells)

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "convention": self.convention,
            "factor": self.factor,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "warnings": list(self.warnings),
            "cells": [
                {
                    "base_point": [[float(z.real), float(z.imag)]
                                   for z in np.atleast_1d(c.base_point)],
                    "radius": c.radius,
                    "lambda": c.lambda_value,
                    "claimed_bound": c.claimed_bound,
                    "worst_gauge": c.worst_gauge,
                    "samples": c.samples,
                }
                for c in self.cells
            ],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


def verify_halfplane_domination(b_values, r_values, samples: int = 2048, *,
                                seed: int = 0,
                                convention: str = "standard") -> DominationProfile:
    """Sharpness check on the upper half-plane.

    For each (b, r) the distance ball around ib is the Apollonius disc; its
    translate by -ib is gauged by |w| / (2b) against the indicatrix disc of
    radius 2b.  The worst boundary point (the top of the circle, included
    deterministically) must reproduce lambda(r) to machine precision.
    """
    profile = DominationProfile("halfplane-upper", convention, 1.0,
                                tolerance=config.SHARPNESS_TOL)
    stream = SampleStream(seed)
    for b in b_values:
        for r in r_values:
            lam = lambda_halfplane(r, convention)
            center, radius = apollonius_disc(b, r, convention)
            th = stream.uniform(samples, 0.0, 2.0 * math.pi)
            boundary = (center * 1j) + radius * np.exp(1j * th)
            interior = (center * 1j) + radius * np.sqrt(
                stream.uniform(samples)) * np.exp(
                    1j * stream.uniform(samples, 0.0, 2.0 * math.pi))
            top = 1j * (center + radius)
            pts = np.concatenate([boundary, interior, [top]])
            gauges = np.abs(pts - 1j * b) / (2.0 * b)
            worst = float(np.max(gauges))
            profile.cells.append(DominationCell(
                base_point=np.array([1j * b]), radius=float(r),
                lambda_value=lam, claimed_bound=lam, worst_gauge=worst,
                samples=pts.size))
            analytic = (center - b + radius) / (2.0 * b)
            if abs(analytic - lam) > config.SHARPNESS_TOL * max(1.0, lam):
                profile.warnings.append(
                    f"analytic extremum mismatch at b={b}, r={r}: "
                    f"{analytic} vs {lam}")
    return profile


def verify_convex_domination(d: Domain, x_values, r_values,
                             samples: int = 2000, *, seed: int = 0,
                             convention: str = "standard",
                             tol: float = config.DOMINATION_TOL) -> DominationProfile:
    """Certified check of B(x; r) - x inside 2 lambda(r) I(x) on a convex domain.

    Ball points carry distance upper bounds < r; gauges are metric upper
    bounds.  Both overestimates point the same way, so a pass is sound.
    """
    profile = DominationProfile(d.label, convention, 2.0, tolerance=tol)
    stream = SampleStream(seed)
    for i, x in enumerate(x_values):
        x = cvector(x)
        for j, r in enumerate(r_values):
            lam = lambda_halfplane(r, convention)
            cell_seed = stream.fork(1000 * i + j).integers(0, 2**31)
            ball = distance_ball_sample(d, x, r, samples, seed=int(cell_seed),
                                        convention=convention)
            offsets = ball.points - x[None, :]
            gauges = indicatrix_gauge_upper(d, x, offsets)
            profile.cells.append(DominationCell(
                base_point=x, radius=float(r), lambda_value=lam,
                claimed_bound=2.0 * lam, worst_gauge=float(np.max(gauges)),
                samples=len(ball)))
    return profile
