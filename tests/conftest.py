import json

import numpy as np
import pytest

from invmet import zoo_domain


@pytest.fixture
def polydisc2_file(tmp_path):
    p = tmp_path / "polydisc2.json"
    p.write_text(json.dumps({"kind": "polydisc", "radii": [1.0, 1.0]}))
    return p


@pytest.fixture
def three_face_file(tmp_path):
    spec = {
        "kind": "polyhedron",
        "dim": 2,
        "faces": [
            {"type": "modulus", "coeffs": [1.0, 0.0], "bound": 1.0},
            {"type": "modulus", "coeffs": [0.0, 1.0], "bound": 1.0},
            {"type": "modulus", "coeffs": [1.0, 1.0], "bound": 1.5},
        ],
        "bounding_radius": 1.4142135623730951,
    }
    p = tmp_path / "three_face.json"
    p.write_text(json.dumps(spec))
    return p


@pytest.fixture
def pd2():
    return zoo_domain("polydisc2")


@pytest.fixture
def ball2():
    return zoo_domain("ball2")


@pytest.fixture
def three_face():
    return zoo_domain("three_face")


def assert_inside(domain, points):
    margins = np.array([float(domain.contains(z)) for z in np.atleast_2d(points)])
    assert margins.min() > 0


def segment_sandwich(d, x, y, intervals):
    """(midpoint sum, trapezoid) of the affine-disc integrand
    |w| / (section distance along w) on [x, y], w = y - x, over ``intervals``
    equal intervals.  The integrand is convex along the segment, so its
    integral lies between the two."""
    w = np.asarray(y) - np.asarray(x)
    nodes = np.linspace(0.0, 1.0, intervals + 1)
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    # one ray per row: the nodes, and the midpoints padded with t = 0
    T = np.stack([nodes, np.append(mids, 0.0)])
    g = np.linalg.norm(w) / d.section_distance_along(x, np.stack([w, w]), T)
    trapezoid = (g[0].sum() - 0.5 * (g[0, 0] + g[0, -1])) / intervals
    return g[1, :-1].sum() / intervals, trapezoid


def ball_against_bisection(d, x, r, count, seed, convention="standard"):
    """``distance_ball_sample(d, x, r, count, seed=seed)`` next to the 60-step
    bisection that the sampler ran before its radii had a closed form, on the
    same rays and targets.  An affine image's rays are drawn on its inner
    domain D at its inner point xD, where both run.  Returns a namespace of
    the ball, D, xD, the rays U and standard targets, the sampler's count of
    ``distance_value`` calls on D and the offsets W = t U of its last, and
    the radii t = |W| and final bracket [lo, hi] of the bisection per ray."""
    from types import SimpleNamespace

    from invmet import metrics
    from invmet.domains import AffineImage
    from invmet.sampling import SampleStream, root_directions

    D, xD = (d.inner, d.map_inv(x)) if isinstance(d, AffineImage) else (d, x)
    calls, value = [], D.distance_value
    D.distance_value = lambda x, w: calls.append(w) or value(x, w)
    try:
        ball = metrics.distance_ball_sample(d, x, r, count, seed=seed,
                                            convention=convention)
    finally:
        del D.distance_value
    U = root_directions(seed, count, D.dim)
    targets = metrics._shell_targets(SampleStream(seed).fork(1), count,
                                     r / metrics.distance_scale(convention))
    hi = D.section_distance_paired(xD[None, :], U) * (1.0 - 1e-12)
    lo = np.zeros(count)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = value(xD, mid[:, None] * U) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return SimpleNamespace(ball=ball, D=D, xD=xD, U=U, targets=targets, calls=len(calls),
                           W=calls[-1], t=np.linalg.norm(calls[-1], axis=1), lo=lo, hi=hi)
