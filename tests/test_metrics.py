"""Metric/distance brackets against closed forms and certified samplers."""

import io
import math
import warnings

import numpy as np
import pytest

from invmet import (
    HalfPlaneProduct,
    Polydisc,
    SampleStream,
    UnitBall,
    barth_check,
    distance_ball_sample,
    distance_scale,
    indicatrix,
    indicatrix_volume,
    kobayashi_distance,
    kobayashi_metric,
    config,
    write_indicatrix_csv,
    zoo_domain,
    zoo_names,
)
from invmet.domains import (
    AffineImage,
    BalancedConvex,
    ConvexPolyhedron,
    ModulusFace,
)
from invmet.metrics import indicatrix_gauge_upper, kobayashi_metric_values
from invmet.zoo import affine_twin, model_twins, twin_map

from test_domains import GAUGE_TWINS, _gauge_twin


def test_polydisc_metric_closed_form(pd2):
    b = kobayashi_metric(pd2, [0.9, 0], [1, 0])
    assert b.is_exact and b.width == 0.0
    assert b.value == pytest.approx(1.0 / (1.0 - 0.81), abs=1e-15)
    assert b.lower_method == "closed-form"
    # max over components, weighted by the radii
    d = Polydisc([1.0, 2.0])
    b2 = kobayashi_metric(d, [0, 0], [1, 1])
    assert b2.value == pytest.approx(1.0, abs=1e-15)


def test_ball_metric_closed_form(ball2):
    b = kobayashi_metric(ball2, [0.5, 0], [0, 1])
    assert b.is_exact
    # orthogonal direction at |z| = 1/2: 1/sqrt(1 - 1/4)
    assert b.value == pytest.approx(1.1547005383792515, abs=1e-15)
    assert kobayashi_metric(ball2, [0, 0], [0.6, 0.8j]).value == pytest.approx(1.0, abs=1e-15)


def test_halfplane_metric_pin():
    hp = HalfPlaneProduct(1)
    b = kobayashi_metric(hp, [1j], [1])
    assert b.value == 0.5 and b.width == 0.0


def test_metric_homogeneity_in_the_direction(three_face):
    x = np.array([0.1 + 0.1j, -0.2 + 0j])
    v = np.array([0.7, 0.4j])
    b1 = kobayashi_metric(three_face, x, v)
    b3 = kobayashi_metric(three_face, x, 3 * v)
    assert b3.lower == pytest.approx(3 * b1.lower, rel=1e-9)
    assert b3.upper == pytest.approx(3 * b1.upper, rel=1e-9)


def test_three_face_origin_brackets(three_face):
    b = kobayashi_metric(three_face, [0, 0], [1, 0])
    assert b.lower == pytest.approx(0.5, abs=1e-12)
    assert b.upper == pytest.approx(1.0, abs=1e-12)
    b2 = kobayashi_metric(three_face, [0, 0], [1, 1])
    assert b2.lower == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert b2.upper == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_gauge_body_lower_bounds_are_tagged_half_space(three_face):
    C = np.array([[1.2, 0.3 - 0.4j], [0.2j, 0.8]], dtype=complex)
    sv = np.linalg.svd(C, compute_uv=False)
    ellipsoid = BalancedConvex(lambda v: np.linalg.norm(np.asarray(v) @ C.T, axis=-1),
                               2, 1.0 / sv[-1], 1.0 / sv[0])
    x, v, y = [0.1, -0.2j], [1.0, 0.5], [0.2j, 0.1]
    for d in (ellipsoid, AffineImage(ellipsoid, twin_map(2)), three_face):
        x2 = d.basepoint + np.asarray(x)
        assert kobayashi_metric(d, x2, v).lower_method == "half-space"
        assert kobayashi_distance(d, x2, d.basepoint + np.asarray(y),
                                  tol=1e-3).lower_method == "half-space"


def test_affine_image_lower_bound_follows_seed():
    """kobayashi_metric on the affine image of a gauge body draws the same
    half-spaces as on the body, for every seed."""
    d = BalancedConvex(lambda v: np.sum(np.abs(np.asarray(v)) ** 4, axis=-1) ** 0.25,
                       2, 2.0 ** 0.25, 1.0)
    twin = affine_twin(d)
    T = twin.map
    stream = SampleStream(18)
    X = 0.8 * d.interior_samples(20, stream)
    V = stream.unit_directions(20, 2)
    for seed in (0, 5):
        for x, v in zip(X, V):
            body = kobayashi_metric(d, x, v, seed=seed)
            image = kobayashi_metric(twin, T(x), T.linear(v), seed=seed)
            # the pull-back moves x by an ulp, which the finite differences
            # (step 1e-6) lift to about 1e-11; other half-spaces move it by 1e-4
            assert image.lower == pytest.approx(body.lower, rel=1e-9, abs=0)


def test_sandwich_holds_across_the_zoo():
    stream = SampleStream(17)
    for name in zoo_names():
        d = zoo_domain(name)
        P = d.interior_samples(40, stream.fork(hash(name) % 1000))
        V = stream.unit_directions(40, d.dim)
        upper = d.metric_paired(P, V)
        if upper is None:
            upper = np.linalg.norm(V, axis=1) / d.section_distance_paired(P, V)
        lower = d.bracket_paired(P, V)[0]
        assert np.all(np.isfinite(upper))
        assert np.all(lower <= upper * (1 + 1e-12) + 1e-12), name


def test_larger_domain_has_smaller_metric():
    small = Polydisc([1.0, 1.0])
    big = Polydisc([2.0, 2.0])
    x = np.array([0.3 + 0.1j, 0.2j])
    v = np.array([1.0, 0.5j])
    P, V = x[None, :], v[None, :]
    assert big.metric_paired(P, V)[0] < small.metric_paired(P, V)[0]


def test_distance_closed_forms_and_conventions(pd2, ball2):
    d1 = kobayashi_distance(pd2, [0, 0], [1 / 3, 0])
    assert d1.width == 0.0
    assert d1.value == pytest.approx(math.atanh(1 / 3), abs=1e-15)
    d2 = kobayashi_distance(pd2, [0, 0], [1 / 3, 0], convention="paper")
    assert d2.value == pytest.approx(2 * math.atanh(1 / 3), abs=1e-15)
    db = kobayashi_distance(ball2, [0, 0], [0.5, 0])
    assert db.value == pytest.approx(math.atanh(0.5), rel=1e-12)
    hp = HalfPlaneProduct(1)
    dh = kobayashi_distance(hp, [1j], [2j])
    assert dh.value == pytest.approx(math.atanh(1 / 3), rel=1e-12)


@pytest.mark.parametrize("name", ["three_face", "balanced", "ball2", "three_face-twin",
                                  "ellipsoid"])
def test_distance_across_a_difference_whose_norm_underflows(name):
    """y - x = (1e-170, 0) has |y - x|^2 = 0 in doubles, yet x != y: the
    bracket is positive, not the coincident [0, 0].  The twin pulls the
    points back through a translation that would round y onto x, and the
    gauge body's quadrature walks along y - x."""
    if name == "ellipsoid":
        d, kw = _ellipsoid(), {"tol": 1e-4}
    elif name == "three_face-twin":
        d, kw = affine_twin(zoo_domain("three_face")), {}
    else:
        d, kw = zoo_domain(name), {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = kobayashi_distance(d, [0, 0], [1e-170, 0], **kw)
    assert 0 < b.lower <= b.upper < 1e-169


def test_distance_scale_guards_convention():
    assert distance_scale("standard") == 1.0
    assert distance_scale("paper") == 2.0
    with pytest.raises(ValueError):
        distance_scale("fancy")


def test_distance_symmetry_and_triangle_upper(three_face):
    x = np.array([0.0j, 0.0j])
    y = np.array([0.3 + 0.1j, -0.2 + 0j])
    z = np.array([-0.1 + 0j, 0.25j])
    dxy = kobayashi_distance(three_face, x, y)
    dyx = kobayashi_distance(three_face, y, x)
    # both brackets must cover the one true distance
    assert dxy.lower <= dyx.upper + 1e-12
    assert dyx.lower <= dxy.upper + 1e-12
    assert dxy.lower <= dxy.upper
    dxz = kobayashi_distance(three_face, x, z)
    dzy = kobayashi_distance(three_face, z, y)
    # triangle inequality on the certified upper bounds
    assert dxy.lower <= dxz.upper + dzy.upper + 1e-9


class _QuadraturePolyhedron(ConvexPolyhedron):
    """The three-face wedge |z_1| < 1, |z_2| < 1, |z_1 + z_2| < 1.5 without
    the closed-form length: its distances take the trapezoid quadrature that
    gauge bodies take."""

    def __init__(self):
        super().__init__([ModulusFace(np.array([1.0, 0.0]), 0.0, 1.0),
                          ModulusFace(np.array([0.0, 1.0]), 0.0, 1.0),
                          ModulusFace(np.array([1.0, 1.0]), 0.0, 1.5)],
                         2, bounding_radius=math.sqrt(2.0))

    def affine_disc_length(self, x, w):
        return None


def test_distance_reports_its_quadrature_work(three_face, pd2, ball2):
    x, y = np.zeros(2, dtype=complex), np.array([0.9, 0.0], dtype=complex)
    # along the axis the section is the disc |z_1| < 1: the length is log 10
    length, _ = three_face.affine_disc_length(x, y - x)
    assert length == pytest.approx(math.log(10.0), rel=1e-15)
    exact = kobayashi_distance(three_face, x, y)
    assert (exact.upper_method, exact.nodes, exact.converged) == ("affine-disc-length", 0, True)
    assert exact.upper == length + exact.final_delta and 0.0 < exact.final_delta < 1e-12
    quadrature = _QuadraturePolyhedron()
    # 9 nodes doubled 14 times is the cap: 131,073 nodes
    capped = kobayashi_distance(quadrature, x, y)
    assert capped.upper_method == "quadrature"
    assert capped.nodes == 131_073 and capped.converged is False
    assert capped.final_delta >= config.QUADRATURE_TOL
    loose = kobayashi_distance(quadrature, x, y, tol=1e-4)
    assert loose.converged is True and loose.nodes < capped.nodes
    assert 0.0 < loose.final_delta < 1e-4
    # the trapezoid overestimates, and the last refinement step folded into
    # the upper side covers the rest of its error
    for b in (capped, loose):
        assert length <= b.upper <= length + 2.0 * b.final_delta
        assert b.lower == exact.lower
    for d, y in ((pd2, [0.3, 0.1j]), (ball2, [0.5, 0])):
        b = kobayashi_distance(d, [0, 0], y)
        assert (b.nodes, b.converged, b.final_delta) == (0, True, 0.0)


def test_distance_ball_sample_is_certified(pd2):
    x = np.array([0.3 + 0.1j, -0.2 + 0j])
    ball = distance_ball_sample(pd2, x, 0.5, 400, seed=11)
    assert len(ball) == 400
    assert float(ball.distance_upper.max()) < 0.5
    margins = np.array([pd2.contains(p) for p in ball.points])
    assert margins.min() > 0
    # distance upper bounds certify: recompute a few via the distance oracle
    for p in ball.points[:5]:
        db = kobayashi_distance(pd2, x, p)
        assert db.lower <= 0.5
    again = distance_ball_sample(pd2, x, 0.5, 400, seed=11)
    np.testing.assert_array_equal(ball.points, again.points)


def test_distance_ball_respects_convention(ball2):
    x = np.zeros(2, complex)
    std = distance_ball_sample(ball2, x, 0.5, 300, seed=3, convention="standard")
    pap = distance_ball_sample(ball2, x, 0.5, 300, seed=3, convention="paper")
    # paper distances are twice the standard ones, so the paper ball is smaller
    r_std = float(np.linalg.norm(std.points, axis=1).max())
    r_pap = float(np.linalg.norm(pap.points, axis=1).max())
    assert r_pap < r_std
    assert r_std <= math.tanh(0.5) + 1e-9
    assert r_pap <= math.tanh(0.25) + 1e-9


def test_indicatrix_radii_bracket_model(pd2):
    s = indicatrix(pd2, [0, 0], directions=128)
    # unit-polydisc indicatrix radii lie between 1 (axes) and sqrt(2) (diagonal)
    assert np.all(s.radius_lower <= s.radius_upper + 1e-12)
    assert float(s.radius_mid.min()) >= 1.0 - 1e-9
    assert float(s.radius_mid.max()) <= math.sqrt(2) + 1e-9
    fh = io.StringIO()
    write_indicatrix_csv(s, fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "dir0_re,dir0_im,dir1_re,dir1_im,radius_lo,radius_hi"
    assert len(lines) == 1 + 128


def test_indicatrix_gauge_upper_matches_polydisc_model(pd2):
    x = np.zeros(2, complex)
    W = np.array([[0.5, 0.25], [0.1j, 0.9]], dtype=complex)
    g = indicatrix_gauge_upper(pd2, x, W)
    np.testing.assert_allclose(g, [0.5, 0.9], atol=1e-9)


def test_indicatrix_volume_disc_exact():
    disc = zoo_domain("disc")
    ve = indicatrix_volume(disc, [0.5], samples=2000, seed=1)
    # radius 1 - a^2 = 0.75 disc: area pi (1 - a^2)^2, zero sampling variance
    assert ve.value == pytest.approx(math.pi * 0.5625, rel=1e-12)
    assert ve.se < 1e-12
    assert ve.lower <= ve.value <= ve.upper + 1e-15


@pytest.mark.parametrize("name", ["three_face", "ball2", "ellipsoid"])
def test_volume_and_barth_read_the_indicatrix_of_their_seed(name):
    """The volume's radii and the Barth check's indicatrix gauge are those of
    ``indicatrix`` at the same seed, bit for bit."""
    d = _ellipsoid() if name == "ellipsoid" else zoo_domain(name)
    x = 0.5 * d.interior_samples(1, SampleStream(8))[0]
    sample = indicatrix(d, x, 1000, seed=4)
    r_lo = 1.0 / sample.gauge_upper
    with np.errstate(divide="ignore"):
        r_hi = np.where(sample.gauge_lower > 0, 1.0 / sample.gauge_lower, np.inf)
    coeff = math.pi ** d.dim / math.factorial(d.dim)
    ve = indicatrix_volume(d, x, 1000, seed=4)
    for got, radii in ((ve.value, 0.5 * (r_lo + r_hi)), (ve.lower, r_lo), (ve.upper, r_hi)):
        assert np.array_equal(got, coeff * (radii ** (2 * d.dim)).mean())
    centre = indicatrix(d, np.zeros(d.dim), 512, seed=6)
    mid = 0.5 * (centre.gauge_lower + centre.gauge_upper)
    assert np.array_equal(barth_check(d, 512, seed=6),
                          np.abs(mid - d.gauge(centre.directions)).max())


def _per_row_half_space_bound(d, x, v, stream, near):
    """Reference: the half-space lower bound of one row, guided by ``near``,
    half-space by half-space above the bounding-sphere floor."""
    best = float(np.linalg.norm(v)) / (2.0 * (np.linalg.norm(x) + d.bounding_radius))
    N, b = d.supporting_half_spaces(near=near, stream=stream)
    for n, gap in zip(N, b - np.real(N.conj() @ x)):
        if gap > 0:
            best = max(best, abs(complex(v @ n.conj())) / (2.0 * gap))
    return best


def _ellipsoid():
    C = np.array([[1.2, 0.3j], [-0.2, 0.8 + 0.1j]])
    sv = np.linalg.svd(C, compute_uv=False)
    return BalancedConvex(lambda v: np.linalg.norm(np.asarray(v) @ C.T, axis=-1),
                          2, 1.0 / sv[-1], 1.0 / sv[0])


@pytest.mark.parametrize("name", ["ellipsoid"] + GAUGE_TWINS)
def test_batched_half_space_bound_matches_the_per_row_bound(name):
    """A gauge body's lower side, guided by its section search's polygon."""
    d = _ellipsoid() if name == "ellipsoid" else _gauge_twin(name)
    stream = SampleStream(31)
    X = d.interior_samples(24, stream.fork(0))
    V = stream.fork(1).unit_directions(24, d.dim)
    V = V * stream.fork(2).uniform(24, 0.1, 3.0)[:, None]
    got = d.bracket_paired(X, V, stream.fork(3))[0]
    guide = d._section_search(X, V)[1]
    want = [_per_row_half_space_bound(d, X[i], V[i], stream.fork(3).fork(i), guide[i])
            for i in range(X.shape[0])]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.all(got > 0)


@pytest.mark.parametrize("name", ["disc", "polydisc2", "ball2", "halfplane",
                                  "sheared_polydisc", "turned_ball"])
def test_batched_half_space_bound_is_below_the_closed_form(name):
    """The bracket of the model's twin in the metric suite -- the same set
    as a polyhedron or a gauge body, with no closed form -- encloses the
    model's closed form, with a half-space lower side above 0."""
    d, twin = zoo_domain(name), model_twins()[name]
    stream = SampleStream(32)
    X = d.interior_samples(64, stream.fork(0))
    V = stream.fork(1).unit_directions(64, d.dim)
    exact = d.metric_paired(X, V)
    lower, upper = twin.bracket_paired(X, V, stream.fork(2))
    assert np.all(lower > 0)
    assert np.all(lower <= exact * (1.0 + 1e-12))
    assert np.all(upper >= exact * (1.0 - 1e-12))
    assert twin.metric_paired(X, V) is None


@pytest.mark.parametrize("name", ["three_face", "ball2", "ellipsoid"])
def test_bracket_of_a_direction_whose_norm_underflows(name):
    """v = (0, 6.6e-245) has |v|^2 = 0 in doubles; its bracket is 2^-800
    times the bracket at v 2^800, bit for bit, through every entry point."""
    d = _ellipsoid() if name == "ellipsoid" else zoo_domain(name)
    x = np.zeros(2, dtype=complex)
    v = np.array([0.0, 6.6e-245], dtype=complex)
    big = v * 2.0 ** 800
    # the middle row is an ordinary one, the same in both stacks
    rows = [0, 2]
    V = np.array([v, [0.3, 0.4j], v * 1j])
    V_big = V.copy()
    V_big[rows] *= 2.0 ** 800
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, want = kobayashi_metric(d, x, v), kobayashi_metric(d, x, big)
        assert (got.lower, got.upper) == (want.lower * 2.0 ** -800, want.upper * 2.0 ** -800)
        assert got.upper > 0
        lower, upper = kobayashi_metric_values(d, x, V)
        big_lower, big_upper = kobayashi_metric_values(d, x, V_big)
        paired = indicatrix_gauge_upper(d, x, V)
        big_paired = indicatrix_gauge_upper(d, x, V_big)
        assert np.all(paired > 0)
    for side, big_side in ((lower, big_lower), (upper, big_upper), (paired, big_paired)):
        assert np.array_equal(side[rows], big_side[rows] * 2.0 ** -800)
        assert np.all(side > 0)
    # and the ordinary row keeps its bits
    one = kobayashi_metric_values(d, x, V[1:2])
    assert (lower[1], upper[1]) == (one[0][0], one[1][0])
