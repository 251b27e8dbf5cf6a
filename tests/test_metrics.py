"""Metric/distance brackets against closed forms and certified samplers."""

import io
import math
import warnings

import numpy as np
import pytest

from invmet import (
    AffineMap,
    SampleStream,
    UnitBall,
    barth_check,
    distance_ball_sample,
    distance_scale,
    halfplane_product,
    indicatrix,
    indicatrix_volume,
    kobayashi_distance,
    kobayashi_metric,
    config,
    polydisc,
    write_indicatrix_csv,
    zoo_domain,
    zoo_names,
)
from invmet.domains import (
    AffineImage,
    BalancedConvex,
    ConvexPolyhedron,
    same_model,
)
from invmet import metrics
from invmet.errors import (DegenerateInputError, DimensionMismatchError, NotInteriorError,
                           UnboundedValueError)
from invmet.metrics import indicatrix_gauge_upper, kobayashi_metric_values
from invmet.sampling import root_directions
from invmet.zoo import affine_twin, model_twins, twin_map

from conftest import ball_against_bisection
from test_domains import ELLIPSOID_C, GAUGE_TWINS, _counted_body, _gauge_twin


def test_polydisc_metric_closed_form(pd2):
    b = kobayashi_metric(pd2, [0.9, 0], [1, 0])
    assert b.is_exact and b.width == 0.0
    assert b.value == pytest.approx(1.0 / (1.0 - 0.81), abs=1e-15)
    assert b.lower_method == "closed-form"
    # max over components, weighted by the radii
    d = polydisc([1.0, 2.0])
    b2 = kobayashi_metric(d, [0, 0], [1, 1])
    assert b2.value == pytest.approx(1.0, abs=1e-15)


def test_ball_metric_closed_form(ball2):
    b = kobayashi_metric(ball2, [0.5, 0], [0, 1])
    assert b.is_exact
    # orthogonal direction at |z| = 1/2: 1/sqrt(1 - 1/4)
    assert b.value == pytest.approx(1.1547005383792515, abs=1e-15)
    assert kobayashi_metric(ball2, [0, 0], [0.6, 0.8j]).value == pytest.approx(1.0, abs=1e-15)


def test_halfplane_metric_pin():
    hp = halfplane_product(1)
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
    """At the centre the metric is the gauge (Barth): 1 along (1, 0) and 4/3
    along (1, 1), which the face-disc lower side meets within its 4 eps
    allowance."""
    for v, true in (([1, 0], 1.0), ([1, 1], 4.0 / 3.0)):
        b = kobayashi_metric(three_face, [0, 0], v)
        assert b.upper == pytest.approx(true, rel=1e-15)
        assert b.lower == pytest.approx(true, rel=5 * np.finfo(float).eps)
    # kobayashi_metric clips the lower side at the upper one; the oracle does not
    lower, upper = three_face.bracket_paired(np.zeros((1, 2)), np.array([[1, 0], [1, 1]]))
    assert np.all(lower <= upper)


def _assert_lower_tag(d, method):
    x, v, y = [0.1, -0.2j], [1.0, 0.5], [0.2j, 0.1]
    x2 = d.basepoint + np.asarray(x)
    assert kobayashi_metric(d, x2, v).lower_method == method
    assert kobayashi_distance(d, x2, d.basepoint + np.asarray(y),
                              tol=1e-3).lower_method == method


def test_gauge_body_lower_bounds_are_tagged_half_space():
    C = np.array([[1.2, 0.3 - 0.4j], [0.2j, 0.8]], dtype=complex)
    sv = np.linalg.svd(C, compute_uv=False)
    ellipsoid = BalancedConvex(lambda v: np.linalg.norm(np.asarray(v) @ C.T, axis=-1),
                               2, 1.0 / sv[-1], 1.0 / sv[0])
    for d in (ellipsoid, AffineImage(ellipsoid, twin_map(2))):
        _assert_lower_tag(d, "half-space")


def test_face_table_lower_bounds_are_tagged_face_disc(three_face):
    for d in (three_face, AffineImage(three_face, twin_map(2)), model_twins()["balanced"]):
        _assert_lower_tag(d, "face-disc")


@pytest.mark.parametrize("name, tags", [("three_face", ("face-disc", "affine-disc")),
                                        ("polydisc2", ("closed-form", "closed-form"))])
def test_an_affine_image_metric_query_pulls_its_row_back_once(monkeypatch, name, tags):
    """kobayashi_metric on an affine image pulls its one row back once, for
    the closed form and for the bracket, and reads the image's own oracles'
    bits; an unbounded image without a closed form still raises."""
    calls = []
    pull_back = AffineImage._pull_back

    def counted(self, P, V):
        calls.append(len(V))
        return pull_back(self, P, V)

    monkeypatch.setattr(AffineImage, "_pull_back", counted)
    twin = affine_twin(zoo_domain(name))
    x, v = twin.map(np.array([0.2, -0.1j])), np.array([1.0, 0.0])
    bound = kobayashi_metric(twin, x, v, seed=3)
    assert calls == [1]
    assert (bound.lower_method, bound.upper_method) == tags
    lower, upper = twin.bracket_paired(x[None, :], v[None, :], SampleStream(3))
    assert (bound.lower, bound.upper) == (lower[0], upper[0])
    calls.clear()
    with pytest.raises(UnboundedValueError):
        kobayashi_metric(affine_twin(model_twins()["halfplane"]), [0.1 + 1j], [1.0])
    assert calls == [1]


def test_affine_image_lower_bound_follows_seed():
    """kobayashi_metric on the affine image of a gauge body draws the same
    half-spaces as on the body, for every seed."""
    d = BalancedConvex(lambda v: np.sum(np.abs(np.asarray(v)) ** 4, axis=-1) ** 0.25,
                       2, 2.0 ** 0.25, 1.0)
    twin = affine_twin(d)
    T = twin.map
    # the pull-back moves x by an ulp, and with it the section search's guide
    # and the boundary points, so each difference quotient (step t = 1e-6)
    # re-rolls its rounding: within the allowance supporting_half_spaces
    # gives it, 8 eps (g + g0) / t with g, g0 about 1, 3.6e-9 (measured up to
    # 1.6e-9, median 2e-10)
    rel = 8.0 * np.finfo(float).eps * 2.0 / 1e-6
    stream = SampleStream(18)
    X = 0.8 * d.interior_samples(20, stream)
    V = stream.unit_directions(20, 2)
    for seed in (0, 5):
        for x, v in zip(X, V):
            body = kobayashi_metric(d, x, v, seed=seed)
            image = kobayashi_metric(twin, T(x), T.linear(v), seed=seed)
            assert image.lower == pytest.approx(body.lower, rel=rel, abs=0)


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
    small = polydisc([1.0, 1.0])
    big = polydisc([2.0, 2.0])
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
    hp = halfplane_product(1)
    dh = kobayashi_distance(hp, [1j], [2j])
    assert dh.value == pytest.approx(math.atanh(1 / 3), rel=1e-12)


@pytest.mark.parametrize("name", ["three_face", "balanced", "ball2", "three_face-twin",
                                  "ellipsoid", "turned_ball", "sheared_polydisc"])
def test_distance_across_a_difference_whose_norm_underflows(name):
    """y - x = (1e-170, 0) has |y - x|^2 = 0 in doubles, yet x != y: the
    bracket is positive, not the coincident [0, 0].  The twins pull the
    points back through a translation that would round y onto x, so they
    pull back the offset y - x through the linear part, and the gauge body's
    quadrature walks along y - x."""
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


@pytest.mark.parametrize("name", ["disc", "polydisc2", "ball2", "halfplane", "sheared_polydisc",
                                  "turned_ball"])
def test_coincident_points_are_zero_apart_on_models(name):
    """At coincident points off the centre every closed-form distance is 0
    exactly: the offset is 0, whatever rounding x carries."""
    for d in (zoo_domain(name), affine_twin(zoo_domain(name))):
        for x in d.interior_samples(8, SampleStream(3)):
            b = kobayashi_distance(d, x, x)
            assert (b.lower, b.upper) == (0.0, 0.0)


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
    the closed-form length: its distances take the chord quadrature that
    gauge bodies take."""

    def __init__(self):
        super().__init__([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.zeros(3), [1.0, 1.0, 1.5], 3,
                         math.sqrt(2.0))

    def affine_disc_length(self, x, w):
        return None


def test_distance_reports_its_quadrature_work(three_face, pd2, ball2, monkeypatch):
    x, y = np.zeros(2, dtype=complex), np.array([0.9, 0.0], dtype=complex)
    # along the axis the section is the disc |z_1| < 1: the length is log 10
    length, _ = three_face.affine_disc_length(x, y - x)
    assert length == pytest.approx(math.log(10.0), rel=1e-15)
    exact = kobayashi_distance(three_face, x, y)
    assert (exact.upper_method, exact.nodes, exact.converged) == ("affine-disc-length", 0, True)
    assert exact.upper == length + exact.final_delta and 0.0 < exact.final_delta < 1e-12
    quadrature = _QuadraturePolyhedron()
    # there the section distance 1 - t is linear, so its chord is exact and
    # the first refinement does not move the estimate: the upper side adds
    # only the bound on the sum's rounding, and never reads below log 10
    axis = kobayashi_distance(quadrature, x, y)
    assert (axis.nodes, axis.converged) == (17, True)
    assert 0.0 < axis.final_delta < 1e-13
    assert length <= axis.upper == pytest.approx(length, rel=1e-13)
    assert math.log(10.0) < axis.upper
    # toward (0.9, 0.3i) the section distance is linear too, and the sum
    # alone reads two ulps below the length there
    y_off = np.array([0.9, 0.3j])
    off = kobayashi_distance(quadrature, x, y_off)
    assert three_face.affine_disc_length(x, y_off - x)[0] <= off.upper
    # off the axis the section distance bends near the face |z_1 + z_2| < 1.5;
    # the face-disc lower side leaves a bracket about 2.2 wide, and the nodes
    # double until a refinement moves the upper side by less than
    # QUADRATURE_WIDTH_FRACTION of it, far above tol
    x, y = np.array([0.3j, 0.3j]), np.array([0.74, 0.74], dtype=complex)
    length, _ = three_face.affine_disc_length(x, y - x)
    exact = kobayashi_distance(three_face, x, y)
    wide = kobayashi_distance(quadrature, x, y)
    assert wide.upper_method == "quadrature"
    assert (wide.nodes, wide.converged) == (65, True)
    assert config.QUADRATURE_TOL < wide.final_delta < config.QUADRATURE_WIDTH_FRACTION * wide.width
    assert wide.lower == exact.lower and wide.width > 2.0
    # a lower side at the length itself leaves the quadrature's own error as
    # the bracket, so tol decides: 9 nodes doubled 14 times is the cap,
    # 131,073 nodes, at the default, and tol = 1e-4 stops sooner
    monkeypatch.setattr(quadrature, "distance_lower_bound", lambda x, w, stream=None: length)
    capped = kobayashi_distance(quadrature, x, y)
    assert capped.upper_method == "quadrature"
    assert capped.nodes == 131_073 and capped.converged is False
    assert capped.final_delta >= config.QUADRATURE_TOL
    loose = kobayashi_distance(quadrature, x, y, tol=1e-4)
    assert (loose.nodes, loose.converged) == (257, True)
    assert config.QUADRATURE_WIDTH_FRACTION * loose.width < loose.final_delta < 1e-4
    # the chord bound overestimates, and the last refinement step folded
    # into the upper side covers the rest of its error
    for b in (wide, capped, loose):
        assert length <= b.upper <= length + 2.0 * b.final_delta
    assert capped.lower == loose.lower == length
    for d, y in ((pd2, [0.3, 0.1j]), (ball2, [0.5, 0])):
        b = kobayashi_distance(d, [0, 0], y)
        assert (b.nodes, b.converged, b.final_delta) == (0, True, 0.0)


@pytest.mark.parametrize("x,y,nodes", [((0.0, 0.0), (0.3, 0.2j), 17),
                                       ((0.2, -0.1j), (-0.25j, 0.3), 33),
                                       ((0.5, 0.1), (0.1j, -0.4), 65)],
                         ids=["centre", "across", "far"])
def test_gauge_distance_quadrature_stops_at_a_fraction_of_its_bracket(x, y, nodes):
    """On the ellipsoid {|C z| < 1} through its elementwise gauge, at the
    default tol, the three pairs converge on 17, 33 and 65 nodes (against
    tol alone they took 131,073, 65,537 and 131,073, the first unconverged),
    and each bracket encloses the closed form of the same set as an affine
    image of the unit ball."""
    d = _counted_body("ellipsoid")[0]
    x, y = np.array(x, dtype=complex), np.array(y, dtype=complex)
    b = kobayashi_distance(d, x, y)
    assert (b.upper_method, b.nodes, b.converged) == ("quadrature", nodes, True)
    ball = AffineImage(UnitBall(2), AffineMap(np.linalg.inv(ELLIPSOID_C), np.zeros(2)))
    assert b.lower <= kobayashi_distance(ball, x, y).value <= b.upper


ONE_OF_EACH_KIND = {
    "ball": lambda: zoo_domain("ball2"),
    "product-table": lambda: zoo_domain("polydisc2"),
    "table": lambda: zoo_domain("three_face"),
    "affine-image": lambda: zoo_domain("sheared_polydisc"),
    "gauge-body": lambda: _gauge_twin("three_face"),
}


@pytest.mark.parametrize("entry", [
    lambda d, x: kobayashi_metric(d, x, [1.0, 0.5j]),
    lambda d, x: indicatrix(d, x, 16),
    lambda d, x: distance_ball_sample(d, x, 0.5, 16),
], ids=["kobayashi_metric", "indicatrix", "distance_ball_sample"])
@pytest.mark.parametrize("make", ONE_OF_EACH_KIND.values(), ids=ONE_OF_EACH_KIND.keys())
def test_metric_entry_points_reject_a_point_outside(make, entry):
    """The oracles behind each entry point check the base point."""
    d = make()
    x = np.array([1.2, 0.9j])
    assert d.contains(x) < 0
    with pytest.raises(NotInteriorError):
        entry(d, x)


@pytest.mark.parametrize("entry", [
    lambda d, z: kobayashi_metric(d, z, [1.0, 0.5j]),
    lambda d, z: kobayashi_metric(d, [0.1, 0.2j], z),
    lambda d, z: indicatrix(d, z, 16),
    lambda d, z: distance_ball_sample(d, z, 0.5, 16),
], ids=["kobayashi_metric", "kobayashi_metric-direction", "indicatrix",
        "distance_ball_sample"])
@pytest.mark.parametrize("make", ONE_OF_EACH_KIND.values(), ids=ONE_OF_EACH_KIND.keys())
@pytest.mark.parametrize("z", [[0.3], [0.1, 0.2j, 0.0]], ids=["short", "long"])
def test_metric_entry_points_reject_a_vector_of_the_wrong_size(make, entry, z):
    """The size of the base point and of the direction is checked before any
    oracle broadcasts them."""
    with pytest.raises(DimensionMismatchError, match="expected vectors of length 2, got"):
        entry(make(), z)


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


@pytest.mark.parametrize("name", ["disc", "polydisc2", "ball2"])
def test_distance_ball_radii_at_the_centre(name):
    """At x = 0 each ray's radius is tanh(T) / g(u), g the gauge, within the
    few ulps a row may step down.  There a product's Re(conj(f(x)) f_lin(u)),
    whose sign picks the root's form, is a signed zero, -0.0 on some
    polydisc rays."""
    d = zoo_domain(name)
    x = np.zeros(d.dim, dtype=complex)
    got = ball_against_bisection(d, x, 0.8, 400, 5)
    if name == "polydisc2":
        assert np.signbit((d.face_values(x).conj() * (got.U @ d.coeffs.T)).real).any()
    np.testing.assert_allclose(got.t, np.tanh(got.targets) / d.gauge(got.U), rtol=1e-14)
    assert np.all(np.abs(got.t - got.lo) <= 1e-12 * got.lo + (got.hi - got.lo))
    assert np.all(got.ball.distance_upper < got.targets)


@pytest.mark.parametrize("name", ["disc", "polydisc2", "ball2", "halfplane", "three_face"])
def test_distance_ball_zero_targets_give_the_centre(name, monkeypatch):
    """A row whose target is 0 gets the centre with distance 0, on the
    closed-form radii as on the quadrature; the other rows move off it."""
    shell = metrics._shell_targets
    zero = np.arange(30) % 3 == 0
    monkeypatch.setattr(metrics, "_shell_targets",
                        lambda *a: np.where(zero, 0.0, shell(*a)))
    d = zoo_domain(name)
    x = d.basepoint + 0.1
    ball = distance_ball_sample(d, x, 0.5, 30, seed=2)
    assert np.array_equal(ball.points[zero], np.broadcast_to(x, (10, d.dim)))
    assert np.all(ball.distance_upper[zero] == 0.0)
    assert np.all(ball.distance_upper[~zero] > 0.0)
    if name != "three_face":
        assert np.all(d.distance_radii(x, root_directions(2, 30, d.dim), np.zeros(30)) == 0.0)


@pytest.mark.parametrize("name", ["disc", "polydisc2", "ball2", "halfplane"])
def test_distance_ball_at_a_large_radius_stops_inside_the_section(name):
    """At r = 25 tanh rounds most targets to 1, whose roots lie on the
    boundary, where a product's face distances read 0: those radii stop at
    the section distance times 1 - 1e-12, and every point stays interior
    with a distance below r."""
    d = zoo_domain(name)
    x = d.basepoint + 0.1
    got = ball_against_bisection(d, x, 25.0, 200, 9)
    sec = d.section_distance_paired(x[None, :], got.U)
    clamped = np.tanh(got.targets) == 1.0
    assert clamped.sum() > 100
    np.testing.assert_allclose(got.t[clamped], sec[clamped] * (1.0 - 1e-12), rtol=1e-15)
    assert np.all(got.t < sec)
    assert np.all(np.abs(got.t - got.lo) <= 1e-12 * got.lo + (got.hi - got.lo))
    assert np.all(d.contains_margins(got.ball.points) > 0)
    assert np.all((got.ball.distance_upper > 0) & (got.ball.distance_upper < 25.0))


@pytest.mark.parametrize("name", ["polydisc2", "ball2", "halfplane", "sheared_polydisc",
                                  "turned_ball"])
def test_model_ball_costs_at_most_4_distance_calls(name):
    """A 2000-point ball takes its radii in closed form: one distance_value
    call checks them, and the few rows rounding leaves at their targets step
    down in at most three more (61 calls with 60 bisection steps)."""
    d = zoo_domain(name)
    for r in (0.3, 1.5):
        assert 1 <= ball_against_bisection(d, d.basepoint + 0.1, r, 2000, 4).calls <= 4


def test_indicatrix_radii_bracket_model(pd2):
    s = indicatrix(pd2, [0, 0], directions=128)
    # unit-polydisc indicatrix radii lie between 1 (axes) and sqrt(2) (diagonal)
    assert np.all(s.radius_lower <= s.radius_upper + 1e-12)
    assert float(s.radius_lower.min()) >= 1.0 - 1e-9
    assert float(s.radius_upper.max()) <= math.sqrt(2) + 1e-9
    fh = io.StringIO()
    write_indicatrix_csv(s, fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == "dir0_re,dir0_im,dir1_re,dir1_im,radius_lo,radius_hi"
    assert len(lines) == 1 + 128


def _csv_per_element(sample):
    """The indicatrix CSV as it was written one element at a time."""
    n = sample.directions.shape[1]
    lines = [",".join(f"dir{k}_{part}" for k in range(n) for part in ("re", "im"))
             + ",radius_lo,radius_hi"]
    rl, ru = sample.radius_lower, sample.radius_upper
    for i, u in enumerate(sample.directions):
        row = [repr(float(getattr(u[k], part))) for k in range(n) for part in ("real", "imag")]
        lines.append(",".join(row + [repr(float(rl[i])), repr(float(ru[i]))]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("name,x", [("three_face", [0.1, 0.2]), ("disc", [0.3j]),
                                    ("balanced", [0.1, -0.2j])])
def test_indicatrix_csv_bytes_are_the_per_element_formatting(name, x):
    s = indicatrix(zoo_domain(name), x, directions=300, seed=3)
    # rows whose outer radius is inf (gauge lower side 0), and signed zeros
    s.gauge_lower[[0, 7, 299]] = 0.0
    s.directions[1] = [complex(-0.0, 0.5)] + [0j] * (s.directions.shape[1] - 1)
    fh = io.StringIO()
    write_indicatrix_csv(s, fh)
    assert "inf" in fh.getvalue() and "-0.0" in fh.getvalue()
    assert fh.getvalue() == _csv_per_element(s)


@pytest.mark.parametrize("directions", [0, -5])
def test_indicatrix_needs_a_direction(directions):
    with pytest.raises(DegenerateInputError):
        indicatrix(zoo_domain("three_face"), [0, 0], directions)


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


def test_indicatrix_volume_ball_is_the_closed_form():
    """The ball has a metric form: its volume pi^n / (n! det Q) draws nothing."""
    ball2 = zoo_domain("ball2")
    x = np.array([0.3 + 0.1j, -0.2j])
    ve = indicatrix_volume(ball2, x, 1000, seed=4)
    # det Q = (1 - |x|^2)^-(n + 1)
    want = math.pi ** 2 / 2 * (1.0 - np.vdot(x, x).real) ** 3
    assert ve.value == pytest.approx(want, rel=1e-14)
    assert (ve.samples, ve.se, ve.lower, ve.upper) == (0, 0.0, ve.value, ve.value)


@pytest.mark.parametrize("name", ["three_face", "three_face_twin", "ellipsoid"])
def test_volume_and_barth_read_the_indicatrix_of_their_seed(name):
    """On kinds without a metric form, the volume's radii and, on bodies
    balanced about 0 (not the translated twin), the Barth check's indicatrix
    gauge are those of ``indicatrix`` at the same seed, bit for bit."""
    d = {"three_face": lambda: zoo_domain("three_face"),
         "three_face_twin": lambda: affine_twin(zoo_domain("three_face")),
         "ellipsoid": _ellipsoid}[name]()
    x = 0.5 * d.interior_samples(1, SampleStream(8))[0]
    sample = indicatrix(d, x, 1000, seed=4)
    r_lo = 1.0 / sample.gauge_upper
    with np.errstate(divide="ignore"):
        r_hi = np.where(sample.gauge_lower > 0, 1.0 / sample.gauge_lower, np.inf)
    coeff = math.pi ** d.dim / math.factorial(d.dim)
    ve = indicatrix_volume(d, x, 1000, seed=4)
    assert ve.samples == 1000
    for got, radii in ((ve.value, 0.5 * (r_lo + r_hi)), (ve.lower, r_lo), (ve.upper, r_hi)):
        assert np.array_equal(got, coeff * (radii ** (2 * d.dim)).mean())
    if name == "three_face_twin":
        return
    centre = indicatrix(d, np.zeros(d.dim), 512, seed=6)
    mid = 0.5 * (centre.gauge_lower + centre.gauge_upper)
    assert np.array_equal(barth_check(d, 512, seed=6),
                          np.abs(mid - d.gauge(centre.directions)).max())


def _per_row_half_space_bound(d, x, v, stream, near):
    """Reference: the half-space lower bound of one row, guided by ``near``,
    half-space by half-space above the bounding-sphere floor."""
    best = float(np.linalg.norm(v)) / (2.0 * (np.linalg.norm(x) + d.bounding_radius))
    N, b = d.supporting_half_spaces(near[None, :], [stream])
    found = b[0] > -np.inf
    N, b = N[0][found], b[0][found]
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


@pytest.mark.parametrize("name", ["disc", "polydisc2", "ball2", "halfplane", "balanced",
                                  "sheared_polydisc", "turned_ball"])
def test_batched_half_space_bound_is_below_the_closed_form(name):
    """The bracket of the model's twin in the metric suite -- the same set
    as a polyhedron or a gauge body, with no closed form -- encloses the
    model's closed form, with a lower side above 0."""
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


@pytest.mark.parametrize("name, face", [("disc", 1), ("polydisc2", 2), ("balanced", 2)])
def test_table_twins_add_a_tangent_face(name, face):
    """Each table twin is its model with one face added whose supremum on
    the model, the product of the other faces, is its bound: a tangent face,
    which is not redundant, so the twin is no product and the metric suite
    compares a face-disc bracket with the model's closed form."""
    twin = model_twins()[name]
    assert not twin.is_product
    keep = np.arange(twin.bounds.size) != face
    # face = beta . (other faces) + gamma
    beta = np.linalg.solve(twin.coeffs[keep].T, twin.coeffs[face])
    gamma = twin.consts[face] - beta @ twin.consts[keep]
    assert abs(gamma) + np.abs(beta) @ twin.bounds[keep] == twin.bounds[face]
    model = ConvexPolyhedron(twin.coeffs[keep], twin.consts[keep], twin.bounds[keep],
                             keep.sum(), twin.bounding_radius)
    assert model.is_product and same_model(model, zoo_domain(name))


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
