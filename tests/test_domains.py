"""Domain oracles: membership, sections, gauges, loaders, and the zoo."""

import functools
import json
import math
import operator

import numpy as np
import pytest

from invmet import (
    AffineMap,
    AutomorphismFamily,
    CLinearMap,
    SampleStream,
    UnitBall,
    config,
    distance_ball_sample,
    halfplane_product,
    kobayashi_distance,
    kobayashi_metric,
    load_domain,
    model_automorphism,
    polydisc,
    verify_all,
    zoo_domain,
    zoo_names,
)
from invmet import domains, metrics
from invmet.automorphisms import BallMobius, Mobius1D, ball_move
from invmet.cli import main
from invmet.domains import (
    AffineImage,
    BalancedConvex,
    ConvexPolyhedron,
)
from invmet.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NotInteriorError,
    SpecLoadError,
    UnsupportedKindError,
)
from invmet.zoo import affine_twin, model_twins, polydisc_as_polyhedron, resolve_domain, twin_map

import section_search_reference
from conftest import assert_inside, segment_sandwich

# the zoo balanced set max(|z_1|, |z_1 + z_2| / 1.2) < 1
TWO_FACE_C = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
TWO_FACE_S = np.array([1.0, 1.2])


def _gauge_balanced():
    """The zoo balanced set behind a vectorized gauge callable."""
    def g(v):
        return np.max(np.abs(np.asarray(v, dtype=complex) @ TWO_FACE_C.T) / TWO_FACE_S,
                      axis=-1)

    sv = np.linalg.svd(TWO_FACE_C, compute_uv=False)
    return BalancedConvex(g, 2, float(np.linalg.norm(TWO_FACE_S) / sv[-1]),
                          float(1.0 / np.sum(np.linalg.norm(TWO_FACE_C, axis=1) / TWO_FACE_S)))


def test_polydisc_membership_and_section():
    d = polydisc([1.0, 2.0])
    assert d.contains([0.5, 1.0]) > 0
    assert d.contains([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert d.contains([1.5, 0.0]) < 0
    # section through 0 along e1 exits at the first face
    sec = d.section_distance_paired(np.zeros((1, 2), complex), np.eye(2, dtype=complex))
    assert sec[0] == pytest.approx(1.0)
    assert sec[1] == pytest.approx(2.0)


def test_unit_ball_membership_and_gauge():
    d = UnitBall(2)
    assert d.contains([0.6, 0.0]) > 0
    assert d.contains([0.8, 0.6]) == pytest.approx(0.0, abs=1e-15)
    v = np.array([3.0, 4.0j])
    assert float(d.gauge(v)) == pytest.approx(5.0)


def test_halfplane_membership_requires_positive_height():
    d = halfplane_product(2)
    assert d.contains([1j, 2 + 1j]) > 0
    assert d.contains([1j, 1.0]) <= 0
    with pytest.raises(NotInteriorError):
        d.require_interior(np.array([1j, 1.0 + 0j]))


def test_dimension_mismatch_raises():
    d = polydisc([1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        d.contains([0.1])


def test_face_table_constructor_checks_its_input():
    """|z_1| < 1, |z_2| < 1 and Re z_1 < 0.5, with one entry spoiled per case."""
    C, k, b = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], np.zeros(3), [1.0, 1.0, 0.5]
    assert ConvexPolyhedron(C, k, b, 2, 2.0).contains([0.2, 0.3j]) > 0
    for table in ((C, k[:2], b, 2), (C, k, b[:2], 2), ([1.0, 0.0], k, b, 2), (C, k, b, 4)):
        with pytest.raises(DimensionMismatchError):
            ConvexPolyhedron(*table, 2.0)
    with pytest.raises(DegenerateInputError):
        ConvexPolyhedron(np.zeros((0, 2)), [], [], 0, 2.0)
    for zero in (0, 2):      # a modulus row and a real row
        Z = np.array(C)
        Z[zero] = 0.0
        with pytest.raises(DegenerateInputError):
            ConvexPolyhedron(Z, k, b, 2, 2.0)
    for bound in (0.0, -1.0):
        with pytest.raises(DegenerateInputError):
            ConvexPolyhedron(C, k, [1.0, bound, 0.5], 2, 2.0)
    with pytest.raises(DegenerateInputError):
        ConvexPolyhedron(C, k, b, 2, None)
    # on the real face's boundary, and outside a modulus face
    for basepoint in ([0.5, 0.0], [0.0, 1.5]):
        with pytest.raises(NotInteriorError):
            ConvexPolyhedron(C, k, b, 2, 2.0, basepoint)
    with pytest.raises(DimensionMismatchError):
        ConvexPolyhedron(C, k, b, 2, 2.0, [0.0])


def test_half_plane_product_is_an_unbounded_face_table():
    """Im z_k > 0 as the real rows i e_k: no coordinate bounds, and the
    exact inner radius of a model centred at x is its least height over the
    model's reach along e_k."""
    d = halfplane_product(2)
    x = np.array([0.3 + 0.5j, 2j])
    assert isinstance(d, ConvexPolyhedron) and d.coordinate_bounds() is None
    assert d.inner_radius_exact(x, UnitBall(2)) == 0.5
    assert d.inner_radius_exact(x, polydisc([1.0, 8.0])) == 0.25
    left = halfplane_product(1, "left")
    assert left.contains([-2.0 + 5j]) == 2.0 and left.contains([0.1]) < 0


def test_interior_samples_stay_inside():
    for name in zoo_names():
        d = zoo_domain(name)
        pts = d.interior_samples(200, SampleStream(1))
        assert pts.shape == (200, d.dim)
        assert_inside(d, pts)


def test_three_face_gauge_positive_homogeneous(three_face):
    v = np.array([0.3 + 0.2j, -0.5 + 0.1j])
    g = float(three_face.gauge(v))
    assert float(three_face.gauge(2.5 * v)) == pytest.approx(2.5 * g, rel=1e-12)
    assert float(three_face.gauge(1j * v)) == pytest.approx(g, rel=1e-12)


def test_three_face_contains_margins_matches_scalar(three_face):
    Z = three_face.interior_samples(50, SampleStream(3))
    m = three_face.contains_margins(Z)
    scalar = np.array([three_face.contains(z) for z in Z])
    np.testing.assert_allclose(m, scalar, atol=1e-12)


def test_balanced_gauge_homogeneity_and_radii():
    d = _gauge_balanced()
    v = np.array([0.4 - 0.1j, 0.2 + 0.3j])
    g = float(d.gauge(v))
    assert float(d.gauge(-3j * v)) == pytest.approx(3 * g, rel=1e-12)
    # sub-unit gauge points stay within the declared bounding radius
    pts = d.interior_samples(500, SampleStream(4))
    assert float(np.linalg.norm(pts, axis=1).max()) <= d.bounding_radius + 1e-12
    assert 0 < d.inner_radius <= d.bounding_radius


def test_balanced_section_distance_certified_under_ray_minimum():
    d = _gauge_balanced()
    x = np.array([0.1 + 0.05j, -0.2 + 0j])
    v = np.array([1.0 + 0.3j, 0.7 - 0.2j])
    sec = float(d.section_distance_paired(x[None, :], v[None, :])[0])
    # brute minimum of boundary hits over many phases can only be larger
    vhat = v / np.linalg.norm(v)
    best = np.inf
    for th in np.linspace(0, 2 * np.pi, 360, endpoint=False):
        w = np.exp(1j * th) * vhat
        lo, hi = 0.0, 2 * d.bounding_radius
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(d.gauge(x + mid * w)) < 1.0:
                lo = mid
            else:
                hi = mid
        best = min(best, lo)
    assert sec <= best + 1e-9


def test_affine_image_pullback_consistency(pd2):
    T = twin_map(2)
    dt = AffineImage(pd2, T)
    x = np.array([0.2 + 0.1j, -0.3 + 0j])
    v = np.array([0.5, 1j])
    kd = pd2.metric_paired(x[None, :], v[None, :])[0]
    kt = dt.metric_paired(T(x)[None, :], (T.derivative(x) @ v)[None, :])[0]
    assert kt == pytest.approx(kd, rel=1e-12)
    assert dt.contains(T(x)) > 0
    assert_inside(dt, dt.interior_samples(100, SampleStream(5)))


def test_model_automorphism_moves_point_with_exact_derivative(ball2):
    frm = np.array([0.3 + 0.1j, -0.2j])
    to = np.array([0.0j, 0.0j])
    phi = model_automorphism(ball2, frm, to)
    np.testing.assert_allclose(phi(frm), to, atol=1e-12)
    # derivative consistent with finite differences
    h = 1e-7
    e0 = np.array([1.0 + 0j, 0j])
    fd = (phi(frm + h * e0) - phi(frm)) / h
    np.testing.assert_allclose(np.asarray(phi.derivative(frm)) @ e0, fd, atol=1e-5)


def test_model_automorphism_rejects_polyhedra(three_face):
    with pytest.raises(UnsupportedKindError):
        model_automorphism(three_face, np.zeros(2, complex), np.zeros(2, complex))


def test_affine_image_without_inner_automorphisms_names_itself(three_face):
    """An affine image of a table that is not a product has no
    automorphism model, and the error names the image, not the table."""
    with pytest.raises(UnsupportedKindError, match="no automorphism model for AffineImage$"):
        affine_twin(three_face).automorphism(np.zeros(2, complex), np.zeros(2, complex))


def _disc_times_half_plane():
    """|z_1 + 0.5 z_2 + 0.1| < 1.5 times Re(0.3 z_1 + (1 + 0.5i) z_2 + 0.2i) < 0.7,
    unbounded, a product whose real face has a nonzero bound."""
    return ConvexPolyhedron([[1.0, 0.5], [0.3, 1.0 + 0.5j]], [0.1, 0.2j], [1.5, 0.7], 1,
                            np.inf)


def _face_condition(d, Z):
    """max_k (|F_k(z)| + |bounds[k]|) / min_k slack_k(z) per point: the
    factor by which a face formula at z scales a relative rounding."""
    F = d.face_values(Z)
    return (np.abs(F) + np.abs(d.bounds)).max(axis=-1) / d.slacks(Z).min(axis=-1)


@pytest.mark.parametrize("make", [lambda: zoo_domain("balanced"), _disc_times_half_plane],
                         ids=["balanced", "disc-x-half-plane"])
def test_product_automorphisms_are_isometries(make):
    """On a product through its faces, A^-1 psi A sends frm to to, keeps
    interior points inside, and preserves the closed-form metric:
    K(phi(x); phi'(x) v) = K(x; v), to 1e-12 relative on moves between the
    basepoint and points halfway to the samples.  Moves between samples can
    push images to within 1e-5 of the boundary, where the face formulas
    round by eps times ``_face_condition``, and are held to 8 eps times the
    conditions at x, phi(x), frm and to."""
    d = make()
    assert d.is_product
    base = d.basepoint
    P = d.interior_samples(4, SampleStream(11))
    Z = d.interior_samples(200, SampleStream(12))
    V = SampleStream(13).unit_directions(200, 2)
    half = base + 0.5 * (P - base)
    moves = [(base, half[0], 1e-12), (half[1], base, 1e-12), (half[2], half[3], 1e-12),
             (P[0], P[1], None), (P[2], P[3], None)]
    for frm, to, rtol in moves:
        phi = model_automorphism(d, frm, to)
        np.testing.assert_allclose(phi(frm), to, rtol=0, atol=1e-12 * (1 + np.abs(to).max()))
        W = phi(Z)
        assert d.contains_margins(W).min() > 0
        DV = np.stack([phi.derivative(z) @ v for z, v in zip(Z, V)])
        K = d.metric_paired(Z, V)
        err = np.abs(d.metric_paired(W, DV) - K) / K
        if rtol is None:
            ends = _face_condition(d, np.stack([frm, to])).sum()
            rtol = 8 * np.finfo(float).eps * (_face_condition(d, Z) + _face_condition(d, W) + ends)
        assert np.all(err <= rtol), err.max()
        np.testing.assert_allclose(phi.inverse()(W), Z, rtol=0, atol=1e-12 * (1 + np.abs(Z).max()))


@pytest.mark.parametrize("name", ["sheared_polydisc", "turned_ball"])
def test_affine_image_automorphisms_are_isometries(name):
    """An affine image T(D) moves frm to to by T psi T^-1, psi the inner
    domain's move of T^-1(frm) to T^-1(to): over 40 random interior pairs
    it hits its target, its inverse returns, and it keeps the metric,
    K(phi(frm); phi'(frm) v) = K(frm; v), to 1e-11 relative."""
    d = zoo_domain(name)
    P = d.interior_samples(80, SampleStream(21))
    V = SampleStream(22).unit_directions(40, 2)
    K = d.metric_paired(P[0::2], V)
    for frm, to, v, k in zip(P[0::2], P[1::2], V, K):
        phi = model_automorphism(d, frm, to)
        np.testing.assert_allclose(phi(frm), to, rtol=0, atol=1e-12)
        np.testing.assert_allclose(phi.inverse()(to), frm, rtol=0, atol=1e-11)
        moved = d.metric_paired(phi(frm)[None, :], (phi.derivative(frm) @ v)[None, :])[0]
        assert abs(moved - k) <= 1e-11 * k


def test_composed_derivative_takes_each_image_once(monkeypatch):
    """A turned_ball move chains an affine map, the two-map ball chain and
    an affine map; the nested chain is spliced in.  Its derivative
    evaluates each ball map once inside its own derivative and once for the
    image the next map reads, 4 calls of ``BallMobius.__call__``, and skips
    the last map's image.  It is the nested chain rule's product to
    rounding."""
    phi = model_automorphism(zoo_domain("turned_ball"), [0.1, 0.2j], [-0.3j, 0.1])
    pre, first, second, post = phi.maps
    z = np.array([0.2 - 0.1j, 0.05j])
    w = pre(z)
    nested = post.derivative(second(first(w))) @ (
        (second.derivative(first(w)) @ first.derivative(w)) @ pre.derivative(z))
    calls, call = [], BallMobius.__call__
    monkeypatch.setattr(BallMobius, "__call__", lambda m, z: calls.append(1) or call(m, z))
    got = phi.derivative(z)
    assert len(calls) == 4
    np.testing.assert_allclose(got, nested, rtol=1e-14, atol=0.0)


def test_ball_move_between_centres_is_the_identity():
    """phi_0(z) = -z, so the ball's move from 0 to 0 is z and I, bit for bit."""
    Z = UnitBall(3).interior_samples(50, SampleStream(4))
    phi = ball_move(np.zeros(3), np.zeros(3))
    assert np.array_equal(phi(Z), Z)
    for z in Z[:5]:
        assert np.array_equal(phi.derivative(z), np.eye(3))


def test_halfplane_move_with_bound_zero_keeps_the_left_half_plane_formula():
    """At bound 0, z -> s z + i (Im to - s Im frm) with s = Re to / Re frm,
    the coefficients and values bit for bit; at a bound b it sends frm to
    to in Re z < b and agrees with moving the left half-plane shifted by b."""
    s = SampleStream(8)
    frm = -np.exp(s.uniform(20, -2.0, 2.0)) + 1j * s.uniform(20, -3.0, 3.0)
    to = -np.exp(s.uniform(20, -2.0, 2.0)) + 1j * s.uniform(20, -3.0, 3.0)
    Z = -np.exp(s.uniform(30, -2.0, 2.0)) + 1j * s.uniform(30, -3.0, 3.0)
    b = 0.7
    shift = Mobius1D(1.0, b, 0.0, 1.0)
    for f, t in zip(frm, to):
        m = Mobius1D.halfplane_move(f, t)
        k = t.real / f.real
        old = Mobius1D(k, 1j * (t.imag - k * f.imag), 0, 1)
        assert (m.a, m.b, m.c, m.d) == (old.a, old.b, old.c, old.d)
        assert m(Z).tobytes() == old(Z).tobytes()
        moved = Mobius1D.halfplane_move(f + b, t + b, b)
        conj = shift.compose(m).compose(shift.inverse())
        assert abs(moved(f + b) - (t + b)) <= 1e-14 * (1 + abs(t))
        np.testing.assert_allclose(moved(Z + b), conj(Z + b), rtol=1e-14, atol=1e-14)
    with pytest.raises(NotInteriorError):
        Mobius1D.halfplane_move(0.5, -1.0, 0.5)


def test_product_sampler_draws_the_model_formulas():
    """In face coordinates a product draws phases * sqrt(U) * c on a modulus
    face and b - e^U + i tan U on a real face: on the polydisc and the two
    half-plane products these are their coordinates, bit for bit."""
    s = SampleStream(3)
    ph = s.phases((300, 2))
    expect = ph * np.sqrt(s.uniform((300, 2))) * np.array([1.0, 0.7])[None, :]
    assert polydisc([1.0, 0.7]).interior_samples(300, SampleStream(3)).tobytes() == expect.tobytes()
    s = SampleStream(4)
    h = np.exp(s.uniform((300, 2), -2.0, 2.0))
    off = np.tan(s.uniform((300, 2), -1.2, 1.2))
    for orientation, expect in (("upper", off + 1j * h), ("left", -h + 1j * off)):
        got = halfplane_product(2, orientation).interior_samples(300, SampleStream(4))
        assert got.tobytes() == expect.tobytes()
    # a product with nonzero consts and bounds, which no box contains, draws
    # its modulus face first
    d = _disc_times_half_plane()
    assert d.coordinate_bounds() is None
    Z = d.interior_samples(200, SampleStream(5))
    assert_inside(d, Z)
    s = SampleStream(5)
    ph = s.phases((200, 1))
    W = np.hstack([ph * np.sqrt(s.uniform((200, 1))) * 1.5,
                   d.bounds[1] - np.exp(s.uniform((200, 1), -2.0, 2.0))
                   + 1j * np.tan(s.uniform((200, 1), -1.2, 1.2))])
    np.testing.assert_allclose(d.face_values(Z), W, rtol=1e-13, atol=1e-14)


def test_balanced_products_serve_as_squeeze_models():
    """On a balanced product, sup |c . w| over the closed body is
    |c coeffs^-1| @ bounds, attained with the phases aligned; the ball's
    inner radius reads it as each coordinate's reach, exact on a polydisc."""
    d = zoo_domain("balanced")
    C = np.array([[1.0, 2.0j], [0.3 - 0.1j, 1.0]])
    sup = d.linear_sup(C)
    A = np.linalg.inv(d.coeffs)
    U = SampleStream(6).phases((4000, 2)) * d.bounds          # the torus |u_k| = c_k
    assert np.abs((U @ A.T) @ C.T).max(axis=0).max() <= sup.max() * (1 + 1e-12)
    for c, s in zip(C, sup):
        w = A @ (np.exp(-1j * np.angle(c @ A)) * d.bounds)    # on the boundary torus
        assert d.gauge(w) == pytest.approx(1.0, rel=1e-14)
        assert abs(c @ w) == pytest.approx(s, rel=1e-14)
    assert UnitBall(2).inner_radius_exact(np.zeros(2), polydisc([1.0, 1.0])) == 2 ** -0.5
    x = np.array([0.2, 0.1j])
    r = UnitBall(2).inner_radius_exact(x, d)
    W = d.interior_samples(4000, SampleStream(7))
    assert UnitBall(2).contains_margins(x + r * W).min() > 0
    # tables that are not balanced products are no models
    assert zoo_domain("three_face").linear_sup(C) is None
    assert _disc_times_half_plane().linear_sup(C) is None


def test_automorphism_family_schedule(ball2):
    fam = AutomorphismFamily(ball2, np.array([1.0 + 0j, 0j]))
    np.testing.assert_allclose(fam.point_at(0.0), ball2.basepoint, atol=1e-15)
    np.testing.assert_allclose(fam.point_at(1.0), [0.5, 0.0], atol=1e-15)
    phi = fam.automorphism(2.0)
    np.testing.assert_allclose(phi(ball2.basepoint), fam.point_at(2.0), atol=1e-12)
    # a target inside never nears the boundary
    with pytest.raises(DegenerateInputError, match="target point is inside the domain"):
        AutomorphismFamily(ball2, np.array([0.3 + 0j, 0.1 + 0j]))


def test_load_domain_from_file_and_dict(polydisc2_file, three_face_file):
    d = load_domain(str(polydisc2_file))
    assert d.is_product and d.label == "polydisc" and d.dim == 2
    t = load_domain(str(three_face_file))
    assert t.dim == 2 and t.contains([0.2, -0.3]) > 0
    b = load_domain({"kind": "ball", "dim": 3})
    assert isinstance(b, UnitBall) and b.dim == 3


def test_load_domain_error_locations():
    with pytest.raises(SpecLoadError, match="no such file"):
        load_domain("/nonexistent/spec.json")
    with pytest.raises(SpecLoadError) as ei:
        load_domain({"kind": "polyhedron", "dim": 2, "faces": [{"type": "modulus", "coeffs": [1, 0]}],
                     "bounding_radius": 2.0})
    assert "faces[0].bound" in str(ei.value)
    with pytest.raises(SpecLoadError) as ei:
        load_domain({"kind": "balanced", "dim": 2, "funcs": [
            {"coeffs": [1.0, 0.0], "scale": 1.0}, {"coeffs": [0.0, 1.0], "scale": 0.0}]})
    assert ei.value.location == "funcs[1].scale"
    with pytest.raises(SpecLoadError, match="kind"):
        load_domain({"dim": 2})


_TABLE = {"kind": "polyhedron", "dim": 2, "bounding_radius": 2.0, "basepoint": [0, 0.1],
          "faces": [{"type": "modulus", "coeffs": [1, 0], "const": 0.1, "bound": 1},
                    {"type": "modulus", "coeffs": [0, [1, 0]], "bound": 1},
                    {"type": "real", "normal": [1, 0], "offset": 0.5}]}
_FUNCS = {"kind": "balanced", "dim": 2,
          "funcs": [{"coeffs": [1, 0], "scale": 1}, {"coeffs": [1, 1], "scale": 1.2}]}
_IMAGE = {"kind": "affine_image", "inner": {"kind": "ball", "dim": 2},
          "matrix": [[1, 0.2], [0, 1]], "translation": [0.1, 0]}


_BOOLEAN_CASES = [
    ({"kind": "ball", "dim": 2}, ("dim",), True, "dim"),
    ({"kind": "polydisc", "dim": 2}, ("dim",), True, "dim"),
    ({"kind": "halfplane", "dim": 1}, ("dim",), True, "dim"),
    ({"kind": "polydisc", "radii": [1.0, 1.0]}, ("radii", 0), True, "radii"),
    (_TABLE, ("dim",), True, "dim"),
    (_TABLE, ("faces", 0, "bound"), True, "faces[0].bound"),
    (_TABLE, ("faces", 2, "offset"), False, "faces[2].offset"),
    (_TABLE, ("bounding_radius",), True, "bounding_radius"),
    (_TABLE, ("faces", 0, "coeffs", 0), True, "faces[0].coeffs[0]"),
    (_TABLE, ("faces", 1, "coeffs", 1), [True, False], "faces[1].coeffs[1]"),
    (_TABLE, ("faces", 0, "const"), False, "faces[0].const"),
    (_TABLE, ("faces", 2, "normal", 1), False, "faces[2].normal[1]"),
    (_TABLE, ("basepoint", 0), False, "basepoint[0]"),
    (_FUNCS, ("funcs", 1, "scale"), True, "funcs[1].scale"),
    (_FUNCS, ("funcs", 0, "coeffs", 0), True, "funcs[0].coeffs[0]"),
    (_IMAGE, ("inner", "dim"), True, "inner.dim"),
    (_IMAGE, ("matrix", 0, 0), True, "matrix[0][0]"),
    (_IMAGE, ("translation", 1), False, "translation[1]"),
]


@pytest.mark.parametrize("spec, path, value, location", _BOOLEAN_CASES,
                         ids=[f"{spec['kind']} {loc}" for spec, *_, loc in _BOOLEAN_CASES])
def test_json_true_and_false_are_not_numbers(spec, path, value, location):
    """The spec loads; with JSON true or false at ``path`` (a bool subclasses
    int, so 1 or 0 would read) it does not, naming the location."""
    load_domain(spec)
    spec = json.loads(json.dumps(spec))
    *keys, last = path
    functools.reduce(operator.getitem, keys, spec)[last] = value
    with pytest.raises(SpecLoadError) as ei:
        load_domain(json.dumps(spec))
    assert ei.value.location == location


def test_load_domain_affine_image_spec(tmp_path):
    spec = {
        "kind": "affine_image",
        "inner": {"kind": "polydisc", "radii": [1.0, 1.0]},
        "matrix": [[[1.0, 0.2], 0.25], [0, 0.9]],
        "translation": [0.1, "0.1-0.05j"],
    }
    p = tmp_path / "twin.json"
    p.write_text(json.dumps(spec))
    d = load_domain(str(p))
    assert d.dim == 2
    assert_inside(d, d.interior_samples(50, SampleStream(6)))


def _fields(obj, path="d", seen=None):
    """(path, value) of every array and scalar reachable from an invmet
    object: its attributes, slots and cached properties (computed here if
    they were not yet), through nested invmet objects, containers and bound
    methods, each object once."""
    seen = set() if seen is None else seen
    if obj is None or isinstance(obj, (np.ndarray, np.generic, bool, int, float, complex, str)):
        yield path, obj
        return
    if id(obj) in seen:
        return
    seen.add(id(obj))
    cls = type(obj)
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _fields(v, f"{path}[{i}]", seen)
    elif hasattr(obj, "__self__"):
        yield from _fields(obj.__self__, f"{path}.__self__", seen)
    else:
        assert cls.__module__.startswith("invmet."), f"{path}: {cls}"
        names = set(getattr(obj, "__dict__", ()))
        for c in cls.__mro__:
            names |= set(getattr(c, "__slots__", ()))
            names |= {n for n, v in vars(c).items() if isinstance(v, functools.cached_property)}
        for n in sorted(names):
            if hasattr(obj, n):
                yield from _fields(getattr(obj, n), f"{path}.{n}", seen)


def _state(d):
    """Every field of d by path: arrays by dtype, shape and bytes, scalars by value."""
    return {path: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for path, v in _fields(d)}


def test_zoo_names_and_shared_read_only_instances():
    names = zoo_names()
    assert names == sorted(names)
    for required in ("disc", "polydisc2", "ball2", "halfplane", "three_face",
                     "balanced", "sheared_polydisc", "turned_ball"):
        assert required in names
    for name in names:
        d = zoo_domain(name)
        assert zoo_domain(name) is d
        arrays = [(path, v) for path, v in _fields(d) if isinstance(v, np.ndarray)]
        assert any(path == "d.basepoint" for path, _ in arrays)
        for path, a in arrays:
            assert not a.flags.writeable, (name, path)
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a
    with pytest.raises(SpecLoadError):
        zoo_domain("no_such_domain")


def test_cli_calls_and_suites_leave_each_shared_zoo_domain_as_built(tmp_path, capsys):
    """verify-all and in-process commands on zoo names share the zoo's
    domains; afterwards each equals a fresh build, field by field."""
    assert verify_all(7, out_dir=tmp_path).passed
    for name in zoo_names():
        d = zoo_domain(name)
        at, v = json.dumps([[z.real, z.imag] for z in d.basepoint]), json.dumps([1.0] * d.dim)
        assert main(["metric", "--domain", name, "--at", at, "--dir", v]) == 0, name
    for argv in (
        ["distance", "--domain", "turned_ball", "--from", "[0,0]", "--to", "[0.3,0.1]"],
        ["distance", "--domain", "three_face", "--from", "[0,0]", "--to", "[0.9,0]"],
        ["indicatrix", "--domain", "sheared_polydisc", "--at", "[0.1,0]", "--directions", "16"],
        ["dominate", "--domain", "three_face", "--radii", "0.25,0.5", "--samples", "200"],
        ["squeeze", "cert", "--domain", "three_face", "--at", "[0.1,0]", "--samples", "500"],
        ["scale", "audit", "--domain", "turned_ball", "--target", "[[1.1,0.15],[0.1,-0.05]]",
         "--steps", "20"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for name in zoo_names():
        assert _state(zoo_domain(name)) == _state(zoo_domain.__wrapped__(name)), name


def test_resolve_domain_falls_back_to_files(polydisc2_file):
    assert resolve_domain("ball2").dim == 2
    assert resolve_domain(str(polydisc2_file)).dim == 2


# ---------------------------------------------------------------------------
# Batched oracles agree with their single-point forms
# ---------------------------------------------------------------------------

def _random_polyhedron(seed, dim=2, mods=3, reals=2):
    """``mods`` modulus faces with constants plus ``reals`` real faces, inside
    the polydisc of radius 2 in C^dim."""
    rng = np.random.default_rng(seed)
    coeffs, consts, bounds = list(np.eye(dim, dtype=complex)), [0.0] * dim, [2.0] * dim
    for _ in range(mods):
        coeffs.append(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        consts.append(0.3 * complex(*rng.standard_normal(2)))
        bounds.append(float(rng.uniform(1.0, 2.0)))
    for _ in range(reals):
        # Re<z, a> < b is the real row conj(a)
        a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        coeffs.append(a.conj())
        consts.append(0.0)
        bounds.append(float(rng.uniform(0.5, 1.5)))
    return ConvexPolyhedron(np.stack(coeffs), consts, bounds, dim + mods, 2.0 * np.sqrt(dim))


def _one_vector_balanced():
    """The zoo balanced set behind a gauge that refuses stacks of rows."""
    def g(v):
        v = np.asarray(v, dtype=complex)
        if v.ndim != 1:
            raise TypeError("one vector at a time")
        return float(np.max(np.abs(TWO_FACE_C @ v) / TWO_FACE_S))

    ref = _gauge_balanced()
    return BalancedConvex(g, 2, ref.bounding_radius, ref.inner_radius)


def _margin_cases():
    cases = [pytest.param(zoo_domain(name), id=name) for name in zoo_names()]
    cases.append(pytest.param(_gauge_balanced(), id="balanced-gauge"))
    cases.append(pytest.param(AffineImage(_gauge_balanced(), twin_map(2)),
                              id="balanced-twin"))
    cases.append(pytest.param(_one_vector_balanced(), id="balanced-one-vector"))
    cases.append(pytest.param(AffineImage(_one_vector_balanced(), twin_map(2)),
                              id="one-vector-twin"))
    cases += [pytest.param(_random_polyhedron(k), id=f"random-polyhedron-{k}")
              for k in range(3)]
    return cases


@pytest.mark.parametrize("d", _margin_cases())
def test_contains_margins_sign_matches_scalar_contains(d):
    stream = SampleStream(11)
    Z = d.interior_samples(150, stream)
    # push the samples away from the base point so both signs occur
    t = stream.uniform(150, 0.5, 3.0)
    Z = d.basepoint + t[:, None] * (Z - d.basepoint)
    m = d.contains_margins(Z)
    scalar = np.array([d.contains(z) for z in Z])
    assert m.shape == (150,)
    np.testing.assert_array_equal(m > 0, scalar > 0)
    assert np.any(scalar > 0) and np.any(scalar <= 0)


def _protocol_cases():
    cases = []
    for name in zoo_names():
        cases.append(pytest.param(lambda name=name: zoo_domain(name), None, id=name))
        cases.append(pytest.param(lambda name=name: affine_twin(zoo_domain(name)), None,
                                  id=f"{name}-twin"))
    # the one-vector gauge makes a Python call per point, so it gets fewer rays
    cases += [pytest.param(_gauge_balanced, 128, id="_gauge_balanced-128"),
              pytest.param(_one_vector_balanced, 8, id="_one_vector_balanced-8")]
    return cases


@pytest.mark.parametrize("make,rays", _protocol_cases())
def test_balanced_paired_section_distance_matches_per_row(make, rays, monkeypatch):
    """Every kind answers the row-paired protocol: one-row calls give the
    rows of the many-row call, and a shared point row P[:1] gives the rows
    of its broadcast stack."""
    if rays is not None:
        monkeypatch.setattr(config, "SECTION_RAYS", rays)
    d = make()
    stream = SampleStream(12)
    rows = 75                                  # more than two blocks of rows
    P = d.interior_samples(rows, stream)
    P[::7] = d.basepoint                       # the centre of balanced bodies
    V = stream.unit_directions(rows, d.dim) * stream.uniform(rows, 0.2, 2.0)[:, None]
    assert np.all(d.section_distance_paired(P, V) > 0)
    for paired in (d.section_distance_paired, d.metric_paired):
        one_row = [paired(P[i:i + 1], V[i:i + 1]) for i in range(rows)]
        shared = [paired(P[:1], V), paired(np.broadcast_to(P[0], V.shape), V)]
        if one_row[0] is None:
            assert all(k is None for k in one_row + shared)
            continue
        one_row = np.concatenate(one_row)
        assert np.array_equal(*shared)
        if isinstance(d, AffineImage):
            # BLAS rounds the pull-back's many-row complex matmul apart from a
            # one-row one by an ulp, which the cancellation in a short section
            # distance can lift to 1e-13 relative
            np.testing.assert_allclose(paired(P, V), one_row, rtol=1e-12)
        else:
            assert np.array_equal(paired(P, V), one_row)
    lower, upper = d.bracket_paired(P, V)
    assert np.array_equal(d.bracket_paired(P[:1], V),
                          d.bracket_paired(np.broadcast_to(P[0], V.shape), V))
    exact = d.metric_paired(P, V)
    if exact is None:
        exact = np.linalg.norm(V, axis=1) / d.section_distance_paired(P, V)
    np.testing.assert_allclose(upper, exact, rtol=1e-12)
    assert np.all(lower <= upper)


@pytest.mark.parametrize("twin", [False, True], ids=["C4-16-faces", "C4-16-faces-twin"])
def test_polyhedron_brackets_keep_their_bits_across_row_blocks(twin):
    """Polyhedron brackets and section distances are taken in blocks of
    ``_ROW_BLOCK`` rows: over two blocks and three rows, a shared row, its
    broadcast stack and a stack of distinct rows give on both sides the bits
    of calls on three rows at a time, and an exterior row in the last block is
    refused.  (A one-row call is no reference: BLAS takes its products as
    matrix-vector ones, which round apart on this body.)"""
    inner = _random_polyhedron(6, 4, 6, 6)
    d = affine_twin(inner) if twin else inner
    stream = SampleStream(21)
    rows = 2 * domains._ROW_BLOCK + 3
    P = stream.unit_directions(rows, 4) * stream.uniform(rows, 0.0, 0.1)[:, None]
    assert np.all(inner.contains_margins(P) > 0)
    P = d.map(P) if twin else P
    V = stream.unit_directions(rows, 4) * stream.uniform(rows, 0.2, 2.0)[:, None]

    def sides(P, V):
        return np.stack(d.bracket_paired(P, V) + (d.section_distance_paired(P, V),))

    three_rows = np.hstack([sides(P[i:i + 3], V[i:i + 3]) for i in range(0, rows, 3)])
    shared = np.hstack([sides(P[:1], V[i:i + 3]) for i in range(0, rows, 3)])
    assert np.array_equal(sides(P, V), three_rows)
    assert np.array_equal(sides(P[:1], V), shared)
    assert np.array_equal(sides(np.broadcast_to(P[0], V.shape), V), shared)
    P[-1] = d.map(np.full(4, 3.0)) if twin else 3.0
    for paired in (d.bracket_paired, d.section_distance_paired):
        with pytest.raises(NotInteriorError):
            paired(P, V)


def test_ball_closed_forms_keep_their_bits_across_row_blocks():
    """A ball's closed forms at a shared row are taken in blocks of
    ``_ROW_BLOCK`` rows: over two blocks and three rows they give the bits of
    calls on three rows at a time."""
    d = UnitBall(3)
    stream = SampleStream(22)
    rows = 2 * domains._ROW_BLOCK + 3
    x = np.array([[0.2, -0.1j, 0.3 + 0.2j]])
    V = stream.unit_directions(rows, 3) * stream.uniform(rows, 0.2, 2.0)[:, None]
    for paired in (d.metric_paired, d.section_distance_paired):
        three_rows = np.concatenate([paired(x, V[i:i + 3]) for i in range(0, rows, 3)])
        assert np.array_equal(paired(x, V), three_rows)


def test_ball_paired_rows_keep_their_bits_in_any_stack():
    """With a point row per direction row, 9,000 rows in C^2 span three
    blocks of ``_ROW_BLOCK`` rows, and their products are past the 256 KiB at
    which numpy reuses a temporary conj(P) in place: each row's metric and
    section distance are its one-row call's, bit for bit."""
    d = UnitBall(2)
    stream = SampleStream(23)
    rows = 9000
    P = stream.unit_directions(rows, 2) * stream.uniform(rows, 0.0, 0.95)[:, None]
    V = stream.unit_directions(rows, 2) * stream.uniform(rows, 0.2, 2.0)[:, None]
    for paired in (d.metric_paired, d.section_distance_paired):
        one_row = [paired(P[i:i + 1], V[i:i + 1])[0] for i in range(rows)]
        assert np.array_equal(paired(P, V), one_row)


@pytest.mark.parametrize("coeffs", [[[1, 0], [1, 1]], [[1e6, 0], [1e6, 1e-11]],
                                    [[1, 0], [0, 1], [1, 1j]]],
                         ids=["product", "near-dependent", "three-faces"])
def test_balanced_polyhedron_takes_one_svd(coeffs, monkeypatch):
    """The span check's decomposition also decides the product, as the
    constructor would on the same table."""
    C = np.array(coeffs, dtype=complex)
    s = np.ones(len(C))
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    d = domains.balanced_polyhedron(C, s, 2)
    assert len(calls) == 1
    monkeypatch.undo()
    own = ConvexPolyhedron(C, np.zeros(len(C)), s, len(C), d.bounding_radius)
    assert d.is_product == own.is_product


def test_balanced_paired_section_distance_rejects_exterior_rows():
    d = _gauge_balanced()
    P = np.array([[0.1, 0.0], [5.0, 0.0]], dtype=complex)
    with pytest.raises(NotInteriorError):
        d.section_distance_paired(P, np.ones((2, 2), dtype=complex))


ELLIPSOID_C = np.array([[1.2, 0.3 - 0.4j], [0.2j, 0.8]], dtype=complex)


def _gauge_ellipsoid():
    """The ellipsoid |C z| < 1 behind a vectorized gauge callable."""
    sv = np.linalg.svd(ELLIPSOID_C, compute_uv=False)
    return BalancedConvex(lambda v: np.linalg.norm(np.asarray(v) @ ELLIPSOID_C.T, axis=-1),
                          2, 1.0 / sv[-1], 1.0 / sv[0])


def test_balanced_half_space_normals_match_ellipsoid_gradient():
    C = ELLIPSOID_C
    d = _gauge_ellipsoid()
    N, b = d.supporting_half_spaces([[0.3 + 0.1j, -0.2j]], [SampleStream(13)])
    assert N.shape == (1, 9, 2) and b.shape == (1, 9)
    N, b = N[0], b[0]
    np.testing.assert_allclose(np.linalg.norm(N, axis=1), 1.0, rtol=1e-12)
    # the support value of {|C z| < 1} in direction n is |C^-* n|: an offset
    # at least that contains the body, and the certified offsets exceed it
    # only by their inflation for the normal's uncertainty
    support = np.linalg.norm(N @ np.linalg.inv(C).conj(), axis=1)
    assert np.all(b >= support)
    assert np.all(b <= support * (1.0 + 1e-5))


# the zoo sets balanced about 0, whose gauges have kinks but for ball2
GAUGE_TWINS = ["balanced", "ball2", "disc", "polydisc2", "three_face"]


def _gauge_twin(name):
    """The zoo set ``name``, balanced about 0, as a body known only through
    its gauge; the set's margin at 0 is the radius of the largest ball in it."""
    d = zoo_domain(name)
    return BalancedConvex(d.gauge, d.dim, d.bounding_radius, d.contains(np.zeros(d.dim)))


GAUGE_BODIES = ([_gauge_ellipsoid, lambda: _counted_body("four-norm")[0]]
                + [lambda name=name: _gauge_twin(name) for name in GAUGE_TWINS])


@pytest.mark.parametrize("make", GAUGE_BODIES, ids=["ellipsoid", "four-norm"] + GAUGE_TWINS)
def test_supporting_half_spaces_are_unit_rows_containing_the_domain(make):
    """On bodies known through a gauge, the one kind that draws half-spaces."""
    d = make()
    stream = SampleStream(19)
    Z = d.interior_samples(400, stream.fork(0))
    N, b = d.supporting_half_spaces(Z[:1], [stream.fork(1)])
    assert b.ndim == 2 and b.shape[0] == 1 and N.shape == b.shape + (d.dim,)
    found = b[0] > -np.inf
    assert found.any() and np.all(N[0][~found] == 0)
    N, b = N[0][found], b[0][found]
    np.testing.assert_allclose(np.linalg.norm(N, axis=1), 1.0, rtol=1e-12)
    assert np.all(np.real(Z @ N.conj().T) <= b)


@pytest.mark.parametrize("make", GAUGE_BODIES, ids=["ellipsoid", "four-norm"] + GAUGE_TWINS)
def test_supporting_half_spaces_of_a_row_do_not_depend_on_its_block(make):
    """Row i of a block, guides at 0 and off it mixed, is the one-row block
    of near[i] with a fresh copy of streams[i], bit for bit."""
    d = make()
    stream = SampleStream(23)
    near = d.interior_samples(7, stream.fork(0))
    near[[2, 5]] = 0.0
    N, b = d.supporting_half_spaces(near, [stream.fork(1).fork(i) for i in range(7)])
    assert (b > -np.inf).any(axis=1).all()
    for i in range(7):
        Ni, bi = d.supporting_half_spaces(near[i:i + 1], [stream.fork(1).fork(i)])
        assert np.array_equal(N[i], Ni[0]) and np.array_equal(b[i], bi[0])


def _blind_unit_ball(cone):
    """The unit ball behind a gauge that returns nan within 1/2 of the unit
    sphere, but not on it, where a point's first coordinate has real part
    above ``cone`` times its norm: there the one-sided differences find no
    normal."""
    def g(v):
        v = np.asarray(v, dtype=complex)
        r = np.linalg.norm(v, axis=-1)
        off = np.abs(r - 1.0)
        return np.where((off > 1e-12) & (off < 0.5) & (v[..., 0].real > cone * r), np.nan, r)

    return BalancedConvex(g, 2, 1.0, 1.0)


def test_half_spaces_leave_a_ray_without_a_normal_empty():
    """A ray whose differences give no normal leaves its slot empty, and the
    row's other slots and the other rows keep their one-row bits; a row left
    with no half-space raises."""
    near = np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 0.5j]])
    stream = SampleStream(25)
    d = _blind_unit_ball(0.9)
    N, b = d.supporting_half_spaces(near, [stream.fork(i) for i in range(3)])
    # the ray through the guide (1, 0) is blind, the one through (0, i) not
    assert b[0, 0] == -np.inf and np.all(N[0, 0] == 0) and b[2, 0] > -np.inf
    assert (b > -np.inf).any(axis=1).all()
    for i in range(3):
        Ni, bi = d.supporting_half_spaces(near[i:i + 1], [stream.fork(i)])
        assert np.array_equal(N[i], Ni[0]) and np.array_equal(b[i], bi[0])
    with pytest.raises(DegenerateInputError, match="no supporting half-spaces"):
        _blind_unit_ball(-1.0).supporting_half_spaces(near, [stream.fork(i) for i in range(3)])


class _Shifted:
    """A stand-in stream whose fork(j) is ``base.fork(shift + j)``: a one-row
    bracket then draws what row ``shift`` of a many-row bracket draws."""

    def __init__(self, base, shift):
        self.base, self.shift = base, shift

    def fork(self, j):
        return self.base.fork(self.shift + j)


@pytest.mark.parametrize("make", [lambda: _counted_body("ellipsoid")[0],
                                  lambda: _counted_body("four-norm")[0],
                                  lambda: model_twins()["ball2"]],
                         ids=["ellipsoid", "four-norm", "ball2"])
def test_bracket_rows_do_not_depend_on_their_block(make):
    """A 64-row bracket, two blocks of half-spaces and a row at the centre,
    is its 64 one-row brackets, bit for bit, on gauges taken row by row."""
    d = make()
    stream = SampleStream(24)
    P = d.interior_samples(64, stream.fork(0))
    P[5] = 0.0
    V = stream.fork(1).unit_directions(64, d.dim) * stream.fork(2).uniform(64, 0.2, 2.0)[:, None]
    lower, upper = d.bracket_paired(P, V, stream.fork(3))
    for i in range(64):
        lo, up = d.bracket_paired(P[i:i + 1], V[i:i + 1], _Shifted(stream.fork(3), i))
        assert np.array_equal(lo, lower[i:i + 1]) and np.array_equal(up, upper[i:i + 1])


def test_load_domain_parses_inline_json():
    d = load_domain('  {"kind": "ball", "dim": 2}')
    assert isinstance(d, UnitBall) and d.dim == 2
    with pytest.raises(SpecLoadError, match="cannot parse"):
        load_domain('{"kind": "ball", ')


def test_balanced_spec_and_zoo_body_are_exact_polyhedra():
    spec = {"kind": "balanced", "dim": 2, "funcs": [
        {"coeffs": [1.0, 0.0], "scale": 1.0}, {"coeffs": [1.0, 1.0], "scale": 1.2}]}
    stream = SampleStream(14)
    Z = stream.unit_directions(200, 2) * stream.uniform(200, 0.1, 3.0)[:, None]
    true = np.max(np.abs(Z @ TWO_FACE_C.T) / TWO_FACE_S, axis=1)
    for d in (load_domain(spec), zoo_domain("balanced")):
        assert isinstance(d, ConvexPolyhedron)
        np.testing.assert_allclose(d.gauge(Z), true, rtol=1e-15)
        # Barth: at the centre of a balanced convex body the metric is its gauge
        for v, g in zip(Z[:40], true[:40]):
            b = kobayashi_metric(d, [0, 0], v)
            assert b.upper == pytest.approx(g, rel=1e-12)
            assert b.lower <= b.upper


@pytest.mark.parametrize("funcs", [
    [{"coeffs": [1.0, 0.0], "scale": 1.0}],
    [{"coeffs": [1.0, 1.0], "scale": 1.0}, {"coeffs": [2.0, 2.0], "scale": 3.0}],
    [],
], ids=["one-functional", "parallel", "empty"])
def test_balanced_spec_rejects_non_spanning_funcs(funcs):
    with pytest.raises(SpecLoadError) as ei:
        load_domain({"kind": "balanced", "dim": 2, "funcs": funcs})
    assert ei.value.location == "funcs"


# ---------------------------------------------------------------------------
# Section distances along rays agree with the materialised rows
# ---------------------------------------------------------------------------

# (seed, dim, modulus faces with constants, real faces): C^2 to C^4, up to 16 faces
RANDOM_SHAPES = ((3, 2, 1, 1), (4, 3, 3, 2), (5, 4, 4, 4), (6, 4, 6, 6), (7, 3, 5, 0),
                 (8, 2, 0, 4))


def _along_cases():
    cases = []
    for name in zoo_names():
        cases.append(pytest.param(lambda name=name: zoo_domain(name), id=name))
        cases.append(pytest.param(lambda name=name: affine_twin(zoo_domain(name)),
                                  id=f"{name}-twin"))
    for seed, dim, mods, reals in RANDOM_SHAPES:
        cases.append(pytest.param(
            lambda args=(seed, dim, mods, reals): _random_polyhedron(*args),
            id=f"random-C{dim}-{dim + mods + reals}-faces"))
    return cases


def _paired_on_rows(d, x, W, T):
    P = x + T[:, :, None] * W[:, None, :]
    V = np.broadcast_to(W[:, None, :], P.shape)
    return d.section_distance_paired(P.reshape(-1, d.dim),
                                     V.reshape(-1, d.dim)).reshape(T.shape), P


@pytest.mark.parametrize("make", _along_cases())
def test_section_distance_along_matches_the_materialised_rows(make):
    d = make()
    stream = SampleStream(21)
    rows, nodes = 6, 33
    W = stream.unit_directions(rows, d.dim) * stream.uniform(rows, 0.2, 2.0)[:, None]
    u = stream.unit_directions(1, d.dim)[0]
    x = d.basepoint + 0.4 * float(d.section_distance_paired(d.basepoint[None, :], u[None, :])[0]) * u
    # the section distance is at most the ray's exit, so every node is inside;
    # the last ones are within 1e-7 of it
    exit_t = d.section_distance_paired(x[None, :], W) / np.linalg.norm(W, axis=1)
    T = exit_t[:, None] * (1.0 - np.logspace(0.0, -7.0, nodes))[None, :]
    expected, P = _paired_on_rows(d, x, W, T)
    along = d.section_distance_along(x, W, T)
    assert along.shape == T.shape
    # nodes near the boundary cancel in the slack, so an absolute term scaled
    # by the body's size allows for the rounding of either form
    scale = d.bounding_radius if np.isfinite(d.bounding_radius) else np.abs(P).max()
    np.testing.assert_allclose(along, expected, rtol=1e-12, atol=1e-12 * scale)


def test_section_distance_along_keeps_the_slack_of_faces_parallel_to_the_ray():
    # |z_2| < 2 has f_lin(e_1) = 0: it never meets the section along e_1
    d = polydisc_as_polyhedron([1.0, 2.0])
    x = np.array([0.2, 0.5j])
    W = np.array([[1.0, 0.0]], dtype=complex)
    T = np.linspace(0.0, 0.79, 9)[None, :]
    along = d.section_distance_along(x, W, T)
    np.testing.assert_allclose(along, 0.8 - T, rtol=1e-12)
    np.testing.assert_allclose(along, _paired_on_rows(d, x, W, T)[0], rtol=1e-12)
    # Re<z, e_1> < 0.5 along i e_1: Re<w, a> = 0, so its slack 0.4 stays put
    # while |<w, a>| = 1 keeps it in the section
    d = ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], np.zeros(3), [1.0, 1.0, 0.5], 2,
                         2 ** 0.5)
    x = np.array([0.1, 0.3])
    W = np.array([[1j, 0.0]])
    T = np.linspace(0.0, 0.9, 10)[None, :]
    along = d.section_distance_along(x, W, T)
    np.testing.assert_allclose(along, np.minimum(1.0 - np.hypot(0.1, T), 0.4), rtol=1e-12)
    np.testing.assert_allclose(along, _paired_on_rows(d, x, W, T)[0], rtol=1e-12)


def test_section_distance_along_passes_a_face_whose_rate_is_subnormal():
    """A face whose rate along the ray is subnormal but nonzero has slack /
    rate = inf (an overflow, not a warning): it never meets the section, so
    the table answers as it does without that face."""
    coeffs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1j], [0, -1j, -2.2e-311j]]
    x, W, T = np.zeros(3), np.array([[0, 0, 0.5]], dtype=complex), np.array([[0.0, 0.5, 1.0]])
    with_face = ConvexPolyhedron(coeffs, np.zeros(5), [2, 2, 2, 1, 1], 3, 12 ** 0.5)
    without = ConvexPolyhedron(coeffs[:4], np.zeros(4), [2, 2, 2, 1], 3, 12 ** 0.5)
    assert 0 < abs(with_face.coeffs[4] @ W[0]) < np.finfo(float).tiny
    along = with_face.section_distance_along(x, W, T)
    assert along.tobytes() == without.section_distance_along(x, W, T).tobytes()


@pytest.mark.parametrize("modulus_count", [4, 3], ids=["modulus-face", "real-face"])
def test_affine_disc_length_passes_a_face_whose_rate_is_subnormal(modulus_count):
    """A face whose rate along the segment is subnormal but nonzero has a
    disc or half-plane beyond the floats (its centre or reach overflows): it
    bounds no section, so the closed-form length is the one without that
    face, bit for bit, and the distance does not take the segment for one
    that leaves the body."""
    coeffs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1j, -2.2e-311j]]
    with_face = ConvexPolyhedron(coeffs, np.zeros(4), [2, 2, 2, 1], modulus_count, 12 ** 0.5)
    without = ConvexPolyhedron(coeffs[:3], np.zeros(3), [2, 2, 2], 3, 12 ** 0.5)
    x, w = np.array([0.1, 0.2, 0.0]), np.array([0, 0, 0.5])
    assert 0 < abs(with_face.coeffs[3] @ w) < np.finfo(float).tiny
    assert with_face.affine_disc_length(x, w) == without.affine_disc_length(x, w)
    bound = kobayashi_distance(with_face, x, x + w)
    assert bound.lower <= bound.upper


@pytest.mark.parametrize("make", [
    lambda: zoo_domain("three_face"),
    lambda: affine_twin(zoo_domain("three_face")),
    lambda: _random_polyhedron(4, 3, 3, 2),
], ids=["three_face", "three_face-twin", "random-C3-8-faces"])
def test_section_distance_along_rejects_exterior_nodes(make):
    d = make()
    W = SampleStream(22).unit_directions(2, d.dim)
    far = 10.0 * d.bounding_radius
    with pytest.raises(NotInteriorError):
        d.section_distance_along(d.basepoint, W, np.array([[0.0, 0.1], [0.2, far]]))
    with pytest.raises(NotInteriorError):
        d.section_distance_along(d.basepoint + far * W[0], W, np.zeros((2, 3)))


@pytest.mark.parametrize("make,x,y,length", [
    (lambda: zoo_domain("three_face"), [0, 0], [0.3 + 0.1j, -0.2j], 0.3801304080661717),
    (lambda: affine_twin(zoo_domain("three_face")), twin_map(2)([0.1j, 0.2]),
     twin_map(2)([-0.4, 0.3 - 0.2j]), 0.5356267628250426),
    (lambda: _random_polyhedron(1), [0.1, -0.05j], [-0.2 + 0.1j, 0.15], 0.7912655702977802),
], ids=["three_face", "three_face-twin", "random-polyhedron-1"])
def test_polyhedron_distance_uppers_are_pinned(make, x, y, length):
    """The closed-form affine-disc lengths, each inside the sandwich of a
    16,384-interval midpoint sum and trapezoid of the same integrand, and the
    distance's upper side that length plus its rounding allowance."""
    d = make()
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    got, rounding = d.affine_disc_length(x, y - x)
    assert got == pytest.approx(length, rel=1e-14)
    below, above = segment_sandwich(d, x, y, 2 ** 14)
    assert below <= length <= above and above - below < 1e-8 * length
    b = kobayashi_distance(d, x, y)
    assert (b.upper_method, b.nodes, b.converged) == ("affine-disc-length", 0, True)
    assert b.upper == got + rounding and b.final_delta == rounding < 1e-12


def test_disc_antiderivative_limits_symmetry_and_derivative():
    """F is an odd antiderivative of 1 / (R - sqrt(u^2 + q^2)) that reaches
    log(R / (R - u)) continuously as q -> 0."""
    F = domains._disc_antiderivative
    R = 1.3
    u = np.array([1e-9, 0.1, 0.5, 1.0, 1.2, 1.29])
    flat, _ = F(u, R, 0.0)
    np.testing.assert_allclose(flat, -np.log1p(-u / R), rtol=1e-13, atol=1e-14)
    for q in (1e-300, 1e-12):
        np.testing.assert_allclose(F(u, R, q)[0], flat, rtol=0, atol=1e-14)
    h = 1e-6
    for q in (0.0, 0.3, 1.2):
        v = np.linspace(-0.95, 0.95, 11) * np.sqrt(R * R - q * q)
        assert F(0.0, R, q)[0] == 0.0
        np.testing.assert_array_equal(F(-v, R, q)[0], -F(v, R, q)[0])
        slope = (F(v + h, R, q)[0] - F(v - h, R, q)[0]) / (2.0 * h)
        np.testing.assert_allclose(slope, 1.0 / (R - np.hypot(v, q)), rtol=1e-6)


def test_affine_disc_length_with_constant_faces():
    """Along i e_1 from (0.1, 0.3): |z_2| < 1 has f_lin(w) = 0 and bounds no
    section, and Re z_1 < 0.5 has Re<w, a> = 0, a constant slack 0.4, which
    binds until the disc |z_1| < 1 takes over at t = sqrt(0.35)."""
    d = ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], np.zeros(3), [1.0, 1.0, 0.5], 2,
                         2 ** 0.5)
    x = np.array([0.1, 0.3], dtype=complex)
    y = x + np.array([0.9j, 0.0])
    length, rounding = d.affine_disc_length(x, y - x)
    # the disc piece in the slack's own coordinate s = 0.9 t
    s = np.array([0.35 ** 0.5, 0.9])
    F, _ = domains._disc_antiderivative(s, 1.0, 0.1)
    assert length == pytest.approx(s[0] / 0.4 + F[1] - F[0], rel=1e-14)
    below, above = segment_sandwich(d, x, y, 2 ** 14)
    assert below - rounding <= length <= above + rounding
    # the constant face alone: a real face with Re<w, a> = 0 the whole way
    short = x + np.array([0.5j, 0.0])
    assert d.affine_disc_length(x, short - x)[0] == pytest.approx(0.5 / 0.4, rel=1e-15)


def test_affine_disc_length_stays_tight_on_short_segments():
    """On a segment far shorter than the domain the closed form cancels most
    of its digits; each piece's convexity bracket keeps the rounding
    allowance small, and the length inside a 16-interval sandwich."""
    d = zoo_domain("three_face")
    x, u = np.array([0.1, 0.2j]), np.array([0.6, 0.8j])
    for h in (1e-5, 1e-8):
        y = x + h * u
        length, rounding = d.affine_disc_length(x, y - x)
        assert rounding < 1e-10 * length
        below, above = segment_sandwich(d, x, y, 16)
        assert below * (1.0 - 1e-15) <= length + rounding
        assert length - rounding <= above * (1.0 + 1e-15)


def _tangent_half_plane_distance(d, x, y):
    """The distance lower bound from the faces' tangent half-planes: with u
    the phase of F_k at x, y or their midpoint (1 on a real face), face k
    maps the polyhedron into Re(conj(u) F_k) < bounds[k], where the images w1
    and w2 of x and y are atanh|(w2 - w1) / (w2 + conj(w1) - 2 bounds[k])|
    apart.  An affine image is measured on its inner polyhedron."""
    if isinstance(d, AffineImage):
        return _tangent_half_plane_distance(d.inner, d.map_inv(x), d.map_inv(y))
    mc = d.modulus_count
    best = 0.0
    for near in (x, y, 0.5 * (x + y)):
        F = d.face_values(near)
        u = np.ones(F.size, dtype=complex)
        on = np.flatnonzero(np.abs(F[:mc]) > 0)
        u[on] = F[on] / np.abs(F[on])
        w1, w2 = u.conj() * d.face_values(np.stack([x, y]))
        t = np.abs((w2 - w1) / (w2 + w1.conj() - 2.0 * d.bounds))
        best = max(best, np.arctanh(t[t < 1.0]).max(initial=0.0))
    return best


@pytest.mark.parametrize("make,exact", [
    (lambda: zoo_domain("three_face"), None),
    (lambda: affine_twin(zoo_domain("three_face")), None),
    (lambda: polydisc_as_polyhedron([1.0, 0.7]),
     ConvexPolyhedron(np.eye(2), np.zeros(2), [1.0, 0.7], 2, np.linalg.norm([1.0, 0.7]))),
    (lambda: _random_polyhedron(0), None),
    (lambda: _random_polyhedron(2, 3, 3, 2), None),
], ids=["three_face", "three_face-twin", "polydisc-faces", "random-0", "random-C3"])
def test_polyhedron_distance_lower_bound_dominates_the_half_space_bound(make, exact):
    """The faces' disc and half-plane projections bound the distance at
    least as well as the faces' tangent half-planes, and on the polydisc as
    faces they give its closed-form distance."""
    d = make()
    P = d.interior_samples(16, SampleStream(41))
    for x, y in zip(P[:8], P[8:]):
        lower = d.distance_lower_bound(x, y - x, SampleStream(0))
        assert lower >= _tangent_half_plane_distance(d, x, y) * (1 - 1e-15)
        assert lower <= kobayashi_distance(d, x, y).upper
        if exact is not None:
            assert lower == pytest.approx(exact.distance_value(x, y - x), rel=1e-14)
    if exact is not None:
        # the unchecked fill answers as the checked table, bit for bit
        V = d.interior_samples(16, SampleStream(42))
        for oracle in ("contains_margins", "gauge"):
            np.testing.assert_array_equal(getattr(d, oracle)(P), getattr(exact, oracle)(P))
        for rows in (P, P[:1]):
            np.testing.assert_array_equal(d.section_distance_paired(rows, V),
                                          exact.section_distance_paired(rows, V))
            # both are products: the closed form on both sides
            np.testing.assert_array_equal(d.bracket_paired(rows, V),
                                          [exact.metric_paired(rows, V)] * 2)


def _ball_floor_and_reach(d, x, P):
    """Per row of P, (a floor the sampler's ``distance_upper`` must not go
    below, a lower bound of the affine-disc length from x): on a table both
    are the closed-form length less its rounding; on the ellipsoid
    {|C z| < 1} (a gauge body) the floor is its distance, the affine ball's,
    and the length a 1024-interval midpoint sum of the affine-disc integrand
    of the same set as the ball's affine image, which underestimates it, as
    the integrand is convex along the segment."""
    W = P - x
    if not isinstance(d, BalancedConvex):
        floor = np.array([np.subtract(*d.affine_disc_length(x, w)) for w in W])
        return floor, floor
    image = AffineImage(UnitBall(2), AffineMap(CLinearMap(np.linalg.inv(ELLIPSOID_C)),
                                               np.zeros(2)))
    mids = (np.arange(1024) + 0.5) / 1024
    sec = image.section_distance_along(x, W, np.broadcast_to(mids, (len(W), mids.size)))
    return image.distance_value(x, W), np.linalg.norm(W, axis=1) * (1.0 / sec).mean(axis=1)


@pytest.mark.parametrize("make,x,r,seed,count", [
    (lambda: zoo_domain("three_face"), [0.1, -0.2j], 0.8, 5, 400),
    (lambda: _random_polyhedron(6, 4, 6, 6), [0, 0, 0, 0], 0.7, 6, 400),
    (lambda: affine_twin(_random_polyhedron(3)), twin_map(2)([0.1, 0.05j]), 0.6, 2, 400),
    (_gauge_ellipsoid, [0.2, -0.1j], 0.6, 3, 40),
], ids=["three_face", "random-C4-16-faces", "affine-twin", "ellipsoid"])
def test_distance_ball_sample_reaches_its_targets(make, x, r, seed, count):
    """Each point is certified inside B(x; r), its reported distance at or
    above the affine-disc length it bounds (on the ellipsoid, its distance),
    and near its target: the chord bound loses under 2% of it in the median,
    and no point with a positive target sits at x."""
    d = make()
    x = np.asarray(x, dtype=complex)
    ball = distance_ball_sample(d, x, r, count, seed=seed)
    targets = metrics._shell_targets(SampleStream(seed).fork(1), count, r)
    floor, length = _ball_floor_and_reach(d, x, ball.points)
    assert np.all(ball.distance_upper < r)
    assert np.all(ball.distance_upper >= floor)
    assert np.median(length / targets) >= 0.98
    assert np.all(np.any(ball.points != x, axis=1) | (targets == 0))


# ---------------------------------------------------------------------------
# Gauge-body sections: boundary hits searched along rays
# ---------------------------------------------------------------------------


class _CountingGauge:
    """A vectorized gauge that counts its calls."""

    def __init__(self, g):
        self.g, self.calls = g, 0

    def __call__(self, v):
        self.calls += 1
        return self.g(np.asarray(v, dtype=complex))


def _ellipsoid_gauge(v):
    # |C v| elementwise: a matmul rounds a one-row stack apart from a longer
    # one, and the tests evaluate the searched points again in other stacks
    w = v[..., :1] * ELLIPSOID_C[:, 0] + v[..., 1:] * ELLIPSOID_C[:, 1]
    return np.sqrt(np.sum(np.abs(w) ** 2, axis=-1))


def _balanced_gauge(v):
    return np.max(np.abs(v @ TWO_FACE_C.T) / TWO_FACE_S, axis=-1)


def _four_norm_gauge(v):
    return np.sum(np.abs(v) ** 4, axis=-1) ** 0.25


def _counted_body(name):
    """(body, counting gauge) for the ellipsoid {|C z| < 1}, the kinked zoo
    balanced set and the unit ball of the 4-norm."""
    if name == "ellipsoid":
        g = _CountingGauge(_ellipsoid_gauge)
        sv = np.linalg.svd(ELLIPSOID_C, compute_uv=False)
        return BalancedConvex(g, 2, 1.0 / sv[-1], 1.0 / sv[0]), g
    if name == "balanced":
        g, ref = _CountingGauge(_balanced_gauge), _gauge_balanced()
        return BalancedConvex(g, 2, ref.bounding_radius, ref.inner_radius), g
    g = _CountingGauge(_four_norm_gauge)
    return BalancedConvex(g, 2, 2.0 ** 0.25, 1.0), g


def _ellipsoid_section_distance(x, v):
    """The section through x along v is the disc |Cx + zeta C vhat| < 1, of
    centre c0 = -<Cx, C vhat> / |C vhat|^2 and radius rho; x sits at zeta = 0,
    so its distance to the boundary is rho - |c0|."""
    a = ELLIPSOID_C @ x
    b = ELLIPSOID_C @ (v / np.linalg.norm(v))
    bb = np.vdot(b, b).real
    c0 = -np.vdot(b, a) / bb
    rho = np.sqrt((1.0 - np.vdot(a, a).real) / bb + abs(c0) ** 2)
    return rho - abs(c0)


def _bisected_section_distance(d, x, v, rays=128):
    """The section distance of one row from 60 bisection steps per ray on
    [0, 2R] and the inradius of the polygon of the inside ends."""
    phase = np.exp(2j * np.pi * np.arange(rays) / rays)
    dirs = (v / np.linalg.norm(v))[None, :] * phase[:, None]
    lo, hi = np.zeros(rays), np.full(rays, 2.0 * d.bounding_radius)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = d.gauge(x[None, :] + mid[:, None] * dirs) < 1.0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    a = lo * phase
    seg = np.roll(a, -1) - a
    L2 = np.abs(seg) ** 2
    ts = np.clip(-np.real(a * np.conj(seg)) / np.where(L2 > 0, L2, 1.0), 0.0, 1.0)
    return float(np.min(np.abs(a + ts * seg)))


def _record_ray_searches(monkeypatch):
    """Every (X, D, phase, lo, hi, k) that ``domains._polygon_search`` takes
    and returns from now on."""
    searches, polygon_search = [], domains._polygon_search

    def recorded(margin, X, D, phase, *bracket):
        lo, hi, k = polygon_search(margin, X, D, phase, *bracket)
        searches.append((X, D, phase, lo, hi, k))
        return lo, hi, k

    monkeypatch.setattr(domains, "_polygon_search", recorded)
    return searches


def _assert_searches_end_on_evaluated_hits(d, searches, rays):
    """Every ray's ends are points the gauge put inside and outside; the two
    rays of each row's nearest edge end at adjacent doubles (or 2R 2^-60
    apart), while the rays that cannot carry it may stop sooner."""
    assert sum(lo.size for *_, lo, hi, k in searches) == rays
    for X, D, phase, lo, hi, k in searches:
        assert np.all(d.contains_margins(X + lo.reshape(-1, 1) * D) > 0)
        assert np.all(d.contains_margins(X + hi.reshape(-1, 1) * D) <= 0)
        a = lo * phase
        feet = domains._edge_feet(a, np.roll(a, -1, axis=1))
        assert np.array_equal(k, np.abs(feet).argmin(axis=1))
        rows = np.arange(len(k))[:, None]
        edge = np.stack([k, (k + 1) % phase.size], axis=1)
        lo, hi = lo[rows, edge], hi[rows, edge]
        assert np.all((hi == np.nextafter(lo, np.inf))
                      | (hi - lo <= 2.0 * d.bounding_radius * 2.0 ** -60))
    # the nearest edge's rays alone need run to the end
    assert any(np.any(hi - lo > 2.0 * d.bounding_radius * 2.0 ** -60)
               for *_, lo, hi, k in searches)


def _assert_pinned_to_the_ellipsoid_sections(got, P, V):
    true = np.array([_ellipsoid_section_distance(x, v) for x, v in zip(P, V)])
    # the polygon is inscribed, so only the closed form's rounding can put it
    # above the true value; each point of its nearest edge projects onto the
    # edge's bisecting ray at least cos(pi / rays) times its nearer vertex's
    # distance, and both vertices lie at least the true value out, up to the
    # rounding of the hits and of the closed form
    assert np.all(got <= true * (1.0 + 1e-12))
    assert np.all(got >= true * math.cos(math.pi / config.SECTION_RAYS) * (1.0 - 1e-12))


def test_ellipsoid_section_distance_is_pinned_to_its_closed_form(monkeypatch):
    """Off centre the 128-ray polygon lies inside the disc section, its
    inradius at least cos(pi / 128) times the true one, and each of its
    vertices is a point the gauge put inside."""
    d = _counted_body("ellipsoid")[0]
    searches = _record_ray_searches(monkeypatch)
    stream = SampleStream(41)
    P = 0.95 * d.interior_samples(48, stream)
    V = stream.unit_directions(48, 2) * stream.uniform(48, 0.2, 2.0)[:, None]
    _assert_pinned_to_the_ellipsoid_sections(d.section_distance_paired(P, V), P, V)
    _assert_searches_end_on_evaluated_hits(d, searches, 48 * config.SECTION_RAYS)


def test_ellipsoid_section_search_costs_at_most_15_gauge_calls():
    d, g = _counted_body("ellipsoid")
    x, v = np.array([0.5, 0.2j]), np.array([0.3, 1.0])
    assert float(d.gauge(x)) > 0.7
    g.calls = 0
    got = d.section_distance_paired(x[None, :], v[None, :])[0]
    assert g.calls <= 15                     # 61 with 60 bisection steps
    assert got == pytest.approx(_bisected_section_distance(d, x, v), rel=1e-13)


def test_ellipsoid_metric_query_costs_at_most_20_gauge_calls():
    """One section search answers both sides of an off-centre query: its
    polygon guides the half-spaces, which cost two more calls.  The query
    costs 12 calls: one for x and the row's direction, one for both ends of
    every ray's starting bracket, eight search rounds and two for the
    half-spaces."""
    d, g = _counted_body("ellipsoid")
    x, v = np.array([0.5, 0.2j]), np.array([0.3, 1.0])
    g.calls = 0
    b = kobayashi_metric(d, x, v)
    assert g.calls == 12          # 68 with a 50-step nearest-boundary bisection
    true = UnitBall(2).metric_paired((ELLIPSOID_C @ x)[None, :], (ELLIPSOID_C @ v)[None, :])[0]
    assert b.lower <= true <= b.upper
    assert b.lower_method == "half-space"


@pytest.mark.parametrize("name,search,bracket", [("ellipsoid", 27, 31), ("balanced", 28, 32),
                                                  ("four-norm", 25, 29)],
                         ids=["ellipsoid", "balanced", "four-norm"])
def test_bracket_takes_two_half_space_calls_per_block(name, search, bracket):
    """A 64-row bracket costs its section search and two gauge calls per
    block of _SECTION_BLOCK rows for the half-spaces: 31 calls on the
    ellipsoid, against 161 (33 + 2 per row) with one half-space search per
    row.  Searching every ray to the end takes 33, 33 and 34 calls."""
    d, g = _counted_body(name)
    stream = SampleStream(42)
    P = 0.9 * d.interior_samples(64, stream.fork(0))
    V = stream.fork(1).unit_directions(64, 2)
    g.calls = 0
    d.section_distance_paired(P, V)
    assert g.calls == search
    g.calls = 0
    d.bracket_paired(P, V, stream.fork(2))
    assert g.calls == bracket == search + 2 * -(-64 // domains._SECTION_BLOCK)


@pytest.mark.parametrize("seeded", [True, False], ids=["stream", "no-stream"])
def test_gauge_distance_lower_bound_reads_its_three_guides_drawn_in_turn(seeded, monkeypatch):
    """The one block of guides x, x + w and x + w / 2 reads the half-spaces of
    three one-guide blocks drawn one after another from the stream, or each
    from its own SampleStream(0) without one, and gives the largest of their
    bounds; from the centre too."""
    d = _counted_body("ellipsoid")[0]
    read, distances = [], domains._half_plane_distances
    monkeypatch.setattr(domains, "_half_plane_distances",
                        lambda w1, dw, b: read.append(b) or distances(w1, dw, b))
    Z = d.interior_samples(4, SampleStream(45))
    for x, y in ((np.zeros(2, dtype=complex), Z[0]), (Z[1], Z[2]), (Z[3], 0.99 * Z[3])):
        w = y - x
        got = d.distance_lower_bound(x, w, SampleStream(46) if seeded else None)
        drawn, offsets, want = SampleStream(46), [], 0.0
        for near in (x, x + w, x + 0.5 * w):
            N, b = d.supporting_half_spaces(near[None, :], [drawn if seeded else SampleStream(0)])
            found = b[0] > -np.inf
            N, b = N[0][found].conj().T, b[0][found]
            offsets.append(b)
            want = max(want, float(distances(x @ N, w @ N, b).max(initial=0.0)))
        b = read.pop()
        assert np.array_equal(b[b > -np.inf], np.concatenate(offsets))
        assert got == want > 0


@pytest.mark.parametrize("name,calls", [("ellipsoid", 16), ("balanced", 15), ("four-norm", 15)],
                         ids=["ellipsoid", "balanced", "four-norm"])
def test_section_search_stays_on_the_bisection_values(name, calls):
    """One block of 32 rows costs 15 or 16 gauge calls (24, 26 and 25 when
    every ray runs to the end, 60 for bisection), and each row's section
    distance is the 60-step bisection's within 1e-13."""
    d, g = _counted_body(name)
    stream = SampleStream(42)
    P = d.interior_samples(32, stream)
    V = stream.unit_directions(32, 2) * stream.uniform(32, 0.2, 2.0)[:, None]
    g.calls = 0
    got = d.section_distance_paired(P, V)
    assert g.calls == calls
    want = [_bisected_section_distance(d, x, v) for x, v in zip(P, V)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_polygon_search_runs_the_nearest_edge_to_the_end_past_a_nearer_vertex():
    """A planar section with a flat side at 0.5 whose foot falls halfway
    between rays 0 and 1 (delta = 2 pi / rays apart), and another at
    0.5 (1 + 1e-6) through the vertex of ray rays / 2.  That vertex is
    nearer than both vertices of the nearest edge, edge 0, which lie
    0.5 / cos(delta / 2) out; the search still runs rays 0 and 1 to
    adjacent doubles while most rays stop early."""
    rays = 128
    delta = 2.0 * np.pi / rays
    far = 0.5 * (1.0 + 1e-6)

    def margin(Z):
        z = Z[:, 0]
        return np.minimum(np.minimum(0.5 - np.real(z * np.exp(-0.5j * delta)), far + z.real),
                          3.0 - np.abs(z))

    phase = domains._ray_phases(rays)
    X, D = np.zeros((rays, 1), dtype=complex), phase[:, None]
    lo, hi = np.zeros(rays), np.full(rays, 4.0)
    lo, hi, k = domains._polygon_search(margin, X, D, phase, lo, margin(X), hi,
                                        margin(hi[:, None] * D), 8.0 * 2.0 ** -60)
    assert k.tolist() == [0] and lo.shape == (1, rays)
    assert np.all(margin(X + lo.reshape(-1, 1) * D) > 0)
    assert np.all(margin(X + hi.reshape(-1, 1) * D) <= 0)
    assert 0.5 < lo[0, rays // 2] < min(lo[0, 0], lo[0, 1])
    assert np.all(hi[0, :2] == np.nextafter(lo[0, :2], np.inf))
    assert np.count_nonzero(hi > np.nextafter(lo, np.inf)) > rays // 2


def _along_their_own_lines(d, sign):
    """24 rows x = sign * a * vhat, 0.1 <= a g(vhat) <= 0.9, and their
    directions v: along vhat each meets the boundary at an end of its
    sublinear bracket."""
    stream = SampleStream(43)
    V = stream.unit_directions(24, 2)
    vhat = V / np.linalg.norm(V, axis=1, keepdims=True)
    return sign * stream.uniform(24, 0.1, 0.9)[:, None] * vhat / d.gauge(vhat)[:, None], V


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_section_search_falls_back_when_the_sublinear_ends_round_across(sign, monkeypatch):
    """Along its own line, x = sign * a * vhat meets the boundary at exactly
    (1 -+ g(x)) / g(vhat), an end of the sublinear bracket, which rounding can
    put on either side; the search still returns the inscribed polygon."""
    d = _counted_body("ellipsoid")[0]
    searches = _record_ray_searches(monkeypatch)
    P, V = _along_their_own_lines(d, sign)
    got = d.section_distance_paired(P, V)
    _assert_pinned_to_the_ellipsoid_sections(got, P, V)
    _assert_searches_end_on_evaluated_hits(d, searches, 24 * config.SECTION_RAYS)
    want = [_bisected_section_distance(d, x, v) for x, v in zip(P, V)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _search_bits(d, g, P, V):
    """Section distances, guides and the (lower, upper) bracket sides, and
    every point the counting gauge g was asked about, in order."""
    asked, gauge = [], g.g
    g.g = lambda v: asked.append(v.reshape(-1, v.shape[-1])) or gauge(v)
    try:
        bits = (*d._section_search(P, V), *d.bracket_paired(P, V, SampleStream(47)))
    finally:
        g.g = gauge
    return (*bits, np.concatenate(asked))


@pytest.mark.parametrize("name", ["ellipsoid", "balanced", "four-norm"])
def test_section_search_keeps_the_reference_search_bits(name, monkeypatch):
    """On gauges that round a row alike in every stack, section distances,
    guides and both bracket sides equal, bit for bit, those of the search in
    ``section_search_reference``, and the gauge is asked about the same
    points in the same order: one-row calls from the centre out to
    1 - 2^-30 of the exit, one 70-row call over three _SECTION_BLOCKs, and
    the rows along their own lines, whose starting brackets fall back on 0
    and on 2R."""
    d, g = _counted_body(name)
    stream = SampleStream(46)
    fraction = np.resize([0.0, 0.5, 0.9, 0.99, 1 - 2.0 ** -10, 1 - 2.0 ** -20, 1 - 2.0 ** -30], 70)
    U = stream.unit_directions(70, 2)
    P = fraction[:, None] * U / d.gauge(U)[:, None]
    V = stream.unit_directions(70, 2) * stream.uniform(70, 0.2, 2.0)[:, None]
    cases = [(P[i:i + 1], V[i:i + 1]) for i in range(7)] + [(P, V)]
    cases += [_along_their_own_lines(d, sign) for sign in (1.0, -1.0)]
    got = [_search_bits(d, g, P, V) for P, V in cases]
    brackets = []

    def recorded(self, X, D, gx, gv):
        brackets.append(section_search_reference._hit_brackets(self, X, D, gx, gv))
        return brackets[-1]

    monkeypatch.setattr(domains, "_edge_feet", section_search_reference._edge_feet)
    monkeypatch.setattr(domains, "_polygon_search", section_search_reference._polygon_search)
    monkeypatch.setattr(BalancedConvex, "_hit_brackets", recorded)
    want = [_search_bits(d, g, P, V) for P, V in cases]
    for got_case, want_case in zip(got, want):
        for a, b in zip(got_case, want_case):
            assert np.array_equal(a, b)
    lo, _, hi, _ = map(np.concatenate, zip(*brackets))
    assert np.any(lo == 0.0) and np.any(hi == 2.0 * d.bounding_radius)


def test_section_search_refuses_a_body_past_its_bounding_radius():
    """A gauge whose body reaches 3 along the complex line of e_1 passes the
    sampled construction checks with bounding radius 1.  From x = -0.18 e_1
    the sublinear end (1 + g(x)) / g(e_1) rounds inside, and so does the
    fallback end 2R = 2."""
    def spiked(v):
        v = np.asarray(v, dtype=complex)
        r = np.linalg.norm(v, axis=-1)
        s = np.clip((np.abs(v[..., 0]) / r - 0.9999) / 1e-4, 0.0, 1.0)
        return r * (1.0 - (2.0 / 3.0) * s)

    d = BalancedConvex(spiked, 2, 1.0, 1.0)
    with pytest.raises(DegenerateInputError, match="bounding radius"):
        d.section_distance_paired(np.array([[-0.18, 0.0]]), np.array([[1.0, 0.0]]))
