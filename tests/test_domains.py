"""Domain oracles: membership, sections, gauges, loaders, and the zoo."""

import json

import numpy as np
import pytest

from invmet import (
    AffineMap,
    AutomorphismFamily,
    CLinearMap,
    HalfPlaneProduct,
    Polydisc,
    SampleStream,
    UnitBall,
    config,
    convexity_witness,
    kobayashi_metric,
    load_domain,
    model_automorphism,
    zoo_domain,
    zoo_names,
)
from invmet.domains import (
    AffineImage,
    BalancedConvex,
    ConvexPolyhedron,
    ModulusFace,
    RealFace,
)
from invmet.errors import (
    DimensionMismatchError,
    NotInteriorError,
    SpecLoadError,
    UnsupportedKindError,
)
from invmet.metrics import metric_lower_paired, metric_upper_paired
from invmet.zoo import affine_twin, resolve_domain, twin_map

from conftest import assert_inside

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
    d = Polydisc([1.0, 2.0])
    assert d.contains([0.5, 1.0]) > 0
    assert d.contains([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert d.contains([1.5, 0.0]) < 0
    # section through 0 along e1 exits at the first face
    assert d.section_boundary_distance(np.zeros(2, complex), np.array([1, 0], complex)) == pytest.approx(1.0)
    assert d.section_boundary_distance(np.zeros(2, complex), np.array([0, 1], complex)) == pytest.approx(2.0)


def test_unit_ball_membership_and_gauge():
    d = UnitBall(2)
    assert d.contains([0.6, 0.0]) > 0
    assert d.contains([0.8, 0.6]) == pytest.approx(0.0, abs=1e-15)
    v = np.array([3.0, 4.0j])
    assert float(d.gauge(v)) == pytest.approx(5.0)


def test_halfplane_membership_requires_positive_height():
    d = HalfPlaneProduct(2)
    assert d.contains([1j, 2 + 1j]) > 0
    assert d.contains([1j, 1.0]) <= 0
    with pytest.raises(NotInteriorError):
        d.require_interior(np.array([1j, 1.0 + 0j]))


def test_dimension_mismatch_raises():
    d = Polydisc([1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        d.contains([0.1])


def test_interior_samples_stay_inside():
    for name in zoo_names():
        d = zoo_domain(name)
        pts = d.interior_samples(200, SampleStream(1))
        assert pts.shape == (200, d.dim)
        assert_inside(d, pts)


def test_convexity_witness_nonnegative_on_zoo():
    for name in zoo_names():
        d = zoo_domain(name)
        assert convexity_witness(d, samples=300, seed=2) >= 0


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
    sec = float(d.section_boundary_distance(x, v))
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
    kd = pd2.metric_value(x, v)
    kt = dt.metric_value(T(x), T.derivative(x) @ v)
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


def test_automorphism_family_schedule(ball2):
    fam = AutomorphismFamily(ball2, np.array([1.0 + 0j, 0j]))
    np.testing.assert_allclose(fam.point_at(0.0), ball2.basepoint, atol=1e-15)
    np.testing.assert_allclose(fam.point_at(1.0), [0.5, 0.0], atol=1e-15)
    phi = fam.automorphism(2.0)
    np.testing.assert_allclose(phi(ball2.basepoint), fam.point_at(2.0), atol=1e-12)


def test_load_domain_from_file_and_dict(polydisc2_file, three_face_file):
    d = load_domain(str(polydisc2_file))
    assert isinstance(d, Polydisc) and d.dim == 2
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


def test_zoo_names_and_fresh_instances():
    names = zoo_names()
    assert names == sorted(names)
    for required in ("disc", "polydisc2", "ball2", "halfplane", "three_face",
                     "balanced", "sheared_polydisc", "turned_ball"):
        assert required in names
    assert zoo_domain("ball2") is not zoo_domain("ball2")
    with pytest.raises(SpecLoadError):
        zoo_domain("no_such_domain")


def test_resolve_domain_falls_back_to_files(polydisc2_file):
    assert resolve_domain("ball2").dim == 2
    assert resolve_domain(str(polydisc2_file)).dim == 2


# ---------------------------------------------------------------------------
# Batched oracles agree with their single-point forms
# ---------------------------------------------------------------------------

def _random_polyhedron(seed):
    """Modulus faces with constants plus real faces, inside the bidisc of radius 2."""
    rng = np.random.default_rng(seed)
    faces = [ModulusFace(np.eye(2, dtype=complex)[k], 0.0, 2.0) for k in range(2)]
    for _ in range(3):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        faces.append(ModulusFace(c, 0.3 * complex(*rng.standard_normal(2)),
                                 float(rng.uniform(1.0, 2.0))))
    for _ in range(2):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        faces.append(RealFace(a, float(rng.uniform(0.5, 1.5))))
    return ConvexPolyhedron(faces, dim=2, bounding_radius=2.0 * np.sqrt(2.0))


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
    """Every kind answers the row-paired protocol, and its single-point forms
    are rows of the paired forms."""
    if rays is not None:
        monkeypatch.setattr(config, "SECTION_RAYS", rays)
    d = make()
    stream = SampleStream(12)
    rows = 75                                  # more than two blocks of rows
    P = d.interior_samples(rows, stream)
    P[::7] = d.basepoint                       # the centre of balanced bodies
    V = stream.unit_directions(rows, d.dim) * stream.uniform(rows, 0.2, 2.0)[:, None]
    assert np.all(d.section_distance_paired(P, V) > 0)
    for paired, single in ((d.section_distance_paired, d.section_boundary_distance),
                           (d.metric_paired, d.metric_value)):
        one_row = [paired(P[i:i + 1], V[i:i + 1]) for i in range(rows)]
        per_point = [single(p, v) for p, v in zip(P, V)]
        if one_row[0] is None:
            assert all(k is None for k in one_row + per_point)
            continue
        one_row = np.concatenate(one_row)
        assert np.array_equal(one_row, np.array(per_point))
        if isinstance(d, AffineImage):
            # BLAS rounds the pull-back's many-row complex matmul apart from a
            # one-row one by an ulp, which the cancellation in a short section
            # distance can lift to 1e-13 relative
            np.testing.assert_allclose(paired(P, V), one_row, rtol=1e-12)
        else:
            assert np.array_equal(paired(P, V), one_row)
    assert np.all(metric_lower_paired(d, P, V) <= metric_upper_paired(d, P, V))


def test_balanced_paired_section_distance_rejects_exterior_rows():
    d = _gauge_balanced()
    P = np.array([[0.1, 0.0], [5.0, 0.0]], dtype=complex)
    with pytest.raises(NotInteriorError):
        d.section_distance_paired(P, np.ones((2, 2), dtype=complex))


def test_balanced_half_space_normals_match_ellipsoid_gradient():
    C = np.array([[1.2, 0.3 - 0.4j], [0.2j, 0.8]], dtype=complex)
    sv = np.linalg.svd(C, compute_uv=False)
    d = BalancedConvex(lambda v: np.linalg.norm(np.asarray(v) @ C.T, axis=-1),
                       2, 1.0 / sv[-1], 1.0 / sv[0])
    half_spaces = d.supporting_half_spaces(near=[0.3 + 0.1j, -0.2j], count=8,
                                           stream=SampleStream(13))
    assert len(half_spaces) == 9
    A = C.conj().T @ C
    for hs in half_spaces:
        assert float(d.gauge(hs.base)) == pytest.approx(1.0, abs=1e-12)
        expected = A @ hs.base / np.linalg.norm(A @ hs.base)
        assert np.linalg.norm(hs.normal - expected) < 1e-6


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
