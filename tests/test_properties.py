"""Property tests with ``hypothesis``: random ellipsoids known only through a
gauge callable, against the closed form of the same set as an affine image of
the unit ball; certified supporting half-spaces of gauge bodies, which must
contain the body; and random polyhedra, whose closed-form distance uppers must
lie inside quadrature sandwiches and agree across affine images, and whose
face-table oracles must agree with the drawn faces taken one by one."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invmet import AffineMap, SampleStream, UnitBall, kobayashi_distance, kobayashi_metric
from invmet.domains import AffineImage, BalancedConvex, ConvexPolyhedron, ModulusFace, RealFace
from invmet.metrics import indicatrix_gauge_upper
from invmet.zoo import affine_twin

from conftest import segment_sandwich
from test_domains import _counted_body

RTOL = 1e-9

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _complex_array(draw, shape):
    re = np.array(draw(st.lists(unit, min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape)))))
    im = np.array(draw(st.lists(unit, min_size=re.size, max_size=re.size)))
    return (re + 1j * im).reshape(shape)


@st.composite
def ellipsoid_rows(draw):
    """(C, x, v): the ellipsoid {|C z| < 1} with C = I + A/2, a point x at a
    drawn fraction of the way to the boundary, and a direction v."""
    C = np.eye(2) + 0.5 * _complex_array(draw, (2, 2))
    sv = np.linalg.svd(C, compute_uv=False)
    assume(sv[-1] > 0.2)
    u = _complex_array(draw, (2,))
    v = _complex_array(draw, (2,))
    assume(np.linalg.norm(u) > 1e-3 and np.linalg.norm(v) > 1e-3)
    x = draw(st.floats(0.0, 0.9)) * u / np.linalg.norm(C @ u)
    return C, x, v


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ellipsoid_rows())
def test_gauge_ellipsoid_metric_encloses_the_affine_ball_closed_form(row):
    C, x, v = row
    sv = np.linalg.svd(C, compute_uv=False)
    body = BalancedConvex(lambda z: np.linalg.norm(np.asarray(z) @ C.T, axis=-1),
                          2, 1.0 / sv[-1], 1.0 / sv[0])
    exact = AffineImage(UnitBall(2), AffineMap(np.linalg.inv(C), np.zeros(2)))
    true = kobayashi_metric(exact, x, v)
    assert true.lower == true.upper
    got = kobayashi_metric(body, x, v)
    assert got.lower <= true.value * (1.0 + RTOL)
    assert got.upper >= true.value * (1.0 - RTOL)
    # kobayashi_metric clips the lower side at the upper one, so compare the
    # oracles themselves
    P, V = x[None, :], v[None, :]
    lower, upper = body.bracket_paired(P, V, SampleStream(0))
    assert lower[0] <= upper[0] == indicatrix_gauge_upper(body, x, V)[0]


def _assert_half_spaces_contain_the_body(body, near, seed):
    """Every half-space that ``supporting_half_spaces`` returns near ``near``
    contains interior samples and the boundary points U / g(U), with no
    slack: U drawn, and U clustered ever closer around ``near``, where the
    first half-space touches the body."""
    stream = SampleStream(seed)
    N, b = body.supporting_half_spaces(near, stream=stream.fork(0))
    U = stream.fork(1).unit_directions(200, body.dim)
    U = np.vstack([U] + [near / np.linalg.norm(near) + r * U[:50] for r in (1e-3, 1e-6, 0.0)])
    Z = np.vstack([body.interior_samples(400, stream.fork(2)), U / body.gauge(U)[:, None]])
    assert np.all(np.real(Z @ N.conj().T) <= b)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ellipsoid_rows(), st.integers(0, 2 ** 16))
def test_gauge_ellipsoid_half_spaces_are_certified(row, seed):
    C, x, v = row
    sv = np.linalg.svd(C, compute_uv=False)
    body = BalancedConvex(lambda z: np.linalg.norm(np.asarray(z) @ C.T, axis=-1),
                          2, 1.0 / sv[-1], 1.0 / sv[0])
    _assert_half_spaces_contain_the_body(body, v, seed)
    exact = AffineImage(UnitBall(2), AffineMap(np.linalg.inv(C), np.zeros(2)))
    lower = body.bracket_paired(x[None, :], v[None, :], SampleStream(seed))[0]
    assert lower[0] <= kobayashi_metric(exact, x, v).value


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["four-norm", "balanced"]), st.integers(0, 2 ** 16))
def test_gauge_body_half_spaces_are_certified(name, seed):
    """The smooth 4-norm ball and the kinked balanced set, near points drawn
    inside them."""
    body = _counted_body(name)[0]
    near = body.interior_samples(1, SampleStream(seed).fork(3))[0]
    _assert_half_spaces_contain_the_body(body, near, seed)


@st.composite
def polyhedron_segments(draw):
    """(d, faces, x, y, z): a polyhedron in C^2 or C^3 (the polydisc of
    radius 2, then modulus faces with constants and real faces, all with 0
    inside), the faces it was built from, and three points at drawn
    fractions of the section distance from 0."""
    dim = draw(st.sampled_from([2, 3]))
    faces = [ModulusFace(np.eye(dim)[k], 0.0, 2.0) for k in range(dim)]
    mods, reals = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    C = _complex_array(draw, (mods + reals + 3, dim))
    assume(np.all(np.linalg.norm(C, axis=1) > 1e-3))
    for c in C[:mods]:
        bound = draw(st.floats(0.5, 2.0))
        const = 0.9 * bound * _complex_array(draw, (1,))[0] / 2 ** 0.5
        faces.append(ModulusFace(c, const, bound))
    faces += [RealFace(c, draw(st.floats(0.2, 1.5))) for c in C[mods:mods + reals]]
    d = ConvexPolyhedron(faces, dim, bounding_radius=2.0 * dim ** 0.5)
    U = C[mods + reals:]
    reach = d.section_distance_paired(np.zeros((1, dim)), U) / np.linalg.norm(U, axis=1)
    P = np.array([draw(st.floats(0.0, 0.95)) for _ in range(3)])[:, None] * reach[:, None] * U
    assume(np.any(P[0] != P[1]) and np.any(P[1] != P[2]))
    return d, faces, P[0], P[1], P[2]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(polyhedron_segments())
def test_polyhedron_length_lies_in_the_quadrature_sandwich(case):
    d, _, x, y, z = case
    length, rounding = d.affine_disc_length(x, y - x)
    # the integrand is convex along the segment: a trapezoid overestimates
    # and a midpoint sum underestimates its integral (up to their own sums'
    # rounding)
    assert length - rounding <= segment_sandwich(d, x, y, 8)[1] * (1.0 + 1e-12)
    assert length + rounding >= segment_sandwich(d, x, y, 4097)[0] * (1.0 - 1e-12)
    twin = affine_twin(d)
    T = twin.map
    assert twin.affine_disc_length(T(x), T(y) - T(x))[0] == pytest.approx(length, rel=1e-12)
    assert d.affine_disc_length(y, x - y)[0] == pytest.approx(length, rel=1e-12)
    xy, yz, xz = (kobayashi_distance(d, a, b) for a, b in ((x, y), (y, z), (x, z)))
    for b in (xy, yz, xz):
        assert b.lower <= b.upper
    assert xz.lower <= xy.upper + yz.upper


def _face_by_face(face, x, v):
    """(slack, rate, norm) of one drawn face at x along v, from its own
    definition: the room left before the face's bound, the speed of its
    value along v, and the norm of its coefficients, each in the units of
    |c . z + const| < bound or Re<z, a> < offset."""
    if isinstance(face, ModulusFace):
        c = np.asarray(face.coeffs, dtype=complex)
        return (face.bound - abs(complex(np.dot(x, c)) + face.const),
                abs(complex(np.dot(v, c))), float(np.linalg.norm(c)))
    a = np.asarray(face.normal, dtype=complex)
    return (face.offset - complex(np.vdot(a, x)).real, abs(complex(np.vdot(a, v))),
            float(np.linalg.norm(a)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(polyhedron_segments())
def test_polyhedron_face_table_matches_the_drawn_faces(case):
    d, faces, x, y, z = case
    assume(any(isinstance(f, RealFace) for f in faces))
    P, V = np.stack([x, y]), np.stack([y - x, z - y])

    def per_face(p, v):
        return [_face_by_face(f, p, v) for f in faces]

    margin = [min(s / w for s, _, w in per_face(p, p)) for p in P]
    section = [np.linalg.norm(v) * min(s / r if r > 0 else math.inf for s, r, _ in per_face(p, v))
               for p, v in zip(P, V)]
    shared = [np.linalg.norm(v) * min(s / r if r > 0 else math.inf for s, r, _ in per_face(x, v))
              for v in V]
    lower = [max(r / (2.0 * s) for s, r, _ in per_face(p, v)) for p, v in zip(P, V)]
    # the unit ball's support of a face's coefficients is their norm
    inner = min(s / w for s, _, w in per_face(x, x))
    rel = dict(rtol=1e-13, atol=0)
    np.testing.assert_allclose(d.contains_margins(P), margin, **rel)
    np.testing.assert_allclose(d.section_distance_paired(P, V), section, **rel)
    np.testing.assert_allclose(d.section_distance_paired(x[None, :], V), shared, **rel)
    np.testing.assert_allclose(d.bracket_paired(P, V)[0], lower, **rel)
    np.testing.assert_allclose(d.inner_radius_exact(x, UnitBall(d.dim)), inner, **rel)
