"""Property tests with ``hypothesis``: random ellipsoids known only through a
gauge callable, against the closed form of the same set as an affine image of
the unit ball; certified supporting half-spaces of gauge bodies, which must
contain the body; random polyhedra, whose closed-form distance uppers must
lie inside quadrature sandwiches and agree across affine images, whose chord
sums on random grids lie between those lengths and the trapezoid, whose
face-table oracles must agree with the drawn faces taken one by one, and whose
face-disc brackets stay ordered as faces are dropped; products of discs
and half-planes, which answer in closed form, also with redundant faces
added, and not with a tangent or binding one; distance balls on kinds with a
closed-form distance, whose radii must meet the bisection's; and indicatrix
volumes on products, the ball and their affine images, in closed form."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invmet import (AffineMap, SampleStream, UnitBall, kobayashi_distance, kobayashi_metric,
                    metrics)
from invmet.domains import (AffineImage, BalancedConvex, ConvexPolyhedron, halfplane_product,
                            polydisc)
from invmet.metrics import distance_scale, indicatrix_gauge_upper
from invmet.zoo import affine_twin

from conftest import ball_against_bisection, segment_sandwich
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


def _assert_half_spaces_contain_the_body(body, guides, seed):
    """Every half-space that ``supporting_half_spaces`` returns for a block
    of guide rows contains interior samples and the boundary points U / g(U),
    with no slack: U drawn, and U clustered ever closer around each nonzero
    guide, where its row's first half-space touches the body."""
    stream = SampleStream(seed)
    N, b = body.supporting_half_spaces(guides, [stream.fork(0).fork(i)
                                                for i in range(len(guides))])
    found = b > -np.inf
    assert found.any(axis=1).all()
    U = stream.fork(1).unit_directions(200, body.dim)
    U = np.vstack([U] + [g / np.linalg.norm(g) + r * U[:50]
                         for g in guides if np.any(g) for r in (1e-3, 1e-6, 0.0)])
    Z = np.vstack([body.interior_samples(400, stream.fork(2)), U / body.gauge(U)[:, None]])
    for Ni, bi, fi in zip(N, b, found):
        assert np.all(np.real(Z @ Ni[fi].conj().T) <= bi[fi])


@st.composite
def guide_blocks(draw):
    """2 to 5 guide rows in C^2, one of them 0."""
    count = draw(st.integers(2, 5))
    G = _complex_array(draw, (count, 2))
    G[draw(st.integers(0, count - 1))] = 0.0
    assume(np.sum(np.linalg.norm(G, axis=1) > 1e-3) == count - 1)
    return G


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ellipsoid_rows(), guide_blocks(), st.integers(0, 2 ** 16))
def test_gauge_ellipsoid_half_spaces_are_certified(row, guides, seed):
    C, x, v = row
    sv = np.linalg.svd(C, compute_uv=False)
    body = BalancedConvex(lambda z: np.linalg.norm(np.asarray(z) @ C.T, axis=-1),
                          2, 1.0 / sv[-1], 1.0 / sv[0])
    _assert_half_spaces_contain_the_body(body, guides, seed)
    exact = AffineImage(UnitBall(2), AffineMap(np.linalg.inv(C), np.zeros(2)))
    lower = body.bracket_paired(x[None, :], v[None, :], SampleStream(seed))[0]
    assert lower[0] <= kobayashi_metric(exact, x, v).value


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["four-norm", "balanced"]), st.integers(0, 2 ** 16))
def test_gauge_body_half_spaces_are_certified(name, seed):
    """The smooth 4-norm ball and the kinked balanced set, near points drawn
    inside them and at 0."""
    body = _counted_body(name)[0]
    near = body.interior_samples(3, SampleStream(seed).fork(3))
    _assert_half_spaces_contain_the_body(body, np.vstack([near, np.zeros(2)]), seed)


@st.composite
def polyhedron_segments(draw):
    """(d, faces, x, y, z): a polyhedron in C^2 or C^3 (the polydisc of
    radius 2, then modulus faces with constants and real faces, all with 0
    inside), the table rows it was built from as (modulus, coeffs, const,
    bound), and three points at drawn fractions of the section distance
    from 0."""
    dim = draw(st.sampled_from([2, 3]))
    faces = [(True, np.eye(dim)[k], 0.0, 2.0) for k in range(dim)]
    mods, reals = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    C = _complex_array(draw, (mods + reals + 3, dim))
    assume(np.all(np.linalg.norm(C, axis=1) > 1e-3))
    for c in C[:mods]:
        bound = draw(st.floats(0.5, 2.0))
        const = 0.9 * bound * _complex_array(draw, (1,))[0] / 2 ** 0.5
        faces.append((True, c, const, bound))
    # Re<z, c> < offset is the real row conj(c)
    faces += [(False, c.conj(), 0.0, draw(st.floats(0.2, 1.5))) for c in C[mods:mods + reals]]
    modulus, coeffs, consts, bounds = zip(*faces)
    d = ConvexPolyhedron(np.stack(coeffs), consts, bounds, sum(modulus), 2.0 * dim ** 0.5)
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


def _assert_chord_sum_between_the_length_and_the_trapezoid(d, x, y, inner):
    """The chord bound of the affine-disc integrand along [x, y] on the grid
    0, ``inner``, 1 is at least its closed-form integral and at most the
    trapezoid of the integrand on the same nodes.  As in the distance's own
    quadrature, an offset whose squared norm underflows is scaled by 2^-e
    (``metrics._moderated``), its nodes and sums by 2^e."""
    (w,), e = metrics._moderated((y - x)[None, :])
    e = 0 if e is None else int(e[0])
    ts = np.unique(np.concatenate([[0.0, 1.0], inner]))
    sec = d.section_distance_along(x, w[None, :], np.ldexp(ts, e)[None, :])[0]
    nw = np.linalg.norm(w)
    chord = math.ldexp(nw * metrics._chord_areas(np.diff(ts), sec[:-1], sec[1:]).sum(), e)
    trapezoid = math.ldexp(nw * (np.diff(ts) * (1.0 / sec[1:] + 1.0 / sec[:-1]) / 2.0).sum(), e)
    length, rounding = d.affine_disc_length(x, y - x)
    assert length - rounding <= chord <= trapezoid * (1.0 + 1e-14)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(polyhedron_segments(), st.lists(st.floats(0.0, 1.0), max_size=40))
def test_chord_sum_lies_between_the_length_and_the_trapezoid(case, inner):
    """On any grid of the segment, also one whose offset's squared norm
    underflows."""
    d, _, x, y, _ = case
    _assert_chord_sum_between_the_length_and_the_trapezoid(d, x, y, inner)


def test_chord_sum_lies_between_the_length_and_the_trapezoid_on_a_tiny_segment():
    """y - x = (0, 0, 1e-241 i), a segment ``polyhedron_segments`` draws: its
    squared norm underflows, and unscaled its section distances read 0."""
    d = polydisc([2.0, 2.0, 2.0])
    x = np.array([0.3, -0.2j, 0.0])
    y = x + np.array([0, 0, 1e-241j])
    assert np.any(y != x) and np.linalg.norm(y - x) ** 2 == 0.0
    _assert_chord_sum_between_the_length_and_the_trapezoid(d, x, y, [0.25, 0.5])


def _face_by_face(face, x, v):
    """(slack, rate, norm) of one drawn table row at x along v, from its own
    definition: the room left before the face's bound, the speed of its
    value along v, and the norm of its coefficients, each in the units of
    |c . z + const| < bound or Re(c . z + const) < bound."""
    modulus, c, const, bound = face
    c = np.asarray(c, dtype=complex)
    value = complex(np.dot(x, c)) + const
    return (bound - (abs(value) if modulus else value.real), abs(complex(np.dot(v, c))),
            float(np.linalg.norm(c)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(polyhedron_segments())
def test_polyhedron_face_table_matches_the_drawn_faces(case):
    d, faces, x, y, z = case
    assume(not all(modulus for modulus, *_ in faces))
    P, V = np.stack([x, y]), np.stack([y - x, z - y])
    # the oracles take |V[i]| as given: a direction whose squared norm
    # underflows is the caller's to rescale, as the metrics entry points do
    assume(np.all(np.linalg.norm(V, axis=1) > 0))

    def per_face(p, v):
        return [_face_by_face(f, p, v) for f in faces]

    margin = [min(s / w for s, _, w in per_face(p, p)) for p in P]
    section = [np.linalg.norm(v) * min(s / r if r > 0 else math.inf for s, r, _ in per_face(p, v))
               for p, v in zip(P, V)]
    shared = [np.linalg.norm(v) * min(s / r if r > 0 else math.inf for s, r, _ in per_face(x, v))
              for v in V]
    # the face-disc metric c r / (c^2 - |f|^2) = r / (s (2 - s / c)) of a
    # modulus face, and the half-plane metric r / (2 s) of a real face
    lower = [max(r / (s * (2.0 - s / f[3])) if f[0] else r / (2.0 * s)
                 for (s, r, _), f in zip(per_face(p, v), faces)) for p, v in zip(P, V)]
    # the unit ball's support of a face's coefficients is their norm
    inner = min(s / w for s, _, w in per_face(x, x))
    rel = dict(rtol=1e-13, atol=0)
    np.testing.assert_allclose(d.contains_margins(P), margin, **rel)
    np.testing.assert_allclose(d.section_distance_paired(P, V), section, **rel)
    np.testing.assert_allclose(d.section_distance_paired(x[None, :], V), shared, **rel)
    np.testing.assert_allclose(d.bracket_paired(P, V)[0], lower, **rel)
    np.testing.assert_allclose(d.inner_radius_exact(x, UnitBall(d.dim)), inner, **rel)


def _random_table(seed, dim, extra, balanced):
    """A face table like the benchmark's random polyhedra: ``dim`` spanning
    balanced modulus faces |M_k . z| < b_k, then ``extra`` faces, modulus
    faces with constants alternating with real faces, or only const-0
    modulus faces when ``balanced``."""
    rng = np.random.default_rng(seed)
    M = np.eye(dim) + 0.4 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    b = rng.uniform(0.8, 1.5, dim)
    mods, reals = [(M[k], 0.0, b[k]) for k in range(dim)], []
    for k in range(extra):
        c = 0.7 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        if balanced or k % 2 == 0:
            bound = rng.uniform(0.8, 2.0)
            const = 0.0 if balanced else 0.3 * bound * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            mods.append((c, const, bound))
        else:
            # Re<z, c> < offset is the real row conj(c)
            reals.append((c.conj(), 0.0, rng.uniform(0.5, 1.5) * np.linalg.norm(c)))
    coeffs, consts, bounds = zip(*(mods + reals))
    radius = np.linalg.norm(b) / np.linalg.svd(M, compute_uv=False)[-1]
    return ConvexPolyhedron(np.stack(coeffs), consts, bounds, len(mods), 1.01 * radius)


@pytest.mark.parametrize("dim, extra", [(3, 5), (4, 8), (4, 12)])
def test_tables_in_c3_and_c4_draw_interior_samples(dim, extra):
    """Rejection from the polydisc of the least product S keeps drawing on
    tables like the benchmark's C^3 and C^4 random polyhedra, where
    rejection from the box of ``coordinate_bounds`` starved on almost every
    one: 1000 interior samples on each of six tables."""
    for seed in range(6):
        d = _random_table(seed, dim, extra, False)
        Z = d.interior_samples(1000, SampleStream(3))
        assert Z.shape == (1000, dim) and np.all(d.contains_margins(Z) > 0)


def test_polydisc_rejection_samples_the_body_as_box_rejection_does():
    """Both are uniform on the body: on a C^2 table their means and second
    moments agree within 5 standard errors over 20,000 draws each."""
    d = _random_table(3, 2, 2, False)
    box = polydisc(d.coordinate_bounds())
    Z, kept, stream = d.interior_samples(20_000, SampleStream(8)), [], SampleStream(9)
    while sum(map(len, kept)) < 20_000:
        W = box.interior_samples(100_000, stream)
        kept.append(W[d.contains_margins(W) > 0])
    Z = [Z, np.vstack(kept)[:20_000]]
    for f in (lambda z: z.real, lambda z: z.imag, lambda z: np.abs(z) ** 2,
              lambda z: (z[:, :1].conj() * z[:, 1:]).real):
        a, b = f(Z[0]), f(Z[1])
        se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / len(a))
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5.0 * se)


def _table_rows(d, seed, rows=24):
    """Points at drawn fractions (up to 0.9) of the way from 0 to the
    boundary, the first at 0, and directions of drawn lengths."""
    stream = SampleStream(seed)
    U = stream.unit_directions(rows, d.dim)
    reach = np.minimum(d.section_distance_paired(np.zeros((1, d.dim)), U), 2.0)
    P = (stream.uniform(rows, 0.0, 0.9) * reach)[:, None] * U
    P[0] = 0.0
    V = stream.unit_directions(rows, d.dim) * stream.uniform(rows, 0.1, 3.0)[:, None]
    return P, V


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 4), st.booleans())
def test_random_polyhedron_face_disc_brackets(seed, dim, extra, balanced):
    """On tables of more than n faces, some of them products whose other
    faces are redundant: lower <= upper on every row, at the centre of
    balanced bodies too; dropping a face leaves a larger body, whose lower
    side stays below this body's upper side; and an affine twin answers the
    same bracket."""
    d = _random_table(seed, dim, extra, balanced)
    P, V = _table_rows(d, seed)
    lower, upper = d.bracket_paired(P, V)
    assert np.all((0 < lower) & (lower <= upper))
    shared = d.bracket_paired(P[:1], V)
    assert np.all(shared[0] <= shared[1])
    mc = d.modulus_count
    for k in range(d.bounds.size):
        keep = np.arange(d.bounds.size) != k
        # the kept real rows are already unit rows
        wider = ConvexPolyhedron(d.coeffs[keep], d.consts[keep], d.bounds[keep],
                                 mc - (k < mc), d.bounding_radius)
        # a product's closed form takes no allowance: at the centre, where it
        # is the gauge, it may round above this body's equal upper side, and
        # where this body is a product, its closed form may round below the
        # wider body's lower side, which the product's faces also bound
        slack = 4.0 * np.finfo(float).eps if wider.is_product or d.is_product else 0.0
        assert np.all(wider.bracket_paired(P, V)[0] <= upper * (1.0 + slack))
    twin = affine_twin(d)
    T = twin.map
    got = twin.bracket_paired(T(P), V @ T.linear.matrix.T)
    np.testing.assert_allclose(got[0], lower, rtol=1e-12)
    np.testing.assert_allclose(got[1], upper, rtol=1e-12)


@st.composite
def product_tables(draw):
    """(d, modulus): n faces with the independent rows of M = I + A / 2 in
    C^n, n = 1..4, modulus faces |f| < c and real faces Re f < b mixed, with
    constants, all with 0 inside; ``modulus`` flags the table's modulus
    faces, which come first."""
    dim = draw(st.integers(1, 4))
    M = np.eye(dim) + 0.5 * _complex_array(draw, (dim, dim))
    assume(np.linalg.cond(M) < 10.0)
    mc = draw(st.integers(0, dim))
    modulus = np.arange(dim) < mc
    consts = 0.5 * _complex_array(draw, (dim,))
    bounds = np.array([draw(st.floats(0.5, 2.0)) for _ in range(dim)])
    bounds += np.where(modulus, np.abs(consts), consts.real)
    # |M z + consts| < max(bounds) on every face bounds |z| on an all-modulus table
    radius = (np.sqrt(dim) * (bounds.max() + np.abs(consts).max())
              / np.linalg.svd(M, compute_uv=False)[-1]) if mc == dim else np.inf
    return ConvexPolyhedron(M, consts, bounds, mc, radius), modulus


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(product_tables(), st.integers(0, 2 ** 16))
def test_product_tables_answer_in_closed_form(table, seed):
    """n independent faces make a product: the bracket collapses onto the
    closed form, which ``kobayashi_metric``, ``metric_form`` and
    ``kobayashi_distance`` report as such; an all-modulus product is the
    affine image of a polydisc, whose metric and distance it matches."""
    d, modulus = table
    assert d.is_product
    P, V = _table_rows(d, seed)
    lower, upper = d.bracket_paired(P, V)
    exact = d.metric_paired(P, V)
    assert np.array_equal(lower, exact) and np.array_equal(upper, exact)
    for x, v, y in zip(P[:4], V[:4], P[4:8]):
        b = kobayashi_metric(d, x, v)
        assert (b.lower_method, b.upper_method) == ("closed-form", "closed-form")
        assert b.lower == b.upper
        form = d.metric_form(x)
        assert np.max(np.abs(form.matrix @ v)) == pytest.approx(b.value, rel=1e-13)
        dist = kobayashi_distance(d, x, y)
        assert (dist.lower_method, dist.lower) == ("closed-form", dist.upper)
    if modulus.all():
        # {|G z| < c}, G z = coeffs z + consts, is G^-1 of the polydisc of radii c
        Finv = np.linalg.inv(d.coeffs)
        image = AffineImage(polydisc(d.bounds), AffineMap(Finv, -Finv @ d.consts))
        np.testing.assert_allclose(image.metric_paired(P, V), exact, rtol=1e-12)
        for x, y in zip(P[:8], P[8:16]):
            assert kobayashi_distance(image, x, y).value == pytest.approx(
                kobayashi_distance(d, x, y).value, rel=1e-12)


@st.composite
def hidden_products(draw):
    """(plain, extra): the product plain of n modulus faces |M z + consts| < c
    in C^n, n = 1..4, with 0 inside, and 1 to 3 faces to add as (modulus,
    coeffs, const, sup), modulus faces first, sup the face's supremum on the
    product: |gamma| + sum_k |beta_k| c_k, or Re gamma + ... on a real face,
    for the face beta . (M z + consts) + gamma."""
    dim = draw(st.integers(1, 4))
    M = np.eye(dim) + 0.5 * _complex_array(draw, (dim, dim))
    assume(np.linalg.cond(M) < 10.0)
    c = np.array([draw(st.floats(0.5, 2.0)) for _ in range(dim)])
    consts = 0.5 * c * _complex_array(draw, (dim,)) / 2 ** 0.5
    radius = np.sqrt(dim) * 2.0 * c.max() / np.linalg.svd(M, compute_uv=False)[-1]
    plain = ConvexPolyhedron(M, consts, c, dim, radius)
    count = draw(st.integers(1, 3))
    modulus = sorted((draw(st.booleans()) for _ in range(count)), reverse=True)
    extra = []
    for is_mod, a in zip(modulus, _complex_array(draw, (count, dim))):
        assume(np.linalg.norm(a) > 1e-3)
        # a real face's const is 0, so that its supremum is above its value 0 at 0
        const = 0.3 * _complex_array(draw, (1,))[0] if is_mod else 0.0
        beta = np.linalg.solve(M.T, a)
        gamma = const - beta @ consts
        sup = (abs(gamma) if is_mod else gamma.real) + np.abs(beta) @ c
        extra.append((is_mod, a, const, sup))
    return plain, extra


def _with_faces(plain, extra, u):
    """plain with the faces of ``extra`` added, face j bounded by
    (1 + u[j]) times its supremum on plain."""
    mods, coeffs, consts, sups = zip(*extra)
    return ConvexPolyhedron(np.vstack([plain.coeffs, coeffs]),
                            np.concatenate([plain.consts, consts]),
                            np.concatenate([plain.bounds, (1.0 + np.asarray(u)) * sups]),
                            plain.dim + sum(mods), plain.bounding_radius)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(hidden_products(), st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=3),
       st.integers(0, 2 ** 16))
def test_a_table_with_redundant_faces_answers_as_its_product(case, u, seed):
    """Faces whose bounds exceed their suprema on a product by a factor of
    1 + u, u >= 1e-6, leave it a product.  The oracles that read the
    product's n faces (``metric_form``, ``automorphism``,
    ``interior_samples``) match the plain table bit for bit; those that take
    a maximum or minimum over all faces match it to 1e-13 relative, in
    closed form."""
    plain, extra = case
    d = _with_faces(plain, extra, u[:len(extra)])
    assert d.is_product
    P, V = _table_rows(plain, seed)
    for got, want in zip(d.bracket_paired(P, V), plain.bracket_paired(P, V)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    for x, v, y in zip(P[:4], V[:4], P[4:8]):
        got, want = kobayashi_metric(d, x, v), kobayashi_metric(plain, x, v)
        assert (got.lower_method, got.upper_method, got.lower) == (
            "closed-form", "closed-form", got.upper)
        assert got.value == pytest.approx(want.value, rel=1e-13)
        got, want = kobayashi_distance(d, x, y), kobayashi_distance(plain, x, y)
        assert (got.lower_method, got.upper_method, got.lower) == (
            "closed-form", "closed-form", got.upper)
        assert got.value == pytest.approx(want.value, rel=1e-13)
        assert d.metric_form(x).volume == plain.metric_form(x).volume
        Z = plain.interior_samples(3, SampleStream(seed))
        assert np.array_equal(d.automorphism(x, y)(Z), plain.automorphism(x, y)(Z))
    got, want = (metrics.distance_ball_sample(t, P[1], 0.5, 16, seed=seed) for t in (d, plain))
    np.testing.assert_allclose(got.points, want.points, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got.distance_upper, want.distance_upper, rtol=1e-13, atol=0.0)
    got, want = (t.interior_samples(50, SampleStream(seed)) for t in (d, plain))
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(hidden_products(), st.sampled_from([0.0, -1e-6, -1e-3, -0.1]),
       st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=2))
def test_a_tangent_or_binding_face_leaves_no_product(case, first, rest):
    """A face whose bound is its supremum on the product (u = 0, tangent) or
    below it (u < 0, binding) is not redundant: the table is no product and
    has no closed form."""
    plain, extra = case
    u = np.array([first] + rest)[:len(extra)]
    bounds = (1.0 + u) * np.array([e[3] for e in extra])
    assume(np.all(bounds > [abs(e[2]) for e in extra]))      # 0 stays inside
    d = _with_faces(plain, extra, u)
    assert not d.is_product
    P, V = _table_rows(d, 5)
    assert d.metric_paired(P, V) is None and d.metric_form(P[0]) is None


@st.composite
def closed_form_balls(draw):
    """(d, x): a product table (modulus, real or mixed faces), a ball or a
    half-plane product, or the affine twin of one, with a drawn interior
    point x."""
    kind = draw(st.sampled_from(["table", "ball", "upper", "left"]))
    if kind == "table":
        d = draw(product_tables())[0]
    else:
        dim = draw(st.integers(1, 3))
        d = UnitBall(dim) if kind == "ball" else halfplane_product(dim, kind)
    x = d.basepoint + draw(st.floats(0.0, 0.9)) * _complex_array(draw, (d.dim,))
    assume(d.contains(x) > 0)
    if draw(st.booleans()):
        d = affine_twin(d)
        x = d.map(x)
    return d, x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(closed_form_balls(), st.one_of(st.floats(0.05, 3.0), st.just(25.0)),
       st.sampled_from(["standard", "paper"]), st.integers(0, 2 ** 16))
def test_distance_ball_points_meet_the_bisection(case, r, convention, seed):
    """Every point is interior with its distance upper bound below its ray's
    target, that bound is the closed-form distance at the point's offset, and
    each ray's radius is the 60-step bisection's within 1e-12 relative, past
    the bisection's own final bracket.  At r = 25 tanh rounds the larger
    targets to 1, and the radius stops just inside the section."""
    d, x = case
    got = ball_against_bisection(d, x, r, 48, seed, convention)
    ball, scale = got.ball, distance_scale(convention)
    assert len(ball) == 48
    assert np.all(d.contains_margins(ball.points) > 0)
    assert np.all(ball.distance_upper < got.targets * scale)
    assert np.all(ball.distance_upper < r)
    np.testing.assert_array_equal(ball.distance_upper, got.D.distance_value(got.xD, got.W) * scale)
    points = got.xD + got.W
    np.testing.assert_array_equal(ball.points, d.map(points) if got.D is not d else points)
    assert np.all(np.abs(got.t - got.lo) <= 1e-12 * got.lo + (got.hi - got.lo))


@st.composite
def closed_form_volumes(draw):
    """(d, x, vol): a polydisc of drawn radii, a half-plane product or a
    ball, a drawn interior point x, and the volume of the indicatrix at x
    written out per kind."""
    kind = draw(st.sampled_from(["polydisc", "upper", "left", "ball"]))
    dim = draw(st.integers(1, 3))
    if kind == "polydisc":
        r = np.array([draw(st.floats(0.2, 5.0)) for _ in range(dim)])
        x = r * draw(st.floats(0.0, 0.95)) * _complex_array(draw, (dim,)) / math.sqrt(2.0)
        # a disc of radius (r^2 - |x|^2) / r per factor
        return polydisc(r), x, math.prod(math.pi * ((r * r - np.abs(x) ** 2) / r) ** 2)
    if kind == "ball":
        x = draw(st.floats(0.0, 0.95)) * _complex_array(draw, (dim,)) / math.sqrt(2.0 * dim)
        # pi^n / (n! det Q) with det Q = (1 - |x|^2)^-(n + 1)
        vol = math.pi ** dim / math.factorial(dim) * (1.0 - np.vdot(x, x).real) ** (dim + 1)
        return UnitBall(dim), x, vol
    depth = np.array([draw(st.floats(0.05, 5.0)) for _ in range(dim)])
    x = _complex_array(draw, (dim,))
    x = x.real + 1j * depth if kind == "upper" else -depth + 1j * x.imag
    # a disc of radius twice the distance to the boundary line per factor
    return halfplane_product(dim, kind), x, math.prod(math.pi * (2.0 * depth) ** 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(closed_form_volumes(), st.integers(0, 2 ** 16))
def test_indicatrix_volume_is_the_closed_form(case, seed):
    """On products, the ball and a random affine image of each the volume is
    ``MetricForm.volume``, drawing no direction: the written-out formula to
    1e-12 relative, |det M|^2 times it on the image of M, and within 4 se of
    the Monte Carlo mean of 20,000 sampled radii."""
    d, x, vol = case
    rng = np.random.default_rng(seed)
    M = np.eye(d.dim) + 0.25 * (rng.normal(size=(d.dim, d.dim))
                                + 1j * rng.normal(size=(d.dim, d.dim)))
    twin = AffineImage(d, AffineMap(M, rng.normal(size=d.dim) + 0j))
    det_sq = abs(np.linalg.det(M)) ** 2
    got = []
    for dom, z, want in ((d, x, vol), (twin, twin.map(x), det_sq * vol)):
        est = metrics.indicatrix_volume(dom, z, seed=seed)
        assert (est.samples, est.se, est.lower, est.upper) == (0, 0.0, est.value, est.value)
        assert est.value == pytest.approx(want, rel=1e-12)
        r = metrics.indicatrix(dom, z, 20_000, seed=seed).radius_lower
        mc = math.pi ** dom.dim / math.factorial(dom.dim) * r ** (2 * dom.dim)
        assert abs(est.value - mc.mean()) <= 4.0 * mc.std(ddof=1) / math.sqrt(r.size) + 1e-12 * want
        got.append(est.value)
    assert got[1] == pytest.approx(det_sq * got[0], rel=1e-12)
