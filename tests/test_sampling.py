"""Direction draws: the plain stream's arithmetic, the per-seed memo of
``root_directions`` and the table of first draws, which must return the
plain stream's bits; and the row norms of ``row_norms`` and
``vector_norms``, which must be ``np.linalg.norm``'s."""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmet import domains, metrics, sampling, zoo_domain
from invmet.errors import DegenerateInputError
from invmet.sampling import SampleStream, root_directions, row_norms, vector_norms
from invmet.zoo import affine_twin

from test_domains import _gauge_ellipsoid, _random_polyhedron


def _uncached(seed, path, count, dim):
    """The draw of a stream whose generator is built before it, which the
    table of first draws never serves."""
    stream = SampleStream(seed, path)
    stream._rng
    return stream.unit_directions(count, dim)


def _plain(seed, count, dim):
    return _uncached(seed, (), count, dim)


@pytest.mark.parametrize("dim", range(1, 10))
@pytest.mark.parametrize("count", [1, 5, 4096, 4099])
def test_unit_directions_round_as_dividing_by_the_row_norm(dim, count):
    # the draw and the norm as they read before the blocked, in-place version
    rng = np.random.default_rng(np.random.SeedSequence(4))
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    U = SampleStream(4).unit_directions(count, dim)
    assert np.array_equal(U, z / np.linalg.norm(z, axis=1, keepdims=True))


def test_root_directions_equal_the_plain_stream_growing_shrinking_and_switching():
    requests = [(5, 10, 2), (5, 3, 1), (5, 5000, 3), (5, 7, 4), (6, 64, 2), (5, 64, 2),
                (6, 9000, 4), (6, 1, 1), (5, 9000, 4), (5, 4097, 2), (5, 0, 2)]
    for seed, count, dim in requests:
        assert np.array_equal(root_directions(seed, count, dim), _plain(seed, count, dim))


def test_root_directions_above_the_bound_draw_the_plain_stream():
    count = sampling._ROOT_NORMALS_MAX // 2 + 1
    U = root_directions(8, count, 1)
    assert np.array_equal(U, _plain(8, count, 1))


def test_returned_stack_is_the_callers_own():
    U = root_directions(9, 50, 3)
    U[:] = 0.0
    assert np.array_equal(root_directions(9, 50, 3), _plain(9, 50, 3))


class _ZeroingGenerator:
    """A generator's normals, with the entries at the given positions of its
    one sequence set to 0, however its draws are split."""

    def __init__(self, rng, zeros):
        self.rng, self.zeros, self.pos = rng, zeros, 0

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        flat = out.reshape(-1)
        for k in self.zeros:
            if self.pos <= k < self.pos + flat.size:
                flat[k - self.pos] = 0.0
        self.pos += flat.size
        return out


def test_a_zero_row_falls_back_to_the_plain_streams_resampling(monkeypatch):
    count, dim = 20, 2
    # row 3: its real parts, then its imaginary parts count * dim further on
    zeros = [6, 7, 46, 47]

    class ZeroingStream(SampleStream):
        @functools.cached_property
        def _rng(self):
            return _ZeroingGenerator(np.random.default_rng(np.random.SeedSequence(self.seed)),
                                     zeros)

    monkeypatch.setattr(sampling, "SampleStream", ZeroingStream)
    monkeypatch.setattr(sampling, "_root_memo", None)
    monkeypatch.setattr(sampling, "_first_draws", {})
    U = root_directions(11, count, dim)
    expected = ZeroingStream(11).unit_directions(count, dim)
    assert np.array_equal(U, expected)
    np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)


def test_threads_drawing_at_once_each_get_their_seeds_draws():
    # six threads grow one seed's normals while two, on other seeds, keep
    # switching the memo away: more threads than cores
    sizes = [(100 * 2 ** k, 2) for k in range(8)]
    seeds = [20] * 6 + [21, 22]
    expected = {(s, c, d): _plain(s, c, d) for s in seeds for c, d in sizes}
    wrong = []

    def work(seed):
        for _ in range(40):
            for c, d in sizes:
                if not np.array_equal(root_directions(seed, c, d), expected[seed, c, d]):
                    wrong.append((seed, c, d))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("name,x", [("three_face", [0.1, -0.2j]), ("ball2", [0.3, 0.1j]),
                                    ("turned_ball", [0.1, 0.2]), ("disc", [0.5j])])
def test_indicatrix_volume_and_ball_sample_equal_the_plain_stream_path(monkeypatch, name, x):
    d = zoo_domain(name)
    runs = []
    for _ in range(2):
        s = metrics.indicatrix(d, x, 300, seed=3)
        v = metrics.indicatrix_volume(d, x, 2000, seed=3)
        b = metrics.distance_ball_sample(d, x, 0.4, 60, seed=3)
        runs.append((s.directions, s.gauge_lower, s.gauge_upper,
                     np.array([v.value, v.se, v.lower, v.upper]), b.points, b.distance_upper))
        monkeypatch.setattr(metrics, "root_directions", _plain)
    for memo, plain in zip(*runs):
        assert np.array_equal(memo, plain)


def test_a_negative_seed_is_bad_input():
    with pytest.raises(DegenerateInputError, match="seed must be at least 0"):
        SampleStream(-3)
    with pytest.raises(DegenerateInputError):
        root_directions(-1, 4, 2)


@pytest.mark.parametrize("path", [(), (1,), (0, 5), (1, 63)])
def test_first_draws_equal_a_fresh_generators_draw(monkeypatch, path):
    monkeypatch.setattr(sampling, "_first_draws", {})
    for count, dim in [(1, 1), (8, 2), (16, 4), (64, 1), (9, 7), (13, 5), (200, 3), (0, 2)]:
        want = _uncached(3, path, count, dim)
        for _ in range(2):   # drawn and kept, then served from the table
            assert np.array_equal(SampleStream(3, path).unit_directions(count, dim), want)
        kept = (3, path, count, dim) in sampling._first_draws
        assert kept == (count * dim <= sampling._FIRST_DRAW_MAX)


@pytest.mark.parametrize("calls", [
    [("unit", 8, 2)] * 3,               # distance_lower_bound's [stream] * 3
    [("unit", 8, 2), ("uniform", 8)],   # interior_samples
    [("unit", 4, 3), ("unit", 40, 2), ("normal", 5), ("unit", 4, 3)],
])
def test_a_stream_continues_after_a_served_first_draw(monkeypatch, calls):
    monkeypatch.setattr(sampling, "_first_draws", {})

    def run(stream):
        out = []
        for kind, *size in calls:
            out.append(stream.unit_directions(*size) if kind == "unit"
                       else getattr(stream, kind)(*size))
        return out

    plain = SampleStream(4, (2,))
    plain._rng
    want = run(plain)
    SampleStream(4, (2,)).unit_directions(*calls[0][1:])   # kept
    served = SampleStream(4, (2,))
    for got, expected in zip(run(served), want):
        assert np.array_equal(got, expected)
    assert served._skip == 2 * calls[0][1] * calls[0][2]


def test_a_first_draw_that_resampled_a_zero_row_is_not_kept(monkeypatch):
    count, dim = 20, 2
    zeros = [6, 7, 46, 47]   # row 3's real, then imaginary parts

    class ZeroingStream(SampleStream):
        @functools.cached_property
        def _rng(self):
            return _ZeroingGenerator(np.random.default_rng(
                np.random.SeedSequence(self.seed, spawn_key=self.path)), zeros)

    monkeypatch.setattr(sampling, "_first_draws", {})
    U = ZeroingStream(12, (1,)).unit_directions(count, dim)
    np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)
    assert sampling._first_draws == {}
    assert np.array_equal(SampleStream(12, (1,)).unit_directions(count, dim),
                          _uncached(12, (1,), count, dim))


def test_the_table_holds_at_most_its_bound(monkeypatch):
    monkeypatch.setattr(sampling, "_first_draws", {})
    # the bounds unit_directions documents
    assert (sampling._FIRST_DRAW_MAX, sampling._FIRST_DRAWS_MAX) == (64, 4096)
    most = sampling._FIRST_DRAWS_MAX
    for i in range(most + 10):
        SampleStream(6, (i,)).unit_directions(1, 2)
        assert len(sampling._first_draws) <= most
    # cleared when full, then refilled by the last ten
    assert len(sampling._first_draws) == 10
    assert np.array_equal(SampleStream(6, (most + 9,)).unit_directions(1, 2),
                          _uncached(6, (most + 9,), 1, 2))


def test_writing_into_a_served_draw_does_not_change_the_next(monkeypatch):
    monkeypatch.setattr(sampling, "_first_draws", {})
    want = _uncached(7, (3,), 8, 2)
    for _ in range(3):
        U = SampleStream(7, (3,)).unit_directions(8, 2)
        assert np.array_equal(U, want)
        U[:] = 0.0


def _two_draws(seed, path, count, dim):
    stream = SampleStream(seed, path)
    stream._rng
    return stream.unit_directions(count, dim), stream.unit_directions(count, dim)


def test_threads_drawing_first_draws_at_once_get_the_plain_bits(monkeypatch):
    # a table of eight draws, so that the threads also keep clearing it
    monkeypatch.setattr(sampling, "_first_draws", {})
    monkeypatch.setattr(sampling, "_FIRST_DRAWS_MAX", 8)
    keys = [(seed, (i,), count, 2) for seed in (30, 31) for i in range(6) for count in (4, 8)]
    expected = {key: _two_draws(*key) for key in keys}
    wrong = []

    def work(offset):
        for _ in range(30):
            for key in keys[offset:] + keys[:offset]:
                stream = SampleStream(*key[:2])
                got = stream.unit_directions(*key[2:]), stream.unit_directions(*key[2:])
                if not all(map(np.array_equal, got, expected[key])):
                    wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(3 * k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_repeated_gauge_body_brackets_build_no_generator(monkeypatch):
    d = _gauge_ellipsoid()
    x, v = np.array([0.2 - 0.1j, 0.3j]), np.array([0.6, -0.2 + 0.5j])
    first = metrics.indicatrix(d, x, 64, seed=5), metrics.kobayashi_metric(d, x, v, seed=5)
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    sample, bound = metrics.indicatrix(d, x, 64, seed=5), metrics.kobayashi_metric(d, x, v, seed=5)
    assert built == []
    for got, want in [(sample.directions, first[0].directions),
                      (sample.gauge_lower, first[0].gauge_lower),
                      (sample.gauge_upper, first[0].gauge_upper),
                      ((bound.lower, bound.upper), (first[1].lower, first[1].upper))]:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cols", range(1, 9))
@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_vector_norms_are_numpys_one_row_norms(cols, field, order):
    # entries over e^-30 to e^30, so that sums in another order round apart
    rng = np.random.default_rng(cols)

    def draw():
        return rng.standard_normal((3000, cols)) * np.exp(rng.uniform(-30, 30, (3000, cols)))

    z = draw() + 1j * draw() if field == "complex" else draw()
    z[[0, 17]] = 0.0
    z[5] *= 1e-160   # squares below the least normal
    z = np.asarray(z, order=order)
    want = np.array([np.linalg.norm(row) for row in z])
    assert np.array_equal(vector_norms(z), want)
    assert vector_norms(z[:0]).shape == (0,)


# Entries planted into a stack: a row of zeros, or one entry subnormal, whose
# square overflows to inf, inf, or nan.
_PLANTS = ("zero_row", "subnormal", "overflow", "inf", "nan")


# numpy sums a row left to right below 8 columns and pairwise from 8
@pytest.mark.parametrize("cols", range(1, 13))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rows=st.sampled_from([0, 1, 63, 64, 4095, 4096, 4097, 2 * 4096 + 3]),
       field=st.sampled_from(["complex", "real"]), order=st.sampled_from("CF"),
       seed=st.integers(0, 2 ** 32 - 1), plants=st.lists(st.sampled_from(_PLANTS), max_size=6))
def test_row_norms_are_numpys_bit_for_bit(cols, rows, field, order, seed, plants):
    # entries over 40 binades, so that a sum taken in another order rounds apart
    rng = np.random.default_rng(seed)

    def draw():
        return rng.standard_normal((rows, cols)) * 2.0 ** rng.integers(-20, 20, (rows, cols))

    z = draw() + 1j * draw() if field == "complex" else draw()
    for plant in plants if rows else ():
        i, k = rng.integers(rows), rng.integers(cols)
        if plant == "zero_row":
            z[i] = 0.0
        else:
            z[i, k] = {"subnormal": 3e-320, "overflow": -1e200, "inf": np.inf,
                       "nan": np.nan}[plant]
    z = np.asarray(z, order=order)
    with np.errstate(all="ignore"):
        assert np.array_equal(row_norms(z), np.linalg.norm(z, axis=1), equal_nan=True)


def _outputs(d, x):
    """The direction-stack outputs of d at x: indicatrix rows, the volume,
    distance-ball points, and section distances from x and from points up
    to 0.9 of the way from 0 to the boundary."""
    s = metrics.indicatrix(d, x, 5000, seed=2)
    v = metrics.indicatrix_volume(d, x, 5000, seed=2)
    b = metrics.distance_ball_sample(d, x, 0.4, 3000, seed=2)
    stream = SampleStream(2)
    U, V = stream.unit_directions(4500, d.dim), stream.unit_directions(4500, d.dim)
    reach = d.section_distance_paired(np.zeros((1, d.dim)), U)
    P = (stream.uniform(4500, 0.0, 0.9) * reach)[:, None] * U
    return (s.directions, s.gauge_lower, s.gauge_upper, np.array([v.value, v.se, v.lower, v.upper]),
            b.points, b.distance_upper, reach, d.section_distance_paired(P, V),
            d.section_distance_paired(x[None, :], V))


@pytest.mark.parametrize("make,x", [
    (lambda: zoo_domain("three_face"), [0.1, -0.2j]),
    (lambda: affine_twin(zoo_domain("three_face")), [0.2, 0.1]),
    (lambda: _random_polyhedron(29, dim=4), [0.1, 0.05j, -0.1, 0.0]),
    (lambda: zoo_domain("ball2"), [0.3, 0.1j]),
], ids=["three_face", "three_face-twin", "table-c4", "ball2"])
def test_outputs_equal_those_of_numpys_row_norms(monkeypatch, make, x):
    d, x = make(), np.asarray(x, dtype=complex)
    live = _outputs(d, x)
    for module in (sampling, domains, metrics):
        monkeypatch.setattr(module, "row_norms", lambda z: np.linalg.norm(z, axis=1))
    for got, want in zip(live, _outputs(d, x)):
        assert np.array_equal(got, want)
