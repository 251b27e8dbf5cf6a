"""Direction draws: the plain stream's arithmetic and the per-seed memo of
``root_directions``, which must return the plain stream's bits."""

import functools
import sys
import threading

import numpy as np
import pytest

from invmet import metrics, sampling, zoo_domain
from invmet.sampling import SampleStream, root_directions


def _plain(seed, count, dim):
    return SampleStream(seed).unit_directions(count, dim)


@pytest.mark.parametrize("dim", range(1, 10))
@pytest.mark.parametrize("count", [1, 5, 4096, 4099])
def test_unit_directions_round_as_dividing_by_the_row_norm(dim, count):
    # the draw and the norm as they read before the blocked, in-place version
    rng = np.random.default_rng(np.random.SeedSequence(4))
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    U = SampleStream(4).unit_directions(count, dim)
    assert np.array_equal(U, z / np.linalg.norm(z, axis=1, keepdims=True))
    rng = np.random.default_rng(np.random.SeedSequence(4))
    r = rng.standard_normal((count, dim))
    R = SampleStream(4).unit_directions(count, dim, field="real")
    assert np.array_equal(R, r / np.linalg.norm(r, axis=1, keepdims=True))


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
