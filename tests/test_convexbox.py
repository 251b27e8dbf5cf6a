"""Rotated-box containment cascade for symmetric convex bodies."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmet import (
    SampleStream,
    SymmetricBody,
    box_lemma_bound,
    box_lemma_bounds,
    brute_force_containment,
    random_symmetric_polytope,
    slope_check,
    slope_checks,
)
from invmet.errors import DegenerateInputError, NotInteriorError

SQUARE = [[1, 1], [1, -1], [-1, -1], [-1, 1]]
CROSS = [[1, 0], [0, 1], [-1, 0], [0, -1]]


def test_vertex_body_rejects_a_flat_hull():
    with pytest.raises((DegenerateInputError, NotInteriorError)):
        SymmetricBody(vertices=[[1, 0], [-1, 0], [1, 1e-15], [-1, -1e-15]])


def test_vertex_body_is_the_hull_of_the_points_and_their_mirror_images():
    P = SampleStream(4).normal((6, 3))
    half = SymmetricBody(vertices=P)
    whole = SymmetricBody(vertices=np.vstack([P, -P]))
    np.testing.assert_array_equal(half.vertices, np.vstack([P, -P]))
    np.testing.assert_allclose(box_lemma_bound(half).radii,
                               box_lemma_bound(whole).radii, rtol=0, atol=1e-12)


def test_support_and_radial_on_the_square():
    body = SymmetricBody(vertices=SQUARE)
    np.testing.assert_allclose(body.support_value([[1, 0], [0, 1]]), [1.0, 1.0])
    assert body.support_value([[1 / math.sqrt(2), 1 / math.sqrt(2)]])[0] == pytest.approx(math.sqrt(2))
    rho = body.radial(np.array([[1.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2)]]))
    np.testing.assert_allclose(rho, [1.0, math.sqrt(2)], rtol=1e-12)


def test_box_lemma_square_doubling():
    body = SymmetricBody(vertices=SQUARE)
    bb = box_lemma_bound(body)
    np.testing.assert_allclose(bb.radii, [1.0, 2.0], rtol=1e-9)
    np.testing.assert_allclose(bb.radii, bb.base_distances * [1.0, 2.0], rtol=1e-9)
    ok, slack, witness = brute_force_containment(body, bb.radii, bb.rotation)
    assert ok and slack >= -1e-9 and witness is None
    assert bb.slack == slack


def test_box_lemma_doubles_per_level():
    body = random_symmetric_polytope(3, 7, SampleStream(5))
    bb = box_lemma_bound(body)
    np.testing.assert_allclose(bb.radii, bb.base_distances * 2.0 ** np.arange(3),
                               rtol=1e-12)
    ok, slack, _ = brute_force_containment(body, bb.radii, bb.rotation)
    assert ok and slack >= -1e-9
    assert bb.slack == slack


def test_halving_first_radius_breaks_containment():
    body = SymmetricBody(vertices=SQUARE)
    bb = box_lemma_bound(body)
    shrunk = bb.radii * np.array([0.45, 1.0])
    ok, slack, witness = brute_force_containment(body, shrunk, bb.rotation)
    assert not ok and slack < 0 and witness is not None


def test_slope_bound_on_random_planar_bodies():
    stream = SampleStream(11)
    for k in range(50):
        body = random_symmetric_polytope(2, int(stream.integers(4, 9)),
                                         stream.fork(k))
        slope, bound = slope_check(body)
        assert slope <= bound + 1e-9
        if k % 10 == 0:
            # the same body through its support function: the check runs on
            # the oracle's half-space cloud
            oracle = SymmetricBody(support=lambda u, V=body.vertices: float(np.max(V @ u)),
                                   dim=2, seed=k)
            slope, bound = slope_check(oracle)
            assert slope <= bound + 1e-9


def test_slope_check_is_planar_only():
    with pytest.raises(DegenerateInputError):
        slope_check(random_symmetric_polytope(3, 6, SampleStream(1)))


def test_support_oracle_body_matches_vertex_body():
    vbody = SymmetricBody(vertices=SQUARE)
    obody = SymmetricBody(support=lambda u: float(abs(u[0]) + abs(u[1])), dim=2)
    # oracle body is the square again: h(u) = |u1| + |u2|
    U = SampleStream(2).unit_directions(32, 2, field="real")
    np.testing.assert_allclose(obody.support_value(U), vbody.support_value(U),
                               rtol=1e-9)
    bb = box_lemma_bound(obody)
    ok, slack, _ = brute_force_containment(obody, bb.radii, bb.rotation,
                                           samples=2000)
    assert ok


def test_random_polytopes_contain_origin_symmetrically():
    stream = SampleStream(23)
    body = random_symmetric_polytope(4, 10, stream)
    V = body.vertices
    for v in V:
        assert np.min(np.linalg.norm(V + v, axis=1)) < 1e-9
    _, b = body.halfspace_data()
    assert np.all(b > 0)


@functools.cache
def _oracle(dim):
    """A support-oracle body per dimension, the hull of a random polytope's
    vertices known only through its support function, and its one-body box."""
    V = random_symmetric_polytope(dim, 2 * dim + 1, SampleStream(90 + dim)).vertices
    body = SymmetricBody(support=lambda u: float(np.max(V @ u)), dim=dim, seed=dim)
    return body, box_lemma_bound(body, seed=3)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_a_stacked_cascade_matches_each_one_body_call(dim, seeds, rnd):
    """Bodies of different facet counts and one support-oracle body, stacked
    in a random order, each get the box of their own one-body call."""
    oracle, oracle_bound = _oracle(dim)
    bodies = [random_symmetric_polytope(dim, dim + 2 + s % (3 * dim + 3), SampleStream(s))
              for s in seeds] + [oracle]
    rnd.shuffle(bodies)
    for body, stacked in zip(bodies, box_lemma_bounds(bodies, seed=3)):
        alone = oracle_bound if body is oracle else box_lemma_bound(body, seed=3)
        for field in ("radii", "rotation", "base_distances", "slack"):
            assert np.array_equal(getattr(stacked, field), getattr(alone, field)), field
    if dim == 2:
        assert slope_checks(bodies) == [slope_check(body) for body in bodies]


def test_a_stack_with_one_degenerate_body_raises():
    bodies = [random_symmetric_polytope(3, 6 + k, SampleStream(k)) for k in range(4)]
    box_lemma_bounds(bodies)
    # the origin on a facet plane of one body: its first level has r_1 = 0
    offsets = bodies[2]._offsets.copy()
    offsets[1] = 0.0
    bodies[2]._offsets = offsets
    with pytest.raises(DegenerateInputError, match="lost the origin"):
        box_lemma_bounds(bodies)


def _radial_in_one_product(body, U):
    """``radial`` as one (directions, rows) product over every direction."""
    t = np.atleast_2d(np.asarray(U, dtype=float)) @ body._normals.T
    np.maximum(t, 1e-15, out=t)
    return np.divide(body._offsets, t, out=t).min(axis=1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_radial_in_blocks_keeps_the_bits_of_one_product(monkeypatch, dim):
    """Taking an oracle body's directions in blocks moves no bit of its radii,
    its box or its containment checks, passing and failing."""
    body, _ = _oracle(dim)
    U = SampleStream(5).unit_directions(10_000, dim, field="real")
    for rows in (1, 2, 255, 257, 511, 513, 10_000):
        assert np.array_equal(body.radial(U[:rows]), _radial_in_one_product(body, U[:rows]))

    def run():
        bound = box_lemma_bounds([body], seed=3)[0]
        checks = [brute_force_containment(body, s * bound.radii, bound.rotation, seed=3)
                  for s in (1.0, 0.5)]
        return [bound.radii, bound.rotation, bound.base_distances, bound.slack] + [
            np.asarray(v) for check in checks for v in check if v is not None]

    blocked = run()
    monkeypatch.setattr(SymmetricBody, "radial", _radial_in_one_product)
    whole = run()
    assert len(blocked) == len(whole) == 9
    assert all(np.array_equal(a, b) for a, b in zip(blocked, whole))


def test_an_oracle_containment_check_holds_one_block_of_directions():
    """10,000 directions against a 4096-row half-space cloud: the whole
    product would take 328 MB, one block about 16 MB at most."""
    body, bound = _oracle(4)
    tracemalloc.start()
    try:
        brute_force_containment(body, bound.radii, bound.rotation, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
