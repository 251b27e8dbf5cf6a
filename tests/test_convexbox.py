"""Rotated-box containment cascade for symmetric convex bodies."""

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
from invmet import config
from invmet.errors import DegenerateInputError, LemmaViolationError, NotInteriorError

SQUARE = [[1, 1], [1, -1], [-1, -1], [-1, 1]]


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


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_the_box_holds_the_body_and_half_of_it_does_not(dim):
    """The box holds every vertex; at half its radii the nearest facet's
    vertex sticks out of the first side by at least r_1 / 2."""
    body = random_symmetric_polytope(dim, 2 * dim + 1, SampleStream(90 + dim))
    bound = box_lemma_bound(body)
    ok, slack, witness = brute_force_containment(body, bound.radii, bound.rotation)
    assert ok and slack == bound.slack and witness is None
    ok, slack, witness = brute_force_containment(body, 0.5 * bound.radii, bound.rotation)
    assert not ok and slack <= -0.5 * bound.radii[0] + 1e-12
    assert any(np.array_equal(witness, v) for v in body.vertices)


def test_a_failed_containment_check_raises_with_the_worst_vertex(monkeypatch):
    """Under an allowance that asks more slack than the box has, the one-body
    call raises, with the vertex of least slack as witness."""
    body = random_symmetric_polytope(3, 7, SampleStream(5))
    bound = box_lemma_bounds([body])[0]
    monkeypatch.setattr(config, "CONTAINMENT_SLACK", -bound.slack - 1e-3)
    with pytest.raises(LemmaViolationError) as ei:
        box_lemma_bound(body)
    witness = ei.value.witness
    assert any(np.array_equal(witness, v) for v in body.vertices)
    slack = np.min(bound.radii - np.abs(bound.rotation @ witness))
    assert slack == pytest.approx(bound.slack, abs=1e-12)


def test_slope_bound_on_random_planar_bodies():
    stream = SampleStream(11)
    for k in range(50):
        body = random_symmetric_polytope(2, int(stream.integers(4, 9)),
                                         stream.fork(k))
        slope, bound = slope_check(body)
        assert slope <= bound + 1e-9


def test_slope_check_is_planar_only():
    with pytest.raises(DegenerateInputError):
        slope_check(random_symmetric_polytope(3, 6, SampleStream(1)))


def test_random_polytopes_contain_origin_symmetrically():
    stream = SampleStream(23)
    body = random_symmetric_polytope(4, 10, stream)
    V = body.vertices
    for v in V:
        assert np.min(np.linalg.norm(V + v, axis=1)) < 1e-9
    assert np.all(body._offsets > 0)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_a_stacked_cascade_matches_each_one_body_call(dim, seeds, rnd):
    """Bodies of different facet counts, stacked in a random order, each get
    the box of their own one-body call."""
    bodies = [random_symmetric_polytope(dim, dim + 2 + s % (3 * dim + 3), SampleStream(s))
              for s in seeds]
    rnd.shuffle(bodies)
    for body, stacked in zip(bodies, box_lemma_bounds(bodies)):
        alone = box_lemma_bound(body)
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
