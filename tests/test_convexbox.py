"""Rotated-box containment cascade for symmetric convex bodies."""

import math

import numpy as np
import pytest

from invmet import (
    SampleStream,
    SymmetricBody,
    box_lemma_bound,
    brute_force_containment,
    random_symmetric_polytope,
    slope_check,
)
from invmet.errors import DegenerateInputError, NotInteriorError

SQUARE = [[1, 1], [1, -1], [-1, -1], [-1, 1]]
CROSS = [[1, 0], [0, 1], [-1, 0], [0, -1]]


def test_vertex_body_requires_symmetry():
    with pytest.raises(DegenerateInputError):
        SymmetricBody(vertices=[[1, 1], [1, -1], [-1, 1]])
    with pytest.raises((DegenerateInputError, NotInteriorError)):
        SymmetricBody(vertices=[[1, 0], [-1, 0], [1, 1e-15], [-1, -1e-15]])


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
