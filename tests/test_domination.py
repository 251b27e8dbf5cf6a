"""Distance-ball domination: half-plane sharpness and the convex factor 2."""

import math

import numpy as np
import pytest

from invmet import (
    apollonius_disc,
    halfplane_product,
    kobayashi_distance,
    lambda_halfplane,
    verify_convex_domination,
    verify_halfplane_domination,
    zoo_domain,
)
from invmet.errors import UnboundedValueError


def test_lambda_values_and_conventions():
    t = math.tanh(0.5)
    assert lambda_halfplane(0.5) == pytest.approx(t / (1 - t), rel=1e-15)
    # halving the tanh argument is the same as switching conventions
    assert lambda_halfplane(1.0, "paper") == pytest.approx(lambda_halfplane(0.5), rel=1e-15)
    assert lambda_halfplane(0.0) == 0.0
    with pytest.raises(UnboundedValueError):
        lambda_halfplane(math.inf)


def test_lambda_linearizes_for_small_radii():
    for r in (1e-4, 1e-3, 1e-2):
        lam = lambda_halfplane(r)
        assert abs(lam / math.tanh(r) - 1) < 2e-2
    assert lambda_halfplane(1e-8) == pytest.approx(1e-8, rel=1e-6)


def test_apollonius_disc_is_the_distance_ball():
    hp = halfplane_product(1)
    for b in (0.1, 1.0, 10.0):
        for r in (0.25, 1.0):
            c, rho = apollonius_disc(b, r)
            top = kobayashi_distance(hp, [1j * b], [1j * (c + rho)])
            bot = kobayashi_distance(hp, [1j * b], [1j * (c - rho)])
            assert top.value == pytest.approx(r, rel=1e-9)
            assert bot.value == pytest.approx(r, rel=1e-9)
    # paper convention shrinks the same ball
    c_std, _ = apollonius_disc(1.0, 1.0, "standard")
    c_pap, _ = apollonius_disc(1.0, 1.0, "paper")
    assert c_pap < c_std


def test_halfplane_sharpness_hits_lambda_exactly():
    for conv in ("standard", "paper"):
        prof = verify_halfplane_domination((0.1, 1.0, 10.0), (0.25, 0.5, 1.0, 2.0),
                                           samples=512, seed=0, convention=conv)
        assert prof.passed
        assert not prof.warnings
        for cell in prof.cells:
            lam = lambda_halfplane(cell.radius, conv)
            assert cell.lambda_value == pytest.approx(lam, rel=1e-15)
            # the deterministic top-of-circle point attains lambda(r)
            assert cell.worst_gauge == pytest.approx(lam, rel=1e-9)
    d = prof.to_dict()
    assert d["convention"] == "paper"
    assert len(d["cells"]) == 12


def test_convex_domination_factor_two(pd2):
    xs = [np.zeros(2, complex), np.array([0.3 + 0.1j, -0.2 + 0j])]
    prof = verify_convex_domination(pd2, xs, (0.25, 0.5, 1.0), samples=400, seed=0)
    assert prof.passed
    assert prof.worst_ratio <= 1.0 + 1e-6
    for cell in prof.cells:
        assert cell.claimed_bound == pytest.approx(2 * cell.lambda_value, rel=1e-15)
        assert cell.worst_gauge <= cell.claimed_bound * (1 + 1e-6)
        assert cell.samples == 400


def test_convex_domination_off_center_polyhedron(three_face):
    xs = [np.array([0.2 + 0j, -0.3j])]
    prof = verify_convex_domination(three_face, xs, (0.5,), samples=300, seed=1)
    assert prof.passed
    assert 0 < prof.worst_ratio <= 1.0 + 1e-6

