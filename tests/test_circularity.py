"""Squeeze certificates, circularity bounds, and corner asymptotics."""

import io

import numpy as np
import pytest

from invmet import (
    UnitBall,
    asymptotics_sweep,
    barth_check,
    circularity_lower_bound,
    config,
    polydisc,
    polyhedral_pipeline,
    squeeze_lower_bound,
    zoo_domain,
)
from invmet.circularity import SqueezeCertificate
from invmet.domains import ConvexPolyhedron
from invmet.errors import CertificateError, ScheduleError, UnsupportedKindError
from invmet.zoo import balanced_two_face, polydisc_as_polyhedron


def test_barth_vanishes_on_circular_models():
    assert barth_check(zoo_domain("disc"), 256) <= 1e-9
    assert barth_check(zoo_domain("polydisc2"), 256) <= 1e-9
    assert barth_check(zoo_domain("ball2"), 256) <= 1e-9


def test_barth_vanishes_at_the_centre_of_balanced_polyhedra(three_face):
    """By Barth the metric at the centre of a balanced convex body is its
    gauge: the face-disc lower side of ``three_face`` (not a product) meets
    its upper side there, and the product ``balanced`` answers in closed
    form."""
    assert barth_check(three_face, 256) <= config.BARTH_MODEL_TOL
    assert barth_check(balanced_two_face(), 256) <= config.BARTH_MODEL_TOL


def test_three_face_identity_certificate(three_face):
    cert = squeeze_lower_bound(three_face, [0, 0], polydisc([1.0, 1.0]))
    assert cert.inner_r == pytest.approx(0.75, abs=1e-12)
    assert cert.outer_R == pytest.approx(1.0, abs=1e-12)
    assert cert.ratio == pytest.approx(0.75, abs=1e-12)
    assert cert.description == "identity translate"
    assert cert.notes["inner_method"] == "closed-form"
    chk = cert.validate(2000, seed=3)
    assert chk.passed
    assert chk.worst_outer_gauge <= cert.outer_R + 1e-9
    assert chk.worst_inner_margin >= -1e-9


def test_polydisc_identity_certificate_is_tight(pd2):
    cert = squeeze_lower_bound(pd2, [0, 0], polydisc([1.0, 1.0]))
    assert cert.ratio == pytest.approx(1.0, abs=1e-12)
    assert cert.validate(1000, seed=1).passed


def test_automorphism_certificate_reaches_ratio_one(ball2):
    x = np.array([0.3 + 0j, 0.1j])
    cert = squeeze_lower_bound(ball2, x, UnitBall(2), embedding="automorphism")
    assert cert.inner_r == cert.outer_R == 1.0
    assert cert.validate(1500, seed=2).passed
    with pytest.raises(UnsupportedKindError):
        squeeze_lower_bound(ball2, x, polydisc([1.0, 1.0]), embedding="automorphism")


def test_balanced_products_are_squeeze_models(three_face):
    """A balanced product through two faces is a model like the polydisc:
    it embeds itself by its automorphism at ratio 1, and bounds another body
    by its face arithmetic."""
    d = balanced_two_face()
    x = np.array([0.3 + 0j, -0.2j])
    cert = squeeze_lower_bound(d, x, balanced_two_face(), embedding="automorphism")
    assert cert.ratio == 1.0
    assert cert.validate(1500, seed=2).passed
    with pytest.raises(UnsupportedKindError):
        squeeze_lower_bound(d, x, polydisc([1.0, 1.0]), embedding="automorphism")
    cert = squeeze_lower_bound(three_face, [0.1, 0.2j], d)
    assert cert.notes == {"inner_method": "closed-form", "outer_method": "coordinate-bounds"}
    assert 0 < cert.ratio < 1
    assert cert.validate(1500, seed=3).passed


def test_balanced_identity_certificate():
    d = balanced_two_face()
    cert = squeeze_lower_bound(d, np.zeros(2, complex), polydisc([1.0, 1.0]))
    assert 0 < cert.ratio <= 1
    assert cert.validate(1500, seed=4).passed


def test_certificate_rejects_inconsistent_radii(pd2):
    with pytest.raises(CertificateError):
        SqueezeCertificate(pd2, polydisc([1.0, 1.0]), np.zeros(2, complex),
                           inner_r=0.9, outer_R=0.5, forward=None, inverse=None,
                           description="bad")


def test_circularity_bound_center_identity_and_max_semantics(three_face):
    cb0 = circularity_lower_bound(three_face, [0, 0], [])
    assert cb0.bound == 1.0
    assert "circular center" in cb0.provenance
    x = np.array([0.2 + 0j, -0.1 + 0j])
    cert = squeeze_lower_bound(three_face, x, polydisc([1.0, 1.0]))
    cb1 = circularity_lower_bound(three_face, x, [cert])
    assert cb1.bound >= cert.ratio ** 2 - 1e-12
    # adding a weaker certificate can only help
    weak = SqueezeCertificate(three_face, polydisc([1.0, 1.0]), x,
                              inner_r=0.01 * cert.inner_r, outer_R=cert.outer_R,
                              forward=cert.forward, inverse=cert.inverse,
                              description="deliberately slack")
    cb2 = circularity_lower_bound(three_face, x, [cert, weak])
    assert cb2.bound == pytest.approx(cb1.bound, abs=1e-15)


def test_polyhedral_pipeline_polydisc_corner():
    d = polydisc_as_polyhedron([1.0, 1.0])
    cert = polyhedral_pipeline(d, [1.0, 1.0], [0.5, 0.5])
    assert cert.outer_R == pytest.approx(1.0, abs=1e-12)
    assert cert.inner_r == pytest.approx(0.6, abs=1e-9)
    assert cert.validate(1500, seed=5).passed


def test_asymptotics_sweep_three_face(three_face):
    rep = asymptotics_sweep(three_face, [1.0, -1.0], steps=12, threshold=0.9)
    assert [row.k for row in rep.rows] == list(range(1, 13))
    assert rep.rows[0].r == pytest.approx(0.5351837584743513, abs=1e-9)
    assert rep.rows[1].r == pytest.approx(0.7207592200131399, abs=1e-9)
    assert rep.final_ratio == pytest.approx(0.9996745320958333, abs=1e-9)
    assert rep.threshold_met
    for row in rep.rows:
        assert 0 < row.ratio <= 1
        assert row.c_bound == pytest.approx(row.ratio ** 2, rel=1e-12)
    fh = io.StringIO()
    rep.to_csv(fh)
    assert fh.getvalue().splitlines()[0] == "k,dist_to_q,r,R,ratio,c_bound"


def test_asymptotics_sweep_polydisc_faces_ratio_climbs():
    d = polydisc_as_polyhedron([1.0, 1.0])
    rep = asymptotics_sweep(d, [1.0, 1.0], steps=12, threshold=0.99)
    assert rep.threshold_met
    assert rep.final_ratio == pytest.approx(0.9997558891181151, abs=1e-9)
    assert rep.rows[-1].ratio > rep.rows[0].ratio


def test_polyhedral_pipeline_real_face_corner():
    # |z_1| < 1, |z_2| < 1, Re z_1 < 0.5: at (0.5, i) the second modulus
    # face and the real face meet
    d = ConvexPolyhedron([[1, 0], [0, 1], [1, 0]], np.zeros(3), [1.0, 1.0, 0.5], 2, 1.5)
    q = [0.5, 1j]
    cert = polyhedral_pipeline(d, q, [0.3, 0.7j])
    assert cert.notes["active_modulus_faces"] == [1]
    assert cert.notes["active_real_faces"] == [0]
    # the gaps of x to |z_2| = 1 and to Re z_1 = 0.5, modulus faces first
    np.testing.assert_allclose(cert.notes["face_gaps"], [0.3, 0.2], rtol=0, atol=1e-15)
    assert cert.validate(1500, seed=6).passed
    ratios = [row.ratio for row in asymptotics_sweep(d, q, steps=10).rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.99


def test_sweep_rejects_exterior_corner_path(three_face):
    # aiming far past the corner leaves the domain at the first step
    with pytest.raises(ScheduleError):
        asymptotics_sweep(three_face, [2.2, 0.0], steps=8)
