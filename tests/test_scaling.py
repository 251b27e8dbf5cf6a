"""Rescaling schedules: stretching frames, tau/sigma equivalence, Jacobian volume."""

import numpy as np
import pytest

from invmet import (
    AffineImage,
    AffineMap,
    AutomorphismFamily,
    CLinearMap,
    JacobianVolumeReport,
    SampleStream,
    VolumeEstimate,
    default_schedule,
    equivalence_audit,
    frankel_tau,
    indicatrix_sigma,
    kobayashi_metric,
    model_automorphism,
    polydisc,
    stretching_frame,
    volume_jacobian_check,
    zoo_domain,
)
from invmet.core import orthonormal_complement_basis
from invmet.domains import balanced_polyhedron
from invmet.errors import NotInteriorError, ScheduleError
from invmet.metrics import kobayashi_metric_values
from invmet.zoo import affine_twin, three_face_polyhedron


def test_default_schedule_halves_boundary_distance():
    sched = default_schedule(6)
    assert len(sched) == 6
    assert sched == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_stretching_frame_at_ball_center(ball2):
    fr = stretching_frame(ball2, ball2.basepoint)
    np.testing.assert_allclose(fr.values, [1.0, 1.0], rtol=1e-9)
    gram = fr.directions @ fr.directions.conj().T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
    assert fr.det_abs == pytest.approx(1.0, rel=1e-9)
    for alpha, u in enumerate(fr.directions):
        b = kobayashi_metric(ball2, ball2.basepoint, u, seed=alpha)
        assert b.lower - 1e-9 <= 1.0 <= b.upper + 1e-9
        assert (b.lower_method, b.upper_method) == ("closed-form", "closed-form")


def test_stretching_frame_orders_values():
    d = polydisc([1.0, 2.0])
    fr = stretching_frame(d, [0, 0])
    # K(0; e1) = 1 dominates K(0; e2) = 1/2
    assert fr.values[0] == pytest.approx(1.0, rel=1e-6)
    assert fr.values[1] == pytest.approx(0.5, rel=1e-6)
    assert fr.values[0] >= fr.values[1]


@pytest.mark.parametrize("name", ["ball2", "polydisc2", "sheared_polydisc", "turned_ball"])
def test_closed_form_frame_values_are_the_subspace_maxima(name):
    d = zoo_domain(name)
    assert d.metric_form(d.basepoint) is not None
    stream = SampleStream(41)
    for k, x in enumerate(d.interior_samples(4, stream.fork(0))):
        fr = stretching_frame(d, x, seed=k)
        for alpha in range(d.dim):
            basis = np.column_stack(orthonormal_complement_basis(list(fr.directions[:alpha]),
                                                                 dim=d.dim))
            C = stream.fork(1 + 4 * k + alpha).unit_directions(4096, basis.shape[1])
            sampled = float(np.max(d.metric_paired(x[None, :], C @ basis.T)))
            assert fr.values[alpha] >= sampled * (1.0 - 1e-12)
            assert fr.values[alpha] <= sampled * (1.0 + 1e-3)
            assert d.metric_paired(x[None, :], fr.directions[alpha:alpha + 1])[0] == pytest.approx(
                fr.values[alpha], rel=1e-12)


@pytest.mark.parametrize("d", [
    three_face_polyhedron(),
    affine_twin(three_face_polyhedron()),
    balanced_polyhedron([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]],
                        [1.0, 1.2, 1.1, 1.0], 3),
], ids=["three_face", "twin_three_face", "balanced3"])
def test_searched_frame_values_are_at_least_the_sampled_maxima(d):
    # no closed form: each value is a search maximum of the bracket midpoint,
    # a max of face terms that is not smooth where two faces tie
    assert d.metric_form(d.basepoint) is None
    stream = SampleStream(43)
    for k, x in enumerate(d.interior_samples(3, stream.fork(0))):
        fr = stretching_frame(d, x, seed=k)
        assert np.all(np.diff(fr.values) <= 0)
        for alpha in range(d.dim):
            basis = np.column_stack(orthonormal_complement_basis(list(fr.directions[:alpha]),
                                                                 dim=d.dim))
            C = stream.fork(1 + 4 * k + alpha).unit_directions(4096, basis.shape[1])
            lower, upper = kobayashi_metric_values(d, x, C @ basis.T)
            sampled = float(np.max(0.5 * (lower + upper)))
            assert fr.values[alpha] >= sampled * (1.0 - 1e-12)


def test_frame_ties_resolve_toward_the_coordinate_axes(ball2, pd2):
    # eigenvalues 1 +- 2e-12 lie inside the tie band, and the eigensolver's
    # basis of them is the diagonal pair (1, +-1) / sqrt(2)
    near_tie = AffineImage(ball2, AffineMap(CLinearMap([[1, 1e-12], [1e-12, 1]]), [0, 0]))
    for d in (ball2, pd2, near_tie):
        fr = stretching_frame(d, [0, 0])
        np.testing.assert_allclose(fr.directions, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(fr.values, [1.0, 1.0], rtol=1e-9)


def test_frankel_tau_normalization(ball2):
    fam = AutomorphismFamily(ball2, np.array([1.0 + 0j, 0j]))
    p = fam.point_at(3.0)
    tau = frankel_tau(fam.automorphism(3.0), p)
    assert float(np.linalg.norm(tau(p))) < 1e-12
    h = 1e-7
    for k in range(2):
        e = np.zeros(2, complex)
        e[k] = 1.0
        col = (tau(p + h * e) - tau(p)) / h
        np.testing.assert_allclose(col, e, atol=1e-5)


@pytest.mark.parametrize("name", ["ball2", "sheared_polydisc"])
def test_tau_and_sigma_are_phi_then_an_affine_map(name):
    """tau and sigma chain phi with an affine post map: values post(phi(z))
    and derivatives post.linear.matrix @ phi'(z), bit for bit."""
    d = zoo_domain(name)
    Z = d.interior_samples(20, SampleStream(3))
    p = Z[0]
    phi = model_automorphism(d, p, Z[1])
    q = phi(p)
    Jinv = CLinearMap(phi.derivative(p)).inverse()
    frame = stretching_frame(d, q)
    L = frame.map
    for made, post in ((frankel_tau(phi, p), AffineMap(Jinv, -Jinv(q))),
                       (indicatrix_sigma(phi, p, frame), AffineMap(L, -L(q)))):
        assert made(Z).tobytes() == post(phi(Z)).tobytes()
        for z in Z[:5]:
            assert made.derivative(z).tobytes() == (post.linear.matrix @ phi.derivative(z)).tobytes()


def test_equivalence_audit_ball(ball2):
    fam = AutomorphismFamily(ball2, np.array([1.0 + 0j, 0j]))
    rep = equivalence_audit(ball2, fam, ball2.basepoint, default_schedule(5),
                            grid_size=40, seed=0)
    assert rep.bounded
    assert len(rep.records) == 5
    assert rep.max_sup_diff < 1e-10
    assert rep.max_det_abs == pytest.approx(1.0, abs=1e-9)
    assert rep.max_distortion_ratio == pytest.approx(1.0, abs=1e-6)
    r = rep.records[-1]
    assert r.boundary_margin == pytest.approx(2.0 ** -5, rel=1e-12)
    assert r.c1 <= r.c2 * (1 + 1e-12)
    d = rep.to_dict()
    assert d["summary"]["bounded"] is True
    assert len(d["records"]) == 5


def test_equivalence_audit_polydisc_distortion_stays_flat(pd2):
    fam = AutomorphismFamily(pd2, np.array([1.0 + 0j, 1.0 + 0j]))
    rep = equivalence_audit(pd2, fam, pd2.basepoint, default_schedule(4),
                            grid_size=30, seed=1)
    assert rep.bounded
    # polydisc schedules stay perfectly conditioned
    assert rep.max_distortion_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.max_sup_diff < 1e-10


def test_equivalence_audit_rejects_bad_schedules(ball2):
    fam = AutomorphismFamily(ball2, np.array([1.0 + 0j, 0j]))
    with pytest.raises(NotInteriorError):
        equivalence_audit(ball2, fam, np.array([2.0 + 0j, 0j]), default_schedule(3))
    # boundary distance must shrink monotonically along the schedule
    with pytest.raises(ScheduleError) as ei:
        equivalence_audit(ball2, fam, ball2.basepoint, [3.0, 1.0], grid_size=10)
    assert ei.value.index == 1


def test_volume_jacobian_disc_is_exact():
    disc = zoo_domain("disc")
    phi = model_automorphism(disc, [0.5], [0.0])
    rep = volume_jacobian_check(disc, phi, [0.5], samples=2000, seed=0)
    assert rep.det_sq == pytest.approx(1.0 / 0.5625, rel=1e-12)
    assert rep.rel_error <= 1e-9
    assert rep.within == 0.0
    # forward map: |phi'(0)|^2 against (1 - a^2)^2 at a = 0.5
    psi = model_automorphism(disc, [0.0], [0.5])
    dpsi = complex(np.asarray(psi.derivative(np.zeros(1, complex))).ravel()[0])
    assert abs(dpsi) ** 2 == pytest.approx((1 - 0.25) ** 2, abs=1e-12)


def test_volume_jacobian_ball_within_mc_error(ball2):
    x = np.array([0.4 + 0j, 0j])
    phi = model_automorphism(ball2, x, np.zeros(2, complex))
    rep = volume_jacobian_check(ball2, phi, x, samples=40_000, seed=2)
    assert rep.within <= 3.0
    assert rep.volume_ratio == pytest.approx(rep.det_sq, rel=0.05)


def _ratio_report(det_sq, ratio, se):
    return JacobianVolumeReport.from_volumes(det_sq, VolumeEstimate(1.0, 0.0, 1.0, 1.0, 0),
                                             VolumeEstimate(ratio, se, ratio, ratio, 1000))


def test_within_reads_a_ratio_inside_the_model_tolerance_as_zero():
    """A closed-form ratio one ulp off det_sq, or a Monte Carlo one off by
    dozens of a tiny se, is within 0; a ratio 1e-6 off with se 0 is not."""
    det_sq = 0.421875
    ulp = np.nextafter(det_sq, 1.0)
    assert _ratio_report(det_sq, ulp, 0.0).within == 0.0
    assert _ratio_report(det_sq, ulp, 1.6e-18).within == 0.0
    assert _ratio_report(det_sq, det_sq * (1 + 1e-6), 0.0).within == np.inf
    assert _ratio_report(det_sq, det_sq * (1 + 1e-6), det_sq * 1e-6).within == pytest.approx(1.0)
