"""Complex linear algebra primitives and the seeded sample streams."""

import numpy as np
import pytest

from invmet import AffineMap, CLinearMap, SampleStream, cvector, zoo_domain
from invmet.core import call_rowwise, canonical_phase, hdot, maximize_on_unit_sphere, norm
from invmet.core import orthonormal_complement_basis
from invmet.errors import DimensionMismatchError, EvaluationError, SingularMapError
from invmet.metrics import kobayashi_metric_values


def test_cvector_coerces_scalars_and_lists():
    v = cvector(1.5)
    assert v.shape == (1,) and v.dtype == complex
    w = cvector([1, 2j, -3.0])
    np.testing.assert_array_equal(w, np.array([1, 2j, -3.0], dtype=complex))


def test_call_rowwise_takes_the_stack_or_each_row_alike():
    """A callable that answers a stack is called once; one that answers a
    single row only is called per row; the values agree bit for bit and take
    the stack's leading shape."""
    calls = []

    def stacked(v):
        calls.append(v.shape)
        return np.abs(v).max(axis=-1)

    def one_row(v):
        if v.ndim != 1:
            raise ValueError("one row at a time")
        return np.abs(v).max()

    V = SampleStream(2).complex_normal((2, 3, 4))
    assert call_rowwise(stacked, V).tobytes() == call_rowwise(one_row, V).tobytes()
    assert call_rowwise(one_row, V).shape == (2, 3) and calls == [(2, 3, 4)]


def test_cvector_rejects_matrices():
    with pytest.raises(DimensionMismatchError):
        cvector([[1, 2], [3, 4]])


def test_hdot_hermitian_and_linear_in_first_slot():
    u = cvector([1 + 2j, -1j])
    v = cvector([0.5, 3 + 1j])
    assert hdot(u, v) == pytest.approx(np.conj(hdot(v, u)))
    assert hdot(2j * u, v) == pytest.approx(2j * hdot(u, v))
    assert norm(u) == pytest.approx(np.sqrt(abs(hdot(u, u))))


def test_canonical_phase_makes_first_entry_real_positive():
    v = cvector([1j, 2 - 1j])
    w = canonical_phase(v)
    assert w[0].imag == pytest.approx(0.0, abs=1e-15)
    assert w[0].real > 0
    np.testing.assert_allclose(np.abs(w), np.abs(v))


def test_clinear_map_det_and_inverse_roundtrip():
    L = CLinearMap([[1 + 1j, 0.5], [0, 2]])
    assert L.det == pytest.approx((1 + 1j) * 2)
    v = cvector([1, -1j])
    np.testing.assert_allclose(L.inverse()(L(v)), v, atol=1e-12)
    assert L.compose(L.inverse()).det == pytest.approx(1.0)


def test_clinear_map_singular_raises():
    with pytest.raises(SingularMapError):
        CLinearMap([[1, 2], [2, 4]]).inverse()


def test_affine_map_compose_inverse_derivative():
    T = AffineMap(CLinearMap([[2, 1j], [0, 1]]), [1, -1j])
    z = cvector([0.3, 0.7j])
    np.testing.assert_allclose(T.inverse()(T(z)), z, atol=1e-12)
    S = T.compose(T.inverse())
    np.testing.assert_allclose(S(z), z, atol=1e-12)
    np.testing.assert_allclose(T.derivative(z), T.linear.matrix)


def test_orthonormal_complement_basis():
    u = cvector([1, 1j]) / np.sqrt(2)
    basis = orthonormal_complement_basis([u], 2)
    assert len(basis) == 1
    assert abs(hdot(basis[0], u)) < 1e-12
    assert norm(basis[0]) == pytest.approx(1.0)


def test_maximize_on_unit_sphere_linear_functional():
    a = cvector([3, 4j])

    def f(V):
        return np.abs(np.asarray(V) @ np.conj(a))

    u, val = maximize_on_unit_sphere(f, dim=2)
    assert val == pytest.approx(5.0, rel=1e-6)
    assert norm(u) == pytest.approx(1.0)


def _modulus_of_pairing(a):
    a = cvector(a)
    return lambda V: np.abs(np.asarray(V) @ np.conj(a))


def _ball2_metric():
    d = zoo_domain("ball2")

    def mid(V):
        lower, upper = kobayashi_metric_values(d, [0.3 - 0.2j, 0.1 + 0.4j], V)
        return 0.5 * (lower + upper)
    return mid


@pytest.mark.parametrize("f, b", [
    (_modulus_of_pairing([3, 4j]), [0.6j, -0.8]),
    (_modulus_of_pairing([1, 2 - 1j, 0.5j]), [0.5 - 0.5j, 0.5j, 0.5]),
    (_ball2_metric(), [0.28 + 0.96j, 0.0]),
    (_ball2_metric(), [-0.6 + 0.0j, 0.48 - 0.64j]),
], ids=["pairing-C2", "pairing-C3", "ball2-axis", "ball2-oblique"])
def test_maximize_on_a_complex_line_is_the_closed_form(f, b):
    b = cvector(b)
    u, val = maximize_on_unit_sphere(f, basis=[b])
    assert np.array_equal(u, canonical_phase(b))
    assert val == float(f(b[None, :])[0])
    phases = np.exp(2j * np.pi * np.random.default_rng(5).uniform(size=2048))
    best = float(np.max(f(phases[:, None] * b)))
    assert abs(val - best) <= 1e-12 * best


def test_maximize_on_a_complex_line_rejects_a_non_finite_value():
    def f(V):
        return np.full(len(V), np.nan)

    with pytest.raises(EvaluationError):
        maximize_on_unit_sphere(f, basis=[cvector([0.6, 0.8j])])


def test_sample_stream_reproducible_and_forked():
    a = SampleStream(3).uniform(8)
    b = SampleStream(3).uniform(8)
    np.testing.assert_array_equal(a, b)
    c = SampleStream(3).fork(1).uniform(8)
    assert not np.array_equal(a, c)
    # forking is path-dependent, not order-dependent
    s = SampleStream(9)
    np.testing.assert_array_equal(s.fork(2).normal(4), SampleStream(9).fork(2).normal(4))


def test_sample_stream_unit_directions():
    U = SampleStream(0).unit_directions(64, 3)
    assert U.shape == (64, 3) and U.dtype == complex
    np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)
    R = SampleStream(0).unit_directions(64, 3, field="real")
    assert R.dtype == float
    np.testing.assert_allclose(np.linalg.norm(R, axis=1), 1.0, atol=1e-12)
