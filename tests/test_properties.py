"""Property tests with ``hypothesis``: random ellipsoids known only through a
gauge callable, against the closed form of the same set as an affine image of
the unit ball."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invmet import AffineMap, SampleStream, UnitBall, kobayashi_metric
from invmet.domains import AffineImage, BalancedConvex
from invmet.metrics import metric_upper_paired

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
    lower = body.lower_bound_paired(P, V, SampleStream(0))
    assert lower[0] <= metric_upper_paired(body, P, V)[0]
