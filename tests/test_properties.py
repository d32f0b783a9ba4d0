"""Property-based checks over randomly generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from extragrad import (
    Point, ScaledEuclidean, NegativeEntropy, QuadraticProblem,
)

finite_floats = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
vec = arrays(np.float64, 4, elements=finite_floats)
pos = st.floats(0.1, 10.0, allow_nan=False)
ROTATION = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]  # orthogonal


@given(vec, vec, pos)
@settings(max_examples=200, deadline=None)
def test_euclidean_divergence_nonnegative_and_symmetric_in_distance(a, b, mu):
    reg = ScaledEuclidean(mu)
    d_ab = reg.divergence(a, b)
    d_ba = reg.divergence(b, a)
    assert d_ab >= 0.0
    # the Euclidean divergence is the symmetric half squared distance
    assert abs(d_ab - d_ba) <= 1e-9 * max(1.0, d_ab)


@given(vec, vec, pos)
@settings(max_examples=200, deadline=None)
def test_euclidean_prox_step_formula(z, g, mu):
    reg = ScaledEuclidean(mu)
    out = reg.prox(z, g)
    assert np.allclose(out, z - g / mu, atol=1e-12)


@given(arrays(np.float64, 3, elements=st.floats(0.05, 1.0)), vec)
@settings(max_examples=200, deadline=None)
def test_entropy_prox_stays_on_simplex(weights, g):
    z = weights[:3] / weights[:3].sum()
    reg = NegativeEntropy(1.0)
    out = reg.prox(z, g[:3])
    assert out.min() >= 0.0
    assert abs(out.sum() - 1.0) <= 1e-9


@given(vec, arrays(np.float64, 4, elements=st.floats(0.5, 8.0)))
@settings(max_examples=200, deadline=None)
def test_conjugate_gradients_invert(x, diag):
    # the same spectrum as a diagonal M and as a dense M = Q diag(.) Q^T
    for M in (diag, (ROTATION * diag) @ ROTATION.T):
        oracle = QuadraticProblem(M, np.zeros(4), diag.min(), diag.max())
        back = oracle.grad_fstar(oracle.grad(x))
        assert np.allclose(back, x, atol=1e-9)


@given(vec, vec, vec)
@settings(max_examples=200, deadline=None)
def test_point_dot_bilinearity(a, b, c):
    pa, pb, pc = Point(a[:2], a[2:]), Point(b[:2], b[2:]), Point(c[:2], c[2:])
    lhs = (pa + pb).dot(pc)
    rhs = pa.dot(pc) + pb.dot(pc)
    assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(lhs))
