"""Riccati and Lyapunov fixed points."""

import numpy as np
import pytest
import scipy.linalg as sla

from thermem.errors import ConvergenceError
from thermem.solvers import (
    DareProblem,
    DlyapProblem,
    dare_residual,
    dlyap_residual,
    solve_dare,
    solve_dlyap,
)


def as2d(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


def scalar_dare(a, c, q, r):
    return DareProblem(A=as2d(a), C=as2d(c), Q=as2d(q), R=as2d(r))


def test_scalar_dare_memoryless():
    v = solve_dare(scalar_dare(0.0, 1.0, 1.0, 1.0))
    assert v[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_scalar_dare_quadratic_root():
    # v = a^2 v - a^2 v^2/(v + r) + q reduces to v^2 - 0.25 v - 1 = 0 for
    # a=0.5, c=1, q=1, r=1; the positive root is the oracle.
    v = solve_dare(scalar_dare(0.5, 1.0, 1.0, 1.0))[0, 0]
    root = (0.25 + np.sqrt(0.25**2 + 4.0)) / 2.0
    assert v == pytest.approx(root, abs=1e-10)
    assert root == pytest.approx(1.13278, abs=1e-5)


def test_dare_perfect_observation_limit():
    rng = np.random.default_rng(7)
    n = 5
    A = 0.8 * _random_orthogonal(rng, n)
    Q = _random_spd(rng, n, scale=1.0)
    p = DareProblem(A=A, C=np.eye(n), Q=Q, R=1e-8 * np.eye(n))
    V = solve_dare(p)
    np.testing.assert_allclose(V, Q, atol=1e-4)


def test_dare_residual_certified_on_random_systems():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n, n_y = rng.integers(2, 9), rng.integers(1, 4)
        A = rng.normal(size=(n, n))
        A *= 0.95 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
        C = rng.normal(size=(n_y, n))
        Q = _random_spd(rng, n)
        R = _random_spd(rng, n_y)
        p = DareProblem(A=A, C=C, Q=Q, R=R)
        V = solve_dare(p)
        assert np.array_equal(V, V.T)
        rel = dare_residual(V, p) / max(1.0, np.linalg.norm(V))
        assert rel < 1e-8
        # Cross-check against scipy's independent solver (transposed pair
        # maps the filter form onto the control form).
        V_ref = sla.solve_discrete_are(A.T, C.T, Q, R)
        np.testing.assert_allclose(V, V_ref, rtol=1e-6, atol=1e-8)


def test_dare_agrees_with_transient_recursion():
    rng = np.random.default_rng(3)
    n = 4
    A = 0.6 * _random_orthogonal(rng, n)
    C = rng.normal(size=(2, n))
    Q = _random_spd(rng, n)
    R = _random_spd(rng, 2)
    V = Q.copy()
    for _ in range(10 * n * 10):
        S = C @ V @ C.T + R
        K = np.linalg.solve(S.T, (V @ C.T).T).T
        V = A @ (V - K @ (C @ V)) @ A.T + Q
        V = (V + V.T) / 2
    V_dare = solve_dare(DareProblem(A=A, C=C, Q=Q, R=R))
    np.testing.assert_allclose(V, V_dare, atol=1e-6)


def test_dare_marginal_mode_with_observed_ambient():
    # Row-stochastic A with eigenvalue 1 on the all-ones vector; observing
    # the last state (the "ambient") keeps the DARE solvable.
    A = np.array([[0.9, 0.06, 0.04], [0.05, 0.9, 0.05], [0.0, 0.0, 1.0]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    p = DareProblem(A=A, C=C, Q=1e-4 * np.eye(3), R=1e-6 * np.eye(2))
    V = solve_dare(p)
    assert dare_residual(V, p) < 1e-10 * max(1.0, np.linalg.norm(V))


def test_dlyap_zero_contraction():
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    V = solve_dlyap(DlyapProblem(J=np.zeros((2, 2)), W=W))
    np.testing.assert_allclose(V, W, atol=1e-14)


def test_dlyap_scalar_geometric_series():
    V = solve_dlyap(DlyapProblem(J=as2d(0.5), W=as2d(1.0)))
    assert V[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_dlyap_residual_random():
    rng = np.random.default_rng(5)
    for n in (4, 80):
        J = rng.normal(size=(n, n))
        J *= 0.9 / np.max(np.abs(np.linalg.eigvals(J)))
        W = _random_spd(rng, n)
        p = DlyapProblem(J=J, W=W)
        V = solve_dlyap(p)
        assert dlyap_residual(V, p) < 1e-10 * max(1.0, np.linalg.norm(W))


def test_dlyap_rejects_expanding_map():
    with pytest.raises(ConvergenceError):
        solve_dlyap(DlyapProblem(J=1.5 * np.eye(70), W=np.eye(70)))


def _random_spd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T + n * np.eye(n)) / n


def _random_orthogonal(rng, n):
    M = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(M)
    return q
