"""Riccati and Lyapunov fixed points."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import thermem.solvers as solvers
from thermem.errors import ConvergenceError, NumericalError
from thermem.solvers import (
    DareProblem,
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


def _random_stable_dare(rng):
    n, n_y = rng.integers(2, 12), rng.integers(1, 4)
    A = rng.normal(size=(n, n))
    A *= 0.95 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
    return DareProblem(
        A=A, C=rng.normal(size=(n_y, n)), Q=_random_spd(rng, n), R=_random_spd(rng, n_y)
    )


def _record_refinement(monkeypatch):
    """Results of every Newton-Hewer refinement solve_dare attempts."""
    results = []
    refine = solvers._newton_hewer

    def recorded(*args):
        results.append(refine(*args))
        return results[-1]

    monkeypatch.setattr(solvers, "_newton_hewer", recorded)
    return results


def test_dare_warm_start_matches_cold_on_random_systems(monkeypatch):
    rng = np.random.default_rng(17)
    results = _record_refinement(monkeypatch)

    def no_sweep(*args):
        raise AssertionError("the warm path ran the fixed-point sweep")

    monkeypatch.setattr(solvers, "_dare_fixed_point", no_sweep)
    for trial in range(10):
        p = _random_stable_dare(rng)
        V_cold = solve_dare(p)
        # The solution of a nearby problem, as the previous EM iteration gives.
        near = DareProblem(A=0.97 * p.A, C=p.C, Q=1.2 * p.Q, R=0.8 * p.R)
        V = solve_dare(p, V0=solve_dare(near))
        assert results[-1] is not None  # certified by refinement, no fallback
        assert np.array_equal(V, V.T)
        assert dare_residual(V, p) < 5e-9 * max(1.0, np.linalg.norm(V))
        assert np.linalg.eigvalsh(V).min() > 0
        rel = np.linalg.norm(V - V_cold) / np.linalg.norm(V_cold)
        assert rel < 1e-7


def test_dare_warm_start_at_solution_skips_stein(monkeypatch):
    p = _random_stable_dare(np.random.default_rng(23))
    V = solve_dare(p)

    def no_stein(*args):
        raise AssertionError("Stein solve run for an already certified start")

    monkeypatch.setattr(solvers, "_squaring", no_stein)
    np.testing.assert_array_equal(solve_dare(p, V0=V), V)


@pytest.mark.parametrize("start", ["zeros", "nan"])
def test_dare_bad_warm_start_falls_back_silently(monkeypatch, start):
    # Unstable but detectable: V0 = 0 gives F = A, whose Stein solve diverges.
    A = np.array([[1.3, 0.2, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 1.1]])
    p = DareProblem(A=A, C=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                    Q=0.1 * np.eye(3), R=0.01 * np.eye(2))
    V0 = np.zeros((3, 3)) if start == "zeros" else np.full((3, 3), np.nan)
    results = _record_refinement(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V = solve_dare(p, V0=V0)
    # The warm refinement fails; the cold start's Newton-Hewer steps certify.
    assert results[0] is None and results[1] is not None and len(results) == 2
    np.testing.assert_array_equal(V, solve_dare(p))
    assert dare_residual(V, p) < 5e-9 * max(1.0, np.linalg.norm(V))
    assert np.linalg.eigvalsh(V).min() > 0


@pytest.fixture(scope="module")
def reduced_module():
    from thermem.datagen import ToySpec, build_toy, strong_theta
    from thermem.graph import build_operators

    spec = ToySpec.reduced()
    mesh, _, strong = build_toy(spec)
    observed = mesh.observed_indices
    return build_operators(mesh, strong), strong_theta(spec), observed


@pytest.mark.parametrize("R", [1e-6, 1e-12])
@pytest.mark.parametrize("q", [1e-2, 1e-4, 1e-6, 1e-8])
def test_cold_dare_matches_scipy_on_reduced_module(reduced_module, q, R):
    # Down to q = 1e-8, |V|_F is far below 1, where the certificate alone is
    # an absolute 5e-9: the cold stop also needs a correction below 1e-8 |V|_F.
    from thermem.model import assemble

    m = assemble(*reduced_module, Q=q, R=R)
    p = DareProblem(A=m.A, C=m.C, Q=m.Q, R=m.R)
    V = solve_dare(p)
    V_ref = sla.solve_discrete_are(m.A.T, m.C.T, m.Q, m.R)
    assert np.linalg.norm(V - V_ref) <= 1e-6 * np.linalg.norm(V_ref)
    assert dare_residual(V, p) <= 1e-11 * np.linalg.norm(V)


def _count_sweeps(monkeypatch):
    calls = []
    sweep = solvers._dare_fixed_point

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(solvers, "_dare_fixed_point", counted)
    return calls


def test_dare_sweep_when_neither_cold_start_contracts(monkeypatch):
    rng = np.random.default_rng(2)
    n, n_y = 5, 2
    A = rng.normal(size=(n, n))
    A *= 1.3 / np.max(np.abs(np.linalg.eigvals(A)))
    C = rng.normal(size=(n_y, n))
    p = DareProblem(A=A, C=C, Q=_random_spd(rng, n), R=np.eye(n_y))
    # Neither start's closed loop, A - A C^+ C or A, contracts.
    for F0 in (A - A @ np.linalg.pinv(C) @ C, A):
        assert np.max(np.abs(np.linalg.eigvals(F0))) > 1.0
    calls = _count_sweeps(monkeypatch)
    V = solve_dare(p)
    assert len(calls) == 1
    V_ref = sla.solve_discrete_are(A.T, C.T, p.Q, p.R)
    assert np.linalg.norm(V - V_ref) <= 1e-9 * np.linalg.norm(V_ref)
    assert np.array_equal(V, V.T)


def test_dare_undetectable_raises(monkeypatch):
    # The unstable first state is not observed: no gain stabilizes it.
    p = DareProblem(A=np.diag([1.2, 0.5]), C=np.array([[0.0, 1.0]]), Q=np.eye(2), R=np.eye(1))
    calls = _count_sweeps(monkeypatch)
    with pytest.raises(ConvergenceError):
        solve_dare(p)
    assert len(calls) == 1


def test_dare_warm_start_wrong_shape_raises():
    p = _random_stable_dare(np.random.default_rng(29))
    n = p.A.shape[0]
    with pytest.raises(ValueError):
        solve_dare(p, V0=np.eye(n + 1))


def test_dlyap_zero_contraction():
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    V = solve_dlyap(np.zeros((2, 2)), W)
    np.testing.assert_allclose(V, W, atol=1e-14)


def test_dlyap_scalar_geometric_series():
    V = solve_dlyap(as2d(0.5), as2d(1.0))
    assert V[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_dlyap_residual_random():
    rng = np.random.default_rng(5)
    for n in (4, 80):
        J = rng.normal(size=(n, n))
        J *= 0.9 / np.max(np.abs(np.linalg.eigvals(J)))
        W = _random_spd(rng, n)
        V = solve_dlyap(J, W)
        assert dlyap_residual(V, J, W) < 1e-10 * max(1.0, np.linalg.norm(W))


def test_dlyap_rejects_expanding_map():
    with pytest.raises(ConvergenceError):
        solve_dlyap(1.5 * np.eye(70), np.eye(70))


def _random_spd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T + n * np.eye(n)) / n


def _random_orthogonal(rng, n):
    M = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(M)
    return q


def _record_squaring(monkeypatch):
    """(J, W) of every Stein or Lyapunov squaring solve."""
    calls = []
    squaring = solvers._squaring

    def recorded(J, W, tol):
        calls.append((J, W))
        return squaring(J, W, tol)

    monkeypatch.setattr(solvers, "_squaring", recorded)
    return calls


def test_dare_newton_corrections_run_in_float32(monkeypatch):
    rng = np.random.default_rng(31)
    calls = _record_squaring(monkeypatch)
    for trial in range(6):
        p = _random_stable_dare(rng)
        near = DareProblem(A=0.97 * p.A, C=p.C, Q=1.2 * p.Q, R=0.8 * p.R)
        V0 = solve_dare(near)
        calls.clear()
        V = solve_dare(p, V0=V0)
        assert calls, "the warm start took no Newton-Hewer correction"
        assert all(J.dtype == W.dtype == np.float32 for J, W in calls)
        assert V.dtype == np.float64
        assert np.array_equal(V, V.T)
        assert np.linalg.eigvalsh(V).min() > 0
        assert dare_residual(V, p) < 5e-9 * max(1.0, np.linalg.norm(V))


@pytest.mark.parametrize("R", [1e-6, 1e-12])
def test_dare_warm_starts_of_em_match_float64_newton_hewer(monkeypatch, R):
    import thermem.smoother as smoother
    from _oracles import newton_hewer_dare
    from thermem.datagen import NoiseSpec, ToySpec, build_toy, generate_dataset, strong_theta
    from thermem.estimation import EmConfig, run_em
    from thermem.model import Trajectory

    spec = ToySpec.reduced()
    mesh, _, strong = build_toy(spec)
    truth, _ = generate_dataset(
        mesh, strong, strong_theta(spec), NoiseSpec.AAt(1e-4), 1000, seed=3, spec=spec
    )
    warm = []
    real_dare = smoother.solve_dare

    def recorded(p, V0=None):
        if V0 is not None:
            warm.append((p, V0))
        return real_dare(p, V0=V0)

    monkeypatch.setattr(smoother, "solve_dare", recorded)
    cfg = EmConfig(max_iter=5, theta_tol=1e-300, theta_init=1e-2, q_init=1e-2, R=R)
    run_em(mesh, strong, Trajectory(P=truth.P, y=truth.y, T=None), cfg, constraint="scalar_identity")
    assert len(warm) == 4

    calls = _record_squaring(monkeypatch)
    for p, V0 in warm:
        V_ref, steps = newton_hewer_dare(p, V0)
        calls.clear()
        V = solve_dare(p, V0=V0)
        assert len(calls) == steps >= 1
        assert np.linalg.norm(V - V_ref) < 1e-8 * np.linalg.norm(V_ref)


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(M):
        calls.append(M.shape)
        return eigvalsh(M)

    monkeypatch.setattr(solvers.np.linalg, "eigvalsh", counted)
    return calls


def test_check_psd_takes_eigenvalues_only_when_cholesky_fails(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    rng = np.random.default_rng(4)
    V = _random_spd(rng, 30)
    assert solvers._check_psd(V) is V
    assert calls == []
    # PSD with a zero row and column (a state without process noise), and a
    # negative eigenvalue inside the tolerance: the factorization fails and
    # the eigenvalue criterion accepts.
    singular = V.copy()
    singular[-1] = singular[:, -1] = 0.0
    Qo = _random_orthogonal(rng, 30)
    W = Qo @ np.diag(np.r_[-1e-12, np.linspace(1.0, 2.0, 29)]) @ Qo.T
    W = (W + W.T) / 2
    for M in (singular, W):
        assert solvers._check_psd(M) is M
    assert len(calls) == 2


@pytest.mark.parametrize("low", [-1.0, -1e-8])
def test_check_psd_rejects_indefinite(monkeypatch, low):
    calls = _count_eigvalsh(monkeypatch)
    rng = np.random.default_rng(5)
    Qo = _random_orthogonal(rng, 20)
    W = Qo @ np.diag(np.r_[low, np.linspace(1.0, 2.0, 19)]) @ Qo.T
    with pytest.raises(NumericalError, match="indefinite"):
        solvers._check_psd((W + W.T) / 2)
    assert len(calls) == 1


def test_check_psd_refuses_non_finite():
    # np.linalg.cholesky factors a NaN matrix without an error; the check
    # must not take that as a factorization.
    with pytest.raises(np.linalg.LinAlgError):
        solvers._check_psd(np.diag([1.0, np.nan, 1.0]))
