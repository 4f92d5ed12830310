"""Full and steady-state RTS smoothing plus sufficient statistics."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from _oracles import moments_from_states, rtss_full, stats_from_sums, sums_from_stats
from thermem import _kernels
from thermem.datagen import ToySpec, build_toy, strong_theta, toy_inputs
from thermem.graph import build_operators
from thermem.model import StateSpaceModel, assemble, simulate
from thermem.smoother import SmootherOutput, accumulate_stats, rtss_steady
from thermem.solvers import DareProblem, solve_dare


def make_model(A, B, C, Q, R):
    A = np.asarray(A, dtype=float)
    return StateSpaceModel(
        A=A,
        B=np.asarray(B, dtype=float),
        C=np.asarray(C, dtype=float),
        Q=np.asarray(Q, dtype=float),
        R=np.asarray(R, dtype=float),
    )


def random_stable_model(rng, n=5, n_y=2, n_P=1, rho=0.9, q=1e-3, r=1e-4):
    A = rng.normal(size=(n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, n_P))
    C = np.zeros((n_y, n))
    C[np.arange(n_y), rng.permutation(n)[:n_y]] = 1.0
    return make_model(A, B, C, q * np.eye(n), r * np.eye(n_y))


def steady_gain(out, model):
    """K = V^- C' (C V^- C' + R)^{-1} from the smoother's predicted covariance."""
    V, C = out.V_S_minus, model.C
    return np.linalg.solve(C @ V @ C.T + model.R, C @ V).T


def filtered_covariance(out, model):
    """V^+ = (I - K C) V^-, symmetrized."""
    V = out.V_S_minus - steady_gain(out, model) @ (model.C @ out.V_S_minus)
    return (V + V.T) / 2


def test_full_smoother_recovers_noiseless_truth():
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, n=4, n_y=2, q=0.0, r=0.0)
    # Tiny covariances keep the recursions well posed while the data is exact.
    model.Q = 1e-10 * np.eye(4)
    model.R = 1e-12 * np.eye(2)
    P = rng.uniform(0, 1, (80, 1))
    truth = simulate(model, rng.normal(size=4), P, noiseless=True)
    res = rtss_full(model, truth.y, truth.P, truth.T[0])
    np.testing.assert_allclose(res.x_smooth, truth.T, atol=1e-6)


def test_full_smoother_two_point_scalar_kalman():
    # N=2, scalar, A=C=1: one predict/update plus one backward step must
    # reproduce the hand-written Kalman algebra.
    q, r, v1 = 0.3, 0.2, 0.5
    x1, y2, p = 1.0, 2.0, 0.0
    model = make_model([[1.0]], [[0.0]], [[1.0]], [[q]], [[r]])
    res = rtss_full(model, [[0.0], [y2]], [[p], [p]], [x1], V_1=[[v1]])
    v_pred = v1 + q
    k = v_pred / (v_pred + r)
    x2_filt = x1 + k * (y2 - x1)
    j1 = v1 / v_pred
    x1_smooth = x1 + j1 * (x2_filt - x1)
    assert res.x_filt[1, 0] == pytest.approx(x2_filt, abs=1e-14)
    assert res.x_smooth[0, 0] == pytest.approx(x1_smooth, abs=1e-14)
    assert res.V_lag[0, 0, 0] == pytest.approx(res.V_smooth[1, 0, 0] * j1, abs=1e-14)


def test_constant_observations_are_a_fixed_point():
    c = 21.5
    model = make_model([[1.0]], [[0.0]], [[1.0]], [[1e-4]], [[1e-5]])
    Y = np.full((50, 1), c)
    P = np.zeros((50, 1))
    res_full = rtss_full(model, Y, P, [c])
    out = rtss_steady(model, Y, P, [c])
    np.testing.assert_allclose(res_full.x_smooth, c, atol=1e-10)
    np.testing.assert_allclose(out.x_smooth, c, atol=1e-10)


def test_steady_matches_full_after_burn_in():
    rng = np.random.default_rng(42)
    model = random_stable_model(rng, n=5, n_y=2, q=1e-3, r=1e-4)
    P = rng.uniform(0, 1, (2000, 1))
    truth = simulate(model, rng.normal(size=5), P, seed=1)
    full = rtss_full(model, truth.y, truth.P, truth.T[0])
    steady = rtss_steady(model, truth.y, truth.P, truth.T[0])
    diff = np.abs(full.x_smooth - steady.x_smooth)[50:]
    assert diff.max() < 1e-4


def test_steady_scalar_gain_matches_dare():
    sigma2 = 0.05
    model = make_model([[1.0]], [[0.0]], [[1.0]], [[sigma2]], [[sigma2]])
    Y = np.zeros((30, 1))
    out = rtss_steady(model, Y, np.zeros((30, 1)), [0.0])
    v_minus = solve_dare(
        DareProblem(A=np.eye(1), C=np.eye(1), Q=model.Q, R=model.R)
    )[0, 0]
    assert steady_gain(out, model)[0, 0] == pytest.approx(v_minus / (v_minus + sigma2), abs=1e-10)


def test_steady_covariance_identities():
    rng = np.random.default_rng(9)
    model = random_stable_model(rng, n=6, n_y=3)
    P = rng.uniform(0, 1, (60, 1))
    traj = simulate(model, rng.normal(size=6), P, seed=5)
    out = rtss_steady(model, traj.y, traj.P, traj.T[0])
    V_plus = filtered_covariance(out, model)
    for V in (out.V_S_minus, out.V_S_N):
        np.testing.assert_allclose(V, V.T, atol=1e-10)
        assert np.linalg.eigvalsh(V).min() > -1e-10
    # Smoothing and filtering only remove uncertainty: V_S^N <= V^+ <= V^-.
    for lo, hi in ((out.V_S_N, V_plus), (V_plus, out.V_S_minus)):
        assert np.linalg.eigvalsh(hi - lo).min() > -1e-10


@pytest.fixture(scope="module")
def reduced_module():
    spec = ToySpec.reduced()
    mesh, _, strong = build_toy(spec)
    observed = mesh.observed_indices
    return build_operators(mesh, strong), strong_theta(spec), observed


@pytest.mark.parametrize("R", [1e-6, 1e-12])
@pytest.mark.parametrize("q", [1e-2, 1e-4, 1e-8])
def test_steady_covariances_match_rts_lyapunov_solution(reduced_module, q, R):
    """V_S^N and the lag-one covariance against the RTS form's Lyapunov
    equation V_S = J V_S J' + V^+ - J V^- J', J = V^+ A' (V^-)^-1, solved by
    scipy from the same V^- and V^+."""
    ops, theta, observed = reduced_module
    model = assemble(ops, theta, observed, Q=q, R=R)
    N = 20
    out = rtss_steady(model, np.zeros((N, model.n_y)), np.zeros((N, model.n_P)), np.zeros(model.n))
    V_minus, V_plus = out.V_S_minus, filtered_covariance(out, model)
    J = np.linalg.solve(V_minus, model.A @ V_plus).T
    V_S = sla.solve_discrete_lyapunov(J, V_plus - J @ V_minus @ J.T, method="bilinear")

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    assert rel(out.V_S_N, V_S) <= 1e-12
    assert rel(out.V_S_lag, J @ V_S) <= 1e-12


def test_steady_smoother_holds_one_record_length_array_of_means():
    # The smoothed means overwrite the predicted ones: the peak allocation of
    # one call stays well below two N x n float64 arrays.
    rng = np.random.default_rng(3)
    n, N = 40, 20000
    model = random_stable_model(rng, n=n, n_y=2)
    Y = rng.normal(size=(N, 2))
    P = rng.uniform(0, 1, (N, 1))
    T_1 = np.zeros(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = rtss_steady(model, Y, P, T_1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.x_smooth.shape == (N, n)
    assert peak <= 1.5 * N * n * 8


def test_accumulate_stats_single_term_hand_values():
    out = SmootherOutput(
        x_smooth=np.array([[1.0], [2.0]]),
        V_S_minus=np.zeros((1, 1)),
        V_S_N=np.zeros((1, 1)),
        V_S_lag=np.zeros((1, 1)),
        loglik=0.0,
    )
    stats = accumulate_stats(out, np.array([[3.0], [0.0]]))
    # r = [1, 3] and d = 2 - 1.
    assert stats.rr.tolist() == [[1.0, 3.0], [3.0, 9.0]]
    assert stats.dr.tolist() == [[1.0, 3.0]]
    assert stats.dd.tolist() == [[1.0]]


def test_accumulate_stats_reduces_to_mean_outer_products():
    rng = np.random.default_rng(2)
    N, n, n_P = 7, 3, 2
    x = rng.normal(size=(N, n))
    P = rng.normal(size=(N, n_P))
    out = SmootherOutput(
        x_smooth=x,
        V_S_minus=np.zeros((n, n)),
        V_S_N=np.zeros((n, n)),
        V_S_lag=np.zeros((n, n)),
        loglik=0.0,
    )
    stats, ref = accumulate_stats(out, P), moments_from_states(x, P)
    for name in ("rr", "dr", "dd"):
        np.testing.assert_allclose(getattr(stats, name), getattr(ref, name), atol=1e-12, err_msg=name)


def test_accumulate_stats_matches_bruteforce_loop():
    rng = np.random.default_rng(8)
    model = random_stable_model(rng, n=4, n_y=2)
    P = rng.uniform(0, 1, (40, 1))
    traj = simulate(model, rng.normal(size=4), P, seed=3)
    out = rtss_steady(model, traj.y, traj.P, traj.T[0])
    stats = accumulate_stats(out, traj.P)

    N = out.N
    XX = np.zeros((4, 4))
    ZZ = np.zeros((4, 4))
    XZ = np.zeros((4, 4))
    XU = np.zeros((4, 1))
    ZU = np.zeros((4, 1))
    UU = np.zeros((1, 1))
    for t in range(N - 1):
        XX += out.V_S_N + np.outer(out.x_smooth[t], out.x_smooth[t])
        ZZ += out.V_S_N + np.outer(out.x_smooth[t + 1], out.x_smooth[t + 1])
        XZ += out.V_S_lag + np.outer(out.x_smooth[t], out.x_smooth[t + 1])
        XU += np.outer(out.x_smooth[t], traj.P[t])
        ZU += np.outer(out.x_smooth[t + 1], traj.P[t])
        UU += np.outer(traj.P[t], traj.P[t])
    ref = stats_from_sums(XX, XU, ZZ, ZU, XZ, UU, N)
    for name in ("rr", "dr", "dd"):
        np.testing.assert_allclose(getattr(stats, name), getattr(ref, name), rtol=1e-10, atol=1e-12,
                                   err_msg=name)


def test_full_stats_boundary_relation():
    # ZZ - XX differs from the mean parts only by the end terms.
    rng = np.random.default_rng(4)
    model = random_stable_model(rng, n=3, n_y=1)
    P = rng.uniform(0, 1, (25, 1))
    traj = simulate(model, rng.normal(size=3), P, seed=6)
    out = rtss_steady(model, traj.y, traj.P, traj.T[0])
    stats = accumulate_stats(out, traj.P)
    x = out.x_smooth
    boundary = np.outer(x[-1], x[-1]) - np.outer(x[0], x[0])
    sums = sums_from_stats(stats)
    np.testing.assert_allclose(sums["ZZ"] - sums["XX"], boundary, atol=1e-9)


def test_stats_require_two_steps():
    out = SmootherOutput(
        x_smooth=np.zeros((1, 2)),
        V_S_minus=np.zeros((2, 2)),
        V_S_N=np.zeros((2, 2)),
        V_S_lag=np.zeros((2, 2)),
        loglik=0.0,
    )
    with pytest.raises(ValueError):
        accumulate_stats(out, np.zeros((1, 1)))


def test_full_module_steady_estep_matches_folded_path(monkeypatch):
    """At n=817 the filter and the adjoint smoother step their closed loop
    factored; forcing it folded changes the E-step only by rounding."""
    spec = ToySpec.full()
    mesh, _, strong = build_toy(spec)
    observed = mesh.observed_indices
    model = assemble(build_operators(mesh, strong), strong_theta(spec), observed, Q=1e-3, R=spec.meas_var)
    T_1 = np.full(model.n, ToySpec.ambient_temp)
    traj = simulate(model, T_1, toy_inputs(spec, mesh, 1500), seed=11)
    assert _kernels.factored(model.A)
    out = rtss_steady(model, traj.y, traj.P, T_1)
    stats = accumulate_stats(out, traj.P)
    monkeypatch.setattr(_kernels, "FACTORED_MIN_N", model.n + 1)
    ref = rtss_steady(model, traj.y, traj.P, T_1, V0=out.V_S_minus)
    ref_stats = accumulate_stats(ref, traj.P)
    np.testing.assert_array_equal(ref.V_S_minus, out.V_S_minus)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert rel(out.x_smooth, ref.x_smooth) <= 1e-9
    assert abs(out.loglik - ref.loglik) <= 1e-9 * abs(ref.loglik)
    # The six sums read back from the moments: dd carries an N |x|^2-sized
    # cancellation, so a bound relative to |dd| would read rounding in the means.
    sums, ref_sums = sums_from_stats(stats), sums_from_stats(ref_stats)
    for name in ("XX", "XU", "ZZ", "ZU", "XZ", "UU"):
        assert rel(sums[name], ref_sums[name]) <= 1e-9, name
