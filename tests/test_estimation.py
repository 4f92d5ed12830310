"""M-step estimators, constraint projections, and the EM loop."""

import logging
import warnings

import numpy as np
import pytest

from _oracles import bruteforce_terms, dense_M, dense_structure, moments_from_states
from thermem.errors import (
    ConfigurationError,
    ConvergenceError,
    IdentifiabilityError,
    StabilityError,
)
from thermem.estimation import (
    CovarianceConstraint,
    EmConfig,
    EmTrace,
    _Throttle,
    _quadratic_terms,
    _theta_terms,
    build_L,
    em_setup,
    project_constraint,
    run_em,
    update_Q_full,
    update_theta,
)
from thermem.datagen import ToySpec, build_toy
from thermem.graph import SharingScheme, build_operators
from thermem.mesh import build_grid
from thermem.model import ThetaParams, assemble, simulate
from thermem.smoother import accumulate_stats, rtss_steady


def small_setup(nx=2, ny=2, nz=1, seed=0):
    """A 4-compartment-plus-ambient instance with two k classes and sources."""
    mesh = build_grid(nx, ny, nz, role_map=lambda ix, iy, layer: "IGBT")
    mesh = mesh.with_observed(range(mesh.n_compartments))
    scheme = SharingScheme(
        node_group=lambda c: "ambient" if c.is_ambient else "chip",
        k_table={("chip", "chip"): 0, ("ambient", "chip"): 1},
        z_table={"chip": 0},
    )
    ops = build_operators(mesh, scheme)
    rng = np.random.default_rng(seed)
    return mesh, scheme, ops, rng


def zero_stats(n, n_P, N=5):
    return moments_from_states(np.zeros((N, n)), np.zeros((N, n_P)))


def stats_from_run(mesh, scheme, ops, rng, N=30, q=1e-3, r=1e-5):
    theta_true = ThetaParams(k=[0.08, 0.05], z=[0.4])
    observed = mesh.observed_indices
    model = assemble(ops, theta_true, observed, Q=q, R=r)
    P = rng.uniform(0.0, 2.0, (N, ops.n_P))
    traj = simulate(model, np.full(ops.n, 25.0), P, seed=11)
    out = rtss_steady(model, traj.y, traj.P, traj.T[0])
    return out, traj, theta_true


def aggregates(stats, ops, Q_inv, theta):
    """The five Appendix aggregates in bruteforce_terms' order."""
    MQM, MQdT = _quadratic_terms(stats, ops, Q_inv, theta.dtau)
    dTdT, MththM, dTthM = _theta_terms(stats, ops, theta)
    return dTdT, MQM, MththM, MQdT, dTthM


def test_expected_terms_zero_stats_give_zero():
    mesh, scheme, ops, _ = small_setup()
    theta = ThetaParams(k=[0.1, 0.1], z=[0.5])
    for M in aggregates(zero_stats(ops.n, ops.n_P), ops, np.eye(ops.n), theta):
        assert not np.any(M)


@pytest.mark.parametrize("with_cov, diagonal, dtau", [
    pytest.param(False, False, 1.0, id="False"),
    pytest.param(True, False, 1.0, id="True"),
    pytest.param(False, True, 1.0, id="diagonal-False"),
    pytest.param(True, True, 1.0, id="diagonal-True"),
    pytest.param(False, False, 2.0, id="dtau2-False"),
    pytest.param(True, False, 2.0, id="dtau2-True"),
    pytest.param(False, True, 2.0, id="dtau2-diagonal-False"),
    pytest.param(True, True, 2.0, id="dtau2-diagonal-True"),
])
def test_expected_terms_match_bruteforce(with_cov, diagonal, dtau):
    """Dense Q^{-1}, or a non-uniform diagonal one passed as the vector of
    inverse variances (checked against the oracle's np.diag of it), at
    dtau 1 and 2: the M-step divides the per-step moments by dtau itself."""
    mesh, scheme, ops, rng = small_setup(seed=3)
    out, traj, _ = stats_from_run(mesh, scheme, ops, rng)
    theta = ThetaParams(k=[0.06, 0.03], z=[0.3], dtau=dtau)
    if diagonal:
        Q_inv = np.random.default_rng(4).uniform(0.5, 20.0, ops.n)
        Q_inv_ref = np.diag(Q_inv)
    else:
        Q_inv = Q_inv_ref = np.linalg.inv(0.5 * np.eye(ops.n) + 0.1 * np.ones((ops.n, ops.n)))

    if with_cov:
        x, V, V_lag = out.x_smooth, out.V_S_N, out.V_S_lag
        stats = accumulate_stats(out, traj.P)
    else:
        x, V, V_lag = out.x_smooth, None, None
        fake = out
        fake.V_S_N = np.zeros((ops.n, ops.n))
        fake.V_S_lag = np.zeros((ops.n, ops.n))
        stats = accumulate_stats(fake, traj.P)

    got = aggregates(stats, ops, Q_inv, theta)
    ref = bruteforce_terms(mesh, scheme, x, traj.P, Q_inv_ref, theta, V=V, V_S_lag=V_lag)
    names = ("dTdT", "MQM", "MththM", "MQdT", "dTthM")
    for name, g, r_ in zip(names, got, ref):
        scale = max(1.0, np.max(np.abs(r_)))
        np.testing.assert_allclose(g, r_, atol=1e-10 * scale, err_msg=name)


def test_update_theta_scalar_identity_invariant_to_q():
    mesh, scheme, ops, rng = small_setup(seed=7)
    out, traj, _ = stats_from_run(mesh, scheme, ops, rng)
    stats = accumulate_stats(out, traj.P)
    t1 = update_theta(stats, ops, CovarianceConstraint.scalar_identity(1.0, ops.n).precision(),
                      1.0, _Throttle())
    t5 = update_theta(stats, ops, CovarianceConstraint.scalar_identity(5.0, ops.n).precision(),
                      1.0, _Throttle())
    np.testing.assert_allclose(t1.vector, t5.vector, rtol=1e-12)


def test_update_theta_single_edge_exact_recovery():
    # Two coupled compartments, fully observed exact data: one weighted
    # least-squares step recovers k (plain regression oracle).
    mesh, scheme, ops, rng = small_setup(nx=2, ny=1, nz=1)
    k_true, z_true = 0.12, 0.6
    theta_true = ThetaParams(k=[k_true, 0.02], z=[z_true])
    observed = [0, 1, 2]
    model = assemble(ops, theta_true, observed, Q=0.0, R=0.0)
    P = rng.uniform(0.5, 1.5, (12, ops.n_P))
    traj = simulate(model, np.array([30.0, 27.0, 25.0]), P, noiseless=True)

    # Exact states: plain per-step least squares on dT = M theta.
    rows_M = []
    rows_d = []
    S_list, src = dense_structure(mesh, scheme)
    for t in range(traj.N - 1):
        rows_M.append(dense_M(S_list, src, ops.n_k, ops.n_z, traj.T[t], traj.P[t]))
        rows_d.append(traj.T[t + 1] - traj.T[t])
    Mbig = np.vstack(rows_M)
    dbig = np.concatenate(rows_d)
    ref, *_ = np.linalg.lstsq(Mbig, dbig, rcond=None)

    stats = moments_from_states(traj.T, P)
    theta = update_theta(stats, ops, np.ones(ops.n), theta_true.dtau, _Throttle())
    np.testing.assert_allclose(theta.vector, ref, atol=1e-8)
    np.testing.assert_allclose(theta.k[0], k_true, atol=1e-8)
    np.testing.assert_allclose(theta.z[0], z_true, atol=1e-8)


def test_update_theta_names_null_space():
    mesh, scheme, ops, _ = small_setup()
    with pytest.raises(IdentifiabilityError) as err:
        update_theta(zero_stats(ops.n, ops.n_P), ops, np.eye(ops.n), 1.0, _Throttle())
    assert err.value.null_indices


def test_update_Q_full_perfect_fit_is_zero():
    mesh, scheme, ops, rng = small_setup(seed=9)
    theta = ThetaParams(k=[0.07, 0.04], z=[0.5])
    observed = list(range(ops.n))
    model = assemble(ops, theta, observed, Q=0.0, R=0.0)
    P = rng.uniform(0, 1, (15, ops.n_P))
    traj = simulate(model, np.full(ops.n, 20.0), P, noiseless=True)
    stats = moments_from_states(traj.T, P)
    Q_full = update_Q_full(stats, ops, theta)
    # Zero up to float cancellation of the O(T^2 N) statistic magnitudes.
    np.testing.assert_allclose(Q_full, 0.0, atol=1e-12 * np.abs(stats.rr[: ops.n, : ops.n]).max())


def test_update_Q_full_recovers_noise_scale():
    mesh, scheme, ops, rng = small_setup(seed=13)
    theta = ThetaParams(k=[0.07, 0.04], z=[0.5])
    sigma2 = 1e-4
    observed = list(range(ops.n))
    model = assemble(ops, theta, observed, Q=sigma2, R=0.0)
    N = 4000
    P = rng.uniform(0, 1, (N, ops.n_P))
    traj = simulate(model, np.full(ops.n, 20.0), P, seed=21)
    stats = moments_from_states(traj.T, P)
    Q_full = update_Q_full(stats, ops, theta)
    assert np.trace(Q_full) / ops.n == pytest.approx(sigma2, rel=0.2)


def test_update_Q_full_matches_residual_outer_products():
    mesh, scheme, ops, rng = small_setup(seed=15)
    theta = ThetaParams(k=[0.06, 0.05], z=[0.4])
    observed = list(range(ops.n))
    model = assemble(ops, theta, observed, Q=1e-3, R=0.0)
    P = rng.uniform(0, 1, (25, ops.n_P))
    traj = simulate(model, np.full(ops.n, 22.0), P, seed=2)
    stats = moments_from_states(traj.T, P)
    Q_full = update_Q_full(stats, ops, theta)

    S_list, src = dense_structure(mesh, scheme)
    ref = np.zeros((ops.n, ops.n))
    for t in range(traj.N - 1):
        M_t = dense_M(S_list, src, ops.n_k, ops.n_z, traj.T[t], P[t])
        resid = traj.T[t + 1] - traj.T[t] - M_t @ theta.vector
        ref += np.outer(resid, resid)
    ref /= traj.N - 1
    np.testing.assert_allclose(Q_full, ref, atol=1e-12 * max(1, np.abs(ref).max()))


def test_project_scalar_identity_trace():
    c = CovarianceConstraint.scalar_identity(1.0, 2)
    out = project_constraint(np.diag([2.0, 2.0]), c, _Throttle())
    assert out.params.tolist() == [2.0]


def test_project_diagonal_extracts_diagonal():
    c = CovarianceConstraint.diagonal(1.0, 3)
    Q = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 3.0]])
    out = project_constraint(Q, c, _Throttle())
    np.testing.assert_array_equal(out.params, [1.0, 2.0, 3.0])


def test_project_alpha_beta_hand_solution():
    L = np.array([[1.0, 0.0], [1.0, 0.0]])  # LL' = ones(2,2)
    c = CovarianceConstraint.alpha_LL_beta_I(L, 1.0, 1.0)
    out = project_constraint(np.array([[2.0, 1.0], [1.0, 2.0]]), c, _Throttle())
    assert out.params == pytest.approx([1.0, 1.0], abs=1e-12)


def test_project_idempotent():
    rng = np.random.default_rng(3)
    n = 4
    for c in (
        CovarianceConstraint.scalar_identity(0.3, n),
        CovarianceConstraint.diagonal(rng.uniform(0.1, 1.0, n), n),
        CovarianceConstraint.alpha_LL_beta_I(
            (rng.uniform(size=(n, n)) > 0.6).astype(float), 0.2, 0.4
        ),
    ):
        out = project_constraint(c.matrix(), c, _Throttle())
        np.testing.assert_allclose(out.params, c.params, rtol=1e-12)


def test_diagonal_families_build_exact_matrices():
    """qI and diagonal give exactly q I and diag(q_vec), and their inverse
    variances as a vector: EM's results depend on these values bit for bit."""
    n, q = 6, 0.37
    q_vec = np.random.default_rng(8).uniform(0.1, 1.0, n)
    c = CovarianceConstraint.scalar_identity(q, n)
    assert np.array_equal(c.matrix(), q * np.eye(n))
    assert np.array_equal(c.precision(), np.full(n, 1.0 / q))
    d = CovarianceConstraint.diagonal(q_vec, n)
    assert np.array_equal(d.matrix(), np.diag(q_vec))
    assert np.array_equal(d.precision(), 1.0 / q_vec)


@pytest.mark.parametrize("c, Q_full, floored", [
    (CovarianceConstraint.scalar_identity(1.0, 3), -np.eye(3), [1e-12]),
    (CovarianceConstraint.diagonal(1.0, 3), np.diag([-1.0, 2.0, -3.0]), [1e-12, 2.0, 1e-12]),
    (CovarianceConstraint.alpha_LL_beta_I(np.array([[1.0, 0.0], [1.0, 0.0]]), 1.0, 1.0),
     np.diag([-5.0, -5.0]), [1e-12, 1e-12]),
])
def test_project_logs_one_floor_record_per_projection(caplog, c, Q_full, floored):
    with caplog.at_level(logging.DEBUG, logger="thermem.estimation"):
        out = project_constraint(Q_full, c, _Throttle())
    assert out.params.tolist() == pytest.approx(floored, rel=1e-12)
    assert [r.getMessage().startswith("flooring") for r in caplog.records] == [True]


def test_project_collinear_LL_raises():
    c = CovarianceConstraint.alpha_LL_beta_I(np.eye(3), 1.0, 1.0)  # LL' = I
    with pytest.raises(ConfigurationError):
        project_constraint(np.eye(3), c, _Throttle())


def test_project_clamps_nonpositive_fit(caplog):
    L = np.array([[1.0, 0.0], [1.0, 0.0]])
    c = CovarianceConstraint.alpha_LL_beta_I(L, 1.0, 1.0)
    with caplog.at_level(logging.WARNING, logger="thermem.estimation"):
        out = project_constraint(np.diag([-5.0, -5.0]), c, _Throttle())
    assert out.params == pytest.approx([1e-12, 1e-12])
    assert any("flooring" in rec.message for rec in caplog.records)


def test_build_L_two_node_example():
    mesh, scheme, ops, _ = small_setup(nx=1, ny=1, nz=1)
    L = build_L(ops)
    np.testing.assert_array_equal(L, [[1.0, 0.0], [1.0, 0.0]])


def test_build_L_no_edges_is_zero():
    from thermem.graph import GraphOperators

    empty = GraphOperators(
        n=3, n_k=0, n_z=0, n_P=0, ambient_index=2,
        tails=np.zeros(0, dtype=int), heads=np.zeros(0, dtype=int),
        param=np.zeros(0, dtype=int), row=np.zeros(0, dtype=int),
        col=np.zeros(0, dtype=int), val=np.zeros(0),
    )
    np.testing.assert_array_equal(build_L(empty), np.zeros((3, 3)))


def test_build_L_matches_per_edge_loop():
    mesh, scheme, ops, _ = small_setup(3, 2, 2)
    ref = np.zeros((ops.n, ops.n))
    for (i, j, w) in mesh.adjacency:  # edge i -> j marks (j, j) and (j, i)
        ref[j, j] = ref[j, i] = 1.0
    ref[:, mesh.ambient_index] = 0.0
    np.testing.assert_array_equal(build_L(ops), ref)


def test_build_L_pattern_within_A_pattern():
    mesh, scheme, ops, _ = small_setup(3, 2, 2)
    L = build_L(ops)
    theta = ThetaParams(k=[0.05, 0.03], z=[0.1])
    model = assemble(ops, theta, observed=[0], Q=0.0, R=0.0)
    A_pat = (model.A != 0).astype(float)
    A_pat[:, ops.ambient_index] = 0.0
    # Non-ambient rows of L are supported inside A's coupling pattern.
    assert np.all(L[: ops.ambient_index] <= A_pat[: ops.ambient_index] + 1e-12)


def em_toy_problem(seed=0, N=400, noise_q=None):
    mesh = build_grid(
        2, 2, 2, role_map=lambda ix, iy, layer: "IGBT" if layer == 1 else "copper"
    )
    scheme = SharingScheme(
        node_group=lambda c: "ambient" if c.is_ambient else ("chip" if c.role == "IGBT" else "cu"),
        k_table={
            ("chip", "chip"): 0,
            ("chip", "cu"): 1,
            ("cu", "cu"): 2,
            ("ambient", "cu"): 3,
        },
        z_table={"chip": 0},
    )
    ops = build_operators(mesh, scheme)
    theta_true = ThetaParams(k=[0.035, 0.056, 0.022, 0.02], z=[0.4])
    observed = [0, 1, 2, 3, mesh.ambient_index]  # chip layer + ambient
    mesh = mesh.with_observed(observed)
    rng = np.random.default_rng(seed)
    model = assemble(
        ops, theta_true, observed, Q=0.0 if noise_q is None else noise_q, R=0.0
    )
    periods = rng.integers(40, 90, ops.n_P)
    t = np.arange(N)
    P = np.stack([(t % p < p // 2) * 8.0 for p in periods], axis=1)
    traj = simulate(
        model, np.full(ops.n, 25.0), P,
        seed=3, noiseless=noise_q is None,
    )
    return mesh, scheme, ops, theta_true, traj


def two_row_trace():
    trace = EmTrace(theta_names=("k_1", "z_1"), constraint_names=("alpha", "beta"))
    trace.add(1.0, (np.array([0.02, 0.3]), np.array([0.5, 0.125]), -10.5, 1e-3, np.inf))
    trace.add(2.5, (np.array([0.021, 0.31]), np.array([0.25, 0.0625]), -9.25, 2e-3, 0.05))
    return trace


def test_trace_rejected_add_repeats_the_previous_row():
    trace = two_row_trace()
    trace.add(4.0)
    assert len(trace) == 3 and trace.step_length == [1.0, 2.5, 4.0]
    assert trace.rejected == [False, False, True]
    for col in (trace.theta, trace.constraint_params, trace.loglik, trace.q_residual,
                trace.theta_rel_change):
        assert len(col) == 3 and np.array_equal(col[2], col[1])


def test_trace_table_keeps_the_column_order():
    trace = two_row_trace()
    trace.add(4.0)
    names, rows = trace.table()
    assert names == ["iter", "loglik", "theta_rel_change", "q_residual", "k_1", "z_1",
                     "alpha", "beta", "step_length", "rejected"]
    assert rows.dtype == np.float64 and rows.shape == (3, len(names))
    assert np.array_equal(rows[:, 0], [1, 2, 3])
    assert np.array_equal(rows[1], [2, -9.25, 0.05, 2e-3, 0.021, 0.31, 0.25, 0.0625, 2.5, 0])
    assert np.array_equal(rows[2, 1:-2], rows[1, 1:-2]) and list(rows[2, -2:]) == [4.0, 1.0]


def test_run_em_recovers_parameters_noiseless():
    mesh, scheme, ops, theta_true, traj = em_toy_problem()
    cfg = EmConfig(max_iter=800, theta_tol=1e-9, theta_init=1e-2, q_init=1e-2, R=1e-12)
    theta, constraint, trace = run_em(mesh, scheme, traj, cfg, constraint="scalar_identity")
    rel = np.abs(theta.k - theta_true.k) / theta_true.k
    assert rel.max() < 0.02, f"relative k errors {rel}"
    assert trace.stop_reason in ("converged", "max_iter")
    assert len(trace) <= 800


def test_run_em_max_iter_one():
    mesh, scheme, ops, theta_true, traj = em_toy_problem()
    cfg = EmConfig(max_iter=1, R=1e-10)
    theta, constraint, trace = run_em(mesh, scheme, traj, cfg)
    assert len(trace) == 1
    assert trace.stop_reason == "max_iter"


def test_run_em_loglik_monotone_within_tolerance():
    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    cfg = EmConfig(max_iter=40, R=1e-8)
    theta, constraint, trace = run_em(mesh, scheme, traj, cfg)
    ll = np.array(trace.loglik)
    drops = ll[1:] - ll[:-1]
    assert (drops > -1e-6 * (1 + np.abs(ll[:-1]))).mean() > 0.9


def test_run_em_unknown_constraint():
    mesh, scheme, ops, theta_true, traj = em_toy_problem()
    with pytest.raises(ConfigurationError):
        run_em(mesh, scheme, traj, EmConfig(max_iter=1), constraint="banana")


def test_run_em_rejects_theta_init_with_another_dtau():
    # Every E-step after the first runs at the config's dtau, so a start at
    # another dtau would mix two models in one run.
    mesh, scheme, ops, theta_true, traj = em_toy_problem()
    start = ThetaParams(k=theta_true.k, z=theta_true.z, dtau=0.5)
    with pytest.raises(ConfigurationError, match="dtau 0.5 differs from the EM dtau 1"):
        run_em(mesh, scheme, traj, EmConfig(max_iter=2, theta_init=start))


def plain_em_loop(mesh, scheme, traj, cfg, constraint, steps, warm=True):
    """``steps`` em_step calls, warm-started from the last DARE solution or
    cold, their messages throttled as in one run; returns (theta, constraint,
    logliks)."""
    prob, theta, c = em_setup(mesh, scheme, traj, cfg, constraint)
    V, ll, warn = None, [], _Throttle()
    for _ in range(steps):
        theta, c, loglik, V, _ = prob.em_step(theta, c, V if warm else None, warn)
        ll.append(loglik)
    return theta, c, ll


def test_run_em_warm_dare_matches_cold(monkeypatch):
    import thermem.estimation as estimation

    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    cfg = EmConfig(max_iter=20, theta_tol=1e-300, R=1e-8)
    # Plain steps: SQUAREM's long extrapolations magnify the certified DARE
    # residuals of the two paths far beyond the solver tolerance.
    warm, cold = (plain_em_loop(mesh, scheme, traj, cfg, "scalar_identity", 20, w)[0]
                  for w in (True, False))
    np.testing.assert_allclose(warm.vector, cold.vector, rtol=1e-8, atol=0)

    warm_rtss = estimation.rtss_steady
    starts = []

    def cold_rtss(model, Y, P, T_1, V0=None):
        starts.append(V0)
        return warm_rtss(model, Y, P, T_1)

    monkeypatch.setattr(estimation, "rtss_steady", cold_rtss)
    _, _, trace = run_em(mesh, scheme, traj, cfg)
    assert len(trace) == 20
    # run_em hands every E-step after the first the previous DARE solution.
    assert starts[0] is None and all(V is not None for V in starts[1:])


@pytest.mark.parametrize("max_iter", [2, 3, 4, 5, 8, 25])
def test_run_em_runs_max_iter_esteps(monkeypatch, max_iter):
    import thermem.estimation as estimation

    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    calls = []
    real_rtss = estimation.rtss_steady
    monkeypatch.setattr(
        estimation, "rtss_steady", lambda *a, **kw: calls.append(1) or real_rtss(*a, **kw)
    )
    cfg = EmConfig(max_iter=max_iter, theta_tol=1e-300, R=1e-8)
    _, _, trace = run_em(mesh, scheme, traj, cfg)
    assert len(trace) == max_iter == len(calls)
    assert trace.stop_reason == "max_iter"
    assert len(trace.step_length) == len(trace.rejected) == len(trace.loglik) == max_iter


@pytest.mark.parametrize("constraint", ["scalar_identity", "alpha_LL_beta_I"])
def test_run_em_first_cycle_is_plain_em(constraint):
    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    cfg = EmConfig(max_iter=3, theta_tol=1e-300, R=1e-8)
    theta, c, ll = plain_em_loop(mesh, scheme, traj, cfg, constraint, 3)
    theta_run, c_run, trace = run_em(mesh, scheme, traj, cfg, constraint=constraint)
    assert np.array_equal(theta_run.vector, theta.vector)
    assert np.array_equal(c_run.params, c.params)
    assert trace.loglik == ll and trace.step_length == [1.0] * 3


def test_run_em_diagonal_takes_plain_steps():
    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    cfg = EmConfig(max_iter=12, theta_tol=1e-300, R=1e-8)
    theta, c, ll = plain_em_loop(mesh, scheme, traj, cfg, "diagonal", 12)
    theta_run, c_run, trace = run_em(mesh, scheme, traj, cfg, constraint="diagonal")
    assert np.array_equal(theta_run.vector, theta.vector)
    assert np.array_equal(c_run.params, c.params)
    assert trace.loglik == ll and set(trace.step_length) == {1.0}


def test_run_em_accepted_rows_never_lower_loglik(caplog):
    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    cfg = EmConfig(max_iter=40, theta_tol=1e-300, R=1e-8)
    with caplog.at_level(logging.DEBUG, logger="thermem.estimation"):
        _, _, trace = run_em(mesh, scheme, traj, cfg)
    steps, rejected = np.array(trace.step_length), np.array(trace.rejected)
    assert (rejected & (steps > 1)).any() and (~rejected & (steps > 1)).any()
    ll = np.array(trace.loglik)
    for i in np.nonzero(~rejected[1:])[0] + 1:
        assert ll[i] >= ll[i - 1] - 1e-8 * (1 + abs(ll[i - 1])), f"row {i + 1}"
    # A rejected row repeats the row before it; its drop is not reported.
    for i in np.nonzero(rejected)[0]:
        assert np.array_equal(trace.theta[i], trace.theta[i - 1]) and ll[i] == ll[i - 1]
    assert not any(r.getMessage().startswith("log-likelihood decreased") for r in caplog.records)
    assert not any(r.levelno >= logging.WARNING for r in caplog.records)


def test_run_em_rejected_mstep_logs_nothing(monkeypatch, caplog):
    """Every extrapolation completes its M-step (which floors alpha) and is then
    rejected: the run logs exactly the clamps and floors of plain EM."""
    import dataclasses

    import thermem.estimation as estimation

    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    real_rtss, real_exp = estimation.rtss_steady, estimation._exp_point
    extrapolated = []

    def flag_exp(*args):
        extrapolated.append(True)
        return real_exp(*args)

    def unlikely_rtss(*args, **kwargs):
        out = real_rtss(*args, **kwargs)
        if extrapolated:
            extrapolated.clear()
            return dataclasses.replace(out, loglik=-1e300)
        return out

    monkeypatch.setattr(estimation, "_exp_point", flag_exp)
    monkeypatch.setattr(estimation, "rtss_steady", unlikely_rtss)
    cfg = EmConfig(max_iter=20, theta_tol=1e-300, R=1e-8)

    def mstep_records(run):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="thermem.estimation"):
            run()
        return [(r.levelno, r.getMessage()) for r in caplog.records
                if r.getMessage().startswith(("clamping", "flooring"))]

    trace = []
    got = mstep_records(lambda: trace.append(
        run_em(mesh, scheme, traj, cfg, constraint="alpha_LL_beta_I")[2]))
    rejected = sum(trace[0].rejected)
    assert rejected >= 3 and rejected == sum(s > 1 for s in trace[0].step_length)
    want = mstep_records(lambda: plain_em_loop(
        mesh, scheme, traj, cfg, "alpha_LL_beta_I", 20 - rejected))
    assert got == want and len(got) > 5


def test_run_em_last_rejected_row_returns_x2():
    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    cfg = EmConfig(max_iter=40, theta_tol=1e-300, R=1e-8)
    _, _, full = run_em(mesh, scheme, traj, cfg)
    first = full.rejected.index(True) + 1
    cfg.max_iter = first
    theta, c, trace = run_em(mesh, scheme, traj, cfg)
    assert trace.rejected[-1] and not trace.rejected[-2]
    # x2 is the output of the plain step before the rejected extrapolation.
    assert np.array_equal(theta.vector, full.theta[first - 2])
    assert np.array_equal(c.params, full.constraint_params[first - 2])


@pytest.mark.parametrize("error", [StabilityError, ConvergenceError, "huge q"])
def test_run_em_failed_extrapolation_falls_back(monkeypatch, error):
    import thermem.estimation as estimation

    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    real_rtss, real_exp = estimation.rtss_steady, estimation._exp_point
    extrapolated = []

    def flag_exp(u, *args):
        extrapolated.append(True)
        if error == "huge q":  # q = e^400: finite, but the E-step's q^2 is not
            u = np.concatenate([u[:-1], [400.0]])
        return real_exp(u, *args)

    def failing_rtss(*args, **kwargs):
        if extrapolated:
            extrapolated.clear()
            if error != "huge q":
                raise error("extrapolated point refused")
        return real_rtss(*args, **kwargs)

    monkeypatch.setattr(estimation, "_exp_point", flag_exp)
    monkeypatch.setattr(estimation, "rtss_steady", failing_rtss)
    cfg = EmConfig(max_iter=30, theta_tol=1e-300, R=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        theta, c, trace = run_em(mesh, scheme, traj, cfg)
    steps, rejected = np.array(trace.step_length), np.array(trace.rejected)
    assert len(trace) == 30 and rejected.sum() >= 3
    assert np.array_equal(rejected, steps > 1)  # every extrapolation fell back
    for col in (trace.theta, trace.constraint_params, trace.loglik, trace.theta_rel_change):
        assert np.isfinite(np.asarray(col)).all()
    assert np.isfinite(theta.vector).all() and np.isfinite(c.params).all()
    # Fallback rows go on from x2: every non-rejected step is plain EM.
    plain, _, ll = plain_em_loop(mesh, scheme, traj, cfg, "scalar_identity", 30 - rejected.sum())
    np.testing.assert_allclose(theta.vector, plain.vector, rtol=1e-6)


def test_run_em_floor_warnings_rate_limited(caplog):
    mesh, scheme, ops, theta_true, traj = em_toy_problem(noise_q=1e-5, seed=4)
    cfg = EmConfig(max_iter=20, theta_tol=1e-300, R=1e-8)
    with caplog.at_level(logging.DEBUG, logger="thermem.estimation"):
        run_em(mesh, scheme, traj, cfg, constraint="alpha_LL_beta_I")
    floors = [r for r in caplog.records if r.getMessage().startswith("flooring")]
    levels = [r.levelno for r in floors]
    assert levels[:5] == [logging.WARNING] * 5 and set(levels[5:]) == {logging.DEBUG}
    assert "further ones logged at DEBUG" in floors[4].getMessage()


def test_dense_q_terms_match_dense_products_on_full_module():
    """With a dense Q^{-1} (alpha LL' + beta I) the normal matrix and the
    right-hand side read Q^{-1} X only at G's nonzeros; at n=817 they agree
    with the traces of the full products."""
    mesh, _, strong = build_toy(ToySpec.full())
    ops = build_operators(mesh, strong)
    rng = np.random.default_rng(2)
    N = 60
    x = rng.normal(25.0, 1.0, (N, ops.n))
    P = rng.uniform(0.0, 1.0, (N - 1, ops.n_P))
    stats = moments_from_states(x, P)
    Q_inv = CovarianceConstraint.alpha_LL_beta_I(build_L(ops), 1e-3, 1e-4).precision()
    MQM, rhs = _quadratic_terms(stats, ops, Q_inv, 1.0)

    rr, dr = stats.rr, stats.dr
    G = [ops.regressor(e).toarray() for e in np.eye(ops.n_theta)]
    QGrr = [Q_inv @ (G_j @ rr) for G_j in G]
    ref_MQM = np.array([[np.sum(G_i * QG_j) for QG_j in QGrr] for G_i in G])
    ref_rhs = np.array([np.sum(G_i * (Q_inv @ dr)) for G_i in G])
    assert np.max(np.abs(MQM - ref_MQM)) <= 1e-12 * np.max(np.abs(ref_MQM))
    assert np.max(np.abs(rhs - ref_rhs)) <= 1e-12 * np.max(np.abs(ref_rhs))
