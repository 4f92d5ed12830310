"""State matrix assembly, regression identity, simulation."""

import warnings

import numpy as np
import pytest

from _oracles import dense_M, dense_structure, rollout_loop
from thermem.datagen import ToySpec, build_toy, strong_theta, toy_inputs
from thermem.errors import DivergenceError, StabilityError
from thermem.graph import SharingScheme, build_operators
from thermem.mesh import build_grid
from thermem.model import (
    ThetaParams,
    _psd_factor,
    assemble,
    initial_state_from_observation,
    predict,
    simulate,
)


def pair_mesh_ops():
    """Two coupled cells plus ambient; separate classes for cell-cell and
    cell-ambient couplings so the ambient link can be switched off."""
    m = build_grid(2, 1, 1, role_map=lambda ix, iy, layer: "copper")
    scheme = SharingScheme(
        node_group=lambda c: "ambient" if c.is_ambient else "cell",
        k_table={("cell", "cell"): 0, ("ambient", "cell"): 1},
        z_table={"cell": 0},
    )
    return m, build_operators(m, scheme)


def rand_mesh_scheme(nx=2, ny=2, nz=2, n_roles=2):
    roles = ["copper", "substrate"][:n_roles]
    m = build_grid(
        nx, ny, nz,
        role_map=lambda ix, iy, layer: roles[(ix + iy + layer) % len(roles)],
        source_roles={"copper"},
    )
    groups = sorted({("ambient" if c.is_ambient else f"{c.role}{c.layer}") for c in m.compartments})
    pairs = sorted({
        tuple(sorted((g1, g2))) for g1 in groups for g2 in groups
    })
    k_table = {p: i for i, p in enumerate(pairs)}
    z_table = {g: i for i, g in enumerate(g for g in groups if g != "ambient")}
    scheme = SharingScheme(
        node_group=lambda c: "ambient" if c.is_ambient else f"{c.role}{c.layer}",
        k_table=k_table,
        z_table=z_table,
    )
    return m, scheme


def rand_ops(nx=2, ny=2, nz=2, n_roles=2, seed=0):
    m, scheme = rand_mesh_scheme(nx, ny, nz, n_roles)
    return m, build_operators(m, scheme), np.random.default_rng(seed)


def test_assemble_two_compartments_matches_hand_matrix():
    _, ops = pair_mesh_ops()
    theta = ThetaParams(k=[0.1, 0.0], z=[0.0], dtau=1.0)
    model = assemble(ops, theta, observed=[0, 1, 2])
    expected = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(model.A, expected, atol=1e-15)


def test_assemble_zero_k_gives_identity():
    _, ops = pair_mesh_ops()
    model = assemble(ops, ThetaParams(k=[0.0, 0.0], z=[1.0]), observed=[0])
    np.testing.assert_array_equal(model.A, np.eye(3))


def test_row_sums_equal_one_for_strong_toy_values():
    m, ops, _ = rand_ops(3, 3, 3)
    k = np.linspace(0.01, 0.05, ops.n_k)
    model = assemble(ops, ThetaParams(k=k, z=np.full(ops.n_z, 0.3)), observed=[0])
    np.testing.assert_allclose(model.A.sum(axis=1), 1.0, atol=1e-12)


def test_ambient_row_is_identity():
    m, ops, _ = rand_ops(2, 2, 2, seed=3)
    k = np.full(ops.n_k, 0.07)
    model = assemble(ops, ThetaParams(k=k, z=np.ones(ops.n_z)), observed=[0])
    row = np.zeros(ops.n)
    row[ops.ambient_index] = 1.0
    np.testing.assert_array_equal(model.A[ops.ambient_index], row)


def test_assemble_rejects_unstable_step():
    _, ops = pair_mesh_ops()
    with pytest.raises(StabilityError):
        assemble(ops, ThetaParams(k=[0.9, 0.9], z=[0.0]), observed=[0])


def test_regression_identity_random_instances():
    m, scheme = rand_mesh_scheme(2, 2, 2)
    ops = build_operators(m, scheme)
    S_list, src = dense_structure(m, scheme)
    rng = np.random.default_rng(1)
    for trial in range(5):
        k = rng.uniform(0.0, 0.05, ops.n_k)
        z = rng.uniform(0.0, 1.0, ops.n_z)
        theta = ThetaParams(k=k, z=z, dtau=0.7)
        model = assemble(ops, theta, observed=[0])
        T_t = rng.normal(25.0, 5.0, ops.n)
        P_t = rng.uniform(0.0, 3.0, ops.n_P)
        M_t = dense_M(S_list, src, ops.n_k, ops.n_z, T_t, P_t)
        lhs = T_t + theta.dtau * M_t @ theta.vector
        rhs = model.A @ T_t + model.B @ P_t
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_regression_matrix_trivial_blocks():
    m, scheme = rand_mesh_scheme(2, 2, 1)
    ops = build_operators(m, scheme)
    S_list, src = dense_structure(m, scheme)
    M = dense_M(S_list, src, ops.n_k, ops.n_z, np.full(ops.n, 30.0), np.zeros(ops.n_P))
    np.testing.assert_array_equal(M, np.zeros_like(M))
    M2 = dense_M(S_list, src, ops.n_k, ops.n_z, np.arange(ops.n, dtype=float), np.zeros(ops.n_P))
    np.testing.assert_array_equal(M2[:, ops.n_k:], 0.0)


def make_model(A, B=None, C=None, Q=0.0, R=0.0):
    from thermem.model import StateSpaceModel

    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    B = np.zeros((n, 1)) if B is None else np.asarray(B, dtype=float)
    C = np.eye(n) if C is None else np.asarray(C, dtype=float)
    Qm = Q * np.eye(n) if np.isscalar(Q) else Q
    Rm = R * np.eye(C.shape[0]) if np.isscalar(R) else R
    return StateSpaceModel(A=A, B=B, C=C, Q=Qm, R=Rm)


def test_simulate_identity_is_constant():
    model = make_model(np.eye(3))
    traj = simulate(model, [1.0, 2.0, 3.0], np.zeros((10, 1)), noiseless=True)
    np.testing.assert_array_equal(traj.T, np.tile([1.0, 2.0, 3.0], (10, 1)))


def test_simulate_two_compartment_single_step():
    model = make_model([[0.9, 0.1], [0.1, 0.9]])
    traj = simulate(model, [1.0, 0.0], np.zeros((2, 1)), noiseless=True)
    np.testing.assert_allclose(traj.T[1], [0.9, 0.1], atol=1e-15)


def test_offset_equivariance():
    m, ops, rng = rand_ops(2, 2, 2, seed=5)
    theta = ThetaParams(k=np.full(ops.n_k, 0.03), z=np.full(ops.n_z, 0.2))
    model = assemble(ops, theta, observed=[0, ops.ambient_index])
    P = rng.uniform(0, 2, (50, ops.n_P))
    T1 = rng.normal(25, 3, ops.n)
    base = predict(model, T1, P)
    shifted = predict(model, T1 + 7.5, P)
    np.testing.assert_allclose(shifted.T, base.T + 7.5, atol=1e-9)


def test_simulate_reproducible_and_seed_sensitive():
    model = make_model([[0.95, 0.05], [0.05, 0.95]], Q=1e-4, R=1e-6)
    P = np.zeros((20, 1))
    a = simulate(model, [1.0, 0.0], P, seed=42)
    b = simulate(model, [1.0, 0.0], P, seed=42)
    c = simulate(model, [1.0, 0.0], P, seed=43)
    np.testing.assert_array_equal(a.T, b.T)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_simulate_divergence_reports_step():
    model = make_model([[2.0, 0.0], [0.0, 2.0]])  # wildly unstable
    with pytest.raises(DivergenceError):
        simulate(model, [1e300, 1e300], np.zeros((40, 1)), noiseless=True)


def test_simulate_divergence_raises_without_warnings():
    model = make_model([[2.0, 0.0], [0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            simulate(model, [1e300, 1e300], np.zeros((40, 1)), noiseless=True)


def test_psd_factor_cholesky_when_definite_eigen_when_singular():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 6))
    Q_pd = M @ M.T + np.eye(6)
    np.testing.assert_array_equal(_psd_factor(Q_pd), np.linalg.cholesky(Q_pd))
    # Singular with a zero diagonal entry, like AAt noise at the ambient.
    Q_sing = Q_pd.copy()
    Q_sing[-1, :] = Q_sing[:, -1] = 0.0
    vals, vecs = np.linalg.eigh(Q_sing)
    F = _psd_factor(Q_sing)
    np.testing.assert_array_equal(F, vecs * np.sqrt(np.clip(vals, 0.0, None)))
    np.testing.assert_allclose(F @ F.T, Q_sing, atol=1e-12)


def test_predict_equals_noiseless_simulate():
    model = make_model([[0.9, 0.1], [0.1, 0.9]], B=np.array([[0.5], [0.0]]))
    P = np.linspace(0, 1, 30)[:, None]
    np.testing.assert_array_equal(
        predict(model, [0.0, 0.0], P).T, simulate(model, [0.0, 0.0], P, noiseless=True).T
    )


@pytest.fixture(scope="module", params=["reduced", "full"])
def toy_model(request):
    """The strong-scheme toy module with its selector C and qI process noise."""
    spec = ToySpec.reduced() if request.param == "reduced" else ToySpec.full()
    mesh, _, strong = build_toy(spec)
    observed = mesh.observed_indices
    model = assemble(build_operators(mesh, strong), strong_theta(spec), observed, Q=1e-4, R=1e-4)
    return model, np.full(model.n, ToySpec.ambient_temp), toy_inputs(spec, mesh, 300)


@pytest.mark.parametrize("noiseless", [True, False])
def test_simulate_selector_outputs_equal_dense_product(toy_model, noiseless):
    model, T1, P = toy_model
    traj = simulate(model, T1, P, seed=5, noiseless=noiseless)
    y = traj.T @ model.C.T
    if not noiseless:  # the measurement noise is drawn after the process noise
        rng = np.random.default_rng(5)
        rng.standard_normal((P.shape[0] - 1, model.n))
        y += rng.standard_normal((P.shape[0], model.n_y)) @ _psd_factor(model.R).T
    np.testing.assert_array_equal(traj.y, y)


@pytest.mark.parametrize("zero_columns", [False, True])
def test_simulate_dense_observation_matches_dense_product(zero_columns):
    rng = np.random.default_rng(11)
    A = np.diag(rng.uniform(0.5, 0.9, 8)) + 0.01 * rng.uniform(size=(8, 8))
    C = rng.normal(size=(3, 8))
    if zero_columns:
        C[:, ::2] = 0.0
    model = make_model(A, B=rng.normal(size=(8, 2)), C=C, Q=1e-4, R=1e-4)
    P = rng.uniform(0, 1, (200, 2))
    for noiseless in (True, False):
        traj = simulate(model, rng.normal(25, 3, 8), P, seed=2, noiseless=noiseless)
        ref = traj.T @ C.T
        if not noiseless:
            r = np.random.default_rng(2)
            r.standard_normal((199, 8))
            ref += r.standard_normal((200, 3)) @ _psd_factor(model.R).T
        assert np.max(np.abs(traj.y - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [12, 500])
@pytest.mark.parametrize("zero_rows", [False, True])
def test_predict_with_and_without_zero_input_rows_matches_loop(n, zero_rows):
    """The stepped rollout at a small and a large operator size against the loop."""
    rng = np.random.default_rng(n)
    A = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 6 / n) + np.eye(n)
    A *= 0.98 / A.sum(axis=1, keepdims=True)
    B = rng.normal(size=(n, 3))
    if zero_rows:
        B[rng.uniform(size=n) < 0.7] = 0.0
        assert 0 < np.count_nonzero(B.any(axis=1)) < n
    model = make_model(A, B=B, C=np.eye(n)[:2])
    T1, P = rng.normal(25, 3, n), rng.uniform(0, 1, (300, 3))
    ref = rollout_loop(A, B, T1, P[:-1])
    assert np.max(np.abs(predict(model, T1, P).T - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_initial_state_from_observation():
    y1 = np.array([31.0, 29.0, 25.0])
    T1 = initial_state_from_observation(y1, observed=[0, 2, 5], ambient_index=5, n=6)
    np.testing.assert_array_equal(T1, [31.0, 25.0, 29.0, 25.0, 25.0, 25.0])
    with pytest.raises(ValueError):
        initial_state_from_observation(y1, observed=[0, 2, 4], ambient_index=5, n=6)


def test_theta_params_validation():
    with pytest.raises(ValueError):
        ThetaParams(k=[-0.1], z=[0.0])
    with pytest.raises(ValueError):
        ThetaParams(k=[0.1], z=[0.0], dtau=0.0)
