"""Synthetic module construction and dataset generation."""

import dataclasses

import numpy as np
import pytest
from _oracles import grid_cells

from thermem.datagen import (
    STRONG_K_TRUE,
    WEAK_K_TRUE,
    NoiseSpec,
    ToySpec,
    build_toy,
    generate_dataset,
    process_covariance,
    strong_theta,
    toy_inputs,
    weak_scheme,
    weak_theta,
)
from thermem.graph import build_operators
from thermem.mesh import ROLE_IGBT
from thermem.model import ThetaParams, assemble, predict


def test_full_toy_structure():
    spec = ToySpec.full()
    mesh, weak, strong = build_toy(spec)
    assert mesh.n_compartments == 817
    assert [len(mesh.indices(layer=l)) for l in (1, 2, 3, 4)] == [117, 359, 170, 170]
    observed = [c for c in mesh.compartments if c.observed]
    assert len(observed) == 42
    assert mesh.compartments[mesh.ambient_index].observed
    obs_igbt = [c for c in observed if c.role == ROLE_IGBT]
    assert len(obs_igbt) == 40
    assert weak.n_k == 12 and strong.n_k == 5
    assert weak.n_z == strong.n_z == 1


@pytest.mark.parametrize("spec", [ToySpec.reduced(), ToySpec.full()], ids=lambda s: s.name)
def test_toy_mesh_equals_grid_prune_refine(spec):
    """The toy mesh is its pruned grid with exactly the listed cells split,
    sources on the IGBT cells, in canonical order."""
    from thermem.datagen import toy_role_map

    listed = [(1, *xy) for xy in spec.layer1_refine] + [(2, *xy) for xy in spec.layer2_refine]
    mesh = build_toy(spec)[0]
    cells = [c for c in mesh.compartments if not c.is_ambient]
    assert [(c.layer, c.oy, c.ox, c.span, c.role) for c in cells] == grid_cells(
        spec.nx, spec.ny, spec.nz, toy_role_map(spec), listed
    )
    assert [c.index for c in mesh.compartments] == list(range(mesh.n_compartments))
    assert all(c.has_source == (c.role == ROLE_IGBT) for c in mesh.compartments)


def test_reduced_toy_structure():
    spec = ToySpec.reduced()
    mesh, weak, strong = build_toy(spec)
    assert [len(mesh.indices(layer=l)) for l in (1, 2, 3, 4)] == [24, 63, 45, 45]
    assert mesh.n_compartments == 24 + 63 + 45 + 45 + 1
    assert sum(1 for c in mesh.compartments if c.observed) == 10
    ops_w = build_operators(mesh, weak)
    ops_s = build_operators(mesh, strong)
    # Every sharing class is populated on the reduced layout too.
    for ops, n_k in ((ops_w, 12), (ops_s, 5)):
        assert ops.n_k == n_k
        assert all(ops.regressor(e).nnz > 0 for e in np.eye(ops.n_theta))


def test_table_values():
    np.testing.assert_array_equal(
        WEAK_K_TRUE,
        [0.035, 0.015, 0.024, 0.022, 0.044, 0.020, 0.056, 0.052, 0.052, 0.047, 0.062, 0.020],
    )
    np.testing.assert_array_equal(STRONG_K_TRUE, [0.025, 0.029, 0.053, 0.055, 0.020])


def test_sources_are_igbt_only():
    spec = ToySpec.reduced()
    mesh, _, _ = build_toy(spec)
    sources = [c for c in mesh.compartments if c.has_source]
    assert sources and all(c.role == ROLE_IGBT for c in sources)


def test_toy_inputs_shape_and_levels():
    spec = ToySpec.reduced()
    mesh, _, _ = build_toy(spec)
    P = toy_inputs(spec, mesh, 500)
    n_src = sum(1 for c in mesh.compartments if c.has_source)
    assert P.shape == (500, n_src)
    assert set(np.unique(P)) == {0.0, spec.pulse_amp}


def test_generate_deterministic_under_seed():
    spec = ToySpec.reduced()
    mesh, weak, strong = build_toy(spec)
    a, _ = generate_dataset(mesh, weak, weak_theta(spec), NoiseSpec.AAt(1e-4), 50, seed=9, spec=spec)
    b, _ = generate_dataset(mesh, weak, weak_theta(spec), NoiseSpec.AAt(1e-4), 50, seed=9, spec=spec)
    c, _ = generate_dataset(mesh, weak, weak_theta(spec), NoiseSpec.AAt(1e-4), 50, seed=10, spec=spec)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.T, b.T)
    assert not np.array_equal(a.y, c.y)


def test_noiseless_dataset_equals_predict():
    spec = ToySpec.reduced()
    mesh, weak, _ = build_toy(spec)
    traj, model = generate_dataset(mesh, weak, weak_theta(spec), NoiseSpec.none(), 60, seed=1, spec=spec)
    again = predict(model, np.full(model.n, spec.ambient_temp), traj.P)
    np.testing.assert_array_equal(traj.T, again.T)
    np.testing.assert_array_equal(traj.y, again.y)


def test_zero_sigma_AAt_is_noiseless():
    spec = ToySpec.reduced()
    mesh, weak, _ = build_toy(spec)
    a, _ = generate_dataset(mesh, weak, weak_theta(spec), NoiseSpec.AAt(0.0), 40, seed=2, spec=spec)
    b, _ = generate_dataset(mesh, weak, weak_theta(spec), NoiseSpec.none(), 40, seed=3, spec=spec)
    np.testing.assert_array_equal(a.T, b.T)


def test_process_covariance_zeroes_ambient():
    spec = ToySpec.reduced()
    mesh, weak, _ = build_toy(spec)
    ops = build_operators(mesh, weak)
    model = assemble(ops, weak_theta(spec), [0, mesh.ambient_index], Q=0.0, R=0.0)
    Q = process_covariance(NoiseSpec.AAt(1e-4), model.A, mesh.ambient_index)
    amb = mesh.ambient_index
    assert np.all(Q[amb] == 0) and np.all(Q[:, amb] == 0)
    Abar = model.A.copy()
    Abar[amb] = 0.0
    np.testing.assert_allclose(Q, 1e-4 * Abar @ Abar.T, atol=1e-18)
    # PSD with the single zero mode on the ambient axis.
    eigs = np.linalg.eigvalsh(Q)
    assert eigs.min() > -1e-18


def test_q_iso_covariance_is_sigma2_identity_without_ambient():
    A = np.random.default_rng(0).normal(size=(4, 4))
    expected = 2e-4 * np.eye(4)
    expected[2, 2] = 0.0
    np.testing.assert_array_equal(process_covariance(NoiseSpec.q_iso(2e-4), A, 2), expected)


def test_AAt_residual_covariance_monte_carlo():
    # Small fully observed instance; one-step residuals of the generated data
    # must reproduce sigma^2 A A' (ambient excluded).
    from thermem.graph import SharingScheme
    from thermem.mesh import build_grid

    mesh = build_grid(2, 2, 1, role_map=lambda ix, iy, layer: "IGBT")
    mesh = mesh.with_observed(range(mesh.n_compartments))
    scheme = SharingScheme(
        node_group=lambda c: "ambient" if c.is_ambient else "chip",
        k_table={("chip", "chip"): 0, ("ambient", "chip"): 1},
        z_table={"chip": 0},
    )
    theta = ThetaParams(k=[0.08, 0.05], z=[0.4])
    sigma2 = 1e-4
    N = 100_000
    rng = np.random.default_rng(0)
    P = rng.uniform(0, 2, (N, 4))
    traj, model = generate_dataset(
        mesh, scheme, theta, NoiseSpec.AAt(sigma2), N, seed=5, spec=ToySpec.reduced(), P=P
    )
    resid = traj.T[1:] - traj.T[:-1] @ model.A.T - traj.P[:-1] @ model.B.T
    sample_cov = resid.T @ resid / (N - 1)
    Q_true = process_covariance(NoiseSpec.AAt(sigma2), model.A, mesh.ambient_index)
    rel = np.linalg.norm(sample_cov - Q_true) / np.linalg.norm(Q_true)
    assert rel < 0.10


def test_rise_exceeds_ten_degrees():
    spec = ToySpec.reduced()
    mesh, weak, strong = build_toy(spec)
    traj, _ = generate_dataset(mesh, weak, weak_theta(spec), NoiseSpec.none(), 18000, seed=1, spec=spec)
    assert traj.T.max() - spec.ambient_temp > 10.0
    traj_s, _ = generate_dataset(mesh, strong, strong_theta(spec), NoiseSpec.none(), 18000, seed=1, spec=spec)
    assert traj_s.T.max() - spec.ambient_temp > 9.0


def test_bad_layer_population_raises():
    from thermem.errors import ConfigurationError

    bad = dataclasses.replace(ToySpec.reduced(), expected_layer_counts=(1, 2, 3, 4))
    with pytest.raises(ConfigurationError):
        build_toy(bad)
