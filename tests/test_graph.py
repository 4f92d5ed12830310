"""Graph operator assembly: edge list and the sparse regressor G(theta)."""

import numpy as np
import pytest

from _oracles import dense_structure, grid_cells
from thermem.errors import ConfigurationError
from thermem.graph import SharingScheme, build_operators
from thermem.mesh import build_grid
from thermem.model import ThetaParams, assemble


def single_class_scheme():
    return SharingScheme(
        node_group=lambda c: "any",
        k_table={("any", "any"): 0},
        z_table={"any": 0},
        name="single",
    )


@pytest.mark.parametrize(
    "shape, refined",
    [((1, 1, 1), False), ((2, 2, 2), False), ((3, 3, 2), True)],
    ids=["two-node", "2x2x2", "refined-3x3x2"],
)
def test_assemble_matches_dense_structure(shape, refined):
    mesh = build_grid(
        *shape,
        role_map=lambda ix, iy, layer: "IGBT" if layer == 1 else "copper",
        refine=[(1, 1, 1)] if refined else [],
    )
    scheme = SharingScheme(
        node_group=lambda c: "ambient" if c.is_ambient else "cell",
        k_table={("cell", "cell"): 0, ("ambient", "cell"): 1},
        z_table={"cell": 0},
    )
    S_list, src = dense_structure(mesh, scheme)
    rng = np.random.default_rng(1)
    theta = ThetaParams(k=rng.uniform(0.01, 0.05, 2), z=rng.uniform(0.1, 1.0, 1), dtau=0.7)
    model = assemble(build_operators(mesh, scheme), theta, observed=[mesh.ambient_index])
    A_ref = np.eye(mesh.n_compartments) - theta.dtau * sum(
        k_a * S_a for k_a, S_a in zip(theta.k, S_list)
    )
    B_ref = np.zeros((mesh.n_compartments, len(src)))
    for p, (comp, zc) in enumerate(src):
        B_ref[comp, p] = theta.dtau * theta.z[zc]
    np.testing.assert_allclose(model.A, A_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(model.B, B_ref, rtol=0, atol=1e-14)


def test_edge_count_examples():
    assert len(build_operators(build_grid(1, 1, 1), single_class_scheme()).tails) == 2
    assert len(build_operators(build_grid(2, 2, 1), single_class_scheme()).tails) == 16  # 8 pairs


def two_class_scheme():
    return SharingScheme(
        node_group=lambda c: "ambient" if c.is_ambient else "cell",
        k_table={("cell", "cell"): 0, ("ambient", "cell"): 1},
        z_table={"cell": 0},
    )


def test_reversed_edges_share_scale_and_class():
    m = build_grid(3, 3, 2, refine=[(1, 1, 1)])
    ops = build_operators(m, two_class_scheme())
    cells = np.arange(ops.n) != ops.ambient_index
    # Edge t -> h puts -w at (h, t) of its class; its reverse puts -w at (t, h).
    off = [-ops.regressor(e_a)[:, : ops.n].toarray()[np.ix_(cells, cells)] for e_a in np.eye(2)]
    for S_a in off:
        np.fill_diagonal(S_a, 0.0)
        np.testing.assert_array_equal(S_a, S_a.T)
    assert np.count_nonzero(off[0]) > 0 and np.count_nonzero(off[1]) == 0


def random_sourced_mesh(seed):
    """A grid with IGBT and diode sources on layer 1, some inactive layer-1
    cells pruned, and a random nonempty subset of the other base cells split."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 4))
    roles = rng.choice(["IGBT", "diode", "copper", "inactive"], size=(nx, ny))
    roles[0, 0], roles[1, 0] = "IGBT", "diode"

    def role_map(ix, iy, layer):
        return roles[ix, iy] if layer == 1 else "copper"

    base = [(layer, ox // 2, oy // 2) for layer, oy, ox, _, _ in grid_cells(nx, ny, nz, role_map)]
    picked = [base[int(i)] for i in rng.permutation(len(base))[: int(rng.integers(1, len(base) + 1))]]
    return build_grid(nx, ny, nz, role_map=role_map, prune=True, refine=picked)


def test_regressor_matches_dense_structure_on_random_meshes():
    """G(theta) = [-sum_a k_a S_a, S_z(z)] against the per-edge oracle, with
    three conductance classes and separate IGBT and diode gains."""
    groups = ("IGBT", "ambient", "cu", "diode")
    pairs = [(g, h) for i, g in enumerate(groups) for h in groups[i:]]
    scheme = SharingScheme(
        node_group=lambda c: c.role if c.has_source else ("ambient" if c.is_ambient else "cu"),
        k_table={pair: i % 3 for i, pair in enumerate(pairs)},
        z_table={"IGBT": 0, "diode": 1},
    )
    rng = np.random.default_rng(3)
    for seed in range(24):
        mesh = random_sourced_mesh(seed)
        ops = build_operators(mesh, scheme)
        S_list, src = dense_structure(mesh, scheme)
        k, z = rng.uniform(0.01, 0.1, 3), rng.uniform(0.1, 1.0, 2)
        S_z = np.zeros((ops.n, len(src)))
        for p, (comp, zc) in enumerate(src):
            S_z[comp, p] = z[zc]
        G_ref = np.hstack([-sum(k_a * S_a for k_a, S_a in zip(k, S_list)), S_z])
        G = ops.regressor(np.concatenate([k, z]))
        assert sum(np.any(S_a) for S_a in S_list) >= 2 and {zc for _, zc in src} == {0, 1}
        np.testing.assert_allclose(G.toarray(), G_ref, rtol=0, atol=1e-14, err_msg=f"seed {seed}")


def test_uncovered_pair_raises_named_configuration_error():
    m = build_grid(2, 1, 1, role_map=lambda ix, iy, layer: "IGBT" if ix == 0 else "diode")
    scheme = SharingScheme(
        node_group=lambda c: c.role,
        k_table={("IGBT", "IGBT"): 0},
        z_table={"IGBT": 0, "diode": 0},
    )
    with pytest.raises(ConfigurationError, match="IGBT <-> diode"):
        build_operators(m, scheme)


def test_class_counts_come_from_the_tables():
    scheme = SharingScheme(
        node_group=lambda c: c.role,
        k_table={("IGBT", "IGBT"): 0, ("IGBT", "diode"): 2},
        z_table={"IGBT": 0, "diode": 1},
        k_names=("a", "b", "c"),
    )
    assert (scheme.n_k, scheme.n_z) == (3, 2)
    empty = SharingScheme(lambda c: "any", {}, {})
    assert (empty.n_k, empty.n_z) == (0, 0)


@pytest.mark.parametrize(
    "k_names, z_names, message",
    [(("a", "b"), (), "2 k_names for 3 k classes"), ((), ("z", "w"), "2 z_names for 1 z classes")],
)
def test_class_names_must_match_class_count(k_names, z_names, message):
    with pytest.raises(ConfigurationError, match=message):
        SharingScheme(
            node_group=lambda c: "any",
            k_table={("any", "any"): 2},
            z_table={"any": 0},
            k_names=k_names,
            z_names=z_names,
        )


@pytest.mark.parametrize(
    "k_table, z_table",
    [({("any", "any"): -1}, {"any": 0}), ({("any", "any"): 0}, {"any": -1})],
    ids=["k", "z"],
)
def test_negative_class_index_raises(k_table, z_table):
    with pytest.raises(ConfigurationError, match="negative"):
        SharingScheme(node_group=lambda c: "any", k_table=k_table, z_table=z_table)


def test_ambient_row_of_coupling_is_zero():
    m = build_grid(2, 2, 2)
    ops = build_operators(m, single_class_scheme())
    S = -ops.regressor(np.array([0.3, 0.0]))[:, : ops.n].toarray()
    assert np.all(S[ops.ambient_index] == 0)
    # Rows of the coupling operator sum to zero, so A rows sum to one.
    assert np.allclose(S.sum(axis=1), 0.0, atol=1e-14)
