"""Graph operator assembly: edge arrays, coupling matrices, source map."""

import numpy as np
import pytest

from _oracles import dense_structure
from thermem.errors import ConfigurationError
from thermem.graph import SharingScheme, build_operators
from thermem.mesh import build_grid, refine
from thermem.model import ThetaParams, assemble


def single_class_scheme():
    return SharingScheme.from_tables(
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
    mesh = build_grid(*shape, role_map=lambda ix, iy, layer: "IGBT" if layer == 1 else "copper")
    if refined:
        mesh = refine(mesh, mesh.indices(layer=1)[4])
    scheme = SharingScheme.from_tables(
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
    assert build_operators(build_grid(1, 1, 1), single_class_scheme()).m == 2
    assert build_operators(build_grid(2, 2, 1), single_class_scheme()).m == 16  # 8 pairs


def test_reversed_edges_share_scale_and_class():
    m = build_grid(3, 3, 2)
    m = refine(m, m.indices(layer=1)[4])
    ops = build_operators(m, single_class_scheme())
    pairs = {(t, h): (w, c) for t, h, w, c in zip(ops.tails, ops.heads, ops.weights, ops.k_class)}
    for (t, h), (w, c) in pairs.items():
        w2, c2 = pairs[(h, t)]
        assert w2 == w and c2 == c


def test_uncovered_pair_raises_named_configuration_error():
    m = build_grid(2, 1, 1, role_map=lambda ix, iy, layer: "IGBT" if ix == 0 else "diode")
    scheme = SharingScheme.from_tables(
        node_group=lambda c: c.role,
        k_table={("IGBT", "IGBT"): 0},
        z_table={"IGBT": 0, "diode": 0},
    )
    with pytest.raises(ConfigurationError, match="IGBT <-> diode"):
        build_operators(m, scheme)


def test_ambient_row_of_coupling_is_zero():
    m = build_grid(2, 2, 2)
    ops = build_operators(m, single_class_scheme())
    S = ops.coupling_sum(np.array([0.3])).toarray()
    assert np.all(S[ops.ambient_index] == 0)
    # Rows of the coupling operator sum to zero, so A rows sum to one.
    assert np.allclose(S.sum(axis=1), 0.0, atol=1e-14)
