"""Grid construction, quadtree refinement, and pruning."""

import numpy as np
import pytest
from _oracles import adjacency_pairs, grid_cells

from thermem.datagen import ToySpec, build_toy
from thermem.mesh import build_grid


def pairs_of(mesh):
    """Unordered coupling pairs {(i, j): weight} with i < j."""
    return {(i, j): w for (i, j, w) in mesh.adjacency if i < j}


def volume_of(mesh):
    """Covered footprint in fine-grid unit squares, summed over the layers."""
    return sum(c.span**2 for c in mesh.compartments)


def footprints(mesh):
    return [(c.layer, c.oy, c.ox, c.span, c.role) for c in mesh.compartments if not c.is_ambient]


def test_build_grid_2x2x1_counts():
    m = build_grid(2, 2, 1)
    assert m.n_compartments == 5  # 4 cells + ambient
    pairs = pairs_of(m)
    cell_cell = [(i, j) for (i, j) in pairs if j != m.ambient_index]
    cell_amb = [(i, j) for (i, j) in pairs if j == m.ambient_index]
    assert len(cell_cell) == 4
    assert len(cell_amb) == 4


def test_build_grid_single_cell():
    m = build_grid(1, 1, 1)
    assert m.n_compartments == 2
    assert len(pairs_of(m)) == 1


def test_build_grid_toy_dimensions():
    m = build_grid(17, 10, 4)
    assert m.n_compartments == 17 * 10 * 4 + 1


@pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
def test_build_grid_rejects_bad_dims(dims):
    with pytest.raises(ValueError):
        build_grid(*dims)


def test_adjacency_symmetric():
    m = build_grid(3, 2, 2)
    entries = {(i, j): w for (i, j, w) in m.adjacency}
    for (i, j), w in entries.items():
        assert entries[(j, i)] == w


def test_refine_counts_and_weights():
    r = build_grid(2, 2, 1, refine=[(1, 0, 0)])
    assert r.n_compartments == 8  # 3 base + 4 children + ambient

    # The children are the one-unit compartments covering the parent footprint.
    children = [c for c in r.compartments if c.span == 1]
    assert len(children) == 4

    # Child <-> unrefined in-plane neighbor shares half the base face.
    pairs = pairs_of(r)
    child_idx = {c.index for c in children}
    base_idx = {c.index for c in r.compartments if c.span == 2}
    cross = [w for (i, j), w in pairs.items() if (i in child_idx) != (j in child_idx)
             and i not in (r.ambient_index,) and j not in (r.ambient_index,)]
    assert cross and all(w == 0.5 for w in cross)

    # Sibling faces are also half faces.
    sib = [w for (i, j), w in pairs.items() if i in child_idx and j in child_idx]
    assert sib and all(w == 0.5 for w in sib)

    # Bottom-layer children couple to ambient with quarter footprints.
    amb = [w for (i, j), w in pairs.items() if j == r.ambient_index and i in child_idx]
    assert amb and all(w == 0.25 for w in amb)
    amb_base = [w for (i, j), w in pairs.items() if j == r.ambient_index and i in base_idx]
    assert amb_base and all(w == 1.0 for w in amb_base)


def test_refine_cross_layer_weight():
    r = build_grid(1, 1, 2, refine=[(1, 0, 0)])
    pairs = pairs_of(r)
    bottom = r.indices(layer=2)[0]
    children = r.indices(layer=1)
    w = [pairs[tuple(sorted((c, bottom)))] for c in children]
    assert w == [0.25] * 4


def test_refine_preserves_volume():
    m = build_grid(3, 3, 2)
    r = build_grid(3, 3, 2, refine=[(1, 0, 0), (1, 1, 1), (2, 1, 0)])
    assert volume_of(r) == volume_of(m) == 3 * 3 * 2 * 4


def test_refine_rejects_ambient_and_missing_cells():
    # Layer nz + 1 holds only the ambient compartment, which is not a base cell.
    with pytest.raises(ValueError, match="no base cell at layer=2, ix=0, iy=0"):
        build_grid(2, 2, 1, refine=[(2, 0, 0)])
    with pytest.raises(ValueError, match="no base cell at layer=1, ix=2, iy=0"):
        build_grid(2, 2, 1, refine=[(1, 2, 0)])


def test_refine_at_by_coordinates():
    m = build_grid(3, 2, 1)
    r = build_grid(3, 2, 1, refine=[(1, 2, 1)])
    assert r.n_compartments == m.n_compartments + 3
    assert [(c.ox, c.oy) for c in r.compartments if c.span == 1] == [(4, 2), (5, 2), (4, 3), (5, 3)]


def test_prune_keep_all_is_identity():
    assert build_grid(2, 3, 2, prune=True) == build_grid(2, 3, 2)


def test_prune_drop_one_cell():
    role_map = lambda ix, iy, layer: "inactive" if ix == iy == 0 else "copper"  # noqa: E731
    m = build_grid(2, 2, 1, role_map=role_map)
    p = build_grid(2, 2, 1, role_map=role_map, prune=True)
    assert p.n_compartments == 4
    assert all(c.role != "inactive" for c in p.compartments)
    # The dropped corner cell had 2 in-plane pairs and 1 ambient pair.
    assert len(pairs_of(p)) == len(pairs_of(m)) - 3
    # Indices compact with no gaps.
    assert [c.index for c in p.compartments] == list(range(4))


def test_prune_mapping_preserves_geometry():
    role_map = lambda ix, iy, layer: "copper" if ix == 1 else "inactive"  # noqa: E731
    m = build_grid(3, 3, 1, role_map=role_map)
    p = build_grid(3, 3, 1, role_map=role_map, prune=True)
    kept = [c for c in m.compartments if c.role != "inactive"]
    assert len(kept) == p.n_compartments == 4  # three copper cells and the ambient
    for a, b in zip(kept, p.compartments):
        assert (a.layer, a.ox, a.oy, a.role) == (b.layer, b.ox, b.oy, b.role)


def random_grid(seed):
    """Dimensions 1-4 x 1-4 x 1-3, a role map that makes some top-layer cells
    inactive (when a layer lies below them), and a random subset of the
    remaining base cells to split."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = (int(v) for v in rng.integers(1, [5, 5, 4]))
    gone = rng.random((nx, ny)) < 0.3

    def role_map(ix, iy, layer):
        return "inactive" if layer == 1 and nz > 1 and gone[ix, iy] else "copper"

    base = [(layer, ox // 2, oy // 2) for layer, oy, ox, _, _ in grid_cells(nx, ny, nz, role_map)]
    picked = [base[int(i)] for i in rng.permutation(len(base))[: int(rng.integers(0, len(base) + 1))]]
    return (nx, ny, nz), role_map, picked


def test_build_grid_prune_refine_matches_cell_oracle():
    """build_grid(prune=True, refine=cells) keeps the active base cells, splits
    exactly the listed ones, and orders them canonically, on random grids."""
    for seed in range(30):
        dims, role_map, picked = random_grid(seed)
        mesh = build_grid(*dims, role_map=role_map, prune=True, refine=picked)
        assert footprints(mesh) == grid_cells(*dims, role_map, picked), f"seed {seed}"
        assert [c.index for c in mesh.compartments] == list(range(mesh.n_compartments))
        assert mesh.ambient_index == mesh.n_compartments - 1


def test_build_grid_refine_rejects_duplicate_and_pruned_cells():
    role_map = lambda ix, iy, layer: "inactive" if (ix, iy, layer) == (0, 0, 1) else "copper"  # noqa: E731
    with pytest.raises(ValueError, match="duplicate"):
        build_grid(2, 2, 2, prune=True, refine=[(1, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError, match="no base cell at layer=1, ix=0, iy=0"):
        build_grid(2, 2, 2, role_map=role_map, prune=True, refine=[(1, 0, 0)])
    assert build_grid(2, 2, 2, role_map=role_map, refine=[(1, 0, 0)]).n_compartments == 12


def test_uncoupled_cell_is_refused_refined_or_not():
    # Layer 1 keeps only cell (0, 0), and nothing lies below it on layer 2.
    role_map = lambda ix, iy, layer: "copper" if layer == 3 or (layer, ix, iy) == (1, 0, 0) else "inactive"  # noqa: E731
    with pytest.raises(ValueError, match=r"no thermal coupling outside their base cell: \[0\]"):
        build_grid(2, 2, 3, role_map=role_map, prune=True)
    with pytest.raises(ValueError, match=r"no thermal coupling outside their base cell: \[0, 1, 2, 3\]"):
        build_grid(2, 2, 3, role_map=role_map, prune=True, refine=[(1, 0, 0)])


def test_determinism():
    assert build_grid(4, 3, 2) == build_grid(4, 3, 2)
    refine = [(1, 1, 0), (2, 1, 1)]
    assert build_grid(4, 3, 2, refine=refine) == build_grid(4, 3, 2, refine=refine)


def test_child_ordering_sw_se_nw_ne():
    r = build_grid(1, 1, 1, refine=[(1, 0, 0)])
    kids = [c for c in r.compartments if c.span == 1]
    coords = [(c.oy, c.ox) for c in kids]
    assert coords == sorted(coords)  # row-major by (y, x): SW, SE, NW, NE


# The 8 corners of nx 1-4, ny 1-4, nz 1-3, then 20 seeded draws inside.
_RNG = np.random.default_rng(20261018)
_CORNERS = [(nx, ny, nz) for nx in (1, 4) for ny in (1, 4) for nz in (1, 3)]
_DRAWS = [tuple(int(v) for v in _RNG.integers(1, [5, 5, 4])) for _ in range(20)]
REFINEMENT_CASES = [(*dims, int(_RNG.integers(0, 2**16))) for dims in _CORNERS + _DRAWS]


@pytest.mark.parametrize("nx,ny,nz,seed", REFINEMENT_CASES)
def test_random_refinement_invariants(nx, ny, nz, seed):
    rng = np.random.default_rng(seed)
    base = [(layer, ix, iy) for layer in range(1, nz + 1) for iy in range(ny) for ix in range(nx)]
    picked = [base[int(i)] for i in rng.permutation(len(base))[: int(rng.integers(0, len(base) + 1))]]
    m = build_grid(nx, ny, nz, refine=picked)

    entries = {(i, j): w for (i, j, w) in m.adjacency}
    for (i, j), w in entries.items():
        assert entries[(j, i)] == w
    assert volume_of(m) == volume_of(build_grid(nx, ny, nz))
    assert m.n_compartments == len(base) + 3 * len(picked) + 1
    assert [c.index for c in m.compartments] == list(range(m.n_compartments))
    assert m.compartments[m.ambient_index].is_ambient


def test_adjacency_matches_pair_loop_on_toy_reduced():
    mesh, _, _ = build_toy(ToySpec.reduced())
    assert list(mesh.adjacency) == adjacency_pairs(mesh)


def test_adjacency_matches_pair_loop_on_random_refined_grids():
    for seed in range(60):
        dims, role_map, picked = random_grid(seed)
        m = build_grid(*dims, role_map=role_map, prune=True, refine=picked)
        assert list(m.adjacency) == adjacency_pairs(m), f"seed {seed}"


def test_observed_indices_follow_index_order():
    mesh = build_grid(3, 2, 2).with_observed([9, 2, 5, 2])
    assert mesh.observed_indices == [2, 5, 9]
    assert build_grid(3, 2, 2).observed_indices == []
