"""Grid construction, quadtree refinement, and pruning."""

import numpy as np
import pytest
from _oracles import adjacency_pairs

from thermem.datagen import ToySpec, build_toy
from thermem.mesh import build_grid, prune_inactive, refine_many


def pairs_of(mesh):
    """Unordered coupling pairs {(i, j): weight} with i < j."""
    return {(i, j): w for (i, j, w) in mesh.adjacency if i < j}


def volume_of(mesh):
    dx, dy, dz = mesh.cell_size
    return sum(c.span**2 for c in mesh.compartments) * dx * dy * dz / mesh.scale**2


def test_build_grid_2x2x1_counts():
    m = build_grid(2, 2, 1, cell_size=(1.0, 1.0, 1.0))
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
    m = build_grid(17, 10, 4, cell_size=(3e-3, 3e-3, 1e-3))
    assert m.n_compartments == 17 * 10 * 4 + 1


@pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
def test_build_grid_rejects_bad_dims(dims):
    with pytest.raises(ValueError):
        build_grid(*dims)


def test_build_grid_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        build_grid(2, 2, 1, cell_size=(1.0, 0.0, 1.0))


def test_adjacency_symmetric():
    m = build_grid(3, 2, 2)
    entries = {(i, j): w for (i, j, w) in m.adjacency}
    for (i, j), w in entries.items():
        assert entries[(j, i)] == w


def test_refine_counts_and_weights():
    m = build_grid(2, 2, 1)
    r = refine_many(m, [0])
    assert r.n_compartments == 8  # 3 base + 4 children + ambient

    # Children sit at level 1 and cover the parent footprint.
    children = [c for c in r.compartments if c.refinement_level == 1]
    assert len(children) == 4

    # Child <-> unrefined in-plane neighbor shares half the base face.
    pairs = pairs_of(r)
    child_idx = {c.index for c in children}
    base_idx = {
        c.index for c in r.compartments if c.refinement_level == 0 and not c.is_ambient
    }
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
    del base_idx


def test_refine_cross_layer_weight():
    m = build_grid(1, 1, 2)
    top = m.indices(layer=1)[0]
    r = refine_many(m, [top])
    pairs = pairs_of(r)
    bottom = r.indices(layer=2)[0]
    children = r.indices(layer=1)
    w = [pairs[tuple(sorted((c, bottom)))] for c in children]
    assert w == [0.25] * 4


def test_refine_preserves_volume():
    m = build_grid(3, 3, 2, cell_size=(2.0, 3.0, 0.5))
    v0 = volume_of(m)
    r = refine_many(m, [0, 4, 10])
    assert volume_of(r) == pytest.approx(v0, rel=1e-12)


def test_refine_rejects_ambient_and_max_level():
    m = build_grid(2, 2, 1)
    with pytest.raises(ValueError):
        refine_many(m, [m.ambient_index])
    r = refine_many(m, [0])
    child = next(c.index for c in r.compartments if c.refinement_level == 1)
    with pytest.raises(ValueError):
        refine_many(r, [child])


def test_refine_at_by_coordinates():
    m = build_grid(3, 2, 1)
    r = refine_many(m, [m.base_cell(1, 2, 1).index])
    assert r.n_compartments == m.n_compartments + 3


def test_prune_keep_all_is_identity():
    m = build_grid(2, 3, 2)
    assert prune_inactive(m) == m


def test_prune_drop_one_cell():
    m = build_grid(2, 2, 1, role_map=lambda ix, iy, layer: "inactive" if ix == iy == 0 else "copper")
    p = prune_inactive(m)
    assert p.n_compartments == 4
    assert all(c.role != "inactive" for c in p.compartments)
    # The dropped corner cell had 2 in-plane pairs and 1 ambient pair.
    assert len(pairs_of(p)) == len(pairs_of(m)) - 3
    # Indices compact with no gaps.
    assert [c.index for c in p.compartments] == list(range(4))


def test_prune_mapping_preserves_geometry():
    m = build_grid(3, 3, 1, role_map=lambda ix, iy, layer: "copper" if ix == 1 else "inactive")
    p = prune_inactive(m)
    kept = [c for c in m.compartments if c.role != "inactive"]
    assert len(kept) == p.n_compartments == 4  # three copper cells and the ambient
    for a, b in zip(kept, p.compartments):
        assert (a.layer, a.ox, a.oy, a.role) == (b.layer, b.ox, b.oy, b.role)


def test_determinism():
    a = build_grid(4, 3, 2, cell_size=(1e-3, 2e-3, 5e-4))
    b = build_grid(4, 3, 2, cell_size=(1e-3, 2e-3, 5e-4))
    assert a == b
    ra = refine_many(a, [1, 5])
    rb = refine_many(b, [1, 5])
    assert ra == rb


def test_child_ordering_sw_se_nw_ne():
    m = build_grid(1, 1, 1)
    r = refine_many(m, [0])
    kids = [c for c in r.compartments if c.refinement_level == 1]
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
    m = build_grid(nx, ny, nz)
    v0 = volume_of(m)
    for _ in range(rng.integers(0, 3)):
        eligible = [
            c.index
            for c in m.compartments
            if not c.is_ambient and c.refinement_level < m.max_refinement_level
        ]
        if not eligible:
            break
        m = refine_many(m, [int(rng.choice(eligible))])

    entries = {(i, j): w for (i, j, w) in m.adjacency}
    for (i, j), w in entries.items():
        assert entries[(j, i)] == w
    assert volume_of(m) == pytest.approx(v0, rel=1e-12)
    assert [c.index for c in m.compartments] == list(range(m.n_compartments))
    assert m.compartments[m.ambient_index].is_ambient


def test_adjacency_matches_pair_loop_on_toy_reduced():
    mesh, _, _ = build_toy(ToySpec.reduced())
    assert list(mesh.adjacency) == adjacency_pairs(mesh)


def random_refined_grid(seed):
    """A grid of 1-4 x 1-4 x 1-3 cells with some top-layer cells pruned (when
    a layer lies below them) and random cells refined up to level 1 or 2."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = (int(v) for v in rng.integers(1, [5, 5, 4]))
    level = int(rng.integers(1, 3))
    gone = rng.random((nx, ny)) < 0.3
    m = build_grid(
        nx, ny, nz, max_refinement_level=level,
        role_map=lambda ix, iy, layer: "inactive" if layer == 1 and nz > 1 and gone[ix, iy] else "copper",
    )
    m = prune_inactive(m)
    for _ in range(level):
        eligible = [c.index for c in m.compartments if not c.is_ambient and c.refinement_level < level]
        picked = rng.choice(eligible, size=int(rng.integers(0, len(eligible) + 1)), replace=False)
        m = refine_many(m, [int(i) for i in picked])
    return m


def test_adjacency_matches_pair_loop_on_random_refined_grids():
    for seed in range(60):
        m = random_refined_grid(seed)
        assert list(m.adjacency) == adjacency_pairs(m), f"seed {seed}"
