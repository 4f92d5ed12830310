"""Compartment meshes for power-module thermal models.

The modeled volume is discretized into a uniform Cartesian grid of cuboid
compartments (nx x ny cells per layer, nz layers stacked along Z). Layer 1 is
the top (chip side), layer nz the bottom (baseplate side); a single extra
"ambient" compartment sits below the bottom layer and every bottom-layer cell
couples to it. A base cell may be split once into four quadtree children in
the X-Y plane, which is how critical chip areas are resolved without
refining whole layers.

Meshes are immutable values: every operation returns a new mesh. Compartments
are kept in a canonical order, row-major by (layer, y-origin, x-origin) with
the ambient compartment last, so that every matrix derived from a mesh is
reproducible.

Coupling weights on adjacency entries are shared-face areas relative to the
corresponding base-cell face, e.g. 1.0 between two unrefined neighbors, 0.5
between a child and an unrefined in-plane neighbor, 0.25 between a child and
the cell above/below it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

ROLE_IGBT = "IGBT"
ROLE_DIODE = "diode"
ROLE_RECTIFIER = "rectifier"
ROLE_COPPER = "copper"
ROLE_SUBSTRATE = "substrate"
ROLE_BASEPLATE = "baseplate"
ROLE_AMBIENT = "ambient"
ROLE_INACTIVE = "inactive"

VALID_ROLES = frozenset(
    {
        ROLE_IGBT,
        ROLE_DIODE,
        ROLE_RECTIFIER,
        ROLE_COPPER,
        ROLE_SUBSTRATE,
        ROLE_BASEPLATE,
        ROLE_AMBIENT,
        ROLE_INACTIVE,
    }
)

# Roles that carry a heat source by default (chips dissipate, passives do not).
SOURCE_ROLES = frozenset({ROLE_IGBT, ROLE_DIODE, ROLE_RECTIFIER})

# Fine-grid units per base-cell edge: a split cell's children span one unit.
BASE_SPAN = 2


@dataclass(frozen=True)
class Compartment:
    """One isothermal control volume of the mesh.

    ``layer`` is 1-based from the top; the ambient compartment uses nz + 1.
    ``ox, oy, span`` locate the X-Y footprint on the fine integer grid:
    base cells span BASE_SPAN units, the children of a split cell one.
    """

    index: int
    layer: int
    ox: int
    oy: int
    span: int
    role: str
    observed: bool = False
    has_source: bool = False

    @property
    def is_ambient(self) -> bool:
        return self.role == ROLE_AMBIENT


@dataclass(frozen=True)
class CompartmentMesh:
    """Discretized module geometry plus adjacency and role tags.

    ``adjacency`` holds ordered pairs (i, j, weight); for every entry the
    reversed entry with the same weight is present. Exactly one ambient
    compartment exists and it is always the last index.
    """

    nx: int
    ny: int
    nz: int
    compartments: tuple
    adjacency: tuple
    ambient_index: int

    @property
    def n_compartments(self) -> int:
        return len(self.compartments)

    @property
    def observed_indices(self) -> list:
        """Observed compartment indices in index order, the order of C's rows."""
        return [c.index for c in self.compartments if c.observed]

    def indices(self, role: Optional[str] = None, layer: Optional[int] = None):
        """Compartment indices filtered by role and/or layer, in index order."""
        out = []
        for c in self.compartments:
            if role is not None and c.role != role:
                continue
            if layer is not None and c.layer != layer:
                continue
            out.append(c.index)
        return out

    def base_cell(self, layer: int, ix: int, iy: int) -> Compartment:
        """The unsplit compartment at base-grid coordinates."""
        for c in self.compartments:
            if (c.layer, c.ox, c.oy, c.span) == (layer, ix * BASE_SPAN, iy * BASE_SPAN, BASE_SPAN):
                return c
        raise ValueError(f"no base cell at layer={layer}, ix={ix}, iy={iy}")

    def with_observed(self, indices: Iterable[int]) -> "CompartmentMesh":
        """A copy where exactly the given compartments are tagged observed."""
        wanted = set(indices)
        bad = wanted - set(range(self.n_compartments))
        if bad:
            raise ValueError(f"observed indices out of range: {sorted(bad)}")
        comps = tuple(
            dataclasses.replace(c, observed=(c.index in wanted)) for c in self.compartments
        )
        return dataclasses.replace(self, compartments=comps)


def _overlap(lo_a, span_a, lo_b, span_b):
    """Pairwise overlap, floored at 0, of intervals [lo_a, lo_a + span_a) and
    [lo_b, lo_b + span_b) on the fine integer grid."""
    hi = np.minimum((lo_a + span_a)[:, None], lo_b + span_b)
    return np.maximum(hi - np.maximum(lo_a[:, None], lo_b), 0)


def _build_adjacency(cells):
    """Face adjacency with shared-area weights from integer footprints.

    One rule weighs every coupling: two compartments share a face when they
    touch along one axis and their footprints overlap along the others, and
    the weight is the shared face over the base-cell face. An x-face (y-face)
    of one layer weighs the y (x) overlap over the base-cell edge; a face to
    the layer below weighs the overlap area over the base-cell footprint. The
    ambient compartment is the layer below layer nz, with a footprint that
    covers the grid, so each bottom-layer cell couples to it by its own
    footprint. Weights are exact dyadic ratios.
    """
    cover = max(max(c.ox, c.oy) + c.span for c in cells)
    rows = {}
    for c in cells:
        rows.setdefault(c.layer, []).append((c.index, c.ox, c.oy, cover if c.is_ambient else c.span))
    layers = {layer: np.array(r).T.copy() for layer, r in rows.items()}  # index, ox, oy, span

    pairs = {}
    for layer, (idx, ox, oy, sp) in layers.items():
        # p's right (top) edge meets q's left (bottom) edge: an x-face (y-face).
        faces = [
            (idx, ((ox + sp)[:, None] == ox) * _overlap(oy, sp, oy, sp), BASE_SPAN),
            (idx, ((oy + sp)[:, None] == oy) * _overlap(ox, sp, ox, sp), BASE_SPAN),
        ]
        if layer + 1 in layers:
            jdx, bx, by, bs = layers[layer + 1]
            faces.append((jdx, _overlap(ox, sp, bx, bs) * _overlap(oy, sp, by, bs), BASE_SPAN**2))
        for other, shared, base in faces:
            p, q = np.nonzero(shared)
            for i, j, w in zip(idx[p].tolist(), other[q].tolist(), (shared[p, q] / base).tolist()):
                pairs[i, j] = pairs[j, i] = w

    return tuple(sorted((i, j, w) for (i, j), w in pairs.items()))


def build_grid(
    nx: int,
    ny: int,
    nz: int,
    role_map: Optional[Callable[[int, int, int], str]] = None,
    source_roles=SOURCE_ROLES,
    prune: bool = False,
    refine=(),
) -> CompartmentMesh:
    """Uniform Cartesian grid of nx*ny*nz cells plus one ambient compartment.

    ``role_map(ix, iy, layer)`` assigns a role per base cell (default: all
    copper). Compartments whose role is in ``source_roles`` are tagged as
    heat sources. With ``prune`` the inactive cells are left out. Each base
    cell listed in ``refine`` as (layer, ix, iy) is split once into its four
    quadtree children; a cell listed twice, or not in the mesh, is refused.
    """
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError(f"grid dimensions must be positive, got ({nx}, {ny}, {nz})")
    wanted = [tuple(cell) for cell in refine]
    split = set(wanted)
    if len(split) != len(wanted):
        raise ValueError(f"duplicate refinement cells in {wanted}")

    cells = []
    for layer in range(1, nz + 1):
        for iy in range(ny):
            for ix in range(nx):
                role = role_map(ix, iy, layer) if role_map else ROLE_COPPER
                if role not in VALID_ROLES or role == ROLE_AMBIENT:
                    raise ValueError(f"invalid role {role!r} at ({ix}, {iy}, layer {layer})")
                if prune and role == ROLE_INACTIVE:
                    continue
                cell = Compartment(
                    index=-1,
                    layer=layer,
                    ox=ix * BASE_SPAN,
                    oy=iy * BASE_SPAN,
                    span=BASE_SPAN,
                    role=role,
                    has_source=role in source_roles,
                )
                if (layer, ix, iy) not in split:
                    cells.append(cell)
                    continue
                split.remove((layer, ix, iy))
                cells += [
                    dataclasses.replace(cell, ox=cell.ox + dx, oy=cell.oy + dy, span=1)
                    for dy in (0, 1)
                    for dx in (0, 1)
                ]
    if split:
        layer, ix, iy = next(cell for cell in wanted if cell in split)
        raise ValueError(f"no base cell at layer={layer}, ix={ix}, iy={iy}")

    ambient = Compartment(index=-1, layer=nz + 1, ox=0, oy=0, span=0, role=ROLE_AMBIENT)
    ordered = sorted(cells, key=lambda c: (c.layer, c.oy, c.ox)) + [ambient]
    indexed = tuple(dataclasses.replace(c, index=i) for i, c in enumerate(ordered))
    adjacency = _build_adjacency(indexed)

    # A base cell must couple to something outside itself; its quadtree
    # children coupling only to each other do not count.
    base = [(c.layer, c.ox // BASE_SPAN, c.oy // BASE_SPAN) for c in indexed]
    coupled = {base[i] for (i, j, _) in adjacency if base[i] != base[j]}
    orphans = [c.index for c in indexed if not c.is_ambient and base[c.index] not in coupled]
    if orphans:
        raise ValueError(f"compartments with no thermal coupling outside their base cell: {orphans}")

    return CompartmentMesh(
        nx=nx,
        ny=ny,
        nz=nz,
        compartments=indexed,
        adjacency=adjacency,
        ambient_index=len(indexed) - 1,
    )
