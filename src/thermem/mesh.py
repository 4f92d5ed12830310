"""Compartment meshes for power-module thermal models.

The modeled volume is discretized into a uniform Cartesian grid of cuboid
compartments (nx x ny cells per layer, nz layers stacked along Z). Layer 1 is
the top (chip side), layer nz the bottom (baseplate side); a single extra
"ambient" compartment sits below the bottom layer and every bottom-layer cell
couples to it. Cells may be split once (or more, if configured) into four
quadtree children in the X-Y plane, which is how critical chip areas are
resolved without refining whole layers.

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


@dataclass(frozen=True)
class Compartment:
    """One isothermal control volume of the mesh.

    ``layer`` is 1-based from the top; the ambient compartment uses nz + 1.
    ``ox, oy, span`` locate the X-Y footprint on the fine integer grid
    (base cells have span = 2**max_refinement_level); ``extent`` is the
    axis-aligned box in meters.
    """

    index: int
    layer: int
    ox: int
    oy: int
    span: int
    refinement_level: int
    role: str
    observed: bool = False
    has_source: bool = False
    extent: tuple = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))

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
    cell_size: tuple
    compartments: tuple
    adjacency: tuple
    ambient_index: int
    max_refinement_level: int = 1

    @property
    def n_compartments(self) -> int:
        return len(self.compartments)

    @property
    def scale(self) -> int:
        """Fine-grid units per base cell edge."""
        return 2**self.max_refinement_level

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
        """The unrefined (level-0) compartment at base-grid coordinates."""
        s = self.scale
        for c in self.compartments:
            if c.layer == layer and c.refinement_level == 0 and c.ox == ix * s and c.oy == iy * s:
                return c
        raise ValueError(f"no level-0 compartment at layer={layer}, ix={ix}, iy={iy}")

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


def _extent(cell_size, scale, layer, ox, oy, span):
    dx, dy, dz = cell_size
    x0 = ox * dx / scale
    y0 = oy * dy / scale
    side_x = span * dx / scale
    side_y = span * dy / scale
    z0 = (layer - 1) * dz
    return ((x0, x0 + side_x), (y0, y0 + side_y), (z0, z0 + dz))


def _build_adjacency(cells, nz, scale):
    """Face adjacency with shared-area weights from integer footprints.

    Weights are exact dyadic ratios: in-plane edges use shared-edge length
    over the base-cell edge, cross-layer and ambient couplings use shared
    footprint area over the base-cell footprint.
    """
    by_layer = {}
    for c in cells:
        by_layer.setdefault(c.layer, []).append(c)

    pairs = {}

    def add(i, j, w):
        pairs[(i, j)] = w
        pairs[(j, i)] = w

    for layer, group in by_layer.items():
        if layer > nz:
            continue
        idx = np.array([c.index for c in group])
        ox = np.array([c.ox for c in group])
        oy = np.array([c.oy for c in group])
        sp = np.array([c.span for c in group])

        # In-plane x-faces: right edge of a meets left edge of b, y-overlap > 0.
        touch_x = ox[:, None] + sp[:, None] == ox[None, :]
        ylap = np.minimum(oy[:, None] + sp[:, None], oy[None, :] + sp[None, :]) - np.maximum(
            oy[:, None], oy[None, :]
        )
        for a, b in zip(*np.nonzero(touch_x & (ylap > 0))):
            add(int(idx[a]), int(idx[b]), ylap[a, b] / scale)

        # In-plane y-faces.
        touch_y = oy[:, None] + sp[:, None] == oy[None, :]
        xlap = np.minimum(ox[:, None] + sp[:, None], ox[None, :] + sp[None, :]) - np.maximum(
            ox[:, None], ox[None, :]
        )
        for a, b in zip(*np.nonzero(touch_y & (xlap > 0))):
            add(int(idx[a]), int(idx[b]), xlap[a, b] / scale)

        # Cross-layer couplings to the layer below.
        below = by_layer.get(layer + 1)
        if below and layer + 1 <= nz:
            jdx = np.array([c.index for c in below])
            bx = np.array([c.ox for c in below])
            by = np.array([c.oy for c in below])
            bs = np.array([c.span for c in below])
            xlap = np.minimum(ox[:, None] + sp[:, None], bx[None, :] + bs[None, :]) - np.maximum(
                ox[:, None], bx[None, :]
            )
            ylap = np.minimum(oy[:, None] + sp[:, None], by[None, :] + bs[None, :]) - np.maximum(
                oy[:, None], by[None, :]
            )
            area = np.where((xlap > 0) & (ylap > 0), xlap * ylap, 0)
            for a, b in zip(*np.nonzero(area > 0)):
                add(int(idx[a]), int(jdx[b]), area[a, b] / scale**2)

    # Bottom layer couples to ambient with footprint-area weights.
    ambient = next(c for c in cells if c.is_ambient)
    for c in by_layer.get(nz, []):
        add(c.index, ambient.index, c.span**2 / scale**2)

    return tuple(sorted((i, j, float(w)) for (i, j), w in pairs.items()))


def _assemble(cells, nx, ny, nz, cell_size, max_level):
    """Canonical ordering, index assignment, adjacency, and invariant checks."""
    scale = 2**max_level
    ambient = [c for c in cells if c.is_ambient]
    if len(ambient) != 1:
        raise ValueError(f"mesh must contain exactly one ambient compartment, got {len(ambient)}")
    body = sorted(
        (c for c in cells if not c.is_ambient), key=lambda c: (c.layer, c.oy, c.ox)
    )
    ordered = body + ambient
    indexed = tuple(
        dataclasses.replace(
            c,
            index=i,
            extent=(
                c.extent
                if c.is_ambient
                else _extent(cell_size, scale, c.layer, c.ox, c.oy, c.span)
            ),
        )
        for i, c in enumerate(ordered)
    )
    adjacency = _build_adjacency(indexed, nz, scale)

    coupled = {i for (i, _, _) in adjacency}
    orphans = [c.index for c in indexed if not c.is_ambient and c.index not in coupled]
    if orphans:
        raise ValueError(f"compartments with no thermal coupling: {orphans}")

    return CompartmentMesh(
        nx=nx,
        ny=ny,
        nz=nz,
        cell_size=tuple(float(v) for v in cell_size),
        compartments=indexed,
        adjacency=adjacency,
        ambient_index=len(indexed) - 1,
        max_refinement_level=max_level,
    )


def build_grid(
    nx: int,
    ny: int,
    nz: int,
    cell_size=(1.0, 1.0, 1.0),
    role_map: Optional[Callable[[int, int, int], str]] = None,
    source_roles=SOURCE_ROLES,
    max_refinement_level: int = 1,
) -> CompartmentMesh:
    """Uniform Cartesian grid of nx*ny*nz cells plus one ambient compartment.

    ``role_map(ix, iy, layer)`` assigns a role per base cell (default: all
    copper). Compartments whose role is in ``source_roles`` are tagged as
    heat sources.
    """
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError(f"grid dimensions must be positive, got ({nx}, {ny}, {nz})")
    if any(s <= 0 for s in cell_size):
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    if max_refinement_level < 0:
        raise ValueError("max_refinement_level must be >= 0")

    scale = 2**max_refinement_level
    cells = []
    for iz in range(nz):
        layer = iz + 1
        for iy in range(ny):
            for ix in range(nx):
                role = role_map(ix, iy, layer) if role_map else ROLE_COPPER
                if role not in VALID_ROLES or role == ROLE_AMBIENT:
                    raise ValueError(f"invalid role {role!r} at ({ix}, {iy}, layer {layer})")
                cells.append(
                    Compartment(
                        index=-1,
                        layer=layer,
                        ox=ix * scale,
                        oy=iy * scale,
                        span=scale,
                        refinement_level=0,
                        role=role,
                        has_source=role in source_roles,
                    )
                )
    cells.append(
        Compartment(
            index=-1,
            layer=nz + 1,
            ox=0,
            oy=0,
            span=0,
            refinement_level=0,
            role=ROLE_AMBIENT,
        )
    )
    return _assemble(cells, nx, ny, nz, cell_size, max_refinement_level)


def _split(c: Compartment):
    """Quadtree children of a cell, ordered SW, SE, NW, NE."""
    half = c.span // 2
    offsets = ((0, 0), (half, 0), (0, half), (half, half))  # (dx, dy) by (y, x) order
    return [
        dataclasses.replace(
            c,
            ox=c.ox + dx,
            oy=c.oy + dy,
            span=half,
            refinement_level=c.refinement_level + 1,
        )
        for dx, dy in offsets
    ]


def refine_many(mesh: CompartmentMesh, cell_indices) -> CompartmentMesh:
    """Refine several compartments of the same mesh in one rebuild.

    Indices refer to ``mesh``; duplicates are rejected.
    """
    wanted = list(cell_indices)
    if len(set(wanted)) != len(wanted):
        raise ValueError("duplicate refinement indices")
    for ci in wanted:
        if not 0 <= ci < mesh.n_compartments:
            raise ValueError(f"compartment index {ci} out of range")
        c = mesh.compartments[ci]
        if c.is_ambient:
            raise ValueError("cannot refine the ambient compartment")
        if c.refinement_level >= mesh.max_refinement_level:
            raise ValueError(
                f"compartment {ci} already at maximum refinement level "
                f"{mesh.max_refinement_level}"
            )
    chosen = set(wanted)
    cells = []
    for c in mesh.compartments:
        if c.index in chosen:
            cells.extend(_split(c))
        else:
            cells.append(c)
    return _assemble(cells, mesh.nx, mesh.ny, mesh.nz, mesh.cell_size, mesh.max_refinement_level)


def prune_inactive(mesh: CompartmentMesh) -> CompartmentMesh:
    """The mesh without its inactive compartments, reindexed."""
    kept = [c for c in mesh.compartments if c.role != ROLE_INACTIVE]
    return _assemble(kept, mesh.nx, mesh.ny, mesh.nz, mesh.cell_size, mesh.max_refinement_level)
