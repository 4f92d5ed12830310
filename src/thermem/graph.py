"""Directed-graph operators encoding the coupling topology and parameter sharing.

Every ordered adjacency entry of a mesh becomes one directed edge, so edges
come in reversed pairs. A conductance on an edge heats or cools the edge's
head compartment only. The ambient compartment is a boundary condition,
T_amb(t+1) = T_amb(t), so no edge heats it and its coupling row is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from thermem.errors import ConfigurationError
from thermem.mesh import Compartment, CompartmentMesh


@dataclass(frozen=True, eq=False)
class SharingScheme:
    """Assignment of coupling/source parameter classes by group tables.

    ``node_group(c)`` names a compartment's group. ``k_table`` maps sorted
    (group_a, group_b) pairs to conductance classes; because the key is
    sorted, an edge and its reverse always get the same class. ``z_table``
    maps a source compartment's group to its gain class. ``k_names`` and
    ``z_names`` label the classes for reports; empty means unnamed.
    """

    node_group: Callable[[Compartment], str]
    k_table: Mapping[tuple, int]
    z_table: Mapping[str, int]
    name: str = ""
    k_names: tuple = ()
    z_names: tuple = ()

    def __post_init__(self):
        for kind, table, names, count in (
            ("k", self.k_table, self.k_names, self.n_k),
            ("z", self.z_table, self.z_names, self.n_z),
        ):
            if any(v < 0 for v in table.values()):
                raise ConfigurationError(
                    f"sharing scheme {self.name!r} has a negative {kind} class index"
                )
            if names and len(names) != count:
                raise ConfigurationError(
                    f"sharing scheme {self.name!r} gives {len(names)} {kind}_names "
                    f"for {count} {kind} classes"
                )

    @property
    def n_k(self) -> int:
        return max(self.k_table.values(), default=-1) + 1

    @property
    def n_z(self) -> int:
        return max(self.z_table.values(), default=-1) + 1

    def edge_class(self, ci: Compartment, cj: Compartment) -> int:
        key = tuple(sorted((self.node_group(ci), self.node_group(cj))))
        try:
            return self.k_table[key]
        except KeyError:
            raise ConfigurationError(
                f"sharing scheme {self.name!r} does not cover coupling {key[0]} <-> {key[1]}"
            ) from None

    def source_class(self, c: Compartment) -> int:
        g = self.node_group(c)
        try:
            return self.z_table[g]
        except KeyError:
            raise ConfigurationError(
                f"sharing scheme {self.name!r} does not cover source group {g!r}"
            ) from None


@dataclass(eq=False)
class GraphOperators:
    """Edge and source arrays of a mesh under a sharing scheme.

    Edge arrays (tails, heads, weights, k_class) define the coupling
    operators; sources are ordered by compartment index, and channel p feeds
    compartment src_comp[p] with gain z[z_class[p]] (sources carry no scale).
    ``coupling_by_class[a]`` is the n x n matrix S_a whose row h holds
    w_e (e_h - e_t)' summed over the class-a edges t -> h with a non-ambient
    head, so the state matrix is I - dtau * sum_a k_a S_a.
    """

    n: int
    n_k: int
    n_z: int
    n_P: int
    ambient_index: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    k_class: np.ndarray
    src_comp: np.ndarray
    z_class: np.ndarray
    coupling_by_class: tuple = field(repr=False, default=())
    k_names: tuple = ()
    z_names: tuple = ()

    @property
    def n_theta(self) -> int:
        return self.n_k + self.n_z

    def coupling_sum(self, k: np.ndarray) -> sp.csr_matrix:
        """sum_a k_a S_a for a conductance vector k."""
        out = sp.csr_matrix((self.n, self.n))
        for a, S_a in enumerate(self.coupling_by_class):
            out = out + k[a] * S_a
        return out

    def source_matrix(self, z: np.ndarray) -> sp.csr_matrix:
        """The n x n_P input map without dtau: channel p feeds its compartment
        with gain z[z_class_p]."""
        return sp.csr_matrix(
            (z[self.z_class], (self.src_comp, np.arange(self.n_P))), shape=(self.n, self.n_P)
        )


def build_operators(mesh: CompartmentMesh, scheme: SharingScheme) -> GraphOperators:
    """Edge and source arrays and per-class coupling matrices for a mesh and scheme."""
    comps = mesh.compartments
    n = mesh.n_compartments
    m = len(mesh.adjacency)  # two directed edges per symmetric coupling pair
    amb = mesh.ambient_index

    tails = np.empty(m, dtype=np.int64)
    heads = np.empty(m, dtype=np.int64)
    weights = np.empty(m, dtype=np.float64)
    k_class = np.empty(m, dtype=np.int64)
    # mesh.adjacency is sorted by (tail, head), which fixes edge order.
    for e, (i, j, w) in enumerate(mesh.adjacency):
        tails[e] = i
        heads[e] = j
        weights[e] = w
        k_class[e] = scheme.edge_class(comps[i], comps[j])

    sources = [c for c in comps if c.has_source]
    n_P = len(sources)
    src_comp = np.array([c.index for c in sources], dtype=np.int64)
    z_class = np.array([scheme.source_class(c) for c in sources], dtype=np.int64)

    active = heads != amb
    coupling = []
    for a in range(scheme.n_k):
        sel = active & (k_class == a)
        h, t, w = heads[sel], tails[sel], weights[sel]
        S_a = sp.csr_matrix(
            (
                np.concatenate([w, -w]),
                (np.concatenate([h, h]), np.concatenate([h, t])),
            ),
            shape=(n, n),
        )
        coupling.append(S_a)

    return GraphOperators(
        n=n,
        n_k=scheme.n_k,
        n_z=scheme.n_z,
        n_P=n_P,
        ambient_index=amb,
        tails=tails,
        heads=heads,
        weights=weights,
        k_class=k_class,
        src_comp=src_comp,
        z_class=z_class,
        coupling_by_class=tuple(coupling),
        k_names=scheme.k_names,
        z_names=scheme.z_names,
    )
