"""The sparse regressor G(theta) of a mesh under a parameter-sharing scheme.

Every ordered adjacency entry of a mesh becomes one directed edge, so edges
come in reversed pairs. A conductance on an edge heats or cools the edge's
head compartment only. The ambient compartment is a boundary condition,
T_amb(t+1) = T_amb(t), so no edge heats it and its row of G is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """The regressor of a mesh under a sharing scheme, plus its edge list.

    The model is linear in theta = [k', z']': with r_t = [T_t; P_t],
    ``M[t] theta = G(theta) r_t`` for the n x (n + n_P) regressor
        G(theta) = [-sum_a k_a S_a, S_z(z)].
    Row h of S_a holds w_e (e_h - e_t)' summed over the class-a edges t -> h
    with a non-ambient head, w_e being the shared face over the base-cell
    face of the mesh's one overlap rule; column p of S_z(z) feeds source
    channel p (sources ordered by compartment index) to its compartment
    with its class gain. G is stored by its nonzeros (param, row, col, val),
    G(theta)[row, col] summing theta[param] * val: first the nonzeros of
    each -S_a, repeated positions summed, in class order, then one unit
    entry per source channel. ``tails[e] -> heads[e]`` are the ordered
    adjacency entries of the mesh, ambient ones included.
    """

    n: int
    n_k: int
    n_z: int
    n_P: int
    ambient_index: int
    tails: np.ndarray
    heads: np.ndarray
    param: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @property
    def n_theta(self) -> int:
        return self.n_k + self.n_z

    def regressor(self, theta_vec) -> sp.csr_array:
        """G(theta) for theta = [k', z']'; G(e_i) holds the nonzeros of G_i only."""
        w = np.asarray(theta_vec, dtype=np.float64)[self.param] * self.val
        keep = w != 0
        m = self.n + self.n_P
        pos, at = np.unique(self.row[keep] * m + self.col[keep], return_inverse=True)
        # bincount adds the entries of one position in storage (class) order, so
        # G matches the class-by-class sum of the S_a bit for bit.
        data = np.bincount(at, weights=w[keep])
        return sp.csr_array((data, np.divmod(pos, m)), shape=(self.n, m))


def build_operators(mesh: CompartmentMesh, scheme: SharingScheme) -> GraphOperators:
    """Edge list and regressor nonzeros for a mesh and scheme."""
    comps = mesh.compartments
    n = mesh.n_compartments
    amb = mesh.ambient_index

    # mesh.adjacency is sorted by (tail, head), which fixes edge order.
    tails, heads, weights = np.array(mesh.adjacency, dtype=np.float64).reshape(-1, 3).T.copy()
    tails, heads = tails.astype(np.int64), heads.astype(np.int64)
    k_class = np.array(
        [scheme.edge_class(comps[i], comps[j]) for i, j, _ in mesh.adjacency], dtype=np.int64
    )
    sources = [c for c in comps if c.has_source]
    n_P = len(sources)

    parts = []
    active = heads != amb
    for a in range(scheme.n_k):
        sel = active & (k_class == a)
        h, t, w = heads[sel], tails[sel], weights[sel]
        S_a = sp.csr_array(
            (np.concatenate([w, -w]), (np.concatenate([h, h]), np.concatenate([h, t]))),
            shape=(n, n),
        ).tocoo()
        parts.append((np.full(S_a.nnz, a), S_a.row, S_a.col, -S_a.data))
    parts.append((
        np.array([scheme.n_k + scheme.source_class(c) for c in sources], dtype=np.int64),
        np.array([c.index for c in sources], dtype=np.int64),
        n + np.arange(n_P),
        np.ones(n_P),
    ))
    param, row, col, val = (np.concatenate(x) for x in zip(*parts))

    return GraphOperators(
        n=n,
        n_k=scheme.n_k,
        n_z=scheme.n_z,
        n_P=n_P,
        ambient_index=amb,
        tails=tails,
        heads=heads,
        param=param,
        row=row,
        col=col,
        val=val,
    )
