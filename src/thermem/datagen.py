"""Synthetic power-module test problem: layout, schemes, true values, datasets.

The target is a three-phase IGBT module discretized into four layers over a
17x10 base grid (~3 mm x 3 mm cells): a chip layer carrying IGBT, diode and
rectifier regions (inactive surface pruned, critical chip cells refined), a
refined copper layer, then substrate and baseplate layers, plus the ambient
node, 817 compartments in total. The reduced 9x5x4 variant keeps the same
role structure and sharing classes at desk-test size.

Two published sharing schemes parametrize the couplings: a weak one with 12
conductance classes and a strong one that ties them into 5. The single source
gain z applies to every IGBT compartment; inputs are duty-cycled power pulses
per IGBT cluster with distinct periods, sized so the module heats more than
10 degC above ambient.

Process noise options for data generation: none, isotropic, or sigma^2*A*A'
built from the true state matrix. The ambient temperature is a boundary
condition, so its noise row/column is zeroed (a random-walking boundary would
dominate every long prediction, which the modeled module does not exhibit).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np

from thermem.errors import ConfigurationError
from thermem.graph import GraphOperators, SharingScheme, build_operators
from thermem.mesh import (
    BASE_SPAN,
    ROLE_AMBIENT,
    ROLE_BASEPLATE,
    ROLE_COPPER,
    ROLE_DIODE,
    ROLE_IGBT,
    ROLE_INACTIVE,
    ROLE_RECTIFIER,
    ROLE_SUBSTRATE,
    CompartmentMesh,
    build_grid,
)
from thermem.model import ThetaParams, Trajectory, assemble, simulate

# Conductance classes of the weakly shared parametrization with their true
# values, in fixed class order; the strongly shared scheme ties them into
# five classes k1..k5.
WEAK_CLASS_NAMES = (
    "igbt-igbt",
    "diode-diode",
    "rect-rect",
    "cu-cu",
    "l3-l3",
    "l4-l4",
    "igbt-cu",
    "diode-cu",
    "rect-cu",
    "cu-l3",
    "l3-l4",
    "l4-ambient",
)
WEAK_K_TRUE = np.array(
    [0.035, 0.015, 0.024, 0.022, 0.044, 0.020, 0.056, 0.052, 0.052, 0.047, 0.062, 0.020]
)
STRONG_OF_WEAK = (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4)
STRONG_CLASS_NAMES = ("k1", "k2", "k3", "k4", "k5")
STRONG_K_TRUE = np.array([0.025, 0.029, 0.053, 0.055, 0.020])


@dataclass(frozen=True)
class ToySpec:
    """Layout, observation set, true parameters, and input profile.

    The layout is a base grid of nx x ny cells on nz layers with role
    regions and the base cells split once. Cell dimensions are not
    parameters: the geometry is folded into the true k and z values.
    """

    name: str = "toy"
    nx: int = 17
    ny: int = 10
    nz: int = 4
    # Inclusive base-cell ranges (x0, x1, y0, y1) per chip region.
    igbt_clusters: tuple = ((1, 5, 1, 3), (6, 10, 1, 3), (11, 15, 1, 3))
    diode_clusters: tuple = ((1, 5, 5, 6), (6, 10, 5, 6), (11, 15, 5, 6))
    rectifier_cells: tuple = tuple((x, 8) for x in range(1, 16))
    layer1_refine: tuple = tuple((x0 + 1 + i, 2) for x0 in (1, 6, 11) for i in range(3))
    layer2_refine: tuple = (
        tuple((x, y) for x0 in (1, 6, 11) for x in range(x0, x0 + 5) for y in (1, 2, 3))
        + tuple((x, 8) for x in range(1, 16))
        + ((3, 5), (8, 5), (13, 5))
    )
    n_observed_igbt: int = 40
    sensor_cell: tuple = (8, 5)  # bottom-layer temperature sensor
    expected_layer_counts: tuple = (117, 359, 170, 170)
    pulse_periods: tuple = (1500, 2100, 2700)
    pulse_phases: tuple = (0, 400, 800)
    # Shared by both presets. z is the temperature rise per unit source power
    # per step (volume and capacity folded in; only z*P is identifiable).
    z_true: ClassVar[float] = 0.05
    dtau: ClassVar[float] = 1.0
    ambient_temp: ClassVar[float] = 25.0
    pulse_amp: ClassVar[float] = 3.0
    pulse_duty: ClassVar[float] = 0.5
    meas_var: ClassVar[float] = 1e-6

    @staticmethod
    def full() -> "ToySpec":
        return ToySpec()

    @staticmethod
    def reduced() -> "ToySpec":
        """9x5x4 variant with the same sharing classes and role structure."""
        return ToySpec(
            name="toy_reduced",
            nx=9,
            ny=5,
            nz=4,
            igbt_clusters=((1, 3, 1, 2), (5, 7, 1, 2)),
            diode_clusters=((1, 3, 4, 4),),
            rectifier_cells=tuple((x, 4) for x in range(5, 8)),
            layer1_refine=((2, 1), (6, 1)),
            layer2_refine=tuple((x, 1) for x in (1, 2, 3, 5, 6, 7)),
            n_observed_igbt=8,
            sensor_cell=(4, 2),
            expected_layer_counts=(24, 63, 45, 45),
            pulse_periods=(1200, 1800),
            pulse_phases=(0, 500),
        )


def _in_ranges(ix, iy, ranges) -> bool:
    return any(x0 <= ix <= x1 and y0 <= iy <= y1 for (x0, x1, y0, y1) in ranges)


def _layer1_role(spec: ToySpec, ix: int, iy: int) -> str:
    if _in_ranges(ix, iy, spec.igbt_clusters):
        return ROLE_IGBT
    if _in_ranges(ix, iy, spec.diode_clusters):
        return ROLE_DIODE
    if (ix, iy) in set(spec.rectifier_cells):
        return ROLE_RECTIFIER
    return ROLE_INACTIVE


def toy_role_map(spec: ToySpec):
    layer_roles = {2: ROLE_COPPER, 3: ROLE_SUBSTRATE}

    def role_map(ix, iy, layer):
        if layer == 1:
            return _layer1_role(spec, ix, iy)
        if layer == spec.nz:
            return ROLE_BASEPLATE
        return layer_roles.get(layer, ROLE_SUBSTRATE)

    return role_map


def _node_group(c) -> str:
    if c.role == ROLE_AMBIENT:
        return "ambient"
    if c.layer == 1:
        return c.role
    return f"layer{c.layer}"


_WEAK_KEYS = (
    (ROLE_IGBT, ROLE_IGBT),
    (ROLE_DIODE, ROLE_DIODE),
    (ROLE_RECTIFIER, ROLE_RECTIFIER),
    ("layer2", "layer2"),
    ("layer3", "layer3"),
    ("layer4", "layer4"),
    (ROLE_IGBT, "layer2"),
    (ROLE_DIODE, "layer2"),
    (ROLE_RECTIFIER, "layer2"),
    ("layer2", "layer3"),
    ("layer3", "layer4"),
    ("ambient", "layer4"),
)


def _toy_scheme(name, classes, k_names) -> SharingScheme:
    """The toy scheme putting the coupling _WEAK_KEYS[i] into class classes[i]."""
    k_table = {tuple(sorted(key)): c for key, c in zip(_WEAK_KEYS, classes)}
    return SharingScheme(_node_group, k_table, {ROLE_IGBT: 0}, name, k_names, ("z_igbt",))


def weak_scheme() -> SharingScheme:
    return _toy_scheme("weak", range(len(_WEAK_KEYS)), WEAK_CLASS_NAMES)


def strong_scheme() -> SharingScheme:
    return _toy_scheme("strong", STRONG_OF_WEAK, STRONG_CLASS_NAMES)


def weak_theta(spec: ToySpec) -> ThetaParams:
    return ThetaParams(k=WEAK_K_TRUE.copy(), z=[spec.z_true], dtau=spec.dtau)


def strong_theta(spec: ToySpec) -> ThetaParams:
    return ThetaParams(k=STRONG_K_TRUE.copy(), z=[spec.z_true], dtau=spec.dtau)


def build_toy(spec: Optional[ToySpec] = None):
    """Mesh plus (weak, strong) schemes for a toy layout.

    The mesh is pruned, refined, and observation/source tagged; layer
    populations are checked against the layout's expected counts.
    """
    spec = spec or ToySpec.full()
    mesh = build_grid(
        spec.nx,
        spec.ny,
        spec.nz,
        role_map=toy_role_map(spec),
        source_roles={ROLE_IGBT},
        prune=True,
        refine=[(1, *xy) for xy in spec.layer1_refine] + [(2, *xy) for xy in spec.layer2_refine],
    )

    counts = tuple(len(mesh.indices(layer=lyr)) for lyr in range(1, spec.nz + 1))
    if counts != tuple(spec.expected_layer_counts):
        raise ConfigurationError(
            f"toy layer populations {counts} do not match expected "
            f"{tuple(spec.expected_layer_counts)}"
        )

    igbt = mesh.indices(role=ROLE_IGBT)
    if len(igbt) < spec.n_observed_igbt:
        raise ConfigurationError(
            f"layout provides {len(igbt)} IGBT compartments, "
            f"{spec.n_observed_igbt} observations requested"
        )
    sensor = mesh.base_cell(spec.nz, *spec.sensor_cell).index
    observed = sorted(igbt[: spec.n_observed_igbt] + [sensor, mesh.ambient_index])
    mesh = mesh.with_observed(observed)
    return mesh, weak_scheme(), strong_scheme()


def source_clusters(spec: ToySpec, mesh: CompartmentMesh) -> np.ndarray:
    """Cluster id per source compartment: the chip region whose x-center is
    nearest its own, both as doubled integer coordinates on the fine grid."""
    centers = np.array([(x0 + x1 + 1) * BASE_SPAN for (x0, x1, _, _) in spec.igbt_clusters])
    mids = np.array([2 * c.ox + c.span for c in mesh.compartments if c.has_source])
    return np.argmin(np.abs(mids[:, None] - centers), axis=1).astype(np.int64)


def _square_waves(N: int, periods, phases) -> np.ndarray:
    """Column p is pulse_amp in the first pulse_duty share of each phase-shifted period, else 0."""
    periods = np.asarray(periods)
    on = ((np.arange(N)[:, None] + phases) % periods) < ToySpec.pulse_duty * periods
    return np.where(on, ToySpec.pulse_amp, 0.0)


def toy_inputs(spec: ToySpec, mesh: CompartmentMesh, N: int) -> np.ndarray:
    """Duty-cycled square-wave power per IGBT channel, cluster-phased."""
    clusters = source_clusters(spec, mesh)
    periods = np.asarray(spec.pulse_periods)[clusters % len(spec.pulse_periods)]
    phases = np.asarray(spec.pulse_phases)[clusters % len(spec.pulse_phases)]
    return _square_waves(N, periods, phases)


NOISE_KINDS = ("none", "q_iso", "AAt")


@dataclass(frozen=True)
class NoiseSpec:
    """Process-noise model for dataset generation."""

    kind: str = "none"  # none | q_iso | AAt
    sigma2: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ConfigurationError(f"noise sigma2 must be finite and >= 0, got {self.sigma2!r}")

    @staticmethod
    def none() -> "NoiseSpec":
        return NoiseSpec("none", 0.0)

    @staticmethod
    def q_iso(sigma2: float) -> "NoiseSpec":
        return NoiseSpec("q_iso", sigma2)

    @staticmethod
    def AAt(sigma2: float) -> "NoiseSpec":
        return NoiseSpec("AAt", sigma2)

    @property
    def noiseless(self) -> bool:  # no process and no measurement noise is simulated
        return self.kind == "none" or self.sigma2 == 0.0


def process_covariance(noise: NoiseSpec, A: np.ndarray, ambient_index: int) -> np.ndarray:
    """Dense generation covariance; the ambient row/column is zeroed."""
    n = A.shape[0]
    if noise.noiseless:
        return np.zeros((n, n))
    if noise.kind == "q_iso":
        Q = noise.sigma2 * np.eye(n)
    else:  # AAt
        Abar = A.copy()
        Abar[ambient_index, :] = 0.0
        return noise.sigma2 * (Abar @ Abar.T)
    Q[ambient_index, :] = 0.0
    Q[:, ambient_index] = 0.0
    return Q


def default_inputs(N: int, n_P: int) -> np.ndarray:
    """Distinct square waves per source channel (breaks layout symmetries).

    Periods scale with the record length so every channel cycles a few times
    and no two channels share period and phase.
    """
    p = np.arange(n_P)
    return _square_waves(N, max(8, N // 6) + 13 * p, 7 * p)


def generate_dataset(
    mesh: CompartmentMesh,
    scheme: SharingScheme,
    theta_true: ThetaParams,
    noise: NoiseSpec,
    N: int,
    seed: int,
    spec: Optional[ToySpec] = None,
    P: Optional[np.ndarray] = None,
    ops: Optional[GraphOperators] = None,
    meas_var: float = ToySpec.meas_var,
):
    """Simulate an identification dataset; returns (Trajectory, model).

    Inputs come from ``P``, from the toy pulse profile when ``spec`` is
    given, or from distinct per-source square waves otherwise. The record
    starts at the ambient temperature. Observations follow the mesh's
    observed tags; measurement noise has variance ``meas_var``, or zero for
    noiseless generation.
    """
    if N < 2:
        raise ValueError("dataset needs N >= 2")
    ops = ops or build_operators(mesh, scheme)
    if P is None:
        P = toy_inputs(spec, mesh, N) if spec is not None else default_inputs(N, ops.n_P)
    P = np.asarray(P, dtype=np.float64)
    if P.shape[0] != N:
        raise ValueError(f"inputs must have N={N} rows, got {P.shape[0]}")

    model = assemble(ops, theta_true, mesh.observed_indices, R=0.0 if noise.noiseless else meas_var)
    model = replace(model, Q=process_covariance(noise, model.A, mesh.ambient_index))
    T_1 = np.full(ops.n, ToySpec.ambient_temp)
    traj = simulate(model, T_1, P, seed=seed, noiseless=noise.noiseless)
    return traj, model
