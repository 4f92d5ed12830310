"""Experiment configuration: JSON schema for meshes, schemes, and runs.

A config file either names a built-in preset ("toy" or "toy_reduced") or
describes a custom mesh:

    {
      "preset": "toy_reduced",            # or "mesh": {...}
      "scheme": "strong",                 # weak | strong | a custom scheme name
      "constraint": "qI",                 # qI | diag | aLLbI
      "em": {"max_iter": 500, "theta_tol": 1e-6, "theta_init": 0.01,
             "q_init": 0.01, "R": 1e-6, "dtau": 1.0},
      "generate": {"N": 5000, "seed": 1,
                   "noise": {"kind": "none" | "q_iso" | "AAt", "sigma2": 1e-4},
                   "write_truth": true},
      "predict": {"horizon": 18000},
      "out": "runs/exp"
    }

Every "em" key is optional; thermem.estimation.EmConfig supplies the defaults
shown. theta_init may also be {"k": [...], "z": [...]}. R is the measurement
covariance; for a custom mesh, generate also simulates its noise with R.

Custom meshes give per-layer role maps as character rows (top layer is
layer 1; map row 0 is y = 0), plus refinement/observation lists:

    "mesh": {
      "nx": 4, "ny": 2, "nz": 2, "cell_size": [3e-3, 3e-3, 1e-3],
      "layers": {"1": ["IIDD", ".RR."], "2": ["CCCC", "CCCC"]},
      "prune_inactive": true,
      "refine": [[1, 0, 0]],                       # [layer, ix, iy]
      "observe": [[1, 0, 0], "ambient", {"role": "IGBT", "first": 2}],
      "source_roles": ["IGBT"]
    }
    "schemes": {
      "mine": {
        "groups": [{"label": "chip", "role": "IGBT"},
                   {"label": "cu", "layer": 2},
                   {"label": "ambient", "role": "ambient"}],
        "k_classes": {"chip|chip": 0, "chip|cu": 1, "cu|cu": 2, "ambient|cu": 3},
        "z_classes": {"chip": 0}
      }
    }
    "theta_true": {"k": [...], "z": [...]}          # needed to generate data

Role characters: I=IGBT, D=diode, R=rectifier, C=copper, S=substrate,
B=baseplate, .=inactive.
"""

from __future__ import annotations

import json
from typing import Optional

from thermem.datagen import (
    ToySpec,
    build_toy,
    strong_scheme,
    strong_theta,
    weak_scheme,
    weak_theta,
)
from thermem.errors import ConfigurationError
from thermem.estimation import (
    ALPHA_LL_BETA_I,
    DIAGONAL,
    SCALAR_IDENTITY,
    EmConfig,
)
from thermem.graph import SharingScheme
from thermem.mesh import (
    ROLE_AMBIENT,
    ROLE_INACTIVE,
    CompartmentMesh,
    build_grid,
    prune_inactive,
    refine_many,
)
from thermem.model import ThetaParams

ROLE_CHARS = {
    "I": "IGBT",
    "D": "diode",
    "R": "rectifier",
    "C": "copper",
    "S": "substrate",
    "B": "baseplate",
    ".": "inactive",
}

_EM_NUMBERS = {"max_iter": int, "theta_tol": float, "q_init": float, "dtau": float}

CONSTRAINT_ALIASES = {
    "qI": SCALAR_IDENTITY,
    "diag": DIAGONAL,
    "aLLbI": ALPHA_LL_BETA_I,
    SCALAR_IDENTITY: SCALAR_IDENTITY,
    DIAGONAL: DIAGONAL,
    ALPHA_LL_BETA_I: ALPHA_LL_BETA_I,
}


def load_config(path) -> dict:
    with open(path, "r") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: top-level config must be an object")
    return cfg


def constraint_kind(name: str) -> str:
    try:
        return CONSTRAINT_ALIASES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown constraint {name!r}; expected one of qI, diag, aLLbI"
        ) from None


def mesh_from_config(spec: dict) -> CompartmentMesh:
    """Build a mesh from the custom-mesh schema."""
    try:
        nx, ny, nz = int(spec["nx"]), int(spec["ny"]), int(spec["nz"])
    except KeyError as exc:
        raise ConfigurationError(f"mesh config missing dimension {exc}") from None
    cell_size = tuple(spec.get("cell_size", (1e-3, 1e-3, 1e-3)))
    layers = spec.get("layers", {})

    maps = {}
    for key, rows in layers.items():
        layer = int(key)
        if len(rows) != ny or any(len(r) != nx for r in rows):
            raise ConfigurationError(
                f"layer {layer} map must be {ny} rows of {nx} characters"
            )
        maps[layer] = rows

    def role_map(ix, iy, layer):
        rows = maps.get(layer)
        if rows is None:
            return "copper"
        ch = rows[iy][ix]
        try:
            return ROLE_CHARS[ch]
        except KeyError:
            raise ConfigurationError(
                f"unknown role character {ch!r} at layer {layer}, ({ix}, {iy})"
            ) from None

    mesh = build_grid(
        nx,
        ny,
        nz,
        cell_size=cell_size,
        role_map=role_map,
        source_roles=set(spec.get("source_roles", ("IGBT", "diode", "rectifier"))),
        max_refinement_level=int(spec.get("max_refinement_level", 1)),
    )
    if spec.get("prune_inactive", True):
        mesh, _ = prune_inactive(mesh, lambda c: c.role != ROLE_INACTIVE)
    refine_list = spec.get("refine", [])
    if refine_list:
        idx = [mesh.base_cell(layer, ix, iy).index for layer, ix, iy in refine_list]
        mesh = refine_many(mesh, idx)
    observed = _resolve_observed(mesh, spec.get("observe", []))
    if observed:
        mesh = mesh.with_observed(observed)
    return mesh


def _resolve_observed(mesh, entries):
    observed = []
    for entry in entries:
        if entry == "ambient":
            observed.append(mesh.ambient_index)
        elif isinstance(entry, dict):
            role = entry.get("role")
            first = entry.get("first")
            idx = mesh.indices(role=role, layer=entry.get("layer"))
            if first is not None:
                idx = idx[: int(first)]
            observed.extend(idx)
        else:
            layer, ix, iy = entry
            observed.append(mesh.base_cell(int(layer), int(ix), int(iy)).index)
    return sorted(set(observed))


def scheme_from_config(spec: dict, name: str = "") -> SharingScheme:
    """Build a sharing scheme from group rules and class tables."""
    rules = spec.get("groups", [])
    if not rules:
        raise ConfigurationError(f"scheme {name!r} defines no groups")

    def node_group(c):
        for rule in rules:
            if "role" in rule and c.role != rule["role"]:
                continue
            if "layer" in rule and c.layer != int(rule["layer"]):
                continue
            return rule["label"]
        raise ConfigurationError(
            f"scheme {name!r}: no group rule matches role={c.role} layer={c.layer}"
        )

    k_classes = {
        tuple(sorted(key.split("|"))): int(v)
        for key, v in spec.get("k_classes", {}).items()
    }
    z_classes = {g: int(v) for g, v in spec.get("z_classes", {}).items()}
    n_k = max(k_classes.values()) + 1 if k_classes else 0
    k_names = spec.get("k_names", [f"k_{i}" for i in range(n_k)])
    return SharingScheme.from_tables(
        node_group,
        k_classes,
        z_classes,
        name=name,
        k_names=k_names,
        z_names=spec.get("z_names", [f"z_{i}" for i in range(max(z_classes.values()) + 1 if z_classes else 0)]),
    )


class Experiment:
    """Resolved experiment: mesh, schemes, true parameters, EM settings."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        preset = cfg.get("preset")
        self.spec: Optional[ToySpec] = None
        if preset in ("toy", "toy_reduced"):
            self.spec = ToySpec.full() if preset == "toy" else ToySpec.reduced()
            self.mesh, weak, strong = build_toy(self.spec)
            self.schemes = {"weak": weak, "strong": strong}
            self.theta_true = {
                "weak": weak_theta(self.spec),
                "strong": strong_theta(self.spec),
            }
        elif preset:
            raise ConfigurationError(f"unknown preset {preset!r}")
        else:
            if "mesh" not in cfg:
                raise ConfigurationError("config needs either a preset or a mesh section")
            self.mesh = mesh_from_config(cfg["mesh"])
            self.schemes = {}
            self.theta_true = {}

        for sname, sspec in cfg.get("schemes", {}).items():
            self.schemes[sname] = scheme_from_config(sspec, name=sname)
        if "theta_true" in cfg:
            tt = cfg["theta_true"]
            theta = ThetaParams(
                k=tt["k"], z=tt["z"], dtau=float(cfg.get("em", {}).get("dtau", EmConfig.dtau))
            )
            for sname in self.schemes:
                self.theta_true.setdefault(sname, theta)

        self.scheme_name = cfg.get("scheme", "strong" if self.spec else None)
        if self.scheme_name not in self.schemes:
            raise ConfigurationError(
                f"scheme {self.scheme_name!r} not defined; have {sorted(self.schemes)}"
            )
        self.constraint = constraint_kind(cfg.get("constraint", "qI"))
        self.out_dir = cfg.get("out", "out")

    @property
    def scheme(self):
        return self.schemes[self.scheme_name]

    def em_config(self, R_override=None) -> EmConfig:
        """EmConfig from the em keys the config sets; unknown keys are ignored."""
        em = dict(self.cfg.get("em", {}))
        if R_override is not None:
            em["R"] = R_override
        kwargs = {key: em[key] for key in ("theta_init", "R") if key in em}
        kwargs.update((key, cast(em[key])) for key, cast in _EM_NUMBERS.items() if key in em)
        cfg = EmConfig(**kwargs)
        if isinstance(cfg.theta_init, dict):
            cfg.theta_init = ThetaParams(k=cfg.theta_init["k"], z=cfg.theta_init["z"], dtau=cfg.dtau)
        return cfg
