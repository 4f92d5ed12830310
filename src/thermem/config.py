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
shown, and other "em" keys are refused. theta_init may also be
{"k": [...], "z": [...]}, and theta_true must be one. R is the measurement
covariance; for a custom mesh, generate also simulates its noise with R.

Custom meshes give per-layer role maps as character rows (top layer is
layer 1, layers without a map are copper; map row 0 is y = 0), plus
refinement/observation lists:

    "mesh": {
      "nx": 4, "ny": 2, "nz": 2,
      "layers": {"1": ["IIDD", ".RR."], "2": ["CCCC", "CCCC"]},
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
        "z_classes": {"chip": 0},
        "k_names": ["kcc", "kcu", "kuu", "kamb"]   # optional, one per class
      }
    }
    "theta_true": {"k": [...], "z": [...]}          # needed to generate data

Role characters: I=IGBT, D=diode, R=rectifier, C=copper, S=substrate,
B=baseplate, .=inactive (no compartment). Other mesh keys are refused, as
are an observe role outside thermem.mesh.VALID_ROLES, an observe entry that
selects no compartment and a group rule without a label.
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
from thermem.mesh import VALID_ROLES, CompartmentMesh, build_grid
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

MESH_KEYS = ("nx", "ny", "nz", "layers", "refine", "observe", "source_roles")

_EM_NUMBERS = {"max_iter": int, "theta_tol": float, "q_init": float, "dtau": float}
EM_KEYS = ("max_iter", "theta_tol", "theta_init", "q_init", "R", "dtau")

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
    unknown = sorted(set(spec) - set(MESH_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown mesh keys {unknown}; expected some of {list(MESH_KEYS)}")
    try:
        nx, ny, nz = int(spec["nx"]), int(spec["ny"]), int(spec["nz"])
    except KeyError as exc:
        raise ConfigurationError(f"mesh config missing dimension {exc}") from None
    maps = {}
    for key, rows in spec.get("layers", {}).items():
        layer = int(key)
        if not 1 <= layer <= nz:
            raise ConfigurationError(f"layer {key!r} map is outside layers 1..{nz}")
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
        role_map=role_map,
        source_roles=set(spec.get("source_roles", ("IGBT", "diode", "rectifier"))),
        prune=True,
        refine=spec.get("refine", []),
    )
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
            if role is not None and role not in VALID_ROLES:
                raise ConfigurationError(
                    f"unknown observe role {role!r}; expected one of {sorted(VALID_ROLES)}"
                )
            first = entry.get("first")
            idx = mesh.indices(role=role, layer=entry.get("layer"))
            if first is not None:
                idx = idx[: int(first)]
            if not idx:
                raise ConfigurationError(f"observe entry {entry} selects no compartment")
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
    for rule in rules:
        if "label" not in rule:
            raise ConfigurationError(f"scheme {name!r}: group rule {rule} has no 'label'")

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
    return SharingScheme(
        node_group,
        k_classes,
        z_classes,
        name=name,
        k_names=tuple(spec.get("k_names", ())),
        z_names=tuple(spec.get("z_names", ())),
    )


def _theta_params(table: dict, where: str, dtau: float) -> ThetaParams:
    for key in ("k", "z"):
        if key not in table:
            raise ConfigurationError(f"{where} has no {key!r} list")
    return ThetaParams(k=table["k"], z=table["z"], dtau=dtau)


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
        em = cfg.get("em", {})
        unknown = sorted(set(em) - set(EM_KEYS))
        if unknown:
            raise ConfigurationError(f"unknown em keys {unknown}; expected some of {list(EM_KEYS)}")
        if "theta_true" in cfg:
            theta = _theta_params(
                cfg["theta_true"], "theta_true", float(em.get("dtau", EmConfig.dtau))
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
        """EmConfig from the em keys the config sets."""
        em = dict(self.cfg.get("em", {}))
        if R_override is not None:
            em["R"] = R_override
        kwargs = {key: em[key] for key in ("theta_init", "R") if key in em}
        kwargs.update((key, cast(em[key])) for key, cast in _EM_NUMBERS.items() if key in em)
        cfg = EmConfig(**kwargs)
        if isinstance(cfg.theta_init, dict):
            cfg.theta_init = _theta_params(cfg.theta_init, "em.theta_init", cfg.dtau)
        return cfg
