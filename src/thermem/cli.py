"""Command-line front end: generate datasets, identify, predict, report.

    thermem generate --config exp.json [--seed S] [--scheme NAME] [--out DIR]
    thermem identify --config exp.json [--data DIR] [--constraint qI] [--out DIR]
    thermem predict  --config exp.json --theta theta.json [--horizon H]
    thermem report   trace.csv [trace2.csv ...] [--out report.csv]

Exit codes: 0 success, 2 configuration error, 3 numerical/convergence error,
4 I/O or data-format error. The config schema is documented in
thermem.config; presets "toy" and "toy_reduced" need no mesh section.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from thermem import __version__
from thermem import io as tio
from thermem.config import Experiment, load_config
from thermem.datagen import NoiseSpec, generate_dataset, toy_inputs
from thermem.errors import ConfigurationError, ThermemError
from thermem.estimation import run_em
from thermem.graph import build_operators
from thermem.model import (
    assemble,
    initial_state_from_observation,
    predict,
)

logger = logging.getLogger("thermem.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _experiment(args) -> Experiment:
    cfg = load_config(args.config)
    if getattr(args, "scheme", None):
        cfg["scheme"] = args.scheme
    if getattr(args, "constraint", None):
        cfg["constraint"] = args.constraint
    if getattr(args, "out", None):
        cfg["out"] = args.out
    return Experiment(cfg)


def cmd_generate(args) -> int:
    exp = _experiment(args)
    gen = dict(exp.cfg.get("generate", {}))
    seed = args.seed if args.seed is not None else int(gen.get("seed", 1))
    N = int(gen.get("N", 5000))
    noise_cfg = gen.get("noise", {"kind": "none"})
    noise = NoiseSpec(kind=noise_cfg.get("kind", "none"), sigma2=float(noise_cfg.get("sigma2", 0.0)))

    scheme = exp.scheme
    theta_true = exp.theta_true.get(exp.scheme_name)
    if theta_true is None:
        raise ConfigurationError(
            f"no true parameters known for scheme {exp.scheme_name!r}; add theta_true"
        )
    # The variance that simulates the measurement noise is the one recorded.
    meas_var = exp.spec.meas_var if exp.spec else exp.em_config().R
    traj, model = generate_dataset(
        exp.mesh, scheme, theta_true, noise, N, seed, spec=exp.spec, meas_var=meas_var
    )

    data_path, truth_path, manifest_path = (
        os.path.join(exp.out_dir, name) for name in ("dataset.csv", "truth.csv", "manifest.json"))
    tio.write_trajectory_csv(data_path, traj, full_state=False)
    wrote_truth = bool(gen.get("write_truth", True))
    if wrote_truth:
        tio.write_trajectory_csv(truth_path, traj, full_state=True)

    layer_counts = {
        str(lyr): len(exp.mesh.indices(layer=lyr)) for lyr in range(1, exp.mesh.nz + 1)
    }
    tio.write_manifest(
        manifest_path,
        {
            "package_version": __version__,
            "preset": exp.cfg.get("preset"),
            "spec": dataclasses.asdict(exp.spec) if exp.spec else exp.cfg.get("mesh"),
            "scheme": exp.scheme_name,
            "n_compartments": exp.mesh.n_compartments,
            "layer_counts": layer_counts,
            "observed_indices": exp.mesh.observed_indices,
            "source_indices": [c.index for c in exp.mesh.compartments if c.has_source],
            "theta_true": {"k": theta_true.k, "z": theta_true.z, "dtau": theta_true.dtau},
            "noise": {"kind": noise.kind, "sigma2": noise.sigma2},
            # Known measurement covariance for identification; noiseless data
            # records a small nominal value (R must stay SPD in the filter).
            "R": 1e-10 if noise.noiseless else meas_var,
            "seed": seed,
            "N": N,
            "files": {
                "dataset": os.path.basename(data_path),
                "truth": os.path.basename(truth_path) if wrote_truth else None,
            },
        },
    )
    print(f"wrote {data_path} ({N} steps, {traj.y.shape[1]} channels)")
    return EXIT_OK


def _read_dataset(args, exp: Experiment):
    """Path and trajectory of --data (default: the output directory): a CSV or a dir with dataset.csv."""
    data_dir = args.data or exp.out_dir
    path = data_dir if data_dir.endswith(".csv") else os.path.join(data_dir, "dataset.csv")
    return path, tio.read_trajectory_csv(path)


def cmd_identify(args) -> int:
    exp = _experiment(args)
    data_path, traj = _read_dataset(args, exp)

    manifest_path = os.path.join(os.path.dirname(data_path), "manifest.json")
    R = None
    if os.path.exists(manifest_path):
        manifest = tio.read_manifest(manifest_path)
        R = manifest.get("R")
    cfg = exp.em_config(R_override=R if "R" not in exp.cfg.get("em", {}) else None)

    try:
        theta, constraint, trace = run_em(
            exp.mesh, exp.scheme, traj, cfg, constraint=exp.constraint
        )
    except ThermemError as exc:
        # EM aborts still leave the partial trace on disk for inspection.
        trace = getattr(exc, "trace", None)
        if trace is not None and len(trace):
            tio.write_trace_csv(os.path.join(exp.out_dir, "trace.csv"), trace)
        raise

    out = exp.out_dir
    tio.write_theta_json(os.path.join(out, "theta.json"), theta, trace.theta_names)
    tio.write_constraint_json(os.path.join(out, "constraint.json"), constraint)
    tio.write_trace_csv(os.path.join(out, "trace.csv"), trace)
    status = trace.stop_reason
    tio.write_manifest(
        os.path.join(out, "summary.json"),
        {
            "iterations": len(trace),
            "stop_reason": status,
            "final_loglik": trace.loglik[-1],
            "final_theta_rel_change": trace.theta_rel_change[-1],
            "extrapolations_accepted": sum(s > 1 for s in trace.step_length) - sum(trace.rejected),
            "extrapolations_rejected": sum(trace.rejected),
            "constraint": exp.constraint,
            "scheme": exp.scheme_name,
            "observed_indices": exp.mesh.observed_indices,
            "theta": {"k": theta.k, "z": theta.z, "dtau": theta.dtau},
        },
    )
    print(
        f"identification finished: {status} after {len(trace)} iterations, "
        f"final loglik {trace.loglik[-1]:.6g}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    exp = _experiment(args)
    horizon = args.horizon
    if horizon is None:
        horizon = int(exp.cfg.get("predict", {}).get("horizon", 18000))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    theta_path = args.theta or os.path.join(exp.out_dir, "theta.json")
    theta = tio.read_theta_json(theta_path)

    data_path, traj = _read_dataset(args, exp)

    ops = build_operators(exp.mesh, exp.scheme)
    observed = exp.mesh.observed_indices
    model = assemble(ops, theta, observed, Q=0.0, R=0.0)
    T_1 = initial_state_from_observation(
        traj.y[0], observed, exp.mesh.ambient_index, ops.n
    )
    steps = max(horizon, 2)  # a rollout has two steps or more; `horizon` rows are written
    if exp.spec is not None:
        P = toy_inputs(exp.spec, exp.mesh, steps)
    elif traj.P.shape[0] < horizon:
        raise ConfigurationError(f"dataset provides {traj.P.shape[0]} input rows < horizon {horizon}")
    else:
        P = traj.P[:steps]
    full = predict(model, T_1, P)
    pred = dataclasses.replace(full, P=full.P[:horizon], y=full.y[:horizon], T=full.T[:horizon])

    out = exp.out_dir
    pred_path = os.path.join(out, "prediction.csv")
    tio.write_trajectory_csv(pred_path, pred, full_state=True)

    report = {"horizon": horizon, "theta_file": theta_path, "error": None}
    truth_path = args.truth or os.path.join(os.path.dirname(data_path), "truth.csv")
    if os.path.exists(truth_path):
        truth = tio.read_trajectory_csv(truth_path)
        if truth.T is None:
            raise ConfigurationError(f"{truth_path} does not contain full-state columns")
        H = min(horizon, truth.T.shape[0])
        err = np.abs(pred.T[:H] - truth.T[:H])
        ambient = float(truth.T[0, exp.mesh.ambient_index])
        rise = float(truth.T[:H].max() - ambient)
        pct = float(100.0 * err.max() / rise) if rise > 0 else None
        report["error"] = {
            "steps_compared": H,
            "max_abs_error": float(err.max()),
            "ambient_to_peak_rise": rise,
            "max_error_pct_of_rise": pct,
            "per_compartment_max": err.max(axis=0),
        }
        share = f"{pct:.2f}% of {rise:.3g} degC rise" if pct is not None else "no rise above ambient"
        print(f"prediction error over {H} steps: max {err.max():.4g} degC ({share})")
    else:
        print("no ground truth found; error section omitted")
    tio.write_manifest(os.path.join(out, "error_report.json"), report)
    print(f"wrote {pred_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    if not args.traces:
        raise ConfigurationError("report needs at least one trace file")
    frames = []
    for path in args.traces:
        names, data = tio.read_trace_csv(path)
        frames.append((path, names, data))

    lines = []
    for path, names, data in frames:
        lines.append(f"# {path}: {data.shape[0]} iterations")
        summary_path = os.path.join(os.path.dirname(path) or ".", "summary.json")
        q_cols = [i for i, nm in enumerate(names) if nm.startswith("q_") and nm[2:].isdigit()]
        if q_cols and os.path.exists(summary_path):
            observed = set(tio.read_manifest(summary_path).get("observed_indices", []))
            obs_cols = [i for i in q_cols if int(names[i].split("_")[1]) in observed]
            unobs_cols = [i for i in q_cols if i not in obs_cols]
            lines.append("iter,q_observed_mean,q_observed_max,q_unobserved_mean,q_unobserved_max")
            for row in data:
                obs = row[obs_cols] if obs_cols else np.array([np.nan])
                unobs = row[unobs_cols] if unobs_cols else np.array([np.nan])
                lines.append(
                    f"{int(row[0])},{obs.mean():.6g},{obs.max():.6g},"
                    f"{unobs.mean():.6g},{unobs.max():.6g}"
                )
        else:
            lines.append(",".join(names))
            for row in data:
                lines.append(",".join(f"{v:.6g}" for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermem",
        description="Mesh-based compartment thermal models: simulate and identify.",
    )
    parser.add_argument("--version", action="version", version=f"thermem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config JSON")
    common.add_argument("--scheme", default=None, help="weak, strong or a scheme the config defines")
    common.add_argument("--out", default=None, help="output directory override")

    g = sub.add_parser("generate", parents=[common], help="simulate a dataset")
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_generate)

    i = sub.add_parser("identify", parents=[common], help="run EM identification")
    i.add_argument("--data", default=None, help="dataset dir or CSV path")
    i.add_argument("--constraint", choices=["qI", "diag", "aLLbI"], default=None)
    i.set_defaults(func=cmd_identify)

    p = sub.add_parser("predict", parents=[common], help="long-horizon prediction")
    p.add_argument("--theta", default=None, help="identified parameters JSON")
    p.add_argument("--data", default=None, help="dataset dir or CSV (initial state)")
    p.add_argument("--truth", default=None, help="ground-truth full-state CSV")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_predict)

    r = sub.add_parser("report", help="tabulate EM traces")
    r.add_argument("traces", nargs="*", help="trace.csv files")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        logger.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except ValueError as exc:
        logger.error("invalid argument: %s", exc)
        return EXIT_CONFIG
    except (tio.DataFormatError, OSError) as exc:
        logger.error("i/o failure: %s", exc)
        return EXIT_IO
    except ThermemError as exc:  # stability, convergence, numerical, identifiability
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
