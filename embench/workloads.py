"""The three benchmark workloads, their timed operations and output checks.

Every workload identifies the model with a fixed E-step budget, never a
tolerance stop: plain EM converges linearly here, so a tolerance stop would
either outlast a run or stop far from the optimum, and would charge a
faster-converging EM for running longer. Kernel and solver work then moves
``identify_s``, and EM acceleration moves ``k_err_max`` and ``pred_err_degC``.

One round runs every operation of a workload once in a fixed order: an
untimed warm-up set-up, the timed set-ups, one identification, and the timed
prediction batches. Each operation is checked against a computation made
apart from the program or against a property the method must have; an
operation that raises or fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from thermem import cli, datagen, estimation, graph
from thermem import model as tmodel

K_INIT = 1e-2   # initial guess for every k and z, as in the acceptance gate
Q_INIT = 1e-2
NOISE_SIGMA2 = 1e-4   # AAt process noise, as in acceptance criterion 3
# A positive theta tolerance no EM step meets, so run_em stops at max_iter.
NEVER_CONVERGED = 1e-300
MIN_RISE_DEGC = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str            # "reduced" | "full" (ToySpec factory)
    constraint: str      # run_em constraint kind
    budget: int          # E-steps per identification
    n_id: int            # steps of the record used for identification
    horizon: int         # generated record length = prediction horizon
    setup_reps: int      # timed set-ups per round (after one warm-up)
    predict_batches: int
    predict_per_batch: int
    dare_check: str      # "scipy" | "residual" | "" (no model-side DARE check)


WORKLOADS = {
    "reduced-em": Workload(
        name="reduced-em", spec="reduced", constraint=estimation.SCALAR_IDENTITY,
        budget=100, n_id=5000, horizon=18000, setup_reps=5,
        predict_batches=3, predict_per_batch=6, dare_check="scipy",
    ),
    "full-em": Workload(
        name="full-em", spec="full", constraint=estimation.ALPHA_LL_BETA_I,
        budget=3, n_id=5000, horizon=6000, setup_reps=3,
        predict_batches=3, predict_per_batch=2, dare_check="residual",
    ),
    "cli-pipeline": Workload(
        name="cli-pipeline", spec="reduced", constraint="diag",
        budget=6, n_id=18000, horizon=18000, setup_reps=3,
        predict_batches=3, predict_per_batch=1, dare_check="",
    ),
}


def toy_spec(w: Workload):
    return datagen.ToySpec.reduced() if w.spec == "reduced" else datagen.ToySpec.full()


class Ledger:
    """Operations attempted and failed, with the reasons checks gave."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures = []

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.check_failures.extend(f"{op}: {p}" for p in problems)
            for p in problems:
                print(f"embench: {op} failed: {p}", file=sys.stderr)

    def fail(self, op, reason):
        """An operation that did not complete; its outputs were never checked."""
        self.attempted += 1
        self.failed += 1
        print(f"embench: {op} failed: {reason}", file=sys.stderr)

    def record_many(self, op, count):
        """``count`` operations that passed without a check of their own."""
        self.attempted += count

    def skip(self, op, count, reason):
        """Operations of a round that could not run after an earlier failure."""
        self.attempted += count
        self.failed += count
        print(f"embench: {count} x {op} not run: {reason}", file=sys.stderr)


class Samples:
    """Timings and errors gathered over the rounds of one run."""

    def __init__(self):
        self.setup_s, self.identify_s, self.predict_s = [], [], []
        self.k_err, self.pred_err = [], []


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Checks. Each returns a list of problems; an empty list passes.


def k_errors(k, k_true):
    return np.abs(np.asarray(k) - k_true) / k_true


def check_identification(A, loglik, esteps, budget, k_err, k_err_init):
    problems = []
    if esteps != budget:
        problems.append(f"{esteps} E-steps run, budget {budget}")
    rows = np.abs(A.sum(axis=1) - 1.0).max()
    if not rows <= 1e-12:
        problems.append(f"row sums of A differ from 1 by {rows:.3g}")
    d = np.diagonal(A)
    if not (d.min() >= 0.0 and d.max() <= 1.0):
        problems.append(f"diagonal of A spans [{d.min():.6g}, {d.max():.6g}]")
    if not loglik[-1] > loglik[0]:
        problems.append(f"log-likelihood fell from {loglik[0]:.6g} to {loglik[-1]:.6g}")
    if not k_err < k_err_init:
        problems.append(f"k error {k_err:.4g} not below the initial guess's {k_err_init:.4g}")
    return problems


def plain_rollout(A, B, T1, P):
    """T[t+1] = A T[t] + B P[t], one step at a time; P holds N-1 rows."""
    T = np.empty((P.shape[0] + 1, T1.shape[0]))
    T[0] = T1
    for t in range(P.shape[0]):
        T[t + 1] = A @ T[t] + B @ P[t]
    return T


def check_rollout(T, A, B, T1, P, rel_tol):
    ref = plain_rollout(A, B, T1, P)
    if T.shape != ref.shape:
        return [f"prediction has shape {T.shape}, plain loop {ref.shape}"]
    diff = np.abs(T - ref).max() / np.abs(ref).max()
    return [] if diff <= rel_tol else [f"prediction differs from the plain loop by {diff:.3g} relative"]


def check_rise(T, ambient_index):
    rise = T.max() - T[0, ambient_index]
    return [] if rise > MIN_RISE_DEGC else [f"true trajectory rises only {rise:.3g} degC"]


def check_dare(kind, model):
    """Steady predicted covariance of the final model, checked apart from solve_dare."""
    from thermem.solvers import DareProblem, solve_dare

    A, C, Q, R = model.A, model.C, model.Q, model.R
    V = solve_dare(DareProblem(A=A, C=C, Q=Q, R=R))
    scale = np.linalg.norm(V, "fro")
    if kind == "scipy":
        # Dual (control-form) DARE of the filter equation.
        ref = sla.solve_discrete_are(A.T, C.T, Q, R)
        diff = np.linalg.norm(V - ref, "fro") / scale
        return [] if diff <= 1e-6 else [f"solve_dare differs from scipy's DARE by {diff:.3g} relative"]
    problems = []
    AV = A @ V
    S = C @ V @ C.T + R
    gain_term = AV @ C.T @ np.linalg.solve(S, C @ AV.T)
    res = np.linalg.norm(V - (AV @ A.T - gain_term + Q), "fro") / scale
    if not res <= 1e-8:
        problems.append(f"DARE residual {res:.3g} relative")
    asym = np.abs(V - V.T).max() / np.abs(V).max()
    if not asym <= 1e-12:
        problems.append(f"DARE solution asymmetric by {asym:.3g}")
    eigs = np.linalg.eigvalsh((V + V.T) / 2)
    if not eigs.min() >= -1e-10 * eigs.max():
        problems.append(f"DARE solution has eigenvalue {eigs.min():.3g}")
    return problems


# ---------------------------------------------------------------------------
# Library workloads: reduced-em and full-em.


@dataclass
class Problem:
    spec: object
    mesh: object
    scheme: object
    ops: object
    truth: object
    observed: list


def em_setup(w, seed, tracer=None):
    spec = toy_spec(w)
    with _span(tracer, "mesh.build"):
        mesh, _, strong = datagen.build_toy(spec)
    with _span(tracer, "graph.operators"):
        ops = graph.build_operators(mesh, strong)
    with _span(tracer, "datagen.generate"):
        truth, _ = datagen.generate_dataset(
            mesh, strong, datagen.strong_theta(spec), datagen.NoiseSpec.AAt(NOISE_SIGMA2),
            w.horizon, seed, spec=spec, ops=ops,
        )
    observed = [c.index for c in mesh.compartments if c.observed]
    return Problem(spec, mesh, strong, ops, truth, observed)


def em_identify(w, prob):
    data = tmodel.Trajectory(P=prob.truth.P[: w.n_id], y=prob.truth.y[: w.n_id])
    cfg = estimation.EmConfig(
        max_iter=w.budget, theta_tol=NEVER_CONVERGED, theta_init=K_INIT, q_init=Q_INIT,
        R=prob.spec.meas_var,
    )
    return estimation.run_em(prob.mesh, prob.scheme, data, cfg, constraint=w.constraint)


def em_predict(prob, theta):
    model = tmodel.assemble(prob.ops, theta, prob.observed)
    T_1 = tmodel.initial_state_from_observation(
        prob.truth.y[0], prob.observed, prob.mesh.ambient_index, prob.ops.n
    )
    return model, T_1, tmodel.predict(model, T_1, prob.truth.P)


def em_round(w, seed, ledger, samples, tracer=None):
    """One round of a library workload; returns the identify span if traced.

    Untraced, the round warms up with one set-up and then times every
    repetition; traced, each operation runs once.
    """
    k_true = datagen.STRONG_K_TRUE
    k_err_init = k_errors(np.full(k_true.shape, K_INIT), k_true).max()

    setups = 1 if tracer is not None else 1 + w.setup_reps
    for i in range(setups):
        t0 = time.perf_counter()
        with _span(tracer, "setup"):
            prob = em_setup(w, seed, tracer)
        if tracer is not None or i > 0:   # the first untraced set-up warms up
            samples.setup_s.append(time.perf_counter() - t0)
        ledger.record("setup", check_rise(prob.truth.T, prob.mesh.ambient_index))

    t0 = time.perf_counter()
    with _span(tracer, "identify") as root:
        theta, constraint, trace = em_identify(w, prob)
    samples.identify_s.append(time.perf_counter() - t0)
    k_err = k_errors(theta.k, k_true).max()
    samples.k_err.append(k_err)
    Q_state = theta.dtau**2 * constraint.matrix()
    final = tmodel.assemble(prob.ops, theta, prob.observed, Q=Q_state, R=prob.spec.meas_var)
    problems = check_identification(final.A, trace.loglik, len(trace), w.budget, k_err, k_err_init)
    if w.dare_check:
        problems += check_dare(w.dare_check, final)
    ledger.record("identify", problems)

    batches, per_batch = (w.predict_batches, w.predict_per_batch) if tracer is None else (1, 1)
    for b in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            with _span(tracer, "predict"):
                model, T_1, pred = em_predict(prob, theta)
        samples.predict_s.append((time.perf_counter() - t0) / per_batch)
        ledger.record_many("predict", per_batch - (b == batches - 1))
    samples.pred_err.append(np.abs(pred.T - prob.truth.T).max())
    ledger.record(
        "predict", check_rollout(pred.T, model.A, model.B, T_1, prob.truth.P[:-1], 1e-10)
    )
    return root


def em_identify_once(w, seed, out_dir=None):
    """Untraced set-up and identification; returns the identification time."""
    prob = em_setup(w, seed)
    t0 = time.perf_counter()
    em_identify(w, prob)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# cli-pipeline: thermem generate -> identify -> predict, in-process.


def _cli(argv):
    """Run one thermem command in this process, its chatter sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def _read_csv(path):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _columns(names, data, prefix):
    return data[:, [i for i, nm in enumerate(names) if nm.startswith(prefix)]]


def cli_config(w, seed, run_dir):
    cfg = {
        "preset": "toy_reduced",
        "scheme": "strong",
        "constraint": w.constraint,
        "em": {
            "max_iter": w.budget, "theta_tol": NEVER_CONVERGED,
            "theta_init": K_INIT, "q_init": Q_INIT,
        },
        "generate": {
            "N": w.horizon, "seed": seed,
            "noise": {"kind": "AAt", "sigma2": NOISE_SIGMA2}, "write_truth": True,
        },
        "predict": {"horizon": w.horizon},
        "out": run_dir,
    }
    if os.path.isdir(run_dir):
        shutil.rmtree(run_dir)
    os.makedirs(run_dir)
    path = os.path.join(run_dir, "experiment.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return path


def _checked_cli(ledger, argv, op):
    rc = _cli(argv)
    if rc == 0:
        ledger.record(op, [])
    else:
        ledger.fail(op, f"thermem {argv[0]} exited {rc}")
    return rc


def cli_round(w, seed, ledger, samples, run_dir, tracer=None):
    """One round of thermem generate -> identify -> predict; returns the identify span."""
    config = cli_config(w, seed, run_dir)
    generate = ["generate", "--config", config, "--seed", str(seed)]

    setups = 1 if tracer is not None else 1 + w.setup_reps
    for i in range(setups):
        t0 = time.perf_counter()
        with _span(tracer, "setup"):
            _checked_cli(ledger, generate, "generate")
        if tracer is not None or i > 0:   # the first untraced generate warms up
            samples.setup_s.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    with _span(tracer, "identify") as root:
        rc = _cli(["identify", "--config", config])
    samples.identify_s.append(time.perf_counter() - t0)
    predicts = w.predict_batches if tracer is None else 1
    if rc != 0:
        ledger.fail("identify", f"thermem identify exited {rc}")
        ledger.skip("predict", predicts, "no identified model")
        return root

    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(run_dir, "theta.json")) as fh:
        theta_json = json.load(fh)
    k_true = np.asarray(manifest["theta_true"]["k"])
    k_err = k_errors(theta_json["k"], k_true).max()
    samples.k_err.append(k_err)
    theta = tmodel.ThetaParams(k=theta_json["k"], z=theta_json["z"], dtau=theta_json["dtau"])
    mesh, _, strong = datagen.build_toy(datagen.ToySpec.reduced())
    model = tmodel.assemble(graph.build_operators(mesh, strong), theta, manifest["observed_indices"])
    names, trace = _read_csv(os.path.join(run_dir, "trace.csv"))
    k_err_init = k_errors(np.full(k_true.shape, K_INIT), k_true).max()
    ledger.record(
        "identify",
        check_identification(
            model.A, trace[:, names.index("loglik")], trace.shape[0], w.budget, k_err, k_err_init
        ),
    )

    for i in range(predicts):
        t0 = time.perf_counter()
        with _span(tracer, "predict"):
            rc = _cli(["predict", "--config", config])
        samples.predict_s.append(time.perf_counter() - t0)
        if rc != 0:
            ledger.fail("predict", f"thermem predict exited {rc}")
            ledger.skip("predict", predicts - 1 - i, "an earlier predict failed")
            return root
        if i < predicts - 1:
            ledger.record("predict", [])

    pnames, pred = _read_csv(os.path.join(run_dir, "prediction.csv"))
    tnames, truth = _read_csv(os.path.join(run_dir, "truth.csv"))
    T_pred, T_true = _columns(pnames, pred, "T_"), _columns(tnames, truth, "T_")
    P = _columns(pnames, pred, "P_")
    with open(os.path.join(run_dir, "error_report.json")) as fh:
        reported = json.load(fh)["error"]["max_abs_error"]
    H = min(T_pred.shape[0], T_true.shape[0])
    own = np.abs(T_pred[:H] - T_true[:H]).max()
    samples.pred_err.append(reported)
    problems = check_rise(T_true, mesh.ambient_index)
    # Both CSVs carry 12 significant digits, about 5e-11 degC at these temperatures.
    if not abs(reported - own) <= 1e-8:
        problems.append(f"error_report max_abs_error {reported:.12g}, recomputed {own:.12g}")
    if H < w.horizon:
        problems.append(f"error report covers {H} of {w.horizon} steps")
    problems += check_rollout(T_pred, model.A, model.B, T_pred[0], P[:-1], 1e-10)
    ledger.record("predict", problems)
    return root


def cli_identify_once(w, seed, out_dir):
    """Untraced generate and identify; returns the identification time."""
    config = cli_config(w, seed, os.path.join(out_dir, "cli"))
    if _cli(["generate", "--config", config, "--seed", str(seed)]) != 0:
        raise RuntimeError("thermem generate failed")
    t0 = time.perf_counter()
    if _cli(["identify", "--config", config]) != 0:
        raise RuntimeError("thermem identify failed")
    return time.perf_counter() - t0


def run_round(w, seed, ledger, samples, out_dir, tracer=None):
    if w.name == "cli-pipeline":
        return cli_round(w, seed, ledger, samples, os.path.join(out_dir, "cli"), tracer)
    return em_round(w, seed, ledger, samples, tracer)


def identify_once(w, seed, out_dir):
    if w.name == "cli-pipeline":
        return cli_identify_once(w, seed, out_dir)
    return em_identify_once(w, seed, out_dir)


def median(values):
    return float(statistics.median(values))
