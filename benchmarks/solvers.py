"""Best-of-k time of thermem's DARE and DLYAP solves on the toy modules' EM problems.

    python3 benchmarks/solvers.py
    python3 benchmarks/solvers.py --modules reduced --steps 300 --repeats 1
    python3 benchmarks/solvers.py --out BENCH_solvers.json --label "after the change"

For each toy module (reduced, n=178; full, n=817) a record is generated as
embench's library workloads do (strong scheme at its true parameters, AAt
process noise 1e-4, ``--seed``), and two EM iterations run on it from the
workloads' start (every k and z 1e-2, q 1e-2), qI on the reduced module and
aLLbI on the full one. The solver calls of those iterations are kept:

- ``dare_cold``: the first E-step's DARE, from no start;
- ``dare_warm``: the second E-step's DARE, from the first one's solution,
  as ``run_em`` restarts it;
- ``dlyap``: the first E-step's smoother Lyapunov equation, the adjoint
  covariance Lambda = F_p' Lambda F_p + C' S^-1 C (its residual is relative
  to |Lambda|_F, which is large).

Each is then timed ``--repeats`` times, the three interleaved within each
repeat, and reported as the best and the median in seconds, with the number
of Stein (squaring) solves it ran and its relative residual. Only the
solvers' inputs come from the EM run; the record length changes them little.

Prints one JSON object with the machine and library versions; with
``--out`` it is also appended to the ``runs`` list of that file. thermem is
imported from ``src/`` of the checkout this file sits in, so a copy of the
file in another checkout times that one.
"""

import argparse
import json
import os
import sys
import time

# kernels.py sets the BLAS threads before numpy is imported.
from kernels import machine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import thermem.smoother as smoother  # noqa: E402
import thermem.solvers as solvers  # noqa: E402
from thermem import datagen, estimation  # noqa: E402
from thermem.model import Trajectory  # noqa: E402

MODULES = {
    "reduced": (datagen.ToySpec.reduced, estimation.SCALAR_IDENTITY),
    "full": (datagen.ToySpec.full, estimation.ALPHA_LL_BETA_I),
}


def em_problems(module, steps, seed):
    """(cold DARE, warm DARE with its start, DLYAP) of two EM iterations."""
    make_spec, constraint = MODULES[module]
    spec = make_spec()
    mesh, _, strong = datagen.build_toy(spec)
    truth, _ = datagen.generate_dataset(
        mesh, strong, datagen.strong_theta(spec), datagen.NoiseSpec.AAt(1e-4), steps, seed, spec=spec
    )
    dares, dlyaps = [], []
    solve_dare, solve_dlyap = smoother.solve_dare, smoother.solve_dlyap

    def kept_dare(p, V0=None):
        dares.append((p, V0))
        return solve_dare(p, V0=V0)

    def kept_dlyap(J, W):
        dlyaps.append((J, W))
        return solve_dlyap(J, W)

    smoother.solve_dare, smoother.solve_dlyap = kept_dare, kept_dlyap
    try:
        cfg = estimation.EmConfig(max_iter=2, theta_tol=1e-300, theta_init=1e-2, q_init=1e-2, R=spec.meas_var)
        estimation.run_em(mesh, strong, Trajectory(P=truth.P, y=truth.y), cfg, constraint=constraint)
    finally:
        smoother.solve_dare, smoother.solve_dlyap = solve_dare, solve_dlyap
    (cold, none), (warm, V0) = dares[:2]
    assert none is None and V0 is not None, "expected a cold then a warm DARE"
    return {
        "dare_cold": (lambda: solvers.solve_dare(cold), lambda V: solvers.dare_residual(V, cold)),
        "dare_warm": (lambda: solvers.solve_dare(warm, V0=V0), lambda V: solvers.dare_residual(V, warm)),
        "dlyap": (lambda: solvers.solve_dlyap(*dlyaps[0]), lambda V: solvers.dlyap_residual(V, *dlyaps[0])),
    }, cold.A.shape[0]


def count_stein(call):
    """The result of ``call`` and the squaring solves it ran."""
    count = [0]
    squaring = solvers._squaring

    def counted(*args):
        count[0] += 1
        return squaring(*args)

    solvers._squaring = counted
    try:
        return call(), count[0]
    finally:
        solvers._squaring = squaring


def time_module(module, steps, repeats, seed):
    calls, n = em_problems(module, steps, seed)
    times = {name: [] for name in calls}
    for _ in range(repeats):
        for name, (call, _) in calls.items():
            t0 = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - t0)
    out = {"module": module, "n": n}
    for name, (call, residual) in calls.items():
        V, stein = count_stein(call)
        out[name] = {
            "best_s": round(min(times[name]), 4),
            "median_s": round(float(np.median(times[name])), 4),
            "stein_solves": stein,
            "rel_residual": float(f"{residual(V) / np.linalg.norm(V, 'fro'):.3g}"),
        }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--modules", nargs="+", choices=sorted(MODULES), default=["reduced", "full"])
    p.add_argument("--steps", type=int, default=2000, help="record length of the EM runs")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", help="JSON file whose 'runs' list the result is appended to")
    p.add_argument("--label", default="", help="a note stored with the result")
    args = p.parse_args(argv)
    result = {
        "label": args.label,
        "command": "python3 benchmarks/solvers.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": machine(),
        "steps": args.steps,
        "repeats": args.repeats,
        "seed": args.seed,
        "modules": [time_module(m, args.steps, args.repeats, args.seed) for m in args.modules],
    }
    if args.out:
        record = {"description": __doc__.splitlines()[0], "runs": []}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                record = json.load(fh)
        record["runs"].append(result)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
