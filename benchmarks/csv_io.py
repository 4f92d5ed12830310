"""Best-of-k time of thermem's trajectory CSV writer and reader on a full-state record.

    python3 benchmarks/csv_io.py
    python3 benchmarks/csv_io.py --rows 300 --repeats 1
    python3 benchmarks/csv_io.py --out BENCH_csv.json --label "after the change"

The record has the shape of ``thermem generate``'s ``truth.csv`` on the
reduced module: ``--rows`` steps (18000 by default, as the cli-pipeline
workload of embench writes) of ``t``, 178 temperatures and 18 inputs. The
temperatures are a random walk about 25 degC and the inputs switch between
0 and a random power, so the values carry all 12 significant digits and the
inputs many exact zeros. ``write_trajectory_csv`` and
``read_trajectory_csv`` are timed ``--repeats`` times, interleaved within
each repeat, into a temporary directory, and reported as the best and the
median in seconds with the file's size.

The first file written is compared with what ``np.savetxt(fmt="%.12g")``
writes for the same rows: the script exits 1, and records nothing, when
their bytes differ or when the reader returns other values than those
written, so a writer that got faster by writing something else fails here.

Prints one JSON object with the machine and library versions; with
``--out`` it is also appended to the ``runs`` list of that file. thermem is
imported from ``src/`` of the checkout this file sits in, so a copy of the
file in another checkout times that one.
"""

import argparse
import json
import os
import sys
import tempfile
import time

# kernels.py sets the BLAS threads before numpy is imported.
from kernels import machine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from thermem import io as tio  # noqa: E402
from thermem.model import Trajectory  # noqa: E402


def record(rows, states, inputs, seed):
    rng = np.random.default_rng(seed)
    T = 25.0 + np.cumsum(rng.normal(scale=0.05, size=(rows, states)), axis=0)
    P = rng.uniform(0.0, 50.0, size=(rows, inputs)) * (rng.uniform(size=(rows, inputs)) > 0.5)
    return Trajectory(P=P, y=T, T=T)


def check(path, ref_path, traj):
    """Why the file at ``path`` is not np.savetxt's, or None."""
    header = ",".join(["t"] + [f"T_{i + 1}" for i in range(traj.T.shape[1])]
                      + [f"P_{i + 1}" for i in range(traj.P.shape[1])])
    data = np.hstack([np.arange(traj.T.shape[0])[:, None], traj.T, traj.P])
    np.savetxt(ref_path, data, delimiter=",", header=header, comments="", fmt="%.12g")
    with open(path, "rb") as a, open(ref_path, "rb") as b:
        if a.read() != b.read():
            return "the written file differs from np.savetxt(fmt='%.12g')'s bytes"
    back = tio.read_trajectory_csv(path)
    if not all(np.allclose(a, b, rtol=1e-11, atol=0) for a, b in ((back.T, traj.T), (back.P, traj.P))):
        return "the reader returned other values than those written"
    return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", type=int, default=18000)
    p.add_argument("--states", type=int, default=178)
    p.add_argument("--inputs", type=int, default=18)
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON file whose 'runs' list the result is appended to")
    p.add_argument("--label", default="", help="a note stored with the result")
    args = p.parse_args(argv)
    traj = record(args.rows, args.states, args.inputs, args.seed)
    times = {"write": [], "read": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "truth.csv")
        for i in range(args.repeats):
            t0 = time.perf_counter()
            tio.write_trajectory_csv(path, traj, full_state=True)
            times["write"].append(time.perf_counter() - t0)
            if i == 0:
                problem = check(path, os.path.join(tmp, "savetxt.csv"), traj)
                if problem:
                    sys.exit(f"csv_io: {problem}")
            t0 = time.perf_counter()
            tio.read_trajectory_csv(path)
            times["read"].append(time.perf_counter() - t0)
        size = os.path.getsize(path)
    result = {
        "label": args.label,
        "command": "python3 benchmarks/csv_io.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": machine(),
        "shape": [args.rows, 1 + args.states + args.inputs],
        "bytes": size,
        "repeats": args.repeats,
        "seed": args.seed,
    }
    for op, ts in times.items():
        result[f"{op}_s"] = {"best": round(min(ts), 4), "median": round(float(np.median(ts)), 4)}
    if args.out:
        runs = {"description": __doc__.splitlines()[0], "runs": []}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                runs = json.load(fh)
        runs["runs"].append(result)
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
