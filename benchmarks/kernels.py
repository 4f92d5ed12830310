"""Per-step cost of thermem's affine recursions, sequential against blocked.

    python3 benchmarks/kernels.py
    python3 benchmarks/kernels.py --sizes 300 400 450 500 --repeats 5
    python3 benchmarks/kernels.py --out BENCH_kernels.json --label "after the change"

For each operator size n, times the three forms of ``_kernels.sequential_scan``
(the rollout on A; the filter's predictor closed loop F_p = A - K C, K the
dense predictor gain, as U = K and W = C with a CSR C; and the smoother's
adjoint F_p' = A' - C' K' backwards, over A' with U = C' as CSR and W = K')
and, for the filter and the smoother, the blocked ``affine_scan`` on the
dense operator each hands it at n below ``SEQUENTIAL_MIN_N``: the filter's
F_p over the whole record, and the smoother's F_p' backwards in chunks of
``_kernels._INPUT_ROWS`` steps, each chunk carrying its state from the next,
as ``smooth_steady`` runs it. The rollout always steps, so it has no blocked
variant. Each figure is microseconds per step, the best of ``--repeats``
runs, the variants interleaved within each repeat. The scans write over a
fresh copy of the same random record each time.

Each sequential form is checked against its blocked counterpart on the
record it timed: the script exits 1, and records nothing, when they differ
by more than 1e-10 relative, so factors that no longer give the operator
that the blocked scan runs fail here instead of timing the wrong recursion.

The operators are 3-D grid ones like the module's: the first n cells of a
near-cubic grid, each coupled to its up to six neighbours and leaking to a
fixed ambient, so A has about 7 nonzeros per row and spectral radius below
one; every 20th state is observed. Only the sparsity and the sizes matter
for the timings, not the values.

Prints one JSON object; with ``--out`` it is also appended to the ``runs``
list of that file. thermem is imported from ``src/`` of the checkout this
file sits in, so a copy of the file in another checkout times that one.
"""

import argparse
import json
import os
import platform
import sys
import time

# Two OpenBLAS threads, as in embench/run.py. Set before numpy is imported.
BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from thermem import _kernels  # noqa: E402

OBSERVE_EVERY = 20
# The largest relative difference allowed between a pass's sequential and
# blocked scans of the same record.
MAX_MISMATCH = 1e-10


def grid_operator(n, coupling=0.12, leak=0.002):
    """A = I - L on the first n cells of a near-cubic grid, L the weighted
    graph Laplacian plus a leak to the ambient on the diagonal."""
    side = int(np.ceil(n ** (1 / 3)))
    idx = np.arange(n)
    ix, iy, iz = idx % side, (idx // side) % side, idx // (side * side)
    rows, cols = [], []
    for d, coord in ((1, ix), (side, iy), (side * side, iz)):
        ok = (coord < side - 1) & (idx + d < n)
        rows += [idx[ok], idx[ok] + d]
        cols += [idx[ok] + d, idx[ok]]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    L = sp.csr_array((np.full(rows.size, -coupling), (rows, cols)), shape=(n, n))
    diag = -np.asarray(L.sum(axis=1)).ravel() + leak
    return sp.csr_array(sp.identity(n) - L - sp.diags(diag))


def cases(n):
    """(pass, evaluator) -> the scan call on a record X."""
    A = grid_operator(n)
    C = np.eye(n)[::OBSERVE_EVERY]
    K = 0.5 * (A @ C.T)  # F_p = A (I - C'C / 2) is stable, A being symmetric
    F = A.toarray() - K @ C
    FpT = F.T
    At, Ct, Kt = A.T.tocsr(), sp.csr_array(C.T), np.ascontiguousarray(K.T)
    C_csr = sp.csr_array(C)
    seq, blk = _kernels.sequential_scan, _kernels.affine_scan

    def blk_chunks(X):
        rows = _kernels._INPUT_ROWS
        for stop in range(X.shape[0] - 1, 0, -rows):
            blk(FpT, X[max(stop - rows, 0) : stop + 1], reverse=True)
    return A, C.shape[0], {
        ("rollout", "sequential"): lambda X: seq(A, X),
        ("filter", "sequential"): lambda X: seq(A, X, U=K, W=C_csr),
        ("filter", "blocked"): lambda X: blk(F, X),
        ("smooth", "sequential"): lambda X: seq(At, X, reverse=True, U=Ct, W=Kt),
        ("smooth", "blocked"): blk_chunks,
    }


def time_size(n, steps, repeats, rng):
    A, n_y, calls = cases(n)
    X0 = rng.normal(size=(steps, n))
    best = dict.fromkeys(calls, np.inf)
    stepped, mismatch = {}, {}
    for _ in range(repeats):
        for (name, ev), call in calls.items():
            X = X0.copy()
            t0 = time.perf_counter()
            call(X)
            best[name, ev] = min(best[name, ev], time.perf_counter() - t0)
            # Each pass's sequential form runs before its blocked one.
            if ev == "sequential":
                stepped[name] = X
            elif name in stepped:
                ref = stepped.pop(name)
                err = float(np.max(np.abs(ref - X)) / np.max(np.abs(X)))
                mismatch[name] = max(mismatch.get(name, 0.0), err)
    out = {"n": n, "n_y": n_y, "nnz_per_row": round(A.nnz / n, 2),
           "rule": "sequential" if _kernels.sequential(A) else "blocked"}
    for name in ("rollout", "filter", "smooth"):
        us = {ev: round(1e6 * t / (steps - 1), 2) for (pass_, ev), t in best.items() if pass_ == name}
        out[name] = {f"{ev}_us_per_step": v for ev, v in us.items()}
        if len(us) > 1:
            out[name]["faster"] = min(us, key=us.get)
            out[name]["sequential_vs_blocked_rel"] = float(f"{mismatch[name]:.3g}")
    return out


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[178, 817])
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON file whose 'runs' list the result is appended to")
    p.add_argument("--label", default="", help="a note stored with the result")
    args = p.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    result = {
        "label": args.label,
        "command": "python3 benchmarks/kernels.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": machine(),
        "steps": args.steps,
        "repeats": args.repeats,
        "sequential_min_n": _kernels.SEQUENTIAL_MIN_N,
        "sizes": [time_size(n, args.steps, args.repeats, rng) for n in args.sizes],
    }
    bad = [(size["n"], name) for size in result["sizes"] for name in ("filter", "smooth")
           if not size[name]["sequential_vs_blocked_rel"] <= MAX_MISMATCH]
    if bad:
        print(json.dumps(result))
        sys.exit(f"sequential and blocked scans differ by more than {MAX_MISMATCH:g} "
                 f"relative at (n, pass) = {bad}")
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
