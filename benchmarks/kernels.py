"""Per-step cost of thermem's affine recursions, folded against factored closed loops.

    python3 benchmarks/kernels.py
    python3 benchmarks/kernels.py --sizes 300 400 450 500 --repeats 5
    python3 benchmarks/kernels.py --out BENCH_kernels.json --label "after the change"

For each operator size n, times ``_kernels.sequential_scan`` on the rollout's
A and, for the filter and the smoother, on the two forms their closed loop
takes on either side of ``FACTORED_MIN_N``:

- factored: the filter's F_p = A - K C as the CSR A with U = K and a CSR
  W = C, and the smoother's adjoint F_p' = A' - C' K' backwards as the CSR
  A' with a CSR U = C' and W = K';
- folded: the CSR of F_p, and backwards the CSR of F_p', with no rank term.

The smoother runs backwards in chunks of ``_kernels._INPUT_ROWS`` steps,
each chunk carrying its state from the next, as ``smooth_steady`` runs it.
Each figure is microseconds per step, the best of ``--repeats`` runs, the
variants interleaved within each repeat. The scans write over a fresh copy
of the same random record each time.

Each pass's folded form is checked against its factored one on the record
it timed: the script exits 1, and records nothing, when they differ by more
than 1e-10 relative, so operators that no longer give the closed loop the
kernels step fail here instead of timing the wrong recursion.

The operators are 3-D grid ones like the module's: the first n cells of a
near-cubic grid, each coupled to its up to six neighbours and leaking to a
fixed ambient, so A has about 7 nonzeros per row and spectral radius below
one; every 20th state is observed. The gain is dense, as the module's
predictor gain is, so that K C fills the observed columns of F_p: a gain
with A's sparsity would make the folded form look far cheaper than it is
on the model. Only the sparsity and the sizes matter for the timings, not
the values.

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
# The 2-norm of the dense part of the gain. A's 2-norm is at most 1 - leak
# (0.998), so F_p = A (I - C'C / 2) - E C stays a contraction.
GAIN_PERTURBATION = 1e-3
# The largest relative difference allowed between a pass's folded and
# factored scans of the same record.
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


def cases(n, rng):
    """(pass, form) -> the scan call on a record X."""
    A = grid_operator(n)
    C = np.eye(n)[::OBSERVE_EVERY]
    E = rng.normal(size=(n, C.shape[0]))
    K = 0.5 * (A @ C.T) + (GAIN_PERTURBATION / np.linalg.norm(E, 2)) * E
    F = A.toarray() - K @ C
    F_csr, FT_csr = sp.csr_array(F), sp.csr_array(F.T)
    At, Ct, Kt = A.T.tocsr(), sp.csr_array(C.T), np.ascontiguousarray(K.T)
    C_csr = sp.csr_array(C)
    seq = _kernels.sequential_scan

    def chunked(scan):
        def run(X):
            rows = _kernels._INPUT_ROWS
            for stop in range(X.shape[0] - 1, 0, -rows):
                scan(X[max(stop - rows, 0) : stop + 1])
        return run
    return A, C.shape[0], {
        ("rollout", "stepped"): lambda X: seq(A, X),
        ("filter", "factored"): lambda X: seq(A, X, U=K, W=C_csr),
        ("filter", "folded"): lambda X: seq(F_csr, X),
        ("smooth", "factored"): chunked(lambda X: seq(At, X, reverse=True, U=Ct, W=Kt)),
        ("smooth", "folded"): chunked(lambda X: seq(FT_csr, X, reverse=True)),
    }


def time_size(n, steps, repeats, rng):
    A, n_y, calls = cases(n, rng)
    X0 = rng.normal(size=(steps, n))
    best = dict.fromkeys(calls, np.inf)
    factored, mismatch = {}, {}
    for _ in range(repeats):
        for (name, form), call in calls.items():
            X = X0.copy()
            t0 = time.perf_counter()
            call(X)
            best[name, form] = min(best[name, form], time.perf_counter() - t0)
            # Each pass's factored form runs before its folded one.
            if form == "factored":
                factored[name] = X
            elif name in factored:
                ref = factored.pop(name)
                err = float(np.max(np.abs(ref - X)) / np.max(np.abs(X)))
                mismatch[name] = max(mismatch.get(name, 0.0), err)
    out = {"n": n, "n_y": n_y, "nnz_per_row": round(A.nnz / n, 2),
           "rule": "factored" if _kernels.factored(A) else "folded"}
    for name in ("rollout", "filter", "smooth"):
        us = {form: round(1e6 * t / (steps - 1), 2) for (pass_, form), t in best.items() if pass_ == name}
        out[name] = {f"{form}_us_per_step": v for form, v in us.items()}
        if len(us) > 1:
            out[name]["faster"] = min(us, key=us.get)
            out[name]["folded_vs_factored_rel"] = float(f"{mismatch[name]:.3g}")
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
        "factored_min_n": _kernels.FACTORED_MIN_N,
        "sizes": [time_size(n, args.steps, args.repeats, rng) for n in args.sizes],
    }
    bad = [(size["n"], name) for size in result["sizes"] for name in ("filter", "smooth")
           if not size[name]["folded_vs_factored_rel"] <= MAX_MISMATCH]
    if bad:
        print(json.dumps(result))
        sys.exit(f"folded and factored scans differ by more than {MAX_MISMATCH:g} "
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
