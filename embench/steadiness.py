"""Run the benchmark once per seed on each workload and report its spread.

    python3 embench/steadiness.py --runs 10 --first-seed 1
    python3 embench/steadiness.py --runs 5 --workloads full-em

Each run is a fresh process (``embench/run.py --trace 0``) with its own
seed, started one after another. For every end-to-end metric the script
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json, and writes the same figures
to ``embench/out/steadiness-seed<first>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s wall", file=sys.stderr, flush=True)

        summary = {
            "wall_s_max": max(walls),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "all_correct": all(r["correct"] for r in results),
            "metrics": {},
        }
        print(f"\n{workload}: {args.runs} runs, wall max {max(walls):.1f} s, "
              f"failed share {summary['failed_share']}, correct {summary['all_correct']}")
        print(f"{'metric':<15}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary["metrics"][name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name], "values": values,
            }
            print(f"{name:<15}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}{bounds[name]:>8.3g}")
        report["workloads"][workload] = summary

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steadiness-seed{args.first_seed}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
