"""Benchmark of thermem's EM identification; one workload per process.

    python3 embench/run.py --workload reduced-em --seed 1 --seconds 15 --trace 0

Workloads (see README.md in this directory): ``reduced-em``, ``full-em`` and
``cli-pipeline``. The run repeats whole rounds of its workload until
``--seconds`` have passed (at least one round), checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` a separate traced round gives the per-layer ones.
The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result.
"""

import argparse
import json
import os
import sys
import time

# OpenBLAS threads for every workload: two is the CPU count of the machine
# the reference figures come from. Set before numpy is first imported.
BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("reduced-em", "full-em", "cli-pipeline")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(samples):
    import resource

    from workloads import median

    return {
        "setup_s": metric(median(samples.setup_s), "s"),
        "identify_s": metric(median(samples.identify_s), "s"),
        "predict_s": metric(median(samples.predict_s), "s"),
        "k_err_max": metric(median(samples.k_err), "ratio"),
        "pred_err_degC": metric(median(samples.pred_err), "degC"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, root, untraced_identify_s):
    """Self times and counts of the traced round, by layer."""
    own = tracer.self_times()
    time_by, steps_by, spans_by = {}, {}, {}
    for s, dt in zip(tracer.spans, own):
        time_by[s["name"]] = time_by.get(s["name"], 0.0) + dt
        steps_by[s["name"]] = steps_by.get(s["name"], 0) + s.get("steps", 0)
    in_identify = tracer.subtree(root["id"])
    for i in in_identify:
        name = tracer.spans[i]["name"]
        spans_by[name] = spans_by.get(name, 0) + 1
    identify_s = root["end"] - root["start"]

    def t(name):
        return time_by.get(name, 0.0)

    def us_per_step(name):
        return 1e6 * t(name) / steps_by[name] if steps_by.get(name) else 0.0

    def io_sum(prefix):
        return sum(v for k, v in time_by.items() if k.startswith(prefix))

    m = {
        "kernels.filter_s": metric(t("kernels.filter"), "s"),
        "kernels.smooth_s": metric(t("kernels.smooth"), "s"),
        "kernels.filter_us_per_step": metric(us_per_step("kernels.filter"), "us"),
        "kernels.smooth_us_per_step": metric(us_per_step("kernels.smooth"), "us"),
        "solvers.dare_s": metric(t("solvers.dare"), "s"),
        "solvers.dlyap_s": metric(t("solvers.dlyap"), "s"),
        "solvers.dare_fallbacks": metric(tracer.counts["dare_fallbacks"], "count"),
        "smoother.rtss_self_s": metric(t("smoother.rtss"), "s"),
        "smoother.stats_s": metric(t("smoother.stats"), "s"),
        "smoother.esteps": metric(spans_by.get("smoother.rtss", 0), "count"),
        "estimation.mstep_s": metric(t("estimation.run_em"), "s"),
        "model.assemble_s": metric(t("model.assemble"), "s"),
        "estimation.ll_decreases": metric(tracer.counts["ll_decreases"], "count"),
        "estimation.clamps": metric(tracer.counts["clamps"], "count"),
        "kernels.rollout_s": metric(t("kernels.rollout"), "s"),
        "kernels.rollout_us_per_step": metric(us_per_step("kernels.rollout"), "us"),
        "mesh.build_s": metric(t("mesh.build"), "s"),
        "graph.operators_s": metric(t("graph.operators"), "s"),
        "datagen.generate_s": metric(t("datagen.generate"), "s"),
        "io.read_s": metric(io_sum("io.read"), "s"),
        "io.write_s": metric(io_sum("io.write"), "s"),
        "io.bytes_written": metric(sum(s.get("bytes", 0) for s in tracer.spans), "bytes"),
        "tracing.identify_s": metric(identify_s, "s"),
        "tracing.overhead_s": metric(identify_s - untraced_identify_s, "s"),
        "tracing.missing_targets": metric(len(tracer.missing), "count"),
    }
    return m, sum(own[i] for i in in_identify), identify_s


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thermem", "__init__.py")):
        print(f"embench: no thermem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import thermem

    if os.path.dirname(os.path.abspath(thermem.__file__)) != os.path.join(SRC, "thermem"):
        print(f"embench: thermem imported from {thermem.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS, Ledger, Samples, identify_once, run_round

    w = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, f"{w.name}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    ledger, samples = Ledger(), Samples()

    if args.trace:
        untraced = identify_once(w, args.seed, out_dir)
        tracer = Tracer()
        tracer.install()
        try:
            root = run_round(w, args.seed, ledger, samples, out_dir, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(out_dir, "spans.json"))
        metrics, self_sum, identify_s = per_layer(tracer, root, untraced)
        # Self times of the identify tree add up to its duration by construction;
        # a gap means a span was left open or a parent link is wrong.
        problems = []
        if abs(self_sum - identify_s) > 1e-9 * max(1.0, identify_s):
            problems.append(f"self times sum to {self_sum:.9g} s, identify took {identify_s:.9g} s")
        esteps = metrics["smoother.esteps"]["value"]
        if esteps != w.budget:
            problems.append(f"{esteps:.0f} E-step spans, budget {w.budget}")
        ledger.record("trace", problems)
    else:
        deadline = time.perf_counter() + args.seconds
        while True:
            run_round(w, args.seed, ledger, samples, out_dir)
            if time.perf_counter() >= deadline:
                break
        metrics = end_to_end(samples)

    result = {
        "correct": not ledger.check_failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"result-seed{args.seed}.json"), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
