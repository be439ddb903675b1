#!/usr/bin/env python3
"""Sensitivity self-test: proves the benchmark measures the simulator.

Run from the root of a checkout:

    python3 perfbench/sensitivity.py [--seeds 1,2,3,4,5,6] [--seconds 25]

For each seed, each workload runs as measured (no AQUOMAN_* variable)
and under the variants its predictions name: AQUOMAN_BATCH=0 (the
scalar-kernel oracle) and AQUOMAN_THREADS=1 (a serial thread pool). The
runs of one seed are adjacent, and their order alternates from seed to
seed, so each pair shares the host's conditions. Both variables are
documented to leave every modelled field bit-identical, so the model
digest must not change, while the wall-clock metrics must move as
predicted:

  * BATCH=0 lowers queries_per_s on every workload and leaves setup_s
    within its bound;
  * THREADS=1 lowers queries_per_s on tpch_sweep and leaves
    queries_per_s on service_1x within its bound.

"Lowers" is the paired rule of the choosing-metrics method: the variant
is worse than the measured run in at least nine tenths of the seed
pairs, and the median change is larger than the measured runs' own
spread (interquartile range over median). "Within its bound" means the
median change is not worse than the metric's bound in BENCHMARK.json.
Every prediction that fails is reported, and the exit code is 1 if any
did.
The table is also written to .bench_build/perfbench/out/sensitivity.json.
"""

import argparse
import json
import os
import re
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

VARIANTS = {"BATCH=0": ("AQUOMAN_BATCH", "0"),
            "THREADS=1": ("AQUOMAN_THREADS", "1")}

# (variant, workload, metric, expectation)
PREDICTIONS = [
    ("BATCH=0", w, "queries_per_s", "lower") for w in run.WORKLOADS
] + [
    ("BATCH=0", w, "setup_s", "within") for w in run.WORKLOADS
] + [
    ("THREADS=1", "tpch_sweep", "queries_per_s", "lower"),
    ("THREADS=1", "service_1x", "queries_per_s", "within"),
]


def measure(workload, seed, seconds, var, value):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AQUOMAN_")}
    if var:
        env[var] = value
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"])
    stdout, result = run.run_harness(args, env=env, sensitivity=var)
    digest = re.search(r"^model digest: (\w+)", stdout, re.M).group(1)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    return {"correct": result["correct"], "digest": digest,
            "metrics": metrics}


def worse_by(base, got, better):
    """Relative change of @got against @base in the 'worse' direction."""
    return (got - base) / base if better == "lower" else (base - got) / base


def spread(values):
    """Interquartile range over median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1,2,3,4,5,6")
    p.add_argument("--seconds", type=int, default=25)
    a = p.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]

    run.check_checkout()
    run.build()
    with open("BENCHMARK.json") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    results = {}  # (variant, workload, seed) -> measurement
    for workload in run.WORKLOADS:
        variants = sorted({v for v, w, _, _ in PREDICTIONS if w == workload})
        for i, seed in enumerate(seeds):
            order = ["measured"] + variants
            for label in order if i % 2 == 0 else order[::-1]:
                var, value = VARIANTS.get(label, (None, None))
                r = measure(workload, seed, a.seconds, var, value)
                results[(label, workload, seed)] = r
                print(f"{workload:18s} seed {seed} {label:10s} "
                      f"qps {r['metrics']['queries_per_s']:10.3f} "
                      f"setup_s {r['metrics']['setup_s']:7.3f} "
                      f"digest {r['digest']} correct {r['correct']}",
                      flush=True)

    failures = []
    rows = []
    for (label, workload, seed), got in results.items():
        if got["digest"] != results[("measured", workload, seed)]["digest"]:
            failures.append(f"{label} {workload} seed {seed}: "
                            "model digest changed")
        if not got["correct"]:
            failures.append(f"{label} {workload} seed {seed}: "
                            "output checks failed")
    for label, workload, metric, expect in PREDICTIONS:
        m = spec[metric]
        base = [results[("measured", workload, s)]["metrics"][metric]
                for s in seeds]
        got = [results[(label, workload, s)]["metrics"][metric]
               for s in seeds]
        worse = [worse_by(b, g, m["better"]) for b, g in zip(base, got)]
        noise = spread(base)
        wins = sum(w > 0 for w in worse)
        if expect == "lower":
            ok = (wins >= 0.9 * len(worse)
                  and statistics.median(worse) > noise)
        else:
            ok = statistics.median(worse) <= m["bound"]
        rows.append({"variant": label, "workload": workload,
                     "metric": metric, "expect": expect,
                     "measured": base, "variant_values": got,
                     "worse_by": worse, "pairs_worse": wins,
                     "measured_spread": noise,
                     "bound": m["bound"], "holds": ok})
        print(f"{label:10s} {workload:18s} {metric:14s} expect "
              f"{expect:6s} worse by "
              + ", ".join(f"{100 * w:+.1f}%" for w in worse)
              + f" (worse in {wins}/{len(worse)}, median "
              f"{100 * statistics.median(worse):+.1f}%, measured spread "
              f"{100 * noise:.1f}%, bound "
              f"{100 * m['bound']:.0f}%) {'ok' if ok else 'FAILED'}")
        if not ok:
            failures.append(f"{label} {workload}: {metric} did not move "
                            f"as predicted ({expect})")

    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(run.OUT_DIR / "sensitivity.json", "w") as f:
        json.dump({"seeds": seeds, "seconds": a.seconds,
                   "digests": {f"{l}/{w}/{s}": r["digest"]
                               for (l, w, s), r in results.items()},
                   "predictions": rows, "failures": failures}, f,
                  indent=1)
    for msg in failures:
        print("FAILED:", msg)
    print("sensitivity self-test:",
          "all predictions hold" if not failures
          else f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
