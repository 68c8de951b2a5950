#!/usr/bin/env python3
"""Alternating parent/change pairs of bench/run.py, summarised per metric.

    python3 tools/bench_pairs.py --parent A --change B --workloads march \
        --pairs 10 --seeds 1 2 ... --seconds 30 [--trace 1] --out BENCH_<n>.json

Pair k runs `bench/run.py --seed <seeds[k]>` in checkout A and in checkout
B, A first when k is even and B first when it is odd (seeds cycle when
fewer are given). For every metric the last output line reports, it
prints each side's median and quartiles and how many pairs B won, by the
direction BENCHMARK.json gives, ties counting for neither side, and
each side's median count of minor page faults per run (the children's
ru_minflt taken around it), so that a fault storm shows next to the
timings; the summary, every run's metrics and faults and whether each
run was correct go to --out as JSON, keyed by workload and trace setting
and merged into what the file already holds. Every run that was not correct or had failed
jobs is listed on stderr after the summary is written, and the exit
status is then 1, so a speedup over wrong outputs cannot pass unnoticed.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
ap.add_argument("--parent", type=Path, required=True)
ap.add_argument("--change", type=Path, required=True)
ap.add_argument("--workloads", nargs="+", required=True)
ap.add_argument("--pairs", type=int, default=10)
ap.add_argument("--seeds", nargs="+", type=int, default=[1])
ap.add_argument("--seconds", type=float, default=30.0)
ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
ap.add_argument("--out", type=Path, required=True)
args = ap.parse_args()
if args.pairs < 2:
    ap.error("--pairs must be at least 2: quartiles need two runs a side")
spec = json.loads((args.change / "BENCHMARK.json").read_text())
lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}


def run(root: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "failed": last["failed"], "seed": seed,
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "minflt": faults}


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


summary = json.loads(args.out.read_text()) if args.out.is_file() else {}
wrong = []
for workload in args.workloads:
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seeds[k % len(args.seeds)]
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            r = run(getattr(args, side), workload, seed)
            runs[side].append(r)
            if not r["correct"] or r["failed"] > 0:
                wrong.append(f"{workload} {side} pair {k} seed {seed}: "
                             f"correct {r['correct']}, failed {r['failed']}")
    metrics = {}
    print(f"{workload}: {args.pairs} pairs, --seconds {args.seconds:g}, --trace {args.trace}")
    for name in runs["parent"][0]["metrics"]:
        a, b = ([r["metrics"][name] for r in runs[s]] for s in ("parent", "change"))
        sign = 1.0 if lower.get(name, True) else -1.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        metrics[name] = {"parent": quartiles(a), "change": quartiles(b), "change_wins": wins}
        pa, ch = metrics[name]["parent"], metrics[name]["change"]
        print(f"  {name:32s} {pa['median']:12.6g} [{pa['q1']:.6g}, {pa['q3']:.6g}]"
              f" -> {ch['median']:12.6g} [{ch['q1']:.6g}, {ch['q3']:.6g}]"
              f"  wins {wins}/{args.pairs}")
    minflt = {side: quartiles([r["minflt"] for r in runs[side]]) for side in runs}
    print(f"  {'minor page faults per run':32s} {minflt['parent']['median']:12.6g}"
          f" -> {minflt['change']['median']:12.6g}")
    summary[f"{workload}-trace{args.trace}"] = {
        "pairs": args.pairs, "seconds": args.seconds, "trace": args.trace,
        "metrics": metrics, "minflt": minflt, "runs": runs}
args.out.write_text(json.dumps(summary, indent=1) + "\n")
for line in wrong:
    print(f"wrong run: {line}", file=sys.stderr)
sys.exit(1 if wrong else 0)
