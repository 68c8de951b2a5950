#!/usr/bin/env python3
"""Runs every workload for the given seeds and checks steadiness.

    python3 bench/steady.py [--seeds 1 2 ... 10]

Runs bench/run.py once per workload of BENCHMARK.json and seed with
tracing off and prints each run's end-to-end metrics. With two or more
seeds it reports, for every metric, the median and the distance between
the first and third quartiles of the runs as a share of the median,
against the metric's bound in BENCHMARK.json. It then runs the traced
benchmark twice on the first seed of each workload and requires the
computed counts (calls, multiply-adds, samples, refusals, output bytes)
to repeat exactly. Exits 1 if a run is not correct, a spread exceeds its
bound, or a count differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNTS = (".calls", ".madds", ".samples", ".refused", ".out_bytes")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    print(f"  {workload} seed {seed} trace {trace}: {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok, report = True, {}
    for w in [entry["name"] for entry in spec["workloads"]]:
        print(w)
        runs = []
        for s in args.seeds:
            result = run(w, s, spec["run_seconds"], 0)
            runs.append(metric_values(result))
            ok = ok and result["correct"]
            print(f"  seed {s}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + ", ".join(
                      f"{k} = {v:.6g} {units[k]}" for k, v in runs[-1].items()))
        report[w] = {"seeds": args.seeds, "runs": runs, "spread": {}}
        for name, bound in bounds.items() if len(runs) > 1 else ():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "OVER BOUND")
            if verdict == "OVER BOUND":
                ok = False
            report[w]["spread"][name] = spread
            print(f"  {name:15s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
        first, second = (run(w, args.seeds[0], spec["run_seconds"], 1) for _ in range(2))
        ok = ok and first["correct"] and second["correct"]
        first, second = metric_values(first), metric_values(second)
        differ = sorted(k for k in first if k.endswith(COUNTS) and first[k] != second[k])
        counted = sum(k.endswith(COUNTS) for k in first)
        print(f"  counts repeat exactly on seed {args.seeds[0]}: "
              f"{'yes' if not differ else 'NO ' + ', '.join(differ)} ({counted} counts)")
        ok = ok and not differ
        report[w]["counts"] = {"seed": args.seeds[0], "first": first, "second": second,
                               "differ": differ}
    out = BENCH / "results" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"details: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
