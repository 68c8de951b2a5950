#!/usr/bin/env python3
"""Closed-loop benchmark of frheo.

    python3 bench/run.py --workload {hereditary,sweep,march} --seed N \
        --seconds S --trace {0,1}

Run from the repository root: frheo is imported from ./src (the package
is not installed). One process, one job at a time, no worker threads;
BLAS and OpenMP threads are pinned to 1. The seeded job list is run as
passes until --seconds is used up (at least one pass). A fixed kernel
that does not touch frheo runs after every job; each pass's times are
divided by its mean and reported in seconds of the reference host (see
bench/NOTES.md), and each timing is a median over the passes. Every
job is then checked against an independent reference outside the timed
region. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the run is split between an untraced and a
traced execution of the same passes and carries the per-layer metrics.
A JSON record with the environment, failing inputs and details is
written to bench/results/.
"""

import os

THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("hereditary", "sweep", "march")
SETUP_GROUPS = 5  # groups of fresh start-ups spread over the run
SETUP_GROUP = 4  # start-ups per group, back to back, on the CPUs in turn
SETUP_ARGV = ["-m", "frheo", "ml", "--alpha", "0.5", "--z", "-1"]
SETUP_EXPECTED = 0.42758357615580700  # E_{1/2}(-1) = erfcx(1)
PROBE_REF_S = 2.0e-3  # mean host-probe time on the reference host of NOTES.md
PROBE_EVERY_S = 0.04  # one more host probe after a job per this much of its time
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "job_p50_ms": "ms",
         "job_tail_ms": "ms", "certified_frac": "fraction", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
               "max_ms": "ms", "slow_frac": "fraction", "refused": "count",
               "madds": "madd", "madds_per_s": "madd/s", "samples": "count",
               "rows_per_s": "rows/s", "out_bytes": "B", "overhead_frac": "fraction"}


# On a shared host each vCPU can flip between a fast and a ~1.4x slower
# state within seconds, not in step with the others (see NOTES.md).
# Passes are pinned to the CPUs in turn, so that every job repeats on
# every CPU, and a pass's jobs and host probes run on the same one.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(k: int | None) -> None:
    """Run on the k-th CPU in turn, or on all of them again for None."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS if k is None else {CPUS[k % len(CPUS)]})


class SetupProbe:
    """Wall time of fresh `python -m frheo ml` processes, each output
    checked. They run in groups of SETUP_GROUP back to back, spread over
    the run (before, between and after the passes) so that they see the
    same host as the passes do; `value` is the median over the groups of
    each group's fastest start-up."""

    def __init__(self, env):
        self.env, self.groups, self.ok = env, [], True

    def __call__(self):
        if len(self.groups) == SETUP_GROUPS:
            return
        times = []
        for k in range(SETUP_GROUP):
            pin(k)  # the child inherits the CPU
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable] + SETUP_ARGV, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=60)
            times.append(time.perf_counter() - t0)
            try:
                value = float(proc.stdout)
            except ValueError:
                value = math.nan
            self.ok = self.ok and proc.returncode == 0 and abs(value - SETUP_EXPECTED) <= 1e-14
        pin(None)
        self.groups.append(times)

    @property
    def value(self) -> float:
        return statistics.median(min(g) for g in self.groups)


class HostProbe:
    """A fixed ~2 ms kernel that does not touch frheo, run untimed after
    every job and once more per PROBE_EVERY_S of the job: an mpmath
    series like the Mittag-Leffler fallback's, a Python float loop and
    small numpy array operations. The host's speed changes within a pass
    and between minutes (see NOTES.md); the mean probe time of a pass
    says how fast the host ran during that pass, and PROBE_REF_S over it
    turns the pass's times into seconds of the reference host."""

    def __init__(self):
        from mpmath import MPContext
        import numpy as np
        self.ctx, self.np, self.all = MPContext(), np, []

    def kernel(self) -> float:
        ctx, np = self.ctx, self.np
        ctx.dps = 30
        s, z, zk = ctx.mpf(0), ctx.mpf(-2.5), ctx.mpf(1)
        for k in range(25):
            s += zk * ctx.rgamma(ctx.mpf(0.6) * k + 1)
            zk *= z
        x = 0.0
        for i in range(5000):
            x += math.exp(-i * 1e-3)
        a = np.linspace(0.0, 1.0, 2000)
        for _ in range(20):
            a = np.cumsum(np.sqrt(a + 1.0)) * 1e-3
        return float(s) + x + float(a[-1])

    def sample(self, into: list) -> None:
        t0 = time.perf_counter()
        self.kernel()
        into.append(time.perf_counter() - t0)
        self.all.append(into[-1])


def run_pass(jobs, tracer=None, probe=None):
    """Run every job once, and the host probe after each; returns
    (latencies, outputs, errors, scale) with the outputs and the
    exceptions of failed jobs keyed by job id, and the pass's factor to
    reference-host seconds (1 without a probe)."""
    lat, outs, errs, probed = [], {}, {}, []
    clock = time.perf_counter
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        t0 = clock()
        try:
            ret, err = job.call(), None
        except Exception as e:  # a job that raises is a failed job; keep going
            ret, err = None, e
        lat.append(clock() - t0)
        if err is None:
            try:
                outs[job.id] = job.collect(ret)
            except Exception as e:
                err = e
        if err is not None:
            errs[job.id] = err
        for _ in range(1 + int(lat[-1] / PROBE_EVERY_S) if probe is not None else 0):
            probe.sample(probed)
    scale = PROBE_REF_S / statistics.fmean(probed) if probed else 1.0
    return lat, outs, errs, scale


def run_passes(jobs, seconds, probe, tracer=None, count=None, between=None, reference=None):
    """Passes until the next one would overrun `seconds` (at least one),
    or exactly `count` passes; `between` runs after each pass.
    Every pass's output bytes are compared with `reference`, by default
    the first pass's. Returns the passes, the reference outputs, the ids
    of jobs whose output differed from them on some pass, and the peak
    resident set size (KiB) after the first pass."""
    passes, differ, rss = [], set(), None
    spent = 0.0
    while True:
        pin(len(passes))
        t0 = time.perf_counter()
        lat, outs, errs, scale = run_pass(jobs, tracer, probe)
        took = time.perf_counter() - t0
        pin(None)
        passes.append((lat, errs, scale))
        if between is not None:
            between()
        if reference is None:
            reference = outs
        differ.update(k for k, v in reference.items() if outs.get(k) != v)
        if rss is None:
            # later passes only add allocator drift, which depends on how
            # many passes fit in the budget
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spent += took
        if count is not None:
            if len(passes) == count:
                break
        elif spent + took > seconds:
            break
    return passes, reference, differ, rss


def pass_walls(passes) -> list[float]:
    """Each pass's time for the whole job list, in reference-host seconds."""
    return [sum(lat) * scale for lat, _, scale in passes]


def job_latencies(passes) -> list[float]:
    """Each job's median latency over the passes, in reference-host seconds."""
    return [statistics.median(t * scale for t, (_, _, scale) in zip(lats, passes))
            for lats in zip(*(lat for lat, _, _ in passes))]


def tail_rank(n: int) -> tuple[float, int]:
    """Highest whole percentile of n job latencies with TAIL_BEYOND samples
    beyond it, and that number of samples (0 and the maximum for short
    job lists)."""
    if n <= TAIL_BEYOND:
        return 100.0, 0
    p = math.floor(100.0 * (n - TAIL_BEYOND) / n)
    rank = -(-n * p // 100)
    return float(p), n - rank


def check_jobs(jobs, outputs, errors):
    """Failures (job id -> reason), each checked job's worst error over
    its tolerance, and the certified samples of one pass."""
    failures = {k: f"{type(e).__name__}: {e}" for k, e in errors.items()}
    ratios, samples = {}, 0
    for job in jobs:
        if job.id in failures:
            continue
        try:
            worst = ratios[job.id] = job.check(job.parse(outputs[job.id]))
        except Exception as e:
            failures[job.id] = f"check raised {type(e).__name__}: {e}"
            continue
        if not worst <= 1.0:
            failures[job.id] = f"error {worst:.3g} x tolerance {job.tol:g}"
        else:
            samples += job.samples
    return failures, ratios, samples


def self_test(jobs, outputs, failures) -> dict:
    """Scale the largest value of one passing output by (1 + 10 tol): the
    check must count it as a failure."""
    for job in jobs:
        if job.id in failures:
            continue
        values = job.parse(outputs[job.id])
        i = int(abs(values).argmax())
        values[i] = values[i] * (1.0 + 10.0 * job.tol)
        worst = job.check(values)
        return {"job": job.id, "index": i, "scale": 1.0 + 10.0 * job.tol,
                "error_over_tol": worst, "counted_as_failure": not worst <= 1.0}
    return {"job": None, "counted_as_failure": False}


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue

    import mpmath
    import numpy
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "commit": git_commit(), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "thread_pins": THREAD_PINS,
        "note": "frheo runs from ./src via sys.path / PYTHONPATH (python -m frheo); "
                "the package is not installed",
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "frheo" / "__init__.py").is_file():
        print(f"frheo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import tracing
    import workloads
    from frheo.errors import ConvergenceError

    REFUSALS = (ConvergenceError, workloads.Refused)

    make_jobs, make_warmup = workloads.WORKLOADS[args.workload]
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs = make_jobs(np.random.default_rng([args.seed, WORKLOAD_NAMES.index(args.workload)]),
                         work)
        warmup = make_warmup(np.random.default_rng([args.seed, 99]), work)
        record = {"environment": environment(args)}
        ok = True
        setup = None if args.trace else SetupProbe(dict(os.environ, PYTHONPATH=str(SRC)))
        if setup is not None:
            setup()
        probe = HostProbe()
        probe.kernel()
        run_pass(warmup)

        budget = args.seconds if not args.trace else args.seconds / 2.0
        passes, outputs, repeat_differ, peak_rss_kb = run_passes(jobs, budget, probe,
                                                                 between=setup)
        if setup is not None:
            while len(setup.groups) < SETUP_GROUPS:
                setup()
            record["setup"] = {"times_s": setup.groups, "output_ok": setup.ok}
            ok = setup.ok
        errors = {}
        for _, errs, _ in passes:
            errors.update(errs)
        # each pass repeats the same calls: an output that changes between
        # passes was timed but not checked, so the job fails
        for k in repeat_differ:
            errors.setdefault(k, RuntimeError("output differs from the first pass's"))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _, mismatched, _ = run_passes(jobs, budget, probe, tracer,
                                                      count=len(passes), reference=outputs)
            finally:
                tracer.remove()
            mismatched = sorted(mismatched)
            record["trace_identity"] = {"compared": len(outputs), "mismatched": mismatched}
            ok = ok and not mismatched

        failures, ratios, samples = check_jobs(jobs, outputs, errors)
        # a refusal is frheo's certification declining an answer: a failed
        # job, but not a wrong output; anything else that fails is
        refused = {k for k, e in errors.items() if isinstance(e, REFUSALS)}
        record["self_test"] = self_test(jobs, outputs, failures)
        ok = ok and record["self_test"]["counted_as_failure"] and set(failures) <= refused
        attempted = len(jobs)
        record["jobs"] = {"attempted": attempted, "failed": len(failures),
                          "refused": len(refused), "fail_frac": len(failures) / attempted,
                          "failures": [dict(id=j.id, reason=failures[j.id], **j.inputs)
                                       for j in jobs if j.id in failures],
                          "error_over_tol": ratios,
                          "first_pass_ms": {j.id: t * 1e3 for j, t in zip(jobs, passes[0][0])}}

        walls = pass_walls(passes)
        wall = statistics.median(walls)
        job_lat = job_latencies(passes)
        p, beyond = tail_rank(attempted)
        record["passes"] = {"count": len(passes), "wall_s": walls,
                            "measured_wall_s": [sum(lat) for lat, _, _ in passes],
                            "scale": [scale for _, _, scale in passes],
                            "probe_ref_s": PROBE_REF_S,
                            "job_ms": {j.id: t * 1e3 for j, t in zip(jobs, job_lat)},
                            "tail_percentile": p, "tail_samples_beyond": beyond,
                            "jobs_per_pass": attempted}
        if not args.trace:
            setup_scale = PROBE_REF_S / statistics.fmean(probe.all)
            record["setup"]["measured_s"] = setup.value
            record["setup"]["scale"] = setup_scale
            metrics = {
                "setup_s": setup.value * setup_scale,
                "wall_s": wall,
                "samples_per_s": samples / wall,
                "job_p50_ms": statistics.median(job_lat) * 1e3,
                "job_tail_ms": tracing.percentile(sorted(job_lat), p) * 1e3,
                "certified_frac": 1.0 - len(failures) / attempted,
                "peak_rss_mb": peak_rss_kb / 1024.0,
            }
            units = UNITS
        else:
            traced_walls = pass_walls(traced)
            metrics = tracer.layer_metrics(len(traced))
            metrics["cli.out_bytes"] = float(sum(len(outputs[j.id]) for j in jobs
                                                 if j.cli and j.id in outputs))
            metrics["trace.overhead_frac"] = statistics.median(traced_walls) / wall - 1.0
            record["passes"]["traced_wall_s"] = traced_walls
            units = {k: LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
            RESULTS.mkdir(exist_ok=True)
            tracer.write_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{args.workload} seed={args.seed} trace={args.trace}: "
              f"{len(passes)} pass(es) of {attempted} jobs, "
              f"fail_frac = {len(failures) / attempted:.4g} "
              f"({len(failures)} of {attempted} attempted)")
        for k, v in metrics.items():
            print(f"  {k} = {v:.6g} {units[k]}")
        if not args.trace:
            print(f"  job_tail_ms is p{p:g} of the jobs ({beyond} of {attempted} samples beyond)")
            print(f"  times are reference-host seconds: measured times x {PROBE_REF_S * 1e3:g} ms / "
                  f"mean host probe, {min(record['passes']['scale']):.3g}-"
                  f"{max(record['passes']['scale']):.3g} over the passes; measured median pass "
                  f"{statistics.median(record['passes']['measured_wall_s']):.6g} s, "
                  f"setup {setup.value:.6g} s")
        print(f"  details: {out.relative_to(ROOT)}")
        print(json.dumps({"correct": bool(ok), "attempted": attempted,
                          "failed": len(failures), "metrics": record["metrics"]}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
