#!/usr/bin/env python3
"""One SHA-256 per job output of the benchmark workloads.

    python3 tools/output_digest.py [--root DIR] [--workloads W ...] [--seeds N ...]

Builds each workload's seeded job list as bench/run.py does, runs every
job once with frheo imported from DIR/src (default: this checkout) and
prints `<workload> <seed> <job id> <sha256 of the output bytes>`; a job
that fails prints its exception instead. Two checkouts give the same
outputs when the printouts are equal:

    diff <(python3 tools/output_digest.py --root a) <(python3 tools/output_digest.py --root b)
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
ap.add_argument("--workloads", nargs="+", default=["hereditary", "sweep", "march"])
ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
args = ap.parse_args()
sys.dont_write_bytecode = True  # leave no cache files under bench/
sys.path[:0] = [str(args.root.resolve() / "src"), str(args.root.resolve() / "bench")]

from run import WORKLOAD_NAMES  # noqa: E402  (pins the BLAS threads before numpy loads)

import numpy as np  # noqa: E402
import workloads  # noqa: E402

for name in args.workloads:
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as work:
            rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
            for job in workloads.WORKLOADS[name][0](rng, Path(work)):
                try:
                    digest = hashlib.sha256(job.collect(job.call())).hexdigest()
                except Exception as e:  # a failed job: its message, without the scratch path
                    digest = f"{type(e).__name__}: {e}".replace(work, "<work>")
                print(name, seed, job.id, digest, flush=True)
