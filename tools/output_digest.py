#!/usr/bin/env python3
"""One SHA-256 per job output of the benchmark workloads.

    python3 tools/output_digest.py [--root DIR] [--workloads W ...] [--seeds N ...]
    python3 tools/output_digest.py --root DIR --against DIR2 [...]

Builds each workload's seeded job list as bench/run.py does, runs every
job once with frheo imported from DIR/src (default: this checkout) and
prints `<workload> <seed> <job id> <sha256 of the output bytes>`; a job
that fails prints its exception instead. Two checkouts give the same
outputs when the printouts are equal:

    diff <(python3 tools/output_digest.py --root a) <(python3 tools/output_digest.py --root b)

With --against DIR2 the jobs run once in each checkout, each in its own
process, and only the jobs whose bytes differ are printed, as
`<workload> <seed> <job id> max rel diff <d> in <k> of <n> cells`: d is
the largest |a - b| / max(|a|, |b|) over the numeric cells (the CSV
cells of a CLI output, the doubles of a library array) and k the number
of cells that differ. A job whose cells cannot be paired (another cell
count, a text cell that differs, a failure on one side) prints
`not comparable` with the reason. A last line counts the jobs that differ.
"""

import argparse
import hashlib
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
ap.add_argument("--workloads", nargs="+", default=["hereditary", "sweep", "march"])
ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
ap.add_argument("--against", type=Path, help="a second checkout to compare outputs with")
ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # where a compared side writes its outputs
args = ap.parse_args()


def cells(raw: bytes, cli: bool) -> list:
    """The cells of one output: text cells of a CLI file, floats where they parse."""
    if not cli:
        return [float(x) for x in memoryview(raw).cast("d")]
    out = []
    for cell in re.split(rb"[,\s]+", raw.strip()):
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def compare(a: Path, b: Path) -> str | None:
    """None for equal bytes, else the largest relative difference of the cells."""
    if a.suffix != b.suffix:
        return "not comparable: failed on one side"
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a == raw_b:
        return None
    if a.suffix == ".err":
        return "not comparable: failed with another message"
    x, y = cells(raw_a, a.suffix == ".cli"), cells(raw_b, a.suffix == ".cli")
    if len(x) != len(y):
        return f"not comparable: {len(x)} against {len(y)} cells"
    worst, moved = 0.0, 0
    for u, v in zip(x, y):
        if u == v or (u != u and v != v):  # equal, or NaN on both sides
            continue
        if not (isinstance(u, float) and isinstance(v, float)):
            return "not comparable: a text cell differs"
        moved += 1
        scale = max(abs(u), abs(v))
        worst = max(worst, abs(u - v) / scale if math.isfinite(scale) else math.inf)
    return f"max rel diff {worst:.3g} in {moved} of {len(x)} cells"


if args.against is not None:
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Path(tmp) / "root", Path(tmp) / "against"]
        for root, dump in zip((args.root, args.against), sides):
            dump.mkdir()
            subprocess.run([sys.executable, __file__, "--root", str(root), "--dump", str(dump),
                            "--workloads", *args.workloads,
                            "--seeds", *map(str, args.seeds)], check=True)
        names = sorted({p.stem for side in sides for p in side.iterdir()},
                       key=lambda n: (args.workloads.index(n.split()[0]), n))
        differ = 0
        for name in names:
            found = [next(side.glob(f"{name}.*"), None) for side in sides]
            result = (compare(*found) if all(found)
                      else "not comparable: missing on one side")
            if result is not None:
                differ += 1
                print(name, result, flush=True)
        print(f"{differ} of {len(names)} jobs differ")
    sys.exit(0)

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
                    raw = job.collect(job.call())
                    digest, suffix = hashlib.sha256(raw).hexdigest(), ".cli" if job.cli else ".lib"
                except Exception as e:  # a failed job: its message, without the scratch path
                    digest = f"{type(e).__name__}: {e}".replace(work, "<work>")
                    raw, suffix = digest.encode(), ".err"
                if args.dump is None:
                    print(name, seed, job.id, digest, flush=True)
                else:
                    (args.dump / f"{name} {seed} {job.id}{suffix}").write_bytes(raw)
