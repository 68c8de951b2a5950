#!/usr/bin/env python3
"""The route that serves each draw of a seeded Mittag-Leffler scan.

    python3 tools/route_scan.py [--root DIR] [--scan roadmap|negative-beta] [--oracle]
    python3 tools/route_scan.py --root DIR --against DIR2 [--scan ...]

Evaluates E_{a,b}(z) with `special.ml_eval` from DIR/src (default: this
checkout) at every draw of the scan, one draw at a time, and prints how
many draws each route served and the seconds they took. The route is the
last one the evaluation tried: the band series (`_ml_series` called from
`_ml_grid`), the contour or the pole-subtracted contour (`_ml_contour`),
the point series (`_ml_series` called from `_ml_point`, or `_taylor` in a
checkout that still has it), `_alg_asym` or mpmath (`_series_mpf`); a
draw that raises is "refused, <exception>", and one that none of them
served (z = 0, the exact exp of E_{1,1}) is "exact". A last line counts
the draws that called mpmath, whatever the outcome, and their seconds.

Scans (all from np.random.default_rng(seed), drawn as arrays: a, then
b, then |z| log-uniform in [1e-2, 1e4], then the sign of z):
  roadmap        6000 draws, seed 1, a in [0.05, 2.5), b in [0.2, 2.5)
  negative-beta  3000 draws, seed 7, a in [0.05, 2.5), b in [-2.5, 0)

With --oracle every value a series route certified is checked against a
power series summed in mpmath with enough digits for its cancellation:
the draws whose error exceeds the route's own bound are listed.

With --against DIR2 the scan runs once in each checkout, each in its own
process, and the draws whose route or outcome differ are listed as
`#<draw> a b z: <route in DIR> (<ms>) -> <route in DIR2> (<ms>)`, then
counted per pair of routes, and last the number of draws whose value
moved and the largest relative move.
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCANS = {"roadmap": (6000, 1, (0.2, 2.5)), "negative-beta": (3000, 7, (-2.5, 0.0))}
SERIES = ("band series", "point series", "_taylor")

ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
ap.add_argument("--scan", choices=sorted(SCANS), default="roadmap")
ap.add_argument("--oracle", action="store_true", help="check series values against mpmath")
ap.add_argument("--against", type=Path, help="a second checkout to compare routes with")
ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # where a compared side writes its draws
args = ap.parse_args()


def draws(name: str) -> list:
    n, seed, (b_lo, b_hi) = SCANS[name]
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.05, 2.5, n)
    b = rng.uniform(b_lo, b_hi, n)
    z = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), n)) * rng.choice((-1.0, 1.0), n)
    return list(zip(a.tolist(), b.tolist(), z.tolist()))


def scan(root: Path, name: str) -> list:
    """One dict per draw: route, value (or the exception), the route's
    relative error estimate and the seconds the evaluation took."""
    sys.path.insert(0, str(root.resolve() / "src"))
    import mpmath  # noqa: F401  (its import is not charged to the first mpmath draw)
    from frheo import special

    events, state = [], {"point": False}

    def wrap(name, label, estimate):
        real = getattr(special, name, None)
        if real is None:
            return

        def route(*a, **k):
            r = real(*a, **k)
            events.append((label(a, k), estimate(r)))
            return r
        setattr(special, name, route)

    def point(*a):
        state["point"] = True
        return real_point(*a)

    def series_est(r):
        return float(r[1, 0] / abs(r[0, 0])) if r.shape[1] == 1 and r[0, 0] else math.inf

    def pair_est(r):
        return None if r is None else float(r[1])

    wrap("_ml_series", lambda a, k: "point series" if state["point"] else "band series", series_est)
    wrap("_ml_contour", lambda a, k: ("pole-subtracted contour" if (a[3:] or [k.get("subtract")])[0]
                                      else "contour"), lambda r: float(r[1][0]))
    wrap("_taylor", lambda a, k: "_taylor", pair_est)
    wrap("_alg_asym", lambda a, k: "_alg_asym", pair_est)
    wrap("_series_mpf", lambda a, k: "mpmath", lambda r: None)
    real_point, special._ml_point = special._ml_point, point
    out = []
    for a, b, z in draws(name):
        events.clear()
        state["point"] = False
        start = time.perf_counter()
        try:
            value, refused = special.ml_eval(special.MLParams(a, b), z), None
        except Exception as e:
            value, refused = None, type(e).__name__
        seconds = time.perf_counter() - start
        label, est = events[-1] if events else ("exact", 0.0)
        out.append({"a": a, "b": b, "z": z, "route": f"refused, {refused}" if refused else label,
                    "value": value, "est": est, "seconds": seconds,
                    "mpmath": any(e[0] == "mpmath" for e in events)})
    return out


def series_mp(a: float, b: float, z: float) -> float:
    """The power series in mpmath, with enough digits for its cancellation."""
    import mpmath

    with mpmath.workdps(30 + int(abs(z)**(1.0 / a) / 2.3)):
        am, bm, zm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(z)
        total, zk, k, small = mpmath.mpf(0), mpmath.mpf(1), 0, 0
        while small < 3:
            term = zk * mpmath.rgamma(am * k + bm)
            total += term
            small = small + 1 if abs(term) <= mpmath.eps * abs(total) else 0
            zk *= zm
            k += 1
        return float(total)


def report(rows: list) -> None:
    routes = {}
    for r in rows:
        count, seconds = routes.get(r["route"], (0, 0.0))
        routes[r["route"]] = count + 1, seconds + r["seconds"]
    n, total = len(rows), sum(r["seconds"] for r in rows)
    print(f"{args.scan}: {n} draws, {total:.2f} s")
    for route, (count, seconds) in sorted(routes.items(), key=lambda kv: -kv[1][0]):
        print(f"  {route:26s} {count:6d} ({100.0 * count / n:4.1f}%) {seconds:7.3f} s")
    mp = [r for r in rows if r["mpmath"]]
    print(f"  called mpmath on {len(mp)} draws, {sum(r['seconds'] for r in mp):.3f} s")
    if args.oracle:
        served = [r for r in rows if r["route"] in SERIES]
        errors = [(abs(r["value"] - series_mp(r["a"], r["b"], r["z"])), r["est"] * abs(r["value"]))
                  for r in served]
        ratio = [err / bound if bound > 0.0 else (math.inf if err else 0.0) for err, bound in errors]
        bad = [r for r, q in zip(served, ratio) if not q <= 1.0]
        print(f"  oracle: {len(bad)} of {len(served)} series values outside their bound,"
              f" largest error / bound {max(ratio, default=0.0):.3g}")
        for r in bad:
            print(f"    a={r['a']!r} b={r['b']!r} z={r['z']!r} {r['route']} est {r['est']:.3g}")


if args.dump is not None:
    args.dump.write_text(json.dumps(scan(args.root, args.scan)))
    sys.exit(0)
sides = [args.root] if args.against is None else [args.root, args.against]
with tempfile.TemporaryDirectory() as tmp:
    runs = []
    for k, root in enumerate(sides):
        dump = Path(tmp) / f"{k}.json"
        subprocess.run([sys.executable, __file__, "--root", str(root), "--scan", args.scan,
                        "--dump", str(dump)], check=True)
        runs.append(json.loads(dump.read_text()))
for root, rows in zip(sides, runs):
    print(f"{root}:")
    report(rows)
if args.against is not None:
    moved, worst, changes = 0, 0.0, {}
    for k, (x, y) in enumerate(zip(*runs)):
        if x["route"] != y["route"]:
            change = f"{x['route']} -> {y['route']}"
            changes[change] = changes.get(change, 0) + 1
            print(f"#{k} a={x['a']!r} b={x['b']!r} z={x['z']!r}: {x['route']} "
                  f"({1e3 * x['seconds']:.2f} ms) -> {y['route']} ({1e3 * y['seconds']:.2f} ms)")
        if x["value"] is not None and y["value"] is not None and x["value"] != y["value"]:
            moved += 1
            worst = max(worst, abs(x["value"] - y["value"]) / max(abs(x["value"]), abs(y["value"])))
    for change, count in sorted(changes.items(), key=lambda kv: -kv[1]):
        print(f"  {count:6d} {change}")
    print(f"{moved} values moved, largest relative move {worst:.3g}")
