"""Spans around the public functions of each frheo layer, from outside.

`Tracer.install` replaces every public function of the six layers at
every module attribute (and CLI dispatch-table entry) where callers look
it up, and `remove` puts the originals back; nothing in the frheo
sources changes. A function a layer adds later is traced without any
change here. Spans (name, start, end, parent, job) stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import frheo
from frheo import cli, fracops, laplace, models, nutting, special
from frheo.errors import ConvergenceError

import oracles

LAYERS = (special, laplace, fracops, models, nutting, cli)
_MODULES = (frheo,) + LAYERS

# the three material functions share one span name
ALIASES = {f"models.{f}": "models.response"
           for f in ("relaxation_modulus", "creep_compliance", "complex_modulus")}
# called ~80 times per inverted point: counted, not spanned
COUNTED = {"models.transfer_function"}


def public_functions():
    """(span name, function) for each public function a layer defines;
    the span name is `<layer>.<function>` unless aliased."""
    for mod in LAYERS:
        layer = mod.__name__.rsplit(".", 1)[1]
        for key, fn in vars(mod).items():
            if (not key.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                name = f"{layer}.{key}"
                yield ALIASES.get(name, name), fn


def _simulate_madds(args, kwargs, out):
    # computed, not measured: each stress-side term costs one dot product
    # of length i at step i, so n(n-1)/2 multiply-adds per term
    model, strain = args[0], args[1]
    n = len(strain)
    return len(oracles.operator_terms(model)[0]) * n * (n - 1) // 2


_EXTRA = {
    "models.simulate_stress": _simulate_madds,
    "fracops.gl_derivative": lambda args, kwargs, out: len(args[0]),
    "cli.ingest_csv": lambda args, kwargs, out: len(out),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, job id, extra, error]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patched = []  # (container, key, original)

    def _spanned(self, name, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRA.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.job, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[6] = type(e).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for name, orig in list(public_functions()):
            make = self._counted if name in COUNTED else self._spanned
            wrapped = make(name, orig)
            sites = [(mod, key) for mod in _MODULES for key, v in vars(mod).items() if v is orig]
            sites += [(cli._RESPONSE_FN, key) for key, v in cli._RESPONSE_FN.items() if v is orig]
            for container, key in sites:
                self._patched.append((container, key, orig))
                _put(container, key, wrapped)

    def remove(self):
        for container, key, orig in reversed(self._patched):
            _put(container, key, orig)
        leftover = [key for container, key, orig in self._patched
                    if _get(container, key) is not orig]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"tracing wrappers left in place: {leftover}")

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass per-layer metrics from the recorded spans."""
        child = defaultdict(int)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_s, durs, extra, refused = Counter(), defaultdict(list), Counter(), Counter()
        for i, s in enumerate(self.spans):
            name, dur = s[0], s[2] - s[1]
            self_s[name] += (dur - child[i]) * 1e-9
            durs[name].append(dur * 1e-9)
            extra[name] += s[5]
            if s[6] == ConvergenceError.__name__:
                refused[name] += 1

        def per(x):
            return x / passes

        def rate(num, secs):
            return num / secs if secs > 0 else 0.0

        ml, inv = sorted(durs["special.ml_eval"]), sorted(durs["laplace.invert"])
        m = {
            "special.ml_eval.calls": per(len(ml)),
            "special.ml_eval.self_s": per(self_s["special.ml_eval"]),
            "special.ml_eval.p50_us": percentile(ml, 50) * 1e6,
            "special.ml_eval.p99_us": percentile(ml, 99) * 1e6,
            "special.ml_eval.max_ms": (ml[-1] if ml else 0.0) * 1e3,
            "special.ml_eval.slow_frac": rate(sum(d > 1e-3 for d in ml), len(ml)),
            "laplace.invert.calls": per(len(inv)),
            "laplace.invert.self_s": per(self_s["laplace.invert"]),
            "laplace.invert.p50_us": percentile(inv, 50) * 1e6,
            "laplace.invert.p99_us": percentile(inv, 99) * 1e6,
            "laplace.invert.refused": per(refused["laplace.invert"]),
            "models.transfer_function.calls": per(self.counts["models.transfer_function"]),
            "models.response.self_s": per(self_s["models.response"]),
            "models.rabotnov_stress.self_s": per(self_s["models.rabotnov_stress"]),
            "models.simulate_stress.self_s": per(self_s["models.simulate_stress"]),
            "models.simulate_stress.madds": per(extra["models.simulate_stress"]),
            "models.simulate_stress.madds_per_s": rate(extra["models.simulate_stress"],
                                                       self_s["models.simulate_stress"]),
            "fracops.gl_derivative.calls": per(len(durs["fracops.gl_derivative"])),
            "fracops.gl_derivative.self_s": per(self_s["fracops.gl_derivative"]),
            "fracops.gl_derivative.samples": per(extra["fracops.gl_derivative"]),
            "nutting.fit_nutting.self_s": per(self_s["nutting.fit_nutting"]),
            "nutting.quasi_property.self_s": per(self_s["nutting.quasi_property"]),
            "cli.run.self_s": per(self_s["cli.run"]),
            "cli.ingest_csv.self_s": per(self_s["cli.ingest_csv"]),
            "cli.ingest_csv.rows_per_s": rate(extra["cli.ingest_csv"], self_s["cli.ingest_csv"]),
        }
        # layer totals, so that time in a function named nowhere above
        # still lands in its layer
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1] + "."
            m[layer + "self_s"] = per(sum(v for k, v in self_s.items() if k.startswith(layer)))
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, extra, error in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job, "extra": extra,
                                     "error": error}) + "\n")


def _put(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _get(container, key):
    return container[key] if isinstance(container, dict) else getattr(container, key)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]
