"""seqdiv benchmark: each request is one parameter pair verified end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload fp_power_grid --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client in one process and one thread:
the next request starts when the previous one has returned.  Inputs come
from the workload seed alone (see workloads.py).  Every output goes through
a correctness gate; a request that raises or fails the gate counts as
failed.

--trace 0 measures the end-to-end metrics.  --trace 1 first checks the
tracer's call counts against cProfile on one small request, then runs the
first block of requests alternately plain and traced, and reports the
per-layer metrics (see tracer.py).  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MODULES = ("coeff", "polyring", "cyclokit", "sequences", "divisibility", "factorization", "verifier", "cli")
SETUP_REPEATS = 5
MIN_REQUESTS = 100  # at least 10 samples beyond p90
DIGEST_REQUESTS = 100

import workloads  # noqa: E402  (sibling module; bench/ is sys.path[0])


def import_package():
    """A fresh import of seqdiv from this checkout's src/."""
    for name in [n for n in sys.modules if n == "seqdiv" or n.startswith("seqdiv.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("seqdiv")
    if Path(pkg.__file__).resolve().parent != SRC / "seqdiv":
        raise ImportError(f"seqdiv imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module("seqdiv." + m) for m in MODULES})


class Bench:
    """One set-up copy of the program with one workload's inputs."""

    def __init__(self, workload, seed):
        self.mods = import_package()
        self.wl = workloads.WORKLOADS[workload](seed, self.mods)
        self.inputs = [self.wl.prepare(r) for r in self.wl.requests]
        # Warm-up: one request of each (field, kind) fills the cyclotomic_form
        # cache for every index the workload reaches.  The first pair of the
        # lowest degree keeps the set-up cost from depending on a heavy pair.
        first = {}
        described = [(self.wl.describe(req), i) for i, req in enumerate(self.wl.requests)]
        for (field, kind, degree), i in sorted(described, key=lambda t: t[0][2]):
            first.setdefault((field, kind), i)
        self.warm_ok = all(self.request(i)[0] for i in first.values())

    def call(self, i):
        i %= len(self.inputs)
        return self.wl.call(self.wl.requests[i], self.inputs[i])

    def check(self, i, out):
        """(ok, canonical output, cases run) for the output of request i."""
        try:
            return self.wl.check(self.wl.requests[i % len(self.inputs)], out)
        except Exception:  # a malformed output fails the gate
            traceback.print_exc(file=sys.stderr)
            return False, None, 0

    def request(self, i):
        """Call and gate request i: (ok, canonical, cases, seconds)."""
        t0 = time.perf_counter()
        try:
            out = self.call(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False, None, 0, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        return (*self.check(i, out), elapsed)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def recorded_digests(workload, seed):
    """Per-request output digests recorded for this seed, or None."""
    table = json.loads((BENCH / "digests.json").read_text())
    text = table.get(workload, {}).get(str(seed))
    return None if text is None else [text[k:k + 8] for k in range(0, len(text), 8)]


def traffic(bench, count, cases):
    """Share of the requests run by field, kind and max parameter degree."""
    shares = {}
    for i in range(count):
        field, kind, degree = bench.wl.describe(bench.wl.requests[i % len(bench.wl.requests)])
        for key in (field, kind, f"deg{degree}"):
            shares[key] = shares.get(key, 0) + 1
    parts = [f"{k} {100 * v / count:.1f}%" for k, v in sorted(shares.items())]
    return ", ".join(parts) + f"; mean cases/request {cases / count:.1f}"


def run_plain(args):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bench = Bench(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
    expected = recorded_digests(args.workload, args.seed)
    latencies, failed, cases = [], 0, 0
    start = time.perf_counter()
    i = 0
    # Whole blocks only, so every run has the workload's exact traffic mix.
    while i < MIN_REQUESTS or i % bench.wl.block or time.perf_counter() - start < args.seconds:
        ok, canonical, n_cases, elapsed = bench.request(i)
        if ok and expected is not None and i < len(expected):
            ok = digest(canonical) == expected[i]
        failed += not ok
        cases += n_cases
        latencies.append(elapsed)
        i += 1
    n = len(latencies)
    ranked = sorted(latencies)
    p90_rank = math.ceil(0.9 * n)
    metrics = {
        "pairs_per_s": (n / sum(latencies), "1/s"),
        "pair_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "pair_ms_p90": (1000 * ranked[p90_rank - 1], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - failed / n, "ratio"),
    }
    print(f"workload {args.workload} seed {args.seed}: {n} requests in "
          f"{time.perf_counter() - start:.1f} s, {n - p90_rank} samples beyond p90, "
          f"setup repeated {SETUP_REPEATS}x")
    for name, (value, unit) in metrics.items():
        print(f"  {name:12s} {value:12.4f} {unit}")
    print(f"  error_ratio  {failed / n:12.4f} ratio ({failed} failed of {n})")
    print(f"  digests      {'checked' if expected else 'none recorded for this seed'}")
    print(f"  traffic      {traffic(bench, n, cases)}")
    return bench.warm_ok and failed == 0, n, failed, metrics


def run_traced(args):
    from tracer import LAYERS, Tracer

    bench = Bench(args.workload, args.seed)
    tracer = Tracer()
    small = bench.wl.small
    plain, traced, mismatches = tracer.compare_with_cprofile(lambda: bench.call(small))
    plain_ok, plain_text, _ = bench.check(small, plain)
    self_test = not mismatches and plain_ok and plain_text == bench.check(small, traced)[1]
    print(f"self-test on request {small}: " + (
        "traced call counts equal cProfile's" if self_test else f"FAILED {mismatches}"))

    block = range(bench.wl.block)
    rounds, inclusive, ratios, attempted, failed = [], [], [], 0, 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        plain_s = 0.0
        for i in block:
            ok, _, _, elapsed = bench.request(i)
            failed += not ok
            plain_s += elapsed
        outs, traced_s = [], 0.0
        tracer.reset()
        tracer.install()
        try:
            for i in block:
                tracer.begin_request(i)
                t0 = time.perf_counter()
                try:
                    outs.append(bench.call(i))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    outs.append(None)
                traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        failed += sum(not bench.check(i, out)[0] for i, out in zip(block, outs))
        attempted += 2 * len(block)
        layer_metrics, incl = tracer.summary()
        rounds.append(layer_metrics)
        inclusive.append(incl)
        ratios.append(traced_s / plain_s)
    tracer.reset()

    metrics = {}
    steady = True
    for name, first in rounds[0].items():
        values = [r[name] for r in rounds]
        if name.endswith(".self_s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            steady &= all(v == first for v in values)
            metrics[name] = (first, "ratio" if name.endswith("_ratio") else "count")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(block)} requests, plain then traced; counts "
          + ("repeat exactly" if steady else "DIFFER between rounds"))
    print(f"  {'layer':40s} {'calls':>10s} {'self s':>9s} {'self':>6s} {'incl':>6s}")
    for layer in sorted(LAYERS, key=lambda k: -metrics[f"{k}.self_s"][0]):
        calls, self_s = metrics[f"{layer}.calls"][0], metrics[f"{layer}.self_s"][0]
        incl = statistics.median(r[layer] for r in inclusive)
        print(f"  {layer:40s} {calls:10d} {self_s:9.4f} {100 * self_s / total:5.1f}% "
              f"{100 * incl / total:5.1f}%")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name:40s} {value:14.4f} {unit}")
    return bench.warm_ok and self_test and steady and failed == 0, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqdiv" / "__init__.py").is_file():
        print(f"no seqdiv package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    correct, attempted, failed, metrics = (run_traced if args.trace else run_plain)(args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
