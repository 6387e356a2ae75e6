"""Benchmark of octainscribe: one closed-loop caller on one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`.
The caller sends the next operation only after the previous one returns,
and BLAS pools are pinned to one thread.  Operations run in whole passes
over the workload's inputs until `--seconds` have passed.  Times are in
calibrated seconds (see calibration.py).  Every output is checked, and each
input's output digest must be the same every time it runs.  The last line
of standard output is one JSON object.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every input
twice in a row, untraced and then with wrappers around the program's
layer entry points (see workloads.traced_names), and reports the
per-layer metrics; the spans go to .bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
# A traced op may spend at most this share of its time outside every
# traced layer; more means a layer is missing from the trace.
UNATTRIBUTED_MAX = 0.05
# Percentiles the report may use, highest first.
PERCENTILES = (0.99, 0.9, 0.75)
LAYERS = ("polytope", "angles", "sphere", "inscriber", "oracle")


def tail_percentile(n):
    """The highest percentile in PERCENTILES with at least ten samples
    beyond it, or None when n is too small for any of them."""
    for q in PERCENTILES:
        if n - math.ceil(q * n) >= 10:
            return q
    return None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _new_stats():
    return {"latency": [], "wall": [], "ok": 0, "agreed": 0, "referenced": 0, "passes": 0}


def _record(stats, result):
    latency, wall, ok, agrees = result
    stats["latency"].append(latency)
    stats["wall"].append(wall)
    stats["ok"] += bool(ok)
    if agrees is not None:
        stats["referenced"] += 1
        stats["agreed"] += bool(agrees)


class Loop:
    """Closed-loop runs over one workload's inputs.  `digests` holds the
    first output digest of each input; every later run of the input must
    match it, traced or not."""

    def __init__(self, workload, clock, traced_names=()):
        self.workload = workload
        self.clock = clock
        self.traced_names = traced_names
        self.tracer = tracing.Tracer()
        self.digests = {}
        self.mismatches = 0
        self.errors = []

    def run_one(self, index, inp, traced=False):
        """Time one op, then check it.  Returns (latency in calibrated
        seconds, wall seconds, ok, agrees).  A traced op runs with every
        traced name wrapped; the names are restored before the op's
        output is checked."""
        wl, tracer = self.workload, self.tracer
        if traced:
            for owner, attr, name, note in self.traced_names:
                tracer.wrap(owner, attr, name, note)
            tracer.enabled = True
        with self.clock.measure() as timing:
            try:
                out = wl.op(inp)
            except Exception:  # a failed op is counted, and the loop goes on
                out = None
                message = traceback.format_exc()
        if traced:
            tracer.enabled = False
            tracer.restore()
        latency, wall = timing["calibrated_s"], timing["wall_s"]
        if out is None:
            self._error(index, message)
            return latency, wall, False, None
        try:
            ok, agrees = wl.check(inp, out)
            digest = wl.digest(inp, out)
        except Exception:
            self._error(index, traceback.format_exc())
            return latency, wall, False, None
        if self.digests.setdefault(index, digest) != digest:
            self.mismatches += 1
            self._error(index, "output digest differs from the first run of this input")
        return latency, wall, ok, agrees

    def passes(self, inputs, seconds, paired=False):
        """Whole passes over the inputs, as many as fit in about `seconds`
        (at least one), judged by the length of the first.  Metrics over
        whole passes weigh every input alike, however long each op takes.

        With `paired`, every input runs untraced and then traced, so both
        runs of a pair see the same machine speed.  Returns the stats of
        the untraced runs and, when paired, of the traced ones; latencies
        are in calibrated seconds, wall times in seconds."""
        plain, traced = _new_stats(), _new_stats()
        start = time.perf_counter()
        count = None
        while True:
            for index, inp in enumerate(inputs):
                _record(plain, self.run_one(index, inp))
                if paired:
                    _record(traced, self.run_one(index, inp, traced=True))
            plain["passes"] += 1
            traced["passes"] += 1
            if count is None:
                count = max(1, round(seconds / (time.perf_counter() - start)))
            if plain["passes"] >= count:
                return (plain, traced) if paired else plain

    def workload_digest(self):
        h = hashlib.sha256()
        for index in sorted(self.digests):
            h.update(self.digests[index].encode())
        return h.hexdigest()[:16]

    def _error(self, index, message):
        self.errors.append(f"input {index}: {message}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(stats, setup_s):
    lat = stats["latency"]
    n = len(lat)
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(n / sum(lat), "1/s"),
        "ok_frac": _metric(stats["ok"] / n, "frac"),
        "agree_frac": _metric(stats["agreed"] / max(1, stats["referenced"]), "frac"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(by_name, pairs, op_s, untraced, traced):
    """The per-layer metrics of one traced run, from aggregated spans."""

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def notes(name, parent=None):
        return [n for n, p in by_name.get(name, {}).get("notes", []) if parent in (None, p)]

    def frac(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = _metric(value, unit)

    def counts(name, *keys):
        for key in keys:
            put(f"{name}.{key}", get(name, key), "s" if key.endswith("_s") else "count")

    counts("polytope.SmoothedBody", "calls", "total_s", "self_s")
    counts("polytope.build_from_halfspaces", "calls", "total_s")
    counts("polytope.linprog", "calls")
    counts("polytope.nearest_boundary", "calls")
    put("polytope.nearest_boundary.points", sum(notes("polytope.nearest_boundary")), "count")
    counts("polytope.nearest_boundary", "total_s")
    counts("polytope.signed_distance", "calls", "self_s")
    counts("polytope.distance_to_boundary", "calls", "total_s")

    counts("angles.SolidAngle", "calls", "total_s")
    counts("angles.classify_trihedral", "calls", "total_s")
    slow = pairs.get(("angles.classify_trihedral", "angles.placement_test"), [0, 0])[1]
    calls = get("angles.classify_trihedral", "calls")
    put("angles.classify_trihedral.fast_path_frac", frac(calls - slow, calls), "frac")
    counts("angles.placement_test", "calls", "total_s")
    counts("angles.construct_inscribed_octahedron", "calls", "total_s")
    counts("angles.fits_in_T0", "calls", "total_s")

    counts("sphere.hemisphere_axis", "calls")
    fallbacks = pairs.get(("sphere.hemisphere_axis", "scipy.optimize.linprog"), [0, 0])[0]
    put("sphere.hemisphere_axis.lp_fallbacks", fallbacks, "count")

    counts("inscriber.multistart", "calls", "total_s")
    seeds = notes("inscriber.solve_at_epsilon", "inscriber.multistart")
    converged = sum(c for _, c in seeds)
    put("inscriber.multistart.seeds", len(seeds), "count")
    put("inscriber.multistart.converged", converged, "count")
    put("inscriber.multistart.converged_frac", frac(converged, len(seeds)), "frac")
    put("inscriber.multistart.solutions", sum(notes("inscriber.multistart")), "count")
    counts("inscriber.solve_at_epsilon", "calls", "total_s")
    solves = notes("inscriber.solve_at_epsilon")
    put("inscriber.solve_at_epsilon.lm_iters", sum(i for i, _ in solves), "count")
    put("inscriber.solve_at_epsilon.converged_frac", frac(sum(c for _, c in solves), len(solves)), "frac")
    counts("inscriber.residual", "calls", "total_s")
    counts("inscriber.continue_to_surface", "calls", "self_s")
    tracks = notes("inscriber.continue_to_surface")
    put("inscriber.continue_to_surface.steps", sum(s for s, _ in tracks), "count")
    put("inscriber.continue_to_surface.collapse_restarts", sum(c for _, c in tracks), "count")
    counts("inscriber.certify", "calls", "total_s")

    counts("oracle.direct_angle_search", "calls", "total_s")
    searches = notes("oracle.direct_angle_search")
    put("oracle.direct_angle_search.early_stops", sum(e for e, _ in searches), "count")
    put("oracle.direct_angle_search.poses", sum(p for _, p in searches), "count")
    counts("oracle.least_squares", "calls")
    put("oracle.least_squares.nfev", sum(notes("oracle.least_squares")), "count")
    counts("oracle.least_squares", "total_s")

    for layer in LAYERS:
        own = sum(a["self_s"] for name, a in by_name.items() if _layer_of(name) == layer)
        put(f"layer.{layer}.self_frac", frac(own, op_s), "frac")
    attributed = sum(a["self_s"] for a in by_name.values())
    put("trace.unattributed_frac", frac(op_s - attributed, op_s), "frac")
    put("trace.ops", len(traced["latency"]), "count")
    put("trace.op_s", op_s, "s")
    untraced_rate = len(untraced["latency"]) / sum(untraced["latency"])
    traced_rate = len(traced["latency"]) / sum(traced["latency"])
    put("trace.untraced_ops_per_s", untraced_rate, "1/s")
    put("trace.traced_ops_per_s", traced_rate, "1/s")
    put("trace.overhead_ops_per_s", traced_rate - untraced_rate, "1/s")
    return out


def _layer_of(span_name):
    # scipy's linprog is reached at call time only through hemisphere_axis.
    return "sphere" if span_name == "scipy.optimize.linprog" else span_name.split(".")[0]


def _print_span_table(by_name, op_s):
    print(f"spans: name calls total_s self_s self_share (of {op_s:.4f} s traced op time)")
    for name, a in sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"]):
        share = a["self_s"] / op_s if op_s else 0.0
        print(f"  {name} {a['calls']} {a['total_s']:.4f} {a['self_s']:.4f} {share:.3f}")


def _summary(label, stats):
    lat = stats["latency"]
    q = tail_percentile(len(lat))
    tail = f", p{round(100 * q)} {percentile(lat, q):.6f}" if q else ""
    print(
        f"{label}: {len(lat)} ops in {stats['passes']} passes, op time {sum(lat):.3f} calibrated s "
        f"({sum(stats['wall']):.3f} s wall); latency p50 {statistics.median(lat):.6f}{tail} "
        f"calibrated s; ok {stats['ok']}/{len(lat)}, references agree {stats['agreed']}/{stats['referenced']}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "octainscribe" / "__init__.py").is_file():
        print(f"error: no octainscribe package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    t0 = time.perf_counter()
    import numpy
    import scipy

    import calibration
    import octainscribe
    import workloads

    import_s = time.perf_counter() - t0
    if Path(octainscribe.__file__).resolve().parent != (src / "octainscribe").resolve():
        print(f"error: imported octainscribe from {octainscribe.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print(
        f"machine: {platform.machine()}, {os.cpu_count()} cpus, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}"
    )
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("closed loop, 1 client; no layer has a queue, so there are no wait metrics")

    import_s *= calibration.NOMINAL_KERNEL_S / statistics.fmean(calibration.kernel_s() for _ in range(5))
    loop = Loop(wl, calibration.Clock(), workloads.traced_names())
    setup_times, input_digests = [], set()
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        with loop.clock.measure() as timing:
            inputs = wl.make_inputs(args.seed)
        warm_s, _, warm_ok, _ = loop.run_one(0, inputs[0])
        setup_times.append(timing["calibrated_s"] + warm_s)
        input_digests.add(workloads.inputs_digest(inputs))
    setup_s = import_s + statistics.median(setup_times)
    print(
        f"set-up: {len(inputs)} inputs, import {import_s:.3f}, "
        f"inputs + warm-up op {', '.join(f'{s:.3f}' for s in setup_times)} calibrated s"
    )
    problems = []
    if len(input_digests) != 1:
        problems.append("set-up made different inputs from the same seed")
    if not warm_ok:
        problems.append("the warm-up op failed its check")

    if args.trace == 0:
        stats = loop.passes(inputs, args.seconds)
        _summary("measured", stats)
        metrics = end_to_end(stats, setup_s)
        attempted = len(stats["latency"])
        failed = attempted - stats["ok"]
    else:
        untraced, traced = loop.passes(inputs, args.seconds, paired=True)
        _summary("untraced", untraced)
        _summary("traced", traced)
        spans = loop.tracer.spans
        op_s = sum(traced["wall"])
        by_name, pairs = tracing.aggregate(spans)
        _print_span_table(by_name, op_s)
        metrics = per_layer(by_name, pairs, op_s, untraced, traced)
        unattributed = metrics["trace.unattributed_frac"]["value"]
        if not -1e-9 <= unattributed <= UNATTRIBUTED_MAX:
            problems.append(
                f"layer self-times leave {unattributed:.4f} of traced op time unattributed "
                f"(bound 0..{UNATTRIBUTED_MAX})"
            )
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracing.write_spans(spans, spans_path, t0=spans[0][tracing.START] if spans else 0.0)
        print(f"spans: {len(spans)} written to {spans_path.relative_to(ROOT)}")
        attempted = len(untraced["latency"]) + len(traced["latency"])
        failed = attempted - untraced["ok"] - traced["ok"]

    print(f"digest {args.workload}: {loop.workload_digest()} over {len(loop.digests)} inputs")
    if loop.mismatches:
        problems.append(f"{loop.mismatches} outputs differ from an earlier run of the same input")
    if failed:
        problems.append(f"{failed} of {attempted} ops failed their check")
    for message in loop.errors[:5]:
        print(message, file=sys.stderr)
    for message in problems:
        print(f"problem: {message}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
