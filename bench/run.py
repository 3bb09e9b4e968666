#!/usr/bin/env python3
"""qpfix benchmark: one seeded workload per process, closed loop, one caller.

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  Set-up imports qpfix and generates the inputs from the seed, and
is repeated ``SETUP_REPS`` times (``setup_s`` is the median).  The timed loop
then runs every input once per pass, each item starting when the previous
one ends, for several passes over freshly built copies of the same inputs;
an item's latency is its fastest pass.  Outputs are checked against
references outside the timed region, and every pass must reproduce the
first pass's outputs exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced pass over the same inputs, and reports the
per-layer metrics with the tracing overhead.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one process, one thread

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

import numpy as np

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

MODULES = ("spaces", "order", "sequences", "relations", "solvers", "oracle", "catalog", "cli")
SETUP_REPS = 11
TAIL_BEYOND = 10  # the tail percentile leaves this many items above it
DEADLINE_S = 140  # measuring stops here even if inputs remain, so a run ends in time


class Workload:
    def __init__(self, prefix, rate, unit, passes, count_bytes=None, write=None):
        self.generate = getattr(wl, f"{prefix}_generate")
        self.run = getattr(wl, f"{prefix}_run")
        self.output = getattr(wl, f"{prefix}_output")
        self.check = getattr(wl, f"{prefix}_check")
        self.count_bytes = count_bytes
        self.write = write  # puts generated inputs on disk, untimed
        self.rate = rate  # items per second at baseline, to size the inputs
        self.unit = unit  # inputs come in whole multiples of this
        # An item's latency is its fastest of this many passes.  The host is
        # shared: other tenants only ever add time, in bursts of seconds.
        self.passes = passes

    def size(self, seconds):
        units = round(seconds * self.rate / self.passes / self.unit)
        return self.unit * max(1, units)


WORKLOADS = {
    "campaign": Workload("campaign", rate=21.0, unit=1, passes=16),
    "model": Workload("model", rate=20.0, unit=22, passes=8,
                      count_bytes=wl.model_bytes, write=wl.model_write),
    "cauchy": Workload("cauchy", rate=12.0, unit=18, passes=8),
}


def import_qpfix():
    """Import the package afresh from ``src/``, dropping any earlier copy."""
    for key in [k for k in sys.modules if k == "qpfix" or k.startswith("qpfix.")]:
        del sys.modules[key]
    pkg = importlib.import_module("qpfix")
    if not os.path.realpath(pkg.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"qpfix was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"qpfix.{name}") for name in MODULES}
    )


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


class Pass:
    """Latencies, digests and failures of one pass over the inputs."""

    def __init__(self):
        self.latencies_ns = []
        self.digests = []
        self.failed = 0
        self.mismatches = []
        self.bytes_written = 0

    @property
    def items(self):
        return len(self.latencies_ns)

    @property
    def items_per_s(self):
        return self.items / (sum(self.latencies_ns) / 1e9)

    @property
    def digest(self):
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def run_pass(w, m, pool, deadline, checked, tracer=None):
    """Run every input once, timing each item alone; then, untimed, digest
    its output and (when ``checked``) compare it with the references."""
    res = Pass()
    for i, inp in enumerate(pool):
        if time.monotonic() > deadline:
            print(f"deadline reached after {i} of {len(pool)} items", file=sys.stderr)
            break
        error = None
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                raw = w.run(m, inp)
            else:
                with tracer.item(i):
                    raw = w.run(m, inp)
        except Exception:
            error = traceback.format_exc()
        res.latencies_ns.append(time.perf_counter_ns() - t0)
        bad = []
        if error is None:
            try:
                out = w.output(inp, raw)
                if checked:
                    bad = w.check(m, inp, out, i < wl.NAIVE_SAMPLE)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            res.failed += 1
            res.digests.append("error")
            if res.failed <= 3:
                print(f"item {i} raised:\n{error}", file=sys.stderr)
            continue
        res.digests.append(hashlib.sha256(canonical(out).encode()).hexdigest())
        if w.count_bytes is not None:
            res.bytes_written += w.count_bytes(inp)
        if bad:
            res.failed += 1
            res.mismatches.append((i, bad))
    return res


def tail(latencies_ns):
    """(value ms, percentile) of the highest percentile with TAIL_BEYOND items above it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1] / 1e6, 100.0
    return ordered[n - TAIL_BEYOND - 1] / 1e6, 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qpfix", "__init__.py")):
        print(f"no qpfix package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    name = args.workload
    w = WORKLOADS[name]
    size = w.size(args.seconds)
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    generate = lambda mods: w.generate(mods, np.random.default_rng(args.seed), size, workdir)

    def new_pool(mods):
        pool = generate(mods)
        if w.write is not None:
            w.write(pool)
        return pool

    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            m = import_qpfix()
            pool = generate(m)
            setup_times.append(time.perf_counter() - t0)
        if w.write is not None:
            w.write(pool)
        print(f"setup {name}: {len(pool)} inputs, {SETUP_REPS} set-ups: "
              + " ".join(f"{t:.4f}s" for t in setup_times))

        # Each pass gets freshly built inputs (same seed, same content), so
        # nothing one pass leaves on an input object can speed up the next.
        started = time.monotonic()
        deadline = started + DEADLINE_S
        passes = [run_pass(w, m, pool, deadline, checked=True)]
        if args.trace:
            tracer = tracing.Tracer()
            missing = tracer.install("qpfix", tracing.SPEC)
            if missing:
                print("not traced (absent): " + ", ".join(missing))
            try:
                passes.append(run_pass(w, m, new_pool(m), deadline, False, tracer))
            finally:
                tracer.uninstall()
        else:
            for _ in range(w.passes - 1):
                passes.append(run_pass(w, m, new_pool(m), deadline, checked=False))
        print(f"measured {len(passes)} passes in {time.monotonic() - started:.1f}s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)

    first = passes[0]
    correct = not first.mismatches
    for i, bad in first.mismatches[:5]:
        print(f"item {i} mismatch: {'; '.join(bad)}", file=sys.stderr)
    done = min(p.items for p in passes)
    if any(p.digests[:done] != first.digests[:done] for p in passes):
        print("passes over the same inputs gave different outputs", file=sys.stderr)
        correct = False
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"digest {name} seed={args.seed} items={first.items} sha256={first.digest}")
    print(f"failed_share {name}: {failed}/{attempted} = {failed / attempted:.6f}")

    if not args.trace:
        latencies = [min(p.latencies_ns[i] for p in passes) for i in range(done)]
        tail_ms, pct = tail(latencies)
        print(f"item latency is the fastest of {len(passes)} passes; item_tail_ms is "
              f"p{pct:.2f} of {done} items ({TAIL_BEYOND} items above it)")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (done / (sum(latencies) / 1e9), "1/s"),
            "item_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
            "item_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        untraced, traced = passes
        selfs = tracing.self_times(tracer.spans)
        gaps = tracing.self_sum_gaps(tracer.spans, selfs)
        if any(gaps.values()) or len(gaps) != traced.items:
            print("span self times do not add up to item wall times", file=sys.stderr)
            correct = False
        print(f"spans: {len(tracer.spans)} over {traced.items} items; self times add up "
              f"to the item's wall time in {sum(g == 0 for g in gaps.values())} items")
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{name}-seed{args.seed}.csv")
        tracing.write_spans(tracer.spans, spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        metrics = tracing.layer_metrics(tracer, traced.items)
        metrics["cli.bytes_written"] = (traced.bytes_written / traced.items, "bytes/item")
        ips_off, ips_on = untraced.items_per_s, traced.items_per_s
        metrics["trace.items_per_s.untraced"] = (ips_off, "1/s")
        metrics["trace.items_per_s.traced"] = (ips_on, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (ips_off - ips_on) / ips_off, "%")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for key, (value, unit) in metrics.items():
        print(f"  {key:45s} {value:14.6f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
