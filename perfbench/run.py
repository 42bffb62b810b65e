"""routhkit benchmark: time to a verified result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from its
``src/`` directory, and the run fails without printing a result when
that is missing.  With ``--trace 0`` the run measures the end-to-end
metrics of spec.END_TO_END over untraced repetitions; with ``--trace 1``
it alternates untraced and traced repetitions on the same inputs and
reports the per-layer metrics of spec.PER_LAYER (see tracing.py).
``--smoke`` uses tiny inputs and is meant for selftest.py.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with keys correct, attempted, failed (counted
in checks) and metrics.  Spans of traced runs are written to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spec
from tracing import Tracer, layer_metrics, margin_digits

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Fresh interpreters timed for setup_s; each imports routhkit and builds inputs.
SETUP_PROBES = 5


def import_program():
    """Import routhkit from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "routhkit", "__init__.py")):
        raise SystemExit(f"perfbench: no routhkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import routhkit
    if os.path.dirname(os.path.dirname(os.path.abspath(routhkit.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported routhkit from {routhkit.__file__}, not {SRC}")


def tail_percentile(samples):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99):
        if len(samples) * (100 - p) / 100.0 >= 10:
            best = p
    if best is None:
        return None, None
    return best, statistics.quantiles(samples, n=100, method="inclusive")[best - 1]


def null_span(_name):
    return contextlib.nullcontext()


class Run:
    """Repetitions of one workload, with the checks they passed and failed."""

    def __init__(self, name, seed, workdir, smoke):
        from workloads import WORKLOADS
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.margins = []
        self.errors = []

    def setup(self, label, smoke=False):
        directory = os.path.join(self.workdir, label)
        os.makedirs(directory)
        return self.workload.setup(self.seed, directory, smoke or self.smoke)

    def execute(self, ctx, span):
        """One repetition: (wall, cpu, outcome); outcome is None unless every check passed."""
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outcome = self.workload.run(ctx, span)
        except Exception:  # benchmark boundary: a raising repetition fails all its checks
            self.errors.append(traceback.format_exc())
            self.attempted += self.workload.n_checks
            self.failed += self.workload.n_checks
            return time.perf_counter() - t0, time.process_time() - cpu0, None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        bad = [c for c in outcome.checks if not c.passed]
        self.attempted += len(outcome.checks)
        self.failed += len(bad)
        self.errors += [f"check {c.name} failed: value {c.value!r}, tolerance {c.tolerance!r}"
                        for c in bad]
        self.margins += [margin_digits(c.value, c.tolerance, c.above) for c in outcome.checks]
        return wall, cpu, (None if bad else outcome)


    def require_one_digest(self, digests) -> None:
        """Repetitions of the same inputs, traced or not, must agree bit for bit."""
        if len(digests) > 1:
            self.errors.append(f"{len(digests)} different output digests for the same inputs")
            self.failed += 1


def setup_seconds(run: Run) -> float:
    """Median over fresh interpreters of importing routhkit plus workload setup."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(run.workdir, f"probe{i}")
        os.makedirs(probe_dir)
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), run.name,
                str(run.seed), probe_dir] + (["--smoke"] if run.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(run: Run, seconds: float):
    """Untraced repetitions for ``seconds`` after a warm-up; end-to-end metrics."""
    setup_s = setup_seconds(run)
    run.execute(run.setup("warm-up", smoke=True), null_span)  # lazy imports, first use
    ctx = run.setup("untraced")
    walls, cpus, digests = [], [], set()
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        wall, cpu, outcome = run.execute(ctx, null_span)
        if outcome is not None:  # a failed repetition is never timed as a success
            walls.append(wall)
            cpus.append(cpu)
            digests.add(outcome.digest)
        rep += 1
    run.require_one_digest(digests)
    if not walls:
        return None
    p, tail = tail_percentile(walls)
    print(f"{run.name}: {len(walls)} verified repetitions of {rep}; wall_s median "
          f"{statistics.median(walls):.6g} s"
          + (f", p{p} {tail:.6g} s" if p else "; no percentile has ten samples beyond it"))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(run: Run, seconds: float):
    """Pairs of untraced and traced repetitions on the same inputs; per-layer metrics."""
    tracer = Tracer()
    ctx_u = run.setup("untraced")
    tracer.install()
    try:
        ctx_t = run.setup("traced")  # built with the wrappers in place, tracer inactive
    finally:
        tracer.uninstall()
    untraced, traced, layers, digests = [], [], [], set()
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        wall_u, _, out_u = run.execute(ctx_u, null_span)
        tracer.install()
        try:
            tracer.start_run(f"{run.name}-{run.seed}-{rep}")
            try:
                wall_t, _, out_t = run.execute(ctx_t, tracer.span)
            finally:
                tracer.stop_run()
        finally:
            tracer.uninstall()
        if out_u is not None and out_t is not None:
            digests.update((out_u.digest, out_t.digest))
            untraced.append(wall_u)
            traced.append(wall_t)
            layers.append(layer_metrics(tracer.run_spans(tracer.run_id), tracer.counts,
                                        tracer.seconds, wall_t))
        rep += 1
    run.require_one_digest(digests)
    path = write_spans(tracer, run.name, run.seed)
    print(f"{run.name}: {len(layers)} untraced/traced pairs of {rep}; spans in {path}")
    if not layers:
        return None
    coverage = min(m["trace.top_level_coverage"] for m in layers)
    if coverage < 0.9:
        run.errors.append(f"top-level spans cover {coverage:.1%} of traced wall time (< 90%)")
        run.failed += 1
    metrics = {}
    for name, value in layers[0].items():
        # counts are the same in every pair (same inputs); times and ratios
        # of times are medians over pairs
        timed = name.endswith(("_s", "_us")) or name == "trace.top_level_coverage"
        metrics[name] = statistics.median(m[name] for m in layers) if timed else value
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["check_margin_digits"] = min(run.margins)
    metrics["checks_failed_ratio"] = run.failed / run.attempted
    return metrics


def write_spans(tracer, workload, seed):
    path = os.path.join(OUT, f"trace-{workload}-{seed}.jsonl")
    with open(path, "w") as handle:
        for s in tracer.spans:
            record = {k: s[k] for k in ("id", "name", "start", "end", "parent", "run")}
            record["self_s"] = s["end"] - s["start"] - s["child_s"]
            handle.write(json.dumps(record) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = Run(args.workload, args.seed, workdir, args.smoke)
        wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
        metrics = (measure_traced if args.trace else measure)(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in run.errors[:20]:
        print(err, file=sys.stderr)
    if metrics is None:
        print(f"perfbench: no repetition of {args.workload} passed its checks", file=sys.stderr)
        metrics = {m["name"]: 0.0 for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    for name, unit in units.items():
        print(f"{args.workload:20s} {name:36s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
