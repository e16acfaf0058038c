"""Benchmark of prostochastic's decide, enumerate and realize paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
  analyze-random    `analyze` on a seeded pool of 480 small random automata
  monoid-reduction  `monoid` on the reductions of four fixed automata
  realize           seeded mix of `simulate`, `reduce`, `numeric_interpretation`
                    and `limit_projection`

One process, one closed-loop client, no threads: each operation starts when
the previous one has returned and its answer has been checked.  A run makes
whole passes over the workload's operations, at least one, and stops before
a pass that would likely end after `--seconds`.  The program is imported
from `src/` beside this directory; CLI commands run in-process through
`prostochastic.cli.main`.  Reported times are scaled to a reference host
speed (see "Host speed" below); the record keeps the wall times.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it runs half the time untraced and half traced (see tracing.py) and reports
the per-layer metrics, per operation of the traced half.  Both print a
table, a `record` line with the host, the input provenance and the span
summary, and, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "prostochastic"
WORKLOADS = ("analyze-random", "monoid-reduction", "realize")
SETUP_REPEATS = 5   # before and again after the measured passes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; start = time.perf_counter(); import prostochastic.cli; "
                "print(repr(time.perf_counter() - start))")
TAIL_BEYOND = 10

# Host speed.  This kind of shared machine drifts by tens of percent over
# tens of seconds, more than the changes the benchmark must resolve.  While
# operations run, a timer signal makes the main thread time a fixed
# pure-Python kernel every SPEED_INTERVAL_S, and every time reported for an
# operation or an import is scaled to a host on which the kernel takes
# REFERENCE_KERNEL_S: reported = wall time * REFERENCE_KERNEL_S / the median
# kernel time from SPEED_WINDOW_S before it to SPEED_WINDOW_S after it (a
# median, because a single kernel time can catch an interrupt).  The
# kernel's own time is taken out of the operation's latency.  The record
# keeps the unscaled wall times.
KERNEL_LOOPS = 7000
REFERENCE_KERNEL_S = 0.0005
SPEED_INTERVAL_S = 0.1
SPEED_WINDOW_S = 0.5

# Per-layer metric -> unit.  Times (wall clock, not scaled) and counts are
# per operation of the traced half unless the unit says otherwise.
PER_LAYER_UNITS = {
    "monoid.markov_monoid.self_ms": "ms/op",
    "monoid.markov_monoid.elements": "count/call",
    "monoid.boolean_product.calls": "count/op",
    "monoid.boolean_product.us_per_call": "us",
    "monoid.product_yield": "ratio",
    "monoid.is_idempotent.calls": "count/op",
    "monoid.stabilize.calls": "count/op",
    "monoid.stabilize.us_per_call": "us",
    "monoid.find_value1_witness.self_ms": "ms/op",
    "monoid.format_monoid.self_ms": "ms/op",
    "monoid.markov_monoid.op_share": "frac",
    "monoid.op_share": "frac",
    "cli.main.self_ms": "ms/op",
    "core.load_automaton.self_ms": "ms/op",
    "core.power.calls": "count/op",
    "core.power.squarings": "count/op",
    "core.power.self_ms": "ms/op",
    "core.schedule_matrix.self_ms": "ms/op",
    "numerics.estimate_limit.self_ms": "ms/op",
    "numerics.realize.self_ms": "ms/op",
    "numerics.limit_matrix.calls": "count/op",
    "numerics.limit_matrix.steps": "count/op",
    "numerics.limit_matrix.self_ms": "ms/op",
    "omega.boolean_interpretation.self_ms": "ms/op",
    "omega.parse_expression.self_ms": "ms/op",
    "reduction.build_reduction.self_ms": "ms/op",
    "reduction.verify_reduction.self_ms": "ms/op",
    "trace.overhead_frac": "frac",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (whole passes, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import the program from src/ beside the benchmark, never from elsewhere."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {PACKAGE_DIR} is missing")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import prostochastic
    from prostochastic import cli, core, monoid, numerics, omega, reduction
    if Path(prostochastic.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise SystemExit(f"error: imported prostochastic from {prostochastic.__file__}")
    return types.SimpleNamespace(cli=cli, core=core, monoid=monoid, numerics=numerics,
                                 omega=omega, reduction=reduction)


# ---------------------------------------------------------------------------
# Host record and set-up time.


def host_record():
    import numpy
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    source = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "load": "one process, one closed-loop client, no threads; a timer signal "
                "times the speed kernel every 0.1 s",
    }


def speed_kernel():
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i % 7
    return total


class HostSpeed:
    """Timestamped times of the speed kernel; as a context manager, sampled
    by a timer signal in the main thread (no threads are started)."""

    def __init__(self):
        self.times = []
        self.kernel_s = []
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        speed_kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.kernel_s.append(end - start)
        self.spent += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end):
        """Factor for a wall time spent between `start` and `end`."""
        first = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        last = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        near = self.kernel_s[first:last] or [self.kernel_s[i] for i in (first - 1, last)
                                              if 0 <= i < len(self.times)]
        return REFERENCE_KERNEL_S / statistics.median(near)


def measure_setup(repeats, speed):
    """Wall and scaled times in fresh interpreters of `import prostochastic.cli`
    (the CLI cold start)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    wall, scaled = [], []
    for _ in range(repeats):
        speed.sample()
        start = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        speed.sample()
        if probe.returncode != 0:
            raise SystemExit(f"error: import probe failed: {probe.stderr.strip()}")
        wall.append(float(probe.stdout.strip().splitlines()[-1]))
        scaled.append(wall[-1] * speed.scale(start, end))
    return wall, scaled


# ---------------------------------------------------------------------------
# Measurement.


class Phase:
    """Latencies, failures and answers of one closed-loop stretch of passes."""

    def __init__(self):
        self.intervals = []    # (start, wall latency) per operation
        self.latencies = []    # scaled to the reference host speed
        self.busy = 0.0
        self.wall_busy = 0.0
        self.clock_busy = 0.0  # wall time including the speed kernel, as spans see it
        self.correct = 0
        self.problems = []
        self.answers = {}
        self.runs = Counter()
        self.passes = 0
        self.op_spans = {}
        self.kernel_ms = []

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.attempted - self.correct

    @property
    def ops_per_s(self):
        return self.correct / self.busy if self.busy > 0 else 0.0

    def scale_to(self, speed):
        self.latencies = [latency * speed.scale(start, start + latency)
                          for start, latency in self.intervals]
        self.busy = sum(self.latencies)
        self.wall_busy = sum(latency for _, latency in self.intervals)


def run_passes(workload, seconds, tracer=None):
    phase = Phase()
    speed = HostSpeed()
    speed.sample()
    with speed:
        _run_passes(workload, seconds, tracer, phase, speed)
    speed.sample()
    phase.scale_to(speed)
    phase.kernel_ms = [k * 1e3 for k in speed.kernel_s]
    return phase


def _run_passes(workload, seconds, tracer, phase, speed):
    clock = time.perf_counter
    start = clock()
    while True:
        for op in workload.ops:
            before = tracer.snapshot() if tracer else None
            problem = None
            spent = speed.spent
            t0 = clock()
            try:
                result = op.call()
            except (Exception, SystemExit) as exc:
                answer, problem = None, f"raised {exc!r}"
            kernel = speed.spent - spent
            latency = clock() - t0 - kernel
            phase.clock_busy += latency + kernel
            if problem is None:
                if tracer:
                    tracer.paused = True
                try:
                    answer, problem = op.check(result)
                except Exception as exc:
                    answer, problem = None, f"check raised {exc!r}"
                finally:
                    if tracer:
                        tracer.paused = False
            if problem is None and phase.answers.setdefault(op.label, answer) != answer:
                problem = f"answer {answer!r} differs from the earlier pass"
            phase.runs[op.label] += 1
            phase.intervals.append((t0, latency))
            if problem is None:
                phase.correct += 1
            else:
                phase.problems.append(f"{op.label}: {problem}")
            if tracer:
                record_op_spans(phase.op_spans, op.label, latency, before, tracer.snapshot())
        phase.passes += 1
        elapsed = clock() - start
        if elapsed + elapsed / phase.passes > seconds:
            return


def record_op_spans(table, label, latency, before, after):
    entry = table.setdefault(label, {"runs": 0, "latency_s": 0.0, "spans": {}})
    entry["runs"] += 1
    entry["latency_s"] += latency
    for name, (calls, total, own) in after.items():
        base = before.get(name, (0, 0.0, 0.0))
        if calls != base[0]:
            span = entry["spans"].setdefault(name, [0, 0.0, 0.0])
            span[0] += calls - base[0]
            span[1] += total - base[1]
            span[2] += own - base[2]


def tail_latency(latencies):
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum when there are too
    few samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def end_to_end(phase, setup_s):
    tail, percentile, beyond = tail_latency(phase.latencies)
    metrics = {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{percentile:.2f}, {beyond} of {phase.attempted} samples beyond",
        "failed_frac": f"{phase.failed}/{phase.attempted}",
        "peak_rss_mb": "not scaled",
    }
    shown = dict(metrics)
    shown["failed_frac"] = (phase.failed / phase.attempted, "frac")
    return metrics, shown, notes


def per_layer(tracer, traced, untraced):
    ops = traced.attempted
    spans = tracer
    counters = tracer.counters

    def per_op(value):
        return value / ops

    def self_ms(name):
        return per_op(spans.self_seconds(name) * 1e3)

    def us_per_call(name):
        calls = spans.calls(name)
        return spans.total_seconds(name) * 1e6 / calls if calls else 0.0

    mm_calls = spans.calls("monoid.markov_monoid")
    mm_products = counters["monoid.markov_monoid.products"]
    values = {
        "monoid.markov_monoid.self_ms": self_ms("monoid.markov_monoid"),
        "monoid.markov_monoid.elements":
            counters["monoid.markov_monoid.elements"] / mm_calls if mm_calls else 0.0,
        "monoid.boolean_product.calls": per_op(spans.calls("monoid.boolean_product")),
        "monoid.boolean_product.us_per_call": us_per_call("monoid.boolean_product"),
        "monoid.product_yield":
            counters["monoid.markov_monoid.new_elements"] / mm_products if mm_products else 0.0,
        "monoid.is_idempotent.calls": per_op(spans.calls("monoid.is_idempotent")),
        "monoid.stabilize.calls": per_op(spans.calls("monoid.stabilize")),
        "monoid.stabilize.us_per_call": us_per_call("monoid.stabilize"),
        "monoid.find_value1_witness.self_ms": self_ms("monoid.find_value1_witness"),
        "monoid.format_monoid.self_ms": self_ms("monoid.format_monoid"),
        "monoid.markov_monoid.op_share":
            spans.total_seconds("monoid.markov_monoid") / traced.clock_busy,
        "monoid.op_share": tracer.module_time["monoid"] / traced.clock_busy,
        "cli.main.self_ms": self_ms("cli.main"),
        "core.load_automaton.self_ms": self_ms("core.load_automaton"),
        "core.power.calls": per_op(spans.calls("core.power")),
        "core.power.squarings": per_op(counters["core.power.squarings"]),
        "core.power.self_ms": self_ms("core.power"),
        "core.schedule_matrix.self_ms": self_ms("core.schedule_matrix"),
        "numerics.estimate_limit.self_ms": self_ms("numerics.estimate_limit"),
        "numerics.realize.self_ms": self_ms("numerics.realize"),
        "numerics.limit_matrix.calls": per_op(spans.calls("numerics.limit_matrix")),
        "numerics.limit_matrix.steps": per_op(counters["numerics.limit_matrix.steps"]),
        "numerics.limit_matrix.self_ms": self_ms("numerics.limit_matrix"),
        "omega.boolean_interpretation.self_ms": self_ms("omega.boolean_interpretation"),
        "omega.parse_expression.self_ms": self_ms("omega.parse_expression"),
        "reduction.build_reduction.self_ms": self_ms("reduction.build_reduction"),
        "reduction.verify_reduction.self_ms": self_ms("reduction.verify_reduction"),
        "trace.overhead_frac": (untraced.ops_per_s / traced.ops_per_s - 1.0
                                if traced.ops_per_s else 0.0),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def predictions(workload_name, metrics):
    """The traced run's verdicts on the predictions stated in BENCHMARK.json."""
    mm_share = metrics["monoid.markov_monoid.op_share"][0]
    monoid_share = metrics["monoid.op_share"][0]
    lines = [f"markov_monoid share of op time: {mm_share:.1%}; "
             f"all monoid spans: {monoid_share:.1%}"]
    if workload_name == "monoid-reduction":
        verdict = "holds" if mm_share > 0.5 else "does NOT hold"
        lines.append(f"prediction 'markov_monoid dominates op time on monoid-reduction' "
                     f"{verdict} ({mm_share:.1%} > 50%)")
    if workload_name == "realize":
        verdict = "holds" if monoid_share < 0.05 else "does NOT hold"
        lines.append(f"prediction 'monoid spans are a negligible share of realize' "
                     f"{verdict} ({monoid_share:.2%} < 5%)")
    return lines


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    pkg = import_package()
    import tracing
    import workloads

    host = host_record()
    setup_speed = HostSpeed()
    setup_wall, setup_scaled = (measure_setup(SETUP_REPEATS, setup_speed) if args.trace == 0
                                else ([], []))
    scratch_root = HERE / ".work"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as workdir:
        workload = workloads.build(pkg, args.workload, args.seed, workdir)
        if args.trace == 0:
            phase = run_passes(workload, args.seconds)
            wall, scaled = measure_setup(SETUP_REPEATS, setup_speed)
            setup_wall += wall
            setup_scaled += scaled
            metrics, shown, notes = end_to_end(phase, statistics.median(setup_scaled))
            counted = phase
            extra = {"wall": {"ops_per_s": phase.correct / phase.wall_busy,
                              "latency_p50_ms": statistics.median(
                                  latency for _, latency in phase.intervals) * 1e3,
                              "setup_s": statistics.median(setup_wall)},
                     "setup_wall_s": setup_wall}
        else:
            untraced = run_passes(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracer:
                traced = run_passes(workload, args.seconds / 2, tracer)
            for label, answer in traced.answers.items():
                if untraced.answers.get(label, answer) != answer:
                    traced.correct -= traced.runs[label]
                    traced.problems.append(f"{label}: traced answer {answer!r} differs "
                                           f"from untraced {untraced.answers[label]!r}")
            metrics = per_layer(tracer, traced, untraced)
            shown, notes = metrics, {}
            counted = traced
            extra = {"predictions": predictions(args.workload, metrics),
                     "untraced_ops_per_s": untraced.ops_per_s,
                     "traced_ops_per_s": traced.ops_per_s,
                     "spans_by_op": traced.op_spans,
                     "counters": dict(tracer.counters)}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": counted.passes,
        "ops_per_pass": len(workload.ops),
        "inputs_sha256": workload.digest,
        "provenance": workload.provenance,
        "host": host,
        "kernel_ms": {"reference": REFERENCE_KERNEL_S * 1e3,
                      "median": statistics.median(counted.kernel_ms),
                      "min": min(counted.kernel_ms), "max": max(counted.kernel_ms)},
        "problems": counted.problems[:20],
        **{k: v for k, v in extra.items() if k != "spans_by_op"},
    }
    print(f"workload {args.workload} seed {args.seed}: {counted.passes} passes of "
          f"{len(workload.ops)} ops, inputs sha256 {workload.digest[:16]}")
    print(f"  times scaled to a speed-kernel time of {REFERENCE_KERNEL_S * 1e3:g} ms "
          f"(measured median {statistics.median(counted.kernel_ms):.4f} ms)")
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    for line in extra.get("predictions", []):
        print(f"  {line}")
    for problem in counted.problems[:20]:
        print(f"  FAILED {problem}")
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"record": record, "spans_by_op": extra["spans_by_op"]},
                                         indent=1, sort_keys=True) + "\n")
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": counted.failed == 0,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
