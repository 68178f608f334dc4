"""recruitcast benchmark: coverage-table throughput and demo-forecast latency.

Run from the repository root:

    python3 bench/run.py --workload table2-simultaneous --seed 1 --seconds 20 --trace 0

Every workload calls ``recruitcast.cli.main`` in this process, one
operation after another (a closed loop with one client), for
``--seconds`` seconds, and checks every output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` first runs a third of the time
untraced, then the rest with spans around the package's public
functions, and reports the per-layer metrics and the tracing overhead.
Lines starting with ``#`` describe the host and the run; the last line
of standard output is the JSON result.  Spans of a traced run, and the
samples of an untraced one, are written to ``bench/out/``.  See
``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import tracing  # noqa: E402

# A realistic replication count per table row, large enough that a
# batched engine would see a few hundred trials per row.
REPS_PER_ROW = 200
ROWS_PER_TABLE = 7
SETUP_REPEATS = 3
# Measuring goes on past --seconds only to reach the tail's sample
# count, and never past this.
MEASURE_CAP_S = 60.0
TRACE_REFERENCE_SHARE = 1.0 / 3.0
DEMO_WARMUP_CALLS = 5


@dataclass(frozen=True)
class Workload:
    table: str | None  # published table id, or None for the demo forecasts
    tail: float  # tail percentile reported as op_ms_tail_norm

    @property
    def min_samples(self) -> int:
        """Samples needed for ten to lie beyond the tail percentile."""
        return math.ceil(10.0 / (1.0 - self.tail) - 1e-9)


WORKLOADS = {
    # equal exposures: every fit takes the 1-D path; TrialData and the
    # discrete quantile inversion carry most of the cost
    "table2-simultaneous": Workload("2", 0.75),
    # uniform openings: every fit takes the 2-D Nelder-Mead path
    "table3-staggered": Workload("3", 0.70),
    # the interactive user: CSV parsing, argparse and single 2-D fits;
    # p99 of the probe-normalised call latency was not steady on the
    # 2-core host (run-to-run spread 14-27 %), p95 was (6 %)
    "demo-forecast": Workload(None, 0.95),
}

DEMO_SUMMARY = ("--input", "src/recruitcast/data/demo_trial_summary.csv",
                "--census", "0.125")
DEMO_EVENTS = ("--input", "src/recruitcast/data/demo_trial_events.csv",
               "--format", "events", "--census", "1.0")
DEMO_CALLS = {
    "fit-summary": ("fit",) + DEMO_SUMMARY,
    "fit-events": ("fit",) + DEMO_EVENTS,
    "predict-count-summary": ("predict",) + DEMO_SUMMARY + (
        "--objective", "count", "--horizon", "0.875", "--adjusted"),
    "predict-time-summary": ("predict",) + DEMO_SUMMARY + (
        "--objective", "time", "--horizon", "300", "--adjusted"),
    "predict-count-events": ("predict",) + DEMO_EVENTS + (
        "--objective", "count", "--horizon", "0.5"),
}

END_TO_END = {
    "op_ms_p50_norm": "ratio",
    "op_ms_tail_norm": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SPAN_NAMES = (
    "cli.main",
    "cli.build_parser",
    "cli.parse_centre_csv.summary",
    "cli.parse_centre_csv.events",
    "simulate.coverage_study",
    "simulate.generate_trial",
    "model.TrialData.from_arrays",
    "model.fit_mle.1d",
    "model.fit_mle.2d",
    "predict.pool_centres",
    "predict.prediction_interval",
    "distributions.nb_quantile",
    "distributions.pearson6_quantile",
    "simulate.exact_coverage",
)


def _per_layer_catalogue() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better)."""
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls_per_op"] = ("count", "lower")
        metrics[f"{span}.ms_per_op"] = ("ms", "lower")
        metrics[f"{span}.self_ms_per_op"] = ("ms", "lower")
    metrics["model.TrialData.from_arrays.centres_per_op"] = ("count", "lower")
    for path in ("1d", "2d"):
        metrics[f"model.fit_mle.{path}.ms_per_call"] = ("ms", "lower")
        metrics[f"model.fit_mle.{path}.iterations_p50"] = ("count", "lower")
        metrics[f"model.fit_mle.{path}.iterations_max"] = ("count", "lower")
    metrics["model.fit.ok"] = ("count", "higher")
    for outcome in tracing.FIT_OUTCOMES[1:]:
        metrics[f"model.fit.{outcome}"] = ("count", "lower")
    metrics["model.fit.converged_ratio"] = ("ratio", "higher")
    metrics["distributions.nb_cdf.calls_per_quantile"] = ("count", "lower")
    metrics["simulate.coverage_gap_pts"] = ("points", "lower")
    metrics["host.probe_ms"] = ("ms", "lower")
    metrics["host.steal_share"] = ("ratio", "lower")
    metrics["trace.overhead_ratio"] = ("ratio", "lower")
    metrics["trace.ops"] = ("count", "higher")
    return metrics


PER_LAYER = _per_layer_catalogue()


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def import_cli():
    """Import recruitcast.cli from this checkout's source tree, and only there."""
    if not (SRC / "recruitcast" / "cli.py").is_file():
        raise SetupError(f"no recruitcast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import recruitcast.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "recruitcast":
        raise SetupError(f"imported recruitcast from {cli.__file__}, not {SRC}")
    return cli


# --- inputs -----------------------------------------------------------------

def table_base_seed(seed: int, call: int) -> int:
    """Base seed of a table call; each call's rows use base .. base + 6."""
    return 10_000 + 1_000 * seed + ROWS_PER_TABLE * call


def table_argv(table: str, seed: int, call: int) -> list[str]:
    return ["simulate", "--table", table, "--reps", str(REPS_PER_ROW),
            "--seed", str(table_base_seed(seed, call)), "--threads", "1"]


def demo_calls(seed: int):
    """Endless (kind, argv) stream: every round holds each call kind once,
    in an order shuffled by the seed."""
    rng = random.Random(seed)
    kinds = list(DEMO_CALLS)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield kind, [str(ROOT / a) if a.endswith(".csv") else a
                         for a in DEMO_CALLS[kind]]


def build_inputs(workload: Workload) -> dict:
    """The reference outputs, after checking the demo inputs exist."""
    if workload.table is None:
        for argv in DEMO_CALLS.values():
            if not (ROOT / argv[2]).is_file():
                raise SetupError(f"missing demo input {argv[2]}")
    return checks.load_reference()


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Wall seconds for fresh processes to import the CLI and build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SetupError(f"set-up process failed: {done.stderr.strip()}")
    return times


# --- host -------------------------------------------------------------------

def host_facts() -> dict:
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"l{level}"] = size
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "l2": caches.get("l2"), "l3": caches.get("l3")}


def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies (user .. steal) from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]] if fields and fields[0] == "cpu" else None


def steal_share(before, after) -> float:
    if before is None or after is None:
        return 0.0
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def _rosenbrock(x) -> float:
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def host_probe_ms() -> float:
    """A fixed SciPy Nelder-Mead solve, timed.

    It exercises the same mix of interpreter, NumPy and SciPy work as the
    workloads without calling the package, so it moves with the host's
    speed and not with the program.  Of the probes tried it tracked
    table 3's per-row time most closely.
    """
    from scipy import optimize
    start = time.perf_counter()
    result = optimize.minimize(_rosenbrock, [-1.2, 1.0], method="Nelder-Mead",
                               options={"xatol": 1e-6, "fatol": 1e-10})
    elapsed = 1e3 * (time.perf_counter() - start)
    if not result.success:
        raise ArithmeticError("host probe did not converge")
    return elapsed


def percentile(samples, share: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``share``
    of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# --- measured phases --------------------------------------------------------

@dataclass
class Phase:
    samples: list[float] = field(default_factory=list)  # ms per operation
    probes: list[float] = field(default_factory=list)
    probe_of: list[int] = field(default_factory=list)  # probe taken before each sample
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_outputs: dict[str, str] = field(default_factory=dict)
    coverage_gap: float | None = None
    prefix_fits: int = 0  # fits made by the first table call or demo round

    def normalised(self) -> list[float]:
        """Each sample over the mean of the probes taken just before and
        just after it, so that both see the same host speed phase."""
        return [sample / (0.5 * (self.probes[k] + self.probes[k + 1]))
                for sample, k in zip(self.samples, self.probe_of)]

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def call_cli(cli, argv) -> tuple[str, int | None, str, float]:
    """(stdout, exit code or None on an exception, stderr, wall ms)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an operation that crashes is counted, not fatal
            traceback.print_exc(file=err)
        elapsed = 1e3 * (time.perf_counter() - start)
    return out.getvalue(), code, err.getvalue(), elapsed


class RowTimer:
    """Times each table row (one coverage_study call) with a host probe
    before it.  Under tracing the probe is a span of its own, so that no
    layer's self time includes it."""

    def __init__(self, cli, phase: Phase, tracer=None):
        self.cli = cli
        self.phase = phase
        self.tracer = tracer
        self.original = cli.coverage_study

    def __enter__(self):
        self.cli.coverage_study = self._timed
        return self

    def __exit__(self, *exc):
        self.cli.coverage_study = self.original

    def _timed(self, config, workers=1):
        if self.tracer is None:
            self.phase.probes.append(host_probe_ms())
        else:
            span = self.tracer.begin(self.tracer.name_id("host.probe"))
            self.phase.probes.append(host_probe_ms())
            self.tracer.finish(span)
        start = time.perf_counter()
        report = self.original(config, workers=workers)
        self.phase.samples.append(
            1e3 * (time.perf_counter() - start) / config.replications)
        self.phase.probe_of.append(len(self.phase.probes) - 1)
        return report


def run_tables(cli, workload: Workload, seed: int, seconds: float,
               min_samples: int, reference: dict, tracer=None) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    call = 0
    while True:
        text, code, err, _ = call_cli(cli, table_argv(workload.table, seed, call))
        phase.attempted += ROWS_PER_TABLE
        if code != 0:
            phase.fail(ROWS_PER_TABLE, f"call {call} exited {code}: {err.strip()[-300:]}")
        else:
            verdicts = checks.check_table(text, workload.table, REPS_PER_ROW, reference)
            for census, found in verdicts.items():
                if found:
                    phase.fail(1, f"call {call} row t={census}: {'; '.join(found)}")
            if call == 0:
                phase.first_outputs["csv"] = text
                if not any(verdicts.values()):
                    phase.coverage_gap = checks.coverage_gap(text, workload.table, reference)
        if call == 0 and tracer is not None:
            phase.prefix_fits = len(tracer.fits)
        call += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (
                elapsed >= seconds and phase.attempted >= min_samples):
            return phase


def _stable_json(text: str) -> str:
    payload = json.loads(text)
    payload.get("manifest", {}).pop("created_utc", None)
    return json.dumps(payload, sort_keys=True)


def run_demo(cli, seed: int, seconds: float, min_samples: int,
             reference: dict, tracer=None) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    for index, (kind, argv) in enumerate(demo_calls(seed)):
        # a probe per call: calls last milliseconds, and a probe shared by
        # a group of calls left the normalised median unsteady
        phase.probes.append(host_probe_ms())
        if tracer is not None:
            tracer.current_op = index
        text, code, err, elapsed_ms = call_cli(cli, argv)
        phase.attempted += 1
        if index >= DEMO_WARMUP_CALLS:
            phase.samples.append(elapsed_ms)
            phase.probe_of.append(len(phase.probes) - 1)
        if code != 0:
            phase.fail(1, f"call {index} {kind} exited {code}: {err.strip()[-300:]}")
        else:
            try:
                found = checks.check_forecast(kind, json.loads(text), reference)
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable output: {exc!r}"]
            if found:
                phase.fail(1, f"call {index} {kind}: {'; '.join(found)}")
            elif index < len(DEMO_CALLS):
                phase.first_outputs[kind] = _stable_json(text)
        if index == len(DEMO_CALLS) - 1 and tracer is not None:
            phase.prefix_fits = len(tracer.fits)
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (
                elapsed >= seconds and len(phase.samples) >= min_samples):
            return phase


def run_phase(cli, workload, seed, seconds, min_samples, reference, tracer=None):
    if workload.table is None:
        phase = run_demo(cli, seed, seconds, min_samples, reference, tracer)
    else:
        timing = Phase()
        with RowTimer(cli, timing, tracer):
            phase = run_tables(cli, workload, seed, seconds, min_samples, reference, tracer)
        phase.samples, phase.probes, phase.probe_of = (
            timing.samples, timing.probes, timing.probe_of)
    phase.probes.append(host_probe_ms())
    return phase


# --- results ----------------------------------------------------------------

def end_to_end(phase: Phase, workload: Workload, setup: list[float]) -> dict:
    ratios = phase.normalised()
    values = {
        "op_ms_p50_norm": statistics.median(ratios),
        "op_ms_tail_norm": percentile(ratios, workload.tail),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}


def per_layer(tracer, traced: Phase, reference_phase: Phase, workload: Workload,
              steal: float) -> dict:
    totals = tracing.layer_totals(tracer)
    ops = tracer.counts["replications"] if workload.table is not None else traced.attempted
    values = {}
    empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    for span in SPAN_NAMES:
        entry = totals.get(span, empty)
        values[f"{span}.calls_per_op"] = entry["calls"] / ops
        values[f"{span}.ms_per_op"] = entry["total_ms"] / ops
        values[f"{span}.self_ms_per_op"] = entry["self_ms"] / ops
    values["model.TrialData.from_arrays.centres_per_op"] = tracer.counts["centres_built"] / ops
    prefix = tracer.fits[:traced.prefix_fits]
    for path in ("1d", "2d"):
        entry = totals.get(f"model.fit_mle.{path}", empty)
        iterations = [it for p, _, it in prefix if p == path] or [0]
        values[f"model.fit_mle.{path}.ms_per_call"] = entry["total_ms"] / max(1, entry["calls"])
        values[f"model.fit_mle.{path}.iterations_p50"] = statistics.median(iterations)
        values[f"model.fit_mle.{path}.iterations_max"] = max(iterations)
    for outcome in tracing.FIT_OUTCOMES:
        values[f"model.fit.{outcome}"] = sum(1 for _, o, _ in prefix if o == outcome)
    values["model.fit.converged_ratio"] = values["model.fit.ok"] / max(1, len(prefix))
    quantiles = totals.get("distributions.nb_quantile", empty)["calls"]
    values["distributions.nb_cdf.calls_per_quantile"] = (
        tracer.counts["nb_cdf"] / quantiles if quantiles else 0.0)
    values["simulate.coverage_gap_pts"] = traced.coverage_gap or 0.0
    values["host.probe_ms"] = statistics.median(reference_phase.probes)
    values["host.steal_share"] = steal
    values["trace.overhead_ratio"] = (statistics.median(traced.normalised())
                                      / statistics.median(reference_phase.normalised()))
    values["trace.ops"] = ops
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.start[0] if len(tracer) else 0.0
    with open(path, "w") as handle:
        handle.write("name,start_ms,end_ms,parent,op\n")
        for i, name_id in enumerate(tracer.name):
            handle.write(f"{tracer.names[name_id]},{1e3 * (tracer.start[i] - origin):.4f},"
                         f"{1e3 * (tracer.end[i] - origin):.4f},"
                         f"{tracer.parent[i]},{tracer.op[i]}\n")


def emit(label: str, payload: dict) -> None:
    print(f"# {label} {json.dumps(payload, sort_keys=True)}", flush=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = import_cli()
        reference = build_inputs(workload)
        if args.setup_only:
            return 0
        cpu_before = cpu_times()
        emit("host", host_facts())
        setup = measure_setup(args.workload, args.seed)
    except (SetupError, ImportError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2

    if args.trace == 0:
        phase = run_phase(cli, workload, args.seed, args.seconds,
                          workload.min_samples, reference)
        metrics = end_to_end(phase, workload, setup)
        correct = phase.failed == 0
        samples_path = OUT_DIR / f"samples-{args.workload}-seed{args.seed}.json"
        samples_path.parent.mkdir(parents=True, exist_ok=True)
        samples_path.write_text(json.dumps({
            "samples_ms": phase.samples, "probes_ms": phase.probes,
            "probe_before_sample": phase.probe_of}))
        detail = {"samples": len(phase.samples), "tail_percentile": workload.tail,
                  "samples_file": str(samples_path.relative_to(ROOT)),
                  "op_ms_p50": statistics.median(phase.samples),
                  "op_ms_tail": percentile(phase.samples, workload.tail),
                  "sample_quartiles_ms": statistics.quantiles(phase.samples, n=4),
                  "probes": len(phase.probes), "setup_runs_s": setup,
                  "coverage_gap_pts_first_call": phase.coverage_gap}
    else:
        reference_phase = run_phase(cli, workload, args.seed,
                                    args.seconds * TRACE_REFERENCE_SHARE, 0, reference)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = run_phase(cli, workload, args.seed,
                               args.seconds * (1.0 - TRACE_REFERENCE_SHARE), 0,
                               reference, tracer)
        identical = traced.first_outputs == reference_phase.first_outputs
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        write_spans(tracer, spans_path)
        metrics = per_layer(tracer, traced, reference_phase, workload,
                            steal_share(cpu_before, cpu_times()))
        phase = traced
        phase.attempted += reference_phase.attempted
        phase.failed += reference_phase.failed
        phase.problems = reference_phase.problems + phase.problems
        correct = phase.failed == 0 and identical
        detail = {"spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT)),
                  "traced_output_identical": identical,
                  "fits_in_outcome_prefix": traced.prefix_fits}
    detail["steal_share"] = steal_share(cpu_before, cpu_times())
    detail["problems"] = phase.problems
    emit("run", {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "attempted": phase.attempted, "failed": phase.failed, **detail})
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
