"""Spans around recruitcast's public functions, recorded from outside.

``traced(tracer)`` replaces each traced function at every module
attribute of the package that holds it, which is where its callers look
it up, and puts the originals back on exit.  Nothing inside the package
changes.  Spans live in compact arrays until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "recruitcast"
# The equal-exposure rule the fitter uses to choose its 1-D path.
RELATIVE_EXPOSURE_TOL = 1e-12

# (module, function) -> span name, for functions traced as plain spans.
PLAIN_SPANS = {
    ("cli", "main"): "cli.main",
    ("cli", "build_parser"): "cli.build_parser",
    ("predict", "pool_centres"): "predict.pool_centres",
    ("predict", "prediction_interval"): "predict.prediction_interval",
    ("distributions", "nb_quantile"): "distributions.nb_quantile",
    ("distributions", "pearson6_quantile"): "distributions.pearson6_quantile",
    ("simulate", "exact_coverage"): "simulate.exact_coverage",
}
FIT_OUTCOMES = ("ok", "boundary", "nonconverged", "insufficient")


class Tracer:
    """Spans (name, start, end, parent, operation id) and layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._open: list[int] = []
        self.current_op = -1
        self.counts: dict[str, int] = defaultdict(int)
        # one (path, outcome, iterations) per fit_mle call, in call order
        self.fits: list[tuple[str, str, int]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.current_op)
        self.end.append(math.nan)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.start)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another or reach past their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    own = [e - s for s, e in zip(starts, ends)]
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=lambda i: starts[i]):
            s, e = max(starts[kid], lo), min(ends[kid], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        own[parent] -= covered
    return own


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ms and self ms."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    totals: dict[str, dict[str, float]] = {}
    for index, name_id in enumerate(tracer.name):
        entry = totals.setdefault(tracer.names[name_id],
                                  {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += 1e3 * (tracer.end[index] - tracer.start[index])
        entry["self_ms"] += 1e3 * own[index]
    return totals


def fit_path(data) -> str:
    """'1d' when every open centre shares one exposure, else '2d'."""
    open_exposures = data.exposures[data.exposures > 0]
    equal = (open_exposures.size > 0
             and open_exposures.max() - open_exposures.min()
             <= RELATIVE_EXPOSURE_TOL * open_exposures.max())
    return "1d" if equal else "2d"


def _span(tracer, original, name):
    name_id = tracer.name_id(name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name_id)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.finish(index)
    return wrapper


def _parse_span(tracer, original):
    ids = {fmt: tracer.name_id(f"cli.parse_centre_csv.{fmt}")
           for fmt in ("summary", "events")}

    @functools.wraps(original)
    def wrapper(path, fmt, census_time):
        index = tracer.begin(ids.get(fmt, ids["summary"]))
        try:
            return original(path, fmt, census_time)
        finally:
            tracer.finish(index)
    return wrapper


def _coverage_span(tracer, original):
    name_id = tracer.name_id("simulate.coverage_study")

    @functools.wraps(original)
    def wrapper(config, *args, **kwargs):
        tracer.counts["replications"] += config.replications
        index = tracer.begin(name_id)
        try:
            return original(config, *args, **kwargs)
        finally:
            tracer.finish(index)
    return wrapper


def _trial_span(tracer, original):
    name_id = tracer.name_id("simulate.generate_trial")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.current_op += 1  # each replication draws exactly one trial
        index = tracer.begin(name_id)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.finish(index)
    return wrapper


def _fit_span(tracer, original, model):
    ids = {path: tracer.name_id(f"model.fit_mle.{path}") for path in ("1d", "2d")}

    @functools.wraps(original)
    def wrapper(data, *args, **kwargs):
        index = tracer.begin(ids["2d"])
        outcome, iterations = "error", 0
        try:
            fit = original(data, *args, **kwargs)
            outcome = "ok" if fit.converged else "nonconverged"
            iterations = fit.iterations
            return fit
        except model.InsufficientData:
            outcome = "insufficient"
            raise
        except model.DegenerateLikelihood as exc:
            outcome = "boundary"
            iterations = exc.fit.iterations if exc.fit is not None else 0
            raise
        finally:
            tracer.finish(index)
            # classified after the call so the fitter, not the wrapper,
            # pays for building the exposure array
            path = fit_path(data)
            tracer.name[index] = ids[path]
            tracer.fits.append((path, outcome, iterations))
    return wrapper


def _counter(tracer, original, key):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return original(*args, **kwargs)
    return wrapper


def _from_arrays_span(tracer, original_function):
    name_id = tracer.name_id("model.TrialData.from_arrays")

    def from_arrays(cls, census_time, exposures, counts, ids=None):
        tracer.counts["centres_built"] += len(exposures)
        index = tracer.begin(name_id)
        try:
            return original_function(cls, census_time, exposures, counts, ids)
        finally:
            tracer.finish(index)
    return classmethod(from_arrays)


def package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Record spans for the package's traced functions inside the block."""
    modules = {name: sys.modules[f"{PACKAGE}.{name}"]
               for name in ("cli", "model", "simulate", "predict", "distributions")}
    model = modules["model"]
    wrappers = {}
    for (home, attr), name in PLAIN_SPANS.items():
        original = getattr(modules[home], attr)
        wrappers[original] = (attr, _span(tracer, original, name))
    for home, attr, make in (
            ("cli", "parse_centre_csv", lambda f: _parse_span(tracer, f)),
            ("simulate", "coverage_study", lambda f: _coverage_span(tracer, f)),
            ("simulate", "generate_trial", lambda f: _trial_span(tracer, f)),
            ("model", "fit_mle", lambda f: _fit_span(tracer, f, model)),
            ("distributions", "nb_cdf", lambda f: _counter(tracer, f, "nb_cdf"))):
        original = getattr(modules[home], attr)
        wrappers[original] = (attr, make(original))

    undo = []
    try:
        for module in package_modules():
            for original, (attr, wrapper) in wrappers.items():
                if vars(module).get(attr) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        trial_data = model.TrialData
        undo.append((trial_data, "from_arrays", vars(trial_data)["from_arrays"]))
        trial_data.from_arrays = _from_arrays_span(
            tracer, vars(trial_data)["from_arrays"].__func__)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
