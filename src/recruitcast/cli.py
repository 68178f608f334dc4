"""Command-line interface.

Subcommands: ``fit`` and ``predict`` read centre-level CSVs and print
JSON; ``simulate`` and ``curves`` emit CSV reproductions of the
published tables and figure curves; ``diagnose qq`` checks the fitted
negative binomial against early-window counts.  Every artifact carries a
run manifest: JSON output embeds it, CSV output starts with a
``# manifest:`` comment (timestamp kept out so reruns are byte-identical)
and ``--out`` additionally writes a timestamped sidecar.

Exit codes: 0 success, 2 data error, 3 degenerate fit, 4 config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import operator
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import NegBinParams, nb_quantile
from .model import (
    DegenerateLikelihood,
    InsufficientData,
    TrialData,
    fit_mle,
)
from .predict import (
    COUNT,
    TIME,
    PredictionRequest,
    pool_centres,
    prediction_interval,
    predictive_count_law,
    predictive_time_law,
)
from .reproduce import (
    DEFAULT_SEED,
    FIGURE_IDS,
    MAX_GRID_SIZE,
    TABLE_IDS,
    check_grid_size,
    figure_curve,
    reproduction_table,
)
from .simulate import (
    Explicit,
    GammaMixture,
    SimConfig,
    Simultaneous,
    SingleGamma,
    SplitHalf,
    UniformOnCensus,
    coverage_study,
    kernel_density,
    quantile_probability_study,
)

__all__ = [
    "main",
    "parse_centre_csv",
    "DataError",
    "ConfigError",
    "MalformedRow",
    "EventBeforeOpening",
    "EventAfterCensus",
    "OpeningAfterCensus",
]

EXIT_OK = 0
EXIT_DATA = 2
EXIT_DEGENERATE = 3
EXIT_CONFIG = 4

# TrialData stores counts, and sums them, in int64
_MAX_COUNT = int(np.iinfo(np.int64).max)


class DataError(Exception):
    """Input data cannot be used."""


class MalformedRow(DataError):
    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line


class EventBeforeOpening(DataError):
    def __init__(self, line: int, centre: str):
        super().__init__(f"line {line}: event precedes centre {centre!r} opening")
        self.line = line


class EventAfterCensus(DataError):
    def __init__(self, line: int, centre: str):
        super().__init__(f"line {line}: event after census for centre {centre!r}")
        self.line = line


class OpeningAfterCensus(DataError):
    def __init__(self, line: int, centre: str):
        super().__init__(f"line {line}: centre {centre!r} opens after census")
        self.line = line


class ConfigError(Exception):
    """Arguments or configuration files are invalid."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors map to exit code 4."""

    def error(self, message):
        raise ConfigError(message)


def _parse_float(line: int, raw: str | None, column: str) -> float:
    if raw is None:
        raise MalformedRow(line, f"missing {column}")
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(line, f"cannot parse {column} {raw!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line, f"{column} must be finite, got {raw!r}")
    return value


def _opening(line: int, centre: str | None, raw_open: str | None,
             census_time: float) -> tuple[str, float]:
    """A row's centre id and opening time; refuses a blank id, then an
    opening time that does not parse, is negative or follows the census."""
    centre = (centre or "").strip()
    if not centre:
        raise MalformedRow(line, "blank centre_id")
    open_time = _parse_float(line, raw_open, "open_time")
    if open_time < 0:
        raise MalformedRow(line, f"negative open_time {open_time}")
    if open_time > census_time:
        raise OpeningAfterCensus(line, centre)
    return centre, open_time


def _read_rows(path: str, columns: tuple[str, ...]):
    """Yield (line number, fields) for each row of a UTF-8 centre CSV,
    with ``fields`` the row's values of ``columns`` in that order.

    The header's last mention of a column wins; other columns, extra
    fields and empty lines are ignored.  A field past the end of a short
    row reads as None.  Undecodable bytes and rows csv cannot split are
    data errors.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path} is empty")
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in columns if c not in position]
            if missing:
                raise DataError(f"{path} lacks columns: {', '.join(missing)}")
            indexes = [position[c] for c in columns]
            select = operator.itemgetter(*indexes)
            width = max(indexes) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [None] * (width - len(row))
                yield reader.line_num, select(row)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None


def _read_events(path: str, census_time: float) -> dict[str, tuple[float, list[float]]]:
    """Events CSV -> {centre: (open_time, sorted event offsets from opening)}.

    A row with a blank or missing event_time registers the centre without
    adding an event, which is how centres that never recruited appear in
    a log.
    """
    centres: dict[str, tuple[float, list[float]]] = {}
    # a log repeats its centre's fields on every event row, so each distinct
    # pair of centre_id and open_time fields is checked once
    checked: dict[tuple, tuple[str, float, list[float]]] = {}
    for line, (raw_centre, raw_open, raw_event) in _read_rows(
            path, ("centre_id", "open_time", "event_time")):
        known = checked.get((raw_centre, raw_open))
        if known is None:
            centre, open_time = _opening(line, raw_centre, raw_open, census_time)
            entry = centres.setdefault(centre, (open_time, []))
            if entry[0] != open_time:
                raise MalformedRow(
                    line, f"centre {centre!r} open_time changed from "
                    f"{entry[0]} to {open_time}")
            known = checked[raw_centre, raw_open] = centre, open_time, entry[1]
        centre, open_time, offsets = known
        raw_event = (raw_event or "").strip()
        if raw_event == "":
            continue
        event_time = _parse_float(line, raw_event, "event_time")
        if event_time < open_time:
            raise EventBeforeOpening(line, centre)
        if event_time > census_time:
            raise EventAfterCensus(line, centre)
        if open_time == census_time:
            raise MalformedRow(
                line, f"centre {centre!r} recruited at the census with zero exposure")
        offsets.append(event_time - open_time)
    if not centres:
        raise DataError(f"{path} holds no centres")
    for open_time, offsets in centres.values():
        offsets.sort()
    return centres


def _events_trial(centres: dict[str, tuple[float, list[float]]],
                  census_time: float) -> TrialData:
    """Trial snapshot from ``_read_events`` output: count = events logged."""
    return TrialData(census_time,
                     [census_time - opened for opened, _ in centres.values()],
                     [len(offsets) for _, offsets in centres.values()], tuple(centres))


def parse_centre_csv(path: str, fmt: str, census_time: float) -> TrialData:
    """Load a trial snapshot from a summary or events CSV.

    Summary format: one row per centre with centre_id, open_time, count.
    Events format: one row per recruit with centre_id, open_time,
    event_time; blank event_time rows register zero-count centres.
    Exposure is census minus opening in both cases.  Either file is
    UTF-8 with a header row; see ``_read_rows`` for how columns are found.
    """
    if not (math.isfinite(census_time) and census_time > 0):
        raise ConfigError(f"census time must be positive and finite, got {census_time}")
    if fmt == "summary":
        ids, exposures, counts = [], [], []
        seen = set()
        total = 0
        for line, (centre, raw_open, raw_count) in _read_rows(
                path, ("centre_id", "open_time", "count")):
            centre = (centre or "").strip()
            if centre in seen:  # a blank id never gets here twice: _opening refuses it
                raise MalformedRow(line, f"duplicate centre {centre!r}")
            seen.add(centre)
            centre, open_time = _opening(line, centre, raw_open, census_time)
            raw_count = (raw_count or "").strip()
            try:
                count = int(raw_count)
            except ValueError:
                raise MalformedRow(line, f"cannot parse count {raw_count!r}") from None
            if count < 0:
                raise MalformedRow(line, f"negative count {count}")
            total += count
            if total > _MAX_COUNT:
                raise MalformedRow(line, f"count {count} takes the total past the "
                                   f"int64 maximum {_MAX_COUNT}")
            exposure = census_time - open_time
            if exposure == 0 and count > 0:
                raise MalformedRow(
                    line, f"centre {centre!r} recruited {count} with zero exposure")
            ids.append(centre)
            exposures.append(exposure)
            counts.append(count)
        if not ids:
            raise DataError(f"{path} holds no centres")
        return TrialData(census_time, exposures, counts, tuple(ids))
    if fmt == "events":
        return _events_trial(_read_events(path, census_time), census_time)
    raise ConfigError(f"unknown format {fmt!r}; expected summary or events")


def _manifest(command: str, config: dict, seed: int | None) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _manifest_comment(manifest: dict) -> str:
    stable = {k: manifest[k] for k in ("command", "config", "seed", "version")}
    return "# manifest: " + json.dumps(stable, sort_keys=True)


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header: list[str], rows: list[list[str]], manifest: dict,
              out: str | None) -> None:
    buffer = io.StringIO()
    buffer.write(_manifest_comment(manifest) + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if out:
        Path(out).write_text(text)
        Path(out + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _load_trial(args) -> TrialData:
    return parse_centre_csv(args.input, args.format, args.census)


def _fit_payload(data: TrialData, fit) -> dict:
    open_exposures = data.exposures[data.exposures > 0]
    pooled_rate = (data.total_count / (open_exposures.size * open_exposures.mean())
                   if fit.equal_exposures else None)
    return {
        "alpha_hat": fit.alpha_hat,
        "beta_hat": fit.beta_hat,
        "log_lik": fit.log_lik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "degenerate": fit.degenerate,
        "data": {
            "centres": data.num_centres,
            "open_centres": int(open_exposures.size),
            "total_count": data.total_count,
            "census_time": data.census_time,
        },
        "ratio_check": {
            "alpha_over_beta": fit.alpha_hat / fit.beta_hat,
            "pooled_event_rate": pooled_rate,
            "equal_exposures": fit.equal_exposures,
        },
    }


def _cmd_fit(args) -> int:
    data = _load_trial(args)
    fit = fit_mle(data)
    payload = _fit_payload(data, fit)
    payload["manifest"] = _manifest("fit", {
        "input": args.input, "format": args.format, "census": args.census}, None)
    _emit_json(payload, args.out)
    return EXIT_OK


def _refuse_stalled_fit(fit) -> int:
    print(f"fit did not converge after {fit.iterations} steps", file=sys.stderr)
    return EXIT_DEGENERATE


def _interval_payload(interval) -> dict:
    return {
        "lower": interval.lower,
        "upper": interval.upper,
        "nominal_level": interval.nominal_level,
        "probs_used": list(interval.probs_used),
    }


def _cmd_predict(args) -> int:
    data = _load_trial(args)
    fit = fit_mle(data)
    if not fit.converged:
        return _refuse_stalled_fit(fit)
    pool = pool_centres(data, fit)
    request = PredictionRequest(objective=args.objective, horizon=args.horizon,
                                level=args.level, adjusted=False)
    plain = prediction_interval(pool, fit, request)
    if args.objective == COUNT:
        law = predictive_count_law(pool, args.horizon)
        law_payload = {"family": "negative_binomial", "size": law.size, "prob": law.prob}
    else:
        law = predictive_time_law(pool, int(args.horizon))
        law_payload = {"family": "pearson6", "shape_num": law.shape_num,
                       "shape_den": law.shape_den, "scale": law.scale}
    try:
        law_mean = law.mean
    except ValueError:
        law_mean = None
    payload = {
        "objective": args.objective,
        "horizon": args.horizon,
        "level": args.level,
        "fit": {"alpha_hat": fit.alpha_hat, "beta_hat": fit.beta_hat},
        "pooled": {"n_star": pool.n_star, "t_star": pool.t_star,
                   "shape": pool.shape, "rate": pool.rate},
        "law": law_payload,
        "mean": law_mean,
        "unadjusted": _interval_payload(plain),
        "adjusted": None,
    }
    if args.adjusted:
        widened = prediction_interval(pool, fit, replace(request, adjusted=True))
        payload["adjusted"] = _interval_payload(widened)
    payload["manifest"] = _manifest("predict", {
        "input": args.input, "format": args.format, "census": args.census,
        "objective": args.objective, "horizon": args.horizon,
        "level": args.level, "adjusted": bool(args.adjusted)}, None)
    _emit_json(payload, args.out)
    return EXIT_OK


def _prior_payload(prior) -> dict:
    if isinstance(prior, SingleGamma):
        return {"kind": "gamma", "alpha": prior.alpha, "beta": prior.beta}
    return {"kind": "gamma_mixture", "alpha": prior.alpha,
            "beta1": prior.beta1, "beta2": prior.beta2}


def _schedule_payload(schedule) -> dict:
    if isinstance(schedule, Simultaneous):
        return {"kind": "simultaneous"}
    if isinstance(schedule, UniformOnCensus):
        return {"kind": "uniform"}
    if isinstance(schedule, SplitHalf):
        return {"kind": "split_half"}
    return {"kind": "explicit", "opening_times": list(schedule.opening_times)}


def _config_payload(config: SimConfig) -> dict:
    return {
        "prior": _prior_payload(config.prior),
        "centres": config.centres,
        "census_time": config.census_time,
        "schedule": _schedule_payload(config.schedule),
        "objective": config.objective,
        "horizon": config.horizon,
        "level": config.level,
        "replications": config.replications,
        "seed": config.seed,
    }


def _parse_prior(raw: dict):
    try:
        if "beta1" in raw or "beta2" in raw:
            return GammaMixture(float(raw["alpha"]), float(raw["beta1"]),
                                float(raw["beta2"]))
        return SingleGamma(float(raw["alpha"]), float(raw["beta"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad prior specification: {exc}") from None


def _parse_schedule(raw):
    if isinstance(raw, dict) and "opening_times" in raw:
        return Explicit(tuple(float(t) for t in raw["opening_times"]))
    kinds = {"simultaneous": Simultaneous, "uniform": UniformOnCensus,
             "split_half": SplitHalf}
    kind = raw.get("kind") if isinstance(raw, dict) else raw
    if kind not in kinds:
        raise ConfigError(f"unknown schedule {raw!r}")
    return kinds[kind]()


def _config_integer(raw: dict, field: str, default=None) -> int:
    """An integer field of a config file; 2.0 passes, 2.7, true and "2" do not."""
    value = raw[field] if default is None else raw.get(field, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {field!r} must be an integer, got {value!r}")
    return value


def _load_sim_config(path: str, args) -> SimConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    try:
        config = SimConfig(
            prior=_parse_prior(raw["prior"]),
            centres=_config_integer(raw, "centres"),
            census_time=float(raw["census_time"]),
            schedule=_parse_schedule(raw.get("schedule", "simultaneous")),
            objective=str(raw["objective"]),
            horizon=float(raw["horizon"]),
            level=float(raw.get("level", 0.9)),
            replications=(_config_integer(raw, "replications", 2000) if args.reps is None
                          else args.reps),
            seed=(_config_integer(raw, "seed", DEFAULT_SEED) if args.seed is None
                  else args.seed),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad simulation config: {exc}") from None
    return config


def _report_cells(report) -> dict:
    return {
        "t_star": report.mean_t_star,
        "t_star_ratio": report.t_star_ratio,
        "n_star_ratio": report.n_star_ratio,
        "coverage_unadjusted": report.coverage_unadjusted,
        "width_unadjusted": report.width_unadjusted,
        "coverage_adjusted": report.coverage_adjusted,
        "width_adjusted": report.width_adjusted,
        "replications": report.replications,
        "degenerate_fits": report.degenerate_fits,
    }


def _cmd_simulate(args) -> int:
    if bool(args.table) == bool(args.config):
        raise ConfigError("give exactly one of --table or --config")
    if args.table:
        if args.table not in TABLE_IDS:
            raise ConfigError(
                f"unknown table {args.table!r}; expected one of {', '.join(TABLE_IDS)}")
        layout = reproduction_table(
            args.table, replications=2000 if args.reps is None else args.reps,
            base_seed=args.seed if args.seed is not None else DEFAULT_SEED)
        manifest = _manifest("simulate", {
            "table": args.table,
            "rows": [_config_payload(cfg) for _, cfg in layout.rows]},
            args.seed if args.seed is not None else DEFAULT_SEED)
        rows = []
        for labels, config in layout.rows:
            report = coverage_study(config, workers=args.threads)
            cells = {**labels, **_report_cells(report)}
            rows.append([_fmt(cells[c]) for c in layout.columns])
        _emit_csv(list(layout.columns), rows, manifest, args.out)
        return EXIT_OK
    config = _load_sim_config(args.config, args)
    report = coverage_study(config, workers=args.threads)
    label = "t_plus" if config.objective == COUNT else "n_plus"
    columns = ["t", label, "t_star", "t_star_ratio", "n_star_ratio",
               "coverage_unadjusted", "width_unadjusted",
               "coverage_adjusted", "width_adjusted",
               "replications", "degenerate_fits"]
    cells = {"t": config.census_time, label: config.horizon,
             **_report_cells(report)}
    manifest = _manifest("simulate", {"config": _config_payload(config)}, config.seed)
    _emit_csv(columns, [[_fmt(cells[c]) for c in columns]], manifest, args.out)
    return EXIT_OK


def _cmd_curves(args) -> int:
    if args.figure not in FIGURE_IDS:
        raise ConfigError(
            f"unknown figure {args.figure!r}; expected one of {', '.join(FIGURE_IDS)}")
    try:
        curve = figure_curve(args.figure, t=args.t, centres=args.centres,
                             replications=20000 if args.reps is None else args.reps,
                             seed=args.seed if args.seed is not None else DEFAULT_SEED,
                             grid_size=args.grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    empirical = None
    degenerate = 0
    if curve.config is not None:
        sample = quantile_probability_study(curve.config, curve.p,
                                            workers=args.threads)
        degenerate = sample.degenerate_fits
        empirical = kernel_density(sample.values, curve.grid)
    manifest = _manifest("curves", {
        "figure": args.figure, "p": curve.p, "sweep": curve.sweep,
        "law": {"c": curve.law.c, "d": curve.law.d, "objective": curve.law.objective},
        "config": _config_payload(curve.config) if curve.config else None,
        "degenerate_fits": degenerate,
        "grid_size": args.grid},
        args.seed if args.seed is not None else DEFAULT_SEED)
    rows = []
    for i, w in enumerate(curve.grid):
        row = [_fmt(w), _fmt(curve.theoretical[i])]
        row.append(_fmt(empirical[i]) if empirical is not None else "")
        rows.append(row)
    _emit_csv(["w", "theoretical_density", "empirical_density"], rows,
              manifest, args.out)
    return EXIT_OK


def _cmd_diagnose_qq(args) -> int:
    if args.format != "events":
        raise ConfigError("the qq diagnostic needs per-event data (--format events)")
    if not args.window > 0:
        raise ConfigError(f"window must be positive, got {args.window}")
    if args.window > args.census:
        raise ConfigError("window cannot exceed the census time")
    centres = _read_events(args.input, args.census)
    window_counts = sorted(
        sum(1 for offset in offsets if offset <= args.window)
        for cid, (opened, offsets) in centres.items()
        if args.census - opened >= args.window)
    m = len(window_counts)
    if m < 5:
        raise DataError(f"only {m} centres exposed for the full window; need 5")
    fit = fit_mle(_events_trial(centres, args.census))
    if not fit.converged:
        return _refuse_stalled_fit(fit)
    law = NegBinParams(size=fit.alpha_hat,
                       prob=args.window / (fit.beta_hat + args.window))
    rows = []
    for i, observed in enumerate(window_counts, start=1):
        theoretical = nb_quantile((i - 0.5) / m, law)
        rows.append([_fmt(theoretical), _fmt(observed)])
    manifest = _manifest("diagnose qq", {
        "input": args.input, "census": args.census, "window": args.window,
        "fit": {"alpha_hat": fit.alpha_hat, "beta_hat": fit.beta_hat},
        "centres_used": m}, None)
    _emit_csv(["theoretical_quantile", "empirical_quantile"], rows,
              manifest, args.out)
    return EXIT_OK


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None


def _worker_count(raw: str) -> int:
    value = _integer(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _grid_size(raw: str) -> int:
    try:
        return check_grid_size(_integer(raw))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _census_time(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        # argparse's own wording for a type=float argument
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw!r}")
    return value


def _add_input_arguments(parser) -> None:
    parser.add_argument("--input", required=True, help="centre-level CSV")
    parser.add_argument("--format", choices=("summary", "events"),
                        default="summary", help="input layout")
    parser.add_argument("--census", type=_census_time, required=True,
                        help="census time the data were cut at")
    parser.add_argument("--out", default=None, help="write here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    argparse never changes a parser once built: each ``parse_args`` fills
    a fresh namespace, help text is formatted only when asked for, and
    ``_Parser.error`` raises without touching any state.  So every call
    of ``main`` parses exactly as with a parser of its own.  The ``func``
    defaults bind the ``_cmd_*`` functions as they were at the first build.
    """
    parser = _Parser(prog="recruitcast",
                     description="Poisson-Gamma recruitment forecasting")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit (alpha, beta) to a trial snapshot")
    _add_input_arguments(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="prediction interval for future recruitment")
    _add_input_arguments(p_pred)
    p_pred.add_argument("--objective", choices=(COUNT, TIME), required=True)
    p_pred.add_argument("--horizon", type=float, required=True,
                        help="extra time (count) or target recruits (time)")
    p_pred.add_argument("--level", type=float, default=0.9)
    p_pred.add_argument("--adjusted", action="store_true",
                        help="also report the widened interval")
    p_pred.set_defaults(func=_cmd_predict)

    p_sim = sub.add_parser("simulate", help="coverage study (published table or config)")
    p_sim.add_argument("--table", default=None,
                       help=f"published table id: {', '.join(TABLE_IDS)}")
    p_sim.add_argument("--config", default=None, help="JSON simulation config")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--reps", type=int, default=None,
                       help="replications per row (default 2000)")
    p_sim.add_argument("--threads", type=_worker_count, default=1,
                       help="worker processes, at most one per CPU; "
                       "results do not depend on this")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cur = sub.add_parser("curves", help="limit-density curves behind the figures")
    p_cur.add_argument("--figure", required=True,
                       help=f"figure id: {', '.join(FIGURE_IDS)}")
    p_cur.add_argument("--t", type=float, default=None, help="census time sweep value")
    p_cur.add_argument("--centres", type=int, default=None, help="centre count sweep value")
    p_cur.add_argument("--reps", type=int, default=None,
                       help="replications for the empirical density (default 20000)")
    p_cur.add_argument("--seed", type=int, default=None)
    p_cur.add_argument("--grid", type=_grid_size, default=401,
                       help=f"grid points on (0, 1), 2 to {MAX_GRID_SIZE}")
    p_cur.add_argument("--threads", type=_worker_count, default=1,
                       help="worker processes, at most one per CPU")
    p_cur.add_argument("--out", default=None)
    p_cur.set_defaults(func=_cmd_curves)

    p_diag = sub.add_parser("diagnose", help="model diagnostics")
    diag_sub = p_diag.add_subparsers(dest="diagnostic", required=True)
    p_qq = diag_sub.add_parser("qq", help="early-window counts vs fitted law")
    _add_input_arguments(p_qq)
    p_qq.set_defaults(format="events")
    p_qq.add_argument("--window", type=float, required=True,
                      help="initial window length per centre")
    p_qq.set_defaults(func=_cmd_diagnose_qq)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, InsufficientData) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DegenerateLikelihood as exc:
        print(f"degenerate fit: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
