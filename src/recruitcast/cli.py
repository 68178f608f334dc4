"""Command-line interface.

Subcommands: ``fit`` and ``predict`` read centre-level CSVs and print
JSON; ``simulate`` and ``curves`` emit CSV reproductions of the
published tables and figure curves; ``diagnose qq`` checks the fitted
negative binomial against early-window counts.  Every artifact carries a
run manifest: JSON output embeds it, CSV output starts with a
``# manifest:`` comment (timestamp kept out so reruns are byte-identical)
and ``--out`` additionally writes a timestamped sidecar.

Exit codes: 0 success, 2 data error, 3 degenerate fit, 4 config error.
``fit``, ``predict`` and ``diagnose qq`` take their fit from ``_fit``,
which turns a kind of fit that the command cannot use into its code:
"insufficient" (no recruit, or no open centre) into 2, "boundary" (a
monotone likelihood) into 3, and "nonconverged" into 3 for ``predict``
and ``diagnose qq``.  ``fit`` writes a non-converged fit, with
``"converged": false``, and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import io
import itertools
import json
import math
import sys
from dataclasses import fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .distributions import NegBinParams, nb_quantile
from .model import (
    DegenerateLikelihood,
    ModelFit,
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
    row_labels,
    table_columns,
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


class _RowError(DataError):
    """A fault in one row of a centre CSV, at file line ``line``.  The
    checks raise it with the row's position among the non-empty rows,
    which ``_read_columns`` turns into the line before it leaves."""

    def __init__(self, line: int, detail: str):
        self.line, self.detail = line, detail

    def __str__(self) -> str:
        return f"line {self.line}: {self.detail}"


class MalformedRow(_RowError):
    """A row whose fields cannot be read or do not fit together."""


class EventBeforeOpening(_RowError):
    def __init__(self, line: int, centre: str):
        super().__init__(line, f"event precedes centre {centre!r} opening")


class EventAfterCensus(_RowError):
    def __init__(self, line: int, centre: str):
        super().__init__(line, f"event after census for centre {centre!r}")


class OpeningAfterCensus(_RowError):
    def __init__(self, line: int, centre: str):
        super().__init__(line, f"centre {centre!r} opens after census")


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


def _read_columns(path: str, columns: tuple[str, ...], check, *args):
    """``check(*values, *args)`` for a UTF-8 centre CSV, where ``values``
    holds one tuple per name in ``columns``: that column's field in each
    non-empty row, in file order.

    A leading byte-order mark is dropped.  The header's last mention of a
    column wins; other columns, extra fields and empty lines are ignored.
    A field past the end of a short row reads as None.  ``check`` raises
    a row's fault with the row's index in the tuples as its line, and
    the fault leaves here naming the row's line in the file.  Undecodable
    bytes and rows csv cannot split are data errors, raised once
    ``check`` has passed the rows before them.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    header, rows, failure = None, [], None
    # every row stays alive until it is in a column, so a collection while
    # they are read would scan them all and free none
    collecting = gc.isenabled()
    gc.disable()
    try:
        with handle:
            reader = csv.reader(handle)
            try:
                header = next(reader, None)
                rows.extend(filter(None, reader))  # keeps the rows read before a failure
            except csv.Error as exc:
                failure = DataError(f"{path}: line {reader.line_num}: {exc}")
            except UnicodeDecodeError as exc:
                failure = DataError(f"{path}: {exc}")
        if header is None:
            raise failure or DataError(f"{path} is empty")
        position = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in position]
        if missing:
            raise DataError(f"{path} lacks columns: {', '.join(missing)}")
        if not rows:
            raise failure or DataError(f"{path} holds no centres")
        indexes = [position[c] for c in columns]
        rows[0] += [None] * (max(indexes) + 1 - len(rows[0]))  # zip_longest pads the rest
        table = list(itertools.islice(itertools.zip_longest(*rows), max(indexes) + 1))
        rows.clear()
    finally:
        if collecting:
            gc.enable()
    try:
        result = check(*map(table.__getitem__, indexes), *args)
    except _RowError as fault:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            next(itertools.islice(filter(None, reader), fault.line + 1, None))
            fault.line = reader.line_num
        raise
    if failure is not None:
        raise failure
    return result


def _read_events(path: str, census_time: float):
    """Events CSV -> (ids, openings, centre, offsets), read as columns.

    ``ids`` names the centres in the order they first appear and
    ``openings`` holds their opening times.  ``centre`` and ``offsets``
    hold one entry per event, in file order: the index of its centre in
    ``ids`` and its time from that centre's opening.  A row with a blank
    or missing event_time registers the centre without adding an event,
    which is how centres that never recruited appear in a log.  Nothing
    is grouped or sorted by centre.
    """
    return _read_columns(path, ("centre_id", "open_time", "event_time"), _event_columns,
                         census_time)


def _event_columns(raw_centres, raw_opens, raw_events, census_time: float):
    """``_read_events`` on the log's three columns of raw fields, checked
    in array passes; the first faulty row in file order is then checked
    alone, in the order a row's checks run, to name its fault."""
    # a log repeats its centre's fields on every event row, so each distinct
    # pair of centre_id and open_time fields is checked once, at its first
    # row; ids maps each centre to its index and opening time
    first, ids, fault, end = {}, {}, None, len(raw_centres)
    first_row = np.array(list(map(first.setdefault, zip(raw_centres, raw_opens),
                                  itertools.count())), np.intp)
    centre_at = np.empty(len(raw_centres), np.intp)  # set at each pair's first row
    for row in first.values():
        try:
            centre, open_time = _opening(row, raw_centres[row], raw_opens[row], census_time)
            centre_at[row], first_open = ids.setdefault(centre, (len(ids), open_time))
            if first_open != open_time:
                raise MalformedRow(row, f"centre {centre!r} open_time changed from "
                                        f"{first_open} to {open_time}")
        except _RowError as exc:
            fault, end = exc, row  # no later row is read, as this one is named
            break
    cells = raw_events[:end]
    texts = list(map(str.strip, filter(None, cells)))  # None and "" are blank
    events = np.array(list(itertools.compress(itertools.compress(range(end), cells), texts)),
                      np.intp)
    times = []
    with contextlib.suppress(ValueError):  # then the event at len(times) does not parse
        times.extend(map(float, filter(None, texts)))
    times = np.array(times, float)
    centre = centre_at[first_row[events]]
    opens = np.array([open_time for _, open_time in ids.values()])
    opened = opens[centre[:times.size]]
    bad = np.flatnonzero(~np.isfinite(times) | (times < opened) | (times > census_time)
                         | (opened == census_time))
    stop = bad[0] if bad.size else times.size
    if stop < events.size:  # the first faulty event comes before any faulty opening
        row, name, open_time = int(events[stop]), list(ids)[centre[stop]], opens[centre[stop]]
        event_time = _parse_float(row, raw_events[row].strip(), "event_time")
        raise (EventBeforeOpening(row, name) if event_time < open_time else
               EventAfterCensus(row, name) if event_time > census_time else
               MalformedRow(row, f"centre {name!r} recruited at the census with zero exposure"))
    if fault is not None:
        raise fault
    return tuple(ids), opens, centre, times - opened


def _events_trial(ids: tuple[str, ...], openings, centre, census_time: float) -> TrialData:
    """Trial snapshot from the ``ids``, ``openings`` and ``centre``
    columns of ``_read_events``: count = events logged."""
    return TrialData(census_time, census_time - openings,
                     np.bincount(centre, minlength=len(ids)), ids)


def _summary_trial(raw_centres, raw_opens, raw_counts, census_time: float) -> TrialData:
    """Trial snapshot from a summary file's three columns of raw fields,
    checked row by row."""
    ids, exposures, counts, seen, total = [], [], [], set(), 0
    for line, (centre, raw_open, raw_count) in enumerate(zip(raw_centres, raw_opens, raw_counts)):
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
    return TrialData(census_time, exposures, counts, tuple(ids))


def parse_centre_csv(path: str, fmt: str, census_time: float) -> TrialData:
    """Load a trial snapshot from a summary or events CSV.

    Summary format: one row per centre with centre_id, open_time, count.
    Events format: one row per recruit with centre_id, open_time,
    event_time; blank event_time rows register zero-count centres.
    Exposure is census minus opening in both cases.  Either file is
    UTF-8 with a header row and is read as columns (``_read_columns``):
    a summary's rows are checked one by one, an events log's in array
    passes (``_read_events``).  Either way the first faulty row in file
    order is the one named.
    """
    if not (math.isfinite(census_time) and census_time > 0):
        raise ConfigError(f"census time must be positive and finite, got {census_time}")
    if fmt == "summary":
        return _read_columns(path, ("centre_id", "open_time", "count"), _summary_trial,
                             census_time)
    if fmt == "events":
        return _events_trial(*_read_events(path, census_time)[:3], census_time)
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
        _emit_json(manifest, out + ".manifest.json")
    else:
        sys.stdout.write(text)


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _load_trial(args) -> TrialData:
    return parse_centre_csv(args.input, args.format, args.census)


def _fit_payload(data: TrialData, fit) -> dict:
    """``fit``'s fields by name, with ``equal_exposures`` moved under
    ``ratio_check``, its ``kind`` written as the flags ``converged`` and
    ``degenerate``, and the trial's sizes under ``data``."""
    open_exposures = data.exposures[data.exposures > 0]
    pooled_rate = (data.total_count / (open_exposures.size * open_exposures.mean())
                   if fit.equal_exposures else None)
    payload = dict(vars(fit))  # a copy: vars() is the frozen fit's own __dict__
    kind = payload.pop("kind")
    payload["converged"], payload["degenerate"] = kind == "ok", kind == "boundary"
    payload["data"] = {
        "centres": data.num_centres,
        "open_centres": int(open_exposures.size),
        "total_count": data.total_count,
        "census_time": data.census_time,
    }
    payload["ratio_check"] = {
        "alpha_over_beta": fit.alpha_hat / fit.beta_hat,
        "pooled_event_rate": pooled_rate,
        "equal_exposures": payload.pop("equal_exposures"),
    }
    return payload


def _fit(data: TrialData, usable: tuple[str, ...] = ("ok",)) -> tuple[ModelFit, int]:
    """``fit_mle(data)`` and the command's exit code for it: 0 where the
    fit's kind is ``usable``, and else the code of its kind, with that
    kind's line on stderr."""
    fit = fit_mle(data)
    if fit.kind in usable:
        return fit, EXIT_OK
    opened = data.exposures[data.exposures > 0]
    if fit.kind == "insufficient":
        code, line = EXIT_DATA, ("data error: total recruit count is zero" if opened.size
                                 else "data error: no centre has positive exposure")
    elif fit.kind == "boundary":
        # n / sum(t) as fit_mle takes it: summed over the open centres,
        # divided in Python floats
        ratio = data.total_count / float(opened.sum())
        code, line = EXIT_DEGENERATE, ("degenerate fit: likelihood keeps increasing along "
                                       f"alpha/beta = {ratio:.6g}; counts show no over-dispersion")
    else:
        code, line = EXIT_DEGENERATE, f"fit did not converge after {fit.iterations} steps"
    print(line, file=sys.stderr)
    return fit, code


def _cmd_fit(args) -> int:
    data = _load_trial(args)
    fit, code = _fit(data, usable=("ok", "nonconverged"))
    if code:
        return code
    payload = _fit_payload(data, fit)
    payload["manifest"] = _manifest("fit", {
        "input": args.input, "format": args.format, "census": args.census}, None)
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_predict(args) -> int:
    data = _load_trial(args)
    fit, code = _fit(data)
    if code:
        return code
    pool = pool_centres(data, fit)
    request = PredictionRequest(objective=args.objective, horizon=args.horizon,
                                level=args.level, adjusted=False)
    plain = prediction_interval(pool, request)
    if args.objective == COUNT:
        family, law = "negative_binomial", predictive_count_law(pool, args.horizon)
    else:
        family, law = "pearson6", predictive_time_law(pool, int(args.horizon))
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
        "law": {"family": family, **vars(law)},
        "mean": law_mean,
        "unadjusted": vars(plain),
        "adjusted": None,
    }
    if args.adjusted:
        payload["adjusted"] = vars(prediction_interval(pool, replace(request, adjusted=True)))
    payload["manifest"] = _manifest("predict", {
        "input": args.input, "format": args.format, "census": args.census,
        "objective": args.objective, "horizon": args.horizon,
        "level": args.level, "adjusted": bool(args.adjusted)}, None)
    _emit_json(payload, args.out)
    return EXIT_OK


# JSON kind -> the prior or schedule class it names, for writing and reading
_KINDS = {"gamma": SingleGamma, "gamma_mixture": GammaMixture,
          "simultaneous": Simultaneous, "uniform": UniformOnCensus,
          "split_half": SplitHalf, "explicit": Explicit}
_KIND_NAMES = {cls: kind for kind, cls in _KINDS.items()}
# the SimConfig fields a config file may leave out
_CONFIG_DEFAULTS = {"schedule": "simultaneous", "level": 0.9,
                    "replications": 2000, "seed": DEFAULT_SEED}


def _config_payload(config) -> dict:
    """``config``, a SimConfig or one of its priors or schedules, in the
    JSON schema ``--config`` reads: its fields by name, tuples as lists,
    and a ``"kind"`` for a prior or schedule."""
    payload = {} if isinstance(config, SimConfig) else {"kind": _KIND_NAMES[type(config)]}
    for field in fields(config):
        value = getattr(config, field.name)
        payload[field.name] = (_config_payload(value) if is_dataclass(value)
                               else list(value) if isinstance(value, tuple) else value)
    return payload


# annotated field type -> what its JSON value must be; a union of priors
# or schedules is read by _design_part
_JSON_TYPES = {float: "a number", int: "an integer", str: "a string",
               tuple[float, ...]: "a list of numbers"}


def _field_value(name: str, kind, value):
    """``value`` as the config field ``name`` of annotated type ``kind``
    takes it.  A number is a JSON number, never a boolean or a string,
    and an integer may be written as an integral float such as 2.0."""
    if kind not in _JSON_TYPES:
        return _design_part(name, value, get_args(kind))
    if kind == tuple[float, ...] and isinstance(value, list):
        return tuple(_field_value(f"{name}[{i}]", float, item) for i, item in enumerate(value))
    if kind is str and isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float:
            return float(value)
        if kind is int and (isinstance(value, int) or value.is_integer()):
            return int(value)
    raise ValueError(f"field {name!r} must be {_JSON_TYPES[kind]}, got {value!r}")


def _design_part(name: str, value, choices: tuple[type, ...]):
    """The prior or schedule, one of the classes ``choices``, that
    ``value`` describes: an object whose ``"kind"`` names its class, or a
    bare kind name.  Without a kind, beta1 or beta2 mean a mixture,
    opening_times explicit openings, and anything else a single gamma."""
    raw = {"kind": value} if isinstance(value, str) else value
    if not isinstance(raw, dict):
        raise ValueError(f"field {name!r} must be an object, got {value!r}")
    kind = raw.get("kind", "gamma_mixture" if "beta1" in raw or "beta2" in raw
                   else "explicit" if "opening_times" in raw else "gamma")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls not in choices:
        raise ValueError(f"unknown {name} {value!r}")
    return cls(**_field_values(cls, {key: item for key, item in raw.items() if key != "kind"},
                               name + ".", {}))


def _field_values(cls, raw: dict, prefix: str, defaults: dict) -> dict:
    """The JSON object ``raw`` as keyword arguments of the config class
    ``cls``: each field read by ``_field_value``, a field ``cls`` lacks
    refused by name, and a missing one taken from ``defaults`` or refused."""
    types = get_type_hints(cls)
    for key in raw:
        if key not in types:
            raise ValueError(f"unknown field {prefix + key!r}")
    missing = [name for name in types if name not in raw and name not in defaults]
    if missing:
        raise ValueError(f"missing field {prefix + missing[0]!r}")
    return {name: _field_value(prefix + name, kind, raw.get(name, defaults.get(name)))
            for name, kind in types.items()}


def _load_sim_config(path: str, args) -> SimConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    overrides = {name: value for name, value in (("replications", args.reps),
                                                 ("seed", args.seed)) if value is not None}
    try:
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {raw!r}")
        return SimConfig(**{**_field_values(SimConfig, raw, "", _CONFIG_DEFAULTS), **overrides})
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past the floats
        raise ConfigError(f"bad simulation config: {exc}") from None


def _cmd_simulate(args) -> int:
    if bool(args.table) == bool(args.config):
        raise ConfigError("give exactly one of --table or --config")
    if args.table:
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        layout = reproduction_table(
            args.table, replications=2000 if args.reps is None else args.reps,
            base_seed=seed)
        columns, rows = layout.columns, layout.rows
        described = {"table": args.table,
                     "rows": [_config_payload(config) for _, config in rows]}
    else:
        config = _load_sim_config(args.config, args)
        seed = config.seed
        columns = (table_columns(config.objective, staggered=True)
                   + ("replications", "degenerate_fits"))
        rows = ((row_labels(config), config),)
        described = {"config": _config_payload(config)}
    manifest = _manifest("simulate", described, seed)
    lines = []
    for labels, config in rows:
        report = coverage_study(config, workers=args.threads)
        cells = {**labels, **vars(report)}
        lines.append([_fmt(cells[c]) for c in columns])
    _emit_csv(list(columns), lines, manifest, args.out)
    return EXIT_OK


def _cmd_curves(args) -> int:
    curve = figure_curve(args.figure, t=args.t, centres=args.centres,
                         replications=20000 if args.reps is None else args.reps,
                         seed=args.seed if args.seed is not None else DEFAULT_SEED,
                         grid_size=args.grid)
    empirical = None
    degenerate = 0
    if curve.config is not None:
        sample = quantile_probability_study(curve.config, curve.p,
                                            workers=args.threads)
        degenerate = sample.degenerate_fits
        empirical = kernel_density(sample.values, curve.grid)
    manifest = _manifest("curves", {
        "figure": args.figure, "p": curve.p, "sweep": curve.sweep,
        "law": vars(curve.law),
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
    ids, openings, centre, offsets = _read_events(args.input, args.census)
    in_window = np.bincount(centre[offsets <= args.window], minlength=len(ids))
    window_counts = np.sort(in_window[args.census - openings >= args.window]).tolist()
    m = len(window_counts)
    if m < 5:
        raise DataError(f"only {m} centres exposed for the full window; need 5")
    fit, code = _fit(_events_trial(ids, openings, centre, args.census))
    if code:
        return code
    law = NegBinParams(size=fit.alpha_hat,
                       prob=args.window / (fit.beta_hat + args.window))
    theoretical = nb_quantile((np.arange(1, m + 1) - 0.5) / m, law)
    rows = [[_fmt(k), _fmt(observed)] for k, observed in zip(theoretical.tolist(), window_counts)]
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
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DegenerateLikelihood as exc:  # a study that no replication could score
        print(f"degenerate fit: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
