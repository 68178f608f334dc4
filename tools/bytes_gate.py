"""Write every output of the bytes gate into one directory.

    PYTHONPATH=src python tools/bytes_gate.py OUTDIR

The gate holds a change that keeps bytes to the outputs of its parent:

- all ten tables at ``--reps 60 --seed 11``;
- tables 2 and 3 at ``--reps 2000``, with ``--threads 1`` and ``2``;
- the figure curves fig1-fig4 and figD1-figD3 at
  ``--reps 300 --seed 5 --grid 41``;
- ``fit`` on both demo files, and ``predict`` on both for each
  objective, plain and ``--adjusted``;
- ``diagnose qq`` on the demo events file at windows 0.25 and 0.5;
- ``simulate --config`` on two cells that no table holds, each written
  into OUTDIR as ``config-<name>.json``: explicit openings under the
  gamma-mixture prior with a count objective, and the split-half
  schedule with a time objective;
- the refusals of ``fit``, ``predict`` and ``diagnose qq``: ``fit`` and
  ``predict`` on summaries with no recruit, with every centre opening
  at the census, and with counts that show no over-dispersion at equal
  and at unequal exposures; ``diagnose qq`` on an under-dispersed events
  log; and all three on the demo events log with its times scaled by
  1e200, whose fit does not converge, which ``fit`` writes with exit 0.
  Their input CSVs are written into OUTDIR, and each call's arguments,
  exit code, stdout and stderr into ``refusals.json`` there.

Each output goes through ``recruitcast.cli.main`` with ``--out``, so the
CSVs come with their ``.manifest.json`` sidecars.  Every ``created_utc``
line is then dropped, sidecars included, since it is the one line a rerun
changes.  The demo files are named without their directory, read from
inside it, so that the manifests of two source trees agree.
``recruitcast`` is imported from ``PYTHONPATH``, so one copy of
this script can run against two source trees; the gate is then

    PYTHONPATH=parent/src python tools/bytes_gate.py parent_out
    PYTHONPATH=src python tools/bytes_gate.py change_out
    diff -r parent_out change_out
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

from recruitcast.cli import main
from recruitcast.datasets import (
    DEMO_EVENTS_CENSUS,
    DEMO_SUMMARY_CENSUS,
    demo_events_path,
    demo_summary_path,
)
from recruitcast.reproduce import FIGURE_IDS, TABLE_IDS

# the count horizon, in time units, and the time horizon, in recruits,
# for each demo file
_DEMO_FILES = {
    "summary": (demo_summary_path(), DEMO_SUMMARY_CENSUS, "0.875", "300"),
    "events": (demo_events_path(), DEMO_EVENTS_CENSUS, "0.5", "300"),
}

# the early windows that ``diagnose qq`` reads off the demo events file
_QQ_WINDOWS = ("0.25", "0.5")

# the cells beside the tables, in the JSON that ``simulate --config`` reads
_CONFIGS = {
    "explicit-mixture-count": {
        "prior": {"kind": "gamma_mixture", "alpha": 2.0, "beta1": 50.0, "beta2": 150.0},
        "centres": 20, "census_time": 100.0,
        "schedule": {"kind": "explicit", "opening_times": [5.0 * i for i in range(20)]},
        "objective": "count", "horizon": 300.0, "replications": 300, "seed": 13},
    "split-half-time": {
        "prior": {"kind": "gamma", "alpha": 2.0, "beta": 150.0},
        "centres": 150, "census_time": 200.0, "schedule": "split_half",
        "objective": "time", "horizon": 200, "replications": 300, "seed": 17},
}

# the inputs that the refusals read, each written into OUTDIR: summary
# rows (centre_id, open_time, count) at census 1
_REFUSED_SUMMARIES = {
    "zero-counts": [("A", 0, 0), ("B", 0, 0), ("C", 0.5, 0)],
    "closed-centres": [("A", 1, 0), ("B", 1, 0)],
    "equal-boundary": [("A", 0, 3), ("B", 0, 3), ("C", 0, 3)],
    "unequal-boundary": [("A", 0, 3), ("B", 0.5, 1), ("C", 0.2, 2)],
}
# six centres open from 0, each recruiting at 0.1 and 0.6: at census 1
# their counts are equal, and the likelihood keeps rising to its boundary
_FLAT_EVENTS = [(centre, 0, time) for centre in "ABCDEF" for time in (0.1, 0.6)]
# the unit of time of the demo events log's scaled copy, whose squared
# exposures pass the float range
_STALLED_SCALE = 1e200


def gate_calls(outdir: Path):
    """(output file name, CLI arguments without ``--out``) for every
    output; a ``--config`` call reads its config from ``outdir``."""
    for table in TABLE_IDS:
        yield f"table-{table}.csv", ["simulate", "--table", table, "--reps", "60",
                                     "--seed", "11"]
    for table in ("2", "3"):
        for threads in ("1", "2"):
            yield f"table-{table}-reps2000-threads{threads}.csv", [
                "simulate", "--table", table, "--reps", "2000", "--threads", threads]
    for figure in FIGURE_IDS:
        yield f"curves-{figure}.csv", ["curves", "--figure", figure, "--reps", "300",
                                       "--seed", "5", "--grid", "41"]
    for layout, (path, census, count_horizon, time_horizon) in _DEMO_FILES.items():
        data = ["--input", path.name, "--format", layout, "--census", str(census)]
        yield f"fit-{layout}.json", ["fit", *data]
        for objective, horizon in (("count", count_horizon), ("time", time_horizon)):
            for extra in ((), ("--adjusted",)):
                name = f"predict-{objective}-{layout}{'-adjusted' if extra else ''}.json"
                yield name, ["predict", *data, "--objective", objective,
                             "--horizon", horizon, *extra]
    path, census = _DEMO_FILES["events"][:2]
    for window in _QQ_WINDOWS:
        yield f"diagnose-qq-events-{window}.csv", [
            "diagnose", "qq", "--input", path.name, "--census", str(census), "--window", window]
    for name in _CONFIGS:
        yield f"simulate-{name}.csv", ["simulate", "--config",
                                       str(outdir / f"config-{name}.json")]


def refusal_calls():
    """CLI arguments of every refusal, and of ``fit`` on the stalled log;
    each input is named as a file in OUTDIR."""
    for name in _REFUSED_SUMMARIES:
        data = ["--input", f"refuse-{name}.csv", "--census", "1"]
        yield ["fit", *data]
        yield ["predict", *data, "--objective", "count", "--horizon", "0.5"]
    yield ["diagnose", "qq", "--input", "refuse-flat-events.csv", "--census", "1",
           "--window", "0.5"]
    census, window = repr(_STALLED_SCALE), repr(0.5 * _STALLED_SCALE)
    data = ["--input", "refuse-stalled-events.csv", "--format", "events", "--census", census]
    yield ["fit", *data, "--out", "fit-stalled-events.json"]
    yield ["predict", *data, "--objective", "count", "--horizon", window]
    yield ["diagnose", "qq", *data, "--window", window]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_refusal_inputs(outdir: Path) -> None:
    for name, rows in _REFUSED_SUMMARIES.items():
        _write_csv(outdir / f"refuse-{name}.csv", ["centre_id", "open_time", "count"], rows)
    events = ["centre_id", "open_time", "event_time"]
    _write_csv(outdir / "refuse-flat-events.csv", events, _FLAT_EVENTS)
    with open(demo_events_path(), newline="") as handle:
        demo = list(csv.reader(handle))[1:]
    _write_csv(outdir / "refuse-stalled-events.csv", events,
               [(centre, repr(float(opened) * _STALLED_SCALE),
                 repr(float(time) * _STALLED_SCALE) if time else "")
                for centre, opened, time in demo])


def record_refusals(outdir: Path) -> None:
    """Run every refusal call from inside ``outdir`` and write each
    call's arguments, exit code, stdout and stderr to refusals.json."""
    records = []
    os.chdir(outdir)
    for argv in refusal_calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        records.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    (outdir / "refusals.json").write_text(json.dumps(records, indent=2) + "\n")


def drop_timestamps(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if '"created_utc"' not in line))


def run(outdir: Path) -> int:
    outdir = outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    for name, config in _CONFIGS.items():
        (outdir / f"config-{name}.json").write_text(json.dumps(config, indent=2) + "\n")
    write_refusal_inputs(outdir)
    record_refusals(outdir)
    os.chdir(demo_summary_path().parent)  # where the demo files are named
    for name, argv in gate_calls(outdir):
        code = main([*argv, "--out", str(outdir / name)])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return code
    for path in sorted(outdir.iterdir()):
        drop_timestamps(path)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
