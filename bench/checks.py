"""Output checks for every benchmark operation.

A table operation is one row of ``recruitcast simulate --table`` CSV
output, checked cell by cell against the published table with a
tolerance that widens with the Monte-Carlo error of the replication
count.  A forecast operation is one ``fit`` or ``predict`` call on the
demo trial, checked against reference fits and intervals.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
COVERAGE_COLUMNS = ("coverage_unadjusted", "coverage_adjusted")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def parse_table_csv(text: str) -> dict[str, dict[str, float]]:
    """CSV body of a simulate run -> {census label: {column: value}}."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = {}
    for record in csv.DictReader(io.StringIO("\n".join(lines))):
        values = {column: float(raw) for column, raw in record.items()}
        rows[format(values["t"], "g")] = values
    return rows


def cell_tolerance(reference: dict, column: str, published: float,
                   replication_sd: float, replications: int) -> float:
    kind, base = reference["base_tolerance"][column]
    if kind == "rel":
        base *= abs(published)
    return base + reference["z"] * replication_sd / math.sqrt(replications)


def check_table(text: str, table_id: str, replications: int,
                reference: dict) -> dict[str, list[str]]:
    """Problems per published row (an empty list means the row passed)."""
    expected = reference["tables"][table_id]
    try:
        rows = parse_table_csv(text)
    except (KeyError, ValueError) as exc:
        return {census: [f"unreadable output: {exc}"] for census in expected}
    problems = {}
    for census, cells in expected.items():
        row = rows.get(census)
        if row is None:
            problems[census] = ["row missing"]
            continue
        found = []
        for column, (published, sd) in cells.items():
            value = row.get(column)
            if value is None or not math.isfinite(value):
                found.append(f"{column} is {value}")
                continue
            tol = cell_tolerance(reference, column, published, sd, replications)
            if abs(value - published) > tol:
                found.append(f"{column} {value:.4g} vs published {published} (tol {tol:.3g})")
        problems[census] = found
    return problems


def coverage_gap(text: str, table_id: str, reference: dict) -> float:
    """Largest |measured - published| coverage, in points, over rows and
    both the plain and the adjusted column."""
    rows = parse_table_csv(text)
    return max(abs(rows[census][column] - cells[column][0])
               for census, cells in reference["tables"][table_id].items()
               for column in COVERAGE_COLUMNS)


def _interval_problems(name: str, got, want, is_count: bool, demo: dict) -> list[str]:
    if got is None:
        return [f"{name} interval missing"]
    lower, upper = got["lower"], got["upper"]
    if not (math.isfinite(lower) and math.isfinite(upper)):
        return [f"{name} interval not finite: [{lower}, {upper}]"]
    found = []
    if lower > upper:
        found.append(f"{name} interval reversed: [{lower}, {upper}]")
    for end, value, expected in (("lower", lower, want[0]), ("upper", upper, want[1])):
        if is_count:
            off = abs(value - expected) > demo["count_abs_tol"]
        else:
            off = abs(value - expected) > demo["time_rel_tol"] * abs(expected)
        if off:
            found.append(f"{name} {end} {value} vs reference {expected}")
    return found


def check_forecast(kind: str, payload: dict, reference: dict) -> list[str]:
    """Problems with one demo ``fit``/``predict`` JSON payload.

    ``kind`` names the call as ``<command>-[<objective>-]<input format>``.
    """
    demo = reference["demo"]
    source = kind.rsplit("-", 1)[1]
    fit = payload if kind.startswith("fit-") else payload.get("fit", {})
    found = []
    for key in ("alpha_hat", "beta_hat"):
        want = demo["fits"][source][key]
        got = fit.get(key)
        if not (isinstance(got, float) and abs(got - want) <= demo["fit_rel_tol"] * want):
            found.append(f"{key} {got} vs reference {want}")
    if kind.startswith("fit-"):
        if payload.get("converged") is not True:
            found.append("fit did not converge")
        return found
    want = demo["intervals"][kind]
    is_count = payload.get("objective") == "count"
    plain = payload.get("unadjusted")
    found += _interval_problems("unadjusted", plain, want["unadjusted"], is_count, demo)
    if want["adjusted"] is None:
        return found
    widened = payload.get("adjusted")
    found += _interval_problems("adjusted", widened, want["adjusted"], is_count, demo)
    if not found and not (widened["lower"] <= plain["lower"]
                          and plain["upper"] <= widened["upper"]):
        found.append("adjusted interval does not contain the unadjusted one")
    return found
