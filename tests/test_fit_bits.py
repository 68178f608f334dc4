"""The fitter's exact bits on the published tables' own trials.

``data/fit_bits.json`` pins the first replications of every row of every
table: the outcome of ``fit_mle`` and, where it returns or attaches a
fit, every field of that fit, floats as ``float.hex``.  Other tests check
fits to a tolerance; this one fails on any change in the last bit or in
the number of Newton steps, so a rewrite of the optimiser that claims to
be bit-identical has to be.

Regenerate the file only for a change that is meant to move fit bits:

    PYTHONPATH=src python tests/test_fit_bits.py

which first prints how many fits moved, the largest relative change and
any change of outcome or step count.  For the moved fits that converged
it also prints the golden-rule evidence from ``oracles.score_max_norm``
at 50 digits: how many moved nearer the optimum and how many farther,
and the median and maximum score max-norm before and after.
"""

import json
import statistics
from dataclasses import fields
from pathlib import Path

import oracles
from pinned_bits import report_moves
from recruitcast import (
    DegenerateLikelihood,
    InsufficientData,
    ModelFit,
    fit_mle,
    generate_trial,
    replication_rng,
)
from recruitcast.reproduce import TABLE_IDS, reproduction_table

FIT_BITS = Path(__file__).parent / "data" / "fit_bits.json"
REPLICATIONS_PER_ROW = 5


def _fit_fields(fit: ModelFit) -> dict:
    values = {f.name: getattr(fit, f.name) for f in fields(fit)}
    return {name: v.hex() if isinstance(v, float) else v for name, v in values.items()}


def pinned_trials():
    """Each pinned replication's trial, in table order."""
    for table_id in TABLE_IDS:
        for row, (_, config) in enumerate(reproduction_table(table_id).rows):
            for index in range(REPLICATIONS_PER_ROW):
                data = generate_trial(config, [replication_rng(config.seed, index)])[1][0]
                yield {"table": table_id, "row": row, "replication": index}, data


def fit_records() -> list[dict]:
    """Outcome and fit of each pinned replication, in table order."""
    records = []
    for record, data in pinned_trials():
        try:
            fit = fit_mle(data)
            record["kind"] = "ok" if fit.converged else "non-converged"
        except InsufficientData:
            fit = None
            record["kind"] = "insufficient"
        except DegenerateLikelihood as exc:
            fit = exc.fit
            record["kind"] = "boundary"
        if fit is not None:
            record["fit"] = _fit_fields(fit)
        records.append(record)
    return records


def test_every_pinned_fit_is_bit_identical():
    with open(FIT_BITS) as fh:
        pinned = json.load(fh)
    assert len(pinned) == len(TABLE_IDS) * 7 * REPLICATIONS_PER_ROW
    for got, want in zip(fit_records(), pinned, strict=True):
        assert got == want
    # both Newton paths and the boundary are pinned
    assert {(r["kind"], r["fit"]["equal_exposures"]) for r in pinned if "fit" in r} >= {
        ("ok", True), ("ok", False), ("boundary", True), ("boundary", False)}


def _outcome(record: dict) -> tuple:
    """A fit's kind and every field that is not a float: its step count
    and its flags."""
    fit = record.get("fit", {})
    return record["kind"], {name: v for name, v in fit.items() if not isinstance(v, str)}


def report_score_norms(pinned: list, records: list) -> None:
    """Print, for the converged fits that moved, the 50-digit score
    max-norm at the pinned and at the new estimates."""
    before, after = [], []
    for (_, data), old, new in zip(pinned_trials(), pinned, records):
        if old == new or old["kind"] != "ok" or new["kind"] != "ok":
            continue
        for norms, fit in ((before, old["fit"]), (after, new["fit"])):
            norms.append(oracles.score_max_norm(
                float.fromhex(fit["alpha_hat"]), float.fromhex(fit["beta_hat"]),
                data.exposures, data.counts))
    if not before:
        return
    nearer = sum(a < b for a, b in zip(after, before))
    farther = sum(a > b for a, b in zip(after, before))
    print(f"score max-norm of the {len(before)} moved ok fits: {nearer} nearer the "
          f"optimum, {farther} farther; median {float(statistics.median(before)):.3g} -> "
          f"{float(statistics.median(after)):.3g}, maximum {float(max(before)):.4g} -> "
          f"{float(max(after)):.4g}")


if __name__ == "__main__":
    records = fit_records()
    with open(FIT_BITS) as fh:
        pinned = json.load(fh)
    report_moves(FIT_BITS.name, pinned, records, _outcome)
    report_score_norms(pinned, records)
    with open(FIT_BITS, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
