"""The fitter's exact bits on the published tables' own trials.

``data/fit_bits.json`` pins the first replications of every row of every
table: the outcome of ``fit_mle`` and, where it returns or attaches a
fit, every field of that fit, floats as ``float.hex``.  Other tests check
fits to a tolerance; this one fails on any change in the last bit or in
the number of Newton steps, so a rewrite of the optimiser that claims to
be bit-identical has to be.

The same records come out of ``fit_rows``'s batched Newton pass whatever
block a trial is fitted in: alone, among seven replications of its row,
or with the rest of its row.  ``fit_rows`` would hand groups this small
to ``fit_mle``, so these records are taken with its group cutoff at one
row, every group through the batched pass.

Regenerate the file only for a change that is meant to move fit bits:

    PYTHONPATH=src python tests/test_fit_bits.py

which first refits every record through ``fit_rows``, one block per
table row, and refuses to write if any differs from ``fit_mle``'s.  It
then prints how many fits moved, the largest relative change and any
change of outcome or step count.  For the moved fits that converged it
also prints the golden-rule evidence from ``oracles.score_max_norm`` at
50 digits: how many moved nearer the optimum and how many farther, and
the median and maximum score max-norm before and after.
"""

import json
import statistics
import sys
from pathlib import Path
from unittest import mock

import pytest

import oracles
from pinned_bits import report_moves
from recruitcast import (
    ModelFit,
    fit_mle,
    generate_trial,
    replication_rngs,
)
from recruitcast import model
from recruitcast.reproduce import TABLE_IDS, reproduction_table

FIT_BITS = Path(__file__).parent / "data" / "fit_bits.json"
REPLICATIONS_PER_ROW = 5


def _pinned_kind(kind: str) -> str:
    """A fit's kind as the pinned records spell it."""
    return "non-converged" if kind == "nonconverged" else kind


def _fit_fields(fit: ModelFit) -> dict:
    """A fit as the pinned records hold it: floats as ``float.hex``, and
    its kind as the flags ``converged`` and ``degenerate``, in the order
    of the pinned file's keys."""
    return {"alpha_hat": fit.alpha_hat.hex(), "beta_hat": fit.beta_hat.hex(),
            "log_lik": fit.log_lik.hex(), "converged": fit.converged,
            "iterations": fit.iterations, "degenerate": fit.kind == "boundary",
            "equal_exposures": fit.equal_exposures}


def _table_rows():
    for table_id in TABLE_IDS:
        for row, (_, config) in enumerate(reproduction_table(table_id).rows):
            yield {"table": table_id, "row": row}, config


def pinned_trials():
    """Each pinned replication's trial, in table order."""
    for where, config in _table_rows():
        for index, rng in enumerate(replication_rngs(config.seed, 0, REPLICATIONS_PER_ROW)):
            data = generate_trial(config, [rng])[1][0]
            yield {**where, "replication": index}, data


def _record(record: dict, fit: ModelFit) -> dict:
    """``record`` with ``fit``'s kind and, unless it is "insufficient",
    its fields, as the pinned file holds them."""
    record["kind"] = _pinned_kind(fit.kind)
    if fit.kind != "insufficient":
        record["fit"] = _fit_fields(fit)
    return record


def fit_records() -> list[dict]:
    """Outcome and fit of each pinned replication, in table order."""
    return [_record(record, fit_mle(data)) for record, data in pinned_trials()]


def records_text(records: list[dict]) -> str:
    """``records`` as the pinned file's text, one record a line."""
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


def row_fit_records(block: int = REPLICATIONS_PER_ROW) -> list[dict]:
    """``fit_records`` through ``fit_rows``'s batched pass, whatever the
    size of a group: each table row's replications drawn and fitted
    ``block`` at a time, the last block running past the pinned ones."""
    records = []
    for where, config in _table_rows():
        for first in range(0, REPLICATIONS_PER_ROW, block):
            _, data = generate_trial(config, replication_rngs(config.seed, first,
                                                                 first + block))
            with mock.patch.object(model, "_MIN_GROUP_ROWS", 1):
                fits = model.fit_rows(data)
            for i in range(min(block, REPLICATIONS_PER_ROW - first)):
                records.append(_record({**where, "replication": first + i}, ModelFit(
                    alpha_hat=float(fits.alpha_hat[i]), beta_hat=float(fits.beta_hat[i]),
                    log_lik=float(fits.log_lik[i]), kind=str(fits.kind[i]),
                    iterations=int(fits.iterations[i]),
                    equal_exposures=bool(fits.equal_exposures[i]))))
    return records


def test_every_pinned_fit_is_bit_identical():
    with open(FIT_BITS) as fh:
        pinned = json.load(fh)
    assert len(pinned) == len(TABLE_IDS) * 7 * REPLICATIONS_PER_ROW
    records = fit_records()
    for got, want in zip(records, pinned, strict=True):
        assert got == want
    # and the text that regenerating the file would write is the file's
    assert records_text(records) == FIT_BITS.read_text()
    # both Newton paths and the boundary are pinned
    assert {(r["kind"], r["fit"]["equal_exposures"]) for r in pinned if "fit" in r} >= {
        ("ok", True), ("ok", False), ("boundary", True), ("boundary", False)}


@pytest.mark.parametrize("block", [1, 7, REPLICATIONS_PER_ROW])
def test_every_pinned_fit_is_bit_identical_in_any_block(block):
    with open(FIT_BITS) as fh:
        pinned = json.load(fh)
    for got, want in zip(row_fit_records(block), pinned, strict=True):
        assert got == want


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
    differ = [got for got, want in zip(row_fit_records(), records) if got != want]
    if differ:
        sys.exit(f"fit_rows differs from fit_mle on {len(differ)} of {len(records)} "
                 f"records, first {differ[0]}; not writing {FIT_BITS.name}")
    with open(FIT_BITS) as fh:
        pinned = json.load(fh)
    report_moves(FIT_BITS.name, pinned, records, _outcome)
    report_score_norms(pinned, records)
    with open(FIT_BITS, "w") as fh:
        fh.write(records_text(records))
