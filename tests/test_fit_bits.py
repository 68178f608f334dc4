"""The fitter's exact bits on the published tables' own trials.

``data/fit_bits.json`` pins the first replications of every row of every
table: the outcome of ``fit_mle`` and, where it returns or attaches a
fit, every field of that fit, floats as ``float.hex``.  Other tests check
fits to a tolerance; this one fails on any change in the last bit or in
the number of Newton steps, so a rewrite of the optimiser that claims to
be bit-identical has to be.

Regenerate the file only for a change that is meant to move fit bits:

    PYTHONPATH=src python tests/test_fit_bits.py
"""

import json
from dataclasses import fields
from pathlib import Path

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


def fit_records() -> list[dict]:
    """Outcome and fit of each pinned replication, in table order."""
    records = []
    for table_id in TABLE_IDS:
        for row, (_, config) in enumerate(reproduction_table(table_id).rows):
            for index in range(REPLICATIONS_PER_ROW):
                data = generate_trial(config, replication_rng(config.seed, index))[1]
                record = {"table": table_id, "row": row, "replication": index}
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


if __name__ == "__main__":
    with open(FIT_BITS, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in fit_records()) + "\n]\n")
