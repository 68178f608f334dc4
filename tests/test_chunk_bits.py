"""The harness's exact scoring bits on a few chunked cells.

``data/chunk_bits.json`` pins, for each cell, every row that
``simulate._coverage_chunk`` scores for replications 0 up to 20 and
every content that ``simulate._quantile_chunk`` reads at p = 1/4,
floats as ``float.hex``.  The table CSVs print six digits, so only this
file pins the last bit of the interior and boundary intervals, their
adjusted levels and their exact coverages, in both objectives.

Regenerate the file only for a change that is meant to move scoring bits:

    PYTHONPATH=src python tests/test_chunk_bits.py

which first prints how many cells moved, the largest relative change and
any change of a replication's outcome: interior, boundary or dropped.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pinned_bits import report_moves
from recruitcast import TIME, model, simulate
from test_simulate import _CHUNKED_CELLS

CHUNK_BITS = Path(__file__).parent / "data" / "chunk_bits.json"
BOUNDS = (0, 20)

CELLS = {
    **_CHUNKED_CELLS,
    # the waiting time to three recruits on the boundary-heavy design
    "boundary heavy, time": lambda: replace(_CHUNKED_CELLS["boundary heavy"](),
                                            objective=TIME, horizon=3.0),
}


def _hex(values: np.ndarray) -> list:
    return [float(v).hex() for v in values]


def chunk_records() -> list[dict]:
    """Each cell's coverage rows and quantile contents, in cell order."""
    records = []
    for name, make in CELLS.items():
        config = make()
        records.append({
            "cell": name,
            "coverage_rows": [_hex(row) for row in simulate._coverage_chunk(config, BOUNDS)],
            "quantile_contents": _hex(simulate._quantile_chunk(config, 0.25, BOUNDS)),
        })
    return records


def test_every_pinned_chunk_is_bit_identical():
    with open(CHUNK_BITS) as fh:
        pinned = json.load(fh)
    for got, want in zip(chunk_records(), pinned, strict=True):
        assert got == want
    # interior, boundary and dropped replications are pinned in both objectives
    for name in ("boundary heavy", "boundary heavy, time"):
        flags = {row[7] for record in pinned if record["cell"] == name
                 for row in record["coverage_rows"]}
        assert flags == {(0.0).hex(), (1.0).hex(), "nan"}


def _blocks_of(monkeypatch, block: int) -> None:
    """The one batch rule, model.block_rows, at ``block`` rows: the
    harness's blocks and fit_rows' passes both take at most that many."""
    for module in (simulate, model):
        monkeypatch.setattr(module, "block_rows", lambda centres: block)


@pytest.mark.parametrize("block", [1, 7, BOUNDS[1] + 1])
def test_no_block_size_moves_a_bit(monkeypatch, block):
    # each trial of a block comes from its own stream and is fitted alone,
    # and the block's sums run along its rows, so where blocks end moves
    # nothing
    _blocks_of(monkeypatch, block)
    with open(CHUNK_BITS) as fh:
        assert chunk_records() == json.load(fh)


@pytest.mark.parametrize("block", [1, 7, BOUNDS[1] + 1])
def test_no_block_size_moves_a_bit_with_every_group_batched(monkeypatch, block):
    # as run, a block of fewer rows than model._MIN_GROUP_ROWS fits one
    # trial at a time; here every group runs the batched pass instead
    monkeypatch.setattr(model, "_MIN_GROUP_ROWS", 1)
    _blocks_of(monkeypatch, block)
    with open(CHUNK_BITS) as fh:
        assert chunk_records() == json.load(fh)


def _outcomes(record: dict) -> tuple:
    """Each replication's boundary flag, NaN if dropped, and where its
    quantile content is NaN, which marks a fit that was not interior."""
    return ([row[7] for row in record["coverage_rows"]],
            [value == "nan" for value in record["quantile_contents"]])


if __name__ == "__main__":
    records = chunk_records()
    with open(CHUNK_BITS) as fh:
        report_moves(CHUNK_BITS.name, json.load(fh), records, _outcomes)
    with open(CHUNK_BITS, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
