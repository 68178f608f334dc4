"""What regenerating a pinned-bits file would move.

The generators of ``data/fit_bits.json`` and ``data/chunk_bits.json``
print this before they overwrite the file: how many entries moved, the
largest relative change of a pinned float, and every entry whose outcome
changed.  A change that is meant to move bits records these figures.
"""

import math


def _floats(value):
    """Every pinned float of a record, in order, read from its hex string."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, str):
        try:
            yield float.fromhex(value)
        except ValueError:
            pass


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def report_moves(name: str, pinned: list, records: list, outcome) -> None:
    """Print what replacing ``pinned`` by ``records`` moves; ``outcome(record)``
    is the part of a record that must not change, such as a fit's kind and
    its step count."""
    if len(pinned) != len(records):
        print(f"{name}: {len(pinned)} entries become {len(records)}")
    moved, largest, changed = 0, 0.0, []
    for index, (old, new) in enumerate(zip(pinned, records)):
        if old == new:
            continue
        moved += 1
        if outcome(old) != outcome(new):
            changed.append(f"  entry {index}: {outcome(old)} -> {outcome(new)}")
            continue
        old_floats, new_floats = list(_floats(old)), list(_floats(new))
        if len(old_floats) != len(new_floats):
            changed.append(f"  entry {index}: {len(old_floats)} floats become {len(new_floats)}")
            continue
        largest = max([largest, *map(_relative_change, old_floats, new_floats)])
    print(f"{name}: {moved} of {len(records)} entries moved; "
          f"largest relative change {largest:.3g}; "
          f"{len(changed) or 'no'} outcome changes")
    for line in changed:
        print(line)
