"""Time ``fit_rows`` on a published table's rows and count its minor page faults.

    python tools/faults.py SRC_DIR [--table 2|3] [--reps N]

Each of the table's seven rows is drawn once as one block of ``--reps``
replications (default 200, the harness's block on tables 2 and 3) and
fitted with one ``model.fit_rows`` call per round: two warm-up rounds,
then five measured ones.  For each row, and in total, it prints the
median over the measured rounds of the microseconds a replication, and
the minor page faults a replication, read by
``getrusage(RUSAGE_SELF).ru_minflt`` around each call.  The total's
time is the mean of the rows' medians, and its faults are every
measured fault over every measured replication.

``recruitcast`` is imported from SRC_DIR, so one copy of this script
measures two source trees, each in a process of its own.  It sets no
allocator option: the faults are those that the library takes as it
runs.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time

WARMUP_ROUNDS = 2
MEASURED_ROUNDS = 5


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(table: str, reps: int) -> list[tuple[float, float]]:
    """Per row of ``table``: the median microseconds and the mean minor
    faults a replication of one ``fit_rows`` call on a ``reps``-row block."""
    from recruitcast.model import fit_rows
    from recruitcast.reproduce import reproduction_table
    from recruitcast.simulate import generate_trial, replication_rngs

    blocks = [generate_trial(config, replication_rngs(config.seed, 0, reps))[1]
              for _, config in reproduction_table(table).rows]
    times = [[] for _ in blocks]
    faults = [0] * len(blocks)
    for round_ in range(WARMUP_ROUNDS + MEASURED_ROUNDS):
        for row, data in enumerate(blocks):
            before, start = _faults(), time.perf_counter()
            fit_rows(data)
            elapsed, taken = time.perf_counter() - start, _faults() - before
            if round_ >= WARMUP_ROUNDS:
                times[row].append(elapsed)
                faults[row] += taken
    per_rep = 1e6 / reps
    return [(statistics.median(t) * per_rep, f / (MEASURED_ROUNDS * reps))
            for t, f in zip(times, faults)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", help="the src directory whose recruitcast is measured")
    parser.add_argument("--table", choices=("2", "3"), default="3")
    parser.add_argument("--reps", type=int, default=200)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    sys.path.insert(0, args.src_dir)
    rows = measure(args.table, args.reps)
    print(f"{'row':<6} {'us_per_rep':>11} {'faults_per_rep':>15}")
    for row, (micros, faults) in enumerate(rows, start=1):
        print(f"{row:<6} {micros:>11.2f} {faults:>15.3f}")
    micros = statistics.fmean(m for m, _ in rows)
    faults = statistics.fmean(f for _, f in rows)
    print(f"{'total':<6} {micros:>11.2f} {faults:>15.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
