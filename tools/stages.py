"""Time the five stages of a replication block on a published table's
rows, and count the minor page faults of its fit.

    python tools/stages.py SRC_DIR [--table 2|3] [--reps N]

Each of the table's seven rows runs as one block of ``--reps``
replications (default 200, the harness's block on tables 2 and 3),
stage by stage as the harness scores it: seeding the block's streams
(``replication_rngs``), drawing its trials (``generate_trial``), fitting
them (``fit_rows``), the posterior moments of the interior fits
(``summed_rate_moments``), and scoring, the plug-in and adjusted
intervals of every interior and boundary fit with their
``exact_coverage``.  Each row runs two warm-up rounds, then five measured
ones.  For each row it prints the median over the measured rounds of
each stage's microseconds a replication, and in total the mean of the
rows' medians.  Its last column, ``faults``, is the minor page faults a
replication of the ``fit_rows`` stage, read by
``getrusage(RUSAGE_SELF).ru_minflt`` around each call: every measured
fault over every measured replication of the row, and in total the mean
of the rows'.

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
STAGES = ("seeding", "drawing", "fit_rows", "moments", "scoring")


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _block(config, reps: int) -> tuple[list[float], int]:
    """The seconds of each stage of one block of ``reps`` replications
    of ``config``, as ``simulate.coverage_study`` runs it, and the minor
    faults of its ``fit_rows`` stage."""
    import numpy as np

    from recruitcast.model import fit_rows, summed_rate_moments
    from recruitcast.predict import PredictionRequest, pool_moments, prediction_interval
    from recruitcast.simulate import (
        _BOTH_KINDS,
        _boundary_intervals,
        exact_coverage,
        generate_trial,
        replication_rngs,
    )

    marks = [time.perf_counter()]
    rngs = replication_rngs(config.seed, 0, reps)
    marks.append(time.perf_counter())
    rates, data = generate_trial(config, rngs)
    before = _faults()
    marks.append(time.perf_counter())
    fits = fit_rows(data)
    marks.append(time.perf_counter())
    faults = _faults() - before
    interior = np.flatnonzero(fits.kind == "ok")
    alpha, beta = fits.alpha_hat[interior], fits.beta_hat[interior]
    mean, variance = summed_rate_moments(alpha[:, None], beta[:, None],
                                         data.exposures[interior], data.counts[interior],
                                         config.census_time)
    marks.append(time.perf_counter())
    request = PredictionRequest(config.objective, config.horizon, config.level,
                                adjusted=_BOTH_KINDS)
    total_rate = rates.sum(axis=1)
    if interior.size:
        pool = pool_moments(mean, variance, config.centres, alpha, beta)
        exact_coverage(total_rate[interior, None], prediction_interval(pool, request),
                       config.objective, config.horizon)
    boundary = np.flatnonzero(np.isin(fits.kind, ("boundary", "nonconverged")))
    if boundary.size:
        both = _boundary_intervals(config, request, data.counts[boundary].sum(axis=1),
                                   data.exposures[boundary].sum(axis=1))
        exact_coverage(total_rate[boundary, None], both, config.objective, config.horizon)
    marks.append(time.perf_counter())
    return [after - before for before, after in zip(marks, marks[1:])], faults


def measure(table: str, reps: int) -> list[list[float]]:
    """Per row of ``table``: each stage's median microseconds a
    replication of a ``reps``-replication block, and the mean minor
    faults a replication of its ``fit_rows`` stage."""
    from recruitcast.reproduce import reproduction_table

    configs = [config for _, config in reproduction_table(table).rows]
    times = [[[] for _ in STAGES] for _ in configs]
    faults = [0] * len(configs)
    for round_ in range(WARMUP_ROUNDS + MEASURED_ROUNDS):
        for row, config in enumerate(configs):
            seconds, taken = _block(config, reps)
            if round_ >= WARMUP_ROUNDS:
                for stage, elapsed in zip(times[row], seconds):
                    stage.append(elapsed)
                faults[row] += taken
    per_rep = 1e6 / reps
    return [[statistics.median(stage) * per_rep for stage in row] + [f / (MEASURED_ROUNDS * reps)]
            for row, f in zip(times, faults)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", help="the src directory whose recruitcast is measured")
    parser.add_argument("--table", choices=("2", "3"), default="2")
    parser.add_argument("--reps", type=int, default=200)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    sys.path.insert(0, args.src_dir)
    rows = measure(args.table, args.reps)
    print(f"{'row':<6}" + "".join(f" {column:>9}" for column in (*STAGES, "faults")))
    total = [statistics.fmean(column) for column in zip(*rows)]
    for label, (*micros, faults) in [*enumerate(rows, start=1), ("total", total)]:
        print(f"{label:<6}" + "".join(f" {m:>9.2f}" for m in micros) + f" {faults:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
