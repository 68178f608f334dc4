"""Time the five stages of a replication block on a published table's rows.

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
rows' medians.

``recruitcast`` is imported from SRC_DIR, so one copy of this script
measures two source trees, each in a process of its own.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

WARMUP_ROUNDS = 2
MEASURED_ROUNDS = 5
STAGES = ("seeding", "drawing", "fit_rows", "moments", "scoring")


def _block(config, reps: int) -> list[float]:
    """The seconds of each stage of one block of ``reps`` replications
    of ``config``, as ``simulate.coverage_study`` runs it."""
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
    marks.append(time.perf_counter())
    fits = fit_rows(data)
    marks.append(time.perf_counter())
    interior = np.flatnonzero(fits.kind == "ok")
    alpha, beta = fits.alpha_hat[interior], fits.beta_hat[interior]
    mean, variance = summed_rate_moments(alpha[:, None], beta[:, None],
                                         data.exposures[interior], data.counts[interior])
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
    return [after - before for before, after in zip(marks, marks[1:])]


def measure(table: str, reps: int) -> list[list[float]]:
    """Per row of ``table``: each stage's median microseconds a
    replication of a ``reps``-replication block."""
    from recruitcast.reproduce import reproduction_table

    configs = [config for _, config in reproduction_table(table).rows]
    times = [[[] for _ in STAGES] for _ in configs]
    for round_ in range(WARMUP_ROUNDS + MEASURED_ROUNDS):
        for row, config in enumerate(configs):
            seconds = _block(config, reps)
            if round_ >= WARMUP_ROUNDS:
                for stage, elapsed in zip(times[row], seconds):
                    stage.append(elapsed)
    per_rep = 1e6 / reps
    return [[statistics.median(stage) * per_rep for stage in row] for row in times]


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
    print(f"{'row':<6}" + "".join(f" {stage:>9}" for stage in STAGES))
    for row, micros in enumerate(rows, start=1):
        print(f"{row:<6}" + "".join(f" {m:>9.2f}" for m in micros))
    total = [statistics.fmean(stage) for stage in zip(*rows)]
    print(f"{'total':<6}" + "".join(f" {m:>9.2f}" for m in total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
