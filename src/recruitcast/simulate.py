"""Monte-Carlo harness for interval coverage and quantile-content studies.

Each replication draws a fresh trial from a known rate prior, fits the
model, builds the plug-in and adjusted prediction intervals, and scores
them against the exact conditional law of the target given the drawn
rates (Poisson for counts, gamma for times).

The replications run in chunks, one per worker process, and a chunk runs
in two phases.  First, one replication at a time, it draws the trial
from the stream seeded by (config.seed, i), fits it, and keeps only the
few numbers scoring reads: the outcome, the summed true rate, the summed
exposure, the total count, the estimates and the posterior moments of
the summed rate.  Then it scores all of its replications at once:
pooling, the adjusted probabilities, every quantile and both exact
coverages run as array operations, boundary replications through their
limit laws beside the interior ones.

Neither the chunk boundaries nor the number of processes can move a
byte.  Each replication's numbers come from its own stream and its own
fit; the array stage is elementwise, with no sum across replications,
and its quantile search reads the same points for a law whatever shares
its batch.  The only reduction across replications is the final average,
which always runs in replication order over the concatenated chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from .asymptotics import content_limit
from .distributions import (
    GammaParams,
    gamma_cdf,
    gamma_quantile,
    nb_quantile,
    pearson6_quantile,
    poisson_cdf,
    poisson_quantile,
)
from .model import (
    DegenerateLikelihood,
    InsufficientData,
    ModelFit,
    TrialData,
    fit_mle,
    posterior_rate_moments,
)
from .predict import (
    COUNT,
    PooledPosterior,
    PredictionInterval,
    PredictionRequest,
    pool_moments,
    prediction_interval,
    predictive_count_law,
    predictive_time_law,
)

__all__ = [
    "SingleGamma",
    "GammaMixture",
    "RatePrior",
    "Simultaneous",
    "UniformOnCensus",
    "SplitHalf",
    "Explicit",
    "OpeningSchedule",
    "SimConfig",
    "CoverageReport",
    "QuantileProbabilitySample",
    "replication_rng",
    "generate_trial",
    "exact_coverage",
    "coverage_study",
    "quantile_probability_study",
    "kernel_density",
]

# kernel_density works in blocks of grid points by samples, so each
# temporary holds 512 x 4096 doubles (16 MB) whatever the input sizes
_KDE_GRID_BLOCK = 512
_KDE_SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class SingleGamma:
    """All centre rates drawn from one gamma(alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")

    def sample_rates(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.gamma(self.alpha, 1.0 / self.beta, count)


@dataclass(frozen=True)
class GammaMixture:
    """Each centre picks rate beta1 or beta2 with equal probability."""

    alpha: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta1 > 0 and self.beta2 > 0):
            raise ValueError("alpha and both betas must be positive")

    def sample_rates(self, rng: np.random.Generator, count: int) -> np.ndarray:
        second = rng.random(count) < 0.5
        standard = rng.gamma(self.alpha, 1.0, count)
        return standard / np.where(second, self.beta2, self.beta1)


RatePrior = Union[SingleGamma, GammaMixture]


@dataclass(frozen=True)
class Simultaneous:
    """Every centre open for the whole window."""

    def sample_openings(self, rng: np.random.Generator, count: int,
                        census_time: float) -> np.ndarray:
        return np.zeros(count)


@dataclass(frozen=True)
class UniformOnCensus:
    """Opening times drawn uniformly on [0, census]."""

    def sample_openings(self, rng: np.random.Generator, count: int,
                        census_time: float) -> np.ndarray:
        return rng.uniform(0.0, census_time, count)


@dataclass(frozen=True)
class SplitHalf:
    """Half the centres open at 0, the rest exactly at census (zero exposure)."""

    def sample_openings(self, rng: np.random.Generator, count: int,
                        census_time: float) -> np.ndarray:
        openings = np.full(count, census_time)
        openings[: (count + 1) // 2] = 0.0
        return openings


@dataclass(frozen=True)
class Explicit:
    """Fixed opening times, one per centre."""

    opening_times: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.opening_times)
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"opening times must be finite, got {times}")
        object.__setattr__(self, "opening_times", times)

    def check(self, count: int, census_time: float) -> None:
        """Raise ValueError unless there is one time per centre, in [0, census]."""
        if len(self.opening_times) != count:
            raise ValueError(
                f"{len(self.opening_times)} opening times for {count} centres")
        if not all(0.0 <= t <= census_time for t in self.opening_times):
            raise ValueError("opening times must lie in [0, census]")

    def sample_openings(self, rng: np.random.Generator, count: int,
                        census_time: float) -> np.ndarray:
        self.check(count, census_time)
        return np.array(self.opening_times)


OpeningSchedule = Union[Simultaneous, UniformOnCensus, SplitHalf, Explicit]


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell: design, objective, and replication plan."""

    prior: RatePrior
    centres: int
    census_time: float
    schedule: OpeningSchedule
    objective: str
    horizon: float
    level: float
    replications: int
    seed: int

    def __post_init__(self) -> None:
        # objective, horizon and level follow the interval request's rules
        PredictionRequest(self.objective, self.horizon, self.level)
        if self.centres < 1:
            raise ValueError("at least one centre is required")
        if not (math.isfinite(self.census_time) and self.census_time > 0):
            raise ValueError(f"census_time must be positive and finite, got {self.census_time}")
        if self.replications < 1:
            raise ValueError("at least one replication is required")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if isinstance(self.schedule, Explicit):
            self.schedule.check(self.centres, self.census_time)


@dataclass(frozen=True)
class CoverageReport:
    """Replication averages for one simulation cell (coverages in percent)."""

    coverage_unadjusted: float
    coverage_adjusted: float
    width_unadjusted: float
    width_adjusted: float
    mean_t_star: float
    t_star_ratio: float
    n_star_ratio: float
    replications: int
    degenerate_fits: int


@dataclass(frozen=True)
class QuantileProbabilitySample:
    """Exact contents P(target <= fitted p-quantile) across replications."""

    p: float
    values: np.ndarray
    degenerate_fits: int


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for replication ``index`` under a base seed."""
    return np.random.default_rng([int(seed), int(index)])


def generate_trial(config: SimConfig, rng: np.random.Generator
                   ) -> tuple[np.ndarray, TrialData]:
    """Draw one trial; returns the true rates and the censored data.

    Draw order is fixed (openings, then rates, then counts) so that two
    schedules consuming the same amount of randomness stay comparable
    under a common seed.
    """
    openings = config.schedule.sample_openings(rng, config.centres, config.census_time)
    exposures = config.census_time - openings
    rates = config.prior.sample_rates(rng, config.centres)
    counts = rng.poisson(rates * exposures)
    data = TrialData.from_arrays(config.census_time, exposures, counts)
    return rates, data


def _target_cdf(objective: str, horizon: float, total_rate):
    """P(target <= x) given the summed rate L, as a function of x.

    The future count over horizon s is Poisson(L s) and the time to an
    integer target n is gamma(n, L).  Elementwise over ``total_rate``.
    """
    if objective == COUNT:
        return partial(poisson_cdf, mean=total_rate * horizon)
    return partial(gamma_cdf, params=GammaParams(shape=float(horizon), rate=total_rate))


def exact_coverage(rates: np.ndarray, interval: PredictionInterval,
                   objective: str, horizon: float) -> float:
    """Probability the interval traps the target, given the true rates.

    Count intervals are scored as ``PredictionInterval`` defines them.
    ``rates`` runs over centres along its last axis.  Leading axes, with
    an interval whose bounds have their shape, score a batch of trials;
    since only the summed rate matters, a batch may pass each trial's
    summed rate as a one-centre row.
    """
    cdf = _target_cdf(objective, horizon, np.sum(rates, axis=-1))
    # a count interval [lower, upper) traps lower <= N <= upper - 1
    below = 1 if objective == COUNT else 0
    return cdf(np.subtract(interval.upper, below)) - cdf(np.subtract(interval.lower, below))


def _boundary_intervals(config: SimConfig, total_count: np.ndarray,
                        exposure_sum: np.ndarray) -> PredictionInterval:
    """Plug-in and adjusted intervals at the monotone-likelihood limit.

    Along the ray alpha/beta = n/sum(t) the pooled pseudo-exposure tends
    to the mean exposure over centres and the pseudo-count to the total
    observed, so the predictive laws collapse to a Poisson count (or a
    gamma waiting time) at the overall rate, and the adjusted levels are
    those of ``asymptotics.content_limit`` at beta = inf.  Elementwise
    over trials given by their total counts and summed exposures; the
    bounds' first axis holds the plug-in interval, then the adjusted one.
    """
    rate = total_count / exposure_sum
    mean_exposure = exposure_sum / config.centres
    pooled_rate = rate * config.centres
    p_lo = (1.0 - config.level) / 2.0
    p_hi = 1.0 - p_lo
    # for times x = m beta / alpha, and beta / alpha tends to 1 / rate
    x = config.horizon if config.objective == COUNT else config.horizon / config.centres / rate
    a_lo, a_hi = (content_limit(p, x, math.inf, mean_exposure)[2] for p in (p_lo, p_hi))
    # (end, kind, trial): lower ends, then upper ends
    ends = np.stack(np.broadcast_arrays(p_lo, a_lo, p_hi, a_hi)).reshape(2, 2, -1)
    if config.objective == COUNT:
        lower, upper = np.asarray(poisson_quantile(ends, pooled_rate * config.horizon),
                                  dtype=float)
    else:
        law = GammaParams(shape=float(config.horizon), rate=pooled_rate)
        lower, upper = gamma_quantile(ends, law)
    return PredictionInterval(lower=lower, upper=upper, nominal_level=config.level,
                              probs_used=(ends[0], ends[1]))


# What a replication's fit leaves for scoring, one column each: the kind
# of outcome, the summed true rate, the summed exposure and the total
# count, then for an interior fit its estimates, log-likelihood and
# Newton steps, and the posterior mean and variance of the summed rate.
_FIT_COLUMNS = ("kind", "total_rate", "exposure_sum", "total_count", "alpha", "beta",
                "log_lik", "iterations", "mean", "variance")
_DROPPED, _BOUNDARY, _INTERIOR = 0.0, 1.0, 2.0
# the plug-in interval, then the adjusted one, for every trial of a batch
_BOTH_KINDS = np.array([[False], [True]])


def _fit_replication(config: SimConfig, index: int) -> tuple[float, ...]:
    """Draw and fit replication ``index``; keep the scalars scoring reads.

    A trial that recruits nobody is dropped.  A monotone likelihood, or
    an interior search that stalled on the near-boundary ridge, is a
    boundary replication: its limit laws are indistinguishable from the
    stalled fit's.
    """
    rates, data = generate_trial(config, replication_rng(config.seed, index))
    total_rate = float(np.sum(rates))
    try:
        fit = fit_mle(data)
    except InsufficientData:
        return (_DROPPED, total_rate) + (math.nan,) * (len(_FIT_COLUMNS) - 2)
    except DegenerateLikelihood:
        fit = None
    observed = (float(data.exposures.sum()), data.total_count)
    if fit is None or not fit.converged:
        return (_BOUNDARY, total_rate, *observed) + (math.nan,) * (len(_FIT_COLUMNS) - 4)
    return (_INTERIOR, total_rate, *observed, fit.alpha_hat, fit.beta_hat, fit.log_lik,
            fit.iterations, *posterior_rate_moments(data, fit))


def _fit_chunk(config: SimConfig, bounds: tuple[int, int]) -> dict[str, np.ndarray]:
    """Fit replications ``bounds[0]`` up to ``bounds[1]``: each column of
    ``_FIT_COLUMNS``, with one entry per replication in order."""
    table = np.empty((bounds[1] - bounds[0], len(_FIT_COLUMNS)))
    for row, index in enumerate(range(*bounds)):
        table[row] = _fit_replication(config, index)
    return dict(zip(_FIT_COLUMNS, table.T))


def _interior_pool(config: SimConfig, fits: dict[str, np.ndarray], interior: np.ndarray
                   ) -> tuple[PooledPosterior, ModelFit]:
    """The interior replications' fits, as one batch, and their pools."""
    fit = ModelFit(alpha_hat=fits["alpha"][interior], beta_hat=fits["beta"][interior],
                   log_lik=fits["log_lik"][interior], converged=True,
                   iterations=fits["iterations"][interior])
    pool = pool_moments(fits["mean"][interior], fits["variance"][interior],
                        config.centres, fit)
    return pool, fit


def _coverage_chunk(config: SimConfig, bounds: tuple[int, int]) -> np.ndarray:
    """Score replications ``bounds[0]`` up to ``bounds[1]``, one row each.

    A row holds the plug-in coverage and width, the adjusted coverage and
    width, t*, the ratios t*/mean exposure and n*/total count, and 1 for
    a boundary replication (0 otherwise).  A dropped replication's row is
    NaN throughout.
    """
    fits = _fit_chunk(config, bounds)
    rows = np.full((fits["kind"].size, 8), math.nan)
    mean_exposure = fits["exposure_sum"] / config.centres
    interior = np.flatnonzero(fits["kind"] == _INTERIOR)
    boundary = np.flatnonzero(fits["kind"] == _BOUNDARY)
    if interior.size:
        pool, fit = _interior_pool(config, fits, interior)
        request = PredictionRequest(config.objective, config.horizon, config.level,
                                    adjusted=_BOTH_KINDS)
        _score(rows, interior, prediction_interval(pool, fit, request), fits, config)
        rows[interior, 4] = pool.t_star
        rows[interior, 5] = pool.t_star / mean_exposure[interior]
        rows[interior, 6] = pool.n_star / fits["total_count"][interior]
        rows[interior, 7] = 0.0
    if boundary.size:
        both = _boundary_intervals(config, fits["total_count"][boundary],
                                   fits["exposure_sum"][boundary])
        _score(rows, boundary, both, fits, config)
        rows[boundary, 4] = mean_exposure[boundary]
        rows[boundary, 5:8] = 1.0
    return rows


def _score(rows: np.ndarray, which: np.ndarray, both: PredictionInterval,
           fits: dict[str, np.ndarray], config: SimConfig) -> None:
    """Write the coverage and width of the plug-in and adjusted intervals,
    the first axis of ``both``, for the replications ``which``."""
    coverage = exact_coverage(fits["total_rate"][which, None], both,
                              config.objective, config.horizon)
    rows[which, 0], rows[which, 2] = coverage
    rows[which, 1], rows[which, 3] = both.upper - both.lower


def _quantile_chunk(config: SimConfig, p: float, bounds: tuple[int, int]) -> np.ndarray:
    """Exact contents of the fitted p-quantile for replications ``bounds[0]``
    up to ``bounds[1]``, in order; NaN where the fit was not interior."""
    fits = _fit_chunk(config, bounds)
    contents = np.full(fits["kind"].size, math.nan)
    interior = np.flatnonzero(fits["kind"] == _INTERIOR)
    if interior.size == 0:
        return contents
    pool, _ = _interior_pool(config, fits, interior)
    if config.objective == COUNT:
        quantile = nb_quantile(p, predictive_count_law(pool, config.horizon))
    else:
        quantile = pearson6_quantile(p, predictive_time_law(pool, int(config.horizon)))
    cdf = _target_cdf(config.objective, config.horizon, fits["total_rate"][interior])
    contents[interior] = cdf(quantile)
    return contents


def _chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    size = math.ceil(total / max(1, workers))
    return [(start, min(start + size, total)) for start in range(0, total, size)]


def _worker_plan(total: int, requested: int) -> tuple[int, list[tuple[int, int]]]:
    """Processes to start and the replication chunks they share.

    No more processes than requested, than CPUs, or than chunks, however
    large the request: a worker count must never fork the machine to death.
    """
    workers = max(1, min(requested, os.cpu_count() or 1))
    bounds = _chunk_bounds(total, workers)
    return min(workers, len(bounds)), bounds


def _run_replications(chunk_fn, total: int, workers: int) -> np.ndarray:
    """The chunks' rows for replications 0 up to ``total``, in order."""
    workers, bounds = _worker_plan(total, workers)
    if workers == 1:
        return np.concatenate([chunk_fn(b) for b in bounds])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(chunk_fn, bounds)))


def coverage_study(config: SimConfig, workers: int = 1) -> CoverageReport:
    """Average exact coverage and width over the configured replications.

    Replications whose likelihood is monotone enter the averages through
    the boundary-limit laws and are tallied in ``degenerate_fits``; a
    trial that recruits nobody carries no information at all and is
    dropped (also tallied).
    """
    rows = _run_replications(partial(_coverage_chunk, config), config.replications, workers)
    dropped = np.isnan(rows[:, 7])
    kept = rows[~dropped]
    if kept.size == 0:
        raise DegenerateLikelihood("no replication produced usable data")
    means = kept[:, :7].mean(axis=0)
    return CoverageReport(
        coverage_unadjusted=100.0 * means[0],
        coverage_adjusted=100.0 * means[2],
        width_unadjusted=means[1],
        width_adjusted=means[3],
        mean_t_star=means[4],
        t_star_ratio=means[5],
        n_star_ratio=means[6],
        replications=kept.shape[0],
        degenerate_fits=int(kept[:, 7].sum()) + int(dropped.sum()),
    )


def quantile_probability_study(config: SimConfig, p: float,
                               workers: int = 1) -> QuantileProbabilitySample:
    """Exact content of the fitted p-quantile across replications.

    Each replication reads the plug-in p-quantile off the predictive law
    and evaluates the probability that the target falls at or below it
    under the drawn rates.  The sample of such contents is what the limit
    laws in :mod:`recruitcast.asymptotics` describe.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    contents = _run_replications(partial(_quantile_chunk, config, p),
                                 config.replications, workers)
    dropped = np.isnan(contents)
    return QuantileProbabilitySample(p=p, values=contents[~dropped],
                                     degenerate_fits=int(dropped.sum()))


def kernel_density(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density on [0, 1] with boundary reflection.

    Bandwidth follows Silverman's rule, 0.9 min(sd, IQR/1.34) n^(-1/5).
    Mass falling outside [0, 1] is folded back at both edges, so the
    estimate integrates to one over the unit interval.
    """
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n = samples.size
    if n < 100:
        raise ValueError(f"need at least 100 samples for a stable estimate, got {n}")
    sd = float(samples.std(ddof=1))
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.34)
    bandwidth = 0.9 * spread * n ** (-0.2)
    if not bandwidth > 0:
        raise ValueError("degenerate sample: zero bandwidth")
    norm = 1.0 / (n * bandwidth * math.sqrt(2.0 * math.pi))
    density = np.zeros_like(grid)
    for row in range(0, grid.size, _KDE_GRID_BLOCK):
        points = grid[row:row + _KDE_GRID_BLOCK, None]
        sums = density[row:row + _KDE_GRID_BLOCK]
        for start in range(0, n, _KDE_SAMPLE_BLOCK):
            block = samples[start:start + _KDE_SAMPLE_BLOCK]
            for centers in (block, -block, 2.0 - block):
                z = (points - centers[None, :]) / bandwidth
                sums += np.exp(-0.5 * z * z).sum(axis=1)
    return norm * density
