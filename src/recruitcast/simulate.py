"""Monte-Carlo harness for interval coverage and quantile-content studies.

Each replication draws a fresh trial from a known rate prior, fits the
model, builds the plug-in and adjusted prediction intervals, and scores
them against the exact conditional law of the target given the drawn
rates (Poisson for counts, gamma for times).  Replication i always uses
the random stream seeded by (config.seed, i), so results are bit-for-bit
reproducible no matter how the replications are scheduled across
processes; aggregation always runs in replication order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Union

import numpy as np

from scipy.special import ndtr, ndtri

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
    TrialData,
    fit_mle,
)
from .predict import (
    COUNT,
    PredictionInterval,
    PredictionRequest,
    pool_centres,
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
        object.__setattr__(self, "opening_times",
                           tuple(float(t) for t in self.opening_times))

    def sample_openings(self, rng: np.random.Generator, count: int,
                        census_time: float) -> np.ndarray:
        if len(self.opening_times) != count:
            raise ValueError(
                f"{len(self.opening_times)} opening times for {count} centres")
        openings = np.asarray(self.opening_times)
        if np.any(openings < 0) or np.any(openings > census_time):
            raise ValueError("opening times must lie in [0, census]")
        return openings.copy()


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
        if not self.census_time > 0:
            raise ValueError("census_time must be positive")
        if self.replications < 1:
            raise ValueError("at least one replication is required")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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


def exact_coverage(rates: np.ndarray, interval: PredictionInterval,
                   objective: str, horizon: float) -> float:
    """Probability the interval traps the target, given the true rates.

    Conditional on the summed rate L, the future count over horizon s is
    Poisson(L s) and the time to an integer target n is gamma(n, L).
    Count intervals are scored half-open, lower <= N < upper.
    """
    total_rate = float(np.sum(rates))
    if objective == COUNT:
        mean = total_rate * horizon
        return (poisson_cdf(interval.upper - 1, mean)
                - poisson_cdf(interval.lower - 1, mean))
    law = GammaParams(shape=float(horizon), rate=total_rate)
    return gamma_cdf(interval.upper, law) - gamma_cdf(interval.lower, law)


def _boundary_intervals(data: TrialData, config: SimConfig
                        ) -> tuple[PredictionInterval, PredictionInterval]:
    """Plug-in and adjusted intervals at the monotone-likelihood limit.

    Along the ray alpha/beta = n/sum(t) the pooled pseudo-exposure tends
    to the mean exposure over centres and the pseudo-count to the total
    observed, so the predictive laws collapse to a Poisson count (or a
    gamma waiting time) at the overall rate, and the beta terms drop out
    of the quantile adjustment factors.
    """
    rate = data.total_count / float(data.exposures.sum())
    mean_exposure = float(data.exposures.mean())
    pooled_rate = rate * data.num_centres
    p_lo = (1.0 - config.level) / 2.0
    p_hi = 1.0 - p_lo
    if config.objective == COUNT:
        factor = math.sqrt((mean_exposure + config.horizon) / mean_exposure)
    else:
        per_centre = config.horizon / data.num_centres
        factor = math.sqrt(1.0 + per_centre / (rate * mean_exposure))
    a_lo = float(ndtr(factor * ndtri(p_lo)))
    a_hi = float(ndtr(factor * ndtri(p_hi)))
    if config.objective == COUNT:
        mean = pooled_rate * config.horizon
        points = [float(poisson_quantile(q, mean)) for q in (p_lo, p_hi, a_lo, a_hi)]
    else:
        law = GammaParams(shape=float(config.horizon), rate=pooled_rate)
        points = [gamma_quantile(q, law) for q in (p_lo, p_hi, a_lo, a_hi)]
    plain = PredictionInterval(lower=points[0], upper=points[1],
                               nominal_level=config.level, probs_used=(p_lo, p_hi))
    widened = PredictionInterval(lower=points[2], upper=points[3],
                                 nominal_level=config.level, probs_used=(a_lo, a_hi))
    return plain, widened


def _coverage_replication(config: SimConfig, index: int):
    rng = replication_rng(config.seed, index)
    rates, data = generate_trial(config, rng)
    boundary = False
    try:
        fit = fit_mle(data)
    except InsufficientData:
        return None
    except DegenerateLikelihood:
        boundary = True
    if not boundary and not fit.converged:
        # interior search stalled on the near-boundary ridge; the limit
        # laws are then indistinguishable from the stalled fit's
        boundary = True
    if boundary:
        plain, widened = _boundary_intervals(data, config)
        t_star = float(data.exposures.mean())
        ratios = (1.0, 1.0)
    else:
        pool = pool_centres(data, fit)
        request = PredictionRequest(config.objective, config.horizon, config.level)
        plain = prediction_interval(pool, fit, request)
        widened = prediction_interval(pool, fit, replace(request, adjusted=True))
        open_mean = float(data.exposures.mean())
        t_star = pool.t_star
        ratios = (pool.t_star / open_mean, pool.n_star / data.total_count)
    return (
        exact_coverage(rates, plain, config.objective, config.horizon),
        plain.upper - plain.lower,
        exact_coverage(rates, widened, config.objective, config.horizon),
        widened.upper - widened.lower,
        t_star,
        ratios[0],
        ratios[1],
        1.0 if boundary else 0.0,
    )


def _quantile_replication(config: SimConfig, p: float, index: int):
    rng = replication_rng(config.seed, index)
    rates, data = generate_trial(config, rng)
    try:
        fit = fit_mle(data)
    except (DegenerateLikelihood, InsufficientData):
        return None
    if not fit.converged:
        return None
    pool = pool_centres(data, fit)
    total_rate = float(np.sum(rates))
    if config.objective == COUNT:
        quantile = nb_quantile(p, predictive_count_law(pool, config.horizon))
        return poisson_cdf(quantile, total_rate * config.horizon)
    quantile = pearson6_quantile(p, predictive_time_law(pool, int(config.horizon)))
    return gamma_cdf(quantile, GammaParams(shape=float(config.horizon), rate=total_rate))


def _chunk(replicate, bounds: tuple[int, int]) -> list:
    """Replications ``bounds[0]`` up to ``bounds[1]``, in order."""
    return [replicate(i) for i in range(*bounds)]


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


def _run_replications(chunk_fn, total: int, workers: int) -> list:
    workers, bounds = _worker_plan(total, workers)
    if workers == 1:
        results = []
        for b in bounds:
            results.extend(chunk_fn(b))
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = list(pool.map(chunk_fn, bounds))
    return [row for chunk in chunks for row in chunk]


def coverage_study(config: SimConfig, workers: int = 1) -> CoverageReport:
    """Average exact coverage and width over the configured replications.

    Replications whose likelihood is monotone enter the averages through
    the boundary-limit laws and are tallied in ``degenerate_fits``; a
    trial that recruits nobody carries no information at all and is
    dropped (also tallied).
    """
    rows = _run_replications(partial(_chunk, partial(_coverage_replication, config)),
                             config.replications, workers)
    kept = np.array([r for r in rows if r is not None], dtype=float)
    dropped = sum(1 for r in rows if r is None)
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
        degenerate_fits=int(kept[:, 7].sum()) + dropped,
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
    rows = _run_replications(partial(_chunk, partial(_quantile_replication, config, p)),
                             config.replications, workers)
    kept = np.array([r for r in rows if r is not None], dtype=float)
    dropped = sum(1 for r in rows if r is None)
    return QuantileProbabilitySample(p=p, values=kept, degenerate_fits=dropped)


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
    for start in range(0, n, 4096):
        block = samples[start:start + 4096]
        for centers in (block, -block, 2.0 - block):
            z = (grid[:, None] - centers[None, :]) / bandwidth
            density += np.exp(-0.5 * z * z).sum(axis=1)
    return norm * density
