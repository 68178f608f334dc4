"""Monte-Carlo harness for interval coverage and quantile-content studies.

Each replication draws a fresh trial from a known rate prior, fits the
model, builds the plug-in and adjusted prediction intervals, and scores
them against the exact conditional law of the target given the drawn
rates (Poisson for counts, gamma for times).

The replications run in chunks, one per worker process, and a chunk
runs in two phases.  First it draws and fits its replications in the
fewest near-equal blocks of at most ``model.block_rows(C)``
replications for trials of C centres, max(1, 2^16 // max(C, 2^8)), the
rule that also bounds ``fit_rows``' passes, so each of a block's arrays
holds at most 2^16 values, or one trial's C where C is larger, whatever
the number of replications, and no short last block falls below the row
bound of a batched fit.  Each block runs in two steps.  It seeds the
streams of its replications in one pass, ``replication_rngs``, each of
them bit for bit ``np.random.default_rng([config.seed, i])`` for
replication i, and draws one trial from each stream into the block's
arrays: the schedule and the prior fill them with NumPy's raw uniform
and standard-gamma draws, one call per stream each, the transforms run
once over the block, and only the counts take one Poisson call per
stream.  The block's trials are one batched ``TrialData``, checked once,
in one test of its element rules.  Then it fits the batch's
rows with one ``model.fit_rows`` call, which gives each row the bits
that ``fit_mle`` gives it alone.  It groups the rows by their number of
open centres and by whether those share one exposure, and each group
runs one damped-Newton pass, along the ray or in the plane, or goes
through ``fit_mle`` row by row where the rule in ``fit_rows`` says one
pass would not pay.  It keeps only the few numbers scoring reads: the
outcome, the summed true rate, the summed exposure, the total count,
the estimates and the posterior moments of the summed rate, the sums
each one array pass over the block.  Then it scores all of its
replications at once: pooling, the adjusted probabilities, every
quantile and both exact coverages run as array operations, boundary
replications through their limit laws beside the interior ones, all
through the library's ``predict.equal_tailed_interval``.

Neither the block nor the chunk boundaries nor the number of processes
can move a byte.  Each replication's numbers come from its own stream
and its own fit; a block's sums run along each trial's own row; the
array stage is elementwise, with no sum across replications, and its
quantile search reads the same points for a law whatever shares its
batch.  The only reduction across replications is the final average,
which always runs in replication order over the concatenated chunks.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ._elementwise import plain
from .asymptotics import time_horizon
from .distributions import (
    GammaParams,
    gamma_cdf,
    gamma_quantile,
    nb_quantile,
    pearson6_quantile,
    poisson_cdf,
    poisson_quantile,
    special,
)
from .model import (
    DegenerateLikelihood,
    TrialData,
    block_rows,
    fit_rows,
    summed_rate_moments,
)
from .predict import (
    COUNT,
    PooledPosterior,
    PredictionInterval,
    PredictionRequest,
    equal_tailed_interval,
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
    "replication_rngs",
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


def _require_positive_finite(**parameters) -> None:
    """Raise ValueError naming the first parameter that is not positive
    and finite."""
    for name, value in parameters.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SingleGamma:
    """All centre rates drawn from one gamma(alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _require_positive_finite(alpha=self.alpha, beta=self.beta)

    @property
    def largest_mean_rate(self) -> float:
        """The mean rate of a centre, alpha / beta."""
        return self.alpha / self.beta

    def sample_rates(self, rngs: Sequence[np.random.Generator], count: int) -> np.ndarray:
        standard = np.empty((len(rngs), count))
        for rng, row in zip(rngs, standard):
            rng.standard_gamma(self.alpha, out=row)
        # NumPy's gamma(alpha, 1 / beta) is its scale times the standard gamma
        standard *= 1.0 / self.beta
        return standard


@dataclass(frozen=True)
class GammaMixture:
    """Each centre picks rate beta1 or beta2 with equal probability."""

    alpha: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        _require_positive_finite(alpha=self.alpha, beta1=self.beta1, beta2=self.beta2)

    @property
    def largest_mean_rate(self) -> float:
        """The mean rate of the larger component, alpha / min(beta1, beta2)."""
        return self.alpha / min(self.beta1, self.beta2)

    def sample_rates(self, rngs: Sequence[np.random.Generator], count: int) -> np.ndarray:
        # a stream draws its centres' coins, then their standard gammas
        coins, standard = np.empty((2, len(rngs), count))
        for rng, coin, row in zip(rngs, coins, standard):
            rng.random(out=coin)
            rng.standard_gamma(self.alpha, out=row)
        return standard / np.where(coins < 0.5, self.beta2, self.beta1)


# a prior's sample_rates(rngs, count) gives ``count`` rates from each
# stream, one row per stream
RatePrior = Union[SingleGamma, GammaMixture]


@dataclass(frozen=True)
class Simultaneous:
    """Every centre open for the whole window."""

    def sample_openings(self, rngs: Sequence[np.random.Generator], count: int,
                        census_time: float) -> np.ndarray:
        return np.zeros((len(rngs), count))


@dataclass(frozen=True)
class UniformOnCensus:
    """Opening times drawn uniformly on [0, census]."""

    def sample_openings(self, rngs: Sequence[np.random.Generator], count: int,
                        census_time: float) -> np.ndarray:
        openings = np.empty((len(rngs), count))
        for rng, row in zip(rngs, openings):
            rng.random(out=row)
        # NumPy's uniform(0, census) is 0 + census times the same double
        openings *= census_time
        return openings


@dataclass(frozen=True)
class SplitHalf:
    """Half the centres open at 0, the rest exactly at census (zero exposure)."""

    def sample_openings(self, rngs: Sequence[np.random.Generator], count: int,
                        census_time: float) -> np.ndarray:
        openings = np.full((len(rngs), count), census_time)
        openings[:, : (count + 1) // 2] = 0.0
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

    def sample_openings(self, rngs: Sequence[np.random.Generator], count: int,
                        census_time: float) -> np.ndarray:
        self.check(count, census_time)
        return np.tile(self.opening_times, (len(rngs), 1))


# a schedule's sample_openings(rngs, count, census_time) gives a new array
# of ``count`` openings for each stream, one row per stream, which
# generate_trial turns into exposures in place
OpeningSchedule = Union[Simultaneous, UniformOnCensus, SplitHalf, Explicit]


def _poisson_accepts(mean: float) -> bool:
    """Whether NumPy's Poisson sampler accepts ``mean`` as a mean count:
    asked for no draw, it checks the mean against its own limit without
    touching any stream."""
    try:
        Generator(PCG64(0)).poisson(mean, size=0)
    except ValueError:
        return False
    return True


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
        mean = self.prior.largest_mean_rate * self.census_time
        if not _poisson_accepts(mean):
            raise ValueError(f"prior mean count per centre over the census, {mean:g}, is "
                             "past what numpy's Poisson sampler accepts")


@dataclass(frozen=True)
class CoverageReport:
    """Replication averages for one simulation cell (coverages in percent),
    each named as the table column it fills."""

    coverage_unadjusted: float
    coverage_adjusted: float
    width_unadjusted: float
    width_adjusted: float
    t_star: float
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


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), which
# replication_rngs runs over many entropy rows at once: a pool of four
# 32-bit words, filled and mixed with one hash-constant sequence (INIT_A
# times powers of MULT_A) and read out with another (INIT_B, MULT_B).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_WORD = 1 << 32


def _hash_constants(first: int, multiplier: int, count: int) -> np.ndarray:
    """The first ``count`` constants of a hash sequence, as a column."""
    return np.array([[first * pow(multiplier, k, _WORD) % _WORD] for k in range(count)],
                    dtype=np.uint32)


# the pool's fill and mix take 4 + 12 hash steps, and each entropy word
# past the pool 4 more, whose constants are the previous word's times
# MULT_A to the 4th
_FILL_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + 1) + 1)
_EXTRA_CONSTANTS = _FILL_CONSTANTS[_POOL * _POOL:]
_EXTRA_MULTIPLIER = np.uint32(pow(_MULT_A, _POOL, _WORD))
# generate_state(4, uint64) reads 8 words, cycling through the pool twice
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1)
# the mix step that hashes pool word k mixes it into every other word
_OTHER_WORDS = [np.flatnonzero(np.arange(_POOL) != k) for k in range(_POOL)]


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of one hash step per row of ``words``:
    step k xors constant k, multiplies by constant k + 1 and xors in the
    high half."""
    mixed = (words ^ constants[:-1]) * constants[1:]
    return mixed ^ (mixed >> _SHIFT)


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    mixed = _MIX_LEFT * pool - _MIX_RIGHT * hashed
    return mixed ^ (mixed >> _SHIFT)


def _pcg64_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, np.uint64)`` for each
    column of ``entropy``, a (words, streams) uint32 array; one row each."""
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, _FILL_CONSTANTS[:_POOL + 1])
    for source, others in enumerate(_OTHER_WORDS):
        step = _POOL + (_POOL - 1) * source
        hashed = _hashmix(pool[source], _FILL_CONSTANTS[step:step + _POOL])
        pool[others] = _mix(pool[others], hashed)
    constants = _EXTRA_CONSTANTS
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, constants))
        constants = constants * _EXTRA_MULTIPLIER
    state = _hashmix(np.concatenate([pool, pool]), _STATE_CONSTANTS)
    # SeedSequence reads word pairs little-endian whatever the host's order
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _HashedState(ISeedSequence):
    """A seed source holding one stream's hashed state, which it hands to
    ``PCG64``'s one request, ``generate_state(4, np.uint64)``."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("a hashed state holds PCG64's 4 uint64 words only")
        return self.state


def _word_bytes(value: int) -> int:
    """The number of bytes in ``value``'s 32-bit words, at least one word."""
    return 4 * max(1, -(-value.bit_length() // 32))


def replication_rngs(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """Independent streams for replications ``start`` up to ``stop``.

    Stream i is bit for bit ``np.random.default_rng([seed, i])``: its
    entropy is ``seed``'s 32-bit words then ``i``'s, as ``SeedSequence``
    coerces them, and ``SeedSequence``'s hash runs over all the rows of
    indices with one word count as uint32 array arithmetic.  A negative
    seed or index raises ValueError, as it does in ``default_rng``.
    """
    seed, start, stop = operator.index(seed), operator.index(start), operator.index(stop)
    if seed < 0 or start < 0:
        raise ValueError("expected non-negative integer")
    head = seed.to_bytes(_word_bytes(seed), "little")
    rngs = []
    while start < stop:
        width = _word_bytes(start)
        end = min(stop, 1 << (8 * width))
        rows = b"".join(head + i.to_bytes(width, "little") for i in range(start, end))
        entropy = np.frombuffer(rows, dtype="<u4").astype(np.uint32).reshape(end - start, -1)
        rngs += [Generator(PCG64(_HashedState(state))) for state in _pcg64_states(entropy.T)]
        start = end
    return rngs


def generate_trial(config: SimConfig, rngs: Sequence[np.random.Generator]
                   ) -> tuple[np.ndarray, TrialData]:
    """Draw one trial from each generator; returns the true rates and the
    censored data, as a batch with one row per generator.

    Each generator draws its trial's openings, then its rates, then its
    counts, so that two schedules consuming the same amount of randomness
    stay comparable under a common seed.  Row i of the rates and
    ``data[i]`` are the trial drawn from ``rngs[i]``, whatever the other
    generators; a single trial is the batch of one,
    ``generate_trial(config, [rng])``, read as row 0.  The schedule and
    the prior each fill a whole block, every stream writing only its own
    row, and the exposures and the Poisson means are one array operation
    each; only the counts take one ``poisson`` call per stream.  A block
    whose largest mean is past NumPy's Poisson range is refused before any
    stream draws a count.  In the harness ``rngs`` are a block's streams
    from one ``replication_rngs(config.seed, start, stop)`` call, seeded
    in one pass, each bit for bit ``np.random.default_rng([config.seed, i])``.
    """
    openings = config.schedule.sample_openings(rngs, config.centres, config.census_time)
    exposures = np.subtract(config.census_time, openings, out=openings)
    rates = config.prior.sample_rates(rngs, config.centres)
    means = rates * exposures
    # a heavy-tailed prior can draw a rate far past its mean
    if not _poisson_accepts(means.max(initial=0.0)):
        raise ValueError(
            f"prior {config.prior} drew a centre rate whose mean count over the census "
            f"{config.census_time:g} is past what numpy's Poisson sampler accepts")
    # each stream's counts overwrite its own row of means once its Poisson
    # call has read it, so the block needs no counts array of its own; with
    # one more block-sized array, the allocator handed each block fresh
    # pages, about 140 page faults a block of 200 trials of 150 centres
    counts = means.view(np.int64)
    for rng, mean, row in zip(rngs, means, counts):
        row[:] = rng.poisson(mean)
    return rates, TrialData.from_arrays(config.census_time, exposures, counts)


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
    summed rate as a one-centre row.  One cdf call reads both ends of
    the interval, stacked.
    """
    total_rate = np.sum(rates, axis=-1)
    cdf = _target_cdf(objective, horizon, total_rate)
    # a count interval [lower, upper) traps lower <= N <= upper - 1
    below = 1 if objective == COUNT else 0
    ends = np.stack(np.broadcast_arrays(interval.upper, interval.lower, total_rate)[:2])
    upper, lower = cdf(np.subtract(ends, below))
    return plain(upper - lower)


def _boundary_intervals(config: SimConfig, request: PredictionRequest,
                        total_count: np.ndarray, exposure_sum: np.ndarray
                        ) -> PredictionInterval:
    """Plug-in and adjusted intervals at the monotone-likelihood limit.

    Along the ray alpha/beta = n/sum(t) the pooled pseudo-exposure tends
    to the mean exposure over centres and the pseudo-count to the total
    observed, so the predictive laws collapse to a Poisson count (or a
    gamma waiting time) at the overall rate, and the adjusted levels are
    those of ``asymptotics.content_limit`` at beta = inf.  Elementwise
    over trials given by their total counts and summed exposures; with
    the chunk's ``request`` for both kinds, the bounds' first axis holds
    the plug-in interval, then the adjusted one.
    """
    rate = total_count / exposure_sum
    pooled_rate = rate * config.centres
    if config.objective == COUNT:
        quantile = partial(poisson_quantile, mean=pooled_rate * config.horizon)
        x = config.horizon
    else:
        quantile = partial(gamma_quantile,
                           params=GammaParams(shape=float(config.horizon), rate=pooled_rate))
        # for times x = m beta / alpha, and alpha / beta tends to rate
        x = time_horizon(config.horizon / config.centres, rate, 1.0)
    return equal_tailed_interval(quantile, request, x, math.inf, exposure_sum / config.centres)


# What a replication's fit leaves for scoring, one float column each: the
# summed true rate, the summed exposure and the total count, then for an
# interior fit its estimates and the posterior mean and variance of the
# summed rate.  Beside them, "kind" holds fit_rows' kind of outcome.
_FIT_COLUMNS = ("total_rate", "exposure_sum", "total_count", "alpha", "beta", "mean",
                "variance")
# the plug-in interval, then the adjusted one, for every trial of a batch
_BOTH_KINDS = np.array([[False], [True]])


def _fit_chunk(config: SimConfig, bounds: tuple[int, int]) -> dict[str, np.ndarray]:
    """Draw and fit replications ``bounds[0]`` up to ``bounds[1]``: each
    column of ``_FIT_COLUMNS``, and ``"kind"``, with one entry per
    replication in order.

    ``kind`` is each row's outcome kind in the ``ModelFit`` that
    ``fit_rows`` returns.  A trial that recruits nobody
    ("insufficient") is dropped.  A monotone likelihood ("boundary"), or
    an interior search that stalled on the near-boundary ridge
    ("nonconverged"), is a boundary replication: its limit laws are
    indistinguishable from the stalled fit's.  Only an interior
    replication ("ok") has estimates and posterior moments; the other
    columns hold every replication's values.
    """
    first, stop = bounds
    fits = {name: np.full(stop - first, math.nan) for name in _FIT_COLUMNS}
    kinds = []
    # a block's trials are drawn, checked and fitted as one batch, in
    # near-equal blocks of at most block_rows, which bounds the memory of
    # a chunk's draws whatever its length and whatever the number of
    # centres, and lets no short last block fall below the row bound of
    # fit_rows' batched pass
    blocks = math.ceil((stop - first) / block_rows(config.centres))
    for index in range(blocks):
        start = first + index * (stop - first) // blocks
        end = first + (index + 1) * (stop - first) // blocks
        rates, data = generate_trial(config, replication_rngs(config.seed, start, end))
        block = {name: column[start - first:end - first] for name, column in fits.items()}
        block["total_rate"][:] = rates.sum(axis=1)
        block["exposure_sum"][:] = data.exposures.sum(axis=1)
        block["total_count"][:] = data.counts.sum(axis=1)
        outcome = fit_rows(data)
        kinds.append(outcome.kind)
        interior = np.flatnonzero(outcome.kind == "ok")
        block["alpha"][interior] = outcome.alpha_hat[interior]
        block["beta"][interior] = outcome.beta_hat[interior]
        block["mean"][interior], block["variance"][interior] = summed_rate_moments(
            block["alpha"][interior, None], block["beta"][interior, None],
            data.exposures[interior], data.counts[interior])
    fits["kind"] = np.concatenate(kinds)
    return fits


def _interior_pool(config: SimConfig, fits: dict[str, np.ndarray],
                   interior: np.ndarray) -> PooledPosterior:
    """The pools of the interior replications, as one batch."""
    return pool_moments(fits["mean"][interior], fits["variance"][interior], config.centres,
                        fits["alpha"][interior], fits["beta"][interior])


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
    interior = np.flatnonzero(fits["kind"] == "ok")
    boundary = np.flatnonzero(np.isin(fits["kind"], ("boundary", "nonconverged")))
    request = PredictionRequest(config.objective, config.horizon, config.level,
                                adjusted=_BOTH_KINDS)
    if interior.size:
        pool = _interior_pool(config, fits, interior)
        _score(rows, interior, prediction_interval(pool, request), fits, config)
        rows[interior, 4] = pool.t_star
        rows[interior, 5] = pool.t_star / mean_exposure[interior]
        rows[interior, 6] = pool.n_star / fits["total_count"][interior]
        rows[interior, 7] = 0.0
    if boundary.size:
        both = _boundary_intervals(config, request, fits["total_count"][boundary],
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
    interior = np.flatnonzero(fits["kind"] == "ok")
    if interior.size == 0:
        return contents
    pool = _interior_pool(config, fits, interior)
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
    """The chunks' rows for replications 0 up to ``total``, in order.

    The process pool is imported only here, where one starts.  Before it
    starts, the parent loads SciPy (``distributions.special``), so that
    forked workers inherit it instead of each importing it again, once per
    table row.
    """
    workers, bounds = _worker_plan(total, workers)
    if workers == 1:
        return np.concatenate([chunk_fn(b) for b in bounds])
    from concurrent.futures import ProcessPoolExecutor
    special()
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
        t_star=means[4],
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
