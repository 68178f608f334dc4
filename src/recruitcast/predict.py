"""Prediction intervals for future recruitment.

Pooling the per-centre rate posteriors by moment matching gives a single
gamma law for the summed rate, with effective exposure t* and effective
count n*.  Future totals then follow closed forms: the count over a new
horizon is negative binomial, and the waiting time to a target number of
recruits is Pearson VI.  Plug-in intervals read quantiles straight off
those laws; adjusted intervals first widen the quantile probabilities to
undo the coverage loss from estimating (alpha, beta), using the limiting
distribution of the interval's true content
(:func:`recruitcast.asymptotics.content_limit`, whose module docstring
derives the adjusted level for both objectives).

Pooling, the adjustments and ``prediction_interval`` also take arrays,
one entry per trial, so the simulation harness scores a batch of trials
in one pass; a single forecast is the one-trial case of the same code.
The harness's boundary intervals share ``equal_tailed_interval`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._elementwise import is_batch, negate, plain, some, where
from .asymptotics import content_limit, moment_matched_gamma, time_horizon
from .distributions import (
    NegBinParams,
    Pearson6Params,
    nb_quantile,
    pearson6_quantile,
)
from .model import ModelFit, TrialData, posterior_rate_moments

__all__ = [
    "COUNT",
    "TIME",
    "PooledPosterior",
    "PredictionRequest",
    "PredictionInterval",
    "pool_centres",
    "pool_moments",
    "predictive_count_law",
    "predictive_time_law",
    "adjust_probability_count",
    "adjust_probability_time",
    "prediction_interval",
]

COUNT = "count"
TIME = "time"


@dataclass(frozen=True)
class PooledPosterior:
    """Moment-matched gamma posterior for the summed centre rates.

    ``shape``/``rate`` are the gamma parameters, matched at the estimates
    ``alpha_hat``/``beta_hat``; ``t_star`` = rate - beta is the effective
    common exposure and ``n_star`` = shape - C alpha the effective total
    count, with C = ``centres``.  With equal exposures these reduce to
    the actual exposure and count.
    """

    shape: float
    rate: float
    centres: int
    alpha_hat: float
    beta_hat: float

    @property
    def t_star(self):
        return self.rate - self.beta_hat

    @property
    def n_star(self):
        return self.shape - self.centres * self.alpha_hat


@dataclass(frozen=True)
class PredictionRequest:
    """What to predict: a count over a time horizon, or a time to a count.

    ``adjusted`` asks for the adjusted interval rather than the plug-in
    one.  An array of booleans asks for a batch of both kinds at once,
    broadcasting like the other batch inputs of ``prediction_interval``.
    """

    objective: str
    horizon: float
    level: float
    adjusted: bool = False

    def __post_init__(self) -> None:
        if self.objective not in (COUNT, TIME):
            raise ValueError(f"objective must be {COUNT!r} or {TIME!r}, got {self.objective!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.objective == TIME and self.horizon != int(self.horizon):
            raise ValueError(f"a time objective needs an integer target count, got {self.horizon}")


@dataclass(frozen=True)
class PredictionInterval:
    """An equal-tailed interval for the count or the time.

    A count interval is half-open: it traps the counts N with
    lower <= N < upper, that is [lower, upper).  A time interval is the
    real interval from lower to upper.
    """

    lower: float
    upper: float
    nominal_level: float
    probs_used: tuple[float, float]


def pool_centres(data: TrialData, fit: ModelFit) -> PooledPosterior:
    """Collapse per-centre posteriors into one gamma by moment matching."""
    mean, variance = posterior_rate_moments(data, fit)
    return pool_moments(mean, variance, data.num_centres, fit.alpha_hat, fit.beta_hat)


def pool_moments(mean, variance, centres: int, alpha_hat, beta_hat) -> PooledPosterior:
    """The gamma with the given mean and variance of the summed rates.

    The moments were taken at the estimates ``alpha_hat`` and
    ``beta_hat``.  Elementwise: the moments and the estimates may be
    arrays, one entry per trial of a batch of trials with ``centres``
    centres each.
    """
    matched = moment_matched_gamma(mean, variance)
    return PooledPosterior(shape=matched.shape, rate=matched.rate, centres=centres,
                           alpha_hat=alpha_hat, beta_hat=beta_hat)


def predictive_count_law(pool: PooledPosterior, horizon: float) -> NegBinParams:
    """Law of the number recruited in the ``horizon`` after census; refuses
    a horizon at which its prob, horizon / (rate + horizon), rounds to 1."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    prob = horizon / (pool.rate + horizon)
    if some(prob >= 1.0):
        raise ValueError(f"horizon {horizon:g} is too long for the pooled posterior: "
                         "horizon / (rate + horizon) rounds to 1")
    return NegBinParams(size=pool.shape, prob=prob)


def predictive_time_law(pool: PooledPosterior, target: int) -> Pearson6Params:
    """Law of the waiting time past census until ``target`` more recruits."""
    if not (target > 0 and target == int(target)):
        raise ValueError(f"target count must be a positive integer, got {target}")
    return Pearson6Params(shape_num=float(target), shape_den=pool.shape, scale=pool.rate)


def adjust_probability_count(p, beta, exposure, horizon):
    """Widened quantile probability for count intervals: the adjusted
    level p* of ``content_limit`` with x = ``horizon`` and t the effective
    exposure.  At beta = 0 p is returned unchanged.  Elementwise over arrays.
    """
    return plain(content_limit(p, horizon, beta, exposure)[2])


def adjust_probability_time(p, alpha, beta, exposure, mean_target):
    """Widened quantile probability for time-to-target intervals: the
    adjusted level p* of ``content_limit`` with x = a beta / alpha, where
    a = target / C is ``mean_target``.  At beta = 0 p is returned
    unchanged.  Elementwise over arrays.
    """
    x = time_horizon(mean_target, alpha, beta)
    return plain(content_limit(p, x, beta, exposure)[2])


def equal_tailed_interval(quantile, request: PredictionRequest, x, beta,
                          exposure) -> PredictionInterval:
    """Equal-tailed interval at ``request.level`` of the law with this
    ``quantile`` function.  Where ``request.adjusted`` holds, the tail
    probabilities are first widened to the adjusted levels of
    ``content_limit(p, x, beta, exposure)``; ``x`` is read only there, and
    an adjusted level that rounds to 0 or 1, or is NaN because ``x`` is
    past the float range, is refused before any quantile is read.
    Integer quantiles give a count interval, read under the half-open
    convention of ``PredictionInterval``.

    Elementwise: ``request.adjusted``, ``x``, ``beta``, ``exposure`` and
    the law behind ``quantile`` may be arrays, which broadcast together
    into a batch of intervals, whose law has the shape of ``beta`` and
    ``exposure``.  A batch reads both tails in one ``quantile`` call on
    its levels stacked, one search for the lower and the upper bounds in
    lockstep; the bounds are then float arrays, and so are the
    probabilities wherever they vary across the batch.  With scalars
    throughout, the same lines run on floats, one call a tail, and give
    floats: for one law two scalar calls cost a third of one call on two
    levels.
    """
    level, adjusted = request.level, request.adjusted
    p_lo = (1.0 - level) / 2.0
    p_hi = 1.0 - p_lo
    if some(adjusted):
        p_lo, p_hi = (where(adjusted, content_limit(p, x, beta, exposure)[2], p)
                      for p in (p_lo, p_hi))
        past = negate((p_lo > 0.0) & (p_hi < 1.0))  # NaN included
        if some(past):
            raise ValueError(_past_resolution(request, np.max(np.where(past, x / exposure, 0.0))))
    if is_batch(p_lo) or is_batch(beta) or is_batch(exposure):
        lower, upper = quantile(np.stack(np.broadcast_arrays(p_lo, p_hi, beta, exposure)[:2]))
    else:
        lower, upper = quantile(p_lo), quantile(p_hi)
    return PredictionInterval(lower=plain(lower), upper=plain(upper),
                              nominal_level=level, probs_used=(plain(p_lo), plain(p_hi)))


def _past_resolution(request: PredictionRequest, reach) -> str:
    """Why an adjusted interval is refused.  A count horizon is named by
    ``reach``, its multiple of the effective exposure, which is what sends
    the level to 0 or 1 and which no change of time unit moves."""
    span = (f"to target count {request.horizon:g}" if request.objective == TIME
            else f"over a horizon {reach:.4g} times the effective exposure")
    return (f"adjusted {request.objective} interval at level {request.level:g} {span}: "
            "the adjusted tail is past float resolution (its quantile level rounds to 0 or 1)")


def prediction_interval(pool: PooledPosterior, request: PredictionRequest) -> PredictionInterval:
    """Equal-tailed prediction interval at the requested level.

    ``pool`` is ``pool_centres(data, fit)``, computed once and shared by
    every interval read off the same fit.  Counts are read off the
    negative binomial law with x the horizon, times off the Pearson VI
    law with x = a beta / alpha for a = target / C.  The pool's fields and
    ``request.adjusted`` may be arrays, as in ``equal_tailed_interval``.
    """
    adjusted = request.adjusted
    if request.objective == COUNT:
        law = predictive_count_law(pool, request.horizon)
        quantile, x = partial(nb_quantile, params=law), request.horizon
    else:
        law = predictive_time_law(pool, int(request.horizon))
        quantile = partial(pearson6_quantile, params=law)
        x = (time_horizon(request.horizon / pool.centres, pool.alpha_hat, pool.beta_hat)
             if some(adjusted) else None)
    return equal_tailed_interval(quantile, request, x, pool.beta_hat, pool.t_star)
