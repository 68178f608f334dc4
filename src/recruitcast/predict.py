"""Prediction intervals for future recruitment.

Pooling the per-centre rate posteriors by moment matching gives a single
gamma law for the summed rate, with effective exposure t* and effective
count n*.  Future totals then follow closed forms: the count over a new
horizon is negative binomial, and the waiting time to a target number of
recruits is Pearson VI.  Plug-in intervals read quantiles straight off
those laws; adjusted intervals first widen the quantile probabilities to
undo the coverage loss from estimating (alpha, beta), using the limiting
distribution of the interval's true content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special

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

    ``shape``/``rate`` are the gamma parameters; ``t_star`` = rate - beta
    is the effective common exposure and ``n_star`` = shape - C alpha the
    effective total count, with C = ``centres``.  With equal exposures
    these reduce to the actual exposure and count.
    """

    n_star: float
    t_star: float
    shape: float
    rate: float
    centres: int


@dataclass(frozen=True)
class PredictionRequest:
    """What to predict: a count over a time horizon, or a time to a count."""

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
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.objective == TIME and self.horizon != int(self.horizon):
            raise ValueError(f"a time objective needs an integer target count, got {self.horizon}")


@dataclass(frozen=True)
class PredictionInterval:
    lower: float
    upper: float
    nominal_level: float
    probs_used: tuple[float, float]


def pool_centres(data: TrialData, fit: ModelFit) -> PooledPosterior:
    """Collapse per-centre posteriors into one gamma by moment matching."""
    mean, variance = posterior_rate_moments(data, fit)
    rate = mean / variance
    shape = mean * mean / variance
    return PooledPosterior(
        n_star=shape - data.num_centres * fit.alpha_hat,
        t_star=rate - fit.beta_hat,
        shape=shape,
        rate=rate,
        centres=data.num_centres,
    )


def predictive_count_law(pool: PooledPosterior, horizon: float) -> NegBinParams:
    """Law of the number recruited in the ``horizon`` after census."""
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return NegBinParams(size=pool.shape, prob=horizon / (pool.rate + horizon))


def predictive_time_law(pool: PooledPosterior, target: int) -> Pearson6Params:
    """Law of the waiting time past census until ``target`` more recruits."""
    if not (target > 0 and target == int(target)):
        raise ValueError(f"target count must be a positive integer, got {target}")
    return Pearson6Params(shape_num=float(target), shape_den=pool.shape, scale=pool.rate)


def adjust_probability_count(p: float, beta: float, exposure: float, horizon: float) -> float:
    """Widened quantile probability for count intervals.

    Maps p through the limiting law of the plug-in interval's content:
    p* = Phi( sqrt((beta + t)(t + s) / (t (beta + t + s))) * invPhi(p) )
    with t the effective exposure and s the horizon.  At beta = 0 the
    factor is one and p is returned unchanged.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    if not (exposure > 0 and horizon > 0):
        raise ValueError("exposure and horizon must be positive")
    if beta == 0.0:
        return float(p)
    factor = math.sqrt((beta + exposure) * (exposure + horizon)
                       / (exposure * (beta + exposure + horizon)))
    return float(special.ndtr(factor * special.ndtri(p)))


def adjust_probability_time(p: float, alpha: float, beta: float,
                            exposure: float, mean_target: float) -> float:
    """Widened quantile probability for time-to-target intervals.

    Same construction as the count case but driven by the time objective's
    limit law: with a = target / C,

        c^2 = a beta / (alpha t),   s^2 = 1 + (a / alpha) beta / (beta + t),
        p* = Phi( sqrt((1 + c^2) / s^2) * invPhi(p) ).

    At beta = 0 both c and the extra variance vanish and p is unchanged.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if not (alpha > 0 and mean_target > 0 and exposure > 0):
        raise ValueError("alpha, exposure and mean target must be positive")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    if beta == 0.0:
        return float(p)
    c_sq = mean_target * beta / (alpha * exposure)
    s_sq = 1.0 + (mean_target / alpha) * beta / (beta + exposure)
    return float(special.ndtr(math.sqrt((1.0 + c_sq) / s_sq) * special.ndtri(p)))


def prediction_interval(pool: PooledPosterior, fit: ModelFit,
                        request: PredictionRequest) -> PredictionInterval:
    """Equal-tailed prediction interval at the requested level.

    ``pool`` is ``pool_centres(data, fit)``, computed once and shared by
    every interval read off the same fit.  Counts give an integer interval
    [lower, upper] inclusive of both ends; times give a real interval.
    With ``request.adjusted`` the tail probabilities are widened before
    the quantiles are read off.
    """
    p_lo = (1.0 - request.level) / 2.0
    p_hi = 1.0 - p_lo
    if request.adjusted:
        if request.objective == COUNT:
            p_lo = adjust_probability_count(p_lo, fit.beta_hat, pool.t_star, request.horizon)
            p_hi = adjust_probability_count(p_hi, fit.beta_hat, pool.t_star, request.horizon)
        else:
            mean_target = request.horizon / pool.centres
            p_lo = adjust_probability_time(p_lo, fit.alpha_hat, fit.beta_hat,
                                           pool.t_star, mean_target)
            p_hi = adjust_probability_time(p_hi, fit.alpha_hat, fit.beta_hat,
                                           pool.t_star, mean_target)
    if request.objective == COUNT:
        law = predictive_count_law(pool, request.horizon)
        lower = float(nb_quantile(p_lo, law))
        upper = float(nb_quantile(p_hi, law))
    else:
        law = predictive_time_law(pool, int(request.horizon))
        lower = pearson6_quantile(p_lo, law)
        upper = pearson6_quantile(p_hi, law)
    return PredictionInterval(lower=lower, upper=upper,
                              nominal_level=request.level,
                              probs_used=(p_lo, p_hi))
