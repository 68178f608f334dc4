"""Limit laws for interval content and gamma-sum cumulant checks.

As the number of centres grows, the true probability content of a
plug-in p-quantile does not settle at its nominal p: it converges to

    W = Phi(c Z + g invPhi(p)),   Z standard normal.

Both objectives share one form.  With t the effective exposure and x the
horizon in time units (x = s for the count over a horizon s, and
x = m beta / alpha for the time to m more recruits per centre),

    c^2 = x / t,   g^2 = 1 + x / (beta + t).

Since E[Phi(c Z + d)] = Phi(d / sqrt(1 + c^2)), the level whose
limiting mean content is p is

    p* = Phi(invPhi(p) sqrt(1 + c^2) / g)
       = Phi(invPhi(p) sqrt((beta + t)(t + x) / (t (beta + t + x)))),

the adjusted level of :mod:`recruitcast.predict`.  Where the likelihood
is monotone, alpha and beta grow without bound at a fixed ratio; the
same form then holds at beta = inf, with g = 1 and the factor
sqrt((t + x) / t).  ``content_limit`` is the one place these closed
forms are written; the limit laws, both probability adjustments and the
simulation harness's boundary intervals all read them from there.

The second half of the module handles sums of independent gamma
variables: exact cumulants, the moment-matched gamma approximation, and
the ordering check showing the matched law is never more skewed than the
true sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._elementwise import every, sqrt, where
from .distributions import GammaParams, special

__all__ = [
    "LimitLaw",
    "GammaCollection",
    "CumulantCheck",
    "content_limit",
    "time_horizon",
    "count_limit_law",
    "time_limit_law",
    "limit_prob_cdf",
    "limit_prob_density",
    "sum_gamma_cumulant",
    "moment_matched_gamma",
    "verify_cumulant_ordering",
]

# Factorials overflow comfortably before j = 171; switch the cumulant
# accumulation to log space well before that.
_LOG_SPACE_ORDER = 20


@dataclass(frozen=True)
class LimitLaw:
    """Parameters of W = Phi(c Z + d), the limit of a quantile's content."""

    c: float
    d: float
    objective: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"slope c must be positive and finite, got {self.c}")
        if not math.isfinite(self.d):
            raise ValueError(f"shift d must be finite, got {self.d}")


@np.errstate(over="ignore", invalid="ignore")
def content_limit(p, x, beta, t):
    """(c, d, p*): the p-quantile's content limit Phi(c Z + d) and the
    adjusted level p*, as in the module docstring.

    ``x`` is the horizon in time units, ``beta`` the rate parameter (inf
    at the boundary) and ``t`` the effective exposure; d = g invPhi(p).
    At beta = 0 the adjustment is the identity and p* is p itself.
    Elementwise over arrays.  A horizon past the float range gives a NaN
    p* without a NumPy warning, as one trial's floats do; an interval
    refuses that level by name (``predict.equal_tailed_interval``).
    """
    if not every((0.0 < p) & (p < 1.0)):
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if not every(beta >= 0):
        raise ValueError(f"beta must be non-negative, got {beta}")
    if not every((t > 0) & (x >= 0)):
        raise ValueError("exposure must be positive and the horizon non-negative")
    z = special().ndtri(p)
    c = sqrt(x / t)
    d = z * sqrt(1.0 + x / (beta + t))
    # the product form of (1 + c^2) / g^2 keeps the last bit best; at
    # beta = inf its limit (t + x) / t stands in
    finite = beta < math.inf
    b = where(finite, beta, 0.0)
    widening = where(finite, (b + t) * (t + x) / (t * (b + t + x)), (t + x) / t)
    return c, d, where(beta == 0.0, p, special().ndtr(sqrt(widening) * z))


@np.errstate(over="ignore")
def time_horizon(mean_target, alpha, beta):
    """x for the time to ``mean_target`` more recruits per centre:
    mean_target beta / alpha.  Elementwise over arrays; past the float
    range it is inf, without a NumPy warning."""
    if not every((alpha > 0) & (mean_target > 0)):
        raise ValueError("alpha and the mean target must be positive")
    return mean_target * beta / alpha


def count_limit_law(p: float, beta: float, exposure: float, horizon: float) -> LimitLaw:
    """Limit law of the p-quantile's content for the count objective (x = horizon)."""
    c, d, _ = content_limit(p, horizon, beta, exposure)
    return LimitLaw(c=c, d=float(d), objective="count")


def time_limit_law(p: float, alpha: float, beta: float,
                   exposure: float, mean_target: float) -> LimitLaw:
    """Limit law of the p-quantile's content for the time objective, with
    ``mean_target`` the target count per centre (x = mean_target beta / alpha)."""
    c, d, _ = content_limit(p, time_horizon(mean_target, alpha, beta), beta, exposure)
    return LimitLaw(c=c, d=float(d), objective="time")


def limit_prob_cdf(w, law: LimitLaw):
    """P(W <= w) for W = Phi(c Z + d); accepts scalars or arrays in [0, 1]."""
    w = np.asarray(w, dtype=float)
    if np.any((w < 0) | (w > 1)):
        raise ValueError("w must lie in [0, 1]")
    out = special().ndtr((special().ndtri(w) - law.d) / law.c)
    out = np.where(w <= 0, 0.0, out)
    out = np.where(w >= 1, 1.0, out)
    return float(out) if out.ndim == 0 else out


def limit_prob_density(w, law: LimitLaw):
    """Density of W on (0, 1), computed in log space to keep the tails clean."""
    w = np.asarray(w, dtype=float)
    if np.any((w <= 0) | (w >= 1)):
        raise ValueError("the density lives on the open interval (0, 1)")
    u = special().ndtri(w)
    z = (u - law.d) / law.c
    log_density = 0.5 * (u * u - z * z) - math.log(law.c)
    out = np.exp(log_density)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GammaCollection:
    """Ordered shapes and rates of independent gamma summands."""

    shapes: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shapes", tuple(float(s) for s in self.shapes))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.shapes) != len(self.rates):
            raise ValueError("shapes and rates must have equal length")
        if len(self.shapes) == 0:
            raise ValueError("at least one component is required")
        if any(not (math.isfinite(s) and s > 0) for s in self.shapes):
            raise ValueError("all shapes must be positive and finite")
        if any(not (math.isfinite(r) and r > 0) for r in self.rates):
            raise ValueError("all rates must be positive and finite")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "GammaCollection":
        pairs = list(pairs)
        return cls(shapes=tuple(p[0] for p in pairs), rates=tuple(p[1] for p in pairs))


def sum_gamma_cumulant(order: int, collection: GammaCollection) -> float:
    """j-th cumulant of the sum: (j - 1)! * sum_i shape_i / rate_i**j."""
    if order < 1 or order != int(order):
        raise ValueError(f"cumulant order must be a positive integer, got {order}")
    shapes = np.asarray(collection.shapes)
    rates = np.asarray(collection.rates)
    if order <= _LOG_SPACE_ORDER:
        return float(math.factorial(order - 1) * np.sum(shapes / rates**order))
    log_terms = np.log(shapes) - order * np.log(rates)
    return float(math.exp(special().gammaln(order) + special().logsumexp(log_terms)))


def moment_matched_gamma(mean, variance) -> GammaParams:
    """The gamma law with the given mean and variance: shape
    mean^2 / variance, rate mean / variance.  Elementwise over arrays."""
    return GammaParams(shape=mean * mean / variance, rate=mean / variance)


@dataclass(frozen=True)
class CumulantCheck:
    order: int
    sum_cumulant: float
    matched_cumulant: float
    gap: float
    ok: bool


def verify_cumulant_ordering(collection: GammaCollection,
                             max_order: int) -> list[CumulantCheck]:
    """Check 0 < kappa_j(matched) <= kappa_j(sum) for every order 3..max_order.

    The matched gamma agrees on orders 1 and 2 and can only fall short
    beyond that (equality holds when all rates coincide).
    """
    if max_order < 3:
        raise ValueError(f"max_order must be at least 3, got {max_order}")
    matched = moment_matched_gamma(sum_gamma_cumulant(1, collection),
                                   sum_gamma_cumulant(2, collection))
    single = GammaCollection(shapes=(matched.shape,), rates=(matched.rate,))
    checks = []
    for order in range(3, max_order + 1):
        total = sum_gamma_cumulant(order, collection)
        approx = sum_gamma_cumulant(order, single)
        gap = total - approx
        ok = approx > 0 and approx <= total * (1.0 + 1e-9)
        checks.append(CumulantCheck(order=order, sum_cumulant=total,
                                    matched_cumulant=approx, gap=gap, ok=ok))
    return checks
