"""Distribution kernels for the recruitment model.

Covers the four families the rest of the package needs: gamma and Poisson
for the data-generating process, negative binomial with real-valued size
for predicted counts, and Pearson type VI for predicted waiting times.
CDFs are built on the regularized incomplete beta/gamma functions;
discrete quantiles invert the CDF by bracketing from the normal
approximation and bisecting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "GammaParams",
    "NegBinParams",
    "Pearson6Params",
    "nb_cdf",
    "nb_quantile",
    "pearson6_cdf",
    "pearson6_quantile",
    "gamma_cdf",
    "gamma_quantile",
    "poisson_cdf",
    "poisson_quantile",
]

# Below this size the betainc route loses accuracy (its first parameter is
# nearly zero), so the CDF falls back to direct pmf summation.
_TINY_SIZE = 1e-3


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_level(q: float) -> None:
    _require(0.0 < q < 1.0, f"quantile level must lie in (0, 1), got {q}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution in the shape/rate parameterization."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        _require(math.isfinite(self.shape) and self.shape > 0,
                 f"gamma shape must be positive and finite, got {self.shape}")
        _require(math.isfinite(self.rate) and self.rate > 0,
                 f"gamma rate must be positive and finite, got {self.rate}")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate**2


@dataclass(frozen=True)
class NegBinParams:
    """Negative binomial: number of successes before ``size`` failures.

    ``size`` may be any positive real; ``prob`` is the success probability.
    pmf(j) = Gamma(size + j) / (Gamma(size) j!) * prob**j * (1 - prob)**size.
    """

    size: float
    prob: float

    def __post_init__(self) -> None:
        _require(math.isfinite(self.size) and self.size > 0,
                 f"negative binomial size must be positive and finite, got {self.size}")
        _require(0.0 < self.prob < 1.0,
                 f"negative binomial prob must lie in (0, 1), got {self.prob}")

    @property
    def mean(self) -> float:
        return self.size * self.prob / (1.0 - self.prob)

    @property
    def variance(self) -> float:
        return self.size * self.prob / (1.0 - self.prob) ** 2


@dataclass(frozen=True)
class Pearson6Params:
    """Pearson type VI (beta prime scaled by ``scale``).

    density(x) proportional to (x/scale)**(shape_num - 1)
    * (1 + x/scale)**(-(shape_num + shape_den)) on x > 0.
    """

    shape_num: float
    shape_den: float
    scale: float

    def __post_init__(self) -> None:
        _require(math.isfinite(self.shape_num) and self.shape_num > 0,
                 f"shape_num must be positive and finite, got {self.shape_num}")
        _require(math.isfinite(self.shape_den) and self.shape_den > 0,
                 f"shape_den must be positive and finite, got {self.shape_den}")
        _require(math.isfinite(self.scale) and self.scale > 0,
                 f"scale must be positive and finite, got {self.scale}")

    @property
    def mean(self) -> float:
        """Defined for shape_den > 1."""
        _require(self.shape_den > 1, "mean requires shape_den > 1")
        return self.scale * self.shape_num / (self.shape_den - 1.0)

    @property
    def variance(self) -> float:
        """Defined for shape_den > 2."""
        _require(self.shape_den > 2, "variance requires shape_den > 2")
        a, b = self.shape_num, self.shape_den
        return self.scale**2 * a * (a + b - 1.0) / ((b - 1.0) ** 2 * (b - 2.0))


def nb_cdf(k: float, params: NegBinParams) -> float:
    """P(X <= floor(k)) for X negative binomial; 0 for k < 0.

    Uses the regularized incomplete beta identity
    P(X <= k) = I_{1-prob}(size, k + 1), with a pmf-summation fallback for
    very small ``size`` where betainc degrades.
    """
    k = math.floor(k)
    if k < 0:
        return 0.0
    if params.size < _TINY_SIZE:
        # Such a law puts all but a few per cent of its mass at 0, so the
        # cdf is 1 - (P(X > 0) - pmf(1..k)), with P(X > 0) from expm1.
        # Summed up from pmf(0) instead, it stalls a few ulps short of 1
        # and a quantile search for a level above the stall never ends.
        log_zero = params.size * math.log1p(-params.prob)
        j = np.arange(1, k + 1, dtype=float)
        logs = (special.gammaln(params.size + j) - special.gammaln(params.size)
                - special.gammaln(j + 1.0)
                + j * math.log(params.prob)
                + log_zero)
        return float(min(1.0, 1.0 + (math.expm1(log_zero) + np.exp(logs).sum())))
    return float(special.betainc(params.size, k + 1.0, 1.0 - params.prob))


def nb_quantile(q: float, params: NegBinParams) -> int:
    """Smallest integer k with nb_cdf(k) >= q, for q in (0, 1)."""
    _require_level(q)
    return _discrete_quantile(lambda k: nb_cdf(k, params), q,
                              params.mean, math.sqrt(params.variance))


def _discrete_quantile(cdf, q: float, mean: float, sd: float) -> int:
    """Smallest integer k >= 0 with cdf(k) >= q, for a non-decreasing cdf.

    Starts from the normal approximation floor(mean + sd invPhi(q)),
    brackets the answer with steps of ceil(sd / 2) that double each time
    they fall short, then bisects.
    """
    start = max(0, math.floor(mean + sd * special.ndtri(q)))
    width = max(1, math.ceil(sd / 2.0))
    # bracket so that cdf(lo) < q <= cdf(hi), taking cdf(-1) = 0
    if cdf(start) >= q:
        hi = start
        lo = hi - width
        while lo >= 0 and cdf(lo) >= q:
            hi = lo
            width *= 2
            lo = hi - width
        lo = max(lo, -1)
    else:
        lo = start
        hi = lo + width
        while cdf(hi) < q:
            lo = hi
            width *= 2
            hi = lo + width
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cdf(mid) >= q:
            hi = mid
        else:
            lo = mid
    return hi


def pearson6_cdf(x: float, params: Pearson6Params) -> float:
    """P(X <= x); domain error for x < 0."""
    if x < 0:
        raise ValueError(f"Pearson VI support is x >= 0, got {x}")
    z = x / (x + params.scale)
    return float(special.betainc(params.shape_num, params.shape_den, z))


def pearson6_quantile(q: float, params: Pearson6Params) -> float:
    """Inverse of pearson6_cdf on (0, 1)."""
    _require_level(q)
    z = float(special.betaincinv(params.shape_num, params.shape_den, q))
    return params.scale * z / (1.0 - z)


def gamma_cdf(x: float, params: GammaParams) -> float:
    """P(X <= x) for X gamma; domain error for x < 0."""
    if x < 0:
        raise ValueError(f"gamma support is x >= 0, got {x}")
    return float(special.gammainc(params.shape, params.rate * x))


def gamma_quantile(q: float, params: GammaParams) -> float:
    """Inverse of gamma_cdf on (0, 1)."""
    _require_level(q)
    return float(special.gammaincinv(params.shape, q)) / params.rate


def poisson_cdf(k: float, mean: float) -> float:
    """P(X <= floor(k)) for X Poisson with the given mean; 0 for k < 0."""
    if not (mean > 0 and math.isfinite(mean)):
        raise ValueError(f"Poisson mean must be positive and finite, got {mean}")
    k = math.floor(k)
    if k < 0:
        return 0.0
    return float(special.gammaincc(k + 1.0, mean))


def poisson_quantile(q: float, mean: float) -> int:
    """Smallest integer k with poisson_cdf(k) >= q, for q in (0, 1)."""
    _require_level(q)
    _require(mean > 0 and math.isfinite(mean),
             f"Poisson mean must be positive and finite, got {mean}")
    return _discrete_quantile(lambda k: poisson_cdf(k, mean), q, mean, math.sqrt(mean))
