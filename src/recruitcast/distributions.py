"""Distribution kernels for the recruitment model.

Covers the four families the rest of the package needs: gamma and Poisson
for the data-generating process, negative binomial with real-valued size
for predicted counts, and Pearson type VI for predicted waiting times.
CDFs are built on the regularized incomplete beta/gamma functions;
discrete quantiles invert the CDF from a skew-corrected (Cornish-Fisher)
start, bracketing the answer with doubling steps and then bisecting, so
that a typical quantile reads the CDF twice.

Every kernel works elementwise: a law's fields, the points and the
levels may be arrays, which broadcast together.  With scalars throughout
the same lines run on Python floats and give a Python scalar back, so a
batch of laws gets exactly the numbers that one call per law would.  A
discrete quantile's search keeps its state the same way: Python ints for
one law, exact at any size, and int64 arrays for a batch, stepped by the
same lines through the `_elementwise` primitives; a batch refuses a
quantile whose search would reach 2^62.

The special functions come from ``scipy.special``, which this module
imports at the first law evaluated (``special()``), not when it loads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from ._elementwise import (ceil, every, floor, is_batch, larger, negate, plain, smaller, some,
                           sqrt, where)

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


@functools.cache
def special():
    """``scipy.special``, imported at the first call.

    Every kernel here and in :mod:`recruitcast.asymptotics` reads SciPy
    through this, so importing the package loads no SciPy, and a command
    that evaluates no law (``fit``, ``--version``, a refused input) never
    pays for SciPy's import, more than half of a cold start.  The import
    runs under the import statement's own per-module lock, so threads
    making their first call at once all get the fully built module; the
    standard library's ``LazyLoader`` gives no such guarantee.  The cache
    costs tens of ns a call, against about a microsecond for one scalar
    kernel.
    """
    from scipy import special
    return special


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_each(ok, message: str, values) -> None:
    """Raise ValueError naming the first of ``values`` where ``ok`` fails.

    ``message`` is a format string with one ``{}`` for that value.
    """
    if not (ok.all() if is_batch(ok) else ok):
        bad = np.asarray(values)[~np.asarray(ok)][0] if np.ndim(values) else values
        raise ValueError(message.format(bad))


def _require_level(q) -> None:
    _require_each((0.0 < q) & (q < 1.0), "quantile level must lie in (0, 1), got {}", q)


def _positive_finite(x):
    # false for NaN, like math.isfinite(x) and x > 0
    return (x > 0) & (x < math.inf)


def _flat(*values) -> tuple[tuple[int, ...], list]:
    """The broadcast shape of ``values``, and each of them flattened to it.

    A scalar stays a Python float, which broadcasts against the rest as
    it is; the others become flat float arrays of the broadcast size.
    """
    arrays = [v if isinstance(v, float) else np.asarray(v, dtype=float) for v in values]
    shapes = {a.shape for a in arrays if not isinstance(a, float)}
    if not shapes:
        return (), arrays
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast(*arrays).shape
    return shape, [float(a) if isinstance(a, float) or a.ndim == 0
                   else (a if a.shape == shape else np.broadcast_to(a, shape)).reshape(-1)
                   for a in arrays]


def _take(values, kept: np.ndarray):
    """Entries ``kept`` of a flat array, or of a law whose fields are flat
    arrays; scalars broadcast, so they stay as they are."""
    if is_dataclass(values):
        return _unchecked(type(values), *(_take(getattr(values, field.name), kept)
                                          for field in fields(values)))
    return values[kept] if is_batch(values) else values


def _unchecked(cls, *values):
    """A law of ``cls`` from fields taken out of an already validated law."""
    law = object.__new__(cls)
    for field, value in zip(fields(cls), values):
        object.__setattr__(law, field.name, value)
    return law


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution in the shape/rate parameterization."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        _require_each(_positive_finite(self.shape),
                      "gamma shape must be positive and finite, got {}", self.shape)
        _require_each(_positive_finite(self.rate),
                      "gamma rate must be positive and finite, got {}", self.rate)

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
        _require_each(_positive_finite(self.size),
                      "negative binomial size must be positive and finite, got {}", self.size)
        _require_each((0.0 < self.prob) & (self.prob < 1.0),
                      "negative binomial prob must lie in (0, 1), got {}", self.prob)

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
        _require_each(_positive_finite(self.shape_num),
                      "shape_num must be positive and finite, got {}", self.shape_num)
        _require_each(_positive_finite(self.shape_den),
                      "shape_den must be positive and finite, got {}", self.shape_den)
        _require_each(_positive_finite(self.scale),
                      "scale must be positive and finite, got {}", self.scale)

    @property
    def mean(self) -> float:
        """Defined for shape_den > 1."""
        _require(np.all(self.shape_den > 1), "mean requires shape_den > 1")
        return self.scale * self.shape_num / (self.shape_den - 1.0)

    @property
    def variance(self) -> float:
        """Defined for shape_den > 2."""
        _require(np.all(self.shape_den > 2), "variance requires shape_den > 2")
        a, b = self.shape_num, self.shape_den
        return self.scale**2 * a * (a + b - 1.0) / ((b - 1.0) ** 2 * (b - 2.0))


def _count_shape(k):
    """floor(k) + 1, the shape at which the regularized incomplete beta or
    gamma function reads P(X <= k); 0 for k < 0, where both read 0."""
    k = floor(k)
    return where(k < 0, 0.0, k + 1.0)


def _tiny_size_cdf(k: int, size: float, prob: float) -> float:
    """nb_cdf by pmf summation, for one law of size below _TINY_SIZE."""
    # Such a law puts all but a few per cent of its mass at 0, so the
    # cdf is 1 - (P(X > 0) - pmf(1..k)), with P(X > 0) from expm1.
    # Summed up from pmf(0) instead, it stalls a few ulps short of 1
    # and a quantile search for a level above the stall never ends.
    log_zero = size * math.log1p(-prob)
    j = np.arange(1, k + 1, dtype=float)
    logs = (special().gammaln(size + j) - special().gammaln(size)
            - special().gammaln(j + 1.0)
            + j * math.log(prob)
            + log_zero)
    return float(min(1.0, 1.0 + (math.expm1(log_zero) + np.exp(logs).sum())))


def nb_cdf(k, params: NegBinParams):
    """P(X <= floor(k)) for X negative binomial; 0 for k < 0.

    Uses the regularized incomplete beta identity
    P(X <= k) = I_{1-prob}(size, k + 1), with a pmf-summation fallback for
    very small ``size`` where betainc degrades.
    """
    values = special().betainc(params.size, _count_shape(k), 1.0 - params.prob)
    if some(params.size < _TINY_SIZE):
        k, size, prob, values = (np.array(a) for a in np.broadcast_arrays(
            floor(k), params.size, params.prob, values))
        for i in np.flatnonzero((k >= 0) & (size < _TINY_SIZE)):
            values.flat[i] = _tiny_size_cdf(int(k.flat[i]), float(size.flat[i]),
                                            float(prob.flat[i]))
    return plain(values)


def nb_quantile(q, params: NegBinParams):
    """Smallest integer k with nb_cdf(k) >= q, for q in (0, 1)."""
    size, prob = params.size, params.prob
    # sqrt(size) sqrt(prob) stays positive where size * prob would underflow
    skewness = (1.0 + prob) / (sqrt(size) * sqrt(prob))
    shape, (q, mean, sd, skewness, size, prob) = _flat(
        q, params.mean, sqrt(params.variance), skewness, size, prob)
    laws = _unchecked(NegBinParams, size, prob) if shape else params
    return _discrete_quantile(nb_cdf, laws, shape, q, mean, sd, skewness)


def _starts(q, mean, sd, skewness):
    """Where each law's search for its level-q quantile starts.

    The Cornish-Fisher quantile with a continuity correction,
    ceil(mean + sd (z + skewness (z^2 - 1) / 6) - 1/2) with z = invPhi(q).
    The skew term is clipped to one sd either way, so a heavily skewed law
    starts at most that far from the normal approximation.  For the
    tables' laws the start is the answer or next to it, so two reads of
    the cdf settle most quantiles.
    """
    z = plain(special().ndtri(q))
    bend = (z * z - 1.0) / 6.0
    # a zero bend keeps an infinite skewness from turning the start into NaN
    shift = smaller(larger(where(bend == 0.0, 0.0, skewness) * bend, -1.0), 1.0)
    return larger(ceil(mean + sd * (z + shift) - 0.5), 0)


# A batch searches at int64 points below 2^62.  A step out from a point
# is at most one more than the point, so the next one stays below 2^63,
# where it is refused rather than wrapped.
_INT64_REACH = 2**62


def _search_points(points, q, mean):
    """A batch's ``points`` as int64, refused where one reaches 2^62 (or is
    NaN); one law's point is a Python int, and stays one at any size."""
    if not is_batch(points):
        return points
    beyond = ~(points < _INT64_REACH)
    if beyond.any():
        level, mean = (np.broadcast_to(v, points.shape)[beyond][0] for v in (q, mean))
        raise ValueError(f"the level-{level:g} quantile of a count of mean {mean:g} "
                         "is past 2^62; choose a smaller horizon")
    return points.astype(np.int64, copy=False)


def _discrete_quantile(cdf, laws, shape: tuple[int, ...], q, mean, sd, skewness):
    """Smallest integers k >= 0 with cdf(k, laws) >= q, one per law.

    ``laws`` holds the laws of a batch of the given ``shape``, flattened as
    ``_flat`` leaves them: Poisson means, or a law whose fields are such,
    with ``q``, ``mean``, ``sd`` and ``skewness`` alike; ``cdf(k, laws)``
    reads their non-decreasing cdfs at the points ``k``.

    Each law first reads at its start (``_starts``).  From there it brackets
    the answer: it steps down while the cdf reaches q and up while it does
    not, by steps of 1 that double after each move, and a step below 0
    closes the bracket at -1, where the cdf is 0.  Then it bisects.  The
    state of a search is its next point, the two ends of its bracket and
    its step: Python ints for one law (shape ``()``), which gives its
    answer back as an exact Python int at any size, and int64 arrays for a
    batch, which refuses with ValueError a law whose start or bracket
    would reach 2^62.  The same lines step both.  All laws of a batch
    search in lockstep: each round reads the cdf once, at one point for
    every law still searching, and narrows the batch to the laws not yet
    done, so each law reads exactly the points it would read alone.  A
    batch's answers come back as an int64 array of its shape.
    """
    _require_level(q)
    point = _search_points(_starts(q, mean, sd, skewness), q, mean)
    # a batch's answers, and where each law still searching puts its own
    answers = np.empty(math.prod(shape), dtype=np.int64)
    at = np.arange(answers.size)
    # the ends of the bracket lo < answer <= hi, -2 and -1 until found
    lo, hi, step = -2, -1, 1
    while True:
        reached = cdf(point, laws) >= q
        hi = where(reached, point, hi)
        lo = where(reached, lo, point)
        # a step down past 0 closes the bracket at -1, where the cdf is 0
        lo = where((lo < -1) & (hi < step), -1, lo)
        bracketing = (lo < -1) | (hi < 0)
        done = negate(bracketing) & (hi - lo <= 1)
        if every(done):
            break
        if some(done):
            kept = np.flatnonzero(~done)
            answers[at[done]] = hi[done]
            at, lo, hi, step, bracketing, q, mean, laws = (
                _take(values, kept) for values in (at, lo, hi, step, bracketing, q, mean, laws))
        point = _search_points(where(bracketing, where(hi < 0, lo + step, hi - step),
                                     (lo + hi) // 2), q, mean)
        step = where(bracketing, 2 * step, step)
    if not shape:
        return hi
    answers[at] = hi
    return answers.reshape(shape)


def pearson6_cdf(x, params: Pearson6Params):
    """P(X <= x); domain error for x < 0."""
    _require_each(negate(x < 0), "Pearson VI support is x >= 0, got {}", x)
    z = x / (x + params.scale)
    return plain(special().betainc(params.shape_num, params.shape_den, z))


# Newton steps that polish a beta tail root at most; from a start off by a
# factor of two, four reach rounding level
_TAIL_NEWTON_STEPS = 10


def _tail_root(b, a, q, tail):
    """The w with I_w(b, a) = 1 - q, by Newton from ``tail``.

    betaincinv loses digits at huge a, and may miss the root by a factor,
    where betainc keeps them.  The steps run in log w on the log of the
    smaller tail of beta(b, a).  For a >= 1 the law of log w is
    log-concave, and so is each tail's mass, so Newton converges from
    either side of the root.
    """
    upper = q < 0.5  # the upper tail, of mass q, is the smaller
    log_level = np.log(np.where(upper, q, 1.0 - q))
    log_norm = special().betaln(b, a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_TAIL_NEWTON_STEPS):
            mass = np.where(upper, special().betaincc(b, a, tail), special().betainc(b, a, tail))
            gap = np.where(upper, log_level - np.log(mass), np.log(mass) - log_level)
            # w times the density, over the mass: the gap's slope in log w
            slope = np.exp(special().xlogy(b, tail) + special().xlog1py(a - 1.0, -tail)
                           - log_norm) / mass
            step = gap / slope
            step[~np.isfinite(step)] = 0.0
            tail = tail * np.exp(-step)
            if not (np.abs(step) > 1e-15).any():
                break
    return tail


def pearson6_quantile(q, params: Pearson6Params):
    """Inverse of pearson6_cdf on (0, 1).

    It is scale z / (1 - z) at the beta(shape_num, shape_den) quantile z.
    1 - z scales z's error up by z / (1 - z), so past z = 3/4 it comes off
    the complementary inverse instead, whose error grows by at most 4/3,
    polished by Newton on the complementary cdf.
    Raises ValueError when the quantile lies beyond the float range.
    """
    _require_level(q)
    z = special().betaincinv(params.shape_num, params.shape_den, q)
    near = z <= 0.75
    if every(near):
        return plain(params.scale * z / (1.0 - z))
    q, shape_num, shape_den, scale, z, near = np.broadcast_arrays(
        q, params.shape_num, params.shape_den, params.scale, z, near)
    far = ~near  # NaN included
    x = np.divide(scale * z, 1.0 - z, out=np.empty(z.shape), where=near)
    b, a, level = shape_den[far], shape_num[far], q[far]
    tail = _tail_root(b, a, level, special().betaincinv(b, a, 1.0 - level))
    x[far] = np.divide(scale[far] * (1.0 - tail), tail,
                       out=np.full(tail.shape, np.inf), where=tail > 0)
    beyond = far & ~np.isfinite(x)
    if beyond.any():
        raise ValueError(
            f"the level-{q[beyond].flat[0]:g} quantile of the time to "
            f"{shape_num[beyond].flat[0]:g} recruits "
            "is beyond the float range; choose a smaller horizon")
    return plain(x)


def gamma_cdf(x, params: GammaParams):
    """P(X <= x) for X gamma; domain error for x < 0."""
    _require_each(negate(x < 0), "gamma support is x >= 0, got {}", x)
    return plain(special().gammainc(params.shape, params.rate * x))


def gamma_quantile(q, params: GammaParams):
    """Inverse of gamma_cdf on (0, 1)."""
    _require_level(q)
    return plain(special().gammaincinv(params.shape, q) / params.rate)


def poisson_cdf(k, mean):
    """P(X <= floor(k)) for X Poisson with the given mean; 0 for k < 0."""
    _require_each(_positive_finite(mean), "Poisson mean must be positive and finite, got {}",
                  mean)
    return plain(special().gammaincc(_count_shape(k), mean))


def poisson_quantile(q, mean):
    """Smallest integer k with poisson_cdf(k) >= q, for q in (0, 1)."""
    _require_each(_positive_finite(mean), "Poisson mean must be positive and finite, got {}",
                  mean)
    shape, (q, mean, sd, skewness) = _flat(q, mean, sqrt(mean), 1.0 / sqrt(mean))
    return _discrete_quantile(poisson_cdf, mean, shape, q, mean, sd, skewness)
