"""Trial data containers and maximum-likelihood fitting.

A trial snapshot, ``TrialData``, holds validated read-only arrays of
per-centre exposures and counts, with optional centre ids.

Centre c holds a gamma(alpha, beta) recruitment rate (shape/rate); its
count over an exposure window t_c is Poisson(rate * t_c).  Integrating the
rates out gives the marginal log-likelihood

    l(a, b) = C a log b - sum_c (a + n_c) log(b + t_c)
              - C logGamma(a) + sum_c logGamma(a + n_c)

up to terms free of (a, b).  Centres with zero exposure (and hence zero
count) contribute exactly nothing.  For an integer count the logGamma
difference is the exact sum of log(a + j) over j < n_c, and its
derivatives in a the sums of 1 / (a + j) and -1 / (a + j)^2; the fit
reads all three off one tally of the counts.  Per-trial arithmetic runs
on NumPy ufuncs and row sums, ``(x * y).sum()``, never on ``math`` or
``np.dot``, whose last bits differ.  When every open centre shares one
exposure t the ratio of the estimates is pinned at a/b = n/(C t), which
reduces the maximization to the profile likelihood along that ray.  As
n = C t a/b there, every per-centre term in b cancels from its slope
d1 = a (digamma - C log1p(t / b)) and curvature d2 = a (a trigamma +
C t / (b + t)) + d1 in log a, which read only the digamma and trigamma
sums of the count terms.  Otherwise the fit runs in two dimensions over
(log a, log b).  One damped-Newton loop runs both searches from a
method-of-moments guess; each supplies only its ascent, the score and
Newton step from analytic derivatives, and the likelihood that guards
the step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from scipy import special

__all__ = [
    "TrialData",
    "ModelFit",
    "ModelError",
    "InsufficientData",
    "DegenerateLikelihood",
    "log_likelihood",
    "fit_mle",
    "posterior_rate_moments",
]

# Upper optimization bound on log(alpha); estimates pushed against it mean
# the likelihood keeps rising toward the constant-ratio boundary.
_MAX_LOG_ALPHA = 30.0
# Newton stops after this many steps, or once the score in log
# coordinates is this small.
_MAX_STEPS = 120
_GRADIENT_TARGET = 1e-10
_RELATIVE_EXPOSURE_TOL = 1e-12
# Below this gradient Newton is locally contracting and skips its
# objective-based line search, whose floor comparison turns into noise.
_SAFE_GRADIENT = 1e-4
# Leading rises a + j, j < n, that the count terms sum one by one:
# log(a + j) for logGamma(a + n) - logGamma(a), 1 / (a + j) for its
# digamma and -1 / (a + j)^2 for its trigamma difference; the special
# functions take only what lies beyond.
_EXACT_RISE_TERMS = 1 << 16
_EPS = float(np.finfo(float).eps)
_NO_VALUES = np.empty(0)
_INT64_MAX = int(np.iinfo(np.int64).max)


class ModelError(Exception):
    """Base class for fitting errors."""


class InsufficientData(ModelError):
    """No usable information: zero total count or no positive exposure."""


class DegenerateLikelihood(ModelError):
    """Monotone-likelihood failure.

    The marginal likelihood increases without bound as (alpha, beta) grow
    with their ratio fixed, which happens when the counts are no more
    dispersed than a common-rate Poisson sample.  The boundary fit is
    attached as ``fit`` for diagnostics.
    """

    def __init__(self, message: str, fit: "ModelFit | None" = None):
        super().__init__(message)
        self.fit = fit


@dataclass(frozen=True, eq=False)
class TrialData:
    """Snapshot of a multi-centre trial at its census time, or of a batch
    of trials sharing one census time and one set of centres.

    ``exposures`` (float64) and ``counts`` (int64) hold one entry per
    centre, as read-only copies of what the caller passed, so later
    changes to the caller's arrays never reach the snapshot.  2-d arrays
    hold a batch: one row per trial, one column per centre.  ``ids`` is
    an optional tuple of centre names; without it error messages name the
    centres ``centre_1``, ``centre_2``, ...  Construction checks every
    centre of every trial at once: exposures finite and non-negative and
    at most the census time, counts non-negative integers, no count
    without exposure, matching shapes, at least one centre, and each
    trial's total count within the int64 range.  An error about a batch
    also names the trial, counted from 0 like its row, but for counts
    that are not numbers: NumPy reads a batch holding one string as all
    strings, so that refusal names only the dtype, as for one trial.

    ``data[i]`` is trial i of a batch, a one-trial ``TrialData`` whose
    arrays are read-only views of the batch's row, checked already.
    The fitting functions take one trial at a time.
    """

    census_time: float
    exposures: np.ndarray
    counts: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        census_time = float(self.census_time)
        if not (math.isfinite(census_time) and census_time > 0):
            raise ValueError(f"census_time must be positive and finite, got {census_time}")
        exposures = np.array(self.exposures, dtype=float)
        counts = np.asarray(self.counts)
        ids = None if self.ids is None else tuple(str(cid) for cid in self.ids)
        if exposures.ndim not in (1, 2) or counts.shape != exposures.shape:
            rule = ("1-d and of equal length" if exposures.ndim == 1
                    else "1-d, or 2-d for a batch of trials, and of equal shape")
            raise ValueError(f"exposures and counts must be {rule}, "
                             f"got shapes {exposures.shape} and {counts.shape}")
        num_centres = exposures.shape[-1]
        if ids is not None and len(ids) != num_centres:
            raise ValueError(f"{len(ids)} ids for {num_centres} centres")
        if num_centres == 0:
            raise ValueError("at least one centre is required")
        if exposures.size == 0:
            raise ValueError("at least one trial is required")
        batch = exposures.ndim == 2

        def trial(row: int) -> str:
            return f"trial {row}, " if batch else ""

        def reject(bad: np.ndarray, rule: str, values: np.ndarray) -> None:
            if bad.any():
                row, i = divmod(int(np.argmax(bad)), num_centres)
                name = ids[i] if ids is not None else f"centre_{i + 1}"
                value = values.reshape(-1, num_centres)[row, i]
                raise ValueError(f"{trial(row)}centre {name!r}: {rule}, got {value}")

        reject(~(np.isfinite(exposures) & (exposures >= 0)),
               "exposure must be finite and >= 0", exposures)
        if counts.dtype.kind == "f":
            reject(~np.isfinite(counts) | (counts != np.floor(counts)),
                   "count must be an integer", counts)
            # the cast below would wrap these
            reject(np.abs(counts) >= 2.0**63, "count must lie in the int64 range", counts)
        elif counts.dtype.kind == "u":
            reject(counts > _INT64_MAX, "count must lie in the int64 range", counts)
        elif counts.dtype.kind not in "bi":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        counts = counts.astype(np.int64)
        reject(counts < 0, "count must be non-negative", counts)
        reject((exposures == 0) & (counts != 0), "positive count at zero exposure", counts)
        reject(exposures > census_time, f"exposure exceeds census time {census_time}",
               exposures)
        rows = counts.reshape(-1, num_centres)
        # a row's int64 sum may wrap only where its largest count is this
        # big; only there is it worth summing exactly
        for row in np.flatnonzero(rows.max(axis=1) > _INT64_MAX // num_centres):
            total = sum(rows[row].tolist())
            if total > _INT64_MAX:
                raise ValueError(f"{trial(row)}counts sum to {total}, "
                                 f"past the int64 maximum {_INT64_MAX}")
        exposures.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "census_time", census_time)
        object.__setattr__(self, "exposures", exposures)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "ids", ids)

    @classmethod
    def from_arrays(cls, census_time: float, exposures: Sequence[float],
                    counts: Sequence[int], ids: Sequence[str] | None = None) -> "TrialData":
        return cls(census_time, exposures, counts, ids)

    def __getitem__(self, row: int) -> "TrialData":
        """Trial ``row`` of a batch, sharing the batch's checked arrays."""
        if self.exposures.ndim != 2:
            raise TypeError("only a batch of trials has rows")
        row = operator.index(row)
        trial = object.__new__(TrialData)
        for name, value in (("census_time", self.census_time),
                            ("exposures", self.exposures[row]),
                            ("counts", self.counts[row]), ("ids", self.ids)):
            object.__setattr__(trial, name, value)
        return trial

    @property
    def num_centres(self) -> int:
        return self.exposures.shape[-1]

    @property
    def total_count(self) -> int:
        return int(_one_trial(self).counts.sum())


def _one_trial(data: TrialData) -> TrialData:
    """``data`` if it holds a single trial, else ValueError naming its shape."""
    if data.exposures.ndim != 1:
        raise ValueError(f"expected one trial, got a batch of shape {data.exposures.shape}; "
                         "take its trials one at a time as data[i]")
    return data


@dataclass(frozen=True)
class ModelFit:
    """Fitted shape/rate pair with optimizer diagnostics.

    ``iterations`` counts Newton steps; ``equal_exposures`` records that
    the open centres shared one exposure, so the fit ran along the ray
    alpha/beta = n/(C t).
    """

    alpha_hat: float
    beta_hat: float
    log_lik: float
    converged: bool
    iterations: int
    degenerate: bool = False
    equal_exposures: bool = False


def log_likelihood(alpha: float, beta: float, data: TrialData) -> float:
    """Marginal log-likelihood of (alpha, beta), up to a data-only constant."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return float(_Workspace(data).loglik(alpha, beta))


class _Workspace:
    """Sufficient statistics cached for repeated likelihood evaluations.

    The counts enter through one tally, the rise weights: w_j is the
    number of centres counting past j, so that for integer counts

        sum_c logGamma(a + n_c) - logGamma(a) = sum_j w_j log(a + j)

    and its first two derivatives in a are the sums of w_j / (a + j) and
    of -w_j / (a + j)^2, each exact term by term.  The rises stop at the
    exact-sum limit; the few counts past it, distinct with their
    multiplicities, take logGamma, digamma and trigamma from there on.
    """

    def __init__(self, data: TrialData):
        exposures, counts = _one_trial(data).exposures, data.counts
        if np.count_nonzero(exposures) < exposures.size:
            # closed centres hold zero counts, so every likelihood term they
            # would add cancels exactly; drop them once here
            opened = exposures > 0
            exposures, counts = exposures[opened], counts[opened]
        self.num_open = exposures.size
        self.exposures = exposures
        self.counts = counts.astype(float)
        self.total_count = int(counts.sum())
        clipped = np.minimum(counts, _EXACT_RISE_TERMS + 1)
        tally = np.bincount(clipped)
        rises = min(tally.size - 1, _EXACT_RISE_TERMS)
        self.rise_weights = (self.num_open - tally[:rises].cumsum()).astype(float)
        self.rise_offsets = np.arange(rises, dtype=float)
        # the squares of clipped counts stay far inside int64; Python
        # integers take the rare counts past the limit
        self.sum_count_sq = int((clipped * clipped).sum())
        self.beyond_values = self.beyond_mult = _NO_VALUES
        if tally.size > _EXACT_RISE_TERMS + 1:
            big, big_mult = np.unique(counts[counts > _EXACT_RISE_TERMS], return_counts=True)
            self.sum_count_sq += sum((int(v) ** 2 - (_EXACT_RISE_TERMS + 1) ** 2) * int(m)
                                     for v, m in zip(big, big_mult))
            self.beyond_values = big.astype(float)
            self.beyond_mult = big_mult.astype(float)
        self.total_exposure = float(exposures.sum())
        self.sum_exposure_sq = float((exposures * exposures).sum())

        self.equal_exposures = False
        self.common_exposure = None
        if self.num_open:
            longest = exposures.max()
            if longest - exposures.min() <= _RELATIVE_EXPOSURE_TOL * longest:
                self.equal_exposures = True
                self.common_exposure = self.total_exposure / self.num_open

        # the argument each one-point cache below last saw, and its values
        self._beta = self._alpha = self._point = None
        self._beta_values = self._count_values = self._score = None

    # The likelihood and its score are sums of per-centre differences such
    # as log(b + t) - log(b) = log1p(t / b), not differences of sums: on a
    # near-flat ridge alpha and beta grow together, the sums grow with them
    # and their difference would sink into rounding.  The count terms are
    # exact sums over the rises for the same reason.
    #
    # Each point's values are computed once.  A Newton line search takes
    # the likelihood at the point that the next step differentiates, and
    # fit_mle certifies the point that Newton stopped at, so the terms of
    # beta, the count sums of alpha and the score keep the values of the
    # last argument they were asked for.

    def _beta_terms(self, beta: float) -> tuple[np.ndarray, float]:
        """b + t_c per centre and sum_c log1p(t_c / b)."""
        if beta != self._beta:
            self._beta_values = (beta + self.exposures,
                                 float(np.log1p(self.exposures / beta).sum()))
            self._beta = beta
        return self._beta_values

    def _count_terms(self, alpha: float) -> tuple[float, float, float]:
        """sum_c logGamma(a + n_c) - logGamma(a), and the same sums of
        digamma and of trigamma: the exact rise sums, plus the special
        functions' differences past the exact-sum limit."""
        if alpha != self._alpha:
            weights, rise = self.rise_weights, alpha + self.rise_offsets
            log_gamma = (weights * np.log(rise)).sum()
            digamma = (weights * (1.0 / rise)).sum()
            trigamma = -(weights / (rise * rise)).sum()
            if self.beyond_values.size:
                top, edge = alpha + self.beyond_values, alpha + _EXACT_RISE_TERMS
                mult = self.beyond_mult
                log_gamma += (mult * (special.gammaln(top) - special.gammaln(edge))).sum()
                digamma += (mult * (special.digamma(top) - special.digamma(edge))).sum()
                # trigamma as the Hurwitz zeta(2, .)
                trigamma += (mult * (special.zeta(2, top) - special.zeta(2, edge))).sum()
            self._count_values = (log_gamma, digamma, trigamma)
            self._alpha = alpha
        return self._count_values

    def loglik(self, alpha: float, beta: float) -> float:
        b_t, log_ratio = self._beta_terms(beta)
        return (self._count_terms(alpha)[0] - alpha * log_ratio
                - (self.counts * np.log(b_t)).sum())

    def score(self, alpha: float, beta: float) -> tuple[float, float]:
        """(d_alpha, d_beta), summed centre by centre."""
        if (alpha, beta) != self._point:
            b_t, log_ratio = self._beta_terms(beta)
            self._score = (self._count_terms(alpha)[1] - log_ratio,
                           ((alpha * self.exposures / beta - self.counts) / b_t).sum())
            self._point = (alpha, beta)
        return self._score

    def hessian(self, alpha: float, beta: float) -> tuple[float, float, float]:
        """(h_aa, h_ab, h_bb) in natural (alpha, beta) coordinates, each
        summed centre by centre from one pass over the inverse of b + t_c."""
        inv = 1.0 / self._beta_terms(beta)[0]
        h_ab = self.num_open / beta - inv.sum()
        h_bb = -self.num_open * alpha / beta**2 + ((alpha + self.counts) * inv * inv).sum()
        return self._count_terms(alpha)[2], h_ab, h_bb

    def profile_loglik(self, log_alpha: float, ratio: float) -> float:
        """Likelihood along beta = alpha / ratio, open centres only."""
        alpha = np.exp(log_alpha)
        beta = alpha / ratio
        t = self.common_exposure
        return (self._count_terms(alpha)[0]
                - self.num_open * alpha * np.log1p(t / beta)
                - self.total_count * np.log(beta + t))

    def boundary_loglik(self, ratio: float) -> float:
        """Limit of the likelihood as alpha -> inf with alpha/beta = ratio."""
        return self.total_count * np.log(ratio) - ratio * self.total_exposure

    def tail_statistic(self) -> float:
        """Sign of the likelihood's approach to its constant-ratio limit.

        Along beta = alpha / ratio with ratio = n / sum(t), the likelihood
        behaves as L_inf + K / alpha for large alpha with

            K = n^2 sum(u^2)/2 - n sum(n u) + sum(n (n-1))/2

        in the exposure shares u = t / sum(t), which no unit of time can
        push out of the float range.

        K <= 0 means the likelihood is still climbing toward L_inf at any
        finite bound, i.e. the counts show no over-dispersion and the fit
        degenerates.  Evaluating K from the data sidesteps the float
        cancellation that swamps direct likelihood comparisons at huge
        alpha.  K can be exactly zero, and then its float value is a
        rounding residue of either sign.  With C equal exposures the sign
        of K is that of the integer C sum(n^2) - n^2 - C n, evaluated
        exactly; otherwise a K no larger than the rounding error of its
        three terms counts as zero.
        """
        n = self.total_count
        if self.equal_exposures:
            c = self.num_open
            return (c * self.sum_count_sq - n * n - c * n) / (2.0 * c)
        shares = self.exposures / self.total_exposure
        terms = (n * n * (shares * shares).sum() / 2.0,
                 -n * (self.counts * shares).sum(),
                 (self.sum_count_sq - n) / 2.0)
        k = terms[0] + terms[1] + terms[2]
        rounding = (self.num_open + 2) * _EPS * sum(abs(term) for term in terms)
        return 0.0 if abs(k) <= rounding else k


def _moment_start(ws: _Workspace) -> tuple[float, float]:
    """Method-of-moments start in (log alpha, log beta).  beta carries
    the unit of time, so its bounds are in units of the mean exposure."""
    unit = ws.total_exposure / ws.num_open
    rate = ws.total_count / ws.total_exposure
    residual = ws.counts - rate * ws.exposures
    excess = (residual * residual).sum() - rate * ws.total_exposure
    if excess > 0 and ws.sum_exposure_sq > 0:
        rate_var = excess / ws.sum_exposure_sq
        beta0 = min(max(rate / rate_var, 1e-4 * unit), 1e8 * unit)
    else:
        # No visible over-dispersion; start high and let the bound rule decide.
        beta0 = min(max(np.exp(8.0) / rate, 1e-4 * unit), 1e8 * unit)
    alpha0 = min(max(rate * beta0, 1e-4), 1e8)
    return np.log(alpha0), np.log(beta0)


def _newton(point: tuple[float, ...], ascent, objective) -> tuple[tuple[float, ...], int]:
    """Damped Newton uphill from ``point``, whose first coordinate is log alpha.

    ``ascent(*point)`` gives the max-norm of the score there and a function
    that returns the capped step, called (so reading the Hessian) only for
    a step taken; ``objective(*point)`` is the likelihood guarding a step.
    Returns the point Newton stopped at and the number of steps taken.
    """
    value = None  # objective at point, when a line search computed it
    steps = 0
    for _ in range(_MAX_STEPS):
        slope, step = ascent(*point)
        if slope <= _GRADIENT_TARGET:
            break
        new = tuple(map(operator.add, point, step()))
        if new[0] > _MAX_LOG_ALPHA:
            new = (_MAX_LOG_ALPHA, *new[1:])
        new_value = None
        if slope > _SAFE_GRADIENT:
            # far out, guard against overshoot; near the optimum the
            # objective moves below float resolution and the comparison
            # would reject perfectly good steps, so Newton runs unchecked
            if value is None:
                value = objective(*point)
            floor = value - 1e-10 * max(1.0, abs(value))
            for _ in range(10):
                new_value = objective(*new)
                if new_value >= floor:
                    break
                new = tuple([p + 0.5 * (n - p) for p, n in zip(point, new)])
            else:
                break
        point, value = new, new_value
        steps += 1
    return point, steps


def _ray_ascent(ws: _Workspace, ratio: float, log_alpha: float):
    """Newton's ascent in log alpha along beta = alpha / ratio, on which
    n = C t alpha / beta cancels every per-centre term in beta from the
    profile's slope d1 = a (digamma - C log1p(t / b)) and its curvature
    d2 = a (a trigamma + C t / (b + t)) + d1."""
    alpha = np.exp(log_alpha)
    beta = alpha / ratio
    c, t = ws.num_open, ws.common_exposure
    _, digamma, trigamma = ws._count_terms(alpha)
    d1 = alpha * (digamma - c * np.log1p(t / beta))

    def step():
        d2 = alpha * (alpha * trigamma + c * t / (beta + t)) + d1
        # the Newton step where the profile is concave; off it (the convex
        # tail toward the constant-ratio boundary) the same length uphill;
        # at most 1 either way
        return (max(min(d1 / max(abs(d2), 1e-12), 1.0), -1.0),)
    return abs(d1), step


def _plane_ascent(ws: _Workspace, log_alpha: float, log_beta: float):
    """Newton's ascent in (log alpha, log beta)."""
    alpha, beta = np.exp(log_alpha), np.exp(log_beta)
    d_alpha, d_beta = ws.score(alpha, beta)
    # score and Hessian in (log alpha, log beta)
    g_a, g_b = alpha * d_alpha, beta * d_beta

    def step():
        h_aa, h_ab, h_bb = ws.hessian(alpha, beta)
        h_11 = h_aa * (alpha * alpha) + g_a
        h_12 = h_ab * (alpha * beta)
        h_22 = h_bb * (beta * beta) + g_b
        det = h_11 * h_22 - h_12 * h_12
        if det > 0 and h_11 < 0:
            s_a = (h_12 * g_b - h_22 * g_a) / det
            s_b = (h_12 * g_a - h_11 * g_b) / det
        else:
            # not locally concave, so Newton would head for a saddle or a
            # minimum: go uphill along each curvature axis by |slope /
            # curvature|; a plain gradient step zigzags on near-flat ridges
            curvature, axes = np.linalg.eigh(np.array([[h_11, h_12], [h_12, h_22]]))
            uphill = axes @ ((axes.T @ np.array([g_a, g_b]))
                             / np.maximum(np.abs(curvature), 1e-12))
            s_a, s_b = float(uphill[0]), float(uphill[1])
        norm = max(abs(s_a), abs(s_b))
        if norm > 2.0:
            return s_a * (2.0 / norm), s_b * (2.0 / norm)
        return s_a, s_b
    return max(abs(g_a), abs(g_b)), step


def _raise_degenerate(ws: _Workspace, ratio: float, iterations: int):
    boundary_alpha = math.exp(_MAX_LOG_ALPHA)
    fit = ModelFit(alpha_hat=boundary_alpha, beta_hat=boundary_alpha / ratio,
                   log_lik=float(ws.boundary_loglik(ratio)), converged=False,
                   iterations=iterations, degenerate=True,
                   equal_exposures=ws.equal_exposures)
    raise DegenerateLikelihood(
        f"likelihood keeps increasing along alpha/beta = {ratio:.6g}; "
        "counts show no over-dispersion", fit=fit)


def fit_mle(data: TrialData) -> ModelFit:
    """Maximize the marginal likelihood over (alpha, beta).

    One damped-Newton loop runs from a method-of-moments start until the
    score falls below 1e-10, for at most 120 steps.  Equal exposures across
    all open centres pin alpha/beta at n/(C t), so its ascent steps along
    that ray in log alpha, by at most 1; otherwise it steps in (log alpha,
    log beta), by at most 2 in each.  Where the likelihood is not locally
    concave the step goes uphill instead, in the plane along each curvature
    axis by |slope / curvature|.  While the score is large each step is
    backtracked until the likelihood does not fall.  ``iterations`` counts
    the steps taken.

    alpha does not depend on the unit of time and beta scales with it
    while the squared exposures stay in the float range, from about 1e-150
    to 1e150; past that the fit may stop short, reported as not converged.

    Raises
    ------
    InsufficientData
        If no centre has positive exposure or the total count is zero.
    DegenerateLikelihood
        If the likelihood is still rising at log alpha = 30,
        i.e. the boundary value along the best fixed-ratio ray is not
        beaten by any interior point.
    """
    ws = _Workspace(data)
    if ws.num_open == 0:
        raise InsufficientData("no centre has positive exposure")
    if ws.total_count == 0:
        raise InsufficientData("total recruit count is zero")

    boundary_ratio = ws.total_count / ws.total_exposure
    if ws.tail_statistic() <= 0:
        _raise_degenerate(ws, boundary_ratio, 0)

    start = _moment_start(ws)
    if ws.equal_exposures:
        ratio = ws.total_count / (ws.num_open * ws.common_exposure)
        point, iterations = _newton(start[:1], partial(_ray_ascent, ws, ratio),
                                    lambda la: ws.profile_loglik(la, ratio))
    else:
        point, iterations = _newton(start, partial(_plane_ascent, ws),
                                    lambda la, lb: ws.loglik(np.exp(la), np.exp(lb)))
    la = point[0]
    alpha_hat = np.exp(la)
    beta_hat = alpha_hat / ratio if ws.equal_exposures else np.exp(point[1])

    if la >= _MAX_LOG_ALPHA - 0.1:
        _raise_degenerate(ws, boundary_ratio, iterations)

    log_lik = ws.loglik(alpha_hat, beta_hat)
    # the per-centre score certifies either path's optimum; on the 2-d
    # path it is the score of Newton's last step
    d_alpha, d_beta = ws.score(alpha_hat, beta_hat)
    converged = bool(max(abs(alpha_hat * d_alpha), abs(beta_hat * d_beta)) <= 1e-8)
    return ModelFit(alpha_hat=float(alpha_hat), beta_hat=float(beta_hat),
                    log_lik=float(log_lik), converged=converged,
                    iterations=iterations, equal_exposures=ws.equal_exposures)


def posterior_rate_moments(data: TrialData, fit: ModelFit) -> tuple[float, float]:
    """Mean and variance of the summed centre rates given the data.

    Centre c's rate posterior is gamma(alpha + n_c, beta + t_c); the sum
    over centres has mean sum_c (alpha + n_c)/(beta + t_c) and variance
    sum_c (alpha + n_c)/(beta + t_c)^2 at the plugged-in estimates.
    """
    _one_trial(data)
    if not fit.converged:
        raise ValueError("posterior moments require a converged fit")
    mean, variance = summed_rate_moments(fit.alpha_hat, fit.beta_hat, data.exposures,
                                         data.counts)
    return float(mean), float(variance)


def summed_rate_moments(alpha, beta, exposures: np.ndarray, counts: np.ndarray):
    """``posterior_rate_moments`` as arrays: the sums run over the last
    axis of ``exposures`` and ``counts``, and the estimates broadcast
    against them, so rows of trials with their estimates as a column
    give one mean and one variance per trial."""
    shape = alpha + counts
    rate = beta + exposures
    return (shape / rate).sum(axis=-1), (shape / rate**2).sum(axis=-1)
