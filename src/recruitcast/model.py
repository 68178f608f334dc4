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
difference is the sum of log(a + j) over j < n_c, and its derivatives in
a the sums of 1 / (a + j) and -1 / (a + j)^2.  The fit sums the first
2^8 terms of all three exactly, off one tally of the counts, and takes a
count on from a + 2^8 by Stirling's series, written in differences so
that no two large terms cancel.  Per-trial arithmetic runs on NumPy
ufuncs and row sums, ``(x * y).sum()``, never on ``math`` or ``np.dot``,
whose last bits differ.  When every open centre shares one
exposure t the ratio of the estimates is pinned at a/b = n/(C t), which
reduces the maximization to the profile likelihood along that ray.  As
n = C t a/b there, every per-centre term in b cancels from its slope
d1 = a (digamma - C log1p(t / b)) and curvature d2 = a (a trigamma +
C t / (b + t)) + d1 in log a, which read only the digamma and trigamma
sums of the count terms.  Otherwise the fit runs in two dimensions over
(log a, log b).  One damped-Newton loop runs both searches from a
method-of-moments guess; each supplies only its ascent, the score and
Newton step from analytic derivatives, and the likelihood that guards
the step.  One outcome rule reads the fit: no recruit, the tail
statistic, Newton, the cap on log alpha, the boundary limit and the
certificate.  It names one of four kinds, which ``ModelFit`` carries:
"ok" for an interior maximum, "nonconverged" for a search that stalled,
"boundary" for the monotone-likelihood limit and "insufficient" where
there is nothing to fit.  Each kind is an outcome, not an error:
``fit_mle`` returns a fit of any of them, and raises only for misuse.

``fit_rows`` fits a batch into one ``ModelFit`` of arrays.  Its rows are
grouped by their number of open centres and by whether those share one
exposure, and each group runs in passes of at most ``block_rows(C)``
rows, the bound on every batch array that the harness's blocks share, so
that no array of a pass holds more than 2^16 values.  A pass runs the
same loop and the same outcome rule as ``fit_mle``, on arrays of its
rows where a trial has floats, with the ascents and likelihood methods
written once over the last axis, so that each row gets the bits
``fit_mle`` gives it alone.  Where the loop would stop a trial, it drops
that row from the pass.  A pass takes its count sums from one array of
rise terms for all of its rows, and sums the rows of each class of rise
counts in one reduction: a row's rise terms padded with zeros within
their 8-wide block of NumPy's pairwise sum add to the bits of its own
terms alone (``_runs``), so that a count sum on the tables' blocks makes
1-4 reductions rather than one for each distinct rise count.  A pass's
narrowings share one store of each row's last beta, so a row takes its
per-centre terms once for each new beta, as ``fit_mle`` does.  They
also share the pass's scratch (``_Scratch``): two arrays of
``block_rows(C)`` rows of C values, allocated once, into which every
per-centre temporary of a Newton step is written, so that a step asks
the allocator for no block-sized memory.  Fresh block-sized arrays on
every step had cost a table-3 pass about 5-6.5 minor page faults a
replication, fitting one drawn block again and again; with the scratch
it takes 0.09-0.52.  Read around each block's fit as the harness runs
it, after its draw (the ``faults`` column of ``tools/stages.py``), a
pass took 4.3-4.7 before the scratch and takes 0.01-1.2 with it.  The
likelihood, its score and its Hessian are written once
(``_Likelihood``), into a scratch that a single fit owns too, of one row
of C values.  A pass of fewer than 10 rows (``_MIN_GROUP_ROWS``) is too
short to repay its fixed cost and goes through ``fit_mle`` row by row:
a short group, or any pass of trials with more than 6,553 open centres,
where ``block_rows(C)`` holds fewer rows than that.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ._elementwise import column, every, larger, negate, smaller, some, where

__all__ = [
    "TrialData",
    "ModelFit",
    "ModelError",
    "DegenerateLikelihood",
    "log_likelihood",
    "fit_mle",
    "fit_rows",
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
# digamma and -1 / (a + j)^2 for its trigamma difference; Stirling's
# series takes a count on from a + 2^8, where six of its terms hold it to
# rounding.
_EXACT_RISE_TERMS = 1 << 8
# NumPy's pairwise block: np.add.reduce adds a row of at most this many
# floats in eight accumulators, term i into accumulator i % 8, and then
# its last n % 8 terms one by one, so zeros padded after a row's k terms
# up to width k | 7 below this are among those last terms and leave its
# bits as they are.  A longer row is split in halves at a multiple of 8
# set by its width, and is summed at its own width.  It is NumPy's, not
# an option: test_fit_rows checks it for every k.
_PAIRWISE_BLOCK = 128
# A Newton fit counts as converged where its score in (log alpha, log
# beta) is at most this.
_CERTIFIED_SCORE = 1e-8
# A batch array holds at most this many values: the harness draws a
# block and fit_rows runs a pass of at most block_rows(C) trials, whose
# centres and whose rise weights each fit it, so a batch's memory does
# not grow with its number of trials.
_BLOCK_ELEMENTS = 1 << 16
# fit_rows fits a pass of its rows in one batch only with at least this
# many rows, and else one row at a time with fit_mle: the pass shares its
# fixed cost per step among its rows, but costs more per centre than a
# single fit (see fit_rows)
_MIN_GROUP_ROWS = 10
_EPS = float(np.finfo(float).eps)
_KIND = "<U12"
_NO_VALUES = np.empty(0)
_INT64_MAX = int(np.iinfo(np.int64).max)


class ModelError(Exception):
    """Base class for fitting errors."""


class DegenerateLikelihood(ModelError):
    """A study with no fit to score: ``coverage_study`` raises it where no
    replication produced usable data.

    A single trial's monotone likelihood, which increases without bound
    as (alpha, beta) grow with their ratio fixed, is no error: ``fit_mle``
    returns its limit as a fit of kind "boundary".
    """


def _in_bounds(exposures: np.ndarray, counts: np.ndarray, census_time: float) -> bool:
    """``TrialData``'s element rules as one test: every exposure in
    [0, census_time], which a NaN fails, every count non-negative, and no
    count at zero exposure, which only a zero shortest exposure can hold."""
    shortest = exposures.min()
    if not (shortest >= 0 and exposures.max() <= census_time and counts.min() >= 0):
        return False
    return shortest > 0 or not ((exposures == 0) & (counts != 0)).any()


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
    trial's total count within the int64 range and its summed exposure
    within the float range.  An error about a batch also names the
    trial, counted from 0 like its row, but for counts that are not
    numbers: NumPy reads a batch holding one string as all strings, so
    that refusal names only the dtype, as for one trial.

    ``data[i]`` is trial i of a batch, a one-trial ``TrialData`` whose
    arrays are read-only views of the batch's row, checked already.
    ``fit_mle`` and ``log_likelihood`` take one trial; ``fit_rows`` fits
    every row of a batch at once.
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

        # integer counts that pass one test of every element rule need no
        # other; the rules run one by one, in order, to name a failure, and
        # for counts that are floats or unsigned
        if counts.dtype.kind in "bi" and _in_bounds(exposures, counts, census_time):
            counts = counts.astype(np.int64)
        else:
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
        # each exposure is at most the census, so a row's sum can leave the
        # float range only where the census times its centres nearly does:
        # twice that product leaves room for the rounding of the sum
        if math.isinf(2.0 * census_time * num_centres):
            spans = exposures.reshape(-1, num_centres)
            with np.errstate(over="ignore"):
                sums = spans.sum(axis=1)
            for row in np.flatnonzero(np.isinf(sums)):
                from decimal import Context, Decimal  # the sum exactly, for the message
                total = Context(prec=6).plus(sum(map(Decimal, spans[row].tolist())))
                raise ValueError(f"{trial(row)}exposures sum to {total.normalize():g}, "
                                 f"past the float maximum {np.finfo(float).max:.6g}")
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
        # past the frozen dataclass's __setattr__, as __post_init__ does
        trial.__dict__.update(census_time=self.census_time, exposures=self.exposures[row],
                              counts=self.counts[row], ids=self.ids)
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
                         "take its trials one at a time as data[i], or fit them all with fit_rows")
    return data


@dataclass(frozen=True)
class ModelFit:
    """Fitted shape/rate pair with its outcome and optimizer diagnostics,
    for one trial, or for each row of a batch as arrays, one entry a row.

    ``kind`` is the outcome: "ok" for an interior maximum that the score
    certifies, "nonconverged" for a search that stalled short of it,
    "boundary" for the constant-ratio limit of a monotone likelihood, and
    "insufficient" where there is nothing to fit, with NaN estimates and
    log-likelihood and no step.  ``iterations`` counts Newton steps;
    ``equal_exposures`` records that the open centres shared one
    exposure, so the fit ran along the ray alpha/beta = n/(C t).
    """

    alpha_hat: float
    beta_hat: float
    log_lik: float
    kind: str
    iterations: int
    equal_exposures: bool = False

    @property
    def converged(self):
        """Whether the fit is an interior maximum: its kind is "ok"."""
        return self.kind == "ok"


@np.errstate(all="ignore")
def log_likelihood(alpha: float, beta: float, data: TrialData) -> float:
    """Marginal log-likelihood of (alpha, beta), up to a data-only constant.

    The sums are built and read with NumPy's floating-point warnings off,
    as in ``fit_mle``: past the float range of the squared exposures,
    which the likelihood does not read, they overflow silently.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return float(_Workspace(data).loglik(alpha, beta))


# The formulas below are written once, over the last axis: one trial's
# per-centre arrays are 1-d and its per-trial values scalars; a group of
# trials stacks its per-centre arrays as rows, one value per row.  Sums
# run along each row's own length and the rest is ufuncs, whose bits do
# not depend on the layout, so a trial fits to the same bits alone and in
# a group.  The likelihood, its score and its Hessian write their
# per-centre terms into a scratch (``_Scratch``), of one row for a trial
# and of a pass's rows for a group; a ufunc's ``out`` changes where its
# values go, not what they are.
#
# Sums along that axis call _row_sum, the reduction inside ndarray.sum,
# without the Python layer around it: the fit takes a few dozen of them,
# and for a trial of few centres that layer costs as much as the sum.

_row_sum = np.add.reduce


def _one_exposure(longest, shortest):
    """The equal-exposure rule on the longest and the shortest exposure of
    the open centres: true where they share one exposure, and the fit
    runs along the ray."""
    return longest - shortest <= _RELATIVE_EXPOSURE_TOL * longest


def _tally(counts: np.ndarray, rises: int) -> np.ndarray:
    """How many open centres count exactly j, for j up to ``rises`` (the
    last bin holding the counts from there on), per row of ``counts``,
    integers or their floats; the rows share ``rises``."""
    width = rises + 1
    clipped = np.minimum(counts, rises).astype(int, copy=False)
    bins = clipped + width * np.arange(len(counts))[:, None]
    tally = np.bincount(bins.ravel(), minlength=width * len(counts))
    return tally.reshape(-1, width)


def _rise_weights(tally: np.ndarray, num_open: int, rises: int) -> np.ndarray:
    """w_j for j < ``rises``, the number of open centres counting past j,
    from the ``tally`` of the counts along its last axis."""
    return (num_open - tally[..., :rises].cumsum(axis=-1)).astype(float)


def _beyond(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One trial's distinct counts past the exact-sum head, as floats,
    their multiplicities, and how far their squares pass (2^8 + 1)^2."""
    big, mult = np.unique(counts[counts > _EXACT_RISE_TERMS], return_counts=True)
    values, times = big.tolist(), mult.tolist()  # Python ints: squares may pass int64
    excess = (sum(map(operator.mul, map(operator.mul, values, values), times))
              - (_EXACT_RISE_TERMS + 1) ** 2 * sum(times))
    return big.astype(float), mult.astype(float), excess


def _sums(ws, exposures: np.ndarray, counts: np.ndarray, clipped: np.ndarray):
    """Give ``ws`` the open centres' ``exposures`` and ``counts`` and the
    per-trial sums of exposures that the fit reads.  Returns each trial's
    total count and its sum of squared counts ``clipped`` at 2^8 + 1."""
    ws.num_open = counts.shape[-1]
    ws.exposures = exposures
    ws.counts = counts.astype(float)
    ws.total_exposure = _row_sum(exposures, axis=-1)
    ws.sum_exposure_sq = _row_sum(exposures * exposures, axis=-1)
    return _row_sum(counts, axis=-1), _row_sum(clipped * clipped, axis=-1)


def _count_squares(total: int, sum_sq: int) -> tuple[float, float]:
    """n^2 and sum_c n_c (n_c - 1) = sum_c n_c^2 - n of one trial, from
    its exact integers: the first and the last term of K."""
    return float(total * total), float(sum_sq - total)


# Where a per-trial value meets the centres, ``a`` and ``b`` stand for
# alpha and beta as one trial's scalars or as a group's columns.

def _log1p_sum(exposures: np.ndarray, b, out: np.ndarray):
    """sum_c log1p(t_c / b), its terms written into ``out``, which may be
    ``exposures`` itself."""
    return _row_sum(np.log1p(np.divide(exposures, b, out=out), out=out), axis=-1)


# Stirling's series past its leading terms (DLMF 5.11.1) is
# sum_k c_k v^(1 - 2k) with c_k = B_2k / (2k (2k - 1)), for k = 1 to 6.
# Row ``order`` holds the coefficients and powers of its derivative of
# that order: c_k v^(1 - 2k), -B_2k / (2k) v^(-2k) and B_2k v^(-1 - 2k).
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730])
_SERIES = _BERNOULLI / np.array([[2, 12, 30, 56, 90, 132], [-2, -4, -6, -8, -10, -12], [1] * 6])
_SERIES_POWERS = np.array([[1], [0], [-1]]) - 2 * np.arange(1, 7)


def _rise_terms(order: int, weights: np.ndarray, rise: np.ndarray) -> np.ndarray:
    """The terms of count sum ``order`` at the leading rises a + j:
    w_j log(a + j), w_j / (a + j) and -w_j / (a + j)^2."""
    if order == 0:
        return weights * np.log(rise)
    if order == 1:
        return weights * (1.0 / rise)
    return -weights / (rise * rise)


def _rise_sum(order: int, weights: np.ndarray, rise: np.ndarray):
    """Count sum ``order`` over the leading rises a + j, term by term."""
    return _row_sum(_rise_terms(order, weights, rise), axis=-1)


def _beyond_sum(order: int, alpha, values: np.ndarray, mult: np.ndarray, starts=(0,)):
    """What each trial's counts past the exact-sum head add to count sum
    ``order``: from x = a + 2^8 to y = a + n, with d = n - 2^8,

        logGamma(y) - logGamma(x) = (x - 1/2) log1p(d / x) + d log y - d
                                    + sum_k c_k (y^(1 - 2k) - x^(1 - 2k)),

    or its first or second derivative in a, written so that no difference
    of two large terms sinks the sum into rounding.  ``values`` holds
    distinct counts with their multiplicities ``mult``, one run a trial
    from each of ``starts``, and ``alpha`` is one or one per count; a run
    is summed on its own, so a trial gets the same bits alone as in a
    group."""
    x = alpha + _EXACT_RISE_TERMS
    y = alpha + values
    d = values - _EXACT_RISE_TERMS
    if order == 0:
        lead = (x - 0.5) * np.log1p(d / x) + d * np.log(y) - d
    elif order == 1:
        lead = np.log1p(d / x) + d / (2.0 * x * y)
    else:
        lead = -d / (x * y) * (1.0 + 0.5 / x + 0.5 / y)
    powers = _SERIES_POWERS[order]
    series = _row_sum(_SERIES[order] * (np.power.outer(y, powers) - np.power.outer(x, powers)),
                      axis=-1)
    return [_row_sum(run, axis=-1) for run in np.split(mult * (lead + series), starts[1:])]


def _tail_statistic(ws):
    """K of ``tail_statistic`` for unequal exposures: its three terms in
    exposure shares, and 0 where K lies within their rounding."""
    shares = ws.exposures / column(ws.total_exposure)
    terms = (ws.total_count_sq * _row_sum(shares * shares, axis=-1) / 2.0,
             -ws.total_count * _row_sum(ws.counts * shares, axis=-1),
             ws.same_centre_pairs / 2.0)
    k = terms[0] + terms[1] + terms[2]
    rounding = (ws.num_open + 2) * _EPS * (abs(terms[0]) + abs(terms[1]) + abs(terms[2]))
    return where(abs(k) <= rounding, 0.0, k)


_EXP8 = np.exp(8.0)


def _moment_start(ws):
    """Method-of-moments start in (log alpha, log beta).  beta carries
    the unit of time, so its bounds are in units of the mean exposure."""
    unit = ws.total_exposure / ws.num_open
    rate = ws.total_count / ws.total_exposure
    residual = ws.counts - column(rate) * ws.exposures
    excess = _row_sum(residual * residual, axis=-1) - rate * ws.total_exposure
    # with no visible over-dispersion, start high and let the bound rule decide
    beta0 = where((excess > 0) & (ws.sum_exposure_sq > 0),
                  rate / (excess / ws.sum_exposure_sq), _EXP8 / rate)
    beta0 = smaller(larger(beta0, 1e-4 * unit), 1e8 * unit)
    alpha0 = smaller(larger(rate * beta0, 1e-4), 1e8)
    return np.log(alpha0), np.log(beta0)


def _boundary(ws):
    """The constant-ratio limit along alpha / beta = n / sum(t): alpha at
    the log-alpha cap, beta and the limit of the likelihood."""
    ratio = ws.total_count / ws.total_exposure
    alpha = math.exp(_MAX_LOG_ALPHA)
    return alpha, alpha / ratio, ws.total_count * np.log(ratio) - ratio * ws.total_exposure


def _log_score(alpha, beta, score):
    """The score in (log alpha, log beta) and its max-norm."""
    g_a, g_b = alpha * score[0], beta * score[1]
    return g_a, g_b, larger(abs(g_a), abs(g_b))


def _plane_step(ws: _Likelihood, alpha, beta, g_a, g_b):
    """Newton's step in (log alpha, log beta), by at most 2 in each."""
    h_aa, h_ab, h_bb = ws.hessian(alpha, beta)
    h_11 = h_aa * (alpha * alpha) + g_a
    h_12 = h_ab * (alpha * beta)
    h_22 = h_bb * (beta * beta) + g_b
    det = h_11 * h_22 - h_12 * h_12
    s_a = (h_12 * g_b - h_22 * g_a) / det
    s_b = (h_12 * g_a - h_11 * g_b) / det
    uphill = ~((det > 0) & (h_11 < 0))
    if uphill.any() if isinstance(uphill, np.ndarray) else uphill:
        # not locally concave, so Newton would head for a saddle or a
        # minimum: go uphill along each curvature axis by |slope /
        # curvature|; a plain gradient step zigzags on near-flat ridges
        rows = np.flatnonzero(uphill)
        h_11, h_12, h_22, g_a, g_b = (np.reshape(x, -1)[rows]
                                      for x in (h_11, h_12, h_22, g_a, g_b))
        curvature, axes = np.linalg.eigh(np.stack([h_11, h_12, h_12, h_22], axis=-1)
                                         .reshape(-1, 2, 2))
        slopes = np.swapaxes(axes, -1, -2) @ np.stack([g_a, g_b], axis=-1)[..., None]
        step = axes @ (slopes / np.maximum(np.abs(curvature), 1e-12)[..., None])
        s_a, s_b = (np.array(s, dtype=float) for s in (s_a, s_b))
        s_a.reshape(-1)[rows], s_b.reshape(-1)[rows] = step[:, 0, 0], step[:, 1, 0]
        s_a, s_b = s_a[()], s_b[()]
    norm = larger(abs(s_a), abs(s_b))
    scale = where(norm > 2.0, 2.0 / norm, 1.0)  # exact where it is 1
    return s_a * scale, s_b * scale


def _ray_tail(num_open: int, total: int, sum_sq: int) -> float:
    """K of ``tail_statistic`` for C equal exposures, with the sign of the
    integer C sum(n^2) - n^2 - C n, evaluated exactly."""
    return (num_open * sum_sq - total * total - num_open * total) / (2.0 * num_open)


def _ray_step(ws: _Likelihood, alpha, beta, d1):
    """Newton's step in log alpha along the ray, from the profile's
    curvature d2 = a (a trigamma + C t / (b + t)) + d1: the Newton step
    where the profile is concave; off it (the convex tail toward the
    constant-ratio boundary) the same length uphill; at most 1 either
    way."""
    t = ws.common_exposure
    d2 = alpha * (alpha * ws.count_sum(2, alpha) + ws.num_open * t / (beta + t)) + d1
    return (larger(smaller(d1 / larger(abs(d2), 1e-12), 1.0), -1.0),)


class _Likelihood:
    """The likelihood, its derivatives and its profile along the ray, for
    one trial (``_Workspace``) or for a group of trials, one row each
    (``_Rows``).  Each supplies its sums, its count sums ``count_sum``, a
    ``_Scratch`` and ``_terms``: alpha and beta, b + t_c in the scratch's
    slot, sum_c log1p(t_c / b), cached at the beta it was last asked for,
    and the scratch's buffer for a method's per-centre terms.  A trial
    also keeps its last score.  The one Newton loop (``_newton``) and the
    one outcome rule (``_outcome``) step and read either, with floats for
    a trial and arrays for a group, and the likelihood, the score and the
    Hessian below are written once for both.

    The likelihood and its score are sums of per-centre differences such
    as log(b + t) - log(b) = log1p(t / b), not differences of sums: on a
    near-flat ridge alpha and beta grow together, the sums grow with them
    and their difference would sink into rounding.  The count terms are
    exact sums over the rises, and a series in differences past them, for
    the same reason.
    """

    def loglik(self, alpha, beta):
        _, _, shifted, log_ratio, terms = self._terms(alpha, beta)
        logs = np.log(shifted, out=terms)
        return (self.count_sum(0, alpha) - alpha * log_ratio
                - _row_sum(np.multiply(self.counts, logs, out=logs), axis=-1))

    def score(self, alpha, beta):
        """(d_alpha, d_beta), summed centre by centre."""
        a, b, shifted, log_ratio, terms = self._terms(alpha, beta)
        np.multiply(a, self.exposures, out=terms)
        np.subtract(np.divide(terms, b, out=terms), self.counts, out=terms)
        return (self.count_sum(1, alpha) - log_ratio,
                _row_sum(np.divide(terms, shifted, out=terms), axis=-1))

    def hessian(self, alpha, beta):
        """(h_aa, h_ab, h_bb) in natural (alpha, beta) coordinates, each
        summed centre by centre from one pass over the inverse of b + t_c,
        written over b + t_c."""
        a, _, shifted, _, terms = self._terms(alpha, beta)
        inv = self.scratch.invert(shifted)
        h_ab = self.num_open / beta - _row_sum(inv, axis=-1)
        np.multiply(np.multiply(np.add(a, self.counts, out=terms), inv, out=terms), inv, out=terms)
        h_bb = -self.num_open * alpha / (beta * beta) + _row_sum(terms, axis=-1)
        return self.count_sum(2, alpha), h_ab, h_bb

    def profile_loglik(self, log_alpha):
        """The likelihood along beta = alpha / ``ratio``, the ray of equal
        exposures, from its logGamma count sum."""
        alpha = np.exp(log_alpha)
        beta = alpha / self.ratio
        t = self.common_exposure
        return (self.count_sum(0, alpha) - self.num_open * alpha * np.log1p(t / beta)
                - self.total_count * np.log(beta + t))

    def tail_statistic(self):
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
        return self.exact_tail if self.equal_exposures else _tail_statistic(self)


class _Workspace(_Likelihood):
    """One trial's sums, cached for repeated likelihood evaluations.

    The counts enter through one tally, the rise weights: w_j is the
    number of centres counting past j, so that for integer counts

        sum_c logGamma(a + n_c) - logGamma(a) = sum_j w_j log(a + j)

    and its first two derivatives in a are the sums of w_j / (a + j) and
    of -w_j / (a + j)^2, each exact term by term.  The rises stop at the
    exact-sum head, j < 2^8; the counts past it, distinct with their
    multiplicities, go on from a + 2^8 by Stirling's series
    (``_beyond_sum``).

    It owns a ``_Scratch`` of one row of C values, into which its
    likelihood, score and Hessian write their per-centre terms as a
    pass's do, so that they take no fresh per-centre array at a step.
    """

    def __init__(self, data: TrialData):
        exposures, counts = _one_trial(data).exposures, data.counts
        if np.count_nonzero(exposures) < exposures.size:
            # closed centres hold zero counts, so every likelihood term they
            # would add cancels exactly; drop them once here
            opened = exposures > 0
            exposures, counts = exposures[opened], counts[opened]
        clipped = np.minimum(counts, _EXACT_RISE_TERMS + 1)  # squares far inside int64
        tally = np.bincount(clipped)
        total, sum_sq = _sums(self, exposures, counts, clipped)
        self.total_count, self.sum_count_sq = int(total), int(sum_sq)
        self.beyond_values = self.beyond_mult = _NO_VALUES
        if tally.size > _EXACT_RISE_TERMS + 1:
            self.beyond_values, self.beyond_mult, excess = _beyond(counts)
            self.sum_count_sq += excess
        self.total_count_sq, self.same_centre_pairs = _count_squares(self.total_count,
                                                                     self.sum_count_sq)
        rises = min(max(tally.size - 1, 0), _EXACT_RISE_TERMS)
        self.rise_weights = _rise_weights(tally, self.num_open, rises)
        self.rise_offsets = np.arange(rises, dtype=float)
        self.equal_exposures = bool(self.num_open
                                    and _one_exposure(exposures.max(), exposures.min()))
        if self.equal_exposures:
            # the ray alpha / beta = n / (C t)
            self.common_exposure = self.total_exposure / self.num_open
            self.ratio = self.total_count / (self.num_open * self.common_exposure)
            self.exact_tail = _ray_tail(self.num_open, self.total_count, self.sum_count_sq)
        self.scratch = _Scratch((self.num_open,))
        # the argument each one-point cache below last saw; its values are
        # set with it
        self._beta = self._alpha = self._point = None

    # Each point's values are computed once.  A Newton line search takes
    # the likelihood at the point that the next step differentiates, and
    # fit_mle certifies the point that Newton stopped at, so the terms of
    # beta, the count sums of alpha and the score keep the values of the
    # last argument they were asked for; b + t_c only while the scratch
    # still holds it.  A count sum is computed only when read: a line
    # search reads only the logGamma sum.

    def _terms(self, alpha: float, beta: float):
        """alpha, beta, b + t_c per centre, sum_c log1p(t_c / b) and the
        buffer for a method's per-centre terms."""
        if beta != self._beta:
            self._log_ratio = _log1p_sum(self.exposures, beta, self.scratch.terms)
            self._beta, self._shift = beta, None
        self._shift = shifted, terms = self.scratch.shift(self._shift, beta, self.exposures)
        return alpha, beta, shifted, self._log_ratio, terms

    def count_sum(self, order: int, alpha: float) -> float:
        """sum_c logGamma(a + n_c) - logGamma(a) for ``order`` 0, and the
        same sums of digamma and of trigamma for 1 and 2."""
        if alpha != self._alpha:
            self._alpha, self._count_values = alpha, [None, None, None]
            self._rise = alpha + self.rise_offsets
        value = self._count_values[order]
        if value is None:
            value = _rise_sum(order, self.rise_weights, self._rise)
            if self.beyond_values.size:
                value = value + _beyond_sum(order, alpha, self.beyond_values,
                                            self.beyond_mult)[0]
            self._count_values[order] = value
        return value

    def score(self, alpha: float, beta: float) -> tuple[float, float]:
        if (alpha, beta) != self._point:
            self._score = _Likelihood.score(self, alpha, beta)
            self._point = (alpha, beta)
        return self._score


class _Rows(_Likelihood):
    """The sums of a group of trials with the same number of open centres,
    one row each: trials whose open centres share one exposure if
    ``equal_exposures``, and else trials whose do not.

    Its methods take alpha and beta per row and compute every row;
    ``take`` narrows it to some of its rows.  The rise weights, computed
    once and at most 2^8 a row, lie in one array zero padded to the
    widest row, which a group of at most ``block_rows(C)`` rows keeps
    within 2^16 weights.  A count sum takes the rise terms with one
    array pass, and then sums each run of consecutive rows in one class
    of rise counts k in one reduction (``_runs``), so each row sums its
    own k terms and the zeros after them, which add nothing to its bits;
    rows sorted by k make the fewest runs.  A narrowed group keeps its
    rows' weights, cut to its widest row.  A row's counts past
    the head add Stirling's series, as one trial's do.

    A pass owns a ``_Scratch`` of ``block_rows(C)`` rows, and every
    group taken from it shares it: b + t_c and the per-centre terms of
    the likelihood, the score, the Hessian and sum_c log1p(t_c / b) are
    written into its two arrays, and a line search's group may write the
    slot of b + t_c between the score and the likelihood of the group it
    was taken from (``_Scratch`` keeps the rule).  Before it the pass
    took a fresh array for each of these temporaries, at every step;
    glibc handed such arrays newly mapped pages and trimmed them back,
    5.0-6.5 minor faults a replication on table 3 and 2.2-2.3 on table 2,
    which the scratch, with the integer counts read only while the sums
    are built, brings to 0.09-0.52 and 0.04-0.36 (a 200-replication
    block of each row fitted again and again, eight and six processes a
    side, by ``getrusage``'s minor-fault count, which the ``faults``
    column of ``tools/stages.py`` reads around each block's fit).
    """

    # what take narrows: the values and arrays that hold one row per trial
    _per_row = frozenset({"exposures", "counts", "total_exposure", "sum_exposure_sq",
                          "total_count", "common_exposure", "ratio", "exact_tail",
                          "total_count_sq", "same_centre_pairs", "rises", "store_at"})

    def __init__(self, exposures: np.ndarray, counts: np.ndarray, part: np.ndarray,
                 equal_exposures: bool):
        # the open centres of the batch rows ``part``, taken here so that
        # their integer counts, which only these sums read, die with this
        # call rather than live through the pass
        exposures, counts = exposures[part], counts[part]
        opened = exposures > 0
        if not opened.all():
            exposures, counts = (x[opened].reshape(len(part), -1) for x in (exposures, counts))
        clipped = np.minimum(counts, _EXACT_RISE_TERMS + 1)  # squares far inside int64
        largest = clipped.max(axis=1).tolist()
        totals, sums_sq = (sums.tolist() for sums in _sums(self, exposures, counts, clipped))
        beyond = [(row, *_beyond(counts[row]))
                  for row, top in enumerate(largest) if top > _EXACT_RISE_TERMS]
        at, values, mult = np.empty(0, dtype=int), _NO_VALUES, _NO_VALUES
        if beyond:
            rows, values, mult, excess = zip(*beyond)
            for row, extra in zip(rows, excess):
                sums_sq[row] += extra
            at = np.repeat(rows, [len(v) for v in values])
            values, mult = np.concatenate(values), np.concatenate(mult)
        self._keep_beyond(at, values, mult)
        self.total_count = np.array(totals, dtype=float)
        self.equal_exposures = equal_exposures
        if equal_exposures:
            self.common_exposure = self.total_exposure / self.num_open
            self.ratio = self.total_count / (self.num_open * self.common_exposure)
            # from the Python ints: C sum(n^2) may pass the int64 range
            self.exact_tail = np.array([_ray_tail(self.num_open, n, s)
                                        for n, s in zip(totals, sums_sq)])
        else:
            self.total_count_sq, self.same_centre_pairs = np.array(
                [_count_squares(n, s) for n, s in zip(totals, sums_sq)]).T
        self.rises = np.minimum(largest, _EXACT_RISE_TERMS)
        width = int(self.rises.max())
        self.rise_offsets = np.arange(width, dtype=float)
        self.rise_weights = _rise_weights(_tally(counts, width), self.num_open, width)
        self.runs = _runs(self.rises)
        # the beta store that this group and every group taken from it
        # share: each row's last beta and its sum_c log1p(t_c / b), and
        # where in it each row of the group lies
        self.stored_beta = np.full(len(largest), np.nan)
        self.stored_log1p = np.empty(len(largest))
        self.store_at = np.arange(len(largest))
        self.scratch = _Scratch((block_rows(self.num_open), self.num_open))
        self._beta = None

    def take(self, positions: np.ndarray) -> "_Rows":
        """The group of the rows ``positions``, ascending, of this one,
        with a cache of beta of its own, and the beta store and the
        scratch of this one; taking every row shares its arrays."""
        ws = object.__new__(_Rows)
        ws.__dict__ = values = vars(self).copy()
        ws._beta = None
        if len(positions) == len(self.total_count):
            return ws
        for name in self._per_row.intersection(values):
            values[name] = values[name][positions]
        width = ws.rises.max(initial=0)
        ws.rise_offsets = self.rise_offsets[:width]
        ws.rise_weights = self.rise_weights[positions, :width]
        ws.runs = _runs(ws.rises)
        if self.beyond_rows.size:
            taken = np.zeros(len(self.total_count), dtype=bool)
            taken[positions] = True
            kept = taken[self.beyond_at]
            ws._keep_beyond(positions.searchsorted(self.beyond_at[kept]),
                            self.beyond_values[kept], self.beyond_mult[kept])
        return ws

    def _keep_beyond(self, at: np.ndarray, values: np.ndarray, mult: np.ndarray):
        """Keep the rows' distinct counts past the exact-sum head, one run
        a row, with their multiplicities and the row ``at`` each value."""
        self.beyond_at, self.beyond_values, self.beyond_mult = at, values, mult
        self.beyond_rows, self.beyond_starts = np.unique(at, return_index=True)

    # One array of beta is one point: the score and the Hessian that
    # Newton reads at it, and the score and the likelihood that certify
    # it, share its b + t_c.  The sums log1p(t_c / b) go through the beta
    # store, compared row by row by value, so a row takes them once for
    # each new beta whichever group of its rows asks: as fit_mle's
    # workspace does, the next ascent, a line search's first point and
    # the certificate read the terms of the last beta a row was asked for.

    def _terms(self, alpha: np.ndarray, beta: np.ndarray):
        """alpha and beta as columns, b + t_c per centre, sum_c log1p(t_c
        / b) and the buffer for a method's per-centre terms."""
        if beta is not self._beta:
            b = beta[:, None]
            at = self.store_at
            stale = np.flatnonzero(self.stored_beta[at] != beta)
            if stale.size:
                rows, exposures = slice(None), self.exposures
                terms = self.scratch.terms[:stale.size]
                if stale.size < at.size:
                    # "clip": the default mode copies through a fresh buffer
                    rows = stale
                    exposures = np.take(exposures, stale, axis=0, out=terms, mode="clip")
                self.stored_log1p[at[rows]] = _log1p_sum(exposures, b[rows], terms)
                self.stored_beta[at[rows]] = beta[rows]
            self._beta, self._b, self._shift = beta, b, None
            self._log_ratio = self.stored_log1p[at]
        self._shift = shifted, terms = self.scratch.shift(self._shift, self._b, self.exposures)
        return alpha[:, None], self._b, shifted, self._log_ratio, terms

    def count_sum(self, order: int, alpha: np.ndarray) -> np.ndarray:
        """``_Workspace.count_sum`` for each row, with one reduction for
        each run of ``runs``: a row of k rises sums the first ``width``
        columns of its rise terms, its k terms and zero weights' terms
        after them."""
        sums = np.empty(alpha.size)
        terms = _rise_terms(order, self.rise_weights, alpha[:, None] + self.rise_offsets)
        for lo, hi, width in self.runs:
            sums[lo:hi] = _row_sum(terms[lo:hi, :width], axis=-1)
        if self.beyond_rows.size:
            sums[self.beyond_rows] += _beyond_sum(order, alpha[self.beyond_at], self.beyond_values,
                                                  self.beyond_mult, self.beyond_starts)
        return sums


class _Scratch:
    """The two per-centre arrays that a likelihood writes its temporaries
    into: one row of C values for a trial's ``_Workspace``, and the
    ``block_rows(C)`` rows of the largest pass of C centres for a pass's
    ``_Rows``, shared by every group taken from it, so that every such
    pass asks for the same memory; a group of n rows writes the first n
    rows of each.

    ``shifted`` is the slot of b + t_c, and the rule for it lives here.
    ``shift`` writes b + t_c into it and gives it with the ``terms``
    buffer of as many rows, a pair that owns the slot until another pair
    is written there or ``invert`` writes 1 / (b + t_c) over it.  Whoever
    holds a pair gets it back from ``shift`` while it still owns the
    slot, and else b + t_c written anew, so that no one reads what
    another wrote there: not a trial after its own Hessian, nor a group
    after a group taken from it.  ``terms`` holds a method's per-centre
    terms, read only within the call that writes them.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.shifted, self.terms = np.empty((2, *shape))
        self._owner = None

    def shift(self, held, b, exposures: np.ndarray):
        """``held``, a pair that ``shift`` gave, while it owns the slot,
        and else b + ``exposures`` in the slot with the terms buffer."""
        if held is None or held is not self._owner:
            rows = len(exposures)
            held = self._owner = (np.add(b, exposures, out=self.shifted[:rows]),
                                  self.terms[:rows])
        return held

    def invert(self, shifted: np.ndarray) -> np.ndarray:
        """1 / (b + t_c), written over b + t_c, which then has no owner."""
        self._owner = None
        return np.divide(1.0, shifted, out=shifted)


def _sum_widths(rises: np.ndarray) -> np.ndarray:
    """How many columns of rise terms a row of k ``rises`` sums: its
    class's k | 7, the last of the 8-wide block of the pairwise sum that
    holds k, cut to the widest row, where that stays within NumPy's
    pairwise block, and else k itself.  Either way the sum has the bits
    of the row's k terms alone."""
    classes = rises | 7
    return np.where(classes < _PAIRWISE_BLOCK, np.minimum(classes, rises.max(initial=0)), rises)


def _runs(rises: np.ndarray) -> list:
    """The runs of consecutive rows of ``rises`` that share their class
    of rise counts, and so the width they sum at, as (lo, hi, width):
    rows with k in [8m, 8m + 7] make one class while k | 7 stays below
    the pairwise block, and each longer k one of its own."""
    if not rises.size:
        return []
    widths = _sum_widths(rises)
    ends = [*(np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist(), widths.size]
    starts = [0, *ends[:-1]]
    return list(zip(starts, ends, widths[starts].tolist()))


def block_rows(centres: int) -> int:
    """The most trials of ``centres`` centres that one batch takes: its
    arrays hold at most 2^16 values, a row's centres or its at most 2^8
    rise weights, but a batch always takes one trial."""
    return max(1, _BLOCK_ELEMENTS // max(centres, _EXACT_RISE_TERMS))


def _newton(ws: _Likelihood, start, ascent, objective):
    """Damped Newton uphill on ``ws`` from ``start``, whose first
    coordinate is log alpha: on one trial's ``_Workspace`` the point is
    floats, on a group's ``_Rows`` arrays, one entry a row, and the same
    lines step both.

    ``ascent(ws, *point)`` gives the max-norm of the score there and a
    partial that returns the capped step, called (so reading the
    curvature) only for a step taken; ``objective(ws, *point)`` is the
    likelihood guarding a step.  A row stops where its slope is at most
    1e-10, where ten halvings of its line search fail, or at the step
    cap.  A trial breaks out of the loop there.  A group narrows itself
    to the rows still stepping, so only they read their curvature, and
    each row keeps its own line search, which reads its objective once
    per point, on the group of the rows searching.  Returns each row's
    point and number of steps.
    """
    here = start
    value = here[0] * math.nan  # objective at here, NaN until a line search computes it
    steps = 0
    group = isinstance(ws, _Rows)
    # a group's tests and bounds are the elementwise primitives; a trial's
    # are the builtins that those reduce to on floats, which spare a fit
    # a few dozen calls
    some_row, every_row, low, high, fails = ((some, every, smaller, larger, negate) if group
                                             else (bool, bool, min, max, operator.not_))
    if group:
        # each row's place in the group Newton started on, where it
        # stepped to last and after how many steps
        rows, point = np.arange(value.size), [x.copy() for x in here]
        taken = np.zeros(rows.size, dtype=int)
        if not rows.size:
            return point, taken
    for _ in range(_MAX_STEPS):
        slope, step = ascent(ws, *here)
        stopped = slope <= _GRADIENT_TARGET  # a NaN slope steps on
        if some_row(stopped):
            if every_row(stopped):
                break
            keep = (~stopped).nonzero()[0]
            ws, rows, slope, value = ws.take(keep), rows[keep], slope[keep], value[keep]
            here = [x[keep] for x in here]
            step = partial(step.func, ws, *(x[keep] for x in step.args[1:]))
        new = list(map(operator.add, here, step()))
        new[0] = low(new[0], _MAX_LOG_ALPHA)
        new_value = value * math.nan
        failing = slope > _SAFE_GRADIENT
        if some_row(failing):
            # far out, guard against overshoot; near the optimum the
            # objective moves below float resolution and the comparison
            # would reject perfectly good steps, so Newton runs unchecked
            fresh = failing & (value != value)
            if some_row(fresh):
                value = _objective_on(objective, ws, fresh, here, value)
            floor = value - 1e-10 * high(1.0, abs(value))
            # each row's own search: halve the steps of the rows whose
            # objective falls below their floor
            for _ in range(10):
                new_value = _objective_on(objective, ws, failing, new, new_value)
                failing = failing & fails(new_value >= floor)
                if not some_row(failing):
                    break
                new = [where(failing, x + 0.5 * (n - x), n) for x, n in zip(here, new)]
            else:
                # ten halvings failed: these rows stop where they are
                if every_row(failing):
                    break
                keep = (~failing).nonzero()[0]
                ws, rows, new_value = ws.take(keep), rows[keep], new_value[keep]
                new = [x[keep] for x in new]
        here, value = new, new_value
        steps += 1
        if group:
            for coordinate, x in zip(point, here):
                coordinate[rows] = x
            taken[rows] = steps
    return (point, taken) if group else (here, steps)


def _objective_on(objective, ws: _Likelihood, rows, point, values):
    """``values`` with ``objective`` at ``point`` on the ``rows`` of
    ``ws``, a mask, written in place: a group takes those rows, and a
    trial is its only row."""
    if not isinstance(ws, _Rows):
        return objective(ws, *point)
    at = rows.nonzero()[0]
    values[at] = objective(ws.take(at), *(x[at] for x in point))
    return values


# Newton's ascents.  Each takes a workspace and a point, the first of its
# coordinates log alpha, and gives the max-norm of the score there and
# the step, a partial over the workspace and values of the point, so
# that the Hessian is read only for a step taken, and narrowed with the
# workspace to the rows that step.

def _ray_ascent(ws: _Likelihood, log_alpha):
    """Newton's ascent in log alpha along beta = alpha / ratio, on which
    n = C t alpha / beta cancels every per-centre term in beta from the
    profile's slope d1 = a (digamma - C log1p(t / b))."""
    alpha = np.exp(log_alpha)
    beta = alpha / ws.ratio
    d1 = alpha * (ws.count_sum(1, alpha) - ws.num_open * np.log1p(ws.common_exposure / beta))
    return abs(d1), partial(_ray_step, ws, alpha, beta, d1)


def _plane_ascent(ws: _Likelihood, log_alpha, log_beta):
    """Newton's ascent in (log alpha, log beta)."""
    alpha, beta = np.exp(log_alpha), np.exp(log_beta)
    g_a, g_b, slope = _log_score(alpha, beta, ws.score(alpha, beta))
    return slope, partial(_plane_step, ws, alpha, beta, g_a, g_b)


def _ray_objective(ws: _Likelihood, log_alpha):
    return ws.profile_loglik(log_alpha)


def _plane_objective(ws: _Likelihood, log_alpha, log_beta):
    return ws.loglik(np.exp(log_alpha), np.exp(log_beta))


def _search(ws: _Likelihood):
    """Where Newton starts on ``ws``, its ascent and the likelihood that
    guards its steps: from the method-of-moments start, along the ray
    where the open centres share one exposure and else in the plane."""
    start = _moment_start(ws)
    if ws.equal_exposures:
        return start[:1], _ray_ascent, _ray_objective
    return start, _plane_ascent, _plane_objective


def _estimates(ws: _Likelihood, point):
    """alpha and beta at Newton's ``point``, the likelihood there, and
    whether the score in (log alpha, log beta) is at most 1e-8 there:
    the per-centre score certifies either search's optimum, and in the
    plane it is the score of Newton's last step."""
    alpha = np.exp(point[0])
    beta = alpha / ws.ratio if ws.equal_exposures else np.exp(point[1])
    norm = _log_score(alpha, beta, ws.score(alpha, beta))[2]
    return alpha, beta, ws.loglik(alpha, beta), norm <= _CERTIFIED_SCORE


@np.errstate(all="ignore")
def _outcome(likelihood: type, *data):
    """The sums ``likelihood(*data)``, of one trial (``_Workspace``) or of
    a group of trials (``_Rows``), and the fit of each: ``ModelFit``'s
    kind, estimates, log-likelihood and steps, as floats for a trial and
    as arrays, one entry a row, for a group.

    A fit with no recruit is "insufficient", with NaN estimates and no
    step.  Newton steps each other fit whose tail statistic is positive,
    a group's in one pass.  A fit that Newton does not step, or leaves at
    log alpha 29.9 or past it, is a "boundary", at the constant-ratio
    limit.  Any other is "ok" where its score in (log alpha, log beta) is
    at most 1e-8 at Newton's point, and "nonconverged" where it is not.
    A trial returns where its kind is settled; a group takes only its
    rows that step to Newton, and only those inside the cap to the
    certificate, and writes each row's fit in its place.  The sums are
    built and the fit run with NumPy's floating-point warnings off: past
    the float range of the squared exposures a fit goes wrong without a
    warning, as ``fit_mle`` says.
    """
    ws = likelihood(*data)
    group = likelihood is _Rows
    enough = ws.total_count > 0
    stepping = enough & (ws.tail_statistic() > 0)
    if not (group or stepping):
        return ws, _settled(ws, enough, 0)
    start, ascent, objective = _search(ws)
    if group:
        # every row as if Newton left it at the cap, and those that it
        # steps, at their places at
        fits = _settled(ws, enough, np.zeros(enough.size, dtype=int))
        at = np.flatnonzero(stepping)
        start = [x[at] for x in start]
    # Newton holds the only reference to a group's rows, so that each
    # narrowing frees the rows it drops
    point, steps = _newton(ws.take(at) if group else ws, start, ascent, objective)
    capped = point[0] >= _MAX_LOG_ALPHA - 0.1
    rows = ws
    if group:
        fits[4][at] = steps
        inner = np.flatnonzero(~capped)
        point, at = [x[inner] for x in point], at[inner]
        rows = ws.take(at)
    elif capped:
        return ws, _settled(ws, True, steps)
    *found, certified = _estimates(rows, point)
    kind = where(certified, "ok", "nonconverged")
    if not group:
        return ws, (kind, *found, steps)
    for field, values in zip(fits, (kind, *found)):
        field[at] = values
    return ws, fits


def _settled(ws: _Likelihood, enough, steps):
    """The kind, estimates, log-likelihood and ``steps`` of fits that
    Newton does not leave inside the cap: "insufficient", with NaN
    estimates, where there is not ``enough`` to fit, and else a
    "boundary" at the constant-ratio limit."""
    limit = (where(enough, x, math.nan) for x in _boundary(ws))
    return where(enough, "boundary", "insufficient"), *limit, steps


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
    the steps taken.  The fit's ``kind`` is "ok" where the score in (log
    alpha, log beta) at its estimates is at most 1e-8, and "nonconverged"
    where it is not.  ``fit_rows`` runs the same loop and the same
    outcome rule on a batch's rows.

    alpha does not depend on the unit of time and beta scales with it
    while the squared exposures stay in the float range, from about 1e-150
    to 1e150.  Where their sum reads inf, from about 1e154, the
    method-of-moments start takes its largest alpha, 1e8, without a
    floating-point warning.  In the plane Newton may then take no step:
    the demo events trial with its exposures scaled by 1e154 to 1e305 is
    reported as not converged after 0 steps.  Along the ray Newton steps
    down from there and may still converge: the demo summary at census
    1e300 certifies in 22 steps.  But where beta at that start, 1e8
    times the summed exposure over the total count, is past the float
    maximum (the demo summary from census 1e301), beta reads inf, Newton
    runs its 120 steps to the cap on log alpha, and the fit is of kind
    "boundary", although the tail statistic is positive.

    Every kind is returned.  A trial with no recruit, or with no open
    centre, is "insufficient", with NaN estimates and log-likelihood and
    0 ``iterations``.  Where the likelihood is still rising at log alpha
    = 30, so that no interior point beats the boundary value along the
    fixed-ratio ray alpha/beta = n / sum(t), the fit is that limit, of
    kind "boundary": alpha = e^30 and the limit of the likelihood.  A
    batch is refused with ValueError; fit it with ``fit_rows``.
    """
    ws, (kind, alpha_hat, beta_hat, log_lik, steps) = _outcome(_Workspace, data)
    return ModelFit(alpha_hat=float(alpha_hat), beta_hat=float(beta_hat),
                    log_lik=float(log_lik), kind=kind, iterations=steps,
                    equal_exposures=ws.equal_exposures)


def fit_rows(data: TrialData) -> ModelFit:
    """``fit_mle`` for each row of a batch, bit for bit, as one
    ``ModelFit`` whose fields are arrays with one entry a row.

    Each row's fields are those of the fit ``fit_mle`` returns for it,
    of any kind: an "insufficient" row has NaN estimates and
    log-likelihood and 0 ``iterations``.

    The rows are grouped by whether their open centres share one
    exposure and by their number of open centres C.  Sorted by their
    largest count, a group's rows are cut into the fewest near-equal
    passes of at most ``block_rows(C)`` rows, so a batch's memory is that
    of one pass.  One rule then reads each pass: a pass of at least 10
    rows (``_MIN_GROUP_ROWS``) runs ``fit_mle``'s damped-Newton loop and
    outcome rule over its rows, along the ray where the exposures are
    equal and in the plane where not; the loop drops each row where it
    would stop the row alone, and each row keeps its own line search.  A
    shorter pass is fitted by ``fit_mle(data[row])`` row by row.  As
    ``block_rows(C)`` is 2^16 // C, below 10 past 6,553 centres, the one
    bound covers both a short group and trials too wide for a pass to
    repay.

    The bound was measured as the time of the single fits over that of
    one pass of ``block_rows(C)`` rows, on rows 0 and 6 of tables 2 (ray)
    and 3 (plane) at C centres, in 5 alternating pairs of best-of-3
    timings, in processes that ran the counts in rising order from 2,000
    centres.  Over three such runs it read 1.34-2.31 (ray) and 1.28-1.86
    (plane) at 2,000 centres (32 rows), 1.17-1.70 and 1.23-1.43 at
    3,000 (21), 1.23-1.45 and 1.19-1.32 at 4,500 (14), and 1.10-1.25 and
    0.83-1.12 at 6,553 (10), where the pass won every pair but in one
    plane run, which lost its first two pairs and won 3 of 5.  Past it
    the pass no longer wins every run: 0.72-1.16 and 0.80-1.05 at 8,000
    centres (8 rows), 0.83-0.93 and 0.82-1.07 at 13,107 (5) and
    0.63-0.81 at 32,768 (2).  Near the bound the winner depends on the
    heap: in a process whose first pass is of 4,500 or 6,553 ray rows,
    that pass faults in the pages of its temporaries again on every call
    (735 minor faults at 6,553 centres), and the ray pass read 0.78-1.05
    at 4,500 and 0.68-0.90 at 6,553 centres, while the plane pass still
    won.  Run as ``simulate`` runs it, 3,000 replications of a cell
    drawn, fitted and scored in one process, the passes took 3-6 % less
    time end to end than single fits at 4,500 and 6,553 centres, on both
    paths, in 5 alternating pairs each.  At 20 centres,
    before the scratch (see ``_Rows``), blocks of 10 rows read 1.20-1.29
    (ray) and 0.73-1.15 (plane) and blocks of 12 read 1.30-1.70 and
    0.95-1.35.

    A pass keeps at most 2^8 rise weights a row; counts past that
    exact-sum head go on by Stirling's series, as in ``fit_mle``.
    """
    if data.exposures.ndim != 2:
        raise ValueError("fit_rows takes a batch of trials; fit one trial with fit_mle")
    exposures, counts = data.exposures, data.counts
    count = len(exposures)
    opened = exposures > 0
    num_open = opened.sum(axis=1)
    fitted = num_open > 0
    equal = fitted & _one_exposure(
        exposures.max(axis=1), exposures.min(axis=1, initial=np.inf, where=opened))
    # ModelFit's fields in the order that _outcome gives them
    fields = dict(kind=np.full(count, "insufficient", dtype=_KIND),
                  alpha_hat=np.full(count, math.nan), beta_hat=np.full(count, math.nan),
                  log_lik=np.full(count, math.nan), iterations=np.zeros(count, dtype=int))
    fields_of = operator.attrgetter(*fields)
    # sorted by their largest count, the rows of a group run in order of
    # their number of rises
    largest = counts.max(axis=1)
    for ray, centres in sorted(set(zip(equal[fitted].tolist(), num_open[fitted].tolist()))):
        rows = np.flatnonzero(fitted & (equal == ray) & (num_open == centres))
        rows = rows[np.argsort(largest[rows], kind="stable")]
        for part in np.array_split(rows, math.ceil(rows.size / block_rows(centres))):
            fits = (zip(*(fields_of(fit_mle(data[row])) for row in part.tolist()))
                    if part.size < _MIN_GROUP_ROWS
                    else _outcome(_Rows, exposures, counts, part, ray)[1])
            for field, values in zip(fields.values(), fits):
                field[part] = values
    return ModelFit(**fields, equal_exposures=equal)


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
                                         data.counts, data.census_time)
    return float(mean), float(variance)


def summed_rate_moments(alpha, beta, exposures: np.ndarray, counts: np.ndarray,
                        census_time: float):
    """``posterior_rate_moments`` as arrays: the sums run over the last
    axis of ``exposures`` and ``counts``, and the estimates broadcast
    against them, so rows of trials with their estimates as a column
    give one mean and one variance per trial.

    Moments past the float range are refused with ValueError, naming the
    trials' ``census_time``, before any law is pooled from them, and
    without a floating-point warning: there b + t_c, or its square, reads
    0 or inf, and a mean is not finite or a variance not positive and
    finite.
    """
    with np.errstate(all="ignore"):
        shape = alpha + counts
        rate = beta + exposures
        mean, variance = (shape / rate).sum(axis=-1), (shape / rate**2).sum(axis=-1)
    if not (np.isfinite(mean) & (variance > 0) & (variance < math.inf)).all():
        raise ValueError(f"the posterior rate moments of an interior fit at census "
                         f"{census_time:g} left the float range")
    return mean, variance
