"""Slow, independent reference implementations used to pin expected values.

Discrete CDFs are summed term by term, continuous CDFs are integrated by
adaptive quadrature, everything in extended precision via mpmath.  The
trial draw is the one stream at a time loop the harness used before it
filled a block's arrays stream by stream.  The centre CSV readers at the
end are the csv.DictReader ones the CLI used before its single
csv.reader pass.  Nothing here imports the package under test.
"""

import collections
import csv
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def normal_cdf(x):
    return mp.ncdf(mp.mpf(x))


def normal_quantile(p):
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def nb_cdf(k, size, prob):
    """P(X <= k) summed directly from the pmf recurrence."""
    size = mp.mpf(size)
    prob = mp.mpf(prob)
    term = (1 - prob) ** size
    total = term
    for j in range(int(k)):
        term *= (size + j) / (j + 1) * prob
        total += term
    return total


def poisson_cdf(k, mean):
    mean = mp.mpf(mean)
    term = mp.e ** (-mean)
    total = term
    for j in range(int(k)):
        term *= mean / (j + 1)
        total += term
    return total


def gamma_cdf(x, shape, rate):
    return mp.gammainc(mp.mpf(shape), 0, mp.mpf(rate) * mp.mpf(x),
                       regularized=True)


def pearson6_cdf(x, shape_num, shape_den, scale):
    """Adaptive quadrature of the beta-prime density on [0, x]."""
    a = mp.mpf(shape_num)
    b = mp.mpf(shape_den)
    s = mp.mpf(scale)
    x = mp.mpf(x)
    if x <= 0:
        return mp.mpf(0)
    norm = s * mp.beta(a, b)

    def density(y):
        return (y / s) ** (a - 1) * (1 + y / s) ** (-a - b) / norm

    points = [mp.mpf(0)]
    mode = s * (a - 1) / (b + 1)
    if a > 1 and 0 < mode < x:
        points.append(mode)
    points.append(x)
    return mp.quad(density, points)


def beta_cdf(x, a, b):
    return mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True)


def pearson6_quantile(q, shape_num, shape_den, scale):
    """Root of the beta-prime cdf at q, for a root with z = x / (x + scale)
    of at least 1/2.

    1 - z is the level-(1 - q) quantile of beta(shape_den, shape_num), and
    the search runs in log(1 - z) on the log of the smaller of the two
    tails: a bracket stepped out from the small-(1 - z) limit
    I_w(b, a) ~ w^b / (b B(b, a)), then Illinois.  The steps stay near the
    root, since mpmath's series for I_w(b, a) stalls at large a w.
    """
    a = mp.mpf(shape_num)
    b = mp.mpf(shape_den)
    q = mp.mpf(q)

    def gap(u):
        # increasing in u, zero where I_w(b, a) = 1 - q
        w = mp.e ** u
        if q >= 0.5:
            return mp.log(beta_cdf(w, b, a)) - mp.log(1 - q)
        return mp.log(q) - mp.log(mp.betainc(b, a, w, 1, regularized=True))

    top = mp.log(mp.mpf(0.5))
    lo = hi = min((mp.log(1 - q) + mp.log(b * mp.beta(b, a))) / b, top)
    while gap(hi) < 0:
        if hi == top:
            raise ValueError("the quantile has z below 1/2")
        lo, hi = hi, min(hi + 0.5, top)
    while gap(lo) > 0:
        hi, lo = lo, lo - 0.5
    w = mp.e ** mp.findroot(gap, (lo, hi), solver="illinois")
    return mp.mpf(scale) * (1 - w) / w


def marginal_log_likelihood(alpha, beta, exposures, counts):
    """Gamma-Poisson marginal by quadrature, without the data constant.

    Each centre contributes log of int_0^inf Po(n; lam*t) Gam(lam; a, b) dlam;
    the t^n/n! factor is removed afterwards so the value is comparable with
    the likelihood the model module works with.
    """
    alpha = mp.mpf(alpha)
    beta = mp.mpf(beta)
    total = mp.mpf(0)
    for t, n in zip(exposures, counts):
        t = mp.mpf(t)
        n = int(n)
        if t == 0:
            if n != 0:
                raise ValueError("a closed centre cannot recruit")
            continue

        def integrand(lam):
            return (mp.e ** (-lam * t) * (lam * t) ** n / mp.factorial(n)
                    * beta ** alpha * lam ** (alpha - 1)
                    * mp.e ** (-beta * lam) / mp.gamma(alpha))

        mode = (n + alpha) / (beta + t)
        marginal = mp.quad(integrand, [0, mode, mp.inf])
        total += mp.log(marginal) - n * mp.log(t) + mp.log(mp.factorial(n))
    return total


def count_sums(alpha, count):
    """logGamma(a + n) - logGamma(a) and the same differences of digamma
    and trigamma, at 50 digits."""
    with mp.workdps(50):
        a, n = mp.mpf(alpha), int(count)
        return (mp.loggamma(a + n) - mp.loggamma(a), mp.digamma(a + n) - mp.digamma(a),
                mp.polygamma(1, a + n) - mp.polygamma(1, a))


def score_max_norm(alpha, beta, exposures, counts):
    """Largest score component in (log alpha, log beta) at 50 digits.

    alpha and beta times the derivatives of the marginal log-likelihood,
    summed centre by centre from digamma and log; a centre with zero
    exposure adds nothing.  The smaller it is at a fitted point, the
    nearer that point lies to the exact optimum.
    """
    with mp.workdps(50):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        d_alpha = d_beta = mp.mpf(0)
        for t, n in zip(exposures, counts):
            t = mp.mpf(t)
            if t == 0:
                continue
            d_alpha += mp.log(b / (b + t)) + mp.digamma(a + int(n)) - mp.digamma(a)
            d_beta += a / b - (a + int(n)) / (b + t)
        return max(abs(a * d_alpha), abs(b * d_beta))


def profile_slope_curvature(alpha, ratio, exposures, counts):
    """First and second derivatives in log alpha of the marginal
    log-likelihood along beta = alpha / ratio, at 50 digits.

    The per-centre score and Hessian, summed from digamma and trigamma,
    are projected onto the direction (1, 1) in (log alpha, log beta); a
    centre with zero exposure adds nothing, and centres alike in exposure
    and count are summed once, times their number.
    """
    with mp.workdps(50):
        a = mp.mpf(alpha)
        b = a / mp.mpf(ratio)
        d_a = d_b = h_aa = h_ab = h_bb = mp.mpf(0)
        for (t, n), alike in collections.Counter(zip(exposures, map(int, counts))).items():
            t = mp.mpf(t)
            if t == 0:
                continue
            d_a += alike * (mp.log(b / (b + t)) + mp.digamma(a + n) - mp.digamma(a))
            d_b += alike * (a / b - (a + n) / (b + t))
            h_aa += alike * (mp.polygamma(1, a + n) - mp.polygamma(1, a))
            h_ab += alike * (1 / b - 1 / (b + t))
            h_bb += alike * (-a / b**2 + (a + n) / (b + t) ** 2)
        slope = a * d_a + b * d_b
        return slope, a * a * h_aa + 2 * a * b * h_ab + b * b * h_bb + slope


def exponential_bracket_quantile(cdf, q, mean):
    """Smallest integer k with cdf(k) >= q: the search the package used
    before its normal-started bracket.  Doubles an upper end from the
    mean, then bisects; ``cdf`` is passed in by the caller."""
    if cdf(0) >= q:
        return 0
    lo = 0  # invariant: cdf(lo) < q
    hi = max(1, math.ceil(mean))
    while cdf(hi) < q:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cdf(mid) >= q:
            hi = mid
        else:
            lo = mid
    return hi


# --- the trial draw the harness used before its block fills ---
#
# A schedule and a prior are told apart by class name, and read by their
# fields, so that this loop needs nothing from the package.


def _openings(schedule, rng, count, census_time):
    kind = type(schedule).__name__
    if kind == "Simultaneous":
        return np.zeros(count)
    if kind == "UniformOnCensus":
        return rng.uniform(0.0, census_time, count)
    if kind == "SplitHalf":
        openings = np.full(count, census_time)
        openings[: (count + 1) // 2] = 0.0
        return openings
    if kind == "Explicit":
        return np.array(schedule.opening_times)
    raise TypeError(f"no opening schedule {kind}")


def _rates(prior, rng, count):
    kind = type(prior).__name__
    if kind == "SingleGamma":
        return rng.gamma(prior.alpha, 1.0 / prior.beta, count)
    if kind == "GammaMixture":
        second = rng.random(count) < 0.5
        standard = rng.gamma(prior.alpha, 1.0, count)
        return standard / np.where(second, prior.beta2, prior.beta1)
    raise TypeError(f"no rate prior {kind}")


def generate_trial_loop(config, rngs):
    """The rates, exposures and counts of one trial from each generator,
    a row each: every stream draws its openings, its rates and its
    counts, one stream at a time, through NumPy's own ``uniform`` and
    ``gamma``."""
    shape = (len(rngs), config.centres)
    exposures, rates = np.empty(shape), np.empty(shape)
    counts = np.empty(shape, dtype=np.int64)
    for row, rng in enumerate(rngs):
        openings = _openings(config.schedule, rng, config.centres, config.census_time)
        exposures[row] = config.census_time - openings
        rates[row] = _rates(config.prior, rng, config.centres)
        counts[row] = rng.poisson(rates[row] * exposures[row])
    return rates, exposures, counts


# --- the centre CSV reader the CLI used before its single csv.reader pass ---
#
# csv.DictReader, one row dict per record.  The exception classes mirror
# the CLI's by name and message; callers compare ``type(exc).__name__``
# and ``str(exc)``.  Two points differ from the code as it shipped: the
# file is opened as UTF-8 with a leading byte-order mark dropped (it used
# the locale's encoding), and line numbers come from the underlying
# csv.reader, because DictReader.line_num names the first of a run of
# blank lines, not the row that follows it.


class DataError(Exception):
    pass


class MalformedRow(DataError):
    def __init__(self, line, detail):
        super().__init__(f"line {line}: {detail}")


class EventBeforeOpening(DataError):
    def __init__(self, line, centre):
        super().__init__(f"line {line}: event precedes centre {centre!r} opening")


class EventAfterCensus(DataError):
    def __init__(self, line, centre):
        super().__init__(f"line {line}: event after census for centre {centre!r}")


class OpeningAfterCensus(DataError):
    def __init__(self, line, centre):
        super().__init__(f"line {line}: centre {centre!r} opens after census")


_MAX_COUNT = 2**63 - 1


def _parse_float(line, raw, column):
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(line, f"cannot parse {column} {raw!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line, f"{column} must be finite, got {raw!r}")
    return value


def _read_rows(path, columns):
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path} is empty")
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path} lacks columns: {', '.join(missing)}")
        for row in reader:
            yield reader.reader.line_num, row


def read_events_csv(path, census_time):
    """Events CSV -> {centre: (open_time, sorted event offsets from opening)}."""
    centres = {}
    for line, row in _read_rows(path, ("centre_id", "open_time", "event_time")):
        centre = (row["centre_id"] or "").strip()
        if not centre:
            raise MalformedRow(line, "blank centre_id")
        open_time = _parse_float(line, row["open_time"], "open_time")
        if open_time < 0:
            raise MalformedRow(line, f"negative open_time {open_time}")
        if open_time > census_time:
            raise OpeningAfterCensus(line, centre)
        if centre in centres:
            if centres[centre][0] != open_time:
                raise MalformedRow(
                    line, f"centre {centre!r} open_time changed from "
                    f"{centres[centre][0]} to {open_time}")
        else:
            centres[centre] = (open_time, [])
        raw_event = (row["event_time"] or "").strip()
        if raw_event == "":
            continue
        event_time = _parse_float(line, raw_event, "event_time")
        if event_time < open_time:
            raise EventBeforeOpening(line, centre)
        if event_time > census_time:
            raise EventAfterCensus(line, centre)
        if open_time == census_time:
            raise MalformedRow(
                line, f"centre {centre!r} recruited at the census with zero exposure")
        centres[centre][1].append(event_time - open_time)
    if not centres:
        raise DataError(f"{path} holds no centres")
    for open_time, offsets in centres.values():
        offsets.sort()
    return centres


def read_summary_csv(path, census_time):
    """Summary CSV -> (ids, exposures, counts), one entry per centre."""
    ids, exposures, counts = [], [], []
    seen = set()
    total = 0
    for line, row in _read_rows(path, ("centre_id", "open_time", "count")):
        centre = (row["centre_id"] or "").strip()
        if not centre:
            raise MalformedRow(line, "blank centre_id")
        if centre in seen:
            raise MalformedRow(line, f"duplicate centre {centre!r}")
        seen.add(centre)
        open_time = _parse_float(line, row["open_time"], "open_time")
        if open_time < 0:
            raise MalformedRow(line, f"negative open_time {open_time}")
        if open_time > census_time:
            raise OpeningAfterCensus(line, centre)
        raw_count = (row["count"] or "").strip()
        try:
            count = int(raw_count)
        except ValueError:
            raise MalformedRow(line, f"cannot parse count {raw_count!r}") from None
        if count < 0:
            raise MalformedRow(line, f"negative count {count}")
        total += count
        if total > _MAX_COUNT:
            raise MalformedRow(line, f"count {count} takes the total past the "
                               f"int64 maximum {_MAX_COUNT}")
        exposure = census_time - open_time
        if exposure == 0 and count > 0:
            raise MalformedRow(
                line, f"centre {centre!r} recruited {count} with zero exposure")
        ids.append(centre)
        exposures.append(exposure)
        counts.append(count)
    if not ids:
        raise DataError(f"{path} holds no centres")
    return ids, exposures, counts
