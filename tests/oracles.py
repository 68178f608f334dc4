"""Slow, independent reference implementations used to pin expected values.

Discrete CDFs are summed term by term, continuous CDFs are integrated by
adaptive quadrature, everything in extended precision via mpmath.  Nothing
here imports the package under test.
"""

import math

import mpmath as mp

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
