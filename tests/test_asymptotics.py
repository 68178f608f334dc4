"""Limit laws of the interval content and the gamma-sum cumulant bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

import oracles
from recruitcast import (
    COUNT,
    TIME,
    GammaCollection,
    LimitLaw,
    adjust_probability_count,
    adjust_probability_time,
    content_limit,
    count_limit_law,
    limit_prob_cdf,
    limit_prob_density,
    moment_matched_gamma,
    sum_gamma_cumulant,
    time_limit_law,
    verify_cumulant_ordering,
)


def test_count_limit_law_coefficients():
    law = count_limit_law(0.5, 150.0, 50.0, 350.0)
    assert abs(law.c - math.sqrt(350.0 / 50.0)) < 1e-12
    assert law.d == 0.0
    law = count_limit_law(0.95, 150.0, 200.0, 200.0)
    expected = ndtri(0.95) * math.sqrt(1.0 + 200.0 / 350.0)
    assert abs(law.d - expected) < 1e-12
    zero_beta = count_limit_law(0.9, 0.0, 200.0, 200.0)
    assert abs(zero_beta.d - ndtri(0.9) * math.sqrt(2.0)) < 1e-12


def test_time_limit_law_coefficients():
    a = 200.0 / 150.0
    law = time_limit_law(0.5, 2.0, 150.0, 200.0, a)
    assert abs(law.c - math.sqrt(a * 150.0 / (2.0 * 200.0))) < 1e-12
    assert law.d == 0.0
    law = time_limit_law(0.95, 2.0, 150.0, 200.0, a)
    expected = ndtri(0.95) * math.sqrt(1.0 + (a / 2.0) * 150.0 / 350.0)
    assert abs(law.d - expected) < 1e-12


def test_limit_law_validation():
    with pytest.raises(ValueError):
        LimitLaw(c=0.0, d=0.0, objective=COUNT)
    with pytest.raises(ValueError):
        LimitLaw(c=math.inf, d=0.0, objective=COUNT)
    with pytest.raises(ValueError):
        count_limit_law(0.0, 150.0, 200.0, 200.0)
    with pytest.raises(ValueError):
        count_limit_law(0.5, -1.0, 200.0, 200.0)
    with pytest.raises(ValueError):
        time_limit_law(0.5, 2.0, 0.0, 200.0, 1.0)


_IDENTITY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# Levels in [0.01, 0.99] and x / t <= 3 keep p* more than 1e-6 from 0 and
# 1; nearer, the float round trip through invPhi(p*) alone costs 1e-12.
_LEVEL = st.floats(0.01, 0.99)
_RATIO = _log_uniform(1e-3, 3.0)
_EXPOSURE = _log_uniform(0.1, 100.0)
_BETA = _log_uniform(1e-3, 1e6)


def _mean_content(c, d):
    """E[Phi(c Z + d)] for a standard normal Z."""
    return float(ndtr(d / math.sqrt(1.0 + c * c)))


@_IDENTITY
@given(p=_LEVEL, beta=st.one_of(st.just(0.0), _BETA), t=_EXPOSURE, ratio=_RATIO)
def test_adjusted_count_level_restores_the_limiting_mean_content(p, beta, t, ratio):
    s = ratio * t
    law = count_limit_law(adjust_probability_count(p, beta, t, s), beta, t, s)
    assert abs(_mean_content(law.c, law.d) - p) < 1e-12


@_IDENTITY
@given(p=_LEVEL, alpha=_log_uniform(0.1, 100.0), beta=_BETA, t=_EXPOSURE, ratio=_RATIO)
def test_adjusted_time_level_restores_the_limiting_mean_content(p, alpha, beta, t, ratio):
    m = ratio * t * alpha / beta  # so that x = m beta / alpha is ratio * t
    law = time_limit_law(adjust_probability_time(p, alpha, beta, t, m), alpha, beta, t, m)
    assert abs(_mean_content(law.c, law.d) - p) < 1e-12


@_IDENTITY
@given(objective=st.sampled_from([COUNT, TIME]), p=_LEVEL, t=_EXPOSURE, ratio=_RATIO,
       rate=_log_uniform(1e-3, 10.0))
def test_boundary_level_restores_the_limiting_mean_content(objective, p, t, ratio, rate):
    # at the boundary alpha and beta grow at the fixed ratio alpha / beta = rate
    if objective == COUNT:
        s = ratio * t
        x, interior = s, adjust_probability_count(p, 1e12, t, s)
    else:
        m = ratio * t * rate
        x, interior = m / rate, adjust_probability_time(p, rate * 1e12, 1e12, t, m)
    _, _, p_star = content_limit(p, x, math.inf, t)
    c, d, _ = content_limit(p_star, x, math.inf, t)
    assert abs(_mean_content(c, d) - p) < 1e-12
    assert abs(interior - p_star) < 1e-9


def test_limit_cdf_uniform_case():
    law = LimitLaw(c=1.0, d=0.0, objective=COUNT)
    for w in np.linspace(0.01, 0.99, 21):
        assert abs(limit_prob_cdf(float(w), law) - w) < 1e-9
    values = limit_prob_cdf(np.array([0.0, 0.25, 1.0]), law)
    assert values[0] == 0.0 and values[2] == 1.0


def test_limit_cdf_degenerate_case():
    law = LimitLaw(c=1e-9, d=ndtri(0.7), objective=COUNT)
    assert limit_prob_cdf(0.69, law) < 1e-12
    assert limit_prob_cdf(0.71, law) > 1.0 - 1e-12


def test_limit_cdf_step_at_large_census():
    # count law with fixed horizon degenerates as the census grows
    for p in (0.25, 0.5, 0.9):
        law = count_limit_law(p, 150.0, 1e6, 50.0)
        assert limit_prob_cdf(p - 0.01, law) < 0.01
        assert limit_prob_cdf(p + 0.01, law) > 0.99


def test_limit_density_uniform_and_normalised():
    flat = LimitLaw(c=1.0, d=0.0, objective=COUNT)
    for w in np.linspace(0.05, 0.95, 10):
        assert abs(limit_prob_density(float(w), flat) - 1.0) < 1e-12
    rng = np.random.default_rng(51)
    for _ in range(10):
        law = LimitLaw(c=float(np.exp(rng.uniform(-1.0, 1.1))),
                       d=float(rng.uniform(-2.0, 2.0)), objective=COUNT)

        def through_normal(u, law=law):
            # w = Phi(u) leaves the integral unchanged for any integrand
            # while removing the endpoint spikes that stall the quadrature
            return limit_prob_density(float(ndtr(u)), law) * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

        total, err = quad(through_normal, -6.0, 6.0, limit=200)
        expected = limit_prob_cdf(float(ndtr(6.0)), law) - limit_prob_cdf(float(ndtr(-6.0)), law)
        assert abs(total - expected) < 1e-8


def test_limit_density_matches_cdf_slope():
    law = count_limit_law(0.5, 150.0, 50.0, 350.0)
    step = 1e-5
    for w in np.linspace(0.05, 0.95, 19):
        w = float(w)
        slope = (limit_prob_cdf(w + step, law)
                 - limit_prob_cdf(w - step, law)) / (2.0 * step)
        assert abs(slope - limit_prob_density(w, law)) < 1e-6


def test_limit_density_early_census_is_bimodal():
    law = count_limit_law(0.5, 150.0, 50.0, 350.0)
    centre = limit_prob_density(0.5, law)
    assert limit_prob_density(0.03, law) > centre
    assert limit_prob_density(0.97, law) > centre


def test_sum_cumulant_values():
    single = GammaCollection(shapes=(2.0,), rates=(0.5,))
    for j in range(1, 7):
        exact = math.factorial(j - 1) * 2.0 / 0.5 ** j
        assert abs(sum_gamma_cumulant(j, single) - exact) < 1e-12 * exact
    pair = GammaCollection(shapes=(1.0, 2.0), rates=(1.0, 2.0))
    assert abs(sum_gamma_cumulant(1, pair) - 2.0) < 1e-12
    assert abs(sum_gamma_cumulant(3, pair) - 2.5) < 1e-12


def test_sum_cumulant_log_space_branch():
    coll = GammaCollection(shapes=(2.0, 3.0), rates=(150.0, 0.5))
    got = sum_gamma_cumulant(25, coll)
    assert abs(got - 6.2456381116399995e31) < 1e-11 * got
    # either side of the branch switch agrees with the direct formula
    for j in (20, 21):
        direct = math.factorial(j - 1) * (2.0 / 150.0 ** j + 3.0 / 0.5 ** j)
        assert abs(sum_gamma_cumulant(j, coll) - direct) < 1e-11 * direct


def test_moment_matched_gamma():
    rng = np.random.default_rng(52)
    shapes = tuple(float(x) for x in rng.uniform(0.5, 5.0, size=6))
    common = GammaCollection(shapes=shapes, rates=(2.0,) * 6)
    matched = moment_matched_gamma(sum_gamma_cumulant(1, common),
                                   sum_gamma_cumulant(2, common))
    assert abs(matched.shape - sum(shapes)) < 1e-12 * sum(shapes)
    assert abs(matched.rate - 2.0) < 1e-12

    mixture = GammaCollection(shapes=(1.0, 1.0), rates=(1.0, 3.0))
    matched = moment_matched_gamma(sum_gamma_cumulant(1, mixture),
                                   sum_gamma_cumulant(2, mixture))
    assert abs(matched.shape - 1.6) < 1e-12
    assert abs(matched.rate - 1.2) < 1e-12
    assert abs(matched.shape / matched.rate
               - sum_gamma_cumulant(1, mixture)) < 1e-12
    assert abs(matched.shape / matched.rate ** 2
               - sum_gamma_cumulant(2, mixture)) < 1e-12


def test_cumulant_ordering_mixture():
    mixture = GammaCollection(shapes=(1.0, 1.0), rates=(1.0, 3.0))
    report = verify_cumulant_ordering(mixture, 4)
    third = report[0]
    assert third.order == 3
    assert abs(third.sum_cumulant - 2.0 * (1.0 + 1.0 / 27.0)) < 1e-12
    assert abs(third.matched_cumulant - 2.0 * 1.6 / 1.2 ** 3) < 1e-12
    assert third.sum_cumulant > third.matched_cumulant
    assert all(check.ok for check in report)


def test_cumulant_ordering_common_rate_equality():
    common = GammaCollection(shapes=(1.0, 2.5, 0.7), rates=(2.0, 2.0, 2.0))
    for check in verify_cumulant_ordering(common, 8):
        assert check.ok
        assert abs(check.gap) < 1e-9 * check.sum_cumulant


def test_cumulant_ordering_randomized():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        coll = GammaCollection(
            shapes=tuple(float(x) for x in np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))),
            rates=tuple(float(x) for x in np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))))
        assert all(check.ok for check in verify_cumulant_ordering(coll, 8))


def test_collection_validation():
    with pytest.raises(ValueError):
        GammaCollection(shapes=(), rates=())
    with pytest.raises(ValueError):
        GammaCollection(shapes=(1.0,), rates=(0.0,))
    with pytest.raises(ValueError):
        GammaCollection(shapes=(1.0, 2.0), rates=(1.0,))
    with pytest.raises(ValueError):
        verify_cumulant_ordering(GammaCollection(shapes=(1.0,), rates=(1.0,)), 2)
    coll = GammaCollection.from_pairs([(1.0, 2.0), (3.0, 4.0)])
    assert coll.shapes == (1.0, 3.0) and coll.rates == (2.0, 4.0)
