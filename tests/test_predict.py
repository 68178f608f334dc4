"""Pooling, predictive laws, and the tail-probability adjustment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from recruitcast import (
    COUNT,
    TIME,
    ModelFit,
    PooledPosterior,
    PredictionRequest,
    TrialData,
    adjust_probability_count,
    adjust_probability_time,
    fit_mle,
    pool_centres,
    prediction_interval,
    predictive_count_law,
    predictive_time_law,
)
from recruitcast.distributions import nb_cdf


def _fit(alpha, beta):
    return ModelFit(alpha_hat=alpha, beta_hat=beta, log_lik=0.0,
                    kind="ok", iterations=1)


def test_pool_centres_hand_example():
    data = TrialData.from_arrays(3.0, [1.0, 3.0], [2, 0])
    pool = pool_centres(data, _fit(1.0, 1.0))
    assert abs(pool.t_star - (1.75 / 0.8125 - 1.0)) < 1e-12
    assert abs(pool.n_star - (1.75 ** 2 / 0.8125 - 2.0)) < 1e-12
    assert abs(pool.shape - 1.75 ** 2 / 0.8125) < 1e-12
    assert abs(pool.rate - 1.75 / 0.8125) < 1e-12
    # matched gamma reproduces both posterior moments
    assert abs(pool.shape / pool.rate - 1.75) < 1e-12
    assert abs(pool.shape / pool.rate ** 2 - 0.8125) < 1e-12


def test_pool_centres_equal_exposures_exact():
    rng = np.random.default_rng(41)
    counts = rng.poisson(rng.gamma(2.0, 1.0, size=50) * 3.0)
    data = TrialData.from_arrays(3.0, np.full(50, 3.0), counts)
    fit = fit_mle(data)
    pool = pool_centres(data, fit)
    assert abs(pool.n_star - counts.sum()) < 1e-12 * counts.sum()
    assert abs(pool.t_star - 3.0) < 1e-12 * 3.0


def test_pool_centres_bounds():
    rng = np.random.default_rng(42)
    for _ in range(25):
        c = int(rng.integers(3, 60))
        exposures = rng.uniform(0.5, 6.0, size=c)
        counts = rng.poisson(rng.gamma(2.0, 1.0, size=c) * exposures)
        data = TrialData.from_arrays(6.0, exposures, counts)
        pool = pool_centres(data, _fit(float(rng.uniform(0.5, 4.0)),
                                       float(rng.uniform(0.5, 4.0))))
        assert pool.n_star <= counts.sum() + 1e-9
        assert exposures.min() - 1e-9 <= pool.t_star <= exposures.max() + 1e-9
        assert pool.shape > 0 and pool.rate > 0


def test_count_law_parameters_and_moments():
    data = TrialData.from_arrays(3.0, [1.0, 3.0], [2, 0])
    pool = pool_centres(data, _fit(1.0, 1.0))
    for horizon in (0.5, 2.0, 40.0):
        law = predictive_count_law(pool, horizon)
        assert abs(law.size - pool.shape) < 1e-12
        assert abs(law.prob - horizon / (pool.rate + horizon)) < 1e-12
        mean = pool.shape * horizon / pool.rate
        spread = mean * (pool.rate + horizon) / pool.rate
        assert abs(law.mean - mean) < 1e-10 * mean
        assert abs(law.variance - spread) < 1e-10 * spread
    assert predictive_count_law(pool, 1e-12).prob < 1e-11


def test_horizons_are_positive_finite_and_representable():
    data = TrialData.from_arrays(3.0, [1.0, 3.0], [2, 0])
    pool = pool_centres(data, _fit(1.0, 1.0))
    for horizon in (math.inf, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            predictive_count_law(pool, horizon)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            PredictionRequest(objective="count", horizon=horizon, level=0.9)
    # horizon / (rate + horizon) rounds to 1 once the horizon passes about
    # 2^53 times the pooled rate
    assert predictive_count_law(pool, pool.rate * 2.0**51).prob < 1.0
    with pytest.raises(ValueError, match=r"horizon .* rounds to 1"):
        predictive_count_law(pool, pool.rate * 2.0**55)


def test_time_law_parameters_and_moments():
    data = TrialData.from_arrays(3.0, [1.0, 3.0], [2, 0])
    pool = pool_centres(data, _fit(1.0, 1.0))
    law = predictive_time_law(pool, 5)
    assert law.shape_num == 5.0
    assert abs(law.shape_den - pool.shape) < 1e-12
    assert abs(law.scale - pool.rate) < 1e-12
    mean = pool.rate * 5.0 / (pool.shape - 1.0)
    assert abs(law.mean - mean) < 1e-10 * mean
    spread = law.scale ** 2 * 5.0 * (5.0 + pool.shape - 1.0) / (
        (pool.shape - 1.0) ** 2 * (pool.shape - 2.0))
    assert abs(law.variance - spread) < 1e-10 * spread


def test_time_law_exponential_limit():
    from recruitcast import pearson6_cdf
    from recruitcast.distributions import Pearson6Params

    rate = 2.0
    den = 1e6
    law = Pearson6Params(shape_num=1.0, shape_den=den, scale=den / rate)
    for x in (0.1, 0.5, 1.5, 3.0):
        assert abs(pearson6_cdf(x, law) - (1.0 - math.exp(-rate * x))) < 1e-4


def test_adjust_count_identity_cases():
    for p in (0.05, 0.3, 0.5, 0.9, 0.95):
        assert adjust_probability_count(p, 0.0, 200.0, 200.0) == p
    for p in (0.05, 0.5, 0.95):
        drift = adjust_probability_count(p, 150.0, 200.0, 1e-9)
        assert abs(drift - p) < 1e-6


def test_adjust_count_worked_value():
    got = adjust_probability_count(0.95, 150.0, 200.0, 200.0)
    assert abs(got - 0.9682479235216537) < 1e-9


def test_adjust_count_reflection_and_monotonicity():
    rng = np.random.default_rng(43)
    for _ in range(50):
        beta = float(np.exp(rng.uniform(-1, 6)))
        t = float(np.exp(rng.uniform(0, 6)))
        t_plus = float(np.exp(rng.uniform(0, 6)))
        p = float(rng.uniform(0.01, 0.99))
        lo = adjust_probability_count(p, beta, t, t_plus)
        hi = adjust_probability_count(1.0 - p, beta, t, t_plus)
        assert abs(lo + hi - 1.0) < 1e-12
    grid = np.linspace(0.01, 0.99, 41)
    mapped = [adjust_probability_count(float(p), 150.0, 200.0, 200.0)
              for p in grid]
    assert all(a < b for a, b in zip(mapped, mapped[1:]))
    assert adjust_probability_count(0.5, 150.0, 200.0, 200.0) == 0.5
    assert mapped[-1] > grid[-1] and mapped[0] < grid[0]


def test_adjust_time_identity_cases():
    for p in (0.1, 0.5, 0.9):
        assert abs(adjust_probability_time(p, 2.0, 150.0, 200.0, 1e-12) - p) < 1e-6
    assert adjust_probability_time(0.5, 2.0, 150.0, 200.0, 4.0) == 0.5


def test_adjust_time_against_simulated_limit():
    # the adjusted tail probability should restore the nominal content
    # under the limiting law Phi(c Z + s Phi^-1(p*))
    alpha, beta, t, a, p = 2.0, 150.0, 200.0, 200.0 / 150.0, 0.95
    p_star = adjust_probability_time(p, alpha, beta, t, a)
    assert abs(p_star - 0.9621866644542479) < 1e-9
    c = math.sqrt(a * beta / (alpha * t))
    s = math.sqrt(1.0 + (a / alpha) * beta / (beta + t))
    z = np.random.default_rng(44).standard_normal(1_000_000)
    from scipy.special import ndtr, ndtri
    w = ndtr(c * z + s * ndtri(p_star))
    err = 3.0 * w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - p) < err


def test_prediction_interval_count():
    rng = np.random.default_rng(45)
    counts = rng.poisson(rng.gamma(2.0, 1.0 / 150.0, size=150) * 200.0)
    data = TrialData.from_arrays(200.0, np.full(150, 200.0), counts)
    fit = fit_mle(data)
    pool = pool_centres(data, fit)

    plain = prediction_interval(pool, PredictionRequest(
        objective=COUNT, horizon=200.0, level=0.9))
    assert abs(plain.probs_used[0] - 0.05) < 1e-12
    assert abs(plain.probs_used[1] - 0.95) < 1e-12
    assert plain.probs_used[0] + plain.probs_used[1] == 1.0
    assert plain.lower <= plain.upper
    assert plain.nominal_level == 0.9

    wide = prediction_interval(pool, PredictionRequest(
        objective=COUNT, horizon=200.0, level=0.9, adjusted=True))
    assert wide.probs_used[0] < 0.05 and wide.probs_used[1] > 0.95
    assert wide.upper - wide.lower >= plain.upper - plain.lower
    assert wide.lower <= plain.lower and wide.upper >= plain.upper

    nested = prediction_interval(pool, PredictionRequest(
        objective=COUNT, horizon=200.0, level=0.95))
    assert nested.lower <= plain.lower and nested.upper >= plain.upper


def test_prediction_interval_time():
    rng = np.random.default_rng(46)
    counts = rng.poisson(rng.gamma(2.0, 1.0 / 150.0, size=150) * 200.0)
    data = TrialData.from_arrays(200.0, np.full(150, 200.0), counts)
    fit = fit_mle(data)
    pool = pool_centres(data, fit)

    plain = prediction_interval(pool, PredictionRequest(
        objective=TIME, horizon=200, level=0.9))
    wide = prediction_interval(pool, PredictionRequest(
        objective=TIME, horizon=200, level=0.9, adjusted=True))
    assert 0.0 < plain.lower < plain.upper
    assert wide.upper - wide.lower >= plain.upper - plain.lower


def test_request_validation():
    with pytest.raises(ValueError):
        PredictionRequest(objective="volume", horizon=1.0, level=0.9)
    with pytest.raises(ValueError):
        PredictionRequest(objective=COUNT, horizon=0.0, level=0.9)
    with pytest.raises(ValueError):
        PredictionRequest(objective=COUNT, horizon=1.0, level=1.0)
    with pytest.raises(ValueError):
        PredictionRequest(objective=TIME, horizon=2.5, level=0.9)
    PredictionRequest(objective=TIME, horizon=2.0, level=0.9)


def test_adjust_domain_errors():
    with pytest.raises(ValueError):
        adjust_probability_count(0.0, 150.0, 200.0, 200.0)
    with pytest.raises(ValueError):
        adjust_probability_count(0.5, -1.0, 200.0, 200.0)
    with pytest.raises(ValueError):
        adjust_probability_count(0.5, 150.0, 0.0, 200.0)
    with pytest.raises(ValueError):
        adjust_probability_time(1.0, 2.0, 150.0, 200.0, 1.0)
    with pytest.raises(ValueError):
        adjust_probability_time(0.5, 0.0, 150.0, 200.0, 1.0)


@pytest.mark.parametrize("objective, horizon", [(COUNT, 150.0), (TIME, 40.0)])
def test_a_batch_of_intervals_is_bitwise_the_single_trial_calls(objective, horizon):
    # one call over 30 trials and both kinds gives, entry by entry,
    # exactly the floats of the 60 one-trial calls
    rng = np.random.default_rng(47)
    pools = []
    for _ in range(30):
        exposures = rng.uniform(20.0, 200.0, 40)
        counts = rng.poisson(rng.gamma(0.8, 1.0 / 60.0, 40) * exposures)
        data = TrialData.from_arrays(200.0, exposures, counts)
        pools.append(pool_centres(data, fit_mle(data)))

    def stacked(records, names):
        return {name: np.array([getattr(r, name) for r in records]) for name in names}

    batch_pool = PooledPosterior(
        **stacked(pools, ("shape", "rate", "alpha_hat", "beta_hat")), centres=40)
    both = prediction_interval(batch_pool, PredictionRequest(
        objective, horizon, 0.9, adjusted=np.array([[False], [True]])))
    assert both.lower.shape == both.upper.shape == (2, 30)
    assert both.lower.dtype == both.upper.dtype == np.float64
    for kind, adjusted in enumerate((False, True)):
        for i, pool in enumerate(pools):
            one = prediction_interval(pool, PredictionRequest(objective, horizon, 0.9,
                                                              adjusted=adjusted))
            assert (one.lower, one.upper) == (both.lower[kind, i], both.upper[kind, i])
            assert one.probs_used == tuple(p[kind, i] for p in both.probs_used)


@pytest.mark.parametrize("objective, horizon, span", [
    (TIME, 30, "to target count 30"),
    (COUNT, 1000.0, "over a horizon 2266 times the effective exposure"),
], ids=[TIME, COUNT])
def test_an_adjusted_level_that_rounds_to_one_is_refused_by_name(objective, horizon, span):
    # beta 8 against an effective exposure under 1 widens the upper tail
    # level to ndtr(8.6) = 1.0, which the kernels once refused as a bare
    # "quantile level must lie in (0, 1), got 1.0"
    pool = pool_centres(TrialData.from_arrays(1.0, [1.0, 0.0], [0, 0]), _fit(1.0, 8.0))
    plain = prediction_interval(pool, PredictionRequest(objective, horizon, 0.95))
    assert 0.0 < plain.lower < plain.upper < math.inf
    with pytest.raises(ValueError) as refusal:
        prediction_interval(pool, PredictionRequest(objective, horizon, 0.95, adjusted=True))
    assert str(refusal.value) == (
        f"adjusted {objective} interval at level 0.95 {span}: the adjusted tail is past "
        "float resolution (its quantile level rounds to 0 or 1)")


# Interval invariances at fixed estimates: each pool is built from a
# given ModelFit, so the fitter's own tolerance does not enter.
_INVARIANCE = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _trials(draw):
    """Exposures (some closed), counts, fixed estimates, a level, a count
    horizon and a target count."""
    centres = draw(st.integers(2, 40))
    exposures = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.5, 200.0)),
                              min_size=centres, max_size=centres))
    counts = [count if exposure > 0 else 0 for exposure, count in zip(
        exposures, draw(st.lists(st.integers(0, 60), min_size=centres, max_size=centres)))]
    if max(exposures) == 0.0:
        exposures[0] = 1.0
    return dict(exposures=exposures, counts=counts,
                alpha=draw(st.floats(0.2, 20.0)), beta=draw(st.floats(0.5, 500.0)),
                level=draw(st.sampled_from([0.5, 0.8, 0.9, 0.95])),
                horizon=draw(st.floats(1.0, 400.0)), target=draw(st.integers(1, 400)))


def _intervals(exposures, counts, alpha, beta, level, horizon, target):
    """The pool, and its plug-in and adjusted count and time intervals.

    An interval whose adjusted level rounds to 0 or 1 is refused; it
    stands here as the refusal's message, which must be invariant too.
    """
    data = TrialData.from_arrays(max(exposures), exposures, counts)
    pool = pool_centres(data, _fit(alpha, beta))
    intervals = {}
    for objective, goal in ((COUNT, horizon), (TIME, target)):
        for adjusted in (False, True):
            try:
                intervals[objective, adjusted] = prediction_interval(
                    pool, PredictionRequest(objective, goal, level, adjusted=adjusted))
            except ValueError as exc:
                intervals[objective, adjusted] = str(exc)
    return pool, intervals


def _rescaled(trial, k):
    """The trial in a time unit 1/k as long: exposures, census, the count
    horizon and beta all times k."""
    return {**trial, "exposures": [k * e for e in trial["exposures"]],
            "beta": k * trial["beta"], "horizon": k * trial["horizon"]}


@_INVARIANCE
@given(trial=_trials(), data=st.data())
def test_permuting_the_centres_leaves_both_intervals_equal(trial, data):
    order = data.draw(st.permutations(range(len(trial["exposures"]))))
    pool, before = _intervals(**trial)
    _, after = _intervals(**{**trial, "exposures": [trial["exposures"][i] for i in order],
                             "counts": [trial["counts"][i] for i in order]})
    law = predictive_count_law(pool, trial["horizon"])
    for key, one in before.items():
        two = after[key]
        if isinstance(one, str):
            assert two == one
            continue
        assert two.probs_used == pytest.approx(one.probs_used, rel=1e-12, abs=0)
        if key[0] == TIME:
            assert (two.lower, two.upper) == pytest.approx((one.lower, one.upper),
                                                           rel=1e-12, abs=0)
            continue
        # a summation order moves the pool in its last bits, which can
        # move an integer bound only where the cdf meets the level
        for a, b, level in zip((one.lower, one.upper), (two.lower, two.upper),
                               one.probs_used):
            assert a == b or abs(nb_cdf(min(a, b), law) - level) < 1e-12


@_INVARIANCE
@given(trial=_trials(), j=st.integers(-8, 8))
def test_a_power_of_two_time_unit_scales_time_intervals_exactly(trial, j):
    # every product by 2^j is exact, so the count laws and the adjusted
    # levels are the same floats and the time laws' scales exactly k times theirs
    k = 2.0 ** j
    _, before = _intervals(**trial)
    _, after = _intervals(**_rescaled(trial, k))
    for key, one in before.items():
        two = after[key]
        if isinstance(one, str):
            assert two == one
            continue
        scale = k if key[0] == TIME else 1.0
        assert two.probs_used == one.probs_used
        assert (two.lower, two.upper) == (scale * one.lower, scale * one.upper)


@_INVARIANCE
@given(trial=_trials(), k=st.sampled_from([3.0, 10.0]))
def test_rescaling_the_time_unit_keeps_count_intervals_and_scales_time_intervals(trial, k):
    _, before = _intervals(**trial)
    _, after = _intervals(**_rescaled(trial, k))
    for key, one in before.items():
        two = after[key]
        if isinstance(one, str):
            assert two == one
        elif key[0] == COUNT:
            assert (two.lower, two.upper) == (one.lower, one.upper)
        else:
            assert (two.lower, two.upper) == pytest.approx((k * one.lower, k * one.upper),
                                                           rel=1e-12, abs=0)
