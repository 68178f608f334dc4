"""Trial generation, exact coverage, and the repeated-sampling studies."""

import math
import os

import numpy as np
import pytest
from scipy.integrate import trapezoid

import oracles
from recruitcast import (
    COUNT,
    TIME,
    CoverageReport,
    DegenerateLikelihood,
    Explicit,
    GammaMixture,
    GammaParams,
    ModelFit,
    PredictionInterval,
    PredictionRequest,
    SimConfig,
    SingleGamma,
    SplitHalf,
    Simultaneous,
    UniformOnCensus,
    coverage_study,
    exact_coverage,
    fit_mle,
    generate_trial,
    kernel_density,
    poisson_cdf,
    pool_centres,
    prediction_interval,
    quantile_probability_study,
    replication_rng,
)
from recruitcast.simulate import _worker_plan


def _config(**overrides):
    base = dict(
        prior=SingleGamma(alpha=2.0, beta=150.0),
        centres=150,
        census_time=200.0,
        schedule=Simultaneous(),
        objective=COUNT,
        horizon=200.0,
        level=0.9,
        replications=10,
        seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_generate_trial_simultaneous_full_exposure():
    config = _config(centres=25)
    rates, data = generate_trial(config, replication_rng(config.seed, 0))
    assert rates.shape == (25,)
    assert np.all(rates > 0)
    assert np.all(data.exposures == 200.0)
    assert np.all(data.counts >= 0)
    assert data.census_time == 200.0


def test_generate_trial_split_half_pattern():
    config = _config(centres=10, schedule=SplitHalf())
    _, data = generate_trial(config, replication_rng(config.seed, 0))
    assert np.all(data.exposures[:5] == 200.0)
    assert np.all(data.exposures[5:] == 0.0)
    assert np.all(data.counts[5:] == 0)
    # odd centre count rounds the open half up
    config = _config(centres=5, schedule=SplitHalf())
    _, data = generate_trial(config, replication_rng(config.seed, 0))
    assert np.sum(data.exposures == 200.0) == 3


def test_generate_trial_uniform_schedule_spread():
    config = _config(centres=200, schedule=UniformOnCensus())
    _, data = generate_trial(config, replication_rng(config.seed, 3))
    assert np.all(data.exposures >= 0.0)
    assert np.all(data.exposures <= 200.0)
    assert np.unique(data.exposures).size == 200


def test_generate_trial_deterministic_streams():
    config = _config(centres=40, schedule=UniformOnCensus())
    rates_a, data_a = generate_trial(config, replication_rng(11, 4))
    rates_b, data_b = generate_trial(config, replication_rng(11, 4))
    assert np.array_equal(rates_a, rates_b)
    assert np.array_equal(data_a.exposures, data_b.exposures)
    assert np.array_equal(data_a.counts, data_b.counts)
    rates_c, _ = generate_trial(config, replication_rng(11, 5))
    assert not np.array_equal(rates_a, rates_c)


def test_generate_trial_mean_total_count():
    # E n• = C (alpha/beta) t = 400; per-centre variance
    # (alpha/beta) t + (alpha/beta^2) t^2 gives sd(n•) = 30.55
    config = _config(replications=10_000)
    total = 0.0
    for rep in range(config.replications):
        _, data = generate_trial(config, replication_rng(config.seed, rep))
        total += data.total_count
    mean = total / config.replications
    assert abs(mean - 400.0) < 3.0 * 30.551 / 100.0


def test_mixture_prior_moments():
    prior = GammaMixture(alpha=2.0, beta1=1.0, beta2=4.0)
    rng = np.random.default_rng(61)
    draws = prior.sample_rates(rng, 100_000)
    assert np.all(draws > 0)
    # mean 1.25, variance 1.625
    assert abs(draws.mean() - 1.25) < 3.0 * math.sqrt(1.625 / 100_000)


def test_exact_coverage_full_support_and_zero_lower():
    rates = np.array([0.5, 1.0, 0.5])
    everything = PredictionInterval(lower=0, upper=1e9, nominal_level=0.9,
                                    probs_used=(0.05, 0.95))
    assert exact_coverage(rates, everything, COUNT, 10.0) == 1.0
    capped = PredictionInterval(lower=0, upper=25, nominal_level=0.9,
                                probs_used=(0.05, 0.95))
    # half-open scoring: P(0 <= N < 25)
    got = exact_coverage(rates, capped, COUNT, 10.0)
    assert abs(got - poisson_cdf(24, 20.0)) < 1e-15


def test_exact_coverage_count_window_oracle():
    rates = np.full(4, 0.5)
    interval = PredictionInterval(lower=360, upper=440, nominal_level=0.9,
                                  probs_used=(0.05, 0.95))
    got = exact_coverage(rates, interval, COUNT, 200.0)
    want = oracles.poisson_cdf(439, 400.0) - oracles.poisson_cdf(359, 400.0)
    assert abs(got - want) < 1e-9


def test_exact_coverage_time_erlang():
    rates = np.array([1.25, 0.75])
    interval = PredictionInterval(lower=0.5, upper=2.0, nominal_level=0.9,
                                  probs_used=(0.05, 0.95))
    got = exact_coverage(rates, interval, TIME, 3.0)

    def erlang3(x):
        return 1.0 - math.exp(-2.0 * x) * (1.0 + 2.0 * x + 2.0 * x * x)

    assert abs(got - (erlang3(2.0) - erlang3(0.5))) < 1e-12


def test_quantile_study_near_uniform_at_matched_horizon():
    config = _config(replications=400, seed=101)
    sample = quantile_probability_study(config, 0.5)
    assert sample.degenerate_fits == 0
    values = np.sort(sample.values)
    assert values.size == 400
    assert np.all((values >= 0.0) & (values <= 1.0))
    steps = np.arange(1, 401) / 400.0
    ks = float(np.max(np.maximum(np.abs(steps - values),
                                 np.abs(steps - 1.0 / 400.0 - values))))
    assert ks < 0.10


def test_quantile_study_concentrates_for_long_census():
    config = _config(census_time=350.0, horizon=50.0,
                     replications=300, seed=102)
    sample = quantile_probability_study(config, 0.5)
    values = np.sort(sample.values)
    assert abs(float(values.mean()) - 0.5) < 0.04
    assert float(values.std()) < 0.2
    # far from uniform: its own KS distance from U(0,1) is about 0.21
    steps = np.arange(1, values.size + 1) / values.size
    ks = float(np.max(np.abs(steps - values)))
    assert ks > 0.10


def test_quantile_study_steps_toward_p_for_tiny_horizon():
    # high recruitment rates keep lambda t+ large, so the continuous
    # limit still applies at t+ = t/1000 and the values pile up near p
    config = _config(prior=SingleGamma(alpha=2.0, beta=0.15), centres=50,
                     horizon=0.2, replications=200, seed=103)
    sample = quantile_probability_study(config, 0.75)
    values = sample.values
    assert values.size == 200
    assert abs(float(values.mean()) - 0.75) < 0.03
    assert float(values.min()) > 0.6
    assert float(values.max()) < 0.9


def test_coverage_study_simultaneous_near_table_row():
    config = _config(replications=300, seed=104)
    report = coverage_study(config)
    assert isinstance(report, CoverageReport)
    assert report.replications == 300
    assert report.degenerate_fits == 0
    assert abs(report.coverage_unadjusted - 84.9) < 4.0
    assert abs(report.coverage_adjusted - 89.6) < 4.0
    assert report.coverage_adjusted > report.coverage_unadjusted
    assert report.width_adjusted > report.width_unadjusted
    # equal exposures collapse the pooled summaries onto the design
    assert abs(report.mean_t_star - 200.0) < 1e-9
    assert abs(report.t_star_ratio - 1.0) < 1e-12
    assert abs(report.n_star_ratio - 1.0) < 1e-12


def test_explicit_zeros_match_simultaneous():
    base = _config(centres=30, census_time=50.0, horizon=50.0,
                   replications=50, seed=105)
    forced = _config(centres=30, census_time=50.0, horizon=50.0,
                     replications=50, seed=105,
                     schedule=Explicit((0.0,) * 30))
    assert coverage_study(base) == coverage_study(forced)


def test_coverage_study_parallel_bit_identical():
    config = _config(centres=30, census_time=50.0, horizon=50.0,
                     schedule=UniformOnCensus(), replications=24, seed=106)
    assert coverage_study(config, workers=1) == coverage_study(config, workers=3)


def test_worker_plan_caps_a_huge_request():
    # the plan is pure arithmetic: no process starts here
    cpus = os.cpu_count() or 1
    for total in (1, 3, 2000):
        workers, bounds = _worker_plan(total, 10**12)
        assert 1 <= workers <= min(cpus, total)
        assert workers <= len(bounds)
        assert [i for start, stop in bounds for i in range(start, stop)] == list(range(total))
    assert _worker_plan(2000, 1) == (1, [(0, 2000)])
    assert _worker_plan(2000, 0)[0] == 1


def test_coverage_study_counts_degenerate_fits():
    # concentrated prior keeps counts close to Poisson, so small trials
    # often land on the under-dispersed boundary
    config = _config(prior=SingleGamma(alpha=100.0, beta=10.0), centres=5,
                     census_time=1.0, horizon=1.0, replications=40, seed=107)
    report = coverage_study(config)
    assert 0 < report.degenerate_fits < 40
    # boundary fits stay in the averages through their limiting laws
    assert report.replications == 40
    assert 0.0 <= report.coverage_unadjusted <= 100.0


def test_boundary_replication_matches_limiting_interior_fit():
    # a lone recruit across equal exposures leaves the likelihood monotone;
    # the boundary laws used by the study must agree with the interior
    # machinery pushed far along the constant-ratio ray
    base = dict(prior=SingleGamma(alpha=0.5, beta=5.0), centres=6,
                census_time=1.0, schedule=Simultaneous(), level=0.9,
                replications=1, seed=300)
    probe = SimConfig(**base, objective=COUNT, horizon=4.0)
    rates, data = generate_trial(probe, replication_rng(300, 0))
    assert data.total_count == 1
    with pytest.raises(DegenerateLikelihood):
        fit_mle(data)
    big = 1e8
    ray = ModelFit(alpha_hat=big * data.total_count / float(data.exposures.sum()),
                   beta_hat=big, log_lik=0.0, converged=True, iterations=0)
    pool = pool_centres(data, ray)
    for objective, horizon in ((COUNT, 4.0), (TIME, 3.0)):
        report = coverage_study(SimConfig(**base, objective=objective,
                                          horizon=horizon))
        assert report.degenerate_fits == 1
        plain = prediction_interval(pool, ray, PredictionRequest(
            objective=objective, horizon=horizon, level=0.9, adjusted=False))
        widened = prediction_interval(pool, ray, PredictionRequest(
            objective=objective, horizon=horizon, level=0.9, adjusted=True))
        want_cu = 100.0 * exact_coverage(rates, plain, objective, horizon)
        want_ca = 100.0 * exact_coverage(rates, widened, objective, horizon)
        assert abs(report.coverage_unadjusted - want_cu) < 1e-4
        assert abs(report.coverage_adjusted - want_ca) < 1e-4
        assert abs(report.width_unadjusted - (plain.upper - plain.lower)) < 1e-5
        assert abs(report.width_adjusted - (widened.upper - widened.lower)) < 1e-5
        assert abs(report.mean_t_star - float(data.exposures.mean())) < 1e-12


def test_coverage_study_all_degenerate_raises():
    config = _config(centres=6, replications=5,
                     schedule=Explicit((200.0,) * 6))
    with pytest.raises(DegenerateLikelihood):
        coverage_study(config)


def test_quantile_study_rejects_bad_p():
    config = _config(replications=5)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            quantile_probability_study(config, bad)


def test_kernel_density_uniform_sample():
    rng = np.random.default_rng(62)
    samples = rng.uniform(0.0, 1.0, 20_000)
    grid = np.linspace(0.0, 1.0, 401)
    density = kernel_density(samples, grid)
    assert np.all(np.abs(density - 1.0) < 0.1)
    assert abs(float(trapezoid(density, grid)) - 1.0) < 0.01


def test_kernel_density_degenerate_and_small_samples():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        kernel_density(np.full(500, 0.3), grid)
    with pytest.raises(ValueError):
        kernel_density(np.random.default_rng(63).uniform(size=99), grid)


def test_schedule_and_prior_validation():
    with pytest.raises(ValueError):
        SingleGamma(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        GammaMixture(alpha=1.0, beta1=1.0, beta2=0.0)
    rng = np.random.default_rng(64)
    with pytest.raises(ValueError):
        Explicit((0.0, 10.0)).sample_openings(rng, 3, 50.0)
    with pytest.raises(ValueError):
        Explicit((0.0, 60.0)).sample_openings(rng, 2, 50.0)


def test_sim_config_validation():
    for overrides in (
        dict(objective="events"),
        dict(centres=0),
        dict(census_time=0.0),
        dict(horizon=0.0),
        dict(objective=TIME, horizon=2.5),
        dict(level=0.0),
        dict(level=1.0),
        dict(replications=0),
        dict(seed=-1),
    ):
        with pytest.raises(ValueError):
            _config(**overrides)


def test_replication_rng_is_stream_indexed():
    direct = np.random.default_rng([9, 3]).random(4)
    assert np.array_equal(replication_rng(9, 3).random(4), direct)
    assert not np.array_equal(replication_rng(9, 2).random(4), direct)
