"""Trial generation, exact coverage, and the repeated-sampling studies."""

import collections
import json
import math
import os
import re
import tracemalloc
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from scipy.integrate import trapezoid

import oracles
from fresh_process import run_python
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
    TrialData,
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
    replication_rngs,
)
from recruitcast import model, simulate
from recruitcast.asymptotics import limit_prob_cdf
from recruitcast.reproduce import figure_curve, reproduction_table
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
    rates, data = generate_trial(config, replication_rngs(config.seed, 0, 1))
    rates, data = rates[0], data[0]
    assert rates.shape == (25,)
    assert np.all(rates > 0)
    assert np.all(data.exposures == 200.0)
    assert np.all(data.counts >= 0)
    assert data.census_time == 200.0


def test_generate_trial_split_half_pattern():
    config = _config(centres=10, schedule=SplitHalf())
    data = generate_trial(config, replication_rngs(config.seed, 0, 1))[1][0]
    assert np.all(data.exposures[:5] == 200.0)
    assert np.all(data.exposures[5:] == 0.0)
    assert np.all(data.counts[5:] == 0)
    # odd centre count rounds the open half up
    config = _config(centres=5, schedule=SplitHalf())
    data = generate_trial(config, replication_rngs(config.seed, 0, 1))[1][0]
    assert np.sum(data.exposures == 200.0) == 3


def test_generate_trial_uniform_schedule_spread():
    config = _config(centres=200, schedule=UniformOnCensus())
    data = generate_trial(config, replication_rngs(config.seed, 3, 4))[1][0]
    assert np.all(data.exposures >= 0.0)
    assert np.all(data.exposures <= 200.0)
    assert np.unique(data.exposures).size == 200


def test_generate_trial_deterministic_streams():
    config = _config(centres=40, schedule=UniformOnCensus())
    rates_a, data_a = generate_trial(config, replication_rngs(11, 4, 5))
    rates_a, data_a = rates_a[0], data_a[0]
    rates_b, data_b = generate_trial(config, replication_rngs(11, 4, 5))
    rates_b, data_b = rates_b[0], data_b[0]
    assert np.array_equal(rates_a, rates_b)
    assert np.array_equal(data_a.exposures, data_b.exposures)
    assert np.array_equal(data_a.counts, data_b.counts)
    rates_c = generate_trial(config, replication_rngs(11, 5, 6))[0][0]
    assert not np.array_equal(rates_a, rates_c)


def test_generate_trial_mean_total_count():
    # E n• = C (alpha/beta) t = 400; per-centre variance
    # (alpha/beta) t + (alpha/beta^2) t^2 gives sd(n•) = 30.55
    config = _config(replications=10_000)
    total = 0.0
    for rng in replication_rngs(config.seed, 0, config.replications):
        data = generate_trial(config, [rng])[1][0]
        total += data.total_count
    mean = total / config.replications
    assert abs(mean - 400.0) < 3.0 * 30.551 / 100.0


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize("prior", [SingleGamma(alpha=2.0, beta=150.0),
                                   GammaMixture(alpha=2.0, beta1=100.0, beta2=300.0)],
                         ids=["single gamma", "gamma mixture"])
@pytest.mark.parametrize("schedule", [
    Simultaneous(), UniformOnCensus(), SplitHalf(),
    Explicit((0.0, 10.0, 50.0, 100.0, 150.0, 199.5, 200.0))],
    ids=["simultaneous", "uniform", "split half", "explicit"])
def test_generate_trial_draws_each_stream_as_the_stream_by_stream_loop(schedule, prior):
    # the block fills read each stream as the loop did: openings, then
    # rates, then counts, through NumPy's own uniform and gamma
    config = _config(prior=prior, centres=7, schedule=schedule)
    blocks = [(replication_rngs(config.seed, 0, 1), replication_rngs(config.seed, 0, 1)),
              (replication_rngs(config.seed, 5, 69), replication_rngs(config.seed, 5, 69)),
              ([np.random.default_rng(808)], [np.random.default_rng(808)])]
    for rngs, loop_rngs in blocks:
        rates, data = generate_trial(config, rngs)
        want_rates, want_exposures, want_counts = oracles.generate_trial_loop(config, loop_rngs)
        assert _bits(rates) == _bits(want_rates)
        assert _bits(data.exposures) == _bits(want_exposures)
        assert _bits(data.counts) == _bits(want_counts)
        # each stream is left where the loop left it
        assert [rng.random() for rng in rngs] == [rng.random() for rng in loop_rngs]


class _RecordingGenerator:
    """A generator that records the name of each of its draws in ``calls``."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            self._calls.append(name)
            return draw(*args, **kwargs)

        return recorded


def test_a_block_past_the_poisson_range_is_refused_before_any_count_is_drawn():
    # the prior's mean count per centre, 1e18, is inside NumPy's Poisson
    # range; at seed 3 trial 1 draws a rate past it, and trial 0 does not
    config = _config(prior=SingleGamma(alpha=0.01, beta=1e-20), centres=50,
                     census_time=1.0, seed=3)
    calls = [[], [], []]
    rngs = [_RecordingGenerator(rng, log)
            for rng, log in zip(replication_rngs(config.seed, 0, 3), calls)]
    with pytest.raises(ValueError, match=re.escape(
            f"prior {config.prior} drew a centre rate whose mean count over the census 1 "
            "is past what numpy's Poisson sampler accepts")):
        generate_trial(config, rngs)
    assert calls == [["standard_gamma"]] * 3
    # trial 0 alone draws its counts
    generate_trial(config, rngs[:1])
    assert calls[0] == ["standard_gamma", "standard_gamma", "poisson"]


def test_mixture_prior_moments():
    prior = GammaMixture(alpha=2.0, beta1=1.0, beta2=4.0)
    rng = np.random.default_rng(61)
    draws = prior.sample_rates([rng], 100_000)[0]
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


def test_quantile_study_of_a_design_that_never_recruits_is_empty():
    # rates near 2e-6 over a census of 1: no trial recruits, so no
    # replication has a quantile to score and each is tallied
    config = _config(prior=SingleGamma(alpha=2.0, beta=1e6), centres=5, census_time=1.0,
                     replications=20)
    assert (simulate._fit_chunk(config, (0, 20))["kind"] == "insufficient").all()
    sample = quantile_probability_study(config, 0.5)
    assert sample.values.size == 0 and sample.degenerate_fits == 20


def test_time_quantile_contents_follow_the_time_limit_law():
    # figure 4 at C = 600: the time objective's plug-in median, whose
    # content time_limit_law describes; the bound is the KS 1 % point
    curve = figure_curve("fig4", centres=600, replications=2000, seed=5)
    sample = quantile_probability_study(curve.config, curve.p)
    values = np.sort(sample.values)
    n = values.size
    assert n + sample.degenerate_fits == 2000
    cdf = limit_prob_cdf(values, curve.law)
    ks = float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))
    assert ks < 1.63 / math.sqrt(n)


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
    assert abs(report.t_star - 200.0) < 1e-9
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


def _table_row(table_id, row):
    return reproduction_table(table_id, replications=20, base_seed=31).rows[row][1]


_CHUNKED_CELLS = {
    "table 2": lambda: _table_row("2", 0),
    "table 3": lambda: _table_row("3", 3),
    "time objective": lambda: _table_row("D5", 1),
    # six centres, half of them closed, with nearly equal rates and about
    # three recruits: mostly boundary fits, a few interior and dropped
    "boundary heavy": lambda: SimConfig(
        prior=SingleGamma(alpha=20.0, beta=20.0), centres=6, census_time=1.0,
        schedule=SplitHalf(), objective=COUNT, horizon=4.0, level=0.9,
        replications=20, seed=300),
}


@pytest.mark.parametrize("cell", list(_CHUNKED_CELLS))
def test_chunks_and_workers_change_no_byte(cell):
    # each replication is scored from its own stream and fit, so neither
    # where a chunk ends nor how many processes share them moves a bit
    config = _CHUNKED_CELLS[cell]()
    for chunk in (partial(simulate._coverage_chunk, config),
                  partial(simulate._quantile_chunk, config, 0.25)):
        whole = chunk((0, 20))
        assert np.concatenate([chunk((0, 7)), chunk((7, 20))]).tobytes() == whole.tobytes()
    if cell == "boundary heavy":
        flags = simulate._coverage_chunk(config, (0, 20))[:, 7]
        assert np.count_nonzero(flags == 1.0) > 10
        assert np.count_nonzero(flags == 0.0) > 0 and np.count_nonzero(np.isnan(flags)) > 0
    one, two = coverage_study(config, workers=1), coverage_study(config, workers=2)
    assert np.array(astuple(one)).tobytes() == np.array(astuple(two)).tobytes()
    one, two = (quantile_probability_study(config, 0.25, workers=w) for w in (1, 2))
    assert one.values.tobytes() == two.values.tobytes()
    assert one.degenerate_fits == two.degenerate_fits


@pytest.mark.parametrize("schedule", [
    Simultaneous(),  # equal exposures: the block's rows in one pass along the ray
    UniformOnCensus(),  # unequal: the block's rows in one pass in the plane
], ids=["simultaneous", "uniform"])
def test_a_row_draws_and_checks_its_trials_a_block_at_a_time(monkeypatch, schedule):
    calls = collections.Counter()

    def spy(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(simulate, "generate_trial",
                        spy("generate_trial", simulate.generate_trial))
    monkeypatch.setattr(simulate, "fit_rows", spy("fit_rows", simulate.fit_rows))
    monkeypatch.setattr(simulate, "replication_rngs",
                        spy("replication_rngs", simulate.replication_rngs))
    monkeypatch.setattr(np.random, "default_rng", spy("default_rng", np.random.default_rng))
    monkeypatch.setattr(model, "fit_mle", spy("fit_mle", model.fit_mle))
    monkeypatch.setattr(TrialData, "from_arrays",
                        classmethod(spy("from_arrays", TrialData.from_arrays.__func__)))
    monkeypatch.setattr(TrialData, "__post_init__",
                        spy("__post_init__", TrialData.__post_init__))
    coverage_study(_config(centres=20, replications=600, schedule=schedule))
    blocks = math.ceil(600 / model.block_rows(20))
    assert blocks > 1 and 600 // blocks >= model._MIN_GROUP_ROWS
    # one seeding pass, one batch checked and one fitter call per block,
    # never a trial on its own: no block is small enough for single fits,
    # and no stream is seeded one at a time
    assert calls == {"replication_rngs": blocks, "generate_trial": blocks,
                     "from_arrays": blocks, "__post_init__": blocks, "fit_rows": blocks}
    assert calls["default_rng"] == 0


@pytest.mark.parametrize("centres, replications", [
    (150, 200),  # 2^16 // 2^8 = 256 trials a block at most: one of 200
    (5000, 30),  # 2^16 // 5000 = 13 trials a block at most: three of 10
    (70000, 2),  # one trial's centres pass the budget on their own
])
def test_a_large_row_draws_blocks_within_the_element_budget(monkeypatch, centres,
                                                            replications):
    sizes = []

    def recorded(config, rngs):
        sizes.append(len(rngs))
        return generate_trial(config, rngs)

    monkeypatch.setattr(simulate, "generate_trial", recorded)
    simulate._fit_chunk(_config(centres=centres, replications=replications),
                        (0, replications))
    # the fewest blocks within the budget, as near equal as they can be
    rows = model.block_rows(centres)
    assert rows == max(1, model._BLOCK_ELEMENTS // max(centres, model._EXACT_RISE_TERMS))
    assert sum(sizes) == replications and max(sizes) <= rows
    assert len(sizes) == math.ceil(replications / rows)
    assert max(sizes) - min(sizes) <= 1


def test_a_row_of_200_replications_fits_no_trial_on_its_own(monkeypatch):
    # 200 replications at 150 centres make one block, fitted in one
    # batched pass; blocks of 64 left a tail of 8, below the row bound,
    # that went through fit_mle one trial at a time
    calls = []
    fit_mle = model.fit_mle

    def counted(data):
        calls.append(data)
        return fit_mle(data)

    monkeypatch.setattr(model, "fit_mle", counted)
    fits = simulate._fit_chunk(_config(replications=200, schedule=UniformOnCensus()), (0, 200))
    assert (fits["kind"] == "ok").sum() > 150
    assert calls == []


def test_a_row_of_many_centres_keeps_its_memory_to_a_few_blocks():
    # at C = 20,000 a block holds 2^16 // C = 3 trials, and one trial's
    # float array takes C * 8 bytes.  A block's draws (exposures, rates,
    # counts) and the checked copies of its exposures and counts make five
    # such arrays per row; the checks' masks and one fit's temporaries take
    # fewer than as many again.  The bound allows 16 per row of the block,
    # 48 trial arrays or 7.7 MB, where a block of 64 rows would need 1,024.
    centres = 20000
    rows = model.block_rows(centres)
    assert rows == 3
    bound = 16 * rows * centres * 8
    config = _config(centres=centres, replications=64, schedule=UniformOnCensus())
    tracemalloc.start()
    try:
        coverage_study(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


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


# Two workers' chunks through a serial stand-in for the process pool,
# recording whether SciPy was loaded when the pool was built, then the
# same chunks in one process.
_POOL_START = """
import concurrent.futures, json, os, sys
from functools import partial
from recruitcast import SimConfig, SingleGamma, UniformOnCensus, simulate

class SerialPool:
    def __init__(self, max_workers):
        built.append("scipy.special" in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, chunks):
        return map(fn, chunks)

built = []
concurrent.futures.ProcessPoolExecutor = SerialPool
os.cpu_count = lambda: 2
config = SimConfig(prior=SingleGamma(alpha=2.0, beta=150.0), centres=30, census_time=50.0,
                   schedule=UniformOnCensus(), objective="count", horizon=50.0, level=0.9,
                   replications=24, seed=106)
chunk = partial(simulate._coverage_chunk, config)
loaded_before = "scipy.special" in sys.modules
two = simulate._run_replications(chunk, config.replications, 2)
one = simulate._run_replications(chunk, config.replications, 1)
print(json.dumps({"loaded_before": loaded_before, "built": built,
                  "same": two.tobytes() == one.tobytes()}))
"""


def test_a_pool_starts_after_scipy_is_loaded():
    # forked workers inherit the parent's SciPy instead of each importing
    # it again; the rows are those of one worker
    assert json.loads(run_python(_POOL_START)) == {"loaded_before": False, "built": [True],
                                                   "same": True}


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
    rates, data = generate_trial(probe, replication_rngs(300, 0, 1))
    rates, data = rates[0], data[0]
    assert data.total_count == 1
    assert fit_mle(data).kind == "boundary"
    big = 1e8
    ray = ModelFit(alpha_hat=big * data.total_count / float(data.exposures.sum()),
                   beta_hat=big, log_lik=0.0, kind="ok", iterations=0)
    pool = pool_centres(data, ray)
    for objective, horizon in ((COUNT, 4.0), (TIME, 3.0)):
        report = coverage_study(SimConfig(**base, objective=objective,
                                          horizon=horizon))
        assert report.degenerate_fits == 1
        plain = prediction_interval(pool, PredictionRequest(
            objective=objective, horizon=horizon, level=0.9, adjusted=False))
        widened = prediction_interval(pool, PredictionRequest(
            objective=objective, horizon=horizon, level=0.9, adjusted=True))
        want_cu = 100.0 * exact_coverage(rates, plain, objective, horizon)
        want_ca = 100.0 * exact_coverage(rates, widened, objective, horizon)
        assert abs(report.coverage_unadjusted - want_cu) < 1e-4
        assert abs(report.coverage_adjusted - want_ca) < 1e-4
        assert abs(report.width_unadjusted - (plain.upper - plain.lower)) < 1e-5
        assert abs(report.width_adjusted - (widened.upper - widened.lower)) < 1e-5
        assert abs(report.t_star - float(data.exposures.mean())) < 1e-12


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


def test_kernel_density_blocks_change_no_bit():
    # 1,300 grid points by 9,000 samples span several blocks of each; every
    # grid point still sums the same sample blocks in the same order
    rng = np.random.default_rng(65)
    samples = rng.beta(2.0, 3.0, 9_000)
    grid = np.linspace(0.0, 1.0, 1_302)[1:-1]
    density = kernel_density(samples, grid)
    spread = min(samples.std(ddof=1), np.subtract(*np.percentile(samples, [75, 25])) / 1.34)
    bandwidth = 0.9 * spread * samples.size ** (-0.2)
    whole = np.zeros_like(grid)
    for start in range(0, samples.size, 4096):
        block = samples[start:start + 4096]
        for centers in (block, -block, 2.0 - block):
            z = (grid[:, None] - centers[None, :]) / bandwidth
            whole += np.exp(-0.5 * z * z).sum(axis=1)
    norm = 1.0 / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))
    assert density.tobytes() == (norm * whole).tobytes()


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
    # an infinite or NaN prior once failed only after the trials were drawn
    for bad in (math.inf, -math.inf, math.nan):
        for name, prior in (("alpha", lambda: SingleGamma(alpha=bad, beta=1.0)),
                            ("beta", lambda: SingleGamma(alpha=1.0, beta=bad)),
                            ("alpha", lambda: GammaMixture(alpha=bad, beta1=1.0, beta2=2.0)),
                            ("beta1", lambda: GammaMixture(alpha=1.0, beta1=bad, beta2=2.0)),
                            ("beta2", lambda: GammaMixture(alpha=1.0, beta1=1.0, beta2=bad))):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                prior()
    rng = np.random.default_rng(64)
    with pytest.raises(ValueError):
        Explicit((0.0, 10.0)).sample_openings([rng], 3, 50.0)
    with pytest.raises(ValueError):
        Explicit((0.0, 60.0)).sample_openings([rng], 2, 50.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Explicit((0.0, bad))


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
        # explicit openings are checked against the design up front
        dict(centres=3, schedule=Explicit((0.0, 10.0))),
        dict(centres=2, schedule=Explicit((0.0, 250.0))),
    ):
        with pytest.raises(ValueError):
            _config(**overrides)


def test_replication_rng_is_stream_indexed():
    direct = np.random.default_rng([9, 3]).random(4)
    assert np.array_equal(replication_rngs(9, 3, 4)[0].random(4), direct)
    assert not np.array_equal(replication_rngs(9, 2, 3)[0].random(4), direct)
    # every stream of a range is default_rng([seed, i]), across seeds of one
    # to seven 32-bit words and a range whose indices pass 2^32 midway
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 9):
        for start in (0, 2**31, 2**32 - 3):
            for length in (1, 8, 64):
                rngs = replication_rngs(seed, start, start + length)
                assert len(rngs) == length
                for index, rng in zip(range(start, start + length), rngs):
                    want = np.random.default_rng([seed, index])
                    assert np.array_equal(rng.random(3), want.random(3))
                    assert np.array_equal(rng.gamma(2.0, 1.5, 3), want.gamma(2.0, 1.5, 3))
                    assert np.array_equal(rng.poisson(40.0, 3), want.poisson(40.0, 3))
    assert replication_rngs(9, 5, 5) == replication_rngs(9, 5, 2) == []
    for seed, start in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            np.random.default_rng([seed, start])
        with pytest.raises(ValueError):
            replication_rngs(seed, start, start + 3)
