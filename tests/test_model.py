"""Likelihood, MLE, and posterior moments of the hierarchical count model."""

import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
from recruitcast import (
    DegenerateLikelihood,
    InsufficientData,
    ModelFit,
    TrialData,
    fit_mle,
    generate_trial,
    log_likelihood,
    posterior_rate_moments,
    replication_rng,
)
from recruitcast.cli import parse_centre_csv
from recruitcast.datasets import DEMO_SUMMARY_CENSUS, demo_summary_path
from recruitcast.model import _EXACT_RISE_TERMS, _Workspace
from recruitcast.reproduce import reproduction_table

GOLDEN_FIT = Path(__file__).parent / "data" / "fit_demo_summary.json"


def _trial(census, exposures, counts):
    return TrialData.from_arrays(census, exposures, counts)


def test_log_likelihood_single_empty_centre():
    data = _trial(1.0, [1.0], [0])
    for alpha, beta in ((1.0, 1.0), (2.5, 0.7), (0.3, 12.0)):
        expected = alpha * math.log(beta / (beta + 1.0))
        assert abs(log_likelihood(alpha, beta, data) - expected) < 1e-12


def test_log_likelihood_hand_values():
    data = _trial(1.0, [1.0, 1.0], [1, 0])
    assert abs(log_likelihood(1.0, 1.0, data) - (-3.0 * math.log(2.0))) < 1e-12
    other = _trial(3.0, [1.0, 3.0], [2, 0])
    assert abs(log_likelihood(1.0, 1.0, other) - (-4.0 * math.log(2.0))) < 1e-12


def test_log_likelihood_closed_centre_is_neutral():
    base = _trial(2.0, [2.0, 1.5], [3, 1])
    padded = _trial(2.0, [2.0, 1.5, 0.0], [3, 1, 0])
    for alpha, beta in ((1.0, 1.0), (4.0, 0.2), (0.5, 9.0)):
        assert log_likelihood(alpha, beta, padded) == log_likelihood(alpha, beta, base)


def test_log_likelihood_domain():
    data = _trial(1.0, [1.0], [2])
    for alpha, beta in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            log_likelihood(alpha, beta, data)


def test_log_likelihood_matches_quadrature_oracle():
    rng = np.random.default_rng(31)
    for _ in range(15):
        c = int(rng.integers(1, 4))
        exposures = rng.uniform(0.3, 4.0, size=c)
        counts = rng.integers(0, 6, size=c)
        if rng.random() < 0.3:
            exposures = np.append(exposures, 0.0)
            counts = np.append(counts, 0)
        data = _trial(float(exposures.max()) + 0.5, exposures, counts)
        alpha = float(rng.uniform(0.3, 5.0))
        beta = float(rng.uniform(0.3, 5.0))
        exact = float(oracles.marginal_log_likelihood(alpha, beta,
                                                      exposures, counts))
        assert abs(log_likelihood(alpha, beta, data) - exact) < 1e-6


def test_score_matches_its_digamma_form():
    # counts past the exact-sum limit take the digamma branch of the score;
    # the closed centre adds nothing
    exposures, counts = [9.0, 4.0, 2.5, 7.0], [0, 3, 70000, 200000]
    ws = _Workspace(_trial(9.0, exposures + [0.0], counts + [0]))
    for alpha, beta in ((0.7, 0.02), (3.0, 1.5), (40.0, 11.0)):
        d_alpha = sum(math.log(beta / (beta + t)) + special.digamma(alpha + n)
                      - special.digamma(alpha) for t, n in zip(exposures, counts))
        d_beta = sum(alpha / beta - (alpha + n) / (beta + t)
                     for t, n in zip(exposures, counts))
        assert np.allclose(ws.score(alpha, beta), [d_alpha, d_beta], rtol=1e-12, atol=0)
        h_aa = sum(special.polygamma(1, alpha + n) - special.polygamma(1, alpha)
                   for n in counts)
        h_ab = sum(1.0 / beta - 1.0 / (beta + t) for t in exposures)
        h_bb = sum(-alpha / beta**2 + (alpha + n) / (beta + t) ** 2
                   for t, n in zip(exposures, counts))
        assert np.allclose(ws.hessian(alpha, beta), [h_aa, h_ab, h_bb], rtol=1e-12, atol=0)


def test_ray_derivatives_match_the_per_centre_form():
    # with one shared exposure the per-centre sums have closed forms in C,
    # the total count and t; closed centres stay out of C
    rng = np.random.default_rng(61)
    for _ in range(200):
        centres = int(rng.integers(1, 200))
        t = float(rng.uniform(0.05, 50.0))
        counts = rng.poisson(rng.gamma(rng.uniform(0.3, 5.0), rng.uniform(0.1, 20.0),
                                       centres))
        closed = int(rng.integers(0, 3))
        ws = _Workspace(_trial(t, [t] * centres + [0.0] * closed,
                               list(counts) + [0] * closed))
        assert ws.equal_exposures and ws.num_open == centres
        # away from the ray alpha / beta = n / (C t), on which the
        # beta-score cancels to rounding noise
        ratio = max(counts.sum(), 1) / (centres * t) * rng.choice([0.3, 0.6, 1.7, 3.0])
        alpha = float(np.exp(rng.uniform(-2.0, 6.0)))
        beta = alpha / ratio
        if beta > 5.0 * t:
            # 1 / b - 1 / (b + t) cancels; the per-centre sum keeps its
            # rounding from the terms of size 1 / b
            continue
        closed_form = ws.ray_score(alpha, beta) + ws.ray_hessian(alpha, beta)
        general = ws.score(alpha, beta) + ws.hessian(alpha, beta)
        assert np.allclose(closed_form, general, rtol=1e-13, atol=0)


def test_equal_exposure_ratio_identity():
    rng = np.random.default_rng(32)
    fitted = 0
    for _ in range(20):
        c = int(rng.integers(5, 120))
        t = float(rng.uniform(0.5, 300.0))
        rates = rng.gamma(rng.uniform(0.5, 4.0), 1.0, size=c)
        counts = rng.poisson(rates * rng.uniform(0.02, 2.0))
        if counts.sum() == 0:
            continue
        data = _trial(t, np.full(c, t), counts)
        try:
            fit = fit_mle(data)
        except DegenerateLikelihood:
            continue
        fitted += 1
        pooled = counts.sum() / (c * t)
        assert abs(fit.alpha_hat / fit.beta_hat - pooled) < 1e-6 * pooled
        assert fit.converged
    assert fitted >= 15


def test_under_dispersed_counts_degenerate():
    data = _trial(4.0, np.full(30, 4.0), np.full(30, 3))
    with pytest.raises(DegenerateLikelihood) as info:
        fit_mle(data)
    fit = info.value.fit
    assert fit is not None
    assert fit.degenerate
    assert not fit.converged
    ratio = 3.0 / 4.0
    assert abs(fit.alpha_hat / fit.beta_hat - ratio) < 1e-9 * ratio


def test_degenerate_fit_sits_on_the_requested_bound():
    data = _trial(4.0, np.full(30, 4.0), np.full(30, 3))
    with pytest.raises(DegenerateLikelihood) as info:
        fit_mle(data)
    assert info.value.fit.alpha_hat == math.exp(30.0)


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_mle(_trial(2.0, [2.0, 2.0], [0, 0]))
    with pytest.raises(InsufficientData):
        fit_mle(_trial(2.0, [0.0, 0.0], [0, 0]))


def test_fit_is_stationary():
    rng = np.random.default_rng(33)
    c = 40
    exposures = rng.uniform(1.0, 10.0, size=c)
    rates = rng.gamma(2.0, 0.5, size=c)
    counts = rng.poisson(rates * exposures)
    data = _trial(10.0, exposures, counts)
    fit = fit_mle(data)
    assert fit.converged
    assert abs(fit.log_lik - log_likelihood(fit.alpha_hat, fit.beta_hat, data)) < 1e-9

    la, lb = math.log(fit.alpha_hat), math.log(fit.beta_hat)
    eps = 1e-5

    def at(u, v):
        return log_likelihood(math.exp(u), math.exp(v), data)

    da = (at(la + eps, lb) - at(la - eps, lb)) / (2.0 * eps)
    db = (at(la, lb + eps) - at(la, lb - eps)) / (2.0 * eps)
    assert abs(da) < 1e-6
    assert abs(db) < 1e-6


def test_fit_consistency_at_defaults():
    # 200 trials drawn at alpha=2, beta=150, C=150, t=200
    rng = np.random.default_rng(34)
    estimates = []
    for _ in range(200):
        rates = rng.gamma(2.0, 1.0 / 150.0, size=150)
        counts = rng.poisson(rates * 200.0)
        fit = fit_mle(_trial(200.0, np.full(150, 200.0), counts))
        estimates.append(fit.alpha_hat)
    median = float(np.median(estimates))
    assert 1.5 <= median <= 2.7


def test_posterior_rate_moments():
    fit = ModelFit(alpha_hat=1.0, beta_hat=1.0, log_lik=0.0, converged=True,
                   iterations=1)
    data = _trial(3.0, [1.0, 3.0], [2, 0])
    mean, variance = posterior_rate_moments(data, fit)
    assert abs(mean - 1.75) < 1e-12
    assert abs(variance - 0.8125) < 1e-12

    prior_only = TrialData.from_arrays(1.0, [0.0], [0], ["a"])
    fit = ModelFit(alpha_hat=1.3, beta_hat=0.9, log_lik=0.0, converged=True,
                   iterations=1)
    mean, variance = posterior_rate_moments(prior_only, fit)
    assert abs(mean - 1.3 / 0.9) < 1e-12
    assert abs(variance - 1.3 / 0.81) < 1e-12


def test_posterior_moments_equal_exposure_form():
    rng = np.random.default_rng(35)
    counts = rng.poisson(3.0, size=25)
    data = _trial(5.0, np.full(25, 5.0), counts)
    fit = fit_mle(data)
    mean, variance = posterior_rate_moments(data, fit)
    pooled_shape = 25 * fit.alpha_hat + counts.sum()
    pooled_rate = fit.beta_hat + 5.0
    assert abs(mean - pooled_shape / pooled_rate) < 1e-9 * mean
    assert abs(variance - pooled_shape / pooled_rate ** 2) < 1e-9 * variance


def test_posterior_moments_require_convergence():
    fit = ModelFit(alpha_hat=1.0, beta_hat=1.0, log_lik=0.0, converged=False,
                   iterations=1)
    with pytest.raises(ValueError):
        posterior_rate_moments(_trial(1.0, [1.0], [1]), fit)


def test_closed_centres_do_not_move_the_fit():
    rng = np.random.default_rng(36)
    exposures = rng.uniform(2.0, 8.0, size=40)
    counts = rng.poisson(rng.gamma(2.0, 1.0, size=40) * exposures)
    open_only = _trial(8.0, exposures, counts)
    padded = _trial(8.0, np.append(exposures, [0.0, 0.0]),
                    np.append(counts, [0, 0]))
    a = fit_mle(open_only)
    b = fit_mle(padded)
    assert abs(a.alpha_hat - b.alpha_hat) < 1e-9 * a.alpha_hat
    assert abs(a.beta_hat - b.beta_hat) < 1e-9 * a.beta_hat


def test_record_validation():
    with pytest.raises(ValueError):
        TrialData.from_arrays(0.0, [0.0], [0], ["a"])
    with pytest.raises(ValueError):
        TrialData.from_arrays(1.0, [], [])
    with pytest.raises(ValueError):
        _trial(1.0, [2.0], [1])  # exposure beyond census
    with pytest.raises(ValueError):
        TrialData.from_arrays(1.0, [1.0, 1.0], [1])


def test_trial_data_summaries():
    data = _trial(4.0, [4.0, 2.0, 0.0], [5, 1, 0])
    assert data.num_centres == 3
    assert data.total_count == 6
    assert np.array_equal(data.exposures, [4.0, 2.0, 0.0])
    assert np.array_equal(data.counts, [5, 1, 0])


def _score(data, alpha, beta):
    d_alpha, d_beta = _Workspace(data).score(alpha, beta)
    return max(abs(alpha * d_alpha), abs(beta * d_beta))


def test_demo_golden_is_at_least_as_good_as_the_previous_optimum():
    # the golden demo fit was recorded by a derivative-free search plus a
    # Newton polish; the Newton-only fitter must land on the same optimum
    # with a score no larger
    old_alpha, old_beta = 2.161483063610766, 0.08196424115157645
    with open(GOLDEN_FIT) as fh:
        golden = json.load(fh)
    data = parse_centre_csv(str(demo_summary_path()), "summary", DEMO_SUMMARY_CENSUS)
    fit = fit_mle(data)
    assert (fit.alpha_hat, fit.beta_hat) == (golden["alpha_hat"], golden["beta_hat"])
    assert _score(data, fit.alpha_hat, fit.beta_hat) <= _score(data, old_alpha, old_beta)
    assert abs(fit.alpha_hat - old_alpha) <= 1e-12 * old_alpha
    assert abs(fit.beta_hat - old_beta) <= 1e-12 * old_beta


@pytest.mark.parametrize("census, exposures, counts, alpha, beta", [
    # each start sits where the likelihood is not locally concave; the
    # references are the earlier Brent and Nelder-Mead fits of these data
    (5.0, [5.0] * 5, [0, 5, 5, 6, 4], 15.667877914024189, 19.584847392530236),
    (5.0, [3.189, 1.877, 3.828, 0.23, 2.289, 1.922, 2.438, 0.725],
     [3, 1, 4, 0, 0, 0, 1, 3], 3.4000110158151333, 4.56747196478692),
    (5.0, [0.315, 1.361, 0.852, 2.121, 4.171], [9, 20, 18, 60, 103],
     61.61189518213602, 2.63266894278158),
])
def test_fit_recovers_from_a_start_off_the_concave_region(census, exposures,
                                                           counts, alpha, beta):
    fit = fit_mle(_trial(census, exposures, counts))
    assert fit.converged
    assert fit.iterations <= 10
    assert abs(fit.alpha_hat - alpha) < 1e-8 * alpha
    assert abs(fit.beta_hat - beta) < 1e-8 * beta


def _replications(table_id, per_row):
    for _, config in reproduction_table(table_id).rows:
        for index in range(per_row):
            yield generate_trial(config, replication_rng(config.seed, index))[1]


@pytest.mark.parametrize("table_id, equal", [("2", True), ("3", False), ("F1", False)])
def test_interior_fits_take_few_newton_steps(table_id, equal):
    interior = 0
    for data in _replications(table_id, 30):
        try:
            fit = fit_mle(data)
        except DegenerateLikelihood:
            continue
        assert fit.equal_exposures is equal
        assert fit.converged
        assert fit.iterations <= 10
        interior += 1
    assert interior >= 150


def test_per_centre_score_certifies_every_equal_exposure_optimum():
    # the 1-d search runs on the closed-form ray; the general per-centre
    # score must still read the optimum as stationary
    fits = 0
    for data in itertools.islice(_replications("2", 43), 300):
        try:
            fit = fit_mle(data)
        except DegenerateLikelihood:
            continue
        assert fit.equal_exposures
        assert _score(data, fit.alpha_hat, fit.beta_hat) <= 1e-8
        fits += 1
    assert fits >= 250


@pytest.mark.parametrize("equal", [True, False])
def test_line_searches_evaluate_each_point_once(monkeypatch, equal):
    # the accepted point's objective value carries into the next line
    # search instead of being computed again
    calls = []

    def spy(method):
        def recorded(self, *args):
            calls.append(args)
            return method(self, *args)
        return recorded

    monkeypatch.setattr(_Workspace, "loglik", spy(_Workspace.loglik))
    monkeypatch.setattr(_Workspace, "profile_loglik", spy(_Workspace.profile_loglik))
    searched = 0
    for seed in range(20):
        calls.clear()
        fit = _fit_or_none(10.0, *_drawn_trial(seed, 60, equal))
        if fit is not None:
            calls.pop()  # fit_mle's own log_lik at the optimum
        assert len(calls) == len(set(calls))
        searched += len(calls)
    assert searched >= 40


@pytest.mark.parametrize("equal", [True, False])
def test_newton_reads_the_hessian_only_for_steps_it_takes(monkeypatch, equal):
    # the last point Newton visits passes the score test and takes no step,
    # so its trigamma sum, the costly part of the Hessian, is never read
    calls = []
    trigamma_sum = _Workspace._trigamma_sum

    def counted(self, alpha):
        calls.append(alpha)
        return trigamma_sum(self, alpha)

    monkeypatch.setattr(_Workspace, "_trigamma_sum", counted)
    fit = fit_mle(_trial(10.0, *_drawn_trial(3, 60, equal)))
    assert fit.converged and fit.equal_exposures == equal
    assert fit.iterations > 0
    assert len(calls) == fit.iterations


# tiny trials: up to five centres, perhaps a closed one, perhaps one count
# past the exact-sum limit, and either one shared exposure or drawn ones
_TINY_TRIALS = st.tuples(
    st.lists(st.integers(0, 40), min_size=1, max_size=5),
    st.one_of(st.just(None), st.lists(st.floats(0.5, 10.0), min_size=5, max_size=5)),
    st.booleans(), st.booleans())
_CACHED_CALLS = st.lists(
    st.tuples(st.sampled_from(("loglik", "score", "hessian",
                               "ray_score", "ray_hessian")),
              st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=16)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(trial=_TINY_TRIALS, calls=_CACHED_CALLS,
       alphas=st.lists(st.floats(0.05, 50.0), min_size=3, max_size=3),
       betas=st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3))
def test_one_point_caches_match_a_fresh_workspace(trial, calls, alphas, betas):
    # calls interleave over three alphas and three betas, so points repeat,
    # share one coordinate, or follow another method's call at the same
    # point; each value must be the bits a fresh workspace computes
    counts, drawn, closed, huge = trial
    exposures = drawn[:len(counts)] if drawn else [4.0] * len(counts)
    if huge:
        counts = [_EXACT_RISE_TERMS + 5] + counts[1:]
    if closed:
        exposures, counts = exposures + [0.0], counts + [0]
    data = _trial(10.0, exposures, counts)
    ws = _Workspace(data)
    for method, i, j in calls:
        if method.startswith("ray_") and not ws.equal_exposures:
            continue
        got = getattr(ws, method)(alphas[i], betas[j])
        assert got == getattr(_Workspace(data), method)(alphas[i], betas[j])


def test_near_ridge_replication_converges():
    # table 3, first row, replication 252: the likelihood is nearly flat
    # along one direction and the Hessian nearly singular
    config = reproduction_table("3").rows[0][1]
    assert config.seed == 97
    _, data = generate_trial(config, replication_rng(config.seed, 252))
    fit = fit_mle(data)
    assert fit.converged
    assert _score(data, fit.alpha_hat, fit.beta_hat) <= 1e-8


def _drawn_trial(seed, centres, equal):
    """A trial from the model near the paper's design: counts of a few to
    a few dozen per centre, shape between 1 and 4."""
    rng = np.random.default_rng(seed)
    exposures = np.full(centres, 10.0) if equal else rng.uniform(0.5, 10.0, centres)
    shape = rng.uniform(1.0, 4.0)
    mean_rate = rng.uniform(0.3, 3.0)
    rates = rng.gamma(shape, mean_rate / shape, centres)
    return exposures, rng.poisson(rates * exposures)


def _fit_or_none(census, exposures, counts):
    try:
        return fit_mle(_trial(census, exposures, counts))
    except DegenerateLikelihood:
        return None


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("equal", [True, False])
@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), centres=st.integers(10, 150),
       scale=st.floats(1e-3, 1e3))
def test_rescaling_time_rescales_beta(equal, seed, centres, scale):
    exposures, counts = _drawn_trial(seed, centres, equal)
    base = _fit_or_none(10.0, exposures, counts)
    scaled = _fit_or_none(10.0 * scale, exposures * scale, counts)
    assert (base is None) == (scaled is None)
    assume(base is not None)
    assert base.equal_exposures is scaled.equal_exposures is equal
    assert abs(scaled.alpha_hat - base.alpha_hat) <= 1e-8 * base.alpha_hat
    assert abs(scaled.beta_hat - scale * base.beta_hat) <= 1e-8 * scale * base.beta_hat


@pytest.mark.parametrize("equal", [True, False])
@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), centres=st.integers(10, 150),
       order_seed=st.integers(0, 2**32 - 1))
def test_permuting_centres_leaves_the_fit_unchanged(equal, seed, centres, order_seed):
    exposures, counts = _drawn_trial(seed, centres, equal)
    order = np.random.default_rng(order_seed).permutation(centres)
    base = _fit_or_none(10.0, exposures, counts)
    permuted = _fit_or_none(10.0, exposures[order], counts[order])
    assert (base is None) == (permuted is None)
    assume(base is not None)
    assert abs(permuted.alpha_hat - base.alpha_hat) <= 1e-8 * base.alpha_hat
    assert abs(permuted.beta_hat - base.beta_hat) <= 1e-8 * base.beta_hat


@pytest.mark.parametrize("equal", [True, False])
@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), centres=st.integers(2, 150),
       closed=st.integers(1, 20), place_seed=st.integers(0, 2**32 - 1))
def test_closed_centres_leave_the_fit_bit_identical(equal, seed, centres, closed,
                                                     place_seed):
    exposures, counts = _drawn_trial(seed, centres, equal)
    # closed centres slotted in anywhere, open centres kept in order
    slots = np.sort(np.random.default_rng(place_seed).integers(0, centres + 1, closed))
    padded_exposures = np.insert(exposures, slots, 0.0)
    padded_counts = np.insert(counts, slots, 0)

    def outcome(e, n):
        try:
            return fit_mle(_trial(10.0, e, n))
        except (DegenerateLikelihood, InsufficientData) as exc:
            return type(exc), getattr(exc, "fit", None)

    assert outcome(padded_exposures, padded_counts) == outcome(exposures, counts)


def _bad_trials():
    good_exposures, good_counts = [4.0, 2.0, 0.0], [3, 1, 0]
    for name, value in (("census", 0.0), ("census", -1.0), ("census", math.nan),
                        ("census", math.inf)):
        yield name, value, good_exposures, good_counts
    for bad in (-1.0, math.nan, math.inf, -math.inf, 4.5):
        yield "exposure", bad, [4.0, bad, 0.0], good_counts
    for bad in (-1, 1.5, math.nan, math.inf, "2"):
        yield "count", bad, good_exposures, [3, bad, 0]
    yield "count at zero exposure", None, good_exposures, [3, 1, 2]
    yield "lengths", None, good_exposures, [3, 1]
    yield "lengths", None, [4.0, 2.0], good_counts
    yield "no centres", None, [], []
    yield "2-d", None, [good_exposures], [good_counts]


@pytest.mark.parametrize("what, value, exposures, counts", list(_bad_trials()))
def test_trial_data_rejects_bad_input(what, value, exposures, counts):
    census = value if what == "census" else 4.0
    with pytest.raises(ValueError):
        TrialData.from_arrays(census, exposures, counts)


@pytest.mark.parametrize("counts", [[2**62, 2**62], [2**63 - 1, 1]])
def test_trial_data_rejects_counts_whose_sum_passes_int64(counts):
    # the int64 sum of either pair wraps to -2^63
    with pytest.raises(ValueError, match=f"sum to {2**63}"):
        TrialData(1.0, [1.0, 0.5], counts)
    assert TrialData(1.0, [1.0, 0.5], [2**62, 2**62 - 1]).total_count == 2**63 - 1


@pytest.mark.parametrize("count", [1e20, 2.0**63, -1e20])
def test_trial_data_rejects_float_counts_past_int64_before_the_cast(count):
    # the cast once wrapped such a count to -2^63, with numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="'centre_1'.*" + re.escape(f"got {count!r}")):
            TrialData(1.0, [1.0], [count])
        assert TrialData(1.0, [1.0], [2.0**62]).total_count == 2**62


@pytest.mark.parametrize("count", [2**63, 2**64 - 1])
def test_trial_data_rejects_unsigned_counts_past_int64_before_the_cast(count):
    # the cast once wrapped 2^63 to -2^63 and refused it as negative
    with pytest.raises(ValueError, match=f"'centre_1': count must lie in the int64 "
                       f"range, got {count}$"):
        TrialData(1.0, [1.0], np.array([count], dtype=np.uint64))
    assert TrialData(1.0, [1.0], np.array([2**62], dtype=np.uint64)).total_count == 2**62


def test_trial_data_rejects_ids_of_the_wrong_length():
    with pytest.raises(ValueError):
        TrialData.from_arrays(4.0, [4.0, 2.0], [3, 1], ["a"])


@_PROPERTY
@given(exposures=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
       data=st.data())
def test_trial_data_snapshot_ignores_later_changes_to_its_inputs(exposures, data):
    counts = [0 if t == 0 else data.draw(st.integers(0, 50)) for t in exposures]
    exposure_array = np.array(exposures)
    count_array = np.array(counts)
    trial = TrialData.from_arrays(10.0, exposure_array, count_array)
    exposure_array[:] = 99.0
    count_array[:] = -5
    assert trial.exposures.tolist() == exposures
    assert trial.counts.tolist() == counts
    assert trial.exposures.dtype == np.float64 and trial.counts.dtype == np.int64
    with pytest.raises(ValueError):
        trial.exposures[0] = 1.0
    with pytest.raises(ValueError):
        trial.counts[0] = 1


def test_workspace_tally_matches_unique_and_bincount():
    # reference: distinct values from np.unique, rise weights from a
    # bincount clipped at the exact-sum limit
    limit = _EXACT_RISE_TERMS
    rng = np.random.default_rng(37)
    for scale, edge in ((0.5, []), (3.0, []), (40.0, [limit - 1, limit]),
                        (1e5, [limit - 1, limit, limit + 1])):
        counts = rng.poisson(rng.gamma(1.0, scale, 60))
        counts[:len(edge)] = edge
        exposures = rng.uniform(0.5, 10.0, 60)
        exposures[counts == 0] = 0.0
        ws = _Workspace(_trial(10.0, exposures, counts))
        opened = counts[exposures > 0]
        values, mult = np.unique(opened, return_counts=True)
        tally = np.bincount(np.minimum(opened, limit))
        weights = (opened.size - np.cumsum(tally[:-1])).astype(float)
        for got, want in ((ws.count_values, values.astype(float)),
                          (ws.count_mult, mult.astype(float)),
                          (ws.rise_weights, weights),
                          (ws.rise_offsets, np.arange(weights.size, dtype=float))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ws.sum_count_sq == sum(int(n) ** 2 for n in opened)


def test_equal_exposure_tail_statistic_is_exact():
    # C sum(n^2) - n^2 - C n = 3 with counts near 1e10, so K = 3 / (2 C);
    # the three float terms are near 1e20 and their rounding near 1e4
    spread = 200001
    total = (spread * spread - 3) // 2
    counts = [(total + spread) // 2, (total - spread) // 2]
    ws = _Workspace(_trial(10.0, [5.0, 5.0], counts))
    assert ws.tail_statistic() == 0.75


@pytest.mark.parametrize("exposures, counts", [
    # K = 0 exactly; in floats it reads 2e-16, 4e-15 and 1.4e-14
    ([5.0, 5.0], [2, 0]),
    ([5.0, 5.0], [6, 2]),
    ([2.5, 10.0, 10.0], [5, 5, 8]),
])
def test_exactly_zero_tail_statistic_is_degenerate(exposures, counts):
    with pytest.raises(DegenerateLikelihood):
        fit_mle(_trial(10.0, exposures, counts))


@pytest.mark.parametrize("exposures, counts", [
    ([5.0, 5.0], [9, 1]),
    ([2.5, 10.0, 10.0], [9, 1, 8]),
])
def test_over_dispersed_pair_stays_interior(exposures, counts):
    fit = fit_mle(_trial(10.0, exposures, counts))
    assert fit.converged
    assert not fit.degenerate
    assert fit.alpha_hat < 1e3
