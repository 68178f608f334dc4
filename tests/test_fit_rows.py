"""``fit_rows``: a block of trials fitted at once, bit for bit ``fit_mle``."""

import collections
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from recruitcast import (
    TrialData,
    fit_mle,
    generate_trial,
    replication_rngs,
)
from recruitcast import model
from recruitcast.model import _EXACT_RISE_TERMS, _Rows, _Workspace, fit_rows
from recruitcast.reproduce import TABLE_IDS, reproduction_table


@pytest.fixture
def engine(monkeypatch):
    """``fit_rows`` with every group, however small, in one batched pass."""
    monkeypatch.setattr(model, "_MIN_GROUP_ROWS", 1)


def _single(data: TrialData) -> tuple:
    """Every field of ``fit_mle``'s fit, of any kind, as ``_row`` reads
    an entry of ``fit_rows``: floats by ``float.hex``, so NaN as "nan"."""
    fit = fit_mle(data)
    return (fit.kind, fit.alpha_hat.hex(), fit.beta_hat.hex(), fit.log_lik.hex(), fit.iterations,
            fit.equal_exposures)


def _row(fits, i: int) -> tuple:
    return (str(fits.kind[i]), float(fits.alpha_hat[i]).hex(), float(fits.beta_hat[i]).hex(),
            float(fits.log_lik[i]).hex(), int(fits.iterations[i]), bool(fits.equal_exposures[i]))


def _mixed_block() -> TrialData:
    """Table 3's first row, replications 250-273, the near-ridge
    replication 252 among them, with rows rewritten to cover every case:
    ragged rise lengths, counts past the exact-sum limit, different
    numbers of closed centres, equal exposures, no recruits, no open
    centre and counts that show no over-dispersion."""
    config = reproduction_table("3").rows[0][1]
    _, drawn = generate_trial(config, replication_rngs(config.seed, 250, 274))
    exposures, counts = np.array(drawn.exposures), np.array(drawn.counts)
    census, centres = drawn.census_time, drawn.num_centres
    counts[3] *= 7  # a longer rise
    counts[4, 0] = _EXACT_RISE_TERMS + 4464
    counts[5, :3] = (200_000, 200_000, _EXACT_RISE_TERMS + 1)
    for row, closed in ((6, 1), (7, 3), (8, 3), (9, centres // 2)):
        exposures[row, :closed] = counts[row, :closed] = 0
    counts[9, -1] = _EXACT_RISE_TERMS + 7
    exposures[10] = exposures[11] = census
    exposures[11, :5] = counts[11, :5] = 0
    counts[12] = 0
    exposures[13] = counts[13] = 0
    # counts proportional to exposure: K <= 0, a monotone likelihood
    exposures[14] = np.linspace(0.1, 1.0, centres) * census
    counts[14] = np.arange(1, centres + 1)
    return TrialData(census, exposures, counts)


# two open centres counting one recruit fewer each than the K = 0 pair
# 10^12 +- 10^6: C sum(n^2) - n^2 - C n = 4, so K > 0 and the profile has
# a maximum, but near alpha = 10^24, so it still rises at the log-alpha cap
_CAPPED_PAIR = (10**12 + 10**6 - 1, 10**12 - 10**6 - 1)


def _ray_block() -> TrialData:
    """Table 2's first row, replications 64-127, the near-ridge
    replication 81 (fitted alpha about 612) among them, and nine rows
    rewritten to cover every case of the ray: a count past the exact-sum
    head, counts showing no over-dispersion (K < 0, and K = 0 on two
    open centres counting about 10^12), counts near 10^12 on 12 open
    centres, which stop unconverged near their profile's maximum, closed
    centres, no recruits, and ``_CAPPED_PAIR``, which climbs to the
    log-alpha cap."""
    config = reproduction_table("2").rows[0][1]
    _, drawn = generate_trial(config, replication_rngs(config.seed, 64, 128))
    exposures, counts = np.array(drawn.exposures), np.array(drawn.counts)
    extra_exposures, extra = exposures[:9].copy(), counts[:9].copy()
    extra[0, 0] = _EXACT_RISE_TERMS + 4464
    extra[1] = 2
    for row, seed in ((2, 6), (3, 0)):
        extra_exposures[row, 12:] = extra[row, 12:] = 0
        extra[row, :12] = np.random.default_rng(seed).poisson(1e12, 12)
    for row in (4, 5):
        extra_exposures[row, :30] = extra[row, :30] = 0
    extra[6] = 0
    # K = 0 exactly, which C sum(n^2) ~ 4e24, past int64 and float
    # resolution, would hide
    extra_exposures[7, 2:] = extra[7] = 0
    extra[7, :2] = (10**12 + 10**6, 10**12 - 10**6)
    extra_exposures[8, 2:] = extra[8] = 0
    extra[8, :2] = _CAPPED_PAIR
    return TrialData(drawn.census_time, np.vstack([exposures, extra_exposures]),
                     np.vstack([counts, extra]))


def test_every_row_of_a_mixed_block_fits_as_alone(engine):
    data = _mixed_block()
    fits = fit_rows(data)
    want = [_single(data[row]) for row in range(len(data.exposures))]
    assert [_row(fits, row) for row in range(len(want))] == want
    assert {w[0] for w in want} >= {"ok", "boundary", "insufficient"}
    assert fits.equal_exposures[[10, 11]].all() and want[2][0] == "ok"
    assert sum(not w[-1] for w in want if w[0] != "insufficient") >= 15


def test_every_row_of_a_ray_block_fits_as_alone(engine):
    data = _ray_block()
    fits = fit_rows(data)
    want = [_single(data[row]) for row in range(len(data.exposures))]
    assert [_row(fits, row) for row in range(len(want))] == want
    assert fits.equal_exposures.all()
    kinds = collections.Counter(w[0] for w in want)
    assert set(kinds) == {"ok", "boundary", "nonconverged", "insufficient"}
    assert kinds["ok"] >= 60
    # the boundary before Newton (K <= 0) and after it (the log-alpha cap)
    assert {w[4] > 0 for w in want if w[0] == "boundary"} == {False, True}
    assert max(float.fromhex(w[1]) for w in want if w[0] == "ok") > 500.0


def _profile_slope(data: TrialData, log_alpha: float) -> float:
    """The slope in log alpha of a trial's likelihood along its ray, at
    50 digits."""
    opened = data.exposures > 0
    exposures, counts = data.exposures[opened], data.counts[opened]
    ratio = counts.sum() / exposures.sum()
    return float(oracles.profile_slope_curvature(math.exp(log_alpha), ratio,
                                                 exposures.tolist(), counts.tolist())[0])


def test_the_ray_blocks_huge_counts_stop_where_their_profiles_say():
    # the 12 centres counting near 10^12 peak at log alpha 29.56, inside
    # the 29.9 rule, and stop unconverged next to that peak; the capped
    # pair's profile still rises at the log-alpha cap, and reaches it
    data = _ray_block()
    dozen, capped = data[66], data[72]
    assert _profile_slope(dozen, 29.55) > 0 > _profile_slope(dozen, 29.57)
    fit = fit_mle(dozen)
    assert not fit.converged and abs(math.log(fit.alpha_hat) - 29.56) < 0.01
    assert _profile_slope(capped, 30.0) > 0
    fit = fit_mle(capped)
    assert fit.kind == "boundary" and fit.iterations > 0


# 11 centres of exposure 4 counting near 10^5 with little over-dispersion,
# whose profile peaks near alpha = 2e6: alpha scales the rounding of the
# digamma sum that the ray's slope reads up to near the 1e-10 stop
_NEAR_1E5 = (100637, 100093, 99653, 100319, 99525, 99653, 100237, 100113, 99765, 100165, 100179)


def test_a_ray_counting_near_1e5_certifies_alone_and_in_a_block(engine):
    data = TrialData(10.0, [4.0] * len(_NEAR_1E5), _NEAR_1E5)
    fit = fit_mle(data)
    assert fit.converged and fit.equal_exposures and fit.iterations <= 10
    block = TrialData(10.0, np.tile(data.exposures, (10, 1)), np.tile(data.counts, (10, 1)))
    fits = fit_rows(block)
    assert [_row(fits, row) for row in range(10)] == [_single(data)] * 10


def _mixed_rays_and_planes() -> TrialData:
    """The ray block's rows above the mixed block's, two blocks of
    table 2 and table 3 trials that share a census and 150 centres."""
    rays, planes = _ray_block(), _mixed_block()
    assert rays.census_time == planes.census_time
    return TrialData(rays.census_time, np.vstack([rays.exposures, planes.exposures]),
                     np.vstack([rays.counts, planes.counts]))


def test_permuting_a_block_permutes_its_fits(engine):
    data = _mixed_rays_and_planes()
    fits = fit_rows(data)
    assert fits.equal_exposures.sum() > 64 and (~fits.equal_exposures).sum() > 15
    order = np.random.default_rng(5).permutation(len(data.exposures))
    shuffled = fit_rows(TrialData(data.census_time, data.exposures[order], data.counts[order]))
    for name in ("kind", "alpha_hat", "beta_hat", "log_lik", "iterations", "equal_exposures"):
        got, want = getattr(shuffled, name), getattr(fits, name)[order]
        assert got.tobytes() == want.tobytes(), name


def test_fit_rows_takes_a_batch():
    with pytest.raises(ValueError, match="batch"):
        fit_rows(TrialData(10.0, [4.0, 6.0], [3, 1]))


def _staggered_block(rows=24, seed=3, equal=False):
    """Trials of 60 centres with staggered exposures, or with one shared
    exposure if ``equal``."""
    rng = np.random.default_rng(seed)
    exposures = rng.uniform(0.5, 10.0, (rows, 60))
    if equal:
        exposures[:] = 10.0
    rates = rng.gamma(rng.uniform(1.0, 4.0, (rows, 1)), 0.5, (rows, 60))
    return TrialData(10.0, exposures, rng.poisson(rates * exposures))


def _row_of(data: TrialData):
    """The batch row of each row of a group's workspace, found by its
    counts, for a batch whose centres are all open."""
    index = {counts.tobytes(): row for row, counts in enumerate(data.counts.astype(float))}
    return lambda ws: [index[counts.tobytes()] for counts in ws.counts]


@pytest.mark.parametrize("equal", [False, True], ids=["plane", "ray"])
def test_line_searches_evaluate_each_row_once_per_point(engine, monkeypatch, equal):
    # a row's objective at the point it accepted carries into its next
    # line search: the likelihood in the plane, the profile on the ray
    calls = []
    data = _staggered_block(equal=equal)
    row_of = _row_of(data)
    name = "profile_loglik" if equal else "loglik"
    objective = getattr(_Rows, name)

    def recorded(self, *point):
        calls.append(list(zip(row_of(self), *(x.tolist() for x in point))))
        return objective(self, *point)

    monkeypatch.setattr(_Rows, name, recorded)
    fits = fit_rows(data)
    assert (fits.kind == "ok").sum() >= 20 and fits.equal_exposures.all() == equal
    if not equal:
        calls.pop()  # the log-likelihood at each row's optimum
    points = [point for call in calls for point in call]
    assert len(points) == len(set(points))
    assert len(points) >= 40


@pytest.mark.parametrize("equal", [False, True], ids=["plane", "ray"])
def test_newton_reads_the_curvature_only_for_rows_that_step(engine, monkeypatch, equal):
    # in the plane the step reads the Hessian terms, on the ray the
    # trigamma sum
    reads = collections.Counter()
    data = _staggered_block(equal=equal)
    row_of = _row_of(data)
    hessian, count_sum = _Rows.hessian, _Rows.count_sum

    def counted_hessian(self, alpha, beta):
        reads.update(row_of(self))
        return hessian(self, alpha, beta)

    def counted_sum(self, order, alpha):
        if order == 2:
            reads.update(row_of(self))
        return count_sum(self, order, alpha)

    if equal:
        monkeypatch.setattr(_Rows, "count_sum", counted_sum)
    else:
        monkeypatch.setattr(_Rows, "hessian", counted_hessian)
    fits = fit_rows(data)
    assert fits.iterations.min() > 0 and fits.equal_exposures.all() == equal
    assert [reads[row] for row in range(len(data.counts))] == fits.iterations.tolist()


@pytest.mark.parametrize("equal", [False, True], ids=["plane", "ray"])
def test_a_workspace_takes_each_beta_terms_once(engine, monkeypatch, equal):
    # the score and the Hessian at one point share b + t_c and
    # sum log1p(t_c / b), and so do the score and the likelihood that
    # certify a fit
    seen, workspaces = collections.Counter(), []
    log1p_sum = model._log1p_sum

    def counted(exposures, b, *out):
        ws = sys._getframe(1).f_locals["self"]
        workspaces.append(ws)  # held, so no two workspaces share an id
        seen.update((id(ws), row, beta) for row, beta in enumerate(np.ravel(b).tolist()))
        return log1p_sum(exposures, b, *out)

    monkeypatch.setattr(model, "_log1p_sum", counted)
    fits = fit_rows(_staggered_block(equal=equal))
    assert (fits.kind == "ok").sum() >= 20 and fits.equal_exposures.all() == equal
    assert len(seen) >= 24 and max(seen.values()) == 1


@pytest.mark.parametrize("equal", [False, True], ids=["plane", "ray"])
def test_a_group_with_no_row_to_step_takes_no_ascent(engine, monkeypatch, equal):
    # zero counts in the plane (insufficient) and counts spread evenly on
    # the ray (K < 0, a boundary before Newton): no row steps, and the
    # pass calls no ascent
    passes, calls = [], []
    newton = model._newton

    def counted_pass(*args):
        *head, ascent, objective = args

        def counted(*point):
            calls.append(point)
            return ascent(*point)
        passes.append(head)
        return newton(*head, counted, objective)

    monkeypatch.setattr(model, "_newton", counted_pass)
    rows = 12 if equal else 16
    exposures = np.full((rows, 20), 10.0) if equal else _staggered_block(rows).exposures
    counts = np.full((rows, 20), 3) if equal else np.zeros((rows, 60), dtype=int)
    data = TrialData(10.0, exposures, counts)
    fits = fit_rows(data)
    assert len(passes) == 1 and not calls
    want = [_single(data[row]) for row in range(rows)]
    assert [_row(fits, row) for row in range(rows)] == want
    assert {w[0] for w in want} == {"boundary" if equal else "insufficient"}


def _bits(values) -> list:
    return [np.asarray(x).tobytes() for x in values]


def test_a_group_reads_its_own_terms_after_a_group_taken_from_it_writes_the_scratch():
    # a group and the groups taken from it share one pass's scratch: a
    # line search's group writes b + t_c at its own beta into the slot
    # that holds the group's, and the group then reads its terms again
    data = _staggered_block(rows=12)
    rows = np.arange(12)
    alpha, beta = np.linspace(0.5, 4.0, 12), np.linspace(0.2, 3.0, 12)

    def at_point(ws):
        return _bits([*ws.score(alpha, beta), *ws.hessian(alpha, beta), ws.loglik(alpha, beta)])

    want = at_point(_Rows(data.exposures, data.counts, rows, False))
    group = _Rows(data.exposures, data.counts, rows, False)
    assert at_point(group) == want
    group.score(alpha, beta)  # b + t_c at beta, cached by the group
    taken = group.take(np.array([1, 4, 5, 9]))
    taken.loglik(alpha[[1, 4, 5, 9]] * 2.0, beta[[1, 4, 5, 9]] * 3.0)
    taken.score(alpha[[1, 4, 5, 9]], beta[[1, 4, 5, 9]] + 1.0)
    assert at_point(group) == want
    # and in the other order: the likelihood first, then the score
    group.loglik(alpha, beta)
    taken.hessian(alpha[[1, 4, 5, 9]], beta[[1, 4, 5, 9]] * 0.5)
    assert _bits([group.loglik(alpha, beta), *group.score(alpha, beta)]) == [want[5], *want[:2]]


def test_back_to_back_batches_fit_as_their_rows_fit_alone(engine):
    # the scratch dies with its pass, so a batch fitted after another of
    # the same centres, whose pass asks for the same memory, fits as its
    # rows fit alone
    first, second = _staggered_block(rows=24, seed=3), _staggered_block(rows=13, seed=8)
    for data in (first, second, first):
        fits = fit_rows(data)
        assert [_row(fits, row) for row in range(len(data.counts))] == [
            _single(data[row]) for row in range(len(data.counts))]


def test_a_row_block_squares_beta_as_a_single_trial_does():
    # a NumPy float's ** 2 goes through pow, which on some inputs differs
    # from the array square in the last bit; both paths write beta * beta
    rng = np.random.default_rng(11)
    betas = np.exp(rng.uniform(-30.0, 30.0, 200_000))
    odd = [b for b in betas[:20_000] if np.float64(b) ** 2 != b * b]
    assert odd
    data = TrialData(10.0, [2.0, 5.0, 9.5], [3, 0, 11])
    single = _Workspace(data)
    block = _Rows(np.array([[2.0, 5.0, 9.5]]), np.array([[3, 0, 11]]), np.arange(1), False)
    for beta in odd[:50]:
        alpha = np.float64(1.7)
        got = block.hessian(np.array([alpha]), np.array([beta]))
        want = single.hessian(alpha, np.float64(beta))
        assert [float(g[0]) for g in got] == [float(w) for w in want]


def _unit_probes():
    """The staggered probe (0, 5, 2) scaled far past 1e+-150, where its
    squared exposures leave the float range."""
    for scale in (1e-200, 1e160):
        yield scale, TrialData(scale, np.array([1.0, 0.5, 0.25]) * scale, [0, 5, 2])


def test_the_fitter_warns_of_nothing_past_the_float_range(engine):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale, data in _unit_probes():
            fit = fit_mle(data)
            # stopped short, as documented, at once
            assert not fit.converged and fit.iterations == 0
            block = TrialData(scale, np.vstack([data.exposures, data.exposures[::-1],
                                                np.full(3, scale)]),
                              np.array([data.counts, [4, 1, 9], [1, 4, 9]]))
            fits = fit_rows(block)
            assert _row(fits, 0) == _single(data)
            assert [_row(fits, row) for row in (1, 2)] == [_single(block[1]),
                                                           _single(block[2])]


def test_a_row_whose_line_search_fails_stops_while_the_others_step(engine, monkeypatch):
    # the probe at 1e160 fails all ten halvings of its first line search,
    # in a pass whose other rows go on stepping
    scale, probe = list(_unit_probes())[1]
    rng = np.random.default_rng(3)
    exposures = np.vstack([probe.exposures, rng.uniform(1.0, 10.0, (9, 3))])
    counts = np.vstack([probe.counts, rng.poisson(rng.gamma(2.0, 0.5, (9, 3)) * exposures[1:])])
    data = TrialData(scale, exposures, counts)
    reads, row_of, loglik = collections.Counter(), _row_of(data), _Rows.loglik

    def counted(self, alpha, beta):
        reads.update(row_of(self))
        return loglik(self, alpha, beta)

    monkeypatch.setattr(_Rows, "loglik", counted)
    fits = fit_rows(data)
    # the probe reads its likelihood at its start, at its ten halvings and
    # at its certificate
    assert (str(fits.kind[0]), int(fits.iterations[0]), reads[0]) == ("nonconverged", 0, 12)
    assert sorted(fits.iterations[fits.iterations > 0].tolist()) == [4, 4, 4, 5, 5, 6]
    assert [_row(fits, row) for row in range(10)] == [_single(data[row]) for row in range(10)]


def test_a_block_of_huge_counts_sums_within_the_element_budget():
    # 64 rows, each with one count past the exact-sum head: every row
    # sums 2^8 rises, and one term is the block's rise weights, 64 rows
    # of 2^8 floats.  A block keeps that term and less than another of
    # its own arrays, and building or reading the weights holds at most
    # seven temporaries of one term: the tally, its running sum, the
    # weights cast from it, the rises, their function values, the
    # products and the sum's buffer.
    rng = np.random.default_rng(2)
    exposures = rng.uniform(1.0, 10.0, (64, 5))
    counts = rng.poisson(3.0 * exposures)
    counts[:, 0] = _EXACT_RISE_TERMS + rng.integers(1, 5000, 64)
    data = TrialData(10.0, exposures, counts)
    term = 8 * len(counts) * _EXACT_RISE_TERMS
    tracemalloc.start()
    try:
        fits = fit_rows(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 + 7) * term
    assert (fits.kind != "insufficient").all()
    assert [_row(fits, row) for row in range(0, 64, 9)] == [_single(data[row])
                                                             for row in range(0, 64, 9)]


def test_a_count_sum_takes_its_rise_terms_in_one_call(monkeypatch):
    # a pass keeps its rows' rise weights in one array: each count sum
    # takes their rise terms in one call, and sums the rows of each
    # summation class of rise counts k, [8m, 8m + 7] while k | 7 < 128
    # and k alone past it, in one reduction
    config = reproduction_table("3").rows[-1][1]
    _, data = generate_trial(config, replication_rngs(config.seed, 0, 64))
    terms, reductions, seen = [], [], []
    rise_terms, row_sum, count_sum = model._rise_terms, model._row_sum, _Rows.count_sum

    def counted_terms(*args):
        terms.append(args)
        return rise_terms(*args)

    def counted_reductions(*args, **kwargs):
        reductions.append(args)
        return row_sum(*args, **kwargs)

    def counted_sum(self, order, alpha):
        terms.clear()
        reductions.clear()
        with mock.patch.object(model, "_row_sum", counted_reductions):
            sums = count_sum(self, order, alpha)
        rises = set(self.rises.tolist())
        classes = {k // 8 if k | 7 < 128 else k for k in rises}
        seen.append((len(terms), len(reductions), len(classes), len(rises),
                     self.beyond_rows.size))
        return sums

    monkeypatch.setattr(model, "_rise_terms", counted_terms)
    monkeypatch.setattr(_Rows, "count_sum", counted_sum)
    fits = fit_rows(data)
    assert (fits.kind == "ok").sum() > 50 and not fits.equal_exposures.any()
    assert len(seen) > 15 and {calls for calls, *_ in seen} == {1}
    assert {beyond for *_, beyond in seen} == {0}
    assert all(calls == classes for _, calls, classes, _, _ in seen)
    assert max(rises for *_, rises, _ in seen) >= 5
    assert max(classes for _, _, classes, _, _ in seen) >= 3


# Each pattern of a count sum's terms and of the zeros after them: order
# 0's w_j log(a + j), of either sign, order 1's positive w_j / (a + j),
# both padded with 0.0, and order 2's negative -w_j / (a + j)^2, padded
# with -0.0 -- and the other sign of zero after each, for good measure.
@pytest.mark.parametrize("signs, pad", [("+", 0.0), ("-", -0.0), ("+-", 0.0), ("+", -0.0),
                                        ("-", 0.0)],
                         ids=["positive", "negative", "mixed", "positive-neg-zero",
                              "negative-pos-zero"])
def test_a_row_summed_at_its_class_width_keeps_the_bits_of_its_own_terms(signs, pad):
    # NumPy's pairwise sum gives a row of k terms padded with zeros to
    # the width _Rows sums it at the bits of its k terms alone, for every
    # k a pass holds and every widest row W of its group; a NumPy whose
    # pairwise sum takes other blocks fails here
    rng = np.random.default_rng(23)
    rows = 8
    pairs = {(k, width) for widest in range(1, _EXACT_RISE_TERMS + 1)
             for k, width in zip(range(1, widest + 1),
                                 model._sum_widths(np.arange(1, widest + 1)).tolist())}
    assert {k for k, _ in pairs} == set(range(1, _EXACT_RISE_TERMS + 1))
    for k, width in sorted(pairs):
        assert k <= width <= max(k, 127)
        values = rng.uniform(0.5, 2.0, (rows, width)) * 10.0 ** rng.integers(-6, 7, (rows, 1))
        if signs == "-":
            values = -values
        elif signs == "+-":
            values[:, rng.random(width) < 0.5] *= -1.0
        values[:, k:] = pad
        alone = np.array([np.add.reduce(row[:k].copy()) for row in values])
        assert np.add.reduce(values, axis=-1).tobytes() == alone.tobytes(), (k, width)


def _wide_block(equal: bool) -> TrialData:
    """300 trials of 5 centres whose largest counts run from 1 up to and
    past the exact-sum head: padded to 2^8 rises, more than 2^16."""
    rng = np.random.default_rng(17)
    rows = 300
    exposures = np.full((rows, 5), 10.0) if equal else rng.uniform(1.0, 10.0, (rows, 5))
    counts = rng.poisson(rng.gamma(2.0, 0.5, (rows, 5)) * exposures)
    counts[:, 0] = np.arange(1, rows + 1)
    return TrialData(10.0, exposures, counts)


@pytest.mark.parametrize("equal", [False, True], ids=["plane", "ray"])
def test_a_wide_block_fits_in_passes_as_its_rows_fit_alone(engine, monkeypatch, equal):
    data = _wide_block(equal)
    rows = model.block_rows(5)
    # one array of the whole block's rise weights would pass the budget
    assert len(data.counts) * _EXACT_RISE_TERMS > model._BLOCK_ELEMENTS
    passes = []
    init = _Rows.__init__

    def recorded(self, *args):
        init(self, *args)
        passes.append((len(self.total_count), self.rise_weights.size))

    monkeypatch.setattr(_Rows, "__init__", recorded)
    fits = fit_rows(data)
    # the fewest near-equal passes of at most block_rows rows, none of
    # whose rise weights pass the element budget
    sizes = [size for size, _ in passes]
    assert sum(sizes) == len(data.counts) and max(sizes) <= rows
    assert len(sizes) == math.ceil(len(data.counts) / rows)
    assert max(sizes) - min(sizes) <= 1
    assert max(weights for _, weights in passes) <= model._BLOCK_ELEMENTS
    want = [_single(data[row]) for row in range(len(data.counts))]
    assert [_row(fits, row) for row in range(len(want))] == want
    assert collections.Counter(w[0] for w in want)["ok"] > 200


def test_a_large_batch_fits_within_the_memory_of_one_pass():
    # 2,048 table-3 trials of 150 centres make one group, fitted in passes
    # of at most block_rows(150) = 256 rows, each of whose arrays holds at
    # most 2^16 values, 512 KB as floats.  A pass holds its exposures,
    # counts and rise weights, copied again for its rows still stepping
    # and for the rows of a line search, and the likelihood's temporaries
    # over them.  The bound allows 16 such arrays, 8 MB, where the
    # group's counts as floats alone take 2.5 MB and one pass over every
    # row would hold each of its arrays eight times over.
    config = reproduction_table("3").rows[0][1]
    _, data = generate_trial(config, replication_rngs(config.seed, 0, 2048))
    assert model.block_rows(config.centres) == 256
    bound = 16 * model._BLOCK_ELEMENTS * 8
    tracemalloc.start()
    try:
        fits = fit_rows(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert (fits.kind == "ok").sum() > 1500 and not fits.equal_exposures.any()
    assert [_row(fits, row) for row in range(0, 2048, 97)] == [_single(data[row])
                                                                for row in range(0, 2048, 97)]


def test_the_plane_pass_takes_no_more_log1p_terms_than_the_loop(monkeypatch):
    # a group's narrowings share its beta store, compared by value, so in
    # the pass as in fit_mle's workspace a row takes sum_c log1p(t_c / b)
    # once for each new beta: its next ascent, a line search's first
    # point and the certificate read the terms of the row's last beta
    centre_rows = collections.Counter()
    path = ["pass"]
    log1p_sum = model._log1p_sum

    def counted(exposures, b, *out):
        centre_rows[path[0]] += exposures.size // exposures.shape[-1]
        return log1p_sum(exposures, b, *out)

    monkeypatch.setattr(model, "_log1p_sum", counted)
    fitted = 0
    for _, config in reproduction_table("3").rows:
        for start in range(0, 192, 64):
            _, data = generate_trial(config, replication_rngs(config.seed, start, start + 64))
            path[0] = "pass"
            fits = fit_rows(data)
            assert not fits.equal_exposures.any()
            path[0] = "loop"
            for row in range(len(data.counts)):
                _single(data[row])
            fitted += len(data.counts)
    assert centre_rows["loop"] > 4 * fitted
    assert centre_rows["pass"] <= centre_rows["loop"]


@pytest.mark.parametrize("table_id", ["2", "3"], ids=["ray", "plane"])
def test_a_group_outside_the_measured_range_is_fitted_one_trial_at_a_time(monkeypatch,
                                                                          table_id):
    calls = []
    fit_mle_alone = model.fit_mle

    def counted(trial):
        calls.append(trial)
        return fit_mle_alone(trial)

    monkeypatch.setattr(model, "fit_mle", counted)
    least, most = model._MIN_GROUP_ROWS, model._MAX_GROUP_CENTRES
    config = reproduction_table(table_id).rows[0][1]
    # (rows, centres): one row short of the pass, and one centre past it
    for rows, centres, singles in ((least - 1, 150, least - 1), (least, 150, 0),
                                   (least, most + 1, least), (least, most, 0)):
        cell = replace(config, centres=centres)
        _, block = generate_trial(cell, replication_rngs(cell.seed, 0, rows))
        calls.clear()
        fits = fit_rows(block)
        assert len(calls) == singles
        assert [_row(fits, row) for row in range(rows)] == [_single(block[row])
                                                             for row in range(rows)]
        assert fits.equal_exposures.all() == (table_id == "2")


def test_every_table_row_fits_in_blocks_as_alone():
    # every published table's rows, 64 replications each, drawn and
    # fitted as one block, as the harness fits them
    counted = collections.Counter()
    for table_id in TABLE_IDS:
        for _, config in reproduction_table(table_id).rows:
            _, data = generate_trial(config, replication_rngs(config.seed, 0, 64))
            fits = fit_rows(data)
            want = [_single(data[row]) for row in range(64)]
            assert [_row(fits, row) for row in range(64)] == want, (table_id, config.seed)
            counted.update((w[0], w[-1]) for w in want if len(w) > 1)
    assert sum(counted.values()) == len(TABLE_IDS) * 7 * 64
    assert set(counted) == {("ok", True), ("ok", False), ("boundary", True),
                            ("boundary", False)}


@st.composite
def _engine_blocks(draw):
    """A block of 1-70 trials of up to 12 centres, each row with equal or
    unequal exposures and one of the block's one or two numbers of closed
    centres, its counts drawn from a gamma-Poisson law, all zero, or
    spread so that K is 0 exactly on its open centres; and up to two
    counts past the exact-sum head, by 1 to 10^9, log-uniformly."""
    centres = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 70))
    census = draw(st.sampled_from([1.0, 30.0, 200.0]))
    closings = draw(st.lists(st.integers(0, centres), min_size=1, max_size=2))
    shapes = draw(st.lists(st.tuples(st.booleans(), st.sampled_from(closings),
                                     st.sampled_from(["drawn", "zero", "k_zero"])),
                           min_size=rows, max_size=rows))
    huge = draw(st.lists(st.integers(0, rows - 1), max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exposures = np.empty((rows, centres))
    counts = np.zeros((rows, centres), dtype=np.int64)
    for row, (equal, closed, kind) in enumerate(shapes):
        opened = centres - closed
        if kind == "k_zero":
            # pairs d^2 + d, d^2 - d on an even number of equal exposures:
            # C sum(n^2) - n^2 - C n = 0
            equal, opened = True, opened - opened % 2
            d = rng.integers(1, 31)
            counts[row, :opened] = np.resize([d * d + d, d * d - d], opened)
        exposures[row] = census * (rng.uniform(0.05, 1.0) if equal
                                   else rng.uniform(0.05, 1.0, centres))
        if kind == "drawn":
            shape, level = rng.uniform(0.3, 5.0), rng.uniform(0.5, 60.0)
            rates = rng.gamma(shape, level / shape, centres)
            counts[row] = rng.poisson(rates * exposures[row] / census)
        exposures[row, opened:] = counts[row, opened:] = 0
        order = rng.permutation(centres)
        exposures[row], counts[row] = exposures[row, order], counts[row, order]
    for row in huge:
        open_centres = np.flatnonzero(exposures[row])
        if open_centres.size:
            past = int(10 ** rng.uniform(0, 9))
            counts[row, rng.choice(open_centres)] = _EXACT_RISE_TERMS + past
    return TrialData(census, exposures, counts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=_engine_blocks())
def test_any_block_fits_as_its_rows_fit_alone(data):
    # with every group in one pass, and with the row bound at its default
    want = [_single(data[row]) for row in range(len(data.exposures))]
    for least in (1, model._MIN_GROUP_ROWS):
        with mock.patch.object(model, "_MIN_GROUP_ROWS", least):
            fits = fit_rows(data)
        assert [_row(fits, row) for row in range(len(want))] == want
        insufficient = fits.kind == "insufficient"
        assert np.isnan(fits.alpha_hat[insufficient]).all()
        assert np.isnan(fits.beta_hat[insufficient]).all()
        assert np.isnan(fits.log_lik[insufficient]).all()
        assert not fits.iterations[insufficient].any()
