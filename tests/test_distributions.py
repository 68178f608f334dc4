"""Distribution kernels against closed forms and extended-precision oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
from recruitcast import distributions, predict, simulate
from recruitcast.reproduce import reproduction_table
from recruitcast.simulate import coverage_study
from recruitcast import (
    GammaParams,
    NegBinParams,
    Pearson6Params,
    gamma_cdf,
    gamma_quantile,
    nb_cdf,
    nb_quantile,
    pearson6_cdf,
    pearson6_quantile,
    poisson_cdf,
    poisson_quantile,
)


def test_nb_cdf_geometric_closed_form():
    geom = NegBinParams(size=1.0, prob=0.5)
    assert abs(nb_cdf(0, geom) - 0.5) < 1e-15
    assert abs(nb_cdf(5, geom) - 0.984375) < 1e-15


def test_nb_cdf_oracle_case():
    law = NegBinParams(size=2.5, prob=0.3)
    assert abs(nb_cdf(10, law) - 0.9999647348939174) < 1e-12
    law = NegBinParams(size=3.75, prob=0.55)
    for k in range(30):
        assert abs(nb_cdf(k, law) - float(oracles.nb_cdf(k, law.size, law.prob))) < 1e-12


def test_nb_cdf_shape():
    law = NegBinParams(size=7.25, prob=0.4)
    assert nb_cdf(-1, law) == 0.0
    # every k below zero reads 0, one at a time or in a batch
    assert nb_cdf(-5.5, law) == 0.0 and poisson_cdf(-5.5, 3.0) == 0.0
    assert nb_cdf(np.array([-7.0, -1.0]), law).tolist() == [0.0, 0.0]
    assert poisson_cdf(np.array([-7.0, -1.0]), 3.0).tolist() == [0.0, 0.0]
    assert nb_cdf(3.9, law) == nb_cdf(3, law)
    prev = 0.0
    for k in range(40):
        value = nb_cdf(k, law)
        assert prev <= value <= 1.0
        prev = value
    assert nb_cdf(10_000, law) > 1.0 - 1e-12


def test_nb_cdf_tiny_size_fallback():
    law = NegBinParams(size=5e-4, prob=0.6)
    for k in (0, 1, 4, 9):
        exact = float(oracles.nb_cdf(k, law.size, law.prob))
        assert abs(nb_cdf(k, law) - exact) < 1e-9


def test_nb_quantile_examples():
    geom = NegBinParams(size=1.0, prob=0.5)
    assert nb_quantile(1e-12, geom) == 0
    assert nb_quantile(0.5, geom) == 0
    pooled = NegBinParams(size=302.0, prob=200.0 / 550.0)
    assert nb_quantile(0.95, pooled) == 200


def test_nb_quantile_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(100):
        law = NegBinParams(size=float(np.exp(rng.uniform(-2, 5))),
                           prob=float(rng.uniform(0.05, 0.95)))
        q = float(rng.uniform(0.01, 0.99))
        k = nb_quantile(q, law)
        assert nb_cdf(k, law) >= q
        if k > 0:
            assert nb_cdf(k - 1, law) < q


def test_nb_quantile_domain():
    law = NegBinParams(size=2.0, prob=0.5)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            nb_quantile(bad, law)


def test_pearson6_cdf_values():
    unit = Pearson6Params(shape_num=1.0, shape_den=1.0, scale=1.0)
    assert pearson6_cdf(0.0, unit) == 0.0
    assert abs(pearson6_cdf(1.0, unit) - 0.5) < 1e-14
    pooled = Pearson6Params(shape_num=200.0, shape_den=302.0, scale=350.0)
    assert abs(pearson6_cdf(230.0, pooled) - 0.4686340151013574) < 1e-12
    with pytest.raises(ValueError):
        pearson6_cdf(-0.5, unit)


def test_pearson6_quantile_round_trip():
    unit = Pearson6Params(shape_num=1.0, shape_den=1.0, scale=1.0)
    assert abs(pearson6_quantile(0.5, unit) - 1.0) < 1e-10
    rng = np.random.default_rng(13)
    for _ in range(50):
        law = Pearson6Params(shape_num=float(np.exp(rng.uniform(-1, 4))),
                             shape_den=float(np.exp(rng.uniform(-1, 4))),
                             scale=float(np.exp(rng.uniform(-1, 3))))
        for q in (0.05, 0.5, 0.95):
            assert abs(pearson6_cdf(pearson6_quantile(q, law), law) - q) < 1e-9


def test_pearson6_quantile_where_z_rounds_to_one():
    # z = x / (x + scale) rounds to 1 at these quantiles, so they come off
    # the complementary inverse; for a huge shape_num the law is close to
    # scale * shape_num / G with G gamma(shape_den)
    law = Pearson6Params(shape_num=1e19, shape_den=73.0, scale=0.88)
    lower, upper = (pearson6_quantile(q, law) for q in (0.05, 0.95))
    assert 0 < lower < upper < math.inf
    for q, x in ((0.05, lower), (0.95, upper)):
        limit = law.scale * law.shape_num / special.gammaincinv(law.shape_den, 1 - q)
        assert abs(x - limit) < 1e-9 * limit
    with pytest.raises(ValueError, match="horizon"):
        pearson6_quantile(0.05, Pearson6Params(shape_num=1e300, shape_den=73.0,
                                               scale=0.88))


def test_pearson6_upper_quantiles_match_the_oracle():
    # z = x / (x + scale) from past 1/2 up to 1 - 1e-17, where 1 - z has to
    # come off the complementary inverse: subtracting it from z loses about
    # log10(1 / (1 - z)) digits, and all of them once z rounds to 1.  Each
    # case draws 1 - z, log-uniform or (every other case) just below 1/2,
    # then shape_num with shape_num (1 - z) in [1e-6, 50],
    # so that the level 1 - I(1 - z; shape_den, shape_num) is mostly a
    # float below 1.  shape_num stays below 1e11 here; the huge shapes,
    # where scipy's betaincinv itself loses digits, follow
    rng = np.random.default_rng(17)
    fractions = []
    for k in range(200):
        fraction = (10.0 ** rng.uniform(-17.0, math.log10(0.5)) if k % 2
                    else rng.uniform(0.25, 0.5))
        low, high = math.log10(1e-6 / fraction), math.log10(50.0 / fraction)
        law = Pearson6Params(shape_num=10.0 ** rng.uniform(max(low, -0.3), min(high, 11.0)),
                             shape_den=float(np.exp(rng.uniform(math.log(0.3), math.log(30.0)))),
                             scale=float(np.exp(rng.uniform(-3.0, 3.0))))
        q = 1.0 - float(oracles.beta_cdf(fraction, law.shape_den, law.shape_num))
        if not 0.0 < q < 1.0:
            continue
        exact = oracles.pearson6_quantile(q, law.shape_num, law.shape_den, law.scale)
        fractions.append(float(law.scale / (exact + law.scale)))
        assert abs(pearson6_quantile(q, law) - exact) <= 1e-13 * exact
    assert len(fractions) >= 150
    assert min(fractions) < 1e-16 and max(fractions) > 0.45
    # shape_num from 1e11 to 2.2e16 with shape_num (1 - z) in [1e-6, 50]:
    # there betaincinv alone was off by up to 8e-9, and by a factor of two
    # in the last case, until Newton on betainc polished its root
    rng = np.random.default_rng(18)
    levels = []
    for _ in range(60):
        shape_num = 10.0 ** rng.uniform(11.0, math.log10(2.2e16))
        fraction = 10.0 ** rng.uniform(-6.0, math.log10(50.0)) / shape_num
        law = Pearson6Params(shape_num=shape_num,
                             shape_den=float(np.exp(rng.uniform(math.log(0.3), math.log(30.0)))),
                             scale=float(np.exp(rng.uniform(-3.0, 3.0))))
        q = 1.0 - float(oracles.beta_cdf(fraction, law.shape_den, law.shape_num))
        if not 0.0 < q < 1.0:
            continue
        exact = oracles.pearson6_quantile(q, law.shape_num, law.shape_den, law.scale)
        levels.append(q)
        assert abs(pearson6_quantile(q, law) - exact) <= 1e-13 * exact
    assert len(levels) >= 40
    assert min(levels) < 0.01 and max(levels) > 0.99
    # the factor-of-two miss: betaincinv gives 1 - z = 2^-56, the root is 2.8e-17
    law = Pearson6Params(shape_num=1.3727112805509192e16, shape_den=3.627228923139935,
                         scale=1.0)
    exact = oracles.pearson6_quantile(0.998395644643215, law.shape_num, law.shape_den, 1.0)
    assert abs(pearson6_quantile(0.998395644643215, law) - exact) <= 1e-13 * exact


def test_pearson6_quantile_monotone():
    law = Pearson6Params(shape_num=200.0, shape_den=302.0, scale=350.0)
    values = [pearson6_quantile(q, law) for q in np.linspace(0.01, 0.99, 25)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_gamma_cdf_closed_forms():
    expon = GammaParams(shape=1.0, rate=2.5)
    for x in (0.1, 0.7, 3.0):
        assert abs(gamma_cdf(x, expon) - (1.0 - math.exp(-2.5 * x))) < 1e-14
    erlang = GammaParams(shape=3.0, rate=1.0)
    assert abs(gamma_cdf(2.0, erlang) - (1.0 - 5.0 * math.exp(-2.0))) < 1e-12
    with pytest.raises(ValueError):
        gamma_cdf(-1.0, erlang)


def test_poisson_cdf_values():
    for mean in (0.3, 2.0, 17.5):
        assert abs(poisson_cdf(0, mean) - math.exp(-mean)) < 1e-14
    assert poisson_cdf(-1, 4.0) == 0.0
    assert poisson_cdf(6.8, 4.0) == poisson_cdf(6, 4.0)
    values = [poisson_cdf(k, 9.0) for k in range(40)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        poisson_cdf(1, 0.0)


def test_gamma_quantile_round_trip():
    expon = GammaParams(shape=1.0, rate=2.5)
    assert abs(gamma_quantile(0.5, expon) - math.log(2.0) / 2.5) < 1e-12
    rng = np.random.default_rng(16)
    for _ in range(60):
        law = GammaParams(shape=float(np.exp(rng.uniform(-2, 4))),
                          rate=float(np.exp(rng.uniform(-2, 3))))
        q = float(rng.uniform(0.01, 0.99))
        assert abs(gamma_cdf(gamma_quantile(q, law), law) - q) < 1e-10
    with pytest.raises(ValueError):
        gamma_quantile(0.0, expon)


def test_poisson_quantile_is_smallest_k_reaching_q():
    assert poisson_quantile(0.5, 1e-6) == 0
    rng = np.random.default_rng(17)
    for _ in range(60):
        mean = float(np.exp(rng.uniform(math.log(0.05), math.log(400.0))))
        q = float(rng.uniform(0.01, 0.99))
        k = poisson_quantile(q, mean)
        assert poisson_cdf(k, mean) >= q
        if k > 0:
            assert poisson_cdf(k - 1, mean) < q
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            poisson_quantile(bad, 5.0)


_SEARCH = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# levels spread over (0, 1) and pressed against both ends
_LEVELS = st.one_of(
    st.floats(1e-6, 1.0 - 1e-6),
    st.floats(1e-300, 1e-6),
    st.floats(1e-15, 1e-6).map(lambda gap: 1.0 - gap),
)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0 ** x)


@_SEARCH
@given(q=_LEVELS, mean=_log_uniform(1e-6, 1e4))
def test_poisson_quantile_equals_the_exponential_bracket_search(q, mean):
    expected = oracles.exponential_bracket_quantile(
        lambda k: poisson_cdf(k, mean), q, mean)
    assert poisson_quantile(q, mean) == expected


_BETAINC_LAWS = st.builds(
    NegBinParams, _log_uniform(1e-3, 1e4),
    st.one_of(_log_uniform(1e-12, 1e-3), st.floats(1e-3, 0.999),
              _log_uniform(1e-10, 1e-3).map(lambda gap: 1.0 - gap)))
# Size below 1e-3 takes the pmf-sum branch, whose cost grows with the
# quantile; prob up to 0.999 keeps that below a few tens of thousands.
_PMF_SUM_LAWS = st.builds(NegBinParams, _log_uniform(1e-6, 9.99e-4),
                          st.floats(1e-12, 0.999))
_PMF_SUM_LEVELS = st.one_of(st.floats(1e-300, 1.0 - 1e-6),
                            st.floats(1e-12, 1e-6).map(lambda gap: 1.0 - gap))


_NB_CASES = st.one_of(st.tuples(_LEVELS, _BETAINC_LAWS),
                      st.tuples(_PMF_SUM_LEVELS, _PMF_SUM_LAWS))


@_SEARCH
@given(case=_NB_CASES)
def test_nb_quantile_equals_the_exponential_bracket_search(case):
    q, law = case
    expected = oracles.exponential_bracket_quantile(
        lambda k: nb_cdf(k, law), q, law.mean)
    assert nb_quantile(q, law) == expected


_BATCH = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _read_in_lockstep(cdf_name, quantile, levels, laws, cases):
    """``quantile(levels, laws)``, checking through a spy on the module's
    ``cdf_name`` that the batch reads in lockstep: its r-th cdf read holds
    the r-th point that each law of ``cases``, one (q, law) per element,
    reads when searched alone, for every law that reads that often, in
    batch order.  So each law reads exactly its own points."""
    cdf = getattr(distributions, cdf_name)
    reads = []

    def spy(points, law):
        fields = (law.size, law.prob) if isinstance(law, NegBinParams) else (law,)
        reads.append([(tuple(map(float, values)), int(point))
                      for *values, point in np.broadcast(*fields, points)])
        return cdf(points, law)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, cdf_name, spy)
        got = quantile(levels, laws)
        batch = list(reads)
        alone = []
        for q, law in cases:
            reads.clear()
            assert quantile(q, law) == got.flat[len(alone)]
            alone.append([read for (read,) in reads])
    assert batch == [[own[r] for own in alone if len(own) > r]
                     for r in range(max(map(len, alone)))]
    return got


@_BATCH
@given(cases=st.lists(_NB_CASES, min_size=1, max_size=64))
@example(cases=[(0.95, NegBinParams(302.0, 0.36))])
@example(cases=[(1e-9, NegBinParams(5e-4, 0.6)), (0.5, NegBinParams(302.0, 0.36)),
                (1.0 - 1e-12, NegBinParams(2e-4, 0.999)), (0.999, NegBinParams(40.0, 1e-5))])
def test_batched_nb_quantiles_equal_the_exponential_bracket_search(cases):
    # one batch mixes both cdf branches and both ends of (0, 1); each of
    # its laws must get the answer a search of that law alone finds, by
    # reading the points that search reads
    levels = np.array([q for q, _ in cases])
    laws = NegBinParams(np.array([law.size for _, law in cases]),
                        np.array([law.prob for _, law in cases]))
    got = _read_in_lockstep("nb_cdf", nb_quantile, levels, laws, cases)
    assert got.shape == levels.shape
    for k, (q, law) in zip(got.tolist(), cases):
        assert k == oracles.exponential_bracket_quantile(
            lambda j: nb_cdf(j, law), q, law.mean)


@_BATCH
@given(cases=st.lists(st.tuples(_LEVELS, _log_uniform(1e-6, 1e4)), min_size=1, max_size=64))
def test_batched_poisson_quantiles_equal_the_exponential_bracket_search(cases):
    levels, means = (np.array(column) for column in zip(*cases))
    got = _read_in_lockstep("poisson_cdf", poisson_quantile, levels, means, cases)
    assert got.shape == levels.shape
    for k, (q, mean) in zip(got.tolist(), cases):
        assert k == oracles.exponential_bracket_quantile(
            lambda j: poisson_cdf(j, mean), q, mean)


def test_a_table_chunk_reads_each_law_as_it_reads_alone(monkeypatch):
    # the plug-in and adjusted intervals of a 200-replication table-2
    # chunk read both their ends in one batch of about 800 laws
    batches = []

    def recorded(q, params):
        batches.append((q, params))
        return quantile(q, params)

    quantile = predict.nb_quantile
    monkeypatch.setattr(predict, "nb_quantile", recorded)
    _, config = reproduction_table("2", replications=200, base_seed=29).rows[0]
    simulate._coverage_chunk(config, (0, 200))
    monkeypatch.undo()
    assert len(batches) == 1
    for q, params in batches:
        levels, sizes, probs = (a.ravel() for a in np.broadcast_arrays(q, params.size,
                                                                         params.prob))
        assert levels.size >= 700
        cases = [(level, NegBinParams(size, prob))
                 for level, size, prob in zip(levels.tolist(), sizes.tolist(), probs.tolist())]
        _read_in_lockstep("nb_cdf", nb_quantile, q, params, cases)


def test_a_batch_past_the_int64_search_is_refused_by_name(monkeypatch):
    # one law searches on Python ints and is exact at any size; a batch
    # searches on int64 and refuses a start, or a bracket, at 2^62 by
    # name, where it once gave floats or objects back
    assert poisson_quantile(0.5, 1e19) == 10000000000000001025
    for mean in (1e19, 1e25):
        with pytest.raises(ValueError) as refusal:
            poisson_quantile(np.array([0.5, 0.5]), np.array([mean, 1.0]))
        assert all(part in str(refusal.value)
                   for part in ("level-0.5 ", f"mean {mean:g} ", "smaller horizon"))
    # a cdf that never reaches the level brackets upwards until it is
    # refused; here the first law's is 1 throughout, and its search ends at 0
    monkeypatch.setattr(distributions, "poisson_cdf", lambda points, mean: (mean < 3.5) * 1.0)
    with pytest.raises(ValueError) as refusal:
        poisson_quantile(np.array([0.5, 0.9]), np.array([3.0, 4.0]))
    assert all(part in str(refusal.value) for part in ("level-0.9 ", "mean 4 ", "2^62"))


@_SEARCH
@given(case=_NB_CASES)
def test_nb_quantile_lands_where_the_cdf_crosses_q(case):
    q, law = case
    k = nb_quantile(q, law)
    assert nb_cdf(k, law) >= q
    assert k == 0 or nb_cdf(k - 1, law) < q


def test_nb_quantile_reads_nb_cdf_from_the_module_a_few_times(monkeypatch):
    calls = []

    def counted(k, params):
        calls.append(k)
        return cdf(k, params)

    cdf = distributions.nb_cdf
    monkeypatch.setattr(distributions, "nb_cdf", counted)
    # a pooled law like the tables', then a heavy tail far from normal
    for law, q, most in ((NegBinParams(302.0, 200.0 / 550.0), 0.95, 8),
                         (NegBinParams(0.05, 1.0 - 1e-6), 1.0 - 1e-9, 80)):
        calls.clear()
        k = nb_quantile(q, law)
        assert cdf(k, law) >= q > cdf(k - 1, law)
        assert 0 < len(calls) <= most


def test_table_quantiles_read_nb_cdf_at_most_two_and_a_half_times(monkeypatch):
    # the skew-corrected start lands on the answer or next to it for the
    # tables' pooled laws; the normal start took 5.4 reads per quantile.
    # A chunk reads its quantiles in batches, so both sides count elements:
    # one per quantile asked for, one per point the cdf is read at
    reads = {"cdf": 0, "quantile": 0}

    def counted(function, key):
        def wrapper(points, params):
            reads[key] += np.broadcast(points, params.size, params.prob).size
            return function(points, params)
        return wrapper

    monkeypatch.setattr(distributions, "nb_cdf", counted(distributions.nb_cdf, "cdf"))
    monkeypatch.setattr(predict, "nb_quantile", counted(predict.nb_quantile, "quantile"))
    for table in ("2", "3"):
        for _, config in reproduction_table(table, replications=15, base_seed=29).rows:
            coverage_study(config)
    assert reads["quantile"] >= 300
    assert reads["cdf"] <= 2.5 * reads["quantile"]


def test_skewed_start_is_clipped_to_one_sd_from_the_normal_start(monkeypatch):
    # skewness 89: unclipped, the start for q = 0.999 would lie 127 sd
    # out, a pmf sum of 2.8 million terms on this branch; clipped, the
    # first read is within one sd of the normal start, and every read
    # stays at or below the larger of that read and twice the answer
    calls = []

    def counted(k, params):
        calls.append(k)
        return cdf(k, params)

    cdf = distributions.nb_cdf
    monkeypatch.setattr(distributions, "nb_cdf", counted)
    law = NegBinParams(5e-4, 1.0 - 1e-6)
    sd = math.sqrt(law.variance)
    for q in (0.5, 0.99, 0.995, 0.999):
        calls.clear()
        k = nb_quantile(q, law)
        assert cdf(k, law) >= q and (k == 0 or cdf(k - 1, law) < q)
        normal = law.mean + sd * special.ndtri(q)
        assert abs(calls[0] - normal) <= sd + 1.0
        assert max(calls) <= max(calls[0], 2 * k + 1)


def test_nb_quantile_reaches_a_level_next_to_one_on_the_pmf_sum_branch(monkeypatch):
    # a pmf sum started at pmf(0) stalls at 1 - 2.2e-16 on this law, so a
    # search for 1 - 1e-16 would double its bracket until memory ran out
    calls = []

    def bounded(k, params):
        calls.append(k)
        assert k <= 10**7 and len(calls) <= 500, "the bracket runs away"
        return cdf(k, params)

    cdf = distributions.nb_cdf
    monkeypatch.setattr(distributions, "nb_cdf", bounded)
    law, q = NegBinParams(1e-6, 0.9375), 1.0 - 1e-16
    k = nb_quantile(q, law)
    assert cdf(k, law) >= q > cdf(k - 1, law)


def test_randomized_cdfs_match_oracles():
    rng = np.random.default_rng(14)
    for _ in range(60):
        size = float(np.exp(rng.uniform(math.log(0.01), math.log(60.0))))
        prob = float(rng.uniform(0.02, 0.95))
        k = int(rng.integers(0, 40))
        got = nb_cdf(k, NegBinParams(size=size, prob=prob))
        assert abs(got - float(oracles.nb_cdf(k, size, prob))) < 1e-9

        mean = float(np.exp(rng.uniform(math.log(0.05), math.log(40.0))))
        k = int(rng.integers(0, 60))
        assert abs(poisson_cdf(k, mean) - float(oracles.poisson_cdf(k, mean))) < 1e-9

        shape = float(np.exp(rng.uniform(math.log(0.05), math.log(50.0))))
        rate = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        x = float(rng.gamma(shape) / rate) + 1e-9
        got = gamma_cdf(x, GammaParams(shape=shape, rate=rate))
        assert abs(got - float(oracles.gamma_cdf(x, shape, rate))) < 1e-9


def test_randomized_pearson6_matches_quadrature():
    rng = np.random.default_rng(15)
    for _ in range(30):
        law = Pearson6Params(shape_num=float(np.exp(rng.uniform(-1, 3.5))),
                             shape_den=float(np.exp(rng.uniform(-1, 3.5))),
                             scale=float(np.exp(rng.uniform(-1, 3))))
        x = pearson6_quantile(float(rng.uniform(0.05, 0.95)), law)
        exact = float(oracles.pearson6_cdf(x, law.shape_num, law.shape_den,
                                           law.scale))
        assert abs(pearson6_cdf(x, law) - exact) < 1e-9


def test_parameter_validation():
    with pytest.raises(ValueError):
        GammaParams(shape=0.0, rate=1.0)
    with pytest.raises(ValueError):
        GammaParams(shape=1.0, rate=-2.0)
    with pytest.raises(ValueError):
        NegBinParams(size=-1.0, prob=0.5)
    with pytest.raises(ValueError):
        NegBinParams(size=1.0, prob=1.0)
    with pytest.raises(ValueError):
        Pearson6Params(shape_num=1.0, shape_den=0.0, scale=1.0)
    heavy = Pearson6Params(shape_num=1.0, shape_den=0.8, scale=1.0)
    with pytest.raises(ValueError):
        heavy.mean
    no_var = Pearson6Params(shape_num=1.0, shape_den=1.5, scale=1.0)
    with pytest.raises(ValueError):
        no_var.variance
