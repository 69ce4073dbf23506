import decimal
import math
import sys
import time
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.stats import binom as sp_binom
from scipy.stats import nbinom as sp_nbinom
from scipy.stats import poisson as sp_poisson

from vlcrelay import _trace, channel, clusters, laws, sim
from vlcrelay.node import LinkConfig, Mode

import oracles

TABLE_II_NB = [
    # (r, p) -> quantiles at 0.9 / 0.95 / 0.99 / 0.999
    ((0.1691, 0.0638), (8, 14, 31, 59)),
    ((0.1719, 0.2555), (2, 3, 7, 13)),
    ((0.1089, 0.3342), (1, 1, 4, 8)),
    ((0.028, 0.7053), (0, 0, 0, 2)),
]
TARGETS = (0.9, 0.95, 0.99, 0.999)
NB, POISSON, BINOMIAL = clusters.Family


def dist_from_window_counts(draws):
    """Build a ClusterDistribution as if each draw were one window."""
    draws = np.asarray(draws, dtype=np.int64)
    return oracles.dist_from_hist(np.bincount(draws), n_packets=int(draws.sum() + draws.size))


# ---------------------------------------------------------------- extraction

def _trace_of(received) -> sim.PacketTrace:
    """The trace of ``received`` on a beacon link, which relays every
    received packet; ``extract_clusters`` counts it through ``stored``."""
    received = np.asarray(received, dtype=bool)
    return sim.PacketTrace(config=LinkConfig(mode=Mode.BEACON), process_spec="iid-packet:p=0.5",
                           seed=0, received=received, relayed=received.copy())


def test_extract_clusters_by_definition():
    received = np.array([False, False, False, True, False, True])  # L L L S L S
    dist = clusters.extract_clusters(_trace_of(received))
    assert dist.insufficient
    assert oracles.dense_hist(dist) == [1, 1, 0, 1]
    assert dist.n_lost == 4
    assert dist.n_opportunities == 3  # two receptions plus the leading-run window
    assert dist.counts[0] == 1


def test_extract_clusters_no_losses_is_flagged():
    dist = clusters.extract_clusters(_trace_of(np.ones(50, dtype=bool)))
    assert oracles.dense_hist(dist) == [50]
    assert dist.insufficient
    assert dist.quantile(0.999) == 0


def test_extract_clusters_mass_identity():
    rng = np.random.default_rng(0)
    received = rng.random(5000) > 0.3
    dist = clusters.extract_clusters(_trace_of(received))
    assert dist.n_lost == int((~received).sum())
    assert sum(dist.pmf()) == pytest.approx(1.0, abs=1e-12)


def _check_hist_against_window_walk(received):
    dist = clusters.extract_clusters(_trace_of(received))
    hist = oracles.window_hist(received)
    assert oracles.dense_hist(dist) == hist
    # and from a stored form packed here, as a binary trace stores the flags
    payload = np.packbits(received).tobytes()
    stored = _trace.BinaryTrace(LinkConfig(), "iid-packet:p=0.5", 0, received.size, payload)
    assert clusters.extract_clusters(stored) == dist
    ks, ws = dist.lengths.tolist(), dist.counts.tolist()
    assert (ks[0], ws[0]) == (0, hist[0])
    assert ws == [hist[k] for k in ks] and all(w > 0 for w in ws[1:])
    return dist


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_extract_clusters_hist_matches_window_walk(flags):
    _check_hist_against_window_walk(np.array(flags, dtype=bool))


@pytest.mark.parametrize("flags, hist", [
    ("LLLL", [0, 0, 0, 0, 1]),  # all lost: the start's window holds the run
    ("SSSS", [4]),  # none lost
    ("LLSSLS", [2, 1, 1]),  # a leading run
    ("SSLLL", [1, 0, 0, 1]),  # a trailing run
    ("LSL", [0, 2]),  # no zero-length window, and lengths still starts at 0
])
def test_extract_clusters_hist_edge_cases(flags, hist):
    dist = _check_hist_against_window_walk(np.array([c == "S" for c in flags]))
    assert oracles.dense_hist(dist) == hist


# the run count takes a trace a block of R packets at a time, and runs of
# at least _trace._LADDER losses one by one: lengths around a payload byte
# and a block, runs across block edges and runs around the ladder's top
R = _trace._RUN_BLOCK
LADDER = _trace._LADDER


def _flags_with_runs(n: int, *runs) -> np.ndarray:
    received = np.ones(n, dtype=bool)
    for lo, hi in runs:
        received[lo:hi] = False
    return received


def _ladder(n: int) -> np.ndarray:
    """Loss runs of every length from 1 to 3 * LADDER, a reception apart."""
    received = np.ones(n, dtype=bool)
    at = 1
    for length in range(1, 3 * LADDER + 1):
        received[at:at + length] = False
        at += length + 1
    return received


RUN_COUNT_CASES = {
    **{f"random-{n}": (lambda n=n: np.random.default_rng(n).random(n) >= 0.5)
       for n in (1, 7, 8, 9, R - 1, R, R + 1)},
    **{f"opens-and-ends-lost-{n}": (lambda n=n: _flags_with_runs(n, (0, 1), (n - 1, n)))
       for n in (1, 7, 8, 9, R - 1, R, R + 1)},
    **{f"all-lost-{n}": (lambda n=n: np.zeros(n, dtype=bool)) for n in (1, 9, R, R + 1)},
    **{f"all-received-{n}": (lambda n=n: np.ones(n, dtype=bool)) for n in (1, 9, R, R + 1)},
    "run-across-one-edge": lambda: _flags_with_runs(2 * R + 3, (R - 5, R + 7)),
    "run-across-two-edges": lambda: _flags_with_runs(3 * R + 5, (3, 9), (R - 3, 2 * R + 4)),
    "runs-across-blocks-to-the-end": lambda: _flags_with_runs(3 * R + 1, (R - 1, 3 * R + 1)),
    "run-from-the-start": lambda: _flags_with_runs(2 * R + 2, (0, R + 2)),
    "ladder": lambda: _ladder(2000),
    "ladder-across-an-edge": lambda: np.roll(_ladder(R + 900), R - 450),
    "bursty": lambda: np.repeat(np.random.default_rng(4).random(3 * R // 8 + 3) >= 0.3,
                                np.random.default_rng(5).integers(1, 40, 3 * R // 8 + 3)),
}


@pytest.mark.parametrize("case", sorted(RUN_COUNT_CASES))
def test_run_count_matches_the_window_walk_from_flags_and_payload(tmp_path, case):
    # the histogram of a trace's received flags, packed as trace.stored, and
    # that of the binary trace's payload, as analyze reads it, are both the
    # loop oracle's
    received = RUN_COUNT_CASES[case]()
    want = oracles.window_hist(received.tolist())
    trace = _trace_of(received)
    assert oracles.dense_hist(clusters.extract_clusters(trace)) == want
    path = tmp_path / "t.vlct"
    sim.write_trace(trace, path)
    # one packing rule: the stored form's payload is the written payload
    assert trace.stored.payload == oracles.split_binary_trace(path.read_bytes())[1]
    dist = clusters.extract_clusters(_trace.read_binary(path))
    assert oracles.dense_hist(dist) == want
    assert dist.n_packets == received.size


@pytest.mark.parametrize("hist", [
    ([0, 1, 2], [5, 1, 0]),  # a length seen at count 0: max_cluster read 2
    ([0, 1], [5, -1]),  # a negative count: n_lost read -1
    ([], []),  # no window
    ([0], [0]),
    ([[0, 1]], [[3, 1]]),
    ([0, 1], np.array([3.0, 1.0])),
    ([1, 2], [3, 1]),  # no 0 first
    ([0, 2, 1], [3, 1, 1]),  # not ascending
    ([0, 1, 1], [3, 1, 1]),  # a length twice
    ([0, 1], [3]),  # a length without its count
])
def test_cluster_distribution_rejects_bad_hist(hist):
    with pytest.raises(clusters.ClusterStatsError, match="hist must be"):
        clusters.ClusterDistribution(*hist, n_packets=10)


def test_extract_clusters_matches_generator():
    process = channel.NbCluster.for_law(0.1691, 0.0638)
    lost = channel.sample_losses(process, 10**5, np.random.default_rng(3))
    dist = clusters.extract_clusters(_trace_of(~lost))
    law = clusters.FitResult(NB, (0.1691, 0.0638))
    assert oracles.table_cdf_error(dist, law) < 0.02


def test_fit_hands_its_table_to_the_quantiles(monkeypatch):
    # a fit scores its law on the table the law's quantiles then read, so
    # fitting three families, selecting and taking quantiles builds three
    process = channel.NbCluster.for_target_per(0.1691, 0.0638, 0.3)  # nb-burst's anchor
    lost = channel.sample_losses(process, 10**5, np.random.default_rng(5))
    dist = clusters.extract_clusters(_trace_of(~lost))
    build, builds = laws.cdf_table, []

    def counted(family, params):
        builds.append(family)
        return build(family, params)

    for module in (clusters, laws):
        monkeypatch.setattr(module, "cdf_table", counted)
    best = clusters.select_best([clusters.fit(dist, f) for f in clusters.Family])
    got = [clusters.quantile(best, t) for t in TARGETS]
    assert builds == list(clusters.Family)
    fresh = clusters.FitResult(best.family, best.params)
    assert got == [clusters.quantile(fresh, t) for t in TARGETS]


# --------------------------------------------------- a law's pmf, by its table

def test_nb_pmf_table_ii_zero_mass():
    # a law's table opens with its pmf(0)
    assert clusters.cdf_table(NB, (0.1691, 0.0638)).grow()[0] == pytest.approx(0.628, abs=5e-4)


@pytest.mark.parametrize("r,p", [(0.1691, 0.0638), (0.5, 0.3), (2.7, 0.9), (1.0, 0.05)])
def test_nb_pmf_normalizes(r, p):
    table = clusters.cdf_table(NB, (r, p))
    assert abs(table.grow(math.inf)[-1] - 1.0) < 1e-10
    assert table.finished


def test_nb_pmf_geometric_special_case():
    # NB(1, p) is the geometric law, whose CDF is 1 - (1 - p)^(k + 1)
    ks = np.arange(50)
    p = 0.37
    cdf = np.frombuffer(clusters.cdf_table(NB, (1.0, p)).grow(k=49))[:50]
    assert np.allclose(cdf, 1 - (1 - p) ** (ks + 1), rtol=1e-12, atol=0)


def _assert_table_matches_scipy(family, params, scipy_law):
    table = clusters.cdf_table(family, params)
    cdf = oracles.full_table(table)
    ks = np.arange(cdf.size)
    assert np.allclose(cdf, scipy_law.cdf(ks, *params), rtol=1e-10, atol=0)
    assert cdf[0] == pytest.approx(scipy_law.pmf(0, *params), rel=1e-12)


def test_nb_pmf_against_reference():
    for params in [(0.1691, 0.0638), (3.2, 0.55)]:
        _assert_table_matches_scipy(NB, params, sp_nbinom)


def test_nb_pmf_domain_errors():
    for params in [(-1.0, 0.5), (1.0, 1.0), (1.0, 0.0), (1.0,)]:
        with pytest.raises(clusters.ClusterStatsError):
            clusters.cdf_table(NB, params)


@pytest.mark.parametrize("call", [
    lambda: clusters.check_params(NB, (math.nan, 0.5)),
    lambda: clusters.check_params(POISSON, (math.nan,)),
    lambda: clusters.LatencyParams(math.nan, 0.0, 1e-4),
    lambda: clusters.LatencyParams(595e-6, math.nan, 1e-4),
    lambda: clusters.LatencyParams(595e-6, 0.0, math.nan),
], ids=["nb-r", "poisson-lambda", "latency-l0", "latency-ipd", "latency-pt"])
def test_range_checks_refuse_nan(call):
    with pytest.raises(clusters.ClusterStatsError):
        call()


def test_poisson_and_binom_pmf_against_reference():
    _assert_table_matches_scipy(POISSON, (0.0042,), sp_poisson)
    _assert_table_matches_scipy(POISSON, (0.0,), sp_poisson)
    _assert_table_matches_scipy(BINOMIAL, (26.0, 0.05), sp_binom)


# ---------------------------------------------------------------------- fits

def test_fit_recovers_negative_binomial():
    draws = sp_nbinom.rvs(0.17, 0.06, size=10**5,
                          random_state=np.random.default_rng(42))
    fit = clusters.fit(dist_from_window_counts(draws), clusters.Family.NEG_BINOMIAL)
    r, p = fit.params
    assert abs(r - 0.17) / 0.17 < 0.10
    assert abs(p - 0.06) / 0.06 < 0.10


def test_fit_recovers_poisson():
    draws = sp_poisson.rvs(0.0042, size=10**5,
                           random_state=np.random.default_rng(7))
    fit = clusters.fit(dist_from_window_counts(draws), clusters.Family.POISSON)
    assert abs(fit.params[0] - 0.0042) / 0.0042 < 0.10


def test_fit_recovers_binomial():
    draws = sp_binom.rvs(5, 0.3, size=10**5,
                         random_state=np.random.default_rng(21))
    fit = clusters.fit(dist_from_window_counts(draws), clusters.Family.BINOMIAL)
    n, p = fit.params
    assert n == 5
    assert abs(p - 0.3) / 0.3 < 0.10


def test_fit_degenerate_all_zero_poisson():
    dist = dist_from_window_counts(np.zeros(100, dtype=int))
    fit = clusters.fit(dist, clusters.Family.POISSON)
    assert fit.params[0] == 0.0


def test_fit_fits_a_flagged_thin_sample():
    dist = dist_from_window_counts([0] * 50 + [1] * 3)
    assert dist.insufficient
    fit = clusters.fit(dist, clusters.Family.POISSON)
    assert fit.params == (3 / 53,)


def test_fit_nb_diverges_without_losses():
    dist = dist_from_window_counts(np.zeros(100, dtype=int))
    with pytest.raises(clusters.FitDiverged):
        clusters.fit(dist, clusters.Family.NEG_BINOMIAL)


FIT_CORPUS_SPECS = [
    "iid-packet:p=0.1",
    "iid-bit:p=0.003",
    "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5",
    "nb-cluster:r=0.1691,p=0.0638,target_per=0.3",  # the PER-0.3 anchor
    "nb-cluster:r=0.1719,p=0.2555,p_start=0.05",
    "nb-cluster:r=0.028,p=0.7053,target_per=0.01",
    "nb-cluster:r=5,p=0.5,p_start=0.02",
]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("spec", FIT_CORPUS_SPECS)
def test_fit_nb_matches_minimize_scalar_oracle(spec, mode):
    process = channel.process_from_spec(spec)
    for seed in range(5):
        trace = sim.run(LinkConfig(mode=mode), process, 60_000, seed)
        dist = clusters.extract_clusters(trace)
        values, weights = (np.array(a, dtype=float) for a in (dist.lengths, dist.counts))
        assert clusters._fit_nb_mle(dist) == oracles.fit_nb_mle(values, weights)


def test_nb_log_pmf_terms_match_scipy_logpmf():
    # the fit's likelihood sums these terms: at the corpus's run lengths and
    # out to the run cap, for the corpus's fits and at the search's bounds,
    # with p as the fit forms it.  Each side rounds its lgamma terms, and
    # scipy sums them in float, so the two agree to a few units of the
    # terms' absolute sum; the log pmf itself can be a small difference of
    # large terms (r = 1e8, k = 102: -3.2521085 against -3.2521082)
    cap = [*map(int, np.logspace(0, 7, 57)), 10**7]
    bounds = math.exp(math.log(1e-8)), math.exp(math.log(1e8))
    for spec in FIT_CORPUS_SPECS:
        for mode in Mode:
            trace = sim.run(LinkConfig(mode=mode), channel.process_from_spec(spec), 60_000, 0)
            dist = clusters.extract_clusters(trace)
            ks = sorted({*dist.lengths, *cap})
            for r in (*bounds, clusters._fit_nb_mle(dist)[0]):
                p = r / (r + dist.mean)
                ref = sp_nbinom.logpmf(ks, r, p).tolist()
                for k, expect in zip(ks, ref):
                    terms = clusters._nb_log_pmf_terms((r, p), k)
                    assert math.fsum(terms) == pytest.approx(
                        expect, rel=0, abs=1e-15 * math.fsum(map(abs, terms))), (spec, r, k)


def test_nb_fit_keeps_lgamma_in_its_domain(monkeypatch):
    # math.lgamma raises ValueError at 0 and OverflowError above ~2.6e305.
    # The fit's arguments are k + r, r
    # and k + 1, with r = exp(log r) for log r in [log 1e-8, log 1e8] and k
    # a run length, at most the longest run K, so they lie in
    # [1e-8 (1 - 1e-15), K + 1e8 (1 + 1e-15)]: all lost, one loss in 10^9
    # and a run of 10^9 fit
    seen = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: seen.append(x) or lgamma(x))
    for lengths, counts in [([0, 10**7], [0, 1]), ([0, 1], [10**9, 1]),
                            ([0, 1, 10**7], [10**7, 1, 1]), ([0, 10**9], [0, 1])]:
        dist = clusters.ClusterDistribution(lengths, counts,
                                            n_packets=sum(counts) + lengths[-1])
        r, p = clusters._fit_nb_mle(dist)
        assert math.isfinite(r) and 0.0 < p < 1.0
        assert 1e-8 * (1 - 1e-15) <= min(seen) and max(seen) <= lengths[-1] + 1e8 * (1 + 1e-15)
        seen.clear()


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("spec", FIT_CORPUS_SPECS)
def test_fit_scores_the_table_its_quantiles_read(spec, mode):
    # max_cdf_error is the gap to the recurrence loop's CDF; the best law
    # and its quantiles are those of the gammaln sums the fits once scored
    process = channel.process_from_spec(spec)
    for seed in range(3):
        trace = sim.run(LinkConfig(mode=mode), process, 60_000, seed)
        dist = clusters.extract_clusters(trace)
        fits = [clusters.fit(dist, family) for family in clusters.Family]
        for f in fits:
            assert f.max_cdf_error == oracles.table_cdf_error(dist, f), f
        best = clusters.select_best(fits)
        old_best = clusters.select_best(
            laws.FitResult(f.family, f.params, max_cdf_error=oracles.gammaln_cdf_error(dist, f))
            for f in fits)
        assert (best.family, best.params) == (old_best.family, old_best.params)
        for target in TARGETS:
            assert clusters.quantile(best, target) == oracles.doubling_quantile(old_best, target)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 60),
       st.dictionaries(st.integers(1, 3000), st.integers(1, 60), min_size=1, max_size=12),
       st.lists(st.floats(0.001, 0.999999), min_size=1, max_size=4))
def test_fit_scores_the_dense_cdf_error_at_the_seen_lengths(zeros, runs, targets):
    # the sparse law's error and quantiles are those of the dense law, whose
    # CDF is held flat across every run length never seen
    lengths = sorted(runs)
    counts = [zeros, *map(runs.get, lengths)]
    dist = clusters.ClusterDistribution([0, *lengths], counts,
                                        n_packets=sum(k * runs[k] for k in lengths) + sum(counts))
    for family in clusters.Family:
        f = clusters.fit(dist, family)
        assert f.max_cdf_error == oracles.dense_cdf_error(dist, f), f
    for target in targets:
        assert dist.quantile(target) == oracles.doubling_quantile(dist, target)


def test_fit_holds_a_law_at_its_run_cap_value_past_the_cap(monkeypatch):
    # a run longer than the cap: a law's table ends at the cap, and past it
    # the fit reads the law's CDF as its value there.  On an all-lost trace
    # the Poisson table runs to the cap, and the p = 1 binomial, all of
    # whose mass lies past it, holds 0 there
    monkeypatch.setattr(laws, "_RUN_CAP", 50)
    dist = clusters.ClusterDistribution([0, 80], [0, 1], n_packets=80)
    table = oracles.law_cdf_table(POISSON, (80.0,), size=51)
    assert table.size == 51
    assert clusters.fit(dist, POISSON).max_cdf_error == 1.0 - table[-1]
    binomial = clusters.fit(dist, BINOMIAL)
    assert binomial.params == (80.0, 1.0) and binomial.max_cdf_error == 1.0
    with pytest.raises(clusters.ClusterStatsError, match=r"beyond 50, where its CDF ends at 0.0"):
        clusters.quantile(binomial, 0.5)


def test_fit_reads_a_table_that_starts_past_zero():
    # Poisson(800): e^-800 underflows, so the table starts near 500; the
    # entries before its start are 0
    draws = np.random.default_rng(5).poisson(800.0, 2000)
    dist = dist_from_window_counts(draws)
    fit = clusters.fit(dist, POISSON)
    assert clusters.cdf_table(POISSON, fit.params).start > 0
    assert fit.max_cdf_error == oracles.table_cdf_error(dist, fit)


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _nan_above_one(x):
    return (x - 1.5) ** 2 if x < 1.0 else math.nan


@pytest.mark.parametrize("func, lo, hi, xatol, maxiter", [
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-5, 500),
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-12, 500),
    (lambda x: math.cosh(x - 7.0) + 0.1 * x, math.log(1e-8), math.log(1e8), 1e-12, 500),
    (lambda x: abs(x - 0.7) ** 0.5, -2.0, 3.0, 1e-5, 500),
    (lambda x: abs(x - 0.7) ** 0.5, -2.0, 3.0, 1e-12, 500),
    (lambda x: math.floor(4.0 * x) % 3, 0.0, 2.0, 1e-12, 500),
    (lambda x: 4.0, 0.0, 1.0, 1e-5, 500),
    (lambda x: x, 0.0, 1.0, 1e-12, 500),  # minimum at the lower bound
    (lambda x: -x, 0.0, 1.0, 1e-12, 500),  # minimum at the upper bound
    (_nan_above_one, 0.0, 2.0, 1e-12, 500),
    (lambda x: math.nan, 0.0, 1.0, 1e-5, 500),
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-12, 4),
    (lambda x: math.exp(x) - 2.0 * x, -3.0, 3.0, 1e-12, 1),
], ids=["parabola", "parabola-tight", "cosh", "cusp", "cusp-tight", "steps", "constant",
        "lower-bound", "upper-bound", "nan-part-way", "nan-everywhere", "maxiter-4",
        "maxiter-1"])
def test_minimize_bounded_matches_scipy(func, lo, hi, xatol, maxiter):
    seen, seen_ref = [], []
    x, fun, nfev, flag = clusters._minimize_bounded(
        lambda x: seen.append(x) or func(x), lo, hi, xatol=xatol, maxiter=maxiter)
    ref = minimize_scalar(lambda x: seen_ref.append(x) or func(x), bounds=(lo, hi),
                          method="bounded", options={"xatol": xatol, "maxiter": maxiter})
    assert seen == seen_ref
    assert _same(x, ref.x) and _same(fun, ref.fun)
    assert (nfev, flag == 0, clusters._BRENT_MESSAGES[flag]) == (
        ref.nfev, ref.success, ref.message)


def test_minimize_bounded_flags():
    parabola = lambda x: (x - 0.3) ** 2  # noqa: E731
    assert clusters._minimize_bounded(parabola, -1.0, 2.0, xatol=1e-12)[3] == 0
    assert clusters._minimize_bounded(parabola, -1.0, 2.0, xatol=1e-12, maxiter=4)[3] == 1
    assert clusters._minimize_bounded(_nan_above_one, 0.0, 2.0, xatol=1e-12)[3] == 2


def test_select_best_prefers_generator_family():
    rng = np.random.default_rng(42)
    nb_draws = sp_nbinom.rvs(0.17, 0.06, size=10**5, random_state=rng)
    nb_dist = dist_from_window_counts(nb_draws)
    nb_fits = [clusters.fit(nb_dist, f) for f in clusters.Family]
    assert clusters.select_best(nb_fits).family is clusters.Family.NEG_BINOMIAL

    po_draws = sp_poisson.rvs(0.004, size=10**5, random_state=rng)
    po_dist = dist_from_window_counts(po_draws)
    po_fits = [clusters.fit(po_dist, f) for f in clusters.Family]
    assert clusters.select_best(po_fits).family is clusters.Family.POISSON


def test_select_best_single_candidate():
    fit = clusters.FitResult(clusters.Family.POISSON, (0.1,), max_cdf_error=0.5)
    assert clusters.select_best([fit]) is fit


# ----------------------------------------------------------------- quantiles

@pytest.mark.parametrize("params,expect", TABLE_II_NB)
def test_quantiles_match_published_nb_rows(params, expect):
    model = clusters.FitResult(clusters.Family.NEG_BINOMIAL, params)
    assert tuple(clusters.quantile(model, t) for t in TARGETS) == expect


@pytest.mark.parametrize("lam", [0.0042, 0.0023])
def test_quantiles_match_published_poisson_rows(lam):
    model = clusters.FitResult(clusters.Family.POISSON, (lam,))
    assert clusters.quantile(model, 0.999) == 1


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.02, max_value=5.0),
       st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=0.01, max_value=0.999))
def test_quantile_is_generalized_inverse(r, p, target):
    model = clusters.FitResult(clusters.Family.NEG_BINOMIAL, (r, p))
    k = clusters.quantile(model, target)
    cdf = clusters.cdf_table(model.family, model.params).grow(target)
    assert cdf[k] >= target
    if k > 0:
        assert cdf[k - 1] < target


def test_quantile_rejects_bad_targets():
    model = clusters.FitResult(clusters.Family.POISSON, (0.1,))
    with pytest.raises(clusters.ClusterStatsError):
        clusters.quantile(model, 1.0)



def _random_laws(rng, n):
    """``n`` random laws per family, with r and lambda log-uniform and
    binomials up to n = 3162, so some of them start below the float range."""
    for _ in range(n):
        yield clusters.FitResult(NB, (10 ** rng.uniform(-3, 3), rng.uniform(0.01, 0.99)))
        yield clusters.FitResult(POISSON, (10 ** rng.uniform(-4, math.log10(5e3)),))
        yield clusters.FitResult(BINOMIAL, (float(int(10 ** rng.uniform(0, 3.5))),
                                            rng.uniform(0.0, 1.0)))


def test_quantiles_equal_the_doubling_gammaln_path_on_a_corpus():
    rng = np.random.default_rng(11)
    table = clusters.ModelTable.bundled()
    grid = np.logspace(math.log10(table.per_min), math.log10(table.per_max), 241)
    models = [table.model_at(float(per)) for per in grid] + list(_random_laws(rng, 100))
    for model in models:
        for target in (*TARGETS, 0.99999, *rng.uniform(0.01, 0.99999, 2)):
            expect = oracles.doubling_quantile(model, float(target))
            assert clusters.quantile(model, float(target)) == expect, (model, target)


def _near_cdf_end(dist):
    """The last CDF values and their float neighbours, inside (0, 1)."""
    return [t for c in dist.cdf[-3:].tolist()
            for t in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)) if 0.0 < t < 1.0]


def test_empirical_quantiles_equal_the_doubling_path():
    # the doubling path's CDF is 1.0 from the longest run on, as the search
    # once forced it; the cached CDF can end just below 1
    rng = np.random.default_rng(12)
    for _ in range(200):
        draws = rng.negative_binomial(rng.uniform(0.05, 3.0), rng.uniform(0.02, 0.9),
                                      size=int(rng.integers(1, 3000)))
        dist = dist_from_window_counts(draws)
        for target in (*TARGETS, *rng.uniform(0.001, 0.99999, 4), *_near_cdf_end(dist)):
            assert dist.quantile(target) == oracles.doubling_quantile(dist, target)


def test_empirical_quantile_past_a_cdf_end_below_1_is_the_longest_run():
    dist = clusters.ClusterDistribution(range(5), [18, 41, 20, 39, 15], n_packets=133)
    assert np.array_equal(dist.cdf, oracles.dense_cdf(dist))
    assert dist.cdf[-1] == 0.9999999999999998
    assert dist.quantile(0.9999999999999999) == 4
    for target in (*TARGETS, 0.9999999999999999, *_near_cdf_end(dist)):
        assert dist.quantile(target) == oracles.doubling_quantile(dist, target)


@pytest.mark.parametrize("family, params", [
    (NB, (0.1691, 0.0638)), (NB, (200.0, 1e-3)),
    (POISSON, (0.0042,)), (POISSON, (0.0,)), (POISSON, (37.5,)),
    (POISSON, (800.0,)), (POISSON, (5000.0,)),  # e^-lambda underflows
    (BINOMIAL, (59.0, 0.1)), (BINOMIAL, (3.0, 0.0)), (BINOMIAL, (40.0, 0.999)),
    (BINOMIAL, (1844.0, 0.675)), (BINOMIAL, (3000.0, 0.9)),  # (1-p)^n underflows
    # starts past several chunks of 2^16 terms
    (NB, (2000.0, 0.01)), (POISSON, (2e5,)), (BINOMIAL, (3e5, 0.5)),
    (BINOMIAL, (float(laws._RUN_CAP + 1), 1e-9)),  # n past the run cap
])
def test_cdf_table_matches_the_recurrence_loop(family, params):
    # a table whose pmf(0) underflows starts where the log-space walk does,
    # and from its start pmf (pinned against exact arithmetic below) on it
    # is the loop's, bit for bit; the others are the loop's from k = 0
    table = clusters.cdf_table(family, params)
    assert np.array_equal(oracles.full_table(table),
                          oracles.seeded_law_table(table, family, params))
    assert table.finished


def test_cdf_table_grows_to_an_index():
    # a fit reads a law's table up to the longest run, not to a CDF value:
    # a slowly decaying law grows only as far as that index
    table = clusters.cdf_table(NB, (1.0, 1e-6))
    cdf = table.grow(k=1000)
    assert 1000 < len(cdf) <= 2048 and not table.finished
    assert np.array_equal(np.frombuffer(cdf),
                          oracles.law_cdf_table(NB, (1.0, 1e-6), size=len(cdf)))
    late = clusters.cdf_table(POISSON, (800.0,))
    assert late.start + len(late.grow(k=late.start + 5)) > late.start + 5
    short = clusters.cdf_table(POISSON, (0.1,))
    assert len(short.grow(k=1000)) < 30 and short.finished


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, 1 << 16])
@pytest.mark.parametrize("family, params", [
    (NB, (200.0, 0.02)), (POISSON, (800.0,)), (BINOMIAL, (1844.0, 0.675)),
    (NB, (0.1691, 0.0638)), (POISSON, (3.7,)), (POISSON, (0.0042,)),
    (BINOMIAL, (26.0, 0.05)), (BINOMIAL, (1e12, 1e-11)),
])
def test_cdf_table_chunk_edges_match_the_recurrence_loop(monkeypatch, chunk, family, params):
    # tiny chunks put a chunk edge at or next to every step of the fill,
    # from the table's start (past 0 for the first three laws, whose pmf(0)
    # underflows) to its finish.  A chunk shorter than _TABLE_CHUNK
    # is filled by itertools.accumulate and a full one by numpy, so each
    # table but the smallest crosses from one fill to the other (the chunks
    # double from 1: from 2 on they are full once they reach the chunk size),
    # and at 2^16 these tables are all the itertools fill's
    monkeypatch.setattr(laws, "_TABLE_CHUNK", chunk)
    table = clusters.cdf_table(family, params)
    assert np.array_equal(oracles.full_table(table),
                          oracles.seeded_law_table(table, family, params))


def test_itertools_and_numpy_fills_give_the_same_table(monkeypatch):
    # 2.3e5 entries: the default chunk fills the first 2^16 - 1 with
    # itertools and the rest with numpy; a chunk that never fills, all of
    # them with itertools
    mixed = np.frombuffer(clusters.cdf_table(NB, (1.0, 2e-5)).grow(0.99))
    monkeypatch.setattr(laws, "_TABLE_CHUNK", 1 << 30)
    plain = np.frombuffer(clusters.cdf_table(NB, (1.0, 2e-5)).grow(0.99))
    assert mixed.size > 1 << 17
    assert np.array_equal(mixed, plain)


def test_binomial_table_ends_at_the_run_cap(monkeypatch):
    # a cap below the mode: the table stops at the cap and the median is beyond it
    monkeypatch.setattr(laws, "_RUN_CAP", 10)
    table = clusters.cdf_table(BINOMIAL, (1000.0, 0.5))
    assert np.array_equal(oracles.full_table(table),
                          oracles.law_cdf_table(BINOMIAL, (1000.0, 0.5), size=11))
    with pytest.raises(clusters.ClusterStatsError, match=r"beyond 10, where its CDF ends"):
        clusters.quantile(clusters.FitResult(BINOMIAL, (1000.0, 0.5)), 0.5)


@pytest.mark.parametrize("family, params, start_at_cap", [
    (POISSON, (4198.4,), False),  # pmf(cap) 2e-313: subnormal, so the walk is kept
    (POISSON, (4245.9,), False),  # pmf(cap) 5e-324
    (POISSON, (4251.6,), True),   # log pmf(cap) -748: exp gives 0
    (POISSON, (1e5,), True),
    (BINOMIAL, (1e12, 0.5), True),
    (NB, (1.7e308, 0.999), True),  # r + (r + k) p overflows in Loader's deviance
])
def test_law_never_in_float_range_starts_at_the_cap(monkeypatch, family, params, start_at_cap):
    # a cap short of the mode: the log pmf peaks at the cap, and a law
    # whose peak lies below the float range starts there, with exp of its
    # log pmf, subnormal or 0: the table the log-space walk ends in
    monkeypatch.setattr(laws, "_RUN_CAP", 2000)
    table = clusters.cdf_table(family, params)
    assert (table.start == 2000 and table.grow()[0] == 0.0) is start_at_cap
    assert np.array_equal(oracles.full_table(table),
                          oracles.law_cdf_table(family, params, size=2001))


# laws whose pmf(0) underflows: the tables the loop pins above start past
# 0, and two start terms whose coefficient is near 1 (r = 3.5, and n - k
# = 34 of 40), where Stirling's error comes from math.lgamma
UNDERFLOWING_LAWS = [
    (NB, (200.0, 1e-3)), (NB, (200.0, 0.02)), (NB, (2000.0, 0.01)), (NB, (3.5, 1e-90)),
    (POISSON, (800.0,)), (POISSON, (5000.0,)), (POISSON, (2e5,)),
    (BINOMIAL, (1844.0, 0.675)), (BINOMIAL, (3000.0, 0.9)), (BINOMIAL, (3e5, 0.5)),
    (BINOMIAL, (40.0, 1.0 - 1e-9)),
]


def _exact_pmfs(family, params, k: int) -> tuple[Decimal, Decimal]:
    """pmf(k - 1) and pmf(k) of a law with these float parameters, in
    50-digit decimal: p^r, e^-lambda or q^n times the first k ratios
    pmf(i) / pmf(i - 1)."""
    with decimal.localcontext(decimal.Context(prec=50, Emin=decimal.MIN_EMIN,
                                              Emax=decimal.MAX_EMAX)):
        if family is NB:
            r, p = map(Decimal, params)
            pmf, ratio = p ** r, lambda i: (r + i - 1) * (1 - p) / i
        elif family is POISSON:
            lam = Decimal(params[0])
            pmf, ratio = (-lam).exp(), lambda i: lam / i
        else:
            n, p = int(params[0]), Decimal(params[1])
            pmf, ratio = (1 - p) ** n, lambda i: (n - i + 1) * p / ((1 - p) * i)
        for i in range(1, k):
            pmf *= ratio(i)
        return pmf, pmf * ratio(k)


@pytest.mark.parametrize("family, params", UNDERFLOWING_LAWS)
def test_underflowing_law_starts_at_its_exact_pmf(family, params):
    # the table starts at the first k whose pmf reaches the float range,
    # with that pmf within 1e-12 of exact arithmetic on the same parameters
    table = clusters.cdf_table(family, params)
    before, exact = _exact_pmfs(family, params, table.start)
    assert before < Decimal(sys.float_info.min) <= exact
    assert abs(Decimal(table.grow()[0]) / exact - 1) < Decimal("1e-12")


@pytest.mark.parametrize("family, params, start", [
    (NB, (99998623.8305305, 0.9090897717465402), 9876239),
    (POISSON, (1e7,), 9881961),
], ids=["negbinomial", "poisson"])
def test_all_lost_fits_start_their_tables_at_once(family, params, start):
    # the fits of an all-lost 10^7-packet trace: each table starts near
    # 9.88e6, where the log-space walk, one math.log per step, took 2 s
    t0 = time.perf_counter()
    assert clusters.cdf_table(family, params).start == start
    assert time.perf_counter() - t0 < 0.5


def test_binomial_pmf0_where_one_minus_p_rounds_to_one():
    # 1 - 1e-17 is 1.0, so n * log(1 - p) would give pmf(0) = 1 and a table
    # that climbs past 1; pmf(0) is e^(-n p) = e^(-1e-5) to within p^2
    table = clusters.cdf_table(BINOMIAL, (1e12, 1e-17))
    assert table.grow(k=3)[0] == math.exp(-1e-5)
    assert max(table.grow(k=3)) <= 1.0
    assert clusters.quantile(clusters.FitResult(BINOMIAL, (1e12, 1e-17)), 0.999999) == 1


def test_binomial_mass_past_the_run_cap_raises():
    model = clusters.FitResult(BINOMIAL, (float(laws._RUN_CAP + 1), 1.0))
    with pytest.raises(clusters.ClusterStatsError, match=f"beyond {laws._RUN_CAP}"):
        clusters.quantile(model, 0.5)


def test_far_poisson_quantile_starts_in_chunks():
    # e^-lambda underflows for 4,916,582 terms; the one-step loop took 5 s
    start = time.perf_counter()
    assert clusters.quantile(clusters.FitResult(POISSON, (5e6,)), 0.5) == 5_000_000
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("family, params, expect", [
    (BINOMIAL, (3.0, 0.0), 0), (BINOMIAL, (3.0, 1.0), 3), (POISSON, (0.0,), 0),
    (BINOMIAL, (1844.0, 0.675), None), (POISSON, (800.0,), None),  # pmf(0) underflows
])
def test_edge_laws_keep_their_quantiles(family, params, expect):
    model = clusters.FitResult(family, params)
    for target in (1e-9, *TARGETS, 1.0 - 1e-9):
        k = clusters.quantile(model, target)
        assert k == oracles.doubling_quantile(model, target), target
        assert expect is None or k == expect
    if family is BINOMIAL and params[1] == 1.0:
        assert oracles.full_table(clusters.cdf_table(family, params)).tolist() == [0, 0, 0, 1]


def test_tail_quantile_reads_the_table_quickly():
    # the doubling gammaln path took about 9.6 s for this quantile
    start = time.perf_counter()
    model = clusters.FitResult(NB, (1.0, 1e-6))
    assert clusters.quantile(model, 0.999) == 6_907_751
    assert time.perf_counter() - start < 2.0


def test_quantile_past_the_run_cap_raises():
    # 11,512,923 packets; the doubling path answered up to 2^24
    start = time.perf_counter()
    with pytest.raises(clusters.ClusterStatsError, match="beyond 10000000,"):
        clusters.quantile(clusters.FitResult(NB, (1.0, 4e-7)), 0.99)
    assert time.perf_counter() - start < 2.0


def test_quantile_beyond_the_float_cdf_raises_at_once():
    # the table stops where a term no longer moves the sum, at 1 - 3e-13
    start = time.perf_counter()
    with pytest.raises(clusters.ClusterStatsError, match="where its CDF ends"):
        clusters.quantile(clusters.FitResult(NB, (200.0, 1e-3)), 1.0 - 1e-13)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------- latency

def test_latency_from_clusters_examples():
    params = clusters.LatencyParams(l0_s=595e-6, ipd_s=0.0, pt_s=278.3e-6)
    assert clusters.latency_from_clusters(0, params) == pytest.approx(595e-6)
    assert clusters.latency_from_clusters(1, params) * 1e6 == pytest.approx(873.3)
    assert clusters.latency_from_clusters(59, params) * 1e3 == pytest.approx(17.0, abs=0.1)
    with pytest.raises(clusters.ClusterStatsError):
        clusters.latency_from_clusters(-1, params)


def test_latency_linearity():
    params = clusters.LatencyParams(l0_s=595e-6, ipd_s=5e-6, pt_s=278.3e-6)
    for a, b in [(0, 3), (4, 9), (17, 59)]:
        gap = (clusters.latency_from_clusters(a + b, params)
               - clusters.latency_from_clusters(a, params))
        assert gap == pytest.approx(b * (params.ipd_s + params.pt_s), rel=1e-12)


@pytest.mark.parametrize("baud", [57000, 115200, 230000])
@pytest.mark.parametrize("ipd_s", [0.0, 5e-6, 1e-3])
def test_sal_latency_is_the_trace_latency_after_a_loss_run(baud, ipd_s):
    # one latency law: the SAL for n packets is the latency the relay
    # records for a packet relayed after a run of n losses, on the same link
    params = clusters.LatencyParams.from_baud(baud, ipd_s=ipd_s)
    for n in (1, 2, 7, 59, 1000):
        received = np.array([True] + [False] * n + [True])
        relayed, latency_s = sim.relay(LinkConfig(baud=baud, ipd_s=ipd_s), received)
        assert relayed[-1]
        assert latency_s[-1] == clusters.latency_from_clusters(n, params), n


def test_latency_params_from_baud():
    params = clusters.LatencyParams.from_baud(230000)
    assert params.pt_s == 64 / 230000
    assert params.l0_s * 1e6 == pytest.approx(595.0, abs=1.0)


# --------------------------------------------------------------- model table

def test_bundled_table_rows():
    table = clusters.ModelTable.bundled()
    assert len(table.pers) == 6
    model = table.model_at(0.3)
    assert model.family is clusters.Family.NEG_BINOMIAL
    assert model.params == (0.1691, 0.0638)
    assert table.model_at(0.001).family is clusters.Family.POISSON


def test_model_table_interpolation_between_rows():
    table = clusters.ModelTable.bundled()
    mid = table.model_at(math.sqrt(0.3 * 0.1))  # log midpoint of two NB rows
    assert mid.family is clusters.Family.NEG_BINOMIAL
    r_mid = math.sqrt(0.1691 * 0.1719)
    p_mid = math.sqrt(0.0638 * 0.2555)
    assert mid.params == pytest.approx((r_mid, p_mid))
    # across the family boundary the interpolated mean rides a Poisson law
    cross = table.model_at(2e-3)
    assert cross.family is clusters.Family.POISSON


def test_model_table_snaps_to_a_row_within_1e9_relative_on_both_sides():
    # a PER a round-off away from a row, above or below it, is that row; a
    # PER 1e-6 below it is not (below the first row it takes that row's law)
    table = clusters.ModelTable.bundled()
    for row, model in zip(table.pers, table.models):
        assert table.model_at(row * (1 - 1e-12)) == model
        assert table.model_at(row * (1 + 1e-12)) == model
        if row == table.per_min:
            assert table.model_at(row * (1 - 1e-6)) == model
        else:
            assert table.model_at(row * (1 - 1e-6)) != model


@settings(max_examples=40)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@example(0.0)
@example(math.nextafter(1.0, 0.0))
def test_below_the_span_every_quantile_is_the_lowest_rows(fraction):
    # no quantile steps down as the PER falls below the span: [0, per_min)
    # takes the lowest row's law at every default target
    table = clusters.ModelTable.bundled()
    targets, params = clusters.DEFAULT_TARGETS, clusters.LatencyParams.from_baud(230000)
    below = clusters.sal_curve([table.per_min * fraction], targets, table, params)
    edge = clusters.sal_curve([table.per_min], targets, table, params)
    assert [p.packets for p in below] == [p.packets for p in edge]


def test_model_table_out_of_range():
    table = clusters.ModelTable.bundled()
    # one class for both tables' lookups
    assert clusters.OutOfRange is channel.OutOfRange
    with pytest.raises(clusters.OutOfRange,
                       match=r"^per 0.5 outside model table span \[0.0, 0.3\]$"):
        table.model_at(0.5)
    with pytest.raises(clusters.OutOfRange):
        table.model_at(-1e-5)
    with pytest.raises(clusters.OutOfRange):
        table.model_at(math.nan)


@pytest.mark.parametrize("rows", [
    [(0.0, "poisson", [0.2]), (0.3, "poisson", [0.4])],  # model_at took log(0)
    [(-0.1, "poisson", [0.2])], [(1.5, "poisson", [0.2])], [(math.nan, "poisson", [0.2])],
    [(0.1, "negbinomial", [0.2, 1.0])], [(0.1, "negbinomial", [-1.0, 0.5])],
    [(0.1, "poisson", [0.2, 0.3])], [(0.1, "negbinomial", [0.2])],
    [(0.1, "poisson", [math.inf])], [(0.1, "poisson", [0.0])],
    [(0.1, "binomial", [2.5, 0.3])], [(0.1, "binomial", [3.0, 0.0])],
    [(0.1, "poisson", [0.2]), (0.1, "poisson", [0.3])],  # PERs not increasing
], ids=["per-0", "per-negative", "per-above-1", "per-nan", "nb-p-1", "nb-negative-r",
        "poisson-two-params", "nb-one-param", "infinite-lambda", "zero-lambda",
        "binomial-fractional-n", "binomial-p-0", "per-twice"])
def test_model_table_from_rows_checks_each_row(rows):
    # the library constructor makes the CSV reader's row checks
    with pytest.raises(clusters.ClusterStatsError):
        clusters.ModelTable.from_rows(rows)


def test_model_table_pers_are_a_tuple_of_floats():
    table = clusters.ModelTable.bundled()
    assert table.pers == (6e-4, 1e-3, 3e-3, 5e-2, 1e-1, 3e-1)
    assert all(type(per) is float for per in table.pers)
    assert clusters.ModelTable.from_rows([(np.float64(0.2), "poisson", [0.1])]).pers == (0.2,)


def test_model_table_csv_errors(tmp_path):
    bad = tmp_path / "m.csv"
    bad.write_text("per,family,param1\n0.1,negbinomial,0.2\n")
    with pytest.raises(clusters.ClusterStatsError):
        clusters.ModelTable.from_csv(bad)
    bad.write_text("per,family,param1,param2\n0.1,weird,0.2,\n")
    with pytest.raises(clusters.ClusterStatsError):
        clusters.ModelTable.from_csv(bad)
    for row in ("0.1,poisson", "0.1,poisson,0.2,,9"):  # too few / too many fields
        bad.write_text(f"per,family,param1,param2\n{row}\n")
        with pytest.raises(clusters.ClusterStatsError, match="m.csv:2: expected 4 fields"):
            clusters.ModelTable.from_csv(bad)


# ----------------------------------------------------------------------- SAL

def test_sal_published_anchor_points():
    table = clusters.ModelTable.bundled()
    params = clusters.LatencyParams(l0_s=595e-6, ipd_s=0.0, pt_s=278.3e-6)
    points = {(pt.per, pt.target): pt
              for pt in clusters.sal_curve(table.pers, TARGETS, table, params)}
    assert points[(0.3, 0.999)].packets == 59
    assert points[(0.001, 0.999)].packets == 1
    assert points[(0.001, 0.999)].latency_s < 1e-3
    column = [points[(per, 0.999)].packets for per in sorted(table.pers, reverse=True)]
    assert column == [59, 13, 8, 2, 1, 1]


def test_sal_nondecreasing_along_grid():
    table = clusters.ModelTable.bundled()
    params = clusters.LatencyParams(l0_s=595e-6, ipd_s=0.0, pt_s=278.3e-6)
    grid = np.logspace(math.log10(table.per_min), math.log10(table.per_max), 80)
    for target in TARGETS:
        packets = [pt.packets for pt in clusters.sal_curve(grid, [target], table, params)]
        assert all(a <= b for a, b in zip(packets, packets[1:]))


# ------------------------------------------------- model against data

def test_prediction_error_synthetic_within_paper_band():
    # the fitted model stays within 5 packets of the data below the 95% target
    process = channel.NbCluster.for_law(0.1691, 0.0638)
    lost = channel.sample_losses(process, 10**5, np.random.default_rng(17))
    dist = clusters.extract_clusters(_trace_of(~lost))
    best = clusters.select_best([clusters.fit(dist, f) for f in clusters.Family])
    for target in (0.5, 0.75, 0.9, 0.94):
        assert abs(clusters.quantile(best, target) - dist.quantile(target)) <= 5
