"""Acceptance suite: every release criterion with one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
status lines on stdout.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.stats import binom as sp_binom
from scipy.stats import nbinom as sp_nbinom
from scipy.stats import poisson as sp_poisson

from vlcrelay import channel, cli, clusters, codec, node, safety, sim

import oracles

TARGETS = (0.9, 0.95, 0.99, 0.999)


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL - {desc}")
                raise
            print(f"criterion {num}: PASS - {desc}")
            return result
        return wrapper
    return decorate


@criterion(1, "published quantile table reproduced exactly")
def test_criterion_1_quantile_table():
    t0 = time.perf_counter()
    cases = [
        (clusters.Family.NEG_BINOMIAL, (0.1691, 0.0638), dict(zip(TARGETS, (8, 14, 31, 59)))),
        (clusters.Family.NEG_BINOMIAL, (0.1719, 0.2555), dict(zip(TARGETS, (2, 3, 7, 13)))),
        (clusters.Family.NEG_BINOMIAL, (0.1089, 0.3342), dict(zip(TARGETS, (1, 1, 4, 8)))),
        (clusters.Family.NEG_BINOMIAL, (0.028, 0.7053), {0.999: 2}),
        (clusters.Family.POISSON, (0.0042,), {0.999: 1}),
        (clusters.Family.POISSON, (0.0023,), {0.999: 1}),
    ]
    for family, params, expectations in cases:
        model = clusters.FitResult(family, params)
        for target, expect in expectations.items():
            assert clusters.quantile(model, target) == expect, (family, params, target)
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "minimum relay latency 595 us +/- 1 us in both modes")
def test_criterion_2_minimum_latency():
    t0 = time.perf_counter()
    for mode in (node.Mode.BROADCAST, node.Mode.BEACON):
        config = node.LinkConfig(baud=230000, mode=mode)
        trace = sim.run(config, channel.IidPacket(0.0), 1, seed=0)
        assert trace.n_relayed == 1
        assert abs(trace.latency_s[0] * 1e6 - 595.0) <= 1.0
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "sub-ms SAL threshold between the 1e-3 and 5e-2 model rows")
def test_criterion_3_sal_thresholds():
    table = clusters.ModelTable.bundled()
    params = clusters.LatencyParams(l0_s=595e-6, ipd_s=0.0, pt_s=278.3e-6)

    n_low = clusters.quantile(table.model_at(1e-3), 0.999)
    sal_low = clusters.latency_from_clusters(n_low, params)
    assert sal_low < 1e-3

    n_mid = clusters.quantile(table.model_at(5e-2), 0.999)
    sal_mid = clusters.latency_from_clusters(n_mid, params)
    assert sal_mid >= 1e-3

    # worst tabulated row: the latency law gives ~17 ms, not single-digit ms
    n_worst = clusters.quantile(table.model_at(0.3), 0.999)
    sal_worst = clusters.latency_from_clusters(n_worst, params)
    assert n_worst == 59
    assert sal_worst == pytest.approx(17.0147e-3, abs=0.05e-3)
    print(f"  note: PER 0.3 @ 99.9% -> {n_worst} packets = {sal_worst * 1e3:.2f} ms "
          f"under latency = l0 + n*(ipd+pt); a single-digit-ms figure would need "
          f"~{int((8e-3 - params.l0_s) / params.pt_s)} packets and is not "
          f"consistent with this model row")


@criterion(4, "stopping-distance table reproduced within 0.01 m per cell")
def test_criterion_4_stopping_distance_table():
    t0 = time.perf_counter()
    # 18 cells: reaction and stop distance for 3 actors x 3 scenarios, using
    # g = 9.8, mu = 0.7, t_human = 1.37 s, t_rf = 0.100 s.  The two 60 km/h
    # human cells are pinned to the values those constants produce
    # (22.83 / 43.08); the published 20.83 / 41.08 match t = 1.25 s instead
    # and sit exactly 2.00 m away (see companion test in test_safety.py).
    expected = {
        40: (0.01, 1.11, 15.22, 9.01, 10.11, 24.22),
        60: (0.02, 1.67, 22.83, 20.27, 21.92, 43.08),
        90: (0.03, 2.50, 34.25, 45.58, 48.05, 79.80),
    }
    rows = safety.comparison_table(safety.bundled_scenarios(),
                                   mu=0.7, g=9.8, t_human_s=1.37, t_rf_s=0.100)
    checked = 0
    for row in rows:
        want = expected[int(row.v_kmh)]
        got = (row.reaction_vlc_m, row.reaction_rf_m, row.reaction_human_m,
               row.stop_vlc_m, row.stop_rf_m, row.stop_human_m)
        for got_cell, want_cell in zip(got, want):
            assert abs(got_cell - want_cell) <= 0.01 + 1e-9, (row.v_kmh, want_cell)
            checked += 1
    assert checked == 18
    assert time.perf_counter() - t0 < 1.0


@criterion(5, "codec: exhaustive round-trip, chip count, pair validity, balance")
def test_criterion_5_codec_properties():
    for value in range(1 << 16):
        payload = value.to_bytes(2, "big")
        assert codec.deframe(codec.frame(payload)) == payload
    rng = np.random.default_rng(0)
    for _ in range(500):
        bits = rng.integers(0, 2, size=32).astype(np.uint8)
        stream = codec.manchester_encode(bits)
        chips = stream.chips
        assert chips.size == 64
        pairs = chips.reshape(-1, 2)
        assert np.all(pairs[:, 0] != pairs[:, 1])
        assert chips.mean() == 0.5
        assert np.array_equal(codec.manchester_decode(stream), bits)


def _window_distribution(draws):
    draws = np.asarray(draws, dtype=np.int64)
    return oracles.dist_from_hist(np.bincount(draws), n_packets=int(draws.sum() + draws.size))


@criterion(6, "fit recovery within 10% and generator-family selection")
def test_criterion_6_fit_recovery():
    rng = np.random.default_rng(42)

    nb_dist = _window_distribution(sp_nbinom.rvs(0.17, 0.06, size=10**5, random_state=rng))
    nb_fit = clusters.fit(nb_dist, clusters.Family.NEG_BINOMIAL)
    assert abs(nb_fit.params[0] - 0.17) / 0.17 < 0.10
    assert abs(nb_fit.params[1] - 0.06) / 0.06 < 0.10

    po_dist = _window_distribution(sp_poisson.rvs(0.004, size=10**5, random_state=rng))
    po_fit = clusters.fit(po_dist, clusters.Family.POISSON)
    assert abs(po_fit.params[0] - 0.004) / 0.004 < 0.10

    bi_dist = _window_distribution(sp_binom.rvs(5, 0.3, size=10**5, random_state=rng))
    bi_fit = clusters.fit(bi_dist, clusters.Family.BINOMIAL)
    assert bi_fit.params[0] == 5
    assert abs(bi_fit.params[1] - 0.3) / 0.3 < 0.10

    nb_best = clusters.select_best([clusters.fit(nb_dist, f) for f in clusters.Family])
    assert nb_best.family is clusters.Family.NEG_BINOMIAL
    po_best = clusters.select_best([clusters.fit(po_dist, f) for f in clusters.Family])
    assert po_best.family is clusters.Family.POISSON


@criterion(7, "Monte-Carlo PER consistency and exact relay-blocking count")
def test_criterion_7_monte_carlo_per():
    beacon = node.LinkConfig(baud=230000, mode=node.Mode.BEACON)
    for i, p in enumerate((0.3, 0.1, 0.05)):
        trace = sim.run(beacon, channel.IidPacket(p), 10**5, seed=100 + i)
        per = node.compute_per(trace.n_tx, trace.n_relayed, trace.config)
        assert abs(per - p) <= 0.01, (p, per)

    broadcast = node.LinkConfig(baud=230000, mode=node.Mode.BROADCAST, ipd_s=0.0)
    for n in (1000, 1001, 7):
        trace = sim.run(broadcast, channel.IidPacket(0.0), n, seed=0)
        assert trace.n_relayed == math.ceil(n / 2), n


@criterion(8, "CLI workflows rerun byte-identically with the same seed")
def test_criterion_8_cli_determinism(tmp_path):
    d = tmp_path / "work"
    d.mkdir()
    workflows = [
        ["simulate", "--baud", "230000", "--mode", "broadcast", "--per", "0.2",
         "--n", "5000", "--seed", "11", "--out", f"{d}/trace.csv",
         "--summary", f"{d}/summary.txt"],
        ["analyze", f"{d}/trace.csv", "--clusters-out", f"{d}/clusters.csv",
         "--report-out", f"{d}/report.txt"],
        ["sal", "--out", f"{d}/sal.csv"],
        ["safety", "--out", f"{d}/safety.csv"],
    ]

    def run_all():
        for argv in workflows:
            assert cli.main(list(argv)) == 0
        return sorted((p.name, p.read_bytes()) for p in d.iterdir())

    first = run_all()
    second = run_all()
    assert len(first) == 6
    assert first == second
