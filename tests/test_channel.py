import math
import time

import numpy as np
import pytest

from vlcrelay import channel, clusters, laws

import oracles


def rng(seed=0):
    return np.random.default_rng(seed)


def test_parameter_validation():
    with pytest.raises(channel.ChannelError):
        channel.IidPacket(p_loss=1.5)
    with pytest.raises(channel.ChannelError):
        channel.IidBit(p_bit=-0.1)
    with pytest.raises(channel.ChannelError):
        channel.GilbertElliott(p_gb=2.0, p_bg=0.1, loss_good=0.0, loss_bad=0.5)
    with pytest.raises(channel.ChannelError):
        channel.NbCluster(r=0.0, p=0.5, p_start=0.5)
    with pytest.raises(channel.ChannelError):
        channel.NbCluster(r=0.1, p=1.0, p_start=0.5)


@pytest.mark.parametrize("make, message", [
    (lambda: channel.NbCluster(r=math.nan, p=0.5, p_start=0.5), "r must be > 0, got nan"),
    (lambda: channel.NbCluster.for_target_per(math.nan, 0.5, 0.3), "r must be > 0, got nan"),
    (lambda: channel.process_from_spec("nb-cluster:r=nan,p=0.5,p_start=0.5"),
     "r must be > 0, got nan"),
    (lambda: channel.process_from_spec("nb-cluster:r=nan,p=0.5,target_per=0.3"),
     "r must be > 0, got nan"),
    (lambda: channel.NbCluster.for_law(math.nan, 0.5), "r must be > 0, got nan"),
])
def test_nb_cluster_nan_r_is_named(make, message):
    # not through the mean-cluster check ("mean cluster size inf ...")
    with pytest.raises(channel.ChannelError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("r, p", [
    (1.0, 1e-300),  # mean 1e300: the quantile search never ended
    (1e-6, 1e-12),  # r(1-p)/p is 1e6, but clusters of >= 1 average 3.6e10
    (1e-20, 0.5),   # p**r rounds to 1: no mass above zero, an infinite mean
    (1.0, 1e-7 / 1.01),  # just past the cap
])
def test_nb_cluster_rejects_mean_beyond_run_cap(r, p):
    with pytest.raises(channel.ChannelError, match="mean cluster size"):
        channel.NbCluster(r=r, p=p, p_start=0.5)
    with pytest.raises(channel.ChannelError, match="mean cluster size"):
        channel.NbCluster.for_law(r, p)
    with pytest.raises(channel.ChannelError, match="mean cluster size"):
        channel.NbCluster.for_target_per(r, p, 0.3)


def test_nb_cluster_accepts_bundled_laws():
    assert channel.NbCluster(r=1.0, p=2e-7, p_start=0.5).mean_cluster == pytest.approx(5e6)
    channel.NbCluster.for_target_per(0.1691, 0.0638, 0.3)
    table = clusters.ModelTable.bundled()
    laws = [(per, m.params) for per, m in zip(table.pers, table.models)
            if m.family is clusters.Family.NEG_BINOMIAL]
    assert len(laws) >= 4
    for per, (r, p) in laws:
        channel.NbCluster.for_law(r, p)
        channel.NbCluster.for_target_per(r, p, float(per))


@pytest.mark.parametrize("process", [
    channel.IidPacket(0.0),
    channel.IidBit(0.0),
    channel.GilbertElliott(p_gb=0.1, p_bg=0.1, loss_good=0.0, loss_bad=0.0),
])
def test_zero_loss_parameter_never_loses(process):
    assert not channel.sample_losses(process, 5000, rng()).any()


@pytest.mark.parametrize("process", [
    channel.IidPacket(1.0),
    channel.IidBit(1.0),
    channel.GilbertElliott(p_gb=0.1, p_bg=0.1, loss_good=1.0, loss_bad=1.0),
])
def test_one_loss_parameter_loses_all(process):
    assert channel.sample_losses(process, 5000, rng()).all()


def test_iid_bit_matches_closed_form():
    p_bit = 0.01
    process = channel.IidBit(p_bit)
    lost = channel.sample_losses(process, 10**6, rng(42))
    expect = 1 - (1 - p_bit) ** 32
    assert lost.mean() == pytest.approx(expect, abs=0.01)
    assert process.loss_rate == pytest.approx(expect)


def test_gilbert_elliott_stationary_loss_rate():
    process = channel.GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.5)
    pi_bad = 0.02 / (0.02 + 0.1)
    expect = (1 - pi_bad) * 0.01 + pi_bad * 0.5
    assert process.loss_rate == pytest.approx(expect)
    lost = channel.sample_losses(process, 10**6, rng(3))
    assert lost.mean() == pytest.approx(expect, abs=0.01)


def test_nbcluster_cluster_law_ks():
    from scipy.stats import nbinom

    process = channel.NbCluster.for_target_per(0.1691, 0.0638, 0.3)
    lost = channel.sample_losses(process, 10**6, rng(5))
    padded = np.concatenate(([False], lost, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    runs = edges[1::2] - edges[0::2]
    sizes = np.arange(1, runs.max() + 1)
    ecdf = np.searchsorted(np.sort(runs), sizes, side="right") / runs.size
    p0 = nbinom.cdf(0, process.r, process.p)
    model = (nbinom.cdf(sizes, process.r, process.p) - p0) / (1 - p0)
    assert np.max(np.abs(ecdf - model)) < 0.02


def test_nbcluster_hits_target_per():
    process = channel.NbCluster.for_target_per(0.1691, 0.0638, 0.3)
    lost = channel.sample_losses(process, 10**6, rng(6))
    assert lost.mean() == pytest.approx(0.3, abs=0.01)
    assert process.loss_rate == pytest.approx(0.3)


def test_nbcluster_for_law_window_distribution():
    # per-window law (zeros included) equals the unconditional law
    process = channel.NbCluster.for_law(0.1691, 0.0638)
    assert process.p_start == pytest.approx(1 - 0.0638 ** 0.1691)


def test_nbcluster_unreachable_target():
    with pytest.raises(channel.ChannelError):
        channel.NbCluster.for_target_per(0.1691, 0.0638, 0.95)


def test_seed_determinism():
    process = channel.GilbertElliott(p_gb=0.05, p_bg=0.2, loss_good=0.02, loss_bad=0.6)
    a = channel.sample_losses(process, 20000, rng(11))
    b = channel.sample_losses(process, 20000, rng(11))
    c = channel.sample_losses(process, 20000, rng(12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def oracle_walk(process, n, seed):
    """Loss flags from ``n`` per-packet oracle steps on one seeded stream."""
    gen = rng(seed)
    state = None
    lost = np.empty(n, dtype=bool)
    for i in range(n):
        lost[i], state = oracles.sample_packet_outcome(process, gen, state)
    return lost


@pytest.mark.parametrize("process", [
    channel.IidPacket(0.2),
    channel.IidBit(0.01),
    channel.GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.5),
])
def test_per_packet_walks_same_stream_as_batch(process):
    batch = channel.sample_losses(process, 3000, rng(9))
    assert np.array_equal(batch, oracle_walk(process, 3000, seed=9))


NB = clusters.Family.NEG_BINOMIAL


def _table(r, p):
    """The finished CDF table the sampler reads for the law (r, p)."""
    table = clusters.cdf_table(NB, (r, p))
    table.grow(math.inf)
    assert table.finished
    return table


def _sizes(table, r, p, u):
    return channel._cluster_sizes(table, p ** r, np.asarray(u, dtype=float))


@pytest.mark.parametrize("r, p", [
    (0.1691, 0.0638), (0.1719, 0.2555), (0.1089, 0.3342), (0.028, 0.7053),  # model table
    (5, 0.5), (0.01, 0.9),
    (200, 1e-3),  # p**r is 0: a zero start would send every cluster to the cap
])
def test_nb_cdf_table_matches_loop_and_scipy_stats(r, p):
    from scipy.stats import nbinom

    table = _table(r, p)
    assert np.array_equal(oracles.full_table(table), oracles.seeded_law_table(table, NB, (r, p)))
    u = rng(2024).random(200_000)
    target = p ** r + (1.0 - u) * (1.0 - p ** r)
    assert np.array_equal(_sizes(table, r, p, u), np.maximum(nbinom.ppf(target, r, p), 1))


@pytest.mark.parametrize("r, p", [(0.1691, 0.0638), (5, 0.5), (0.01, 0.9), (200, 1e-3)])
def test_draw_cluster_size_matches_scipy_stats(r, p):
    process = channel.NbCluster(r=r, p=p, p_start=0.5)
    table = _table(r, p)
    p0 = p ** r
    near_p0 = [np.nextafter(p0, 0.0), p0, np.nextafter(p0, 1.0)]
    near_one = [1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52]  # target within ulps of p0
    grid = np.linspace(0.0, 1.0, 1000, endpoint=False)[1:]
    for u in [*near_p0, *near_one, *grid]:
        got = int(_sizes(table, r, p, [u])[0])
        assert got == oracles.draw_cluster_size(process, oracles.FixedRandom(u)), u
    # within ~1e-12 of 1 the summed table and the Boost quantile part: a
    # CDF summed over 3e5 terms is good to ~1e-13, while the pmf out there
    # is ~1e-16 (at u = 1e-12 for (200, 1e-3) the table gives 316511 and
    # Boost 315928; at u = 2^-53 for (5, 0.5), 67 and 69).  The table's
    # answer is pinned there
    loop = oracles.seeded_law_table(table, NB, (r, p))
    for u in [0.0, 2.0 ** -53, 2.0 ** -52, 1e-12]:
        assert _sizes(table, r, p, [u])[0] == oracles.table_cluster_size(loop, p0, u), u
    # for each pair, u = 0 rounds the target to 1.0: the support end
    assert p0 + (1.0 - p0) == 1.0
    assert _sizes(table, r, p, [0.0])[0] == laws._RUN_CAP


def test_target_above_a_table_that_stopped_short_takes_its_last_index():
    # the (200, 1e-3) table ends where a term no longer moves the float
    # CDF, at 1 - 3e-13, far short of the cap: targets above that end stay
    # in the law's tail (nbinom.ppf gives 340508 and 337880 here)
    table = _table(200, 1e-3)
    last = table.start + len(table.grow()) - 1
    assert last < laws._RUN_CAP
    u = np.array([2.0 ** -53, 2.0 ** -52])
    p0 = 1e-3 ** 200
    assert np.all(p0 + (1.0 - u) * (1.0 - p0) > table.grow()[-1])
    assert _sizes(table, 200, 1e-3, u).tolist() == [last, last]


@pytest.mark.parametrize("r, p", [(0.1, 1.2e-8), (1.0, 2e-7), (3.0, 5e-7), (10.0, 1e-6)])
def test_draw_cluster_size_near_run_cap(r, p):
    from scipy.stats import nbinom

    table = _table(r, p)
    cdf = np.frombuffer(table.grow())
    assert table.start == 0 and cdf.size == laws._RUN_CAP + 1
    # a prefix against the loop, the end against scipy's CDF at the cap
    assert np.array_equal(cdf[:10**5], oracles.law_cdf_table(NB, (r, p), size=10**5))
    assert cdf[-1] == pytest.approx(nbinom.cdf(laws._RUN_CAP, r, p), rel=1e-9)
    # targets within ulps of the table's end, on both sides of it: the
    # last pmf term spans all of them, so each one draws the cap
    p0 = p ** r
    u_cap = (1.0 - cdf[-1]) / (1.0 - p0)
    du = np.spacing(cdf[-1]) / (1.0 - p0)
    u = u_cap + np.arange(-40, 41) * du
    target = p0 + (1.0 - u) * (1.0 - p0)
    assert target.min() < cdf[-1] < target.max()
    assert cdf[-1] - cdf[-2] > target.max() - target.min()
    assert np.all(_sizes(table, r, p, u) == laws._RUN_CAP)


def test_draw_cluster_size_far_beyond_run_cap_is_quick():
    # Boost's quantile search took over ten seconds here (for 2.6e9
    # packets); the table reaches the cap in a fraction of a second
    start = time.perf_counter()
    table = clusters.cdf_table(NB, (0.1, 1.2e-8))
    assert _sizes(table, 0.1, 1.2e-8, [2.0 ** -52])[0] == laws._RUN_CAP
    assert time.perf_counter() - start < 1.0


def test_nb_cluster_near_run_cap_builds_one_table_per_call(monkeypatch):
    built = []

    def counted(family, params):
        built.append(clusters.cdf_table(family, params))
        return built[-1]

    monkeypatch.setattr(laws, "cdf_table", counted)
    process = channel.NbCluster(r=0.1, p=1.2e-8, p_start=0.5)
    start = time.perf_counter()
    lost = channel.sample_losses(process, 10**5, rng(8))
    assert time.perf_counter() - start < 1.0
    assert lost.size == 10**5 and lost.any()
    assert len(built) == 1 and built[0].finished


@pytest.mark.parametrize("process", [
    channel.NbCluster.for_target_per(0.1691, 0.0638, 0.3),
    channel.NbCluster(r=5, p=0.5, p_start=0.3),
    channel.NbCluster(r=0.01, p=0.9, p_start=0.9),
], ids=["per-0.3-anchor", "r5", "r0.01"])
@pytest.mark.parametrize("seed", [0, 1, 2, 77])
def test_nb_cluster_losses_match_scipy_stats_walk(process, seed):
    batch = channel.sample_losses(process, 2000, rng(seed))
    assert np.array_equal(batch, oracles.nb_cluster_walk(process, 2000, rng(seed)))


def _replay_batches(process, seed, count):
    """The (gap, cluster) runs of the first ``count`` batches of stream 2,
    replayed from the generator's draws."""
    table, g = clusters.cdf_table(NB, (process.r, process.p)), rng(seed)
    batches = []
    for _ in range(count):
        gaps = g.geometric(process.p_start, channel._NB_CYCLES)
        sizes = _sizes(table, process.r, process.p, g.random(channel._NB_CYCLES))
        batches.append(np.stack((gaps, sizes), axis=1).ravel())
    return batches


def _nb_cut(batches, cut):
    """A trace length at one kind of place in the replayed batches: at,
    just before or just after the first batch's end; one packet into a gap
    or into a cluster of the second batch; midway into the third batch."""
    first, second, third = (int(b.sum()) for b in batches)
    if cut in ("gap", "cluster"):
        starts = first + np.cumsum(batches[1]) - batches[1]
        odd = cut == "cluster"  # runs alternate gap, cluster
        i = next(i for i in range(odd, batches[1].size, 2) if batches[1][i] >= 2)
        return int(starts[i]) + 1
    return {"end": first, "end-1": first - 1, "end+1": first + 1,
            "three-batches": first + second + third // 2}[cut]


@pytest.mark.parametrize("process", [
    channel.NbCluster.for_target_per(0.1691, 0.0638, 0.3),
    channel.NbCluster(r=5, p=0.5, p_start=0.3),  # short cycles: early batch edges
], ids=["per-0.3-anchor", "r5"])
@pytest.mark.parametrize("cut", ["end", "end-1", "end+1", "gap", "cluster", "three-batches"])
def test_nb_cluster_batches_equal_whole_trace_layout(process, cut):
    n = _nb_cut(_replay_batches(process, 6, 3), cut)
    ours, theirs = rng(6), rng(6)
    lost = channel.sample_losses(process, n, ours)
    assert np.array_equal(lost, oracles.nb_whole_trace(process, n, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state  # the same draws


@pytest.mark.parametrize("p_start", [1e-18, 1e-300])
def test_nb_cluster_gap_past_the_trace_is_cut(p_start):
    # geometric gaps near 2^63: their sum wrapped around int64
    process = channel.NbCluster(r=1.0, p=0.5, p_start=p_start)
    assert not channel.sample_losses(process, 10, rng(1)).any()


# sample_losses draws the iid and Gilbert-Elliott streams in blocks of B
# packets: lengths around the block edges, against one whole draw or the loop
B = channel._BLOCK
BLOCK_EDGES = [1, 2, B - 1, B, B + 1, 3 * B + 5]


@pytest.mark.parametrize("n", [1, 2, 5000, 200_000, *BLOCK_EDGES[2:]])
def test_nb_cluster_stream_is_a_prefix_of_longer_runs(n):
    # fixed-size blocks: n packets are the first n of any longer run
    process = channel.NbCluster.for_target_per(0.1691, 0.0638, 0.3)
    lost = channel.sample_losses(process, n, rng(4))
    assert np.array_equal(lost, channel.sample_losses(process, 300_000, rng(4))[:n])


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_iid_packet_blocks_equal_one_draw(n, p):
    lost = channel.sample_losses(channel.IidPacket(p), n, rng(n))
    assert np.array_equal(lost, rng(n).random(n) < p)


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("p", [0.0, 0.005, 0.1, 1.0])
def test_iid_bit_blocks_equal_one_draw(n, p):
    lost = channel.sample_losses(channel.IidBit(p), n, rng(n))
    assert np.array_equal(lost, rng(n).binomial(channel.BITS_PER_PACKET, p, n) > 0)


@pytest.mark.parametrize("process", [
    channel.IidPacket(0.2),
    channel.IidBit(0.01),
    channel.GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.5),
    channel.GilbertElliott(p_gb=1.0, p_bg=0.3, loss_good=0.2, loss_bad=0.7),
], ids=["iid-packet", "iid-bit", "gilbert-elliott", "gilbert-elliott-forced"])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_blocked_stream_is_a_prefix_of_longer_runs(process, n):
    # with test_nb_cluster_stream_is_a_prefix_of_longer_runs, all four
    # processes: n packets are the first n of any longer run
    lost = channel.sample_losses(process, n, rng(4))
    assert np.array_equal(lost, channel.sample_losses(process, 4 * B, rng(4))[:n])


@pytest.mark.parametrize("p_gb, p_bg, loss_good, loss_bad", [
    (0.02, 0.1, 0.01, 0.5),
    (0.5, 0.5, 0.0, 1.0),
    (0.9, 0.95, 0.3, 0.6),
    (0.0, 0.0, 0.1, 0.9),
    (1.0, 1.0, 0.1, 0.9),
    (1.0, 0.0, 0.1, 0.9),
    (0.0, 1.0, 0.1, 0.9),
    (1.0, 0.3, 0.2, 0.7),
    (0.3, 1.0, 0.2, 0.7),
])
@pytest.mark.parametrize("n", [1, 2, 3, 20000, *BLOCK_EDGES[2:]])
def test_gilbert_elliott_matches_loop(p_gb, p_bg, loss_good, loss_bad, n):
    process = channel.GilbertElliott(p_gb, p_bg, loss_good, loss_bad)
    u = rng(13).random(2 * n)
    lost = np.zeros(n, dtype=np.uint8)
    oracles.ge_chain(u[0::2], u[1::2], p_gb, p_bg, loss_good, loss_bad, lost)
    assert np.array_equal(channel.sample_losses(process, n, rng(13)), lost.astype(bool))


def test_process_spec_roundtrip():
    for process in [
        channel.IidPacket(0.25),
        channel.IidBit(0.001),
        channel.GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.5),
        channel.NbCluster(r=0.1691, p=0.0638, p_start=0.0643),
    ]:
        assert channel.process_from_spec(channel.process_to_spec(process)) == process
    for bad in ("nonsense:p=1", "iid-packet:oops=1", "iid-packet:p=0.1,extra=5",
                "iid-packet:p=abc", "iid-bit:p=", "iid-packet:p=0.1,p=0.2",
                "nb-cluster:r=0.1691,p=0.0638,target_per=0.3,p_start=0.1"):
        with pytest.raises(channel.ChannelError):
            channel.process_from_spec(bad)


def test_per_at_bundled_anchors():
    table = channel.PerDistanceTable.bundled()
    assert channel.per_at(table, 50, 57000) == pytest.approx(0.007)
    assert channel.per_at(table, 50, 19000) == pytest.approx(0.007)
    assert channel.per_at(table, 30, 230000) == pytest.approx(1e-4)
    assert channel.per_at(table, 18, 230000) == pytest.approx(1e-5)
    tilted = channel.PerDistanceTable.bundled_tilted()
    assert channel.per_at(tilted, 50, 230000) == pytest.approx(2e-5)


def test_per_at_log_linear_midpoint():
    table = channel.PerDistanceTable.from_rows([(10.0, 230000, 1e-4), (20.0, 230000, 1e-2)])
    assert channel.per_at(table, 15.0, 230000) == pytest.approx(1e-3)


def test_per_at_floor():
    table = channel.PerDistanceTable.from_rows([(10.0, 230000, 1e-7), (20.0, 230000, 1e-6)])
    assert channel.per_at(table, 15.0, 230000) == channel.PER_FLOOR


def test_per_at_errors():
    table = channel.PerDistanceTable.bundled()
    with pytest.raises(channel.OutOfRange, match=r"^distance 60.0 m outside table span "
                       r"\[\d+\.\d+, \d+\.\d+\] m$"):
        channel.per_at(table, 60.0, 230000)
    with pytest.raises(channel.UnknownBaud):
        channel.per_at(table, 30.0, 12345)


def test_table_csv_roundtrip(tmp_path):
    table = channel.PerDistanceTable.bundled()
    path = tmp_path / "table.csv"
    table.to_csv(path)
    back = channel.PerDistanceTable.from_csv(path)
    assert np.array_equal(back.distances_m, table.distances_m)
    assert np.array_equal(back.bauds, table.bauds)
    assert np.allclose(back.pers, table.pers)


def test_table_from_rows_keeps_only_integral_bauds():
    # the constructor used to cast 230000.7 to 230000
    for baud in (230000.7, math.inf, math.nan, 0, -5.0):
        with pytest.raises(channel.ChannelError, match="baud must be a positive integer"):
            channel.PerDistanceTable.from_rows([(10.0, baud, 0.1)])
    table = channel.PerDistanceTable.from_rows([(10.0, 2.3e5, 0.1), (20.0, 57000, 0.2)])
    assert table.bauds.tolist() == [57000, 230000]
    assert table.bauds.dtype == np.dtype(int)


def test_table_validation(tmp_path):
    with pytest.raises(channel.ChannelError):
        channel.PerDistanceTable.from_rows([(10.0, 230000, 0.1), (10.0, 230000, 0.2)])
    with pytest.raises(channel.ChannelError):
        channel.PerDistanceTable.from_rows([(-1.0, 230000, 0.1)])
    with pytest.raises(channel.ChannelError):
        channel.PerDistanceTable.from_rows([(10.0, 230000, 1.2)])
    for row in [(math.nan, 230000, 0.1), (math.inf, 230000, 0.1), (0.0, 230000, 0.1),
                (10.0, 230000, math.nan), (10.0, 230000, -0.1), (10.0, 0, 0.1),
                (10.0, -5, 0.1)]:
        with pytest.raises(channel.ChannelError):
            channel.PerDistanceTable.from_rows([row])
    bad = tmp_path / "bad.csv"
    bad.write_text("distance_m,baud\n10,230000\n")
    with pytest.raises(channel.ChannelError):
        channel.PerDistanceTable.from_csv(bad)
    bad.write_text("baud,distance_m,per\n230000,10,0.1\n")
    with pytest.raises(channel.ChannelError, match="header must be distance_m,baud,per"):
        channel.PerDistanceTable.from_csv(bad)
    bad.write_text("distance_m,baud,per\n\n10,230000,0.1,99\n")
    with pytest.raises(channel.ChannelError, match="bad.csv:3: expected 3 fields"):
        channel.PerDistanceTable.from_csv(bad)
    for baud in ("inf", "nan", "230000.7", "-5", "0"):
        bad.write_text(f"distance_m,baud,per\n10,{baud},0.1\n")
        with pytest.raises(channel.ChannelError, match="bad.csv:2: bad row: baud must be"):
            channel.PerDistanceTable.from_csv(bad)
    for baud in ("230000", "230000.0", "2.3e5"):
        bad.write_text(f"distance_m,baud,per\n10,{baud},0.1\n")
        assert channel.PerDistanceTable.from_csv(bad).bauds.tolist() == [230000]
