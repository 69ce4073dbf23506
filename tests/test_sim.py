import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlcrelay import _trace, channel, cli, clusters, node, sim

import oracles

BROADCAST = node.LinkConfig(baud=230000, mode=node.Mode.BROADCAST, ipd_s=0.0)
BEACON = node.LinkConfig(baud=230000, mode=node.Mode.BEACON, beacon_interval_s=0.1)
B = channel._BLOCK  # the packet block of the channel draw, the relay scan and the CSV export


def test_error_free_beacon_relays_everything():
    trace = sim.run(BEACON, channel.IidPacket(0.0), 500, seed=1)
    assert trace.n_relayed == 500
    assert np.allclose(trace.latency_s[trace.relayed], BEACON.l0_s)


def test_error_free_broadcast_relays_every_other():
    trace = sim.run(BROADCAST, channel.IidPacket(0.0), 1000, seed=1)
    assert trace.n_relayed == 500
    assert np.array_equal(np.flatnonzero(trace.relayed), np.arange(0, 1000, 2))
    # odd packet counts round up: the first packet always goes out
    assert sim.run(BROADCAST, channel.IidPacket(0.0), 1001, seed=1).n_relayed == 501


def test_single_packet_latency_both_modes():
    for cfg in (BROADCAST, BEACON):
        trace = sim.run(cfg, channel.IidPacket(0.0), 1, seed=0)
        assert trace.latency_s[0] * 1e6 == pytest.approx(595.0, abs=1.0)


def test_monte_carlo_per_beacon():
    trace = sim.run(BEACON, channel.IidPacket(0.3), 10**4, seed=2)
    per = node.compute_per(trace.n_tx, trace.n_relayed, trace.config)
    assert per == pytest.approx(0.30, abs=0.01)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
def test_broadcast_per_is_p_over_two_minus_p(p):
    # a loss the relay would have been deaf to anyway costs no relay, so
    # back-to-back broadcast reports p / (2 - p), not the channel rate p
    trace = sim.run(BROADCAST, channel.IidPacket(p), 2 * 10**5, seed=0)
    per = node.compute_per(trace.n_tx, trace.n_relayed, trace.config)
    assert per == pytest.approx(p / (2 - p), rel=0.03)


def test_conservation_and_consistency():
    trace = sim.run(BROADCAST, channel.IidPacket(0.2), 5000, seed=3)
    assert trace.n_relayed + int((~trace.relayed).sum()) == trace.n_tx
    assert not np.any(trace.relayed & ~trace.received)
    assert np.all(np.isnan(trace.latency_s[~trace.relayed]))
    assert np.all(trace.latency_s[trace.relayed] >= trace.config.l0_s - 1e-12)


def test_latency_law_reconstructs_from_loss_runs():
    # latency = l0 + (preceding loss run) * period, exactly
    trace = sim.run(BEACON, channel.IidPacket(0.3), 4000, seed=4)
    run_before = 0
    for k in range(trace.n_tx):
        if trace.relayed[k]:
            expect = trace.config.l0_s + run_before * trace.config.period_s
            assert trace.latency_s[k] == pytest.approx(expect, rel=1e-12)
        run_before = 0 if trace.received[k] else run_before + 1


def test_latency_law_broadcast_with_blocking():
    trace = sim.run(BROADCAST, channel.IidPacket(0.2), 4000, seed=5)
    run_before = 0
    for k in range(trace.n_tx):
        if trace.relayed[k]:
            expect = trace.config.l0_s + run_before * trace.config.period_s
            assert trace.latency_s[k] == pytest.approx(expect, rel=1e-12)
        run_before = 0 if trace.received[k] else run_before + 1


def test_replay_determinism_bytes(tmp_path):
    process = channel.GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.5)
    a = sim.run(BROADCAST, process, 2000, seed=7)
    b = sim.run(BROADCAST, process, 2000, seed=7)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    sim.write_trace_csv(a, pa)
    sim.write_trace_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_summarize_clean_trace():
    trace = sim.run(BEACON, channel.IidPacket(0.0), 200, seed=1)
    s = sim.summarize(trace)
    assert s.per == 0.0
    assert s.max_cluster == 0
    assert s.n_blocked == 0
    assert s.min_latency_s == pytest.approx(BEACON.l0_s)


def test_summarize_max_cluster_by_definition():
    received = np.ones(10, dtype=bool)
    received[[3, 4, 5]] = False
    trace = sim.PacketTrace(
        config=BEACON, process_spec="synthetic", seed=0,
        received=received, relayed=received.copy(),
    )
    assert sim.summarize(trace).max_cluster == 3


def test_summarize_table_regime_max_cluster_order():
    # acquisition-window sized run in the heavy-clustering regime: the
    # largest run is a sample extreme, pinned only to its order of magnitude
    process = channel.NbCluster.for_target_per(0.1691, 0.0638, 0.3)
    trace = sim.run(BEACON, process, 10**4, seed=8)
    s = sim.summarize(trace)
    assert 26 / 4 <= s.max_cluster <= 26 * 4


def test_per_monotone_in_loss_parameter():
    pers = []
    for p in (0.001, 0.01, 0.05, 0.1, 0.3, 0.6):
        trace = sim.run(BEACON, channel.IidPacket(p), 20000, seed=9)
        pers.append(node.compute_per(trace.n_tx, trace.n_relayed, BEACON))
    assert all(a <= b for a, b in zip(pers, pers[1:]))


def test_trace_csv_roundtrip(tmp_path):
    for n in (300, 1, B, B + 1):
        trace = sim.run(BROADCAST, channel.IidPacket(0.25), n, seed=11)
        path = tmp_path / "t.csv"
        sim.write_trace_csv(trace, path)
        back = sim.read_trace_csv(path)
        assert "latency_s" not in vars(back), n  # checked without building the column
        assert back.config == trace.config
        assert back.seed == trace.seed
        assert np.array_equal(back.received, trace.received)
        assert np.array_equal(back.relayed, trace.relayed)
        assert np.allclose(back.latency_s, trace.latency_s, equal_nan=True)
        # a second write of the re-read trace is byte-identical
        path2 = tmp_path / "t2.csv"
        sim.write_trace_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes(), n


def test_trace_csv_errors(tmp_path):
    good = tmp_path / "good.csv"
    sim.write_trace_csv(sim.run(BEACON, channel.IidPacket(0.0), 3, seed=0), good)
    lines = good.read_text().splitlines()

    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:-1] + ["2,whoops,1,1,595.0"]) + "\n")
    with pytest.raises(sim.TraceFormatError) as err:
        sim.read_trace_csv(bad)
    assert err.value.lineno == len(lines)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(sim.TraceFormatError):
        sim.read_trace_csv(empty)


def test_blocked_derivation():
    trace = sim.run(BROADCAST, channel.IidPacket(0.0), 10, seed=0)
    # every odd packet was delivered by the channel but dropped mid-relay
    assert np.array_equal(np.flatnonzero(trace.blocked), np.arange(1, 10, 2))


def test_blocked_packets_do_not_pollute_clusters():
    trace = sim.run(BROADCAST, channel.IidPacket(0.0), 1000, seed=0)
    dist = clusters.extract_clusters(trace)
    assert dist.insufficient
    assert oracles.dense_hist(dist) == [1000]
    assert dist.n_lost == 0


def _rewrite_row(path, seq, column, value):
    lines = path.read_text().splitlines()
    at = lines.index("seq,tx_start_us,received,relayed,latency_us") + 1 + seq
    fields = lines[at].split(",")
    fields[column] = value
    lines[at] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


# (seq, column, value) of one planted fault; in a loss-free broadcast trace
# the even packets are relayed
CONTRADICTIONS = {
    "1-1.5": (2, 1, "1.5"),  # tx_start_us off the period grid
    "3-0": (2, 3, "0"),  # relayed bit flipped off
    "4-600.0": (2, 4, "600.0"),  # latency off the loss-run law
    # the same columns on both sides of the first block edge
    **{f"{column}-{value}-seq{seq}": (seq, column, value)
       for seq in (B - 1, B, B + 1)
       for column, value in ((1, "1.5"), (3, "01"[seq % 2]), (4, "600.0"))},
    # times off by more than the check's 1e-9 relative
    "1-rel-1e-7": (B, 1, repr(B * BROADCAST.period_s * 1e6 * (1 + 1e-7))),
    "4-rel-1e-7": (B, 4, repr(BROADCAST.l0_s * 1e6 * (1 - 1e-7))),
}


@pytest.mark.parametrize("case", sorted(CONTRADICTIONS))
def test_read_trace_rejects_columns_the_relay_rule_contradicts(tmp_path, case):
    seq, column, value = CONTRADICTIONS[case]
    path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(BROADCAST, channel.IidPacket(0.0), max(10, seq + 2), seed=0),
                        path)
    sim.read_trace_csv(path)
    _rewrite_row(path, seq, column, value)
    with pytest.raises(sim.TraceFormatError, match=f"seq {seq}: "):
        sim.read_trace_csv(path)


def test_read_trace_csv_takes_times_to_1e_9_relative(tmp_path):
    # the header's microsecond text need not give back a library-built
    # config's times bit for bit
    path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(BROADCAST, channel.IidPacket(0.0), B + 2, seed=0), path)
    _rewrite_row(path, B, 1, repr(B * BROADCAST.period_s * 1e6 * (1 + 1e-10)))
    _rewrite_row(path, B, 4, repr(BROADCAST.l0_s * 1e6 * (1 - 1e-10)))
    assert sim.read_trace_csv(path).n_tx == B + 2


@pytest.mark.parametrize("edit", ["drop", "repeat"])
def test_read_trace_csv_names_the_line_of_a_seq_gap(tmp_path, edit):
    path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(BEACON, channel.IidPacket(0.2), 10, seed=0), path)
    lines = path.read_text().splitlines()
    at = lines.index("seq,tx_start_us,received,relayed,latency_us") + 1 + 5
    lines[at:at + 1] = [] if edit == "drop" else [lines[at], lines[at]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sim.TraceFormatError, match="seq must increase") as err:
        sim.read_trace_csv(path)
    assert err.value.lineno == at + 1 + (edit == "repeat")


@pytest.mark.parametrize("column, value", [(2, "7"), (3, "2"), (2, "-0"), (3, " 1")])
def test_read_trace_accepts_only_0_or_1_flags(tmp_path, column, value):
    path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(BEACON, channel.IidPacket(0.0), 5, seed=0), path)
    _rewrite_row(path, 2, column, value)
    with pytest.raises(sim.TraceFormatError, match="must be 0 or 1") as err:
        sim.read_trace_csv(path)
    assert err.value.lineno == path.read_text().splitlines().index(
        "seq,tx_start_us,received,relayed,latency_us") + 4


# (column, respelling) of a field of seq 2, which int() and float() read as
# the same number but the writer never writes; in a loss-free broadcast
# trace the even packets are relayed, so seq 2 has a latency
SPELLINGS = {
    "seq-underscore": (0, lambda f: "0_" + f),
    "seq-plus-sign": (0, lambda f: "+" + f),
    "seq-fullwidth-digit": (0, lambda f: chr(ord("\uff10") + int(f))),
    "time-leading-blank": (1, lambda f: " " + f),
    "time-trailing-blank": (1, lambda f: f + " "),
    "time-underscore": (4, lambda f: f[0] + "_" + f[1:]),
    "latency-leading-blank": (4, lambda f: " " + f),
}


@pytest.mark.parametrize("case", sorted(SPELLINGS))
def test_read_trace_csv_takes_only_the_writers_spellings(tmp_path, capsys, case):
    column, respell = SPELLINGS[case]
    path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(BROADCAST, channel.IidPacket(0.0), 5, seed=0), path)
    lineno = path.read_text().splitlines().index(sim._CSV_COLUMNS) + 4  # seq 2
    field = path.read_text().splitlines()[lineno - 1].split(",")[column]
    value = respell(field)
    assert float(value) == float(field)
    _rewrite_row(path, 2, column, value)
    with pytest.raises(sim.TraceFormatError) as err:
        sim.read_trace_csv(path)
    assert err.value.lineno == lineno
    assert cli.main(["analyze", str(path)]) == 3
    assert f"t.csv:{lineno}: " in capsys.readouterr().err


@pytest.mark.parametrize("name", ["t.vlct", "t.csv"])
def test_read_trace_rejects_negative_seed(tmp_path, name):
    # sim.run refuses the seed, so a header naming it names no run
    path = tmp_path / name
    sim.write_trace(sim.run(BROADCAST, channel.IidPacket(0.2), 10, seed=4), path)
    path.write_bytes(path.read_bytes().replace(b"# seed=4\n", b"# seed=-4\n"))
    with pytest.raises(sim.TraceFormatError, match="seed must be >= 0, got -4"):
        sim.read_trace(path)


@pytest.mark.parametrize("line", ["seed=3_0", "seed=03", "seed=+3", "seed=\u0663",
                                  "baud=230_000", "baud=0230000"])
@pytest.mark.parametrize("name", ["t.vlct", "t.csv"])
def test_read_trace_rejects_header_integers_not_spelled_as_written(tmp_path, name, line):
    # int() takes each of these, and 3_0 as 30: a header names its run only
    # in the writer's spelling
    path = tmp_path / name
    sim.write_trace(sim.run(BROADCAST, channel.IidPacket(0.2), 10, seed=3), path)
    key = line.partition("=")[0]
    data = path.read_bytes()
    written = {"seed": b"# seed=3\n", "baud": b"# baud=230000\n"}[key]
    assert data.count(written) == 1
    path.write_bytes(data.replace(written, f"# {line}\n".encode()))
    with pytest.raises(sim.TraceFormatError, match=re.escape(f"bad header: {line} is not")):
        sim.read_trace(path)


def test_read_trace_rejects_truncated_trace(tmp_path):
    path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(BROADCAST, channel.IidPacket(0.2), 10, seed=0), path)
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(sim.TraceFormatError, match="n_packets=10 but 9"):
        sim.read_trace_csv(path)


def test_read_trace_rejects_relayed_bit_flipped_on(tmp_path):
    path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(BROADCAST, channel.IidPacket(0.0), 10, seed=0), path)
    _rewrite_row(path, 1, 3, "1")
    _rewrite_row(path, 1, 4, repr(BROADCAST.l0_s * 1e6))
    with pytest.raises(sim.TraceFormatError, match="seq 1: relayed"):
        sim.read_trace_csv(path)


# sha256 of write_trace_csv for 3000 packets at seed 7 under the default
# LinkConfig of each mode, recorded before the relay rule and the
# Gilbert-Elliott chain were vectorized; the nb-cluster digests were
# re-recorded for the block stream (rng=numpy-pcg64/2)
GOLDEN_TRACE_SHA256 = {
    ("broadcast", "iid-packet:p=0.1"):
        "81c74974810844c71483bd11dd4b2c5361048af8f959a9c6c27e10e5a481a295",
    ("broadcast", "iid-bit:p=0.005"):
        "6834e14e63aa894fdcc113c2c5ec4daca17cb19063791ed403f0b2dd501e9f33",
    ("broadcast", "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"):
        "a2545ffbf7063c06b914d9e61c34bb3a1b88647653fca36fe9bf44ab8c1c55b4",
    ("broadcast", "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"):
        "09ef8a0565ce47871848d713667750f570c1a93d625d3425c078252e759820e5",
    ("beacon", "iid-packet:p=0.1"):
        "9cafa1684d28deafdbb81408b75d5efe7fa22bcadfb354165034530b4267ad87",
    ("beacon", "iid-bit:p=0.005"):
        "6b65590351706ba2f1f151e85324ebe650cf657ee6813898b663a7e564c75663",
    ("beacon", "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"):
        "c79a7834799212b14cc71c6e97e2a6da157e252283baad50d77ec4b0f0d75861",
    ("beacon", "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"):
        "4a7bbd923fd6cdb7bc5665a025811642514fad70d1cb4660e6eadb4867883931",
}


@pytest.mark.parametrize("mode, spec", sorted(GOLDEN_TRACE_SHA256))
def test_golden_trace_bytes(tmp_path, mode, spec):
    config = node.LinkConfig(mode=node.Mode(mode))
    trace = sim.run(config, channel.process_from_spec(spec), 3000, seed=7)
    path = tmp_path / "t.csv"
    sim.write_trace_csv(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRACE_SHA256[mode, spec]


_SPECS = sorted({spec for _, spec in GOLDEN_TRACE_SHA256})


@pytest.mark.parametrize("spec", _SPECS)
def test_trace_header_names_the_random_stream(spec):
    # nb-cluster draws in blocks since stream 2; the other streams are the first
    trace = sim.run(BROADCAST, channel.process_from_spec(spec), 10, seed=1)
    want = "numpy-pcg64/2" if spec.startswith("nb-cluster:") else "numpy-pcg64"
    assert trace.stored.header()["rng"] == want


@pytest.mark.parametrize("spec", _SPECS)
@pytest.mark.parametrize("mode", ["broadcast", "beacon"])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 3000])
def test_binary_trace_roundtrip_equals_run(tmp_path, spec, mode, n):
    trace = sim.run(node.LinkConfig(mode=node.Mode(mode)), channel.process_from_spec(spec),
                    n, seed=5)
    path = tmp_path / "t.vlct"
    sim.write_trace(trace, path)
    data = path.read_bytes()
    assert data.startswith(_trace.TRACE_MAGIC)
    assert oracles.split_binary_trace(data)[1] == np.packbits(trace.received).tobytes()
    back = sim.read_trace(path)
    assert (back.config, back.process_spec, back.seed) == (trace.config, trace.process_spec, 5)
    for column in ("tx_start_s", "received", "relayed", "latency_s"):
        got, want = getattr(back, column), getattr(trace, column)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), column


@settings(max_examples=150, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=300))
@example([False] * 13)  # all lost, n % 8 != 0
@example([True] * 64)  # all received
@example([True] * 9)
def test_binary_payload_roundtrip(tmp_path_factory, flags):
    payload = np.packbits(flags).tobytes()
    stored = _trace.BinaryTrace(BROADCAST, "iid-packet:p=0.5", 3, len(flags), payload)
    path = tmp_path_factory.mktemp("roundtrip") / "t.vlct"
    _trace.write_binary(stored, path)
    back = _trace.read_binary(path)
    assert back.payload == payload and back == stored


def test_write_trace_csv_suffix_is_the_csv_export(tmp_path):
    trace = sim.run(BROADCAST, channel.IidPacket(0.25), 300, seed=11)
    sim.write_trace(trace, tmp_path / "a.csv")
    sim.write_trace_csv(trace, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    back = sim.read_trace(tmp_path / "a.csv")
    assert np.array_equal(back.latency_s, trace.latency_s, equal_nan=True)


# sha256 of the format-1 image of write_trace's binary file for the cases of
# GOLDEN_TRACE_SHA256: the line "vlcrelay-trace 1", the header and the
# inflated payload, np.packbits(received), as format 1 stored it raw.
# Recorded from the traces the earlier CSV-only code drew; nb-cluster
# re-recorded for the block stream (rng=numpy-pcg64/2)
GOLDEN_BINARY_TRACE_SHA256 = {
    ("broadcast", "iid-packet:p=0.1"):
        "d5add41ebb1b23222ba01ea61177c49857a98b1b34dc3bc535d494cdb620098f",
    ("broadcast", "iid-bit:p=0.005"):
        "37031828db4666120a00a9c23e0bfc71cf09da3247bf0247df2f24225dd223cb",
    ("broadcast", "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"):
        "ad27011eeb97a2693982baa9dcf92b7014d1be0b678068b29dd07759de971e6a",
    ("broadcast", "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"):
        "6a2c27a5380fea1c49822bba7ed5bebc1690d87caf86d47cfadca4dafe66798c",
    ("beacon", "iid-packet:p=0.1"):
        "52f0d4156104234431f2058dd4ef02600ab864e24c6e1881d6db17038897de72",
    ("beacon", "iid-bit:p=0.005"):
        "4a3a00dcd37d800978a7f70e69370a7098eeb05e36b23f934e04fe75fa008697",
    ("beacon", "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"):
        "4c925c0fe08a17e632107f2b903e6d150b0e72c443170322169c49a623ae8404",
    ("beacon", "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"):
        "a3eb64ff7be5558318137f35c6b327e4a25f274189c92b8e13b38d640c6985db",
}


@pytest.mark.parametrize("mode, spec", sorted(GOLDEN_BINARY_TRACE_SHA256))
def test_golden_binary_trace_bytes(tmp_path, mode, spec):
    config = node.LinkConfig(mode=node.Mode(mode))
    trace = sim.run(config, channel.process_from_spec(spec), 3000, seed=7)
    path = tmp_path / "t.vlct"
    sim.write_trace(trace, path)
    data = path.read_bytes()
    header, payload = oracles.split_binary_trace(data)
    digest = hashlib.sha256(b"vlcrelay-trace 1\n" + header + payload).hexdigest()
    assert digest == GOLDEN_BINARY_TRACE_SHA256[mode, spec]
    # the stream is a function of the payload alone
    sim.write_trace(trace, tmp_path / "again.vlct")
    assert (tmp_path / "again.vlct").read_bytes() == data


# the relay scan's block edges: n around multiples of the block, runs that
# cross an edge, and a link exactly at period == 2 pt + dead, where every
# time is a power of two so that the loop's float overlap test is exact
EDGE_TIMES = dict(baud=65536, t_proc_s=2.0**-12, guard_s=2.0**-12)  # pt 2^-10, dead 2^-11
EDGE_BROADCAST = node.LinkConfig(mode=node.Mode.BROADCAST, ipd_s=1.5 * 2.0**-10, **EDGE_TIMES)
EDGE_BEACON = node.LinkConfig(mode=node.Mode.BEACON, beacon_interval_s=2.5 * 2.0**-10,
                              **EDGE_TIMES)
RELAY_LINKS = {"broadcast": BROADCAST, "beacon": BEACON,
               "broadcast-at-edge": EDGE_BROADCAST, "beacon-at-edge": EDGE_BEACON}


def _assert_relay_is_the_loop(config, received):
    relayed, latency = sim.relay(config, received)
    loop_relayed, _, loop_latency = oracles.scan(received, config)
    assert np.array_equal(relayed, loop_relayed)
    assert np.array_equal(latency.view(np.int64), loop_latency.view(np.int64))
    # the trace's column and the CSV export's blocks of both derived
    # columns are the loop's, bit for bit
    trace = sim.PacketTrace(config=config, process_spec="synthetic", seed=0,
                            received=received, relayed=relayed)
    assert np.array_equal(trace.latency_s.view(np.int64), latency.view(np.int64))
    blocks = list(sim._csv_columns(trace))
    for at, column in ((1, trace.tx_start_s), (2, trace.latency_s)):
        derived = np.concatenate([block[at] for block in blocks])
        assert np.array_equal(derived.view(np.int64), column.view(np.int64))


def test_edge_links_sit_at_the_blocking_boundary():
    for config in (EDGE_BROADCAST, EDGE_BEACON):
        assert config.period_s == 2 * config.packet_time_s + config.dead_time_s


@pytest.mark.parametrize("link", sorted(RELAY_LINKS))
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
def test_relay_blocks_match_loop_around_block_sizes(link, n):
    rng = np.random.default_rng(n)
    for received in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                     rng.random(n) >= 0.1, rng.random(n) >= 0.5, rng.random(n) >= 0.9):
        _assert_relay_is_the_loop(RELAY_LINKS[link], received)


@pytest.mark.parametrize("link", sorted(RELAY_LINKS))
@pytest.mark.parametrize("shift", range(-3, 4))
def test_relay_blocks_match_loop_on_runs_across_block_edges(link, shift):
    # a loss run ends near the first edge, so the received run after it
    # crosses that edge at either parity; a loss run crosses the second edge
    received = np.ones(2 * B + 1, dtype=bool)
    received[B + shift - 5:B + shift] = False
    received[2 * B + shift - 4:2 * B + shift + 3] = False
    _assert_relay_is_the_loop(RELAY_LINKS[link], received)


def _runs(n, *spans):
    """``n`` received packets but for the loss runs ``spans`` (lo, hi)."""
    received = np.ones(n, dtype=bool)
    for lo, hi in spans:
        received[lo:hi] = False
    return received


MAX_CLUSTER_CASES = {
    "n=1-lost": lambda: _runs(1, (0, 1)),
    "n=1-received": lambda: _runs(1),
    "none-lost": lambda: _runs(2 * B + 1),
    "all-lost": lambda: _runs(2 * B + 1, (0, 2 * B + 1)),
    # the longest run crosses the first block edge, shorter ones after it
    "across-edge": lambda: _runs(2 * B + 1, (5, 8), (B - 4, B + 5), (B + 9, B + 12),
                                 (2 * B - 1, 2 * B + 1)),
    "ends-at-edge": lambda: _runs(2 * B + 1, (B - 7, B), (B + 1, B + 3)),
    "starts-at-edge": lambda: _runs(2 * B + 1, (3, 5), (B, B + 7)),
    "leading": lambda: _runs(2 * B + 1, (0, B + 3), (B + 10, B + 12)),
    "trailing": lambda: _runs(2 * B + 1, (4, 6), (B - 2, 2 * B + 1)),
    "random": lambda: np.random.default_rng(3).random(3 * B + 5) >= 0.6,
}


@pytest.mark.parametrize("case", sorted(MAX_CLUSTER_CASES))
@pytest.mark.parametrize("config", [BROADCAST, BEACON], ids=["broadcast", "beacon"])
def test_summary_max_cluster_is_the_longest_loss_run(config, case):
    # summarize and extract_clusters take the runs from the stored form's
    # loss_runs, counted a block at a time with runs carried across block
    # edges, and the trailing run; the oracle takes them from the edges of
    # the loss flags
    received = MAX_CLUSTER_CASES[case]()
    relayed, _ = sim.relay(config, received)
    trace = sim.PacketTrace(config=config, process_spec="synthetic", seed=0,
                            received=received, relayed=relayed)
    runs = oracles.loss_run_lengths(received)
    want = int(runs.max()) if runs.size else 0
    assert sim.summarize(trace).max_cluster == want
    dist = clusters.extract_clusters(trace)
    assert dist.max_cluster == want
    # a window per received packet, and one more when the trace opens with a loss
    hist = np.bincount(runs, minlength=1)
    hist[0] = received.sum() + (not received[0]) - runs.size
    assert oracles.dense_hist(dist) == hist.tolist()


@pytest.mark.parametrize("case", sorted(MAX_CLUSTER_CASES))
@pytest.mark.parametrize("config", [BROADCAST, BEACON, EDGE_BROADCAST],
                         ids=["broadcast", "beacon", "broadcast-at-edge"])
def test_summary_latencies_are_the_exact_min_and_mean(config, case):
    # the least latency is the loop's, bit for bit; the mean is the exact
    # l0 + period * (sum of the relayed packets' runs) / n_relayed, rounded once
    received = MAX_CLUSTER_CASES[case]()
    relayed, _, latency = oracles.scan(received, config)
    trace = sim.PacketTrace(config=config, process_spec="synthetic", seed=0,
                            received=received, relayed=relayed)
    s = sim.summarize(trace)
    runs, run = [], 0
    for ok, rel in zip(received.tolist(), relayed.tolist()):
        if rel:
            runs.append(run)
        run = 0 if ok else run + 1
    if not runs:
        assert math.isnan(s.min_latency_s) and math.isnan(s.mean_latency_s)
        return
    assert s.min_latency_s == np.nanmin(latency)
    assert s.mean_latency_s == float(Fraction(config.l0_s) + Fraction(config.period_s)
                                     * Fraction(sum(runs), len(runs)))


def test_summary_channel_per_is_the_channel_loss_rate():
    # broadcast: lost, received, lost, lost, then six received; the relay
    # passes every second packet of a received run
    received = np.array([0, 1, 0, 0, 1, 1, 1, 1, 1, 1], dtype=bool)
    trace = sim.PacketTrace(config=BROADCAST, process_spec="synthetic", seed=0,
                            received=received, relayed=sim.relay(BROADCAST, received)[0])
    s = sim.summarize(trace)
    assert (s.n_tx, s.n_received, s.n_relayed) == (10, 7, 4)
    assert s.channel_per == 0.30000000000000004  # 1 - 7/10
    assert s.per == pytest.approx(0.2)  # 1 - 2 * 4/10, the relay-count PER


# per= rescales by the link's blocking, not its mode's name: a broadcast
# link with a wide gap blocks nothing, and a beacon link with a short
# interval blocks every second packet of a received run
WIDE_GAP_BROADCAST = node.LinkConfig(mode=node.Mode.BROADCAST, ipd_s=400e-6)
SHORT_BEACON = node.LinkConfig(mode=node.Mode.BEACON, beacon_interval_s=300e-6)
PER_LINKS = {**RELAY_LINKS, "broadcast-wide-gap": WIDE_GAP_BROADCAST,
             "beacon-short-interval": SHORT_BEACON}


def test_per_links_cover_both_blocking_rules_in_both_modes():
    blocks = {name: config.relay_blocks for name, config in PER_LINKS.items()}
    assert blocks == {"broadcast": True, "beacon": False, "broadcast-at-edge": False,
                      "beacon-at-edge": False, "broadcast-wide-gap": False,
                      "beacon-short-interval": True}


@pytest.mark.parametrize("link", sorted(PER_LINKS))
def test_summary_per_follows_the_links_blocking(link):
    config = PER_LINKS[link]
    for n in (1, 1000, 1001):
        assert sim.summarize(sim.run(config, channel.IidPacket(0.0), n, seed=1)).per == 0.0
    s = sim.summarize(sim.run(config, channel.IidPacket(0.1), 10**4, seed=2))
    if config.relay_blocks:
        assert s.per == node.compute_per(s.n_tx, s.n_relayed, config)
    else:
        assert s.n_relayed == s.n_received
        assert s.per == s.channel_per


def _summary_loop(received: np.ndarray, config: node.LinkConfig) -> sim.Summary:
    """``summarize`` as a per-packet loop over the relay loop's flags."""
    relayed, _, latency = oracles.scan(received, config)
    runs, run, longest = [], 0, 0  # runs: the loss run before each relayed packet
    for ok, rel in zip(received.tolist(), relayed.tolist()):
        if rel:
            runs.append(run)
        run = 0 if ok else run + 1
        longest = max(longest, run)
    assert np.array_equal(latency[relayed], config.l0_s + np.array(runs) * config.period_s)
    n, n_received, n_relayed = received.size, int(received.sum()), len(runs)
    return sim.Summary(
        per=node.compute_per(n, n_relayed, config),
        channel_per=1.0 - n_received / n,
        n_tx=n,
        n_received=n_received,
        n_relayed=n_relayed,
        n_blocked=n_received - n_relayed,
        min_latency_s=config.l0_s + min(runs) * config.period_s if runs else math.nan,
        mean_latency_s=(float(Fraction(config.l0_s) + Fraction(config.period_s)
                              * Fraction(sum(runs), n_relayed)) if runs else math.nan),
        max_cluster=longest,
    )


_R = _trace._RUN_BLOCK  # the run count's block of packets


@pytest.mark.parametrize("link", sorted(PER_LINKS))
@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=300))
@example([True])
@example([False] * 7)
@example([True, False, True, True, True, False, False, True])
@example([False, True, True, False, True, True, True, False, False])
@example([False] * 40)  # all lost
@example([True] * 41)  # all received
@example([True] * (_R - 5) + [False] * 9 + [True] * 3)  # a loss run across a block edge
@example([True] * (_R - 2) + [False] * 5)  # the trailing run across a block edge
def test_summary_is_the_per_packet_loop(link, flags):
    # every field of the stored form's summary, and of the per-packet
    # trace's, which summarizes its stored form: NaN for NaN
    config = PER_LINKS[link]
    received = np.array(flags, dtype=bool)
    trace = sim.PacketTrace(config, "synthetic", 0, received, sim.relay(config, received)[0])
    want = _summary_loop(received, config)
    for got in (sim.summarize(trace), sim.summarize(trace.stored)):
        for field, a, b in zip(sim.Summary._fields, got._values(), want._values()):
            assert a == b or (a != a and b != b), (field, a, b)


def test_summary_and_analyze_leave_latency_column_unbuilt(tmp_path):
    trace = sim.run(BROADCAST, channel.IidPacket(0.2), 5000, seed=3)
    sim.summarize(trace)
    assert "latency_s" not in vars(trace)
    path = tmp_path / "t.vlct"
    sim.write_trace(trace, path)
    back = sim.read_trace(path)
    clusters.extract_clusters(back)
    assert "latency_s" not in vars(back)
    assert np.array_equal(back.latency_s, trace.latency_s, equal_nan=True)
    assert "latency_s" in vars(back)


def _peak_bytes(func):
    """Peak of the memory that ``func()`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        func()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["broadcast", "beacon"])
def test_peak_memory_per_packet(tmp_path, mode):
    # the channel draw and the run scans hold blocks, not length-n
    # temporaries, and neither the summary nor analyze builds the 8-byte
    # latency column: simulate peaks at 2.6-3.4 B/packet and analyze at
    # 2.5-2.8, so 4.5 and 3.5 B/packet leave about 1.3x.  nb-cluster is left
    # out: tracemalloc counts its CDF table's calloc'd 80 MB buffer in full
    # (84 B/packet here), although only the pages written are resident
    n = 10**6
    config = node.LinkConfig(mode=node.Mode(mode))
    path = tmp_path / "t.vlct"
    for process in (channel.IidPacket(0.1), channel.IidBit(0.005),
                    channel.GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01,
                                           loss_bad=0.5)):

        def simulate():
            trace = sim.run(config, process, n, seed=1)
            sim.summarize(trace)
            sim.write_trace(trace, path)

        assert _peak_bytes(simulate) < 4.5 * n, process
        assert _peak_bytes(lambda: clusters.extract_clusters(sim.read_trace(path))) < 3.5 * n


@pytest.mark.parametrize("mode", ["broadcast", "beacon"])
def test_read_trace_peak_memory_per_packet(tmp_path, mode):
    # the file's bytes, the inflated payload, its received_bits and
    # relayed_bits ints and the two unpacked columns: 2.4-2.5 B/packet, so
    # 3.5 leaves 1.25x; one more whole-trace bool temporary reaches 3.8
    n = 10**6
    path = tmp_path / "t.vlct"
    sim.write_trace(sim.run(node.LinkConfig(mode=node.Mode(mode)), channel.IidPacket(0.1),
                            n, seed=1), path)
    assert _peak_bytes(lambda: sim.read_trace(path)) < 3.5 * n


@pytest.mark.parametrize("mode", ["broadcast", "beacon"])
def test_read_trace_csv_peak_memory_per_packet(tmp_path, mode):
    # the reader keeps two flag bytes and two doubles per row, and checks the
    # derived columns a block at a time without building them
    n = 2 * 10**5
    path = tmp_path / "t.csv"
    sim.write_trace_csv(sim.run(node.LinkConfig(mode=node.Mode(mode)), channel.IidPacket(0.1),
                                n, seed=1), path)
    assert _peak_bytes(lambda: sim.read_trace_csv(path)) <= 48 * n
