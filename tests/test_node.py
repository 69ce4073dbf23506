import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcrelay import channel, codec, node, sim

import oracles

CFG = node.LinkConfig(baud=230000, mode=node.Mode.BROADCAST, ipd_s=0.0)
BEACON = node.LinkConfig(mode=node.Mode.BEACON)


def test_config_validation():
    with pytest.raises(node.ConfigError):
        node.LinkConfig(baud=0)
    for baud in (230000.0, 57000.5):
        with pytest.raises(node.ConfigError, match="baud must be an integer"):
            node.LinkConfig(baud=baud)
    with pytest.raises(node.ConfigError):
        node.LinkConfig(ipd_s=-1e-6)
    with pytest.raises(node.ConfigError):
        node.LinkConfig(t_proc_s=-1.0)
    with pytest.raises(node.ConfigError):
        node.LinkConfig(mode=node.Mode.BEACON, beacon_interval_s=1e-6)
    # decode + turnaround must end before the next transmit starts
    with pytest.raises(node.ConfigError):
        node.LinkConfig(t_proc_s=300e-6)
    with pytest.raises(node.ConfigError):
        node.LinkConfig(t_proc_s=CFG.packet_time_s - CFG.guard_s)
    node.LinkConfig(t_proc_s=300e-6, ipd_s=100e-6)
    for name in ("ipd_s", "beacon_interval_s", "t_proc_s", "guard_s"):
        for value in (math.nan, math.inf):
            with pytest.raises(node.ConfigError, match=f"{name} must be finite"):
                node.LinkConfig(**{name: value})


@pytest.mark.parametrize("config", [
    CFG,
    node.LinkConfig(baud=57000, mode=node.Mode.BEACON, ipd_s=1.3e-5,
                    beacon_interval_s=0.0123, t_proc_s=1.1e-5, guard_s=3e-5),
])
def test_text_fields_round_trip(config):
    fields = config.text_fields()
    assert list(fields) == ["mode", "baud", "ipd_us", "beacon_interval_us",
                            "t_proc_us", "guard_us"]
    assert node.LinkConfig.from_text_fields(fields) == config
    assert node.LinkConfig.from_text_fields({**fields, "seed": "3"}) == config


def test_from_text_fields_defaults_and_errors():
    assert node.LinkConfig.from_text_fields({}) == node.LinkConfig()
    assert node.LinkConfig.from_text_fields(
        {"baud": 57000, "ipd_us": 20.0, "mode": None, "guard_us": None}
    ) == node.LinkConfig(baud=57000, ipd_s=20.0 / 1e6)
    for bad in ({"baud": "230000.0"}, {"mode": "sideways"}, {"ipd_us": "x"},
                {"ipd_us": "nan"}):
        with pytest.raises(ValueError):
            node.LinkConfig.from_text_fields(bad)


def test_timing_properties():
    assert CFG.packet_time_s == 64 / 230000
    assert CFG.l0_s * 1e6 == pytest.approx(595.0, abs=1.0)
    assert CFG.dead_time_s == pytest.approx(38.5e-6)
    beacon = node.LinkConfig(mode=node.Mode.BEACON, beacon_interval_s=0.1)
    assert beacon.period_s == 0.1


def test_l0_scales_with_baud():
    # guard and processing stay constant; only the on-air time stretches
    for baud in (19000, 57000, 115000, 230000):
        cfg = node.LinkConfig(baud=baud)
        assert cfg.l0_s == pytest.approx(2 * 64 / baud + 38.5e-6)


def test_tx_schedule_broadcast():
    starts = sim.run(CFG, channel.IidPacket(0.0), 4, seed=0).tx_start_s
    assert starts[0] == 0.0
    assert starts[1] * 1e6 == pytest.approx(278.26, abs=0.01)
    # total span of n periods
    assert starts[-1] == pytest.approx(3 * CFG.period_s)


def test_tx_schedule_beacon():
    cfg = node.LinkConfig(mode=node.Mode.BEACON, beacon_interval_s=0.1)
    starts = sim.run(cfg, channel.IidPacket(0.0), 5, seed=0).tx_start_s
    assert starts[3] == pytest.approx(0.3)
    assert np.allclose(np.diff(starts), 0.1)


def test_tx_schedule_rejects_empty():
    with pytest.raises(node.ConfigError):
        sim.run(CFG, channel.IidPacket(0.0), 0, seed=0)


def test_relay_rejects_no_packets():
    for received in ([], np.zeros(0, dtype=bool)):
        with pytest.raises(node.EmptyTrace, match="at least one packet"):
            sim.relay(CFG, received)


def test_step_clean_packet_idle_node():
    relayed, latency = sim.relay(CFG, np.array([True]))
    assert relayed[0]
    assert latency[0] == CFG.l0_s


def test_step_blocks_packet_arriving_mid_relay():
    relayed, _ = sim.relay(CFG, np.ones(3, dtype=bool))
    # the second packet arrives mid-relay; the relay spent its one blocked
    # slot, so the third goes out
    assert relayed.tolist() == [True, False, True]


def test_step_never_relays_corrupted_payload():
    # a payload that fails the reference compare is a channel loss
    relayed, latency = sim.relay(CFG, np.array([False, True]))
    assert relayed.tolist() == [False, True]
    # and it counts toward the latency span of the next relay
    assert latency[1] == pytest.approx(CFG.l0_s + CFG.period_s)


def test_step_loss_then_relay_latency_spans_run():
    relayed, latency = sim.relay(CFG, np.array([False, False, False, True]))
    assert relayed.tolist() == [False, False, False, True]
    assert np.isnan(latency[:3]).all()
    assert latency[3] == CFG.l0_s + 3 * CFG.period_s


def _scan_with_steps(received, cfg):
    state = oracles.NodeState()
    relayed = np.zeros(received.size, dtype=bool)
    latency = np.full(received.size, np.nan)
    for k, ok in enumerate(received):
        payload = codec.REFERENCE_PAYLOAD if ok else None
        state, decision = oracles.rx_adr_step(state, k * cfg.period_s, payload, cfg)
        relayed[k] = decision.relayed
        if decision.relayed:
            latency[k] = decision.latency_s
    return relayed, latency


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=120),
       st.sampled_from([("broadcast", 230000, ipd) for ipd in
                        (0.0, 10e-6, 100e-6, 287e-6, 400e-6)]
                       + [("beacon", baud, 0.0) for baud in (19000, 230000)]))
def test_step_function_matches_kernel(pattern, link):
    mode, baud, ipd_s = link
    cfg = node.LinkConfig(baud=baud, mode=node.Mode(mode), ipd_s=ipd_s)
    received = np.array(pattern, dtype=bool)
    relayed, latency = sim.relay(cfg, received)
    loop_relayed, loop_blocked, loop_latency = oracles.scan(received, cfg)
    assert np.array_equal(relayed, loop_relayed)
    assert np.array_equal(latency.view(np.int64), loop_latency.view(np.int64))
    # a received packet the loop did not relay is one it blocked
    assert np.array_equal(received & ~relayed, received & loop_blocked)
    step_relayed, step_latency = _scan_with_steps(received, cfg)
    assert np.array_equal(relayed, step_relayed)
    assert np.allclose(latency, step_latency, equal_nan=True, rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode, ipd_s", [("broadcast", 0.0), ("broadcast", 287e-6),
                                          ("broadcast", 400e-6), ("beacon", 0.0)])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_relay_matches_loop_on_long_streams(mode, ipd_s, p):
    cfg = node.LinkConfig(mode=node.Mode(mode), ipd_s=ipd_s)
    received = np.random.default_rng(3).random(20000) >= p
    relayed, latency = sim.relay(cfg, received)
    loop_relayed, _, loop_latency = oracles.scan(received, cfg)
    assert np.array_equal(relayed, loop_relayed)
    assert np.array_equal(latency.view(np.int64), loop_latency.view(np.int64))


def test_relay_decision_is_per_config_at_overlap_boundary():
    # at ipd = pt + dead the relay window ends as the next packet starts;
    # the loop decided overlap per packet in floating point, so its choice
    # changed with the packet index there, while the rule decides once
    boundary = CFG.packet_time_s + CFG.dead_time_s
    received = np.ones(200000, dtype=bool)
    for ipd_s in (boundary - 1e-17, boundary, boundary + 1e-17):
        cfg = node.LinkConfig(ipd_s=ipd_s)
        relayed, _ = sim.relay(cfg, received)
        every_other = np.arange(received.size) % 2 == 0
        assert np.array_equal(relayed, received) or np.array_equal(relayed, every_other)
    loop_relayed, _, _ = oracles.scan(received, node.LinkConfig(ipd_s=boundary))
    assert received.size // 2 < loop_relayed.sum() < received.size


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=200),
       st.sampled_from([0.0, 50e-6, 200e-6, 287e-6]))
def test_relay_blocking_bound(pattern, ipd_s):
    # ipd below packet_time + t_proc: never more than every other packet
    cfg = node.LinkConfig(mode=node.Mode.BROADCAST, ipd_s=ipd_s)
    assert ipd_s < cfg.packet_time_s + cfg.t_proc_s
    relayed, _ = sim.relay(cfg, np.array(pattern, dtype=bool))
    assert relayed.sum() <= math.ceil(len(pattern) / 2)


def test_compute_per_broadcast_ideal_and_dead():
    assert node.compute_per(1000, 500, CFG) == 0.0
    assert node.compute_per(1000, 0, CFG) == 1.0
    # odd counts cannot push PER below zero
    assert node.compute_per(1001, 501, CFG) == 0.0


def test_compute_per_beacon():
    assert node.compute_per(1000, 900, BEACON) == pytest.approx(0.1)
    with pytest.raises(node.EmptyTrace):
        node.compute_per(0, 0, BEACON)


def test_compute_per_rescales_by_the_links_blocking_not_its_mode():
    # a 1 ms gap ends each relay before the next packet, so this broadcast
    # link blocks nothing and its PER is the lost fraction, as a beacon's
    wide_gap = node.LinkConfig(mode=node.Mode.BROADCAST, ipd_s=1e-3)
    assert not wide_gap.relay_blocks
    assert node.compute_per(1000, 900, wide_gap) == node.compute_per(1000, 900, BEACON)
    assert node.compute_per(1000, 900, wide_gap) == 1.0 - 900 / 1000

