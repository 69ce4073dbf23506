"""The abstract's latency claims, as the bundled tables and the latency law
give them.

The relay SAL is ``l0 + n * (ipd + pt)`` at the 99.9 % quantile ``n`` of
the model table's law: first transmitted bit to last relayed bit.  The
reaction latency (``safety.vlc_reaction_latency``) ends one packet time
earlier, when the relayed packet has first been received.
"""

import pytest

from vlcrelay import channel, clusters, safety

TARGET = 0.999


def _sal(per, baud):
    """The 99.9 % quantile in packets and the relay SAL in seconds."""
    n = clusters.quantile(clusters.ModelTable.bundled().model_at(per), TARGET)
    return n, clusters.latency_from_clusters(n, clusters.LatencyParams.from_baud(baud))


def _reaction(sal_s, baud):
    return safety.vlc_reaction_latency(sal_s, clusters.LatencyParams.from_baud(baud).pt_s)


@pytest.mark.parametrize("per, packets, sal_us, reaction_us", [
    (1e-3, 1, 873.3, 595.0),
    (2e-3, 1, 873.3, 595.0),
    (3e-3, 2, 1151.5, 873.3),  # sub-ms on the reaction reading only
    (4.9e-3, 2, 1151.5, 873.3),
    (5e-3, 3, 1429.8, 1151.5),  # the abstract's upper PER: above 1 ms on either reading
])
def test_sub_ms_claim_at_230_kbd(per, packets, sal_us, reaction_us):
    n, sal_s = _sal(per, 230000)
    assert n == packets
    assert sal_s * 1e6 == pytest.approx(sal_us, abs=0.05)
    assert _reaction(sal_s, 230000) * 1e6 == pytest.approx(reaction_us, abs=0.05)


@pytest.mark.parametrize("baud, per, packets, sal_ms, reaction_ms", [
    (57000, 7e-3, 3, 5.65, 4.53),  # below 10 ms at 50 m
    (230000, 0.3, 59, 17.01, 16.73),  # not at 230 kBd
])
def test_50_m_claim(baud, per, packets, sal_ms, reaction_ms):
    per_50m = channel.per_at(channel.PerDistanceTable.bundled(), 50.0, baud)
    assert per_50m == pytest.approx(per, rel=1e-9)
    n, sal_s = _sal(per_50m, baud)
    assert n == packets
    assert sal_s * 1e3 == pytest.approx(sal_ms, abs=0.005)
    assert _reaction(sal_s, baud) * 1e3 == pytest.approx(reaction_ms, abs=0.005)
