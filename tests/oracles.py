"""Per-packet loop oracles for the vectorized relay rule and channel chain.

These are the simulator's original loop bodies and per-packet step API,
kept verbatim, and plain loops of the newer fast paths, all bit-exact
references: ``relay_scan`` and ``rx_adr_step`` for ``sim.relay``;
``ge_chain`` and ``sample_packet_outcome`` for the iid and Gilbert-Elliott
streams of ``channel.sample_losses``; ``cdf_table`` (the pmf recurrence
summed one term at a time) and ``law_cdf_table`` (each family's start and
ratio) for ``clusters.CdfTable``; for the negative-binomial stream,
``table_cluster_size`` for ``channel._cluster_sizes``, and
``nb_cluster_walk``, which lays out the same blocks with every size from
``draw_cluster_size`` (the cluster draw through ``scipy.stats.nbinom.ppf``);
``doubling_quantile``, the quantile path before the table (``fit_cdf`` sums
gammaln pmfs from k = 0 and ``quantile_from_cdf`` doubles the grid), for
``clusters.quantile``; ``window_hist`` for ``clusters.extract_clusters``;
and ``fit_nb_mle`` (the negative-binomial fit through
``scipy.optimize.minimize_scalar``) for ``clusters._fit_nb_mle``.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.stats import nbinom

from vlcrelay.channel import (
    _NB_CYCLES,
    _RUN_CAP,
    BITS_PER_PACKET,
    ChannelError,
    ErrorProcess,
    GilbertElliott,
    IidBit,
    IidPacket,
    NbCluster,
)
from vlcrelay.clusters import (
    ClusterDistribution,
    ClusterStatsError,
    Family,
    FitDiverged,
    FitResult,
    binom_pmf,
    poisson_pmf,
)
from vlcrelay.codec import REFERENCE_PAYLOAD
from vlcrelay.node import LinkConfig


def relay_scan(received, period_s, pt_s, dead_s, l0_s, relayed, blocked, latency_s):
    """Walk the packet stream through the decode-and-relay stage.

    ``received`` holds per-packet channel outcomes (1 = decodable).  A relay
    transmission makes the node deaf, which costs at most the one packet
    whose on-air window overlaps the relay window; the short spill-over into
    the following packet's preamble is absorbed by the sync preamble and
    does not count.  Latency of a relayed packet spans back over the
    immediately preceding run of channel losses.
    """
    relay_start = -1.0e30
    relay_end = -1.0e30
    block_pending = False
    loss_run = 0
    n = received.shape[0]
    for j in range(n):
        start = j * period_s
        end = start + pt_s
        if block_pending and start < relay_end and end > relay_start:
            blocked[j] = 1
            block_pending = False
        elif received[j] == 1:
            relayed[j] = 1
            latency_s[j] = l0_s + loss_run * period_s
            relay_start = end + dead_s
            relay_end = relay_start + pt_s
            block_pending = True
        if received[j] == 1:
            loss_run = 0
        else:
            loss_run += 1


def scan(received, config: LinkConfig):
    """``relay_scan`` over boolean outcomes: (relayed, blocked, latency_s)."""
    n = received.size
    relayed = np.zeros(n, dtype=np.uint8)
    blocked = np.zeros(n, dtype=np.uint8)
    latency = np.full(n, np.nan)
    relay_scan(np.asarray(received).astype(np.uint8), config.period_s,
               config.packet_time_s, config.dead_time_s, config.l0_s,
               relayed, blocked, latency)
    return relayed.astype(bool), blocked.astype(bool), latency


def ge_chain(u_loss, u_trans, p_gb, p_bg, loss_good, loss_bad, lost):
    """Two-state burst channel: per-packet loss draw, then state transition.

    Consumes exactly one uniform per draw from each input array.
    """
    state = 0  # 0 = good, 1 = bad
    n = u_loss.shape[0]
    for i in range(n):
        if state == 0:
            if u_loss[i] < loss_good:
                lost[i] = 1
            if u_trans[i] < p_gb:
                state = 1
        else:
            if u_loss[i] < loss_bad:
                lost[i] = 1
            if u_trans[i] < p_bg:
                state = 0


def draw_cluster_size(process: NbCluster, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of a cluster size (>= 1)."""
    p0 = process.p ** process.r
    u = rng.random()
    target = p0 + (1.0 - u) * (1.0 - p0)  # in (p0, 1]
    k = float(nbinom.ppf(target, process.r, process.p))
    if not math.isfinite(k):
        return _RUN_CAP
    return max(1, min(int(k), _RUN_CAP))


def cdf_table(pmf0: float, log_pmf0: float, ratio, size: int) -> np.ndarray:
    """CDF of a count law at 0, 1, ... from its pmf recurrence
    ``pmf(k) = pmf(k-1) * ratio(k)``, up to the first term that no longer
    moves the sum, or ``size`` entries.  When ``pmf0`` is below the smallest
    normal float, the leading terms are stepped in log space from
    ``log_pmf0`` and count as 0, and the first term past them is ``exp`` of
    the exactly rounded log sum."""
    k, pmf = 0, pmf0
    cdf = []
    if pmf < sys.float_info.min:
        logs = [log_pmf0]
        log_pmf = logs[0]
        while log_pmf < math.log(sys.float_info.min) and k < size - 1:
            k += 1
            logs.append(math.log(ratio(k)))
            log_pmf = log_pmf + logs[-1]
        cdf = [0.0] * k
        pmf = math.exp(math.fsum(logs))
    total = pmf
    cdf.append(total)
    while len(cdf) < size:
        k += 1
        pmf = pmf * ratio(k)
        if total + pmf == total:
            break
        total = total + pmf
        cdf.append(total)
    return np.array(cdf)


def law_cdf_table(family: Family, params, size: int = _RUN_CAP + 1) -> np.ndarray:
    """``cdf_table`` of a negative-binomial, Poisson or binomial law (p < 1),
    from ``p**r`` or the package's gammaln ``pmf(0)``; a binomial's table
    ends at n."""
    if family is Family.NEG_BINOMIAL:
        r, p = params
        return cdf_table(p ** r, r * math.log(p), lambda k: (1.0 - p) * (k - 1 + r) / k, size)
    if family is Family.POISSON:
        (lam,) = params
        return cdf_table(float(poisson_pmf(0, lam)), -lam, lambda k: lam / k, size)
    n, p = int(params[0]), params[1]
    return cdf_table(float(binom_pmf(0, n, p)), n * math.log1p(-p),
                     lambda k: (n - k + 1) * p / (k * (1.0 - p)), min(size, n + 1))


def table_cluster_size(table: np.ndarray, p0: float, u: float) -> int:
    """Cluster size for uniform ``u`` by bisection in a finished table: a
    target above its end takes its last index, and a target of 1.0 the cap."""
    target = p0 + (1.0 - u) * (1.0 - p0)
    if target == 1.0:
        return _RUN_CAP
    return max(1, min(bisect.bisect_left(table.tolist(), target), table.size - 1))


class FixedRandom:
    """Stands in for a Generator whose next ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = float(u)

    def random(self):
        return self.u


def nb_cluster_walk(process: NbCluster, n: int, rng: np.random.Generator) -> np.ndarray:
    """Loss flags for ``n`` packets of the block stream: per block,
    ``_NB_CYCLES`` geometric gaps, then ``_NB_CYCLES`` uniforms, each taken
    to a cluster size by ``draw_cluster_size``; a success run comes first."""
    lost = []
    while len(lost) < n:
        gaps = rng.geometric(process.p_start, _NB_CYCLES)
        us = rng.random(_NB_CYCLES)
        for gap, u in zip(gaps, us):
            if len(lost) >= n:
                break
            lost.extend([False] * int(gap))
            if len(lost) < n:
                lost.extend([True] * draw_cluster_size(process, FixedRandom(u)))
    return np.array(lost[:n], dtype=bool)


def window_hist(received) -> list[int]:
    """Run-length histogram by a walk over the observation windows: each
    received packet opens a window, and so does the trace's start when it
    opens with a loss; a window's run is the losses before the next
    received packet."""
    runs = [] if received[0] else [0]
    for ok in received:
        if ok:
            runs.append(0)
        else:
            runs[-1] += 1
    hist = [0] * (max(runs) + 1)
    for k in runs:
        hist[k] += 1
    return hist


def fit_nb_mle(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    n = weights.sum()
    mean = float((values * weights).sum() / n)
    if mean <= 0:
        raise FitDiverged("negative-binomial fit needs a positive mean")
    from scipy.optimize import minimize_scalar
    from scipy.special import gammaln

    def nll(logr: float) -> float:
        r = math.exp(logr)
        p = r / (r + mean)
        ll = weights @ (gammaln(values + r) - gammaln(r) - gammaln(values + 1)
                        + r * math.log(p) + values * math.log1p(-p))
        return -float(ll)

    res = minimize_scalar(nll, bounds=(math.log(1e-8), math.log(1e8)),
                          method="bounded", options={"xatol": 1e-12})
    if not res.success or not math.isfinite(res.fun):
        raise FitDiverged(f"profile likelihood failed: {res.message}")
    r = math.exp(res.x)
    return r, r / (r + mean)


_QUANTILE_CAP = 10**7


def fit_cdf(model: FitResult, k) -> np.ndarray:
    """``FitResult.cdf`` before the recurrence table: cumulative sums of the
    gammaln pmfs from k = 0."""
    k = np.asarray(k, dtype=np.int64)
    kmax = int(k.max()) if k.size else 0
    cum = np.cumsum(model.pmf(np.arange(kmax + 1)))
    return cum[k]


def empirical_cdf(dist: ClusterDistribution, k) -> np.ndarray:
    """``ClusterDistribution.cdf`` before the single search: 1.0 from the
    longest run on."""
    cum = np.cumsum(dist.pmf_grid())
    k = np.asarray(k, dtype=np.int64)
    return np.where(k >= cum.size - 1, 1.0, cum[np.minimum(k, cum.size - 1)])


def quantile_from_cdf(cdf, target: float) -> int:
    if not 0.0 < target < 1.0:
        raise ClusterStatsError(f"target probability must be in (0, 1), got {target}")
    hi = 16
    while True:
        grid = np.arange(hi + 1)
        values = np.asarray(cdf(grid), dtype=float)
        if values[-1] >= target:
            break
        if hi >= _QUANTILE_CAP:
            raise ClusterStatsError(f"quantile({target}) beyond {_QUANTILE_CAP}")
        hi *= 2
    return int(np.searchsorted(values, target, side="left"))


def doubling_quantile(model, target: float) -> int:
    """The quantile as ``clusters.quantile`` took it before the recurrence
    table: a search in a CDF grid that doubles from 16 entries."""
    cdf = empirical_cdf if isinstance(model, ClusterDistribution) else fit_cdf
    return quantile_from_cdf(lambda k: cdf(model, k), target)


@dataclass(frozen=True)
class RelayDecision:
    relayed: bool
    blocked: bool = False
    relay_start_s: float | None = None
    relay_end_s: float | None = None
    latency_s: float | None = None


@dataclass(frozen=True)
class NodeState:
    """Relay-stage state threaded through rx_adr_step."""

    relay_start_s: float = -math.inf
    relay_end_s: float = -math.inf
    block_pending: bool = False
    loss_run: int = 0
    run_start_tx_s: float = math.nan


def rx_adr_step(state: NodeState, tx_start_s: float, payload: bytes | None,
                config: LinkConfig) -> tuple[NodeState, RelayDecision]:
    """Advance the relay stage by one packet event, in time order.

    ``payload`` is the decoded payload or None for a channel loss.  A packet
    whose on-air window overlaps a relay transmission is dropped as blocked
    (one per relay; the residual overlap with the following preamble is
    absorbed by the sync pattern).  Channel outcomes of blocked packets
    still feed the loss-run bookkeeping so cluster statistics stay about
    the channel.
    """
    pt = config.packet_time_s
    rx_end = tx_start_s + pt
    channel_ok = payload is not None and payload == REFERENCE_PAYLOAD

    decision = RelayDecision(relayed=False)
    new_relay_start = state.relay_start_s
    new_relay_end = state.relay_end_s
    block_pending = state.block_pending

    if (state.block_pending and tx_start_s < state.relay_end_s
            and rx_end > state.relay_start_s):
        decision = RelayDecision(relayed=False, blocked=True)
        block_pending = False
    elif channel_ok:
        relay_start = rx_end + config.dead_time_s
        relay_end = relay_start + pt
        run_start = state.run_start_tx_s if state.loss_run > 0 else tx_start_s
        decision = RelayDecision(
            relayed=True,
            relay_start_s=relay_start,
            relay_end_s=relay_end,
            latency_s=relay_end - run_start,
        )
        new_relay_start = relay_start
        new_relay_end = relay_end
        block_pending = True

    if channel_ok:
        loss_run = 0
        run_start_tx = math.nan
    else:
        loss_run = state.loss_run + 1
        run_start_tx = state.run_start_tx_s if state.loss_run > 0 else tx_start_s

    new_state = NodeState(
        relay_start_s=new_relay_start,
        relay_end_s=new_relay_end,
        block_pending=block_pending,
        loss_run=loss_run,
        run_start_tx_s=run_start_tx,
    )
    return new_state, decision


def sample_packet_outcome(process: ErrorProcess, rng: np.random.Generator,
                          state=None) -> tuple[bool, object]:
    """Draw one packet outcome; thread ``state`` through successive calls.

    Walks the same random stream as sample_losses, one packet at a time,
    for the iid and Gilbert-Elliott processes (``NbCluster`` draws in
    blocks: see ``nb_cluster_walk``).
    """
    if isinstance(process, IidPacket):
        return bool(rng.random() < process.p_loss), None
    if isinstance(process, IidBit):
        return bool(rng.binomial(BITS_PER_PACKET, process.p_bit) > 0), None
    if isinstance(process, GilbertElliott):
        ge_state = 0 if state is None else state
        u_loss = rng.random()
        u_trans = rng.random()
        if ge_state == 0:
            lost = u_loss < process.loss_good
            if u_trans < process.p_gb:
                ge_state = 1
        else:
            lost = u_loss < process.loss_bad
            if u_trans < process.p_bg:
                ge_state = 0
        return bool(lost), ge_state
    raise ChannelError(f"unknown error process {process!r}")
