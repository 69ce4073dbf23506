"""Per-packet loop oracles for the vectorized relay rule and channel chain.

These are the simulator's original loop bodies and per-packet step API,
kept verbatim, and plain loops of the newer fast paths, all bit-exact
references: ``relay_scan`` and ``rx_adr_step`` for ``sim.relay``;
``ge_chain`` and ``sample_packet_outcome`` for the iid and Gilbert-Elliott
streams of ``channel.sample_losses``; ``cdf_table`` (the pmf recurrence
summed one term at a time), ``law_cdf_table`` (each family's start and
ratio) and ``seeded_law_table`` (that loop from a table's own start pmf)
for ``clusters.CdfTable``; for the negative-binomial stream,
``table_cluster_size`` for ``channel._cluster_sizes``, and
``nb_cluster_walk``, which lays out the same blocks with every size from
``draw_cluster_size`` (the cluster draw through ``scipy.stats.nbinom.ppf``),
and ``nb_whole_trace``, the draw's first layout (every batch's runs at once);
``doubling_quantile``, the quantile path before the table (``fit_cdf`` sums
``gammaln_pmf`` from k = 0 and ``quantile_from_cdf`` doubles the grid), for
``clusters.quantile``; ``table_cdf_error`` (the recurrence loop),
``gammaln_cdf_error`` (the gammaln sums the fits once scored) and
``dense_cdf_error`` (a loop over every run length up to the longest, on
the package's table) for ``clusters.fit``'s CDF error, with
``dist_from_hist``, ``dense_hist`` and ``dense_cdf`` between the sparse
run-length law and a dense one; ``window_hist`` and ``loss_run_lengths`` (the run
lengths from the edges of the padded loss flags) for
``clusters.extract_clusters`` and ``sim.summarize``; and ``fit_nb_mle`` (the
negative-binomial fit through ``scipy.optimize.minimize_scalar``, its
likelihood a plain loop over ``math.lgamma`` summed by one ``math.fsum``)
for ``clusters._fit_nb_mle``;
``dataclass_twin``, a record class as the ``@dataclass(frozen=True)`` it
stands in for, for ``_record.Record``; and ``split_binary_trace``, a
``.vlct`` file's header and its payload stream inflated by plain ``zlib``,
for ``_trace.read_binary``.
"""

from __future__ import annotations

import bisect
import math
import sys
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy
from scipy.stats import nbinom

from vlcrelay.channel import (
    _NB_CYCLES,
    BITS_PER_PACKET,
    ChannelError,
    ErrorProcess,
    GilbertElliott,
    IidBit,
    IidPacket,
    NbCluster,
    _cluster_sizes,
)
from vlcrelay.clusters import (
    ClusterDistribution,
    ClusterStatsError,
    Family,
    FitDiverged,
    FitResult,
)
from vlcrelay.clusters import cdf_table as clusters_cdf_table
from vlcrelay.codec import REFERENCE_PAYLOAD
from vlcrelay.laws import _RUN_CAP
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


def cdf_table(pmf0: float, log_pmf0: float, ratio, size: int,
              start_pmf: float | None = None) -> np.ndarray:
    """CDF of a count law at 0, 1, ... from its pmf recurrence
    ``pmf(k) = pmf(k-1) * ratio(k)``, up to the first term that no longer
    moves the sum, or ``size`` entries.  When ``pmf0`` is below the smallest
    normal float, the leading terms are stepped in log space from
    ``log_pmf0``, one ``math.log`` at a time, and count as 0; the first
    term past them, the start, is ``start_pmf`` if given, else ``exp`` of
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
        pmf = math.exp(math.fsum(logs)) if start_pmf is None else start_pmf
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


def law_cdf_table(family: Family, params, size: int = _RUN_CAP + 1,
                  start_pmf: float | None = None) -> np.ndarray:
    """``cdf_table`` of a negative-binomial, Poisson or binomial law (p < 1),
    from ``p**r``, ``exp(-lambda)`` or ``exp(n log(1 - p))``: libm's ``exp``
    of the argument the vectorized pmf gives ``pmf(0)``; a binomial's
    table ends at n."""
    if family is Family.NEG_BINOMIAL:
        r, p = params
        return cdf_table(p ** r, r * math.log(p), lambda k: (1.0 - p) * (k - 1 + r) / k, size,
                         start_pmf)
    if family is Family.POISSON:
        (lam,) = params
        return cdf_table(math.exp(-lam), -lam, lambda k: lam / k, size, start_pmf)
    n, p = int(params[0]), params[1]
    return cdf_table(math.exp(n * math.log(1.0 - p)), n * math.log1p(-p),
                     lambda k: (n - k + 1) * p / (k * (1.0 - p)), min(size, n + 1), start_pmf)


def seeded_law_table(table, family: Family, params, size: int = _RUN_CAP + 1) -> np.ndarray:
    """``law_cdf_table`` seeded from a package ``CdfTable``'s own start: the
    log-space walk finds the start k, and the loop goes on from the pmf
    ``table`` holds there, so a table equal to it starts at the walk's k
    and has the loop's bits from there on.  (The start pmf itself is
    pinned against exact arithmetic on its own.)"""
    return law_cdf_table(family, params, size, start_pmf=table.grow()[0])


def full_table(table, upto: float = math.inf) -> np.ndarray:
    """A ``CdfTable`` grown to ``upto``, from k = 0: the zeros before its
    ``start``, then the entries it holds."""
    return np.concatenate((np.zeros(table.start), np.frombuffer(table.grow(upto))))


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


def nb_whole_trace(process: NbCluster, n: int, rng: np.random.Generator) -> np.ndarray:
    """Loss flags for ``n`` packets of stream 2, laid out as
    ``channel.sample_losses`` first did it: the runs of every batch at
    once, then the run that reaches packet n cut there."""
    table = clusters_cdf_table(Family.NEG_BINOMIAL, (process.r, process.p))
    p0 = process.p ** process.r
    blocks, total = [], 0
    while total < n:
        gaps = rng.geometric(process.p_start, _NB_CYCLES)
        sizes = _cluster_sizes(table, p0, rng.random(_NB_CYCLES))
        block = np.stack((gaps, sizes), axis=1).ravel()
        blocks.append(block)
        total += int(block.sum())
    runs = np.concatenate(blocks)
    ends = np.cumsum(runs)
    last = int(np.searchsorted(ends, n))  # the run that reaches packet n
    runs = runs[:last + 1]
    runs[last] -= ends[last] - n
    return np.repeat(np.arange(last + 1) % 2 == 1, runs)


def loss_run_lengths(received: np.ndarray) -> np.ndarray:
    """Lengths of the maximal runs of consecutive losses."""
    lost = ~np.asarray(received, dtype=bool)
    if not lost.any():
        return np.zeros(0, dtype=np.int64)
    padded = np.concatenate(([False], lost, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return edges[1::2] - edges[0::2]


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

    def nll(logr: float) -> float:
        r = math.exp(logr)
        p = r / (r + mean)
        terms = []
        for k, w in zip(values.tolist(), weights.tolist()):
            for term in (math.lgamma(k + r), -math.lgamma(r), -math.lgamma(k + 1.0),
                         r * math.log(p), k * math.log1p(-p)):
                terms.append(w * term)
        return -math.fsum(terms)  # correctly rounded, as no BLAS dot is

    res = minimize_scalar(nll, bounds=(math.log(1e-8), math.log(1e8)),
                          method="bounded", options={"xatol": 1e-12})
    if not res.success or not math.isfinite(res.fun):
        raise FitDiverged(f"profile likelihood failed: {res.message}")
    r = math.exp(res.x)
    return r, r / (r + mean)


_QUANTILE_CAP = 10**7


def gammaln_pmf(family: Family, params, k) -> np.ndarray:
    """A law's pmf at the integers ``k`` >= 0, ``exp`` of its log pmf by
    ``gammaln`` and ``xlogy``: the pmfs the package computed before the
    recurrence table."""
    k = np.asarray(k, dtype=np.int64)
    if family is Family.NEG_BINOMIAL:
        r, p = params
        return np.exp(gammaln(k + r) - gammaln(r) - gammaln(k + 1)
                      + r * math.log(p) + k * math.log1p(-p))
    if family is Family.POISSON:
        (lam,) = params
        if lam == 0.0:
            return (k == 0).astype(float)
        return np.exp(xlogy(k, lam) - lam - gammaln(k + 1))
    n, p = int(params[0]), params[1]
    kk = np.minimum(k, n)
    logpmf = (gammaln(n + 1) - gammaln(kk + 1) - gammaln(n - kk + 1)
              + xlogy(kk, p) + xlogy(n - kk, 1.0 - p))
    return np.where(k <= n, np.exp(logpmf), 0.0)


def fit_cdf(model: FitResult, k) -> np.ndarray:
    """A law's CDF before the recurrence table: cumulative sums of
    ``gammaln_pmf`` from k = 0."""
    k = np.asarray(k, dtype=np.int64)
    kmax = int(k.max()) if k.size else 0
    cum = np.cumsum(gammaln_pmf(model.family, model.params, np.arange(kmax + 1)))
    return cum[k]


def dist_from_hist(hist, n_packets: int) -> ClusterDistribution:
    """A ``ClusterDistribution`` from a dense histogram, ``hist[k]`` the
    windows whose run is ``k`` (an ``np.bincount``): its non-zero entries,
    and ``k = 0`` whatever its count."""
    hist = np.asarray(hist).tolist()
    lengths = [0] + [k for k in range(1, len(hist)) if hist[k]]
    return ClusterDistribution(lengths, [hist[k] for k in lengths], n_packets)


def dense_hist(dist: ClusterDistribution) -> list[int]:
    """The histogram on every run length 0..max_cluster."""
    hist = [0] * (dist.max_cluster + 1)
    for k, count in zip(dist.lengths, dist.counts):
        hist[k] = count
    return hist


def dense_cdf(dist: ClusterDistribution) -> np.ndarray:
    """The empirical CDF on 0..max_cluster, cumulative sums in order."""
    return np.cumsum(np.array(dense_hist(dist)) / dist.n_opportunities)


def dense_cdf_error(dist: ClusterDistribution, model: FitResult) -> float:
    """Largest |empirical - model| CDF gap, a loop over every k in
    0..max_cluster: the model's CDF is its table, 0 before its start and
    its last value past its end."""
    table = clusters_cdf_table(model.family, model.params)
    held = table.grow(k=dist.max_cluster)
    err = 0.0
    for k, c in enumerate(dense_cdf(dist).tolist()):
        m = 0.0 if k < table.start else held[min(k - table.start, len(held) - 1)]
        err = max(err, abs(c - m))
    return err


def table_cdf_error(dist: ClusterDistribution, model: FitResult) -> float:
    """Largest |empirical - model| CDF gap on 0..max_cluster, the model's
    CDF by the recurrence loop from the package table's start, held at its
    last value past its end."""
    table = seeded_law_table(clusters_cdf_table(model.family, model.params),
                             model.family, model.params)
    size = dist.max_cluster + 1
    held = np.concatenate((table, np.full(max(0, size - table.size), table[-1])))
    return float(np.max(np.abs(dense_cdf(dist) - held[:size])))


def gammaln_cdf_error(dist: ClusterDistribution, model: FitResult) -> float:
    """The CDF gap as the fits took it before the table: against the
    cumulative sums of ``gammaln_pmf``."""
    return float(np.max(np.abs(dense_cdf(dist)
                               - fit_cdf(model, np.arange(dist.max_cluster + 1)))))


def empirical_cdf(dist: ClusterDistribution, k) -> np.ndarray:
    """The empirical CDF before the single search: 1.0 from the longest run
    on."""
    cum = dense_cdf(dist)
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


def dataclass_twin(cls: type) -> type:
    """The ``_record.Record`` subclass ``cls`` as ``@dataclass(frozen=True)``
    builds it: a class of the same name, fields, defaults and methods, but
    with the dataclass's generated ``__init__``, ``repr``, ``==``, ``hash``
    and frozen ``__setattr__``/``__delattr__`` in place of ``Record``'s."""
    namespace = {key: value for key, value in vars(cls).items()
                 if key not in ("__dict__", "__weakref__", "_fields", "_defaults")}
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


def split_binary_trace(data: bytes) -> tuple[bytes, bytes]:
    """A ``.vlct`` file's header lines through the empty line after them,
    without the first line, and its payload: the stream after that empty
    line, inflated."""
    end = data.index(b"\n\n") + 2
    return data[data.index(b"\n") + 1:end], zlib.decompress(data[end:])
