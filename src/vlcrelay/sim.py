"""Deterministic event loop composing scheduler, channel, and relay stage.

Each run is a pure function of (config, process, n_packets, seed): the
channel outcomes come from a seeded PCG64 stream and the relay rule is
deterministic, so identical arguments reproduce traces byte-for-byte.

A trace is its config plus the channel's ``received`` flags: ``relay``
derives the relay flags and latencies, and the transmit times follow from
the period.  ``run`` and both readers build a trace through one helper, so
a derived column read from a file is only checked, never used.  One block
scan, ``_runs_before``, gives the run of one flag value just before each
packet: the run of receptions, whose parity is the relay rule on a link
where ``LinkConfig.relay_blocks``, and the loss run, which gives every
latency.  Its blocks are the channel draw's, ``channel._BLOCK`` packets,
so the temporaries stay a few hundred kB at any trace length.  The frame
constants come from ``node``, not ``codec``: with no bytecode cache a
child compiles every module it imports, and ``simulate`` runs neither the
fits nor the codec.  A trace builds its latency column only when it is
read: ``summarize`` keeps only the relayed packets' least run and run sum,
and the longest run, and takes ``per=`` by the same ``relay_blocks``.
``write_trace`` picks the format by path:

* binary, the default (any path not ending in ``.csv``): the trace's
  stored form, ``PacketTrace.stored``, as ``_trace.write_binary`` writes
  it: a header, then ``received`` packed eight to a byte and deflated as
  one zlib stream.
* CSV export (a path ending in ``.csv``): the same ``# key=value`` lines
  followed by ``seq,tx_start_us,received,relayed,latency_us``, with an
  empty latency field for packets that were not relayed.  Its reader
  checks the derived columns by the block rule its writer formats them by.

``read_trace`` tells the two apart by the binary format's first line.  In
both, a header line is ``# key=value`` with a key not seen before, every
key but ``rng`` must be there and ``process`` must parse, and the CSV
export has no header line after its column line.  The header rules and
the binary format are ``_trace``'s, which needs no numpy: ``read_trace``
unpacks the payload that ``_trace.read_binary`` inflated and checked, and
``analyze`` of a binary trace counts its runs from that payload without
building a ``PacketTrace``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _trace
from . import channel as _channel
from ._errors import TraceFormatError
from ._record import Record
from .channel import _packet_blocks
from .node import ConfigError, EmptyTrace, LinkConfig, compute_per

_CSV_COLUMNS = "seq,tx_start_us,received,relayed,latency_us"


# a dataclass still: perfbench/selftest.py plants its fault with dataclasses.replace
@dataclass(frozen=True)
class PacketTrace:
    """Per-packet outcome record of one simulated run."""

    config: LinkConfig
    process_spec: str
    seed: int
    received: np.ndarray
    relayed: np.ndarray

    def __post_init__(self):
        n = self.received.size
        if n < 1:
            raise EmptyTrace("trace must contain at least one packet")
        if self.relayed.size != n:
            raise ValueError("trace arrays must share one length")
        for block in _packet_blocks(n):
            if np.any(self.relayed[block] & ~self.received[block]):
                raise ValueError("relayed packets must have been received")

    @cached_property
    def latency_s(self) -> np.ndarray:
        """Per-packet latency, NaN where not relayed."""
        return np.concatenate([latency_s for _, latency_s in
                               _latency_blocks(self.config, self.received, self.relayed)])

    @property
    def n_tx(self) -> int:
        return self.received.size

    @property
    def tx_start_s(self) -> np.ndarray:
        return np.arange(self.n_tx, dtype=np.float64) * self.config.period_s

    @property
    def n_received(self) -> int:
        return int(self.received.sum())

    @property
    def n_relayed(self) -> int:
        return int(self.relayed.sum())

    @property
    def blocked(self) -> np.ndarray:
        """Packets the channel delivered but the relay stage ignored."""
        return self.received & ~self.relayed

    @cached_property
    def stored(self) -> _trace.BinaryTrace:
        """The trace as stored: ``received`` packed, the bytes that
        ``write_trace`` deflates and writes and ``extract_clusters`` counts."""
        return _trace.BinaryTrace(self.config, self.process_spec, self.seed, self.n_tx,
                                  np.packbits(self.received).tobytes())


def _runs_before(received: np.ndarray, value: bool):
    """Per packet block: the block and, for each of its packets, how many
    packets just before it have ``received == value``.  With ``value``
    False that is the loss run a received packet ends; with True, a
    received packet's offset in its run of receptions.  The scan carries
    the last index of the other value across blocks."""
    last = -1
    for block in _packet_blocks(received.size):
        idx = np.arange(block.start, block.stop)
        ends = np.where(received[block] != value, idx, last)
        np.maximum.accumulate(ends, out=ends)  # the last other-value index so far
        idx -= 1  # minus the last other-value index before each packet
        idx[0] -= last
        idx[1:] -= ends[:-1]
        yield block, idx
        last = int(ends[-1])


def relay(config: LinkConfig, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relay flags and latencies (NaN where not relayed) for channel outcomes.

    A relay transmission starts ``dead_time_s`` after a packet ends and lasts
    one packet time, and the node cannot listen meanwhile.  When that window
    reaches into the next packet (``LinkConfig.relay_blocks``), the next
    packet is blocked, so within a run of received packets only those at an
    even offset are relayed; otherwise every received packet is.  The short
    spill-over into the following preamble is absorbed by the sync pattern.
    A relayed packet's latency spans back over the loss run just before it:
    ``l0 + run * period``.
    """
    received = np.asarray(received, dtype=bool)
    if received.size < 1:
        raise EmptyTrace("trace must contain at least one packet")
    relayed = _relay_flags(config, received)
    return relayed, np.concatenate([latency_s for _, latency_s in
                                    _latency_blocks(config, received, relayed)])


def _relay_flags(config: LinkConfig, received: np.ndarray) -> np.ndarray:
    """``relay``'s flags: on a link that blocks, a received packet is relayed
    iff the receptions just before it, its offset in its run, are even."""
    relayed = received.copy()
    if config.relay_blocks:
        for block, runs in _runs_before(received, True):
            relayed[block] &= runs % 2 == 0
    return relayed


def _latency_blocks(config: LinkConfig, received: np.ndarray, relayed: np.ndarray):
    """Per packet block: the block and its latencies, NaN where not
    relayed; a relayed packet's latency spans the loss run just before it,
    ``l0 + run * period``."""
    for block, runs in _runs_before(received, False):
        yield block, np.where(relayed[block], config.l0_s + runs * config.period_s, np.nan)


def _csv_columns(trace: PacketTrace):
    """Per packet block: the block and its ``tx_start_s`` and ``latency_s``
    values."""
    for block, latency_s in _latency_blocks(trace.config, trace.received, trace.relayed):
        yield block, np.arange(block.start, block.stop) * trace.config.period_s, latency_s


def run(config: LinkConfig, process: _channel.ErrorProcess, n_packets: int,
        seed: int) -> PacketTrace:
    """Simulate ``n_packets`` transmissions through channel and relay."""
    if n_packets < 1:
        raise ConfigError(f"n_packets must be >= 1, got {n_packets}")
    rng = np.random.default_rng(_trace.check_seed(seed))
    received = _channel.sample_losses(process, n_packets, rng)
    np.logical_not(received, out=received)
    return _build_trace(config, _channel.process_to_spec(process), seed, received)


def _build_trace(config: LinkConfig, process_spec: str, seed: int,
                 received: np.ndarray) -> PacketTrace:
    """The trace of channel outcomes ``received``; every other column is
    derived here or, for the latencies, when first read."""
    return PacketTrace(
        config=config,
        process_spec=process_spec,
        seed=seed,
        received=received,
        relayed=_relay_flags(config, received),
    )


class Summary(Record):
    per: float
    channel_per: float
    n_tx: int
    n_received: int
    n_relayed: int
    n_blocked: int
    min_latency_s: float
    mean_latency_s: float
    max_cluster: int


def summarize(trace: PacketTrace) -> Summary:
    """Aggregate a trace into the headline link metrics.  A relayed packet's
    latency ``l0 + run * period`` rises with its loss run, so the least run
    gives the least latency, and the mean is exact, then rounded once.
    ``per`` rescales the relay count as the link's blocking bounds it
    (``compute_per``)."""
    config, n_received, n_relayed = trace.config, trace.n_received, trace.n_relayed
    min_run, run_sum, max_run = trace.n_tx, 0, 0
    for block, runs in _runs_before(trace.received, False):
        max_run = max(max_run, int(runs.max()))
        relayed_runs = runs[trace.relayed[block]]
        min_run = int(relayed_runs.min(initial=min_run))
        run_sum += int(relayed_runs.sum())
    # l0 + period * run_sum / n_relayed as one int / int, which rounds once
    (a, b), (c, d) = config.l0_s.as_integer_ratio(), config.period_s.as_integer_ratio()
    return Summary(
        per=compute_per(trace.n_tx, n_relayed, config),
        channel_per=1.0 - n_received / trace.n_tx,
        n_tx=trace.n_tx,
        n_received=n_received,
        n_relayed=n_relayed,
        n_blocked=n_received - n_relayed,  # relayed implies received
        min_latency_s=config.l0_s + min_run * config.period_s if n_relayed else math.nan,
        mean_latency_s=((a * d * n_relayed + c * b * run_sum) / (b * d * n_relayed)
                        if n_relayed else math.nan),
        # and the losses after the last packet, from the last block's runs
        max_cluster=max(max_run, 0 if trace.received[-1] else int(runs[-1]) + 1),
    )


def write_trace(trace: PacketTrace, path) -> None:
    """Write ``trace`` as the CSV export if ``path`` ends in ``.csv``, else
    in the binary format."""
    if str(path).endswith(".csv"):
        write_trace_csv(trace, path)
        return
    _trace.write_binary(trace.stored, path)


def read_trace(path) -> PacketTrace:
    """Read a trace in either format, checked against the relay rule."""
    stored = _trace.read_binary(path)
    if stored is None:
        return read_trace_csv(path)
    bits = np.unpackbits(np.frombuffer(stored.payload, np.uint8), count=stored.n_packets)
    return _build_trace(stored.config, stored.process_spec, stored.seed,
                        bits.view(bool))  # bits are 0 or 1


def write_trace_csv(trace: PacketTrace, path) -> None:
    """Write the CSV export, its rows formatted a block of packets at a time."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([*trace.stored.header_lines(), _CSV_COLUMNS]) + "\n")
        for block, tx_start_s, latency_s in _csv_columns(trace):
            relayed = trace.relayed[block].view(np.uint8).tolist()
            rows = map("{},{!r},{},{},{}".format, range(block.start, block.stop),
                       (tx_start_s * 1e6).tolist(),
                       trace.received[block].view(np.uint8).tolist(), relayed,
                       [repr(x) if r else "" for r, x in
                        zip(relayed, (latency_s * 1e6).tolist())])
            fh.write("\n".join(rows) + "\n")


def read_trace_csv(path) -> PacketTrace:
    """Read the CSV export; its derived columns must be the relay rule's, times
    to 1e-9 relative in seconds, as they round-trip through microsecond text."""
    header: dict[str, str] = {}
    flags = bytearray()  # received, relayed of each row
    times = array("d")  # tx_start_us, latency_us (NaN if empty) of each row
    with open(path, newline="") as fh:
        saw_columns = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not saw_columns:
                if line == _CSV_COLUMNS:
                    saw_columns = True
                elif line.startswith("#"):
                    _trace.add_header_line(path, lineno, line, header)
                else:
                    raise TraceFormatError(path, lineno, f"bad column header {line!r}")
                continue
            if line.startswith("#"):
                raise TraceFormatError(path, lineno, f"header line {line!r} after the "
                                       "column header")
            parts = line.split(",")
            if len(parts) != 5:
                raise TraceFormatError(path, lineno, f"expected 5 fields, got {len(parts)}")
            if parts[2] not in ("0", "1") or parts[3] not in ("0", "1"):
                raise TraceFormatError(path, lineno, "received and relayed must be 0 or 1, "
                                       f"got {parts[2]!r} and {parts[3]!r}")
            try:  # seq as the writer spells it; float() also takes blanks and '_'
                if parts[0] != str(len(flags) // 2):
                    raise ValueError(f"seq must increase from 0 without gaps, got {parts[0]!r}")
                if "_" in line or len(line.split()) > 1:
                    raise ValueError("blank or '_' in a time field")
                times.append(float(parts[1]))
                times.append(float(parts[4]) if parts[4] else np.nan)
            except ValueError as exc:
                raise TraceFormatError(path, lineno, str(exc)) from None
            flags.append(parts[2] == "1")
            flags.append(parts[3] == "1")
    if not flags:
        raise TraceFormatError(path, 0, "no packet records")
    rows = np.frombuffer(flags, dtype=bool).reshape(-1, 2)
    us = np.frombuffer(times).reshape(-1, 2)
    trace = _build_trace(*_trace.check_header(path, header, len(rows)), rows[:, 0].copy())
    for block, tx_start_s, latency_s in _csv_columns(trace):
        for column, bad in (
            ("tx_start_us", ~np.isclose(us[block, 0] / 1e6, tx_start_s, rtol=1e-9, atol=0)),
            ("relayed", rows[block, 1] != trace.relayed[block]),
            ("latency_us", ~np.isclose(us[block, 1] / 1e6, latency_s, rtol=1e-9, atol=0,
                                       equal_nan=True)),
        ):
            if bad.any():
                raise TraceFormatError(path, 0, f"seq {block.start + int(np.argmax(bad))}: "
                                       f"{column} disagrees with the relay rule for the "
                                       "header config")
    return trace
