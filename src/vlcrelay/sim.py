"""Deterministic event loop composing scheduler, channel, and relay stage.

Each run is a pure function of (config, process, n_packets, seed): the
channel outcomes come from a seeded PCG64 stream and the relay rule is
deterministic, so identical arguments reproduce traces byte-for-byte.

A trace is its config plus the channel's ``received`` flags.  Its stored
form, ``_trace.BinaryTrace``, owns the relay rule and the loss-run count,
and ``summarize`` reads it alone.  ``draw`` gives that form, which
``simulate`` of a binary trace writes and summarizes without building a
``PacketTrace``; ``run`` and both readers unpack it into one, so a
derived column read from a file is only checked, never used.  The latency
column is built when first read, by one block scan of the loss run before
each packet (``_runs_before``), ``channel._BLOCK`` packets at a time.  The
frame constants come from ``node``, not ``codec``: with no bytecode cache
a child compiles every module it imports, and ``simulate`` runs neither
the fits nor the codec.
``write_trace`` picks the format by path:

* binary, the default (any path not ending in ``.csv``): the stored form,
  as ``_trace.write_binary`` writes it: a header, then ``received``
  packed eight to a byte and deflated as one zlib stream.
* CSV export (a path ending in ``.csv``): the same ``# key=value`` lines
  followed by ``seq,tx_start_us,received,relayed,latency_us``, with an
  empty latency field for packets that were not relayed.  Its reader
  checks the derived columns by the rules its writer formats them by.

``read_trace`` tells the two apart by the binary format's first line.  In
both, a header line is ``# key=value`` with a key not seen before, every
key but ``rng`` must be there and ``process`` must parse, and the CSV
export has no header line after its column line.  The header rules and
the binary format are ``_trace``'s, which needs no numpy.
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
        """The trace as stored: ``received`` packed, which ``write_trace``
        writes and ``summarize`` and ``extract_clusters`` count."""
        return _stored(self.config, self.process_spec, self.seed, self.received)


def _stored(config: LinkConfig, process_spec: str, seed: int,
            received: np.ndarray) -> _trace.BinaryTrace:
    return _trace.BinaryTrace(config, process_spec, seed, received.size,
                              np.packbits(received).tobytes())


def _unpacked(stored: _trace.BinaryTrace) -> PacketTrace:
    """A stored trace's bits unpacked, the stored trace kept as ``stored``."""
    flags = [np.unpackbits(np.frombuffer(bits.to_bytes(len(stored.payload), "little"), np.uint8),
                           count=stored.n_packets, bitorder="little").view(bool)  # 0 or 1
             for bits in (stored.received_bits, stored.relayed_bits)]
    trace = PacketTrace(stored.config, stored.process_spec, stored.seed, *flags)
    object.__setattr__(trace, "stored", stored)  # the cached_property's value
    return trace


def _runs_before(received: np.ndarray):
    """Per packet block: the block and, for each of its packets, the loss
    run just before it.  The scan carries the last reception's index
    across blocks."""
    last = -1
    for block in _packet_blocks(received.size):
        idx = np.arange(block.start, block.stop)
        ends = np.where(received[block], idx, last)
        np.maximum.accumulate(ends, out=ends)  # the last reception so far
        idx -= 1  # minus the last reception before each packet
        idx[0] -= last
        idx[1:] -= ends[:-1]
        yield block, idx
        last = int(ends[-1])


def relay(config: LinkConfig, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relay flags and latencies (NaN where not relayed) for channel outcomes.

    A relay transmission starts ``dead_time_s`` after a packet ends and lasts
    one packet time, and the node cannot listen meanwhile.  When that window
    reaches into the next packet (``LinkConfig.relay_blocks``), a run of
    receptions is relayed at its even offsets only (``_trace.BinaryTrace``'s
    ``relayed_bits``); the short spill-over into the next preamble is
    absorbed by its sync pattern.  Latency is ``l0 + run * period``.
    """
    trace = _unpacked(_stored(config, "", 0, np.asarray(received, dtype=bool)))
    return trace.relayed, trace.latency_s


def _latency_blocks(config: LinkConfig, received: np.ndarray, relayed: np.ndarray):
    """Per packet block: the block and its latencies, NaN where not
    relayed; a relayed packet's latency spans the loss run just before it,
    ``l0 + run * period``."""
    for block, runs in _runs_before(received):
        yield block, np.where(relayed[block], config.l0_s + runs * config.period_s, np.nan)


def _csv_columns(trace: PacketTrace):
    """Per packet block: the block and its ``tx_start_s`` and ``latency_s``
    values."""
    for block, latency_s in _latency_blocks(trace.config, trace.received, trace.relayed):
        yield block, np.arange(block.start, block.stop) * trace.config.period_s, latency_s


def draw(config: LinkConfig, process: _channel.ErrorProcess, n_packets: int,
         seed: int) -> _trace.BinaryTrace:
    """The stored form of ``n_packets`` transmissions through the channel."""
    if n_packets < 1:
        raise ConfigError(f"n_packets must be >= 1, got {n_packets}")
    rng = np.random.default_rng(_trace.check_seed(seed))
    received = _channel.sample_losses(process, n_packets, rng)
    np.logical_not(received, out=received)
    return _stored(config, _channel.process_to_spec(process), seed, received)


def run(config: LinkConfig, process: _channel.ErrorProcess, n_packets: int,
        seed: int) -> PacketTrace:
    """Simulate ``n_packets`` transmissions through channel and relay."""
    return _unpacked(draw(config, process, n_packets, seed))


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


def summarize(trace) -> Summary:
    """Aggregate a trace, or its stored form, into the headline link
    metrics from the stored form's bits and runs.  Each run of receptions
    opens with a relayed packet, so the runs before relayed packets hold
    every loss but the trailing ones.  ``per`` is ``compute_per``'s."""
    stored = trace if isinstance(trace, _trace.BinaryTrace) else trace.stored
    config, n = stored.config, stored.n_packets
    received, relayed, runs = stored.received_bits, stored.relayed_bits, stored.loss_runs
    n_received, n_relayed = received.bit_count(), relayed.bit_count()
    trailing = n - received.bit_length()  # the losses after the last reception
    # 0 where a relayed packet has no loss just before it, else the least run
    # that a reception ends: one run of the trailing run's length ends none
    min_run = 0 if relayed & (received << 1 | 1) else min(
        (k for k, count in runs.items() if count > (k == trailing)), default=0)
    # l0 + period * (sum of runs) / n_relayed as one int / int, rounded once
    (a, b), (c, d) = config.l0_s.as_integer_ratio(), config.period_s.as_integer_ratio()
    return Summary(
        per=compute_per(n, n_relayed, config),
        channel_per=1.0 - n_received / n,
        n_tx=n,
        n_received=n_received,
        n_relayed=n_relayed,
        n_blocked=n_received - n_relayed,  # relayed implies received
        min_latency_s=config.l0_s + min_run * config.period_s if n_relayed else math.nan,
        mean_latency_s=((a * d * n_relayed + c * b * (n - n_received - trailing))
                        / (b * d * n_relayed) if n_relayed else math.nan),
        max_cluster=max(runs, default=0),
    )


def write_trace(trace, path) -> None:
    """Write ``trace``, or its stored form, as the CSV export if ``path``
    ends in ``.csv``, else in the binary format."""
    packed = isinstance(trace, _trace.BinaryTrace)
    if str(path).endswith(".csv"):
        write_trace_csv(_unpacked(trace) if packed else trace, path)
    else:
        _trace.write_binary(trace if packed else trace.stored, path)


def read_trace(path) -> PacketTrace:
    """Read a trace in either format, checked against the relay rule."""
    stored = _trace.read_binary(path)
    return read_trace_csv(path) if stored is None else _unpacked(stored)


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
    trace = _unpacked(_stored(*_trace.check_header(path, header, len(rows)), rows[:, 0]))
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
