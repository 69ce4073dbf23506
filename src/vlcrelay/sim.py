"""Deterministic event loop composing scheduler, channel, and relay stage.

Each run is a pure function of (config, process, n_packets, seed): the
channel outcomes come from a seeded PCG64 stream and the relay rule is
deterministic, so identical arguments reproduce traces byte-for-byte.

A trace is its config plus the channel's ``received`` flags: ``relay``
derives the relay flags and latencies, and the transmit times follow from
the period.  ``run`` and both readers build a trace through one helper, so
a derived column read from a file is only checked, never used.  The relay
rule is scanned in the channel draw's blocks of ``channel._BLOCK`` packets,
so its temporaries stay a few hundred kB at any trace length, and a trace
builds its latency column only when it is read: ``summarize`` takes the
relayed packets' latencies and the longest loss run from one scan without
it, and ``analyze`` needs neither.
``write_trace`` picks the format by path:

* binary, the default (any path not ending in ``.csv``): the line
  ``vlcrelay-trace 1``, the ``# key=value`` lines of
  ``PacketTrace.header()``, one empty line, then ``np.packbits(received)``,
  exactly ceil(n/8) bytes with zero pad bits.
* CSV export (a path ending in ``.csv``): the same ``# key=value`` lines
  followed by ``seq,tx_start_us,received,relayed,latency_us``, with an
  empty latency field for packets that were not relayed.  Its reader
  checks the derived columns against the relay rule.

``read_trace`` tells the two apart by the binary format's first line.  In
both, a header line is ``# key=value`` with a key not seen before, every
key but ``rng`` must be there and ``process`` must parse, and the CSV
export has no header line after its column line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import channel as _channel
from .codec import DEFAULT_PREAMBLE, REFERENCE_PAYLOAD
from .node import ConfigError, EmptyTrace, LinkConfig, compute_per

TRACE_MAGIC = b"vlcrelay-trace 1\n"
# every header key but rng=, which the readers ignore
_HEADER_KEYS = frozenset({*LinkConfig().text_fields(), "payload", "preamble", "process",
                          "n_packets", "seed"})
_CSV_COLUMNS = "seq,tx_start_us,received,relayed,latency_us"


class TraceFormatError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


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
        if np.any(self.relayed & ~self.received):
            raise ValueError("relayed packets must have been received")

    @cached_property
    def latency_s(self) -> np.ndarray:
        """Per-packet latency, NaN where not relayed."""
        return _latency_column(self.config, self.received, self.relayed)

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

    def header(self) -> dict[str, str]:
        return {
            **self.config.text_fields(),
            "payload": REFERENCE_PAYLOAD.hex(),
            "preamble": DEFAULT_PREAMBLE.hex(),
            "process": self.process_spec,
            "n_packets": str(self.n_tx),
            "seed": str(self.seed),
            "rng": _channel.stream_label(self.process_spec),
        }


def relay(config: LinkConfig, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relay flags and latencies (NaN where not relayed) for channel outcomes.

    A relay transmission starts ``dead_time_s`` after a packet ends and lasts
    one packet time, and the node cannot listen meanwhile.  When that window
    reaches into the next packet (``period < 2 pt + dead``), the next packet
    is blocked, so within a run of received packets only those at an even
    offset are relayed; otherwise every received packet is.  The short
    spill-over into the following preamble is absorbed by the sync pattern.
    A relayed packet's latency spans back over the loss run just before it:
    ``l0 + run * period``.
    """
    received = np.asarray(received, dtype=bool)
    relayed = _relay_flags(config, received)
    return relayed, _latency_column(config, received, relayed)


def _blocks(n: int):
    """The packet blocks of the scans: a slice of the stream and its indices."""
    for block in _channel._packet_blocks(n):
        yield block, np.arange(block.start, block.stop)


def _relay_flags(config: LinkConfig, received: np.ndarray) -> np.ndarray:
    """``relay``'s flags; the scan carries the last loss index across blocks."""
    relayed = received.copy()
    if config.period_s < 2 * config.packet_time_s + config.dead_time_s:
        last_loss = -1
        for block, idx in _blocks(received.size):
            # a received packet's offset in its run is idx - last_loss - 1
            losses = np.maximum.accumulate(np.where(received[block], last_loss, idx))
            relayed[block] &= (idx - losses) % 2 == 1
            last_loss = int(losses[-1])
    return relayed


def _relayed_latency_s(config: LinkConfig, received: np.ndarray,
                       relayed: np.ndarray) -> tuple[np.ndarray, int]:
    """``relay``'s latencies of the ``relayed`` packets, in order, and the
    longest loss run; the scan carries the last received index across
    blocks."""
    out = np.empty(np.count_nonzero(relayed))
    at, last_rx, max_run = 0, -1, 0
    for block, idx in _blocks(received.size):
        rx = np.maximum.accumulate(np.where(received[block], idx, last_rx))
        run = idx - rx  # a lost packet's place in its loss run, 0 if received
        max_run = max(max_run, int(run.max()))
        # a packet's latency spans the loss run that ends just before it
        loss_run = np.concatenate(([idx[0] - 1 - last_rx], run[:-1]))[relayed[block]]
        out[at:at + loss_run.size] = config.l0_s + loss_run * config.period_s
        at += loss_run.size
        last_rx = int(rx[-1])
    return out, max_run


def _latency_column(config: LinkConfig, received: np.ndarray,
                    relayed: np.ndarray) -> np.ndarray:
    latency_s = np.full(received.size, np.nan)
    latency_s[relayed] = _relayed_latency_s(config, received, relayed)[0]
    return latency_s


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def run(config: LinkConfig, process: _channel.ErrorProcess, n_packets: int,
        seed: int) -> PacketTrace:
    """Simulate ``n_packets`` transmissions through channel and relay."""
    if n_packets < 1:
        raise ConfigError(f"n_packets must be >= 1, got {n_packets}")
    rng = np.random.default_rng(_check_seed(seed))
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


@dataclass(frozen=True)
class Summary:
    per: float
    n_tx: int
    n_received: int
    n_relayed: int
    n_blocked: int
    min_latency_s: float
    mean_latency_s: float
    max_cluster: int


def summarize(trace: PacketTrace) -> Summary:
    """Aggregate a trace into the headline link metrics."""
    lat, max_cluster = _relayed_latency_s(trace.config, trace.received, trace.relayed)
    return Summary(
        per=compute_per(trace.n_tx, trace.n_relayed, trace.config.mode),
        n_tx=trace.n_tx,
        n_received=trace.n_received,
        n_relayed=trace.n_relayed,
        n_blocked=int(trace.blocked.sum()),
        min_latency_s=float(lat.min()) if lat.size else float("nan"),
        mean_latency_s=float(lat.mean()) if lat.size else float("nan"),
        max_cluster=max_cluster,
    )


def write_trace(trace: PacketTrace, path) -> None:
    """Write ``trace`` as the CSV export if ``path`` ends in ``.csv``, else
    in the binary format."""
    if str(path).endswith(".csv"):
        write_trace_csv(trace, path)
        return
    header = [f"# {key}={value}" for key, value in trace.header().items()]
    with open(path, "wb") as fh:
        fh.write(TRACE_MAGIC + "\n".join([*header, "", ""]).encode())
        fh.write(np.packbits(trace.received).tobytes())


def read_trace(path) -> PacketTrace:
    """Read a trace in either format, checked against the relay rule."""
    with open(path, "rb") as fh:
        binary = fh.read(len(TRACE_MAGIC)) == TRACE_MAGIC
        data = fh.read() if binary else b""
    return _read_trace_binary(path, data) if binary else read_trace_csv(path)


def _read_trace_binary(path, data: bytes) -> PacketTrace:
    """Parse what follows the magic line: only the header and ``received``
    are stored, so the checks are on the header and the payload's size."""
    head, blank, payload = data.partition(b"\n\n")
    if not blank:
        raise TraceFormatError(path, 0, "no empty line after the header")
    try:
        lines = head.decode("utf-8").split("\n") if head else []
    except UnicodeDecodeError as exc:
        raise TraceFormatError(path, 0, f"header is not UTF-8: {exc}") from None
    header: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=2):
        _add_header_line(path, lineno, line, header)
    try:
        n = int(header["n_packets"])
    except (KeyError, ValueError):
        raise TraceFormatError(path, 0, "bad or missing header n_packets="
                               f"{header.get('n_packets')!r}") from None
    if n < 1:
        raise TraceFormatError(path, 0, "no packet records")
    size = -(-n // 8)
    if len(payload) < size:
        raise TraceFormatError(path, 0, f"header n_packets={n} needs {size} payload "
                               f"bytes, got {len(payload)}")
    if len(payload) > size:
        raise TraceFormatError(path, 0, f"{len(payload) - size} trailing bytes after "
                               f"the {size}-byte payload")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bits[n:].any():
        raise TraceFormatError(path, 0, "pad bits after the last packet must be 0")
    return _trace_from_header(path, header, bits[:n].astype(bool))


def _add_header_line(path, lineno: int, line: str, header: dict[str, str]) -> None:
    """Enter a ``# key=value`` line whose key is new into ``header``; both
    readers reject any other header line."""
    key, eq, value = line.removeprefix("# ").partition("=")
    if not line.startswith("# ") or not eq or key in header:
        raise TraceFormatError(path, lineno, f"expected a new '# key=value' line, "
                               f"got {line!r}")
    header[key] = value


def _trace_from_header(path, header: dict[str, str], received: np.ndarray) -> PacketTrace:
    missing = _HEADER_KEYS - set(header)
    if missing:
        raise TraceFormatError(path, 0, f"missing header keys: {sorted(missing)}")
    if header["n_packets"] != str(received.size):
        raise TraceFormatError(path, 0, f"header n_packets={header['n_packets']} but "
                               f"{received.size} packet records")
    try:
        for key, value in (("payload", REFERENCE_PAYLOAD), ("preamble", DEFAULT_PREAMBLE)):
            if header[key] != value.hex():
                raise ValueError(f"{key}={header[key]}, but the link's is {value.hex()}")
        config = LinkConfig.from_text_fields(header)
        _channel.process_from_spec(header["process"])  # checked, kept as written
        seed = _check_seed(int(header["seed"]))
    except ValueError as exc:
        raise TraceFormatError(path, 0, f"bad header: {exc}") from None
    return _build_trace(config, header["process"], seed, received)


def write_trace_csv(trace: PacketTrace, path) -> None:
    """Write the CSV export, its rows formatted a block of packets at a time."""
    header = [f"# {key}={value}" for key, value in trace.header().items()]
    lat_us, _ = _relayed_latency_s(trace.config, trace.received, trace.relayed)
    lat_us *= 1e6
    at = 0
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([*header, _CSV_COLUMNS]) + "\n")
        for block, idx in _blocks(trace.n_tx):
            relayed = trace.relayed[block].view(np.uint8).tolist()
            n_relayed = sum(relayed)
            lat = map(repr, lat_us[at:at + n_relayed].tolist())
            at += n_relayed
            tx_us = idx * trace.config.period_s * 1e6  # tx_start_s * 1e6, bit for bit
            rows = map("{},{!r},{},{},{}".format, idx.tolist(), tx_us.tolist(),
                       trace.received[block].view(np.uint8).tolist(), relayed,
                       [next(lat) if r else "" for r in relayed])
            fh.write("\n".join(rows) + "\n")


def read_trace_csv(path) -> PacketTrace:
    header: dict[str, str] = {}
    seqs: list[int] = []
    tx_us: list[float] = []
    received: list[bool] = []
    relayed: list[bool] = []
    latency_us: list[float] = []
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
                    _add_header_line(path, lineno, line, header)
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
            try:
                seqs.append(int(parts[0]))
                tx_us.append(float(parts[1]))
                received.append(parts[2] == "1")
                relayed.append(parts[3] == "1")
                latency_us.append(float(parts[4]) if parts[4] else float("nan"))
            except ValueError as exc:
                raise TraceFormatError(path, lineno, str(exc)) from None
    if not seqs:
        raise TraceFormatError(path, 0, "no packet records")
    if seqs != list(range(len(seqs))):
        raise TraceFormatError(path, 0, "seq must increase from 0 without gaps")
    columns = dict(tx_start_s=np.asarray(tx_us) / 1e6,
                   relayed=np.asarray(relayed, dtype=bool),
                   latency_s=np.asarray(latency_us) / 1e6)
    received = np.asarray(received, dtype=bool)
    del seqs, tx_us, relayed, latency_us  # keep the peak memory at the parse
    trace = _trace_from_header(path, header, received)
    _check_relay_rule(path, trace, **columns)
    return trace


def _check_relay_rule(path, trace: PacketTrace, tx_start_s, relayed, latency_s) -> None:
    """Reject CSV columns that are not what the header config and the
    ``received`` column give.  Times compare to 1e-9 relative, since the
    header and the columns round-trip through microsecond text."""
    for column, bad in (
        ("tx_start_us", ~np.isclose(tx_start_s, trace.tx_start_s, rtol=1e-9, atol=0)),
        ("relayed", relayed != trace.relayed),
        ("latency_us", ~np.isclose(latency_s, trace.latency_s, rtol=1e-9, atol=0,
                                   equal_nan=True)),
    ):
        if bad.any():
            raise TraceFormatError(path, 0, f"seq {int(np.argmax(bad))}: {column} "
                                   "disagrees with the relay rule for the header config")
