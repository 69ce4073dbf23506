"""A trace's stored form and the trace file's layout, without numpy.

``BinaryTrace`` is a trace as stored and the one owner of its bits: every
summary, report and per-packet relay flag reads its ``received_bits``,
``relayed_bits`` (the relay rule) and ``loss_runs`` (the run count).
``write_binary`` writes it and ``read_binary`` reads and checks it: the
line ``vlcrelay-trace 2``, the ``# key=value`` lines of ``header()``, one
empty line, then the packed payload as one zlib stream (RFC 1950) of the
run-length strategy.  At a realistic PER the payload is nearly all 1-bits,
so the stream is half its size or less, and its Adler-32 checksum makes a
damaged payload a format error.  The reader inflates at most one byte more
than the header's packet count allows.  ``simulate`` and ``analyze`` of a
binary trace use this form alone: neither builds a ``PacketTrace``, and
``analyze`` loads neither numpy nor ``sim``.  Both readers check a header
by ``add_header_line`` and ``check_header``.
"""

from __future__ import annotations

import sys
import zlib
from collections import Counter
from functools import cached_property

from . import channel as _channel
from ._errors import TraceFormatError
from ._record import Record
from .node import DEFAULT_PREAMBLE, REFERENCE_PAYLOAD, ConfigError, LinkConfig

TRACE_MAGIC = b"vlcrelay-trace 2\n"
# the format that stored the packed payload raw; it has no reader
_FORMAT_1_MAGIC = b"vlcrelay-trace 1\n"
_RUN_BLOCK = 1 << 16  # packets per block of the run count: 2^13 payload bytes
_LADDER = 16  # runs shorter than this are counted by popcounts, longer ones one by one
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # packet j to bit j


class BinaryTrace(Record):
    """A trace as stored: its header's link, process spec and seed, and
    ``payload``, the ``received`` flags packed eight to a byte, first
    packet in the high bit, ceil(n_packets / 8) bytes with zero pad bits."""

    config: LinkConfig
    process_spec: str
    seed: int
    n_packets: int
    payload: bytes

    def header(self) -> dict[str, str]:
        """The header's fields in the order written; the readers require
        every key but ``rng``, which names the random stream."""
        return {
            **self.config.text_fields(),
            "payload": REFERENCE_PAYLOAD.hex(),
            "preamble": DEFAULT_PREAMBLE.hex(),
            "process": self.process_spec,
            "n_packets": str(self.n_packets),
            "seed": str(self.seed),
            "rng": _channel.stream_label(self.process_spec),
        }

    def header_lines(self) -> list[str]:
        return [f"# {key}={value}" for key, value in self.header().items()]

    @property
    def opens_lost(self) -> bool:
        return not self.payload[0] >> 7

    @cached_property
    def received_bits(self) -> int:
        """The payload as one int, packet j at bit j, set where received."""
        return int.from_bytes(self.payload.translate(_REVERSED), "little")

    @cached_property
    def relayed_bits(self) -> int:
        """The relay rule, held as ``received_bits`` are: on a link where
        ``LinkConfig.relay_blocks``, a received packet is relayed iff its
        offset in its run of receptions is even, else every one is.  Adding
        a run's first bit carries through the run and clears it, so
        ``even_runs`` holds the runs that start at an even bit."""
        x = self.received_bits
        if not self.config.relay_blocks:
            return x
        even = int.from_bytes(b"\x55" * len(self.payload), "little")
        starts = x & ~(x << 1)
        even_runs = x & ~(x + (starts & even))
        return x & ~(even_runs ^ even)

    @cached_property
    def loss_runs(self) -> Counter:
        """The maximal loss runs by length, the trailing run too, a block of
        ``_RUN_BLOCK`` packets at a time: each block adds the run its first
        reception ends, with the losses carried from the blocks before, and
        the runs between its receptions, and carries the rest on."""
        payload, n = self.payload, self.n_packets
        runs, open_run = Counter(), 0
        step = _RUN_BLOCK // 8
        for lo in range(0, len(payload), step):
            chunk = payload[lo:lo + step]
            size = min(8 * len(chunk), n - 8 * lo)
            bits = int.from_bytes(chunk, "big") >> (8 * len(chunk) - size)  # no pad bits
            if not bits:
                open_run += size
                continue
            top = bits.bit_length()  # size - top losses open the block
            last = (bits & -bits).bit_length() - 1  # losses after its last reception
            if open_run + size - top:
                runs[open_run + size - top] += 1
            _add_runs((((1 << top) - 1) ^ bits) >> last, runs)
            open_run = last
        if open_run:
            runs[open_run] += 1
        return runs


def _add_runs(lost: int, runs: Counter) -> None:
    """Add the maximal runs of set bits of ``lost`` to ``runs``, by length.

    After ``lost &= lost << 1`` a set bit ends one more set bit in a row,
    so each step keeps a run but one bit shorter, and the popcount falls by
    the number of runs at least as long as the steps so far.  A run still
    there after ``_LADDER - 1`` steps is taken from the digits of the bits
    left, which by then are few."""
    at_least: list[int] = []  # at_least[k - 1]: the runs of k or more
    count = lost.bit_count()
    while lost and len(at_least) < _LADDER - 1:
        lost &= lost << 1
        count, before = lost.bit_count(), count
        at_least.append(before - count)
    long_runs = format(lost, "b").replace("0", " ").split() if lost else []
    runs.update(len(digits) + len(at_least) for digits in long_runs)
    at_least.append(len(long_runs))
    for k in range(1, len(at_least)):
        if at_least[k - 1] > at_least[k]:
            runs[k] += at_least[k - 1] - at_least[k]


# every header key but rng=, which the readers ignore
HEADER_KEYS = frozenset(BinaryTrace(LinkConfig(), "", 0, 0, b"").header()) - {"rng"}


def write_binary(stored: BinaryTrace, path) -> None:
    """Write ``stored`` in the binary format, which ``read_binary`` reads."""
    deflate = zlib.compressobj(9, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    with open(path, "wb") as fh:
        fh.write(TRACE_MAGIC + "\n".join([*stored.header_lines(), "", ""]).encode())
        fh.write(deflate.compress(stored.payload))
        fh.write(deflate.flush())


def check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def read_binary(path) -> BinaryTrace | None:
    """Read and check a binary trace, inflating its payload; None when the
    file opens with neither format's first line, as a CSV export does not.
    A file of format 1, whose payload is stored raw, is a format error."""
    with open(path, "rb") as fh:
        magic = fh.read(len(TRACE_MAGIC))
        if magic == _FORMAT_1_MAGIC:
            raise TraceFormatError(path, 1, "trace format 1 (a raw payload) is no longer "
                                   "read; rerun simulate with the header's seed= to "
                                   "write format 2")
        if magic != TRACE_MAGIC:
            return None
        data = fh.read()
    # only the header and received are stored, so the checks are on the
    # header, the payload's stream and the payload's size
    end = data.find(b"\n\n")
    if end < 0:
        raise TraceFormatError(path, 0, "no empty line after the header")
    try:
        lines = data[:end].decode("utf-8").split("\n") if end else []
    except UnicodeDecodeError as exc:
        raise TraceFormatError(path, 0, f"header is not UTF-8: {exc}") from None
    header: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=2):
        add_header_line(path, lineno, line, header)
    try:
        n = int(header["n_packets"])
    except (KeyError, ValueError):
        raise TraceFormatError(path, 0, "bad or missing header n_packets="
                               f"{header.get('n_packets')!r}") from None
    if n < 1:
        raise TraceFormatError(path, 0, "no packet records")
    size = -(-n // 8)
    inflate = zlib.decompressobj()
    try:
        # zlib takes a length up to sys.maxsize; a larger size fails below
        payload = inflate.decompress(memoryview(data)[end + 2:], min(size + 1, sys.maxsize))
    except zlib.error as exc:
        raise TraceFormatError(path, 0, f"payload stream: {exc}") from None
    needs = f"header n_packets={n} needs {size} payload bytes, got"
    if len(payload) > size:
        raise TraceFormatError(path, 0, f"{needs} more than {size}")
    if not inflate.eof:
        raise TraceFormatError(path, 0, "payload stream is cut short before its end")
    if inflate.unused_data:
        raise TraceFormatError(path, 0, f"{len(inflate.unused_data)} trailing bytes "
                               "after the payload stream")
    if len(payload) < size:
        raise TraceFormatError(path, 0, f"{needs} {len(payload)}")
    if payload[-1] & ((1 << (8 * size - n)) - 1):
        raise TraceFormatError(path, 0, "pad bits after the last packet must be 0")
    return BinaryTrace(*check_header(path, header, n), n_packets=n, payload=payload)


def add_header_line(path, lineno: int, line: str, header: dict[str, str]) -> None:
    """Enter a ``# key=value`` line whose key is new into ``header``; both
    readers reject any other header line."""
    key, eq, value = line.removeprefix("# ").partition("=")
    if not line.startswith("# ") or not eq or key in header:
        raise TraceFormatError(path, lineno, f"expected a new '# key=value' line, "
                               f"got {line!r}")
    header[key] = value


def check_header(path, header: dict[str, str], n_packets: int) -> tuple[LinkConfig, str, int]:
    """The link, process spec (checked, kept as written) and seed of a
    trace of ``n_packets`` records with ``header``."""
    missing = HEADER_KEYS - set(header)
    if missing:
        raise TraceFormatError(path, 0, f"missing header keys: {sorted(missing)}")
    if header["n_packets"] != str(n_packets):
        raise TraceFormatError(path, 0, f"header n_packets={header['n_packets']} but "
                               f"{n_packets} packet records")
    try:
        for key, value in (("payload", REFERENCE_PAYLOAD), ("preamble", DEFAULT_PREAMBLE)):
            if header[key] != value.hex():
                raise ValueError(f"{key}={header[key]}, but the link's is {value.hex()}")
        for key in ("seed", "baud"):  # the writer's decimal spelling, as n_packets
            if header[key] != str(int(header[key])):
                raise ValueError(f"{key}={header[key]} is not spelled as the writer "
                                 f"spells {int(header[key])}")
        config = LinkConfig.from_text_fields(header)
        _channel.process_from_spec(header["process"])
        seed = check_seed(int(header["seed"]))
    except ValueError as exc:
        raise TraceFormatError(path, 0, f"bad header: {exc}") from None
    return config, header["process"], seed
