"""A trace's stored form and the trace file's layout, without numpy.

``BinaryTrace`` is a trace as stored.  ``write_binary`` writes it in the
binary format and ``read_binary`` reads and checks it: the line
``vlcrelay-trace 1``, the ``# key=value`` lines of ``BinaryTrace.header()``,
one empty line, then the payload.  ``sim`` turns a ``PacketTrace`` into
this form (``PacketTrace.stored``) and back, and writes the same header
lines atop its CSV export; ``analyze`` of a binary trace reads it here
alone and counts its loss runs from the payload
(``clusters.extract_clusters``), so it loads neither numpy nor ``sim``.
Both readers take a header line by ``add_header_line`` and check the
header by ``check_header``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import channel as _channel
from ._errors import TraceFormatError
from .node import DEFAULT_PREAMBLE, REFERENCE_PAYLOAD, ConfigError, LinkConfig

TRACE_MAGIC = b"vlcrelay-trace 1\n"


@dataclass(frozen=True)
class BinaryTrace:
    """A trace as stored: its header's link, process spec and seed, and
    ``payload``, the ``received`` flags packed eight to a byte, first
    packet in the high bit, ceil(n_packets / 8) bytes with zero pad bits."""

    config: LinkConfig
    process_spec: str
    seed: int
    n_packets: int
    payload: bytes | memoryview

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


# every header key but rng=, which the readers ignore
HEADER_KEYS = frozenset(BinaryTrace(LinkConfig(), "", 0, 0, b"").header()) - {"rng"}


def write_binary(stored: BinaryTrace, path) -> None:
    """Write ``stored`` in the binary format, which ``read_binary`` reads."""
    with open(path, "wb") as fh:
        fh.write(TRACE_MAGIC + "\n".join([*stored.header_lines(), "", ""]).encode())
        fh.write(stored.payload)


def check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def read_binary(path) -> BinaryTrace | None:
    """Read and check a binary trace; None when the file does not open with
    its magic line, as a CSV export does not."""
    with open(path, "rb") as fh:
        if fh.read(len(TRACE_MAGIC)) != TRACE_MAGIC:
            return None
        data = fh.read()
    # only the header and received are stored, so the checks are on the
    # header and the payload's size
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
    payload = memoryview(data)[end + 2:]  # a view, not a copy
    if len(payload) < size:
        raise TraceFormatError(path, 0, f"header n_packets={n} needs {size} payload "
                               f"bytes, got {len(payload)}")
    if len(payload) > size:
        raise TraceFormatError(path, 0, f"{len(payload) - size} trailing bytes after "
                               f"the {size}-byte payload")
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
