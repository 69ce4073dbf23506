"""Bit-exact packet framing and Manchester/OOK chip coding.

The link carries fixed 4-byte frames: a 2-byte preamble followed by a
2-byte payload, 32 bits serialized MSB-first with the preamble bytes first.
Each bit maps to two optical chips, so a full frame is 64 chips and the
encoded stream always averages exactly half optical level.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .node import CHIPS_PER_FRAME, DEFAULT_PREAMBLE, FRAME_BITS
from .node import REFERENCE_PAYLOAD  # noqa: F401  (re-exported)


class CodecError(ValueError):
    """Base class for framing/coding failures."""


class LengthError(CodecError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected {expected} chips, got {got}")
        self.expected = expected
        self.got = got


class InvalidChipPair(CodecError):
    def __init__(self, bit_index: int):
        super().__init__(f"invalid chip pair (0,0)/(1,1) at bit {bit_index}")
        self.bit_index = bit_index


class SyncError(CodecError):
    def __init__(self, mismatch_bits: list[int]):
        super().__init__(f"preamble mismatch at bits {mismatch_bits}")
        self.mismatch_bits = mismatch_bits


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Unpack bytes to a uint8 bit array, MSB first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def frame(payload: bytes, preamble: bytes = DEFAULT_PREAMBLE) -> np.ndarray:
    """Build the 32-bit frame: preamble bits first, then payload bits."""
    if len(payload) != 2:
        raise CodecError(f"payload must be 2 bytes, got {len(payload)}")
    if len(preamble) != 2:
        raise CodecError(f"preamble must be 2 bytes, got {len(preamble)}")
    return bytes_to_bits(preamble + payload)


def deframe(frame_bits: np.ndarray) -> bytes:
    """Extract the payload bytes (no preamble validation)."""
    bits = np.asarray(frame_bits, dtype=np.uint8)
    if bits.size != FRAME_BITS:
        raise LengthError(FRAME_BITS, bits.size)
    return bits_to_bytes(bits[16:])


def validate_preamble(frame_bits: np.ndarray, pattern: bytes = DEFAULT_PREAMBLE) -> bytes:
    """Return the payload iff the first 16 bits equal ``pattern``.

    Raises SyncError listing the mismatching bit positions otherwise.
    """
    bits = np.asarray(frame_bits, dtype=np.uint8)
    if bits.size != FRAME_BITS:
        raise LengthError(FRAME_BITS, bits.size)
    want = bytes_to_bits(pattern)
    bad = np.flatnonzero(bits[:16] != want)
    if bad.size:
        raise SyncError([int(b) for b in bad])
    return bits_to_bytes(bits[16:])


class ChipStream(Record):
    """Binary optical levels plus their on-air timing."""

    chips: np.ndarray
    baud: int

    def __post_init__(self):
        if self.baud <= 0:
            raise CodecError(f"baud must be positive, got {self.baud}")

    @property
    def chip_duration_s(self) -> float:
        return 1.0 / self.baud

    @property
    def duration_s(self) -> float:
        return self.chips.size / self.baud


def manchester_encode(frame_bits: np.ndarray, baud: int = 230000,
                      invert_polarity: bool = False) -> ChipStream:
    """Encode a 32-bit frame as 64 chips: bit 1 -> (0,1), bit 0 -> (1,0).

    ``invert_polarity`` swaps the convention for links wired the other way.
    """
    bits = np.asarray(frame_bits, dtype=np.uint8)
    if bits.size != FRAME_BITS:
        raise LengthError(FRAME_BITS, bits.size)
    if invert_polarity:
        bits = 1 - bits
    chips = np.empty(2 * bits.size, dtype=np.uint8)
    chips[0::2] = 1 - bits
    chips[1::2] = bits
    return ChipStream(chips=chips, baud=baud)


def manchester_decode(chips, invert_polarity: bool = False) -> np.ndarray:
    """Invert the chip mapping back to the 32-bit frame.

    Raises LengthError unless exactly 64 chips are given, and
    InvalidChipPair at the first (0,0) or (1,1) pair.
    """
    if isinstance(chips, ChipStream):
        chips = chips.chips
    arr = np.asarray(chips, dtype=np.uint8)
    if arr.size != CHIPS_PER_FRAME:
        raise LengthError(CHIPS_PER_FRAME, arr.size)
    pairs = arr.reshape(-1, 2)
    bad = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if bad.size:
        raise InvalidChipPair(int(bad[0]))
    bits = pairs[:, 1].copy()
    if invert_polarity:
        bits = 1 - bits
    return bits


def chips_to_text(stream: ChipStream) -> str:
    """Serialize chips as one ASCII '0'/'1' line (golden-file friendly)."""
    return "".join("1" if c else "0" for c in stream.chips)


def text_to_chips(line: str, baud: int = 230000) -> ChipStream:
    line = line.strip()
    if not line or set(line) - {"0", "1"}:
        raise CodecError("chip line must be nonempty and contain only 0/1")
    chips = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
    return ChipStream(chips=chips.astype(np.uint8), baud=baud)
