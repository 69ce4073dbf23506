from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcrelay import channel, codec

GOLDEN = Path(__file__).parent / "data" / "chips_golden.txt"


def test_frame_concatenates_preamble_first():
    bits = codec.frame(b"\x00\x00", b"\xff\xff")
    assert bits.size == 32
    assert bits_to_hex(bits) == "ffff0000"
    assert bits_to_hex(codec.frame(b"\xa5\xa5", b"\xff\xff")) == "ffffa5a5"


def bits_to_hex(bits):
    return codec.bits_to_bytes(bits).hex()


def test_frame_rejects_bad_lengths():
    with pytest.raises(codec.CodecError):
        codec.frame(b"\x00", b"\xff\xff")
    with pytest.raises(codec.CodecError):
        codec.frame(b"\x00\x00", b"\xff")


def test_exhaustive_payload_roundtrip():
    # every 2-byte payload survives frame -> deframe
    for value in range(1 << 16):
        payload = value.to_bytes(2, "big")
        assert codec.deframe(codec.frame(payload)) == payload


def test_manchester_bit_mapping():
    one = codec.manchester_encode(codec.frame(b"\xff\xff", b"\xff\xff")).chips
    assert np.array_equal(one[:2], [0, 1])
    zero_frame = codec.frame(b"\x00\x00", b"\x00\x00")
    zero = codec.manchester_encode(zero_frame).chips
    assert np.array_equal(zero[:2], [1, 0])


def test_chipstream_shape_and_balance():
    stream = codec.manchester_encode(codec.frame(b"\xa5\xa5"))
    chips = stream.chips
    assert chips.size == 64
    pairs = chips.reshape(-1, 2)
    assert np.all(pairs[:, 0] != pairs[:, 1])
    assert chips.mean() == 0.5


def test_stream_duration_matches_baud():
    stream = codec.manchester_encode(codec.frame(b"\xa5\xa5"), baud=230000)
    assert stream.duration_s == 64 / 230000
    assert stream.duration_s == pytest.approx(278.3e-6, abs=0.5e-6)
    assert stream.chip_duration_s == 1 / 230000


def test_roundtrip_random_frames():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        bits = rng.integers(0, 2, size=32).astype(np.uint8)
        assert np.array_equal(codec.manchester_decode(codec.manchester_encode(bits)), bits)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_roundtrip_property(word):
    bits = codec.bytes_to_bits(word.to_bytes(4, "big"))
    assert np.array_equal(codec.manchester_decode(codec.manchester_encode(bits)), bits)


def test_roundtrip_inverted_polarity():
    bits = codec.frame(b"\x3c\x7e")
    stream = codec.manchester_encode(bits, invert_polarity=True)
    assert np.array_equal(codec.manchester_decode(stream, invert_polarity=True), bits)
    # the two conventions actually differ on the wire
    assert not np.array_equal(
        stream.chips, codec.manchester_encode(bits).chips)


def test_decode_all_ones_frame():
    stream = codec.manchester_encode(codec.frame(b"\xff\xff", b"\xff\xff"))
    assert bits_to_hex(codec.manchester_decode(stream)) == "ffffffff"


def test_decode_reports_first_invalid_pair():
    chips = codec.manchester_encode(codec.frame(b"\xa5\xa5")).chips.copy()
    chips[10] = chips[11] = 1  # corrupt bit 5
    with pytest.raises(codec.InvalidChipPair) as err:
        codec.manchester_decode(chips)
    assert err.value.bit_index == 5


def test_decode_length_error():
    with pytest.raises(codec.LengthError):
        codec.manchester_decode(np.zeros(62, dtype=np.uint8))


def test_validate_preamble_accepts_and_extracts():
    bits = codec.frame(b"\xa5\xa5", b"\xff\xff")
    assert codec.validate_preamble(bits, b"\xff\xff") == b"\xa5\xa5"


def test_validate_preamble_reports_mismatch_bits():
    bits = codec.bytes_to_bits(bytes.fromhex("feffa5a5"))
    with pytest.raises(codec.SyncError) as err:
        codec.validate_preamble(bits, b"\xff\xff")
    assert err.value.mismatch_bits == [7]


def test_validate_preamble_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        payload = rng.bytes(2)
        pattern = rng.bytes(2)
        assert codec.validate_preamble(codec.frame(payload, pattern), pattern) == payload


def test_chips_golden_file():
    stream = codec.manchester_encode(codec.frame(b"\xa5\xa5", b"\xff\xff"))
    assert codec.chips_to_text(stream) == GOLDEN.read_text().strip()


def test_chips_text_roundtrip():
    stream = codec.manchester_encode(codec.frame(b"\x12\x34"))
    back = codec.text_to_chips(codec.chips_to_text(stream), baud=stream.baud)
    assert np.array_equal(back.chips, stream.chips)
    with pytest.raises(codec.CodecError):
        codec.text_to_chips("01012")


@pytest.mark.parametrize("q", [0.002, 0.01, 0.03])
def test_iid_bit_is_the_codec_under_iid_chip_flips(q):
    # the relay keeps a packet iff it decodes, its preamble matches and its
    # payload is the reference.  One flipped chip of a pair makes an invalid
    # pair and two a wrong bit, so under chip flips of probability q a
    # packet passes iff none of its 64 chips flipped: iid-bit at
    # p = 1 - (1 - q)^2 per bit
    chips = codec.manchester_encode(codec.frame(codec.REFERENCE_PAYLOAD)).chips
    flips = np.random.default_rng(31).random((2000, chips.size)) < q
    passed = []
    for flipped in flips:
        try:
            bits = codec.manchester_decode(chips ^ flipped)
            passed.append(codec.validate_preamble(bits) == codec.REFERENCE_PAYLOAD)
        except codec.CodecError:
            passed.append(False)
    assert passed == (~flips.any(axis=1)).tolist()
    assert 0 < sum(passed) < len(passed)
    process = channel.IidBit(1.0 - (1.0 - q) ** 2)
    assert process.loss_rate == pytest.approx(1.0 - (1.0 - q) ** 64, rel=1e-13)
