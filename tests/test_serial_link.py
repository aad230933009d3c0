import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from evsim import serial_link
from evsim.serial_link import (
    COMMAND_FRAME_LEN,
    BadCrcError,
    BadLengthError,
    BadStartError,
    CommandPacket,
    FrameError,
    StreamDecoder,
    crc16_ccitt,
    decode_packet,
    encode_packet,
)


def crc16_bitwise(data: bytes, init: int) -> int:
    # Shift-register reference, one bit at a time. Deliberately independent
    # of the table-driven implementation under test.
    crc = init
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class TestCrc:
    def test_check_value(self):
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty(self):
        assert crc16_ccitt(b"") == 0xFFFF

    @given(st.binary(max_size=64))
    def test_matches_bitwise_reference(self, data):
        assert crc16_ccitt(data) == crc16_bitwise(data, 0xFFFF)


class TestPacketCodec:
    def test_wire_layout(self):
        buf = encode_packet(0.0, 0.0, 0.5)
        assert buf == bytes.fromhex("FA 06 00 00 00 00 80 00 15 88")

    def test_field_order(self):
        buf = encode_packet(1.0, 0.0, 0.0)
        assert buf[2:8] == bytes.fromhex("FF FF 00 00 00 00")

    def test_decode(self):
        pkt = decode_packet(encode_packet(0.25, 0.5, 0.75))
        assert pkt.bpp == pytest.approx(0.5, abs=1 / 65535)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_packet(1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            CommandPacket(0.0, -0.1, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_roundtrip_quantization(self, app, bpp, steer):
        pkt = decode_packet(encode_packet(app, bpp, steer))
        half_step = 0.5 / serial_link.FIXED_POINT_FULL_SCALE
        for sent, got in ((app, pkt.app), (bpp, pkt.bpp), (steer, pkt.steer)):
            assert abs(sent - got) <= half_step + 1e-12


#: A valid command frame, FA 06 19 9A 33 33 4C CC 47 F3.
_WIRE = encode_packet(0.1, 0.2, 0.3)


def _with(index: int, value: int) -> bytes:
    buf = bytearray(_WIRE)
    buf[index] = value
    return bytes(buf)


def _flipped(frame: bytes, bit: int) -> bytes:
    buf = bytearray(frame)
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


_FRAME = st.builds(lambda a, b, s: encode_packet(a / 65535, b / 65535, s / 65535),
                   st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
#: stream pieces: noise, whole frames, frames with one bit flipped, lone start bytes
_SEGMENT = st.one_of(st.binary(max_size=12), _FRAME,
                     st.builds(_flipped, _FRAME, st.integers(0, 8 * COMMAND_FRAME_LEN - 1)),
                     st.just(bytes([serial_link.START_BYTE])))


class TestFrameErrors:
    # every input faults one check or more; the first check in the order
    # truncation, start byte, length byte, CRC, command length names it
    @pytest.mark.parametrize("buf, error, message", [
        (b"", BadLengthError, "frame truncated at 0 bytes"),
        (b"\xfa", BadLengthError, "frame truncated at 1 bytes"),
        (b"\x00", BadLengthError, "frame truncated at 1 bytes"),
        (_with(0, 0xFB), BadStartError, "expected start byte 0xFA, got 0xFB"),
        (_with(0, 0x00)[:3], BadStartError, "expected start byte 0xFA, got 0x00"),
        (_with(1, 7), BadLengthError, "length byte 7 but frame is 10 bytes"),
        (_WIRE[:-1], BadLengthError, "length byte 6 but frame is 9 bytes"),
        (_WIRE + b"\x00", BadLengthError, "length byte 6 but frame is 11 bytes"),
        (_with(9, 0xF2), BadCrcError, "crc mismatch: frame 0x47F2, computed 0x47F3"),
        (_with(2, 0x18), BadCrcError, "crc mismatch: frame 0x47F3, computed 0x0253"),
        (bytes.fromhex("FA 05 00 01 02 03 04 1C 0F"), BadLengthError,
         "command payload must be 6 bytes, got 5"),
        (bytes.fromhex("FA 00 FF FF"), BadLengthError, "command payload must be 6 bytes, got 0"),
        (bytes.fromhex("FA 05 00 01 02 03 04 1C 0E"), BadCrcError,
         "crc mismatch: frame 0x1C0E, computed 0x1C0F"),
    ], ids=["empty", "start-only", "one-byte", "bad-start", "bad-start-short", "length-byte",
            "truncated", "trailing-byte", "bad-crc", "bad-payload-crc", "five-byte-payload",
            "empty-payload", "five-byte-bad-crc"])
    def test_first_fault_named(self, buf, error, message):
        with pytest.raises(FrameError) as exc:
            decode_packet(buf)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_valid_frames_decode(self):
        assert decode_packet(_WIRE) == CommandPacket(6554 / 65535, 13107 / 65535, 19660 / 65535)
        assert decode_packet(bytearray(_WIRE)) == decode_packet(_WIRE)

    def test_every_single_bit_flip_detected(self):
        rng = random.Random(41)
        for _ in range(100):
            frame = encode_packet(rng.random(), rng.random(), rng.random())
            for bit in range(8 * len(frame)):
                mutated = bytearray(frame)
                mutated[bit // 8] ^= 1 << (bit % 8)
                with pytest.raises(FrameError):
                    decode_packet(bytes(mutated))


class TestStreamDecoder:
    def test_clean_stream(self):
        dec = StreamDecoder()
        stream = encode_packet(0.1, 0.0, 0.5) + encode_packet(0.2, 0.0, 0.5)
        out = dec.feed(stream)
        assert len(out) == 2
        assert out[0].app == pytest.approx(0.1, abs=1e-4)

    def test_garbage_prefix(self):
        dec = StreamDecoder()
        out = dec.feed(b"\x00\x13\x37" + encode_packet(0.4, 0.0, 0.5))
        assert len(out) == 1

    def test_split_feed(self):
        dec = StreamDecoder()
        frame = encode_packet(0.6, 0.0, 0.5)
        assert dec.feed(frame[:4]) == []
        assert dec.feed(frame[4:7]) == []
        out = dec.feed(frame[7:])
        assert len(out) == 1

    def test_resync_after_corruption(self):
        dec = StreamDecoder()
        bad = bytearray(encode_packet(0.1, 0.2, 0.3))
        bad[5] ^= 0xFF
        out = dec.feed(bytes(bad) + encode_packet(0.9, 0.0, 0.5))
        assert len(out) == 1
        assert out[0].app == pytest.approx(0.9, abs=1e-4)

    def test_start_byte_inside_payload(self):
        # app = 0xFA00/65535 puts a start byte in the payload; a decoder
        # that locks onto it must still recover the following frame.
        tricky = encode_packet(0xFA00 / 65535, 0.0, 0.5)
        dec = StreamDecoder()
        out = dec.feed(tricky[:3])  # scanner sees FA 06 FA and stalls mid-frame
        out += dec.feed(tricky[3:])
        out += dec.feed(encode_packet(0.5, 0.5, 0.5))
        assert len(out) == 2

    def test_lone_start_byte_keeps_state(self):
        dec = StreamDecoder()
        assert dec.feed(b"\xfa") == []
        frame = encode_packet(0.3, 0.0, 0.5)
        # the pending 0xFA is stale garbage; the real frame still decodes
        out = dec.feed(frame)
        assert len(out) == 1

    def test_corrupt_whole_frame_is_checked_once(self, monkeypatch):
        calls = []

        def counting(buf):
            calls.append(bytes(buf))
            return decode_packet(buf)

        monkeypatch.setattr(serial_link, "decode_packet", counting)
        dec = StreamDecoder()
        assert dec.feed(_with(4, _WIRE[4] ^ 0x01)) == []  # one payload bit flipped
        assert len(calls) == 1
        assert dec.feed(_WIRE) == [decode_packet(_WIRE)]

    @settings(deadline=None, max_examples=300)
    @given(st.lists(_SEGMENT, max_size=8),
           st.lists(st.one_of(st.just(COMMAND_FRAME_LEN), st.integers(1, 25)), max_size=12))
    def test_any_split_decodes_as_byte_at_a_time(self, segments, sizes):
        stream = b"".join(segments)
        one = StreamDecoder()
        expected = [pkt for i in range(len(stream)) for pkt in one.feed(stream[i:i + 1])]
        dec = StreamDecoder()
        got, pos = [], 0
        for size in sizes + [len(stream)]:  # the last chunk takes what is left
            got += dec.feed(stream[pos:pos + size])
            pos += size
        assert got == expected

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.binary(max_size=32), max_size=8))
    def test_feed_never_raises(self, chunks):
        dec = StreamDecoder()
        for chunk in chunks:
            for pkt in dec.feed(chunk):
                assert isinstance(pkt, CommandPacket)

    @settings(deadline=None, max_examples=200)
    @given(st.binary(max_size=40), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
           st.integers(0, 0xFFFF))
    def test_clean_packet_after_garbage_decodes(self, garbage, app, bpp, steer):
        wire = encode_packet(app / 65535, bpp / 65535, steer / 65535)
        stream = garbage + wire
        # The packet can only be lost to a frame that starts in the garbage,
        # runs into the packet and passes its CRC by a 16-bit collision.
        for start in range(max(0, len(garbage) - 9), len(garbage)):
            try:
                decode_packet(stream[start:start + 10])
            except FrameError:
                continue
            assume(False)
        out = StreamDecoder().feed(stream)
        assert out and out[-1] == decode_packet(wire)
