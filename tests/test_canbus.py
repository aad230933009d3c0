import heapq
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from evsim import canbus, recordings, scenario
from evsim.canbus import CanBus, CanFrame, CanTrace, TraceParseError
from evsim.injection import FilterRule
from evsim.plant import SimulatedEcus, VehiclePlant


def parse_per_token(text):
    """Reference parser: the per-token parser parse_trace replaced.

    Each byte goes through int(tok, 16), and the checks of the old
    frame constructor (timestamp, id, dlc range) follow the order check,
    in that order; a timestamp must also fit an int64 column.
    """
    frames = []
    last_t = -1
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) < 3:
            raise TraceParseError(line_no, "expected '<timestamp> <id> <dlc> <bytes...>'")
        try:
            t = int(tokens[0])
        except ValueError:
            raise TraceParseError(line_no, f"bad timestamp {tokens[0]!r}") from None
        try:
            arb_id = int(tokens[1], 16)
        except ValueError:
            raise TraceParseError(line_no, f"bad arbitration id {tokens[1]!r}") from None
        try:
            dlc = int(tokens[2])
        except ValueError:
            raise TraceParseError(line_no, f"bad dlc {tokens[2]!r}") from None
        byte_tokens = tokens[3:]
        if len(byte_tokens) != dlc:
            raise TraceParseError(line_no, f"dlc {dlc} but {len(byte_tokens)} data bytes")
        try:
            data = bytes(int(tok, 16) for tok in byte_tokens)
        except ValueError:
            raise TraceParseError(line_no, "bad data byte") from None
        if t < last_t:
            raise TraceParseError(line_no, f"timestamp {t} goes backwards")
        last_t = t
        if t < 0:
            raise TraceParseError(line_no, f"negative timestamp {t}")
        if t >= 2**63:
            raise TraceParseError(line_no, f"timestamp {t} does not fit 64 bits")
        if not 0 <= arb_id <= 0x7FF:
            raise TraceParseError(line_no, f"arbitration id 0x{arb_id:X} outside 11-bit range")
        if not 0 <= dlc <= 8:
            raise TraceParseError(line_no, f"dlc {dlc} outside 0..8")
        frames.append(CanFrame(t, arb_id, data))
    return frames


def _outcome(parse, text):
    try:
        return list(parse(text))
    except TraceParseError as exc:
        return exc.line_no, exc.reason


_ODD_BYTES = ["F", "0x1F", "FFF", "+F", "1_0", "ff", "a0", "-0", "-1", "GG", "FFFF", "0X0a"]
_ODD_IDS = ["800", "7ff", "0x1F", "+F", "1_0", "-5", "zz", "FFFFFFFF"]
_ODD_TIMES = ["-1", "-2", "+5", "1_000", "0x10", "1.5", "9" * 30]


@st.composite
def _trace_line(draw):
    kind = draw(st.sampled_from(["frame"] * 6 + ["comment", "blank", "short"]))
    if kind == "comment":
        return draw(st.sampled_from(["# note", "   # indented", "#"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    t = draw(st.integers(0, 400).map(str) | st.sampled_from(_ODD_TIMES))
    arb = draw(st.integers(0, 0x7FF).map(lambda i: f"{i:X}") | st.sampled_from(_ODD_IDS))
    if kind == "short":
        return draw(st.sampled_from([t, f"{t} {arb}"]))
    data = draw(st.lists(st.integers(0, 255).map(lambda b: f"{b:02X}")
                         | st.integers(0, 255).map(lambda b: f"{b:02x}")
                         | st.sampled_from(_ODD_BYTES), max_size=9))
    dlc = draw(st.just(str(len(data))) | st.sampled_from(["9", "-1", "x", "+2", "3"]))
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    return sep.join([t, arb, dlc, *data])


def _written_line(t, arb_id, data):
    return f"{t} {arb_id:X} {len(data)}" + "".join(f" {b:02X}" for b in data)


#: A few payloads, so that rows repeat an (id, payload) tail; dlc 0 among them.
_PAYLOADS = [b"", b"\x00", b"\xab\xcd", bytes(range(8)), b"\xff" * 8, b"\x0f\xf0\x10"]


@st.composite
def _mixed_trace(draw):
    """Many lines in the written spelling among odd lines from _trace_line.

    The written lines mostly keep time order; a few go backwards, carry an
    id beyond 7FF or a dlc of 9.  Lines end in "\n", in "\r\n", or each in
    one of those, "\r\r\n" or a lone "\r".
    """
    breaks = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n", "\r\r\n", "\r"]]))
    t = 0
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 5)):
            rare = draw(st.integers(0, 29))
            t += -1 if rare == 0 else draw(st.sampled_from([0, 0, 1, 2, 7, 1000]))
            arb_id = 0x800 if rare == 1 else draw(st.integers(0, 0x7FF))
            n_bytes = 9 if rare == 2 else draw(st.integers(0, 8))
            data = draw(st.binary(min_size=n_bytes, max_size=n_bytes))
            lines.append(_written_line(t, arb_id, data))
        else:
            lines.append(draw(_trace_line()))
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines[:-1])
    return text + "".join(lines[-1:]) + draw(st.sampled_from(["", *breaks]))


class TestCanFrame:
    def test_valid_frame(self):
        f = CanFrame(100, 0x75, bytes(8))
        assert f.timestamp_us == 100
        assert f.dlc == 8

    def test_id_range(self):
        with pytest.raises(ValueError):
            CanFrame(0, 0x800, b"")
        CanFrame(0, 0x7FF, b"")

    def test_dlc_matches_data(self):
        # dlc is len(data); a text line whose dlc disagrees is a parse error
        assert CanFrame(0, 0x10, bytes(2)).dlc == 2
        with pytest.raises(canbus.TraceParseError, match="dlc 3 but 2 data bytes"):
            canbus.parse_trace("0 10 3 AA BB\n")
        with pytest.raises(ValueError, match="dlc 9 outside 0..8"):
            CanFrame(0, 0x10, bytes(9))

    def test_negative_timestamp(self):
        with pytest.raises(ValueError):
            CanFrame(-1, 0x10, b"")

    def test_bytes_like_data(self):
        f = CanFrame(5, 0x7D, bytearray(b"\x01\x02"))
        assert type(f.data) is bytes and f.data == b"\x01\x02"
        assert f.dlc == 2


class TestSpeedCodec:
    def test_zero_mph(self):
        f = canbus.encode_speed(0.0)
        assert f.data[6] == 0xB0 and f.data[7] == 0xD4
        assert canbus.decode_speed(f) == 0.0

    def test_25_mph(self):
        f = canbus.encode_speed(25.0)
        assert (f.data[6] << 8) + f.data[7] == 46618
        assert f.data[6] == 0xB6 and f.data[7] == 0x1A
        assert canbus.decode_speed(f) == 25.0

    def test_wrong_id(self):
        f = CanFrame(0, 0x76, bytes(8))
        with pytest.raises(canbus.WrongIdError):
            canbus.decode_speed(f)

    def test_short_frame(self):
        f = CanFrame(0, 0x75, bytes(4))
        with pytest.raises(canbus.ShortFrameError):
            canbus.decode_speed(f)

    def test_out_of_range(self):
        with pytest.raises(canbus.OutOfRangeError):
            canbus.encode_speed(400.0)
        with pytest.raises(canbus.OutOfRangeError):
            canbus.encode_speed(-900.0)

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_raw_roundtrip(self, raw):
        data = bytes(6) + raw.to_bytes(2, "big")
        v = canbus.decode_speed(CanFrame(0, 0x75, data))
        back = canbus.encode_speed(v)
        assert (back.data[6] << 8) + back.data[7] == raw

    def test_speed_series_reads_the_columns_as_decode_speed_reads_frames(self):
        # array columns with flat payloads, and numpy ones with (n, 8) payloads
        rng = random.Random(3)
        frames = [CanFrame(t, rng.choice((0x75, 0x10)), rng.randbytes(rng.choice((6, 8))))
                  for t in range(0, 400, 7)]
        whole = [f for f in frames if f.dlc == 8 or f.arbitration_id != 0x75]
        expected = [(f.timestamp_us, canbus.decode_speed(f)) for f in whole
                    if f.arbitration_id == 0x75]
        assert len(expected) > 10
        built = CanTrace(whole)
        for trace in (built, canbus.parse_trace(canbus.serialize_trace(built))):
            series = canbus._speed_series(trace)
            assert series == expected
            assert all(type(t) is int for t, _ in series)
        with pytest.raises(canbus.ShortFrameError, match="got 6"):
            canbus._speed_series(CanTrace(frames))


class TestTraceFormat:
    def test_roundtrip(self):
        frames = [
            CanFrame(0, 0x10, bytes(range(8))),
            CanFrame(150, 0x7D, b"\xff\x00"),
            CanFrame(150, 0x204, b""),
        ]
        text = canbus.serialize_trace(CanTrace(frames))
        back = canbus.parse_trace(text)
        assert list(back) == frames

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.tuples(st.integers(0, 10_000) | st.sampled_from([0, 10**18, 2**62]),
                              st.integers(0, 0x7FF), st.binary(max_size=8)), max_size=20))
    @example([(2**62, 0x7FF, bytes(8)), (2**62 - 1, 0x10, b""), (0, 0x0, b"\x01")])
    @example([(2**62, 0x7FF, bytes(8)), (2**62, 0x10, b"")])  # the second at 2**63
    def test_roundtrip_property(self, raw):
        # timestamps from 0 to 2**63 - 1, with repeats, and past it, which no trace holds
        t = 0
        frames = []
        for gap, arb_id, data in raw:
            t += gap
            frames.append(CanFrame(t, arb_id, data))
        if t > 2**63 - 1:
            with pytest.raises(canbus.OutOfRangeError, match="does not fit 64 bits"):
                CanTrace(frames)
            return
        trace = CanTrace(frames)
        assert trace.frames == frames
        assert canbus.parse_trace(canbus.serialize_trace(trace)) == trace
        timestamps, ids, dlc, data = trace.columns()
        assert len(trace) == len(timestamps) == len(data) == len(frames)
        assert timestamps.tolist() == [f.timestamp_us for f in frames]
        assert ids.tolist() == [f.arbitration_id for f in frames]
        assert dlc.tolist() == [f.dlc for f in frames]
        assert [bytes(row) for row in data] == [f.data.ljust(8, b"\0") for f in frames]
        if frames:
            assert trace.last_us() == t

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.one_of(st.integers(0, 10**12), st.just(10**17)),
                              st.one_of(st.sampled_from([0x1, 0x10, 0x7FF]),
                                        st.integers(0, 0x7FF)),
                              st.one_of(st.sampled_from(_PAYLOADS), st.binary(max_size=8)),
                              st.booleans()), max_size=30),
           st.sampled_from([1 << 17, 64]))
    @example([(0, 0x10, b"", True), (7, 0x7FF, b"\x00\x01\xab\xcd\xef\x10\xfe\xff", True),
              (7, 0x0, b"\x0a", False), (9, 0x11A, b"", True)], 1 << 17)
    @example([(5, 0x1, b"", True), (10**17, 0x10, b"\x01", True),
              (0, 0x7FF, b"\xab\xcd", True)], 1 << 17)
    @example([(5, 0x1, b"", True), (10**17, 0x10, b"\x01", True),
              (0, 0x7FF, b"\xab\xcd", True)], 64)
    @example([(0, 0x7FF, bytes(8), True)] * 2 + [(1, 0x1, b"", True)] * 12, 64)
    def test_columnar_trace_serializes_as_its_frames(self, raw, block):
        # a capture read by the columnar pass, then a row subset of it, as a replay selects;
        # rows share timestamps and (id, payload) tails, which the writer formats once, a
        # block of 64 bytes ends inside lines, and short lines after long ones outgrow the
        # columns sized from the first block
        t = 0
        rows = []
        for gap, arb_id, data, keep in raw:
            t = min(t + gap, 10**18 - 1)  # the columnar pass reads up to 18 digits
            rows.append((t, arb_id, data, keep))
        with mock.patch.object(canbus, "_BLOCK", block):
            parsed = canbus.parse_trace("".join(_written_line(t, arb_id, data) + "\n"
                                                for t, arb_id, data, _ in rows))
        with mock.patch.object(canbus, "_frames_of", side_effect=AssertionError("frames built")):
            trace = parsed.select([keep for *_, keep in rows])
            text = canbus.serialize_trace(trace)  # written from the columns, no frame built
        assert text == "".join(_written_line(t, arb_id, data) + "\n"
                               for t, arb_id, data, keep in rows if keep)
        assert text == canbus.serialize_trace(CanTrace(trace.frames))

    @settings(deadline=None, max_examples=400)
    @given(st.lists(_trace_line(), max_size=8))
    def test_matches_per_token_parser(self, lines):
        # same frames, or the same first fault with the same line number and message
        text = "\n".join(lines)
        assert _outcome(canbus.parse_trace, text) == _outcome(parse_per_token, text)

    @pytest.mark.parametrize("line", [
        "0 10 2 F F", "0 10 1 0x1F", "0 10 1 FFF", "0 10 1 +F", "0 10 1 1_0", "0 10 2 ff a0",
        "0 10 2 F FFF", "0 10 1 FFFF", "0 10 9 " + "00 " * 9, "0 800 0", "-1 10 0",
        "-2 10 0", "0 10 -1", "-1 800 9 " + "GG " * 9, "5 800 1 GG",
        # near the written spelling, which bytes.fromhex alone would accept
        "5 10 2 AABB ", "5 10 2  AABB", " 5 10 1 AA", "5 10 1 AA ", "5 10 2 AA\tBB",
        "5\t 10 2 AA BB", "5 10 0 ", "5 10 +2 AA BB", "5 10 2 aa bb",
        "5 10 2 AA BB\r\n6 10 1 CC\r", "5 10 0\r\n\r\n6 10 1 AA B\r",
        "5 10 2 AA BB\r\n6 10 1 CC", "5 10 0\r\r\n6 10 1 CC\r", "5 10 0\r6 10 1 CC\r",
        "5 10 0\r\n6 10 1 CC \r", "5 10 0\r\n\r6 10 1 CC\r", "5 10 0\r\n4 10 1 CC\r",
    ])
    @pytest.mark.parametrize("before", ["", "# header\n\n0 7FF 0\n"])
    def test_odd_tokens_match_per_token_parser(self, before, line):
        text = f"{before}{line}\n"
        assert _outcome(canbus.parse_trace, text) == _outcome(parse_per_token, text)

    @settings(deadline=None, max_examples=300)
    @given(_mixed_trace(), st.sampled_from([1 << 17, 64, 8]))
    def test_mixed_paths_match_per_token_parser(self, text, block):
        # a text of written lines takes the columnar pass, and one with any
        # other line the per-line path; blocks end inside and between lines,
        # and text and bytes give the same outcome
        expected = _outcome(parse_per_token, text)
        with mock.patch.object(canbus, "_BLOCK", block):
            assert _outcome(canbus.parse_trace, text) == expected
            assert _outcome(canbus.parse_trace, text.encode("ascii")) == expected

    @pytest.mark.parametrize("text, line_no", [
        # a written line that goes backwards, carries id 800 or dlc 9, ahead
        # of a malformed line, and behind one
        ("5 10 0\n4 10 0\nbogus\n", 2),
        ("bogus\n5 10 0\n4 10 0\n", 1),
        ("5 800 0\n0 10 1 GG\n", 1),
        ("0 10 1 GG\n5 800 0\n", 1),
        ("5 10 9" + " 00" * 9 + "\n0 10\n", 1),
        ("0 10\n5 10 9" + " 00" * 9 + "\n", 1),
        # time order: the columnar pass reads lowercase bytes too, and a
        # comment or a bad timestamp sends the text down the per-line path
        ("5 10 0\n4 10 1 aa\n", 2),
        ("5 10 1 aa\n4 10 0\n", 2),
        ("5 10 1 aa\n6 10 0\n5 10 1 aa\n", 3),
        ("5 10 0\n6 10 1 aa\n6 10 1 aa\n7 10 0\n6 10 0\n", 5),
        ("# c\n\n5 10 1 aa\n5 10 0\n4 10 1 aa\n", 5),
        ("-1 10 0\n5 10 0\n", 1),
        ("1 10 0\n" + "9" * 30 + " 10 0\n5 10 0\n", 2),
        # "\r\n" breaks stay on the columnar pass; "\r\r\n" and a lone "\r"
        # leave it, and each "\r" also breaks a line for the per-line reader
        ("5 10 0\r\n6 10 1 aa\r\n4 10 0\r\n", 3),
        ("5 10 0\r\r\n6 10 1 aa\r\n4 10 0\r\n", 4),
        ("5 10 0\r6 10 1 aa\n4 10 0", 3),
        ("5 10 0\r\n6 800 0\r\n", 2),
    ])
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_first_fault_wins_across_paths(self, text, line_no, as_bytes):
        expected = _outcome(parse_per_token, text)
        assert expected[0] == line_no
        assert _outcome(canbus.parse_trace, text.encode() if as_bytes else text) == expected

    @pytest.mark.parametrize("data, fault", [
        (b"0 10 0\n1 10 1 \xc3\n", (2, "non-ASCII byte 0xC3")),
        (b"\xff", (1, "non-ASCII byte 0xFF")),
        (b"0 10 0 \x80\n", (1, "non-ASCII byte 0x80")),
        (b"0 10 0\r\n1 10 0\n\xe9 x\n", (3, "non-ASCII byte 0xE9")),
        (b"0 10 0\n\x85", (2, "non-ASCII byte 0x85")),
        # a fault on an earlier line wins
        (b"5 10 0\n4 10 0\n\xc3\n", (2, "timestamp 4 goes backwards")),
        (b"5 10 0\nbogus\xc3\n", (2, "non-ASCII byte 0xC3")),
        # a str is read as its UTF-8 bytes: int() would take the Arabic-Indic one
        ("\u0661 10 0\n", (1, "non-ASCII byte 0xD9")),
        ("# caf\u00e9\n0 10 0\n", (1, "non-ASCII byte 0xC3")),
        ("0 10 0\n\x85", (2, "non-ASCII byte 0xC2")),
        ("0 10 0\n1 10 0\n\ud800", (3, "non-ASCII byte 0xED")),
        ("5 10 0\n4 10 0\n\u00e9\n", (2, "timestamp 4 goes backwards")),
    ])
    def test_non_ascii_byte(self, data, fault):
        with pytest.raises(TraceParseError) as exc:
            canbus.parse_trace(data)
        assert (exc.value.line_no, exc.value.reason) == fault

    @pytest.mark.parametrize("t", [2**63, 2**64, int("9" * 30)])
    def test_timestamp_beyond_64_bits(self, t):
        # the largest int64 parses; one past it is a parse error naming its line
        assert canbus.parse_trace(f"1 10 0\n{2**63 - 1} 10 1 AA\n").last_us() == 2**63 - 1
        with pytest.raises(TraceParseError) as exc:
            canbus.parse_trace(f"1 10 0\n{t} 10 1 AA\n{2**63 - 1} 10 0\n")
        assert (exc.value.line_no, exc.value.reason) == (2, f"timestamp {t} does not fit 64 bits")

    def test_parse_peak_memory(self):
        # 2.62 MiB measured on the 2.4 MiB text of this 66,600-frame capture
        # (numpy 2.4, CPython 3.11): its 1.4 MiB of columns and one 256 KiB
        # block's temporaries
        text = canbus.serialize_trace(recordings.correlation_recording()[0]).encode()
        canbus.parse_trace(b"0 10 0\n")  # imports numpy outside the measurement
        tracemalloc.start()
        try:
            trace = canbus.parse_trace(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 66_600
        assert peak < 4 * 2**20

    def test_crlf_parse_peak_memory(self):
        # "\r\n" breaks cost one copy of the text on top of the written text's
        # bound, not the per-line reader's list of line strings
        text = canbus.serialize_trace(recordings.correlation_recording()[0]).encode()
        text = text.replace(b"\n", b"\r\n")
        canbus.parse_trace(b"0 10 0\n")  # imports numpy outside the measurement
        tracemalloc.start()
        try:
            # the columnar pass reads it: only the per-line reader builds frames
            with mock.patch.object(canbus, "_per_line", side_effect=AssertionError("per-line")):
                trace = canbus.parse_trace(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 66_600
        assert peak < 4 * 2**20 + len(text)

    def test_written_spelling_never_reaches_the_per_token_branch(self, monkeypatch):
        rng = random.Random(5)
        t = 0
        frames = []
        for _ in range(300):
            t += rng.randrange(3)
            frames.append(CanFrame(t, rng.randrange(0x800), rng.randbytes(rng.randrange(9))))
        press = recordings.press_recording()
        texts = [canbus.serialize_trace(CanTrace(frames)), canbus.serialize_trace(press)]

        def per_line(text):
            raise AssertionError("a text in the written spelling left the columnar pass")

        monkeypatch.setattr(canbus, "_per_line", per_line)
        # with and without the final "\n", with "\n" or "\r\n" breaks
        for text, expected in zip(texts, (frames, list(press))):
            for text in (text, text.replace("\n", "\r\n")):
                assert list(canbus.parse_trace(text)) == expected
                assert list(canbus.parse_trace(text.rstrip("\r\n"))) == expected

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 0x7FF), st.binary(max_size=8)),
                    min_size=1, max_size=30),
           st.sampled_from(["backwards", "id 800", "dlc 9", "19 digits"]),
           st.integers(0, 30), st.integers(2**63, 10**19 - 1), st.sampled_from([1 << 17, 64]))
    def test_columnar_pass_declines_and_per_line_names_the_fault(self, rows, fault, at, far,
                                                                 block):
        # a written-spelling text whose one fault only the per-line reader names:
        # the columnar pass returns None, and parse_trace raises that reader's error
        lines = []
        t = 0
        for gap, arb_id, data in rows:
            t += gap
            lines.append(_written_line(t, arb_id, data))
        at = max(1, min(at, len(lines))) if fault == "backwards" else min(at, len(lines))
        last_t = int(lines[at - 1].split()[0]) if at else 0
        bad = {"backwards": _written_line(last_t - 1, 0x10, b"\x01"),
               "id 800": _written_line(last_t, 0x800, b""),
               "dlc 9": _written_line(last_t, 0x10, bytes(9)),
               "19 digits": _written_line(far, 0x10, b"")}[fault]
        good = "\n".join(lines) + "\n"
        text = "\n".join(lines[:at] + [bad] + lines[at:]) + "\n"
        with mock.patch.object(canbus, "_BLOCK", block):
            assert canbus._columnar(good.encode()) is not None
            assert canbus._columnar(text.encode()) is None
            with pytest.raises(TraceParseError) as exc:
                canbus.parse_trace(text)
        assert exc.value.line_no == at + 1
        assert (exc.value.line_no, exc.value.reason) == _outcome(canbus._per_line, text)
        assert (exc.value.line_no, exc.value.reason) == _outcome(parse_per_token, text)

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n100 75 2 AA BB\n   \n# trailing\n"
        trace = canbus.parse_trace(text)
        assert len(trace) == 1
        assert trace.frames[0].data == b"\xaa\xbb"

    def test_line_numbers_in_errors(self):
        text = "100 75 2 AA BB\nbogus\n"
        with pytest.raises(canbus.TraceParseError) as exc:
            canbus.parse_trace(text)
        assert exc.value.line_no == 2

    def test_dlc_mismatch(self):
        with pytest.raises(canbus.TraceParseError):
            canbus.parse_trace("0 75 3 AA BB\n")

    def test_backwards_time(self):
        with pytest.raises(canbus.TraceParseError) as exc:
            canbus.parse_trace("200 75 0\n100 75 0\n")
        assert "backwards" in str(exc.value)

    def test_bad_byte(self):
        with pytest.raises(canbus.TraceParseError):
            canbus.parse_trace("0 75 1 1FF\n")

    def test_file_roundtrip(self, tmp_path):
        trace = CanTrace([CanFrame(7, 0x11A, bytes(8))])
        p = tmp_path / "t.txt"
        canbus.save_trace(trace, p)
        assert list(canbus.load_trace(p)) == list(trace)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            CanTrace([CanFrame(5, 0x10, b""), CanFrame(4, 0x10, b"")])

    def test_columns_and_frames_agree(self):
        rng = random.Random(11)
        t = 0
        frames = []
        for _ in range(500):
            t += rng.randrange(3)
            frames.append(CanFrame(t, rng.randrange(0x800), rng.randbytes(rng.randrange(9))))
        columns = CanTrace(frames).columns()
        assert columns.timestamps.tolist() == [f.timestamp_us for f in frames]
        assert columns.ids.tolist() == [f.arbitration_id for f in frames]
        assert columns.dlc.tolist() == [f.dlc for f in frames]
        parsed = canbus.parse_trace(canbus.serialize_trace(CanTrace(frames)))
        assert all(a.tolist() == b.tolist() for a, b in zip(parsed.columns(), columns))
        assert parsed.frames == frames
        rows = [k for k, f in enumerate(frames) if f.arbitration_id % 3 == 0]
        assert parsed.select(parsed.columns().ids % 3 == 0).frames == [frames[k] for k in rows]

    def test_ids_first_seen_order(self):
        trace = CanTrace([
            CanFrame(0, 0x7D, b""),
            CanFrame(1, 0x10, b""),
            CanFrame(2, 0x7D, b""),
        ])
        assert trace.ids() == [0x7D, 0x10]


class HeapBus:
    """Reference scheduler: CanBus as plain code, with no cached due time or ranks.

    Sources are dicts in insertion order; injected frames go through
    heapq.heappush.  A step visits each due time up to its end in turn:
    it calls the due sources' payloads in insertion order, pops the
    injected frames due then, and delivers that batch sorted by its
    (due, id, origin, seq) key, origin 0 for a periodic frame and 1 for
    an injected one.  Each frame goes to the listeners whose id set holds
    its id (or that have none), as they stand when the frame's delivery
    starts.  A payload or listener that raises stops it, as it stops
    CanBus.  It keeps its trace as a list of frames, and a step returns
    the range of that list's rows it appended.
    """

    def __init__(self):
        self._periodic = []
        self._listeners = []
        self._pending = []
        self._seq = 0
        self._now = 0
        self._floor_us = 0  # the due time in delivery during a step, else the bus time
        self._trace = []
        self._stopped = None

    def _check_running(self):
        if self._stopped is not None:
            raise canbus.BusStoppedError(self._stopped)

    def add_periodic(self, arb_id, period_us, payload_fn, source="ecu"):
        self._check_running()
        if not 0 <= arb_id <= 0x7FF:
            raise ValueError(f"arbitration id 0x{arb_id:X} outside 11-bit range")
        if period_us <= 0:
            raise ValueError("period must be positive")
        self._periodic.append({"id": arb_id, "period": period_us, "payload": payload_fn,
                               "source": source,
                               "next_due": (self._now // period_us + 1) * period_us})

    def add_listener(self, fn, ids=None):
        self._listeners.append((fn, None if ids is None else set(ids)))

    def inject_at(self, due_us, frame, source="inject"):
        self._check_running()
        if frame.timestamp_us != due_us:
            raise ValueError(f"frame stamped {frame.timestamp_us} us queued for {due_us} us")
        if due_us < self._floor_us:
            last = self._trace[-1].timestamp_us if self._trace else -1
            if due_us < last:
                raise ValueError(f"frame due at {due_us} us would follow one stamped {last} us")
            raise ValueError(
                f"frame due at {due_us} us is before the bus time, {self._floor_us} us")
        heapq.heappush(self._pending, (due_us, frame.arbitration_id, 1, self._seq, frame, source))
        self._seq += 1

    def feed_replay(self, frames):
        for f in frames:
            self.inject_at(f.timestamp_us, f, "replay")

    def next_due_us(self):
        due = [src["next_due"] for src in self._periodic] + [e[0] for e in self._pending[:1]]
        return None if self._stopped is not None or not due else min(due)

    def step(self, now_us):
        self._check_running()
        if now_us < self._now:
            raise ValueError("bus time must not go backwards")
        self._now = now_us
        start = len(self._trace)
        try:
            while (due := self.next_due_us()) is not None and due <= now_us:
                self._floor_us = due
                batch = []
                for src in self._periodic:
                    if src["next_due"] == due:
                        payload = bytes(src["payload"](due))
                        if len(payload) > 8:
                            raise ValueError(f"dlc {len(payload)} outside 0..8")
                        batch.append((due, src["id"], 0, self._seq,
                                      canbus._frame(due, src["id"], payload), src["source"]))
                        self._seq += 1
                        src["next_due"] = due + src["period"]
                while self._pending and self._pending[0][0] == due:
                    batch.append(heapq.heappop(self._pending))
                batch.sort(key=lambda item: item[:4])
                for _, _, _, _, frame, source in batch:
                    self._trace.append(frame)
                    for listener, ids in list(self._listeners):
                        if ids is None or frame.arbitration_id in ids:
                            listener(frame, source)
        except BaseException as exc:
            self._stopped = f"bus stopped in the step to {now_us} us by {exc!r}"
            raise
        self._floor_us = now_us
        return range(start, len(self._trace))

    def trace(self):
        return CanTrace(self._trace)


# bus operations for the queue property; few ids, so that ties are common,
# and periods and offsets on a 250 us grid, so that sources share due times
# and injected frames land on them
_BUS_IDS = st.sampled_from([0x10, 0x11, 0x75, 0x7FF]) | st.integers(0, 0x800)
_GRID = st.sampled_from([250, 500, 1_000])
# the ids a listener reads: None for every id
_LISTEN_IDS = st.none() | st.frozensets(_BUS_IDS, max_size=3)
_BUS_OPS = st.one_of(
    st.tuples(st.just("periodic"), _BUS_IDS, _GRID | st.integers(0, 3_000)),
    st.tuples(st.just("inject"), _BUS_IDS,
              st.sampled_from([0, 250, 500]) | st.integers(-500, 3_000),
              st.sampled_from([0, 0, 0, 1])),
    st.tuples(st.just("replay"),
              st.lists(st.tuples(st.integers(-200, 4_000), _BUS_IDS), max_size=12)),
    st.tuples(st.just("echo"), st.integers(0, 2), st.integers(0, 1_500), _BUS_IDS, _LISTEN_IDS),
    st.tuples(st.just("listen"), _LISTEN_IDS),
    st.tuples(st.just("step"), _GRID | st.integers(-100, 4_000)),
    st.tuples(st.just("next")),
)


def _random_payload(rng):
    return rng.randbytes(rng.randrange(9))


def _checked_step(bus, now_us):
    """bus.step(now_us), checking that nothing is left due by now_us; returns its rows."""
    rows = bus.step(now_us)
    due = bus.next_due_us()
    assert due is None or due > now_us
    return rows


def _step_frames(bus, now_us):
    """The frames bus.step(now_us) delivered: the rows of the trace that it returns."""
    rows = bus.step(now_us)
    return bus.trace().frames[rows.start:rows.stop]


def drive_bus(bus, ops, check=lambda bus: None, listen=True, payload=_random_payload,
              step=_checked_step):
    """Apply ops to bus; returns every outcome, next due time, delivery and the trace.

    listen=False adds no recording listener, so steps before the first
    echo or listen op run with no listener at all; payload(rng) builds
    each periodic payload, and step(bus, now_us) makes each step, by
    default one bus.step checked to leave nothing due.  A "next" op
    steps to the next due time, as run_until does, and a "listen" op
    adds a recording listener on its ids.
    """
    rng = random.Random(7)  # shared by the payloads, so their call order shows
    deliveries = []
    if listen:
        bus.add_listener(lambda frame, source: deliveries.append((frame, source)))
    log = []
    now = 0
    for i, (kind, *args) in enumerate(ops):
        try:
            if kind == "periodic":
                arb_id, period = args
                bus.add_periodic(arb_id, period, lambda due: payload(rng), f"p{i}")
                out = None
            elif kind == "inject":
                arb_id, offset, skew = args
                due = max(0, now + offset)
                bus.inject_at(due, CanFrame(due + skew, arb_id, bytes([i % 256])), f"i{i}")
                out = None
            elif kind == "replay":
                bus.feed_replay(CanFrame(max(0, now + offset), arb_id, bytes([i % 256]))
                                for offset, arb_id in args[0])
                out = None
            elif kind == "echo":
                # while a step delivers, queue an answer to every frame of its
                # ids whose id has this remainder mod 3, except to answers
                rem, delay, arb_id, ids = args

                def echo(frame, source, rem=rem, delay=delay, arb_id=arb_id, tag=f"e{i}"):
                    if frame.arbitration_id % 3 == rem and not source.startswith("e"):
                        due = frame.timestamp_us + delay
                        bus.inject_at(due, CanFrame(due, arb_id, b"\xee"), tag)

                bus.add_listener(echo, ids)
                out = None
            elif kind == "listen":
                bus.add_listener(lambda frame, source, tag=f"l{i}":
                                 deliveries.append((tag, frame, source)), args[0])
                out = None
            elif kind == "next":
                due = bus.next_due_us()
                out = None if due is None else step(bus, due)
                now = now if due is None else due
            else:
                out = step(bus, now + args[0])
                now += args[0]
        except (ValueError, canbus.BusStoppedError) as exc:
            out = (type(exc).__name__, str(exc))
        check(bus)
        log.append((out, bus.next_due_us()))
    return log, deliveries, list(bus.trace())


def _step_by_due_times(bus, now_us):
    """Checked steps to each due time up to now_us in turn, then to now_us.

    No due time is before the bus time, so a step back in time is made as
    asked, and fails.  Returns the trace rows the steps appended, which
    follow one another.
    """
    steps = []
    while (due := bus.next_due_us()) is not None and due <= now_us:
        steps.append(_checked_step(bus, due))
    steps.append(_checked_step(bus, now_us))
    assert all(a.stop == b.start for a, b in zip(steps, steps[1:]))
    return range(steps[0].start, steps[-1].stop)


class TestBus:
    def test_periodic_emits_at_multiples(self):
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: bytes(8))
        delivered = _step_frames(bus, 35_000)
        assert [f.timestamp_us for f in delivered] == [10_000, 20_000, 30_000]

    def test_nothing_at_time_zero(self):
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: bytes(8))
        assert bus.step(0) == range(0, 0)

    def test_arbitration_low_id_first(self):
        bus = CanBus()
        bus.add_periodic(0x204, 10_000, lambda now: b"\x01")
        bus.add_periodic(0x10, 10_000, lambda now: b"\x02")
        delivered = _step_frames(bus, 10_000)
        assert [f.arbitration_id for f in delivered] == [0x10, 0x204]

    def test_injected_after_observed_on_tie(self):
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: b"\x01")
        bus.inject_at(10_000, CanFrame(10_000, 0x75, b"\x02"))
        delivered = _step_frames(bus, 10_000)
        assert [f.data for f in delivered] == [b"\x01", b"\x02"]

    def test_listener_sees_source(self):
        seen = []
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: b"", source="ecu")
        bus.inject_at(10_000, CanFrame(10_000, 0x80, b""), source="attack")
        bus.add_listener(lambda f, src: seen.append((f.arbitration_id, src)))
        bus.step(10_000)
        assert seen == [(0x75, "ecu"), (0x80, "attack")]

    def test_listener_gets_an_injected_frame_as_queued(self):
        # built once, by whoever queued it; a periodic frame due with it is built here
        seen = []
        bus = CanBus()
        bus.add_periodic(0x10, 10_000, lambda now: b"\x01")
        queued = [CanFrame(t, 0x80, b"\x02") for t in (5_000, 10_000)]
        for frame in queued:
            bus.inject_at(frame.timestamp_us, frame)
        bus.add_listener(lambda f, src: seen.append((f, src)))
        bus.step(10_000)
        assert [f for f, _ in seen] == [queued[0], CanFrame(10_000, 0x10, b"\x01"), queued[1]]
        assert seen[0][0] is queued[0] and seen[2][0] is queued[1]
        assert [src for _, src in seen] == ["inject", "ecu", "inject"]

    def test_next_due(self):
        bus = CanBus()
        assert bus.next_due_us() is None
        bus.add_periodic(0x75, 10_000, lambda now: b"")
        bus.inject_at(3_000, CanFrame(3_000, 0x80, b""))
        assert bus.next_due_us() == 3_000

    def test_time_must_advance(self):
        bus = CanBus()
        bus.step(5_000)
        with pytest.raises(ValueError):
            bus.step(4_000)

    def test_trace_is_ordered(self):
        bus = CanBus()
        bus.add_periodic(0x75, 7_000, lambda now: b"")
        bus.add_periodic(0x10, 3_000, lambda now: b"")
        bus.step(50_000)
        trace = bus.trace()
        times = [f.timestamp_us for f in trace]
        assert times == sorted(times)
        assert len(trace) == 7 + 16

    def test_schedule_helper(self):
        bus = CanBus()
        SimulatedEcus(VehiclePlant(), schedule={0x75: 10_000, 0x10: 5_000}).attach(bus)
        delivered = _step_frames(bus, 10_000)
        assert [f.arbitration_id for f in delivered] == [0x10, 0x10, 0x75]

    def test_periodic_source_checked(self):
        # periodic frames are built unchecked, so the source is checked instead
        bus = CanBus()
        with pytest.raises(ValueError, match="11-bit"):
            bus.add_periodic(0x800, 10_000, lambda now: b"")
        bus.add_periodic(0x75, 10_000, lambda now: bytes(9))
        with pytest.raises(ValueError, match="dlc 9"):
            bus.step(10_000)

    def test_injection_keeps_trace_in_time_order(self):
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: b"")
        with pytest.raises(ValueError, match="stamped 4000 us queued for 5000 us"):
            bus.inject_at(5_000, CanFrame(4_000, 0x80, b""))
        bus.step(10_000)
        with pytest.raises(ValueError, match="follow one stamped 10000 us"):
            bus.inject_at(9_999, CanFrame(9_999, 0x80, b""))
        bus.inject_at(10_000, CanFrame(10_000, 0x80, b""))
        bus.step(20_000)
        assert [f.timestamp_us for f in bus.trace()] == [10_000, 10_000, 20_000]

    def test_listener_injection_during_a_step(self):
        # allowed when it follows the frame in delivery (TestFailStop has one that does not)
        bus = CanBus()
        bus.inject_at(1_500, CanFrame(1_500, 0x10, b""))
        bus.inject_at(1_600, CanFrame(1_600, 0x20, b""))

        def echo(frame, source):
            if frame.arbitration_id == 0x10:
                bus.inject_at(1_750, CanFrame(1_750, 0x30, b""))

        bus.add_listener(echo)
        bus.step(1_600)
        bus.step(2_000)
        assert [f.timestamp_us for f in bus.trace()] == [1_500, 1_600, 1_750]

    def test_bad_period(self):
        bus = CanBus()
        with pytest.raises(ValueError):
            bus.add_periodic(0x75, 0, lambda now: b"")

    def test_source_added_after_a_step_starts_after_it(self):
        bus = CanBus()
        bus.add_periodic(0x10, 1, lambda now: b"")
        bus.step(2)
        bus.add_periodic(0x10, 1, lambda now: b"")
        assert bus.next_due_us() == 3
        bus.step(2)
        bus.step(4)
        CanTrace(bus.trace().frames)  # raises if the trace left time order
        assert [f.timestamp_us for f in bus.trace()] == [1, 2, 3, 3, 4, 4]
        bus.add_periodic(0x20, 3, lambda now: b"")
        assert [f.timestamp_us for f in _step_frames(bus, 6)] == [5, 5, 6, 6, 6]

    def test_listener_reads_only_its_ids(self):
        seen = []
        bus = CanBus()
        for arb_id in (0x75, 0x10, 0x204):
            bus.add_periodic(arb_id, 10_000, lambda now: b"")
        bus.inject_at(10_000, CanFrame(10_000, 0x10, b"\x01"), source="attack")
        bus.add_listener(lambda f, src: seen.append(("all", f.arbitration_id, src)))
        bus.add_listener(lambda f, src: seen.append(("0x10", f.arbitration_id, src)), ids=[0x10])
        bus.add_listener(lambda f, src: seen.append(("none", f.arbitration_id, src)), ids=())
        bus.step(10_000)
        assert seen == [("all", 0x10, "ecu"), ("0x10", 0x10, "ecu"),
                        ("all", 0x10, "attack"), ("0x10", 0x10, "attack"),
                        ("all", 0x75, "ecu"), ("all", 0x204, "ecu")]

    def test_listener_added_during_a_step_reads_the_frames_after(self):
        seen = []
        bus = CanBus()
        for arb_id in (0x10, 0x20, 0x30):
            bus.add_periodic(arb_id, 10, lambda now: b"")
        # at the 0x10 frame of each step, add one more listener on 0x10 and 0x30
        bus.add_listener(lambda frame, source: bus.add_listener(
            lambda f, src: seen.append(f.arbitration_id), ids=(0x10, 0x30)), ids=(0x10,))
        bus.step(10)
        assert seen == [0x30]
        bus.step(20)
        assert seen == [0x30, 0x10, 0x30, 0x30]

    @pytest.mark.parametrize("periodic", [False, True])
    def test_a_step_delivers_what_steps_to_each_due_time_do(self, periodic):
        # the listener of the frame at 1 us queues one for 5 us, which a step
        # to 10 us delivers in turn, with or without a source due at 10 us
        traces = []
        for steps in ((1, 5, 10), (10,)):
            bus = CanBus()
            if periodic:
                bus.add_periodic(0x10, 10, lambda due: b"")
            bus.inject_at(1, CanFrame(1, 0x20, b""))
            bus.add_listener(lambda frame, source, bus=bus:
                             bus.inject_at(5, CanFrame(5, 0x30, b"")), ids=(0x20,))
            for t in steps:
                _checked_step(bus, t)
            traces.append([(f.timestamp_us, f.arbitration_id) for f in bus.trace()])
        expected = [(1, 0x20), (5, 0x30)] + [(10, 0x10)] * periodic
        assert traces == [expected, expected]

    def test_source_added_during_a_step_starts_after_it(self):
        bus = CanBus()
        bus.add_periodic(0x10, 4, lambda now: b"")
        bus.add_listener(lambda frame, source: frame.timestamp_us == 4
                         and bus.add_periodic(0x20, 3, lambda now: b""))
        bus.step(10)
        assert bus.next_due_us() == 12
        assert [f.arbitration_id for f in _step_frames(bus, 12)] == [0x10, 0x20]


def _stopped_bus(bus_type, where):
    """A bus that stops in its step to 10 us, at the 0x20 frame due at 8 us, where
    the payload function, the tap that wraps it, the listener, a listener that
    reads only 0x20 ("routed"), or ("inject") an inject_at of the listener's
    behind the frame in delivery raises.  Returns the bus, the frames its
    listener was handed and the error."""
    bus, seen = bus_type(), []

    def fail(name, frame):
        if name == where and (frame.timestamp_us, frame.arbitration_id) == (8, 0x20):
            if name != "inject":
                raise RuntimeError(f"{name} failed")
            bus.inject_at(7, CanFrame(7, 0x05, b""))
        return frame

    bus.add_periodic(0x10, 3, lambda due: bytes([due]))
    # the tap forges the byte the payload already holds, so it changes no frame
    rule = FilterRule(0x20, 0, lambda due: fail("tap", CanFrame(due, 0x20, bytes([due]))).data[0])
    bus.add_periodic(0x20, 2, rule.tap(
        lambda due: fail("payload", CanFrame(due, 0x20, bytes([due]))).data))
    bus.add_listener(lambda frame, source: seen.append(frame)
                     or fail("listener", fail("inject", frame)))

    def routed(frame, source):
        assert frame.arbitration_id == 0x20, "the route handed over another id"
        fail("routed", frame)

    bus.add_listener(routed, ids=(0x20,))
    bus.feed_replay(CanFrame(t, 0x30, b"\x07") for t in (1, 4, 9))
    bus.step(5)
    with pytest.raises((RuntimeError, ValueError)) as exc:
        bus.step(10)
    return bus, seen, exc.value


@pytest.mark.parametrize("bus_type", [CanBus, HeapBus])
class TestFailStop:
    """A payload (or the tap that wraps it) or listener that raises stops the bus.

    A failed check does not.
    """

    # a payload or tap leaves the frames due before 8 us, the two at 6 us
    # included; a listener leaves the trace ending at the frame it was handed
    @pytest.mark.parametrize("where, kept", [("payload", 7), ("tap", 7), ("listener", 8),
                                             ("routed", 8), ("inject", 8)])
    def test_stop_keeps_the_trace_to_the_frame_in_delivery(self, bus_type, where, kept):
        bus, seen, error = _stopped_bus(bus_type, where)
        trace = list(bus.trace())
        assert trace == seen
        assert [(f.timestamp_us, f.arbitration_id) for f in trace] == [
            (1, 0x30), (2, 0x20), (3, 0x10), (4, 0x20), (4, 0x30), (6, 0x10), (6, 0x20),
            (8, 0x20)][:kept]
        # every later step, inject_at and add_periodic raises, bad arguments or not
        for call in (lambda: bus.step(20), lambda: bus.step(0),
                     lambda: bus.inject_at(30, CanFrame(30, 0x10, b"")),
                     lambda: bus.inject_at(30, CanFrame(29, 0x10, b"")),
                     lambda: bus.add_periodic(0x10, 5, bytes),
                     lambda: bus.add_periodic(0x10, 0, bytes)):
            with pytest.raises(canbus.BusStoppedError) as exc:
                call()
            assert str(exc.value) == f"bus stopped in the step to 10 us by {error!r}"
        assert isinstance(exc.value, RuntimeError) and bus.next_due_us() is None
        assert list(bus.trace()) == trace

    def test_failed_check_leaves_the_bus_running(self, bus_type):
        bus = bus_type()
        bus.feed_replay(CanFrame(t, 0x30, b"") for t in (1, 9))
        bus.step(5)
        for call, message in ((lambda: bus.inject_at(7, CanFrame(6, 0x20, b"")), "stamped 6"),
                              (lambda: bus.inject_at(0, CanFrame(0, 0x20, b"")), "follow one"),
                              (lambda: bus.step(4), "backwards"),
                              (lambda: bus.add_periodic(0x10, 0, bytes), "positive"),
                              (lambda: bus.add_periodic(0x800, 4, bytes), "11-bit")):
            with pytest.raises(ValueError, match=message):
                call()
        bus.inject_at(7, CanFrame(7, 0x20, b""))
        bus.add_periodic(0x40, 4, bytes)
        assert [(f.timestamp_us, f.arbitration_id) for f in _step_frames(bus, 10)] == [
            (7, 0x20), (8, 0x40), (9, 0x30)]
        assert bus.next_due_us() == 12

    def test_inject_before_the_bus_time_fails_between_steps(self, bus_type):
        # a due time the bus has passed would leave next_due_us in the past,
        # and the step to it would go back in time
        bus = bus_type()
        bus.add_periodic(0x10, 10, lambda due: b"")
        bus.step(15)
        with pytest.raises(ValueError, match="frame due at 12 us is before the bus time, 15 us"):
            bus.inject_at(12, CanFrame(12, 0x20, b""))
        assert bus.next_due_us() == 20
        bus.inject_at(15, CanFrame(15, 0x20, b""))  # due at the bus time itself
        assert bus.next_due_us() == 15
        assert [(f.timestamp_us, f.arbitration_id) for f in _step_frames(bus, 20)] == [
            (15, 0x20), (20, 0x10)]

    def test_inject_before_the_bus_time_fails_with_no_source(self, bus_type):
        bus = bus_type()
        bus.step(100)
        with pytest.raises(ValueError, match="frame due at 50 us is before the bus time, 100 us"):
            bus.inject_at(50, CanFrame(50, 0x20, b""))
        assert bus.next_due_us() is None
        bus.inject_at(100, CanFrame(100, 0x20, b""))
        assert [f.timestamp_us for f in _step_frames(bus, 100)] == [100]

    def test_listener_queues_before_the_step_end(self, bus_type):
        # during a step the floor is the due time in delivery, not the step's end
        bus = bus_type()
        bus.inject_at(10, CanFrame(10, 0x10, b""))
        bus.add_listener(lambda frame, source: bus.inject_at(30, CanFrame(30, 0x20, b"")),
                         ids=(0x10,))
        assert [f.timestamp_us for f in _step_frames(bus, 100)] == [10, 30]
        assert bus.next_due_us() is None


class TestQueue:
    """The heap of waiting frames in CanBus against the plain scheduler of HeapBus."""

    @staticmethod
    def _in_key_order(bus):
        # every (due, id, seq) key is distinct, so no comparison reaches a frame
        pending = bus._pending
        assert all(pending[(i - 1) // 2] < pending[i] for i in range(1, len(pending)))

    @classmethod
    def _invariants(cls, bus):
        cls._in_key_order(bus)
        frames = bus.trace().frames
        CanTrace(frames)  # raises if the trace left time order
        assert all(f.data.__class__ is bytes for f in frames)
        due = bus.next_due_us()
        assert due is None or due >= bus._now  # nothing waits for a time the bus has passed

    @settings(deadline=None, max_examples=300)
    @given(st.lists(_BUS_OPS, max_size=30))
    def test_matches_heap_scheduler(self, ops):
        # same frames, sources, next due times, trace and error messages
        assert (drive_bus(CanBus(), ops, self._invariants)
                == drive_bus(HeapBus(), ops))

    @settings(deadline=None, max_examples=300)
    @given(st.lists(_BUS_OPS, max_size=30))
    def test_matches_heap_scheduler_unobserved(self, ops):
        # the step with no listener, and bytearray payloads of up to 9 bytes,
        # so that a too-long one raises after others of its step were emitted
        def payload(rng):
            return bytearray(rng.randbytes(rng.randrange(10)))

        assert (drive_bus(CanBus(), ops, self._invariants, listen=False, payload=payload)
                == drive_bus(HeapBus(), ops, listen=False, payload=payload))

    @settings(deadline=None, max_examples=300)
    @given(st.lists(_BUS_OPS, max_size=30))
    def test_trace_does_not_depend_on_step_size(self, ops):
        # every step split into steps to each due time in turn: the same
        # deliveries, trace and next due times, and the same error type at
        # the same frame (a stopped bus names the step it stopped in, which
        # the split moves, so only the type is compared)
        def outcomes(log):
            return [(out[0] if isinstance(out, tuple) else out, due) for out, due in log]

        whole = drive_bus(CanBus(), ops)
        split = drive_bus(CanBus(), ops, step=_step_by_due_times)
        assert outcomes(whole[0]) == outcomes(split[0])
        assert whole[1:] == split[1:]

    def test_drained_bus_holds_no_entry(self):
        bus = CanBus()
        bus.feed_replay(CanFrame(t, 0x10, b"") for t in range(1_000, 50_000, 1_000))
        for t in range(0, 60_000, 700):
            bus.step(t)
            self._in_key_order(bus)
        assert len(bus.trace()) == 49
        assert not bus._pending

    def test_echoes_into_a_long_replay_match_heap_scheduler(self):
        # 3,000 replayed frames wait at once, and an echo 250 us after each
        # 0x11A frame (the only id = 0 mod 3, and the one id the echo reads)
        # goes into the middle of the
        # queue, which the 30-op cases never reach; each step delivers one
        # replayed timestamp, so every echo is due after the frames delivered
        rng = random.Random(11)
        times, t = [], 0
        for _ in range(3_000):
            t += rng.choice((0, 40, 100, 250))
            times.append(t)
        replay = [(t, rng.choice((0x10, 0x11, 0x13, 0x7D, 0x11A))) for t in times]
        distinct = sorted(set(times))
        ops = [("echo", 0, 250, 0x11A, {0x11A}), ("replay", replay),
               *(("step", b - a) for a, b in zip([0] + distinct, distinct)), ("step", 1_000)]
        ours = drive_bus(CanBus(), ops, self._in_key_order)
        assert ours == drive_bus(HeapBus(), ops)
        echoes = sum(arb_id == 0x11A for _, arb_id in replay)
        assert len(ours[2]) == len(ours[1]) == 3_000 + echoes

    def test_feed_replay_calls_inject_at_per_frame(self, monkeypatch):
        calls = []
        inject_at = CanBus.inject_at

        def counted(bus, due_us, frame, source="inject"):
            calls.append((due_us, source))
            inject_at(bus, due_us, frame, source)

        monkeypatch.setattr(CanBus, "inject_at", counted)
        CanBus().feed_replay(CanFrame(t, 0x10, b"") for t in (5, 5, 9))
        assert calls == [(5, "replay"), (5, "replay"), (9, "replay")]


# a replay's bus runs at most REPLAY_SETTLE_S and one 1 ms tick past a
# capture of MAX_RUN_S, and _merged's key keeps such timestamps below 2**48
_LATEST_MERGED_US = (1 << 48) // 2048 - 1


@st.composite
def _tied_trace(draw, side):
    # few timestamps and ids, so (timestamp, id) ties fall within and across traces;
    # the payload names the side and the row, so the order of tied rows shows
    stamps = sorted(draw(st.lists(st.sampled_from([0, 1, 2, 7, _LATEST_MERGED_US]),
                                  max_size=12)))
    return CanTrace(CanFrame(t, draw(st.sampled_from([0x0, 0x10, 0x11A, 0x7FF])),
                             bytes([side, k])) for k, t in enumerate(stamps))


class TestMerged:
    def test_key_bound_covers_every_replay(self):
        assert (scenario.MAX_RUN_S + scenario.REPLAY_SETTLE_S) * 1e6 + 1_000 < _LATEST_MERGED_US

    @settings(deadline=None, max_examples=300)
    @given(_tied_trace(1), _tied_trace(2))
    def test_matches_lexsort(self, first, second):
        columns = [canbus.np.concatenate(pair) for pair in zip(first.columns(), second.columns())]
        order = canbus.np.lexsort((columns[1], columns[0]))
        expected = [col[order].tolist() for col in columns]
        assert [col.tolist() for col in canbus._merged(first, second).columns()] == expected
