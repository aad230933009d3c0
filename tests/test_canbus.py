import io

import pytest
from hypothesis import given, settings, strategies as st

from evsim import canbus
from evsim.canbus import CanBus, CanFrame, CanTrace, make_frame
from evsim.plant import SimulatedEcus, VehiclePlant


class TestCanFrame:
    def test_valid_frame(self):
        f = CanFrame(100, 0x75, 8, bytes(8))
        assert f.timestamp_us == 100
        assert f.dlc == 8

    def test_id_range(self):
        with pytest.raises(ValueError):
            CanFrame(0, 0x800, 0, b"")
        CanFrame(0, 0x7FF, 0, b"")

    def test_dlc_matches_data(self):
        with pytest.raises(ValueError):
            CanFrame(0, 0x10, 3, bytes(2))
        with pytest.raises(ValueError):
            CanFrame(0, 0x10, 9, bytes(9))

    def test_negative_timestamp(self):
        with pytest.raises(ValueError):
            CanFrame(-1, 0x10, 0, b"")

    def test_make_frame(self):
        f = make_frame(5, 0x7D, b"\x01\x02")
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
        f = CanFrame(0, 0x76, 8, bytes(8))
        with pytest.raises(canbus.WrongIdError):
            canbus.decode_speed(f)

    def test_short_frame(self):
        f = CanFrame(0, 0x75, 4, bytes(4))
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
        v = canbus.decode_speed(CanFrame(0, 0x75, 8, data))
        back = canbus.encode_speed(v)
        assert (back.data[6] << 8) + back.data[7] == raw


class TestTraceFormat:
    def test_roundtrip(self):
        frames = [
            CanFrame(0, 0x10, 8, bytes(range(8))),
            CanFrame(150, 0x7D, 2, b"\xff\x00"),
            CanFrame(150, 0x204, 0, b""),
        ]
        text = canbus.serialize_trace(CanTrace(frames))
        back = canbus.parse_trace(text)
        assert list(back) == frames

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 0x7FF),
                              st.binary(max_size=8)), max_size=20))
    def test_roundtrip_property(self, raw):
        t = 0
        frames = []
        for gap, arb_id, data in raw:
            t += gap
            frames.append(CanFrame(t, arb_id, len(data), data))
        trace = CanTrace(frames)
        assert canbus.parse_trace(canbus.serialize_trace(trace)) == trace

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
        trace = CanTrace([CanFrame(7, 0x11A, 8, bytes(8))])
        p = tmp_path / "t.txt"
        canbus.save_trace(trace, p)
        assert list(canbus.load_trace(p)) == list(trace)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            CanTrace([CanFrame(5, 0x10, 0, b""), CanFrame(4, 0x10, 0, b"")])

    def test_ids_first_seen_order(self):
        trace = CanTrace([
            CanFrame(0, 0x7D, 0, b""),
            CanFrame(1, 0x10, 0, b""),
            CanFrame(2, 0x7D, 0, b""),
        ])
        assert trace.ids() == [0x7D, 0x10]


class TestBus:
    def test_periodic_emits_at_multiples(self):
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: bytes(8))
        delivered = bus.step(35_000)
        assert [f.timestamp_us for f in delivered] == [10_000, 20_000, 30_000]

    def test_nothing_at_time_zero(self):
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: bytes(8))
        assert bus.step(0) == []

    def test_arbitration_low_id_first(self):
        bus = CanBus()
        bus.add_periodic(0x204, 10_000, lambda now: b"\x01")
        bus.add_periodic(0x10, 10_000, lambda now: b"\x02")
        delivered = bus.step(10_000)
        assert [f.arbitration_id for f in delivered] == [0x10, 0x204]

    def test_injected_after_observed_on_tie(self):
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: b"\x01")
        bus.inject_at(10_000, CanFrame(10_000, 0x75, 1, b"\x02"))
        delivered = bus.step(10_000)
        assert [f.data for f in delivered] == [b"\x01", b"\x02"]

    def test_taps_rewrite_periodic_only(self):
        class Tap:
            def apply(self, frame):
                return CanFrame(frame.timestamp_us, frame.arbitration_id, 1, b"\x99")
        bus = CanBus()
        bus.add_tap(Tap())
        bus.add_periodic(0x75, 10_000, lambda now: b"\x01")
        bus.inject_at(10_000, CanFrame(10_000, 0x77, 1, b"\x02"))
        delivered = bus.step(10_000)
        by_id = {f.arbitration_id: f.data for f in delivered}
        assert by_id[0x75] == b"\x99"
        assert by_id[0x77] == b"\x02"

    def test_listener_sees_source(self):
        seen = []
        bus = CanBus()
        bus.add_periodic(0x75, 10_000, lambda now: b"", source="ecu")
        bus.inject_at(10_000, CanFrame(10_000, 0x80, 0, b""), source="attack")
        bus.add_listener(lambda f, src: seen.append((f.arbitration_id, src)))
        bus.step(10_000)
        assert seen == [(0x75, "ecu"), (0x80, "attack")]

    def test_next_due(self):
        bus = CanBus()
        assert bus.next_due_us() is None
        bus.add_periodic(0x75, 10_000, lambda now: b"")
        bus.inject_at(3_000, CanFrame(3_000, 0x80, 0, b""))
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
        delivered = bus.step(10_000)
        assert [f.arbitration_id for f in delivered] == [0x10, 0x10, 0x75]

    def test_bad_period(self):
        bus = CanBus()
        with pytest.raises(ValueError):
            bus.add_periodic(0x75, 0, lambda now: b"")
