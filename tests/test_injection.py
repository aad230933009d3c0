import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from evsim import canbus, injection, scenario
from evsim.canbus import CanBus, CanFrame, CanTrace
from evsim.injection import (
    FilterRule,
    ShadowInjector,
    ThrottleReceiver,
    UnknownIdError,
    dominance_fraction,
    select_ids,
)


class TestFilterRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterRule(0x11A, 8, lambda t: 0)
        rule = FilterRule(0x11A, 3, lambda t: 256)
        with pytest.raises(ValueError, match="256"):
            rule.apply(CanFrame(0, 0x11A, bytes(8)))

    def test_rewrites_matching_byte(self):
        rule = FilterRule(0x11A, 3, lambda t: 0xC8)
        frame = CanFrame(100, 0x11A, bytes(8))
        out = rule.apply(frame)
        assert out.data[3] == 0xC8
        assert out.timestamp_us == 100

    def test_other_ids_pass_through_unchanged(self):
        rule = FilterRule(0x11A, 3, lambda t: 0xC8)
        frame = CanFrame(0, 0x75, bytes(8))
        assert rule.apply(frame) is frame

    def test_short_frames_pass_through(self):
        rule = FilterRule(0x11A, 3, lambda t: 0xC8)
        frame = CanFrame(0, 0x11A, bytes(2))
        assert rule.apply(frame) is frame

    def test_idempotent(self):
        rule = FilterRule(0x11A, 3, lambda t: 0xC8)
        once = rule.apply(CanFrame(0, 0x11A, bytes(8)))
        assert rule.apply(once) is once

    def test_value_fn_called_once_per_rewritten_frame(self):
        calls = []

        def value_fn(t):
            calls.append(t)
            return 0xC8

        rule = FilterRule(0x11A, 3, value_fn)
        rule.apply(CanFrame(5, 0x75, bytes(8)))
        rule.apply(CanFrame(6, 0x11A, bytes(2)))
        rule.apply(CanFrame(7, 0x11A, bytes(8)))
        assert calls == [7]

    def test_tap_equals_source_rewrite(self):
        # filtering at the tap is indistinguishable from the ECU having
        # broadcast the forged value in the first place
        tapped = CanBus()
        tapped.add_periodic(0x11A, 10_000, FilterRule(0x11A, 3, lambda t: 77).tap(
            lambda now: bytes(8)))
        direct = CanBus()
        forged = bytes(3) + bytes([77]) + bytes(4)
        direct.add_periodic(0x11A, 10_000, lambda now: forged)
        tapped.step(100_000)
        direct.step(100_000)
        assert list(tapped.trace()) == list(direct.trace())

    def test_live_tap_passes_short_frames_and_forges_once_per_target_frame(self):
        calls = []

        def value_fn(t):
            calls.append(t)
            return 0xC8

        bus = CanBus()
        # the module sends 8 bytes, then 2, by turns; byte 4 is forged on the long ones
        bus.add_periodic(0x11A, 10_000, FilterRule(0x11A, 3, value_fn).tap(
            lambda now: bytes(8 if now % 20_000 else 2)))
        bus.add_periodic(0x75, 10_000, lambda now: bytes(8))
        bus.inject_at(15_000, CanFrame(15_000, 0x11A, bytes(8)))
        bus.step(60_000)
        target = [f for f in bus.trace() if f.arbitration_id == 0x11A]
        assert [(f.timestamp_us, f.data) for f in target] == [
            (10_000, bytes(3) + b"\xc8" + bytes(4)), (15_000, bytes(8)), (20_000, bytes(2)),
            (30_000, bytes(3) + b"\xc8" + bytes(4)), (40_000, bytes(2)),
            (50_000, bytes(3) + b"\xc8" + bytes(4)), (60_000, bytes(2))]
        assert calls == [10_000, 30_000, 50_000]
        assert all(f.data == bytes(8) for f in bus.trace() if f.arbitration_id == 0x75)


def _forge_one(rule, genuine: CanFrame) -> CanFrame:
    """The shadow copy a ShadowInjector built on rule queues for genuine."""
    bus = CanBus()
    ShadowInjector(bus, rule, delay_us=250)
    bus.inject_at(genuine.timestamp_us, genuine, source="ecu")
    bus.step(genuine.timestamp_us)
    bus.step(genuine.timestamp_us + 250)
    genuine_out, forged = bus.trace().frames
    assert genuine_out == genuine
    return forged


class TestByteOverride:
    """The shadow copy: the genuine payload with the rule's byte rewritten."""

    def test_rewrites_from_genuine(self):
        genuine = CanFrame(0, 0x11A, bytes([1, 2, 3, 4, 5, 6, 7, 8]))
        forged = _forge_one(FilterRule(0x11A, 3, lambda t: 200), genuine)
        assert forged.data == bytes([1, 2, 3, 200, 5, 6, 7, 8])
        assert forged.timestamp_us == 250

    def test_time_dependent_value(self):
        genuine = CanFrame(5000, 0x11A, bytes(8))
        forged = _forge_one(FilterRule(0x11A, 0, lambda t: t // 1000), genuine)
        assert forged.data[0] == 5

    def test_index_outside_dlc(self):
        with pytest.raises(ValueError, match="dlc 2"):
            _forge_one(FilterRule(0x11A, 3, lambda t: 0), CanFrame(0, 0x11A, bytes(2)))


def _shadow_rig(delay_us=250, stop_us=100_000):
    bus = CanBus()
    bus.add_periodic(0x11A, 10_000, lambda now: bytes(8), source="ecu")
    rx = ThrottleReceiver()
    bus.add_listener(rx, ids=(rx.arb_id,))
    inj = ShadowInjector(bus, FilterRule(0x11A, 3, lambda t: 200),
                         delay_us=delay_us, period_us=10_000)
    t = 0
    while t < stop_us:
        t = bus.next_due_us()
        if t is None or t > stop_us:
            break
        bus.step(t)
    return bus, rx, inj


class TestShadowInjector:
    def test_delay_validation(self):
        bus = CanBus()
        with pytest.raises(ValueError):
            ShadowInjector(bus, FilterRule(0x11A, 3, lambda t: 0), delay_us=0)
        with pytest.raises(ValueError):
            ShadowInjector(bus, FilterRule(0x11A, 3, lambda t: 0),
                           delay_us=10_000, period_us=10_000)

    def test_one_forgery_per_genuine_frame(self):
        bus, rx, inj = _shadow_rig()
        genuine = [d for d in rx.deliveries if d[1] == "ecu"]
        # the 10th forgery is queued past the horizon, and only delivered ones count
        assert len(genuine) == 10 and inj.injected == 9
        assert bus.next_due_us() == 100_250

    def test_does_not_chase_itself(self):
        _, rx, inj = _shadow_rig()
        shadows = [d for d in rx.deliveries if d[1] == "shadow"]
        # 9 forgeries delivered (the 10th fell past the horizon); a
        # self-chasing injector would have forged once per shadow too
        assert len(shadows) == 9
        assert inj.injected == 9

    def test_forged_payload_and_timing(self):
        bus, rx, _ = _shadow_rig()
        frames = [f for f in bus.trace() if f.arbitration_id == 0x11A]
        assert frames[0].timestamp_us == 10_000 and frames[0].data[3] == 0
        assert frames[1].timestamp_us == 10_250 and frames[1].data[3] == 200

    def test_dominance_39_of_40(self):
        _, rx, _ = _shadow_rig()
        genuine_times = [t for t, src, _ in rx.deliveries if src == "ecu"]
        events = [(t, src) for t, src, _ in rx.deliveries]
        frac = dominance_fraction(events, genuine_times[0], genuine_times[-1])
        assert frac == Fraction(39, 40)


class TestDominanceFraction:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            dominance_fraction([], 100, 100)

    def test_no_deliveries(self):
        assert dominance_fraction([], 0, 1000) == 0

    def test_pre_window_state_carries_in(self):
        # the receiver still holds the shadow value from before the window
        assert dominance_fraction([(0, "shadow")], 50, 100) == 1

    def test_same_microsecond_last_wins(self):
        events = [(100, "ecu"), (100, "shadow")]
        assert dominance_fraction(events, 0, 200) == Fraction(1, 2)
        assert dominance_fraction(list(reversed(events)), 0, 200) == 0

    def test_delivery_at_end_excluded(self):
        assert dominance_fraction([(100, "shadow")], 0, 100) == 0

    def test_alternating_exact(self):
        events = []
        for k in range(1, 4):
            events.append((10_000 * k, "ecu"))
            events.append((10_000 * k + 250, "shadow"))
        frac = dominance_fraction(events, 10_000, 40_000)
        assert frac == Fraction(39, 40)


class TestTraceTools:
    def _trace(self):
        return CanTrace([
            CanFrame(0, 0x75, bytes(8)),
            CanFrame(5, 0x11A, bytes(8)),
            CanFrame(9, 0x75, bytes(8)),
        ])

    def test_select_ids(self):
        subset = select_ids(self._trace(), [0x75])
        assert len(subset) == 2
        assert all(f.arbitration_id == 0x75 for f in subset)

    def test_select_unknown_id(self):
        with pytest.raises(UnknownIdError, match="0x7D"):
            select_ids(self._trace(), [0x75, 0x7D])
        with pytest.raises(UnknownIdError, match="0x800, 0x11A0"):
            select_ids(self._trace(), [0x11A, 0x800, 0x11A0])

    @pytest.mark.parametrize("rows, indices", [([], []), ([0, 2], [0, 2]),
                                               ([True, False, True], [0, 2]), ([False] * 3, [])])
    def test_select_takes_a_mask_or_row_indices(self, rows, indices):
        trace = self._trace()
        subset = trace.select(rows)
        assert subset.frames == [trace.frames[i] for i in indices]
        assert [c.dtype for c in subset.columns()] == [c.dtype for c in trace.columns()]


class TestThrottleReceiver:
    def test_decodes_pct(self):
        rx = ThrottleReceiver()
        rx(CanFrame(0, 0x11A, bytes(3) + bytes([102]) + bytes(4)), "ecu")
        assert rx.app_pct == pytest.approx(40.0, abs=0.01)

    def test_ignores_other_ids_and_short_frames(self):
        # the bus route keeps other ids away; the receiver skips short frames
        bus = CanBus()
        rx = ThrottleReceiver()
        bus.add_listener(rx, ids=(rx.arb_id,))
        bus.feed_replay([CanFrame(0, 0x75, bytes(8)), CanFrame(0, 0x11A, bytes(2))])
        bus.step(0)
        assert len(bus.trace()) == 2
        assert rx.deliveries == []


class TestListenerRoutes:
    """The live rig's listeners hear only the throttle id, and the wire is as before."""

    #: sha256 of the serialized trace of the live run below, recorded when
    #: every listener still heard every frame and tested the id itself
    LIVE_TRACE_SHA256 = "fe9a898b07e4c63cc39942a942869157edf352cde7c43d287c735e7107385eff"

    def test_live_run_calls_the_receiver_per_throttle_frame(self, monkeypatch):
        calls = Counter()
        receive = ThrottleReceiver.__call__

        def counted(rx, frame, source):
            calls[frame.arbitration_id, source] += 1
            receive(rx, frame, source)

        monkeypatch.setattr(ThrottleReceiver, "__call__", counted)
        schedule = dict(canbus.DEFAULT_SCHEDULE)
        schedule[canbus.THROTTLE_ID] = 10_000  # inject --target-period-ms 10
        result = scenario.run_live_injection(20.0, scenario.ramp_bytes(0, 200, 5),
                                             schedule=schedule)
        # the 2,000th forged frame falls due after the rig's last tick
        assert calls == {(0x11A, "ecu"): 2_000, (0x11A, "shadow"): 1_999}
        assert result.injected == 1_999
        assert result.metrics()["frames_on_bus"] == 11_999
        text = canbus.serialize_trace(result.trace)
        assert hashlib.sha256(text.encode()).hexdigest() == self.LIVE_TRACE_SHA256
