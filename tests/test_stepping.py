"""scenario.run_until against the per-tick loops it replaced.

The references below are the rig and press-capture loops as they were
before run_until: the bus steps every millisecond and the plant advances
one tick per call.  run_until only steps the bus where a frame falls due
and advances the plant in chunks between, so each test checks that the
chunking changes nothing a caller can see.
"""

import random

import pytest

from evsim import canbus, recordings
from evsim import injection as inj
from evsim.canbus import CanBus, CanTrace, make_frame
from evsim.plant import SimulatedEcus, VehiclePlant
from evsim.scenario import _injection_rig, ramp_bytes, replay_ms, rig_loop, run_until


def rig_loop_per_ms(bus, rig, rx, n_ms):
    """Reference rig loop: step the bus, then one rig tick on the last command."""
    top_speed = 0.0
    for ms in range(1, n_ms + 1):
        bus.step(ms * 1000)
        rig.advance(rx.app_pct, 0.0, 50.0, 1, 0.001)
        if rig.state.speed_mph > top_speed:
            top_speed = rig.state.speed_mph
    return top_speed


def press_recording_per_tick(duration_s, seed):
    """Reference press capture: one plant tick, then one bus step, per millisecond."""
    rng = random.Random(seed)
    plant = VehiclePlant()
    pedal = {"app": 0.0}
    bus = CanBus()
    SimulatedEcus(plant, pedal_fn=lambda: (pedal["app"], 0.0)).attach(bus)
    for arb_id in recordings._filler_ids(rng, recordings.N_FILLER):
        bus.add_periodic(arb_id, rng.choice(recordings._FILLER_PERIODS_US),
                         recordings._walker_payload(rng), source="filler")
    lo = round(recordings.PRESS_START_S * 1000.0)
    hi = round(recordings.PRESS_END_S * 1000.0)
    for ms in range(1, round(duration_s * 1000.0) + 1):
        pedal["app"] = recordings.PRESS_APP_PCT if lo <= ms < hi else 0.0
        plant.advance(pedal["app"], 0.0, 50.0, 1, 0.001)
        bus.step(ms * 1000)
    return bus.trace()


def _live_rig(mode, value_fn):
    rig, bus, rx, rule = _injection_rig(mode, canbus.THROTTLE_ID,
                                        canbus.THROTTLE_BYTE_INDEX, value_fn)
    ecus = SimulatedEcus(rig, pedal_fn=lambda: (0.0, 0.0))
    ecus.attach(bus)
    if mode == "shadow":
        inj.ShadowInjector(bus, rule, delay_us=250,
                           period_us=ecus.schedule[canbus.THROTTLE_ID])
    else:
        bus.add_tap(rule)
    return bus, rig, rx


def _replay_rig(frames):
    bus = CanBus()
    rx = inj.ThrottleReceiver()
    bus.add_listener(rx)
    bus.feed_replay(frames)
    return bus, VehiclePlant(), rx


def _outcome(loop, bus, rig, rx, n_ms):
    top = loop(bus, rig, rx, n_ms)
    return top, list(bus.trace()), list(rx.deliveries), rig.state


@pytest.fixture(scope="module")
def press():
    return recordings.press_recording()


class TestRigLoop:
    # one ramp up and two down; going down, the top speed lies inside the run
    @pytest.mark.parametrize("mode, start, end, step", [
        ("shadow", 0, 200, 10), ("shadow", 220, 0, -15), ("tap", 180, 0, -20)])
    def test_live_rig_matches_per_ms_loop(self, mode, start, end, step):
        n_ms = 2500
        new = _outcome(rig_loop, *_live_rig(mode, ramp_bytes(start, end, step)), n_ms)
        ref = _outcome(rig_loop_per_ms, *_live_rig(mode, ramp_bytes(start, end, step)), n_ms)
        assert new == ref
        top, _, _, final = new
        assert top > 1.0
        if step < 0:  # the peak lies inside the run, not at its end
            assert top > final.speed_mph + 1.0

    def test_replayed_press_subset_matches_per_ms_loop(self, press):
        subset = inj.select_ids(press, [canbus.THROTTLE_ID, canbus.SPEED_ID,
                                        canbus.APP_ID, press.ids()[-1]])
        n_ms = replay_ms(subset)
        new = _outcome(rig_loop, *_replay_rig(subset), n_ms)
        ref = _outcome(rig_loop_per_ms, *_replay_rig(subset), n_ms)
        assert new == ref
        assert new[0] >= recordings.MIN_GAIN_MPH

    def test_throttle_frames_alone_move_the_rig_the_same(self, press):
        # the oracle feeds its bus only the ids its receiver reads
        n_ms = replay_ms(press)
        throttle = [f for f in press if f.arbitration_id == canbus.THROTTLE_ID]
        top_all, _, deliveries_all, state_all = _outcome(
            rig_loop_per_ms, *_replay_rig(press), n_ms)
        top, _, deliveries, state = _outcome(rig_loop, *_replay_rig(throttle), n_ms)
        assert (top, deliveries, state) == (top_all, deliveries_all, state_all)


class TestPressRecording:
    @pytest.mark.parametrize("duration_s", [0.3, 1.999, 2.0, 5.0, 6.0])
    def test_matches_per_tick_loop(self, duration_s):
        new = recordings.press_recording(duration_s=duration_s)
        ref = press_recording_per_tick(duration_s, 2024)
        assert canbus.serialize_trace(new) == canbus.serialize_trace(ref)

    def test_matches_per_tick_loop_other_seed(self):
        new = recordings.press_recording(duration_s=2.5, seed=5)
        assert list(new) == list(press_recording_per_tick(2.5, 5))


class TestRunUntil:
    @staticmethod
    def _rig():
        bus = CanBus()
        seen = []
        plant = VehiclePlant()
        bus.add_listener(lambda frame, source: seen.append((frame.timestamp_us,
                                                            plant.state.speed_mph)))
        bus.inject_at(5000, make_frame(5000, 0x10, b"\x01"))
        return bus, plant, seen

    @staticmethod
    def _inputs():
        return 50.0, 0.0, 50.0

    def test_frame_due_at_end_waits_for_the_next_call(self):
        bus, plant, seen = self._rig()
        assert run_until(bus, plant, self._inputs, 0, 5000, 1000, 0.001) == 5
        assert seen == []
        at_end = plant.state.speed_mph
        assert run_until(bus, plant, self._inputs, 5000, 8000, 1000, 0.001) == 3
        # delivered first, before the plant moves on
        assert seen == [(5000, at_end)]

    def test_frame_due_at_end_waits_for_the_final_step(self):
        bus, plant, seen = self._rig()
        run_until(bus, plant, self._inputs, 0, 5000, 1000, 0.001)
        assert len(bus.trace()) == 0
        bus.step(5000)
        assert seen == [(5000, plant.state.speed_mph)]

    def test_due_between_ticks_lands_on_the_next_tick(self):
        bus = CanBus()
        plant = VehiclePlant()
        ticks_at_delivery = []
        calls = []
        bus.add_listener(lambda frame, source: ticks_at_delivery.append(sum(calls)))
        bus.inject_at(2500, make_frame(2500, 0x10, b"\x01"))
        real_advance = plant.advance

        def advance(app, bpp, steer, n, dt):
            calls.append(n)
            return real_advance(app, bpp, steer, n, dt)

        plant.advance = advance
        assert run_until(bus, plant, lambda: (0.0, 0.0, 50.0), 0, 10_000, 1000, 0.001) == 10
        assert ticks_at_delivery == [3]
        assert calls == [3, 7]

    def test_inputs_read_after_each_delivery(self):
        bus = CanBus()
        rx = inj.ThrottleReceiver()
        bus.add_listener(rx)
        bus.feed_replay(CanTrace([
            make_frame(t, canbus.THROTTLE_ID, bytes([0, 0, 0, value, 0, 0, 0, 0]))
            for t, value in ((2000, 100), (4000, 0))]))
        read = []

        def inputs():
            read.append(rx.app_pct)
            return rx.app_pct, 0.0, 50.0

        run_until(bus, VehiclePlant(), inputs, 1000, 6000, 1000, 0.001)
        assert read == [0.0, 100 / canbus.PCT_TO_BYTE, 0.0]
