"""scenario.run_until against the per-tick loops it replaced.

The references below are the rig and capture loops as they were before
run_until: the bus steps every millisecond and the plant advances one
tick per call.  run_until only steps the bus where a frame falls due
and advances the plant in chunks between, so each test checks that the
chunking changes nothing a caller can see.  The correlation capture is
the one exception: its status bytes now filter the speed once per frame
instead of once per tick, so they may differ from the reference by one
count, and nothing else may differ.  The replay oracle's reference
is the oracle as it was before it learned to stop early: every probe runs
the rig over its whole window.
"""

import math
import random
from unittest import mock

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from evsim import canbus, recordings
from evsim import injection as inj
from evsim.canbus import CanBus, CanFrame, CanTrace
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


def _ema_status_payload(statuses, ema):
    def payload(now_us):
        data = bytearray(8)
        for spot, st in enumerate(statuses):
            raw = round(st["scale"] * ema[st["ema"]] + st["offset"])
            data[spot] = max(0, min(255, raw))
        return bytes(data)
    return payload


def correlation_recording_per_tick(duration_s, seed):
    """Reference correlation capture: one plant tick, then the bus, per millisecond.

    The four status ids read shared lags of the speed, each stepped
    every tick, and the pedal frames read a pedal the loop sets.
    """
    rng = random.Random(seed)
    plant = VehiclePlant()
    pedal = {"app": recordings.APP_LO_PCT}
    bus = CanBus()
    SimulatedEcus(plant, pedal_fn=lambda: (pedal["app"], 0.0)).attach(bus)

    ids = recordings._filler_ids(rng, recordings.N_WALKERS + 7)
    walker_ids, rest = ids[:recordings.N_WALKERS], ids[recordings.N_WALKERS:]
    planted_id, const_a, const_b = rest[0], rest[1], rest[2]
    status_ids = rest[3:7]
    for arb_id in walker_ids:
        bus.add_periodic(arb_id, rng.choice(recordings._FILLER_PERIODS_US),
                         recordings._walker_payload(rng), source="filler")
    bus.add_periodic(const_a, 20_000, lambda now: bytes([0x42] * 8), source="filler")
    bus.add_periodic(const_b, 50_000, lambda now: b"\x10\x20\x30\x40\x00\x00\x00\x00",
                     source="filler")

    taus = [0.05, 0.08, 0.12, 0.2]
    ema_gains = [1.0 - math.exp(-0.001 / tau) for tau in taus]
    ema = [0.0, 0.0, 0.0, 0.0]
    status_key = []
    for i, arb_id in enumerate(status_ids):
        statuses = []
        for b in range(4):
            statuses.append({"ema": i, "scale": 2.0 + 0.5 * (4 * i + b) / 4.0,
                             "offset": rng.randrange(0, 20)})
            status_key.append((arb_id, b))
        bus.add_periodic(arb_id, rng.choice((10_000, 20_000, 25_000)),
                         _ema_status_payload(statuses, ema), source="filler")

    def planted_payload(now_us):
        data = bytearray(8)
        data[2] = max(0, min(255, round(plant.state.speed_mph * 4.0)))
        data[5] = 0x7F
        return bytes(data)

    bus.add_periodic(planted_id, 10_000, planted_payload, source="filler")

    half_ms = round(recordings.SQUARE_PERIOD_S * 500.0)
    due_us = bus.next_due_us()
    for ms in range(1, round(duration_s * 1000.0) + 1):
        pedal["app"] = (recordings.APP_HI_PCT if (ms // half_ms) % 2 == 1
                        else recordings.APP_LO_PCT)
        plant.advance(pedal["app"], 0.0, 50.0, 1, 0.001)
        speed_mph = plant.state.speed_mph
        for i, gain in enumerate(ema_gains):
            ema[i] += (speed_mph - ema[i]) * gain
        now_us = ms * 1000
        if due_us <= now_us:
            bus.step(now_us)
            due_us = bus.next_due_us()

    key = {
        "planted": (planted_id, 2),
        "actuator": (canbus.THROTTLE_ID, canbus.THROTTLE_BYTE_INDEX),
        "status": status_key,
        "constant_ids": (const_a, const_b),
        "walkers": tuple(walker_ids),
    }
    return bus.trace(), key


def oracle_full_window(subset):
    """Reference oracle: the target rows on a fresh bus, the rig over the whole window.

    Returns the verdict and the top speed it rests on.
    """
    bus = CanBus()
    rx = inj.ThrottleReceiver()
    bus.add_listener(rx, ids=(rx.arb_id,))
    bus.feed_replay(subset.select(subset.columns().ids == rx.arb_id))
    top = rig_loop(bus, VehiclePlant(), rx, replay_ms(subset))
    return top >= recordings.MIN_GAIN_MPH, top


def _live_rig(mode, value_fn):
    """The rig run_live_injection builds: a tap wraps the throttle module's payload."""
    rig, bus, rx, rule = _injection_rig(mode, canbus.THROTTLE_ID,
                                        canbus.THROTTLE_BYTE_INDEX, value_fn)
    ecus = SimulatedEcus(rig, pedal_fn=lambda: (0.0, 0.0))
    if mode == "shadow":
        inj.ShadowInjector(bus, rule, delay_us=250,
                           period_us=ecus.schedule[canbus.THROTTLE_ID])
    else:
        ecus.payload_fns[canbus.THROTTLE_ID] = rule.tap(ecus.payload_fns[canbus.THROTTLE_ID])
    ecus.attach(bus)
    return bus, rig, rx


def _replay_rig(frames):
    bus = CanBus()
    rx = inj.ThrottleReceiver()
    bus.add_listener(rx, ids=(rx.arb_id,))
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

    def test_press_in_the_last_frame_peaks_at_the_window_end(self):
        # the top speed is the rig's state after the last chunk, not a chunk start
        press = CanTrace([CanFrame(*_throttle_row(250_500, 38))])
        n_ms = replay_ms(press)
        new = _outcome(rig_loop, *_replay_rig(press), n_ms)
        assert new == _outcome(rig_loop_per_ms, *_replay_rig(press), n_ms)
        assert new[0] == new[3].speed_mph > recordings.MIN_GAIN_MPH

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


class TestCorrelationRecording:
    # the default capture, and a shorter one that ends inside a pedal phase
    @pytest.fixture(scope="class", params=[(60.0, 77), (33.3, 18996)])
    def captures(self, request):
        duration_s, seed = request.param
        return (recordings.correlation_recording(duration_s=duration_s, seed=seed),
                correlation_recording_per_tick(duration_s, seed))

    def test_same_key_and_rows(self, captures):
        (new, key), (ref, ref_key) = captures
        assert key == ref_key
        a, b = new.columns(), ref.columns()
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.dlc, b.dlc)

    def test_only_status_bytes_differ_by_one_count(self, captures):
        (new, key), (ref, _) = captures
        a, b = new.columns(), ref.columns()
        status = np.isin(a.ids, [arb_id for arb_id, _ in key["status"]])
        assert np.array_equal(a.data[~status], b.data[~status])
        gap = np.abs(a.data[status].astype(int) - b.data[status].astype(int))
        assert gap.max() <= 1


class TestRunUntil:
    @staticmethod
    def _rig():
        bus = CanBus()
        seen = []
        plant = VehiclePlant()
        bus.add_listener(lambda frame, source: seen.append((frame.timestamp_us,
                                                            plant.state.speed_mph)))
        bus.inject_at(5000, CanFrame(5000, 0x10, b"\x01"))
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
        bus.inject_at(2500, CanFrame(2500, 0x10, b"\x01"))
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
        bus.add_listener(rx, ids=(rx.arb_id,))
        bus.feed_replay(CanTrace([
            CanFrame(t, canbus.THROTTLE_ID, bytes([0, 0, 0, value, 0, 0, 0, 0]))
            for t, value in ((2000, 100), (4000, 0))]))
        read = []

        def inputs():
            read.append(rx.app_pct)
            return rx.app_pct, 0.0, 50.0

        run_until(bus, VehiclePlant(), inputs, 1000, 6000, 1000, 0.001)
        assert read == [0.0, 100 / canbus.PCT_TO_BYTE, 0.0]

    def test_inputs_returning_none_ends_the_run(self):
        bus, plant, seen = self._rig()
        chunks = iter([self._inputs(), None])
        # the first chunk ends where the frame falls due; that frame is
        # still delivered before the None ends the run
        assert run_until(bus, plant, lambda: next(chunks), 0, 10_000, 1000, 0.001) == 5
        assert [t for t, _ in seen] == [5000]
        at_stop = plant.state
        assert run_until(bus, plant, lambda: None, 5000, 10_000, 1000, 0.001) == 0
        assert plant.state is at_stop


class TestReach:
    def test_stops_at_the_first_chunk_end_that_reaches(self, press):
        throttle = press.select(press.columns().ids == canbus.THROTTLE_ID)
        n_ms = replay_ms(press)
        bus, rig, rx = _replay_rig(throttle)
        top = rig_loop(bus, rig, rx, n_ms, reach_mph=recordings.MIN_GAIN_MPH)
        assert top == rig.state.speed_mph >= recordings.MIN_GAIN_MPH
        # the run ended where the last frame it delivered fell due; at the
        # chunk end before, where the frame before fell due, the rig was below
        before_us = bus.trace().frames[-2].timestamp_us
        assert rig_loop(*_replay_rig(throttle), before_us // 1000 - 1) < recordings.MIN_GAIN_MPH


def _throttle_row(t_us, value, dlc=8):
    data = bytearray(dlc)
    if dlc > canbus.THROTTLE_BYTE_INDEX:
        data[canbus.THROTTLE_BYTE_INDEX] = value
    return t_us, canbus.THROTTLE_ID, bytes(data)


#: Throttle bytes whose settle speed app_k lies near MIN_GAIN_MPH (1 mph at byte 7.47).
_EDGE_BYTES = st.integers(6, 11)


@st.composite
def _synthetic_capture(draw):
    """A short capture of one kind the oracle must answer as the full window does."""
    kind = draw(st.sampled_from(["no target", "short target", "near edge", "short press",
                                 "late press"]))
    end_us = draw(st.integers(1, 3_000_000))
    filler = [(draw(st.integers(0, end_us)), draw(st.sampled_from([0x10, 0x75, 0x204, 0x11B])),
               draw(st.binary(max_size=8))) for _ in range(draw(st.integers(1, 6)))]
    rows = []
    if kind == "short target":  # the receiver ignores a frame too short for byte 4
        rows = [(draw(st.integers(0, end_us)), canbus.THROTTLE_ID,
                 draw(st.binary(max_size=canbus.THROTTLE_BYTE_INDEX)))
                for _ in range(draw(st.integers(1, 4)))]
    elif kind == "near edge":  # held near app_k = 1 mph, then maybe released
        start, period = draw(st.integers(0, 500_000)), draw(st.integers(10_000, 100_000))
        value = draw(_EDGE_BYTES)
        rows = [_throttle_row(t, value) for t in range(start, end_us + 1, period)]
        if draw(st.booleans()):
            rows.append(_throttle_row(end_us, 0))
    elif kind == "short press":  # far past 1 mph if held, released within ms
        start = draw(st.integers(0, end_us))
        press_us = draw(st.integers(0, 40_000))
        rows = [_throttle_row(start, draw(st.integers(100, 255))),
                _throttle_row(start + press_us, 0)]
    elif kind == "late press":  # the press lands in the last 100 ms of the capture
        rows = [_throttle_row(max(0, end_us - draw(st.integers(0, 100_000))),
                              draw(st.integers(0, 255)))]
        filler.append((end_us, 0x10, b""))
    rows = sorted(rows + filler, key=lambda row: row[0])
    return CanTrace(CanFrame(*row) for row in rows)


class TestOracle:
    """The oracle answers each probe as the full-window reference does.

    The threshold is MIN_GAIN_MPH, or exactly the top speed the reference
    reached, so a probe whose top lands on the threshold is drawn too.
    """

    @staticmethod
    def _agrees(subset, at_top):
        threshold = recordings.MIN_GAIN_MPH
        if at_top:
            top = oracle_full_window(subset)[1]
            threshold = top if top > 0.0 else threshold
        with mock.patch.object(recordings, "MIN_GAIN_MPH", threshold):
            assert recordings.throttle_effect_oracle()(subset) == oracle_full_window(subset)[0]

    @settings(deadline=None, max_examples=60)
    @given(st.data(), st.booleans())
    def test_press_subsets(self, press, data, at_top):
        ids = press.ids()
        subset = data.draw(st.sets(st.sampled_from(ids), min_size=1))
        if data.draw(st.booleans()):
            subset.add(canbus.THROTTLE_ID)
        self._agrees(inj.select_ids(press, subset), at_top)

    @settings(deadline=None, max_examples=150)
    @given(_synthetic_capture(), st.booleans())
    def test_synthetic_captures(self, capture, at_top):
        self._agrees(capture, at_top)
