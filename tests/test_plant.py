import logging
import math
import types

import pytest

from evsim import canbus, lowlevel, plant
from evsim.plant import (
    BPP_VERTEX_PCT,
    COUNTS_PER_RAD,
    STEER_DUTY_MIN,
    STEER_RATIO,
    WHEELBASE_M,
    FirstOrderChannel,
    OutOfDomainError,
    OutOfRangeError,
    SimulatedEcus,
    VehiclePlant,
    VehicleState,
    app_k,
    bpp_k,
    sensors_from_inputs,
    steer_k,
)


class TestSteadyStateMaps:
    def test_app_curve(self):
        assert app_k(15.0) == pytest.approx(45.05, abs=1e-12)
        assert app_k(100.0) == pytest.approx(355.3, abs=1e-12)

    def test_app_clamped_at_zero(self):
        assert app_k(0.0) == 0.0
        assert app_k(2.0) == 0.0  # below the dead pedal threshold

    def test_bpp_curve(self):
        assert bpp_k(0.0) == pytest.approx(-0.3768, abs=1e-12)
        assert bpp_k(100.0) == pytest.approx(-15.4768, abs=1e-12)

    def test_bpp_weakest_at_vertex(self):
        vertex = BPP_VERTEX_PCT
        lo, hi = sorted((bpp_k(vertex), bpp_k(vertex + 1.0)))
        assert lo < hi < 0.0  # always decelerating, weakest near the vertex

    def test_steer_curve(self):
        assert steer_k(60.0) == pytest.approx(762.5, abs=1e-9)
        assert steer_k(63.0) == pytest.approx(2273.0, abs=1e-9)
        assert steer_k(64.0) == pytest.approx(3014.1, abs=1e-6)

    def test_steer_branch_floor(self):
        lo = STEER_DUTY_MIN
        assert lo == pytest.approx(57.26178451178451, abs=1e-12)
        assert steer_k(lo) == pytest.approx(317.1292508417682, abs=1e-9)

    def test_steer_domain(self):
        with pytest.raises(OutOfDomainError):
            steer_k(56.0)
        with pytest.raises(OutOfDomainError):
            steer_k(65.0)

    def test_steer_monotone_on_branch(self):
        lo = STEER_DUTY_MIN
        samples = [lo + i * (64.0 - lo) / 200 for i in range(201)]
        values = [steer_k(d) for d in samples]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestFirstOrderChannel:
    def test_matches_analytic_exponential(self):
        ch = FirstOrderChannel(lambda u: u, tau_s=7.0, state=0.0)
        dt, n = 0.01, 3500
        for _ in range(n):
            ch.step(45.05, dt)
        expected = 45.05 * -math.expm1(-n * dt / 7.0)
        assert ch.state == pytest.approx(expected, rel=1e-12)

    def test_discretization_exact_in_dt(self):
        # same elapsed time, different tick sizes, same trajectory point
        a = FirstOrderChannel(lambda u: u, tau_s=0.3, state=5.0)
        b = FirstOrderChannel(lambda u: u, tau_s=0.3, state=5.0)
        for _ in range(100):
            a.step(-1.0, 0.001)
        for _ in range(10):
            b.step(-1.0, 0.01)
        assert a.state == pytest.approx(b.state, rel=1e-12)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            FirstOrderChannel(lambda u: u, tau_s=0.0)


class TestKernelAgainstChannels:
    """The fused kernel must track three independent first-order channels."""

    def test_speed_channel_bitwise(self):
        p = VehiclePlant()
        ch = FirstOrderChannel(app_k, tau_s=7.0, state=0.0)
        dt = 0.001
        for _ in range(2000):
            p.advance(15.0, 0.0, 50.0, 1, dt)
            ch.step(15.0, dt)
            assert p.state.speed_mph == ch.state

    def test_brake_channel_bitwise(self):
        p = VehiclePlant()
        ch = FirstOrderChannel(bpp_k, tau_s=0.3, state=bpp_k(0.0))
        dt = 0.001
        for _ in range(1500):
            p.advance(0.0, 30.0, 50.0, 1, dt)
            ch.step(30.0, dt)
            assert p.state.decel == ch.state

    def test_steer_channel_bitwise(self):
        p = VehiclePlant()
        ch = FirstOrderChannel(steer_k, tau_s=0.2, state=0.0)
        dt = 0.001
        for _ in range(1000):
            p.advance(0.0, 0.0, 60.0, 1, dt)
            ch.step(60.0, dt)
            assert p.state.steer_counts == ch.state

    def test_brake_overrides_accel(self):
        p = VehiclePlant(state=VehicleState(speed_mph=30.0, decel=bpp_k(0.0)))
        p.advance(100.0, 5.0, 50.0, 2000, 0.001)
        assert p.state.speed_mph < 30.0

    def test_light_brake_below_threshold_ignored(self):
        p = VehiclePlant(state=VehicleState(speed_mph=10.0, decel=bpp_k(0.0)))
        p.advance(15.0, 0.5, 50.0, 2000, 0.001)
        assert p.state.speed_mph > 10.0  # still tracking the accelerator

    def test_speed_floor(self):
        p = VehiclePlant(state=VehicleState(speed_mph=1.0, decel=bpp_k(0.0)))
        p.advance(0.0, 60.0, 50.0, 10_000, 0.001)
        assert p.state.speed_mph == 0.0

    def test_brake_decel_speed_independent(self):
        results = []
        for v0 in (5.0, 15.0, 25.0):
            p = VehiclePlant(state=VehicleState(speed_mph=v0, decel=bpp_k(0.0)))
            p.advance(0.0, 40.0, 50.0, 900, 0.001)
            results.append(p.state.decel)
        assert max(results) - min(results) == 0.0


class TestSteeringDeadband:
    def test_holds_inside_band(self):
        for duty in (45.0, 50.0, 55.0):
            p = VehiclePlant(state=VehicleState(steer_counts=800.0, decel=bpp_k(0.0)))
            p.advance(0.0, 0.0, duty, 500, 0.001)
            assert p.state.steer_counts == 800.0

    def test_mirrored_response(self):
        a = VehiclePlant()
        b = VehiclePlant()
        a.advance(0.0, 0.0, 60.0, 700, 0.001)
        b.advance(0.0, 0.0, 40.0, 700, 0.001)
        assert b.state.steer_counts == -a.state.steer_counts

    def test_mirror_uses_complement_duty(self):
        # duty 40 settles at the negative of the duty-60 settle angle
        p = VehiclePlant()
        p.advance(0.0, 0.0, 40.0, 100_000, 0.001)
        assert p.state.steer_counts == pytest.approx(-steer_k(60.0), rel=1e-9)

    def test_below_branch_clamps_to_floor(self):
        # duty just under the deadband maps to the weakest achievable torque
        p = VehiclePlant()
        p.advance(0.0, 0.0, 44.9, 50_000, 0.001)
        assert p.state.steer_counts == pytest.approx(
            -steer_k(STEER_DUTY_MIN), rel=1e-9)


class TestPose:
    def test_heading_rate_matches_bicycle(self):
        p = VehiclePlant(state=VehicleState(
            speed_mph=20.0, decel=bpp_k(0.0), steer_counts=1000.0))
        delta = 1000.0 / COUNTS_PER_RAD / STEER_RATIO
        omega = 20.0 * plant.MPH_TO_MPS / WHEELBASE_M * math.tan(delta)
        n = 5000
        for _ in range(n):
            p.pose_step(0.001)
        assert p.state.heading_rad == pytest.approx(omega * n * 0.001, rel=1e-9)

    def test_full_circle_closes(self):
        p = VehiclePlant(state=VehicleState(
            speed_mph=20.0, decel=bpp_k(0.0), steer_counts=1000.0))
        delta = 1000.0 / COUNTS_PER_RAD / STEER_RATIO
        omega = 20.0 * plant.MPH_TO_MPS / WHEELBASE_M * math.tan(delta)
        n = round(2 * math.pi / omega / 0.001)
        for _ in range(n):
            p.pose_step(0.001)
        gap = math.hypot(p.state.p_n, p.state.p_e)
        assert gap < 0.1  # first-order integration error over one lap

    def test_initial_heading_is_north(self):
        p = VehiclePlant(state=VehicleState(speed_mph=10.0, decel=bpp_k(0.0)))
        p.pose_step(1.0)
        assert p.state.p_n > 0.0
        assert p.state.p_e == 0.0

    def test_dynamics_step_freezes_pose(self):
        p = VehiclePlant(state=VehicleState(
            speed_mph=10.0, decel=bpp_k(0.0), heading_rad=0.5, p_n=3.0, p_e=4.0))
        p.dynamics_step(20.0, 0.0, 50.0, 0.001)
        assert (p.state.heading_rad, p.state.p_n, p.state.p_e) == (0.5, 3.0, 4.0)
        assert p.state.speed_mph != 10.0

    def test_split_equals_fused(self):
        fused = VehiclePlant(state=VehicleState(speed_mph=5.0, decel=bpp_k(0.0)))
        split = VehiclePlant(state=VehicleState(speed_mph=5.0, decel=bpp_k(0.0)))
        for _ in range(300):
            fused.step(30.0, 0.0, 58.0, 0.001)
            split.dynamics_step(30.0, 0.0, 58.0, 0.001)
            split.pose_step(0.001)
        assert fused.state == split.state


class TestInputClamping:
    def test_out_of_range_inputs_warn_and_clamp(self, caplog):
        p = VehiclePlant()
        with caplog.at_level(logging.WARNING, logger="evsim.plant"):
            p.advance(150.0, -5.0, 120.0, 1, 0.001)
        assert p.last_inputs == (100.0, 0.0, 100.0)
        assert len(caplog.records) == 3

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("value, fixed", [(-1e-9, 0.0), (100.5, 100.0), (math.nan, 0.0),
                                              (0.0, 0.0), (100.0, 100.0)])
    def test_each_input_clamped_alone(self, caplog, index, value, fixed):
        inputs = [30.0, 0.0, 50.0]
        inputs[index] = value
        p = VehiclePlant()
        with caplog.at_level(logging.WARNING, logger="evsim.plant"):
            p.advance(*inputs, 1, 0.001)
        inputs[index] = fixed
        assert p.last_inputs == tuple(inputs)
        assert len(caplog.records) == (0 if value == fixed else 1)

    def test_nan_tick_size_adds_no_cache_entry(self):
        p = VehiclePlant()
        p.advance(30.0, 0.0, 50.0, 1, 0.001)
        before = len(p._alpha_cache)
        for _ in range(5):
            p.advance(30.0, 0.0, 50.0, 1, math.nan)
        assert len(p._alpha_cache) <= before

    def test_reset(self):
        p = VehiclePlant()
        p.advance(50.0, 0.0, 60.0, 100, 0.001)
        p.reset()
        assert p.state == VehicleState.at_rest()
        assert p.last_inputs == (0.0, 0.0, 50.0)


class TestParams:
    def test_at_rest_decel(self):
        assert VehicleState.at_rest().decel == bpp_k(0.0)


class TestSensors:
    def test_rest_values(self):
        s = sensors_from_inputs(0.0, 0.0, 50.0)
        assert s.app_v2 == 0.4
        assert s.app_v1 == 0.8
        assert (s.bpp_duty1, s.bpp_duty2) == (89.0, 11.0)
        assert (s.steer_duty1, s.steer_duty2) == (50.0, 50.0)

    def test_app_channel_ratio_exact(self):
        for pct in (0.0, 12.5, 33.0, 100.0):
            s = sensors_from_inputs(pct, 0.0, 50.0)
            assert s.app_v1 == 2.0 * s.app_v2

    def test_duty_pairs_complementary(self):
        for pct in (0.0, 17.0, 64.0, 100.0):
            s = sensors_from_inputs(10.0, pct, pct)
            assert s.bpp_duty1 + s.bpp_duty2 == 100.0
            assert s.steer_duty1 + s.steer_duty2 == 100.0

    def test_full_pedal_spans(self):
        s = sensors_from_inputs(100.0, 100.0, 50.0)
        assert s.app_v2 == 2.0
        assert s.bpp_duty1 == pytest.approx(19.0)

    def test_range_check(self):
        with pytest.raises(OutOfRangeError):
            sensors_from_inputs(101.0, 0.0, 50.0)


class TestSimulatedEcus:
    def test_attach_schedule(self):
        bus = canbus.CanBus()
        SimulatedEcus(VehiclePlant()).attach(bus)
        assert bus.step(0) == range(0, 0)
        rows = bus.step(100_000)
        frames = bus.trace().frames[rows.start:rows.stop]

        def ids_at(t):
            return [f.arbitration_id for f in frames if f.timestamp_us == t]

        assert ids_at(10_000) == [0x10, 0x75, 0x7D, 0x204]
        assert ids_at(100_000) == [0x10, 0x75, 0x7D, 0x11A, 0x204]

    def test_schedule_rejects_id_without_payload(self):
        with pytest.raises(ValueError, match="0x300"):
            SimulatedEcus(VehiclePlant(), schedule={0x75: 10_000, 0x300: 10_000})

    def test_one_out_of_range_error(self):
        assert OutOfRangeError is canbus.OutOfRangeError is lowlevel.OutOfRangeError

    def test_throttle_frame_carries_driver_pedal(self):
        p = VehiclePlant()
        p.advance(99.0, 0.0, 50.0, 1, 0.001)  # applied value, not the driver's
        ecus = SimulatedEcus(p, pedal_fn=lambda: (40.0, 0.0))
        payload = ecus.throttle_payload(0)
        assert payload[canbus.THROTTLE_BYTE_INDEX] == round(40.0 * 2.55)
        assert payload[3] / canbus.PCT_TO_BYTE == pytest.approx(40.0, abs=0.2)

    def test_speed_frame_decodes_to_plant_speed(self):
        p = VehiclePlant(state=VehicleState(speed_mph=25.0, decel=bpp_k(0.0)))
        ecus = SimulatedEcus(p)
        frame = canbus.CanFrame(0, 0x75, ecus.speed_payload(0))
        assert canbus.decode_speed(frame) == pytest.approx(25.0, abs=1 / 54)

    def test_steering_frame_signed(self):
        p = VehiclePlant(state=VehicleState(steer_counts=-500.0, decel=bpp_k(0.0)))
        ecus = SimulatedEcus(p)
        raw = ecus.steering_payload(0)
        value = int.from_bytes(raw[:2], "big", signed=True)
        assert value == -500

    def test_attach_round_trip(self):
        p = VehiclePlant(state=VehicleState(speed_mph=10.0, decel=bpp_k(0.0)))
        bus = canbus.CanBus()
        SimulatedEcus(p).attach(bus)
        rows = bus.step(10_000)
        speeds = [f for f in bus.trace().frames[rows.start:rows.stop] if f.arbitration_id == 0x75]
        assert len(speeds) == 1
        assert canbus.decode_speed(speeds[0]) == pytest.approx(10.0, abs=1 / 54)


def _old_pct_byte(pct):
    return max(0, min(255, round(pct * canbus.PCT_TO_BYTE)))


def _around(x, ulps=2):
    """x and its float neighbours up to ulps steps either side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


class TestPayloadTables:
    """The table-built and struct-packed payloads against the constructions they replaced."""

    # every byte boundary and round tie of _pct_byte, from below the 0 clamp to past 100 %
    PCTS = sorted({p for b in range(-2, 259) for x in (b, b - 0.5, b + 0.5)
                   for p in _around(x / canbus.PCT_TO_BYTE)}
                  | {-1e6, -1.0, -0.0, 0.0, 100.0, 100.5, 150.0, 1e6})
    # round ties either side of zero, and the clamps at -32768 and 32767
    COUNTS = sorted({c for x in (-32769.5, -32768.5, -32768, -32767.5, -2.5, -1.5, -0.5,
                                 0.0, 0.5, 1.5, 2.5, 32766.5, 32767, 32767.5, 32768, 32768.5)
                     for c in _around(float(x))} | {-1e9, 1e9})

    @staticmethod
    def _ecus(pct=0.0, speed_mph=0.0, steer_counts=0.0):
        stub = types.SimpleNamespace(state=types.SimpleNamespace(
            speed_mph=speed_mph, steer_counts=steer_counts))
        return SimulatedEcus(stub, pedal_fn=lambda: (pct, pct))

    def test_pedal_payloads(self):
        assert any(p * canbus.PCT_TO_BYTE % 1 == 0.5 for p in self.PCTS)  # exact ties
        for pct in self.PCTS:
            ecus = self._ecus(pct=pct)
            byte = _old_pct_byte(pct)
            old_pedal = bytes([byte]) + bytes(7)
            old_throttle = bytearray(8)
            old_throttle[canbus.THROTTLE_BYTE_INDEX] = byte
            assert ecus.app_payload(0) == old_pedal, pct
            assert ecus.bpp_payload(0) == old_pedal, pct
            assert ecus.throttle_payload(0) == bytes(old_throttle), pct
            assert plant._pct_byte(pct) == byte, pct
        clamped = {_old_pct_byte(p) for p in (-1e6, -1.0, 100.5, 1e6)}
        assert clamped == {0, 255}

    def test_steering_payload(self):
        for counts in self.COUNTS:
            old = max(-32768, min(32767, round(counts)))
            expected = (old & 0xFFFF).to_bytes(2, "big") + bytes(6)
            assert self._ecus(steer_counts=counts).steering_payload(0) == expected, counts

    def test_speed_payload(self):
        def old(mph):
            raw = round(canbus.SPEED_OFFSET + canbus.SPEED_COUNTS_PER_MPH * mph)
            if not 0 <= raw <= 0xFFFF:
                raise OutOfRangeError(f"speed {mph} mph does not fit the 16-bit field")
            return bytes((0, 0, 0, 0, 0, 0, raw >> 8, raw & 0xFF))

        def mph_of(raw):
            return (raw - canbus.SPEED_OFFSET) / canbus.SPEED_COUNTS_PER_MPH

        grid = [m for raw in (-1, -0.5, 0, 0.5, 1, 45268, 45268.5, 65534.5, 65535, 65535.5,
                              65536)
                for m in _around(mph_of(raw))]
        outcomes = set()
        for mph in grid:
            try:
                expected = old(mph)
            except OutOfRangeError as exc:
                with pytest.raises(OutOfRangeError, match="does not fit the 16-bit field"):
                    self._ecus(speed_mph=mph).speed_payload(0)
                outcomes.add("error")
                continue
            assert self._ecus(speed_mph=mph).speed_payload(0) == expected, mph
            assert canbus.speed_data(mph) == expected, mph
            outcomes.add(expected[6:])
        # both ends of the field are reached and one count past either end raises
        assert {b"\x00\x00", b"\xff\xff", "error"} <= outcomes
        for raw in (-1, 0x10000):
            with pytest.raises(OutOfRangeError):
                canbus.speed_data(mph_of(raw))
        assert canbus.speed_data(mph_of(0)) == bytes(8)
        assert canbus.speed_data(mph_of(0xFFFF)) == bytes(6) + b"\xff\xff"
