import math

import pytest
from hypothesis import given, strategies as st

from evsim import lowlevel
from evsim.lowlevel import (
    ACCEL_GAINS,
    ACCEL_SPEC,
    BRAKE_GAINS,
    STEER_GAINS,
    STEER_SPEC,
    GainsNotFiniteError,
    LateralController,
    LongitudinalController,
    LoopSpec,
    OutOfRangeError,
    PiGains,
    PiLoop,
    UnachievableError,
    closed_loop_poles,
    deadband_compensate,
    design_pi,
    invert_k_app,
    invert_k_bpp,
    invert_k_steer,
    pi_step,
)
from evsim.plant import BPP_VERTEX_PCT, STEER_DUTY_MIN, VehiclePlant, VehicleState, bpp_k, steer_k


class TestGainDesign:
    def test_accel_gains_exact(self):
        assert ACCEL_GAINS.kp == 27.0
        assert ACCEL_GAINS.ki == 28.0

    def test_brake_gains(self):
        assert abs(BRAKE_GAINS.kp - 0.2) < 1e-12
        assert abs(BRAKE_GAINS.ki - 1.2) < 1e-12

    def test_steer_gains(self):
        assert abs(STEER_GAINS.kp - 0.2) < 1e-12
        assert abs(STEER_GAINS.ki - 1.8) < 1e-12

    def test_accel_critically_damped(self):
        p1, p2 = closed_loop_poles(ACCEL_GAINS, 7.0)
        assert p1 == p2 == -2.0

    def test_steer_poles(self):
        p1, p2 = closed_loop_poles(STEER_GAINS, STEER_SPEC.tau_channel_s)
        for p in (p1, p2):
            assert p.real == pytest.approx(-3.0, rel=1e-6)
            assert abs(p.imag) < 1e-6

    @given(
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=0.7, max_value=2.0),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_designed_loops_always_stable(self, tau_ch, zeta, tau_cl):
        gains = design_pi(LoopSpec(tau_ch, zeta, tau_cl))
        p1, p2 = closed_loop_poles(gains, tau_ch)
        assert p1.real < 0 and p2.real < 0

    def test_design_time_constant_encodes_bandwidth(self):
        # halving the target settle time doubles the natural frequency
        slow = design_pi(LoopSpec(1.0, 1.0, 1.0))
        fast = design_pi(LoopSpec(1.0, 1.0, 0.5))
        assert fast.ki == pytest.approx(4.0 * slow.ki, rel=1e-12)

    @pytest.mark.parametrize("spec", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (7.0, 0.0, 0.5),
                                      (7.0, 1.0, 0.0), (float("nan"), 1.0, 1.0),
                                      (7.0, float("inf"), 0.5)])
    def test_spec_rejects_non_positive_or_non_finite(self, spec):
        with pytest.raises(ValueError, match="positive finite"):
            LoopSpec(*spec)

    @pytest.mark.parametrize("spec", [(1e200, 1.0, 1e-200), (1.0, 1.0, 1e-160),
                                      (1.0, 1e-200, 1e-200)])
    def test_overflowing_gains_raise(self, spec):
        with pytest.raises(GainsNotFiniteError, match="gains overflow"):
            design_pi(LoopSpec(*spec))


class TestPiStep:
    def test_plain_update(self):
        out, integral = pi_step(2.0, 1.0, PiGains(3.0, 0.5), 0.1, -1e9, 1e9)
        assert integral == 1.0 + 2.0 * 0.1
        assert out == 3.0 * 2.0 + 0.5 * integral

    def test_setpoint_weighted_proportional(self):
        out, integral = pi_step(2.0, 0.0, PiGains(3.0, 0.5), 0.1, -1e9, 1e9,
                                p_error=0.5)
        assert integral == 0.2  # integral always accumulates the true error
        assert out == 3.0 * 0.5 + 0.5 * 0.2

    def test_anti_windup_back_calculation(self):
        gains = PiGains(27.0, 28.0)
        out, integral = pi_step(50.0, 0.0, gains, 0.01, 0.0, 100.0)
        assert out == 100.0
        # unsaturated sum recomputes to exactly the limit
        assert gains.kp * 50.0 + gains.ki * integral == 100.0

    def test_no_windup_on_reversal(self):
        gains = PiGains(1.0, 10.0)
        integral = 0.0
        for _ in range(100):
            out, integral = pi_step(10.0, integral, gains, 0.1, 0.0, 5.0)
        assert out == 5.0
        out, integral = pi_step(-1.0, integral, gains, 0.1, 0.0, 5.0)
        assert out < 5.0  # leaves the limit on the first opposing error

    def test_loop_wrapper_state(self):
        loop = PiLoop(PiGains(1.0, 1.0), (-10.0, 10.0))
        loop.step(1.0, 0.1)
        assert loop.integral != 0.0
        loop.reset()
        assert loop.integral == 0.0 and loop.last_output == 0.0

    def test_loop_limit_validation(self):
        with pytest.raises(ValueError):
            PiLoop(PiGains(1.0, 1.0), (5.0, 5.0))


class TestInversions:
    def test_app_inverse_of_known_point(self):
        assert invert_k_app(45.05) == pytest.approx(15.0, abs=1e-12)

    def test_app_clamps(self):
        assert invert_k_app(-50.0) == 0.0
        assert invert_k_app(10_000.0) == 100.0

    def test_bpp_roundtrip_on_reachable_range(self):
        vertex = BPP_VERTEX_PCT
        for pct in (vertex, 20.0, 50.0, 75.0, 100.0):
            assert invert_k_bpp(bpp_k(pct)) == pytest.approx(pct, rel=1e-9)

    def test_bpp_vertex_boundary_does_not_raise(self):
        vertex = BPP_VERTEX_PCT
        invert_k_bpp(bpp_k(vertex))  # exact peak, rounding guard territory

    def test_bpp_unreachably_weak(self):
        with pytest.raises(UnachievableError):
            invert_k_bpp(-0.1)

    def test_bpp_beyond_full_press(self):
        with pytest.raises(UnachievableError):
            invert_k_bpp(-20.0)

    def test_bpp_picks_larger_root(self):
        # rest-level decel is also produced at ~16% pedal; the controller
        # must land on the branch where more pedal means more braking
        pct = invert_k_bpp(bpp_k(0.0))
        assert pct > 16.0

    def test_steer_roundtrip_on_branch(self):
        for duty in (58.0, 60.0, 62.0, 64.0):
            assert invert_k_steer(steer_k(duty)) == pytest.approx(duty, rel=1e-9)

    def test_steer_roundtrip_at_vertex(self):
        # the inverse is ill-conditioned at the flat vertex, so the
        # contract there is counts accuracy, not duty accuracy
        lo = STEER_DUTY_MIN
        duty = invert_k_steer(steer_k(lo))
        assert steer_k(duty) == pytest.approx(steer_k(lo), abs=1e-6)

    def test_steer_saturates(self):
        assert invert_k_steer(0.0) == pytest.approx(STEER_DUTY_MIN)
        assert invert_k_steer(1e9) == 64.0


class TestDeadbandCompensation:
    def test_reference_points(self):
        assert deadband_compensate(57.0) == 59.5
        assert deadband_compensate(43.5) == 41.0

    def test_center_passthrough(self):
        assert deadband_compensate(50.0) == 50.0

    def test_endpoints_fixed(self):
        assert deadband_compensate(37.0) == 37.0
        assert deadband_compensate(64.0) == 64.0

    def test_range_check(self):
        with pytest.raises(OutOfRangeError):
            deadband_compensate(36.99)
        with pytest.raises(OutOfRangeError):
            deadband_compensate(64.01)

    def test_output_skips_dead_zone(self):
        assert deadband_compensate(50.01) > 55.0
        assert deadband_compensate(49.99) < 45.0

    @given(
        st.floats(min_value=37.0, max_value=64.0),
        st.floats(min_value=37.0, max_value=64.0),
    )
    def test_monotone(self, a, b):
        if a > b:
            a, b = b, a
        assert deadband_compensate(a) <= deadband_compensate(b)


class TestLongitudinalController:
    def test_one_pedal_at_a_time(self):
        lon = LongitudinalController()
        app, bpp = lon.step(10.0, 0.0, 0.01)
        assert app > 0.0 and bpp == 0.0

    def test_brake_engages_past_hysteresis(self):
        lon = LongitudinalController()
        app, bpp = lon.step(10.0, 25.0, 0.01)
        assert lon.mode == "brake"
        assert app == 0.0 and bpp > 0.0

    def test_hysteresis_band_holds_mode(self):
        lon = LongitudinalController()
        lon.step(10.0, 25.0, 0.01)
        lon.step(10.0, 9.6, 0.01)   # error +0.4, inside the band
        assert lon.mode == "brake"
        lon.step(10.0, 9.4, 0.01)   # error +0.6, past it
        assert lon.mode == "accel"

    def test_integrators_reset_on_switch(self):
        lon = LongitudinalController()
        for _ in range(50):
            lon.step(10.0, 0.0, 0.01)
        assert lon.accel_pi.integral > 0.0
        lon.step(10.0, 25.0, 0.01)
        assert lon.accel_pi.integral == 0.0

    def test_closed_loop_speed_step(self):
        # 10 mph step: first-order response with the designed time constant,
        # no overshoot
        plant = VehiclePlant()
        lon = LongitudinalController()
        dt_phys, n_sub = 0.001, 10
        speeds = []
        app = bpp = 0.0
        for k in range(600):  # 6 s at 100 Hz
            app, bpp = lon.step(10.0, plant.state.speed_mph, 0.01)
            plant.advance(app, bpp, 50.0, n_sub, dt_phys)
            speeds.append(plant.state.speed_mph)
        target = 10.0 * (1.0 - math.exp(-1.0))
        t63 = 0.01 * (1 + next(i for i, v in enumerate(speeds) if v >= target))
        assert 0.45 <= t63 <= 0.55
        assert max(speeds) <= 10.0 + 1e-6

    def test_brake_mode_converges(self):
        plant = VehiclePlant(state=VehicleState(speed_mph=25.0, decel=bpp_k(0.0)))
        lon = LongitudinalController()
        for _ in range(800):  # 8 s
            app, bpp = lon.step(10.0, plant.state.speed_mph, 0.01)
            plant.advance(app, bpp, 50.0, 10, 0.001)
        assert plant.state.speed_mph == pytest.approx(10.0, abs=0.6)


class TestLateralController:
    def test_achievable_counts(self):
        lo, hi = LateralController().achievable_counts()
        assert lo == pytest.approx(-steer_k(63.0), rel=1e-12)
        assert hi == pytest.approx(steer_k(64.0), rel=1e-12)

    def test_center_hold(self):
        assert LateralController().steer_duty_command(0.0) == 50.0

    def test_command_compensation_cancellation(self):
        # mapping a demand to raw duty and compensating it must settle at
        # exactly the demanded counts, both branches, for any demand at or
        # above the curve floor
        lat = LateralController()
        lo, hi = lat.achievable_counts()
        floor = steer_k(STEER_DUTY_MIN)
        for demand in [hi * f for f in (0.15, 0.3, 0.5, 0.7, 0.9, 1.0)] + \
                      [lo * f for f in (0.15, 0.3, 0.5, 0.7, 0.9, 1.0)] + \
                      [floor, -floor]:
            duty = deadband_compensate(lat.steer_duty_command(demand))
            settle = steer_k(duty) if duty > 55.0 else -steer_k(100.0 - duty)
            assert settle == pytest.approx(demand, abs=1e-6)

    def test_sub_floor_demand_clamps_to_weakest_torque(self):
        # angles between zero and the curve floor have no settling duty;
        # the command map pins them at the floor rather than crossing center
        lat = LateralController()
        floor = steer_k(STEER_DUTY_MIN)
        duty = deadband_compensate(lat.steer_duty_command(floor / 2.0))
        assert steer_k(duty) == pytest.approx(floor, abs=1e-6)

    def test_command_stays_in_working_window(self):
        lat = LateralController()
        lo, hi = lat.achievable_counts()
        for demand in (lo, -1.0, 0.0, 1.0, hi):
            assert 37.0 <= lat.steer_duty_command(demand) <= 64.0

    def test_closed_loop_tracks_counts(self):
        plant = VehiclePlant()
        lat = LateralController()
        for _ in range(300):  # 3 s at 100 Hz
            raw = lat.step(1500.0, plant.state.steer_counts, 0.01)
            duty = deadband_compensate(raw)
            plant.advance(0.0, 0.0, duty, 10, 0.001)
        assert plant.state.steer_counts == pytest.approx(1500.0, abs=20.0)

    def test_closed_loop_negative_counts(self):
        plant = VehiclePlant()
        lat = LateralController()
        for _ in range(300):
            raw = lat.step(-800.0, plant.state.steer_counts, 0.01)
            duty = deadband_compensate(raw)
            plant.advance(0.0, 0.0, duty, 10, 0.001)
        assert plant.state.steer_counts == pytest.approx(-800.0, abs=20.0)
