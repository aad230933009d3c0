import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from evsim.follower import (
    CommandNotFiniteError,
    FollowerCommand,
    FollowerGains,
    NonMonotoneTimeError,
    PathFollower,
    SingularRError,
    TargetPath,
    TargetSample,
    care_solution,
    error_dynamics_check,
    load_path,
    lqr_gain,
    make_oval,
    riccati_residual,
    save_path,
    wrap_to_pi,
)
from evsim.plant import MPS_TO_MPH


class TestWrap:
    def test_zero(self):
        assert wrap_to_pi(0.0) == 0.0

    def test_three_half_pi(self):
        assert wrap_to_pi(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_multiple_turns(self):
        assert wrap_to_pi(7 * math.pi + 0.25) == pytest.approx(-math.pi + 0.25)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_range_and_direction(self, angle):
        w = wrap_to_pi(angle)
        assert -math.pi <= w <= math.pi
        assert math.sin(w) == pytest.approx(math.sin(angle), abs=1e-6)
        assert math.cos(w) == pytest.approx(math.cos(angle), abs=1e-6)


def _line_path(n=10, dt=0.1, speed=5.0):
    return TargetPath([
        TargetSample(k * dt, speed * k * dt, 0.0, speed, 0.0) for k in range(n)
    ])


class TestTargetPath:
    def test_needs_samples(self):
        with pytest.raises(ValueError):
            TargetPath([])

    def test_must_start_at_zero(self):
        with pytest.raises(NonMonotoneTimeError):
            TargetPath([TargetSample(0.5, 0, 0, 0, 0)])

    def test_strictly_increasing(self):
        with pytest.raises(NonMonotoneTimeError):
            TargetPath([TargetSample(0.0, 0, 0, 0, 0),
                        TargetSample(0.0, 1, 0, 0, 0)])

    def test_even_spacing_required(self):
        with pytest.raises(NonMonotoneTimeError):
            TargetPath([TargetSample(0.0, 0, 0, 0, 0),
                        TargetSample(0.1, 1, 0, 0, 0),
                        TargetSample(0.3, 2, 0, 0, 0)])

    def test_period(self):
        path = _line_path(n=10, dt=0.1)
        assert path.period_s == pytest.approx(1.0)

    def test_sample_hold_and_wrap(self):
        path = _line_path(n=10, dt=0.1, speed=5.0)
        assert path.sample_at(0.05).p_n == 0.0      # held within the slot
        assert path.sample_at(0.1).p_n == 0.5
        assert path.sample_at(1.05).p_n == 0.0      # wrapped to the start

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            _line_path().sample_at(-0.01)

    def test_position_interpolates_within_slot(self):
        path = _line_path(speed=5.0)
        held = path.sample_at(0.16)
        moving = path.position_at(0.16)
        assert (held.p_n, held.p_e) == (0.5, 0.0)
        assert moving[0] == pytest.approx(0.5 + 5.0 * 0.06)


class TestPathIo:
    def test_roundtrip_exact(self, tmp_path):
        path = make_oval(30.0, 10.0, 5.0)
        p = tmp_path / "oval.txt"
        save_path(path, p)
        back = load_path(p)
        assert back.samples == path.samples  # repr floats survive exactly

    def test_save_then_load(self, tmp_path):
        p = tmp_path / "line.txt"
        save_path(_line_path(), str(p))
        assert len(load_path(str(p))) == 10

    def test_commas_tolerated(self, tmp_path):
        back = load_path(_path_file(tmp_path, "0.0, 1.0, 2.0, 3.0, 4.0\n"))
        assert back.samples[0].v_e == 4.0

    def test_field_count_checked(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            load_path(_path_file(tmp_path, "0.0 1.0 2.0\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_path(_path_file(tmp_path, "0.0 0 0 0 0\nx 0 0 0 0\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_value_not_finite(self, tmp_path, value):
        with pytest.raises(ValueError, match="line 2: a value is not finite"):
            load_path(_path_file(tmp_path, f"0.0 0 0 0 0\n0.1 {value} 0 1 0\n"))


def _path_file(tmp_path, text):
    p = tmp_path / "path.txt"
    p.write_text(text)
    return p


class TestMakeOval:
    def test_starts_north_at_origin(self):
        path = make_oval(100.0, 20.0, 8.9408)
        first = path.samples[0]
        assert (first.p_n, first.p_e) == (0.0, 0.0)
        assert first.v_n == pytest.approx(8.9408)
        assert first.v_e == 0.0

    def test_period_matches_lap_time(self):
        path = make_oval(100.0, 20.0, 8.9408)
        lap = (2 * 100.0 + 2 * math.pi * 20.0) / 8.9408
        assert path.period_s == pytest.approx(lap, rel=1e-12)

    def test_constant_speed(self):
        path = make_oval(50.0, 15.0, 7.0)
        for s in path.samples:
            assert math.hypot(s.v_n, s.v_e) == pytest.approx(7.0, rel=1e-12)

    def test_clockwise_geometry(self):
        path = make_oval(100.0, 20.0, 8.9408)
        # east offset stays within [0, 2R] for a clockwise lap from the origin
        assert min(s.p_e for s in path.samples) >= -1e-9
        assert max(s.p_e for s in path.samples) <= 2 * 20.0 + 1e-9
        assert max(s.p_n for s in path.samples) <= 100.0 + 20.0 + 1e-9

    def test_wrap_is_seamless(self):
        path = make_oval(100.0, 20.0, 8.9408)
        last = path.samples[-1]
        gap = math.hypot(last.p_n - 0.0, last.p_e - 0.0)
        assert gap <= 8.9408 * path.dt_s * 1.01  # one slot from closing

    def test_validation(self):
        with pytest.raises(ValueError):
            make_oval(-1.0, 20.0, 5.0)
        with pytest.raises(ValueError):
            make_oval(10.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            make_oval(10.0, 20.0, 0.0)


class TestLqr:
    def test_identity_weights(self):
        assert care_solution(1.0, 1.0) == (1.0, 1.0)
        assert lqr_gain(1.0, 1.0) == (1.0, 1.0)

    def test_scaled_weights(self):
        assert lqr_gain(4.0, 1.0) == (2.0, 2.0)
        assert lqr_gain((4.0, 9.0), 1.0) == (2.0, 3.0)

    def test_residual_is_zero_at_solution(self):
        # exactly representable products square back to q with no residual
        for q, r in ((1.0, 1.0), (4.0, 1.0), ((9.0, 16.0), (1.0, 1.0))):
            p = care_solution(q, r)
            assert riccati_residual(p, q, r) == 0.0

    def test_residual_machine_eps_for_irrational_solution(self):
        p = care_solution((2.0, 5.0), (1.0, 0.5))
        assert riccati_residual(p, (2.0, 5.0), (1.0, 0.5)) < 1e-14

    def test_matches_scipy_care(self):
        for qd, rd in (((1.0, 1.0), (1.0, 1.0)),
                       ((4.0, 9.0), (1.0, 1.0)),
                       ((2.0, 5.0), (0.5, 2.0))):
            a = np.zeros((2, 2))
            b = np.eye(2)
            p_ref = scipy.linalg.solve_continuous_are(
                a, b, np.diag(qd), np.diag(rd))
            p = care_solution(qd, rd)
            assert p[0] == pytest.approx(p_ref[0, 0], rel=1e-12)
            assert p[1] == pytest.approx(p_ref[1, 1], rel=1e-12)
            assert abs(p_ref[0, 1]) < 1e-12  # diagonal problem stays diagonal

    def test_singular_r(self):
        with pytest.raises(SingularRError):
            care_solution(1.0, 0.0)
        with pytest.raises(SingularRError):
            lqr_gain(1.0, (1.0, -2.0))
        with pytest.raises(SingularRError):
            riccati_residual((1.0, 1.0), (1.0, 1.0), 0.0)

    def test_negative_q(self):
        with pytest.raises(ValueError):
            care_solution(-1.0, 1.0)

    def test_pair_shape(self):
        with pytest.raises(ValueError):
            care_solution((1.0, 2.0, 3.0), 1.0)

    def test_from_weights(self):
        g = FollowerGains.from_weights(q=4.0, r=1.0, k_heading=5000.0, preview_s=0.2)
        assert (g.k_n, g.k_e) == (2.0, 2.0)
        assert g.k_heading == 5000.0 and g.preview_s == 0.2


class TestErrorDynamicsCheck:
    def test_euler_deviation_magnitude(self):
        # (1 - g*dt)^k drifts from exp(-g*k*dt) by about k*(g*dt)^2/2
        worst = error_dynamics_check(1.0, 5.0, 0.001)
        assert worst == pytest.approx(0.0025, rel=0.05)
        assert worst < 0.01

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            error_dynamics_check(0.0)


class TestPathFollower:
    def test_on_path_commands_path_velocity(self):
        path = _line_path(n=50, dt=0.1, speed=5.0)
        f = PathFollower(path, FollowerGains(k_heading=4000.0))
        # standing exactly on the moving anchor, heading along the path
        cmd = f.step(0.26, 5.0 * 0.26, 0.0, 0.0)
        assert cmd.speed_mph == pytest.approx(5.0 * MPS_TO_MPH, rel=1e-9)
        assert cmd.steer_counts == pytest.approx(0.0, abs=1e-9)

    def test_position_error_raises_speed_demand(self):
        path = _line_path(n=50, dt=0.1, speed=5.0)
        f = PathFollower(path, FollowerGains())
        behind = f.step(0.26, 5.0 * 0.26 - 1.0, 0.0, 0.0)
        on = f.step(0.26, 5.0 * 0.26, 0.0, 0.0)
        assert behind.speed_mph > on.speed_mph

    def test_heading_error_scales_counts(self):
        path = _line_path(n=50, dt=0.1, speed=5.0)
        f = PathFollower(path, FollowerGains(k_heading=4000.0))
        cmd = f.step(0.26, 5.0 * 0.26, 0.0, -0.1)  # nose 0.1 rad left of path
        assert cmd.steer_counts == pytest.approx(4000.0 * 0.1, rel=1e-9)

    def test_absolute_mode_uses_demanded_heading(self):
        path = TargetPath([
            TargetSample(k * 0.1, 0.0, 3.0 * k * 0.1, 0.0, 3.0) for k in range(30)
        ])  # due east, demanded heading pi/2
        f = PathFollower(path, FollowerGains(k_heading=1000.0),
                         heading_mode="absolute")
        cmd = f.step(0.16, 0.0, 3.0 * 0.16, 0.0)
        assert cmd.steer_counts == pytest.approx(1000.0 * math.pi / 2, rel=1e-9)

    def test_bad_heading_mode(self):
        with pytest.raises(ValueError):
            PathFollower(_line_path(), heading_mode="compass")

    def test_counts_limited(self):
        path = _line_path(n=50, dt=0.1, speed=5.0)
        f = PathFollower(path, FollowerGains(k_heading=4000.0),
                         counts_limits=(-100.0, 100.0))
        cmd = f.step(0.26, 5.0 * 0.26, 0.0, -1.0)
        assert cmd.steer_counts == 100.0

    def test_arc_feedforward_matches_kinematics(self):
        radius, speed = 20.0, 8.9408
        path = make_oval(100.0, radius, speed)
        f = PathFollower(path, FollowerGains(k_heading=4000.0, preview_s=0.0))
        # mid-arc, standing on the anchor with the target's own heading
        t = (100.0 / speed) + (math.pi * radius / speed) / 2.0
        t = math.floor(t / path.dt_s) * path.dt_s
        s = path.sample_at(t)
        heading = math.atan2(s.v_e, s.v_n)
        anchor = path.position_at(t)
        cmd = f.step(t, anchor[0], anchor[1], heading)
        expected = math.atan(2.7 * (speed / radius) / speed) * 15.0 * (2000.0 / math.pi)
        assert cmd.steer_counts == pytest.approx(expected, rel=0.02)

    def test_straight_has_no_feedforward(self):
        path = make_oval(100.0, 20.0, 8.9408)
        f = PathFollower(path, FollowerGains(k_heading=4000.0, preview_s=0.0))
        t = 10 * path.dt_s  # well inside the first straight
        anchor = path.position_at(t)
        cmd = f.step(t, anchor[0], anchor[1], 0.0)
        assert cmd.steer_counts == pytest.approx(0.0, abs=1e-9)

    def test_preview_starts_turn_early(self):
        radius, speed = 20.0, 8.9408
        path = make_oval(100.0, radius, speed)
        plain = PathFollower(path, FollowerGains(k_heading=4000.0, preview_s=0.0))
        preview = PathFollower(path, FollowerGains(k_heading=4000.0, preview_s=0.5))
        # just before the corner the previewing follower already steers
        t = 100.0 / speed - 0.3
        t = math.floor(t / path.dt_s) * path.dt_s
        anchor = path.position_at(t)
        assert plain.step(t, *anchor, 0.0).steer_counts == pytest.approx(0.0, abs=1e-9)
        assert preview.step(t, *anchor, 0.0).steer_counts > 100.0

    @pytest.mark.parametrize("p_n, k_heading, named", [
        (1e308, 4000.0, "speed command at t = 0.2 s is inf mph"),
        (math.nan, 4000.0, "speed command at t = 0.2 s is nan mph"),
        (1.0, math.inf, "steering command at t = 0.2 s is nan counts"),
    ])
    def test_non_finite_command_raises(self, p_n, k_heading, named):
        # checked once per follower step, before the counts clamp hides a nan
        f = PathFollower(_line_path(), FollowerGains(k_heading=k_heading),
                         counts_limits=(-3000.0, 3000.0))
        with pytest.raises(CommandNotFiniteError, match=named):
            f.step(0.2, p_n, 0.0, 0.0)
