import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evsim import canbus, follower, scenario
from evsim.canbus import CanFrame, CanTrace
from evsim.plant import MPH_TO_MPS
from evsim.scenario import (
    ConfigError,
    OvalSpec,
    Scenario,
    emit_logs,
    load_scenario,
    ramp_bytes,
    run_live_injection,
    run_replay_injection,
    run_scenario,
    save_scenario,
)


_HUGE = st.floats(min_value=1e5, max_value=1e308)


class TestScenarioConfig:
    def test_defaults_validate(self):
        Scenario("s", 1.0, speed_ref_mph=10.0).validate()

    def test_duration_positive(self):
        with pytest.raises(ConfigError):
            Scenario("s", 0.0, speed_ref_mph=10.0).validate()

    def test_rates_must_divide(self):
        with pytest.raises(ConfigError, match="multiple of the physics tick"):
            Scenario("s", 1.0, physics_dt_s=0.003, control_period_s=0.01,
                     speed_ref_mph=10.0).validate()
        with pytest.raises(ConfigError, match="multiple of the control period"):
            Scenario("s", 1.0, follower_period_s=0.025,
                     speed_ref_mph=10.0).validate()

    def test_exactly_one_target_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            Scenario("s", 1.0).validate()
        with pytest.raises(ConfigError, match="exactly one"):
            Scenario("s", 1.0, oval=OvalSpec(), speed_ref_mph=10.0).validate()

    def test_heading_mode_checked(self):
        with pytest.raises(ConfigError):
            Scenario("s", 1.0, speed_ref_mph=10.0,
                     heading_mode="sideways").validate()

    def test_sub_microsecond_tick_rejected(self):
        with pytest.raises(ConfigError):
            Scenario("s", 1.0, physics_dt_s=4.9e-7,
                     speed_ref_mph=10.0).validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="jerk"):
            Scenario.from_dict({"name": "s", "duration_s": 1.0,
                                "speed_ref_mph": 10.0, "jerk": 1})

    def test_duration_required(self):
        with pytest.raises(ConfigError, match="duration_s"):
            Scenario.from_dict({"name": "s", "speed_ref_mph": 10.0})

    @pytest.mark.parametrize("change, match", [
        ({"duration_s": 0.005}, "shorter than one control period"),
        ({"duration_s": float("nan")}, "duration_s"),
        ({"duration_s": float("inf")}, "duration_s"),
        ({"duration_s": "5"}, "duration_s"),
        ({"duration_s": True}, "duration_s"),
        ({"duration_s": 1e305}, "too long"),
        ({"physics_dt_s": float("nan")}, "physics_dt_s"),
        ({"physics_dt_s": 1e305}, "physics_dt_s"),
        ({"speed_ref_mph": float("nan")}, "speed_ref_mph"),
        ({"q": float("inf")}, "q"),
        ({"r": float("nan")}, "r"),
        ({"r": [1.0, float("nan")]}, "r"),
        ({"r": 0.0}, "positive definite"),
        ({"q": [1.0, 2.0, 3.0]}, "pair"),
        ({"k_heading": float("-inf")}, "k_heading"),
        ({"preview_s": float("nan")}, "preview_s"),
        ({"oval": {"radius_m": float("nan")}}, "oval.radius_m"),
        ({"oval": {"speed_mph": "20"}}, "oval.speed_mph"),
        ({"oval": {"radius_m": 0.0}}, "radius_m > 0"),
        ({"oval": {"lanes": 2}}, "unknown oval keys"),
        ({"oval": [100.0, 20.0, 20.0]}, "oval must be an object"),
        ({"path_file": 5}, "path_file"),
        ({"name": 5}, "name"),
        ({"name": None}, "name"),
        ({"name": ""}, "name"),
        ({"duration_s": 10 ** 400}, "duration_s"),
        ({"k_heading": None}, "k_heading"),
        ({"oval": {"straight_m": 1e308, "radius_m": 1, "speed_mph": 1}}, "lap time"),
        ({"duration_s": 1e300}, "too long"),
        ({"duration_s": scenario.MAX_RUN_S + 0.01}, "too long"),
        ({"oval": {"speed_mph": 1e-9}}, "lap time"),
        ({"oval": {"straight_m": 1e6}}, "samples"),
    ])
    def test_bad_input_raises_config_error(self, change, match):
        raw = {"name": "s", "duration_s": 1.0, "speed_ref_mph": 10.0, **change}
        if "oval" in change or "path_file" in change:
            del raw["speed_ref_mph"]
        with pytest.raises(ConfigError, match=match):
            Scenario.from_dict(raw)

    @settings(deadline=None, max_examples=150)
    @given(changes=st.dictionaries(
        st.sampled_from(["name", "duration_s", "physics_dt_s", "control_period_s",
                         "follower_period_s", "oval", "path_file", "speed_ref_mph",
                         "heading_mode", "q", "r", "k_heading", "preview_s", "lanes"]),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
            | _HUGE | st.sampled_from([0.001, 0.01, 0.1, 1.0, 20.0, "relative", "absolute"]),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["straight_m", "radius_m", "speed_mph", "x"]),
                              inner, max_size=3),
            max_leaves=6),
        max_size=3),
        # huge or tiny finite numbers where they set the run length or the oval table size
        scale=st.fixed_dictionaries({}, optional={
            "duration_s": _HUGE,
            "oval": st.fixed_dictionaries({}, optional=dict.fromkeys(
                ("straight_m", "radius_m", "speed_mph"),
                _HUGE | st.floats(min_value=1e-12, max_value=1e-3) | st.just(20.0)))}))
    def test_from_dict_loads_or_raises_config_error(self, changes, scale):
        # start from a valid scenario so the changes reach past the first check
        raw = {"name": "s", "duration_s": 1.0, **scale, **changes}
        if "oval" not in scale:
            raw.setdefault("speed_ref_mph", 10.0)
        try:
            scn = Scenario.from_dict(raw)
        except ConfigError:
            return
        assert isinstance(scn, Scenario)
        assert scn.duration_s <= scenario.MAX_RUN_S
        if scn.oval is not None:
            lap_s = follower.oval_lap_s(scn.oval.straight_m, scn.oval.radius_m,
                                        scn.oval.speed_mph * MPH_TO_MPS)
            assert lap_s / follower.OVAL_SLOT_S <= follower.MAX_OVAL_SAMPLES

    def test_run_length_cap_is_inclusive(self):
        Scenario("s", scenario.MAX_RUN_S, speed_ref_mph=10.0).validate()

    def test_oval_table_cap(self):
        # just under the cap builds, just over it raises before any sample is made
        speed = (2.0 * 100.0 + 2.0 * math.pi * 20.0) / (follower.MAX_OVAL_SAMPLES * 0.1)
        assert len(follower.make_oval(100.0, 20.0, speed * 1.001)) <= follower.MAX_OVAL_SAMPLES
        with pytest.raises(follower.OvalError, match="samples"):
            follower.make_oval(100.0, 20.0, speed * 0.999)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            Scenario.from_dict([1.0])

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\"duration_s\": ")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(p)

    def test_dict_roundtrip(self):
        scn = Scenario("oval-test", 72.8, oval=OvalSpec(100.0, 20.0, 20.0),
                       k_heading=6000.0, preview_s=0.5)
        assert Scenario.from_dict(scn.to_dict()) == scn

    def test_file_roundtrip(self, tmp_path):
        scn = Scenario("hold", 5.0, speed_ref_mph=12.0)
        p = tmp_path / "hold.json"
        save_scenario(scn, p)
        assert load_scenario(p) == scn

    def test_minimal_scenario_carries_calibrated_gains(self, tmp_path):
        scn = Scenario.from_dict({"duration_s": 1.0, "oval": {}})
        gains = follower.FollowerGains.from_weights(scn.q, scn.r, scn.k_heading, scn.preview_s)
        assert gains == follower.FollowerGains()
        assert (scn.k_heading, scn.preview_s) == (follower.K_HEADING, follower.PREVIEW_S)
        p = tmp_path / "minimal.json"
        save_scenario(scn, p)
        saved = json.loads(p.read_text())
        assert (saved["k_heading"], saved["preview_s"]) == (follower.K_HEADING, follower.PREVIEW_S)


@pytest.fixture(scope="module")
def hold():
    return run_scenario(Scenario("hold", 6.0, speed_ref_mph=10.0))


class TestRunScenario:
    def test_speed_converges(self, hold):
        assert hold.metrics["final_speed_mph"] == pytest.approx(10.0, abs=0.02)

    def test_counters(self, hold):
        assert hold.metrics["control_steps"] == 600
        assert hold.metrics["serial_roundtrips"] == 600
        assert hold.metrics["physics_ticks"] == 6000
        assert hold.metrics["follower_steps"] == 0

    def test_rows_cover_every_control_period(self, hold):
        assert len(hold.rows) == 600
        assert hold.rows[0][0] == 0.01
        assert hold.rows[-1][0] == 6.0

    def test_bus_carried_broadcasts(self, hold):
        ids = set(hold.trace.ids())
        assert {0x10, 0x75, 0x7D, 0x11A, 0x204} <= ids
        speeds = [canbus.decode_speed(f) for f in hold.trace
                  if f.arbitration_id == 0x75]
        assert speeds[-1] == pytest.approx(10.0, abs=0.1)

    def test_no_path_metrics_without_path(self, hold):
        assert "lap_errors" not in hold.metrics
        assert hold.rows[0][12] is None  # target_n empty

    def test_oval_produces_lap_metrics(self):
        scn = Scenario("mini-oval", 10.0, oval=OvalSpec(5.0, 5.0, 10.0))
        result = run_scenario(scn)
        laps = result.metrics["lap_errors"]
        assert "1" in laps and "2" in laps  # second lap just started
        assert laps["1"]["samples"] > 0
        assert result.metrics["max_err_m"] >= result.metrics["mean_err_m"]


class TestEmitLogs:
    def test_deterministic_reruns(self, tmp_path):
        scn = Scenario("det", 2.0, speed_ref_mph=8.0)
        paths_a = emit_logs(run_scenario(scn), tmp_path / "a")
        paths_b = emit_logs(run_scenario(scn), tmp_path / "b")
        for key in ("state", "trace", "metrics"):
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_csv_header_and_widths(self, tmp_path):
        scn = Scenario("hdr", 0.1, speed_ref_mph=5.0)
        paths = emit_logs(run_scenario(scn), tmp_path)
        lines = paths["state"].read_text().splitlines()
        assert lines[0] == ",".join(scenario.LOG_COLUMNS)
        assert len(lines) == 1 + 10

    def test_metrics_json_parses(self, tmp_path):
        scn = Scenario("m", 0.5, speed_ref_mph=5.0)
        paths = emit_logs(run_scenario(scn), tmp_path)
        metrics = json.loads(paths["metrics"].read_text())
        assert metrics["name"] == "m"

    def test_trace_file_parses_back(self, tmp_path):
        scn = Scenario("tr", 0.5, speed_ref_mph=5.0)
        result = run_scenario(scn)
        paths = emit_logs(result, tmp_path)
        assert list(canbus.load_trace(paths["trace"])) == list(result.trace)


class TestRampBytes:
    def test_advances_and_clamps(self):
        fn = ramp_bytes(0, 5, 2)
        assert [fn(0) for _ in range(5)] == [0, 2, 4, 5, 5]

    def test_descending(self):
        fn = ramp_bytes(10, 6, -3)
        assert [fn(0) for _ in range(3)] == [10, 7, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            ramp_bytes(0, 300, 1)
        with pytest.raises(ValueError):
            ramp_bytes(0, 10, 0)
        with pytest.raises(ValueError):
            ramp_bytes(10, 0, 1)


class TestLiveInjection:
    def test_shadow_dominance_default_schedule(self):
        result = run_live_injection(2.0, lambda t: 200)
        assert result.dominance == Fraction(399, 400)
        assert result.injected == 20

    def test_shadow_dominance_fast_target_period(self):
        schedule = dict(canbus.DEFAULT_SCHEDULE)
        schedule[canbus.THROTTLE_ID] = 10_000
        result = run_live_injection(2.0, lambda t: 200, schedule=schedule)
        assert result.dominance == Fraction(39, 40)

    def test_injection_takes_physical_effect(self):
        result = run_live_injection(2.0, lambda t: 200)
        assert result.final_speed_mph > 10.0
        speeds = [v for _, v in result.speed_series]
        assert speeds[-1] > speeds[0]

    def test_tap_mode_rewrites_at_source(self):
        result = run_live_injection(1.0, lambda t: 64, mode="tap")
        assert result.dominance is None
        assert result.injected == 0
        throttle = [f for f in result.trace if f.arbitration_id == 0x11A]
        assert throttle and all(f.data[3] == 64 for f in throttle)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            run_live_injection(1.0, lambda t: 0, mode="mitm")

    @pytest.mark.parametrize("duration_s", [scenario.MAX_RUN_S * 1.5, 1e300, float("nan")])
    def test_run_length_capped(self, duration_s):
        with pytest.raises(ConfigError, match="too long"):
            run_live_injection(duration_s, lambda t: 0)

    def test_metrics_shape(self):
        m = run_live_injection(1.0, lambda t: 100).metrics()
        # every 100 ms interval is dominated 99750/100000, so the reduced
        # fraction is the same whatever the window length
        assert m["dominance"]["exact"] == "399/400"
        assert 0.0 < m["dominance"]["value"] < 1.0


def _throttle_replay(n=20, period_us=100_000, value=0):
    return CanTrace([
        CanFrame(k * period_us, 0x11A, 8, bytes(3) + bytes([value]) + bytes(4))
        for k in range(1, n + 1)
    ])


class TestReplayInjection:
    def test_shadow_forges_per_frame(self):
        result = run_replay_injection(_throttle_replay(), lambda t: 200)
        assert result.injected == 20
        assert result.dominance == Fraction(399, 400)

    def test_rig_obeys_shadow_value(self):
        result = run_replay_injection(_throttle_replay(), lambda t: 200)
        assert result.final_speed_mph > 5.0

    def test_tap_rewrites_before_replay(self):
        result = run_replay_injection(_throttle_replay(), lambda t: 128,
                                      mode="tap")
        throttle = [f for f in result.trace if f.arbitration_id == 0x11A]
        assert len(throttle) == 20
        assert all(f.data[3] == 128 for f in throttle)
        assert all(src == "replay" for _, src, _ in result.deliveries)

    def test_capture_past_run_cap(self):
        cap_us = round(scenario.MAX_RUN_S * 1e6)
        at_cap = CanTrace([CanFrame(cap_us, 0x11A, 8, bytes(8))])
        assert scenario.replay_ms(at_cap) == cap_us // 1000 + 1000
        for last_us in (cap_us + 1, 10 ** 15, 10 ** 400):
            past = CanTrace([CanFrame(last_us, 0x11A, 8, bytes(8))])
            with pytest.raises(ConfigError, match="past the limit"):
                run_replay_injection(past, lambda t: 0)
