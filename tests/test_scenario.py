import csv
import gc
import io
import itertools
import json
import math
import tempfile
import tracemalloc
import types
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from evsim import canbus, cli, follower, injection, scenario
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
        ({"name": "../escaped"}, "name"),
        ({"name": "a/b"}, "name"),
        ({"name": "a\\b"}, "name"),
        ({"name": "a\0b"}, "name"),
        ({"name": "."}, "name"),
        ({"name": ".."}, "name"),
        ({"duration_s": 10 ** 400}, "duration_s"),
        ({"k_heading": None}, "k_heading"),
        ({"oval": {"straight_m": 1e308, "radius_m": 1, "speed_mph": 1}}, "lap time"),
        ({"duration_s": 1e300}, "too long"),
        ({"duration_s": scenario.MAX_RUN_S + 0.01}, "too long"),
        ({"oval": {"speed_mph": 1e-9}}, "lap time"),
        ({"oval": {"straight_m": 1e6}}, "samples"),
        ({"duration_s": 86_400, "physics_dt_s": 1e-6, "control_period_s": 1e-5,
          "follower_period_s": 1e-4}, "physics ticks"),
        ({"duration_s": 86.400001, "physics_dt_s": 1e-6}, "physics ticks"),
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
        # huge or tiny finite numbers where they set the run length, the tick count or
        # the oval table size
        scale=st.fixed_dictionaries({
            "physics_dt_s": st.sampled_from([1e-3, 1e-5, 1e-6])}, optional={
            "duration_s": _HUGE | st.floats(min_value=1.0, max_value=scenario.MAX_RUN_S),
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
        ticks = round(scn.duration_s * 1e6) // round(scn.physics_dt_s * 1e6)
        assert ticks <= scenario.MAX_PHYSICS_TICKS
        if scn.oval is not None:
            lap_s = follower.oval_lap_s(scn.oval.straight_m, scn.oval.radius_m,
                                        scn.oval.speed_mph * MPH_TO_MPS)
            assert lap_s / follower.OVAL_SLOT_S <= follower.MAX_OVAL_SAMPLES

    def test_run_length_cap_is_inclusive(self):
        Scenario("s", scenario.MAX_RUN_S, speed_ref_mph=10.0).validate()
        Scenario("s", scenario.MAX_PHYSICS_TICKS * 1e-6, physics_dt_s=1e-6,
                 speed_ref_mph=10.0).validate()

    def test_speed_cap_is_what_the_broadcast_carries(self, tmp_path):
        # the fastest oval the 0x75 field carries loads, and the next float up does not
        top = canbus.MAX_SPEED_MPH
        assert canbus.speed_data(top)[6:] == b"\xff\xff"
        Scenario("s", 1.0, oval=OvalSpec(100.0, 20.0, top)).validate()
        with pytest.raises(ConfigError, match="oval.speed_mph 375.3.* is above the 375.3 mph"):
            Scenario("s", 1.0, oval=OvalSpec(100.0, 20.0, math.nextafter(top, 1e9))).validate()
        # 168 m/s is about 375.8 mph; the error names the first such sample
        path = tmp_path / "path.txt"
        path.write_text("0 0 0 1 0\n0.1 0 0 1 0\n0.2 0 0 168 0\n0.3 0 0 168 0\n")
        with pytest.raises(ConfigError, match=r"the speed at t = 0\.2 s is above"):
            scenario._build_path(Scenario("s", 1.0, path_file=str(path)))

    def test_path_range_cap(self, tmp_path):
        # a sample at the cap loads; one a float past it, or one whose distance
        # overflows, is named in the error
        top = scenario.MAX_PATH_RANGE_M
        path = tmp_path / "path.txt"
        path.write_text(f"0 0 {top!r} 0 0\n")
        assert scenario._build_path(Scenario("s", 1.0, path_file=str(path))).samples[0].p_e == top
        for far in (f"0 0 0 1 0\n0.1 {math.nextafter(top, 2e9)!r} 0 0 0\n",
                    "0 0 0 1 0\n0.1 1.7e308 1.7e308 0 0\n"):
            path.write_text(far)
            with pytest.raises(ConfigError, match=r"position at t = 0\.1 s is more than 1e\+09 m"):
                scenario._build_path(Scenario("s", 1.0, path_file=str(path)))

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


def _assert_sums_left_to_right(result) -> None:
    """metrics.json's path error statistics equal those of result.rows, each sum a plain +=."""
    col = scenario.LOG_COLUMNS.index("path_err_m")
    period = result.metrics["lap_period_s"]
    by_lap: dict[str, list] = {}
    for row in result.rows:
        by_lap.setdefault(str(int(row[0] / period) + 1), []).append(row[col])

    def stats(errs):
        total = 0
        for err in errs:
            total += err
        return {"samples": len(errs), "mean_err_m": total / len(errs), "max_err_m": max(errs)}

    run = stats([row[col] for row in result.rows])
    assert result.metrics["lap_errors"] == {lap: stats(errs) for lap, errs in by_lap.items()}
    assert (result.metrics["mean_err_m"], result.metrics["max_err_m"]) == (
        run["mean_err_m"], run["max_err_m"])


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

    def test_run_builds_no_frame(self):
        # the bus appends every frame to the trace's columns and builds a
        # CanFrame only for a listener, and no listener is wired in a run
        built = []
        init = CanFrame.__init__

        def counted_init(frame, *args):
            built.append(args)
            init(frame, *args)

        with mock.patch.object(canbus, "_frame", side_effect=canbus._frame) as unchecked, \
                mock.patch.object(CanFrame, "__init__", counted_init):
            result = run_scenario(Scenario("hold", 2.0, speed_ref_mph=10.0))
        assert len(result.trace) == 820
        assert unchecked.call_count == 0 and built == []

    def test_trace_memory_per_frame(self):
        # 19 bytes a frame: an int64 timestamp, a uint16 id, a uint8 dlc and 8 payload bytes
        tracemalloc.start()
        try:
            result = run_scenario(Scenario("hold", 30.0, speed_ref_mph=10.0))
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, canbus.__file__)]).statistics("filename")
        finally:
            tracemalloc.stop()
        assert len(result.trace) == 12_300
        assert sum(stat.size for stat in held) <= 20 * len(result.trace)

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
        _assert_sums_left_to_right(result)

        # a path error of 1e16 at the first step and 1.0 after it: a left-to-right
        # sum loses every 1.0 to rounding, a compensated one (math.fsum) keeps them
        errs = itertools.chain([1e16], itertools.repeat(1.0))
        fake_math = types.SimpleNamespace(**vars(math))
        fake_math.hypot = lambda *args: next(errs)
        with mock.patch.object(scenario, "math", fake_math):
            result = run_scenario(scn)
        n = result.metrics["control_steps"]
        assert result.metrics["mean_err_m"] == 1e16 / n
        assert math.fsum([1e16] + [1.0] * (n - 1)) / n != 1e16 / n
        _assert_sums_left_to_right(result)


def _mostly(common, rare):
    """A draw of common in about nine cases of ten, of rare in the tenth."""
    return st.sampled_from([common] * 9 + [rare]).flatmap(lambda strategy: strategy)


_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: Ordinary and extreme sizes, for the scenario keys, and signed values, for
#: path files; a few negative or not finite, which the checks must reject.
_SIZE = _mostly(st.floats(min_value=0.0, allow_infinity=False)
                | st.sampled_from([5e-324, 1e-12, 0.5, 1.0, 20.0, 1e12, 1e300, 1.7e308]),
                st.sampled_from([-1.0, -1.7e308]) | _NOT_FINITE)
_SIGNED = _mostly(st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, 1.7e308]), _NOT_FINITE)
#: Tick and period lengths, mostly valid, and ones each check rejects.  No
#: period under 1 ms or tick under 10 us, which keeps every run short.
_PERIOD = _mostly(st.sampled_from([0.001, 0.01, 0.02, 0.1, 0.2]),
                  st.sampled_from([0.0, -0.01, 0.0105, 1e-9, 1e300]) | _NOT_FINITE)
_SCENARIO_KEYS = st.fixed_dictionaries(
    {"duration_s": _mostly(st.sampled_from([0.05, 0.2, 0.3]),
                           st.sampled_from([0.0, -1.0, 1e-9]) | _NOT_FINITE)},
    optional={"physics_dt_s": _PERIOD | st.sampled_from([1e-4, 1e-5]),
              "control_period_s": _PERIOD, "follower_period_s": _PERIOD,
              "q": _SIZE | st.lists(_SIZE, min_size=2, max_size=2),
              "r": _SIZE | st.lists(_SIZE, min_size=2, max_size=2),
              "k_heading": _SIGNED, "preview_s": _mostly(st.floats(0.0, 10.0), _SIZE),
              "heading_mode": st.sampled_from(["relative", "absolute"])})
#: The reference source: a speed, an oval, or a path file given as its
#: sample spacing and rows of (n, e, v_n, v_e).
_SOURCE = st.one_of(
    st.tuples(st.just("speed_ref_mph"), _SIGNED),
    st.tuples(st.just("oval"), st.fixed_dictionaries({}, optional=dict.fromkeys(
        ("straight_m", "radius_m", "speed_mph"), _SIZE))),
    st.tuples(st.just("path"), st.tuples(
        _mostly(st.sampled_from([0.01, 0.1, 1.0]), _SIGNED),
        st.lists(st.tuples(_SIGNED, _SIGNED, *[_mostly(st.floats(-150.0, 150.0), _SIGNED)] * 2),
                 min_size=1, max_size=4))))


def _reject_constant(name):
    pytest.fail(f"metrics.json holds {name}")


class TestFiniteOutput:
    @settings(deadline=None, max_examples=200)
    @given(keys=_SCENARIO_KEYS, source=_SOURCE)
    @example(keys={"duration_s": 0.05, "preview_s": 1.7e308},
             source=("oval", {"straight_m": 1e-12, "radius_m": 1, "speed_mph": 1}))
    @example(keys={"duration_s": 0.05},
             source=("oval", {"straight_m": 1e300, "radius_m": 1, "speed_mph": 1.7e308}))
    @example(keys={"duration_s": 0.05}, source=("path", (0.1, [(0, 0, 1e308, 1e308)] * 2)))
    @example(keys={"duration_s": 0.05}, source=("path", (0.1, [(1e308, 1e308, 1, 0)] * 2)))
    @example(keys={"duration_s": 0.05, "q": 0.0}, source=("path", (0.01, [(0, 1.7e308, 0, 0)])))
    @example(keys={"duration_s": 0.05, "q": 0.0},
             source=("path", (0.01, [(1.7e308, 1.7e308, 0, 0)])))
    def test_a_run_writes_only_finite_numbers_or_fails_first(self, keys, source):
        # the inputs that once wrote inf or never ended: a preview past the run
        # cap, an oval and a path faster than the speed broadcast carries, a path
        # so far out that the follower's command overflows, and, with the
        # follower's position weight at zero, one whose error sum overflows and
        # one whose every error does
        kind, value = source
        raw = {"name": "s", **keys}
        chunks = []
        with tempfile.TemporaryDirectory() as tmp:
            if kind != "path":
                raw[kind] = value
            else:
                spacing, samples = value
                raw["path_file"] = f"{tmp}/path.txt"
                with open(raw["path_file"], "w", encoding="ascii") as fh:
                    fh.writelines(" ".join(map(repr, (i * spacing, *sample))) + "\n"
                                  for i, sample in enumerate(samples))
            try:
                result = run_scenario(Scenario.from_dict(raw), on_chunk=chunks.append)
            except cli._USER_ERRORS:
                assert not chunks  # no row left the run
                return
            paths = emit_logs(result, tmp)
            with open(paths["state"], encoding="ascii") as fh:
                next(fh)  # the header
                numbers = [float(x) for line in fh for x in line.rstrip("\n").split(",") if x]
            with open(paths["metrics"], encoding="ascii") as fh:
                json.load(fh, parse_constant=_reject_constant)
        assert all(map(math.isfinite, numbers))


# state.csv fields: floats (edge values included), None for an empty field,
# and ints (a speed_ref_mph given as a JSON integer reaches the rows as one)
_LOG_FIELD = (st.floats()
              | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324,
                                 2.2250738585072014e-308, 1e22, 1e16, 0.1])
              | st.none() | st.integers(-2**70, 2**70))


class TestEmitLogs:
    @given(st.lists(st.tuples(*[_LOG_FIELD] * len(scenario.LOG_COLUMNS)), max_size=12),
           st.integers(1, 4))
    def test_state_csv_matches_csv_writer(self, rows, rows_per_write):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\r\n")
        writer.writerow(scenario.LOG_COLUMNS)
        writer.writerows(rows)
        got = io.StringIO(newline="")
        with mock.patch.object(scenario, "_ROWS_PER_WRITE", rows_per_write):
            scenario.write_state_csv(got, rows)
        assert got.getvalue() == expected.getvalue()

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
        assert result.injected == 19  # the 20th falls due after the last tick

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
        CanFrame(k * period_us, 0x11A, bytes(3) + bytes([value]) + bytes(4))
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
        at_cap = CanTrace([CanFrame(cap_us, 0x11A, bytes(8))])
        assert scenario.replay_ms(at_cap) == cap_us // 1000 + 1000
        for last_us in (cap_us + 1, 10 ** 15, 2 ** 63 - 1):
            past = CanTrace([CanFrame(last_us, 0x11A, bytes(8))])
            with pytest.raises(ConfigError, match="past the limit"):
                run_replay_injection(past, lambda t: 0)
        # a trace holds int64 timestamps, so a later one fails before any replay
        with pytest.raises(canbus.OutOfRangeError, match="does not fit 64 bits"):
            CanTrace([CanFrame(10 ** 400, 0x11A, bytes(8))])


@pytest.mark.parametrize("run", [
    lambda: run_live_injection(0.5, lambda t: 100),
    lambda: run_replay_injection(_throttle_replay(), lambda t: 100, mode="shadow"),
], ids=["live", "replay-shadow"])
def test_a_shadow_run_frees_its_bus_without_a_cyclic_collection(monkeypatch, run):
    # the injector and its bus form no reference cycle, so the bus, its trace
    # columns and its listeners go as soon as the run returns
    buses = []
    injection_rig = scenario._injection_rig

    def recorded_rig(*args):
        rig = injection_rig(*args)
        buses.append(weakref.ref(rig[1]))
        return rig

    monkeypatch.setattr(scenario, "_injection_rig", recorded_rig)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        assert result.injected > 0
        assert len(buses) == 1 and buses[0]() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("run", [
    lambda: run_scenario(Scenario("hold", 0.5, speed_ref_mph=10.0)),
    lambda: run_live_injection(0.5, lambda t: 100),
    lambda: run_live_injection(0.5, lambda t: 100, mode="tap"),
], ids=["simulate", "live-shadow", "live-tap"])
def test_a_run_frees_its_plant_without_a_cyclic_collection(monkeypatch, run):
    # the ECUs' payload functions hold the plant, not the ECUs, so the ECUs,
    # the bus that calls them and the plant go as soon as the run returns
    plants = []
    simulated_ecus = scenario.SimulatedEcus

    def recorded_ecus(plant, *args, **kwargs):
        plants.append(weakref.ref(plant))
        return simulated_ecus(plant, *args, **kwargs)

    monkeypatch.setattr(scenario, "SimulatedEcus", recorded_ecus)
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        assert len(plants) == 1 and plants[0]() is None
    finally:
        if enabled:
            gc.enable()


def _whole_capture_replay(trace, value_fn, target_id, byte_index, mode, delay_us):
    """Reference replay that puts every row of the capture on the bus."""
    rig, bus, rx, rule = scenario._injection_rig(mode, target_id, byte_index, value_fn)
    n_ms = scenario.replay_ms(trace)
    target = [f for f in trace if f.arbitration_id == target_id]
    if not target:
        raise ConfigError(f"target id 0x{target_id:X} has no frame in the capture")
    for f in target:
        if f.dlc <= byte_index:
            raise canbus.ShortFrameError(
                f"0x{target_id:X} frame at {f.timestamp_us} us has {f.dlc} data bytes, "
                f"too short for byte {byte_index + 1}")
    injector = None
    if mode == "shadow":
        deltas = sorted(b.timestamp_us - a.timestamp_us for a, b in zip(target, target[1:]))
        period = deltas[len(deltas) // 2] if deltas else None
        injector = injection.ShadowInjector(bus, rule, delay_us=delay_us, period_us=period)
        bus.feed_replay(trace)
    else:
        bus.feed_replay(map(rule.apply, trace))
    return scenario._run_injection(bus, rig, rx, injector, n_ms)


def _outcome(replay, trace, ramp, *args):
    try:
        return replay(trace, ramp_bytes(*ramp), *args)
    except (ConfigError, canbus.ShortFrameError, injection.DelayError) as exc:
        return type(exc), str(exc)


_POOL = (0x05, 0x10, 0x11A, 0x7FF)

@st.composite
def _captures(draw):
    """(capture frames, target id): ids from a small pool, about half of them the target.

    A gap of 0 repeats a timestamp with the ids in any order.  Half the
    captures hold only full payloads, so they get past the short-frame check.
    """
    target_id = draw(st.sampled_from(_POOL))
    payloads = draw(st.sampled_from([st.binary(min_size=8, max_size=8), st.binary(max_size=8)]))
    rows = draw(st.lists(st.tuples(st.one_of(st.just(0), st.integers(1, 150_000)),
                                   st.one_of(st.just(target_id), st.sampled_from(_POOL)),
                                   payloads),
                         max_size=40))
    t = 0
    frames = []
    for gap, arb_id, data in rows:
        t += gap
        frames.append(CanFrame(t, arb_id, data))
    return frames, target_id


class TestReplayMatchesWholeCaptureReplay:
    """Feeding only the target rows and merging the rest back changes nothing."""

    @settings(deadline=None, max_examples=300)
    @given(_captures(), st.integers(0, 7), st.sampled_from(["shadow", "tap"]),
           st.one_of(st.integers(1, 2_000), st.integers(1, 400_000)),
           st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(1, 40)),
           st.booleans())
    def test_same_result(self, capture, byte_index, mode, delay_us, ramp, parsed):
        frames, target_id = capture
        trace = CanTrace(frames)
        if parsed:  # a capture read from text is held as columns
            trace = canbus.parse_trace(canbus.serialize_trace(trace))
        start, end, step = ramp
        ramp = (start, end, step if end >= start else -step)
        args = (target_id, byte_index, mode, delay_us)
        got = _outcome(run_replay_injection, trace, ramp, *args)
        want = _outcome(_whole_capture_replay, trace, ramp, *args)
        if isinstance(want, tuple):
            assert got == want
            return
        assert canbus.serialize_trace(got.trace) == canbus.serialize_trace(want.trace)
        assert got.deliveries == want.deliveries
        assert got.dominance == want.dominance
        assert got.injected == want.injected
        assert got.final_speed_mph == want.final_speed_mph
        # frames_on_bus is counted, not read from the merged trace
        assert got.metrics() == want.metrics()
        assert got.frames_on_bus == len(got.trace)
