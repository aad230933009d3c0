"""End-to-end checks of the command-line front end.

Every test drives ``cli.main(argv)`` directly and inspects stdout, so
exit codes and printed numbers are covered without running the command
in a subprocess; ``simulate`` itself forks its state.csv formatter.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from evsim import canbus, cli, follower, lowlevel, recordings, scenario
from evsim.canbus import CanFrame, CanTrace
from evsim.plant import MPH_TO_MPS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestPacket:
    def test_encode_defaults(self, capsys):
        # app=0, bpp=0, steer=0.5 is the rig's resting command
        code, out = run_cli(capsys, "packet")
        assert code == 0
        assert out.strip() == "FA 06 00 00 00 00 80 00 15 88"

    def test_encode_full_throttle(self, capsys):
        code, out = run_cli(capsys, "packet", "--app", "1.0")
        assert code == 0
        assert out.startswith("FA 06 FF FF")

    def test_decode_round_trip(self, capsys):
        _, encoded = run_cli(capsys, "packet", "--steer", "0.5")
        code, out = run_cli(capsys, "packet", "--decode", encoded.strip())
        assert code == 0
        fields = dict(re.findall(r"(\w+) = ([\d.e+-]+)", out))
        assert float(fields["app"]) == 0.0
        assert float(fields["bpp"]) == 0.0
        assert abs(float(fields["steer"]) - 0.5) <= 0.5 / 65535 + 1e-12

    def test_decode_accepts_packed_hex(self, capsys):
        code, out = run_cli(capsys, "packet", "--decode", "FA060000000080001588")
        assert code == 0
        assert "steer" in out

    def test_decode_bad_crc_fails(self, capsys):
        code, out = run_cli(capsys, "packet", "--decode", "FA060000000080001589")
        assert code == 1
        assert "bad frame" in out
        assert "crc" in out.lower()


class TestDesignGains:
    def test_identified_accel_channel(self, capsys):
        code, out = run_cli(capsys, "design-gains", "--tau-car", "7", "--tau-cl", "0.5")
        assert code == 0
        assert "kp = 27.0" in out
        assert "ki = 28.0" in out
        assert "-2" in out  # repeated pole at -2 rad/s
        assert f"b = {14 / 27!r}" in out

    def test_zero_kp_has_no_setpoint_weight(self, capsys):
        code, out = run_cli(capsys, "design-gains", "--tau-car", "0.5", "--tau-cl", "1")
        assert code == 0
        assert "kp = 0.0" in out
        assert "none (kp = 0)" in out

    def test_gains_past_1e154_keep_finite_poles(self, capsys):
        # squaring 1 + kp = 2e200 would overflow; a critically damped pair sits at -1/tau_cl
        code, out = run_cli(capsys, "design-gains", "--tau-car", "1e200", "--tau-cl", "1")
        assert code == 0
        assert "closed-loop poles: -1+0j, -1+0j" in out
        assert "b = 0.5" in out

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(min_value=0.0, exclude_min=True), min_size=3, max_size=3))
    def test_any_positive_spec_prints_finite_numbers_or_one_error(self, spec):
        tau_car, zeta, tau_cl = map(repr, spec)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["design-gains", "--tau-car", tau_car, "--zeta", zeta,
                                 "--tau-cl", tau_cl])
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert not err
            assert out.count("\n") == 4
            assert "nan" not in out and "inf" not in out
        else:
            assert code == 2
            assert not out
            assert err.startswith("evsim: error: ") and err.count("\n") == 1

    def test_requires_both_time_constants(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["design-gains", "--tau-car", "7"])
        assert exc.value.code == 2


class TestMakeOval:
    def test_writes_path_and_scenario(self, tmp_path, capsys):
        path_file = tmp_path / "oval.txt"
        scn_file = tmp_path / "oval.json"
        code, out = run_cli(
            capsys, "make-oval", "--straight", "5", "--radius", "5",
            "--speed", "10mph", "--path", str(path_file),
            "--scenario", str(scn_file), "--laps", "1")
        assert code == 0
        assert "wrote" in out

        path = follower.load_path(path_file)
        scn = scenario.load_scenario(scn_file)
        assert scn.oval.straight_m == 5.0
        assert scn.oval.radius_m == 5.0
        assert scn.oval.speed_mph == pytest.approx(10.0, rel=1e-12)
        expected = round(int(1 * path.period_s / 0.1) * 0.1, 6)
        assert scn.duration_s == expected

    def test_speed_suffix_parsing(self):
        assert cli._parse_speed("10mph") == pytest.approx(4.4704)
        assert cli._parse_speed("4.47mps") == 4.47
        assert cli._parse_speed("8.9408") == 8.9408

    def test_prints_summary_without_files(self, capsys):
        code, out = run_cli(capsys, "make-oval", "--straight", "5",
                            "--radius", "5", "--speed", "10mph")
        assert code == 0
        assert "samples" in out and "lap" in out


class TestSimulate:
    def test_hold_scenario_writes_logs(self, tmp_path, capsys):
        scn_file = tmp_path / "hold.json"
        scenario.save_scenario(
            scenario.Scenario("clihold", 1.0, speed_ref_mph=5.0), scn_file)
        outdir = tmp_path / "logs"
        code, out = run_cli(capsys, "simulate", str(scn_file),
                            "--outdir", str(outdir))
        assert code == 0
        assert "scenario 'clihold': 100 control steps" in out
        assert "final speed" in out
        for name in ("state.csv", "trace.txt", "metrics.json"):
            assert (outdir / name).is_file()


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestSimulateFormatsStateInAChild:
    """evsim simulate formats state.csv in a forked child; the bytes are write_state_csv's."""

    @pytest.mark.parametrize("steps", [1, 1023, 1024, 1025, 2049])
    def test_state_csv_equals_write_state_csv(self, tmp_path, capsys, steps):
        # a JSON integer speed reaches the rows as an int and is written as 20, not 20.0
        scn_file = tmp_path / "hold.json"
        scn_file.write_text(json.dumps({
            "name": "hold", "duration_s": steps / 100, "physics_dt_s": 0.01,
            "control_period_s": 0.01, "speed_ref_mph": 20}))
        outdir = tmp_path / "logs"
        code, out = run_cli(capsys, "simulate", str(scn_file), "--outdir", str(outdir))
        assert code == 0 and f"{steps} control steps" in out
        assert _no_child_left()
        result = scenario.run_scenario(scenario.load_scenario(scn_file))
        expected = io.StringIO(newline="")
        scenario.write_state_csv(expected, result.rows)
        written = (outdir / "state.csv").read_bytes()
        assert written == expected.getvalue().encode("ascii")
        rows = written.decode("ascii").split("\r\n")[1:-1]
        assert len(rows) == steps
        assert all(row.split(",")[10:15] == ["20", "0.0", "", "", ""] for row in rows)

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.tuples(*[st.floats() | st.none() | st.integers(-2**70, 2**70)]
                              * len(scenario.LOG_COLUMNS)), max_size=5),
           st.integers(1, 3))
    def test_formatter_keeps_every_field(self, rows, chunk):
        expected = io.StringIO(newline="")
        scenario.write_state_csv(expected, rows)
        got = io.BytesIO()
        with scenario.StateFormatter() as formatter:
            for i in range(0, len(rows), chunk):
                formatter.send(rows[i:i + chunk])
            formatter.end()
            formatter.write_to(got)
        assert got.getvalue() == expected.getvalue().encode("ascii")
        assert _no_child_left()

    def test_each_chunk_reaches_the_file_before_the_end(self):
        rows = [(k / 3,) * len(scenario.LOG_COLUMNS) for k in range(5)]
        expected = io.StringIO(newline="")
        scenario.write_state_csv(expected, rows)
        want = expected.getvalue().encode("ascii")
        with scenario.StateFormatter() as formatter:
            formatter.send(rows)
            fd = formatter._file.fileno()
            deadline = time.monotonic() + 10.0
            while os.fstat(fd).st_size < len(want) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert os.pread(fd, len(want) + 1, 0) == want
            formatter.end()
            got = io.BytesIO()
            formatter.write_to(got)
        assert got.getvalue() == want
        assert _no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
    def test_a_failed_fork_leaves_no_descriptor_open(self, monkeypatch):
        def failing_fork():
            raise OSError("fork failed")

        monkeypatch.setattr(os, "fork", failing_fork)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="fork failed"):
            scenario.StateFormatter()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_failed_child_is_reported(self, tmp_path, monkeypatch, capsys):
        # the child, forked after the patch, fails at its first chunk, which
        # is all its rows, so the run must not exit 0 nor leave a state.csv
        def slow_failure(rows):
            time.sleep(0.2)
            raise MemoryError

        monkeypatch.setattr(scenario, "_state_lines", slow_failure)
        scn_file = tmp_path / "hold.json"
        scenario.save_scenario(scenario.Scenario("hold", 1.0, speed_ref_mph=5.0), scn_file)
        code = cli.main(["simulate", str(scn_file), "--outdir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "evsim: error: the state.csv formatter exited with status 1\n"
        assert not (tmp_path / "out" / "state.csv").exists()
        assert _no_child_left()

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="waits on the child with waitid")
    def test_a_child_dead_before_the_end_frame_is_reported_by_its_status(
            self, tmp_path, monkeypatch, capsys):
        # the child fails at its first chunk, which is all its rows, and the
        # end frame is written only once it has exited, into a pipe with no
        # reader: its status is reported, not the broken pipe, and no outdir is made
        def failure(rows):
            raise MemoryError

        end = scenario.StateFormatter.end

        def end_after_the_child_exited(formatter):
            os.waitid(os.P_PID, formatter.pid, os.WEXITED | os.WNOWAIT)  # leaves it to reap
            end(formatter)

        monkeypatch.setattr(scenario, "_state_lines", failure)
        monkeypatch.setattr(scenario.StateFormatter, "end", end_after_the_child_exited)
        scn_file = tmp_path / "hold.json"
        scenario.save_scenario(scenario.Scenario("hold", 1.0, speed_ref_mph=5.0), scn_file)
        code = cli.main(["simulate", str(scn_file), "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "evsim: error: the state.csv formatter exited with status 1\n")
        assert not (tmp_path / "out").exists()
        assert _no_child_left()

    def test_failed_run_writes_nothing_and_leaves_no_child(self, tmp_path, capsys):
        argv = TestUserErrors._argv(tmp_path, "overflowing-lqr-weights")
        assert cli.main(argv) == 2
        assert "inf mph" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert _no_child_left()

    @pytest.mark.parametrize("raised", [scenario.ConfigError, KeyboardInterrupt])
    def test_error_after_rows_were_sent_leaves_no_child(self, tmp_path, monkeypatch, capsys,
                                                        raised):
        # the child has formatted two chunks when the run fails
        scn_file = tmp_path / "hold.json"
        scenario.save_scenario(scenario.Scenario("hold", 30.0, speed_ref_mph=5.0), scn_file)
        deadband = lowlevel.deadband_compensate
        calls = []

        def failing(duty):
            calls.append(duty)
            if len(calls) == 2100:
                raise raised("stopped mid-run")
            return deadband(duty)

        monkeypatch.setattr(lowlevel, "deadband_compensate", failing)
        argv = ["simulate", str(scn_file), "--outdir", str(tmp_path / "out")]
        if raised is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        else:
            assert cli.main(argv) == 2
        assert not (tmp_path / "out").exists()
        assert _no_child_left()

    @pytest.mark.parametrize("in_the_way", ["outdir-under-a-file", "trace-is-a-directory"])
    def test_log_write_error_leaves_no_child(self, tmp_path, capsys, in_the_way):
        # mkdir fails before the child gets the end of the rows; trace.txt fails after
        scn_file = tmp_path / "hold.json"
        scenario.save_scenario(scenario.Scenario("hold", 11.0, speed_ref_mph=5.0), scn_file)
        if in_the_way == "outdir-under-a-file":
            (tmp_path / "file").write_text("")
            outdir = tmp_path / "file" / "logs"
        else:
            outdir = tmp_path / "logs"
            (outdir / "trace.txt").mkdir(parents=True)
        code = cli.main(["simulate", str(scn_file), "--outdir", str(outdir)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("evsim: error: ")
        assert not (outdir / "state.csv").exists()
        assert _no_child_left()


def _replay_trace_file(tmp_path, n=10, period_us=100_000):
    frames = [CanFrame(period_us * (k + 1), canbus.THROTTLE_ID, bytes(8))
              for k in range(n)]
    trace_file = tmp_path / "replay.txt"
    canbus.save_trace(CanTrace(frames), trace_file)
    return trace_file


# tiny captures: a few frames on stock and edge ids, of any length, within 0.3 s
_TINY_CAPTURE = st.lists(st.tuples(st.integers(0, 300_000),
                                   st.sampled_from([0x11A, 0x11A, 0x75, 0x10, 0x0, 0x7FF]),
                                   st.sampled_from([8, 8, 8, 0, 1, 4, 7])), max_size=12)
# odd ramps too: a step past the end, and a ramp of one value
_ODD_RAMP = (st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(1, 300))
             .map(lambda r: r if r[1] >= r[0] else (r[0], r[1], -r[2]))
             | st.sampled_from([(0, 255, 255), (7, 7, 1), (255, 0, -1)]))
#: Flags the parser rejects; a draw appends at most one of them, last.
_REJECTED_FLAG = [("--byte", "0"), ("--byte", "9"), ("--id", "800"), ("--delay-us", "0"),
                  ("--ramp", "0:256:1"), ("--ramp", "10:0:1"), ("--ramp", "0:10:0"),
                  ("--duration", "0"), ("--duration", "-0"), ("--duration", "nan"),
                  ("--duration", "inf"), ("--duration", "1e308"),
                  ("--target-period-ms", "0")]
# one draw in four appends a rejected flag, so most reach a run; the simplest appends none
_MAYBE_REJECTED = st.integers(0, 4 * len(_REJECTED_FLAG) - 1).map(
    lambda k: _REJECTED_FLAG[k - 3 * len(_REJECTED_FLAG)] if k >= 3 * len(_REJECTED_FLAG)
    else None)

class TestInject:
    def test_live_shadow_reports_dominance(self, capsys):
        code, out = run_cli(
            capsys, "inject", "--duration", "1.0", "--ramp", "0:200:50",
            "--target-period-ms", "10")
        assert code == 0
        assert "dominance: 39/40 = 0.9750" in out
        assert "injected 99 frames" in out  # the 100th falls due after the last tick
        assert "broadcast speed:" in out

    def test_live_tap_injects_nothing(self, capsys):
        code, out = run_cli(capsys, "inject", "--duration", "0.5",
                            "--ramp", "64:64:1", "--mode", "tap")
        assert code == 0
        assert "injected 0 frames" in out
        assert "dominance" not in out

    def test_replay_writes_output_trace(self, tmp_path, capsys):
        trace_file = _replay_trace_file(tmp_path)
        out_file = tmp_path / "forged.txt"
        code, out = run_cli(capsys, "inject", "--trace", str(trace_file),
                            "--ramp", "0:250:50", "--out", str(out_file))
        assert code == 0
        assert "injected 10 frames" in out
        assert f"wrote {out_file}" in out

        merged = canbus.load_trace(out_file)
        assert len(merged) == 20  # 10 genuine + 10 forged
        forged_bytes = [f.data[canbus.THROTTLE_BYTE_INDEX] for f in merged][1::2]
        assert forged_bytes == [0, 50, 100, 150, 200, 250, 250, 250, 250, 250]

    def test_replay_with_sub_millisecond_timestamps(self, tmp_path, capsys):
        # the forged copy of the 1500 us command falls due at 1750 us, between
        # rig ticks and before the 1900 us speed frame
        trace_file = tmp_path / "sub_ms.txt"
        trace_file.write_text("1500 11A 8 00 00 00 10 00 00 00 00\n1900 75 0\n"
                              "101500 11A 8 00 00 00 10 00 00 00 00\n101900 75 0\n")
        code, out = run_cli(capsys, "inject", "--trace", str(trace_file), "--ramp", "0:10:1")
        assert code == 0
        assert "injected 2 frames" in out
        assert "dominance: 399/400" in out

    def test_live_target_without_stock_payload(self):
        args = cli.build_parser().parse_args(
            ["inject", "--duration", "1", "--id", "300", "--target-period-ms", "10",
             "--ramp", "0:10:1"])
        with pytest.raises(scenario.ConfigError, match="0x300"):
            args.fn(args)

    def test_trace_and_duration_are_exclusive(self, tmp_path):
        trace_file = _replay_trace_file(tmp_path, n=1)
        with pytest.raises(SystemExit) as exc:
            cli.main(["inject", "--trace", str(trace_file),
                      "--duration", "1", "--ramp", "0:1:1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("ramp", ["0:5", "a:b:c", "1:2:3:4"])
    def test_bad_ramp_rejected(self, ramp):
        with pytest.raises(SystemExit) as exc:
            cli.main(["inject", "--duration", "1", "--ramp", ramp])
        assert exc.value.code == 2

    @pytest.mark.parametrize("byte", ["0", "9"])
    def test_byte_position_bounds(self, byte):
        with pytest.raises(SystemExit) as exc:
            cli.main(["inject", "--duration", "1", "--ramp", "0:1:1",
                      "--byte", byte])
        assert exc.value.code == 2

    @settings(deadline=None, max_examples=120)
    @given(mode=st.sampled_from(["live", "shadow", "tap"]),
           arb_id=st.sampled_from([0x11A, 0x11A, 0x11A, 0x75, 0x10, 0x7D, 0x204, 0x0, 0x7FF]),
           byte=st.integers(1, 8), ramp=_ODD_RAMP,
           delay=st.sampled_from([None, "1", "250", "9999", str(10**18)]),
           duration=st.sampled_from(["0.5", "0.25", "0.05", "0.001", "0.0004", "5e-324"]),
           period=st.sampled_from([None, "1", "10", "100", str(10**9)]),
           capture=_TINY_CAPTURE, out=st.booleans(), rejected=_MAYBE_REJECTED)
    def test_any_argument_vector_reports_finite_numbers_or_one_error(
            self, mode, arb_id, byte, ramp, delay, duration, period, capture, out, rejected):
        # exit 0 with finite numbers and an --out trace of frames_on_bus rows,
        # or exit 2 with one line and nothing written
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["inject", "--id", f"{arb_id:X}", "--byte", str(byte),
                    "--ramp", ":".join(map(str, ramp))]
            if mode == "live":
                argv += ["--duration", duration]
                if period is not None:
                    argv += ["--target-period-ms", period]
            else:
                path = os.path.join(tmp, "capture.txt")
                canbus.save_trace(CanTrace([CanFrame(t, i, bytes(range(n)))
                                            for t, i, n in sorted(capture)]), path)
                argv += ["--trace", path, "--mode", mode]
            if delay is not None:
                argv += ["--delay-us", delay]
            if rejected is not None:
                argv += rejected
            out_path = os.path.join(tmp, "out.txt")
            if out:
                argv += ["--out", out_path]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            stdout, stderr = stdout.getvalue(), stderr.getvalue()
            if code == 0:
                assert not stderr
                report = stdout.replace(out_path, "")
                assert not re.search(r"\b(nan|inf)\b", report, re.IGNORECASE), stdout
                on_bus = int(re.search(r"\((\d+) total on the bus\)", stdout)[1])
                if out:
                    assert len(canbus.load_trace(out_path)) == on_bus
            else:
                assert code == 2, (code, stderr)
                assert not stdout
                assert stderr.startswith("evsim: error: ") and stderr.count("\n") == 1, stderr
                assert not os.path.exists(out_path)


class TestIsolate:
    def test_builtin_capture(self, capsys):
        code, out = run_cli(capsys, "isolate")
        assert code == 0
        assert "built-in pedal-press capture" in out
        assert "control id: 0x11A" in out
        assert "over 102 candidate ids" in out
        assert "confirmed alone: True" in out
        calls = int(re.search(r"oracle calls: (\d+)", out).group(1))
        assert calls <= 9  # budget 8 plus the confirmation replay

    def test_no_confirm_stays_in_budget(self, capsys):
        code, out = run_cli(capsys, "isolate", "--no-confirm")
        assert code == 0
        assert "confirmed alone: False" in out
        calls = int(re.search(r"oracle calls: (\d+)", out).group(1))
        assert calls <= 8

    def test_saved_capture_reports_as_the_builtin(self, tmp_path, capsys):
        press = tmp_path / "press.txt"
        canbus.save_trace(recordings.press_recording(), press)
        code, saved = run_cli(capsys, "isolate", "--trace", str(press))
        assert code == 0
        code, builtin = run_cli(capsys, "isolate")
        assert code == 0
        first, *rest = builtin.splitlines()
        assert first == "no trace given; using the built-in pedal-press capture"
        assert saved.splitlines() == rest

    def test_trace_without_effect_fails(self, tmp_path, capsys):
        frames = [CanFrame(10_000 * (k + 1), canbus.STEERING_ID, bytes(8))
                  for k in range(5)]
        trace_file = tmp_path / "inert.txt"
        canbus.save_trace(CanTrace(frames), trace_file)
        code, out = run_cli(capsys, "isolate", "--trace", str(trace_file))
        assert code == 1
        assert "no effect" in out


def _correlation_trace_file(tmp_path, speed_id=canbus.SPEED_ID):
    frames = []
    for t, v in ((0, 0.0), (10, 10.0), (20, 20.0)):
        base = canbus.encode_speed(v, timestamp_us=t)
        frames.append(CanFrame(t, speed_id, base.data))
    for k, t in enumerate((5, 15, 25)):
        data = bytes([10 * k, 20 - 10 * k, 7, 0, 0, 0, 0, 0])
        frames.append(CanFrame(t, 0x200, data))
    frames.sort(key=lambda f: f.timestamp_us)
    trace_file = tmp_path / "capture.txt"
    canbus.save_trace(CanTrace(frames), trace_file)
    return trace_file


class TestCorrelate:
    def test_table_uses_one_indexed_bytes(self, tmp_path, capsys):
        trace_file = _correlation_trace_file(tmp_path)
        code, out = run_cli(capsys, "correlate", "--trace", str(trace_file))
        assert code == 0
        assert "speed reference 0x75: 3 samples" in out
        assert re.search(r"^\s*1\s+200\s+1\s+\+1\.0000\s+3$", out, re.M)
        assert re.search(r"^\s*2\s+200\s+2\s+-1\.0000\s+3$", out, re.M)
        assert "(2 ranked, 6 excluded)" in out

    def test_top_limits_rows(self, tmp_path, capsys):
        trace_file = _correlation_trace_file(tmp_path)
        code, out = run_cli(capsys, "correlate", "--trace", str(trace_file),
                            "--top", "1")
        assert code == 0
        assert "+1.0000" in out
        assert "-1.0000" not in out

    def test_signed_flag_runs(self, tmp_path, capsys):
        trace_file = _correlation_trace_file(tmp_path)
        code, out = run_cli(capsys, "correlate", "--trace", str(trace_file),
                            "--signed")
        assert code == 0
        assert re.search(r"^\s*1\s+200\s+1\s+\+1\.0000", out, re.M)

    def test_custom_speed_id(self, tmp_path, capsys):
        trace_file = _correlation_trace_file(tmp_path, speed_id=0x99)
        code, out = run_cli(capsys, "correlate", "--trace", str(trace_file),
                            "--speed-id", "99")
        assert code == 0
        assert "speed reference 0x99:" in out

    def test_byte_under_a_held_speed_is_excluded_not_nan(self, tmp_path, capsys):
        frames = [canbus.encode_speed(v, timestamp_us=t)
                  for t, v in ((0, 0.0), (10, 0.0), (20, 5.0))]
        frames += [CanFrame(1, 0x20, b"\x01"), CanFrame(2, 0x20, b"\x02")]
        trace_file = tmp_path / "held.txt"
        canbus.save_trace(CanTrace(sorted(frames, key=lambda f: f.timestamp_us)), trace_file)
        code, out = run_cli(capsys, "correlate", "--trace", str(trace_file))
        assert code == 0
        assert "nan" not in out
        assert "(0 ranked, 8 excluded)" in out

    def test_trace_is_required(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["correlate"])
        assert exc.value.code == 2


class TestUserErrors:
    """Bad input ends in one line on stderr and exit code 2, not a traceback."""

    @staticmethod
    def _argv(tmp_path, case):
        if case == "tiny-scenario":
            scn = tmp_path / "tiny.json"
            scn.write_text(json.dumps({"duration_s": 0.005, "oval": {}}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "malformed-trace":
            trace = tmp_path / "bad.txt"
            trace.write_text("0.000100 075 2 00\n")
            return ["correlate", "--trace", str(trace)]
        if case == "missing-trace":
            return ["isolate", "--trace", str(tmp_path / "absent.txt")]
        if case == "empty-trace":
            trace = tmp_path / "empty.txt"
            trace.write_text("")
            return ["isolate", "--trace", str(trace)]
        if case == "speed-only-trace":
            trace = tmp_path / "speed.txt"
            canbus.save_trace(CanTrace([canbus.encode_speed(10.0)]), trace)
            return ["correlate", "--trace", str(trace)]
        if case in ("malformed-path-file", "backwards-path-file"):
            path = tmp_path / "path.txt"
            path.write_text("0 0 0 1 0\n0.1 0 0 1\n" if case == "malformed-path-file"
                            else "0 0 0 1 0\n0.1 0 0 1 0\n0.05 0 0 1 0\n")
            scn = tmp_path / "path.json"
            scn.write_text(json.dumps({"duration_s": 1.0, "path_file": str(path)}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "nan-path-file":
            path = tmp_path / "path.txt"
            path.write_text("0 0 0 1 0\n0.1 nan 0 1 0\n")
            scn = tmp_path / "path.json"
            scn.write_text(json.dumps({"duration_s": 1.0, "path_file": str(path)}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "negative-preview-scenario":
            scn = tmp_path / "preview.json"
            scn.write_text(json.dumps({"duration_s": 1.0, "oval": {}, "preview_s": -5}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "endless-preview-scenario":  # sample_at's int(inf) raised OverflowError
            scn = tmp_path / "preview.json"
            scn.write_text(json.dumps({"duration_s": 0.05, "oval": {
                "straight_m": 1e-12, "radius_m": 1, "speed_mph": 1}, "preview_s": 1.7e308}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "too-fast-oval-scenario":  # logged "mean_err_m": Infinity
            scn = tmp_path / "fast.json"
            scn.write_text(json.dumps({"duration_s": 2, "oval": {
                "straight_m": 1e300, "radius_m": 1, "speed_mph": 1.7e308}}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "too-fast-path-file":  # logged inf speed references
            path = tmp_path / "path.txt"
            path.write_text("0 0 0 1e308 1e308\n0.1 0 0 1e308 1e308\n")
            scn = tmp_path / "path.json"
            scn.write_text(json.dumps({"duration_s": 1.0, "path_file": str(path)}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "far-path-file":  # logged inf speed references and "mean_err_m": Infinity
            path = tmp_path / "path.txt"
            path.write_text("0 1e308 1e308 1 0\n0.1 1e308 1e308 1 0\n")
            scn = tmp_path / "path.json"
            scn.write_text(json.dumps({"duration_s": 1.0, "path_file": str(path)}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "overflowing-lqr-weights":  # logged inf speed references
            scn = tmp_path / "weights.json"
            scn.write_text(json.dumps({"duration_s": 5, "oval": {}, "q": 1e308, "r": 1e-308}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "endless-oval-scenario":
            scn = tmp_path / "endless.json"
            scn.write_text(json.dumps({"duration_s": 1.0, "oval": {
                "straight_m": 1e308, "radius_m": 1, "speed_mph": 1}}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case in ("escaping-name-scenario", "dot-name-scenario"):  # wrote ./escaped or out/
            scn = tmp_path / "named.json"
            name = "../escaped" if case == "escaping-name-scenario" else "."
            scn.write_text(json.dumps({"name": name, "duration_s": 1.0, "speed_ref_mph": 5}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "endless-oval":
            return ["make-oval", "--straight", "1e308"]
        if case in ("float-overflowing-laps", "infinite-laps"):  # raised OverflowError
            laps = "1" + "0" * (400 if case == "float-overflowing-laps" else 307)
            return ["make-oval", "--scenario", str(tmp_path / "laps.json"), "--laps", laps]
        if case == "live-delay-not-shorter-than-period":
            return ["inject", "--duration", "1", "--ramp", "0:10:1", "--delay-us", "100000"]
        if case == "live-non-stock-id":
            return ["inject", "--duration", "1", "--ramp", "0:10:1", "--id", "300"]
        if case == "live-sub-tick-run":
            return ["inject", "--duration", "0.0004", "--ramp", "0:10:1"]
        if case == "replay-target-period":
            return ["inject", "--trace", str(_replay_trace_file(tmp_path)),
                    "--ramp", "0:10:1", "--target-period-ms", "10"]
        if case in ("replay-absent-id-shadow", "replay-absent-id-tap"):
            return ["inject", "--trace", str(_replay_trace_file(tmp_path)), "--ramp", "0:10:1",
                    "--id", "7FF", "--mode", case.rsplit("-", 1)[1]]
        if case == "replay-delay-not-shorter-than-period":
            return ["inject", "--trace", str(_replay_trace_file(tmp_path)),
                    "--ramp", "0:10:1", "--delay-us", "100000"]
        if case == "day-long-scenario":
            scn = tmp_path / "long.json"
            scn.write_text(json.dumps({"duration_s": 1e300, "speed_ref_mph": 10.0}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "day-long-fine-tick-scenario":
            scn = tmp_path / "fine.json"
            scn.write_text(json.dumps({"duration_s": 86_400, "physics_dt_s": 1e-6,
                                       "control_period_s": 1e-5, "follower_period_s": 1e-4,
                                       "speed_ref_mph": 10.0}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "slow-oval-scenario":
            scn = tmp_path / "slow.json"
            scn.write_text(json.dumps({"duration_s": 1.0, "oval": {"speed_mph": 1e-9}}))
            return ["simulate", str(scn), "--outdir", str(tmp_path / "out")]
        if case == "slow-oval":
            return ["make-oval", "--speed", "1e-6"]
        if case == "non-ascii-trace":
            trace = tmp_path / "latin.txt"
            trace.write_bytes(b"0 75 0\n10 75 1 \xc3\xa9\n")
            return ["correlate", "--trace", str(trace)]
        if case == "short-speed-frame":
            trace = tmp_path / "short.txt"
            trace.write_text("0 75 2 B0 D4\n5 200 1 07\n")
            return ["correlate", "--trace", str(trace)]
        if case == "past-int64-trace":
            trace = tmp_path / "far.txt"
            trace.write_text("0 75 8 00 00 00 00 00 00 B0 D4\n5 200 1 07\n"
                             "99999999999999999999 75 8 00 00 00 00 00 00 B0 D5\n")
            return ["correlate", "--trace", str(trace)]
        if case in ("short-shadow-target", "short-tap-target"):
            trace = tmp_path / "short.txt"
            trace.write_text("100000 11A 8 00 00 00 10 00 00 00 00\n200000 11A 2 00 00\n"
                             "300000 11A 8 00 00 00 10 00 00 00 00\n")
            mode = "shadow" if case == "short-shadow-target" else "tap"
            return ["inject", "--trace", str(trace), "--ramp", "0:10:1", "--mode", mode]
        if case in ("far-capture-inject", "far-capture-isolate"):
            trace = tmp_path / "far.txt"
            trace.write_text("0 11A 8 00 00 00 10 00 00 00 00\n"
                             "1000000000000000 11A 8 00 00 00 10 00 00 00 00\n")
            if case == "far-capture-inject":
                return ["inject", "--trace", str(trace), "--ramp", "0:10:1"]
            return ["isolate", "--trace", str(trace)]
        if case == "overflowing-gains":
            return ["design-gains", "--tau-car", "1e200", "--tau-cl", "1e-200"]
        if case == "finite-gains-overflowing-poles":
            return ["design-gains", "--tau-car", "1e-30", "--zeta", "1e300",
                    "--tau-cl", "1e-310"]
        if case == "underflowing-ki":  # ki = tau_car / tau_cl**2 is about 5e-600
            return ["design-gains", "--tau-car", "5", "--tau-cl", "1e300"]
        return ["packet", "--decode", "zz"]

    @pytest.mark.parametrize("case", ["tiny-scenario", "malformed-trace",
                                      "missing-trace", "non-hex-packet", "empty-trace",
                                      "speed-only-trace", "malformed-path-file",
                                      "backwards-path-file", "endless-oval-scenario",
                                      "endless-oval", "live-delay-not-shorter-than-period",
                                      "replay-delay-not-shorter-than-period",
                                      "day-long-scenario", "slow-oval-scenario", "slow-oval",
                                      "far-capture-inject", "far-capture-isolate",
                                      "day-long-fine-tick-scenario", "non-ascii-trace",
                                      "short-speed-frame", "short-shadow-target",
                                      "short-tap-target", "past-int64-trace",
                                      "nan-path-file", "negative-preview-scenario",
                                      "live-non-stock-id", "overflowing-gains",
                                      "finite-gains-overflowing-poles", "live-sub-tick-run",
                                      "replay-target-period", "underflowing-ki",
                                      "endless-preview-scenario", "too-fast-oval-scenario",
                                      "too-fast-path-file", "far-path-file",
                                      "overflowing-lqr-weights", "escaping-name-scenario",
                                      "dot-name-scenario", "replay-absent-id-shadow",
                                      "replay-absent-id-tap", "float-overflowing-laps",
                                      "infinite-laps"])
    def test_one_line_and_exit_2(self, tmp_path, capsys, case):
        code = cli.main(self._argv(tmp_path, case))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("evsim: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out
        assert self._NAMED.get(case, "") in captured.err

    #: What the message of some cases must name.
    _NAMED = {
        "non-ascii-trace": "line 2: non-ASCII byte 0xC3",
        "short-speed-frame": "speed frame needs 8 bytes, got 2",
        "short-shadow-target": "0x11A frame at 200000 us has 2 data bytes, too short for byte 4",
        "short-tap-target": "0x11A frame at 200000 us has 2 data bytes, too short for byte 4",
        "past-int64-trace": "line 3: timestamp 99999999999999999999 does not fit 64 bits",
        "nan-path-file": "line 2: a value is not finite",
        "negative-preview-scenario": "preview_s must be non-negative, got -5",
        "endless-preview-scenario": "preview_s 1.7e+308 s is too long: the limit is 86400 s",
        "too-fast-oval-scenario": "oval.speed_mph 1.7e+308 is above the 375.3 mph",
        "too-fast-path-file": "the speed at t = 0 s is above the 375.3 mph",
        "far-path-file": "the position at t = 0 s is more than 1e+09 m from the origin",
        "overflowing-lqr-weights": "the follower's speed command at t = 0.1 s is inf mph",
        "escaping-name-scenario": "name must be one plain directory name",
        "dot-name-scenario": "name must be one plain directory name",
        "live-non-stock-id": "target id 0x300 is not a scheduled stock broadcast id",
        "overflowing-gains": "kp = inf, ki = inf",
        "finite-gains-overflowing-poles": "poles overflow for kp = 2.0000000000000065e+280",
        "underflowing-ki": "ki underflows to 0.0",
        "live-sub-tick-run": "duration 0.0004 s is shorter than one 1 ms rig tick",
        "replay-target-period": "--target-period-ms applies to a live run",
        "replay-absent-id-shadow": "target id 0x7FF has no frame in the capture",
        "replay-absent-id-tap": "target id 0x7FF has no frame in the capture",
        "float-overflowing-laps": "--laps gives a run too long: the limit is 86400 s",
        "infinite-laps": "--laps gives a run too long: the limit is 86400 s",
    }

    @pytest.mark.parametrize("case", ["float-overflowing-laps", "infinite-laps"])
    def test_laps_too_many_for_a_float_write_nothing(self, tmp_path, capsys, case):
        assert cli.main(self._argv(tmp_path, case)) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["design-gains", "--tau-car", "0", "--tau-cl", "1"],
        ["design-gains", "--tau-car", "-1", "--tau-cl", "1"],
        ["design-gains", "--tau-car", "7", "--tau-cl", "0"],
        ["design-gains", "--tau-car", "7", "--tau-cl", "1", "--zeta", "0"],
        ["design-gains", "--tau-car", "nan", "--tau-cl", "1"],
        ["make-oval", "--speed", "abc"],
        ["make-oval", "--speed", "0mph"],
        ["make-oval", "--radius", "-1"],
        ["make-oval", "--straight", "-1"],
        ["make-oval", "--laps", "0", "--scenario", "x.json"],
        ["packet", "--app", "2"],
        ["packet", "--steer", "-0.1"],
        ["inject", "--duration", "1", "--ramp", "0:300:1"],
        ["inject", "--duration", "1", "--ramp", "0:10:-1"],
        ["inject", "--duration", "1", "--ramp", "0:10:0"],
        ["inject", "--duration", "1", "--ramp", "0:10:1", "--delay-us", "0"],
        ["inject", "--duration", "-1", "--ramp", "0:10:1"],
        ["inject", "--duration", "1", "--ramp", "0:10:1", "--target-period-ms", "0"],
        ["inject", "--duration", "1", "--ramp", "0:10:1", "--id", "800"],
        ["inject", "--duration", "1", "--ramp", "0:10:1", "--id", "300",
         "--target-period-ms", "10"],
        ["correlate", "--trace", "capture.txt", "--top", "0"],
        ["correlate", "--trace", "capture.txt", "--top", "-28"],
        ["correlate", "--trace", "capture.txt", "--top", "-3"],
        ["inject", "--duration", "1e306", "--ramp", "0:10:1"],
        ["inject", "--duration", "1e300", "--ramp", "0:10:1"],
        ["inject", "--duration", "86400.5", "--ramp", "0:10:1"],
    ])
    def test_out_of_range_argument_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("evsim: error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("speed, message", [
        ("400mph", "argument --speed: must be at most 375.3 mph, the most the speed broadcast "
                   "carries, got '400mph'"),
        ("1e308", "argument --speed: must be at most 375.3 mph, the most the speed broadcast "
                  "carries, got '1e308'"),  # m/s; inf in mph
    ])
    def test_make_oval_rejects_a_speed_the_broadcast_cannot_carry(self, tmp_path, capsys,
                                                                  speed, message):
        # the path file would be one that simulate then rejects; the error names
        # the flag and the text typed
        path = tmp_path / "p.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["make-oval", "--speed", speed, "--path", str(path)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.err == f"evsim: error: {message}\n"
        assert captured.out == ""
        assert not path.exists()

    def test_make_oval_takes_the_top_speed_the_broadcast_carries(self):
        args = cli.build_parser().parse_args(["make-oval", "--speed", "375.3mph"])
        assert args.speed == pytest.approx(375.3 * MPH_TO_MPS)

    def test_make_oval_rejects_before_writing(self, tmp_path, capsys):
        scn, path = tmp_path / "s.json", tmp_path / "p.txt"
        code = cli.main(["make-oval", "--laps", "100000", "--scenario", str(scn),
                         "--path", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("evsim: error: duration ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not scn.exists() and not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["inject", "--duration", "1", "--ramp", "0:10:1", "--id", "zz"],
         "argument --id: not a hex number: 'zz'"),
        (["correlate", "--trace", "capture.txt", "--speed-id", "zz"],
         "argument --speed-id: not a hex number: 'zz'"),
        (["inject", "--duration", "1", "--ramp", "0:10:1", "--byte", "x"],
         "argument --byte: not an integer: 'x'"),
    ])
    def test_unreadable_number_names_the_argument_only(self, capsys, argv, message):
        # not argparse's "invalid _hex_id value", which names a private function
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"evsim: error: {message}\n"

    def test_day_long_live_run_accepted(self):
        args = cli.build_parser().parse_args(
            ["inject", "--duration", "86400", "--ramp", "0:10:1"])
        assert args.duration == scenario.MAX_RUN_S


class TestParser:
    def test_no_command_is_an_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_command_is_an_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
