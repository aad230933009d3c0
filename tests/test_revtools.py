import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evsim import canbus, recordings, revtools
from evsim.canbus import CanFrame, CanTrace
from evsim.revtools import (
    AmbiguousError,
    EmptyTraceError,
    NoEffectError,
    correlate_bytes,
    isolate_control_id,
    isolation_budget,
)


def _membership_trace(ids):
    return CanTrace([CanFrame(k, arb_id, b"\x00")
                     for k, arb_id in enumerate(ids)])


class TestIsolationBudget:
    def test_known_values(self):
        assert isolation_budget(1) == 1
        assert isolation_budget(2) == 2
        assert isolation_budget(3) == 3
        assert isolation_budget(102) == 8
        assert isolation_budget(128) == 8
        assert isolation_budget(129) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            isolation_budget(0)


class TestIsolateControlId:
    def test_randomized_instances_stay_in_budget(self):
        rng = random.Random(321)
        for _ in range(200):
            n = rng.randint(1, 128)
            ids = rng.sample(range(2, 2 + 500), n)
            target = rng.choice(ids)
            trace = _membership_trace(ids)
            result = isolate_control_id(
                trace, lambda tr: target in tr.ids())
            assert result.arb_id == target
            assert result.oracle_calls <= isolation_budget(n)

    def test_power_of_two_paths_all_cost_the_budget(self):
        # even splits leave no shortcut: every target costs exactly the
        # worst case
        ids = list(range(1, 17))
        trace = _membership_trace(ids)
        for target in ids:
            result = isolate_control_id(trace, lambda tr: target in tr.ids())
            assert result.oracle_calls == isolation_budget(16) == 5

    def test_single_candidate(self):
        trace = _membership_trace([0x42])
        result = isolate_control_id(trace, lambda tr: 0x42 in tr.ids())
        assert result == result.__class__(0x42, 1, True)

    def test_no_effect(self):
        with pytest.raises(NoEffectError):
            isolate_control_id(_membership_trace([1, 2, 3]), lambda tr: False)

    def test_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            isolate_control_id(CanTrace([]), lambda tr: True)

    def test_subset_keeps_timestamps(self):
        trace = CanTrace([CanFrame(100, 0x10, b""),
                          CanFrame(250, 0x20, b"")])
        seen = []

        def oracle(tr):
            seen.append([f.timestamp_us for f in tr])
            return 0x20 in tr.ids()

        isolate_control_id(trace, oracle)
        assert seen[0] == [100, 250]  # full replay first, times preserved

    def test_confirm_charges_one_extra_call(self):
        ids = list(range(1, 9))
        trace = _membership_trace(ids)
        plain = isolate_control_id(trace, lambda tr: 8 in tr.ids())
        confirmed = isolate_control_id(trace, lambda tr: 8 in tr.ids(),
                                       confirm=True)
        # id 8 is always in an inferred (untested) half, so confirm re-probes
        assert plain.confirmed is False
        assert confirmed.confirmed is True
        assert confirmed.oracle_calls == plain.oracle_calls + 1

    def test_confirm_free_when_last_probe_was_singleton(self):
        ids = list(range(1, 9))
        trace = _membership_trace(ids)
        result = isolate_control_id(trace, lambda tr: 1 in tr.ids(),
                                    confirm=True)
        # id 1 sits in every probed first half down to a singleton probe
        assert result.confirmed is True
        assert result.oracle_calls == isolation_budget(8)

    def test_coupled_ids_raise_with_confirm(self):
        ids = [1, 2, 3, 4]
        trace = _membership_trace(ids)

        def coupled(tr):  # effect needs both 1 and 2 on the bus
            present = set(tr.ids())
            return {1, 2} <= present

        with pytest.raises(AmbiguousError):
            isolate_control_id(trace, coupled, confirm=True)

    def test_coupled_ids_silent_without_confirm(self):
        # the blind spot: an inferred half can be wrong when ids only act
        # together; without confirm the result is returned unconfirmed
        trace = _membership_trace([1, 2, 3, 4])
        result = isolate_control_id(
            trace, lambda tr: {1, 2} <= set(tr.ids()))
        assert result.confirmed is False


def _speed_frames(pairs):
    return [canbus.encode_speed(v, timestamp_us=t) for t, v in pairs]


def byte_matrix_per_frame(frames):
    """Reference: the per-frame loop that CanTrace.columns() replaced."""
    data = np.zeros((len(frames), 8), dtype=np.float64)
    for i, f in enumerate(frames):
        data[i, :f.dlc] = list(f.data)
    return data


def correlate_bytes_by_id(trace, speed_id=canbus.SPEED_ID, signed=False):
    """Reference: the by_id implementation correlate_bytes replaced.

    Frames are grouped per id in lists (the removed CanTrace.by_id), each
    speed frame goes through canbus.decode_speed, and each id's payloads
    through the per-frame loop.
    """
    by_id = {}
    for f in trace:
        by_id.setdefault(f.arbitration_id, []).append(f)
    speed_frames = by_id.pop(speed_id, None)
    if not speed_frames:
        raise EmptyTraceError(f"no frames of the speed id 0x{speed_id:X} in the trace")
    if not by_id:
        raise EmptyTraceError("no candidate ids besides the speed reference")
    speed_t = np.array([f.timestamp_us for f in speed_frames], dtype=np.int64)
    speed_v = np.array([canbus.decode_speed(f, speed_id) for f in speed_frames])
    flat_speed = bool(np.all(speed_v == speed_v[0]))
    ranked = []
    excluded = []
    for arb_id, frames in by_id.items():
        t = np.array([f.timestamp_us for f in frames], dtype=np.int64)
        data = byte_matrix_per_frame(frames)
        idx = np.clip(np.searchsorted(speed_t, t, side="right") - 1, 0, len(speed_t) - 1)
        v = speed_v[idx]
        for b in range(8):
            series = data[:, b]
            if np.all(series == series[0]):
                excluded.append((arb_id, b, "constant byte"))
            elif flat_speed:
                excluded.append((arb_id, b, "speed reference is constant"))
            elif np.all(v == v[0]):
                excluded.append((arb_id, b, "speed constant over this id's frames"))
            else:
                r = float(np.corrcoef(series, v)[0, 1])
                ranked.append(revtools.ByteCorrelation(arb_id, b, r, len(frames), rank=0))
    if signed:
        ranked.sort(key=lambda c: (-c.r, c.arb_id, c.byte_index))
    else:
        ranked.sort(key=lambda c: (-abs(c.r), c.arb_id, c.byte_index))
    ranked = [revtools.ByteCorrelation(c.arb_id, c.byte_index, c.r, c.n_samples, i + 1)
              for i, c in enumerate(ranked)]
    return revtools.CorrelationReport(speed_id, len(speed_frames), tuple(ranked),
                                      tuple(excluded))


def _report_outcome(correlate, trace, signed):
    # repr compares every r bit for bit
    try:
        return repr(correlate(trace, signed=signed))
    except (EmptyTraceError, canbus.ShortFrameError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _speed_traces(draw):
    """Traces over few ids with ties, dlc 0-8 and few byte values.

    One id in the draw is the speed broadcast; a trace may hold a flat
    speed, a short speed frame, or no speed frame at all.
    """
    speeds = draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=3))
    t = 0
    frames = []
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.integers(0, 3))
        arb_id = draw(st.sampled_from([0x10, canbus.SPEED_ID, 0x200, 0x7FF]))
        if arb_id == canbus.SPEED_ID and draw(st.integers(0, 15)):
            raw = draw(st.sampled_from(speeds))
            data = draw(st.binary(min_size=6, max_size=6)) + raw.to_bytes(2, "big")
        else:
            data = bytes(draw(st.lists(st.sampled_from([0, 1, 255]), max_size=8)))
        frames.append(CanFrame(t, arb_id, data))
    return CanTrace(frames)


class TestCorrelateBytes:
    def test_byte_matrix_matches_per_frame_loop(self):
        rng = random.Random(3)
        frames = [CanFrame(k, 0x200, rng.randbytes(rng.randrange(9))) for k in range(200)]
        _, _, dlc, matrix = CanTrace(frames).columns()
        assert matrix.dtype == dlc.dtype == np.uint8
        assert np.array_equal(matrix, byte_matrix_per_frame(frames))
        assert dlc.tolist() == [f.dlc for f in frames]
        full = [CanFrame(k, 0x200, rng.randbytes(8)) for k in range(20)]
        _, _, dlc, matrix = CanTrace(full).columns()
        assert dlc.tolist() == [8] * 20
        assert np.array_equal(matrix, byte_matrix_per_frame(full))

    @settings(deadline=None, max_examples=300)
    @given(_speed_traces(), st.booleans())
    def test_matches_by_id_reference(self, trace, signed):
        # the same report bit for bit, or the same EmptyTraceError or ShortFrameError
        assert (_report_outcome(correlate_bytes, trace, signed)
                == _report_outcome(correlate_bytes_by_id, trace, signed))

    def test_matches_by_id_reference_on_the_correlation_capture(self, rec):
        trace, _ = rec
        for signed in (False, True):
            assert (_report_outcome(correlate_bytes, trace, signed)
                    == _report_outcome(correlate_bytes_by_id, trace, signed))

    def _linear_trace(self):
        frames = _speed_frames([(0, 0.0), (10, 10.0), (20, 20.0)])
        for k, t in enumerate((5, 15, 25)):
            data = bytes([10 * k, 20 - 10 * k, 7, 0, 0, 0, 0, 0])
            frames.append(CanFrame(t, 0x200, data))
        frames.sort(key=lambda f: f.timestamp_us)
        return CanTrace(frames)

    def test_perfect_positive_and_negative(self):
        report = correlate_bytes(self._linear_trace())
        by_byte = {(c.arb_id, c.byte_index): c.r for c in report.ranked}
        assert by_byte[(0x200, 0)] == pytest.approx(1.0)
        assert by_byte[(0x200, 1)] == pytest.approx(-1.0)

    def test_absolute_ranking_with_tie_break(self):
        report = correlate_bytes(self._linear_trace())
        assert [(c.byte_index, c.rank) for c in report.ranked] == [(0, 1), (1, 2)]

    def test_signed_ranking(self):
        report = correlate_bytes(self._linear_trace(), signed=True)
        assert report.ranked[0].byte_index == 0
        assert report.ranked[-1].r == pytest.approx(-1.0)

    def test_constant_bytes_excluded_with_reason(self):
        report = correlate_bytes(self._linear_trace())
        reasons = {(i, b): why for i, b, why in report.excluded}
        assert reasons[(0x200, 2)] == "constant byte"
        assert reasons[(0x200, 7)] == "constant byte"  # zero-padded too

    def test_ranked_plus_excluded_covers_everything(self):
        report = correlate_bytes(self._linear_trace())
        assert len(report.ranked) + len(report.excluded) == 8

    def test_flat_speed_excludes_all(self):
        frames = _speed_frames([(0, 5.0), (10, 5.0)])
        frames.append(CanFrame(5, 0x200, bytes([1])))
        frames.append(CanFrame(15, 0x200, bytes([9])))  # varying byte
        frames.sort(key=lambda f: f.timestamp_us)
        report = correlate_bytes(CanTrace(frames))
        assert report.ranked == ()
        reasons = {(i, b): why for i, b, why in report.excluded}
        assert reasons[(0x200, 0)] == "speed reference is constant"

    def test_speed_held_over_one_ids_frames_excludes_its_bytes(self):
        # 0x20's frames both see the 0 mph broadcast at 0 us; corrcoef of a
        # constant series is nan, so the byte is reported, not ranked
        frames = _speed_frames([(0, 0.0), (10, 0.0), (20, 5.0)])
        frames += [CanFrame(1, 0x20, b"\x01"), CanFrame(2, 0x20, b"\x02")]
        frames += [CanFrame(5, 0x200, b"\x00"), CanFrame(25, 0x200, b"\x05")]
        frames.sort(key=lambda f: f.timestamp_us)
        report = correlate_bytes(CanTrace(frames))
        assert [(c.arb_id, c.byte_index) for c in report.ranked] == [(0x200, 0)]
        reasons = {(i, b): why for i, b, why in report.excluded}
        assert reasons[(0x20, 0)] == "speed constant over this id's frames"
        assert reasons[(0x20, 1)] == "constant byte"

    def test_zoh_resampling_holds_last_broadcast(self):
        # candidate byte mirrors the held speed exactly mid-interval, so
        # the hold (not interpolation) is what makes r == 1
        frames = _speed_frames([(0, 0.0), (100, 54.0)])
        for t, v in ((50, 0), (99, 0), (150, 54)):
            frames.append(CanFrame(t, 0x300, bytes([v])))
        frames.sort(key=lambda f: f.timestamp_us)
        report = correlate_bytes(CanTrace(frames))
        assert report.find(0x300, 0).r == pytest.approx(1.0)

    def test_custom_speed_id(self):
        frames = [CanFrame(t, 0x99, canbus.encode_speed(v).data)
                  for t, v in ((0, 0.0), (10, 10.0), (20, 20.0))]
        frames.append(CanFrame(5, 0x200, bytes([3])))
        frames.append(CanFrame(15, 0x200, bytes([9])))
        frames.sort(key=lambda f: f.timestamp_us)
        report = correlate_bytes(CanTrace(frames), speed_id=0x99)
        assert report.speed_id == 0x99
        assert report.find(0x200, 0).r == pytest.approx(1.0)

    def test_speed_id_missing(self):
        trace = CanTrace([CanFrame(0, 0x200, b"\x01")])
        with pytest.raises(EmptyTraceError):
            correlate_bytes(trace)

    def test_no_candidates(self):
        trace = CanTrace(_speed_frames([(0, 1.0), (10, 2.0)]))
        with pytest.raises(EmptyTraceError):
            correlate_bytes(trace)

    def test_find_and_top(self):
        report = correlate_bytes(self._linear_trace())
        assert report.find(0x200, 0).rank == 1
        assert report.find(0x999, 0) is None
        assert len(report.top(1)) == 1


class TestPressRecording:
    def test_shape(self):
        trace = recordings.press_recording()
        assert len(trace.ids()) == 102
        assert 0x11A in trace.ids()

    def test_throttle_isolated_in_budget(self):
        trace = recordings.press_recording()
        oracle = recordings.throttle_effect_oracle()
        result = isolate_control_id(trace, oracle)
        assert result.arb_id == 0x11A
        assert result.oracle_calls == isolation_budget(102) == 8

    def test_confirm_verifies_single_id(self):
        trace = recordings.press_recording()
        oracle = recordings.throttle_effect_oracle()
        result = isolate_control_id(trace, oracle, confirm=True)
        assert result.arb_id == 0x11A
        assert result.confirmed is True
        assert result.oracle_calls <= isolation_budget(102) + 1

    def test_deterministic(self):
        a = recordings.press_recording()
        b = recordings.press_recording()
        assert list(a) == list(b)


@pytest.fixture(scope="module")
def rec():
    return recordings.correlation_recording()


class TestCorrelationRecording:
    def test_planted_byte_wins(self, rec):
        trace, key = rec
        report = correlate_bytes(trace)
        planted = report.find(*key["planted"])
        assert planted.rank == 1
        assert abs(planted.r) > 0.999

    def test_actuator_byte_ranks_poorly(self, rec):
        trace, key = rec
        report = correlate_bytes(trace)
        actuator = report.find(*key["actuator"])
        assert actuator is not None
        assert actuator.rank > 10

    def test_constant_ids_fully_excluded(self, rec):
        trace, key = rec
        report = correlate_bytes(trace)
        excluded = {(i, b) for i, b, _ in report.excluded}
        for arb_id in key["constant_ids"]:
            for b in range(8):
                assert (arb_id, b) in excluded

    def test_coverage_is_complete(self, rec):
        trace, _ = rec
        report = correlate_bytes(trace)
        n_candidates = len(trace.ids()) - 1
        assert len(report.ranked) + len(report.excluded) == 8 * n_candidates
