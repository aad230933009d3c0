"""The seam perfbench/tracing.py patches from outside the package.

The traced benchmark run wraps evsim callables by module or class
attribute and reads two of their arguments by position.  A rename or a
signature change there only shows up as a broken traced run, so these
tests pin what the tracer relies on.
"""

import importlib.util
import inspect
from pathlib import Path

from evsim import canbus, plant, recordings

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_resolve():
    points = _tracing().patch_points()
    assert points
    for owner, attr, name, _ in points:
        assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is gone"


def test_hooks_find_their_arguments():
    # _ticks reads n_ticks as args[4], _forged_by reads source as args[3]
    assert list(inspect.signature(plant.VehiclePlant.advance).parameters)[4] == "n_ticks"
    assert list(inspect.signature(canbus.CanBus.inject_at).parameters)[3] == "source"


def test_oracle_factory_takes_no_arguments():
    assert callable(recordings.throttle_effect_oracle())


def test_load_trace_calls_parse_trace_through_the_module(tmp_path, monkeypatch):
    # the tracer counts canbus.parse_trace.frames by replacing the attribute
    path = tmp_path / "t.txt"
    path.write_text("0 10 0\n")
    parse = canbus.parse_trace
    seen = []
    monkeypatch.setattr(canbus, "parse_trace", lambda text: seen.append(text) or parse(text))
    assert len(canbus.load_trace(path)) == 1
    assert seen == ["0 10 0\n"]
