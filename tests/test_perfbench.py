"""The benchmark's layer tracer only names functions that exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    # the tracer looks each name up with getattr, so a stale entry crashes
    # traced benchmark runs instead of failing here
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.TRACED:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"cloneleak.{module_name}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert tracer.TRACED
    assert missing == []
