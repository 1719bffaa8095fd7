"""The benchmark's tracer patches package functions by name; a rename in
src/ must fail here rather than silently break ``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_patch_targets_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for mod, attr, name, _ in tracing.PATCHES:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} (span {name}) is gone"
