"""The benchmark's tracer patches package functions by name; a rename in
src/ must fail here rather than silently break ``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import nomaopt.oracle as O
import nomaopt.polyblock as P
from nomaopt.experiments import RadioConfig, generate_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_patch_targets_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for mod, attr, name, _ in tracing.PATCHES:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} (span {name}) is gone"


@pytest.mark.parametrize("call", ["solve", "baseline_full_power"])
def test_each_result_is_rescored_through_the_traced_model_names(monkeypatch, call):
    # the model.verify spans time the re-score by the names the tracer
    # patches in polyblock and oracle; a result scored around them would
    # leave those spans reading 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing._VERIFY
    assert set(names) == {"build_decoding_order", "sum_rate", "check_feasible", "sic_always_feasible"}
    calls = Counter()
    for mod in (P, O):
        for name in names:
            def shim(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, shim)
    s = generate_scenario(RadioConfig(num_cells=3, num_subcarriers=2, users_per_cell=2), seed=[0, 0])
    result = P.solve(s, 0.05) if call == "solve" else O.baseline_full_power(s)
    assert result.feasibility.feasible
    assert calls == {name: 1 for name in names}
