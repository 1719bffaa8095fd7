"""The public names the package declares."""

import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import nomaopt
from nomaopt.simplex import SimplexError


def test_every_exported_name_resolves():
    modules = [nomaopt] + [
        importlib.import_module(f"nomaopt.{info.name}")
        for info in pkgutil.iter_modules(nomaopt.__path__)
        if info.name != "__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
    assert len(nomaopt.__all__) == len(set(nomaopt.__all__))

    # one implementation per name: modules that export the same name export one object
    exporters = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            exporters.setdefault(name, []).append(module)
    split = [
        name for name, mods in exporters.items() if len({id(getattr(m, name)) for m in mods}) > 1
    ]
    assert not split
    assert nomaopt.compute_nd.__module__ == "nomaopt.reduction"


def test_each_name_is_declared_by_the_module_that_defines_it():
    modules = [
        importlib.import_module(f"nomaopt.{name}")
        for name in ("model", "reduction", "fractional", "polyblock", "oracle", "experiments")
    ]
    # the package re-exports the modules' own lists, in order, and nothing else
    assert nomaopt.__all__ == ["__version__"] + [name for m in modules for name in m.__all__]
    foreign = [
        f"{m.__name__}.{name}"
        for m in modules
        for name in m.__all__
        if (inspect.isclass(obj := getattr(m, name)) or inspect.isfunction(obj))
        and obj.__module__ != m.__name__
    ]
    assert not foreign


def test_exceptions_pickle_round_trip():
    # a worker process hands its error to the caller pickled
    errors = [
        nomaopt.ProjectionError("no bracket", lambdas=(1.0, 2.5)),
        nomaopt.InconsistentSinrError("no powers", "singular"),
        nomaopt.UnsupportedWeightsError("weights"),
        nomaopt.ScenarioError("bad scenario"),
        nomaopt.AllocationError("bad allocation"),
        SimplexError("unbounded"),
    ]
    for err in errors:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert back.args == err.args
        assert vars(back) == vars(err)
    assert pickle.loads(pickle.dumps(errors[0])).lambdas == (1.0, 2.5)
    assert pickle.loads(pickle.dumps(errors[1])).reason == "singular"


def test_import_starts_no_process_machinery():
    src = Path(nomaopt.__file__).resolve().parents[1]
    probe = ("import nomaopt, sys; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"
