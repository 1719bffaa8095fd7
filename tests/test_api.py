"""The public names the package declares."""

import importlib
import pkgutil

import nomaopt


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
