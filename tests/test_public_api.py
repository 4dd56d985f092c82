"""The package's declared public surface stays importable."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    """Every name in every ``repro`` module's ``__all__`` resolves, so
    deleting a function cannot leave a dangling export behind."""
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__,
                                                    prefix="repro.")]
    dangling = []
    for name in modules:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            if not hasattr(module, attr):
                dangling.append(f"{name}.{attr}")
    assert len(modules) > 50
    assert dangling == []
