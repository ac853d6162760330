"""Every annotation in the package, and in the replay test helper, resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming a type the module never imports only fails when something evaluates
it (``typing.get_type_hints``, a documentation build, a type checker).
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import prsrg

# test id -> module: the package's modules, and tests/replay.py, which
# holds the replay checks that left the package
MODULES = {m.name: f"prsrg.{m.name}"
           for m in pkgutil.iter_modules(prsrg.__path__)}
MODULES["replay"] = "replay"


def _defined_functions(module):
    """Functions, methods, static/class methods and property getters whose
    source is in ``module``."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if (inspect.isfunction(attr)
                        and attr.__module__ == module.__name__):
                    yield attr


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_annotation_resolves(name):
    module = importlib.import_module(MODULES[name])
    unresolved = []
    for fn in _defined_functions(module):
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append(f"{fn.__qualname__}: {exc}")
    assert not unresolved, unresolved
