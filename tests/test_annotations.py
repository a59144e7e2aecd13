"""Every annotation in the package resolves, so `typing.get_type_hints` works on all of it."""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import typing

import pytest

import duetbench
from duetbench.executor import DuetExecutor

# __main__ runs the CLI when imported
MODULES = [m.name for m in pkgutil.iter_modules(duetbench.__path__, "duetbench.") if m.name != "duetbench.__main__"]


def _defined(module):
    """The functions and classes `module` defines, and the methods of those classes."""
    for obj in vars(module).values():
        if not (inspect.isfunction(obj) or inspect.isclass(obj)) or obj.__module__ != module.__name__:
            continue
        yield obj
        if inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))  # class/static methods, properties
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    checked = 0
    for obj in _defined(module):
        # config imports argparse, and strategies DuetExecutor, for type checkers only
        typing.get_type_hints(obj, localns={"argparse": argparse, "DuetExecutor": DuetExecutor})
        checked += 1
    assert checked
