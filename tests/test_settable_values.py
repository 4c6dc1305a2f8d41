"""Every value a caller can set is a decision: each doubles the cases tests and
benchmarks must cover. This counts them, so that a new one shows up here."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import vidannot
from vidannot.config import PipelineConfig

MAX_SETTABLE = 67


def settable_values() -> list[str]:
    """Each field of each PipelineConfig section, each other PipelineConfig
    field, and each defaulted parameter of each public module-level function
    of vidannot."""
    names = []
    for name, hint in typing.get_type_hints(PipelineConfig).items():
        if dataclasses.is_dataclass(hint):
            names += [f"{name}.{f.name}" for f in dataclasses.fields(hint)]
        else:
            names.append(name)
    for info in pkgutil.iter_modules(vidannot.__path__):
        module = importlib.import_module(f"vidannot.{info.name}")
        for fname, fn in vars(module).items():
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            names += [
                f"{module.__name__}.{fname}({p.name})"
                for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty
            ]
    return names


def test_settable_values_do_not_grow():
    names = settable_values()
    assert len(names) <= MAX_SETTABLE, f"{len(names)} settable values:\n" + "\n".join(names)
