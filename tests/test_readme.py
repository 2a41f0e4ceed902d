"""README.md names only what exists: every backticked call in it is a
function or class that the code defines."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np

import floquet_dqpt

import api
import oracles
from test_datasets import load_script

ROOT = Path(__file__).resolve().parents[1]
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(")


def package_modules():
    return {info.name: importlib.import_module(f"floquet_dqpt.{info.name}")
            for info in pkgutil.iter_modules(floquet_dqpt.__path__)}


def resolve(name, modules):
    """The object a backticked `name(` calls, or None: a bare name that the
    package or tests/oracles.py defines, or a dotted one through numpy
    (np), math, a package module, oracles, api or a script."""
    head, *rest = name.split(".")
    if not rest:
        for module in (floquet_dqpt, *modules.values(), oracles):
            if callable(vars(module).get(name)):
                return vars(module)[name]
        return None
    scripts = ROOT / "scripts"
    obj = {"np": np, "math": math, "oracles": oracles, "api": api,
           **modules}.get(head)
    if obj is None and (scripts / f"{head}.py").is_file():
        obj = load_script(head)
    for attr in rest:
        obj = getattr(obj, attr, None)
    return obj if callable(obj) else None


def test_readme_calls_name_what_exists():
    names = CALL.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "tomography_phase_grid" in names
    modules = package_modules()
    assert [n for n in names if resolve(n, modules) is None] == []
