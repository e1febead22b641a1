"""What importing icosym costs: submodules run only when used."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icosym

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = {"icosym.isobaric", "icosym.siegel", "icosym.factsfile", "icosym.verify"}

# Prints, after the given statement, the icosym modules whose code has run.
# A submodule the package enters lazily keeps importlib's lazy module type
# until its first attribute access runs it; one that has run is a plain module.
RUNNER = """
import json, sys, types
{statement}
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if name.partition(".")[0] == "icosym" and type(module) is types.ModuleType
)))
"""


def modules_run_by(statement: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER.format(statement=statement)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_bare_import_runs_no_submodule():
    assert modules_run_by("import icosym") == {"icosym"}


@pytest.mark.parametrize(
    "argv", [["chartab"], ["decompose", "--rep", "sym^5(X')"], ["irreps", "--m", "3"]]
)
def test_light_commands_skip_the_ledger_layers(argv):
    ran = modules_run_by(f"from icosym.cli import cmd_dispatch; cmd_dispatch({argv!r})")
    assert "icosym.chartab" in ran
    assert not ran & HEAVY


def test_verify_runs_the_layers_it_checks():
    # the runner does see a module run: verify needs all but factsfile
    ran = modules_run_by("from icosym.cli import cmd_dispatch; cmd_dispatch(['verify', 'table'])")
    assert ran & HEAVY == HEAVY - {"icosym.factsfile"}


def test_every_public_name_is_its_modules_object():
    assert len(icosym.__all__) == 57
    for name in icosym.__all__:
        module = importlib.import_module(f"icosym.{icosym._MODULE_OF[name]}")
        assert getattr(icosym, name) is getattr(module, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from icosym import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(icosym.__all__)
    assert set(icosym.__all__) <= set(dir(icosym))
    assert icosym.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        icosym.nonexistent
    assert not hasattr(icosym, "nonexistent")
