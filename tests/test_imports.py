"""What importing icosym costs: submodules run only when used, and no
command generates classes at run time."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import re
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


def last_line_of(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def modules_run_by(statement: str) -> set[str]:
    return set(json.loads(last_line_of(RUNNER.format(statement=statement))))


def dispatch(argv) -> str:
    """A statement running the CLI on *argv* with its stdout discarded."""
    return (
        "import contextlib, io\n"
        "from icosym.cli import cmd_dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cmd_dispatch({argv!r})"
    )


def test_bare_import_runs_no_submodule():
    assert modules_run_by("import icosym") == {"icosym"}


@pytest.mark.parametrize(
    "argv", [["chartab"], ["decompose", "--rep", "sym^5(X')"], ["irreps", "--m", "3"]]
)
def test_light_commands_skip_the_ledger_layers(argv):
    ran = modules_run_by(f"from icosym.cli import cmd_dispatch; cmd_dispatch({argv!r})")
    assert "icosym.chartab" in ran
    assert not ran & (HEAVY | {"icosym.rules"})


def test_the_cited_rules_run_no_layer():
    assert modules_run_by("import icosym.rules") == {"icosym", "icosym.rules"}


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["--help"],
        ["siegel", "--m", "x"],
        ["siegel", "--m", "10001"],
        ["irreps", "--m", "-3"],
        ["irreps", "--m", "10001"],
        ["scan-trivial", "--max", "0"],
        ["siegel", "--scan", "10001..10001"],
        ["scan-trivial", "--max", "100000000"],
    ],
)
def test_import_and_rejected_arguments_run_only_the_cli(argv):
    statement = "import icosym.cli" if argv is None else dispatch(argv)
    assert modules_run_by(statement) == {"icosym", "icosym.cli"}


@pytest.mark.parametrize(
    "argv", [["siegel", "--m", "12"], ["irreps", "--m", "3"], ["scan-trivial", "--max", "30"]]
)
def test_commands_that_check_nothing_run_no_check_module(argv):
    # the check-result type lives in verify, beside the checks
    ran = modules_run_by(dispatch(argv))
    assert "icosym.chartab" in ran
    assert not ran & {"icosym.verify", "icosym.report"}


def test_siegel_without_facts_runs_no_factsfile():
    ran = modules_run_by(dispatch(["siegel", "--m", "12"]))
    assert {"icosym.siegel", "icosym.rules", "icosym.chartab"} <= ran
    assert "icosym.factsfile" not in ran


def test_cuspidality_on_untagged_bases_builds_no_table(tmp_path):
    # the cuspidal entries of untagged bases are checked against the type
    # table alone, whether they agree with it (sym^5 of an icosahedral base)
    # or not (sym^7 of a tetrahedral one, refused)
    path = tmp_path / "facts.json"
    for truth in (False, True):
        path.write_text(
            json.dumps(
                {
                    "bases": [
                        {"name": "p", "type": "tetrahedral"},
                        {"name": "q", "type": "icosahedral"},
                    ],
                    "facts": [
                        {"lhs": "Ad(p)", "rhs": "Ad(q)", "relation": "equiv", "truth": False}
                    ],
                    "cuspidal": [
                        {"symbol": "sym^5(q)", "truth": True},
                        {"symbol": "sym^7(p)", "truth": truth},
                    ],
                }
            )
        )
        argv = ["cuspidality", "--facts", str(path), "--pi", "p", "--pi-prime", "q"]
        statement = dispatch(argv).replace("    cmd_dispatch(", "    code = cmd_dispatch(")
        ran = modules_run_by(statement + f"\nassert code == {2 if truth else 0}, code")
        assert {"icosym.factsfile", "icosym.isobaric", "icosym.rules"} <= ran
        assert not ran & {"icosym.chartab", "icosym.group", "icosym.scalar"}


def test_text_output_never_imports_json():
    # RUNNER imports json itself, so this check prints its own answer
    statement = dispatch(["decompose", "--rep", "sym^5(X')"])
    assert last_line_of(statement + "\nimport sys; print('json' in sys.modules)") == "False"
    statement = dispatch(["decompose", "--rep", "sym^5(X')", "--json"])
    assert last_line_of(statement + "\nimport sys; print('json' in sys.modules)") == "True"


def test_verify_runs_the_layers_it_checks():
    # the runner does see a module run: verify needs all but factsfile
    ran = modules_run_by("from icosym.cli import cmd_dispatch; cmd_dispatch(['verify', 'table'])")
    assert ran & HEAVY == HEAVY - {"icosym.factsfile"}


@pytest.mark.parametrize(
    "argv",
    [["verify", "all"], ["decompose", "--rep", "sym^5(X')"], ["siegel", "--m", "12"]],
)
def test_commands_never_import_fractions(argv):
    statement = (
        "import contextlib, io\n"
        "from icosym.cli import cmd_dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cmd_dispatch({argv!r}) == 0\n"
        "assert 'fractions' not in sys.modules, 'fractions was imported'"
    )
    assert "icosym.scalar" in modules_run_by(statement)


def test_every_public_name_is_its_modules_object():
    assert len(icosym.__all__) == 56
    for name in icosym.__all__:
        module = importlib.import_module(f"icosym.{icosym._MODULE_OF[name]}")
        assert getattr(icosym, name) is getattr(module, name), name


def test_star_import_lists_every_public_name():
    namespace: dict = {}
    exec("from icosym import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(icosym.__all__)
    assert icosym.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        icosym.nonexistent
    assert not hasattr(icosym, "nonexistent")


# options that had a single value in use; the table and these constants are fixed
ONE_VALUE_OPTIONS = {"tab", "amax", "max_m", "trials", "seed"}


def test_no_function_takes_a_one_value_option():
    found = []
    for info in pkgutil.iter_modules(icosym.__path__):
        module = importlib.import_module(f"icosym.{info.name}")
        for owner in [module] + [
            c for c in vars(module).values()
            if inspect.isclass(c) and c.__module__ == module.__name__
        ]:
            for obj in vars(owner).values():
                fn = getattr(obj, "__func__", getattr(obj, "fget", obj))
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                hits = ONE_VALUE_OPTIONS & set(inspect.signature(fn).parameters)
                found += [f"{fn.__qualname__}({name})" for name in sorted(hits)]
    assert found == []


# a facts file for both commands that read one: a tagged base for siegel
# and two declared bases for cuspidality
CODEGEN_FACTS = {
    "bases": [
        {"name": "f", "type": "icosahedral", "galois_row": "X'"},
        {"name": "g", "type": "tetrahedral"},
    ],
    "siegel": {"p": "f"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["chartab"],
        ["decompose", "--rep", "sym^5(X')"],
        ["irreps", "--m", "3"],
        ["siegel", "--m", "12"],
        ["siegel", "--m", "12", "--facts", "FACTS"],
        ["scan-trivial", "--max", "30"],
        ["cuspidality", "--facts", "FACTS", "--pi", "g", "--pi-prime", "f"],
        ["verify", "all"],
    ],
)
def test_commands_import_no_code_generator(argv, tmp_path):
    # dataclasses imports inspect (and with it ast, dis and tokenize) and
    # execs the methods of each class it builds
    path = tmp_path / "facts.json"
    path.write_text(json.dumps(CODEGEN_FACTS))
    argv = [str(path) if arg == "FACTS" else arg for arg in argv]
    statement = "import contextlib, io, sys\nfrom icosym.cli import cmd_dispatch\n"
    for run in (argv, argv + ["--json"]):
        statement += (
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cmd_dispatch({run!r}) == 0\n"
        )
    statement += "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert last_line_of(statement) == "[]"


def test_package_source_imports_no_dataclasses():
    imports = re.compile(r"^\s*(?:from|import)\s+dataclasses\b", re.MULTILINE)
    found = [
        path.name for path in sorted((SRC / "icosym").glob("*.py"))
        if imports.search(path.read_text())
    ]
    assert found == []
