"""The behaviour corpus: every recorded command gives the same bytes, and the
recorded commands reach every function of ``src/icosym``.

``corpus/manifest.json`` lists command lines and, for each run, the sha256
of its stdout, the sha256 of its stderr and its exit code.  The facts path
of a run is written ``FACTS`` in its argv and replaced by that word in both
streams, so a run reads the same from any directory.  The documents behind
``FACTS`` are:

* the README's facts-file example;
* the regression documents of ``corpus/documents.json``, each by its id and
  written as ``json.dumps`` writes it.  This file is the one home of the
  hand-written documents: each pins a refusal, a verdict or a report.  Ids
  beginning ``ci:`` keep the names under which their runs were first
  recorded;
* documents from the benchmark's ``Universe.generate`` (``bench/workloads.py``,
  imported read-only) for the recorded seeds, each as generated, with a
  ``siegel`` section, and under each of its ``BAD_DOCUMENTS`` mutations.

The manifest records each document's sha256.  A document that no longer
hashes the same (after an edit under ``bench/``, say) is reported by its own
test, and the runs over it are not compared.

The corpus is replayed once per module, by ``corpus/replay.py`` in a fresh
interpreter: each run goes through :func:`icosym.cli.cmd_dispatch` in
process, under a probe set before ``import icosym`` (``sys.monitoring``
where it exists, else ``sys.setprofile``), so that what runs at import
counts too.  ``sys.setprofile`` costs every call, so there the probe
watches only the runs the manifest marks ``probe``, which the recorder
picks to enter every function that any run enters.  On a mismatch the
first differing runs are printed in full.
:func:`test_every_function_is_reached` then names each ``def`` of
``src/icosym`` that no run entered and that :data:`UNREACHED` does not list
with its reason.

To re-record after a change of output that is meant, run
``python tests/corpus/record.py`` and list each changed class of run in
CHANGES.md.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from icosym.cli import cmd_dispatch
from icosym.factsfile import load_facts
from icosym.isobaric import decide_cuspidality, decide_cuspidality_via_poles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icosym"
MANIFEST = ROOT / "tests" / "corpus" / "manifest.json"
DOCUMENTS = ROOT / "tests" / "corpus" / "documents.json"
REPLAY = ROOT / "tests" / "corpus" / "replay.py"
README = ROOT / "README.md"
PLACEHOLDER = "FACTS"
SHOWN = 3  # differing runs printed in full

# what the recorder writes: seeds of generated documents and their scales
SEEDS = range(24)
SCALES = {seed: 1.0 if seed % 8 == 7 else 0.4 for seed in SEEDS}
SIEGEL_MS = ("0", "3", "12")
# each verify section by its name or its short name, and an unknown target
VERIFY_TARGETS = (
    "table", "identities", "character-table", "decomposition-identities", "product-rule",
    "trivial-constituent-scan", "finite-group-classification", "cuspidality-routes",
    "auxiliary-factorizations", "pole-bookkeeping", "exceptional-zero-criterion", "rule-table",
    "nosuch",
)
FIXED_RUNS = (
    ["chartab"],
    ["verify", "all"],
    ["decompose", "--rep", "sym^5(X')"],
    ["decompose", "--rep", "sym^6(X') + dual(W)*X1"],
    ["decompose", "--rep", "X' * X''"],
    ["decompose", "--rep", "sym^2(W)"],
    ["decompose", "--rep", "sym^5(X"],
    ["irreps", "--m", "1"],
    ["irreps", "--m", "6"],
    ["scan-trivial", "--max", "30"],
    ["siegel", "--m", "12"],
    ["siegel", "--scan", "0..130"],
    ["siegel", "--scan", "0..400"],
    ["siegel", "--m", "x"],
    ["siegel", "--scan", "30..2"],
    # each bound of --m, --max and --scan
    ["irreps", "--m", "0"],
    ["irreps", "--m", "10001"],
    ["scan-trivial", "--max", "0"],
    ["scan-trivial", "--max", "10001"],
    ["siegel", "--m", "10001"],
    ["siegel", "--scan", "0..10001"],
    *(["verify", target] for target in VERIFY_TARGETS),
)
# commands over one document beyond those of runs_of, by document id
MORE_RUNS = {
    "doc:notautomorphic": (["siegel", "--m", "5", "--facts", PLACEHOLDER],),
}

# each def that no recorded run enters, by module and qualified name, with its reason
UNREACHED = {
    "icosym.__getattr__": "the package's lazy public names (icosym.FactLedger, ...); "
                          "the CLI imports the submodules directly",
    "icosym.Record.__setattr__": "keeps records immutable: nothing sets a field",
    "icosym.Record.__reduce__": "keeps records picklable and copyable",
    "icosym.Record.__repr__": "a record's repr, for the interpreter; no message prints a "
                              "record with repr",
    "icosym.scalar.Qsqrt5.__setattr__": "keeps scalars immutable: nothing sets a field",
    "icosym.scalar.Qsqrt5.__reduce__": "keeps scalars picklable and copyable",
    "icosym.scalar.Qsqrt5.__repr__": "a scalar's repr, for the interpreter; output prints "
                                     "scalars with str",
    "icosym.scalar.Qsqrt5.__bool__": "keeps bool(Qsqrt5(0)) False, as for a number",
    "icosym.cli.main": "entered only through the installed console script, which CI runs; "
                       "the corpus calls cmd_dispatch",
    "icosym.chartab.NotACharacterError.__init__": "decompose's refusal of a class function "
                                                  "that is no character; no command builds "
                                                  "one, as repexpr has no difference",
    "icosym.isobaric.BoxCusp.degree": "the core protocol: every core has a degree; no "
                                      "command compares a box product's",
    "icosym.isobaric.InducedCusp.__str__": "the core protocol: every core prints; no command "
                                           "prints an octahedral complement",
}


def _workloads():
    """``bench/workloads.py`` as a module of its own name, so that nothing
    under ``bench/`` needs to be a package or on the path."""
    name = "corpus_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def readme_document() -> str:
    block = re.search(r'```json\n(\{\n  "characters".*?)\n```', README.read_text(), re.S)
    return block.group(1)


def generated_documents(workloads, seed: int) -> dict[str, str]:
    """The variants of one generated document, by variant name."""
    u = workloads.Universe.generate(random.Random(seed), scale=SCALES[seed])
    doc = u.doc
    tagged = [b["name"] for b in doc["bases"] if b.get("galois_row")]
    # even seeds report on the X' base, odd ones on the X'' base
    section = {"p": tagged[seed % 2], "chi": doc["characters"][seed % 6]["name"]}
    out = {"plain": json.dumps(doc), "siegel": json.dumps({**doc, "siegel": section})}
    for i, mutate in enumerate(workloads.BAD_DOCUMENTS):
        out[f"bad{i}"] = mutate(doc)
    return out


def build_documents() -> dict[str, str]:
    """Every document of the corpus, by its id."""
    docs = {"readme": readme_document()}
    docs.update((doc_id, json.dumps(doc)) for doc_id, doc in
                json.loads(DOCUMENTS.read_text()).items())
    workloads = _workloads()
    for seed in SEEDS:
        for variant, text in generated_documents(workloads, seed).items():
            docs[f"seed{seed}:{variant}"] = text
    return docs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str], text: str | None, path: Path) -> dict:
    """One in-process command over *text*, if given, written at *path*."""
    if text is not None:
        path.write_text(text)
    argv = [str(path) if arg == PLACEHOLDER else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cmd_dispatch(argv)
        except Exception as exc:  # recorded, so that a traceback shows as a change
            code = f"raised {type(exc).__name__}: {exc}"
    stdout, stderr = (s.getvalue().replace(str(path), PLACEHOLDER) for s in (out, err))
    return {"stdout": stdout, "stderr": stderr, "code": code}


def runs_of(doc_id: str, text: str) -> list[list[str]]:
    """The commands recorded over one document."""
    if doc_id.split(":")[-1].startswith("bad"):
        # every refused load reads the same whatever the command
        commands = [["cuspidality", "--facts", PLACEHOLDER, "--pi", "b0", "--pi-prime", "b5"],
                    ["siegel", "--m", "3", "--facts", PLACEHOLDER]]
    else:
        bases = [b["name"] for b in json.loads(text).get("bases", [])]
        rng = random.Random(doc_id)
        pairs = [(bases[0], bases[-1])] if bases else []
        if len(bases) > 1:
            pairs += [tuple(rng.sample(bases, 2)) for _ in range(2)]
        commands = [["cuspidality", "--facts", PLACEHOLDER, "--pi", p, "--pi-prime", q]
                    for p, q in dict.fromkeys(pairs)]
        commands += [["siegel", "--m", m, "--facts", PLACEHOLDER] for m in SIEGEL_MS]
        commands += MORE_RUNS.get(doc_id, ())
    return [argv + tail for argv in commands for tail in ([], ["--json"])]


def record(path: Path, probe=None) -> dict:
    """Run every command of the corpus and return the manifest.  *probe*, a
    context manager giving the set of code objects that a run enters, marks
    ``probe`` a subset of the runs that together enter every function of
    ``src/icosym`` that any run enters; the replay watches only those where
    watching costs each call (before Python 3.12)."""
    docs = build_documents()
    entries = [(None, argv + tail) for argv in FIXED_RUNS for tail in ([], ["--json"])]
    entries += [(doc_id, argv) for doc_id, text in docs.items() for argv in runs_of(doc_id, text)]
    runs, reached = [], []
    for doc_id, argv in entries:
        with probe() if probe else contextlib.nullcontext(set()) as entered:
            result = run(argv, None if doc_id is None else docs[doc_id], path)
        reached.append({(Path(code.co_filename).name, code.co_firstlineno)
                        for code in entered if Path(code.co_filename).parent == SRC})
        runs.append({
            "doc": doc_id,
            "argv": argv,
            "stdout": digest(result["stdout"]),
            "stderr": digest(result["stderr"]),
            "code": result["code"],
        })
    for i in _covering(reached):
        runs[i]["probe"] = True
    return {
        "documents": {doc_id: digest(text) for doc_id, text in docs.items()},
        "runs": runs,
    }


def _covering(sets: list[set]) -> list[int]:
    """Indices of some of *sets* that together hold every element of them
    all, picked greedily: each the one holding most of what is left."""
    left, chosen = set().union(*sets), []
    while left:
        best = max(range(len(sets)), key=lambda i: len(sets[i] & left))
        chosen.append(best)
        left -= sets[best]
    return sorted(chosen)


def replay(path: Path, probe=None) -> dict:
    """Replay every recorded run whose document hashes as recorded: how many
    were compared, and each differing run's entry with its full result.  A
    run marked ``probe`` runs inside *probe*, a context manager, if given."""
    manifest = json.loads(MANIFEST.read_text())
    documents = build_documents()
    recorded = manifest["documents"]
    compared, differing = 0, []
    for entry in manifest["runs"]:
        doc_id = entry["doc"]
        if doc_id is not None and digest(documents.get(doc_id, "")) != recorded[doc_id]:
            continue  # reported by test_documents_hash_as_recorded
        with probe() if probe and entry.get("probe") else contextlib.nullcontext():
            result = run(entry["argv"], None if doc_id is None else documents[doc_id], path)
        compared += 1
        got = (digest(result["stdout"]), digest(result["stderr"]), result["code"])
        if got != (entry["stdout"], entry["stderr"], entry["code"]):
            differing.append((entry, result))
    return {"compared": compared, "differing": differing}


def functions() -> dict[tuple[str, int], str]:
    """Every def of ``src/icosym``, nested ones included, by its file name and
    the first line of its code object (its first decorator's, if any), as
    ``module.qualified.name``."""

    def defs(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield first, prefix + child.name
                yield from defs(child, f"{prefix}{child.name}.")
            else:
                scope = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
                yield from defs(child, scope)

    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = "icosym" if path.stem == "__init__" else f"icosym.{path.stem}"
        for first, name in defs(ast.parse(path.read_text()), module + "."):
            out[(path.name, first)] = name
    return out


# -- the replay ----------------------------------------------------------------


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def documents() -> dict[str, str]:
    return build_documents()


@pytest.fixture(scope="module")
def replayed() -> dict:
    """The one replay of the corpus, by ``corpus/replay.py``: see the module docstring."""
    proc = subprocess.run([sys.executable, str(REPLAY)], capture_output=True, text=True)
    if proc.returncode:
        pytest.fail(f"the replay exited {proc.returncode}:\n{proc.stderr}", pytrace=False)
    return json.loads(proc.stdout)


def test_documents_hash_as_recorded(manifest, documents):
    recorded = manifest["documents"]
    changed = sorted(d for d in recorded if d in documents and digest(documents[d]) != recorded[d])
    missing = sorted(recorded.keys() - documents.keys())
    added = sorted(documents.keys() - recorded.keys())
    if changed or missing or added:
        pytest.fail(
            "the corpus documents are not the recorded ones (their runs are not "
            f"compared): changed {changed}, gone {missing}, new {added}",
            pytrace=False,
        )


def test_every_run_replays_byte_identically(replayed):
    differing = replayed["differing"]
    shown = []
    for entry, result in differing[:SHOWN]:
        got = (digest(result["stdout"]), digest(result["stderr"]), result["code"])
        what = [name for name, a, b in zip(("stdout", "stderr", "code"), got,
                                           (entry["stdout"], entry["stderr"], entry["code"]))
                if a != b]
        shown.append(
            f"--- {shlex.join(entry['argv'])} over {entry['doc']} ({', '.join(what)} differ)\n"
            f"exit code {result['code']} (recorded {entry['code']})\n"
            f"stdout:\n{result['stdout']}stderr:\n{result['stderr']}"
        )
    if differing:
        pytest.fail(
            f"{len(differing)} of {replayed['compared']} runs differ from the manifest; "
            "the first:\n" + "\n".join(shown),
            pytrace=False,
        )


def test_every_function_is_reached(replayed):
    """Each def of ``src/icosym`` is entered by a recorded run or listed in
    :data:`UNREACHED`, and each listed one exists and is entered by none."""
    reached = {tuple(key) for key in replayed["reached"]}
    defs = functions()
    unreached = {name: f"{file}:{line}" for (file, line), name in defs.items()
                 if (file, line) not in reached}
    missing = [f"{name} ({where})" for name, where in sorted(unreached.items())
               if name not in UNREACHED]
    stale = sorted(UNREACHED.keys() - unreached.keys())
    if missing or stale:
        pytest.fail(
            f"{len(unreached)} of {len(defs)} defs are entered by no recorded run; "
            f"not listed in UNREACHED: {missing}; listed, but entered or gone: {stale}",
            pytrace=False,
        )


# -- the generated documents beyond the recorded runs ---------------------------


def test_the_cuspidality_routes_never_split_definite_and_undetermined():
    """Over every ordered pair of non-dihedral bases of each generated
    document, one route never decides while the other stays open."""
    workloads = _workloads()
    split = []
    for seed in SEEDS:
        ledger = load_facts(workloads.Universe.generate(random.Random(seed), scale=SCALES[seed]).doc)
        bases = [b for b in ledger.bases.values() if b.typ != "dihedral"]
        for p in bases:
            for q in bases:
                verdicts = {decide_cuspidality(p, q, ledger).verdict,
                            decide_cuspidality_via_poles(p, q, ledger).verdict}
                if len(verdicts) == 2 and "undetermined" in verdicts:
                    split.append((seed, p.name, q.name, sorted(verdicts)))
    assert split == []
