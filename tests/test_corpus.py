"""The behaviour corpus: every recorded command gives the same bytes.

``corpus/manifest.json`` lists command lines and, for each run, the sha256
of its stdout, the sha256 of its stderr and its exit code.  The facts path
of a run is written ``FACTS`` in its argv and replaced by that word in both
streams, so a run reads the same from any directory.  The documents behind
``FACTS`` are rebuilt here, never stored:

* the README's facts-file example;
* each facts document the CI workflow writes with ``echo``;
* documents from the benchmark's ``Universe.generate`` (``bench/workloads.py``,
  imported read-only) for the recorded seeds, each as generated, with a
  ``siegel`` section, and under each of its ``BAD_DOCUMENTS`` mutations.

The manifest records each document's sha256.  A document that no longer
hashes the same (after an edit under ``bench/``, say) is reported by its own
test, and the runs over it are not compared.  Every run is replayed in
process through :func:`icosym.cli.cmd_dispatch`; on a mismatch the first
differing runs are printed in full.

To re-record after a change of output that is meant, run
``python tests/corpus/record.py`` and list each changed class of run in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import re
import shlex
import sys
from pathlib import Path

import pytest

from icosym.cli import cmd_dispatch
from icosym.factsfile import load_facts
from icosym.isobaric import decide_cuspidality, decide_cuspidality_via_poles

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "corpus" / "manifest.json"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
README = ROOT / "README.md"
PLACEHOLDER = "FACTS"
SHOWN = 3  # differing runs printed in full

# what the recorder writes: seeds of generated documents and their scales
SEEDS = range(24)
SCALES = {seed: 1.0 if seed % 8 == 7 else 0.4 for seed in SEEDS}
SIEGEL_MS = ("0", "3", "12")
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
    ["siegel", "--m", "x"],
    ["siegel", "--scan", "30..2"],
)


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


def ci_documents() -> dict[str, str]:
    """Each ``echo '<json>' > "$name"`` of the workflow, by its name."""
    found = {}
    for line in WORKFLOW.read_text().splitlines():
        words = shlex.split(line.strip()) if line.strip().startswith("echo '") else []
        if len(words) == 4 and words[2] == ">" and words[3].startswith("$"):
            found[words[3][1:]] = words[1]
    return found


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
    docs.update((f"ci:{name}", text) for name, text in ci_documents().items())
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
    return [argv + tail for argv in commands for tail in ([], ["--json"])]


def record(path: Path) -> dict:
    """Run every command of the corpus and return the manifest."""
    docs = build_documents()
    entries = [(None, argv + tail) for argv in FIXED_RUNS for tail in ([], ["--json"])]
    entries += [(doc_id, argv) for doc_id, text in docs.items() for argv in runs_of(doc_id, text)]
    runs = []
    for doc_id, argv in entries:
        result = run(argv, None if doc_id is None else docs[doc_id], path)
        runs.append({
            "doc": doc_id,
            "argv": argv,
            "stdout": digest(result["stdout"]),
            "stderr": digest(result["stderr"]),
            "code": result["code"],
        })
    return {
        "documents": {doc_id: digest(text) for doc_id, text in docs.items()},
        "runs": runs,
    }


# -- the replay ----------------------------------------------------------------


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def documents() -> dict[str, str]:
    return build_documents()


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


def test_every_run_replays_byte_identically(manifest, documents, tmp_path):
    recorded = manifest["documents"]
    path = tmp_path / "facts.json"
    differing = []
    compared = 0
    for entry in manifest["runs"]:
        doc_id = entry["doc"]
        if doc_id is not None and digest(documents.get(doc_id, "")) != recorded[doc_id]:
            continue  # reported by test_documents_hash_as_recorded
        result = run(entry["argv"], None if doc_id is None else documents[doc_id], path)
        compared += 1
        got = (digest(result["stdout"]), digest(result["stderr"]), result["code"])
        if got != (entry["stdout"], entry["stderr"], entry["code"]):
            differing.append((entry, result, got))
    shown = []
    for entry, result, got in differing[:SHOWN]:
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
            f"{len(differing)} of {compared} runs differ from the manifest; the first:\n"
            + "\n".join(shown),
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
