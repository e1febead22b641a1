"""The README's examples must keep working."""

from __future__ import annotations

import json
import re
from pathlib import Path

from icosym import (
    CharWord,
    conjugate_pair,
    decide_cuspidality,
    decide_cuspidality_via_poles,
    default_table,
    siegel_report,
    standard_icosahedral_pair,
)
from icosym.factsfile import load_facts

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    tab = default_table()
    assert tab.decompose(tab.sym_power(tab.row("X'"), 6)) == {"X2": 1, "W''": 1}
    ledger, p, p_tau = standard_icosahedral_pair()
    assert conjugate_pair(ledger) == (p, p_tau)
    assert ledger.bases == {}
    assert decide_cuspidality(p, p_tau, ledger).verdict == "cuspidal"
    assert decide_cuspidality(p, p_tau, ledger).texts("witnesses") == (
        """finite-image restrictions differ: ["W'"] vs ["W''"]""",
    )
    assert decide_cuspidality_via_poles(p, p_tau, ledger).pole.value() == 1
    assert siegel_report(12).verdict == "exceptional-case"


def test_facts_file_example():
    text = README.read_text()
    block = re.search(r'```json\n(\{\n  "characters".*?)\n```', text, re.S)
    assert block is not None, "facts-file example not found in README"
    doc = json.loads(block.group(1))
    ledger = load_facts(doc)

    verdict = decide_cuspidality(ledger.bases["pi"], ledger.bases["rho"], ledger)
    assert verdict.verdict == "cuspidal"
    verdict = decide_cuspidality(ledger.bases["d"], ledger.bases["rho"], ledger)
    assert verdict.verdict == "cuspidal"

    # the report on the base the siegel section names, with its twist
    names = doc["siegel"]
    report = siegel_report(12, ledger.bases[names["p"]], CharWord.gen(names["chi"]), ledger)
    # the example declares chi*omega(f)^6 non-real, defusing the m = 12 case
    assert report.verdict == "no-siegel-zero"


def test_the_recorded_run_count_is_the_manifests():
    """The README's count of recorded command runs is read off the manifest,
    so a re-record that adds runs shows here."""
    manifest = json.loads((README.parent / "tests" / "corpus" / "manifest.json").read_text())
    counts = re.findall(r"replays ([\d,]+) recorded command runs", README.read_text())
    assert counts == [f"{len(manifest['runs']):,}"]
