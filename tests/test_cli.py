"""Command-line behavior: outputs, JSON documents, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icosym.chartab import IRREP_NAMES
from icosym.cli import cmd_dispatch
from icosym.factsfile import load_facts
from icosym.isobaric import LedgerError, conjugate_pair
from icosym.repexpr import MAX_POWER
from icosym.verify import VERIFY_SECTIONS, CheckResult

ENVELOPE_KEYS = {"command", "inputs", "results", "citations"}
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cmd_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    document = json.loads(out)
    assert set(document) == ENVELOPE_KEYS
    return code, document, err


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.json"
    path.write_text(
        json.dumps(
            {
                "bases": [
                    {"name": "pi", "type": "tetrahedral"},
                    {"name": "rho", "type": "icosahedral"},
                ],
                "facts": [
                    {
                        "lhs": "Ad(pi)",
                        "rhs": "Ad(rho)",
                        "relation": "equiv",
                        "truth": False,
                    }
                ],
            }
        )
    )
    return str(path)


class TestChartab:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "chartab")
        assert code == 0
        for name in IRREP_NAMES:
            assert name in out
        assert "1/2 + 1/2√5" in out

    def test_json_document(self, capsys):
        code, document, _ = run_json(capsys, "chartab")
        assert code == 0
        results = document["results"]
        assert [c["size"] for c in results["classes"]] == [1, 1, 12, 12, 12, 12, 30, 20, 20]
        assert results["rows"]["U"] == ["1"] * 9
        assert results["dimensions"]["W"] == 6


# SHA-256 of stdout of `icosym verify all`, recorded while the character
# table, generator, accounting and rule-table checks were still built in the
# layers they check
VERIFY_ALL = {
    (): "13e6bfc56aff5c7478ec17095158b8afe6ef63cad426a4f1b0b62ec30ac20942",
    ("--json",): "27bb1604935ead924e963dd988afa0526eff4216f5c150ad5e94e11eaf326a14",
}


class TestVerify:
    @pytest.mark.parametrize("flags", sorted(VERIFY_ALL), ids=["text", "json"])
    def test_verify_all_output_is_pinned(self, capsys, flags):
        code, out, _ = run(capsys, "verify", "all", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL[flags]

    def test_identities_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "identities")
        assert code == 0
        assert "11/11 checks passed" in out

    def test_table_json(self, capsys):
        code, document, _ = run_json(capsys, "verify", "table")
        assert code == 0
        assert document["results"]["passed"] is True
        assert "character table" in document["results"]["sections"]

    def test_failure_maps_to_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "icosym.verify.verify_all",
            lambda: {"stub": [CheckResult("forced failure", False, "synthetic")]},
        )
        code, out, _ = run(capsys, "verify", "all")
        assert code == 1
        assert "FAIL" in out

    def test_bad_target(self, capsys):
        code, _, _ = run(capsys, "verify", "everything")
        assert code == 2

    def test_bad_target_names_the_sections(self, capsys):
        code, out, err = run(capsys, "verify", "product rule")
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown verify target 'product rule'")
        assert "product-rule" in err and err.count("\n") == 1

    def test_every_section_by_slug(self, capsys):
        _, everything, _ = run(capsys, "verify", "all")
        blocks = everything.split("== ")[1:]
        blocks[-1] = blocks[-1][: blocks[-1].index("overall:")]
        assert [b.split(" ==")[0] for b in blocks] == [n for n, _ in VERIFY_SECTIONS]
        for block in blocks:
            slug = block.split(" ==")[0].replace(" ", "-")
            code, out, _ = run(capsys, "verify", slug)
            assert code == 0
            section, overall = out.split("overall: ")
            assert section == "== " + block
            assert overall.endswith("checks passed\n")
            code, document, _ = run_json(capsys, "verify", slug)
            assert code == 0 and document["inputs"] == {"target": slug}
            assert list(document["results"]["sections"]) == [block.split(" ==")[0]]

    @pytest.mark.parametrize(
        "alias,slug",
        [("table", "character-table"), ("identities", "decomposition-identities")],
    )
    def test_short_targets_name_their_sections(self, capsys, alias, slug):
        assert run(capsys, "verify", alias) == run(capsys, "verify", slug)


class TestDecompose:
    def test_spec_example(self, capsys):
        code, out, _ = run(capsys, "decompose", "--rep", "sym^5(X')")
        assert code == 0
        assert out.strip() == "sym^5(X') = W"

    def test_json(self, capsys):
        code, document, _ = run_json(capsys, "decompose", "--rep", "sym^6(X')")
        assert code == 0
        assert document["results"]["decomposition"] == {"X2": 1, "W''": 1}
        assert document["results"]["dimension"] == "7"

    def test_semantic_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--rep", "sym^2(W)")
        assert code == 2
        assert "dimension 6" in err

    def test_deep_nesting_is_a_parse_error(self, capsys):
        deep = "(" * 3000 + "U" + ")" * 3000
        code, out, err = run(capsys, "decompose", "--rep", deep)
        assert code == 2
        assert out == ""
        assert "column 101" in err and "Traceback" not in err

    @pytest.mark.parametrize("power", [MAX_POWER + 1, 10_000_000])
    def test_power_above_the_bound_is_a_parse_error(self, capsys, power):
        start = time.perf_counter()
        code, out, err = run(capsys, "decompose", "--rep", f"sym^{power}(X')")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "column 5" in err and f"largest supported, {MAX_POWER}" in err

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run(capsys, "decompose", "--rep", "U + Q")
        assert code == 2
        assert "column 5" in err


class TestIrreps:
    def test_counts(self, capsys):
        code, document, _ = run_json(capsys, "irreps", "--m", "2")
        assert code == 0
        assert document["results"]["count"] == 18
        assert document["results"]["sum_of_squared_dims"] == 240
        assert document["results"]["two_dimensional_self_dual"] == []

    def test_odd_m_self_dual_pair(self, capsys):
        # a 2-dimensional (row, a) has a odd and is self-dual iff a is 0 or m
        for m in (1, 3):
            code, document, _ = run_json(capsys, "irreps", "--m", str(m))
            assert code == 0
            pair = document["results"]["two_dimensional_self_dual"]
            assert sorted((entry["row"], entry["exponent"]) for entry in pair) == [
                ("X'", m),
                ("X''", m),
            ]

    def test_bad_m(self, capsys):
        code, _, err = run(capsys, "irreps", "--m", "0")
        assert code == 2
        assert "at least 1" in err

    @pytest.mark.parametrize("m", [MAX_POWER + 1, 200_000])
    def test_m_above_the_bound(self, capsys, m):
        start = time.perf_counter()
        code, out, err = run(capsys, "irreps", "--m", str(m))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == f"error: --m must be at most {MAX_POWER}, got {m}\n"


class TestScanTrivial:
    def test_spec_example(self, capsys):
        code, out, _ = run(capsys, "scan-trivial", "--max", "30")
        assert code == 0
        assert "first trivial constituent at n = 12" in out

    @pytest.mark.parametrize("top", [MAX_POWER + 1, 100_000_000])
    def test_max_above_the_bound(self, capsys, top):
        start = time.perf_counter()
        code, out, err = run(capsys, "scan-trivial", "--max", str(top))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: --max must be at most {MAX_POWER}, got {top}\n"

    def test_json(self, capsys):
        code, document, _ = run_json(capsys, "scan-trivial", "--max", "13")
        assert code == 0
        mults = document["results"]["multiplicities"]
        assert mults["12"] == 1
        assert all(mults[str(n)] == 0 for n in range(1, 12))
        assert document["results"]["first_nonzero"] == 12


class TestCuspidality:
    def test_definite_verdict(self, capsys, facts_file):
        code, out, _ = run(
            capsys, "cuspidality", "--facts", facts_file, "--pi", "pi",
            "--pi-prime", "rho",
        )
        assert code == 0
        assert "[structural] cuspidal" in out
        assert "[pole-counting] cuspidal" in out

    def test_json_routes_agree(self, capsys, facts_file):
        code, document, _ = run_json(
            capsys, "cuspidality", "--facts", facts_file, "--pi", "pi",
            "--pi-prime", "rho",
        )
        assert code == 0
        results = document["results"]
        assert results["routes_agree"] is True
        assert results["structural"]["verdict"] == "cuspidal"
        assert results["pole_counting"]["pole_order"] == 1

    def test_a_pole_interval_from_2_up_agrees_with_not_cuspidal(self, capsys, tmp_path):
        path = tmp_path / "octpair.json"
        path.write_text(json.dumps({
            "bases": [{"name": "p", "type": "octahedral"}, {"name": "q", "type": "octahedral"}],
            "facts": [{"lhs": "Ad(p)", "rhs": "Ad(q)", "relation": "equiv", "truth": True}],
        }))
        argv = ("cuspidality", "--facts", str(path), "--pi", "p", "--pi-prime", "q")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert "  [structural] not-cuspidal\n" in out
        assert "  [pole-counting] not-cuspidal (pole order [2, 3])\n" in out
        assert "missing fact" not in out
        code, document, err = run_json(capsys, *argv)
        assert (code, err, document["results"]["routes_agree"]) == (0, "", True)
        assert document["results"]["pole_counting"]["pole_order"] == [2, 3]

    def test_unknown_base(self, capsys, facts_file):
        code, _, err = run(
            capsys, "cuspidality", "--facts", facts_file, "--pi", "pi",
            "--pi-prime", "ghost",
        )
        assert code == 2
        assert "ghost" in err

    def test_unreadable_facts(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "cuspidality", "--facts", str(tmp_path / "nope.json"),
            "--pi", "a", "--pi-prime", "b",
        )
        assert code == 2
        assert "cannot read" in err

    def test_unknown_galois_row(self, capsys, tmp_path):
        path = tmp_path / "bad_row.json"
        path.write_text(
            json.dumps(
                {"bases": [{"name": "pi", "type": "icosahedral", "galois_row": "Q"}]}
            )
        )
        code, _, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "pi",
            "--pi-prime", "pi",
        )
        assert code == 2
        assert "galois_row" in err

    @pytest.mark.parametrize(
        "doc,base,message",
        [
            (
                {"bases": [{"name": "t", "type": "tetrahedral", "galois_row": "X'"}]},
                "t",
                "bases[0]: base t: galois_row tags only an icosahedral base, not tetrahedral",
            ),
            (
                {
                    "bases": [{"name": "g", "type": "general"}],
                    "cuspidal": [
                        {"symbol": "sym^7(g)", "truth": True},
                        {"symbol": "sym^7(g)", "truth": False},
                    ],
                },
                "g",
                "cuspidal[1]: contradictory declarations of cuspidal for sym^7(g): True vs False",
            ),
            (
                {
                    "bases": [{"name": "p", "type": "icosahedral"}],
                    "facts": [{"lhs": "Ad(p)", "rhs": "Ad(p)", "relation": "equiv", "truth": False}],
                },
                "p",
                "facts[0]: sym^2(p)*omega(p)^-1 ~ sym^2(p)*omega(p)^-1 cannot be declared false: "
                "both sides reduce to sym^2(p)*omega(p)^-1",
            ),
            (
                {
                    "characters": [{"name": "chi", "order": 3}],
                    "bases": [{"name": "p", "type": "icosahedral"}],
                    "facts": [{"lhs": "chi^3", "rhs": "1", "relation": "equiv", "truth": False}],
                },
                "p",
                "facts[0]: chi^3 ~ 1 cannot be declared false: both sides reduce to 1",
            ),
            (
                {
                    "bases": [{"name": "q", "type": "tetrahedral"}],
                    "facts": [{"lhs": "eta(q)", "rhs": "1", "relation": "equiv", "truth": True}],
                },
                "q",
                "facts[0]: eta(q) ~ 1 cannot be declared true: then eta(q) would be 1, but "
                "eta(q) has order 3",
            ),
            (
                {
                    "characters": [{"name": "chi", "order": 3, "properties": ["quadratic"]}],
                    "bases": [{"name": "p", "type": "icosahedral"}],
                },
                "p",
                "characters[0]: character chi of order 3 cannot be quadratic",
            ),
            (
                {
                    "characters": [{"name": "chi", "properties": ["quadratic", "non-real"]}],
                    "bases": [{"name": "p", "type": "icosahedral"}],
                },
                "p",
                "characters[0]: chi cannot be declared non-real: chi^2 is 1",
            ),
            (
                {
                    "characters": [{"name": "nu", "properties": ["non-real"]}],
                    "bases": [{"name": "p", "type": "icosahedral"}],
                    "facts": [{"lhs": "nu", "rhs": "nu^-1", "relation": "equiv", "truth": True}],
                },
                "p",
                "facts[0]: nu ~ nu^-1 cannot be declared true: then nu^2 would be 1, but "
                "nu is non-real",
            ),
            (
                {
                    "characters": [{"name": "c", "order": 5}],
                    "bases": [{"name": "p", "type": "icosahedral"}],
                    "facts": [{"lhs": "c", "rhs": "c^-1", "relation": "equiv", "truth": True}],
                },
                "p",
                "facts[0]: c ~ c^4 cannot be declared true: then c would be 1, but "
                "c has order 5",
            ),
            (
                {
                    "bases": [{"name": "g", "type": "general"}],
                    "cuspidal": [{"symbol": "sym^7(g)", "truht": False}],
                },
                "g",
                "cuspidal[0]: unknown key 'truht'",
            ),
            (
                {
                    "bases": [{"name": "p", "type": "icosahedral"}],
                    "facts": [{"lhs": "Ad(p)", "rhs": "Ad(p)", "relation": "equiv",
                               "twist": "chi", "truth": False}],
                },
                "p",
                "facts[0]: unknown key 'twist' for relation 'equiv'",
            ),
            (
                {
                    "characters": [{"name": "c", "order": 2}],
                    "bases": [{"name": "p", "type": "icosahedral"}],
                    "facts": [{"lhs": "Ad(p)", "rhs": "Ad(p)", "relation": "twist-equiv-by",
                               "twist": "c", "truth": True}],
                },
                "p",
                "facts[0]: sym^2(p)*omega(p)^-1 ~ sym^2(p)*c*omega(p)^-1 cannot be declared "
                "true, as sym^2(p) admits no self-twist: then c would be 1, but c has order 2",
            ),
            (
                # this document used to load, and the query failed only in the
                # guard of decide_cuspidality, which names no entry
                {
                    "bases": [{"name": "q", "type": "octahedral"}],
                    "facts": [{"lhs": "Ad(q)", "rhs": "Ad(q)", "relation": "twist-equiv-by",
                               "twist": "mu(q)", "truth": True}],
                },
                "q",
                "facts[0]: sym^2(q)*omega(q)^-1 ~ sym^2(q)*mu(q)*omega(q)^-1 cannot be "
                "declared true, as sym^2(q) admits no self-twist: then mu(q) would be 1, but "
                "mu(q) has order 2",
            ),
            (
                {
                    "characters": [{"name": "c", "order": 5}],
                    "word_kinds": [{"word": "c^2", "kind": "trivial"}],
                },
                "p",
                "word_kinds[0]: c^2 cannot be declared trivial: then c would be 1, but c has order 5",
            ),
            (
                {
                    "characters": [{"name": "c", "order": 2}, {"name": "d", "order": 2}],
                    "facts": [
                        {"lhs": "c", "rhs": "d", "relation": "equiv", "truth": False},
                        {"lhs": "e", "rhs": "c", "relation": "equiv", "truth": True},
                        {"lhs": "e", "rhs": "d", "relation": "equiv", "truth": True},
                    ],
                },
                "p",
                "facts[2]: e ~ d cannot be declared true: then d*e would be 1, but "
                "declared: c ~ d is False",
            ),
            (
                {
                    "characters": [{"name": "chi0", "order": 2}, {"name": "chi4"}],
                    "word_kinds": [{"word": "chi4^2", "kind": "non-real"}],
                    "facts": [{"lhs": "chi0", "rhs": "chi4", "relation": "equiv", "truth": True}],
                },
                "p",
                "facts[0]: chi0 ~ chi4 cannot be declared true: then chi4^4 would be 1, but "
                "chi4^2 is non-real",
            ),
        ],
        ids=[
            "tagged-tetrahedral", "cuspidal-both-ways", "false-reflexive", "false-reduced",
            "cubic-trivial", "order-against-kind", "two-kinds", "non-real-inverse",
            "order-5-inverse", "unknown-key", "twist-on-equiv", "icosahedral-self-twist",
            "octahedral-self-twist", "order-5-word-trivial", "involution-between-two",
            "non-real-square-of-an-involution",
        ],
    )
    def test_refused_declarations_exit_2(self, capsys, tmp_path, doc, base, message):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", base, "--pi-prime", base
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_both_adjoint_facts_true_exit_2_at_query_time(self, capsys, tmp_path):
        """Each fact alone is consistent; together they force a quadratic
        self-twist on Ad(q), which only the query sees."""
        path = tmp_path / "both_adjoints.json"
        path.write_text(json.dumps({
            "bases": [{"name": "p", "type": "icosahedral"}, {"name": "q", "type": "octahedral"}],
            "facts": [
                {"lhs": "Ad(p)", "rhs": "Ad(q)", "relation": "equiv", "truth": True},
                {"lhs": "Ad(p)", "rhs": "Ad(q)", "relation": "twist-equiv-by",
                 "twist": "mu(q)", "truth": True},
            ],
        }))
        argv = ("cuspidality", "--facts", str(path), "--pi", "p", "--pi-prime", "q")
        assert run(capsys, *argv) == (
            2, "", "error: inconsistent ledger: both adjoint facts true would force a quadratic "
            "self-twist on Ad(q), impossible for an octahedral (non-dihedral) base\n"
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"bases": "pi"},
            {"bases": [5]},
            {"characters": {"name": "chi"}},
            {"facts": [["Ad(pi)", "Ad(pi)"]]},
            {"characters": [{"name": "chi", "order": True}]},
        ],
        ids=["bases-str", "bases-int", "characters-object", "fact-list", "bool-order"],
    )
    def test_malformed_facts_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "pi",
            "--pi-prime", "pi",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_name_both_base_and_character_exit_2(self, capsys, tmp_path):
        path = tmp_path / "collision.json"
        path.write_text(
            json.dumps(
                {
                    "characters": [{"name": "chi", "order": 2}],
                    "bases": [
                        {"name": "chi", "type": "icosahedral"},
                        {"name": "pi", "type": "icosahedral"},
                    ],
                }
            )
        )
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "pi",
            "--pi-prime", "chi",
        )
        assert code == 2
        assert out == ""
        assert err == "error: bases[0]: chi is declared as a character, not a base\n"

    @pytest.mark.parametrize(
        "doc,message",
        [
            (
                {"characters": [{"name": "x^2"}],
                 "word_kinds": [{"word": "x^2", "kind": "non-real"}]},
                "characters[0]: name 'x^2' does not read back as itself in a symbol",
            ),
            (
                {"characters": [{"name": "1", "properties": ["quadratic"]}]},
                "characters[0]: name '1' does not read back as itself in a symbol",
            ),
            (
                {"bases": [{"name": "a*b", "type": "general"}]},
                "bases[0]: name 'a*b' does not read back as itself in a symbol",
            ),
        ],
        ids=["exponent", "trivial", "product"],
    )
    def test_a_name_a_symbol_reads_otherwise_exit_2(self, capsys, tmp_path, doc, message):
        path = tmp_path / "name.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "siegel", "--m", "12", "--facts", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("swap", [False, True], ids=["dihedral-first", "general-first"])
    def test_two_base_changes_to_one_field_exit_2(self, capsys, tmp_path, swap):
        changes = [
            {"of": "q", "extension": "E", "name": "qE", "type": "dihedral"},
            {"of": "q", "extension": "E", "name": "qE2", "type": "general"},
        ]
        if swap:
            changes.reverse()
        bases = [
            {"name": "p", "type": "dihedral", "dihedral_field": "E", "dihedral_char": "xi"},
            {"name": "q", "type": "icosahedral"},
        ]
        path = tmp_path / "bc.json"
        path.write_text(json.dumps({"bases": bases, "base_changes": changes}))
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "p", "--pi-prime", "q"
        )
        names = " vs ".join(c["name"] for c in changes)
        assert (code, out) == (2, "")
        assert err == (
            "error: base_changes[1]: contradictory declarations of the base change "
            f"of q to E: {names}\n"
        )

    def test_base_named_like_a_dihedral_conjugate_exit_2(self, capsys, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(
            json.dumps(
                {
                    "bases": [
                        {"name": "d", "type": "dihedral",
                         "dihedral_field": "E", "dihedral_char": "xi"},
                        {"name": "xi@theta", "type": "icosahedral"},
                        {"name": "r", "type": "icosahedral"},
                    ],
                    "base_changes": [
                        {"of": "r", "extension": "E", "name": "r_E", "type": "tetrahedral"}
                    ],
                }
            )
        )
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "d", "--pi-prime", "r"
        )
        assert code == 2
        assert out == ""
        assert err == "error: bases[1]: xi@theta is declared as a character, not a base\n"

    def test_cusp_form_as_twist_exit_2(self, capsys, tmp_path):
        path = tmp_path / "twist.json"
        path.write_text(
            json.dumps(
                {
                    "bases": [
                        {"name": "pi", "type": "icosahedral"},
                        {"name": "rho", "type": "icosahedral"},
                    ],
                    "word_kinds": [{"word": "Ad(pi)", "kind": "quadratic"}],
                }
            )
        )
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "pi",
            "--pi-prime", "rho",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: word_kinds[0]: 'Ad(pi)' is a cusp form, not a character\n"
        )

    def test_a_true_fact_between_different_degrees_exit_2(self, capsys, tmp_path):
        path = tmp_path / "degrees.json"
        path.write_text(
            json.dumps(
                {
                    "bases": [
                        {"name": "a", "type": "icosahedral"},
                        {"name": "b", "type": "icosahedral"},
                    ],
                    "facts": [
                        {"lhs": "Ad(a)", "rhs": "sym^3(b)", "relation": "equiv", "truth": True}
                    ],
                }
            )
        )
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "a", "--pi-prime", "b"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: facts[0]: sym^2(a)*omega(a)^-1 ~ sym^3(b) cannot be declared true: "
            "degrees differ (3 vs 4)\n"
        )

    @pytest.mark.parametrize(
        "argv", [["cuspidality", "--pi", "pi", "--pi-prime", "pi"], ["siegel", "--m", "6"]]
    )
    def test_a_power_above_the_bound_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "power.json"
        symbol = "sym^10000000(pi)"
        path.write_text(
            json.dumps(
                {
                    "bases": [{"name": "pi", "type": "icosahedral", "galois_row": "X'"}],
                    "facts": [{"lhs": symbol, "rhs": symbol, "relation": "equiv", "truth": True}],
                }
            )
        )
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--facts", str(path))
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == (
            f"error: facts[0]: power above the largest supported, {MAX_POWER}, "
            f"in {symbol!r}\n"
        )

    @pytest.mark.parametrize(
        "base,entry,reason",
        [
            ({"name": "t", "type": "tetrahedral"}, {"symbol": "sym^7(t)"},
             "sym^7(t) cannot be declared cuspidal: finite image: sym^7 is reducible on the "
             "binary tetrahedral group, whose irreducibles have degree at most 3"),
            ({"name": "t", "type": "icosahedral", "galois_row": "X'"}, {"symbol": "sym^7(t)"},
             "sym^7(t) cannot be declared cuspidal: finite image: sym^7 restriction is "
             "reducible (['W', \"X''\"])"),
            ({"name": "t", "type": "icosahedral"}, {"symbol": "sym^5(t)", "truth": False},
             "sym^5(t) cannot be declared not cuspidal: finite image: sym^5 is irreducible on "
             "the binary icosahedral group, whose irreducibles have degree at most 6"),
        ],
        ids=["type", "tag", "icosahedral-sym5"],
    )
    def test_a_cuspidal_entry_the_ledger_contradicts_exit_2(
        self, capsys, tmp_path, base, entry, reason
    ):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"bases": [base], "cuspidal": [entry]}))
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "t", "--pi-prime", "t"
        )
        assert (code, out, err) == (2, "", f"error: cuspidal[0]: {reason}\n")

    def test_sym3_declared_not_automorphic_exit_2(self, capsys, tmp_path):
        path = tmp_path / "sym3.json"
        path.write_text(
            json.dumps(
                {
                    "bases": [{"name": "g", "type": "general"}],
                    "automorphic": [{"symbol": "sym^3(g)", "truth": False}],
                }
            )
        )
        code, out, err = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "g", "--pi-prime", "g"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: automorphic[0]: sym^3(g) cannot be declared not automorphic: "
            "sym^3 is automorphic (Kim-Shahidi 2002)\n"
        )

    @pytest.mark.parametrize(
        "base,symbol,reason",
        [
            ({"name": "f", "type": "icosahedral", "galois_row": "X'"}, "sym^5(f)",
             "finite image: sym^5 restriction is irreducible"),
            ({"name": "f", "type": "icosahedral"}, "sym^5(f)",
             "finite image: sym^5 is irreducible on the binary icosahedral group, "
             "whose irreducibles have degree at most 6"),
            ({"name": "f", "type": "general"}, "sym^7(f)", "declared: sym^7(f) cuspidal is True"),
        ],
        ids=["tagged-sym5", "untagged-sym5", "declared-sym7"],
    )
    def test_a_cuspidal_symbol_declared_not_automorphic_exit_2(
        self, capsys, tmp_path, base, symbol, reason
    ):
        doc = {"bases": [base], "automorphic": [{"symbol": symbol, "truth": False}]}
        if base["type"] == "general":
            doc["cuspidal"] = [{"symbol": symbol, "truth": True}]
        path = tmp_path / "automorphic.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "siegel", "--m", "5", "--facts", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: automorphic[0]: {symbol} cannot be declared not automorphic: "
            f"it is cuspidal ({reason})\n"
        )

    def test_missing_facts_reported(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(
            json.dumps(
                {
                    "bases": [
                        {"name": "pi", "type": "icosahedral"},
                        {"name": "rho", "type": "tetrahedral"},
                    ]
                }
            )
        )
        code, out, _ = run(
            capsys, "cuspidality", "--facts", str(path), "--pi", "pi",
            "--pi-prime", "rho",
        )
        assert code == 0
        assert "undetermined" in out
        assert "missing fact" in out


# the refusals of a default name that a file takes for something else
DEFAULT_PI = "pi, the default base when no base is tagged, is declared as "
PARTNER = "pi_tau, the Galois partner of pi, is declared as "
UNTAGGED = "a base without galois_row X'"


class TestSiegel:
    def test_single_report(self, capsys):
        code, out, _ = run(capsys, "siegel", "--m", "12")
        assert code == 0
        assert "exceptional-case" in out
        assert "Q = chi*omega(pi)^6" in out
        assert "sources:" in out

    def test_scan_json(self, capsys):
        code, document, _ = run_json(capsys, "siegel", "--scan", "0..5")
        assert code == 0
        reports = document["results"]["reports"]
        assert len(reports) == 6
        assert all(r["verdict"] == "no-siegel-zero" for r in reports)
        assert any(c["rule"] == "auxiliary-expansion" for c in document["citations"])

    def test_a_word_kind_against_its_generators_exits_2(self, capsys, tmp_path):
        path = tmp_path / "trivial.json"
        doc = {"characters": [{"name": "c", "order": 1}], "siegel": {"chi": "c"}}
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "siegel", "--m", "0", "--facts", str(path))
        assert code == 0 and "c -> exceptional-case" in out
        # declared non-real, the trivial c would rule the exceptional case out
        path.write_text(json.dumps({**doc, "word_kinds": [{"word": "c", "kind": "non-real"}]}))
        assert run(capsys, "siegel", "--m", "0", "--facts", str(path)) == (
            2, "", "error: word_kinds[0]: c cannot be declared non-real: c^2 is 1\n"
        )

    def test_a_quadratic_character_declared_not_self_dual_exit_2(self, capsys, tmp_path):
        """Declared not self-dual, a quadratic character would read as ruling
        the exceptional case out, though it is its own inverse."""
        path = tmp_path / "quadratic.json"
        doc = {"characters": [{"name": "c", "properties": ["quadratic"]}], "siegel": {"chi": "c"}}
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "siegel", "--m", "0", "--facts", str(path))
        assert code == 0 and "c -> exceptional-case" in out
        path.write_text(json.dumps({**doc, "self_dual": [{"symbol": "c", "truth": False}]}))
        assert run(capsys, "siegel", "--m", "0", "--facts", str(path)) == (
            2, "", "error: self_dual[0]: c ~ c^-1 cannot be declared false: "
            "both sides reduce to c\n"
        )

    def test_an_order_2_character_is_not_non_real_exit_2(self, capsys, tmp_path):
        """Declared non-real, a character of order 2 would read as ruling the
        exceptional case out, though it is real."""
        path = tmp_path / "order2.json"
        doc = {"characters": [{"name": "c", "order": 2, "properties": ["non-real"]}],
               "siegel": {"chi": "c"}}
        path.write_text(json.dumps(doc))
        assert run(capsys, "siegel", "--m", "0", "--facts", str(path)) == (
            2, "", "error: characters[0]: character c of order 2 cannot be non-real\n"
        )

    def test_a_base_named_chi_with_another_twist(self, capsys, tmp_path):
        """The default twist chi is needed only when the document names none."""
        path = tmp_path / "chi_base.json"
        doc = {
            "bases": [{"name": "chi", "type": "icosahedral", "galois_row": "X'"}],
            "characters": [{"name": "psi"}],
            "siegel": {"p": "chi", "chi": "psi"},
        }
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "siegel", "--m", "0", "--facts", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("m = 0: psi -> no-siegel-zero\n")
        code, document, _ = run_json(capsys, "siegel", "--m", "12", "--facts", str(path))
        assert code == 0 and document["results"]["target"] == "sym^12(chi)*psi"
        del doc["siegel"]["chi"]
        path.write_text(json.dumps(doc))
        assert run(capsys, "siegel", "--m", "0", "--facts", str(path)) == (
            2, "", "error: chi, the default twist, is declared as a base\n"
        )

    def test_facts_file_inputs(self, capsys, tmp_path):
        path = tmp_path / "siegel.json"
        path.write_text(
            json.dumps(
                {
                    "characters": [
                        {"name": "nu", "order": 5, "properties": ["non-real"]}
                    ],
                    "bases": [
                        {"name": "f", "type": "icosahedral", "galois_row": "X'"}
                    ],
                    "word_kinds": [
                        {"word": "nu*omega(f)^6", "kind": "non-real"}
                    ],
                    "siegel": {"p": "f", "chi": "nu"},
                }
            )
        )
        code, document, _ = run_json(
            capsys, "siegel", "--m", "12", "--facts", str(path)
        )
        assert code == 0
        # the candidate character nu*omega(f)^6 is declared non-real,
        # which rules the exceptional case out
        assert document["results"]["verdict"] == "no-siegel-zero"
        assert document["results"]["target"] == "sym^12(f)*nu"

    @pytest.mark.parametrize(
        "symbol,verdict",
        [
            (None, "exceptional-case"),
            ("sym^12(pi)*chi", "no-siegel-zero"),
            ("chi * sym^12(pi)", "no-siegel-zero"),
            ("sym^12(pi) * chi", "no-siegel-zero"),
            ("sym^11(pi)*chi", "exceptional-case"),
            ("sym^12(pi)", "exceptional-case"),
        ],
    )
    def test_self_dual_matched_by_symbol(self, capsys, tmp_path, symbol, verdict):
        doc = {"bases": [{"name": "pi", "type": "icosahedral", "galois_row": "X'"}]}
        if symbol is not None:
            doc["self_dual"] = [{"symbol": symbol, "truth": False}]
        path = tmp_path / "self_dual.json"
        path.write_text(json.dumps(doc))
        code, document, _ = run_json(
            capsys, "siegel", "--m", "12", "--facts", str(path)
        )
        assert code == 0
        assert document["results"]["verdict"] == verdict

    def test_self_dual_of_an_undeclared_base_exit_2(self, capsys, tmp_path):
        path = tmp_path / "nobody.json"
        path.write_text(
            json.dumps(
                {
                    "bases": [{"name": "pi", "type": "icosahedral", "galois_row": "X'"}],
                    "self_dual": [{"symbol": "sym^12(nobody)*chi", "truth": False}],
                }
            )
        )
        code, out, err = run(capsys, "siegel", "--m", "12", "--facts", str(path))
        assert code == 2
        assert out == ""
        assert "undeclared base 'nobody'" in err

    def test_alternative_normalization_names_the_base_and_twist(self, capsys, tmp_path):
        path = tmp_path / "alt.json"
        path.write_text(
            json.dumps(
                {
                    "characters": [{"name": "nu"}],
                    "bases": [
                        {"name": "f", "type": "icosahedral", "galois_row": "X'", "omega": "w"}
                    ],
                    "siegel": {"p": "f", "chi": "nu"},
                }
            )
        )
        code, out, _ = run(capsys, "siegel", "--m", "12", "--facts", str(path))
        assert code == 0
        assert "(Q = nu*w^6; alternative normalization w^(12/2)*nu^(13);" in out

    def test_chi_declared_with_an_order_and_no_tagged_base(self, capsys, tmp_path):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"characters": [{"name": "chi", "order": 2}]}))
        code, out, err = run(capsys, "siegel", "--m", "12", "--facts", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("m = 12: sym^12(pi)*chi -> exceptional-case")

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_a_true_fact_on_the_pair_exits_2(self, capsys, tmp_path, flags):
        # f and g restrict to different rows, so no fact makes them equivalent
        path = tmp_path / "pair.json"
        path.write_text(
            json.dumps(
                {
                    "bases": [
                        {"name": "f", "type": "icosahedral", "galois_row": "X'"},
                        {"name": "g", "type": "icosahedral", "galois_row": "X''"},
                    ],
                    "facts": [{"lhs": "f", "rhs": "g", "relation": "equiv", "truth": True}],
                    "siegel": {"p": "f"},
                }
            )
        )
        code, out, err = run(capsys, "siegel", "--m", "6", "--facts", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == (
            "error: facts[0]: f ~ g cannot be declared true: "
            "finite-image restrictions differ: [\"X'\"] vs [\"X''\"]\n"
        )

    def test_a_missing_hypothesis_says_why_in_text(self, capsys, tmp_path):
        path = tmp_path / "sym7.json"
        path.write_text(
            json.dumps(
                {
                    "bases": [{"name": "f", "type": "icosahedral", "galois_row": "X'"}],
                    "automorphic": [{"symbol": "sym^7(f)", "truth": False}],
                }
            )
        )
        code, out, err = run(capsys, "siegel", "--m", "5", "--facts", str(path))
        assert (code, err) == (0, "")
        assert out.startswith(
            "m = 5: sym^5(f)*chi -> not-covered\n"
            "  1 x twist of sym^5(f) (W): auxiliary-expansion\n"
            "      because not covered; missing hypotheses: "
            "hypothesis fails: declared: sym^7(f) automorphic is False\n"
            "sources: "
        )
        # a covered report carries no reason line
        code, out, _ = run(capsys, "siegel", "--m", "12", "--facts", str(path))
        assert code == 0
        assert "because" not in out

    def test_family_labels_follow_the_tagged_base(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps({"bases": [{"name": "f", "type": "icosahedral", "galois_row": "X'"}]})
        )
        code, out, _ = run(capsys, "siegel", "--m", "12", "--facts", str(path))
        assert code == 0
        assert "  1 x twist of sym^4(f) (V): auxiliary-expansion [k=4 > r=3]\n" in out
        assert "  1 x twist of box(f, f_tau) (X2): rankin-selberg-pair\n" in out
        assert "pi" not in out

    @pytest.mark.parametrize(
        "doc,what",
        [
            ({"bases": [{"name": "f_tau", "type": "general"}]}, "a base without galois_row X''"),
            ({"characters": [{"name": "f_tau"}]}, "a character"),
        ],
        ids=["base", "character"],
    )
    def test_galois_partner_name_clash_exit_2(self, capsys, tmp_path, doc, what):
        tagged = {"name": "f", "type": "icosahedral", "galois_row": "X'"}
        doc = {**doc, "bases": [tagged, *doc.get("bases", [])]}
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "siegel", "--m", "12", "--facts", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: f_tau, the Galois partner of f, is declared as {what}\n"
        with pytest.raises(LedgerError) as refused:
            conjugate_pair(load_facts(doc))
        assert f"error: {refused.value}\n" == err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"bases": [{"name": "pi", "type": "icosahedral"}]}, DEFAULT_PI + UNTAGGED),
            ({"bases": [{"name": "pi", "type": "tetrahedral"}]}, DEFAULT_PI + UNTAGGED),
            ({"characters": [{"name": "pi_tau"}]}, PARTNER + "a character"),
            ({"characters": [{"name": "pi"}]}, DEFAULT_PI + "a character"),
            ({"bases": [{"name": "pi_tau", "type": "general"}]}, PARTNER + "a base without galois_row X''"),
            (
                {"bases": [{"name": "omega(pi)", "type": "general"}]},
                "omega(pi), the central character of the default base pi, is declared as a base",
            ),
            (
                {"bases": [{"name": "chi", "type": "general"}]},
                "chi, the default twist, is declared as a base",
            ),
        ],
        ids=["untagged-icosahedral", "tetrahedral", "character", "pi-character", "pi_tau-base",
             "omega-base", "chi-base"],
    )
    def test_standard_pair_name_clash_exit_2(self, capsys, tmp_path, doc, message):
        """A file that tags no base gets the default pi, pi_tau, omega(pi) and
        chi as values; a name it takes for something else is refused."""
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(doc))
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "siegel", "--m", "12", "--facts", str(path), *flags)
            assert (code, out, err) == (2, "", f"error: {message}\n")
        if not message.startswith("chi, the default twist"):  # the twist is the report's own
            with pytest.raises(LedgerError) as refused:
                conjugate_pair(load_facts(doc))
            assert str(refused.value) == message

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_an_untagged_base_named_chi_with_another_twist(self, capsys, tmp_path, flags):
        """The twist c leaves the name chi free, so a file that tags no base
        may call a base chi: it reads as the same file with the base renamed."""
        path = tmp_path / "chi_base.json"
        outputs = []
        for name in ("chi", "rho"):
            doc = {
                "bases": [{"name": name, "type": "icosahedral"}],
                "characters": [{"name": "c"}],
                "siegel": {"chi": "c"},
            }
            path.write_text(json.dumps(doc))
            outputs.append([run(capsys, "siegel", "--m", str(m), "--facts", str(path), *flags)
                            for m in (0, 3, 12)])
        assert all(code == 0 and err == "" for code, _, err in outputs[0])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("m", [MAX_POWER + 1, 10_000_000])
    def test_m_above_the_bound(self, capsys, m):
        start = time.perf_counter()
        code, out, err = run(capsys, "siegel", "--m", str(m))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == f"error: --m must be at most {MAX_POWER}, got {m}\n"

    @pytest.mark.parametrize("scan", ["10001..10001", "0..10001", "5..100000000"])
    def test_scan_ending_above_the_bound(self, capsys, scan):
        start = time.perf_counter()
        code, out, err = run(capsys, "siegel", "--scan", scan)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        top = scan.partition("..")[2]
        assert err == f"error: --scan must end at most {MAX_POWER}, got {top}\n"

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "siegel", "--scan", "12")
        assert code == 2

    def test_m_and_scan_conflict(self, capsys):
        code, _, _ = run(capsys, "siegel", "--m", "3", "--scan", "0..5")
        assert code == 2

    def test_negative_m(self, capsys):
        code, _, err = run(capsys, "siegel", "--m", "-3")
        assert code == 2
        assert "nonnegative" in err


class TestDispatch:
    def test_no_arguments(self, capsys):
        assert cmd_dispatch([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cmd_dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cmd_dispatch(["--help"]) == 0
        out = capsys.readouterr().out
        assert "chartab" in out

    def test_a_contradiction_reads_the_same_under_any_hash_seed(self, tmp_path):
        path = tmp_path / "contradiction.json"
        fact = {"lhs": "Ad(pi)", "rhs": "Ad(rho)", "relation": "equiv"}
        path.write_text(json.dumps({
            "bases": [{"name": "pi", "type": "icosahedral"}, {"name": "rho", "type": "icosahedral"}],
            "facts": [{**fact, "truth": True}, {**fact, "truth": False}],
        }))
        argv = [sys.executable, "-m", "icosym.cli", "cuspidality", "--facts", str(path),
                "--pi", "pi", "--pi-prime", "rho"]
        errors = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert (proc.returncode, proc.stdout) == (2, "")
            errors.add(proc.stderr)
        assert errors == {
            "error: facts[1]: contradictory assertions for sym^2(pi)*omega(pi)^-1 ~ "
            "sym^2(rho)*omega(rho)^-1: True vs False\n"
        }

    def test_a_closed_stdout_exits_2_without_a_traceback(self):
        # the scan's JSON is far larger than a pipe buffer, so the write
        # after the reader has gone must meet the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "icosym.cli", "siegel", "--scan", "0..200", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.count("error:") <= 1

    def test_stdout_and_stderr_in_one_closed_pipe_exit_2(self):
        # as in `icosym siegel ... 2>&1 | head -1`: the handler's own
        # message meets the same closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "icosym.cli", "siegel", "--scan", "0..200", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_a_full_stdout_exits_2_without_a_traceback(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "icosym.cli", "siegel", "--m", "3"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: stdout unwritable (No space left on device) before the output was complete\n"
        )


# -- generated command lines ---------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"
SUBCOMMANDS = ("chartab", "verify", "decompose", "irreps", "scan-trivial", "cuspidality", "siegel")
FLAGS = ("--json", "--help", "--rep", "--m", "--max", "--facts", "--pi", "--pi-prime", "--scan")
WORDS = (
    "all", "table", "identities", "product-rule", "pi", "rho", "f", "d",
    "sym^5(X')", "X'*W + dual(U)", "sym^3(W)", "U + Q",
)
# no decimal digit, so junk never reads as a (large) number, and no "/",
# so it never names a device file
JUNK = st.text(
    alphabet=st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="/"),
    max_size=12,
)
TOKENS = st.one_of(
    st.sampled_from(SUBCOMMANDS + FLAGS + WORDS),
    st.integers(-60, 60).map(str),
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    st.sampled_from(("README", "absent")),  # a facts file, good or missing
    JUNK,
)
ARGV = st.tuples(st.sampled_from(SUBCOMMANDS), st.lists(TOKENS, max_size=6)).map(
    lambda head_tail: [head_tail[0], *head_tail[1]]
) | st.lists(TOKENS, max_size=4)


@pytest.fixture(scope="module")
def facts_paths(tmp_path_factory):
    good = tmp_path_factory.mktemp("facts") / "readme.json"
    text = README.read_text()
    good.write_text(text[text.index('{\n  "characters"') : text.index("\n}\n```") + 2])
    return {"README": str(good), "absent": str(good.with_name("absent.json"))}


@settings(max_examples=150, deadline=None)
@given(argv=ARGV)
def test_dispatch_answers_every_command_line(facts_paths, argv):
    """Any argv gets exit 0 or a usage error, never a traceback; exit 1
    (a failed verification) cannot be forced from the command line."""
    argv = [facts_paths.get(token, token) for token in argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cmd_dispatch(argv)
    assert code in (0, 2), (argv, sink.getvalue())
    assert time.perf_counter() - start < 1, argv
