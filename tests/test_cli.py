"""Command-line behavior: outputs, JSON documents, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icosym.chartab import IRREP_NAMES
from icosym.cli import cmd_dispatch
from icosym.repexpr import MAX_POWER
from icosym.report import CheckResult
from icosym.verify import VERIFY_SECTIONS

ENVELOPE_KEYS = {"command", "inputs", "results", "citations"}


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


class TestVerify:
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
        code, document, _ = run_json(capsys, "irreps", "--m", "3")
        assert code == 0
        pair = document["results"]["two_dimensional_self_dual"]
        assert {entry["row"] for entry in pair} == {"X'", "X''"}

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
        assert err == "error: chi is declared as a character, not a base\n"

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
        assert err == "error: xi@theta is declared as a character, not a base\n"

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

    @pytest.mark.parametrize("m", [MAX_POWER + 1, 10_000_000])
    def test_m_above_the_bound(self, capsys, m):
        start = time.perf_counter()
        code, out, err = run(capsys, "siegel", "--m", str(m))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == f"error: --m must be at most {MAX_POWER}, got {m}\n"

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
