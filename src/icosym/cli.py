"""Command-line surface.

Every subcommand prints human-readable text by default and a single JSON
document with ``--json``; exit codes are 0 for success, 1 for a failed
verification, 2 for usage or parse errors and for a stdout closed or full
before the output was complete.

Each ``cmd_*`` imports the layers it uses once its arguments have passed
their checks, so a command runs only those.  ``verify`` takes ``all``,
``table``, ``identities``, or one section of ``verify.VERIFY_SECTIONS`` by
its name with hyphens for spaces (``product-rule``).  ``siegel --facts``
passes on the base and the twist that the file's ``siegel`` section names,
if any; :mod:`icosym.siegel` picks the rest, and nothing here writes the
ledger.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import MAX_POWER

# -- plumbing ----------------------------------------------------------------


def _emit(command: str, inputs: dict, results, citations=()) -> None:
    import json

    document = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "citations": list(citations),
    }
    print(json.dumps(document, indent=2))


def _rule_citations(rule_names) -> list[dict]:
    from .rules import RULES

    out = []
    for name in dict.fromkeys(rule_names):
        rule = RULES.get(name)
        out.append({"rule": name, "sources": list(rule.citations) if rule else []})
    return out


# -- chartab -----------------------------------------------------------------


def cmd_chartab(args) -> int:
    from .chartab import IRREP_NAMES, default_table

    tab = default_table()
    classes = tab.group.classes
    rows = {name: [str(v) for v in tab.row(name).values] for name in IRREP_NAMES}
    if args.json:
        _emit(
            "chartab",
            {},
            {
                "classes": [
                    {"index": c.index + 1, "size": c.size, "element_order": c.element_order}
                    for c in classes
                ],
                "rows": rows,
                "dimensions": {name: tab.dim(name) for name in IRREP_NAMES},
            },
        )
        return 0
    header = [
        ["class"] + [str(c.index + 1) for c in classes],
        ["size"] + [str(c.size) for c in classes],
        ["order"] + [str(c.element_order) for c in classes],
    ]
    body = [[name] + rows[name] for name in IRREP_NAMES]
    table = header + body
    widths = [max(len(line[i]) for line in table) for i in range(10)]
    for line_no, line in enumerate(table):
        print("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
        if line_no == 2:
            print("-" * (sum(widths) + 18))
    return 0


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import VERIFY_SECTIONS, all_passed, format_report, verify_all

    if args.target == "all":
        sections = verify_all()
    else:
        # a section by its name with hyphens for spaces, e.g. product-rule
        runs = {name.replace(" ", "-"): (name, run) for name, run in VERIFY_SECTIONS}
        aliases = {"table": "character-table", "identities": "decomposition-identities"}
        target = aliases.get(args.target, args.target)
        if target not in runs:
            raise ValueError(
                f"unknown verify target {args.target!r}; pick all, table, "
                f"identities or one of: {', '.join(runs)}"
            )
        name, run = runs[target]
        sections = {name: run()}
    passed = all(all_passed(results) for results in sections.values())
    if args.json:
        _emit(
            "verify",
            {"target": args.target},
            {
                "sections": {
                    name: [r.as_json() for r in results]
                    for name, results in sections.items()
                },
                "passed": passed,
            },
        )
    else:
        for name, results in sections.items():
            print(f"== {name} ==")
            print(format_report(results))
        total = sum(len(results) for results in sections.values())
        bad = sum(
            sum(not r.passed for r in results) for results in sections.values()
        )
        print(f"overall: {total - bad}/{total} checks passed")
    return 0 if passed else 1


# -- decompose ---------------------------------------------------------------


def cmd_decompose(args) -> int:
    from .chartab import default_table, format_decomposition
    from .repexpr import evaluate, parse, render

    expr = parse(args.rep)
    f = evaluate(expr)
    mults = default_table().decompose(f)
    if args.json:
        _emit(
            "decompose",
            {"rep": args.rep},
            {
                "expression": render(expr),
                "dimension": str(f.dim()),
                "values": [str(v) for v in f.values],
                "decomposition": mults,
            },
        )
    else:
        print(f"{render(expr)} = {format_decomposition(mults)}")
    return 0


# -- irreps ------------------------------------------------------------------


def cmd_irreps(args) -> int:
    if args.m < 1:
        raise ValueError(f"--m must be at least 1, got {args.m}")
    if args.m > MAX_POWER:
        raise ValueError(f"--m must be at most {MAX_POWER}, got {args.m}")
    from .icostruct import classify_irreps, dim_irrep, is_self_dual

    irreps = classify_irreps(args.m)
    listing = [
        {
            "row": r.base,
            "exponent": r.exponent,
            "dim": dim_irrep(r),
            "self_dual": is_self_dual(r, args.m),
        }
        for r in irreps
    ]
    square_sum = sum(entry["dim"] ** 2 for entry in listing)
    # the self-dual 2-dimensional entries, read off the listing
    two_dim = [
        r for r, entry in zip(irreps, listing) if entry["dim"] == 2 and entry["self_dual"]
    ]
    if args.json:
        _emit(
            "irreps",
            {"m": args.m},
            {
                "count": len(listing),
                "irreps": listing,
                "sum_of_squared_dims": square_sum,
                "two_dimensional_self_dual": [
                    {"row": r.base, "exponent": r.exponent} for r in two_dim
                ],
                "center_order_divisible_by_4": (2 * args.m) % 4 == 0,
            },
        )
        return 0
    print(f"m = {args.m}: {len(listing)} irreducibles, sum of squares {square_sum}")
    for r, entry in zip(irreps, listing):
        tag = "  self-dual" if entry["self_dual"] else ""
        print(f"  {r}  dim {entry['dim']}{tag}")
    if two_dim:
        print(f"self-dual 2-dimensional: {', '.join(map(str, two_dim))}")
    else:
        print("self-dual 2-dimensional: none")
    return 0


# -- scan-trivial ------------------------------------------------------------


def cmd_scan_trivial(args) -> int:
    if args.max < 1:
        raise ValueError(f"--max must be at least 1, got {args.max}")
    if args.max > MAX_POWER:
        raise ValueError(f"--max must be at most {MAX_POWER}, got {args.max}")
    from .icostruct import scan_trivial

    scan = scan_trivial(args.max)
    # sym^0 is the trivial character itself; the first positive power matters
    first = next((n for n in sorted(scan) if n >= 1 and scan[n] > 0), None)
    if args.json:
        _emit(
            "scan-trivial",
            {"max": args.max},
            {
                "multiplicities": {str(n): scan[n] for n in sorted(scan)},
                "first_nonzero": first,
            },
        )
        return 0
    for n in sorted(scan):
        marker = "  <-" if scan[n] else ""
        print(f"sym^{n:>2}: {scan[n]}{marker}")
    if first is not None:
        print(f"first trivial constituent at n = {first}")
    else:
        print("no trivial constituent at any positive power in range")
    return 0


# -- cuspidality -------------------------------------------------------------


def cmd_cuspidality(args) -> int:
    from .factsfile import FactsError, load_facts_file
    from .isobaric import decide_cuspidality, decide_cuspidality_via_poles

    ledger, _ = load_facts_file(args.facts)
    for name in (args.pi, args.pi_prime):
        if name not in ledger.bases:
            raise FactsError(f"base {name!r} is not declared in {args.facts}")
    p = ledger.bases[args.pi]
    q = ledger.bases[args.pi_prime]
    structural = decide_cuspidality(p, q, ledger)
    pole = None
    if p.typ != "dihedral" and q.typ != "dihedral":
        pole = decide_cuspidality_via_poles(p, q, ledger)
    agree = None if pole is None else structural.verdict == pole.verdict
    if args.json:
        _emit(
            "cuspidality",
            {"facts": str(args.facts), "pi": args.pi, "pi_prime": args.pi_prime},
            {
                "product": f"{args.pi} (x) sym^2({args.pi_prime})",
                "structural": structural.as_json(),
                "pole_counting": None if pole is None else pole.as_json(),
                "routes_agree": agree,
            },
        )
    else:
        print(f"{args.pi} (x) sym^2({args.pi_prime}):")
        for verdict in filter(None, (structural, pole)):
            line = f"  [{verdict.route}] {verdict.verdict}"
            if verdict.pole is not None:
                line += f" (pole order {verdict.pole})"
            print(line)
            for w in verdict.texts("witnesses"):
                print(f"      because {w}")
            for m in verdict.texts("missing"):
                print(f"      missing fact: {m}")
    if agree is False:
        print("error: the two routes disagree", file=sys.stderr)
        return 1
    return 0


# -- siegel ------------------------------------------------------------------


def _scan_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)\s*\.\.\s*(\d+)", text.strip())
    if not match:
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}; expected the form 0..30"
        )
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def cmd_siegel(args) -> int:
    if args.m is not None and args.m > MAX_POWER:
        raise ValueError(f"--m must be at most {MAX_POWER}, got {args.m}")
    if args.scan is not None and args.scan[1] > MAX_POWER:
        raise ValueError(f"--scan must end at most {MAX_POWER}, got {args.scan[1]}")
    from .rules import RULES
    from .siegel import siegel_report, siegel_scan

    p = chi = ledger = None
    if args.facts:
        from .factsfile import load_facts_file
        from .isobaric import CharWord

        ledger, doc = load_facts_file(args.facts)
        names = doc.get("siegel", {})  # checked by the load
        p = ledger.bases.get(names.get("p"))
        chi = CharWord.gen(names["chi"]) if "chi" in names else None
    if args.m is not None:
        reports = [siegel_report(args.m, p, chi, ledger)]
    else:
        lo, hi = args.scan
        reports = siegel_scan(lo, hi, p, chi, ledger)
    rule_names = [name for r in reports for name in r.citations]
    if args.json:
        results = (
            reports[0].as_json()
            if args.m is not None
            else {"reports": [r.as_json() for r in reports]}
        )
        _emit(
            "siegel",
            {
                "m": args.m,
                "scan": None if args.m is not None else f"{args.scan[0]}..{args.scan[1]}",
                "facts": str(args.facts) if args.facts else None,
            },
            results,
            citations=_rule_citations(rule_names),
        )
        return 0
    if args.m is not None:
        print(reports[0])
    else:
        for r in reports:
            flag = ""
            if r.verdict == "exceptional-case":
                flag = f"  Q = {r.exceptional_character}"
            print(f"m = {r.m:>2}: {r.verdict}{flag}")
    sources = sorted(
        {s for name in rule_names for s in (RULES[name].citations if name in RULES else ())}
    )
    if sources:
        print("sources: " + "; ".join(sources))
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icosym",
        description=(
            "Exact character arithmetic for the binary icosahedral group and "
            "the cuspidality/exceptional-zero bookkeeping built on it."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit one machine-readable JSON document"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "chartab", parents=[common], help="print the 9 x 9 character table"
    ).set_defaults(func=cmd_chartab)

    verify = sub.add_parser(
        "verify", parents=[common], help="run verification checks"
    )
    verify.add_argument(
        "target",
        help="all, table, identities, or one section by its name with "
        "hyphens, e.g. product-rule",
    )
    verify.set_defaults(func=cmd_verify)

    decompose = sub.add_parser(
        "decompose",
        parents=[common],
        help="decompose an expression into irreducibles",
    )
    decompose.add_argument(
        "--rep", required=True, help="expression, e.g. \"sym^5(X')\""
    )
    decompose.set_defaults(func=cmd_decompose)

    irreps = sub.add_parser(
        "irreps",
        parents=[common],
        help="classify the irreducibles at level m",
    )
    irreps.add_argument(
        "--m", type=int, required=True, help=f"level, 1 to {MAX_POWER}"
    )
    irreps.set_defaults(func=cmd_irreps)

    scan = sub.add_parser(
        "scan-trivial",
        parents=[common],
        help="multiplicity of the trivial row in each symmetric power",
    )
    scan.add_argument("--max", type=int, required=True, help="largest power to scan")
    scan.set_defaults(func=cmd_scan_trivial)

    cusp = sub.add_parser(
        "cuspidality",
        parents=[common],
        help="decide cuspidality of pi (x) sym^2(pi') from a facts file",
    )
    cusp.add_argument("--facts", required=True, help="JSON facts file")
    cusp.add_argument("--pi", required=True, help="name of the GL(2) factor")
    cusp.add_argument(
        "--pi-prime", required=True, help="name of the symmetric-square factor"
    )
    cusp.set_defaults(func=cmd_cuspidality)

    siegel = sub.add_parser(
        "siegel",
        parents=[common],
        help="exceptional-zero report for twisted symmetric-power L-functions",
    )
    target = siegel.add_mutually_exclusive_group(required=True)
    target.add_argument("--m", type=int, help="single symmetric power")
    target.add_argument(
        "--scan", type=_scan_range, help="inclusive range of powers, e.g. 0..30"
    )
    siegel.add_argument("--facts", help="optional JSON facts file")
    siegel.set_defaults(func=cmd_siegel)

    return parser


def cmd_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = cmd_dispatch(sys.argv[1:])
        sys.stdout.flush()
    except OSError as err:
        # the reader closed stdout, or its device is full; point it at
        # devnull so the interpreter's final flush cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        what = "closed" if isinstance(err, BrokenPipeError) else f"unwritable ({err.strerror})"
        try:
            print(f"error: stdout {what} before the output was complete", file=sys.stderr,
                  flush=True)
        except OSError:  # stderr went with stdout; the exit code still tells
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
