"""Regression drivers: every headline property as a named check.

Each section returns a list of :class:`CheckResult` so the command line,
the test suite, and interactive use all share one implementation.
"""

from __future__ import annotations

import random

from .chartab import IRREP_NAMES, default_table
from .icostruct import (
    classify_irreps,
    dim_irrep,
    scan_trivial,
    twist_equivalent,
    verify_generators,
)
from .isobaric import (
    CharWord,
    FactLedger,
    SymCusp,
    Verdict,
    ad,
    decide_cuspidality,
    decide_cuspidality_via_poles,
    galois_pole_check,
    standard_icosahedral_pair,
)
from .report import CheckResult
from .siegel import (
    expand_aux_square,
    galois_square_accounting,
    siegel_scan,
    verify_rule_table,
)

RANDOM_SEED = 20260819


def verify_table() -> list[CheckResult]:
    """Row/column orthogonality, dimensions, class data."""
    return default_table().verify_table()


def verify_identities() -> list[CheckResult]:
    """The eleven decomposition identities for low symmetric powers."""
    return default_table().verify_section1_identities()


def verify_clebsch_gordan() -> list[CheckResult]:
    """sym^a (x) sym^b = (+)_k sym^(a+b-2k) for all 0 <= a, b <= amax."""
    amax = 10
    tab = default_table()
    x = tab.row("X'")
    powers = [tab.sym_power(x, n) for n in range(2 * amax + 1)]
    failures = []
    for a in range(amax + 1):
        for b in range(amax + 1):
            lhs = powers[a] * powers[b]
            rhs = powers[abs(a - b)]
            for n in range(abs(a - b) + 2, a + b + 1, 2):
                rhs = rhs + powers[n]
            if lhs != rhs:
                failures.append((a, b))
    total = (amax + 1) ** 2
    return [
        CheckResult(
            f"clebsch-gordan 0..{amax}",
            not failures,
            f"{total - len(failures)}/{total} product identities"
            + (f"; failing pairs {failures[:5]}" if failures else ""),
        )
    ]


def verify_trivial_scan() -> list[CheckResult]:
    """No trivial constituent in sym^n for n in 1..11; exactly one at 12."""
    scan = scan_trivial(12)
    zeros_ok = all(scan[n] == 0 for n in range(1, 12))
    return [
        CheckResult(
            "trivial constituent absent for n = 1..11",
            zeros_ok,
            f"multiplicities {[scan[n] for n in range(1, 12)]}",
        ),
        CheckResult(
            "trivial constituent appears at n = 12",
            scan[12] == 1,
            f"multiplicity {scan[12]}",
        ),
    ]


def verify_classification() -> list[CheckResult]:
    """Irrep counts, twist classes, and the sum-of-squares identity."""
    max_m = 8
    out = []
    for m in range(1, max_m + 1):
        irreps = classify_irreps(m)
        classes: list[list] = []
        for r in irreps:
            for cls in classes:
                if twist_equivalent(r, cls[0], m):
                    cls.append(r)
                    break
            else:
                classes.append([r])
        square_sum = sum(dim_irrep(r) ** 2 for r in irreps)
        ok = (
            len(irreps) == 9 * m
            and len(classes) == 9
            and all(len(cls) == m for cls in classes)
            and square_sum == 120 * m
        )
        out.append(
            CheckResult(
                f"classification m={m}",
                ok,
                f"{len(irreps)} irreps in {len(classes)} twist classes, "
                f"sum of squared dimensions {square_sum}",
            )
        )
    out.extend(verify_generators(max_m))
    return out


# -- cuspidality scenario matrix ---------------------------------------------

_NON_DIHEDRAL = ("tetrahedral", "octahedral", "icosahedral", "general")


def cuspidality_scenarios() -> list[dict]:
    """The exhaustive two-route scenario matrix.

    Each entry records both verdicts, the expected verdict (None when the
    scenario is deliberately undetermined), and whether it counts as
    determinable.
    """
    scenarios = []

    def run(name: str, p, q, ledger, expected: str | None) -> None:
        v1 = decide_cuspidality(p, q, ledger)
        v2: Verdict | None = None
        if p.typ != "dihedral" and q.typ != "dihedral":
            v2 = decide_cuspidality_via_poles(p, q, ledger)
        scenarios.append(
            {
                "name": name,
                "structural": v1,
                "pole": v2,
                "expected": expected,
                "determinable": expected is not None,
            }
        )

    # non-octahedral partner: one adjoint fact decides everything
    for typ1 in _NON_DIHEDRAL:
        for typ2 in ("tetrahedral", "icosahedral", "general"):
            for same_adjoint in (True, False):
                ledger = FactLedger()
                p = ledger.declare_base("p", typ1)
                q = ledger.declare_base("q", typ2)
                ledger.assert_equiv(ad(p), ad(q), same_adjoint)
                run(
                    f"{typ1} x {typ2}, adjoints {'equal' if same_adjoint else 'distinct'}",
                    p,
                    q,
                    ledger,
                    "not-cuspidal" if same_adjoint else "cuspidal",
                )

    # octahedral partner: the quadratic-twist escape joins in
    for typ1 in _NON_DIHEDRAL:
        for ad_eq, mu_eq in ((False, False), (True, False), (False, True)):
            ledger = FactLedger()
            p = ledger.declare_base("p", typ1)
            q = ledger.declare_base("q", "octahedral")
            mu = CharWord.gen(q.quadratic_char)
            ledger.assert_equiv(ad(p), ad(q), ad_eq)
            ledger.assert_equiv(ad(p), ad(q).twisted(mu), mu_eq)
            run(
                f"{typ1} x octahedral, facts ({ad_eq}, {mu_eq})",
                p,
                q,
                ledger,
                "not-cuspidal" if (ad_eq or mu_eq) else "cuspidal",
            )

    # no declared facts: honestly undetermined
    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral")
    q = ledger.declare_base("q", "tetrahedral")
    run("icosahedral x tetrahedral, no facts", p, q, ledger, None)

    return scenarios


def verify_cuspidality() -> list[CheckResult]:
    """Two-route agreement, scenario verdicts, and the tagged flagship pair."""
    scenarios = cuspidality_scenarios()
    two_route = [s for s in scenarios if s["pole"] is not None]
    agree = [s for s in two_route if s["structural"].verdict == s["pole"].verdict]
    correct = [
        s
        for s in scenarios
        if s["determinable"] and s["structural"].verdict == s["expected"]
    ]
    determinable = [s for s in scenarios if s["determinable"]]
    open_ok = all(
        s["structural"].verdict == "undetermined" and s["structural"].missing
        for s in scenarios
        if not s["determinable"]
    )

    ledger, p, p_tau = standard_icosahedral_pair()
    flag1 = decide_cuspidality(p, p_tau, ledger)
    flag2 = decide_cuspidality_via_poles(p, p_tau, ledger)
    flagship_ok = (
        flag1.verdict == flag2.verdict == "cuspidal"
        and not flag1.missing
        and not flag2.missing
        and flag2.pole is not None
        and flag2.pole.value() == 1
    )

    return [
        CheckResult(
            "both routes agree on every scenario",
            len(agree) == len(two_route),
            f"{len(agree)}/{len(two_route)} two-route scenarios",
        ),
        CheckResult(
            "determinable scenarios reach the expected verdict",
            len(correct) == len(determinable) and len(determinable) >= 24,
            f"{len(correct)}/{len(determinable)} scenarios (need at least 24)",
        ),
        CheckResult(
            "fact-free scenarios stay undetermined and name the missing fact",
            open_ok,
        ),
        CheckResult(
            "tagged conjugate pair is cuspidal on both routes",
            flagship_ok,
            f"structural: {flag1.verdict}; pole order {flag2.pole.value() if flag2.pole else '?'}",
        ),
    ]


def verify_auxiliary() -> list[CheckResult]:
    """Square factorizations: k = 4 > r = 3, degrees, and exact accounting."""
    out = []
    for m in (3, 4, 5, 7, 9, 11):
        if m <= 5:
            ledger, p, _ = standard_icosahedral_pair()
        else:
            ledger = FactLedger()
            p = ledger.declare_base("p", "general")
            ledger.declare_cuspidal(SymCusp(p, m), True)
            ledger.declare_automorphic(SymCusp(p, m + 2), True)
            ledger.declare_automorphic(SymCusp(p, m - 2), True)
        ledger.declare_character("chi")
        fact = expand_aux_square(m, p, CharWord.gen("chi"), ledger)
        ok = (
            fact.k == 4
            and fact.r == 3
            and fact.k > fact.r
            and fact.total_degree == (m + 5) ** 2
        )
        out.append(
            CheckResult(
                f"auxiliary square m={m}",
                ok,
                f"k={fact.k} > r={fact.r}, total degree {fact.total_degree}",
            )
        )
    for m in (3, 4, 5):
        try:
            accounting = galois_square_accounting(m)
            ok = accounting["k"] == 4 and accounting["r"] == 3
            detail = (
                f"target multiplicity {accounting['target_multiplicity_in_square']}"
                f" = k + {accounting['target_multiplicity_in_residual_factors']}"
            )
        except RuntimeError as err:
            ok, detail = False, str(err)
        out.append(CheckResult(f"finite-model accounting m={m}", ok, detail))
    return out


def verify_pole_identity() -> list[CheckResult]:
    """Order of the pole at the edge equals the sum of squared multiplicities."""
    trials = 50
    tab = default_table()
    rows_ok = all(galois_pole_check(tab.row(name)) == 1 for name in IRREP_NAMES)
    rng = random.Random(RANDOM_SEED)
    bad = 0
    for _ in range(trials):
        mults = {name: rng.randrange(0, 4) for name in IRREP_NAMES}
        if not any(mults.values()):
            mults["U"] = 1
        f = tab.row("U") * 0
        for name, c in mults.items():
            f = f + c * tab.row(name)
        if galois_pole_check(f) != sum(c * c for c in mults.values()):
            bad += 1
    return [
        CheckResult("pole order 1 on each irreducible row", rows_ok),
        CheckResult(
            f"pole order equals sum of squared multiplicities ({trials} random sums)",
            bad == 0,
            f"{trials - bad}/{trials}",
        ),
    ]


def verify_siegel_criterion() -> list[CheckResult]:
    """Exceptional cases appear exactly where the trivial-constituent scan
    finds a character, and the exceptional character is reported both ways."""
    reports = siegel_scan(0, 30)
    scan = scan_trivial(30)
    clean_ok = all(reports[m].verdict == "no-siegel-zero" for m in range(0, 12))
    match_ok = all(
        (reports[m].verdict == "exceptional-case") == (m >= 1 and scan[m] > 0)
        for m in range(0, 31)
    )
    exceptional = [r for r in reports if r.verdict == "exceptional-case"]
    q_ok = all(
        r.exceptional_character is not None
        and r.exceptional_character_alt is not None
        and f"^{r.m // 2}" in r.exceptional_character.replace("(", "").replace(")", "")
        for r in exceptional
    )
    kr = reports[3]
    return [
        CheckResult(
            "no exceptional zero for m = 0..11",
            clean_ok,
            f"verdicts {sorted({reports[m].verdict for m in range(12)})}",
        ),
        CheckResult(
            "exceptional exactly when the scan finds a character constituent",
            match_ok,
            f"exceptional at m = {[r.m for r in exceptional]}",
        ),
        CheckResult(
            "exceptional character reported in both normalizations",
            bool(exceptional) and q_ok,
            f"m=12: Q = {reports[12].exceptional_character} "
            f"(alt {reports[12].exceptional_character_alt})",
        ),
        CheckResult(
            "headline report carries k = 4 > r = 3",
            kr.k == 4 and kr.r == 3,
            f"m=3: k={kr.k}, r={kr.r}",
        ),
    ]


VERIFY_SECTIONS = (
    ("character table", verify_table),
    ("decomposition identities", verify_identities),
    ("product rule", verify_clebsch_gordan),
    ("trivial-constituent scan", verify_trivial_scan),
    ("finite-group classification", verify_classification),
    ("cuspidality routes", verify_cuspidality),
    ("auxiliary factorizations", verify_auxiliary),
    ("pole bookkeeping", verify_pole_identity),
    ("exceptional-zero criterion", verify_siegel_criterion),
    ("rule table", verify_rule_table),
)


def verify_all() -> dict[str, list[CheckResult]]:
    """Every section, in dependency order."""
    return {name: run() for name, run in VERIFY_SECTIONS}
