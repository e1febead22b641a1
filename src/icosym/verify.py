"""Regression drivers: every headline property as a named check.

Each section returns a list of :class:`CheckResult` so the command line,
the test suite, and interactive use all share one implementation.  The
checks live here, beside the result type, and not in the layers they
check: a command that runs no check loads none of this.
"""

from __future__ import annotations

import random

from . import Record
from .chartab import (
    GALOIS_SWAPS,
    IRREP_NAMES,
    N_CLASSES,
    ClassFunction,
    NotACharacterError,
    default_table,
)
from .icostruct import (
    IcoIrrep,
    classify_irreps,
    dim_irrep,
    generator_family,
    scan_trivial,
    sym_power_irrep,
    twist_equivalent,
)
from .isobaric import (
    CharWord,
    FactLedger,
    IsobaricExpr,
    LedgerError,
    SymCusp,
    Verdict,
    ad,
    decide_cuspidality,
    decide_cuspidality_via_poles,
    galois_pole_check,
    galois_restriction,
    standard_icosahedral_pair,
)
from .rules import GENERATORS, RULES
from .scalar import ONE, ZERO, Qsqrt5
from .siegel import LFactor, build_auxiliary, expand_aux_square, siegel_scan

RANDOM_SEED = 20260819


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")
    _defaults = {"detail": ""}
    name: str
    passed: bool
    detail: str

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        mark = "ok" if r.passed else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        lines.append(f"[{mark:>4}] {r.name}{suffix}")
    n_bad = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_bad}/{len(results)} checks passed"
        + (f", {n_bad} FAILED" if n_bad else "")
    )
    return "\n".join(lines)


def verify_table() -> list[CheckResult]:
    """Orthogonality, degrees, class data and Galois pairing, all exact."""
    tab = default_table()
    out: list[CheckResult] = []

    bad = [
        (a, b)
        for i, a in enumerate(IRREP_NAMES)
        for b in IRREP_NAMES[i:]
        if tab.inner_product(tab.row(a), tab.row(b))
        != (ONE if a == b else ZERO)
    ]
    out.append(
        CheckResult(
            "row-orthonormality",
            not bad,
            "45 pairs" if not bad else f"failing pairs: {bad}",
        )
    )

    dims_ok = all(tab.row(n).dim().is_integer() for n in IRREP_NAMES)
    total = sum(tab.dim(n) ** 2 for n in IRREP_NAMES) if dims_ok else -1
    out.append(
        CheckResult(
            "degree-sum",
            dims_ok and total == tab.group.order,
            f"sum of squared degrees = {total}",
        )
    )

    col_bad = []
    for i in range(N_CLASSES):
        for j in range(i, N_CLASSES):
            s = ZERO
            for name in IRREP_NAMES:
                row = tab.row(name)
                s = s + row[i] * row[j]
            want = (
                Qsqrt5(tab.group.order) / tab.sizes[i] if i == j else ZERO
            )
            if s != want:
                col_bad.append((i, j))
    out.append(
        CheckResult(
            "column-orthogonality",
            not col_bad,
            "45 pairs" if not col_bad else f"failing columns: {col_bad}",
        )
    )

    swaps_ok = all(
        tab.galois_tau(tab.row(a)) == tab.row(GALOIS_SWAPS.get(a, a))
        for a in IRREP_NAMES
    )
    out.append(
        CheckResult(
            "galois-pairing",
            swaps_ok,
            "tau swaps W'<->W'' and X'<->X'', fixes the rational rows",
        )
    )

    sizes_ok = list(tab.sizes) == [1, 1, 12, 12, 12, 12, 30, 20, 20]
    out.append(CheckResult("class-sizes", sizes_ok, f"sizes {list(tab.sizes)}"))

    duals_ok = all(tab.dual(tab.row(n)) == tab.row(n) for n in IRREP_NAMES)
    out.append(
        CheckResult("self-duality", duals_ok, "every class is self-inverse")
    )
    return out


def verify_identities() -> list[CheckResult]:
    """The tensor/symmetric-power identities tying the nine rows together.

    Eleven identities; the two double ones compare several left sides
    against a single decomposition.
    """
    tab = default_table()
    checks: list[tuple[str, list[ClassFunction], dict[str, int]]] = [
        ("sym^2(X') = W'", [tab.sym_power("X'", 2)], {"W'": 1}),
        ("sym^2(X'') = W''", [tab.sym_power("X''", 2)], {"W''": 1}),
        ("sym^3(X') = X1", [tab.sym_power("X'", 3)], {"X1": 1}),
        ("sym^3(X'') = X1", [tab.sym_power("X''", 3)], {"X1": 1}),
        ("sym^4(X') = V", [tab.sym_power("X'", 4)], {"V": 1}),
        ("sym^4(X'') = V", [tab.sym_power("X''", 4)], {"V": 1}),
        ("X' * X'' = X2", [tab.row("X'") * tab.row("X''")], {"X2": 1}),
        (
            "sym^5(X') = W = sym^5(X'')",
            [tab.sym_power("X'", 5), tab.sym_power("X''", 5)],
            {"W": 1},
        ),
        (
            "W' * X'' = W = W'' * X'",
            [tab.row("W'") * tab.row("X''"), tab.row("W''") * tab.row("X'")],
            {"W": 1},
        ),
        ("sym^6(X') = W'' + X2", [tab.sym_power("X'", 6)], {"W''": 1, "X2": 1}),
        ("sym^7(X') = X'' + W", [tab.sym_power("X'", 7)], {"X''": 1, "W": 1}),
    ]
    out = []
    for name, sides, want in checks:
        gots = [_safe_decompose(f) for f in sides]
        ok = all(g == want for g in gots)
        detail = f"got {gots[0]}" if len(gots) == 1 else f"got {gots}"
        out.append(CheckResult(name, ok, detail))
    return out


def _safe_decompose(f: ClassFunction) -> dict[str, int] | str:
    try:
        return default_table().decompose(f)
    except NotACharacterError as err:
        return str(err)


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


def verify_generators(m: int) -> list[CheckResult]:
    """The generator family for center order 2m and the rows it shares.

    Counts, twist classes and degree sums belong to verify_classification.
    """
    out: list[CheckResult] = []
    try:
        gens = generator_family(m)
        bases = sorted(g.base for g in gens.values())
        out.append(
            CheckResult(
                f"m={m}: generator family",
                bases == sorted(IRREP_NAMES),
                "nine irreducible generators in pairwise distinct rows",
            )
        )
    except RuntimeError as err:
        out.append(CheckResult(f"m={m}: generator family", False, str(err)))

    # equivalences among alternative realizations of the same rows
    lam = IcoIrrep("X'", 1 % (2 * m))
    lam_t = IcoIrrep("X''", 1 % (2 * m))
    pairs = [
        ("sym^3(Lam) ~ sym^3(Lam')", sym_power_irrep(lam, 3, m),
         sym_power_irrep(lam_t, 3, m)),
        ("sym^4(Lam) ~ sym^4(Lam')", sym_power_irrep(lam, 4, m),
         sym_power_irrep(lam_t, 4, m)),
        ("sym^5(Lam) ~ sym^5(Lam')", sym_power_irrep(lam, 5, m),
         sym_power_irrep(lam_t, 5, m)),
    ]
    for label, left, right in pairs:
        lrows = {r.base for r in left}
        rrows = {r.base for r in right}
        out.append(
            CheckResult(
                f"m={m}: {label}",
                len(lrows) == 1 and lrows == rrows,
                f"rows {sorted(lrows)} vs {sorted(rrows)}",
            )
        )

    tab = default_table()
    for label, left, right in [
        ("sym^5(Lam) ~ Lam' * sym^2(Lam)", ("X'", 5), ("X''", "W'")),
        ("sym^5(Lam) ~ Lam * sym^2(Lam')", ("X'", 5), ("X'", "W''")),
    ]:
        sym_rows = tab.decompose(tab.sym_power(left[0], left[1]))
        prod_rows = tab.decompose(tab.row(right[0]) * tab.row(right[1]))
        out.append(
            CheckResult(
                f"m={m}: {label}",
                sym_rows == prod_rows and len(sym_rows) == 1,
                f"both land in row {sorted(sym_rows)}",
            )
        )
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

    # non-octahedral partner: one adjoint fact decides everything; a true one
    # only between bases of one type, as the adjoints of two types differ
    for typ1 in _NON_DIHEDRAL:
        for typ2 in ("tetrahedral", "icosahedral", "general"):
            for same_adjoint in (True, False) if typ1 == typ2 else (False,):
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
        both = ((False, False), (True, False), (False, True))
        for ad_eq, mu_eq in both if typ1 == "octahedral" else both[:1]:
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

    # chains over three bases of one type: Ad(a) ~ Ad(b) ~ Ad(c) decides a
    # against c, and a third fact against the chain is refused, leaving it
    for typ in _NON_DIHEDRAL:
        ledger = FactLedger()
        a, b, c = (ledger.declare_base(name, typ) for name in "abc")
        ledger.assert_equiv(ad(a), ad(b), True)
        ledger.assert_equiv(ad(b), ad(c), True)
        run(f"{typ} chain, Ad(a) ~ Ad(b) ~ Ad(c)", a, c, ledger, "not-cuspidal")
        try:
            ledger.assert_equiv(ad(a), ad(c), False)
            refused = False
        except LedgerError:
            refused = True
        # a contradiction that loads expects a verdict no route gives
        run(f"{typ} chain, Ad(a) ~ Ad(c) false refused", a, c, ledger,
            "not-cuspidal" if refused else "refused")
        if typ != "octahedral":  # an octahedral c would need its twisted fact too
            ledger = FactLedger()
            a, b, c = (ledger.declare_base(name, typ) for name in "abc")
            ledger.assert_equiv(ad(a), ad(b), True)
            ledger.assert_equiv(ad(b), ad(c), False)
            run(f"{typ} chain, Ad(a) ~ Ad(b) not ~ Ad(c)", a, c, ledger, "cuspidal")

    # no declared facts, one type: honestly undetermined
    ledger = FactLedger()
    p = ledger.declare_base("p", "icosahedral")
    q = ledger.declare_base("q", "icosahedral")
    run("icosahedral x icosahedral, no facts", p, q, ledger, None)

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


def galois_square_accounting(m: int) -> dict[str, int]:
    """Check the factorization against exact class-function arithmetic.

    With the twists set to the trivial character and the base restricted to
    the first 2-dimensional row, the sum of the factors' restrictions must
    equal the square of the restriction of the auxiliary sum, and pairing
    the square with the target row must reproduce the target exponent plus
    the target content of the residual factors.  Returns the accounting.
    """
    ledger, p, _ = standard_icosahedral_pair()
    tab = default_table()
    chi = CharWord()
    fact = expand_aux_square(m, p, chi, ledger)

    def restrict(f: LFactor) -> ClassFunction:
        if f.kind == "zeta":
            return tab.trivial()
        cf = galois_restriction(IsobaricExpr.single(f.parts[0]))
        if f.kind == "pair":
            cf = cf * galois_restriction(IsobaricExpr.single(f.parts[1]))
        return cf

    aux_cf = galois_restriction(build_auxiliary(m, p, chi, ledger))
    square = aux_cf * aux_cf
    total = ClassFunction.of([0] * 9)
    for f in fact.factors:
        total = total + f.exponent * restrict(f)
    if total != square:
        raise RuntimeError("factor restrictions do not sum to the square")

    target_row = galois_restriction(IsobaricExpr.single(fact.target))
    in_square = tab.inner_product(square, target_row).as_int()
    residual = 0
    for f in fact.factors:
        if f.kind == "single" and f.parts == (fact.target,):
            continue
        residual += f.exponent * tab.inner_product(restrict(f), target_row).as_int()
    if in_square != fact.k + residual:
        raise RuntimeError(
            f"target accounting failed: {in_square} != {fact.k} + {residual}"
        )
    return {
        "m": m,
        "k": fact.k,
        "r": fact.r,
        "target_multiplicity_in_square": in_square,
        "target_multiplicity_in_residual_factors": residual,
    }


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
    clean_ok = all(reports[m].verdict == "no-siegel-zero" for m in range(1, 12))
    match_ok = all(
        (reports[m].verdict == "exceptional-case") == (scan[m] > 0) for m in range(0, 31)
    )
    exceptional = [r for r in reports if r.verdict == "exceptional-case"]
    q_ok = all(
        r.exceptional_character is not None
        and r.exceptional_character_alt is not None
        and (f"^{r.m // 2}" in r.exceptional_character.replace("(", "").replace(")", "")
             or r.m == 0)  # at m = 0, Q is the twisting character itself
        for r in exceptional
    )
    kr = reports[3]
    return [
        CheckResult(
            "no exceptional zero for m = 1..11",
            clean_ok,
            f"verdicts {sorted({reports[m].verdict for m in range(1, 12)})}",
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


def verify_rule_table() -> list[CheckResult]:
    """Every row has one family generator, and each dispatches to a known rule."""
    rows = sorted(g.row for g in GENERATORS)
    missing = sorted(g.row for g in GENERATORS if g.rule not in RULES)
    return [
        CheckResult(
            "rule-table-total",
            rows == sorted(IRREP_NAMES) and not missing,
            f"9 generators, unknown rules for {missing or 'none'}",
        )
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
