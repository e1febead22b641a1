"""Landau–Siegel-zero bookkeeping for symmetric-power L-functions.

The analytic input is reduced to one combinatorial test: if a self-dual
L-function ``L_1`` divides an auxiliary L-function with nonnegative
coefficients whose edge pole has order ``r``, and ``L_1`` appears with
exponent ``k > r``, then ``L_1`` has no real zero abnormally close to the
edge.  Everything this module does is set up instances of that test:

* :func:`build_auxiliary` forms ``Pi = 1 [+] sym^m(pi) (x) chi [+]
  sym^2(pi) (x) omega^-1`` under the hypotheses that ``sym^m`` is cuspidal
  and ``sym^(m +- 2)`` are automorphic;
* :func:`expand_aux_square` factors ``L(s, Pi x Pi)`` by the
  Clebsch--Gordan expansion and tests the exponent k of the target,
  read off the factors, against the pole order r of the square (k = 4 and
  r = 3 whenever the hypotheses hold);
* :func:`siegel_scan` decomposes ``sym^m(pi) (x) chi`` for a base with
  finite icosahedral image into the nine-generator family, sends every
  constituent through a rule table, and aggregates the verdicts; each
  family row is certified once per scan context, and :func:`siegel_report`
  is the scan of one m.

A report reads its ledger and never writes it.  It is about the pair of
:func:`icosym.isobaric.conjugate_pair`, twisted by the word given, else by an
undeclared character ``chi``.

Only a self-dual L-function can carry an exceptional zero: a report on a
``sym^m(pi) (x) chi`` the ledger knows not to be self-dual says so at once.
Otherwise every character constituent, for an icosahedral base first at
m = 12 (at m = 0, the classical degree-1 case, the twisting character
itself), is flagged in both normalizations: its square is the quotient of
that symbol by its dual, so it is not known to be non-real either.
"""

from __future__ import annotations

from functools import lru_cache

from . import Record
from .chartab import IRREP_NAMES
from .isobaric import (
    BaseCusp,
    CharWord,
    Constituent,
    FactLedger,
    IsobaricExpr,
    LedgerError,
    SymCusp,
    TRIVIAL,
    _refuse_taken,
    ad,
    conjugate_pair,
    dual,
    icosahedral_family,
    pole_order,
    rs_expand,
    sym_cusp,
    sym_power_automorphic,
    sym_power_cuspidal,
)
from .rules import GENERATORS, RULES, Generator


class MissingHypothesisError(LedgerError):
    """An auxiliary construction whose hypotheses the ledger cannot supply."""

    def __init__(self, missing: list[str]) -> None:
        self.missing = tuple(missing)
        super().__init__("not covered; missing hypotheses: " + "; ".join(missing))


# --------------------------------------------------------------------------
# the auxiliary isobaric sum and its square


def build_auxiliary(
    m: int, p: BaseCusp, chi: CharWord, ledger: FactLedger
) -> IsobaricExpr:
    """1 [+] sym^m(p) (x) chi [+] sym^2(p) (x) omega^-1, for m >= 3.

    The degree-3 case of the target is covered by its own rule, so m = 2 is
    rejected rather than sent through a degenerate expansion; smaller m
    never needs an auxiliary sum.
    """
    if m == 2:
        raise ValueError(
            "m = 2 is handled by the symmetric-square rule, not the auxiliary sum"
        )
    if m < 3:
        raise ValueError(f"the auxiliary construction needs m >= 3, got {m}")
    missing = []
    cuspidal, reason = sym_power_cuspidal(p, m, ledger)
    if cuspidal is not True:
        missing.append(
            reason if cuspidal is None else f"hypothesis fails: {reason}"
        )
    for n in (m + 2, m - 2):
        automorphic, reason = sym_power_automorphic(p, n, ledger)
        if automorphic is not True:
            missing.append(
                reason if automorphic is None else f"hypothesis fails: {reason}"
            )
    if missing:
        raise MissingHypothesisError(missing)
    return IsobaricExpr.of([(TRIVIAL, 1), (Constituent(SymCusp(p, m), chi), 1), (ad(p), 1)])


class LFactor(Record):
    """One factor of the expanded square: an L-function with an exponent."""

    __slots__ = ("kind", "parts", "exponent")
    kind: str  # zeta | single | pair
    parts: tuple[Constituent, ...]
    exponent: int

    @property
    def degree(self) -> int:
        if self.kind == "zeta":
            return 1
        d = 1
        for c in self.parts:
            d *= c.degree
        return d


class LFactorization(Record):
    """The factored square L(s, Pi x Pi) with the distinguished target."""

    __slots__ = ("m", "target", "factors", "k", "r")
    m: int
    target: Constituent
    factors: tuple[LFactor, ...]
    k: int  # exponent of the target factor
    r: int  # pole order of the square at the edge

    @property
    def total_degree(self) -> int:
        return sum(f.exponent * f.degree for f in self.factors)


def expand_aux_square(
    m: int, p: BaseCusp, chi: CharWord, ledger: FactLedger
) -> LFactorization:
    """Factor L(s, Pi x Pi) over the nine ordered pairs of terms of Pi.

    A pair of distinct terms expands by Clebsch--Gordan (:func:`rs_expand`,
    which checks the degrees); ``1 x 1`` is the zeta factor, and a cusp form
    paired with itself stays a Rankin--Selberg pair factor.  The target's
    exponent k is read off the expanded singles, the edge pole order r
    comes from :func:`pole_order`, and the test is k > r.
    """
    aux = build_auxiliary(m, p, chi, ledger)
    target = Constituent(SymCusp(p, m), chi)
    factors: list[LFactor] = []
    singles: dict[Constituent, int] = {}
    terms = aux.terms
    for i, (c1, m1) in enumerate(terms):
        # the one character term is 1, and 1 x 1 is zeta
        kind, parts = ("zeta", ()) if c1.core is None else ("pair", (c1, c1))
        factors.append(LFactor(kind, parts, m1 * m1))
        # (c1, c2) and (c2, c1) expand alike, so each pair of distinct terms
        # expands once, counted twice; a slice of sorted terms stays sorted
        if i + 1 < len(terms):
            product = rs_expand(IsobaricExpr(((c1, 2 * m1),)), IsobaricExpr(terms[i + 1:]))
            for c, mult in product.terms:
                singles[c] = singles.get(c, 0) + mult
    factors += [LFactor("single", (c,), e) for c, e in singles.items()]
    k = singles.get(target, 0)
    r = pole_order(aux, ledger).value()
    if k <= r:
        raise RuntimeError(f"target exponent {k} is not above the edge pole order {r}")
    return LFactorization(m, target, tuple(factors), k, r)


# --------------------------------------------------------------------------
# the report


class ConstituentReport(Record):
    __slots__ = ("row", "label", "multiplicity", "rule", "citations", "detail", "k", "r",
                 "exceptional", "covered")
    _defaults = {"detail": "", "k": None, "r": None, "exceptional": False, "covered": True}
    row: str
    label: str
    multiplicity: int
    rule: str
    citations: tuple[str, ...]
    detail: str
    k: int | None
    r: int | None
    exceptional: bool
    covered: bool  # False when a rule hypothesis is not discharged

    def as_json(self) -> dict:
        out = {
            "row": self.row,
            "constituent": self.label,
            "multiplicity": self.multiplicity,
            "rule": self.rule,
            "citations": list(self.citations),
            "detail": self.detail,
            "exceptional": self.exceptional,
        }
        if self.k is not None:
            out["k"] = self.k
            out["r"] = self.r
        return out


class SiegelReport(Record):
    __slots__ = ("m", "target", "verdict", "constituents", "citations", "exceptional_character",
                 "exceptional_character_alt", "k", "r", "notes")
    _defaults = {**dict.fromkeys(__slots__[5:9]), "notes": ()}
    m: int
    target: str
    verdict: str  # no-siegel-zero | exceptional-case | not-covered
    constituents: tuple[ConstituentReport, ...]
    citations: tuple[str, ...]  # names of the rules used
    exceptional_character: str | None
    exceptional_character_alt: str | None
    k: int | None
    r: int | None
    notes: tuple[str, ...]

    def __str__(self) -> str:
        head = f"m = {self.m}: {self.target} -> {self.verdict}"
        if self.verdict == "exceptional-case":
            head += (
                f" (Q = {self.exceptional_character}; "
                f"alternative normalization {self.exceptional_character_alt}; "
                "at most one exceptional zero)"
            )
        lines = [head]
        for c in self.constituents:
            extra = f" [k={c.k} > r={c.r}]" if c.k is not None else ""
            flag = " ** possible exceptional zero **" if c.exceptional else ""
            lines.append(
                f"  {c.multiplicity} x {c.label} ({c.row}): {c.rule}{extra}{flag}"
            )
            if not c.covered:
                lines.append(f"      because {c.detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def as_json(self) -> dict:
        return {
            "m": self.m,
            "target": self.target,
            "verdict": self.verdict,
            "constituents": [c.as_json() for c in self.constituents],
            "citations": list(self.citations),
            "exceptional_character": self.exceptional_character,
            "exceptional_character_alt": self.exceptional_character_alt,
            "k": self.k,
            "r": self.r,
            "notes": list(self.notes),
        }


# the twist of a report that names none: a value, never declared in any ledger
_DEFAULT_TWIST = CharWord.gen("chi")


class _ScanContext:
    """What a scan reads besides m and the twist: the ledger, the base and
    its partner, the family by row, each row's certificate keyed by (row,
    chi) and why each sym^m(p)*chi is known not to be self-dual, keyed by
    (m, chi); the last two are filled in as the scans need them."""

    __slots__ = ("ledger", "p", "p_tau", "family", "certificates", "not_self_dual")

    def __init__(self, ledger: FactLedger, p: BaseCusp | None) -> None:
        self.ledger = ledger
        self.p, self.p_tau = conjugate_pair(ledger, p)
        self.family = {  # row -> (label, entry of GENERATORS)
            row: (label, g)
            for g, (label, _, row) in zip(GENERATORS, icosahedral_family(self.p, self.p_tau))
        }
        self.certificates = {}  # (row, chi) -> (label, detail, k, r, covered)
        self.not_self_dual = {}  # (m, chi) -> the reason, or "" where none is known


@lru_cache(maxsize=1)
def _standard_scan_context() -> _ScanContext:
    """The context of every report without a base or a ledger: the rule on
    an empty ledger, built once per process.  Scans only read its ledger,
    and it is never handed out, so nothing can change it."""
    return _ScanContext(FactLedger(), None)


def siegel_report(
    m: int,
    p: BaseCusp | None = None,
    chi: CharWord | None = None,
    ledger: FactLedger | None = None,
) -> SiegelReport:
    """Classify L(s, sym^m(p) (x) chi) for a base with icosahedral image.

    Decomposes the symbol into twists of the nine-generator family, runs
    each constituent through the rule table, and aggregates, unless the
    ledger knows the symbol is not self-dual.  A character constituent
    (first possible at m = 12) is flagged as the exceptional case, reported
    in both normalizations; undischargeable rule hypotheses make the
    verdict not-covered rather than a silent pass.  The ledger, empty when
    not given, is only read; the base, its partner and the twist default as
    the module docstring says.  Without ``p`` and ``ledger``, the context, its family
    and its row certificates are built once per process and shared.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return siegel_scan(m, m, p, chi, ledger)[0]


def _certificate(
    g: Generator, p: BaseCusp, p_tau: BaseCusp, chi: CharWord, ledger: FactLedger,
) -> tuple[str, int | None, int | None, bool]:
    """(detail, k, r, covered) for a family row other than the character
    row; nothing in it depends on m."""
    if g.rule == "auxiliary-expansion":
        n = g.a  # the generator of the row is sym^n(p)
        try:
            fact = expand_aux_square(n, p, chi, ledger)
        except MissingHypothesisError as err:
            return str(err), None, None, False
        return f"auxiliary expansion at m = {n}", fact.k, fact.r, True
    if g.rule == "rankin-selberg-pair":
        # only a False verdict certifies the Ramakrishnan-Wang hypothesis;
        # the pair restricts to different rows, so the ledger refuses
        # every true fact between them and the verdict is always False
        same, reason = ledger.equivalent(Constituent(p), Constituent(p_tau))
        if same is not False:
            raise RuntimeError(f"the conjugate pair is not certified: {reason}")
        return "the pair is neither dihedral nor twist-equivalent: " + reason, None, None, True
    return "", None, None, True


def _not_self_dual(symbol: Constituent, ledger: FactLedger) -> str:
    """Why the ledger knows *symbol* is not self-dual, or "" where it does not."""
    if ledger.self_dual_declared(symbol) is not False:
        return ""
    d = dual(symbol)  # equivalent gives the known answer first, with its reason
    return (f"not self-dual, as {symbol} ~ {d} is False: {ledger.equivalent(symbol, d)[1]}; "
            "only self-dual L-functions can carry an exceptional real zero")


def siegel_scan(
    lo: int,
    hi: int,
    p: BaseCusp | None = None,
    chi: CharWord | None = None,
    ledger: FactLedger | None = None,
) -> list[SiegelReport]:
    """Reports for every m in [lo, hi]; ``p`` and ``ledger`` as in
    :func:`siegel_report`.

    The base, its partner and the family are built once, each row is
    certified once for each chi, none of them depending on m, and each
    self-duality is read once.  A caller's ledger may change between calls,
    so it gets a fresh context per call.
    """
    if lo < 0 or hi < lo:
        raise ValueError(f"bad scan range [{lo}, {hi}]")
    if p is None and ledger is None:
        ctx = _standard_scan_context()
    else:
        ctx = _ScanContext(FactLedger() if ledger is None else ledger, p)
    ledger, p, p_tau = ctx.ledger, ctx.p, ctx.p_tau
    family, certificates, not_self_dual = ctx.family, ctx.certificates, ctx.not_self_dual
    if chi is None:
        _refuse_taken(str(_DEFAULT_TWIST), "the default twist", ledger)
        chi = _DEFAULT_TWIST
    reports: list[SiegelReport] = []
    for m in range(lo, hi + 1):
        core = sym_cusp(p, m)  # None at m = 0: the object is the twisting character itself
        target = f"sym^{m}({p.name})*{chi}" if m else str(chi)
        if (m, chi) not in not_self_dual:
            not_self_dual[m, chi] = _not_self_dual(Constituent(core, chi), ledger)
        if why := not_self_dual[m, chi]:
            reports.append(SiegelReport(m, target, "no-siegel-zero", (), ("non-self-dual",),
                                        notes=(why,)))
            continue
        mults = ledger.galois_decomposition(core) if m else {"U": 1}

        constituents: list[ConstituentReport] = []
        rules_used: list[str] = []
        exceptional_q: CharWord | None = None
        for row in IRREP_NAMES:
            mult = mults.get(row, 0)
            if not mult:
                continue
            label, g = family[row]
            rule = RULES[g.rule]
            rules_used.append(rule.name)
            detail, k, r, covered = "", None, None, True
            if row == "U":
                if m % 2:
                    raise RuntimeError(
                        "parity violation: a character constituent at odd m"
                    )
                # flagged: its square is the quotient of the symbol by its dual,
                # so it is known not self-dual (not real) only where the symbol is
                exceptional_q = CharWord.gen(p.omega, m // 2) * chi
                # real where its square is known to be 1 and its own kind is not known
                kind = ledger.word_kind(exceptional_q) or (
                    "real" if ledger.is_one(exceptional_q ** 2) else None)
                label = str(exceptional_q)
                detail = (
                    f"character constituent {exceptional_q} "
                    f"(kind: {kind or 'undeclared, cannot be excluded'})"
                )
            else:
                key = (row, chi)
                if key not in certificates:
                    certificates[key] = (f"twist of {label}",) + _certificate(
                        g, p, p_tau, chi, ledger
                    )
                label, detail, k, r, covered = certificates[key]
            constituents.append(
                ConstituentReport(
                    row, label, mult, rule.name, rule.citations, detail, k, r,
                    row == "U", covered,
                )
            )

        notes: list[str] = []
        if not all(c.covered for c in constituents):
            verdict = "not-covered"
        elif exceptional_q is not None:
            verdict = "exceptional-case"
            notes.append("at most one exceptional zero")
        else:
            verdict = "no-siegel-zero"

        alt = None
        if exceptional_q is not None:
            single = len(chi.word) == 1 and chi.word[0][1] == 1
            twist = str(chi) if single else f"({chi})"
            alt = f"{p.omega}^({m}/2)*{twist}^({m + 1})" if m else str(chi)
        top_k = top_r = None
        if len(constituents) == 1:  # sym^m is one row: its k and r, if any
            top_k, top_r = constituents[0].k, constituents[0].r
        reports.append(SiegelReport(
            m,
            target,
            verdict,
            tuple(constituents),
            tuple(dict.fromkeys(rules_used)),
            exceptional_character=str(exceptional_q) if exceptional_q else None,
            exceptional_character_alt=alt,
            k=top_k,
            r=top_r,
            notes=tuple(notes),
        ))
    return reports
