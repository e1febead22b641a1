"""The cited rules, as data: what the literature says, and where it says it.

Every layer that applies a theorem reads it here, and this module reads no
layer: it imports only :class:`icosym.Record`.  The tables are

* :data:`TYPE_RULES`, read through :func:`type_rule`: what a declared base
  type says about sym^n, namely its cited cuspidality for n <= 4
  (Gelbart-Jacquet 1978, Kim-Shahidi 2002, Kim 2003), for every other n the
  largest irreducible degree of the binary polyhedral group over its
  projective image, and which sym^n may carry a self-twist.
  :data:`BASE_TYPES` lists the types;
* :data:`ADJOINT_TYPES` and :data:`ADJOINT_RULE`: the untwisted adjoints of
  bases of two of these declared types are inequivalent (Ramakrishnan 2000);
* :data:`AUTOMORPHIC`: automorphy of sym^n cited for every base, n = 2, 3, 4
  (Gelbart-Jacquet 1978, Kim-Shahidi 2002, Kim 2003);
* :data:`RULES`: the exceptional-zero rules of the Siegel report by name,
  each a statement with its citations (Landau, Hoffstein-Ramakrishnan 1995,
  Goldfeld-Hoffstein-Lieman 1994, Banks 1997, Kim-Shahidi 2002, Kim 2003,
  Ramakrishnan-Wang 2003);
* :data:`GENERATORS`: the nine generators sym^a(pi) [x] sym^b(pi^tau) of
  the finite model's rows, in family order.  Each gives its (a, b), the row
  it restricts to for a base tagged X' (a base tagged X'' swaps X' with
  X'' and W' with W''; :data:`GALOIS_TAGS` are the two tags), and the name
  of its rule in :data:`RULES`.  The family reads its rows here, and
  :func:`icosym.icostruct.generator_family` checks them.
"""

from __future__ import annotations

from . import Record

# -- what a declared type says about sym^n -------------------------------------

_GJ = (True, "sym^2 is cuspidal for any non-dihedral base (Gelbart-Jacquet 1978)")
_KS = (True, "sym^3 is cuspidal when the base is neither dihedral nor tetrahedral "
             "(Kim-Shahidi 2002)")
_KIM = (True, "sym^4 is cuspidal when the base is not solvable polyhedral (Kim 2003)")
_BINARY = ("finite image: sym^{n} is {state} on the binary {typ} group, whose irreducibles "
           "have degree at most {degree}")

# What a declared type alone says about sym^n: (twists, cited, degree, reason).  cited holds
# the cited cuspidality verdicts by n.  For a dihedral or polyhedral type, degree decides any
# other n >= 2: sym^n, of degree n + 1, is cuspidal iff n + 1 <= degree, the largest
# irreducible degree of the binary group over the projective image.  twists(n) is False when
# sym^n (n >= 1) admits no self-twist.  A self-twist is a character of the projective image
# (the trace is not 0 on the scalars): cubic on A4, the sign on S4, none on A5; the trace of
# sym^n vanishes off its kernel for the n below.  A general base has none for n <= 3.
TYPE_RULES: dict[str, tuple] = {
    "dihedral": (lambda n: True, {}, 2, "symmetric powers of a dihedral base are never cuspidal"),
    "tetrahedral": (lambda n: n % 3 == 2, {
        2: _GJ, 3: (False, "sym^3 of a tetrahedral base splits (Kim-Shahidi 2002)"),
        4: (False, "sym^4 of a tetrahedral base splits (Kim 2003)")}, 3, _BINARY),
    "octahedral": (lambda n: n % 4 == 3, {
        2: _GJ, 3: _KS, 4: (False, "sym^4 of a octahedral base splits (Kim 2003)")}, 4, _BINARY),
    "icosahedral": (lambda n: False, {2: _GJ, 3: _KS, 4: _KIM}, 6, _BINARY),
    "general": (lambda n: n >= 4, {2: _GJ, 3: _KS, 4: _KIM}, None, ""),  # not polyhedral
    "abstract": (lambda n: True, {}, None, ""),  # cuspidal of undeclared type
}

BASE_TYPES = tuple(TYPE_RULES)

# What two declared types say about the adjoints: Ad(pi) ~ Ad(pi') implies pi' ~ pi (x) chi
# (Ramakrishnan 2000), and a twist keeps the projective image, so the untwisted adjoints of
# bases of two of these types, which each fix the projective image, are inequivalent.  A
# twisted pair, Ad(pi) against Ad(pi') (x) chi with chi not 1, stays open.
ADJOINT_TYPES = ("tetrahedral", "octahedral", "icosahedral", "general")
ADJOINT_RULE = ("Ad({}) and Ad({}) are inequivalent, as {} is {} and {} is {}: Ad(pi) ~ "
                "Ad(pi') implies pi' ~ pi (x) chi (Ramakrishnan 2000), and a twist keeps the "
                "projective image")


def type_rule(typ: str, n: int) -> tuple[bool | None, str]:
    """What the declared type says about sym^n, n >= 1: cuspidal or not and
    why (None and "" when the type leaves it open)."""
    _, cited, degree, reason = TYPE_RULES[typ]
    cuspidal, why = cited.get(n, (None, ""))
    if cuspidal is None and degree:
        cuspidal = n < degree
        state = "irreducible" if cuspidal else "reducible"
        why = reason.format(n=n, state=state, typ=typ, degree=degree)
    return cuspidal, why


# -- automorphy cited for every base, by n --------------------------------------

AUTOMORPHIC = {
    2: "sym^2 is automorphic (Gelbart-Jacquet 1978)",
    3: "sym^3 is automorphic (Kim-Shahidi 2002)",
    4: "sym^4 is automorphic (Kim 2003)",
}


# -- the exceptional-zero rules --------------------------------------------------


class SiegelRule(Record):
    __slots__ = ("name", "statement", "citations")
    name: str
    statement: str
    citations: tuple[str, ...]


RULES: dict[str, SiegelRule] = {
    "character": SiegelRule(
        "character",
        "a degree-1 factor carries at most one exceptional real zero, and "
        "only when the character is trivial or quadratic",
        ("classical (Landau)",),
    ),
    "gl2-cusp-form": SiegelRule(
        "gl2-cusp-form",
        "L-functions of cuspidal GL(2) forms have no exceptional zero",
        ("Hoffstein-Ramakrishnan (1995)",),
    ),
    "symmetric-square": SiegelRule(
        "symmetric-square",
        "twisted symmetric-square (degree-3 adjoint) L-functions have no "
        "exceptional zero",
        (
            "Goldfeld-Hoffstein-Lieman (1994)",
            "Hoffstein-Ramakrishnan (1995)",
            "Banks (1997)",
        ),
    ),
    "auxiliary-expansion": SiegelRule(
        "auxiliary-expansion",
        "the factored square of the auxiliary isobaric sum exhibits the "
        "target with exponent 4 against an edge pole of order 3, so a real "
        "zero near the edge would force a negative coefficient",
        (
            "Goldfeld-Hoffstein-Lieman (1994)",
            "Kim-Shahidi (2002)",
            "Kim (2003)",
        ),
    ),
    "rankin-selberg-pair": SiegelRule(
        "rankin-selberg-pair",
        "Rankin-Selberg L-functions of two cuspidal GL(2) forms that are "
        "neither dihedral nor twist-equivalent have no exceptional zero",
        ("Ramakrishnan-Wang (2003)",),
    ),
}


# -- the nine family generators --------------------------------------------------

GALOIS_TAGS = ("X'", "X''")  # the rows of pi and pi^tau, the only rows a base is tagged with

class Generator(Record):
    """sym^a(pi) [x] sym^b(pi^tau), which restricts to ``row`` for a base
    tagged X' and is certified by the Siegel rule named ``rule``."""

    __slots__ = ("a", "b", "row", "rule")
    a: int
    b: int
    row: str
    rule: str


GENERATORS = (
    Generator(0, 0, "U", "character"),
    Generator(1, 0, "X'", "gl2-cusp-form"),
    Generator(0, 1, "X''", "gl2-cusp-form"),
    Generator(2, 0, "W'", "symmetric-square"),
    Generator(0, 2, "W''", "symmetric-square"),
    Generator(3, 0, "X1", "auxiliary-expansion"),
    Generator(1, 1, "X2", "rankin-selberg-pair"),
    Generator(4, 0, "V", "auxiliary-expansion"),
    Generator(5, 0, "W", "auxiliary-expansion"),
)
