"""Irreducible representations of icosahedral groups with enlarged center.

The groups treated here are the central products ``G = (G0 x C) / <(-I, -1)>``
where ``G0 = SL2(F5)`` and ``C`` is cyclic of order ``2m``.  An irreducible
of ``G`` is a pair: an irreducible of ``G0`` together with a central
character exponent ``a`` mod ``2m`` whose parity matches the action of
``-I`` in the chosen row (``-I`` and the central element of order 2 are
identified, so the two signs must agree).

Twisting by characters of ``G`` moves the exponent by even amounts and
never changes the ``G0``-row, so "same row" is exactly "twist equivalent";
duality negates the exponent.  Symmetric powers of the 2-dimensional
irreducibles multiply the exponent by ``n`` and decompose on the ``G0`` side
through :mod:`icosym.chartab`.
"""

from __future__ import annotations

from functools import cache

from . import Record, _set
from .chartab import IRREP_NAMES, default_table


class IcoIrrep(Record):
    """An irreducible (row name, central exponent) of the order-120m group."""

    __slots__ = ("base", "exponent")
    base: str
    exponent: int

    def __init__(self, base: str, exponent: int) -> None:
        _set(self, "base", base)  # see Record: a hot constructor, written out
        _set(self, "exponent", exponent)

    def __str__(self) -> str:
        return f"({self.base}, {self.exponent})"


@cache  # nine rows, so a table of nine entries once each is read
def base_parity(name: str) -> int:
    """1 when -I acts by -1 in the row (spin rows), else 0."""
    row = default_table().row(name)
    if row[1] == row[0]:
        return 0
    if row[1] == -row[0]:
        return 1
    raise ValueError(f"row {name} is not a homogeneous central type")


def validate_irrep(r: IcoIrrep, m: int) -> None:
    if m < 1:
        raise ValueError("center parameter m must be >= 1")
    if r.base not in IRREP_NAMES:
        raise ValueError(f"unknown row {r.base!r}")
    if not 0 <= r.exponent < 2 * m:
        raise ValueError(f"exponent {r.exponent} out of range for 2m = {2 * m}")
    if r.exponent % 2 != base_parity(r.base):
        raise ValueError(
            f"exponent parity mismatch: {r} needs exponent "
            f"{'odd' if base_parity(r.base) else 'even'} mod 2"
        )


def classify_irreps(m: int) -> list[IcoIrrep]:
    """All irreducibles for center of order 2m, row-major then by exponent."""
    if m < 1:
        raise ValueError("center parameter m must be >= 1")
    out = []
    for name in IRREP_NAMES:
        p = base_parity(name)
        out.extend(IcoIrrep(name, a) for a in range(p, 2 * m, 2))
    return out


def dim_irrep(r: IcoIrrep) -> int:
    return default_table().dim(r.base)


def twist_equivalent(r1: IcoIrrep, r2: IcoIrrep, m: int) -> bool:
    """Characters of the group shift exponents by even steps within a row."""
    validate_irrep(r1, m)
    validate_irrep(r2, m)
    return r1.base == r2.base


def dual_irrep(r: IcoIrrep, m: int) -> IcoIrrep:
    """Rows are self-dual (the ``self-duality`` check of
    :func:`icosym.verify.verify_table`), so duality only negates the
    exponent."""
    validate_irrep(r, m)
    return IcoIrrep(r.base, (-r.exponent) % (2 * m))


def is_self_dual(r: IcoIrrep, m: int) -> bool:
    return dual_irrep(r, m) == r


def sym_power_irrep(r: IcoIrrep, n: int, m: int) -> dict[IcoIrrep, int]:
    """Decompose sym^n of a 2-dimensional irreducible into IcoIrreps."""
    validate_irrep(r, m)
    if dim_irrep(r) != 2:
        raise ValueError(f"symmetric powers here act on 2-dimensional irreps, not {r}")
    tab = default_table()
    mults = tab.decompose(tab.sym_power(r.base, n))
    exponent = (n * r.exponent) % (2 * m)
    out = {}
    for name, mult in mults.items():
        constituent = IcoIrrep(name, exponent)
        validate_irrep(constituent, m)  # parity must match automatically
        out[constituent] = mult
    return out


def trivial_constituent_of_sym(n: int) -> int:
    """Multiplicity of the trivial character in sym^n of the designated row X'."""
    tab = default_table()
    value = tab.inner_product(tab.sym_power("X'", n), tab.trivial())
    if not value.is_integer():
        raise RuntimeError(f"non-integral multiplicity at n = {n}: {value}")
    return value.as_int()


def scan_trivial(max_n: int) -> dict[int, int]:
    """n -> multiplicity of the trivial constituent in sym^n(X'), 0 <= n <= max_n."""
    return {n: trivial_constituent_of_sym(n) for n in range(max_n + 1)}


def generator_family(m: int) -> dict[str, IcoIrrep]:
    """The nine derived objects every irreducible is twist-equivalent to.

    Built from the designated 2-dimensional pair Lam = (X', 1) and
    Lam' = (X'', 1): for each generator sym^a(pi) [x] sym^b(pi^tau) of
    :data:`icosym.rules.GENERATORS`, sym^a(Lam)*sym^b(Lam'), keyed by that
    name ("1", "Lam", ..., "Lam*Lam'") and carrying the exponent
    (a + b) mod 2m.  Each must come out as the one row the table gives
    it, so this is the check of that table; the nine land in pairwise
    distinct rows.
    """
    from .rules import GENERATORS  # here, so that irreps and scan-trivial never run it

    if m < 1:
        raise ValueError("center parameter m must be >= 1")
    tab = default_table()
    out = {}
    for g in GENERATORS:
        label = "*".join(
            lam if k == 1 else f"sym^{k}({lam})" for k, lam in ((g.a, "Lam"), (g.b, "Lam'")) if k
        ) or "1"
        mults = tab.decompose(tab.sym_power("X'", g.a) * tab.sym_power("X''", g.b))
        if mults != {g.row: 1}:
            raise RuntimeError(f"{label} decomposes as {mults}, not as the row {g.row}")
        out[label] = IcoIrrep(g.row, (g.a + g.b) % (2 * m))
        validate_irrep(out[label], m)  # the parity must match automatically
    return out
