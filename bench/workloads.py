"""The three workloads: seeded inputs, the operation each input drives, and
the benchmark's own reference for every output.

A workload yields operations without end; the loop in ``worker.py`` stops
it.  Sizes come from additive (golden-ratio) sequences with a seeded start,
so that every prefix of the operation stream is spread evenly over the
stated size range: a run that stops anywhere has seen the same mix, which
keeps throughput from one seed to the next comparable.

References are computed here from first principles and never taken from
icosym: the Molien series of the 2-dimensional representation, the degrees
of the nine rows, and a hidden assignment of adjoint classes behind every
generated facts document.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import icosym
from icosym import isobaric

GOLDEN_STEP = (math.sqrt(5) - 1) / 2
# steps of the two-dimensional R2 sequence (from the plastic number), for
# pairs that must cover the square evenly rather than lie on one line
PAIR_STEPS = (0.7548776662466927, 0.5698402909980532)

# degrees of the nine irreducible rows
DIMS = {"U": 1, "V": 5, "W": 6, "X1": 4, "X2": 4, "W'": 3, "W''": 3, "X'": 2, "X''": 2}
GALOIS = {"W'": "W''", "W''": "W'", "X'": "X''", "X''": "X'"}


def molien(n: int) -> int:
    """Coefficient of t^n in (1 + t^30) / ((1 - t^12)(1 - t^20)): the number
    of invariants of degree n of the binary icosahedral group."""

    def count(k: int) -> int:
        return sum(1 for b in range(k // 20 + 1) if (k - 20 * b) % 12 == 0) if k >= 0 else 0

    return count(n) + count(n - 30)


class Stream:
    """Uniform draws in [0, 1) spread evenly over every prefix."""

    def __init__(self, rng: random.Random, step: float = GOLDEN_STEP) -> None:
        self.u = rng.random()
        self.step = step

    def next(self) -> float:
        self.u = (self.u + self.step) % 1.0
        return self.u

    def integer(self, lo: int, hi: int) -> int:
        """Uniform on lo..hi inclusive."""
        return lo + int(self.next() * (hi - lo + 1))

    def log_integer(self, hi: int) -> int:
        """Log-uniform on 0..hi: floor((hi + 1) ** u) - 1."""
        return min(hi, int((hi + 1) ** self.next()) - 1)


@dataclass
class Outcome:
    """What the benchmark learned from one operation."""

    ok: bool = True
    verdicts: int = 0  # verdict-returning results
    definite: int = 0  # ... of which gave a definite answer
    problem: str = ""
    note: str = ""  # an allowed outcome the run record counts


def fail(problem: str) -> Outcome:
    return Outcome(ok=False, problem=problem)


# ---------------------------------------------------------------------------
# tower


class Tower:
    """decompose(sym_power(row, n)), siegel_report(m) and scan_trivial(max)
    in one process, closed loop.

    Decompositions alternate between X' and X'', each with a fresh n.  The
    Galois swap between the two rows is checked wherever both have been
    decomposed at one n, and after the run, untimed, at the largest sizes
    decomposed for one row only.  (Timing a partner for some of the sizes
    instead would make which sizes appear twice depend on the seed, and
    move p90 with it.)  The scans sweep max upward through
    12..120 in small steps and start again: each scan extends the sym^n
    cache by a few powers, so that how the cost of filling it falls on the
    scans does not depend on the seed.
    """

    name = "tower"
    # one cycle of operation kinds
    CYCLE = ("decompose", "siegel", "decompose", "siegel", "decompose", "scan",
             "decompose", "siegel", "decompose", "siegel")
    MIX = Counter(CYCLE)  # operations of each kind per cycle
    SWAPS_AFTER = 6  # sizes whose Galois swap is checked after the run

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.n = Stream(rng)
        self.m = Stream(rng)
        self.rows = ("X'", "X''") if rng.random() < 0.5 else ("X''", "X'")
        self.scan_offset = rng.randrange(3)
        self.decomposed: dict[tuple[str, int], dict[str, int]] = {}

    def ops(self):
        decompositions = scans = 0
        while True:
            for kind in self.CYCLE:
                if kind == "decompose":
                    yield ("decompose", self.rows[decompositions % 2], self.n.log_integer(2000))
                    decompositions += 1
                elif kind == "siegel":
                    yield ("siegel", self.m.integer(0, 200))
                else:
                    yield ("scan", 12 + (self.scan_offset + 3 * scans) % 109)
                    scans += 1

    def prepare(self, op):
        return op

    def run(self, op, arg):
        if op[0] == "decompose":
            tab = icosym.default_table()
            return tab.decompose(tab.sym_power(op[1], op[2]))
        if op[0] == "siegel":
            return icosym.siegel_report(op[1])
        return icosym.scan_trivial(op[1])

    def check(self, op, out) -> Outcome:
        if op[0] == "decompose":
            _, row, n = op
            if out.get("U", 0) != molien(n):
                return fail(f"sym^{n}({row}): trivial multiplicity {out.get('U', 0)} != {molien(n)}")
            if sum(k * DIMS[name] for name, k in out.items()) != n + 1:
                return fail(f"sym^{n}({row}): dimensions do not sum to {n + 1}")
            self.decomposed[(row, n)] = out
            other = self.decomposed.get((GALOIS[row], n))
            if other is not None and {GALOIS.get(k, k): v for k, v in other.items()} != out:
                return fail(f"sym^{n}: X' and X'' decompositions are not Galois swaps")
            return Outcome()
        if op[0] == "siegel":
            m = op[1]
            if out.verdict not in ("no-siegel-zero", "exceptional-case", "not-covered"):
                return fail(f"siegel m={m}: unknown verdict {out.verdict}")
            if m >= 1 and (out.verdict == "exceptional-case") != (molien(m) > 0):
                return fail(f"siegel m={m}: verdict {out.verdict}, Molien coefficient {molien(m)}")
            return Outcome(verdicts=1, definite=int(out.verdict != "not-covered"))
        want = {n: molien(n) for n in range(op[1] + 1)}
        return Outcome() if out == want else fail(f"scan_trivial({op[1]}) disagrees with Molien")

    def finish(self) -> list[str]:
        """Untimed checks after the run: the Galois swap at sizes spread
        over those decomposed for one row only, the largest among them."""
        single = sorted((n, row) for row, n in self.decomposed
                        if (GALOIS[row], n) not in self.decomposed)
        picks = {single[len(single) - 1 - i * len(single) // self.SWAPS_AFTER]
                 for i in range(min(self.SWAPS_AFTER, len(single)))}
        problems = []
        for n, row in sorted(picks):
            op = ("decompose", GALOIS[row], n)
            outcome = self.check(op, self.run(op, op))
            if not outcome.ok:
                problems.append(outcome.problem)
        return problems


# ---------------------------------------------------------------------------
# hidden ledger universes


SIZES = {  # bases of each declared type in one document
    "dihedral": 4,
    "tetrahedral": 4,
    "octahedral": 5,
    "icosahedral": 6,
    "general": 4,
    "abstract": 1,
}
CHARACTERS = (
    {"name": "chi0", "order": 2, "properties": ["quadratic"]},
    {"name": "chi1", "order": 3, "properties": ["cubic"]},
    {"name": "chi2", "order": 4},
    {"name": "chi3", "order": 5, "properties": ["non-real"]},
    {"name": "chi4"},
    {"name": "chi5", "properties": ["quadratic"]},
)


@dataclass
class Universe:
    """A consistent hidden truth and the facts document revealing part of it.

    Every non-dihedral base has an adjoint class: Ad(p) ~ Ad(q) exactly when
    the classes agree.  An octahedral q also has the class of its twist
    Ad(q) (x) mu(q), never its own class (that would be a quadratic
    self-twist).  Icosahedral bases tagged with the rows X' and X'' restrict
    to distinct 3-dimensional rows, so their classes never meet.  The base
    change of q to the field of a dihedral p has q's type; a tetrahedral
    base change may or may not have the Mackey self-twist.
    """

    doc: dict = field(default_factory=dict)
    types: dict[str, str] = field(default_factory=dict)
    cls: dict[str, tuple] = field(default_factory=dict)
    mu_cls: dict[str, tuple] = field(default_factory=dict)
    field_of: dict[str, str] = field(default_factory=dict)
    tagged: set[str] = field(default_factory=set)
    self_twist: dict[tuple[str, str], bool] = field(default_factory=dict)

    @classmethod
    def generate(cls, rng: random.Random, scale: float = 1.0, reveal: float = 0.3) -> "Universe":
        u = cls()
        names: list[str] = []
        bases = []
        for typ, count in SIZES.items():
            # a scaled-down document keeps one base of each declared type
            count = round(count * scale) if typ == "abstract" else max(1, round(count * scale))
            for _ in range(count):
                name = f"b{len(names)}"
                names.append(name)
                u.types[name] = typ
                entry = {"name": name, "type": typ}
                if typ == "dihedral":
                    entry["dihedral_field"] = u.field_of[name] = f"E{len(u.field_of)}"
                    entry["dihedral_char"] = f"xi{len(u.field_of) - 1}"
                bases.append(entry)
        tagged = [b for b in bases if b["type"] == "icosahedral"][:2]
        for entry, row in zip(tagged, ("X'", "X''")):
            entry["galois_row"] = row
            u.tagged.add(entry["name"])
        rows = {b["name"]: b.get("galois_row") for b in bases}

        for typ in ("tetrahedral", "octahedral", "icosahedral", "general"):
            members = [n for n in names if u.types[n] == typ]
            ids = max(1, len(members) // 2)
            for n in members:
                k = rng.randrange(ids)
                if rows[n] is not None:  # X' rows take even classes, X'' odd
                    k = 2 * k + (rows[n] == "X''")
                u.cls[n] = (typ, k)
            if typ == "octahedral":
                for n in members:
                    k = rng.choice([i for i in range(ids + 1) if i != u.cls[n][1]])
                    u.mu_cls[n] = (typ, k)

        facts = []
        base_changes = []
        adjoints = [n for n in names if n in u.cls]
        for i, p in enumerate(adjoints):
            for q in adjoints[i + 1:]:
                if rng.random() < reveal:
                    facts.append(_fact(f"Ad({p})", f"Ad({q})", u.cls[p] == u.cls[q]))
            for q in adjoints:
                if q in u.mu_cls and q != p and rng.random() < reveal:
                    facts.append(
                        _fact(f"Ad({p})", f"Ad({q})", u.cls[p] == u.mu_cls[q], f"mu({q})")
                    )
        for p, ext in u.field_of.items():
            chi = next(b["dihedral_char"] for b in bases if b["name"] == p)
            for q in names:
                bc_type = u.types[q] if u.types[q] != "abstract" else "general"
                if bc_type == "tetrahedral":
                    u.self_twist[(q, ext)] = rng.random() < 0.3
                if rng.random() >= reveal:
                    continue
                bc = f"{q}_{ext}"
                base_changes.append({"of": q, "extension": ext, "name": bc, "type": bc_type})
                if bc_type == "tetrahedral" and rng.random() < reveal:
                    facts.append(
                        _fact(
                            f"sym^2({bc})",
                            f"sym^2({bc})",
                            u.self_twist[(q, ext)],
                            f"{chi}^-1*{chi}@theta",
                        )
                    )
        rng.shuffle(facts)
        u.doc = {
            "characters": [dict(c) for c in CHARACTERS],
            "bases": bases,
            "base_changes": base_changes,
            "facts": facts,
            "word_kinds": [{"word": "chi4^2", "kind": "non-real"}],
        }
        return u

    @property
    def names(self) -> list[str]:
        return list(self.types)

    def cuspidal(self, p: str, q: str) -> bool | None:
        """Is p (x) sym^2(q) cuspidal in the hidden truth; None when a base
        involved has no declared type, so no definite answer is due."""
        tp, tq = self.types[p], self.types[q]
        if tp == "dihedral":
            ext = self.field_of[p]
            bc = tq if tq != "abstract" else "general"
            if bc == "dihedral":
                return False
            return not self.self_twist[(q, ext)] if bc == "tetrahedral" else True
        if "abstract" in (tp, tq):
            return None
        if tq == "dihedral":
            return False
        return self.cls[p] != self.cls[q] and self.cls[p] != self.mu_cls.get(q)

    def pole_pool(self) -> list[tuple[str, tuple, tuple]]:
        """Constituent symbols for isobaric sums, each with its hidden
        equivalence class and its stratum: the kind of symbol, and whether
        its base restricts to the finite model."""
        pool = []
        for n, typ in self.types.items():
            tagged = n in self.tagged
            if typ != "dihedral":
                cls = ("ad",) + self.cls[n] if n in self.cls else ("ad", n)
                pool.append((f"Ad({n})", cls, ("ad", tagged)))
            if n in self.mu_cls:
                pool.append((f"Ad({n})*mu({n})", ("ad",) + self.mu_cls[n], ("ad-mu", tagged)))
            pool.append((n, ("base", n), ("base", tagged)))
            pool.append((f"sym^3({n})", ("sym3", n), ("sym3", tagged)))
        pool.extend((c["name"], ("char", c["name"]), ("char", False)) for c in CHARACTERS)
        return pool


def stratified_sample(rng: random.Random, pool: list, k: int) -> list:
    """k pool entries, every stratum taking its proportional share (largest
    remainders round), so that sums of one size cost alike."""
    groups: dict[tuple, list] = {}
    for entry in pool:
        groups.setdefault(entry[2], []).append(entry)
    shares = {key: k * len(group) / len(pool) for key, group in groups.items()}
    counts = {key: int(share) for key, share in shares.items()}
    by_remainder = sorted(shares, key=lambda key: shares[key] - counts[key], reverse=True)
    for key in by_remainder[: k - sum(counts.values())]:
        counts[key] += 1
    sample = [entry for key, group in groups.items() for entry in rng.sample(group, counts[key])]
    rng.shuffle(sample)
    return sample


def _fact(lhs: str, rhs: str, truth: bool, twist: str | None = None) -> dict:
    if twist is None:
        return {"lhs": lhs, "rhs": rhs, "relation": "equiv", "truth": truth}
    return {"lhs": lhs, "rhs": rhs, "relation": "twist-equiv-by", "twist": twist, "truth": truth}


def constituent(symbol: str, ledger) -> "isobaric.Constituent":
    """Build a pool symbol with the isobaric module's constructors."""
    if symbol.startswith("Ad("):
        base = ledger.bases[symbol[3:symbol.index(")")]]
        c = isobaric.ad(base)
        return c.twisted(isobaric.CharWord.gen(base.quadratic_char)) if "*mu(" in symbol else c
    if symbol.startswith("sym^3("):
        return isobaric.Constituent(isobaric.SymCusp(ledger.bases[symbol[6:-1]], 3))
    if symbol in ledger.bases:
        return isobaric.Constituent(ledger.bases[symbol])
    return isobaric.Constituent(None, isobaric.CharWord.gen(symbol))


def pick_pair(names: list[str], streams: tuple[Stream, Stream]) -> tuple[str, str]:
    """A base pair; names are grouped by type, so the streams spread the
    pairs evenly over the type combinations."""
    return tuple(names[int(s.next() * len(names))] for s in streams)


def check_verdict(universe: Universe, p: str, q: str, verdict: str) -> str:
    """'' when a verdict string is allowed by the hidden truth."""
    truth = universe.cuspidal(p, q)
    if verdict == "undetermined":
        return ""
    if verdict not in ("cuspidal", "not-cuspidal"):
        return f"unknown verdict {verdict!r}"
    if truth is None:
        return f"{p} (x) sym^2({q}): definite verdict {verdict} with an undeclared type"
    if (verdict == "cuspidal") != truth:
        return f"{p} (x) sym^2({q}): {verdict}, hidden truth {'cuspidal' if truth else 'not-cuspidal'}"
    return ""


# ---------------------------------------------------------------------------
# ledger


class Ledger:
    """load_facts on a generated document (writes), then cuspidality
    decisions on base pairs and pole orders of k-term isobaric sums against
    the loaded ledger (reads), closed loop in one process."""

    name = "ledger"
    DECIDES = 12  # decision pairs per document
    POLES = 2  # pole-order sums per document
    MIX = {"load": 1, "decide": DECIDES, "pole": POLES}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.k = Stream(self.rng)
        self.pairs = tuple(Stream(self.rng, step) for step in PAIR_STEPS)
        self.ledger = None

    def ops(self):
        rng = self.rng
        while True:
            u = Universe.generate(rng)
            yield ("load", u)
            names = u.names
            for i in range(self.DECIDES + self.POLES):
                if i % 7 == 3:
                    # exactly one term restricts to the finite model: each such
                    # term costs a decomposition per comparison, so a varying
                    # number of them would swamp the effect of k
                    pool = u.pole_pool()
                    terms = [rng.choice([e for e in pool if e[2][1]])] + stratified_sample(
                        rng, [e for e in pool if not e[2][1]], self.k.integer(4, 64) - 1)
                    yield ("pole", u, [(s, c, rng.randint(1, 3)) for s, c, _ in terms])
                else:
                    yield ("decide", u, *pick_pair(names, self.pairs))

    def finish(self) -> list[str]:
        return []

    def prepare(self, op):
        """Inputs built with the program's constructors, outside the timer."""
        if op[0] == "pole":
            return isobaric.IsobaricExpr.of(
                (constituent(s, self.ledger), mult) for s, _, mult in op[2]
            )
        if op[0] == "decide":
            return self.ledger.bases[op[2]], self.ledger.bases[op[3]]
        return op[1].doc

    def run(self, op, arg):
        if op[0] == "load":
            self.ledger = icosym.load_facts(arg)
            return self.ledger
        if op[0] == "decide":
            p, q = arg
            structural = icosym.decide_cuspidality(p, q, self.ledger)
            if "dihedral" in (p.typ, q.typ):
                return structural, None
            return structural, icosym.decide_cuspidality_via_poles(p, q, self.ledger)
        return icosym.pole_order(arg, self.ledger)

    def check(self, op, out) -> Outcome:
        u = op[1]
        if op[0] == "load":
            missing = [n for n in u.names if n not in out.bases]
            return fail(f"bases not loaded: {missing}") if missing else Outcome()
        if op[0] == "decide":
            _, _, p, q = op
            verdicts = [v.verdict for v in out if v is not None]
            for verdict in verdicts:
                problem = check_verdict(u, p, q, verdict)
                if problem:
                    return fail(problem)
            definite = [v for v in verdicts if v != "undetermined"]
            if len(set(definite)) > 1:
                return fail(f"{p} (x) sym^2({q}): the two routes contradict: {verdicts}")
            return Outcome(verdicts=len(verdicts), definite=len(definite))
        classes: dict[tuple, int] = {}
        for _, c, mult in op[2]:
            classes[c] = classes.get(c, 0) + mult
        truth = sum(t * t for t in classes.values())
        if not out.lo <= truth <= out.hi:
            return fail(f"pole order [{out.lo}, {out.hi}] misses the hidden order {truth}")
        return Outcome(verdicts=1, definite=int(out.lo == out.hi))


# ---------------------------------------------------------------------------
# cli


def render(tree) -> str:
    kind = tree[0]
    if kind == "row":
        return tree[1]
    if kind == "sym":
        return f"sym^{tree[1]}({render(tree[2])})"
    if kind == "dual":
        return f"dual({render(tree[1])})"
    if kind == "plus":
        return f"{render(tree[1])} + {render(tree[2])}"
    left, right = (render(t) if t[0] != "plus" else f"({render(t)})" for t in tree[1:])
    return f"{left}*{right}"


def dimension(tree) -> int:
    kind = tree[0]
    if kind == "row":
        return DIMS[tree[1]]
    if kind == "sym":
        return tree[1] + 1
    if kind == "dual":
        return dimension(tree[1])
    if kind == "plus":
        return dimension(tree[1]) + dimension(tree[2])
    return dimension(tree[1]) * dimension(tree[2])


def expression(rng: random.Random, depth: int):
    """A random expression tree: sums, products, duals and sym^n (n < 60)
    of 2-dimensional arguments."""
    roll = rng.random()
    if depth > 0 and roll < 0.55:
        if roll < 0.1:
            return ("dual", expression(rng, depth - 1))
        kind = "plus" if roll < 0.35 else "times"
        return (kind, expression(rng, depth - 1), expression(rng, depth - 1))
    if rng.random() < 0.5:
        arg = ("row", rng.choice(("X'", "X''")))
        return ("sym", rng.randrange(60), ("dual", arg) if rng.random() < 0.3 else arg)
    return ("row", rng.choice(sorted(DIMS)))


# malformed expressions and arguments whose due outcome is exit 2
NOT_TWO_DIMENSIONAL = tuple(name for name, dim in DIMS.items() if dim != 2)
BAD_EXPRESSIONS = (
    lambda text, rng: text + " +",
    lambda text, rng: text + ")",
    lambda text, rng: "(" + text,
    lambda text, rng: text.replace("(", "[", 1) if "(" in text else text + "^",
    lambda text, rng: f"sym^{rng.randrange(60)}({rng.choice(NOT_TWO_DIMENSIONAL)})",
    lambda text, rng: text + "*Y",
    lambda text, rng: f"sym^-{rng.randrange(1, 9)}(X')",
)
BAD_ARGUMENTS = (
    lambda rng: ["irreps", "--m", str(-rng.randrange(0, 50))],
    lambda rng: ["irreps", "--m", "m" + str(rng.randrange(100))],
    lambda rng: ["siegel", "--scan", f"{rng.randrange(10, 40)}..{rng.randrange(0, 10)}"],
    lambda rng: ["siegel", "--m", str(-rng.randrange(1, 50))],
    lambda rng: ["scan-trivial", "--max", str(-rng.randrange(0, 9))],
)
BAD_DOCUMENTS = (  # facts documents that must be refused with exit 2
    lambda doc: json.dumps(doc)[:-3],
    lambda doc: json.dumps({**doc, "extra_section": []}),
    lambda doc: json.dumps({**doc, "bases": doc["bases"] + [{"name": "z", "type": "pentagonal"}]}),
    lambda doc: json.dumps({**doc, "facts": doc["facts"] + [_fact("Ad(nowhere)", "Ad(b5)", True)]}),
    lambda doc: json.dumps({**doc, "facts": doc["facts"] + [_fact("Ad(b5)", "Ad(b6)", True), _fact("Ad(b6)", "Ad(b5)", False)]}),
    lambda doc: json.dumps({**doc, "bases": doc["bases"] + [{"name": "z", "type": "dihedral"}]}),
)


class Cli:
    """One fresh ``python -m icosym.cli`` process per operation, one at a
    time.  Half the commands carry --json."""

    name = "cli"
    # one cycle of command kinds, shuffled; verify all joins it in the middle
    CYCLE = (
        ["decompose"] * 21 + ["siegel"] * 8 + ["irreps"] * 6 + ["chartab"] * 3
        + ["cuspidality"] * 13 + ["bad-expression"] * 5 + ["bad-argument"] * 3
        + ["bad-facts"] * 4
    )
    MIX = Counter(CYCLE) + Counter(verify=1)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.m = Stream(self.rng)
        self.level = Stream(self.rng)
        self.pairs = tuple(Stream(self.rng, step) for step in PAIR_STEPS)
        self.workdir = workdir / f"cli-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = 0
        self.command = [sys.executable, "-m", "icosym.cli"]

    def _facts_file(self, text: str) -> str:
        path = self.workdir / f"facts{self.files % 64}.json"
        self.files += 1
        path.write_text(text)
        return str(path)

    def ops(self):
        rng = self.rng
        cycle = list(self.CYCLE)
        position = 0
        while True:
            rng.shuffle(cycle)
            for i, kind in enumerate(cycle):
                position += 1
                as_json = position % 2 == 0
                if i == len(cycle) // 2:
                    yield self._op("verify", ["verify", "all"], as_json)
                yield self._make(kind, as_json)

    def _op(self, kind, argv, as_json, **expect):
        return {"kind": kind, "argv": argv + (["--json"] if as_json else []), "json": as_json, **expect}

    def _make(self, kind, as_json):
        rng = self.rng
        if kind == "decompose":
            tree = expression(rng, rng.randrange(4))
            return self._op(kind, ["decompose", "--rep", render(tree)], as_json, dim=dimension(tree))
        if kind == "siegel":
            m = self.m.integer(0, 200)
            return self._op(kind, ["siegel", "--m", str(m)], as_json, m=m)
        if kind == "irreps":
            m = self.level.integer(1, 40)
            return self._op(kind, ["irreps", "--m", str(m)], as_json, m=m)
        if kind == "chartab":
            return self._op(kind, ["chartab"], as_json)
        if kind == "cuspidality":
            # every type declared and every true fact revealed, so that every
            # verdict is due to be definite
            u = Universe.generate(rng, scale=0.4, reveal=1.0)
            p, q = pick_pair(u.names, self.pairs)
            path = self._facts_file(json.dumps(u.doc))
            argv = ["cuspidality", "--facts", path, "--pi", p, "--pi-prime", q]
            return self._op(kind, argv, as_json, universe=u, pair=(p, q))
        if kind == "bad-expression":
            text = render(expression(rng, 2))
            bad = rng.choice(BAD_EXPRESSIONS)(text, rng)
            return self._op(kind, ["decompose", "--rep", bad], as_json)
        if kind == "bad-argument":
            return self._op(kind, rng.choice(BAD_ARGUMENTS)(rng), as_json)
        u = Universe.generate(rng, scale=0.4, reveal=0.5)
        path = self._facts_file(rng.choice(BAD_DOCUMENTS)(u.doc))
        argv = ["cuspidality", "--facts", path, "--pi", u.names[0], "--pi-prime", u.names[1]]
        return self._op("bad-facts", argv, as_json)

    def prepare(self, op):
        return op

    def finish(self) -> list[str]:
        return []

    def run(self, op, arg, command=None):
        """Run one CLI process to completion; returns (exit code, stdout, stderr)."""
        proc = subprocess.Popen(
            (command or self.command) + op["argv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, err
        return proc.returncode, out, err

    def check(self, op, out) -> Outcome:
        code, stdout, stderr = out
        kind = op["kind"]
        if code is None:
            return fail(f"{op['argv']}: timed out")
        if "Traceback" in stderr:
            return fail(f"{op['argv']}: traceback")
        if kind.startswith("bad-"):
            return Outcome() if code == 2 else fail(f"{op['argv']}: exit {code}, 2 due")
        doc = None
        if op["json"]:
            try:
                doc = json.loads(stdout)
            except ValueError:
                return fail(f"{op['argv']}: --json output does not parse")
            if set(doc) != {"command", "inputs", "results", "citations"}:
                return fail(f"{op['argv']}: --json keys {sorted(doc)}")
        if kind == "cuspidality":
            return self._check_cuspidality(op, code, stdout, doc)
        if code != 0:
            return fail(f"{op['argv']}: exit {code}")
        problem = getattr(self, f"_problem_{kind}")(op, stdout, doc and doc["results"])
        if problem:
            return fail(f"{op['argv']}: {problem}")
        if kind == "siegel":
            verdict = doc["results"]["verdict"] if doc else re.search(r"-> (\S+)", stdout).group(1)
            return Outcome(verdicts=1, definite=int(verdict != "not-covered"))
        return Outcome()

    def _problem_decompose(self, op, stdout, results) -> str:
        if results is not None:
            mults = results["decomposition"]
            if results["dimension"] != str(op["dim"]):
                return f"dimension {results['dimension']}, expected {op['dim']}"
        else:
            text = stdout.strip().rsplit(" = ", 1)[1]
            mults = {}
            if text != "0":
                for term in text.split(" + "):
                    k, name = re.fullmatch(r"(\d*)(.+)", term).groups()
                    mults[name] = int(k or 1)
        total = sum(k * DIMS[name] for name, k in mults.items())
        return "" if total == op["dim"] else f"decomposition has dimension {total}, expected {op['dim']}"

    def _problem_siegel(self, op, stdout, results) -> str:
        m = op["m"]
        verdict = results["verdict"] if results else re.search(r"-> (\S+)", stdout).group(1)
        if m >= 1 and (verdict == "exceptional-case") != (molien(m) > 0):
            return f"verdict {verdict}, Molien coefficient {molien(m)}"
        return ""

    def _problem_irreps(self, op, stdout, results) -> str:
        m = op["m"]
        if results:
            got = results["count"], results["sum_of_squared_dims"]
        else:
            head = re.match(r"m = \d+: (\d+) irreducibles, sum of squares (\d+)", stdout)
            got = int(head.group(1)), int(head.group(2))
        return "" if got == (9 * m, 120 * m) else f"count and square sum {got}, expected {(9 * m, 120 * m)}"

    def _problem_chartab(self, op, stdout, results) -> str:
        if results:
            dims = results["dimensions"]
        else:
            dims = {line.split()[0]: int(line.split()[1]) for line in stdout.splitlines()[4:]}
        return "" if dims == DIMS else f"row degrees {dims}"

    def _problem_verify(self, op, stdout, results) -> str:
        if results:
            return "" if results["passed"] is True else "verification failed"
        last = re.search(r"overall: (\d+)/(\d+) checks passed", stdout)
        return "" if last and last.group(1) == last.group(2) else "verification failed"

    def _check_cuspidality(self, op, code, stdout, doc) -> Outcome:
        u, (p, q) = op["universe"], op["pair"]
        if doc:
            results = doc["results"]
            verdicts = [results["structural"]["verdict"]]
            if results["pole_counting"] is not None:
                verdicts.append(results["pole_counting"]["verdict"])
        else:
            verdicts = re.findall(r"\[(?:structural|pole-counting)\] (\S+)", stdout)
        for verdict in verdicts:
            problem = check_verdict(u, p, q, verdict)
            if problem:
                return fail(problem)
        definite = [v for v in verdicts if v != "undetermined"]
        if len(set(definite)) > 1:
            return fail(f"{p} (x) sym^2({q}): the two routes contradict: {verdicts}")
        outcome = Outcome(verdicts=len(verdicts), definite=len(definite))
        if len(set(verdicts)) == 1:
            return outcome if code == 0 else fail(f"{op['argv']}: exit {code}, routes agree")
        # one route is definite and the other undetermined: no contradiction,
        # so exit 0 and exit 1 are both allowed; the record counts which
        if code not in (0, 1):
            return fail(f"{op['argv']}: exit {code} with verdicts {verdicts}")
        outcome.note = f"cuspidality, one route undetermined: exit {code}"
        return outcome


WORKLOADS = {w.name: w for w in (Tower, Ledger, Cli)}
