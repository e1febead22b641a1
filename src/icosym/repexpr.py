"""A small expression language over the nine irreducible characters.

Grammar (whitespace-insensitive)::

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := NAME | 'sym' '^' INT '(' expr ')' | 'dual' '(' expr ')'
            | '(' expr ')'

``NAME`` is one of U, V, W, X1, X2, W', W'', X', X'' (primes written as
ASCII apostrophes).  ``*`` is the tensor product and binds tighter than the
direct sum ``+``; ``sym^n`` demands a 2-dimensional argument, which is a
semantic check performed at evaluation time: the parser still builds the
tree, and the error names the offending subexpression.
"""

from __future__ import annotations

from . import MAX_POWER, Record, bounded_power
from .chartab import IRREP_NAMES, ClassFunction, default_table


#: deepest nesting of parentheses (bare, after ``sym^n`` or ``dual``) that
#: parses; deeper input is a ParseError rather than a RecursionError
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int) -> None:
        line = text.count("\n", 0, pos) + 1
        column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {column}: {message}")
        self.pos = pos
        self.line = line
        self.column = column


class DimensionError(ValueError):
    """sym^n applied to a subexpression that is not 2-dimensional."""


# -- AST ---------------------------------------------------------------------


class Atom(Record):
    __slots__ = ("name",)
    name: str


class Sym(Record):
    __slots__ = ("n", "arg")
    n: int
    arg: "Expr"


class Dual(Record):
    __slots__ = ("arg",)
    arg: "Expr"


class Tensor(Record):
    __slots__ = ("left", "right")
    left: "Expr"
    right: "Expr"


class Plus(Record):
    __slots__ = ("left", "right")
    left: "Expr"
    right: "Expr"


Expr = Atom | Sym | Dual | Tensor | Plus


def _chain(expr: Tensor | Plus) -> tuple[Expr, list[Expr]]:
    """A left-nested run of one operator, ``((a op b) op c) ...``, as its
    first operand and the rest in order.  Long sums and products nest this
    way, so they are walked in a loop rather than by recursion."""
    kind = type(expr)
    rest = []
    while type(expr) is kind:
        rest.append(expr.right)
        expr = expr.left
    return expr, rest[::-1]


def render(expr: Expr) -> str:
    """Canonical text for an AST; reparsing yields an identical tree."""
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, Sym):
        return f"sym^{expr.n}({render(expr.arg)})"
    if isinstance(expr, Dual):
        return f"dual({render(expr.arg)})"
    if isinstance(expr, Tensor):
        first, rest = _chain(expr)
        parts = [f"({render(first)})" if isinstance(first, Plus) else render(first)]
        parts += [
            f"({render(r)})" if isinstance(r, (Plus, Tensor)) else render(r)
            for r in rest
        ]
        return "*".join(parts)
    if isinstance(expr, Plus):
        first, rest = _chain(expr)
        parts = [render(first)]
        parts += [f"({render(r)})" if isinstance(r, Plus) else render(r) for r in rest]
        return " + ".join(parts)
    raise TypeError(f"not an expression node: {expr!r}")


# -- tokenizer ---------------------------------------------------------------


class _Token(Record):
    __slots__ = ("kind", "text", "pos")
    kind: str  # ident | int | caret | lparen | rparen | star | plus | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "'"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        simple = {"^": "caret", "(": "lparen", ")": "rparen", "*": "star", "+": "plus"}
        if ch in simple:
            tokens.append(_Token(simple[ch], ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {what}, got {got}", self.text, tok.pos)
        return self.advance()

    def nested(self, opener: _Token) -> Expr:
        """The expression up to the ``)`` closing one opened at *opener*."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(
                f"expression nested more than {MAX_DEPTH} deep", self.text, opener.pos
            )
        node = self.expr()
        self.expect("rparen", "')'")
        self.depth -= 1
        return node

    def parse(self) -> Expr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected trailing input {tok.text!r}", self.text, tok.pos
            )
        return expr

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "plus":
            self.advance()
            node = Plus(node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "star":
            self.advance()
            node = Tensor(node, self.factor())
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "lparen":
            self.advance()
            return self.nested(tok)
        if tok.kind == "ident" and tok.text == "sym":
            self.advance()
            self.expect("caret", "'^' after sym")
            power = self.expect("int", "an integer power")
            n = bounded_power(power.text)
            if n is None:
                raise ParseError(
                    f"power above the largest supported, {MAX_POWER}",
                    self.text,
                    power.pos,
                )
            self.expect("lparen", "'(' after the power")
            return Sym(n, self.nested(tok))
        if tok.kind == "ident" and tok.text == "dual":
            self.advance()
            self.expect("lparen", "'(' after dual")
            return Dual(self.nested(tok))
        if tok.kind == "ident":
            if tok.text not in IRREP_NAMES:
                raise ParseError(
                    f"unknown name {tok.text!r}; expected one of "
                    + ", ".join(IRREP_NAMES),
                    self.text,
                    tok.pos,
                )
            self.advance()
            return Atom(tok.text)
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(f"expected an expression, got {got}", self.text, tok.pos)


def parse(text: str) -> Expr:
    """Parse an expression; errors carry line and column."""
    return _Parser(text).parse()


def evaluate(expr: Expr) -> ClassFunction:
    """Evaluate an AST to an exact class function.

    Raises :class:`DimensionError` when sym^n is applied to a subexpression
    whose dimension is not 2.
    """
    tab = default_table()
    if isinstance(expr, Atom):
        return tab.row(expr.name)
    if isinstance(expr, Sym):
        inner = evaluate(expr.arg)
        if inner.dim() != 2:
            raise DimensionError(
                f"sym^{expr.n} needs a 2-dimensional argument, but "
                f"{render(expr.arg)} has dimension {inner.dim()}"
            )
        return tab.sym_power(inner, expr.n)
    if isinstance(expr, Dual):
        return tab.dual(evaluate(expr.arg))
    if isinstance(expr, (Tensor, Plus)):
        first, rest = _chain(expr)
        out = evaluate(first)
        for r in rest:
            value = evaluate(r)
            out = out * value if isinstance(expr, Tensor) else out + value
        return out
    raise TypeError(f"not an expression node: {expr!r}")

