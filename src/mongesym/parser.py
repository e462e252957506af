"""Parser for the expression grammar.

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' exponent)?
    base     := rationalLiteral | coordinate | '(' expr ')'
              | 'exp' '(' expr ')' | 'ln' '(' expr ')'
    exponent := rationalLiteral | '(' rationalLiteral ')'

Whitespace is insignificant.  A leading unary minus is accepted as a
convenience superset ("-x" parses like "-1*x"); printed output always stays
inside the grammar above and re-parses to the identical canonical form.

Nesting is bounded: at most MAX_NESTING parentheses, exp( and ln( may be
open at once, so deep input raises ParseError instead of exhausting the
recursive descent's stack.

Rational powers are kept exact: integer powers are expanded, fractional
powers of polynomials become power atoms, and a fractional power of a bare
rational literal must itself be rational (8^(1/3) parses to 2, 2^(1/3) is
rejected).
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .charts import Chart
from .expr import (MAX_POWER_PRODUCTS, Expr, ExprError, NonRationalPowerError, ExpAtom,
                   LnAtom, ONE_MONO, shortened)

# Parentheses, exp( and ln( open at once; deeper input is a ParseError.
MAX_NESTING = 100
# Characters of an argument that an error message quotes.
QUOTE_LIMIT = 80


def quoted(value) -> str:
    """repr(value) for an error message, cut when it is long: a string
    longer than QUOTE_LIMIT shows its first QUOTE_LIMIT characters, an
    ellipsis and its length, any other value its repr's first QUOTE_LIMIT
    characters likewise.  An error on a huge input stays one short line."""
    if isinstance(value, str):
        if len(value) <= QUOTE_LIMIT:
            return repr(value)
        return f"{value[:QUOTE_LIMIT]!r}... ({len(value)} characters)"
    text = repr(value)
    return (text if len(text) <= QUOTE_LIMIT
            else f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)")


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        if self.pos < len(self.text) and not self.text[self.pos].isspace():
            return self.text[self.pos]
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self):
        """Step past the character peek has just returned."""
        self.pos += 1

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def read_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return self.integer(start, digits)

    def integer(self, start: int, digits: int) -> int:
        """The integer text[start:pos], its digits from position digits on.
        More digits than Python converts (sys.get_int_max_str_digits()), or
        digits int() does not read, are a ParseError."""
        limit = sys.get_int_max_str_digits()
        if limit and self.pos - digits > limit:
            raise ParseError(f"integer literal of {self.pos - digits} digits, "
                             f"more than the {limit} Python converts", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            raise ParseError(f"invalid integer literal {quoted(self.text[start:self.pos])}",
                             start) from None

    def read_rational(self):
        """An integer literal as an int, num/den as a Fraction."""
        num = self.read_integer()
        save = self.pos
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            start = self.pos
            den_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == den_start:
                raise ParseError("expected a positive integer denominator", start)
            den = self.integer(den_start, den_start)
            if den == 0:
                raise ParseError("zero denominator", start)
            return Fraction(num, den)
        self.pos = save
        return num

    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (self.text[self.pos].isalpha() or self.text[self.pos] == "_"):
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
        if self.pos == start:
            raise ParseError("expected an identifier", start)
        return self.text[start:self.pos]


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.s = _Scanner(text)
        self.chart = chart
        self.depth = 0

    def parse(self) -> Expr:
        e = self.expr()
        if not self.s.at_end():
            raise ParseError(f"unexpected {self.s.peek()!r}", self.s.pos)
        return e

    def expr(self) -> Expr:
        """A sum of terms, normalized once: its terms' canonical terms,
        negated after a minus sign, are collected in one pass."""
        ch = self.s.peek()
        if ch == "-" and not self._starts_number():
            self.s.advance()
            parts = [-self.term()]
        else:
            if ch == "+":
                self.s.advance()
            parts = [self.term()]
        while True:
            ch = self.s.peek()
            if ch == "+":
                self.s.advance()
                parts.append(self.term())
            elif ch == "-":
                self.s.advance()
                parts.append(-self.term())
            elif len(parts) == 1:
                return parts[0]
            else:
                return Expr.sum(parts)

    def _starts_number(self) -> bool:
        self.s.skip_ws()
        p = self.s.pos
        t = self.s.text
        if p < len(t) and t[p] == "-":
            p += 1
        return p < len(t) and t[p].isdigit()

    def term(self) -> Expr:
        """A product of factors, sized before it expands, as a power is: a
        k-term by an m-term factor takes k * m <= MAX_POWER_PRODUCTS products."""
        e = self.factor()
        while self.s.peek() == "*":
            pos = self.s.pos
            self.s.advance()
            f = self.factor()
            if len(e.terms) * len(f.terms) > MAX_POWER_PRODUCTS:
                raise ParseError(f"product too large: multiplying {len(e.terms)} by "
                                 f"{len(f.terms)} terms takes over {MAX_POWER_PRODUCTS} "
                                 "products", pos)
            e = e * f
        return e

    def factor(self) -> Expr:
        base = self.base()
        if self.s.peek() == "^":
            self.s.advance()
            q = self.exponent()
            try:
                return base ** q
            except NonRationalPowerError:
                raise ParseError(
                    f"non-rational literal power ({shortened(str(base))})^({shortened(str(q))})",
                    self.s.pos) from None
            except ExprError as exc:
                raise ParseError(str(exc), self.s.pos) from None
        return base

    def exponent(self):
        if self.s.peek() == "(":
            self.s.expect("(")
            q = self.s.read_rational()
            self.s.expect(")")
            return q
        return self.s.read_rational()

    def parenthesized(self) -> Expr:
        """The expression inside a parenthesis about to open, one level
        deeper."""
        pos = self.s.pos
        self.s.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", pos)
        e = self.expr()
        self.s.expect(")")
        self.depth -= 1
        return e

    def base(self) -> Expr:
        ch = self.s.peek()
        if ch == "(":
            return self.parenthesized()
        if ch.isdigit() or ch == "-":
            return Expr.constant(self.s.read_rational())
        pos = self.s.pos
        name = self.s.read_name()
        if name in ("exp", "ln"):
            arg = self.parenthesized()
            try:
                poly = arg.as_poly()
            except ExprError:
                raise ParseError(
                    f"{name} argument must be polynomial", pos) from None
            atom = ExpAtom(poly) if name == "exp" else LnAtom(poly)
            return Expr.from_raw([(1, ONE_MONO, (atom,))])
        if name not in self.chart:
            raise ParseError(f"unknown identifier {quoted(name)} in chart {self.chart.name}", pos)
        return Expr.coordinate(name)


def parse(text: str, chart: Chart) -> Expr:
    """Parse text into a canonical expression; a coordinate off the chart
    is a ParseError."""
    return _Parser(text, chart).parse()
