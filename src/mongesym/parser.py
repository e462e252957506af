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
A minus glued to a literal binds like that sign, looser than '^': "-3^2"
and "2*-3^2" read as -(3^2), as "-x^2" reads as -(x^2).

One regex pass reads the text into tokens; a recursive descent reads those.
A term folds its cheap factors as it goes: rational literals into one
numerator and denominator, integer powers of coordinates into one exponent
vector, factors that come out as one atom-free term ((x), 8^(1/3)) into both.
Only the others (parentheses, exp, ln, fractional powers) multiply as
expressions; the folded monomial joins them through multiply_terms, so
y2*y2^(1/3) is y2^(4/3).
A sum gathers its terms' triples over one denominator and normalizes once.

At most MAX_NESTING parentheses, exp( and ln( may be open at once, and a
product is sized before it expands, as a power is.  A fractional power of a
rational literal must be rational (8^(1/3) is 2, 2^(1/3) is rejected).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .charts import Chart, J20
from .expr import (MAX_POWER_PRODUCTS, ONE_MONO, Expr, ExprError, ExpAtom, LnAtom,
                   NonRationalPowerError, Term, multiply_terms, shortened)

# Parentheses, exp( and ln( open at once; deeper input is a ParseError.
MAX_NESTING = 100
# Characters of an argument that an error message quotes.
QUOTE_LIMIT = 80

# (whitespace, token, word to _cut).  \s and \w are str.isspace and
# str.isalnum or '_', but \d is not str.isdigit nor [^\W\d_] str.isalpha, so
# only ASCII letters and a digit run before a non-word character are tokens.
_TOKEN = re.compile(r"(\s*)(?:([A-Za-z_]\w*|\d+(?!\w)|[^\w\s])|(\w+))")


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


def _cut(word: str):
    """A word's tokens: str.isdigit runs, names (str.isalpha or '_' first)
    and single characters that start neither."""
    i = 0
    while i < len(word):
        j = i + 1
        if word[i].isdigit():
            while j < len(word) and word[j].isdigit():
                j += 1
        elif word[i].isalpha() or word[i] == "_":
            j = len(word)
        yield word[i:j]
        i = j


class _Descent:
    """A recursive descent over one text's tokens; self.i is the next."""
    __slots__ = ("text", "chart", "ws", "toks", "i", "depth")

    def __init__(self, text: str, chart: Chart):
        # the whitespace before each token and the tokens, each ending in ""
        # for the end; trailing whitespace goes first, so no match backtracks
        found = _TOKEN.findall(text.rstrip()) + [("", "", "")]
        self.ws, self.toks, words = zip(*found)
        if any(words):
            self.ws, self.toks = zip(*[("" if k else w, part) for w, t, word in found
                                       for k, part in enumerate(_cut(word) if word else (t,))])
        self.text, self.chart, self.i, self.depth = text, chart, 0, 0

    def at(self, i: int) -> int:
        """Token i's offset in the text; len(text) for the last."""
        if i == len(self.toks) - 1:
            return len(self.text)
        return sum(map(len, self.ws[:i + 1])) + sum(map(len, self.toks[:i]))

    def expect(self, tok: str):
        if self.toks[self.i] != tok:
            raise ParseError(f"expected {tok!r}", self.at(self.i))
        self.i += 1

    def expr(self) -> Expr:
        """A sum of terms, normalized once over the lcm of their
        denominators; a lone term that is one Expr is that Expr."""
        toks, ws, i = self.toks, self.ws, self.i
        sign = -1 if toks[i] == "-" and not (toks[i + 1].isdigit() and not ws[i + 1]) else 1
        self.i += sign < 0 or toks[i] == "+"
        terms = [self.term(sign)]
        while toks[self.i] in ("+", "-"):
            self.i += 1
            terms.append(self.term(1 if toks[self.i - 1] == "+" else -1))
        if len(terms) == 1:
            num, den, mono, other = terms[0]
            if other is None:
                g = math.gcd(num, den)
                return Expr((Term(num // g, mono, ()),), den // g) if num else Expr(())
            if num == 1 and den == other.den and mono == ONE_MONO:
                return other
        den = math.lcm(*[t[1] for t in terms])
        ready, raw = [], []
        for num, d, mono, other in terms:
            k = num * (den // d)
            if not k:
                continue
            if other is None:
                ready.append((k, mono, ()))
            elif mono == ONE_MONO:
                ready.extend([(c * k, m, a) for c, m, a in other.terms])
            else:
                multiply_terms(ready, raw, other.terms, (Term(1, mono, ()),), k)
        return Expr.from_raw(raw, ready, den)

    def term(self, sign: int):
        """A product as (num, den, monomial, other): num/den times the
        monomial times other's numerators (other None for 1), the factors
        folded or multiplied into other left to right, each product sized
        first on the terms of the product so far and of the factor."""
        num, den, exps, other = sign, 1, [0, 0, 0, 0, 0], None
        star = None  # the last '*'
        while True:
            base, n = self.factor()
            f = None
            if n is not None:
                exps[J20.coords.index(base)] += n
            elif type(base) is int:
                num *= base
            elif type(base) is Fraction:
                num, den = num * base.numerator, den * base.denominator
            elif len(base.terms) == 1 and not base.terms[0].atoms:
                c, m, _ = base.terms[0]
                num, den, exps = num * c, den * base.den, [a + b for a, b in zip(exps, m)]
            else:
                f = base
            if star is not None:  # a folded zero leaves no terms to multiply
                count = len(other.terms) if num and other is not None else int(num != 0)
                size = 1 if f is None else len(f.terms)
                if count * size > MAX_POWER_PRODUCTS:
                    raise ParseError(f"product too large: multiplying {count} by {size} "
                                     f"terms takes over {MAX_POWER_PRODUCTS} products",
                                     self.at(star))
            if f is not None and num:
                other = f if other is None else other * f
            if self.toks[self.i] != "*":
                return num, den if other is None else den * other.den, tuple(exps), other
            star = self.i
            self.i += 1

    def factor(self):
        """base ('^' exponent)? as (base, n): a coordinate's name and its
        integer power n, or, with n None, a rational literal or an Expr."""
        i = self.i
        t = self.toks[i]
        if t in self.chart.coords:
            self.i, base = i + 1, t
        elif t.isdigit() or t == "-":
            base = self.rational()
        elif t in ("(", "exp", "ln"):  # one level deeper
            self.i = i + (t != "(")
            self.expect("(")
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}",
                                 self.at(i) + (t != "(") * len(t))
            base = self.expr()
            self.expect(")")
            self.depth -= 1
            if t != "(":
                try:
                    poly = base.as_poly()
                except ExprError:
                    raise ParseError(f"{t} argument must be polynomial", self.at(i)) from None
                atom = ExpAtom(poly) if t == "exp" else LnAtom(poly)
                base = Expr.from_raw([(1, ONE_MONO, (atom,))])
        else:
            raise ParseError(f"unknown identifier {quoted(t)} in chart {self.chart.name}"
                             if t[:1].isalpha() or t[:1] == "_" else "expected an identifier",
                             self.at(i))
        if self.toks[self.i] != "^":
            return base, 1 if type(base) is str else None
        self.i += 1
        paren = self.toks[self.i] == "("
        self.i += paren
        q = self.rational()
        if paren:
            self.expect(")")
        if type(base) is str:
            if q.denominator == 1:
                return base, q.numerator
            base = Expr.coordinate(base)
        elif type(base) is not Expr:  # a glued '-' is a sign: -3^2 is -(3^2)
            base = Expr.constant(-base if t == "-" else base)
        try:
            return (-base ** q if t == "-" else base ** q), None
        except ExprError as exc:
            raise ParseError(f"non-rational literal power ({shortened(str(base))})^"
                             f"({shortened(str(q))})" if isinstance(exc, NonRationalPowerError)
                             else str(exc), self.at(self.i - 1) + len(self.toks[self.i - 1])
                             ) from None

    def rational(self):
        """An integer literal as an int, num/den as a Fraction; the digits
        follow a '-' and a '/' at once."""
        toks, ws, i = self.toks, self.ws, self.i
        j = i + 1 if toks[i] == "-" and not ws[i + 1] else i  # the digits
        if not toks[j].isdigit():
            raise ParseError("expected an integer", self.at(i))
        num = self.integer(i, toks[j] if j == i else "-" + toks[j])
        self.i = j + 1
        if toks[j + 1] != "/":
            return num
        if ws[j + 2] or not toks[j + 2].isdigit():
            raise ParseError("expected a positive integer denominator", self.at(j + 1) + 1)
        den = self.integer(j + 2, toks[j + 2])
        if not den:
            raise ParseError("zero denominator", self.at(j + 1) + 1)
        self.i = j + 3
        return Fraction(num, den)

    def integer(self, i: int, text: str) -> int:
        """int(text), the literal at token i; past sys.get_int_max_str_digits()
        digits, or with digits int() does not read, a ParseError."""
        try:
            return int(text)
        except ValueError:
            digits, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
            raise ParseError(f"integer literal of {digits} digits, more than the {limit} "
                             "Python converts" if limit and digits > limit
                             else f"invalid integer literal {quoted(text)}", self.at(i)) from None


def parse(text: str, chart: Chart) -> Expr:
    """Parse text into a canonical expression; a coordinate off the chart
    is a ParseError."""
    p = _Descent(text, chart)
    e = p.expr()
    if p.toks[p.i]:
        raise ParseError(f"unexpected {p.toks[p.i][0]!r}", p.at(p.i))
    return e
