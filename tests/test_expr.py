"""Expression engine: parsing, arithmetic, differentiation, evaluation."""

import math
import random
from fractions import Fraction

import pytest

from mongesym import expr
from mongesym.charts import J2, J20, PLANE, Chart
from mongesym.expr import (EvaluationError, Expr, ExprError, NonRationalPowerError,
                           ExpAtom, LnAtom, PowerAtom, Term, _canonical_term, _evaluate,
                           _lowered, _normalize, _power, _power_parts, _product,
                           _sum, _unit_coord_index, mono_mul)
from mongesym.fields import VectorField, lie_bracket
from mongesym.parser import MAX_NESTING, ParseError, parse

from helpers import (admissible_point, assert_lowest_terms, fraction_text, pair_add,
                     pair_diff, pair_eval, pair_form, pair_mul, pair_pow, random_expr,
                     random_polynomial, reference_parse, to_sympy)


def P(text, chart=J20):
    return parse(text, chart)


C = Expr.coordinate


class TestParse:
    def test_cubic_root_equation(self):
        e = P("y + y2^(1/3)")
        assert len(e.terms) == 2
        assert str(e) == "y + y2^(1/3)"

    def test_zero(self):
        assert P("0").is_zero()
        assert str(P("0")) == "0"

    def test_power_times_exp_term(self):
        e = P("(y2 - 1/2*y1^2)^(2/3) * exp(-4/3*y)")
        assert len(e.terms) == 1
        atoms = e.terms[0].atoms
        kinds = sorted(type(a).__name__ for a in atoms)
        assert kinds == ["ExpAtom", "PowerAtom"]

    def test_syntax_error_position(self):
        with pytest.raises(ParseError):
            P("y + * 3")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            P("w + 1")
        with pytest.raises(ParseError):
            P("z", J2)

    def test_non_rational_literal_power(self):
        with pytest.raises(ParseError):
            P("2^(1/3)")
        assert P("8^(1/3)") == Expr.constant(2)
        assert P("(-8)^(1/3)") == Expr.constant(-2)

    def test_rational_literals(self):
        assert P("3/4").substitute({}) == Fraction(3, 4)
        assert P("-3/4 + 1").substitute({}) == Fraction(1, 4)

    def test_nested_atom_rejected(self):
        with pytest.raises(ParseError):
            P("(y2^(1/3) + 1)^(1/2)")
        with pytest.raises(ParseError):
            P("exp(y2^(1/3))")

    def test_nesting_bound(self):
        deep = "(" * MAX_NESTING + "y2" + ")" * MAX_NESTING
        assert P(deep) == P("y2")
        for opener in ("(", "exp(", "ln("):
            text = opener * (MAX_NESTING + 1) + "y2" + ")" * (MAX_NESTING + 1)
            with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}"):
                P(text)
        # atoms and parentheses count together; exponents do not nest
        mixed = "exp(" + "(" * (MAX_NESTING - 1) + "y2" + ")" * MAX_NESTING
        assert P(mixed) == P("exp(y2)")
        with pytest.raises(ParseError, match="nesting deeper"):
            P("ln(" + mixed + ")")
        assert P("(" * 99 + "y2^(1/3)" + ")" * 99) == P("y2^(1/3)")

    def test_roundtrip_examples(self):
        samples = [
            "y + y2^(1/3)",
            "x^2 - y^2",
            "-2/9*y2^(-5/3)",
            "1 + exp(-4/3*y)*(y2 - 1/2*y1^2)^(2/3)",
            "ln(y2)",
            "x*y1*z - 7/3",
        ]
        for text in samples:
            e = P(text)
            assert parse(str(e), J20) == e

    def test_sum_is_normalized_once(self, monkeypatch):
        # a sum parses like its left fold, with one normalization whatever
        # its length (terms without products normalize nothing themselves)
        def pieces(n):
            return [(-1 if k % 2 else 1,
                     f"{k + 1}/7" if k % 5 == 0 else f"{J20.coords[k % 5]}^{k % 4 + 1}")
                    for k in range(n)]

        def text(ps):
            return " ".join(("- " if sign < 0 else "+ ") + piece for sign, piece in ps)

        for ps in (pieces(40), [(1, f"{k}*x^{k % 3}*y1") for k in range(30)]):
            fold = Expr.zero()
            for sign, piece in ps:
                fold = fold + P(piece).scale(sign)
            assert P(text(ps)) == fold
        calls = []
        normalize = expr._normalize

        def counted(*args):
            calls.append(1)
            return normalize(*args)

        monkeypatch.setattr(expr, "_normalize", counted)
        counts = []
        for n in (10, 80):
            calls.clear()
            P(text(pieces(n)))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("text, value", [
        ("2*x*3", C("x").scale(6)),
        ("x^0*y", C("y")),
        ("x^-2*x^2", Expr.constant(1)),
        ("y2*y2^(1/3)", C("y2").pow_rational(Fraction(4, 3))),
        ("0*exp(y)", Expr.zero()),
        ("-x^2*3/4", (C("x") ** 2).scale(Fraction(-3, 4))),
        ("8^(1/3)*x", C("x").scale(2)),
        ("x*(y+1)^2*x^-1", (C("y") + Expr.constant(1)) ** 2),
    ])
    def test_a_term_folds_its_literals_and_coordinate_powers(self, text, value):
        # the folded coefficient and monomial join the other factors as the
        # product taken factor by factor does: y2 * y2^(1/3) is one power
        assert P(text) == value == reference_parse(text, J20)

    def test_folded_factors_keep_the_product_size_and_its_position(self):
        # x folds into the monomial, yet the product so far still has 330
        # terms when the 792-term factor comes, and the error is at its '*'
        with pytest.raises(ParseError) as info:
            P("x*(x+y+y1+y2+z)^7*(x+y+y1+y2+z+1)^7")
        assert str(info.value) == ("product too large: multiplying 330 by 792 terms takes "
                                   "over 20000 products (at position 17)")

    def test_roundtrip_random(self):
        rng = random.Random(101)
        for _ in range(200):
            e = random_expr(rng)
            assert parse(str(e), J20) == e

    def test_canonical_terms_renormalize_to_themselves(self):
        rng = random.Random(102)
        for _ in range(200):
            e = random_expr(rng)
            raw = [(t.numerator, t.monomial, t.atoms) for t in e.terms]
            assert Expr.from_raw(raw, (), e.den) == e


class TestDomainConvention:
    """The sign convention of roots, stated in the module docstring."""

    def test_a_one_term_base_is_taken_positive(self):
        assert P("(4*y2^2)^(1/2) - 2*y2").is_zero()
        assert P("(4*y2^2)^(1/2)") == P("2*y2")

    def test_no_sign_is_assumed_for_a_multi_term_base(self):
        e = P("((y2+y1)^2)^(1/2) - (y2+y1)")
        assert not e.is_zero()
        assert any(type(a) is PowerAtom and a.exponent == Fraction(1, 2)
                   for t in e.terms for a in t.atoms)


class TestArithmetic:
    def test_additive_inverse(self):
        y = P("y")
        assert (y + (-y)).is_zero()

    def test_exponent_merge_to_integer(self):
        prod = P("y2^(1/3)") * P("y2^(2/3)")
        assert prod == P("y2")
        # numeric cross-check at y2 = 8: 2 * 4 = 8
        assert P("y2^(1/3)").substitute({"y2": 8}) * \
            P("y2^(2/3)").substitute({"y2": 8}) == Fraction(8)

    def test_expansion(self):
        assert P("(x + y)*(x - y)") == P("x^2 - y^2")

    def test_chart_mismatch(self):
        # an expression carries no chart, so none can mismatch: x on the
        # plane is x on J20
        assert parse("x", PLANE) + P("x") == P("2*x")

    def test_laurent_closure(self):
        assert P("y2^(1/3)") * P("y2^(-4/3)") == P("y2^(-1)")

    def test_scale(self):
        assert P("x").scale(Fraction(-1, 2)) == P("-1/2*x")

    def test_integer_power(self):
        assert P("(x + 1)")**3 == P("x^3 + 3*x^2 + 3*x + 1")
        assert P("x")**0 == P("1")

    @pytest.mark.parametrize("text", [
        "exp(y2)", "-3/2*x^(-2)*y1*exp(y - 2*x)", "2/3*y2^(-1)*exp(-x*y1 + 1/2)",
        "-exp(x)", "-5*x^3*y^(-1)"])
    def test_one_term_exp_power_matches_the_repeated_product(self, text):
        base = P(text)
        product = Expr.constant(1)
        for n in range(8):
            assert base ** n == product, n
            product = product * base

    def test_one_term_exp_power_is_not_multiplied_out(self, monkeypatch):
        base = P("exp(y2)")
        calls = []
        canonical = expr._canonical_term

        def counted(*args):
            calls.append(args)
            return canonical(*args)

        monkeypatch.setattr(expr, "_canonical_term", counted)
        power = base ** 19999
        assert len(calls) <= 1
        assert str(power) == "exp(19999*y2)"

    def test_powers_keep_their_size_checks(self):
        with pytest.raises(ExprError, match="power too large"):
            P("3*exp(y2)") ** 100_000
        # a power atom keeps the repeated product and its expansion bound
        with pytest.raises(ExprError, match="expanding 1 term"):
            P("x*(x + y)^(1/2)") ** 20_001
        assert P("((x + y)^(1/2))^3") == P("x*(x + y)^(1/2) + y*(x + y)^(1/2)")

    def test_a_product_is_sized_in_the_parser(self):
        # 100 by 200 terms is at the cap, 100 by 201 past it; Expr's own
        # product stays unbounded, for the operator and the determinant
        a, b = "(x + y)^99", "((y1 + y2)^99 + (y + z)^99)"
        assert P(f"{a}*{b}") == P(a) * P(b)
        with pytest.raises(ParseError, match="multiplying 100 by 201 terms"):
            P(f"{a}*({b} + 1)")
        assert P(a) * P(f"{b} + 1") == P(f"{a}*{b} + {a}")

    def test_ring_properties_randomized(self):
        rng = random.Random(7)
        for _ in range(1000):
            a = random_expr(rng)
            b = random_expr(rng)
            c = random_expr(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_canonical_idempotence(self):
        rng = random.Random(13)
        for _ in range(300):
            e = random_expr(rng)
            rebuilt = Expr.from_raw([(t.numerator, t.monomial, t.atoms) for t in e.terms],
                                    (), e.den)
            assert rebuilt == e

    def test_power_parts_returns_no_bare_coordinate_atom(self):
        # _canonical_term folds a bare-coordinate power into the monomial
        # only before it calls _power_parts
        rng = random.Random(1305)
        n = len(J20.coords)
        kinds = set()
        for _ in range(3000):
            terms = {}
            for _ in range(rng.choice((1, 1, 2, 3))):
                exps = {i: rng.randint(-1, 2) for i in rng.sample(range(n), rng.randint(0, 2))}
                mono = tuple(exps.get(i, 0) for i in range(n))
                terms[mono] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                       rng.randint(1, 4))
            den = math.lcm(*(c.denominator for c in terms.values()))
            base = _normalize((), [(c.numerator * (den // c.denominator), m, ())
                                   for m, c in terms.items()], den)
            q = Fraction(rng.randint(-7, 7), rng.randint(2, 6))
            if q.denominator == 1:
                continue
            try:
                _, _, atoms, _ = _power_parts(base, q)
            except NonRationalPowerError:
                continue
            for a in atoms:
                assert _unit_coord_index(a.base) is None, (base, q)
                kinds.add(len(a.base.terms) > 1)
        assert kinds == {False, True}


class TestDifferentiation:
    def test_power_rule(self):
        e = P("y + y2^(1/3)")
        assert e.diff("y2") == P("1/3*y2^(-2/3)")
        assert e.diff("x").is_zero()
        assert e.diff("y2").diff("y2") == P("-2/9*y2^(-5/3)")

    def test_central_difference_cross_check(self):
        e = P("y + y2^(1/3)")
        d = e.diff("y2")
        eps = 1e-6
        up = e.approx({"y": 1.0, "y2": 1.0 + eps})
        dn = e.approx({"y": 1.0, "y2": 1.0 - eps})
        assert abs((up - dn) / (2 * eps) - d.approx({"y": 1.0, "y2": 1.0})) < 1e-6

    def test_linearity(self):
        a, b = P("x*y2^(1/3)"), P("y1^2")
        s = a.scale(3) + b.scale(Fraction(-1, 2))
        assert s.diff("y1") == a.diff("y1").scale(3) + b.diff("y1").scale(Fraction(-1, 2))

    def test_leibniz_randomized(self):
        rng = random.Random(23)
        for _ in range(150):
            a = random_expr(rng)
            b = random_expr(rng)
            v = rng.choice(J20.coords)
            assert (a * b).diff(v) == a.diff(v) * b + b.diff(v) * a

    def test_mixed_partials_commute(self):
        rng = random.Random(29)
        for _ in range(150):
            a = random_expr(rng)
            u, v = rng.choice(J20.coords), rng.choice(J20.coords)
            assert a.diff(u).diff(v) == a.diff(v).diff(u)

    def test_exp_chain_rule(self):
        e = P("exp(-4/3*y)")
        assert e.diff("y") == P("-4/3*exp(-4/3*y)")

    def test_ln_chain_rule(self):
        assert P("ln(y2)").diff("y2") == P("y2^(-1)")
        assert P("ln(y2)").diff("y2").diff("y2") == P("-1*y2^(-2)")
        d = P("ln(y2 - 1/2*y1^2)").diff("y2")
        assert d == P("-2*(y1^2 - 2*y2)^(-1)")
        # agrees numerically with 1/(y2 - y1^2/2)
        val = d.approx({"y1": 1.0, "y2": 2.0})
        assert abs(val - 1.0 / 1.5) < 1e-12


class TestEvaluation:
    def test_substitute_examples(self):
        assert P("y + y2^(1/3)").substitute({"y": 2, "y2": 8}) == 4
        assert P("x*y1").substitute({"x": 3, "y1": 5}) == 15
        with pytest.raises(NonRationalPowerError):
            P("y2^(1/3)").substitute({"y2": 2})

    def test_substitute_missing_coordinate(self):
        with pytest.raises(EvaluationError):
            P("x*y").substitute({"x": 1})

    def test_exp_atom_rejected_unless_zero_argument(self):
        e = P("exp(-4/3*y)")
        with pytest.raises(EvaluationError):
            e.substitute({"y": 3})
        assert e.substitute({"y": 0}) == 1

    @pytest.mark.parametrize("method", ["approx", "substitute"])
    def test_a_positive_power_of_zero_is_zero(self, method):
        assert getattr(P("y2^(1/3)"), method)({"y2": 0}) == 0

    def test_an_even_root_of_a_negative_value(self):
        with pytest.raises(EvaluationError):
            P("y2^(1/2)").approx({"y2": -4})
        with pytest.raises(NonRationalPowerError):
            P("y2^(1/2)").substitute({"y2": -4})

    def test_ln_values(self):
        assert P("ln(y2)").substitute({"y2": 1}) == 0
        assert P("ln(y2)").approx({"y2": 2}) == math.log(2)

    @pytest.mark.parametrize("method", ["approx", "substitute"])
    def test_ln_of_zero_is_rejected(self, method):
        with pytest.raises(EvaluationError):
            getattr(P("ln(y2)"), method)({"y2": 0})

    @pytest.mark.parametrize("method", ["approx", "substitute"])
    def test_a_negative_power_of_zero_is_rejected(self, method):
        with pytest.raises(ZeroDivisionError):
            getattr(P("y2^(-1)"), method)({"y2": 0})

    def test_numeric_consistency_power_fragment(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(200):
            e = random_expr(rng, allow_atoms=True)
            if any(isinstance(a, ExpAtom) for t in e.terms for a in t.atoms):
                continue
            v = rng.choice(("x", "y", "y1", "y2"))
            pt = admissible_point(rng)
            fpt = {k: float(v2) for k, v2 in pt.items()}
            eps = 1e-7 * max(1.0, abs(fpt[v]))
            try:
                up = dict(fpt); up[v] += eps
                dn = dict(fpt); dn[v] -= eps
                approx = (e.approx(up) - e.approx(dn)) / (2 * eps)
                exact = e.diff(v).approx(fpt)
            except (EvaluationError, ZeroDivisionError, OverflowError):
                continue
            scale = max(1.0, abs(exact))
            assert abs(approx - exact) / scale < 1e-4
            checked += 1
        assert checked > 50

    def test_zero_test_soundness_randomized(self):
        # expressions asserted zero must evaluate to zero at admissible points
        rng = random.Random(37)
        for _ in range(300):
            a = random_expr(rng)
            b = random_expr(rng)
            combos = [
                a + b - b - a,
                a * b - b * a,
                (a + b) * (a + b) - a * a - a * b.scale(2) - b * b,
            ]
            for e in combos:
                assert e.is_zero()
            pt = admissible_point(rng)
            fpt = {k: float(v) for k, v in pt.items()}
            for e in combos:
                try:
                    assert abs(e.approx(fpt)) < 1e-9
                except EvaluationError:
                    pass

    def test_is_zero_examples(self):
        assert (P("y2^(1/3)") * P("y2^(2/3)") - P("y2")).is_zero()
        assert not P("x").is_zero()
        assert P("(x + y)^2").equals(P("x^2 + 2*x*y + y^2"))


class TestPrinting:
    def test_deterministic(self):
        rng = random.Random(41)
        for _ in range(100):
            e = random_expr(rng)
            assert str(e) == str(parse(str(e), J20))

    def test_leading_negative_stays_in_grammar(self):
        e = P("0 - x")
        assert str(e) == "-1*x"
        assert parse(str(e), J20) == e

    def test_plane_chart(self):
        e = parse("x*y - 2", PLANE)
        assert str(e) == "x*y - 2"

    @pytest.mark.parametrize("chart", [J20, PLANE])
    @pytest.mark.parametrize("text,printed", [
        ("-1", "-1"), ("1", "1"), ("-1/2", "-1/2"), ("0 - 1", "-1"),
        ("-exp(y)", "-1*exp(y)"), ("-(x + y)^(1/3)", "-1*(x + y)^(1/3)"),
        ("1 - x", "-1*x + 1"),
    ])
    def test_lone_unit_constants(self, chart, text, printed):
        # the constant term's monomial is the zero vector, not an empty one
        e = parse(text, chart)
        assert str(e) == printed
        assert parse(printed, chart) == e


    @pytest.mark.parametrize("text,printed", [
        ("(-x-y)^(1/2)", "(-x - y)^(1/2)"), ("ln(-x+1)", "ln(-x + 1)"),
        ("exp(-x-y)", "exp(-x - y)"), ("y2*exp(-x)", "y2*exp(-x)"),
        ("-x", "-1*x"),
    ])
    def test_atom_arguments_print_a_bare_leading_minus(self, text, printed):
        # inside an atom a leading unit negative prints as -x, at the top
        # level as -1*x; both re-parse
        e = P(text)
        assert str(e) == printed
        assert P(printed) == e


class TestOnePolynomialForm:
    """Atom bases and arguments are atom-free terms, handled by the same
    term operations as expressions; they agree with the pair-form
    arithmetic atom arguments once had (tests/helpers.py)."""

    def test_term_operations_match_the_pair_form(self):
        rng = random.Random(1401)
        for _ in range(300):
            a = random_polynomial(rng).as_poly()
            b = random_polynomial(rng).as_poly()
            pa, pb = pair_form(a), pair_form(b)
            assert pair_form(_sum((a, b))) == pair_add(pa, pb)
            assert pair_form(_product(a, b)) == pair_mul(pa, pb)
            n = rng.randint(0, 4)
            assert pair_form(_power(a, n)) == pair_pow(pa, n)
            idx = rng.randrange(len(J20.coords))
            assert pair_form(Expr(tuple(_lowered(a.terms, idx)), a.den)) == \
                pair_diff(pa, idx)
            point = [(c, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                     for c in J20.coords]
            assert _evaluate(a, point, Fraction, None) == \
                pair_eval(pa, [v for _, v in point])


class TestMonomials:
    def test_charts_share_the_exponent_vector(self):
        # an expression is the same on every chart that has its coordinates
        plane = ["x^2*y - 3*y + 1/2", "exp(x - y)*(x^2 + y)^(1/3) - 1/2*ln(2*x)"]
        j2 = ["y1*(y2 - 1/2*y1^2)^(2/3)*x^(-1) + exp(y2)"]
        for chart in (J20, J2, PLANE):
            e = parse("x^2*y - 3*y + 1/2", chart)
            assert [t.monomial for t in e.terms] == \
                [(2, 1, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 0)]
            for text in plane + (j2 if chart is not PLANE else []):
                on_chart, on_j20 = parse(text, chart), parse(text, J20)
                assert on_chart == on_j20 and str(on_chart) == str(on_j20)

    def test_chart_longer_than_the_vector_is_rejected(self):
        with pytest.raises(ValueError, match="not a prefix"):
            Chart("J30", ("x", "y", "y1", "y2", "y3", "z"))
        with pytest.raises(ValueError, match="not a prefix"):
            Chart("J21", ("x", "y", "y1", "y2", "z", "z1"))
        with pytest.raises(ValueError, match="not a prefix"):
            Chart("Q", ("a", "b", "c", "d", "e"))

    def test_duplicate_coordinates_are_rejected(self):
        for coords in (("x", "y", "x"), ("y", "x")):
            with pytest.raises(ValueError, match="^chart Q: .* is not a prefix of"):
                Chart("Q", coords)

    def test_a_chart_is_its_name_and_coordinates(self):
        built = Chart("J20", J20.coords)
        assert built is not J20 and built == J20 and hash(built) == hash(J20)
        assert parse("x*y", built) == parse("x*y", J20)
        assert Chart("J21", J20.coords) != J20 and Chart("J20", J2.coords) != J20
        assert J20 != ("J20", J20.coords)


class TestAtoms:
    def test_an_atom_equals_only_an_atom_of_its_own_kind(self):
        (exp_y,), (ln_y,) = (P(text).terms[0].atoms for text in ("exp(y)", "ln(y)"))
        assert exp_y.argument == ln_y.argument
        assert ExpAtom(exp_y.argument) != LnAtom(exp_y.argument)
        assert exp_y != ln_y and exp_y != (exp_y.argument,)
        both = P("exp(y) + ln(y)")
        assert len(both.terms) == 2 and str(both) == "ln(y) + exp(y)"
        assert str(both - P("exp(y)")) == "ln(y)"

    @pytest.mark.parametrize("text", ["(y1 + y2)^(1/3)", "y2^(-2/3)", "exp(2*x - y)",
                                      "ln(y1^2 + 1/2)"])
    def test_equal_atoms_built_apart_are_equal_and_hash_alike(self, text):
        (a,), (b,) = (P(text).terms[0].atoms for _ in range(2))
        rebuilt = (PowerAtom(a.base, a.exponent) if type(a) is PowerAtom
                   else type(a)(a.argument))
        for other in (b, rebuilt):
            assert other is not a and other == a and hash(other) == hash(a)
        assert {a: 1}[rebuilt] == 1

    def test_powers_differ_by_base_or_exponent(self):
        (a,) = P("(y1 + y2)^(1/3)").terms[0].atoms
        (b,) = P("(y1 - y2)^(1/3)").terms[0].atoms
        assert PowerAtom(a.base, Fraction(2, 3)) != a
        assert PowerAtom(a.base._replace(den=2), a.exponent) != a and b != a

    def test_an_atom_is_hashed_once_at_construction(self, monkeypatch):
        (a,) = P("(y1 + y2)^(1/3)").terms[0].atoms
        hashed = []
        fraction_hash = Fraction.__hash__

        def counted(self):
            hashed.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        keys = {(a,): 1, (a, a): 2}
        for _ in range(3):
            assert hash(a) == hash(a) and keys[(a,)] == 1
        assert hashed == []
        PowerAtom(a.base, a.exponent)
        monkeypatch.undo()
        assert hashed == [a.exponent]


def reference_normalize(raw, ready=(), den=1, normalize=expr._normalize):
    """Every term, ready or raw, through _canonical_term with a Fraction
    coefficient; the canonical results are then brought to one denominator
    and summed by the package's normalizer."""
    out = []
    stack = [(Fraction(c, den), m, a) for c, m, a in (*raw, *ready)]
    while stack:
        coeff, mono, atoms = stack.pop()
        (p, r), mono, atoms, polys = _canonical_term(mono, atoms)
        if p == 0:
            continue
        coeff *= Fraction(p, r)
        if not polys:
            out.append((coeff, mono, atoms))
            continue
        prod = polys[0]
        for q in polys[1:]:
            prod = _product(prod, q)
        stack.extend((coeff * Fraction(c, prod.den), mono_mul(mono, m), atoms)
                     for c, m, _ in prod.terms)
    common = math.lcm(*(c.denominator for c, _, _ in out))
    return normalize((), [(c.numerator * (common // c.denominator), m, a)
                          for c, m, a in out], common)


# Factors whose products exercise every merge _canonical_term performs: a
# coordinate against its own fractional power, exp arguments that cancel,
# repeated power bases, ln atoms and negative monomial exponents.
PIECES = ("y2", "y2^(1/3)", "y2^(-4/3)", "y2^(-1)", "x^(-2)*y1", "y1^(1/2)",
          "exp(x)", "exp(-x)", "exp(y + 2*x)", "exp(y1*y2)", "ln(y1)", "ln(y1 + y2)",
          "(y1 + y2)^(1/3)", "(y1 + y2)^(2/3)", "(y1 + y2)^(-1/3)",
          "(y2 - 1/2*y1^2)^(2/3)", "(2*y2)^(1/3)", "x*y", "z", "3/2")


def random_mixed_expr(rng: random.Random) -> Expr:
    e = random_expr(rng) if rng.random() < 0.3 else Expr.zero()
    for _ in range(rng.randint(1, 3)):
        term = Expr.constant(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 3)):
            term = term * P(rng.choice(PIECES))
        e = e + term
    return e


def assert_canonical(e: Expr):
    for t in e.terms:
        assert _canonical_term(t.monomial, t.atoms) == \
            ((1, 1), t.monomial, t.atoms, []), (str(e), t)


class TestCanonicalFastPaths:
    """Sums, products, partials and brackets keep canonical terms out of
    _canonical_term; they must agree with a normalizer that sends every
    term through it."""

    def test_clash_with_a_bare_coordinate_power(self):
        assert P("y2") * P("y2^(1/3)") == P("y2^(4/3)")
        assert str(P("x*y2") * P("y2^(1/3)*exp(x)")) == "x*y2^(4/3)*exp(x)"
        assert P("exp(x)") * P("exp(-x)") == P("1")
        assert P("y2^(1/3)*exp(x)").diff("x") == P("y2^(1/3)*exp(x)")
        assert P("exp(y2^2)*y2^(1/3)").diff("y2") == \
            P("2*y2^(4/3)*exp(y2^2) + 1/3*y2^(-2/3)*exp(y2^2)")

    def test_matches_the_reference_normalizer(self, monkeypatch):
        rng = random.Random(1101)
        cases = []
        for _ in range(250):
            a, b = random_mixed_expr(rng), random_mixed_expr(rng)
            cases.append((a, b, rng.choice(J20.coords)))
        fast = [(a * b, a + b, a - b, a.diff(v), (a * b).diff(v))
                for a, b, v in cases]
        monkeypatch.setattr(expr, "_normalize", reference_normalize)
        slow = [(a * b, a + b, a - b, a.diff(v), (a * b).diff(v))
                for a, b, v in cases]
        assert fast == slow
        for results in fast:
            for e in results:
                assert_canonical(e)

    def test_brackets_and_chart_changes_match_the_reference(self, monkeypatch):
        rng = random.Random(1102)
        pairs = [tuple(VectorField(J20, tuple(random_mixed_expr(rng) for _ in range(5)))
                       for _ in range(2)) for _ in range(12)]
        # an expression parsed on a smaller chart is the one parsed on J20
        small = [("x*y2^(1/3) + y1*exp(x) - ln(y)*x^(-1)", J2), ("y^(1/2)*x + 1/3", PLANE)]

        def run():
            # fresh fields, so that no partial is read from a cache
            return ([lie_bracket(*(VectorField(J20, f.coefficients) for f in pair))
                     for pair in pairs],
                    [parse(text, chart) for text, chart in small])

        fast, parsed = run()
        assert parsed == [parse(text, J20) for text, _ in small]
        monkeypatch.setattr(expr, "_normalize", reference_normalize)
        assert run() == (fast, parsed)
        for f in fast:
            for e in f.coefficients:
                assert_canonical(e)

    def test_atom_arguments_are_atom_free_canonical_terms(self):
        rng = random.Random(1101)
        corpus = [P(text) for text in PIECES]
        for _ in range(250):
            a, b = random_mixed_expr(rng), random_mixed_expr(rng)
            v = rng.choice(J20.coords)
            corpus += [a, b, a * b, a.diff(v), (a * b).diff(v)]
        arguments = [a.base if isinstance(a, PowerAtom) else a.argument
                     for e in corpus for t in e.terms for a in t.atoms]
        assert len(arguments) > 1000
        for arg in arguments:
            assert type(arg) is Expr and arg.terms, arg
            assert all(type(u) is Term and not u.atoms for u in arg.terms), arg
            assert _normalize((), arg.terms, arg.den) == arg

    def test_canonical_term_is_idempotent(self):
        rng = random.Random(1103)
        for _ in range(300):
            assert_canonical(random_mixed_expr(rng))
        for text in PIECES:
            assert_canonical(P(text))


def _rational_text(rng: random.Random, positive=False) -> str:
    c = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4, 6)))
    if not positive and rng.random() < 0.5:
        c = -c
    return str(c)


def _monomial_text(rng: random.Random, least=0) -> str:
    names = rng.sample(J20.coords, rng.randint(least, 2))
    return "".join(f"*{name}^{rng.randint(1, 2)}" for name in names)


def _poly_text(rng: random.Random, positive: bool) -> str:
    """A polynomial that is not a constant, with positive coefficients when
    positive is set."""
    return " + ".join(_rational_text(rng, positive) + _monomial_text(rng, int(k == 0))
                      for k in range(rng.randint(1, 3))).replace("+ -", "- ")


def random_rational_expr(rng: random.Random) -> str:
    """Text of a sum of terms with rational coefficients, power atoms on
    bases positive at positive points, and exp atoms."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        t = _rational_text(rng) + _monomial_text(rng)
        if rng.random() < 0.5:
            p, q = rng.choice(((1, 3), (2, 3), (-1, 3), (4, 3), (1, 2), (-3, 2)))
            t += f"*({_poly_text(rng, True)})^({p}/{q})"
        if rng.random() < 0.4:
            t += f"*exp({_poly_text(rng, False)})"
        terms.append(t)
    return " + ".join(terms)


def sympy_rational(q: Fraction):
    sympy = pytest.importorskip("sympy")
    return sympy.Rational(q.numerator, q.denominator)


class TestIntegerForm:
    """Expressions keep integer numerators over one positive denominator in
    lowest terms; a sympy oracle checks their values and a printer on
    Fraction coefficients their text."""

    def cases(self, n, seed):
        rng = random.Random(seed)
        for _ in range(n):
            a, b = P(random_rational_expr(rng)), P(random_rational_expr(rng))
            s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 6))
            v = rng.choice(J20.coords)
            poly = P(_poly_text(rng, True))
            q = Fraction(rng.choice((-2, -1, 1, 2, 4)), rng.choice((2, 3)))
            k = rng.randint(0, 3)
            yield {"a + b": (a + b, lambda A, B: A + B),
                   "a - b": (a - b, lambda A, B: A - B),
                   "a * b": (a * b, lambda A, B: A * B),
                   "scale": (a.scale(s), lambda A, B: A * sympy_rational(s)),
                   "diff": (a.diff(v), lambda A, B: A.diff(v)),
                   "integer power": (a ** k, lambda A, B: A ** k),
                   "rational power": (poly.pow_rational(q), None)}, (a, b, poly, q)

    def test_matches_a_sympy_oracle_and_a_fraction_printer(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1601)
        checked = set()
        for results, (a, b, poly, q) in self.cases(40, 1601):
            A, B = to_sympy(a), to_sympy(b)
            point = {sympy.Symbol(c): sympy.Rational(rng.randint(1, 9), rng.randint(1, 4))
                     for c in J20.coords}
            for name, (e, reference) in results.items():
                assert_lowest_terms(e)
                assert str(e) == fraction_text(e), name
                assert parse(str(e), J20) == e, name
                want = (to_sympy(poly) ** sympy.Rational(q.numerator, q.denominator)
                        if reference is None else reference(A, B))
                got = to_sympy(e)
                diff = sympy.N((got - want).subs(point), 40)
                assert abs(diff) <= 1e-25 * (1 + abs(sympy.N(want.subs(point), 40))), \
                    (name, str(a), str(b), str(e))
                atoms = [atom for t in e.terms for atom in t.atoms]
                if e.den > 1 or any(expr.atom_poly(atom).den > 1 for atom in atoms):
                    checked.add(name)
        # every operation met a denominator at least once
        assert checked == set(results)

    def test_the_form_is_in_lowest_terms(self):
        rng = random.Random(1602)
        assert Expr.zero().den == 1
        assert P("1/2*x - 1/2*x").den == 1
        e = P("1/6*x + 2/3*y2^(1/3)*exp(-4/3*y)")
        assert (e.den, [t.numerator for t in e.terms]) == (6, [1, 4])
        assert P("1/2*x + 3/2*y").diff("x") == P("1/2")
        assert P("3/4*x^2").diff("x").den == 2
        # content powers and exact roots fold into the denominator
        assert P("(1/4*x + 1/4*y)^(-1)") == P("4*(x + y)^(-1)")
        assert P("(4/9*y2)^(1/2)").den == 3
        for _ in range(200):
            e = random_mixed_expr(rng)
            assert_lowest_terms(e)
            assert_lowest_terms(e - e)
            assert (e - e).den == 1

    def test_equal_values_have_equal_forms(self):
        rng = random.Random(1603)
        for _ in range(150):
            a, b = P(random_rational_expr(rng)), P(random_rational_expr(rng))
            c = random_mixed_expr(rng)
            s = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            assert (a + b) - b == a
            assert a.scale(s).scale(1 / s) == a
            assert a * (b + c) == a * b + a * c
            assert (a * b).diff("y2") == a.diff("y2") * b + a * b.diff("y2")
            assert Expr.from_raw([(t.numerator * 3, t.monomial, t.atoms)
                                       for t in a.terms], (), 3 * a.den) == a
