"""Determining-equation solver: ansatz, oracle equivalence, soundness."""

import json
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from mongesym import solver
from mongesym.catalog import CatalogKeyError, dz13, eq1, eq2, flat, get_equation
from mongesym.charts import J20
from mongesym.expr import ExpAtom, Expr, PowerAtom, Term
from mongesym.fields import (MongeEquation, distribution_from_monge,
                             is_symmetry, lie_bracket)
from mongesym.liealg import close_under_bracket, express_in_basis, jacobi_holds
from mongesym.linalg import canonical_basis, reduced_rows, sparse_nullspace
from mongesym.parser import parse
from mongesym.solver import (MAX_UNKNOWNS, AnsatzError, AnsatzSpec,
                             DeterminingSystem, UnknownBasis, build_ansatz,
                             compile_operator, determining_equations,
                             exp_rates_for, maximality_argument, nullspace,
                             symmetry_dimension)

from helpers import (brute_force_symmetry_space, coefficient_expr, field_rank,
                     keyed_rows, numeric_symmetry_dimension, perfbench_module,
                     primitive_row, random_expr, reference_assemble,
                     reference_compile_operator, reference_determining_rows,
                     reference_graded_solve, reference_rows, same_span)


class TestAnsatz:
    def test_unknown_counts(self):
        assert build_ansatz(AnsatzSpec(0)).size == 5
        assert build_ansatz(AnsatzSpec(1)).size == 30
        assert build_ansatz(AnsatzSpec(2, offsets=(Fraction(0), Fraction(1, 3)))).size == 210

    def test_offsets_require_zero(self):
        with pytest.raises(ValueError):
            AnsatzSpec(1, offsets=(Fraction(1, 3),))

    def test_size_limit(self):
        # the largest shipped solve, dz13(10,9) at degree 5, fits 4 times over
        rates = exp_rates_for(dz13(10, 9))
        assert 4 * 5 * 252 * len(rates) <= MAX_UNKNOWNS
        AnsatzSpec(5, rates=rates)
        with pytest.raises(AnsatzError, match="more than 50000"):  # 190190 unknowns
            AnsatzSpec(9, offsets=[Fraction(k, 19) for k in range(-9, 10)])

    @pytest.mark.parametrize("args, message", [
        ((-1,), "degree must be non-negative"),
        ((1, (Fraction(1, 3),)), "offset 0 is required"),
        ((1, (0,), (2,)), "rate 0 is required"),
        ((1, (0, Fraction(1, 3), Fraction(-2, 3))),
         "offsets -2/3 and 1/3 differ by an integer, so one function would get two columns"),
        ((9, [Fraction(k, 19) for k in range(-9, 10)]), "the ansatz has 190190 unknowns "
         "(degree 9, 19 offsets, 1 rates), more than 50000"),
    ], ids=["degree", "offset", "rate", "residue", "size"])
    def test_bad_specs_are_refused_with_their_message(self, args, message):
        with pytest.raises(AnsatzError) as info:
            AnsatzSpec(*args)
        assert str(info.value) == message

    def test_specs_compare_by_their_normalized_value(self):
        spec = AnsatzSpec(2, offsets=[Fraction(1, 3), 0, 0], rates=(2, 0))
        assert (spec.degree, spec.offsets, spec.rates) == (
            2, (Fraction(0), Fraction(1, 3)), (Fraction(0), Fraction(2)))
        same = AnsatzSpec(2, offsets=(0, Fraction(1, 3)), rates=(0, 2))
        assert spec == same and hash(spec) == hash(same) and {spec: 1}[same] == 1
        assert AnsatzSpec(2) == AnsatzSpec(2, (0,), (0,)) != AnsatzSpec(3)
        assert spec != AnsatzSpec(2, offsets=(0, Fraction(1, 3)))

    def test_deterministic_enumeration(self):
        a1 = build_ansatz(AnsatzSpec(2))
        a2 = build_ansatz(AnsatzSpec(2))
        assert a1.unknowns == a2.unknowns

    def test_zero_vector_assembles_to_zero_field(self):
        a = build_ansatz(AnsatzSpec(1))
        assert a.assemble([0] * a.size).is_zero()

    def test_assemble_matches_a_running_sum(self):
        rng = random.Random(5)
        a = build_ansatz(AnsatzSpec(2, offsets=(0, Fraction(1, 3), Fraction(-1, 3)),
                                    rates=(0, -2)))
        for _ in range(20):
            v = [0] * a.size
            for c in rng.sample(range(a.size), 40):
                v[c] = rng.choice((1, -1, 2, -3))
            assert a.assemble(v) == reference_assemble(a, v)


class TestDeterminingSystem:
    def test_flat_degree0_dimension3(self):
        d = distribution_from_monge(flat())
        system = determining_equations(compile_operator(d), build_ansatz(AnsatzSpec(0)))
        table, basis = nullspace(system)
        assert table == [{"degree": 0, "unknowns": 5, "rows": system.n_rows,
                          "dimension": 3}]
        fields = [system.ansatz.assemble(v) for v in basis]
        spans = {tuple(str(c) for c in f.coefficients) for f in fields}
        assert ("0", "0", "0", "0", "1") in spans  # d/dz
        assert ("1", "0", "0", "0", "0") in spans  # d/dx

    def test_homogeneous(self):
        d = distribution_from_monge(eq2())
        system = determining_equations(compile_operator(d), build_ansatz(AnsatzSpec(1)))
        # every entry indexes an unknown column: the zero vector always solves
        for row in system.rows:
            assert all(0 <= col < system.ansatz.size for col in row)
        zero_field = system.ansatz.assemble([0] * system.ansatz.size)
        assert is_symmetry(zero_field, d).ok


class TestRowBuilder:
    # hand-made operators reach the builder paths no catalog equation does;
    # a term is (residual, order, coefficient, monomial, atoms), the same
    # for all five directions
    @staticmethod
    def operator(*terms):
        return tuple(tuple(terms) for _ in range(5))

    def test_cancelled_entries_and_emptied_rows_go(self):
        ansatz = build_ansatz(AnsatzSpec(0))
        y = (0, 1, 0, 0, 0)
        cancel = ((0, -1, parse("y", J20)), (0, -1, parse("-y", J20)))
        assert determining_equations(self.operator(*cancel), ansatz).rows == []
        x = (1, 0, 0, 0, 0)
        survive = (1, -1, parse("2*x", J20))
        rows = keyed_rows(determining_equations(self.operator(*cancel, survive), ansatz))
        assert rows == {(1, x, ()): {c: Fraction(2) for c in range(5)}}

    @pytest.mark.parametrize("base,exponent", [
        # (4*y2)^(1/2) canonicalizes to 2*y2^(1/2): coefficient 2
        (Expr((Term(4, (0, 0, 0, 1, 0), ()),)), Fraction(1, 2)),
        # (y1 + y2)^1 canonicalizes to a polynomial factor
        (Expr((Term(1, (0, 0, 1, 0, 0), ()), Term(1, (0, 0, 0, 1, 0), ()))),
         Fraction(1)),
    ])
    def test_non_canonical_atom_raises(self, base, exponent):
        # a non-canonical term, built as it stands
        term = (0, -1, Expr((Term(1, (0, 0, 0, 0, 0), (PowerAtom(base, exponent),)),)))
        with pytest.raises(ArithmeticError):
            determining_equations(self.operator(term), build_ansatz(AnsatzSpec(0)))

    @pytest.mark.parametrize("spec", [
        AnsatzSpec(2), AnsatzSpec(1, offsets=(0, Fraction(1, 3)), rates=(0, 2, Fraction(-1, 2)))])
    def test_coefficient_functions_read_the_layout(self, spec, monkeypatch):
        ansatz = build_ansatz(spec)
        grouped: dict = {}
        for col, u in enumerate(ansatz.unknowns):
            grouped.setdefault((u.exponents, u.offset, u.rate), []).append(col)
        hashed = []
        fraction_hash = Fraction.__hash__

        def counted(self):
            hashed.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        functions = list(ansatz.coefficient_functions())
        monkeypatch.undo()
        assert hashed == []
        assert functions == [(ansatz.unknowns[cols[0]], tuple(ansatz.graded[c] for c in cols))
                             for cols in grouped.values()]

    @pytest.mark.parametrize("spec", [
        AnsatzSpec(0), AnsatzSpec(3),
        AnsatzSpec(2, offsets=(0, Fraction(1, 3)), rates=(0, 2, Fraction(-1, 2)))])
    def test_graded_columns_order_by_degree_then_index(self, spec):
        ansatz = build_ansatz(spec)
        order = sorted(range(ansatz.size),
                       key=lambda c: (sum(ansatz.unknowns[c].exponents), c))
        assert [ansatz.graded[c] for c in order] == list(range(ansatz.size))
        degrees = sorted(sum(u.exponents) for u in ansatz.unknowns)
        assert ansatz.ends == tuple(bisect_right(degrees, k)
                                    for k in range(spec.degree + 1))

    def test_partials_once_per_coefficient_function(self, monkeypatch):
        calls = []
        partials = UnknownBasis.partials

        def counted(u, E):
            calls.append(u)
            return partials(u, E)

        monkeypatch.setattr(UnknownBasis, "partials", counted)
        ansatz = build_ansatz(AnsatzSpec(1, offsets=(0, Fraction(1, 3)), rates=(0, 2)))
        determining_equations(compile_operator(distribution_from_monge(eq2())), ansatz)
        assert len(calls) == ansatz.size // 5


# (equation, offsets, rates); rates None takes exp_rates_for's
INTEGER_ROW_CASES = [
    ("eq2", (0, Fraction(1, 3), Fraction(2, 3)), None),
    ("dz13(5,4)", (0,), None),
    ("strazzullo", (0,), None),
    # D > 1 and E > 1 on every kind of partial scalar
    ("3/5*y2^(1/2) + 2/7*y1*y2", (0, Fraction(1, 2), Fraction(-1, 4)),
     (0, Fraction(2, 3))),
]


def integer_row_case(key, offsets, rates):
    m = (get_equation(key) if key in ("eq2", "dz13(5,4)", "strazzullo")
         else MongeEquation(parse(key, J20)))
    spec = AnsatzSpec(1, offsets, exp_rates_for(m) if rates is None else rates)
    return compile_operator(distribution_from_monge(m)), build_ansatz(spec)


class TestIntegerRows:
    @pytest.mark.parametrize("key,offsets,rates", INTEGER_ROW_CASES)
    def test_rows_are_the_rational_rows_scaled(self, key, offsets, rates):
        operator, ansatz = integer_row_case(key, offsets, rates)
        rows = keyed_rows(determining_equations(operator, ansatz))
        reference = reference_determining_rows(operator, ansatz)
        assert rows.keys() == reference.keys()
        for k, row in rows.items():
            assert all(type(v) is int for v in row.values()), k
            assert primitive_row(row) == primitive_row(reference[k]), k

    def test_the_scalings_are_not_trivial(self):
        operator, ansatz = integer_row_case(*INTEGER_ROW_CASES[-1])
        D = math.lcm(*(e.den for terms in operator for _, _, e in terms))
        E = math.lcm(*(v.denominator for v in ansatz.spec.offsets + ansatz.spec.rates))
        assert D > 1 and E > 1
        rows = keyed_rows(determining_equations(operator, ansatz))
        reference = reference_determining_rows(operator, ansatz)
        assert all(v == D * E * reference[k][c]
                   for k, row in rows.items() for c, v in row.items())

    def test_an_inexact_scaling_raises(self):
        with pytest.raises(ArithmeticError):
            solver._exact_integer(2, 3)
        assert solver._exact_integer(3, 3) == 1
        # E must be a multiple of the offset's and the rate's denominators
        for offset, rate in ((Fraction(1, 3), 0), (0, Fraction(2, 3))):
            u = UnknownBasis(0, (1, 0, 0, 1, 0), Fraction(offset), Fraction(rate))
            with pytest.raises(ArithmeticError):
                u.partials(2)
            assert u.partials(6)[0] == u.partials(3)[0]

    @pytest.mark.parametrize("key,offsets,rates", INTEGER_ROW_CASES)
    def test_partials_are_the_scaled_derivatives(self, key, offsets, rates):
        # factors[order + 1] read as an expression is E times the partial
        _, ansatz = integer_row_case(key, offsets, rates)
        E = math.lcm(*(v.denominator for v in ansatz.spec.offsets + ansatz.spec.rates))
        for u in ansatz.unknowns[::7]:
            atoms, factors = u.partials(E)
            assert all(type(k) is int for f in factors for k, _ in f)
            coefficient = coefficient_expr(u)
            expected = [coefficient] + [coefficient.diff(c) for c in J20.coords]
            for f, partial in zip(factors, expected):
                got = Expr.from_raw([(k, s, atoms) for k, s in f])
                assert got == partial.scale(E)

    def test_no_fraction_per_column_or_product(self, monkeypatch):
        # outside the canonicalization of a new product key (y2 * y2^(1/2)
        # must become y2^(3/2), an exponent Fraction), building the rows
        # makes a fixed number of Fractions: none per coefficient function,
        # column or product, so the count does not grow with the degree
        key, offsets, rates = INTEGER_ROW_CASES[-1]
        operator = compile_operator(distribution_from_monge(MongeEquation(parse(key, J20))))
        made, inside = [], []
        new, canonical_term = Fraction.__new__, solver._canonical_term

        def counted(cls, *args, **kwargs):
            if not inside:
                made.append(args)
            return new(cls, *args, **kwargs)

        def canonical(*args):
            inside.append(args)
            try:
                return canonical_term(*args)
            finally:
                inside.pop()

        counts = []
        for degree in (1, 3):
            ansatz = build_ansatz(AnsatzSpec(degree, offsets, rates))
            made.clear()
            monkeypatch.setattr(solver, "_canonical_term", canonical)
            monkeypatch.setattr(Fraction, "__new__", counted)
            determining_equations(operator, ansatz)
            monkeypatch.undo()
            counts.append(len(made))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("key,offsets,rates", INTEGER_ROW_CASES)
    def test_canonical_products_skip_canonical_term(self, monkeypatch, key,
                                                   offsets, rates):
        operator, ansatz = integer_row_case(key, offsets, rates)
        calls = []
        canonical_term = solver._canonical_term

        def counted(*args):
            calls.append(args)
            return canonical_term(*args)

        monkeypatch.setattr(solver, "_canonical_term", counted)
        rows = keyed_rows(determining_equations(operator, ansatz))
        with_rule = len(calls)
        calls.clear()
        monkeypatch.setattr(solver, "product_is_canonical", lambda *args: False)
        assert keyed_rows(determining_equations(operator, ansatz)) == rows
        assert with_rule < len(calls)


class TestCompiledOperator:
    # the compiled operator must give the rows of the expanded residuals:
    # the same keys, and entries equal up to each row's scaling; the degree-2 ansatz holds every unknown of
    # degree <= 2
    @pytest.mark.parametrize("key,offsets", [
        ("eq2", (0, Fraction(1, 3), Fraction(-1, 3))),
        ("flat", (0,)),
        ("dz13(5,4)", (0,)),
        ("eq1(1)", (0,)),
        ("strazzullo", (0, Fraction(1, 3), Fraction(2, 3))),
    ])
    def test_rows_match_expanded_residuals(self, key, offsets):
        from mongesym.catalog import get_equation
        m = get_equation(key)
        d = distribution_from_monge(m)
        ansatz = build_ansatz(AnsatzSpec(2, offsets=offsets, rates=exp_rates_for(m)))
        rows = keyed_rows(determining_equations(compile_operator(d), ansatz))
        reference = reference_rows(d, ansatz)
        assert rows.keys() == reference.keys()
        assert all(primitive_row(row) == primitive_row(reference[k])
                   for k, row in rows.items())

    # the five-probe operator equals the six-probe one as a tuple: the same
    # terms, in the same order, with equal expressions
    @pytest.mark.parametrize("key", [
        "eq2", "flat", "strazzullo", "eq1(1)", "dz13(5,4)", "dz13(1,1)"])
    def test_equals_the_six_probe_operator(self, key):
        d = distribution_from_monge(get_equation(key))
        assert compile_operator(d) == reference_compile_operator(d)

    def test_equals_the_six_probe_operator_on_random_equations(self):
        rng = random.Random(17)
        kinds = set()
        for _ in range(30):
            F = random_expr(rng)
            kinds.update(type(a) for t in F.terms for a in t.atoms)
            d = distribution_from_monge(MongeEquation(F))
            assert compile_operator(d) == reference_compile_operator(d), F
        assert kinds == {PowerAtom, ExpAtom}


class TestGradedElimination:
    # one graded elimination of the top system must give the table and the
    # top basis of a fresh build and elimination per degree
    @pytest.mark.parametrize("key,degree,offsets", [
        ("flat", 3, (0,)),
        ("dz13(5,4)", 3, (0,)),
        ("eq2", 2, (0, Fraction(1, 3), Fraction(-1, 3))),
        ("strazzullo", 2, (0, Fraction(1, 3), Fraction(2, 3))),
        # seven rates by two offsets: the graded numbering spans 14 blocks
        ("dz13(5,4)", 2, (0, Fraction(1, 3))),
    ])
    def test_matches_a_solve_per_degree(self, key, degree, offsets):
        from mongesym.catalog import get_equation
        m = get_equation(key)
        d = distribution_from_monge(m)
        spec = AnsatzSpec(degree, offsets=offsets, rates=exp_rates_for(m))
        system = determining_equations(compile_operator(d), build_ansatz(spec))
        assert nullspace(system) == reference_graded_solve(d, spec)

    def test_the_builder_rows_go_to_the_elimination_as_they_are(self, monkeypatch):
        handed = []
        elimination = solver.sparse_nullspace

        def spy(rows, ncols, counts=None):
            handed.append(rows)
            return elimination(rows, ncols, counts)

        monkeypatch.setattr(solver, "sparse_nullspace", spy)
        m = dz13(5, 4)
        spec = AnsatzSpec(2, offsets=(0, Fraction(1, 3)), rates=exp_rates_for(m))
        system = determining_equations(compile_operator(distribution_from_monge(m)),
                                       build_ansatz(spec))
        built = [dict(row) for row in system.rows]
        nullspace(system)
        [rows] = handed
        assert len(rows) == len(system.rows) > 0
        assert all(a is b for a, b in zip(rows, system.rows))
        assert system.rows == built  # and the elimination leaves them as they were

    def test_report_matches_a_solve_per_degree(self):
        r = symmetry_dimension(eq2(), 3, offsets=(0, Fraction(1, 3)))
        table, basis = reference_graded_solve(
            distribution_from_monge(eq2()), AnsatzSpec(3, (0, Fraction(1, 3))))
        assert r.table == table
        ansatz = build_ansatz(AnsatzSpec(3, (0, Fraction(1, 3))))
        assert r.basis == [ansatz.assemble(v) for v in basis]

    def test_table_reads_each_prefix(self):
        # the first degree-1 unknown is free and borders the degree-0 prefix
        ansatz = build_ansatz(AnsatzSpec(1))
        low = [c for c, u in enumerate(ansatz.unknowns) if not sum(u.exponents)]
        high = [c for c, u in enumerate(ansatz.unknowns) if sum(u.exponents)]
        graded = ansatz.graded
        rows = [{graded[low[0]]: 1}, {graded[high[1]]: 6, graded[high[2]]: -1}]
        table, basis = nullspace(DeterminingSystem(ansatz, rows, {}))
        assert table == [
            {"degree": 0, "unknowns": 5, "rows": 1, "dimension": 4},
            {"degree": 1, "unknowns": 30, "rows": 2, "dimension": 28}]
        int_rows = [{low[0]: 1}, {high[1]: 6, high[2]: -1}]
        assert basis == sparse_nullspace(int_rows, 30)[1]

    def test_the_layout_not_the_unknowns(self):
        # nullspace reads the graded positions and prefix ends build_ansatz
        # laid out, never the unknowns themselves
        class Opaque:  # no iteration, indexing or length
            pass

        m = dz13(5, 4)
        spec = AnsatzSpec(2, offsets=(0, Fraction(1, 3)), rates=exp_rates_for(m))
        system = determining_equations(compile_operator(distribution_from_monge(m)),
                                       build_ansatz(spec))
        table, basis = nullspace(system)
        blind = system.ansatz._replace(unknowns=Opaque())
        assert nullspace(DeterminingSystem(blind, system.rows, system.slots)) == (table, basis)
        assert [row["dimension"] for row in table] == [2, 7, 7]

    @pytest.mark.parametrize("seed", range(6))
    def test_canonical_basis_undoes_recombination(self, seed):
        rng = random.Random(seed)
        key, degree = [("flat", 2), ("eq2", 2), ("dz13(5,4)", 1)][seed % 3]
        from mongesym.catalog import get_equation
        m = get_equation(key)
        spec = AnsatzSpec(degree, rates=exp_rates_for(m))
        _, basis = reference_graded_solve(distribution_from_monge(m), spec)
        n = len(basis)
        while True:
            mix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(n)]
            # reduced_rows takes integer rows: clear each row's denominators
            cleared = []
            for row in mix:
                denom = math.lcm(*(x.denominator for x in row))
                cleared.append([int(x * denom) for x in row])
            if len(reduced_rows(cleared)[0]) == n:
                break
        mixed = [tuple(sum(c * v[k] for c, v in zip(row, basis))
                       for k in range(len(basis[0]))) for row in mix]
        # canonical_basis takes integer vectors: clear each one's denominators
        ints = []
        for v in mixed:
            denom = math.lcm(*(x.denominator for x in v))
            ints.append(tuple(int(x * denom) for x in v))
        assert canonical_basis(ints) == basis


class TestEliminationCounts:
    # (rows, forced_columns, surviving_rows, pivots, pivot_nonzeros,
    # max_pivot_bits) of the degree-7 elimination, as the Fraction
    # back-substitution's elimination held them: pivot rows are primitive
    @pytest.mark.parametrize("key,counts", [
        ("y2^2", (6408, 2667, 1515, 1279, 3146, 10)),
        ("2*y2^2", (6408, 2667, 1515, 1279, 3135, 11)),
    ])
    def test_flat_at_degree_7(self, key, counts):
        report = symmetry_dimension(MongeEquation(parse(key, J20)), 7)
        assert report.dimension == 14
        assert report.elimination == dict(zip(
            ("rows", "forced_columns", "surviving_rows", "pivots", "pivot_nonzeros",
             "max_pivot_bits"), counts))

    def test_dz13_10_9_at_degree_5(self):
        # the largest shipped solve: 11340 unknowns in nine rate blocks
        report = symmetry_dimension(dz13(10, 9), 5)
        assert report.dimension == 14
        assert report.elimination == dict(zip(
            ("rows", "forced_columns", "surviving_rows", "pivots", "pivot_nonzeros",
             "max_pivot_bits"), (27101, 6677, 5866, 4649, 18980, 29)))

    def test_reported_only_with_timings(self):
        # always counted, written to the report only with its timings
        report = symmetry_dimension(flat(), 1)
        assert report.elimination["rows"] > 0
        assert "elimination" not in report.to_json()
        assert report.to_json(include_timings=True)["elimination"] == report.elimination


class TestOracleEquivalence:
    # the sparse integer solver must agree with direct symbolic coefficient
    # matching solved by sympy's nullspace, at degrees 0 and 1
    @pytest.mark.parametrize("key,degree", [
        ("eq2", 0), ("eq2", 1),
        ("flat", 0), ("flat", 1),
        ("dz13(1,1)", 0), ("dz13(1,1)", 1),
        ("dz13(10,9)", 0), ("dz13(10,9)", 1),
        ("eq1(0)", 0), ("eq1(0)", 1),
    ])
    def test_against_brute_force(self, key, degree):
        from mongesym.catalog import get_equation
        m = get_equation(key)
        dim_oracle, null_oracle, _ = brute_force_symmetry_space(m, degree)
        d = distribution_from_monge(m)
        system = determining_equations(compile_operator(d),
                                       build_ansatz(AnsatzSpec(degree)))
        table, basis = nullspace(system)
        assert table[-1]["dimension"] == dim_oracle
        assert same_span(basis, null_oracle)


def catalog_or_parsed(key):
    try:
        return get_equation(key)
    except CatalogKeyError:
        return MongeEquation(parse(key, J20))


ITEM_2 = pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the zero test misses "
                                               "identities between powers of one base")


class TestNumericOracle:
    # numeric rank of the residuals at random real points
    # (helpers.numeric_symmetry_dimension) reads no canonical key, so it
    # does not share the zero test's blind spots
    @pytest.mark.parametrize("key,degree,dimension", [
        ("flat", 2, 8), ("eq2", 2, 6), ("dz13(5,4)", 2, 3), ("y*y2 + y1^2", 2, 10),
    ])
    def test_agrees_with_the_solver(self, key, degree, dimension):
        m = catalog_or_parsed(key)
        spec = AnsatzSpec(degree)
        assert numeric_symmetry_dimension(m, spec) == dimension
        assert symmetry_dimension(m, degree, rates=spec.rates).dimension == dimension

    # ROADMAP item 2: the zero test keys B^(1/3) and B^(-2/3) apart, so the
    # solver misses the scaling symmetry that the numeric rank sees
    @ITEM_2
    @pytest.mark.parametrize("key", ["strazzullo", "(y2 + y1^2)^(1/3)"])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_item_2_reproducers(self, key, degree):
        m = catalog_or_parsed(key)
        assert numeric_symmetry_dimension(m, AnsatzSpec(degree)) == 4
        assert symmetry_dimension(m, degree, rates=(0,)).dimension == 4


def generated_equation(seed):
    """The benchmark's random F (perfbench/workloads.random_monge, nonlinear
    in y2) for the seed, as an equation, or None when it is not generic."""
    text, facts = perfbench_module("workloads").random_monge(random.Random(seed), False)
    return catalog_or_parsed(text) if facts["generic"] else None


class TestGeneratedEquations:
    # ROADMAP items 18 and 11 on seeded generic equations: a generic
    # equation has at most 14 symmetries, and the numeric rank reads no
    # canonical key.  Of the generic draws in range(24), seeds 0, 4, 8, 11
    # and 21 have one symmetry more by numeric rank (item 2), and seed 12
    # gives the numeric rank no clear gap
    OFFSETS = (Fraction(0), Fraction(1, 3), Fraction(2, 3))

    @pytest.mark.parametrize("seed", [7, 9, 10, 13, 23,
                                      pytest.param(8, marks=ITEM_2),
                                      pytest.param(21, marks=ITEM_2)])
    def test_the_bound_and_the_numeric_rank_hold(self, seed):
        m = generated_equation(seed)
        assert m is not None
        r = symmetry_dimension(m, 1, offsets=self.OFFSETS)
        assert not any(f.is_zero() for f in r.basis)
        assert field_rank(r.basis) == r.dimension <= 14
        spec = AnsatzSpec(1, offsets=self.OFFSETS, rates=exp_rates_for(m))
        assert numeric_symmetry_dimension(m, spec) == r.dimension

    def test_the_bound_holds_at_degree_2(self):
        generic = [m for m in map(generated_equation, range(12)) if m is not None]
        assert len(generic) == 9
        for m in generic:
            r = symmetry_dimension(m, 2, offsets=self.OFFSETS)
            assert not any(f.is_zero() for f in r.basis), m
            assert field_rank(r.basis) == r.dimension <= 14, m


class TestSoundness:
    # no basis field is zero and the fields are independent: a kernel that
    # held one function in two columns would break both
    @pytest.mark.parametrize("key,degree,offsets", [
        ("eq2", 2, (0,)),
        ("eq2", 3, (0, Fraction(1, 3))),
        ("eq2", 2, (0, Fraction(1, 3), Fraction(-1, 3))),
        ("flat", 4, (0,)),
        ("dz13(5,4)", 2, (0,)),
        ("strazzullo", 2, (0, Fraction(1, 3), Fraction(2, 3))),
        ("dz13(10,9)", 5, (0,)),
    ])
    def test_the_basis_fields_are_independent(self, key, degree, offsets):
        r = symmetry_dimension(get_equation(key), degree, offsets=offsets)
        assert not any(f.is_zero() for f in r.basis)
        assert field_rank(r.basis) == r.dimension == len(r.basis)

    def test_every_nullspace_vector_is_a_symmetry(self):
        for key, degree in (("eq2", 2), ("flat", 3), ("dz13(5,4)", 2)):
            from mongesym.catalog import get_equation
            m = get_equation(key)
            rates = exp_rates_for(m)
            d = distribution_from_monge(m)
            system = determining_equations(
                compile_operator(d), build_ansatz(AnsatzSpec(degree, rates=rates)))
            _, basis = nullspace(system)
            for v in basis:
                f = system.ansatz.assemble(v)
                assert is_symmetry(f, d).ok


class TestDimensions:
    def test_eq2_degree2_dimension6(self):
        r = symmetry_dimension(eq2(), 2, equation_label="eq2")
        assert r.table[-1]["dimension"] == 6
        assert r.verified

    def test_monotone_in_degree(self):
        r = symmetry_dimension(flat(), 4, equation_label="flat")
        dims = [row["dimension"] for row in r.table]
        assert dims == sorted(dims)

    def test_monotone_in_offsets(self):
        base = symmetry_dimension(eq2(), 2, equation_label="eq2")
        wider = symmetry_dimension(
            eq2(), 2, offsets=(Fraction(0), Fraction(1, 3), Fraction(-1, 3)),
            equation_label="eq2")
        assert wider.table[-1]["dimension"] >= base.table[-1]["dimension"]
        # the full algebra is six-dimensional, so widening cannot overshoot
        assert wider.table[-1]["dimension"] == 6

    def test_closure_of_extracted_basis(self):
        r = symmetry_dimension(eq2(), 2, equation_label="eq2")
        basis = r.basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                b = lie_bracket(basis[i], basis[j])
                assert express_in_basis(b, basis) is not None
        p = close_under_bracket(basis, cap=8)
        assert p.dimension == 6
        assert jacobi_holds(p.tensor)


class TestRates:
    def test_rate_detection(self):
        assert [str(r) for r in exp_rates_for(dz13(10, 9))] == \
            ["-4", "-3", "-2", "-1", "0", "1", "2", "3", "4"]
        assert [str(r) for r in exp_rates_for(dz13(5, 4))] == \
            ["-3", "-2", "-1", "0", "1", "2", "3"]
        # t^4 - 2 t^2 + 1 has the one positive root 1, which adds its double
        assert exp_rates_for(dz13(2, 1)) == tuple(map(Fraction, (-2, -1, 0, 1, 2)))
        assert exp_rates_for(dz13(1, 1)) == (Fraction(0),)
        assert exp_rates_for(flat()) == (Fraction(0),)
        assert exp_rates_for(eq2()) == (Fraction(0),)

    def test_eq1_rates_scaled_family(self):
        # the leading -1/2 factor scales the characteristic polynomial only
        m = eq1(0)
        assert exp_rates_for(m) == (Fraction(0),)  # roots irrational

    def test_seven_dimensional_instance(self):
        r = symmetry_dimension(dz13(5, 4), 2, equation_label="dz13(5,4)")
        assert r.table[-1]["dimension"] == 7
        assert r.verified


class TestDeterminism:
    def test_byte_identical_reports(self):
        a = symmetry_dimension(eq2(), 2, equation_label="eq2").to_json()
        b = symmetry_dimension(eq2(), 2, equation_label="eq2").to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestMaximality:
    def test_seven_dim_candidates_solvable(self):
        S_basis = symmetry_dimension(dz13(5, 4), 2, equation_label="dz13(5,4)").basis
        p7 = close_under_bracket(S_basis, cap=10)
        from mongesym.catalog import symmetry_fields
        s = symmetry_fields()
        p6 = close_under_bracket([s[f"S{i}"] for i in range(1, 7)], cap=8)
        rep = maximality_argument(p6, [("dz13(5,4)", p7)])
        assert rep.candidates[0]["solvable"]
        assert not rep.six_dim_solvable
        assert rep.verdict.endswith("maximal")

    def test_rejects_wrong_dimension(self):
        from mongesym.catalog import symmetry_fields
        s = symmetry_fields()
        p6 = close_under_bracket([s[f"S{i}"] for i in range(1, 7)], cap=8)
        with pytest.raises(ValueError):
            maximality_argument(p6, [("bogus", p6)])
