"""Determining-equation solver: ansatz, oracle equivalence, soundness."""

import json
from fractions import Fraction

import pytest

from mongesym.catalog import dz13, eq1, eq2, flat
from mongesym.fields import (distribution_from_monge, is_symmetry,
                             lie_bracket)
from mongesym.liealg import close_under_bracket, express_in_basis
from mongesym.solver import (MAX_UNKNOWNS, AnsatzError, AnsatzSpec,
                             build_ansatz, determining_equations,
                             exp_rates_for, maximality_argument, nullspace,
                             symmetry_dimension)

from helpers import brute_force_symmetry_space, reference_rows, same_span


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
        with pytest.raises(AnsatzError):  # 19 offsets: 190190 unknowns
            AnsatzSpec(9, offsets=range(-9, 10))

    def test_deterministic_enumeration(self):
        a1 = build_ansatz(AnsatzSpec(2))
        a2 = build_ansatz(AnsatzSpec(2))
        assert a1.unknowns == a2.unknowns

    def test_zero_vector_assembles_to_zero_field(self):
        a = build_ansatz(AnsatzSpec(1))
        assert a.assemble([0] * a.size).is_zero()


class TestDeterminingSystem:
    def test_flat_degree0_dimension3(self):
        d = distribution_from_monge(flat())
        system = determining_equations(d, build_ansatz(AnsatzSpec(0)))
        dim, basis = nullspace(system)
        assert dim == 3
        fields = [system.ansatz.assemble(v) for v in basis]
        spans = {tuple(str(c) for c in f.coefficients) for f in fields}
        assert ("0", "0", "0", "0", "1") in spans  # d/dz
        assert ("1", "0", "0", "0", "0") in spans  # d/dx

    def test_homogeneous(self):
        d = distribution_from_monge(eq2())
        system = determining_equations(d, build_ansatz(AnsatzSpec(1)))
        # every entry indexes an unknown column: the zero vector always solves
        for row in system.rows.values():
            assert all(0 <= col < system.n_unknowns for col in row)
        zero_field = system.ansatz.assemble([0] * system.n_unknowns)
        assert is_symmetry(zero_field, d).ok


class TestCompiledOperator:
    # the compiled operator must give exactly the rows (keys and entries)
    # of the expanded residuals; the degree-2 ansatz holds every unknown of
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
        assert determining_equations(d, ansatz).rows == reference_rows(d, ansatz)

    def test_restriction_matches_fresh_build(self):
        d = distribution_from_monge(flat())
        top = determining_equations(d, build_ansatz(AnsatzSpec(3)))
        for degree in range(4):
            fresh = determining_equations(d, build_ansatz(AnsatzSpec(degree)))
            restricted = top.restrict(degree)
            assert restricted.ansatz == fresh.ansatz
            assert restricted.rows == fresh.rows


class TestOracleEquivalence:
    # the sparse integer solver must agree with direct symbolic coefficient
    # matching solved by dense rational elimination, at degrees 0 and 1
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
        system = determining_equations(d, build_ansatz(AnsatzSpec(degree)))
        dim, basis = nullspace(system)
        assert dim == dim_oracle
        assert same_span(basis, null_oracle)


class TestSoundness:
    def test_every_nullspace_vector_is_a_symmetry(self):
        for key, degree in (("eq2", 2), ("flat", 3), ("dz13(5,4)", 2)):
            from mongesym.catalog import get_equation
            m = get_equation(key)
            rates = exp_rates_for(m)
            d = distribution_from_monge(m)
            system = determining_equations(
                d, build_ansatz(AnsatzSpec(degree, rates=rates)))
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
        assert p.jacobi_ok()


class TestRates:
    def test_rate_detection(self):
        assert [str(r) for r in exp_rates_for(dz13(10, 9))] == \
            ["-4", "-3", "-2", "-1", "0", "1", "2", "3", "4"]
        assert [str(r) for r in exp_rates_for(dz13(5, 4))] == \
            ["-3", "-2", "-1", "0", "1", "2", "3"]
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
