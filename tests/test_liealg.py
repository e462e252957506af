"""Lie-algebra structure: closure, constants, series, Killing form, recognition."""

import functools
import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from mongesym import liealg, linalg
from mongesym.catalog import dz13, symmetry_fields
from mongesym.charts import J2, J20, ChartMismatchError
from mongesym.fields import VectorField, lie_bracket
from mongesym.liealg import (ClosureCapExceeded, _verify_combination, analyze,
                             bracket_vec, close_under_bracket, express_in_basis,
                             jacobi_holds, killing_matrix, unit_rows)
from mongesym.solver import symmetry_dimension

from helpers import (dense_tensor, is_antisymmetric, over_common_denominator,
                     perfbench_module,
                     presentation, random_expr, reference_bracket_vec,
                     reference_close_under_bracket, reference_constants,
                     reference_express, reference_killing_matrix,
                     reference_verify_combination, sympy_matrix, zero_field)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

S = symmetry_fields()
ALL_S = [S[f"S{i}"] for i in range(1, 7)]


def recombined(fields, rng, steps=10, choices=(-2, -1, 1, 2, 3)):
    """The fields recombined by a random invertible matrix: steps row
    operations, each adding a multiple drawn from choices of one row to
    another."""
    n = len(fields)
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice(choices))
        for k in range(n):
            m[i][k] += c * m[j][k]
    new_fields = []
    for i in range(n):
        f = zero_field(fields[0].chart)
        for j in range(n):
            if m[i][j]:
                f = f + fields[j].scale(m[i][j])
        new_fields.append(f)
    return new_fields


@pytest.fixture(scope="module")
def p6():
    return close_under_bracket(ALL_S, cap=8)


@pytest.fixture(scope="module")
def eq2_recombinations():
    rng = random.Random(2024)
    return [recombined(ALL_S, rng) for _ in range(4)]


# rational multiples, so that the recombined constants have denominators
DZ13_CHOICES = (Fraction(-2, 3), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 5),
                Fraction(2))


@pytest.fixture(scope="module")
def dz13_recombined():
    """The seven degree-1 symmetries of dz13(5,4), with exp atoms,
    recombined by the seeded rational matrix of the structure_dz13_5_4
    golden."""
    gens = symmetry_dimension(dz13(5, 4), 1, equation_label="dz13(5,4)").basis
    return recombined(list(gens), random.Random(0), choices=DZ13_CHOICES)


class TestExpressInBasis:
    def test_heisenberg_bracket_coordinates(self, p6):
        b = lie_bracket(S["S4"], S["S5"])
        coords = express_in_basis(b, list(p6.basis))
        assert coords == [0, 0, 0, 0, 0, 1]

    def test_zero_field(self, p6):
        coords = express_in_basis(zero_field(), list(p6.basis))
        assert coords == [0] * 6

    def test_not_in_span(self):
        dy = VectorField.coordinate(J20, "y")
        assert express_in_basis(dy, [S["S4"]]) is None

    def test_rejects_perturbed_identity(self, p6):
        # a field that agrees with S1 at many points but not identically
        tweak = VectorField.from_strings(J20, {"y1": "1/720720*y1^7"})
        v = S["S1"] + tweak
        coords = express_in_basis(v, list(p6.basis))
        assert coords is None

    def test_symbolic_fallback_with_exp_atoms(self):
        f = VectorField.from_strings(J20, {"y": "exp(x)", "y1": "exp(x)"})
        g = VectorField.from_strings(J20, {"y": "exp(x)"})
        h = VectorField.from_strings(J20, {"y1": "exp(x)"})
        coords = express_in_basis(f, [g, h])
        assert coords == [1, 1]
        assert express_in_basis(VectorField.coordinate(J20, "y"), [g, h]) is None

    def test_dependent_basis_fields_get_zero(self):
        # a basis field in the span of the fields before it gets coordinate 0
        g = VectorField.from_strings(J20, {"y": "exp(x)"})
        h = VectorField.from_strings(J20, {"y1": "exp(x)"})
        assert express_in_basis(g + h, [g, g, h]) == [1, 0, 1]
        assert express_in_basis(g + h, [g, g + h, h]) == [0, 1, 0]
        assert express_in_basis(g + h, [zero_field(), g, h]) == [0, 1, 1]
        assert express_in_basis(g + h, [g, g]) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_dependent_bases_agree_with_the_sympy_solve(self, seed):
        # random combinations of four fields, with a repeat and a zero field:
        # every dependent basis field gets coordinate 0, as in a solve with
        # the free variables at zero
        rng = random.Random(seed)
        gens = [S["S1"], S["S4"], S["S6"],
                VectorField.from_strings(J20, {"y": "exp(x)", "z": "y1"})]

        def combination():
            f = zero_field()
            for g in rng.sample(gens, rng.randint(1, 3)):
                f = f + g.scale(Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)))
            return f

        basis = [combination() for _ in range(rng.randint(2, 5))]
        basis.insert(rng.randint(0, len(basis)), rng.choice(basis))
        basis.insert(rng.randint(0, len(basis)), zero_field())
        for v in [combination() for _ in range(3)] + [VectorField.coordinate(J20, "y")]:
            assert express_in_basis(v, basis) == reference_express(v, basis)

    def test_mixed_charts_rejected(self):
        dx2 = VectorField.coordinate(J2, "x")
        dx20 = VectorField.coordinate(J20, "x")
        with pytest.raises(ChartMismatchError):
            express_in_basis(dx2, [dx20])
        with pytest.raises(ChartMismatchError):
            express_in_basis(dx20, [dx2])
        with pytest.raises(ChartMismatchError):
            # the second field lies in the span of the first on its own chart
            close_under_bracket([dx20, dx2], cap=4)

    def test_agrees_with_the_dense_solve(self, p6, eq2_recombinations):
        basis = list(p6.basis)
        for fields in eq2_recombinations:
            for v in fields + [lie_bracket(fields[0], fields[1])]:
                assert express_in_basis(v, basis) == reference_express(v, basis)
                assert express_in_basis(v, fields[:3]) == reference_express(v, fields[:3])


class TestClosure:
    def test_six_fields_already_closed(self, p6):
        assert p6.dimension == 6

    def test_single_field_abelian(self):
        p = close_under_bracket([S["S4"]], cap=4)
        assert p.dimension == 1
        assert p.constants[0][0] == (0,)

    def test_sl2_closure_from_two(self):
        p = close_under_bracket([S["S1"], S["S3"]], cap=6)
        assert p.dimension == 3
        rep = analyze(p)
        assert rep.verdict == "sl2"

    def test_cap_exceeded(self):
        with pytest.raises(ClosureCapExceeded):
            close_under_bracket(ALL_S, cap=3)

    def test_constants_validity(self, p6):
        assert is_antisymmetric(p6.tensor)
        assert jacobi_holds(p6.tensor)

    def test_one_pass_equals_final_basis_expression(self, eq2_recombinations):
        # brackets expressed once during closure, over the basis as it was,
        # equal every bracket expressed afterwards in the final basis; the
        # first two fields of each basis generate a larger algebra, so the
        # zero padding and the unit vectors of added brackets are exercised
        seven = symmetry_dimension(dz13(5, 4), 2, equation_label="dz13(5,4)").basis
        bases = eq2_recombinations + [recombined(seven, random.Random(7))]
        assert any(t.atoms for f in bases[-1] for e in f.coefficients
                   for t in e.terms)  # exp atoms reach the key match
        grown = []
        for fields in bases:
            for generators in (fields, fields[:2]):
                p = close_under_bracket(generators, cap=len(fields))
                assert p.constants == reference_constants(list(p.basis))
            grown.append(p.dimension)
        assert grown == [6, 6, 5, 6, 3]


class TestGoldenTable:
    def test_bracket_table_byte_stable(self, p6):
        table = {}
        for i in range(6):
            for j in range(6):
                table[f"[{i},{j}]"] = [str(c) for c in p6.constants[i][j]]
        with open(os.path.join(GOLDEN, "bracket_table_eq2.json")) as fh:
            golden = json.load(fh)
        assert table == golden

    def test_key_relations(self, p6):
        c = p6.constants
        # [S2,S1] = 2*S1, [S2,S3] = -2*S3, [S1,S3] = S2, [S4,S5] = S6
        assert c[1][0] == (2, 0, 0, 0, 0, 0)
        assert c[1][2] == (0, 0, -2, 0, 0, 0)
        assert c[0][2] == (0, 1, 0, 0, 0, 0)
        assert c[3][4] == (0, 0, 0, 0, 0, 1)
        for j in range(6):
            assert c[5][j] == (0,) * 6  # S6 central


class TestSeries:
    def test_center(self, p6):
        zc = analyze(p6).center
        assert len(zc) == 1
        assert list(zc[0]) == [0, 0, 0, 0, 0, 1]

    def test_six_dim_not_solvable(self, p6):
        rep = analyze(p6)
        dims = rep.derived_dims
        assert dims[0] == 6 and dims[-1] == 6  # perfect algebra, stabilizes above 0
        assert not rep.solvable
        assert not rep.nilpotent

    def test_heisenberg_series(self):
        rep = analyze(close_under_bracket([S["S4"], S["S5"], S["S6"]], cap=4))
        assert rep.lcs_dims == (3, 1, 0)
        assert rep.nilpotent
        assert rep.solvable

    def test_a_span_bracketed_with_itself_forms_each_pair_once(self, p6, monkeypatch):
        heisenberg = close_under_bracket([S["S4"], S["S5"], S["S6"]], cap=4)
        for t in (p6.tensor, heisenberg.tensor):
            full = unit_rows(len(t))
            products = [bracket_vec(t, a, b) for a in full for b in full]
            expected = linalg.reduced_rows([w for w in products if any(w)])[0]
            formed = []

            def spy(t, a, b):
                formed.append((full.index(a), full.index(b)))
                return bracket_vec(t, a, b)

            monkeypatch.setattr(liealg, "bracket_vec", spy)
            assert liealg.subspace_bracket(t, full, full) == expected
            monkeypatch.undo()
            assert formed and all(a < b for a, b in formed)
            if len(expected) < len(t):  # short of full rank, every pair is formed
                assert len(formed) == len(t) * (len(t) - 1) // 2

    def test_an_unaligned_center_is_scaled_to_one_at_its_free_column(
            self, eq2_recombinations):
        # on a recombined S1..S6 basis the center is S6's coordinates, as
        # Fractions with 1 at the last nonzero entry; one of them has a
        # half, so a primitive integer center would differ
        halves = 0
        for fields in eq2_recombinations:
            p = close_under_bracket(fields, cap=8)
            coords = express_in_basis(S["S6"], p.basis)
            f = max(c for c, x in enumerate(coords) if x)
            expected = tuple(x / coords[f] for x in coords)
            rep = analyze(p)
            assert rep.center == (expected,)
            assert all(type(x) is Fraction for x in rep.center[0])
            if rep.center_indices is None:
                assert rep.to_json()["center"] == [[str(x) for x in expected]]
            halves += any(x.denominator == 2 for x in expected)
        assert halves


class TestKilling:
    def test_sl2_signature(self):
        p = close_under_bracket([S["S1"], S["S2"], S["S3"]], cap=3)
        assert p.basis == (S["S1"], S["S2"], S["S3"])
        rep = analyze(p)
        km = rep.killing
        assert rep.killing_rank == 3
        assert rep.killing_signature == (2, 1)
        assert km[1][1] == 8 and km[0][2] == 4

    def test_nilpotent_killing_vanishes(self):
        rep = analyze(close_under_bracket([S["S4"], S["S5"], S["S6"]], cap=4))
        assert rep.killing_rank == 0
        assert all(v == 0 for row in rep.killing for v in row)

    def test_one_dim_abelian(self):
        rep = analyze(close_under_bracket([S["S6"]], cap=2))
        assert rep.killing == ((0,),) and rep.killing_rank == 0


class TestRecognition:
    def test_full_algebra(self, p6):
        rep = analyze(p6)
        assert rep.verdict == "sl2_semidirect_heisenberg"
        assert rep.radical_indices == [3, 4, 5]
        assert rep.center_indices == [5]
        assert rep.complement is not None
        with open(os.path.join(GOLDEN, "structure_eq2.json")) as fh:
            golden = json.load(fh)
        assert rep.to_json() == golden

    def test_dz13_golden(self, dz13_recombined):
        # solvable, with exp atoms, and constants over a denominator d > 1
        p = close_under_bracket(dz13_recombined, cap=7)
        assert p.den > 1
        assert any(t.atoms for f in p.basis for e in f.coefficients
                   for t in e.terms)
        rep = analyze(p)
        assert (rep.dimension, rep.solvable) == (7, True)
        with open(os.path.join(GOLDEN, "structure_dz13_5_4.json")) as fh:
            golden = json.load(fh)
        assert rep.to_json() == golden

    def test_heisenberg_alone(self):
        p = close_under_bracket([S["S4"], S["S5"], S["S6"]], cap=4)
        assert analyze(p).verdict == "heisenberg"

    def test_two_dim_abelian_unrecognized(self):
        p = close_under_bracket([S["S4"], S["S6"]], cap=4)
        rep = analyze(p)
        assert rep.verdict == "unrecognized"
        assert rep.dimension == 2

    def test_invariance_under_basis_change(self, eq2_recombinations):
        for new_fields in eq2_recombinations:
            p = close_under_bracket(new_fields, cap=8)
            rep = analyze(p)
            assert p.dimension == 6
            assert rep.verdict == "sl2_semidirect_heisenberg"
            assert rep.complement is not None

    def test_one_analysis_per_algebra(self, p6, monkeypatch):
        # the verdict reads the report's own invariants and the radical's
        # lower central series: no block of the algebra is analyzed again
        names = ("center_rows", "killing_matrix", "symmetric_signature", "radical_rows")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def spy(*args, _name=name, _f=getattr(liealg, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(liealg, name, spy)
        assert analyze(p6).verdict == "sl2_semidirect_heisenberg"
        assert calls == dict.fromkeys(names, 1)

    def test_perturbed_constants_fail_jacobi(self, p6):
        c = [list(list(row) for row in plane) for plane in p6.constants]
        c[0][1] = tuple(Fraction(v) for v in (0, 0, 1, 0, 0, 0))
        c[1][0] = tuple(-v for v in c[0][1])
        tampered = tuple(tuple(tuple(x) if isinstance(x, tuple) else tuple(x)
                               for x in row) for row in
                         [[tuple(map(Fraction, c[i][j])) for j in range(6)]
                          for i in range(6)])
        assert not jacobi_holds(presentation(tampered).tensor)


# ---------------------------------------------------------------------------
# recognition on hand-made tensors
# ---------------------------------------------------------------------------

def tensor(n, brackets):
    """Structure constants from {(i, j): {k: coefficient}}, i < j, filled in
    by antisymmetry."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), out in brackets.items():
        for k, v in out.items():
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def shifted(brackets, by):
    return {(i + by, j + by): {k + by: v for k, v in out.items()}
            for (i, j), out in brackets.items()}


SL2 = {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}}  # basis e, h, f
SO3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
HEIS = {(0, 1): {2: 1}}  # [p, q] = c
# sl2 acting on span(p, q) by its standard representation, c central
PAPER = {**SL2, **shifted(HEIS, 3), (0, 4): {3: 1}, (1, 3): {3: 1},
         (1, 4): {4: -1}, (2, 3): {4: 1}}
# sl2 acting on an abelian copy of itself by the adjoint representation
SL2_ADJOINT = {**SL2, (0, 4): {3: -2}, (0, 5): {4: 1}, (1, 3): {3: 2},
               (1, 5): {5: -2}, (2, 3): {4: -1}, (2, 4): {5: 2}}
# so3 acting on an abelian copy of itself by the adjoint representation
SO3_ADJOINT = {**SO3, (0, 4): {5: 1}, (0, 5): {4: -1}, (1, 3): {5: -1},
               (1, 5): {3: 1}, (2, 3): {4: 1}, (2, 4): {3: -1}}
# Bianchi types III, IV and V on a basis x, y, z
BIANCHI = {"III": {(0, 1): {1: 1}},
           "IV": {(0, 1): {2: 1}, (0, 2): {1: -1, 2: 2}},
           "V": {(0, 1): {1: 1}, (0, 2): {2: 1}}}

HAND_MADE = {
    "sl2": (3, SL2, "sl2"),
    "so3": (3, SO3, "unrecognized"),
    "heisenberg": (3, HEIS, "heisenberg"),
    "abelian": (3, {}, "unrecognized"),
    "paper": (6, PAPER, "sl2_semidirect_heisenberg"),
    # not perfect: its derived algebra is sl2 + z, of dimension 4
    "sl2+heisenberg": (6, {**SL2, **shifted(HEIS, 3)}, "unrecognized"),
    "sl2+adjoint": (6, SL2_ADJOINT, "unrecognized"),
    "so3+heisenberg": (6, {**SO3, **shifted(HEIS, 3)}, "unrecognized"),
    **{f"bianchi{k}": (3, b, "unrecognized") for k, b in BIANCHI.items()},
    "sl2+abelian": (6, SL2, "unrecognized"),
    **{f"sl2+bianchi{k}": (6, {**SL2, **shifted(b, 3)}, "unrecognized")
       for k, b in BIANCHI.items()},
    # PAPER without [p, q] = c: sl2 acting on std + R, derived dimension 5
    "sl2+std+trivial": (6, {k: v for k, v in PAPER.items() if k != (3, 4)},
                        "unrecognized"),
    # perfect, with no radical
    "sl2+sl2": (6, {**SL2, **shifted(SL2, 3)}, "unrecognized"),
    "sl2+so3": (6, {**SL2, **shifted(SO3, 3)}, "unrecognized"),
    "so3+so3": (6, {**SO3, **shifted(SO3, 3)}, "unrecognized"),
    # perfect, with an abelian radical and a quotient of signature (0, 3)
    "so3+adjoint": (6, SO3_ADJOINT, "unrecognized"),
}


def bracket(c, u, v):
    n = len(c)
    return [sum(u[i] * v[j] * c[i][j][k] for i in range(n) for j in range(n))
            for k in range(n)]


def rebased(c, seed):
    """c in the basis of the rows of a seeded random invertible rational
    matrix P: a bracket's new coordinates are its old ones times P^-1."""
    n = len(c)
    rng = random.Random(seed)
    while True:
        p = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        if sympy_matrix(p, n).det() != 0:
            break
    inv = sympy_matrix(p, n).inv()
    inv = [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)]
           for i in range(n)]
    return tuple(tuple(tuple(sum(w[i] * inv[i][k] for i in range(n))
                             for k in range(n))
                       for w in (bracket(c, p[a], p[b]) for b in range(n)))
                 for a in range(n))


def hand_made_analysis(c):
    return analyze(presentation(c))


class TestHandMadeRecognition:
    @pytest.mark.parametrize("name", HAND_MADE)
    def test_verdict(self, name):
        n, brackets, verdict = HAND_MADE[name]
        c = tensor(n, brackets)
        assert jacobi_holds(presentation(c).tensor)
        assert hand_made_analysis(c).verdict == verdict

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("name", [k for k, v in HAND_MADE.items() if v[0] == 6])
    def test_verdict_under_basis_change(self, name, seed):
        n, brackets, verdict = HAND_MADE[name]
        c = rebased(tensor(n, brackets), seed)
        assert jacobi_holds(presentation(c).tensor)
        rep = hand_made_analysis(c)
        assert rep.verdict == verdict
        if verdict != "sl2_semidirect_heisenberg":
            assert rep.complement is None
            return
        comp = [list(v) for v in rep.complement]
        assert sympy_matrix(comp, n).rank() == 3
        assert sympy_matrix(comp + [list(v) for v in rep.radical], n).rank() == 6
        for a in range(3):
            for b in range(a + 1, 3):
                w = bracket(c, comp[a], comp[b])
                assert sympy_matrix(comp + [w], n).rank() == 3

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_radical_that_is_not_an_ideal_gets_no_correction(self, seed):
        # off Jacobi: [e, c] = -f takes the radical span(p, q, c) out of
        # itself, although its block is Heisenberg and the quotient is sl2
        c = tensor(6, {**PAPER, (0, 5): {2: -1}})
        if seed is not None:
            c = rebased(c, seed)
        assert not jacobi_holds(presentation(c).tensor)
        rep = hand_made_analysis(c)
        assert len(rep.radical) == 3
        assert (rep.verdict, rep.complement) == ("unrecognized", None)


# ---------------------------------------------------------------------------
# the integer tensor and the integer zero-test against the Fraction path
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_fields(eq2_recombinations, dz13_recombined):
    """Generators of the 0- and 1-dimensional algebras, of the four eq2
    recombinations and of the recombined dz13(5,4) basis."""
    return [[zero_field()], [S["S6"]], *eq2_recombinations,
            dz13_recombined]


@pytest.fixture(scope="module")
def oracle_closures(oracle_fields):
    """The closures of oracle_fields."""
    closures = [close_under_bracket(f, cap=len(f)) for f in oracle_fields]
    assert [p.dimension for p in closures] == [0, 1, 6, 6, 6, 6, 7]
    return closures


@pytest.fixture(scope="module")
def oracle_tensors(oracle_closures):
    """Every hand-made tensor, its 8 rebased copies, and the constants of
    oracle_closures."""
    hand = [tensor(n, brackets) for n, brackets, _ in HAND_MADE.values()]
    copies = [rebased(c, seed) for c in hand for seed in range(8)]
    return hand + copies + [p.constants for p in oracle_closures]


def assert_integer_form(p):
    """A closure's integer tensor against its Fraction view: den is the lcm
    of the constants' denominators, the tensor is den times them in sparse
    (k, x) form, the record hashes, and analyze reads the same report off it
    as off the constants through helpers.presentation."""
    c = p.constants
    assert p.den == math.lcm(*(x.denominator for plane in c for row in plane
                               for x in row))
    assert p.tensor == tuple(tuple(tuple((k, p.den * x) for k, x in enumerate(row) if x)
                                   for row in plane) for plane in c)
    assert hash(p) == hash((p.basis, p.tensor, p.den))
    assert analyze(p) == analyze(presentation(c))


def integral(values):
    """Integral Fractions as ints."""
    assert all(x.denominator == 1 for x in values)
    return [int(x) for x in values]


def fractions(coords):
    """linalg's (numerators, den) as Fractions."""
    nums, den = coords
    return [Fraction(x, den) for x in nums]


class TestIntegerTensor:
    def test_one_common_denominator(self, oracle_tensors):
        for c in oracle_tensors:
            p = presentation(c)
            t, d = p.tensor, p.den
            assert d == math.lcm(*(x.denominator for plane in c for row in plane
                                   for x in row))
            assert dense_tensor(t) == tuple(tuple(tuple(d * x for x in row)
                                                  for row in plane) for plane in c)

    def test_bracket_vec_is_d_times_the_fraction_bracket(self, oracle_tensors):
        rng = random.Random(15)
        for c in oracle_tensors:
            p = presentation(c)
            t, d = p.tensor, p.den
            n = len(c)
            units = unit_rows(n)
            mixed = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(3)]
            pairs = [(u, v) for u in units for v in units]
            pairs += [(u, v) for u in mixed for v in mixed + units[:1]]
            for u, v in pairs:
                assert bracket_vec(t, u, v) == [d * x for x in
                                                reference_bracket_vec(c, u, v)]

    def test_killing_matrix_is_d_squared_times_the_fraction_one(self, oracle_tensors):
        for c in oracle_tensors:
            p = presentation(c)
            expected = reference_killing_matrix(c)
            assert killing_matrix(p.tensor) == [[p.den ** 2 * x for x in row]
                                                for row in expected]
            rep = analyze(p)
            assert rep.killing == tuple(map(tuple, expected))

    def test_closures_carry_their_integer_tensor(self, oracle_closures):
        for p in oracle_closures:
            assert_integer_form(p)

    def test_reports_equal_those_of_the_fraction_routines(
            self, monkeypatch, oracle_tensors, oracle_fields, oracle_closures):
        reports = [analyze(presentation(c)) for c in oracle_tensors]
        # the Fraction routines on the integer tensor give integral values;
        # linalg takes them as ints
        monkeypatch.setattr(liealg, "bracket_vec", lambda t, u, v:
                            integral(reference_bracket_vec(dense_tensor(t), u, v)))
        monkeypatch.setattr(liealg, "killing_matrix", lambda t: [
            integral(row) for row in reference_killing_matrix(dense_tensor(t))])
        # the closure hands the zero test linalg's (numerators, den)
        monkeypatch.setattr(liealg, "_verify_combination", lambda v, basis, coords:
                            reference_verify_combination(v, basis, fractions(coords)))
        assert [close_under_bracket(f, cap=len(f)) for f in oracle_fields] == oracle_closures
        assert [analyze(presentation(c)) for c in oracle_tensors] == reports


class TestZeroTest:
    """_verify_combination on hand-built combinations: the integer forms
    of v and of the basis fields meet over one lcm per field."""

    # coefficients over 2, 3 and 5, a power atom and an exp atom
    B1 = VectorField.from_strings(J20, {
        "x": "1/2*x + y2^(1/3)", "y1": "1/3*exp(-4/3*y)*y2^(2/3)"})
    B2 = VectorField.from_strings(J20, {
        "x": "1/3*x", "y1": "1/5*exp(-4/3*y)*y2^(2/3) + 1/5*y1", "z": "1/2"})
    COORDS = [Fraction(1, 5), Fraction(3, 10)]

    def combination(self):
        return self.B1.scale(self.COORDS[0]) + self.B2.scale(self.COORDS[1])

    @staticmethod
    def checks(coords):
        """Each zero test with the coordinates in its form: _verify_combination
        takes linalg's (numerators, den), the reference Fractions."""
        den, nums = over_common_denominator(coords)
        return [(_verify_combination, (nums, den)),
                (reference_verify_combination, coords)]

    def test_the_terms_cancel_only_over_a_common_denominator(self):
        v = self.combination()
        # x: 1/5 of x and of y2^(1/3); y1: 1/15 + 3/50 of the atom term,
        # 3/50 of y1; z: 3/20; all over the lcm of 5, 150 and 20
        numerators, den = v.integer_form
        assert den == 300
        assert sorted(numerators.values()) == [18, 38, 45, 60, 60]
        assert {key[0] for key in numerators} == {0, 2, 4}

    def test_right_coordinates_pass(self):
        v = self.combination()
        for check, coords in self.checks(self.COORDS):
            assert check(v, [self.B1, self.B2], coords) is None
        assert express_in_basis(v, [self.B1, self.B2]) == self.COORDS

    @pytest.mark.parametrize("coords", [
        [Fraction(1, 5), Fraction(3, 10) + Fraction(1, 30)],
        [Fraction(3, 10), Fraction(1, 5)],
        [Fraction(2, 5), Fraction(3, 10)],
        [Fraction(1, 5), 0],
        [0, 0],
    ])
    def test_wrong_coordinates_raise(self, coords):
        v = self.combination()
        for check, form in self.checks(coords):
            with pytest.raises(ArithmeticError):
                check(v, [self.B1, self.B2], form)

    def test_one_wrong_atom_term_raises(self):
        v = self.combination() + VectorField.from_strings(J20, {
            "y1": "1/150*exp(-4/3*y)*y2^(2/3)"})
        for check, coords in self.checks(self.COORDS):
            with pytest.raises(ArithmeticError):
                check(v, [self.B1, self.B2], coords)


class TestOneIntegerForm:
    """Each field's integer form (VectorField.integer_form) is built once,
    and the span and the zero test both read it."""

    def test_closure_builds_each_form_once(self, monkeypatch):
        built = []
        form = VectorField.integer_form.func

        def counted(f):
            built.append(f)
            return form(f)

        prop = functools.cached_property(counted)
        prop.__set_name__(VectorField, "integer_form")
        monkeypatch.setattr(VectorField, "integer_form", prop)
        placed, verified = [], []
        place = linalg.KeyedSpan.place

        def place_spy(span, vector, den=1):
            placed.append((vector, den))
            return place(span, vector, den)

        verify = liealg._verify_combination

        def verify_spy(v, basis, coords):
            before = len(built)
            verify(v, basis, coords)
            assert len(built) == before  # the zero test builds no form
            verified.append(v)

        monkeypatch.setattr(linalg.KeyedSpan, "place", place_spy)
        monkeypatch.setattr(liealg, "_verify_combination", verify_spy)
        fresh = [VectorField(f.chart, f.coefficients) for f in ALL_S]  # nothing cached
        p = close_under_bracket(fresh, cap=8)
        # the six generators and the fifteen brackets of E, one form each:
        # each generator is a row of the sparse basis E and stands in for it
        assert len(built) == 21 == len({id(f) for f in built})
        assert all(any(b is f for f in built) for b in p.basis)
        # E and its brackets are placed over E by their forms, then the
        # generators and their fifteen brackets as coordinate vectors over E
        assert len(placed) == 21 + 21
        forms = {id(f.integer_form[0]): f.integer_form[1] for f in built}
        assert all(forms.get(id(vector)) == den for vector, den in placed[:21])
        assert all(set(vector) <= set(range(6)) for vector, _ in placed[21:])
        # the brackets of E, then the generators, are zero-tested over E
        assert [id(v) for v in verified] == [id(f) for f in built[6:] + built[:6]]

    def test_express_in_basis_reads_one_form_for_both(self):
        # v's form scaled by 1/2: the span and the zero test both read v / 2,
        # so the coordinates halve and the zero test agrees
        g = VectorField.from_strings(J20, {"y": "exp(x)"})
        h = VectorField.from_strings(J20, {"y1": "2*y"})
        v = g + h.scale(3)
        numerators, den = v.integer_form
        v.__dict__["integer_form"] = (numerators, 2 * den)
        assert express_in_basis(v, [g, h]) == [Fraction(1, 2), Fraction(3, 2)]


def closure_outcome(close, fields, cap):
    """(basis, constants) of a closure, its integer form checked, or the
    type and message of its error."""
    try:
        p = close(fields, cap=cap)
    except (ClosureCapExceeded, ChartMismatchError) as exc:
        return type(exc), str(exc)
    assert_integer_form(p)
    return p.basis, p.constants


def combined(matrix, generators):
    """sum(matrix[i][k] * generators[k]) for each row i."""
    out = []
    for row in matrix:
        f = zero_field(generators[0].chart)
        for c, g in zip(row, generators):
            if c:
                f = f + g.scale(c)
        out.append(f)
    return out


class TestSparseClosure:
    """close_under_bracket, which brackets a sparse basis of the span and
    carries the constants back by a change of basis, against
    helpers.reference_close_under_bracket, which brackets the fields as
    given: the same basis field for field, the same constants, and the same
    error and message."""

    @staticmethod
    def assert_same(fields, cap):
        out = closure_outcome(close_under_bracket, fields, cap)
        assert out == closure_outcome(reference_close_under_bracket, fields, cap)
        return out

    def test_every_subset_of_the_generators(self):
        dims = set()
        for r in range(1, 7):
            for subset in itertools.combinations(ALL_S, r):
                basis, _ = self.assert_same(list(subset), 8)
                dims.add((r, len(basis)))
        assert (2, 3) in dims  # S1 and S3 close to sl(2): a growing closure

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_recombinations(self, seed):
        workloads = perfbench_module("workloads")
        rng = random.Random(seed)
        a, b = rng.choice(workloads.DZ13_PAIRS)
        dz13_gens = [VectorField.from_strings(J20, g)
                     for g in workloads.dz13_generators(a, b)]
        for generators in (ALL_S, dz13_gens):
            m, _ = workloads.invertible_matrix(rng, len(generators))
            fields = combined(m, generators)
            assert self.assert_same(fields, 8)[0] == tuple(fields)
            grown, _ = self.assert_same(fields[:2], 8)
            assert grown[:2] == tuple(fields[:2])

    def test_dependent_inputs(self):
        s1, s2, s3, s6 = S["S1"], S["S2"], S["S3"], S["S6"]
        zero = zero_field()
        for fields in ([], [zero], [zero, zero], [s1, s1, s3], [zero, s2, s6, zero],
                       [s1, s3, s1.scale(Fraction(2)) - s3.scale(Fraction(1, 3)), s2]):
            self.assert_same(fields, 8)

    def test_solve_basis_and_mixed_charts(self):
        seven = symmetry_dimension(dz13(5, 4), 1, equation_label="dz13(5,4)").basis
        assert len(self.assert_same(list(seven), 8)[0]) == 7
        dx2, dx20 = VectorField.coordinate(J2, "x"), VectorField.coordinate(J20, "x")
        assert self.assert_same([dx20, dx2], 4)[0] is ChartMismatchError

    def test_counts(self, monkeypatch, eq2_recombinations):
        calls = []
        bracket = liealg.lie_bracket
        monkeypatch.setattr(liealg, "lie_bracket",
                            lambda v, w: calls.append(1) or bracket(v, w))
        for fields in eq2_recombinations:
            for generators in (fields[:2], fields):
                calls.clear()
                counts = {}
                d = close_under_bracket(generators, cap=8, counts=counts).dimension
                # the pairs of the sparse basis, then one bracket per field
                # that joins the closure of the fields as given
                assert counts["symbolic_brackets"] == len(calls) == (
                    d * (d - 1) // 2 + d - len(generators))
                assert counts["input_terms"] == sum(len(f.integer_form[0]) for f in generators)
            # a recombination of S1..S6 has a sparse basis as small as they are
            assert counts["sparse_terms"] == 15 < counts["input_terms"]

    @pytest.mark.parametrize("cap", [-1, 0, 3])
    def test_caps(self, cap):
        assert self.assert_same(ALL_S, cap) == (
            ClosureCapExceeded, f"dimension exceeded cap {cap}")

    @pytest.mark.parametrize("seed", range(12))
    def test_random_fields_with_power_atoms(self, seed):
        rng = random.Random(seed)
        fields = [VectorField(J20, tuple(random_expr(rng) if rng.random() < 0.5
                                         else zero_field().coefficients[0]
                                         for _ in J20.coords))
                  for _ in range(rng.randint(1, 3))]
        for cap in (1, 2, 3):
            self.assert_same(fields, cap)
