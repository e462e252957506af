"""Jet geometry: distributions, brackets, genericity, symmetries, prolongation."""

import itertools
import random
from fractions import Fraction

import pytest

import mongesym.catalog
import mongesym.fields
from mongesym.catalog import (EQUIAFFINE, SYMMETRY_FIELDS, CatalogKeyError, dz13, eq1,
                              eq2, field_keys, flat, get_equation, get_field,
                              strazzullo, symmetry_fields)
from mongesym.charts import J2, J20, PLANE, Chart, ChartMismatchError
from mongesym.cli import main
from mongesym.expr import Expr, ExprError
from mongesym.fields import (MongeEquation, ProjectionError, VectorField,
                             distribution_from_monge, frame_determinant,
                             genericity_hessian, in_distribution,
                             is_symmetry, lie_bracket, membership_residuals,
                             project_to_j2, prolong_plane_field, symmetry_residuals)
from mongesym.parser import parse
from mongesym.solver import symmetry_dimension

from helpers import (equiaffine_generators, flow_commutator, frame_fields, mul_expr,
                     perfbench_module, random_expr, reference_bracket,
                     reference_membership_residuals, reference_symmetry_residuals)


def P(text, chart=J20):
    return parse(text, chart)


S = symmetry_fields()
ALL_S = [S[f"S{i}"] for i in range(1, 7)]


class TestRecords:
    def test_vector_fields_compare_by_value(self):
        v = VectorField.from_strings(J20, {"x": "x", "z": "1/2*y^2"})
        w = VectorField(J20, tuple(P(t) for t in ("x", "0", "0", "0", "1/2*y^2")))
        assert v is not w and v == w and hash(v) == hash(w) and {v: 1}[w] == 1
        assert v != w.scale(2) and v != VectorField.coordinate(J20, "x")
        assert v != (v.chart, v.coefficients)
        assert v.integer_form == w.integer_form
        assert all(v.partial(i, j) == w.partial(i, j) for i in range(5) for j in range(5))

    def test_monge_equations_compare_by_value(self):
        assert MongeEquation(P("y + y2^(1/3)")) == eq2()
        assert hash(MongeEquation(P("y + y2^(1/3)"))) == hash(eq2())
        assert MongeEquation(P("y2^2")) != eq2() and eq2() != eq2().F
        assert str(eq2()) == "z' = y + y2^(1/3)"

    @pytest.mark.parametrize("build, error, message", [
        (lambda: VectorField(J20, (P("x"),) * 4), ValueError,
         "one coefficient per chart coordinate is required"),
    ], ids=["length"])
    def test_bad_input_is_refused_with_its_message(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


class TestPartials:
    """VectorField.partial is the coefficient's partial, taken on demand."""

    @staticmethod
    def assert_partials(v):
        for i, c in enumerate(v.coefficients):
            for j, u in enumerate(v.chart.coords):
                assert v.partial(i, j) == c.diff(u), (i, u)
                assert v.partial(i, j) is v.partial(i, j)  # kept on the field

    @pytest.mark.parametrize("key", [*SYMMETRY_FIELDS, *EQUIAFFINE])
    def test_catalog_fields(self, key):
        v = get_field(key)
        assert v.chart == (J20 if key in SYMMETRY_FIELDS else J2)
        self.assert_partials(v)

    def test_dz13_generators(self):
        workloads = perfbench_module("workloads")
        for a, b in workloads.DZ13_PAIRS[:3]:
            for g in workloads.dz13_generators(a, b):
                self.assert_partials(VectorField.from_strings(J20, g))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_fields_with_zero_coefficients(self, seed):
        rng = random.Random(seed)
        unused = 0
        for chart in (J20, J2) * 3:
            coefficients = [Expr.zero() if rng.random() < 0.3 else random_expr(rng, chart)
                            for _ in chart.coords]
            coefficients[rng.randrange(len(chart))] = Expr.zero()
            v = VectorField(chart, tuple(coefficients))
            self.assert_partials(v)
            for i, c in enumerate(coefficients):
                used = c.coordinates_used()
                for j in range(len(chart)):
                    if j not in used:
                        assert v.partial(i, j) == Expr.zero()
                        unused += bool(c.terms)
        assert unused  # a nonzero coefficient without some coordinate was met


class TestDifferentiatedOnDemand:
    """Which partials the commands take, read off a spy on Expr.diff."""

    @pytest.fixture
    def diffs(self, monkeypatch):
        seen, diff = [], Expr.diff

        def spy(e, coord):
            seen.append((e, coord))
            return diff(e, coord)

        monkeypatch.setattr(Expr, "diff", spy)
        return seen

    def test_genericity_differentiates_only_along_y1_and_y2(self, diffs, capsys):
        assert main(["genericity", "eq2"]) == 0
        assert {coord for _, coord in diffs} == {"y1", "y2"}

    def test_verify_never_differentiates_eta2(self, diffs, capsys):
        assert main(["verify", "eq2"]) == 0
        differentiated = {e for e, _ in diffs}
        eta1, eta2 = ({S[k].coefficients[i] for k in SYMMETRY_FIELDS} - {Expr.zero()}
                      for i in (2, 3))
        assert eta2 and not eta2 & differentiated  # S2's -3*y2 and S3's -3*y1*y2
        assert eta1 & differentiated


class TestDistribution:
    def test_from_monge_cubic_root(self):
        d = distribution_from_monge(eq2())
        assert [str(c) for c in d.X2.coefficients] == \
            ["1", "y1", "y2", "0", "y + y2^(1/3)"]
        assert [str(c) for c in d.X1.coefficients] == ["0", "0", "0", "1", "0"]

    def test_from_monge_zero(self):
        d = distribution_from_monge(MongeEquation(P("0")))
        assert [str(c) for c in d.X2.coefficients] == ["1", "y1", "y2", "0", "0"]

    def test_from_monge_flat(self):
        d = distribution_from_monge(flat())
        assert str(d.X2.coefficients[4]) == "y2^2"


class TestBracket:
    def test_x1_x2_cubic_root(self):
        d = distribution_from_monge(eq2())
        b = lie_bracket(d.X1, d.X2)
        assert [str(c) for c in b.coefficients] == ["0", "0", "1", "0", "1/3*y2^(-2/3)"]

    def test_antisymmetry_diagonal(self):
        for f in ALL_S:
            assert lie_bracket(f, f).is_zero()

    def test_heisenberg_relation(self):
        b = lie_bracket(S["S4"], S["S5"])
        assert [str(c) for c in b.coefficients] == ["0", "0", "0", "0", "1"]

    def test_bilinear(self):
        a, b, c = S["S1"], S["S3"], S["S5"]
        left = lie_bracket(a + b.scale(3), c)
        right = lie_bracket(a, c) + lie_bracket(b, c).scale(3)
        assert all((x - y).is_zero() for x, y in zip(left.coefficients, right.coefficients))

    def test_one_pass_equals_two_step_definition(self):
        # every coefficient normalized once equals the sum of separately
        # normalized products, on polynomial fields, exp atoms, two powers
        # of one base, ln and negative exponents
        gens = symmetry_dimension(dz13(5, 4), 1, equation_label="dz13(5,4)").basis
        assert any(t.atoms for f in gens for e in f.coefficients for t in e.terms)
        b = "(y2 - 1/2*y1^2)"
        odd = [
            VectorField.from_strings(J20, {
                "x": f"{b}^(2/3) + y1*{b}^(-1/3)", "y1": "y2",
                "z": f"z*{b}^(-1/3) - x*{b}^(2/3)"}),
            VectorField.from_strings(J20, {
                "y": f"y1^2*{b}^(2/3)", "y2": f"x*{b}^(-1/3)", "z": "1"}),
            VectorField.from_strings(J20, {"y": "ln(y1)", "y1": "x*ln(y1)", "z": "y*ln(y1 + y2)"}),
            VectorField.from_strings(J20, {"y1": "y2^(-1)", "y2": "x*y1^(-2)", "z": "x^(-2)*y"}),
            VectorField.from_strings(J20, {"x": "y1^(-1)*y2^(-1)", "y": "y^(-3)", "z": "ln(x)*y2^(-2)"}),
        ]
        x2 = distribution_from_monge(strazzullo()).X2
        for group in (ALL_S, gens, odd + [x2] + ALL_S[:3]):
            for v, w in itertools.product(group, repeat=2):
                assert lie_bracket(v, w) == reference_bracket(v, w)

    def test_flow_commutator_cross_check(self):
        # independent numerical oracle: commutator of RK4 flows
        point = {"x": 0.3, "y": 0.7, "y1": 0.45, "y2": 1.2, "z": 0.9}
        d = distribution_from_monge(eq2())
        pairs = [(S["S1"], S["S3"]), (S["S2"], S["S4"]), (d.X1, d.X2)]
        for v, w in pairs:
            exact = [c.approx(point) for c in lie_bracket(v, w).coefficients]
            approx = flow_commutator(v, w, point)
            for e, a in zip(exact, approx):
                assert abs(e - a) <= 5e-3 * max(1.0, abs(e))


class TestGenericity:
    def test_cubic_root(self):
        h = genericity_hessian(eq2())
        assert str(h) == "-2/9*y2^(-5/3)"
        assert not h.is_zero()

    def test_flat(self):
        assert genericity_hessian(flat()) == P("2")

    def test_linear_not_generic(self):
        assert genericity_hessian(MongeEquation(P("x + y*y2"))).is_zero()


class TestFrame:
    def test_frame_flat(self):
        d = distribution_from_monge(flat())
        x1, x2, x3, x4, x5 = frame_fields(d)
        assert [str(c) for c in x4.coefficients] == ["0", "0", "0", "0", "2"]

    def test_frame_degenerate(self):
        d = distribution_from_monge(MongeEquation(P("0")))
        assert frame_fields(d)[3].is_zero()

    def test_frame_cubic_root(self):
        d = distribution_from_monge(eq2())
        x4 = frame_fields(d)[3]
        assert [str(c) for c in x4.coefficients] == ["0", "0", "0", "0", "-2/9*y2^(-5/3)"]

    def test_determinant_examples(self):
        assert frame_determinant(distribution_from_monge(flat())) == P("2")
        assert frame_determinant(distribution_from_monge(MongeEquation(P("0")))).is_zero()
        assert frame_determinant(distribution_from_monge(eq2())) == P("-2/9*y2^(-5/3)")

    def test_determinant_equals_hessian_catalog(self):
        for key in ("eq2", "flat", "dz13(1,1)", "dz13(10,9)", "eq1(0)",
                    "eq1(3/4)", "strazzullo"):
            m = get_equation(key)
            det = frame_determinant(distribution_from_monge(m))
            hess = genericity_hessian(m)
            assert det.equals(hess) or det.equals(-hess), key

    def test_determinant_reads_only_the_entries_it_computes(self):
        # X5's y2 and z entries are left zero: the expansion along X1's row
        # and then X4's never reads them, so the determinant is the whole
        # frame's, term for term
        random_monge = perfbench_module("workloads").random_monge
        rngs = [random.Random(f"frame:{seed}") for seed in range(12)]
        equations = [*(get_equation(k) for k in ("eq2", "flat", "dz13(1,1)", "dz13(10,9)",
                                                 "eq1(0)", "eq1(3/4)", "strazzullo")),
                     *(MongeEquation(P(random_monge(rng, rng.random() < 0.3)[0]))
                       for rng in rngs),
                     *(MongeEquation(P(t)) for t in ("x + y*y2", "0", "exp(y2)*z",
                                                     "ln(y2 + y1)*x", "y2^(1/3)*z^2 + y1^2"))]
        for m in equations:
            d = distribution_from_monge(m)
            rows = [list(f.coefficients) for f in frame_fields(d)]
            assert frame_determinant(d) == mongesym.fields._det(rows), m


class TestMembership:
    def test_basis_elements(self):
        d = distribution_from_monge(eq2())
        w = in_distribution(d.X1, d)
        assert str(w.alpha) == "1" and w.beta.is_zero()

    def test_reconstruction(self):
        d = distribution_from_monge(eq2())
        v = mul_expr(d.X1, P("3*y1")) + mul_expr(d.X2, P("x"))
        w = in_distribution(v, d)
        assert w is not None
        assert str(w.alpha) == "3*y1" and str(w.beta) == "x"

    def test_dy_not_in_distribution(self):
        d = distribution_from_monge(eq2())
        assert in_distribution(VectorField.coordinate(J20, "y"), d) is None


class TestSymmetry:
    def test_all_six_fields(self):
        d = distribution_from_monge(eq2())
        for name in (f"S{i}" for i in range(1, 7)):
            rep = is_symmetry(S[name], d)
            assert rep.ok, name
            assert len(rep.residuals) == 6

    def test_s3_bracket_with_x1(self):
        d = distribution_from_monge(eq2())
        b = lie_bracket(S["S3"], d.X1)
        w = in_distribution(b, d)
        assert w is not None and str(w.alpha) == "3*y1" and w.beta.is_zero()

    def test_dz_symmetry_of_flat(self):
        d = distribution_from_monge(flat())
        assert is_symmetry(VectorField.coordinate(J20, "z"), d).ok

    def test_dy_not_symmetry(self):
        d = distribution_from_monge(eq2())
        rep = is_symmetry(VectorField.coordinate(J20, "y"), d)
        assert not rep.ok
        assert str(rep.residuals[5]) == "1"

    def test_symmetry_closure_under_bracket(self):
        d = distribution_from_monge(eq2())
        for a, b in itertools.combinations(ALL_S, 2):
            assert is_symmetry(lie_bracket(a, b), d).ok


class TestClosedFormResiduals:
    """fields.symmetry_residuals equals its definition tuple for tuple: the
    membership residuals of both brackets, each built in full."""

    def test_s_fields_on_eq2(self):
        d = distribution_from_monge(eq2())
        for f in ALL_S:
            assert symmetry_residuals(f, d) == reference_symmetry_residuals(f, d)

    @pytest.mark.parametrize("key", ["eq2", "flat", "strazzullo", "eq1(0)", "eq1(3/4)",
                                     "dz13(5,4)", "dz13(10,9)"])
    def test_coordinate_fields_on_catalog_equations(self, key):
        d = distribution_from_monge(get_equation(key))
        for name in J20.coords:
            e = VectorField.coordinate(J20, name)
            assert symmetry_residuals(e, d) == reference_symmetry_residuals(e, d)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_fields_on_random_equations(self, seed):
        rng = random.Random(f"closed-form:{seed}")
        text, _ = perfbench_module("workloads").random_monge(rng, linear_in_y2=False)
        d = distribution_from_monge(MongeEquation(P(text)))
        fields = [VectorField(J20, tuple(random_expr(rng) if rng.random() < 0.8
                                         else Expr.zero() for _ in J20.coords))
                  for _ in range(4)]
        assert any(t.atoms for f in fields for e in f.coefficients for t in e.terms)
        for f in fields:
            assert symmetry_residuals(f, d) == reference_symmetry_residuals(f, d)

    def test_strazzullo_scaling_symmetry(self):
        d = distribution_from_monge(strazzullo())
        f = VectorField.from_strings(J20, {"x": "x", "y": "-1", "y1": "-1*y1",
                                           "y2": "-2*y2", "z": "z"})
        assert symmetry_residuals(f, d) == reference_symmetry_residuals(f, d)

    def test_residual_5_is_s_of_f_minus_d_zeta_plus_f_d_xi(self):
        # the reproducer of ROADMAP item 2: the one residual verify prints is
        # r5 = S(F) - D(zeta) + F*D(xi), zero in value; the zero test misses
        # it, so this print changes once that test is complete
        d = distribution_from_monge(MongeEquation(P("(y2 + y1^2)^(1/3)")))
        f = VectorField.from_strings(J20, {"x": "x", "y1": "-1*y1", "y2": "-2*y2",
                                           "z": "1/3*z"})
        res = symmetry_residuals(f, d)
        assert res == reference_symmetry_residuals(f, d)
        assert [r.is_zero() for r in res] == [True] * 5 + [False]
        assert str(res[5]) == ("-2/3*y1^2*(y1^2 + y2)^(-2/3) - 2/3*y2*(y1^2 + y2)^(-2/3)"
                               " + 2/3*(y1^2 + y2)^(1/3)")
        point = {"x": 0.7, "y": 0.3, "y1": 0.9, "y2": 1.4, "z": 0.5}
        assert abs(res[5].approx(point)) < 1e-12

    def test_is_symmetry_forms_no_bracket(self, monkeypatch):
        calls = []

        def spy(v, w):
            calls.append((v, w))
            return lie_bracket(v, w)

        monkeypatch.setattr(mongesym.fields, "lie_bracket", spy)
        d = distribution_from_monge(eq2())
        assert all(is_symmetry(f, d).ok for f in ALL_S)
        assert not is_symmetry(VectorField.coordinate(J20, "y"), d).ok
        assert calls == []

    def test_a_j2_field_is_a_chart_mismatch(self):
        d = distribution_from_monge(eq2())
        f = get_field("equiaffine2")
        assert f.chart == J2
        for check in (symmetry_residuals, is_symmetry):
            with pytest.raises(ChartMismatchError, match="J2 vs J20"):
                check(f, d)

    @pytest.mark.parametrize("equation", [eq2, flat, strazzullo])
    def test_membership_residuals_are_the_three_differences(self, equation):
        rng = random.Random(f"membership:{equation.__name__}")
        d = distribution_from_monge(equation())
        fields = [d.X1, d.X2, *ALL_S,
                  *(VectorField.coordinate(J20, name) for name in J20.coords),
                  *(VectorField(J20, tuple(random_expr(rng) for _ in J20.coords))
                    for _ in range(6))]
        for v in fields:
            assert membership_residuals(v, d) == reference_membership_residuals(v, d)


class TestJacobi:
    def test_on_frame_and_symmetries(self):
        d = distribution_from_monge(eq2())
        fields = [d.X1, d.X2] + ALL_S
        for u, v, w in itertools.combinations(fields, 3):
            total = (lie_bracket(u, lie_bracket(v, w))
                     + lie_bracket(v, lie_bracket(w, u))
                     + lie_bracket(w, lie_bracket(u, v)))
            assert total.is_zero()


class TestProjection:
    def test_center_projects_to_zero(self):
        assert project_to_j2(S["S6"]).is_zero()

    def test_s1_projection(self):
        p = project_to_j2(S["S1"])
        assert [str(c) for c in p.coefficients] == ["0", "x", "1", "0"]

    def test_z_dependence_rejected(self):
        v = VectorField.from_strings(J20, {"x": "z"})
        with pytest.raises(ProjectionError):
            project_to_j2(v)

    def test_atoms_survive_projection(self):
        text = "exp(x)*(y2 - 1/2*y1^2)^(2/3)"
        v = VectorField.from_strings(J20, {"y": text, "z": "z*exp(z)"})
        p = project_to_j2(v)
        assert p.coefficients[1] == parse(text, J2)
        assert all(c.is_zero() for i, c in enumerate(p.coefficients) if i != 1)

    def test_z_inside_an_atom_rejected(self):
        with pytest.raises(ProjectionError):
            project_to_j2(VectorField.from_strings(
                J20, {"y": "exp(x + z)*(y2 - 1/2*y1^2)^(2/3)"}))

    def test_chart_change_needs_a_shared_prefix(self):
        # every chart is a prefix of J20, so the projection keeps the
        # horizontal coefficients as they are; a chart that reorders the
        # coordinates cannot be built
        v = VectorField.from_strings(J20, {"x": "x*exp(y)", "y1": "y2^(1/3)", "z": "z"})
        assert project_to_j2(v).coefficients == v.coefficients[:4]
        with pytest.raises(ValueError, match="not a prefix"):
            Chart("swapped", ("y", "x"))

    def test_coherence_with_prolongation(self):
        gens = equiaffine_generators()
        for i in range(1, 6):
            projected = project_to_j2(S[f"S{i}"])
            prolonged = prolong_plane_field(*gens[f"equiaffine{i}"])
            assert all((a - b).is_zero() for a, b in
                       zip(projected.coefficients, prolonged.coefficients))

    def test_pushforward_preserves_brackets(self):
        for a, b in itertools.combinations(ALL_S, 2):
            left = project_to_j2(lie_bracket(a, b))
            right = lie_bracket(project_to_j2(a), project_to_j2(b))
            assert all((x - y).is_zero() for x, y in
                       zip(left.coefficients, right.coefficients))


class TestProlongation:
    def test_quadratic_generator(self):
        xi, eta = parse("y", PLANE), parse("0", PLANE)
        v = prolong_plane_field(xi, eta)
        assert [str(c) for c in v.coefficients] == ["y", "0", "-1*y1^2", "-3*y1*y2"]

    def test_shear_generator(self):
        v = prolong_plane_field(parse("0", PLANE), parse("x", PLANE))
        assert [str(c) for c in v.coefficients] == ["0", "x", "1", "0"]

    def test_translation(self):
        v = prolong_plane_field(parse("1", PLANE), parse("0", PLANE))
        assert [str(c) for c in v.coefficients] == ["1", "0", "0", "0"]

    def test_atoms_survive_prolongation(self):
        # xi = exp(x), eta = y^(1/3), prolonged by hand with
        # eta_k = Dx eta_(k-1) - y_k Dx xi
        v = prolong_plane_field(parse("exp(x)", PLANE), parse("y^(1/3)", PLANE))
        expected = VectorField.from_strings(J2, {
            "x": "exp(x)",
            "y": "y^(1/3)",
            "y1": "1/3*y^(-2/3)*y1 - y1*exp(x)",
            "y2": "1/3*y^(-2/3)*y2 - 2/9*y^(-5/3)*y1^2 - y1*exp(x) - 2*y2*exp(x)",
        })
        assert v == expected


class TestCatalogEquations:
    def test_eq1_coefficients(self):
        m = eq1(0)
        assert m.F == P("-1/2*y2^2 - 5/3*y1^2 - 1/2*y^2")
        m = eq1(Fraction(3, 4))
        assert m.F == P("-1/2*y2^2 - 5/3*y1^2 - 25/32*y^2")

    def test_dz13_coefficients(self):
        assert dz13(10, 9).F == P("y2^2 + 10*y1^2 + 9*y^2")

    def test_strazzullo_parses(self):
        m = strazzullo()
        assert not genericity_hessian(m).is_zero()

    def test_absent_coefficients_are_spelled_out_zeros(self):
        # a field and its JSON, which spells out every zero, are one field
        for coeffs in SYMMETRY_FIELDS.values():
            f = VectorField.from_strings(J20, coeffs)
            full = f.to_json()["coefficients"]
            assert set(full) == set(J20.coords) and "0" in full.values()
            assert VectorField.from_strings(J20, full) == f
            assert VectorField.from_strings(J20, {c: coeffs.get(c, "0")
                                                  for c in J20.coords}) == f

    def test_present_coefficients_are_still_checked(self):
        for bad in (None, 0, ["1"]):
            with pytest.raises(ExprError, match="the coefficient of y is .*, not a string"):
                VectorField.from_strings(J20, {"x": "1", "y": bad})
        with pytest.raises(ExprError, match="'w' is not a coordinate of chart J20"):
            VectorField.from_strings(J20, {"w": "1"})

    def test_serialization_roundtrip(self):
        for name, f in S.items():
            data = f.to_json()
            back = VectorField.from_strings(J20, data["coefficients"])
            assert all((a - b).is_zero() for a, b in
                       zip(f.coefficients, back.coefficients))


class TestCatalogFields:
    @pytest.fixture
    def parsed(self, monkeypatch):
        """(text, chart) of every parse made by the catalog and by
        VectorField.from_strings."""
        calls = []

        def counting(text, chart):
            calls.append((text, chart))
            return parse(text, chart)

        for module in (mongesym.catalog, mongesym.fields):
            monkeypatch.setattr(module, "parse", counting)
        return calls

    def test_miss_parses_nothing(self, parsed):
        for key in ("S7", "equiaffine6", "eq2", ""):
            with pytest.raises(CatalogKeyError):
                get_field(key)
        assert parsed == []

    def test_symmetry_key_parses_only_its_present_texts(self, parsed):
        # the absent y coefficient is zero without a parse
        f = get_field("S3")
        assert parsed == [(t, J20) for t in
                          ("y", "-1*y1^2", "-3*y1*y2", "1/2*y^2")]
        assert f == S["S3"]

    def test_equiaffine_key_parses_its_two_plane_texts(self, parsed):
        f = get_field("equiaffine2")
        assert parsed == [("x", PLANE), ("-1*y", PLANE)]
        assert f == prolong_plane_field(P("x", PLANE), -P("y", PLANE))
        assert f.chart == J2

    def test_tables_keep_the_catalog_values(self):
        x = Expr.coordinate("x")
        y = Expr.coordinate("y")
        zero = Expr.zero()
        one = Expr.constant(1)
        assert equiaffine_generators() == {
            "equiaffine1": (zero, x), "equiaffine2": (x, -y),
            "equiaffine3": (y, zero), "equiaffine4": (one, zero),
            "equiaffine5": (zero, one)}
        assert S["S2"] == VectorField(J20, (P("x"), -P("y"), P("-2*y1"),
                                            P("-3*y2"), Expr.zero()))
        assert field_keys() == ([f"S{i}" for i in range(1, 7)]
                                + [f"equiaffine{i}" for i in range(1, 6)])
