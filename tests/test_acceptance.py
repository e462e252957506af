"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the checklist lines.
Heavy solver runs go through a module memo keyed by (equation label, degree),
so the fixtures and the reproduce checklist share one run of each; the whole
module is budgeted to finish well inside ten minutes on a laptop.
"""

import json
import os
import time
from fractions import Fraction

import pytest

from mongesym.catalog import (dz13, eq2, flat, get_equation, strazzullo,
                              symmetry_fields)
from mongesym.charts import J20
from mongesym.fields import (VectorField, distribution_from_monge,
                             frame_determinant, genericity_hessian,
                             is_symmetry, project_to_j2,
                             prolong_plane_field)
from mongesym.liealg import (analyze, close_under_bracket, jacobi_holds)
from mongesym.parser import parse
from mongesym.solver import (AnsatzSpec, build_ansatz, compile_operator,
                             determining_equations, maximality_argument,
                             nullspace, symmetry_dimension)

from helpers import (brute_force_symmetry_space, equiaffine_generators,
                     flow_commutator, is_antisymmetric, presentation, same_span,
                     zero_field)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CATALOG_INSTANCES = ("eq2", "flat", "eq1(0)", "eq1(1)", "dz13(1,1)",
                     "dz13(10,9)", "dz13(5,4)", "strazzullo")

S = symmetry_fields()
ALL_S = [S[f"S{i}"] for i in range(1, 7)]


# (equation label, degree) -> SolveReport of the default ansatz
_SOLVES = {}


def solve_once(equation, degree, label):
    key = (label, degree)
    if key not in _SOLVES:
        _SOLVES[key] = symmetry_dimension(equation, degree, equation_label=label)
    return _SOLVES[key]


def shared_symmetry_dimension(m, max_degree, **kwargs):
    """symmetry_dimension through the memo when only a label is given."""
    if set(kwargs) != {"equation_label"}:
        return symmetry_dimension(m, max_degree, **kwargs)
    return solve_once(m, max_degree, kwargs["equation_label"])


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def p6():
    return close_under_bracket(ALL_S, cap=8)


@pytest.fixture(scope="module")
def solve_flat():
    return solve_once(flat(), 7, "flat")


@pytest.fixture(scope="module")
def solve_ap():
    return solve_once(dz13(10, 9), 5, "dz13(10,9)")


@pytest.fixture(scope="module")
def solve_eq2():
    return solve_once(eq2(), 3, "eq2")


@pytest.fixture(scope="module")
def solve_eq2_offsets():
    # offset blocks share rows: 504 of its 1,543 rows take entries from two
    # or more of the three blocks
    return symmetry_dimension(eq2(), 3, offsets=(0, Fraction(1, 3), Fraction(2, 3)),
                              equation_label="eq2")


@pytest.fixture(scope="module")
def solve_seven():
    return solve_once(dz13(5, 4), 3, "dz13(5,4)")


def test_criterion_1_symmetry_verification():
    t0 = time.perf_counter()
    d = distribution_from_monge(eq2())
    residual_count = 0
    ok = True
    for f in ALL_S:
        rep = is_symmetry(f, d)
        residual_count += len(rep.residuals)
        ok = ok and rep.ok and all(r.is_zero() for r in rep.residuals)
    elapsed = time.perf_counter() - t0
    report("criterion 1: six symmetry fields verify with all residuals zero",
           ok and residual_count == 36 and elapsed < 5.0,
           f"{residual_count} residuals, {elapsed:.2f}s")


def test_criterion_2_structure(p6):
    t0 = time.perf_counter()
    with open(os.path.join(GOLDEN, "bracket_table_eq2.json")) as fh:
        golden = json.load(fh)
    table = {f"[{i},{j}]": [str(c) for c in p6.constants[i][j]]
             for i in range(6) for j in range(6)}
    table_ok = table == golden
    c = p6.constants
    relations_ok = (c[1][0] == (2, 0, 0, 0, 0, 0)          # [S2,S1] = 2 S1
                    and c[0][2] == (0, 1, 0, 0, 0, 0)      # [S1,S3] = S2
                    and c[1][2] == (0, 0, -2, 0, 0, 0)     # [S2,S3] = -2 S3
                    and c[3][4] == (0, 0, 0, 0, 0, 1)      # [S4,S5] = S6
                    and all(c[5][j] == (0,) * 6 for j in range(6)))
    # independent approximate cross-check of the whole table by flow commutators
    point = {"x": 0.4, "y": 0.8, "y1": 0.35, "y2": 1.7, "z": 0.6}
    flow_ok = True
    for i in range(6):
        for j in range(i + 1, 6):
            approx = flow_commutator(ALL_S[i], ALL_S[j], point)
            combo = zero_field()
            for k, coeff in enumerate(c[i][j]):
                if coeff:
                    combo = combo + ALL_S[k].scale(coeff)
            exact = [e.approx(point) for e in combo.coefficients]
            for a, e in zip(approx, exact):
                if abs(a - e) > 5e-3 * max(1.0, abs(e)):
                    flow_ok = False
    rep = analyze(p6)
    verdict_ok = (rep.verdict == "sl2_semidirect_heisenberg"
                  and rep.radical_indices == [3, 4, 5])
    elapsed = time.perf_counter() - t0
    report("criterion 2: golden bracket table, flow cross-check, recognition",
           table_ok and relations_ok and flow_ok and verdict_ok and elapsed < 5.0,
           f"verdict={rep.verdict}, {elapsed:.2f}s")


def test_criterion_3_projection():
    t0 = time.perf_counter()
    projections = [project_to_j2(f) for f in ALL_S]
    kernel_ok = projections[5].is_zero() and all(
        not p.is_zero() for p in projections[:5])
    # the kernel is exactly the span of the sixth field: any combination with
    # a nonzero sixth-free part projects onto a nonzero image because the
    # first five images are the (independent) prolonged generators
    gens = equiaffine_generators()
    prolonged = [prolong_plane_field(*gens[f"equiaffine{i}"]) for i in range(1, 6)]
    images_ok = all(
        all((a - b).is_zero() for a, b in zip(p.coefficients, q.coefficients))
        for p, q in zip(projections[:5], prolonged))
    from mongesym.liealg import express_in_basis
    independent_ok = all(
        express_in_basis(prolonged[i], prolonged[:i] + prolonged[i + 1:]) is None
        for i in range(5))
    elapsed = time.perf_counter() - t0
    report("criterion 3: projection kernel is the center; images are the five "
           "equiaffine prolongations",
           kernel_ok and images_ok and independent_ok and elapsed < 2.0,
           f"{elapsed:.2f}s")


def test_criterion_4_genericity():
    t0 = time.perf_counter()
    hess = genericity_hessian(eq2())
    hess_ok = hess == parse("-2/9*y2^(-5/3)", J20)
    frame_ok = True
    for key in CATALOG_INSTANCES:
        m = get_equation(key)
        det = frame_determinant(distribution_from_monge(m))
        h = genericity_hessian(m)
        if not (det.equals(h) or det.equals(-h)):
            frame_ok = False
    elapsed = time.perf_counter() - t0
    report("criterion 4: hessian value and frame determinant match (all catalog "
           "equations)", hess_ok and frame_ok and elapsed < 2.0,
           f"hessian={hess}, {elapsed:.2f}s")


def test_criterion_5_dimension_landscape(solve_flat, solve_ap, solve_eq2, solve_seven,
                                         solve_eq2_offsets):
    t0 = time.perf_counter()
    flat_ok = (solve_flat.stabilized and solve_flat.dimension == 14
               and solve_flat.verified)
    ap_ok = (solve_ap.stabilized and solve_ap.dimension == 14
             and solve_ap.verified)
    eq2_ok = (solve_eq2.table[2]["dimension"] == 6 and solve_eq2.stabilized
              and solve_eq2.dimension == 6 and solve_eq2.verified)
    seven_ok = (solve_seven.stabilized and solve_seven.dimension == 7
                and solve_seven.verified)
    golden_ok = True
    for label, rep in (("flat", solve_flat), ("dz13_10_9", solve_ap),
                       ("eq2", solve_eq2), ("dz13_5_4", solve_seven),
                       ("eq2_offsets", solve_eq2_offsets)):
        with open(os.path.join(GOLDEN, f"solve_{label}.json")) as fh:
            golden = json.load(fh)
        if rep.to_json() != golden:
            golden_ok = False
    elapsed = time.perf_counter() - t0
    report("criterion 5: dimension landscape 14 (flat), 14 (dz13(10,9)), "
           "6 (eq2 at degree 2), 7 (dz13(5,4)); golden reports byte-stable",
           flat_ok and ap_ok and eq2_ok and seven_ok and golden_ok,
           f"flat dims {[r['dimension'] for r in solve_flat.table]}, "
           f"check {elapsed:.2f}s (solves timed in fixtures)")


@pytest.mark.xfail(
    strict=True,
    reason="the 7-dimensional symmetry algebra of dz13(1,1) contains fields "
           "with exponential rates equal to roots of t^4 - t^2 + 1, which are "
           "irrational, so no exact rational polynomial/exponential ansatz "
           "contains them; the exact solver finds only the 3-dimensional "
           "rational subalgebra. The rational-root instance dz13(5,4) "
           "realizes the 7-dimensional case exactly (see criterion 5).")
def test_criterion_5_dz13_1_1_literal():
    r = symmetry_dimension(dz13(1, 1), 4, equation_label="dz13(1,1)")
    print(f"[FAIL-EXPECTED] criterion 5 (literal dz13(1,1) item) -- exact-class "
          f"dimension table {[row['dimension'] for row in r.table]}, not 7")
    assert r.stabilized and r.dimension == 7


def test_criterion_6_maximality(p6, solve_seven):
    t0 = time.perf_counter()
    p7 = close_under_bracket(solve_seven.basis, cap=10)
    extra = solve_once(dz13(13, 36), 2, "dz13(13,36)")
    p7b = close_under_bracket(extra.basis, cap=10)
    rep = maximality_argument(p6, [("dz13(5,4)", p7), ("dz13(13,36)", p7b)])
    elapsed = time.perf_counter() - t0
    report("criterion 6: computed 7-dimensional algebras are solvable, the "
           "6-dimensional one is not",
           (not rep.six_dim_solvable)
           and all(c["solvable"] for c in rep.candidates)
           and rep.verdict.endswith("maximal") and elapsed < 10.0,
           f"{elapsed:.2f}s")


def test_criterion_7_property_suites(p6, solve_flat, solve_eq2, solve_seven):
    # Jacobi on every computed presentation
    presentations = [p6,
                     close_under_bracket(solve_eq2.basis, cap=8),
                     close_under_bracket(solve_seven.basis, cap=10)]
    jacobi_ok = all(is_antisymmetric(p.tensor) and jacobi_holds(p.tensor)
                    for p in presentations)
    report("criterion 7a: antisymmetry and Jacobi hold on computed presentations",
           jacobi_ok)

    # oracle equivalence at degrees 0 and 1 on every catalog equation
    oracle_ok = True
    for key in CATALOG_INSTANCES:
        m = get_equation(key)
        for degree in (0, 1):
            dim_o, null_o, _ = brute_force_symmetry_space(m, degree)
            system = determining_equations(
                compile_operator(distribution_from_monge(m)),
                build_ansatz(AnsatzSpec(degree)))
            table, null_s = nullspace(system)
            if table[-1]["dimension"] != dim_o or not same_span(null_s, null_o):
                oracle_ok = False
    report("criterion 7b: solver agrees with the brute-force oracle at "
           "degrees 0 and 1 on every catalog equation", oracle_ok)

    # determinism: byte-identical reports across two runs
    a = json.dumps(symmetry_dimension(eq2(), 2, equation_label="eq2").to_json())
    b = json.dumps(symmetry_dimension(eq2(), 2, equation_label="eq2").to_json())
    report("criterion 7c: byte-identical solve reports across runs", a == b)

    # negative controls
    d = distribution_from_monge(eq2())
    tampered_field = S["S3"] + VectorField.from_strings(J20, {"y1": "y1"})
    control_1 = not is_symmetry(tampered_field, d).ok
    c = [[list(map(Fraction, p6.constants[i][j])) for j in range(6)] for i in range(6)]
    c[0][1] = [Fraction(v) for v in (0, 0, 1, 0, 0, 0)]
    c[1][0] = [-v for v in c[0][1]]
    tampered_constants = tuple(tuple(tuple(c[i][j]) for j in range(6))
                               for i in range(6))
    control_2 = not jacobi_holds(presentation(tampered_constants).tensor)
    report("criterion 7d: negative controls (perturbed field fails verification, "
           "perturbed constants fail Jacobi)", control_1 and control_2)


def test_criterion_8_grammar_edge():
    t0 = time.perf_counter()
    m = strazzullo()
    parsed = parse("1 + exp(-4/3*y)*(y2 - 1/2*y1^2)^(2/3)", J20)
    parse_ok = parsed.equals(m.F)
    hess = genericity_hessian(m)
    hess_ok = not hess.is_zero()
    fd_ok = True
    eps = 1e-5
    for k in range(3):
        pt = {"x": 1.0, "y": 0.5, "y1": 0.25, "y2": 2.0 + k, "z": 1.0}
        up = dict(pt); up["y2"] += eps
        dn = dict(pt); dn["y2"] -= eps
        approx = (m.F.approx(up) - m.F.approx(dn)) / (2 * eps)
        exact = m.F.diff("y2").approx(pt)
        if abs(approx - exact) > 1e-6 * max(1.0, abs(exact)):
            fd_ok = False
    elapsed = time.perf_counter() - t0
    report("criterion 8: exp/nested-power equation parses, hessian nonzero, "
           "derivative matches finite differences at 3 points",
           parse_ok and hess_ok and fd_ok and elapsed < 2.0,
           f"hessian={hess}, {elapsed:.2f}s")


def test_reproduce_cli_schema_and_exit(monkeypatch):
    """The reproduce command runs the same checklist and exits zero; its
    solves come from the memo the fixtures filled."""
    import jsonschema
    import mongesym.cli
    monkeypatch.setattr(mongesym.solver, "symmetry_dimension",
                        shared_symmetry_dimension)
    timer = mongesym.cli.StageTimer()
    items, notes = mongesym.cli.run_reproduction(timer)
    schema_path = os.path.join(os.path.dirname(__file__), "..", "src",
                               "mongesym", "schemas", "reproduce.schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    payload = {"items": items, "notes": notes,
               "all_pass": all(i["pass"] for i in items),
               "stage_timings": timer.rounded()}
    jsonschema.validate(payload, schema)
    report("reproduction checklist: every item passes",
           payload["all_pass"], f"{len(items)} items, {len(notes)} notes")


def test_reproduce_out_writes_the_checklist(monkeypatch, capsys, tmp_path):
    """reproduce --out writes exactly what plain reproduce prints, and
    prints nothing itself."""
    import mongesym.cli
    monkeypatch.setattr(mongesym.solver, "symmetry_dimension",
                        shared_symmetry_dimension)
    assert mongesym.cli.main(["reproduce"]) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "checklist.txt"
    assert mongesym.cli.main(["reproduce", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == printed
    assert printed.endswith("all items pass\n")


def test_reproduce_fails_on_a_tampered_field(monkeypatch, capsys):
    """Negative control: with S3 replaced by S3 + y1 d/dy1 the checklist
    fails its six-field verification item and reproduce exits 1."""
    import mongesym.catalog
    import mongesym.cli
    monkeypatch.setattr(mongesym.solver, "symmetry_dimension",
                        shared_symmetry_dimension)
    tampered = dict(S, S3=S["S3"] + VectorField.from_strings(J20, {"y1": "y1"}))
    monkeypatch.setattr(mongesym.catalog, "symmetry_fields", lambda: tampered)
    assert mongesym.cli.main(["reproduce", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    item = payload["items"][0]
    assert item["item"] == "six-field symmetry verification (36 residuals)"
    assert not item["pass"] and item["detail"] == "5/6 fields pass"
    assert not payload["all_pass"]


def test_reproduce_fails_on_a_moved_projection_kernel(monkeypatch, capsys):
    """Negative control: a projection whose kernel is S5 instead of the
    center S6 fails exactly the projection item, and reproduce exits 1."""
    import mongesym.cli
    monkeypatch.setattr(mongesym.solver, "symmetry_dimension",
                        shared_symmetry_dimension)
    projection = mongesym.cli.projection_analysis

    def moved(p):
        return dict(projection(p), kernel_indices=[4])

    monkeypatch.setattr(mongesym.cli, "projection_analysis", moved)
    assert mongesym.cli.main(["reproduce", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [i["item"] for i in payload["items"] if not i["pass"]] == [
        "projection kernel is the center; images are the five prolongations"]
    assert not payload["all_pass"]
