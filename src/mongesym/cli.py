"""Command-line front end.

Subcommands: genericity, verify, structure, solve, reproduce, catalog.
Exit codes: 0 success, 1 verification or solve mismatch, 2 usage/parse error.
All reports are deterministic byte-for-byte for identical inputs and flags
(stage timings are excluded unless --timings is given).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import catalog
from .charts import J20
from .expr import Expr, ExprError, LnAtom, PowerAtom, number_text, poly_text
from .fields import (MongeEquation, StageTimer, VectorField, distribution_from_monge,
                     frame_determinant, genericity_hessian, is_symmetry,
                     project_to_j2, ProjectionError)
from .parser import parse, quoted

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _load_equation(source: str) -> MongeEquation:
    try:
        return catalog.get_equation(source)
    except catalog.CatalogParameterError as exc:
        raise UsageError(exc.args[0]) from None
    except catalog.CatalogKeyError:
        pass
    try:
        return MongeEquation(parse(source, J20))
    except ExprError as exc:
        raise UsageError(f"cannot interpret equation {quoted(source)}: {exc}") from None


def _load_field(source: str) -> VectorField:
    """A catalog key, field JSON or @file.json, as a field on J20."""
    try:
        f = catalog.get_field(source)
    except catalog.CatalogKeyError:
        return _json_field(source)
    if f.chart != J20:
        raise UsageError(f"field {quoted(source)} is not on chart J20")
    return f


def _json_field(source: str) -> VectorField:
    text = source
    if source.startswith("@"):
        try:
            with open(source[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read the field file: {exc}") from None
    if not text.lstrip().startswith("{"):
        raise UsageError(f"cannot interpret field {quoted(source)} "
                         "(not a catalog key and not JSON)")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past Python's
        # digit limit; RecursionError, arrays or objects nested too deep
        raise UsageError(f"bad field JSON {quoted(source)}: {exc}") from None
    if data.get("chart") != "J20":
        raise UsageError(f"field {quoted(source)} is not on chart J20")
    unknown = data.keys() - {"chart", "coefficients"}
    if unknown:
        raise UsageError(f"bad field JSON {quoted(source)}: unknown key {quoted(min(unknown))}")
    if "coefficients" not in data:
        raise UsageError(f"bad field JSON {quoted(source)}: no \"coefficients\" key")
    coefficients = data["coefficients"]
    if not isinstance(coefficients, dict):
        raise UsageError(f"bad field JSON {quoted(source)}: coefficients must be an object")
    try:
        return VectorField.from_strings(J20, coefficients)
    except ExprError as exc:
        raise UsageError(f"bad field JSON {quoted(source)}: {exc}") from None


def _fractions_list(text: str):
    out = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            out.append(Fraction(part))
        except ZeroDivisionError:
            raise UsageError(f"bad rational list {quoted(text)}: zero denominator") from None
        except ValueError as exc:
            # Fraction's own message, with the part it repeats quoted short
            reason = str(exc).replace(repr(part), quoted(part))
            raise UsageError(f"bad rational list {quoted(text)}: {reason}") from None
    return tuple(out)


def _emit(payload, args, renderer, timer=None):
    if timer is not None and args.timings:
        payload["stage_timings"] = timer.rounded()
    if args.json:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = renderer(payload)
        if not text.endswith("\n"):
            text += "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write the report: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

def _vanishing_description(hessian: Expr) -> str:
    """Where a nonzero one-term Hessian vanishes or is singular: off the
    coordinates with a positive exponent, away from those with a negative
    one and from the zero set of each power base.  A one-term base is named
    by its coordinates, a multi-term base by its printed form.  An ln atom
    vanishes where its argument is 1, so it gets no closed description."""
    if hessian.is_zero():
        return "not generic: the second y2-derivative vanishes identically"
    t = hessian.terms[0]
    if len(hessian.terms) > 1 or any(isinstance(a, LnAtom) for a in t.atoms):
        return "generic off the zero locus of the printed expression"
    coords = J20.coords
    positive = sorted(c for c, e in zip(coords, t.monomial) if e > 0)
    excluded = {c for c, e in zip(coords, t.monomial) if e < 0}
    for a in t.atoms:
        if isinstance(a, PowerAtom):
            if len(a.base.terms) == 1:
                excluded.update(c for c, e in zip(coords, a.base.terms[0].monomial) if e)
            else:
                excluded.add(poly_text(a.base))
    if not positive and not excluded:
        return "generic everywhere" + ("" if t.atoms else " (constant nonzero)")
    pieces = []
    if excluded:
        pieces.append("away from " + " = 0, ".join(sorted(excluded)) + " = 0")
    if positive:
        pieces.append("off " + " = 0, ".join(positive) + " = 0")
    return "generic " + " and ".join(pieces)


def _determinant_sign(det: Expr, hess: Expr) -> int:
    """s = 1 or -1 when the frame determinant is s * Hessian, else 0."""
    if det.equals(hess):
        return 1
    return -1 if det.equals(-hess) else 0


def cmd_genericity(args) -> int:
    timer = StageTimer()
    m = _load_equation(args.equation)
    timer.lap("load_s")
    det = frame_determinant(distribution_from_monge(m), timer)
    hess = genericity_hessian(m)
    sign = _determinant_sign(det, hess)
    timer.lap("determinant_s")
    payload = {
        "equation": args.equation,
        "hessian": str(hess),
        "frame_determinant": str(det),
        "determinant_matches_hessian_up_to_sign": sign != 0,
        "sign": sign,
        "generic": not hess.is_zero(),
        "locus": _vanishing_description(hess),
    }
    timer.lap("report_s")

    def render(p):
        return (f"equation: {p['equation']}\n"
                f"d2F/dy2^2 = {p['hessian']}\n"
                f"frame determinant = {p['frame_determinant']}\n"
                f"determinant = ({'+' if p['sign'] >= 0 else '-'}1) * hessian\n"
                f"verdict: {p['locus']}")

    _emit(payload, args, render, timer)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    timer = StageTimer()
    d = distribution_from_monge(_load_equation(args.equation))
    results = []
    all_ok = True
    for name in args.fields or catalog.SYMMETRY_FIELDS:
        f = _load_field(name)
        timer.lap("load_s")
        rep = is_symmetry(f, d)
        timer.lap("residuals_s")
        all_ok = all_ok and rep.ok
        results.append({
            "field": name,
            "symmetry": rep.ok,
            "residuals": [str(r) for r in rep.residuals],
        })
        timer.lap("report_s")
    payload = {"equation": args.equation, "fields": results, "all_pass": all_ok}

    def render(p):
        lines = [f"equation: {p['equation']}"]
        for r in p["fields"]:
            lines.append(f"  {r['field']}: {'symmetry' if r['symmetry'] else 'NOT a symmetry'}")
            if not r["symmetry"]:
                for i, res in enumerate(r["residuals"]):
                    if res != "0":
                        lines.append(f"    residual[{i}] = {res}")
        lines.append("all pass" if p["all_pass"] else "some fields fail")
        return "\n".join(lines)

    _emit(payload, args, render, timer)
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def bracket_table(p) -> dict:
    """The nonzero brackets "[i,j]", i < j, as coordinates in the closed
    basis, read off the presentation's integer tensor over its denominator."""
    n, table = p.dimension, {}
    for i in range(n):
        for j in range(i + 1, n):
            row = dict(p.tensor[i][j])
            if row:
                table[f"[{i},{j}]"] = [number_text(Fraction(row[k], p.den))
                                       if k in row else "0" for k in range(n)]
    return table


def projection_analysis(p):
    """Kernel of the pushforward to J2 and the match against the prolonged
    plane generators, for presentations whose fields project."""
    from .liealg import express_in_basis
    try:
        images = [project_to_j2(b) for b in p.basis]
    except ProjectionError as exc:
        return {"projectable": False, "reason": str(exc)}
    prolonged = [catalog.get_field(key) for key in catalog.EQUIAFFINE]
    kernel = [i for i, img in enumerate(images) if img.is_zero()]
    matches = []
    for img in images:
        coords = express_in_basis(img, prolonged)
        matches.append(None if coords is None else [number_text(c) for c in coords])
    return {
        "projectable": True,
        "kernel_indices": kernel,
        "images_in_equiaffine_prolongations": matches,
    }


def cmd_structure(args) -> int:
    if args.cap < 0:
        raise UsageError("--cap must be non-negative")
    from .liealg import ClosureCapExceeded, analyze, close_under_bracket
    timer = StageTimer()
    d = distribution_from_monge(_load_equation(args.equation))
    names = args.fields or list(catalog.SYMMETRY_FIELDS)
    fields = []
    for name in names:
        f = _load_field(name)
        timer.lap("load_s")
        if not is_symmetry(f, d).ok:
            sys.stderr.write(f"field {quoted(name)} is not a symmetry of "
                             f"{quoted(args.equation)}\n")
            return EXIT_MISMATCH
        timer.lap("symmetry_check_s")
        fields.append(f)
    closure = {}
    try:
        p = close_under_bracket(fields, cap=args.cap, counts=closure)
    except ClosureCapExceeded as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_MISMATCH
    timer.lap("closure_s")
    report = analyze(p)
    timer.lap("analyze_s")
    projection = projection_analysis(p)
    timer.lap("projection_s")
    payload = {
        "equation": args.equation,
        "input_fields": names,
        "dimension": p.dimension,
        "bracket_table": bracket_table(p),
        "structure": report.to_json(),
        "projection": projection,
    }
    if args.timings:
        payload["closure"] = closure

    def render(pl):
        lines = [f"equation: {pl['equation']}",
                 f"dimension: {pl['dimension']}"]
        lines.append("bracket table (nonzero, coordinates in the closed basis):")
        for k, v in pl["bracket_table"].items():
            lines.append(f"  {k} -> ({', '.join(v)})")
        s = pl["structure"]
        lines.append(f"center: {s['center']}")
        lines.append(f"derived series dims: {s['derived_dims']}")
        lines.append(f"lower central series dims: {s['lcs_dims']}")
        lines.append(f"solvable: {s['solvable']}  nilpotent: {s['nilpotent']}")
        lines.append(f"killing rank: {s['killing']['rank']}  signature: {s['killing']['signature']}")
        lines.append(f"radical: {s['radical']}")
        lines.append(f"verdict: {s['verdict']}")
        pr = pl["projection"]
        if pr.get("projectable"):
            lines.append(f"projection kernel indices: {pr['kernel_indices']}")
            lines.append("projections in prolonged equiaffine basis: "
                         + json.dumps(pr["images_in_equiaffine_prolongations"]))
        else:
            lines.append(f"projection: undefined ({pr.get('reason')})")
        return "\n".join(lines)

    _emit(payload, args, render, timer)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    from . import solver
    m = _load_equation(args.equation)
    offsets = _fractions_list(args.offsets) if args.offsets else (Fraction(0),)
    rates = _fractions_list(args.rates) if args.rates else None
    try:
        report = solver.symmetry_dimension(m, args.degree, offsets=offsets, rates=rates,
                                           equation_label=args.equation)
    except solver.AnsatzError as exc:
        raise UsageError(str(exc)) from None
    except ExprError as exc:
        sys.stderr.write(f"solve failed: {exc}\n")
        return EXIT_MISMATCH
    if not args.json:
        for row in report.table:
            sys.stderr.write(f"degree {row['degree']}: dimension {row['dimension']} "
                             f"({row['unknowns']} unknowns, {row['rows']} rows)\n")
    payload = report.to_json(include_timings=args.timings)

    def render(_):
        return report.to_text()

    _emit(payload, args, render)
    return EXIT_OK if report.verified else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

# The frozen bracket_table of the six symmetry generators.
GOLDEN_BRACKET_TABLE = {
    "[0,1]": ["-2", "0", "0", "0", "0", "0"],
    "[0,2]": ["0", "1", "0", "0", "0", "0"],
    "[0,3]": ["0", "0", "0", "0", "-1", "0"],
    "[1,2]": ["0", "0", "-2", "0", "0", "0"],
    "[1,3]": ["0", "0", "0", "-1", "0", "0"],
    "[1,4]": ["0", "0", "0", "0", "1", "0"],
    "[2,4]": ["0", "0", "0", "-1", "0", "0"],
    "[3,4]": ["0", "0", "0", "0", "0", "1"],
}

# The frozen projection_analysis of the six symmetry generators: S1..S5 go
# onto the five prolonged equiaffine generators and the center S6 onto zero.
GOLDEN_PROJECTION = {
    "projectable": True,
    "kernel_indices": [5],
    "images_in_equiaffine_prolongations": [
        ["1" if t == i else "0" for t in range(5)] for i in range(5)] + [["0"] * 5],
}


def run_reproduction(timer: StageTimer):
    """Execute the whole verification checklist; returns (items, notes).
    The timer gets one lap per checklist section."""
    from . import solver
    from .liealg import ClosureCapExceeded, analyze, close_under_bracket
    items = []
    notes = []

    def check(name, ok, detail=""):
        items.append({"item": name, "pass": bool(ok), "detail": detail})

    fields = list(catalog.symmetry_fields().values())
    m2 = catalog.eq2()
    d2 = distribution_from_monge(m2)

    reports = [is_symmetry(f, d2) for f in fields]
    check("six-field symmetry verification (36 residuals)",
          all(r.ok for r in reports),
          f"{sum(r.ok for r in reports)}/6 fields pass")
    timer.lap("symmetry_s")

    p6 = None
    try:
        p6 = close_under_bracket(fields, cap=8)
    except ClosureCapExceeded:
        check("bracket table and recognition", False, "closure exceeded cap")
    if p6 is not None:
        rep6 = analyze(p6)
        check("bracket table matches the frozen table",
              bracket_table(p6) == GOLDEN_BRACKET_TABLE)
        check("recognition: sl2 semidirect heisenberg with radical = last three",
              rep6.verdict == "sl2_semidirect_heisenberg"
              and rep6.radical_indices == [3, 4, 5]
              and rep6.center_indices == [5],
              f"verdict={rep6.verdict}")
        check("projection kernel is the center; images are the five prolongations",
              projection_analysis(p6) == GOLDEN_PROJECTION)
    timer.lap("structure_s")

    hess = genericity_hessian(m2)
    check("genericity hessian of the cubic-root equation",
          str(hess) == "-2/9*y2^(-5/3)", str(hess))
    frame_ok = True
    for key in ("eq2", "flat", "dz13(1,1)", "dz13(10,9)", "eq1(0)", "strazzullo"):
        mm = catalog.get_equation(key)
        if not _determinant_sign(frame_determinant(distribution_from_monge(mm)),
                                 genericity_hessian(mm)):
            frame_ok = False
    check("frame determinant equals the hessian up to sign (catalog equations)",
          frame_ok)
    timer.lap("genericity_s")

    sr_flat = solver.symmetry_dimension(catalog.flat(), 7, equation_label="flat")
    check("flat equation: stabilized symmetry dimension 14",
          sr_flat.stabilized and sr_flat.dimension == 14 and sr_flat.verified,
          f"dims {[r['dimension'] for r in sr_flat.table]}")
    sr_ap = solver.symmetry_dimension(catalog.dz13(10, 9), 5, equation_label="dz13(10,9)")
    check("dz13(10,9) (arithmetic-progression roots): stabilized dimension 14",
          sr_ap.stabilized and sr_ap.dimension == 14 and sr_ap.verified,
          f"dims {[r['dimension'] for r in sr_ap.table]}")
    sr_7 = solver.symmetry_dimension(catalog.dz13(5, 4), 3, equation_label="dz13(5,4)")
    check("dz13(5,4) (rational non-progression roots): stabilized dimension 7",
          sr_7.stabilized and sr_7.dimension == 7 and sr_7.verified,
          f"dims {[r['dimension'] for r in sr_7.table]}")
    sr_eq2 = solver.symmetry_dimension(m2, 3, equation_label="eq2")
    check("cubic-root equation: dimension 6 at degree 2, stabilized at 3",
          sr_eq2.table[2]["dimension"] == 6 and sr_eq2.stabilized
          and sr_eq2.dimension == 6 and sr_eq2.verified,
          f"dims {[r['dimension'] for r in sr_eq2.table]}")
    sr_11 = solver.symmetry_dimension(catalog.dz13(1, 1), 2, equation_label="dz13(1,1)")
    notes.append(
        "dz13(1,1): exact-class symmetry dimension "
        f"{sr_11.dimension}; the full 7-dimensional algebra has exponential "
        "fields with irrational rates (roots of t^4 - t^2 + 1), outside any "
        "exact polynomial/exponential ansatz over the rationals; "
        "the rational-root instance dz13(5,4) exhibits the 7-dimensional case exactly")
    timer.lap("solve_s")

    if p6 is not None and sr_7.verified and len(sr_7.basis) == 7:
        try:
            p7 = close_under_bracket(sr_7.basis, cap=10)
            p7b = close_under_bracket(
                solver.symmetry_dimension(catalog.dz13(13, 36), 2,
                                          equation_label="dz13(13,36)").basis, cap=10)
            mrep = solver.maximality_argument(p6, [("dz13(5,4)", p7), ("dz13(13,36)", p7b)])
            check("maximality: 7-dimensional algebras solvable, 6-dimensional not",
                  mrep.verdict.endswith("maximal"), mrep.verdict)
        except (ClosureCapExceeded, ValueError) as exc:
            check("maximality: 7-dimensional algebras solvable, 6-dimensional not",
                  False, str(exc))
    timer.lap("maximality_s")

    st = catalog.strazzullo()
    h = genericity_hessian(st)
    fd_ok = not h.is_zero()
    pts = [{"x": 1.0, "y": 0.5, "y1": 0.25, "y2": 2.0 + k, "z": 1.0} for k in range(3)]
    eps = 1e-5
    for pt in pts:
        up = dict(pt); up["y2"] += eps
        dn = dict(pt); dn["y2"] -= eps
        approx = (st.F.approx(up) - st.F.approx(dn)) / (2 * eps)
        exact = st.F.diff("y2").approx(pt)
        if abs(approx - exact) > 1e-6 * max(1.0, abs(exact)):
            fd_ok = False
    check("grammar edge: exp/power equation parses, hessian nonzero, "
          "derivative matches finite differences", fd_ok, str(h))
    timer.lap("grammar_s")
    return items, notes


def cmd_reproduce(args) -> int:
    timer = StageTimer()
    items, notes = run_reproduction(timer)
    ok = all(i["pass"] for i in items)
    payload = {"items": items, "notes": notes, "all_pass": ok}

    def render(p):
        lines = [f"[{'PASS' if i['pass'] else 'FAIL'}] {i['item']}"
                 + (f" ({i['detail']})" if i["detail"] else "") for i in p["items"]]
        lines += [f"[NOTE] {n}" for n in p["notes"]]
        lines.append("all items pass" if p["all_pass"] else "some items FAILED")
        return "\n".join(lines)

    _emit(payload, args, render, timer)
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    payload = {
        "equations": {
            "eq2": str(catalog.eq2()),
            "flat": str(catalog.flat()),
            "eq1(I)": "z' = -1/2*(y2^2 + 10/3*y1^2 + (1 + I^2)*y^2)  [rational I]",
            "dz13(r1,r2)": "z' = y2^2 + r1*y1^2 + r2*y^2  [rational r1, r2]",
            "strazzullo": str(catalog.strazzullo()),
        },
        "fields": {k: catalog.get_field(k).to_json()
                   for k in catalog.field_keys()},
    }

    def render(p):
        lines = ["equations:"]
        for k, v in p["equations"].items():
            lines.append(f"  {k}: {v}")
        lines.append("fields:")
        for k, v in p["fields"].items():
            coeffs = ", ".join(f"{c}: {e}" for c, e in v["coefficients"].items() if e != "0")
            lines.append(f"  {k} ({v['chart']}): {coeffs}")
        return "\n".join(lines)

    _emit(payload, args, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # built on the first main call, then shared
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mongesym",
        description="Exact symmetry analysis of rank-2 distributions from Monge equations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, timings=None):
        if timings:
            p.add_argument("--timings", action="store_true", help=timings)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("genericity", help="hessian, frame determinant and genericity verdict")
    p.add_argument("equation", help="catalog key or inline expression")
    common(p, timings="include per-stage timings in JSON")
    p.set_defaults(func=cmd_genericity)

    p = sub.add_parser("verify", help="check fields for the symmetry property")
    p.add_argument("equation")
    p.add_argument("fields", nargs="*", help="catalog keys, JSON, or @file (default S1..S6)")
    common(p, timings="include per-stage timings in JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("structure", help="bracket table, structure report, projections")
    p.add_argument("equation")
    p.add_argument("fields", nargs="*", help="symmetry fields (default S1..S6)")
    p.add_argument("--cap", type=int, default=32, help="dimension cap for closure")
    common(p, timings="include per-stage timings in JSON")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("solve", help="degree-bounded symmetry dimension table")
    p.add_argument("equation")
    p.add_argument("--degree", type=int, default=2, help="maximum ansatz degree")
    p.add_argument("--offsets", help="comma-separated rational y2-power offsets")
    p.add_argument("--rates", help="comma-separated rational exp rates (default: auto)")
    p.add_argument("--verify", action="store_true",
                   help="verify every basis field symbolically (always on)")
    common(p, timings="include per-degree and per-stage timings and the "
                      "elimination counts in JSON")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reproduce", help="run the full verification checklist")
    common(p, timings="include per-section timings in JSON")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("catalog", help="list built-in equations and fields")
    common(p)
    p.set_defaults(func=cmd_catalog)
    return ap


def _glue_list_flags(argv):
    """argv with `--offsets -1/3,0` as `--offsets=-1/3,0`, likewise --rates:
    argparse reads a spaced value that starts with '-' as an option."""
    out = []
    for a in argv:
        if (out and out[-1] in ("--offsets", "--rates") and a.startswith("-")
                and not a.startswith("--")):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_list_flags(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ExprError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
