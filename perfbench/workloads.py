"""Seeded job lists for the three benchmark workloads, and their answer checks.

Every job is one argv for ``mongesym.cli.main`` plus the answer it must give.
The answers come from the paper or from how the input was built, never from
mongesym itself:

* ``solve``: ``z' = c*y2^2`` has 14 symmetries (reached at degree 7);
  ``z' = c*(y2^2 + r1*y1^2 + r2*y^2)`` with ``r1 = a^2 + b^2``,
  ``r2 = a^2*b^2`` has 7 (reached by degree 2) unless the roots ``±a, ±b``
  form an arithmetic progression (``b = 3a``, excluded);
  ``z' = c*y + c*y2^(1/3)`` has 6 at degree 2 and stabilizes at 3.  The
  factor ``c`` is the substitution ``z -> c*z``, which keeps the symmetry
  algebra.
* ``structure``: random invertible rational recombinations of known
  generator sets; the algebra they generate is the span of the generators.
* ``verify``: the frame determinant is ``±`` the Hessian; genericity,
  coordinate-translation symmetries and recombined symmetry fields follow
  from how ``F`` and the fields were assembled.

All arithmetic on the answers (matrix inverses, exponential-rate algebra)
uses ``fractions.Fraction`` in this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("solve", "structure", "verify")

COORDS = ("x", "y", "y1", "y2", "z")

# The six symmetry generators of z' = y + y2^(1/3) (the paper's S1..S6).
EQ2_GENERATORS = (
    {"y": "x", "y1": "1", "z": "1/2*x^2"},
    {"x": "x", "y": "-1*y", "y1": "-2*y1", "y2": "-3*y2"},
    {"x": "y", "y1": "-1*y1^2", "y2": "-3*y1*y2", "z": "1/2*y^2"},
    {"x": "1"},
    {"y": "1", "z": "x"},
    {"z": "1"},
)
# The negative control of `mongesym reproduce --perturb`: S3 + y1 d/dy1.
EQ2_TAMPERED = EQ2_GENERATORS[:2] + (
    {"x": "y", "y1": "-1*y1^2 + y1", "y2": "-3*y1*y2", "z": "1/2*y^2"},
) + EQ2_GENERATORS[3:]
TAMPERED_INDEX = 2

# Scaling symmetry of z' = c + c*exp(-4/3*y)*(y2 - k*y1^2)^(2/3): the flow
# x -> e^t x, y -> y - t, y1 -> e^-t y1, y2 -> e^-2t y2, z -> e^t z leaves F
# invariant for every c and k.
STRAZZULLO_SCALING = {"x": "x", "y": "-1", "y1": "-1*y1", "y2": "-2*y2", "z": "z"}
TRANSLATIONS = ({"x": "1"}, {"y": "1"}, {"z": "1"})

# (a, b) with 0 < a < b <= 6, b != 3a (arithmetic-progression roots give 14)
# and b != 2a (there a + b and b - a repeat 3a and a, so the exponential
# ansatz shrinks and the job costs less than the others).
DZ13_PAIRS = tuple((a, b) for b in range(2, 7) for a in range(1, b)
                   if b not in (2 * a, 3 * a))


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple
    expect: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "argv": list(self.argv), "expect": self.expect}


# ---------------------------------------------------------------------------
# exact text and matrix helpers
# ---------------------------------------------------------------------------

def signed_sum(pairs) -> str:
    """Text of sum(c * body) over (Fraction c, str body) pairs, zeros skipped.

    An empty body stands for 1.  A leading negative term is printed as a
    signed literal ("-3/2*y", "-1*y"), so the text can start with "-".
    """
    out = []
    for c, body in pairs:
        if not c:
            continue
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if out:
            out.append((" - " if c < 0 else " + ") + text)
        elif c < 0:
            out.append("-" + text if text[0].isdigit() else "-1*" + text)
        else:
            out.append(text)
    return "".join(out) if out else "0"


def inverse(matrix):
    """Exact inverse of a square Fraction matrix, or None when singular."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def combine(row, generators) -> dict:
    """Coefficients of sum(row[j] * generators[j]) as text."""
    out = {}
    for coord in COORDS:
        pairs = [(c, f"({g[coord]})") for c, g in zip(row, generators)
                 if c and coord in g]
        if pairs:
            out[coord] = signed_sum(pairs)
    return out


def field_json(coeffs: dict) -> str:
    return json.dumps({"chart": "J20", "coefficients": coeffs}, separators=(",", ":"))


def small_rational(rng: random.Random, top: int = 5) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, 3)) * rng.choice((1, -1))


def invertible_matrix(rng: random.Random, n: int, zero_share: float = 0.0):
    """Random rational n x n matrix with its exact inverse (retries if singular)."""
    while True:
        m = [[Fraction(0) if rng.random() < zero_share else small_rational(rng, 3)
              for _ in range(n)] for _ in range(n)]
        inv = inverse(m)
        if inv is not None:
            return m, inv


# ---------------------------------------------------------------------------
# equations
# ---------------------------------------------------------------------------

def eq2_scaled(c: Fraction) -> str:
    return signed_sum([(c, "y"), (c, "y2^(1/3)")])


def flat_scaled(c: Fraction) -> str:
    return signed_sum([(c, "y2^2")])


def dz13_scaled(c: Fraction, a: int, b: int) -> str:
    r1, r2 = a * a + b * b, a * a * b * b
    return signed_sum([(c, "y2^2"), (c * r1, "y1^2"), (c * r2, "y^2")])


def dz13_generators(a: int, b: int):
    """Seven symmetries of z' = y2^2 + r1*y1^2 + r2*y^2 (r1 = a^2+b^2, r2 = a^2 b^2).

    For g = exp(l*x) with l^4 - r1*l^2 + r2 = 0 the field
    g d/dy + g' d/dy1 + g'' d/dy2 + (2 g'' y1 + (2 r1 g' - 2 g''') y) d/dz
    is a symmetry; add d/dx, d/dz and the scaling y d/dy + y1 d/dy1 + y2 d/dy2
    + 2 z d/dz.
    """
    r1 = a * a + b * b
    gens = []
    for lam in (a, -a, b, -b):
        g = f"exp({lam}*x)"
        gens.append({
            "y": g,
            "y1": signed_sum([(Fraction(lam), g)]),
            "y2": signed_sum([(Fraction(lam * lam), g)]),
            "z": signed_sum([(Fraction(2 * lam * lam), f"{g}*y1"),
                             (Fraction(2 * r1 * lam - 2 * lam ** 3), f"{g}*y")]),
        })
    gens += [{"x": "1"}, {"z": "1"}, {"y": "y", "y1": "y1", "y2": "y2", "z": "2*z"}]
    return gens


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def solve_argv(equation: str, degree: int) -> tuple:
    return ("solve", "--json", "--degree", str(degree), "--", equation)


def solve_jobs(rng: random.Random):
    """Six eq2-type, two dz13-type and one flat-type solve per pass, so the
    median job is an eq2-type solve and the flat solve (about half of the
    pass) sets the tail."""
    jobs = []
    for _ in range(6):
        jobs.append(Job("solve.eq2", solve_argv(eq2_scaled(small_rational(rng)), 3),
                        {"exit": 0, "dimension": 6, "dimension_at": {"2": 6},
                         "stabilized_at": 3}))
    for a, b in rng.sample(DZ13_PAIRS, 2):
        jobs.append(Job("solve.dz13", solve_argv(dz13_scaled(small_rational(rng), a, b), 2),
                        {"exit": 0, "dimension": 7}))
    jobs.append(Job("solve.flat", solve_argv(flat_scaled(small_rational(rng)), 7),
                    {"exit": 0, "dimension": 14}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def structure_argv(equation: str, fields) -> tuple:
    return ("structure", "--json", "--", equation) + tuple(field_json(f) for f in fields)


def structure_jobs(rng: random.Random):
    """Four recombined eq2 algebras (sampling path of express_in_basis) and
    two recombined dz13 algebras (exp atoms force the symbolic path) per
    pass; the median job is an eq2 job."""
    jobs = []
    for _ in range(4):
        m, inv = invertible_matrix(rng, 6)
        fields = [combine(row, EQ2_GENERATORS) for row in m]
        # the center is spanned by S6 = sum_k inv[5][k] * field_k
        jobs.append(Job("structure.eq2",
                        structure_argv(eq2_scaled(Fraction(1)), fields),
                        {"exit": 0, "dimension": 6,
                         "verdict": "sl2_semidirect_heisenberg",
                         "solvable": False,
                         "center": [str(v) for v in inv[5]]}))
    for a, b in rng.sample(DZ13_PAIRS, 2):
        m, _ = invertible_matrix(rng, 7)
        fields = [combine(row, dz13_generators(a, b)) for row in m]
        jobs.append(Job("structure.dz13",
                        structure_argv(dz13_scaled(Fraction(1), a, b), fields),
                        {"exit": 0, "dimension": 7, "solvable": True}))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def random_monge(rng: random.Random, linear_in_y2: bool):
    """Random F from polynomial, (y2 + k*y1^2)^(p/3) and
    exp(r*y)*(y2 - k*y1^2)^(2/3) terms.

    Returns (text, facts) where facts records whether F is nonlinear in y2
    and which of x, y, z it depends on, read off the construction.
    """
    pieces = []
    facts = {"generic": False, "x": False, "y": False, "z": False}
    used = set()  # equal atoms could add up to zero, so each occurs once
    for _ in range(rng.randint(1, 3)):
        kind = "poly" if linear_in_y2 else rng.choice(("poly", "poly", "power", "exp"))
        c = small_rational(rng)
        if kind == "poly":
            while True:
                exps = tuple(rng.choice((0, 0, 1, 2)) for _ in COORDS)
                if linear_in_y2:
                    exps = exps[:3] + (min(exps[3], 1),) + exps[4:]
                if exps not in used:
                    break
            used.add(exps)
            body = "*".join(v if e == 1 else f"{v}^{e}"
                            for v, e in zip(COORDS, exps) if e)
            pieces.append((c, body))
            facts["generic"] |= exps[3] >= 2
            facts["x"] |= exps[0] > 0
            facts["y"] |= exps[1] > 0
            facts["z"] |= exps[4] > 0
        elif kind == "power":
            k = small_rational(rng)
            p = rng.choice((1, 2, 4, 5, -1, -2))
            if ("power", k, p) in used:
                continue
            used.add(("power", k, p))
            pieces.append((c, f"({signed_sum([(Fraction(1), 'y2'), (k, 'y1^2')])})"
                              f"^({Fraction(p, 3)})"))
            facts["generic"] = True
        else:
            r = small_rational(rng)
            k = small_rational(rng)
            if ("exp", r, k) in used:
                continue
            used.add(("exp", r, k))
            pieces.append((c, f"exp({signed_sum([(r, 'y')])})*"
                              f"({signed_sum([(Fraction(1), 'y2'), (-k, 'y1^2')])})^(2/3)"))
            facts["generic"] = True
            facts["y"] = True
    return signed_sum(pieces), facts


def verify_argv(equation: str, fields) -> tuple:
    return ("verify", "--json", "--", equation) + tuple(fields)


def verify_jobs(rng: random.Random):
    """200 short genericity/verify jobs per pass, in five families:

    genericity of a random F (35%), translation fields d/dx, d/dy, d/dz on a
    random F (30%), catalog keys S1..S6 on eq2 (10%), recombined S-fields on
    eq2, half of them from the tampered set (15%), and d/dx, d/dy, d/dz on
    the Strazzullo family (10%)."""
    jobs = []
    for i in range(200):
        slot = i % 20
        if slot < 7:
            text, facts = random_monge(rng, linear_in_y2=rng.random() < 0.3)
            jobs.append(Job("verify.genericity", ("genericity", "--json", "--", text),
                            {"exit": 0, "generic": facts["generic"]}))
        elif slot < 13:
            text, facts = random_monge(rng, linear_in_y2=rng.random() < 0.3)
            verdicts = [not facts[v] for v in ("x", "y", "z")]
            jobs.append(Job("verify.translations",
                            verify_argv(text, [field_json(t) for t in TRANSLATIONS]),
                            {"exit": 0 if all(verdicts) else 1, "symmetry": verdicts}))
        elif slot < 15:
            keys = rng.sample([f"S{k}" for k in range(1, 7)], rng.randint(1, 6))
            jobs.append(Job("verify.catalog", verify_argv("eq2", keys),
                            {"exit": 0, "symmetry": [True] * len(keys)}))
        elif slot < 18:
            tampered = rng.random() < 0.5
            gens = EQ2_TAMPERED if tampered else EQ2_GENERATORS
            m, _ = invertible_matrix(rng, 6, zero_share=0.4)
            rows = rng.sample(m, rng.randint(2, 4))
            verdicts = [not (tampered and row[TAMPERED_INDEX]) for row in rows]
            jobs.append(Job("verify.recombined",
                            verify_argv("eq2", [field_json(combine(r, gens)) for r in rows]),
                            {"exit": 0 if all(verdicts) else 1, "symmetry": verdicts}))
        else:
            # F depends on y through exp(-4/3*y), not on x or z
            jobs.append(Job("verify.strazzullo",
                            verify_argv(strazzullo_scaled(rng),
                                        [field_json(t) for t in TRANSLATIONS]),
                            {"exit": 1, "symmetry": [True, False, True]}))
    rng.shuffle(jobs)
    return jobs


def strazzullo_scaled(rng: random.Random) -> str:
    """c + c*exp(-4/3*y)*(y2 - k*y1^2)^(2/3) for random rationals c and k."""
    c, k = small_rational(rng), small_rational(rng)
    base = signed_sum([(Fraction(1), "y2"), (-k, "y1^2")])
    return signed_sum([(c, ""), (c, f"exp(-4/3*y)*({base})^(2/3)")])


def known_defect_job(seed: int) -> Job:
    """The true scaling symmetry of the Strazzullo family, which mongesym
    rejects today (its zero test misses a power-atom identity).

    It is not part of any workload, whose jobs must all be answered
    correctly; a run tries it once, untimed, and reports the verdict.
    """
    text = strazzullo_scaled(random.Random(f"known-defect:{seed}"))
    return Job("verify.strazzullo_scaling",
               verify_argv(text, [field_json(STRAZZULLO_SCALING)]),
               {"exit": 0, "symmetry": [True]})


GENERATORS = {"solve": solve_jobs, "structure": structure_jobs, "verify": verify_jobs}


def make_jobs(workload: str, seed: int):
    """The fixed job list of one workload for one seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def jobs_bytes(jobs) -> bytes:
    return json.dumps([j.to_json() for j in jobs], sort_keys=True).encode()


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------

def _proportional(u, v) -> bool:
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None or not u[pivot]:
        return False
    f = u[pivot] / v[pivot]
    return all(a == f * b for a, b in zip(u, v))


def _center_rows(center, dimension):
    """The report's center as coordinate rows (it prints indices when aligned)."""
    if all(isinstance(c, int) for c in center):
        return [[Fraction(int(i == k)) for i in range(dimension)] for k in center]
    return [[Fraction(v) for v in row] for row in center]


def check(job: Job, code: int, out: str):
    """None when the job gave its known answer, else a one-line reason."""
    exp = job.expect
    try:
        p = json.loads(out)
    except ValueError:
        return f"exit {code} without a JSON report"
    try:
        reason = _check_report(job.argv[0], exp, p)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        reason = f"report lacks the expected fields ({exc!r})"
    if reason is None and code != exp["exit"]:
        reason = f"exit {code}, expected {exp['exit']}"
    return reason


def _check_report(cmd: str, exp: dict, p: dict):
    if cmd == "solve":
        if (p["dimension"], len(p["basis"]), p["verified"]) != (exp["dimension"],) * 2 + (True,):
            return (f"dimension {p['dimension']}, {len(p['basis'])} basis fields, "
                    f"verified={p['verified']}; expected {exp['dimension']}")
        dims = {str(r["degree"]): r["dimension"] for r in p["table"]}
        for degree, d in exp.get("dimension_at", {}).items():
            if dims.get(degree) != d:
                return f"dimension {dims.get(degree)} at degree {degree}, expected {d}"
        if "stabilized_at" in exp and p["stabilized_at"] != exp["stabilized_at"]:
            return f"stabilized at {p['stabilized_at']}, expected {exp['stabilized_at']}"
    elif cmd == "structure":
        s = p["structure"]
        if p["dimension"] != exp["dimension"] or s["solvable"] != exp["solvable"]:
            return f"dimension {p['dimension']} solvable={s['solvable']}"
        if "verdict" in exp and s["verdict"] != exp["verdict"]:
            return f"verdict {s['verdict']}"
        if "center" in exp:
            rows = _center_rows(s["center"], p["dimension"])
            if len(rows) != 1 or not _proportional(rows[0], [Fraction(v) for v in exp["center"]]):
                return f"center {s['center']}"
    elif cmd == "genericity":
        if p["generic"] != exp["generic"]:
            return f"generic={p['generic']}"
        if not p["determinant_matches_hessian_up_to_sign"] or p["sign"] not in (1, -1):
            return "frame determinant differs from ±hessian"
    else:
        got = [f["symmetry"] for f in p["fields"]]
        if got != exp["symmetry"]:
            return f"symmetry verdicts {got}, expected {exp['symmetry']}"
    return None
