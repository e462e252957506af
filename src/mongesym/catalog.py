"""Built-in catalog of named Monge equations and symmetry fields.

Stable string keys let reproduction scripts avoid inline expressions:

    equations:  "eq2", "flat", "eq1(I)", "dz13(r1,r2)", "strazzullo"
    fields:     "S1" ... "S6" (the six symmetries of eq2 on J20),
                "equiaffine1" ... "equiaffine5" (plane generators
                x d/dy, x d/dx - y d/dy, y d/dx, d/dx, d/dy)

Parameterized keys take rational arguments, e.g. "eq1(3/4)" or "dz13(10,9)".
"""

from __future__ import annotations

import re
from fractions import Fraction

from .charts import J20, PLANE
from .fields import MongeEquation, VectorField, prolong_plane_field
from .parser import parse, quoted


class CatalogKeyError(KeyError):
    pass


class CatalogParameterError(CatalogKeyError):
    """A known equation family with parameters it does not take."""


# S key -> {J20 coordinate: coefficient text}; absent coordinates are 0.
SYMMETRY_FIELDS = {
    "S1": {"y": "x", "y1": "1", "z": "1/2*x^2"},
    "S2": {"x": "x", "y": "-1*y", "y1": "-2*y1", "y2": "-3*y2"},
    "S3": {"x": "y", "y1": "-1*y1^2", "y2": "-3*y1*y2", "z": "1/2*y^2"},
    "S4": {"x": "1"},
    "S5": {"y": "1", "z": "x"},
    "S6": {"z": "1"},
}

# equiaffine key -> (xi, eta) texts on PLANE for xi d/dx + eta d/dy.
EQUIAFFINE = {
    "equiaffine1": ("0", "x"),      # x d/dy
    "equiaffine2": ("x", "-1*y"),   # x d/dx - y d/dy
    "equiaffine3": ("y", "0"),      # y d/dx
    "equiaffine4": ("1", "0"),      # d/dx
    "equiaffine5": ("0", "1"),      # d/dy
}


def _plane_pair(key: str) -> tuple:
    xi, eta = EQUIAFFINE[key]
    return parse(xi, PLANE), parse(eta, PLANE)


def symmetry_fields() -> dict:
    """The six symmetry generators of the cubic-root equation z' = y + y2^(1/3)."""
    return {key: get_field(key) for key in SYMMETRY_FIELDS}


def eq2() -> MongeEquation:
    return MongeEquation(parse("y + y2^(1/3)", J20))

def flat() -> MongeEquation:
    return MongeEquation(parse("y2^2", J20))

def eq1(invariant) -> MongeEquation:
    i = Fraction(invariant)
    f = parse("y2^2 + 10/3*y1^2", J20) + parse("y^2", J20).scale(1 + i * i)
    return MongeEquation(f.scale(Fraction(-1, 2)))

def dz13(r1, r2) -> MongeEquation:
    f = parse("y2^2", J20) \
        + parse("y1^2", J20).scale(Fraction(r1)) \
        + parse("y^2", J20).scale(Fraction(r2))
    return MongeEquation(f)

def strazzullo() -> MongeEquation:
    return MongeEquation(parse("1 + exp(-4/3*y)*(y2 - 1/2*y1^2)^(2/3)", J20))


_PARAM = re.compile(r"^([a-z0-9]+)\(([^()]*)\)$")

def field_keys() -> list:
    return [*SYMMETRY_FIELDS, *EQUIAFFINE]


def get_equation(key: str) -> MongeEquation:
    key = key.strip()
    if key == "eq2":
        return eq2()
    if key == "flat":
        return flat()
    if key == "strazzullo":
        return strazzullo()
    m = _PARAM.match(key)
    family = m and {"eq1": (eq1, 1), "dz13": (dz13, 2)}.get(m.group(1))
    if not family:
        raise CatalogKeyError(f"unknown equation key {quoted(key)}")
    make, count = family
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    try:
        values = [Fraction(a) for a in args]
    except (ValueError, ZeroDivisionError):
        raise CatalogParameterError(f"non-rational parameter in {quoted(key)}") from None
    if len(values) != count:
        raise CatalogParameterError(f"{quoted(key)} has {len(values)} parameters, "
                                    f"where {m.group(1)} takes {count}")
    return make(*values)


def get_field(key: str) -> VectorField:
    """The catalog field `key`, parsed from its entry alone: an S field on
    J20, or an equiaffine generator prolonged to J2."""
    key = key.strip()
    if key in SYMMETRY_FIELDS:
        return VectorField.from_strings(J20, SYMMETRY_FIELDS[key])
    if key in EQUIAFFINE:
        return prolong_plane_field(*_plane_pair(key))
    raise CatalogKeyError(f"unknown field key {quoted(key)}")
