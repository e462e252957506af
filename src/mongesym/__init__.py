"""mongesym: exact symmetry analysis of rank-2 distributions on 5-manifolds.

A Monge equation z' = F(x, y, y', y'', z) encodes a rank-2 distribution on
the mixed jet space with coordinates (x, y, y1, y2, z).  This package
constructs the distribution, decides genericity, verifies and searches
symmetry vector fields by exact rational computation, and analyzes the
resulting Lie algebras (structure constants, solvability, Killing form,
recognition of sl(2), the Heisenberg algebra and their semidirect product).

Importing the package loads none of its modules: each exported name loads
its home module on first access (PEP 562), so a command-line call that
never analyzes an algebra or solves never compiles liealg, linalg or solver.
"""

import importlib

_HOMES = {
    "charts": ("Chart", "ChartMismatchError", "J2", "J20", "PLANE"),
    "expr": ("EvaluationError", "Expr", "ExprError", "NonRationalPowerError"),
    "parser": ("ParseError", "parse"),
    "fields": ("Distribution2", "MongeEquation", "ProjectionError", "SymmetryReport",
               "VectorField", "distribution_from_monge", "frame_determinant",
               "genericity_hessian", "in_distribution", "is_symmetry", "lie_bracket",
               "membership_residuals", "project_to_j2", "prolong_plane_field"),
    "catalog": ("CatalogKeyError", "dz13", "eq1", "eq2", "flat", "get_equation",
                "get_field", "strazzullo", "symmetry_fields"),
    "liealg": ("ClosureCapExceeded", "LieAlgebraPresentation", "StructureReport",
               "analyze", "close_under_bracket", "express_in_basis"),
    "solver": ("Ansatz", "AnsatzSpec", "DeterminingSystem", "SolveReport",
               "build_ansatz", "determining_equations", "exp_rates_for",
               "maximality_argument", "nullspace", "symmetry_dimension"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
