"""mongesym: exact symmetry analysis of rank-2 distributions on 5-manifolds.

A Monge equation z' = F(x, y, y', y'', z) encodes a rank-2 distribution on
the mixed jet space with coordinates (x, y, y1, y2, z).  This package
constructs the distribution, decides genericity, verifies and searches
symmetry vector fields by exact rational computation, and analyzes the
resulting Lie algebras (structure constants, solvability, Killing form,
recognition of sl(2), the Heisenberg algebra and their semidirect product).
"""

from .charts import Chart, ChartMismatchError, J2, J20, PLANE
from .expr import (EvaluationError, Expr, ExprError, NonRationalPowerError)
from .parser import ParseError, parse
from .fields import (Distribution2, MongeEquation, ProjectionError,
                     SymmetryReport, VectorField, distribution_from_monge,
                     frame_determinant, frame_fields, genericity_hessian,
                     in_distribution, is_symmetry, lie_bracket,
                     membership_residuals, project_to_j2, prolong_plane_field)
from .catalog import (CatalogKeyError, dz13, eq1, eq2, flat, get_equation,
                      get_field, strazzullo, symmetry_fields)
from .liealg import (ClosureCapExceeded, LieAlgebraPresentation,
                     StructureReport, analyze, close_under_bracket,
                     express_in_basis)
from .solver import (Ansatz, AnsatzSpec, DeterminingSystem, SolveReport,
                     build_ansatz, determining_equations, exp_rates_for,
                     maximality_argument, nullspace, symmetry_dimension)

__version__ = "0.1.0"
