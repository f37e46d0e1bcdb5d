"""Exact verification engine for Groenewold–Van Hove obstruction results.

Symbolic certificates for the flat-phase-space and sphere no-go theorems and
the torus no-obstruction result, over exact rational-function scalars in
formal ħ and s, with small Hermite-basis numeric cross-checks.
"""

__version__ = "0.1.0"

from .scalars import Scalar, HBAR, S_I, S_ONE, S_SPIN, S_ZERO  # noqa: F401
from .flat import FlatElement, bracket_flat  # noqa: F401
from .sphere import SphereElement, bracket_sphere  # noqa: F401
from .torus import TorusElement, bracket_torus, basic_set  # noqa: F401
from .weyl import WeylElement, weyl_commutant, weyl_product  # noqa: F401
from .matrices import ExactMatrix, spin_matrices  # noqa: F401
from .diffop import DiffOp, diffop_commutator, diffop_compose  # noqa: F401
from .subspace import (FlatAmbient, SphereAmbient, SubspaceBasis,  # noqa: F401
                       TorusAmbient, generate_poisson_subalgebra, normalizer,
                       transitivity_check)
from .qmaps import (METAPLECTIC, POSITION, SCHRODINGER,  # noqa: F401
                    TORUS_PREQUANT, VANHOVE, QuantizationMap, check_q1,
                    check_q2, sphere_map, torus_transformed_ops)
from .hermite import NumericMatrix, commutant_kernel_dim, hermite_matrix  # noqa: F401
from .obstruction import (CONVENTION, ExtensionProblem,  # noqa: F401
                          ObstructionCertificate,
                          SolutionSpace, anticommutator_certificate,
                          extension_solve, groenewold_certificate,
                          position_nonextension_certificate,
                          sphere_certificate, strong_nogo_record,
                          torus_irreducibility, torus_transform_identities,
                          vonneumann_rules_flat)
from .parse import ParseError, parse_expression, print_expression  # noqa: F401
from .report import Report, emit_report  # noqa: F401
