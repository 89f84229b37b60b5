"""bornlab: exact verification of Born, Kunneth and hypersymplectic structures
on finite-dimensional Lie algebras.

All arithmetic is over the rationals; every certified identity holds with
defect exactly zero.
"""

from .exact import (
    Matrix,
    Signature,
    Subspace,
    Trilinear,
    determinant,
    invert,
    signature_of_symmetric,
)
from .liealg import (
    LieAlgebra,
    ce_d2,
    is_subalgebra,
)
from .multilinear import (
    anticommutator_defect,
    involution_split,
    nijenhuis,
    pullback,
    recursion_operator,
    symmetric_form,
    two_form,
)
from .structures import (
    AlmostKunneth,
    BornStructure,
    CirclePoint,
    Hypersymplectic,
    build_almost_kunneth,
    build_born,
    build_hypersymplectic,
    enhance_kunneth,
    integrability_report,
    neutral_metric,
    s1_family,
    verify_born_identities,
)
from .connections import (
    Connection,
    born_connection,
    born_torsion_formula_defect,
    canonical_connection,
    generalized_torsion_defect,
    kunneth_connection,
    levi_civita,
    nabla_form,
    omega_K_defect,
    torsion,
)
from .model import Model, Report, parse_model, render_model, render_report, run_checks
from . import catalog, errors

__version__ = "0.1.0"
