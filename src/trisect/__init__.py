"""Homology-level calculus for trisection diagrams of closed 4-manifolds.

A genus-g trisection diagram is recorded by the integer homology classes
of its three systems of g curves on the closed genus-g surface.  This
package validates such diagrams, computes their invariants (Euler
characteristic, signature via the Maslov index of a Lagrangian triple,
first homology, handle counts), applies equivalence moves (handle
slides, stabilization, surface diffeomorphisms), ships a small atlas of
standard examples, and exposes everything through the ``trisect`` CLI.
"""

from types import ModuleType as _ModuleType

from .intlin import (
    IntMatrix,
    SmithDecomposition,
    invariant_factors,
    is_primitive,
    left_kernel_basis,
    random_unimodular,
    snf,
    symmetric_signature,
)
from .symplectic import (
    LagrangianSublattice,
    SymplecticLattice,
    is_lagrangian,
    is_symplectic,
    maslov_index,
    omega,
    pairing_matrix,
    random_symplectic,
)
from .diagram import (
    ALPHA,
    BETA,
    GAMMA,
    LABELS,
    CurveSystem,
    FirstHomology,
    IntersectionTriple,
    InvalidDiagramError,
    PairReport,
    SystemReport,
    TrisectionDiagram,
    ValidationReport,
    euler_characteristic,
    first_homology,
    handle_counts,
    intersection_triple,
    lagrangian_triple,
    parameters,
    require_valid,
    signature,
    validate,
)
from .moves import (
    DISTINCT,
    IDENTICAL,
    SLIDE_EQUIVALENT,
    UNKNOWN,
    EquivalenceVerdict,
    SlideMove,
    apply_diffeomorphism,
    compare,
    connect_sum,
    direct_sum,
    handle_slide,
    reverse_orientation,
    stabilization_block,
    stabilize,
)
from .atlas import (
    FibrationParams,
    TorusTriple,
    builtin,
    builtin_names,
    bundle_over_s2_params,
    mapping_torus_params,
    split_diagram,
    torus_diagram,
)

__version__ = "0.1.0"

# every public name bound above; the submodules themselves are not exported
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
