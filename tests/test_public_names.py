"""The package's ``__all__`` is derived from its namespace; it must keep
exactly the public names that were once listed by hand."""

import types

import trisect

# the hand-written list that the derived __all__ replaced
PUBLIC = [
    "IntMatrix", "SmithDecomposition", "snf", "invariant_factors", "is_primitive",
    "left_kernel_basis", "symmetric_signature", "random_unimodular",
    "SymplecticLattice", "LagrangianSublattice", "omega", "is_lagrangian",
    "pairing_matrix", "is_symplectic", "maslov_index", "random_symplectic",
    "ALPHA", "BETA", "GAMMA", "LABELS", "CurveSystem", "TrisectionDiagram",
    "IntersectionTriple", "SystemReport", "PairReport", "ValidationReport",
    "FirstHomology", "InvalidDiagramError", "validate", "require_valid",
    "parameters", "euler_characteristic", "intersection_triple",
    "lagrangian_triple", "signature", "first_homology", "handle_counts",
    "SlideMove", "EquivalenceVerdict", "IDENTICAL", "SLIDE_EQUIVALENT",
    "DISTINCT", "UNKNOWN", "handle_slide", "stabilize", "stabilization_block",
    "direct_sum", "connect_sum", "reverse_orientation", "apply_diffeomorphism",
    "compare", "TorusTriple", "FibrationParams", "torus_diagram", "split_diagram",
    "builtin", "builtin_names", "mapping_torus_params", "bundle_over_s2_params",
]


def test_all_is_the_public_list():
    assert len(PUBLIC) == len(set(PUBLIC)) == 59
    assert len(trisect.__all__) == len(set(trisect.__all__))
    assert set(trisect.__all__) == set(PUBLIC)


def test_all_holds_no_module_and_no_private_name():
    for name in trisect.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(trisect, name), types.ModuleType)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from trisect import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(PUBLIC)
    assert all(namespace[name] is getattr(trisect, name) for name in PUBLIC)
