"""The names `import planemoduli` exposes are pinned: none may go missing."""

import types

import planemoduli

PUBLIC_NAMES = [
    "AmbiguousChamberError", "ChernP2", "ChowCurveP2", "ChowP2",
    "ConventionError", "DimVector", "DivisorAL", "DomainError",
    "EmptyWallError", "ExactDivisionError", "FamilyClass", "NoWallError",
    "PlaneModuliError", "QPoly", "Rational", "ReferenceWallSystem", "Wall",
    "abch_reference_walls", "assemble_m6", "brute_force_kronecker_count",
    "coeff", "d_in_AL", "dual", "effective_generators",
    "enumerate_potential_walls", "euler_hom", "euler_product", "exp_class",
    "ext_dims_at_wall", "family_class", "first_wall_destabilizer", "genus",
    "grassmannian_poincare", "hilb_model_poincare", "hilb_poincare",
    "hilbert_polynomial", "ideal_twisted", "intersection_degree",
    "is_palindromic", "kronecker_poincare", "lambda_decompose", "line_bundle",
    "line_support", "locate_model", "m6_wall_records", "moduli",
    "n6_poincare", "nef_generators", "orthogonal_wall_class", "point",
    "projective_poincare", "q6_poincare", "shift", "space_poincare",
    "todd_relative", "transform_walls", "twist", "wall_between",
    "wall_contribution", "wall_divisor",
]


def test_public_names_are_pinned():
    # submodules appear as attributes once anything imports them, so they
    # are left out; the names re-exported by __init__ are what is pinned
    names = sorted(name for name, value in vars(planemoduli).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
