"""The names `import planemoduli` exposes are pinned: none may go missing.

The package loads its submodules lazily, so the names are read from
dir(planemoduli) and resolved with getattr, never from vars().
"""

import importlib
import types

import pytest

import planemoduli
from importpath import loaded_after, package_modules

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

SUBMODULES = ["betti", "chow", "divisors", "errors", "exactmath", "ktheory", "walls"]


def test_public_names_are_pinned():
    # dir() also lists the submodules, and cli once anything imports it, so
    # modules are left out; the names re-exported by __init__ are what is pinned
    names = sorted(name for name in dir(planemoduli)
                   if not name.startswith("_")
                   and not isinstance(getattr(planemoduli, name), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_each_name_is_its_home_module_attribute():
    for name in PUBLIC_NAMES:
        value = getattr(planemoduli, name)
        home = importlib.import_module(f"planemoduli.{planemoduli._HOME[name]}")
        assert getattr(home, name) is value
        # the table names the module that defines the object; Rational is
        # fractions.Fraction, re-exported by exactmath
        assert getattr(value, "__module__", None) in (home.__name__, "fractions")


def test_star_import_binds_the_public_names_and_submodules():
    namespace: dict = {}
    exec("from planemoduli import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES + SUBMODULES)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        planemoduli.frobnicate  # noqa: B018


def test_bare_import_loads_no_submodule():
    assert package_modules(loaded_after("import planemoduli")) == set()


def test_submodule_resolves_after_a_bare_import():
    code = """
    import planemoduli
    assert planemoduli.walls.Wall is planemoduli.Wall
    """
    assert package_modules(loaded_after(code)) == {"divisors", "errors", "exactmath",
                                                   "ktheory", "walls"}
