"""Exact computations for moduli spaces of one-dimensional plane sheaves.

The package computes, in exact rational arithmetic throughout:

  * Bridgeland potential walls for the moduli space of stable sheaves on
    the plane with linear Hilbert polynomial, and chamber location against
    tabulated Hilbert-scheme wall systems (walls);
  * nef and effective cone generators and determinant-line-bundle
    intersection numbers via Riemann-Roch on test families (divisors,
    chow, ktheory);
  * Poincare polynomials of Hilbert schemes, Kronecker quiver moduli, and
    the degree-6 moduli space assembled by wall crossing (betti);
  * the exact rational and polynomial arithmetic underneath (exactmath).

`import planemoduli` loads none of these submodules.  Each one loads on
first use: the first lookup of one of its public names, or of its own name
(`planemoduli.walls`), imports it (PEP 562).  So a one-shot command-line
call pays only for the modules it runs.
"""

#: the public names of the package, by the submodule they live in
_EXPORTS = {
    "betti": ("DimVector", "assemble_m6", "brute_force_kronecker_count",
              "ext_dims_at_wall", "hilb_model_poincare", "hilb_poincare",
              "kronecker_poincare", "m6_wall_records", "n6_poincare",
              "q6_poincare", "space_poincare", "wall_contribution"),
    "chow": ("ChowCurveP2", "ChowP2", "coeff", "exp_class", "todd_relative"),
    "divisors": ("DivisorAL", "FamilyClass", "d_in_AL", "effective_generators",
                 "family_class", "first_wall_destabilizer", "genus",
                 "intersection_degree", "lambda_decompose", "nef_generators",
                 "orthogonal_wall_class", "wall_divisor"),
    "errors": ("AmbiguousChamberError", "ConventionError", "DomainError",
               "EmptyWallError", "ExactDivisionError", "NoWallError",
               "PlaneModuliError"),
    "exactmath": ("QPoly", "Rational", "grassmannian_poincare", "is_palindromic",
                  "projective_poincare"),
    "ktheory": ("ChernP2", "dual", "euler_hom", "euler_product",
                "hilbert_polynomial", "ideal_twisted", "line_bundle",
                "line_support", "moduli", "point", "shift", "twist"),
    "walls": ("ReferenceWallSystem", "Wall", "abch_reference_walls",
              "enumerate_potential_walls", "locate_model", "transform_walls",
              "wall_between"),
}

#: each public name and each of those submodules, mapped to its home module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((module, module) for module in _EXPORTS)

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # what `from .home import name` runs; unlike importlib.import_module,
    # this import path is the one that -X importtime reports
    module = __import__(home, globals(), None, (name,), 1)
    value = module if home == name else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
