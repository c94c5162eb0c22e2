"""Every public callable, called with every tuple of 0-3 arguments drawn from
a fixed list of values of many kinds, and every method a package class
defines, called on a valid record with every tuple of 0-2 of those values.

Each call must return, raise a PlaneModuliError, or raise a TypeError whose
text names the kind that was due ("expected an int, got None").  The
interpreter's own argument-count errors, and a record's ("Wall takes the
fields ..."), are allowed too.  Any other exception, such as "'<' not
supported" or an AttributeError from a field read, is an escape, and so is a
float anywhere in a returned value.  The error classes and Rational, which
is fractions.Fraction, are left out.
"""

import itertools
import re
from fractions import Fraction

import planemoduli
from planemoduli.errors import PlaneModuliError
from planemoduli.exactmath import _Value
from test_public_api import PUBLIC_NAMES

#: one value of each kind a caller might pass by mistake, and the edges of
#: the integers: negative, zero, small and large
VALUES = [None, "x", 2.5, True, (1,), [1], Fraction(1, 2), -1, 10 ** 6, 0, 3]

CALLABLES = [name for name in PUBLIC_NAMES if name != "Rational"
             and not (isinstance(getattr(planemoduli, name), type)
                      and issubclass(getattr(planemoduli, name), BaseException))]

#: one valid value of each record kind the public functions take, so that
#: the checks behind a first valid argument are reached too
RECORDS = [
    planemoduli.ChernP2(1, 0, 0), planemoduli.moduli(4), planemoduli.Wall(0, 1),
    planemoduli.QPoly([1, 2, 1]), planemoduli.ChowCurveP2(1, 2, 0, 1),
    planemoduli.abch_reference_walls(4), planemoduli.family_class("pencil", 4),
    planemoduli.m6_wall_records()[5], planemoduli.DivisorAL(1, 2),
]

#: a TypeError that names the kind that was due, or an argument-count error
NAMED_KIND = re.compile(r"^expected |positional argument|takes the fields "
                        r"|^cannot evaluate a QPoly at ")


def _has_float(value) -> bool:
    """Whether a float is in value, its record fields, tuples, lists or dicts.

    A FamilyClass's chern is skipped: intersection_degree checks it where
    it is read, so the loading of divisors loads no chow.
    """
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(map(_has_float, (*value, *value.values())))
    if isinstance(value, (tuple, list)):
        return any(map(_has_float, value))
    if isinstance(value, _Value):
        return any(_has_float(getattr(value, field)) for field in value.__match_args__
                   if (type(value).__name__, field) != ("FamilyClass", "chern"))
    return False


def _escape(call, args) -> str | None:
    """None if call(*args) returns a float-free value or raises an allowed
    error, else what escaped."""
    try:
        result = call(*args)
    except PlaneModuliError:
        return None
    except TypeError as exc:
        return None if NAMED_KIND.search(str(exc)) else f"TypeError: {exc}"
    except Exception as exc:  # noqa: BLE001 -- any other exception is the finding
        return f"{type(exc).__name__}: {exc}"
    return f"returned a float: {result!r}" if _has_float(result) else None


def test_the_draw_covers_every_public_callable():
    assert len(CALLABLES) == len(PUBLIC_NAMES) - 8  # seven error classes and Rational
    assert {"QPoly", "Wall", "ChernP2", "DimVector", "assemble_m6"} <= set(CALLABLES)


def _escapes(calls: dict, values: list, most: int) -> list[str]:
    """Every escape of the calls with up to `most` arguments from `values`."""
    escapes = []
    for name, call in calls.items():
        for size in range(most + 1):
            for args in itertools.product(values, repeat=size):
                found = _escape(call, args)
                if found is not None:
                    escapes.append(f"{name}{args!r}: {found}")
    return escapes


FUNCTIONS = {name: getattr(planemoduli, name) for name in CALLABLES}


def _methods(value) -> dict:
    """The bound public methods and __call__ that value's package classes
    define; a named tuple's inherited tuple methods are not among them."""
    return {f"{type(value).__name__}.{name}": getattr(value, name)
            for cls in type(value).__mro__ if cls.__module__.startswith("planemoduli")
            for name in vars(cls)
            if (name == "__call__" or not name.startswith("_")) and callable(getattr(value, name))}


METHODS = {name: method for value in RECORDS + [planemoduli.hilbert_polynomial(planemoduli.point())]
           for name, method in _methods(value).items()}


def test_every_call_returns_or_names_the_kind_it_refuses():
    assert _escapes(FUNCTIONS, VALUES, 3) == []


def test_calls_with_valid_records_too():
    # two arguments, not three: the full product over both lists takes seconds
    assert _escapes(FUNCTIONS, VALUES + RECORDS, 2) == []


def test_the_method_draw_covers_the_record_methods():
    assert {"Wall.twisted", "Wall.encloses", "ReferenceWallSystem.twisted", "QPoly.__call__",
            "QPoly.exact_div", "QPoly.shifted", "HilbertPolynomial.__call__"} <= set(METHODS)


def test_every_method_returns_or_names_the_kind_it_refuses():
    assert _escapes(METHODS, VALUES, 2) == []


def test_the_walk_finds_a_float_in_a_record():
    assert _has_float({"walls": (planemoduli.Wall(0, 1), [2.5])})
    assert _has_float([planemoduli.Wall._make(2.5, 1)])
    assert not _has_float(RECORDS)
    assert not _has_float(planemoduli.FamilyClass(2.5, "pencil", 6))  # read-time check
