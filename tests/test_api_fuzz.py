"""Every public callable, called with every tuple of 0-3 arguments drawn from
a fixed list of values of many kinds.

Each call must return, raise a PlaneModuliError, or raise a TypeError whose
text names the kind that was due ("expected an int, got None").  The
interpreter's own argument-count errors, and a record's ("Wall takes the
fields ..."), are allowed too.  Any other exception, such as "'<' not
supported" or an AttributeError from a field read, is an escape.  The error
classes and Rational, which is fractions.Fraction, are left out.
"""

import itertools
import re
from fractions import Fraction

import planemoduli
from planemoduli.errors import PlaneModuliError
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
NAMED_KIND = re.compile(r"^expected |positional argument|takes the fields ")


def _escape(call, args):
    """None if call(*args) returns or raises an allowed error, else the error."""
    try:
        call(*args)
    except PlaneModuliError:
        return None
    except TypeError as exc:
        return None if NAMED_KIND.search(str(exc)) else exc
    except Exception as exc:  # noqa: BLE001 -- any other exception is the finding
        return exc
    return None


def test_the_draw_covers_every_public_callable():
    assert len(CALLABLES) == len(PUBLIC_NAMES) - 8  # seven error classes and Rational
    assert {"QPoly", "Wall", "ChernP2", "DimVector", "assemble_m6"} <= set(CALLABLES)


def _escapes(values: list, most: int) -> list[str]:
    """Every escape of the calls with up to `most` arguments from `values`."""
    escapes = []
    for name in CALLABLES:
        call = getattr(planemoduli, name)
        for size in range(most + 1):
            for args in itertools.product(values, repeat=size):
                found = _escape(call, args)
                if found is not None:
                    escapes.append(f"{name}{args!r}: {type(found).__name__}: {found}")
    return escapes


def test_every_call_returns_or_names_the_kind_it_refuses():
    assert _escapes(VALUES, 3) == []


def test_calls_with_valid_records_too():
    # two arguments, not three: the full product over both lists takes seconds
    assert _escapes(VALUES + RECORDS, 2) == []
