"""Command-line front end.

Every number printed by this interface is produced by exact arithmetic and
serialized as an integer or a "num/den" rational; floating point only ever
appears in SVG coordinates, rounded at the moment of rendering.  Identical
argument vectors produce identical bytes on every supported interpreter:
the package, not argparse, words an invalid choice and a leading "--".

Each command returns its output and never prints: a str, a dict (the
--json payload) or an iterable of output pieces.  `walls` returns its table,
text or --json, in pieces written as they are made from the finished rows of
walls._candidates, after every check has run; the text widths come from the
runs' ends, fed through that generator.  --svg first writes the picture, arc
by arc from the same stream, the only way to the SVG writer.  run() writes
the result, so any error leaves stdout empty.

Exit codes: 0 on success, 1 on a usage error, 2 on a domain error.

Only the argument parser, the error types and the number parsers load with
this module.  Each command imports the modules it runs when it runs, so a
call loads only what it uses (`euler` loads ktheory alone, and `walls` loads
betti only for degree 6).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from collections.abc import Iterator
from fractions import Fraction

from .errors import PlaneModuliError
from .exactmath import QPoly, parse_int, parse_rational

USAGE_ERROR = 1
DOMAIN_ERROR = 2
_TOO_MANY_DIGITS = "the result has too many digits to print"


class _UsageError(Exception):
    pass


def _invalid_choice(value: str, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, parse_int)  # type=int runs parse_int; errors say "int"

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")

    # overridden: argparse's wording of an invalid choice changes between releases
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, _invalid_choice(value, action.choices))


_FAMILY_BY_FLAG = {"pencil": "pencil", "jacobian": "jacobian",
                   "evenwall": "even_wall", "oddwall": "odd_wall"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="planemoduli",
                     description="Exact wall-crossing computations for moduli "
                                 "of one-dimensional plane sheaves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_walls = sub.add_parser("walls", help="potential and actual walls for a degree")
    p_walls.add_argument("--degree", type=int, required=True)
    p_walls.add_argument("--json", action="store_true")
    p_walls.add_argument("--svg", metavar="FILE")

    for name in ("nef", "effective"):
        p = sub.add_parser(name, help=f"{name} cone generators")
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--json", action="store_true")

    p_div = sub.add_parser("divisor", help="wall divisor for a destabilizer")
    p_div.add_argument("--degree", type=int, required=True)
    p_div.add_argument("--destabilizer", required=True, metavar="r,c,e")
    p_div.add_argument("--json", action="store_true")

    p_int = sub.add_parser("intersect", help="intersection degree of a divisor "
                                             "class with a test family")
    p_int.add_argument("--family", required=True,
                       choices=list(_FAMILY_BY_FLAG))
    p_int.add_argument("--degree", type=int, required=True)
    p_int.add_argument("--w", required=True, metavar="r,c,e")
    p_int.add_argument("--json", action="store_true")

    p_euler = sub.add_parser("euler", help="Euler pairing of two K-classes")
    p_euler.add_argument("--v", required=True, metavar="r,c,e")
    p_euler.add_argument("--w", required=True, metavar="r,c,e")
    p_euler.add_argument("--pairing", required=True, choices=["product", "hom"])
    p_euler.add_argument("--json", action="store_true")

    p_betti = sub.add_parser("betti", help="Poincare polynomial of a space")
    p_betti.add_argument("--space", required=True,
                         metavar="M6|N6|Q6|hilb:n[:k]|kronecker:m:e:f|gr:k:n")
    p_betti.add_argument("--json", action="store_true")
    p_betti.add_argument("--at", metavar="Q",
                         help="evaluate the polynomial at a rational point")

    return parser


def _cmd_walls(args) -> Iterator[str]:
    from . import divisors, ktheory, walls

    d = args.degree
    x0, runs = walls._wall_runs(d)  # the guards raise here, before any output
    # destabilizers of walls known to be actual, from curated tables, by (r, c, 2 ch_2)
    if d == 6:
        from . import betti

        actual = {rec.destabilizer for rec in betti.m6_wall_records()}
    else:
        actual = {divisors.first_wall_destabilizer(d)}
    divisor = {(v.r, v.c, ktheory._twice_ch2(v)): divisors.wall_divisor(d, v)
               for v in (*actual, ktheory.line_bundle(0))}
    if args.svg is not None:
        # by descending radius around the one center x0, so the first is the widest
        _write_svg(args.svg, float(x0), (math.sqrt(num / den)  # = sqrt(Fraction(num, den))
                                         for num, den, _, _ in walls._candidates(runs)))

    def cells(num: int, den: int, c: int, m: int) -> tuple:
        return (f"{num}" if den == 1 else f"{num}/{den}",
                f"1,{c},{m // 2}" if m % 2 == 0 else f"1,{c},{m}/2", divisor.get((1, c, m)))

    rows = itertools.starmap(cells, walls._candidates(runs))
    center = str(x0)
    if args.json:
        return _walls_json(d, center, rows)

    def line(rsq: str, cand: str, div) -> tuple:
        return (center, rsq, cand, "potential" if div is None else "actual",
                "-" if div is None else str(div))

    # the widest cells: radius_sq and 2 ch_2 fall as n grows and 2 ch_2 keeps c's
    # parity, so a run's widest sit at its ends; each curated class is a candidate,
    # and the last column, rstripped, needs no width
    ends = [(c, n, n, *rest) for c, lo, hi, *rest in runs for n in (lo, hi)]
    header = ("center", "radius_sq", "destabilizer", "status", "divisor")
    widest = [header, *(line(*cells(*row)) for row in walls._candidates(ends))]
    if sum(hi - lo + 1 for _, lo, hi, *_ in runs) > len(divisor):
        widest.append(line("", "", None))  # a potential row
    template = "  ".join(f"{{:<{max(map(len, column))}}}" for column in zip(*widest))
    return (template.format(*row).rstrip() + "\n"
            for row in itertools.chain([header], itertools.starmap(line, rows)))


def _walls_json(d: int, center: str, rows) -> Iterator[str]:
    """The walls payload in pieces; only the curated rows' divisors go through json."""
    import json

    yield f'{{"degree": {d}, "walls": ['
    separator = ""
    for rsq, cand, div in rows:
        tail = ("false, \"divisor\": null" if div is None else
                f'true, "divisor": {json.dumps(div.to_json(), separators=(", ", ": "))}')
        yield (f'{separator}{{"center": "{center}", "radius_sq": "{rsq}", '
               f'"destabilizer": "{cand}", "actual": {tail}}}')
        separator = ", "
    yield "]}\n"


def _cmd_cone(args) -> dict | str:
    from . import divisors

    if args.command == "nef":
        (a, b), key = divisors.nef_generators(args.degree), "B"
    else:
        (a, b), key = divisors.effective_generators(args.degree), "L"
    return {"A": a.to_json(), key: b.to_json()} if args.json else f"{a}, {b}"


def _cmd_divisor(args) -> dict | str:
    from . import divisors
    from .ktheory import parse_chern

    div = divisors.wall_divisor(args.degree, parse_chern(args.destabilizer))
    return div.to_json() if args.json else str(div)


def _cmd_intersect(args) -> dict | str:
    from . import divisors
    from .ktheory import parse_chern

    family = divisors.family_class(_FAMILY_BY_FLAG[args.family], args.degree)
    w = parse_chern(args.w)
    value = str(divisors.intersection_degree(family, w))
    return ({"family": args.family, "degree": args.degree, "w": str(w),
             "value": value} if args.json else value)


def _cmd_euler(args) -> dict | str:
    from . import ktheory

    v, w = ktheory.parse_chern(args.v), ktheory.parse_chern(args.w)
    pairing = ktheory.euler_product if args.pairing == "product" else ktheory.euler_hom
    value = str(pairing(v, w))
    return ({"pairing": args.pairing, "v": str(v), "w": str(w), "value": value}
            if args.json else value)


def _space_poly(spec: str) -> QPoly:
    from . import betti
    from .exactmath import grassmannian_poincare

    if spec == "M6":
        return betti.assemble_m6()
    if spec == "N6":
        return betti.n6_poincare()
    if spec == "Q6":
        return betti.q6_poincare()
    head, *rest = spec.split(":")
    try:
        nums = [parse_int(s) for s in rest]
    except ValueError:
        raise _UsageError(f"planemoduli betti: error: bad space parameters in {spec!r}")
    if head == "hilb" and len(nums) in (1, 2):
        return betti.hilb_model_poincare(nums[0], nums[1] if len(nums) == 2 else 0)
    if head == "kronecker" and len(nums) == 3:
        return betti.kronecker_poincare(nums[0], (nums[1], nums[2]))
    if head == "gr" and len(nums) == 2:
        return grassmannian_poincare(nums[0], nums[1])
    raise _UsageError(f"planemoduli betti: error: unknown space {spec!r}")


def _at_least(base: int, n: int, bound: int) -> bool:
    """base**n >= bound, without building base**n when it is far larger.

    When the test on bit lengths fails, base**n < 2**(bitlen(bound) + n).
    """
    return n * (base.bit_length() - 1) >= bound.bit_length() or base ** n >= bound


def _value_too_long(poly: QPoly, x: Fraction) -> bool:
    """Whether poly(x) provably has a numerator or a denominator of more
    than sys.get_int_max_str_digits() digits, so that str() refuses it.

    Decided only for a leading coefficient of +-1, and never when there is
    no limit.  Then, for x = a/b in lowest terms and degree n, the reduced
    denominator is exactly b**n, because the numerator is c_n a**n mod b.
    Once |x| >= 2 max|c_i| + 1, |poly(x)| > |x|**n / 2, so the reduced
    numerator exceeds |a|**n / 2.
    """
    read_limit = getattr(sys, "get_int_max_str_digits", None)  # new in Python 3.10.7
    limit, n, coefficients = read_limit and read_limit(), poly.degree, poly.coefficients
    if not limit or not n or abs(coefficients[-1]) != 1:
        return False
    bound = 10 ** limit  # the least integer of more than `limit` digits
    a, b = abs(x.numerator), x.denominator
    return (_at_least(b, n, bound)
            or (a >= (2 * max(map(abs, coefficients)) + 1) * b
                and _at_least(a, n, 2 * bound)))


def _cmd_betti(args) -> dict | str:
    poly = _space_poly(args.space)
    at = parse_rational(args.at) if args.at is not None else None
    if at is not None and _value_too_long(poly, at):
        # refused before the evaluation, which would take minutes
        raise PlaneModuliError(_TOO_MANY_DIGITS)
    value = str(poly(at)) if at is not None else None
    if not args.json:
        return str(poly) if value is None else value
    # model 0 is the default: hilb:n:0 is echoed as its one spelling hilb:n
    head, *rest = args.space.split(":")
    payload = {
        "space": f"hilb:{rest[0]}" if head == "hilb" and rest[1:] == ["0"]
                 else args.space,
        "coefficients": poly.to_coefficient_strings(),
        "degree": poly.degree,
        "euler": str(poly(1)),
    }
    if at is not None:
        payload["at"] = str(at)
        payload["value"] = value
    return payload


def _write_svg(path: str, center: float, radii: Iterator[float]) -> None:
    """Write semicircles about one center, radii outermost first, as an SVG
    file, each path line as it is made; the first radius sets the extents.

    Coordinates are derived from the exact rational data and rounded only
    here, so the bytes are deterministic.
    """
    top = next(radii)
    lo, hi = center - top, center + top
    scale, pad, fmt = 100.0, 10.0, "{:.6f}".format
    width = (hi - lo) * scale + 2 * pad
    height = top * scale + 2 * pad
    baseline = height - pad
    with open(path, "w", encoding="ascii") as handle:
        handle.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
            f'height="{fmt(height)}" viewBox="0 0 {fmt(width)} {fmt(height)}">\n'
            f'<line x1="0" y1="{fmt(baseline)}" x2="{fmt(width)}" '
            f'y2="{fmt(baseline)}" stroke="#888" stroke-width="1"/>\n')
        for radius in itertools.chain([top], radii):
            x1 = (center - radius - lo) * scale + pad
            x2 = (center + radius - lo) * scale + pad
            r = radius * scale
            handle.write(
                f'<path d="M {fmt(x1)} {fmt(baseline)} A {fmt(r)} {fmt(r)} 0 0 1 '
                f'{fmt(x2)} {fmt(baseline)}" fill="none" stroke="#205080" '
                f'stroke-width="1.5"/>\n')
        handle.write("</svg>\n")


_COMMANDS = {
    "walls": _cmd_walls,
    "nef": _cmd_cone,
    "effective": _cmd_cone,
    "divisor": _cmd_divisor,
    "intersect": _cmd_intersect,
    "euler": _cmd_euler,
    "betti": _cmd_betti,
}


#: flags whose values may start with "-", which argparse would otherwise
#: mistake for options; their tokens are joined with "=" before parsing
_VALUE_FLAGS = ("--w", "--v", "--destabilizer", "--at")


def _join_value_flags(argv: list[str]) -> list[str]:
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if (token in _VALUE_FLAGS and i + 1 < len(argv)
                and not argv[i + 1].startswith("--")):
            out.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def run(argv: list[str]) -> int:
    """Parse arguments, dispatch, write the result and map failures to exit codes."""
    parser = _build_parser()
    try:
        if argv[:1] == ["--"]:  # newer argparse releases skip it, older refuse it
            parser.error(f"argument command: {_invalid_choice('--', _COMMANDS)}")
        args = parser.parse_args(_join_value_flags(argv))
        result = _COMMANDS[args.command](args)
        if isinstance(result, dict):
            import json  # only --json output needs it: text-mode calls start faster

            result = json.dumps(result, separators=(", ", ": "))
        write = sys.stdout.write
        for piece in (result, "\n") if isinstance(result, str) else result:
            write(piece)
        return 0
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:  # argparse -h/--help
        code = exc.code
        return 0 if code in (0, None) else USAGE_ERROR
    except (PlaneModuliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except ValueError as exc:
        # str() refuses ints of more than sys.get_int_max_str_digits() digits;
        # a str or dict result is rendered whole before it is written, and
        # the walls rows and SVG coordinates have short numbers, so stdout is empty
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: {_TOO_MANY_DIGITS}", file=sys.stderr)
        return DOMAIN_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))
