"""The raise statements of the package that the tier-1 suite never reaches.

Every `raise` in src/planemoduli is found by its AST.  Then the suite runs
in this process under a line tracer that watches only the package's
frames, and each raise statement of which no line ran is printed with its
file, line and text.  Tests that spawn a CLI process are not traced, so a
site that only they reach is printed too.

    python tests/raises.py             # the whole suite, about a minute
    python tests/raises.py -k walls    # further arguments go to pytest

Standard library only, apart from pytest, which runs the suite.  Not a
test module, so pytest does not collect it: a test of it would take as
long as the run.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planemoduli"


def raise_sites() -> dict[str, dict[int, int]]:
    """Per file of the package, each line of a raise statement mapped to the
    statement's first line."""
    sites: dict[str, dict[int, int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sites.setdefault(str(path), {})
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                lines.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.lineno))
    return sites


def main(argv: list[str]) -> int:
    import pytest

    sites = raise_sites()
    reached: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            first = sites[frame.f_code.co_filename].get(frame.f_lineno)
            if first is not None:
                reached.add((frame.f_code.co_filename, first))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in sites else None

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if Path(sys.modules["planemoduli"].__file__).parent != PACKAGE:
        sys.exit(f"the suite imported planemoduli from {sys.modules['planemoduli'].__file__}")
    every = sorted((name, first) for name, lines in sites.items() for first in set(lines.values()))
    missed = [site for site in every if site not in reached]
    for name, first in missed:
        text = Path(name).read_text().splitlines()[first - 1].strip()
        print(f"not reached: {Path(name).relative_to(ROOT)}:{first}: {text}")
    print(f"reached {len(every) - len(missed)} of {len(every)} raise statements "
          f"(pytest exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
