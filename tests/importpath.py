"""Run code in a fresh interpreter and report which modules it loaded.

A module imported by one test stays in sys.modules for the rest of the
pytest process, so only a new process shows what a call imports.  Each
snippet runs once per session, memoized in a plain function rather than
a session fixture so that it runs under the per-test time limit.
"""

import functools
import os
import subprocess
import sys
import textwrap


@functools.cache
def loaded_after(code: str, *flags: str) -> frozenset[str]:
    """Every name in sys.modules once `code` has run in a fresh interpreter
    started with `flags`, including what site loads: loaded_after("pass") is
    that baseline.  With "-S" no site runs, so nothing is loaded before `code`
    but what the interpreter itself needs."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys\n" + textwrap.dedent(code) + "\nprint(*sys.modules)\n"
    done = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return frozenset(done.stdout.splitlines()[-1].split())


def package_modules(modules: frozenset[str]) -> set[str]:
    """The planemoduli submodules among `modules`, without the package prefix."""
    return {name.split(".", 1)[1] for name in modules if name.startswith("planemoduli.")}
