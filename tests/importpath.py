"""Run code in a fresh interpreter and report which modules it loaded.

A module imported by one test stays in sys.modules for the rest of the
pytest process, so only a new process shows what a call imports.
"""

import os
import subprocess
import sys
import textwrap


def _last_line(code: str, report: str) -> str:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = textwrap.dedent(code) + f"\n{report}\n"
    done = subprocess.run([sys.executable, "-c", "import sys\n" + script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def modules_after(code: str, module: str) -> str:
    """"True" or "False": whether `module` is loaded once `code` has run."""
    return _last_line(code, f"print({module!r} in sys.modules)")


def package_modules_after(code: str) -> set[str]:
    """The planemoduli submodules loaded once `code` has run, without the
    package prefix."""
    return set(_last_line(code, "print(*sorted(name.split('.', 1)[1] for name in "
                                "sys.modules if name.startswith('planemoduli.')))").split())
