"""The mutants of tests/mutants.py still apply to the package.

The mutation run itself takes a few minutes and stays out of this suite;
this keeps its list from rotting unnoticed when the package is edited.
"""

from pathlib import Path

import pytest

import planemoduli
from mutants import MUTANTS


@pytest.mark.parametrize("name, old, new, slip, tests", MUTANTS,
                         ids=[str(i) for i in range(len(MUTANTS))])
def test_old_text_occurs_once(name, old, new, slip, tests):
    text = (Path(planemoduli.__file__).parent / name).read_text()
    assert text.count(old) == 1 and new != old


def test_the_run_leaves_this_module_out():
    # in a mutated copy this module's check fails, which would count as a kill
    assert Path(__file__).name not in {Path(t).name for *_, tests in MUTANTS for t in tests}
