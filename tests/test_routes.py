"""The README's routes table, checked: each guard on a computation's size
equals the bound up to which the computation's second route was last run.
Widening a guard without re-running that route fails here; each entry names
where the run is recorded.
"""

import pytest

from planemoduli import betti, walls

#: (module, guard constant, the bound its second route was last run to,
#: where that run is recorded)
COVERED_UP_TO = [
    (betti, "MAX_HILB_POINTS", 12,
     "tier-1: TestHilbPoincare::test_matches_fixed_point_oracle, the cell count for every n"),
    (betti, "MAX_KRONECKER_SIZE", 17,
     "CHANGES.md: the HN factorization route on all 47 accepted three-arrow shapes"),
    (betti, "MAX_KRONECKER_DEGREE", 100,
     "CHANGES.md: the HN factorization route on N(7; 4, 5) and N(7; 5, 4), of dimension 100"),
    (walls, "MAX_WALL_DEGREE", 200,
     "CHANGES.md: the one-at-a-time wall search for d = 3..200, 8,989,299 candidates"),
    (betti, "MAX_BRUTE_FORCE_EXPONENT", 20,
     "CHANGES.md: the finite-field count against the HN factorization route for every "
     "accepted shape with m e f <= 20, at p = 2 and 3"),
]


@pytest.mark.parametrize("module, guard, bound, record", COVERED_UP_TO,
                         ids=[guard for _, guard, _, _ in COVERED_UP_TO])
def test_guard_is_covered_by_its_second_route(module, guard, bound, record):
    assert getattr(module, guard) == bound, (
        f"{guard} moved from {bound}: re-run its second route ({record}), then "
        "update this table and the README's routes table")
