"""Golden values of the packaged case's published suite.

Reads the session ``suite`` fixture (default config, seed 0, DR row
included) and runs no suite of its own.  Every published plan must be a
fixed point of ``DispatchProblem.repair``, byte for byte, so that its last
bits do not depend on how many repairs its path took.  The objectives,
values and totals are pinned at 1e-6 relative and the SQP statuses exactly.
Iteration counts, schedule bytes and the stage table's bytes are not
pinned: a rounding-level change to the outage cost's differences moved the
ens row's objectives by up to 4.7e-9 relative and added one SQP iteration,
and they have not been measured across Python versions.  A change that
moves a pinned value says so, with the measured reason.
"""

import math

import pytest

from mgopt.optimizer import DispatchProblem

# Per row: cost (ct), loss (kWh), ens (ct), vdev (pu), the row's own value
# (None where no solve ran) and the last SQP solve's status.
ROWS = {
    "baseline": (30098.57494, 45.61954191, 316.6813833, 3.891423537, None, None),
    "cost": (22213.90425, 27.73604066, 274.1168933, 2.826152293, 22213.90425, "kkt"),
    "loss": (28676.692, 21.45030422, 305.1734927, 2.472370457, 21.45030422, "kkt"),
    "ens": (23590.92842, 31.29017683, 259.5906743, 3.0307408, 259.5906743, "kkt"),
    "vdev": (30152.31668, 22.51090086, 343.5361152, 2.328661047, 2.328661047, "kkt"),
    "weighted": (24309.03784, 23.15626975, 260.8757483, 2.555472518, 0.09471542149, "kkt"),
    "dr": (23641.16401, 22.50133547, 260.9469098, 2.558692356, 0.06885300609, "kkt"),
}

TOTALS = {
    "baseline": 1.0,
    "cost": 0.2228481516,
    "loss": 0.3539372458,
    "ens": 0.2636137585,
    "vdev": 0.4501543517,
    "weighted": 0.09471542149,
    "dr": 0.06885300609,
}

REL = 1e-6


@pytest.mark.parametrize("key", sorted(ROWS))
def test_published_row_is_a_repair_fixed_point(suite, key):
    problem = DispatchProblem(suite.case, dr=key == "dr")
    x = problem.pack(suite.results[key].schedule)
    assert problem.repair(x)[0].tobytes() == x.tobytes()


@pytest.mark.parametrize("key", sorted(ROWS))
def test_published_row_matches_its_golden_values(suite, key):
    result = suite.results[key]
    *objectives, value, status = ROWS[key]
    for name, expected in zip(("cost", "loss", "ens", "vdev"), objectives):
        assert math.isclose(result.objectives.as_dict()[name], expected, rel_tol=REL), name
    if value is None:
        assert result.value is None
    else:
        assert math.isclose(result.value, value, rel_tol=REL)
    assert result.sqp_status == status


def test_totals_match_their_golden_values(suite):
    assert set(suite.totals) == set(TOTALS)
    for key, expected in TOTALS.items():
        assert math.isclose(suite.totals[key], expected, rel_tol=REL), key
