"""The rows the program knows to be wrong, one entry per known fault: a scan
(kind and arguments), the grid points whose rows fail, a substring of their
ArithmeticError and the ROADMAP Direction that fixes the cause.  test_cli.py
holds each scan to exactly its entry; other tests read failing points through
fault_at and expect, so a fix deletes its entries and they then expect values.

WRONG_VALUES lists the rows that print a wrong value with no error: the scan,
the grid point, the printed value and the arbiter's value (both to 7 digits)
and the owning Directions.  test_mpo.py holds every other value row of its
scans to the arbiter, and each listed row to its printed value and to a gap
past the tolerance, so a fix deletes its entry.  RATIONAL_XI_WRONG does the
same for the columns of the default xi-vs-eta-rational scan (test_transfer.py).
"""

import contextlib
import math
import re
from collections import namedtuple

import pytest

KEYS = {"validity-report": ("delta", "n"),  # the columns that name a grid point
        "f-lambda-nonpert": ("delta", "lambda_over_j", "n")}
SINGLE_PATH = "below the single-path bound"
LOST = "lost every path to band overflow"
NOT_CONVERGED = "state derivative did not converge"


# args: the scan's flags; points: KEYS[kind] of each failing row
KnownFault = namedtuple("KnownFault", "name kind args points error direction")


def _rows(first: dict, last: int, *lam: float) -> frozenset:
    """(delta, *lam, n) for n = first[delta]..last."""
    return frozenset((dl, *lam, n) for dl, a in first.items() for n in range(a, last + 1))


_BELOW_PATH = {2.0: 542, -1.5: 740, 100.0: 136, 10.0: 238}  # first n, by Delta
_ALL_LOST = {1e77: 4, 1e80: 4}

FAULTS = (
    # the log bands are logs of float |T| entries: past the cosh^2 overflow
    # +inf meets -inf, and the bracket falls below its single path (never at 1.1)
    KnownFault("single-path-validity", "validity-report",
               "--delta 2 -1.5 100 10 1.1 --n-range 2 1001 1",
               _rows(_BELOW_PATH, 1001), SINGLE_PATH, 4),
    KnownFault("single-path-f-lambda", "f-lambda-nonpert",
               "--delta 2 -1.5 100 10 1.1 --lambda-over-j 0 --n-range 2 1001 1",
               _rows(_BELOW_PATH, 1001, 0.0), SINGLE_PATH, 4),
    # |Delta| >~ 1e77: the |T| entries overflow from the first column on
    KnownFault("lost-validity", "validity-report", "--delta 1e77 1e80 --n-range 2 8 1",
               _rows(_ALL_LOST, 8), LOST, 4),
    KnownFault("lost-f-lambda", "f-lambda-nonpert",
               "--delta 1e77 1e80 --lambda-over-j 0 --n-range 2 8 1",
               _rows(_ALL_LOST, 8, 0.0), LOST, 4),
    # the two Richardson levels differ by 9.4 and 10.3 times the 1e-6 cut
    KnownFault("not-converged-n5", "f-lambda-nonpert",
               "--delta 100 --lambda-over-j 1e-2 --n-range 5 5 1",
               _rows({100.0: 5}, 5, 1e-2), NOT_CONVERGED, 5),
    KnownFault("not-converged-n8", "f-lambda-nonpert",
               "--delta 10 --lambda-over-j 1e-3 --n-range 8 8 1",
               _rows({10.0: 8}, 8, 1e-3), NOT_CONVERGED, 5),
)


def fault_at(kind: str, **point) -> KnownFault | None:
    """The fault registered at a grid point (CSV cells or numbers), None if none is."""
    key = tuple(float(point[column]) for column in KEYS.get(kind, ()))
    return next((f for f in FAULTS if f.kind == kind and key in f.points), None)


def expect(kind: str, **point):
    """A context that expects the registered error at a grid point, and no error elsewhere."""
    fault = fault_at(kind, **point)
    return (contextlib.nullcontext() if fault is None
            else pytest.raises(ArithmeticError, match=re.escape(fault.error)))


# the exact F_lambda rows of f-lambda-nonpert, held to route A
# (oracles.route_a_f_lambda) to WRONG_TOL relative, at Delta 2 and 10, and at
# Delta = 100 only at (100, 0.1, 4), where route B (oracles.route_b_f_lambda)
# agrees with route A to 1.3e-11: at (100, 1e-2, 6) the two disagree, and
# only mpmath can judge
WrongValue = namedtuple("WrongValue", "args point printed arbiter directions")
WRONG_TOL = 1e-6  # the finite difference's own convergence cut
# the exact rows of the README f-lambda-nonpert grid, less Delta = 100
README_EXACT = "--delta 2 10 --lambda-over-j 1e-3 1e-2 --n-range 2 10 1"
LAMBDA_TENTH = "--delta 2 --lambda-over-j 0.1 --n-range 8 8 1"
DELTA_100_TENTH = "--delta 100 --lambda-over-j 0.1 --n-range 4 4 1"
# qfi_dense drops the pairs with p_k + p_l <= 1e-12 p_max, and eigh of the
# nearly low-rank mu = 1 state cannot resolve its small eigenvalues;
# (2, 1e-2, 8), off by 1.31e-6, is registered rather than the tolerance widened
WRONG_VALUES = (
    WrongValue(README_EXACT, (10.0, 1e-2, 6), 5.815735e-9, 3.391394e-8, (17, 5)),  # -83%
    WrongValue(README_EXACT, (2.0, 1e-3, 10), 2.421376e-6, 2.725244e-6, (17, 5)),  # -11%
    WrongValue(README_EXACT, (2.0, 1e-2, 9), 1.098474e-5, 1.204271e-5, (17, 5)),  # -8.8%
    WrongValue(README_EXACT, (10.0, 1e-2, 7), 1.614328e-10, 1.614348e-10, (17, 5)),  # -1.25e-5
    WrongValue(README_EXACT, (2.0, 1e-2, 10), 2.412231e-6, 2.412260e-6, (17, 5)),  # -1.20e-5
    WrongValue(README_EXACT, (2.0, 1e-2, 8), 9.535947e-3, 9.535960e-3, (17, 5)),  # -1.31e-6
    WrongValue(LAMBDA_TENTH, (2.0, 0.1, 8), 3.496707e-5, 3.496821e-5, (17, 5)),  # -3.2e-5
    WrongValue(DELTA_100_TENTH, (100.0, 0.1, 4), 4.897415e-7, 4.897428e-7, (17, 5)),  # -2.6e-6
)

# the default xi-vs-eta-rational scan (p <= 30), held to the closed form
# oracles.rational_xi1 to RATIONAL_XI_TOL relative; Direction 2 owns both
# faults.  xi prints (xi1 - chi''/4)/(2(1 - Delta^2)) at every row, but the
# F_Delta jet on the same d = p - 1 bands grows with slope (xi1 + chi''/4) /
# (2(1 - Delta^2)): 0.5596708 printed against 1.1522634 at (3, 1).  xi1,
# fitted over [w, 2w] with w = max(100, 20(p - 1)), is off by 6.1e-6 at
# (5, 1) up to 0.96 at (30, 7), where transients have not decayed: every
# p >= 5 (4.0e-10 at p = 4 is the largest gap of a row held)
RATIONAL_XI_TOL = 1e-9
_RATIONAL = frozenset((p, q) for p in range(2, 31) for q in range(1, p) if math.gcd(p, q) == 1)
RATIONAL_XI_WRONG = {"xi": _RATIONAL, "xi1": frozenset(pq for pq in _RATIONAL if pq[0] >= 5)}
