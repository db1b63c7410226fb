"""The rows the program knows to be wrong, one entry per known fault: a scan
(kind and arguments), the grid points whose rows fail, a substring of their
ArithmeticError and the ROADMAP Direction that fixes the cause.  test_cli.py
holds each scan to exactly its entry; other tests read failing points through
fault_at and expect, so a fix deletes its entries and they then expect values.
"""

import contextlib
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
