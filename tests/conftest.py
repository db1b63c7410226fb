"""Helpers shared by the test modules."""

import math
from typing import NamedTuple

import pytest

from xxz_metrology.transfer import _split_eta, bracket_log_at, check_single_path


class EasyAxisBounds(NamedTuple):
    """log <L|T^n|R>, the single-path product and the factorial lower bound."""

    log_bracket: float
    log_path: float
    log_bound: float


def _easy_axis_lower_bound(n: int, eta: complex) -> EasyAxisBounds:
    """Superexponential chain bound <= path <= bracket, all as natural logs.

    The path is ``check_single_path``'s, and ``bracket_log_at`` raises
    ArithmeticError for a bracket below it; bounding sinh^2(y) >= y^2 in it yields
    t^{2(n-2)}/2^n ((n/2)! (n/2-1)!)^2.
    """
    t, easy_axis = _split_eta(eta)
    if not easy_axis or t <= 0:
        raise ValueError("easy-axis bound requires |Delta| > 1 (imaginary eta)")
    if n % 2 != 0 or n < 4:
        raise ValueError("the single-path estimate is for even n >= 4")
    log_bracket = bracket_log_at(n, eta).log
    log_path = check_single_path(n, eta, log_bracket)
    log_bound = (2 * (n - 2) * math.log(t) - n * math.log(2.0)
                 + 2 * (math.lgamma(n // 2 + 1) + math.lgamma(n // 2)))
    return EasyAxisBounds(log_bracket=float(log_bracket), log_path=log_path,
                          log_bound=log_bound)


@pytest.fixture
def easy_axis_lower_bound():
    """The easy-axis chain of bounds at (n, eta), for even n >= 4."""
    return _easy_axis_lower_bound
