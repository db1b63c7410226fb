import csv
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import known_faults
from oracles import mp_chi1, mp_f0_delta_bracket, rational_xi1
from xxz_metrology.fisher import qfi_parametric
from xxz_metrology.lindblad import ness_perturbative
from xxz_metrology import transfer
from xxz_metrology.model import ChainParams, eta_from_delta
from xxz_metrology.mpo import _log_threshold, hs_norm_sq_via_transfer, validity_threshold
from xxz_metrology.cli import ScanSpec, run_scan
from xxz_metrology.transfer import (_LOGS, _SPLIT_JET, _XI_BANDS, _XI_JET, LinePasses,
                                    SignedLog, _bands, _entries, _jet_series, _kept_columns,
                                    _live_bands, _split_eta,
                                    _stack_bands, _xi_series,
                                    bracket_LTnR,
                                    bracket_LTnR_log, bracket_series,
                                    build_transfer, check_single_path, chi_coefficient,
                                    chi_second_derivative, defect_series,
                                    f0_delta, f0_x,
                                    isotropic_bracket_series,
                                    isotropic_f_delta, jordan_decompose, rational_defects,
                                    second_eta_derivative_bracket, sum_defect,
                                    sum_defect_log, xi_coefficient,
                                    xi_coefficient_rational)


# --- construction -----------------------------------------------------------

@pytest.mark.parametrize("eta", [1 + 1j, 0.5 + 1e-3j, math.pi / 2 + 1j])
def test_split_eta_rejects_an_eta_off_both_phases(eta):
    # eta is real (easy plane), i t or pi + i t (easy axis); nothing else
    with pytest.raises(ValueError, match="eta must be real, i\\*t or pi \\+ i\\*t"):
        _split_eta(eta)


def test_transfer_entries():
    ts = build_transfer(3, eta_from_delta(0.5))
    T = ts.T
    L, R = 0, 1
    assert T[L, L] == 1 and T[R, R] == 1
    assert T[L, ts.index(1)] == 0.5 and T[ts.index(1), R] == 0.5
    eta = math.acos(0.5)
    assert np.isclose(T[ts.index(1), ts.index(1)], math.cos(eta) ** 2)
    assert np.isclose(T[ts.index(2), ts.index(1)], math.sin(eta) ** 2 / 2)
    assert np.isclose(T[ts.index(1), ts.index(2)], math.sin(2 * eta) ** 2 / 2)


def test_transfer_isotropic_bulk():
    ts = build_transfer(5, 0.0)
    bulk = ts.T[2:, 2:]
    assert np.allclose(bulk, np.eye(5))


def test_vertex_entries_and_sign():
    for delta, sgn in ((0.5, 1.0), (2.0, -1.0)):
        ts = build_transfer(3, eta_from_delta(delta))
        assert np.isclose(ts.D[ts.index(1), ts.index(1)], sgn * 0.5)
        assert np.isclose(ts.D[ts.index(2), ts.index(1)], 0.25)
        assert np.isclose(ts.D[ts.index(1), ts.index(2)], 1.0)


def test_easy_axis_transfer_off_diagonals_negative():
    ts = build_transfer(3, eta_from_delta(2.0))
    assert ts.T[ts.index(2), ts.index(1)] < 0
    assert ts.T[ts.index(1), ts.index(1)] > 1


# --- brackets ---------------------------------------------------------------

def test_bracket_n2_universal():
    # the float phase reads the one path R -> 1 -> L exactly; the log phase
    # returns a SignedLog
    for delta in (-0.9, 0.0, 0.5, 1.0):
        assert bracket_LTnR(2, eta_from_delta(delta)) == 0.25
    for delta in (2.0, 10.0):
        assert np.isclose(bracket_LTnR(2, eta_from_delta(delta)).value, 0.25)


def test_bracket_isotropic_values():
    assert bracket_LTnR(4, 0.0) == 1.5
    assert bracket_LTnR(6, 0.0) == 3.75


def test_bracket_isotropic_exact_formula():
    for n in range(2, 201):
        assert bracket_series(n, 0.0)[n] == n * (n - 1) / 8


def test_bracket_matches_dense_matrix_power():
    for delta in (0.4, 2.0):
        eta = eta_from_delta(delta)
        for n in (3, 6, 9):
            ts = build_transfer(n // 2, eta)
            v = np.zeros(ts.T.shape[0])
            v[1] = 1.0
            dense = (np.linalg.matrix_power(ts.T, n) @ v)[0]
            bracket = bracket_LTnR(n, eta)  # a SignedLog at Delta = 2
            assert np.isclose(getattr(bracket, "value", bracket), dense, rtol=1e-12)


def test_bracket_log_linear_agreement():
    for delta in (0.5, 2.0):
        eta = eta_from_delta(delta)
        for n in (4, 10, 16):
            lin = bracket_series(n, eta)[n]
            lg = bracket_LTnR_log(n, eta)[n]
            assert math.isfinite(lg)
            assert np.isclose(math.exp(lg), lin, rtol=1e-12)


def test_series_rows_are_the_rows_of_their_own_passes():
    # a pass to n holds every m <= n bit for bit: the columns above m//2
    # add exact zeros before step m
    for delta in (0.4, -0.7, 2.0):
        eta = eta_from_delta(delta)
        logs = bracket_LTnR_log(40, eta)
        d2 = second_eta_derivative_bracket(40, eta)  # float: not finite at Delta = 2
        for m in range(2, 41):
            assert logs[m] == bracket_LTnR_log(m, eta)[m]
            assert np.array_equal(d2[m], second_eta_derivative_bracket(m, eta)[m],
                                  equal_nan=True)


def test_bracket_auto_switches_to_log():
    val = bracket_LTnR(200, eta_from_delta(2.0))
    assert isinstance(val, SignedLog)


def test_signed_log_value_covers_every_finite_double():
    assert SignedLog(1.0, 705.0).value == math.exp(705.0)
    top = math.log(np.finfo(float).max)
    assert SignedLog(-1.0, top).value == -math.exp(top)
    assert SignedLog(-1.0, math.nextafter(top, math.inf)).value == -math.inf
    assert SignedLog(0.0, -math.inf).value == 0.0


def truncated(names, n, eta, d, jet=None):
    """The rows of the float pass of the bands of ``names`` truncated at d."""
    return _jet_series(_bands(names, n, d, eta), n, jet)


def test_rational_truncation_exactness():
    # eta = q pi / p kills the transitions through |p|, so d = p - 1
    # reproduces the full bracket exactly
    for (p, q) in ((2, 1), (3, 1), (5, 2)):
        eta = q * math.pi / p
        for n in (12, 25, 40):
            full = bracket_series(n, eta)[n]
            trunc = truncated(("T",), n, eta, p - 1)[n]
            assert abs(full - trunc) <= 1e-12 * abs(full)


# --- defect sums ------------------------------------------------------------

def brute_defect(n, eta, d):
    ts = build_transfer(d, eta)
    T = np.abs(ts.T)
    total = 0.0
    for k in range(1, n + 1):
        M = (np.linalg.matrix_power(T, k - 1) @ ts.D
             @ np.linalg.matrix_power(T, n - k))
        total += M[0, 1]
    return total


@pytest.mark.parametrize("delta,d", [(0.5, 3), (0.0, 4), (0.9, 6), (2.0, 5)])
def test_defect_sum_vs_brute_force(delta, d):
    eta = eta_from_delta(delta)
    for n in (2, 5, 11, 20):
        fast = truncated(("T", "D"), n, eta, d)[n]
        brute = brute_defect(n, eta, d)
        assert np.isclose(fast, brute, rtol=1e-12, atol=1e-300)


def test_defect_sum_small_n_values():
    # with only two operator slots D never bridges R to L: the n = 2 sum
    # vanishes identically, and n = 3 is the first nonzero case
    assert sum_defect(2, eta_from_delta(0.5)) == 0.0
    assert np.isclose(sum_defect(3, eta_from_delta(0.0)), 1 / 8)


@pytest.mark.parametrize("route", [bracket_LTnR, sum_defect, sum_defect_log,
                                   isotropic_bracket_series],
                         ids=lambda route: route.__name__)
@pytest.mark.parametrize("delta", [0.5, 2.0])
def test_single_rows_need_two_sites_in_both_phases(route, delta):
    with pytest.raises(ValueError, match="need n >= 2"):
        route(1, eta_from_delta(delta))


def test_defect_sum_log_domain():
    for delta in (0.5, 2.0):
        eta = eta_from_delta(delta)
        lin = defect_series(18, eta)[18]
        lg = sum_defect_log(18, eta)
        assert np.isclose(lg.sign * math.exp(lg.log), lin, rtol=1e-10)
    big = sum_defect(80, eta_from_delta(2.0))
    assert isinstance(big, SignedLog)
    assert big.sign == 1.0


# --- leading-order Fisher ---------------------------------------------------

def test_f0_lambda_example():
    params = ChainParams(n=2, j_coupling=1.0, delta=0.5, lam=0.1, mu=1.0)
    est = f0_x(params, "lambda")
    assert np.isclose(est.value, 1 / 8)
    assert est.method == "leading-order"


@pytest.mark.parametrize("delta", [0.5, -0.6, 0.0, 1.0])
def test_f0_lambda_is_exact_in_the_easy_plane(delta):
    # |Delta| <= 1 reads the float bracket 1/4: F = 1/8 with no log round trip
    est = f0_x(ChainParams(n=2, delta=delta, lam=1, mu=1), "lambda")
    assert est.value == 0.125
    assert est.log_value == math.log(0.125)


def test_f0_keeps_its_log_where_the_float_underflows():
    # (lam/J)^2 = 1e-340 leaves the double range: F reads 0.0, its log does not
    est = f0_x(ChainParams(n=2, delta=0.5, lam=1e-170, mu=1), "mu")
    assert est.value == 0.0
    assert math.isclose(est.log_value, 2 * math.log(1e-170) + math.log(0.125), rel_tol=1e-15)
    # so does (lam mu/J)^2 of F_Delta, from the float jet of the easy plane
    params = ChainParams(n=4, delta=0.5, lam=1e-170, mu=1)
    est = f0_delta(params)
    assert est.value == 0.0
    assert math.isclose(est.log_value,
                        2 * math.log(1e-170) + f0_delta(params.replace(lam=1.0)).log_value,
                        rel_tol=1e-14)


def test_f0_keeps_its_log_where_the_prefactor_squared_overflows():
    # (lam/J)^2 = 1e360 leaves the double range: F reads inf, its log does not
    params = ChainParams(n=10, delta=0.5, lam=1e170, mu=1, j_coupling=1e-10)
    unit = params.replace(lam=1.0, j_coupling=1.0)
    for f0 in (lambda p: f0_x(p, "mu"), f0_delta):
        est = f0(params)
        assert est.value == math.inf
        assert math.isclose(est.log_value, 2 * math.log(1e170 / 1e-10) + f0(unit).log_value,
                            rel_tol=1e-14)


def test_f0_mu_nonzero_at_zero_bias():
    params = ChainParams(n=4, delta=0.5, lam=0.2, mu=0.0)
    assert f0_x(params, "mu").value > 0


def test_f0_j_scaling():
    p1 = ChainParams(n=4, j_coupling=1.0, delta=0.5, lam=0.1, mu=0.8)
    p2 = p1.replace(j_coupling=2.0)
    r = f0_x(p1, "J").value / f0_x(p2, "J").value
    assert np.isclose(r, 16.0)  # (lam mu / J^2)^2 prefactor


def test_f0_rejects_delta():
    with pytest.raises(ValueError):
        f0_x(ChainParams(n=4, delta=0.5, lam=0.1), "Delta")


def dense_f_delta_reduced(n, delta, h=1e-5):
    """||dZ/dDelta||^2 / 2^(n+1) by finite differences of the contraction."""
    from xxz_metrology.mpo import build_aux_A, contract_to_dense
    Zp = contract_to_dense(build_aux_A(n, eta_from_delta(delta + h)), n)
    Zm = contract_to_dense(build_aux_A(n, eta_from_delta(delta - h)), n)
    dZ = (Zp - Zm) / (2 * h)
    return np.linalg.norm(dZ) ** 2 / 2 ** (n + 1)


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9, 1.5, 2.0])
def test_f0_delta_matches_dense_derivative(delta):
    for n in (3, 4, 6):
        params = ChainParams(n=n, j_coupling=1.0, delta=delta, lam=1.0, mu=1.0)
        transfer_val = f0_delta(params).value
        dense_val = dense_f_delta_reduced(n, delta)
        assert abs(transfer_val - dense_val) / dense_val < 1e-4


def test_f0_delta_positive():
    for delta in (-0.7, 0.2, 0.85):
        for n in (3, 5, 8):
            params = ChainParams(n=n, delta=delta, lam=0.1, mu=0.9)
            assert f0_delta(params).value > 0


def test_f0_delta_rejects_isotropic():
    with pytest.raises(ValueError):
        f0_delta(ChainParams(n=4, delta=1.0, lam=0.1))


@pytest.mark.parametrize("delta", [1.1, 2.0])
def test_f0_delta_log_route_matches_float_route(delta):
    eta = eta_from_delta(delta)
    for n in range(2, 19):
        lin = defect_series(n, eta)[n] + 0.25 * second_eta_derivative_bracket(n, eta)[n]
        lg = _log_rows(_live_bands(("T", "dT", "F"), n, eta), n)[-1, n]  # twice the bracket
        assert (lg > -math.inf) == (lin > 0)  # 0 at n = 2
        assert math.isclose(math.exp(lg) / 2, lin, rel_tol=1e-10)


@pytest.mark.parametrize("delta", [0.5, -0.3, 0.99, 1.01, 1.5, -2.0])
def test_f_band_is_half_d2_plus_twice_d(delta):
    eta, d = eta_from_delta(delta), 12
    j = np.arange(1, d + 1)
    for f, h, v in zip(_entries("F", d, eta), _entries("d2T/2", d, eta),
                       _entries("D", d, eta)):
        # j^2: the diagonal of h + 2 v cancels to O(t^2) in floats;
        # |h|: cosh(2 t j) grows past j^2 for |Delta| > 1
        assert np.all(np.abs(f - (h + 2 * v)) <= 1e-13 * np.maximum(j ** 2, np.abs(h)))


@pytest.mark.parametrize("n", [4, 10, 30])
@pytest.mark.parametrize("x", ["ulp", 1e-13, 2e-12, 1e-10, 1e-9])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_f0_delta_accurate_next_to_isotropic_point(n, x, side):
    # the two terms of the bracket cancel to O(eta^2): a subtraction of
    # separate jets loses eps/eta^2 here, the F band does not
    delta = np.nextafter(1.0, 1.0 + side) if x == "ulp" else 1.0 + side * x
    params = ChainParams(n=n, delta=float(delta), lam=1.0, mu=1.0)
    expected = isotropic_f_delta(params)
    assert abs(f0_delta(params).value - expected) <= 1e-13 * expected


@pytest.mark.parametrize("n", [4, 10, 50])
def test_f0_delta_is_even_in_delta(n):
    # one eta, that of |Delta|, for +-Delta: bit for bit
    f = lambda delta: f0_delta(ChainParams(n=n, delta=delta, lam=1.0, mu=1.0)).value
    for x in (1e-14, 1e-12, 1e-9, 1e-3, 0.3, 0.5, 0.77):
        assert f(-1 + x) == f(1 - x)


_N_MIRROR = 12


def _mirror_params(delta):
    return ChainParams(n=_N_MIRROR, delta=delta, lam=1.0, mu=1.0)


def _value_and_log(est):
    return [est.value, est.log_value]


MIRRORED = {
    "bracket_series": lambda delta: bracket_series(_N_MIRROR, eta_from_delta(delta)),
    "bracket_LTnR_log": lambda delta: bracket_LTnR_log(_N_MIRROR, eta_from_delta(delta)),
    "defect_series": lambda delta: defect_series(_N_MIRROR, eta_from_delta(delta)),
    "second_eta_derivative_bracket":
        lambda delta: second_eta_derivative_bracket(_N_MIRROR, eta_from_delta(delta)),
    "f0_delta": lambda delta: _value_and_log(f0_delta(_mirror_params(delta))),
    "f0_x": lambda delta: _value_and_log(f0_x(_mirror_params(delta), "lambda")),
    "xi_coefficient": lambda delta: xi_coefficient(delta, _N_MIRROR),
    "chi_coefficient": lambda delta: chi_coefficient(delta, 400),
    "isotropic_bracket_series":
        lambda delta: [isotropic_bracket_series(_N_MIRROR, eta_from_delta(delta))],
    "isotropic_f_delta": lambda delta: [isotropic_f_delta(_mirror_params(delta))],
}


# take t = acos|Delta| or eta of |Delta| itself, so they are even bit for bit
EVEN_BITS = {"chi_coefficient", "xi_coefficient", "f0_delta", "f0_x"}


@pytest.mark.parametrize("name", list(MIRRORED))
def test_quantities_are_even_in_delta(name):
    # the bands depend on |Delta| only: the same t for -Delta, bit for bit
    # next to Delta = -1 and to rounding elsewhere (eta from ChainParams or
    # eta_from_delta); chi1 at d = 400 turns one ulp of t next to a zero of
    # sin(tk) into 3.8e-9 at 0.94, so +-0.94 and +-0.17 are checked too
    def value(delta):
        return np.array(MIRRORED[name](delta), dtype=float)

    deltas = (0.2, 0.5, 0.77) + ((0.94, 0.17) if name == "chi_coefficient" else ())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # chi1 = nan, or outside the isotropic window
        for x in (1e-9, 1e-12, 1e-14):
            np.testing.assert_array_equal(value(-1 + x), value(1 - x))
        for delta in deltas:
            if name in EVEN_BITS:
                np.testing.assert_array_equal(value(-delta), value(delta))
            else:
                np.testing.assert_allclose(value(-delta), value(delta), rtol=1e-14, atol=0)


@pytest.mark.parametrize("last", ["F", "d2T/2"])
@pytest.mark.parametrize("delta", [0.5, 2.0])
def test_negated_dT_band_leaves_the_s2_coefficient(last, delta):
    # d|T|/dt flips sign with the direction of t, which no jet sees: it
    # enters the s^2 coefficient only through products of two dT factors
    n = 16
    bands = _bands(("T", "dT", last), n, None, eta_from_delta(delta))
    flipped = [bands[0], -bands[1], bands[2]]
    assert np.array_equal(_jet_series(flipped, n), _jet_series(bands, n))


# --- the jet engine against the one-set loop it replaced ----------------------

# the arithmetic of each semiring: (times, plus, <1|T|R>, an empty cell)
_RINGS = {"float": (np.multiply, np.add, 0.5, 0.0),
          "log": (np.add, np.logaddexp, math.log(0.5), -np.inf)}


def _reference_jet_series(bands, n, ring="float"):
    """The one-set loop over every column at every step, kept verbatim but
    for its arithmetic: floats, or logs on the logs of the bands."""
    times, plus, half, zero = _RINGS[ring]
    rows = [(b[0], b[1, 1:], b[2, :-1]) for b in bands]

    def apply(band, v):
        diag, lower, upper = band
        out = times(diag, v)
        out[1:] = plus(out[1:], times(lower, v[:-1]))
        out[:-1] = plus(out[:-1], times(upper, v[1:]))
        return out

    jet = [np.full(bands[0].shape[1], zero) for _ in bands]
    series = np.full(n + 1, zero)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            new = []
            for j in range(len(jet)):
                acc = apply(rows[0], jet[j])
                for i in range(j - 1, -1, -1):
                    acc = plus(acc, apply(rows[j - i], jet[i]))
                new.append(acc)
            new[0][1:2] = plus(new[0][1:2], half)  # R feeds |1>, where the bands hold it
            jet = new
            series[m] = jet[-1][0]
    return series


def _assert_same_rows(got, want):
    """Finite rows equal bit for bit, and non-finite in the same places."""
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)  # f0_delta's log fallback reads it
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


@pytest.mark.parametrize("names", [("T",), ("T", "D"), ("T", "dT", "d2T/2"),
                                   ("T", "dT", "F")])
@pytest.mark.parametrize("eta", [1e-4, 0.3, math.acos(0.37), 2.5, 0.5j, 1.3j,
                                 math.pi + 1j])
def test_jet_engine_rows_are_the_reference_loop_bit_for_bit(names, eta):
    # the cosh^2 overflow (Delta = cosh 1.3 and its negative) is in range at n = 1200
    for n in (1, 2, 3, 7, 50, 201, 1200):
        for d in (None, 1, 3, n):
            with np.errstate(over="ignore", invalid="ignore"):
                bands = _bands(names, n, d, eta)
            _assert_same_rows(_jet_series(bands, n), _reference_jet_series(bands, n))


@pytest.mark.parametrize("eta", [1e-4, 0.3, math.acos(0.37), 2.5, 0.5j, 1.3j,
                                 math.pi + 1j])
def test_the_xi_pass_keeps_the_rows_of_both_jets(eta):
    # one pass steps |T| once for the defect sum and the second derivative;
    # each keeps the rows of its own jet, past the cosh^2 overflow (1.3j at
    # n = 1200) and, in the easy plane, past the support front (n = 4000)
    cases = [(n, d) for n in (1, 2, 3, 7, 50, 201, 1200) for d in (None, 1, 3, n)]
    if isinstance(eta, float):
        cases.append((4000, None))
    for n, d in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            defects, half_d2 = truncated(_XI_BANDS, n, eta, d, _XI_JET)
            _assert_same_rows(defects, truncated(("T", "D"), n, eta, d))
            _assert_same_rows(half_d2, truncated(("T", "dT", "d2T/2"), n, eta, d))
            if d is None:
                defects, d2 = _xi_series(n, eta)
                _assert_same_rows(defects, defect_series(n, eta))
                _assert_same_rows(d2, second_eta_derivative_bracket(n, eta))


def test_batched_sets_get_the_rows_of_their_own_passes():
    # d = 1..29 zero-padded to 29, eta on both sides of pi/2
    n = 300
    sets = [_bands(("T", "D"), n, d, eta)
            for d, eta in zip(range(1, 30), np.linspace(0.05, 3.0, 29))]
    batch = _jet_series(_stack_bands(sets), n)
    assert batch.shape == (29, n + 1)
    for rows, bands in zip(batch, sets):
        _assert_same_rows(rows, _jet_series(bands, n))


@pytest.mark.parametrize("names, eta", [(("T", "D"), 0.3), (("T", "dT", "F"), 1.3j),
                                        (("T",), 2.5)])
def test_rows_do_not_depend_on_how_far_the_pass_runs(names, eta):
    # the light cone of a pass to n_max is not that of a pass to n <= n_max,
    # yet rows m <= n agree: mixed windows can share one pass.  At n_max =
    # 4000 the support front, not the cone, bounds the columns stepped
    with np.errstate(over="ignore"):
        for n_max, ds, ns in ((400, (3, 70, 200), (1, 2, 31, 32, 33, 100, 257, 399)),
                              (4000, (None,), (1000, 2999, 3000))):
            for d in ds:
                bands = _bands(names, n_max, d, eta)
                full = _jet_series(bands, n_max)
                for n in ns:
                    _assert_same_rows(full[:n + 1], _jet_series(bands, n))
                batch = _jet_series(_stack_bands([bands, _bands(names, n_max, 1, eta)]), 150)
                _assert_same_rows(batch[0], full[:151])


@pytest.mark.parametrize("names", [("T", "D"), ("T", "dT", "d2T/2"), ("T", "dT", "F")])
@pytest.mark.parametrize("eta", [0.3, math.acos(0.37), 1e-4, math.pi / 3])
def test_jet_engine_rows_past_the_support_front_are_the_reference_loop(names, eta):
    # at n = 4000 the amplitudes underflow to exact zeros above column ~1000
    # (~110 at eta = 1e-4; eta = pi/3 leaks past |3> only through rounding:
    # ~40), far below the cone's d = 2000; the reference loop steps every column
    n = 4000
    bands = _bands(names, n, None, eta)
    _assert_same_rows(_jet_series(bands, n), _reference_jet_series(bands, n))


def test_a_batch_shares_one_front():
    # the eta = pi/3 set alone would stop near column 40; the irrational
    # set's amplitudes carry the front past it, and both keep their rows
    n = 3000
    sets = [_bands(("T", "D"), n, None, eta) for eta in (math.pi / 3, math.acos(0.37))]
    for order in (sets, sets[::-1]):
        for rows, bands in zip(_jet_series(_stack_bands(order), n), order):
            _assert_same_rows(rows, _reference_jet_series(bands, n))


def _underflow_bands(n):
    """Band pair whose order-1 amplitudes come back from below the double range.

    Climbs of 1e-8 and descents of 2.5e7 weigh 1/4 per round trip, so a
    path to column c and back weighs 4^-c, while its amplitude at column c
    is near 1e-8c: order 0 is never nonzero above column 42.  The order-1
    band's diagonal of 1e250 lifts v_1 by as much, which then reaches
    column 75: a pass that drops its columns above 64 moves the last row
    by 2.8e-10 relative.
    """
    dim = n // 2 + 1
    walk = np.zeros((3, dim))
    walk[1, 2:], walk[2, :-1] = 1e-8, 2.5e7  # climbs into 2.., descents (1 -> L too)
    lift = np.zeros((3, dim))
    lift[0, 1:] = 1e250
    return [walk, lift]


def test_amplitudes_back_from_the_underflow_range_keep_their_paths():
    # every nonzero cell counts, not just the ones that weigh in the rows:
    # here v_1 reaches 33 columns past v_0, at one column per step
    n = 400
    bands = _underflow_bands(n)
    rows = _jet_series(bands, n)
    assert np.isfinite(rows).all() and rows[-1] > 1e250
    _assert_same_rows(rows, _reference_jet_series(bands, n))


def test_a_non_finite_band_entry_is_not_hidden_behind_the_front():
    # no amplitude climbs past column 5, yet the +inf entry at column 40
    # turns the zeros it multiplies into NaN, which descend to L: the late
    # rows are NaN, as in the reference loop
    n = 400
    bands = _underflow_bands(n)[:1]
    bands[0][1, 6:] = 0.0
    bands[0][0, 40] = np.inf
    for rows in (_jet_series(bands, n), _reference_jet_series(bands, n)):
        assert np.isfinite(rows[:40]).all() and np.isnan(rows[200:]).all()


def _widest_step(monkeypatch, pass_):
    """(rows of pass_(), the widest step it took, in columns)."""
    widths, step_calls = [], transfer._step_calls
    monkeypatch.setattr(transfer, "_step_calls",
                        lambda *args: widths.append(args[-1]) or step_calls(*args))
    return pass_(), max(widths)


@pytest.mark.parametrize("delta", [0.1, 0.37, 0.741])
def test_the_balanced_front_keeps_the_rows_of_the_exact_zero_front(monkeypatch, delta):
    # at n = 10^4 the balanced front steps under half the columns of the front
    # that stops only at exact zeros (tau = 0), and every row keeps its bits;
    # tau = 2^-20 moves rows of the xi pass at Delta = 0.741 by 4e-16 relative
    n, eta = 10_000, math.acos(delta)
    passes = (lambda: _xi_series(n, eta),
              lambda: _jet_series(_bands(("T", "dT", "F"), n, None, eta), n))
    for pass_ in passes:
        rows, widest = _widest_step(monkeypatch, pass_)
        with monkeypatch.context() as exact:
            exact.setattr(transfer, "_FRONT_TAU", 0.0)
            want, widest_exact = _widest_step(exact, pass_)
        _assert_same_rows(rows, want)
        assert widest <= widest_exact / 2


def test_each_band_set_of_a_batch_keeps_its_own_scale(monkeypatch):
    # coefficient 1 of set 0 is ~1e-250 of set 1's and spreads like |T| at
    # Delta = 0.37, while both coefficients 0 and set 1's coefficient 1 stay
    # below column 10; measured against a scale shared by the two sets (or
    # by the two coefficients), set 0's front cells would never count, and
    # its rows would stop at column 32
    n = 2000
    dim = n // 2 + 1
    walk = np.zeros((3, dim))
    walk[0, 1:], walk[1, 2:], walk[2, 1:-1] = 0.5, 1e-8, 1e-8
    walk[0, 0], walk[2, 0] = 1.0, 0.5  # L -> L, 1 -> L
    spread = _bands(("T",), n, None, math.acos(0.37))[0]
    sets = []
    for scale, propagator in ((1e-250, spread), (1.0, walk)):
        source = np.zeros((3, dim))
        source[0, 1:] = scale
        sets.append([walk, propagator, source])
    jet = (((0, 0),), ((1, 1), (2, 0)))  # v_1' = A_1 v_1 + A_2 v_0
    batch = _jet_series(_stack_bands(sets), n, jet)
    assert 1e-251 < batch[0, -1] / batch[1, -1] < 1e-249
    for rows, bands in zip(batch, sets):
        _assert_same_rows(rows, _jet_series(bands, n, jet))
        with monkeypatch.context() as exact:
            exact.setattr(transfer, "_FRONT_TAU", 0.0)
            _assert_same_rows(rows, _jet_series(bands, n, jet))


# --- the log semiring against the reference loop and the signed loop it replaced

def _reference_signed_lse(signs, logs):
    """Column sums of sign * exp(log) as (sign, log).

    A column with no finite term, or a NaN term, or an exact
    cancellation gives (0, -inf).
    """
    m = logs.max(axis=0)
    live = m > -np.inf
    shift = np.where(live, m, np.inf)  # dead columns: exp(-inf) = 0, no overflow
    tot = (signs * np.exp(logs - shift)).sum(axis=0)
    live &= tot != 0.0
    return (np.where(live, np.sign(tot), 0.0),
            np.where(live, shift + np.log(np.abs(tot)), -np.inf))


def _reference_jet_log(bands, n):
    """<L|v_k> of :func:`_jet_series` after m = 0..n steps, as SignedLogs.

    Each band entry enters as (sign, log|entry|), so values far outside
    the double range stay representable.
    """
    k = len(bands)
    dim = bands[0].shape[1]
    with np.errstate(divide="ignore"):
        band_logs = [np.log(np.abs(b)) for b in bands]
    band_signs = [np.sign(b) for b in bands]
    # the terms of v_j': three rows (diag, lower, upper) per product
    # A_{j-i} v_i, i = j..0, plus the source row <1|T|R> for v_0
    logs = [np.full((3 * (j + 1) + (j == 0), dim), -np.inf) for j in range(k)]
    signs = [np.zeros_like(lg) for lg in logs]
    logs[0][3, 1] = math.log(0.5)
    signs[0][3, 1] = 1.0
    sg = [np.zeros(dim) for _ in range(k)]
    lg = [np.full(dim, -np.inf) for _ in range(k)]
    at_L_sign, at_L_log = np.zeros(n + 1), np.full(n + 1, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            new = []
            for j in range(k):
                tl, ts = logs[j], signs[j]
                for r, i in enumerate(range(j, -1, -1)):
                    bl, bs = band_logs[j - i], band_signs[j - i]
                    np.add(bl[0], lg[i], out=tl[3 * r])
                    np.multiply(bs[0], sg[i], out=ts[3 * r])
                    np.add(bl[1, 1:], lg[i][:-1], out=tl[3 * r + 1, 1:])
                    np.multiply(bs[1, 1:], sg[i][:-1], out=ts[3 * r + 1, 1:])
                    np.add(bl[2, :-1], lg[i][1:], out=tl[3 * r + 2, :-1])
                    np.multiply(bs[2, :-1], sg[i][1:], out=ts[3 * r + 2, :-1])
                new.append(_reference_signed_lse(ts, tl))
            sg, lg = zip(*new)
            at_L_sign[m], at_L_log[m] = sg[-1][0], lg[-1][0]
    return [SignedLog(float(sign), float(log)) for sign, log in zip(at_L_sign, at_L_log)]


def _assert_same_log_rows(got, want):
    """Signs and logs equal bit for bit where finite; NaN and +-inf in the same places."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert got.shape == want.shape
    for test in (np.isnan, np.isneginf, np.isposinf, np.isfinite):
        assert np.array_equal(test(got), test(want))
    finite = np.isfinite(want)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


def _logs(bands):
    with np.errstate(divide="ignore"):
        return [np.log(band) for band in bands]


def _log_rows(log_bands, n, jet=None):
    """The rows of every coefficient of the log pass of ``log_bands``, from order 0 on."""
    return np.atleast_2d(_jet_series(log_bands, n, jet, _LOGS))


def _jet_of(names):
    """The recurrence of the log pass of ``names``: sum_defect_log's for (|T|, D+, D-)."""
    return _SPLIT_JET if "D+" in names else None


_EASY_AXIS = [0.5j, 1.3j, math.acosh(2) * 1j, math.pi + 1.3j, math.acosh(1e80) * 1j]


# every jet whose bands are nonnegative: dT and d2T/2 change sign in the easy plane
@pytest.mark.parametrize("names, eta", [
    (names, eta) for names in (("T",), ("T", "D+", "D-"))
    for eta in [0.3, math.acos(0.37), 2.5] + _EASY_AXIS] + [
    (names, eta) for names in (("T", "dT", "d2T/2"), ("T", "dT", "F")) for eta in _EASY_AXIS])
def test_log_engine_rows_are_the_reference_loop_bit_for_bit(names, eta):
    # on the live bands of n's own pass (cut below the cosh^2 overflow of
    # Delta = 2, cosh 1.3 and -cosh 1.3, in range of the n = 1200 pass, run
    # for the bracket only; at Delta = 1e80 only L is left) and on bands
    # truncated at d below it; (|T|, D+, D-) gives order 1 of (|T|, D+) and
    # of (|T|, D-), each bit for bit
    for n in (1, 2, 3, 7, 50, 201) + ((1200,) if names == ("T",) else ()):
        for d in (None, 1, 3, n):
            with np.errstate(over="ignore"):
                bands = (_live_bands(names, n, eta) if d is None
                         else _logs(_bands(names, n, d, eta)))
            if not all((band < np.inf).all() for band in bands):
                continue  # past the overflow: the live bands alone are cut there
            if "D+" in names:
                got = _log_rows(bands, n, _SPLIT_JET)[1:]
                want = [_reference_jet_series([bands[0], part], n, "log") for part in bands[1:]]
            else:
                got, want = _log_rows(bands, n)[-1:], [_reference_jet_series(bands, n, "log")]
            for rows, reference in zip(got, want):
                _assert_same_log_rows(rows, reference)


def _assert_close_log_rows(got, want, rel=1e-14):
    """Signs equal, logs finite in the same places and within rel of each other there."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got[..., 0], want[..., 0], equal_nan=True)
    finite = np.isfinite(want[..., 1])
    assert np.array_equal(np.isfinite(got[..., 1]), finite)
    assert np.array_equal(got[..., 1][~finite], want[..., 1][~finite], equal_nan=True)
    got, want = got[..., 1][finite], want[..., 1][finite]
    assert np.all(np.abs(got - want) <= rel * np.abs(want))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("delta", sorted({point[0] for fault in known_faults.FAULTS
                                          for point in fault.points}))
def test_log_rows_are_the_signed_reference_loop_to_1e_14(delta):
    # at every registered Delta, across the cosh^2 overflow (n = 541/542 at
    # Delta = 2, 739/740 at -1.5): every row of each bracket pass, with the
    # live and dead rows of the loop that kept the overflowed columns and
    # took their NaN terms as unreachable, and the defect sum of its own pass
    # where its bracket passes the checks, the difference of two unsigned rows
    eta = eta_from_delta(delta)
    for n in (2, 3, 4, 5, 37, 136, 238, 541, 542, 739, 740, 1200):
        with np.errstate(over="ignore"):
            bands = _bands(("T", "D"), n, None, eta)
        _assert_close_log_rows([(float(log > -math.inf), log) for log in bracket_LTnR_log(n, eta)],
                               _reference_jet_log(bands[:1], n))
        try:
            row = sum_defect_log(n, eta)
        except ArithmeticError:  # its bracket fails the checks, as bracket_LTnR's does
            with pytest.raises(ArithmeticError):
                bracket_LTnR(n, eta)
            continue
        _assert_close_log_rows([row], _reference_jet_log(bands, n)[n:])


@pytest.mark.parametrize("names, eta", [(("T",), math.acosh(2) * 1j), (("T", "D+", "D-"), 1.3j),
                                        (("T", "dT", "F"), 1.3j), (("T", "dT", "d2T/2"), 0.5j)])
def test_log_rows_do_not_depend_on_how_far_the_pass_runs(names, eta):
    # the cone of a pass to n_max is not that of a pass to n <= n_max, nor
    # are its chunk edges: rows m <= n agree all the same
    n_max = 400
    for d in (3, 70, 200):
        bands = _logs(_bands(names, n_max, d, eta))
        full = _log_rows(bands, n_max, _jet_of(names))
        for n in (31, 32, 33, 257):
            _assert_same_log_rows(full[:, :n + 1], _log_rows(bands, n, _jet_of(names)))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("names, delta", [
    (names, delta) for names in (("T", "D+", "D-"), ("T", "dT", "F"))
    for delta in (1.1, 2.0, -1.5, 100.0, 1e80)] + [(("T", "D+", "D-"), 0.5)])
def test_order_zero_of_every_log_jet_is_the_bracket(names, delta):
    # the premise of the bracket checks on a jet's own pass: its order 0
    # propagates |T| alone, past the overflow (Delta = 2, n = 601) and in
    # the (|T|, D+, D-) pass of the defect sum included
    eta = eta_from_delta(delta)
    for n in (2, 5, 37, 601):
        orders = _log_rows(_live_bands(names, n, eta), n, _jet_of(names))
        assert len(orders) == len(names)
        _assert_same_log_rows(orders[0], bracket_LTnR_log(n, eta))


@pytest.mark.filterwarnings("ignore:defect-sum window fit")
def test_rational_passes_share_one_batch_for_mixed_windows():
    points = [(2, 1, 100), (5, 2, 100), (7, 3, 120), (9, 8, 160)]
    batch = rational_defects(points)
    assert list(batch) == [(p, q) for p, q, _ in points]
    for p, q, window in points:
        eta, d = q * math.pi / p, p - 1
        series = batch[p, q]
        assert series.size == 2 * 160 + 1
        _assert_same_rows(series[:2 * window + 1], truncated(("T", "D"), 2 * window, eta, d))
        assert xi_coefficient_rational(p, q, window, series) == \
            xi_coefficient_rational(p, q, window)


def test_a_rational_series_short_of_its_window_raises():
    # the window [n, 2n] needs rows 0..2n of the series
    series = rational_defects([(3, 1, 100)])[3, 1]
    assert xi_coefficient_rational(3, 1, 100, series) == xi_coefficient_rational(3, 1, 100)
    for short in (series[:200], series[:150], series[:1]):
        with pytest.raises(ValueError, match="before the window's end 200"):
            xi_coefficient_rational(3, 1, 100, short)


def test_f0_delta_log_route_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    n, delta = 200, 1.1
    params = ChainParams(n=n, delta=delta, lam=1.0, mu=1.0)
    est = f0_delta(params)
    with mp.workdps(30):
        expected = mp.log(mp_f0_delta_bracket(n, delta, mp) / (2 * (delta ** 2 - 1)))
    assert est.value == math.inf  # past the double range: only log_value holds it
    assert est.log_value == pytest.approx(float(expected), rel=1e-13)
    assert f0_delta(params.replace(lam=0.0)).value == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("delta, n", [(10.0, 235), (10.0, 236), (10.0, 237),
                                      (100.0, 133), (100.0, 134), (100.0, 135)])
def test_f0_delta_raises_or_is_exact_past_its_band_overflow(delta, n):
    # the first dT or F column past the doubles is 118 at Delta = 10 and 67 at
    # 100, one below |T|'s: from n//2 = 118 (67) on, the overflowed terms reach
    # the row, and a row that dropped them would be low by ~1.44 in the log
    mp = pytest.importorskip("mpmath")
    params = ChainParams(n=n, delta=delta, lam=1.0, mu=1.0)
    with mp.workdps(40):
        expected = float(mp.log(mp_f0_delta_bracket(n, delta, mp)
                                / (2 * (delta ** 2 - 1))))
    try:
        log_value = f0_delta(params).log_value
    except ArithmeticError as exc:
        assert "past the double range reached it" in str(exc)
        assert n // 2 >= (118 if delta == 10.0 else 67)
    else:
        assert log_value == pytest.approx(expected, rel=1e-12)
        assert n in (235, 133)  # the rows below the overflow give a value


def central_second_eta_derivative(n, eta):
    """d^2/dt^2 <L|T^n|R> by step-1e-4 and 5e-5 central stencils with one
    Richardson level, t the real parametrization of eta (eta = i t for
    |Delta| > 1); the two stencils must agree to 1e-3."""
    t0, easy_axis = _split_eta(eta)
    reconstruct = (lambda t: 1j * t) if easy_axis else (lambda t: complex(t))

    def d2(h):
        bp = bracket_series(n, reconstruct(t0 + h))[n]
        b0 = bracket_series(n, reconstruct(t0))[n]
        bm = bracket_series(n, reconstruct(abs(t0 - h)))[n]
        return (bp - 2 * b0 + bm) / h ** 2

    coarse, fine = d2(1e-4), d2(5e-5)
    richardson = (4 * fine - coarse) / 3
    assert abs(fine - coarse) / 3 <= 1e-3 * max(abs(richardson), 1e-30) + 1e-12
    return richardson


def test_second_derivative_analytic_vs_central():
    for delta, n in [(0.5, 10), (0.9, 16), (2.0, 8)]:
        eta = eta_from_delta(delta)
        a = second_eta_derivative_bracket(n, eta)[n]
        c = central_second_eta_derivative(n, eta)
        assert abs(a - c) / abs(a) < 1e-5


# --- isotropic expansions ---------------------------------------------------

def test_isotropic_series_leading():
    assert isotropic_bracket_series(4, 0.0) == 1.5


def test_isotropic_series_vs_exact():
    val = isotropic_bracket_series(6, 0.01)
    exact = bracket_series(6, 0.01)[6]
    assert abs(val - exact) / exact < 1e-8


def test_isotropic_series_quartic_structure():
    # fit the eta-dependence of the exact bracket and compare the first
    # two correction coefficients with the series
    n = 5
    etas = np.linspace(1e-3, 8e-3, 9)
    exact = np.array([bracket_LTnR(n, e) for e in etas])
    coeffs = np.polyfit(etas ** 2, exact, 2)  # quadratic in eta^2
    c2_expected = -n * (n - 1) * (n - 2) / 24
    c4_expected = n * (n - 1) * (n - 2) / 24 * (3 * n - 7) / 6
    assert abs(coeffs[1] - c2_expected) / abs(c2_expected) < 1e-6
    assert abs(coeffs[0] - c4_expected) / abs(c4_expected) < 1e-2


def test_isotropic_series_warns_out_of_regime():
    with pytest.warns(UserWarning):
        isotropic_bracket_series(100, 0.1)
    with pytest.warns(UserWarning):
        isotropic_f_delta(ChainParams(n=100, delta=math.cos(0.1), lam=1.0))


@pytest.mark.parametrize("easy_axis", [False, True])
def test_isotropic_series_on_both_sides_of_delta_one(easy_axis):
    # both series are polynomials in eta^2, and eta^2 = -t^2 at Delta = cosh t:
    # the bracket is exact through eta^6 and F_Delta through eta^2
    for n in (4, 10, 40):
        for t in (1e-3, 3e-3):
            eta = 1j * t if easy_axis else t
            b = float(bracket_series(n, eta)[n])
            assert abs(isotropic_bracket_series(n, eta) - b) < 1e-12 * b
            delta = math.cosh(t) if easy_axis else math.cos(t)
            params = ChainParams(n=n, delta=delta, lam=1.0, mu=1.0)
            f = f0_delta(params).value
            assert abs(isotropic_f_delta(params) - f) < (1e-9 + 0.02 * (n * t) ** 4) * f


def test_isotropic_f_delta_matches_dense_qfi():
    # the eta^2 coefficient is (n - 3)(27n - 68)/5; what is left is O(eta^4)
    eta = 0.03
    for n in (4, 5, 6):
        params = ChainParams(n=n, delta=math.cos(eta), lam=1e-4, mu=1.0)
        dense = qfi_parametric(params, "Delta", ness_perturbative).value
        assert abs(isotropic_f_delta(params) - dense) < 0.02 * (n * eta) ** 4 * dense


def test_isotropic_series_serve_delta_below_minus_one():
    delta = math.cosh(1e-3)
    assert (isotropic_bracket_series(6, eta_from_delta(-delta))
            == isotropic_bracket_series(6, eta_from_delta(delta)))
    params = ChainParams(n=6, delta=delta, lam=1.0)
    assert isotropic_f_delta(params.replace(delta=-delta)) == isotropic_f_delta(params)


def test_isotropic_f_delta_values():
    assert np.isclose(
        isotropic_f_delta(ChainParams(n=4, delta=1.0, lam=1.0, mu=1.0)), 1.25)
    assert np.isclose(
        isotropic_f_delta(ChainParams(n=3, delta=1.0, lam=1.0, mu=1.0)), 0.125)


def test_isotropic_f_delta_matches_f0_delta():
    delta = 1 - 1e-8
    params = ChainParams(n=6, delta=delta, lam=1.0, mu=1.0)
    assert abs(f0_delta(params).value
               - isotropic_f_delta(params)) / isotropic_f_delta(params) < 1e-3


# --- Jordan structure -------------------------------------------------------

def bulk_eigenvalues(d, eta):
    """Eigenvalues of the dense bulk block T' by a general eig, by decreasing |tau|."""
    taus = np.linalg.eigvals(build_transfer(d, eta).T[2:, 2:]).real
    return taus[np.argsort(-np.abs(taus))]


def test_jordan_d1_delta0():
    assert jordan_decompose(1, eta_from_delta(0.0)) == -0.25


def test_jordan_rejects_rational_overtruncation():
    # d >= p puts an absorbing bulk state at eigenvalue 1: sin(3t) rounds
    # to 1.2e-16 at t = pi/3, and the bound B names the k = 3 term
    with pytest.raises(ArithmeticError, match=re.escape("d <= |p| - 1")) as info:
        jordan_decompose(3, math.pi / 3)
    bound = float(re.search(r"B = (\S+) is not <= 1e-8", str(info.value)).group(1))
    assert bound > 1 and "worst term k = 3" in str(info.value)
    # t = 0 (Delta = 1): every sin(tk) vanishes and B is NaN, which raises too
    with pytest.raises(ArithmeticError, match="B = nan"):
        jordan_decompose(5, 0.0)
    with pytest.raises(ValueError, match="truncation index"):
        jordan_decompose(0, math.pi / 3)


@pytest.mark.parametrize("delta", [0.44, -0.44])
def test_jordan_chi1_next_to_a_rational_point(delta):
    # eta/pi = 0.354978... is 8.3e-8 from 82/231: a bulk eigenvalue lies
    # within 1e-10 of 1, but sin(231 t) = 6.0e-5 keeps the rounding bound
    # at B = 1.9e-9
    mp = pytest.importorskip("mpmath")
    chi1 = jordan_decompose(400, eta_from_delta(delta))
    with mp.workdps(60):
        expected = mp_chi1(delta, 400, mp)
        assert abs((chi1 - expected) / expected) <= 1e-9


@pytest.mark.parametrize("delta", [0.94, -0.17, 1 / 3, 0.6])
def test_jordan_chi1_matches_a_multiprecision_solve(delta):
    # d = 400 next to rational points: the closed form is 1.8e-10 off at
    # Delta = 0.94 (the rounding of eta k in sin), an elimination on 1 - S
    # built from 1 - cos^2 1.9e-7 and the similarity V^-1 of one eigh 2.8e-6
    mp = pytest.importorskip("mpmath")
    d = 400
    with mp.workdps(60):
        expected = mp_chi1(delta, d, mp)
        chi1 = jordan_decompose(d, eta_from_delta(delta))
        assert abs((chi1 - expected) / expected) <= 1e-8


def test_jordan_chi1_matches_a_multiprecision_solve_at_exact_truncations():
    # every rational point with p <= 12 (d = p - 1) and the easy axis at d = 6
    mp = pytest.importorskip("mpmath")
    points = [(math.cos(q * math.pi / p), p - 1, rational_chi(p, q).chi1)
              for p in range(2, 13) for q in range(1, p) if math.gcd(p, q) == 1]
    points += [(delta, 6, jordan_decompose(6, eta_from_delta(delta)))
               for delta in (1.5, -1.5, 3.0)]
    with mp.workdps(60):
        for delta, d, chi1 in points:
            expected = mp_chi1(delta, d, mp)
            assert abs((chi1 - expected) / expected) <= 1e-13, (delta, d)


# --- continued fractions ----------------------------------------------------

def continued_fractions(k_max):
    """C_0 = 1, C_k = 1 - 1/(4 C_{k-1}) for k <= k_max, in exact arithmetic."""
    c = [Fraction(1)]
    for _ in range(k_max):
        c.append(1 - Fraction(1, 4) / c[-1])
    return c


def test_continued_fraction_values():
    assert continued_fractions(2) == [Fraction(1), Fraction(3, 4), Fraction(2, 3)]


def test_continued_fraction_recurrence_agrees():
    # closed form C_k = (k+2)/(2k+2)
    for k, c in enumerate(continued_fractions(1000)):
        assert c == Fraction(k + 2, 2 * k + 2)


# --- chi --------------------------------------------------------------------

def rational_chi(p, q):
    """chi at eta/pi = q/p on its exact truncation d = p - 1."""
    return chi_coefficient(math.cos(q * math.pi / p), p - 1)


def slope_oracle(eta, d, n_lo=100, n_hi=200):
    series = truncated(("T",), n_hi, eta, d)
    ns = np.arange(n_lo, n_hi + 1, dtype=float)
    return np.polyfit(ns, series[n_lo:], 1)[0]


@pytest.mark.parametrize("p,q,expected", [(2, 1, 0.25), (3, 1, 4 / 9)])
def test_chi_closed_form(p, q, expected):
    chi, _ = rational_chi(p, q)
    assert np.isclose(chi, expected)


# (5,2) carries a slow transient (tau_1 = 0.9218, tau_1^100 = 2.9e-4), so
# its window starts after the transient has died; at [100, 200] the exact
# windowed slope still differs from chi by 7.9e-6
@pytest.mark.parametrize("p,q,n_lo", [(2, 1, 100), (3, 1, 100), (5, 2, 250)])
def test_chi_matches_slope_oracle(p, q, n_lo):
    chi, _ = rational_chi(p, q)
    slope = slope_oracle(q * math.pi / p, p - 1, n_lo=n_lo, n_hi=2 * n_lo)
    assert abs(slope - chi) / chi < 1e-6


@pytest.mark.parametrize("p,q,n", [(3, 1, 200), (5, 2, 600), (7, 3, 2000)])
def test_chi1_is_the_intercept_of_the_bracket(p, q, n):
    # <L|T^n|R> = chi n + chi1 + sum_j c_j tau_j^n on the exact truncation,
    # read off the propagated bracket once the bulk terms have decayed
    chi, chi1 = rational_chi(p, q)
    series = truncated(("T",), n, q * math.pi / p, p - 1)
    assert max(abs(bulk_eigenvalues(p - 1, q * math.pi / p))) ** n < 1e-16
    assert math.isclose(series[n] - chi * n, chi1, rel_tol=1e-10)


def test_chi_positivity_window():
    for delta in (-0.9, -0.3, 0.2, 0.8):
        chi, _ = chi_coefficient(delta, 300)
        scaled = chi * (1 - delta ** 2)
        assert chi > 0
        assert 0.25 <= scaled < 0.5


def test_xi_validates_rational_input():
    # not coprime, q outside (0, p), p < 2; a window that starts below 8
    for p, q in ((4, 2), (3, 3), (5, 0), (1, 1)):
        with pytest.raises(ValueError):
            xi_coefficient_rational(p, q, 100)
    with pytest.raises(ValueError, match="window_start >= 8"):
        xi_coefficient_rational(3, 1, 7)


@pytest.mark.parametrize("d", [0, -5])
def test_chi_rejects_a_bad_truncation(d):
    # an error, not a row with chi1 = nan and a warning; the dense T and D alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="truncation index"):
            chi_coefficient(0.3, d)
    with pytest.raises(ValueError, match="truncation index"):
        build_transfer(d, eta_from_delta(0.3))


@pytest.mark.parametrize("delta", [1.0, -1.0, 2.0])
def test_chi_is_defined_in_the_easy_plane_only(delta):
    with pytest.raises(ValueError, match=re.escape("chi is defined for |Delta| < 1")):
        chi_coefficient(delta, 5)


def test_chi_second_derivative_closed_form():
    step = 1e-4
    for delta, d in ((0.5, 2), (0.0, 1), (0.3, 9)):
        exact = d / (d + 1) * (2 * delta ** 2 + 1) / (1 - delta ** 2) ** 2
        assert np.isclose(chi_second_derivative(delta, d), exact, rtol=1e-12)
        # central-difference oracle on chi(eta) = d/(2(d+1))/sin^2(eta)
        eta = math.acos(delta)
        chi = lambda e: d / (2 * (d + 1)) / math.sin(e) ** 2
        fd = (chi(eta + step) - 2 * chi(eta) + chi(eta - step)) / step ** 2
        assert np.isclose(chi_second_derivative(delta, d), fd, rtol=1e-6)


# --- xi ---------------------------------------------------------------------

def test_xi_rational_constant_in_n():
    vals = [xi_coefficient_rational(3, 1, n).xi for n in (200, 400, 800)]
    assert np.ptp(vals) < 1e-4 * abs(np.mean(vals))


def test_xi_rational_agrees_with_full_matrix_limit():
    # the restricted-window value equals the large-n limit of the
    # full-matrix combination [sum_defect - d2/4]/n, where the secular
    # n^2 pieces cancel; convergence is O(1/n)
    xi_restricted = xi_coefficient_rational(3, 1, 400).xi
    n, eta = 2000, math.acos(0.5)
    sd = float(defect_series(n, eta)[n])
    d2 = second_eta_derivative_bracket(n, eta)[n]
    xi_full = (sd - 0.25 * d2) / (2 * (1 - 0.5 ** 2) * n)
    assert abs(xi_full - xi_restricted) / abs(xi_restricted) < 0.05


@pytest.mark.parametrize("p, q", [(3, 1), (5, 2), (6, 1), (7, 2), (8, 3)])
def test_rational_xi1_is_the_slope_of_a_long_window(p, q):
    # the closed form against the program's fit over [4000, 8000], where the
    # transients have decayed (the largest gap is 3.4e-13, at (7, 2))
    assert xi_coefficient_rational(p, q, 4000).xi1 == pytest.approx(rational_xi1(p, q), rel=1e-12)


@pytest.mark.parametrize("p, q, plus", [(3, 1, 1.152263374), (5, 2, 5.985140099),
                                        (7, 2, 51.10796116)])
def test_the_f_delta_jet_grows_with_the_plus_form_of_rational_xi(p, q, plus):
    # on the d = p - 1 bands the (|T|, dT, F) jet, twice the F_Delta bracket,
    # grows with slope 4 (1 - Delta^2) (xi1 + chi''/4) / (2 (1 - Delta^2))
    eta, delta, d = q * math.pi / p, math.cos(q * math.pi / p), p - 1
    rows = _jet_series(_bands(("T", "dT", "F"), 4000, d, eta), 4000)
    slope = (rows[4000] - rows[2000]) / 2000 / (4 * (1 - delta ** 2))
    right = (rational_xi1(p, q) + chi_second_derivative(delta, d) / 4) / (2 * (1 - delta ** 2))
    assert slope == pytest.approx(right, rel=1e-12)
    assert right == pytest.approx(plus, rel=1e-9)


def test_rational_xi_rows_are_the_arbiter_or_registered_wrong(tmp_path):
    # the default scan (0.25 s): each xi1 against oracles.rational_xi1, each
    # xi against the "+" form above; a registered column must read wrong, and
    # xi must be the printed "-" form, so a fix deletes its entries
    out = tmp_path / "xi.csv"
    run_scan(ScanSpec(kind="xi-vs-eta-rational", options={}, out=str(out)))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    tol, wrong = known_faults.RATIONAL_XI_TOL, known_faults.RATIONAL_XI_WRONG
    assert sorted((int(row["p"]), int(row["q"])) for row in rows) == sorted(wrong["xi"])
    for row in rows:
        pq = int(row["p"]), int(row["q"])
        xi, xi1, chi_dd, delta = (float(row[c]) for c in ("xi", "xi1", "chi_dd", "delta"))
        arbiter = rational_xi1(*pq)
        right = {"xi": (arbiter + chi_dd / 4) / (2 * (1 - delta ** 2)), "xi1": arbiter}
        for column, value in (("xi", xi), ("xi1", xi1)):
            held = abs(value - right[column]) <= tol * abs(right[column])
            assert held == (pq not in wrong[column]), (column, pq, value, right[column])
        assert xi == (xi1 - chi_dd / 4) / (2 * (1 - delta ** 2))


def test_xi_irrational_route_is_f0_delta_per_site():
    delta = 0.37
    for n in (2, 3, 4, 5, 6, 7, 40):
        params = ChainParams(n=n, delta=delta, lam=1.0, mu=1.0)
        assert np.isclose(xi_coefficient(delta, n).xi_n, f0_delta(params).value,
                          rtol=1e-12)


def test_xi_irrational_growth_window():
    ns = [100, 400, 1600]
    vals = [xi_coefficient(0.1, n).xi_n for n in ns]
    expo = np.polyfit(np.log(ns), np.log(np.abs(vals)), 1)[0]
    assert 2.0 <= expo <= 5.0


def test_xi_near_rational_initial_slope_two():
    ns = [50, 100, 200, 400]
    vals = [xi_coefficient(0.4999, n).xi_n for n in ns]
    expo = np.polyfit(np.log(ns), np.log(np.abs(vals)), 1)[0]
    assert 1.7 <= expo <= 2.3


@pytest.mark.filterwarnings("ignore:defect-sum window fit")
def test_xi_unbounded_in_denominator():
    vals = []
    for p in (3, 5, 8):
        vals.append(xi_coefficient_rational(p, 1, max(100, 20 * (p - 1))).xi)
    assert vals[1] > 10 * vals[0]
    assert vals[2] > 10 * vals[1]


# --- easy axis --------------------------------------------------------------

def test_easy_axis_chain_of_inequalities(easy_axis_lower_bound):
    eta = eta_from_delta(2.0)
    prev = None
    for n in range(4, 31, 2):
        b = easy_axis_lower_bound(n, eta)
        assert b.log_bound <= b.log_path <= b.log_bracket
        prev = b


def test_easy_axis_superexponential(easy_axis_lower_bound):
    eta = eta_from_delta(2.0)
    logs = [easy_axis_lower_bound(n, eta).log_bracket for n in range(4, 31, 2)]
    second = np.diff(logs, 2)
    assert np.all(second[2:] > 0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_easy_axis_path_does_not_overflow(easy_axis_lower_bound):
    # sinh(k t) leaves the double range at the first two; the path in logs
    # does not, and a known fault of the bracket is reported, not an OverflowError
    for delta, n in ((100.0, 300), (10.0, 480), (2.0, 540)):
        eta = eta_from_delta(delta)
        assert math.isfinite(check_single_path(n, eta, math.inf))
        with known_faults.expect("validity-report", delta=delta, n=n):
            b = easy_axis_lower_bound(n, eta)
            assert b.log_bound <= b.log_path <= b.log_bracket
    t = math.acosh(2.0)
    direct = -30 * math.log(2.0) + sum(
        2 * (math.log(math.sinh(k * t)) + math.log(math.sinh((k + 1) * t)))
        for k in range(1, 15))
    assert math.isclose(easy_axis_lower_bound(30, eta_from_delta(2.0)).log_path,
                        direct, rel_tol=1e-14)


def test_easy_axis_rejects_bad_input(easy_axis_lower_bound):
    with pytest.raises(ValueError):
        easy_axis_lower_bound(7, eta_from_delta(2.0))
    with pytest.raises(ValueError):
        easy_axis_lower_bound(8, eta_from_delta(0.5))


def test_easy_axis_bound_degenerates_toward_isotropic(easy_axis_lower_bound):
    # t -> 0+: the factorial bound carries t^(2n-4) and collapses to zero
    logs = [easy_axis_lower_bound(8, 1j * t).log_bound for t in (0.5, 0.05, 0.005)]
    assert logs[0] > logs[1] > logs[2]
    assert math.exp(logs[2]) < 1e-25


def path_log_weight(n, eta):
    """log of the product of |T| entries along R -> |1> ... |n//2> ... |1> -> L,
    resting once at |n//2> for odd n, read off the dense transfer matrix."""
    m = n // 2
    ts = build_transfer(m, eta)
    tops = [m] * (n % 2 + 1)
    path = ["R", *range(1, m), *tops, *range(m - 1, 0, -1), "L"]
    return sum(math.log(abs(ts.T[ts.index(b), ts.index(a)])) for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("delta", [1.1, 2.0, -1.5, 100.0])
def test_single_path_is_one_path_of_the_bracket(delta):
    # even n: the climb and descent; odd n: the same with one diagonal
    # step cosh^2(t (n-1)/2) at the top; each lies under the bracket
    eta = eta_from_delta(delta)
    for n in range(4, 32):
        log_bracket = bracket_LTnR(n, eta).log
        log_path = check_single_path(n, eta, log_bracket)
        assert math.isclose(log_path, path_log_weight(n, eta), rel_tol=1e-13)
        assert log_path <= log_bracket
        with pytest.raises(ArithmeticError, match=r"cosh\^2 overflow"):  # a bracket just below
            check_single_path(n, eta, log_path - 1e-9 * abs(log_path))
    assert check_single_path(3, eta, 0.0) is None
    assert check_single_path(5, eta_from_delta(0.5), 0.0) is None


@pytest.mark.parametrize("route", [bracket_LTnR_log, bracket_LTnR, sum_defect, sum_defect_log,
                                   bracket_series, defect_series,
                                   second_eta_derivative_bracket, _xi_series],
                         ids=lambda route: route.__name__)
def test_the_log_and_auto_routes_take_no_truncation(route):
    # a log row of a pass truncated below n//2 may lie below the single
    # path with no check to see it (Delta = 2, n = 600: 159 lower in the log
    # at d = 271..299 than at d = 270), so these routes run the full pass
    # only; so do the float series: every propagator takes (n, eta)
    eta = eta_from_delta(2.0)
    with pytest.raises(TypeError):
        route(20, eta, 10)
    with pytest.raises(TypeError):
        route(20, eta, d=10)


def _counted_passes(monkeypatch) -> dict:
    """{"float": _jet_series calls in floats, "log": those in logs} from here on."""
    calls, jet_series = {"float": 0, "log": 0}, transfer._jet_series

    def counted(bands, n, jet=None, ring=transfer._FLOATS):
        calls["log" if ring is _LOGS else "float"] += 1
        return jet_series(bands, n, jet, ring)
    monkeypatch.setattr(transfer, "_jet_series", counted)
    return calls


def test_the_phase_picks_the_engine(monkeypatch):
    # past the float overflow no float pass runs to be thrown away; in the
    # easy plane the float row is read, and no log pass runs
    calls = _counted_passes(monkeypatch)
    eta = eta_from_delta(2.0)
    assert isinstance(bracket_LTnR(500, eta), SignedLog)
    assert isinstance(sum_defect(500, eta), SignedLog)
    # one pass each: the defect jet checks the bracket through its own order 0
    assert calls == {"float": 0, "log": 2}
    assert math.isfinite(f0_delta(ChainParams(n=500, delta=2.0, lam=1.0, mu=1.0)).log_value)
    assert calls == {"float": 0, "log": 3}
    eta = eta_from_delta(0.37)
    assert bracket_LTnR(500, eta) == bracket_series(500, eta)[500]
    assert sum_defect(500, eta) == defect_series(500, eta)[500]
    assert calls == {"float": 4, "log": 3}


def test_a_xi_line_runs_one_float_pass_per_delta(monkeypatch, tmp_path):
    # the defect sum and the second derivative come from one jet that steps
    # |T| once: one pass per Delta for a line, and for a row asked alone
    calls = _counted_passes(monkeypatch)
    summary = run_scan(ScanSpec(kind="xi-n-vs-n", options={"delta": (0.37, -0.6),
                                                           "n_range": (10, 400, 39)},
                                out=str(tmp_path / "xi.csv")))
    assert (summary["rows"], summary["failures"]) == (22, 0)
    assert calls == {"float": 2, "log": 0}
    xi_coefficient(0.37, 300)
    assert calls == {"float": 3, "log": 0}


def test_a_log_line_shares_its_pass_with_the_rows_below_the_cut(monkeypatch):
    # Delta = 2: the first overflowed column is J = 271, and a pass to 1000
    # cuts its bands at c = 269, so the rows with n//2 <= 269 share it as
    # those with n//2 >= 271 do: one log pass for the line, each row the
    # bits of its own pass; only n//2 = 270, between c and J, takes its own
    eta = eta_from_delta(2.0)
    assert [_kept_columns(eta, d) for d in (270, 271, 500)] == [270, 269, 269]
    calls, passes = _counted_passes(monkeypatch), LinePasses()
    rows = {n: passes(bracket_LTnR_log, n, eta)[n] for n in range(1000, 99, -100)}
    assert calls == {"float": 0, "log": 1}
    for n, row in rows.items():
        assert row.tobytes() == bracket_LTnR_log(n, eta)[n].tobytes()
    assert calls == {"float": 0, "log": 11}
    passes(bracket_LTnR_log, 541, eta)
    assert calls == {"float": 0, "log": 12}


@pytest.mark.parametrize("delta, first, kept", [(2.0, 271, 269), (-1.5, 370, 368),
                                                (100.0, 68, 66), (10.0, 119, 117)])
def test_rows_around_the_cut_are_those_of_their_own_passes(monkeypatch, delta, first, kept):
    # J = first, the first overflowed column, and the columns a log pass past
    # it keeps; asked from the largest n down, the rows with n//2 at or below
    # the cut or at or past J share the line's pass, and n//2 = J - 1 takes
    # the one more pass, which the rows below it share
    eta = eta_from_delta(delta)
    assert [_kept_columns(eta, d) for d in (first - 1, first, 500)] == [first - 1, kept, kept]
    halves = (kept - 1, kept, kept + 1, first - 1, first, first + 1, 500)
    calls, passes = _counted_passes(monkeypatch), LinePasses()
    rows = {2 * m: passes(bracket_LTnR_log, 2 * m, eta)[2 * m] for m in sorted(halves, reverse=True)}
    assert calls == {"float": 0, "log": 2}
    for n, row in rows.items():
        assert row.tobytes() == bracket_LTnR_log(n, eta)[n].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
@pytest.mark.parametrize("d", [271, 280, 299])
def test_truncated_float_series_past_the_overflow_are_not_finite(d):
    # a float pass truncated past the cosh^2 overflow (Delta = 2, n = 600;
    # first overflowed column J = 271) gives rows that are visibly not finite
    eta = eta_from_delta(2.0)
    assert (_kept_columns(eta, 270), _kept_columns(eta, 271)) == (270, 269)
    assert not math.isfinite(truncated(("T",), 600, eta, d)[600])
    assert not math.isfinite(truncated(("T", "D"), 600, eta, d)[600])


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("fault", [f for f in known_faults.FAULTS if f.direction == 4],
                         ids=lambda fault: fault.name)
def test_library_calls_raise_where_a_bracket_fault_starts(fault):
    # f0_x, f0_delta, hs_norm_sq_via_transfer, validity_threshold and the
    # log branches of bracket_LTnR, sum_defect and sum_defect_log read the
    # bracket through the checks of a scan row: the first two registered rows
    # at each signed Delta raise (odd n included); in the row below, the
    # bracket keeps its bits, and f0_delta past the single path raises, as
    # its dT and F bands overflow a few columns before |T| (n//2 = 266 at
    # Delta = 2, 363 at -1.5, 118 at 10 and 67 at 100, each at or below that
    # row's n//2)
    for delta in sorted({point[0] for point in fault.points}):
        n, eta = min(p[-1] for p in fault.points if p[0] == delta), eta_from_delta(delta)
        for m in (n, n + 1):
            params = ChainParams(n=m, delta=delta, lam=1.0, mu=1.0)
            for call in (lambda: f0_x(params, "lambda"), lambda: f0_delta(params),
                         lambda: hs_norm_sq_via_transfer(m, eta),
                         lambda: validity_threshold(m, eta, 1.0),
                         lambda: bracket_LTnR(m, eta), lambda: sum_defect(m, eta),
                         lambda: sum_defect_log(m, eta)):
                with pytest.raises(ArithmeticError, match=re.escape(fault.error)):
                    call()
        below = params.replace(n=n - 1)
        row, log_norm = float(bracket_LTnR_log(n - 1, eta)[n - 1]), (n - 1) * math.log(2.0)
        assert f0_x(below, "lambda").log_value == row - math.log(2.0)
        assert hs_norm_sq_via_transfer(n - 1, eta).log == row + log_norm
        assert (validity_threshold(n - 1, eta, 1.0).log
                == _log_threshold(n - 1, 1.0, row + log_norm))
        if fault.error == known_faults.LOST:  # n - 1 = 3, d = 1: no band entry overflows
            top = _log_rows(_live_bands(("T", "dT", "F"), n - 1, eta), n - 1)[-1, n - 1]
            assert f0_delta(below).log_value == top + math.log(
                1 / (4 * abs((1 - delta) * (1 + delta))))  # the prefactor at lam = mu = J = 1
        else:
            with pytest.raises(ArithmeticError, match="past the double range reached it"):
                f0_delta(below)


# --- Toeplitz ---------------------------------------------------------------

def toeplitz_eigs(d):
    """Ascending eigenvalues of A = 1 - (shift + shift^T)/2."""
    return np.linalg.eigvalsh(np.eye(d) - 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1)))


def test_toeplitz_examples():
    assert np.allclose(toeplitz_eigs(1), [1.0])
    assert np.allclose(toeplitz_eigs(2), [0.5, 1.5])


def test_toeplitz_spectrum_matches_formula():
    for d in (5, 23, 50):
        analytic = np.sort(1 - np.cos(np.arange(1, d + 1) * np.pi / (d + 1)))
        assert np.max(np.abs(toeplitz_eigs(d) - analytic)) < 1e-12
