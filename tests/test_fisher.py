import numpy as np
import pytest
from scipy.linalg import sqrtm

from xxz_metrology.model import ChainParams, hs_norm, pauli
from xxz_metrology.fisher import (FisherEstimate, fisher_cross,
                                  optimal_estimator_variance,
                                  qfi_dense, qfi_parametric, relative_error,
                                  sld)
from xxz_metrology.lindblad import ness_perturbative
from xxz_metrology.mpo import build_aux_A, contract_to_dense
from xxz_metrology.transfer import f0_x


def random_state(rng, dim, floor=0.1):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T + floor * np.eye(dim)
    return rho / np.trace(rho).real


def random_direction(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    return h - np.trace(h) / dim * np.eye(dim)


def qubit_family(theta):
    return (np.eye(2) + theta * pauli("z")) / 2


def test_sld_qubit_example():
    L = sld(qubit_family(0.0), pauli("z") / 2)
    assert np.allclose(L, pauli("z"))


def test_sld_zero_direction():
    assert np.allclose(sld(qubit_family(0.3), np.zeros((2, 2))), 0)


def test_sld_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = random_state(rng, 4)
        drho = random_direction(rng, 4)
        L = sld(rho, drho)
        assert hs_norm(drho - (L @ rho + rho @ L) / 2) < 1e-12


def test_sld_flags_off_support_weight():
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = np.diag([-1.0, 1.0]).astype(complex)  # grows the dead subspace
    with pytest.raises(ArithmeticError):
        sld(rho, drho)


def test_qfi_qubit_closed_form():
    for theta in (0.0, 0.6):
        h = 1e-6
        drho = (qubit_family(theta + h) - qubit_family(theta - h)) / (2 * h)
        F = qfi_dense(qubit_family(theta), drho)
        assert np.isclose(F, 1 / (1 - theta ** 2), rtol=1e-8)


def test_qfi_zero_direction():
    assert qfi_dense(qubit_family(0.2), np.zeros((2, 2))) == 0


def test_qfi_dual_formulas_agree():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_state(rng, 4)
        drho = random_direction(rng, 4)
        L = sld(rho, drho)
        f1 = qfi_dense(rho, drho)
        f2 = np.real(np.trace(L @ L @ rho))
        f3 = np.real(np.trace(L @ drho))
        assert np.isclose(f1, f2, rtol=1e-10)
        assert np.isclose(f1, f3, rtol=1e-10)


def test_fisher_cross_diagonal_consistency():
    rng = np.random.default_rng(5)
    rho = random_state(rng, 4)
    drho = random_direction(rng, 4)
    assert np.isclose(fisher_cross(rho, drho, drho), qfi_dense(rho, drho),
                      rtol=1e-10)
    assert fisher_cross(rho, drho, np.zeros((4, 4))) == 0


def test_fisher_matrix_psd():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_state(rng, 4)
        dx, dy = random_direction(rng, 4), random_direction(rng, 4)
        F = np.array([[fisher_cross(rho, dx, dx), fisher_cross(rho, dx, dy)],
                      [fisher_cross(rho, dy, dx), fisher_cross(rho, dy, dy)]])
        assert np.linalg.eigvalsh(F).min() > -1e-10


def test_variance_constant_observable():
    rho = qubit_family(0.4)
    assert optimal_estimator_variance(rho, np.eye(2, dtype=complex), 5) == 0


def test_variance_sample_scaling():
    rng = np.random.default_rng(2)
    rho = random_state(rng, 4)
    zeta = random_direction(rng, 4)
    v1 = optimal_estimator_variance(rho, zeta, 1)
    v2 = optimal_estimator_variance(rho, zeta, 2)
    assert np.isclose(v1, 2 * v2)


def test_zeta_observable_saturates_leading_order():
    # delta^2 x = Var zeta_m / (d<zeta>/dx)^2 equals 1/(m F_x^(0)) for
    # the current observable at small coupling
    n, lam, m = 4, 1e-3, 7
    params = ChainParams(n=n, delta=0.5, lam=lam, mu=1.0)
    Z = contract_to_dense(build_aux_A(n, params.eta), n)
    zeta = 1j * (Z - Z.conj().T)
    rho = ness_perturbative(params)
    var = optimal_estimator_variance(rho, zeta, m)
    h = 1e-6
    mean_p = np.real(np.trace(zeta @ ness_perturbative(params.replace(lam=lam + h))))
    mean_m = np.real(np.trace(zeta @ ness_perturbative(params.replace(lam=lam - h))))
    dmean = (mean_p - mean_m) / (2 * h)
    delta2x = var / dmean ** 2
    expected = 1 / (m * f0_x(params, "lambda").value)
    assert abs(delta2x - expected) / expected < 1e-3


def test_relative_error_arithmetic():
    est = qfi_parametric(ChainParams(n=3, delta=0.5, lam=1e-3, mu=1.0), "lambda")
    fake = est.__class__(value=1.0, method="exact-dense", parameter="lambda",
                         params=est.params)
    assert relative_error(1.0, fake) == 1.0
    fake100 = est.__class__(value=100.0, method="exact-dense",
                            parameter="lambda", params=est.params)
    assert np.isclose(relative_error(0.5, fake100), 0.2)


def test_fisher_estimate_rejects_nan_and_negative_values():
    params = ChainParams(n=3, delta=0.5, lam=1e-3, mu=1.0)
    for bad in (float("nan"), -1e-300, -float("inf")):
        with pytest.raises(ValueError, match="must be >= 0"):
            FisherEstimate(value=bad, method="exact-dense", parameter="lambda",
                           params=params)
    for good in (0.0, 2.5):
        assert FisherEstimate(value=good, method="exact-dense", parameter="lambda",
                              params=params).value == good
    huge = FisherEstimate(value=float("inf"), log_value=2000.0,
                          method="leading-order", parameter="lambda", params=params)
    assert huge.log_value == 2000.0


def test_relative_error_rejects_degenerate():
    params = ChainParams(n=3, delta=0.5, lam=1e-3, mu=1.0)
    est = qfi_parametric(params, "lambda")
    with pytest.raises(ValueError):
        relative_error(0.0, est)


def test_qfi_parametric_perturbative_tracks_leading_order():
    for n in (3, 4):
        params = ChainParams(n=n, delta=0.5, lam=1e-3, mu=1.0)
        exact = qfi_parametric(params, "lambda").value
        lead = f0_x(params, "lambda").value
        assert abs(exact / lead - 1) < 1e-4


def test_qfi_parametric_oracle_builder():
    params = ChainParams(n=2, delta=0.5, lam=1e-2, mu=1.0)
    a = qfi_parametric(params, "lambda", state_builder="oracle").value
    b = qfi_parametric(params, "lambda", state_builder="perturbative").value
    assert abs(a / b - 1) < 1e-4


def test_qfi_parametric_mu_at_zero_bias():
    params = ChainParams(n=3, delta=0.5, lam=1e-3, mu=0.0)
    est = qfi_parametric(params, "mu")
    assert est.value > 0  # state is maximally mixed but d(rho)/d(mu) is not 0


def test_qfi_parametric_fig4_nonmonotone():
    vals = []
    for n in (4, 5, 6, 7, 8):
        params = ChainParams(n=n, delta=2.0, lam=1e-2, mu=1.0)
        vals.append(qfi_parametric(params, "lambda", state_builder="mu1").value)
    arr = np.array(vals)
    assert arr[1] > arr[0]          # superexponential rise
    assert arr.argmax() < len(arr) - 1  # then a decay sets in


def test_zero_derivative_zero_fisher():
    # omega never enters the steady state
    rng = np.random.default_rng(4)
    rho = random_state(rng, 4)
    assert qfi_dense(rho, np.zeros((4, 4))) == 0


def fidelity(rho, sigma):
    root = sqrtm(rho)
    inner = sqrtm(root @ sigma @ root)
    return np.real(np.trace(inner)) ** 2


def test_bures_finite_difference_identity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho0 = random_state(rng, 4)
        direction = random_direction(rng, 4)

        def family(x):
            out = rho0 + x * direction
            # keep strictly positive for small x
            return out

        h = 1e-3
        F = qfi_dense(family(0.0), direction)

        def bures_est(hh):
            f = fidelity(family(-hh / 2), family(hh / 2))
            return 8 * (1 - np.sqrt(f)) / hh ** 2

        est = (4 * bures_est(h / 2) - bures_est(h)) / 3
        assert abs(est - F) / F < 1e-4


def test_partial_trace_monotonicity():
    params = ChainParams(n=4, delta=0.5, lam=1e-2, mu=1.0)
    h = 1e-5
    rp = ness_perturbative(params.replace(lam=params.lam + h))
    rm = ness_perturbative(params.replace(lam=params.lam - h))
    rho = ness_perturbative(params)
    drho = (rp - rm) / (2 * h)
    F_full = qfi_dense(rho, drho)

    def reduce_two_site(op):
        t = op.reshape(4, 4, 4, 4)
        return np.trace(t, axis1=1, axis2=3)

    F_red = qfi_dense(reduce_two_site(rho), reduce_two_site(drho))
    assert F_red <= F_full + 1e-12


def test_sld_measurement_saturates_qfi():
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_state(rng, 4)
        drho = random_direction(rng, 4)
        L = sld(rho, drho)
        _, basis = np.linalg.eigh(L)
        p = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, rho, basis))
        dp = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, drho, basis))
        cfi = np.sum(dp[p > 1e-14] ** 2 / p[p > 1e-14])
        assert abs(cfi - qfi_dense(rho, drho)) < 1e-8 * max(1.0, cfi)
