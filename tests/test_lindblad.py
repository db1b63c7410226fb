import numpy as np
import pytest

from xxz_metrology.model import ChainParams, hs_norm, pauli
from xxz_metrology.lindblad import (apply_liouvillian, build_liouvillian,
                                    calibrate_epsilon, ness_mu1,
                                    ness_perturbative, steady_state_nullspace)


def vec(rho):
    return rho.flatten(order="F")


def test_trace_functional_is_left_null_vector():
    params = ChainParams(n=3, delta=0.8, lam=0.4, mu=0.3, omega=0.2)
    liouv = build_liouvillian(params)
    tr = vec(np.eye(8, dtype=complex)).conj()
    assert np.linalg.norm(tr @ liouv.matrix) < 1e-10 * np.linalg.norm(liouv.matrix)


def test_unitary_limit_spectrum_imaginary():
    params = ChainParams(n=2, delta=0.5, lam=0.0, mu=0.5)
    liouv = build_liouvillian(params)
    eigs = np.linalg.eigvals(liouv.matrix)
    assert np.max(np.abs(eigs.real)) < 1e-10


def test_spectrum_left_half_plane():
    params = ChainParams(n=3, delta=1.5, lam=0.7, mu=0.6)
    eigs = np.linalg.eigvals(build_liouvillian(params).matrix)
    assert eigs.real.max() < 1e-10


def test_mu_zero_maximally_mixed():
    params = ChainParams(n=2, delta=0.5, lam=0.3, mu=0.0)
    liouv = build_liouvillian(params)
    rho = np.eye(4, dtype=complex) / 4
    assert np.linalg.norm(liouv.matrix @ vec(rho)) < 1e-12
    assert np.allclose(steady_state_nullspace(liouv), rho)


def test_apply_matches_matrix():
    params = ChainParams(n=2, delta=0.3, lam=0.5, mu=0.8, omega=1.1)
    liouv = build_liouvillian(params)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a + a.conj().T
    assert np.allclose((liouv.matrix @ vec(rho)).reshape(4, 4, order="F"),
                       apply_liouvillian(rho, params))


def test_nullspace_needs_dissipation():
    params = ChainParams(n=2, delta=0.5, lam=0.0)
    with pytest.raises(ValueError):
        steady_state_nullspace(build_liouvillian(params))


def test_liouvillian_cap():
    with pytest.raises(ValueError, match="capped"):
        build_liouvillian(ChainParams(n=7, lam=0.1))


def test_perturbative_trace_and_hermiticity():
    params = ChainParams(n=3, delta=0.5, lam=1e-3, mu=0.7)
    rho, diag = ness_perturbative(params, return_diagnostics=True)
    assert abs(np.trace(rho) - 1) < 1e-14
    assert hs_norm(rho - rho.conj().T) < 1e-14
    # trace defect of the raw expansion is O((lam/J)^2)
    assert abs(diag["trace_defect"]) < 10 * (params.lam / params.j_coupling) ** 2


def test_perturbative_zeroth_order():
    rho = ness_perturbative(ChainParams(n=3, delta=0.5, lam=0.0, mu=1.0))
    assert np.allclose(rho, np.eye(8) / 8)


def test_perturbative_matches_oracle_to_third_order():
    errs = []
    lams = [1e-2, 1e-3, 1e-4]
    for lam in lams:
        params = ChainParams(n=2, delta=0.5, lam=lam, mu=1.0)
        oracle = steady_state_nullspace(build_liouvillian(params))
        pert = ness_perturbative(params)
        errs.append(max(hs_norm(pert - oracle), 1e-17))
    # n = 2 happens to terminate: errors stay at numerical noise
    assert errs[0] < 1e-12


def test_perturbative_residual_slope_three():
    lams = np.array([1e-2, 1e-3, 1e-4])
    for n in (2, 3, 4):
        res = []
        for lam in lams:
            params = ChainParams(n=n, delta=0.5, lam=lam, mu=0.7)
            res.append(hs_norm(apply_liouvillian(ness_perturbative(params), params)))
        slope = np.polyfit(np.log(lams), np.log(res), 1)[0]
        assert abs(slope - 3.0) < 0.2


def test_perturbative_warns_above_threshold():
    with pytest.warns(UserWarning, match="validity threshold"):
        ness_perturbative(ChainParams(n=2, delta=0.5, lam=5.0, mu=1.0))


def test_omega_independence():
    base = ChainParams(n=3, delta=0.5, lam=0.2, mu=0.8, omega=2.5)
    with_omega = steady_state_nullspace(build_liouvillian(base))
    without = steady_state_nullspace(build_liouvillian(base.replace(omega=0.0)))
    assert hs_norm(with_omega - without) < 1e-10


def test_mu_flip_is_spin_flip():
    # negating mu equals conjugating the steady state by the global
    # spin-flip sum of sigma^x factors
    params = ChainParams(n=3, delta=0.6, lam=0.3, mu=0.4)
    rho_plus = steady_state_nullspace(build_liouvillian(params))
    rho_minus = steady_state_nullspace(
        build_liouvillian(params.replace(mu=-0.4)))
    flip = np.eye(1, dtype=complex)
    for _ in range(3):
        flip = np.kron(flip, pauli("x"))
    assert hs_norm(flip @ rho_minus @ flip - rho_plus) < 1e-10


def test_ness_mu1_positive_and_normalized():
    params = ChainParams(n=3, delta=2.0, lam=1e-2, mu=1.0)
    rho = ness_mu1(params, epsilon=1e-2)
    assert abs(np.trace(rho) - 1) < 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_ness_mu1_requires_extreme_driving():
    with pytest.raises(ValueError):
        ness_mu1(ChainParams(n=3, delta=2.0, lam=1e-2, mu=0.5), 1e-2)


def test_ness_mu1_is_fixed_point_at_calibrated_epsilon():
    for delta in (1.5, 2.0):
        params = ChainParams(n=3, delta=delta, lam=1e-3, mu=1.0)
        cal = calibrate_epsilon(params)
        assert cal.residual < 1e-10
        rho = ness_mu1(params, cal.epsilon)
        assert hs_norm(apply_liouvillian(rho, params)) < 1e-10


def test_calibrated_epsilon_is_lambda_over_j():
    params = ChainParams(n=3, delta=2.0, lam=2e-3, mu=1.0, j_coupling=2.0)
    cal = calibrate_epsilon(params)
    assert abs(cal.epsilon - params.lam / params.j_coupling) < 1e-12


def test_calibrated_epsilon_linear_in_lambda():
    ratios = []
    for lam in (1e-3, 2e-3, 4e-3):
        params = ChainParams(n=2, delta=1.5, lam=lam, mu=1.0)
        ratios.append(calibrate_epsilon(params).epsilon / lam)
    assert np.ptp(ratios) < 1e-6 * np.mean(ratios)


def test_calibrated_epsilon_delta_independent():
    eps = []
    for delta in (1.5, 2.0, 4.0):
        params = ChainParams(n=2, delta=delta, lam=1e-3, mu=1.0)
        eps.append(calibrate_epsilon(params).epsilon)
    assert np.ptp(eps) < 1e-6 * np.mean(eps)


def test_ness_mu1_matches_nullspace_oracle():
    params = ChainParams(n=3, delta=1.5, lam=5e-3, mu=1.0)
    cal = calibrate_epsilon(params)
    closed = ness_mu1(params, cal.epsilon)
    oracle = steady_state_nullspace(build_liouvillian(params))
    assert hs_norm(closed - oracle) < 1e-9
