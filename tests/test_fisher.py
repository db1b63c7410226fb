import math
import tracemalloc

import numpy as np
import pytest

import known_faults
from oracles import fisher_cross, qfi_parametric_before
from xxz_metrology import fisher
from xxz_metrology.model import ChainParams, hs_norm, magnetization_z, pauli
from xxz_metrology.fisher import (SUPPORT_TOL, FisherEstimate, qfi_dense, qfi_parametric,
                                  relative_error, sld)
from xxz_metrology.lindblad import (build_liouvillian, ness_mu1, ness_perturbative,
                                    steady_state_nullspace)
from xxz_metrology.mpo import build_aux_A, build_aux_B, contract_to_dense, solve_s
from xxz_metrology.transfer import f0_x


# oracle: no scan calls it; the tests below do

def optimal_estimator_variance(rho: np.ndarray, zeta: np.ndarray, m: int) -> float:
    """Variance of the m-sample mean of the observable zeta in state rho."""
    if m < 1:
        raise ValueError("need at least one measurement")
    if hs_norm(zeta - zeta.conj().T) > 1e-10 * max(hs_norm(zeta), 1e-300):
        raise ValueError("zeta must be hermitian")
    mean = np.real(np.trace(zeta @ rho))
    second = np.real(np.trace(zeta @ zeta @ rho))
    return float((second - mean ** 2) / m)


def random_state(rng, dim, floor=0.1):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T + floor * np.eye(dim)
    return rho / np.trace(rho).real


def random_direction(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    return h - np.trace(h) / dim * np.eye(dim)


def block_diag(*blocks):
    """The square ``blocks`` on the diagonal of one zero matrix."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=np.result_type(*blocks))
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


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
    est = qfi_parametric(ChainParams(n=3, delta=0.5, lam=1e-3, mu=1.0), "lambda",
                         ness_perturbative)
    fake = est.__class__(value=1.0, log_value=0.0, method="exact-dense")
    assert relative_error(1.0, fake) == 1.0
    fake100 = est.__class__(value=100.0, log_value=math.log(100.0), method="exact-dense")
    assert np.isclose(relative_error(0.5, fake100), 0.2)
    # F past the doubles: 1/(x sqrt(m F)) from log F, e^-500 at x = 1/2, m = 4, F = e^1000
    huge = FisherEstimate(value=math.inf, log_value=1000.0, method="leading-order")
    assert math.isclose(relative_error(0.5, huge, m=4), math.exp(-500.0), rel_tol=1e-12)


def test_fisher_estimate_rejects_nan_and_negative_values():
    for bad in (float("nan"), -1e-300, -float("inf")):
        with pytest.raises(ValueError, match="must be >= 0"):
            FisherEstimate(value=bad, log_value=math.nan, method="exact-dense")
    for good, log_good in ((0.0, -math.inf), (2.5, math.log(2.5))):
        assert FisherEstimate(value=good, log_value=log_good,
                              method="exact-dense").value == good
    huge = FisherEstimate(value=float("inf"), log_value=2000.0, method="leading-order")
    assert huge.log_value == 2000.0
    with pytest.raises(ValueError, match="unknown method 'guess'"):
        FisherEstimate(value=1.0, log_value=0.0, method="guess")


def test_unknown_parameter_labels_are_rejected():
    # the estimate carries no label: the two entry points check theirs
    params = ChainParams(n=3, delta=0.5, lam=1e-3, mu=1.0)
    with pytest.raises(ValueError, match="unknown parameter label 'omega'"):
        qfi_parametric(params, "omega", ness_perturbative)
    for label in ("omega", "Delta"):
        with pytest.raises(ValueError, match="parameter must be one of J, lambda, mu"):
            f0_x(params, label)


def test_relative_error_rejects_degenerate():
    params = ChainParams(n=3, delta=0.5, lam=1e-3, mu=1.0)
    est = qfi_parametric(params, "lambda", ness_perturbative)
    with pytest.raises(ValueError):
        relative_error(0.0, est)
    zero = FisherEstimate(value=0.0, log_value=-math.inf, method="exact-dense")
    with pytest.raises(ValueError, match="zero Fisher information"):
        relative_error(1.0, zero)


# --- the block route --------------------------------------------------------

def eigh_oracle(rho, drho):
    """One eigendecomposition of the whole state, cut at SUPPORT_TOL * max(p)."""
    p, U = np.linalg.eigh(rho)
    dr = U.conj().T @ drho @ U
    denom = p[:, None] + p[None, :]
    return U, dr, denom, denom > SUPPORT_TOL * max(p.max(), 1e-300)


def qfi_oracle(rho, drho):
    _, dr, denom, mask = eigh_oracle(rho, drho)
    return float(2 * np.sum(np.abs(dr[mask]) ** 2 / denom[mask]))


def sld_oracle(rho, drho):
    U, dr, denom, mask = eigh_oracle(rho, drho)
    L = np.zeros_like(dr)
    L[mask] = 2 * dr[mask] / denom[mask]
    L = U @ L @ U.conj().T
    return (L + L.conj().T) / 2


def test_generic_states_take_the_single_eigh_route():
    # a state with no zero entries is one block: the old route, bit for bit
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8, 16):
        for _ in range(5):
            rho, drho = random_state(rng, dim), random_direction(rng, dim)
            assert qfi_dense(rho, drho) == qfi_oracle(rho, drho)
            assert np.array_equal(sld(rho, drho), sld_oracle(rho, drho))


def test_permuted_blocks_match_the_single_eigh_route():
    rng = np.random.default_rng(19)
    sizes = (1, 3, 4, 3, 1)
    perm = rng.permutation(sum(sizes))
    rho = block_diag(*(random_state(rng, k) for k in sizes))[np.ix_(perm, perm)]
    drho = block_diag(*(random_direction(rng, k) for k in sizes))[np.ix_(perm, perm)]
    pattern = (rho != 0) | (drho != 0)
    assert sorted(len(idx) for idx in fisher._blocks(pattern)) == sorted(sizes)
    assert np.isclose(qfi_dense(rho, drho), qfi_oracle(rho, drho), rtol=1e-12, atol=0)
    L = sld_oracle(rho, drho)
    assert hs_norm(sld(rho, drho) - L) < 1e-12 * hs_norm(L)


def test_a_block_below_the_global_cut_contributes_nothing():
    # p of the small block lies below 1e-12 of the largest p of the state:
    # its pairs are cut, although a cut relative to its own largest p
    # would keep them and add `own` to F
    rng = np.random.default_rng(21)
    big, dbig = random_state(rng, 3), random_direction(rng, 3)
    small, dsmall = 1e-14 * random_state(rng, 3), 1e-9 * random_direction(rng, 3)
    rho, drho = block_diag(big, small), block_diag(dbig, dsmall)
    F = qfi_dense(rho, drho)
    own = qfi_dense(small, dsmall)
    assert F == pytest.approx(qfi_dense(big, dbig), rel=1e-14)
    assert own > 1e-6 * F
    L = sld(rho, drho)
    assert np.all(L[3:, :] == 0) and np.all(L[:, 3:] == 0)


@pytest.mark.parametrize("delta, lam, n", [(10.0, 1e-2, 6), (100.0, 1e-2, 4)])
def test_mu1_qfi_matches_the_svd_of_its_amplitude(monkeypatch, delta, lam, n):
    # p = sigma^2 / Tr from the SVD of S's M_z blocks keeps the small p
    # accurate; with the same global cut and the same drho, the eigh of
    # rho's blocks must agree to 1e-8 (one eigh of the whole rho: 1.5e-6
    # and 7.6e-9 off)
    seen = {}

    def spy(rho, drho):
        seen["drho"] = drho
        return qfi_dense(rho, drho)

    monkeypatch.setattr(fisher, "qfi_dense", spy)
    params = ChainParams(n=n, delta=delta, lam=lam, mu=1.0)
    value = qfi_parametric(params, "lambda", lambda p: ness_mu1(p, p.lam / p.j_coupling)).value
    S = contract_to_dense(build_aux_B(n, params.eta, solve_s(lam, params.eta)), n)
    mz = np.diag(magnetization_z(n)).real
    blocks = []
    for m in np.unique(mz):
        block = np.ix_(np.flatnonzero(mz == m), np.flatnonzero(mz == m))
        U, sigma, _ = np.linalg.svd(S[block])
        blocks.append((block, U, sigma ** 2))
    tr = sum(p.sum() for *_, p in blocks)
    cut = SUPPORT_TOL * max(p.max() for *_, p in blocks) / tr
    svd_value = 0.0
    for block, U, p in blocks:
        dr = U.conj().T @ seen["drho"][block] @ U
        denom = (p[:, None] + p[None, :]) / tr
        mask = denom > cut
        svd_value += 2 * np.sum(np.abs(dr[mask]) ** 2 / denom[mask])
    assert abs(value - svd_value) <= 1e-8 * svd_value


def test_qfi_parametric_perturbative_tracks_leading_order():
    for n in (3, 4):
        params = ChainParams(n=n, delta=0.5, lam=1e-3, mu=1.0)
        exact = qfi_parametric(params, "lambda", ness_perturbative).value
        lead = f0_x(params, "lambda").value
        assert abs(exact / lead - 1) < 1e-4


def test_qfi_parametric_oracle_builder():
    params = ChainParams(n=2, delta=0.5, lam=1e-2, mu=1.0)
    a = qfi_parametric(params, "lambda",
                       lambda p: steady_state_nullspace(build_liouvillian(p))).value
    b = qfi_parametric(params, "lambda", ness_perturbative).value
    assert abs(a / b - 1) < 1e-4


def test_qfi_parametric_oracle_matches_mu1_far_from_isotropy():
    # at Delta = 100 the state is near pure: its small eigenvalues set F, and
    # the refined null-space solve holds them well enough for the QFI
    params = ChainParams(n=4, delta=100.0, lam=1e-2, mu=1.0)
    oracle = qfi_parametric(params, "lambda",
                            lambda p: steady_state_nullspace(build_liouvillian(p))).value
    closed = qfi_parametric(params, "lambda", lambda p: ness_mu1(p, p.lam)).value
    assert abs(oracle / closed - 1) <= 1e-8


def test_qfi_parametric_closed_form_qubit_family():
    # Bloch vector r = lam (cos Delta, 0, sin Delta): F = |r'|^2 + (r.r')^2/(1 - |r|^2),
    # i.e. 1/(1 - lam^2) along the radius and lam^2 along the rotation angle
    def build(p):
        return (np.eye(2) + p.lam * (np.cos(p.delta) * pauli("x")
                                     + np.sin(p.delta) * pauli("z"))) / 2

    params = ChainParams(n=2, delta=0.3, lam=0.6)
    assert np.isclose(qfi_parametric(params, "lambda", build).value, 1 / (1 - 0.6 ** 2),
                      rtol=1e-8, atol=0)
    assert np.isclose(qfi_parametric(params, "Delta", build).value, 0.6 ** 2,
                      rtol=1e-8, atol=0)
    assert qfi_parametric(params, "J", build).value == 0


def mu1_state(p):
    return ness_mu1(p, p.lam / p.j_coupling)


def real_perturbative(p):
    return np.real(ness_perturbative(p))


def outcome(run):
    try:
        value = run()
    except ArithmeticError as err:
        return str(err)
    return getattr(value, "value", value)


def test_in_place_stencils_give_the_separate_arrays_value_bit_for_bit():
    params = ChainParams(n=8, delta=2.0, lam=1e-2, mu=1.0)
    est = qfi_parametric(params, "lambda", mu1_state)
    assert est.value == qfi_parametric_before(params, "lambda", mu1_state)
    # complex and real states, converged or not: the same value or message
    small = ChainParams(n=4, delta=0.5, lam=1e-3, mu=0.5)
    for build in (ness_perturbative, real_perturbative):
        for parameter in ("lambda", "mu", "J", "Delta"):
            assert (outcome(lambda: qfi_parametric(small, parameter, build))
                    == outcome(lambda: qfi_parametric_before(small, parameter, build)))
    # real states where scaling by 1/c, not dividing by c, moves the value
    for params, parameter in ((ChainParams(n=3, delta=0.5, lam=1e-2, mu=0.999), "lambda"),
                              (ChainParams(n=3, delta=0.5, lam=1e-2, mu=0.999), "mu"),
                              (ChainParams(n=3, delta=0.5, lam=1e-3, mu=0.5), "mu"),
                              (ChainParams(n=3, delta=0.5, lam=1e-2, mu=0.5), "mu")):
        assert (outcome(lambda: qfi_parametric(params, parameter, real_perturbative))
                == outcome(lambda: qfi_parametric_before(params, parameter,
                                                         real_perturbative)))


@pytest.mark.parametrize("delta, lam, n", sorted(
    point for fault in known_faults.FAULTS if fault.direction == 5 for point in fault.points))
def test_in_place_stencils_fail_with_the_separate_arrays_message(delta, lam, n):
    params = ChainParams(n=n, delta=delta, lam=lam, mu=1.0)
    with pytest.raises(ArithmeticError, match="did not converge") as before:
        qfi_parametric_before(params, "lambda", mu1_state)
    with pytest.raises(ArithmeticError) as now:
        qfi_parametric(params, "lambda", mu1_state)
    assert str(now.value) == str(before.value)


def test_qfi_parametric_rejects_a_build_that_returns_one_array():
    # the difference would be formed in that one array and read 0
    shared = ness_perturbative(ChainParams(n=3, delta=0.5, lam=1e-3, mu=1.0))
    with pytest.raises(ValueError, match="same array"):
        qfi_parametric(ChainParams(n=3, delta=0.5, lam=1e-3, mu=1.0), "lambda",
                       lambda p: shared)


def test_mu1_qfi_peak_memory_in_dense_units():
    # one unit is one 2**n x 2**n complex array: S, rho and the stencils
    # share arrays instead of each taking a new one
    n = 9
    params, unit = ChainParams(n=n, delta=2.0, lam=1e-2, mu=1.0), 16 * 4 ** n
    mu1_state(params)  # caches warm outside the trace
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: mu1_state(params),
                    lambda: qfi_parametric(params, "lambda", mu1_state)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / unit)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 1.4  # 2.3 with a second array for rho
    assert peaks[1] <= 4.5  # 7.3 with every stencil and level kept


def test_qfi_parametric_rejects_a_shift_past_extreme_driving():
    params = ChainParams(n=3, delta=2.0, lam=1e-2, mu=1.0)
    with pytest.raises(ValueError, match="mu must lie"):
        qfi_parametric(params, "mu", lambda p: ness_mu1(p, p.lam / p.j_coupling))


def test_qfi_parametric_mu_at_zero_bias():
    params = ChainParams(n=3, delta=0.5, lam=1e-3, mu=0.0)
    est = qfi_parametric(params, "mu", ness_perturbative)
    assert est.value > 0  # state is maximally mixed but d(rho)/d(mu) is not 0


def test_qfi_parametric_fig4_nonmonotone():
    vals = []
    for n in (4, 5, 6, 7, 8):
        params = ChainParams(n=n, delta=2.0, lam=1e-2, mu=1.0)
        vals.append(qfi_parametric(
            params, "lambda", lambda p: ness_mu1(p, p.lam / p.j_coupling)).value)
    arr = np.array(vals)
    assert arr[1] > arr[0]          # superexponential rise
    assert arr.argmax() < len(arr) - 1  # then a decay sets in


def test_zero_derivative_zero_fisher():
    # omega never enters the steady state
    rng = np.random.default_rng(4)
    rho = random_state(rng, 4)
    assert qfi_dense(rho, np.zeros((4, 4))) == 0


def fidelity(rho, sigma):
    sqrtm = pytest.importorskip("scipy.linalg").sqrtm  # an independent oracle
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
