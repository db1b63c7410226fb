import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import svd  # an oracle from a LAPACK build independent of numpy's

from xxz_metrology.model import (ChainParams, embed, hamiltonian_xxz, hs_norm,
                                 lindblad_jump_ops, magnetization_z, pauli)
from xxz_metrology import lindblad
from xxz_metrology.lindblad import (apply_liouvillian, build_liouvillian, ness_mu1,
                                    ness_perturbative, steady_state_nullspace)
from xxz_metrology.mpo import build_aux_A, build_aux_B, contract_to_dense, solve_s


def vec(rho):
    return rho.flatten(order="F")


def liouvillian_by_terms(params):
    """The generator term by term: a commutator with the hermitian
    Hamiltonian and the full dissipator of each jump operator."""
    d = 2 ** params.n
    H = params.j_coupling * hamiltonian_xxz(params)
    if params.omega != 0.0:
        H = H + params.omega / 2 * magnetization_z(params.n)
    eye = np.eye(d, dtype=complex)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for jump in lindblad_jump_ops(params):
        jdj = jump.conj().T @ jump
        L += params.lam * (np.kron(jump.conj(), jump)
                           - 0.5 * np.kron(eye, jdj)
                           - 0.5 * np.kron(jdj.T, eye))
    return L


def assemble(liouv):
    """Scatter the sector blocks into the whole 4**n x 4**n matrix."""
    dim = 4 ** liouv.params.n
    matrix = np.zeros((dim, dim), dtype=complex)
    for idx, block in liouv.sectors.values():
        matrix[np.ix_(idx, idx)] = block
    return matrix


def nullspace_by_full_svd(liouv):
    """One SVD of the whole 4**n x 4**n matrix: the steady state from its
    smallest right-singular vector, and every singular value."""
    d = 2 ** liouv.params.n
    _, s, vh = svd(assemble(liouv))
    rho = vh[-1].conj().reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real, s


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


_SECTOR_GRID = list(itertools.product((0.5, -0.8, 1.5, 2.0), (1e-3, 0.3),
                                      (1.0, 0.3, -0.6), (0.0, 0.7)))
# at n = 5 one full SVD takes ~1 s: four points that still take every
# value of every parameter
_SECTOR_GRID_N5 = [(0.5, 1e-3, 1.0, 0.0), (-0.8, 0.3, 0.3, 0.7),
                   (1.5, 1e-3, -0.6, 0.7), (2.0, 0.3, 1.0, 0.0)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sector_route_matches_full_svd(n):
    grid = _SECTOR_GRID if n < 5 else _SECTOR_GRID_N5
    for delta, lam, mu, omega in grid:
        params = ChainParams(n=n, delta=delta, lam=lam, mu=mu, omega=omega)
        liouv = build_liouvillian(params)
        rho_full, s_full = nullspace_by_full_svd(liouv)
        s_sector = np.sort(np.concatenate([np.linalg.svd(block, compute_uv=False)
                                           for _, block in liouv.sectors.values()]))[::-1]
        assert trace_distance(steady_state_nullspace(liouv), rho_full) <= 1e-11
        assert np.abs(s_sector - s_full).max() <= 1e-12 * s_full[0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sectors_partition_the_column_stacked_space(n):
    liouv = build_liouvillian(ChainParams(n=n, delta=0.7, lam=0.2, mu=0.5))
    assert list(liouv.sectors) == list(range(-n, n + 1))
    idx = np.concatenate([idx for idx, _ in liouv.sectors.values()])
    assert np.array_equal(np.sort(idx), np.arange(4 ** n))
    for q, (idx, block) in liouv.sectors.items():
        assert idx.size == math.comb(2 * n, n + q)
        assert block.shape == (idx.size, idx.size)


def test_nullspace_sees_a_second_null_vector_outside_q_zero():
    # zero the 1x1 block of the q = n sector, the |up..up><down..down|
    # coherence: a second null vector that only the q != 0 values show
    n = 3
    liouv = build_liouvillian(ChainParams(n=n, delta=0.7, lam=0.2, mu=0.5))
    d = 2 ** n
    idx, block = liouv.sectors[n]
    assert idx.tolist() == [d * (d - 1)]
    sectors = {**liouv.sectors, n: (idx, np.zeros_like(block))}
    with pytest.raises(ValueError, match=r"null space dimension != 1 .*q = 3"):
        steady_state_nullspace(dataclasses.replace(liouv, sectors=sectors))


def test_nullspace_sees_a_second_null_vector_in_q_zero():
    # zero the second smallest singular value of the q = 0 block: the
    # state's own sector then holds a two-dimensional null space
    liouv = build_liouvillian(ChainParams(n=3, delta=0.7, lam=0.2, mu=0.5))
    idx, block = liouv.sectors[0]
    u, s, vh = np.linalg.svd(block)
    s[-2] = 0.0
    sectors = {**liouv.sectors, 0: (idx, (u * s) @ vh)}
    with pytest.raises(ValueError, match=r"null space dimension != 1 .*q = 0 "):
        steady_state_nullspace(dataclasses.replace(liouv, sectors=sectors))


def test_nullspace_rejects_sector_mixing(monkeypatch):
    # a sigma^x field on site 1 breaks M_z conservation, however weak
    params = ChainParams(n=3, delta=0.7, lam=0.2, mu=0.5)
    effective = lindblad._effective_hamiltonian
    for strength in (0.3, 1e-6):
        field = strength * embed(3, 1, pauli("x"))
        monkeypatch.setattr(lindblad, "_effective_hamiltonian",
                            lambda p, field=field: effective(p) + field)
        with pytest.raises(ArithmeticError, match="mixes"):
            steady_state_nullspace(build_liouvillian(params))


def test_nullspace_rejects_a_jump_that_mixes_sectors(monkeypatch):
    # sigma^x on site 1 moves M_z by +2 and by -2; sigma^x sigma^x = 1
    # keeps K itself block diagonal, so only the jump check can see it
    params = ChainParams(n=3, delta=0.7, lam=0.2, mu=0.5)
    monkeypatch.setattr(lindblad, "lindblad_jump_ops",
                        lambda p: [embed(3, 1, pauli("x"))])
    with pytest.raises(ArithmeticError, match="mixes"):
        build_liouvillian(params)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_matches_terms_at_extreme_driving(n):
    for delta in (0.4, 0.9, 1.7, 10.0):
        for lam in (1e-3, 1e-2, 0.3):
            params = ChainParams(n=n, delta=delta, lam=lam, mu=1.0)
            assert np.array_equal(assemble(build_liouvillian(params)),
                                  liouvillian_by_terms(params))


@pytest.mark.parametrize("mu", [0.0, 0.3, -0.7, -1.0])
def test_generator_matches_terms_off_extreme_driving(mu):
    for n in (2, 3, 4):
        for delta, lam, omega in ((0.6, 0.2, 0.0), (2.0, 1e-2, 0.7)):
            params = ChainParams(n=n, delta=delta, lam=lam, mu=mu, omega=omega)
            ref = liouvillian_by_terms(params)
            diff = np.abs(assemble(build_liouvillian(params)) - ref).max()
            assert diff <= 1e-15 * np.linalg.norm(ref)


def test_trace_functional_is_left_null_vector():
    params = ChainParams(n=3, delta=0.8, lam=0.4, mu=0.3, omega=0.2)
    matrix = assemble(build_liouvillian(params))
    tr = vec(np.eye(8, dtype=complex)).conj()
    assert np.linalg.norm(tr @ matrix) < 1e-10 * np.linalg.norm(matrix)


def test_unitary_limit_spectrum_imaginary():
    params = ChainParams(n=2, delta=0.5, lam=0.0, mu=0.5)
    eigs = np.linalg.eigvals(assemble(build_liouvillian(params)))
    assert np.max(np.abs(eigs.real)) < 1e-10


def test_spectrum_left_half_plane():
    params = ChainParams(n=3, delta=1.5, lam=0.7, mu=0.6)
    eigs = np.linalg.eigvals(assemble(build_liouvillian(params)))
    assert eigs.real.max() < 1e-10


def test_mu_zero_maximally_mixed():
    params = ChainParams(n=2, delta=0.5, lam=0.3, mu=0.0)
    liouv = build_liouvillian(params)
    rho = np.eye(4, dtype=complex) / 4
    assert np.linalg.norm(assemble(liouv) @ vec(rho)) < 1e-12
    assert np.allclose(steady_state_nullspace(liouv), rho)


def test_apply_matches_matrix():
    params = ChainParams(n=2, delta=0.3, lam=0.5, mu=0.8, omega=1.1)
    matrix = assemble(build_liouvillian(params))
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a + a.conj().T
    assert np.allclose((matrix @ vec(rho)).reshape(4, 4, order="F"),
                       apply_liouvillian(rho, params))


def test_nullspace_needs_dissipation():
    params = ChainParams(n=2, delta=0.5, lam=0.0)
    with pytest.raises(ValueError):
        steady_state_nullspace(build_liouvillian(params))


def test_liouvillian_cap():
    with pytest.raises(ValueError, match="capped"):
        build_liouvillian(ChainParams(n=7, lam=0.1))


def test_nullspace_at_the_cap_matches_mu1_closed_form():
    # the blocks hold C(4n, 2n) entries, sum_q C(2n, n+q)**2 (Vandermonde),
    # against 16**n for a dense build: 2.7e6 against 1.7e7 at n = 6
    n = lindblad.LIOUVILLIAN_CAP
    params = ChainParams(n=n, delta=1.5, lam=5e-3, mu=1.0)
    liouv = build_liouvillian(params)
    assert sum(block.size for _, block in liouv.sectors.values()) == math.comb(4 * n, 2 * n)
    closed = ness_mu1(params, params.lam / params.j_coupling)
    assert hs_norm(closed - steady_state_nullspace(liouv)) < 1e-9


def test_perturbative_trace_and_hermiticity():
    params = ChainParams(n=3, delta=0.5, lam=1e-3, mu=0.7)
    rho = ness_perturbative(params)
    assert abs(np.trace(rho) - 1) < 1e-14
    assert hs_norm(rho - rho.conj().T) < 1e-14
    # trace defect of the raw expansion, -lam^2 mu^2/(8 J^2 2^n) tr((Z - Z+)^2),
    # is O((lam/J)^2); the state is the raw expansion divided by 1 + defect
    n, lam, mu, J = params.n, params.lam, params.mu, params.j_coupling
    Z = contract_to_dense(build_aux_A(n, params.eta), n)
    Zd = Z.conj().T
    defect = (-lam ** 2 * mu ** 2 / (8 * J ** 2 * 2 ** n)
              * np.trace((Z - Zd) @ (Z - Zd)).real)
    assert abs(defect) < 10 * (lam / J) ** 2
    raw = (np.eye(2 ** n) + 1j * lam / (2 * J) * mu * (Z - Zd)
           + lam ** 2 / (8 * J ** 2) * (mu * (Z @ Zd - Zd @ Z)
                                        - mu ** 2 * (Z - Zd) @ (Z - Zd))) / 2 ** n
    assert hs_norm(rho * (1 + defect) - raw) < 1e-15


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


@pytest.mark.parametrize("delta", [0.5, 2.0, 100.0])
def test_ness_mu1_is_block_diagonal_and_matches_dense_product(delta):
    # rho is exactly 0 between M_z sectors, and S S+ / Tr formed per sector
    # agrees with the one dense product
    for n in range(2, 10):
        params = ChainParams(n=n, delta=delta, lam=1e-2, mu=1.0)
        rho = ness_mu1(params, 1e-2)
        mz = np.diag(magnetization_z(n)).real
        assert np.count_nonzero(rho[mz[:, None] != mz[None, :]]) == 0
        S = contract_to_dense(build_aux_B(n, params.eta, solve_s(1e-2, params.eta)), n)
        dense = S @ S.conj().T
        assert np.abs(rho - dense / np.trace(dense).real).max() <= 1e-14


def test_ness_mu1_rejects_an_amplitude_that_mixes_sectors(monkeypatch):
    # one entry between the popcount 0 and 1 sectors, however small
    params = ChainParams(n=3, delta=2.0, lam=1e-2, mu=1.0)
    contract = lindblad.contract_to_dense

    def mixing(aux, n):
        S = contract(aux, n)
        S[0, 1] += 1e-300
        return S

    monkeypatch.setattr(lindblad, "contract_to_dense", mixing)
    with pytest.raises(ArithmeticError, match="mixes M_z sectors"):
        ness_mu1(params, 1e-2)


def test_ness_mu1_requires_extreme_driving():
    with pytest.raises(ValueError):
        ness_mu1(ChainParams(n=3, delta=2.0, lam=1e-2, mu=0.5), 1e-2)


def mu1_residual(params, epsilon):
    return hs_norm(apply_liouvillian(ness_mu1(params, epsilon), params))


def test_ness_mu1_is_fixed_point_at_calibrated_epsilon():
    # the closed form solves the master equation at epsilon = lam/J and
    # only there: halving or doubling epsilon leaves an O(lam) residual
    grid = itertools.product((2, 3, 4), (1.5, 2.0, 4.0),
                             ((1e-3, 1.0), (2e-3, 2.0), (4e-3, 1.0), (5e-3, 1.0)))
    for n, delta, (lam, J) in grid:
        params = ChainParams(n=n, delta=delta, lam=lam, mu=1.0, j_coupling=J)
        assert mu1_residual(params, lam / J) < 1e-10
        assert mu1_residual(params, lam / (2 * J)) > 1e-6
        assert mu1_residual(params, 2 * lam / J) > 1e-6


def test_ness_mu1_matches_nullspace_oracle():
    params = ChainParams(n=3, delta=1.5, lam=5e-3, mu=1.0)
    closed = ness_mu1(params, params.lam / params.j_coupling)
    oracle = steady_state_nullspace(build_liouvillian(params))
    assert hs_norm(closed - oracle) < 1e-9
