import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from oracles import build_liouvillian_before, ness_mu1_before
from xxz_metrology.model import (ChainParams, embed, hamiltonian_xxz, hs_norm,
                                 lindblad_jump_ops, magnetization_z, pauli)
from xxz_metrology import lindblad, mpo
from xxz_metrology.lindblad import (apply_liouvillian, build_liouvillian, ness_mu1,
                                    ness_perturbative, steady_state_nullspace)
from xxz_metrology.mpo import _popcount, build_aux_A, build_aux_B, contract_to_dense, solve_s


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
    # an oracle from a LAPACK build independent of numpy's
    svd = pytest.importorskip("scipy.linalg").svd
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_minus_q_is_block_q_conjugated(n):
    # L(rho^+) = L(rho)^+: swapping ket and bra maps sector q onto -q, and
    # the built block there is the conjugate, bit for bit, so its cond_1 is too
    d = 2 ** n
    for mu, omega in itertools.product((0.3, 0.6, 1.0), (0.0, 0.3, 0.7)):
        liouv = build_liouvillian(ChainParams(n=n, delta=1.7, lam=0.2, mu=mu, omega=omega))
        for q in range(1, n + 1):
            idx, block = liouv.sectors[q]
            idx_minus, block_minus = liouv.sectors[-q]
            swapped = idx % d * d + idx // d
            pos = np.searchsorted(idx_minus, swapped)
            assert np.array_equal(idx_minus[pos], swapped)
            assert np.array_equal(block_minus[np.ix_(pos, pos)], block.conj())


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


@pytest.mark.parametrize("past", [True, False])
def test_nullspace_condition_cut_names_the_sector(past):
    # a diagonal q = 2 block with cond_1 = 1/x exactly, just either side of
    # the cut; the state lives in q = 0, so below the cut it is unchanged
    liouv = build_liouvillian(ChainParams(n=3, delta=0.7, lam=0.2, mu=0.5))
    idx, block = liouv.sectors[2]
    x = 1 / (lindblad.COND_CUT * (1.01 if past else 0.99))
    diag = np.diag(np.r_[np.ones(idx.size - 1), x]).astype(complex)
    cond = np.linalg.cond(diag, 1)
    assert (cond > lindblad.COND_CUT) == past
    scaled = dataclasses.replace(liouv, sectors={**liouv.sectors, 2: (idx, diag)})
    if past:
        message = re.escape(f"null space dimension != 1 in sector q = 2 (cond_1 {cond:.2e}")
        with pytest.raises(ValueError, match=message):
            steady_state_nullspace(scaled)
    else:
        assert np.array_equal(steady_state_nullspace(scaled), steady_state_nullspace(liouv))


@pytest.mark.parametrize("n, delta, lam, tol", [(4, 100.0, 1e-2, 1e-12), (5, 10.0, 1e-2, 1e-12),
                                                (5, 100.0, 1e-2, 1e-10), (5, 100.0, 1e-3, 1e-10)])
def test_nullspace_matches_mu1_closed_form_far_from_isotropy(n, delta, lam, tol):
    # near-pure states: the second smallest singular value of the q = 0 block
    # is 3e-9 to 3e-15 of its largest, which an SVD null vector pays for in
    # accuracy and the regular solve does not
    params = ChainParams(n=n, delta=delta, lam=lam, mu=1.0)
    oracle = steady_state_nullspace(build_liouvillian(params))
    assert trace_distance(oracle, ness_mu1(params, lam)) <= tol


def test_nullspace_rejects_sector_mixing(monkeypatch):
    # a sigma^x field on site 1 breaks M_z conservation, however weak
    params = ChainParams(n=3, delta=0.7, lam=0.2, mu=0.5)
    terms = lindblad._terms
    for strength in (0.3, 1e-6):
        field = strength * embed(3, 1, pauli("x"))
        monkeypatch.setattr(lindblad, "_terms",
                            lambda p, field=field: (terms(p)[0] + field, terms(p)[1]))
        with pytest.raises(ArithmeticError, match="mixes"):
            steady_state_nullspace(build_liouvillian(params))


def test_nullspace_raises_on_a_steady_state_residual(monkeypatch):
    # the solve passes its checks, but the terms applied to rho leave a
    # residual far above 1e-10 of the Liouvillian's scale
    liouv = build_liouvillian(ChainParams(n=3, delta=0.7, lam=0.2, mu=0.5))
    monkeypatch.setattr(lindblad, "_apply", lambda rho, K, jumps, lam: np.ones_like(rho))
    with pytest.raises(ArithmeticError, match="steady-state residual .* too large"):
        steady_state_nullspace(liouv)


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


_BLOCK_GRID = list(itertools.product((0.6, -0.8, 1.7, -1.5, 10.0), (1.0, 0.7, 0.0, -0.6, -1.0),
                                     (0.0, 0.3), (1e-3, 0.3)))
# at n = 6 the whole-block gather takes ~0.2 s: five points that still take
# every value of every parameter
_BLOCK_GRID_N6 = [(0.6, 1.0, 0.0, 1e-3), (-0.8, 0.7, 0.3, 0.3), (1.7, 0.0, 0.0, 0.3),
                  (-1.5, -0.6, 0.3, 1e-3), (10.0, -1.0, 0.0, 0.3)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_blocks_are_the_whole_block_gather_bit_for_bit(n):
    # the blocks are filled at the supports of the terms alone: an entry
    # outside every support was a sum of zero products (+0 or -0) and is
    # now +0, which adding +0.0 folds; every other bit is the gather's
    for delta, mu, omega, lam in _BLOCK_GRID if n < 6 else _BLOCK_GRID_N6:
        params = ChainParams(n=n, delta=delta, lam=lam, mu=mu, omega=omega)
        built, before = build_liouvillian(params), build_liouvillian_before(params)
        assert list(built.sectors) == list(before.sectors)
        for q, (idx, block) in built.sectors.items():
            idx_before, block_before = before.sectors[q]
            assert np.array_equal(idx, idx_before)
            assert (block + 0.0).tobytes() == (block_before + 0.0).tobytes()


@pytest.mark.parametrize("n, delta, mu, omega, lam", [
    (4, 0.6, 1.0, 0.0, 1e-3), (4, -1.5, -0.6, 0.3, 0.3),
    (5, -0.8, 0.7, 0.3, 1e-3), (5, 1.7, 0.0, 0.0, 0.3), (5, 10.0, -1.0, 0.3, 1e-3)])
def test_nullspace_of_the_blocks_is_the_whole_block_gather_bit_for_bit(n, delta, mu, omega, lam):
    params = ChainParams(n=n, delta=delta, lam=lam, mu=mu, omega=omega)
    rho = steady_state_nullspace(build_liouvillian(params))
    assert rho.tobytes() == steady_state_nullspace(build_liouvillian_before(params)).tobytes()


_RESIDUAL_GRID = [(0.6, 1.0, 0.0, 1e-3), (-0.8, -1.0, 0.3, 0.3), (1.7, 0.4, 0.7, 1e-2),
                  (10.0, 1.0, 0.3, 1e-3), (-1.5, -0.6, 0.0, 0.3)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sparse_residual_product_is_the_dense_clongdouble_product(n):
    # the refinement's A x over the nonzeros of the q = 0 system, each row
    # summed in column order, has the value of the dense clongdouble matmul;
    # compared with ==, as an 80-bit long double carries 6 bytes of padding
    d = 2 ** n
    for delta, mu, omega, lam in _RESIDUAL_GRID:
        params = ChainParams(n=n, delta=delta, lam=lam, mu=mu, omega=omega)
        idx, block = build_liouvillian(params).sectors[0]
        system = np.vstack([idx % d == idx // d, block[1:]])
        x = np.linalg.inv(system)[:, 0]
        dense = system.astype(np.clongdouble) @ x.astype(np.clongdouble)
        assert np.array_equal(lindblad._matvec_ld(system, x), dense)


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


@pytest.mark.parametrize("n, lam, tol", [(2, 1e-2, 1e-12), (4, 1e-3, 1e-9)])
def test_perturbative_matches_oracle_to_third_order(n, lam, tol):
    # n = 2 happens to terminate: the error stays at numerical noise.  No scan
    # reads build_aux_A: at n = 4 its Pauli pairing gives 4.0e-11, the literal
    # pairing 5.2e-4
    params = ChainParams(n=n, delta=0.5, lam=lam, mu=1.0)
    oracle = steady_state_nullspace(build_liouvillian(params))
    pert = ness_perturbative(params)
    assert max(hs_norm(pert - oracle), trace_distance(pert, oracle)) < tol


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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_states_at_minus_delta_are_conjugated_by_odd_site_sigma_z(n):
    # U, the sigma^z product over odd sites, gives U H(Delta) U = -H(-Delta)
    # and maps each jump to +-itself; conjugation undoes the sign of H, so
    # rho(-Delta) = U rho(Delta)^* U
    U = np.eye(2 ** n, dtype=complex)
    for site in range(1, n + 1, 2):
        U = U @ embed(n, site, pauli("z"))
    for delta in (0.3, 1.5):
        mu1 = ChainParams(n=n, delta=delta, lam=0.1, mu=1.0)
        pert = ChainParams(n=n, delta=delta, lam=1e-3, mu=1.0)
        for state, params in ((lambda p: ness_mu1(p, p.lam), mu1), (ness_perturbative, pert)):
            mirrored = U @ state(params).conj() @ U
            assert np.abs(state(params.replace(delta=-delta)) - mirrored).max() <= 1e-14


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


# the epsilon of each state an exact dense-qfi row builds: lambda/J and its stencils
_STENCIL_EPSILONS = sorted({lam + side * 1e-4 / 2 ** k for lam in (1e-3, 1e-2)
                            for side in (-1, 0, 1) for k in range(3)})


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("delta", [0.5, -0.5, 2.0, 10.0, 100.0])
def test_ness_mu1_keeps_the_bits_of_dividing_by_the_trace(delta, n):
    # rho is scaled by 1/Tr: every part, zero signs included, as rho /= Tr gives it
    params = ChainParams(n=n, delta=delta, lam=1e-2, mu=1.0)
    for epsilon in _STENCIL_EPSILONS:
        assert np.array_equal(ness_mu1(params, epsilon).view(np.uint64),
                              ness_mu1_before(params, epsilon).view(np.uint64))


@pytest.mark.parametrize("entry", [1e-300, 1e-300j])
def test_ness_mu1_rejects_an_amplitude_that_mixes_sectors(monkeypatch, entry):
    # one entry between the popcount 0 and 1 sectors, however small, real or imaginary
    params = ChainParams(n=3, delta=2.0, lam=1e-2, mu=1.0)
    contract = mpo._contract_blocks

    def mixing(aux, n):
        blocks = contract(aux, n)
        blocks[0, 1] = np.array([[entry, 0, 0]], dtype=complex)  # S[0, 1]
        return blocks

    monkeypatch.setattr(mpo, "_contract_blocks", mixing)
    with pytest.raises(ArithmeticError, match="mixes M_z sectors"):
        ness_mu1(params, 1e-2)


def test_ness_mu1_rejects_a_state_of_zero_trace(monkeypatch):
    # an amplitude S whose every block is 0 leaves S S+ with trace 0
    params = ChainParams(n=3, delta=2.0, lam=1e-2, mu=1.0)
    contract = mpo._contract_blocks
    monkeypatch.setattr(mpo, "_contract_blocks",
                        lambda aux, n: {key: 0 * block for key, block in contract(aux, n).items()})
    with pytest.raises(ArithmeticError, match="non-positive trace"):
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


@pytest.mark.parametrize("n", range(1, 9))
def test_the_mz_diagonal_is_that_of_the_dense_operator(n):
    # the sector labels come from the popcount: n - 2 popcount is M_z's diagonal
    want = np.diag(magnetization_z(n)).real
    got = (n - 2 * _popcount(n)).astype(float)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", range(2, 7))
def test_each_sector_holds_the_indices_of_its_mz_difference(n):
    # index ket + 2**n bra lies in sector q iff (M_z(ket) - M_z(bra))/2 = q
    d = 2 ** n
    mz = np.diag(magnetization_z(n)).real
    index = np.arange(d * d)
    q = (mz[index % d] - mz[index // d]) / 2
    sectors = build_liouvillian(ChainParams(n=n, delta=0.6, lam=0.3, mu=0.4)).sectors
    assert list(sectors) == list(range(-n, n + 1))
    for sector, (idx, _) in sectors.items():
        assert np.array_equal(idx, np.flatnonzero(q == sector))


@pytest.mark.parametrize("omega", [0.0, 0.3])
def test_the_operators_are_formed_once_per_build_and_per_action(monkeypatch, omega):
    calls = {"lindblad_jump_ops": 0, "hamiltonian_xxz": 0}

    def counted(name):
        inner = getattr(lindblad, name)

        def wrapper(params):
            calls[name] += 1
            return inner(params)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lindblad, name, counted(name))
    params = ChainParams(n=3, delta=0.6, lam=0.3, mu=1.0, omega=omega)
    build_liouvillian(params)
    assert calls == {"lindblad_jump_ops": 1, "hamiltonian_xxz": 1}
    apply_liouvillian(np.eye(8, dtype=complex) / 8, params)
    assert calls == {"lindblad_jump_ops": 2, "hamiltonian_xxz": 2}


def test_the_residual_check_reuses_the_operators_of_the_blocks(monkeypatch):
    # K and the jumps are formed by build_liouvillian alone; the solve's
    # residual check applies the ones the blocks were built from
    params = ChainParams(n=4, delta=0.6, lam=0.7, mu=1.0, omega=0.3)
    liouv = build_liouvillian(params)
    rho = steady_state_nullspace(liouv)
    for name in ("_terms", "lindblad_jump_ops"):
        monkeypatch.setattr(lindblad, name, None)
    assert np.array_equal(steady_state_nullspace(liouv), rho)
    K, jumps = liouv.terms
    assert len(jumps) == 2
    monkeypatch.undo()
    K_again, jumps_again = lindblad._terms(params)
    assert np.array_equal(K, K_again)
    assert all(map(np.array_equal, jumps, jumps_again))
