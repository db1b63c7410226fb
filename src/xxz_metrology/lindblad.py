"""Liouvillian superoperator, brute-force steady state, closed-form NESS.

The master equation is written once, through the non-hermitian
effective Hamiltonian

    K = J H + (omega/2) M_z - (i lam/2) sum_k L_k^dag L_k,
    L(rho) = -i (K rho - rho K^dag) + lam sum_k L_k rho L_k^dag.

Vectorization is column-stacking throughout: vec(X rho Y) corresponds to
(Y^T kron X) vec(rho), and vec(rho) = rho.flatten(order='F').

The generator conserves q = (M_z(ket) - M_z(bra))/2, a weak U(1)
symmetry: H commutes with M_z, and every jump operator flips one spin,
so L_k rho L_k^dag moves ket and bra alike.  The generator is thus
block diagonal over q = -n..n, with blocks of size C(2n, n+q).  It is
built as those blocks alone, never as the 4**n x 4**n matrix, and the
brute-force steady state takes one SVD of the q = 0 block (252 of 1024
rows at n = 5).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (ChainParams, hamiltonian_xxz, hs_norm, lindblad_jump_ops,
                    magnetization_z)
from .mpo import build_aux_A, build_aux_B, contract_to_dense, solve_s, validity_threshold

LIOUVILLIAN_CAP = 6  # the q = 0 block is 924 x 924 at n = 6


@dataclass
class Liouvillian:
    """The generator on column-stacked density matrices, as its diagonal
    blocks: sectors[q] = (idx, block), the ascending column-stacked
    indices of sector q and the generator's (idx, idx) block."""

    params: ChainParams
    sectors: dict[int, tuple[np.ndarray, np.ndarray]]


def _effective_hamiltonian(params: ChainParams) -> np.ndarray:
    """K = J H + (omega/2) M_z - (i lam/2) sum_k L_k^dag L_k."""
    K = params.j_coupling * hamiltonian_xxz(params)
    if params.omega != 0.0:
        K = K + params.omega / 2 * magnetization_z(params.n)
    for jump in lindblad_jump_ops(params):
        K = K - 0.5j * params.lam * (jump.conj().T @ jump)
    return K


def build_liouvillian(params: ChainParams) -> Liouvillian:
    """Generator of the master equation, block by block over q sectors.

    The (idx, idx) block of kron(Y, X) is Y[bra, bra] * X[ket, ket] with
    ket = idx % 2**n and bra = idx // 2**n, so a block adds the terms of
    the whole matrix in their order.  The blocks hold every entry only
    if K keeps M_z and each L_k shifts it by one constant: both checked.
    """
    n = params.n
    if n > LIOUVILLIAN_CAP:
        raise ValueError(f"dense Liouvillian capped at n <= {LIOUVILLIAN_CAP}, got {n}")
    K, jumps = _effective_hamiltonian(params), lindblad_jump_ops(params)
    mz = np.diag(magnetization_z(n)).real
    shift = mz[:, None] - mz[None, :]
    if np.any(K[shift != 0] != 0) or any(np.unique(shift[jump != 0]).size > 1
                                         for jump in jumps):
        raise ArithmeticError("Liouvillian mixes M_z(ket) - M_z(bra) sectors")
    d = 2 ** n
    eye, Kc = np.eye(d, dtype=complex), K.conj()
    q = np.rint(shift / 2).astype(int).flatten(order="F")
    sectors = {}
    for sector in range(-n, n + 1):
        idx = np.flatnonzero(q == sector)
        kets, bras = np.ix_(idx % d, idx % d), np.ix_(idx // d, idx // d)
        block = -1j * (eye[bras] * K[kets] - Kc[bras] * eye[kets])
        for jump in jumps:
            block += params.lam * (jump.conj()[bras] * jump[kets])
        sectors[sector] = (idx, block)
    return Liouvillian(params=params, sectors=sectors)


def apply_liouvillian(rho: np.ndarray, params: ChainParams) -> np.ndarray:
    """Action of the generator on a density matrix, without the big matrix.

    Usable up to the dense-operator cap, past where the 4**n x 4**n
    matrix stops being practical.
    """
    K = _effective_hamiltonian(params)
    out = -1j * (K @ rho - rho @ K.conj().T)
    for jump in lindblad_jump_ops(params):
        out += params.lam * (jump @ rho @ jump.conj().T)
    return out


def steady_state_nullspace(liouv: Liouvillian) -> np.ndarray:
    """Unique unit-trace hermitian null vector of the Liouvillian.

    A unit-trace state lives in q = 0, so only that block gets a full
    SVD, whose smallest right-singular vector is the state; the other
    blocks give singular values alone.  A second null vector (lambda = 0
    or numerical degeneracy) is the second smallest value of the q = 0
    block or the smallest of another: each is checked against the
    largest singular value of all blocks and raises naming its sector.
    """
    if liouv.params.lam <= 0:
        raise ValueError("uniqueness of the steady state needs lambda > 0")
    d = 2 ** liouv.params.n
    lowest, scale = {}, 0.0
    for sector, (idx, block) in liouv.sectors.items():
        if sector == 0:
            _, s, vh = np.linalg.svd(block)
            null = np.zeros(d * d, dtype=complex)
            null[idx] = vh[-1].conj()
            lowest[sector] = s[-2]
        else:
            s = np.linalg.svd(block, compute_uv=False)
            lowest[sector] = s[-1]
        scale = max(scale, s[0])
    sector = min(lowest, key=lowest.get)
    if lowest[sector] < 1e-10 * scale:
        raise ValueError(
            f"null space dimension != 1 (singular value {lowest[sector]:.2e} "
            f"in sector q = {sector} vs scale {scale:.2e})")
    rho = null.reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real
    residual = hs_norm(apply_liouvillian(rho, liouv.params))
    if residual > 1e-10 * scale:
        raise ArithmeticError(f"steady-state residual {residual:.2e} too large")
    return rho


def ness_perturbative(params: ChainParams) -> np.ndarray:
    """Second-order weak-coupling steady state from the MPO operator Z.

    rho = 2^-n [ 1 + i (lam/2J) mu (Z - Z+)
                 + lam^2/(8 J^2) (mu [Z, Z+] - mu^2 (Z - Z+)^2) ],

    renormalized to unit trace afterwards (the trace defect is
    O((lam/J)^2)).  Emits a warning when lambda/J violates the validity
    threshold.
    """
    n, J, lam, mu = params.n, params.j_coupling, params.lam, params.mu
    if mu != 0.0 and lam > 0.0:
        thr_log = validity_threshold(n, params.eta, mu).log
        if math.log(lam / J) >= thr_log:
            warnings.warn(
                f"lambda/J = {lam / J:.3g} exceeds the validity threshold "
                f"exp({thr_log:.3g}); the expansion is uncontrolled here")
    Z = contract_to_dense(build_aux_A(n, params.eta), n)
    Zd = Z.conj().T
    comm = Z @ Zd - Zd @ Z
    anti = (Z - Zd) @ (Z - Zd)
    rho = (np.eye(2 ** n, dtype=complex)
           + 1j * lam / (2 * J) * mu * (Z - Zd)
           + lam ** 2 / (8 * J ** 2) * (mu * comm - mu ** 2 * anti))
    return rho / np.trace(rho).real


def ness_mu1(params: ChainParams, epsilon: float) -> np.ndarray:
    """Non-perturbative steady state at extreme driving mu = 1.

    rho = S S+ / Tr(S S+) with S contracted from the B family at
    s solving cot(s eta) = epsilon/(4 i sin eta).  Positive semidefinite
    and unit trace by construction.  It is the fixed point of the master
    equation above at epsilon = lam/J (Prosen, PRL 107, 137201 (2011)).

    S conserves M_z, so S S+ is formed one sector at a time: the basis
    states of one popcount k (one M_z value) give S_k = S[I_k, I_k] and
    rho[I_k, I_k] = S_k S_k+, blocks of C(n, k), and rho is exactly 0
    between sectors.  An S with a nonzero entry between sectors raises.
    ``fisher.qfi_dense`` finds the same blocks and diagonalizes them one
    by one, under one support cut relative to the largest eigenvalue of
    all blocks.
    """
    if params.mu != 1.0:
        raise ValueError("closed-form non-perturbative NESS requires mu = 1")
    n = params.n
    s = solve_s(epsilon, params.eta)
    S = contract_to_dense(build_aux_B(n, params.eta, s), n)
    basis = np.arange(2 ** n)
    popcount = sum((basis >> bit) & 1 for bit in range(n))
    sectors = [np.ix_(idx, idx) for idx in
               (np.flatnonzero(popcount == k) for k in range(n + 1))]
    blocks = [S[sector] for sector in sectors]
    if np.count_nonzero(S) != sum(np.count_nonzero(block) for block in blocks):
        raise ArithmeticError("S mixes M_z sectors")
    # normalized by the trace of the whole diagonal, in index order, as the
    # dense product was: the finite-difference QFI rows sit close to their
    # Richardson bound, and a last-bit change in Tr moves some across it
    rho = np.zeros_like(S)
    for sector, block in zip(sectors, blocks):
        rho[sector] = block @ block.conj().T
    tr = np.trace(rho).real
    if tr <= 0:
        raise ArithmeticError("S S+ has non-positive trace; contraction degenerate")
    rho /= tr
    return rho
