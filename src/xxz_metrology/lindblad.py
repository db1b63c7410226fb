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
built as those blocks alone, never as the 4**n x 4**n matrix, each
scattered from the supports of its terms in K and the L_k that are not 0,
and the brute-force steady state is one regular solve in the q = 0 block
(252 of 1024 rows at n = 5).  On a 2-core Intel Xeon, 1 BLAS thread, a
build takes 0.4 ms at n = 4, 2 ms at n = 5 and 13 ms at n = 6, a solve
12 ms at n = 5 and 0.3 s at n = 6, most of it in LAPACK's inverses of
the q >= 0 blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import ChainParams, hamiltonian_xxz, hs_norm, lindblad_jump_ops, magnetization_z
from .mpo import (_popcount, build_aux_A, build_aux_B, contract_to_dense, solve_s,
                  validity_threshold)

LIOUVILLIAN_CAP = 6  # the q = 0 block is 924 x 924 at n = 6
COND_CUT = 1 / np.finfo(float).eps  # steady states reach 6.6e14, a 2nd null vector 1e18


@dataclass
class Liouvillian:
    """The generator on column-stacked density matrices, as its diagonal
    blocks: sectors[q] = (idx, block), the ascending column-stacked
    indices of sector q and the generator's (idx, idx) block.  ``terms``
    are K and the jumps the blocks were built from."""

    params: ChainParams
    sectors: dict[int, tuple[np.ndarray, np.ndarray]]
    terms: tuple[np.ndarray, list[np.ndarray]] = field(repr=False)


def _terms(params: ChainParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """K = J H + (omega/2) M_z - (i lam/2) sum_k L_k^dag L_k and the jumps
    L_k that are not 0: at mu = +-1 two of the four have rate 0, and their
    terms in K and L are sums of zero products, which change no nonzero bit."""
    jumps = [jump for jump in lindblad_jump_ops(params) if jump.any()]
    K = params.j_coupling * hamiltonian_xxz(params)
    if params.omega != 0.0:
        K = K + params.omega / 2 * magnetization_z(params.n)
    for jump in jumps:
        K = K - 0.5j * params.lam * (jump.conj().T @ jump)
    return K, jumps


def build_liouvillian(params: ChainParams) -> Liouvillian:
    """Generator of the master equation, block by block over q sectors.

    The (idx, idx) block of kron(Y, X) is Y[bra, bra] * X[ket, ket] with
    ket = idx % 2**n and bra = idx // 2**n.  A term reaches only the
    entries in its support: kron(I, K) and kron(Kc, I) where the kets (or
    bras) are a nonzero pair of K and the bras (or kets) agree, kron(Jc, J)
    where both pairs are nonzero in L_k; at most 7,168 of 184,756 block
    entries at n = 5 and 32,768 of 2,704,156 at n = 6, repeats counted.
    The terms are added at those entries alone, in the order of the whole
    matrix, and scattered into zeroed blocks; every other entry is a sum of
    zero products, so +0.  Entry ket + 2**n bra is in sector popcount(bra)
    - popcount(ket), an exact integer.  The blocks hold every entry only if
    K keeps M_z and each L_k shifts it by one constant: both checked.
    """
    n = params.n
    if n > LIOUVILLIAN_CAP:
        raise ValueError(f"dense Liouvillian capped at n <= {LIOUVILLIAN_CAP}, got {n}")
    K, jumps = _terms(params)
    popcount = _popcount(n)
    shift = popcount - popcount[:, None]  # (M_z(row) - M_z(col))/2
    if np.any(K[shift != 0] != 0) or any(np.unique(shift[jump != 0]).size > 1
                                         for jump in jumps):
        raise ArithmeticError("Liouvillian mixes M_z(ket) - M_z(bra) sectors")
    d = 2 ** n
    eye, Kc = np.eye(d, dtype=complex), K.conj()
    q = shift.flatten(order="F")
    # the entries (i, j), i = ket + d * bra, in the supports of kron(I, K),
    # kron(Kc, I) and each kron(Jc, J); the sector checks keep each pair in
    # one sector
    every = np.arange(d)
    rows, cols = np.nonzero(K)
    candidates = [(rows[:, None] + d * every, cols[:, None] + d * every),
                  (every[:, None] + d * rows, every[:, None] + d * cols)]
    for jump in jumps:
        rows, cols = np.nonzero(jump)
        candidates.append((rows[:, None] + d * rows, cols[:, None] + d * cols))
    i = np.concatenate([ci.ravel() for ci, _ in candidates])
    j = np.concatenate([cj.ravel() for _, cj in candidates])
    kets, bras = (i % d, j % d), (i // d, j // d)
    value = -1j * (eye[bras] * K[kets] - Kc[bras] * eye[kets])
    for jump in jumps:
        value += params.lam * (jump.conj()[bras] * jump[kets])
    pos, q_i = np.empty(d * d, dtype=np.intp), q[i]
    sectors = {}
    for sector in range(-n, n + 1):
        idx = np.flatnonzero(q == sector)
        pos[idx] = np.arange(idx.size)
        at = q_i == sector
        block = np.zeros((idx.size, idx.size), dtype=complex)
        block[pos[i[at]], pos[j[at]]] = value[at]
        sectors[sector] = (idx, block)
    return Liouvillian(params=params, sectors=sectors, terms=(K, jumps))


def _apply(rho: np.ndarray, K: np.ndarray, jumps: list[np.ndarray], lam: float) -> np.ndarray:
    """-i (K rho - rho K^dag) + lam sum_k L_k rho L_k^dag."""
    out = -1j * (K @ rho - rho @ K.conj().T)
    for jump in jumps:
        out += lam * (jump @ rho @ jump.conj().T)
    return out


def apply_liouvillian(rho: np.ndarray, params: ChainParams) -> np.ndarray:
    """Action of the generator on a density matrix, without the big matrix.

    Usable up to the dense-operator cap, past where the 4**n x 4**n
    matrix stops being practical.
    """
    return _apply(rho, *_terms(params), params.lam)


def _matvec_ld(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x in extended precision from the nonzeros of A alone.

    Each row sums its products from +0 in column order, as the dense
    clongdouble matmul does (a product it skips is a zero, which moves no
    sum but +0), so the value is the matmul's.  On the q = 0 system, 2.4%
    of it nonzero at n = 5 and 0.8% at n = 6, this takes 0.17 against
    0.91 ms at n = 5 and 1.7 against 12.8 ms at n = 6; finding the nonzeros
    is most of it.
    """
    rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])  # 3x faster than np.nonzero(A)
    out = np.zeros(A.shape[0], dtype=np.clongdouble)
    np.add.at(out, rows, A[rows, cols].astype(np.clongdouble) * x[cols].astype(np.clongdouble))
    return out


def steady_state_nullspace(liouv: Liouvillian) -> np.ndarray:
    """Unique unit-trace hermitian null vector of the Liouvillian.

    The generator keeps the trace, so the <0|.|0> row of the q = 0 block
    is minus the sum of its other diagonal rows: the trace row in its
    place makes L rho = 0, Tr rho = 1 regular.  rho is the first column
    of the inverse, refined once with the residual e_0 - A rho, whose
    product ``_matvec_ld`` forms in extended precision from the nonzeros of
    A (the QFI of near-pure states needs it).  Block -q is block q
    conjugated (ket and bra swapped), so only q >= 0 blocks are inverted:
    each cond_1 = |A|_1 |A^-1|_1 is exact, with the |A|_1 of a q >= 1 block
    the one the scale took; above COND_CUT (a second null vector) it raises.
    """
    if liouv.params.lam <= 0:
        raise ValueError("uniqueness of the steady state needs lambda > 0")
    d = 2 ** liouv.params.n
    norms = {q: np.linalg.norm(block, 1) for q, (_, block) in liouv.sectors.items()}
    scale = max(norms.values())
    for sector in range(liouv.params.n + 1):
        idx, block = liouv.sectors[sector]
        if sector == 0:  # the trace row in place of <0|.|0>
            block = np.vstack([idx % d == idx // d, block[1:]])
        try:
            inv = np.linalg.inv(block)
            cond = (norms[sector] if sector else np.linalg.norm(block, 1)) * np.linalg.norm(inv, 1)
        except np.linalg.LinAlgError:
            cond = math.inf
        if not cond <= COND_CUT:
            raise ValueError(f"null space dimension != 1 in sector q = {sector} "
                             f"(cond_1 {cond:.2e} above {COND_CUT:.1e})")
        if sector == 0:  # the residual of Tr rho = 1 (row 0) and L rho = 0
            r = (idx == 0) - _matvec_ld(block, inv[:, 0])
            rho = np.zeros((d, d), dtype=complex)
            rho[idx % d, idx // d] = inv[:, 0] + inv @ r.astype(complex)
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    residual = hs_norm(_apply(rho, *liouv.terms, liouv.params.lam))  # the blocks' K and jumps
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

    rho = S S+ / Tr(S S+) with S contracted from ``build_aux_B`` at
    s solving cot(s eta) = epsilon/(4 i sin eta).  Positive semidefinite
    and unit trace by construction.  It is the fixed point of the master
    equation above at epsilon = lam/J (Prosen, PRL 107, 137201 (2011)).

    S conserves M_z, so S S+ is formed one sector at a time inside the
    contraction (``contract_to_dense(..., gram=True)``): the block S_k of
    S between the basis states of one popcount k (one M_z value) gives
    rho's block S_k S_k+, of size C(n, k), and rho is exactly 0 between
    sectors.  S is never assembled; a nonzero block of S between sectors
    raises.  rho is scaled by 1/Tr, not divided by Tr: NumPy divides a
    complex array by a real c as the product with 1/c, and the multiply
    loop gives those bits about 5x faster (0.16 against 0.77 ms at n = 9
    on a 2-core Intel Xeon, 1 BLAS thread).  ``fisher.qfi_dense`` finds
    the same blocks and diagonalizes them one by one, under one support
    cut relative to the largest eigenvalue of all blocks.
    """
    if params.mu != 1.0:
        raise ValueError("closed-form non-perturbative NESS requires mu = 1")
    n = params.n
    s = solve_s(epsilon, params.eta)
    rho = contract_to_dense(build_aux_B(n, params.eta, s), n, gram=True)
    # normalized by the trace of the whole diagonal, in index order, as the
    # dense product was: the finite-difference QFI rows sit close to their
    # Richardson bound, and a last-bit change in Tr moves some across it
    tr = np.trace(rho).real
    if tr <= 0:
        raise ArithmeticError("S S+ has non-positive trace; contraction degenerate")
    rho *= 1 / tr
    return rho
