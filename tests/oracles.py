"""Reference implementations the tests hold the program to.  No scan calls
these.  Most are the plain form of a route the program computes another
way, kept to check that the faster form gives the same bits or the same
value.  ``fisher_cross`` is no second route: from ``fisher.sld`` it builds
the Fisher matrix F_xy, whose off-diagonal the program never computes (its
diagonal is ``qfi_dense``).  ``mp_f0_delta_bracket`` and ``mp_chi1`` are the
transfer-matrix quantities in mpmath, at a working precision the caller sets.
"""

import numpy as np

from xxz_metrology import fisher
from xxz_metrology.fisher import qfi_dense, sld
from xxz_metrology.lindblad import LIOUVILLIAN_CAP, Liouvillian, _effective_hamiltonian
from xxz_metrology.model import _check_dense_cap, hs_norm, lindblad_jump_ops, magnetization_z
from xxz_metrology.mpo import build_aux_B, contract_to_dense, popcount_sectors, solve_s


def embed_before(n, site, op):
    """Reference: the embedding as two np.kron calls."""
    _check_dense_cap(n)
    op = np.asarray(op, dtype=complex)
    size = op.shape[0] if op.ndim == 2 else 0
    if op.shape != (size, size) or size < 2 or size & (size - 1):
        raise ValueError(f"op must be 2**k x 2**k with k >= 1, got shape {op.shape}")
    span = size.bit_length() - 1
    if not 1 <= site <= n - span + 1:
        raise ValueError(f"site {site} out of range 1..{n - span + 1}")
    out = np.kron(np.eye(2 ** (site - 1), dtype=complex), op)
    return np.kron(out, np.eye(2 ** (n - site - span + 1), dtype=complex))


def ness_mu1_before(params, epsilon):
    """Reference: the mu = 1 state normalized by NumPy's division rho /= Tr."""
    n = params.n
    S = contract_to_dense(build_aux_B(n, params.eta, solve_s(epsilon, params.eta)), n)
    rho = S
    for idx in popcount_sectors(n):
        sector = np.ix_(idx, idx)
        rho[sector] = S[sector] @ S[sector].conj().T
    rho /= np.trace(rho).real
    return rho


def build_liouvillian_before(params):
    """Reference: every block gathered whole, a dozen operands per entry."""
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
    return Liouvillian(params=params, sectors=sectors, terms=(K, jumps))


def qfi_parametric_before(params, parameter, build):
    """Reference: the stencils and Richardson levels each a new array."""
    field = fisher._FIELDS[parameter]
    x0 = getattr(params, field)
    h = 1e-4 * max(abs(x0), 1.0)

    def central(hh):
        rp = build(params.replace(**{field: x0 + hh}))
        rm = build(params.replace(**{field: x0 - hh}))
        return (rp - rm) / (2 * hh)

    stencils = [central(h / 2 ** k) for k in range(3)]
    rich = [(4 * fine - coarse) / 3
            for coarse, fine in zip(stencils, stencils[1:])]
    drho = rich[-1]
    scale = hs_norm(drho)
    if scale > 0 and hs_norm(rich[1] - rich[0]) > 1e-6 * scale:
        raise ArithmeticError(
            "state derivative did not converge: Richardson estimates differ "
            f"by {hs_norm(rich[1] - rich[0]):.2e} vs scale {scale:.2e}")
    return qfi_dense(build(params), drho)


def fisher_cross(rho, drho_x, drho_y):
    """Quantum Fisher matrix element F_xy = Tr(rho {L_x, L_y})/2."""
    Lx = sld(rho, drho_x)
    Ly = sld(rho, drho_y)
    return float(np.real(np.trace(rho @ (Lx @ Ly + Ly @ Lx))) / 2)


def mp_f0_delta_bracket(n, delta, mp):
    """sum_defect + (1/4) d^2/dt^2 <L|T^n|R> for Delta > 1, in mpmath.

    |T| and D on [L, 1..d]: <k|T|k> = cosh^2(t k), moves out of |k> weigh
    sinh^2(t k)/2, <L|T|1> = <1|T|R> = 1/2; <k|D|k> = -k^2/2, moves out
    of |k> weigh k^2/4.  The second derivative is mpmath's own.
    """
    d = n // 2

    def step(vec, diag, off, source):
        out = [diag[k] * vec[k] for k in range(d + 1)]
        for k in range(1, d):
            out[k + 1] += off[k] * vec[k]
            out[k] += off[k + 1] * vec[k + 1]
        out[0] += source * vec[1]
        return out

    def abs_t(t):
        diag = [mp.mpf(1)] + [mp.cosh(t * k) ** 2 for k in range(1, d + 1)]
        return diag, [0] + [mp.sinh(t * k) ** 2 / 2 for k in range(1, d + 1)]

    def bracket(t):
        diag, off = abs_t(t)
        v = [mp.mpf(0)] * (d + 1)
        for _ in range(n):
            v = step(v, diag, off, mp.mpf(1) / 2)
            v[1] += mp.mpf(1) / 2
        return v[0]

    t = mp.acosh(mp.mpf(delta))
    diag, off = abs_t(t)
    d_diag = [0] + [-mp.mpf(k) ** 2 / 2 for k in range(1, d + 1)]
    d_off = [0] + [mp.mpf(k) ** 2 / 4 for k in range(1, d + 1)]
    v = [mp.mpf(0)] * (d + 1)
    w = [mp.mpf(0)] * (d + 1)
    for _ in range(n):
        tw = step(w, diag, off, mp.mpf(1) / 2)
        dv = step(v, d_diag, d_off, 0)
        w = [a + b for a, b in zip(tw, dv)]
        v = step(v, diag, off, mp.mpf(1) / 2)
        v[1] += mp.mpf(1) / 2
    return w[0] + mp.diff(bracket, t, 2) / 4


def mp_chi1(delta, d, mp):
    """chi_1 = <1|(T' - 1)^-1|psi> / (2 psi_R) by a Thomas solve in mpmath.

    The Jordan similarity V = [[1, 0, a^T], [0, psi_R, 0], [0, psi, W]]
    (|L>, the defective vector, the bulk eigenvectors W with their |L>
    admixture a) has <L|V^-1|R> = a^T W^-1 psi / psi_R, and a^T W^-1 =
    <1|(T' - 1)^-1 / 2.  (psi_R, psi) solve (T - 1)|psi> = |L> by the
    recurrence psi_1 = 2, psi_R = 2(d+1)/d (1 - T_11) and
    psi_k = 2(d-k+1)/(d-k+2) T_{k,k-1}/(1 - T_kk) psi_{k-1}.  T' is the bulk
    block: row k holds sigma s(t(k-1))^2/2, c(t k)^2 and sigma s(t(k+1))^2/2,
    with (c, s, sigma) = (cos, sin, 1) at t = acos|Delta| for |Delta| < 1
    and (cosh, sinh, -1) at t = acosh|Delta| beyond.
    """
    x = abs(mp.mpf(delta))
    c, s, sigma, t = ((mp.cos, mp.sin, 1, mp.acos(x)) if x < 1
                      else (mp.cosh, mp.sinh, -1, mp.acosh(x)))
    diag = [c(t * k) ** 2 - 1 for k in range(1, d + 1)]  # T' - 1
    off = [sigma * s(t * k) ** 2 / 2 for k in range(1, d + 1)]  # the moves out of |k>
    psi = [mp.mpf(2)]
    for k in range(2, d + 1):
        psi.append(2 * mp.mpf(d - k + 1) / (d - k + 2) * off[k - 2] / -diag[k - 1] * psi[-1])
    psi_R = 2 * mp.mpf(d + 1) / d * -diag[0]
    upper, rhs = [mp.mpf(0)], [mp.mpf(0)]  # forward elimination, row i on row i - 1
    for i in range(d):
        pivot = diag[i] - (off[i - 1] * upper[-1] if i else 0)
        upper.append(off[i + 1] / pivot if i + 1 < d else 0)
        rhs.append((psi[i] - (off[i - 1] * rhs[-1] if i else 0)) / pivot)
    x = rhs[-1]
    for i in range(d - 1, 0, -1):
        x = rhs[i] - upper[i] * x
    return x / (2 * psi_R)
