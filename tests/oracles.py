"""Reference implementations the tests hold the program to.  No scan calls
these.  Most are the plain form of a route the program computes another
way, kept to check that the faster form gives the same bits or the same
value.  ``route_a_f_lambda`` is the exact mu = 1 F_lambda that the
finite-difference rows are held to, and ``route_b_f_lambda`` the same
F_lambda from a state derivative taken by linear response instead.
``fisher_cross`` is no second route: from ``fisher.sld`` it builds the
Fisher matrix F_xy, whose off-diagonal the program never computes (its
diagonal is ``qfi_dense``).
``mp_f0_delta_bracket`` and ``mp_chi1`` are the transfer-matrix quantities
in mpmath, at a working precision the caller sets; ``rational_xi1`` is the
rational defect-sum slope in closed form.
"""

import numpy as np

from xxz_metrology import fisher
from xxz_metrology.fisher import qfi_dense, sld
from xxz_metrology.lindblad import LIOUVILLIAN_CAP, Liouvillian, _terms, build_liouvillian
from xxz_metrology.model import (_check_dense_cap, hs_norm, lindblad_jump_ops, magnetization_z,
                                 pauli)
from xxz_metrology.mpo import AuxMatrices, build_aux_B, contract_to_dense, popcount_sectors, solve_s


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
    """Reference: every block gathered whole, a dozen operands per entry,
    with all four jumps, the zero-rate ones too, and float sector labels."""
    n = params.n
    if n > LIOUVILLIAN_CAP:
        raise ValueError(f"dense Liouvillian capped at n <= {LIOUVILLIAN_CAP}, got {n}")
    K, jumps = _terms(params)[0], lindblad_jump_ops(params)
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


def rational_xi1(p, q):
    """The large-n slope xi_1 of the defect sum at eta = q pi/p on the d = p - 1
    bands, in closed form: xi_1 = y^T D' x / 4 with x = (1 - T')^-1 e_1 and
    y = (1 - T')^-T e_1 (T' the bulk of T), x_k = 2(d+1-k)/((d+1) sin^2(eta k))
    and y_k = 2(d+1-k)/((d+1) sin^2 eta), and D' the d x d bulk of D: diagonal
    k^2/2, moves out of |k> of weight k^2/4.  The 1/4 is <L|T|1> <1|T|R>.
    """
    eta, d = q * np.pi / p, p - 1
    k = np.arange(1, d + 1, dtype=float)
    x = 2 * (d + 1 - k) / ((d + 1) * np.sin(eta * k) ** 2)
    y = 2 * (d + 1 - k) / ((d + 1) * np.sin(eta) ** 2)
    dx = k ** 2 / 2 * x
    dx[1:] += k[:-1] ** 2 / 4 * x[:-1]  # climbs k -> k + 1
    dx[:-1] += k[1:] ** 2 / 4 * x[1:]  # descents k + 1 -> k
    return float(y @ dx / 4)


# the Pauli factor each slot of an MPO multiplies on a site
SLOT_PAULIS = {"identity": np.eye(2, dtype=complex), "sigma_plus": pauli("+"),
               "sigma_minus": pauli("-")}


def doubled_B(n, eta, s):
    """The MPO [[M, 0], [M', M]] of the B matrices M and M' = dM/ds, whose
    contraction is dS/ds.  State k' is index 2k and state k index 2k + 1, so
    the left boundary 0' is index 0 and the right boundary 0 is index 1; a
    path from 0 to 0' takes exactly one M' entry."""
    aux = build_aux_B(n, eta, s)
    k = np.arange(aux.dim_aux)
    derivatives = {"identity": np.diag(eta * np.cos(eta * (s - k))),
                   "sigma_plus": np.diag(-2 * eta * np.cos(eta * (k[:-1] - 2 * s)), 1),
                   "sigma_minus": np.zeros_like(aux.sigma_minus)}
    doubled = {}
    for name, derivative in derivatives.items():
        doubled[name] = np.zeros((2 * aux.dim_aux,) * 2, dtype=complex)
        doubled[name][0::2, 0::2] = doubled[name][1::2, 1::2] = getattr(aux, name)
        doubled[name][0::2, 1::2] = derivative
    return AuxMatrices(**doubled, right=1)


def route_a_f_lambda(params):
    """Route A: the mu = 1 F_lambda from S and its exact derivative.

    dS/deps is the contraction of ``doubled_B`` times ds/deps =
    i / (4 eta sin(eta) (1 - u**2)), u = eps / (4 sin eta), at eps = lam/J.
    Per popcount block S = U diag(sigma) V+ (one SVD) and X = U+ dS V; with
    N = sum sigma**2 and c = 2 Re sum sigma_k X_kk / N over all blocks,
    F_eps = (2/N) sum |X_kl sigma_l + sigma_k conj(X_lk) - delta_kl sigma_k**2 c|**2
    / (sigma_k**2 + sigma_l**2), and F_lambda = F_eps / J**2.  A pair with
    sigma_k = sigma_l = 0 has numerator 0 and is left out: no small
    eigenvalue divides anything.
    """
    n, eta, J = params.n, params.eta, params.j_coupling
    epsilon = params.lam / J
    s = solve_s(epsilon, eta)
    u = epsilon / (4 * np.sin(eta))
    S = contract_to_dense(build_aux_B(n, eta, s), n)
    dS = contract_to_dense(doubled_B(n, eta, s), n) * (1j / (4 * eta * np.sin(eta) * (1 - u ** 2)))
    blocks = []
    for idx in popcount_sectors(n):
        U, sigma, Vh = np.linalg.svd(S[idx[:, None], idx])
        blocks.append((sigma, U.conj().T @ dS[idx[:, None], idx] @ Vh.conj().T))
    norm = sum(np.sum(sigma ** 2) for sigma, _ in blocks)
    c = 2 * sum(np.sum(sigma * np.diag(X)).real for sigma, X in blocks) / norm
    total = 0.0
    for sigma, X in blocks:
        numerator = X * sigma + sigma[:, None] * X.conj().T - np.diag(sigma ** 2 * c)
        denominator = sigma[:, None] ** 2 + sigma ** 2
        pairs = denominator > 0
        total += np.sum(np.abs(numerator[pairs]) ** 2 / denominator[pairs])
    return 2 * total / norm / J ** 2


def route_b_f_lambda(params):
    """Route B: the mu = 1 F_lambda from d rho / d lambda by linear response.

    L(lam) rho = 0 with Tr rho = 1 gives L d rho = -(dL/dlam) rho with
    Tr d rho = 0.  L is linear in lam, so dL/dlam is ``build_liouvillian``
    at lam = 1 minus lam = 0, to rounding.  Both live in the q = 0 block,
    which is solved with the trace row in place of its <0|.|0> row, as
    ``steady_state_nullspace`` does; rho = S S+ / N is the closed form.
    Per popcount block, rho = U diag(sigma**2 / N) U+ from one SVD of S
    (small eigenvalues to relative accuracy, which eigh of rho lacks), and
    F_lambda = 2 sum |(U+ d rho U)_kl|**2 / (p_k + p_l) over p_k + p_l > 0.
    It shares S with route A, not dS: the two check each other's state
    derivative.  The dense Liouvillian caps it at n <= 6.
    """
    n, lam, d = params.n, params.lam, 2 ** params.n
    idx, block = build_liouvillian(params).sectors[0]
    dL = (build_liouvillian(params.replace(lam=1.0)).sectors[0][1]
          - build_liouvillian(params.replace(lam=0.0)).sectors[0][1])
    S = contract_to_dense(build_aux_B(n, params.eta, solve_s(lam / params.j_coupling,
                                                             params.eta)), n)
    norm = np.sum(np.abs(S) ** 2)
    rhs = -(dL @ (S @ S.conj().T / norm)[idx % d, idx // d])
    rhs[0] = 0.0  # Tr d rho = 0
    drho = np.zeros((d, d), dtype=complex)
    drho[idx % d, idx // d] = np.linalg.solve(np.vstack([idx % d == idx // d, block[1:]]), rhs)
    total = 0.0
    for sector in popcount_sectors(n):
        U, sigma, _ = np.linalg.svd(S[np.ix_(sector, sector)])
        p = sigma ** 2 / norm
        X = U.conj().T @ drho[np.ix_(sector, sector)] @ U
        denominator = p[:, None] + p
        pairs = denominator > 0
        total += np.sum(np.abs(X[pairs]) ** 2 / denominator[pairs])
    return 2 * total


def contract_by_quadrants(aux, n):
    """Reference contraction: the dense quadrant loop, one 2**site x 2**site
    block per auxiliary state and site."""
    # the quadrants (row, col) where each slot's Pauli factor is 1
    pairs = [(getattr(aux, name), tuple(zip(*np.nonzero(sigma))))
             for name, sigma in SLOT_PAULIS.items()]
    # reaches_left[r]: the states with a path of r steps to the left boundary
    moves = sum(mat != 0 for mat, _ in pairs)
    reaches_left = [np.arange(aux.dim_aux) == 0]
    for _ in range(n - 1):
        reaches_left.append(moves.T @ reaches_left[-1] > 0)
    partial: dict[int, np.ndarray] = {aux.right: np.eye(1, dtype=complex)}
    for site in range(n):
        keep, half = reaches_left[n - 1 - site], 2 ** site
        step: dict[int, np.ndarray] = {}
        for mat, quadrants in pairs:
            rows, cols = np.nonzero(mat)
            for a, b in zip(rows, cols):
                block = partial.get(b)
                if block is None or not keep[a]:
                    continue
                if a not in step:
                    step[a] = np.zeros((2 * half, 2 * half), dtype=complex)
                contrib = mat[a, b] * block
                for i, j in quadrants:
                    step[a][i * half:(i + 1) * half, j * half:(j + 1) * half] += contrib
        partial = step
    dim = 2 ** n
    return partial.get(0, np.zeros((dim, dim), dtype=complex))
