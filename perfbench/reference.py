"""Reference computations for the benchmark's output checks.

Nothing here imports xxz_metrology.  The transfer matrix T and the
vertex matrix D are rebuilt from the entries written in the docstrings
of ``transfer.py`` (T on the basis [L, R, 1..d]; cos^2 and sin^2 are
analytic squares, so for |Delta| > 1 with eta = i t they become cosh^2
and -sinh^2), and the Lindblad generator is rebuilt from 2x2 Pauli
matrices with the conventions of the README (sigma^z = diag(1, -1),
sigma^+ = |up><down|, site 1 the leftmost tensor factor, column-stacking
vectorization).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.linalg import lu_factor, lu_solve

_LOG2 = math.log(2.0)


def split_eta(delta: float) -> tuple[float, bool]:
    """(t, easy_axis) with eta = t for |Delta| < 1 and eta = i t for |Delta| > 1."""
    if abs(delta) < 1:
        return math.acos(delta), False
    return math.acosh(abs(delta)), True


# ---------------------------------------------------------------------------
# high-precision brackets from the docstring entries
# ---------------------------------------------------------------------------

def _mp_entries(d: int, t, easy_axis: bool):
    """(diag, climb, descent) for k = 1..d: <k|T|k>, <k+1|T|k>, <k|T|k+1>."""
    if easy_axis:
        sq_c = lambda x: mp.cosh(x) ** 2
        sq_s = lambda x: -mp.sinh(x) ** 2
    else:
        sq_c = lambda x: mp.cos(x) ** 2
        sq_s = lambda x: mp.sin(x) ** 2
    diag = [sq_c(t * k) for k in range(1, d + 1)]
    climb = [sq_s(t * k) / 2 for k in range(1, d + 1)]
    desc = [sq_s(t * (k + 1)) / 2 for k in range(1, d + 1)]
    return diag, climb, desc


def _mp_apply(entries, v, transpose: bool = False):
    """T v (or T^T v) for v = [L, R, b_1..b_d]."""
    diag, climb, desc = entries
    lo, up = (desc, climb) if transpose else (climb, desc)
    b = v[2:]
    d = len(b)
    nb = [diag[k] * b[k] for k in range(d)]
    for k in range(d - 1):
        nb[k + 1] += lo[k] * b[k]
        nb[k] += up[k] * b[k + 1]
    half = mp.mpf(1) / 2
    if transpose:      # <L|T|1> = <1|T|R> = 1/2, read along the other direction
        nb[0] += half * v[0]
        return [v[0], v[1] + half * b[0]] + nb
    nb[0] += half * v[1]
    return [v[0] + half * b[0], v[1]] + nb


def _unit(d: int, index: int):
    v = [mp.mpf(0)] * (d + 2)
    v[index] = mp.mpf(1)
    return v


def mp_bracket(n: int, t, easy_axis: bool, d: int):
    """<L|T^n|R> in mpmath precision."""
    ent = _mp_entries(d, mp.mpf(t), easy_axis)
    v = _unit(d, 1)
    for _ in range(n):
        v = _mp_apply(ent, v)
    return v[0]


def mp_sum_defect(n: int, t, easy_axis: bool, d: int, sign: int):
    """sum_{k=1}^n <L|T^{k-1} D T^{n-k}|R>, term by term.

    D over [1..d]: <k|D|k> = sign k^2/2, <k+1|D|k> = k^2/4,
    <k|D|k+1> = (k+1)^2/4, with sign = sign(1 - Delta^2).
    """
    ent = _mp_entries(d, mp.mpf(t), easy_axis)
    right = []
    v = _unit(d, 1)
    for _ in range(n):
        right.append(v)
        v = _mp_apply(ent, v)
    u = _unit(d, 0)
    total = mp.mpf(0)
    for k in range(1, n + 1):
        b = right[n - k][2:]
        db = [sign * mp.mpf(j + 1) ** 2 / 2 * b[j] for j in range(d)]
        for j in range(d - 1):
            db[j + 1] += mp.mpf(j + 1) ** 2 / 4 * b[j]
            db[j] += mp.mpf(j + 2) ** 2 / 4 * b[j + 1]
        total += mp.fsum(u[2 + j] * db[j] for j in range(d))
        u = _mp_apply(ent, u, transpose=True)
    return total


def mp_d2_bracket(n: int, t: float, easy_axis: bool, d: int):
    """d^2/dt^2 <L|T^n|R> by mpmath's high-precision numerical derivative."""
    return mp.diff(lambda tt: mp_bracket(n, tt, easy_axis, d), mp.mpf(t), 2)


# ---------------------------------------------------------------------------
# double-precision recurrences and resolvents
# ---------------------------------------------------------------------------

def bulk_matrices(d: int, eta: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Bulk blocks T' and D' (rows/columns 1..d) for real eta."""
    k = np.arange(1, d + 1, dtype=float)
    T = np.diag(np.cos(eta * k) ** 2)
    D = np.diag(math.copysign(1.0, 1.0 - delta ** 2) * k ** 2 / 2)
    for i in range(d - 1):
        T[i + 1, i] = math.sin(eta * k[i]) ** 2 / 2
        T[i, i + 1] = math.sin(eta * (k[i] + 1)) ** 2 / 2
        D[i + 1, i] = k[i] ** 2 / 4
        D[i, i + 1] = (k[i] + 1) ** 2 / 4
    return T, D


def chi_intercept(eta: float, d: int, chi: float, max_steps: int = 20000) -> float:
    """chi_1 as the intercept <L|T^m|R> - chi m once the increments equal chi."""
    T, _ = bulk_matrices(d, eta, math.cos(eta))
    b = np.zeros(d)
    left = 0.0
    for m in range(1, max_steps + 1):
        inc = 0.5 * b[0]
        left, b = left + inc, T @ b
        b[0] += 0.5
        if m > 10 and abs(inc - chi) <= 1e-13 * abs(chi):
            return left - chi * m
    raise ArithmeticError(f"bracket increments did not settle in {max_steps} steps")


def resolvent_coefficients(d: int, eta: float, delta: float) -> dict:
    """chi, chi_1 and the defect slope xi_1 from (1 - T')^{-1}.

    With x = (1 - T')^{-1} e_1 and y = (1 - T')^{-T} e_1: the bracket grows as
    chi n + chi_1 with chi = x_1/4 and chi_1 = -chi - y.T' x/4, and the
    defect sum grows with slope xi_1 = y.D' x/4.
    """
    T, D = bulk_matrices(d, eta, delta)
    a = np.eye(d) - T
    e1 = np.zeros(d)
    e1[0] = 1.0
    x = np.linalg.solve(a, e1)
    y = np.linalg.solve(a.T, e1)
    chi = x[0] / 4
    return {"chi": chi, "chi1": -chi - (y @ T @ x) / 4, "xi1": (y @ D @ x) / 4}


def chi_dd_closed(delta: float, d: int) -> float:
    """d^2 chi / d eta^2 = d/(d+1) (2 Delta^2 + 1)/(1 - Delta^2)^2."""
    return d / (d + 1) * (2 * delta ** 2 + 1) / (1 - delta ** 2) ** 2


def _log_sinh(x: float) -> float:
    return x + math.log1p(-math.exp(-2 * x)) - _LOG2


def _log_cosh(x: float) -> float:
    return x + math.log1p(math.exp(-2 * x)) - _LOG2


def log_bracket(n: int, delta: float) -> float:
    """log <L|T^n|R> (d = n//2) with the entries themselves stored as logs.

    All T entries are nonnegative up to the common sign of the
    off-diagonals, whose product over any R -> L path is positive, so the
    bracket is a sum of positive path weights propagated by log-sum-exp.
    """
    t, easy_axis = split_eta(delta)
    d = max(n // 2, 1)
    k = np.arange(1, d + 1, dtype=float)
    if easy_axis:
        ld = 2 * np.array([_log_cosh(t * x) for x in k])
        lc = 2 * np.array([_log_sinh(t * x) for x in k]) - _LOG2
        lu = 2 * np.array([_log_sinh(t * (x + 1)) for x in k]) - _LOG2
    else:
        with np.errstate(divide="ignore"):
            ld = np.log(np.cos(t * k) ** 2)
            lc = np.log(np.sin(t * k) ** 2 / 2)
            lu = np.log(np.sin(t * (k + 1)) ** 2 / 2)
    # state over [1..d]; L accumulates separately
    b = np.full(d, -np.inf)
    left = -np.inf
    for _ in range(n):
        new = ld + b
        new[1:] = np.logaddexp(new[1:], lc[:-1] + b[:-1])
        new[:-1] = np.logaddexp(new[:-1], lu[:-1] + b[1:])
        new[0] = np.logaddexp(new[0], -_LOG2)
        left = np.logaddexp(left, b[0] - _LOG2)
        b = new
    return float(left)


def log_single_path(n: int, delta: float) -> float:
    """log of the single R -> 1 -> ... -> n/2 -> ... -> 1 -> L path weight.

    2^-n prod_{k=1}^{n/2-1} s(k)^2 s(k+1)^2 with s = sinh(t k) (easy axis)
    or |sin(eta k)| (easy plane); every path weight is positive, so this
    is a lower bound on the bracket.  Even n >= 4.
    """
    if n % 2 or n < 4:
        raise ValueError("single-path bound needs even n >= 4")
    t, easy_axis = split_eta(delta)
    log_s = _log_sinh if easy_axis else (lambda x: math.log(abs(math.sin(x))))
    total = -n * _LOG2
    for k in range(1, n // 2):
        total += 2 * (log_s(k * t) + log_s((k + 1) * t))
    return total


# ---------------------------------------------------------------------------
# Lindblad generator from Pauli matrices
# ---------------------------------------------------------------------------

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SP = np.array([[0, 1], [0, 0]], dtype=complex)
_SM = _SP.T.copy()


def _site(n: int, j: int, op: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(np.eye(2 ** (j - 1)), op), np.eye(2 ** (n - j)))


def hamiltonian(n: int, delta: float) -> np.ndarray:
    """sum_j sx sx + sy sy + Delta sz sz (J = 1)."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(1, n):
        for op, w in ((_SX, 1.0), (_SY, 1.0), (_SZ, delta)):
            h += w * _site(n, j, op) @ _site(n, j + 1, op)
    return h


def jumps(n: int, mu: float) -> list[np.ndarray]:
    """Boundary jumps: sigma^+_1, sigma^-_1, sigma^+_n, sigma^-_n with rates (1 +- mu)/2."""
    a, b = math.sqrt((1 + mu) / 2), math.sqrt((1 - mu) / 2)
    return [a * _site(n, 1, _SP), b * _site(n, 1, _SM),
            b * _site(n, n, _SP), a * _site(n, n, _SM)]


class Generator:
    """L(rho) = -i[H, rho] + lam sum_j (J rho J^+ - {J^+ J, rho}/2)."""

    def __init__(self, n: int, delta: float, lam: float):
        self.n, self.lam = n, lam
        self.h = hamiltonian(n, delta)
        self.jumps = jumps(n, 1.0)  # extreme driving, the only drive the workloads use
        self.jdj = sum(j.conj().T @ j for j in self.jumps)

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        out = -0.5 * (self.jdj @ rho + rho @ self.jdj)
        for j in self.jumps:
            out += j @ rho @ j.conj().T
        return out

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return -1j * (self.h @ rho - rho @ self.h) + self.lam * self.dissipator(rho)

    def residual(self, rho: np.ndarray) -> float:
        """||L(rho)|| / (||L|| ||rho||), the backward error of rho as a fixed point.

        ||L|| is bounded by 2 ||H|| + 2 lam ||sum_j J^+ J|| (spectral norms).
        """
        scale = 2 * np.abs(np.linalg.eigvalsh(self.h)).max()
        scale += 2 * self.lam * np.abs(np.linalg.eigvalsh(self.jdj)).max()
        return float(np.linalg.norm(self(rho)) / (scale * np.linalg.norm(rho)))

    def superoperators(self) -> tuple[np.ndarray, np.ndarray]:
        """(Hamiltonian part, dissipator per unit lam) as 4^n x 4^n matrices."""
        dim = 2 ** self.n
        eye = np.eye(dim)
        ham = -1j * (np.kron(eye, self.h) - np.kron(self.h.T, eye))
        dis = -0.5 * (np.kron(eye, self.jdj) + np.kron(self.jdj.T, eye))
        for j in self.jumps:
            dis = dis + np.kron(j.conj(), j)
        return ham, dis


def _refined_solve(lu, a_ext: np.ndarray, b: np.ndarray, steps: int = 4) -> np.ndarray:
    """Solve with the LU factors, refining with residuals in extended precision.

    Mixed-precision refinement converges to the double solution up to
    rounding as long as cond(a) * 1e-16 < 1 (two steps suffice here);
    that keeps the tiny eigenvalues of near-pure states (down to ~1e-12
    at Delta = 100) accurate enough for the QFI.
    """
    x = lu_solve(lu, b)
    b_ext = b.astype(np.clongdouble)
    for _ in range(steps):
        r = (b_ext - a_ext @ x.astype(np.clongdouble)).astype(complex)
        dx = lu_solve(lu, r)
        x = x + dx
    if not np.linalg.norm(dx) <= 1e-14 * np.linalg.norm(x):
        raise ArithmeticError("iterative refinement did not converge (no unique steady state?)")
    return x


def nullspace_state(gen: Generator) -> tuple[np.ndarray, np.ndarray]:
    """(rho, d rho / d lam) of the unique steady state.

    The generator's row for <1|.|1> is replaced by the trace, so that
    (H + lam D) rho = 0, Tr rho = 1 becomes one regular linear system;
    differentiating gives the same matrix with right-hand side -D rho
    (and Tr rho' = 0).
    """
    dim = 2 ** gen.n
    ham, dis = gen.superoperators()
    a = ham + gen.lam * dis
    a[0] = np.eye(dim).flatten(order="F")
    lu, a_ext = lu_factor(a), a.astype(np.clongdouble)
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    vec = _refined_solve(lu, a_ext, rhs)
    rhs = -(dis.astype(np.clongdouble) @ vec.astype(np.clongdouble)).astype(complex)
    rhs[0] = 0.0
    dvec = _refined_solve(lu, a_ext, rhs)
    rho = vec.reshape((dim, dim), order="F")
    drho = dvec.reshape((dim, dim), order="F")
    return (rho + rho.conj().T) / 2, (drho + drho.conj().T) / 2


def qfi(rho: np.ndarray, drho: np.ndarray, support: float = 1e-12) -> float:
    """F = 2 sum_kl |<k|drho|l>|^2 / (p_k + p_l) over the support of rho."""
    p, u = np.linalg.eigh(rho)
    dr = u.conj().T @ drho @ u
    den = p[:, None] + p[None, :]
    mask = den > support * p.max()
    return float(2 * np.sum(np.abs(dr[mask]) ** 2 / den[mask]))


def state_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(|Tr rho - 1|, hermiticity defect, lowest eigenvalue) of a density matrix."""
    herm = float(np.linalg.norm(rho - rho.conj().T))
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    return abs(np.trace(rho).real - 1.0), herm, low


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = (a - b + (a - b).conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
