"""Auxiliary-space MPO matrices and their contraction to dense operators.

Two tridiagonal families live here.  The A family (perturbative
current-carrying operator Z) acts on {|L>, |R>, |1>, ..., |n//2>}; the
B family (extreme-driving amplitude operator S) acts on
{|0>, ..., |n//2>} with both boundary vectors |0>.

Index sums referencing |n//2 + 1> are clamped to the stated basis:
states above n//2 are unreachable from the right boundary in n steps,
so clamping cannot change any n-site contraction (the test suite widens
the space and checks this).

The dense contraction adds the same terms in the same order as the
np.kron loop the test suite keeps as a reference: the two agree entry
for entry.

The norm ||Z||_HS^2 and the validity threshold come from the transfer
bracket instead, as SignedLogs: both leave the double range for
|Delta| > 1 at moderate n.

The pairing between auxiliary matrices and Pauli factors is fixed by
requiring the assembled steady states to actually annihilate the
Liouvillian: the A family pairs A_+ with sigma^- and A_- with sigma^+
(equivalently, Z is the transpose of the naive reading), while the B
family pairs literally.  With any other pairing the first-order fixed
point fails, which the lindblad tests would catch immediately.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import _check_dense_cap
from .transfer import LinePasses, SignedLog, bracket_log_at


@dataclass
class AuxMatrices:
    """Tridiagonal auxiliary-space matrices; the family fixes the rest."""

    family: str               # 'A' or 'B'
    a0: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray

    dim_aux = property(lambda self: self.a0.shape[0])
    left_index = property(lambda self: 0)
    right_index = property(lambda self: 1 if self.family == "A" else 0)
    conjugate_paulis = property(lambda self: self.family == "A")

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValueError(f"family must be 'A' or 'B', got {self.family!r}")
        # nearest-neighbor moves on the auxiliary chain only; for the A
        # family both boundary vectors attach to |1> (indices 0, 1 <-> 2)
        idx = np.arange(self.dim_aux)
        allowed = np.abs(idx[:, None] - idx[None, :]) <= 1
        if self.family == "A":
            allowed[:2, :] = allowed[:, :2] = False
            allowed[0, 0] = allowed[1, 1] = True
            allowed[0, 2] = allowed[2, 1] = True
        for name in ("a0", "a_plus", "a_minus"):
            m = getattr(self, name)
            if np.any(m[~allowed] != 0):
                raise ValueError(f"{name} has entries off the auxiliary band")


def build_aux_A(n: int, eta: complex) -> AuxMatrices:
    """A-family matrices on {|L>, |R>, |1>, ..., |n//2>} (dim n//2 + 2).

    A_0 = |L><L| + |R><R| + sum_k cos(eta k) |k><k|
    A_+ = |1><R| - sum_k sin(eta k) |k+1><k|
    A_- = |L><1| + sum_k sin(eta (k+1)) |k><k+1|
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = n // 2
    dim = m + 2
    L, R = 0, 1
    ix = lambda k: 1 + k
    a0, ap, am = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    a0[L, L] = a0[R, R] = 1.0
    for k in range(1, m + 1):
        a0[ix(k), ix(k)] = cmath.cos(eta * k)
    ap[ix(1), R] = 1.0
    am[L, ix(1)] = 1.0
    for k in range(1, m):
        ap[ix(k + 1), ix(k)] = -cmath.sin(eta * k)
        am[ix(k), ix(k + 1)] = cmath.sin(eta * (k + 1))
    return AuxMatrices(family="A", a0=a0, a_plus=ap, a_minus=am)


def build_aux_B(n: int, eta: complex, s: complex) -> AuxMatrices:
    """B-family matrices on {|0>, ..., |n//2>} for the mu = 1 amplitude operator.

    B_0 = sum_k sin(eta (s - k)) |k><k|
    B_+ = sum_k sin(eta (k - 2s)) |k><k+1|
    B_- = sum_k sin(eta (k + 1)) |k+1><k|
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if abs(cmath.sin(eta)) < 1e-12:
        raise ValueError("B family undefined at the isotropic point (sin eta = 0)")
    m = n // 2
    dim = m + 1
    b0, bp, bm = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    for k in range(0, m + 1):
        b0[k, k] = cmath.sin(eta * (s - k))
        if k + 1 <= m:
            bp[k, k + 1] = cmath.sin(eta * (k - 2 * s))
            bm[k + 1, k] = cmath.sin(eta * (k + 1))
    return AuxMatrices(family="B", a0=b0, a_plus=bp, a_minus=bm)


def solve_s(epsilon: float, eta: complex) -> complex:
    """Solve cot(s eta) = epsilon / (4 i sin(eta)) on the principal branch.

    Closed form: s eta = pi/2 + i artanh(epsilon / (4 sin eta)), which
    reduces to s = pi/(2 eta) as epsilon -> 0.
    """
    eta = complex(eta)
    if abs(eta) < 1e-12 or abs(cmath.sin(eta)) < 1e-12:
        raise ValueError("s is undefined at the isotropic point")
    s = (math.pi / 2 + 1j * cmath.atanh(epsilon / (4 * cmath.sin(eta)))) / eta
    residual = 1 / cmath.tan(s * eta) * 4j * cmath.sin(eta) - epsilon
    if abs(residual) > 1e-10 * max(1.0, abs(epsilon)):
        raise ArithmeticError(f"solve_s round-trip residual {abs(residual):.2e}")
    return s


def contract_to_dense(aux: AuxMatrices, n: int) -> np.ndarray:
    """Contract an MPO to the dense 2**n x 2**n operator.

    Propagates the right boundary vector through the site loop, carrying
    a map from auxiliary indices to partial dense operators (never
    enumerating the 3**n strings).  A site step writes ``mat[a, b] *
    block`` straight into the quadrants where its Pauli factor is 1
    instead of building ``kron(sigma, block)``, and keeps only the
    auxiliary states inside both light cones: reachable from the right
    boundary in the steps taken and able to reach the left boundary in
    the steps left.  The last step builds the one left 2**n x 2**n
    block; with D = aux.dim_aux, the side of a0, work is O(D * 4**n)
    summed over the steps, memory O(D * 4**(n-1)) plus that block.
    n is held to the model's dense cap (ValueError past it).
    """
    _check_dense_cap(n)
    needed = n // 2 + (2 if aux.family == "A" else 1)
    if aux.dim_aux < needed:
        raise ValueError(f"auxiliary space of dim {aux.dim_aux} too small for "
                         f"an {n}-site contraction (need >= {needed})")
    # the quadrants (row, col) where the paired Pauli factor is 1
    one, plus, minus = ((0, 0), (1, 1)), ((0, 1),), ((1, 0),)
    if aux.conjugate_paulis:
        plus, minus = minus, plus
    pairs = ((aux.a0, one), (aux.a_plus, plus), (aux.a_minus, minus))
    # reaches_left[r]: the states with a path of r steps to the left boundary
    moves = (aux.a0 != 0) | (aux.a_plus != 0) | (aux.a_minus != 0)
    reaches_left = [np.arange(aux.dim_aux) == aux.left_index]
    for _ in range(n - 1):
        reaches_left.append(moves.T @ reaches_left[-1])
    partial: dict[int, np.ndarray] = {aux.right_index: np.eye(1, dtype=complex)}
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
    return partial.get(aux.left_index, np.zeros((dim, dim), dtype=complex))


def hs_norm_sq_via_transfer(n: int, eta: complex,
                            passes: LinePasses | None = None) -> SignedLog:
    """||Z||_HS^2 = 2**n <L|T^n|R> as a SignedLog, overflow-safe.

    Identity between the dense contraction of the A family and the
    transfer-matrix bracket (read by ``bracket_log_at``; ``passes``
    shares it along a scan line); the test suite cross-checks it against
    hs_norm(contract_to_dense(...))**2 wherever the dense form fits.
    """
    val = bracket_log_at(n, eta, passes)
    return SignedLog(val.sign, val.log + n * math.log(2.0))


def _log_threshold(n: int, mu: float, log_norm_sq: float) -> float:
    """log of the validity threshold from log ||Z||_HS^2 (see validity_threshold)."""
    if not -1.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [-1, 1], got {mu}")
    if mu == 0:
        raise ValueError("validity condition is vacuous at mu = 0 "
                         "(first order vanishes identically)")
    return 0.5 * (n + 1) * math.log(2.0) - math.log(abs(mu)) - 0.5 * log_norm_sq


def validity_threshold(n: int, eta: complex, mu: float) -> SignedLog:
    """Largest lambda/J for which the perturbative expansion is controlled.

    sqrt(2**(n+1)) / (mu ||Z||_HS), as a SignedLog; above it the first
    order overtakes the identity.  Vacuous at mu = 0.
    """
    return SignedLog(1.0, _log_threshold(n, mu, hs_norm_sq_via_transfer(n, eta).log))
