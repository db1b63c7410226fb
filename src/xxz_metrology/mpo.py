"""Auxiliary-space MPO matrices and their contraction to dense operators.

Two tridiagonal families live here.  The A family (perturbative
current-carrying operator Z) acts on {|L>, |R>, |1>, ..., |n//2>}; the
B family (extreme-driving amplitude operator S) acts on
{|0>, ..., |n//2>} with both boundary vectors |0>.

Index sums referencing |n//2 + 1> are clamped to the stated basis:
states above n//2 are unreachable from the right boundary in n steps,
so clamping cannot change any n-site contraction (the test suite widens
the space and checks this).

The contraction works in blocks between basis states of given row and
column popcounts (M_z values), so the zeros between them never form:
at most C(2n, n) entries per auxiliary state instead of 4**n, and one
2**n x 2**n array, the result, assembled at the end.  It adds the same
terms in the same order as the dense quadrant loop and the np.kron loop
the test suite keeps as references: the results agree bit for bit.

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
from functools import lru_cache

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


@lru_cache(maxsize=16)
def popcount_sectors(n: int) -> tuple[np.ndarray, ...]:
    """The basis indices of popcount k = 0..n in ascending order: one M_z
    sector each (read-only, cached per n)."""
    basis = np.arange(2 ** n)
    popcount = sum((basis >> bit) & 1 for bit in range(n))
    sectors = tuple(np.flatnonzero(popcount == k) for k in range(n + 1))
    for idx in sectors:
        idx.flags.writeable = False
    return sectors


def contract_to_dense(aux: AuxMatrices, n: int) -> np.ndarray:
    """Contract an MPO to the dense 2**n x 2**n operator.

    Propagates the right boundary vector through the site loop, carrying
    a map from auxiliary indices to partial operators (never enumerating
    the 3**n strings), each held as its blocks between basis states of
    given row and column popcounts: a Pauli factor moves a block by at
    most one popcount, so the zeros between other pairs never form.  A
    site step writes ``mat[a, b] * block`` straight into the quadrants
    where its Pauli factor is 1, at offset C(site, k) in the block of the
    new popcount k, and keeps only the auxiliary states inside both light
    cones: reachable from the right boundary in the steps taken and able
    to reach the left boundary in the steps left.  In both families each
    auxiliary state carries one popcount difference, so its blocks hold
    at most C(2 site, site) entries (48620 at 9 sites, against 4**9 =
    262144 for a dense partial operator), and the work follows the
    entries.  The operator conserves M_z and ends as n + 1 blocks, which
    are written into the one 2**n x 2**n array at the end.  n is held to
    the model's dense cap (ValueError past it).
    """
    _check_dense_cap(n)
    blocks = _contract_blocks(aux, n)
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    sectors = popcount_sectors(n)
    for (row, col), block in blocks.items():
        out[sectors[row][:, None], sectors[col]] = block
    return out


def _contract_blocks(aux: AuxMatrices, n: int) -> dict[tuple[int, int], np.ndarray]:
    """The popcount blocks of :func:`contract_to_dense`'s operator, keyed by
    (row popcount, column popcount); blocks that are zero are absent.

    Every entry sums the terms of the dense quadrant loop in its order.
    That loop also adds terms from outside these blocks, but they are
    signed zeros, which change no sum; and it adds a quadrant's first
    term to +0, where this loop writes it, so each -0 is turned into +0
    at the end.  The entries agree bit for bit.
    """
    needed = n // 2 + (2 if aux.family == "A" else 1)
    if aux.dim_aux < needed:
        raise ValueError(f"auxiliary space of dim {aux.dim_aux} too small for "
                         f"an {n}-site contraction (need >= {needed})")
    # the quadrants (row, col) where the paired Pauli factor is 1
    one, plus, minus = ((0, 0), (1, 1)), ((0, 1),), ((1, 0),)
    if aux.conjugate_paulis:
        plus, minus = minus, plus
    # the terms a <- b in the order the dense loop adds them
    terms = [(int(a), int(b), quadrants, mat[a, b])
             for mat, quadrants in ((aux.a0, one), (aux.a_plus, plus), (aux.a_minus, minus))
             for a, b in zip(*np.nonzero(mat))]
    coeffs = [coeff for *_, coeff in terms]
    sites, final = _block_moves(tuple(term[:3] for term in terms),
                                aux.left_index, aux.right_index, n)
    blocks = [np.eye(1, dtype=complex)]
    for shapes, moves in sites:
        step = [np.zeros(shape, dtype=complex) for shape in shapes]
        for t, src, dst, index, first in moves:
            if first:
                np.multiply(coeffs[t], blocks[src], out=step[dst][index])
            else:
                view = step[dst][index]
                view += coeffs[t] * blocks[src]
        blocks = step
    for _, i in final:
        blocks[i] += 0.0
    return {key: blocks[i] for key, i in final}


@lru_cache(maxsize=64)
def _block_moves(terms: tuple, left: int, right: int, n: int):
    """The moves of an n-site block contraction, from the terms (a, b,
    quadrants) alone: per site the shapes of the new blocks and the moves
    (term, source block, new block, its quadrant's index, first write?),
    then the left state's blocks as ((row, col), block) pairs.  Cached,
    so a contraction repeated at another coefficient only multiplies and
    adds.

    A new bit i in quadrant (i, j) takes the block (row, col) to (row + i,
    col + j), at offset C(site, row + i) below (and right of) the states
    whose new bit is 0.  Only the states inside both light cones are kept:
    reachable from the right boundary in the steps taken and able to reach
    the left boundary in the steps left.
    """
    reaches_left = [{left}]  # [r]: the states with a path of r steps to the left boundary
    for _ in range(n - 1):
        reaches_left.append({b for a, b, _ in terms if a in reaches_left[-1]})
    partial = {right: {(0, 0): (0, (1, 1))}}  # state -> key -> (block, shape)
    sites = []
    for site in range(n):
        keep = reaches_left[n - 1 - site]
        step, shapes, moves, written = {}, [], [], set()
        for t, (a, b, quadrants) in enumerate(terms):
            if a not in keep or b not in partial:
                continue
            target = step.setdefault(a, {})
            for (row, col), (src, (h, w)) in partial[b].items():
                for i, j in quadrants:
                    key = (row + i, col + j)
                    if key not in target:
                        target[key] = (len(shapes), (math.comb(site + 1, key[0]),
                                                     math.comb(site + 1, key[1])))
                        shapes.append(target[key][1])
                    r, c = i * math.comb(site, key[0]), j * math.comb(site, key[1])
                    moves.append((t, src, target[key][0], (slice(r, r + h), slice(c, c + w)),
                                  (a, key, i, j) not in written))
                    written.add((a, key, i, j))
        partial = step
        sites.append((tuple(shapes), tuple(moves)))
    return tuple(sites), tuple((key, block) for key, (block, _) in partial.get(left, {}).items())


def hs_norm_sq_via_transfer(n: int, eta: complex,
                            passes: LinePasses | None = None) -> SignedLog:
    """||Z||_HS^2 = 2**n <L|T^n|R> as a SignedLog, overflow-safe.

    Identity between the dense contraction of the A family and the
    transfer-matrix bracket, read by ``bracket_log_at`` (``passes`` shares
    it along a scan line), so past the cosh^2 overflow it raises; the test
    suite cross-checks it against hs_norm(contract_to_dense(...))**2 at small n.
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
    order overtakes the identity.  Vacuous at mu = 0; raises where
    :func:`hs_norm_sq_via_transfer` does, past the cosh^2 overflow.
    """
    return SignedLog(1.0, _log_threshold(n, mu, hs_norm_sq_via_transfer(n, eta).log))
