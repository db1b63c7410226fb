"""Auxiliary-space MPOs and their contraction to dense operators.

An MPO is plain data (:class:`AuxMatrices`): the auxiliary-space matrices
that multiply the identity, sigma^+ and sigma^- on a site, and the right
boundary state; the left one is state 0.  Each auxiliary state a carries
a popcount label q(a), the popcount difference (row minus column) of the
partial operators it holds: q(right) = 0, and an entry a <- b of the
three matrices sets q(a) = q(b) + 0, -1 or +1, or raises ValueError.  An
MPO of depth m = max |q| (plus one per state the right boundary never
reaches) serves chains of up to 2m + 1 sites: labels above n//2 are
unreachable in n steps, so the builders clamp their index sums at n//2
(the test suite widens the space and checks that this changes no n-site
contraction).

``build_aux_A`` (the perturbative current-carrying operator Z) and
``build_aux_B`` (the extreme-driving amplitude operator S) fill it.  Each
states its pairing of matrices with Pauli factors, which is fixed by
requiring the assembled steady states to actually annihilate the
Liouvillian: with any other pairing the first-order fixed point fails,
which the lindblad tests would catch immediately.

The contraction works in blocks between basis states of given row and
column popcounts (M_z values), so the zeros between them never form:
at most C(2n, n) entries per auxiliary state instead of 4**n, and one
2**n x 2**n array, the result, assembled at the end (or, with ``gram``,
the Gram matrix S S+ from each diagonal block times its adjoint: how
``lindblad.ness_mu1`` forms its state without a dense S).  It follows a plan
cached per nonzero pattern, right state and n: each site writes one flat
buffer, the block moves from small source blocks as one gather, multiply
and scatter per write layer, the large ones as slices of it.  It adds
the same terms in the same order as the dense quadrant loop and the
np.kron loop the test suite keeps as references: the results agree bit
for bit.

The norm ||Z||_HS^2 and the validity threshold come from the transfer
bracket instead, as SignedLogs of its float or (|Delta| > 1) its log:
both leave the double range for |Delta| > 1 at moderate n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import _check_dense_cap
from .transfer import LinePasses, SignedLog, bracket_LTnR

# the quadrants (row bit, column bit) where each slot's Pauli factor is 1
SLOTS = (("identity", ((0, 0), (1, 1))), ("sigma_plus", ((0, 1),)),
         ("sigma_minus", ((1, 0),)))
SMALL_BLOCK = 512  # source entries up to which a block move joins its site's index layers


@dataclass
class AuxMatrices:
    """A U(1) MPO with checked popcount labels (see the module docstring)."""

    identity: np.ndarray
    sigma_plus: np.ndarray
    sigma_minus: np.ndarray
    right: int = 0
    depth: int = field(init=False)

    dim_aux = property(lambda self: self.identity.shape[0])

    def __post_init__(self):
        pattern = np.stack([getattr(self, name) != 0 for name, _ in SLOTS])
        self.depth = _depth(pattern.tobytes(), self.dim_aux, self.right)


@lru_cache(maxsize=64)
def _depth(pattern: bytes, dim: int, right: int) -> int:
    """The depth of an MPO from its slots' nonzero patterns (stacked in SLOTS
    order) and its right state; ValueError on an entry against its label.
    Cached, and lru_cache keeps no exception: a bad pattern raises at every
    construction."""
    nonzero = np.frombuffer(pattern, dtype=bool).reshape(len(SLOTS), dim, dim)
    # a factor that is 1 in quadrant (i, j) moves the label by i - j
    entries = [(name, a, b, quadrants[0][0] - quadrants[0][1])
               for (name, quadrants), mask in zip(SLOTS, nonzero)
               for a, b in np.argwhere(mask).tolist()]
    q, labelled = {right: 0}, 0
    while len(q) > labelled:  # the pass that labels no state checks every entry
        labelled = len(q)
        for name, a, b, step in entries:
            if b in q and q.setdefault(a, q[b] + step) != q[b] + step:
                raise ValueError(f"{name}[{a}, {b}] sets popcount label {q[b] + step} "
                                 f"on state {a}, which has {q[a]}")
    # an unreached state (A's |2>, ... at eta = 0) may carry any label:
    # it counts as one level of depth more
    return max(map(abs, q.values())) + dim - len(q)


def build_aux_A(n: int, eta: complex) -> AuxMatrices:
    """A matrices on {|L>, |R>, |1>, ..., |n//2>} (dim n//2 + 2), right state |R>.

    A_0 = |L><L| + |R><R| + sum_k cos(eta k) |k><k|     (identity slot)
    A_+ = |1><R| - sum_k sin(eta k) |k+1><k|            (sigma^- slot)
    A_- = |L><1| + sum_k sin(eta (k+1)) |k><k+1|        (sigma^+ slot)
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
    return AuxMatrices(identity=a0, sigma_plus=am, sigma_minus=ap, right=R)


def build_aux_B(n: int, eta: complex, s: complex) -> AuxMatrices:
    """B matrices on {|0>, ..., |n//2>}, both boundary states |0>, for the mu = 1 S.

    B_0 = sum_k sin(eta (s - k)) |k><k|       (identity slot)
    B_+ = sum_k sin(eta (k - 2s)) |k><k+1|    (sigma^+ slot)
    B_- = sum_k sin(eta (k + 1)) |k+1><k|     (sigma^- slot)
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if abs(cmath.sin(eta)) < 1e-12:
        raise ValueError("B matrices undefined at the isotropic point (sin eta = 0)")
    m = n // 2
    dim = m + 1
    b0, bp, bm = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    for k in range(0, m + 1):
        b0[k, k] = cmath.sin(eta * (s - k))
        if k + 1 <= m:
            bp[k, k + 1] = cmath.sin(eta * (k - 2 * s))
            bm[k + 1, k] = cmath.sin(eta * (k + 1))
    return AuxMatrices(identity=b0, sigma_plus=bp, sigma_minus=bm)


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
def _popcount(n: int) -> np.ndarray:
    """The popcount of each basis index 0..2**n - 1, its number of spins down:
    M_z = n - 2 popcount (read-only, cached per n)."""
    popcount = sum((np.arange(2 ** n) >> bit) & 1 for bit in range(n))
    popcount.flags.writeable = False
    return popcount


@lru_cache(maxsize=16)
def popcount_sectors(n: int) -> tuple[np.ndarray, ...]:
    """The basis indices of popcount k = 0..n in ascending order: one M_z
    sector each (read-only, cached per n)."""
    sectors = tuple(np.flatnonzero(_popcount(n) == k) for k in range(n + 1))
    for idx in sectors:
        idx.flags.writeable = False
    return sectors


def contract_to_dense(aux: AuxMatrices, n: int, *, gram: bool = False) -> np.ndarray:
    """Contract an MPO to the dense 2**n x 2**n operator, or with ``gram``
    to its Gram matrix S S+.

    Propagates the right boundary vector through the site loop, carrying
    the partial operators of the auxiliary states (never enumerating the
    3**n strings), each held as its blocks between basis states of given
    row and column popcounts: a Pauli factor moves a block by at most one
    popcount, so the zeros between other pairs never form.  A site step
    writes ``mat[a, b] * block`` into the quadrants where its Pauli factor
    is 1, at offset C(site, k) in the block of the new popcount k, and
    keeps only the auxiliary states inside both light cones: reachable
    from the right boundary in the steps taken and able to reach the left
    boundary in the steps left.  Each auxiliary state carries one popcount
    difference, its label, so its blocks hold at most C(2 site, site)
    entries (48620 at 9 sites, against 4**9 = 262144 for a dense partial
    operator), and the work follows the entries.  The moves come from a
    cached plan (see :func:`_block_plan`).  The operator conserves M_z and
    ends as n + 1 blocks, which are written into the one 2**n x 2**n array
    at the end.  With ``gram`` each diagonal block S_kk is written as
    S_kk S_kk+, the block of S S+ when S conserves M_z; a nonzero block
    between two popcounts raises ArithmeticError (``build_aux_B`` has
    none: its boundary state 0 carries label 0), so S S+ is exactly 0
    between sectors and S itself never forms.  n is held to the model's
    dense cap (ValueError past it).
    """
    _check_dense_cap(n)
    blocks = _contract_blocks(aux, n)
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    sectors = popcount_sectors(n)
    for (row, col), block in blocks.items():
        if gram and row != col:
            if block.any():
                raise ArithmeticError(f"the popcount block ({row}, {col}) mixes M_z sectors")
            continue
        out[sectors[row][:, None], sectors[col]] = block @ block.conj().T if gram else block
    return out


def _contract_blocks(aux: AuxMatrices, n: int) -> dict[tuple[int, int], np.ndarray]:
    """The popcount blocks of :func:`contract_to_dense`'s operator, keyed by
    (row popcount, column popcount); blocks that are zero are absent.

    Each site's blocks are views of one flat buffer, written by the moves
    of :func:`_block_plan`: per write layer one gather of coefficients and
    source entries, one product and one scatter (the first layer writes,
    the later ones add), then each large move as a slice product.  Every
    entry sums the terms of the dense quadrant loop in its order.  That
    loop also adds terms from outside these blocks, but they are signed
    zeros, which change no sum; and it adds a quadrant's first term to +0,
    where this loop writes it, so each -0 is turned into +0 at the end.
    The entries agree bit for bit.
    """
    if aux.depth < n // 2:
        raise ValueError(f"auxiliary space of depth {aux.depth} too small for "
                         f"an {n}-site contraction (need >= {n // 2})")
    # the terms a <- b in the order the dense loop adds them: slot by slot, row-major
    per_slot = aux.dim_aux ** 2
    entries = np.concatenate([getattr(aux, name).ravel() for name, _ in SLOTS])
    nonzero = np.flatnonzero(entries)
    terms = tuple((*divmod(i % per_slot, aux.dim_aux), SLOTS[i // per_slot][1])
                  for i in nonzero.tolist())
    coeffs = entries[nonzero].astype(complex, copy=False)
    sites, final = _block_plan(terms, aux.right, n)
    prev = np.ones(1, dtype=complex)
    for size, layers, large in sites:
        buf = np.zeros(size, dtype=complex)
        for layer, (into, src, term, count) in enumerate(layers):
            values = np.repeat(coeffs[term], count)
            values *= prev[src]
            buf[into] = np.add(buf[into], values, out=values) if layer else values
        for t, src, src_shape, dst, dst_shape, index, first in large:
            view = buf[dst].reshape(dst_shape)[index]
            if first:
                np.multiply(coeffs[t], prev[src].reshape(src_shape), out=view)
            else:
                view += coeffs[t] * prev[src].reshape(src_shape)
        prev = buf
    prev += 0.0  # the last site holds the left state's blocks alone
    return {key: prev[at:at + h * w].reshape(h, w) for key, (at, h, w) in final}


@lru_cache(maxsize=64)
def _block_plan(terms: tuple, right: int, n: int):
    """The plan of an n-site block contraction, from the terms (a, b,
    quadrants) alone.  Cached, so a contraction repeated at another
    coefficient only gathers, multiplies and adds.

    Per site: the size of the flat buffer that holds its blocks, the
    small moves as write layers (destination and source entries in the
    flat buffers, then each move's term and entry count), and the large
    moves (term, source slice and shape, destination slice and shape, its
    quadrant's index, first write?).  Then the left state's (state 0's)
    blocks as ((row, col), (offset, rows, cols)) in the last buffer.

    A new bit i in quadrant (i, j) takes the block (row, col) to (row + i,
    col + j), at offset C(site, row + i) below (and right of) the states
    whose new bit is 0.  A move writes the whole of its region, the
    quadrant of its new block, and every move into a region comes from a
    block of the same shape.  So a region's moves are all small (up to
    SMALL_BLOCK source entries) or all large, and its k-th move goes into
    layer k: each entry takes its terms in the dense loop's order.  Only
    the states inside both light cones are kept: reachable from the right
    boundary in the steps taken and able to reach the left boundary in
    the steps left.
    """
    reaches_left = [{0}]  # [r]: the states with a path of r steps to the left boundary
    for _ in range(n - 1):
        reaches_left.append({b for a, b, _ in terms if a in reaches_left[-1]})
    partial = {right: {(0, 0): (0, 1, 1)}}  # state -> key -> (offset, rows, cols)
    sites = []
    for site in range(n):
        keep = reaches_left[n - 1 - site]
        step, size, layers, large, writes = {}, 0, [], [], {}
        for t, (a, b, quadrants) in enumerate(terms):
            if a not in keep or b not in partial:
                continue
            target = step.setdefault(a, {})
            for (row, col), (src, h, w) in partial[b].items():
                for i, j in quadrants:
                    key = (row + i, col + j)
                    if key not in target:
                        target[key] = (size, math.comb(site + 1, key[0]),
                                       math.comb(site + 1, key[1]))
                        size += target[key][1] * target[key][2]
                    dst, height, width = target[key]
                    r, c = i * math.comb(site, key[0]), j * math.comb(site, key[1])
                    layer = writes.get((a, key, i, j), 0)
                    writes[(a, key, i, j)] = layer + 1
                    if h * w > SMALL_BLOCK:
                        large.append((t, slice(src, src + h * w), (h, w),
                                      slice(dst, dst + height * width), (height, width),
                                      (slice(r, r + h), slice(c, c + w)), layer == 0))
                        continue
                    if layer == len(layers):
                        layers.append([])
                    into = dst + (r + np.arange(h))[:, None] * width + c + np.arange(w)
                    layers[layer].append((into.ravel(), np.arange(src, src + h * w), t, h * w))
        partial = step
        for k, moves in enumerate(layers):
            into, src, term, count = zip(*moves)
            layers[k] = (np.concatenate(into), np.concatenate(src), np.array(term), np.array(count))
        sites.append((size, tuple(layers), tuple(large)))
    return tuple(sites), tuple(partial.get(0, {}).items())


def hs_norm_sq_via_transfer(n: int, eta: complex,
                            passes: LinePasses | None = None) -> SignedLog:
    """||Z||_HS^2 = 2**n <L|T^n|R> as a SignedLog, overflow-safe.

    Identity between the dense contraction of ``build_aux_A`` and the
    transfer-matrix bracket of ``bracket_LTnR`` (``passes`` shares it along a
    scan line), whose float or log it takes; past the cosh^2 overflow it
    raises.  Checked against hs_norm(contract_to_dense(...))**2 at small n.
    """
    bracket = bracket_LTnR(n, eta, passes=passes)
    log_bracket = bracket.log if isinstance(bracket, SignedLog) else math.log(bracket)
    return SignedLog(1.0, log_bracket + n * math.log(2.0))


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
    order overtakes the identity, from the bracket's float or log (see
    :func:`hs_norm_sq_via_transfer`).  Vacuous at mu = 0; raises past the
    cosh^2 overflow.
    """
    return SignedLog(1.0, _log_threshold(n, mu, hs_norm_sq_via_transfer(n, eta).log))
