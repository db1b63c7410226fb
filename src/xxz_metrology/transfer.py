"""Transfer-matrix machinery for the auxiliary-space contractions.

The transfer matrix T acts on the basis {|L>, |R>, |1>, ..., |d>} and
its n-th power's (L, R) element gives the squared Hilbert-Schmidt norm
of the perturbative MPO (up to 2**n).  The vertex matrix D inserts the
anisotropy-derivative defect.  Everything here is real:

    <L|T|L> = <R|T|R> = 1,   <L|T|1> = <1|T|R> = 1/2,
    <k|T|k> = cos^2(eta k),
    <k+1|T|k> = sin^2(eta k)/2,   <k|T|k+1> = sin^2(eta (k+1))/2,

with cos^2/sin^2 understood as analytic squares, so for |Delta| > 1
(imaginary eta) the diagonal holds cosh^2 and the off-diagonals hold
-sinh^2/2.  Every R -> L path carries equally many climbs and descents,
hence all path amplitudes -- and every quantity computed here -- stay
positive; powers may therefore be taken with |T| elementwise.

All propagation goes through one jet propagator, :func:`_jet_series`: the
Taylor coefficients (v_0, ..., v_k) in s of (A_0 + s A_1 + ... + s^k A_k)^m
|R> obey v_j -> sum_i A_{j-i} v_i per step, and R (which never receives
amplitude) feeds |1> of v_0 with weight 1/2.  With A_0 = |T| the jets
(|T|), (|T|, D), (|T|, d|T|/dt, d^2|T|/dt^2 / 2) and (|T|, d|T|/dt, F)
give the bracket, the defect sum, half the bracket's second t-derivative
and twice the F_Delta bracket of :func:`f0_delta`.  The recurrence is data:
one pass of the two-variable jet |T| + s D + r d|T|/dt + r^2 d^2|T|/dt^2 / 2
on the monomials 1, r, s, r^2 gives the defect sum and half the second
derivative bit for bit, stepping |T| once (:func:`_xi_series`).  The bands
are tridiagonal over [L, 1, ..., d] and take O(d) memory.  The one loop runs
in two semirings, picked by the phase: (multiply, add) on floats for |Delta|
<= 1 (the bracket is at most n(n - 1)/8), (add, logaddexp) on their logs for
|Delta| > 1, where values leave the doubles at moderate n, on the columns
of :func:`_kept_columns`.  It carries no sign: D's diagonal, -k^2/2 for
|Delta| > 1, is the one negative entry, so :func:`sum_defect_log` runs
(|T|, D+, D-), D+ its moves and D- minus its diagonal, and subtracts the two
rows once.  Each pass updates at step m only the light cone of columns
0..min(m, n - m, d) that can still reach L by step n: sum_m (min(m, n - m,
d) + 1) ~ n^2/4 cells at d = n//2.
A float pass also stops at its support front (for |Delta| < 1 amplitudes
spread like sqrt(m)), moved up only for a cell next to it that is not finite
or above 2^-200 of its coefficient's largest in balanced size: 3.6 M of the
cone's 25.2 M cells at n = 10^4, Delta = 0.37 (:func:`_jet_series` bounds
what it moves a row).  It takes a batch axis too: band sets zero-padded to
one d (the rational xi grid of a scan line) propagate in one pass.

A pass to n passes through every m <= n, so the propagators take (n, eta),
run at d = n//2 and return their series over m = 0..n as arrays (the logs,
for ``bracket_LTnR_log``).  Row m of a pass truncated at d >= m//2 is the row
of m's own pass (d = m//2) bit for bit, except next to a band overflow (see
:class:`LinePasses`, which shares passes between the rows of a scan line);
only :func:`rational_defects` truncates below, at d = p - 1, where its rows
are exact.  Every log jet's order 0 is the bracket bit for bit, so each log
row is held to :func:`check_single_path` through order 0 of its own pass
(past the cosh^2 overflow it raises), and a row that an overflowed dT or F
entry reaches (NaN or +inf) raises too.

:func:`jordan_decompose` gives chi_1 in closed form, held to its own O(d)
rounding bound; the dense T and D of :func:`build_transfer` only check
the routes.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fisher import FisherEstimate
from .model import eta_from_delta

_LOG_MAX = math.log(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double


class SignedLog(NamedTuple):
    """A real number stored as (sign, log|value|); sign 0 means exactly 0."""

    sign: float
    log: float

    @property
    def value(self) -> float:
        if self.sign == 0.0:
            return 0.0
        if self.log > _LOG_MAX:
            return math.inf * self.sign
        return self.sign * math.exp(self.log)


def _split_eta(eta: complex) -> tuple[float, bool]:
    """Reduce eta to (t, easy_axis), with one t for Delta and -Delta.

    Easy plane: eta real, t = eta, folded to acos(-cos eta) past pi/2,
    where cos eta rounds back to Delta (pi - eta keeps the error of acos).
    Easy axis: eta = i t or pi + i t (Delta < -1).  Bands see |Delta| only.
    """
    eta = complex(eta)
    if abs(eta.imag) < 1e-14:
        t = float(eta.real)
        return (math.acos(-math.cos(t)) if t > math.pi / 2 else t), False
    if abs(eta.real) > 1e-14 and abs(eta.real - math.pi) > 1e-12:
        raise ValueError(f"eta must be real, i*t or pi + i*t; got {eta}")
    return abs(eta.imag), True


@dataclass
class TransferSystem:
    """Transfer matrix T and vertex matrix D truncated at index d.

    Dense matrices on the basis [L, R, 1..d] (indices 0, 1, 2..d+1),
    entries exactly as written above; for |Delta| > 1 the off-diagonal
    T entries are negative.
    """

    d: int
    eta: complex
    T: np.ndarray
    D: np.ndarray

    def index(self, label) -> int:
        if label == "L":
            return 0
        if label == "R":
            return 1
        return 1 + int(label)


def _entries(name: str, d: int, eta: complex) -> tuple[np.ndarray, np.ndarray]:
    """Bulk entries (diag[j], off[j]), j = 1..d, of one banded matrix.

    off[j] weighs both moves out of |j>: the climb <j+1|.|j> and the
    descent <j-1|.|j>.  'T' is |T|, 'dT' its t-derivative, 'd2T/2' half
    its second t-derivative (t of :func:`_split_eta`, even in Delta), 'D'
    the vertex matrix, with sign(1 - Delta^2) on its diagonal, split into
    'D+' and 'D-' for the log semiring, and
    'F' = 'd2T/2' + 2 'D' in closed form, so its O(t^2) diagonal is exact.
    """
    t, easy_axis = _split_eta(eta)
    j = np.arange(1, d + 1, dtype=float)
    c, s = (np.cosh, np.sinh) if easy_axis else (np.cos, np.sin)
    sigma = 1.0 if easy_axis else -1.0  # d/dx c(x)^2 = sigma s(2x)
    if name == "T":
        return c(t * j) ** 2, s(t * j) ** 2 / 2
    if name == "dT":
        return sigma * j * s(2 * t * j), j / 2 * s(2 * t * j)
    if name == "d2T/2":
        return sigma * j ** 2 * c(2 * t * j), j ** 2 / 2 * c(2 * t * j)
    if name == "F":
        return 2 * j ** 2 * s(t * j) ** 2, j ** 2 * c(t * j) ** 2
    if name == "D":
        return -sigma * j ** 2 / 2, j ** 2 / 4
    if name in ("D+", "D-"):  # D's nonnegative entries, and minus its negative ones
        diag, off = _entries("D", d, eta)
        return (np.maximum(diag, 0.0), off) if name == "D+" else (np.maximum(-diag, 0.0), 0 * off)
    raise ValueError(f"unknown band {name!r}")


def build_transfer(d: int, eta: complex) -> TransferSystem:
    """Transfer matrix T and vertex matrix D truncated at auxiliary index d."""
    if d < 1:
        raise ValueError(f"truncation index must be >= 1, got d={d}")
    dim = d + 2
    T = np.zeros((dim, dim))
    D = np.zeros((dim, dim))
    T[0, 0] = T[1, 1] = 1.0  # <L|T|L>, <R|T|R>
    T[0, 2] = T[2, 1] = 0.5  # <L|T|1>, <1|T|R>
    _, easy_axis = _split_eta(eta)
    bulk = np.arange(2, dim)
    for M, name, off_sign in ((T, "T", -1.0 if easy_axis else 1.0), (D, "D", 1.0)):
        diag, off = _entries(name, d, eta)
        M[bulk, bulk] = diag
        M[bulk[1:], bulk[:-1]] = off_sign * off[:-1]
        M[bulk[:-1], bulk[1:]] = off_sign * off[1:]
    return TransferSystem(d=d, eta=eta, T=T, D=D)


# ---------------------------------------------------------------------------
# jet propagator over the ordering [L, 1, ..., d] + source R
# ---------------------------------------------------------------------------

def _bands(names: tuple[str, ...], n: int, d: int | None,
           eta: complex) -> list[np.ndarray]:
    """The jet matrices A_0, A_1, ... as (3, d + 1) bands over [L, 1..d].

    d defaults to n//2: states above it cannot reach L in n steps.
    Row 0 is the diagonal, row 1 the lower band (entry i takes v[i-1]
    into v'[i]: climbs) and row 2 the upper band (entry i takes v[i+1]
    into v'[i]: descents, and 1 -> L for |T|).  A_0 is always |T|.
    """
    d = max(n // 2, 1) if d is None else d
    out = []
    for name in names:
        diag, off = _entries(name, d, eta)
        band = np.zeros((3, d + 1))
        band[0, 1:] = diag
        band[1, 2:] = off[:-1]
        band[2, 1:d] = off[1:]
        out.append(band)
    out[0][0, 0] = 1.0  # <L|T|L>
    out[0][2, 0] = 0.5  # <L|T|1>
    return out


_CONE_CHUNK = 32  # the light cone's width, rounded up to whole chunks of columns
_FRONT_TAU = 2.0 ** -200  # a cell above this share of its coefficient's largest moves the front


def _stack_bands(sets: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Band sets of one jet as (batch, 3, d + 1) stacks, zero-padded to the largest d."""
    dim = max(bands[0].shape[1] for bands in sets)
    out = np.zeros((len(sets[0]), len(sets), 3, dim))
    for s, bands in enumerate(sets):
        for j, band in enumerate(bands):
            out[j, s, :, :band.shape[1]] = band
    return list(out)


def _balance(a0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, 1/d, ok) over columns [L, 1..d] of each set, from A_0's (lower, diag,
    upper) of :func:`_jet_series`, shaped (3, batch, d + 1).

    d is the diagonal similarity that makes A_0's bulk symmetric: d_1 = 1,
    d_{c+1}/d_c = sqrt(descent(c+1 -> c) / climb(c -> c+1)), |s(tc)/s(t)|
    for |T|.  ok marks the columns up to the first whose d is not finite and
    positive (a zero climb or descent, or an overflow); d and 1/d are 0 at
    the others and at L, which is not in the bulk.
    """
    nb, dim = a0.shape[1:]
    d = np.ones((nb, dim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d[:, 2:] = np.cumprod(np.sqrt(a0[2, :, 1:-1] / a0[0, :, 2:]), axis=-1)
        ok = np.logical_and.accumulate(np.isfinite(d) & (d > 0) & np.isfinite(1 / d), axis=-1)
        weight, inv = np.where(ok, d, 0.0), np.where(ok, 1 / d, 0.0)
    weight[:, 0] = inv[:, 0] = 0.0
    return weight, inv, ok


# the semirings of :func:`_jet_series`: (times, plus, <1|T|R>, an empty cell, the band
# entry met by a buffer's edge column), on band entries or on their logs
_FLOATS = (np.multiply, np.add, 0.5, 0.0, -0.0)
_LOGS = (np.add, np.logaddexp, math.log(0.5), -math.inf, -math.inf)


def _step_calls(ring: tuple, jet: tuple, mats: np.ndarray, buf: np.ndarray, shifted: list,
                prod: np.ndarray, part: np.ndarray, dst: int, w: int) -> list[tuple]:
    """The ufunc calls of one step of :func:`_jet_series` into buf[dst], over columns 0..w."""
    (times, plus, half), prods, out = ring[:3], prod[:, :, :w + 1], []
    for c, terms in enumerate(jet):
        acc = buf[dst, c, :, 1:w + 2]
        for i, (b, e) in enumerate(terms):
            into = acc if i == 0 else part[:, :w + 1]
            source = shifted[1 - dst][e][:, :, :w + 1]
            out += [(times, mats[b, :, :, :w + 1], source, prods),
                    (plus, prods[0], prods[1], into), (plus, into, prods[2], into)]
            if i:
                out.append((plus, acc, into, acc))
    if w:  # R feeds |1> of v_0
        out.append((plus, buf[dst, 0, :, 2], half, buf[dst, 0, :, 2]))
    return out


# (|T| + s D + r d|T|/dt + r^2 d^2|T|/dt^2 / 2)^m truncated to the monomials (1, r, s, r^2):
# the s coefficient is that of the (|T|, D) jet, the r^2 one that of (|T|, dT, d2T/2),
# each summed in its own jet's order.  The two rows read, s and r^2, come last
_XI_BANDS = ("T", "D", "dT", "d2T/2")
_XI_JET = (((0, 0),), ((0, 1), (2, 0)), ((0, 2), (1, 0)), ((0, 3), (2, 1), (3, 0)))
# (|T|, D+, D-) in logs: v_1 and v_2 are the unsigned parts of the (|T|, D) jet's order 1
_SPLIT_JET = (((0, 0),), ((0, 1), (1, 0)), ((0, 2), (2, 0)))


def _jet_series(bands: list[np.ndarray], n: int, jet: tuple | None = None,
                ring: tuple = _FLOATS) -> np.ndarray:
    """<L|v_c> of the jet's read coefficients after m = 0..n steps.

    ``ring`` is _FLOATS, (multiply, add) on the band entries, or _LOGS,
    (add, logaddexp) on the logs of :func:`_live_bands`, where an empty cell
    is -inf and R feeds log 1/2.  ``jet`` is the recurrence as data, by
    default that of the univariate jet of the bands: for each coefficient c,
    the (b, e) pairs of v_c' = sum A_b v_e (band b, source coefficient e) in
    the order they are summed.  Coefficient 0 is |T| v_0, ((0, 0),), and R
    feeds its |1>.  The rows read are those of the last coefficients, from
    the first that no other coefficient sources (the top order of a
    univariate jet, the s and r^2 coefficients of _XI_JET), or of all in
    logs, whose rows are checked by their order 0; several get a leading
    axis.  ``bands[b]`` is A_b as one (3, d + 1) band, giving an (n + 1,)
    row, or as a batch of band sets (see :func:`_stack_bands`), giving one
    row per set.  A set padded with zero bands gets the finite rows of its
    own pass.  Step m updates columns 0..min(m, n - m, d, front) only:
    higher columns are still empty, can no longer reach L by step n, or lie
    above the support front.  The cone is rounded up to _CONE_CHUNK columns,
    so the views change only when it crosses a chunk; a stale value just
    past it reaches L after step n.

    The support front starts one chunk up.  Every column above it is +0 in
    both buffers, all coefficients and sets, since none was ever written.
    Every _CONE_CHUNK/2 steps at which it bounds the step, the front moves
    up a chunk if a cell of the step just taken in its top 17 columns is not
    finite, or if its balanced size d_c |v_c| exceeds tau = _FRONT_TAU =
    2^-200 of M, the largest balanced size of its (coefficient, set) over
    columns 1..front.  d is the similarity of :func:`_balance`, from A_0,
    once per pass.  Where M is not finite, or d is not finite and positive
    at some column up to front + 1, every nonzero cell counts: the
    exact-zero rule, which tau = 0 gives everywhere.  A value moves one
    column per step, so between two checks column front holds only what
    the top 17 columns held at the first.  Where the cone bounds the step
    instead, the checks are skipped: before step n/2 the amplitudes have
    not reached the window, after it nothing above the cone reaches L.  Under the exact-zero rule that is
    +0, which the plain cone would also add: finite band entries times +-0.
    Every other cell is formed by the same ufunc calls, in the same order,
    from the same operands, but for a -0 operand read as +0; x + (+-0) = x
    for x != 0, so every nonzero cell keeps its bits.  A non-finite band
    entry makes NaN of the zeros it meets, so such bands get no front
    (theirs starts at d), as do log bands, whose zeros are -inf.

    The bound, for the bands of :func:`_bands`.  Let B_b be A_b on the bulk
    columns 1..d and a_b the spectral norm of d B_b d^-1.  For |T| at |Delta|
    <= 1, B_0 >= 0 has column sums <= 1 and d B_0 d^-1 is symmetric, so a_0
    = rho(B_0) <= 1: a cell left behind only shrinks on its way to <L|, fed
    by A_0's <L|1> = 1/2 alone.  A step at the front w drops what would
    enter column w + 1, the climbs A_b v_e[w] of the terms (b, e) of each
    v_c', of balanced size at most g_b |d_w v_e[w]|, g_b the largest d_{w+1}
    climb_b(w -> w + 1) / d_w (g_0 = max |s(tw) s(t(w + 1))|/2 <= 1/2).  The
    window of each coefficient e held at most sqrt(17) tau M_e in balanced
    2-norm at the last check, so |d_w v_e[w]| <= [G^15 y]_e, y = sqrt(17) tau
    M, with G = max(a_0, 1) I + N and N_ce the sum of a_b over the terms
    (b >= 1, e) of v_c': the A_b insertions of the jet, nilpotent.  The
    dropped amounts propagate through G as well, so row m of coefficient c
    moves by at most

        (sqrt(17) / 4) tau m^2 [G^m Gamma G^15 M]_c,  Gamma_ce = sum of g_b over the terms (b, e) of v_c',

    M_e the largest over the checks: (sqrt(17) / 8) tau m^2 M_0, 3.2e-53 M_0
    at m = 10^4, for the bracket, and a polynomial in m whose degree grows
    with the insertions of c for a jet.  What is measured, not proved, is
    that no row moves at all (the cells left behind sit far below the last
    bit of the cells they reach): the rows of the exact-zero rule, bit for
    bit, in every scan and every test, up to tau = 2^-30; 2^-20 moves rows
    at n = 10^4 by up to 2.5e-13 relative, 2^-10 by up to 1.2e-8.  At n =
    10^4, Delta = 0.37 the widest step is 480 columns against 1312.

    Each element is computed in one fixed order: per band product,
    (diag v + lower v_-) + upper v_+ (a + b and b + a are the same bits, in
    add and in logaddexp), and the products of v_c' summed in ``jet``'s order.
    The two buffers of each coefficient carry one empty column on each side,
    met by a -0.0 entry (-inf in logs), which adds exactly nothing, as does
    any empty cell.  So row m is the same bits for every n >= m, every cone
    and every exact-zero front (and, as measured, every balanced one), and a
    coefficient whose terms (and theirs) are those of another jet has that
    jet's rows bit for bit.
    """
    if jet is None:  # v_j' = sum_{b=0..j} A_b v_{j-b}
        jet = tuple(tuple((b, j - b) for b in range(j + 1)) for j in range(len(bands)))
    sources = {e for c, terms in enumerate(jet) for _, e in terms if e != c}
    first = 0 if ring is _LOGS else min(c for c in range(len(jet)) if c not in sources)
    single, (*_, empty, pad) = bands[0].ndim == 2, ring
    k, nb, dim = len(jet), 1 if single else bands[0].shape[0], bands[0].shape[-1]
    # (lower, diag, upper) of output column c against (v_-, v, v_+)
    mats = np.zeros((len(bands), 3, nb, dim))
    for band, mat in zip(bands, mats):
        band = band.reshape(nb, 3, dim)
        mat[0, :, 1:] = band[:, 1, 1:]
        mat[1] = band[:, 0]
        mat[2, :, :-1] = band[:, 2, :-1]
    mats[:, 0, :, 0] = mats[:, 2, :, -1] = pad
    buf = np.full((2, k, nb, dim + 2), empty)  # the jet after an even and an odd step
    col, row = buf.strides[-1], buf.strides[-2]
    # (v_-, v, v_+) of every column as one view per buffer and coefficient
    shifted = [[np.lib.stride_tricks.as_strided(buf[p, c], (3, nb, dim), (col, row, col))
                for c in range(k)] for p in (0, 1)]
    prod = np.empty((3, nb, dim))
    part = np.empty((nb, dim))
    series = np.full((k - first, nb, n + 1), empty)
    tops = [buf[p, first:, :, 1] for p in (0, 1)]  # <L|v_c> read after an even and an odd step

    weight, inv, ok = _balance(mats[0])
    tau, width, steps = _FRONT_TAU, -1, []
    front = _CONE_CHUNK if np.isfinite(mats).all() else dim - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            w = min(-(-min(m, n - m) // _CONE_CHUNK) * _CONE_CHUNK, front, dim - 1)
            if w != width:
                width = w
                steps = [_step_calls(ring, jet, mats, buf, shifted, prod, part, dst, w)
                         for dst in (0, 1)]
            dst = m % 2
            for ufunc, a, b, into in steps[dst]:
                ufunc(a, b, into)
            series[..., m] = tops[dst]
            if w == front < dim - 1 and m % (_CONE_CHUNK // 2) == 0:
                v = buf[dst, :, :, 1:front + 2]  # columns 0..front (buffer index = column + 1)
                top = (np.abs(v) * weight[:, :front + 1]).max(axis=-1, keepdims=True)
                # tau of the largest balanced size of each (coefficient, set), or 0: the
                # exact-zero rule where that size or a weight up to front + 1 is not finite
                lim = np.where(np.isfinite(top) & ok[:, front + 1, None], tau * top, 0.0)
                window = v[..., -17:]  # columns front - 16..front
                if (~np.isfinite(window) | (np.abs(window) > lim * inv[:, front - 16:front + 1])).any():
                    front += _CONE_CHUNK
    rows = series[:, 0] if single else series
    return rows[0] if first == k - 1 else rows


def bracket_series(n: int, eta: complex) -> np.ndarray:
    """<L|T^m|R> for m = 0..n in one linear-domain pass."""
    return _jet_series(_bands(("T",), n, None, eta), n)


def defect_series(n: int, eta: complex) -> np.ndarray:
    """sum_k <L|T^{k-1} D T^{m-k}|R> for m = 0..n.

    The first-order coefficient of (|T| + s D)^m in s.
    """
    return _jet_series(_bands(("T", "D"), n, None, eta), n)


def _live_bands(names: tuple[str, ...], n: int, eta: complex) -> list[np.ndarray]:
    """Logs of the bands of ``names`` at d = n//2, on the columns up to
    :func:`_kept_columns`: only L where that is 0 (|Delta| >~ 1e77).  An
    overflowed dT or F entry makes its rows NaN or +inf."""
    d = _kept_columns(eta, max(n // 2, 1))
    with np.errstate(over="ignore", divide="ignore"):
        return [np.log(band[:, :d + 1]) for band in _bands(names, n, max(d, 1), eta)]


def bracket_LTnR_log(n: int, eta: complex) -> np.ndarray:
    """log <L|T^m|R> for m = 0..n (-inf for 0) in one log-domain pass (order 0 of every
    log jet); overflow-safe for |Delta| > 1.  :func:`bracket_LTnR` reads one row."""
    return _jet_series(_live_bands(("T",), n, eta), n, ring=_LOGS)  # no NaN: |T| has no +inf


def _checked_log_row(logs, n: int, eta: complex):
    """``logs``, row n of each coefficient of a log pass, once they pass the
    checks: order 0 (first), <L|T^n|R>, must be finite (the path R -> 1 -> L
    -> ... -> L alone weighs 1/4) and pass :func:`check_single_path`; then no
    row may be NaN or +inf (an overflowed dT or F entry); -inf is an exact 0."""
    if not math.isfinite(logs[0]):
        raise ArithmeticError(f"log <L|T^{n}|R> = {logs[0]} lost every path to band overflow")
    check_single_path(n, eta, logs[0])
    if not all(log < math.inf for log in logs):
        raise ArithmeticError(f"row {n} of a log jet reads {[float(x) for x in logs]}: "
                              "a band entry past the double range reached it")
    return logs


class LinePasses:
    """The jet passes shared by the rows of one scan line (points that
    differ only in n).

    ``passes(jet, n, eta)`` returns the series of ``jet``, a propagator of
    (n, eta) such as :func:`bracket_LTnR_log` or :func:`_xi_series`, from the
    last pass of that jet at that eta, kept as (n, kept columns, rows), if
    it holds row n as row n's own pass would, else from a new pass to n.
    A row with n//2 at or below the kept columns shares it without reading
    a band entry (the columns above add only empty cells before step n); so
    does one whose own pass keeps the same columns (n//2 past the overflow),
    and only the rows between the cut and the overflow take their own.
    """

    def __init__(self):
        self._last: dict = {}

    def __call__(self, jet, n: int, eta: complex):
        last = self._last.get((jet, eta))
        if last is None or n > last[0] or n // 2 > last[1] != _kept_columns(eta, n // 2):
            last = self._last[jet, eta] = (n, _kept_columns(eta, max(n // 2, 1)), jet(n, eta))
        return last[2]


def _kept_columns(eta: complex, d: int) -> int:
    """The last column a log pass at d keeps (:func:`_live_bands`): d if every
    |T| entry up to column d is finite, else J - 1, J the first column whose
    diagonal or moves are not (their +inf would meet -inf cells), or J - 2
    where the descent from J, stored at column J - 1, is +inf too."""
    with np.errstate(over="ignore"):
        diag, off = _entries("T", d, eta)
    overflowed = np.flatnonzero(~(np.isfinite(diag) & np.isfinite(off)))
    if not overflowed.size:
        return d
    last = int(overflowed[0])  # J - 1: off[J - 1] is the descent from J
    return last - (last > 0 and not math.isfinite(off[last]))


def bracket_LTnR(n: int, eta: complex, *, passes: LinePasses | None = None) -> float | SignedLog:
    """<L|T^n|R>: row n of its own pass, or of one ``passes`` shares along a line.

    The phase picks the engine: the float of :func:`bracket_series` for
    |Delta| <= 1, else a SignedLog of the checked row of :func:`bracket_LTnR_log`.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    passes = passes or LinePasses()
    if not _split_eta(eta)[1]:
        return float(passes(bracket_series, n, eta)[n])
    row = float(passes(bracket_LTnR_log, n, eta)[n])
    return SignedLog(1.0, *_checked_log_row([row], n, eta))  # finite once checked: sign 1


def sum_defect_log(n: int, eta: complex) -> SignedLog:
    """:func:`sum_defect` in logs, signs exact, as the difference of the two
    unsigned rows of one (|T|, D+, D-) pass; raises where :func:`bracket_LTnR` does."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    bands = _live_bands(("T", "D+", "D-"), n, eta)
    _, plus, minus = _checked_log_row(_jet_series(bands, n, _SPLIT_JET, _LOGS)[:, n], n, eta)
    if plus == minus:  # both -inf included: D never bridges R to L at n = 2
        return SignedLog(0.0, -math.inf)
    sign, big, small = (1.0, plus, minus) if plus > minus else (-1.0, minus, plus)
    return SignedLog(sign, float(big + math.log1p(-math.exp(small - big))))


def sum_defect(n: int, eta: complex) -> float | SignedLog:
    """sum_{k=1}^n <L|T^{k-1} D T^{n-k}|R> on the light cone, in O(d) memory.

    The phase picks the engine: the float of :func:`defect_series` for
    |Delta| <= 1, :func:`sum_defect_log` for |Delta| > 1.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return sum_defect_log(n, eta) if _split_eta(eta)[1] else float(defect_series(n, eta)[n])


# ---------------------------------------------------------------------------
# leading-order Fisher information
# ---------------------------------------------------------------------------

_PREFACTOR_DERIVS = {
    # d/dx of lambda*mu/J, as a function of (J, lam, mu)
    "lambda": lambda J, lam, mu: mu / J,
    "mu": lambda J, lam, mu: lam / J,
    "J": lambda J, lam, mu: -lam * mu / J ** 2,
}


def _leading_order(scale: float, const: float, row: float | SignedLog | None) -> FisherEstimate:
    """F = scale^2 row const: in floats where the row is a float and F a normal
    double, else from 2 log|scale| + log row + log const, so ``log_value`` is
    finite wherever F > 0.  A zero scale gives 0, log -inf, and reads no row."""
    value, log_f = 0.0, -math.inf
    if scale and not isinstance(row, SignedLog):
        with contextlib.suppress(OverflowError):  # scale^2 past the doubles: F from its log
            value = scale ** 2 * row * const
        row = SignedLog(float(np.sign(row)), math.log(abs(row)) if row else -math.inf)
    if _TINY <= value < math.inf:
        log_f = math.log(value)
    elif scale:  # a SignedLog row, or F outside the normal doubles
        log_f = 2 * math.log(abs(scale)) + row.log + math.log(const)
        value = SignedLog(row.sign, log_f).value
    return FisherEstimate(value=value, log_value=log_f, method="leading-order")


def f0_x(params, parameter: str, passes: LinePasses | None = None):
    """Leading-order F_x^(0) = (d(lambda mu / J)/dx)^2 <L|T^n|R> / 2 for x in
    {J, lambda, mu}, built by :func:`_leading_order` from the bracket of
    :func:`bracket_LTnR` at |Delta|, so even in Delta bit for bit (``passes``
    shares it along a scan line; it raises past the cosh^2 overflow), which
    a zero prefactor does not read."""
    if parameter not in _PREFACTOR_DERIVS:
        raise ValueError(
            f"parameter must be one of J, lambda, mu (got {parameter!r}); "
            "use f0_delta for the anisotropy")
    pref = _PREFACTOR_DERIVS[parameter](params.j_coupling, params.lam, params.mu)
    eta = eta_from_delta(abs(params.delta))
    bracket = bracket_LTnR(params.n, eta, passes=passes) if pref else None
    return _leading_order(pref, 0.5, bracket)


def second_eta_derivative_bracket(n: int, eta: complex) -> np.ndarray:
    """d^2/dt^2 of <L|T^m|R>, m = 0..n, along the real parametrization of eta.

    For |Delta| < 1 the derivative is in eta itself; for |Delta| > 1 it
    is taken along the imaginary axis, i.e. in t with eta = i t, which
    equals -(d/d eta)^2.

    The band entries are differentiated analytically and the jet
    (v, dv, d2v/2) is propagated in one pass.  Near the isotropic point
    this derivative nearly cancels against 4 sum_defect; the sum of the
    two is exact only through the 'F' band of :func:`f0_delta`.
    """
    return 2 * _jet_series(_bands(("T", "dT", "d2T/2"), n, None, eta), n)


def _xi_series(n: int, eta: complex) -> np.ndarray:
    """(:func:`defect_series`, :func:`second_eta_derivative_bracket`) as the
    rows of one (2, n + 1) array, bit for bit, from one pass of the
    two-variable jet _XI_JET, which steps |T| once for both."""
    rows = _jet_series(_bands(_XI_BANDS, n, None, eta), n, _XI_JET)
    rows[1] *= 2  # the r^2 row is half the second derivative
    return rows


def f0_delta(params):
    """Leading-order Fisher information for the anisotropy Delta.

    F_Delta^(0) = lam^2 mu^2 / (2 J^2 |1 - Delta^2|) *
                  [ sum_defect + (1/4) d^2/dt^2 <L|T^n|R> ],

    on the full (d = n//2) matrices at |Delta|, so even in Delta bit for
    bit, t as in :func:`_split_eta`: positive on both sides of |Delta| = 1,
    where it raises.  The bracket is half the s^2 coefficient of the one
    jet (|T|, d|T|/dt, F), whose closed-form F entries cancel its two
    terms to O(eta^2) exactly: accurate for every |Delta| != 1.  The jet
    runs in floats for |Delta| < 1, in logs for |Delta| > 1, checked through
    :func:`_checked_log_row` (past the cosh^2 overflow, or the earlier one of
    dT and F, it raises ArithmeticError); F is built by :func:`_leading_order`.
    """
    delta, n, eta = params.delta, params.n, eta_from_delta(abs(params.delta))
    if abs(delta) == 1.0:
        raise ValueError("f0_delta is singular at the isotropic point |Delta| = 1; "
                         "use isotropic_f_delta there")
    names = ("T", "dT", "F")
    if abs(delta) < 1.0:
        total = float(_jet_series(_bands(names, n, None, eta), n)[n])  # < 0 fails FisherEstimate
    else:
        rows = _jet_series(_live_bands(names, n, eta), n, ring=_LOGS)[:, n]
        log = float(_checked_log_row(rows, n, eta)[-1])
        total = SignedLog(float(log > -math.inf), log)
    # a quarter, not a half: the jet gives twice the bracket
    return _leading_order(params.lam * params.mu / params.j_coupling,
                          1 / (4 * abs((1 - delta) * (1 + delta))), total)


# ---------------------------------------------------------------------------
# isotropic expansions
# ---------------------------------------------------------------------------

def _isotropic_eta_sq(n: int, eta: complex) -> float:
    """eta^2 for the isotropic series: t^2 for |Delta| < 1, -t^2 for |Delta| > 1.

    Both series are polynomials in eta^2 about Delta = +1; with t as in
    :func:`_split_eta`, Delta = -1 alike.  Warns outside |eta| n < 0.2.
    """
    t, easy_axis = _split_eta(eta)
    if abs(t) * n >= 0.2:
        warnings.warn(f"|eta|*n = {abs(t) * n:.3g} >= 0.2: outside the "
                      "validity window of the isotropic series")
    return -t ** 2 if easy_axis else t ** 2


def isotropic_bracket_series(n: int, eta: complex) -> float:
    """Small-eta expansion of <L|T^n|R> through eta^6."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    e2 = _isotropic_eta_sq(n, eta)
    lead = n * (n - 1) / 8
    corr = (e2
            - e2 ** 2 / 6 * (3 * n - 7)
            + e2 ** 3 / 180 * (449 + 21 * n * (3 * n - 16)))
    return lead - n * (n - 1) * (n - 2) / 24 * corr


def isotropic_f_delta(params) -> float:
    """Isotropic-limit F_Delta^(0) = lam^2 mu^2/(96 J^2) n(n-1)(n-2)(3n-7 - ...).

    Through eta^2: 3n - 7 - eta^2 (n - 3)(27n - 68)/5.
    """
    n = params.n
    e2 = _isotropic_eta_sq(n, params.eta)
    pref = params.lam ** 2 * params.mu ** 2 / (96 * params.j_coupling ** 2)
    poly = 3 * n - 7 - e2 * (n - 3) * (27 * n - 68) / 5
    return pref * n * (n - 1) * (n - 2) * poly


# ---------------------------------------------------------------------------
# Jordan structure of the truncated transfer matrix
# ---------------------------------------------------------------------------

def jordan_decompose(d: int, eta: complex) -> float:
    """chi_1 of <L|T^n|R> = chi n + chi_1 + (decaying terms), T truncated at d,
    in closed form, held to its own rounding bound.

    chi_1 comes from the resolvent of the bulk block T' (rows/columns
    1..d): x = (1 - T')^-1 e_1, y = (1 - T')^-T e_1 give chi = x_1/4 and
    chi_1 = -chi - y^T T' x/4 = -y^T x/4 (T' x = x - e_1, y_1 = x_1).  With
    s_k = s(tk), s = sin (sinh for |Delta| > 1, t of :func:`_split_eta`),
    D = diag|s_k| makes S = D T' D^-1 symmetric; with (1 - S) z = e_1,
    x = |s_1| D^-1 z and y = D z/|s_1|, so chi_1 = -|z|^2/4.  As 1 - c^2 =
    +-s^2, 1 - S = +-D M D with M = 1 - (shift + shift^T)/2, and elimination
    down M's band (pivots (k+1)/(2k)) and back substitution give z_k =
    +-2(d+1-k)/((d+1)|s_1 s_k|):

        chi_1 = -sum_k ((d+1-k)/(d+1))^2 / (s_1 s_k)^2,

    a sum of positive terms in O(d) floats, with no BLAS call.

    The bound.  The float t carries a relative error of at most u = 2^-53
    from its rounding, and the product t k one more; s(x(1 + e)) =
    s(x)(1 + e x c(x)/s(x) + O(e^2)), (c, s) = (cos, sin) or (cosh, sinh).
    So term k moves by a relative 2u t|c(t)/s(t)| through s_1^2 (t 1 = t
    adds no rounding) and 4u tk|c(tk)/s(tk)| through s_k^2, less than
    B = 4u max_k (t|c(t)/s(t)| + tk|c(tk)/s(tk)|); a sum of terms of one
    sign moves by at most its largest term's relative error, so B bounds
    the relative error of chi_1, to first order and up to the d u of the
    sum itself.  B is large next to a zero of some s_k (eta/pi at or next
    to some q/p with p <= d, where a bulk eigenvalue nears 1): where
    B > 1e-8, or B is NaN (t = 0), chi_1 raises ArithmeticError.
    """
    if d < 1:
        raise ValueError(f"truncation index must be >= 1, got d={d}")
    t, easy_axis = _split_eta(eta)
    tk = t * np.arange(1, d + 1, dtype=float)
    with np.errstate(invalid="ignore"):  # 0/0 at t = 0: a NaN bound, which raises
        amplification = np.abs(tk / (np.tanh if easy_axis else np.tan)(tk))  # tk c/s
    worst = int(np.argmax(amplification))
    bound = 2 * np.finfo(float).eps * (amplification[0] + amplification[worst])  # 4u
    if not bound <= 1e-8:
        raise ArithmeticError(
            f"chi_1 rounding bound B = {bound:.2g} is not <= 1e-8 (worst term k = "
            f"{worst + 1}): for rational eta/pi the truncation must satisfy d <= |p| - 1")
    _, off = _entries("T", d, eta)  # s(tk)^2/2
    weights = ((d - np.arange(d)) / (d + 1)) ** 2
    return float(-np.sum(weights / off) / (4 * off[0]))


# ---------------------------------------------------------------------------
# growth coefficients: chi at a float Delta; xi by route, (p, q) or a float Delta
# ---------------------------------------------------------------------------

class Chi(NamedTuple):
    """<L|T^n|R> = chi n + chi1 + decaying terms on T truncated at d; chi1 is
    nan where its rounding bound exceeds 1e-8 (see :func:`jordan_decompose`)."""

    chi: float
    chi1: float


class RationalXi(NamedTuple):
    """xi at eta/pi = q/p, d = p - 1, the window's defect-sum slope xi1 and
    its fit R^2, and chi'' at d."""

    eta_over_pi: float
    d: int
    xi: float
    xi1: float
    chi_dd: float
    fit_r2: float


class IrrationalXi(NamedTuple):
    """xi(n) on the d = n//2 matrices, xi n, and the two brackets it sums."""

    d: int
    xi: float
    xi_n: float
    sum_defect: float
    d2_bracket: float


def _rational_point(p: int, q: int) -> tuple[float, float, int]:
    """(eta, Delta, d) = (q pi/p, cos(q pi/p), p - 1) for coprime 0 < q < p."""
    if p < 2 or not 0 < q < p:
        raise ValueError(f"need 0 < q < p with p >= 2, got (p, q) = {(p, q)}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) = {(p, q)} are not coprime")
    return q * math.pi / p, math.cos(q * math.pi / p), p - 1


def chi_coefficient(delta: float, d: int) -> Chi:
    """chi = d/(2(d+1)) * 1/(1 - Delta^2) and chi_1 (closed form:
    :func:`jordan_decompose`) at t = acos|Delta|, on T truncated at d.  At
    Delta = cos(q pi/p) and d = p - 1 the truncation is exact: no path
    descends from |p>.  Where chi_1's rounding bound exceeds 1e-8 (eta/pi at
    or next to some q/p with p <= d), chi_1 is nan, with a warning.
    """
    if not abs(delta) < 1:
        raise ValueError("chi is defined for |Delta| < 1")
    try:
        chi1 = jordan_decompose(d, math.acos(abs(delta)))
    except ArithmeticError as exc:  # chi1 is only a diagnostic: report it as unavailable
        warnings.warn(f"chi1 is not accurate at Delta = {delta!r} with d = {d} "
                      f"({exc}); reported as nan")
        chi1 = math.nan
    return Chi(d / (2 * (d + 1)) / (1 - delta ** 2), chi1)


def chi_second_derivative(delta: float, d: int) -> float:
    """d^2 chi/d eta^2 of chi(eta) = d/(2(d+1))/sin^2(eta), in closed form:
    d/(d+1) * (2 Delta^2 + 1)/(1 - Delta^2)^2."""
    return d / (d + 1) * (2 * delta ** 2 + 1) / (1 - delta ** 2) ** 2


def rational_defects(points) -> dict[tuple[int, int], np.ndarray]:
    """{(p, q): defect series} of (p, q, window_start) points, from one
    batched (|T|, D) pass at eta = q pi/p, d = p - 1, to twice the largest
    window start.  Each series's rows are those of its point's own pass
    bit for bit."""
    n = 2 * max(window_start for _, _, window_start in points)
    sets = {}
    for p, q, _ in points:
        eta, _, d = _rational_point(p, q)
        sets[p, q] = _bands(("T", "D"), n, d, eta)
    return dict(zip(sets, _jet_series(_stack_bands(list(sets.values())), n)))


def xi_coefficient_rational(p: int, q: int, window_start: int,
                            series: np.ndarray | None = None) -> RationalXi:
    """Growth coefficient xi of F_Delta^(0) = (lam mu / J)^2 xi n at eta/pi = q/p.

    T and D are restricted to d = p - 1, the defect-sum slope xi_1 is
    fitted over n in [window_start, 2 window_start] (R^2 < 1 - 1e-9
    warns that transients remain), and xi = (xi_1 - chi''/4) /
    (2 (1 - Delta^2)).  This is the large-n limit of the full-matrix
    [sum_defect - (1/4) d^2 bracket / d eta^2]/n: at rational eta/pi the
    full Fisher information keeps a secular n^2 piece fed by paths
    dwelling on the absorbing state |p>, which the restriction removes.
    The defect series comes from a pass of its own, or is ``series``, the
    point's row of a :func:`rational_defects` batch; one that ends before
    2 window_start raises ValueError.
    """
    if window_start < 8:
        raise ValueError(f"need window_start >= 8 for a meaningful window, "
                         f"got {window_start}")
    _, delta, d = _rational_point(p, q)
    n = window_start
    if series is None:
        series = rational_defects([(p, q, n)])[p, q]
    if series.size <= 2 * n:
        raise ValueError(f"the defect series of (p, q) = {(p, q)} ends at n = "
                         f"{series.size - 1}, before the window's end {2 * n}")
    ys = series[n:2 * n + 1]
    A = np.vstack([np.arange(n, 2 * n + 1, dtype=float), np.ones(n + 1)]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    xi1 = float(coef[0])
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum((ys - A @ coef) ** 2)) / ss_tot
    if r2 < 1 - 1e-9:
        warnings.warn(f"defect-sum window fit not linear (R^2 = {r2}); "
                      "transients may not have decayed")
    cdd = chi_second_derivative(delta, d)
    xi = (xi1 - 0.25 * cdd) / (2 * (1 - delta ** 2))
    return RationalXi(eta_over_pi=q / p, d=d, xi=xi, xi1=xi1, chi_dd=cdd, fit_r2=r2)


def xi_coefficient(delta: float, n: int, passes: LinePasses | None = None) -> IrrationalXi:
    """xi(n) = [sum_defect(n) + (1/4) d^2/dt^2 <L|T^n|R>] / (2 |1-Delta^2| n)
    at a float Delta, on the full d = n//2 matrices: f0_delta / (n (lam mu/J)^2).

    Its growth (piecewise powers between n^2 and n^5, and an initial n^2
    window close to rational points) is the quantity of interest.  The
    two brackets are the rows of :func:`defect_series` and
    :func:`second_eta_derivative_bracket` bit for bit, read from one pass
    of :func:`_xi_series`: row n's own, or the one ``passes`` shares along
    a scan line.
    """
    if not abs(delta) < 1:
        raise ValueError("xi is defined for |Delta| < 1")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    eta, passes = math.acos(abs(delta)), passes or LinePasses()
    sd, d2 = map(float, passes(_xi_series, n, eta)[:, n])
    xi = xi_from_brackets(sd, d2, delta, n)
    return IrrationalXi(d=n // 2, xi=xi, xi_n=xi * n, sum_defect=sd, d2_bracket=d2)


def xi_from_brackets(sd: float, d2: float, delta: float, n: int) -> float:
    """xi(n) of :func:`xi_coefficient`, a float; at n = 1 (exact) F_Delta^(0) / (lam mu / J)^2."""
    return float((sd + 0.25 * d2) / (2 * abs(1 - delta ** 2) * n))


# ---------------------------------------------------------------------------
# easy-axis single path
# ---------------------------------------------------------------------------

def check_single_path(n: int, eta: complex, log_bracket: float) -> float | None:
    """log of the single path under log <L|T^n|R>, checked against log_bracket.

    For |Delta| > 1 and even n >= 4 the path climbs |R> -> |1> -> ... ->
    |n/2> and descends back, weighing 2^-n prod_{k=1}^{n/2-1} sinh^2(k t)
    sinh^2((k+1) t) (t as in :func:`_split_eta`), summed from
    log sinh(y) = y + log(1 - e^{-2y}) - log 2, which does not overflow.
    Odd n >= 5 take the path of n - 1 with one diagonal step cosh^2(y),
    y = t (n-1)/2, at its top, from log cosh(y) = y + log(1 + e^{-2y}) -
    log 2.  A log_bracket below it is the cosh^2 overflow of the log
    bands and raises ArithmeticError.  None where there is no such path.
    """
    t, easy_axis = _split_eta(eta)
    if not easy_axis or t <= 0 or n < 4:
        return None
    m = n // 2
    y = t * np.arange(1, m + 1)
    log_sinh = y + np.log(-np.expm1(-2 * y)) - math.log(2.0)
    log_path = float(2 * (log_sinh[:-1].sum() + log_sinh[1:].sum()) - 2 * m * math.log(2.0))
    if n % 2:
        top = y[-1]
        log_path += 2 * (top + math.log1p(math.exp(-2 * top)) - math.log(2.0))
    if not log_bracket >= log_path - 1e-12 * abs(log_path):
        raise ArithmeticError(
            f"log bracket {log_bracket:.10g} below the single-path bound {log_path:.10g}: "
            "the log bands lost paths past the cosh^2 overflow")
    return log_path
