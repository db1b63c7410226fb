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

All propagation goes through one jet propagator: the Taylor
coefficients (v_0, ..., v_k) in s of (A_0 + s A_1 + ... + s^k A_k)^m |R>
obey v_j -> sum_i A_{j-i} v_i per step, and R (which never receives
amplitude) feeds |1> of v_0 with weight 1/2.  With A_0 = |T| the jets
(|T|), (|T|, D), (|T|, d|T|/dt, d^2|T|/dt^2 / 2) and (|T|, d|T|/dt, F)
give the bracket, the defect sum, half the bracket's second t-derivative
and twice the F_Delta bracket of :func:`f0_delta`.  The bands are
tridiagonal over [L, 1, ..., d] and take O(d) memory, in floats or in
logs of the same entries, as (sign, log) pairs for signed jets only (the
bracket's has none).  Both engines update at step m only the light cone
of columns 0..min(m, n - m, d) that can still reach L by step n: sum_m
(min(m, n - m, d) + 1) ~ n^2/4 cells at d = n//2, half of n (d + 1).
The float engine also stops at its support front: |T|'s bulk columns sum
to 1, so for |Delta| < 1 the amplitudes spread like sqrt(m) and underflow
to exact zeros above that, which it does not step (at n = 10^4, Delta =
0.37: 9.4 M of the cone's 25.2 M cells; 0.65 M at Delta = 1/2, where eta =
pi/3 leaks past |3> only through rounding), and the rows keep their bits.
It also takes a batch axis: band sets zero-padded to one d propagate in
one pass (the rational xi grid of a scan line), each with its own rows.

A pass to n passes through every m <= n, so the propagators return
series over m = 0..n: ``bracket_series``, ``defect_series`` and
``second_eta_derivative_bracket`` as float arrays, ``bracket_LTnR_log``
as a list of SignedLogs.  Row m of a pass truncated at d >= m//2 is the
row of m's own pass (d = m//2) bit for bit, except next to a band entry
that overflows (see :class:`LinePasses`, which shares passes between the
rows of a scan line).  Truncated passes run only where their rows are
exact or visibly non-finite: the float series (inf or NaN past an
overflow) and :func:`rational_defects` at d = p - 1.  The log routes
take (n, eta) alone.  A single bracket or defect sum runs the engine its
phase picks: floats for |Delta| <= 1 (the bracket is at most n(n - 1)/8),
logs for |Delta| > 1.  Every log jet's order 0 is the bracket bit for bit,
so each single log row is held to :func:`check_single_path` through order 0
of its own pass: past the cosh^2 overflow it raises.

:func:`jordan_decompose` gives chi_1 in closed form, held to its own O(d)
rounding bound; the dense T and D of :func:`build_transfer` only check
the routes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .fisher import FisherEstimate

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
    the vertex matrix, with sign(1 - Delta^2) on its diagonal, and
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
    if d < 1:
        raise ValueError(f"truncation index must be >= 1, got d={d}")
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


def _stack_bands(sets: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Band sets of one jet as (batch, 3, d + 1) stacks, zero-padded to the largest d."""
    dim = max(bands[0].shape[1] for bands in sets)
    out = np.zeros((len(sets[0]), len(sets), 3, dim))
    for s, bands in enumerate(sets):
        for j, band in enumerate(bands):
            out[j, s, :, :band.shape[1]] = band
    return list(out)


def _jet_series(bands: list[np.ndarray], n: int) -> np.ndarray:
    """<L|v_k> of the jet (v_0..v_k) after m = 0..n steps, in floats.

    ``bands[j]`` is A_j as one (3, d + 1) band, giving an (n + 1,) series,
    or as a batch of band sets (see :func:`_stack_bands`), giving one row
    per set.  A set padded with zero bands gets the finite rows of its own
    pass.  Step m updates columns 0..min(m, n - m, d, front) only: higher
    columns are still empty, can no longer reach L by step n, or hold
    exact zeros.  The cone is rounded up to _CONE_CHUNK columns, so the
    views change only when it crosses a chunk; a stale value just past it
    reaches L after step n.

    The support front starts one chunk up.  Every column above it is +0 in
    both buffers, all orders and sets, since none was ever written.  Every
    _CONE_CHUNK/2 steps, a nonzero (NaN and +-inf included) in its top 17
    columns moves it up a chunk; a value moves one column per step, so no
    nonzero comes within reach of the columns above it before the next
    check.  The plain cone computes those columns as finite coefficients
    times +-0: +-0.  Every other cell is formed by the same ufunc calls,
    in the same order, from the same operands, but for a -0 operand read
    as +0; x + (+-0) = x for x != 0, so every nonzero cell keeps its bits.
    A non-finite coefficient makes NaN of the zeros it meets, so such
    bands get no front (theirs starts at d).

    Each element is computed in one fixed order: per band,
    (diag v + lower v_-) + upper v_+ (a + b and b + a are the same bits),
    and the bands of v_j' summed b = 0..j (A_b on v_{j-b}).  The two
    buffers of each order carry one zero column on each side, met by a
    -0.0 coefficient, which adds exactly nothing.  So row m is the same
    bits for every n >= m, every cone and every front.
    """
    single = bands[0].ndim == 2
    k, nb, dim = len(bands), 1 if single else bands[0].shape[0], bands[0].shape[-1]
    # (lower, diag, upper) of output column c against (v_-, v, v_+)
    mats = np.zeros((k, 3, nb, dim))
    for band, mat in zip(bands, mats):
        band = band.reshape(nb, 3, dim)
        mat[0, :, 1:] = band[:, 1, 1:]
        mat[1] = band[:, 0]
        mat[2, :, :-1] = band[:, 2, :-1]
    mats[:, 0, :, 0] = mats[:, 2, :, -1] = -0.0
    buf = np.zeros((2, k, nb, dim + 2))  # the jet after an even and an odd step
    col, row = buf.strides[-1], buf.strides[-2]
    # (v_-, v, v_+) of every column as one view per buffer and order
    shifted = [[np.lib.stride_tricks.as_strided(buf[p, j], (3, nb, dim), (col, row, col))
                for j in range(k)] for p in (0, 1)]
    prod = np.empty((3, nb, dim))
    part = np.empty((nb, dim))
    series = np.zeros((nb, n + 1))
    tops = [buf[p, k - 1, :, 1] for p in (0, 1)]  # <L|v_k> after an even and an odd step

    def calls(dst: int, w: int) -> list[tuple]:
        """The ufunc calls of one step into buf[dst], over columns 0..w."""
        terms, out = prod[:, :, :w + 1], []
        for j in range(k):
            acc = buf[dst, j, :, 1:w + 2]
            for b in range(j + 1):
                into = acc if b == 0 else part[:, :w + 1]
                source = shifted[1 - dst][j - b][:, :, :w + 1]
                out += [(np.multiply, mats[b, :, :, :w + 1], source, terms),
                        (np.add, terms[0], terms[1], into), (np.add, into, terms[2], into)]
                if b:
                    out.append((np.add, acc, into, acc))
        if w:  # R feeds |1> of v_0
            out.append((np.add, buf[dst, 0, :, 2], 0.5, buf[dst, 0, :, 2]))
        return out

    width, steps, front = -1, [], _CONE_CHUNK if np.isfinite(mats).all() else dim - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            w = min(-(-min(m, n - m) // _CONE_CHUNK) * _CONE_CHUNK, front, dim - 1)
            if w != width:
                width, steps = w, [calls(dst, w) for dst in (0, 1)]
            dst = m % 2
            for ufunc, a, b, into in steps[dst]:
                ufunc(a, b, out=into)
            series[:, m] = tops[dst]
            # columns front - 16..front (buffer index = column + 1): a nonzero there could
            # pass front by the next check
            if m % (_CONE_CHUNK // 2) == 0 and buf[..., front - 15:front + 2].any():
                front += _CONE_CHUNK
    return series[0] if single else series


@np.errstate(divide="ignore", invalid="ignore")
def _jet_log(bands: list[np.ndarray], n: int) -> list[list[SignedLog]]:
    """<L|v_j> after m = 0..n steps, one list of SignedLogs per order j (order
    0, |T| alone, is the bracket), on the light cone of :func:`_jet_series`,
    two columns wide at least (NumPy would sum a single column's rows
    pairwise, not in row order).  It keeps the plain cone, with no support
    front: a log does not underflow, so the support fills the cone, each
    column live from the first step a path reaches it.

    A jet with no negative band entry carries no signs: its rows read sign
    1 where the log is above -inf.  Column c of v_j' sums its term rows
    (diag, climb, descent of A_b v_{j-b}, b = 0..j; then <1|T|R> for v_0):
    with M their maximum, sign * exp(log - M) summed in row order gives
    (sign, M + log|sum|).  M = -inf or NaN, or a sum of 0, gives (0, -inf);
    M = +inf (a +inf band entry times a live amplitude) gives (NaN, NaN).
    """
    k, dim = len(bands), bands[0].shape[1]
    signed = not all((band >= 0).all() for band in bands)
    mats = [[np.log(np.abs(band)) for band in bands]] + (  # and the signs of a signed jet
        [[np.sign(band) for band in bands]] if signed else [])
    pads = np.array([-np.inf, 0.0][:len(mats)])[:, None, None, None]
    gens = np.full((len(mats), 2, k, dim + 2), pads)  # v after an even and an odd step, padded
    terms = np.full((len(mats), k, 3 * k + 1, dim), pads)  # the term rows of each v_j'
    terms[:, 0, 3, 1] = [math.log(0.5), 1.0][:len(mats)]  # <1|T|R>
    top, tot, live = np.empty(dim), np.empty(dim), np.empty(dim, bool)
    scratch, col = np.empty((3 * k + 1) * dim), gens.strides[-1]

    @lru_cache(2)  # the calls of one step into generation dst, columns 0..w - 1: one w kept
    def calls(dst: int, w: int) -> list[partial]:
        out = []
        for j in range(k):
            for ufunc, bmats, gen, into in zip((np.add, np.multiply), mats, gens, terms[:, j]):
                for b in range(j + 1):  # A_b v_{j-b}: diag on v, (climb, descent) on (v_-, v_+)
                    v = gen[1 - dst, j - b]
                    out += [partial(ufunc, bmats[b][0, :w], v[1:w + 1], out=into[3 * b, :w]),
                            partial(ufunc, bmats[b][1:, :w], np.lib.stride_tricks.as_strided(
                                v, (2, w), (2 * col, col)), out=into[3 * b + 1:3 * b + 3, :w])]
            rows = 3 * j + 3 + (j == 0)
            logs, exps = terms[0, j, :rows, :w], scratch[:rows * w].reshape(rows, w)
            m, t, lv, new = top[:w], tot[:w], live[:w], gens[:, dst, j, 1:w + 1]
            out += [partial(np.maximum.reduce, logs, axis=0, out=m),
                    partial(np.greater, m, -np.inf, out=lv),
                    partial(np.subtract, logs, m, out=exps), partial(np.exp, exps, out=exps)]
            if signed:
                out.append(partial(np.multiply, exps, terms[1, j, :rows, :w], out=exps))
            out.append(partial(np.add.reduce, exps, axis=0, out=t))
            if signed:  # live &= sum != 0, NaN included
                out += [partial(np.logical_and, lv, t, out=lv), partial(new[1].fill, 0.0),
                        partial(np.sign, t, out=new[1], where=lv), partial(np.absolute, t, out=t)]
            out += [partial(np.log, t, out=t), partial(new[0].fill, -np.inf),
                    partial(np.add, m, t, out=new[0], where=lv)]
        return out

    at_L = np.full((len(mats), k, n + 1), pads[:, :, :, 0])  # logs, signs of every order
    for m in range(1, n + 1):
        w = max(min(-(-min(m, n - m) // _CONE_CHUNK) * _CONE_CHUNK, dim - 1), 1)
        for call in calls(m % 2, w + 1):
            call()
        at_L[:, :, m] = gens[:, m % 2, :, 1]
    signs = at_L[-1] if signed else np.where(np.isnan(at_L[0]), np.nan, at_L[0] > -np.inf)
    return [[SignedLog(*row) for row in zip(order_signs.tolist(), order_logs.tolist())]
            for order_signs, order_logs in zip(signs, at_L[0])]


def bracket_series(n: int, eta: complex, d: int | None = None) -> np.ndarray:
    """<L|T^m|R> for m = 0..n in one linear-domain pass."""
    return _jet_series(_bands(("T",), n, d, eta), n)


def defect_series(n: int, eta: complex, d: int | None = None) -> np.ndarray:
    """sum_k <L|T^{k-1} D T^{m-k}|R> for m = 0..n.

    The first-order coefficient of (|T| + s D)^m in s.
    """
    return _jet_series(_bands(("T", "D"), n, d, eta), n)


def bracket_LTnR_log(n: int, eta: complex) -> list[SignedLog]:
    """<L|T^m|R> for m = 0..n as SignedLogs, in one log-domain pass (order 0 of
    every log jet); overflow-safe for |Delta| > 1.  :func:`bracket_LTnR` reads one row."""
    return _jet_log(_bands(("T",), n, None, eta), n)[0]


def _checked_log_row(orders: list[list[SignedLog]], n: int, eta: complex) -> SignedLog:
    """Row n of a log jet's top order, once its order 0, <L|T^n|R>, passes the
    checks: the path R -> 1 -> L -> ... -> L alone weighs 1/4, so a bracket
    that is not positive and finite (band overflow, |Delta| >~ 1e77) raises,
    and so does one below its :func:`check_single_path`."""
    bracket = orders[0][n]
    if not (bracket.sign > 0 and math.isfinite(bracket.log)):
        raise ArithmeticError(f"<L|T^{n}|R> = {bracket} lost every path to band overflow")
    check_single_path(n, eta, bracket.log)
    return orders[-1][n]


class LinePasses:
    """The jet passes shared by the rows of one scan line (points that
    differ only in n).

    ``passes(jet, n, eta)`` returns the series of ``jet``, a propagator
    of (n, eta) such as :func:`bracket_LTnR_log`, from a pass that
    holds row n exactly as row n's own pass (d = n//2) would: the last
    pass of that jet at that eta if it does (see :func:`_overflow_column`),
    else a new pass at (n, n//2).  Rows asked from the largest n down so
    run one pass per jet, and one more below a band overflow; each pass
    is what its first row ran alone.
    """

    def __init__(self):
        self._last: dict = {}

    def __call__(self, jet, n: int, eta: complex):
        last = self._last.get((jet, eta))
        if last is None or not (n <= last[0] and n // 2 >= last[1]):
            last = self._last[jet, eta] = (n, _overflow_column(eta, max(n // 2, 1)),
                                           jet(n, eta))
        return last[2]


def _overflow_column(eta: complex, d: int) -> int:
    """The first column J <= d whose |T| entry is not a finite float, 0 if none.

    Row m <= n of a pass to n (truncated at d) is row m of its own pass
    (d = m//2) bit for bit when m//2 >= J: columns above m//2 reach L only
    after step m, and the exact zeros they add before change no sum.  The
    log bands add the +inf entries of column J to its -inf (empty) value,
    and when the entry that descends from J is +inf as well, column J - 1
    is lost from the first step on.  Rows with m//2 >= J lose it in their
    own pass too; rows with m//2 < J take a pass truncated below J.
    """
    with np.errstate(over="ignore"):
        diag, off = _entries("T", d, eta)
    overflowed = np.flatnonzero(~(np.isfinite(diag) & np.isfinite(off)))
    return int(overflowed[0]) + 1 if overflowed.size else 0


def bracket_LTnR(n: int, eta: complex, *, passes: LinePasses | None = None) -> float | SignedLog:
    """<L|T^n|R>: row n of its own pass, or of one ``passes`` shares along a line.

    The phase picks the engine: the float of :func:`bracket_series` for
    |Delta| <= 1, else the checked SignedLog of :func:`bracket_LTnR_log`.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    passes = passes or LinePasses()
    if not _split_eta(eta)[1]:
        return float(passes(bracket_series, n, eta)[n])
    return _checked_log_row([passes(bracket_LTnR_log, n, eta)], n, eta)


def sum_defect_log(n: int, eta: complex) -> SignedLog:
    """:func:`sum_defect` in logs, signs exact; raises where :func:`bracket_LTnR` does."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _checked_log_row(_jet_log(_bands(("T", "D"), n, None, eta), n), n, eta)


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


def _leading_order(params, parameter: str, scale: float, const: float,
                   row: float | SignedLog | None) -> FisherEstimate:
    """F = scale^2 row const: in floats where the row is a float and F a normal
    double, else from 2 log|scale| + log row + log const, so ``log_value`` is
    finite wherever F > 0.  A zero scale gives 0, log -inf, and reads no row."""
    value, log_f = 0.0, -math.inf
    if scale and not isinstance(row, SignedLog):
        value = scale ** 2 * row * const
        row = SignedLog(float(np.sign(row)), math.log(abs(row)) if row else -math.inf)
    if _TINY <= value < math.inf:
        log_f = math.log(value)
    elif scale:  # a SignedLog row, or F outside the normal doubles
        log_f = 2 * math.log(abs(scale)) + row.log + math.log(const)
        value = SignedLog(row.sign, log_f).value
    return FisherEstimate(value=value, log_value=log_f,
                          method="leading-order", parameter=parameter, params=params)


def f0_x(params, parameter: str, passes: LinePasses | None = None):
    """Leading-order F_x^(0) = (d(lambda mu / J)/dx)^2 <L|T^n|R> / 2 for x in
    {J, lambda, mu}, built by :func:`_leading_order` from the bracket of
    :func:`bracket_LTnR` (``passes`` shares it along a scan line; it raises
    past the cosh^2 overflow), which a zero prefactor does not read."""
    if parameter not in _PREFACTOR_DERIVS:
        raise ValueError(
            f"parameter must be one of J, lambda, mu (got {parameter!r}); "
            "use f0_delta for the anisotropy")
    pref = _PREFACTOR_DERIVS[parameter](params.j_coupling, params.lam, params.mu)
    bracket = bracket_LTnR(params.n, params.eta, passes=passes) if pref else None
    return _leading_order(params, parameter, pref, 0.5, bracket)


def second_eta_derivative_bracket(n: int, eta: complex, d: int | None = None) -> np.ndarray:
    """d^2/dt^2 of <L|T^m|R>, m = 0..n, along the real parametrization of eta.

    For |Delta| < 1 the derivative is in eta itself; for |Delta| > 1 it
    is taken along the imaginary axis, i.e. in t with eta = i t, which
    equals -(d/d eta)^2.

    The band entries are differentiated analytically and the jet
    (v, dv, d2v/2) is propagated in one pass.  Near the isotropic point
    this derivative nearly cancels against 4 sum_defect; the sum of the
    two is exact only through the 'F' band of :func:`f0_delta`.
    """
    return 2 * _jet_series(_bands(("T", "dT", "d2T/2"), n, d, eta), n)


def f0_delta(params):
    """Leading-order Fisher information for the anisotropy Delta.

    F_Delta^(0) = lam^2 mu^2 / (2 J^2 |1 - Delta^2|) *
                  [ sum_defect + (1/4) d^2/dt^2 <L|T^n|R> ],

    on the full (d = n//2) matrices, t as in :func:`_split_eta`: positive
    on both sides of |Delta| = 1, where it raises.  The bracket is half the
    s^2 coefficient of the one jet (|T|, d|T|/dt, F), whose closed-form F
    entries cancel its two terms to O(eta^2) exactly: accurate for every
    |Delta| != 1.  The jet runs in floats for |Delta| < 1, in logs with its
    order 0, the bracket, checked for |Delta| > 1 (past the cosh^2 overflow
    it raises ArithmeticError); F is built by :func:`_leading_order`.
    """
    delta, n, eta = params.delta, params.n, params.eta
    if abs(delta) == 1.0:
        raise ValueError("f0_delta is singular at the isotropic point |Delta| = 1; "
                         "use isotropic_f_delta there")
    bands = _bands(("T", "dT", "F"), n, None, eta)
    total = (float(_jet_series(bands, n)[n]) if abs(delta) < 1.0
             else _checked_log_row(_jet_log(bands, n), n, eta))  # < 0 fails FisherEstimate
    # a quarter, not a half: the jet gives twice the bracket
    return _leading_order(params, "Delta", params.lam * params.mu / params.j_coupling,
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
    two series come from row n's own passes, or from the ones ``passes``
    shares along a scan line.
    """
    if not abs(delta) < 1:
        raise ValueError("xi is defined for |Delta| < 1")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    eta, passes = math.acos(abs(delta)), passes or LinePasses()
    sd = float(passes(defect_series, n, eta)[n])
    d2 = float(passes(second_eta_derivative_bracket, n, eta)[n])
    xi = (sd + 0.25 * d2) / (2 * abs(1 - delta ** 2) * n)
    return IrrationalXi(d=n // 2, xi=xi, xi_n=xi * n, sum_defect=sd, d2_bracket=d2)


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
