"""Output checks: every operation's output against ``reference``.

There is one check per scan kind, plus one for the oracle solves.  Each
returns one ``Outcome`` per operation.  ``problem`` is None when the
output passed; ``known`` marks the operations hit by one of the two
faults of the program that the benchmark keeps on purpose (README.md):
they fail every run, and any other failure makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

import reference as ref
from workloads import EasyAxis

mp.mp.dps = 30
LN10 = math.log(10.0)
LN2 = math.log(2.0)
MP_N_MAX = 80            # easy-plane rows recomputed in mpmath up to this n
MP_LOG_N_MAX = 200       # log-bracket rows recomputed in mpmath up to this n
NOT_CONVERGED = "ArithmeticError: state derivative did not converge"
PERTURBATIVE_C = 100.0   # trace distance of the MPO state allowed as C (lam/J)^3
ORDER_RANGE = (2.5, 3.5)  # and its error must shrink as (lam/J)^3


@dataclass
class Outcome:
    op: str
    problem: str | None = None
    known: bool = False


def past_overflow(delta: float, n: int) -> bool:
    """cosh^2(t k) at the top index k = n//2 leaves the double range (Delta = 2 only)."""
    return (delta == EasyAxis.OVERFLOW_DELTA
            and 2 * math.acosh(delta) * (n // 2) - math.log(4.0) > math.log(1.7976931348623157e308))


class _Row:
    """Collects the first failed comparison of one output row."""

    def __init__(self, op: str, row: dict, known: bool = False):
        self.outcome = Outcome(op, known=known)
        self.row = row
        if row.get("error"):
            self.outcome.problem = row["error"]

    def ok(self) -> bool:
        return self.outcome.problem is None

    def num(self, col: str) -> float:
        try:
            return float(self.row[col])
        except ValueError:
            return math.nan

    def require(self, cond: bool, what: str):
        if self.ok() and not cond:
            self.outcome.problem = what

    def close(self, col: str, expect: float, rel: float, scale: float | None = None):
        if not self.ok():
            return
        got = self.num(col)
        tol = rel * (abs(expect) if scale is None else scale)
        if not abs(got - expect) <= tol:  # also rejects nan
            self.outcome.problem = (f"{col}={got!r} vs reference {expect!r} "
                                    f"(tolerance {tol:.3g})")


def _pairs(scan, rows):
    if len(rows) != len(scan.points):
        raise ArithmeticError(f"{scan.kind}: {len(rows)} rows for "
                              f"{len(scan.points)} grid points")
    return zip(scan.points, rows)


def _mp_log_bracket(delta: float, n: int) -> float:
    t, easy_axis = ref.split_eta(delta)
    return float(mp.log(ref.mp_bracket(n, t, easy_axis, max(n // 2, 1))))


def _log_bracket(r: _Row, log_b: float, delta: float, n: int):
    """Single-path lower bound, the log-domain recurrence, mpmath at chosen n."""
    if n % 2 == 0 and n >= 4:
        bound = ref.log_single_path(n, delta)
        r.require(log_b >= bound - 1e-12 * abs(bound),
                  f"log bracket {log_b!r} below the single-path bound {bound!r}")
    if r.ok():
        own = ref.log_bracket(n, delta)
        r.require(abs(log_b - own) <= 1e-11 * max(1.0, abs(own)),
                  f"log bracket {log_b!r} vs log-domain recurrence {own!r}")
    if r.ok() and n <= MP_LOG_N_MAX:
        exact = _mp_log_bracket(delta, n)
        r.require(abs(log_b - exact) <= 1e-11 * max(1.0, abs(exact)),
                  f"log bracket {log_b!r} vs mpmath {exact!r}")


# ---------------------------------------------------------------------------
# easy plane
# ---------------------------------------------------------------------------

def check_xi_n(scan, rows) -> list[Outcome]:
    """Irrational xi: sum_defect and d2_bracket in mpmath for n <= MP_N_MAX."""
    out = []
    for (delta, n), row in _pairs(scan, rows):
        r = _Row(f"xi-n-vs-n delta={delta} n={n}", row)
        d = n // 2
        r.require(r.ok() and int(row["n"]) == n and r.num("delta") == delta
                  and int(row["d"]) == d, "grid point or truncation mismatch")
        if r.ok():
            sd, d2 = r.num("sum_defect"), r.num("d2_bracket")
            xi = (sd + 0.25 * d2) / (2 * abs(1 - delta ** 2) * n)
            r.close("xi", xi, 1e-12)
            r.close("xi_n", xi * n, 1e-12)
            r.require(xi > 0, "F_Delta must be positive")
        if r.ok() and n <= MP_N_MAX:
            t = math.acos(delta)
            sd_ref = float(ref.mp_sum_defect(n, t, False, d, 1))
            d2_ref = float(ref.mp_d2_bracket(n, t, False, d))
            r.close("sum_defect", sd_ref, 1e-10)
            r.close("d2_bracket", d2_ref, 1e-10, max(abs(d2_ref), abs(sd_ref)))
        out.append(r.outcome)
    return out


def check_xi_rational(scan, rows) -> list[Outcome]:
    """Rational xi against the slope the defect sum reaches as n -> infinity.

    The reported xi must not depend on the fit window, so it is compared
    with the window-free value from the resolvent.
    """
    window = int(scan.flag("--n-window"))
    out = []
    for (p, q), row in _pairs(scan, rows):
        r = _Row(f"xi-vs-eta-rational p={p} q={q}", row)
        eta = q * math.pi / p
        delta, d = math.cos(eta), p - 1
        r.require(r.ok() and (int(row["p"]), int(row["q"]), int(row["d"])) == (p, q, d)
                  and int(row["window_start"]) == window, "grid point mismatch")
        r.close("delta", delta, 1.0, 1e-15)
        res = ref.resolvent_coefficients(d, eta, delta)
        cdd = ref.chi_dd_closed(delta, d)
        xi = (res["xi1"] - 0.25 * cdd) / (2 * (1 - delta ** 2))
        r.close("xi1", res["xi1"], 1e-4)
        r.close("chi_dd", cdd, 1e-6)
        r.close("xi", xi, 1e-4, max(abs(xi), abs(res["xi1"]) / (2 * (1 - delta ** 2))))
        out.append(r.outcome)
    return out


def check_chi(scan, rows) -> list[Outcome]:
    """chi and chi_1 against the resolvent; small p also against the intercept."""
    d_irrational = int(scan.flag("--d-max"))
    out = []
    for point, row in _pairs(scan, rows):
        if point[0] == "rational":
            _, p, q = point
            eta = q * math.pi / p
            delta, d = math.cos(eta), p - 1
            r = _Row(f"chi-vs-delta p={p} q={q}", row)
            r.require(r.ok() and row["route"] == "rational" and int(row["p"]) == p
                      and int(row["q"]) == q and int(row["d"]) == d, "grid point mismatch")
            res = ref.resolvent_coefficients(d, eta, delta)
            r.close("chi", res["chi"], 1e-10)
            r.close("chi1", res["chi1"], 1e-9)
            if p <= 6:  # the bracket recurrence settles within ~500 steps here
                r.close("chi1", ref.chi_intercept(eta, d, res["chi"]), 1e-9)
        else:
            _, delta = point
            r = _Row(f"chi-vs-delta delta={delta}", row)
            r.require(r.ok() and row["route"] == "irrational"
                      and int(row["d"]) == d_irrational, "grid point mismatch")
            r.close("delta", delta, 1e-14)
            if r.ok():
                delta = r.num("delta")
                res = ref.resolvent_coefficients(d_irrational, math.acos(delta), delta)
                r.close("chi", res["chi"], 1e-9)
                r.close("chi1", res["chi1"], 1e-5)
        out.append(r.outcome)
    return out


ISOTROPIC_ETA = 1e-4  # the small eta isotropic-check evaluates at


def check_isotropic(scan, rows) -> list[Outcome]:
    out = []
    for (n,), row in _pairs(scan, rows):
        r = _Row(f"isotropic-check n={n}", row)
        r.require(r.ok() and int(row["n"]) == n, "grid point mismatch")
        r.close("bracket_eta0", n * (n - 1) / 8, 1e-13)
        r.close("bracket_formula", n * (n - 1) / 8, 0.0)
        if r.ok():
            b, s = r.num("bracket_small_eta"), r.num("series_small_eta")
            fe, fs = r.num("f_delta_exact"), r.num("f_delta_series")
            r.require(abs(b - s) <= 1e-10 * abs(b), "series misses the bracket")
            r.require(abs(fe - fs) <= 1e-4 * abs(fe), "F_Delta series misses the exact value")
            for col, rel in (("rel_diff_bracket", abs(b - s) / abs(b)),
                             ("rel_diff_f", abs(fe - fs) / abs(fe))):
                r.close(col, rel, 1e-9, max(rel, 1e-15))
        if r.ok() and n <= MP_N_MAX:
            t, d = ISOTROPIC_ETA, n // 2
            r.close("bracket_small_eta", float(ref.mp_bracket(n, t, False, d)), 1e-10)
            delta = math.cos(t)  # the double the program uses in the prefactor
            sd = ref.mp_sum_defect(n, t, False, d, 1)
            d2 = ref.mp_d2_bracket(n, t, False, d)
            r.close("f_delta_exact", float((sd + d2 / 4) / (2 * abs(1 - mp.mpf(delta) ** 2))),
                    1e-5)
        out.append(r.outcome)
    return out


# ---------------------------------------------------------------------------
# log-domain brackets and the dense route
# ---------------------------------------------------------------------------

def check_validity(scan, rows) -> list[Outcome]:
    out = []
    for (delta, n), row in _pairs(scan, rows):
        r = _Row(f"validity-report delta={delta} n={n}", row, known=past_overflow(delta, n))
        r.require(r.ok() and int(row["n"]) == n and r.num("delta") == delta
                  and r.num("mu") == 1.0, "grid point mismatch")
        if r.ok():
            log_norm = r.num("hs_norm_sq_log10") * LN10
            thr = (0.5 * (n + 1) * LN2 - 0.5 * log_norm) / LN10
            r.close("threshold_log10", thr, 1e-12, max(1.0, abs(thr)))
            _log_bracket(r, log_norm - n * LN2, delta, n)
        out.append(r.outcome)
    return out


def dense_state_problem(rho, gen: ref.Generator) -> str | None:
    """Unit trace, hermiticity, positivity and the Liouvillian residual of a state."""
    tr, herm, low = ref.state_defects(rho)
    if not (tr <= 1e-12 and herm <= 1e-12 and low >= -1e-12):
        return f"not a density matrix (trace {tr:.2e}, hermiticity {herm:.2e}, min eig {low:.2e})"
    res = gen.residual(rho)
    if not res <= 1e-12:
        return f"Liouvillian residual {res:.2e}"
    return None


def _mu1_state(n: int, delta: float, lam: float):
    from xxz_metrology import ChainParams, lindblad
    return lindblad.ness_mu1(ChainParams(n=n, j_coupling=1.0, delta=delta, lam=lam,
                                         mu=1.0), lam)


def check_f_lambda(scan, rows) -> list[Outcome]:
    """Leading-order rows as log brackets; exact rows through their mu = 1 states.

    The exact QFI is compared with one built from null-space states for
    n <= 4; every exact row's state (rebuilt with ``ness_mu1``) must be a
    fixed point of the benchmark's own generator.
    """
    out = []
    for (delta, lam, n), row in _pairs(scan, rows):
        known = (past_overflow(delta, n)
                 or row.get("error", "").startswith(NOT_CONVERGED))
        r = _Row(f"f-lambda-nonpert delta={delta} lambda/J={lam} n={n}", row, known)
        r.require(r.ok() and int(row["n"]) == n and r.num("delta") == delta
                  and r.num("lambda_over_j") == lam, "grid point mismatch")
        if r.ok() and lam == 0.0:
            r.require(row["method"] == "leading-order", "not the leading order")
            if r.ok():
                _log_bracket(r, r.num("f_log10") * LN10 + LN2, delta, n)
        elif r.ok():
            r.require(row["method"] == "exact-dense" and r.num("epsilon") == lam,
                      "not the exact route")
            f = r.num("j2_f_lambda")
            r.require(math.isfinite(f) and f > 0, "QFI must be positive")
            if r.ok():
                r.close("f_log10", math.log10(f), 1e-12)
            gen = ref.Generator(n, delta, lam)
            if r.ok():
                problem = dense_state_problem(_mu1_state(n, delta, lam), gen)
                r.require(problem is None, f"state: {problem}")
            if r.ok() and n <= 4:
                r.close("j2_f_lambda", ref.qfi(*ref.nullspace_state(gen)), 1e-6)
        out.append(r.outcome)
    return out


SCAN_CHECKS = {
    "xi-n-vs-n": check_xi_n,
    "xi-vs-eta-rational": check_xi_rational,
    "chi-vs-delta": check_chi,
    "isotropic-check": check_isotropic,
    "validity-report": check_validity,
    "f-lambda-nonpert": check_f_lambda,
}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def check_oracle(points, states) -> list[Outcome]:
    """Null-space, mu = 1 and MPO states of each (n, Delta, lam) point."""
    from xxz_metrology import ChainParams, lindblad
    out = []
    for (n, delta, lam), (null, mu1, pert) in zip(points, states, strict=True):
        o = _Row(f"oracle n={n} delta={delta} lambda={lam}", {})
        gen = ref.Generator(n, delta, lam)
        for name, rho in (("null space", null), ("mu=1", mu1)):
            problem = dense_state_problem(rho, gen)
            o.require(problem is None, f"{name} state: {problem}")
        if o.ok():
            td = ref.trace_distance(null, mu1)
            o.require(td <= 1e-9, f"null space vs mu=1 trace distance {td:.2e}")
        if o.ok():
            td = ref.trace_distance(null, pert)
            o.require(td <= PERTURBATIVE_C * lam ** 3,
                      f"null space vs perturbative trace distance {td:.2e} "
                      f"beyond {PERTURBATIVE_C} (lambda/J)^3")
            half = ChainParams(n=n, j_coupling=1.0, delta=delta, lam=lam / 2, mu=1.0)
            td_half = ref.trace_distance(_mu1_state(n, delta, lam / 2),
                                         lindblad.ness_perturbative(half))
            order = math.log2(td / td_half) if td > 0 and td_half > 0 else math.nan
            o.require(ORDER_RANGE[0] <= order <= ORDER_RANGE[1],
                      f"perturbative error shrinks as (lambda/J)^{order:.2f}, not ^3")
        out.append(o.outcome)
    return out
