"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import sqrtm

from xxz_metrology.model import ChainParams, eta_from_delta, hs_norm
from xxz_metrology.mpo import (build_aux_A, contract_to_dense,
                               hs_norm_sq_via_transfer, validity_threshold)
from xxz_metrology.lindblad import (apply_liouvillian, build_liouvillian,
                                    ness_mu1, ness_perturbative,
                                    steady_state_nullspace)
from xxz_metrology.fisher import fisher_cross, qfi_dense, qfi_parametric, sld
from xxz_metrology.transfer import (bracket_series, f0_delta, f0_x,
                                    isotropic_bracket_series, isotropic_f_delta,
                                    xi_coefficient, xi_coefficient_rational)


def report(num, desc, ok, elapsed, detail="", budget=None):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} ({elapsed:6.2f}s) {desc}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_continued_fractions():
    t0 = time.monotonic()
    ok = True
    c = Fraction(1)  # C_0 = 1, C_k = 1 - 1/(4 C_{k-1}), in exact arithmetic
    for k in range(1001):
        ok = ok and c == Fraction(k + 2, 2 * k + 2)
        c = 1 - Fraction(1, 4) / c
    report(1, "continued fractions C_k, recurrence vs closed form, k <= 1000",
           ok, time.monotonic() - t0, budget=1.0)


def test_criterion_02_toeplitz_spectrum():
    t0 = time.monotonic()
    worst = 0.0
    for d in range(1, 51):
        # A = 1 - (shift + shift^T)/2
        A = np.eye(d) - 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
        analytic = 1 - np.cos(np.arange(1, d + 1) * np.pi / (d + 1))
        worst = max(worst, np.max(np.abs(np.linalg.eigvalsh(A) - np.sort(analytic))))
    report(2, "Toeplitz spectrum matches 1 - cos(j pi/(d+1)) for d <= 50",
           worst < 1e-12, time.monotonic() - t0,
           detail=f"max |diff| = {worst:.2e}", budget=1.0)


def test_criterion_03_norm_identity():
    t0 = time.monotonic()
    worst = 0.0
    for delta in (0.0, 0.5, 0.9, 1.0, 2.0):
        eta = eta_from_delta(delta)
        for n in range(2, 9):
            dense = hs_norm(contract_to_dense(build_aux_A(n, eta), n)) ** 2
            transfer = hs_norm_sq_via_transfer(n, eta).value
            worst = max(worst, abs(dense - transfer) / dense)
    report(3, "||Z||_HS^2 = 2^n <L|T^n|R> for n = 2..8, five anisotropies",
           worst < 1e-10, time.monotonic() - t0,
           detail=f"max rel err = {worst:.2e}", budget=60.0)


def test_criterion_04_perturbative_fixed_point_slope():
    t0 = time.monotonic()
    lams = np.array([1e-2, 1e-3, 1e-4])
    slopes = []
    for n in (2, 3, 4):
        residuals = []
        for lam in lams:
            params = ChainParams(n=n, delta=0.5, lam=float(lam), mu=0.8)
            rho = ness_perturbative(params)
            residuals.append(hs_norm(apply_liouvillian(rho, params)))
        slopes.append(np.polyfit(np.log(lams), np.log(residuals), 1)[0])
    ok = all(abs(s - 3.0) < 0.2 for s in slopes)
    report(4, "perturbative NESS residual is O((lam/J)^3): log-log slope 3 +- 0.2",
           ok, time.monotonic() - t0,
           detail="slopes " + ", ".join(f"{s:.3f}" for s in slopes), budget=60.0)


def test_criterion_05_mu1_fixed_point():
    t0 = time.monotonic()
    worst = 0.0
    off = math.inf
    for n in (2, 3, 4):
        for delta in (1.5, 2.0):
            params = ChainParams(n=n, delta=delta, lam=1e-3, mu=1.0)
            eps = params.lam / params.j_coupling
            residual = {f: hs_norm(apply_liouvillian(ness_mu1(params, f * eps), params))
                        for f in (0.5, 1.0, 2.0)}
            worst = max(worst, residual[1.0])
            off = min(off, residual[0.5], residual[2.0])
    report(5, "mu = 1 closed-form NESS is an exact fixed point at "
              "epsilon = lam/J (n = 2..4, Delta in {1.5, 2})",
           worst < 1e-10 and off > 1e-6, time.monotonic() - t0,
           detail=f"max residual = {worst:.2e}, at lam/2J or 2 lam/J >= {off:.2e}")


def test_criterion_06_omega_independence():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        params = ChainParams(n=n, delta=0.7, lam=0.3, mu=0.6, omega=2.0)
        with_o = steady_state_nullspace(build_liouvillian(params))
        without = steady_state_nullspace(build_liouvillian(params.replace(omega=0.0)))
        worst = max(worst, hs_norm(with_o - without))
    report(6, "steady state independent of the omega/2 M_z generator (n <= 4)",
           worst < 1e-10, time.monotonic() - t0,
           detail=f"max HS distance = {worst:.2e}")


def test_criterion_07_leading_order_consistency():
    t0 = time.monotonic()
    lams = np.array([3e-2, 1e-2, 3e-3])
    slopes = {"lambda": [], "Delta": []}
    for n in (3, 4, 5, 6):
        for delta in (0.5, 0.9):
            dev_l, dev_d = [], []
            for lam in lams:
                params = ChainParams(n=n, delta=delta, lam=float(lam), mu=1.0)
                rl = (qfi_parametric(params, "lambda", ness_perturbative).value
                      / f0_x(params, "lambda").value)
                rd = (qfi_parametric(params, "Delta", ness_perturbative).value
                      / f0_delta(params).value)
                dev_l.append(abs(rl - 1))
                dev_d.append(abs(rd - 1))
            slopes["lambda"].append(np.polyfit(np.log(lams), np.log(dev_l), 1)[0])
            slopes["Delta"].append(np.polyfit(np.log(lams), np.log(dev_d), 1)[0])
    ok = all(abs(s - 2.0) < 0.25 for key in slopes for s in slopes[key])
    detail = ("lambda slopes {:.2f}..{:.2f}, Delta slopes {:.2f}..{:.2f}"
              .format(min(slopes["lambda"]), max(slopes["lambda"]),
                      min(slopes["Delta"]), max(slopes["Delta"])))
    report(7, "exact QFI / leading order -> 1 with O((lam/J)^2) deviation "
              "for x = lambda and x = Delta (n = 3..6)",
           ok, time.monotonic() - t0, detail=detail, budget=300.0)


def test_criterion_08_isotropic_formulas():
    t0 = time.monotonic()
    exact_ok = all(bracket_series(n, 0.0)[n] == n * (n - 1) / 8
                   for n in range(2, 201))
    eta = 1e-4
    worst_b = 0.0
    worst_f = 0.0
    for n in (4, 10, 50, 120, 200):
        b = float(bracket_series(n, eta)[n])
        series = isotropic_bracket_series(n, eta)
        worst_b = max(worst_b, abs(b - series) / b)
    for n in (4, 10, 30, 60):
        params = ChainParams(n=n, delta=math.cos(eta), lam=1.0, mu=1.0)
        f_exact = f0_delta(params).value
        f_series = isotropic_f_delta(params)
        worst_f = max(worst_f, abs(f_exact - f_series) / f_exact)
    ok = exact_ok and worst_b < 1e-3 and worst_f < 1e-3
    report(8, "isotropic limit: bracket = n(n-1)/8 exactly (n <= 200); "
              "series and F_Delta formula match exact computations at eta = 1e-4",
           ok, time.monotonic() - t0,
           detail=f"bracket rel {worst_b:.2e}, F rel {worst_f:.2e}", budget=60.0)


@pytest.mark.xfail(
    strict=True,
    reason="intrinsic defect of the stated window for (5, 2): the bulk "
           "transient tau_1 = 0.9218 has only decayed to 2.9e-4 by n = 100, "
           "so the exact [100, 200] regression slope sits 7.9e-6 from chi; "
           "the slope does converge to chi (1e-13 by [300, 600]), see "
           "test_transfer.py::test_chi_matches_slope_oracle and the README "
           "paragraph on this xfail")
def test_criterion_09_chi_slope():
    t0 = time.monotonic()
    details = []
    ok = True
    for p, q in ((2, 1), (3, 1), (5, 2)):
        eta = q * math.pi / p
        delta = math.cos(eta)
        chi = (p - 1) / (2 * p) / (1 - delta ** 2)
        series = bracket_series(200, eta, p - 1)
        ns = np.arange(100, 201, dtype=float)
        slope = np.polyfit(ns, series[100:], 1)[0]
        rel = abs(slope - chi) / chi
        details.append(f"(p={p},q={q}): rel {rel:.2e}")
        ok = ok and rel < 1e-6
    # Known defect for (5, 2): the bulk transient tau_1 = 0.9218 has only
    # decayed to 2.9e-4 by n = 100, so the exact windowed slope differs
    # from chi by 7.9e-6 > 1e-6.  Wider windows converge: see
    # test_transfer.py::test_chi_matches_slope_oracle and the README paragraph
    # on this xfail (Install and test).
    report(9, "chi: bracket slope over n in [100, 200] matches "
              "d/(2(d+1))/(1-Delta^2) to 1e-6 for (2,1), (3,1), (5,2)",
           ok, time.monotonic() - t0, detail="; ".join(details), budget=10.0)


def test_criterion_10_xi_dichotomy():
    t0 = time.monotonic()
    rational = [xi_coefficient_rational(3, 1, n).xi for n in (200, 400, 800)]
    spread = np.ptp(rational) / abs(np.mean(rational))
    ns = np.unique(np.round(np.logspace(2, 4, 9)).astype(int))
    xin = np.array([xi_coefficient(0.1, int(n)).xi_n for n in ns])
    expo = np.polyfit(np.log(ns), np.log(xin), 1)[0]
    ok = spread < 1e-4 and 2.0 <= expo <= 5.0
    report(10, "xi dichotomy: rational (p = 3) n-independent, irrational "
               "(Delta = 0.1) xi*n grows with exponent in [2, 5]",
           ok, time.monotonic() - t0,
           detail=f"rational spread {spread:.2e} (xi = {rational[0]:.6f}), "
                  f"irrational exponent {expo:.2f}", budget=600.0)


def test_criterion_11_easy_axis_superexponential(easy_axis_lower_bound):
    t0 = time.monotonic()
    eta = eta_from_delta(2.0)
    chain_ok = True
    logs = []
    for n in range(4, 31, 2):
        b = easy_axis_lower_bound(n, eta)
        chain_ok = chain_ok and (b.log_bound <= b.log_path <= b.log_bracket)
        logs.append(b.log_bracket)
    second = np.diff(logs, 2)
    ok = chain_ok and np.all(second[2:] > 0)
    report(11, "easy axis (Delta = 2): factorial bound <= single path <= "
               "bracket in logs, and log-bracket eventually convex in n",
           ok, time.monotonic() - t0,
           detail=f"final curvature {second[-1]:.3f}", budget=10.0)


def test_criterion_12_fig4_shape():
    t0 = time.monotonic()
    dense = []
    for n in range(2, 11):
        params = ChainParams(n=n, delta=2.0, lam=1e-2, mu=1.0)
        dense.append(qfi_parametric(
            params, "lambda", lambda p: ness_mu1(p, p.lam / p.j_coupling)).value)
    dense = np.array(dense)
    rises = np.any(np.diff(dense) > 0)
    peak = int(dense.argmax())
    falls = peak < len(dense) - 1 and dense[peak] > dense[min(peak + 2, len(dense) - 1)]
    lead = [f0_x(ChainParams(n=n, delta=2.0, lam=1.0, mu=1.0), "lambda").log_value
            for n in range(2, 11)]
    lead_monotone = np.all(np.diff(lead) > 0)
    lead_convex = np.all(np.diff(lead, 2) > 0)
    ok = rises and falls and lead_monotone and lead_convex
    report(12, "Fig.-4 shape: dense F_lambda (mu = 1, Delta = 2, lam/J = 1e-2) "
               "rises then decays over n = 2..10; leading order grows "
               "superexponentially",
           ok, time.monotonic() - t0,
           detail=f"peak at n = {peak + 2}, F in [{dense.min():.3g}, "
                  f"{dense.max():.3g}]", budget=600.0)


def test_criterion_13_relative_error_claims():
    t0 = time.monotonic()
    ok = True
    worst_margin = math.inf
    for delta in (0.5, 1.0):
        eta = eta_from_delta(delta)
        for n in range(2, 51, 4):
            lam = 0.99 * validity_threshold(n, eta, mu=1.0).value
            params = ChainParams(n=n, delta=delta, lam=lam, mu=1.0)
            for x, label in ((lam, "lambda"), (1.0, "mu")):
                val = x * math.sqrt(f0_x(params, label).value)
                worst_margin = min(worst_margin, 1 / val)
                ok = ok and 1 / val > 1
    # anisotropy bound scalings, as inequalities:
    #  - isotropic: 1/(Delta F) > 1/n^2 with the expected n^-2 trend
    #  - easy plane (rational Delta = 0.5): 1/(Delta F) > O(1/(xi n))
    iso_ratio = []
    xi05 = xi_coefficient_rational(3, 1, 200).xi
    for n in range(6, 51, 4):
        lam = 0.99 * validity_threshold(n, eta_from_delta(1.0), mu=1.0).value
        p_iso = ChainParams(n=n, delta=1.0, lam=lam, mu=1.0)
        r_iso = 1 / (1.0 * isotropic_f_delta(p_iso))
        ok = ok and r_iso * n ** 2 > 1
        iso_ratio.append(r_iso * n ** 2)
        lam = 0.99 * validity_threshold(n, eta_from_delta(0.5), mu=1.0).value
        p_ep = ChainParams(n=n, delta=0.5, lam=lam, mu=1.0)
        r_ep = 1 / (0.5 * f0_delta(p_ep).value)
        ok = ok and r_ep * xi05 * n > 1
    iso_spread_ok = max(iso_ratio) / min(iso_ratio) < 5
    ok = ok and iso_spread_ok
    report(13, "relative errors at 0.99 x validity threshold: "
               "1/(x sqrt(F0)) > 1 for x in {lambda, mu}; Delta bounds obey "
               "the isotropic 1/n^2 and easy-plane 1/(xi n) inequalities",
           ok, time.monotonic() - t0,
           detail=f"min lambda/mu margin {worst_margin:.4f}, "
                  f"iso n^2-trend spread {max(iso_ratio)/min(iso_ratio):.2f}",
           budget=60.0)


def test_criterion_14_fisher_self_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(200):
        dim = 4
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T + 0.2 * np.eye(dim)
        rho /= np.trace(rho).real
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        drho = h + h.conj().T
        drho -= np.trace(drho) / dim * np.eye(dim)
        L = sld(rho, drho)
        if hs_norm(drho - (L @ rho + rho @ L) / 2) > 1e-12 * max(1, hs_norm(drho)):
            failures += 1
        F = qfi_dense(rho, drho)
        if abs(F - np.real(np.trace(L @ drho))) > 1e-10 * max(1.0, F):
            failures += 1
        hh = 1e-3

        def fid(x1, x2):
            r1, r2 = rho + x1 * drho, rho + x2 * drho
            root = sqrtm(r1)
            return np.real(np.trace(sqrtm(root @ r2 @ root))) ** 2

        def bures(step):
            return 8 * (1 - math.sqrt(fid(-step / 2, step / 2))) / step ** 2

        # extrapolate h -> 0 through two Richardson levels
        b1, b2, b3 = bures(hh), bures(hh / 2), bures(hh / 4)
        r1, r2 = (4 * b2 - b1) / 3, (4 * b3 - b2) / 3
        est = (16 * r2 - r1) / 15
        if abs(est - F) / F > 1e-4:
            failures += 1
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        drho2 = g + g.conj().T
        drho2 -= np.trace(drho2) / dim * np.eye(dim)
        mat = np.array([[fisher_cross(rho, drho, drho),
                         fisher_cross(rho, drho, drho2)],
                        [fisher_cross(rho, drho2, drho),
                         fisher_cross(rho, drho2, drho2)]])
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            failures += 1
    report(14, "Fisher self-consistency: SLD reconstruction, duality, Bures "
               "finite differences, Fisher-matrix PSD (200 randomized trials)",
           failures == 0, time.monotonic() - t0,
           detail=f"{failures} failed checks", budget=60.0)
