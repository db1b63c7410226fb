"""The benchmark's output checks accept today's rows and reject perturbed ones.

Each test runs one small scan through ``cli.main``, checks that every
row passes, then perturbs one value the way a wrong program would and
checks that the row is rejected.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Oracle, Scan, rational_grid  # noqa: E402
from xxz_metrology import ChainParams, cli, lindblad  # noqa: E402


def _run(tmp_path, kind, args, points):
    scan = Scan(kind, kind, args, points)
    assert cli.main(scan.argv(str(tmp_path))) in (cli.EXIT_OK, cli.EXIT_PARTIAL)
    return scan, scan.read(str(tmp_path))


def _problems(scan, rows):
    return [o.problem for o in checks.SCAN_CHECKS[scan.kind](scan, rows)]


def _perturbed(rows, index, col, factor=None, shift=None):
    rows = copy.deepcopy(rows)
    value = float(rows[index][col])
    rows[index][col] = repr(value * factor if factor is not None else value + shift)
    return rows


def test_xi_n_rows(tmp_path):
    scan, rows = _run(tmp_path, "xi-n-vs-n", ["--delta", "0.37", "--n-range", "10", "30", "10"],
                      [(0.37, n) for n in (10, 20, 30)])
    assert _problems(scan, rows) == [None] * 3
    assert _problems(scan, _perturbed(rows, 1, "sum_defect", 1 - 1e-6))[1]
    assert _problems(scan, _perturbed(rows, 2, "d2_bracket", 1 + 1e-6))[2]
    assert _problems(scan, _perturbed(rows, 0, "xi", 1.01))[0]


def test_rational_xi_rows(tmp_path):
    scan, rows = _run(tmp_path, "xi-vs-eta-rational", ["--p-max", "5", "--n-window", "400"],
                      rational_grid(5))
    assert _problems(scan, rows) == [None] * len(rows)
    assert _problems(scan, _perturbed(rows, 4, "xi", 1.01))[4]
    assert _problems(scan, _perturbed(rows, 4, "xi1", 1.01))[4]


def test_rational_xi_depends_on_a_short_window(tmp_path):
    # p = 7, q = 2 fitted at the default window start 120: transients remain
    scan, rows = _run(tmp_path, "xi-vs-eta-rational", ["--p-max", "7", "--n-window", "120"],
                      rational_grid(7))
    problems = dict(zip(rational_grid(7), _problems(scan, rows)))
    assert problems[(7, 2)] and problems[(3, 1)] is None


def test_chi_rows(tmp_path):
    points = [("rational", p, q) for p, q in rational_grid(6)] + [
        ("irrational", dl) for dl in (-1 / 3, 1 / 3)]
    scan, rows = _run(tmp_path, "chi-vs-delta",
                      ["--p-max", "6", "--delta-points", "2", "--d-max", "60"], points)
    assert _problems(scan, rows) == [None] * len(rows)
    assert _problems(scan, _perturbed(rows, 3, "chi1", 1 + 1e-6))[3]
    assert _problems(scan, _perturbed(rows, 3, "chi", 1 + 1e-6))[3]
    assert _problems(scan, _perturbed(rows, -1, "chi1", 1.01))[-1]


def test_isotropic_rows(tmp_path):
    scan, rows = _run(tmp_path, "isotropic-check", ["--n-range", "3", "40", "7"],
                      [(n,) for n in range(3, 41, 7)])
    assert _problems(scan, rows) == [None] * len(rows)
    assert _problems(scan, _perturbed(rows, 2, "bracket_small_eta", 1 - 1e-6))[2]
    assert _problems(scan, _perturbed(rows, 2, "f_delta_exact", 1.01))[2]
    assert _problems(scan, _perturbed(rows, 2, "f_delta_series", 1.01))[2]


def test_log_bracket_rows(tmp_path):
    points = [(dl, n) for dl in (1.1, 2.0, 0.4) for n in (100, 600)]
    scan, rows = _run(tmp_path, "validity-report",
                      ["--delta", "1.1", "--delta", "2.0", "--delta", "0.4",
                       "--n-range", "100", "600", "500"], points)
    outcomes = checks.SCAN_CHECKS[scan.kind](scan, rows)
    # only Delta = 2 past the cosh^2 overflow fails, and it is the known fault
    assert [(o.problem is not None, o.known) for o in outcomes] == [
        (False, False), (False, False), (False, False), (True, True),
        (False, False), (False, False)]
    assert "single-path bound" in outcomes[3].problem
    # a log-bracket lowered by 1e-6 relative is rejected at n = 100 and n = 600
    for i, n in ((0, 100), (1, 600)):
        log_b = float(rows[i]["hs_norm_sq_log10"]) * checks.LN10 - n * checks.LN2
        for value, passes in ((log_b, True), (log_b * (1 - 1e-6), False)):
            r = checks._Row("probe", {})
            checks._log_bracket(r, value, 1.1, n)
            assert r.ok() is passes
    assert _problems(scan, _perturbed(rows, 0, "threshold_log10", 1 + 1e-6))[0]


def test_f_lambda_rows(tmp_path):
    points = [(2.0, lj, n) for lj in (0.0, 0.01) for n in (2, 3, 4)]
    scan, rows = _run(tmp_path, "f-lambda-nonpert",
                      ["--delta", "2", "--lambda-over-j", "0", "0.01", "--n-range", "2", "4", "1"],
                      points)
    assert _problems(scan, rows) == [None] * 6
    assert _problems(scan, _perturbed(rows, 5, "j2_f_lambda", 1.01))[5]
    assert _problems(scan, _perturbed(rows, 1, "f_log10", 1 - 1e-6))[1]


def test_not_converged_rows_are_the_known_fault(tmp_path):
    scan, rows = _run(tmp_path, "f-lambda-nonpert",
                      ["--delta", "100", "--lambda-over-j", "0.01", "--n-range", "5", "5", "1"],
                      [(100.0, 0.01, 5)])
    [outcome] = checks.SCAN_CHECKS[scan.kind](scan, rows)
    assert outcome.problem.startswith(checks.NOT_CONVERGED) and outcome.known


def test_state_checks():
    gen = ref.Generator(3, 0.7, 0.05)
    rho = lindblad.ness_mu1(ChainParams(n=3, delta=0.7, lam=0.05, mu=1.0), 0.05)
    assert checks.dense_state_problem(rho, gen) is None
    assert checks.dense_state_problem(rho * (1 + 1e-6), gen)
    noise = np.random.default_rng(0).normal(size=rho.shape)
    noise = (noise + noise.T) / 2
    noise -= np.trace(noise) / 8 * np.eye(8)
    assert checks.dense_state_problem(rho + 1e-6 * noise, gen)
    bad = rho.copy()
    bad[0, 0] -= 0.3
    bad[1, 1] += 0.3
    assert checks.dense_state_problem(bad, gen)


def test_oracle_checks():
    work = Oracle(0)
    work.points = [(3, 0.6, 1e-2), (3, 1.5, 1e-3)]
    work.run_round("")
    assert [o.problem for o in checks.check_oracle(work.points, work.states)] == [None, None]
    null, mu1, pert = work.states[0]
    # an MPO state with a wrong second-order term
    wrong = [(null, mu1, pert + 0.02 * (pert - np.eye(8) / 8))] + work.states[1:]
    assert checks.check_oracle(work.points, wrong)[0].problem


def test_resolvent_matches_the_bracket_recurrence():
    p, q = 5, 2
    eta = q * math.pi / p
    delta, d = math.cos(eta), p - 1
    res = ref.resolvent_coefficients(d, eta, delta)
    assert res["chi"] == pytest.approx(d / (2 * (d + 1)) / (1 - delta ** 2), rel=1e-12)
    assert res["chi1"] == pytest.approx(ref.chi_intercept(eta, d, res["chi"]), rel=1e-12)


def test_tracer_sees_names_imported_into_cli(tmp_path):
    tracer = Tracer()
    original = cli.defect_series
    tracer.install()
    try:
        assert cli.defect_series is not original
        _run(tmp_path, "isotropic-check", ["--n-range", "3", "10", "7"], [(3,), (10,)])
        layers = tracer.layer_metrics(1)
    finally:
        tracer.uninstall()
    assert cli.defect_series is original
    assert layers["transfer.bracket_series.calls"] == 4
    assert layers["transfer.defect_series.calls"] == 2
    assert layers["cli.points"] == 2
    # four propagations per point, n (n//2 + 1) cells each
    assert layers["transfer.band_steps"] == 4 * (3 * 2) + 4 * (10 * 6)
