import csv
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import known_faults
import xxz_metrology
from xxz_metrology.cli import (EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, ScanSpec,
                               UsageError, main, rational_grid, run_scan)
from xxz_metrology.transfer import xi_coefficient_rational


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_rational_grid_small():
    grid = rational_grid(3, 3)
    assert [(p, q) for p, q, _ in grid] == [(2, 1), (3, 1), (3, 2)]


def test_rational_grid_totient_count():
    grid = rational_grid(5)
    assert len(grid) == 1 + 2 + 2 + 4  # sum of phi(p), p = 2..5


def test_rational_grid_delta_range():
    for _, _, delta in rational_grid(12):
        assert -1 < delta < 1


def test_rational_grid_validates():
    with pytest.raises(ValueError):
        rational_grid(1)


def test_isotropic_scan_exit_ok(tmp_path):
    out = tmp_path / "iso.csv"
    code = main(["scan", "isotropic-check", "--n-range", "4", "24", "10",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    header = rows[0]
    assert header[0] == "n"
    assert len(rows) == 4  # header + 3 grid points
    i_f = header.index("rel_diff_f")
    i_b = header.index("rel_diff_bracket")
    for row in rows[1:]:
        n = int(row[0])
        # bracket column equals the closed formula exactly
        assert float(row[1]) == n * (n - 1) / 8
        assert float(row[i_b]) < 1e-3
        assert float(row[i_f]) < 1e-3


def test_isotropic_check_at_two_sites(tmp_path):
    # F_Delta is exactly 0 in both columns at n = 2 (0.0 and -0.0)
    out = tmp_path / "iso.csv"
    assert main(["scan", "isotropic-check", "--n-range", "2", "3", "1",
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    two = dict(zip(rows[0], rows[1]))
    assert (two["f_delta_exact"], two["f_delta_series"]) == ("0.0", "-0.0")
    assert (two["rel_diff_f"], two["error"]) == ("0.0", "")
    # the default grid (n >= 3) keeps the plain relative difference
    default = tmp_path / "default.csv"
    assert main(["scan", "isotropic-check", "--out", str(default)]) == EXIT_OK
    rows = read_csv(default)
    for row in (dict(zip(rows[0], row)) for row in rows[1:]):
        exact, series = float(row["f_delta_exact"]), float(row["f_delta_series"])
        assert float(row["rel_diff_f"]) == abs(exact - series) / abs(exact)


def test_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        spec = ScanSpec(kind="validity-report",
                        options={"delta": [0.5, 2.0], "mu": 1.0,
                                 "n_range": [2, 10, 4]},
                        out=str(out))
        summary = run_scan(spec)
        outs.append((out.read_bytes(), summary["digest"]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_digest_tracks_content(tmp_path):
    digests = []
    for mu in (1.0, 0.5):
        out = tmp_path / f"v{mu}.csv"
        spec = ScanSpec(kind="validity-report",
                        options={"delta": [0.5], "mu": mu, "n_range": [4, 4, 1]},
                        out=str(out))
        digests.append(run_scan(spec)["digest"])
    assert digests[0] != digests[1]


def test_manifest_contents(tmp_path):
    out = tmp_path / "chi.csv"
    spec = ScanSpec(kind="chi-vs-delta",
                    options={"p_max": 5, "d_max": 40, "delta_points": 5},
                    out=str(out))
    summary = run_scan(spec)
    manifest = json.loads((tmp_path / "chi.csv.manifest.json").read_text())
    assert manifest["data_sha256"] == summary["digest"]
    assert manifest["failures"] == 0
    assert manifest["rows"] == summary["rows"]
    assert manifest["scan"] == "chi-vs-delta"
    assert "wall_time_s" in manifest
    # the numeric environment exact rows depend on, null where unknown or unset
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy < 1.26 prints its configuration only
        assert env["blas"] is None
    else:
        assert env["blas"] == {"name": blas.get("name"), "version": blas.get("version")}
    assert env["threads"] == {var: os.environ.get(var) for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_manifest_environment_leaves_the_data_alone(tmp_path, monkeypatch):
    spec = dict(kind="isotropic-check", options={"n_range": [3, 10, 7]})
    first = run_scan(ScanSpec(out=str(tmp_path / "a.csv"), **spec))
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    second = run_scan(ScanSpec(out=str(tmp_path / "b.csv"), **spec))
    assert first["digest"] == second["digest"]
    env = json.loads((tmp_path / "b.csv.manifest.json").read_text())["environment"]
    assert env["threads"]["OMP_NUM_THREADS"] == "3"
    assert env["threads"]["MKL_NUM_THREADS"] is None


def test_partial_failure_exit_code(tmp_path):
    out = tmp_path / "f.csv"
    # n = 13, 14 exceed the dense cap for the lam > 0 column -> failure
    # rows with context, partial exit code, successful rows kept
    code = main(["scan", "f-lambda-nonpert", "--delta", "2.0",
                 "--lambda-over-j", "0.01", "--n-range", "4", "24", "10",
                 "--out", str(out)])
    assert code == EXIT_PARTIAL
    rows = read_csv(out)
    errors = [row[-1] for row in rows[1:]]
    assert sum(1 for e in errors if e) == 2
    assert any("capped" in e for e in errors)
    assert errors[0] == ""  # the n = 4 point succeeded
    failed = [dict(zip(rows[0], row)) for row in rows[1:] if row[-1]]
    assert [(r["delta"], r["lambda_over_j"], r["n"]) for r in failed] == [
        ("2.0", "0.01", "14"), ("2.0", "0.01", "24")]
    assert all(r["error"].startswith("ValueError: dense representation capped")
               for r in failed)
    # mu = 0 is read as given, and the threshold is vacuous there
    code = main(["scan", "validity-report", "--mu", "0", "--delta", "0.5",
                 "--n-range", "4", "4", "1", "--out", str(out)])
    assert code == EXIT_PARTIAL
    rows = read_csv(out)
    row = dict(zip(rows[0], rows[1]))
    assert (row["delta"], row["n"], row["mu"]) == ("0.5", "4", "0.0")
    assert row["error"].startswith(
        "ValueError: validity condition is vacuous at mu = 0")


def test_bad_usage_exit_code(tmp_path):
    assert main(["scan", "no-such-kind"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    out = ["--out", str(tmp_path / "never.csv")]
    for argv in (["xi-n-vs-n", "--log-domain", "on"],
                 ["xi-n-vs-n", "--eta-rational", "3", "1"],
                 ["isotropic-check", "--n-range", "3", "10", "0"],
                 ["isotropic-check", "--n-range", "10", "3", "1"],
                 ["f-lambda-nonpert", "--n-range", "10", "2", "1"],
                 ["xi-n-vs-n", "--n-log-points", "0"],
                 ["xi-n-vs-n", "--n-log-points", "94"],
                 ["xi-n-vs-n", "--n-log-points", "5", "--n-range", "10", "20", "10"],
                 ["chi-vs-delta", "--p-max", "1"],
                 ["xi-vs-eta-rational", "--p-max", "1"],
                 ["xi-vs-eta-rational", "--q-max", "0"],
                 ["xi-vs-eta-rational", "--p-max", "4", "--n-window", "5"],
                 ["chi-vs-delta", "--d-max", "0"],
                 ["chi-vs-delta", "--delta-points", "-1"],
                 ["isotropic-check", "--workers", "0"],
                 ["isotropic-check", "--mu", "0.5"],
                 ["f-lambda-nonpert", "--mu", "0.5"],
                 ["validity-report", "--p-max", "5"]):
        assert main(["scan", *argv, *out]) == EXIT_USAGE, argv
    assert not (tmp_path / "never.csv").exists()
    # refused before any point runs: no data file, no manifest
    assert main(["scan", "isotropic-check",
                 "--out", str(tmp_path / "missing" / "x.csv")]) == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def test_n_log_points_that_round_together_are_refused(tmp_path):
    # K = 100 log-spaced n round to 99 distinct n, K = 1000 to 748: refused,
    # not thinned; K = 93 is the largest K with K distinct n
    out = str(tmp_path / "xi.csv")
    for k, distinct in ((100, 99), (1000, 748)):
        with pytest.raises(UsageError, match=f"--n-log-points {k} rounds to only "
                                             f"{distinct} distinct n"):
            run_scan(ScanSpec(kind="xi-n-vs-n", options={"n_log_points": k}, out=out))
    assert list(tmp_path.iterdir()) == []
    assert main(["scan", "xi-n-vs-n", "--n-log-points", "93", "--out", out]) == EXIT_OK
    assert len(read_csv(out)) == 1 + 93


def test_flambda_leading_order_column(tmp_path):
    out = tmp_path / "f0.csv"
    code = main(["scan", "f-lambda-nonpert", "--delta", "2.0",
                 "--lambda-over-j", "0", "--n-range", "2", "6", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    header = rows[0]
    i_lin = header.index("j2_f_lambda")
    i_log = header.index("f_log10")
    first = rows[1]
    # n = 2: F = bracket/2 = 1/8 regardless of delta
    assert math.isclose(float(first[i_lin]), 0.125)
    assert math.isclose(float(first[i_log]), math.log10(0.125))


@pytest.mark.parametrize("delta", ["0.5", "-0.6", "0.0", "1.0"])
def test_flambda_leading_order_is_exact_in_the_easy_plane(tmp_path, delta):
    # |Delta| <= 1: F = bracket/2 in floats, with no round trip through its log
    out = tmp_path / "f0.csv"
    assert main(["scan", "f-lambda-nonpert", "--delta", delta, "--lambda-over-j", "0",
                 "--n-range", "2", "2", "1", "--out", str(out)]) == EXIT_OK
    header, row = read_csv(out)
    assert dict(zip(header, row))["j2_f_lambda"] == "0.125"


def test_flambda_log_only_when_overflowing(tmp_path):
    out = tmp_path / "f0big.csv"
    code = main(["scan", "f-lambda-nonpert", "--delta", "100.0",
                 "--lambda-over-j", "0", "--n-range", "40", "40", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    row = dict(zip(rows[0], rows[1]))
    assert row["j2_f_lambda"] == ""          # not representable linearly
    assert float(row["f_log10"]) > 308.0     # but the log column is there


def test_flambda_leading_order_at_large_anisotropy(tmp_path):
    # cos(eta) gives back Delta = 2000 only to ~1e-16 relative, 2e-13 absolute
    out = tmp_path / "f0.csv"
    code = main(["scan", "f-lambda-nonpert", "--delta", "2000",
                 "--lambda-over-j", "0", "--n-range", "4", "4", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    row = dict(zip(*read_csv(out)))
    assert row["error"] == "" and float(row["f_log10"]) > 0


def test_json_format(tmp_path):
    out = tmp_path / "grid.json"
    code = main(["scan", "validity-report", "--delta", "0.5", "--mu", "1",
                 "--n-range", "2", "6", "2", "--format", "json",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = json.loads(out.read_text())
    assert isinstance(rows, list) and len(rows) == 3
    assert rows[0]["n"] == 2


def _no_bare_constants(token):
    raise ValueError(f"bare {token} in the JSON output")


@pytest.mark.parametrize("argv", [
    ["chi-vs-delta", "--p-max", "3", "--delta-points", "1"],
    ["xi-n-vs-n", "--delta", "nan", "inf", "--n-range", "10", "20", "10"],
])
def test_json_output_is_strict(tmp_path, argv):
    # non-finite floats are the strings the CSV writer emits, in the data
    # file and in the manifest alike
    main(["scan", *argv, "--format", "json", "--out", str(tmp_path / "a.json")])
    main(["scan", *argv, "--out", str(tmp_path / "a.csv")])
    rows = json.loads((tmp_path / "a.json").read_text(),
                      parse_constant=_no_bare_constants)
    manifest = json.loads((tmp_path / "a.json.manifest.json").read_text(),
                          parse_constant=_no_bare_constants)
    csv_rows = read_csv(tmp_path / "a.csv")
    assert [list(row) for row in rows] == [csv_rows[0]] * len(rows)
    strings = set()
    for row, csv_row in zip(rows, csv_rows[1:]):
        for value, cell in zip(row.values(), csv_row):
            if isinstance(value, float):
                assert float(cell) == value
            else:
                assert str(value) == cell
                strings.add(value)
    assert strings & {"nan", "inf", "-inf"}
    if "xi-n-vs-n" in argv:
        assert manifest["spec"]["options"]["delta"] == ["nan", "inf"]
        assert {w["point"]["delta"] for w in manifest["warnings"]} <= {"nan", "inf"}


def test_scan_spec_rejects_unknown_format(tmp_path):
    out = tmp_path / "grid.xml"
    with pytest.raises(UsageError, match="unknown format 'xml'"):
        ScanSpec(kind="isotropic-check", fmt="xml", out=str(out))
    assert not out.exists()


_F0 = ["--lambda-over-j", "0", "--n-range", "2", "3", "1"]


@pytest.mark.parametrize("argv, finite_argv, column", [
    (["validity-report", "--delta", "0.5", "nan", "inf", "--n-range", "2", "4", "2"],
     ["validity-report", "--delta", "0.5", "--n-range", "2", "4", "2"], "delta"),
    (["f-lambda-nonpert", "--delta", "2", "nan", *_F0],
     ["f-lambda-nonpert", "--delta", "2", *_F0], "delta"),
    (["validity-report", "--delta", "0.5", "--mu", "nan", "--n-range", "2", "4", "2"],
     None, "mu"),
    (["f-lambda-nonpert", "--delta", "2", "--lambda-over-j", "0", "nan",
      "--n-range", "2", "3", "1"],
     ["f-lambda-nonpert", "--delta", "2", *_F0], "lambda_over_j"),
])
def test_non_finite_inputs_are_error_rows(tmp_path, argv, finite_argv, column):
    out = tmp_path / "bad.csv"
    assert main(["scan", *argv, "--out", str(out)]) == EXIT_PARTIAL
    header, *rows = read_csv(out)
    rows = [dict(zip(header, row)) for row in rows]
    bad = [row for row in rows if row["error"]]
    assert bad
    for row in bad:
        assert not math.isfinite(float(row[column]))
        assert row["n"] and row["delta"]  # the row names its grid point
        assert row["error"].startswith("ValueError: ")
    good = [list(row.values()) for row in rows if not row["error"]]
    if finite_argv is not None:
        ref = tmp_path / "good.csv"
        assert main(["scan", *finite_argv, "--out", str(ref)]) == EXIT_OK
        assert good == read_csv(ref)[1:]


def run_python(*argv, env=(), cwd=None):
    """A fresh interpreter that finds this checkout's package first, with
    ``env`` added to its environment only."""
    src = str(pathlib.Path(xxz_metrology.__file__).resolve().parents[1])
    env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def test_children_import_the_package_the_tests_import(tmp_path):
    # an installed package under test stays the one each child runs
    proc = run_python("-c", "import xxz_metrology; print(xxz_metrology.__file__)",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (pathlib.Path(proc.stdout.strip()).resolve()
            == pathlib.Path(xxz_metrology.__file__).resolve())


_SCRIPT = shutil.which("xxz-metrology")


@pytest.mark.parametrize("launcher", [
    pytest.param(["-m", "xxz_metrology.cli"], id="module"),
    pytest.param([_SCRIPT], id="console-script", marks=pytest.mark.skipif(
        _SCRIPT is None, reason="the xxz-metrology script is not installed")),
])
def test_entry_points_write_the_scan(tmp_path, launcher):
    out = tmp_path / "iso.csv"
    proc = run_python(*launcher, "scan", "isotropic-check", "--n-range", "3", "10", "7",
                      "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(read_csv(out)) == 3
    manifest = json.loads((tmp_path / "iso.csv.manifest.json").read_text())
    assert manifest["failures"] == 0


# one tiny grid per kind, and three at Delta < 0; f-lambda-nonpert takes one
# exact-dense row, and one more at n = 9, where the mu = 1 contraction fills
# every M_z block; the rational xi grid runs once more at its default windows
# (100, 120, 140: mixed in one batched pass); chi1 runs its closed form and
# rounding bound at d = 400; xi-n-vs-n runs to n = 4000, where the support
# front, not the light cone, bounds the columns the float jets step
_NUMPY_ALONE_SCANS = (
    "isotropic-check --n-range 3 10 7",
    "chi-vs-delta --p-max 3 --d-max 4 --delta-points 2",
    "chi-vs-delta --p-max 3 --d-max 400 --delta-points 4",
    "xi-vs-eta-rational --p-max 3 --n-window 8",
    "xi-vs-eta-rational --p-max 8",
    "xi-n-vs-n --delta 0.3 --n-range 4 12 4",
    "xi-n-vs-n --delta 0.37 --n-range 4000 4000 1",
    "f-lambda-nonpert --delta 2 --lambda-over-j 0 0.01 --n-range 3 3 1",
    "validity-report --delta 0.5 2 --n-range 4 8 4",
    "validity-report --delta -0.5 -2 --n-range 4 8 4",
    "xi-n-vs-n --delta -0.3 --n-range 4 12 4",
    "f-lambda-nonpert --delta -2 --lambda-over-j 0 0.01 --n-range 3 3 1",
    "f-lambda-nonpert --delta 2 --lambda-over-j 0.01 --n-range 9 9 1",
)


_SCAN_EACH = """\
import sys
from xxz_metrology.cli import main
codes = [main(["scan", *argv.split(), "--out", f"{i}.csv"]) for i, argv in enumerate(sys.argv[1:])]
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_runs_on_numpy_alone(tmp_path):
    # scipy is a test dependency only: no scan loads it, at import or lazily
    # on its path, and each runs with no failed row
    proc = run_python("-c", _SCAN_EACH, *_NUMPY_ALONE_SCANS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[EXIT_OK] * len(_NUMPY_ALONE_SCANS)} []"


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # the process pool is imported only where --workers > 1 starts one
    proc = run_python("-c", "import sys, xxz_metrology.cli; print(sorted(name for name "
                      "in sys.modules if name.split('.')[0] == 'multiprocessing'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["chi-vs-delta", "--p-max", "3", "--d-max", "400", "--delta-points", "4"],
    # one batched pass of windows to n = 2000
    ["xi-vs-eta-rational", "--p-max", "10", "--n-window", "1000"],
])
def test_data_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path, argv):
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.csv"
        proc = run_python("-m", "xxz_metrology.cli", "scan", *argv, "--out", str(out),
                          env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == EXIT_OK, proc.stderr
        digests.append(json.loads((tmp_path / f"{threads}.csv.manifest.json").read_text())
                       ["data_sha256"])
    assert digests[0] == digests[1]


@pytest.mark.filterwarnings("ignore:defect-sum window fit")
def test_xi_rational_scan_smoke(tmp_path):
    out = tmp_path / "xi.csv"
    code = main(["scan", "xi-vs-eta-rational", "--p-max", "5",
                 "--n-window", "100", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    data = {(r[0], r[1]): r for r in rows[1:]}
    assert len(data) == len(rational_grid(5))
    header = rows[0]
    xi_col = header.index("xi")
    p3 = data[("3", "1")]
    assert math.isclose(float(p3[xi_col]), 0.5596707, rel_tol=1e-5)


def test_pool_workers_write_the_same_bytes_and_warnings(tmp_path):
    # single points (rational xi) and lines (two Delta lines of validity-report)
    for name, argv in (
            ("xi", ["xi-vs-eta-rational", "--p-max", "7", "--n-window", "120"]),
            ("validity", ["validity-report", "--delta", "2", "1.1",
                          "--n-range", "500", "700", "100"])):
        manifests, codes = [], []
        for workers in ("1", "2"):
            out = tmp_path / f"{name}{workers}.csv"
            codes.append(main(["scan", *argv, "--workers", workers, "--out", str(out)]))
            manifest = tmp_path / f"{name}{workers}.csv.manifest.json"
            manifests.append(json.loads(manifest.read_text()))
        data = [(tmp_path / f"{name}{workers}.csv").read_bytes() for workers in "12"]
        assert data[0] == data[1]
        faults = sum(known_faults.fault_at(argv[0], **row) is not None
                     for row in csv.DictReader(data[0].decode("utf-8").splitlines()))
        assert manifests[0]["failures"] == faults  # the known faults
        assert codes == [EXIT_PARTIAL if faults else EXIT_OK] * 2
        assert manifests[0]["warnings"] == manifests[1]["warnings"]
        assert [len(m["wall_s"]) for m in manifests] == [m["rows"] for m in manifests]
        if name == "xi":
            r2 = [w for w in manifests[0]["warnings"]
                  if (w["point"]["p"], w["point"]["q"]) == (7, 2)]
            assert len(r2) == 1
            assert r2[0]["message"].startswith("defect-sum window fit not linear")
            assert r2[0]["point"]["window_start"] == 120
        else:  # the Delta = 2 pass runs on bands cut below the cosh^2 overflow
            assert manifests[0]["warnings"] == []


def test_rational_line_rows_are_their_own_passes(tmp_path):
    # the default windows differ per p, yet the grid shares one batched pass
    out = tmp_path / "xi.csv"
    assert main(["scan", "xi-vs-eta-rational", "--p-max", "30", "--out", str(out)]) == EXIT_OK
    header, *rows = read_csv(out)
    manifest = json.loads((tmp_path / "xi.csv.manifest.json").read_text())
    assert len(rows) == len(rational_grid(30)) == len(manifest["wall_s"])
    assert manifest["warnings"]  # short windows at large p: the R^2 warning
    warned = {}
    for w in manifest["warnings"]:
        warned.setdefault((w["point"]["p"], w["point"]["q"]), []).append(w["message"])
    for cells in rows:
        row = dict(zip(header, cells))
        p, q = int(row["p"]), int(row["q"])
        window = max(100, 20 * (p - 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone = xi_coefficient_rational(p, q, window)
        assert int(row["window_start"]) == window
        assert [row[col] for col in ("xi", "xi1", "chi_dd", "fit_r2")] == [
            repr(float(alone.xi)), repr(alone.xi1), repr(alone.chi_dd), repr(alone.fit_r2)]
        assert warned.pop((p, q), []) == [str(w.message) for w in caught]
    assert not warned  # every warning names a grid point of its own


def test_the_rational_batch_runs_in_the_first_row(tmp_path, monkeypatch):
    # the line's batch is built inside its first row's timed try: its time
    # and its warnings are that row's, and it runs once
    from xxz_metrology import cli, transfer
    calls = []

    def batch(points):
        calls.append(points)
        warnings.warn("the batch ran")
        time.sleep(0.05)
        return transfer.rational_defects(points)

    monkeypatch.setattr(cli, "rational_defects", batch)
    out = tmp_path / "xi.csv"
    assert main(["scan", "xi-vs-eta-rational", "--p-max", "4", "--n-window", "8",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "xi.csv.manifest.json").read_text())
    assert len(calls) == 1
    assert [w["point"] for w in manifest["warnings"] if w["message"] == "the batch ran"] == [
        {"p": 2, "q": 1, "delta": math.cos(math.pi / 2), "window_start": 8}]
    assert manifest["wall_s"][0] >= 0.05


def test_a_failed_rational_batch_fails_every_row_of_its_line(tmp_path, monkeypatch):
    # a batch that raises is an error row at each (p, q) of the line, and
    # the scan exits 2, not with the exception
    def broken(points):
        raise FloatingPointError("the batch broke")

    monkeypatch.setattr("xxz_metrology.cli.rational_defects", broken)
    out = tmp_path / "xi.csv"
    assert main(["scan", "xi-vs-eta-rational", "--p-max", "5", "--out", str(out)]) == EXIT_PARTIAL
    header, *rows = read_csv(out)
    assert [(int(row[0]), int(row[1])) for row in rows] == [
        (p, q) for p, q, _ in rational_grid(5)]
    assert {row[header.index("error")] for row in rows} == {
        "FloatingPointError: the batch broke"}
    manifest = json.loads((tmp_path / "xi.csv.manifest.json").read_text())
    assert manifest["failures"] == len(rows) == 9


def _scan_lines(tmp_path, argv):
    out = tmp_path / "scan.csv"
    main(["scan", *argv, "--out", str(out)])
    return out.read_bytes().splitlines(keepends=True)


_LOG_LINES = [("2", (540, 600, 60)), ("2", (541, 600, 59)), ("1e80", (1, 8, 1)),
              ("nan", (1, 3, 1)), ("-1.5", (1, 9, 1)), ("0.37", (1, 601, 150))]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("kind, extra, lines", [
    ("validity-report", [], _LOG_LINES),
    ("f-lambda-nonpert", ["--lambda-over-j", "0"], _LOG_LINES),
    ("xi-n-vs-n", [], [("0.37", (1, 9, 1)), ("-0.6", (10, 200, 38)),
                       ("nan", (1, 3, 1)), ("-1.5", (1, 3, 1))]),
])
def test_a_line_writes_the_bytes_of_its_rows_run_one_n_at_a_time(tmp_path, kind, extra,
                                                                 lines):
    rows = {}
    for delta, (a, b, step) in lines:
        args = [kind, "--delta", delta, *extra]
        line = _scan_lines(tmp_path, [*args, "--n-range", str(a), str(b), str(step)])
        alone = [_scan_lines(tmp_path, [*args, "--n-range", str(n), str(n), "1"])
                 for n in range(a, b + 1, step)]
        assert line == [alone[0][0]] + [lines_n[1] for lines_n in alone]
        header, *data = csv.reader(text.decode("utf-8") for text in line)
        rows.update({(row["delta"], int(row["n"])): row["error"]
                     for row in (dict(zip(header, cells)) for cells in data)})
    assert rows[("nan", 1)] and all(e for (dl, _), e in rows.items() if dl == "nan")
    if kind == "xi-n-vs-n":
        assert rows[("0.37", 1)].startswith("ValueError: need n >= 2")
        assert [rows[("0.37", n)] for n in range(2, 10)] == [""] * 8
        return
    # the lines run next to the first overflowed column (J = 271 at Delta = 2,
    # J = 2 at Delta = 1e80): from n = 2 on, exactly the registered rows fail
    assert rows[("1e+80", 1)].startswith("ValueError: need ")
    assert rows[("0.37", 1)].startswith("ValueError: need ")  # the float phase alike
    assert all(bool(error) == (known_faults.fault_at(kind, delta=dl, lambda_over_j=0, n=n)
                               is not None)
               for (dl, n), error in rows.items() if dl != "nan" and n > 1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("fault", known_faults.FAULTS, ids=lambda fault: fault.name)
def test_a_scan_fails_at_exactly_its_known_faults(tmp_path, fault):
    out = tmp_path / "scan.csv"
    assert main(["scan", fault.kind, *fault.args.split(), "--out", str(out)]) == EXIT_PARTIAL
    header, *cells = read_csv(out)
    rows = [dict(zip(header, row)) for row in cells]
    faults = [known_faults.fault_at(fault.kind, **row) for row in rows]
    assert [here for here in faults if here] == [fault] * len(fault.points)
    point = {*known_faults.KEYS[fault.kind], "mu", "error"}  # the cells a failed row fills
    for row, here in zip(rows, faults):
        assert (row["error"].startswith("ArithmeticError: ") and here.error in row["error"]
                and all(row[c] == "" for c in header if c not in point)
                if here else row["error"] == "")


def test_rows_past_the_overflow_record_no_numpy_warning(tmp_path):
    # the log passes run on bands cut below the cosh^2 overflow, so no band
    # entry leaves the doubles: rows 600 and 700 fail as registered, and
    # neither records a NumPy overflow in the manifest
    out = tmp_path / "validity.csv"
    assert main(["scan", "validity-report", "--delta", "2", "--mu", "1",
                 "--n-range", "500", "700", "100", "--out", str(out)]) == EXIT_PARTIAL
    assert json.loads((tmp_path / "validity.csv.manifest.json").read_text())["warnings"] == []
    header, *cells = read_csv(out)
    rows = [dict(zip(header, row)) for row in cells]
    assert [row["n"] for row in rows] == ["500", "600", "700"] and rows[0]["error"] == ""
    for row in rows[1:]:
        fault = known_faults.fault_at("validity-report", **row)
        assert fault.error == known_faults.SINGLE_PATH
        assert row["error"].startswith("ArithmeticError: ") and fault.error in row["error"]


@pytest.mark.parametrize("kind, extra", [("validity-report", []),
                                         ("f-lambda-nonpert", ["--lambda-over-j", "0"])])
def test_leading_order_rows_are_even_in_delta(tmp_path, kind, extra):
    # the rows at -Delta are those at Delta bit for bit, their delta cell aside
    def rows(*deltas):
        out = tmp_path / "scan.csv"
        main(["scan", kind, "--delta", *deltas, *extra, "--n-range", "2", "60", "1",
              "--out", str(out)])
        header, *cells = read_csv(out)
        return [[c for c, name in zip(row, header) if name != "delta"] for row in cells]

    assert rows("0.77", "0.5", "0.17", "2") == rows("-0.77", "-0.5", "-0.17", "-2")


def test_linear_column_is_empty_past_the_double_range(tmp_path):
    # the Delta = 1.1 thresholds lie below the smallest normal double
    out = tmp_path / "validity.csv"
    code = main(["scan", "validity-report", "--delta", "0.5", "1.1",
                 "--n-range", "100", "400", "100", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    rows = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert len(rows) == 8
    for row in rows:
        log10 = float(row["threshold_log10"])
        if row["delta"] == "0.5":
            assert math.isclose(float(row["threshold"]), 10.0 ** log10, rel_tol=1e-12)
        else:
            assert log10 < math.log10(sys.float_info.min)
            assert row["threshold"] == ""


def test_chi1_nan_is_a_manifest_warning(tmp_path):
    # Delta = 0 is eta/pi = 1/2: the d = 4 truncation is defective there
    out = tmp_path / "chi.csv"
    code = main(["scan", "chi-vs-delta", "--p-max", "2", "--d-max", "4",
                 "--delta-points", "1", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    rows = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert [(r["route"], r["delta"], r["chi1"]) for r in rows[1:]] == [
        ("irrational", "0.0", "nan")]
    manifest = json.loads((tmp_path / "chi.csv.manifest.json").read_text())
    assert manifest["failures"] == 0
    assert [w["point"]["delta"] for w in manifest["warnings"]] == [0.0]
    message = manifest["warnings"][0]["message"]
    assert "Delta = 0.0" in message and "d = 4" in message
    assert "rounding bound B = " in message and "worst term k = 2" in message


def test_chi1_nan_set_of_the_d400_grid(tmp_path):
    # of the 199 irrational rows only Delta = 0 and +-0.5 (eta/pi = 1/2,
    # 1/3 and 2/3) exceed chi1's rounding bound; +-0.44, next to 82/231, do not
    out = tmp_path / "chi.csv"
    code = main(["scan", "chi-vs-delta", "--p-max", "2", "--d-max", "400",
                 "--delta-points", "199", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    rows = [dict(zip(rows[0], row)) for row in rows[1:]]
    nan = [float(r["delta"]) for r in rows if r["chi1"] == "nan"]
    assert nan == pytest.approx([-0.5, 0.0, 0.5], abs=1e-15)
    manifest = json.loads((tmp_path / "chi.csv.manifest.json").read_text())
    assert [w["point"]["delta"] for w in manifest["warnings"]] == nan
    assert all("rounding bound B = " in w["message"] for w in manifest["warnings"])


def test_manifest_times_each_row(tmp_path):
    # one wall time per data row, failed rows (n = 14, 24) included; the
    # times live in the manifest only, so the data digest stays the same
    manifests = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["scan", "f-lambda-nonpert", "--delta", "2.0",
                     "--lambda-over-j", "0.01", "--n-range", "4", "24", "10",
                     "--out", str(out)])
        assert code == EXIT_PARTIAL
        manifests.append(json.loads((tmp_path / f"{name}.manifest.json").read_text()))
    for manifest in manifests:
        assert manifest["rows"] == 3
        assert len(manifest["wall_s"]) == 3
        assert all(isinstance(t, float) and t >= 0 for t in manifest["wall_s"])
    assert manifests[0]["data_sha256"] == manifests[1]["data_sha256"]


def test_xi_n_scan_smoke(tmp_path):
    out = tmp_path / "xin.csv"
    code = main(["scan", "xi-n-vs-n", "--delta", "0.1", "--delta", "0.2", "0.3",
                 "--n-range", "20", "60", "20", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [(r[0], r[1]) for r in rows[1:]] == [
        (dl, n) for dl in ("0.1", "0.2", "0.3") for n in ("20", "40", "60")]


def test_xi_n_scan_takes_short_chains(tmp_path):
    # the float-Delta route fits no window, so every n >= 2 has a value
    out = tmp_path / "xin.csv"
    code = main(["scan", "xi-n-vs-n", "--delta", "0.3", "--n-range", "2", "10", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    rows = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert [(r["n"], r["d"], r["error"]) for r in rows] == [
        (str(n), str(n // 2), "") for n in range(2, 11, 2)]


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "scan.ini"
    cfg.write_text("[global]\n"
                   "p_max = 3\n"
                   "mu = 2.0\n"
                   "[validity-report]\n"
                   "delta = 0.5 2.0\n"
                   "mu = 0.5\n"
                   "n_range = 2 10 4\n"
                   f"out = {tmp_path / 'from_cfg.csv'}\n"
                   "[chi-vs-delta]\n"
                   "d_max = 20\n"
                   "delta_points = 2\n"
                   f"out = {tmp_path / 'chi.csv'}\n")
    # [global] may set options the kind does not read (p_max here)
    code = main(["scan", "validity-report", "--config", str(cfg)])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "from_cfg.csv")
    assert len(rows) == 1 + 2 * 3
    assert {row[rows[0].index("mu")] for row in rows[1:]} == {"0.5"}
    # chi-vs-delta reads p_max from [global], d_max and delta_points from its section
    assert main(["scan", "chi-vs-delta", "--config", str(cfg)]) == EXIT_OK
    chi_rows = read_csv(tmp_path / "chi.csv")
    chi = [dict(zip(chi_rows[0], row)) for row in chi_rows[1:]]
    assert [(r["route"], r["p"], r["d"]) for r in chi] == [
        ("rational", "2", "1"), ("rational", "3", "2"), ("rational", "3", "2"),
        ("irrational", "", "20"), ("irrational", "", "20")]
    # CLI flag wins over the config value
    out2 = tmp_path / "cli_wins.csv"
    code = main(["scan", "validity-report", "--config", str(cfg),
                 "--out", str(out2), "--delta", "0.5"])
    assert code == EXIT_OK
    assert len(read_csv(out2)) == 1 + 3
    # the [kind] section is read in full: a key the kind does not read is bad
    # usage, as is a file that INI cannot parse
    for text in ("[validity-report]\np_max = 3\n", "mu = 0.5\n", "[validity-report]\nmu\n"):
        cfg.write_text(text)
        assert main(["scan", "validity-report", "--config", str(cfg),
                     "--out", str(tmp_path / "never.csv")]) == EXIT_USAGE, text


def test_chi_scan_rational_vs_irrational_overlap(tmp_path):
    out = tmp_path / "chi.csv"
    code = main(["scan", "chi-vs-delta", "--p-max", "40", "--d-max", "200",
                 "--delta-points", "9", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_csv(out)
    header = rows[0]
    cols = {name: header.index(name) for name in ("route", "p", "delta", "chi")}
    rational = {}
    irrational = []
    for row in rows[1:]:
        if row[cols["route"]] == "rational":
            rational[float(row[cols["delta"]])] = (int(row[cols["p"]]),
                                                   float(row[cols["chi"]]))
        else:
            irrational.append((float(row[cols["delta"]]),
                               float(row[cols["chi"]])))
    # irrational-curve comparison: large-p rational points sit on it,
    # small denominators spike away from it
    def chi_irr(delta):
        return 0.5 / (1 - delta ** 2) * 200 / 201

    spikes, agree = [], []
    for delta, (p, chi) in rational.items():
        rel = abs(chi - chi_irr(delta)) / chi_irr(delta)
        (spikes if p <= 4 else agree).append((p, rel))
    assert max(rel for _, rel in spikes) > 0.1
    assert np.median([rel for _, rel in agree]) < 0.05
