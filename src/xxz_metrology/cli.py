"""Command-line driver for the parameter scans behind the paper-style figures.

Every scan is deterministic: the same spec produces byte-identical data
files.  Values that may overflow a float are serialized as
(sign, log10) column pairs next to a linear column that is left empty
when unrepresentable.  A JSON manifest (spec echo, version, failure
count, content digest) is written next to each output file; wall-clock
information lives only in the manifest so it never perturbs the data
digest.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model import ChainParams, DENSE_CAP, eta_from_delta
from .mpo import _log_threshold, hs_norm_sq_via_transfer
from .fisher import qfi_parametric
from .transfer import (bracket_series, chi_coefficient, defect_series,
                       f0_x, isotropic_bracket_series, isotropic_f_delta,
                       second_eta_derivative_bracket, xi_coefficient)

SCAN_KINDS = ("chi-vs-delta", "xi-vs-eta-rational", "xi-n-vs-n",
              "f-lambda-nonpert", "validity-report", "isotropic-check")

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64

_LOG10_MAX = math.log10(sys.float_info.max)


class UsageError(Exception):
    pass


@dataclass
class ScanSpec:
    kind: str
    options: dict = field(default_factory=dict)
    out: str = "scan.csv"
    fmt: str = "csv"
    workers: int = 1


def rational_grid(p_max: int, q_max: int | None = None) -> list[tuple[int, int, float]]:
    """All coprime (p, q) with 0 < q/p < 1, p <= p_max, q <= q_max."""
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    if q_max is None:
        q_max = p_max
    out = []
    for p in range(2, p_max + 1):
        for q in range(1, min(p, q_max + 1)):
            if math.gcd(p, q) == 1:
                out.append((p, q, math.cos(q * math.pi / p)))
    return out


def _log10_cols(sign: float, log_e: float) -> tuple[str, str, str]:
    """(linear, sign, log10) serialization of a signed log-domain value."""
    if sign == 0.0:
        return "0", "0", ""
    log10 = log_e / math.log(10.0)
    linear = ""
    if log10 < _LOG10_MAX:
        linear = repr(sign * 10.0 ** log10)
    return linear, repr(float(sign)), repr(log10)


# --- grid-point evaluators (top level so a process pool can pickle them) ---

def _eval_chi(point):
    route, p, q, delta, d = point
    if route == "rational":
        chi, chi1 = chi_coefficient(delta, rational_eta=(p, q))
    else:
        chi, chi1 = chi_coefficient(delta, d_max=d)
    return {"route": route, "p": p, "q": q, "delta": delta, "d": d,
            "chi": chi, "chi1": chi1}


def _eval_xi_rational(point):
    p, q, delta, n = point
    xi, diag = xi_coefficient(delta, n, rational_eta=(p, q),
                              return_diagnostics=True)
    return {"p": p, "q": q, "eta_over_pi": q / p, "delta": delta,
            "d": diag["d"], "xi": xi, "xi1": diag["xi1"],
            "chi_dd": diag["chi_dd"], "fit_r2": diag["r2"],
            "window_start": n}


def _eval_xi_n(point):
    delta, n = point
    xi, diag = xi_coefficient(delta, n, return_diagnostics=True)
    return {"delta": delta, "n": n, "d": diag["d"], "xi": xi, "xi_n": xi * n,
            "sum_defect": diag["sum_defect"], "d2_bracket": diag["d2_bracket"]}


def _eval_flambda(point):
    delta, lam_over_j, n = point
    if lam_over_j == 0.0:
        params = ChainParams(n=n, j_coupling=1.0, delta=delta, lam=1.0, mu=1.0)
        est = f0_x(params, "lambda")
        sign = 1.0 if est.value != 0 or est.log_value != -math.inf else 0.0
        linear, s, l10 = _log10_cols(sign, est.log_value)
        return {"delta": delta, "lambda_over_j": 0.0, "n": n,
                "method": "leading-order", "epsilon": "",
                "j2_f_lambda": linear, "f_sign": s, "f_log10": l10}
    if n > DENSE_CAP:
        raise ValueError(f"dense route capped at n <= {DENSE_CAP}")
    params = ChainParams(n=n, j_coupling=1.0, delta=delta, lam=lam_over_j, mu=1.0)
    est = qfi_parametric(params, "lambda", state_builder="mu1")
    linear, s, l10 = _log10_cols(1.0 if est.value > 0 else 0.0,
                                 est.log_value if est.log_value is not None else -math.inf)
    return {"delta": delta, "lambda_over_j": lam_over_j, "n": n,
            "method": "exact-dense", "epsilon": lam_over_j,
            "j2_f_lambda": linear, "f_sign": s, "f_log10": l10}


def _eval_validity(point):
    delta, n, mu = point
    eta = eta_from_delta(delta)
    log_norm = hs_norm_sq_via_transfer(n, eta, log=True)
    log_thr = _log_threshold(n, mu, log_norm)
    thr_lin, thr_sign, thr_l10 = _log10_cols(1.0, log_thr)
    return {"n": n, "delta": delta, "mu": mu,
            "threshold": thr_lin, "threshold_log10": thr_l10,
            "hs_norm_sq_log10": repr(log_norm / math.log(10.0))}


def _eval_isotropic(point):
    (n,) = point
    eta_small = 1e-4
    b0 = float(bracket_series(n, 0.0)[n])
    formula = n * (n - 1) / 8
    b_small = float(bracket_series(n, eta_small)[n])
    series = isotropic_bracket_series(n, eta_small)
    params = ChainParams(n=n, j_coupling=1.0, delta=math.cos(eta_small),
                         lam=1.0, mu=1.0)
    f_iso = isotropic_f_delta(params)
    # exact leading-order F_Delta at the same small eta, from the defect sum
    sd = float(defect_series(n, eta_small)[n])
    d2 = second_eta_derivative_bracket(n, eta_small)
    f_exact = (sd + 0.25 * d2) / (2 * abs(1 - params.delta ** 2))
    return {"n": n, "bracket_eta0": b0, "bracket_formula": formula,
            "bracket_small_eta": b_small, "series_small_eta": series,
            "rel_diff_bracket": abs(b_small - series) / abs(b_small),
            "f_delta_exact": f_exact, "f_delta_series": f_iso,
            "rel_diff_f": abs(f_exact - f_iso) / abs(f_exact)}


_HEADERS = {
    "chi-vs-delta": ["route", "p", "q", "delta", "d", "chi", "chi1"],
    "xi-vs-eta-rational": ["p", "q", "eta_over_pi", "delta", "d", "xi", "xi1",
                           "chi_dd", "fit_r2", "window_start"],
    "xi-n-vs-n": ["delta", "n", "d", "xi", "xi_n", "sum_defect", "d2_bracket"],
    "f-lambda-nonpert": ["delta", "lambda_over_j", "n", "method", "epsilon",
                         "j2_f_lambda", "f_sign", "f_log10"],
    "validity-report": ["n", "delta", "mu", "threshold", "threshold_log10",
                        "hs_norm_sq_log10"],
    "isotropic-check": ["n", "bracket_eta0", "bracket_formula",
                        "bracket_small_eta", "series_small_eta",
                        "rel_diff_bracket", "f_delta_exact", "f_delta_series",
                        "rel_diff_f"],
}


# the columns that name a grid point, in the order of its tuple
_POINT_COLUMNS = {
    "chi-vs-delta": ["route", "p", "q", "delta", "d"],
    "xi-vs-eta-rational": ["p", "q", "delta", "window_start"],
    "xi-n-vs-n": ["delta", "n"],
    "f-lambda-nonpert": ["delta", "lambda_over_j", "n"],
    "validity-report": ["delta", "n", "mu"],
    "isotropic-check": ["n"],
}


def _grid_for(spec: ScanSpec):
    """(evaluator, list of grid points) for a scan spec."""
    o = spec.options
    kind = spec.kind
    if kind == "chi-vs-delta":
        pts = [("rational", p, q, dl, abs(p) - 1)
               for p, q, dl in rational_grid(o["p_max"], o.get("q_max"))]
        deltas = np.linspace(-1.0, 1.0, o.get("delta_points", 199) + 2)[1:-1]
        pts += [("irrational", "", "", float(dl), o.get("d_max", 400)) for dl in deltas]
        return _eval_chi, pts
    if kind == "xi-vs-eta-rational":
        grid = rational_grid(o["p_max"], o.get("q_max"))
        return _eval_xi_rational, [(p, q, dl, o.get("n_window") or max(100, 20 * (p - 1)))
                                   for p, q, dl in grid]
    if kind == "xi-n-vs-n":
        ns = o["n_grid"]
        return _eval_xi_n, [(dl, int(n)) for dl in o["deltas"] for n in ns]
    if kind == "f-lambda-nonpert":
        return _eval_flambda, [(dl, lj, int(n)) for dl in o["deltas"]
                               for lj in o["lambdas"] for n in o["n_grid"]]
    if kind == "validity-report":
        return _eval_validity, [(dl, int(n), o["mu"]) for dl in o["deltas"]
                                for n in o["n_grid"]]
    if kind == "isotropic-check":
        return _eval_isotropic, [(int(n),) for n in o["n_grid"]]
    raise UsageError(f"unknown scan kind {kind!r}")


def run_scan(spec: ScanSpec) -> dict:
    """Execute a scan, write the data file and its manifest.

    Returns a summary dict with row/failure counts and the digest.
    Failed grid points are kept as rows with an ``error`` column so the
    run stays reproducible and the caller can exit with code 2.
    """
    evaluator, points = _grid_for(spec)
    t0 = time.monotonic()
    results: list[dict] = [None] * len(points)
    guarded = _guard(evaluator, _POINT_COLUMNS[spec.kind])
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            for i, res in enumerate(pool.map(guarded, points, chunksize=8)):
                results[i] = res
    else:
        for i, pt in enumerate(points):
            results[i] = guarded(pt)
    failures = sum(1 for r in results if r.get("error"))
    header = list(_HEADERS[spec.kind]) + ["error"]
    _write_rows(spec, header, results)
    digest = _digest_file(spec.out)
    manifest = emit_manifest(spec, digest, rows=len(results), failures=failures,
                             wall_time_s=time.monotonic() - t0)
    return {"rows": len(results), "failures": failures, "digest": digest,
            "out": spec.out, "manifest": manifest}


class _guard:
    """Wrap an evaluator so grid-point failures become rows naming the point."""

    def __init__(self, fn, columns):
        self.fn = fn
        self.columns = columns

    def __call__(self, point):
        try:
            row = self.fn(point)
            row.setdefault("error", "")
            return row
        except Exception as exc:  # noqa: BLE001 - failure markers by design
            row = dict(zip(self.columns, point))
            row["error"] = f"{type(exc).__name__}: {exc}"
            return row


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_rows(spec: ScanSpec, header: list[str], rows: list[dict]):
    if spec.fmt == "csv":
        with open(spec.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(row.get(col, "")) for col in header])
    elif spec.fmt == "json":
        payload = [{col: row.get(col, "") for col in header} for row in rows]
        with open(spec.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=_format_cell)
            fh.write("\n")
    else:
        raise UsageError(f"unknown format {spec.fmt!r}")


def _digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def emit_manifest(spec: ScanSpec, digest: str, rows: int, failures: int,
                  wall_time_s: float) -> str:
    """Write the JSON manifest next to the data file; returns its path."""
    path = spec.out + ".manifest.json"
    body = {
        "tool": "xxz-metrology",
        "version": __version__,
        "scan": spec.kind,
        "spec": {"options": _jsonable(spec.options), "out": spec.out,
                 "format": spec.fmt, "workers": spec.workers},
        "rows": rows,
        "failures": failures,
        "data_sha256": digest,
        "wall_time_s": wall_time_s,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1)
        fh.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


# --- argument handling ---

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="xxz-metrology",
                     description="Parameter scans for boundary-driven XXZ "
                                 "steady-state metrology")
    sub = parser.add_subparsers(dest="command")
    scan = sub.add_parser("scan", description="run a parameter scan")
    scan.add_argument("kind", choices=SCAN_KINDS)
    scan.add_argument("--config", help="INI file with per-scan sections")
    scan.add_argument("--n-range", nargs=3, type=int, metavar=("A", "B", "STEP"),
                      help="chain lengths a..b in steps")
    scan.add_argument("--n-log-points", type=int, default=None,
                      help="log-spaced n grid size (xi-n-vs-n default: 24 "
                           "points over [10, 10^4])")
    scan.add_argument("--delta", type=float, action="append", default=None,
                      help="anisotropy value; repeatable (irrational pathway)")
    scan.add_argument("--lambda-over-j", type=float, nargs="+", default=None,
                      help="coupling ratios; 0 selects the leading order")
    scan.add_argument("--mu", type=float, default=1.0)
    scan.add_argument("--p-max", type=int, default=None)
    scan.add_argument("--q-max", type=int, default=None)
    scan.add_argument("--d-max", type=int, default=400,
                      help="truncation for irrational-pathway chi")
    scan.add_argument("--delta-points", type=int, default=199,
                      help="irrational-pathway grid size for chi-vs-delta")
    scan.add_argument("--n-window", type=int, default=None,
                      help="window start for rational xi slope fits")
    scan.add_argument("--format", choices=("csv", "json"), default=None)
    scan.add_argument("--out", default=None)
    scan.add_argument("--workers", type=int, default=None)
    return parser


_CONFIG_KEYS = {
    "p_max": int, "q_max": int, "d_max": int, "delta_points": int,
    "n_window": int, "workers": int, "mu": float, "format": str, "out": str,
    "n_log_points": int,
}


def _load_config(path: str, kind: str) -> dict:
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found")
    merged: dict = {}
    for section in ("global", kind):
        if cfg.has_section(section):
            for key, raw in cfg.items(section):
                key = key.replace("-", "_")
                if key in _CONFIG_KEYS:
                    merged[key] = _CONFIG_KEYS[key](raw)
                elif key in ("delta", "lambda_over_j"):
                    merged[key] = [float(tok) for tok in raw.split()]
                elif key == "n_range":
                    merged[key] = [int(tok) for tok in raw.split()]
                else:
                    raise UsageError(f"unknown config key {key!r} in [{section}]")
    return merged


def _n_grid(args_nrange, n_log_points, default_range=(10, 10_000)):
    if args_nrange:
        a, b, step = args_nrange
        if step <= 0 or b < a:
            raise UsageError("--n-range needs a <= b and step > 0")
        return list(range(a, b + 1, step))
    pts = n_log_points or 24
    grid = np.unique(np.round(np.logspace(math.log10(default_range[0]),
                                          math.log10(default_range[1]),
                                          pts)).astype(int))
    return [int(n) for n in grid]


def _spec_from_args(args) -> ScanSpec:
    kind = args.kind
    cfg = _load_config(args.config, kind) if args.config else {}

    def pick(name, default=None):
        val = getattr(args, name, None)
        if val is None:
            val = cfg.get(name, default)
        return val

    options: dict = {}
    if kind == "chi-vs-delta":
        options["p_max"] = int(pick("p_max") or 50)
        if pick("q_max") is not None:
            options["q_max"] = int(pick("q_max"))
        options["d_max"] = int(pick("d_max", 400))
        options["delta_points"] = int(pick("delta_points", 199))
    elif kind == "xi-vs-eta-rational":
        options["p_max"] = int(pick("p_max") or 30)
        if pick("q_max") is not None:
            options["q_max"] = int(pick("q_max"))
        if pick("n_window") is not None:
            options["n_window"] = int(pick("n_window"))
    elif kind == "xi-n-vs-n":
        options["deltas"] = pick("delta") or [0.1]
        options["n_grid"] = _n_grid(pick("n_range"), pick("n_log_points"))
    elif kind == "f-lambda-nonpert":
        options["deltas"] = pick("delta") or [2.0, 10.0, 100.0]
        options["lambdas"] = pick("lambda_over_j") or [0.0, 1e-3, 1e-2]
        nr = pick("n_range") or (2, 10, 1)
        options["n_grid"] = list(range(int(nr[0]), int(nr[1]) + 1, int(nr[2])))
    elif kind == "validity-report":
        options["deltas"] = pick("delta") or [0.5, 1.0, 2.0]
        options["mu"] = float(pick("mu", 1.0) or 1.0)
        nr = pick("n_range") or (2, 50, 2)
        options["n_grid"] = list(range(int(nr[0]), int(nr[1]) + 1, int(nr[2])))
    elif kind == "isotropic-check":
        nr = pick("n_range") or (3, 200, 7)
        options["n_grid"] = list(range(int(nr[0]), int(nr[1]) + 1, int(nr[2])))
    else:
        raise UsageError(f"unknown scan kind {kind!r}")
    out = pick("out") or f"{kind}.{pick('format') or 'csv'}"
    return ScanSpec(kind=kind, options=options, out=out,
                    fmt=pick("format") or "csv",
                    workers=int(pick("workers") or 1))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "scan":
            raise UsageError("expected the 'scan' command")
        spec = _spec_from_args(args)
        summary = run_scan(spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {summary['rows']} rows to {summary['out']} "
          f"({summary['failures']} failures); sha256 {summary['digest'][:16]}...")
    return EXIT_PARTIAL if summary["failures"] else EXIT_OK


def cli_entry():  # entry point for the console script
    raise SystemExit(main())
