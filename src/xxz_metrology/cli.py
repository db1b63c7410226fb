"""Command-line driver for the parameter scans behind the paper-style figures.

Every scan is deterministic: the same spec produces byte-identical data
files.  Values that may leave the double range are serialized as
(sign, log10) column pairs next to a linear column that is left empty
when the value is too large or too small to be a normal double.  A JSON
manifest (spec echo, version, failure count, content digest, the
warnings raised at each grid point, the wall time of each row, the
numeric environment) is
written next to each output file; wall-clock information lives only in
the manifest so it never perturbs the data digest.

Each scan kind is declared once, in ``_KINDS``: its data columns, its
evaluator, its grid and the options it reads with their defaults.  A
grid is a list of lines whose rows share their jet passes: runs of
points that differ only in n (``transfer.LinePasses``), so a curve in n
costs one propagation, and the whole rational xi grid, one batched pass
over every (p, q) (``transfer.rational_defects``), built in the line's
first row.  A pool maps lines, so it does not split that scan.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import __version__
from .model import ChainParams, eta_from_delta
from .mpo import _log_threshold, hs_norm_sq_via_transfer
from .fisher import qfi_parametric
from .lindblad import ness_mu1
from .transfer import (LinePasses, bracket_LTnR, chi_coefficient, defect_series, f0_x,
                       isotropic_bracket_series, isotropic_f_delta, rational_defects,
                       second_eta_derivative_bracket, xi_coefficient, xi_coefficient_rational,
                       xi_from_brackets)

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64

_LOG10_MIN = math.log10(sys.float_info.min)
_LOG10_MAX = math.log10(sys.float_info.max)


class UsageError(Exception):
    pass


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


@dataclass
class ScanSpec:
    """One scan.  ``options`` is keyed by flag name (``n_range`` for ``--n-range``)
    and the kind's defaults fill in the rest.  An option the kind does not
    read, or a value no grid can be built from, raises UsageError."""

    kind: str
    options: dict = field(default_factory=dict)
    out: str | None = None  # default: <kind>.<fmt>
    fmt: str = "csv"
    workers: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UsageError(f"unknown scan kind {self.kind!r}")
        o = {key: value for key, value in self.options.items() if value is not None}
        unread = [_flag(key) for key in o if key not in _KINDS[self.kind].defaults]
        least = {"n_log_points": 1, "p_max": 2, "q_max": 1, "d_max": 1, "delta_points": 0,
                 "n_window": 8}
        low = [f"{_flag(k)} must be >= {m}" for k, m in least.items() if o.get(k, m) < m]
        a, b, step = o.get("n_range") or (1, 1, 1)
        for failed, message in (
                (unread, f"{self.kind} does not read {', '.join(unread)}"),
                (low, "; ".join(low)),
                (step <= 0 or b < a, "--n-range needs a <= b and step > 0"),
                ("n_range" in o and "n_log_points" in o,
                 "--n-log-points and --n-range exclude each other"),
                (self.workers < 1, "--workers must be >= 1"),
                (not os.path.isdir(os.path.dirname(self.out or "") or "."),
                 f"the directory of --out {self.out!r} does not exist"),
                (self.fmt not in ("csv", "json"), f"unknown format {self.fmt!r}")):
            if failed:
                raise UsageError(message)
        self.options = {**_KINDS[self.kind].defaults, **o}
        if self.out is None:
            self.out = f"{self.kind}.{self.fmt}"


def rational_grid(p_max: int, q_max: int | None = None) -> list[tuple[int, int, float]]:
    """All coprime (p, q) with 0 < q/p < 1, p <= p_max, q <= q_max."""
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    q_max = p_max if q_max is None else q_max
    return [(p, q, math.cos(q * math.pi / p)) for p in range(2, p_max + 1)
            for q in range(1, min(p, q_max + 1)) if math.gcd(p, q) == 1]


def _log10_cols(sign: float, log_e: float) -> tuple[str, str, str]:
    """(linear, sign, log10) serialization of a signed log-domain value.

    The linear cell is empty unless the value is a normal double.
    """
    if sign == 0.0:
        return "0", "0", ""
    log10 = log_e / math.log(10.0)
    linear = repr(sign * 10.0 ** log10) if _LOG10_MIN <= log10 < _LOG10_MAX else ""
    return linear, repr(float(sign)), repr(log10)


# --- grid-point evaluators: a grid point's keys are their keyword arguments,
# after the passes its line shares; they return the other columns of its
# row (top level, so a pool can pickle them)

def _eval_chi(passes, route, p, q, delta, d):
    del passes, route, p, q  # a line of one point; a rational row has d = p - 1
    return chi_coefficient(delta, d)._asdict()


def _eval_xi_rational(passes, p, q, delta, window_start):
    del delta  # it follows from (p, q)
    return xi_coefficient_rational(p, q, window_start, passes[p, q])._asdict()


def _eval_xi_n(passes, delta, n):
    return xi_coefficient(delta, n, passes)._asdict()


def _eval_flambda(passes, delta, lambda_over_j, n):
    if lambda_over_j == 0.0:
        params = ChainParams(n=n, j_coupling=1.0, delta=delta, lam=1.0, mu=1.0)
        est, epsilon = f0_x(params, "lambda", passes), ""
    else:
        params = ChainParams(n=n, j_coupling=1.0, delta=delta, lam=lambda_over_j, mu=1.0)
        # ness_mu1 is looked up at each call, so a wrapper installed on it sees the builds
        est = qfi_parametric(params, "lambda", lambda p: ness_mu1(p, p.lam / p.j_coupling))
        epsilon = lambda_over_j
    linear, sign, log10 = _log10_cols(float(est.log_value > -math.inf), est.log_value)
    if sys.float_info.min <= est.value <= sys.float_info.max:
        linear = repr(est.value)  # the computed F, not its round trip through log10
    return {"method": est.method, "epsilon": epsilon,
            "j2_f_lambda": linear, "f_sign": sign, "f_log10": log10}


def _eval_validity(passes, delta, n, mu):
    eta = eta_from_delta(abs(delta))  # one t for +-Delta, bit for bit
    log_norm = hs_norm_sq_via_transfer(n, eta, passes).log
    log_thr = _log_threshold(n, mu, log_norm)
    thr_lin, thr_sign, thr_l10 = _log10_cols(1.0, log_thr)
    return {"threshold": thr_lin, "threshold_log10": thr_l10,
            "hs_norm_sq_log10": repr(log_norm / math.log(10.0))}


def _eval_isotropic(passes, n):
    del passes  # a line of one point: its four propagations are its own
    eta_small = 1e-4
    b0 = bracket_LTnR(n, 0.0)
    formula = n * (n - 1) / 8
    b_small = bracket_LTnR(n, eta_small)
    series = isotropic_bracket_series(n, eta_small)
    params = ChainParams(n=n, j_coupling=1.0, delta=math.cos(eta_small),
                         lam=1.0, mu=1.0)
    f_iso = isotropic_f_delta(params)
    # exact leading-order F_Delta at the same small eta, from the defect sum
    f_exact = xi_from_brackets(defect_series(n, eta_small)[n],
                               second_eta_derivative_bracket(n, eta_small)[n], params.delta, 1)
    return {"bracket_eta0": b0, "bracket_formula": formula,
            "bracket_small_eta": b_small, "series_small_eta": series,
            "rel_diff_bracket": abs(b_small - series) / abs(b_small),
            "f_delta_exact": f_exact, "f_delta_series": f_iso,
            # F_Delta is exactly 0 (of either sign) in both columns at n = 2
            "rel_diff_f": (0.0 if f_exact == f_iso
                           else abs(f_exact - f_iso) / abs(f_exact))}


def _n_range(o):
    a, b, step = o["n_range"]
    return range(a, b + 1, step)


def _xi_n_grid(o):
    if o["n_range"] is not None:
        ns = _n_range(o)
    else:  # log-spaced over [10, 10^4]
        k = o["n_log_points"]
        ns = np.unique(np.round(np.logspace(1.0, 4.0, k)).astype(int))
        if ns.size < k:  # from K = 94 on, neighbours round to one n
            raise UsageError(f"--n-log-points {k} rounds to only {ns.size} distinct n "
                             "over [10, 10^4]")
    return [[{"delta": dl, "n": int(n)} for n in ns] for dl in o["delta"]]


def _flambda_grid(o):
    lines = []
    for dl in o["delta"]:
        for lj in o["lambda_over_j"]:
            line = [{"delta": dl, "lambda_over_j": lj, "n": n} for n in _n_range(o)]
            # only the leading order shares a pass; exact rows run alone
            lines += [line] if lj == 0.0 else [[point] for point in line]
    return lines


def _line_passes(line):
    del line  # LinePasses learns its passes from the rows
    return LinePasses()


def _rational_passes(line):
    return rational_defects([(pt["p"], pt["q"], pt["window_start"]) for pt in line])


@dataclass(frozen=True)
class _Kind:
    header: tuple[str, ...]   # data columns; an "error" column follows
    evaluate: Callable        # (line's passes, grid point) -> the other columns of its row
    grid: Callable            # options -> lines of grid points
    defaults: dict            # every option the kind reads, with its default
    passes: Callable = _line_passes  # line -> the passes its rows share


_KINDS = {
    "chi-vs-delta": _Kind(
        header=("route", "p", "q", "delta", "d", "chi", "chi1"),
        evaluate=_eval_chi,
        grid=lambda o: (
            [[{"route": "rational", "p": p, "q": q, "delta": dl, "d": p - 1}]
             for p, q, dl in rational_grid(o["p_max"], o["q_max"])]
            + [[{"route": "irrational", "p": "", "q": "", "delta": float(dl),
                 "d": o["d_max"]}]
               for dl in np.linspace(-1.0, 1.0, o["delta_points"] + 2)[1:-1]]),
        defaults={"p_max": 50, "q_max": None, "d_max": 400, "delta_points": 199}),
    "xi-vs-eta-rational": _Kind(
        header=("p", "q", "eta_over_pi", "delta", "d", "xi", "xi1", "chi_dd",
                "fit_r2", "window_start"),
        evaluate=_eval_xi_rational,
        # one line: a single batched pass; without --n-window each p starts
        # its fit window at max(100, 20 (p - 1))
        grid=lambda o: [[
            {"p": p, "q": q, "delta": dl, "window_start": max(100, 20 * (p - 1))
             if o["n_window"] is None else o["n_window"]}
            for p, q, dl in rational_grid(o["p_max"], o["q_max"])]],
        defaults={"p_max": 30, "q_max": None, "n_window": None},
        passes=_rational_passes),
    "xi-n-vs-n": _Kind(
        header=("delta", "n", "d", "xi", "xi_n", "sum_defect", "d2_bracket"),
        evaluate=_eval_xi_n, grid=_xi_n_grid,
        defaults={"delta": (0.1,), "n_range": None, "n_log_points": 24}),
    "f-lambda-nonpert": _Kind(
        header=("delta", "lambda_over_j", "n", "method", "epsilon", "j2_f_lambda",
                "f_sign", "f_log10"),
        evaluate=_eval_flambda, grid=_flambda_grid,
        defaults={"delta": (2.0, 10.0, 100.0), "lambda_over_j": (0.0, 1e-3, 1e-2),
                  "n_range": (2, 10, 1)}),
    "validity-report": _Kind(
        header=("n", "delta", "mu", "threshold", "threshold_log10", "hs_norm_sq_log10"),
        evaluate=_eval_validity,
        grid=lambda o: [[{"delta": dl, "n": n, "mu": o["mu"]} for n in _n_range(o)]
                        for dl in o["delta"]],
        defaults={"delta": (0.5, 1.0, 2.0), "mu": 1.0, "n_range": (2, 50, 2)}),
    "isotropic-check": _Kind(
        header=("n", "bracket_eta0", "bracket_formula", "bracket_small_eta",
                "series_small_eta", "rel_diff_bracket", "f_delta_exact",
                "f_delta_series", "rel_diff_f"),
        evaluate=_eval_isotropic,
        grid=lambda o: [[{"n": n}] for n in _n_range(o)],
        defaults={"n_range": (3, 200, 7)}),
}

SCAN_KINDS = tuple(_KINDS)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@lru_cache(maxsize=1)
def _blas() -> dict | None:
    """Name and version of the BLAS NumPy was built with, None where NumPy
    does not say (``show_config(mode="dicts")`` needs NumPy >= 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _environment() -> dict:
    """What exact rows depend on besides the spec: at n >= 9 they move in
    the last bits with the BLAS library and its thread count."""
    return {"numpy": np.__version__, "blas": _blas(),
            "threads": {var: os.environ.get(var) for var in _THREAD_VARS}}


def run_scan(spec: ScanSpec) -> dict:
    """Execute a scan, write the data file and its manifest.

    Returns a summary dict with row/failure counts and the digest.
    Failed grid points are kept as rows with an ``error`` column so the
    run stays reproducible and the caller can exit with code 2.
    """
    kind = _KINDS[spec.kind]
    lines = kind.grid(spec.options)
    t0 = time.monotonic()
    guarded = _guard(kind.evaluate, kind.passes)
    if spec.workers > 1:
        # imported here: it loads multiprocessing, which one worker never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            done = list(pool.map(guarded, lines))
    else:
        done = [guarded(line) for line in lines]
    points = [point for line in lines for point in line]
    outcomes = [outcome for line in done for outcome in line]
    rows = [row for row, _, _ in outcomes]
    failures = sum(1 for row in rows if row["error"])
    _write_rows(spec, [*kind.header, "error"], rows)
    digest = _digest_file(spec.out)
    manifest = spec.out + ".manifest.json"
    body = {
        "tool": "xxz-metrology",
        "version": __version__,
        "scan": spec.kind,
        "spec": {"options": spec.options, "out": spec.out,
                 "format": spec.fmt, "workers": spec.workers},
        "rows": len(rows),
        "failures": failures,
        "warnings": [{"point": point, "message": message}
                     for point, (_, messages, _) in zip(points, outcomes)
                     for message in messages],
        "wall_s": [seconds for _, _, seconds in outcomes],
        "data_sha256": digest,
        "wall_time_s": time.monotonic() - t0,
        "environment": _environment(),
    }
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(body), fh, indent=1, allow_nan=False)
        fh.write("\n")
    return {"rows": len(rows), "failures": failures, "digest": digest,
            "out": spec.out, "manifest": manifest}


class _guard:
    """Evaluate one line; returns, for each of its grid points in line
    order, (row, messages of the warnings raised, seconds taken).

    The points run from the largest n down and share the passes of the
    kind (a LinePasses, or the rational line's one batched pass), built
    in the first row, so a pass runs, is timed and raises its warnings
    and its failure in the first row that asks for it.  A failure becomes
    a row that names its grid point and carries the error.  Warnings are
    caught here, so pool workers report them too.
    """

    def __init__(self, evaluate, passes):
        self.evaluate, self.passes = evaluate, passes

    def __call__(self, line):
        passes, outcomes = None, [None] * len(line)
        for i in sorted(range(len(line)), key=lambda i: line[i].get("n", 0), reverse=True):
            point = line[i]
            t0 = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")  # each message once per place
                try:
                    passes = self.passes(line) if passes is None else passes
                    row = {**point, **self.evaluate(passes, **point), "error": ""}
                except Exception as exc:  # noqa: BLE001 - failure markers by design
                    row = {**point, "error": f"{type(exc).__name__}: {exc}"}
            outcomes[i] = (row, [str(w.message) for w in caught], time.perf_counter() - t0)
        return outcomes


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _strict_json(value):
    """value with each non-finite float as the string the CSV writer gives
    it ("nan", "inf", "-inf"): JSON (RFC 8259) has no such numbers."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return _format_cell(value)
    return value


def _write_rows(spec: ScanSpec, header: list[str], rows: list[dict]):
    if spec.fmt == "csv":
        with open(spec.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(row.get(col, "")) for col in header])
    else:
        payload = [{col: row.get(col, "") for col in header} for row in rows]
        with open(spec.out, "w", encoding="utf-8") as fh:
            json.dump(_strict_json(payload), fh, indent=1, allow_nan=False,
                      default=_format_cell)
            fh.write("\n")


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- argument handling ---

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="xxz-metrology",
                     description="Parameter scans for boundary-driven XXZ "
                                 "steady-state metrology")
    sub = parser.add_subparsers(dest="command", required=True)
    scan = sub.add_parser("scan", description="run a parameter scan")
    scan.add_argument("kind", choices=SCAN_KINDS)
    scan.add_argument("--config", help="INI file: a [global] section and one "
                                       "section per scan kind, of flag = value lines")
    scan.add_argument("--n-range", nargs=3, type=int, metavar=("A", "B", "STEP"),
                      help="chain lengths a..b in steps")
    scan.add_argument("--n-log-points", type=int,
                      help="xi-n-vs-n without --n-range: log-spaced n grid "
                           "size over [10, 10^4]")
    scan.add_argument("--delta", type=float, nargs="+", action="extend",
                      help="anisotropy values; repeatable (irrational pathway)")
    scan.add_argument("--lambda-over-j", type=float, nargs="+", action="extend",
                      help="coupling ratios; 0 selects the leading order")
    scan.add_argument("--mu", type=float)
    scan.add_argument("--p-max", type=int)
    scan.add_argument("--q-max", type=int)
    scan.add_argument("--d-max", type=int,
                      help="truncation for irrational-pathway chi")
    scan.add_argument("--delta-points", type=int,
                      help="irrational-pathway grid size for chi-vs-delta")
    scan.add_argument("--n-window", type=int,
                      help="window start for rational xi slope fits")
    scan.add_argument("--format", choices=("csv", "json"))
    scan.add_argument("--out")
    scan.add_argument("--workers", type=int)
    return parser


# flags that set a ScanSpec field rather than an option of the kind
_SPEC_FIELDS = {"out": "out", "format": "fmt", "workers": "workers"}


def _given(args: argparse.Namespace) -> dict:
    return {key: value for key, value in vars(args).items()
            if value is not None and key not in ("command", "kind")}


def _spec_from_args(args) -> ScanSpec:
    """Flags from the command line, else from the [kind] section of the
    --config file, else from its [global] section."""
    given = _given(args)
    if given.pop("config", None):
        cfg = configparser.ConfigParser()
        try:
            if not cfg.read(args.config):
                raise UsageError(f"config file {args.config!r} not found")
        except configparser.Error as exc:
            raise UsageError(f"config file {args.config!r}: {exc}") from None
        reads = {*_KINDS[args.kind].defaults, *_SPEC_FIELDS}
        for name in (args.kind, "global"):
            items = cfg.items(name) if cfg.has_section(name) else []
            tokens = [tok for key, raw in items for tok in (_flag(key), *raw.split())]
            try:
                section = _given(_build_parser().parse_args(["scan", args.kind, *tokens]))
            except UsageError as exc:
                raise UsageError(f"[{name}] of {args.config}: {exc}") from None
            if name == "global":  # it may also set options of other kinds
                section = {k: v for k, v in section.items() if k in reads}
            given = {**section, **given}
    fields = {_SPEC_FIELDS[k]: given.pop(k) for k in list(given) if k in _SPEC_FIELDS}
    return ScanSpec(kind=args.kind, options=given, **fields)


def main(argv=None) -> int:
    try:
        summary = run_scan(_spec_from_args(_build_parser().parse_args(argv)))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {summary['rows']} rows to {summary['out']} "
          f"({summary['failures']} failures); sha256 {summary['digest'][:16]}...")
    return EXIT_PARTIAL if summary["failures"] else EXIT_OK


def cli_entry():  # entry point for the console script
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
