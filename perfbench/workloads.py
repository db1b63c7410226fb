"""The four workloads: inputs made from a seed, and one timed round each.

A round is the same list of operations every time: the scans of a
workload through ``cli.main`` (one operation per grid point), or the
oracle solves through the ``lindblad`` functions (one operation per
solve).  Inputs depend on the seed only; the program sees only them.
Each scan call or solve is one timed unit (see ``calibrate``).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random

import numpy as np

from calibrate import timed
from xxz_metrology import ChainParams, cli, lindblad


class Scan:
    """One ``xxz-metrology scan`` call and the grid it should produce."""

    def __init__(self, name: str, kind: str, args: list[str], points: list[tuple]):
        self.name, self.kind, self.args, self.points = name, kind, args, points

    def argv(self, outdir: str) -> list[str]:
        return ["scan", self.kind, *self.args, "--workers", "1",
                "--out", self.path(outdir)]

    def flag(self, name: str) -> str:
        return self.args[self.args.index(name) + 1]

    def path(self, outdir: str) -> str:
        return os.path.join(outdir, f"{self.name}.csv")

    def read(self, outdir: str) -> list[dict]:
        with open(self.path(outdir), newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))


def rational_grid(p_max: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(2, p_max + 1) for q in range(1, p)
            if math.gcd(p, q) == 1]


def n_range(a: int, b: int, step: int) -> list[str]:
    return ["--n-range", str(a), str(b), str(step)]


class ScanWorkload:
    """A workload made of CLI scans; ``self.scans`` is set by the subclass."""

    scans: list[Scan]

    def ops_per_round(self) -> int:
        return sum(len(scan.points) for scan in self.scans)

    def run_round(self, outdir: str) -> dict[str, dict]:
        """Run every scan once; returns the timing record of each."""
        records = {}
        for scan in self.scans:
            code, records[scan.name] = timed(cli.main, scan.argv(outdir))
            if code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):
                raise RuntimeError(f"scan {scan.name} exited with {code}")
        return records

    def fingerprint(self, outdir: str) -> str:
        """Digest of every data file, to show that rounds repeat exactly."""
        h = hashlib.sha256()
        for scan in self.scans:
            with open(scan.path(outdir), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


class EasyPlane(ScanWorkload):
    """|Delta| < 1: linear-domain propagation, Jordan chi_1, per-point overhead."""

    name = "easy-plane"
    XI_N_GRID = [10, 27, 72, 193, 518, 1389, 3728, 10000]  # 8 log points in [10, 1e4]
    XI_P_MAX, XI_WINDOW = 10, 1000
    CHI_P_MAX, CHI_D, CHI_IRRATIONAL = 12, 400, [-0.6, -0.2, 0.2, 0.6]
    ISO_N = list(range(3, 201, 7))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.delta = rng.uniform(0.15, 0.85)
        self.scans = [
            Scan("xi-n-vs-n", "xi-n-vs-n", ["--delta", repr(self.delta), "--n-log-points", "8"],
                 [(self.delta, n) for n in self.XI_N_GRID]),
            Scan("xi-vs-eta-rational", "xi-vs-eta-rational",
                 ["--p-max", str(self.XI_P_MAX), "--n-window", str(self.XI_WINDOW)],
                 rational_grid(self.XI_P_MAX)),
            Scan("chi-vs-delta", "chi-vs-delta",
                 ["--p-max", str(self.CHI_P_MAX), "--delta-points",
                  str(len(self.CHI_IRRATIONAL)), "--d-max", str(self.CHI_D)],
                 [("rational", p, q) for p, q in rational_grid(self.CHI_P_MAX)]
                 + [("irrational", dl) for dl in self.CHI_IRRATIONAL]),
            Scan("isotropic-check", "isotropic-check", n_range(3, 200, 7),
                 [(n,) for n in self.ISO_N]),
        ]


class EasyAxis(ScanWorkload):
    """|Delta| > 1 (plus one |Delta| < 1): log-domain propagation only."""

    name = "easy-axis"
    OVERFLOW_DELTA = 2.0   # fixed, so the points past the cosh^2 overflow never move
    N_GRID = list(range(100, 1001, 100))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.deltas = sorted(rng.uniform(1.02, 1.2) for _ in range(2))
        self.deltas += [self.OVERFLOW_DELTA, rng.uniform(0.2, 0.8)]
        self.scans = []
        for i, dl in enumerate(self.deltas):
            self.scans += [
                Scan(f"validity-report-{i}", "validity-report",
                     ["--delta", repr(dl), "--mu", "1", *n_range(100, 1000, 100)],
                     [(dl, n) for n in self.N_GRID]),
                Scan(f"f-lambda-nonpert-{i}", "f-lambda-nonpert",
                     ["--delta", repr(dl), "--lambda-over-j", "0", *n_range(100, 1000, 100)],
                     [(dl, 0.0, n) for n in self.N_GRID]),
            ]


class DenseQfi(ScanWorkload):
    """The README f-lambda-nonpert spec (to n = 9), one scan per Delta."""

    name = "dense-qfi"
    DELTAS, LAMBDAS, N_MAX = [2.0, 10.0, 100.0], [0.0, 1e-3, 1e-2], 9

    def __init__(self, seed: int):
        del seed  # the README spec has no free inputs
        self.scans = [
            Scan(f"f-lambda-nonpert-{i}", "f-lambda-nonpert",
                 ["--delta", repr(dl), "--lambda-over-j", *[repr(v) for v in self.LAMBDAS],
                  *n_range(2, self.N_MAX, 1)],
                 [(dl, lj, n) for lj in self.LAMBDAS for n in range(2, self.N_MAX + 1)])
            for i, dl in enumerate(self.DELTAS)]


class Oracle:
    """Three steady states per point: Liouvillian null space, mu = 1 closed form, MPO."""

    name = "oracle"
    LAMBDAS = (1e-3, 1e-2)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        plane, axis = rng.uniform(0.3, 0.9), rng.uniform(1.2, 2.2)
        self.points = [(4, dl, lam) for dl in (plane, axis) for lam in self.LAMBDAS]
        self.points += [(5, plane, 1e-2), (5, axis, 1e-3)]
        self.states: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # last round's

    def ops_per_round(self) -> int:
        return len(self.points)

    @staticmethod
    def _solve(n, delta, lam):
        params = ChainParams(n=n, j_coupling=1.0, delta=delta, lam=lam, mu=1.0)
        null = lindblad.steady_state_nullspace(lindblad.build_liouvillian(params))
        return null, lindblad.ness_mu1(params, lam), lindblad.ness_perturbative(params)

    def run_round(self, outdir: str) -> dict[str, dict]:
        del outdir
        records, self.states = {}, []
        for i, point in enumerate(self.points):
            # one large LAPACK call dominates a solve, and it slows down far
            # less on the loaded machine than the Python kernel does
            states, records[f"solve-{i}"] = timed(self._solve, *point, calibrated=False)
            self.states.append(states)
        return records

    def fingerprint(self, outdir: str) -> str:
        del outdir
        h = hashlib.sha256()
        for triple in self.states:
            for rho in triple:
                h.update(np.ascontiguousarray(rho).tobytes())
        return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (EasyPlane, EasyAxis, DenseQfi, Oracle)}
