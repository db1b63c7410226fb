"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Starts ``worker.py`` a few
times for set-up only, then once for the timed rounds and the output
checks, one process at a time, and prints one JSON object as the last
line: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import slowdown
from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("easy-plane", "easy-axis", "dense-qfi", "oracle")
SETUP_PROBES = 4        # set-up-only processes per untraced run, besides the timed one
CHILD_TIMEOUT_S = 150   # a worker past this is killed and the run fails


def _run_worker(workload, seed, deadline, outdir, trace, setup_only, env):
    """Start worker.py, wait for it, return its result dict (None on failure)."""
    outdir.mkdir(parents=True, exist_ok=True)
    result = outdir / ("setup.json" if setup_only else "result.json")
    result.unlink(missing_ok=True)
    log = outdir / "worker.log"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--deadline", repr(deadline), "--outdir", str(outdir),
           "--result", str(result), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "w", encoding="utf-8") as fh:
        before = slowdown()
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                                stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0 or not result.exists():
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
        print(f"worker failed ({code}):\n" + "\n".join(tail), file=sys.stderr)
        return None
    res = json.loads(result.read_text(encoding="utf-8"))
    res["setup_raw_s"] = res["setup_s"]
    res["setup_s"] /= math.sqrt(before * res["setup_slowdown_after"])
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "xxz_metrology" / "__init__.py").is_file():
        print(f"no xxz_metrology sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + args.seconds
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    outdir = BENCH / "out" / f"{args.workload}-{'traced' if args.trace else 'timed'}"

    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = _run_worker(args.workload, args.seed, deadline, outdir, 0, True, env)
            if probe is None:
                return 1
            setups.append(probe["setup_s"])
            raw_setups.append(probe["setup_raw_s"])
    res = _run_worker(args.workload, args.seed, deadline, outdir, args.trace, False, env)
    if res is None:
        return 1
    setups.append(res["setup_s"])
    raw_setups.append(res["setup_raw_s"])

    walls = [r["wall_s"] for r in res["rounds"]]
    raw_walls = [r["raw_wall_s"] for r in res["rounds"]]
    for failure in res["failures"][:20]:
        tag = "known fault" if failure["known"] else "UNEXPECTED"
        print(f"failed ({tag}): {failure['op']}: {failure['problem']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(walls)} rounds, wall_s per round "
          f"{[round(w, 3) for w in walls]} (raw {[round(w, 3) for w in raw_walls]}), "
          f"setup_s {[round(s, 3) for s in setups]} (raw {[round(s, 3) for s in raw_setups]}), "
          f"repeatable {res['repeatable']}",
          file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
        metrics_note = {"traced_wall_s": statistics.median(walls)}
        print(json.dumps(metrics_note))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
