"""One workload in one process: set-up, timed rounds, then the output checks.

Started by run.py, which passes ``--spawned-at`` (its CLOCK_MONOTONIC
reading just before starting this process) so that set-up time counts
from process start.  Results go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


# per workload, the layer metrics that must not read zero in a traced run:
# these layers run there, so a zero means the wrapping missed them
EXPECTED_NONZERO = {
    "easy-plane": ["transfer.bracket_series.calls", "transfer.defect_series.calls",
                   "transfer.second_eta_derivative_bracket.calls", "transfer.band_steps",
                   "transfer.jordan_decompose.calls", "cli.run_scan.self_s", "cli.points"],
    "easy-axis": ["transfer.bracket_LTnR_log.calls", "transfer.band_steps",
                  "mpo.hs_norm_sq_via_transfer.calls", "cli.run_scan.self_s",
                  "cli.points"],
    "dense-qfi": ["mpo.contract_to_dense.calls", "lindblad.ness_mu1.calls",
                  "fisher.qfi_parametric.calls", "fisher.qfi_parametric.failed",
                  "fisher.qfi_dense.self_s", "fisher.states_per_qfi",
                  "transfer.bracket_LTnR_log.calls", "cli.points", "cli.failed_points"],
    "oracle": ["lindblad.build_liouvillian.self_s", "lindblad.steady_state_nullspace.self_s",
               "lindblad.ness_perturbative.self_s", "lindblad.ness_mu1.calls",
               "mpo.contract_to_dense.calls", "mpo.hs_norm_sq_via_transfer.calls",
               "transfer.bracket_LTnR_log.calls"],
}


def main(argv=None) -> int:
    args = _parse(argv)
    import resource

    from workloads import WORKLOADS
    work = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    from calibrate import slowdown
    result = {"setup_s": setup_s, "setup_slowdown_after": slowdown()}
    if args.setup_only:
        _write(args.result, result)
        return 0

    os.makedirs(args.outdir, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    rounds, fingerprints = [], []
    while not rounds or time.monotonic() < args.deadline:
        if tracer is not None:
            tracer.round = len(rounds)
        units = work.run_round(args.outdir)
        rounds.append({"wall_s": sum(u["s"] for u in units.values()),
                       "raw_wall_s": sum(u["raw_s"] for u in units.values()),
                       "units": units})
        fingerprints.append(work.fingerprint(args.outdir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(len(rounds))
        tracer.dump(os.path.join(args.outdir, "spans.jsonl"))
        zero = [m for m in EXPECTED_NONZERO[args.workload] if not result["layers"][m]]
        if zero:
            print(f"traced run: layer metrics read zero where the layer runs: {zero}",
                  file=sys.stderr)
            return 3
    result["rounds"] = rounds

    import checks
    if args.workload == "oracle":
        outcomes = checks.check_oracle(work.points, work.states)
    else:
        outcomes = []
        for scan in work.scans:
            outcomes += checks.SCAN_CHECKS[scan.kind](scan, scan.read(args.outdir))
    if len(outcomes) != work.ops_per_round():
        raise ArithmeticError(f"{len(outcomes)} checked outputs for "
                              f"{work.ops_per_round()} operations")
    failed = [o for o in outcomes if o.problem]
    unexpected = [o for o in failed if not o.known]
    repeatable = len(set(fingerprints)) == 1
    result.update({
        "correct": not unexpected and repeatable,
        "attempted": len(rounds) * len(outcomes),
        "failed": len(rounds) * len(failed),
        "failures": [{"op": o.op, "problem": o.problem, "known": o.known} for o in failed],
        "repeatable": repeatable,
    })
    _write(args.result, result)
    return 0


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
