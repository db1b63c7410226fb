"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``TRACED`` by
a wrapper, in every ``xxz_metrology`` module that holds a reference to
it (``cli`` imports ``transfer`` and ``fisher`` names directly, ``mpo``
imports ``bracket_LTnR_log``, ``lindblad`` imports ``contract_to_dense``),
so calls are seen wherever callers look the function up.  Spans stay in
memory; self time is a span's time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# every function whose time should not count as its caller's self time;
# the benchmark reports a subset of them (see LAYER_METRICS)
TRACED = {
    "transfer": ["bracket_series", "defect_series", "second_eta_derivative_bracket",
                 "bracket_LTnR", "bracket_LTnR_log", "sum_defect", "sum_defect_log",
                 "f0_x", "f0_delta", "chi_coefficient", "xi_coefficient",
                 "build_transfer", "jordan_decompose", "isotropic_bracket_series",
                 "isotropic_f_delta"],
    "mpo": ["build_aux_A", "build_aux_B", "solve_s", "contract_to_dense",
            "hs_norm_sq_via_transfer", "validity_threshold"],
    "lindblad": ["build_liouvillian", "steady_state_nullspace", "ness_perturbative",
                 "ness_mu1", "apply_liouvillian"],
    "fisher": ["qfi_parametric", "qfi_dense", "sld"],
    "cli": ["run_scan"],
}

# functions that run the banded propagation loop, with its step count
_PROPAGATORS = {"transfer.bracket_series", "transfer.defect_series",
                "transfer.bracket_LTnR_log", "transfer.sum_defect_log",
                "transfer.second_eta_derivative_bracket"}

LAYER_METRICS = [
    ("transfer.bracket_series.calls", "count"),
    ("transfer.bracket_series.self_s", "s"),
    ("transfer.defect_series.calls", "count"),
    ("transfer.defect_series.self_s", "s"),
    ("transfer.second_eta_derivative_bracket.calls", "count"),
    ("transfer.second_eta_derivative_bracket.self_s", "s"),
    ("transfer.band_steps", "count"),
    ("transfer.jordan_decompose.calls", "count"),
    ("transfer.jordan_decompose.self_s", "s"),
    ("transfer.bracket_LTnR_log.calls", "count"),
    ("transfer.bracket_LTnR_log.self_s", "s"),
    ("mpo.hs_norm_sq_via_transfer.calls", "count"),
    ("mpo.contract_to_dense.calls", "count"),
    ("mpo.contract_to_dense.self_s", "s"),
    ("lindblad.ness_mu1.calls", "count"),
    ("lindblad.ness_mu1.self_s", "s"),
    ("fisher.qfi_parametric.calls", "count"),
    ("fisher.qfi_parametric.self_s", "s"),
    ("fisher.qfi_parametric.failed", "count"),
    ("fisher.qfi_dense.self_s", "s"),
    ("fisher.states_per_qfi", "states/qfi"),
    ("lindblad.build_liouvillian.self_s", "s"),
    ("lindblad.steady_state_nullspace.self_s", "s"),
    ("lindblad.ness_perturbative.self_s", "s"),
    ("cli.run_scan.self_s", "s"),
    ("cli.points", "count"),
    ("cli.failed_points", "count"),
]


def _band_cells(name: str, args, kwargs) -> int:
    """steps x (d + 1) of one propagation call, from its arguments."""
    n = args[0] if args else kwargs["n"]
    d = args[2] if len(args) > 2 else kwargs.get("d")
    if d is None:
        d = max(n // 2, 1)
    if name == "transfer.second_eta_derivative_bracket":
        method = args[3] if len(args) > 3 else kwargs.get("method", "analytic")
        if method != "analytic":
            return 0  # the stencil calls bracket_series, counted there
    return n * (d + 1)


class _Span:
    __slots__ = ("name", "round", "start", "end", "parent", "child_time", "mu1_builds")

    def __init__(self, name, round_, start, parent):
        self.name, self.round, self.start, self.parent = name, round_, start, parent
        self.end = None
        self.child_time = 0.0
        self.mu1_builds = 0


class Tracer:
    """Records spans and work counts per round."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.round = 0
        self.counts: dict[tuple[int, str], int] = {}
        self._originals: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: int = 1):
        k = (self.round, key)
        self.counts[k] = self.counts.get(k, 0) + amount

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = _Span(name, tracer.round, time.perf_counter(), parent)
            tracer.stack.append(span)
            if name in _PROPAGATORS:
                tracer._count("transfer.band_steps", _band_cells(name, args, kwargs))
            if name == "lindblad.ness_mu1":
                for open_span in tracer.stack:
                    if open_span.name == "fisher.qfi_parametric":
                        open_span.mu1_builds += 1
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                tracer.spans.append(span)
                tracer._count(name + ".calls")
                if not ok:
                    tracer._count(name + ".failed")
                elif name == "fisher.qfi_parametric":
                    tracer._count("qfi.returned")
                    tracer._count("qfi.mu1_builds", span.mu1_builds)
                elif name == "cli.run_scan":
                    tracer._count("cli.points", result["rows"])
                    tracer._count("cli.failed_points", result["failures"])

        return wrapper

    def install(self):
        """Wrap every TRACED function in every module that refers to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "xxz_metrology" or key.startswith("xxz_metrology.")]
        for mod_name, names in TRACED.items():
            owner = sys.modules[f"xxz_metrology.{mod_name}"]
            for fname in names:
                original = getattr(owner, fname)  # AttributeError: the layer moved
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._originals.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Each LAYER_METRICS entry per round: counts exactly, self times as medians."""
        self_time = {}
        for span in self.spans:
            key = (span.round, span.name)
            self_time[key] = self_time.get(key, 0.0) + (span.end - span.start
                                                         - span.child_time)

        def per_round_count(key):
            values = {self.counts.get((r, key), 0) for r in range(rounds)}
            if len(values) != 1:
                raise ArithmeticError(f"{key} differs between rounds: {sorted(values)}")
            return values.pop()

        out = {}
        for metric, _ in LAYER_METRICS:
            if metric == "fisher.states_per_qfi":
                returned = per_round_count("qfi.returned")
                builds = per_round_count("qfi.mu1_builds")
                out[metric] = builds / returned if returned else 0.0
            elif metric.endswith(".self_s"):
                name = metric[: -len(".self_s")]
                out[metric] = statistics.median(self_time.get((r, name), 0.0)
                                                for r in range(rounds))
            else:
                out[metric] = per_round_count(metric)
        return out

    def dump(self, path: str):
        """Write the spans as JSON lines: name, round, start, end, parent index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = index.get(id(span.parent)) if span.parent is not None else None
                fh.write(json.dumps({"name": span.name, "round": span.round,
                                     "start": span.start, "end": span.end,
                                     "parent": parent}) + "\n")
