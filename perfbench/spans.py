"""Span recording around the public functions of hclab's modules.

The tracer replaces module and class attributes with thin wrappers for the
length of a run and restores them afterwards, so hclab itself carries no
tracing code.  Spans are kept in memory as ``[name, start, end, parent,
run_id, extra]`` rows (``parent`` is the index of the enclosing span or -1)
and written out once the run ends.  The per-layer metrics are derived from
those rows alone.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

from hclab import cellproblems, energies, lab, microgeometry, minimize, slgeometry, twoscale
from hclab.fields import Grid

MODULES = ("lab", "microgeometry", "fields", "energies", "slgeometry", "minimize",
           "cellproblems", "twoscale")

SL_KERNELS = ("log_batch", "exp_batch", "log_frechet_adjoint", "exp_frechet_adjoint")

# The solves a study job reads its timings from; wrapped in every run.
TIMED = "minimize.minimize_J_eps", "minimize.minimize_J_limit"


def _report_bytes(args, kwargs, paths):
    return {"lab.emit_report.bytes": sum(Path(p).stat().st_size for p in paths.values())}


def _matrices(name):
    def extra(args, kwargs, result):
        return {f"{name}.matrices": int(np.prod(np.shape(args[0])[:-2]))}
    return extra


def _step_counts(key):
    def extra(args, kwargs, result):
        report = result[-1]
        return {key: int(report.inner_iterations[0]), "minimize.unconverged": int(not report.converged)}
    return extra


def _outer_counts(args, kwargs, result):
    report = result[-1]
    return {"minimize.outer_rounds": len(report.inner_iterations),
            "minimize.unconverged": int(not report.converged)}


def _limit_counts(args, kwargs, result):
    counts = _outer_counts(args, kwargs, result)
    counts["minimize.limit_p_iters"] = int(sum(iters for _, iters in result[-1].inner_iterations))
    return counts


def _cell_counts(args, kwargs, result):
    return {"cellproblems.qprime_W0.unconverged": int(not result.converged)}


def targets(full: bool) -> list:
    """(owner, attribute, span name, extra-counter function) to wrap.

    ``full=False`` wraps only the two solves timed in every run; ``full=True``
    wraps the public entry points of every layer as well.
    """
    timed = [
        (minimize, "minimize_J_eps", TIMED[0], _outer_counts),
        (minimize, "minimize_J_limit", TIMED[1], _limit_counts),
    ]
    if not full:
        return timed
    return timed + [
        (lab, "run_convergence_study", "lab.run_convergence_study", None),
        (lab, "emit_report", "lab.emit_report", _report_bytes),
        (microgeometry, "build_micro_domain", "microgeometry.build_micro_domain", None),
        (Grid, "__init__", "fields.Grid.init", None),
        (Grid, "gauss_values", "fields.Grid.gauss_values", None),
        (Grid, "gauss_gradients", "fields.Grid.gauss_gradients", None),
        (Grid, "accumulate_from_gradients", "fields.Grid.accumulate", None),
        (Grid, "accumulate_from_values", "fields.Grid.accumulate", None),
        (energies, "assemble_J_eps", "energies.assemble_J_eps", None),
        (energies, "value_and_grad_J_eps", "energies.value_and_grad_J_eps", None),
    ] + [
        (slgeometry, fn, f"slgeometry.{fn}", _matrices(f"slgeometry.{fn}")) for fn in SL_KERNELS
    ] + [
        (minimize, "minimize_y", "minimize.minimize_y", _step_counts("minimize.minimize_y.cg_iters")),
        (minimize, "minimize_P", "minimize.minimize_P", _step_counts("minimize.minimize_P.iters")),
        (cellproblems, "effective_quadratic_tensor", "cellproblems.effective_quadratic_tensor", None),
        (cellproblems.HomDensityCache, "w1_tensor", "cellproblems.HomDensityCache.w1_tensor", None),
        (cellproblems, "qprime_W0", "cellproblems.qprime_W0", _cell_counts),
        (cellproblems, "assemble_J_limit", "cellproblems.assemble_J_limit", None),
        (twoscale, "unfold", "twoscale.unfold", None),
        (twoscale, "extend_into_inclusions", "twoscale.extend_into_inclusions", None),
        (twoscale, "extension_constants", "twoscale.extension_constants", None),
        (twoscale, "poincare_ratio", "twoscale.poincare_ratio", None),
        (twoscale, "build_recovery_sequence", "twoscale.build_recovery_sequence", None),
    ]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list = []
        self._patches: list = []

    def install(self, wrap_targets) -> None:
        for owner, attr, name, extra in wrap_targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, extra))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name, extra):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result
        return wrapper

    def run_spans(self, run_id: int) -> list:
        """Spans of one run, with parents re-indexed into the returned list."""
        index = {}
        out = []
        for i, span in enumerate(self.spans):
            if span[4] == run_id:
                index[i] = len(out)
                out.append(span[:3] + [index.get(span[3], -1)] + span[4:])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "run_id", "extra"],
            "spans": self.spans,
        }))


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach, start), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _call_names() -> list:
    names = []
    for _, _, name, _ in targets(full=True):
        if name not in names:
            names.append(name)
    return names


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in _call_names():
        if not name.startswith("lab."):
            units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units["lab.emit_report.bytes"] = "B"
    for fn in SL_KERNELS:
        units[f"slgeometry.{fn}.matrices"] = "count"
    units.update({
        "minimize.minimize_y.cg_iters": "count",
        "minimize.minimize_P.iters": "count",
        "minimize.armijo_trials": "count",
        "minimize.armijo_accept_ratio": "ratio",
        "minimize.limit_p_iters": "count",
        "minimize.outer_rounds": "count",
        "minimize.unconverged": "count",
        "cellproblems.cache_hit_ratio": "ratio",
        "cellproblems.qprime_W0.unconverged": "count",
    })
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(spans: list) -> dict:
    """Per-layer values of one run's spans; the caller fills in trace.*."""
    values = {name: 0.0 if unit == "s" else 0 for name, unit in per_layer_units().items()}
    names = [span[0] for span in spans]
    for (name, start, end, _, _, extra), own in zip(spans, self_times(spans)):
        if f"{name}.calls" in values:
            values[f"{name}.calls"] += 1
        values[f"{name}.s"] += end - start
        values[f"{name.split('.')[0]}.self_s"] += own
        for key, count in (extra or {}).items():
            values[key] += count

    def under(child, parent_name):
        return sum(1 for name, _, _, parent, *_ in spans
                   if name == child and parent >= 0 and names[parent] == parent_name)

    # The P-step evaluates value+grad once at its start and once per accepted
    # Armijo trial; every other trial costs a value-only assembly.
    p_step = "minimize.minimize_P"
    trials = under("energies.assemble_J_eps", p_step)
    accepted = under("energies.value_and_grad_J_eps", p_step) - values[f"{p_step}.calls"]
    values["minimize.armijo_trials"] = trials
    values["minimize.armijo_accept_ratio"] = accepted / trials if trials else 0.0
    lookups = values["cellproblems.HomDensityCache.w1_tensor.calls"]
    solves = under("cellproblems.effective_quadratic_tensor", "cellproblems.HomDensityCache.w1_tensor")
    values["cellproblems.cache_hit_ratio"] = (lookups - solves) / lookups if lookups else 0.0
    return values
