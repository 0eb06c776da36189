"""The benchmark's workloads: inputs made from a seed, one job, output checks.

Each workload builds its inputs once per process (``build``) and then runs a
job any number of times (``run``).  A job returns its timings and final
values and records every output check in a ``Checks`` tally; a failed check
or an unconverged solve never aborts the job, it is counted.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from hclab import cellproblems, lab, materials, microgeometry, minimize
from hclab.fields import DeformationField, Grid, PlasticField

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STUDY_CONFIG = ROOT / "configs" / "default_study.json"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

# Overrides of configs/default_study.json; study_block4 runs it unchanged.
FIBER3D = {
    "geometry": {"builtin": "fiber3d"},
    "eps_list": [1 / 3],  # eps = 1/2 leaves no room for a fiber3d inclusion
    "macro_elements": 2,
    "toggles": {"dissipation": False, "recovery_check": False, "correction": False},
    "acceptance": {"max_unfold_resid": 1e-12},
}
# The limit job starts from lab's smooth plastic field: amplitude 0.8 r_K along
# (0.8, 0.35, 0) in the sl(2) basis (S, A, D).  The seed picks one of the four
# images of that direction under the reflections of the block4 cell, which flip
# the signs of two of the three coordinates, so every seed does the same work.
LIMIT = {"geometry": {"builtin": "block4"}, "cell_resolution": 32, "macro_elements": 8,
         "start_amplitude": 0.8, "start_direction": [0.8, 0.35, 0.0]}
SYMMETRY_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, -1, 1), (-1, 1, -1))
WORKLOADS = {"study_block4": {}, "study_fiber3d": FIBER3D, "limit_block4": LIMIT}


class Checks:
    """Tally of output checks; ``failures`` names the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def close(self, name: str, value: float, expected: float, rel_tol: float) -> None:
        self.check(name, math.isclose(value, expected, rel_tol=rel_tol, abs_tol=0.0))


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]


def params(workload: str) -> dict:
    """The workload's parameters as they differ from the stock study config."""
    return {"config": str(STUDY_CONFIG.relative_to(ROOT)), **WORKLOADS[workload]}


def _stock_config(seed: int, overrides: dict, outdir: Path) -> lab.StudyConfig:
    data = json.loads(STUDY_CONFIG.read_text())
    data.update(overrides)
    data["seed"] = seed
    data["output_dir"] = str(outdir)
    config = lab.StudyConfig(**data)
    config.validate()
    return config


class Study:
    """A convergence study, as ``hclab study run`` does it."""

    def __init__(self, name: str, seed: int, overrides: dict, reference: dict):
        self.config = _stock_config(seed, overrides, OUT_DIR / name)
        self.reference = reference

    def run(self, tracer, checks: Checks) -> dict:
        t0 = time.perf_counter()
        report = lab.run_convergence_study(self.config)
        lab.emit_report(report, outdir=self.config.output_dir)
        acceptance = lab.evaluate_acceptance(report, self.config.acceptance)
        wall = time.perf_counter() - t0
        timed = tracer.run_spans(tracer.run_id)
        finest = [s for s in timed if s[0] == "minimize.minimize_J_eps"][-1]
        cold = next(s for s in timed if s[0] == "minimize.minimize_J_limit")

        ref = self.reference
        for name, ok in acceptance:
            checks.check(f"acceptance.{name}", ok)
        for key, solve in report.metadata["solve_reports"].items():
            checks.check(f"converged[{key}]", solve["converged"])
        checks.close("min_J", report.metadata["min_J"], ref["min_J"], ref["rel_tol"])
        for row in report.rows:
            key = repr(row["eps"])
            checks.close(f"infJ[eps={key}]", row["infJ"], ref["infJ"].get(key, math.nan), ref["rel_tol"])
        return {
            "wall_s": wall,
            "finest_solve_s": finest[2] - finest[1],
            "final_J": report.rows[-1]["infJ"],
            "final_gap": report.rows[-1]["gap"],
            "cold_solve_s": cold[2] - cold[1],
        }


class Limit:
    """The homogenized functional alone: a cold solve on an empty cache, then
    the same solve from the same start on the cache the first one filled."""

    def __init__(self, seed: int, reference: dict, cell_resolution: int, macro_elements: int):
        config = _stock_config(seed, {}, OUT_DIR / "limit_block4")
        self.cell = microgeometry.builtin_cell(LIMIT["geometry"]["builtin"])
        self.model = materials.default_material(dim=self.cell.dim, **config.material)
        self.cache_args = {"step": config.quantization_step, "resolution": cell_resolution,
                           "tol": config.tolerances["cell"], "seed": seed}
        self.schedule = minimize.Schedule(outer_tol=config.tolerances["outer"],
                                          y_tol=config.tolerances["linear"],
                                          p_tol=config.tolerances["plastic"])
        self.macro_elements = macro_elements
        grid = Grid(self.cell.dim, macro_elements)
        signs = SYMMETRY_SIGNS[np.random.default_rng(seed).integers(len(SYMMETRY_SIGNS))]
        direction = np.multiply(LIMIT["start_direction"], signs)
        direction /= np.linalg.norm(direction)
        bump = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
        r_K = self.model.K_radius
        coeffs = LIMIT["start_amplitude"] * r_K * bump[:, None] * direction[None, :]
        self.start = (DeformationField.zero(grid), PlasticField(grid, coeffs, r_K=r_K))
        self.reference = reference

    def run(self, tracer, checks: Checks) -> dict:
        cache = cellproblems.HomDensityCache(**self.cache_args)
        times, results = [], []
        for _ in ("cold", "warm"):
            t0 = time.perf_counter()
            results.append(minimize.minimize_J_limit(
                self.cell, self.model, init=self.start, cache=cache,
                macro_elements=self.macro_elements, schedule=self.schedule))
            times.append(time.perf_counter() - t0)
        (_, _, cold_J, cold_report), (_, _, warm_J, warm_report) = results
        checks.check("converged[cold]", cold_report.converged)
        checks.check("converged[warm]", warm_report.converged)
        checks.check("warm J == cold J", warm_J == cold_J)
        checks.close("limit J", cold_J, self.reference["min_J"], self.reference["rel_tol"])
        return {
            "wall_s": sum(times),
            "finest_solve_s": times[0],
            "cold_solve_s": times[0],
            "warm_solve_s": times[1],
            "final_J": cold_J,
        }


def build(workload: str, seed: int):
    """The workload's inputs, ready to run; everything here counts as set-up."""
    reference = load_reference(workload)
    if workload == "limit_block4":
        return Limit(seed, reference, LIMIT["cell_resolution"], LIMIT["macro_elements"])
    return Study(workload, seed, WORKLOADS[workload], reference)
