"""Experiment runner and CLI.

A study sweeps eps over a decreasing list, minimizes the composite energy per
eps with warm starts, computes the homogenized reference once, and emits a
report whose columns are the checkable quantities of the theory: energy
breakdowns, the splitting remainder, Poincare and extension constants,
hardening-continuity errors, unfolding residuals, and the gap to the
homogenized minimum.  Identical config and seed give bit-identical reports.
A config's ``tolerances`` and ``toggles`` blocks may name any subset of their
keys; ``TOLERANCE_DEFAULTS`` and ``TOGGLE_DEFAULTS`` fill in the rest.  Every
number in a config is finite, and every tolerance positive.

The solver defaults are not stated here: ``TOLERANCE_DEFAULTS`` reads them
from ``minimize.Schedule`` and ``cellproblems.CELL_TOL``, the default
``quantization_step`` is ``cellproblems.LATTICE_STEP`` and the CLI's
``--resolution`` is ``cellproblems.CELL_RESOLUTION``; the audit's
``--samples`` is ``materials.AUDIT_SAMPLES``.  ``StudyConfig.validate``
returns the cell and model it built, so a study builds each once (``hclab
study run`` applies its overrides before that one validation), and one
reader, ``_build_cell``, turns a config's geometry block or a CLI cell
argument into a cell, with an unreadable mask file an ``IoFailure``.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import inspect
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from hclab import cellproblems, energies, materials, microgeometry, minimize, twoscale
from hclab.fields import DeformationField, FieldError, Grid, PlasticField, prolong_deformation, prolong_plastic


class IoFailure(OSError):
    pass


class ConfigError(ValueError):
    pass


COLUMNS = [
    "eps", "infJ", "soft_el", "stiff_el", "hard_soft", "hard_stiff", "gradP",
    "diss_soft", "diss_stiff", "remainder", "poincare", "ext_const",
    "hard_cont_err", "unfold_resid", "gap",
]
# the solvers' own defaults, read from their owners
TOLERANCE_DEFAULTS = {"outer": minimize.Schedule.outer_tol, "linear": minimize.Schedule.y_tol,
                      "cell": cellproblems.CELL_TOL, "plastic": minimize.Schedule.p_tol}
TOGGLE_DEFAULTS = {"dissipation": False, "recovery_check": True, "correction": False}
TOLERANCE_KEYS = tuple(TOLERANCE_DEFAULTS)
TOGGLE_KEYS = tuple(TOGGLE_DEFAULTS)
ACCEPTANCE_KEYS = ("require_gap_decreasing", "max_final_gap", "max_gap_all", "max_unfold_resid",
                   "recovery_bound")
ACCEPTANCE_FLAGS = ("require_gap_decreasing", "recovery_bound")  # the other acceptance keys are bounds
# the parameters of materials.default_material; dim comes from the cell
MATERIAL_KEYS = tuple(p for p in inspect.signature(materials.default_material).parameters if p != "dim")
GEOMETRY_KEYS = ("builtin", "mask_file")

# value types as (test, description); bool is a numbers.Integral but never a number here
_NUMBER = (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v),
           "a finite number")
_INTEGER = (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_STRING = (lambda v: isinstance(v, str), "a string")


def _check_type(key: str, value, kind) -> None:
    test, what = kind
    if not test(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


@dataclass
class StudyConfig:
    """Declarative description of one convergence study."""

    geometry: dict = field(default_factory=lambda: {"builtin": "block4"})
    material: dict = field(default_factory=dict)
    eps_list: list = field(default_factory=lambda: [0.25, 0.125, 0.0625])
    strip: float = 0.5
    macro_elements: int = 8
    cell_resolution: int | None = None
    quantization_step: float = cellproblems.LATTICE_STEP
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCE_DEFAULTS))
    seed: int = 1234
    toggles: dict = field(default_factory=lambda: dict(TOGGLE_DEFAULTS))
    output_dir: str = "out"
    acceptance: dict | None = None

    def _check_shape(self) -> None:
        """Every block is an object naming only known keys, and every value
        has the type the study reads it as."""
        for block, values, known, kind in (
                ("geometry", self.geometry, GEOMETRY_KEYS, lambda key: _STRING),
                ("material", self.material, MATERIAL_KEYS, lambda key: _STRING if key == "soft" else _NUMBER),
                ("tolerances", self.tolerances, TOLERANCE_KEYS, lambda key: _NUMBER),
                ("toggles", self.toggles, TOGGLE_KEYS, lambda key: _BOOL),
                ("acceptance", {} if self.acceptance is None else self.acceptance, ACCEPTANCE_KEYS,
                 lambda key: _BOOL if key in ACCEPTANCE_FLAGS else _NUMBER)):
            if not isinstance(values, dict):
                raise ConfigError(f"{block} must be an object, got {values!r}")
            for key, value in values.items():
                if key not in known:
                    raise ConfigError(f"unknown {block} key {key!r}; known keys: {', '.join(known)}")
                _check_type(f"{block}.{key}", value, kind(key))
        if not isinstance(self.eps_list, (list, tuple)):
            raise ConfigError(f"eps_list must be a list of numbers, got {self.eps_list!r}")
        for e in self.eps_list:
            _check_type("each eps_list entry", e, _NUMBER)
        for key, kind in (("strip", _NUMBER), ("quantization_step", _NUMBER), ("macro_elements", _INTEGER),
                          ("seed", _INTEGER), ("output_dir", _STRING)):
            _check_type(key, getattr(self, key), kind)
        if self.cell_resolution is not None:
            _check_type("cell_resolution", self.cell_resolution, _INTEGER)

    def validate(self) -> tuple:
        """Raise a ConfigError unless the study can run; returns the (cell,
        model) built on the way, which ``run_convergence_study`` uses."""
        self._check_shape()
        eps = list(self.eps_list)
        if not eps:
            raise ConfigError("eps_list must not be empty")
        for e in eps:
            n = round(1.0 / e) if 0 < e <= 0.5 else 0
            if abs(e * n - 1.0) > 1e-12 or n < 2:
                raise ConfigError(f"eps {e} is not the reciprocal of an integer >= 2")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
        acceptance = self.acceptance or {}
        if len(self.geometry) != 1:
            raise ConfigError(f"geometry must name exactly one of {', '.join(GEOMETRY_KEYS)}")
        if self.quantization_step <= 0:
            raise ConfigError(f"quantization_step must be positive, got {self.quantization_step}")
        if self.macro_elements < 1:
            raise ConfigError(f"macro_elements must be >= 1, got {self.macro_elements}")
        if self.strip <= 0:
            raise ConfigError(f"strip must be positive, got {self.strip}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:
            cell = _build_cell(self.geometry)
        except (microgeometry.GeometryError, IoFailure) as exc:
            raise ConfigError(f"geometry {self.geometry}: {exc}") from exc
        for e in eps:
            try:
                microgeometry.admitted_cells(cell, round(1.0 / e), self.strip)
            except microgeometry.GeometryError as exc:
                raise ConfigError(f"eps {e}: {exc}") from exc
        try:
            model = _build_model(self.material, cell.dim)
        except materials.MaterialError as exc:
            raise ConfigError(f"material {self.material}: {exc}") from exc
        if self.cell_resolution is not None and (self.cell_resolution < 1 or self.cell_resolution % cell.resolution):
            raise ConfigError(f"cell_resolution must be a positive multiple of the cell's "
                              f"resolution {cell.resolution}, got {self.cell_resolution}")
        tolerances, toggles = self.settings()
        for key, tol in tolerances.items():
            if tol <= 0:
                raise ConfigError(f"tolerances.{key} must be positive, got {tol}")
        if toggles["correction"]:
            raise ConfigError("toggles.correction must be false: the recovery sequence's correction "
                              "stage was removed")
        if self.acceptance is not None and not acceptance:
            raise ConfigError(f"acceptance block names no check; known keys: {', '.join(ACCEPTANCE_KEYS)}")
        if acceptance.get("recovery_bound") and not toggles["recovery_check"]:
            raise ConfigError("acceptance.recovery_bound needs toggles.recovery_check: without the "
                              "recovery run the bound has nothing to check")
        if acceptance.get("require_gap_decreasing") and len(eps) < 2:
            raise ConfigError("acceptance.require_gap_decreasing needs at least two eps values")
        return cell, model

    def settings(self) -> tuple:
        """(tolerances, toggles): both blocks with the defaults filled in for the keys they omit."""
        return {**TOLERANCE_DEFAULTS, **self.tolerances}, {**TOGGLE_DEFAULTS, **self.toggles}

    def hash(self) -> str:
        """Short content hash of the study definition (output location excluded)."""
        payload = asdict(self)
        payload.pop("output_dir", None)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def load_config(path) -> StudyConfig:
    """The validated study config of a JSON file."""
    cfg = _read_config(path)
    cfg.validate()
    return cfg


def _read_config(path) -> StudyConfig:
    """The study config of a JSON file, its keys checked but not validated."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {data!r}")
    known = [f.name for f in fields(StudyConfig)]
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}; known keys: {', '.join(known)}")
    return StudyConfig(**data)


def _build_cell(geometry: dict) -> microgeometry.CellGeometry:
    """The cell of a geometry block, ``{"builtin": name}`` or ``{"mask_file":
    path}``; a mask file that cannot be read is an IoFailure."""
    if "builtin" in geometry:
        return microgeometry.builtin_cell(geometry["builtin"])
    path = geometry["mask_file"]
    try:
        return microgeometry.load_cell_mask(path)
    except OSError as exc:
        raise IoFailure(f"cannot read cell mask {path}: {exc}") from exc


def _build_model(material_spec: dict, dim: int) -> materials.MaterialModel:
    return materials.default_material(dim=dim, **material_spec)


# -- fixed diagnostic fields ---------------------------------------------------


def _bump_field(grid: Grid) -> DeformationField:
    """Smooth field with zero boundary values (set exactly: sin(pi) is not 0)."""
    coords = grid.node_coords()
    s = np.prod(np.sin(np.pi * coords), axis=-1)
    out = np.zeros_like(coords)
    out[:, 0] = 0.5 * s
    out[:, 1] = 0.3 * s + 0.2 * np.sin(2.0 * np.pi * coords[:, 0]) * np.prod(
        coords[:, 1:] * (1.0 - coords[:, 1:]), axis=-1)
    out[grid.boundary_node_mask()] = 0.0
    return DeformationField(grid, out)


def _oscillatory_values(coords: np.ndarray) -> np.ndarray:
    out = np.zeros_like(coords)
    out[:, 0] = np.sin(3.0 * np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1]) \
        + 0.3 * np.cos(2.0 * np.pi * coords[:, 1])
    out[:, 1] = np.cos(np.pi * coords[:, 0]) * np.sin(2.0 * np.pi * coords[:, 1])
    return out


def _smooth_plastic(grid: Grid, r_K: float) -> PlasticField:
    coords = grid.node_coords()
    g = np.prod(np.sin(np.pi * coords), axis=-1)
    k = grid.dim**2 - 1
    direction = np.zeros(k)
    direction[0] = 0.8
    direction[1] = 0.35
    direction /= np.linalg.norm(direction)
    coeffs = 0.8 * r_K * g[:, None] * direction[None, :]
    return PlasticField(grid, coeffs, r_K=r_K)


def _random_field(grid: Grid, seed: int) -> DeformationField:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n_nodes, grid.dim))
    return DeformationField(grid, vals)


# -- per-row diagnostics ---------------------------------------------------------


def _hardening_continuity_error(domain, model, P: PlasticField) -> float:
    grid = P.grid
    Hg = energies.PlasticBlock(model, [P]).hardening[0]
    soft = domain.soft_elements
    int_soft = grid.integrate(Hg, element_mask=soft)
    int_all = grid.integrate(Hg)
    vol_s = float(domain.cell.vol_soft)
    vol_t = 1.0 - vol_s
    return max(abs(int_soft - vol_s * int_all), abs((int_all - int_soft) - vol_t * int_all))


def _unfold_residual(domain, seed: int) -> float:
    grid = domain.grid
    y = _random_field(grid, seed)
    tsf = twoscale.unfold(domain, y)
    norm_dev = abs(grid.lattice_norm_sq(y.values) - tsf.norm_sq())
    lhs = twoscale.unfold_scaled_gradients(domain, y)
    rhs = tsf.micro_gradients()
    grad_dev = float(np.max(np.abs(lhs - rhs)))
    return max(norm_dev, grad_dev)


def _row(eps: float, bd, min_J: float, chash: str, **diagnostics) -> dict:
    """One report row: the columns of the breakdown ``bd``, its gap to the
    reference ``min_J``, the named diagnostic columns, and 0.0 in every other."""
    row = dict.fromkeys(COLUMNS, 0.0)
    row.update(eps=eps, infJ=bd.total, soft_el=bd.soft_elastic, stiff_el=bd.stiff_elastic,
               hard_soft=bd.hardening_soft, hard_stiff=bd.hardening_stiff, gradP=bd.grad_P_term,
               gap=abs(bd.total - min_J) / max(1.0, abs(min_J)), **diagnostics, config_hash=chash)
    return row


@dataclass
class StudyReport:
    """Reference row + per-eps rows, all carrying the config hash."""

    config_hash: str
    reference: dict
    rows: list
    metadata: dict
    extras: dict = field(default_factory=dict)

    def all_rows(self) -> list:
        return [self.reference] + self.rows


def run_convergence_study(config: StudyConfig) -> StudyReport:
    """Execute the full pipeline; see the module docstring for the stages."""
    cell, model = config.validate()
    tolerances, toggles = config.settings()
    cell_res = config.cell_resolution if config.cell_resolution else cell.resolution
    cache = cellproblems.HomDensityCache(
        step=config.quantization_step, resolution=cell_res, tol=tolerances["cell"], seed=config.seed)
    schedule = minimize.Schedule(outer_tol=tolerances["outer"], y_tol=tolerances["linear"],
                                 p_tol=tolerances["plastic"])

    y_ref, P_ref, min_J, ref_report = minimize.minimize_J_limit(
        cell, model, cache=cache, macro_elements=config.macro_elements, schedule=schedule)
    ref_bd = ref_report.breakdown
    solve_reports = {"reference": asdict(ref_report)}
    chash = config.hash()
    reference = _row(0.0, ref_bd, min_J, chash)

    rows = []
    artifacts = {"reference": (y_ref, P_ref), "rows": {}}
    prev = None
    for eps in config.eps_list:
        n = round(1.0 / eps)
        domain = microgeometry.build_micro_domain(cell, n, strip=config.strip)
        grid = domain.grid
        if prev is None:
            init = None
        else:
            y_prev, P_prev = prev
            init = (prolong_deformation(y_prev, grid), prolong_plastic(P_prev, grid))
        y, P, _, row_report = minimize.minimize_J_eps(domain, model, init=init, schedule=schedule)
        solve_reports[f"eps={eps!r}"] = asdict(row_report)
        prev = (y, P)
        artifacts["rows"][eps] = (domain, y, P)
        bd = row_report.breakdown

        ytilde = twoscale.extend_into_inclusions(domain, y)
        v = DeformationField(grid, y.values - ytilde.values)
        bd_v = energies.assemble_J_eps(domain, model, v, P)
        remainder = abs((bd.soft_elastic + bd.hardening_soft) - (bd_v.soft_elastic + bd_v.hardening_soft))

        poincare = twoscale.poincare_ratio(domain, _bump_field(grid))
        osc = DeformationField(grid, _oscillatory_values(grid.node_coords()))
        c0, c1 = twoscale.extension_constants(domain, osc)
        P_smooth = _smooth_plastic(grid, model.K_radius)
        hard_err = _hardening_continuity_error(domain, model, P_smooth)
        resid = _unfold_residual(domain, config.seed)

        if toggles["dissipation"]:
            P_bar = PlasticField.identity(grid, r_K=model.K_radius)
            d0 = energies.dissipation_integral(domain, P_bar, P, phase=0)
            d1 = energies.dissipation_integral(domain, P_bar, P, phase=1)
        else:
            d0 = d1 = 0.0

        rows.append(_row(eps, bd, min_J, chash, diss_soft=d0, diss_stiff=d1, remainder=remainder,
                         poincare=poincare, ext_const=max(c0, c1), hard_cont_err=hard_err,
                         unfold_resid=resid))

    extras = {}
    if toggles["recovery_check"]:
        eps_f = config.eps_list[-1]
        domain_f, y_f, P_f = artifacts["rows"][eps_f]

        def w_zero(x, z):
            return np.zeros_like(x)

        v_k = twoscale.build_recovery_sequence(domain_f, w_zero)
        bd_rec = energies.assemble_J_eps(domain_f, model, v_k, P_f)
        J0k = bd_rec.soft_elastic + bd_rec.hardening_soft
        J0_limit = ref_bd.soft_elastic + ref_bd.hardening_soft
        extras["recovery"] = {
            "eps": eps_f, "J0_eps": J0k, "J0_limit": J0_limit,
            "bound_ok": bool(J0k <= J0_limit + 0.05 * (1.0 + J0_limit)),
        }

    report = StudyReport(
        config_hash=chash,
        reference=reference,
        rows=rows,
        metadata={
            "config": asdict(config),
            "min_J": min_J,
            "solve_reports": solve_reports,
        },
        extras=extras,
    )
    report.artifacts = artifacts
    return report


# -- emission ---------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def emit_report(report: StudyReport, outdir) -> dict:
    """Write ``report.csv``, ``report_long.csv`` and ``report.json`` into
    ``outdir``; returns {"csv", "long", "json": path}.  Bytes are a pure
    function of the report contents.  Each file is first written beside its
    path under a temporary name, and the three are renamed into place only
    once every one is written and no path is a directory, so a run that
    cannot write its report leaves the previous set as it was."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output dir {outdir}: {exc}") from exc
    lines = [",".join(COLUMNS + ["config_hash"])]
    long_lines = ["eps,metric,value"]
    for row in report.all_rows():
        lines.append(",".join(_fmt(row[c]) for c in COLUMNS) + "," + row["config_hash"])
        long_lines.extend(f"{_fmt(row['eps'])},{c},{_fmt(row[c])}" for c in COLUMNS[1:])
    payload = {
        "config_hash": report.config_hash,
        "reference": report.reference,
        "rows": report.rows,
        "metadata": report.metadata,
        "extras": report.extras,
    }
    paths = {"csv": outdir / "report.csv", "long": outdir / "report_long.csv", "json": outdir / "report.json"}
    texts = {"csv": "\n".join(lines) + "\n", "long": "\n".join(long_lines) + "\n",
             "json": json.dumps(payload, sort_keys=True, indent=1)}
    temps = {key: path.with_name(f".{path.name}.{os.getpid()}.tmp") for key, path in paths.items()}
    try:
        for key, path in paths.items():
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            temps[key].write_text(texts[key])
        for key, path in paths.items():
            os.replace(temps[key], path)
    except OSError as exc:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return paths


def parse_report(csv_path) -> list:
    """Read back the CSV rows as dicts (exact round trip of the emitted floats)."""
    lines = Path(csv_path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        row = {}
        for name, cell in zip(header, cells):
            row[name] = cell if name == "config_hash" else float(cell)
        rows.append(row)
    return rows


def evaluate_acceptance(report: StudyReport, acceptance: dict) -> list:
    """Evaluate the config's acceptance block; returns [(name, ok)].  Every
    block ends with a ``converged`` check, which fails when a solve of
    ``metadata["solve_reports"]`` did not converge, and then names those
    solves: ``converged[reference, eps=0.25]``."""
    checks = []
    gaps = [row["gap"] for row in report.rows]
    if acceptance.get("require_gap_decreasing"):
        ok = all(b < a for a, b in zip(gaps, gaps[1:]))
        checks.append(("gap_decreasing", ok))
    if acceptance.get("max_final_gap") is not None:
        checks.append(("final_gap", gaps[-1] < acceptance["max_final_gap"]))
    if acceptance.get("max_gap_all") is not None:
        checks.append(("gap_all", all(g < acceptance["max_gap_all"] for g in gaps)))
    if acceptance.get("max_unfold_resid") is not None:
        checks.append(("unfold_resid", all(
            row["unfold_resid"] <= acceptance["max_unfold_resid"] for row in report.rows)))
    if acceptance.get("recovery_bound"):
        checks.append(("recovery_bound", report.extras["recovery"]["bound_ok"]))
    failed = [key for key, solve in report.metadata["solve_reports"].items() if not solve["converged"]]
    checks.append((f"converged[{', '.join(failed)}]" if failed else "converged", not failed))
    return checks


# -- CLI -------------------------------------------------------------------------


def _parse_matrix(text: str, dim: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"matrix {text!r}: {exc}") from exc
    if len(vals) != dim * dim:
        raise ConfigError(f"expected {dim*dim} entries, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"matrix {text!r}: entries must be finite")
    return np.array(vals).reshape(dim, dim)


def _cell_from_arg(arg: str) -> microgeometry.CellGeometry:
    """The cell of a CLI argument, ``builtin:NAME`` or a mask file path."""
    name = arg.removeprefix("builtin:")
    return _build_cell({"builtin": name} if name != arg else {"mask_file": arg})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hclab", description="high-contrast composite laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="convergence studies")
    study_sub = study.add_subparsers(dest="study_command", required=True)
    run = study_sub.add_parser("run", help="run a study from a JSON config")
    run.add_argument("config")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--output-dir", default=None)
    run.add_argument("--eps", type=float, nargs="+", default=None)
    run.add_argument("--macro-elements", type=int, default=None)
    run.add_argument("--cell-resolution", type=int, default=None)

    cellp = sub.add_parser("cell", help="cell problems")
    cell_sub = cellp.add_subparsers(dest="cell_command", required=True)
    qp = cell_sub.add_parser("qprime", help="quasiconvexified soft cell value")
    qp.add_argument("--cell", default="builtin:block4")
    qp.add_argument("--F", default=None)
    qp.add_argument("--G", default=None)
    qp.add_argument("--resolution", type=int, default=cellproblems.CELL_RESOLUTION)
    qp.add_argument("--formulation", default="over_Q0", choices=["over_Q0", "over_Q"])
    qp.add_argument("--soft", default="convex", choices=["convex", "twowell"])
    mc = cell_sub.add_parser("multicell", help="multi-cell stiff density")
    mc.add_argument("--cell", default="builtin:block4")
    mc.add_argument("--F", default=None)
    mc.add_argument("--G", default=None)
    mc.add_argument("--resolution", type=int, default=cellproblems.CELL_RESOLUTION)
    mc.add_argument("--lambdas", default="1,2")
    mc.add_argument("--gamma", type=float, default=1.0)

    audit = sub.add_parser("audit", help="assumption audits")
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)
    am = audit_sub.add_parser("model", help="audit the standing assumptions of a model")
    am.add_argument("--samples", type=int, default=materials.AUDIT_SAMPLES)
    am.add_argument("--seed", type=int, default=0)
    am.add_argument("--gamma", type=float, default=1.0)
    am.add_argument("--soft", default="convex", choices=["convex", "twowell"])

    geom = sub.add_parser("geom", help="geometry utilities")
    geom_sub = geom.add_subparsers(dest="geom_command", required=True)
    gc = geom_sub.add_parser("check", help="validate a cell mask and report measures")
    gc.add_argument("cell")
    gc.add_argument("--n-cells", type=int, default=None)
    gc.add_argument("--strip", type=float, default=0.5)
    return p


def main(argv=None) -> int:
    """Run one CLI command.  Exit code 0: done, and every acceptance or audit
    check passed; 1: a check failed; 2: the command could not run (a usage,
    config, file, geometry, material, cell-problem or grid error, or an
    energy that is not finite), reported as ``hclab: error: ...``."""
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except (ConfigError, IoFailure, microgeometry.GeometryError, materials.MaterialError,
            cellproblems.CellProblemError, FieldError, minimize.NonFiniteEnergy) as exc:
        print(f"hclab: error: {exc}", file=sys.stderr)
        return 2


def _run_command(args) -> int:
    if args.command == "study" and args.study_command == "run":
        # validated once, with the overrides applied, by run_convergence_study
        config = _read_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.output_dir is not None:
            config.output_dir = args.output_dir
        if args.eps is not None:
            config.eps_list = list(args.eps)
        if args.macro_elements is not None:
            config.macro_elements = args.macro_elements
        if args.cell_resolution is not None:
            config.cell_resolution = args.cell_resolution
        report = run_convergence_study(config)
        paths = emit_report(report, outdir=config.output_dir)
        print(f"reference min J = {report.metadata['min_J']:.8g}")
        for row in report.rows:
            print(f"eps={row['eps']:<8g} infJ={row['infJ']:.8g} gap={row['gap']:.3e}")
        for fmt, path in paths.items():
            print(f"wrote {fmt}: {path}")
        if config.acceptance:
            checks = evaluate_acceptance(report, config.acceptance)
            for name, ok in checks:
                print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
            return 0 if all(ok for _, ok in checks) else 1
        return 0

    if args.command == "cell":
        cell = _cell_from_arg(args.cell)
        d = cell.dim
        F = _parse_matrix(args.F, d) if args.F else np.zeros((d, d))
        G = _parse_matrix(args.G, d) if args.G else np.eye(d)
        if args.cell_command == "qprime":
            model = materials.default_material(dim=d, soft=args.soft)
            res = cellproblems.qprime_W0(cell, model.W_soft_limit, F, G,
                                         resolution=args.resolution, formulation=args.formulation)
            print(f"QW0 = {res.value:.10g}  (iterations {res.iterations}, residual {res.residual:.2e},"
                  f" converged {res.converged})")
            return 0
        if args.cell_command == "multicell":
            try:
                lambdas = tuple(int(v) for v in args.lambdas.split(","))
            except ValueError as exc:
                raise ConfigError(f"lambdas {args.lambdas!r}: {exc}") from exc
            stiff = materials.default_material(dim=d, gamma=args.gamma).W_stiff
            res = cellproblems.multicell_W1hom(cell, stiff, F, G, lambdas=lambdas,
                                               resolution=args.resolution)
            for lam, r in sorted(res.per_lambda.items()):
                print(f"lambda={lam}: {r.value:.10g} (converged {r.converged})")
            print(f"estimate = {res.estimate:.10g}")
            return 0

    if args.command == "audit" and args.audit_command == "model":
        model = materials.default_material(gamma=args.gamma, soft=args.soft)
        rep = materials.audit_assumptions(model, sample_count=args.samples, seed=args.seed)
        for name in sorted(rep.margins):
            print(f"{name:<18} margin {rep.margins[name]: .6e}")
        print(f"measured c_K = {rep.measured_cK:.6g}")
        print("PASS" if rep.is_pass else "FAIL")
        return 0 if rep.is_pass else 1

    if args.command == "geom" and args.geom_command == "check":
        cell = _cell_from_arg(args.cell)
        print(f"dim {cell.dim}, resolution {cell.resolution}, |soft| = {cell.vol_soft}"
              f" ({float(cell.vol_soft):.6g}), degenerate {cell.degenerate}")
        if args.n_cells is not None:
            domain = microgeometry.build_micro_domain(cell, args.n_cells, strip=args.strip)
            print(f"eps = 1/{args.n_cells}: |T| = {len(domain.translations)},"
                  f" |T_hat| = {len(domain.translations_hat)},"
                  f" soft measure = {domain.measure_soft()} ({float(domain.measure_soft()):.6g})")
        print("geometry OK")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
