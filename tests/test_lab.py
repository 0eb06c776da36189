import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hclab import lab, microgeometry as mg
from hclab.fields import DeformationField

ROOT = Path(__file__).resolve().parents[1]


def test_config_validation(tmp_path):
    with pytest.raises(lab.ConfigError):
        lab.StudyConfig(eps_list=[0.3]).validate()  # not 1/int
    with pytest.raises(lab.ConfigError):
        lab.StudyConfig(eps_list=[0.125, 0.25]).validate()  # increasing
    with pytest.raises(lab.ConfigError):
        lab.StudyConfig(eps_list=[]).validate()
    with pytest.raises(lab.ConfigError):
        lab.StudyConfig(geometry={"mask_file": "/nonexistent.mask"}).validate()
    with pytest.raises(lab.ConfigError, match="max_final_gp"):
        lab.StudyConfig(acceptance={"max_final_gp": 0.1}).validate()  # a typo must not drop the gate
    with pytest.raises(lab.ConfigError, match="corection"):
        lab.StudyConfig(toggles={"dissipation": False, "corection": True}).validate()
    with pytest.raises(lab.ConfigError, match="correction stage"):
        lab.StudyConfig(toggles={"correction": True}).validate()  # would run without the stage
    with pytest.raises(lab.ConfigError, match="no check"):
        lab.StudyConfig(acceptance={}).validate()  # all([]) would pass it
    with pytest.raises(lab.ConfigError, match="plastik"):
        lab.StudyConfig(tolerances={"outer": 1e-8, "plastik": 1e-3}).validate()  # would run at 1e-7
    off = {"dissipation": False, "recovery_check": False, "correction": False}
    with pytest.raises(lab.ConfigError, match="recovery_check"):
        lab.StudyConfig(toggles=off, acceptance={"recovery_bound": True}).validate()  # never evaluated
    with pytest.raises(lab.ConfigError, match="two eps"):
        lab.StudyConfig(eps_list=[0.25], acceptance={"require_gap_decreasing": True}).validate()  # all([])
    with pytest.raises(lab.ConfigError, match="gama"):
        lab.StudyConfig(material={"gama": 2.0}).validate()  # would fail in default_material
    with pytest.raises(lab.ConfigError, match="mask_flie"):
        lab.StudyConfig(geometry={"builtin": "block4", "mask_flie": "x.mask"}).validate()  # would be ignored
    for geometry in ({}, {"builtin": "block4", "mask_file": "configs/default_study.json"}):
        with pytest.raises(lab.ConfigError, match="exactly one"):
            lab.StudyConfig(geometry=geometry).validate()
    for bad in ({"quantization_step": 0.0}, {"quantization_step": -0.01}, {"macro_elements": 0},
                {"strip": 0.0}, {"strip": -1.0}, {"cell_resolution": 6}, {"cell_resolution": 0},
                # np.random.default_rng rejects a negative seed, after the study's solves
                {"seed": -1},
                {"strip": math.inf}, {"quantization_step": math.inf},
                # a negative P-step tolerance ran every P-step to its full iteration budget
                {"tolerances": {"plastic": -1.0}}, {"tolerances": {"outer": 0.0}}):
        name = next(iter(bad))
        with pytest.raises(lab.ConfigError, match=name):
            lab.StudyConfig(**bad).validate()
    with pytest.raises(lab.ConfigError, match="multiple of the cell's resolution 8"):
        lab.StudyConfig(geometry={"builtin": "block8"}, cell_resolution=12).validate()
    # values of the wrong type or not finite: each would pass the checks above and fail after a
    # solve, or run as something else ("yes" is truthy; r_K = NaN switched the K projection off)
    for bad, name in (({"acceptance": {"max_final_gap": "0.1"}}, "acceptance.max_final_gap"),
                      ({"seed": 1.5}, "seed"), ({"toggles": {"dissipation": "yes"}}, "toggles.dissipation"),
                      ({"acceptance": {"recovery_bound": 1}}, "acceptance.recovery_bound"),
                      ({"macro_elements": True}, "macro_elements"), ({"strip": "0.5"}, "strip"),
                      ({"eps_list": [0.25, "0.125"]}, "eps_list"), ({"eps_list": "0.25"}, "eps_list"),
                      ({"material": {"gamma": "2"}}, "material.gamma"), ({"material": {"soft": 1}}, "material.soft"),
                      ({"tolerances": {"outer": None}}, "tolerances.outer"), ({"toggles": []}, "toggles"),
                      ({"geometry": {"builtin": 4}}, "geometry.builtin"), ({"output_dir": 3}, "output_dir"),
                      ({"cell_resolution": 8.0}, "cell_resolution"),
                      ({"material": {"r_K": math.nan}}, "material.r_K must be a finite number"),
                      ({"eps_list": [0.25, math.nan]}, "eps_list entry must be a finite number"),
                      ({"tolerances": {"cell": -math.inf}}, "tolerances.cell must be a finite number"),
                      ({"acceptance": {"max_final_gap": math.nan}}, "acceptance.max_final_gap")):
        with pytest.raises(lab.ConfigError, match=name):
            lab.StudyConfig(**bad).validate()
    with pytest.raises(lab.ConfigError, match="reciprocal"):
        lab.StudyConfig(eps_list=[0.0]).validate()  # not a ZeroDivisionError
    # no inclusion clears the strip at eps = 1/2: the study solved the reference before it failed
    for geometry, eps_list in (("fiber3d", [1 / 2, 1 / 3]), ("block4", [1 / 2, 1 / 4])):
        with pytest.raises(lab.ConfigError, match="eps 0.5: no inclusion fits: strip 0.5 at eps=1/2"):
            lab.StudyConfig(geometry={"builtin": geometry}, eps_list=eps_list).validate()
    lab.StudyConfig(geometry={"builtin": "block4"}, eps_list=[1 / 2], strip=0.2).validate()
    lab.StudyConfig(geometry={"builtin": "stiff4"}, eps_list=[1 / 2]).validate()  # no inclusion to fit
    # values default_material rejects: a MaterialError at the start of the run before
    with pytest.raises(lab.ConfigError, match="Morrey"):
        lab.StudyConfig(geometry={"builtin": "fiber3d"}, material={"q": 3.0},
                        eps_list=[1 / 3]).validate()  # q must exceed d = 3
    with pytest.raises(lab.ConfigError, match="bogus"):
        lab.StudyConfig(material={"soft": "bogus"}).validate()
    with pytest.raises(lab.ConfigError, match="growth constants"):
        lab.StudyConfig(material={"gamma": 1e308}).validate()  # finite, but c2 = 2 gamma + 2 is not
    path = tmp_path / "cfg.json"
    for text, match in (("7", "JSON object"), ("[0.25]", "JSON object"), ("{", "not valid JSON"),
                        ('{"material": {"r_K": NaN}}', "material.r_K"),  # Python's json reads NaN
                        ('{"strip": Infinity}', "strip")):
        path.write_text(text)  # a raw TypeError or JSONDecodeError before
        with pytest.raises(lab.ConfigError, match=match):
            lab.load_config(path)
    lab.StudyConfig().validate()
    for cell_resolution in (4, 8, 32):
        lab.StudyConfig(cell_resolution=cell_resolution).validate()
    lab.StudyConfig(acceptance={"max_gap_all": 1e-3}).validate()
    lab.StudyConfig(acceptance={"recovery_bound": True, "require_gap_decreasing": True}).validate()


def test_config_rejects_a_geometry_that_cannot_be_built(tmp_path):
    """Without ``cell_resolution`` the cell is still built in ``validate``:
    an unknown builtin and a malformed mask file are config errors, before a
    study starts."""
    bad_mask = tmp_path / "short.mask"
    bad_mask.write_text("2 4\n0000\n0110\n")  # two of four data lines
    for geometry, match in (({"builtin": "blok4"}, "blok4"), ({"mask_file": str(bad_mask)}, "data lines")):
        with pytest.raises(lab.ConfigError, match=match):
            lab.StudyConfig(geometry=geometry).validate()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometry": geometry}))
        with pytest.raises(lab.ConfigError, match=match):
            lab.load_config(path)


def test_load_config_rejects_unknown_top_level_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps_list": [0.25, 0.125], "lambdas": [1, 2]}))
    with pytest.raises(lab.ConfigError, match="lambdas"):
        lab.load_config(path)


_SMALL = st.floats(1e-12, 1e-2)
_CONFIG_VALUES = {
    "geometry": st.fixed_dictionaries({"builtin": st.sampled_from(["block4", "block8", "stiff4", "fiber3d"])}),
    "material": st.fixed_dictionaries({}, optional={
        "gamma": st.floats(0.0, 4.0), "soft": st.sampled_from(["convex", "twowell"]), "h0": st.floats(0.0, 1.0),
        "h1": st.floats(0.1, 10.0), "r_K": st.floats(0.05, 0.5), "q": st.floats(3.0, 6.0, exclude_min=True),
        "twowell_amplitude": st.floats(0.0, 1.0), "twowell_delta": st.floats(0.01, 1.0)}),
    "eps_list": st.sets(st.integers(2, 64), min_size=1, max_size=4).map(
        lambda ns: [1.0 / n for n in sorted(ns)]),
    "strip": st.floats(0.0, 1.0, exclude_min=True),
    "macro_elements": st.integers(1, 16),
    "cell_resolution": st.none() | st.integers(1, 8),  # times the cell's resolution, see _valid_config
    "quantization_step": st.floats(1e-3, 0.1),
    "tolerances": st.fixed_dictionaries({}, optional={key: _SMALL for key in lab.TOLERANCE_KEYS}),
    "seed": st.integers(0, 2**31),
    "toggles": st.fixed_dictionaries({}, optional={
        "dissipation": st.booleans(), "recovery_check": st.booleans(), "correction": st.just(False)}),
    "output_dir": st.sampled_from(["out", "out/a", "runs/b"]),
    "acceptance": st.none() | st.fixed_dictionaries({}, optional={
        "require_gap_decreasing": st.booleans(), "max_final_gap": st.floats(0.0, 1.0),
        "max_gap_all": st.floats(0.0, 1.0), "max_unfold_resid": _SMALL,
        "recovery_bound": st.booleans()}).filter(bool),
}


def _inclusions_fit(cell, eps_list, strip) -> bool:
    """Whether ``microgeometry.admitted_cells`` admits an inclusion at every eps."""
    try:
        for eps in eps_list:
            mg.admitted_cells(cell, round(1.0 / eps), strip)
    except mg.NoInclusions:
        return False
    return True


@st.composite
def _valid_config(draw):
    """A config naming a random subset of the known keys with values that
    validate; the two acceptance checks that need another setting are
    switched off when that setting is missing, a cell resolution is drawn
    as a multiple of the geometry's, and an eps list at which the strip
    leaves no inclusion is rejected."""
    data = draw(st.fixed_dictionaries({}, optional=_CONFIG_VALUES))
    default = lab.StudyConfig()
    cell = lab._build_cell(data.get("geometry", default.geometry))
    assume(_inclusions_fit(cell, data.get("eps_list", default.eps_list), data.get("strip", default.strip)))
    if data.get("cell_resolution") is not None:
        data["cell_resolution"] *= cell.resolution
    acceptance = data.get("acceptance") or {}
    if not data.get("toggles", {}).get("recovery_check", True) and "recovery_bound" in acceptance:
        acceptance["recovery_bound"] = False
    if len(data.get("eps_list", default.eps_list)) < 2 and "require_gap_decreasing" in acceptance:
        acceptance["require_gap_decreasing"] = False
    return data


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=_valid_config())
def test_load_config_round_trips_valid_subsets(tmp_path_factory, data):
    """Any valid subset of the known keys loads back as written, with every
    key left out at its default."""
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(data))
    loaded = lab.load_config(path)
    default = lab.StudyConfig()
    for f in fields(lab.StudyConfig):
        assert getattr(loaded, f.name) == data.get(f.name, getattr(default, f.name))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(block=st.sampled_from([None, "geometry", "material", "tolerances", "toggles", "acceptance"]),
       key=st.text(st.characters(codec="utf-8"), min_size=1, max_size=16))
def test_load_config_names_an_unknown_key(tmp_path_factory, block, key):
    """A key outside the known set of the top level or of the geometry,
    material, tolerances, toggles or acceptance block is a ConfigError that
    names it."""
    known = {None: [f.name for f in fields(lab.StudyConfig)], "geometry": lab.GEOMETRY_KEYS,
             "material": lab.MATERIAL_KEYS, "tolerances": lab.TOLERANCE_KEYS,
             "toggles": lab.TOGGLE_KEYS, "acceptance": lab.ACCEPTANCE_KEYS}[block]
    assume(key not in known)
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps({key: 1} if block is None else {block: {key: 1}}))
    with pytest.raises(lab.ConfigError) as err:
        lab.load_config(path)
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_stock_report_matches_golden(config, tmp_path):
    """A stock config reproduces its committed report.csv: the config hash
    exactly and every numeric column to rel 1e-12, which catches a moved
    solver tolerance (1e-8) but not last-ulp platform noise."""
    golden = Path(__file__).parent / "golden" / f"{config.stem.removesuffix('_study')}_report.csv"
    report = lab.run_convergence_study(lab.load_config(config))
    got = lab.parse_report(lab.emit_report(report, outdir=tmp_path)["csv"])
    want = lab.parse_report(golden)
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert got_row.keys() == want_row.keys()
        assert got_row["config_hash"] == want_row["config_hash"]
        for column in lab.COLUMNS:
            assert math.isclose(got_row[column], want_row[column], rel_tol=1e-12, abs_tol=0.0), column


def test_config_hash_ignores_output_dir():
    a = lab.StudyConfig(output_dir="x")
    b = lab.StudyConfig(output_dir="y")
    assert a.hash() == b.hash()
    c = lab.StudyConfig(seed=99)
    assert c.hash() != a.hash()


def test_load_config_roundtrip(tmp_path):
    cfg = lab.StudyConfig(eps_list=[0.25, 0.125], seed=7)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps_list": [0.25, 0.125], "seed": 7}))
    loaded = lab.load_config(path)
    assert loaded.eps_list == [0.25, 0.125]
    assert loaded.seed == 7


def test_stock_configs_load_and_build():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert paths
    for path in paths:
        cfg = lab.load_config(path)
        cell = lab._build_cell(cfg.geometry)
        lab._build_model(cfg.material, cell.dim)


@pytest.fixture(scope="module")
def control_report():
    cfg = lab.StudyConfig(geometry={"builtin": "stiff4"}, eps_list=[0.25, 0.125],
                          toggles={"dissipation": True, "recovery_check": False, "correction": False})
    return cfg, lab.run_convergence_study(cfg)


def test_csv_format_contract(control_report, tmp_path):
    cfg, report = control_report
    paths = lab.emit_report(report, outdir=tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:15] == lab.COLUMNS  # fixed column order
    assert header[15] == "config_hash"
    assert len(header) == 16
    assert len(lines) == 1 + 1 + len(cfg.eps_list)  # header + reference + rows
    # long format emitted alongside
    long_lines = (tmp_path / "report_long.csv").read_text().splitlines()
    assert long_lines[0] == "eps,metric,value"


def test_emit_parse_roundtrip(control_report, tmp_path):
    cfg, report = control_report
    paths = lab.emit_report(report, outdir=tmp_path)
    rows = lab.parse_report(paths["csv"])
    orig = report.all_rows()
    assert len(rows) == len(orig)
    for got, want in zip(rows, orig):
        for key in got:
            assert got[key] == want[key]


def test_emit_deterministic_bytes(control_report, tmp_path):
    cfg, report = control_report
    p1 = lab.emit_report(report, outdir=tmp_path / "a")
    p2 = lab.emit_report(report, outdir=tmp_path / "b")
    assert p1["csv"].read_bytes() == p2["csv"].read_bytes()
    assert p1["json"].read_bytes() == p2["json"].read_bytes()


def test_json_mirror_complete(control_report, tmp_path):
    cfg, report = control_report
    paths = lab.emit_report(report, outdir=tmp_path)
    payload = json.loads(paths["json"].read_text())
    assert payload["config_hash"] == report.config_hash
    assert payload["metadata"]["config"]["seed"] == cfg.seed
    assert len(payload["rows"]) == len(cfg.eps_list)


def test_control_rows_have_dissipation_columns(control_report):
    cfg, report = control_report
    for row in report.rows:
        assert row["diss_soft"] == 0.0  # no soft phase in the control
        assert row["diss_stiff"] >= 0.0


def test_evaluate_acceptance(control_report):
    cfg, report = control_report
    checks = lab.evaluate_acceptance(report, {
        "max_final_gap": 1e-3, "max_gap_all": 1e-3, "max_unfold_resid": 1e-12})
    assert all(ok for _, ok in checks)
    # the control gaps are not strictly decreasing (identically zero)
    checks = lab.evaluate_acceptance(report, {"require_gap_decreasing": True})
    assert not all(ok for _, ok in checks)


# A two-eps block4 study: gaps 0.32 and 0.18, unfolding residuals 0, recovery J0 0.014 under its bound 0.076.
_BLOCK4_ACCEPTANCE = {"require_gap_decreasing": True, "max_final_gap": 0.25, "max_gap_all": 0.35,
                      "max_unfold_resid": 1e-12, "recovery_bound": True}


def _shift_the_reference(monkeypatch):
    solve = lab.minimize.minimize_J_limit

    def shifted(*args, **kwargs):
        y, P, value, report = solve(*args, **kwargs)
        return y, P, value + 10.0, report

    monkeypatch.setattr(lab.minimize, "minimize_J_limit", shifted)


def _perturb_one_unfolded_sample(monkeypatch):
    unfold = lab.twoscale.unfold

    def perturbed(domain, y):
        field = unfold(domain, y)
        field.samples[0, 0, 0] += 1e-6
        return field

    monkeypatch.setattr(lab.twoscale, "unfold", perturbed)


def _large_recovery_field(monkeypatch):
    build = lab.twoscale.build_recovery_sequence

    def large(domain, w):
        v = build(domain, w)
        return DeformationField(v.grid, v.values + lab._random_field(v.grid, 0).values)

    monkeypatch.setattr(lab.twoscale, "build_recovery_sequence", large)


@pytest.mark.parametrize("perturb, failing", [
    (None, set()),
    (_shift_the_reference, {"gap_decreasing", "final_gap", "gap_all"}),
    (_perturb_one_unfolded_sample, {"unfold_resid"}),
    (_large_recovery_field, {"recovery_bound"}),
], ids=["unperturbed", "reference", "unfolding", "recovery"])
def test_each_acceptance_key_fails_on_a_perturbed_run(monkeypatch, perturb, failing):
    """Each acceptance key fails when the quantity it checks is wrong, its
    bound unchanged: a reference min J shifted by 10 fails the three gap
    keys, one unfolded sample off by 1e-6 fails ``unfold_resid``, and a
    recovery field plus a random field fails ``recovery_bound``.  The same
    study unperturbed passes every key."""
    if perturb is not None:
        perturb(monkeypatch)
    cfg = lab.StudyConfig(eps_list=[0.25, 0.125], acceptance=dict(_BLOCK4_ACCEPTANCE))
    checks = lab.evaluate_acceptance(lab.run_convergence_study(cfg), cfg.acceptance)
    assert [name for name, _ in checks] == ["gap_decreasing", "final_gap", "gap_all", "unfold_resid",
                                            "recovery_bound", "converged"]
    assert {name for name, ok in checks if not ok} == failing


def test_acceptance_names_the_unconverged_solves(monkeypatch):
    """Every acceptance block ends with a ``converged`` check.  With one outer
    round the eps solve stops unconverged (the reference converges in one):
    the check fails and names that solve.  Unstarved, the same study passes."""
    schedule = lab.minimize.Schedule
    monkeypatch.setattr(lab.minimize, "Schedule", lambda **kw: schedule(outer_iters=1, **kw))
    cfg = lab.StudyConfig(eps_list=[0.25], toggles={"recovery_check": False},
                          acceptance={"max_unfold_resid": 1e-12})
    report = lab.run_convergence_study(cfg)
    solves = report.metadata["solve_reports"]
    assert solves["reference"]["converged"] and not solves["eps=0.25"]["converged"]
    assert lab.evaluate_acceptance(report, cfg.acceptance) == [("unfold_resid", True),
                                                               ("converged[eps=0.25]", False)]
    monkeypatch.setattr(lab.minimize, "Schedule", schedule)
    assert lab.evaluate_acceptance(lab.run_convergence_study(cfg), cfg.acceptance) == [("unfold_resid", True),
                                                                                      ("converged", True)]


def test_acceptance_names_a_solve_whose_p_step_ran_out(monkeypatch):
    """A composite P-step cut short by its iteration budget makes its solve
    unconverged, even when the outer rounds settle: the ``converged`` check
    fails and names the solve.  The limit P-step keeps its own budget, so the
    reference still converges."""
    schedule = lab.minimize.Schedule
    monkeypatch.setattr(lab.minimize, "Schedule", lambda **kw: schedule(p_iters=1, **kw))
    cfg = lab.StudyConfig(eps_list=[0.25], toggles={"recovery_check": False},
                          acceptance={"max_unfold_resid": 1e-12})
    report = lab.run_convergence_study(cfg)
    solves = report.metadata["solve_reports"]
    assert len(solves["eps=0.25"]["inner_iterations"]) < schedule().outer_iters  # the rounds settled
    assert solves["reference"]["converged"] and not solves["eps=0.25"]["converged"]
    assert lab.evaluate_acceptance(report, cfg.acceptance)[-1] == ("converged[eps=0.25]", False)


def test_config_tolerance_defaults_are_the_solvers_defaults():
    tolerances = lab.StudyConfig().tolerances
    schedule, cache = lab.minimize.Schedule(), lab.cellproblems.HomDensityCache()
    assert tolerances == {"outer": schedule.outer_tol, "linear": schedule.y_tol, "cell": cache.tol,
                          "plastic": schedule.p_tol}
    assert lab.StudyConfig().quantization_step == cache.step
    assert lab.StudyConfig().toggles == lab.TOGGLE_DEFAULTS


def test_a_study_builds_its_cell_once(monkeypatch):
    """``validate`` hands the study the cell it built, so a study checks its
    cell's connectivity once."""
    built = []
    build = lab.microgeometry.build_unit_cell
    monkeypatch.setattr(lab.microgeometry, "build_unit_cell", lambda *args: built.append(args) or build(*args))
    lab.run_convergence_study(lab.StudyConfig(eps_list=[0.25], toggles={"recovery_check": False}))
    assert len(built) == 1


def test_study_run_through_the_cli_builds_its_cell_once(monkeypatch, tmp_path):
    """``hclab study run`` applies its overrides before the one validation,
    so a study run through the CLI builds its cell once too."""
    built = []
    build = lab.microgeometry.build_unit_cell
    monkeypatch.setattr(lab.microgeometry, "build_unit_cell", lambda *args: built.append(args) or build(*args))
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"eps_list": [0.25, 0.125], "toggles": {"recovery_check": False}}))
    assert lab.main(["study", "run", str(config), "--eps", "0.25", "--output-dir", str(tmp_path / "out")]) == 0
    assert len(built) == 1
    assert lab.parse_report(tmp_path / "out" / "report.csv")[-1]["eps"] == 0.25


def test_cli_audit_samples_default_is_the_librarys():
    args = lab.build_parser().parse_args(["audit", "model"])
    assert args.samples == lab.materials.AUDIT_SAMPLES
    assert inspect.signature(lab.materials.audit_assumptions).parameters["sample_count"].default == args.samples


class _Stop(Exception):
    pass


def test_partial_tolerance_block_runs_with_the_defaults_for_the_rest(monkeypatch):
    """A tolerances block that names one key: the study runs with that value
    and the defaults for the other three."""
    seen = {}

    def reference_solve(cell, model, cache, macro_elements, schedule):
        seen.update(cell=cache.tol, outer=schedule.outer_tol, linear=schedule.y_tol, plastic=schedule.p_tol)
        raise _Stop

    monkeypatch.setattr(lab.minimize, "minimize_J_limit", reference_solve)
    with pytest.raises(_Stop):
        lab.run_convergence_study(lab.StudyConfig(tolerances={"plastic": 1e-5}))
    assert seen == {**lab.TOLERANCE_DEFAULTS, "plastic": 1e-5}


def test_cli_geom_and_audit(capsys):
    assert lab.main(["geom", "check", "builtin:block4", "--n-cells", "4"]) == 0
    out = capsys.readouterr().out
    assert "|T| = 4" in out
    assert lab.main(["audit", "model", "--samples", "500"]) == 0


def test_public_names_and_readme_cli_parse():
    """Every name of the public API imports, and every command of the
    README's CLI block parses."""
    import hclab

    for name in hclab.__all__:
        assert getattr(hclab, name) is not None
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines() if line.startswith("hclab ")]
    assert len(commands) >= 6
    parser = lab.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]


def test_cli_cell_commands(capsys):
    assert lab.main(["cell", "qprime", "--F", "0,0,0,0", "--resolution", "8"]) == 0
    assert "QW0" in capsys.readouterr().out
    assert lab.main(["cell", "multicell", "--F", "0.1,0,0,0", "--resolution", "4",
                     "--lambdas", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "lambda=1" in out and "estimate" in out


def test_cli_study_run_rejects_an_empty_eps_list(capsys):
    """``--eps`` with no values is a usage error, not a silent no-op."""
    with pytest.raises(SystemExit) as exc:
        lab.main(["study", "run", str(ROOT / "configs" / "control_study.json"), "--eps"])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err


def test_cli_errors_exit_2_with_a_message(tmp_path, capsys):
    """A command that cannot run exits 2 with one ``hclab: error:`` line,
    apart from exit 1 for a failed check."""
    bad_eps = tmp_path / "bad_eps.json"
    bad_eps.write_text(json.dumps({"eps_list": [0.3]}))
    # h1 < 0 makes the P-step metric 2 h1 M + L indefinite, and its CG ran for minutes
    negative_h1 = tmp_path / "negative_h1.json"
    negative_h1.write_text(json.dumps({"eps_list": [0.25, 0.125], "material": {"h1": -5.0}}))
    # mask files a config or the CLI names: a directory, bytes that are not text, and a pixel
    # that is neither 0 nor 1, which must not count as stiff
    mask_dir = tmp_path / "masks"
    mask_dir.mkdir()
    dir_mask = tmp_path / "dir_mask.json"
    dir_mask.write_text(json.dumps({"geometry": {"mask_file": str(mask_dir)}}))
    binary = tmp_path / "binary.mask"
    binary.write_bytes(b"2 4\n\xff\xfe\x00\x01\n")
    letter = tmp_path / "letter.mask"
    letter.write_text("2 4\n0000\n000x\n0000\n0000\n")
    negative_seed = tmp_path / "negative_seed.json"
    negative_seed.write_text(json.dumps({"seed": -1}))
    # a report that cannot be written: report.csv is a directory
    blocked = tmp_path / "blocked"
    (blocked / "report.csv").mkdir(parents=True)
    fast = tmp_path / "fast.json"
    fast.write_text(json.dumps({"geometry": {"builtin": "stiff4"}, "eps_list": [0.25],
                                "toggles": {"dissipation": False, "recovery_check": False, "correction": False}}))
    for argv, match in ((["study", "run", str(tmp_path / "missing.json")], "missing.json"),
                        (["study", "run", str(negative_seed)], "seed must be >= 0"),
                        (["study", "run", str(ROOT / "configs" / "default_study.json"), "--seed", "-1"],
                         "seed must be >= 0"),
                        (["audit", "model", "--seed", "-1"], "seed must be >= 0"),
                        (["study", "run", str(fast), "--output-dir", str(blocked)], "cannot write"),
                        (["study", "run", str(bad_eps)], "eps 0.3"),
                        (["study", "run", str(negative_h1)], "h1 must be nonnegative"),
                        (["study", "run", str(dir_mask)], "cannot read cell mask"),
                        (["geom", "check", str(mask_dir)], "cannot read cell mask"),
                        (["geom", "check", str(binary)], "is not text"),
                        (["geom", "check", str(letter)], "line 3 '000x'"),
                        (["cell", "qprime", "--F", "1,2,3"], "expected 4 entries"),
                        (["cell", "qprime", "--F", "nan,0,0,0", "--resolution", "4"], "must be finite"),
                        (["cell", "multicell", "--G", "1,0,0,inf"], "must be finite"),
                        (["geom", "check", str(tmp_path / "missing.mask")], "missing.mask"),
                        (["geom", "check", "builtin:blok4"], "blok4"),
                        (["geom", "check", "builtin:block4", "--n-cells", "0"], "n_cells must be >= 2"),
                        (["audit", "model", "--gamma", "-5"], "growth constants"),
                        (["audit", "model", "--samples", "0"], "sample_count"),
                        (["cell", "qprime", "--resolution", "6"], "multiple of the cell resolution"),
                        (["cell", "qprime", "--G", "0,0,0,0"], "singular"),
                        (["cell", "multicell", "--lambdas", "0"], "positive integers"),
                        (["cell", "multicell", "--lambdas", "a"], "lambdas 'a'"),
                        (["cell", "multicell", "--resolution", "0"], "n_el"),
                        (["cell", "multicell", "--gamma", "nan"], "growth constants"),
                        (["cell", "multicell", "--gamma", "inf"], "growth constants"),
                        (["cell", "multicell", "--gamma", "1e308"], "growth constants")):
        assert lab.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hclab: error: ") and match in err and "Traceback" not in err


def test_a_report_that_cannot_be_written_leaves_the_previous_set(tmp_path, capsys):
    """A stiff4 study is written, then run again with --macro-elements 4
    after ``report_long.csv`` was replaced by a directory: the run exits 2,
    the previous ``report.csv`` and ``report.json`` keep their bytes, and no
    temporary file is left behind."""
    config = tmp_path / "stiff4.json"
    config.write_text(json.dumps({"geometry": {"builtin": "stiff4"}, "eps_list": [0.25],
                                  "toggles": {"dissipation": False, "recovery_check": False}}))
    out = tmp_path / "out"
    assert lab.main(["study", "run", str(config), "--output-dir", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in ("report.csv", "report.json")}
    (out / "report_long.csv").unlink()
    (out / "report_long.csv").mkdir()
    capsys.readouterr()
    assert lab.main(["study", "run", str(config), "--output-dir", str(out), "--macro-elements", "4"]) == 2
    assert capsys.readouterr().err.startswith(f"hclab: error: cannot write {out / 'report_long.csv'}")
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json", "report_long.csv"]


def test_cli_eps_without_an_inclusion_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    """The stock config on the fiber3d cell at eps 1/2, 1/3: no inclusion
    clears the strip at eps = 1/2, so the study exits 2 with one line that
    names that eps, before the reference solve."""
    config = json.loads((ROOT / "configs" / "default_study.json").read_text())
    config.update(geometry={"builtin": "fiber3d"}, eps_list=[1 / 2, 1 / 3])
    del config["acceptance"]
    path = tmp_path / "fiber3d.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(lab.minimize, "minimize_J_limit", lambda *args, **kwargs: pytest.fail("reference solved"))
    assert lab.main(["study", "run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "hclab: error: eps 0.5: no inclusion fits: strip 0.5 at eps=1/2 excludes every cell"]
    assert not (tmp_path / "out").exists()


def _huge_q_config(tmp_path):
    path = tmp_path / "huge_q.json"
    path.write_text(json.dumps({"eps_list": [0.25], "material": {"q": 1e300},
                                "output_dir": str(tmp_path / "out")}))
    return path


def test_cli_non_finite_energy_exits_2_with_a_message(tmp_path, capsys):
    """q = 1e300 is finite and exceeds d, so the model accepts it, but the
    |grad P|^q term overflows in the first P-step: the study exits 2 with one
    ``hclab: error:`` line, not 1 (a failed check) with a traceback, and the
    overflow raises no RuntimeWarning (the suite makes one an error)."""
    assert lab.main(["study", "run", str(_huge_q_config(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hclab: error: ") and "energy is not finite" in err and "Traceback" not in err


def test_cli_non_finite_energy_exits_2_under_runtime_warnings_as_errors(tmp_path):
    """The same study in a fresh interpreter under ``-W
    error::RuntimeWarning``, as CI runs every study: exit code 2 and one
    stderr line, with no RuntimeWarning printed or raised on the way."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hclab", "study", "run", str(_huge_q_config(tmp_path))],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["hclab: error: P-step energy is not finite"]
    assert "RuntimeWarning" not in proc.stderr + proc.stdout


def test_cli_study_run_exit_code_1_on_a_failed_check(tmp_path, capsys):
    cfg = {
        "geometry": {"builtin": "stiff4"},
        "eps_list": [0.25],
        "toggles": {"dissipation": False, "recovery_check": False, "correction": False},
        "acceptance": {"max_final_gap": 0.0},  # gap < 0 cannot hold
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    assert lab.main(["study", "run", str(path)]) == 1
    assert "acceptance final_gap: FAIL" in capsys.readouterr().out


def test_cli_study_run_with_acceptance(tmp_path, capsys):
    cfg = {
        "geometry": {"builtin": "stiff4"},
        "eps_list": [0.25],
        "toggles": {"dissipation": False, "recovery_check": False, "correction": False},
        "acceptance": {"max_final_gap": 1e-3, "max_unfold_resid": 1e-12},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    assert lab.main(["study", "run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "acceptance final_gap: PASS" in out
    assert "acceptance converged: PASS" in out
    assert (tmp_path / "out" / "report.csv").exists()
