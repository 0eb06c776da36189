import json
from pathlib import Path

import numpy as np
import pytest

from hclab import lab


def test_config_validation():
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
    lab.StudyConfig().validate()
    lab.StudyConfig(acceptance={"max_gap_all": 1e-3}).validate()
    lab.StudyConfig(acceptance={"recovery_bound": True, "require_gap_decreasing": True}).validate()


def test_load_config_rejects_unknown_top_level_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps_list": [0.25, 0.125], "lambdas": [1, 2]}))
    with pytest.raises(lab.ConfigError, match="lambdas"):
        lab.load_config(path)


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
    assert (tmp_path / "out" / "report.csv").exists()
