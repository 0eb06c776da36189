"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here.  Criteria that need minimizer sequences share
the session-scoped default study (convex density, centered-block geometry,
eps in {1/4, 1/8, 1/16}) and its homogeneous control.
"""

import time

import numpy as np
import pytest

from hclab import cellproblems as cp, energies, lab, materials, microgeometry as mg, slgeometry as sg, twoscale as ts
from hclab.fields import DeformationField, Grid, PlasticField


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}{'  ' + detail if detail else ''}")
    return ok


@pytest.fixture(scope="module")
def default_study(tmp_path_factory):
    cfg = lab.StudyConfig(output_dir=str(tmp_path_factory.mktemp("default")))
    report = lab.run_convergence_study(cfg)
    return cfg, report


@pytest.fixture(scope="module")
def control_study(tmp_path_factory):
    cfg = lab.StudyConfig(geometry={"builtin": "stiff4"},
                          toggles={"dissipation": False, "recovery_check": False, "correction": False},
                          output_dir=str(tmp_path_factory.mktemp("control")))
    report = lab.run_convergence_study(cfg)
    return cfg, report


def _sample_K_matrices(rng, count, r_K=0.3, dim=2):
    coeffs = rng.standard_normal((count, dim * dim - 1))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    coeffs *= r_K * rng.random((count, 1))
    return sg.exp_batch(sg.coeffs_to_matrices(coeffs, dim))


def test_criterion_01_zero_cell_value(capsys):
    """Convex |F|^2 soft density: QW0(0, G) vanishes for G in K^{-1}."""
    cell = mg.builtin_cell("block4")
    soft = materials.FrozenSoft(materials.SoftConvexFamily(), 0.0)
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for P in _sample_K_matrices(rng, 20):
        G = np.linalg.inv(P)
        res = cp.qprime_W0(cell, soft, np.zeros((2, 2)), G, resolution=16)
        worst = max(worst, abs(res.value) / (1.0 + float(np.sum(G * G))))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    assert _report("criterion-01 zero-contribution cell value", ok,
                   f"worst normalized value {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_growth_sandwich(capsys):
    cell = mg.builtin_cell("block4")
    rng = np.random.default_rng(102)
    conv = materials.default_material(dim=2)
    tw = materials.default_material(dim=2, soft="twowell")
    cases = [(conv.W_soft_limit, conv.growth_constants[0], conv.growth_constants[1], 40),
             (tw.W_soft_limit, tw.growth_constants[0], tw.growth_constants[1], 10)]
    ok = True
    for W0, c1, c2, count in cases:
        for _ in range(count):
            F = 0.8 * rng.standard_normal((2, 2))
            G = _sample_K_matrices(rng, 1)[0]
            v = cp.qprime_W0(cell, W0, F, G, resolution=8, restarts=2, seed=2).value
            fg2 = float(np.sum((F @ G) ** 2))
            tol = 1e-6 * (1.0 + fg2)
            ok = ok and (v >= c1 * fg2 - tol) and (v <= c2 * (fg2 + 1.0) + tol)
    assert _report("criterion-02 growth sandwich", ok)


def test_criterion_03_formulation_agreement(capsys):
    cell = mg.builtin_cell("block4")
    soft = materials.default_material(dim=2).W_soft_limit
    rng = np.random.default_rng(103)
    tol_solver = 1e-8
    worst = 0.0
    for _ in range(20):
        F = 0.6 * rng.standard_normal((2, 2))
        G = _sample_K_matrices(rng, 1)[0]
        a = cp.qprime_W0(cell, soft, F, G, resolution=8, formulation="over_Q", tol=tol_solver)
        b = cp.qprime_W0(cell, soft, F, G, resolution=8, formulation="over_Q0", tol=tol_solver)
        worst = max(worst, abs(a.value - b.value))
    ok = worst <= 2.0 * tol_solver
    assert _report("criterion-03 formulation agreement", ok, f"worst gap {worst:.2e}")


def test_criterion_04_unfolding_identities(capsys):
    cell = mg.builtin_cell("block4")
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (4, 8):
        domain = mg.build_micro_domain(cell, n, strip=0.5)
        grid = Grid(2, domain.n_el)
        for _ in range(10):
            y = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)))
            tsf = ts.unfold(domain, y)
            worst = max(worst, abs(grid.lattice_norm_sq(y.values) - tsf.norm_sq()))
            lhs = ts.unfold_scaled_gradients(domain, y)
            worst = max(worst, float(np.abs(lhs - tsf.micro_gradients()).max()))
    ok = worst <= 1e-12
    assert _report("criterion-04 unfolding identities", ok, f"worst residual {worst:.2e}")


def test_criterion_05_poincare_extension_stability(capsys):
    cell = mg.builtin_cell("block4")
    poin, ext = [], []
    for n in (4, 8, 16):
        domain = mg.build_micro_domain(cell, n, strip=0.5)
        grid = Grid(2, domain.n_el)
        poin.append(ts.poincare_ratio(domain, lab._bump_field(grid)))
        osc = DeformationField(grid, lab._oscillatory_values(grid.node_coords()))
        c0, c1 = ts.extension_constants(domain, osc)
        ext.append(max(c0, c1))
    vp = max(poin) / min(poin) - 1.0
    ve = max(ext) / min(ext) - 1.0
    ok = vp < 0.25 and ve < 0.25
    assert _report("criterion-05 Poincare/extension stability", ok,
                   f"poincare variation {vp:.1%}, extension variation {ve:.1%}")


def test_criterion_06_hardening_continuity(capsys):
    cell = mg.builtin_cell("block4")
    model = materials.default_material(dim=2)
    consts = []
    for n in (4, 8, 16):
        domain = mg.build_micro_domain(cell, n, strip=0.5)
        grid = Grid(2, domain.n_el)
        P = lab._smooth_plastic(grid, model.K_radius)
        err = lab._hardening_continuity_error(domain, model, P)
        consts.append(err * n)  # err / eps
    stable = max(consts) / min(consts) < 1.5
    ok = stable and all(c > 0 for c in consts)
    assert _report("criterion-06 hardening continuity", ok,
                   f"C values {['%.4f' % c for c in consts]}")


def test_criterion_07_splitting_remainder(capsys, default_study):
    """Remainder of the soft/stiff splitting on the study's minimizers.

    The theorem bounds it by C eps; measured ratios remainder/eps must stay
    bounded, operationalized as consecutive sweep steps changing the ratio by
    less than 2x (the convex default decays faster than eps, see the ledger).
    """
    _, report = default_study
    ratios = [row["remainder"] / row["eps"] for row in report.rows]
    steps = [max(a, b) / min(a, b) for a, b in zip(ratios, ratios[1:])]
    bounded = all(r <= ratios[0] * 2.0 for r in ratios)
    ok = bounded and all(s < 2.0 for s in steps)
    assert _report("criterion-07 splitting remainder", ok,
                   f"ratios {['%.2e' % r for r in ratios]}, step variation {['%.2f' % s for s in steps]}")


def test_criterion_08_gamma_convergence_of_minima(capsys, default_study, control_study):
    _, report = default_study
    gaps = [row["gap"] for row in report.rows]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] < 0.1
    _, control = control_study
    control_ok = all(row["gap"] < 1e-3 for row in control.rows)
    ok = decreasing and final_ok and control_ok
    assert _report("criterion-08 convergence of minima", ok,
                   f"gaps {['%.4f' % g for g in gaps]}, control max {max(r['gap'] for r in control.rows):.1e}")


def test_criterion_09_recovery_upper_bound(capsys, default_study):
    _, report = default_study
    rec = report.extras["recovery"]
    ok = rec["J0_eps"] <= rec["J0_limit"] + 0.05 * (1.0 + rec["J0_limit"])
    assert _report("criterion-09 recovery upper bound", ok,
                   f"J0_eps {rec['J0_eps']:.5f} vs limit {rec['J0_limit']:.5f}")


def test_criterion_10_gradient_correctness(capsys):
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    model = materials.default_material(dim=2)
    grid = Grid(2, domain.n_el)
    rng = np.random.default_rng(110)
    h = 1e-6
    worst = 0.0
    free_y = ~np.repeat(grid.boundary_node_mask(), 2)
    for _ in range(10):
        y = DeformationField(grid, 0.2 * rng.standard_normal((grid.n_nodes, 2)))
        y.values[grid.boundary_node_mask()] = 0.0
        P = PlasticField(grid, 0.15 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)),
                         model.K_radius)
        g = energies.value_and_grad_J_eps(domain, model, y, P)[1]
        for _ in range(6):
            dy = rng.standard_normal((grid.n_nodes, 2))
            dy.reshape(-1)[~free_y] = 0.0
            dy /= np.linalg.norm(dy)
            yp = DeformationField(grid, y.values + h * dy)
            ym = DeformationField(grid, y.values - h * dy)
            fd = (energies.assemble_J_eps(domain, model, yp, P).total
                  - energies.assemble_J_eps(domain, model, ym, P).total) / (2 * h)
            an = float(np.sum(g.grad_y * dy))
            worst = max(worst, abs(fd - an) / max(1e-12, abs(an)))
        for _ in range(6):
            dm = rng.standard_normal((grid.n_nodes, 3))
            dm /= np.linalg.norm(dm)
            Pp = PlasticField(grid, P.coeffs + h * dm, model.K_radius)
            Pm = PlasticField(grid, P.coeffs - h * dm, model.K_radius)
            fd = (energies.assemble_J_eps(domain, model, y, Pp).total
                  - energies.assemble_J_eps(domain, model, y, Pm).total) / (2 * h)
            an = float(np.sum(g.grad_m * dm))
            worst = max(worst, abs(fd - an) / max(1e-12, abs(an)))
    ok = worst <= 1e-5
    assert _report("criterion-10 gradient correctness", ok, f"worst rel error {worst:.2e}")


def test_criterion_11_sl_integrity(capsys, default_study, control_study):
    # stored plastic nodes stay unimodular across the studies
    worst_det = 0.0
    for _, report in (default_study, control_study):
        for eps, (domain, y, P) in report.artifacts["rows"].items():
            dets = np.linalg.det(P.matrices())
            worst_det = max(worst_det, float(np.abs(dets - 1.0).max()))
    det_ok = worst_det <= 1e-9

    rng = np.random.default_rng(111)
    F = _sample_K_matrices(rng, 1)[0]
    value, _ = sg.dissipation_distance(F, F)
    zero_ok = value == 0.0

    S = 16
    tri_ok = True
    for _ in range(100):
        A, B, C = _sample_K_matrices(rng, 3, r_K=0.25)
        v01, _ = sg.dissipation_distance(A, B, segments=S, iters=80)
        v12, _ = sg.dissipation_distance(B, C, segments=S, iters=80)
        v02, _ = sg.dissipation_distance(A, C, segments=S, iters=80)
        slack = (v01**3 + v12**3 + v02**3) / S**2
        tri_ok = tri_ok and (v02 <= v01 + v12 + 1e-6 + slack)

    exp_ok = True
    for _ in range(20):
        c = rng.standard_normal(3)
        c *= 0.45 * rng.random() / np.linalg.norm(c)
        M = sg.coeffs_to_matrices(c, 2)
        v, _ = sg.dissipation_distance(np.eye(2), sg.exp_batch(M), segments=160, iters=0)
        exp_ok = exp_ok and (v <= np.linalg.norm(M) + 1e-6)

    ok = det_ok and zero_ok and tri_ok and exp_ok
    assert _report("criterion-11 SL(d) integrity", ok,
                   f"max |det-1| {worst_det:.1e}, triangle {tri_ok}, exp bound {exp_ok}")


def test_criterion_12_multicell_subadditivity(capsys):
    cell = mg.builtin_cell("block4")
    stiff = materials.StiffDensity(1.0)
    rng = np.random.default_rng(112)
    mono_ok = fast_ok = True
    for _ in range(10):
        F = 0.5 * rng.standard_normal((2, 2))
        G = _sample_K_matrices(rng, 1)[0]
        res = cp.multicell_W1hom(cell, stiff, F, G, lambdas=(1, 2), resolution=8)
        mono_ok = mono_ok and (res.per_lambda[2].value <= res.per_lambda[1].value + 1e-8)
        tensor = cp.effective_quadratic_tensor(cell, stiff, G, resolution=8)
        fast_ok = fast_ok and abs(float(tensor.evaluate(F)) - res.per_lambda[1].value) <= 1e-8
    ok = mono_ok and fast_ok
    assert _report("criterion-12 multicell subadditivity + fast path", ok)


def test_criterion_13_determinism(capsys, default_study, tmp_path):
    cfg, report = default_study
    paths1 = lab.emit_report(report, outdir=tmp_path / "run1")
    cfg2 = lab.StudyConfig(output_dir=cfg.output_dir)
    report2 = lab.run_convergence_study(cfg2)
    paths2 = lab.emit_report(report2, outdir=tmp_path / "run2")
    ok = paths1["csv"].read_bytes() == paths2["csv"].read_bytes()
    assert _report("criterion-13 determinism", ok)
