"""Start-up cost: a stock run never loads ``scipy.optimize``.

The stock densities (quadratic stiff, convex soft) are solved by a banded
Cholesky, sparse CG and projected descent.  ``scipy.optimize`` (which pulls in
``scipy.special`` and ``scipy.fft``) is imported only inside the three
functions that call ``scipy.optimize.minimize``: the non-quadratic y-descent,
the non-quadratic cell minimizer and the Finsler geodesic.  The check runs in
a fresh interpreter, because this test session has loaded it already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    import numpy as np

    import hclab
    from hclab import cellproblems, lab, materials, microgeometry, minimize
    from hclab.fields import DeformationField, Grid, PlasticField

    for info in pkgutil.iter_modules(hclab.__path__):
        if info.name != "__main__":
            importlib.import_module("hclab." + info.name)

    config = lab.load_config(sys.argv[1])
    config.eps_list = [0.25]
    del config.acceptance["require_gap_decreasing"]  # needs two eps
    config.output_dir = sys.argv[2]
    report = lab.run_convergence_study(config)
    lab.emit_report(report, outdir=config.output_dir)
    assert dict(lab.evaluate_acceptance(report, config.acceptance))["converged"]

    cell = microgeometry.builtin_cell("block4")
    model = materials.default_material(dim=2)
    grid = Grid(2, 4)
    bump = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
    start = (DeformationField.zero(grid),
             PlasticField(grid, 0.2 * bump[:, None] * np.array([0.9, 0.4, 0.0]), model.K_radius))
    minimize.minimize_J_limit(cell, model, init=start, cache=cellproblems.HomDensityCache(resolution=4),
                              macro_elements=4)
    assert "scipy.optimize" not in sys.modules, "a stock run imported scipy.optimize"

    domain = microgeometry.build_micro_domain(cell, 4, strip=0.5)
    P = PlasticField.identity(domain.grid, model.K_radius)
    _, rep = minimize.minimize_y(domain, model, P, force_descent=True)
    assert rep.converged
    assert "scipy.optimize" in sys.modules, "the descent path ran without scipy.optimize"
    print("ok")
""")


def test_stock_run_never_imports_scipy_optimize(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "configs" / "default_study.json"), str(tmp_path / "out")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
