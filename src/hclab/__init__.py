"""Numerical laboratory for high-contrast elastoplastic composites.

Pixelated periodic microstructures, degenerate two-phase energies, cell
problems for the homogenized densities, two-scale operators, and minimization
studies that check convergence of minima against the homogenized reference.
"""

import os
import sys

# Run numpy's BLAS on one thread unless the user chose a count: the banded
# Cholesky solves and small batched products here are several times slower
# threaded.  The variables are read once, when numpy loads, so an import of
# numpy before hclab keeps its own setting and hclab leaves them alone.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var

from hclab.energies import dissipation_integral
from hclab.materials import MaterialModel, audit_assumptions, default_material, eval_density, eval_hardening
from hclab.microgeometry import (
    CellGeometry,
    MicroDomain,
    build_micro_domain,
    build_unit_cell,
    builtin_cell,
    load_cell_mask,
    phase_indicator,
)
from hclab.slgeometry import dissipation_distance, exp_sl, finsler, log_sl

__all__ = [
    "CellGeometry",
    "MicroDomain",
    "MaterialModel",
    "audit_assumptions",
    "build_micro_domain",
    "build_unit_cell",
    "builtin_cell",
    "default_material",
    "dissipation_distance",
    "dissipation_integral",
    "eval_density",
    "eval_hardening",
    "exp_sl",
    "finsler",
    "load_cell_mask",
    "log_sl",
    "phase_indicator",
]

__version__ = "0.1.0"
