"""Imports hclab before any test module loads numpy, so the suite runs
numpy's BLAS on hclab's default of one thread, as ``hclab study run``
does, unless the environment sets a count."""

import hclab  # noqa: F401
