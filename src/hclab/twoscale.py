"""Unfolding, extension into inclusions, Poincare diagnostics, and recovery fields.

The unfolding operator re-indexes a one-variable grid field into a
(macro cell, micro node) table.  Because every cell is an integer block of
pixels, unfolding is exact: no interpolation, the lattice L2 norm is
preserved, and the micro gradient of the unfolded field coincides with the
unfolded eps-scaled gradient elementwise.

The extension operator replaces a field inside every inclusion by its
discrete harmonic extension from the matrix values; it is linear, reproduces
affine fields exactly, and its measured norm-inflation constants are the
empirical stand-ins for the eps-independent constant of the continuum
operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from numpy.lib.stride_tricks import sliding_window_view

from hclab.fields import DeformationField, Grid, check_same_grid, node_incidence_masks
from hclab.microgeometry import MicroDomain


class TwoScaleError(ValueError):
    pass


class ZeroDenominator(TwoScaleError):
    pass


class SolverFailure(TwoScaleError):
    pass


@dataclass
class TwoScaleField:
    """Unfolded field: one row of micro samples per macro cell.

    ``samples`` holds the m^d low-corner micro nodes per cell (the exact
    reindexing of the low-corner global lattice); ``full`` additionally
    carries the shared top faces so micro-element gradients are available.
    """

    dim: int
    m: int
    eps: float
    samples: np.ndarray
    full: np.ndarray

    def norm_sq(self) -> float:
        """L2 norm squared on Omega x Q of the piecewise sample table."""
        h = self.eps / self.m
        return float(np.sum(self.samples**2) * h**self.dim)

    def micro_gradients(self) -> np.ndarray:
        """(cells, micro elements, ngp, C, d) gradients in the cell variable."""
        micro = Grid(self.dim, self.m)
        return np.einsum("cen...,gnk->ceg...k", self.full[:, micro.el_nodes], micro.dN_gauss)


def _cell_node_tables(domain: MicroDomain):
    """Global node indices per (cell, micro node), cells and micro nodes in C
    order: the low corners (m^d) and the full (m+1)^d lattice of each cell.

    The full table is the node lattice's sliding (m+1)^d window taken at every
    m-th node along each axis; the low-corner table drops each window's top
    faces."""
    d, n, m = domain.dim, domain.n_cells, domain.cell.resolution
    nodes = np.arange((n * m + 1) ** d).reshape((n * m + 1,) * d)
    windows = sliding_window_view(nodes, (m + 1,) * d)[(slice(None, None, m),) * d]
    low = windows[(Ellipsis,) + (slice(m),) * d]
    return low.reshape(n**d, m**d), windows.reshape(n**d, (m + 1) ** d)


def unfold(domain: MicroDomain, y: DeformationField) -> TwoScaleField:
    """Exact unfolding of a nodal field: sample (cell t, micro z) = y(eps(t+z))."""
    check_same_grid(y.grid, domain, "field and domain")
    low, full_tbl = _cell_node_tables(domain)
    samples = y.values[low]
    full = y.values[full_tbl]
    return TwoScaleField(dim=domain.dim, m=domain.cell.resolution, eps=domain.eps,
                         samples=samples, full=full)


def unfold_scaled_gradients(domain: MicroDomain, y: DeformationField) -> np.ndarray:
    """Unfolding of eps * grad(y): (cells, pixels, ngp, d, d), ordered like
    TwoScaleField.micro_gradients() so the commutation identity is elementwise."""
    check_same_grid(y.grid, domain, "field and domain")
    d, n, m = domain.dim, domain.n_cells, domain.cell.resolution
    grads = domain.grid.gauss_gradients(y.values) * domain.eps
    # element (t m + z) of the (n m)^d grid, axes (t_0, z_0, t_1, z_1, ...) -> (t, z)
    el_idx = np.arange((n * m) ** d).reshape((n, m) * d).transpose(*range(0, 2 * d, 2), *range(1, 2 * d, 2))
    el_idx = el_idx.reshape(n**d, m**d)
    return grads[el_idx]


# -- extension ------------------------------------------------------------------


def extend_into_inclusions(domain: MicroDomain, y: DeformationField) -> DeformationField:
    """Discrete harmonic extension: matrix values kept, inclusion-interior
    nodes replaced by the componentwise lattice-Laplace solution.

    An interior soft node has all its incident elements soft, and
    ``node_incidence_masks`` counts elements outside the domain as not soft,
    so such a node never lies on the lattice boundary: its 2d neighbours are
    the nodes at plus and minus one flat axis stride."""
    check_same_grid(y.grid, domain, "field and domain")
    grid = y.grid
    interior, _ = node_incidence_masks(domain.dim, domain.n_el, domain.soft_elements)
    out = y.values.copy()
    nodes = np.nonzero(interior)[0]
    if len(nodes) == 0:
        return DeformationField(grid, out)
    pos = -np.ones(grid.n_nodes, dtype=int)
    pos[nodes] = np.arange(len(nodes))
    local = np.arange(len(nodes))
    rows, cols = [local], [local]
    rhs = np.zeros((len(nodes), grid.dim))
    for axis in range(grid.dim):
        stride = grid.n_pts ** (grid.dim - 1 - axis)
        for nb in (nodes - stride, nodes + stride):
            is_interior = pos[nb] >= 0
            rows.append(local[is_interior])
            cols.append(pos[nb[is_interior]])
            rhs[~is_interior] += y.values[nb[~is_interior]]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.where(rows == cols, 2.0 * grid.dim, -1.0)
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(len(nodes), len(nodes))).tocsc()
    try:
        solve = scipy.sparse.linalg.factorized(A)
    except RuntimeError as exc:  # pragma: no cover
        raise SolverFailure(f"harmonic extension factorization failed: {exc}") from exc
    for c in range(grid.dim):
        out[nodes, c] = solve(rhs[:, c])
    return DeformationField(grid, out)


def extension_constants(domain: MicroDomain, y: DeformationField):
    """Measured norm-inflation constants (L2, H1 seminorm) of the extension."""
    ytilde = extend_into_inclusions(domain, y)
    grid = y.grid
    stiff = ~domain.soft_elements
    num0 = np.sqrt(grid.l2_norm_sq(ytilde.values))
    den0 = np.sqrt(grid.l2_norm_sq(y.values, element_mask=stiff))
    num1 = np.sqrt(grid.grad_norm_sq(ytilde.values))
    den1 = np.sqrt(grid.grad_norm_sq(y.values, element_mask=stiff))
    if den0 < 1e-30 or den1 < 1e-30:
        raise ZeroDenominator("field vanishes on the stiff part")
    return num0 / den0, num1 / den1


def poincare_ratio(domain: MicroDomain, y: DeformationField) -> float:
    """||y|| / (eps ||grad y||_soft + ||grad y||_stiff) for zero boundary values."""
    check_same_grid(y.grid, domain, "field and domain")
    grid = y.grid
    if y.values[grid.boundary_node_mask()].any():
        raise TwoScaleError("the Poincare diagnostic needs zero boundary values")
    soft = domain.soft_elements
    num = np.sqrt(grid.l2_norm_sq(y.values))
    den = domain.eps * np.sqrt(grid.grad_norm_sq(y.values, element_mask=soft)) + np.sqrt(
        grid.grad_norm_sq(y.values, element_mask=~soft)
    )
    if den < 1e-30:
        raise ZeroDenominator("gradient vanishes: ratio undefined")
    return float(num / den)


# -- recovery -------------------------------------------------------------------


def build_recovery_sequence(domain: MicroDomain, w) -> DeformationField:
    """Nodal field x -> w_k(x, x/eps) from a macro x micro corrector.

    ``w(x, z)`` maps arrays of macro points x and micro points z, coordinates
    on the last axis, to values of the same shape.  It is called once, on all
    (admitted cell, macro Gauss point, micro node) triples at once, so it must
    act elementwise over the leading axes.  Per admitted interior cell the
    macro variable is replaced by the cell average (2^d Gauss quadrature) and
    the micro variable is sampled at the cell's node lattice, zeroed outside
    the strict interior of the inclusion.  Cells whose cube leaves the safety
    margin, and the whole stiff region, carry the value zero.
    """
    d, n, m = domain.dim, domain.n_cells, domain.cell.resolution
    grid = domain.grid
    eps = domain.eps
    micro_interior, _ = node_incidence_masks(d, m, domain.cell.soft_mask.reshape(-1))
    micro_nodes = np.indices((m + 1,) * d).reshape(d, -1).T / m  # (Nm, d)
    gauss = Grid(d, 1).gauss_ref  # 2^d macro quadrature points in the unit cell

    hat = np.array(domain.translations_hat, dtype=int).reshape(-1, d)
    x = (hat[:, None, None, :] + gauss[None, :, None, :]) * eps  # (T, ngp, 1, d)
    shape = (len(hat), len(gauss), len(micro_nodes), d)
    w_all = np.asarray(w(np.broadcast_to(x, shape), np.broadcast_to(micro_nodes, shape)), dtype=float)
    # a running sum over the Gauss points: np.sum may add a 3D cell's 8 terms pairwise, rounding otherwise
    wbar_all = sum(w_all.swapaxes(0, 1)) / len(gauss)
    wbar_all[:, ~micro_interior] = 0.0
    _, full = _cell_node_tables(domain)
    values = np.zeros((grid.n_nodes, d))
    values[full[np.ravel_multi_index(hat.T, (n,) * d)]] = wbar_all
    return DeformationField(grid, values)
