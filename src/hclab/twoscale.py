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

from hclab.fields import DeformationField, Grid, GridMismatch, PlasticField, node_incidence_masks
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
    """Global node indices per (cell, micro node): low corners and full (m+1)^d."""
    d, n, m = domain.dim, domain.n_cells, domain.cell.resolution
    n_pts = n * m + 1
    cells = np.array(list(np.ndindex((n,) * d)))
    micro_low = np.array(list(np.ndindex((m,) * d)))
    micro_full = np.array(list(np.ndindex((m + 1,) * d)))

    def table(micro):
        glob = cells[:, None, :] * m + micro[None, :, :]
        return np.ravel_multi_index(glob.reshape(-1, d).T, (n_pts,) * d).reshape(len(cells), len(micro))

    return table(micro_low), table(micro_full)


def unfold(domain: MicroDomain, y: DeformationField) -> TwoScaleField:
    """Exact unfolding of a nodal field: sample (cell t, micro z) = y(eps(t+z))."""
    if y.grid.n_el != domain.n_el or y.grid.dim != domain.dim:
        raise GridMismatch("field grid does not match the domain")
    low, full_tbl = _cell_node_tables(domain)
    samples = y.values[low]
    full = y.values[full_tbl]
    return TwoScaleField(dim=domain.dim, m=domain.cell.resolution, eps=domain.eps,
                         samples=samples, full=full)


def unfold_scaled_gradients(domain: MicroDomain, y: DeformationField) -> np.ndarray:
    """Unfolding of eps * grad(y): (cells, pixels, ngp, d, d), ordered like
    TwoScaleField.micro_gradients() so the commutation identity is elementwise."""
    if y.grid.n_el != domain.n_el or y.grid.dim != domain.dim:
        raise GridMismatch("field grid does not match the domain")
    d, n, m = domain.dim, domain.n_cells, domain.cell.resolution
    grads = domain.grid.gauss_gradients(y.values) * domain.eps
    cells = np.array(list(np.ndindex((n,) * d)))
    pixels = np.array(list(np.ndindex((m,) * d)))
    glob = cells[:, None, :] * m + pixels[None, :, :]
    el_idx = np.ravel_multi_index(glob.reshape(-1, d).T, (n * m,) * d).reshape(len(cells), len(pixels))
    return grads[el_idx]


# -- extension ------------------------------------------------------------------


def _interior_soft_nodes(domain: MicroDomain) -> np.ndarray:
    all_soft, _ = node_incidence_masks(domain.dim, domain.n_el, domain.soft_field.reshape(-1))
    return all_soft


def _coarsen_mask(mask: np.ndarray, factor: int):
    """Block-coarsen a pixel mask; None when the blocks are not constant."""
    if factor <= 1:
        return mask.copy()
    d = mask.ndim
    r = mask.shape[0] // factor
    shape = sum(((r, factor),) * d, ())
    blocks = mask.reshape(shape)
    axes = tuple(2 * k + 1 for k in range(d))
    any_ = blocks.any(axis=axes)
    all_ = blocks.all(axis=axes)
    if not np.array_equal(any_, all_):
        return None
    return all_


def _lattice_neighbors(dim: int, n_pts: int, nodes: np.ndarray):
    """Neighbor node indices along each +-axis direction for the given nodes."""
    multi = np.stack(np.unravel_index(nodes, (n_pts,) * dim), axis=-1)
    out = []
    for axis in range(dim):
        for step in (-1, 1):
            nb = multi.copy()
            nb[:, axis] += step
            ok = (nb[:, axis] >= 0) & (nb[:, axis] < n_pts)
            flat = np.full(len(nodes), -1, dtype=int)
            flat[ok] = np.ravel_multi_index(nb[ok].T, (n_pts,) * dim)
            out.append(flat)
    return out


def extend_into_inclusions(domain: MicroDomain, y: DeformationField) -> DeformationField:
    """Discrete harmonic extension: matrix values kept, inclusion-interior
    nodes replaced by the componentwise lattice-Laplace solution."""
    if y.grid.n_el != domain.n_el or y.grid.dim != domain.dim:
        raise GridMismatch("field grid does not match the domain")
    grid = y.grid
    interior = _interior_soft_nodes(domain)
    out = y.values.copy()
    nodes = np.nonzero(interior)[0]
    if len(nodes) == 0:
        return DeformationField(grid, out)
    pos = -np.ones(grid.n_nodes, dtype=int)
    pos[nodes] = np.arange(len(nodes))
    neighbors = _lattice_neighbors(grid.dim, grid.n_pts, nodes)
    rows, cols, vals = [], [], []
    rhs = np.zeros((len(nodes), grid.dim))
    rows.extend(range(len(nodes)))
    cols.extend(range(len(nodes)))
    vals.extend([2.0 * grid.dim] * len(nodes))
    for nb in neighbors:
        inside = nb >= 0
        nb_in = nb[inside]
        local = np.nonzero(inside)[0]
        is_interior = pos[nb_in] >= 0
        rows.extend(local[is_interior])
        cols.extend(pos[nb_in[is_interior]])
        vals.extend([-1.0] * int(is_interior.sum()))
        rhs[local[~is_interior]] += y.values[nb_in[~is_interior]]
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(len(nodes), len(nodes))).tocsc()
    try:
        solve = scipy.sparse.linalg.factorized(A)
    except RuntimeError as exc:  # pragma: no cover
        raise SolverFailure(f"harmonic extension factorization failed: {exc}") from exc
    for c in range(grid.dim):
        out[nodes, c] = solve(rhs[:, c])
    return DeformationField(grid, out)


def extension_constants(domain: MicroDomain, y: DeformationField):
    """Measured norm-inflation constants of the extension and the extension itself."""
    ytilde = extend_into_inclusions(domain, y)
    grid = y.grid
    stiff = ~domain.soft_field.reshape(-1)
    num0 = np.sqrt(grid.l2_norm_sq(ytilde.values))
    den0 = np.sqrt(grid.l2_norm_sq(y.values, element_mask=stiff))
    num1 = np.sqrt(grid.grad_norm_sq(ytilde.values))
    den1 = np.sqrt(grid.grad_norm_sq(y.values, element_mask=stiff))
    if den0 < 1e-30 or den1 < 1e-30:
        raise ZeroDenominator("field vanishes on the stiff part")
    return num0 / den0, num1 / den1, ytilde


def poincare_ratio(domain: MicroDomain, y: DeformationField) -> float:
    """||y|| / (eps ||grad y||_soft + ||grad y||_stiff) for zero boundary values."""
    grid = y.grid
    if y.values[grid.boundary_node_mask()].any():
        raise TwoScaleError("the Poincare diagnostic needs zero boundary values")
    soft = domain.soft_field.reshape(-1)
    num = np.sqrt(grid.l2_norm_sq(y.values))
    den = domain.eps * np.sqrt(grid.grad_norm_sq(y.values, element_mask=soft)) + np.sqrt(
        grid.grad_norm_sq(y.values, element_mask=~soft)
    )
    if den < 1e-30:
        raise ZeroDenominator("gradient vanishes: ratio undefined")
    return float(num / den)


# -- recovery -------------------------------------------------------------------


def build_recovery_sequence(domain: MicroDomain, w, P_field: PlasticField | None = None,
                            correction: bool = False, model=None, cache=None) -> DeformationField:
    """Nodal field x -> w_k(x, x/eps) from a macro x micro corrector.

    ``w(x, z)`` is a vectorized callable; per admitted interior cell the macro
    variable is replaced by the cell average (2^d Gauss quadrature) and the
    micro variable is sampled at the cell's node lattice, zeroed outside the
    strict interior of the inclusion.  Cells whose cube leaves the safety
    margin, and the whole stiff region, carry the value zero.

    With ``correction=True`` the oscillatory corrector stage is added: per
    (cell, eps-subcube of the inclusion) the block-averaged micro gradient
    feeds a cell minimizer psi from the soft cell problem, rescaled by eps and
    sampled at the sub-lattice; this is the stage that lowers a nonconvex
    density toward its quasiconvexified value.
    """
    d, n, m = domain.dim, domain.n_cells, domain.cell.resolution
    grid = domain.grid
    eps = domain.eps
    micro_interior, _ = node_incidence_masks(d, m, domain.cell.soft_mask.reshape(-1))
    micro_nodes = np.array(list(np.ndindex((m + 1,) * d))) / m  # (Nm, d)
    gauss = Grid(d, 1).gauss_ref  # 2^d macro quadrature points in the unit cell

    values = np.zeros((grid.n_nodes, d))
    n_pts = n * m + 1
    hat = set(domain.translations_hat)
    wbar = {}
    for t in domain.translations_hat:
        x_g = (np.asarray(t)[None, :] + gauss) * eps  # (ngp, d)
        acc = np.zeros((len(micro_nodes), d))
        for xg in x_g:
            acc += np.asarray(w(np.broadcast_to(xg, micro_nodes.shape), micro_nodes), dtype=float)
        acc /= len(x_g)
        acc[~micro_interior] = 0.0
        wbar[t] = acc
        glob = np.asarray(t)[None, :] * m + np.array(list(np.ndindex((m + 1,) * d)))
        flat = np.ravel_multi_index(glob.T, (n_pts,) * d)
        values[flat] = acc

    fld = DeformationField(grid, values)
    if not correction:
        return fld

    if model is None or cache is None:
        raise TwoScaleError("the correction stage needs the material model and a density cache")
    if m % n:
        raise TwoScaleError("correction stage needs the cell resolution divisible by n_cells")
    r = m // n  # pixels per eps-subcube of the unit cell
    # admissible subcubes: every pixel of the subcube lies in the inclusion
    sub_ok = {}
    for s in np.ndindex((n,) * d):
        sl = tuple(slice(si * r, (si + 1) * r) for si in s)
        sub_ok[s] = bool(domain.cell.soft_mask[sl].all())
    micro = Grid(d, m)
    from hclab.cellproblems import qprime_W0
    from hclab.microgeometry import build_unit_cell

    # psi gets sampled on the (r+1)^d sub-lattice; when the mask coarsens
    # exactly to resolution r, solving on the coarsened cell avoids aliasing
    psi_cell, psi_res = domain.cell, m
    coarse = _coarsen_mask(domain.cell.soft_mask, m // r)
    if coarse is not None:
        psi_cell, psi_res = build_unit_cell(d, r, coarse), r

    corr = np.zeros((grid.n_nodes, d))
    sub_nodes = np.array(list(np.ndindex((r + 1,) * d)))
    for t in domain.translations_hat:
        grads = np.einsum("en...,gnk->eg...k", wbar[t][micro.el_nodes], micro.dN_gauss)
        grads_lat = grads.reshape((m,) * d + grads.shape[1:])
        if P_field is not None:
            center = (np.asarray(t) + 0.5) * eps
            Pc = P_field.grid.interpolate_at(P_field.matrices(), center[None, :])[0]
            keys, _ = cache.quantize(Pc[None])
            Ginv = np.linalg.inv(cache.reconstruct(keys[0], d))
        else:
            Ginv = np.eye(d)
        for s, ok in sub_ok.items():
            if not ok:
                continue
            sl = tuple(slice(si * r, (si + 1) * r) for si in s)
            A_ts = grads_lat[sl].mean(axis=tuple(range(d)) + (d,))
            res = qprime_W0(psi_cell, model.W_soft_limit, A_ts, Ginv,
                            resolution=psi_res, formulation="over_Q0", seed=cache.seed)
            psi = res.minimizer  # nodal field over Q at the psi resolution
            psi_grid = Grid(d, psi_res)
            ref = sub_nodes / r  # positions inside the unit subcube
            psi_vals = psi_grid.interpolate_at(psi, ref)
            glob = (np.asarray(t) * m + np.asarray(s) * r)[None, :] + sub_nodes
            flat = np.ravel_multi_index(glob.T, (n_pts,) * d)
            corr[flat] = eps * psi_vals

    return DeformationField(grid, values + corr)
