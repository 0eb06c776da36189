"""Discrete function spaces on the structured grid.

Nodes sit at pixel corners, elements coincide with pixels, and every energy
term is integrated with the same 2^d tensor Gauss rule, so phase-weighted
quadrature is exact with respect to the geometry and quadratic densities of
multilinear gradients are integrated exactly per element.

Deformations are nodal vectors; plastic strains are nodal sl(d) coefficient
vectors (orthonormal basis, so the K-ball constraint is a Euclidean ball) and
the interpolated field is the multilinear interpolant of the *entries* of
P = exp(M), which leaves SL(d) between nodes by O(h^2).

Interpolation to the Gauss points and the scatter back to the nodes are
products with two sparse CSR matrices per grid shape: one maps nodal values
to Gauss values (rows (e, g)), the other maps nodal values to Gauss gradients
(rows (e, g, k)).  Their transposes do the ``accumulate_from_*`` scatters.
Both matrices of a shape are built on first use and kept in an ``lru_cache``
keyed on (dim, n_el, extent) that holds 8 shapes; grids of equal shape share
them read-only.  They take about 12 (1 + d) 4^d bytes per element plus row
pointers: 2.5 MB at 64^2 elements, 10 MB at 128^2, 13 MB at 16^3.  A CSR
product sums each output entry over its stored columns in a fixed order, so
repeated interpolations and scatters of the same data are bit-for-bit
identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse

from hclab import slgeometry


class GridMismatch(ValueError):
    """Fields on incompatible grids were combined."""


class FieldError(ValueError):
    pass


_GAUSS_1D = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _corner_table(dim: int) -> np.ndarray:
    """(2^d, d) reference-cell corners in C order; also the Gauss point order."""
    return np.array(list(np.ndindex((2,) * dim)))


def _element_nodes(dim: int, n_el: int) -> np.ndarray:
    """(E, 2^d) global node of each element corner, elements in C order."""
    el_idx = np.array(list(np.ndindex((n_el,) * dim)))
    node_multi = el_idx[:, None, :] + _corner_table(dim)[None, :, :]
    return np.ravel_multi_index(node_multi.reshape(-1, dim).T, (n_el + 1,) * dim).reshape(n_el**dim, 2**dim)


def _gauss_ref(dim: int) -> np.ndarray:
    """(ngp, d) reference coordinates of the 2-point tensor Gauss rule."""
    return np.where(_corner_table(dim) == 0, _GAUSS_1D[0], _GAUSS_1D[1])


def _shape_value_table(corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    ref = np.asarray(ref, dtype=float)
    vals = np.ones((ref.shape[0], len(corners)))
    for k in range(corners.shape[1]):
        vals *= np.where(corners[None, :, k] == 0, 1.0 - ref[:, None, k], ref[:, None, k])
    return vals


def _shape_gradient_table(corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    ref = np.asarray(ref, dtype=float)
    dim = corners.shape[1]
    grads = np.ones((ref.shape[0], len(corners), dim))
    for k in range(dim):
        for j in range(dim):
            if j == k:
                axis = np.where(corners[None, :, j] == 0, -1.0, 1.0)
            else:
                axis = np.where(corners[None, :, j] == 0, 1.0 - ref[:, None, j], ref[:, None, j])
            grads[:, :, k] *= axis
    return grads


class _GaussOperators(NamedTuple):
    values: scipy.sparse.csr_matrix     # (E*ngp, n_nodes), rows (e, g)
    gradients: scipy.sparse.csr_matrix  # (E*ngp*d, n_nodes), rows (e, g, k)


@lru_cache(maxsize=8)
def _gauss_operators(dim: int, n_el: int, extent: float) -> _GaussOperators:
    """Interpolation and scatter matrices of one grid shape, built once."""
    corners = _corner_table(dim)
    ref = _gauss_ref(dim)
    h = extent / n_el
    el_nodes = _element_nodes(dim, n_el)
    n_elements, n_corners = el_nodes.shape
    n_gauss = len(ref)
    n_nodes = (n_el + 1) ** dim
    N = _shape_value_table(corners, ref)                   # (g, n)
    dN = _shape_gradient_table(corners, ref) / h           # (g, n, k)
    cols = np.broadcast_to(el_nodes[:, None, :], (n_elements, n_gauss, n_corners))
    values = scipy.sparse.csr_matrix(
        (np.broadcast_to(N, cols.shape).reshape(-1), cols.reshape(-1),
         np.arange(0, cols.size + 1, n_corners)),
        shape=(n_elements * n_gauss, n_nodes))
    gcols = np.broadcast_to(el_nodes[:, None, None, :], (n_elements, n_gauss, dim, n_corners))
    gradients = scipy.sparse.csr_matrix(
        (np.broadcast_to(np.swapaxes(dN, 1, 2), gcols.shape).reshape(-1), gcols.reshape(-1),
         np.arange(0, gcols.size + 1, n_corners)),
        shape=(n_elements * n_gauss * dim, n_nodes))
    ops = _GaussOperators(values, gradients)
    for mat in ops:
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
    return ops


class Grid:
    """Uniform grid on (0, extent)^d with n_el multilinear elements per side."""

    def __init__(self, dim: int, n_el: int, extent: float = 1.0):
        if dim not in (2, 3):
            raise FieldError(f"dim must be 2 or 3, got {dim}")
        if n_el < 1:
            raise FieldError("n_el must be >= 1")
        self.dim = dim
        self.n_el = n_el
        self.n_pts = n_el + 1
        self.extent = float(extent)
        self.h = self.extent / n_el
        self.n_nodes = self.n_pts**dim
        self.n_elements = n_el**dim
        self.corners = _corner_table(dim)  # (2^d, d)
        self.n_corners = 2**dim
        self.el_nodes = _element_nodes(dim, n_el)  # element -> global node gather table
        # tensor Gauss rule (2 points per axis)
        self.gauss_ref = _gauss_ref(dim)  # (ngp, d)
        self.n_gauss = 2**dim
        self.gauss_weight = 0.5**dim  # per point, reference cell measure 1
        self.N_gauss = self._shape_values(self.gauss_ref)  # (ngp, 2^d)
        self.dN_gauss = self._shape_gradients(self.gauss_ref) / self.h  # physical (ngp, 2^d, d)

    # -- shape functions ----------------------------------------------------
    def _shape_values(self, ref: np.ndarray) -> np.ndarray:
        return _shape_value_table(self.corners, ref)

    def _shape_gradients(self, ref: np.ndarray) -> np.ndarray:
        return _shape_gradient_table(self.corners, ref)

    def _operators(self) -> _GaussOperators:
        return _gauss_operators(self.dim, self.n_el, self.extent)

    def _all_elements(self, S: np.ndarray, element_mask) -> np.ndarray:
        """Per-Gauss data over all elements, zero outside ``element_mask``."""
        if element_mask is None:
            return S
        full = np.zeros((self.n_elements,) + S.shape[1:])
        full[element_mask] = S
        return full

    # -- evaluation ---------------------------------------------------------
    def gather(self, nodal: np.ndarray) -> np.ndarray:
        return nodal[self.el_nodes]

    def gauss_values(self, nodal: np.ndarray) -> np.ndarray:
        """(E, ngp, C...) values of the interpolant at the Gauss points."""
        tail = nodal.shape[1:]
        out = self._operators().values @ nodal.reshape(self.n_nodes, -1)
        return out.reshape((self.n_elements, self.n_gauss) + tail)

    def gauss_matrix_values(self, nodal_mats: np.ndarray) -> np.ndarray:
        return self.gauss_values(nodal_mats)

    def gauss_gradients(self, nodal: np.ndarray) -> np.ndarray:
        """(E, ngp, C..., d) gradients; exact for the multilinear interpolant."""
        tail = nodal.shape[1:]
        out = self._operators().gradients @ nodal.reshape(self.n_nodes, -1)
        out = np.moveaxis(out.reshape(self.n_elements, self.n_gauss, self.dim, -1), 2, -1)
        return out.reshape((self.n_elements, self.n_gauss) + tail + (self.dim,))

    def values_at_ref(self, nodal: np.ndarray, element: int, ref: np.ndarray) -> np.ndarray:
        N = self._shape_values(np.atleast_2d(ref))
        return np.einsum("n...,pn->p...", nodal[self.el_nodes[element]], N)[0]

    def gradients_at_ref(self, nodal: np.ndarray, element: int, ref: np.ndarray) -> np.ndarray:
        dN = self._shape_gradients(np.atleast_2d(ref)) / self.h
        return np.einsum("n...,pnk->p...k", nodal[self.el_nodes[element]], dN)[0]

    def interpolate_at(self, nodal: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the interpolant at arbitrary points of [0,1]^d."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.minimum((pts / self.h).astype(int), self.n_el - 1)
        ref = pts / self.h - idx
        weights = np.ones((len(pts), self.n_corners))
        for k in range(self.dim):
            weights *= np.where(self.corners[None, :, k] == 0, 1.0 - ref[:, None, k], ref[:, None, k])
        node_multi = idx[:, None, :] + self.corners[None, :, :]
        nodes = np.ravel_multi_index(node_multi.reshape(-1, self.dim).T, (self.n_pts,) * self.dim).reshape(
            len(pts), self.n_corners
        )
        return np.einsum("pn,pn...->p...", weights, nodal[nodes])

    # -- assembly helpers ----------------------------------------------------
    def accumulate_from_gradients(self, S: np.ndarray, out: np.ndarray, element_mask=None) -> None:
        """out[node] += sum_g w S[e,g,...,k] dN[g,n,k], S of shape (E', ngp, C..., d)."""
        S = self._all_elements(S, element_mask)
        flat = np.moveaxis(S.reshape(self.n_elements, self.n_gauss, -1, self.dim), -1, 2)
        flat = flat.reshape(self.n_elements * self.n_gauss * self.dim, -1)
        out += (self._operators().gradients.T @ flat).reshape(out.shape) * (self.gauss_weight * self.h**self.dim)

    def accumulate_from_values(self, S: np.ndarray, out: np.ndarray, element_mask=None) -> None:
        """out[node] += sum_g w S[e,g,...] N[g,n]."""
        S = self._all_elements(S, element_mask)
        flat = S.reshape(self.n_elements * self.n_gauss, -1)
        out += (self._operators().values.T @ flat).reshape(out.shape) * (self.gauss_weight * self.h**self.dim)

    def integrate(self, per_gauss: np.ndarray, element_mask=None) -> float:
        """Integral of a per-(element, gauss) scalar sample over the (masked) elements."""
        vals = per_gauss if element_mask is None else per_gauss[element_mask]
        return float(np.sum(vals) * self.gauss_weight * self.h**self.dim)

    # -- node classification and norms ----------------------------------------
    def boundary_node_mask(self) -> np.ndarray:
        shape = (self.n_pts,) * self.dim
        mask = np.zeros(shape, dtype=bool)
        for k in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[k] = 0
            mask[tuple(sl)] = True
            sl[k] = -1
            mask[tuple(sl)] = True
        return mask.reshape(-1)

    def node_coords(self) -> np.ndarray:
        axes = [np.linspace(0.0, self.extent, self.n_pts)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def low_corner_node_mask(self) -> np.ndarray:
        """Nodes that are the low corner of some element (drops top faces)."""
        shape = (self.n_pts,) * self.dim
        mask = np.ones(shape, dtype=bool)
        for k in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[k] = -1
            mask[tuple(sl)] = False
        return mask.reshape(-1)

    def lattice_norm_sq(self, nodal: np.ndarray) -> float:
        """Riemann-sum L2 norm squared over low-corner nodes; the discrete
        quantity the unfolding re-indexing preserves exactly."""
        mask = self.low_corner_node_mask()
        vals = nodal[mask]
        return float(np.sum(vals * vals) * self.h**self.dim)

    def l2_norm_sq(self, nodal: np.ndarray, element_mask=None) -> float:
        vals = self.gauss_values(nodal)
        per = (vals * vals).reshape(self.n_elements, self.n_gauss, -1).sum(axis=-1)
        return self.integrate(per, element_mask)

    def grad_norm_sq(self, nodal: np.ndarray, element_mask=None) -> float:
        grads = self.gauss_gradients(nodal)
        per = (grads * grads).reshape(self.n_elements, self.n_gauss, -1).sum(axis=-1)
        return self.integrate(per, element_mask)


def node_incidence_masks(dim: int, n_el: int, active_elements: np.ndarray):
    """Per-node masks over the (n_el+1)^d lattice: (all incident elements
    active, any incident element active).  Out-of-domain neighbors count as
    inactive, so lattice-boundary nodes never satisfy the 'all' mask."""
    active = np.asarray(active_elements, dtype=bool).reshape((n_el,) * dim)
    pad = np.zeros((n_el + 2,) * dim, dtype=bool)
    pad[(slice(1, -1),) * dim] = active
    all_mask = np.ones((n_el + 1,) * dim, dtype=bool)
    any_mask = np.zeros((n_el + 1,) * dim, dtype=bool)
    for corner in np.ndindex((2,) * dim):
        sl = tuple(slice(c, c + n_el + 1) for c in corner)
        all_mask &= pad[sl]
        any_mask |= pad[sl]
    return all_mask.reshape(-1), any_mask.reshape(-1)


@dataclass
class DeformationField:
    """Nodal vector field y with an optional zero Dirichlet trace."""

    grid: Grid
    values: np.ndarray
    bc: str = "zero"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes, self.grid.dim):
            raise GridMismatch(
                f"values shape {self.values.shape} does not match grid ({self.grid.n_nodes}, {self.grid.dim})"
            )
        if self.bc not in ("zero", "free"):
            raise FieldError(f"bc must be 'zero' or 'free', got {self.bc!r}")
        if self.bc == "zero":
            self.values[self.grid.boundary_node_mask()] = 0.0

    def copy(self) -> "DeformationField":
        return DeformationField(self.grid, self.values.copy(), self.bc)

    @classmethod
    def zero(cls, grid: Grid, bc: str = "zero") -> "DeformationField":
        return cls(grid, np.zeros((grid.n_nodes, grid.dim)), bc)

    @classmethod
    def from_function(cls, grid: Grid, fn, bc: str = "free") -> "DeformationField":
        return cls(grid, np.asarray(fn(grid.node_coords()), dtype=float), bc)


@dataclass
class PlasticField:
    """Nodal SL(d) field stored as trace-free log coefficients inside the K ball.

    Writes project radially onto |M| <= r_K, so membership in K is an
    invariant of the data rather than a runtime check.
    """

    grid: Grid
    coeffs: np.ndarray
    r_K: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        k = self.grid.dim**2 - 1
        if self.coeffs.shape != (self.grid.n_nodes, k):
            raise GridMismatch(f"coeffs shape {self.coeffs.shape} does not match ({self.grid.n_nodes}, {k})")
        self.project()

    def project(self) -> None:
        # small relative pad keeps the projection idempotent under rounding
        norms = np.linalg.norm(self.coeffs, axis=1)
        over = norms > self.r_K * (1.0 + 1e-14)
        if over.any():
            self.coeffs[over] *= (self.r_K / norms[over])[:, None]

    def log_matrices(self) -> np.ndarray:
        return slgeometry.coeffs_to_matrices(self.coeffs, self.grid.dim)

    def matrices(self) -> np.ndarray:
        return slgeometry.exp_batch(self.log_matrices())

    def copy(self) -> "PlasticField":
        return PlasticField(self.grid, self.coeffs.copy(), self.r_K)

    @classmethod
    def identity(cls, grid: Grid, r_K: float) -> "PlasticField":
        return cls(grid, np.zeros((grid.n_nodes, grid.dim**2 - 1)), r_K)

    @classmethod
    def from_log_function(cls, grid: Grid, fn, r_K: float) -> "PlasticField":
        """fn maps node coordinates (N, d) to coefficient vectors (N, d^2-1)."""
        return cls(grid, np.asarray(fn(grid.node_coords()), dtype=float), r_K)


def eval_gradient(y: DeformationField, element: int | None = None, gauss_point: int | None = None, ref_point=None):
    """Exact gradient of the multilinear interpolant.

    With no arguments returns all (E, ngp, d, d) Gauss-point gradients;
    otherwise the gradient at one Gauss point or at explicit reference
    coordinates of one element.
    """
    if element is None:
        return y.grid.gauss_gradients(y.values)
    if ref_point is not None:
        return y.grid.gradients_at_ref(y.values, element, np.asarray(ref_point, dtype=float))
    grads = np.einsum(
        "nc,gnk->gck", y.values[y.grid.el_nodes[element]], y.grid.dN_gauss
    )
    return grads if gauss_point is None else grads[gauss_point]


def plastic_gradient(P: PlasticField, element: int | None = None, ref_point=None):
    """Componentwise gradient of the interpolated matrix entries of P = exp(M).

    Shape (d, d, d) per Gauss point: the literal gradient of the matrix field,
    not of its log coordinates.
    """
    mats = P.matrices()
    if element is None:
        return P.grid.gauss_gradients(mats)
    if ref_point is not None:
        dN = P.grid._shape_gradients(np.atleast_2d(ref_point)) / P.grid.h
        return np.einsum("nij,pnk->pijk", mats[P.grid.el_nodes[element]], dN)[0]
    return np.einsum("nij,gnk->gijk", mats[P.grid.el_nodes[element]], P.grid.dN_gauss)


# -- snapshots ----------------------------------------------------------------


def save_field(path, fld) -> None:
    """ASCII snapshot: a header with the grid shape, then one node per line."""
    if isinstance(fld, DeformationField):
        header = f"deformation {fld.grid.dim} {fld.grid.n_el} {fld.grid.dim} {fld.bc}"
        table = fld.values
    elif isinstance(fld, PlasticField):
        header = f"plastic {fld.grid.dim} {fld.grid.n_el} {fld.coeffs.shape[1]} {fld.r_K!r}"
        table = fld.coeffs
    else:
        raise FieldError(f"cannot snapshot object of type {type(fld)!r}")
    lines = [header]
    lines.extend(" ".join(f"{v:.17g}" for v in row) for row in table)
    Path(path).write_text("\n".join(lines) + "\n")


def load_field(path):
    lines = Path(path).read_text().splitlines()
    kind, dim, n_el, ncols, extra = lines[0].split()
    dim, n_el, ncols = int(dim), int(n_el), int(ncols)
    grid = Grid(dim, n_el)
    table = np.array([[float(v) for v in ln.split()] for ln in lines[1 : 1 + grid.n_nodes]])
    if table.shape != (grid.n_nodes, ncols):
        raise FieldError(f"snapshot table shape {table.shape} does not match header")
    if kind == "deformation":
        return DeformationField(grid, table, bc=extra)
    if kind == "plastic":
        return PlasticField(grid, table, r_K=float(extra))
    raise FieldError(f"unknown snapshot kind {kind!r}")


def prolong_deformation(y: DeformationField, fine: Grid) -> DeformationField:
    """Nodal injection: evaluate the coarse interpolant at the fine nodes."""
    vals = y.grid.interpolate_at(y.values, fine.node_coords())
    return DeformationField(fine, vals, bc=y.bc)


def prolong_plastic(P: PlasticField, fine: Grid) -> PlasticField:
    coeffs = P.grid.interpolate_at(P.coeffs, fine.node_coords())
    return PlasticField(fine, coeffs, r_K=P.r_K)
