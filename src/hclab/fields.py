"""Discrete function spaces on the structured grid.

Nodes sit at pixel corners, elements coincide with pixels, and every energy
term is integrated with the same 2^d tensor Gauss rule, so phase-weighted
quadrature is exact with respect to the geometry and quadratic densities of
multilinear gradients are integrated exactly per element, each point with
the weight ``Grid.quad_weight`` = 2^-d h^d.  ``check_same_grid`` is the one
check that combined fields and domains share a grid.

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

The same cache entry holds the CSR pattern of the shape's nodal operators
(``Grid.stiffness``) and a CSR assembly matrix of ones that sums the
element-block entries into the pattern's slots, 12 4^d bytes per element
plus row pointers: 1.1 MB at 64^2 elements, 4.1 MB at 16^3.  Each operator
computes only its values, as one product with that matrix, and operators of
one shape combine by their values (``Grid.operator``).  A grid builds its
mass matrix (``Grid.mass``) on first use and keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse

from hclab import slgeometry


class GridMismatch(ValueError):
    """Fields on incompatible grids were combined."""


class FieldError(ValueError):
    pass


def check_same_grid(a, b, what: str) -> None:
    """Raise GridMismatch unless ``a`` and ``b``, grids or domains, have the
    same ``dim`` and ``n_el``; ``what`` names the pair in the message."""
    if (a.dim, a.n_el) != (b.dim, b.n_el):
        raise GridMismatch(f"{what}: grid {a.n_el}^{a.dim} does not match {b.n_el}^{b.dim}")


_GAUSS_1D = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _corner_table(dim: int) -> np.ndarray:
    """(2^d, d) reference-cell corners in C order; also the Gauss point order."""
    return np.array(list(np.ndindex((2,) * dim)))


def _element_nodes(dim: int, n_el: int) -> np.ndarray:
    """(E, 2^d) global node of each element corner, elements in C order: the
    element's low-corner node plus the flat offsets of the 2^d corners."""
    shape = (n_el + 1,) * dim
    low = np.arange((n_el + 1) ** dim).reshape(shape)[(slice(n_el),) * dim].reshape(-1)
    return low[:, None] + np.ravel_multi_index(_corner_table(dim).T, shape)


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
    assembly: scipy.sparse.csr_matrix   # (nnz, E*4^d) ones, rows the stiffness slots
    stiffness_indptr: np.ndarray        # (n_nodes + 1,) CSR pattern of Grid.stiffness
    stiffness_indices: np.ndarray       # (nnz,)


def _stiffness_pattern(el_nodes: np.ndarray, n_nodes: int):
    """The CSR pattern of the nodal operators, and the assembly matrix whose
    row s holds a one at every entry of the flattened (E, 2^d, 2^d) blocks
    that lands in CSR slot s, columns ascending: its product with the blocks
    sums every slot in element order, as the COO -> CSR conversion does."""
    n_corners = el_nodes.shape[1]
    rows = np.repeat(el_nodes, n_corners, axis=1).reshape(-1)
    cols = np.tile(el_nodes, (1, n_corners)).reshape(-1)
    key = rows * n_nodes + cols
    order = np.argsort(key, kind="stable")  # by (row, col), then block order
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
    slots = key[starts[:-1]]
    index = np.int32 if len(key) < 2**31 else np.int64
    assembly = scipy.sparse.csr_matrix((np.ones(len(key)), order.astype(index), starts.astype(index)),
                                       shape=(len(slots), len(key)))
    indptr = np.searchsorted(slots, np.arange(n_nodes + 1) * n_nodes).astype(index)
    return assembly, indptr, (slots % n_nodes).astype(index)


@lru_cache(maxsize=8)
def _gauss_operators(dim: int, n_el: int, extent: float) -> _GaussOperators:
    """Interpolation and scatter matrices and the stiffness pattern of one
    grid shape, built once."""
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
    ops = _GaussOperators(values, gradients, *_stiffness_pattern(el_nodes, n_nodes))
    for mat in ops[:3]:
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
    for arr in ops[3:]:
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
        self.quad_weight = self.gauss_weight * self.h**dim  # per point of an element, measure h^d
        self.N_gauss = _shape_value_table(self.corners, self.gauss_ref)  # (ngp, 2^d)
        self.dN_gauss = _shape_gradient_table(self.corners, self.gauss_ref) / self.h  # physical (ngp, 2^d, d)

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
    def gauss_values(self, nodal: np.ndarray) -> np.ndarray:
        """(E, ngp, C...) values of the interpolant at the Gauss points."""
        tail = nodal.shape[1:]
        out = self._operators().values @ nodal.reshape(self.n_nodes, -1)
        return out.reshape((self.n_elements, self.n_gauss) + tail)

    def gauss_gradients(self, nodal: np.ndarray) -> np.ndarray:
        """(E, ngp, C..., d) gradients; exact for the multilinear interpolant.

        A strided view of the sparse product, whose rows are (e, g, k), not a
        copy: a point's d |C| derivatives lie in memory in (k, C...) order,
        and the result is not C-contiguous.  A reduction over them, such as
        the einsum of ``energies.PlasticBlock.qn``, sums in that memory order,
        so its bits depend on this layout."""
        tail = nodal.shape[1:]
        out = self._operators().gradients @ nodal.reshape(self.n_nodes, -1)
        out = np.moveaxis(out.reshape(self.n_elements, self.n_gauss, self.dim, -1), 2, -1)
        return out.reshape((self.n_elements, self.n_gauss) + tail + (self.dim,))

    def interpolate_at(self, nodal: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the interpolant at arbitrary points of [0,1]^d; the local
        coordinate is clamped to [0, 1], as 1/h can round up."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.minimum((pts / self.h).astype(int), self.n_el - 1)
        ref = np.clip(pts / self.h - idx, 0.0, 1.0)
        weights = _shape_value_table(self.corners, ref)
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
        out += (self._operators().gradients.T @ flat).reshape(out.shape) * self.quad_weight

    def accumulate_from_values(self, S: np.ndarray, out: np.ndarray, element_mask=None) -> None:
        """out[node] += sum_g w S[e,g,...] N[g,n]."""
        S = self._all_elements(S, element_mask)
        flat = S.reshape(self.n_elements * self.n_gauss, -1)
        out += (self._operators().values.T @ flat).reshape(out.shape) * self.quad_weight

    def stiffness(self, blocks: np.ndarray, element_mask=None) -> scipy.sparse.csr_matrix:
        """Sparse (n_nodes, n_nodes) operator of a scalar nodal field from
        per-element blocks (E', 2^d, 2^d) with rows and columns in corner
        order; blocks of elements sharing a node are summed.  A vector field
        whose components decouple takes this operator with one right-hand
        side column per component.

        The pattern is the grid shape's: every node pair that shares an
        element, whether or not the element is in ``element_mask`` (masked
        out blocks count as zero).  Only the values are computed per call,
        each the sum of its block entries in element order; the read-only
        ``indptr`` and ``indices`` are shared by every operator of the shape."""
        return self.operator(self._operators().assembly @ self._all_elements(blocks, element_mask).reshape(-1))

    def operator(self, values: np.ndarray) -> scipy.sparse.csr_matrix:
        """The nodal operator with ``values`` in the slots of the grid shape's
        CSR pattern.  Operators that ``stiffness`` built on this shape share
        that pattern, so a linear combination of them is the operator of the
        same combination of their ``data``, with no new index arrays."""
        ops = self._operators()
        K = scipy.sparse.csr_matrix((values, ops.stiffness_indices, ops.stiffness_indptr),
                                    shape=(self.n_nodes, self.n_nodes))
        K.has_canonical_format = True
        return K

    @cached_property
    def mass(self) -> scipy.sparse.csr_matrix:
        """The mass matrix sum_g w N_g N_g^T of the multilinear interpolant,
        (n_nodes, n_nodes); m^T M m is the integral of the squared
        interpolant of m, exactly (the Gauss rule integrates it exactly).
        Built on first use and kept with the grid."""
        block = self.quad_weight * self.N_gauss.T @ self.N_gauss
        return self.stiffness(np.broadcast_to(block, (self.n_elements,) + block.shape))

    def integrate(self, per_gauss: np.ndarray, element_mask=None) -> float:
        """Integral of a per-(element, gauss) scalar sample over the (masked) elements."""
        vals = per_gauss if element_mask is None else per_gauss[element_mask]
        return float(np.sum(vals) * self.quad_weight)

    def integrate_rows(self, per_gauss: np.ndarray) -> np.ndarray:
        """``integrate`` of each row of a stack (B, E, ngp) of samples: one
        pairwise sum per contiguous row, as ``integrate`` sums one sample, so
        entry b equals ``integrate(per_gauss[b])`` bit for bit."""
        return per_gauss.reshape(len(per_gauss), -1).sum(axis=1) * self.quad_weight

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


def half_bandwidth(K) -> int:
    """The largest j - i over the stored entries K[i, j] of a sparse matrix (0 if none)."""
    K = K.tocoo()
    return int(np.max(K.col - K.row, initial=0))


def upper_band(K, u: int) -> np.ndarray:
    """The upper band of the symmetric sparse K in LAPACK storage, as
    ``scipy.linalg.solveh_banded`` reads it: shape (u + 1, n), K[i, j] at
    [u + i - j, j] for i <= j <= i + u; u is at least ``half_bandwidth(K)``.
    The array is in Fortran order, so LAPACK can factor it in place."""
    upper = scipy.sparse.triu(K, format="coo")
    band = np.zeros((u + 1, K.shape[0]), order="F")
    band[u + upper.row - upper.col, upper.col] = upper.data
    return band


@dataclass
class DeformationField:
    """Nodal vector field y; its boundary values are the Dirichlet data."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes, self.grid.dim):
            raise GridMismatch(
                f"values shape {self.values.shape} does not match grid ({self.grid.n_nodes}, {self.grid.dim})"
            )

    def copy(self) -> "DeformationField":
        return DeformationField(self.grid, self.values.copy())

    @classmethod
    def zero(cls, grid: Grid) -> "DeformationField":
        return cls(grid, np.zeros((grid.n_nodes, grid.dim)))


def project_to_ball(coeffs: np.ndarray, r_K: float) -> np.ndarray:
    """Rows of ``coeffs`` (..., k) projected radially onto the ball
    |m| <= r_K, in a copy if any row moves; a small relative pad keeps it
    idempotent under rounding."""
    norms = np.linalg.norm(coeffs, axis=-1)
    over = norms > r_K * (1.0 + 1e-14)
    if over.any():
        coeffs = coeffs.copy()
        coeffs[over] *= (r_K / norms[over])[:, None]
    return coeffs


def _in_ball(grid: Grid, coeffs, r_K: float, lead: tuple) -> np.ndarray:
    """``coeffs`` as floats of shape lead + (n_nodes, d^2 - 1), projected
    onto the K ball in one read-only copy: the one check of every
    ``PlasticField``'s data."""
    coeffs = np.asarray(coeffs, dtype=float)
    shape = lead + (grid.n_nodes, grid.dim**2 - 1)
    if coeffs.shape != shape:
        raise GridMismatch(f"coeffs shape {coeffs.shape} does not match {shape}")
    owned = project_to_ball(coeffs, r_K)
    owned = coeffs.copy() if owned is coeffs else owned  # no row moved: copy all the same
    owned.setflags(write=False)
    return owned


@dataclass
class PlasticField:
    """Nodal SL(d) field stored as trace-free log coefficients inside the K ball.

    Construction projects them onto |M| <= r_K (``project_to_ball``) into a
    read-only copy the field owns, so membership in K is an invariant of the
    data, not a runtime check, and a field is known by its identity
    (``energies.FixedY``): no write into its input can change it.  ``rows``
    builds one field per row of a stack with one projection of the whole stack.
    """

    grid: Grid
    coeffs: np.ndarray
    r_K: float

    def __post_init__(self):
        self.coeffs = _in_ball(self.grid, self.coeffs, self.r_K, ())

    @classmethod
    def rows(cls, grid: Grid, coeffs: np.ndarray, r_K: float) -> list:
        """One field per row of ``coeffs`` (B, n_nodes, k): the stack is
        projected once, into one read-only copy, and each field holds its row
        of that copy, a view.  A row of a projected stack is its own
        projection, since ``project_to_ball`` acts row by row and is
        idempotent, so the fields are those that construction would build
        from the rows."""
        fields = []
        for row in _in_ball(grid, coeffs, r_K, (len(coeffs),)):
            field = cls.__new__(cls)
            field.grid, field.coeffs, field.r_K = grid, row, r_K
            fields.append(field)
        return fields

    def log_matrices(self) -> np.ndarray:
        return slgeometry.coeffs_to_matrices(self.coeffs, self.grid.dim)

    def matrices(self) -> np.ndarray:
        return slgeometry.exp_batch(self.log_matrices())

    def copy(self) -> "PlasticField":
        return PlasticField(self.grid, self.coeffs, self.r_K)

    @classmethod
    def identity(cls, grid: Grid, r_K: float) -> "PlasticField":
        return cls(grid, np.zeros((grid.n_nodes, grid.dim**2 - 1)), r_K)


def prolong_deformation(y: DeformationField, fine: Grid) -> DeformationField:
    """Nodal injection: evaluate the coarse interpolant at the fine nodes."""
    vals = y.grid.interpolate_at(y.values, fine.node_coords())
    return DeformationField(fine, vals)


def prolong_plastic(P: PlasticField, fine: Grid) -> PlasticField:
    coeffs = P.grid.interpolate_at(P.coeffs, fine.node_coords())
    return PlasticField(fine, coeffs, r_K=P.r_K)
