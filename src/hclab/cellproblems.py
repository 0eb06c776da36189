"""Cell problems for the limiting energy densities and the limit functional.

Soft phase: the quasiconvexified cell value

    QW0(F, G) = inf { mean_{Q or Q0} W0( (F + grad v) G ) : v zero trace }

in the two equivalent formulations (zero trace on the whole cell, integral
over Q; or zero trace on the inclusion, average over Q0).  Stiff phase: the
multi-cell density

    W1hom(F, G) = lim_lam (1/lam^d) inf int_{(0,lam)^d cap stiff} W1((F+grad y) G^{-1})

approximated on finite windows, with an exact quadratic fast path.  For the
isotropic quadratic W1(X) = a |X|^2 + L : X + k and R = G^{-1}, C = R R^T,
|Y R|^2 = sum_i Y_i C Y_i^T splits the corrector problem into one scalar
problem per component, all with the same stiffness K(C).  K(C) is linear in
C, so each cell window owns its operator basis: the band of the stiffness of
each entry of C over the window's free nodes, and the d columns of
int grad(phi).  A solve fills the band of K(C) from that basis and runs one
banded Cholesky against those columns, which gives the d x d matrix Q,
and the cell energy vol W(F R) - 1/2 tr(D Q D^T) with D = W'(F R) R^T is a
quadratic form in F whose one closed form is ``_cell_tensor``.  The limit
functional uses the fast path only.  A ``JLimitBlock`` is one assembly of it
at one y for a list of P, one row per P, as the limit P-step values the
trials of its line search; a single point is a block of one.  It takes the
one principal log of the Gauss matrices of P with ``slgeometry.log_batch``,
which keys the cache as the y-step's ``HomDensityCache.quantize`` does,
while its ``energies.PlasticBlock`` reads the hardening at the interpolated
log coordinates as J_eps does; the block keeps what its P-gradients need, so
the gradient of an assembled row is finished without a second pass.  The
data that depend on y alone are a ``FixedYLimit``, which the limit y-step
builds once and hands to its P-step: grad y at the Gauss points and, per
lattice key, the stiff energy of its cell tensor there, so that a trial
point gathers its stiff term and its slopes from those rows.

The stiff window of a (cell, resolution, lam) and the soft window of a
(cell, resolution, formulation), each a grid with its active and free masks
and its operator basis, are built once and shared read-only.  Cell values
are memoized in a cache keyed by the cell, the density and an integer point
of a lattice in log coordinates; the cache alone quantizes G, which bounds
the number of solves, and gathers per-point tensors from the keys
(``w1_tensors``, for the y-step).  Solves are deterministic, so cache hits
are bit-identical.

This module owns the defaults of the cell solves: ``CELL_TOL``, the
tolerance of a nonlinear soft cell solve; ``CELL_RESOLUTION``, the cell
grid's elements per unit length; and ``LATTICE_STEP``, the step of the
density cache's lattice in log coordinates.  The functions and
``HomDensityCache`` here default to them, and ``lab`` reads them for its
config defaults and CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from hclab import slgeometry
from hclab.energies import EnergyBreakdown, PlasticBlock
from hclab.fields import Grid, check_same_grid, node_incidence_masks
from hclab.microgeometry import CellGeometry


CELL_TOL = 1e-8
CELL_RESOLUTION = 32
LATTICE_STEP = 1e-2


class CellProblemError(ValueError):
    pass


class SingularG(CellProblemError):
    pass


class SingularSystem(CellProblemError):
    pass


@dataclass
class CellProblemResult:
    """Outcome of one cell solve; value is the normalized density estimate."""

    value: float
    minimizer: np.ndarray | None
    iterations: int
    residual: float
    converged: bool = True


@dataclass
class MulticellResult:
    """Window sequence of the stiff density, largest window as the estimate."""

    per_lambda: dict
    estimate: float


def _check_invertible(G: np.ndarray) -> np.ndarray:
    G = np.asarray(G, dtype=float)
    if abs(np.linalg.det(G)) < 1e-12:
        raise SingularG("second argument of the cell density is singular")
    return G


def _refined_mask(cell: CellGeometry, resolution: int) -> np.ndarray:
    if resolution % cell.resolution:
        raise CellProblemError(
            f"resolution {resolution} must be a multiple of the cell resolution {cell.resolution}"
        )
    r = resolution // cell.resolution
    mask = cell.soft_mask
    for axis in range(cell.dim):
        mask = np.repeat(mask, r, axis=axis)
    return mask


class CellWindow(NamedTuple):
    """One meshed cell problem and its corrector basis, shared read-only.

    ``grid`` carries energy on its ``active`` elements, the unknowns live on
    the ``free`` nodes, and the energy is averaged over ``norm``.  The scalar
    stiffness of C = R R^T is linear in C,

        K(C) = 2a sum_{k <= l} C_kl K^{kl},   K^{kl} = int dN_k dN_l^T (+ transpose if k < l),

    so ``operators`` holds the d(d+1)/2 operators K^{kl} over the free nodes
    in natural order, each as its upper band (d(d+1)/2, bandwidth + 1, n_free)
    in LAPACK storage, with the pairs (k, l) in ``_pairs`` order.  ``grad_phi``
    (n_free, d) holds the integrals of grad(phi_n) over the active elements.
    """

    grid: Grid
    active: np.ndarray
    free: np.ndarray
    norm: float
    operators: np.ndarray
    grad_phi: np.ndarray


def _pairs(d: int) -> list:
    return [(k, l) for k in range(d) for l in range(k, d)]


def _window(grid: Grid, active: np.ndarray, free: np.ndarray, norm: float) -> CellWindow:
    d = grid.dim
    n_active = int(np.count_nonzero(active))
    ops = []
    for k, l in _pairs(d):
        block = grid.quad_weight * np.einsum("gn,gm->nm", grid.dN_gauss[:, :, k], grid.dN_gauss[:, :, l])
        if k != l:
            block = block + block.T
        K = grid.stiffness(np.broadcast_to(block, (n_active,) + block.shape), element_mask=active)
        ops.append(scipy.sparse.triu(K[free][:, free], format="coo"))
    u = max(int(np.max(op.col - op.row, initial=0)) for op in ops)
    operators = np.zeros((len(ops), u + 1, int(np.count_nonzero(free))))
    for band, op in zip(operators, ops):
        band[u + op.row - op.col, op.col] = op.data

    grad_phi = np.zeros((grid.n_nodes, d))
    grid.accumulate_from_gradients(np.broadcast_to(np.eye(d), (n_active, grid.n_gauss, d, d)), grad_phi,
                                   element_mask=active)
    grad_phi = grad_phi[free]
    for arr in (active, free, operators, grad_phi):
        arr.setflags(write=False)
    return CellWindow(grid, active, free, norm, operators, grad_phi)


@lru_cache(maxsize=16)
def _stiff_window(cell: CellGeometry, resolution: int, lam: int) -> CellWindow:
    """Window (0, lam)^d at ``resolution`` elements per unit: its stiff
    elements, the nodes off the window boundary that touch a stiff element,
    norm lam^d, and the corrector basis of those nodes.  Built once per
    (cell, resolution, lam) and shared read-only."""
    d = cell.dim
    grid = Grid(d, lam * resolution, extent=float(lam))
    active = np.tile(~_refined_mask(cell, resolution), (lam,) * d).reshape(-1)
    _, any_active = node_incidence_masks(d, lam * resolution, active)
    free = (~grid.boundary_node_mask()) & any_active
    return _window(grid, active, free, float(lam) ** d)


@lru_cache(maxsize=16)
def _soft_window(cell: CellGeometry, resolution: int, formulation: str) -> CellWindow:
    """Soft cell problem at ``resolution``: the unit-cell grid, the elements
    that carry energy, the nodes off the zero-trace boundary, the measure the
    energy is averaged over, and the corrector basis of those nodes.  Built
    once per (cell, resolution, formulation) and shared read-only."""
    grid = Grid(cell.dim, resolution)
    if formulation == "over_Q":
        active = np.ones(grid.n_elements, dtype=bool)
        free = ~grid.boundary_node_mask()
        norm = 1.0
    elif formulation == "over_Q0":
        if cell.degenerate:
            raise CellProblemError("over_Q0 formulation needs a nonempty inclusion")
        active = _refined_mask(cell, resolution).reshape(-1)
        free, _ = node_incidence_masks(cell.dim, resolution, active)
        norm = float(cell.vol_soft)
    else:
        raise CellProblemError(f"unknown formulation {formulation!r}")
    return _window(grid, active, free, norm)


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K @ x for the symmetric K whose upper band (LAPACK storage) is ``band``."""
    u = band.shape[0] - 1
    out = band[u][:, None] * x
    for o in range(1, u + 1):
        diag = band[u - o, o:, None]  # K[j - o, j]
        out[:-o] += diag * x[o:]
        out[o:] += diag * x[:-o]
    return out


def _quadratic_corrector(window: CellWindow, density, R: np.ndarray):
    """Scalar corrector system of the quadratic density W(X R) on the
    window's active elements, v zero off its free nodes.

    With W(X) = a |X|^2 + L : X + k and C = R R^T, the corrector of F
    minimizes sum_i (1/2 v_i.K.v_i + D_i . int grad v_i) over the components
    v_i on the free nodes, where D = W'(F R) R^T is constant over the active
    elements.  K = 2a sum C_kl K^{kl} is filled from the window's operator
    basis as one band, int grad v_i = grad_phi^T v_i, and one banded Cholesky
    solve with the d columns of grad_phi gives Y = K^{-1} grad_phi; the
    corrector of any F is v[free] = -Y D^T.  Returns (band of K, Y).
    """
    d = window.grid.dim
    a, _, _ = density.isotropic_quad_parts(d)
    C = R @ R.T
    coeffs = 2.0 * a * np.array([C[k, l] for k, l in _pairs(d)])
    band = np.tensordot(coeffs, window.operators, axes=1)
    try:
        Y = scipy.linalg.solveh_banded(band, window.grad_phi, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - geometry invariants prevent this
        raise SingularSystem(f"cell stiffness factorization failed: {exc}") from exc
    return band, Y


def _energy_grad_of(grid: Grid, active: np.ndarray, v: np.ndarray, density, R: np.ndarray, F: np.ndarray):
    grads = grid.gauss_gradients(v)[active]
    X = F[None, None] + grads
    Y = np.matmul(X, R)
    vals = density.value(Y)
    dX = np.matmul(density.grad(Y), R.T[None, None])
    g = np.zeros_like(v)
    grid.accumulate_from_gradients(dX, g, element_mask=active)
    return grid.integrate(vals), g


def _pack(window: CellWindow, x: np.ndarray) -> np.ndarray:
    """Nodal field of the window that is x on its free nodes and 0 elsewhere."""
    v = np.zeros((window.grid.n_nodes, window.grid.dim))
    v[window.free] = x.reshape(-1, window.grid.dim)
    return v


def _quadratic_cell(window: CellWindow, density, R, F):
    """Banded direct solve of the cell problem of a quadratic density; returns
    (minimizer, energy, residual, converged), converged when the residual and
    the energy are both finite.  The energy at the corrector is the cell
    tensor of ``_cell_tensor`` at F."""
    tensor, band, Y = _cell_tensor(window, density, R)
    D = density.grad(F @ R) @ R.T
    sol = -Y @ D.T
    residual = float(np.linalg.norm(_band_matvec(band, sol) + window.grad_phi @ D.T))
    energy = float(tensor.evaluate(F))
    return _pack(window, sol), energy, residual, bool(np.isfinite(residual) and np.isfinite(energy))


def _minimize_cell(window: CellWindow, density, R, F, tol, restarts, seed):
    """Soft cell solve of ``qprime_W0``: ``_quadratic_cell`` for quadratic
    densities, nonlinear CG with seeded restarts of at most 500 iterations
    each otherwise.  v = 0 is always among the starts, so the value never
    exceeds the test-field energy of the mean deformation."""
    if density.is_quadratic:
        v, energy, residual, converged = _quadratic_cell(window, density, R, F)
        return v, energy, 1, residual, converged

    # scipy.optimize is imported only here, off the stock (quadratic) path
    from scipy import optimize

    grid, active, free = window.grid, window.active, window.free
    rng = np.random.default_rng(seed)
    n_free = int(free.sum()) * grid.dim
    starts = [np.zeros(n_free)]
    scale = 0.1 * (1.0 + float(np.linalg.norm(F)))
    for _ in range(restarts):
        starts.append(scale * rng.standard_normal(n_free))

    def objective(x):
        e, g = _energy_grad_of(grid, active, _pack(window, x), density, R, F)
        return e, g[free].reshape(-1)

    best = None
    total_iters = 0
    ok = False
    for x0 in starts:
        res = optimize.minimize(objective, x0, jac=True, method="CG",
                                options={"maxiter": 500, "gtol": tol})
        total_iters += int(res.nit)
        ok = ok or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    v = _pack(window, best.x)
    residual = float(np.linalg.norm(best.jac))
    return v, float(best.fun), total_iters, residual, ok or residual <= tol * 10


def qprime_W0(cell: CellGeometry, W0, F, G, resolution: int = CELL_RESOLUTION, tol: float = CELL_TOL,
              formulation: str = "over_Q0", restarts: int = 3, seed: int = 0) -> CellProblemResult:
    """Quasiconvexified soft cell value QW0(F, G).

    formulation "over_Q": zero trace on the whole cell, plain integral over Q.
    formulation "over_Q0": zero trace on the inclusion boundary, average over
    the inclusion.  The two agree (the infimum does not depend on the domain)
    and tests cross-check them.
    """
    F = np.asarray(F, dtype=float)
    G = _check_invertible(G)
    window = _soft_window(cell, resolution, formulation)
    v, energy, iters, residual, converged = _minimize_cell(window, W0, G, F, tol, restarts, seed)
    return CellProblemResult(value=energy / window.norm, minimizer=v, iterations=iters,
                             residual=residual, converged=converged)


def multicell_W1hom(cell: CellGeometry, W1, F, G, lambdas=(1, 2),
                    resolution: int = CELL_RESOLUTION) -> MulticellResult:
    """Finite-window values of the stiff multi-cell density of a quadratic W1.

    Each window (0, lam)^d is meshed at the same per-unit resolution, the
    deformation has zero trace on the window boundary, and only stiff pixels
    carry energy.  Pasting lam^d copies of a smaller window's minimizer is
    admissible, so the sequence is nonincreasing in lam up to solver
    tolerance; the largest window provides the estimate (the lam -> infinity
    limit is never asserted converged).  Each window is one banded solve.
    """
    if not getattr(W1, "is_quadratic", False):
        raise CellProblemError("multicell_W1hom requires a quadratic stiff density")
    F = np.asarray(F, dtype=float)
    G = _check_invertible(G)
    Ginv = np.linalg.inv(G)
    results = {}
    for lam in sorted(lambdas):
        if lam < 1 or lam != int(lam):
            raise CellProblemError("window sizes must be positive integers")
        lam = int(lam)
        window = _stiff_window(cell, resolution, lam)
        v, energy, residual, converged = _quadratic_cell(window, W1, Ginv, F)
        results[lam] = CellProblemResult(value=energy / window.norm, minimizer=v, iterations=1,
                                         residual=residual, converged=converged)
    top = max(results)
    return MulticellResult(per_lambda=results, estimate=results[top].value)


@dataclass
class EffectiveQuadratic:
    """Quadratic cell energy of a quadratic density at one G,

        F |-> sum_ijl F_ij A_jl F_il + b : F + c,

    with a symmetric d x d matrix A; as a 4-index tensor the quadratic part
    is delta_ik A_jl, since the cell problem acts alike on every row of F.
    A, b and c may be stacked per point, each then evaluated at its own F."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def evaluate(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        quad = np.einsum("...ij,...jl,...il->...", F, self.A, F)
        lin = np.einsum("...ij,...ij->...", self.b, F)
        return quad + lin + self.c


def _cell_tensor(window: CellWindow, density, R: np.ndarray):
    """Cell energy of the quadratic density W = a |X|^2 + L : X + k on the
    window at its corrector, as an ``EffectiveQuadratic`` in F; also returns
    the band of K and Y of ``_quadratic_corrector``.

    With C = R R^T, M = L R^T, vol the measure of the active elements and
    Q = grad_phi^T Y, the energy of F, vol W(F R) - 1/2 tr(D Q D^T) with
    D = W'(F R) R^T = 2a F C + M, expands to

        A = vol a C - 2a^2 C Q C,  b = vol M - 2a M Q C,  c = vol k - 1/2 tr(M Q M^T).
    """
    band, Y = _quadratic_corrector(window, density, R)
    Q = window.grad_phi.T @ Y
    a, L, k = density.isotropic_quad_parts(window.grid.dim)
    C = R @ R.T
    M = L @ R.T
    vol = np.count_nonzero(window.active) * window.grid.h**window.grid.dim
    tensor = EffectiveQuadratic(A=vol * a * C - 2.0 * a * a * (C @ Q @ C),
                                b=vol * M - 2.0 * a * (M @ Q @ C),
                                c=float(vol * k - 0.5 * np.trace(M @ Q @ M.T)))
    return tensor, band, Y


def effective_quadratic_tensor(cell: CellGeometry, W1, G, resolution: int = CELL_RESOLUTION) -> EffectiveQuadratic:
    """Stiff density at one G for a quadratic W1, exact on the lam = 1
    window: the ``_cell_tensor`` of R = G^{-1}, one banded Cholesky solve
    with d right-hand sides."""
    if not getattr(W1, "is_quadratic", False):
        raise CellProblemError("effective_quadratic_tensor requires a quadratic stiff density")
    return _cell_tensor(_stiff_window(cell, resolution, 1), W1, np.linalg.inv(_check_invertible(G)))[0]


# ----------------------------------------------------------------------------


class HomDensityCache:
    """Memoized cell solves keyed by points of a lattice in sl(d).

    ``quantize`` rounds the log coordinates of G to the configured step; every
    lookup takes a cell, a density and an integer key, and solves at the
    lattice point ``reconstruct(key)``.  Entries are stored under
    (cell, density, key), so one cache serves several cells and densities;
    cells and densities are compared by identity.  Results are inserted once
    and never recomputed, so lookups are bit-identical across repeated
    assemblies.
    """

    def __init__(self, step: float = LATTICE_STEP, resolution: int = CELL_RESOLUTION, tol: float = CELL_TOL,
                 seed: int = 0):
        self.step = float(step)
        self.resolution = int(resolution)
        self.tol = float(tol)
        self.seed = int(seed)
        self._qprime: dict = {}
        self._w1: dict = {}

    def quantize(self, G: np.ndarray) -> tuple:
        """Unique lattice keys of the matrices G (N, d, d), and for each
        matrix the index of its key."""
        return self.quantize_logs(slgeometry.log_batch(np.asarray(G, float)))

    def quantize_logs(self, logs: np.ndarray) -> tuple:
        """``quantize`` from the principal logs (N, d, d) of the matrices."""
        keys = np.round(slgeometry.matrices_to_coeffs(logs) / self.step).astype(np.int64)
        # one int64 code per row, in lexicographic order (mixed radix over the
        # column spans); ranks replace the codes before the radix could overflow
        code = np.zeros(len(keys), dtype=np.int64)
        size = 1
        for col in keys.T:
            low = int(col.min())
            span = int(col.max()) - low + 1
            if size * span > 2**62:
                _, code = np.unique(code, return_inverse=True)
                size = int(code.max()) + 1
            code = code * span + (col - low)
            size *= span
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        return [tuple(key) for key in keys[first].tolist()], inverse.reshape(-1)

    def reconstruct(self, key: tuple, dim: int) -> np.ndarray:
        coeffs = np.asarray(key, dtype=float) * self.step
        return slgeometry.exp_batch(slgeometry.coeffs_to_matrices(coeffs, dim))

    def qprime(self, cell: CellGeometry, density, key: tuple) -> CellProblemResult:
        """Soft cell value QW0(0, G^{-1}) over Q0 for the G of ``key``; it is
        solved at the lattice point of G^{-1}, whose key is -key."""
        neg = tuple(-i for i in key)
        entry = (cell, density, neg)
        if entry not in self._qprime:
            self._qprime[entry] = qprime_W0(
                cell, density, np.zeros((cell.dim, cell.dim)), self.reconstruct(neg, cell.dim),
                resolution=self.resolution, tol=self.tol, seed=self.seed,
            )
        return self._qprime[entry]

    def w1_tensor(self, cell: CellGeometry, density, key: tuple) -> EffectiveQuadratic:
        entry = (cell, density, key)
        if entry not in self._w1:
            self._w1[entry] = effective_quadratic_tensor(
                cell, density, self.reconstruct(key, cell.dim), resolution=self.resolution
            )
        return self._w1[entry]

    def w1_tensors(self, cell: CellGeometry, density, keys, inverse: np.ndarray) -> EffectiveQuadratic:
        """The tensors of the lattice points ``keys`` gathered per point: A,
        b and c stacked along ``inverse``, the index of each point's key."""
        tensors = [self.w1_tensor(cell, density, tuple(key)) for key in keys]
        return EffectiveQuadratic(A=np.array([t.A for t in tensors])[inverse],
                                  b=np.array([t.b for t in tensors])[inverse],
                                  c=np.array([t.c for t in tensors])[inverse])


class FixedYLimit:
    """The Gauss data of J_limit that depend on the deformation alone, the
    counterpart of ``energies.FixedY`` for the limit P-step: the cell, model
    and cache they were made with, ``Gy`` (N, d, d), grad y at the Gauss
    points, and for each lattice key the stiff energy of its cell tensor at
    every Gauss point, a row of N values filled on first use.

    One FixedYLimit serves every ``JLimitBlock`` at its deformation: a trial
    point then gathers its stiff energies from the rows instead of
    evaluating tensors at y again.
    """

    def __init__(self, cell: CellGeometry, model, y, cache: HomDensityCache):
        d = y.grid.dim
        self.cell, self.model, self.y, self.cache = cell, model, y, cache
        self.Gy = y.grid.gauss_gradients(y.values).reshape(-1, d, d)
        self._rows: dict = {}

    def stiff(self, keys, inverse: np.ndarray) -> np.ndarray:
        """Stiff energy at each Gauss point p for the key ``keys[inverse[p]]``:
        (N,) for the N Gauss points, or (B N,) for a block's points, its
        fields one after the other."""
        rows = []
        for key in keys:
            key = tuple(key)
            row = self._rows.get(key)
            if row is None:
                tensor = self.cache.w1_tensor(self.cell, self.model.W_stiff, key)
                row = self._rows[key] = tensor.evaluate(self.Gy)
            rows.append(row)
        return np.array(rows)[inverse, np.arange(len(inverse)) % len(self.Gy)]


class JLimitBlock:
    """One assembly of the homogenized functional at the deformation of
    ``fixed`` for a list of plastic fields on its macro grid, such as the
    trial points of a line search: ``breakdowns`` holds the energy of each
    field, and ``grad_m(row)`` finishes the gradient of field ``row`` from
    the arrays the block computed.  A single point is ``JLimitBlock(fixed,
    [P])``.

    J0 books the soft cell value at F = 0 and the soft hardening fraction; J1
    carries the stiff density at the deformation gradient, the stiff
    hardening fraction, and the plastic-gradient term.  The P-only terms are
    an ``energies.PlasticBlock``'s.  Densities are fetched through the cache
    at G quantized per Gauss point; the stiff density goes through the
    quadratic cell tensor, so a non-quadratic W1 raises CellProblemError.

    The fields share every step: one product for their Gauss values of P,
    one principal log (``slgeometry.log_batch``) and one ``quantize_logs``
    over all their Gauss matrices, one ``FixedYLimit`` row gather, and each
    field's integrals as row sums.  Per-Gauss arrays carry a leading axis of
    one contiguous row per field, on which each step acts as on one field,
    so each row's breakdown, keys and gradient are those of a block of that
    field alone bit for bit.
    """

    def __init__(self, fixed: FixedYLimit, Ps: list):
        cell, model, cache = fixed.cell, fixed.model, fixed.cache
        grid = fixed.y.grid
        for P in Ps:
            check_same_grid(P.grid, grid, "plastic field and deformation")
        d = grid.dim
        self.fixed = fixed
        self.plastic = plastic = PlasticBlock(model, Ps)
        self.Pg = np.ascontiguousarray(grid.gauss_values(plastic.Pn.swapaxes(0, 1)).transpose(2, 0, 1, 3, 4))

        # stiff density through the quadratic fast path (per unique quantized G),
        # keyed on the principal log of each Gauss value of P, as the y-step's
        # ``HomDensityCache.quantize`` keys it
        logs = slgeometry.rowwise(slgeometry.log_batch, self.Pg)
        self.keys, inverse = cache.quantize_logs(logs.reshape(-1, d, d))
        w1_vals = fixed.stiff(self.keys, inverse)
        soft_vals = np.array([0.0 if cell.degenerate else cache.qprime(cell, model.W_soft_limit, key).value
                              for key in self.keys])[inverse]
        self.inverse = inverse.reshape(len(Ps), -1)

        vol_s, vol_t = float(cell.vol_soft), float(cell.vol_stiff)
        int_H = grid.integrate_rows(plastic.hardening).tolist()
        soft_el = grid.integrate_rows(soft_vals.reshape(self.inverse.shape)).tolist()
        stiff_el = grid.integrate_rows(w1_vals.reshape(self.inverse.shape)).tolist()
        self.breakdowns = [
            EnergyBreakdown.from_parts(soft_elastic=vol_s * soft, stiff_elastic=stiff, hardening_soft=vol_s * H,
                                       hardening_stiff=vol_t * H, grad_P_term=grad_P)
            for soft, stiff, H, grad_P in zip(soft_el, stiff_el, int_H, plastic.grad_P_term.tolist())
        ]

    def row_keys(self, row: int) -> tuple:
        """The lattice keys of field ``row``'s Gauss points, in the block's
        (sorted) order, and for each point the index of its key: those of a
        block of that field alone."""
        used, inverse = np.unique(self.inverse[row], return_inverse=True)
        return [self.keys[i] for i in used], inverse

    def grad_m(self, row: int) -> np.ndarray:
        """Gradient of field ``row`` with respect to its nodal log coefficients.

        The stiff density's slope in each log coordinate of G is the central
        difference of the ``FixedYLimit`` rows one quantization step above
        and below each point's key (approximate, which only affects the step
        quality of the line search; the Armijo test runs on the exact
        assembled energy).  The slopes form the log-space cotangent
        sum_i slope_i E_i, which the adjoint of the log's differential at the
        Gauss values of P turns into a cotangent of those values for the
        field's ``PlasticPass``.
        """
        fixed, Pg = self.fixed, self.Pg[row]
        keys, inverse = self.row_keys(row)
        keys = np.array(keys)

        def stiff_at(shift):
            return fixed.stiff((keys + shift).tolist(), inverse)

        shifts = np.eye(keys.shape[1], dtype=np.int64)
        slopes = np.array([stiff_at(s) - stiff_at(-s) for s in shifts]) / (2.0 * fixed.cache.step)
        dlog = np.einsum("ap,aij->pij", slopes, slgeometry.sl_basis(fixed.y.grid.dim))
        # the public adjoint: in 2D this is its only caller, and perfbench's
        # per-layer counters read its calls
        sens = slgeometry.log_frechet_adjoint(Pg, dlog.reshape(Pg.shape))
        return self.plastic.candidate(row).gradient(sens)


def assemble_J_limit(cell: CellGeometry, model, y, P, cache: HomDensityCache) -> EnergyBreakdown:
    """Homogenized functional on a macro grid, the ``JLimitBlock`` of P alone;
    ``y`` is the deformation or a ``FixedYLimit`` of this cell, model and
    cache."""
    if not isinstance(y, FixedYLimit):
        y = FixedYLimit(cell, model, y, cache)
    elif y.cell is not cell or y.model is not model or y.cache is not cache:
        raise CellProblemError("the fixed deformation data belong to another cell, model or cache")
    return JLimitBlock(y, [P]).breakdowns[0]
