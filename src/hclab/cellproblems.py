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
problem per component, all with the same stiffness K(C).  One factorization
of K solved against the d columns of int grad(phi) gives the d x d matrix Q,
and W1hom(F) = vol W1(F R) - 1/2 tr(D Q D^T) with D = W1'(F R) R^T is a
quadratic form in F with a d x d coefficient matrix.  The limit functional
uses the fast path only.  A ``JLimitPass`` is one assembly of it at (y, P):
it takes one principal log of the Gauss matrices of P, which keys the cache
and gives the hardening, and keeps what its P-gradient needs, so the
gradient of an assembled point is finished without a second pass.

The stiff window of a (cell, resolution, lam) and the soft window of a
(cell, resolution, formulation), each a grid with its active and free masks,
are built once and shared.  Cell values are memoized in a cache
keyed by the cell, the density and an integer point of a lattice in log
coordinates; the cache alone quantizes G, which keeps the number of solves
bounded during limit-functional minimization.  Solves are deterministic, so
cache hits are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.optimize
import scipy.sparse.linalg

from hclab import slgeometry
from hclab.energies import EnergyBreakdown, log_coefficient_gradient
from hclab.fields import Grid, node_incidence_masks
from hclab.microgeometry import CellGeometry


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
    formulation: str
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


@lru_cache(maxsize=16)
def _stiff_window(cell: CellGeometry, resolution: int, lam: int):
    """(grid, active, free) of the window (0, lam)^d at ``resolution`` elements
    per unit: the grid, its stiff elements, and the nodes off the window
    boundary that touch a stiff element.  Built once per (cell, resolution,
    lam) and shared; the masks are read-only."""
    d = cell.dim
    grid = Grid(d, lam * resolution, extent=float(lam))
    active = np.tile(~_refined_mask(cell, resolution), (lam,) * d).reshape(-1)
    _, any_active = node_incidence_masks(d, lam * resolution, active)
    free = (~grid.boundary_node_mask()) & any_active
    active.setflags(write=False)
    free.setflags(write=False)
    return grid, active, free


@lru_cache(maxsize=16)
def _soft_window(cell: CellGeometry, resolution: int, formulation: str):
    """(grid, active, free, norm) of the soft cell problem at ``resolution``:
    the unit-cell grid, the elements that carry energy, the nodes off the
    zero-trace boundary, and the measure the energy is averaged over.  Built
    once per (cell, resolution, formulation) and shared; the masks are
    read-only."""
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
    active.setflags(write=False)
    free.setflags(write=False)
    return grid, active, free, norm


def _quadratic_corrector(grid: Grid, active: np.ndarray, free: np.ndarray, density, R: np.ndarray):
    """Scalar corrector system of the quadratic density W(X R) on the active
    elements, v zero off the free nodes.

    With W(X) = a |X|^2 + L : X + k and C = R R^T, the corrector of F
    minimizes sum_i (1/2 v_i.K.v_i + D_i . int grad v_i) over the components
    v_i on the free nodes, where D = W'(F R) R^T is constant over the active
    elements.  K is the scalar stiffness with element blocks
    2a wq sum_g dN C dN^T, and int grad v_i = grad_phi^T v_i with grad_phi the
    (n_free, d) integrals of grad(phi_n) over the active elements.  One
    factorization of K and one solve with the d columns of grad_phi give
    Y = K^{-1} grad_phi, and the corrector of any F is v[free] = -Y D^T.
    Returns (K, grad_phi, Y).
    """
    d = grid.dim
    a, _, _ = density.isotropic_quad_parts(d)
    C = R @ R.T
    wq = grid.gauss_weight * grid.h**d
    block = 2.0 * a * wq * np.einsum("gnk,kl,gml->nm", grid.dN_gauss, C, grid.dN_gauss)
    n_active = int(np.count_nonzero(active))
    K = grid.stiffness(np.broadcast_to(block, (n_active,) + block.shape), element_mask=active)
    K = K[free][:, free].tocsc()
    try:
        lu = scipy.sparse.linalg.splu(K)
    except RuntimeError as exc:  # pragma: no cover - geometry invariants prevent this
        raise SingularSystem(f"cell stiffness factorization failed: {exc}") from exc

    grad_phi = np.zeros((grid.n_nodes, d))
    grid.accumulate_from_gradients(np.broadcast_to(np.eye(d), (n_active, grid.n_gauss, d, d)), grad_phi,
                                   element_mask=active)
    grad_phi = grad_phi[free]
    return K, grad_phi, lu.solve(grad_phi)


def _energy_of(grid: Grid, active: np.ndarray, v: np.ndarray, density, R: np.ndarray, F: np.ndarray):
    grads = grid.gauss_gradients(v)[active]
    X = F[None, None] + grads
    return grid.integrate(density.value(np.matmul(X, R)))


def _energy_grad_of(grid: Grid, active: np.ndarray, v: np.ndarray, density, R: np.ndarray, F: np.ndarray):
    grads = grid.gauss_gradients(v)[active]
    X = F[None, None] + grads
    Y = np.matmul(X, R)
    vals = density.value(Y)
    dX = np.matmul(density.grad(Y), R.T[None, None])
    g = np.zeros_like(v)
    grid.accumulate_from_gradients(dX, g, element_mask=active)
    return grid.integrate(vals), g


def _minimize_cell(grid, active, free, density, R, F, tol, maxiter, restarts, seed, quadratic):
    """Shared driver: direct sparse solve for quadratic densities, nonlinear CG
    with seeded restarts otherwise.  v = 0 is always among the starts, so the
    value never exceeds the test-field energy of the mean deformation."""
    d = grid.dim

    def pack(x):
        v = np.zeros((grid.n_nodes, d))
        v[free] = x.reshape(-1, d)
        return v

    if quadratic:
        K, grad_phi, Y = _quadratic_corrector(grid, active, free, density, R)
        D = density.grad(F @ R) @ R.T
        sol = -Y @ D.T
        v = pack(sol)
        residual = float(np.linalg.norm(K @ sol + grad_phi @ D.T))
        return v, _energy_of(grid, active, v, density, R, F), 1, residual, True

    rng = np.random.default_rng(seed)
    n_free = int(free.sum()) * d
    starts = [np.zeros(n_free)]
    scale = 0.1 * (1.0 + float(np.linalg.norm(F)))
    for _ in range(restarts):
        starts.append(scale * rng.standard_normal(n_free))

    def objective(x):
        e, g = _energy_grad_of(grid, active, pack(x), density, R, F)
        return e, g[free].reshape(-1)

    best = None
    total_iters = 0
    ok = False
    for x0 in starts:
        res = scipy.optimize.minimize(objective, x0, jac=True, method="CG",
                                      options={"maxiter": maxiter, "gtol": tol})
        total_iters += int(res.nit)
        ok = ok or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    v = pack(best.x)
    residual = float(np.linalg.norm(best.jac))
    return v, float(best.fun), total_iters, residual, ok or residual <= tol * 10


def qprime_W0(cell: CellGeometry, W0, F, G, resolution: int = 32, tol: float = 1e-8,
              formulation: str = "over_Q0", restarts: int = 3, seed: int = 0,
              maxiter: int = 500) -> CellProblemResult:
    """Quasiconvexified soft cell value QW0(F, G).

    formulation "over_Q": zero trace on the whole cell, plain integral over Q.
    formulation "over_Q0": zero trace on the inclusion boundary, average over
    the inclusion.  The two agree (the infimum does not depend on the domain)
    and tests cross-check them.
    """
    F = np.asarray(F, dtype=float)
    G = _check_invertible(G)
    grid, active, free, norm = _soft_window(cell, resolution, formulation)
    v, energy, iters, residual, converged = _minimize_cell(
        grid, active, free, W0, G, F, tol, maxiter, restarts, seed, quadratic=W0.is_quadratic
    )
    return CellProblemResult(value=energy / norm, minimizer=v, iterations=iters,
                             residual=residual, formulation=formulation, converged=converged)


def multicell_W1hom(cell: CellGeometry, W1, F, G, lambdas=(1, 2), resolution: int = 32,
                    tol: float = 1e-8, seed: int = 0, maxiter: int = 500) -> MulticellResult:
    """Finite-window values of the stiff multi-cell density.

    Each window (0, lam)^d is meshed at the same per-unit resolution, the
    deformation has zero trace on the window boundary, and only stiff pixels
    carry energy.  Pasting lam^d copies of a smaller window's minimizer is
    admissible, so the sequence is nonincreasing in lam up to solver
    tolerance; the largest window provides the estimate (the lam -> infinity
    limit is never asserted converged).
    """
    F = np.asarray(F, dtype=float)
    G = _check_invertible(G)
    Ginv = np.linalg.inv(G)
    results = {}
    for lam in sorted(lambdas):
        if lam < 1 or lam != int(lam):
            raise CellProblemError("window sizes must be positive integers")
        lam = int(lam)
        grid, active, free = _stiff_window(cell, resolution, lam)
        v, energy, iters, residual, converged = _minimize_cell(
            grid, active, free, W1, Ginv, F, tol, maxiter, 3, seed, quadratic=W1.is_quadratic
        )
        results[lam] = CellProblemResult(
            value=energy / float(lam) ** cell.dim, minimizer=v, iterations=iters,
            residual=residual, formulation=f"multicell({lam})", converged=converged,
        )
    top = max(results)
    return MulticellResult(per_lambda=results, estimate=results[top].value)


@dataclass
class EffectiveQuadratic:
    """Stiff density at one G for a quadratic W1, exact on the lam = 1 window:

        F |-> sum_ijl F_ij A_jl F_il + b : F + c,

    with a symmetric d x d matrix A; as a 4-index tensor the quadratic part
    is delta_ik A_jl, since the cell problem acts alike on every row of F."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def evaluate(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        quad = np.einsum("...ij,jl,...il->...", F, self.A, F)
        lin = np.einsum("ij,...ij->...", self.b, F)
        return quad + lin + self.c


def effective_quadratic_tensor(cell: CellGeometry, W1, G, resolution: int = 32) -> EffectiveQuadratic:
    """Stiff density at one G for a quadratic W1 = a |X|^2 + L : X + k, window lam = 1.

    With R = G^{-1}, C = R R^T, M = L R^T and vol = |stiff cell|, the
    corrector system (K, grad_phi, Y) of ``_quadratic_corrector`` gives the
    d x d matrix Q = grad_phi^T K^{-1} grad_phi.  The cell energy of F at its
    corrector, vol W1(F R) - 1/2 tr(D Q D^T) with D = 2a F C + M, expands to
    the form of ``EffectiveQuadratic`` with

        A = vol a C - 2a^2 C Q C,  b = vol M - 2a M Q C,  c = vol k - 1/2 tr(M Q M^T).

    One scalar factorization and one solve with d right-hand sides.
    """
    if not getattr(W1, "is_quadratic", False):
        raise CellProblemError("effective_quadratic_tensor requires a quadratic stiff density")
    G = _check_invertible(G)
    R = np.linalg.inv(G)
    grid, active, free = _stiff_window(cell, resolution, 1)
    _, grad_phi, Y = _quadratic_corrector(grid, active, free, W1, R)
    Q = grad_phi.T @ Y
    a, L, k = W1.isotropic_quad_parts(cell.dim)
    C = R @ R.T
    M = L @ R.T
    vol = np.count_nonzero(active) * grid.h**cell.dim
    return EffectiveQuadratic(A=vol * a * C - 2.0 * a * a * (C @ Q @ C),
                              b=vol * M - 2.0 * a * (M @ Q @ C),
                              c=float(vol * k - 0.5 * np.trace(M @ Q @ M.T)))


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

    def __init__(self, step: float = 1e-2, resolution: int = 32, tol: float = 1e-8, seed: int = 0):
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
        coeffs = slgeometry.matrices_to_coeffs(logs)
        uniq, inverse = np.unique(np.round(coeffs / self.step).astype(int), axis=0, return_inverse=True)
        return [tuple(int(i) for i in key) for key in uniq], inverse.reshape(-1)

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


class JLimitPass:
    """One assembly of the homogenized functional at (y, P) on a macro grid:
    ``breakdown`` is the energy, and ``grad_m()`` finishes its gradient with
    respect to the nodal log coefficients of P from the arrays this pass
    computed.

    J0 books the soft cell value at F = 0 and the soft hardening fraction; J1
    carries the stiff density at the deformation gradient, the stiff
    hardening fraction, and the plastic-gradient term.  Densities are fetched
    through the cache at G quantized per Gauss point; the stiff density goes
    through the quadratic cell tensor, so a non-quadratic W1 raises
    CellProblemError.
    """

    def __init__(self, cell: CellGeometry, model, y, P, cache: HomDensityCache):
        grid = y.grid
        if P.grid.n_el != grid.n_el or P.grid.dim != grid.dim:
            raise CellProblemError("macro fields live on different grids")
        d = grid.dim
        self.cell, self.model, self.P, self.cache = cell, model, P, cache
        Pn = P.matrices()
        self.Pg = grid.gauss_values(Pn).reshape(-1, d, d)
        self.Gy = grid.gauss_gradients(y.values).reshape(-1, d, d)
        self.logs = slgeometry.log_batch(self.Pg)

        # stiff density through the quadratic fast path (per unique quantized G)
        self.keys, self.inverse = cache.quantize_logs(self.logs)
        w1_vals = np.empty(len(self.Pg))
        soft_vals = np.zeros(len(self.Pg))
        for u, key in enumerate(self.keys):
            sel = self.inverse == u
            w1_vals[sel] = cache.w1_tensor(cell, model.W_stiff, key).evaluate(self.Gy[sel])
            if not cell.degenerate:
                soft_vals[sel] = cache.qprime(cell, model.W_soft_limit, key).value

        wq = grid.gauss_weight * grid.h**d
        Hg = model.h0 + model.h1 * np.einsum("...ij,...ij->...", self.logs, self.logs)
        self.gradP = grid.gauss_gradients(Pn)
        self.qn = np.einsum("egijk,egijk->eg", self.gradP, self.gradP)
        vol_s, vol_t = float(cell.vol_soft), float(cell.vol_stiff)
        int_H = float(np.sum(Hg) * wq)
        self.breakdown = EnergyBreakdown.from_parts(
            soft_elastic=vol_s * float(np.sum(soft_vals) * wq),
            stiff_elastic=float(np.sum(w1_vals) * wq),
            hardening_soft=vol_s * int_H,
            hardening_stiff=vol_t * int_H,
            grad_P_term=float(np.sum(self.qn ** (model.q / 2.0)) * wq),
        )

    def grad_m(self) -> np.ndarray:
        """Gradient with respect to the nodal log coefficients of P.

        Hardening and the q-regularizer differentiate exactly.  The stiff
        density's G-sensitivity is recovered by central differences of the
        cached tensors across one quantization step, least-squares fitted on
        the exponential's tangent directions at the lattice point
        (approximate, which only affects the step quality of the line search;
        the Armijo test runs on the exact assembled energy).
        """
        cell, model, cache = self.cell, self.model, self.cache
        grid = self.P.grid
        d = grid.dim
        ksl = d * d - 1
        sens = np.zeros((len(self.Gy), d, d))
        for u, key in enumerate(self.keys):
            sel = self.inverse == u
            Fsel = self.Gy[sel]
            slopes = np.zeros((ksl, int(sel.sum())))
            for i in range(ksl):
                tp = cache.w1_tensor(cell, model.W_stiff, tuple(k + (j == i) for j, k in enumerate(key)))
                tm = cache.w1_tensor(cell, model.W_stiff, tuple(k - (j == i) for j, k in enumerate(key)))
                slopes[i] = (tp.evaluate(Fsel) - tm.evaluate(Fsel)) / (2.0 * cache.step)
            M_q = slgeometry.coeffs_to_matrices(np.asarray(key, float) * cache.step, d)
            T = np.stack([
                slgeometry.exp_batch(M_q + 1e-7 * slgeometry.sl_basis(d)[i]) - slgeometry.exp_batch(M_q - 1e-7 * slgeometry.sl_basis(d)[i])
                for i in range(ksl)
            ]) / 2e-7  # tangent directions dexp_M[E_i]
            Gram = np.einsum("aij,bij->ab", T, T)
            alpha = np.linalg.solve(Gram, slopes)
            sens[sel] = np.einsum("ap,aij->pij", alpha, T)
        shape = (grid.n_elements, grid.n_gauss, d, d)
        hardening = 2.0 * model.h1 * slgeometry.log_frechet_adjoint(self.Pg, self.logs)
        dP = (float(cell.vol_soft) + float(cell.vol_stiff)) * hardening.reshape(shape) + sens.reshape(shape)
        return log_coefficient_gradient(grid, self.P, dP, self.gradP, self.qn, model.q)


def assemble_J_limit(cell: CellGeometry, model, y, P, cache: HomDensityCache) -> EnergyBreakdown:
    """Homogenized functional on a macro grid; see ``JLimitPass``."""
    return JLimitPass(cell, model, y, P, cache).breakdown


def value_and_grad_J_limit(cell: CellGeometry, model, y, P, cache: HomDensityCache):
    """(EnergyBreakdown, gradient) of one pass of the homogenized functional;
    the gradient is with respect to the nodal log coefficients of P."""
    point = JLimitPass(cell, model, y, P, cache)
    return point.breakdown, point.grad_m()
