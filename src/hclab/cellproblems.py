"""Cell problems for the limiting energy densities and the limit functional.

Soft phase: the quasiconvexified cell value

    QW0(F, G) = inf { mean_{Q or Q0} W0( (F + grad v) G ) : v zero trace }

in the two equivalent formulations (zero trace on the whole cell, integral
over Q; or zero trace on the inclusion, average over Q0).  Stiff phase: the
multi-cell density

    W1hom(F, G) = lim_lam (1/lam^d) inf int_{(0,lam)^d cap stiff} W1((F+grad y) G^{-1})

approximated on finite windows, with an exact quadratic fast path: for
quadratic W1 the corrector map F -> minimum is a quadratic form obtained from
d^2 + 1 linear solves, so the density and its F-gradient come for free.  The
limit functional uses the fast path only.

Cell values are memoized in a cache keyed by quantized inputs (G quantized in
log coordinates), which keeps the number of solves bounded during limit-
functional minimization; solves are deterministic, so cache hits are
bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse.linalg

from hclab import slgeometry
from hclab.energies import EnergyBreakdown
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


def _quadratic_corrector(grid: Grid, active: np.ndarray, free: np.ndarray, density, R: np.ndarray):
    """Corrector map F -> (v, residual) of the quadratic density W(X R) on the
    active elements, v zero off the free nodes.  The stiffness is assembled
    and factorized once.  The load of a drive D that is constant over the
    active elements is -D . int grad(phi_n), so the integrals are scattered
    once and each F costs a (nodes x d) product and one solve."""
    d = grid.dim
    a, L, _ = density.isotropic_quad_parts(d)
    C = R @ R.T
    Leff = L @ R.T
    wq = grid.gauss_weight * grid.h**d
    gCg = np.einsum("gnk,kl,gml->gnm", grid.dN_gauss, C, grid.dN_gauss)
    block = np.einsum("nm,ij->nimj", 2.0 * a * wq * gCg.sum(axis=0), np.eye(d))
    block = block.reshape(grid.n_corners * d, grid.n_corners * d)
    n_active = int(np.count_nonzero(active))
    K = grid.stiffness(np.broadcast_to(block, (n_active,) + block.shape), element_mask=active)
    free_dof = np.repeat(free, d)
    K = K[free_dof][:, free_dof].tocsc()
    try:
        lu = scipy.sparse.linalg.splu(K)
    except RuntimeError as exc:  # pragma: no cover - geometry invariants prevent this
        raise SingularSystem(f"cell stiffness factorization failed: {exc}") from exc

    grad_phi = np.zeros((grid.n_nodes, d))  # int over the active elements of grad(phi_n)
    grid.accumulate_from_gradients(np.broadcast_to(np.eye(d), (n_active, grid.n_gauss, d, d)), grad_phi,
                                   element_mask=active)

    def corrector(F: np.ndarray):
        drive = 2.0 * a * F @ C + Leff
        rhs = -(grad_phi @ drive.T).reshape(-1)[free_dof]
        sol = lu.solve(rhs)
        v = np.zeros(grid.n_nodes * d)
        v[free_dof] = sol
        return v.reshape(grid.n_nodes, d), float(np.linalg.norm(K @ sol - rhs))

    return corrector


def _energy_of(grid: Grid, active: np.ndarray, v: np.ndarray, density, R: np.ndarray, F: np.ndarray):
    grads = grid.gauss_gradients(v)[active]
    X = F[None, None] + grads
    return grid.integrate(density.value(np.matmul(X, R)))


def _energy_grad_of(grid: Grid, active: np.ndarray, v: np.ndarray, density, R: np.ndarray, F: np.ndarray):
    grads = grid.gauss_gradients(v)[active]
    X = F[None, None] + grads
    Y = np.matmul(X, R)
    vals = density.value(Y)
    Wp = density.grad(Y)
    if isinstance(Wp, tuple):
        Wp = Wp[0]
    dX = np.matmul(Wp, R.T[None, None])
    g = np.zeros_like(v)
    grid.accumulate_from_gradients(dX, g, element_mask=active)
    return grid.integrate(vals), g


def _minimize_cell(grid, active, free, density, R, F, tol, maxiter, restarts, seed, quadratic):
    """Shared driver: direct sparse solve for quadratic densities, nonlinear CG
    with seeded restarts otherwise.  v = 0 is always among the starts, so the
    value never exceeds the test-field energy of the mean deformation."""
    d = grid.dim
    if quadratic:
        v, residual = _quadratic_corrector(grid, active, free, density, R)(F)
        return v, _energy_of(grid, active, v, density, R, F), 1, residual, True

    rng = np.random.default_rng(seed)
    free_dof = np.repeat(free, d)
    n_free = int(free_dof.sum())
    starts = [np.zeros(n_free)]
    scale = 0.1 * (1.0 + float(np.linalg.norm(F)))
    for _ in range(restarts):
        starts.append(scale * rng.standard_normal(n_free))

    def pack(x):
        v = np.zeros(grid.n_nodes * d)
        v[free_dof] = x
        return v.reshape(grid.n_nodes, d)

    def objective(x):
        e, g = _energy_grad_of(grid, active, pack(x), density, R, F)
        return e, g.reshape(-1)[free_dof]

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
    d = cell.dim
    grid = Grid(d, resolution)
    if formulation == "over_Q":
        active = np.ones(grid.n_elements, dtype=bool)
        free = ~grid.boundary_node_mask()
        norm = 1.0
    elif formulation == "over_Q0":
        if cell.degenerate:
            raise CellProblemError("over_Q0 formulation needs a nonempty inclusion")
        soft = _refined_mask(cell, resolution).reshape(-1)
        active = soft
        free, _ = node_incidence_masks(d, resolution, soft)
        norm = float(cell.vol_soft)
    else:
        raise CellProblemError(f"unknown formulation {formulation!r}")
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
    d = cell.dim
    stiff_unit = ~_refined_mask(cell, resolution)
    results = {}
    for lam in sorted(lambdas):
        if lam < 1 or lam != int(lam):
            raise CellProblemError("window sizes must be positive integers")
        lam = int(lam)
        grid = Grid(d, lam * resolution, extent=float(lam))
        active = np.tile(stiff_unit, (lam,) * d).reshape(-1)
        _, any_active = node_incidence_masks(d, lam * resolution, active)
        free = (~grid.boundary_node_mask()) & any_active
        v, energy, iters, residual, converged = _minimize_cell(
            grid, active, free, W1, Ginv, F, tol, maxiter, 3, seed, quadratic=W1.is_quadratic
        )
        results[lam] = CellProblemResult(
            value=energy / float(lam) ** d, minimizer=v, iterations=iters,
            residual=residual, formulation=f"multicell({lam})", converged=converged,
        )
    top = max(results)
    return MulticellResult(per_lambda=results, estimate=results[top].value)


@dataclass
class EffectiveQuadratic:
    """Quadratic form F |-> A[F,F] + b:F + c representing the stiff density
    at one G for a quadratic W1 (exact, from d^2 + 1 corrector solves)."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def evaluate(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        quad = np.einsum("ijkl,...ij,...kl->...", self.A, F, F)
        lin = np.einsum("ij,...ij->...", self.b, F)
        return quad + lin + self.c

    def grad(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        return 2.0 * np.einsum("ijkl,...kl->...ij", self.A, F) + self.b


def effective_quadratic_tensor(cell: CellGeometry, W1, G, resolution: int = 32) -> EffectiveQuadratic:
    """Fast path for quadratic W1 at window lam = 1.

    Solves one corrector per matrix basis direction plus one for the affine
    drive, then reads (A, b, c) off by polarization; exact because the
    corrector map is linear in F and the energy is jointly quadratic.
    """
    if not getattr(W1, "is_quadratic", False):
        raise CellProblemError("effective_quadratic_tensor requires a quadratic stiff density")
    G = _check_invertible(G)
    Ginv = np.linalg.inv(G)
    d = cell.dim
    grid = Grid(d, resolution)
    active = (~_refined_mask(cell, resolution)).reshape(-1)
    _, any_active = node_incidence_masks(d, resolution, active)
    free = (~grid.boundary_node_mask()) & any_active
    corrector = _quadratic_corrector(grid, active, free, W1, Ginv)

    def value(F):
        return _energy_of(grid, active, corrector(F)[0], W1, Ginv, F)

    zero = np.zeros((d, d))
    c0 = value(zero)
    basis = [np.eye(d)[i][:, None] * np.eye(d)[j][None, :] for i in range(d) for j in range(d)]
    vp = np.array([value(E) for E in basis])
    vm = np.array([value(-E) for E in basis])
    b = ((vp - vm) / 2.0).reshape(d, d)
    A = np.zeros((d, d, d, d))
    diag = (vp + vm) / 2.0 - c0
    for n, E in enumerate(basis):
        i, j = divmod(n, d)
        A[i, j, i, j] = diag[n]
    for n1 in range(d * d):
        for n2 in range(n1 + 1, d * d):
            i1, j1 = divmod(n1, d)
            i2, j2 = divmod(n2, d)
            # polarization gives 2 A[p1,p2]; symmetric storage then feeds the
            # evaluation sum at both (p1,p2) and (p2,p1)
            cross = value(basis[n1] + basis[n2]) - vp[n1] - vp[n2] + c0
            A[i1, j1, i2, j2] = A[i2, j2, i1, j1] = 0.5 * cross
    return EffectiveQuadratic(A=A, b=b, c=c0)


# ----------------------------------------------------------------------------


class HomDensityCache:
    """Memoized cell solves keyed by quantized (F, G).

    G is quantized in log coordinates with the configured step; results are
    inserted once and never recomputed, so lookups are bit-identical across
    repeated assemblies.  Only values and metadata persist to the snapshot
    file; minimizer fields are dropped.
    """

    def __init__(self, step: float = 1e-2, resolution: int = 32, tol: float = 1e-8, seed: int = 0):
        self.step = float(step)
        self.resolution = int(resolution)
        self.tol = float(tol)
        self.seed = int(seed)
        self._qprime: dict = {}
        self._w1: dict = {}

    # -- quantization -------------------------------------------------------
    def quantize_log_key(self, G: np.ndarray) -> tuple:
        coeffs = slgeometry.matrices_to_coeffs(slgeometry.log_batch(np.asarray(G, float)))
        return tuple(int(i) for i in np.round(coeffs / self.step))

    def reconstruct(self, key: tuple, dim: int) -> np.ndarray:
        coeffs = np.asarray(key, dtype=float) * self.step
        return slgeometry.exp_batch(slgeometry.coeffs_to_matrices(coeffs, dim))

    def quantize_mat_key(self, F: np.ndarray) -> tuple:
        return tuple(int(i) for i in np.round(np.asarray(F, float).reshape(-1) / self.step))

    # -- cached solves --------------------------------------------------------
    def qprime(self, cell: CellGeometry, density, F, G, formulation: str = "over_Q0") -> CellProblemResult:
        key = (formulation, self.quantize_mat_key(F), self.quantize_log_key(G))
        if key not in self._qprime:
            Fq = np.asarray(key[1], dtype=float).reshape(cell.dim, cell.dim) * self.step
            Gq = self.reconstruct(key[2], cell.dim)
            self._qprime[key] = qprime_W0(
                cell, density, Fq, Gq, resolution=self.resolution, tol=self.tol,
                formulation=formulation, seed=self.seed,
            )
        return self._qprime[key]

    def w1_tensor(self, cell: CellGeometry, density, G) -> EffectiveQuadratic:
        key = self.quantize_log_key(G)
        if key not in self._w1:
            self._w1[key] = effective_quadratic_tensor(
                cell, density, self.reconstruct(key, cell.dim), resolution=self.resolution
            )
        return self._w1[key]

    # -- persistence ----------------------------------------------------------
    def save(self, path) -> None:
        data = {
            "step": self.step,
            "resolution": self.resolution,
            "tol": self.tol,
            "seed": self.seed,
            "qprime": {
                repr(k): {"value": r.value, "iterations": r.iterations, "residual": r.residual,
                          "formulation": r.formulation, "converged": r.converged}
                for k, r in self._qprime.items()
            },
            "w1": {
                repr(k): {"A": v.A.reshape(-1).tolist(), "b": v.b.reshape(-1).tolist(), "c": v.c}
                for k, v in self._w1.items()
            },
        }
        Path(path).write_text(json.dumps(data, sort_keys=True))

    @classmethod
    def load(cls, path, dim: int = 2) -> "HomDensityCache":
        data = json.loads(Path(path).read_text())
        cache = cls(step=data["step"], resolution=data["resolution"], tol=data["tol"], seed=data["seed"])
        from ast import literal_eval

        for ks, rec in data["qprime"].items():
            cache._qprime[literal_eval(ks)] = CellProblemResult(
                value=rec["value"], minimizer=None, iterations=rec["iterations"],
                residual=rec["residual"], formulation=rec["formulation"], converged=rec["converged"],
            )
        for ks, rec in data["w1"].items():
            cache._w1[literal_eval(ks)] = EffectiveQuadratic(
                A=np.asarray(rec["A"]).reshape(dim, dim, dim, dim),
                b=np.asarray(rec["b"]).reshape(dim, dim), c=rec["c"],
            )
        return cache


def hom_hardening(cell: CellGeometry, model, P) -> tuple:
    """Phase-weighted homogenized hardening (|Q0| int H, |Q1| int H)."""
    grid = P.grid
    Hg = model.hardening_smooth(grid.gauss_values(P.matrices()))
    total = grid.integrate(Hg)
    return float(cell.vol_soft) * total, float(cell.vol_stiff) * total


def assemble_J_limit(cell: CellGeometry, model, y, P, cache: HomDensityCache) -> EnergyBreakdown:
    """Homogenized functional on a macro grid.

    J0 books the soft cell value at F = 0 and the soft hardening fraction; J1
    carries the stiff density at the deformation gradient, the stiff
    hardening fraction, and the plastic-gradient term.  Densities are fetched
    through the cache at G quantized per Gauss point; the stiff density goes
    through the quadratic cell tensor, so a non-quadratic W1 raises
    CellProblemError.
    """
    grid = y.grid
    if P.grid.n_el != grid.n_el or P.grid.dim != grid.dim:
        raise CellProblemError("macro fields live on different grids")
    d = grid.dim
    Pn = P.matrices()
    Pg = grid.gauss_values(Pn).reshape(-1, d, d)
    Gy = grid.gauss_gradients(y.values).reshape(-1, d, d)

    # stiff density through the quadratic fast path (per unique quantized G)
    coeffs = slgeometry.matrices_to_coeffs(slgeometry.log_batch(Pg))
    keys = np.round(coeffs / cache.step).astype(int)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    w1_vals = np.empty(len(Pg))
    soft_vals = np.empty(len(Pg))
    degenerate = cell.degenerate
    for u, key_row in enumerate(uniq):
        sel = inverse == u
        key = tuple(int(i) for i in key_row)
        Gq = cache.reconstruct(key, d)
        w1_vals[sel] = cache.w1_tensor(cell, model.W_stiff, Gq).evaluate(Gy[sel])
        if degenerate:
            soft_vals[sel] = 0.0
        else:
            res = cache.qprime(cell, model.W_soft_limit, np.zeros((d, d)), np.linalg.inv(Gq))
            soft_vals[sel] = res.value

    wq = grid.gauss_weight * grid.h**d
    Hg = model.hardening_smooth(Pg)
    gradP = grid.gauss_gradients(Pn)
    qn = np.einsum("egijk,egijk->eg", gradP, gradP)
    vol_s, vol_t = float(cell.vol_soft), float(cell.vol_stiff)
    int_H = float(np.sum(Hg) * wq)
    return EnergyBreakdown.from_parts(
        soft_elastic=vol_s * float(np.sum(soft_vals) * wq),
        stiff_elastic=float(np.sum(w1_vals) * wq),
        hardening_soft=vol_s * int_H,
        hardening_stiff=vol_t * int_H,
        grad_P_term=float(np.sum(qn ** (model.q / 2.0)) * wq),
    )
