"""Block-coordinate minimization of the composite and homogenized functionals.

Both functionals run through one alternation, ``_alternate``: a y-step at
fixed plastic strain, then a P-step at fixed deformation, until an outer
round lowers the energy by less than ``Schedule.outer_tol``.  The y-step is
quadratic in y for the default densities; both functionals assemble it in
one shape, from per-Gauss d x d coefficients (``_quadratic_y_system``), and
solve it by Jacobi-preconditioned conjugate gradients.  A quasi-Newton
descent path covers generic composite densities and doubles as an
independent cross-check.  The P-step (``_projected_descent``) is projected
descent in the nodal log coordinates with an Armijo line search on the
assembled energy; the radial projection keeps every iterate inside the K
ball, so determinants stay unimodular by construction.  The composite P-step
is a Sobolev-gradient descent: its direction solves H x = g with the lagged
H1 operator of the hardening and |grad P|^q terms
(``energies.sobolev_metric``), whose h^-2 conditioning would otherwise
double the iteration count with each halving of eps.  The homogenized P-step
keeps the raw gradient (see ``LIMIT_P_ITERS``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from hclab import cellproblems, energies
from hclab.fields import DeformationField, Grid, PlasticField

# P-step budget of the homogenized functional.  Its stiff density is a
# staircase in P (the cache quantizes G), so the P-step can stall on a flat
# step; the first round from a strongly plastic start runs into this cap, and
# the full Schedule.p_iters budget there runs every iteration without
# converging.  The budget waits for a continuous limit functional.  This
# P-step keeps the raw gradient: the composite's metric does not fit a
# staircase, and with it the cold limit_block4 solve took 0.79 -> 1.16 s
# while its first round still ran into this cap.
LIMIT_P_ITERS = 60

# Relative residual at which the CG solve for the composite P-step's
# direction stops.  The step needs a descent direction close to H^{-1} g, not
# H^{-1} g itself: the answer's accuracy is set by the Euclidean stop test.
# On the chained block4 sweep eps = 1/4..1/32, 1e-2 and 1e-6 give the same
# P-step iteration counts as 1e-3, and 1e-1 up to 4 more per round; 1e-3
# keeps a decade of margin for about 1.5x the CG iterations of 1e-2.
SOBOLEV_CG_RTOL = 1e-3


class NonFiniteEnergy(ArithmeticError):
    """An evaluated energy or gradient was NaN or infinite."""


@dataclass
class SolveReport:
    """Per-solve record: value, the (nonincreasing) energy trace, and counters."""

    final_value: float
    energy_trace: list
    inner_iterations: list
    gradient_norms: list
    converged: bool = True


@dataclass
class Schedule:
    """Outer alternation budget and per-block tolerances."""

    outer_iters: int = 200
    outer_tol: float = 1e-8
    y_tol: float = 1e-10
    p_tol: float = 1e-7
    p_iters: int = 10_000
    y_iters: int = 10_000


def _both_quadratic(model) -> bool:
    return getattr(model.W_stiff, "is_quadratic", False) and getattr(model.W_soft_family, "is_quadratic", False)


def _quadratic_y_system(grid: Grid, scale, A: np.ndarray, b: np.ndarray):
    """Sparse Hessian K and right-hand side f of a y-energy that is quadratic
    in U = grad y with per-Gauss d x d coefficients:

        sum_g wq (scale sum_i U_i A U_i^T + b : U),

    with ``scale`` per element (or a scalar) and A, b of shape (E, g, d, d).
    The quadratic part acts alike on every component of y, so the element
    blocks are the scalar 2 wq scale dN . A . dN repeated on the diagonal of
    the components.
    """
    d = grid.dim
    wq = grid.gauss_weight * grid.h**d
    gAg = np.einsum("gnk,egkl,gml->enm", grid.dN_gauss, A, grid.dN_gauss)
    blocks = 2.0 * wq * np.asarray(scale)[..., None, None] * gAg
    width = grid.n_corners * d
    expanded = np.einsum("enm,ij->enimj", blocks, np.eye(d)).reshape(len(blocks), width, width)
    f = np.zeros((grid.n_nodes, d))
    grid.accumulate_from_gradients(-b, f)
    return grid.stiffness(expanded), f.reshape(-1)


def _assemble_y_system(domain, model, P: PlasticField):
    """Sparse Hessian and linear term of y -> J_eps(y, P) for quadratic densities.

    With isotropic quadratic parts W(F) = a |F|^2 + L : F + c the energy in
    U = grad y reads a |s U P^{-1}|^2 + L : (s U P^{-1}) + ..., so the
    coefficients are A = P^{-1} P^{-T} scaled by s^2 a per element and
    b = s L P^{-T}.
    """
    grid = domain.grid
    d = grid.dim
    eps = domain.eps
    Pinv = np.linalg.inv(grid.gauss_values(P.matrices()))
    PinvT = np.swapaxes(Pinv, -1, -2)
    soft = domain.soft_field.reshape(-1)
    a_soft, L_soft, _ = model.W_soft_family.isotropic_quad_parts(eps, d)
    a_stiff, L_stiff, _ = model.W_stiff.isotropic_quad_parts(d)
    scale2 = np.where(soft, (eps**2) * a_soft, a_stiff)  # multiplies |U P^{-1}|^2
    drive = np.where(soft[:, None, None, None], eps * np.matmul(L_soft, PinvT), np.matmul(L_stiff, PinvT))
    return _quadratic_y_system(grid, scale2, np.matmul(Pinv, PinvT), drive)


def _free_dofs(grid: Grid, bc: str) -> np.ndarray:
    if bc == "zero":
        return ~np.repeat(grid.boundary_node_mask(), grid.dim)
    return np.ones(grid.n_nodes * grid.dim, dtype=bool)


def _solve_y(grid: Grid, K, f: np.ndarray, y0: np.ndarray, bc: str, tol: float, max_iter: int):
    """Jacobi-preconditioned CG for K x = f on the free dofs of ``bc``, x = 0
    elsewhere, started from the nodal values ``y0``.

    Returns the field, the iteration count, the residual norm on the free
    dofs and whether CG reached ``tol``."""
    free = _free_dofs(grid, bc)
    Kff = K[free][:, free]
    ff = f[free]
    M = scipy.sparse.diags(1.0 / np.maximum(Kff.diagonal(), 1e-30))
    iters = [0]

    def count(_):
        iters[0] += 1

    sol, info = scipy.sparse.linalg.cg(Kff, ff, x0=y0.reshape(-1)[free], M=M, maxiter=max_iter,
                                       rtol=tol, atol=0.0, callback=count)
    x = np.zeros(len(f))
    x[free] = sol
    y = DeformationField(grid, x.reshape(grid.n_nodes, grid.dim), bc=bc)
    return y, iters[0], float(np.linalg.norm(Kff @ sol - ff)), info == 0


def minimize_y(domain, model, P: PlasticField, y0: DeformationField | None = None,
               bc: str = "zero", tol: float = 1e-10, max_iter: int = 10_000,
               force_descent: bool = False):
    """Minimize the energy over the deformation at fixed plastic strain.

    Quadratic densities: the Hessian system is solved by Jacobi-preconditioned
    conjugate gradients to the requested tolerance.  Otherwise (or when
    forced) quasi-Newton descent on the assembled energy with the analytic
    gradient.  The report's energy trace holds the final value alone.
    """
    grid = domain.grid
    y0v = y0.values if y0 is not None else np.zeros((grid.n_nodes, grid.dim))

    if _both_quadratic(model) and not force_descent:
        K, f = _assemble_y_system(domain, model, P)
        y, iters, resid, ok = _solve_y(grid, K, f, y0v, bc, tol, max_iter)
        value = energies.assemble_J_eps(domain, model, y, P).total
        return y, SolveReport(final_value=value, energy_trace=[value], inner_iterations=[iters],
                              gradient_norms=[resid], converged=ok)

    # descent path
    free = _free_dofs(grid, bc)

    def field(x):
        vals = np.zeros(grid.n_nodes * grid.dim)
        vals[free] = x
        return DeformationField(grid, vals.reshape(grid.n_nodes, grid.dim), bc=bc)

    def objective(x):
        bd, g = energies.value_and_grad_J_eps(domain, model, field(x), P)
        return bd.total, g.grad_y.reshape(-1)[free]

    res = scipy.optimize.minimize(objective, y0v.reshape(-1)[free], jac=True, method="L-BFGS-B",
                                  options={"maxiter": max_iter, "gtol": tol, "ftol": 0.0})
    gnorm = float(np.linalg.norm(res.jac))
    report = SolveReport(final_value=float(res.fun), energy_trace=[float(res.fun)],
                         inner_iterations=[int(res.nit)], gradient_norms=[gnorm],
                         converged=bool(res.success) or gnorm <= tol * (1 + abs(res.fun)))
    return field(res.x), report


def _sobolev_direction(H, g: np.ndarray) -> np.ndarray:
    """H^{-1} g for every column of ``g`` by one Jacobi-preconditioned CG
    over all columns, started from zero, until each column's residual is at
    most SOBOLEV_CG_RTOL times its right-hand side.  Every CG iterate x from
    zero has g.x = x.Hx > 0, so the result is a descent direction.  The
    columns are kept as rows, so that the per-column dot products run over
    contiguous memory."""
    def dots(a, b):
        return np.einsum("ij,ij->i", a, b)

    dinv = 1.0 / H.diagonal()
    r = np.array(g.T)
    x = np.zeros_like(r)
    z = dinv * r
    p = z.copy()
    rz = dots(r, z)
    target = SOBOLEV_CG_RTOL**2 * dots(r, r)
    for _ in range(len(g)):
        if (dots(r, r) <= target).all():
            break
        Hp = (H @ p.T).T
        alpha = np.divide(rz, dots(p, Hp), out=np.zeros_like(rz), where=rz > 0.0)[:, None]
        x += alpha * p
        r -= alpha * Hp
        z = dinv * r
        rz_next = dots(r, z)
        p = z + np.divide(rz_next, rz, out=np.zeros_like(rz), where=rz > 0.0)[:, None] * p
        rz = rz_next
    return x.T


def _check_finite(value, what: str) -> None:
    if not np.all(np.isfinite(value)):
        raise NonFiniteEnergy(f"{what} is not finite")


def _projected_descent(evaluate, P0: PlasticField, tol: float, max_iter: int):
    """Projected descent on nodewise coefficient balls |m_a| <= r_K.

    ``evaluate(P)`` assembles the energy once and returns its EnergyBreakdown
    and a ``finish()`` that returns, from that same pass, the gradient g in
    the nodal log coefficients and the metric H of the step: a sparse SPD
    nodal operator acting alike on each coefficient column, or None for the
    raw gradient.  Every trial point costs one assembly, and only the
    accepted point is finished, so no point is assembled twice.

    The trial point is project(m - t H^{-1} g), H^{-1} g by
    ``_sobolev_direction``.  The Barzilai-Borwein step t = dm.H dm / dm.dg is
    measured in the metric (dm.dm / dm.dg for the raw gradient) and starts
    at 1; an Armijo backtracking on the assembled energy, with drop =
    g.(m - cand), safeguards it.  A Euclidean projection of a non-Euclidean
    step need not descend where the K ball binds: when a preconditioned trial
    has drop <= 0, or its backtracking runs out, that iteration steps along
    the raw gradient instead.  The stop test |m - project(m - g)| <= tol
    (1 + |J|) is Euclidean either way, so the metric does not change what
    counts as converged.  A NaN or infinite energy or gradient raises
    NonFiniteEnergy.  Returns the plastic field and its SolveReport, with the
    breakdown of the final point attached as ``report.breakdown``.
    """
    r_K = P0.r_K

    def project(m):
        norms = np.linalg.norm(m, axis=1)
        over = norms > r_K
        if over.any():
            m = m.copy()
            m[over] *= (r_K / norms[over])[:, None]
        return m

    def field(m):
        return PlasticField(P0.grid, m.copy(), r_K=r_K)

    def evaluated(m):
        breakdown, finish = evaluate(field(m))
        _check_finite(breakdown.total, "P-step energy")
        return breakdown, finish

    def finished(finish):
        grad, H = finish()
        _check_finite(grad, "P-step gradient")
        return grad, H

    def search(direction, step, guard):
        """Armijo backtracking along -direction from ``step``: the accepted
        (m, breakdown, finish) or None, and the last step tried."""
        for _ in range(50):
            cand = project(m - step * direction)
            drop = float(np.sum(grad * (m - cand)))
            if guard and drop <= 0.0:
                return None, step
            trial, finish = evaluated(cand)
            if trial.total <= val - 1e-4 * drop + 1e-15:
                return (cand, trial, finish), step
            step *= 0.5
        return None, step

    m = project(P0.coeffs.copy())
    breakdown, finish = evaluated(m)
    val = breakdown.total
    grad, H = finished(finish)
    trace = [val]
    step = raw_step = 1.0
    grad_norms = []
    converged = False
    prev_m = prev_g = None
    it = 0
    for it in range(1, max_iter + 1):
        pg_norm = float(np.linalg.norm(m - project(m - grad)))
        grad_norms.append(pg_norm)
        if pg_norm <= tol * (1.0 + abs(val)):
            converged = True
            break
        if prev_m is not None:
            dm = m - prev_m
            dg = grad - prev_g
            denom = float(np.sum(dm * dg))
            if denom > 1e-30:
                raw_step = min(max(float(np.sum(dm * dm)) / denom, 1e-8), 1e4)
                if H is not None:
                    step = min(max(float(np.sum(dm * (H @ dm))) / denom, 1e-8), 1e4)
        found = None
        if H is not None:
            found, step = search(_sobolev_direction(H, grad), step, guard=True)
        if found is None:
            found, raw_step = search(grad, raw_step, guard=False)
        if found is None:
            converged = pg_norm <= 10 * tol * (1.0 + abs(val))
            break
        prev_m, prev_g = m, grad
        m, breakdown, finish = found
        val = breakdown.total
        grad, H = finished(finish)
        trace.append(val)
    report = SolveReport(final_value=val, energy_trace=trace, inner_iterations=[it],
                         gradient_norms=grad_norms, converged=converged)
    report.breakdown = breakdown
    return field(m), report


def minimize_P(domain, model, y: DeformationField, P0: PlasticField,
               tol: float = 1e-7, max_iter: int = 10_000):
    """Projected descent for the plastic strain at fixed deformation,
    preconditioned by ``energies.sobolev_metric`` (see ``_projected_descent``).

    The Gauss data of y are computed once (``energies.FixedY``).  Each trial
    point is valued by ``assemble_J_eps``; at the accepted point
    ``value_and_grad_J_eps`` finishes the gradient of the pass the FixedY
    kept, and the metric is built from that pass's grad P, so that point is
    not assembled again.  Going through these public functions keeps trials
    and accepted steps countable as their calls, which is how perfbench's
    ``minimize.armijo_*`` counters read them."""
    fixed = energies.FixedY(domain, y)

    def evaluate(P):
        def finish():
            grad = energies.value_and_grad_J_eps(domain, model, fixed, P)[1].grad_m
            return grad, energies.sobolev_metric(domain, model, fixed, P)

        return energies.assemble_J_eps(domain, model, fixed, P), finish

    return _projected_descent(evaluate, P0, tol, max_iter)


def _alternate(assemble, y_step, p_step, grid: Grid, r_K: float, init, schedule: Schedule):
    """Alternating minimization from ``init`` (y = 0, P = I when None).

    ``assemble(y, P)`` returns the EnergyBreakdown of the start, ``y_step(y,
    P)`` the new deformation, its CG iteration count and convergence flag, and
    ``p_step(y, P)`` the new plastic field and its SolveReport, which carries
    the breakdown of its final point.  Stops when an outer round lowers the
    energy by at most ``outer_tol`` relative.  Returns (y, P, value, report);
    the report's energy trace spans the outer rounds, and the final breakdown
    is attached as ``report.breakdown``.
    """
    if init is None:
        y = DeformationField.zero(grid)
        P = PlasticField.identity(grid, r_K=r_K)
    else:
        y, P = init[0].copy(), init[1].copy()

    bd = assemble(y, P)
    _check_finite(bd.total, "start energy")
    trace = [bd.total]
    inner = []
    gnorms = []
    converged = False
    y_converged = True
    for _ in range(schedule.outer_iters):
        y, y_iters, y_ok = y_step(y, P)
        y_converged &= y_ok
        P, rep_p = p_step(y, P)
        bd = rep_p.breakdown
        inner.append((y_iters, rep_p.inner_iterations[0]))
        gnorms.append(rep_p.gradient_norms[-1] if rep_p.gradient_norms else 0.0)
        value = rep_p.final_value
        trace.append(min(value, trace[-1]))
        if trace[-2] - value <= schedule.outer_tol * (1.0 + abs(value)):
            converged = True
            break
    report = SolveReport(final_value=bd.total, energy_trace=trace, inner_iterations=inner,
                         gradient_norms=gnorms, converged=converged and y_converged)
    report.breakdown = bd
    return y, P, bd.total, report


def minimize_J_eps(domain, model, init=None, schedule: Schedule | None = None):
    """Alternating minimization of the composite energy; see ``_alternate``."""
    schedule = schedule or Schedule()

    def y_step(y, P):
        y, rep = minimize_y(domain, model, P, y0=y, tol=schedule.y_tol, max_iter=schedule.y_iters)
        return y, rep.inner_iterations[0], rep.converged

    return _alternate(
        lambda y, P: energies.assemble_J_eps(domain, model, y, P), y_step,
        lambda y, P: minimize_P(domain, model, y, P, tol=schedule.p_tol, max_iter=schedule.p_iters),
        domain.grid, model.K_radius, init, schedule)


def minimize_J_limit(cell, model, init=None, cache=None, macro_elements: int = 8,
                     schedule: Schedule | None = None):
    """Alternating minimization of the homogenized functional on a macro grid;
    see ``_alternate``.  The y-step assembles from the quadratic cell tensors
    (A, b) at the quantized G of each Gauss point."""
    schedule = schedule or Schedule()
    cache = cache if cache is not None else cellproblems.HomDensityCache()
    grid = Grid(cell.dim, macro_elements)
    d = grid.dim
    shape = (grid.n_elements, grid.n_gauss, d, d)

    def y_step(y, P):
        Pg = grid.gauss_values(P.matrices()).reshape(-1, d, d)
        keys, inverse = cache.quantize(Pg)
        A = np.empty((len(Pg), d, d))
        b = np.empty((len(Pg), d, d))
        for u, key in enumerate(keys):
            tensor = cache.w1_tensor(cell, model.W_stiff, key)
            A[inverse == u] = tensor.A
            b[inverse == u] = tensor.b
        K, f = _quadratic_y_system(grid, 1.0, A.reshape(shape), b.reshape(shape))
        y, iters, _, ok = _solve_y(grid, K, f, y.values, "zero", schedule.y_tol, schedule.y_iters)
        return y, iters, ok

    def p_step(y, P):
        def evaluate(Pc):
            point = cellproblems.JLimitPass(cell, model, y, Pc, cache)
            return point.breakdown, lambda: (point.grad_m(), None)

        return _projected_descent(evaluate, P, schedule.p_tol, LIMIT_P_ITERS)

    return _alternate(lambda y, P: cellproblems.assemble_J_limit(cell, model, y, P, cache),
                      y_step, p_step, grid, model.K_radius, init, schedule)
