"""Block-coordinate minimization of the composite and homogenized functionals.

Both functionals run through one alternation, ``_alternate``: a y-step at
fixed plastic strain, then a P-step at fixed deformation, until an outer
round lowers the energy by less than ``Schedule.outer_tol``; a round that
raises it by more ends the alternation unconverged, and so does a y-step or
composite P-step that stops short of its tolerance.  The y-step is
quadratic in y for the default densities; both functionals assemble it in
one shape, from per-Gauss d x d coefficients (``_quadratic_y_system``).  A
quasi-Newton descent path covers generic composite densities and doubles as
an independent cross-check.  The P-step (``_block_descent``) is
projected descent in the nodal log coordinates with an Armijo line search on
the assembled energy; the radial projection keeps every iterate inside the K
ball, so determinants stay unimodular by construction.  The composite P-step
is a Sobolev-gradient descent: its direction solves H x = g with the lagged
H1 operator of the hardening and |grad P|^q terms
(``energies.sobolev_metric``), whose h^-2 conditioning would otherwise
double the iteration count with each halving of eps.  The homogenized P-step
keeps the raw gradient (see ``LIMIT_P_ITERS``).  Each y-step returns the
Gauss data of its deformation, ``energies.FixedY`` for the composite and
``cellproblems.FixedYLimit`` for the homogenized functional, and the P-step
after it takes them, so an Armijo trial pays only for its P; the
alternation drops them once that P-step returns.  The line search asks for
its trials in blocks (``_block_descent``): the composite values them one at
a time, and the homogenized functional values each block at once, one
``cellproblems.JLimitBlock`` per block (``_limit_evaluator``), which
changes no iterate.

Every nodal linear system has one shape, a scalar sparse nodal operator with
one right-hand-side column per component (d for y, d^2 - 1 for the P
coefficients).  The y-system of either functional is solved exactly, by one
banded Cholesky (``_banded_solve``; LAPACK's ``pbtrf`` through
``scipy.linalg.solveh_banded``), whenever its upper band fits in
``BANDED_MAX_BYTES``: the soft phase's eps^2 scaling conditions it so badly
that Jacobi CG took 80 to 109 iterations per y-step at eps = 1/16.  Above
that cap, and for the P-step's Sobolev direction at every size, the solver
is the per-column Jacobi-preconditioned CG ``_cg``: a plain numpy loop that
does the operations of scipy's sparse ``cg`` in its order, so it gives
scipy's iterates and counts bit for bit without scipy's per-iteration
operator wrapper and callback calls.

``Schedule`` owns the solver defaults: the outer, linear (y-step) and
plastic tolerances and the y- and P-step budgets.  ``minimize_y`` and
``minimize_P`` take theirs from it, and so does ``lab.TOLERANCE_DEFAULTS``.
The soft-phase contrast of the y-step is the domain's
``MicroDomain.contrast``, the array the energy itself reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from hclab import cellproblems, energies, slgeometry
from hclab.fields import DeformationField, Grid, PlasticField, half_bandwidth, project_to_ball, upper_band

# P-step budget of the homogenized functional.  Its stiff density is a
# staircase in P (the cache quantizes G), so the P-step can stall on a flat
# step; the first round from a strongly plastic start runs into this cap, and
# the full Schedule.p_iters budget there runs every iteration without
# converging.  The budget waits for a continuous limit functional.  This
# P-step keeps the raw gradient: the composite's metric does not fit a
# staircase, and with it the cold limit_block4 solve took 0.79 -> 1.16 s
# while its first round still ran into this cap.
LIMIT_P_ITERS = 60

# Relative residual, per column, at which the CG solve for the composite
# P-step's direction stops.  The step needs a descent direction close to
# H^{-1} g, not H^{-1} g itself: the answer's accuracy is set by the Euclidean
# stop test.  On the chained block4 sweep eps = 1/4..1/32, 1e-2 and 1e-6 give
# the same P-step iteration counts as 1e-3, and 1e-1 up to 3 more per round;
# 1e-3 keeps a decade of margin for about 1.6x the CG iterations of 1e-2
# (1,757 against 1,126, summed over columns, at 1/32).
SOBOLEV_CG_RTOL = 1e-3

# Largest upper band, in bytes, of a y-system that ``_solve_y`` factors
# directly; a system with a larger band goes to ``_cg``.  Per solve on one
# BLAS thread, band build included, against CG from zero to 1e-10 (2-vCPU
# VM): block4 at eps = 1/16 (half-band 64, 2 MB) 3.4 against 11 ms, at 1/32
# (128, 16 MB) 26 against 93 ms, at 1/64 (256, 127 MB) 332 against 775 ms;
# fiber3d at eps = 1/3 (133, 1.4 MB) 2.4 against 2.9 ms, at 1/6 (553, 51 MB)
# 167 against 44 ms, and at 1/12 its band would take 1.9 GB.  The cap keeps
# CG where the band loses, does not fit, or (block4 at 1/64) would take more
# memory than a whole stock study's peak RSS (about 80 MB).
BANDED_MAX_BYTES = 32 * 2**20


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
    """Outer alternation budget and per-block tolerances and budgets: the
    one owner of the solver defaults, which ``minimize_y``, ``minimize_P``
    and ``lab.TOLERANCE_DEFAULTS`` read."""

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

        sum_g w (scale sum_i U_i A U_i^T + b : U),

    with the Gauss weight w (``Grid.quad_weight``), ``scale`` per element
    (or a scalar) and A, b of shape (E, g, d, d).
    The quadratic part acts alike on every component of y, so K is the scalar
    nodal operator with element blocks 2 w scale dN . A . dN, shape
    (n_nodes, n_nodes), and f holds one column per component, shape
    (n_nodes, d).  The blocks sum_g dN_g . A_g . dN_g^T are one matrix
    product: A flattened over (g, k, l) per element, times the outer products
    dN_gk dN_gl^T of the shape gradients, (g d^2, 4^d).
    """
    nc = grid.n_corners
    outer = np.einsum("gnk,gml->gklnm", grid.dN_gauss, grid.dN_gauss).reshape(-1, nc * nc)
    gAg = (A.reshape(len(A), -1) @ outer).reshape(-1, nc, nc)
    f = np.zeros((grid.n_nodes, grid.dim))
    grid.accumulate_from_gradients(-b, f)
    return grid.stiffness(2.0 * grid.quad_weight * np.asarray(scale)[..., None, None] * gAg), f


def _assemble_y_system(domain, model, P: PlasticField):
    """Sparse Hessian and linear term of y -> J_eps(y, P) for quadratic densities.

    With isotropic quadratic parts W(F) = a |F|^2 + L : F + c the energy in
    U = grad y reads a |s U P^{-1}|^2 + L : (s U P^{-1}) + ..., with s the
    domain's ``contrast`` (eps soft, 1 stiff), so the coefficients are
    A = P^{-1} P^{-T} scaled by s^2 a per element and b = s L P^{-T}.  The
    inverses and products of the Gauss values of P go through
    ``energies._inv_batch`` and ``energies._matmul``: closed forms in 2D,
    numpy's batched routines in 3D.
    """
    grid = domain.grid
    d = grid.dim
    Pinv = energies._inv_batch(grid.gauss_values(P.matrices()))
    PinvT = np.swapaxes(Pinv, -1, -2)
    soft, s = domain.soft_elements, domain.contrast
    a_soft, L_soft, _ = model.W_soft_family.isotropic_quad_parts(domain.eps, d)
    a_stiff, L_stiff, _ = model.W_stiff.isotropic_quad_parts(d)
    scale2 = s * s * np.where(soft, a_soft, a_stiff)  # multiplies |U P^{-1}|^2
    drive = s[:, None, None, None] * np.where(soft[:, None, None, None], energies._matmul(L_soft, PinvT),
                                              energies._matmul(L_stiff, PinvT))
    return _quadratic_y_system(grid, scale2, energies._matmul(Pinv, PinvT), drive)


def _cg(K, B: np.ndarray, X0: np.ndarray, rtol: float, max_iter: int):
    """Solve K X = B for every column of B by Jacobi-preconditioned CG, each
    column started from that column of X0 and stopped once its residual is
    below ``rtol`` times its right-hand side.

    Returns X, the largest per-column iteration count and whether every
    column converged (``_solve_y`` computes the residual it reports).  A zero
    column returns zero.  From X0 = 0 every CG iterate x of a non-zero
    column b has b.x = x.Kx > 0, so for a gradient B, X is a descent direction.

    Each column runs the preconditioned CG of Hestenes and Stiefel (1952) in
    the form of Barrett et al., *Templates* (1994), as a plain loop with
    the operations of scipy's sparse ``cg`` in its order (stop test
    |r| < rtol |b|; z = (1 / diag K) r, rho = r.z; p = z, then p = rho/rho_prev
    p + z; q = K p, alpha = rho / p.q; x += alpha p, r -= alpha q), so its
    iterates and counts are scipy's with M = diags(1 / diag K) bit for bit,
    without scipy's per-iteration operator wrappers.  Every vector reaches
    ``np.dot`` contiguous: a strided column rounds differently."""
    inv_diag = 1.0 / np.maximum(K.diagonal(), 1e-30)
    X = np.empty_like(B)
    iters = 0
    converged = True
    for j in range(B.shape[1]):
        X[:, j], count, ok = _cg_column(K, inv_diag, B[:, j].copy(), X0[:, j].copy(), rtol, max_iter)
        iters = max(iters, count)
        converged &= ok
    return X, iters, converged


def _cg_column(K, inv_diag: np.ndarray, b: np.ndarray, x: np.ndarray, rtol: float, max_iter: int):
    """One column of ``_cg``: b and x are contiguous and owned, and x is
    updated in place.  Returns x, the iteration count and whether the stop
    test was met; a zero b returns zero after no iteration."""
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return b, 0, True
    atol = rtol * float(b_norm)
    r = b - K @ x if x.any() else b
    p = rho_prev = None
    for it in range(max_iter):
        if np.linalg.norm(r) < atol:
            return x, it, True
        z = inv_diag * r
        rho = np.dot(r, z)
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = K @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, max_iter, False


def _banded_solve(K, B: np.ndarray):
    """K^{-1} B by one banded Cholesky (``scipy.linalg.solveh_banded``) of the
    SPD sparse K, or None when K's upper band would take more than
    BANDED_MAX_BYTES or K does not factor."""
    u = half_bandwidth(K)
    if 8 * (u + 1) * K.shape[0] > BANDED_MAX_BYTES:  # float64 entries
        return None
    try:
        return scipy.linalg.solveh_banded(upper_band(K, u), B, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError:  # not positive definite: CG reports how far it gets
        return None


def _solve_y(grid: Grid, K, f: np.ndarray, y0: np.ndarray, tol: float, max_iter: int):
    """Solve K y = f on the interior nodes; the boundary values g of the
    nodal values ``y0`` are the Dirichlet data: it solves K_ff y_f =
    (f - K g)_f, with g extended by 0 inside.  The system goes to
    ``_banded_solve``, which counts as one iteration, or, when that declines
    it, to ``_cg`` started from y0.

    Returns the field, the iteration count, the norm of the residual
    K_ff y_f - (f - K g)_f, which ``minimize_y`` reports, and whether each
    column's residual is within ``tol`` of its right-hand side, CG's stop
    test, on either path."""
    free = ~grid.boundary_node_mask()
    g = np.where(free[:, None], 0.0, y0)
    K_ff, rhs = K[free][:, free], (f - K @ g)[free]
    sol = _banded_solve(K_ff, rhs)
    if sol is None:
        sol, iters, ok = _cg(K_ff, rhs, y0[free], tol, max_iter)
        residual = K_ff @ sol - rhs
    else:
        iters = 1
        residual = K_ff @ sol - rhs
        ok = bool(np.all(np.linalg.norm(residual, axis=0) <= tol * np.linalg.norm(rhs, axis=0)))
    g[free] = sol
    return DeformationField(grid, g), iters, float(np.linalg.norm(residual)), ok


def minimize_y(domain, model, P: PlasticField, y0: DeformationField | None = None,
               tol: float = Schedule.y_tol, max_iter: int = Schedule.y_iters, force_descent: bool = False):
    """Minimize the energy over the deformation at fixed plastic strain; the
    boundary values of ``y0`` (zero without it) are kept as Dirichlet data.

    Quadratic densities: the Hessian system is solved by ``_solve_y``, one
    banded Cholesky, or ``_cg`` to ``tol`` above the band cap; on the banded
    path ``tol`` bounds the residual that counts as converged.  The solution
    is valued through an ``energies.FixedY``.  Otherwise (or when forced)
    quasi-Newton descent on the assembled energy with the analytic y
    gradient, which reads ``energies.GradJEps.grad_y`` alone and so runs no
    plastic gradient.  The report's energy trace holds the final value
    alone, and ``report.fixed`` is the FixedY of the returned y: a P-step
    from P that takes it as y starts from the pass of the final value
    instead of assembling (y, P) again.
    """
    grid = domain.grid
    y0v = y0.values if y0 is not None else np.zeros((grid.n_nodes, grid.dim))

    if _both_quadratic(model) and not force_descent:
        K, f = _assemble_y_system(domain, model, P)
        y, iters, resid, ok = _solve_y(grid, K, f, y0v, tol, max_iter)
        fixed = energies.FixedY(domain, y)
        value = energies.assemble_J_eps(domain, model, fixed, P).total
        report = SolveReport(final_value=value, energy_trace=[value], inner_iterations=[iters],
                             gradient_norms=[resid], converged=ok)
        report.fixed = fixed
        return y, report

    # descent path; scipy.optimize is imported only here, off the stock (quadratic) path
    from scipy import optimize

    free = ~grid.boundary_node_mask()

    def field(x):
        vals = y0v.copy()
        vals[free] = x.reshape(-1, grid.dim)
        return DeformationField(grid, vals)

    def objective(x):
        bd, grad = energies.value_and_grad_J_eps(domain, model, field(x), P)
        return bd.total, grad.grad_y[free].reshape(-1)

    res = optimize.minimize(objective, y0v[free].reshape(-1), jac=True, method="L-BFGS-B",
                            options={"maxiter": max_iter, "gtol": tol, "ftol": 0.0})
    gnorm = float(np.linalg.norm(res.jac))
    report = SolveReport(final_value=float(res.fun), energy_trace=[float(res.fun)],
                         inner_iterations=[int(res.nit)], gradient_norms=[gnorm],
                         converged=bool(res.success) or gnorm <= tol * (1 + abs(res.fun)))
    y = field(res.x)
    report.fixed = energies.FixedY(domain, y)
    return y, report


def _check_finite(value, what: str) -> None:
    finite = math.isfinite(value) if isinstance(value, float) else np.all(np.isfinite(value))
    if not finite:
        raise NonFiniteEnergy(f"{what} is not finite")


def _block_descent(evaluate, P0: PlasticField, tol: float, max_iter: int):
    """Projected descent on nodewise coefficient balls |m_a| <= r_K.

    ``evaluate(Ps)`` values a list of plastic fields: it returns an iterator
    that yields, field after field, its EnergyBreakdown and a ``finish()``
    that returns, from that same assembly, the gradient g in the nodal log
    coefficients and the metric H of the step: a sparse SPD nodal operator
    acting alike on each coefficient column, or None for the raw gradient.
    The start is valued as ``evaluate([P0])``, at P0 itself, so an evaluator
    that kept an assembly of P0 reuses it.  Each trial point is valued once
    and only the accepted point is finished, so no point is assembled twice.

    The trial point is project(m - t H^{-1} g), with the radial projection
    ``fields.project_to_ball`` and H^{-1} g by ``_cg`` from zero to relative
    SOBOLEV_CG_RTOL per column, which keeps it a descent direction.  The
    Barzilai-Borwein step t = dm.H dm / dm.dg is
    measured in the metric (dm.dm / dm.dg for the raw gradient) and starts
    at 1; an Armijo backtracking on the assembled energy, with drop =
    g.(m - cand), safeguards it.  The search asks for its halved trials in
    blocks: the first holds one trial more than the previous search of this
    descent consumed (one for its first search), each further block twice
    the last, within the budget of 50 trials.  A block's candidates are
    projected once, as one stack, and handed over as its rows
    (``PlasticField.rows``), without a copy or a second projection per
    trial.  The search consumes each block in ladder order and stops at the
    first accepted trial, so an evaluator that values a block at once
    changes no iterate, only what the block costs.  A
    Euclidean projection of a non-Euclidean
    step need not descend where the K ball binds: when a preconditioned trial
    has drop <= 0, or its backtracking runs out, that iteration steps along
    the raw gradient instead.  The stop test |m - project(m - g)| <= tol
    (1 + |J|) is Euclidean either way, so the metric does not change what
    counts as converged.  A NaN or infinite energy or gradient raises
    NonFiniteEnergy.  Returns the plastic field and its SolveReport, with the
    breakdown of the final point attached as ``report.breakdown``.
    """
    grid, r_K = P0.grid, P0.r_K

    def consumed(values):
        breakdown, finish = next(values)
        _check_finite(breakdown.total, "P-step energy")
        return breakdown, finish

    def finished(finish):
        grad, H = finish()
        _check_finite(grad, "P-step gradient")
        return grad, H

    def search(direction, step, guard, size):
        """Armijo backtracking along -direction from ``step``, its trials
        asked for in blocks of ``size``, then twice the last: the accepted
        (m, breakdown, finish) or None, the last step tried and the number of
        trials consumed."""
        tried = 0
        while tried < 50:
            steps = step * 0.5 ** np.arange(min(size, 50 - tried))
            fields = PlasticField.rows(grid, m - steps[:, None, None] * direction, r_K)
            values = iter(evaluate(fields))
            for step, cand in zip(steps, (P.coeffs for P in fields)):
                drop = float(np.sum(grad * (m - cand)))
                if guard and drop <= 0.0:
                    return None, step, tried
                trial, finish = consumed(values)
                tried += 1
                if trial.total <= val - 1e-4 * drop + 1e-15:
                    return (cand, trial, finish), step, tried
            fields = values = finish = None  # release this block's assembly before the next is valued
            step *= 0.5
            size *= 2
        return None, step, tried

    m = P0.coeffs.copy()
    breakdown, finish = consumed(iter(evaluate([P0])))
    val = breakdown.total
    grad, H = finished(finish)
    trace = [val]
    step = raw_step = 1.0
    trials = 1
    grad_norms = []
    converged = False
    prev_m = prev_g = None
    it = 0
    for it in range(1, max_iter + 1):
        pg_norm = float(np.linalg.norm(m - project_to_ball(m - grad, r_K)))
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
            direction = _cg(H, grad, np.zeros_like(grad), SOBOLEV_CG_RTOL, len(grad))[0]
            found, step, tried = search(direction, step, True, trials)
            trials = tried + 1
        if found is None:
            found, raw_step, tried = search(grad, raw_step, False, trials)
            trials = tried + 1
        if found is None:
            converged = pg_norm <= 10 * tol * (1.0 + abs(val))
            break
        prev_m, prev_g = m, grad
        m, breakdown, finish = found
        val = breakdown.total
        H = None  # release the previous point's metric before building this one's
        grad, H = finished(finish)
        found = finish = None  # and the accepted trial's assembly, with its block, before the next search
        trace.append(val)
    report = SolveReport(final_value=val, energy_trace=trace, inner_iterations=[it],
                         gradient_norms=grad_norms, converged=converged)
    report.breakdown = breakdown
    return PlasticField(grid, m, r_K), report


def minimize_P(domain, model, y, P0: PlasticField,
               tol: float = Schedule.p_tol, max_iter: int = Schedule.p_iters):
    """Projected descent for the plastic strain at fixed deformation,
    preconditioned by ``energies.sobolev_metric`` (see ``_block_descent``).

    The Gauss data of y are computed once: ``y`` is the deformation or its
    ``energies.FixedY``, whose latest pass, if made at P0, is the start.
    Trials are valued one per step of the search, each by
    ``assemble_J_eps``, as ``map`` over a block consumes them, so no trial is
    valued that the search does not reach; at the accepted point
    ``value_and_grad_J_eps`` finishes the gradient of the pass the FixedY
    kept, and the metric is built from that pass's grad P, so that point is
    not assembled again.  Only ``grad_m`` is read, so the y part of the
    gradient is never scattered (``energies.GradJEps``).  Going through these public functions keeps trials
    and accepted steps countable as their calls, which is how perfbench's
    ``minimize.armijo_*`` counters read them."""
    fixed = y if isinstance(y, energies.FixedY) else energies.FixedY(domain, y)

    def evaluate(P):
        def finish():
            grad = energies.value_and_grad_J_eps(domain, model, fixed, P)[1].grad_m
            return grad, energies.sobolev_metric(domain, model, fixed, P)

        return energies.assemble_J_eps(domain, model, fixed, P), finish

    return _block_descent(lambda Ps: map(evaluate, Ps), P0, tol, max_iter)


def _alternate(assemble, y_step, p_step, grid: Grid, r_K: float, init, schedule: Schedule):
    """Alternating minimization from ``init`` (y = 0, P = I when None).

    ``assemble(y, P)`` returns the EnergyBreakdown of the start; ``y_step(y,
    P)`` the Gauss data of the new deformation, which carry it as ``.y``, its
    iteration count and convergence flag; and ``p_step(fixed, P)``, given
    those data, the new plastic field, its SolveReport, which carries the
    breakdown of its final point, and its convergence flag.  The data are
    dropped once the P-step returns, so they and the last pass made with
    them are freed before the next y-step.  Stops when an outer round
    changes the energy by at most ``outer_tol`` relative; a round that
    raises it by more also stops the loop, unconverged, and so does any
    y-step or P-step that did not converge.  Returns (y, P, value, report);
    the report's energy trace spans the outer rounds, and the final
    breakdown is attached as ``report.breakdown``.
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
    steps_converged = True
    for _ in range(schedule.outer_iters):
        fixed, y_iters, y_ok = y_step(y, P)
        y = fixed.y
        P, rep_p, p_ok = p_step(fixed, P)
        fixed = None
        steps_converged &= y_ok and p_ok
        bd = rep_p.breakdown
        inner.append((y_iters, rep_p.inner_iterations[0]))
        gnorms.append(rep_p.gradient_norms[-1] if rep_p.gradient_norms else 0.0)
        value = rep_p.final_value
        trace.append(min(value, trace[-1]))
        tol = schedule.outer_tol * (1.0 + abs(value))
        if trace[-2] - value <= tol:
            converged = value <= trace[-2] + tol
            break
    report = SolveReport(final_value=bd.total, energy_trace=trace, inner_iterations=inner,
                         gradient_norms=gnorms, converged=converged and steps_converged)
    report.breakdown = bd
    return y, P, bd.total, report


def minimize_J_eps(domain, model, init=None, schedule: Schedule | None = None):
    """Alternating minimization of the composite energy; see ``_alternate``."""
    schedule = schedule or Schedule()

    def y_step(y, P):
        rep = minimize_y(domain, model, P, y0=y, tol=schedule.y_tol, max_iter=schedule.y_iters)[1]
        return rep.fixed, rep.inner_iterations[0], rep.converged

    def p_step(fixed, P):
        P, rep = minimize_P(domain, model, fixed, P, tol=schedule.p_tol, max_iter=schedule.p_iters)
        return P, rep, rep.converged

    return _alternate(lambda y, P: energies.assemble_J_eps(domain, model, y, P), y_step, p_step,
                      domain.grid, model.K_radius, init, schedule)


def _limit_evaluator(fixed):
    """The block evaluator of the homogenized P-step at one
    ``cellproblems.FixedYLimit`` (see ``_block_descent``): each list of
    trials is valued as one ``cellproblems.JLimitBlock``, and an accepted
    trial's gradient is finished from its row of the block.  A list with a
    trial outside the log chart (``slgeometry.SLError``) is valued one
    block of one per trial instead, so the error surfaces at the trial that
    causes it, and only if the search reaches that trial."""

    def evaluate(Ps):
        try:
            blocks = [cellproblems.JLimitBlock(fixed, Ps)]
        except slgeometry.SLError:
            blocks = (cellproblems.JLimitBlock(fixed, [P]) for P in Ps)
        for block in blocks:
            for row, breakdown in enumerate(block.breakdowns):
                yield breakdown, lambda block=block, row=row: (block.grad_m(row), None)

    return evaluate


def minimize_J_limit(cell, model, init=None, cache=None, macro_elements: int = 8,
                     schedule: Schedule | None = None):
    """Alternating minimization of the homogenized functional on a macro grid;
    see ``_alternate``.  The y-step assembles from the quadratic cell tensors
    (A, b) at the quantized G of each Gauss point and returns the
    ``cellproblems.FixedYLimit`` of its solution; the P-step values the
    trials of each block its line search asks for at once, on those data
    (``_limit_evaluator``)."""
    schedule = schedule or Schedule()
    cache = cache if cache is not None else cellproblems.HomDensityCache()
    grid = Grid(cell.dim, macro_elements)
    d = grid.dim
    shape = (grid.n_elements, grid.n_gauss, d, d)

    def y_step(y, P):
        Pg = grid.gauss_values(P.matrices()).reshape(-1, d, d)
        tensors = cache.w1_tensors(cell, model.W_stiff, *cache.quantize_logs(slgeometry.log_batch(Pg)))
        K, f = _quadratic_y_system(grid, 1.0, tensors.A.reshape(shape), tensors.b.reshape(shape))
        y, iters, _, ok = _solve_y(grid, K, f, y.values, schedule.y_tol, schedule.y_iters)
        return cellproblems.FixedYLimit(cell, model, y, cache), iters, ok

    def p_step(fixed, P):
        # the flag is not read (True): the staircase P-step stalls at LIMIT_P_ITERS on
        # limit_block4's first round and on the fiber3d reference, until ROADMAP item 2
        return *_block_descent(_limit_evaluator(fixed), P, schedule.p_tol, LIMIT_P_ITERS), True

    return _alternate(lambda y, P: cellproblems.assemble_J_limit(cell, model, y, P, cache),
                      y_step, p_step, grid, model.K_radius, init, schedule)
