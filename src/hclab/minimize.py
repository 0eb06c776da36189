"""Block-coordinate minimization of the composite and homogenized functionals.

The deformation problem at fixed plastic strain is quadratic for the default
densities, so the y-step solves the assembled sparse system by preconditioned
conjugate gradients; a quasi-Newton descent path covers generic densities and
doubles as an independent cross-check.  The plastic step is projected
gradient descent in the nodal log coordinates with an Armijo line search on
the assembled energy; the radial projection keeps every iterate inside the
K ball, so determinants stay unimodular by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from hclab import cellproblems, energies, slgeometry
from hclab.fields import DeformationField, Grid, PlasticField


class NoConvergence(RuntimeError):
    """Iteration budget exhausted above tolerance; best iterate is still returned."""


@dataclass
class SolveReport:
    """Per-solve record: value, the (nonincreasing) energy trace, and counters."""

    final_value: float
    energy_trace: list
    inner_iterations: list
    gradient_norms: list
    restarts: int = 0
    converged: bool = True

    def to_json_dict(self) -> dict:
        return {
            "final_value": self.final_value,
            "energy_trace": self.energy_trace,
            "inner_iterations": self.inner_iterations,
            "gradient_norms": self.gradient_norms,
            "restarts": self.restarts,
            "converged": self.converged,
        }


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


def _assemble_y_system(domain, model, P: PlasticField):
    """Sparse Hessian and linear term of y -> J_eps(y, P) for quadratic densities.

    With isotropic quadratic parts W(F) = a |F|^2 + L : F + c the energy in
    U = grad y reads a |s U P^{-1}|^2 + L : (s U P^{-1}) + ..., which gives the
    componentwise-decoupled local matrices grad(N) . (P^{-1} P^{-T}) . grad(N).
    """
    grid = Grid(domain.dim, domain.n_el)
    d = grid.dim
    eps = domain.eps
    Pg = grid.gauss_matrix_values(P.matrices())
    Pinv = np.linalg.inv(Pg)
    C = np.matmul(Pinv, np.swapaxes(Pinv, -1, -2))  # (E, g, d, d)
    soft = domain.soft_field.reshape(-1)
    a_soft, L_soft, _ = model.W_soft_family.isotropic_quad_parts(eps, d)
    a_stiff, L_stiff, _ = model.W_stiff.isotropic_quad_parts(d)
    scale2 = np.where(soft, (eps**2) * a_soft, a_stiff)  # multiplies |U P^{-1}|^2
    wq = grid.gauss_weight * grid.h**d

    # local blocks: 2 * scale2 * dN . C . dN per element, identity across components
    gCg = np.einsum("gnk,egkl,gml->enm", grid.dN_gauss, C, grid.dN_gauss)
    blocks = 2.0 * wq * scale2[:, None, None] * gCg  # (E, nc, nc)
    nc = grid.n_corners
    dofs = (grid.el_nodes[:, :, None] * d + np.arange(d)[None, None, :]).reshape(grid.n_elements, nc * d)
    Kloc = np.einsum("enm,ij->enimj", blocks, np.eye(d)).reshape(grid.n_elements, nc * d, nc * d)
    rows = np.repeat(dofs, nc * d, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, nc * d)).reshape(-1)
    K = scipy.sparse.coo_matrix((Kloc.reshape(-1), (rows, cols)),
                                shape=(grid.n_nodes * d, grid.n_nodes * d)).tocsr()

    # linear term: L : (s U P^{-1}) = (s L P^{-T}) : U
    PinvT = np.swapaxes(Pinv, -1, -2)
    drive = np.where(soft[:, None, None, None], eps * np.matmul(L_soft, PinvT),
                     np.matmul(L_stiff, PinvT))
    f = np.zeros((grid.n_nodes, d))
    grid.accumulate_from_gradients(-drive, f)
    return K, f.reshape(-1), grid


def minimize_y(domain, model, P: PlasticField, y0: DeformationField | None = None,
               bc: str = "zero", tol: float = 1e-10, max_iter: int = 10_000,
               force_descent: bool = False):
    """Minimize the energy over the deformation at fixed plastic strain.

    Quadratic densities: the Hessian system is solved by Jacobi-preconditioned
    conjugate gradients to the requested tolerance.  Otherwise (or when
    forced) quasi-Newton descent on the assembled energy with the analytic
    gradient.
    """
    grid = Grid(domain.dim, domain.n_el)
    if y0 is None:
        y0 = DeformationField.zero(grid, bc=bc)
    y0v = y0.values.copy()
    if bc == "zero":
        y0v[grid.boundary_node_mask()] = 0.0

    if _both_quadratic(model) and not force_descent:
        K, f, grid = _assemble_y_system(domain, model, P)
        free = ~np.repeat(grid.boundary_node_mask(), grid.dim) if bc == "zero" else np.ones(
            grid.n_nodes * grid.dim, dtype=bool)
        Kff = K[free][:, free]
        ff = f[free]
        diag = np.maximum(Kff.diagonal(), 1e-30)
        M = scipy.sparse.diags(1.0 / diag)
        iters = [0]

        def count(_):
            iters[0] += 1

        x0 = y0v.reshape(-1)[free]
        sol, info = scipy.sparse.linalg.cg(Kff, ff, x0=x0, M=M, maxiter=max_iter,
                                           rtol=tol, atol=0.0, callback=count)
        vals = np.zeros(grid.n_nodes * grid.dim)
        vals[free] = sol
        y = DeformationField(grid, vals.reshape(grid.n_nodes, grid.dim), bc=bc)
        P_ = P
        bd0 = energies.assemble_J_eps(domain, model, DeformationField(grid, y0v.copy(), bc=bc), P_)
        bd = energies.assemble_J_eps(domain, model, y, P_)
        resid = float(np.linalg.norm(Kff @ sol - ff))
        report = SolveReport(final_value=bd.total,
                             energy_trace=[bd0.total, min(bd0.total, bd.total)],
                             inner_iterations=[iters[0]],
                             gradient_norms=[resid],
                             converged=(info == 0))
        if info != 0:
            report.converged = False
        return y, report

    # descent path
    free = ~np.repeat(grid.boundary_node_mask(), grid.dim) if bc == "zero" else np.ones(
        grid.n_nodes * grid.dim, dtype=bool)

    def objective(x):
        vals = np.zeros(grid.n_nodes * grid.dim)
        vals[free] = x
        y = DeformationField(grid, vals.reshape(grid.n_nodes, grid.dim), bc=bc)
        bd, g = energies.value_and_grad_J_eps(domain, model, y, P)
        return bd.total, g.grad_y.reshape(-1)[free]

    res = scipy.optimize.minimize(objective, y0v.reshape(-1)[free], jac=True, method="L-BFGS-B",
                                  options={"maxiter": max_iter, "gtol": tol, "ftol": 0.0})
    vals = np.zeros(grid.n_nodes * grid.dim)
    vals[free] = res.x
    y = DeformationField(grid, vals.reshape(grid.n_nodes, grid.dim), bc=bc)
    start_val, _ = objective(y0v.reshape(-1)[free])
    report = SolveReport(final_value=float(res.fun),
                         energy_trace=[float(start_val), float(min(start_val, res.fun))],
                         inner_iterations=[int(res.nit)],
                         gradient_norms=[float(np.linalg.norm(res.jac))],
                         converged=bool(res.success) or float(np.linalg.norm(res.jac)) <= tol * (1 + abs(res.fun)))
    return y, report


def _projected_descent(fn_value, fn_value_grad, m0: np.ndarray, r_K: float,
                       tol: float, max_iter: int):
    """Projected gradient on nodewise coefficient balls |m_a| <= r_K.

    Barzilai-Borwein trial step with an Armijo backtracking safeguard on the
    assembled energy; gradients are only evaluated at accepted points, trial
    points cost a value assembly alone.
    """

    def project(m):
        norms = np.linalg.norm(m, axis=1)
        over = norms > r_K
        if over.any():
            m = m.copy()
            m[over] *= (r_K / norms[over])[:, None]
        return m

    m = project(m0)
    val, grad = fn_value_grad(m)
    trace = [val]
    step = 1.0
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
                step = min(max(float(np.sum(dm * dm)) / denom, 1e-8), 1e4)
        accepted = False
        for _ in range(50):
            cand = project(m - step * grad)
            cval = fn_value(cand)
            drop = float(np.sum(grad * (m - cand)))
            if cval <= val - 1e-4 * drop + 1e-15:
                prev_m, prev_g = m, grad
                m = cand
                val, grad = fn_value_grad(cand)
                trace.append(val)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = pg_norm <= 10 * tol * (1.0 + abs(val))
            break
    return m, val, trace, grad_norms, it, converged


def minimize_P(domain, model, y: DeformationField, P0: PlasticField,
               tol: float = 1e-7, max_iter: int = 10_000):
    """Projected gradient descent for the plastic strain at fixed deformation."""

    def fn_value(coeffs):
        P = PlasticField(P0.grid, coeffs.copy(), r_K=P0.r_K)
        return energies.assemble_J_eps(domain, model, y, P).total

    def fn_value_grad(coeffs):
        P = PlasticField(P0.grid, coeffs.copy(), r_K=P0.r_K)
        bd, g = energies.value_and_grad_J_eps(domain, model, y, P)
        return bd.total, g.grad_m

    m, val, trace, gnorms, iters, converged = _projected_descent(
        fn_value, fn_value_grad, P0.coeffs.copy(), P0.r_K, tol, max_iter)
    P = PlasticField(P0.grid, m, r_K=P0.r_K)
    report = SolveReport(final_value=val, energy_trace=trace, inner_iterations=[iters],
                         gradient_norms=gnorms, converged=converged)
    return P, report


def minimize_J_eps(domain, model, init=None, schedule: Schedule | None = None):
    """Alternating minimization of the composite energy.

    Returns (y, P, value, report); the report's energy trace spans the outer
    iterations and the final breakdown is attached as ``report.breakdown``.
    """
    schedule = schedule or Schedule()
    grid = Grid(domain.dim, domain.n_el)
    if init is None:
        y = DeformationField.zero(grid)
        P = PlasticField.identity(grid, r_K=model.K_radius)
    else:
        y, P = init[0].copy(), init[1].copy()

    bd = energies.assemble_J_eps(domain, model, y, P)
    trace = [bd.total]
    inner = []
    gnorms = []
    converged = False
    for _ in range(schedule.outer_iters):
        y, rep_y = minimize_y(domain, model, P, y0=y, tol=schedule.y_tol, max_iter=schedule.y_iters)
        P, rep_p = minimize_P(domain, model, y, P, tol=schedule.p_tol, max_iter=schedule.p_iters)
        inner.append((rep_y.inner_iterations[0], rep_p.inner_iterations[0]))
        gnorms.append(rep_p.gradient_norms[-1] if rep_p.gradient_norms else 0.0)
        value = rep_p.final_value
        trace.append(min(value, trace[-1]))
        if trace[-2] - value <= schedule.outer_tol * (1.0 + abs(value)):
            converged = True
            break
    bd = energies.assemble_J_eps(domain, model, y, P)
    report = SolveReport(final_value=bd.total, energy_trace=trace, inner_iterations=inner,
                         gradient_norms=gnorms, converged=converged)
    report.breakdown = bd
    return y, P, bd.total, report


# ---------------------------------------------------------------------------
# homogenized functional


def _limit_y_solve(cell, model, P: PlasticField, cache, grid: Grid, tol: float, y0=None):
    """Quadratic y-step of the limit functional from the per-point stiff tensors."""
    d = grid.dim
    Pg = grid.gauss_matrix_values(P.matrices()).reshape(-1, d, d)
    coeffs = slgeometry.matrices_to_coeffs(slgeometry.log_batch(Pg))
    keys = np.round(coeffs / cache.step).astype(int)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    A = np.empty((len(Pg), d, d, d, d))
    b = np.empty((len(Pg), d, d))
    for u, key_row in enumerate(uniq):
        key = tuple(int(i) for i in key_row)
        tensor = cache.w1_tensor(cell, model.W_stiff, cache.reconstruct(key, d))
        A[inverse == u] = tensor.A
        b[inverse == u] = tensor.b
    Ag = A.reshape(grid.n_elements, grid.n_gauss, d, d, d, d)
    bg = b.reshape(grid.n_elements, grid.n_gauss, d, d)
    wq = grid.gauss_weight * grid.h**d
    nc = grid.n_corners
    Kloc = 2.0 * wq * np.einsum("egikjl,gak,gbl->eaibj", Ag, grid.dN_gauss, grid.dN_gauss)
    dofs = (grid.el_nodes[:, :, None] * d + np.arange(d)[None, None, :]).reshape(grid.n_elements, nc * d)
    rows = np.repeat(dofs, nc * d, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, nc * d)).reshape(-1)
    K = scipy.sparse.coo_matrix((Kloc.reshape(grid.n_elements, nc * d, nc * d).reshape(-1),
                                 (rows, cols)), shape=(grid.n_nodes * d,) * 2).tocsr()
    f = np.zeros((grid.n_nodes, d))
    grid.accumulate_from_gradients(-bg, f)
    free = ~np.repeat(grid.boundary_node_mask(), d)
    Kff = K[free][:, free]
    diag = np.maximum(Kff.diagonal(), 1e-30)
    M = scipy.sparse.diags(1.0 / diag)
    x0 = (y0.values.reshape(-1)[free] if y0 is not None else None)
    sol, info = scipy.sparse.linalg.cg(Kff, f.reshape(-1)[free], x0=x0, M=M, rtol=tol, atol=0.0)
    vals = np.zeros(grid.n_nodes * d)
    vals[free] = sol
    return DeformationField(grid, vals.reshape(grid.n_nodes, d), bc="zero"), int(info == 0)


def _limit_p_gradient(cell, model, y: DeformationField, P: PlasticField, cache):
    """Gradient of the limit functional with respect to the nodal log coefficients.

    Hardening and the q-regularizer differentiate exactly; the stiff density's
    G-sensitivity is recovered by central differences of the cached tensors
    across one quantization step, pulled back to the interpolation nodes
    (approximate, which only affects the step quality of the line search; the
    Armijo test runs on the exact assembled energy)."""
    grid = y.grid
    d = grid.dim
    ksl = d * d - 1
    Pn = P.matrices()
    Pg = grid.gauss_matrix_values(Pn).reshape(-1, d, d)
    Gy = grid.gauss_gradients(y.values).reshape(-1, d, d)
    vol_s, vol_t = float(cell.vol_soft), float(cell.vol_stiff)

    R_nodes = np.zeros((grid.n_nodes, d, d))
    dH = model.hardening_grad(Pg.reshape(grid.n_elements, grid.n_gauss, d, d))
    grid.accumulate_from_values((vol_s + vol_t) * dH, R_nodes)

    gradP = grid.gauss_gradients(Pn)
    qn = np.einsum("egijk,egijk->eg", gradP, gradP)
    fac = model.q * np.power(np.maximum(qn, 1e-300), (model.q - 2.0) / 2.0)
    grid.accumulate_from_gradients(fac[..., None, None, None] * gradP, R_nodes)

    # stiff density: tangent-space central differences over the quantization lattice
    coeffs = slgeometry.matrices_to_coeffs(slgeometry.log_batch(Pg))
    keys = np.round(coeffs / cache.step).astype(int)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sens = np.zeros((len(Pg), d, d))
    for u, key_row in enumerate(uniq):
        key = tuple(int(i) for i in key_row)
        sel = inverse == u
        Fsel = Gy[sel]
        slopes = np.zeros((ksl, int(sel.sum())))
        for i in range(ksl):
            kp = list(key)
            kp[i] += 1
            km = list(key)
            km[i] -= 1
            tp = cache.w1_tensor(cell, model.W_stiff, cache.reconstruct(tuple(kp), d))
            tm = cache.w1_tensor(cell, model.W_stiff, cache.reconstruct(tuple(km), d))
            slopes[i] = (tp.evaluate(Fsel) - tm.evaluate(Fsel)) / (2.0 * cache.step)
        M_q = slgeometry.coeffs_to_matrices(np.asarray(key, float) * cache.step, d)
        T = np.stack([
            slgeometry.exp_batch(M_q + 1e-7 * slgeometry.sl_basis(d)[i]) - slgeometry.exp_batch(M_q - 1e-7 * slgeometry.sl_basis(d)[i])
            for i in range(ksl)
        ]) / 2e-7  # tangent directions dexp_M[E_i]
        Gram = np.einsum("aij,bij->ab", T, T)
        alpha = np.linalg.solve(Gram, slopes)
        sens[sel] = np.einsum("ap,aij->pij", alpha, T)
    grid.accumulate_from_values(sens.reshape(grid.n_elements, grid.n_gauss, d, d), R_nodes)

    M_nodes = P.log_matrices()
    adj = slgeometry.exp_frechet_adjoint(M_nodes, R_nodes)
    return np.einsum("nij,kij->nk", adj, slgeometry.sl_basis(d))


def minimize_J_limit(cell, model, init=None, cache=None, macro_elements: int = 8,
                     schedule: Schedule | None = None):
    """Alternating minimization of the homogenized functional on a macro grid."""
    schedule = schedule or Schedule()
    cache = cache if cache is not None else cellproblems.HomDensityCache()
    dim = cell.dim
    grid = Grid(dim, macro_elements)
    if init is None:
        y = DeformationField.zero(grid)
        P = PlasticField.identity(grid, r_K=model.K_radius)
    else:
        y, P = init[0].copy(), init[1].copy()

    bd = cellproblems.assemble_J_limit(cell, model, y, P, cache)
    trace = [bd.total]
    inner = []
    gnorms = []
    converged = False
    for _ in range(schedule.outer_iters):
        y, ok = _limit_y_solve(cell, model, P, cache, grid, schedule.y_tol, y0=y)

        def fn_value(coeffs):
            Pc = PlasticField(grid, coeffs.copy(), r_K=model.K_radius)
            return cellproblems.assemble_J_limit(cell, model, y, Pc, cache).total

        def fn_value_grad(coeffs):
            Pc = PlasticField(grid, coeffs.copy(), r_K=model.K_radius)
            val = cellproblems.assemble_J_limit(cell, model, y, Pc, cache).total
            g = _limit_p_gradient(cell, model, y, Pc, cache)
            return val, g

        m, val, ptrace, pgn, iters, pconv = _projected_descent(
            fn_value, fn_value_grad, P.coeffs.copy(), model.K_radius, schedule.p_tol, 60)
        P = PlasticField(grid, m, r_K=model.K_radius)
        inner.append((ok, iters))
        gnorms.append(pgn[-1] if pgn else 0.0)
        trace.append(min(val, trace[-1]))
        if trace[-2] - val <= schedule.outer_tol * (1.0 + abs(val)):
            converged = True
            break
    bd = cellproblems.assemble_J_limit(cell, model, y, P, cache)
    report = SolveReport(final_value=bd.total, energy_trace=trace, inner_iterations=inner,
                         gradient_norms=gnorms, converged=converged)
    report.breakdown = bd
    return y, P, bd.total, report
