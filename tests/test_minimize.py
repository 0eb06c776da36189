import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from hclab import cellproblems as cp, energies, lab, materials, microgeometry as mg, minimize as mz, slgeometry as sg
from hclab.fields import DeformationField, Grid, PlasticField, half_bandwidth, prolong_deformation, prolong_plastic


def _zero_trace(grid, values):
    """The field with these values inside and zero boundary values."""
    values[grid.boundary_node_mask()] = 0.0
    return DeformationField(grid, values)


@pytest.fixture(scope="module")
def setup():
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    model = materials.default_material(dim=2)
    grid = Grid(2, domain.n_el)
    return cell, domain, model, grid


def test_even_density_minimized_at_zero(setup):
    # gamma = 0 removes the affine drive: the unique minimizer at P = I is y = 0
    cell, domain, _, grid = setup
    model0 = materials.default_material(dim=2, gamma=0.0)
    P = PlasticField.identity(grid, model0.K_radius)
    y, rep = mz.minimize_y(domain, model0, P, tol=1e-12)
    assert np.abs(y.values).max() < 1e-10
    assert rep.converged
    assert rep.final_value == pytest.approx(model0.h0, abs=1e-12)


def test_cg_and_descent_formulations_agree(setup):
    cell, domain, model, grid = setup
    P = PlasticField.identity(grid, model.K_radius)
    y_cg, _ = mz.minimize_y(domain, model, P, tol=1e-12)
    y_qn, _ = mz.minimize_y(domain, model, P, tol=1e-10, force_descent=True)
    assert np.abs(y_cg.values - y_qn.values).max() < 1e-8


def test_warm_start_reduces_iterations(setup):
    cell, domain, model, grid = setup
    P = PlasticField.identity(grid, model.K_radius)
    y_cold, rep_cold = mz.minimize_y(domain, model, P, tol=1e-12)
    y_warm, rep_warm = mz.minimize_y(domain, model, P, y0=y_cold, tol=1e-12)
    assert rep_warm.inner_iterations[0] <= rep_cold.inner_iterations[0]
    assert rep_warm.inner_iterations[0] <= 2


def test_minimize_P_identity_at_zero_deformation(setup):
    cell, domain, model, grid = setup
    y = DeformationField.zero(grid)
    rng = np.random.default_rng(0)
    P0 = PlasticField(grid, 0.3 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    P, rep = mz.minimize_P(domain, model, y, P0, tol=1e-9)
    assert np.abs(P.coeffs).max() < 1e-6  # H and the q-term pin P = I
    assert rep.converged
    # trace is nonincreasing and iterates stayed in the K ball (projection contract)
    assert all(b <= a + 1e-12 for a, b in zip(rep.energy_trace, rep.energy_trace[1:]))
    assert np.linalg.norm(P.coeffs, axis=1).max() <= model.K_radius + 1e-14


def test_minimize_P_stationarity_from_random_start(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(1)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P0 = PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    P, rep = mz.minimize_P(domain, model, y, P0, tol=1e-7)
    assert rep.converged
    assert rep.gradient_norms[-1] <= 1e-7 * (1.0 + abs(rep.final_value))


def test_alternation_monotone_and_converged(setup):
    cell, domain, model, grid = setup
    y, P, value, rep = mz.minimize_J_eps(domain, model)
    assert rep.converged
    assert all(b <= a + 1e-12 for a, b in zip(rep.energy_trace, rep.energy_trace[1:]))
    assert value < energies.assemble_J_eps(
        domain, model, DeformationField.zero(grid), PlasticField.identity(grid, model.K_radius)).total
    dets = np.linalg.det(P.matrices())
    assert np.abs(dets - 1.0).max() < 1e-9


def test_homogeneous_control_matches_analytic_minimum():
    """No inclusions, convex default: min J = gamma d + h0 exactly (y = 0 and
    P = I are discretely stationary for the zero-trace problem)."""
    cell = mg.builtin_cell("stiff4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    model = materials.default_material(dim=2)
    y, P, value, rep = mz.minimize_J_eps(domain, model)
    assert value == pytest.approx(2.0 + model.h0, rel=1e-9)


def test_two_random_inits_agree(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(2)
    vals = []
    for _ in range(2):
        y0 = _zero_trace(grid, 0.05 * rng.standard_normal((grid.n_nodes, 2)))
        P0 = PlasticField(grid, 0.2 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
        _, _, value, _ = mz.minimize_J_eps(domain, model, init=(y0, P0))
        vals.append(value)
    assert abs(vals[0] - vals[1]) <= 0.01 * max(1.0, abs(vals[0]))


def test_limit_convex_default_reduces_to_hardening(setup):
    cell, domain, model, grid = setup
    cache = cp.HomDensityCache(resolution=4)
    y, P, value, rep = mz.minimize_J_limit(cell, model, cache=cache, macro_elements=4)
    bd = rep.breakdown
    # soft elastic part vanishes for the convex default; P is pinned near I
    assert bd.soft_elastic == pytest.approx(0.0, abs=1e-12)
    assert bd.hardening_soft == pytest.approx(float(cell.vol_soft) * model.h0, rel=1e-6)
    assert value <= rep.energy_trace[0] + 1e-12


def test_y_step_cg_counts_and_failures_are_reported(setup, monkeypatch):
    """Both alternations record the y-step iterations, one per banded solve
    and CG's count above the band cap (here patched to 0), and a y-step CG
    cut off by its budget marks the solve unconverged although the outer
    loop stops on a flat energy."""
    cell, domain, model, _ = setup
    _, _, _, rep = mz.minimize_J_eps(domain, model)
    assert rep.converged and {y for y, _ in rep.inner_iterations} == {1}
    monkeypatch.setattr(mz, "BANDED_MAX_BYTES", 0)
    _, _, _, rep = mz.minimize_J_eps(domain, model)
    assert rep.converged and rep.inner_iterations[0][0] > 10
    _, _, _, rep = mz.minimize_J_eps(domain, model, schedule=mz.Schedule(y_iters=10))
    assert [y for y, _ in rep.inner_iterations][:2] == [10, 10]
    assert not rep.converged

    grid = Grid(2, 4)
    bump = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
    start = (DeformationField.zero(grid),
             PlasticField(grid, 0.2 * bump[:, None] * np.array([0.9, 0.4, 0.0]), model.K_radius))
    cache = cp.HomDensityCache(resolution=4)
    _, _, _, rep = mz.minimize_J_limit(cell, model, init=start, cache=cache, macro_elements=4)
    assert rep.converged and rep.inner_iterations[0][0] > 1
    _, _, _, rep = mz.minimize_J_limit(cell, model, init=start, cache=cache, macro_elements=4,
                                       schedule=mz.Schedule(y_iters=1))
    assert rep.inner_iterations[0][0] == 1
    assert not rep.converged


def _affine_dirichlet_start(grid, A):
    """Boundary values of y = A x, zero inside; and A x at every node."""
    affine = grid.node_coords() @ A.T
    boundary = grid.boundary_node_mask()
    return DeformationField(grid, np.where(boundary[:, None], affine, 0.0)), affine, boundary


@pytest.mark.parametrize("force_descent", [False, True])
def test_y_step_solves_affine_dirichlet_data(force_descent):
    """On the homogeneous stiff4 control at P = I, the y-step from boundary
    values A x (zero inside) keeps them bit for bit and returns the discrete
    solution y = A x, whose energy is W1(A) + h0: by CG and by the L-BFGS
    path alike."""
    domain = mg.build_micro_domain(mg.builtin_cell("stiff4"), 4)
    model = materials.default_material(dim=2)
    grid = domain.grid
    A = np.diag([1.5, 1.0 / 1.5])
    y0, affine, boundary = _affine_dirichlet_start(grid, A)
    P = PlasticField.identity(grid, model.K_radius)
    tol, err = (1e-10, 1e-8) if force_descent else (1e-12, 1e-10)
    y, rep = mz.minimize_y(domain, model, P, y0=y0, tol=tol, force_descent=force_descent)
    assert rep.converged
    assert np.array_equal(y.values[boundary], affine[boundary])
    assert np.abs(y.values - affine).max() < err
    assert rep.final_value == pytest.approx(float(model.W_stiff.value(A)) + model.h0, rel=1e-9)


@pytest.mark.parametrize("functional", ["eps", "limit"])
def test_alternation_keeps_affine_dirichlet_data(functional):
    """From (A x, I) on stiff4, both alternations keep the boundary values of
    the start bit for bit while the P-step relieves part of the elastic
    energy of the affine state.  (The limit's P-steps run into
    LIMIT_P_ITERS here, so its converged flag is not asserted.)"""
    cell = mg.builtin_cell("stiff4")
    model = materials.default_material(dim=2)
    if functional == "eps":
        domain = mg.build_micro_domain(cell, 4)
        grid = domain.grid

        def solve(start):
            return mz.minimize_J_eps(domain, model, init=start)
    else:
        grid = Grid(2, 4)

        def solve(start):
            return mz.minimize_J_limit(cell, model, init=start, cache=cp.HomDensityCache(resolution=4),
                                       macro_elements=4)
    A = np.diag([1.5, 1.0 / 1.5])
    _, affine, boundary = _affine_dirichlet_start(grid, A)
    y, P, value, rep = solve((DeformationField(grid, affine), PlasticField.identity(grid, model.K_radius)))
    assert rep.converged or functional == "limit"
    assert np.array_equal(y.values[boundary], affine[boundary])
    assert rep.energy_trace[0] == pytest.approx(float(model.W_stiff.value(A)) + model.h0, rel=1e-12)
    assert value < rep.energy_trace[0] - 0.1
    assert np.abs(P.coeffs).max() > 0.1


def test_limit_no_perforation_control():
    cell = mg.builtin_cell("stiff4")
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=4)
    y, P, value, _ = mz.minimize_J_limit(cell, model, cache=cache, macro_elements=4)
    assert value == pytest.approx(2.0 + model.h0, rel=1e-9)


@pytest.mark.parametrize("functional", ["eps", "limit"])
def test_y_step_is_stationary_for_its_functional(setup, functional):
    """At a non-identity P the y-step's CG solution is a critical point of the
    functional it minimizes: central differences of the assembled energy in
    random free directions vanish against the second difference.  One outer
    round with an unreachable P tolerance leaves P at its start."""
    cell, domain, model, _ = setup
    schedule = mz.Schedule(outer_iters=1, p_tol=1e9)
    if functional == "eps":
        grid = domain.grid

        def energy(y, P):
            return energies.assemble_J_eps(domain, model, y, P).total

        def solve(start):
            return mz.minimize_J_eps(domain, model, init=start, schedule=schedule)
    else:
        grid = Grid(2, 4)
        cache = cp.HomDensityCache(resolution=4)

        def energy(y, P):
            return cp.assemble_J_limit(cell, model, y, P, cache).total

        def solve(start):
            return mz.minimize_J_limit(cell, model, init=start, cache=cache, macro_elements=4, schedule=schedule)
    bump = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
    P0 = PlasticField(grid, 0.2 * bump[:, None] * np.array([0.9, 0.4, 0.0]), model.K_radius)
    y, P, _, _ = solve((DeformationField.zero(grid), P0))
    assert np.array_equal(P.coeffs, P0.coeffs)
    assert np.abs(y.values).max() > 1e-3

    rng = np.random.default_rng(5)
    t = 1e-3
    J0 = energy(y, P)
    for _ in range(4):
        v = _zero_trace(grid, rng.standard_normal((grid.n_nodes, 2))).values
        Jp = energy(DeformationField(grid, y.values + t * v), P)
        Jm = energy(DeformationField(grid, y.values - t * v), P)
        second = (Jp - 2.0 * J0 + Jm) / t**2
        assert second > 0.0
        assert abs(Jp - Jm) / (2.0 * t) <= 1e-9 * second


def test_cg_solves_each_column_of_the_y_system(setup):
    """``_cg`` on the eps y-system at the bump P of the stationarity test:
    each column matches a direct solve, a zero column stays exactly zero from
    any start, a starved solve reports it, from zero every column of a
    loose solve is a descent direction, and ``minimize_y`` reports the
    residual norm of the interior system it solved."""
    _, domain, model, _ = setup
    grid = domain.grid
    bump = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
    P = PlasticField(grid, 0.2 * bump[:, None] * np.array([0.9, 0.4, 0.0]), model.K_radius)
    K, f = mz._assemble_y_system(domain, model, P)
    assert K.shape == (grid.n_nodes, grid.n_nodes)
    assert f.shape == (grid.n_nodes, grid.dim)
    free = ~grid.boundary_node_mask()
    Kff, ff = K[free][:, free], f[free]
    assert np.linalg.norm(ff, axis=0).min() > 0.0
    zero = np.zeros_like(ff)

    X, iters, ok = mz._cg(Kff, ff, zero, 1e-12, 10_000)
    assert ok and iters > 0
    for j in range(grid.dim):
        direct = scipy.sparse.linalg.spsolve(Kff.tocsc(), ff[:, j])
        assert np.linalg.norm(X[:, j] - direct) <= 1e-8 * np.linalg.norm(direct)

    B = np.column_stack([ff[:, 0], np.zeros(len(ff))])
    X0 = np.random.default_rng(3).standard_normal(B.shape)
    X, _, ok = mz._cg(Kff, B, X0, 1e-10, 10_000)
    assert ok
    assert np.array_equal(X[:, 1], np.zeros(len(ff)))

    assert not mz._cg(Kff, ff, zero, 1e-10, 1)[2]

    X, _, ok = mz._cg(Kff, ff, zero, 1e-3, 10_000)
    assert ok
    assert (np.einsum("ij,ij->j", ff, X) > 0.0).all()

    # the residual minimize_y reports is that of its interior system, K_ff y_f - f_f from y0 = 0
    y, report = mz.minimize_y(domain, model, P)
    assert report.gradient_norms[0] == np.linalg.norm(Kff @ y.values[free] - ff) > 0.0


@pytest.mark.parametrize("n_cells", [4, 8])
def test_banded_y_step_matches_a_dense_solve(n_cells):
    """At eps = 1/4 and 1/8 the y-system's band is under the cap, and
    ``minimize_y`` solves it by one banded Cholesky: its interior values
    match ``np.linalg.solve`` on the dense K_ff to rel 1e-12, its boundary
    values stay the Dirichlet data, it counts one iteration, converges, and
    reports |K_ff y_f - f_f| as the independent expression gives it."""
    domain = mg.build_micro_domain(mg.builtin_cell("block4"), n_cells, strip=0.5)
    model = materials.default_material(dim=2)
    grid = domain.grid
    bump = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
    P = PlasticField(grid, 0.2 * bump[:, None] * np.array([0.9, 0.4, 0.0]), model.K_radius)
    K, f = mz._assemble_y_system(domain, model, P)
    free = ~grid.boundary_node_mask()
    Kff, ff = K[free][:, free], f[free]
    assert 8 * (half_bandwidth(Kff) + 1) * len(ff) <= mz.BANDED_MAX_BYTES
    y, report = mz.minimize_y(domain, model, P)
    dense = np.linalg.solve(Kff.toarray(), ff)
    assert np.abs(y.values[free] - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(y.values[~free], np.zeros((np.count_nonzero(~free), 2)))
    assert report.inner_iterations == [1] and report.converged
    assert report.gradient_norms[0] == np.linalg.norm(Kff @ y.values[free] - ff) > 0.0


def test_banded_solve_declines_a_band_over_the_cap_or_a_system_that_does_not_factor(setup, monkeypatch):
    """``_banded_solve`` takes a band of exactly BANDED_MAX_BYTES and hands
    one byte more, or a K that is not positive definite, back as None, so
    ``_solve_y`` runs CG on it."""
    _, domain, model, grid = setup
    K, f = mz._assemble_y_system(domain, model, PlasticField.identity(grid, model.K_radius))
    free = ~grid.boundary_node_mask()
    Kff, ff = K[free][:, free], f[free]
    size = 8 * (half_bandwidth(Kff) + 1) * len(ff)
    monkeypatch.setattr(mz, "BANDED_MAX_BYTES", size)
    assert mz._banded_solve(Kff, ff) is not None
    assert mz._banded_solve(-Kff, ff) is None
    monkeypatch.setattr(mz, "BANDED_MAX_BYTES", size - 1)
    assert mz._banded_solve(Kff, ff) is None
    y, report = mz.minimize_y(domain, model, PlasticField.identity(grid, model.K_radius))
    assert report.inner_iterations[0] > 1 and report.converged


def test_limit_y_step_without_a_free_node():
    """A one-element macro grid has no interior node: each limit y-step
    solves the empty system, keeps y = 0, counts one iteration and
    converges."""
    model = materials.default_material(dim=2)
    y, _, _, rep = mz.minimize_J_limit(mg.builtin_cell("block4"), model, macro_elements=1)
    assert rep.converged and rep.inner_iterations and {y for y, _ in rep.inner_iterations} == {1}
    assert np.array_equal(y.values, np.zeros((4, 2)))


def _reference_y_system(domain, model, P):
    """The y-system from numpy's generic inverse and stacked products, the
    three-operand einsum for the element blocks and a COO -> CSR assembly."""
    grid, eps, d = domain.grid, domain.eps, domain.grid.dim
    Pinv = np.linalg.inv(grid.gauss_values(P.matrices()))
    PinvT = np.swapaxes(Pinv, -1, -2)
    soft = domain.soft_field.reshape(-1)
    a_soft, L_soft, _ = model.W_soft_family.isotropic_quad_parts(eps, d)
    a_stiff, L_stiff, _ = model.W_stiff.isotropic_quad_parts(d)
    scale2 = np.where(soft, eps**2 * a_soft, a_stiff)
    drive = np.where(soft[:, None, None, None], eps * np.matmul(L_soft, PinvT), np.matmul(L_stiff, PinvT))
    gAg = np.einsum("gnk,egkl,gml->enm", grid.dN_gauss, np.matmul(Pinv, PinvT), grid.dN_gauss)
    wq = grid.gauss_weight * grid.h**d
    blocks = 2.0 * wq * scale2[:, None, None] * gAg
    rows = np.repeat(grid.el_nodes, grid.n_corners, axis=1).reshape(-1)
    cols = np.tile(grid.el_nodes, (1, grid.n_corners)).reshape(-1)
    K = scipy.sparse.coo_matrix((blocks.reshape(-1), (rows, cols)), shape=(grid.n_nodes,) * 2).tocsr()
    f = np.zeros((grid.n_nodes, d))
    grid.accumulate_from_gradients(-drive, f)
    return K, f


@pytest.mark.parametrize("name, n_cells, rel", [("block4", 4, 1e-14), ("fiber3d", 3, 1e-13)])
def test_y_system_matches_generic_numpy_reference(name, n_cells, rel):
    """``_assemble_y_system`` (closed-form 2x2 inverse and products, blocks
    by one matrix product, refilled pattern) at a random P agrees with the
    generic numpy reference."""
    cell = mg.builtin_cell(name)
    domain = mg.build_micro_domain(cell, n_cells, strip=0.5)
    model = materials.default_material(dim=cell.dim)
    grid = domain.grid
    rng = np.random.default_rng(5)
    P = PlasticField(grid, 0.2 * rng.standard_normal((grid.n_nodes, grid.dim**2 - 1)), model.K_radius)
    K, f = mz._assemble_y_system(domain, model, P)
    K_ref, f_ref = _reference_y_system(domain, model, P)
    assert np.array_equal(K.indptr, K_ref.indptr) and np.array_equal(K.indices, K_ref.indices)
    assert np.abs(K.data - K_ref.data).max() <= rel * np.abs(K_ref.data).max()
    assert np.abs(f - f_ref).max() <= rel * np.abs(f_ref).max()


@pytest.mark.parametrize("name, n_cells", [("block4", 3), ("block4", 4), ("fiber3d", 3)])
def test_soft_contrast_is_read_from_the_domain_bit_for_bit(name, n_cells, monkeypatch):
    """The energy's factor of grad y and the y-step's coefficients both come
    from ``MicroDomain.contrast`` s and equal, bit for bit, the phase-branched
    forms eps on soft and 1 on stiff elements, eps**2 a_soft and
    eps L_soft P^-T against a_stiff and L_stiff P^-T: s s is eps eps or 1,
    and 1 times x is x."""
    cell = mg.builtin_cell(name)
    domain = mg.build_micro_domain(cell, n_cells, strip=0.5)
    model = materials.default_material(dim=cell.dim)
    grid, eps, d, soft = domain.grid, domain.eps, domain.dim, domain.soft_elements
    assert not domain.contrast.flags.writeable
    assert np.array_equal(domain.contrast, np.where(soft, eps, 1.0))
    assert energies.FixedY(domain, DeformationField.zero(grid)).scale.base is domain.contrast

    rng = np.random.default_rng(7)
    P = PlasticField(grid, 0.2 * rng.standard_normal((grid.n_nodes, d * d - 1)), model.K_radius)
    seen = {}
    monkeypatch.setattr(mz, "_quadratic_y_system", lambda grid, scale, A, b: seen.update(scale=scale, b=b))
    mz._assemble_y_system(domain, model, P)
    PinvT = np.swapaxes(energies._inv_batch(grid.gauss_values(P.matrices())), -1, -2)
    a_soft, L_soft, _ = model.W_soft_family.isotropic_quad_parts(eps, d)
    a_stiff, L_stiff, _ = model.W_stiff.isotropic_quad_parts(d)
    assert np.array_equal(seen["scale"], np.where(soft, (eps**2) * a_soft, a_stiff))
    assert np.array_equal(seen["b"], np.where(soft[:, None, None, None], eps * energies._matmul(L_soft, PinvT),
                                              energies._matmul(L_stiff, PinvT)))


def test_cg_matches_scipy_cg_with_a_diagonal_preconditioner(setup):
    """``_cg``'s entrywise Jacobi scaling gives scipy's CG with
    M = diags(1 / diag K) bit for bit, with the same iteration count."""
    _, domain, model, _ = setup
    grid = domain.grid
    bump = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
    P = PlasticField(grid, 0.2 * bump[:, None] * np.array([0.9, 0.4, 0.0]), model.K_radius)
    K, f = mz._assemble_y_system(domain, model, P)
    free = ~grid.boundary_node_mask()
    Kff, ff = K[free][:, free], f[free]
    M = scipy.sparse.diags(1.0 / Kff.diagonal())
    for X0, rtol in ((np.zeros_like(ff), 1e-10), (np.random.default_rng(2).standard_normal(ff.shape), 1e-6)):
        X, iters, ok = mz._cg(Kff, ff, X0, rtol, 10_000)
        counts = []
        for j in range(ff.shape[1]):
            count = [0]
            ref, info = scipy.sparse.linalg.cg(Kff, ff[:, j], x0=X0[:, j], M=M, maxiter=10_000, rtol=rtol,
                                               atol=0.0, callback=lambda _: count.__setitem__(0, count[0] + 1))
            assert info == 0 and np.array_equal(X[:, j], ref)
            counts.append(count[0])
        assert ok and iters == max(counts) > 0


def _scipy_cg(K, B, X0, rtol, max_iter):
    """scipy's CG with M = diags(1 / diag K), column by column: X, the
    per-column iteration counts and scipy's ``info`` flags."""
    M = scipy.sparse.diags(1.0 / K.diagonal())
    X = np.empty_like(B)
    counts, infos = [], []
    for j in range(B.shape[1]):
        count = [0]
        X[:, j], info = scipy.sparse.linalg.cg(K, B[:, j], x0=X0[:, j], M=M, maxiter=max_iter, rtol=rtol,
                                               atol=0.0, callback=lambda _: count.__setitem__(0, count[0] + 1))
        counts.append(count[0])
        infos.append(info)
    return X, counts, infos


def test_cg_is_scipy_cg_bit_for_bit_on_every_kind_of_system(setup, monkeypatch):
    """``_cg`` gives the X and iteration counts of scipy's CG with
    M = diags(1 / diag K) bit for bit: on a budget that runs out (3
    iterations, unconverged), on a zero column beside a non-zero one from a
    random start, on the Sobolev metric's system at SOBOLEV_CG_RTOL, and on
    the empty y-system of a one-element macro grid, which has no free node."""
    _, domain, model, _ = setup
    grid = domain.grid
    bump = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
    P = PlasticField(grid, 0.2 * bump[:, None] * np.array([0.9, 0.4, 0.0]), model.K_radius)
    K, f = mz._assemble_y_system(domain, model, P)
    free = ~grid.boundary_node_mask()
    Kff, ff = K[free][:, free], f[free]

    X, iters, ok = mz._cg(Kff, ff, np.zeros_like(ff), 1e-10, 3)
    ref, counts, infos = _scipy_cg(Kff, ff, np.zeros_like(ff), 1e-10, 3)
    assert np.array_equal(X, ref) and iters == max(counts) == 3 and infos == [3, 3] and not ok

    B = np.column_stack([ff[:, 0], np.zeros(len(ff))])
    X0 = np.random.default_rng(4).standard_normal(B.shape)
    X, iters, ok = mz._cg(Kff, B, X0, 1e-8, 10_000)
    ref, counts, infos = _scipy_cg(Kff, B, X0, 1e-8, 10_000)
    assert np.array_equal(X, ref) and iters == max(counts) > 0 and counts[1] == 0 and infos == [0, 0] and ok
    assert np.array_equal(X[:, 1], np.zeros(len(ff)))

    rng = np.random.default_rng(1)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    Pr = PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    H = energies.sobolev_metric(domain, model, y, Pr)
    g = energies.value_and_grad_J_eps(domain, model, y, Pr)[1].grad_m
    zero = np.zeros_like(g)
    X, iters, ok = mz._cg(H, g, zero, mz.SOBOLEV_CG_RTOL, len(g))
    ref, counts, infos = _scipy_cg(H, g, zero, mz.SOBOLEV_CG_RTOL, len(g))
    assert np.array_equal(X, ref) and iters == max(counts) > 0 and infos == [0, 0, 0] and ok

    systems = []
    banded = mz._banded_solve
    monkeypatch.setattr(mz, "_banded_solve", lambda *args: systems.append(args) or banded(*args))
    mz.minimize_J_limit(mg.builtin_cell("block4"), model, macro_elements=1)
    assert systems and all(K.shape == (0, 0) for K, _ in systems)
    for K, B in systems:
        X, iters, ok = mz._cg(K, B, np.zeros_like(B), 1e-10, 10_000)
        assert X.shape == (0, 2) and (iters, ok) == (0, True)
        ref, counts, infos = _scipy_cg(K, B, np.zeros_like(B), 1e-10, 10_000)
        assert np.array_equal(X, ref) and counts == [0, 0] and infos == [0, 0]


def test_minimize_P_scatters_no_y_gradient(setup, monkeypatch):
    """A composite P-step reads only the P part of its gradients, so it makes
    no ``accumulate_from_gradients`` scatter.  ``grad_y``, read afterwards,
    is the scatter of s W'(F) P^-T bit for bit, and a second read returns the
    same values; the gradient does not keep its pass alive."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(1)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P0 = PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    scatters = [0]
    accumulate = Grid.accumulate_from_gradients

    def counting(self, *args, **kwargs):
        scatters[0] += 1
        return accumulate(self, *args, **kwargs)

    monkeypatch.setattr(Grid, "accumulate_from_gradients", counting)
    P, rep = mz.minimize_P(domain, model, y, P0, tol=1e-7)
    assert rep.converged and len(rep.energy_trace) > 10
    assert scatters[0] == 0

    fixed = energies.FixedY(domain, y)
    g = energies.value_and_grad_J_eps(domain, model, fixed, P)[1]
    point = weakref.ref(fixed.latest)
    gc.disable()
    try:
        del fixed
        assert point() is None
    finally:
        gc.enable()
    s = domain.contrast[:, None, None, None]
    Pinv = energies._inv_batch(grid.gauss_values(P.matrices()))
    F = s * energies._matmul(grid.gauss_gradients(y.values), Pinv)
    soft = domain.soft_elements
    Wp = np.empty_like(F)
    Wp[soft] = model.W_soft_family.grad(domain.eps, F[soft])
    Wp[~soft] = model.W_stiff.grad(F[~soft])
    expected = np.zeros((grid.n_nodes, 2))
    accumulate(grid, s * energies._matmul(Wp, np.swapaxes(Pinv, -1, -2)), expected)
    first = g.grad_y
    assert np.abs(first).max() > 0.0 and np.array_equal(first, expected)
    assert np.array_equal(g.grad_y, expected)
    assert scatters[0] == 1


def test_minimize_P_assembles_each_point_once(setup, monkeypatch):
    """From the random start of the stationarity test: every P is assembled
    once, only accepted points get their gradient finished, grad y is taken
    once for the whole P-step, and each pass takes the exponential of its
    nodal log coordinates once (its gradient and metric reuse it).  Without
    the cyclic garbage collector, a pass's arrays are freed before the next
    pass is assembled, and none outlive the P-step."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(1)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P0 = PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    counts = {"grad y": 0, "gauss gradients": 0, "exp": 0, "completions": 0}
    assembled = []

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    init, gauss_gradients = energies.JEpsPass.__init__, Grid.gauss_gradients
    passes, live = [], []  # weak references to every pass; passes alive at each new one

    def recording_init(self, model, fixed, P):
        live.append(sum(ref() is not None for ref in passes))
        assembled.append(P.coeffs.tobytes())
        init(self, model, fixed, P)
        passes.append(weakref.ref(self))

    def recording_gauss_gradients(self, values):
        counts["grad y"] += values is y.values
        counts["gauss gradients"] += 1
        return gauss_gradients(self, values)

    monkeypatch.setattr(energies.JEpsPass, "__init__", recording_init)
    monkeypatch.setattr(Grid, "gauss_gradients", recording_gauss_gradients)
    monkeypatch.setattr(energies.GradJEps, "__init__", counting(energies.GradJEps.__init__, "completions"))
    monkeypatch.setattr(sg, "exp_batch", counting(sg.exp_batch, "exp"))
    gc.disable()
    try:
        P, rep = mz.minimize_P(domain, model, y, P0, tol=1e-7)
        assert max(live) == 0 and all(ref() is None for ref in passes)
    finally:
        gc.enable()

    assert rep.converged and len(rep.energy_trace) > 10
    n_distinct = len(set(assembled))
    assert n_distinct == len(assembled) > len(rep.energy_trace)
    assert counts["completions"] == len(rep.energy_trace)
    assert counts["grad y"] == 1
    assert counts["gauss gradients"] == len(assembled) + 1
    assert counts["exp"] == len(assembled)
    assert rep.breakdown == energies.assemble_J_eps(domain, model, y, P)


def test_sobolev_and_raw_P_steps_reach_the_same_minimum(setup):
    """From the stationarity test's random start, the preconditioned
    minimize_P and the raw-gradient projected descent on the same energy both
    converge, to the same J."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(1)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P0 = PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    _, rep = mz.minimize_P(domain, model, y, P0, tol=1e-7)

    def raw(P):
        bd, g = energies.value_and_grad_J_eps(domain, model, y, P)
        return bd, lambda: (g.grad_m, None)

    _, rep_raw = mz._block_descent(lambda Ps: map(raw, Ps), P0, 1e-7, 10_000)
    assert rep.converged and rep_raw.converged
    assert rep.final_value == pytest.approx(rep_raw.final_value, rel=1e-9)
    assert rep.inner_iterations[0] < rep_raw.inner_iterations[0]


def _quadratic_outside_ball(metric_is_hessian):
    """A synthetic P-step energy 0.5 sum_k (m_k - c_k).A(m_k - c_k) on a 3x3
    node grid with a dense SPD A whose minimiser c lies outside the K ball at
    every node; the metric is A itself or None (raw gradient)."""
    grid = Grid(2, 2)
    rng = np.random.default_rng(3)
    B = rng.standard_normal((grid.n_nodes, grid.n_nodes))
    A = scipy.sparse.csr_matrix(B @ B.T / grid.n_nodes + 0.05 * np.eye(grid.n_nodes))
    c = rng.standard_normal((grid.n_nodes, 3))
    assert np.linalg.norm(c, axis=1).min() > 0.3

    def evaluate(P):
        r = P.coeffs - c
        value = 0.5 * float(np.sum(r * (A @ r)))
        return energies.EnergyBreakdown.from_parts(value, 0.0, 0.0, 0.0, 0.0), \
            lambda: (A @ r, A if metric_is_hessian else None)

    return evaluate, PlasticField.identity(grid, 0.3)


def test_binding_K_ball_falls_back_to_the_raw_gradient():
    """Where the K ball binds, the radial projection of a preconditioned step
    can climb: the safeguard steps along the raw gradient there, so the
    preconditioned descent reaches the raw one's projected-stationary point
    with a nonincreasing energy trace."""
    results = []
    for metric_is_hessian in (False, True):
        evaluate, P0 = _quadratic_outside_ball(metric_is_hessian)
        P, rep = mz._block_descent(lambda Ps: map(evaluate, Ps), P0, 1e-10, 500)
        assert rep.converged
        assert all(b <= a + 1e-12 for a, b in zip(rep.energy_trace, rep.energy_trace[1:]))
        results.append((P.coeffs, rep.final_value))
    (m_raw, J_raw), (m_pre, J_pre) = results
    assert np.linalg.norm(m_raw, axis=1) == pytest.approx(0.3)
    assert J_pre == pytest.approx(J_raw, rel=1e-12)
    assert np.abs(m_pre - m_raw).max() < 1e-6


def test_first_round_P_steps_do_not_grow_with_refinement():
    """Mesh independence of the composite P-step: in a block4 sweep over
    eps = 1/4, 1/8, 1/16, each started from the previous minimizer as the
    study does, the first outer round's P-step takes at most 30 iterations
    (the raw gradient took 55, 80 and 145)."""
    cell = mg.builtin_cell("block4")
    model = materials.default_material(dim=2)
    prev = None
    for n_cells in (4, 8, 16):
        domain = mg.build_micro_domain(cell, n_cells, strip=0.5)
        init = None if prev is None else (prolong_deformation(prev[0], domain.grid),
                                          prolong_plastic(prev[1], domain.grid))
        y, P, _, rep = mz.minimize_J_eps(domain, model, init=init)
        assert rep.converged
        assert rep.inner_iterations[0][1] <= 30
        prev = (y, P)


def test_non_finite_energy_or_gradient_raises():
    """A NaN trial energy, a NaN gradient and an infinite start energy each
    raise NonFiniteEnergy instead of failing the line search in silence."""
    evaluate, P0 = _quadratic_outside_ball(True)

    def nan_trials(P):
        bd, finish = evaluate(P)
        if P.coeffs.any():
            bd = energies.EnergyBreakdown.from_parts(np.nan, 0.0, 0.0, 0.0, 0.0)
        return bd, finish

    def nan_gradient(P):
        bd, finish = evaluate(P)
        return bd, lambda: (np.full_like(P.coeffs, np.nan), None)

    for bad in (nan_trials, nan_gradient):
        with pytest.raises(mz.NonFiniteEnergy):
            mz._block_descent(lambda Ps: map(bad, Ps), P0, 1e-10, 500)

    grid = P0.grid
    inf_start = energies.EnergyBreakdown.from_parts(np.inf, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(mz.NonFiniteEnergy):
        mz._alternate(lambda y, P: inf_start, None, None, grid, 0.3, None, mz.Schedule())


@pytest.mark.parametrize("rise, converged", [(1e-3, False), (1e-12, True)])
def test_a_rising_outer_round_is_not_convergence(rise, converged):
    """A round whose P-step raises the energy by more than outer_tol ends the
    alternation unconverged; a rise within the tolerance still converges."""
    grid = Grid(2, 2)

    def breakdown(value):
        return energies.EnergyBreakdown.from_parts(value, 0.0, 0.0, 0.0, 0.0)

    climbing = iter(1.0 + rise * np.arange(1, 10))

    def p_step(fixed, P):
        bd = breakdown(float(next(climbing)))
        rep = mz.SolveReport(final_value=bd.total, energy_trace=[bd.total], inner_iterations=[1],
                             gradient_norms=[0.0])
        rep.breakdown = bd
        return P, rep, True

    _, _, value, rep = mz._alternate(lambda y, P: breakdown(1.0), lambda y, P: (SimpleNamespace(y=y), 0, True), p_step,
                                     grid, 0.3, None, mz.Schedule(outer_tol=1e-8))
    assert len(rep.inner_iterations) == 1 and value == 1.0 + rise
    assert rep.converged == converged


def _consuming(evaluate, consumed):
    """``evaluate`` (a block evaluator) that appends to ``consumed`` the
    coefficients of each trial as the search consumes its value."""
    def wrapped(Ps):
        for P, value in zip(Ps, evaluate(Ps)):
            consumed.append(P.coeffs.tobytes())
            yield value
    return wrapped


def _same_descent(first, second):
    (P1, rep1), (P2, rep2) = first, second
    assert np.array_equal(P1.coeffs, P2.coeffs)
    assert rep1.final_value == rep2.final_value and rep1.breakdown == rep2.breakdown
    assert rep1.energy_trace == rep2.energy_trace
    assert rep1.inner_iterations == rep2.inner_iterations
    assert rep1.gradient_norms == rep2.gradient_norms


def test_limit_block_search_keeps_every_iterate_of_the_one_trial_search():
    """The first round's P-step from the limit benchmark's start (8 x 8
    macro grid, the lab's smooth plastic field, y from the first y-step):
    the descent with the limit's block evaluator returns the P, value,
    trace, iteration count and gradient norms of the same descent with a
    test-local evaluator that values one trial per call, and consumes the
    same trials in the same order, so every search takes as many trials.
    Its searches run through the staircase: the blocks value more trials
    than the search consumes, in fewer calls, but no more than the schedule
    of ``_block_descent`` values there."""
    cell = mg.builtin_cell("block4")
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=8)
    grid = Grid(2, 8)
    P0 = lab._smooth_plastic(grid, model.K_radius)
    y = mz.minimize_J_limit(cell, model, init=(DeformationField.zero(grid), P0), cache=cache,
                            schedule=mz.Schedule(outer_iters=1, p_tol=1e9))[0]
    fixed = cp.FixedYLimit(cell, model, y, cache)
    valued = []
    block = cp.JLimitBlock

    def counting(fixed, Ps):
        valued.append(len(Ps))
        return block(fixed, Ps)

    def one_per_call(Ps):
        for P in Ps:
            point = cp.JLimitBlock(cp.FixedYLimit(cell, model, y, cache), [P])
            yield point.breakdowns[0], lambda point=point: (point.grad_m(0), None)

    consumed = {"block": [], "one": []}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "JLimitBlock", counting)
        blocks = mz._block_descent(_consuming(mz._limit_evaluator(fixed), consumed["block"]),
                                   P0, 1e-7, mz.LIMIT_P_ITERS)
    ones = mz._block_descent(_consuming(one_per_call, consumed["one"]), P0, 1e-7, mz.LIMIT_P_ITERS)
    _same_descent(blocks, ones)
    assert consumed["block"] == consumed["one"]
    # the start and 860 trials in 60 iterations, as a search that values one trial per step makes them
    assert len(consumed["one"]) == 861 and blocks[1].inner_iterations == [60]
    assert sum(valued) > len(consumed["one"]) > 5 * len(valued)
    # each search's first block holds one trial more than the previous search consumed:
    # 983 valued trials here, where first blocks as large as that count valued 1,227
    assert sum(valued) <= 983


def test_composite_p_step_keeps_every_iterate_and_assembly_count(setup, monkeypatch):
    """From the stationarity test's random start, ``minimize_P`` returns the
    P, value, trace, iteration count and gradient norms of the descent with
    a test-local evaluator that assembles each trial afresh, one per call;
    both consume the same trials, and ``minimize_P`` makes one
    ``assemble_J_eps`` call per valued point, the start included."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(1)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P0 = PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)

    def one_per_call(Ps):
        for P in Ps:
            def finish(P=P):
                grad = energies.value_and_grad_J_eps(domain, model, y, P)[1].grad_m
                return grad, energies.sobolev_metric(domain, model, y, P)
            yield energies.assemble_J_eps(domain, model, y, P), finish

    consumed = []
    ones = mz._block_descent(_consuming(one_per_call, consumed), P0, 1e-7, 10_000)
    assembled = []
    assemble = energies.assemble_J_eps
    monkeypatch.setattr(energies, "assemble_J_eps", lambda *args: assembled.append(args[3]) or assemble(*args))
    P, rep = mz.minimize_P(domain, model, y, P0, tol=1e-7)
    _same_descent((P, rep), ones)
    assert rep.converged and len(rep.energy_trace) > 10
    assert consumed[0] == P0.coeffs.tobytes()
    assert [P.coeffs.tobytes() for P in assembled] == consumed
    # the start and 36 trials in 25 iterations, as a search that values one trial per step makes them
    assert len(consumed) == 37 and rep.inner_iterations == [25]


def test_p_step_starts_from_the_y_steps_pass(setup, monkeypatch):
    """In the composite alternation each P-step starts from the pass that
    valued its y-step's solution: every outer round makes one JEpsPass fewer
    than ``assemble_J_eps`` calls, and y, P and the value are those of
    P-steps that value their start afresh."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(2)
    start = (DeformationField.zero(grid),
             PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius))
    schedule = mz.Schedule(outer_iters=3)
    minimize_y = mz.minimize_y

    def fresh_start(*args, **kwargs):
        y, rep = minimize_y(*args, **kwargs)
        rep.fixed = energies.FixedY(domain, y)
        return y, rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mz, "minimize_y", fresh_start)
        fresh = mz.minimize_J_eps(domain, model, init=start, schedule=schedule)
    counts = {"passes": 0, "assemblies": 0}
    init, assemble = energies.JEpsPass.__init__, energies.assemble_J_eps

    def counting_init(self, *args):
        counts["passes"] += 1
        init(self, *args)

    def counting_assemble(*args):
        counts["assemblies"] += 1
        return assemble(*args)

    monkeypatch.setattr(energies.JEpsPass, "__init__", counting_init)
    monkeypatch.setattr(energies, "assemble_J_eps", counting_assemble)
    y, P, value, rep = mz.minimize_J_eps(domain, model, init=start, schedule=schedule)
    assert len(rep.inner_iterations) == 3
    assert counts["passes"] == counts["assemblies"] - 3
    assert value == fresh[2] and rep.energy_trace == fresh[3].energy_trace
    assert np.array_equal(P.coeffs, fresh[1].coeffs) and np.array_equal(y.values, fresh[0].values)


def test_alternation_frees_each_y_steps_data(setup, monkeypatch):
    """The alternation drops each y-step's FixedY, and the last pass made
    with it, once its P-step returns: with the cyclic collector off, every
    earlier FixedY is dead when the next y-step starts."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(2)
    start = (DeformationField.zero(grid),
             PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius))
    minimize_y = mz.minimize_y
    refs, alive = [], []

    def watched(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        y, rep = minimize_y(*args, **kwargs)
        refs.append(weakref.ref(rep.fixed))
        return y, rep

    monkeypatch.setattr(mz, "minimize_y", watched)
    gc.disable()
    try:
        rep = mz.minimize_J_eps(domain, model, init=start, schedule=mz.Schedule(outer_iters=3))[3]
    finally:
        gc.enable()
    assert len(rep.inner_iterations) == 3
    assert alive == [[], [False], [False, False]]


def test_limit_block_failure_past_the_accepted_trial_does_not_surface():
    """A trial outside the principal-log chart (a rotation by 2 rad, in a K
    ball of radius 3) behind an admissible one: the limit's block evaluator
    values the first trial as a block of its own does, its gradient is
    finished, and LogDomain is raised only when the second trial is
    consumed."""
    cell = mg.builtin_cell("block4")
    model = materials.default_material(dim=2, r_K=3.0)
    cache = cp.HomDensityCache(resolution=8)
    grid = Grid(2, 2)
    y = DeformationField.zero(grid)
    good = PlasticField(grid, 0.1 * np.random.default_rng(4).standard_normal((grid.n_nodes, 3)), model.K_radius)
    bad = PlasticField(grid, np.tile([0.0, 2.0 * np.sqrt(2.0), 0.0], (grid.n_nodes, 1)), model.K_radius)
    with pytest.raises(sg.LogDomain):
        cp.assemble_J_limit(cell, model, y, bad, cache)
    values = mz._limit_evaluator(cp.FixedYLimit(cell, model, y, cache))([good, bad])
    breakdown, finish = next(values)
    point = cp.JLimitBlock(cp.FixedYLimit(cell, model, y, cache), [good])
    assert breakdown == point.breakdowns[0]
    grad, H = finish()
    assert H is None and np.array_equal(grad, point.grad_m(0))
    with pytest.raises(sg.LogDomain):
        next(values)


def test_descent_y_step_runs_no_plastic_gradient(setup, monkeypatch):
    """A forced-descent y-step makes no ``PlasticBlock.gradient`` call; the
    value and gradient norm it reports are those of ``value_and_grad_J_eps``
    at its solution, read through ``grad_y`` alone, bit for bit."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(3)
    P = PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    calls = []
    gradient = energies.PlasticBlock.gradient
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energies.PlasticBlock, "gradient", lambda self, *args: calls.append(1) or gradient(self, *args))
        y, rep = mz.minimize_y(domain, model, P, force_descent=True)
        breakdown, g = energies.value_and_grad_J_eps(domain, model, y, P)
        grad_y = g.grad_y
    assert rep.converged and np.abs(y.values).max() > 1e-3
    assert calls == []
    free = ~grid.boundary_node_mask()
    assert breakdown.total == rep.final_value
    assert np.abs(grad_y).max() > 0.0 and rep.gradient_norms == [float(np.linalg.norm(grad_y[free].reshape(-1)))]
