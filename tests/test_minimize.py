import numpy as np
import pytest

from hclab import cellproblems as cp, energies, materials, microgeometry as mg, minimize as mz
from hclab.fields import DeformationField, Grid, PlasticField


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
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)), bc="zero")
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
        y0 = DeformationField(grid, 0.05 * rng.standard_normal((grid.n_nodes, 2)), bc="zero")
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


def test_y_step_cg_counts_and_failures_are_reported(setup):
    """Both alternations record the y-step CG iterations, and a y-step CG cut
    off by its budget marks the solve unconverged although the outer loop
    stops on a flat energy."""
    cell, domain, model, _ = setup
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
        v = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)), bc="zero").values
        Jp = energy(DeformationField(grid, y.values + t * v), P)
        Jm = energy(DeformationField(grid, y.values - t * v), P)
        second = (Jp - 2.0 * J0 + Jm) / t**2
        assert second > 0.0
        assert abs(Jp - Jm) / (2.0 * t) <= 1e-9 * second
