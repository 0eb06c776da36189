import json
from dataclasses import asdict

import numpy as np
import pytest

from hclab import energies, materials, microgeometry as mg
from hclab.energies import EnergyBreakdown
from hclab.fields import DeformationField, Grid, GridMismatch, PlasticField


@pytest.fixture(scope="module")
def setup():
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    model = materials.default_material(dim=2)
    grid = Grid(2, domain.n_el)
    return cell, domain, model, grid


def test_constant_state_baseline(setup):
    cell, domain, model, grid = setup
    y = DeformationField.zero(grid)
    P = PlasticField.identity(grid, model.K_radius)
    bd = energies.assemble_J_eps(domain, model, y, P)
    gamma_d = 1.0 * 2
    expected = gamma_d * float(domain.measure_stiff()) + model.h0
    assert bd.total == pytest.approx(expected, abs=1e-14)
    assert bd.soft_elastic == 0.0
    assert bd.grad_P_term == pytest.approx(0.0, abs=1e-30)


def test_affine_state_constant_integrands(setup):
    cell, domain, model, grid = setup
    A = np.array([[0.3, -0.2], [0.1, 0.4]])
    y = DeformationField(grid, grid.node_coords() @ A.T, bc="free")
    P = PlasticField.identity(grid, model.K_radius)
    bd = energies.assemble_J_eps(domain, model, y, P)
    eps = domain.eps
    assert bd.stiff_elastic == pytest.approx(
        float(model.W_stiff.value(A)) * float(domain.measure_stiff()), rel=1e-13)
    assert bd.soft_elastic == pytest.approx(
        float(model.W_soft_family.value(eps, eps * A)) * float(domain.measure_soft()), rel=1e-12, abs=1e-18)


def _brute_force_total(domain, model, y, P):
    """Independent straight-loop quadrature over all Gauss points."""
    grid = y.grid
    soft = domain.soft_field.reshape(-1)
    gp = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
    total = 0.0
    Pn = P.matrices()
    for e in range(grid.n_elements):
        nodes = grid.el_nodes[e]
        for a in gp:
            for b in gp:
                N = np.array([(1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b])
                dN = np.array([
                    [-(1 - b), -(1 - a)], [-b, (1 - a)], [(1 - b), -a], [b, a]
                ]) / grid.h
                G = sum(np.outer(y.values[n], dN[i]) for i, n in enumerate(nodes))
                Pg = sum(N[i] * Pn[n] for i, n in enumerate(nodes))
                gradP = np.zeros((2, 2, 2))
                for i, n in enumerate(nodes):
                    gradP += Pn[n][:, :, None] * dN[i][None, None, :]
                Pinv = np.linalg.inv(Pg)
                if soft[e]:
                    W = float(model.W_soft_family.value(domain.eps, domain.eps * G @ Pinv))
                else:
                    W = float(model.W_stiff.value(G @ Pinv))
                import scipy.linalg

                H = model.h0 + model.h1 * np.linalg.norm(scipy.linalg.logm(Pg)) ** 2
                qv = np.sum(gradP * gradP) ** (model.q / 2.0)
                total += (W + H + qv) * 0.25 * grid.h**2
    return total


def test_assembly_matches_brute_force_oracle(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(11)
    y = DeformationField(grid, 0.2 * rng.standard_normal((grid.n_nodes, 2)), bc="zero")
    P = PlasticField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    bd = energies.assemble_J_eps(domain, model, y, P)
    oracle = _brute_force_total(domain, model, y, P)
    assert bd.total == pytest.approx(oracle, rel=1e-12)


def test_breakdown_sum_and_json_roundtrip(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(12)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)), bc="zero")
    P = PlasticField(grid, 0.05 * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    bd = energies.assemble_J_eps(domain, model, y, P)
    parts = (bd.soft_elastic + bd.stiff_elastic + bd.hardening_soft + bd.hardening_stiff
             + bd.grad_P_term)
    assert bd.total == pytest.approx(parts, rel=1e-12)
    assert EnergyBreakdown(**json.loads(json.dumps(asdict(bd)))) == bd  # its floats round-trip through JSON


def test_gradient_matches_central_differences(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(13)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)), bc="zero")
    P = PlasticField(grid, 0.15 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    g = energies.value_and_grad_J_eps(domain, model, y, P)[1]
    h = 1e-6
    free = ~grid.boundary_node_mask()
    for i, c in zip(rng.integers(0, grid.n_nodes, 25), rng.integers(0, 2, 25)):
        if not free[i]:
            continue
        yp, ym = y.copy(), y.copy()
        yp.values[i, c] += h
        ym.values[i, c] -= h
        fd = (energies.assemble_J_eps(domain, model, yp, P).total
              - energies.assemble_J_eps(domain, model, ym, P).total) / (2 * h)
        assert g.grad_y[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-10)
    for i, k in zip(rng.integers(0, grid.n_nodes, 25), rng.integers(0, 3, 25)):
        cp, cm = P.coeffs.copy(), P.coeffs.copy()
        cp[i, k] += h
        cm[i, k] -= h
        fd = (energies.assemble_J_eps(domain, model, y, PlasticField(grid, cp, P.r_K)).total
              - energies.assemble_J_eps(domain, model, y, PlasticField(grid, cm, P.r_K)).total) / (2 * h)
        assert g.grad_m[i, k] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_gradient_symmetry_vanishing(setup):
    cell, domain, _, grid = setup
    # even density (gamma = 0) on the symmetric domain: grad_y vanishes at 0
    model0 = materials.default_material(dim=2, gamma=0.0)
    y = DeformationField.zero(grid)
    P = PlasticField.identity(grid, model0.K_radius)
    g = energies.value_and_grad_J_eps(domain, model0, y, P)[1]
    assert np.abs(g.grad_y).max() < 1e-14
    # hardening minimized at M = 0 when y = 0: grad_m vanishes too
    assert np.abs(g.grad_m).max() < 1e-14


def test_fused_value_and_grad_consistent(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(14)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)), bc="zero")
    P = PlasticField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    bd, g = energies.value_and_grad_J_eps(domain, model, y, P)
    assert bd == energies.assemble_J_eps(domain, model, y, P)
    g2 = energies.value_and_grad_J_eps(domain, model, y, P)[1]
    assert np.array_equal(g.grad_y, g2.grad_y)
    assert np.array_equal(g.grad_m, g2.grad_m)


def test_high_contrast_limit_and_continuity(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(15)
    y = DeformationField(grid, 0.3 * rng.standard_normal((grid.n_nodes, 2)), bc="zero")
    P = PlasticField.identity(grid, model.K_radius)
    # at P = I the convex soft term is (1 + eps) eps^2 int_soft |grad y|^2,
    # so it vanishes as the contrast eps -> 0
    eps = domain.eps
    bd = energies.assemble_J_eps(domain, model, y, P)
    soft = domain.soft_field.reshape(-1)
    expected = (1.0 + eps) * eps**2 * grid.grad_norm_sq(y.values, element_mask=soft)
    assert expected > 0.0
    assert bd.soft_elastic == pytest.approx(expected, rel=1e-12)


def test_crease_flag_on_two_well(setup):
    cell, domain, _, grid = setup
    model = materials.default_material(dim=2, soft="twowell")
    # F = 0 in the inclusions puts every soft Gauss point on the crease
    y = DeformationField.zero(grid)
    P = PlasticField.identity(grid, model.K_radius)
    g = energies.value_and_grad_J_eps(domain, model, y, P)[1]
    assert g.crease_count > 0


def test_grid_mismatch(setup):
    cell, domain, model, grid = setup
    other = Grid(2, 8)
    y = DeformationField.zero(other)
    P = PlasticField.identity(grid, model.K_radius)
    with pytest.raises(GridMismatch):
        energies.assemble_J_eps(domain, model, y, P)
    # Gauss data of y on a second, equal domain object belong to that domain
    fixed = energies.FixedY(mg.build_micro_domain(cell, 4, strip=0.5), DeformationField.zero(grid))
    with pytest.raises(GridMismatch):
        energies.assemble_J_eps(domain, model, fixed, P)


def test_three_dimensional_assembly_and_gradient():
    """The 3D path: fiber geometry, baseline exactness, directional FD check."""
    cell = mg.builtin_cell("fiber3d")
    domain = mg.build_micro_domain(cell, 3, strip=0.5)
    model = materials.default_material(dim=3, q=4.0)
    grid = Grid(3, domain.n_el)
    y0 = DeformationField.zero(grid)
    P0 = PlasticField.identity(grid, model.K_radius)
    bd = energies.assemble_J_eps(domain, model, y0, P0)
    assert bd.total == pytest.approx(3.0 * float(domain.measure_stiff()) + model.h0, rel=1e-12)

    rng = np.random.default_rng(31)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)), bc="zero")
    P = PlasticField(grid, 0.04 * rng.standard_normal((grid.n_nodes, 8)), model.K_radius)
    g = energies.value_and_grad_J_eps(domain, model, y, P)[1]
    h = 1e-6
    dm = rng.standard_normal((grid.n_nodes, 8))
    dm /= np.linalg.norm(dm)
    fd = (energies.assemble_J_eps(domain, model, y, PlasticField(grid, P.coeffs + h * dm, P.r_K)).total
          - energies.assemble_J_eps(domain, model, y, PlasticField(grid, P.coeffs - h * dm, P.r_K)).total) / (2 * h)
    assert float(np.sum(g.grad_m * dm)) == pytest.approx(fd, rel=1e-5)
    dy = rng.standard_normal((grid.n_nodes, 3))
    dy[grid.boundary_node_mask()] = 0.0
    dy /= np.linalg.norm(dy)
    yp = DeformationField(grid, y.values + h * dy, bc="zero")
    ym = DeformationField(grid, y.values - h * dy, bc="zero")
    fd = (energies.assemble_J_eps(domain, model, yp, P).total
          - energies.assemble_J_eps(domain, model, ym, P).total) / (2 * h)
    assert float(np.sum(g.grad_y * dy)) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("cell_name", ["block4", "fiber3d"])
def test_pass_gradient_bit_identical_to_value_and_grad(cell_name):
    """The P-step's path to a gradient gives a fresh value_and_grad_J_eps bit
    for bit at y != 0, P != I: a value pass through a shared FixedY, then the
    gradient finished from it, also when a later pass was assembled in
    between.  block4 runs at eps = 1/4; fiber3d takes the 3D series branch."""
    cell = mg.builtin_cell(cell_name)
    dim = cell.dim
    domain = mg.build_micro_domain(cell, 4 if dim == 2 else 3, strip=0.5)
    assert domain.eps == (0.25 if dim == 2 else 1 / 3)
    model = materials.default_material(dim=dim)
    grid = Grid(dim, domain.n_el)
    rng = np.random.default_rng(16)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, dim)), bc="zero")
    Ps = [PlasticField(grid, 0.1 * rng.standard_normal((grid.n_nodes, dim * dim - 1)), model.K_radius)
          for _ in range(2)]
    fresh = [energies.value_and_grad_J_eps(domain, model, y, P) for P in Ps]
    fixed = energies.FixedY(domain, y)
    points = [energies.JEpsPass(model, fixed, P) for P in Ps]
    for (bd, g), P, point in zip(fresh, Ps, points):
        assert np.abs(g.grad_m).max() > 0.0 and np.abs(g.grad_y).max() > 0.0
        assert energies.assemble_J_eps(domain, model, fixed, P) == bd
        kept = fixed.latest
        finished = energies.value_and_grad_J_eps(domain, model, fixed, P)
        for bd2, g2 in (finished, (point.breakdown, point.gradient())):
            assert bd2 == bd
            assert np.array_equal(g2.grad_y, g.grad_y) and np.array_equal(g2.grad_m, g.grad_m)
            assert g2.crease_count == g.crease_count
        assert fixed.latest is kept  # the gradient was finished, not re-assembled


def test_sobolev_metric_is_hardening_hessian_at_identity_and_spd(setup):
    """At y = 0, P = I the P-step metric is the mass part alone (grad P = 0)
    and equals the central-difference Hessian of hardening_soft +
    hardening_stiff in the nodal coefficients, alike on each sl column and
    without coupling between columns (bilinear probes u.Hv through
    polarization).  At a rough P its Laplacian part is the quadrature of
    q |grad P|^(q-2) |grad u|^2, and H is symmetric positive definite."""
    cell, domain, model, grid = setup
    k = 3
    y = DeformationField.zero(grid)
    H = energies.sobolev_metric(domain, model, y, PlasticField.identity(grid, model.K_radius))
    assert H.shape == (grid.n_nodes, grid.n_nodes)

    def hardening(m):
        bd = energies.assemble_J_eps(domain, model, y, PlasticField(grid, m, model.K_radius))
        return bd.hardening_soft + bd.hardening_stiff

    rng = np.random.default_rng(9)
    t = 1e-4
    for _ in range(4):
        u, v = rng.standard_normal((2, grid.n_nodes, k))
        fd = (hardening(t * (u + v)) + hardening(-t * (u + v))
              - hardening(t * (u - v)) - hardening(-t * (u - v))) / (4 * t * t)
        assert float(np.sum(u * (H @ v))) == pytest.approx(fd, rel=1e-6)

    P = PlasticField(grid, 0.2 * model.K_radius * rng.standard_normal((grid.n_nodes, k)), model.K_radius)
    gradP = grid.gauss_gradients(P.matrices())
    weight = model.q * np.sum(gradP**2, axis=(2, 3, 4)) ** ((model.q - 2) / 2)
    H_P = energies.sobolev_metric(domain, model, y, P)
    u = rng.standard_normal(grid.n_nodes)
    gu = grid.gauss_gradients(u)
    lagged = grid.integrate(weight * np.sum(gu**2, axis=-1))
    assert float(u @ ((H_P - H) @ u)) == pytest.approx(lagged, rel=1e-12)
    dense = H_P.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.linalg.eigvalsh(dense).min() > 0.0
