import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from hclab import energies, materials, microgeometry as mg, slgeometry as sg
from hclab.energies import EnergyBreakdown
from hclab.fields import DeformationField, Grid, GridMismatch, PlasticField


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
    y = DeformationField(grid, grid.node_coords() @ A.T)
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
                # the hardening at the interpolated log coordinates of P
                m = sum(N[i] * P.coeffs[n] for i, n in enumerate(nodes))
                H = model.h0 + model.h1 * float(m @ m)
                qv = np.sum(gradP * gradP) ** (model.q / 2.0)
                total += (W + H + qv) * 0.25 * grid.h**2
    return total


def test_assembly_matches_brute_force_oracle(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(11)
    y = _zero_trace(grid, 0.2 * rng.standard_normal((grid.n_nodes, 2)))
    P = PlasticField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    bd = energies.assemble_J_eps(domain, model, y, P)
    oracle = _brute_force_total(domain, model, y, P)
    assert bd.total == pytest.approx(oracle, rel=1e-12)


def test_breakdown_sum_and_json_roundtrip(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(12)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P = PlasticField(grid, 0.05 * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    bd = energies.assemble_J_eps(domain, model, y, P)
    parts = (bd.soft_elastic + bd.stiff_elastic + bd.hardening_soft + bd.hardening_stiff
             + bd.grad_P_term)
    assert bd.total == pytest.approx(parts, rel=1e-12)
    assert EnergyBreakdown(**json.loads(json.dumps(asdict(bd)))) == bd  # its floats round-trip through JSON


def test_gradient_matches_central_differences(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(13)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
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


def test_boundary_rows_of_grad_y_match_central_differences(setup):
    """grad_y is the derivative with respect to every nodal value: along
    perturbations supported on boundary nodes it matches central differences
    of the energy, which are not zero."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(18)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P = PlasticField(grid, 0.15 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    g = energies.value_and_grad_J_eps(domain, model, y, P)[1]
    boundary = grid.boundary_node_mask()
    h = 1e-6
    for _ in range(4):
        dy = rng.standard_normal((grid.n_nodes, 2))
        dy[~boundary] = 0.0
        dy /= np.linalg.norm(dy)
        fd = (energies.assemble_J_eps(domain, model, DeformationField(grid, y.values + h * dy), P).total
              - energies.assemble_J_eps(domain, model, DeformationField(grid, y.values - h * dy), P).total) / (2 * h)
        assert abs(fd) > 1e-3
        assert float(np.sum(g.grad_y * dy)) == pytest.approx(fd, rel=1e-6)


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
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P = PlasticField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    bd, g = energies.value_and_grad_J_eps(domain, model, y, P)
    assert bd == energies.assemble_J_eps(domain, model, y, P)
    g2 = energies.value_and_grad_J_eps(domain, model, y, P)[1]
    assert np.array_equal(g.grad_y, g2.grad_y)
    assert np.array_equal(g.grad_m, g2.grad_m)


def test_high_contrast_limit_and_continuity(setup):
    cell, domain, model, grid = setup
    rng = np.random.default_rng(15)
    y = _zero_trace(grid, 0.3 * rng.standard_normal((grid.n_nodes, 2)))
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


def test_plastic_field_owns_its_coefficients(setup):
    """A PlasticField keeps a read-only copy of its input: writing into the
    array it was built from changes neither the field nor the pass a FixedY
    kept at it, so that pass is still the energy of a fresh assembly, and
    writing into its coefficients, or those of a row, raises."""
    _, domain, model, grid = setup
    arr = np.zeros((grid.n_nodes, 3))
    P = PlasticField(grid, arr, model.K_radius)
    y = DeformationField.zero(grid)
    fixed = energies.FixedY(domain, y)
    kept = energies.assemble_J_eps(domain, model, fixed, P).total
    arr[:, 0] = 0.2
    assert energies.assemble_J_eps(domain, model, fixed, P).total == kept
    assert energies.assemble_J_eps(domain, model, y, P).total == kept
    assert energies.assemble_J_eps(domain, model, y, PlasticField(grid, arr, model.K_radius)).total > kept
    for field in (P, PlasticField.rows(grid, arr[None], model.K_radius)[0]):
        with pytest.raises(ValueError):
            field.coeffs[0, 0] = 0.1


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
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)))
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
    yp = DeformationField(grid, y.values + h * dy)
    ym = DeformationField(grid, y.values - h * dy)
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
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, dim)))
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
        for bd2, g2 in (finished, (point.breakdown, energies.GradJEps(point))):
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


@pytest.mark.parametrize("cell_name", ["block4", "fiber3d"])
def test_composite_pass_takes_no_matrix_log(cell_name, monkeypatch):
    """A JEpsPass value, its gradient and the P-step metric call none of the
    log kernels: the hardening reads the interpolated log coordinates."""
    cell = mg.builtin_cell(cell_name)
    dim = cell.dim
    domain = mg.build_micro_domain(cell, 4 if dim == 2 else 3, strip=0.5)
    model = materials.default_material(dim=dim)
    grid = domain.grid
    rng = np.random.default_rng(21)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, dim)))
    P = PlasticField(grid, 0.1 * rng.standard_normal((grid.n_nodes, dim * dim - 1)), model.K_radius)
    calls = []
    for name in ("log_batch", "log_frechet_adjoint"):
        kernel = getattr(sg, name)
        monkeypatch.setattr(sg, name, lambda *args, _name=name, _kernel=kernel: calls.append(_name) or _kernel(*args))
    fixed = energies.FixedY(domain, y)
    bd = energies.assemble_J_eps(domain, model, fixed, P)
    g = energies.value_and_grad_J_eps(domain, model, fixed, P)[1]
    energies.sobolev_metric(domain, model, fixed, P)
    assert calls == []
    assert np.isfinite(bd.total) and np.abs(g.grad_m).max() > 0.0


def test_hardening_is_the_mass_quadratic_form(setup):
    """The booked hardening of both phases is h0 |Omega| + h1 sum_k m_k^T M m_k
    in the nodal log coordinates, with M the grid's mass matrix, and the
    P-step metric's mass part is its Hessian 2 h1 M at a rough P too."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(22)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P = PlasticField(grid, 0.5 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    bd = energies.assemble_J_eps(domain, model, y, P)
    quadratic = model.h0 + model.h1 * float(np.sum(P.coeffs * (grid.mass @ P.coeffs)))
    assert bd.hardening_soft + bd.hardening_stiff == pytest.approx(quadratic, rel=1e-12)
    H = energies.sobolev_metric(domain, model, y, P)
    laplacian = energies.PlasticBlock(model, [P]).laplacian(0)
    assert np.abs((H - laplacian - 2.0 * model.h1 * grid.mass).toarray()).max() <= 1e-15 * np.abs(H.data).max()


def _gradient_oracle(domain, model, grid, y, P):
    """grad_y and grad_m of J_eps from the chain rule written out: the
    scatter of s W'(F) P^-T, and the plastic block's gradient of its one row
    at the cotangent -F^T W'(F) P^-T."""
    s = domain.contrast[:, None, None, None]
    Pinv = energies._inv_batch(grid.gauss_values(P.matrices()))
    F = s * energies._matmul(grid.gauss_gradients(y.values), Pinv)
    soft = domain.soft_elements
    Wp = np.empty_like(F)
    Wp[soft] = model.W_soft_family.grad(domain.eps, F[soft])
    Wp[~soft] = model.W_stiff.grad(F[~soft])
    WpPinvT = energies._matmul(Wp, np.swapaxes(Pinv, -1, -2))
    grad_y = np.zeros((grid.n_nodes, grid.dim))
    grid.accumulate_from_gradients(s * WpPinvT, grad_y)
    grad_m = energies.PlasticBlock(model, [P]).gradient(0, -energies._matmul(np.swapaxes(F, -1, -2), WpPinvT))
    return grad_y, grad_m


@pytest.mark.parametrize("order", [("grad_y", "grad_m"), ("grad_m", "grad_y")])
def test_lazy_gradient_parts_in_either_order(setup, monkeypatch, order):
    """Each part of a GradJEps is computed on its first read, in either
    order, and is the chain rule's value bit for bit.  Reading one part runs
    nothing of the other: grad_y makes no PlasticBlock.gradient call and
    grad_m no accumulate_from_gradients scatter; a second read computes
    nothing."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(31)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P = PlasticField(grid, 0.3 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    expected = dict(zip(("grad_y", "grad_m"), _gradient_oracle(domain, model, grid, y, P)))
    calls = {"grad_y": 0, "grad_m": 0}
    scatter, gradient = Grid.accumulate_from_gradients, energies.PlasticBlock.gradient

    def counting_scatter(self, *args):
        calls["grad_y"] += 1
        return scatter(self, *args)

    def counting_gradient(self, *args):
        calls["grad_m"] += 1
        return gradient(self, *args)

    monkeypatch.setattr(Grid, "accumulate_from_gradients", counting_scatter)
    monkeypatch.setattr(energies.PlasticBlock, "gradient", counting_gradient)
    g = energies.value_and_grad_J_eps(domain, model, y, P)[1]
    assert calls == {"grad_y": 0, "grad_m": 0}
    first, second = order
    value = getattr(g, first)
    assert calls == {first: 1, second: 0}
    assert np.abs(value).max() > 0.0 and np.array_equal(value, expected[first])
    assert np.array_equal(getattr(g, second), expected[second])
    assert calls == {first: 1, second: 1}
    assert getattr(g, first) is value and calls == {first: 1, second: 1}


def test_accepted_point_builds_one_laplacian(setup, monkeypatch):
    """At a composite point kept by its FixedY, as the P-step finishes an
    accepted trial, the gradient and the metric share the block's one
    ``laplacian(0)``: the Kacanov operator is built once."""
    cell, domain, model, grid = setup
    rng = np.random.default_rng(32)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P = PlasticField(grid, 0.3 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    fixed = energies.FixedY(domain, y)
    energies.assemble_J_eps(domain, model, fixed, P)
    built = []
    stiffness = Grid.stiffness
    monkeypatch.setattr(Grid, "stiffness", lambda self, *args: built.append(1) or stiffness(self, *args))
    grad_m = energies.value_and_grad_J_eps(domain, model, fixed, P)[1].grad_m
    H = energies.sobolev_metric(domain, model, fixed, P)
    assert len(built) == 1
    laplacian = fixed.latest.plastic.laplacian(0)
    assert len(built) == 1
    assert np.abs(grad_m).max() > 0.0
    assert np.array_equal(H.data, laplacian.data + 2.0 * model.h1 * grid.mass.data)


def test_composite_gradient_peak_memory_is_bounded():
    """One fresh value_and_grad_J_eps on the 64 x 64 block4 composite
    (eps = 1/16), with both parts of its gradient read, peaks below 8 arrays
    of the size of one (E, g, d, d) Gauss array, measured by tracemalloc
    after a first call has built the grid's cached operators.  It measured
    6.4 such arrays."""
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 16, strip=0.5)
    model = materials.default_material(dim=2)
    grid = domain.grid
    assert grid.n_el == 64
    rng = np.random.default_rng(3)
    y = _zero_trace(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    P = PlasticField(grid, 0.1 * model.K_radius * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    first = energies.value_and_grad_J_eps(domain, model, y, P)
    gauss_array = grid.n_elements * grid.n_gauss * 2 * 2 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        again = energies.value_and_grad_J_eps(domain, model, y, P)
        again[1].grad_m, again[1].grad_y
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert again[0] == first[0] and np.array_equal(again[1].grad_m, first[1].grad_m)
    assert np.array_equal(again[1].grad_y, first[1].grad_y)
    assert peak <= 8 * gauss_array
