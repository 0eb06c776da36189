import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hclab import cellproblems as cp, energies, materials, microgeometry as mg, slgeometry as sg
from hclab.fields import DeformationField, Grid, PlasticField


@pytest.fixture(scope="module")
def cell():
    return mg.builtin_cell("block4")


@pytest.fixture(scope="module")
def convex_soft():
    return materials.default_material(dim=2).W_soft_limit


@pytest.fixture(scope="module")
def twowell_soft():
    return materials.default_material(dim=2, soft="twowell").W_soft_limit


def _sample_G(rng, radius=0.2):
    c = rng.standard_normal(3)
    c *= radius * rng.random() / np.linalg.norm(c)
    return sg.exp_batch(sg.coeffs_to_matrices(c, 2))


def test_zero_value_at_zero_for_norm_square(cell, convex_soft):
    # |F|^2 soft density: the quasiconvexified value at F = 0 vanishes
    rng = np.random.default_rng(0)
    for _ in range(5):
        G = np.linalg.inv(_sample_G(rng, 0.3))
        res = cp.qprime_W0(cell, convex_soft, np.zeros((2, 2)), G, resolution=8)
        assert abs(res.value) <= 1e-6 * (1.0 + np.sum(G * G))


def test_convex_value_is_exact(cell, convex_soft):
    # Jensen: zero corrector optimal, cell value = W0(F G) exactly
    rng = np.random.default_rng(1)
    for _ in range(6):
        F = 0.6 * rng.standard_normal((2, 2))
        G = _sample_G(rng)
        ref = float(convex_soft.value(F @ G))
        for form in ("over_Q", "over_Q0"):
            res = cp.qprime_W0(cell, convex_soft, F, G, resolution=8, formulation=form)
            assert res.value == pytest.approx(ref, rel=1e-12, abs=1e-14)
            assert res.converged


def test_formulation_agreement(cell, convex_soft):
    rng = np.random.default_rng(2)
    for _ in range(6):
        F = 0.5 * rng.standard_normal((2, 2))
        G = _sample_G(rng)
        a = cp.qprime_W0(cell, convex_soft, F, G, resolution=8, formulation="over_Q", tol=1e-8)
        b = cp.qprime_W0(cell, convex_soft, F, G, resolution=8, formulation="over_Q0", tol=1e-8)
        assert abs(a.value - b.value) <= 2e-8


def _lamination_oracle_two_well(amplitude, delta):
    """Single-laminate upper bound at F = 0 for wells at +-a e1 x e1: mix the
    rank-one states +-s A and minimize over the amplitude fraction s."""
    s = np.linspace(0.0, 1.5, 20001)
    vals = ((1.0 - s) ** 2 + delta * s**2) * amplitude**2
    return float(vals.min())


def test_two_well_relaxation_bracketed(cell, twowell_soft):
    W0_at_zero = float(twowell_soft.value(np.zeros((2, 2))))
    env = _lamination_oracle_two_well(0.8, 0.1)
    res = cp.qprime_W0(cell, twowell_soft, np.zeros((2, 2)), np.eye(2),
                       resolution=16, formulation="over_Q0", restarts=3, seed=0)
    assert env - 1e-9 <= res.value < W0_at_zero
    # strictly below the unrelaxed density: the solver found a mixture
    assert res.value < 0.75 * W0_at_zero


def test_growth_sandwich(cell, convex_soft, twowell_soft):
    rng = np.random.default_rng(3)
    cases = [(convex_soft, 1.0, 4.0, 10), (twowell_soft, 0.1, 4.56, 4)]
    for W0, c1, c2, count in cases:
        for _ in range(count):
            F = 0.7 * rng.standard_normal((2, 2))
            G = _sample_G(rng)
            res = cp.qprime_W0(cell, W0, F, G, resolution=8, restarts=2, seed=1)
            fg2 = float(np.sum((F @ G) ** 2))
            tol = 1e-6 * (1.0 + fg2)
            assert res.value >= c1 * fg2 - tol
            assert res.value <= c2 * (fg2 + 1.0) + tol


def test_lipschitz_in_F(cell, convex_soft):
    rng = np.random.default_rng(4)
    G = _sample_G(rng)
    cG = float(np.linalg.norm(G, 2)) ** 2 * 4.0 + 4.0
    for _ in range(8):
        F1 = 0.6 * rng.standard_normal((2, 2))
        F2 = F1 + 0.3 * rng.standard_normal((2, 2))
        v1 = cp.qprime_W0(cell, convex_soft, F1, G, resolution=8).value
        v2 = cp.qprime_W0(cell, convex_soft, F2, G, resolution=8).value
        bound = cG * (1.0 + np.linalg.norm(F1) + np.linalg.norm(F2)) * np.linalg.norm(F1 - F2)
        assert abs(v1 - v2) <= bound + 2e-8


def test_continuity_in_G(cell, convex_soft):
    rng = np.random.default_rng(5)
    F = 0.4 * rng.standard_normal((2, 2))
    G = _sample_G(rng)
    vals = []
    for t in (0.1, 0.01, 0.001, 0.0):
        Gk = G + t * np.eye(2)
        vals.append(cp.qprime_W0(cell, convex_soft, F, Gk, resolution=8).value)
    diffs = [abs(v - vals[-1]) for v in vals[:-1]]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-2


def test_pointwise_equals_joint_two_cell_brute_force(cell, twowell_soft):
    """Piecewise-constant (V, P) on two half-domains: the joint minimization
    over x-parameterized correctors equals the integral of the pointwise cell
    values.  Checked both ways: the stacked pointwise minimizers realize the
    pointwise value in the joint functional, and no joint descent from
    independent starts goes below it."""
    rng = np.random.default_rng(6)
    data = [(0.3 * rng.standard_normal((2, 2)), _sample_G(rng)) for _ in range(2)]
    solves = [cp.qprime_W0(cell, twowell_soft, V, G, resolution=8, seed=0) for V, G in data]
    sep = 0.5 * (solves[0].value + solves[1].value)

    import scipy.optimize

    grid = Grid(2, 8)
    soft = cp._refined_mask(cell, 8).reshape(-1)
    from hclab.fields import node_incidence_masks

    free, _ = node_incidence_masks(2, 8, soft)
    nfree = int(free.sum())
    vol = float(cell.vol_soft)
    free_dof = np.repeat(free, 2)

    def half_energy_grad(x, V, G):
        v = np.zeros((grid.n_nodes, 2))
        v.reshape(-1)[free_dof] = x
        e, g = cp._energy_grad_of(grid, soft, v, twowell_soft, G, V)
        return e / vol, g.reshape(-1)[free_dof] / vol

    def joint(x):
        e1, g1 = half_energy_grad(x[:nfree * 2], *data[0])
        e2, g2 = half_energy_grad(x[nfree * 2:], *data[1])
        return 0.5 * (e1 + e2), 0.5 * np.concatenate([g1, g2])

    stacked = np.concatenate([s.minimizer.reshape(-1)[free_dof] for s in solves])
    val_at_stacked, _ = joint(stacked)
    assert val_at_stacked == pytest.approx(sep, rel=1e-12)

    rng2 = np.random.default_rng(0)
    for k in range(3):
        x0 = np.zeros(4 * nfree) if k == 0 else 0.1 * rng2.standard_normal(4 * nfree)
        res = scipy.optimize.minimize(joint, x0, jac=True, method="CG",
                                      options={"maxiter": 500, "gtol": 1e-8})
        assert res.fun >= sep - 1e-8


def test_multicell_homogeneous_equals_density():
    cell0 = mg.builtin_cell("stiff4")
    stiff = materials.StiffDensity(1.0)
    rng = np.random.default_rng(7)
    F = 0.4 * rng.standard_normal((2, 2))
    res = cp.multicell_W1hom(cell0, stiff, F, np.eye(2), lambdas=(1, 2), resolution=8)
    for lam, r in res.per_lambda.items():
        assert r.value == pytest.approx(float(stiff.value(F)), rel=1e-12)


def test_multicell_subadditive_and_normalized(cell):
    stiff = materials.StiffDensity(1.0)
    rng = np.random.default_rng(8)
    for _ in range(4):
        F = 0.4 * rng.standard_normal((2, 2))
        G = _sample_G(rng)
        res = cp.multicell_W1hom(cell, stiff, F, G, lambdas=(1, 2), resolution=8)
        assert res.per_lambda[2].value <= res.per_lambda[1].value + 1e-8
        assert res.estimate == res.per_lambda[2].value
        assert res.per_lambda[1].value >= 0.0


def test_effective_tensor_full_cell_norm_square():
    # full cell, W1 = |F|^2: the quadratic form is the identity, no affine part
    cell0 = mg.builtin_cell("stiff4")
    stiff = materials.StiffDensity(0.0)
    tensor = cp.effective_quadratic_tensor(cell0, stiff, np.eye(2), resolution=4)
    rng = np.random.default_rng(9)
    F = rng.standard_normal((2, 2))
    assert float(tensor.evaluate(F)) == pytest.approx(float(np.sum(F * F)), abs=1e-10)
    assert np.abs(tensor.b).max() < 1e-10
    assert abs(tensor.c) < 1e-12


def test_effective_tensor_symmetry_and_agreement(cell):
    stiff = materials.StiffDensity(1.0)
    rng = np.random.default_rng(10)
    G = _sample_G(rng)
    tensor = cp.effective_quadratic_tensor(cell, stiff, G, resolution=8)
    assert np.abs(tensor.A - tensor.A.T).max() < 1e-10
    for _ in range(10):
        F = 0.5 * rng.standard_normal((2, 2))
        direct = cp.multicell_W1hom(cell, stiff, F, G, lambdas=(1,), resolution=8)
        assert float(tensor.evaluate(F)) == pytest.approx(direct.per_lambda[1].value, abs=1e-8)


def test_effective_tensor_symmetry_and_agreement_3d():
    cell3 = mg.builtin_cell("fiber3d")
    stiff = materials.StiffDensity(1.0)
    rng = np.random.default_rng(13)
    for _ in range(2):
        c = rng.standard_normal(8)
        c *= 0.3 * rng.random() / np.linalg.norm(c)  # G in the K ball of radius 0.3
        G = sg.exp_batch(sg.coeffs_to_matrices(c, 3))
        tensor = cp.effective_quadratic_tensor(cell3, stiff, G, resolution=8)
        assert np.abs(tensor.A - tensor.A.T).max() < 1e-10
        for _ in range(2):
            F = 0.5 * rng.standard_normal((3, 3))
            direct = cp.multicell_W1hom(cell3, stiff, F, G, lambdas=(1,), resolution=8)
            assert float(tensor.evaluate(F)) == pytest.approx(direct.per_lambda[1].value, abs=1e-8)


def test_singular_G_rejected(cell, convex_soft):
    with pytest.raises(cp.SingularG):
        cp.qprime_W0(cell, convex_soft, np.zeros((2, 2)), np.zeros((2, 2)), resolution=8)
    with pytest.raises(cp.SingularG):
        cp.multicell_W1hom(cell, materials.StiffDensity(), np.zeros((2, 2)), np.zeros((2, 2)), resolution=8)


def test_resolution_must_refine_mask(cell, convex_soft):
    with pytest.raises(cp.CellProblemError):
        cp.qprime_W0(cell, convex_soft, np.zeros((2, 2)), np.eye(2), resolution=6)


def test_cache_determinism_and_quantization(cell):
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(step=1e-2, resolution=8)
    rng = np.random.default_rng(11)
    G = _sample_G(rng, 0.25)
    keys, inverse = cache.quantize(np.stack([G, G + 1e-4 * np.eye(2)]))
    assert len(keys) == 1 and list(inverse) == [0, 0]  # one lattice cell, one key
    key = keys[0]
    Gq = cache.reconstruct(key, 2)
    # reconstruction is within half a quantization step in log coordinates
    delta = sg.matrices_to_coeffs(sg.log_batch(G)) - sg.matrices_to_coeffs(sg.log_batch(Gq))
    assert np.abs(delta).max() <= 0.5 * cache.step + 1e-12
    r1 = cache.qprime(cell, model.W_soft_limit, key)
    assert cache.qprime(cell, model.W_soft_limit, key) is r1  # cached, bit-identical
    t1 = cache.w1_tensor(cell, model.W_stiff, key)
    assert cache.w1_tensor(cell, model.W_stiff, key) is t1
    # the soft lookup of a key is QW0(0, G^{-1}) at the G of the key
    twowell = materials.default_material(dim=2, soft="twowell").W_soft_limit
    key = (15, 10, 5)
    Ginv = np.linalg.inv(cache.reconstruct(key, 2))
    expected = cp.qprime_W0(cell, twowell, np.zeros((2, 2)), Ginv, resolution=8).value
    fresh = cp.HomDensityCache(step=1e-2, resolution=8)
    assert fresh.qprime(cell, twowell, key).value == pytest.approx(expected, rel=1e-9)


def test_cache_entries_are_per_cell_and_density(cell, convex_soft, twowell_soft):
    """One cache serving two cells, or two soft densities, returns each its own values."""
    stiff = materials.StiffDensity(1.0)
    cache = cp.HomDensityCache(step=1e-2, resolution=8)
    key = (0, 0, 0)
    full = cache.w1_tensor(mg.builtin_cell("stiff4"), stiff, key)
    assert full.c == pytest.approx(2.0, rel=1e-12)  # W1(0) on the full cell
    block = cache.w1_tensor(cell, stiff, key)
    assert block.c == pytest.approx(cp.effective_quadratic_tensor(cell, stiff, np.eye(2), resolution=8).c,
                                    rel=1e-12)
    assert block.c < 1.9
    assert cache.qprime(cell, convex_soft, key).value == pytest.approx(0.0, abs=1e-12)
    twowell = cache.qprime(cell, twowell_soft, key).value
    assert twowell == pytest.approx(
        cp.qprime_W0(cell, twowell_soft, np.zeros((2, 2)), np.eye(2), resolution=8).value, rel=1e-9)
    assert twowell > 0.1
    # the model hands out one soft limit density, so its lookups hit
    model = materials.default_material(dim=2)
    assert model.W_soft_limit is model.W_soft_limit


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_cache_keys_round_trip_near_identity(dim, data):
    """Re-quantizing a lattice point returns its key, and its inverse has key
    -key, for |key| step <= 0.45.  Within that radius the key lookups of the
    limit functional hit the same cache entries as quantizing G would."""
    cache = cp.HomDensityCache(step=1e-2)
    k = np.array(data.draw(st.lists(st.integers(-45, 45), min_size=dim * dim - 1, max_size=dim * dim - 1)))
    k = np.trunc(k * min(1.0, 45.0 / max(np.linalg.norm(k), 1.0)))  # |k| <= 45, so |k| step <= 0.45
    key = tuple(int(i) for i in k)
    Gq = cache.reconstruct(key, dim)
    assert cache.quantize(Gq[None])[0] == [key]
    assert cache.quantize(np.linalg.inv(Gq)[None])[0] == [tuple(-i for i in key)]


def test_limit_hardening_parts(cell):
    """At y = 0 and constant P the limit functional books |Q0| H and |Q1| H."""
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=4)
    grid = Grid(2, 4)
    coeffs = np.array([0.1, 0.05, 0.0])
    P = PlasticField(grid, np.tile(coeffs, (grid.n_nodes, 1)), model.K_radius)
    bd = cp.assemble_J_limit(cell, model, DeformationField.zero(grid), P, cache)
    soft, stiff = bd.hardening_soft, bd.hardening_stiff
    H = model.h0 + model.h1 * float(np.sum(sg.coeffs_to_matrices(coeffs, 2) ** 2))
    assert soft == pytest.approx(float(cell.vol_soft) * H, rel=1e-12)
    assert stiff == pytest.approx(float(cell.vol_stiff) * H, rel=1e-12)
    assert soft + stiff == pytest.approx(H, rel=1e-12)


def test_assemble_J_limit_convex_default(cell):
    """Convex soft density: the soft elastic part of the limit vanishes, so
    J0 reduces to the soft hardening fraction."""
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=4)
    grid = Grid(2, 4)
    y = DeformationField.zero(grid)
    rng = np.random.default_rng(12)
    P = PlasticField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)
    bd = cp.assemble_J_limit(cell, model, y, P, cache)
    assert bd.soft_elastic == pytest.approx(0.0, abs=1e-12)
    assert bd.hardening_soft > 0.0
    # bitwise determinism of cache-backed assembly
    bd2 = cp.assemble_J_limit(cell, model, y, P, cache)
    assert bd2 == bd


def test_assemble_J_limit_rejects_non_quadratic_stiff_density(cell, twowell_soft):
    model = dataclasses.replace(materials.default_material(dim=2), W_stiff=twowell_soft)
    cache = cp.HomDensityCache(resolution=4)
    grid = Grid(2, 4)
    y = DeformationField.zero(grid)
    P = PlasticField.identity(grid, model.K_radius)
    with pytest.raises(cp.CellProblemError):
        cp.assemble_J_limit(cell, model, y, P, cache)


def test_assemble_J_limit_no_perforation():
    cell0 = mg.builtin_cell("stiff4")
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=4)
    grid = Grid(2, 4)
    y = DeformationField.zero(grid)
    P = PlasticField.identity(grid, model.K_radius)
    bd = cp.assemble_J_limit(cell0, model, y, P, cache)
    # W_hom(0, I) = W1(0) for the homogeneous convex medium
    assert bd.stiff_elastic == pytest.approx(float(model.W_stiff.value(np.zeros((2, 2)))), rel=1e-12)
    assert bd.total == pytest.approx(2.0 + model.h0, rel=1e-12)


def test_limit_gradient_matches_composite_on_stiff_cell():
    """Independent oracle for the limit P-gradient.  Without inclusions the
    cell tensor is W1(F G^{-1}) exactly, so on build_micro_domain(stiff4, 2),
    whose grid is the 8-element macro grid, J_eps and J_limit are the same
    functional wherever the quantized G is P itself.  A constant P on a
    lattice point of the density cache is such a state; there the limit
    gradient's central differences across one lattice step are centered and
    agree with the analytic J_eps gradient to O(step^2)."""
    cell = mg.builtin_cell("stiff4")
    domain = mg.build_micro_domain(cell, 2)
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=4)
    grid = Grid(2, 8)
    assert domain.grid.n_el == grid.n_el and not domain.soft_field.any()
    rng = np.random.default_rng(0)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 2)))
    key = rng.integers(-12, 13, size=3)
    P = PlasticField(grid, np.tile(cache.step * key, (grid.n_nodes, 1)), model.K_radius)
    assert np.array_equal(P.coeffs[0], cache.step * key)  # inside the K ball, not projected

    bd, grad_m = cp.value_and_grad_J_limit(cell, model, y, P, cache)
    assert bd == cp.assemble_J_limit(cell, model, y, P, cache)
    bd_eps, g_eps = energies.value_and_grad_J_eps(domain, model, DeformationField(domain.grid, y.values),
                                                  PlasticField(domain.grid, P.coeffs, model.K_radius))
    assert bd.total == pytest.approx(bd_eps.total, rel=1e-12)
    assert np.linalg.norm(grad_m - g_eps.grad_m) <= 1e-3 * np.linalg.norm(g_eps.grad_m)


@pytest.mark.parametrize("cell_name", ["block4", "fiber3d"])
def test_limit_pass_gradient_bit_identical_to_value_and_grad(cell_name):
    """A JLimitPass whose gradient is finished after a later pass was
    assembled gives value_and_grad_J_limit bit for bit at y != 0, P != I, and
    each pass, its gradient included, takes one principal log of its Gauss
    matrices."""
    cell = mg.builtin_cell(cell_name)
    dim = cell.dim
    model = materials.default_material(dim=dim)
    cache = cp.HomDensityCache(step=0.05, resolution=8)
    grid = Grid(dim, 4 if dim == 2 else 2)
    rng = np.random.default_rng(17)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, dim)))
    Ps = [PlasticField(grid, 0.03 * rng.standard_normal((grid.n_nodes, dim * dim - 1)), model.K_radius)
          for _ in range(2)]
    logs = []
    log_batch = sg.log_batch

    def counted(P):
        logs.append(len(P))
        return log_batch(P)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "log_batch", counted)
        points = [cp.JLimitPass(cell, model, y, P, cache) for P in Ps]
        grads = [point.grad_m() for point in points]
    assert logs == [grid.n_elements * grid.n_gauss] * 2
    for P, point, grad_m in zip(Ps, points, grads):
        bd, g = cp.value_and_grad_J_limit(cell, model, y, P, cache)
        assert point.breakdown == bd
        assert np.array_equal(grad_m, g)
        assert np.abs(g).max() > 0.0
