import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hclab import cellproblems as cp, energies, lab, materials, microgeometry as mg, minimize as mz, slgeometry as sg
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


def test_stiff_cell_densities_reject_a_non_quadratic_density(cell, twowell_soft):
    """Both stiff-density solvers are banded direct solves of a quadratic W1."""
    with pytest.raises(cp.CellProblemError, match="quadratic"):
        cp.multicell_W1hom(cell, twowell_soft, np.zeros((2, 2)), np.eye(2), resolution=4)
    with pytest.raises(cp.CellProblemError, match="quadratic"):
        cp.effective_quadratic_tensor(cell, twowell_soft, np.eye(2), resolution=4)


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


@pytest.mark.parametrize("name, resolution", [("block4", 8), ("fiber3d", 4)])
def test_stacked_tensors_and_slopes_match_per_key_lookups(name, resolution):
    """``w1_tensors`` and a ``FixedYLimit``'s stiff rows evaluate every Gauss
    point bit for bit as its key's own tensor does, and the slopes from the
    rows of the keys one lattice step above and below are the per-key
    central differences."""
    cell = mg.builtin_cell(name)
    d = cell.dim
    model = materials.default_material(dim=d)
    stiff = model.W_stiff
    cache = cp.HomDensityCache(step=0.05, resolution=resolution)
    grid = Grid(d, 2 if d == 2 else 1)
    rng = np.random.default_rng(17)
    y = DeformationField(grid, 0.3 * rng.standard_normal((grid.n_nodes, d)))
    fixed = cp.FixedYLimit(cell, model, y, cache)
    n = len(fixed.Gy)
    assert n == grid.n_elements * grid.n_gauss
    n_coeffs = d * d - 1
    logs = sg.coeffs_to_matrices(0.1 * rng.standard_normal((3, n_coeffs))[rng.integers(0, 3, n)], d)
    keys, inverse = cache.quantize(sg.exp_batch(logs))
    assert 1 < len(keys) < n
    stacked = cache.w1_tensors(cell, stiff, keys, inverse).evaluate(fixed.Gy)
    single = np.array([cache.w1_tensor(cell, stiff, keys[u]).evaluate(fixed.Gy[p]) for p, u in enumerate(inverse)])
    assert stacked.tobytes() == single.tobytes()
    assert fixed.stiff(keys, inverse).tobytes() == single.tobytes()
    shifts = np.eye(n_coeffs, dtype=np.int64)
    slopes = np.array([fixed.stiff((np.array(keys) + s).tolist(), inverse)
                       - fixed.stiff((np.array(keys) - s).tolist(), inverse) for s in shifts]) / (2.0 * cache.step)
    assert slopes.shape == (n_coeffs, n)
    for p, u in enumerate(inverse):
        for i in range(n_coeffs):
            up = cache.w1_tensor(cell, stiff, tuple(k + (j == i) for j, k in enumerate(keys[u])))
            down = cache.w1_tensor(cell, stiff, tuple(k - (j == i) for j, k in enumerate(keys[u])))
            expected = (up.evaluate(fixed.Gy[p]) - down.evaluate(fixed.Gy[p])) / (2.0 * cache.step)
            assert slopes[i, p] == expected


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


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([2, 3]), bound=st.sampled_from([3, 60, 10**6]), data=st.data())
def test_quantize_keys_match_lexicographic_unique(dim, bound, data):
    """``quantize_logs`` gives the keys and inverse of np.unique(axis=0) on the
    integer lattice rows, negative entries, repeated rows and single rows
    included.  At bound 10**6 the column spans overflow one int64 radix code
    in 2D and 3D, so the codes are ranked on the way."""
    n = dim * dim - 1
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    pool = data.draw(st.lists(row, min_size=1, max_size=6))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    ints = np.array([pool[i] for i in picks])
    cache = cp.HomDensityCache(step=1e-2)
    keys, inverse = cache.quantize_logs(sg.coeffs_to_matrices(ints * cache.step, dim))
    uniq, expected = np.unique(ints, axis=0, return_inverse=True)
    assert keys == [tuple(int(i) for i in key) for key in uniq]
    assert np.array_equal(inverse, expected.reshape(-1))


def _unimodular(rng, dim, radius=0.3):
    c = rng.standard_normal(dim * dim - 1)
    c *= radius * (0.5 + 0.5 * rng.random()) / np.linalg.norm(c)
    return sg.exp_batch(sg.coeffs_to_matrices(c, dim))


def _direct_corrector(window, density, R):
    """(K, Y) of the corrector system from the assembled stiffness: element
    blocks of C = R R^T, ``Grid.stiffness``, the free-node slice and a sparse
    direct solve, independent of the window's operator basis."""
    grid, active, free = window.grid, window.active, window.free
    d = grid.dim
    a, _, _ = density.isotropic_quad_parts(d)
    C = R @ R.T
    wq = grid.gauss_weight * grid.h**d
    block = 2.0 * a * wq * np.einsum("gnk,kl,gml->nm", grid.dN_gauss, C, grid.dN_gauss)
    n_active = int(np.count_nonzero(active))
    K = grid.stiffness(np.broadcast_to(block, (n_active,) + block.shape), element_mask=active)
    K = K[free][:, free].tocsc()
    return K, scipy.sparse.linalg.spsolve(K, window.grad_phi)


@pytest.mark.parametrize("name, resolution", [("block4", 32), ("fiber3d", 8)])
def test_effective_tensor_matches_direct_sparse_solve(name, resolution):
    cell = mg.builtin_cell(name)
    d = cell.dim
    stiff = materials.StiffDensity(1.0)
    a, L, k = stiff.isotropic_quad_parts(d)
    window = cp._stiff_window(cell, resolution, 1)
    vol = np.count_nonzero(window.active) * window.grid.h**d
    rng = np.random.default_rng(17)
    for _ in range(3):
        G = _unimodular(rng, d)
        R = np.linalg.inv(G)
        C, M = R @ R.T, L @ R.T
        _, Y = _direct_corrector(window, stiff, R)
        Q = window.grad_phi.T @ Y
        A = vol * a * C - 2.0 * a * a * (C @ Q @ C)
        b = vol * M - 2.0 * a * (M @ Q @ C)
        c = vol * k - 0.5 * np.trace(M @ Q @ M.T)
        tensor = cp.effective_quadratic_tensor(cell, stiff, G, resolution=resolution)
        assert np.abs(tensor.A - A).max() <= 1e-12 * np.abs(A).max()
        assert np.abs(tensor.b - b).max() <= 1e-12 * np.abs(b).max()
        assert abs(tensor.c - c) <= 1e-12 * abs(c)


def test_qprime_residual_matches_direct_sparse_solve(cell, convex_soft):
    """The quadratic soft solve over Q0 returns the corrector of the direct
    solve, and its residual is the residual of the assembled system."""
    window = cp._soft_window(cell, 32, "over_Q0")
    rng = np.random.default_rng(19)
    G = _unimodular(rng, 2)
    F = rng.standard_normal((2, 2))
    res = cp.qprime_W0(cell, convex_soft, F, G, resolution=32, formulation="over_Q0")
    K, Y = _direct_corrector(window, convex_soft, G)  # the soft density is evaluated at X G
    D = convex_soft.grad(F @ G) @ G.T
    sol = res.minimizer[window.free]
    assert np.abs(sol + Y @ D.T).max() <= 1e-12 * np.abs(Y @ D.T).max()
    scale = np.linalg.norm(window.grad_phi @ D.T)
    direct = np.linalg.norm(K @ sol + window.grad_phi @ D.T)
    assert res.residual <= 1e-13 * scale and direct <= 1e-13 * scale
    assert res.residual == pytest.approx(direct, rel=0.5, abs=1e-15 * scale)
    assert res.converged and np.count_nonzero(res.minimizer[~window.free]) == 0


@pytest.mark.parametrize("name, resolution", [("block4", 16), ("fiber3d", 4)])
def test_tensor_sensitivity_matches_central_differences(name, resolution):
    """dQ/dC_kl = -2a Y^T K^{kl} Y from the window's operator basis (the
    sensitivity of homogenized coefficients), against central differences of
    Q = grad_phi^T K(C)^{-1} grad_phi along symmetric directions of C."""
    cell = mg.builtin_cell(name)
    d = cell.dim
    stiff = materials.StiffDensity(1.0)
    a, _, _ = stiff.isotropic_quad_parts(d)
    window = cp._stiff_window(cell, resolution, 1)

    def Q(C):
        _, Y = cp._quadratic_corrector(window, stiff, np.linalg.cholesky(C))  # any R with R R^T = C
        return window.grad_phi.T @ Y

    rng = np.random.default_rng(23)
    R = np.linalg.inv(_unimodular(rng, d))
    C = R @ R.T
    _, Y = cp._quadratic_corrector(window, stiff, R)
    t = 1e-5
    exact, central = [], []
    for band, (k, l) in zip(window.operators, cp._pairs(d)):
        exact.append(-2.0 * a * Y.T @ cp._band_matvec(band, Y))
        E = np.zeros((d, d))
        E[k, l] = E[l, k] = 1.0
        central.append((Q(C + t * E) - Q(C - t * E)) / (2.0 * t))
    exact, central = np.array(exact), np.array(central)
    assert np.abs(exact).max() > 1e-3
    assert np.abs(central - exact).max() <= 1e-7 * np.abs(exact).max()


@pytest.mark.parametrize("name, resolution", [("block4", 16), ("fiber3d", 4)])
@pytest.mark.parametrize("problem", ["over_Q0", "over_Q", "multicell"])
def test_closed_form_cell_energy_matches_full_grid_energy(name, resolution, problem):
    """The quadratic path's energy vol W(F R) - 1/2 tr(D Q D^T) equals the
    energy of its corrector integrated over the active elements' Gauss
    points, for the soft problems and both multi-cell windows."""
    cell = mg.builtin_cell(name)
    d = cell.dim
    model = materials.default_material(dim=d)
    rng = np.random.default_rng(31)
    F = 0.5 * rng.standard_normal((d, d))
    G = _unimodular(rng, d)
    if problem == "multicell":
        R = np.linalg.inv(G)
        res = cp.multicell_W1hom(cell, model.W_stiff, F, G, lambdas=(1, 2), resolution=resolution)
        cases = [(cp._stiff_window(cell, resolution, lam), model.W_stiff, r) for lam, r in res.per_lambda.items()]
    else:
        R = G
        res = cp.qprime_W0(cell, model.W_soft_limit, F, G, resolution=resolution, formulation=problem)
        cases = [(cp._soft_window(cell, resolution, problem), model.W_soft_limit, res)]
    for window, density, r in cases:
        full, _ = cp._energy_grad_of(window.grid, window.active, r.minimizer, density, R, F)
        assert r.value * window.norm == pytest.approx(full, rel=1e-12)


def test_tensor_reuses_the_read_only_window_basis(cell, monkeypatch):
    """A second tensor on the same window refills values only: it reuses the
    window's arrays, assembles no stiffness, and cannot write to them."""
    stiff = materials.StiffDensity(1.0)
    rng = np.random.default_rng(29)
    seen = []
    corrector = cp._quadratic_corrector
    monkeypatch.setattr(cp, "_quadratic_corrector", lambda window, *args: seen.append(window) or
                        corrector(window, *args))
    cp.effective_quadratic_tensor(cell, stiff, _unimodular(rng, 2), resolution=16)
    monkeypatch.setattr(Grid, "stiffness", lambda *args, **kwargs: pytest.fail("stiffness re-assembled"))
    cp.effective_quadratic_tensor(cell, stiff, _unimodular(rng, 2), resolution=16)
    first, second = seen
    assert second is first is cp._stiff_window(cell, 16, 1)
    for arr in (first.active, first.free, first.operators, first.grad_phi):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]


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
    y.values[grid.boundary_node_mask()] = 0.0
    key = rng.integers(-12, 13, size=3)
    P = PlasticField(grid, np.tile(cache.step * key, (grid.n_nodes, 1)), model.K_radius)
    assert np.array_equal(P.coeffs[0], cache.step * key)  # inside the K ball, not projected

    point = cp.JLimitBlock(cp.FixedYLimit(cell, model, y, cache), [P])
    bd, grad_m = point.breakdowns[0], point.grad_m(0)
    assert bd == cp.assemble_J_limit(cell, model, y, P, cache)
    bd_eps, g_eps = energies.value_and_grad_J_eps(domain, model, DeformationField(domain.grid, y.values),
                                                  PlasticField(domain.grid, P.coeffs, model.K_radius))
    assert bd.total == pytest.approx(bd_eps.total, rel=1e-12)
    assert np.linalg.norm(grad_m - g_eps.grad_m) <= 1e-3 * np.linalg.norm(g_eps.grad_m)


@pytest.mark.parametrize("cell_name", ["block4", "fiber3d"])
def test_limit_pass_gradient_bit_identical_to_fresh_pass(cell_name):
    """A block of one whose gradient is finished after a later block was
    assembled gives a fresh block's energy and gradient bit for bit at
    y != 0, P != I, and each block, its gradient included, calls log_batch
    once, on its (E, g) Gauss matrices."""
    cell = mg.builtin_cell(cell_name)
    dim = cell.dim
    model = materials.default_material(dim=dim)
    cache = cp.HomDensityCache(step=0.05, resolution=8)
    grid = Grid(dim, 4 if dim == 2 else 2)
    rng = np.random.default_rng(17)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, dim)))
    y.values[grid.boundary_node_mask()] = 0.0
    Ps = [PlasticField(grid, 0.03 * rng.standard_normal((grid.n_nodes, dim * dim - 1)), model.K_radius)
          for _ in range(2)]
    logs = []
    log_batch = sg.log_batch

    def counted(P):
        logs.append(P.shape[:-2])
        return log_batch(P)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "log_batch", counted)
        points = [cp.JLimitBlock(cp.FixedYLimit(cell, model, y, cache), [P]) for P in Ps]
        grads = [point.grad_m(0) for point in points]
    assert logs == [(grid.n_elements, grid.n_gauss)] * 2
    for P, point, grad_m in zip(Ps, points, grads):
        fresh = cp.JLimitBlock(cp.FixedYLimit(cell, model, y, cache), [P])
        bd, g = fresh.breakdowns[0], fresh.grad_m(0)
        assert point.breakdowns[0] == bd
        assert np.array_equal(grad_m, g)
        assert np.abs(g).max() > 0.0


def test_limit_solve_keys_through_the_public_log():
    """Over one cold 2D ``minimize_J_limit`` solve, the matrices handed to the
    module attribute ``slgeometry.log_batch``, the kernel that perfbench's
    span wrappers count, include every Gauss matrix a ``JLimitBlock`` keys
    on, those of the trials that the line search never consumes included."""
    cell = mg.builtin_cell("block4")
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=8)
    grid = Grid(2, 8)
    P0 = lab._smooth_plastic(grid, model.K_radius)
    logged, blocks = set(), []
    log_batch, init = sg.log_batch, cp.JLimitBlock.__init__

    def counted(P):
        logged.update(m.tobytes() for m in P.reshape(-1, 2, 2))
        return log_batch(P)

    def recorded(self, *args):
        init(self, *args)
        blocks.append(self.Pg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "log_batch", counted)
        mp.setattr(cp.JLimitBlock, "__init__", recorded)
        mz.minimize_J_limit(cell, model, init=(DeformationField.zero(grid), P0), cache=cache)
    keyed = {m.tobytes() for Pg in blocks for m in Pg.reshape(-1, 2, 2)}
    assert len(blocks) > 10 and len(keyed) > 10 * grid.n_elements * grid.n_gauss
    assert keyed <= logged


def test_fixed_y_limit_pass_bit_identical_to_plain_field_pass(cell):
    """A block of one on a FixedYLimit shared by several P, as a limit P-step
    makes them, gives the breakdown and grad_m of a block on a fresh
    FixedYLimit bit for bit, and its stiff energy is the stacked tensors' at grad y: at
    the start of the limit benchmark (8 x 8 macro grid, the lab's smooth
    plastic field, y = 0) and at random states with y != 0."""
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=8)
    grid = Grid(2, 8)
    rng = np.random.default_rng(19)
    y0 = DeformationField.zero(grid)
    start = lab._smooth_plastic(grid, model.K_radius)
    states = [(y0, start)]
    for _ in range(6):
        y = DeformationField(grid, 0.2 * rng.standard_normal((grid.n_nodes, 2)))
        scale = rng.uniform(0.005, 0.1)
        states.append((y, PlasticField(grid, scale * rng.standard_normal((grid.n_nodes, 3)), model.K_radius)))
    for y, P in states:
        fixed = cp.FixedYLimit(cell, model, y, cache)
        # rows filled by blocks at other P first, as the Armijo trials of a P-step fill them
        for other in (P.coeffs * 0.5, P.coeffs[::-1]):
            cp.JLimitBlock(fixed, [PlasticField(grid, other, model.K_radius)]).grad_m(0)
        shared = cp.JLimitBlock(fixed, [P])
        plain = cp.JLimitBlock(cp.FixedYLimit(cell, model, y, cache), [P])
        assert shared.breakdowns[0] == plain.breakdowns[0]
        assert shared.breakdowns[0] == cp.assemble_J_limit(cell, model, fixed, P, cache)
        assert np.array_equal(shared.grad_m(0), plain.grad_m(0))
        Gy = grid.gauss_gradients(y.values).reshape(-1, 2, 2)
        keys, inverse = shared.row_keys(0)
        stacked = cache.w1_tensors(cell, model.W_stiff, keys, inverse).evaluate(Gy)
        assert shared.breakdowns[0].stiff_elastic == grid.integrate(stacked)
    assert len(keys) > 20


def test_fixed_y_limit_belongs_to_one_cell_model_and_cache(cell):
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=8)
    grid = Grid(2, 2)
    y, P = DeformationField.zero(grid), PlasticField.identity(grid, r_K=model.K_radius)
    fixed = cp.FixedYLimit(cell, model, y, cache)
    for args in ((mg.builtin_cell("stiff4"), model, cache), (cell, materials.default_material(dim=2), cache),
                 (cell, model, cp.HomDensityCache(resolution=8))):
        with pytest.raises(cp.CellProblemError, match="another cell, model or cache"):
            cp.assemble_J_limit(args[0], args[1], fixed, P, args[2])


def test_quadratic_cell_solve_with_a_non_finite_value_is_not_converged(cell, convex_soft):
    """The quadratic branch reports converged only for a finite residual and
    energy; a finite F still converges.  ``multicell_W1hom`` reads the same
    flag for each window."""
    G = np.eye(2)
    assert cp.qprime_W0(cell, convex_soft, np.full((2, 2), 0.1), G, resolution=4).converged
    for bad in (np.nan, np.inf):
        F = np.array([[bad, 0.0], [0.0, 0.0]])
        with np.errstate(invalid="ignore", over="ignore"):
            res = cp.qprime_W0(cell, convex_soft, F, G, resolution=4)
        assert not np.isfinite(res.value) and not res.converged
    zero = np.zeros((2, 2))
    assert all(r.converged for r in cp.multicell_W1hom(cell, materials.StiffDensity(1.0), zero, G,
                                                       resolution=4).per_lambda.values())
    with np.errstate(invalid="ignore"):
        multi = cp.multicell_W1hom(cell, materials.StiffDensity(np.nan), zero, G, resolution=4)
    assert set(multi.per_lambda) == {1, 2}
    assert all(not np.isfinite(r.value) and not r.converged for r in multi.per_lambda.values())



def _single_field_pass(cell, model, y, P, cache):
    """The breakdown and lattice keys of the homogenized functional at
    (y, P) by the arithmetic of one field written out: the hardening at the
    interpolated log coordinates, |grad P|^2 by einsum on the gradients as
    ``Grid.gauss_gradients`` lays them out, the principal log of the Gauss
    values of P, their keys, and each key's cell tensor at grad y."""
    grid, d = P.grid, P.grid.dim
    hardening = model.hardening(sg.coeffs_to_matrices(grid.gauss_values(P.coeffs), d))
    Pn = P.matrices()
    gradP = grid.gauss_gradients(Pn)
    qn = np.einsum("egijk,egijk->eg", gradP, gradP)
    keys, inverse = cache.quantize_logs(sg.log_batch(grid.gauss_values(Pn)).reshape(-1, d, d))
    Gy = grid.gauss_gradients(y.values).reshape(-1, d, d)
    stiff = np.array([cache.w1_tensor(cell, model.W_stiff, key).evaluate(Gy) for key in keys])
    soft = np.array([cache.qprime(cell, model.W_soft_limit, key).value for key in keys])
    int_H = grid.integrate(hardening)
    vol_s, vol_t = float(cell.vol_soft), float(cell.vol_stiff)
    breakdown = energies.EnergyBreakdown.from_parts(
        soft_elastic=vol_s * grid.integrate(soft[inverse]),
        stiff_elastic=grid.integrate(stiff[inverse, np.arange(len(Gy))]),
        hardening_soft=vol_s * int_H, hardening_stiff=vol_t * int_H,
        grad_P_term=grid.integrate(qn ** (model.q / 2.0)))
    return breakdown, keys


def _assert_block_rows_are_single_passes(fixed, Ps):
    block = cp.JLimitBlock(fixed, Ps)
    for row, P in enumerate(Ps):
        breakdown, keys = _single_field_pass(fixed.cell, fixed.model, fixed.y, P, fixed.cache)
        point = cp.JLimitBlock(cp.FixedYLimit(fixed.cell, fixed.model, fixed.y, fixed.cache), [P])
        assert block.breakdowns[row] == point.breakdowns[0] == breakdown
        assert block.row_keys(row)[0] == keys
        assert np.array_equal(block.grad_m(row), point.grad_m(0))


def test_limit_block_rows_are_single_passes_along_recorded_ladders(cell, monkeypatch):
    """Each trial of each block that the first round's P-step asks for, from
    the limit benchmark's start (8 x 8 macro grid, the lab's smooth plastic
    field, y = 0), gets the breakdown and keys of the single-field arithmetic
    bit for bit, and the gradient of a fresh block of one.  The round's
    searches run through the staircase, so blocks hold up to 33 trials."""
    model = materials.default_material(dim=2)
    cache = cp.HomDensityCache(resolution=8)
    grid = Grid(2, 8)
    start = (DeformationField.zero(grid), lab._smooth_plastic(grid, model.K_radius))
    recorded = []
    block = cp.JLimitBlock

    def recording(fixed, Ps):
        recorded.append((fixed, Ps))
        return block(fixed, Ps)

    # assemble_J_limit's block of one, which values the start, is recorded and checked too
    monkeypatch.setattr(cp, "JLimitBlock", recording)
    mz.minimize_J_limit(cell, model, init=start, cache=cache, schedule=mz.Schedule(outer_iters=1))
    monkeypatch.undo()
    assert max(len(Ps) for _, Ps in recorded) > 16
    for fixed, Ps in recorded:
        _assert_block_rows_are_single_passes(fixed, Ps)


def test_limit_block_rows_are_single_passes_in_3d():
    """On fiber3d, a block of trials along one ladder from a random state
    (y != 0), whose rows lie at different distances from the identity, gives
    each row the single-field breakdown, keys and gradient bit for bit; the
    3D chart maps run row by row (``slgeometry.rowwise``)."""
    cell = mg.builtin_cell("fiber3d")
    model = materials.default_material(dim=3)
    cache = cp.HomDensityCache(step=0.05, resolution=8)
    grid = Grid(3, 2)
    rng = np.random.default_rng(23)
    y = DeformationField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)))
    y.values[grid.boundary_node_mask()] = 0.0
    m = 0.02 * rng.standard_normal((grid.n_nodes, 8))
    direction = 0.25 * rng.standard_normal((grid.n_nodes, 8))
    Ps = [PlasticField(grid, m - 0.5**i * direction, model.K_radius) for i in range(6)]
    _assert_block_rows_are_single_passes(cp.FixedYLimit(cell, model, y, cache), Ps)
