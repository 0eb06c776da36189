import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hclab import slgeometry as sg
from hclab.fields import (
    DeformationField,
    Grid,
    GridMismatch,
    PlasticField,
    eval_gradient,
    load_field,
    node_incidence_masks,
    plastic_gradient,
    prolong_deformation,
    prolong_plastic,
    save_field,
)


def test_linear_field_reproduced():
    grid = Grid(2, 8)
    A = np.array([[0.4, -0.3], [0.2, 0.1]])
    y = DeformationField(grid, grid.node_coords() @ A.T, bc="free")
    grads = eval_gradient(y)
    assert np.abs(grads - A).max() < 1e-13
    assert np.abs(eval_gradient(y, element=3, gauss_point=1) - A).max() < 1e-13


def test_constant_field_zero_gradient():
    grid = Grid(2, 4)
    y = DeformationField(grid, np.ones((grid.n_nodes, 2)), bc="free")
    assert np.abs(eval_gradient(y)).max() < 1e-14


def test_gradient_matches_interpolant_finite_differences():
    """Central differences of the interpolant itself are the oracle."""
    grid = Grid(2, 6)
    rng = np.random.default_rng(0)
    y = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)), bc="free")
    pts = rng.random((20, 2)) * 0.8 + 0.1
    h = 1e-6
    for p in pts:
        el = tuple(np.minimum((p / grid.h).astype(int), grid.n_el - 1))
        ref = p / grid.h - np.asarray(el)
        el_flat = el[0] * grid.n_el + el[1]
        g = grid.gradients_at_ref(y.values, el_flat, ref)
        for k in range(2):
            dp = p.copy()
            dp[k] += h
            dm = p.copy()
            dm[k] -= h
            fd = (grid.interpolate_at(y.values, dp[None]) - grid.interpolate_at(y.values, dm[None]))[0] / (2 * h)
            assert np.abs(g[:, k] - fd).max() < 1e-8


def test_plastic_gradient_constant_and_exp_profile():
    grid = Grid(2, 8)
    P = PlasticField.identity(grid, 0.3)
    assert np.abs(plastic_gradient(P)).max() < 1e-12

    # P(x) = exp(x1 M0): matrix-entry gradient matches the analytic derivative
    # of the one-parameter subgroup to O(h^2), checked by Richardson ratio.
    M0 = sg.coeffs_to_matrices(np.array([0.25, 0.1, 0.0]), 2)
    errs = []
    for n in (8, 16):
        g = Grid(2, n)
        coords = g.node_coords()
        coeffs = coords[:, 0][:, None] * np.array([0.25, 0.1, 0.0])[None, :]
        P = PlasticField(g, coeffs, r_K=0.3)
        el = (n // 2) * n + n // 2
        center = np.full(2, 0.5)
        got = plastic_gradient(P, element=el, ref_point=center)
        x = (np.array([el // n, el % n]) + center) * g.h
        analytic = np.zeros((2, 2, 2))
        analytic[:, :, 0] = M0 @ sg.exp_batch(x[0] * M0)
        errs.append(np.abs(got - analytic).max())
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.2  # O(h^2)


def test_qnorm_exact_for_constant_gradient():
    # a plastic field affine in its entries has constant grad; the q-norm
    # assembly integrates it exactly
    grid = Grid(2, 4)
    rng = np.random.default_rng(1)
    B = rng.standard_normal((2, 2, 2)) * 0.05
    nodes = grid.node_coords()
    mats = np.eye(2)[None] + np.einsum("ijk,pk->pij", B, nodes)
    gradP = np.einsum("enij,gnk->egijk", grid.gather(mats), grid.dN_gauss)
    qn = np.einsum("egijk,egijk->eg", gradP, gradP) ** 2
    got = grid.integrate(qn)
    exact = (np.sum(B * B)) ** 2
    assert got == pytest.approx(exact, rel=1e-12)


def test_gauss_rule_exact_for_quadratic_energy():
    """2^d Gauss points integrate |grad v|^2 of a multilinear v exactly; a
    9-point tensor rule is the oracle."""
    grid = Grid(2, 3)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((grid.n_nodes, 2))
    got = grid.grad_norm_sq(v)
    xs = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
    ws = np.array([5 / 18, 8 / 18, 5 / 18])
    ref_pts = np.array([[a, b] for a in xs for b in xs])
    ref_w = np.array([wa * wb for wa in ws for wb in ws])
    total = 0.0
    for e in range(grid.n_elements):
        dN = grid._shape_gradients(ref_pts) / grid.h
        g = np.einsum("nc,pnk->pck", v[grid.el_nodes[e]], dN)
        total += float(np.sum(ref_w * np.einsum("pck,pck->p", g, g))) * grid.h**2
    assert got == pytest.approx(total, rel=1e-13)


def test_plastic_projection_and_unimodularity():
    grid = Grid(2, 4)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((grid.n_nodes, 3))  # far outside the ball
    P = PlasticField(grid, coeffs, r_K=0.3)
    norms = np.linalg.norm(P.coeffs, axis=1)
    assert np.all(norms <= 0.3 + 1e-14)
    dets = np.linalg.det(P.matrices())
    assert np.abs(dets - 1.0).max() < 1e-9


def test_zero_trace_enforced():
    grid = Grid(2, 4)
    vals = np.ones((grid.n_nodes, 2))
    y = DeformationField(grid, vals, bc="zero")
    assert np.abs(y.values[grid.boundary_node_mask()]).max() == 0.0


def test_grid_mismatch_detected():
    grid = Grid(2, 4)
    with pytest.raises(GridMismatch):
        DeformationField(grid, np.zeros((10, 2)))
    with pytest.raises(GridMismatch):
        PlasticField(grid, np.zeros((grid.n_nodes, 5)), 0.3)


def test_snapshot_roundtrip(tmp_path):
    grid = Grid(2, 5)
    rng = np.random.default_rng(4)
    y = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)), bc="free")
    save_field(tmp_path / "y.snap", y)
    y2 = load_field(tmp_path / "y.snap")
    assert np.array_equal(y.values, y2.values)
    assert y2.bc == "free"
    P = PlasticField(grid, 0.1 * rng.standard_normal((grid.n_nodes, 3)), 0.3)
    save_field(tmp_path / "p.snap", P)
    P2 = load_field(tmp_path / "p.snap")
    assert np.array_equal(P.coeffs, P2.coeffs)
    assert P2.r_K == 0.3


def test_prolongation_exact_on_affine():
    coarse = Grid(2, 4)
    fine = Grid(2, 16)
    A = np.array([[0.2, 0.1], [-0.1, 0.3]])
    y = DeformationField(coarse, coarse.node_coords() @ A.T, bc="free")
    yf = prolong_deformation(y, fine)
    assert np.abs(yf.values - fine.node_coords() @ A.T).max() < 1e-13
    P = PlasticField(coarse, 0.05 * coarse.node_coords() @ np.ones((2, 3)), 0.3)
    Pf = prolong_plastic(P, fine)
    assert np.abs(Pf.coeffs - 0.05 * fine.node_coords() @ np.ones((2, 3))).max() < 1e-13


def test_node_incidence_masks():
    active = np.zeros((3, 3), dtype=bool)
    active[1, 1] = True
    all_m, any_m = node_incidence_masks(2, 3, active.reshape(-1))
    all_m = all_m.reshape(4, 4)
    any_m = any_m.reshape(4, 4)
    assert not all_m.any()  # a single pixel has no fully-interior node
    assert any_m[1:3, 1:3].all() and any_m.sum() == 4


@settings(max_examples=20, derandomize=True)
@given(st.integers(0, 10**6))
def test_lattice_norm_positive_definite(seed):
    grid = Grid(2, 4)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n_nodes, 2))
    assert grid.lattice_norm_sq(vals) > 0.0
    assert grid.lattice_norm_sq(np.zeros_like(vals)) == 0.0


# -- CSR grid operators against the gather/tensordot/np.add.at formulas ----------


def _oracle_gauss_values(grid, nodal):
    gathered = grid.gather(nodal)
    tail = gathered.shape[2:]
    flat = gathered.reshape(grid.n_elements, grid.n_corners, -1)
    out = np.tensordot(flat, grid.N_gauss, axes=([1], [1]))
    return np.moveaxis(out, -1, 1).reshape((grid.n_elements, grid.n_gauss) + tail)


def _oracle_gauss_gradients(grid, nodal):
    gathered = grid.gather(nodal)
    tail = gathered.shape[2:]
    flat = gathered.reshape(grid.n_elements, grid.n_corners, -1)
    out = np.moveaxis(np.tensordot(flat, grid.dN_gauss, axes=([1], [1])), 2, 1)
    return out.reshape((grid.n_elements, grid.n_gauss) + tail + (grid.dim,))


def _oracle_accumulate_from_gradients(grid, S, out, element_mask=None):
    els = np.arange(grid.n_elements) if element_mask is None else np.nonzero(element_mask)[0]
    tail = S.shape[2:-1]
    flat = S.reshape(len(els), grid.n_gauss, -1, grid.dim)
    loc = np.tensordot(flat, grid.dN_gauss, axes=([1, 3], [0, 2]))
    loc = np.moveaxis(loc, -1, 1).reshape((len(els), grid.n_corners) + tail)
    np.add.at(out, grid.el_nodes[els], loc * (grid.gauss_weight * grid.h**grid.dim))


def _oracle_accumulate_from_values(grid, S, out, element_mask=None):
    els = np.arange(grid.n_elements) if element_mask is None else np.nonzero(element_mask)[0]
    tail = S.shape[2:]
    flat = S.reshape(len(els), grid.n_gauss, -1)
    loc = np.moveaxis(np.tensordot(flat, grid.N_gauss, axes=([1], [0])), -1, 1)
    loc = loc.reshape((len(els), grid.n_corners) + tail)
    np.add.at(out, grid.el_nodes[els], loc * (grid.gauss_weight * grid.h**grid.dim))


def _assert_rel_close(got, want, rel=1e-14):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


# (dim, n_el, extent): 2D and 3D, and a multicell-style grid with extent != 1
GRID_SHAPES = [(2, 7, 1.0), (3, 4, 1.0), (2, 6, 3.0), (3, 3, 2.0)]


@pytest.mark.parametrize("dim, n_el, extent", GRID_SHAPES)
@pytest.mark.parametrize("tail", [(), (2,), (2, 3)])
def test_csr_interpolation_matches_gather_oracle(dim, n_el, extent, tail):
    grid = Grid(dim, n_el, extent)
    nodal = np.random.default_rng(n_el).standard_normal((grid.n_nodes,) + tail)
    _assert_rel_close(grid.gauss_values(nodal), _oracle_gauss_values(grid, nodal))
    _assert_rel_close(grid.gauss_gradients(nodal), _oracle_gauss_gradients(grid, nodal))


@pytest.mark.parametrize("dim, n_el, extent", GRID_SHAPES)
@pytest.mark.parametrize("masked", [False, True])
def test_csr_scatter_matches_add_at_oracle(dim, n_el, extent, masked):
    grid = Grid(dim, n_el, extent)
    rng = np.random.default_rng(10 * n_el + dim)
    mask = rng.random(grid.n_elements) < 0.6 if masked else None
    n_sel = grid.n_elements if mask is None else int(mask.sum())
    tail = (dim, dim)
    for scatter, oracle, S in (
        (grid.accumulate_from_gradients, _oracle_accumulate_from_gradients,
         rng.standard_normal((n_sel, grid.n_gauss) + tail + (dim,))),
        (grid.accumulate_from_values, _oracle_accumulate_from_values,
         rng.standard_normal((n_sel, grid.n_gauss) + tail)),
    ):
        got, want = np.zeros((2, grid.n_nodes) + tail)
        scatter(S, got, element_mask=mask)
        oracle(grid, S, want, element_mask=mask)
        _assert_rel_close(got, want)
        once = got.copy()
        scatter(S, got, element_mask=mask)  # adds to ``out``, never overwrites
        assert np.array_equal(got, 2.0 * once)


def test_csr_plan_shared_per_grid_shape_and_read_only():
    a, b = Grid(2, 5), Grid(2, 5)
    assert a._operators() is b._operators()
    assert Grid(2, 5, 2.0)._operators() is not a._operators()
    with pytest.raises(ValueError):
        a._operators().values.data[0] = 1.0
