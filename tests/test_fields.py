import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hclab import cellproblems as cp, energies, materials, microgeometry as mg, slgeometry as sg, twoscale as ts
from hclab.fields import (
    DeformationField,
    Grid,
    GridMismatch,
    PlasticField,
    _element_nodes,
    _shape_gradient_table,
    node_incidence_masks,
    project_to_ball,
    prolong_deformation,
    prolong_plastic,
)


def test_linear_field_reproduced():
    grid = Grid(2, 8)
    A = np.array([[0.4, -0.3], [0.2, 0.1]])
    y = DeformationField(grid, grid.node_coords() @ A.T)
    grads = grid.gauss_gradients(y.values)
    assert np.abs(grads - A).max() < 1e-13
    per_element = np.einsum("nc,gnk->gck", y.values[grid.el_nodes[3]], grid.dN_gauss)
    assert np.abs(per_element[1] - A).max() < 1e-13


def test_constant_field_zero_gradient():
    grid = Grid(2, 4)
    y = DeformationField(grid, np.ones((grid.n_nodes, 2)))
    assert np.abs(grid.gauss_gradients(y.values)).max() < 1e-14


def test_gradient_matches_interpolant_finite_differences():
    """Central differences of the interpolant itself are the oracle for the
    Gauss-point gradients."""
    grid = Grid(2, 6)
    rng = np.random.default_rng(0)
    y = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)))
    grads = grid.gauss_gradients(y.values)
    h = 1e-6
    for el_flat, gp in zip(rng.integers(0, grid.n_elements, 20), rng.integers(0, grid.n_gauss, 20)):
        el = np.array(divmod(int(el_flat), grid.n_el))  # elements in C order
        p = (el + grid.gauss_ref[gp]) * grid.h
        g = grads[el_flat, gp]
        for k in range(2):
            dp = p.copy()
            dp[k] += h
            dm = p.copy()
            dm[k] -= h
            fd = (grid.interpolate_at(y.values, dp[None]) - grid.interpolate_at(y.values, dm[None]))[0] / (2 * h)
            assert np.abs(g[:, k] - fd).max() < 1e-8


def test_plastic_matrix_gradient_constant_and_exp_profile():
    grid = Grid(2, 8)
    P = PlasticField.identity(grid, 0.3)
    assert np.abs(grid.gauss_gradients(P.matrices())).max() < 1e-12

    # P(x) = exp(x1 M0): the gradient of the interpolated matrix entries is
    # constant per element (the nodal values depend on x1 alone) and matches
    # the analytic derivative of the one-parameter subgroup at the element
    # centre to O(h^2), checked by Richardson ratio.
    M0 = sg.coeffs_to_matrices(np.array([0.25, 0.1, 0.0]), 2)
    errs = []
    for n in (8, 16):
        g = Grid(2, n)
        coords = g.node_coords()
        coeffs = coords[:, 0][:, None] * np.array([0.25, 0.1, 0.0])[None, :]
        P = PlasticField(g, coeffs, r_K=0.3)
        el = (n // 2) * n + n // 2
        center = np.full(2, 0.5)
        grads = g.gauss_gradients(P.matrices())
        got = grads[el, 0]
        assert np.abs(grads[el] - got).max() < 1e-13
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
    gradP = np.einsum("enij,gnk->egijk", mats[grid.el_nodes], grid.dN_gauss)
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
        dN = _shape_gradient_table(grid.corners, ref_pts) / grid.h
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


def test_plastic_projection_leaves_the_input_array_unchanged():
    grid = Grid(2, 2)
    coeffs = np.zeros((grid.n_nodes, 3))
    coeffs[0] = [1.0, 0.0, 0.0]
    before = coeffs.copy()
    P = PlasticField(grid, coeffs, r_K=0.3)
    assert np.array_equal(coeffs, before)
    assert np.array_equal(P.coeffs[0], [0.3, 0.0, 0.0]) and np.array_equal(P.coeffs[1:], before[1:])
    assert project_to_ball(P.coeffs, 0.3) is P.coeffs  # inside the ball: no copy, no change


def test_field_keeps_its_boundary_values():
    """Boundary values are Dirichlet data: a field, its copy and its zero
    hold exactly the values they are given."""
    grid = Grid(2, 4)
    vals = np.random.default_rng(5).standard_normal((grid.n_nodes, 2))
    y = DeformationField(grid, vals.copy())
    assert np.array_equal(y.values, vals)
    assert np.array_equal(y.copy().values, vals) and y.copy().values is not y.values
    assert not DeformationField.zero(grid).values.any()


def test_grid_mismatch_detected():
    grid = Grid(2, 4)
    with pytest.raises(GridMismatch):
        DeformationField(grid, np.zeros((10, 2)))
    with pytest.raises(GridMismatch):
        PlasticField(grid, np.zeros((grid.n_nodes, 5)), 0.3)


def _mismatched_call(entry):
    """A call of ``entry`` that combines a field with a grid it does not live on."""
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4)  # 16^2 elements
    model = materials.default_material(dim=2)
    here, other = domain.grid, Grid(2, 8)

    def P(grid):
        return PlasticField.identity(grid, model.K_radius)

    y, y_other = DeformationField.zero(here), DeformationField.zero(other)
    return {
        "assemble_J_eps": lambda: energies.assemble_J_eps(domain, model, y_other, P(here)),
        "value_and_grad_J_eps": lambda: energies.value_and_grad_J_eps(domain, model, y, P(other)),
        "assemble_J_limit": lambda: cp.assemble_J_limit(cell, model, y, P(other), cp.HomDensityCache()),
        "unfold": lambda: ts.unfold(domain, y_other),
        "extend_into_inclusions": lambda: ts.extend_into_inclusions(domain, y_other),
        "poincare_ratio": lambda: ts.poincare_ratio(domain, y_other),
        "dissipation_integral[P_bar]": lambda: energies.dissipation_integral(domain, P(other), P(here), 0),
        # n_el agrees, the dimension does not
        "dissipation_integral[domain]": lambda: energies.dissipation_integral(
            domain, P(Grid(3, 16)), P(Grid(3, 16)), 1),
    }[entry]


@pytest.mark.parametrize("entry", ["assemble_J_eps", "value_and_grad_J_eps", "assemble_J_limit", "unfold",
                                   "extend_into_inclusions", "poincare_ratio", "dissipation_integral[P_bar]",
                                   "dissipation_integral[domain]"])
def test_every_entry_point_rejects_a_field_from_another_grid(entry):
    """Each entry point that combines fields with a domain or with each other
    checks grid agreement through ``check_same_grid``: same class, every one."""
    with pytest.raises(GridMismatch, match="does not match"):
        _mismatched_call(entry)()


def test_prolongation_exact_on_affine():
    coarse = Grid(2, 4)
    fine = Grid(2, 16)
    A = np.array([[0.2, 0.1], [-0.1, 0.3]])
    y = DeformationField(coarse, coarse.node_coords() @ A.T)
    yf = prolong_deformation(y, fine)
    assert np.abs(yf.values - fine.node_coords() @ A.T).max() < 1e-13
    P = PlasticField(coarse, 0.05 * coarse.node_coords() @ np.ones((2, 3)), 0.3)
    Pf = prolong_plastic(P, fine)
    assert np.abs(Pf.coeffs - 0.05 * fine.node_coords() @ np.ones((2, 3))).max() < 1e-13


def test_prolongation_keeps_boundary_values_where_one_over_h_rounds_up():
    """On Grid(2, 49), 1/h rounds up, so the top-face nodes of the fine grid
    fall just past the last element: without clamping the local coordinate,
    zero boundary values leaked 2.0e-14 onto the fine boundary."""
    coarse, fine = Grid(2, 49), Grid(2, 98)
    assert 1.0 / coarse.h > coarse.n_el
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((coarse.n_nodes, 2))
    vals[coarse.boundary_node_mask()] = 0.0
    yf = prolong_deformation(DeformationField(coarse, vals), fine)
    assert not yf.values[fine.boundary_node_mask()].any()
    A = np.array([[1.5, 0.2], [-0.3, 1.0 / 1.5]])
    yf = prolong_deformation(DeformationField(coarse, coarse.node_coords() @ A.T), fine)
    assert np.abs(yf.values - fine.node_coords() @ A.T).max() < 1e-15


@pytest.mark.parametrize("dim, n_el", [(2, 1), (2, 5), (3, 1), (3, 4)])
def test_element_nodes_match_ndindex_oracle(dim, n_el):
    """Row e lists the 2^d corners of the e-th element in np.ndindex order,
    corners in np.ndindex((2,)*d) order, as flat C-order node ids."""
    want = [[np.ravel_multi_index(tuple(e + np.array(c)), (n_el + 1,) * dim) for c in np.ndindex((2,) * dim)]
            for e in np.ndindex((n_el,) * dim)]
    got = _element_nodes(dim, n_el)
    assert got.shape == (n_el**dim, 2**dim)
    assert np.array_equal(got, want)


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
    gathered = nodal[grid.el_nodes]
    tail = gathered.shape[2:]
    flat = gathered.reshape(grid.n_elements, grid.n_corners, -1)
    out = np.tensordot(flat, grid.N_gauss, axes=([1], [1]))
    return np.moveaxis(out, -1, 1).reshape((grid.n_elements, grid.n_gauss) + tail)


def _oracle_gauss_gradients(grid, nodal):
    gathered = nodal[grid.el_nodes]
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


def _oracle_stiffness(grid, blocks, element_mask=None):
    els = np.arange(grid.n_elements) if element_mask is None else np.nonzero(element_mask)[0]
    K = np.zeros((grid.n_nodes,) * 2)
    for e, block in zip(els, blocks):
        nodes = grid.el_nodes[e]
        K[np.ix_(nodes, nodes)] += block
    return K


@pytest.mark.parametrize("dim, n_el, extent", GRID_SHAPES)
@pytest.mark.parametrize("masked", [False, True])
def test_stiffness_matches_dense_scatter_loop(dim, n_el, extent, masked):
    grid = Grid(dim, n_el, extent)
    rng = np.random.default_rng(10 * n_el + dim)
    mask = rng.random(grid.n_elements) < 0.6 if masked else None
    n_sel = grid.n_elements if mask is None else int(mask.sum())
    blocks = rng.standard_normal((n_sel, grid.n_corners, grid.n_corners))
    K = grid.stiffness(blocks, element_mask=mask)
    assert K.format == "csr"
    assert K.shape == (grid.n_nodes, grid.n_nodes)
    _assert_rel_close(K.toarray(), _oracle_stiffness(grid, blocks, mask))


def test_csr_plan_shared_per_grid_shape_and_read_only():
    """Grids of one shape share the read-only Gauss operators, and their
    stiffness operators share the read-only pattern arrays and own their
    values: a second refill leaves the first operator alone."""
    a, b = Grid(2, 5), Grid(2, 5)
    assert a._operators() is b._operators()
    assert Grid(2, 5, 2.0)._operators() is not a._operators()
    for mat in (a._operators().values, a._operators().assembly):
        with pytest.raises(ValueError):
            mat.data[0] = 1.0
    blocks = np.random.default_rng(0).standard_normal((2, a.n_elements, 4, 4))
    K1 = a.stiffness(blocks[0])
    before = K1.data.copy()
    K2 = b.stiffness(blocks[1][:10], element_mask=np.arange(a.n_elements) < 10)
    for first, second in ((K1.indptr, K2.indptr), (K1.indices, K2.indices)):
        assert np.shares_memory(first, second)
        with pytest.raises(ValueError):
            first[0] = first[0]
    assert not np.shares_memory(K1.data, K2.data)
    assert np.array_equal(K1.data, before)


def _coo_stiffness(grid, blocks, element_mask=None):
    """COO -> CSR assembly of element blocks, the masked-out blocks left out."""
    nodes = grid.el_nodes if element_mask is None else grid.el_nodes[element_mask]
    rows = np.repeat(nodes, grid.n_corners, axis=1).reshape(-1)
    cols = np.tile(nodes, (1, grid.n_corners)).reshape(-1)
    shape = (grid.n_nodes, grid.n_nodes)
    return scipy.sparse.coo_matrix((np.reshape(blocks, -1), (rows, cols)), shape=shape).tocsr()


@pytest.mark.parametrize("dim, n_el", [(2, 64), (2, 17), (3, 6)])
@pytest.mark.parametrize("masked", [False, True])
def test_stiffness_refill_matches_coo_to_csr(dim, n_el, masked):
    """The refilled pattern is the COO -> CSR result of the blocks of every
    element, with zero blocks outside the mask: the same indptr and indices,
    and in 2D the same data bit for bit (each slot summed in block order).
    3D rows hold more duplicates than scipy's stable small-row sort, so
    there the data agree to rel 1e-15.  Masked, the matrix also equals the
    COO -> CSR assembly of the active blocks alone."""
    grid = Grid(dim, n_el)
    rng = np.random.default_rng(n_el)
    mask = rng.random(grid.n_elements) < 0.6 if masked else None
    blocks = rng.standard_normal((grid.n_elements, grid.n_corners, grid.n_corners))
    if masked:
        blocks[~mask] = 0.0
    K = grid.stiffness(blocks if mask is None else blocks[mask], element_mask=mask)
    ref = _coo_stiffness(grid, blocks)
    assert np.array_equal(K.indptr, ref.indptr) and np.array_equal(K.indices, ref.indices)
    if dim == 2:
        assert np.array_equal(K.data, ref.data)
    else:
        _assert_rel_close(K.data, ref.data, rel=1e-15)
    if masked and dim == 2:
        assert np.array_equal(K.toarray(), _coo_stiffness(grid, blocks[mask], mask).toarray())


def test_stiffness_refill_builds_no_coo_matrix(monkeypatch):
    """Building the pattern of a new grid shape and refilling it go through
    no COO matrix."""
    def boom(*args, **kwargs):
        raise AssertionError("coo_matrix called")

    monkeypatch.setattr(scipy.sparse, "coo_matrix", boom)
    grid = Grid(2, 11)
    blocks = np.random.default_rng(1).standard_normal((grid.n_elements, 4, 4))
    for _ in range(2):
        K = grid.stiffness(blocks)
        K = grid.stiffness(blocks[::2], element_mask=np.arange(grid.n_elements) % 2 == 0)
    assert K.nnz == (3 * grid.n_pts - 2) ** 2


def _coo_window_bands(window):
    """The upper bands of a window's operators K^{kl}, assembled from the
    active elements' blocks by COO -> CSR."""
    grid, active, free = window.grid, window.active, window.free
    d = grid.dim
    wq = grid.gauss_weight * grid.h**d
    ops = []
    for k, l in cp._pairs(d):
        block = wq * np.einsum("gn,gm->nm", grid.dN_gauss[:, :, k], grid.dN_gauss[:, :, l])
        if k != l:
            block = block + block.T
        blocks = np.broadcast_to(block, (int(np.count_nonzero(active)),) + block.shape)
        ops.append(scipy.sparse.triu(_coo_stiffness(grid, blocks, active)[free][:, free], format="coo"))
    u = max(int(np.max(op.col - op.row, initial=0)) for op in ops)
    bands = np.zeros((len(ops), u + 1, int(np.count_nonzero(free))))
    for band, op in zip(bands, ops):
        band[u + op.row - op.col, op.col] = op.data
    return bands


@pytest.mark.parametrize("window", ["stiff1", "stiff2", "over_Q", "over_Q0"])
def test_2d_cell_window_bands_match_coo_assembly(window):
    """The 2D cell windows' operator bands, built through the refilled
    pattern, are bit-identical to the bands of the COO -> CSR assembly."""
    cell = mg.builtin_cell("block4")
    if window.startswith("stiff"):
        win = cp._stiff_window(cell, 16, int(window[-1]))
    else:
        win = cp._soft_window(cell, 16, window)
    bands = _coo_window_bands(win)
    assert bands.shape == win.operators.shape
    assert np.array_equal(win.operators, bands)
