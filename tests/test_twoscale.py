import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from hclab import microgeometry as mg, twoscale as ts
from hclab.fields import DeformationField, Grid, GridMismatch, node_incidence_masks


@pytest.fixture(scope="module")
def cell():
    return mg.builtin_cell("block4")


def _domain(cell, n):
    return mg.build_micro_domain(cell, n, strip=0.5)


def test_unfold_constant_field(cell):
    domain = _domain(cell, 4)
    grid = Grid(2, domain.n_el)
    y = DeformationField(grid, np.full((grid.n_nodes, 2), 2.5))
    tsf = ts.unfold(domain, y)
    assert np.all(tsf.samples == 2.5)
    assert tsf.samples.shape == (16, 16, 2)  # (cells, m^d, components)


def test_unfold_norm_preservation(cell):
    rng = np.random.default_rng(0)
    for n in (4, 8):
        domain = _domain(cell, n)
        grid = Grid(2, domain.n_el)
        y = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)))
        tsf = ts.unfold(domain, y)
        assert abs(grid.lattice_norm_sq(y.values) - tsf.norm_sq()) < 1e-12


def test_unfold_gradient_commutation(cell):
    # S_eps(eps grad y) = grad_z (S_eps y), elementwise
    rng = np.random.default_rng(1)
    for n in (4, 8):
        domain = _domain(cell, n)
        grid = Grid(2, domain.n_el)
        y = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)))
        lhs = ts.unfold_scaled_gradients(domain, y)
        rhs = ts.unfold(domain, y).micro_gradients()
        assert np.abs(lhs - rhs).max() < 1e-12


def _ndindex_table(n, m, d, side, width):
    """Reference (cell, micro) table: flat index of t*m + z in a side^d C-order
    lattice, t over np.ndindex((n,)*d) and z over np.ndindex((width,)*d)."""
    return np.array([[np.ravel_multi_index(tuple(np.array(t) * m + np.array(z)), (side,) * d)
                      for z in np.ndindex((width,) * d)] for t in np.ndindex((n,) * d)])


@pytest.mark.parametrize("name, n", [("block4", 2), ("block4", 5), ("block8", 3), ("fiber3d", 3), ("fiber3d", 4)])
def test_cell_tables_and_unfolded_gradients_match_ndindex_oracle(name, n):
    domain = mg.build_micro_domain(mg.builtin_cell(name), n, strip=0.125)
    d, m = domain.dim, domain.cell.resolution
    low, full = ts._cell_node_tables(domain)
    assert np.array_equal(low, _ndindex_table(n, m, d, n * m + 1, m))
    assert np.array_equal(full, _ndindex_table(n, m, d, n * m + 1, m + 1))
    rng = np.random.default_rng(2)
    y = DeformationField(domain.grid, rng.standard_normal((domain.grid.n_nodes, d)))
    grads = domain.grid.gauss_gradients(y.values) * domain.eps
    assert np.array_equal(ts.unfold_scaled_gradients(domain, y), grads[_ndindex_table(n, m, d, n * m, m)])


def _extension_by_neighbour_loop(domain, y):
    """The harmonic extension assembled from unravelled neighbour indices with
    bounds checks, entries appended per direction (axis 0 first, - before +)."""
    grid = y.grid
    nodes = np.nonzero(node_incidence_masks(domain.dim, domain.n_el, domain.soft_elements)[0])[0]
    out = y.values.copy()
    pos = -np.ones(grid.n_nodes, dtype=int)
    pos[nodes] = np.arange(len(nodes))
    multi = np.stack(np.unravel_index(nodes, (grid.n_pts,) * grid.dim), axis=-1)
    rows, cols, vals = list(range(len(nodes))), list(range(len(nodes))), [2.0 * grid.dim] * len(nodes)
    rhs = np.zeros((len(nodes), grid.dim))
    for axis in range(grid.dim):
        for step in (-1, 1):
            nb = multi.copy()
            nb[:, axis] += step
            ok = (nb[:, axis] >= 0) & (nb[:, axis] < grid.n_pts)
            flat = np.full(len(nodes), -1, dtype=int)
            flat[ok] = np.ravel_multi_index(nb[ok].T, (grid.n_pts,) * grid.dim)
            local = np.nonzero(ok)[0]
            is_interior = pos[flat[ok]] >= 0
            rows.extend(local[is_interior])
            cols.extend(pos[flat[ok][is_interior]])
            vals.extend([-1.0] * int(is_interior.sum()))
            rhs[local[~is_interior]] += y.values[flat[ok][~is_interior]]
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(len(nodes), len(nodes))).tocsc()
    solve = scipy.sparse.linalg.factorized(A)
    for c in range(grid.dim):
        out[nodes, c] = solve(rhs[:, c])
    return out


def _recovery_by_cell_loop(domain, w):
    """The uncorrected recovery field built cell by cell, w called once per
    (cell, Gauss point) and accumulated in Gauss point order."""
    d, m = domain.dim, domain.cell.resolution
    n_pts = domain.n_el + 1
    micro_interior, _ = node_incidence_masks(d, m, domain.cell.soft_mask.reshape(-1))
    micro = np.array(list(np.ndindex((m + 1,) * d)))
    values = np.zeros((domain.grid.n_nodes, d))
    for t in domain.translations_hat:
        acc = np.zeros((len(micro), d))
        for xg in (np.asarray(t)[None, :] + Grid(d, 1).gauss_ref) * domain.eps:
            acc += np.asarray(w(np.broadcast_to(xg, micro.shape), micro / m), dtype=float)
        acc /= 2**d
        acc[~micro_interior] = 0.0
        values[np.ravel_multi_index((np.asarray(t) * m + micro).T, (n_pts,) * d)] = acc
    return values


def _w_macro_micro(x, z):
    """A corrector that varies with x and z in every component.  Its output
    takes the memory layout of the broadcast z, with the Gauss point axis
    innermost, where a reduction over that axis may add pairwise."""
    g = 1.0 + 0.5 * np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., -1]) + x[..., 1] ** 2
    bump = np.prod(np.sin(np.pi * z), axis=-1)
    out = np.zeros_like(z)
    for k in range(z.shape[-1]):
        out[..., k] = g * (k + 1) * bump * np.cos(0.7 * k * z[..., k])
    return out


@pytest.mark.parametrize("name, n", [("block4", 8), ("fiber3d", 3)])
def test_extension_and_recovery_bit_identical_to_loop_builds(name, n):
    domain = _domain(mg.builtin_cell(name), n)
    rng = np.random.default_rng(5)
    y = DeformationField(domain.grid, rng.standard_normal((domain.grid.n_nodes, domain.dim)))
    assert np.array_equal(ts.extend_into_inclusions(domain, y).values, _extension_by_neighbour_loop(domain, y))
    v = ts.build_recovery_sequence(domain, _w_macro_micro).values
    assert np.abs(v).max() > 0.0
    assert v.tobytes() == _recovery_by_cell_loop(domain, _w_macro_micro).tobytes()


def test_unfold_grid_mismatch(cell):
    domain = _domain(cell, 4)
    wrong = DeformationField.zero(Grid(2, 8))
    for check in (ts.unfold, ts.unfold_scaled_gradients, ts.extend_into_inclusions, ts.poincare_ratio):
        with pytest.raises(GridMismatch):
            check(domain, wrong)


def test_extension_affine_exact(cell):
    domain = _domain(cell, 4)
    grid = Grid(2, domain.n_el)
    A = np.array([[0.5, 0.2], [-0.1, 0.3]])
    y = DeformationField(grid, grid.node_coords() @ A.T + np.array([0.05, -0.1]))
    ext = ts.extend_into_inclusions(domain, y)
    assert np.abs(ext.values - y.values).max() < 1e-12


def test_extension_linear_and_idempotent(cell):
    domain = _domain(cell, 4)
    grid = Grid(2, domain.n_el)
    rng = np.random.default_rng(3)
    y1 = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)))
    y2 = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)))
    e1 = ts.extend_into_inclusions(domain, y1)
    e2 = ts.extend_into_inclusions(domain, y2)
    combo = ts.extend_into_inclusions(
        domain, DeformationField(grid, 2.0 * y1.values + 3.0 * y2.values))
    assert np.abs(combo.values - 2.0 * e1.values - 3.0 * e2.values).max() < 1e-12
    again = ts.extend_into_inclusions(domain, e1)
    assert np.abs(again.values - e1.values).max() < 1e-13


def test_extension_preserves_matrix_values(cell):
    domain = _domain(cell, 4)
    grid = Grid(2, domain.n_el)
    rng = np.random.default_rng(4)
    y = DeformationField(grid, rng.standard_normal((grid.n_nodes, 2)))
    ext = ts.extend_into_inclusions(domain, y)
    interior, _ = node_incidence_masks(domain.dim, domain.n_el, domain.soft_elements)
    assert np.array_equal(ext.values[~interior], y.values[~interior])


def _osc(coords):
    out = np.zeros_like(coords)
    out[:, 0] = np.sin(3 * np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1])
    out[:, 1] = np.cos(np.pi * coords[:, 0]) * np.sin(2 * np.pi * coords[:, 1])
    return out


def test_extension_constant_stable_across_eps(cell):
    consts = []
    for n in (4, 8, 16):
        domain = _domain(cell, n)
        grid = Grid(2, domain.n_el)
        y = DeformationField(grid, _osc(grid.node_coords()))
        c0, c1 = ts.extension_constants(domain, y)
        consts.append(max(c0, c1))
    assert max(consts) / min(consts) < 1.25


def _bump(grid):
    s = np.prod(np.sin(np.pi * grid.node_coords()), axis=-1)
    out = np.zeros((grid.n_nodes, 2))
    out[:, 0] = 0.5 * s
    out[:, 1] = 0.3 * s
    out[grid.boundary_node_mask()] = 0.0
    return DeformationField(grid, out)


def test_poincare_zero_field_raises(cell):
    domain = _domain(cell, 4)
    grid = Grid(2, domain.n_el)
    with pytest.raises(ts.ZeroDenominator):
        ts.poincare_ratio(domain, DeformationField.zero(grid))


def test_poincare_rejects_non_zero_boundary_values(cell):
    """The diagnostic reads the boundary values themselves: one non-zero
    boundary value of an otherwise valid field is a TwoScaleError."""
    domain = _domain(cell, 4)
    grid = Grid(2, domain.n_el)
    y = _bump(grid)
    assert ts.poincare_ratio(domain, y) > 0.0
    y.values[np.flatnonzero(grid.boundary_node_mask())[5], 1] = 1e-300
    with pytest.raises(ts.TwoScaleError, match="boundary"):
        ts.poincare_ratio(domain, y)


def test_poincare_stable_across_eps(cell):
    ratios = []
    for n in (4, 8, 16):
        domain = _domain(cell, n)
        grid = Grid(2, domain.n_el)
        y = _bump(grid)
        ratios.append(ts.poincare_ratio(domain, y))
    assert max(ratios) / min(ratios) < 1.25


def test_poincare_controls_inclusion_oscillations(cell):
    """Fields supported in the inclusions have ratios controlled by the same
    constant: the eps-weighted soft gradient term does the work."""

    def w(x, z):
        z = np.asarray(z, float)
        inside = np.all((z > 0.25) & (z < 0.75), axis=-1)
        out = np.zeros_like(z)
        out[..., 0] = np.where(inside, np.prod(np.sin(np.pi * (z - 0.25) / 0.5), axis=-1), 0.0)
        return out

    bump_ratios, inc_ratios = [], []
    for n in (4, 8, 16):
        domain = _domain(cell, n)
        grid = Grid(2, domain.n_el)
        bump_ratios.append(ts.poincare_ratio(domain, _bump(grid)))
        v = ts.build_recovery_sequence(domain, w)
        inc_ratios.append(ts.poincare_ratio(domain, v))
    assert max(inc_ratios) <= 3.0 * max(bump_ratios)
    assert max(inc_ratios) / min(inc_ratios) < 1.5


def _extension_distance(domain, y, y_limit):
    """L2 distance of the harmonic extension of y to the limit field, as a
    root mean square over the limit grid's nodes."""
    ytilde = ts.extend_into_inclusions(domain, y)
    diff = y.grid.interpolate_at(ytilde.values, y_limit.grid.node_coords()) - y_limit.values
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=-1))))


def test_extension_distance_constant_sequence(cell):
    grid16 = Grid(2, 16)
    y_limit = _bump(grid16)
    errors = []
    for n in (4, 8, 16):
        domain = _domain(cell, n)
        grid = Grid(2, domain.n_el)
        y = ts.extend_into_inclusions(domain, _bump(grid))
        assert np.sqrt(grid.l2_norm_sq(y.values)) <= 1e6
        errors.append(_extension_distance(domain, y, y_limit))
    # extensions of the (already matrix-consistent) smooth field stay close
    assert max(errors) < 0.05


def test_extension_distance_kills_inclusion_part(cell):
    def w(x, z):
        z = np.asarray(z, float)
        inside = np.all((z > 0.25) & (z < 0.75), axis=-1)
        out = np.zeros_like(z)
        out[..., 0] = np.where(inside, np.prod(np.sin(np.pi * (z - 0.25) / 0.5), axis=-1), 0.0)
        return out

    grid16 = Grid(2, 16)
    y_limit = _bump(grid16)
    errors = []
    for n in (4, 8, 16):
        domain = _domain(cell, n)
        grid = Grid(2, domain.n_el)
        base = _bump(grid)
        v = ts.build_recovery_sequence(domain, w)
        y = DeformationField(grid, base.values + v.values)
        assert np.sqrt(grid.l2_norm_sq(y.values)) <= 1e6
        errors.append(_extension_distance(domain, y, y_limit))
    assert errors[-1] < errors[0]


def test_recovery_macro_independent_is_periodic_sampling(cell):
    def w(x, z):
        z = np.asarray(z, float)
        inside = np.all((z > 0.25) & (z < 0.75), axis=-1)
        out = np.zeros_like(z)
        out[..., 0] = np.where(inside, np.prod(np.sin(np.pi * (z - 0.25) / 0.5), axis=-1), 0.0)
        return out

    domain = _domain(cell, 8)
    v = ts.build_recovery_sequence(domain, w)
    grid = Grid(2, domain.n_el)
    # supported in inclusions: zero on every stiff element
    stiff = ~domain.soft_field.reshape(-1)
    assert np.abs(grid.gauss_values(v.values)[stiff]).max() == 0.0
    # periodic: identical micro pattern in every interior cell
    tsf = ts.unfold(domain, v)
    hats = [t[0] * 8 + t[1] for t in domain.translations_hat]
    ref = tsf.samples[hats[0]]
    for c in hats[1:]:
        assert np.array_equal(tsf.samples[c], ref)


def test_recovery_micro_gradient_convergence(cell):
    """unfold(eps grad v_k) -> grad_z w in L2 across the eps sweep."""

    def w(x, z):
        z = np.asarray(z, float)
        g = 1.0 + 0.5 * np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
        inside = np.all((z > 0.25) & (z < 0.75), axis=-1)
        out = np.zeros_like(z)
        out[..., 0] = g * np.where(inside, np.prod(np.sin(np.pi * (z - 0.25) / 0.5), axis=-1), 0.0)
        return out

    m = cell.resolution
    micro = Grid(2, m)
    errs = []
    for n in (4, 8, 16):
        domain = _domain(cell, n)
        v = ts.build_recovery_sequence(domain, w)
        lhs = ts.unfold_scaled_gradients(domain, v)
        err2 = total = 0.0
        for t in domain.translations_hat:
            x = (np.asarray(t) + 0.5) / n
            nodes = micro.node_coords()
            wn = w(np.broadcast_to(x, nodes.shape), nodes)
            gz = micro.gauss_gradients(wn)
            ci = t[0] * n + t[1]
            err2 += np.sum((lhs[ci] - gz) ** 2)
            total += np.sum(gz**2)
        errs.append(np.sqrt(err2 / total))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.01

