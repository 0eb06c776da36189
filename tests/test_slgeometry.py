import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hclab import energies, slgeometry as sg

RNG = np.random.default_rng(20240811)


def _sample_sl(rng, d=2, radius=0.3):
    c = rng.standard_normal(d * d - 1)
    c *= radius * rng.random() / np.linalg.norm(c)
    return sg.exp_batch(sg.coeffs_to_matrices(c, d))


def test_exp_at_zero_is_identity():
    assert np.array_equal(sg.exp_sl(np.zeros((2, 2))), np.eye(2))


def test_diagonal_closed_form():
    a = 0.37
    M = np.diag([a, -a])
    P = sg.exp_sl(M)
    assert np.allclose(P, np.diag([np.exp(a), np.exp(-a)]), atol=1e-14)
    assert abs(np.linalg.det(P) - 1.0) < 1e-15


def test_roundtrip_against_scipy_oracle():
    """Scaling-and-squaring exp (scipy) is the independent oracle for the
    closed-form chart; round trips must close to 1e-10."""
    rng = np.random.default_rng(5)
    worst_rt, worst_det, worst_sp = 0.0, 0.0, 0.0
    for _ in range(1000):
        c = rng.standard_normal(3)
        c *= 0.5 * rng.random() / np.linalg.norm(c)
        M = sg.coeffs_to_matrices(c, 2)
        P = sg.exp_sl(M)
        worst_sp = max(worst_sp, np.abs(P - scipy.linalg.expm(M)).max())
        worst_det = max(worst_det, abs(np.linalg.det(P) - 1.0))
        worst_rt = max(worst_rt, np.linalg.norm(sg.log_sl(P).entries - M))
    assert worst_sp < 1e-12
    assert worst_det < 1e-12
    assert worst_rt < 1e-10


def test_exp_3d_and_roundtrip():
    rng = np.random.default_rng(6)
    c = rng.standard_normal(8)
    c *= 0.3 / np.linalg.norm(c)
    M = sg.coeffs_to_matrices(c, 3)
    P = sg.exp_sl(M)
    assert abs(np.linalg.det(P) - 1.0) < 1e-12
    assert np.linalg.norm(sg.log_sl(P).entries - M) < 1e-10


def test_log_domain_and_unimodularity_errors():
    with pytest.raises(sg.NotUnimodular):
        sg.log_sl(np.diag([2.0, 1.0]))
    big = np.diag([np.exp(1.2), np.exp(-1.2)])  # |log| = 1.2 sqrt(2) > 1
    with pytest.raises(sg.LogDomain):
        sg.log_sl(big)


@pytest.mark.parametrize("trace, ok", [(1e-11, False), (1e-13, True)])
def test_exp_sl_and_tracefree_matrix_share_one_trace_tolerance(trace, ok):
    """An array handed to ``exp_sl`` is held to ``TRACE_TOL`` as a
    ``TraceFreeMatrix`` is: trace 1e-11 is rejected by both, 1e-13 passes both."""
    M = np.array([[trace, 0.2], [-0.1, 0.0]])
    if ok:
        assert np.array_equal(sg.exp_sl(M), sg.exp_sl(sg.TraceFreeMatrix(M)))
    else:
        for call in (sg.TraceFreeMatrix, sg.exp_sl):
            with pytest.raises(sg.SLError, match="trace"):
                call(M)


def test_tracefree_validation():
    with pytest.raises(sg.SLError):
        sg.TraceFreeMatrix(np.eye(2))
    tf = sg.TraceFreeMatrix(np.array([[0.1, 0.2], [0.3, -0.1]]))
    assert tf.norm > 0


def test_sl_basis_orthonormal():
    for d in (2, 3):
        B = sg.sl_basis(d)
        gram = np.einsum("aij,bij->ab", B, B)
        assert np.allclose(gram, np.eye(d * d - 1), atol=1e-14)
        assert np.allclose(np.trace(B, axis1=1, axis2=2), 0.0, atol=1e-14)


def test_finsler_identity_and_errors():
    M = np.array([[0.1, 0.2], [0.0, -0.1]])
    assert sg.finsler(np.eye(2), M) == pytest.approx(np.linalg.norm(M))
    with pytest.raises(sg.SingularF):
        sg.finsler(np.zeros((2, 2)), M)


@settings(max_examples=25, derandomize=True)
@given(st.floats(0.1, 5.0), st.integers(0, 10**6))
def test_finsler_positive_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    F = _sample_sl(rng)
    M = sg.coeffs_to_matrices(rng.standard_normal(3), 2)
    assert sg.finsler(F, c * M) == pytest.approx(c * sg.finsler(F, M), rel=1e-12)


def test_finsler_left_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        F = _sample_sl(rng)
        G = _sample_sl(rng)
        M = rng.standard_normal((2, 2))
        assert sg.finsler(G @ F, G @ M) == pytest.approx(sg.finsler(F, M), rel=1e-10)


def test_distance_zero_on_diagonal():
    F = _sample_sl(np.random.default_rng(10))
    value, path = sg.dissipation_distance(F, F)
    assert value == 0.0
    assert np.allclose(path.nodes[0], F) and np.allclose(path.nodes[-1], F)


def _exp_path_length_oracle(F0, F1, segments):
    """Independent straight-loop evaluation of the discretized exp-curve length."""
    L = scipy.linalg.logm(np.linalg.solve(F0, F1))
    total = 0.0
    prev = F0
    for s in range(1, segments + 1):
        node = F0 @ scipy.linalg.expm((s / segments) * L)
        total += np.linalg.norm(np.linalg.solve(prev, node) - np.eye(2))
        prev = node
    return total


def test_descent_below_exp_path_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        F0 = _sample_sl(rng)
        F1 = _sample_sl(rng)
        oracle = _exp_path_length_oracle(F0, F1, 16)
        value, path = sg.dissipation_distance(F0, F1, segments=16, iters=100)
        assert value <= oracle + 1e-12
        assert np.allclose(path.nodes[0], F0) and np.allclose(path.nodes[-1], F1)
        assert np.abs(np.linalg.det(path.nodes) - 1.0).max() < 1e-9


def test_positivity_off_diagonal():
    rng = np.random.default_rng(12)
    for _ in range(20):
        F0 = _sample_sl(rng)
        F1 = _sample_sl(rng)
        value, _ = sg.dissipation_distance(F0, F1, segments=8, iters=40)
        if np.linalg.norm(F0 - F1) > 1e-6:
            assert value > 0.0


def test_triangle_inequality_with_slack():
    rng = np.random.default_rng(13)
    S = 16
    for _ in range(30):
        A = _sample_sl(rng)
        B = _sample_sl(rng)
        C = _sample_sl(rng)
        v01, _ = sg.dissipation_distance(A, B, segments=S, iters=100)
        v12, _ = sg.dissipation_distance(B, C, segments=S, iters=100)
        v02, _ = sg.dissipation_distance(A, C, segments=S, iters=100)
        slack = (v01**3 + v12**3 + v02**3) / S**2
        assert v02 <= v01 + v12 + 1e-6 + slack


def test_refinement_monotone_up_to_quadrature_slack():
    """Finer paths are never longer up to the chord-quadrature error.

    The chord rule underestimates rotational segments by O(|step|^3 / S^2), so
    strict non-increase holds only up to that slack; see the decisions ledger.
    """
    rng = np.random.default_rng(14)
    for _ in range(15):
        F0 = _sample_sl(rng)
        F1 = _sample_sl(rng)
        v8, _ = sg.dissipation_distance(F0, F1, segments=8, iters=120)
        v16, _ = sg.dissipation_distance(F0, F1, segments=16, iters=120)
        slack = 1e-9 + v8**3 / 8**2
        assert v16 <= v8 + slack


def test_exp_upper_bound_with_fine_segments():
    # D(I, exp(M)) <= |M| + 1e-6 once the discretization is fine enough
    rng = np.random.default_rng(15)
    for _ in range(10):
        c = rng.standard_normal(3)
        c *= 0.45 * rng.random() / np.linalg.norm(c)
        M = sg.coeffs_to_matrices(c, 2)
        value, _ = sg.dissipation_distance(np.eye(2), sg.exp_batch(M), segments=160, iters=0)
        assert value <= np.linalg.norm(M) + 1e-6


def test_dissipation_integral_constant_fields():
    from hclab import microgeometry as mg
    from hclab.fields import Grid, PlasticField

    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    grid = Grid(2, domain.n_el)
    coeffs = np.array([0.2, 0.05, -0.1])
    P = PlasticField(grid, np.tile(coeffs, (grid.n_nodes, 1)), 0.3)
    P_bar = PlasticField.identity(grid, 0.3)
    assert energies.dissipation_integral(domain, P_bar, P_bar, phase=0) == 0.0
    M = sg.coeffs_to_matrices(coeffs, 2)
    ref, _ = sg.dissipation_distance(np.eye(2), sg.exp_batch(M), segments=8, iters=0)
    d0 = energies.dissipation_integral(domain, P_bar, P, phase=0)
    d1 = energies.dissipation_integral(domain, P_bar, P, phase=1)
    assert d0 == pytest.approx(float(domain.measure_soft()) * ref, rel=1e-12)
    assert d1 == pytest.approx(float(domain.measure_stiff()) * ref, rel=1e-12)


def test_dissipation_continuity_under_uniform_convergence():
    """D^i_k(Pbar; P_k) -> |Q^i| D(Pbar; P) when P_k -> P uniformly and eps -> 0."""
    from hclab import microgeometry as mg
    from hclab.fields import Grid, PlasticField

    cell = mg.builtin_cell("block4")
    coeffs = np.array([0.15, -0.05, 0.08])
    M = sg.coeffs_to_matrices(coeffs, 2)
    ref, _ = sg.dissipation_distance(np.eye(2), sg.exp_batch(M), segments=8, iters=0)
    errs = []
    for k, n in enumerate((4, 8, 16), start=1):
        domain = mg.build_micro_domain(cell, n, strip=0.5)
        grid = Grid(2, domain.n_el)
        pk = coeffs * (1.0 + 1.0 / (4 * k))  # uniform perturbation shrinking in k
        P_k = PlasticField(grid, np.tile(pk, (grid.n_nodes, 1)), 0.3)
        P_bar = PlasticField.identity(grid, 0.3)
        d0 = energies.dissipation_integral(domain, P_bar, P_k, phase=0)
        errs.append(abs(d0 - float(cell.vol_soft) * ref))
    # dominated by the boundary-strip measure deficit, which is O(eps)
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.05 * ref


def _with_norm(X, r):
    return X * (r / np.linalg.norm(X, axis=(-2, -1), keepdims=True))


def test_series_paths_match_scipy_in_3d():
    """exp, log and both Frechet adjoints in 3D: the series inside the radii
    |M| <= 1 and |P - I| <= 0.7, just inside and just outside them (the
    scipy branches), and exact sums where the terms vanish."""
    rng = np.random.default_rng(16)
    basis = sg.sl_basis(3)
    for _ in range(30):
        c = rng.standard_normal(8)
        c *= 0.4 * rng.random() / np.linalg.norm(c)
        M = sg.coeffs_to_matrices(c, 3)
        P = sg.exp_batch(M)
        assert np.abs(P - scipy.linalg.expm(M)).max() < 1e-13
        assert np.abs(sg.log_batch(P) - M).max() < 1e-12
        W = rng.standard_normal((3, 3))
        ours = np.einsum("ij,kij->k", sg.exp_frechet_adjoint(M, W), basis)
        ref = np.einsum("ij,kij->k", scipy.linalg.expm_frechet(M.T, W, compute_expm=False), basis)
        assert np.abs(ours - ref).max() < 1e-12

    # |M| = 0.99 (series) and 1.05 (scipy), batched per branch
    for r in (0.99, 1.05):
        M = _with_norm(sg.coeffs_to_matrices(rng.standard_normal((10, 8)), 3), r)
        W = rng.standard_normal(M.shape)
        assert np.abs(sg.exp_batch(M) - np.array([scipy.linalg.expm(m) for m in M])).max() < 1e-13
        got = sg.exp_frechet_adjoint(M, W)
        want = np.array([scipy.linalg.expm_frechet(m.T, w, compute_expm=False) for m, w in zip(M, W)])
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    # Gauss-like non-unimodular P, |P - I| = 0.69 (series; rank-one B = +-0.69 u u^T
    # has spectral radius 0.69, the slowest Mercator decay) and 0.75 (scipy)
    eye = np.eye(3)
    u = rng.standard_normal((10, 3))
    edge = np.concatenate([rng.standard_normal((10, 3, 3)),
                           rng.choice([-1.0, 1.0], (10, 1, 1)) * np.einsum("ni,nj->nij", u, u)])
    for A, tol in ((_near_identity(rng, 50, 3), 1e-13),
                   (eye + _with_norm(edge, 0.69), 1e-14),
                   (eye + _with_norm(rng.standard_normal((5, 3, 3)), 0.75), 1e-13)):
        want = np.array([np.real(scipy.linalg.logm(a)) for a in A])
        assert np.abs(sg.log_batch(A) - want).max() < tol
        W = rng.standard_normal(A.shape)
        got = sg.log_frechet_adjoint(A, W)
        want = np.array([_logm_adjoint_oracle(a, w) for a, w in zip(A, W)])
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    # The series stop once the terms vanish: log I = 0, log(I + N) = N - N^2/2
    # for nilpotent N, and S_n = 0 at every even n for B = diag(b, -b, 0), W = E_12
    assert np.array_equal(sg.log_batch(eye), np.zeros((3, 3)))
    N = _with_norm(np.triu(rng.standard_normal((3, 3)), 1), 0.6)
    assert np.array_equal(sg.log_batch(eye + N), N - N @ N / 2)
    E12 = np.outer(eye[0], eye[1])
    A = np.diag([1.4, 0.6, 1.0])
    assert sg.log_frechet_adjoint(A, E12) == pytest.approx(_logm_adjoint_oracle(A, E12), abs=1e-14)
    M = np.diag([0.3, -0.3, 0.0])
    want = scipy.linalg.expm_frechet(M, E12, compute_expm=False)
    assert sg.exp_frechet_adjoint(M, E12) == pytest.approx(want, abs=1e-14)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 10**6), st.floats(0.0, 0.9), st.floats(1.05, 1.4),
       st.floats(0.8, 1.2).filter(lambda s: abs(s - 1.0) > 1e-3))
def test_exp_log_sl_round_trip_and_chart_errors(d, seed, r, r_out, scale):
    """log_sl inverts exp_sl inside the chart, rejects a scaled P as not
    unimodular, and rejects |log P| > 1 (in 3D through the scipy fallback)."""
    c = np.random.default_rng(seed).standard_normal(d * d - 1)
    M = sg.coeffs_to_matrices(c / np.linalg.norm(c), d)
    P = sg.exp_sl(r * M)
    assert np.abs(sg.log_sl(P).entries - r * M).max() < 1e-10
    with pytest.raises(sg.NotUnimodular):
        sg.log_sl(scale * P)
    with pytest.raises(sg.LogDomain):
        sg.log_sl(sg.exp_sl(r_out * M))


# -- 2x2 closed-form log and its Frechet adjoint ---------------------------------


def _with_c_mu(c, mu):
    """2x2 matrix with half-trace c and c^2 - det = mu: c I plus a trace-free
    part that is a stretch (mu > 0) or a rotation generator (mu < 0)."""
    B = np.diag([1.0, -1.0]) if mu >= 0 else np.array([[0.0, 1.0], [-1.0, 0.0]])
    return c * np.eye(2) + np.sqrt(abs(mu)) * B


def _near_identity(rng, n, d=2):
    """Non-unimodular matrices near I, as the Gauss-point interpolants of P are."""
    c = rng.standard_normal((n, d * d - 1))
    c *= (0.4 * rng.random(n) / np.linalg.norm(c, axis=1))[:, None]
    P = sg.exp_batch(sg.coeffs_to_matrices(c, d))
    return P * rng.uniform(0.9, 1.1, n)[:, None, None] + 0.02 * rng.standard_normal((n, d, d))


def _log_branch_cases():
    """Every branch of the f(c, mu) closed form, and both sides of |r| = 1e-4."""
    cut = sg._LOG_SERIES_CUT
    cases = []
    for c in (0.93, 1.0, 1.08):
        for r in (0.0, 1e-9, -1e-9, 0.5 * cut, -0.5 * cut, cut, -cut,
                  cut * (1 + 1e-6), -cut * (1 + 1e-6), 2 * cut, -2 * cut, 0.01, -0.01, 0.05, -0.05):
            cases.append(_with_c_mu(c, r * c * c))
    # far from I: rotations by 50 and 80 degrees (u/c > 1) and a strong stretch
    for angle in (np.radians(50.0), np.radians(80.0)):
        cases.append(np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]))
    cases.append(np.diag([3.0, 0.4]))
    return np.array(cases)


def _logm_adjoint_oracle(A, W):
    """(Dlog_A)^* W as the upper-right block of logm([[A^T, W], [0, A^T]])."""
    d = A.shape[-1]
    blk = np.zeros((2 * d, 2 * d))
    blk[:d, :d] = blk[d:, d:] = A.T
    blk[:d, d:] = W
    return np.real(scipy.linalg.logm(blk))[:d, d:]


def test_log2_matches_scipy_logm_on_every_branch():
    rng = np.random.default_rng(21)
    A = np.concatenate([_log_branch_cases(), _near_identity(rng, 200)])
    r = (np.trace(A, axis1=1, axis2=2) / 2) ** 2 - np.linalg.det(A)
    assert (r > 0).any() and (r < 0).any()
    got = sg.log_batch(A)
    want = np.array([np.real(scipy.linalg.logm(a)) for a in A])
    assert np.abs(got - want).max() < 1e-13


def test_log2_frechet_adjoint_matches_block_logm_on_every_branch():
    rng = np.random.default_rng(22)
    A = np.concatenate([_log_branch_cases(), _near_identity(rng, 200)])
    W = rng.standard_normal(A.shape)
    got = sg.log_frechet_adjoint(A, W)
    want = np.array([_logm_adjoint_oracle(a, w) for a, w in zip(A, W)])
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_log2_continuous_across_series_cut():
    """Series and closed form agree where they hand over at |r| = 1e-4.

    The closed form of f_mu subtracts two terms of size sqrt|r| to leave one
    of size |r|^(3/2), so it keeps about eps_mach / |r| = 2e-12 relative."""
    cut = sg._LOG_SERIES_CUT
    for sign in (1.0, -1.0):
        for c0 in (0.9, 1.0, 1.1):
            c = np.full(2, c0)
            mu = sign * cut * c * c * np.array([1.0, 1.0 + 1e-12])
            f, fc, fmu = sg._log_f_funcs(c, mu)
            assert abs(f[0] - f[1]) < 1e-14 * abs(f[0])
            assert abs(fmu[0] - fmu[1]) < 1e-11 * abs(fmu[0])
            assert fc[0] == pytest.approx(fc[1], rel=1e-15)


def test_log2_kernels_raise_no_floating_point_warnings():
    """The lanes np.where discards (closed form on series lanes and the wrong
    hyperbolic/elliptic branch) must not warn."""
    rng = np.random.default_rng(23)
    A = np.concatenate([_log_branch_cases(), np.eye(2)[None], _near_identity(rng, 50)])
    W = rng.standard_normal(A.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sg.log_batch(A)
        sg.log_frechet_adjoint(A, W)


@pytest.mark.parametrize("bad", [
    np.diag([1.0, -1.0]),                    # det < 0
    np.array([[1.0, 1.0], [1.0, 1.0]]),      # det = 0
    -np.eye(2),                              # det > 0, tr < 0
    np.array([[0.0, 1.0], [-1.0, 0.0]]),     # det > 0, tr = 0
])
def test_log2_outside_chart_raises_log_domain(bad):
    batch = np.stack([np.eye(2), bad])
    with pytest.raises(sg.LogDomain):
        sg.log_batch(batch)
    with pytest.raises(sg.LogDomain):
        sg.log_frechet_adjoint(batch, np.ones((2, 2, 2)))


def _log_f_funcs_branchless(c, mu):
    """The f-functions by the earlier branchless formula, kept as an oracle:
    every lane evaluates the series and both closed forms, and ``np.where``
    keeps one."""
    c = np.asarray(c, dtype=float)
    mu = np.asarray(mu, dtype=float)
    det = c * c - mu
    r = mu / (c * c)
    small = np.abs(r) <= sg._LOG_SERIES_CUT
    f_series = (1.0 + r * (1.0 / 3.0 + r * (1.0 / 5.0 + r * (1.0 / 7.0)))) / c
    fmu_series = (1.0 / 3.0 + r * (2.0 / 5.0 + r * (3.0 / 7.0 + r * (4.0 / 9.0)))) / (c * c * c)
    pos = mu > 0
    u = np.where(small, 0.5 * c, np.sqrt(np.abs(mu)))
    t = u / c
    th = np.where(pos, np.arctanh(np.where(pos, t, 0.0)), np.arctan(t))
    f = np.where(small, f_series, th / u)
    fmu_closed = np.where(pos, c * u / det - th, th - c * u / det) / (2.0 * u * u * u)
    return f, -1.0 / det, np.where(small, fmu_series, fmu_closed)


def _f_lanes(rng, n, sign, r_low, r_high):
    """(c, mu) lanes with c in [0.8, 1.2] and r = mu / c^2 = sign |r|, |r|
    log-uniform in [r_low, r_high], so that every decade, the one next to
    the series cut included, gets lanes."""
    c = rng.uniform(0.8, 1.2, n)
    return c, sign * np.exp(rng.uniform(np.log(r_low), np.log(r_high), n)) * c * c


@pytest.mark.parametrize("case", ["series", "hyperbolic", "elliptic", "mixed", "0-d"])
def test_log_f_funcs_bit_identical_to_the_branchless_formula(case):
    """The masked kernel, which skips the closed forms on series lanes, gives
    the branchless formula's f, f_c and f_mu bit for bit, shape included."""
    rng = np.random.default_rng(31)
    cut = sg._LOG_SERIES_CUT
    lanes = {"series": [(1.0, 1e-12, cut), (-1.0, 1e-12, cut)],
             "hyperbolic": [(1.0, cut * (1 + 1e-12), 0.9)],
             "elliptic": [(-1.0, cut * (1 + 1e-12), 5.0)]}
    if case in lanes:
        parts = [_f_lanes(rng, 500, *args) for args in lanes[case]]
        inputs = [tuple(np.concatenate(arrays) for arrays in zip(*parts))]
    elif case == "mixed":
        parts = [_f_lanes(rng, 150, *args) for args in sum(lanes.values(), [])]
        order = rng.permutation(600)
        c, mu = (np.concatenate(arrays)[order].reshape(150, 4) for arrays in zip(*parts))
        inputs = [(c, mu)]
    else:
        # np.float64 scalars, as log_sl's single matrix hands them over, on every branch
        inputs = [(np.float64(c), np.float64(r * c * c))
                  for c in (0.9, 1.0, 1.1) for r in (0.0, 0.5 * cut, -0.5 * cut, 0.3, -0.3, -3.0)]
    for c, mu in inputs:
        for got, want in zip(sg._log_f_funcs(c, mu), _log_f_funcs_branchless(c, mu)):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_basis_maps_bit_identical_to_tensordot(d):
    """``coeffs_to_matrices`` and ``matrices_to_coeffs`` give the tensordot
    contractions over the basis bit for bit, with and without batch axes."""
    rng = np.random.default_rng(32)
    basis = sg.sl_basis(d)
    k = d * d - 1
    for shape in ((), (1,), (81,), (16_384,), (64, 4), (3, 5, 7)):
        coeffs = rng.standard_normal(shape + (k,))
        mats = rng.standard_normal(shape + (d, d))
        got = sg.coeffs_to_matrices(coeffs, d)
        want = np.tensordot(coeffs, basis, axes=([-1], [0]))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got = sg.matrices_to_coeffs(mats)
        want = np.tensordot(mats, basis, axes=([-2, -1], [1, 2]))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
