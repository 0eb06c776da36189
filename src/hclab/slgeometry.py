"""Charts on SL(d), the Frobenius generator, and the dissipation distance.

A leaf module: it imports nothing else from the package.  Quadrature of the
distance over a domain's fields is ``energies.dissipation_integral``.

Trace-free logarithm coordinates chart a neighborhood of the identity in
SL(d).  For d=2 the matrix exponential/logarithm and their Frechet
derivatives have closed forms via Cayley-Hamilton (M^2 = -det(M) I for
trace-free M), vectorized over stacked arrays.  For d >= 3 all four share one
batched power series (``_series``) inside the radii |M| <= 1 and
|P - I| <= 0.7, and one per-matrix scipy loop beyond (``_per_matrix``).
``exp_sl`` validates its input as a ``TraceFreeMatrix``.

The dissipation distance between two unimodular matrices is the infimum of
the path length sum_s Delta(Phi_s, (Phi_{s+1}-Phi_s)/h) * h over piecewise
paths on SL(d), where the generator Delta(F, M) = |F^{-1} M| is the
Frobenius norm; it is computed by descent on the log coordinates of the
interior nodes, starting from the one-parameter curve
Phi(t) = F0 exp(t log(F0^{-1} F1)).  The distance is treated as possibly
non-symmetric throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg


class SLError(ValueError):
    """Base class for SL(d) chart and solver failures."""


class LogDomain(SLError):
    """Matrix outside the logarithm chart (|log P| <= 1 enforced)."""


class SingularF(SLError):
    """Base point of the Finsler generator is singular."""


class NotUnimodular(SLError):
    """Determinant differs from 1 beyond tolerance."""


DET_TOL = 1e-9
TRACE_TOL = 1e-12


@lru_cache(maxsize=8)
def sl_basis(dim: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of the trace-free matrices sl(dim).

    Off-diagonal symmetric/antisymmetric pairs then the diagonal directions;
    shape (dim*dim - 1, dim, dim).  Coefficient vectors in this basis have
    Euclidean norm equal to the Frobenius norm of the matrix.
    """
    mats = []
    for i in range(dim):
        for j in range(i + 1, dim):
            s = np.zeros((dim, dim))
            s[i, j] = s[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(s)
            a = np.zeros((dim, dim))
            a[i, j] = 1.0 / math.sqrt(2.0)
            a[j, i] = -1.0 / math.sqrt(2.0)
            mats.append(a)
    for k in range(1, dim):
        v = np.zeros((dim, dim))
        for i in range(k):
            v[i, i] = 1.0
        v[k, k] = -float(k)
        mats.append(v / math.sqrt(k + k * k))
    out = np.array(mats)
    out.setflags(write=False)
    return out


def coeffs_to_matrices(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Map basis coefficients (..., dim^2-1) to trace-free matrices (..., dim, dim)."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = dim * dim - 1
    out = coeffs.reshape(-1, k) @ sl_basis(dim).reshape(k, dim * dim)
    return out.reshape(coeffs.shape[:-1] + (dim, dim))


def matrices_to_coeffs(mats: np.ndarray) -> np.ndarray:
    """Project matrices onto the orthonormal sl(d) basis."""
    mats = np.asarray(mats, dtype=float)
    dim = mats.shape[-1]
    k = dim * dim - 1
    out = mats.reshape(-1, dim * dim) @ sl_basis(dim).reshape(k, dim * dim).T
    return out.reshape(mats.shape[:-2] + (k,))


@dataclass(frozen=True)
class TraceFreeMatrix:
    """Validated element of sl(d)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise SLError(f"expected a square matrix, got shape {e.shape}")
        if abs(np.trace(e)) > TRACE_TOL:
            raise SLError(f"trace {np.trace(e):.3e} exceeds tolerance {TRACE_TOL}")
        object.__setattr__(self, "entries", e)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


# ----------------------------------------------------------------------------
# Batched closed forms for d = 2.  For trace-free M, M^2 = nu I with
# nu = -det M, so exp(M) = C(nu) I + S(nu) M with the entire functions
# C = cosh(sqrt(nu)), S = sinh(sqrt(nu))/sqrt(nu) (trigonometric for nu < 0).

_SERIES_CUT = 1e-6


def _cs_funcs(nu: np.ndarray):
    """C(nu), S(nu), and their nu-derivatives, stable through nu = 0."""
    nu = np.asarray(nu, dtype=float)
    C = np.empty_like(nu)
    S = np.empty_like(nu)
    Sp = np.empty_like(nu)
    small = np.abs(nu) <= _SERIES_CUT
    ns = nu[small]
    C[small] = 1.0 + ns / 2.0 + ns**2 / 24.0 + ns**3 / 720.0
    S[small] = 1.0 + ns / 6.0 + ns**2 / 120.0 + ns**3 / 5040.0
    Sp[small] = 1.0 / 6.0 + ns / 60.0 + ns**2 / 2520.0
    pos = (~small) & (nu > 0)
    sp = np.sqrt(nu[pos])
    C[pos] = np.cosh(sp)
    S[pos] = np.sinh(sp) / sp
    Sp[pos] = (C[pos] - S[pos]) / (2.0 * nu[pos])
    neg = (~small) & (nu < 0)
    sn = np.sqrt(-nu[neg])
    C[neg] = np.cos(sn)
    S[neg] = np.sin(sn) / sn
    Sp[neg] = (C[neg] - S[neg]) / (2.0 * nu[neg])
    Cp = S / 2.0
    return C, S, Cp, Sp


def _exp_tf2(M: np.ndarray) -> np.ndarray:
    """exp on stacked 2x2 trace-free matrices."""
    nu = -(M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0])
    C, S, _, _ = _cs_funcs(nu)
    eye = np.eye(2)
    return C[..., None, None] * eye + S[..., None, None] * M


def _exp_tf_frechet_adjoint2(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Adjoint of the differential of exp at M applied to W (stacked 2x2).

    d exp_M[dM] = (C' I + S' M)(M^T : dM) + S dM, hence the adjoint is
    (C' tr W + S' (W : M)) M^T + S W.
    """
    nu = -(M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0])
    _, S, Cp, Sp = _cs_funcs(nu)
    trW = W[..., 0, 0] + W[..., 1, 1]
    WdotM = np.einsum("...ij,...ij->...", W, M)
    alpha = Cp * trW + Sp * WdotM
    return alpha[..., None, None] * np.swapaxes(M, -1, -2) + S[..., None, None] * W


_LOG_SERIES_CUT = 1e-4


def _log_f_funcs(c: np.ndarray, mu: np.ndarray):
    """f(c, mu) with log A = (log det A)/2 I + f B, B = A - c I, mu = c^2 - det A.

    Series in r = mu/c^2 around 0 matches both the hyperbolic (mu > 0) and
    elliptic (mu < 0) branches; f_c = -1/det A on every branch.  Requires
    c > 0 and det A > 0.  The series is a few multiply-adds and runs on
    every lane.  The closed forms, with their sqrt, artanh and arctan, run
    only on the lanes with |r| beyond ``_LOG_SERIES_CUT``, gathered by mask
    and written back over the series, so series lanes (all of them near the
    identity) pay for no closed form.  Among those lanes both angles are
    taken and ``np.where`` keeps one, which is cheaper than splitting them
    again; artanh sees 0 on elliptic lanes, where u/c = tan(angle) may
    exceed 1.  Accepts 0-d input, as ``log_sl`` passes one matrix.
    """
    c = np.asarray(c, dtype=float)
    mu = np.asarray(mu, dtype=float)
    r = mu / (c * c)
    # np.asarray: arithmetic on 0-d input yields scalars, which take no masked writes
    f = np.asarray((1.0 + r * (1.0 / 3.0 + r * (1.0 / 5.0 + r * (1.0 / 7.0)))) / c)
    fmu = np.asarray((1.0 / 3.0 + r * (2.0 / 5.0 + r * (3.0 / 7.0 + r * (4.0 / 9.0)))) / (c * c * c))
    far = np.abs(r) > _LOG_SERIES_CUT
    if far.any():
        cf, muf = c[far], mu[far]
        # u = sqrt|mu|; the angle is artanh(u/c) (mu > 0, where u < c) or arctan(u/c)
        u = np.sqrt(np.abs(muf))
        t = u / cf
        pos = muf > 0
        th = np.where(pos, np.arctanh(np.where(pos, t, 0.0)), np.arctan(t))
        cud = cf * u / (cf * cf - muf)
        f[far] = th / u
        fmu[far] = np.where(pos, cud - th, th - cud) / (2.0 * u * u * u)
    fc = -1.0 / (c * c - mu)
    return f, fc, fmu


def _log2_chart(A: np.ndarray):
    """(a, b, cc, dd, c, det) of stacked 2x2 A = [[a, b], [cc, dd]] with
    half-trace c and determinant det; raises LogDomain outside the chart."""
    a, b, cc, dd = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    c = 0.5 * (a + dd)
    det = a * dd - b * cc
    if np.any(det <= 0) or np.any(c <= 0):
        raise LogDomain("matrix outside the 2x2 principal-log chart (det <= 0 or tr <= 0)")
    return a, b, cc, dd, c, det


def _log2_parts(A: np.ndarray):
    """Principal log of stacked 2x2 A (det > 0, positive half-trace) and the
    chart and f-functions it was computed from, which its adjoint reuses."""
    chart = _log2_chart(A)
    a, b, cc, dd, c, det = chart
    funcs = _log_f_funcs(c, c * c - det)
    f = funcs[0]
    half_logdet = 0.5 * np.log(det)
    out = np.empty(A.shape)
    out[..., 0, 0] = half_logdet + f * (a - c)
    out[..., 0, 1] = f * b
    out[..., 1, 0] = f * cc
    out[..., 1, 1] = half_logdet + f * (dd - c)
    return out, (chart, funcs)


def _log_frechet_adjoint2(parts, W: np.ndarray) -> np.ndarray:
    """Adjoint of the differential of log at A applied to W (stacked 2x2),
    from the ``parts`` of ``_log2_parts(A)``.

    With B = A - c I and cof(A) the cofactor matrix,
    (Dlog_A)^* W = k_cof cof(A) + k_eye I + f W.
    """
    (a, b, cc, dd, c, det), (f, fc, fmu) = parts
    w00, w01, w10, w11 = W[..., 0, 0], W[..., 0, 1], W[..., 1, 0], W[..., 1, 1]
    trW = w00 + w11
    WdotB = w00 * (a - c) + w01 * b + w10 * cc + w11 * (dd - c)
    k_eye = WdotB * (0.5 * fc + fmu * c) - 0.5 * f * trW
    k_cof = 0.5 * trW / det - WdotB * fmu
    out = np.empty(np.broadcast_shapes(a.shape + (2, 2), W.shape))
    out[..., 0, 0] = k_cof * dd + k_eye + f * w00
    out[..., 0, 1] = -k_cof * cc + f * w01
    out[..., 1, 0] = -k_cof * b + f * w10
    out[..., 1, 1] = k_cof * a + k_eye + f * w11
    return out


_LOG_SERIES_RADIUS = 0.7


def _series(B: np.ndarray, coeff, W: np.ndarray | None = None) -> np.ndarray:
    """sum_{n>=1} coeff(n) B^n on stacked matrices, or with W the Frechet sum
    sum_{n>=1} coeff(n) S_n, S_n = sum_{i+j=n-1} B^i W B^j, by the recurrence
    S_{n+1} = B S_n + W B^n (two batched matmuls per term).

    Stops once two consecutive terms leave the sum bit for bit unchanged.  One
    is not enough for the Frechet sum: S_n vanishes for every even n when
    B = diag(b, -b, 0) and W = E_12, but two consecutive S_n ~ 0 force
    W B^n ~ 0 and so every later term.  The callers' radius checks make the terms decay
    geometrically, so the loop ends."""
    Bn = B
    S = B if W is None else np.broadcast_to(W, B.shape)
    out = coeff(1) * S
    new = np.empty_like(out)  # the sum swaps between two buffers: a term allocates only matmuls
    n, quiet = 1, 0
    while quiet < 2:
        n += 1
        if W is None:
            S = Bn = np.matmul(Bn, B)
        else:
            S = np.matmul(B, S)
            S += np.matmul(W, Bn)
            Bn = np.matmul(Bn, B)
        np.multiply(S, coeff(n), out=new)
        new += out
        quiet = quiet + 1 if np.array_equal(new, out) else 0
        out, new = new, out
    return out


def _per_matrix(fn, A: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
    """``fn`` on each matrix of the stack A (with W, on each pair of A and W
    broadcast to A's shape), stacked back into A's shape: the scipy fallback
    of the four chart kernels beyond the series radii."""
    flat = A.reshape((-1,) + A.shape[-2:])
    if W is None:
        outs = [fn(a) for a in flat]
    else:
        outs = [fn(a, w) for a, w in zip(flat, np.broadcast_to(W, A.shape).reshape(flat.shape))]
    return np.stack(outs).reshape(A.shape)


def _exp_coeff(n: int) -> float:
    return 1.0 / math.factorial(n)


def _log_coeff(n: int) -> float:
    return (-1.0) ** (n + 1) / n


def exp_batch(M: np.ndarray) -> np.ndarray:
    """exp on stacked trace-free matrices (closed form for 2x2, batched
    series within the chart otherwise, scipy beyond)."""
    M = np.asarray(M, dtype=float)
    if M.shape[-1] == 2:
        return _exp_tf2(M)
    if np.linalg.norm(M, axis=(-2, -1)).max(initial=0.0) <= 1.0:
        return np.eye(M.shape[-1]) + _series(M, _exp_coeff)
    return _per_matrix(scipy.linalg.expm, M)


def log_batch(P: np.ndarray) -> np.ndarray:
    """Principal log on stacked matrices near the identity (closed form for
    2x2, Mercator series for |P - I| <= 0.7 otherwise, scipy beyond)."""
    P = np.asarray(P, dtype=float)
    if P.shape[-1] == 2:
        return _log2_parts(P)[0]
    B = P - np.eye(P.shape[-1])
    if np.linalg.norm(B, axis=(-2, -1)).max(initial=0.0) <= _LOG_SERIES_RADIUS:
        return _series(B, _log_coeff)
    return _per_matrix(lambda p: np.real(scipy.linalg.logm(p)), P)


def exp_frechet_adjoint(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(d exp_M)^* W for the chart sl(d) -> matrices.

    Meaningful modulo trace: contractions against trace-free directions are
    exact, which is the only way gradient chains use it.  The 2x2 branch
    differentiates the Cayley-Hamilton closed form.  Otherwise the adjoint is
    L_exp(M^T, W): the Frechet series of exp at M^T for |M| <= 1, scipy's
    expm_frechet beyond."""
    M = np.asarray(M, dtype=float)
    W = np.asarray(W, dtype=float)
    if M.shape[-1] == 2:
        return _exp_tf_frechet_adjoint2(M, W)
    if np.linalg.norm(M, axis=(-2, -1)).max(initial=0.0) <= 1.0:
        return _series(np.swapaxes(M, -1, -2), _exp_coeff, W)
    return _per_matrix(lambda m, w: scipy.linalg.expm_frechet(m.T, w, compute_expm=False), M, W)


def log_frechet_adjoint(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(d log_A)^* W = L_log(A^T, W).  The 2x2 branch differentiates the
    closed form.  Otherwise it is the Frechet series of the Mercator log at
    A^T for |A - I| <= 0.7, and beyond that the upper-right block of
    logm([[A^T, W], [0, A^T]])."""
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if A.shape[-1] == 2:
        return _log_frechet_adjoint2(_log2_parts(A)[1], W)
    d = A.shape[-1]
    B = np.swapaxes(A, -1, -2) - np.eye(d)
    if np.linalg.norm(B, axis=(-2, -1)).max(initial=0.0) <= _LOG_SERIES_RADIUS:
        return _series(B, _log_coeff, W)

    def block_log(a, w):
        return np.real(scipy.linalg.logm(np.block([[a.T, w], [np.zeros_like(a), a.T]])))[:d, d:]

    return _per_matrix(block_log, A, W)


def log_and_adjoint(P: np.ndarray):
    """Principal log of stacked matrices with the adjoint of its differential
    at P: returns ``(log P, adjoint)`` where ``adjoint(W)`` equals
    ``log_frechet_adjoint(P, W)`` bit for bit.  For 2x2 the adjoint reuses the
    chart and f-functions of the log, so each matrix gets one
    ``_log_f_funcs`` evaluation however many cotangents are pulled back."""
    P = np.asarray(P, dtype=float)
    if P.shape[-1] == 2:
        logs, parts = _log2_parts(P)
        return logs, lambda W: _log_frechet_adjoint2(parts, np.asarray(W, dtype=float))
    return log_batch(P), lambda W: log_frechet_adjoint(P, W)


def exp_sl(M) -> np.ndarray:
    """Exponential chart sl(d) -> SL(d); an array is validated as a ``TraceFreeMatrix``."""
    if not isinstance(M, TraceFreeMatrix):
        M = TraceFreeMatrix(M)
    return exp_batch(M.entries)


def log_sl(P) -> TraceFreeMatrix:
    """Inverse chart; requires det P = 1 (to ``DET_TOL``) and |log P| <= 1."""
    P = np.asarray(P, dtype=float)
    det = np.linalg.det(P)
    if abs(det - 1.0) > DET_TOL:
        raise NotUnimodular(f"det P = {det!r} violates |det-1| <= {DET_TOL}")
    M = log_batch(P)
    if np.linalg.norm(M) > 1.0 + 1e-9:
        raise LogDomain(f"|log P| = {np.linalg.norm(M):.4f} exceeds the chart radius 1")
    tf = M - (np.trace(M) / P.shape[-1]) * np.eye(P.shape[-1])
    return TraceFreeMatrix(tf)


# ----------------------------------------------------------------------------
# Finsler generator and dissipation distance.


def finsler(F: np.ndarray, M: np.ndarray) -> float:
    """Delta(F, M) = |F^{-1} M|, the translated generator on T SL(d)."""
    F = np.asarray(F, dtype=float)
    if abs(np.linalg.det(F)) < 1e-12:
        raise SingularF("base point F is singular")
    return float(np.linalg.norm(np.linalg.solve(F, np.asarray(M, dtype=float)), axis=(-2, -1)))


@dataclass
class PiecewisePath:
    """Discrete path on SL(d): its nodes, and whether the descent that found it converged."""

    nodes: np.ndarray
    converged: bool = True

    def __post_init__(self):
        dets = np.linalg.det(self.nodes)
        if np.any(np.abs(dets - 1.0) > DET_TOL):
            raise NotUnimodular(f"path node determinant violates the {DET_TOL} tolerance")


def _path_value(nodes: np.ndarray) -> float:
    """sum_s Delta(Phi_s, (Phi_{s+1}-Phi_s)/h) * h; for 1-homogeneous Delta the h cancels."""
    steps = np.linalg.solve(nodes[:-1], nodes[1:]) - np.eye(nodes.shape[-1])
    return float(np.sum(np.linalg.norm(steps, axis=(-2, -1))))


def _path_value_grad_frob(B_int: np.ndarray, ends: tuple) -> tuple:
    """Value and gradient (wrt interior log coords) for the Frobenius generator.

    Interior nodes Phi_s = exp(B_s).  Writing C_s = Phi_s^{-1} Phi_{s+1} - I,
    the term |C_s| depends on Phi_s and Phi_{s+1}; the two matrix
    sensitivities are pulled back through the exp differential adjoint.
    """
    F0, F1 = ends
    phis = np.concatenate([F0[None], exp_batch(B_int), F1[None]], axis=0)
    d = F0.shape[-1]
    inv = np.linalg.inv(phis[:-1])
    R = inv @ phis[1:]
    C = R - np.eye(d)
    v = np.linalg.norm(C, axis=(-2, -1))
    value = float(v.sum())
    vsafe = np.maximum(v, 1e-300)
    U = C / vsafe[..., None, None]
    invT = np.swapaxes(inv, -1, -2)
    # d|C_s| / dPhi_{s+1} and d|C_s| / dPhi_s
    g_next = invT @ U
    g_self = -invT @ U @ np.swapaxes(R, -1, -2)
    sens = np.zeros_like(phis)
    sens[1:] += g_next
    sens[:-1] += g_self
    sens_int = sens[1:-1]
    adj = exp_frechet_adjoint(B_int, sens_int)
    grad = matrices_to_coeffs(adj)
    return value, grad


def dissipation_distance(
    F0,
    F1,
    segments: int = 16,
    iters: int = 200,
    tol: float = 1e-10,
) -> tuple:
    """Discretized Finsler distance D(F0, F1) and the realizing path.

    Starts from Phi(t) = F0 exp(t log(F0^{-1} F1)) and descends over the log
    coordinates of the interior nodes (L-BFGS with the analytic gradient of
    the Frobenius generator).  The returned value never exceeds the initial
    curve's discretized length.  With iters = 0 the exp-curve quadrature
    itself is returned, which is the canonical upper-bound evaluation.
    """
    F0 = np.asarray(F0, dtype=float)
    F1 = np.asarray(F1, dtype=float)
    if segments < 1:
        raise SLError("segments must be >= 1")
    d = F0.shape[-1]
    if np.allclose(F0, F1, atol=1e-15, rtol=0.0):
        nodes = np.repeat(F0[None], segments + 1, axis=0)
        return 0.0, PiecewisePath(nodes=nodes)
    L = log_batch(np.linalg.solve(F0, F1))
    ts = np.linspace(0.0, 1.0, segments + 1)
    nodes0 = np.einsum("ij,sjk->sik", F0, exp_batch(ts[:, None, None] * L))
    value0 = _path_value(nodes0)
    best_nodes, best_value = nodes0, value0
    converged = True

    if iters > 0 and segments >= 2:
        from scipy import optimize  # imported only here, off the stock study's path

        B0 = matrices_to_coeffs(log_batch(nodes0[1:-1]))
        shape = B0.shape

        def objective(x):
            val, grad = _path_value_grad_frob(coeffs_to_matrices(x.reshape(shape), d), (F0, F1))
            return val, grad.reshape(-1)

        res = optimize.minimize(
            objective,
            B0.reshape(-1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": iters, "ftol": tol, "gtol": tol},
        )
        if res.fun < best_value:
            B = coeffs_to_matrices(res.x.reshape(shape), d)
            best_nodes = np.concatenate([F0[None], exp_batch(B), F1[None]], axis=0)
            best_value = float(res.fun)
        converged = bool(res.success) or res.fun <= value0 + tol

    return best_value, PiecewisePath(nodes=best_nodes, converged=converged)


def dissipation_distance_batch(P_bar: np.ndarray, P: np.ndarray, segments: int = 8) -> np.ndarray:
    """Exp-curve quadrature of D on stacked pairs (upper-bound evaluation).

    Along Phi(t) = P_bar exp(t L), L = log(P_bar^{-1} P), every segment costs
    |exp(L/S) - I|; this is the iters = 0 path of dissipation_distance,
    vectorized for field quadrature.
    """
    L = log_batch(np.linalg.solve(P_bar, P))
    step = exp_batch(L / segments) - np.eye(P.shape[-1])
    return segments * np.linalg.norm(step, axis=(-2, -1))
