"""Assembly of the discrete high-contrast functionals and their gradients.

The total energy of a state (y, P) on the eps-composite is

    soft:   int chi0 W0_eps( eps grad(y) P^{-1} )
    stiff:  int chi1 W1( grad(y) P^{-1} )
    + int H(P)  (booked per phase)  + int |grad P|^q

with the contrast factor eps multiplying grad(y) only in the soft term.
Gradients with respect to the nodal deformation values and the nodal log
coordinates of P are assembled analytically; the exponential and logarithm
differentials enter through their closed-form adjoints.  Value and gradient
share one pass over the Gauss tables, since line searches evaluate both at
accepted points.

Assembly is vectorized over elements.  The gradient pass sums every
P-cotangent at each Gauss point (the elastic -F^T W'(F) P^{-T} of both phases
and the hardening 2 h1 (Dlog_P)^*(log P)) before scattering it, so one
assembly makes three scatters: the y cotangent, the P values and the
|grad P|^q term.  For d = 2 the stacked 2x2 products and inverses are written
entrywise.  Reductions are plain numpy sums (pairwise) and the grid's CSR
scatters sum in a fixed order, so repeated assemblies of the same state are
bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from hclab import slgeometry
from hclab.fields import DeformationField, GridMismatch, PlasticField


@dataclass(frozen=True)
class EnergyBreakdown:
    """Named parts of the assembled energy; total is their exact sum."""

    soft_elastic: float
    stiff_elastic: float
    hardening_soft: float
    hardening_stiff: float
    grad_P_term: float
    dissipation_soft: float
    dissipation_stiff: float
    total: float

    @classmethod
    def from_parts(cls, soft_elastic, stiff_elastic, hardening_soft, hardening_stiff,
                   grad_P_term, dissipation_soft=0.0, dissipation_stiff=0.0):
        parts = (soft_elastic, stiff_elastic, hardening_soft, hardening_stiff,
                 grad_P_term, dissipation_soft, dissipation_stiff)
        return cls(*parts, total=float(sum(parts)))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnergyBreakdown":
        return cls(**json.loads(text))


@dataclass
class GradJEps:
    """Gradient of the energy: nodal y part, nodal sl-coefficient part."""

    grad_y: np.ndarray
    grad_m: np.ndarray
    crease_count: int = 0

    def __iter__(self):
        return iter((self.grad_y, self.grad_m))


def _check_grids(domain, y: DeformationField, P: PlasticField) -> None:
    if y.grid.dim != domain.dim or y.grid.n_el != domain.n_el:
        raise GridMismatch(f"deformation grid {y.grid.n_el} does not match domain grid {domain.n_el}")
    if P.grid.n_el != y.grid.n_el or P.grid.dim != y.grid.dim:
        raise GridMismatch("plastic field grid does not match the deformation grid")


def _inv_batch(A: np.ndarray) -> np.ndarray:
    if A.shape[-1] == 2:
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
        out = np.empty(A.shape)
        out[..., 0, 0] = A[..., 1, 1] / det
        out[..., 0, 1] = -A[..., 0, 1] / det
        out[..., 1, 0] = -A[..., 1, 0] / det
        out[..., 1, 1] = A[..., 0, 0] / det
        return out
    return np.linalg.inv(A)


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked matrix product; entrywise for 2x2, where np.matmul's per-matrix
    overhead costs several times the arithmetic."""
    if A.shape[-1] != 2:
        return np.matmul(A, B)
    out = np.empty(np.broadcast_shapes(A.shape, B.shape))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = A[..., i, 0] * B[..., 0, j] + A[..., i, 1] * B[..., 1, j]
    return out


def _assemble(domain, model, y: DeformationField, P: PlasticField,
              soft_scale, family_eps, want_grad: bool):
    _check_grids(domain, y, P)
    grid = y.grid
    eps = domain.eps
    s = eps if soft_scale is None else soft_scale
    fe = eps if family_eps is None else family_eps
    soft_els = domain.soft_field.reshape(-1)
    stiff_els = ~soft_els
    scale = np.where(soft_els, s, 1.0)[:, None, None, None]  # contrast factor per element

    Pn = P.matrices()
    G = grid.gauss_gradients(y.values)          # (E, g, d, d)
    Pg = grid.gauss_matrix_values(Pn)           # (E, g, d, d)
    Pinv = _inv_batch(Pg)
    gradP = grid.gauss_gradients(Pn)            # (E, g, d, d, k)
    logs = slgeometry.log_batch(Pg)

    F = scale * _matmul(G, Pinv)
    F_soft = F[soft_els]
    F_stiff = F[stiff_els]
    w_soft = model.W_soft_family.value(fe, F_soft)
    w_stiff = model.W_stiff.value(F_stiff)
    Hg = model.h0 + model.h1 * np.einsum("...ij,...ij->...", logs, logs)
    qn = np.einsum("egijk,egijk->eg", gradP, gradP)
    q_term = qn ** (model.q / 2.0)

    wq = grid.gauss_weight * grid.h**grid.dim
    breakdown = EnergyBreakdown.from_parts(
        soft_elastic=float(np.sum(w_soft) * wq),
        stiff_elastic=float(np.sum(w_stiff) * wq),
        hardening_soft=float(np.sum(Hg[soft_els]) * wq),
        hardening_stiff=float(np.sum(Hg[stiff_els]) * wq),
        grad_P_term=float(np.sum(q_term) * wq),
    )
    if not want_grad:
        return breakdown, None

    # Per-Gauss cotangents of both phases, each scattered once.
    Wp = np.empty_like(F)
    Wp[soft_els], crease = model.W_soft_family.grad(fe, F_soft, return_crease=True)
    Wp[stiff_els] = model.W_stiff.grad(F_stiff)
    WpPinvT = _matmul(Wp, np.swapaxes(Pinv, -1, -2))
    grad_y = np.zeros_like(y.values)
    grid.accumulate_from_gradients(scale * WpPinvT, grad_y)

    dP = 2.0 * model.h1 * slgeometry.log_frechet_adjoint(Pg, logs)
    dP -= _matmul(np.swapaxes(F, -1, -2), WpPinvT)
    R_nodes = np.zeros((grid.n_nodes, grid.dim, grid.dim))
    grid.accumulate_from_values(dP, R_nodes)
    fac = model.q * np.power(np.maximum(qn, 1e-300), (model.q - 2.0) / 2.0)
    grid.accumulate_from_gradients(fac[..., None, None, None] * gradP, R_nodes)

    M_nodes = P.log_matrices()
    adj = slgeometry.exp_frechet_adjoint(M_nodes, R_nodes)
    grad_m = np.einsum("nij,kij->nk", adj, slgeometry.sl_basis(grid.dim))
    if y.bc == "zero":
        grad_y[grid.boundary_node_mask()] = 0.0
    return breakdown, GradJEps(grad_y=grad_y, grad_m=grad_m, crease_count=crease)


def assemble_J_eps(domain, model, y: DeformationField, P: PlasticField,
                   soft_scale: float | None = None, family_eps: float | None = None) -> EnergyBreakdown:
    """Assemble the split energy on the composite.

    ``soft_scale`` overrides the contrast factor in the soft argument and
    ``family_eps`` the parameter of the soft density family; both default to
    the domain's eps.  Overriding them separately is what the continuity
    diagnostics use.
    """
    breakdown, _ = _assemble(domain, model, y, P, soft_scale, family_eps, want_grad=False)
    return breakdown


def grad_J_eps(domain, model, y: DeformationField, P: PlasticField,
               soft_scale: float | None = None, family_eps: float | None = None) -> GradJEps:
    """Analytic gradient of assemble_J_eps with respect to all degrees of freedom.

    Chain rule per Gauss point: with F = s G P^{-1},

        d/dG  = s W'(F) P^{-T}
        d/dP  = -F^T W'(F) P^{-T}
        d/dP [h0 + h1 |log P|^2] = 2 h1 (Dlog_P)^*(log P)
        d/dT |T|^q = q |T|^{q-2} T   for the plastic-gradient tensor T,

    then from the P-space cotangents to the nodal log coordinates through the
    adjoint differential of the exponential.  Boundary rows of the y gradient
    are zeroed when the field carries the zero-trace condition.
    """
    _, grad = _assemble(domain, model, y, P, soft_scale, family_eps, want_grad=True)
    return grad


def value_and_grad_J_eps(domain, model, y: DeformationField, P: PlasticField):
    """One-pass (EnergyBreakdown, GradJEps) for line searches."""
    return _assemble(domain, model, y, P, None, None, want_grad=True)


def assemble_J_diss(domain, model, y: DeformationField, P: PlasticField, P_bar: PlasticField,
                    segments: int = 8, iters: int = 0) -> EnergyBreakdown:
    """Energy with the plastic-dissipation terms relative to a pre-existing strain.

    The elastic/hardening/regularizer parts are those of assemble_J_eps
    (interpreting the stored-energy functional as the sum of the two phase
    contributions); the dissipation integrals are split by phase.
    """
    base = assemble_J_eps(domain, model, y, P)
    d0 = slgeometry.dissipation_integral(domain, P_bar, P, phase=0, segments=segments, iters=iters)
    d1 = slgeometry.dissipation_integral(domain, P_bar, P, phase=1, segments=segments, iters=iters)
    return EnergyBreakdown.from_parts(
        soft_elastic=base.soft_elastic,
        stiff_elastic=base.stiff_elastic,
        hardening_soft=base.hardening_soft,
        hardening_stiff=base.hardening_stiff,
        grad_P_term=base.grad_P_term,
        dissipation_soft=d0,
        dissipation_stiff=d1,
    )
