"""Assembly of the discrete high-contrast functionals and their gradients.

The total energy of a state (y, P) on the eps-composite is

    soft:   int chi0 W0_eps( eps grad(y) P^{-1} )
    stiff:  int chi1 W1( grad(y) P^{-1} )
    + int H(P)  (booked per phase)  + int |grad P|^q

with the contrast factor eps multiplying grad(y) only in the soft term.
Gradients with respect to the nodal deformation values and the nodal log
coordinates of P are assembled analytically; the exponential and logarithm
differentials enter through their closed-form adjoints.

A ``JEpsPass`` is one assembly at (y, P): it computes the energy and keeps
the per-Gauss arrays (the inverse of P, F, the log chart, grad P and its
norms) from which its gradient is finished on request.  ``assemble_J_eps``
and ``value_and_grad_J_eps`` are thin wrappers over that pass.  The Gauss
data that depend on y alone are a ``FixedY``, which the P-step of
``minimize`` builds once and passes as y: every trial point is then valued
by one pass, and at the point the line search accepts,
``value_and_grad_J_eps`` finishes the gradient of the pass the FixedY kept
instead of assembling that point a second time.  ``sobolev_metric`` builds
the P-step's metric from the same kept pass.

The gradient sums every P-cotangent at each Gauss point (the elastic
-F^T W'(F) P^{-T} of both phases and the hardening 2 h1 (Dlog_P)^*(log P))
before scattering it, so a full gradient makes three scatters: the y
cotangent, the P values and the |grad P|^q term; the last two and the
pull-back to the nodal log coordinates are ``log_coefficient_gradient``,
which the homogenized functional shares.  For d = 2 the stacked 2x2 products
and inverses are written entrywise.  Reductions are plain numpy sums
(pairwise) and the grid's CSR scatters sum in a fixed order, so repeated
assemblies of the same state are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    total: float

    @classmethod
    def from_parts(cls, soft_elastic, stiff_elastic, hardening_soft, hardening_stiff, grad_P_term):
        parts = (soft_elastic, stiff_elastic, hardening_soft, hardening_stiff, grad_P_term)
        return cls(*parts, total=float(sum(parts)))


@dataclass
class GradJEps:
    """Gradient of the energy: nodal y part, nodal sl-coefficient part."""

    grad_y: np.ndarray
    grad_m: np.ndarray
    crease_count: int = 0


def _check_grids(domain, y: DeformationField) -> None:
    if y.grid.dim != domain.dim or y.grid.n_el != domain.n_el:
        raise GridMismatch(f"deformation grid {y.grid.n_el} does not match domain grid {domain.n_el}")


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


def log_coefficient_gradient(grid, P: PlasticField, dP: np.ndarray, gradP: np.ndarray,
                             qn: np.ndarray, q: float) -> np.ndarray:
    """Gradient with respect to the nodal log coefficients of P from its
    per-Gauss cotangents: ``dP`` (E, g, d, d) pairs with the values of P, and
    the |grad P|^q term, with ``gradP`` its Gauss gradients and ``qn`` their
    squared norms, pairs with the gradients.  One scatter each, then the
    adjoint differential of the exponential at the nodes and the projection
    onto the sl(d) basis."""
    R_nodes = np.zeros((grid.n_nodes, grid.dim, grid.dim))
    grid.accumulate_from_values(dP, R_nodes)
    fac = q * np.power(np.maximum(qn, 1e-300), (q - 2.0) / 2.0)
    grid.accumulate_from_gradients(fac[..., None, None, None] * gradP, R_nodes)
    adj = slgeometry.exp_frechet_adjoint(P.log_matrices(), R_nodes)
    return np.einsum("nij,kij->nk", adj, slgeometry.sl_basis(grid.dim))


class FixedY:
    """The Gauss data of J_eps that depend on the deformation alone: grad y
    at the Gauss points, the phase of each element and its contrast factor.

    Passed as ``y`` to ``assemble_J_eps`` or ``value_and_grad_J_eps``, one
    FixedY serves every assembly at its deformation, and it keeps the latest
    pass made with it (``latest``): ``value_and_grad_J_eps`` at that pass's
    model and P (the same objects, unmodified) finishes its gradient instead
    of assembling the point again.
    """

    def __init__(self, domain, y: DeformationField):
        _check_grids(domain, y)
        self.domain = domain
        self.y = y
        self.G = y.grid.gauss_gradients(y.values)  # (E, g, d, d)
        self.soft_els = domain.soft_field.reshape(-1)
        self.stiff_els = ~self.soft_els
        self.scale = np.where(self.soft_els, domain.eps, 1.0)[:, None, None, None]
        self.latest = None


class JEpsPass:
    """One assembly of J_eps at (y, P): ``breakdown`` is the energy, and
    ``gradient()`` finishes its gradient from the arrays this pass computed.

    Chain rule per Gauss point: with F = s G P^{-1}, s = eps on soft elements
    and 1 on stiff ones,

        d/dG  = s W'(F) P^{-T}
        d/dP  = -F^T W'(F) P^{-T}
        d/dP [h0 + h1 |log P|^2] = 2 h1 (Dlog_P)^*(log P)
        d/dT |T|^q = q |T|^{q-2} T   for the plastic-gradient tensor T,

    then from the P-space cotangents to the nodal log coordinates through the
    adjoint differential of the exponential.  Boundary rows of the y gradient
    are zeroed when the field carries the zero-trace condition.
    """

    def __init__(self, model, fixed: FixedY, P: PlasticField):
        grid = fixed.y.grid
        if P.grid.n_el != grid.n_el or P.grid.dim != grid.dim:
            raise GridMismatch("plastic field grid does not match the deformation grid")
        # the y data, not the FixedY itself: FixedY.latest refers to this pass
        self.y, self.eps, self.scale = fixed.y, fixed.domain.eps, fixed.scale
        self.soft_els, self.stiff_els = soft_els, stiff_els = fixed.soft_els, fixed.stiff_els
        self.model, self.P = model, P

        Pn = P.matrices()
        Pg = grid.gauss_values(Pn)                       # (E, g, d, d)
        self.Pinv = _inv_batch(Pg)
        self.gradP = grid.gauss_gradients(Pn)            # (E, g, d, d, k)
        self.logs, self.log_adjoint = slgeometry.log_and_adjoint(Pg)

        self.F = self.scale * _matmul(fixed.G, self.Pinv)
        self.F_soft = self.F[soft_els]
        self.F_stiff = self.F[stiff_els]
        w_soft = model.W_soft_family.value(self.eps, self.F_soft)
        w_stiff = model.W_stiff.value(self.F_stiff)
        Hg = model.h0 + model.h1 * np.einsum("...ij,...ij->...", self.logs, self.logs)
        self.qn = np.einsum("egijk,egijk->eg", self.gradP, self.gradP)
        q_term = self.qn ** (model.q / 2.0)

        wq = grid.gauss_weight * grid.h**grid.dim
        self.breakdown = EnergyBreakdown.from_parts(
            soft_elastic=float(np.sum(w_soft) * wq),
            stiff_elastic=float(np.sum(w_stiff) * wq),
            hardening_soft=float(np.sum(Hg[soft_els]) * wq),
            hardening_stiff=float(np.sum(Hg[stiff_els]) * wq),
            grad_P_term=float(np.sum(q_term) * wq),
        )

    def gradient(self) -> GradJEps:
        """Gradient with respect to all degrees of freedom; per-Gauss
        cotangents of both phases, each scattered once."""
        model, y, grid = self.model, self.y, self.y.grid
        Wp = np.empty_like(self.F)
        Wp[self.soft_els], crease = model.W_soft_family.grad(self.eps, self.F_soft, return_crease=True)
        Wp[self.stiff_els] = model.W_stiff.grad(self.F_stiff)
        WpPinvT = _matmul(Wp, np.swapaxes(self.Pinv, -1, -2))
        grad_y = np.zeros_like(y.values)
        grid.accumulate_from_gradients(self.scale * WpPinvT, grad_y)

        dP = 2.0 * model.h1 * self.log_adjoint(self.logs)
        dP -= _matmul(np.swapaxes(self.F, -1, -2), WpPinvT)
        grad_m = log_coefficient_gradient(grid, self.P, dP, self.gradP, self.qn, model.q)
        if y.bc == "zero":
            grad_y[grid.boundary_node_mask()] = 0.0
        return GradJEps(grad_y=grad_y, grad_m=grad_m, crease_count=crease)


def _pass(domain, model, y, P: PlasticField) -> JEpsPass:
    """The pass at (y, P); ``y`` is a DeformationField or a FixedY, whose
    latest pass is reused when it was made at this model and P."""
    if not isinstance(y, FixedY):
        return JEpsPass(model, FixedY(domain, y), P)
    if y.domain is not domain:
        raise GridMismatch("the fixed deformation data belong to another domain")
    if y.latest is None or y.latest.model is not model or y.latest.P is not P:
        y.latest = None  # release the previous pass's arrays before assembling
        y.latest = JEpsPass(model, y, P)
    return y.latest


def assemble_J_eps(domain, model, y, P: PlasticField) -> EnergyBreakdown:
    """Assemble the split energy on the composite; ``y`` is the deformation
    or its ``FixedY``."""
    return _pass(domain, model, y, P).breakdown


def value_and_grad_J_eps(domain, model, y, P: PlasticField):
    """(EnergyBreakdown, GradJEps): the energy and its analytic gradient with
    respect to all degrees of freedom (see ``JEpsPass``).  With a ``FixedY``
    as ``y`` whose latest pass is at this P, the gradient is finished from
    that pass and nothing is assembled."""
    point = _pass(domain, model, y, P)
    return point.breakdown, point.gradient()


def sobolev_metric(domain, model, y, P: PlasticField):
    """The metric of the composite P-step at (y, P): the sparse scalar nodal
    operator

        H = sum_g wq [2 h1 N_g N_g^T + q |grad P_g|^(q-2) dN_g dN_g^T],

    which acts alike on each sl-coefficient column.  Its mass part is the
    exact Hessian of the hardening at P = I in the orthonormal ``sl_basis``
    coordinates; the weighted Laplacian is the lagged-diffusivity (Kacanov)
    linearisation of |grad P|^q at this pass's grad P.  Since q > d >= 2 the
    weight is finite, and 0 where grad P = 0.  ``y`` as in
    ``value_and_grad_J_eps``: the latest pass of a FixedY at this P is reused.
    """
    point = _pass(domain, model, y, P)
    grid = point.y.grid
    wq = grid.gauss_weight * grid.h**grid.dim
    mass = 2.0 * model.h1 * np.einsum("gn,gm->nm", grid.N_gauss, grid.N_gauss)
    dNdN = np.einsum("gnk,gmk->gnm", grid.dN_gauss, grid.dN_gauss).reshape(grid.n_gauss, -1)
    lagged = model.q * point.qn ** ((model.q - 2.0) / 2.0)  # (E, g)
    blocks = (lagged @ dNdN).reshape(-1, grid.n_corners, grid.n_corners) + mass
    return grid.stiffness(wq * blocks)
