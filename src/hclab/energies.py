"""Assembly of the discrete high-contrast functionals and their gradients.

The total energy of a state (y, P) on the eps-composite is

    soft:   int chi0 W0_eps( eps grad(y) P^{-1} )
    stiff:  int chi1 W1( grad(y) P^{-1} )
    + int H(P)  (booked per phase)  + int |grad P|^q

with the contrast factor eps multiplying grad(y) only in the soft term.
Gradients with respect to the nodal deformation values and the nodal log
coordinates of P are assembled analytically; the exponential and logarithm
differentials enter through their closed-form adjoints.

The internal variable enters both functionals alike: the hardening H(P) and
|grad P|^q pass to the homogenized limit unchanged.  So their terms are one
``PlasticPass`` per P, which ``JEpsPass`` (here) and
``cellproblems.JLimitPass`` each hold beside their elastic parts; its
``gradient(dP)`` pulls a per-Gauss cotangent of the values of P back to the
nodal log coordinates together with the P-only terms' own.

A ``JEpsPass`` is one assembly at (y, P): it computes the energy and keeps
the per-Gauss arrays (the inverse of P, F and its plastic pass) from which
its gradient is finished on request, handing -F^T W'(F) P^{-T} of both
phases to the plastic pass; a full gradient makes three scatters.
``assemble_J_eps`` and ``value_and_grad_J_eps`` are thin wrappers over that
pass.  The Gauss data that depend on y alone are a ``FixedY``, which the
P-step of ``minimize`` builds once and passes as y: every trial point is
then valued by one pass, and at the point the line search accepts,
``value_and_grad_J_eps`` finishes the gradient of the pass the FixedY kept
instead of assembling that point a second time.  ``sobolev_metric`` builds
the P-step's metric from the same kept pass.  ``dissipation_integral`` is the
quadrature of the dissipation distance D(P_bar, P) over one phase; it is a
report column, not a term of either functional.

For d = 2 the stacked 2x2 products and inverses are written entrywise.
Reductions are plain numpy sums (pairwise) and the grid's CSR scatters sum
in a fixed order, so repeated assemblies of the same state are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hclab import slgeometry
from hclab.fields import DeformationField, GridMismatch, PlasticField, check_same_grid


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


class PlasticPass:
    """The terms of one P shared by J_eps and J_limit: ``Pg`` (E, g, d, d),
    the Gauss values of P, with their principal ``logs`` and ``log_adjoint``;
    ``gradP`` (E, g, d, d, k) and its squared norms ``qn``; the per-Gauss
    ``hardening``; and ``grad_P_term``, the integral of |grad P|^q."""

    def __init__(self, model, P: PlasticField):
        grid = P.grid
        self.model, self.P = model, P
        Pn = P.matrices()
        self.Pg = grid.gauss_values(Pn)
        self.gradP = grid.gauss_gradients(Pn)
        self.logs, self.log_adjoint = slgeometry.log_and_adjoint(self.Pg)
        self.qn = np.einsum("egijk,egijk->eg", self.gradP, self.gradP)
        self.hardening = model.hardening(self.logs)
        self.grad_P_term = grid.integrate(self.qn ** (model.q / 2.0))

    def gradient(self, dP: np.ndarray) -> np.ndarray:
        """Gradient with respect to the nodal log coefficients of P, given the
        per-Gauss cotangent ``dP`` (E, g, d, d) of the values of P from the
        other terms.  With the hardening's 2 h1 (Dlog_P)^*(log P) added, it
        and d/dT |T|^q = q |T|^{q-2} T of the gradients are scattered once
        each, then pulled back by the adjoint differential of the exponential
        at the nodes and projected onto the sl(d) basis."""
        model, grid = self.model, self.P.grid
        R_nodes = np.zeros((grid.n_nodes, grid.dim, grid.dim))
        grid.accumulate_from_values(2.0 * model.h1 * self.log_adjoint(self.logs) + dP, R_nodes)
        fac = model.q * np.power(np.maximum(self.qn, 1e-300), (model.q - 2.0) / 2.0)
        grid.accumulate_from_gradients(fac[..., None, None, None] * self.gradP, R_nodes)
        adj = slgeometry.exp_frechet_adjoint(self.P.log_matrices(), R_nodes)
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
        check_same_grid(y.grid, domain, "deformation and domain")
        self.domain = domain
        self.y = y
        self.G = y.grid.gauss_gradients(y.values)  # (E, g, d, d)
        self.soft_els = domain.soft_elements
        self.stiff_els = ~self.soft_els
        self.scale = np.where(self.soft_els, domain.eps, 1.0)[:, None, None, None]
        self.latest = None


class JEpsPass:
    """One assembly of J_eps at (y, P): ``breakdown`` is the energy, and
    ``gradient()`` finishes its gradient from the arrays this pass computed.

    Chain rule per Gauss point: with F = s G P^{-1}, s = eps on soft elements
    and 1 on stiff ones,

        d/dG  = s W'(F) P^{-T}
        d/dP  = -F^T W'(F) P^{-T},

    the latter handed to the ``PlasticPass``, which adds the P-only terms and
    pulls the sum back to the nodal log coordinates.  The y gradient has a
    row for every node, the boundary ones included.
    """

    def __init__(self, model, fixed: FixedY, P: PlasticField):
        grid = fixed.y.grid
        check_same_grid(P.grid, grid, "plastic field and deformation")
        # the y data, not the FixedY itself: FixedY.latest refers to this pass
        self.y, self.eps, self.scale = fixed.y, fixed.domain.eps, fixed.scale
        self.soft_els, self.stiff_els = soft_els, stiff_els = fixed.soft_els, fixed.stiff_els
        self.model, self.P = model, P
        self.plastic = plastic = PlasticPass(model, P)
        self.Pinv = _inv_batch(plastic.Pg)

        self.F = self.scale * _matmul(fixed.G, self.Pinv)
        self.F_soft = self.F[soft_els]
        self.F_stiff = self.F[stiff_els]
        self.breakdown = EnergyBreakdown.from_parts(
            soft_elastic=grid.integrate(model.W_soft_family.value(self.eps, self.F_soft)),
            stiff_elastic=grid.integrate(model.W_stiff.value(self.F_stiff)),
            hardening_soft=grid.integrate(plastic.hardening, element_mask=soft_els),
            hardening_stiff=grid.integrate(plastic.hardening, element_mask=stiff_els),
            grad_P_term=plastic.grad_P_term,
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
        grad_m = self.plastic.gradient(-_matmul(np.swapaxes(self.F, -1, -2), WpPinvT))
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

        H = sum_g w [2 h1 N_g N_g^T + q |grad P_g|^(q-2) dN_g dN_g^T],

    which acts alike on each sl-coefficient column.  Its mass part is the
    exact Hessian of the hardening at P = I in the orthonormal ``sl_basis``
    coordinates; the weighted Laplacian is the lagged-diffusivity (Kacanov)
    linearisation of |grad P|^q at this pass's grad P.  Since q > d >= 2 the
    weight is finite, and 0 where grad P = 0.  ``y`` as in
    ``value_and_grad_J_eps``: the latest pass of a FixedY at this P is reused.
    """
    point = _pass(domain, model, y, P)
    grid = point.y.grid
    mass = 2.0 * model.h1 * np.einsum("gn,gm->nm", grid.N_gauss, grid.N_gauss)
    dNdN = np.einsum("gnk,gmk->gnm", grid.dN_gauss, grid.dN_gauss).reshape(grid.n_gauss, -1)
    lagged = model.q * point.plastic.qn ** ((model.q - 2.0) / 2.0)  # (E, g)
    blocks = (lagged @ dNdN).reshape(-1, grid.n_corners, grid.n_corners) + mass
    return grid.stiffness(grid.quad_weight * blocks)


def dissipation_integral(domain, P_bar: PlasticField, P: PlasticField, phase: int, segments: int = 8) -> float:
    """Quadrature of chi^phase(x) D(P_bar(x), P(x)) over the composite, with
    phase 0 the soft and 1 the stiff elements.  Each Gauss point uses the
    exp-curve upper-bound evaluation ``slgeometry.dissipation_distance_batch``."""
    if phase not in (0, 1):
        raise slgeometry.SLError("phase must be 0 (soft) or 1 (stiff)")
    grid = P.grid
    check_same_grid(P_bar.grid, grid, "P_bar and P")
    check_same_grid(grid, domain, "fields and domain")
    mask = domain.soft_elements if phase == 0 else ~domain.soft_elements
    Pg = grid.gauss_values(P.matrices())
    Pbg = grid.gauss_values(P_bar.matrices())
    return grid.integrate(slgeometry.dissipation_distance_batch(Pbg[mask], Pg[mask], segments=segments))
