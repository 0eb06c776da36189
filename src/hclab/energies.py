"""Assembly of the discrete high-contrast functionals and their gradients.

The total energy of a state (y, P) on the eps-composite is

    soft:   int chi0 W0_eps( eps grad(y) P^{-1} )
    stiff:  int chi1 W1( grad(y) P^{-1} )
    + int H(P)  (booked per phase)  + int |grad P|^q

with the contrast factor eps multiplying grad(y) only in the soft term
(``MicroDomain.contrast``, which the quadratic y-step of ``minimize`` reads
too).  P is stored by its nodal log coordinates m_n (``PlasticField``), and
the hardening is read at their interpolant m_g = sum_n N_n(x_g) m_n:
H_g = h0 + h1 |m_g|^2.  Its integral is the quadratic form
h0 |Omega| + h1 sum_k m_k^T M m_k with the mass matrix M (``Grid.mass``),
booked per phase, so no matrix log is taken in J_eps.  |m_g| <= r_K at every
Gauss point, because m_g is a convex combination of nodal coordinates in the
convex K ball.  The elastic terms and |grad P|^q read the interpolant of the
nodal values P_n = exp(m_n).
Gradients with respect to the nodal deformation values and the nodal log
coordinates of P are assembled analytically; the differential of the
exponential enters through its closed-form adjoint at the nodes.

The internal variable enters both functionals alike: the hardening H(P) and
|grad P|^q pass to the homogenized limit unchanged.  So their terms are a
``PlasticBlock``, which computes them for a list of P at once, one row per
P: ``cellproblems.JLimitBlock`` holds one for the trials of a limit line
search, and ``JEpsPass`` (here) holds the ``PlasticPass`` of a block of one.
A row's pass (``PlasticBlock.candidate``) has ``gradient(dP)``, which pulls
a per-Gauss cotangent of the values of P back to the nodal log coordinates
together with the P-only terms' own.

A ``JEpsPass`` is one assembly at (y, P): it computes the energy and keeps
the per-Gauss arrays its gradient reads, the inverse of P and F, beside the
plastic pass's nodal values of P and per-Gauss scalars.  Its gradient is
finished on request: it hands -F^T W'(F) P^{-T} of both phases to the
plastic pass after releasing W'(F), and the plastic pass frees it after its
scatter, so at the gradient's peak a 2D pass holds about six arrays of the
size of one (E, g, d, d) Gauss array.  A gradient makes one scatter and one
product with the plastic pass's lagged Laplacian; the scatter of the y part
waits for the first read of ``GradJEps.grad_y``, which the P-step never
makes.
``assemble_J_eps`` and ``value_and_grad_J_eps`` are thin wrappers over that
pass.  The Gauss data that depend on y alone are a ``FixedY``, which the
y-step of ``minimize`` builds once, values its solution through and returns;
the P-step after it passes that FixedY as y, so its start is the y-step's
pass, every trial point is valued by one pass, and at the point the line
search accepts, ``value_and_grad_J_eps`` finishes the gradient of the pass
the FixedY kept instead of assembling that point a second time.
``sobolev_metric`` builds the P-step's metric from the same kept pass: the
Laplacian its gradient built plus 2 h1 M, the exact Hessian of the
hardening.
``value_and_grad_y_J_eps`` finishes the y gradient alone, for the descent
y-step, without the plastic pass's gradient.
``dissipation_integral`` is the quadrature of the dissipation distance
D(P_bar, P) over one phase; it is a report column, not a term of either
functional.

For d = 2 the stacked 2x2 products and inverses are written entrywise.
Reductions are plain numpy sums (pairwise) and the grid's CSR scatters sum
in a fixed order, so repeated assemblies of the same state are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


class GradJEps:
    """Gradient of the energy: ``grad_m``, the nodal sl-coefficient part,
    and ``grad_y``, the nodal y part, which is scattered from the per-Gauss
    cotangent s W'(F) P^{-T} on its first read and kept; the cotangent is
    released then.  The P-step reads ``grad_m`` alone and so pays for no y
    scatter.  ``crease_count`` counts the soft density's crease points."""

    def __init__(self, grid, dG: np.ndarray, grad_m: np.ndarray, crease_count: int):
        self._grid, self._dG = grid, dG
        self.grad_m, self.crease_count = grad_m, crease_count

    @cached_property
    def grad_y(self) -> np.ndarray:
        grid = self._grid
        grad_y = np.zeros((grid.n_nodes, grid.dim))
        grid.accumulate_from_gradients(self._dG, grad_y)
        self._dG = None
        return grad_y


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
    """The terms of one P shared by J_eps and J_limit: ``Pn`` (n_nodes, d, d),
    the nodal values of P; ``qn`` (E, g), the squared norms of grad P at the
    Gauss points; the per-Gauss ``hardening``; and ``grad_P_term``, the
    integral of |grad P|^q.  Callers that need the Gauss values of P
    interpolate ``Pn`` themselves; the pass keeps neither them nor grad P.

    The hardening is read at the interpolated log coordinates
    m_g = sum_n N_n(x_g) m_n, H_g = h0 + h1 |m_g|^2, so no matrix log is
    taken: its integral is the quadratic form h0 |Omega| + h1 sum_k m_k^T M m_k
    with the mass matrix M (``Grid.mass``), booked per phase, and its
    gradient is 2 h1 M m in the coefficients.  As m_g is a convex combination
    of nodal coefficients in the K ball, |m_g| <= r_K at every Gauss point.
    The continuum H is unchanged; the quadrature differs from h1 |log P_g|^2
    of the interpolated P by O(h^2 |grad m|^2), a change of quadrature type
    like mass lumping (the exponential-map parametrisation of Simo 1992 and
    Miehe 1996).

    The arrays are those of a ``PlasticBlock`` of P alone, or one field's
    rows of a larger block (``PlasticBlock.candidate``).  ``qn``'s bits
    depend on the memory layout of ``Grid.gauss_gradients`` (see
    ``PlasticBlock``)."""

    def __init__(self, model, P: PlasticField):
        self._read(PlasticBlock(model, [P]), 0)

    def _read(self, block: PlasticBlock, row: int) -> None:
        self.model, self.P = block.model, block.Ps[row]
        self.hardening, self.Pn, self.qn = block.hardening[row], block.Pn[row], block.qn[row]
        self.grad_P_term = float(block.grad_P_term[row])

    @cached_property
    def laplacian(self):
        """The lagged (Kacanov) operator sum_g w q |grad P_g|^(q-2) dN_g dN_g^T
        of |grad P|^q at this P, sparse (n_nodes, n_nodes): applied to the
        nodal values ``Pn`` it gives their gradient q |T|^(q-2) T scattered
        by grad N.  Since q > d >= 2 the weight is finite, and 0 where
        grad P = 0.  Built on first use and kept with the pass."""
        grid, q = self.P.grid, self.model.q
        dNdN = np.einsum("gnk,gmk->gnm", grid.dN_gauss, grid.dN_gauss).reshape(grid.n_gauss, -1)
        blocks = (grid.quad_weight * q * self.qn ** ((q - 2.0) / 2.0)) @ dNdN
        return grid.stiffness(blocks.reshape(-1, grid.n_corners, grid.n_corners))

    def gradient(self, dP: np.ndarray) -> np.ndarray:
        """Gradient with respect to the nodal log coefficients of P, given the
        per-Gauss cotangent ``dP`` (E, g, d, d) of the values of P from the
        other terms.  ``dP`` scattered to the nodes and the |grad P|^q term's
        ``laplacian @ Pn`` are pulled back by the adjoint differential of the
        exponential at the nodes and projected onto the sl(d) basis; the
        hardening's 2 h1 M m is added in the coefficients.  ``dP`` is
        dropped after its scatter, so a caller that keeps no reference to it
        has it freed before the adjoint runs."""
        model, grid = self.model, self.P.grid
        R_nodes = (self.laplacian @ self.Pn.reshape(grid.n_nodes, -1)).reshape(self.Pn.shape)
        grid.accumulate_from_values(dP, R_nodes)
        del dP
        adj = slgeometry.exp_frechet_adjoint(self.P.log_matrices(), R_nodes)
        grad = np.einsum("nij,kij->nk", adj, slgeometry.sl_basis(grid.dim))
        return grad + 2.0 * model.h1 * (grid.mass @ self.P.coeffs)


class PlasticBlock:
    """The ``PlasticPass`` arrays of a list of plastic fields on one grid,
    computed together: ``hardening`` and ``qn`` (B, E, g), ``Pn``
    (B, n_nodes, d, d) and ``grad_P_term`` (B,), one row per field, so a
    block pays for one interpolation, one exponential (``slgeometry.rowwise``)
    and one gradient product, and integrates by row sums
    (``Grid.integrate_rows``).  ``candidate(b)`` is the pass of field b.

    Each row is the field's own array bit for bit: the rows are contiguous,
    every product and reduction acts on each row as on one field, and each
    row's Gauss gradients are laid out as ``Grid.gauss_gradients`` lays out
    one field's, the d^3 derivatives of a point contiguous in (k, i, j)
    order.  ``qn``'s einsum sums them in that memory order, so its bits
    depend on the layout: a copy in (i, j, k) order changes them."""

    def __init__(self, model, Ps: list):
        grid = Ps[0].grid
        d = grid.dim
        self.model, self.Ps = model, Ps
        coeffs = np.stack([P.coeffs for P in Ps])  # (B, n_nodes, d^2 - 1)
        self.Pn = slgeometry.rowwise(slgeometry.exp_batch, slgeometry.coeffs_to_matrices(coeffs, d))
        gradP = grid.gauss_gradients(self.Pn.swapaxes(0, 1))  # (E, g, B, i, j, k)
        self.qn = np.empty((len(Ps),) + gradP.shape[:2])
        for qn, g in zip(self.qn, gradP.transpose(2, 0, 1, 3, 4, 5)):
            # one field's gradients as gauss_gradients lays them out: (k, i, j) in memory
            g = np.ascontiguousarray(g.transpose(0, 1, 4, 2, 3)).transpose(0, 1, 3, 4, 2)
            np.einsum("egijk,egijk->eg", g, g, out=qn)
        del gradP, g  # the gradient product goes before the hardening's arrays are made
        # H at the interpolated log coordinates m_g, as their trace-free matrices
        m_g = slgeometry.coeffs_to_matrices(grid.gauss_values(coeffs.swapaxes(0, 1)), d)  # (E, g, B, d, d)
        self.hardening = np.ascontiguousarray(model.hardening(m_g).transpose(2, 0, 1))
        self.grad_P_term = grid.integrate_rows(self.qn ** (model.q / 2.0))

    def candidate(self, row: int) -> PlasticPass:
        point = PlasticPass.__new__(PlasticPass)
        point._read(self, row)
        return point


class FixedY:
    """The Gauss data of J_eps that depend on the deformation alone: grad y
    at the Gauss points, the phase of each element and its contrast factor
    (``MicroDomain.contrast``).

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
        self.scale = domain.contrast[:, None, None, None]
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
        self.Pinv = _inv_batch(grid.gauss_values(plastic.Pn))

        self.F = self.scale * _matmul(fixed.G, self.Pinv)
        self.breakdown = EnergyBreakdown.from_parts(
            soft_elastic=grid.integrate(model.W_soft_family.value(self.eps, self.F[soft_els])),
            stiff_elastic=grid.integrate(model.W_stiff.value(self.F[stiff_els])),
            hardening_soft=grid.integrate(plastic.hardening, element_mask=soft_els),
            hardening_stiff=grid.integrate(plastic.hardening, element_mask=stiff_els),
            grad_P_term=plastic.grad_P_term,
        )

    def gradient(self) -> GradJEps:
        """Gradient with respect to all degrees of freedom, from per-Gauss
        cotangents of both phases.  W'(F) is released once W'(F) P^{-T} is
        formed, and the P cotangent is handed to the plastic pass without a
        reference here, which frees it after its scatter; s W'(F) P^{-T}
        waits in the GradJEps for a read of ``grad_y``."""
        WpPinvT, crease = self._WpPinvT()
        grad_m = self.plastic.gradient(self._P_cotangent(WpPinvT))
        WpPinvT *= self.scale
        return GradJEps(self.y.grid, WpPinvT, grad_m, crease)

    def grad_y(self) -> np.ndarray:
        """The y part of ``gradient()`` alone, bit for bit: the scatter of
        s W'(F) P^{-T}, without the plastic pass's gradient."""
        WpPinvT, crease = self._WpPinvT()
        WpPinvT *= self.scale
        return GradJEps(self.y.grid, WpPinvT, None, crease).grad_y

    def _WpPinvT(self):
        """W'(F) P^{-T} of both phases and the soft density's crease count;
        W'(F) is released on return."""
        model = self.model
        Wp = np.empty_like(self.F)
        Wp[self.soft_els], crease = model.W_soft_family.grad(self.eps, self.F[self.soft_els], return_crease=True)
        Wp[self.stiff_els] = model.W_stiff.grad(self.F[self.stiff_els])
        return _matmul(Wp, np.swapaxes(self.Pinv, -1, -2)), crease

    def _P_cotangent(self, WpPinvT: np.ndarray) -> np.ndarray:
        """-F^T W'(F) P^{-T}, the elastic terms' cotangent of the Gauss values of P."""
        dP = _matmul(np.swapaxes(self.F, -1, -2), WpPinvT)
        dP *= -1.0
        return dP


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


def value_and_grad_y_J_eps(domain, model, y, P: PlasticField):
    """(EnergyBreakdown, grad_y): ``value_and_grad_J_eps`` for a caller that
    reads the y gradient alone, the descent y-step; the plastic pass's
    gradient is never run."""
    point = _pass(domain, model, y, P)
    return point.breakdown, point.grad_y()


def sobolev_metric(domain, model, y, P: PlasticField):
    """The metric of the composite P-step at (y, P): the sparse scalar nodal
    operator

        H = 2 h1 M + sum_g w q |grad P_g|^(q-2) dN_g dN_g^T,

    which acts alike on each sl-coefficient column.  Its mass part 2 h1 M
    (``Grid.mass``) is the exact Hessian of the hardening at every P in the
    orthonormal ``sl_basis`` coordinates, since the hardening is read at the
    interpolated log coordinates (``PlasticPass``); the weighted Laplacian is
    the pass's ``laplacian``, the lagged-diffusivity (Kacanov) linearisation
    of |grad P|^q at this pass's grad P.  ``y`` as in
    ``value_and_grad_J_eps``: the latest pass of a FixedY at this P is reused.
    """
    point = _pass(domain, model, y, P)
    grid = point.y.grid
    return grid.operator(point.plastic.laplacian.data + 2.0 * model.h1 * grid.mass.data)


def dissipation_integral(domain, P_bar: PlasticField, P: PlasticField, phase: int) -> float:
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
    return grid.integrate(slgeometry.dissipation_distance_batch(Pbg[mask], Pg[mask]))
