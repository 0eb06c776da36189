"""Elastic densities, hardening on the compact set K, and the assumption audit.

The density library covers the cases the theory distinguishes:

* stiff matrix      W1(F) = |F|^2 + gamma |F - I|^2   (2-coercive, quadratic)
* soft, convex      W0_eps(F) = (1 + eps) |F|^2       (limit |F|^2; the
  quasiconvexified cell value at F = 0 vanishes, so the soft phase only
  contributes hardening to the homogenized energy)
* soft, two-well    W0_eps(F) = (1+eps) [ min(|F-A|^2, |F+A|^2) + delta |F|^2 ]
  with a rank-one A, the nonconvex option whose cell value is a genuine
  relaxation.

Hardening is a single function for both phases, finite exactly on
K = { exp(M) : tr M = 0, |M| <= r_K }:  H(P) = h0 + h1 |log P|^2.

Densities evaluate on stacked arrays of matrices; every value is a plain
float array so the audit and the assembly share one code path.

``MaterialModel`` rejects non-finite growth constants, hardening parameters,
q and r_K.  ``audit_assumptions`` samples the claimed constants of the
growth, Lipschitz, eps-convergence and compactness assumptions; each margin
compares the model with a bound it does not define itself, so each can fail.
The dissipation generator is the Frobenius norm, with no constants to audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hclab import slgeometry


class MaterialError(ValueError):
    pass


class NotUnimodular(MaterialError):
    """det P violates the unimodularity tolerance ``slgeometry.DET_TOL``."""


def _fro2(F: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ij->...", F, F)


class StiffDensity:
    """W1(F) = |F|^2 + gamma |F - I|^2."""

    is_quadratic = True

    def __init__(self, gamma: float = 1.0):
        self.gamma = float(gamma)

    def value(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        eye = np.eye(F.shape[-1])
        return _fro2(F) + self.gamma * _fro2(F - eye)

    def grad(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        return 2.0 * F + 2.0 * self.gamma * (F - np.eye(F.shape[-1]))

    def isotropic_quad_parts(self, dim: int):
        """(a, L, c) with W(F) = a |F|^2 + L : F + c."""
        return 1.0 + self.gamma, -2.0 * self.gamma * np.eye(dim), self.gamma * dim


class SoftConvexFamily:
    """W0_eps(F) = (1 + eps) |F|^2, pointwise limit |F|^2."""

    is_quadratic = True

    def value(self, eps: float, F: np.ndarray) -> np.ndarray:
        return (1.0 + eps) * _fro2(np.asarray(F, dtype=float))

    def grad(self, eps: float, F: np.ndarray, return_crease: bool = False):
        g = 2.0 * (1.0 + eps) * np.asarray(F, dtype=float)
        return (g, 0) if return_crease else g

    def isotropic_quad_parts(self, eps: float, dim: int):
        return 1.0 + eps, np.zeros((dim, dim)), 0.0


class SoftTwoWellFamily:
    """Two-well option: wells at +-A (rank one) plus a small convex stabilizer.

    The crease of the min is resolved deterministically toward the first
    branch (the -A well) so descent sees a consistent subgradient.
    """

    is_quadratic = False

    def __init__(self, dim: int = 2, amplitude: float = 0.8, delta: float = 0.1):
        if not (math.isfinite(amplitude) and math.isfinite(delta)):
            raise MaterialError(f"two-well amplitude and delta must be finite, got {amplitude}, {delta}")
        A = np.zeros((dim, dim))
        A[0, 0] = amplitude
        self.A = A
        self.delta = float(delta)

    def value(self, eps: float, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        wells = np.minimum(_fro2(F - self.A), _fro2(F + self.A))
        return (1.0 + eps) * (wells + self.delta * _fro2(F))

    def grad(self, eps: float, F: np.ndarray, return_crease: bool = False):
        F = np.asarray(F, dtype=float)
        lo = _fro2(F - self.A)
        hi = _fro2(F + self.A)
        first = lo <= hi
        branch = np.where(first[..., None, None], F - self.A, F + self.A)
        g = (1.0 + eps) * (2.0 * branch + 2.0 * self.delta * F)
        if return_crease:
            return g, int(np.count_nonzero(np.abs(lo - hi) < 1e-12))
        return g


class FrozenSoft:
    """A soft family evaluated at a fixed family parameter (usually the eps -> 0 limit)."""

    def __init__(self, family, eps: float):
        self.family = family
        self.eps = float(eps)
        self.is_quadratic = family.is_quadratic

    def value(self, F: np.ndarray) -> np.ndarray:
        return self.family.value(self.eps, F)

    def grad(self, F: np.ndarray):
        return self.family.grad(self.eps, F)

    def isotropic_quad_parts(self, dim: int):
        return self.family.isotropic_quad_parts(self.eps, dim)


@dataclass
class MaterialModel:
    """Bundle of densities, hardening data, and the claimed growth constants.

    Immutable in use; density evaluation is pure, so the model can be shared
    freely across workers.
    """

    dim: int
    W_stiff: StiffDensity
    W_soft_family: object
    hardening_params: tuple
    K_radius: float
    q: float
    growth_constants: tuple

    def __post_init__(self):
        # each test is written so that a NaN fails it
        c1, c2, c3 = self.growth_constants
        if not (0 < c1 <= c2 < math.inf and 0 < c3 < math.inf):
            raise MaterialError(f"growth constants must be finite with 0 < c1 <= c2, c3 > 0, "
                                f"got {self.growth_constants}")
        if not all(math.isfinite(h) for h in self.hardening_params):
            raise MaterialError(f"hardening parameters must be finite, got {self.hardening_params}")
        if not self.h1 >= 0:
            raise MaterialError(f"hardening slope h1 must be nonnegative, or the P-step metric 2 h1 M + L "
                                f"is indefinite: got h1={self.h1}")
        if not (self.dim < self.q < math.inf):
            raise MaterialError(f"plastic-gradient exponent must be finite and exceed the dimension (Morrey): "
                                f"q={self.q}, d={self.dim}")
        if not (0 < self.K_radius < math.inf):
            raise MaterialError(f"K_radius must be positive and finite, got {self.K_radius}")

    @cached_property
    def W_soft_limit(self) -> FrozenSoft:
        """The eps -> 0 soft density; one object per model, so cell caches
        keyed by density identity find it again."""
        return FrozenSoft(self.W_soft_family, 0.0)

    @property
    def h0(self) -> float:
        return self.hardening_params[0]

    @property
    def h1(self) -> float:
        return self.hardening_params[1]

    def hardening(self, logs: np.ndarray) -> np.ndarray:
        """H = h0 + h1 |log P|^2 from the logs (..., d, d) of P, without the
        K indicator.  The assembly passes the interpolated log coordinates
        at the Gauss points (``energies.PlasticPass``); they lie in the K
        ball by convexity, so the indicator never fires."""
        return self.h0 + self.h1 * _fro2(logs)


def default_material(
    dim: int = 2,
    gamma: float = 1.0,
    soft: str = "convex",
    h0: float = 0.1,
    h1: float = 5.0,
    r_K: float = 0.3,
    q: float = 4.0,
    twowell_amplitude: float = 0.8,
    twowell_delta: float = 0.1,
) -> MaterialModel:
    """Stock model with growth constants valid for the defaults in d = 2."""
    if soft == "convex":
        soft_family = SoftConvexFamily()
        c1 = 1.0
    elif soft == "twowell":
        soft_family = SoftTwoWellFamily(dim=dim, amplitude=twowell_amplitude, delta=twowell_delta)
        c1 = min(1.0, twowell_delta)
    else:
        raise MaterialError(f"unknown soft density {soft!r}")
    c2 = max(2.0 * gamma + 2.0, 2.0 + 4.0 * twowell_amplitude**2 if soft == "twowell" else 0.0)
    c3 = 2.0 * (1.0 + gamma) + 2.0 * gamma * math.sqrt(dim) + 8.0 * twowell_amplitude
    return MaterialModel(
        dim=dim,
        W_stiff=StiffDensity(gamma),
        W_soft_family=soft_family,
        hardening_params=(h0, h1),
        K_radius=r_K,
        q=q,
        growth_constants=(c1, c2, c3),
    )


def eval_density(model: MaterialModel, phase: str, eps: float, F) -> float:
    """Evaluate the phase density at one matrix; eps is ignored for the stiff phase."""
    F = np.asarray(F, dtype=float)
    if phase == "stiff":
        return float(model.W_stiff.value(F))
    if phase == "soft":
        return float(model.W_soft_family.value(eps, F))
    raise MaterialError(f"phase must be 'soft' or 'stiff', got {phase!r}")


def eval_hardening(model: MaterialModel, P) -> float:
    """H(P) = h0 + h1 |log P|^2 on K, +inf outside; det P must be 1 to
    ``slgeometry.DET_TOL``."""
    P = np.asarray(P, dtype=float)
    det = float(np.linalg.det(P))
    if abs(det - 1.0) > slgeometry.DET_TOL:
        raise NotUnimodular(f"det P = {det!r} is not 1 within {slgeometry.DET_TOL}")
    logs = slgeometry.log_batch(P)
    if float(np.linalg.norm(logs)) > model.K_radius + 1e-12:
        return math.inf
    return float(model.hardening(logs))


# the audit's default sample count, which ``hclab audit model --samples`` reads too
AUDIT_SAMPLES = 10_000


@dataclass(frozen=True)
class AssumptionReport:
    """Worst-case violation margins of the standing assumptions; >= 0 means pass."""

    margins: dict
    sample_count: int
    seed: int
    measured_cK: float

    @property
    def is_pass(self) -> bool:
        return all(v >= 0.0 for v in self.margins.values())


def _sample_matrices(rng, count, dim, radius):
    """Matrices with Frobenius norm <= radius, plus 0 and I as canonical points."""
    raw = rng.standard_normal((count, dim, dim))
    norms = np.linalg.norm(raw, axis=(-2, -1), keepdims=True)
    radii = radius * rng.random((count, 1, 1)) ** (1.0 / dim**2)
    out = raw / np.maximum(norms, 1e-30) * radii
    out[0] = 0.0
    if count > 1:
        out[1] = np.eye(dim)
    return out


def audit_assumptions(model: MaterialModel, sample_count: int = AUDIT_SAMPLES, seed: int = 0) -> AssumptionReport:
    """Sample-based audit of the growth, Lipschitz, convergence and
    compactness assumptions, with the model's claimed constants.

    Failures never raise; they show up as negative margins.  The report is a
    deterministic function of (model, sample_count, seed).
    """
    if sample_count < 1:
        raise MaterialError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    d = model.dim
    c1, c2, c3 = model.growth_constants
    eps_probe = (1e-1, 1e-2, 1e-3)
    F = _sample_matrices(rng, sample_count, d, radius=10.0)
    F2 = _sample_matrices(rng, sample_count, d, radius=10.0)
    margins: dict = {}

    def growth_margins(values, mats):
        n2 = _fro2(mats)
        return float(np.min(values - c1 * n2)), float(np.min(c2 * (n2 + 1.0) - values))

    # both draws start with 0 and I, and an identical pair would pin the min at 0
    differ = np.any(F != F2, axis=(-2, -1))

    def lipschitz_margin(va, vb):
        bound = c3 * (1.0 + np.linalg.norm(F, axis=(-2, -1)) + np.linalg.norm(F2, axis=(-2, -1)))
        slack = bound * np.linalg.norm(F - F2, axis=(-2, -1)) - np.abs(va - vb)
        return float(np.min(slack[differ])) if differ.any() else 0.0

    w1a, w1b = model.W_stiff.value(F), model.W_stiff.value(F2)
    margins["E1_lower"], margins["E1_upper"] = growth_margins(w1a, F)
    margins["E2_lipschitz"] = lipschitz_margin(w1a, w1b)

    # np.min over the eps probes, not Python's min, which drops a NaN after the first item
    soft = []
    for eps in eps_probe:
        va, vb = model.W_soft_family.value(eps, F), model.W_soft_family.value(eps, F2)
        soft.append((*growth_margins(va, F), lipschitz_margin(va, vb)))
    margins["E3_lower"], margins["E3_upper"], margins["E4_lipschitz"] = (float(m) for m in np.min(soft, axis=0))

    limit = model.W_soft_limit.value(F)
    scale = 1.0 + _fro2(F)
    devs = [float(np.max(np.abs(model.W_soft_family.value(eps, F) - limit) / scale)) for eps in eps_probe]
    margins["E5_monotone"] = float(np.min(-np.diff(devs)))
    # convergence rate check: the final deviation must have shrunk at least
    # one tenth as fast as the eps ratio suggests (constant families pass at 0)
    if devs[0] == 0.0:
        margins["E5_final"] = 0.0
    else:
        margins["E5_final"] = 10.0 * devs[0] * (eps_probe[-1] / eps_probe[0]) - devs[-1]

    # Compact set K: measured c_K on boundary and interior samples, against the
    # analytic bound 2 sqrt(d) e^{r_K}.
    k_count = max(64, sample_count // 10)
    coeffs = rng.standard_normal((k_count, d * d - 1))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    radii = model.K_radius * np.concatenate([np.ones(k_count // 2), rng.random(k_count - k_count // 2)])
    Pk = slgeometry.exp_batch(slgeometry.coeffs_to_matrices(coeffs * radii[:, None], d))
    cK = float(np.max(np.linalg.norm(Pk, axis=(-2, -1)) + np.linalg.norm(np.linalg.inv(Pk), axis=(-2, -1))))
    margins["Pbound_analytic"] = 2.0 * math.sqrt(d) * math.exp(model.K_radius) - cK

    # Hardening: H finite exactly on K, Lipschitz on K with the analytic bound
    # 2 h1 r_K L_log, L_log estimated from sampled difference quotients.
    idx = rng.permutation(k_count)
    P1m, P2m = Pk, Pk[idx]
    L1, L2 = slgeometry.log_batch(P1m), slgeometry.log_batch(P2m)
    H1, H2 = model.hardening(L1), model.hardening(L2)
    diffP = np.linalg.norm(P1m - P2m, axis=(-2, -1))
    keep = diffP > 1e-12
    quot = np.linalg.norm(L1 - L2, axis=(-2, -1))[keep] / diffP[keep]
    L_log = float(np.max(quot)) * 1.05 if keep.any() else 1.0
    bound = 2.0 * model.h1 * model.K_radius * L_log
    margins["H2_lipschitz"] = float(np.min(bound * diffP[keep] - np.abs(H1 - H2)[keep])) if keep.any() else 0.0

    return AssumptionReport(margins=margins, sample_count=sample_count, seed=seed, measured_cK=cK)
