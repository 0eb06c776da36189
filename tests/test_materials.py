import math

import numpy as np
import pytest

from hclab import materials, slgeometry as sg


def test_stiff_density_at_identity():
    model = materials.default_material(dim=2, gamma=1.0)
    assert materials.eval_density(model, "stiff", 0.0, np.eye(2)) == pytest.approx(2.0)
    model3 = materials.default_material(dim=3, gamma=1.0)
    assert materials.eval_density(model3, "stiff", 0.0, np.eye(3)) == pytest.approx(3.0)


def test_soft_family_and_pointwise_limit():
    model = materials.default_material(dim=2)
    assert materials.eval_density(model, "soft", 0.5, np.eye(2)) == pytest.approx(1.5 * 2)
    vals = [materials.eval_density(model, "soft", e, np.eye(2)) for e in (0.5, 0.25, 0.125, 1e-6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] == pytest.approx(2.0, abs=1e-5)
    assert float(model.W_soft_limit.value(np.eye(2))) == pytest.approx(2.0)


def test_unknown_phase_rejected():
    model = materials.default_material(dim=2)
    with pytest.raises(materials.MaterialError):
        materials.eval_density(model, "rubber", 0.0, np.eye(2))


def test_hardening_identity_and_domain():
    model = materials.default_material(dim=2, h0=0.1, h1=5.0, r_K=0.3)
    assert materials.eval_hardening(model, np.eye(2)) == pytest.approx(0.1)
    M = sg.coeffs_to_matrices(np.array([model.K_radius + 0.1, 0.0, 0.0]), 2)
    assert materials.eval_hardening(model, sg.exp_batch(M)) == math.inf
    with pytest.raises(materials.NotUnimodular):
        materials.eval_hardening(model, np.diag([1.1, 1.0]))


def test_hardening_finite_exactly_on_K():
    model = materials.default_material(dim=2)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        c = rng.standard_normal(3)
        radius = 2.0 * model.K_radius * rng.random()
        c *= radius / np.linalg.norm(c)
        P = sg.exp_batch(sg.coeffs_to_matrices(c, 2))
        finite = materials.eval_hardening(model, P) < math.inf
        assert finite == (np.linalg.norm(sg.log_batch(P)) <= model.K_radius + 1e-12)


def test_hardening_lipschitz_on_K_sampled():
    """Sampled difference quotients against the analytic bound 2 h1 r_K L_log
    with an estimated log-Lipschitz constant."""
    model = materials.default_material(dim=2)
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal((1000, 3))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    coeffs *= model.K_radius * rng.random((1000, 1))
    P = sg.exp_batch(sg.coeffs_to_matrices(coeffs, 2))
    logs = sg.log_batch(P)
    H = model.h0 + model.h1 * np.einsum("...ij,...ij->...", logs, logs)
    idx = rng.permutation(1000)
    dP = np.linalg.norm(P - P[idx], axis=(-2, -1))
    keep = dP > 1e-10
    L_log = np.max(np.linalg.norm(logs - logs[idx], axis=(-2, -1))[keep] / dP[keep])
    bound = 2.0 * model.h1 * model.K_radius * L_log * 1.0001
    assert np.all(np.abs(H - H[idx])[keep] <= bound * dP[keep])


def test_audit_default_model_passes():
    model = materials.default_material(dim=2)
    report = materials.audit_assumptions(model, sample_count=10_000, seed=0)
    assert report.is_pass, report.margins
    assert report.sample_count == 10_000
    # the audit is a pure function of (model, samples, seed)
    again = materials.audit_assumptions(model, sample_count=10_000, seed=0)
    assert again.margins == report.margins


def test_audit_twowell_model_passes():
    model = materials.default_material(dim=2, soft="twowell")
    report = materials.audit_assumptions(model, sample_count=4000, seed=1)
    assert report.is_pass, report.margins


def test_audit_flags_noncoercive_density():
    """|F - I|^2 claimed 2-coercive with c1 = 1 fails at F = I."""

    class Shifted:
        is_quadratic = True

        def value(self, F):
            F = np.asarray(F, dtype=float)
            d = F.shape[-1]
            return np.einsum("...ij,...ij->...", F - np.eye(d), F - np.eye(d))

        def grad(self, F):
            return 2.0 * (np.asarray(F, dtype=float) - np.eye(F.shape[-1]))

        def isotropic_quad_parts(self, d):
            return 1.0, -2.0 * np.eye(d), float(d)

    model = materials.default_material(dim=2)
    model.W_stiff = Shifted()
    report = materials.audit_assumptions(model, sample_count=500, seed=2)
    assert report.margins["E1_lower"] < 0.0


def test_audit_margins_of_a_nan_density_read_nan():
    """A soft density that is NaN at the smallest eps probe fails every
    margin that samples it: the minima over the probes keep the NaN, where
    Python's min skipped a NaN after the first item."""

    class NanAtSmallestEps(materials.SoftConvexFamily):
        def value(self, eps, F):
            return super().value(eps, F) * (math.nan if eps == 1e-3 else 1.0)

    model = materials.default_material(dim=2)
    model.W_soft_family = NanAtSmallestEps()
    report = materials.audit_assumptions(model, sample_count=500, seed=0)
    for name in ("E3_lower", "E3_upper", "E4_lipschitz", "E5_monotone", "E5_final"):
        assert math.isnan(report.margins[name]), name
    assert not report.is_pass


def test_measured_cK_against_analytic_bound():
    model = materials.default_material(dim=2, r_K=0.3)
    report = materials.audit_assumptions(model, sample_count=2000, seed=5)
    assert report.measured_cK <= 2.0 * math.exp(0.3) * math.sqrt(2.0) + 1e-9
    assert report.margins["Pbound_analytic"] >= 0.0


def test_growth_sandwich_default_constants():
    # c1 = 1, c2 = 2 gamma + 2 hold at every sampled F for the defaults (d = 2)
    model = materials.default_material(dim=2, gamma=1.0)
    c1, c2, _ = model.growth_constants
    rng = np.random.default_rng(6)
    F = rng.standard_normal((2000, 2, 2)) * 3.0
    n2 = np.einsum("...ij,...ij->...", F, F)
    w = model.W_stiff.value(F)
    assert np.all(w >= c1 * n2 - 1e-12)
    assert np.all(w <= c2 * (n2 + 1.0) + 1e-12)


def test_model_validation():
    with pytest.raises(materials.MaterialError):
        materials.default_material(dim=2, q=1.5)  # Morrey needs q > d
    with pytest.raises(materials.MaterialError):
        materials.MaterialModel(
            dim=2, W_stiff=materials.StiffDensity(), W_soft_family=materials.SoftConvexFamily(),
            hardening_params=(0.1, 5.0), K_radius=-1.0, q=4.0, growth_constants=(1.0, 4.0, 6.0))
    # each check fails on NaN, and the numbers must be finite: a NaN r_K switched the K projection off
    for kwargs, match in (({"q": math.nan}, "Morrey"), ({"q": math.inf}, "Morrey"),
                          ({"r_K": math.nan}, "K_radius"), ({"r_K": math.inf}, "K_radius"),
                          ({"h0": math.nan}, "hardening"), ({"h1": math.inf}, "hardening"),
                          ({"gamma": math.nan}, "growth constants"), ({"gamma": math.inf}, "growth constants"),
                          ({"gamma": 1e308}, "growth constants"), ({"twowell_amplitude": math.nan}, "growth"),
                          # min(1.0, nan) is 1.0, so the growth constants alone let a NaN delta through
                          ({"soft": "twowell", "twowell_delta": math.nan}, "must be finite"),
                          ({"soft": "twowell", "twowell_amplitude": math.inf}, "must be finite")):
        with pytest.raises(materials.MaterialError, match=match):
            materials.default_material(dim=2, **kwargs)


class _NonConvergentSoft(materials.SoftConvexFamily):
    """(2 - eps) |F|^2 for eps > 0, |F|^2 at eps = 0: the distance to the
    limit grows as eps -> 0."""

    def value(self, eps, F):
        return (2.0 - eps if eps > 0 else 1.0) * materials._fro2(np.asarray(F, dtype=float))


def _claims(**claims):
    """The model's growth constants with the named ones replaced."""
    def claim(model, monkeypatch):
        names = ("c1", "c2", "c3")
        monkeypatch.setattr(model, "growth_constants",
                            tuple(claims.get(n, c) for n, c in zip(names, model.growth_constants)))
    return claim


def _non_convergent_soft(model, monkeypatch):
    monkeypatch.setattr(model, "W_soft_family", _NonConvergentSoft())


def _steeper_hardening(model, monkeypatch):
    """H = h0 + 3 h1 |log P|^2, steeper than the h1 the Lipschitz bound reads."""
    monkeypatch.setattr(model, "hardening", lambda logs: model.h0 + 3.0 * model.h1 * materials._fro2(logs))


def _exp_chart_off(model, monkeypatch):
    """An exp chart that returns exp(4M): K's samples leave the analytic c_K bound."""
    exp_batch = sg.exp_batch
    monkeypatch.setattr(sg, "exp_batch", lambda M: exp_batch(4.0 * M))


# each margin of the audit, and a change to the model or chart that it must refute
_BREAKERS = {
    "E1_lower": _claims(c1=3.0),  # W1 = 2 |F|^2 - 2 tr F + 2 is not 3-coercive
    "E1_upper": _claims(c2=1.0),  # c2 = c1
    "E2_lipschitz": _claims(c3=1e-3),
    "E3_lower": _claims(c1=3.0),
    "E3_upper": _claims(c2=1.0),
    "E4_lipschitz": _claims(c3=1e-3),
    "E5_monotone": _non_convergent_soft,
    "E5_final": _non_convergent_soft,
    "H2_lipschitz": _steeper_hardening,
    "Pbound_analytic": _exp_chart_off,
}


def test_audit_reports_exactly_the_margins_that_can_fail():
    """Pins the margin set: a new margin needs an entry in ``_BREAKERS``.
    The Lipschitz margins skip the identical pairs (0, 0) and (I, I) of the
    two draws, which pinned them at exactly 0."""
    report = materials.audit_assumptions(materials.default_material(dim=2), sample_count=200, seed=0)
    assert set(report.margins) == set(_BREAKERS)
    assert report.margins["E2_lipschitz"] > 0.0 and report.margins["E4_lipschitz"] > 0.0


@pytest.mark.parametrize("name", sorted(_BREAKERS))
def test_each_audit_margin_can_fail(name, monkeypatch):
    """Every margin is >= 0 on the stock model and < 0 on a model (or chart)
    that breaks the assumption it samples."""
    stock = materials.audit_assumptions(materials.default_material(dim=2), sample_count=2000, seed=0)
    assert stock.margins[name] >= 0.0
    model = materials.default_material(dim=2)
    _BREAKERS[name](model, monkeypatch)
    report = materials.audit_assumptions(model, sample_count=2000, seed=0)
    assert report.margins[name] < 0.0 and not report.is_pass
