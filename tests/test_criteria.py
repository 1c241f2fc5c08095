import math
from dataclasses import replace

import numpy as np
import pytest

from wigner_witness import (
    CatParams, FockDensityMatrix, IDENTITY, NEG_IDENTITY, P_REFLECT, QuadratureSpec,
    TmstParams, WernerParams,bell_chsh, criterion1, criterion2, criterion3, duan_check,
    diagonal_slice, fock_wigner, gaussian_wigner, integrate_slice, make_slice,
    make_transform, ppt_check, pseudospin_epr, purity_s1, reduced_mode_wigner,
    simon_check, standard_form, state_to_fock, state_to_wigner, tmst_covariance,
    Transform2, vacuum,
)
from wigner_witness.criteria import _purity_fock
from wigner_witness.oracle import displaced_parity_point

import refvals

TWO_PI = 2 * math.pi
QUARTER = math.pi / 4


# --- criterion 1 -----------------------------------------------------------

def test_tmsv_slice_closed_form():
    for s in (0.1, 0.5, 1.0):
        w = state_to_wigner(TmstParams(s=s))
        rep = criterion1(w, P_REFLECT, QUARTER)
        assert abs(rep.value - refvals.tmsv_slice_value(s)) < 1e-9
        assert rep.violated == (s > 0)


def test_tmsv_slice_quadrature_route():
    # same value with the closed-form component stripped, forcing quadrature
    s = 0.5
    w = replace(state_to_wigner(TmstParams(s=s)), terms=None)
    rep = criterion1(w, P_REFLECT, QUARTER)
    assert abs(rep.value - refvals.tmsv_slice_value(s)) < 1e-9


def test_vacuum_saturates_but_never_violates():
    w = gaussian_wigner(vacuum())
    for theta in (0.4, QUARTER, 1.1):
        rep = criterion1(w, P_REFLECT, theta)
        assert rep.value <= 1.0 / TWO_PI + 1e-12
        assert not rep.violated


def test_werner_slice_values():
    for eps in (0.2, 0.5, 1.0):
        w = state_to_wigner(WernerParams(bell="phi+", epsilon=eps))
        rep = criterion1(w, P_REFLECT, QUARTER)
        assert abs(rep.value - refvals.werner_c1_value(eps)) < 1e-10
        assert rep.violated == (eps > 1 / 3)


def test_cat_slice_values():
    spec = QuadratureSpec(order=160)
    for gamma in (0.5, 1.0):
        for eps in (0.25, 1.0):
            w = state_to_wigner(CatParams(gamma=gamma, epsilon=eps, sign="plus"))
            rep = criterion1(w, P_REFLECT, QUARTER, spec)
            assert abs(rep.value - refvals.cat_c1_value(gamma, eps)) < 1e-9


def test_theta_validation():
    w = gaussian_wigner(vacuum())
    for theta in (0.0, math.pi, math.pi / 2, -0.3):
        with pytest.raises(ValueError):
            criterion1(w, P_REFLECT, theta)
    # pi/2 is fine for criterion 3's mixing-free form, but not for slices
    with pytest.raises(ValueError):
        criterion2(w, P_REFLECT, math.pi / 2)


def test_transform_determinant_enforced():
    from wigner_witness import TransformError
    with pytest.raises(TransformError):
        make_transform(2.0, 0.0, 0.0, 1.0)


# --- criterion 2 -----------------------------------------------------------

def test_c2_dominates_c1():
    states = [
        state_to_wigner(TmstParams(s=0.4)),
        state_to_wigner(WernerParams(bell="phi+", epsilon=0.8)),
        state_to_wigner(CatParams(gamma=1.0, epsilon=0.6, sign="plus")),
    ]
    for w in states:
        for theta in (0.5, QUARTER):
            v1 = criterion1(w, P_REFLECT, theta).value
            v2 = criterion2(w, P_REFLECT, theta).value
            assert v2 >= abs(v1) - 1e-10


def test_c2_equals_c1_on_nonnegative_slice():
    # Gaussian slices are nonnegative, so |f| changes nothing
    w = state_to_wigner(TmstParams(s=0.5, eta=0.7, r=0.2))
    r1 = criterion1(w, P_REFLECT, 0.6)
    r2 = criterion2(w, P_REFLECT, 0.6)
    assert abs(r2.value - r1.value) < 1e-10
    assert abs(r2.bound - 1.0 / (TWO_PI * abs(math.sin(1.2)))) < 1e-14


def test_c2_bound_carries_angle_factor():
    w = gaussian_wigner(vacuum())
    rep = criterion2(w, P_REFLECT, 0.3)
    assert abs(rep.bound - 1.0 / (TWO_PI * abs(math.sin(0.6)))) < 1e-14


def test_tmst_optimal_angle_closed_form():
    """At the stationary mixing angle the scaled value matches the closed ratio."""
    s, eta, r = 0.5, 0.5, 0.5
    d = eta + (eta - 2) * math.cosh(2 * r) - 2 * eta * math.cosh(r) ** 2 * math.cosh(2 * s)
    theta = math.atan(math.sqrt(-2 * math.cosh(2 * s) / d))
    root = math.sqrt(-math.cosh(2 * s) / d)
    ratio = (math.sqrt(2.0) * root
             / (math.cosh(s) ** 2 + math.sinh(s) ** 2
                - math.sqrt(2 * eta) * math.cosh(r) * math.sinh(2 * s) * root))
    w = state_to_wigner(TmstParams(s=s, eta=eta, r=r))
    rep = criterion2(w, P_REFLECT, theta)
    assert abs(rep.value / rep.bound - ratio) < 1e-10
    # stationarity: nearby angles do no better
    for d_theta in (-0.01, 0.01):
        other = criterion2(w, P_REFLECT, theta + d_theta)
        assert other.value / other.bound <= ratio + 1e-6


def test_c2_region_restriction():
    from wigner_witness import rectangle
    w = state_to_wigner(TmstParams(s=0.5))
    full = criterion2(w, P_REFLECT, QUARTER)
    part = criterion2(w, P_REFLECT, QUARTER, region=rectangle(-1, 1, -1, 1))
    assert part.value < full.value
    assert part.region is not None and part.region.kind == "rectangle"


@pytest.mark.parametrize("gamma, eps", [
    *((g, e) for g in (3.0, 4.0, 5.0, 6.0) for e in (0.0, 0.5, 1.0)),
    # tail strips wider than the lobe spacing read low within a tiny estimate
    (3.5, 0.655), (4.14, 0.65), (4.2, 0.68), (4.29, 0.7),
    (1.956167856271951, 0.5004181074541962),     # the quadtree missed by 1.3e-9
])
def test_large_cat_c2_inside_strip_bracket(gamma, eps):
    rep = criterion2(state_to_wigner(CatParams(gamma, eps, "minus")), P_REFLECT, QUARTER)
    lo, hi = refvals.cat_minus_c2_bracket(gamma, eps)
    assert lo - rep.error_estimate <= rep.value <= hi + rep.error_estimate


def test_cat_c2_evaluation_budget():
    # The 8/16 Gauss-Legendre quadtree took 2,030,144 evaluations here.
    w = state_to_wigner(CatParams(1.0, 0.65, "minus"))
    res = integrate_slice(make_slice(w, P_REFLECT, QUARTER), absolute=True)
    assert 0 < res.evaluations <= 250_000


@pytest.mark.parametrize("gamma", [2.0, 3.0, 6.0])
def test_fully_dephased_cat_c2_is_exact(gamma):
    # At epsilon = 0 the slice is a sum of two nonnegative Gaussians, so
    # C2 = C1 on the exact route; zero-weight fringes used to force quadrature.
    w = state_to_wigner(CatParams(gamma, 0.0, "minus"))
    res = integrate_slice(make_slice(w, P_REFLECT, QUARTER), absolute=True)
    assert res.evaluations == 0
    c1, c2 = criterion1(w, P_REFLECT, QUARTER), criterion2(w, P_REFLECT, QUARTER)
    assert abs(c2.value - c1.value) <= 1e-12
    assert c2.error_estimate <= 1e-12


def test_mixed_sign_cat_slices_take_the_adaptive_rule(monkeypatch):
    # A slice that changes sign has kinks in |W|, which the tensor rule does
    # not resolve.  Narrow negative pockets fell between the sign probe's
    # nodes: 25 of these 56 mixed-sign slices stayed on the tensor rule.
    from wigner_witness import quadrature
    real, calls = quadrature._adaptive_box, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_adaptive_box", spy)
    mixed = 0
    for gamma in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0, 1.2):
        for eps in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.6, 0.8, 1.0):
            if refvals.cat_pi4_pocket(gamma, eps) == 0.0:
                continue
            mixed += 1
            calls.clear()
            criterion2(state_to_wigner(CatParams(gamma, eps, "minus")), P_REFLECT, QUARTER)
            assert calls, (gamma, eps)
    assert mixed == 56


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("eps", [0.3, 1.0])
def test_nonnegative_cat_slice_c2_is_exact(gamma, eps):
    # On the paper's canonical slice the cat+ fringes have no phase, so every
    # term is a nonnegative Gaussian there and C2 = C1 on the exact route.
    w = state_to_wigner(CatParams(gamma, eps, "plus"))
    res = integrate_slice(make_slice(w, P_REFLECT, QUARTER), absolute=True)
    assert res.evaluations == 0
    c1, c2 = criterion1(w, P_REFLECT, QUARTER), criterion2(w, P_REFLECT, QUARTER)
    assert abs(c2.value - c1.value) <= 1e-12
    assert c2.error_estimate <= 1e-12
    assert abs(c2.value - refvals.cat_pi4_abs(gamma, eps, "plus")) <= 1e-12
    # Off pi/4 the fringes oscillate, and |W| is left to quadrature.
    assert make_slice(w, P_REFLECT, QUARTER).nonnegative
    assert not make_slice(w, P_REFLECT, 0.7).nonnegative


@pytest.mark.parametrize("labels, theta, transform, ref", refvals.FOCK_C2_CASES,
                         ids=["fock-20", "fock-22"])
def test_fock_c2_estimate_covers_error(labels, theta, transform, ref):
    vec = np.zeros(36)
    vec[6 * labels[0] + labels[1]] = 1.0
    w = fock_wigner(FockDensityMatrix(matrix=np.outer(vec, vec), cutoff=6))
    rep = criterion2(w, Transform2(*transform), theta,
                     spec=QuadratureSpec(rule="adaptive-subdivision", tolerance=1e-3))
    assert abs(rep.value - ref) <= rep.error_estimate


# --- criterion 3 -----------------------------------------------------------

@pytest.mark.parametrize("gamma", [4.0, 5.0, 6.0, 8.0])
@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_large_cats_are_exact_on_the_default_route(gamma, eps):
    # Quadrature on one 8-sigma box aliased here (0.050 +- 0.030 against
    # 0.318 at gamma = 5); the complex-mean terms integrate exactly.
    plus = state_to_wigner(CatParams(gamma=gamma, epsilon=eps, sign="plus"))
    minus = state_to_wigner(CatParams(gamma=gamma, epsilon=eps, sign="minus"))
    for res, want in ((integrate_slice(make_slice(plus, P_REFLECT, QUARTER)),
                       refvals.cat_c1_value(gamma, eps)),
                      (integrate_slice(diagonal_slice(minus, NEG_IDENTITY)),
                       refvals.cat_c3_value(gamma, eps))):
        assert res.evaluations == 0
        assert abs(res.value - want) <= 1e-12
        assert abs(res.value - want) <= res.error_estimate
    assert criterion1(plus, P_REFLECT, QUARTER).violated == (eps > 0)
    assert criterion3(minus, NEG_IDENTITY).violated == (eps > refvals.cat_c3_threshold(gamma))


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_cat_forced_quadrature_agrees_with_exact_route(sign):
    # Small cats, where the single box resolves the lobes: the quadrature
    # route stays covered and within its own estimate of the exact value.
    for gamma, eps in ((0.5, 0.25), (1.0, 1.0)):
        w = state_to_wigner(CatParams(gamma=gamma, epsilon=eps, sign=sign))
        forced = replace(w, terms=None)
        t = make_transform(0.8, 0.3, -0.2, 1.175, x0=0.4, p0=-0.3)
        for exact, quad in ((criterion1(w, t, 0.6), criterion1(forced, t, 0.6)),
                            (criterion3(w, t), criterion3(forced, t))):
            assert quad.error_estimate > 0
            assert abs(quad.value - exact.value) <= quad.error_estimate


def test_werner_summed_mode_values():
    for eps in (0.2, 1 / 3, 0.9):
        w = state_to_wigner(WernerParams(bell="psi+", epsilon=eps))
        rep = criterion3(w, NEG_IDENTITY)
        assert abs(rep.value - refvals.werner_c3_value(eps)) < 1e-10
        assert rep.violated == (eps > 1 / 3 + 1e-9)


def test_cat_summed_mode_values():
    for gamma in (0.5, 1.0):
        for eps in (0.25, 1.0):
            w = state_to_wigner(CatParams(gamma=gamma, epsilon=eps, sign="minus"))
            rep = criterion3(w, NEG_IDENTITY)
            assert abs(rep.value - refvals.cat_c3_value(gamma, eps)) < 1e-9


def test_c3_equals_half_summed_mode_peak():
    states = [
        state_to_wigner(TmstParams(s=0.5)),
        state_to_wigner(TmstParams(s=0.7, eta=0.6, r=0.3)),
        state_to_wigner(WernerParams(bell="psi+", epsilon=0.8)),
        state_to_wigner(CatParams(gamma=1.0, epsilon=0.5, sign="minus")),
        state_to_wigner(CatParams(gamma=0.8, epsilon=0.7, sign="plus")),
    ]
    for w in states:
        rep = criterion3(w, NEG_IDENTITY, QuadratureSpec(order=120))
        half = 0.5 * reduced_mode_wigner(w, QUARTER, NEG_IDENTITY,
                                         spec=QuadratureSpec(order=120))(0.0, 0.0).value
        assert abs(rep.value - half) < 1e-10


def test_c3_offset_transform():
    # displacing the transform probes the summed mode off its peak
    w = state_to_wigner(CatParams(gamma=1.0, epsilon=1.0, sign="minus"))
    t0 = criterion3(w, NEG_IDENTITY)
    t_off = criterion3(w, make_transform(-1.0, 0.0, 0.0, -1.0, x0=0.5, p0=0.0))
    assert t_off.value != pytest.approx(t0.value, abs=1e-12)


@pytest.mark.parametrize("w", [
    state_to_wigner(TmstParams(s=0.5, eta=0.6, r=0.4)),
    state_to_wigner(CatParams(gamma=1.0, epsilon=0.5, sign="minus")),
    state_to_wigner(WernerParams(bell="psi+", epsilon=0.5)),
], ids=["tmst", "cat-minus", "werner"])
def test_slice_criteria_take_one_route_call(w, monkeypatch):
    from wigner_witness import criteria
    real = criteria.integrate_slice
    results = []

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(criteria, "integrate_slice", spy)
    # C1 and C3 are exact on every field with terms; C2 integrates |W|, which
    # is exact only for a mixture of real Gaussians.
    for run, exact in ((lambda: criterion1(w, P_REFLECT, QUARTER), True),
                       (lambda: criterion2(w, P_REFLECT, QUARTER), w.backend == "gaussian"),
                       (lambda: criterion3(w, NEG_IDENTITY), True)):
        results.clear()
        rep = run()
        assert len(results) == 1 and rep.value == results[0].value
        assert (results[0].evaluations == 0) == exact


# --- purity ----------------------------------------------------------------

@pytest.mark.slow
def test_purity_routes_agree():
    s = 0.5
    par = TmstParams(s=s)
    w_gauss = state_to_wigner(par)
    w_fock = fock_wigner(state_to_fock(par, cutoff=24))
    w_quad = replace(w_gauss, terms=None, rho=None)
    for theta in (0.6, QUARTER):
        want = refvals.purity_curve(math.cosh(2 * s), math.cosh(2 * s),
                                    math.sinh(2 * s), theta)
        assert abs(purity_s1(w_gauss, theta).value - want) < 1e-12
        assert abs(purity_s1(w_fock, theta).value - want) < 1e-8
        assert abs(purity_s1(w_quad, theta, QuadratureSpec(order=60)).value - want) < 1e-7


@pytest.mark.parametrize("bell, epsilon", [("phi+", 0.8), ("psi+", 0.5)])
@pytest.mark.parametrize("theta", [0.6, QUARTER])
@pytest.mark.parametrize("order", [12, 16, 24])
def test_nested_purity_error_covers_inner_truncation(bell, epsilon, theta, order):
    # Werner lives in {|0>, |1>}^2, so the cutoff-2 Fock value is exact; at
    # these low orders the inner quadratures dominate the error.
    par = WernerParams(bell=bell, epsilon=epsilon)
    exact = _purity_fock(state_to_fock(par, cutoff=2), theta)
    rep = purity_s1(state_to_wigner(par), theta, QuadratureSpec(order=order))
    assert abs(rep.value - exact) <= rep.error_estimate


@pytest.mark.parametrize("order", [12, 16])
def test_nested_purity_at_low_order_is_accurate(order):
    # The outer rule keeps at least 48 nodes per axis and the inner slices
    # are exact, so a low requested order no longer returns 0.517 +- 1251.
    par = WernerParams(bell="phi+", epsilon=0.8)
    exact = _purity_fock(state_to_fock(par, cutoff=2), QUARTER)
    rep = purity_s1(state_to_wigner(par), QUARTER, QuadratureSpec(order=order))
    assert rep.error_estimate <= 1e-3
    assert abs(rep.value - exact) <= rep.error_estimate


def test_purity_vacuum_flat_at_one():
    w = gaussian_wigner(vacuum())
    for theta in (0.3, QUARTER, 1.2):
        rep = purity_s1(w, theta)
        assert abs(rep.value - 1.0) < 1e-12
        assert not rep.violated


def test_purity_verdict_threshold():
    # just under and just over the separable ceiling
    n = m = 1.5
    c_star = math.sqrt((n - 1) * (m - 1))
    for c, want in ((0.95 * c_star, False), (1.2 * c_star, True)):
        g = standard_form(n, m, c, -c)
        rep = purity_s1(gaussian_wigner(g), QUARTER)
        peak = refvals.purity_max(n, m, c)
        # theta=pi/4 is optimal for n = m
        assert abs(rep.value - peak) < 1e-12
        assert rep.violated == want


# --- reference checks ------------------------------------------------------

def test_simon_boundary_matches_analytic_curve():
    r = 0.3
    eta_star = refvals.tmst_boundary_eta(r)
    for s in (0.1, 0.5, 1.2):
        rep = simon_check(tmst_covariance(TmstParams(s=s, eta=eta_star, r=r)))
        assert abs(rep.value) < 1e-10
    below = simon_check(tmst_covariance(TmstParams(s=0.5, eta=eta_star * 0.95, r=r)))
    above = simon_check(tmst_covariance(TmstParams(s=0.5, eta=eta_star * 1.05, r=r)))
    assert not below.violated and above.violated


@pytest.mark.parametrize("s", [0.5, 5.0, 10.0, 20.0, 25.0])
def test_simon_error_covers_rounding_at_large_squeezing(s):
    # tmsv: the smallest eigenvalue of V + i Omega-tilde is e^{-2s} - 1.
    rep = simon_check(tmst_covariance(TmstParams(s=s)))
    assert abs(rep.value - (math.exp(-2.0 * s) - 1.0)) <= rep.error_estimate
    assert rep.error_estimate >= 1e-10
    # Every tmsv is entangled, but above s of about 16.5 the rounding bound
    # passes the margin of 1, so the check declines to certify.
    assert rep.violated == (s <= 10.0)


def test_duan_tmsv_value():
    s = 0.5
    rep = duan_check(tmst_covariance(TmstParams(s=s)))
    assert abs(rep.value - refvals.duan_tmsv_value(s)) < 1e-12
    assert rep.bound == 4.0
    assert rep.violated


def test_duan_insensitive_to_correlation_sign():
    g1 = standard_form(2.0, 2.0, 1.2, -1.2)
    g2 = standard_form(2.0, 2.0, -1.2, 1.2)
    assert abs(duan_check(g1).value - duan_check(g2).value) < 1e-12


def test_ppt_werner_eigenvalue():
    for eps in (0.2, 0.6, 1.0):
        rep = ppt_check(state_to_fock(WernerParams(bell="phi+", epsilon=eps)))
        assert abs(rep.value - refvals.werner_ppt_min_eig(eps)) < 1e-12
        assert rep.violated == (eps > 1 / 3)


def test_pseudospin_detects_tmsv():
    rep = pseudospin_epr(state_to_fock(TmstParams(s=0.6), cutoff=24))
    assert rep.violated
    assert rep.value > rep.bound
    vac = pseudospin_epr(state_to_fock(TmstParams(s=0.0), cutoff=8))
    assert not vac.violated


def test_bell_correlation_calibration():
    """Engine correlations must match the displaced-parity oracle pointwise."""
    rho = state_to_fock(TmstParams(s=0.3), cutoff=30)
    w = fock_wigner(rho)
    rng = np.random.default_rng(9)
    for _ in range(10):
        al = rng.normal(scale=0.4, size=2) + 1j * rng.normal(scale=0.4, size=2)
        xi = (2 * al[0].real, 2 * al[0].imag, 2 * al[1].real, 2 * al[1].imag)
        engine = w.evaluate(*xi)
        oracle = displaced_parity_point(rho, xi)
        assert abs(engine - oracle) < 1e-6 / (TWO_PI) ** 2


def test_bell_chsh_werner_corner():
    # at the origin all four correlations are 1, so the combination is 2
    w = state_to_wigner(WernerParams(bell="phi+", epsilon=1.0))
    rep = bell_chsh(w, (0j, 0j, 0j, 0j))
    assert abs(rep.value - 2.0) < 1e-12
    assert not rep.violated


def test_bell_chsh_violation_found_at_known_settings():
    from wigner_witness import maximize_bell
    w = state_to_wigner(WernerParams(bell="phi+", epsilon=1.0))
    val, alphas = maximize_bell(w)
    assert val > 2.0 + 1e-3
    rep = bell_chsh(w, alphas)
    assert abs(rep.value - val) < 1e-12
    assert rep.violated


# --- report shape ----------------------------------------------------------

def test_report_fields_and_serialization():
    w = state_to_wigner(TmstParams(s=0.5))
    rep = criterion1(w, P_REFLECT, QUARTER)
    d = rep.to_dict()
    assert d["criterion"] == "C1"
    assert d["transform"] == {"a": 1.0, "b": 0.0, "c": 0.0, "d": -1.0,
                              "x0": 0.0, "p0": 0.0}
    assert d["theta"] == QUARTER
    assert d["violated"] is True
    assert d["error_estimate"] >= 0
    rep3 = criterion3(w, NEG_IDENTITY)
    assert rep3.to_dict()["theta"] is None


def test_report_rejects_unknown_id():
    from wigner_witness import CriterionReport
    with pytest.raises(ValueError):
        CriterionReport("C9", 0.0, 0.0, False)
