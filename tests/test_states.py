import math

import numpy as np
import pytest

from wigner_witness import (
    CatParams, CutoffTooSmallError, Envelope, TmstParams, WernerParams, default_cutoff,
    standard_form, state_to_fock, state_to_wigner, tmst_covariance,
    tmsv_covariance, vacuum,
)
from wigner_witness.oracle import expectation, number, tensor
from wigner_witness.states import standard_form_params

import refvals


def test_vacuum_covariance_is_identity():
    np.testing.assert_allclose(vacuum().cov, np.eye(4), atol=1e-15)


def test_tmsv_covariance_entries():
    s = 0.5
    v = tmsv_covariance(s).cov
    ch, sh = math.cosh(2 * s), math.sinh(2 * s)
    np.testing.assert_allclose(np.diag(v), [ch, ch, ch, ch], atol=1e-12)
    assert abs(v[0, 2] - sh) < 1e-12
    assert abs(v[1, 3] + sh) < 1e-12


def test_tmst_reduces_to_tmsv():
    v1 = tmst_covariance(TmstParams(s=0.7))
    v2 = tmsv_covariance(0.7)
    np.testing.assert_allclose(v1.cov, v2.cov, atol=1e-12)


def test_tmst_standard_entries_formula():
    s, eta, r = 0.5, 0.4, 0.3
    g = tmst_covariance(TmstParams(s=s, eta=eta, r=r))
    n, m, c = refvals.tmst_standard_entries(s, eta, r)
    assert abs(g.cov[0, 0] - n) < 1e-12
    assert abs(g.cov[2, 2] - m) < 1e-12
    assert abs(g.cov[0, 2] - c) < 1e-12
    assert abs(g.cov[1, 3] + c) < 1e-12


def test_tmst_moments_match_fock_channel():
    # covariance formulas against the Kraus-operator route, second moments
    par = TmstParams(s=0.4, eta=0.6, r=0.25)
    g = tmst_covariance(par)
    rho = state_to_fock(par, cutoff=20)
    n = rho.cutoff
    num_a = tensor(number(n), np.eye(n))
    # <x_a^2> = 2<n_a> + 1 for zero-mean states in this convention
    na = expectation(rho, num_a)
    assert abs((2 * na + 1) - 0.5 * (g.cov[0, 0] + g.cov[1, 1])) < 5e-6


def test_standard_form_rejects_unphysical():
    with pytest.raises(ValueError):
        standard_form(1.0, 1.0, 0.5, -0.5)
    with pytest.raises(ValueError):
        standard_form(0.5, 1.0, 0.0, 0.0)


def test_standard_form_params_round_trip():
    g = standard_form(1.8, 1.3, 0.6, -0.4)
    n, m, c1, c2 = standard_form_params(g)
    assert (abs(n - 1.8) + abs(m - 1.3) + abs(c1 - 0.6) + abs(c2 + 0.4)) < 1e-12


def test_gaussian_state_validates_physicality():
    # partial transpose of entangled covariance is unphysical and must raise
    v = tmsv_covariance(0.5).cov.copy()
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    from wigner_witness.states import GaussianTwoMode
    with pytest.raises(ValueError):
        GaussianTwoMode(mean=np.zeros(4), cov=flip @ v @ flip)


def test_werner_wigner_matches_fock():
    for bell in ("phi+", "psi+"):
        par = WernerParams(bell=bell, epsilon=0.7)
        w = state_to_wigner(par)
        rho = state_to_fock(par)
        from wigner_witness import fock_wigner
        wf = fock_wigner(rho)
        rng = np.random.default_rng(7)
        for _ in range(12):
            pt = rng.normal(scale=1.1, size=4)
            assert abs(w.evaluate(*pt) - wf.evaluate(*pt)) < 1e-12


def test_cat_wigner_matches_fock():
    par = CatParams(gamma=1.0, epsilon=0.5, sign="plus")
    w = state_to_wigner(par)
    from wigner_witness import fock_wigner
    wf = fock_wigner(state_to_fock(par))
    rng = np.random.default_rng(8)
    for _ in range(12):
        pt = rng.normal(scale=1.5, size=4)
        assert abs(w.evaluate(*pt) - wf.evaluate(*pt)) < 1e-8


def test_cat_minus_zero_amplitude_rejected():
    with pytest.raises(ValueError):
        CatParams(gamma=0.0, epsilon=0.5, sign="minus")


def test_param_validation():
    with pytest.raises(ValueError):
        TmstParams(s=-0.1)
    with pytest.raises(ValueError):
        TmstParams(s=0.5, eta=0.0)
    # cosh(2 s) and cosh(r)^2 overflow a float past s + r = 350
    for s, r in ((400.0, 0.0), (0.5, 800.0), (200.0, 150.5)):
        with pytest.raises(ValueError, match="at most 350"):
            TmstParams(s=s, eta=0.5, r=r)
    TmstParams(s=200.0, eta=0.5, r=150.0)
    with pytest.raises(ValueError):
        WernerParams(bell="phi-", epsilon=0.5)
    with pytest.raises(ValueError):
        WernerParams(bell="phi+", epsilon=1.5)


@pytest.mark.parametrize("build", [
    lambda: CatParams(gamma=math.inf, epsilon=0.5),
    lambda: CatParams(gamma=math.nan, epsilon=0.5),
    lambda: TmstParams(s=math.nan),
    lambda: TmstParams(s=math.inf),
    lambda: TmstParams(s=0.5, eta=0.5, r=math.nan),
    lambda: standard_form(math.nan, 1.0, 0.0, 0.0),
    lambda: standard_form(1.0, 1.0, math.inf, 0.0),
    # finite parameters whose envelope half-width overflows
    lambda: state_to_wigner(CatParams(gamma=1e200, epsilon=0.5)),
    lambda: Envelope(center=[0.0, math.nan, 0.0, 0.0], halfwidth=1.0),
])
def test_nonfinite_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_default_cutoff_scales_and_is_even():
    assert default_cutoff(WernerParams(bell="phi+", epsilon=0.3)) == 2
    for par in (TmstParams(s=0.5), TmstParams(s=1.0, r=0.6),
                CatParams(gamma=2.0, epsilon=1.0, sign="plus")):
        n = default_cutoff(par)
        assert n % 2 == 0
    assert default_cutoff(TmstParams(s=1.0)) > default_cutoff(TmstParams(s=0.2))


def test_fock_truncation_guard():
    # cutoff far too small for the squeezing must raise, not silently truncate
    with pytest.raises(CutoffTooSmallError):
        state_to_fock(TmstParams(s=1.2), cutoff=4)


def test_fock_states_have_unit_trace():
    for par in (TmstParams(s=0.6, eta=0.7, r=0.2),
                WernerParams(bell="psi+", epsilon=0.4),
                CatParams(gamma=1.5, epsilon=0.8, sign="minus")):
        rho = state_to_fock(par)
        assert abs(rho.trace - 1.0) < 1e-6
