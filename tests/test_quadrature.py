import math

import numpy as np
import pytest

from wigner_witness import (
    Box, FULL_PLANE, IntegralResult, NonConvergenceError, QuadratureSpec,
    disk_union, integrate, integrate_abs, rectangle,
)


UNIT_GAUSS = lambda x, p: np.exp(-0.5 * (x * x + p * p)) / (2 * math.pi)


def test_gaussian_integrates_to_one():
    r = integrate(UNIT_GAUSS, spec=QuadratureSpec(box=Box(0, 0, 9, 9)))
    assert abs(r.value - 1.0) < 1e-12
    assert abs(r.value - 1.0) <= max(r.error_estimate, 1e-12)


def test_polynomial_exactness():
    # order-n Gauss-Legendre is exact for degree 2n-1 per axis
    f = lambda x, p: x ** 6 * p ** 4 + 2.0
    r = integrate(f, spec=QuadratureSpec(order=8, box=Box(0, 0, 1, 1)))
    exact = 4.0 * (1 / 7) * (1 / 5) + 2.0 * 4.0
    assert abs(r.value - exact) < 1e-12


def test_rectangle_region_uses_own_bounds():
    r = integrate(lambda x, p: np.ones_like(x), region=rectangle(0, 2, -1, 1),
                  spec=QuadratureSpec(order=8))
    assert abs(r.value - 4.0) < 1e-12


def test_disk_region_area():
    r = integrate(lambda x, p: np.ones_like(x), region=disk_union((0.5, -0.5, 1.25)),
                  spec=QuadratureSpec(order=40))
    assert abs(r.value - math.pi * 1.25 ** 2) < 1e-10


def test_overlapping_disks_error_is_generous():
    reg = disk_union((0.0, 0.0, 1.0), (0.5, 0.0, 1.0))
    r = integrate(UNIT_GAUSS, region=reg, spec=QuadratureSpec(order=64))
    r2 = integrate(UNIT_GAUSS, region=reg, spec=QuadratureSpec(order=128))
    assert abs(r.value - r2.value) <= r.error_estimate


def test_full_plane_without_box_raises():
    with pytest.raises(ValueError):
        integrate(UNIT_GAUSS, spec=QuadratureSpec())


def test_adaptive_matches_tensor_on_smooth_field():
    spec_t = QuadratureSpec(box=Box(0, 0, 9, 9))
    spec_a = QuadratureSpec(rule="adaptive-subdivision", tolerance=1e-10,
                            box=Box(0, 0, 9, 9))
    rt = integrate(UNIT_GAUSS, spec=spec_t)
    ra = integrate(UNIT_GAUSS, spec=spec_a)
    assert abs(rt.value - ra.value) < 1e-9


def test_abs_integral_upgrades_on_sign_change():
    f = lambda x, p: np.sin(2 * x) * np.exp(-0.5 * (x * x + p * p))
    spec = QuadratureSpec(tolerance=1e-6, box=Box(0, 0, 8, 8))
    ra = integrate_abs(f, spec=spec)
    # separable closed form: int |sin 2x| e^{-x^2/2} dx * int e^{-p^2/2} dp
    from scipy.integrate import quad
    ix, _ = quad(lambda x: abs(math.sin(2 * x)) * math.exp(-0.5 * x * x), -8, 8, limit=400)
    true = ix * math.sqrt(2 * math.pi)
    assert abs(ra.value - true) < 10 * ra.error_estimate
    assert abs(ra.value - true) < 1e-5


def test_abs_equals_plain_for_nonnegative_integrand():
    spec = QuadratureSpec(box=Box(0, 0, 9, 9))
    ra = integrate_abs(UNIT_GAUSS, spec=spec)
    ri = integrate(UNIT_GAUSS, spec=spec)
    assert abs(ra.value - ri.value) < 1e-13


def test_abs_dominates_signed_integral():
    f = lambda x, p: np.cos(3 * x) * np.exp(-0.5 * (x * x + p * p))
    spec = QuadratureSpec(tolerance=1e-5, box=Box(0, 0, 8, 8))
    signed = integrate(f, spec=spec)
    absval = integrate_abs(f, spec=spec)
    assert absval.value >= abs(signed.value) - 1e-10


def test_nonconvergence_raises():
    # kinked integrand, unreachable tolerance
    f = lambda x, p: np.abs(np.sin(5 * x)) * np.exp(-0.5 * (x * x + p * p))
    with pytest.raises(NonConvergenceError):
        integrate(f, spec=QuadratureSpec(rule="adaptive-subdivision",
                                         tolerance=1e-13, box=Box(0, 0, 8, 8)))


def test_error_estimate_covers_order_doubling():
    # moderately oscillatory but smooth: estimate must bound the order-160 move
    f = lambda x, p: np.cos(4 * x) * np.cos(3 * p) * np.exp(-0.25 * (x * x + p * p))
    lo = integrate(f, spec=QuadratureSpec(order=80, box=Box(0, 0, 10, 10)))
    hi = integrate(f, spec=QuadratureSpec(order=160, box=Box(0, 0, 10, 10)))
    assert abs(hi.value - lo.value) <= lo.error_estimate


def test_result_reports_evaluation_count():
    r = integrate(UNIT_GAUSS, spec=QuadratureSpec(order=16, box=Box(0, 0, 6, 6)))
    assert isinstance(r, IntegralResult)
    assert r.evaluations == 16 * 16 + 12 * 12


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rule="monte-carlo")
    with pytest.raises(ValueError):
        QuadratureSpec(order=2)
    with pytest.raises(ValueError):
        Box(0, 0, -1, 1)


def test_cached_gauss_legendre_rule_is_read_only():
    from wigner_witness.quadrature import _leggauss
    nodes, weights = _leggauss(12)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert abs(weights.sum() - 2.0) < 1e-14
