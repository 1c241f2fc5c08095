import math
import tracemalloc

import numpy as np
import pytest

from wigner_witness import (
    Box, CatParams, FULL_PLANE, IntegralResult, NonConvergenceError, P_REFLECT,
    QuadratureSpec, cat_wigner, criterion2, disk_union, integrate, integrate_abs,
    rectangle,
)
from wigner_witness.quadrature import _BLOCK, _gk_cells


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
    # a nan tolerance never trips the stall check; zero or below is never met
    for bad in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=bad)


def test_cached_gauss_legendre_rule_is_read_only():
    from wigner_witness.quadrature import _leggauss
    nodes, weights = _leggauss(12)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert abs(weights.sum() - 2.0) < 1e-14


class _Spy:
    """Pointwise integrand that records the size of every call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []
        self.shapes_ok = True

    def __call__(self, x, p):
        self.shapes_ok &= x.shape == p.shape and x.ndim == 1
        self.sizes.append(x.size)
        return self.f(x, p)


def _check_blocks(spy, result):
    assert spy.shapes_ok
    assert max(spy.sizes) <= _BLOCK
    assert sum(spy.sizes) == result.evaluations


OSC = lambda x, p: np.cos(1.3 * x - 0.4 * p) * np.exp(-0.15 * (x * x + p * p))


def _gl(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def test_tensor_rule_streams_blocks():
    order = 150                       # 150^2 nodes: three blocks
    spy = _Spy(OSC)
    r = integrate(spy, spec=QuadratureSpec(order=order, box=Box(0.5, -0.5, 9, 8)))
    _check_blocks(spy, r)
    assert len(spy.sizes) > 2
    xn, xw = _gl(-8.5, 9.5, order)
    pn, pw = _gl(-8.5, 7.5, order)
    gx, gp = np.meshgrid(xn, pn, indexing="ij")
    vals = OSC(gx.ravel(), gp.ravel()).reshape(order, order)
    assert r.value == float(xw @ vals @ pw)


def _gauss_kronrod_15():
    """Nodes, Kronrod weights and embedded 7-point Gauss weights on [-1, 1].

    Derived, not tabulated: the 8 added nodes are the roots of the Stieltjes
    polynomial E8 = x^8 + a x^6 + b x^4 + c x^2 + d, orthogonal to x^k P7 for
    k < 8, and the Kronrod weights integrate P0..P14 exactly.
    """
    leg = np.polynomial.legendre
    p7 = leg.leg2poly(leg.Legendre.basis(7).coef)
    moment = lambda n: 2.0 / (n + 1) if n % 2 == 0 else 0.0
    inner = lambda j, k: sum(c * moment(i + j + k) for i, c in enumerate(p7))
    odd = (1, 3, 5, 7)                # P7 E8 is odd, so even k hold already
    coef = np.linalg.solve([[inner(j, k) for j in (6, 4, 2, 0)] for k in odd],
                           [-inner(8, k) for k in odd])
    added = np.sqrt(np.roots(np.concatenate([[1.0], coef])).real)
    gauss_x, gauss_w = leg.leggauss(7)
    nodes = np.sort(np.concatenate([gauss_x, added, -added]))
    rhs = np.zeros(15)
    rhs[0] = 2.0
    kronrod = np.linalg.solve(leg.legvander(nodes, 14).T, rhs)
    gauss = np.zeros(15)
    gauss[1::2] = gauss_w
    return nodes, kronrod, gauss


def test_adaptive_cells_stream_blocks():
    cell = 15 * 15
    spy = _Spy(OSC)
    r = integrate(spy, spec=QuadratureSpec(rule="adaptive-subdivision", tolerance=1e-12,
                                           box=Box(0, 0, 8, 8)))
    _check_blocks(spy, r)
    # every call holds whole cells, and the wide waves fill whole blocks
    assert all(size % cell == 0 for size in spy.sizes)
    assert spy.sizes.count(_BLOCK // cell * cell) >= 2
    # one wave against a single full-grid call
    rng = np.random.default_rng(3)
    cells = np.column_stack([rng.uniform(-4, 4, (300, 2)), rng.uniform(0.1, 1.0, (300, 2))])
    spy = _Spy(OSC)
    value, ex, ep = _gk_cells(spy, cells)
    assert spy.shapes_ok and max(spy.sizes) <= _BLOCK and sum(spy.sizes) == 300 * cell
    assert all(size % cell == 0 for size in spy.sizes)
    nodes, kronrod, gauss = _gauss_kronrod_15()
    xs = cells[:, 0:1] + cells[:, 2:3] * nodes
    ps = cells[:, 1:2] + cells[:, 3:4] * nodes
    gx = np.repeat(xs[:, :, None], 15, axis=2)
    gp = np.repeat(ps[:, None, :], 15, axis=1)
    vals = OSC(gx.ravel(), gp.ravel()).reshape(-1, 15, 15)
    area = cells[:, 2] * cells[:, 3]
    rule = lambda wx, wp, v=vals: np.einsum("cij,i,j->c", v, wx, wp) * area
    # the derived weights differ from the tabulated ones by rounding only
    slack = 1e-13 * rule(np.abs(kronrod), np.abs(kronrod), np.abs(vals))
    assert np.all(np.abs(value - rule(kronrod, kronrod)) <= slack)
    assert np.all(np.abs(ex - np.abs(rule(kronrod - gauss, kronrod))) <= slack)
    assert np.all(np.abs(ep - np.abs(rule(kronrod, kronrod - gauss))) <= slack)


def test_polar_disks_stream_blocks():
    disks = ((-2.0, 0.5, 1.5), (2.5, -0.5, 2.0))
    order = 160                       # 80 x 160 polar nodes per disk: two blocks
    spy = _Spy(OSC)
    r = integrate(spy, region=disk_union(*disks), spec=QuadratureSpec(order=order))
    _check_blocks(spy, r)
    n_r, n_phi = order // 2, order
    un, uw = _gl(0.0, 1.0, n_r)
    an, aw = _gl(0.0, 2.0 * math.pi, n_phi)
    ref = 0.0
    for cx, cp, radius in disks:
        rr = radius * np.sqrt(un)
        xs = cx + np.outer(rr, np.cos(an))
        ps = cp + np.outer(rr, np.sin(an))
        vals = OSC(xs.ravel(), ps.ravel()).reshape(n_r, n_phi)
        ref += 0.5 * radius * radius * float(uw @ vals @ aw)
    assert r.value == ref


def test_masked_grid_streams_blocks():
    disks = ((0.0, 0.0, 2.0), (1.0, 0.5, 1.5))
    order = 40                        # 160 x 160 grid, about 13k nodes inside
    spy = _Spy(OSC)
    r = integrate(spy, region=disk_union(*disks), spec=QuadratureSpec(order=order))
    _check_blocks(spy, r)
    n = 4 * order
    x_lo, x_hi, p_lo, p_hi = -2.0, 2.5, -2.0, 2.0
    xs = np.linspace(x_lo, x_hi, n, endpoint=False) + (x_hi - x_lo) / (2 * n)
    ps = np.linspace(p_lo, p_hi, n, endpoint=False) + (p_hi - p_lo) / (2 * n)
    gx, gp = np.meshgrid(xs, ps, indexing="ij")
    mask = np.zeros(gx.shape, dtype=bool)
    for cx, cp, radius in disks:
        mask |= (gx - cx) ** 2 + (gp - cp) ** 2 <= radius * radius
    assert mask.sum() > _BLOCK
    vals = np.zeros(gx.shape)
    vals[mask] = OSC(gx[mask], gp[mask])
    assert r.value == float(vals.sum() * ((x_hi - x_lo) * (p_hi - p_lo) / (n * n)))


@pytest.mark.parametrize("region", [
    FULL_PLANE,                                            # adaptive |W| waves
    disk_union((0.5, 0.0, 2.0), (-0.5, 0.3, 2.0)),         # masked grid
], ids=["full-plane", "overlapping-disks"])
def test_c2_memory_is_bounded_by_blocks(region):
    cat = cat_wigner(CatParams(gamma=0.6, epsilon=0.5, sign="minus"))
    criterion2(cat, P_REFLECT, math.pi / 4, region)      # fill the lazy caches
    tracemalloc.start()
    try:
        criterion2(cat, P_REFLECT, math.pi / 4, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
