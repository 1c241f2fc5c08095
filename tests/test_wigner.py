import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigner_witness import (
    Box, CatParams, FULL_PLANE, IDENTITY, NEG_IDENTITY, P_REFLECT, QuadratureSpec,
    WernerParams, diagonal_slice, fock_wigner, gaussian_wigner, integrate, integrate_slice,
    invert_transform, make_slice, make_transform, mixture_wigner, rectangle,
    reduced_mode_wigner, state_to_fock, state_to_wigner, tmsv_covariance, vacuum,
)
from wigner_witness import wigner
from wigner_witness.oracle import (
    FockDensityMatrix, beam_splitter, coherent_ket, displaced_parity_point,
    fock_ket, partial_trace,
)
from wigner_witness.core import SymplecticParam, symplectic_from_params
from wigner_witness.states import TmstParams
from wigner_witness.wigner import (
    Envelope, Poly, SliceField, SlicePlane, WignerField, _mode_kernel,
    single_mode_fock_wigner,
)


TWO_PI = 2 * math.pi


def _pure(psi, cutoff):
    return FockDensityMatrix(np.outer(psi, psi.conj()), cutoff)


def test_single_mode_kernel_calibration():
    """Vacuum peak must be 1/(2pi); this pins the kernel's constants."""
    n = 10
    ket = fock_ket(0, n)
    w = single_mode_fock_wigner(np.outer(ket, ket))
    assert abs(w(0.0, 0.0) - 1.0 / TWO_PI) < 1e-14
    # and the full vacuum profile e^{-r^2/2}/(2pi)
    for x, p in ((1.0, 0.0), (0.3, -1.2), (2.0, 2.0)):
        want = math.exp(-0.5 * (x * x + p * p)) / TWO_PI
        assert abs(w(x, p) - want) < 1e-12


def _reference_mode_kernel(x, p, cutoff):
    """Closed form of every |m><n| kernel row from scipy's Laguerre polynomials."""
    from scipy.special import eval_genlaguerre, gammaln
    r2 = x * x + p * p
    z = x - 1j * p
    envelope = np.exp(-0.5 * r2) / TWO_PI
    out = np.empty((cutoff * cutoff, x.size), dtype=complex)
    for m in range(cutoff):
        for n in range(m + 1):
            d = m - n
            pref = (-1.0) ** n * math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
            val = pref * z ** d * eval_genlaguerre(n, d, r2) * envelope
            out[m * cutoff + n] = val
            out[n * cutoff + m] = np.conj(val)
    return out


@pytest.mark.parametrize("cutoff", [6, 16, 30])
def test_mode_kernel_recurrence_matches_laguerre_closed_form(cutoff):
    axis = np.linspace(-12.0, 12.0, 61)
    x, p = (g.ravel() for g in np.meshgrid(axis, axis))
    got = _mode_kernel(x, p, cutoff)
    want = _reference_mode_kernel(x, p, cutoff)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_mode_kernel_far_points_are_finite_zeros():
    # r ~ 150 lies outside every envelope: the Laguerre factor is huge there,
    # but the kernel must underflow to zero, not produce inf * 0 = NaN.
    x = np.array([150.0, 0.0, -106.0, 120.0])
    p = np.array([0.0, -150.0, 106.0, 90.0])
    kern = _mode_kernel(x, p, 30)
    assert np.all(np.isfinite(kern))
    assert np.all(kern == 0.0)


def test_single_photon_kernel_negative_at_origin():
    n = 10
    ket = fock_ket(1, n)
    w = single_mode_fock_wigner(np.outer(ket, ket))
    assert abs(w(0.0, 0.0) + 1.0 / TWO_PI) < 1e-14


def test_coherent_state_is_shifted_vacuum():
    # alpha maps to x = 2 Re alpha, p = 2 Im alpha
    n = 30
    alpha = 0.7 - 0.4j
    ket = coherent_ket(alpha, n)
    w = single_mode_fock_wigner(np.outer(ket, ket.conj()))
    peak = w(2 * alpha.real, 2 * alpha.imag)
    assert abs(peak - 1.0 / TWO_PI) < 1e-10


def test_gaussian_vacuum_field_values():
    w = gaussian_wigner(vacuum())
    want = 1.0 / TWO_PI ** 2
    assert abs(w.evaluate(0, 0, 0, 0) - want) < 1e-15
    val = w.evaluate(1.0, 0.5, -0.3, 0.2)
    want = math.exp(-0.5 * (1 + 0.25 + 0.09 + 0.04)) / TWO_PI ** 2
    assert abs(val - want) < 1e-15


def test_engines_agree_on_squeezed_state():
    s = 0.4
    wg = state_to_wigner(TmstParams(s=s))
    rho = state_to_fock(TmstParams(s=s), cutoff=26)
    wf = fock_wigner(rho)
    grid = np.linspace(-2.5, 2.5, 5)
    worst = 0.0
    for xa in grid:
        for pa in grid:
            for xb in grid:
                for pb in grid:
                    worst = max(worst, abs(wg.evaluate(xa, pa, xb, pb)
                                           - wf.evaluate(xa, pa, xb, pb)))
    assert worst < 1e-8


def test_fock_engine_matches_displaced_parity():
    rho = state_to_fock(TmstParams(s=0.3), cutoff=24)
    w = fock_wigner(rho)
    rng = np.random.default_rng(12)
    for _ in range(8):
        xi = rng.normal(scale=1.2, size=4)
        assert abs(w.evaluate(*xi) - displaced_parity_point(rho, xi)) < 1e-12


def test_mixture_wigner_is_convex_combination():
    g1 = vacuum()
    g2 = replace(g1, mean=np.array([2.0, 0.0, 0.0, 0.0]))
    w1, w2 = gaussian_wigner(g1), gaussian_wigner(g2)
    wm = mixture_wigner([w1, w2], [0.25, 0.75])
    pt = (0.5, -0.2, 0.1, 0.3)
    want = 0.25 * w1.evaluate(*pt) + 0.75 * w2.evaluate(*pt)
    assert abs(wm.evaluate(*pt) - want) < 1e-15
    assert wm.terms is not None  # closed-form components carried through


def test_slice_through_vacuum_integrates_below_bound():
    w = gaussian_wigner(vacuum())
    slc = make_slice(w, P_REFLECT, math.pi / 4)
    res = integrate_slice(slc)
    # vacuum saturates the criterion-1 bound
    assert abs(res.value - 1.0 / TWO_PI) < 1e-10


def test_slice_box_covers_transform_shift():
    w = gaussian_wigner(vacuum())
    t = make_transform(1.0, 0.0, 0.0, 1.0, x0=6.0, p0=0.0)
    slc = make_slice(w, t, math.pi / 4)
    res = integrate_slice(slc)
    # shifted Gaussian overlap: integral must still capture the mass
    direct = integrate(slc.evaluate, spec=QuadratureSpec(
        order=120, box=Box(slc.box.cx, slc.box.cp, slc.box.hx + 4, slc.box.hp + 4)))
    assert abs(res.value - direct.value) < 1e-10


def test_reduced_mode_matches_beam_splitter_marginal():
    """Mixing engine vs Fock beam splitter, point by point.

    The slice machinery mixes at theta with an identity map on mode B; the
    same state pushed through the Fock beam splitter at -theta and reduced to
    mode B must give the identical function up to the sign flip of both
    output arguments.
    """
    theta = math.pi / 4
    rho = state_to_fock(TmstParams(s=0.4), cutoff=22)
    w = fock_wigner(rho)
    red = reduced_mode_wigner(w, theta, IDENTITY, spec=QuadratureSpec(order=100))
    mixed = beam_splitter(rho, -theta)
    marg = single_mode_fock_wigner(partial_trace(mixed, keep="b"))
    for X, P in ((0.0, 0.0), (0.8, -0.5), (-1.1, 0.4)):
        assert abs(red(X, P).value - marg(-X, -P)) < 1e-8


def test_reduced_mode_p_reflect_normalization():
    # reduced mode is a state: integrates to 1
    w = state_to_wigner(TmstParams(s=0.3))
    red = reduced_mode_wigner(w, 0.9, P_REFLECT, spec=QuadratureSpec(order=80))
    res = integrate(lambda x, p: np.vectorize(lambda X, P: red(X, P).value)(x, p),
                    spec=QuadratureSpec(order=60, box=Box(0, 0, 8, 8)))
    assert abs(res.value - 1.0) < 1e-7


def test_reduced_mode_of_gaussian_is_closed_form():
    w = state_to_wigner(TmstParams(s=0.5, eta=0.6, r=0.4))
    exact = reduced_mode_wigner(w, 0.9, P_REFLECT)
    forced = reduced_mode_wigner(replace(w, terms=None), 0.9, P_REFLECT,
                                 spec=QuadratureSpec(order=160))
    for X, P in ((0.0, 0.0), (0.8, -0.5), (-1.1, 0.4)):
        res = exact(X, P)
        assert res.evaluations == 0
        assert abs(res.value - forced(X, P).value) < 1e-12


def test_diagonal_slice_evaluates_on_mapped_pairs():
    w = gaussian_wigner(vacuum())
    slc = diagonal_slice(w, NEG_IDENTITY)
    val = slc.evaluate(np.array([0.5]), np.array([-0.3]))[0]
    want = w.evaluate(0.5, -0.3, -0.5, 0.3)
    assert abs(val - want) < 1e-15
    assert slc.plane == SlicePlane(NEG_IDENTITY)


def test_envelope_shrinks_with_state_size():
    small = state_to_wigner(TmstParams(s=0.1))
    big = state_to_wigner(TmstParams(s=1.0))
    assert big.envelope.halfwidth > small.envelope.halfwidth


def test_field_backend_labels():
    assert state_to_wigner(TmstParams(s=0.2)).backend == "gaussian"
    assert fock_wigner(state_to_fock(TmstParams(s=0.2), cutoff=16)).backend == "fock"


# -- slice-plane properties --------------------------------------------------

_PLANE_FIELD = mixture_wigner(
    [gaussian_wigner(np.array([0.5, -0.3, 1.0, 0.2]), tmsv_covariance(0.4).cov),
     gaussian_wigner(np.array([-1.0, 0.7, -0.4, 1.2]), 2.0 * np.eye(4))], [0.6, 0.4])
_transforms = st.builds(
    lambda phi1, phi2, t, reflect, x0, p0: symplectic_from_params(
        SymplecticParam(phi1, phi2, t, reflect), x0, p0),
    st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), st.floats(0.4, 2.5),
    st.booleans(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
_thetas = st.floats(0.05, math.pi - 0.05)
_offsets = st.floats(-3.0, 3.0)


def _three_slices(field, t, theta, big_x, big_p):
    """The criterion I/II slice, the diagonal slice and a reduced-mode plane."""
    ct, s_t = math.cos(theta), math.sin(theta)
    reduced = SlicePlane(t, ct, (s_t * big_x, s_t * big_p), s_t, (-ct * big_x, -ct * big_p))
    return (make_slice(field, t, theta), diagonal_slice(field, t),
            SliceField(field, reduced))


@settings(derandomize=True, deadline=None)
@given(_transforms, _thetas, _offsets, _offsets)
def test_plane_matrix_reproduces_slice_values(t, theta, big_x, big_p):
    rng = np.random.default_rng(0)
    u = rng.uniform(-2.0, 2.0, size=(2, 16))
    for slc in _three_slices(_PLANE_FIELD, t, theta, big_x, big_p):
        c_mat, d_vec = slc.plane.matrix()
        pts = c_mat @ u + d_vec[:, None]
        want = _PLANE_FIELD.evaluate(*pts)
        np.testing.assert_allclose(slc.evaluate(u[0], u[1]), want, rtol=1e-12, atol=0)


@settings(derandomize=True, deadline=None)
@given(_transforms, _thetas, _offsets, _offsets,
       st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), st.floats(0.5, 6.0))
def test_plane_box_holds_every_point_inside_the_envelope(t, theta, big_x, big_p,
                                                         center, halfwidth):
    env = Envelope(center=np.array(center), halfwidth=halfwidth)
    for slc in _three_slices(_PLANE_FIELD, t, theta, big_x, big_p):
        box = slc.plane.box(env)
        xs = np.linspace(box.cx - 1.5 * box.hx, box.cx + 1.5 * box.hx, 61)
        ps = np.linspace(box.cp - 1.5 * box.hp, box.cp + 1.5 * box.hp, 61)
        gx, gp = np.meshgrid(xs, ps, indexing="ij")
        image = np.stack(slc.plane(gx, gp))
        inside = np.all(np.abs(image - env.center[:, None, None]) <= halfwidth, axis=0)
        slack = 1e-9 * (1.0 + max(abs(box.cx), abs(box.cp), box.hx, box.hp))
        assert np.all(np.abs(gx[inside] - box.cx) <= box.hx + slack)
        assert np.all(np.abs(gp[inside] - box.cp) <= box.hp + slack)


@pytest.mark.parametrize("absolute", [False, True])
def test_gaussian_slice_on_a_region_takes_quadrature(absolute):
    # Only full-plane slices have the closed form; a rectangle takes the same
    # quadrature as the field without its Gaussian components.  The plane
    # kernel rounds differently from the phase-space evaluator, so the values
    # agree to rounding, not bit for bit.
    region = rectangle(-2, 2, -1, 1)
    res = integrate_slice(make_slice(_PLANE_FIELD, P_REFLECT, 0.7),
                          absolute=absolute, region=region)
    forced = integrate_slice(make_slice(replace(_PLANE_FIELD, terms=None), P_REFLECT, 0.7),
                             absolute=absolute, region=region)
    assert res.evaluations > 0
    assert res.evaluations == forced.evaluations
    assert abs(res.value - forced.value) <= 1e-14 * (1.0 + abs(forced.value))


# -- the plane kernel --------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_kernel_fields = st.one_of(
    st.builds(lambda gamma, eps, sign: state_to_wigner(CatParams(gamma, eps, sign)),
              st.floats(0.05, 8.0), st.floats(0.0, 1.0), st.sampled_from(["plus", "minus"])),
    st.builds(lambda bell, eps: state_to_wigner(WernerParams(bell, eps)),
              st.sampled_from(["phi+", "psi+"]), st.floats(0.0, 1.0)),
    st.just(_PLANE_FIELD))


def _anisotropic(offset):
    return st.builds(
        lambda phi1, phi2, log_t, reflect, x0, p0: symplectic_from_params(
            SymplecticParam(phi1, phi2, math.exp(log_t), reflect), x0, p0),
        st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), st.floats(-5.0, 5.0),
        st.booleans(), st.floats(-offset, offset), st.floats(-offset, offset))


def _far_plane(t, theta, centre, jitter):
    """A plane through the field at u near centre, |centre| <= 1e3, whose shifts
    and transform offset are of the same size."""
    a, b = math.cos(theta), math.sin(theta)
    inv = invert_transform(t)           # inv.x0, inv.p0 = -T^-1 (x0, p0)
    return SlicePlane(t, a, (jitter[0] - a * centre[0], jitter[1] - a * centre[1]), b,
                      (jitter[2] - b * centre[0] + inv.x0, jitter[3] - b * centre[1] + inv.p0))


def _edge_plane(t, theta):
    return SlicePlane(t, math.cos(theta), out_scale=math.sin(theta))


_far_planes = st.builds(_far_plane, _anisotropic(1e3), _thetas,
                        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                        st.tuples(*[st.floats(-1.0, 1.0)] * 4))
_edge_planes = st.builds(_edge_plane, _anisotropic(3.0), st.one_of(
    st.floats(1e-6, 1e-3), st.floats(math.pi / 2 - 1e-3, math.pi / 2 + 1e-3)))


def _assert_kernel_matches_field(field, plane):
    """The plane kernel against field.evaluate(*plane(x, p)) at 16 points around
    each term's centre, |R (u - u0)| <= 3 sqrt 2 with R^T R = C^T C.

    The two read the same nodes through different arithmetic.  Each rounds
    the plane's images at the size S of its largest intermediate: the nodes
    times the plane's scales, and its shifts.  An image error delta moves a
    term's logarithm by at most G delta, with G = 5 |P|^(1/2) + |P b| bounding
    |P (xi - a)| + |P b| near the term, and the evaluator's exponents have
    terms of size E = (|a|^2 + |b|^2)/2 (4 gamma^2 for the cat lobes).  So
    both are within a few eps (1 + E + S G) of the field, relative to its
    largest value there.  On 3,600 random planes the largest error was 14x
    eps (1 + E + S G), at theta within 1e-3 of pi/2; 64x is the bound.
    """
    slc = SliceField(field, plane)
    c_mat, _ = plane.matrix()
    z = np.random.default_rng(0).uniform(-3.0, 3.0, (2, 16))
    steps = np.linalg.solve(np.linalg.qr(c_mat)[1], z)
    u = np.concatenate([centre[:, None] + steps for centre in slc.kernel.centres.T], axis=1)
    want = field.evaluate(*plane(u[0], u[1]))
    got = slc.evaluate(u[0], u[1])
    t = plane.t
    t_norm = np.linalg.norm(t.matrix, 2)
    size = (np.max(np.hypot(u[0], u[1])) * (abs(plane.a_scale)
                                            + abs(plane.out_scale * plane.b_scale) * t_norm)
            + math.hypot(*plane.a_shift)
            + abs(plane.out_scale) * (t_norm * math.hypot(*plane.b_shift) + math.hypot(t.x0, t.p0)))
    means = [np.asarray(mean) for _, mean, _, _ in field.terms]
    exponent = max(0.5 * float(np.sum(np.abs(mean) ** 2)) for mean in means)
    slope = max(5.0 * math.sqrt(np.linalg.norm(prec, 2)) + float(np.linalg.norm(prec @ mean.imag))
                for (prec, _, _, _), mean in zip(field.precisions, means))
    tol = 64.0 * _EPS * (1.0 + exponent + size * slope)
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@settings(derandomize=True, deadline=None)
@given(_kernel_fields, _transforms, _thetas, _offsets, _offsets)
def test_plane_kernel_matches_field_on_ordinary_planes(field, t, theta, big_x, big_p):
    for slc in _three_slices(field, t, theta, big_x, big_p):
        _assert_kernel_matches_field(field, slc.plane)


@settings(derandomize=True, deadline=None)
@given(_kernel_fields, _edge_planes)
def test_plane_kernel_matches_field_at_edge_angles(field, plane):
    # theta within 1e-3 of 0 or pi/2 and |log t| <= 5: M = C^T C has a
    # condition number up to about 1e10.
    _assert_kernel_matches_field(field, plane)


def _exact_centre(plane, prec, mean):
    """The point of the plane nearest to mean in prec's metric, from the normal
    equations C^T P C u = C^T P (mean - d) in exact rational arithmetic."""
    c_mat, d_vec = plane.matrix()
    c = [[Fraction(v) for v in row] for row in c_mat.tolist()]
    p = [[Fraction(v) for v in row] for row in prec.tolist()]
    r = [Fraction(m) - Fraction(d) for m, d in zip(mean.tolist(), d_vec.tolist())]
    pc = [[sum(p[i][k] * c[k][j] for k in range(4)) for j in range(2)] for i in range(4)]
    m = [[sum(c[k][i] * pc[k][j] for k in range(4)) for j in range(2)] for i in range(2)]
    v = [sum(pc[k][i] * r[k] for k in range(4)) for i in range(2)]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return np.array([float((v[0] * m[1][1] - v[1] * m[0][1]) / det),
                     float((m[0][0] * v[1] - m[1][0] * v[0]) / det)])


@settings(derandomize=True, deadline=None)
@given(_kernel_fields, _far_planes)
def test_plane_kernel_matches_field_on_far_planes(field, plane):
    # Shifts and transform offsets up to 1e3, with |log t| <= 5.
    _assert_kernel_matches_field(field, plane)
    # Every centre is a backward-stable least-squares solution: within a few
    # eps of the exact one in the plane's metric, scaled by the size of the
    # problem.  A centre from the normal equations, solve(M, v), is off by up
    # to kappa(L^T C) times that and fails here.
    c_mat, d_vec = plane.matrix()
    centres = SliceField(field, plane).kernel.centres
    for (prec, _, mu, _) in field.precisions:
        exact = _exact_centre(plane, prec, mu)
        m_mat = c_mat.T @ prec @ c_mat
        gaps = centres - exact[:, None]
        gap = math.sqrt(min(float(g @ m_mat @ g) for g in gaps.T))
        scale = (np.linalg.norm(c_mat, 2) * np.linalg.norm(exact) + np.linalg.norm(d_vec)
                 + np.linalg.norm(mu)) * math.sqrt(np.linalg.norm(prec, 2))
        assert gap <= 4.0 * _EPS * scale


@pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_cosine_skip_changes_no_value(gamma, sign, monkeypatch):
    # At the p-reflection and pi/4 the cat fringes' phase gradient is one
    # ulp of cos(pi/4) - sin(pi/4) times 2 gamma, not 0; dropping the cosine
    # there must leave every value bit for bit.
    w = state_to_wigner(CatParams(gamma, 0.6, sign))
    skipped = make_slice(w, P_REFLECT, math.pi / 4)
    assert all(term.phase is None for term in skipped.kernel.terms)
    reach = 2.0 * math.sqrt(2.0) * gamma + 12.0
    gx, gp = np.meshgrid(np.linspace(-reach, reach, 301), np.linspace(-12.0, 12.0, 201))
    monkeypatch.setattr(wigner, "_FLAT_PHASE", 0.0)
    full = make_slice(w, P_REFLECT, math.pi / 4)
    assert any(term.phase is not None for term in full.kernel.terms)
    assert np.array_equal(full.evaluate(gx, gp), skipped.evaluate(gx, gp))


def _term_field(mean, cov, poly):
    """A one-term field W = Re poly(xi) N(xi) evaluated directly, with terms."""
    mean = np.asarray(mean)
    prec = np.linalg.inv(cov)
    norm = 1.0 / (TWO_PI ** 2 * math.sqrt(np.linalg.det(cov)))
    shift = 0.5 * mean.imag @ prec @ mean.imag

    def evaluate(x_a, p_a, x_b, p_b):
        xi = np.stack(np.broadcast_arrays(x_a, p_a, x_b, p_b), axis=-1) - mean
        q = np.einsum("...i,ij,...j->...", xi, prec, xi)
        return np.real(poly.evaluate(x_a, p_a, x_b, p_b) * np.exp(-0.5 * q - shift)) * norm

    env = Envelope(center=mean.real, halfwidth=10.0)
    return WignerField(evaluate=evaluate, backend="closed-form", envelope=env,
                       terms=((1.0, mean, cov, poly),))


@pytest.mark.parametrize("mean", [[0.3, -0.2, 0.5, 0.1], [0.3, 0.8j, -0.2, 0.5 - 0.6j]],
                         ids=["real", "complex"])
def test_plane_kernel_takes_complex_polynomials(mean):
    # W = Re poly N with a complex-valued poly: the kernel forms
    # Re(poly e^(i phase)) from the term's phase on the plane.
    poly = Poly(2, lambda xa, pa, xb, pb: (xa + 1j * pb) ** 2 + 0.5 - 1j * pa)
    w = _term_field(mean, tmsv_covariance(0.3).cov + 0.2 * np.eye(4), poly)
    t = make_transform(0.9, 0.4, -0.3, 0.977777777777778, x0=0.3, p0=-0.2)
    u = np.random.default_rng(1).uniform(-4.0, 4.0, (2, 256))
    for slc in (make_slice(w, t, 0.6), diagonal_slice(w, t)):
        want = w.evaluate(*slc.plane(*u))
        assert np.max(np.abs(slc.evaluate(*u) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("mean", [[0.3, -0.2, 0.5, 0.1], [0.3, 0.8j, -0.2, 0.5 - 0.6j]],
                         ids=["real", "complex"])
def test_polynomial_term_matches_quadrature(mean):
    cov = tmsv_covariance(0.3).cov + 0.2 * np.eye(4)
    poly = Poly(3, lambda xa, pa, xb, pb: 1.0 + xa * xb * pb - 0.5 * pa * pa + xb)
    w = _term_field(mean, cov, poly)
    t = make_transform(0.9, 0.4, -0.3, 0.977777777777778, x0=0.3, p0=-0.2)
    for slc in (make_slice(w, t, 0.6), diagonal_slice(w, t)):
        exact = integrate_slice(slc)
        quad = integrate_slice(slc, QuadratureSpec(order=120, box=Box(0, 0, 9, 9)))
        assert exact.evaluations == 0
        assert abs(exact.value - quad.value) < 1e-12
    # A stack of reduced-mode planes against one quadrature per plane.
    stack = reduced_mode_wigner(w, 0.7, t)(np.array([0.0, 0.4]), np.array([0.2, -0.1]))
    forced = reduced_mode_wigner(replace(w, terms=None), 0.7, t, spec=QuadratureSpec(order=120))
    for i, (x, p) in enumerate(((0.0, 0.2), (0.4, -0.1))):
        assert abs(stack.value[i] - forced(x, p).value) < 1e-12
