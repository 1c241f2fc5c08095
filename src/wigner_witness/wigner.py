"""Wigner-field evaluation engines and transformed phase-space slices.

A WignerField wraps a vectorized evaluator W(x_A, p_A, x_B, p_B) together
with a Gaussian envelope used to truncate quadrature domains and, when the
field is a finite sum of polynomial-times-Gaussian terms, that term list.
Every slice criterion integrates W over an affine 2-plane u -> C u + d of
phase space, and SlicePlane is that one geometry for all of them: it maps
quadrature nodes to phase-space points, gives (C, d) to the exact
integrals and derives the quadrature box from the envelope.  A plane whose
shifts are arrays is a stack of parallel planes sharing C.  integrate_slice
is the one place a slice integral picks its route, exact or quadrature.

Conventions: [x, p] = 2i, vacuum variance 1, so the vacuum Wigner function
is exp(-(x^2+p^2)/2)/(2 pi) per mode and alpha = (x + i p)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .core import FULL_PLANE, Region, Transform2, apply_transform, check_theta, invert_transform
from .oracle import FockDensityMatrix, destroy, expectation
from .quadrature import (_BLOCK, Box, IntegralResult, NonConvergenceError, QuadratureSpec,
                         _err_floor, integrate, integrate_abs)

_TWO_PI = 2.0 * math.pi
# Relative rounding of one exact term: a few dozen correctly rounded
# operations, plus the absolute rounding of its exponent (added per term).
_ROUNDING_OPS = 64.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Envelope:
    """Axis-aligned truncation hint: essentially all mass lies within
    center +/- halfwidth on every phase-space axis."""

    center: np.ndarray
    halfwidth: float

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=float).reshape(4)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        if not (np.all(np.isfinite(c)) and math.isfinite(self.halfwidth) and self.halfwidth > 0):
            raise ValueError("envelope needs a finite center and a finite positive "
                             f"halfwidth, got {c!r} and {self.halfwidth!r}")


class Poly(NamedTuple):
    """Polynomial factor of a term: total degree and a vectorized evaluator
    of the four phase-space coordinates (real or complex arrays)."""

    degree: int
    evaluate: Callable[..., np.ndarray]


@dataclass(frozen=True)
class WignerField:
    """Two-mode Wigner function with an evaluation backend.

    `terms`, when set, writes the field exactly as a tuple of
    (weight, mean, cov, poly) entries, W = Re sum weight poly(xi) N(xi),
    where N is the normalized Gaussian of the mean and covariance and poly is
    a Poly or None for the constant 1.  A complex mean a + ib stands for
    N(xi) = exp(-(xi - mu)^T V^-1 (xi - mu)/2 - b^T V^-1 b/2) / ((2 pi)^2 sqrt(det V)),
    whose modulus is the real Gaussian at a: its e^(-b^T V^-1 b/2) sits in
    the exponent, so neither the term nor its slice integral overflows.  The
    exact routes (integrate_slice, the purity criterion) read it to bypass
    quadrature; fields without terms (the Fock engine) take quadrature.
    """

    evaluate: Callable[..., np.ndarray]
    backend: str
    envelope: Envelope
    terms: tuple | None = None
    rho: FockDensityMatrix | None = None

    def __call__(self, x_a, p_a, x_b, p_b):
        return self.evaluate(x_a, p_a, x_b, p_b)

    @cached_property
    def precisions(self) -> tuple:
        """(V^-1, sqrt(det V), real part of the mean, V^-1 times its imaginary
        part or None) per term, computed once per field.  Terms that hold the
        same covariance array share one V^-1 object."""
        shared: dict = {}
        out = []
        for _, mean, cov, _ in self.terms:
            if id(cov) not in shared:
                shared[id(cov)] = (np.linalg.inv(cov), math.sqrt(np.linalg.det(cov)))
            prec, root_det = shared[id(cov)]
            if np.iscomplexobj(mean):
                out.append((prec, root_det, mean.real.copy(), prec @ mean.imag))
            else:
                out.append((prec, root_det, mean, None))
        return tuple(out)


def _plain_gaussians(terms) -> bool:
    """True when every term is an ordinary Gaussian: poly 1 and a real mean."""
    return terms is not None and all(
        poly is None and not np.iscomplexobj(mean) for _, mean, _, poly in terms)


@dataclass(frozen=True)
class SliceField:
    """A field on a slice plane: the two-variable integrand and its quadrature box."""

    field: WignerField
    plane: SlicePlane

    @cached_property
    def box(self) -> Box:
        return self.plane.box(self.field.envelope)

    def evaluate(self, x, p):
        return self.field.evaluate(*self.plane(x, p))


def gaussian_wigner(state, cov=None) -> WignerField:
    """Gaussian field exp(-(xi-mu)^T V^-1 (xi-mu)/2) / ((2 pi)^2 sqrt(det V)).

    Accepts either a state object with .mean and .cov attributes or an
    explicit (mean, cov) pair.
    """
    if cov is None:
        mean, cov = state.mean, state.cov
    else:
        mean = state
    mu = np.asarray(mean, dtype=float).reshape(4)
    v = np.asarray(cov, dtype=float).reshape(4, 4)
    det = float(np.linalg.det(v))
    if det < 1e-12:
        raise ValueError(f"covariance determinant {det!r} is numerically singular")
    vinv = np.linalg.inv(v)
    norm = 1.0 / ((_TWO_PI) ** 2 * math.sqrt(det))

    def evaluate(x_a, p_a, x_b, p_b):
        parts = np.broadcast_arrays(
            np.asarray(x_a, float), np.asarray(p_a, float),
            np.asarray(x_b, float), np.asarray(p_b, float))
        d = np.stack(parts, axis=-1) - mu
        q = np.einsum("...i,ij,...j->...", d, vinv, d)
        return norm * np.exp(-0.5 * q)

    halfwidth = 8.0 * math.sqrt(float(np.max(np.diag(v)))) + float(np.max(np.abs(mu)))
    env = Envelope(center=mu, halfwidth=max(halfwidth, 1.0))
    return WignerField(evaluate=evaluate, backend="gaussian", envelope=env,
                       terms=((1.0, mu, v, None),))


def mixture_wigner(fields, weights) -> WignerField:
    """Convex combination of Wigner fields; weights must sum to 1."""
    w = [float(x) for x in weights]
    if len(w) != len(fields) or not fields:
        raise ValueError("need one weight per component field")
    if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    comps = tuple(fields)

    def evaluate(x_a, p_a, x_b, p_b):
        acc = w[0] * comps[0].evaluate(x_a, p_a, x_b, p_b)
        for wi, ci in zip(w[1:], comps[1:]):
            acc = acc + wi * ci.evaluate(x_a, p_a, x_b, p_b)
        return acc

    centers = np.stack([c.envelope.center for c in comps])
    center = np.average(centers, axis=0, weights=w)
    halfwidth = max(
        c.envelope.halfwidth + float(np.max(np.abs(c.envelope.center - center)))
        for c in comps)
    terms: tuple | None = None
    if all(c.terms is not None for c in comps):
        terms = tuple((wi * weight, mean, cov, poly)
                      for wi, ci in zip(w, comps) for weight, mean, cov, poly in ci.terms)
    backend = comps[0].backend if len({c.backend for c in comps}) == 1 else "closed-form"
    return WignerField(evaluate=evaluate, backend=backend,
                       envelope=Envelope(center=center, halfwidth=halfwidth),
                       terms=terms)


def _mode_kernel(x: np.ndarray, p: np.ndarray, cutoff: int) -> np.ndarray:
    """Single-mode Fock Wigner kernel matrix, shape (cutoff^2, npoints).

    Row m*cutoff + n holds the Wigner transform of |m><n|; for m >= n it is
    (-1)^n sqrt(n!/m!) (x-ip)^(m-n) L_n^(m-n)(x^2+p^2) exp(-(x^2+p^2)/2) / 2pi
    and the (n, m) entry is its conjugate.

    The normalised Laguerre factor g_n^d = (-1)^n sqrt(n!/(n+d)!) L_n^d(r^2),
    times the envelope, is carried upward in n for every d = m - n at once by
    the three-term recurrence
    g_{n+1} = ((r^2 - 2n - 1 - d) g_n - sqrt(n (n+d)) g_{n-1}) / sqrt((n+1)(n+1+d)),
    the iterative method of Johansson, Nation & Nori, CPC 184, 1234 (2013).
    """
    x = np.asarray(x, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()
    r2 = x * x + p * p
    envelope = np.exp(-0.5 * r2) / _TWO_PI
    z_pow = np.empty((cutoff, x.size), dtype=complex)
    z_pow[0] = 1.0
    z = x - 1j * p
    for k in range(1, cutoff):
        z_pow[k] = z_pow[k - 1] * z
    d = np.arange(cutoff, dtype=float)[:, None]
    inv_sqrt_fact = np.array([1.0 / math.sqrt(math.factorial(k)) for k in range(cutoff)])
    # g[d] holds g_n^d (times the envelope) for the d < cutoff - n still in range.
    g_prev = np.zeros((cutoff, x.size))
    g = inv_sqrt_fact[:, None] * envelope
    out = np.empty((cutoff * cutoff, x.size), dtype=complex)
    for n in range(cutoff):
        # Row (n + d, n) sits at n*(cutoff + 1) + d*cutoff, row (n, n + d) at
        # n*(cutoff + 1) + d.
        top = cutoff - n
        vals = z_pow[:top] * g
        start = n * (cutoff + 1)
        out[start::cutoff][:top] = vals
        out[start + 1:start + top] = np.conj(vals[1:])
        dd = d[:top - 1]
        g_next = ((r2 - (2 * n + 1) - dd) * g[:-1]
                  - np.sqrt(n * (n + dd)) * g_prev[:-1]) / np.sqrt((n + 1) * (n + 1 + dd))
        g_prev, g = g[:-1], g_next
    return out


def _fock_envelope(rho: FockDensityMatrix) -> Envelope:
    n = rho.cutoff
    a = destroy(n)
    eye = np.eye(n, dtype=complex)
    x_op = a + a.conj().T
    p_op = 1j * (a.conj().T - a)
    sq = x_op @ x_op + p_op @ p_op
    means, var_max = [], 1.0
    for op1 in (x_op, p_op):
        means.append(expectation(rho, np.kron(op1, eye)))
    for op1 in (x_op, p_op):
        means.append(expectation(rho, np.kron(eye, op1)))
    for side in (lambda o: np.kron(o, eye), lambda o: np.kron(eye, o)):
        second = expectation(rho, side(sq))
        var_max = max(var_max, 0.5 * second)
    center = np.asarray(means)
    halfwidth = 8.0 * math.sqrt(var_max) + float(np.max(np.abs(center)))
    return Envelope(center=center, halfwidth=halfwidth)


def fock_wigner(rho: FockDensityMatrix) -> WignerField:
    """Wigner field of a truncated density matrix via the Fock-basis kernel.

    Equivalent to the displaced-parity definition; the equality is enforced
    by a calibration test against oracle.displaced_parity_point.
    """
    n = rho.cutoff
    paired = rho.as_modes().transpose(0, 2, 1, 3).reshape(n * n, n * n)
    chunk = max(256, int(6e6) // (n * n))
    env = _fock_envelope(rho)

    def evaluate(x_a, p_a, x_b, p_b):
        parts = np.broadcast_arrays(
            np.asarray(x_a, float), np.asarray(p_a, float),
            np.asarray(x_b, float), np.asarray(p_b, float))
        shape = parts[0].shape
        flat = [v.ravel() for v in parts]
        total = flat[0].size
        out = np.empty(total)
        for i in range(0, total, chunk):
            sl = slice(i, i + chunk)
            k_a = _mode_kernel(flat[0][sl], flat[1][sl], n)
            k_b = _mode_kernel(flat[2][sl], flat[3][sl], n)
            out[sl] = np.einsum("ac,ac->c", k_a, paired @ k_b).real
        return out.reshape(shape) if shape else float(out[0])

    return WignerField(evaluate=evaluate, backend="fock", envelope=env, rho=rho)


def single_mode_fock_wigner(rho: np.ndarray) -> Callable:
    """Evaluator (x, p) -> W for a single-mode truncated density matrix."""
    mat = np.asarray(rho, dtype=complex)
    n = mat.shape[0]
    coef = mat.reshape(n * n)

    def evaluate(x, p):
        xs = np.asarray(x, dtype=float)
        shape = xs.shape
        kern = _mode_kernel(xs, np.asarray(p, float), n)
        vals = np.einsum("a,ac->c", coef, kern).real
        return vals.reshape(shape) if shape else float(vals[0])

    return evaluate


def _interval_intersection(first, second):
    """Intersect optional (lo, hi) intervals; None means unconstrained."""
    if first is None:
        return second
    if second is None:
        return first
    lo, hi = max(first[0], second[0]), min(first[1], second[1])
    if hi <= lo:
        mid = 0.5 * (lo + hi)
        return (mid - 0.5, mid + 0.5)
    return (lo, hi)


def _scaled_interval(lo: float, hi: float, scale: float):
    """Pre-image of [lo, hi] under v -> scale * v; None when the scale vanishes."""
    if abs(scale) < 1e-12:
        return None
    lo, hi = lo / scale, hi / scale
    return (min(lo, hi), max(lo, hi))


_NO_SHIFT = (0.0, 0.0)


def _scale_shift(x, p, scale: float, shift=_NO_SHIFT):
    # Unit scales and zero shifts are skipped: each is a pass over the block.
    if scale != 1.0:
        x, p = scale * x, scale * p
    if shift != _NO_SHIFT:
        x, p = x + shift[0], p + shift[1]
    return x, p


class SlicePlane(NamedTuple):
    """Affine 2-plane u -> (a_scale u + a_shift, out_scale t(b_scale u + b_shift)).

    u = (x, p) are the integration variables; the first image pair is mode A
    and the second mode B.  A NamedTuple because the optimiser builds one per
    objective call.  With 1-D arrays as shifts it is a stack of parallel
    planes: matrix() then gives d of shape (4, n), and unstack() the planes.
    """

    t: Transform2
    a_scale: float = 1.0
    a_shift: tuple[float, float] = _NO_SHIFT
    b_scale: float = 1.0
    b_shift: tuple[float, float] = _NO_SHIFT
    out_scale: float = 1.0

    def __call__(self, x, p):
        """Phase-space coordinates (x_A, p_A, x_B, p_B) of the plane at (x, p)."""
        x, p = np.asarray(x, float), np.asarray(p, float)
        xb, pb = apply_transform(self.t, *_scale_shift(x, p, self.b_scale, self.b_shift))
        return (*_scale_shift(x, p, self.a_scale, self.a_shift),
                *_scale_shift(xb, pb, self.out_scale))

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, d) with plane(u) = C u + d, the input of the closed-form integrals."""
        t, a, (ax, ap), b, (bx, bp), out = self
        s = out * b
        c_mat = np.array([[a, 0.0], [0.0, a], [s * t.a, s * t.b], [s * t.c, s * t.d]])
        d_vec = np.array([ax, ap, out * (t.a * bx + t.b * bp + t.x0),
                          out * (t.c * bx + t.d * bp + t.p0)])
        return c_mat, d_vec

    @property
    def stacked(self) -> bool:
        return np.ndim(self.a_shift[0]) > 0

    def unstack(self) -> list[SlicePlane]:
        """The single planes of a stack, one per entry of the shift arrays."""
        shifts = [np.ravel(v).tolist() for v in (*self.a_shift, *self.b_shift)]
        return [self._replace(a_shift=(ax, ap), b_shift=(bx, bp))
                for ax, ap, bx, bp in zip(*shifts)]

    def box(self, env: Envelope) -> Box:
        """Quadrature box: the pre-image of the envelope hypercube, intersecting
        per axis the intervals through mode A and (by interval arithmetic through
        the inverse transform) mode B; a mode whose scale vanishes is skipped."""
        l, c = env.halfwidth, env.center.tolist()
        from_b = (None, None)
        bx = _scaled_interval(c[2] - l, c[2] + l, self.out_scale)
        bp = _scaled_interval(c[3] - l, c[3] + l, self.out_scale)
        if bx is not None and bp is not None:
            inv = invert_transform(self.t)
            cx, hx = 0.5 * (bx[0] + bx[1]), 0.5 * (bx[1] - bx[0])
            cp, hp = 0.5 * (bp[0] + bp[1]), 0.5 * (bp[1] - bp[0])
            centers = (inv.a * cx + inv.b * cp + inv.x0, inv.c * cx + inv.d * cp + inv.p0)
            halves = (abs(inv.a) * hx + abs(inv.b) * hp, abs(inv.c) * hx + abs(inv.d) * hp)
            from_b = [_scaled_interval(u - r - s, u + r - s, self.b_scale)
                      for u, r, s in zip(centers, halves, self.b_shift)]
        (x_lo, x_hi), (p_lo, p_hi) = [
            _interval_intersection(_scaled_interval(ck - s - l, ck - s + l, self.a_scale), b)
            or (-l, l) for ck, s, b in zip(c, self.a_shift, from_b)]
        if not (x_hi > x_lo and p_hi > p_lo):
            raise NonConvergenceError(f"the slice box [{x_lo!r}, {x_hi!r}] x [{p_lo!r}, {p_hi!r}] "
                                      "rounds to zero width")
        return Box(cx=0.5 * (x_lo + x_hi), cp=0.5 * (p_lo + p_hi),
                   hx=0.5 * (x_hi - x_lo), hp=0.5 * (p_hi - p_lo))


@lru_cache(maxsize=16)
def _hermite_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k x k Gauss-Hermite rule for the standard normal on the plane: nodes
    (2, k*k) and weights summing to 1.  Loaded on first use, like _leggauss."""
    x, w = np.polynomial.hermite_e.hermegauss(k)
    nodes = np.stack([np.repeat(x, k), np.tile(x, k)])
    weights = np.outer(w, w).ravel() / _TWO_PI
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _rule_size(poly: Poly | None) -> int:
    # k nodes per axis integrate degree 2k - 1 exactly.
    return 1 if poly is None else poly.degree // 2 + 1


def _exact_terms(w: WignerField, c_mat: np.ndarray, d_vec: np.ndarray):
    """Integral of every term over the plane(s) C u + d, d of shape (4,) or
    (4, n), with the sum of |term contributions| times their rounding scale.

    For a term with precision P and delta = d - mean, the exponent in u is
    -(u^T M u + 2 u^T v + delta^T P delta)/2 with M = C^T P C, v = C^T P delta.
    Completing the square about u0 = -M^-1 v leaves the Schur form
    quad = delta^T P delta - v^T M^-1 v, and u = u0 + L z with L L^T = M^-1
    turns the rest into the standard normal in z:
        integral = weight exp(-quad/2) / (2 pi sqrt(det V det M)) E_z[poly(C u + d)],
    which the k x k Gauss-Hermite rule gives exactly.  For poly 1 that is
    one node at z = 0, and the closed form below.  A complex mean a + ib
    splits quad into a real part quad(d - a) + w^T M^-1 w (w = C^T P b) that
    is never negative, so nothing cancels, and a phase (d - a)^T J b with
    J = P - P C M^-1 C^T P; u0 then moves into the complex plane, which a
    polynomial factor allows.
    """
    # One plane stays on floats and math.exp rather than being a stack of
    # one: np.exp and the einsum row sum round differently from math.exp and
    # the 4-vector dot (91 of 903 sampled tmst C1/C2/C3 values move by an
    # ulp and the tmst_boundary sweep's output changes), and numpy calls on
    # one-column arrays make tmst C1 2.5x slower.
    stacked = d_vec.ndim > 1
    exp = np.exp if stacked else math.exp
    c0, c1 = c_mat[:, 0], c_mat[:, 1]
    total = 0.0
    scale = 0.0
    last = None
    for (weight, _, _, poly), (prec, root_det, mu, pb) in zip(w.terms, w.precisions):
        if prec is not last:        # terms sharing a covariance share M
            last = prec
            pc = prec @ c_mat
            a = c0 @ pc[:, 0]
            b = c0 @ pc[:, 1]
            d = c1 @ pc[:, 1]
            det_m1 = a * d - b * b
        base = weight / (_TWO_PI * root_det)
        delta = d_vec - mu[:, None] if stacked else d_vec - mu
        pd = prec @ delta
        v0 = c0 @ pd
        v1 = c1 @ pd
        dpd = np.einsum("i...,i...->...", delta, pd) if stacked else float(delta @ pd)
        quad = dpd - (d * v0 * v0 - 2.0 * b * v0 * v1 + a * v1 * v1) / det_m1
        if pb is None:
            size = base * exp(-0.5 * quad) / math.sqrt(det_m1)
            arg = 0.5 * dpd
        else:
            w0 = c0 @ pb
            w1 = c1 @ pb
            extra = (d * w0 * w0 - 2.0 * b * w0 * w1 + a * w1 * w1) / det_m1
            phase = pb @ delta - (d * v0 * w0 - b * (v0 * w1 + v1 * w0) + a * v1 * w1) / det_m1
            size = base * exp(-0.5 * (quad + extra)) / math.sqrt(det_m1)
            arg = 0.5 * (dpd + extra) + abs(phase)
            cos_phase, sin_phase = np.cos(phase), np.sin(phase)
        if poly is None:
            value = size if pb is None else size * cos_phase
            magnitude = abs(size)
        else:
            # M = R R^T (Cholesky), so L = R^-T: upper triangular, and no
            # difference of near-equal numbers however anisotropic M is.
            if pb is not None:
                v0, v1 = v0 - 1j * w0, v1 - 1j * w1
            r22 = math.sqrt(det_m1 / a)
            nodes, weights = _hermite_rule(_rule_size(poly))
            u0x = (b * v1 - d * v0) / det_m1
            u0p = (b * v0 - a * v1) / det_m1
            ux = u0x[..., None] + nodes[0] / math.sqrt(a) - nodes[1] * (b / (a * r22))
            up = u0p[..., None] + nodes[1] / r22
            vals = poly.evaluate(*(c_mat[i, 0] * ux + c_mat[i, 1] * up + d_vec[i][..., None]
                                   for i in range(4)))
            mean = vals @ weights
            value = size * (mean.real if pb is None else
                            mean.real * cos_phase - mean.imag * sin_phase)
            magnitude = abs(size) * (np.abs(vals) @ weights)
        total = total + value
        scale = scale + magnitude * (_ROUNDING_OPS + arg)
    return total, scale


def _exact_slice(w: WignerField, plane: SlicePlane) -> IntegralResult:
    """Exact slice integral of a field with terms; a stack of planes is done
    in batches of at most _BLOCK phase-space points."""
    c_mat, d_vec = plane.matrix()
    if d_vec.ndim == 1:
        total, scale = _exact_terms(w, c_mat, d_vec)
        total = float(total)
        err = _err_floor(total)
        return IntegralResult(total, err if err >= _EPS * scale else float(_EPS * scale), 0)
    nodes = max(_rule_size(poly) ** 2 for _, _, _, poly in w.terms)
    step = max(1, _BLOCK // nodes)
    parts = [_exact_terms(w, c_mat, d_vec[:, i:i + step]) for i in range(0, d_vec.shape[1], step)]
    total = np.concatenate([t for t, _ in parts])
    scale = np.concatenate([s for _, s in parts])
    return IntegralResult(total, np.maximum(_EPS * scale, _err_floor(total)), evaluations=0)


def make_slice(field: WignerField, t: Transform2, theta: float) -> SliceField:
    """Integrand (x, p) -> W(x cos, p cos, x' sin, p' sin), (x', p') = t(x, p)."""
    check_theta(theta)
    return SliceField(field, SlicePlane(t, math.cos(theta), out_scale=math.sin(theta)))


def diagonal_slice(field: WignerField, t: Transform2) -> SliceField:
    """Integrand (x, p) -> W(x, p, x', p') with (x', p') = t(x, p), unscaled."""
    return SliceField(field, SlicePlane(t))


def reduced_mode_wigner(field: WignerField, theta: float, t: Transform2,
                        spec: QuadratureSpec | None = None) -> Callable:
    """Wigner function of the output mode after mixing modes at angle theta.

    Returns (X, P) -> the IntegralResult of W(cos*x + sin*X, cos*p + sin*P,
    t(sin*x - cos*X, sin*p - cos*P)) over (x, p), so a caller can carry the
    inner error estimate.  X and P may be arrays: every point is a plane with
    the same C, and the whole stack goes to integrate_slice in one call, with
    value and error of the broadcast shape.  With t the p-reflection this is
    the reduced mode used by the purity criterion; with theta = pi/4 and t
    near -identity it is the summed-mode function whose value doubles the
    criterion-III integral.
    """
    check_theta(theta)
    ct, st = math.cos(theta), math.sin(theta)

    def field_fn(big_x, big_p) -> IntegralResult:
        xs, ps = np.broadcast_arrays(np.asarray(big_x, float), np.asarray(big_p, float))
        x, p = xs.ravel(), ps.ravel()
        plane = SlicePlane(t, ct, (st * x, st * p), st, (-ct * x, -ct * p))
        res = integrate_slice(SliceField(field, plane), spec)
        if not xs.shape:
            return IntegralResult(float(res.value[0]), float(res.error_estimate[0]),
                                  res.evaluations)
        return IntegralResult(res.value.reshape(xs.shape),
                              res.error_estimate.reshape(xs.shape), res.evaluations)

    return field_fn


def integrate_slice(slc: SliceField, spec: QuadratureSpec | None = None,
                    absolute: bool = False, region: Region = FULL_PLANE) -> IntegralResult:
    """Integrate a slice over its box (or a region), optionally of |slice|.

    A full-plane slice of a field with terms is exact (Gauss-Hermite in each
    term's whitened frame), with no evaluations; for |slice| only if every
    term is a plain Gaussian of nonnegative weight, so |W| = W, and otherwise
    the quadrature of |slice| never reads below the exact |integral|.  Every
    other slice goes to quadrature on the slice's box.  A stack of planes gives
    value and error arrays, one entry per plane, and the summed evaluations.
    A value or error that is not finite raises NonConvergenceError.
    """
    terms = slc.field.terms
    if (terms is not None and region.kind == "full-plane"
            and (not absolute or (_plain_gaussians(terms) and all(g[0] >= 0.0 for g in terms)))):
        result = _exact_slice(slc.field, slc.plane)
    elif not slc.plane.stacked:
        result = _quadrature(slc, spec, absolute, region)
    else:
        results = [_quadrature(SliceField(slc.field, plane), spec, absolute, region)
                   for plane in slc.plane.unstack()]
        result = IntegralResult(np.array([r.value for r in results]),
                                np.array([r.error_estimate for r in results]),
                                sum(r.evaluations for r in results))
    value, err = result.value, result.error_estimate
    # math.isfinite for a single plane: the numpy calls take about 7 us, a
    # sixth of an exact C1 slice.
    if not (math.isfinite(value) and math.isfinite(err) if isinstance(value, float)
            else np.isfinite(value).all() and np.isfinite(err).all()):
        raise NonConvergenceError(f"the slice integral is not finite: value {value!r}, "
                                  f"error estimate {err!r}")
    return result


def _quadrature(slc: SliceField, spec: QuadratureSpec | None, absolute: bool,
                region: Region) -> IntegralResult:
    use = spec if spec is not None else QuadratureSpec()
    if use.box is None:
        use = replace(use, box=slc.box)
    if not absolute:
        return integrate(slc.evaluate, region=region, spec=use)
    res = integrate_abs(slc.evaluate, region=region, spec=use)
    if slc.field.terms is None or region.kind != "full-plane":
        return res
    # The true integral of |W| is at least |integral of W|, which is exact
    # here, so raising an estimate that falls below it only moves it towards
    # the truth, within the larger of the two errors.  On a nonnegative slice
    # the two integrals are equal and the exact value stands.
    floor = _exact_slice(slc.field, slc.plane)
    if abs(floor.value) <= res.value:
        return res
    return IntegralResult(abs(floor.value), max(res.error_estimate, floor.error_estimate),
                          res.evaluations)
