"""Wigner-field evaluation engines and transformed phase-space slices.

A WignerField wraps a vectorized evaluator W(x_A, p_A, x_B, p_B) together
with a Gaussian envelope used to truncate quadrature domains.  Every slice
criterion integrates W over an affine 2-plane u -> C u + d of phase space,
and SlicePlane is that one geometry for all of them: it maps quadrature
nodes to phase-space points, gives (C, d) to the closed-form integrals and
derives the quadrature box from the envelope.  integrate_slice is the one
place a slice integral picks its route, closed form or quadrature.

Conventions: [x, p] = 2i, vacuum variance 1, so the vacuum Wigner function
is exp(-(x^2+p^2)/2)/(2 pi) per mode and alpha = (x + i p)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .core import FULL_PLANE, Region, Transform2, apply_transform, check_theta, invert_transform
from .oracle import FockDensityMatrix, destroy, expectation
from .quadrature import Box, IntegralResult, QuadratureSpec, _err_floor, integrate, integrate_abs

_TWO_PI = 2.0 * math.pi


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


@dataclass(frozen=True)
class WignerField:
    """Two-mode Wigner function with an evaluation backend.

    `gaussians` is an optional tuple of (weight, mean, covariance) triples
    set when the field is an explicit Gaussian mixture; the closed-form
    routes (integrate_slice, the purity criterion) use it to bypass quadrature.
    """

    evaluate: Callable[..., np.ndarray]
    backend: str
    envelope: Envelope
    gaussians: tuple | None = None
    rho: FockDensityMatrix | None = None

    def __call__(self, x_a, p_a, x_b, p_b):
        return self.evaluate(x_a, p_a, x_b, p_b)

    @cached_property
    def precisions(self) -> tuple:
        """(V^-1, sqrt(det V)) per Gaussian component, computed once per field."""
        return tuple((np.linalg.inv(cov), math.sqrt(np.linalg.det(cov)))
                     for _, _, cov in self.gaussians)


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
    gaussians = ((1.0, mu, v),)
    return WignerField(evaluate=evaluate, backend="gaussian", envelope=env,
                       gaussians=gaussians)


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
    gaussians: tuple | None = None
    if all(c.gaussians is not None for c in comps):
        merged = []
        for wi, ci in zip(w, comps):
            merged.extend((wi * gw, gm, gv) for gw, gm, gv in ci.gaussians)
        gaussians = tuple(merged)
    backend = comps[0].backend if len({c.backend for c in comps}) == 1 else "closed-form"
    return WignerField(evaluate=evaluate, backend=backend,
                       envelope=Envelope(center=center, halfwidth=halfwidth),
                       gaussians=gaussians)


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
    objective call.
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
        return Box(cx=0.5 * (x_lo + x_hi), cp=0.5 * (p_lo + p_hi),
                   hx=0.5 * (x_hi - x_lo), hp=0.5 * (p_hi - p_lo))


def _gaussian_line_integral(w: WignerField, plane: SlicePlane) -> tuple[float, float]:
    """Closed-form integral of a Gaussian mixture over the plane, with a rounding-level error."""
    c_mat, d_vec = plane.matrix()
    total = 0.0
    for (weight, mu, _), (prec, root_det) in zip(w.gaussians, w.precisions):
        base = weight / (_TWO_PI * root_det)
        delta = d_vec - mu
        pc = prec @ c_mat
        pd = prec @ delta
        a = c_mat[:, 0] @ pc[:, 0]
        b = c_mat[:, 0] @ pc[:, 1]
        d = c_mat[:, 1] @ pc[:, 1]
        det_m1 = a * d - b * b
        v0 = c_mat[:, 0] @ pd
        v1 = c_mat[:, 1] @ pd
        quad = delta @ pd - (d * v0 * v0 - 2.0 * b * v0 * v1 + a * v1 * v1) / det_m1
        total += base * math.exp(-0.5 * quad) / math.sqrt(det_m1)
    return total, _err_floor(total)


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
    inner error estimate.  With t the p-reflection this is the reduced mode
    used by the purity criterion; with theta = pi/4 and t near -identity it is
    the summed-mode function whose value doubles the criterion-III integral.
    """
    check_theta(theta)
    ct, st = math.cos(theta), math.sin(theta)

    def field_fn(big_x: float, big_p: float) -> IntegralResult:
        plane = SlicePlane(t, ct, (st * big_x, st * big_p), st, (-ct * big_x, -ct * big_p))
        return integrate_slice(SliceField(field, plane), spec)

    return field_fn


def integrate_slice(slc: SliceField, spec: QuadratureSpec | None = None,
                    absolute: bool = False, region: Region = FULL_PLANE) -> IntegralResult:
    """Integrate a slice over its box (or a region), optionally of |slice|.

    A full-plane slice of a Gaussian mixture takes the closed form, with no
    evaluations; for |slice| only if every weight is nonnegative, so |W| = W.
    Every other slice goes to quadrature on the slice's box.
    """
    gaussians = slc.field.gaussians
    if (gaussians is not None and region.kind == "full-plane"
            and (not absolute or all(g[0] >= 0.0 for g in gaussians))):
        return IntegralResult(*_gaussian_line_integral(slc.field, slc.plane), evaluations=0)
    use = spec if spec is not None else QuadratureSpec()
    if use.box is None:
        use = replace(use, box=slc.box)
    if absolute:
        return integrate_abs(slc.evaluate, region=region, spec=use)
    return integrate(slc.evaluate, region=region, spec=use)
