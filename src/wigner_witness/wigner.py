"""Wigner-field evaluation engines and transformed phase-space slices.

A WignerField wraps a vectorized evaluator W(x_A, p_A, x_B, p_B) together
with a Gaussian envelope used to truncate quadrature domains.  Slices fix
mode A at (x cos(theta), p cos(theta)) and route mode B through a linear
transform scaled by sin(theta); every criterion integrates such a slice.

Conventions: [x, p] = 2i, vacuum variance 1, so the vacuum Wigner function
is exp(-(x^2+p^2)/2)/(2 pi) per mode and alpha = (x + i p)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import FULL_PLANE, Region, Transform2, apply_transform, invert_transform
from .oracle import FockDensityMatrix, destroy, expectation
from .quadrature import Box, IntegralResult, QuadratureSpec, integrate, integrate_abs

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
        if not self.halfwidth > 0:
            raise ValueError("envelope halfwidth must be positive")


@dataclass(frozen=True)
class WignerField:
    """Two-mode Wigner function with an evaluation backend.

    `gaussians` is an optional tuple of (weight, mean, covariance) triples
    set when the field is an explicit Gaussian mixture; criteria use it for
    closed-form integrals that bypass quadrature.
    """

    evaluate: Callable[..., np.ndarray]
    backend: str
    envelope: Envelope
    gaussians: tuple | None = None
    rho: FockDensityMatrix | None = None

    def __call__(self, x_a, p_a, x_b, p_b):
        return self.evaluate(x_a, p_a, x_b, p_b)


@dataclass(frozen=True)
class SliceField:
    """Two-variable integrand of the slice criteria, with its quadrature box."""

    evaluate: Callable[..., np.ndarray]
    box: Box
    theta: float | None
    transform: Transform2

    def __call__(self, x, p):
        return self.evaluate(x, p)


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


def _scaled_interval(center: float, half: float, scale: float):
    if abs(scale) < 1e-12:
        return None
    lo, hi = (center - half) / scale, (center + half) / scale
    return (min(lo, hi), max(lo, hi))


def _preimage_intervals(t: Transform2, x_int, p_int):
    """Map axis intervals through the inverse transform, by interval arithmetic."""
    inv = invert_transform(t)
    cx, hx = 0.5 * (x_int[0] + x_int[1]), 0.5 * (x_int[1] - x_int[0])
    cp, hp = 0.5 * (p_int[0] + p_int[1]), 0.5 * (p_int[1] - p_int[0])
    ux = inv.a * cx + inv.b * cp + inv.x0
    up = inv.c * cx + inv.d * cp + inv.p0
    rx = abs(inv.a) * hx + abs(inv.b) * hp
    rp = abs(inv.c) * hx + abs(inv.d) * hp
    return (ux - rx, ux + rx), (up - rp, up + rp)


def _slice_box(env: Envelope, t: Transform2, theta: float) -> Box:
    ct, st = math.cos(theta), math.sin(theta)
    l = env.halfwidth
    c_a, c_b = env.center[:2], env.center[2:]
    x_from_a = _scaled_interval(c_a[0], l, ct)
    p_from_a = _scaled_interval(c_a[1], l, ct)
    x_from_b = p_from_b = None
    bx = _scaled_interval(c_b[0], l, st)
    bp = _scaled_interval(c_b[1], l, st)
    if bx is not None and bp is not None:
        x_from_b, p_from_b = _preimage_intervals(t, bx, bp)
    x_int = _interval_intersection(x_from_a, x_from_b) or (-l, l)
    p_int = _interval_intersection(p_from_a, p_from_b) or (-l, l)
    return Box(cx=0.5 * (x_int[0] + x_int[1]), cp=0.5 * (p_int[0] + p_int[1]),
               hx=0.5 * (x_int[1] - x_int[0]), hp=0.5 * (p_int[1] - p_int[0]))


def make_slice(field: WignerField, t: Transform2, theta: float) -> SliceField:
    """Integrand (x, p) -> W(x cos, p cos, x' sin, p' sin), (x', p') = t(x, p)."""
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta!r}")
    ct, st = math.cos(theta), math.sin(theta)

    def evaluate(x, p):
        xt, pt = apply_transform(t, x, p)
        return field.evaluate(ct * np.asarray(x, float), ct * np.asarray(p, float),
                              st * xt, st * pt)

    return SliceField(evaluate=evaluate, box=_slice_box(field.envelope, t, theta),
                      theta=theta, transform=t)


def diagonal_slice(field: WignerField, t: Transform2) -> SliceField:
    """Integrand (x, p) -> W(x, p, x', p') with (x', p') = t(x, p), unscaled."""
    env = field.envelope
    l = env.halfwidth
    c_a, c_b = env.center[:2], env.center[2:]
    bx, bp = _preimage_intervals(t, (c_b[0] - l, c_b[0] + l), (c_b[1] - l, c_b[1] + l))
    x_int = _interval_intersection((c_a[0] - l, c_a[0] + l), bx) or (-l, l)
    p_int = _interval_intersection((c_a[1] - l, c_a[1] + l), bp) or (-l, l)
    box = Box(cx=0.5 * (x_int[0] + x_int[1]), cp=0.5 * (p_int[0] + p_int[1]),
              hx=0.5 * (x_int[1] - x_int[0]), hp=0.5 * (p_int[1] - p_int[0]))

    def evaluate(x, p):
        xt, pt = apply_transform(t, x, p)
        return field.evaluate(np.asarray(x, float), np.asarray(p, float), xt, pt)

    return SliceField(evaluate=evaluate, box=box, theta=None, transform=t)


def _reduced_box(env: Envelope, t: Transform2, theta: float,
                 big_x: float, big_p: float) -> Box:
    ct, st = math.cos(theta), math.sin(theta)
    l = env.halfwidth
    c_a, c_b = env.center[:2], env.center[2:]
    x_from_a = _scaled_interval(c_a[0] - st * big_x, l, ct)
    p_from_a = _scaled_interval(c_a[1] - st * big_p, l, ct)
    x_from_b = p_from_b = None
    if st > 1e-12:
        u_int, v_int = _preimage_intervals(t, (c_b[0] - l, c_b[0] + l),
                                           (c_b[1] - l, c_b[1] + l))
        x_from_b = ((u_int[0] + ct * big_x) / st, (u_int[1] + ct * big_x) / st)
        p_from_b = ((v_int[0] + ct * big_p) / st, (v_int[1] + ct * big_p) / st)
    x_int = _interval_intersection(x_from_a, x_from_b) or (-l, l)
    p_int = _interval_intersection(p_from_a, p_from_b) or (-l, l)
    return Box(cx=0.5 * (x_int[0] + x_int[1]), cp=0.5 * (p_int[0] + p_int[1]),
               hx=0.5 * (x_int[1] - x_int[0]), hp=0.5 * (p_int[1] - p_int[0]))


def reduced_mode_wigner(field: WignerField, theta: float, t: Transform2,
                        spec: QuadratureSpec | None = None) -> Callable:
    """Wigner function of the output mode after mixing modes at angle theta.

    Returns (X, P) -> integral of W(cos*x + sin*X, cos*p + sin*P,
    t(sin*x - cos*X, sin*p - cos*P)) over (x, p).  With t the p-reflection
    this is the reduced mode used by the purity criterion; with theta = pi/4
    and t near -identity it is the summed-mode function whose value doubles
    the criterion-III integral.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta!r}")
    ct, st = math.cos(theta), math.sin(theta)
    base = spec if spec is not None else QuadratureSpec()

    def field_fn(big_x: float, big_p: float) -> float:
        def integrand(x, p):
            xs = np.asarray(x, float)
            ps = np.asarray(p, float)
            xt, pt = apply_transform(t, st * xs - ct * big_x, st * ps - ct * big_p)
            return field.evaluate(ct * xs + st * big_x, ct * ps + st * big_p, xt, pt)

        use = base
        if use.box is None:
            use = replace(use, box=_reduced_box(field.envelope, t, theta, big_x, big_p))
        return integrate(integrand, spec=use).value

    return field_fn


def integrate_slice(slc: SliceField, spec: QuadratureSpec | None = None,
                    absolute: bool = False, region: Region = FULL_PLANE) -> IntegralResult:
    """Integrate a slice over its box (or a region), optionally of |slice|."""
    use = spec if spec is not None else QuadratureSpec()
    if use.box is None:
        use = replace(use, box=slc.box)
    if absolute:
        return integrate_abs(slc.evaluate, region=region, spec=use)
    return integrate(slc.evaluate, region=region, spec=use)
