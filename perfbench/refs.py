"""Independent reference values for the benchmark's output checks.

Nothing here calls into wigner_witness: every value comes from a closed form
or from a rule that is exact for its integrand (Gauss-Hermite on a polynomial
times a Gaussian), so a regression in the library cannot hide behind itself.
Conventions follow the package: [x, p] = 2i, vacuum variance 1, so a single
mode's vacuum Wigner peak is 1/(2 pi) and the separable C1 bound is 1/(2 pi).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chndtr

TWO_PI = 2.0 * math.pi
C1_BOUND = 1.0 / TWO_PI
SQRT2 = math.sqrt(2.0)

# ---------------------------------------------------------------------------
# Gaussian states in standard form (n, m, c1, c2)


def tmst_standard(s: float, eta: float, r: float) -> tuple[float, float, float, float]:
    """Squeezed state through loss eta then gain cosh(r)^2 on mode A."""
    n = (eta * math.cosh(r) ** 2 * math.cosh(2 * s)
         + (1 - eta) * math.cosh(r) ** 2 + math.sinh(r) ** 2)
    m = math.cosh(2 * s)
    c = math.sqrt(eta) * math.cosh(r) * math.sinh(2 * s)
    return n, m, c, -c


def standard_cov(n: float, m: float, c1: float, c2: float) -> np.ndarray:
    return np.array([[n, 0, c1, 0], [0, n, 0, c2], [c1, 0, m, 0], [0, c2, 0, m]], float)


def _min_eig(form, b_sign: float) -> float:
    """Smallest eigenvalue of V + i Omega, mode B's block of Omega scaled by b_sign."""
    omega = np.zeros((4, 4))
    omega[0, 1], omega[1, 0], omega[2, 3], omega[3, 2] = 1.0, -1.0, b_sign, -b_sign
    return float(np.linalg.eigvalsh(standard_cov(*form) + 1j * omega)[0])


def simon_value(n: float, m: float, c1: float, c2: float) -> float:
    """Smallest eigenvalue of V + i Omega-tilde (mode B's momentum flipped)."""
    return _min_eig((n, m, c1, c2), -1.0)


def physical(n: float, m: float, c1: float, c2: float) -> bool:
    return _min_eig((n, m, c1, c2), 1.0) >= 1e-9


def c1_max(n: float, m: float, c1: float, c2: float) -> float:
    """Largest C1 slice value of a standard form over all unit-determinant transforms."""
    a1, a2 = abs(c1), abs(c2)
    inner = (4 * m * n * (c1 * c1 + c2 * c2) - 2 * n * n * (m * m - 2 * a1 * a2)
             + 4 * a1 * a2 * m * m + m ** 4 + n ** 4)
    return 1.0 / (TWO_PI * math.sqrt(0.5 * (-math.sqrt(inner) + 2 * a1 * a2 + m * m + n * n)))


def purity_max(n: float, m: float, c: float) -> float:
    """Largest output-mode purity over the mixing angle (c1 = -c2 = c)."""
    return 2.0 / (m + n - math.sqrt(4 * c * c + (n - m) ** 2))


def purity_entangled(n: float, m: float, c: float) -> bool:
    return c * c > (n - 1) * (m - 1)


def tmsv_c1(s: float) -> float:
    """C1 of the two-mode squeezed vacuum at the p-reflection and theta = pi/4."""
    return math.exp(2.0 * s) / TWO_PI


# ---------------------------------------------------------------------------
# Werner states: polynomial times exp(-|xi|^2 / 2)


def werner_c1(epsilon: float) -> float:
    """phi+ family, p-reflection, theta = pi/4."""
    return (1 + 3 * epsilon) / (4 * math.pi)


def werner_c3(epsilon: float) -> float:
    """psi+ family, negated identity."""
    return (1 - 3 * epsilon) / (8 * math.pi)


def werner_ppt(epsilon: float) -> float:
    """Smallest partial-transpose eigenvalue of the phi+ family."""
    return (1 - 3 * epsilon) / 4


def _werner_bracket(bell: str, eps: float, xa, pa, xb, pb):
    ra2, rb2 = xa * xa + pa * pa, xb * xb + pb * pb
    if bell == "phi+":
        return ((1 + eps) * ra2 * rb2 + 4 * eps * (xa * xb - pa * pb)
                - 2 * eps * (ra2 + rb2) + 4 * eps)
    return ((1 - eps) * ra2 * rb2 + 4 * eps * (xa * xb + pa * pb)
            + 2 * eps * (ra2 + rb2) - 4 * eps)


def werner_purity(bell: str, eps: float, theta: float) -> float:
    """Output-mode purity after p-reflecting mode B and mixing at theta.

    The mixing is orthogonal, so the Gaussian factor stays exp(-|xi|^2 / 2)
    and both the reduction and the squared integral are polynomial times
    Gaussian integrals, which Gauss-Hermite rules of this size do exactly.
    """
    ct, st = math.cos(theta), math.sin(theta)
    u, wu = np.polynomial.hermite_e.hermegauss(6)       # weight exp(-u^2 / 2)
    v, wv = np.polynomial.hermite.hermgauss(8)          # weight exp(-v^2)
    big_x, big_p = np.meshgrid(v, v, indexing="ij")
    reduced = np.zeros_like(big_x)
    for xi, wx in zip(u, wu):
        for pi_, wp in zip(u, wu):
            reduced += wx * wp * _werner_bracket(
                bell, eps, ct * xi + st * big_x, ct * pi_ + st * big_p,
                st * xi - ct * big_x, -(st * pi_ - ct * big_p))
    norm = 1.0 / (16.0 * math.pi ** 2)
    return 4.0 * math.pi * norm * norm * float(wv @ (reduced ** 2) @ wv)


# ---------------------------------------------------------------------------
# Dephased cat states


def cat_c1(gamma: float, epsilon: float) -> float:
    """Even superposition, p-reflection, theta = pi/4."""
    return (1 + epsilon * math.tanh(2 * gamma ** 2)) / TWO_PI


def cat_c3(gamma: float, epsilon: float) -> float:
    """Odd superposition, negated identity."""
    e4 = math.exp(4 * gamma ** 2)
    return (1 - (1 + e4) * epsilon) / (e4 * 4 * math.pi)


def cat_c3_threshold(gamma: float) -> float:
    return 1.0 / (1.0 + math.exp(4 * gamma ** 2))


def cat_slice_terms(gamma: float, epsilon: float, sign: str) -> list[tuple[float, float, float]]:
    """The C1/C2 slice at (p-reflection, pi/4) as sum c_k exp(-|u - mu_k|^2 / 2).

    Returns (c_k, mu_x, mu_p) triples: two lobes at (+-2 sqrt2 gamma, 0) and
    the fringe term, which the p-reflection freezes into a Gaussian at 0.
    """
    sgn = 1.0 if sign == "plus" else -1.0
    q = math.exp(-4 * gamma * gamma)
    denom = 8 * math.pi ** 2 * (1 + sgn * q)
    lobe = (1 + sgn * (1 - epsilon) * q) / denom
    shift = 2 * SQRT2 * gamma
    return [(lobe, shift, 0.0), (lobe, -shift, 0.0), (sgn * 2 * epsilon / denom, 0.0, 0.0)]


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT2)


def slice_abs_bracket(terms) -> tuple[float, float]:
    """Lower and upper bounds on the full-plane integral of |sum c_k G_k|.

    Upper: the triangle inequality.  Lower: |integral over R| summed over a
    partition of the plane into strips in x cut between the Gaussian centres,
    which is tight when the terms are well separated.
    """
    upper = TWO_PI * sum(abs(c) for c, _, _ in terms)
    centres = sorted({mx for _, mx, _ in terms})
    cuts = [-math.inf] + [0.5 * (a + b) for a, b in zip(centres, centres[1:])] + [math.inf]
    lower = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        part = sum(c * (_normal_cdf(hi - mx) - _normal_cdf(lo - mx)) for c, mx, _ in terms)
        lower += TWO_PI * abs(part)
    return lower, upper


def slice_disk(terms, cx: float, cp: float, radius: float) -> float:
    """Integral of sum c_k G_k over one disk (non-central chi-square CDF)."""
    return TWO_PI * sum(
        c * float(chndtr(radius * radius, 2.0, (mx - cx) ** 2 + (mp - cp) ** 2))
        for c, mx, mp in terms)


# ---------------------------------------------------------------------------
# Fock-basis checks


def tmsv_wigner(s: float, pts) -> np.ndarray:
    """Two-mode squeezed vacuum Wigner function at stacked 4-points, shape (..., 4)."""
    n, m, c1, c2 = tmst_standard(s, 1.0, 0.0)
    v = standard_cov(n, m, c1, c2)
    q = np.einsum("...i,ij,...j->...", pts, np.linalg.inv(v), pts)
    return np.exp(-0.5 * q) / (TWO_PI ** 2 * math.sqrt(np.linalg.det(v)))
