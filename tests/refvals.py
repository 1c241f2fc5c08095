"""Closed-form reference values the criteria must reproduce.

Everything here is an independent formula, not a call back into the library,
so a regression in the quadrature or optimizer cannot hide behind itself.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def tmsv_slice_value(s: float) -> float:
    # criterion-1 slice at (p-reflection, theta=pi/4)
    return math.exp(2.0 * s) / TWO_PI


def tmst_standard_entries(s: float, eta: float, r: float) -> tuple[float, float, float]:
    """(n, m, c) with c1 = +c, c2 = -c for loss eta then gain r on mode A."""
    n = eta * math.cosh(r) ** 2 * math.cosh(2 * s) + (1 - eta) * math.cosh(r) ** 2 + math.sinh(r) ** 2
    m = math.cosh(2 * s)
    c = math.sqrt(eta) * math.cosh(r) * math.sinh(2 * s)
    return n, m, c


def tmst_boundary_eta(r: float) -> float:
    return math.tanh(r) ** 2


def gaussian_imax(n: float, m: float, c1: float, c2: float) -> float:
    """Largest criterion-1 slice value over all unit-determinant transforms."""
    a1, a2 = abs(c1), abs(c2)
    inner = (4 * m * n * (c1 * c1 + c2 * c2) - 2 * n * n * (m * m - 2 * a1 * a2)
             + 4 * a1 * a2 * m * m + m ** 4 + n ** 4)
    return 1.0 / (TWO_PI * math.sqrt(0.5 * (-math.sqrt(inner) + 2 * a1 * a2 + m * m + n * n)))


def gaussian_entangled(n: float, m: float, c1: float, c2: float) -> bool:
    return (abs(c1 * c2) - 1) ** 2 < (c1 * c1 + c2 * c2) * m * n + m * m + n * n - m * m * n * n


def gaussian_entanglement_margin(n: float, m: float, c1: float, c2: float) -> float:
    """Positive inside the entangled set, zero on its boundary."""
    return (c1 * c1 + c2 * c2) * m * n + m * m + n * n - m * m * n * n - (abs(c1 * c2) - 1) ** 2


def purity_curve(n: float, m: float, c: float, theta: float) -> float:
    return 2.0 / (m + n - 2 * c * math.sin(2 * theta) - math.cos(2 * theta) * (n - m))


def purity_max(n: float, m: float, c: float) -> float:
    return 2.0 / (m + n - math.sqrt(4 * c * c + (n - m) ** 2))


def purity_entangled(n: float, m: float, c: float) -> bool:
    return c * c > (n - 1) * (m - 1)


def werner_c1_value(epsilon: float) -> float:
    # Phi+ family, p-reflection, theta=pi/4
    return (1 + 3 * epsilon) / (4 * math.pi)


def werner_c3_value(epsilon: float) -> float:
    # Psi+ family, negated-identity transform
    return (1 - 3 * epsilon) / (8 * math.pi)


def werner_ppt_min_eig(epsilon: float) -> float:
    return (1 - 3 * epsilon) / 4


WERNER_THRESHOLD = 1.0 / 3.0


def cat_c1_value(gamma: float, epsilon: float) -> float:
    # even superposition, p-reflection, theta=pi/4
    return (1 + epsilon * math.tanh(2 * gamma ** 2)) / TWO_PI


def cat_c3_value(gamma: float, epsilon: float) -> float:
    # odd superposition, negated-identity transform
    e4 = math.exp(4 * gamma ** 2)
    return (1 - (1 + e4) * epsilon) / (e4 * 4 * math.pi)


def cat_c3_threshold(gamma: float) -> float:
    return 1.0 / (1.0 + math.exp(4 * gamma ** 2))


def cat_minus_c2_bracket(gamma: float, epsilon: float) -> tuple[float, float]:
    """Lower and upper bounds on criterion 2 of the odd cat at (p-reflection, pi/4).

    The slice is a sum of three unit-width Gaussians c_k exp(-|u - mu_k|^2 / 2):
    the lobes at (+-2 sqrt2 gamma, 0) and the negative fringe at 0.  Upper:
    the triangle inequality.  Lower: |integral over a strip| summed over the
    x-strips cut midway between the centres, tight when the lobes are apart.
    """
    q = math.exp(-4 * gamma * gamma)
    denom = 8 * math.pi ** 2 * (1 - q)
    shift = 2 * math.sqrt(2) * gamma
    lobe = (1 - (1 - epsilon) * q) / denom
    terms = ((lobe, -shift), (-2 * epsilon / denom, 0.0), (lobe, shift))
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2))
    cuts = (-math.inf, -0.5 * shift, 0.5 * shift, math.inf)
    lower = sum(abs(sum(c * (cdf(hi - mu) - cdf(lo - mu)) for c, mu in terms))
                for lo, hi in zip(cuts, cuts[1:]))
    return TWO_PI * lower, TWO_PI * sum(abs(c) for c, _ in terms)


def _erf_difference(a: float, b: float) -> float:
    """erf(b) - erf(a) for a <= b, through erfc on a tail so nothing cancels."""
    if a >= 0.0:
        return math.erfc(a) - math.erfc(b)
    if b <= 0.0:
        return math.erfc(-b) - math.erfc(-a)
    return math.erf(b) - math.erf(a)


def cat_pi4_pocket(gamma: float, epsilon: float) -> float:
    """Half-width of the negative pocket of the odd cat's slice at the
    p-reflection and theta = pi/4, 0 when the slice is nonnegative.

    The slice is e^(-p^2/2) h(x) with h proportional to
    lobe (g(x - L) + g(x + L)) - 2 epsilon g(x), g(y) = e^(-y^2/2),
    L = 2 sqrt2 gamma and lobe = 1 - (1 - epsilon) e^(-4 gamma^2).  So h < 0
    exactly where cosh(L x) < r = epsilon e^(4 gamma^2) / lobe: on
    |x| < acosh(r) / L when r > 1 (a closed-form root: no bisection is needed).
    """
    if epsilon <= 0.0:
        return 0.0
    lobe = 1.0 - (1.0 - epsilon) * math.exp(-4.0 * gamma * gamma)
    log_r = math.log(epsilon) + 4.0 * gamma * gamma - math.log(lobe)
    if log_r <= 0.0:
        return 0.0
    # acosh(r) = log r + log(1 + sqrt(1 - r^-2)), which cannot overflow.
    return (log_r + math.log1p(math.sqrt(-math.expm1(-2.0 * log_r)))) / (
        2.0 * math.sqrt(2.0) * gamma)


def cat_pi4_abs(gamma: float, epsilon: float, sign: str) -> float:
    """Exact criterion 2 (the full-plane integral of |W|) of a dephased cat at
    the p-reflection and theta = pi/4.

    The slice is e^(-p^2/2) h(x) with
    h = [lobe (g(x - L) + g(x + L)) + 2 s epsilon g(x)] / denom, g(y) = e^(-y^2/2),
    L = 2 sqrt2 gamma, lobe = 1 + s (1 - epsilon) e^(-4 gamma^2) and
    denom = 8 pi^2 (1 + s e^(-4 gamma^2)).  Each piece of |h| between the
    roots (cat_pi4_pocket) is a difference of erfs.
    """
    s = 1.0 if sign == "plus" else -1.0
    q = math.exp(-4.0 * gamma * gamma)
    denom = 8.0 * math.pi ** 2 * (1.0 + s * q)
    lobe = 1.0 + s * (1.0 - epsilon) * q
    shift = 2.0 * math.sqrt(2.0) * gamma
    whole = math.sqrt(TWO_PI) * (2.0 * lobe + 2.0 * s * epsilon)
    root = cat_pi4_pocket(gamma, epsilon) if s < 0 else 0.0
    if root > 0.0:
        def mass(centre):       # integral of g(x - centre) over |x| < root
            return math.sqrt(math.pi / 2.0) * _erf_difference(
                (-root - centre) / math.sqrt(2.0), (root - centre) / math.sqrt(2.0))

        # h < 0 on the pocket: |h| = h outside it and -h inside.
        whole -= 2.0 * (lobe * (mass(shift) + mass(-shift)) - 2.0 * epsilon * mass(0.0))
    return math.sqrt(TWO_PI) * whole / denom


def duan_tmsv_value(s: float) -> float:
    return 4.0 * math.exp(-2.0 * s)


BELL_EPS_MIN_PHI = 0.9146
BELL_EPS_MIN_PSI = 0.8919


def random_standard_form(rng: np.random.Generator, symmetric_c: bool,
                         want_entangled: bool | None = None):
    """Rejection-sample a physical standard form (n, m, c1, c2).

    symmetric_c pins c1 = -c2.  want_entangled filters the verdict when not
    None; unphysical draws are retried by the caller loop.
    """
    from wigner_witness import standard_form
    while True:
        n = 1 + rng.uniform(0.05, 1.8)
        m = 1 + rng.uniform(0.05, 1.8)
        if symmetric_c:
            c1 = rng.uniform(0.0, 1.0) * math.sqrt((n * n - 1) * (m * m - 1)) ** 0.5
            c2 = -c1
        else:
            c1 = rng.uniform(-1.2, 1.2)
            c2 = rng.uniform(-1.2, 1.2)
        try:
            g = standard_form(n, m, c1, c2)
        except ValueError:
            continue
        if want_entangled is not None and gaussian_entangled(n, m, c1, c2) != want_entangled:
            continue
        return g, (n, m, c1, c2)


def werner_slice_value(bell: str, epsilon: float, theta: float, transform) -> float:
    """Criterion-1 slice of a Werner state at an arbitrary affine transform.

    The integrand is a quartic times the Gaussian exp(-|C u + d|^2 / 2), so
    a 4 x 4 Gauss-Hermite rule in the Gaussian's whitened coordinates is
    exact however anisotropic the plane is.  transform = (a, b, c, d, x0, p0).
    """
    a, b, c, d, x0, p0 = transform
    ct, st = math.cos(theta), math.sin(theta)
    c_mat = np.array([[ct, 0.0], [0.0, ct], [st * a, st * b], [st * c, st * d]])
    d_vec = np.array([0.0, 0.0, st * x0, st * p0])
    m = c_mat.T @ c_mat
    m_inv = np.linalg.inv(m)
    v = c_mat.T @ d_vec
    u0 = -m_inv @ v
    low = np.linalg.cholesky(m_inv)
    z, wz = np.polynomial.hermite_e.hermegauss(4)       # weight exp(-z^2 / 2)
    total = 0.0
    for z1, w1 in zip(z, wz):
        for z2, w2 in zip(z, wz):
            xi = c_mat @ (u0 + low @ np.array([z1, z2])) + d_vec
            ra2, rb2 = xi[0] ** 2 + xi[1] ** 2, xi[2] ** 2 + xi[3] ** 2
            if bell == "phi+":
                bracket = ((1 + epsilon) * ra2 * rb2 + 4 * epsilon * (xi[0] * xi[2] - xi[1] * xi[3])
                           - 2 * epsilon * (ra2 + rb2) + 4 * epsilon)
            else:
                bracket = ((1 - epsilon) * ra2 * rb2 + 4 * epsilon * (xi[0] * xi[2] + xi[1] * xi[3])
                           + 2 * epsilon * (ra2 + rb2) - 4 * epsilon)
            total += w1 * w2 * bracket
    quad = d_vec @ d_vec - v @ m_inv @ v
    return math.exp(-0.5 * quad) / math.sqrt(np.linalg.det(m)) * total / (16 * math.pi ** 2)


# Full-plane criterion 2 of Fock product states |na, nb> at cutoff 6, on two
# slices where the 8/16 Gauss-Legendre quadtree's error estimate missed:
# ((na, nb), theta, (a, b, c, d, x0, p0), value).  Each value is that
# quadtree at tolerance 1e-6 and the Gauss-Kronrod bisection at 1e-7, which
# agree to 2e-9, rounded to 8 digits.
FOCK_C2_CASES = (
    ((2, 0), 0.8263743080835196,
     (0.1848674172341703, -0.9084647182348918, 1.0569883859949023, 0.21509114117832887,
      -0.23104814743699592, 0.1690065527135423), 0.09374451),
    ((2, 2), 1.4621488327703827,
     (0.5425094013627458, -0.3279001815321009, 0.8160070630129113, 1.3500800798415178,
      2.888549442100421, 0.014564983231021357), 0.13825487),
)


def disk_union_green(disks, potential, nodes: int = 200) -> float:
    """Integral of f over a union of disks (cx, cp, r) by Green's theorem.

    The integral equals the counter-clockwise contour integral of P dp over
    the union's boundary, where dP/dx = f.  The boundary is the arcs of each
    circle that lie outside every other disk; a repeated disk counts once.
    Each arc is smooth, so Gauss-Legendre in the arc angle converges to
    rounding.  potential(x, p) returns P on arrays.
    """
    unique = list(dict.fromkeys(tuple(d) for d in disks))
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for i, (cx, cp, r) in enumerate(unique):
        others = unique[:i] + unique[i + 1:]
        cuts = {0.0}
        for ox, op, orad in others:
            dist = math.hypot(ox - cx, op - cp)
            if abs(r - orad) < dist < r + orad:
                toward = math.atan2(op - cp, ox - cx)
                half = math.acos((dist * dist + r * r - orad * orad) / (2.0 * dist * r))
                cuts |= {(toward - half) % TWO_PI, (toward + half) % TWO_PI}
        cuts = sorted(cuts)
        for lo, hi in zip(cuts, cuts[1:] + [TWO_PI]):
            mid = 0.5 * (lo + hi)
            if any(math.hypot(cx + r * math.cos(mid) - ox, cp + r * math.sin(mid) - op) < orad
                   for ox, op, orad in others):
                continue
            t = lo + 0.5 * (hi - lo) * (x + 1.0)
            dp = r * np.cos(t)
            total += 0.5 * (hi - lo) * float(w @ (potential(cx + dp, cp + r * np.sin(t)) * dp))
    return total


def gaussian_potential(a: float, b: float):
    """P with dP/dx = exp(-((x - a)^2 + (p - b)^2) / 2), for disk_union_green."""
    def potential(x, p):
        erf = np.array([math.erf(v) for v in (x - a) / math.sqrt(2.0)])
        return math.sqrt(math.pi / 2.0) * erf * np.exp(-0.5 * (p - b) ** 2)
    return potential
