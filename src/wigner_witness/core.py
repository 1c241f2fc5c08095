"""Linear phase-space transforms and integration regions.

Conventions used throughout the package: two-mode quadratures
(x_A, p_A, x_B, p_B) with [x, p] = 2i, so the vacuum variance is 1 and the
vacuum Wigner peak is 1/(2*pi) per mode.  All angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DET_TOL = 1e-9


class TransformError(ValueError):
    """Raised when a transform's matrix part is not unimodular."""


@dataclass(frozen=True)
class Transform2:
    """Affine map (x, p) -> (a*x + b*p + x0, c*x + d*p + p0) with |det| = 1.

    The matrix part (a, b; c, d) must have determinant +1 or -1; the offsets
    (x0, p0) may be any finite numbers.
    """

    a: float
    b: float
    c: float
    d: float
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if not math.isfinite(det) or abs(abs(det) - 1.0) > _DET_TOL:
            raise TransformError(f"matrix determinant must be +-1, got {det!r}")
        if not (math.isfinite(self.x0) and math.isfinite(self.p0)):
            raise TransformError(f"offsets must be finite, got ({self.x0!r}, {self.p0!r})")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    @property
    def offset(self) -> np.ndarray:
        return np.array([self.x0, self.p0])

    def __call__(self, x, p):
        return apply_transform(self, x, p)


def make_transform(a: float, b: float, c: float, d: float,
                   x0: float = 0.0, p0: float = 0.0) -> Transform2:
    """Validated constructor for Transform2."""
    return Transform2(float(a), float(b), float(c), float(d), float(x0), float(p0))


def apply_transform(t: Transform2, x, p):
    """Map coordinates through t.  Accepts scalars or numpy arrays."""
    return t.a * x + t.b * p + t.x0, t.c * x + t.d * p + t.p0


def invert_transform(t: Transform2) -> Transform2:
    """Inverse affine map; the matrix part is inverted exactly."""
    det = t.det
    ia, ib, ic, id_ = t.d / det, -t.b / det, -t.c / det, t.a / det
    return Transform2(ia, ib, ic, id_,
                      -(ia * t.x0 + ib * t.p0), -(ic * t.x0 + id_ * t.p0))


def check_theta(theta: float, exclude_degenerate: bool = False) -> None:
    """Raise ValueError unless 0 < theta < pi and, if asked, theta is off pi/2."""
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta!r}")
    if exclude_degenerate and abs(math.sin(2.0 * theta)) < 1e-9:
        raise ValueError("theta too close to pi/2: the slice loses one mode")


def compose_transforms(outer: Transform2, inner: Transform2) -> Transform2:
    """Composition outer(inner(.)) as a single Transform2."""
    m = outer.matrix @ inner.matrix
    off = outer.matrix @ inner.offset + outer.offset
    return Transform2(m[0, 0], m[0, 1], m[1, 0], m[1, 1], off[0], off[1])


IDENTITY = Transform2(1.0, 0.0, 0.0, 1.0)
P_REFLECT = Transform2(1.0, 0.0, 0.0, -1.0)
NEG_IDENTITY = Transform2(-1.0, 0.0, 0.0, -1.0)

PRESETS = {
    "identity": IDENTITY,
    "p-reflect": P_REFLECT,
    "neg-identity": NEG_IDENTITY,
}


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class SymplecticParam:
    """Euler-like factorization R(phi1) * diag(t, 1/t) * R(phi2) of the matrix
    part, right-multiplied by diag(1, -1) when reflect is set (det = -1)."""

    phi1: float
    phi2: float
    t: float
    reflect: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0):
            raise TransformError(f"scale t must be positive, got {self.t!r}")


def symplectic_from_params(param: SymplecticParam,
                           x0: float = 0.0, p0: float = 0.0) -> Transform2:
    """Build the Transform2 with matrix R(phi1) diag(t, 1/t) R(phi2) [diag(1,-1)]."""
    c1, s1 = math.cos(param.phi1), math.sin(param.phi1)
    c2, s2 = math.cos(param.phi2), math.sin(param.phi2)
    t, it = param.t, 1.0 / param.t
    a = c1 * t * c2 - s1 * it * s2
    b = -c1 * t * s2 - s1 * it * c2
    c = s1 * t * c2 + c1 * it * s2
    d = -s1 * t * s2 + c1 * it * c2
    if param.reflect:
        b, d = -b, -d
    return Transform2(a, b, c, d, x0, p0)


def params_from_symplectic(t: Transform2) -> SymplecticParam:
    """Recover (phi1, phi2, t, reflect) from the matrix part of a Transform2.

    The factorization is not unique when t = 1; any representative that
    reproduces the matrix is returned.
    """
    reflect = t.det < 0
    m = t.matrix
    if reflect:
        m = m @ np.diag([1.0, -1.0])
    u, sigma, vt = np.linalg.svd(m)
    if np.linalg.det(u) < 0:
        # Push the reflection through the (equal-sign) pair so both factors rotate.
        u = u @ np.diag([1.0, -1.0])
        vt = np.diag([1.0, -1.0]) @ vt
    phi1 = math.atan2(u[1, 0], u[0, 0])
    phi2 = math.atan2(vt[1, 0], vt[0, 0])
    return SymplecticParam(phi1, phi2, float(sigma[0]), reflect)


class RegionError(ValueError):
    """Raised for malformed integration regions."""


@dataclass(frozen=True)
class Region:
    """Integration region in slice coordinates.

    kind is one of "full-plane", "rectangle" (bounds = (x_lo, x_hi, p_lo, p_hi))
    or "disk-union" (disks = ((cx, cp, radius), ...)).
    """

    kind: str
    bounds: tuple[float, float, float, float] | None = None
    disks: tuple[tuple[float, float, float], ...] | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.bounds is not None:
            out["bounds"] = list(self.bounds)
        if self.disks is not None:
            out["disks"] = [list(d) for d in self.disks]
        return out


FULL_PLANE = Region("full-plane")


def rectangle(x_lo: float, x_hi: float, p_lo: float, p_hi: float) -> Region:
    if not (all(map(math.isfinite, (x_lo, x_hi, p_lo, p_hi))) and x_lo < x_hi and p_lo < p_hi):
        raise RegionError("rectangle bounds must be finite with x_lo < x_hi and p_lo < p_hi")
    return Region("rectangle", bounds=(float(x_lo), float(x_hi), float(p_lo), float(p_hi)))


def disk_union(*disks: tuple[float, float, float]) -> Region:
    if not disks:
        raise RegionError("disk union needs at least one disk")
    clean = []
    for cx, cp, r in disks:
        if not (math.isfinite(cx) and math.isfinite(cp) and math.isfinite(r) and r > 0):
            raise RegionError(f"disk needs a finite centre and radius > 0, got {(cx, cp, r)!r}")
        clean.append((float(cx), float(cp), float(r)))
    return Region("disk-union", disks=tuple(clean))
