"""2-D quadrature over truncated boxes, rectangles and disk unions.

Integrands are callables f(x, p) that accept equal-shape numpy arrays and
return an array of values.  Full-plane integrals are truncated to a box
supplied by the caller (criteria derive it from the field envelope); the
reported error_estimate is the difference between the requested order and a
coarser rule, so doubling the order should move the value by less than it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FULL_PLANE, Region


class NonConvergenceError(RuntimeError):
    """Adaptive refinement stalled above 10x the requested tolerance."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: center (cx, cp), half-widths (hx, hp)."""

    cx: float
    cp: float
    hx: float
    hp: float

    def __post_init__(self) -> None:
        if not (self.hx > 0 and self.hp > 0):
            raise ValueError(f"box half-widths must be positive, got {self.hx!r}, {self.hp!r}")

    @property
    def area(self) -> float:
        return 4.0 * self.hx * self.hp


@dataclass(frozen=True)
class QuadratureSpec:
    """Rule selection and accuracy knobs.

    rule is "tensor-gauss-legendre" (default) or "adaptive-subdivision";
    box is the full-plane truncation box and is required for full-plane
    regions.  tolerance is an absolute target used by the adaptive rule.
    """

    rule: str = "tensor-gauss-legendre"
    order: int = 80
    tolerance: float = 1e-8
    box: Box | None = None

    def __post_init__(self) -> None:
        if self.rule not in ("tensor-gauss-legendre", "adaptive-subdivision"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if self.order < 4:
            raise ValueError("quadrature order must be at least 4")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int


@lru_cache(maxsize=128)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Read-only: every caller shares the cached arrays.
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _axis_nodes(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _tensor_box(f, box: Box, order: int) -> tuple[float, int, np.ndarray]:
    xn, xw = _axis_nodes(box.cx - box.hx, box.cx + box.hx, order)
    pn, pw = _axis_nodes(box.cp - box.hp, box.cp + box.hp, order)
    xs, ps = np.meshgrid(xn, pn, indexing="ij")
    vals = np.asarray(f(xs.ravel(), ps.ravel()), dtype=float).reshape(order, order)
    value = float(xw @ vals @ pw)
    return value, order * order, vals


def _err_floor(value: float) -> float:
    return 1e-13 * (1.0 + abs(value))


def _tensor_with_refinement(f, box: Box, order: int) -> tuple[IntegralResult, np.ndarray]:
    # Gauss-Legendre converges geometrically on these integrands, so one rung
    # down (3/4 of the order) still bounds the residual; half the order sits
    # below the resolution knee of wide boxes and overstates it by orders.
    coarse_order = max(4, (3 * order) // 4)
    coarse, n1, _ = _tensor_box(f, box, coarse_order)
    fine, n2, vals = _tensor_box(f, box, order)
    err = max(abs(fine - coarse), _err_floor(fine))
    return IntegralResult(fine, err, n1 + n2), vals


def _wave_rule(f, cells: np.ndarray, order: int) -> np.ndarray:
    # cells: (n, 4) rows of (cx, cp, hx, hp).  One f() call per wave, not per
    # cell, because the integrand dominates the cost on oscillatory fields.
    xg, wg = _leggauss(order)
    xs = cells[:, 0:1] + cells[:, 2:3] * xg          # (n, order)
    ps = cells[:, 1:2] + cells[:, 3:4] * xg
    gx = np.repeat(xs[:, :, None], order, axis=2)
    gp = np.repeat(ps[:, None, :], order, axis=1)
    vals = np.asarray(f(gx.ravel(), gp.ravel()), dtype=float).reshape(-1, order, order)
    w2 = np.outer(wg, wg)
    return np.einsum('cij,ij->c', vals, w2) * cells[:, 2] * cells[:, 3]


def _adaptive_box(f, box: Box, tolerance: float,
                  max_depth: int = 12, max_cells: int = 6000) -> IntegralResult:
    """Quadtree refinement with a fixed low/high order pair per cell.

    Cells of a generation are evaluated in one batch; traversal order is
    fixed, so the accumulated sum is deterministic.
    """
    lo_order, hi_order = 8, 16
    total_area = box.area
    wave = np.array([[box.cx, box.cp, box.hx, box.hp]])
    depth = 0
    value = 0.0
    err = 0.0
    evals = 0
    cells = 0
    while wave.size:
        coarse = _wave_rule(f, wave, lo_order)
        fine = _wave_rule(f, wave, hi_order)
        evals += wave.shape[0] * (lo_order * lo_order + hi_order * hi_order)
        diff = np.abs(fine - coarse)
        budget = tolerance * np.maximum(wave[:, 2] * wave[:, 3] * 4.0 / total_area, 1e-6)
        done = (diff <= budget) | (depth >= max_depth) | (cells >= max_cells) \
            | (wave.shape[0] > max_cells)
        # Accepting a wave's cells in row order keeps the sum reproducible.
        value += float(fine[done].sum())
        err += float(diff[done].sum())
        cells += int(done.sum())
        split = wave[~done]
        if split.size:
            hx = split[:, 2] / 2.0
            hp = split[:, 3] / 2.0
            children = []
            for dx_sign in (-1.0, 1.0):
                for dp_sign in (-1.0, 1.0):
                    children.append(np.column_stack([
                        split[:, 0] + dx_sign * hx, split[:, 1] + dp_sign * hp, hx, hp]))
            wave = np.concatenate(children, axis=0)
        else:
            wave = np.empty((0, 4))
        depth += 1
    err = max(err, _err_floor(value))
    if err > 10.0 * tolerance:
        raise NonConvergenceError(
            f"adaptive subdivision stalled at error {err:.3e} > 10 * tolerance {tolerance:.3e}")
    return IntegralResult(value, err, evals)


def _polar_disk(f, cx: float, cp: float, radius: float,
                n_r: int, n_phi: int) -> tuple[float, int]:
    # Gauss-Legendre in u = (r/R)^2 removes the radial Jacobian kink at 0.
    un, uw = _axis_nodes(0.0, 1.0, n_r)
    an, aw = _axis_nodes(0.0, 2.0 * math.pi, n_phi)
    r = radius * np.sqrt(un)
    xs = cx + np.outer(r, np.cos(an))
    ps = cp + np.outer(r, np.sin(an))
    vals = np.asarray(f(xs.ravel(), ps.ravel()), dtype=float).reshape(n_r, n_phi)
    value = 0.5 * radius * radius * float(uw @ vals @ aw)
    return value, n_r * n_phi


def _disks_overlap(disks) -> bool:
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            dx = disks[i][0] - disks[j][0]
            dp = disks[i][1] - disks[j][1]
            if math.hypot(dx, dp) < disks[i][2] + disks[j][2] - 1e-12:
                return True
    return False


def _disk_union(f, disks, order: int) -> IntegralResult:
    if not _disks_overlap(disks):
        value = 0.0
        err = 0.0
        evals = 0
        for cx, cp, radius in disks:
            n_r = max(8, order // 2)
            n_phi = max(16, order)
            coarse, n1 = _polar_disk(f, cx, cp, radius, max(4, n_r // 2), max(8, n_phi // 2))
            fine, n2 = _polar_disk(f, cx, cp, radius, n_r, n_phi)
            value += fine
            err += abs(fine - coarse)
            evals += n1 + n2
        return IntegralResult(value, max(err, _err_floor(value)), evals)
    # Overlapping disks: uniform masked grid over the union's bounding box.
    # The indicator ruins spectral accuracy, so the error is flagged generously.
    x_lo = min(c - r for c, _, r in disks)
    x_hi = max(c + r for c, _, r in disks)
    p_lo = min(c - r for _, c, r in disks)
    p_hi = max(c + r for _, c, r in disks)

    def masked(n: int) -> tuple[float, int]:
        xs = np.linspace(x_lo, x_hi, n, endpoint=False) + (x_hi - x_lo) / (2 * n)
        ps = np.linspace(p_lo, p_hi, n, endpoint=False) + (p_hi - p_lo) / (2 * n)
        gx, gp = np.meshgrid(xs, ps, indexing="ij")
        mask = np.zeros(gx.shape, dtype=bool)
        for cx, cp, radius in disks:
            mask |= (gx - cx) ** 2 + (gp - cp) ** 2 <= radius * radius
        vals = np.zeros(gx.shape)
        if mask.any():
            vals[mask] = f(gx[mask], gp[mask])
        cell = (x_hi - x_lo) * (p_hi - p_lo) / (n * n)
        return float(vals.sum() * cell), int(mask.sum())

    n = max(128, 4 * order)
    coarse, n1 = masked(n // 2)
    fine, n2 = masked(n)
    err = 3.0 * abs(fine - coarse) + _err_floor(fine)
    return IntegralResult(fine, err, n1 + n2)


def _require_box(spec: QuadratureSpec) -> Box:
    if spec.box is None:
        raise ValueError("full-plane integration needs a truncation box in QuadratureSpec")
    return spec.box


def _box_for(region: Region, spec: QuadratureSpec) -> Box:
    if region.kind == "full-plane":
        return _require_box(spec)
    x_lo, x_hi, p_lo, p_hi = region.bounds
    return Box(0.5 * (x_lo + x_hi), 0.5 * (p_lo + p_hi),
               0.5 * (x_hi - x_lo), 0.5 * (p_hi - p_lo))


def integrate(f, region: Region = FULL_PLANE,
              spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integrate f over the region.

    Full-plane regions are truncated to spec.box; rectangles use their own
    bounds.  Disk unions use a polar rule per disk (a masked grid when disks
    overlap, with the error estimate inflated accordingly).
    """
    spec = spec or QuadratureSpec()
    if region.kind == "disk-union":
        return _disk_union(f, region.disks, spec.order)
    box = _box_for(region, spec)
    if spec.rule == "adaptive-subdivision":
        return _adaptive_box(f, box, spec.tolerance)
    result, _ = _tensor_with_refinement(f, box, spec.order)
    return result


def integrate_abs(f, region: Region = FULL_PLANE,
                  spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integrate |f| over the region.

    When f changes sign inside the region the integrand has gradient kinks, so
    the adaptive rule is forced regardless of spec.rule; otherwise this is an
    ordinary integrate() of |f|.
    """
    spec = spec or QuadratureSpec()

    def absf(x, p):
        return np.abs(f(x, p))

    if region.kind == "disk-union":
        return _disk_union(absf, region.disks, spec.order)
    box = _box_for(region, spec)
    probe_order = min(32, max(8, spec.order // 2))
    _, _, probe = _tensor_box(f, box, probe_order)
    scale = float(np.max(np.abs(probe))) if probe.size else 0.0
    mixed = scale > 0 and probe.min() < -1e-12 * scale and probe.max() > 1e-12 * scale
    if mixed or spec.rule == "adaptive-subdivision":
        result = _adaptive_box(absf, box, spec.tolerance)
        return IntegralResult(result.value, result.error_estimate,
                              result.evaluations + probe_order * probe_order)
    result, _ = _tensor_with_refinement(absf, box, spec.order)
    return IntegralResult(result.value, result.error_estimate,
                          result.evaluations + probe_order * probe_order)
