"""2-D quadrature over truncated boxes, rectangles and disk unions.

Integrands are pointwise callables f(x, p): each rule hands them equal-shape
1-D arrays of at most _BLOCK nodes and reads back one value per node.  Rules
build their nodes block by block and reduce the values exactly as one call on
the whole grid would, so memory per integral is bounded by the block size and
results do not depend on it.  Full-plane integrals are truncated to a box
supplied by the caller (criteria derive it from the field envelope).  The
tensor rule's error_estimate is the difference between the requested order
and a coarser rule, so doubling the order should move the value by less than
it; the adaptive rule bisects 15 x 15 Gauss-Kronrod cells and sums each
accepted cell's Gauss-against-Kronrod difference along both axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FULL_PLANE, Region

# Nodes per integrand call: 64 KiB per float64 array, so a block's
# temporaries stay in cache however large the rule's grid is.
_BLOCK = 8192


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

    rule is "tensor-gauss-legendre" (default) or "adaptive-subdivision",
    which bisects Gauss-Kronrod cells until the summed cell errors meet
    tolerance, an absolute target.  box is the full-plane truncation box and
    is required for full-plane regions.
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
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"quadrature tolerance must be finite and positive, "
                             f"got {self.tolerance!r}")


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


def _fill(f, vals: np.ndarray, nodes) -> None:
    """Set vals[rows, cols] = f(*nodes(rows, cols)), one block per call.

    A block is whole rows of vals, or part of one row when a row alone
    exceeds _BLOCK, so no call sees more than _BLOCK nodes.
    """
    n_rows, n_cols = vals.shape
    row_step = max(1, _BLOCK // n_cols)
    col_step = min(n_cols, _BLOCK)
    for r0 in range(0, n_rows, row_step):
        rows = slice(r0, min(r0 + row_step, n_rows))
        for c0 in range(0, n_cols, col_step):
            cols = slice(c0, min(c0 + col_step, n_cols))
            block = vals[rows, cols]
            block[...] = np.asarray(f(*nodes(rows, cols)), dtype=float).reshape(block.shape)


def _cell_nodes(xs: np.ndarray, ps: np.ndarray):
    """Nodes of a stack of tensor grids, one per row pair of xs, ps (cells, m).

    Row r of the value grid is cell r // m at x node r % m; its columns run
    over that cell's p nodes.
    """
    m = xs.shape[1]
    flat_x = xs.ravel()

    def nodes(rows: slice, cols: slice):
        p = ps[np.arange(rows.start, rows.stop) // m, cols]
        return np.repeat(flat_x[rows], p.shape[1]), p.ravel()

    return nodes


def _tensor_box(f, box: Box, order: int) -> tuple[float, int, np.ndarray]:
    xn, xw = _axis_nodes(box.cx - box.hx, box.cx + box.hx, order)
    pn, pw = _axis_nodes(box.cp - box.hp, box.cp + box.hp, order)
    vals = np.empty((order, order))
    _fill(f, vals, _cell_nodes(xn[None, :], pn[None, :]))
    value = float(xw @ vals @ pw)
    return value, order * order, vals


def _err_floor(value: float) -> float:
    return 1e-13 * (1.0 + abs(value))


def _tensor_with_refinement(f, box: Box, order: int) -> IntegralResult:
    # Gauss-Legendre converges geometrically on these integrands, so one rung
    # down (3/4 of the order) still bounds the residual; half the order sits
    # below the resolution knee of wide boxes and overstates it by orders.
    coarse_order = max(4, (3 * order) // 4)
    coarse, n1, _ = _tensor_box(f, box, coarse_order)
    fine, n2, _ = _tensor_box(f, box, order)
    err = max(abs(fine - coarse), _err_floor(fine))
    return IntegralResult(fine, err, n1 + n2)


# QUADPACK's qk15 on [-1, 1]: the Kronrod nodes x >= 0, largest first, and
# their weights; the 7-point Gauss rule takes every other node.
_QK15_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
           0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_QK15_K = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
           0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_QK7_G = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
_GK_X = np.concatenate([np.negative(_QK15_X), _QK15_X[-2::-1]])
_GK_K = np.array(_QK15_K + _QK15_K[-2::-1])
_GK_D = _GK_K.copy()
_GK_D[1::2] -= _QK7_G + _QK7_G[-2::-1]          # K - G: G is zero on the even nodes


def _gk_cells(f, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15 x 15 Gauss-Kronrod value of each cell and its x and p errors,
    |(K - G) x K| and |K x (K - G)|.  cells: (n, 4) rows of (cx, cp, hx, hp).

    Whole cells share f() blocks, not one call per cell: the integrand's
    per-call overhead would dominate at 225 nodes.  Each block is reduced
    before the next is built, so a wave holds one block of values.
    """
    m = _GK_X.size
    xs = cells[:, 0:1] + cells[:, 2:3] * _GK_X          # (n, m)
    ps = cells[:, 1:2] + cells[:, 3:4] * _GK_X
    per_block = _BLOCK // (m * m)
    out = np.empty((3, cells.shape[0]))
    for c0 in range(0, cells.shape[0], per_block):
        block = slice(c0, c0 + per_block)
        vals = np.empty((xs[block].shape[0], m, m))
        _fill(f, vals.reshape(-1, m), _cell_nodes(xs[block], ps[block]))
        k, d = vals @ _GK_K, vals @ _GK_D                # p reduced, x left
        out[:, block] = k @ _GK_K, k @ _GK_D, d @ _GK_K
    out *= cells[:, 2] * cells[:, 3]
    return out[0], np.abs(out[1]), np.abs(out[2])


def _adaptive_box(f, box: Box, tolerance: float,
                  max_depth: int = 12, max_cells: int = 6000) -> IntegralResult:
    """Adaptive bisection of 15 x 15 Gauss-Kronrod cells.

    A cell over its share of the tolerance is halved across the axis with the
    larger error, so a nodal line is refined in strips, not squares.
    max_depth caps the halvings per axis; a cell whose worse axis is at the
    cap is accepted with its error.  Cells of a generation are evaluated in
    one batch in a fixed order, so the accumulated sum is deterministic.
    """
    total_area = box.area
    min_h = np.array([box.hx, box.hp]) * 0.5 ** max_depth
    # The first wave is an 8 x 8 grid.  On a wider cell the 15 nodes can
    # step over a peak with the Gauss and Kronrod rules agreeing: on a tail
    # strip of a gamma = 4.14 cat- slice both read 0.0325 against 0.0524.
    u = (2.0 * np.arange(8) - 7.0) / 8
    wave = np.array([(box.cx + box.hx * a, box.cp + box.hp * b, box.hx / 8, box.hp / 8)
                     for a in u for b in u])
    value = err = 0.0
    evals = cells = 0
    while wave.size:
        q, ex, ep = _gk_cells(f, wave)
        evals += wave.shape[0] * _GK_X.size ** 2
        cell_err = ex + ep
        along_x = ex >= ep
        at_cap = np.where(along_x, wave[:, 2] <= min_h[0], wave[:, 3] <= min_h[1])
        budget = tolerance * np.maximum(wave[:, 2] * wave[:, 3] * 4.0 / total_area, 1e-6)
        done = (cell_err <= budget) | at_cap | (cells >= max_cells) \
            | (wave.shape[0] > max_cells)
        # Accepting a wave's cells in row order keeps the sum reproducible.
        value += float(q[done].sum())
        err += float(cell_err[done].sum())
        cells += int(done.sum())
        split = wave[~done]
        # Halve each split cell across its worse axis: step is the centre
        # shift of the two halves, and also what that half-width loses.
        step = np.zeros_like(split)
        step[:, 0:2] = 0.5 * split[:, 2:4] * np.where(along_x[~done, None], (1.0, 0.0), (0.0, 1.0))
        half = split - step[:, [2, 3, 0, 1]]
        wave = np.concatenate([half - step, half + step])
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
    cos_a, sin_a = np.cos(an), np.sin(an)

    def nodes(rows: slice, cols: slice):
        return ((cx + np.outer(r[rows], cos_a[cols])).ravel(),
                (cp + np.outer(r[rows], sin_a[cols])).ravel())

    vals = np.empty((n_r, n_phi))
    _fill(f, vals, nodes)
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
        inside = 0

        def on_union(x, p):
            nonlocal inside
            mask = np.zeros(x.shape, dtype=bool)
            for cx, cp, radius in disks:
                mask |= (x - cx) ** 2 + (p - cp) ** 2 <= radius * radius
            out = np.zeros(x.shape)
            if mask.any():
                out[mask] = f(x[mask], p[mask])
                inside += int(mask.sum())
            return out

        vals = np.empty((n, n))
        _fill(on_union, vals, _cell_nodes(xs[None, :], ps[None, :]))
        cell = (x_hi - x_lo) * (p_hi - p_lo) / (n * n)
        return float(vals.sum() * cell), inside

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
    return _tensor_with_refinement(f, box, spec.order)


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
    result = _tensor_with_refinement(absf, box, spec.order)
    return IntegralResult(result.value, result.error_estimate,
                          result.evaluations + probe_order * probe_order)
