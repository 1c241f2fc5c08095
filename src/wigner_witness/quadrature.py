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
accepted cell's Gauss-against-Kronrod difference along both axes.  A disk
union is the sum of each disk minus the disks before it, in polar
coordinates about that disk's centre with every earlier disk cut out of each
ray exactly; its error is each disk's difference from a half-order rule.
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


def _circle_crossings(a, b) -> tuple:
    """Points where the circles a and b, each (cx, cp, radius), cross; a
    point where they touch comes twice."""
    dx, dp = b[0] - a[0], b[1] - a[1]
    dist = math.hypot(dx, dp)
    if dist == 0.0 or not abs(a[2] - b[2]) <= dist <= a[2] + b[2]:
        return ()
    along = (dist * dist + a[2] * a[2] - b[2] * b[2]) / (2.0 * dist)
    across = math.sqrt(max(a[2] * a[2] - along * along, 0.0)) / dist
    mx, mp = a[0] + along * dx / dist, a[1] + along * dp / dist
    return ((mx - across * dp, mp + across * dx), (mx + across * dp, mp - across * dx))


def _breakpoints(disk, earlier) -> list[tuple[float, bool]]:
    """Angles about the disk's centre where its radial pieces change, each
    with whether the piece ends vary like a square root there.

    They are the rim's crossings with each earlier circle, the tangents to an
    earlier circle whose tangent point is inside the disk, and crossings of
    two earlier circles inside the disk.  The ray's distances to a circle that
    leaves the centre outside have square-root branch points at its tangents,
    so the tangents and that circle's rim crossings are marked.
    """
    cx, cp, radius = disk
    marks: dict[float, bool] = {}

    def add(angle: float, root: bool) -> None:
        angle %= 2.0 * math.pi
        marks[angle] = marks.get(angle, False) or root

    for a, circle in enumerate(earlier):
        dx, dp = circle[0] - cx, circle[1] - cp
        outside = dx * dx + dp * dp >= circle[2] * circle[2]
        for x, p in _circle_crossings(disk, circle):
            add(math.atan2(p - cp, x - cx), outside)
        if outside and dx * dx + dp * dp - circle[2] * circle[2] < radius * radius:
            toward, half = math.atan2(dp, dx), math.asin(circle[2] / math.hypot(dx, dp))
            add(toward - half, True)
            add(toward + half, True)
        for other in earlier[:a]:
            for x, p in _circle_crossings(circle, other):
                if math.hypot(x - cx, p - cp) < radius:
                    add(math.atan2(p - cp, x - cx), False)
    return sorted(marks.items()) or [(0.0, False)]


def _ray_pieces(phi: float, radius: float, offsets: np.ndarray) -> list:
    """Radial pieces of the ray at angle phi from the disk's centre that lie
    outside every earlier disk, as (start, end) labels.  offsets rows are
    (dx, dp, dx^2 + dp^2 - r^2) of each earlier disk about the centre.
    (j, -1.0) and (j, 1.0) are the near and far crossings of earlier circle
    j; None is the centre as a start and the rim as an end."""
    cos_a, sin_a = math.cos(phi), math.sin(phi)
    cuts = []
    for j, (dx, dp, c) in enumerate(offsets):
        b = cos_a * dx + sin_a * dp
        if b * b > c:
            near, far = b - math.sqrt(b * b - c), b + math.sqrt(b * b - c)
            if far > 0 and near < radius:
                cuts.append((max(near, 0.0), min(far, radius),
                             (j, -1.0) if near > 0 else None, (j, 1.0) if far < radius else None))
    pieces, reach, label = [], 0.0, None
    for near, far, near_label, far_label in sorted(cuts, key=lambda c: c[0]):
        if near > reach:
            pieces.append((label, near_label))
        if far > reach:
            reach, label = far, far_label
    if reach < radius:
        pieces.append((label, None))
    return pieces


def _angle_nodes(lo: float, hi: float, m: int, lo_root: bool, hi_root: bool):
    """m Gauss-Legendre nodes and weights on [lo, hi], through the sin^2 map
    phi = lo + (hi - lo)(1 - cos(pi s))/2 (Sidi 1993) at each square-root
    end: its half on [0, 1/2] or [1/2, 1] when only one end is marked."""
    s, ws = _axis_nodes(0.0, 1.0, m)
    if not (lo_root or hi_root):
        return lo + (hi - lo) * s, (hi - lo) * ws
    u0, u1 = (0.0 if lo_root else 0.5), (1.0 if hi_root else 0.5)
    u = u0 + (u1 - u0) * s
    scale = (hi - lo) / (math.cos(math.pi * u0) - math.cos(math.pi * u1))
    return (lo + scale * (math.cos(math.pi * u0) - np.cos(math.pi * u)),
            ws * scale * (u1 - u0) * math.pi * np.sin(math.pi * u))


def _polar_pieces(f, disk, earlier, n_r: int, n_phi: int) -> tuple[np.ndarray, int]:
    """Integral of f over the disk minus the earlier disks, in polar
    coordinates about the disk's centre, as one term per strip: a radial
    piece over an angular sub-interval.

    Between consecutive breakpoints every ray has the same pieces, and their
    ends are analytic in the angle except for the square roots that
    _angle_nodes smooths.  Each sub-interval gets its share of n_phi by
    angle, and at least a tenth of it; each piece gets n_r Gauss-Legendre
    nodes in r with weight r.
    """
    cx, cp, radius = disk
    offsets = np.array([(jx - cx, jp - cp, (jx - cx) ** 2 + (jp - cp) ** 2 - rj * rj)
                        for jx, jp, rj in earlier])
    cuts = _breakpoints(disk, earlier)
    strips = []
    for (lo, lo_root), (hi, hi_root) in zip(cuts, cuts[1:] + [(cuts[0][0] + 2.0 * math.pi,
                                                                 cuts[0][1])]):
        pieces = _ray_pieces(0.5 * (lo + hi), radius, offsets)
        if not pieces:
            continue
        m = math.ceil(n_phi * max((hi - lo) / (2.0 * math.pi), 0.1))
        phi, w_phi = _angle_nodes(lo, hi, m, lo_root, hi_root)
        b = np.outer(np.cos(phi), offsets[:, 0]) + np.outer(np.sin(phi), offsets[:, 1])
        root = np.sqrt(np.maximum(b * b - offsets[:, 2], 0.0))

        def reach(label, default):
            if label is None:
                return np.full(m, default)
            j, side = label
            return np.clip(b[:, j] + side * root[:, j], 0.0, radius)

        for start, end in pieces:
            r0 = reach(start, 0.0)
            strips.append((phi, w_phi, r0, np.maximum(reach(end, radius), r0)))
    if not strips:
        return np.zeros(0), 0
    phi, w_phi, r0, r1 = (np.concatenate(c) for c in zip(*strips))
    xr, wr = _leggauss(n_r)
    half = 0.5 * (r1 - r0)
    mid = r0 + half
    cos_a, sin_a = np.cos(phi), np.sin(phi)

    def nodes(rows: slice, cols: slice):
        r = mid[rows, None] + half[rows, None] * xr[cols]
        return (cx + r * cos_a[rows, None]).ravel(), (cp + r * sin_a[rows, None]).ravel()

    vals = np.empty((phi.size, n_r))
    _fill(f, vals, nodes)
    # r dr on each piece: sum_k wr_k r_k v_k with r_k = mid + half * xr_k.
    rays = w_phi * half * (mid * (vals @ wr) + half * (vals @ (wr * xr)))
    starts = np.cumsum([0] + [strip[0].size for strip in strips[:-1]])
    return np.add.reduceat(rays, starts), vals.size


def _disk_union(f, disks, order: int) -> IntegralResult:
    """Sum over the disks of each disk minus the disks before it.

    A disk that overlaps no earlier disk takes the polar rule about its
    centre; any other is cut into polar pieces, of which a disk inside an
    earlier one has none.  The error is the distance to the half-order
    rung, summed strip by strip so that strips cannot cancel each other.
    """
    n_r, n_phi = max(8, order // 2), max(16, order)
    value = err = 0.0
    evals = 0
    for i, disk in enumerate(disks):
        cx, cp, radius = disk
        earlier = [d for d in disks[:i]
                   if math.hypot(d[0] - cx, d[1] - cp) < d[2] + radius - 1e-12]
        if earlier:
            rule = lambda n, m: _polar_pieces(f, disk, earlier, n, m)
        else:
            rule = lambda n, m: _polar_disk(f, cx, cp, radius, n, m)
        coarse, n1 = rule(max(4, n_r // 2), max(8, n_phi // 2))
        fine, n2 = rule(n_r, n_phi)
        value += float(np.sum(fine))
        err += float(np.sum(np.abs(fine - coarse)))
        evals += n1 + n2
    return IntegralResult(value, max(err, _err_floor(value)), evals)


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
    bounds.  A disk union is integrated disk by disk: a disk apart from the
    earlier ones by the polar rule about its centre, one overlapping them by
    polar pieces that leave the earlier disks out of every ray, with the
    angle cut where the pieces change (_breakpoints).
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
