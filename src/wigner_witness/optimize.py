"""Search over transforms and mixing angles for maximal criterion violation.

The slice criteria leave the transform (x, p) -> (x', p') and the angle theta
free, so certifying a state means searching a six-parameter space: two
rotation angles and a log squeezing parameter for the matrix, two offsets,
and theta, doubled over the reflection branch det = +/-1.  The objective is
smooth but multimodal (cat-state fringes), so the optimizer is a coarse seed
lattice followed by Nelder-Mead refinement of the best seeds per branch; it
is best-effort and reports its trace rather than claiming global optimality.
The purity-angle and CHSH searches share its driver, `_refine_top`.

shrink_region answers the complementary question for criterion II: once a
(transform, theta) pair violates on the full plane, how small can the
integration region be while still certifying?  Disks are grown greedily from
the local maxima of |slice| and then trimmed until 5% radius cuts would lose
the violation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FULL_PLANE, Region, SymplecticParam, Transform2, disk_union, symplectic_from_params
from .criteria import CriterionReport, bell_chsh, criterion1, criterion2, criterion3, purity_s1
from .quadrature import QuadratureSpec
from .wigner import WignerField, make_slice

_SEARCH_ORDER = 40
_REPORT_ORDER = 120
_PENALTY = -1e9
_ANGLE_SEEDS = (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)
_LOGT_SEEDS = (-0.7, 0.0, 0.7)
_OFFSET_SEEDS = (-1.0, 0.0, 1.0)
_THETA_SEEDS = (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0)
_TOP_K = 8
_MAX_ITER = 200


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on first call.

    The optimiser is the package's only scipy user, so importing the package,
    and every CLI command that does not optimise, never loads scipy.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


class NotViolatedError(RuntimeError):
    """Raised when region shrinking is asked to start from a non-violation."""


@dataclass(frozen=True)
class OptimizationResult:
    """Best transform found for one criterion, with the search trace.

    trace holds (index, objective) pairs: one entry per lattice seed, one per
    Nelder-Mead refinement, and a final entry for the winner.  The objective
    is the bound margin (value - bound) for C1/C2 and -value for C3, so later
    entries never fall below the seeds they refined.
    """

    best_param: SymplecticParam
    best_theta: float | None
    best_value: float
    report: CriterionReport
    trace: tuple[tuple[int, float], ...]
    restarts: int


def _clamped(vec, which: str) -> bool:
    phi1, phi2, logt, x0, p0 = vec[:5]
    if abs(logt) > 6.0 or abs(x0) > 50.0 or abs(p0) > 50.0:
        return True
    if which != "C3":
        theta = vec[5]
        if not 1e-3 < theta < math.pi - 1e-3 or abs(math.sin(2.0 * theta)) < 1e-6:
            return True
    return False


def _evaluate(w: WignerField, which: str, vec, reflect: bool,
              spec: QuadratureSpec) -> CriterionReport:
    param = SymplecticParam(phi1=float(vec[0]), phi2=float(vec[1]),
                            t=math.exp(float(vec[2])), reflect=reflect)
    t = symplectic_from_params(param, x0=float(vec[3]), p0=float(vec[4]))
    if which == "C1":
        return criterion1(w, t, float(vec[5]), spec)
    if which == "C2":
        return criterion2(w, t, float(vec[5]), FULL_PLANE, spec)
    return criterion3(w, t, spec)


def _objective(report: CriterionReport, which: str) -> float:
    if which == "C3":
        return -report.value
    return report.value - report.bound


def _ascend(objective, x0, maxiter: int, fatol: float, xatol: float | None = None):
    """One Nelder-Mead run maximising `objective` from x0: (value, point)."""
    res = minimize(lambda v: -objective(v), x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "fatol": fatol,
                            "xatol": fatol if xatol is None else xatol, "disp": False})
    return float(-res.fun), np.asarray(res.x, dtype=float)


def _refine_top(objective, scored, top: int, maxiter: int, fatol: float,
                xatol: float | None = None):
    """(value, point) of one ascent from each of the `top` best unpenalised
    (value, point) seeds, best first.  Ties keep seed order, here and in
    `max(scored + runs)`, which so keeps a run only if it beats every seed."""
    ranked = sorted(scored, key=lambda item: -item[0])
    return [_ascend(objective, x, maxiter, fatol, xatol)
            for value, x in ranked[:top] if value > _PENALTY / 2]


def optimize_criterion(w: WignerField, which: str,
                       spec: QuadratureSpec | None = None) -> OptimizationResult:
    """Maximize the violation of one slice criterion over transform and theta.

    which is "C1", "C2" (maximize value minus bound) or "C3" (minimize the
    value; theta does not appear and best_theta comes back None).  Search runs
    at a reduced quadrature order; the returned report re-evaluates the winner
    at the full order, and best_value is that report's value.
    """
    if which not in ("C1", "C2", "C3"):
        raise ValueError(f"which must be C1, C2 or C3, got {which!r}")
    base = spec if spec is not None else QuadratureSpec()
    search_spec = replace(base, order=min(base.order, _SEARCH_ORDER))
    report_spec = replace(base, order=max(base.order, _REPORT_ORDER))

    axes = [_ANGLE_SEEDS, _ANGLE_SEEDS, _LOGT_SEEDS, _OFFSET_SEEDS, _OFFSET_SEEDS]
    if which != "C3":
        axes.append(_THETA_SEEDS)
    seeds = [np.asarray(seed, dtype=float) for seed in itertools.product(*axes)]

    def branch(reflect: bool):
        def at(vec) -> float:
            if _clamped(vec, which):
                return _PENALTY
            return _objective(_evaluate(w, which, vec, reflect, search_spec), which)
        return at

    # Both branches are scored before either is refined; the trace lists the
    # objectives in that evaluation order.
    branches = {reflect: branch(reflect) for reflect in (False, True)}
    scored = {reflect: [(f(seed), seed) for seed in seeds] for reflect, f in branches.items()}
    refined = {reflect: _refine_top(f, scored[reflect], _TOP_K, _MAX_ITER, 1e-9)
               for reflect, f in branches.items()}
    candidates = [(value, reflect, vec) for runs in (scored, refined)
                  for reflect in (False, True) for value, vec in runs[reflect]]

    ranked = sorted(candidates, key=lambda item: -item[0])
    best_obj = ranked[0][0]
    _, best_reflect, best_vec = next(
        (c for c in ranked if c[1] and best_obj - c[0] <= 1e-12), ranked[0])

    # Restarting from the incumbent re-inflates the simplex, which rescues
    # runs that collapsed early on a flat ridge.
    polished, polished_vec = _ascend(branches[best_reflect], best_vec, _MAX_ITER, 1e-10)
    if polished > best_obj:
        best_vec = polished_vec

    report = _evaluate(w, which, best_vec, best_reflect, report_spec)
    objectives = [c[0] for c in candidates] + [polished, _objective(report, which)]
    best_param = SymplecticParam(phi1=float(best_vec[0]), phi2=float(best_vec[1]),
                                 t=math.exp(float(best_vec[2])), reflect=best_reflect)
    best_theta = None if which == "C3" else float(best_vec[5])
    return OptimizationResult(best_param=best_param, best_theta=best_theta,
                              best_value=report.value, report=report,
                              trace=tuple(enumerate(objectives)),
                              restarts=len(refined[False]) + len(refined[True]) + 1)


def optimize_purity(w: WignerField,
                    spec: QuadratureSpec | None = None) -> CriterionReport:
    """Maximize the output-mode purity over the mixing angle.

    The transform inside the criterion is fixed (the p-reflection), so only
    theta is searched: Nelder-Mead from the best of a handful of angle seeds,
    clamped to (0, pi).  Nelder-Mead revisits angles, so reports are kept.
    """
    reports: dict[float, CriterionReport] = {}

    def value(v) -> float:
        theta = float(v[0])
        if not 1e-3 < theta < math.pi - 1e-3:
            return _PENALTY
        if theta not in reports:
            reports[theta] = purity_s1(w, theta, spec)
        return reports[theta].value

    scored = [(value(seed), seed) for seed in map(np.atleast_1d, (
        math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6))]
    refined = _refine_top(value, scored, 1, 200, 1e-12, 1e-10)
    _, best = max(scored + refined, key=lambda item: item[0])
    return reports[float(best[0])]


def _local_maxima(slc, box, n: int = 41):
    xs = np.linspace(box.cx - box.hx, box.cx + box.hx, n)
    ps = np.linspace(box.cp - box.hp, box.cp + box.hp, n)
    gx, gp = np.meshgrid(xs, ps, indexing="ij")
    vals = np.abs(np.asarray(slc.evaluate(gx, gp), dtype=float))
    padded = np.pad(vals, 1, constant_values=-np.inf)
    around = sliding_window_view(padded, (3, 3)).max(axis=(2, 3))
    peaks = [(vals[i, j], float(xs[i]), float(ps[j]))
             for i, j in zip(*np.nonzero((vals >= around) & (vals > 1e-12)))]
    peaks.sort(key=lambda item: -item[0])
    return peaks


def _cap_to_disjoint(disks: list[list[float]]) -> None:
    for i in range(len(disks)):
        for j in range(i):
            dist = math.hypot(disks[i][0] - disks[j][0], disks[i][1] - disks[j][1])
            excess = disks[i][2] + disks[j][2] - dist
            if excess > 0.0:
                disks[i][2] = max(disks[i][2] - excess, 0.05)


def shrink_region(w: WignerField, t: Transform2, theta: float,
                  spec: QuadratureSpec | None = None) -> Region:
    """Smallest disk-union region still violating criterion II at (t, theta).

    Starts from the full-plane violation (raises NotViolatedError without
    one), grows disks greedily from the tallest local maxima of |slice| until
    the region integral clears the bound by twice its error estimate, then
    repeatedly trims individual disk radii by 5% while the violation holds.
    """
    full = criterion2(w, t, theta, FULL_PLANE, spec)
    if not full.violated:
        raise NotViolatedError(
            "criterion II is not violated on the full plane at this transform")
    bound = full.bound

    slc = make_slice(w, t, theta)
    peaks = _local_maxima(slc, slc.box)
    if not peaks:
        raise NotViolatedError("slice has no usable local maxima")

    def clears(disks) -> bool:
        region = disk_union(*[(d[0], d[1], d[2]) for d in disks])
        res = criterion2(w, t, theta, region, spec)
        return res.value > bound + 2.0 * res.error_estimate

    disks: list[list[float]] = []
    pending = list(peaks)
    for _ in range(60):
        if disks and clears(disks):
            break
        if pending:
            _, px, pp = pending.pop(0)
            free = min((math.hypot(px - d[0], pp - d[1]) - d[2] for d in disks),
                       default=math.inf)
            radius = min(0.8, free - 0.05)
            if radius >= 0.1:
                disks.append([px, pp, radius])
            continue
        for d in disks:
            d[2] *= 1.2
        _cap_to_disjoint(disks)
    else:
        raise NotViolatedError("region growth failed to recover the violation")

    changed = True
    while changed:
        changed = False
        for d in disks:
            if d[2] <= 0.05:
                continue
            old = d[2]
            d[2] = old * 0.95
            if clears(disks):
                changed = True
            else:
                d[2] = old
    return disk_union(*[(d[0], d[1], d[2]) for d in disks])


def _alphas(vec) -> tuple[complex, ...]:
    return tuple(complex(vec[k], vec[k + 1]) for k in (0, 2, 4, 6))


def maximize_bell(w: WignerField, seed: int = 7,
                  extra_starts: int = 16) -> tuple[float, tuple[complex, ...]]:
    """Best CHSH value found over the four complex displacements.

    Seeds exploit the structure of the near-optimal settings (pairs of equal,
    purely imaginary displacements) plus a small random cloud, then refines
    with Nelder-Mead over the eight real coordinates.
    """
    starts = [np.zeros(8)]
    for v in (0.2, 0.5, 0.8, -0.2, -0.5, -0.8):
        for u in (0.0, 0.3, -0.3):
            starts.append(np.array([0.0, u, 0.0, v, 0.0, u, 0.0, v]))
            starts.append(np.array([0.0, v, 0.0, u, 0.0, u, 0.0, v]))
    rng = np.random.default_rng(seed)
    for _ in range(extra_starts):
        starts.append(rng.normal(scale=0.5, size=8))

    def value(vec) -> float:
        return bell_chsh(w, _alphas(vec)).value

    scored = [(value(start), start) for start in starts]
    refined = _refine_top(value, scored, 6, 400, 1e-10)
    best_val, best_vec = max(scored + refined, key=lambda item: item[0])
    return best_val, _alphas(best_vec)
