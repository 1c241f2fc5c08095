"""Search over transforms and mixing angles for maximal criterion violation.

The slice criteria leave the transform (x, p) -> (x', p') and the angle theta
free, so certifying a state means searching a six-parameter space: two
rotation angles and a log squeezing parameter for the matrix, two offsets,
and theta, doubled over the reflection branch det = +/-1.  The objective is
smooth but multimodal (cat-state fringes), so the optimizer is a coarse seed
lattice followed by Nelder-Mead refinement of the best seeds per branch; it
is best-effort and reports its trace rather than claiming global optimality.

shrink_region answers the complementary question for criterion II: once a
(transform, theta) pair violates on the full plane, how small can the
integration region be while still certifying?  Disks are grown greedily from
the local maxima of |slice| and then trimmed until 5% radius cuts would lose
the violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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

    seeds = []
    for phi1 in _ANGLE_SEEDS:
        for phi2 in _ANGLE_SEEDS:
            for logt in _LOGT_SEEDS:
                for x0 in _OFFSET_SEEDS:
                    for p0 in _OFFSET_SEEDS:
                        if which == "C3":
                            seeds.append((phi1, phi2, logt, x0, p0))
                        else:
                            seeds.extend((phi1, phi2, logt, x0, p0, theta)
                                         for theta in _THETA_SEEDS)

    def objective_at(vec, reflect: bool) -> float:
        if _clamped(vec, which):
            return _PENALTY
        return _objective(_evaluate(w, which, vec, reflect, search_spec), which)

    trace: list[tuple[int, float]] = []
    candidates: list[tuple[float, bool, np.ndarray]] = []
    index = 0
    per_branch: dict[bool, list[tuple[float, np.ndarray]]] = {False: [], True: []}
    for reflect in (False, True):
        for seed in seeds:
            vec = np.asarray(seed, dtype=float)
            obj = objective_at(vec, reflect)
            trace.append((index, obj))
            index += 1
            per_branch[reflect].append((obj, vec))
            candidates.append((obj, reflect, vec))

    restarts = 0
    for reflect in (False, True):
        ranked = sorted(per_branch[reflect], key=lambda item: -item[0])
        for obj, vec in ranked[:_TOP_K]:
            if obj <= _PENALTY / 2:
                continue
            res = minimize(lambda v: -objective_at(v, reflect), vec,
                           method="Nelder-Mead",
                           options={"maxiter": _MAX_ITER, "fatol": 1e-9,
                                    "xatol": 1e-9, "disp": False})
            restarts += 1
            refined = float(-res.fun)
            trace.append((index, refined))
            index += 1
            candidates.append((refined, reflect, np.asarray(res.x, dtype=float)))

    candidates.sort(key=lambda item: -item[0])
    best_obj, best_reflect, best_vec = candidates[0]
    if not best_reflect:
        for obj, reflect, vec in candidates:
            if reflect and best_obj - obj <= 1e-12:
                best_reflect, best_vec = reflect, vec
                break

    # Restarting from the incumbent re-inflates the simplex, which rescues
    # runs that collapsed early on a flat ridge.
    polish = minimize(lambda v: -objective_at(v, best_reflect), best_vec,
                      method="Nelder-Mead",
                      options={"maxiter": _MAX_ITER, "fatol": 1e-10,
                               "xatol": 1e-10, "disp": False})
    restarts += 1
    polished = float(-polish.fun)
    trace.append((index, polished))
    index += 1
    if polished > best_obj:
        best_vec = np.asarray(polish.x, dtype=float)

    report = _evaluate(w, which, best_vec, best_reflect, report_spec)
    trace.append((index, _objective(report, which)))
    best_param = SymplecticParam(phi1=float(best_vec[0]), phi2=float(best_vec[1]),
                                 t=math.exp(float(best_vec[2])), reflect=best_reflect)
    best_theta = None if which == "C3" else float(best_vec[5])
    return OptimizationResult(best_param=best_param, best_theta=best_theta,
                              best_value=report.value, report=report,
                              trace=tuple(trace), restarts=restarts)


def optimize_purity(w: WignerField,
                    spec: QuadratureSpec | None = None) -> CriterionReport:
    """Maximize the output-mode purity over the mixing angle.

    The transform inside the criterion is fixed (the p-reflection), so only
    theta is searched: Nelder-Mead from a handful of angle seeds, clamped to
    (0, pi).
    """
    def value(theta: float) -> float:
        if not 1e-3 < theta < math.pi - 1e-3:
            return _PENALTY
        return purity_s1(w, theta, spec).value

    best_theta = max((math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2,
                      2 * math.pi / 3, 5 * math.pi / 6), key=value)
    res = minimize(lambda v: -value(float(v[0])), np.array([best_theta]),
                   method="Nelder-Mead",
                   options={"maxiter": 200, "fatol": 1e-12, "xatol": 1e-10,
                            "disp": False})
    if -res.fun > value(best_theta):
        best_theta = float(res.x[0])
    return purity_s1(w, best_theta, spec)


def _local_maxima(slc, box, n: int = 41):
    xs = np.linspace(box.cx - box.hx, box.cx + box.hx, n)
    ps = np.linspace(box.cp - box.hp, box.cp + box.hp, n)
    gx, gp = np.meshgrid(xs, ps, indexing="ij")
    vals = np.abs(np.asarray(slc.evaluate(gx, gp), dtype=float))
    peaks = []
    for i in range(n):
        for j in range(n):
            v = vals[i, j]
            lo_i, hi_i = max(i - 1, 0), min(i + 2, n)
            lo_j, hi_j = max(j - 1, 0), min(j + 2, n)
            if v >= vals[lo_i:hi_i, lo_j:hi_j].max() and v > 1e-12:
                peaks.append((v, float(xs[i]), float(ps[j])))
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
        alphas = (complex(vec[0], vec[1]), complex(vec[2], vec[3]),
                  complex(vec[4], vec[5]), complex(vec[6], vec[7]))
        return bell_chsh(w, alphas).value

    scored = sorted(starts, key=lambda v: -value(v))
    best_val, best_vec = value(scored[0]), scored[0]
    for start in scored[:6]:
        res = minimize(lambda v: -value(v), start, method="Nelder-Mead",
                       options={"maxiter": 400, "fatol": 1e-10, "xatol": 1e-10,
                                "disp": False})
        if -res.fun > best_val:
            best_val, best_vec = float(-res.fun), np.asarray(res.x)
    alphas = (complex(best_vec[0], best_vec[1]), complex(best_vec[2], best_vec[3]),
              complex(best_vec[4], best_vec[5]), complex(best_vec[6], best_vec[7]))
    return best_val, alphas
