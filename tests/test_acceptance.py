"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line naming the guarantee so a full
run doubles as a sign-off report.  Budgets are asserted where a guarantee
carries one.
"""

import csv
import io
import math
import subprocess
import sys
import time

import numpy as np

from pathlib import Path

import refvals

from wigner_witness import (
    CatParams, FockDensityMatrix, GaussianTwoMode, QuadratureSpec,
    SymplecticParam, TmstParams, WernerParams,
    criterion1, criterion2, criterion3, fock_wigner, gaussian_wigner,
    make_slice, maximize_bell, mixture_wigner, optimize_criterion,
    optimize_purity, ppt_check, purity_s1, reduced_mode_wigner, shrink_region,
    state_to_fock, state_to_wigner, symplectic_from_params, tmsv_covariance,
)
from wigner_witness.core import PRESETS
from wigner_witness.oracle import displaced_parity_point

P_REFLECT = PRESETS["p-reflect"]
NEG_IDENTITY = PRESETS["neg-identity"]
PKG_ROOT = Path(__file__).resolve().parents[1]
RUNNER = [sys.executable, "-c",
          "import sys; from wigner_witness.cli import main; sys.exit(main(sys.argv[1:]))"]


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    return ok


def _bisect(detect, lo: float, hi: float, iters: int = 14) -> float:
    assert detect(hi) and not detect(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if detect(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_tmsv_slice_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for s in (0.1, 0.5, 1.0):
        rep = criterion1(gaussian_wigner(tmsv_covariance(s)), P_REFLECT,
                         math.pi / 4)
        worst = max(worst, abs(rep.value - refvals.tmsv_slice_value(s)))
        assert rep.violated
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    assert _verdict("squeezed-vacuum slice value", ok,
                    f"worst |value - e^(2s)/(2pi)| = {worst:.2e}, {elapsed:.2f}s")


def test_tmst_boundary_grid():
    start = time.perf_counter()
    proc = subprocess.run(
        RUNNER + ["sweep", "--config", str(PKG_ROOT / "configs" / "tmst_boundary.cfg")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 900
    etas = sorted({float(r["eta"]) for r in rows})
    step = etas[1] - etas[0]
    columns: dict[float, list] = {}
    for row in rows:
        columns.setdefault(float(row["r"]), []).append(row)

    worst_c1 = worst_simon = 0.0
    disagreements = 0
    for r, col in columns.items():
        col.sort(key=lambda row: float(row["eta"]))
        target = math.tanh(r) ** 2
        for key, tracker in (("c1_violated", "c1"), ("simon_violated", "simon")):
            first = next(float(row["eta"]) for row in col if row[key] == "true")
            miss = abs(first - max(target, etas[0]))
            if tracker == "c1":
                worst_c1 = max(worst_c1, miss)
            else:
                worst_simon = max(worst_simon, miss)
        for row in col:
            if abs(float(row["simon_value"])) > 1e-4:
                disagreements += row["c1_violated"] != row["simon_violated"]
    elapsed = time.perf_counter() - start
    ok = (worst_c1 <= step + 1e-12 and worst_simon <= step + 1e-12
          and disagreements == 0 and elapsed < 600.0)
    assert _verdict(
        "squeezed-thermal boundary tracks eta = tanh(r)^2", ok,
        f"boundary miss c1 {worst_c1:.4f} / simon {worst_simon:.4f} "
        f"(grid step {step:.4f}), disagreements {disagreements}, {elapsed:.0f}s")


def test_gaussian_optimum_closed_form():
    rng = np.random.default_rng(20260819)
    bound = 1.0 / (2.0 * math.pi)
    worst = 0.0
    mismatches = 0
    for k in range(20):
        want = k % 2 == 0
        while True:
            g, (n, m, c1, c2) = refvals.random_standard_form(
                rng, symmetric_c=False, want_entangled=want)
            imax = refvals.gaussian_imax(n, m, c1, c2)
            if abs(imax - bound) > 2e-4:
                break
        res = optimize_criterion(gaussian_wigner(g), "C1")
        worst = max(worst, abs(res.report.value - imax))
        mismatches += res.report.violated != refvals.gaussian_entangled(n, m, c1, c2)
    ok = worst <= 1e-4 and mismatches == 0
    assert _verdict("optimizer reaches the Gaussian closed-form maximum", ok,
                    f"worst |optimum - closed form| = {worst:.2e}, "
                    f"verdict mismatches {mismatches}/20")


def test_werner_thresholds():
    start = time.perf_counter()

    def c1_flip(eps):
        w = state_to_wigner(WernerParams(bell="phi+", epsilon=eps))
        return criterion1(w, P_REFLECT, math.pi / 4).violated

    def c2_flip(eps):
        w = state_to_wigner(WernerParams(bell="phi+", epsilon=eps))
        return criterion2(w, P_REFLECT, math.pi / 4).violated

    def c3_flip(eps):
        w = state_to_wigner(WernerParams(bell="psi+", epsilon=eps))
        return criterion3(w, NEG_IDENTITY).violated

    def ppt_flip(eps):
        return ppt_check(state_to_fock(WernerParams(bell="phi+", epsilon=eps))).violated

    found = {name: _bisect(flip, 0.0, 1.0)
             for name, flip in (("c1", c1_flip), ("c2", c2_flip),
                                ("c3", c3_flip), ("ppt", ppt_flip))}
    elapsed = time.perf_counter() - start
    worst = max(abs(v - refvals.WERNER_THRESHOLD) for v in found.values())
    ok = worst <= 1e-3 and elapsed < 60.0
    assert _verdict(
        "Werner mixing thresholds sit at 1/3", ok,
        ", ".join(f"{k} {v:.5f}" for k, v in found.items()) + f", {elapsed:.1f}s")


def test_cat_values_and_thresholds():
    start = time.perf_counter()
    spec = QuadratureSpec(order=160)
    worst_c1 = worst_c3 = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for eps in (0.25, 0.5, 1.0):
            plus = state_to_wigner(CatParams(gamma=gamma, epsilon=eps, sign="plus"))
            rep1 = criterion1(plus, P_REFLECT, math.pi / 4, spec)
            worst_c1 = max(worst_c1, abs(rep1.value - refvals.cat_c1_value(gamma, eps)))
            minus = state_to_wigner(CatParams(gamma=gamma, epsilon=eps, sign="minus"))
            rep3 = criterion3(minus, NEG_IDENTITY, spec)
            worst_c3 = max(worst_c3, abs(rep3.value - refvals.cat_c3_value(gamma, eps)))

    worst_thr = 0.0
    for gamma in (0.5, 1.0, 2.0):
        def flip(eps, gamma=gamma):
            w = state_to_wigner(CatParams(gamma=gamma, epsilon=eps, sign="minus"))
            return criterion3(w, NEG_IDENTITY, spec).violated

        thr = _bisect(flip, 0.0, 1.0)
        worst_thr = max(worst_thr, abs(thr - refvals.cat_c3_threshold(gamma)))
    elapsed = time.perf_counter() - start
    ok = worst_c1 <= 1e-6 and worst_c3 <= 1e-6 and worst_thr <= 1e-3 and elapsed < 120.0
    assert _verdict(
        "dephased-cat values and thresholds", ok,
        f"worst c1 {worst_c1:.2e}, worst c3 {worst_c3:.2e}, "
        f"worst threshold miss {worst_thr:.2e}, {elapsed:.1f}s")


def test_summed_mode_identity():
    states = [
        state_to_wigner(TmstParams(s=0.5)),
        state_to_wigner(TmstParams(s=0.4, eta=0.7, r=0.3)),
        state_to_wigner(WernerParams(bell="psi+", epsilon=0.8)),
        state_to_wigner(CatParams(gamma=1.0, epsilon=0.3, sign="minus")),
        state_to_wigner(CatParams(gamma=0.8, epsilon=0.6, sign="plus")),
    ]
    worst = 0.0
    for w in states:
        value = criterion3(w, NEG_IDENTITY).value
        half = 0.5 * reduced_mode_wigner(w, math.pi / 4, NEG_IDENTITY)(0.0, 0.0).value
        worst = max(worst, abs(value - half))
    ok = worst <= 1e-7
    assert _verdict("diagonal integral halves the summed-mode value", ok,
                    f"worst |C3 - W/2| = {worst:.2e} over {len(states)} states")


def test_purity_maximum():
    rng = np.random.default_rng(7120)
    worst = 0.0
    mismatches = 0
    for k in range(10):
        want = k % 2 == 0
        while True:
            g, (n, m, c1, _) = refvals.random_standard_form(
                rng, symmetric_c=True, want_entangled=want)
            pmax = refvals.purity_max(n, m, c1)
            if abs(pmax - 1.0) > 2e-4:
                break
        rep = optimize_purity(gaussian_wigner(g))
        worst = max(worst, abs(rep.value - pmax))
        mismatches += rep.violated != refvals.purity_entangled(n, m, c1)
    ok = worst <= 1e-6 and mismatches == 0
    assert _verdict("output-mode purity maximum", ok,
                    f"worst |optimum - closed form| = {worst:.2e}, "
                    f"verdict mismatches {mismatches}/10")


def test_engine_cross_validation():
    axis = np.linspace(-2.0, 2.0, 5)
    grid = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    worst_grid = 0.0
    for s in (0.5, 1.0):
        ref = gaussian_wigner(tmsv_covariance(s))
        fock = fock_wigner(state_to_fock(TmstParams(s=s), cutoff=30))
        worst_grid = max(worst_grid, float(np.max(np.abs(
            ref.evaluate(*grid) - fock.evaluate(*grid)))))

    rho = state_to_fock(WernerParams(bell="phi+", epsilon=0.7), cutoff=16)
    field = fock_wigner(rho)
    rng = np.random.default_rng(11)
    worst_oracle = 0.0
    for pt in rng.uniform(-2, 2, size=(20, 4)):
        worst_oracle = max(worst_oracle, abs(
            float(field.evaluate(*pt)) - displaced_parity_point(rho, pt)))
    ok = worst_grid < 1e-6 and worst_oracle < 1e-9
    assert _verdict(
        "closed-form and Fock engines agree", ok,
        f"625-point grid {worst_grid:.2e}, displaced-parity points {worst_oracle:.2e}")


def test_bell_thresholds():
    start = time.perf_counter()
    found = {}
    for bell, target in (("phi+", refvals.BELL_EPS_MIN_PHI),
                         ("psi+", refvals.BELL_EPS_MIN_PSI)):
        def flip(eps, bell=bell):
            w = state_to_wigner(WernerParams(bell=bell, epsilon=eps))
            best, _ = maximize_bell(w)
            return best > 2.0 + 1e-8

        found[bell] = _bisect(flip, 0.8, 1.0, iters=12)
    elapsed = time.perf_counter() - start
    ok = (found["phi+"] <= refvals.BELL_EPS_MIN_PHI + 5e-3
          and found["psi+"] <= refvals.BELL_EPS_MIN_PSI + 5e-3
          and found["phi+"] >= refvals.BELL_EPS_MIN_PHI - 5e-3
          and found["psi+"] >= refvals.BELL_EPS_MIN_PSI - 5e-3
          and elapsed < 600.0)
    assert _verdict(
        "smallest Bell-violating Werner weights", ok,
        f"phi+ {found['phi+']:.5f} (target {refvals.BELL_EPS_MIN_PHI}), "
        f"psi+ {found['psi+']:.5f} (target {refvals.BELL_EPS_MIN_PSI}), {elapsed:.0f}s")


def _single_mode_cov(rng) -> np.ndarray:
    phi = rng.uniform(0, math.pi)
    z = rng.uniform(0, 0.5)
    nu = 1.0 + abs(rng.normal(0, 0.6))
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([nu * math.exp(2 * z), nu * math.exp(-2 * z)]) @ rot.T


def _separable_gaussian(rng):
    k = int(rng.integers(1, 4))
    fields, weights = [], rng.dirichlet(np.ones(k))
    for _ in range(k):
        cov = np.zeros((4, 4))
        cov[:2, :2] = _single_mode_cov(rng)
        cov[2:, 2:] = _single_mode_cov(rng)
        fields.append(gaussian_wigner(
            GaussianTwoMode(mean=rng.normal(0, 1.5, size=4), cov=cov)))
    return mixture_wigner(fields, weights) if k > 1 else fields[0]


def _product_fock(na: int, nb: int, cutoff: int = 6) -> FockDensityMatrix:
    vec = np.zeros(cutoff * cutoff)
    vec[na * cutoff + nb] = 1.0
    return FockDensityMatrix(matrix=np.outer(vec, vec), cutoff=cutoff)


def _draw_transform(rng):
    while True:
        theta = rng.uniform(0.15, math.pi - 0.15)
        if abs(math.sin(2 * theta)) >= 0.1:
            break
    param = SymplecticParam(rng.uniform(0, math.pi), rng.uniform(0, math.pi),
                            math.exp(rng.uniform(-0.6, 0.6)), bool(rng.integers(2)))
    return symplectic_from_params(param, rng.normal(), rng.normal()), theta


def test_no_false_positives():
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    draws = [_draw_transform(rng) for _ in range(50)]
    fock_spec = QuadratureSpec(rule="adaptive-subdivision", tolerance=1e-3)

    violations = 0
    checked = 0
    for _ in range(490):
        w = _separable_gaussian(rng)
        for t, theta in draws:
            reports = (criterion1(w, t, theta), criterion2(w, t, theta),
                       criterion3(w, t), purity_s1(w, theta))
            violations += sum(bool(r.violated) for r in reports)
            checked += len(reports)
    # Wigner negativity without entanglement: the sharpest separable inputs.
    fock_labels = [(na, nb) for na in range(3) for nb in range(3)] + [(3, 1)]
    for na, nb in fock_labels:
        w = fock_wigner(_product_fock(na, nb))
        for t, theta in draws:
            reports = (criterion1(w, t, theta),
                       criterion2(w, t, theta, spec=fock_spec),
                       criterion3(w, t), purity_s1(w, theta))
            violations += sum(bool(r.violated) for r in reports)
            checked += len(reports)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 1200.0
    assert _verdict(
        "no separable state violates any criterion", ok,
        f"{violations} violations in {checked} checks "
        f"(500 states x 50 draws), {elapsed:.0f}s")


def test_region_shrinking():
    w = state_to_wigner(CatParams(gamma=2.0, epsilon=1.0, sign="plus"))
    theta = math.pi / 4
    region = shrink_region(w, P_REFLECT, theta)
    assert region.kind == "disk-union"
    box = make_slice(w, P_REFLECT, theta).box
    box_area = 4.0 * box.hx * box.hp
    disk_area = sum(math.pi * r * r for _, _, r in region.disks)
    rep = criterion2(w, P_REFLECT, theta, region=region)
    ok = (disk_area < 0.6 * box_area
          and rep.value > 1.0 / (4.0 * math.pi)
          and rep.value > rep.bound + rep.error_estimate
          and rep.violated)
    assert _verdict(
        "violation survives on a shrunken disk union", ok,
        f"{len(region.disks)} disks cover {disk_area / box_area:.1%} of the box, "
        f"re-integrated value {rep.value:.6f} > 1/(4pi) = {1/(4*math.pi):.6f}")


def test_determinism():
    args = RUNNER + ["evaluate", "--state", "tmsv", "--s", "0.3",
                     "--criterion", "c1", "--transform", "optimize"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    identical = first.stdout == second.stdout

    cases = [
        ("cat+ c1", state_to_wigner(CatParams(gamma=1.0, epsilon=0.5, sign="plus")),
         lambda w, spec: criterion1(w, P_REFLECT, math.pi / 4, spec)),
        ("cat- c3", state_to_wigner(CatParams(gamma=1.0, epsilon=0.3, sign="minus")),
         lambda w, spec: criterion3(w, NEG_IDENTITY, spec)),
        ("cat2 c1", state_to_wigner(CatParams(gamma=2.0, epsilon=1.0, sign="plus")),
         lambda w, spec: criterion1(w, P_REFLECT, math.pi / 4, spec)),
        ("werner c1", state_to_wigner(WernerParams(bell="phi+", epsilon=0.5)),
         lambda w, spec: criterion1(w, P_REFLECT, math.pi / 4, spec)),
        ("werner c3", state_to_wigner(WernerParams(bell="psi+", epsilon=0.8)),
         lambda w, spec: criterion3(w, NEG_IDENTITY, spec)),
    ]
    covered = True
    worst_ratio = 0.0
    for _, w, run in cases:
        base = run(w, QuadratureSpec(order=80))
        double = run(w, QuadratureSpec(order=160))
        drift = abs(double.value - base.value)
        covered = covered and drift < base.error_estimate
        worst_ratio = max(worst_ratio, drift / base.error_estimate)
    ok = identical and covered
    assert _verdict(
        "byte-identical reruns and order-doubling stays within estimates", ok,
        f"rerun identical: {identical}, worst drift/estimate = {worst_ratio:.3f}")
