"""Workload inputs, operations and output checks.

`make_inputs(name, seed)` turns a seed into a list of plain, JSON-able input
specs; it never touches the library, so the same seed gives byte-identical
inputs on any commit.  `build(name, specs, ww, root, env, cold)` turns the
specs into operations: each `Op` calls the public API once (or runs one CLI
command) and carries a check that compares the output with an independent
reference from `refs`.  The spec list is one cycle of the closed loop; the
worker repeats whole cycles.

Continuous parameters are drawn by stratified sampling (one draw per equal
slice of the range), so every seed covers each range the same way and the
per-cycle cost and failure share do not swing with the seed.  fock's C2 ops
are the exception: they keep the fixed draws of test_no_false_positives.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from statistics import NormalDist
from pathlib import Path
from typing import Any, Callable

import numpy as np

import refs

WORKLOADS = ("optimize-gauss", "slice-quad", "fock", "cli-cold")
QUARTER = math.pi / 4
SIMON_GATE = 1e-4           # verdicts are compared only outside this band
CLI_RUNNER = "import sys; from wigner_witness.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class Op:
    kind: str
    spec: dict
    run: Callable[[], Any]
    check: Callable[[Any], str | None]    # None when the output is right, else why not


# ---------------------------------------------------------------------------
# inputs


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _strata(rng, n: int, lo: float, hi: float) -> list[float]:
    vals = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
    return [float(v) for v in rng.permutation(vals)]


def _grid(rng, n1: int, n2: int, lo1: float, hi1: float, lo2: float, hi2: float):
    """One draw per cell of an n1 x n2 grid: pairs whose joint spread is fixed."""
    i, j = np.divmod(rng.permutation(n1 * n2), n2)
    a = lo1 + (hi1 - lo1) * (i + rng.random(n1 * n2)) / n1
    b = lo2 + (hi2 - lo2) * (j + rng.random(n1 * n2)) / n2
    return [(float(x), float(y)) for x, y in zip(a, b)]


def _away_from(values: list[float], centre: Callable[[int], float], gap: float = 0.02) -> list[float]:
    """Move draws that land within gap of a threshold, where the exact verdict flips."""
    out = []
    for i, v in enumerate(values):
        c = centre(i)
        if abs(v - c) < gap:
            v = c + gap if v >= c else max(0.0, c - gap)
        out.append(v)
    return out


def _optimize_inputs(rng) -> list[dict]:
    r, eta = _strata(rng, 32, 0.05, 1.5), _strata(rng, 32, 0.02, 1.0)
    tmst = [{"family": "tmst", "s": 0.5, "eta": eta[i], "r": r[i]} for i in range(32)]
    forms = []
    while len(forms) < 27:
        n, m = 1 + rng.uniform(0.05, 1.8), 1 + rng.uniform(0.05, 1.8)
        c1, c2 = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
        if refs.physical(n, m, c1, c2) and abs(refs.c1_max(n, m, c1, c2) - refs.C1_BOUND) > 2e-4:
            forms.append({"family": "gaussian", "n": float(n), "m": float(m),
                          "c1": float(c1), "c2": float(c2)})
    c1_ops = [dict(s, op="C1-opt") for s in tmst[:24] + forms[:24]]
    rng.shuffle(c1_ops)
    minority = [dict(x, op="C3-opt") for x in tmst[24:27] + forms[24:27]] \
        + [dict(x, op="purity-opt") for x in tmst[27:32]]
    rng.shuffle(minority)
    # Rounds of four or five C1 searches, each followed by one minority op.
    chunks = np.array_split(np.arange(len(c1_ops)), len(minority))
    return [x for chunk, extra in zip(chunks, minority) for x in [c1_ops[i] for i in chunk] + [extra]]


def _slice_inputs(rng) -> list[dict]:
    # Draws per op family.  Every other draw is also run at order 160, so the
    # sub-millisecond order-80 ops stay the majority and the median lies
    # inside their cluster; the nested purity calls stay a minority of time.
    N = 384
    specs: list[dict] = []

    def both_orders(draws, op, family):
        for i, (g, e) in enumerate(draws):
            base = {"op": op, "family": family, "epsilon": e}
            if g is not None:
                base["gamma"] = g
            specs.extend(dict(base, order=o) for o in ((80, 160) if i % 2 else (80,)))

    both_orders(zip(_strata(rng, N, 0.5, 6.0), _strata(rng, N, 0.05, 1.0)), "C1", "cat-plus")
    gammas = _strata(rng, N, 0.5, 6.0)
    eps = _away_from(_strata(rng, N, 0.0, 1.0), lambda i: refs.cat_c3_threshold(gammas[i]))
    both_orders(zip(gammas, eps), "C3", "cat-minus")
    for op, bell in (("C1", "werner-phi+"), ("C3", "werner-psi+")):
        eps = _away_from(_strata(rng, N // 2, 0.0, 1.0), lambda i: 1 / 3)
        both_orders([(None, e) for e in eps], op, bell)
    # The adaptive rule's cost depends on gamma and epsilon jointly.
    for g, e in _grid(rng, N // 4, 4, 0.5, 6.0, 0.05, 1.0):
        specs.append({"op": "C2-full", "family": "cat-minus", "gamma": g, "epsilon": e})
    for g, e, r1, r2 in zip(_strata(rng, N, 0.8, 3.0), _strata(rng, N, 0.05, 1.0),
                            _strata(rng, N, 0.8, 1.4), _strata(rng, N, 0.8, 1.4)):
        lobe = 2 * refs.SQRT2 * g
        jx, jp = (float(v) for v in rng.uniform(-0.3, 0.3, 2))
        specs.append({"op": "C2-disks", "family": "cat-plus", "gamma": g, "epsilon": e,
                      "disks": [[lobe + jx, jp, r1], [-lobe, -jp, r2]]})
    for g, e, r1, frac in zip(_strata(rng, N // 2, 0.8, 3.0), _strata(rng, N // 2, 0.05, 1.0),
                              _strata(rng, N // 2, 0.8, 1.4), _strata(rng, N // 2, 0.2, 0.9)):
        lobe = 2 * refs.SQRT2 * g
        jp = float(rng.uniform(-0.3, 0.3))
        specs.append({"op": "C2-overlap", "family": "cat-plus", "gamma": g, "epsilon": e,
                      "disks": [[lobe, 0.0, r1], [lobe + frac * r1, jp, r1]]})
    # The ROADMAP defect table: large cats on the default rule.  Kept on purpose.
    for g in (4.0, 5.0, 6.0):
        for e in (0.0, 1.0):
            specs.append({"op": "C1", "family": "cat-plus", "gamma": g, "epsilon": e, "order": 80})
            specs.append({"op": "C3", "family": "cat-minus", "gamma": g, "epsilon": e, "order": 80})
    for i, (e, th) in enumerate(zip(_strata(rng, 6, 0.2, 1.0), _strata(rng, 6, 0.4, 1.2))):
        specs.append({"op": "purity", "family": ("werner-phi+", "werner-psi+")[i % 2],
                      "epsilon": e, "theta": th})
    return [specs[i] for i in rng.permutation(len(specs))]


def _transforms(rng, n: int) -> list[dict]:
    """n transforms and mixing angles over the ranges of test_no_false_positives."""
    normal = NormalDist()
    theta = _away_from(_strata(rng, n, 0.15, math.pi - 0.15), lambda i: math.pi / 2, 0.051)
    phi1, phi2 = _strata(rng, n, 0.0, math.pi), _strata(rng, n, 0.0, math.pi)
    logt = _strata(rng, n, -0.6, 0.6)
    x0 = [normal.inv_cdf(u) for u in _strata(rng, n, 0.0, 1.0)]
    p0 = [normal.inv_cdf(u) for u in _strata(rng, n, 0.0, 1.0)]
    return [{"phi1": phi1[i], "phi2": phi2[i], "t": math.exp(logt[i]), "reflect": bool(i % 2),
             "x0": x0[i], "p0": p0[i], "theta": theta[i]} for i in range(n)]


def _no_false_positive_draws(n: int) -> list[dict]:
    """The first n transform draws of test_no_false_positives (same generator, same order)."""
    rng = np.random.default_rng(20260819)
    out = []
    for _ in range(n):
        while True:
            theta = float(rng.uniform(0.15, math.pi - 0.15))
            if abs(math.sin(2 * theta)) >= 0.1:
                break
        out.append({"phi1": float(rng.uniform(0, math.pi)), "phi2": float(rng.uniform(0, math.pi)),
                    "t": math.exp(float(rng.uniform(-0.6, 0.6))), "reflect": bool(rng.integers(2)),
                    "x0": float(rng.normal()), "p0": float(rng.normal()), "theta": theta})
    return out


def _fock_inputs(rng) -> list[dict]:
    labels = [(na, nb) for na in range(3) for nb in range(3)] + [(3, 1)]
    specs: list[dict] = []
    # C2 on the adaptive rule is most of this workload's time and memory, and
    # its cost swings tenfold between transforms, so it runs on the test's own
    # fixed draws: the cycle's cost, tail and memory peak then do not move
    # with --seed.  The cheap criteria take seeded draws.
    for i, draw in enumerate(_no_false_positive_draws(6 * len(labels))):
        na, nb = labels[i % len(labels)]
        specs.append({"op": "C2", "na": na, "nb": nb, "cutoff": 6, **draw})
    for i, draw in enumerate(_transforms(rng, 12 * len(labels))):
        na, nb = labels[i % len(labels)]
        specs += [{"op": op, "na": na, "nb": nb, "cutoff": 6, **draw} for op in ("C1", "C3")]
    for i, draw in enumerate(_transforms(rng, 4 * len(labels))):
        na, nb = labels[i % len(labels)]
        specs.append({"op": "purity", "na": na, "nb": nb, "cutoff": 6, **draw})
    for r, eta in zip(_strata(rng, 24, 0.0, 0.6), _strata(rng, 24, 0.05, 1.0)):
        specs.append({"op": "epr-point", "s": 0.3, "eta": eta, "r": r, "cutoff": 24})
    for g, e, c in zip(_strata(rng, 24, 0.5, 2.0), _strata(rng, 24, 0.05, 1.0),
                       _strata(rng, 24, 14.0, 27.0)):
        need = math.ceil(g * g + 6 * g + 10)
        cutoff = max(need + need % 2, int(c) - int(c) % 2)
        sign = "plus" if rng.random() < 0.5 else "minus"
        specs.append({"op": "cat-ppt", "family": f"cat-{sign}", "gamma": g, "epsilon": e,
                      "cutoff": cutoff})
    for s in _strata(rng, 4, 0.3, 1.0):
        specs.append({"op": "crosscheck", "s": s, "cutoff": 30})
    return [specs[i] for i in rng.permutation(len(specs))]


def _cli_inputs(rng) -> list[dict]:
    g = float(rng.uniform(0.8, 1.5))
    lobe = 2 * refs.SQRT2 * g
    disks = [[lobe, 0.0, float(rng.uniform(1.0, 1.5))], [-lobe, 0.0, float(rng.uniform(1.0, 1.5))]]
    eps_w = _away_from([float(rng.uniform(0.0, 1.0))], lambda i: 1 / 3)[0]
    cmds = [
        {"op": "evaluate-c1", "s": float(rng.uniform(0.2, 1.0))},
        {"op": "evaluate-disks", "gamma": g, "epsilon": float(rng.uniform(0.2, 1.0)),
         "disks": disks},
        {"op": "evaluate-optimize", "s": 0.5, "eta": float(rng.uniform(0.3, 1.0)),
         "r": float(rng.uniform(0.05, 0.6))},
        {"op": "evaluate-fock", "epsilon": eps_w},
        {"op": "evaluate-simon", "s": float(rng.uniform(0.2, 1.0)),
         "eta": float(rng.uniform(0.1, 1.0)), "r": float(rng.uniform(0.0, 0.8))},
        {"op": "oracle-ppt", "epsilon": float(rng.uniform(0.0, 1.0))},
    ]
    # Each evaluate/oracle command five times and the shipped sweep once: 31 ops,
    # so the tail percentile keeps 10 samples beyond it inside one cycle.
    return 3 * cmds + [{"op": "sweep", "config": "configs/cat_dephasing.cfg"}] + 2 * cmds


_INPUTS = {"optimize-gauss": _optimize_inputs, "slice-quad": _slice_inputs,
           "fock": _fock_inputs, "cli-cold": _cli_inputs}


def make_inputs(name: str, seed: int) -> list[dict]:
    return _INPUTS[name](_rng(name, seed))


# ---------------------------------------------------------------------------
# checks shared by the library and CLI routes


def check_value(value: float, err: float, exact: float) -> str | None:
    if not abs(value - exact) <= err:
        return f"|value - exact| = {abs(value - exact):.3g} > error_estimate {err:.3g} (exact {exact:.6g})"
    return None


def check_verdict(violated: bool, exact_violated: bool) -> str | None:
    if bool(violated) != exact_violated:
        return f"verdict {'violated' if violated else 'not violated'}, exact says the opposite"
    return None


def check_bracket(value: float, err: float, lo: float, hi: float) -> str | None:
    if not lo - err <= value <= hi + err:
        return f"value {value:.6g} outside [{lo:.6g}, {hi:.6g}] +- error_estimate {err:.3g}"
    return None


def _first(*reasons):
    return next((r for r in reasons if r), None)


SHORTFALL = "optimum short of the closed-form maximum"


def known_defect(spec: dict, reason: str) -> bool:
    """Failures of a known defect are counted and listed but do not mark the
    run incorrect.  There are three:

    - ROADMAP Baseline: a cat state on the quadrature route with gamma >= 2
      aliases on the single 8-sigma box and its error estimate does not see it.
    - Found by this benchmark: on cat- full-plane C2 the adaptive rule's
      estimate can also miss an error of about 1e-9 at smaller gamma.
    - Found by this benchmark: the best-effort optimiser can stop short of the
      closed-form Gaussian maximum by more than 1e-4.  Its verdict is still
      checked, and an optimum above the maximum is not covered.
    """
    if spec["op"] in ("C1-opt", "evaluate-optimize"):
        return reason.startswith(SHORTFALL)
    if spec["op"] == "C2-full":
        return True
    return spec.get("family", "").startswith("cat") and spec.get("gamma", 0.0) >= 2.0 \
        and spec["op"] in ("C1", "C3")


def check_optimum(value: float, violated: bool, form) -> str | None:
    """A C1 search on a Gaussian against the closed-form maximum and the Simon verdict."""
    simon, cmax = refs.simon_value(*form), refs.c1_max(*form)
    return _first(abs(simon) > SIMON_GATE and check_verdict(violated, simon < 0),
                  cmax - value > 1e-4 and f"{SHORTFALL} by {cmax - value:.3g} (max {cmax:.6g})",
                  check_value(value, 1e-4, cmax))


# ---------------------------------------------------------------------------
# library workloads


def _gaussian_state(ww, spec):
    if spec["family"] == "tmst":
        return ww.TmstParams(s=spec["s"], eta=spec["eta"], r=spec["r"]), \
            refs.tmst_standard(spec["s"], spec["eta"], spec["r"])
    form = (spec["n"], spec["m"], spec["c1"], spec["c2"])
    return ww.standard_form(*form), form


def _optimize_ops(ww, specs):
    ops = []
    for spec in specs:
        state, form = _gaussian_state(ww, spec)
        w = ww.state_to_wigner(state)
        if spec["op"] == "C1-opt":
            def check(res, form=form):
                return check_optimum(res.report.value, res.report.violated, form)
            ops.append(Op("C1-opt", spec, lambda w=w: ww.optimize_criterion(w, "C1"), check))
        elif spec["op"] == "C3-opt":
            def check(res):
                rep = res.report
                # A Gaussian Wigner function is nonnegative: C3 can never be violated.
                return _first(rep.violated and "C3 violated on a Gaussian",
                              rep.value < -rep.error_estimate and f"C3 value {rep.value:.3g} < 0")
            ops.append(Op("C3-opt", spec, lambda w=w: ww.optimize_criterion(w, "C3"), check))
        else:
            n, m, c, _ = form

            def check(rep, n=n, m=m, c=c):
                pmax = refs.purity_max(n, m, c)
                return _first(check_value(rep.value, 1e-6, pmax),
                              abs(pmax - 1) > 2e-4
                              and check_verdict(rep.violated, refs.purity_entangled(n, m, c)))
            ops.append(Op("purity-opt", spec, lambda w=w: ww.optimize_purity(w), check))
    return ops


def _slice_field(ww, spec):
    fam = spec["family"]
    if fam.startswith("cat"):
        return ww.state_to_wigner(ww.CatParams(spec["gamma"], spec["epsilon"], fam.split("-")[1]))
    return ww.state_to_wigner(ww.WernerParams(fam.split("-")[1], spec["epsilon"]))


def _slice_exact(spec) -> float:
    fam, e = spec["family"], spec["epsilon"]
    if fam == "cat-plus":
        return refs.cat_c1(spec["gamma"], e)
    if fam == "cat-minus":
        return refs.cat_c3(spec["gamma"], e)
    return refs.werner_c1(e) if fam == "werner-phi+" else refs.werner_c3(e)


def _slice_ops(ww, specs):
    p_reflect, neg_identity = ww.core.PRESETS["p-reflect"], ww.core.PRESETS["neg-identity"]
    ops = []
    for spec in specs:
        w = _slice_field(ww, spec)
        kind = spec["op"]
        if kind in ("C1", "C3"):
            q = ww.QuadratureSpec(order=spec["order"])
            exact = _slice_exact(spec)
            if kind == "C1":
                run = lambda w=w, q=q: ww.criterion1(w, p_reflect, QUARTER, q)
                exact_violated = exact > refs.C1_BOUND
            else:
                run = lambda w=w, q=q: ww.criterion3(w, neg_identity, q)
                exact_violated = exact < 0

            def check(rep, exact=exact, ev=exact_violated):
                return _first(check_value(rep.value, rep.error_estimate, exact),
                              check_verdict(rep.violated, ev))
            ops.append(Op(f"{kind}-{spec['order']}", spec, run, check))
        elif kind == "C2-full":
            lo, hi = refs.slice_abs_bracket(
                refs.cat_slice_terms(spec["gamma"], spec["epsilon"], "minus"))

            def check(rep, lo=lo, hi=hi):
                return _first(check_bracket(rep.value, rep.error_estimate, lo, hi),
                              rep.violated and hi <= rep.bound and "violated above the upper bound")
            ops.append(Op(kind, spec, lambda w=w: ww.criterion2(w, p_reflect, QUARTER), check))
        elif kind in ("C2-disks", "C2-overlap"):
            region = ww.disk_union(*[tuple(d) for d in spec["disks"]])
            terms = refs.cat_slice_terms(spec["gamma"], spec["epsilon"], "plus")
            parts = [refs.slice_disk(terms, *d) for d in spec["disks"]]
            if kind == "C2-disks":
                def check(rep, exact=sum(parts)):
                    return _first(check_value(rep.value, rep.error_estimate, exact),
                                  check_verdict(rep.violated, exact > rep.bound))
            else:
                def check(rep, lo=max(parts), hi=sum(parts)):
                    # The union lies between its largest disk and the sum of both.
                    return _first(check_bracket(rep.value, rep.error_estimate, lo, hi),
                                  rep.violated and hi <= rep.bound and "violated above the upper bound")
            ops.append(Op(kind, spec,
                          lambda w=w, r=region: ww.criterion2(w, p_reflect, QUARTER, r), check))
        else:
            exact = refs.werner_purity(spec["family"].split("-")[1], spec["epsilon"], spec["theta"])

            def check(rep, exact=exact):
                return _first(check_value(rep.value, rep.error_estimate, exact),
                              check_verdict(rep.violated, exact > 1.0))
            ops.append(Op("purity-nested", spec,
                          lambda w=w, th=spec["theta"]: ww.purity_s1(w, th), check))
    return ops


def _product_field(ww, na: int, nb: int, cutoff: int):
    vec = np.zeros(cutoff * cutoff)
    vec[na * cutoff + nb] = 1.0
    return ww.fock_wigner(ww.FockDensityMatrix(matrix=np.outer(vec, vec), cutoff=cutoff))


def _separable(rep) -> str | None:
    if not math.isfinite(rep.value):
        return f"non-finite value {rep.value!r}"
    return rep.violated and f"{rep.criterion_id} violated on a product state" or None


def _fock_ops(ww, specs):
    adaptive = ww.QuadratureSpec(rule="adaptive-subdivision", tolerance=1e-3)
    axis = np.linspace(-2.0, 2.0, 5)
    grid = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    pts = np.stack(grid, axis=-1)
    ops = []
    for spec in specs:
        kind = spec["op"]
        if kind in ("C1", "C2", "C3", "purity"):
            w = _product_field(ww, spec["na"], spec["nb"], spec["cutoff"])
            t = ww.symplectic_from_params(
                ww.SymplecticParam(spec["phi1"], spec["phi2"], spec["t"], spec["reflect"]),
                spec["x0"], spec["p0"])
            th = spec["theta"]
            run = {"C1": lambda w=w, t=t, th=th: ww.criterion1(w, t, th),
                   "C2": lambda w=w, t=t, th=th: ww.criterion2(w, t, th, spec=adaptive),
                   "C3": lambda w=w, t=t: ww.criterion3(w, t),
                   "purity": lambda w=w, th=th: ww.purity_s1(w, th)}[kind]
            ops.append(Op(f"product-{kind}", spec, run, _separable))
        elif kind == "epr-point":
            params = ww.TmstParams(s=spec["s"], eta=spec["eta"], r=spec["r"])

            def run(params=params, cutoff=spec["cutoff"]):
                rho = ww.state_to_fock(params, cutoff)
                return ww.pseudospin_epr(rho), ww.ppt_check(rho)

            def check(out, simon=refs.simon_value(*refs.tmst_standard(spec["s"], spec["eta"], spec["r"]))):
                epr, ppt = out
                return _first(abs(simon) > SIMON_GATE and check_verdict(ppt.violated, simon < 0),
                              epr.violated and simon >= 0 and "EPR steering without entanglement")
            ops.append(Op(kind, spec, run, check))
        elif kind == "cat-ppt":
            params = ww.CatParams(spec["gamma"], spec["epsilon"], spec["family"].split("-")[1])

            def check(rep):
                # Every cat with gamma, epsilon > 0 is entangled; PT eigenvalues are >= -1/2.
                return _first(not rep.violated and "PPT misses an entangled cat",
                              rep.value < -0.5 - 1e-9 and f"PT eigenvalue {rep.value:.3g} < -1/2")
            ops.append(Op(kind, spec, lambda p=params, c=spec["cutoff"]:
                          ww.ppt_check(ww.state_to_fock(p, c)), check))
        else:
            s = spec["s"]

            def run(s=s, cutoff=spec["cutoff"]):
                field = ww.fock_wigner(ww.state_to_fock(ww.TmstParams(s=s), cutoff=cutoff))
                return field.evaluate(*grid)

            def check(vals, ref=refs.tmsv_wigner(s, pts)):
                worst = float(np.max(np.abs(vals - ref)))
                return worst >= 1e-6 and f"625-point disagreement {worst:.3g} >= 1e-6" or None
            ops.append(Op(kind, spec, run, check))
    return ops


# ---------------------------------------------------------------------------
# CLI workload


def cli_argv(spec: dict) -> list[str]:
    op, q = spec["op"], repr(QUARTER)
    if op == "evaluate-c1":
        return ["evaluate", "--state", "tmsv", "--s", repr(spec["s"]), "--criterion", "c1",
                "--theta", q]
    if op == "evaluate-disks":
        region = "disks:" + ";".join(",".join(repr(v) for v in d) for d in spec["disks"])
        return ["evaluate", "--state", "cat-plus", "--gamma", repr(spec["gamma"]),
                "--epsilon", repr(spec["epsilon"]), "--criterion", "c2", "--theta", q,
                "--region", region]
    if op == "evaluate-optimize":
        return ["evaluate", "--state", "tmst", "--s", repr(spec["s"]), "--eta", repr(spec["eta"]),
                "--r", repr(spec["r"]), "--criterion", "c1", "--transform", "optimize"]
    if op == "evaluate-fock":
        return ["evaluate", "--state", "werner-phi+", "--epsilon", repr(spec["epsilon"]),
                "--criterion", "c1", "--theta", q, "--backend", "fock"]
    if op == "evaluate-simon":
        return ["evaluate", "--state", "tmst", "--s", repr(spec["s"]), "--eta", repr(spec["eta"]),
                "--r", repr(spec["r"]), "--criterion", "simon"]
    if op == "oracle-ppt":
        return ["oracle", "--state", "werner-phi+", "--epsilon", repr(spec["epsilon"]), "--ppt"]
    return ["sweep", "--config", spec["config"]]


def _report_check(spec: dict, payload: dict) -> str | None:
    op, v, err = spec["op"], payload["value"], payload["error_estimate"]
    if op == "evaluate-c1":
        return check_value(v, err, refs.tmsv_c1(spec["s"]))
    if op == "evaluate-disks":
        terms = refs.cat_slice_terms(spec["gamma"], spec["epsilon"], "plus")
        return check_value(v, err, sum(refs.slice_disk(terms, *d) for d in spec["disks"]))
    if op == "evaluate-optimize":
        return check_optimum(v, payload["violated"],
                             refs.tmst_standard(spec["s"], spec["eta"], spec["r"]))
    if op == "evaluate-fock":
        exact = refs.werner_c1(spec["epsilon"])
        return _first(check_value(v, err, exact),
                      check_verdict(payload["violated"], exact > refs.C1_BOUND))
    if op == "evaluate-simon":
        return check_value(v, 1e-9, refs.simon_value(*refs.tmst_standard(
            spec["s"], spec["eta"], spec["r"])))
    return check_value(v, 1e-9, refs.werner_ppt(spec["epsilon"]))


def _sweep_check(text: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 60:
        return f"sweep wrote {len(rows)} rows, want 60"
    bad = [r for r in rows if r["c2_violated"] != "true" or r["ppt_violated"] != "true"]
    return bad and f"{len(bad)} sweep rows not certified, first gamma={bad[0]['gamma']} " \
        f"epsilon={bad[0]['epsilon']}" or None


def _schema_validator(root: Path):
    schema = json.loads((root / "schemas" / "report.schema.json").read_text())
    try:
        import jsonschema
    except ImportError:                     # optional test dependency: check the key set only
        def validate(payload):
            missing = set(schema["required"]) - set(payload)
            return missing and f"report misses keys {sorted(missing)}" or None
        return validate

    def validate(payload):
        try:
            jsonschema.validate(payload, schema)
        except jsonschema.ValidationError as exc:
            return f"schema: {exc.message}"
        return None
    return validate


class CliCommands:
    """The cli-cold operations: each runs one CLI command, cold or in-process.

    `prepare()` runs every command once; those first outputs are the
    references that later runs must reproduce byte for byte.
    """

    def __init__(self, specs: list[dict], root: Path, env: dict | None, cold: bool):
        self.root, self.env, self.cold = root, env, cold
        self.validate = _schema_validator(root)
        self.reference: dict[str, str] = {}
        self.ops = [Op(s["op"], dict(s, argv=cli_argv(s)), self._runner(s), self._checker(s))
                    for s in specs]

    def _run(self, argv: list[str]) -> tuple[int, str]:
        if self.cold:
            proc = subprocess.run([sys.executable, "-c", CLI_RUNNER, *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout
        from wigner_witness import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _runner(self, spec):
        argv = cli_argv(spec)
        return lambda: self._run(argv)

    def _checker(self, spec):
        key = " ".join(cli_argv(spec))

        def check(out):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            if text != self.reference.get(key):
                return "stdout differs from the first run"
            if spec["op"] == "sweep":
                return _sweep_check(text)
            payload = json.loads(text)
            return _first(self.validate(payload), _report_check(spec, payload))
        return check

    def prepare(self) -> None:
        for op in self.ops:
            key = " ".join(op.spec["argv"])
            if key not in self.reference:
                self.reference[key] = op.run()[1]


_LIBRARY = {"optimize-gauss": _optimize_ops, "slice-quad": _slice_ops, "fock": _fock_ops}


def build(name: str, specs: list[dict], ww, root: Path, env: dict | None = None,
          cold: bool = True):
    """Operations for one cycle.  Returns (ops, prepare) where prepare() must
    run before timing (it records the CLI's first-run references)."""
    if name == "cli-cold":
        cmds = CliCommands(specs, root, env, cold)
        return cmds.ops, cmds.prepare
    return _LIBRARY[name](ww, specs), (lambda: None)
