"""Self-tests of the benchmark's own machinery.

run.py runs them before every benchmark run and refuses to report when one
fails; `python3 -m pytest perfbench/selftest.py` runs them on their own.
"""

from __future__ import annotations

import json
import random

import refs
import workloads
from worker import tail_percentile


def test_checks_reject_twice_the_error_estimate():
    exact = refs.cat_c1(1.0, 0.5)
    err = 1e-6
    assert workloads.check_value(exact + 0.5 * err, err, exact) is None
    assert workloads.check_value(exact + 2 * err, err, exact) is not None
    assert workloads.check_value(exact - 2 * err, err, exact) is not None
    lo, hi = refs.slice_abs_bracket(refs.cat_slice_terms(3.0, 0.5, "minus"))
    assert workloads.check_bracket(hi + 0.5 * err, err, lo, hi) is None
    assert workloads.check_bracket(hi + 2 * err, err, lo, hi) is not None
    assert workloads.check_bracket(lo - 2 * err, err, lo, hi) is not None


def test_tail_percentile_keeps_ten_samples_beyond():
    rng = random.Random(5)
    for n in list(range(11, 60)) + [100, 257, 1000]:
        xs = [rng.lognormvariate(0, 1) for _ in range(n)]
        if n % 7 == 0:
            xs[:5] = [xs[-1]] * 5                     # ties at the top
        pct, value, beyond = tail_percentile(xs)
        assert beyond == sum(x > value for x in xs) >= 10
        above = sorted(x for x in xs if x > value)
        assert sum(x > above[0] for x in xs) < 10    # the next sample up keeps fewer
        assert 0 < pct < 100
    assert tail_percentile([1.0] * 5)[2] == 0


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        first = json.dumps(workloads.make_inputs(name, 11), sort_keys=True)
        assert first == json.dumps(workloads.make_inputs(name, 11), sort_keys=True)
        assert first != json.dumps(workloads.make_inputs(name, 12), sort_keys=True)


def test_defect_table_cases_stay_in_slice_quad():
    specs = workloads.make_inputs("slice-quad", 3)
    table = {(s["op"], s["gamma"], s["epsilon"]) for s in specs
             if s.get("order") == 80 and s.get("gamma") in (4.0, 5.0, 6.0)}
    assert table >= {(op, g, e) for op in ("C1", "C3") for g in (4.0, 5.0, 6.0) for e in (0.0, 1.0)}


def test_known_defect_ledger_is_narrow():
    form = refs.tmst_standard(0.5, 0.6, 0.4)
    cmax, entangled = refs.c1_max(*form), refs.simon_value(*form) < 0
    short = workloads.check_optimum(cmax - 1e-3, entangled, form)
    assert short and workloads.known_defect({"op": "C1-opt"}, short)
    over = workloads.check_optimum(cmax + 1e-3, entangled, form)
    assert over and not workloads.known_defect({"op": "C1-opt"}, over)
    wrong = workloads.check_optimum(cmax - 1e-3, not entangled, form)
    assert wrong and not workloads.known_defect({"op": "C1-opt"}, wrong)
    assert workloads.known_defect({"op": "C1", "family": "cat-plus", "gamma": 5.0}, "any")
    assert not workloads.known_defect({"op": "C1", "family": "cat-plus", "gamma": 1.0}, "any")
    assert not workloads.known_defect({"op": "C1", "family": "werner-phi+"}, "any")
    assert not workloads.known_defect({"op": "C2-disks", "family": "cat-plus", "gamma": 2.5}, "any")


def run_all() -> list[str]:
    failed = []
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError:
                failed.append(name)
    return failed
