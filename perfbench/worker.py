"""One benchmark process: set a workload up in a fresh interpreter, then measure it.

Started by run.py, never by hand.  `--mode setup` stops after set-up and
reports its duration; `--mode measure` goes on to the timed closed loop.
The last line of stdout is one JSON object.

Set-up (`setup_s`) runs from the first statement of this file: importing
wigner_witness (plus .cli for cli-cold), building the workload's inputs and
references, and for the library workloads one untimed op of each kind so
lazy caches (`_leggauss`, `_PREC_CACHE`, scipy submodules) are full before
timing.  cli-cold ops are fresh interpreters, so no in-process cache can be
warmed for them; their first run of each command happens after set-up and
is the reference later runs must reproduce.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile that still has at least 10 samples above it.

    Returns (percentile, value, samples above).  With 10 samples or fewer no
    such percentile exists and the maximum is returned with 0 above it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1], 0
    k = bisect.bisect_left(xs, xs[n - 10]) - 1     # last sample below the 10th largest
    if k < 0:
        return 0.0, xs[0], 0
    return 100.0 * (k + 1) / n, xs[k], n - 1 - k


def run_phase(ops, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: repeat whole cycles of ops while the next
    cycle still fits in `seconds` (at least one cycle runs)."""
    latencies, kinds, failures, cycle_s = [], [], {}, []
    attempted = failed = cycles = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = attempted
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:          # an op that raises counts as failed
                dt = time.perf_counter() - t
                why = f"raised {type(exc).__name__}: {exc}"
            else:
                dt = time.perf_counter() - t
                why = op.check(out)
            attempted += 1
            latencies.append(dt)
            kinds.append(op.kind)
            if why:
                failed += 1
                key = json.dumps(op.spec, sort_keys=True)
                entry = failures.setdefault(key, {"kind": op.kind, "spec": op.spec,
                                                  "reason": str(why), "count": 0})
                entry["count"] += 1
        cycles += 1
        now = time.perf_counter()
        cycle_s.append(now - cycle_start)
        if now - start + (now - cycle_start) > seconds:
            break
    return {"latencies": latencies, "kinds": kinds, "attempted": attempted, "failed": failed,
            "failures": list(failures.values()), "cycles": cycles, "cycle_s": cycle_s,
            "elapsed_s": time.perf_counter() - start}


def phase_summary(phase: dict) -> dict:
    lat = phase["latencies"]
    pct, tail, beyond = tail_percentile(lat)
    per_kind: dict[str, list[float]] = {}
    for kind, dt in zip(phase["kinds"], lat):
        per_kind.setdefault(kind, []).append(dt)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(lat),
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "cycles": phase["cycles"],
        "cycle_s": phase["cycle_s"],
        "elapsed_s": phase["elapsed_s"],
        "per_kind": {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v), "total_ms": 1e3 * sum(v),
                         "max_ms": 1e3 * max(v)} for k, v in sorted(per_kind.items())},
    }


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process loaded, asked from the library itself."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _warm_up(ops) -> None:
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.run()
            except Exception:                 # the timed loop counts and reports it
                pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import wigner_witness as ww
    if args.workload == "cli-cold":
        import wigner_witness.cli  # noqa: F401
    import workloads

    cold = not args.trace
    specs = workloads.make_inputs(args.workload, args.seed)
    ops, prepare = workloads.build(args.workload, specs, ww, ROOT, dict(os.environ), cold)
    if args.workload != "cli-cold":
        _warm_up(ops)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    prepare()
    result = {"setup_s": setup_s, "blas_threads": blas_threads()}
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = run_phase(ops, seconds)
    result["untraced"] = phase_summary(phase)
    result["failures"] = phase["failures"]
    result["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli-cold" and cold)

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        ops, prepare = workloads.build(args.workload, specs, ww, ROOT, dict(os.environ), cold)
        prepare()
        tracer.reset()
        # Exactly one cycle: per-layer counts are then a fixed amount of work
        # and repeat exactly for a given seed and commit.
        traced = run_phase(ops, 0.0, tracer)
        tracer.uninstall()
        result["traced"] = phase_summary(traced)
        result["failures"] += traced["failures"]
        result["layers"] = tracer.metrics()
        result["unhit"] = tracer.unhit(args.workload)
        result["bindings"] = tracer.bindings
        result["self_s_by_name"] = {n: s / 1e9 for n, s in zip(tracer.names, tracer.self_ns)}
        result["calls_by_name"] = dict(zip(tracer.names, tracer.calls))
        OUT_DIR.mkdir(exist_ok=True)
        import numpy as np
        np.savez_compressed(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
                            spans=tracer.span_table(), names=np.array(tracer.names))
    for entry in result["failures"]:
        entry["known_defect"] = workloads.known_defect(entry["spec"], entry["reason"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
