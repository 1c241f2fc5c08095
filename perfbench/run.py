"""wigner-witness benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Workloads: optimize-gauss,
slice-quad, fock, cli-cold (see perfbench/README.md for what each stresses).
The seed only generates inputs; the library sees the generated inputs.

--trace 0 prints the end-to-end metrics from untraced runs.  --trace 1 wraps
each layer's public functions from the outside and prints the per-layer
metrics instead.  Human-readable lines go first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The full
record (machine, failing ops by input, per-kind latencies, -X importtime
breakdown) is written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import selftest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3           # fresh interpreters per run; setup_s is their median
BUDGET_S = 170.0            # whole run, kept under the 180 s limit
IMPORT_PACKAGES = ("wigner_witness", "scipy.linalg", "scipy.optimize", "scipy.special")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "ok_rate": "ratio", "peak_rss_mb": "MB"}

# Traced-run bypass predictions: these layers must see no call on these workloads.
BYPASSES = {"optimize-gauss": ("quadrature.calls", "oracle.calls"),
            "slice-quad": ("optimize.calls",), "fock": ("optimize.calls",)}

PER_LAYER_UNITS = {
    "optimize.calls": "count", "optimize.self_s": "s", "optimize.objective_calls": "count",
    "optimize.restarts": "count", "optimize.improving_share": "ratio",
    "core.self_s": "s", "states.self_s": "s",
    "criteria.calls": "count", "criteria.self_s": "s", "criteria.closed_form_us": "us",
    "criteria.quadrature_share": "ratio", "wigner.self_s": "s",
    "wigner.gaussian.points": "count", "wigner.closed_form.points": "count",
    "wigner.fock.points": "count", "wigner.gaussian.points_per_s": "1/s",
    "wigner.closed_form.points_per_s": "1/s", "wigner.fock.points_per_s": "1/s",
    "wigner.fock.computed_gflop": "GFLOP",
    "quadrature.calls": "count", "quadrature.self_s": "s", "quadrature.evaluations": "count",
    "quadrature.evals_per_call": "count", "quadrature.nonconverged": "count",
    "oracle.calls": "count", "oracle.self_s": "s", "oracle.eig_s": "s", "oracle.expm_s": "s",
    "oracle.cutoff_errors": "count",
    "states.state_to_fock_s": "s", "states.fock_bytes_computed": "B",
    "cli.self_s": "s", "cli.python_start_ms": "ms",
    "import.wigner_witness_ms": "ms", "import.scipy_linalg_ms": "ms",
    "import.scipy_optimize_ms": "ms", "import.scipy_special_ms": "ms",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"                        # the workers share one pinned core
    return env


def run_child(cmd: list[str], env: dict, deadline: float,
              echo: bool = True) -> subprocess.CompletedProcess:
    """Run a child in its own session; on timeout kill the whole group and wait for it.
    The child's stderr is passed on when echo is set."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd[:4])}") from None
    if err and echo:
        sys.stderr.write(err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker(args, mode: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--trace", str(args.trace)]
    proc = run_child(cmd, env, deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(env: dict, deadline: float, repeats: int = 3) -> tuple[dict, list]:
    """Cumulative -X importtime per package (median of repeats), plus the raw
    breakdown of the first run's slowest imports."""
    samples: dict[str, list[float]] = {p: [] for p in IMPORT_PACKAGES}
    breakdown: list = []
    for i in range(repeats):
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import wigner_witness, wigner_witness.cli"], env, deadline,
                         echo=False)
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:") or "cumulative" in line:
                continue
            rows.append((int(parts[1]), int(parts[0].split(":")[1]), parts[2].strip()))
        for pkg in IMPORT_PACKAGES:
            samples[pkg].append(max((c for c, _, name in rows if name == pkg), default=0) / 1e3)
        if i == 0:
            breakdown = [{"package": n, "cumulative_us": c, "self_us": s}
                         for c, s, n in sorted(rows, reverse=True)[:25]]
    return {p: statistics.median(v) for p, v in samples.items()}, breakdown


def python_start_ms(env: dict, deadline: float, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], env, deadline)
        times.append(1e3 * (time.perf_counter() - t))
    return statistics.median(times)


def machine_record(env: dict, cpus: list[int]) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": len(cpus), "cpu_count": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads_env": env["OPENBLAS_NUM_THREADS"],
            "pinned_to_cpu": max(cpus),
            "commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(setups: list[float], run: dict) -> dict[str, float]:
    phase = run["untraced"]
    return {"setup_s": statistics.median(setups), "ops_per_s": phase["ops_per_s"],
            "op_p50_ms": phase["op_p50_ms"], "op_tail_ms": phase["op_tail_ms"],
            "ok_rate": (phase["attempted"] - phase["failed"]) / phase["attempted"],
            "peak_rss_mb": run["peak_rss_mb"]}


def per_layer(run: dict, env: dict, deadline: float, record: dict) -> tuple[dict, list[str]]:
    layers = dict(run["layers"])
    imports, breakdown = import_times(env, deadline)
    record["importtime"] = {"median_cumulative_ms": imports, "slowest_first_run": breakdown}
    for pkg, ms in imports.items():
        layers[f"import.{pkg.replace('.', '_')}_ms"] = ms
    layers["cli.python_start_ms"] = python_start_ms(env, deadline)
    layers["trace.overhead"] = 1.0 - run["traced"]["ops_per_s"] / run["untraced"]["ops_per_s"]
    problems = [f"predicted call missing: {name}" for name in run["unhit"]]
    problems += [f"predicted bypass broken: {m} = {layers[m]}"
                 for m in BYPASSES.get(run["workload"], ()) if layers[m] != 0]
    return layers, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wigner_witness" / "__init__.py").is_file():
        print(f"error: no wigner_witness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    failed_tests = selftest.run_all()
    if failed_tests:
        print(f"error: benchmark self-tests failed: {failed_tests}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + BUDGET_S
    # One client, one core: pinning this process (the workers and CLI children
    # inherit it) to the last core we may use keeps a run from landing on a
    # differently loaded core than the previous one.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(cpus)})
    env = worker_env()
    try:
        setups = []
        if not args.trace:
            setups = [worker(args, "setup", env, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        run = worker(args, "measure", env, deadline)
        run["workload"] = args.workload
        setups.append(run["setup_s"])
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_record(env, cpus),
                  "blas_threads": run["blas_threads"], "setup_samples_s": setups}
        problems = []
        if args.trace:
            values, problems = per_layer(run, env, deadline, record)
            units = PER_LAYER_UNITS
            phases = [run["untraced"], run["traced"]]
        else:
            values, units, phases = end_to_end(setups, run), END_TO_END_UNITS, [run["untraced"]]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    unexpected = [f for f in run["failures"] if not f["known_defect"]]
    correct = not unexpected and not problems
    record.update({"phases": phases, "failures": run["failures"], "problems": problems,
                   "metrics": values})
    if args.trace:
        record.update({k: run[k] for k in ("bindings", "calls_by_name", "self_s_by_name", "unhit")})
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    main_phase = run["untraced"]
    mach = record["machine"]
    print(f"machine: nproc {mach['nproc']} (pinned to cpu {mach['pinned_to_cpu']}), python {mach['python']}, numpy {mach['numpy']}, "
          f"scipy {mach['scipy']}, {mach['blas']} {mach['blas_version']} threads "
          f"{run['blas_threads']}, commit {mach['commit']}, src sha256 {mach['src_sha256'][:12]}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"error_rate {failed / attempted:.4f}; {main_phase['cycles']} cycle(s) untraced")
    print(f"tail = p{main_phase['tail_percentile']:.1f} with {main_phase['tail_samples_beyond']} "
          f"of {main_phase['samples']} samples beyond it")
    for f in run["failures"]:
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"failed x{f['count']} [{tag}] {f['kind']} {json.dumps(f['spec'], sort_keys=True)}: "
              f"{f['reason']}")
    for p in problems:
        print(f"problem: {p}")
    if args.trace:
        print(f"tracing overhead {values['trace.overhead']:.3f} "
              f"(ops/s untraced {run['untraced']['ops_per_s']:.3f}, traced {run['traced']['ops_per_s']:.3f})")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
