"""Command-line interface: single evaluations, config-driven sweeps, oracle checks.

Three subcommands.  `evaluate` runs one criterion on one state and writes a
JSON report.  `sweep` reads a config file describing a parameter grid (or a
threshold search) and writes a CSV dataset, one row per grid point in
row-major order.  `oracle` exposes the Fock-basis reference checks and the
engine cross-validation.

Two tables hold the dispatch.  `_FAMILIES` maps each state family to its
parameter names and constructor.  `CRITERIA` maps each of the nine criterion
names to a runner `(inputs, opts, quad) -> (CriterionReport, extra JSON keys)`;
`evaluate`, `oracle`, grid sweeps and threshold sweeps all go through it, so
every mode runs every criterion the same way.  The runners read the state from
one lazy `_Inputs` object that builds the field, the Fock matrix and the
covariance at most once each.

Outputs are deterministic: JSON keys are sorted, CSV rows follow the grid
order, and wall-clock timing is only included when --timing is passed, so
re-running a command byte-reproduces its output file.

Exit codes: 0 success (regardless of the violation verdict), 2 bad usage or
config, 3 quadrature failed to converge, 4 Fock cutoff too small.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
import time
from functools import cached_property

import numpy as np

from .core import (FULL_PLANE, PRESETS, Region, RegionError, Transform2, TransformError,
                   check_theta, disk_union, rectangle)
from .criteria import (
    bell_chsh,
    criterion1,
    criterion2,
    criterion3,
    duan_check,
    ppt_check,
    pseudospin_epr,
    purity_s1,
    simon_check,
)
from .oracle import CutoffTooSmallError, FockDensityMatrix
from .optimize import maximize_bell, optimize_criterion, optimize_purity
from .quadrature import NonConvergenceError, QuadratureSpec
from .states import (
    CatParams,
    GaussianTwoMode,
    TmstParams,
    WernerParams,
    default_cutoff,
    standard_form,
    state_to_fock,
    state_to_wigner,
    tmst_covariance,
    vacuum,
)
from .wigner import WignerField, fock_wigner

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_CUTOFF = 4

# Dense two-mode matrices (16 n^4 bytes each) the Fock work holds at its peak:
# state_to_fock, then ppt_check, pseudospin_epr and fock_wigner on the held
# matrix, peak at 4.13 of them at cutoff 16 and 4.02 at cutoff 24.
_FOCK_PEAK_MATRICES = 5


class ConfigError(ValueError):
    """Raised for malformed CLI arguments or config files."""


# ---------------------------------------------------------------------------
# state construction

# family -> (parameter names, constructor taking {name: float})
_FAMILIES = {
    "vacuum": ((), lambda p: vacuum()),
    "tmsv": (("s",), lambda p: TmstParams(**p)),
    "tmst": (("s", "eta", "r"), lambda p: TmstParams(**p)),
    "werner-phi+": (("epsilon",), lambda p: WernerParams(bell="phi+", **p)),
    "werner-psi+": (("epsilon",), lambda p: WernerParams(bell="psi+", **p)),
    "cat-plus": (("gamma", "epsilon"), lambda p: CatParams(sign="plus", **p)),
    "cat-minus": (("gamma", "epsilon"), lambda p: CatParams(sign="minus", **p)),
    "gaussian": (("n", "m", "c1", "c2"), lambda p: standard_form(**p)),
}


def build_state(family: str, params: dict):
    """State spec object from a family name and its parameter dict."""
    if family not in _FAMILIES:
        raise ConfigError(f"unknown state family {family!r}")
    names, make = _FAMILIES[family]
    missing = [k for k in names if params.get(k) is None]
    if missing:
        raise ConfigError(f"state {family!r} needs --{' --'.join(missing)}")
    try:
        return make({k: float(params[k]) for k in names})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


class _Inputs:
    """One state and the representations criteria read, each built at most once.

    `backend="fock"` makes `field` the Wigner function of the truncated
    density matrix instead of the family's natural field.
    """

    def __init__(self, family: str, params: dict, backend: str = "default",
                 cutoff: int | None = None):
        self.spec = build_state(family, params)
        self.state = {"family": family,
                      "params": {k: float(params[k]) for k in _FAMILIES[family][0]}}
        if cutoff is not None and cutoff < 1:
            raise ConfigError(f"Fock cutoff must be at least 1, got {cutoff}")
        self.backend, self.cutoff = backend, cutoff
        self._fock: dict[int | None, FockDensityMatrix] = {}

    @cached_property
    def field(self) -> WignerField:
        if self.backend == "fock":
            return fock_wigner(self.fock())
        try:
            return state_to_wigner(self.spec)
        except ValueError as exc:
            # In-range parameters can still overflow the envelope (cat gamma ~ 1e200).
            raise ConfigError(str(exc)) from None

    @cached_property
    def cov(self) -> GaussianTwoMode:
        if isinstance(self.spec, GaussianTwoMode):
            return self.spec
        if isinstance(self.spec, TmstParams):
            try:
                return tmst_covariance(self.spec)
            except ValueError as exc:
                # Large in-range s and r round the covariance into unphysical.
                raise ConfigError(str(exc)) from None
        raise ConfigError("this criterion needs a Gaussian state "
                          "(vacuum, tmsv, tmst or gaussian)")

    def fock(self, even: bool = False) -> FockDensityMatrix:
        """Density matrix at the requested cutoff, rounded up to even if `even`
        (the per-family default is always even)."""
        cutoff = self.cutoff
        if even and cutoff is not None:
            cutoff += cutoff % 2
        if cutoff not in self._fock:
            if isinstance(self.spec, GaussianTwoMode):
                raise ConfigError("explicit-covariance states have no Fock-basis form; "
                                  "use tmsv/tmst/werner/cat families")
            n = cutoff if cutoff is not None else default_cutoff(self.spec)
            need = _FOCK_PEAK_MATRICES * 16 * n ** 4
            if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
                raise ConfigError(f"Fock cutoff {n} needs {need / 2 ** 30:.3g} GiB for its "
                                  "density matrices, more than this machine's memory")
            self._fock[cutoff] = state_to_fock(self.spec, n)
        return self._fock[cutoff]


# ---------------------------------------------------------------------------
# flag parsing helpers


def _number(text, what: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{what}: cannot read {text!r} as {kind.__name__}") from None


def _theta_value(raw, exclude_degenerate: bool = True) -> float:
    if raw is None:
        raise ConfigError("this criterion needs --theta (radians)")
    theta = _number(raw, "theta")
    try:
        check_theta(theta, exclude_degenerate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return theta


def parse_transform(text: str) -> Transform2:
    if text in PRESETS:
        return PRESETS[text]
    parts = text.split(",")
    if len(parts) not in (4, 6):
        raise ConfigError(
            f"--transform wants a preset ({', '.join(sorted(PRESETS))}), "
            f"'optimize', or 4/6 comma-separated numbers; got {text!r}")
    try:
        vals = [float(v) for v in parts]
    except ValueError:
        raise ConfigError(f"non-numeric transform entry in {text!r}") from None
    try:
        return Transform2(*vals)
    except TransformError as exc:
        raise ConfigError(str(exc)) from None


def parse_region(text: str) -> Region:
    if text == "full-plane":
        return FULL_PLANE
    kind, _, rest = text.partition(":")
    try:
        if kind == "rect":
            vals = [float(v) for v in rest.split(",")]
            if len(vals) != 4:
                raise ConfigError("rect region wants x_lo,x_hi,p_lo,p_hi")
            return rectangle(*vals)
        if kind == "disks":
            disks = []
            for part in rest.split(";"):
                vals = [float(v) for v in part.split(",")]
                if len(vals) != 3:
                    raise ConfigError("each disk wants cx,cp,radius")
                disks.append(tuple(vals))
            return disk_union(*disks)
    except (ValueError, RegionError) as exc:
        raise ConfigError(f"bad region {text!r}: {exc}") from None
    raise ConfigError(f"unknown region kind {text!r}; "
                      "use full-plane, rect:... or disks:...")


def _quad_spec(order, tolerance, rule) -> QuadratureSpec:
    kwargs = {}
    if order is not None:
        kwargs["order"] = _number(order, "order", int)
    if tolerance is not None:
        kwargs["tolerance"] = _number(tolerance, "tolerance")
    if rule is not None:
        kwargs["rule"] = rule
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_alphas(text: str) -> tuple[complex, ...]:
    parts = text.split(";")
    if len(parts) != 4:
        raise ConfigError("--alphas wants four re,im pairs separated by ';'")
    out = []
    for part in parts:
        bits = part.split(",")
        if len(bits) != 2:
            raise ConfigError(f"bad displacement {part!r}; want re,im")
        out.append(complex(_number(bits[0], "--alphas"), _number(bits[1], "--alphas")))
    return tuple(out)


# ---------------------------------------------------------------------------
# criterion table


def _slice_runner(which: str):
    """C1, C2 or C3 at a fixed transform, or optimised over transform and theta."""
    def run(inp: _Inputs, opts: dict, quad: QuadratureSpec | None):
        w = inp.field
        if opts["transform"] == "optimize":
            result = optimize_criterion(w, which, quad)
            p = result.best_param
            return result.report, {"optimizer": {
                "phi1": p.phi1, "phi2": p.phi2, "t": p.t, "reflect": p.reflect,
                "restarts": result.restarts}}
        t = parse_transform(opts["transform"])
        if which == "C3":
            return criterion3(w, t, quad), {}
        if which == "C1":
            return criterion1(w, t, _theta_value(opts["theta"]), quad), {}
        region = parse_region(opts["region"])
        return criterion2(w, t, _theta_value(opts["theta"]), region, quad), {}
    return run


def _run_purity(inp: _Inputs, opts: dict, quad: QuadratureSpec | None):
    if opts["theta"] == "optimize":
        return optimize_purity(inp.field, quad), {}
    return purity_s1(inp.field, _theta_value(opts["theta"], exclude_degenerate=False),
                     quad), {}


def _run_bell(inp: _Inputs, opts: dict, quad: QuadratureSpec | None):
    w = inp.field
    if opts.get("optimize"):
        _, alphas = maximize_bell(w)
    elif opts.get("alphas") is not None:
        alphas = parse_alphas(opts["alphas"])
    else:
        raise ConfigError("oracle --bell needs --alphas or --optimize")
    return bell_chsh(w, alphas), {"alphas": [[a.real, a.imag] for a in alphas]}


# name -> runner (inputs, opts, quad) -> (CriterionReport, extra JSON keys).  The
# runners look the library functions up in this module's globals at call time,
# so rebinding one of them here reaches every mode.
CRITERIA = {
    "c1": _slice_runner("C1"),
    "c2": _slice_runner("C2"),
    "c3": _slice_runner("C3"),
    "purity": _run_purity,
    "simon": lambda inp, opts, quad: (simon_check(inp.cov), {}),
    "duan": lambda inp, opts, quad: (duan_check(inp.cov), {}),
    "ppt": lambda inp, opts, quad: (ppt_check(inp.fock()), {}),
    # the parity-block operators need an even number of levels
    "pseudospin": lambda inp, opts, quad: (pseudospin_epr(inp.fock(even=True)), {}),
    "bell": _run_bell,
}

# Config-section defaults; `evaluate` and `oracle` take theirs from argparse.
_SWEEP_DEFAULTS = {
    "c1": {"transform": "p-reflect", "theta": math.pi / 4.0},
    "c2": {"transform": "p-reflect", "theta": math.pi / 4.0, "region": "full-plane"},
    "c3": {"transform": "neg-identity"},
    "purity": {"theta": "optimize"},
    "bell": {"optimize": True},
}


# ---------------------------------------------------------------------------
# evaluate and oracle


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(payload: dict, args, start: float) -> int:
    payload["runtime_ms"] = (time.perf_counter() - start) * 1e3 if args.timing else None
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def _run_report(args, name: str, inp: _Inputs, quad: QuadratureSpec | None) -> int:
    start = time.perf_counter()
    report, extras = CRITERIA[name](inp, vars(args), quad)
    return _emit(dict(report.to_dict(), state=inp.state, **extras), args, start)


def cmd_evaluate(args) -> int:
    inp = _Inputs(args.state, vars(args), args.backend, args.cutoff)
    quad = _quad_spec(args.order, args.tolerance, args.rule)
    return _run_report(args, args.criterion, inp, quad)


def cmd_oracle(args) -> int:
    inp = _Inputs(args.state, vars(args), cutoff=args.cutoff)
    if args.crosscheck_wigner:
        start = time.perf_counter()
        return _emit(_crosscheck(inp), args, start)
    for name in ("ppt", "pseudospin", "bell"):
        if getattr(args, name):
            return _run_report(args, name, inp, None)
    raise ConfigError("oracle wants one of --ppt, --pseudospin, --bell, "
                      "--crosscheck-wigner")


def _crosscheck(inp: _Inputs) -> dict:
    reference = inp.field
    fock_field = fock_wigner(inp.fock())
    half = min(4.0, reference.envelope.halfwidth)
    axis = np.linspace(-half, half, 5)
    grids = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    ref_vals = reference.evaluate(*grids)
    fock_vals = fock_field.evaluate(*grids)
    disagreement = float(np.max(np.abs(ref_vals - fock_vals)))
    return {
        "check": "crosscheck-wigner",
        "state": inp.state,
        "cutoff": fock_field.rho.cutoff,
        "grid_points": int(ref_vals.size),
        "grid_halfwidth": half,
        "max_disagreement": disagreement,
        "passed": bool(disagreement < 1e-6),
    }


# ---------------------------------------------------------------------------
# sweep


def _parse_axis(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        bits = text.split(":")
        if len(bits) != 3:
            raise ConfigError(f"grid axis wants lo:hi:count, got {text!r}")
        lo, hi = _number(bits[0], "grid axis"), _number(bits[1], "grid axis")
        count = _number(bits[2], "grid axis count", int)
        if count < 1:
            raise ConfigError("grid axis count must be >= 1")
        return [float(v) for v in np.linspace(lo, hi, count)]
    return [_number(v, "grid axis") for v in text.split(",")]


def _read_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if not parser.has_section("state"):
        raise ConfigError(f"{path}: missing [state] section")
    if not parser.has_section("grid"):
        raise ConfigError(f"{path}: missing [grid] section")
    return parser


def _config_quad(parser: configparser.ConfigParser) -> QuadratureSpec:
    if parser.has_section("quadrature"):
        sec = parser["quadrature"]
        return _quad_spec(sec.get("order"), sec.get("tolerance"), sec.get("rule"))
    return QuadratureSpec()


def _criterion_sections(parser: configparser.ConfigParser) -> list[tuple[str, dict]]:
    out = []
    for section in parser.sections():
        if section.startswith("criterion:"):
            name = section.split(":", 1)[1]
            if name not in CRITERIA:
                raise ConfigError(f"unknown sweep criterion {name!r}")
            opts = dict(_SWEEP_DEFAULTS.get(name, {}), **parser[section])
            if opts.get("mode") == "optimize":
                opts["transform"] = "optimize"
            out.append((name, opts))
    if not out:
        raise ConfigError("config declares no [criterion:...] sections")
    return out


def _check_params(family: str, where: str, keys) -> None:
    """Reject sweep keys that are not parameters of the state family."""
    names = _FAMILIES[family][0]
    for key in keys:
        if key not in names:
            raise ConfigError(f"{where} {key!r}: state {family!r} takes "
                              f"{', '.join(names) or 'no parameters'}")


def _optimised(name: str, opts: dict) -> bool:
    """Whether a grid row carries the optimiser's `<name>_theta` (empty for C3)."""
    return name in ("c1", "c2", "c3") and opts.get("transform") == "optimize"


def _bisect(violated, lo: float, hi: float, iters: int) -> float:
    """Where `violated` switches on inside [lo, hi], by bisection; nan if hi is clean."""
    if not violated(hi):
        return float("nan")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if violated(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def cmd_sweep(args) -> int:
    parser = _read_config(args.config)
    state_sec = dict(parser["state"])
    family = state_sec.pop("family", None)
    if family not in _FAMILIES:
        raise ConfigError(f"{args.config}: [state] needs a family entry, one of "
                          f"{', '.join(_FAMILIES)}; got {family!r}")
    cutoff = state_sec.pop("cutoff", None)
    if cutoff is not None:
        cutoff = _number(cutoff, "[state] cutoff", int)
    _check_params(family, "[state]", state_sec)
    base = {k: _number(v, f"[state] {k}") for k, v in state_sec.items()}
    axes = list(parser["grid"].keys())
    _check_params(family, "[grid]", axes)
    axis_values = [_parse_axis(parser["grid"][a]) for a in axes]
    quad = _config_quad(parser)
    criteria = _criterion_sections(parser)
    mode = parser.get("sweep", "mode", fallback="grid")

    header: list[str] = list(axes)
    if mode == "grid":
        for name, opts in criteria:
            header += [f"{name}_value", f"{name}_bound", f"{name}_violated"]
            if _optimised(name, opts):
                header.append(f"{name}_theta")

        def cells(params: dict) -> list:
            inp = _Inputs(family, params, cutoff=cutoff)
            row: list = []
            for name, opts in criteria:
                rep, _ = CRITERIA[name](inp, opts, quad)
                row += [rep.value, rep.bound, rep.violated]
                if _optimised(name, opts):
                    row.append(rep.theta)
            return row
    elif mode == "threshold":
        thr = dict(parser["threshold"]) if parser.has_section("threshold") else {}
        if "param" not in thr:
            raise ConfigError(f"{args.config}: threshold mode needs "
                              "[threshold] param = <name>")
        _check_params(family, "[threshold] param", [thr["param"]])
        lo = _number(thr.get("lo", 0.0), "threshold lo")
        hi = _number(thr.get("hi", 1.0), "threshold hi")
        iters = _number(thr.get("iters", 14), "threshold iters", int)
        header += [f"{name}_threshold" for name, _ in criteria]

        def violated(params: dict, name: str, opts: dict, value: float) -> bool:
            inp = _Inputs(family, {**params, thr["param"]: value}, cutoff=cutoff)
            return CRITERIA[name](inp, opts, quad)[0].violated

        def cells(params: dict) -> list:
            return [_bisect(lambda v: violated(params, name, opts, v), lo, hi, iters)
                    for name, opts in criteria]
    else:
        raise ConfigError(f"unknown sweep mode {mode!r}")

    points = [()]
    for vals in axis_values:
        points = [p + (v,) for p in points for v in vals]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for values in points:
        row = list(values) + cells(dict(base, **dict(zip(axes, values))))
        writer.writerow([_csv_cell(v) for v in row])
    _write(buf.getvalue(), args.output)
    return EXIT_OK


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# argument wiring


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--state", required=True, choices=list(_FAMILIES))
    for flag in dict.fromkeys(k for names, _ in _FAMILIES.values() for k in names):
        sub.add_argument(f"--{flag}", type=float, default=None)
    sub.add_argument("--cutoff", type=int, default=None,
                     help="Fock cutoff override (default per family)")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", default=None, help="output path (default stdout)")
    sub.add_argument("--timing", action="store_true",
                     help="include wall-clock runtime_ms (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigner-witness",
        description="Wigner-slice entanglement criteria and reference checks")
    subs = parser.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("evaluate", help="run one criterion on one state")
    _add_state_flags(ev)
    ev.add_argument("--criterion", required=True,
                    choices=["c1", "c2", "c3", "purity", "simon", "duan"])
    ev.add_argument("--transform", default="p-reflect",
                    help="preset name, 'optimize', or a,b,c,d[,x0,p0]")
    ev.add_argument("--theta", default=None,
                    help="mixing angle in radians, or 'optimize' (purity only)")
    ev.add_argument("--region", default="full-plane",
                    help="full-plane, rect:xlo,xhi,plo,phi or disks:cx,cp,r;...")
    ev.add_argument("--backend", default="default", choices=["default", "fock"],
                    help="force the Fock engine instead of the natural backend")
    ev.add_argument("--order", type=int, default=None)
    ev.add_argument("--tolerance", type=float, default=None)
    ev.add_argument("--rule", default=None,
                    choices=["tensor-gauss-legendre", "adaptive-subdivision"])
    _add_output_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    sw = subs.add_parser("sweep", help="run a config-driven grid or threshold sweep")
    sw.add_argument("--config", required=True, help="INI-style sweep description")
    sw.add_argument("--output", default=None, help="CSV path (default stdout)")
    sw.set_defaults(func=cmd_sweep)

    orc = subs.add_parser("oracle", help="Fock-basis reference checks")
    _add_state_flags(orc)
    group = orc.add_mutually_exclusive_group(required=False)
    group.add_argument("--ppt", action="store_true")
    group.add_argument("--pseudospin", action="store_true")
    group.add_argument("--bell", action="store_true")
    group.add_argument("--crosscheck-wigner", action="store_true",
                       dest="crosscheck_wigner")
    orc.add_argument("--alphas", default=None,
                     help="four displacements re,im;re,im;re,im;re,im")
    orc.add_argument("--optimize", action="store_true",
                     help="search displacements for the largest CHSH value")
    _add_output_flags(orc)
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, configparser.Error, TransformError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except CutoffTooSmallError as exc:
        print(f"error: Fock cutoff too small: {exc}", file=sys.stderr)
        return EXIT_CUTOFF


if __name__ == "__main__":
    sys.exit(main())
