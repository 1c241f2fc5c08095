"""Command-line interface: single evaluations, config-driven sweeps, oracle checks.

Three subcommands.  `evaluate` runs one criterion on one state and writes a
JSON report.  `sweep` reads a config file describing a parameter grid (or a
threshold search) and writes a CSV dataset, one row per grid point in
row-major order.  `oracle` exposes the Fock-basis reference checks and the
engine cross-validation.

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
import sys
import time

import numpy as np

from .core import (FULL_PLANE, PRESETS, Region, RegionError, Transform2, TransformError,
                   check_theta, disk_union, rectangle)
from .criteria import (
    CriterionReport,
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
    standard_form,
    state_to_fock,
    state_to_wigner,
    tmst_covariance,
    vacuum,
)
from .wigner import fock_wigner

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_CUTOFF = 4

_FIELD_CRITERIA = ("c1", "c2", "c3", "purity")
_GAUSSIAN_CRITERIA = ("simon", "duan")


class ConfigError(ValueError):
    """Raised for malformed CLI arguments or config files."""


# ---------------------------------------------------------------------------
# state construction


def _state_param_names(family: str) -> tuple[str, ...]:
    return {
        "vacuum": (),
        "tmsv": ("s",),
        "tmst": ("s", "eta", "r"),
        "werner-phi+": ("epsilon",),
        "werner-psi+": ("epsilon",),
        "cat-plus": ("gamma", "epsilon"),
        "cat-minus": ("gamma", "epsilon"),
        "gaussian": ("n", "m", "c1", "c2"),
    }[family]


def build_state(family: str, params: dict):
    """State spec object from a family name and its parameter dict."""
    try:
        names = _state_param_names(family)
    except KeyError:
        raise ConfigError(f"unknown state family {family!r}") from None
    missing = [k for k in names if params.get(k) is None]
    if missing:
        raise ConfigError(f"state {family!r} needs --{' --'.join(missing)}")
    p = {k: float(params[k]) for k in names}
    try:
        if family == "vacuum":
            return vacuum()
        if family == "tmsv":
            return TmstParams(s=p["s"])
        if family == "tmst":
            return TmstParams(s=p["s"], eta=p["eta"], r=p["r"])
        if family in ("werner-phi+", "werner-psi+"):
            return WernerParams(bell=family.split("-")[1], epsilon=p["epsilon"])
        if family in ("cat-plus", "cat-minus"):
            return CatParams(gamma=p["gamma"], epsilon=p["epsilon"],
                             sign=family.split("-")[1])
        return standard_form(p["n"], p["m"], p["c1"], p["c2"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _state_dict(family: str, params: dict) -> dict:
    return {"family": family,
            "params": {k: float(params[k]) for k in _state_param_names(family)}}


def _covariance_of(spec) -> GaussianTwoMode:
    if isinstance(spec, GaussianTwoMode):
        return spec
    if isinstance(spec, TmstParams):
        return tmst_covariance(spec)
    raise ConfigError("this criterion needs a Gaussian state "
                      "(vacuum, tmsv, tmst or gaussian)")


def _field_of(spec, backend: str, cutoff: int | None):
    if backend == "fock":
        return fock_wigner(_fock_of(spec, cutoff))
    try:
        return state_to_wigner(spec)
    except ValueError as exc:
        # In-range parameters can still overflow the envelope (cat gamma ~ 1e200).
        raise ConfigError(str(exc)) from None


def _fock_of(spec, cutoff: int | None) -> FockDensityMatrix:
    if isinstance(spec, GaussianTwoMode):
        raise ConfigError("explicit-covariance states have no Fock-basis form; "
                          "use tmsv/tmst/werner/cat families")
    return state_to_fock(spec, cutoff)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _number(text, what: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{what}: cannot read {text!r} as {kind.__name__}") from None


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
# output plumbing


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_payload(report: CriterionReport, state: dict,
                    runtime_ms: float | None, extras: dict | None = None) -> dict:
    payload = report.to_dict()
    payload["state"] = state
    payload["runtime_ms"] = runtime_ms
    if extras:
        payload.update(extras)
    return payload


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    params = {k: getattr(args, k) for k in
              ("s", "eta", "r", "epsilon", "gamma", "n", "m", "c1", "c2")}
    spec_obj = build_state(args.state, params)
    state = _state_dict(args.state, params)
    quad = _quad_spec(args.order, args.tolerance, args.rule)
    crit = args.criterion
    start = time.perf_counter()
    extras: dict = {}

    if crit in _GAUSSIAN_CRITERIA:
        g = _covariance_of(spec_obj)
        report = simon_check(g) if crit == "simon" else duan_check(g)
    elif crit in _FIELD_CRITERIA:
        w = _field_of(spec_obj, args.backend, args.cutoff)
        if crit == "purity":
            if args.theta == "optimize":
                report = optimize_purity(w, quad)
            else:
                report = purity_s1(w, _theta_value(args.theta, exclude_degenerate=False), quad)
        elif args.transform == "optimize":
            result = optimize_criterion(w, crit.upper(), quad)
            report = result.report
            extras["optimizer"] = {
                "phi1": result.best_param.phi1, "phi2": result.best_param.phi2,
                "t": result.best_param.t, "reflect": result.best_param.reflect,
                "restarts": result.restarts}
        else:
            t = parse_transform(args.transform)
            if crit == "c3":
                report = criterion3(w, t, quad)
            elif crit == "c1":
                report = criterion1(w, t, _theta_value(args.theta), quad)
            else:
                region = parse_region(args.region)
                report = criterion2(w, t, _theta_value(args.theta), region, quad)
    else:
        raise ConfigError(f"unknown criterion {crit!r}")

    runtime = (time.perf_counter() - start) * 1e3 if args.timing else None
    _dump_json(_report_payload(report, state, runtime, extras), args.output)
    return EXIT_OK


def _theta_value(raw, exclude_degenerate: bool = True) -> float:
    if raw is None:
        raise ConfigError("this criterion needs --theta (radians)")
    theta = _number(raw, "theta")
    try:
        check_theta(theta, exclude_degenerate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return theta


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
            out.append((section.split(":", 1)[1], dict(parser[section])))
    if not out:
        raise ConfigError("config declares no [criterion:...] sections")
    return out


def _sweep_point(family: str, base: dict, axes: list[str], values: tuple,
                 criteria: list[tuple[str, dict]], quad: QuadratureSpec,
                 cutoff: int | None):
    params = dict(base)
    params.update(dict(zip(axes, values)))
    spec_obj = build_state(family, params)
    row: list = [params[a] for a in axes]
    field_cache: dict = {}
    fock_cache: dict = {}

    def field():
        if "w" not in field_cache:
            field_cache["w"] = _field_of(spec_obj, "default", cutoff)
        return field_cache["w"]

    def fock():
        if "rho" not in fock_cache:
            fock_cache["rho"] = _fock_of(spec_obj, cutoff)
        return fock_cache["rho"]

    for name, opts in criteria:
        mode = opts.get("mode", "fixed")
        if name == "c1" and mode == "optimize":
            result = optimize_criterion(field(), "C1", quad)
            rep = result.report
            row += [rep.value, rep.bound, rep.violated, result.best_theta]
            continue
        if name in ("c1", "c2"):
            t = parse_transform(opts.get("transform", "p-reflect"))
            theta = _theta_value(opts.get("theta", math.pi / 4.0))
            if name == "c1":
                rep = criterion1(field(), t, theta, quad)
            else:
                region = parse_region(opts.get("region", "full-plane"))
                rep = criterion2(field(), t, theta, region, quad)
        elif name == "c3":
            t = parse_transform(opts.get("transform", "neg-identity"))
            rep = criterion3(field(), t, quad)
        elif name == "purity":
            if opts.get("theta", "optimize") == "optimize":
                rep = optimize_purity(field(), quad)
            else:
                rep = purity_s1(field(), _theta_value(opts["theta"], exclude_degenerate=False),
                                quad)
        elif name == "simon":
            rep = simon_check(_covariance_of(spec_obj))
        elif name == "duan":
            rep = duan_check(_covariance_of(spec_obj))
        elif name == "ppt":
            rep = ppt_check(fock())
        elif name == "pseudospin":
            rep = pseudospin_epr(fock())
        else:
            raise ConfigError(f"unknown sweep criterion {name!r}")
        row += [rep.value, rep.bound, rep.violated]
    return row


def _threshold_point(family: str, base: dict, axes: list[str], values: tuple,
                     criteria: list[tuple[str, dict]], quad: QuadratureSpec,
                     cutoff: int | None, thr: dict):
    params = dict(base)
    params.update(dict(zip(axes, values)))
    param_name = thr["param"]
    lo0 = _number(thr.get("lo", 0.0), "threshold lo")
    hi0 = _number(thr.get("hi", 1.0), "threshold hi")
    iters = _number(thr.get("iters", 14), "threshold iters", int)
    row: list = [params[a] for a in axes]

    def violated(name: str, opts: dict, value: float) -> bool:
        trial = dict(params)
        trial[param_name] = value
        spec_obj = build_state(family, trial)
        if name == "c3":
            t = parse_transform(opts.get("transform", "neg-identity"))
            return criterion3(state_to_wigner(spec_obj), t, quad).violated
        if name == "bell":
            best, _ = maximize_bell(state_to_wigner(spec_obj))
            return best > 2.0 + 1e-8
        if name == "ppt":
            return ppt_check(state_to_fock(spec_obj, cutoff)).violated
        if name == "c1":
            t = parse_transform(opts.get("transform", "p-reflect"))
            theta = _theta_value(opts.get("theta", math.pi / 4.0))
            return criterion1(state_to_wigner(spec_obj), t, theta, quad).violated
        raise ConfigError(f"threshold mode does not support criterion {name!r}")

    for name, opts in criteria:
        lo, hi = lo0, hi0
        if not violated(name, opts, hi):
            row.append(float("nan"))
            continue
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if violated(name, opts, mid):
                hi = mid
            else:
                lo = mid
        row.append(0.5 * (lo + hi))
    return row


def cmd_sweep(args) -> int:
    parser = _read_config(args.config)
    state_sec = dict(parser["state"])
    family = state_sec.pop("family", None)
    if family is None:
        raise ConfigError(f"{args.config}: [state] needs a family entry")
    cutoff = state_sec.pop("cutoff", None)
    if cutoff is not None:
        cutoff = _number(cutoff, "[state] cutoff", int)
    base = {k: _number(v, f"[state] {k}") for k, v in state_sec.items()}
    axes = list(parser["grid"].keys())
    axis_values = [_parse_axis(parser["grid"][a]) for a in axes]
    quad = _config_quad(parser)
    criteria = _criterion_sections(parser)
    mode = parser.get("sweep", "mode", fallback="grid")

    header: list[str] = list(axes)
    if mode == "grid":
        for name, opts in criteria:
            header += [f"{name}_value", f"{name}_bound", f"{name}_violated"]
            if name == "c1" and opts.get("mode") == "optimize":
                header.append("c1_theta")

        def work(values):
            return _sweep_point(family, base, axes, values, criteria, quad, cutoff)
    elif mode == "threshold":
        thr = dict(parser["threshold"]) if parser.has_section("threshold") else {}
        if "param" not in thr:
            raise ConfigError(f"{args.config}: threshold mode needs "
                              "[threshold] param = <name>")
        header += [f"{name}_threshold" for name, _ in criteria]

        def work(values):
            return _threshold_point(family, base, axes, values, criteria,
                                    quad, cutoff, thr)
    else:
        raise ConfigError(f"unknown sweep mode {mode!r}")

    points = [()]
    for vals in axis_values:
        points = [p + (v,) for p in points for v in vals]

    rows = [work(p) for p in points]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    text = buf.getvalue()
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    params = {k: getattr(args, k) for k in
              ("s", "eta", "r", "epsilon", "gamma", "n", "m", "c1", "c2")}
    spec_obj = build_state(args.state, params)
    state = _state_dict(args.state, params)
    start = time.perf_counter()

    if args.crosscheck_wigner:
        payload = _crosscheck(spec_obj, state, args.cutoff)
        payload["runtime_ms"] = ((time.perf_counter() - start) * 1e3
                                 if args.timing else None)
        _dump_json(payload, args.output)
        return EXIT_OK

    extras: dict = {}
    if args.ppt:
        report = ppt_check(_fock_of(spec_obj, args.cutoff))
    elif args.pseudospin:
        cutoff = args.cutoff
        if cutoff is not None and cutoff % 2:
            cutoff += 1
        rho = _fock_of(spec_obj, cutoff)
        if rho.cutoff % 2:
            rho = _fock_of(spec_obj, rho.cutoff + 1)
        report = pseudospin_epr(rho)
    elif args.bell:
        w = _field_of(spec_obj, "default", args.cutoff)
        if args.optimize:
            _, alphas = maximize_bell(w)
        elif args.alphas is not None:
            alphas = parse_alphas(args.alphas)
        else:
            raise ConfigError("oracle --bell needs --alphas or --optimize")
        report = bell_chsh(w, alphas)
        extras["alphas"] = [[a.real, a.imag] for a in alphas]
    else:
        raise ConfigError("oracle wants one of --ppt, --pseudospin, --bell, "
                          "--crosscheck-wigner")

    runtime = (time.perf_counter() - start) * 1e3 if args.timing else None
    _dump_json(_report_payload(report, state, runtime, extras), args.output)
    return EXIT_OK


def _crosscheck(spec_obj, state: dict, cutoff: int | None) -> dict:
    reference = _field_of(spec_obj, "default", None)
    fock_field = fock_wigner(_fock_of(spec_obj, cutoff))
    half = min(4.0, reference.envelope.halfwidth)
    axis = np.linspace(-half, half, 5)
    grids = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    ref_vals = reference.evaluate(*grids)
    fock_vals = fock_field.evaluate(*grids)
    disagreement = float(np.max(np.abs(ref_vals - fock_vals)))
    return {
        "check": "crosscheck-wigner",
        "state": state,
        "cutoff": fock_field.rho.cutoff,
        "grid_points": int(ref_vals.size),
        "grid_halfwidth": half,
        "max_disagreement": disagreement,
        "passed": bool(disagreement < 1e-6),
    }


# ---------------------------------------------------------------------------
# argument wiring


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--state", required=True,
                     choices=["vacuum", "tmsv", "tmst", "werner-phi+",
                              "werner-psi+", "cat-plus", "cat-minus", "gaussian"])
    for flag in ("s", "eta", "r", "epsilon", "gamma", "n", "m", "c1", "c2"):
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
                    choices=list(_FIELD_CRITERIA) + list(_GAUSSIAN_CRITERIA))
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (configparser.Error, TransformError, RegionError) as exc:
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
