"""Outside-in span tracing of the wigner_witness layers.

`from .x import y` binds a copy of the name in the importing module, so a
function is wrapped in every module whose namespace holds it: wrapping
`criteria.criterion1` alone would miss `optimize.criterion1` and the package
namespace the benchmark calls through.  Field evaluators are wrapped per
field with `dataclasses.replace(w, evaluate=...)` as factories return them.

Only the names in `PREDICTED` are wrapped; each lists the workloads expected
to call it, and a traced run checks that every prediction for its workload
was hit.  Spans (name, start, end, parent span, op id) stay in memory and
are written out when the run ends.  A span's self time is its duration minus
the part its child spans cover.
"""

from __future__ import annotations

import dataclasses
import importlib
from array import array
from time import perf_counter_ns

LAYERS = ("core", "states", "wigner", "quadrature", "criteria", "optimize", "oracle", "cli")
MODULES = ("wigner_witness",) + tuple(f"wigner_witness.{m}" for m in LAYERS)

LIB = ("optimize-gauss", "slice-quad", "fock")
ALL = LIB + ("cli-cold",)

# "layer.name" -> workloads whose ops must call it.  Names bound from scipy
# (minimize, expm, eigvalsh) are traced where a layer module binds them.
PREDICTED = {
    "core.symplectic_from_params": ("optimize-gauss", "cli-cold"),
    "core.Transform2": ALL,
    "core.apply_transform": ("slice-quad", "fock", "cli-cold"),
    "core.invert_transform": ("slice-quad", "fock", "cli-cold"),
    "states.state_to_fock": ("fock", "cli-cold"),
    "states.state_to_wigner": ("cli-cold",),
    "states.tmst_covariance": ("cli-cold",),
    "states.cat_wigner": ("cli-cold",),
    "wigner.gaussian_wigner": ("cli-cold",),
    "wigner.fock_wigner": ("fock", "cli-cold"),
    "wigner.make_slice": ("slice-quad", "fock", "cli-cold"),
    "wigner.diagonal_slice": ("slice-quad", "fock"),
    "wigner.integrate_slice": ("slice-quad", "fock", "cli-cold"),
    "wigner.reduced_mode_wigner": ("slice-quad",),
    "quadrature.integrate": ("slice-quad", "fock", "cli-cold"),
    "quadrature.integrate_abs": ("slice-quad", "fock", "cli-cold"),
    "criteria.criterion1": ALL,
    "criteria.criterion2": ("slice-quad", "fock", "cli-cold"),
    "criteria.criterion3": LIB,
    "criteria.purity_s1": LIB,
    "criteria.simon_check": ("cli-cold",),
    "criteria.ppt_check": ("fock", "cli-cold"),
    "criteria.pseudospin_epr": ("fock",),
    "optimize.optimize_criterion": ("optimize-gauss", "cli-cold"),
    "optimize.optimize_purity": ("optimize-gauss",),
    "optimize.minimize": ("optimize-gauss", "cli-cold"),
    "oracle.min_eigenvalue": ("fock", "cli-cold"),
    "oracle.eigvalsh": ("fock", "cli-cold"),
    "oracle.expm": ("fock",),
    "oracle.beam_splitter_unitary": ("fock",),
    "oracle.partial_transpose": ("fock", "cli-cold"),
    "oracle.partial_trace": ("fock",),
    "oracle.purity": ("fock",),
    "oracle.expectation": ("fock",),
    "oracle.destroy": ("fock", "cli-cold"),
    "oracle.coherent_ket": ("fock", "cli-cold"),
    "oracle.apply_attenuator_mode_a": ("fock",),
    "oracle.apply_amplifier_mode_a": ("fock",),
    "cli.main": ("cli-cold",),
    "cli.cmd_evaluate": ("cli-cold",),
    "cli.cmd_sweep": ("cli-cold",),
    "cli.cmd_oracle": ("cli-cold",),
    "cli.build_state": ("cli-cold",),
    "cli.parse_transform": ("cli-cold",),
    "cli.parse_region": ("cli-cold",),
}

SLICE_CRITERIA = {"criteria.criterion1", "criteria.criterion2", "criteria.criterion3",
                  "criteria.purity_s1"}
QUADRATURE = {"quadrature.integrate", "quadrature.integrate_abs"}
SCIPY_BINDINGS = {"optimize.minimize", "oracle.expm", "oracle.eigvalsh"}
FIELD = "field"
_BACKEND_KEY = {"gaussian": "gaussian", "closed-form": "closed_form", "fock": "fock"}


class Tracer:
    """Records spans around every wrapped call and aggregates them as they close."""

    def __init__(self):
        self.names: list[str] = []
        self.layer: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans = array("q")                 # 5 per span: name, start, end, parent, op
        self.stack: list[list] = []             # [name id, start, child ns, span index, flag]
        self.op = -1
        self.installed: list[tuple] = []
        self.bindings: dict[str, list[str]] = {}
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (used after the traced fields are built)."""
        self.spans = array("q")
        self.calls = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = {"objective_calls": 0, "restarts": 0, "refinements": 0,
                       "improving": 0, "closed_form_calls": 0, "closed_form_ns": 0,
                       "quadrature_criteria": 0, "slice_criteria": 0, "evaluations": 0,
                       "nonconverged": 0, "cutoff_errors": 0, "fock_bytes": 0,
                       "fock_flop": 0}
        for key in _BACKEND_KEY.values():
            self.counts[f"{key}_points"] = 0
            self.counts[f"{key}_ns"] = 0
        self.seen_errors: list[BaseException] = []      # kept alive so identity stays unique
        self.opt_depth = 0

    def _id(self, name: str, layer: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(layer)
            for lst in (self.calls, self.total_ns, self.self_ns):
                lst.append(0)
        return self.ids[name]

    # -- span core ---------------------------------------------------------

    def _open(self, nid: int) -> list:
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        index = len(self.spans) // 5
        start = perf_counter_ns()
        self.spans.extend((nid, start, 0, parent, self.op))
        frame = [nid, start, 0, index, False]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> int:
        end = perf_counter_ns()
        self.stack.pop()
        nid, start, child, index, _ = frame
        dur = end - start
        self.spans[5 * index + 2] = end
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def _error(self, exc: BaseException) -> None:
        if any(exc is seen for seen in self.seen_errors):
            return
        self.seen_errors.append(exc)
        kind = type(exc).__name__
        if kind == "NonConvergenceError":
            self.counts["nonconverged"] += 1
        elif kind == "CutoffTooSmallError":
            self.counts["cutoff_errors"] += 1

    def wrap(self, name: str, fn):
        nid = self._id(name, name.split(".")[0])
        slice_criterion = name in SLICE_CRITERIA
        quadrature = name in QUADRATURE
        optimize_criterion = name == "optimize.optimize_criterion"
        minimize = name == "optimize.minimize"
        state_to_fock = name == "states.state_to_fock"
        tracer = self

        def traced(*args, **kwargs):
            first = None
            if slice_criterion and tracer.opt_depth:
                tracer.counts["objective_calls"] += 1
            if quadrature:
                for frame in reversed(tracer.stack):
                    if tracer.names[frame[0]] in SLICE_CRITERIA:
                        frame[4] = True
                        break
            if optimize_criterion:
                tracer.opt_depth += 1
            if minimize and tracer.opt_depth:
                args, first = _first_value(args)
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(exc)
                raise
            finally:
                dur = tracer._close(frame)
                if optimize_criterion:
                    tracer.opt_depth -= 1
            if slice_criterion:
                tracer.counts["slice_criteria"] += 1
                if frame[4]:
                    tracer.counts["quadrature_criteria"] += 1
                else:
                    tracer.counts["closed_form_calls"] += 1
                    tracer.counts["closed_form_ns"] += dur
            elif quadrature:
                tracer.counts["evaluations"] += result.evaluations
            elif optimize_criterion:
                tracer.counts["restarts"] += result.restarts
            elif minimize and tracer.opt_depth and first:
                tracer.counts["refinements"] += 1
                tracer.counts["improving"] += result.fun < first[0] - 1e-12 * max(1.0, abs(first[0]))
            elif state_to_fock:
                tracer.counts["fock_bytes"] += 16 * result.cutoff ** 4
            return tracer.field(result)

        return traced

    # -- fields --------------------------------------------------------------

    def field(self, obj):
        """Return a WignerField whose evaluator is traced; pass anything else through."""
        evaluate = getattr(obj, "evaluate", None)
        if evaluate is None or not hasattr(obj, "backend") or getattr(evaluate, "_traced", False):
            return obj
        backend = _BACKEND_KEY.get(obj.backend, "closed_form")
        nid = self._id(f"{FIELD}.{backend}", FIELD)
        cutoff = obj.rho.cutoff if obj.rho is not None else 0
        tracer = self

        def traced_evaluate(*args):
            outer = not any(tracer.layer[f[0]] == FIELD for f in tracer.stack)
            frame = tracer._open(nid)
            try:
                return evaluate(*args)
            finally:
                dur = tracer._close(frame)
                if outer:
                    points = max(int(getattr(a, "size", 1)) for a in args)
                    tracer.counts[f"{backend}_points"] += points
                    tracer.counts[f"{backend}_ns"] += dur
                    if cutoff:
                        # paired (n^2 x n^2) @ kernel (n^2 x points), complex: 8 flop per MAC
                        tracer.counts["fock_flop"] += 8 * cutoff ** 4 * points

        traced_evaluate._traced = True
        return dataclasses.replace(obj, evaluate=traced_evaluate)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        core = by_name["core"]
        for qual in PREDICTED:
            layer, attr = qual.split(".")
            if qual == "core.Transform2":
                init = core.Transform2.__init__
                core.Transform2.__init__ = self.wrap(qual, init)
                self.installed.append((core.Transform2, "__init__", init))
                self.bindings[qual] = ["core.Transform2.__init__"]
                continue
            target = getattr(by_name[layer], attr)
            wrapped = self.wrap(qual, target)
            hits = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapped)
                        self.installed.append((mod, key, target))
                        hits.append(f"{mod.__name__}.{key}")
            self.bindings[qual] = hits
        self.reset()

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.installed):
            setattr(owner, key, original)
        self.installed.clear()

    # -- results -------------------------------------------------------------

    def unhit(self, workload: str) -> list[str]:
        return [q for q, wls in PREDICTED.items()
                if workload in wls and self.calls[self.ids[q]] == 0]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for s, lay in zip(self.self_ns, self.layer) if lay == layer) / 1e9

    def calls_of(self, layer: str) -> int:
        """Calls into a layer's own functions (scipy names bound there excluded)."""
        return sum(c for n, c, lay in zip(self.names, self.calls, self.layer)
                   if lay == layer and n not in SCIPY_BINDINGS)

    def total_s(self, name: str) -> float:
        return self.total_ns[self.ids[name]] / 1e9 if name in self.ids else 0.0

    def metrics(self) -> dict[str, float]:
        c = self.counts
        m = {
            "optimize.calls": self.calls_of("optimize"),
            "optimize.self_s": self.layer_self_s("optimize"),
            "optimize.objective_calls": c["objective_calls"],
            "optimize.restarts": c["restarts"],
            "optimize.improving_share": c["improving"] / c["refinements"] if c["refinements"] else 0.0,
            "core.self_s": self.layer_self_s("core"),
            "states.self_s": self.layer_self_s("states"),
            "criteria.calls": self.calls_of("criteria"),
            "criteria.self_s": self.layer_self_s("criteria"),
            "criteria.closed_form_us": (c["closed_form_ns"] / c["closed_form_calls"] / 1e3
                                        if c["closed_form_calls"] else 0.0),
            "criteria.quadrature_share": (c["quadrature_criteria"] / c["slice_criteria"]
                                          if c["slice_criteria"] else 0.0),
            "wigner.self_s": self.layer_self_s("wigner"),
        }
        for key in _BACKEND_KEY.values():
            points, ns = c[f"{key}_points"], c[f"{key}_ns"]
            m[f"wigner.{key}.points"] = points
            m[f"wigner.{key}.points_per_s"] = points / (ns / 1e9) if ns else 0.0
        m["wigner.fock.computed_gflop"] = c["fock_flop"] / 1e9
        qcalls = self.calls_of("quadrature")
        m.update({
            "quadrature.calls": qcalls,
            "quadrature.self_s": self.layer_self_s("quadrature"),
            "quadrature.evaluations": c["evaluations"],
            "quadrature.evals_per_call": c["evaluations"] / qcalls if qcalls else 0.0,
            "quadrature.nonconverged": c["nonconverged"],
            "oracle.calls": self.calls_of("oracle"),
            "oracle.self_s": self.layer_self_s("oracle"),
            "oracle.eig_s": self.total_s("oracle.eigvalsh"),
            "oracle.expm_s": self.total_s("oracle.expm"),
            "oracle.cutoff_errors": c["cutoff_errors"],
            "states.state_to_fock_s": self.total_s("states.state_to_fock"),
            "states.fock_bytes_computed": c["fock_bytes"],
            "cli.self_s": self.layer_self_s("cli"),
        })
        return m

    def span_table(self):
        """Spans as an (n, 5) int64 array: name id, start ns, end ns, parent, op."""
        import numpy as np
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5)


def _first_value(args):
    """Wrap a minimize() objective so the value at the starting point is kept."""
    fun, rest = args[0], args[1:]
    first: list[float] = []

    def objective(x, *a):
        value = fun(x, *a)
        if not first:
            first.append(float(value))
        return value
    return (objective,) + rest, first
