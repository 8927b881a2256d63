"""In-memory span tracing of hybridgate's public functions.

The tracer wraps functions from outside the package: every module attribute
that refers to a listed function (its defining module and each module that
imported it by name) is replaced by a wrapper that records a span. A span
has a name (``layer.function``), start, end, its parent span and the unit
it belongs to. Spans stay in memory; self time is a span's duration minus
the durations of its direct children.
"""

import json
import os
import time
from collections import defaultdict

LAYER_FUNCTIONS = {
    "cli": ("main",),
    "scenario": ("load_scenario_text",),
    "output": ("write_csv", "write_json", "ensure_out_dir"),
    "hyperfine": ("all_states", "breit_rabi_energy", "transition_frequency", "field_sensitivity",
                  "site_frequency_resolution", "resonance_site_count", "open_decay_channels"),
    "dynamics": ("two_level_population", "effective_rabi", "pi_pulse_duration",
                 "integrate_schrodinger", "raman_trajectory", "stirap_trajectory",
                 "simulate_stirap"),
    "gate": ("induced_dipole", "dipole_dipole_rate", "build_gate_schedule",
             "schedule_total_duration", "interaction_time_for_pi", "accumulated_phase_numeric",
             "accumulated_phase_profile", "total_phase_closed_form", "build_phase_gate",
             "gate_fidelity"),
    "budget": ("dephasing_time", "ramsey_contrast_mc", "inelastic_loss_probability",
               "operations_budget", "assemble_budget"),
}

UNIT_SPAN = "bench.unit"


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "info")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


def _integrate_hooks(args, kwargs, info):
    """Count calls to the Hamiltonian callable handed to the integrator."""
    hamiltonian = args[0]
    info["h_evals"] = 0
    info["constant"] = bool(kwargs.get("constant", False))

    def counted(t):
        info["h_evals"] += 1
        return hamiltonian(t)

    return (counted,) + tuple(args[1:])


def _integrate_result(result, args, kwargs, info):
    info["norm_drift"] = result.norm_drift


def _mc_args(args, kwargs, info):
    info["samples"] = int(args[3] if len(args) > 3 else kwargs["n_samples"])
    return args


def _file_result(result, args, kwargs, info):
    info["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])


HOOKS = {
    "dynamics.integrate_schrodinger": (_integrate_hooks, _integrate_result),
    "budget.ramsey_contrast_mc": (_mc_args, None),
    "output.write_csv": (None, _file_result),
    "output.write_json": (None, _file_result),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._unit = None
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._unit)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if before is not None:
                    span.info = {}
                    args = before(args, kwargs, span.info)
                result = fn(*args, **kwargs)
                if after is not None:
                    span.info = span.info or {}
                    after(result, args, kwargs, span.info)
                return result
            finally:
                self._close(span)

        return traced

    def run_unit(self, unit_id, fn, *args):
        """Call fn(*args) inside a root span for one unit of work."""
        self._unit = unit_id
        span = self._open(UNIT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._unit = None

    def install(self, modules):
        """Wrap every listed function wherever one of ``modules`` names it."""
        for layer, names in LAYER_FUNCTIONS.items():
            home = modules[layer]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "unit": s.unit, "info": s.info}) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _outermost(spans, names):
    """Total duration of spans named in ``names`` with no ancestor in ``names``."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.duration
    return total


def layer_metrics(spans, units):
    """Per-layer metrics, as means per unit over ``units`` traced units."""
    own = self_times(spans)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    h_evals = td_evals = integrate_calls = mc_samples = files = written = 0
    td_integrate_s = 0.0
    max_drift = 0.0
    unit_s = 0.0
    for s, t in zip(spans, own):
        layer = s.name.partition(".")[0]
        layer_self[layer] += t
        layer_calls[layer] += 1
        if s.name == UNIT_SPAN:
            unit_s += s.duration
        elif s.name == "dynamics.integrate_schrodinger":
            integrate_calls += 1
            h_evals += s.info["h_evals"]
            if not s.info["constant"]:
                td_evals += s.info["h_evals"]
                td_integrate_s += s.duration
            max_drift = max(max_drift, s.info.get("norm_drift", 0.0))
        elif s.name == "budget.ramsey_contrast_mc":
            mc_samples += s.info["samples"]
        elif s.name in ("output.write_csv", "output.write_json"):
            files += 1
            written += s.info["bytes"]

    mc_s = _outermost(spans, {"budget.ramsey_contrast_mc"})
    hyperfine_s = layer_self["hyperfine"]
    per_unit = {
        "trace.unit_s": unit_s,
        "dynamics.self_s": layer_self["dynamics"],
        "dynamics.stirap_s": _outermost(spans, {"dynamics.stirap_trajectory",
                                                "dynamics.simulate_stirap"}),
        "dynamics.raman_s": _outermost(spans, {"dynamics.raman_trajectory"}),
        "dynamics.integrate_calls": integrate_calls,
        "dynamics.h_evals": h_evals,
        "budget.self_s": layer_self["budget"],
        "budget.mc_s": mc_s,
        "budget.mc_samples": mc_samples,
        "output.s": layer_self["output"],
        "output.files": files,
        "output.bytes": written,
        "cli.self_s": layer_self["cli"],
        "hyperfine.s": hyperfine_s,
        "hyperfine.calls": layer_calls["hyperfine"],
        "scenario.parse_s": _outermost(spans, {"scenario.load_scenario_text"}),
        "scenario.calls": layer_calls["scenario"],
        "gate.self_s": layer_self["gate"],
        "gate.quadrature_s": _outermost(spans, {"gate.accumulated_phase_numeric"}),
        "gate.profile_s": _outermost(spans, {"gate.accumulated_phase_profile"}),
        "gate.calls": layer_calls["gate"],
    }
    metrics = {name: value / units for name, value in per_unit.items()}
    metrics["dynamics.us_per_h_eval"] = 1e6 * td_integrate_s / td_evals if td_evals else 0.0
    metrics["dynamics.max_norm_drift"] = max_drift
    metrics["budget.ns_per_sample"] = 1e9 * mc_s / mc_samples if mc_samples else 0.0
    metrics["hyperfine.us_per_call"] = (1e6 * hyperfine_s / layer_calls["hyperfine"]
                                        if layer_calls["hyperfine"] else 0.0)
    return metrics
