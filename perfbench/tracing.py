"""Spans and counters recorded from outside the program.

The traced run replaces public names of routhkit modules with wrappers,
in the namespace where the calling module looks each name up (for example
``routhkit.verify.integrate_reduced`` and ``routhkit.integrate.integrate_ode``
are wrapped separately).  The program's files are not modified and every
wrapper calls the original object with the original arguments, so traced
and untraced runs produce bit-identical numbers; the benchmark checks
that by comparing output digests.

Two kinds of record:

* spans: name, start, end, parent span and run id, one per call of a
  wrapped function.  They are kept in memory and written out when the
  benchmark ends.  A span's self time is its duration minus the time of
  its children.
* hot calls: right-hand sides, projections and cyclic solves run
  thousands of times per span, so they are aggregated (count and
  seconds) instead of stored one by one.  Their time is still charged to
  the enclosing span as child time.  Integrator steps are only counted.

A few wrapped names are private: the RK4 and DP45 step helpers, the
ellipsoid flow factories and ``verify._equatorial_analysis``.  They are
optional: if a later version of the program drops one, the metrics it
feeds read 0 and a note goes to stderr.  A missing public name fails the
traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import sys
import time
from collections import Counter
from dataclasses import replace

_clock = time.perf_counter

# (module, attribute, span name).  Names are wrapped where the caller looks
# them up, so one function may appear under several modules.
SPANS = [
    ("routhkit.config", "load_config", "config.load"),
    ("routhkit.cli", "run_verify", "verify.run_verify"),
    ("routhkit.cli", "run_kolosov", "verify.run_kolosov"),
    ("routhkit.cli", "write_trajectory_csv", "trajectory_io.write"),
    ("routhkit.trajectory_io", "write_trajectory_csv", "trajectory_io.write"),
    ("routhkit.trajectory_io", "read_trajectory_csv", "trajectory_io.read"),
    ("routhkit.verify", "momentum_round_trip_check", "verify.algebra"),
    ("routhkit.verify", "determinant_identity_check", "verify.algebra"),
    ("routhkit.verify", "zero_momentum_degeneration_check", "verify.algebra"),
    ("routhkit.verify", "closed_form_lagrangian_check", "verify.algebra"),
    ("routhkit.verify", "asymmetric_rejection_check", "verify.algebra"),
    ("routhkit.verify", "projection_equivalence_check", "verify.projection"),
    ("routhkit.verify", "map_reduced_trajectory", "verify.map_image"),
    ("routhkit.verify", "integrate_grid", "verify.flow_match"),
    ("routhkit.verify", "integrate_reduced", "integrate.integrate_reduced"),
    ("routhkit.verify", "integrate_full", "integrate.integrate_full"),
    ("routhkit.verify", "reconstruct", "integrate.reconstruct"),
    ("routhkit.verify", "reparametrize_time", "integrate.reparametrize"),
    ("routhkit.verify", "propagate", "integrate.propagate"),
    ("routhkit.verify", "shoot_periodic", "integrate.shoot"),
    ("routhkit.verify", "principal_section_orbits", "ellipsoid.sections"),
    ("routhkit.verify", "dsigma_length", "ellipsoid.dsigma"),
    ("routhkit.verify", "lambda_average", "rigidbody.lambda_average"),
    ("routhkit.verify", "rotating_frame_residual", "rigidbody.rotating_frame"),
    ("routhkit.integrate", "integrate_reduced", "integrate.integrate_reduced"),
    ("routhkit.integrate", "integrate_full", "integrate.integrate_full"),
    ("routhkit.integrate", "reconstruct", "integrate.reconstruct"),
    ("routhkit.integrate", "integrate_ode", "integrate.integrate_ode"),
    ("routhkit.integrate", "shoot_periodic", "integrate.shoot"),
    ("routhkit.integrate", "cumulative_quadrature", "integrate.quadrature"),
    ("routhkit.reduction", "complete_state", "reduction.complete_state"),
    ("routhkit.ellipsoid", "integrate_ode", "integrate.integrate_ode"),
    ("routhkit.ellipsoid", "propagate", "integrate.propagate"),
    ("routhkit.ellipsoid", "shoot_periodic", "integrate.shoot"),
    ("routhkit.ellipsoid", "cumulative_quadrature", "integrate.quadrature"),
    ("routhkit.ellipsoid", "section_seed", "ellipsoid.section_seed"),
    ("routhkit.ellipsoid", "constrained_flow", "ellipsoid.constrained_flow"),
    ("routhkit.ellipsoid", "dsigma_length", "ellipsoid.dsigma"),
    ("routhkit.rigidbody", "cumulative_quadrature", "integrate.quadrature"),
]

# Private names: optional, see the module docstring.
OPTIONAL_SPANS = [
    ("routhkit.verify", "_equatorial_analysis", "verify.equatorial"),
]

# Callables run once per step or sample: (module, attribute, counter name).
HOT = [
    ("routhkit.integrate", "solve_cyclic", "reduction.solve_cyclic"),
    ("routhkit.reduction", "solve_cyclic", "reduction.solve_cyclic"),
]
# Step helpers, counted but not timed.
OPTIONAL_STEPS = [
    ("routhkit.integrate", "_rk4_step", "integrate.rk4_step"),
    ("routhkit.integrate", "_dp_step", "integrate.dp45_trial"),
]

# Factories whose returned callable is counted: (module, attribute, counter).
RHS_FACTORIES = [
    ("routhkit.integrate", "reduced_vector_field", "reduction.reduced_rhs"),
    ("routhkit.verify", "reduced_vector_field", "reduction.reduced_rhs"),
    ("routhkit.integrate", "full_rhs", "integrate.full_rhs"),
]
OPTIONAL_RHS_FACTORIES = [
    ("routhkit.ellipsoid", "_flow_rhs", "ellipsoid.flow_rhs"),
    ("routhkit.verify", "_flow_rhs", "ellipsoid.flow_rhs"),
    ("routhkit.ellipsoid", "_flow_project", "ellipsoid.project"),
    ("routhkit.verify", "_flow_project", "ellipsoid.project"),
]

# Factories returning a SymmetricSystem whose mass_matrix is counted.
SYSTEM_FACTORIES = [
    ("routhkit.verify", "rb_system"),
    ("routhkit.verify", "random_system"),
]

# Right-hand sides whose nested mass_matrix calls give metric calls per RHS.
_RHS_FOR_METRIC = ("reduction.reduced_rhs", "integrate.full_rhs")


class Tracer:
    """In-memory spans and counters for one traced repetition at a time."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seconds = Counter()
        self.run_id = ""
        self.active = False
        self._stack = []
        self._rhs_depth = 0
        self._hot_depth = 0
        self._installed = []
        self.missing = []

    def start_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.counts = Counter()
        self.seconds = Counter()
        self._stack = []
        self._rhs_depth = 0
        self._hot_depth = 0
        self.active = True

    def stop_run(self) -> None:
        self.active = False

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name, "start": _clock(), "end": None,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "run": self.run_id, "child_s": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += rec["end"] - rec["start"]

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _charge(self, name: str, seconds: float) -> None:
        self.counts[name] += 1
        self.seconds[name] += seconds
        # a hot call inside another hot call is already inside its time
        if self._stack and not self._hot_depth:
            self._stack[-1]["child_s"] += seconds

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "integrate.shoot":
                args, kwargs = tracer._count_flow(args, kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            tracer._after(name, args, kwargs, out)
            return out

        return wrapper

    def _count_flow(self, args, kwargs):
        """Shooting flows become spans, so flow calls per Newton step show."""
        flow = args[0] if args else kwargs["flow"]
        counted = self._span_wrapper(flow, "integrate.shoot_flow")
        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, flow=counted)

    def _after(self, name, args, kwargs, out) -> None:
        if name == "integrate.shoot":
            self.counts["integrate.shoot_iterations"] += int(out.iterations)
        elif name == "integrate.integrate_ode":
            cfg = args[4] if len(args) > 4 else kwargs["cfg"]
            if cfg.method == "rk45":
                self.counts["integrate.dp45_accepted"] += int(out.times.size - 1)
        elif name == "trajectory_io.write":
            path = args[0] if args else kwargs["path"]
            self.counts["trajectory_io.write_bytes"] += os.path.getsize(path)

    def _hot_wrapper(self, fn, name, is_rhs=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = _clock()
            tracer._hot_depth += 1
            tracer._rhs_depth += is_rhs
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._rhs_depth -= is_rhs
                tracer._hot_depth -= 1
                tracer._charge(name, _clock() - t0)

        return wrapper

    def _count_wrapper(self, fn, name):
        """Count only: steps contain the RHS calls, whose time is charged already."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factory_wrapper(self, factory, name):
        tracer = self
        is_rhs = name in _RHS_FOR_METRIC

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer._hot_wrapper(factory(*args, **kwargs), name, is_rhs)

        return wrapper

    def count_metric(self, system):
        """Copy of ``system`` whose mass_matrix calls are counted."""
        tracer = self
        mass = system.mass_matrix

        def mass_matrix(q):
            if tracer.active:
                tracer.counts["reduction.metric"] += 1
                if tracer._rhs_depth:
                    tracer.counts["reduction.metric_in_rhs"] += 1
            return mass(q)

        return replace(system, mass_matrix=mass_matrix)

    def _system_wrapper(self, factory):
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer.count_metric(factory(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Replace the listed names by wrappers; undone by :meth:`uninstall`."""
        plan = [(m, a, False, self._span_wrapper, n) for m, a, n in SPANS]
        plan += [(m, a, True, self._span_wrapper, n) for m, a, n in OPTIONAL_SPANS]
        plan += [(m, a, False, self._hot_wrapper, n) for m, a, n in HOT]
        plan += [(m, a, True, self._count_wrapper, n) for m, a, n in OPTIONAL_STEPS]
        plan += [(m, a, False, self._factory_wrapper, n) for m, a, n in RHS_FACTORIES]
        plan += [(m, a, True, self._factory_wrapper, n) for m, a, n in OPTIONAL_RHS_FACTORIES]
        plan += [(m, a, False, lambda fn, _: self._system_wrapper(fn), None)
                 for m, a in SYSTEM_FACTORIES]
        for module_name, attr, optional, make, name in plan:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if not optional:
                    raise AttributeError(f"{module_name}.{attr} is gone; update perfbench/trace.py")
                if (module_name, attr) not in self.missing:
                    self.missing.append((module_name, attr))
                    print(f"perfbench: {module_name}.{attr} not found; its counter reads 0",
                          file=sys.stderr)
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, make(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    # -- summaries -----------------------------------------------------------

    def run_spans(self, run_id: str):
        return [s for s in self.spans if s["run"] == run_id]


def layer_metrics(spans, counts, seconds, wall_s: float) -> dict:
    """Per-layer values of one traced repetition (see BENCHMARK.json)."""

    def total(name, parent_name=None):
        by_id = {s["id"]: s for s in spans}
        out = 0.0
        for s in spans:
            if s["name"] != name:
                continue
            if parent_name is not None:
                parent = by_id.get(s["parent"])
                if parent is None or parent["name"] != parent_name:
                    continue
            out += s["end"] - s["start"]
        return out

    def self_time(*names):
        return sum(s["end"] - s["start"] - s["child_s"] for s in spans if s["name"] in names)

    def per_call_us(name):
        return 1e6 * seconds[name] / counts[name] if counts[name] else 0.0

    reduced = counts["reduction.reduced_rhs"]
    full = counts["integrate.full_rhs"]
    iterations = counts["integrate.shoot_iterations"]
    flow_calls = sum(1 for s in spans if s["name"] == "integrate.shoot_flow")
    trials = counts["integrate.dp45_trial"]
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {
        "reduction.metric_calls": counts["reduction.metric"],
        "reduction.metric_calls_per_rhs":
            counts["reduction.metric_in_rhs"] / (reduced + full) if reduced + full else 0.0,
        "reduction.reduced_rhs_calls": reduced,
        "reduction.reduced_rhs_s": seconds["reduction.reduced_rhs"],
        "reduction.reduced_rhs_us": per_call_us("reduction.reduced_rhs"),
        "reduction.solve_cyclic_calls": counts["reduction.solve_cyclic"],
        "reduction.solve_cyclic_s": seconds["reduction.solve_cyclic"],
        "integrate.full_rhs_calls": full,
        "integrate.full_rhs_s": seconds["integrate.full_rhs"],
        "integrate.full_rhs_us": per_call_us("integrate.full_rhs"),
        "integrate.rk4_steps": counts["integrate.rk4_step"],
        "integrate.stepper_self_s": self_time("integrate.integrate_ode", "integrate.propagate",
                                              "verify.flow_match"),
        "integrate.dp45_trials": trials,
        "integrate.dp45_accept_ratio":
            counts["integrate.dp45_accepted"] / trials if trials else 0.0,
        "integrate.shoot_iterations": iterations,
        "integrate.shoot_flow_calls": flow_calls,
        "integrate.flow_calls_per_iteration": flow_calls / iterations if iterations else 0.0,
        "integrate.shoot_s": total("integrate.shoot"),
        "integrate.reconstruct_s": total("integrate.reconstruct"),
        "integrate.quadrature_s": self_time("integrate.quadrature"),
        "ellipsoid.flow_rhs_calls": counts["ellipsoid.flow_rhs"],
        "ellipsoid.flow_rhs_s": seconds["ellipsoid.flow_rhs"],
        "ellipsoid.flow_rhs_us": per_call_us("ellipsoid.flow_rhs"),
        "ellipsoid.project_calls": counts["ellipsoid.project"],
        "ellipsoid.project_s": seconds["ellipsoid.project"],
        "ellipsoid.sections_s": total("ellipsoid.sections"),
        "ellipsoid.dsigma_s": total("ellipsoid.dsigma"),
        "verify.algebra_checks_s": total("verify.algebra"),
        "verify.projection_s": total("verify.projection"),
        "verify.window_reduced_s": total("integrate.integrate_reduced", "verify.run_kolosov"),
        "verify.flow_match_s": total("verify.flow_match"),
        "verify.equatorial_s": total("verify.equatorial"),
        "rigidbody.rotating_frame_s": total("rigidbody.rotating_frame"),
        "rigidbody.lambda_average_s": total("rigidbody.lambda_average"),
        "trajectory_io.write_s": total("trajectory_io.write"),
        "trajectory_io.write_bytes": counts["trajectory_io.write_bytes"],
        "trajectory_io.read_s": total("trajectory_io.read"),
        "config.load_s": total("config.load"),
        "cli.self_s": self_time("cli.main"),
        "trace.top_level_coverage": top / wall_s if wall_s > 0 else 0.0,
    }


def margin_digits(value: float, tolerance: float, above: bool = False) -> float:
    """log10(tolerance / value), inverted for pass-if-above checks; 0 residual -> 16."""
    if above:
        value, tolerance = tolerance, value
    if value == 0.0:
        return 16.0
    if tolerance == 0.0:
        return -16.0
    return min(16.0, math.log10(tolerance / value))
