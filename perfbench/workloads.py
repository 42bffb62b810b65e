"""The four benchmark workloads.

Each workload has a ``setup`` that turns the seed into inputs, written to
disk where the program reads files, and a ``run`` that takes those inputs
to a verified result: it calls the program, then checks the outputs at
the tolerances the acceptance suite pins.  A benchmark run repeats ``run``
on the same inputs, so its repetitions time identical work.  ``run`` returns the
checks and a digest of the final states and report values, so traced and
untraced runs can be compared bit for bit.

Functions of the program are looked up as module attributes at call time
(``integrate.integrate_reduced``, not a name imported once), so the
traced run's wrappers see them.

Sizes are cut from the acceptance-suite defaults so that one repetition
takes a few seconds at most on a 2-core machine; ``smoke`` sizes are for
the warm-up and the self-test.  Why each workload exists is recorded in
spec.py and BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List

import jsonschema
import numpy as np
import yaml

from routhkit import cli, ellipsoid, integrate, reduction, trajectory_io, verify
from routhkit.integrate import IntegratorConfig
from routhkit.reduction import FullState, MomentumValue, ReducedState
from routhkit.rigidbody import RigidBodyParams, rb_system

# The frozen acceptance-suite body and zero-momentum state.
TRIAXIAL = (1.0, 2.0, 3.0)
GENERIC_Q = [0.7, 1.1]
GENERIC_QDOT = [0.4, 0.15]

# Pinned tolerances of every check the CLI reports; a report whose check
# set or tolerances differ from these fails the run.
VERIFY_CHECKS = {
    "momentum-round-trip": 1e-12,
    "symplectic-determinant-identity": 1e-5,
    "zero-momentum-degeneration": 1e-12,
    "closed-form-reduced-lagrangian": 1e-10,
    "asymmetric-metric-rejected": 0.0,
    "projection-equivalence": 1e-6,
    "reconstruction-angle-match": 1e-6,
    "reconstruction-momentum-residual": 1e-10,
}
KOLOSOV_CHECKS = {
    "zero-energy-relation": 1e-6,
    "conformal-flow-match": 1e-5,
    "rescaled-speed-constancy": 1e-5,
    "section-periods-distinct": 1e-6,
    "lambda-endpoint-consistency": 1e-8,
    "rotating-frame-periodicity": 1e-6,
}
PASS_IF_ABOVE = {"section-periods-distinct"}
CLOSURE_TOL = 1e-8
GAP_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-6
MOMENTUM_DRIFT_TOL = 1e-7
SURFACE_TOL = 1e-8

_SCHEMA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "routhkit", "schemas", "verify_report.schema.json")


@dataclass
class Check:
    name: str
    value: float
    tolerance: float
    above: bool = False

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.value):
            return False
        return self.value > self.tolerance if self.above else self.value <= self.tolerance


@dataclass
class Outcome:
    checks: List[Check]
    digest: str


@dataclass
class Workload:
    """``n_checks`` is what a repetition that raises counts as failed."""

    n_checks: int
    setup: Callable
    run: Callable


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _run_cli(argv, span, outputs) -> int:
    """Call the CLI in-process; its console output is kept off our stdout.

    ``outputs`` are removed first, so a report left by an earlier repetition
    can never pass for this one.
    """
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    buf = io.StringIO()
    with span("cli.main"), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    if code != 0:
        print(buf.getvalue(), end="", file=sys.stderr)
    return code


def _report_checks(report: dict, pinned: Dict[str, float]) -> List[Check]:
    """Checks from a CLI report, re-judged at the pinned tolerances."""
    got = {c["name"]: c for c in report["checks"]}
    out = []
    for name, tol in pinned.items():
        entry = got.get(name)
        if entry is None or entry["tolerance"] != tol:
            out.append(Check(name, math.inf, tol))  # missing or loosened: fail
            continue
        out.append(Check(name, float(entry["value"]), tol, name in PASS_IF_ABOVE))
    extra = sorted(set(got) - set(pinned))
    if extra:
        out.append(Check("unexpected-checks:" + ",".join(extra), math.inf, 0.0))
    if report.get("all_passed") is not True:
        out.append(Check("report-all-passed", 1.0, 0.0))
    return out


def _write_yaml(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        yaml.safe_dump(payload, handle)


# ---------------------------------------------------------------------------
# rb-verify


def _setup_rb_verify(seed: int, workdir: str, smoke: bool) -> dict:
    # The rigid-body inputs are the frozen acceptance state; the seed does not
    # change them, so rigid-body counts are the same on every seed.
    config = os.path.join(workdir, "verify.yaml")
    _write_yaml(config, {
        "system": "rigid-body", "inertia": list(TRIAXIAL), "potential": {"kind": "none"},
        "momentum": {"xi": [], "eta": [0.0]},
        "t_end": 0.05 if smoke else 1.0, "dt": 1e-3,
        "initial": {"reduced": {"q": GENERIC_Q, "qdot": GENERIC_QDOT}},
    })
    with open(_SCHEMA) as handle:
        schema = json.load(handle)
    cfg = cli.cfgmod.load_config(config)
    cli.cfgmod.build_system(cfg)
    return {"config": config, "report": os.path.join(workdir, "verify_report.json"),
            "validator": jsonschema.Draft7Validator(schema)}


def _run_rb_verify(ctx: dict, span) -> Outcome:
    code = _run_cli(["verify", "--config", ctx["config"], "--output", ctx["report"]], span,
                    [ctx["report"]])
    with span("bench.check"):
        checks = [Check("cli-exit-code", float(code), 0.0)]
        with open(ctx["report"]) as handle:
            report = json.load(handle)
        errors = list(ctx["validator"].iter_errors(report))
        checks.append(Check("report-schema-errors", float(len(errors)), 0.0))
        checks += _report_checks(report, VERIFY_CHECKS)
        digest = _digest([(c["name"], float(c["value"]).hex()) for c in report["checks"]])
    return Outcome(checks, digest)


# ---------------------------------------------------------------------------
# rb-kolosov


def _setup_rb_kolosov(seed: int, workdir: str, smoke: bool) -> dict:
    # The acceptance-suite run takes ~47 s.  The free body's zero-momentum
    # motions are homogeneous in the velocity, so raising the energy 100-fold
    # runs the same orbits 10x faster; at dt = 4e-3 the RK4 runs take 40x
    # fewer steps than at h0 with dt = 1e-3, and every check keeps 1.5 or
    # more digits of margin.
    params = RigidBodyParams(*TRIAXIAL)
    r0 = ReducedState(q=GENERIC_Q, qdot=GENERIC_QDOT)
    h0 = reduction.reduced_energy(rb_system(params), MomentumValue.zero(0, 1), r0)
    scale = 10.0
    config = os.path.join(workdir, "kolosov.yaml")
    _write_yaml(config, {
        "system": "rigid-body", "inertia": list(TRIAXIAL), "potential": {"kind": "none"},
        "momentum": {"xi": [], "eta": [0.0]},
        "energy_target": float(h0 * scale ** 2), "dt": 0.01 if smoke else 0.004,
        "initial": {"reduced": {"q": GENERIC_Q, "qdot": GENERIC_QDOT}},
    })
    cfg = cli.cfgmod.load_config(config)
    cli.cfgmod.build_system(cfg)
    return {"config": config, "params": params,
            "csv": os.path.join(workdir, "ellipsoid.csv"),
            "report": os.path.join(workdir, "kolosov_report.json")}


def _read_csv_rows(path: str) -> np.ndarray:
    """Data rows of a trajectory CSV, parsed without trajectory_io so that the
    check does not rely on the code that wrote the file."""
    with open(path) as handle:
        lines = [ln for ln in handle if ln.strip() and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _run_rb_kolosov(ctx: dict, span) -> Outcome:
    code = _run_cli(["kolosov", "--config", ctx["config"], "--output", ctx["csv"],
                     "--report", ctx["report"]], span, [ctx["csv"], ctx["report"]])
    with span("bench.check"):
        checks = [Check("cli-exit-code", float(code), 0.0)]
        with open(ctx["report"]) as handle:
            report = json.load(handle)
        checks += _report_checks(report, KOLOSOV_CHECKS)
        for plane in ("x", "y", "z"):
            checks.append(Check(f"section-{plane}-closure",
                                float(report["sections"][plane]["closure_error"]), CLOSURE_TOL))
        # the rescaled-time image must lie on the inertia ellipsoid
        p = ctx["params"]
        rows = _read_csv_rows(ctx["csv"])
        u = rows[:, 1:4]
        residual = np.abs(p.A * u[:, 0] ** 2 + p.B * u[:, 1] ** 2 + p.C * u[:, 2] ** 2 - 1.0)
        checks.append(Check("ellipsoid-csv-on-surface", float(residual.max()), SURFACE_TOL))
        checks.append(Check("ellipsoid-csv-time-increasing",
                            float(np.any(np.diff(rows[:, 0]) <= 0)), 0.0))
        values = [(c["name"], float(c["value"]).hex()) for c in report["checks"]]
        digest = _digest(values, report["sections"], rows)
    return Outcome(checks, digest)


# ---------------------------------------------------------------------------
# synthetic-momentum


def _setup_synthetic(seed: int, workdir: str, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    sys_ = verify.random_system(rng, n=3, k=1, l=2, constant=False)
    f = verify.random_momentum(rng, sys_)
    r0 = ReducedState(q=rng.normal(size=sys_.n), qdot=0.5 * rng.normal(size=sys_.n))
    x0 = rng.normal(size=sys_.k)
    psi0 = rng.uniform(0.0, 2.0 * math.pi, size=sys_.l)
    labels = ([f"q{i}" for i in range(sys_.n)] + [f"q{i}dot" for i in range(sys_.n)])
    return {"system": sys_, "f": f, "r0": r0, "x0": x0, "psi0": psi0, "labels": labels,
            "t_end": 0.02 if smoke else 0.25,
            "cfg": IntegratorConfig(method="rk4", dt=1e-3),
            "csv": os.path.join(workdir, "reduced.csv")}


def _run_synthetic(ctx: dict, span) -> Outcome:
    sys_, f, r0, cfg, t_end = ctx["system"], ctx["f"], ctx["r0"], ctx["cfg"], ctx["t_end"]
    n, nc = sys_.n, sys_.n_cyclic
    red = integrate.integrate_reduced(sys_, f, r0, 0.0, t_end, cfg)
    trajectory_io.write_trajectory_csv(ctx["csv"], red, ctx["labels"])
    back, _ = trajectory_io.read_trajectory_csv(ctx["csv"])
    rec = integrate.reconstruct(sys_, f, back, x0=ctx["x0"], psi0=ctx["psi0"])
    s0 = reduction.complete_state(sys_, f, r0, x=ctx["x0"], psi=ctx["psi0"])
    full = integrate.integrate_full(sys_, s0, 0.0, t_end, cfg)

    with span("bench.check"):
        round_trip = max(float(np.max(np.abs(back.states - red.states))),
                         float(np.max(np.abs(back.times - red.times))))
        shape_cols = list(range(n)) + list(range(n + nc, 2 * n + nc))
        gap = float(np.max(np.abs(full.states[:, shape_cols] - red.states)))
        cyc_gap = float(np.max(np.abs(rec.states[:, n:n + nc] - full.states[:, n:n + nc])))
        e0 = red.meta.energy0
        drift_e = max(abs(reduction.reduced_energy(sys_, f, ReducedState(q=row[:n], qdot=row[n:]))
                          - e0) for row in red.states) / max(1.0, abs(e0))
        target = f.as_vector()
        drift_j = 0.0
        for row in full.states:
            st = FullState.from_vector(sys_, row)
            drift_j = max(drift_j, float(np.max(np.abs(
                reduction.momentum_map(sys_, st).as_vector() - target))))
        checks = [
            Check("csv-round-trip-bit-exact", round_trip, 0.0),
            Check("projection-equivalence", gap, GAP_TOL),
            Check("reconstruction-cyclic-match", cyc_gap, GAP_TOL),
            Check("reduced-energy-drift", drift_e, ENERGY_DRIFT_TOL),
            Check("full-momentum-drift", drift_j, MOMENTUM_DRIFT_TOL),
        ]
        digest = _digest(red.states, full.states, rec.states)
    return Outcome(checks, digest)


# ---------------------------------------------------------------------------
# geodesic-shoot


# One perturbed principal-section geodesic.  At the acceptance sizes (nine
# orbits of three bodies, 1e-3 perturbations, period guesses drawn within
# 1%) one repetition takes ~70 s and the Newton iteration count varies from
# 3 to 8 with the draw.  Here the seed draws the direction of a perturbation
# of fixed size (1e-3 of the state's norm) and the sign of a period guess
# exactly 1% off; on the x-section of the (1, 1.5, 2) body that takes 4
# Newton iterations for every seed tried, so the seed moves the inputs but
# not the amount of work.
SHOOT_BODY = (1.0, 1.5, 2.0)
SHOOT_PLANE = "x"
SHOOT_H = 0.5
SHOOT_CFG = IntegratorConfig(method="rk45", dt=1e-2, abs_tol=1e-12, rel_tol=1e-12)
DSIGMA_CFG = IntegratorConfig(method="rk4", dt=1e-2)


def _setup_geodesic(seed: int, workdir: str, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    body, size, period_err = ((1.0, 1.0, 1.0), 1e-6, 1e-5) if smoke else (SHOOT_BODY, 1e-3, 1e-2)
    p = RigidBodyParams(*body)
    cd = ellipsoid.ConformalData(h=SHOOT_H)
    seed_state, period = ellipsoid.section_seed(p, cd, SHOOT_PLANE)
    direction = rng.normal(size=6)
    state = seed_state + size * np.linalg.norm(seed_state) * direction / np.linalg.norm(direction)
    u, udot = ellipsoid.project_to_surface(p, state[:3], state[3:])
    guess = np.concatenate([u, udot])
    return {"params": p, "cd": cd, "guess": guess,
            "period": period * (1.0 + period_err * rng.choice([-1.0, 1.0])),
            "phase_index": 3 + int(np.argmax(np.abs(guess[3:])))}


def _run_geodesic(ctx: dict, span) -> Outcome:
    p, cd = ctx["params"], ctx["cd"]

    def flow(state, period):
        start = ellipsoid.EllipsoidState.from_vector(state)
        return ellipsoid.constrained_flow(p, cd, start, 0.0, period, SHOOT_CFG).states[-1]

    orbit = integrate.shoot_periodic(flow, ctx["guess"], ctx["period"], SHOOT_CFG,
                                     tol=CLOSURE_TOL, phase_index=ctx["phase_index"])
    length = ellipsoid.dsigma_length(p, cd, orbit, DSIGMA_CFG)
    with span("bench.check"):
        end = flow(orbit.initial_state, orbit.period)
        closure = float(np.max(np.abs(end - orbit.initial_state)))
        checks = [
            Check("closure", closure, CLOSURE_TOL),
            Check("on-surface", abs(ellipsoid.surface_residual(p, orbit.initial_state[:3])),
                  SURFACE_TOL),
            Check("dsigma-length-positive", length, 0.0, above=True),
        ]
        digest = _digest(orbit.initial_state, [float(orbit.period).hex(), float(length).hex(),
                                               int(orbit.iterations)])
    return Outcome(checks, digest)


WORKLOADS = {
    "rb-verify": Workload(2 + len(VERIFY_CHECKS), _setup_rb_verify, _run_rb_verify),
    "rb-kolosov": Workload(1 + len(KOLOSOV_CHECKS) + 5, _setup_rb_kolosov, _run_rb_kolosov),
    "synthetic-momentum": Workload(5, _setup_synthetic, _run_synthetic),
    "geodesic-shoot": Workload(3, _setup_geodesic, _run_geodesic),
}
