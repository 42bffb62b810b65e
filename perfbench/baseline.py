"""Acceptance-size reference figures, for comparison with ROADMAP.md.

    python3 perfbench/baseline.py     # about 70 s on a 2-core machine

Prints, as markdown rows:
  * microseconds per call of the reduced, full and ellipsoid right-hand
    sides (median of 5 batches of 2000 direct calls);
  * integrate_reduced over t = 10 at dt = 1e-3 on the frozen seed;
  * the stage split of run_kolosov at its acceptance defaults (dt = 1e-3,
    energy of the frozen seed), from one traced run (see tracing.py).
These sizes are far above what one benchmark repetition may take, so the
figures are recorded in BASELINE.md rather than measured on every run.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from routhkit import ellipsoid, integrate, verify  # noqa: E402
from routhkit.integrate import IntegratorConfig  # noqa: E402
from routhkit.reduction import (  # noqa: E402
    MomentumValue, ReducedState, complete_state, reduced_energy)
from routhkit.rigidbody import RigidBodyParams, rb_system  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import GENERIC_Q, GENERIC_QDOT, TRIAXIAL  # noqa: E402


def per_call_us(fn, y, calls=2000, batches=5):
    out = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(y)
        out.append(1e6 * (time.perf_counter() - t0) / calls)
    return statistics.median(out)


def main():
    params = RigidBodyParams(*TRIAXIAL)
    system = rb_system(params)
    f0 = MomentumValue.zero(0, 1)
    r0 = ReducedState(q=GENERIC_Q, qdot=GENERIC_QDOT)
    s0 = complete_state(system, f0, r0, psi=[0.5])
    h = reduced_energy(system, f0, r0)
    cd = ellipsoid.ConformalData(h=h)
    seed, _ = ellipsoid.section_seed(params, cd, "z")

    rows = [
        ("reduced RHS, us per call", "195",
         per_call_us(integrate.reduced_vector_field(system, f0), r0.to_vector())),
        ("full RHS, us per call", "111", per_call_us(integrate.full_rhs(system), s0.to_vector())),
        ("ellipsoid RHS, us per call", "47", per_call_us(ellipsoid._flow_rhs(params, cd), seed)),
    ]
    cfg = IntegratorConfig(method="rk4", dt=1e-3, max_steps=10_000_000)
    t0 = time.perf_counter()
    integrate.integrate_reduced(system, f0, r0, 0.0, 10.0, cfg)
    rows.append(("integrate_reduced, t=10, dt=1e-3 (s)", "7.2", time.perf_counter() - t0))

    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_run("baseline-kolosov")
        t0 = time.perf_counter()
        with tracer.span("verify.run_kolosov"):
            verify.run_kolosov(params, r0, dt=1e-3)
        wall = time.perf_counter() - t0
        tracer.stop_run()
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.spans, tracer.counts, tracer.seconds, wall)
    rows += [
        ("run_kolosov, traced (s)", "47", wall),
        ("  equatorial analysis (s)", "34", m["verify.equatorial_s"]),
        ("  window integrate_reduced (s)", "", m["verify.window_reduced_s"]),
        ("  reconstruct (s)", "", m["integrate.reconstruct_s"]),
        ("  dsigma_length (s)", "", m["ellipsoid.dsigma_s"]),
        ("  flow match, integrate_grid (s)", "", m["verify.flow_match_s"]),
        ("  principal sections (s)", "", m["ellipsoid.sections_s"]),
        ("  reduced RHS share of run_kolosov", "0.78", m["reduction.reduced_rhs_s"] / wall),
        ("  Newton iterations", "", m["integrate.shoot_iterations"]),
    ]
    print("| figure | ROADMAP re-anchor | this run |")
    print("|---|---|---|")
    for name, roadmap, value in rows:
        print(f"| {name} | {roadmap} | {value:.4g} |")


if __name__ == "__main__":
    main()
