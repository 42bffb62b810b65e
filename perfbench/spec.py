"""Metric definitions, the single source for run.py and BENCHMARK.json.

End-to-end metrics come from untraced runs and carry the bound by which
a change may worsen their median before it counts as a regression.
Per-layer metrics come from the traced run; each comment names the
end-to-end metric and workload it is expected to move.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

# Why each workload exists; mirrored into BENCHMARK.json by manifest.py.
WORKLOADS = [
    {"name": "rb-verify",
     "why": "only workload where the rigid-body full RHS runs (routhkit verify, t=1); traced "
            "shares: reduced RHS 49%, full RHS 30%, cyclic solves 7%"},
    {"name": "rb-kolosov",
     "why": "the paper's headline pipeline (routhkit kolosov, frozen seed, 100x energy); "
            "shares: reduced RHS 38%, ellipsoid RHS 25%, stepping 16%, quadrature 11%"},
    {"name": "synthetic-momentum",
     "why": "seeded q-dependent system at nonzero momentum: general solve path and CSV round "
            "trip; shares: reduced RHS 56%, full RHS 25%"},
    {"name": "geodesic-shoot",
     "why": "Newton refinement (4 iterations) of a seeded perturbed closed geodesic; shares: "
            "ellipsoid RHS 55%, DP45 stepping 38%; reduction does no work"},
]

# Timing bounds are 0.25: on a shared 2-vCPU VM the machine's own speed
# drifts by 10-25% between runs a minute apart (a CPU-bound loop measured
# alone shows the same drift), so the run-to-run spread of every timing is
# 0.05-0.25 whatever the run length or statistic; see BASELINE.md.
END_TO_END = [
    # time from the first timed call to the verified result, tracing off
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    # fresh interpreter: import routhkit, write/load config or generate
    # inputs, build the system; median of SETUP_PROBES interpreters
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    # user+sys CPU time of the timed part; read against wall_s
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def _layer(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    # wall_s on rb-kolosov (most), rb-verify, synthetic-momentum; 0 on geodesic-shoot
    _layer("reduction.metric_calls", "count"),
    _layer("reduction.metric_calls_per_rhs", "count"),
    _layer("reduction.reduced_rhs_calls", "count"),
    _layer("reduction.reduced_rhs_s", "s"),
    _layer("reduction.reduced_rhs_us", "us"),
    # wall_s on rb-kolosov and synthetic-momentum (reconstruction, energy checks)
    _layer("reduction.solve_cyclic_calls", "count"),
    _layer("reduction.solve_cyclic_s", "s"),
    # wall_s on rb-verify and synthetic-momentum; 0 on rb-kolosov
    _layer("integrate.full_rhs_calls", "count"),
    _layer("integrate.full_rhs_s", "s"),
    _layer("integrate.full_rhs_us", "us"),
    # wall_s on every workload, in proportion to the steps
    _layer("integrate.rk4_steps", "count"),
    _layer("integrate.stepper_self_s", "s"),
    # wall_s on geodesic-shoot
    _layer("integrate.dp45_trials", "count"),
    _layer("integrate.dp45_accept_ratio", "ratio", "higher"),
    # wall_s on geodesic-shoot; unchanged on rb-kolosov (0 iterations)
    _layer("integrate.shoot_iterations", "count"),
    _layer("integrate.shoot_flow_calls", "count"),
    _layer("integrate.flow_calls_per_iteration", "count"),
    _layer("integrate.shoot_s", "s"),
    # wall_s on rb-kolosov and synthetic-momentum
    _layer("integrate.reconstruct_s", "s"),
    _layer("integrate.quadrature_s", "s"),
    # wall_s on geodesic-shoot (most) and rb-kolosov
    _layer("ellipsoid.flow_rhs_calls", "count"),
    _layer("ellipsoid.flow_rhs_s", "s"),
    _layer("ellipsoid.flow_rhs_us", "us"),
    _layer("ellipsoid.project_calls", "count"),
    _layer("ellipsoid.project_s", "s"),
    _layer("ellipsoid.sections_s", "s"),
    _layer("ellipsoid.dsigma_s", "s"),
    # wall_s on rb-verify
    _layer("verify.algebra_checks_s", "s"),
    _layer("verify.projection_s", "s"),
    # wall_s on rb-kolosov
    _layer("verify.window_reduced_s", "s"),
    _layer("verify.flow_match_s", "s"),
    _layer("verify.equatorial_s", "s"),
    _layer("rigidbody.rotating_frame_s", "s"),
    _layer("rigidbody.lambda_average_s", "s"),
    # wall_s on rb-kolosov (write) and synthetic-momentum (write and read)
    _layer("trajectory_io.write_s", "s"),
    _layer("trajectory_io.write_bytes", "bytes"),
    _layer("trajectory_io.read_s", "s"),
    # setup_s on rb-verify and rb-kolosov
    _layer("config.load_s", "s"),
    # wall_s on rb-verify and rb-kolosov: argument parsing, report writing
    _layer("cli.self_s", "s"),
    # traced wall_s / untraced wall_s - 1
    _layer("trace.overhead_ratio", "ratio"),
    # top-level spans over traced wall_s; the run fails below 0.9
    _layer("trace.top_level_coverage", "ratio", "higher"),
    # min over checks of log10(tolerance / value); 16 for an exact zero
    _layer("check_margin_digits", "digits", "higher"),
    # failed checks / checks attempted
    _layer("checks_failed_ratio", "ratio"),
]
