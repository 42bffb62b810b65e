"""Command-line interface.

Verbs: simulate-reduced, simulate-full, reconstruct, verify, kolosov.
Exit codes: 0 ok, 4 when a check fails, otherwise the ``exit_code`` of
the raised error class (2 configuration, 3 chart/domain, 4 consistency,
5 convergence; see ``errors``).  No environment variables are required.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from typing import List, Optional

import numpy as np

from . import config as cfgmod
from .errors import ConfigError, RouthkitError
from .integrate import Trajectory, integrate_full, integrate_reduced, reconstruct
from .trajectory_io import read_trajectory_csv, write_atomic, write_trajectory_csv
from .verify import energy_drift, momentum_drift, report_dict, run_kolosov, run_verify

EXIT_OK = 0
EXIT_CONSISTENCY = 4

TWO_PI = 2.0 * math.pi


def _load(args) -> cfgmod.RunConfig:
    """The config file with the --dt, --t-end and --output flags laid over it."""
    overrides = {key: getattr(args, key) for key in ("dt", "t_end", "output")
                 if getattr(args, key) is not None}
    return cfgmod.load_config(args.config, overrides)


def _output_path(cfg: cfgmod.RunConfig, default: str) -> str:
    return cfg.output if cfg.output else default


def _wrap_angles(traj: Trajectory, columns: List[int]) -> Trajectory:
    """Presentation copy with angle columns reduced into [0, 2*pi)."""
    states = traj.states.copy()
    for col in columns:
        states[:, col] = np.mod(states[:, col], TWO_PI)
    return Trajectory(times=traj.times.copy(), states=states, meta=traj.meta)


def cmd_simulate_reduced(args) -> int:
    cfg = _load(args)
    system = cfgmod.build_system(cfg)
    f = cfgmod.build_momentum(cfg)
    r0 = cfgmod.initial_reduced_state(cfg)
    traj = integrate_reduced(system, f, r0, 0.0, cfg.t_end, cfg.integrator)

    e0 = traj.meta.energy0
    stride = max(1, traj.states.shape[0] // 500)
    # a rest start has E0 = 0, so the drift is relative to max(1, |E0|)
    drift = energy_drift(system, f, traj, stride) / max(1.0, abs(e0))

    path = _output_path(cfg, "reduced.csv")
    write_trajectory_csv(path, traj, cfgmod.state_labels(cfg, reduced=True))
    print(f"wrote {path}: {traj.times.size} samples over t=[0, {cfg.t_end}]")
    print(f"reduced energy E = {e0:.12g}, relative drift {drift:.3e}")
    return EXIT_OK


def cmd_simulate_full(args) -> int:
    cfg = _load(args)
    system = cfgmod.build_system(cfg)
    s0 = cfgmod.initial_full_state(cfg, system)
    traj = integrate_full(system, s0, 0.0, cfg.t_end, cfg.integrator)

    j0 = traj.meta.momentum.as_vector()
    stride = max(1, traj.states.shape[0] // 500)
    drift = momentum_drift(system, traj, stride, traj.meta.momentum)
    # angle coordinates are presented wrapped into [0, 2*pi)
    angle_cols = list(range(system.n + system.k, system.dim))
    path = _output_path(cfg, "full.csv")
    write_trajectory_csv(path, _wrap_angles(traj, angle_cols),
                         cfgmod.state_labels(cfg, reduced=False))
    print(f"wrote {path}: {traj.times.size} samples over t=[0, {cfg.t_end}]")
    print(f"momentum J = {np.array2string(j0, precision=12)}, max drift {drift:.3e}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = _load(args)
    system = cfgmod.build_system(cfg)
    f = cfgmod.build_momentum(cfg)
    red, _ = read_trajectory_csv(args.reduced)
    full = reconstruct(system, f, red,
                       x0=cfg.cyclic0_x if cfg.cyclic0_x.size else None,
                       psi0=cfg.cyclic0_psi if cfg.cyclic0_psi.size else None)
    angle_cols = list(range(system.n + system.k, system.dim))
    path = _output_path(cfg, "reconstructed.csv")
    write_trajectory_csv(path, _wrap_angles(full, angle_cols),
                         cfgmod.state_labels(cfg, reduced=False))
    print(f"wrote {path}: cyclic coordinates recovered by quadrature "
          f"({full.times.size} samples)")
    return EXIT_OK


def _print_results(results) -> bool:
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: value {r.value:.3e} (tolerance {r.tolerance:.1e})"
              + (f" - {r.detail}" if r.detail else ""))
    return all(r.passed for r in results)


def cmd_verify(args) -> int:
    cfg = _load(args)
    if cfg.system != "rigid-body":
        raise ConfigError("verify runs on the rigid-body system")
    params = cfgmod.build_params(cfg)
    r0 = cfgmod.initial_reduced_state(cfg)
    results = run_verify(params, r0, t_end=cfg.t_end, dt=cfg.dt)
    ok = _print_results(results)
    path = _output_path(cfg, "verify_report.json")
    write_atomic(path, json.dumps(report_dict(results, system=cfg.system), indent=2))
    print(("all checks passed" if ok else "some checks FAILED") + f"; report: {path}")
    return EXIT_OK if ok else EXIT_CONSISTENCY


def cmd_kolosov(args) -> int:
    cfg = _load(args)
    if cfg.system != "rigid-body":
        raise ConfigError("kolosov runs on the rigid-body system")
    if cfg.potential_kind != "none":
        raise ConfigError("the ellipsoid equivalence run expects a free body "
                          "(potential kind none)")
    params = cfgmod.build_params(cfg)
    r0 = cfgmod.initial_reduced_state(cfg)
    report = run_kolosov(params, r0, dt=cfg.dt, energy_target=cfg.energy_target)

    print(f"energy constant h = {report.h:.12g}")
    print(f"comparison window: one equatorial section period = {report.window:.6g}")
    for plane in ("x", "y", "z"):
        sec = report.sections[plane]
        print(f"section {plane}=0: period {sec['period']:.12g}, "
              f"closure {sec['closure_error']:.3e}, "
              f"length {sec['dsigma_length']:.12g}")
    print(f"equatorial reduced orbit: period {report.equatorial_period:.12g}, "
          f"average precession rate {report.lambda_avg:.6g}")
    ok = _print_results(report.results())

    traj_path = _output_path(cfg, "ellipsoid.csv")
    write_trajectory_csv(traj_path, report.image_tau,
                         ["x", "y", "z", "xdot", "ydot", "zdot"])
    report_path = args.report if args.report else "kolosov_report.json"
    payload = {**report_dict(report.results(), system=cfg.system),
               "h": report.h, "window": report.window, "sections": report.sections,
               "lambda": report.lambda_avg, "equatorial_period": report.equatorial_period}
    write_atomic(report_path, json.dumps(payload, indent=2))
    print(f"wrote {traj_path} (rescaled-time image) and {report_path}")
    return EXIT_OK if ok else EXIT_CONSISTENCY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routhkit",
        description="Momentum-level reduction, reconstruction, and ellipsoid "
                    "geodesic experiments for symmetric mechanical systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output_help):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--output", help=output_help)
        p.add_argument("--dt", type=float, help="override the time step")
        p.add_argument("--t-end", dest="t_end", type=float,
                       help="override the end time")

    p = sub.add_parser("simulate-reduced", help="integrate the reduced system")
    add_common(p, "trajectory CSV path (default reduced.csv)")
    p.set_defaults(func=cmd_simulate_reduced)

    p = sub.add_parser("simulate-full", help="integrate the full system")
    add_common(p, "trajectory CSV path (default full.csv)")
    p.set_defaults(func=cmd_simulate_full)

    p = sub.add_parser("reconstruct",
                       help="recover cyclic coordinates along a reduced trajectory")
    add_common(p, "trajectory CSV path (default reconstructed.csv)")
    p.add_argument("--reduced", required=True, help="reduced trajectory CSV")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the invariant suite")
    add_common(p, "JSON report path (default verify_report.json)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kolosov",
                       help="ellipsoid equivalence run and closed-geodesic search")
    add_common(p, "ellipsoid trajectory CSV path (default ellipsoid.csv)")
    p.add_argument("--report", help="JSON report path (default kolosov_report.json)")
    p.set_defaults(func=cmd_kolosov)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RouthkitError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
