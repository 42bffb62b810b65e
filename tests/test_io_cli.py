"""Serialization, configuration validation, CLI verbs and exit codes."""

import inspect
import json
import os

import numpy as np
import pytest
import yaml

from routhkit import (
    ConfigError,
    MomentumValue,
    Trajectory,
    TrajectoryMeta,
)
from routhkit import errors
from routhkit.cli import main
from routhkit.config import load_config, parse_config, state_labels
from routhkit.trajectory_io import read_trajectory_csv, write_trajectory_csv

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "routhkit",
                           "schemas", "verify_report.schema.json")


def base_config(**overrides):
    cfg = {
        "system": "rigid-body",
        "inertia": [1.0, 2.0, 3.0],
        "potential": {"kind": "none"},
        "momentum": {"xi": [], "eta": [0.0]},
        "t_end": 1.0,
        "dt": 0.001,
        "integrator": {"method": "rk4"},
        "initial": {
            "reduced": {"q": [0.7, 1.1], "qdot": [0.4, 0.15]},
            "cyclic0": {"psi": [0.5]},
        },
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# CSV round-trip


def make_trajectory(rng):
    times = np.sort(rng.uniform(0.0, 10.0, size=50))
    times[0] = 0.0
    states = rng.normal(size=(50, 4))
    meta = TrajectoryMeta(system="rigid-body",
                          momentum=MomentumValue(xi=[], eta=[rng.normal()]),
                          chart="primary", energy0=float(rng.normal()))
    return Trajectory(times=times, states=states, meta=meta)


def test_csv_round_trip_bit_exact(tmp_path, rng):
    traj = make_trajectory(rng)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, traj, ["a", "b", "c", "d"])
    back, labels = read_trajectory_csv(path)
    assert labels == ["a", "b", "c", "d"]
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert back.meta.system == "rigid-body"
    assert back.meta.momentum.matches(traj.meta.momentum)
    assert back.meta.energy0 == traj.meta.energy0


def test_csv_rejects_label_mismatch(tmp_path, rng):
    with pytest.raises(ValueError):
        write_trajectory_csv(str(tmp_path / "x.csv"), make_trajectory(rng), ["a"])


@pytest.mark.parametrize("row, message", [
    (lambda cells: cells[:2] + ["nan"] + cells[3:], "non-finite"),
    (lambda cells: ["inf"] + cells[1:], "non-finite"),
    (lambda cells: cells[:-1], "4 values for 5 columns"),
    (lambda cells: cells[:-1] + ["1.0x"], "unreadable"),
], ids=["nan-state", "inf-time", "short-row", "garbage"])
def test_csv_rejects_corrupt_rows(tmp_path, rng, row, message):
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, make_trajectory(rng), ["a", "b", "c", "d"])
    with open(path) as handle:
        lines = handle.read().splitlines()
    lines[-3] = ",".join(row(lines[-3].split(",")))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        read_trajectory_csv(path)


# ---------------------------------------------------------------------------
# configuration


def test_config_parses_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, base_config()))
    assert cfg.system == "rigid-body"
    assert cfg.inertia == (1.0, 2.0, 3.0)
    assert cfg.integrator.method == "rk4"
    assert cfg.momentum_eta.shape == (1,)


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, base_config(bogus=1)))


def test_config_rejects_bad_system(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, base_config(system="pendulum")))


def test_config_rejects_dimension_mismatch(tmp_path):
    cfg = base_config()
    cfg["momentum"] = {"xi": [], "eta": [0.0, 1.0]}
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, cfg))


def test_config_rejects_wrong_potential_pairing():
    with pytest.raises(ConfigError):
        parse_config(base_config(potential={"kind": "harmonic", "coefficient": 1.0}))


def test_config_custom_matrix_system():
    cfg = parse_config({
        "system": "custom-matrix",
        "momentum": {"xi": [0.5], "eta": []},
        "initial": {"reduced": {"q": [0.0], "qdot": [1.0]}},
        "custom": {"n": 1, "k": 1, "l": 0, "matrix": [[2.0, 1.0], [1.0, 3.0]]},
    })
    from routhkit.config import build_system
    sys = build_system(cfg)
    assert sys.dim == 2
    assert state_labels(cfg, reduced=False) == ["q0", "x0", "q0dot", "x0dot"]


def test_state_labels_rigid_body():
    cfg = parse_config(base_config())
    assert state_labels(cfg, reduced=True) == ["phi", "theta", "phidot", "thetadot"]
    assert state_labels(cfg, reduced=False) == [
        "phi", "theta", "psi", "phidot", "thetadot", "psidot"]


# ---------------------------------------------------------------------------
# CLI verbs


def test_cli_simulate_reduced_and_full_and_reconstruct(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    red_path = str(tmp_path / "red.csv")
    full_path = str(tmp_path / "full.csv")
    rec_path = str(tmp_path / "rec.csv")

    assert main(["simulate-reduced", "--config", cfg_path, "--output", red_path]) == 0
    assert main(["simulate-full", "--config", cfg_path, "--output", full_path]) == 0
    assert main(["reconstruct", "--config", cfg_path, "--reduced", red_path,
                 "--output", rec_path]) == 0
    capsys.readouterr()

    full, _ = read_trajectory_csv(full_path)
    rec, _ = read_trajectory_csv(rec_path)
    gaps = np.abs(full.states - rec.states)
    gaps[:, 2] = np.minimum(gaps[:, 2], 2 * np.pi - gaps[:, 2])  # angle column
    assert np.max(gaps) < 1e-6
    # presentation keeps the precession angle inside [0, 2 pi)
    assert np.all(full.states[:, 2] >= 0.0)
    assert np.all(full.states[:, 2] < 2 * np.pi)


def test_cli_zero_velocity_start_constant_file(tmp_path, capsys):
    cfg = base_config()
    cfg["initial"]["reduced"] = {"q": [0.7, 1.1], "qdot": [0.0, 0.0]}
    cfg["momentum"] = {"xi": [], "eta": [0.0]}
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "red.csv")
    assert main(["simulate-reduced", "--config", cfg_path, "--output", out]) == 0
    capsys.readouterr()
    traj, _ = read_trajectory_csv(out)
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-12


def test_cli_malformed_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("system: nonsense\n")
    assert main(["simulate-reduced", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_pole_approach_exit_3(tmp_path, capsys):
    cfg = base_config()
    # free fall of the nutation angle straight into the chart pole
    cfg["initial"]["reduced"] = {"q": [0.0, 0.1], "qdot": [0.0, -0.5]}
    cfg["t_end"] = 1.0
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate-reduced", "--config", cfg_path,
                 "--output", str(tmp_path / "r.csv")]) == 3
    assert main(["simulate-full", "--config", cfg_path,
                 "--output", str(tmp_path / "f.csv")]) == 3
    capsys.readouterr()


def test_cli_momentum_mismatch_exit_4(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    red_path = str(tmp_path / "red.csv")
    assert main(["simulate-reduced", "--config", cfg_path, "--output", red_path]) == 0
    mismatched = base_config()
    mismatched["momentum"] = {"xi": [], "eta": [0.25]}
    bad_cfg = write_config(tmp_path, mismatched, name="bad.yaml")
    assert main(["reconstruct", "--config", bad_cfg, "--reduced", red_path,
                 "--output", str(tmp_path / "rec.csv")]) == 4
    capsys.readouterr()


def test_cli_verify_report_validates_against_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    cfg_path = write_config(tmp_path, base_config(t_end=2.0))
    report_path = str(tmp_path / "report.json")
    assert main(["verify", "--config", cfg_path, "--output", report_path]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    with open(report_path) as handle:
        report = json.load(handle)
    with open(SCHEMA_PATH) as handle:
        schema = json.load(handle)
    jsonschema.validate(report, schema)
    assert report["all_passed"] is True


def test_cli_kolosov_refuses_energy_below_potential(tmp_path, capsys):
    cfg = base_config()
    cfg["potential"] = {"kind": "heavy", "coefficient": 2.0}
    cfg_path = write_config(tmp_path, cfg)
    code = main(["kolosov", "--config", cfg_path])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("target", [-1.0, 0.0, float("nan"), float("inf")])
def test_config_rejects_bad_energy_target(target):
    with pytest.raises(ConfigError, match="energy_target"):
        parse_config(base_config(energy_target=target))


@pytest.mark.parametrize("overrides, key", [
    ({"t_end": float("inf")}, "t_end"),
    ({"t_end": "abc"}, "t_end"),
    ({"dt": "abc"}, "dt"),
    ({"dt": [1, 2]}, "dt"),
    ({"potential": {"kind": "heavy", "coefficient": "abc"}}, "potential.coefficient"),
    ({"potential": {"kind": "heavy", "coefficient": float("nan")}}, "potential.coefficient"),
    ({"integrator": {"method": "rk4", "max_steps": float("inf")}}, "integrator.max_steps"),
    ({"integrator": {"method": "rk45", "abs_tol": [1, 2]}}, "integrator.abs_tol"),
], ids=["t_end-inf", "t_end-text", "dt-text", "dt-list", "coefficient-text",
        "coefficient-nan", "max_steps-inf", "abs_tol-list"])
def test_config_rejects_non_numeric_scalars(tmp_path, capsys, overrides, key):
    cfg = base_config(**overrides)
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)
    assert main(["simulate-reduced", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"error: {key}" in capsys.readouterr().err


def test_cli_t_end_flag_inf_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    assert main(["simulate-reduced", "--config", cfg_path, "--t-end", "inf"]) == 2
    assert "error: t_end must be finite" in capsys.readouterr().err


# Every error class and the exit code the CLI returns for it.
EXIT_CODES = {
    "RouthkitError": 2, "ConfigError": 2, "InvalidParams": 2,
    "ChartBoundary": 3, "NotPositiveDefinite": 3, "SingularReducedMass": 3,
    "OffSurface": 3, "TangencyViolation": 3, "NonPositiveFactor": 3,
    "MomentumMismatch": 4, "GridMismatch": 4, "SpanTooShort": 4,
    "StepFailure": 5, "MaxStepsExceeded": 5, "NoConvergence": 5,
}


def test_exit_code_table_covers_every_error_class():
    classes = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, errors.RouthkitError)}
    assert classes == set(EXIT_CODES)


@pytest.mark.parametrize("name, code", sorted(EXIT_CODES.items()), ids=sorted(EXIT_CODES))
def test_cli_exit_code_of_each_error_class(tmp_path, capsys, monkeypatch, name, code):
    def failing_run(*args, **kwargs):
        raise getattr(errors, name)("injected failure")

    monkeypatch.setattr("routhkit.cli.run_verify", failing_run)
    cfg_path = write_config(tmp_path, base_config())
    assert main(["verify", "--config", cfg_path,
                 "--output", str(tmp_path / "report.json")]) == code
    assert "error: injected failure" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "report.json")


def test_cli_kolosov_negative_energy_target_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(energy_target=-1.0))
    assert main(["kolosov", "--config", cfg_path]) == 2
    assert "energy_target" in capsys.readouterr().err


def test_cli_kolosov_energy_target_on_zero_velocity_seed_exit_2(tmp_path, capsys):
    cfg = base_config(energy_target=0.5)
    cfg["initial"]["reduced"] = {"q": [0.7, 1.1], "qdot": [0.0, 0.0]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["kolosov", "--config", cfg_path]) == 2
    assert "seed energy" in capsys.readouterr().err


def test_cli_dt_override_changes_grid(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(t_end=0.5))
    out = str(tmp_path / "r.csv")
    assert main(["simulate-reduced", "--config", cfg_path, "--output", out,
                 "--dt", "0.01"]) == 0
    capsys.readouterr()
    traj, _ = read_trajectory_csv(out)
    assert traj.times.size == 51


def test_cli_kolosov_sphere_periods_equal(tmp_path, capsys):
    cfg = base_config(inertia=[1.0, 1.0, 1.0], energy_target=0.5)
    cfg_path = write_config(tmp_path, cfg)
    report_path = str(tmp_path / "kolosov.json")
    code = main(["kolosov", "--config", cfg_path,
                 "--output", str(tmp_path / "ell.csv"),
                 "--report", report_path])
    capsys.readouterr()
    assert code == 0
    with open(report_path) as handle:
        report = json.load(handle)
    periods = [report["sections"][plane]["period"] for plane in ("x", "y", "z")]
    assert max(periods) - min(periods) < 1e-8
    assert report["all_passed"] is True
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMA_PATH) as handle:
        jsonschema.validate(report, json.load(handle))


def test_cli_central_force_system(tmp_path, capsys):
    cfg = {
        "system": "central-force",
        "potential": {"kind": "harmonic", "coefficient": 1.0},
        "momentum": {"xi": [], "eta": [1.0]},
        "t_end": 1.0,
        "dt": 0.001,
        "initial": {"reduced": {"q": [1.0], "qdot": [0.0]},
                    "cyclic0": {"psi": [0.0]}},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "cf.csv")
    assert main(["simulate-reduced", "--config", cfg_path, "--output", out]) == 0
    capsys.readouterr()
    traj, labels = read_trajectory_csv(out)
    assert labels == ["r", "rdot"]
    assert np.max(np.abs(traj.states[:, 0] - 1.0)) < 1e-8  # circular orbit
