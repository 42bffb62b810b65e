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
    ReducedState,
    RigidBodyParams,
    Trajectory,
    TrajectoryMeta,
    complete_state,
    rb_system,
)
from routhkit import errors
from routhkit.cli import main
from routhkit.config import load_config, parse_config, state_labels
from routhkit.trajectory_io import read_trajectory_csv, write_trajectory_csv

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "routhkit",
                           "schemas", "verify_report.schema.json")
README_PATH = os.path.join(os.path.dirname(__file__), "..", "README.md")


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


def _row(edit):
    """A file edit that applies ``edit`` to the cells of one data row."""
    return lambda lines: lines[:-3] + [",".join(edit(lines[-3].split(",")))] + lines[-2:]


def _meta(key, value):
    """A file edit that replaces the value of one metadata line."""
    return lambda lines: [f"# {key} = {value}" if ln.startswith(f"# {key} ") else ln
                          for ln in lines]


@pytest.mark.parametrize("edit, message", [
    (_row(lambda cells: cells[:2] + ["nan"] + cells[3:]), "non-finite"),
    (_row(lambda cells: ["inf"] + cells[1:]), "non-finite"),
    (_row(lambda cells: cells[:-1]), "4 values for 5 columns"),
    (_row(lambda cells: cells[:-1] + ["1.0x"]), "unreadable"),
    (_meta("energy0", "abc"), "energy0 is not JSON"),
    (_meta("momentum_eta", '"x"'), "could not convert"),
    (lambda lines: lines[:-1] + [lines[-2]], "strictly increasing"),
], ids=["nan-state", "inf-time", "short-row", "garbage", "energy0-not-json",
        "momentum-text", "repeated-time"])
def test_csv_rejects_corrupt_rows(tmp_path, rng, capsys, edit, message):
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, make_trajectory(rng), ["a", "b", "c", "d"])
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(edit(lines)) + "\n")
    with pytest.raises(ConfigError, match=message) as info:
        read_trajectory_csv(path)
    assert path in str(info.value)
    assert main(["reconstruct", "--config", write_config(tmp_path, base_config()),
                 "--reduced", path, "--output", str(tmp_path / "rec.csv")]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration


def test_config_parses_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, base_config()))
    assert cfg.system == "rigid-body"
    assert cfg.inertia == (1.0, 2.0, 3.0)
    assert cfg.integrator.method == "rk4"
    assert cfg.momentum.eta.shape == (1,)


def test_readme_example_config_parses():
    with open(README_PATH) as handle:
        text = handle.read()
    block = text.split("### Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(yaml.safe_load(block))
    assert cfg.system == "rigid-body"
    assert cfg.initial_reduced is not None


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),
    ("system: [rigid-body\n", "is not valid YAML"),
    ("- rigid-body\n", "must be a mapping"),
], ids=["missing-file", "invalid-yaml", "list-top-level"])
def test_cli_unloadable_config_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "run.yaml"
    if content is not None:
        path.write_text(content)
    assert main(["simulate-reduced", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


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


def custom_config(**custom):
    """A valid custom-matrix config with keys of its custom: block replaced."""
    return {
        "system": "custom-matrix",
        "momentum": {"xi": [0.5], "eta": []},
        "initial": {"reduced": {"q": [0.0], "qdot": [1.0]}},
        "custom": {"n": 1, "k": 1, "l": 0, "matrix": [[2.0, 1.0], [1.0, 3.0]], **custom},
    }


def test_config_rejects_wrong_potential_pairing():
    with pytest.raises(ConfigError):
        parse_config(base_config(potential={"kind": "harmonic", "coefficient": 1.0}))
    with pytest.raises(ConfigError):
        parse_config({**custom_config(), "potential": {"kind": "heavy", "coefficient": 5.0}})


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


def test_cli_simulate_full_from_initial_full(tmp_path, capsys):
    # initial.full set to the completed reduced seed reproduces the seeded run
    s0 = complete_state(rb_system(RigidBodyParams(1.0, 2.0, 3.0)), MomentumValue.zero(0, 1),
                        ReducedState(q=[0.7, 1.1], qdot=[0.4, 0.15]), psi=[0.5])
    given = base_config()
    given["initial"] = {"full": {key: getattr(s0, key).tolist()
                                 for key in ("q", "x", "psi", "qdot", "xdot", "psidot")}}
    runs = []
    for name, cfg in (("seeded", base_config()), ("given", given)):
        out = str(tmp_path / f"{name}.csv")
        assert main(["simulate-full", "--config", write_config(tmp_path, cfg, f"{name}.yaml"),
                     "--output", out]) == 0
        runs.append(read_trajectory_csv(out)[0].states)
    assert np.array_equal(runs[0], runs[1])
    capsys.readouterr()

    given["initial"]["full"]["psi"] = [0.5, 0.1]
    assert main(["simulate-full", "--config", write_config(tmp_path, given, "bad.yaml")]) == 2
    assert "error: initial.full.psi" in capsys.readouterr().err


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


def test_cli_reconstruct_refuses_another_systems_trajectory(tmp_path, capsys):
    # a rigid-body reduced CSV read with a central-force config at matching eta
    red_path = str(tmp_path / "red.csv")
    assert main(["simulate-reduced", "--config", write_config(tmp_path, base_config()),
                 "--output", red_path]) == 0
    central = {
        "system": "central-force",
        "momentum": {"xi": [], "eta": [0.0]},
        "initial": {"reduced": {"q": [1.0], "qdot": [0.0]}},
    }
    out = tmp_path / "rec.csv"
    capsys.readouterr()
    assert main(["reconstruct", "--config", write_config(tmp_path, central, "cf.yaml"),
                 "--reduced", red_path, "--output", str(out)]) == 4
    assert "central-force needs 2 columns" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("verb", ["verify", "kolosov"])
def test_cli_rigid_body_verbs_refuse_central_force(tmp_path, capsys, verb):
    cfg_path = write_config(tmp_path, {
        "system": "central-force", "momentum": {"xi": [], "eta": [1.0]},
        "initial": {"reduced": {"q": [1.0], "qdot": [0.0]}}})
    assert main([verb, "--config", cfg_path, "--output", str(tmp_path / "out")]) == 2
    assert "rigid-body" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("verb", ["verify", "kolosov"])
def test_cli_zero_momentum_verbs_refuse_nonzero_momentum(tmp_path, capsys, verb):
    cfg_path = write_config(tmp_path, base_config(momentum={"xi": [], "eta": [0.5]}))
    assert main([verb, "--config", cfg_path, "--output", str(tmp_path / "out")]) == 2
    assert "zero momentum" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
    # the simulate verbs run at the configured momentum
    assert main(["simulate-reduced", "--config", cfg_path, "--t-end", "0.01",
                 "--output", str(tmp_path / "red.csv")]) == 0
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
    (custom_config(n="abc"), "custom.n"),
    (custom_config(matrix=[[2.0, "x"], [0.0, 1.0]]), "custom.matrix"),
    (custom_config(matrix="abc"), "custom.matrix"),
    (custom_config(matrix=5), "custom.matrix"),
    (custom_config(matrix=np.eye(3).tolist()), "custom.matrix"),
], ids=["t_end-inf", "t_end-text", "dt-text", "dt-list", "coefficient-text",
        "coefficient-nan", "max_steps-inf", "abs_tol-list", "custom-n-text",
        "custom-matrix-entry-text", "custom-matrix-text", "custom-matrix-scalar",
        "custom-matrix-3x3-for-2"])
def test_config_rejects_non_numeric_scalars(tmp_path, capsys, overrides, key):
    cfg = base_config(**overrides)
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)
    assert main(["simulate-reduced", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"dt": True}, "dt"),
    ({"t_end": [[2.0]]}, "t_end"),
    ({"momentum": {"xi": [], "eta": [False]}}, "momentum.eta"),
    ({"integrator": {"method": "rk4", "max_steps": 2.5}}, "integrator.max_steps"),
    ({"integrator": {"method": "rk4", "max_steps": 0.5}}, "integrator.max_steps"),
    (custom_config(n=[1]), "custom.n"),
    (custom_config(n=1.5), "custom.n"),
    (custom_config(n=True), "custom.n"),
], ids=["dt-bool", "t_end-nested", "eta-bool", "max_steps-2.5", "max_steps-0.5",
        "custom-n-list", "custom-n-1.5", "custom-n-bool"])
def test_config_rejects_booleans_nested_lists_and_fractional_steps(tmp_path, capsys,
                                                                   overrides, key):
    cfg = base_config(**overrides)
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)
    assert main(["simulate-reduced", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"error: {key}" in capsys.readouterr().err


def test_config_accepts_whole_number_max_steps():
    cfg = parse_config(base_config(integrator={"method": "rk4", "max_steps": 5000.0}))
    assert cfg.integrator.max_steps == 5000


def test_cli_t_end_flag_inf_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    assert main(["simulate-reduced", "--config", cfg_path, "--t-end", "inf"]) == 2
    assert "error: t_end must be finite" in capsys.readouterr().err


# Every error class and the exit code the CLI returns for it.
EXIT_CODES = {
    "RouthkitError": 2, "ConfigError": 2, "InvalidParams": 2,
    "ChartBoundary": 3, "NotPositiveDefinite": 3, "SingularReducedMass": 3,
    "OffSurface": 3, "NonPositiveFactor": 3,
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
