"""Serialization, configuration validation, CLI verbs and exit codes."""

import ast
import inspect
import json
import os
import re

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from routhkit import (
    ConfigError,
    MomentumValue,
    ReducedState,
    RigidBodyParams,
    SingularReducedMass,
    Trajectory,
    TrajectoryMeta,
    complete_state,
    constant_matrix_system,
    rb_system,
    reduced_vector_field,
)
from routhkit import errors
from routhkit.cli import main
from routhkit.config import load_config, parse_config, state_labels
from routhkit.trajectory_io import read_trajectory_csv, write_atomic, write_trajectory_csv

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
                          energy0=float(rng.normal()))
    return Trajectory(times=times, states=states, meta=meta)


def test_csv_round_trip_bit_exact(tmp_path, rng):
    traj = make_trajectory(rng)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, traj, ["a", "b", "c", "d"])
    # files written while trajectories carried a chart field have a chart line
    older = tmp_path / "older.csv"
    text = (tmp_path / "traj.csv").read_text()
    older.write_text(text.replace("\n", '\n# chart = "primary"\n', 1))
    # a comment line without "=" is not metadata and is skipped
    commented = tmp_path / "commented.csv"
    commented.write_text("# written by hand\n#\n" + text)
    # so is a blank line
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(text.replace("\n", "\n\n"))
    for source in (path, str(older), str(commented), str(spaced)):
        back, labels = read_trajectory_csv(source)
        assert labels == ["a", "b", "c", "d"]
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)
        assert back.meta.system == "rigid-body"
        assert back.meta.momentum.matches(traj.meta.momentum)
        assert back.meta.energy0 == traj.meta.energy0


# any finite float, with a signed zero, subnormals and values near the ends
# of the range drawn often: their text forms are the easiest to get wrong
_cell = st.one_of(st.sampled_from([-0.0, 5e-324, -1e-310, 1e300, -1e300, 1.7976931348623157e308]),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def trajectories(draw):
    rows, cols = draw(st.integers(2, 10)), draw(st.integers(1, 4))
    times = sorted(draw(st.lists(_cell, min_size=rows, max_size=rows, unique=True)))
    states = draw(st.lists(st.lists(_cell, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    meta = TrajectoryMeta(system=draw(st.text(alphabet='ab -=,#"\\', max_size=8)),
                          momentum=MomentumValue(xi=draw(st.lists(_cell, max_size=2)),
                                                 eta=draw(st.lists(_cell, max_size=2))),
                          energy0=draw(st.one_of(st.none(), _cell)))
    return Trajectory(times=times, states=states, meta=meta)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(traj=trajectories())
def test_csv_round_trip_is_bit_exact_for_drawn_trajectories(tmp_path, traj):
    path = str(tmp_path / "drawn.csv")   # each example overwrites the file
    labels = [f"s{i}" for i in range(traj.states.shape[1])]
    write_trajectory_csv(path, traj, labels)
    back, back_labels = read_trajectory_csv(path)
    assert back_labels == labels
    assert _bits(back.times) == _bits(traj.times)
    assert _bits(back.states) == _bits(traj.states)
    assert back.meta.system == traj.meta.system
    assert _bits(back.meta.momentum.xi) == _bits(traj.meta.momentum.xi)
    assert _bits(back.meta.momentum.eta) == _bits(traj.meta.momentum.eta)
    if traj.meta.energy0 is None:
        assert back.meta.energy0 is None
    else:
        assert _bits(back.meta.energy0) == _bits(traj.meta.energy0)


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
    (lambda lines: lines[:-49], "need header and >= 2 rows"),
], ids=["nan-state", "inf-time", "short-row", "garbage", "energy0-not-json",
        "momentum-text", "repeated-time", "one-row"])
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


def test_write_atomic_failure_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old")
    with pytest.raises(TypeError):
        write_atomic(str(target), None)     # the write itself fails
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["report.json"]


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


def test_readme_library_quick_start_runs(capsys):
    with open(README_PATH) as handle:
        text = handle.read()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, README_PATH, "exec"), {})
    periods = ast.literal_eval(capsys.readouterr().out)
    assert sorted(periods) == ["x", "y", "z"]
    assert all(period > 0 for period in periods.values())


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


@pytest.mark.parametrize("inertia, message", [
    ([-1.0, 2.0, 3.0], "inertia moments must be positive, got (-1.0, 2.0, 3.0)"),
    ([1.0, 1.0, 5.0], "inertia moments (1.0, 1.0, 5.0) violate the triangle inequality"),
], ids=["negative", "triangle"])
def test_cli_inertia_errors_print_plain_floats(tmp_path, capsys, inertia, message):
    cfg_path = write_config(tmp_path, base_config(inertia=inertia))
    assert main(["simulate-reduced", "--config", cfg_path,
                 "--output", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "np.float64" not in err


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


@pytest.fixture(scope="module")
def kolosov_cli_report(tmp_path_factory):
    """The report that ``routhkit kolosov`` writes for the triaxial body at smoke size."""
    tmp_path = tmp_path_factory.mktemp("kolosov")
    cfg_path = write_config(tmp_path, base_config(energy_target=19.49, dt=0.01))
    report_path = str(tmp_path / "kolosov_report.json")
    assert main(["kolosov", "--config", cfg_path, "--output", str(tmp_path / "ell.csv"),
                 "--report", report_path]) == 0
    with open(report_path) as handle:
        return json.load(handle)


def test_cli_kolosov_report_validates_against_schema(kolosov_cli_report):
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMA_PATH) as handle:
        jsonschema.validate(kolosov_cli_report, json.load(handle))
    assert list(kolosov_cli_report) == ["schema_version", "system", "all_passed", "checks",
                                        "h", "window", "sections", "lambda",
                                        "equatorial_period"]


@pytest.mark.parametrize("corrupt", [
    lambda r: r.pop("equatorial_period"),
    lambda r: r["sections"]["y"].pop("dsigma_length"),
    lambda r: r.update(comment="extra"),
    lambda r: r["sections"].pop("x"),
    lambda r: r["sections"]["z"].update(comment="extra"),
    lambda r: r.update(h=-1.0),
    lambda r: [r.pop(key) for key in ("window", "sections", "lambda", "equatorial_period")],
], ids=["no-equatorial_period", "section-without-dsigma_length", "extra-top-level-key",
        "no-x-section", "extra-section-key", "negative-h", "lone-kolosov-field"])
def test_schema_refuses_malformed_kolosov_reports(kolosov_cli_report, corrupt):
    jsonschema = pytest.importorskip("jsonschema")
    report = json.loads(json.dumps(kolosov_cli_report))
    corrupt(report)
    with open(SCHEMA_PATH) as handle:
        schema = json.load(handle)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, schema)


@pytest.mark.parametrize("verb", ["verify", "kolosov"])
def test_cli_rk4_verbs_refuse_another_integrator(tmp_path, capsys, verb):
    # both verbs integrate with RK4 at dt, so another method is refused, not ignored
    cfg_path = write_config(tmp_path, base_config(integrator={"method": "rk45",
                                                              "max_steps": 3}))
    assert main([verb, "--config", cfg_path, "--output", str(tmp_path / "out")]) == 2
    assert "integrator.method rk45" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


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
    ({"integrator": {"method": "euler"}}, "integrator.method"),
], ids=["t_end-inf", "t_end-text", "dt-text", "dt-list", "coefficient-text",
        "coefficient-nan", "max_steps-inf", "abs_tol-list", "custom-n-text",
        "custom-matrix-entry-text", "custom-matrix-text", "custom-matrix-scalar",
        "custom-matrix-3x3-for-2", "method-euler"])
def test_config_rejects_non_numeric_scalars(tmp_path, capsys, overrides, key):
    cfg = base_config(**overrides)
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)
    assert main(["simulate-reduced", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"dt": True}, "dt"),
    ({"t_end": [[2.0]]}, "t_end"),
    ({"t_end": [2.0]}, "t_end"),
    ({"integrator": {"method": "rk4", "max_steps": [5]}}, "integrator.max_steps"),
    ({"momentum": {"xi": [], "eta": [False]}}, "momentum.eta"),
    ({"integrator": {"method": "rk4", "max_steps": 2.5}}, "integrator.max_steps"),
    ({"integrator": {"method": "rk4", "max_steps": 0.5}}, "integrator.max_steps"),
    (custom_config(n=[1]), "custom.n"),
    (custom_config(n=1.5), "custom.n"),
    (custom_config(n=True), "custom.n"),
], ids=["dt-bool", "t_end-nested", "t_end-list", "max_steps-list", "eta-bool",
        "max_steps-2.5", "max_steps-0.5", "custom-n-list", "custom-n-1.5", "custom-n-bool"])
def test_config_rejects_booleans_nested_lists_and_fractional_steps(tmp_path, capsys,
                                                                   overrides, key):
    cfg = base_config(**overrides)
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)
    assert main(["simulate-reduced", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"error: {key}" in capsys.readouterr().err


# integrator.method is covered by the "method-euler" case above
@pytest.mark.parametrize("overrides, key", [
    ({"integrator": {"method": "rk45", "abs_tol": 0.0}}, "integrator.abs_tol"),
    ({"integrator": {"method": "rk45", "rel_tol": -1e-9}}, "integrator.rel_tol"),
    ({"dt": 0.0}, "dt"),
], ids=["abs_tol", "rel_tol", "dt"])
def test_integrator_setting_errors_begin_with_their_key(tmp_path, capsys, overrides, key):
    cfg = base_config(**overrides)
    assert main(["simulate-reduced", "--config", write_config(tmp_path, cfg)]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err


def test_config_accepts_whole_number_max_steps():
    cfg = parse_config(base_config(integrator={"method": "rk4", "max_steps": 5000.0}))
    assert cfg.integrator.max_steps == 5000


@pytest.mark.parametrize("verb, flags", [
    ("simulate-reduced", {"--config", "--output", "--dt", "--t-end"}),
    ("simulate-full", {"--config", "--output", "--dt", "--t-end"}),
    ("reconstruct", {"--config", "--output", "--reduced"}),
    ("verify", {"--config", "--output", "--dt", "--t-end"}),
    ("kolosov", {"--config", "--output", "--dt", "--report"}),
])
def test_each_verb_offers_the_flags_its_command_reads(capsys, verb, flags):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"} == flags


@pytest.mark.parametrize("argv", [
    ["kolosov", "--t-end", "1"],
    ["reconstruct", "--reduced", "r.csv", "--dt", "1"],
    ["reconstruct", "--reduced", "r.csv", "--t-end", "1"],
], ids=["kolosov-t-end", "reconstruct-dt", "reconstruct-t-end"])
def test_cli_flag_a_verb_does_not_read_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", write_config(tmp_path, base_config())])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


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


def test_cli_kolosov_energy_too_high_to_step_exit_5(tmp_path, capsys):
    # at h = 1e40 the section periods fall below the DP45 end slack
    cfg_path = write_config(tmp_path, base_config(energy_target=1.0e40))
    assert main(["kolosov", "--config", cfg_path, "--output", str(tmp_path / "ell.csv")]) == 5
    assert "error: step size underflow" in capsys.readouterr().err


def test_cli_kolosov_high_energy_closes_its_sections(tmp_path, capsys):
    # the section closure tolerance scales with the seed, whose velocities grow as sqrt(h)
    cfg_path = write_config(tmp_path, base_config(energy_target=1.0e6, dt=4.4e-5))
    report_path = str(tmp_path / "kolosov.json")
    assert main(["kolosov", "--config", cfg_path, "--output", str(tmp_path / "ell.csv"),
                 "--report", report_path]) == 0
    capsys.readouterr()
    with open(report_path) as handle:
        assert json.load(handle)["all_passed"] is True


@pytest.mark.parametrize("inertia, code, failed", [
    ([1e-100, 1e-100, 1e-100], 0, []),
    ([1e100, 2e100, 3e100], 4, ["reconstruction-momentum-residual"]),
], ids=["1e-100", "1e100"])
def test_cli_verify_at_extreme_inertia_scale(tmp_path, capsys, inertia, code, failed):
    # the determinant identity is evaluated at unit inertia scale, so neither
    # side over- or underflows
    cfg_path = write_config(tmp_path, base_config(inertia=inertia, t_end=0.05))
    report_path = str(tmp_path / "report.json")
    assert main(["verify", "--config", cfg_path, "--output", report_path]) == code
    capsys.readouterr()
    with open(report_path) as handle:
        checks = json.load(handle)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == failed


def _refused(argv, code, message, capsys):
    """``main(argv)`` returns ``code`` and prints an error naming ``message``, no traceback."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb, flag, value", [
    ("simulate-reduced", "--t-end", "1e308"), ("simulate-full", "--t-end", "1e308"),
    ("verify", "--t-end", "1e308"), ("simulate-reduced", "--dt", "5e-324"),
    ("simulate-full", "--dt", "5e-324"), ("verify", "--dt", "5e-324"),
    ("kolosov", "--dt", "5e-324"),
])
def test_cli_rk4_step_count_overflow_exit_5(tmp_path, capsys, verb, flag, value):
    cfg_path = write_config(tmp_path, base_config())
    _refused([verb, "--config", cfg_path, flag, value, "--output", str(tmp_path / "out")],
             5, "step count overflows", capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", ["simulate-reduced", "simulate-full"])
def test_cli_central_force_metric_overflow_exit_3(tmp_path, capsys, verb):
    # r^2 = 1e400 overflows: the metric has an inf entry
    cfg = {"system": "central-force", "potential": {"kind": "none"},
           "momentum": {"xi": [], "eta": [1.0]}, "t_end": 1.0, "dt": 0.001,
           "initial": {"reduced": {"q": [1.0e200], "qdot": [1.0e200]}}}
    _refused([verb, "--config", write_config(tmp_path, cfg), "--output", str(tmp_path / "o")],
             3, "kinetic matrix has a non-finite entry", capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e103, 1e110, 1e160, 1e200, 1e-110, 1e-160])
def test_cli_kolosov_refuses_an_inertia_product_out_of_range_exit_2(tmp_path, capsys, scale):
    cfg_path = write_config(tmp_path, base_config(inertia=[scale, 2 * scale, 3 * scale],
                                                  dt=0.01))
    _refused(["kolosov", "--config", cfg_path, "--output", str(tmp_path / "ell.csv")],
             2, "inertia product A*B*C", capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_kolosov_refuses_an_underflowing_section_speed_exit_2(tmp_path, capsys):
    # A*B*C = 6e-324 is subnormal, so it passes the product guard; the speed is 0
    cfg_path = write_config(tmp_path, base_config(inertia=[1e-108, 2e-108, 3e-108], dt=0.01))
    _refused(["kolosov", "--config", cfg_path, "--output", str(tmp_path / "ell.csv")],
             2, "zero-energy speed on the x-section ellipse underflows", capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-107, 1e-105, 1e-60, 1e60, 1e102])
def test_cli_kolosov_inertia_scales_inside_the_guards_exit_5(tmp_path, capsys, scale):
    cfg_path = write_config(tmp_path, base_config(inertia=[scale, 2 * scale, 3 * scale],
                                                  dt=0.01))
    _refused(["kolosov", "--config", cfg_path, "--output", str(tmp_path / "ell.csv")],
             5, "at t=0", capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("qdot", [[0.4, 0.15], [0.4, 0.0]])
def test_cli_kolosov_refuses_an_overflowing_energy_rescale_exit_2(tmp_path, capsys, qdot):
    cfg = base_config(energy_target=1e308)
    cfg["initial"]["reduced"]["qdot"] = qdot
    _refused(["kolosov", "--config", write_config(tmp_path, cfg),
              "--output", str(tmp_path / "ell.csv")],
             2, "energy_target / seed energy = inf", capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_huge_step_count_printed_in_g_format_exit_5(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    _refused(["kolosov", "--config", cfg_path, "--dt", "1e-300",
              "--output", str(tmp_path / "ell.csv")],
             5, "error: 1.74303409951e+301 steps exceed max_steps=10000000", capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_state_past_the_chart_boundary_says_past_exit_3(tmp_path, capsys):
    cfg = base_config()
    cfg["initial"]["reduced"]["qdot"] = [1e200, 1e200]
    _refused(["simulate-reduced", "--config", write_config(tmp_path, cfg),
              "--output", str(tmp_path / "r.csv")],
             3, "error: state 5.000e+196 past the chart boundary", capsys)


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


@pytest.mark.parametrize("inertia, equal", [([1.0, 1.0, 1.5], "xy"), ([1.0, 1.5, 1.5], "yz"),
                                            ([2.0, 3.0, 4.5], "xz")],
                         ids=["A=B", "B=C", "T_x=T_z"])
def test_cli_kolosov_axisymmetric_body(tmp_path, capsys, inertia, equal):
    # with exactly two equal moments the equal-moment sections are congruent
    # and share one period in closed form, and the third differs from both;
    # body (2, 3, 4.5) has distinct moments but T_x = T_z in closed form
    cfg_path = write_config(tmp_path, base_config(inertia=inertia, energy_target=20.0, dt=0.01))
    report_path = str(tmp_path / "kolosov.json")
    assert main(["kolosov", "--config", cfg_path, "--output", str(tmp_path / "ell.csv"),
                 "--report", report_path]) == 0
    capsys.readouterr()
    with open(report_path) as handle:
        report = json.load(handle)
    assert all(c["passed"] for c in report["checks"])
    names = [c["name"] for c in report["checks"] if c["name"].startswith("section-periods")]
    assert names == ["section-periods-distinct", "section-periods-equal"]
    first, second = (report["sections"][plane]["period"] for plane in equal)
    assert abs(first - second) <= 1e-8
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


_CENTRAL_HARMONIC = {
    "system": "central-force",
    "potential": {"kind": "harmonic", "coefficient": 1.5},
    "momentum": {"xi": [], "eta": [0.8]},
    "t_end": 1.0,
    "dt": 0.01,
    "initial": {"reduced": {"q": [1.2], "qdot": [0.1]},
                "cyclic0": {"x": [], "psi": [0.0]}},
}
_CUSTOM_D4 = {
    "system": "custom-matrix",
    "potential": {"kind": "none"},
    "momentum": {"xi": [0.3], "eta": [-0.2]},
    "t_end": 1.0,
    "dt": 0.01,
    "initial": {"reduced": {"q": [0.1, 0.2], "qdot": [0.3, -0.1]},
                "cyclic0": {"x": [0.0], "psi": [0.5]}},
    "custom": {"n": 2, "k": 1, "l": 1,
               "matrix": [[4.0, 1.0, 0.5, 0.0], [1.0, 3.0, 0.0, 0.2],
                          [0.5, 0.0, 2.0, 0.1], [0.0, 0.2, 0.1, 1.0]]},
}


@pytest.mark.parametrize("cfg, reduced_labels, full_labels", [
    (_CENTRAL_HARMONIC, ["r", "rdot"], ["r", "angle", "rdot", "angledot"]),
    (_CUSTOM_D4, ["q0", "q1", "q0dot", "q1dot"],
     ["q0", "q1", "x0", "psi0", "q0dot", "q1dot", "x0dot", "psi0dot"]),
], ids=["central-force-harmonic", "custom-matrix-d4"])
def test_cli_csv_verbs_on_the_other_shipped_systems(tmp_path, capsys, cfg, reduced_labels,
                                                    full_labels):
    # the three CSV verbs on the systems the CLI builds besides the rigid body
    cfg_path = write_config(tmp_path, cfg)
    red, rec, full = (str(tmp_path / f"{name}.csv") for name in ("red", "rec", "full"))
    assert main(["simulate-reduced", "--config", cfg_path, "--output", red]) == 0
    assert main(["reconstruct", "--config", cfg_path, "--reduced", red, "--output", rec]) == 0
    assert main(["simulate-full", "--config", cfg_path, "--output", full]) == 0
    capsys.readouterr()
    for path, expected in ((red, reduced_labels), (rec, full_labels), (full, full_labels)):
        traj, labels = read_trajectory_csv(path)
        assert labels == expected
        assert traj.states.shape == (101, len(expected))
    # reconstruction from the reduced run follows the full run
    gap = read_trajectory_csv(full)[0].states - read_trajectory_csv(rec)[0].states
    assert np.max(np.abs(gap)) < 1e-6


def test_cli_csv_verbs_on_rk45(tmp_path, capsys):
    # the three CSV verbs on the adaptive DP45 stepper: reconstruct keeps the
    # reduced run's grid, and it ends where the full run does
    cfg_path = write_config(tmp_path, base_config(integrator={"method": "rk45"}))
    red, rec, full = (str(tmp_path / f"{name}.csv") for name in ("red", "rec", "full"))
    assert main(["simulate-reduced", "--config", cfg_path, "--output", red]) == 0
    assert main(["reconstruct", "--config", cfg_path, "--reduced", red, "--output", rec]) == 0
    assert main(["simulate-full", "--config", cfg_path, "--output", full]) == 0
    capsys.readouterr()
    (red, red_labels), (rec, rec_labels), (full, full_labels) = (
        read_trajectory_csv(path) for path in (red, rec, full))
    assert red_labels == ["phi", "theta", "phidot", "thetadot"]
    assert rec_labels == full_labels == ["phi", "theta", "psi", "phidot", "thetadot", "psidot"]
    assert np.array_equal(rec.times, red.times)
    assert red.times[-1] == full.times[-1] == 1.0
    gap = np.abs(rec.states[-1] - full.states[-1])
    gap[2] = min(gap[2], 2 * np.pi - gap[2])  # angle column
    assert np.max(gap) < 1e-6


def test_failed_cyclic_solve_is_singular_reduced_mass_exit_3(tmp_path, capsys, monkeypatch):
    # the numpy path (d = 4) maps a failed solve to SingularReducedMass
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    sys = constant_matrix_system(2, 1, 1, _CUSTOM_D4["custom"]["matrix"])
    f = MomentumValue(xi=_CUSTOM_D4["momentum"]["xi"], eta=_CUSTOM_D4["momentum"]["eta"])
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularReducedMass, match="reduced mass matrix solve failed"):
        reduced_vector_field(sys, f)([0.1, 0.2, 0.3, -0.1])
    assert main(["simulate-reduced", "--config", write_config(tmp_path, _CUSTOM_D4),
                 "--output", str(tmp_path / "red.csv")]) == 3
    assert "error: reduced mass matrix solve failed" in capsys.readouterr().err
