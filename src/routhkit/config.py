"""Run configuration: YAML loading, validation, and system assembly.

A configuration is a single YAML document; all physical quantities are in
consistent nondimensional units.  Example:

    system: rigid-body
    inertia: [1.0, 2.0, 3.0]
    potential: {kind: none}
    momentum: {xi: [], eta: [0.0]}
    t_end: 10.0
    dt: 0.001
    integrator: {method: rk4}
    initial:
      reduced: {q: [0.7, 1.1], qdot: [0.4, 0.15]}
      cyclic0: {x: [], psi: [0.5]}
    output: reduced.csv

See the README for the full key reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import yaml

from .errors import ConfigError
from .integrate import IntegratorConfig
from .reduction import FullState, MomentumValue, ReducedState, SymmetricSystem
from .rigidbody import RigidBodyParams, heavy_potential, rb_system
from .systems import central_force_system, constant_matrix_system, harmonic_radial_potential

_SYSTEMS = ("rigid-body", "central-force", "custom-matrix")
_POTENTIALS = ("none", "heavy", "harmonic")


@dataclass
class RunConfig:
    """Validated run settings."""

    system: str
    inertia: tuple = (1.0, 2.0, 3.0)
    potential_kind: str = "none"
    potential_coefficient: float = 0.0
    momentum_xi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    momentum_eta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    energy_target: Optional[float] = None
    t_end: float = 10.0
    dt: float = 1e-3
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    initial_reduced: Optional[dict] = None
    initial_full: Optional[dict] = None
    cyclic0_x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cyclic0_psi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    output: Optional[str] = None
    custom: Optional[dict] = None


def _as_floats(value, name: str) -> np.ndarray:
    """A number or a flat list of numbers; booleans and nested lists are refused."""
    items = np.asarray([] if value is None else value, dtype=object)
    _require(items.ndim <= 1 and not any(isinstance(v, (bool, np.bool_))
                                         for v in items.reshape(-1)),
             f"{name} must be a number or a flat list of numbers, got {value!r}")
    try:
        arr = items.astype(float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numeric, got {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return arr


def _as_float(value, name: str) -> float:
    """One finite number: the scalar twin of ``_as_floats``."""
    arr = _as_floats(value, name)
    _require(arr.size == 1, f"{name} must be one number, got {value!r}")
    return float(arr[0])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    """Load and validate a YAML configuration file.

    ``overrides`` are top-level keys that replace the file's before the
    whole mapping is validated.

    Raises:
        ConfigError: unreadable file, unknown keys or values, or
            dimension mismatches for the chosen system.
    """
    try:
        with open(path, "r") as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping, got {type(raw).__name__}")
    return parse_config({**raw, **(overrides or {})})


def parse_config(raw: dict) -> RunConfig:
    known = {"system", "inertia", "potential", "momentum", "energy_target",
             "t_end", "dt", "integrator", "initial", "output", "custom"}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    system = raw.get("system")
    _require(system in _SYSTEMS, f"system must be one of {_SYSTEMS}, got {system!r}")

    cfg = RunConfig(system=system)

    if "inertia" in raw:
        inertia = _as_floats(raw["inertia"], "inertia")
        _require(inertia.size == 3, f"inertia needs 3 moments, got {inertia.size}")
        cfg.inertia = tuple(inertia)

    pot = raw.get("potential", {"kind": "none"}) or {"kind": "none"}
    _require(isinstance(pot, dict), "potential must be a mapping {kind, coefficient}")
    kind = pot.get("kind", "none")
    _require(kind in _POTENTIALS, f"potential kind must be one of {_POTENTIALS}, got {kind!r}")
    cfg.potential_kind = kind
    if kind != "none":
        _require("coefficient" in pot, f"potential kind {kind!r} needs a coefficient")
        cfg.potential_coefficient = _as_float(pot["coefficient"], "potential.coefficient")
    _require(not (system == "rigid-body" and kind == "harmonic"),
             "harmonic potential applies to the central-force system only")
    _require(not (system == "central-force" and kind == "heavy"),
             "heavy potential applies to the rigid-body system only")

    mom = raw.get("momentum", {}) or {}
    _require(isinstance(mom, dict), "momentum must be a mapping {xi, eta}")
    cfg.momentum_xi = _as_floats(mom.get("xi"), "momentum.xi")
    cfg.momentum_eta = _as_floats(mom.get("eta"), "momentum.eta")

    if raw.get("energy_target") is not None:
        cfg.energy_target = _as_float(raw["energy_target"], "energy_target")
        _require(cfg.energy_target > 0,
                 f"energy_target must be positive, got {cfg.energy_target}")
    cfg.t_end = _as_float(raw.get("t_end", cfg.t_end), "t_end")
    _require(cfg.t_end > 0, f"t_end must be positive, got {cfg.t_end}")
    cfg.dt = _as_float(raw.get("dt", cfg.dt), "dt")
    _require(cfg.dt > 0, f"dt must be positive, got {cfg.dt}")

    integ = raw.get("integrator", {}) or {}
    _require(isinstance(integ, dict), "integrator must be a mapping")
    max_steps = _as_float(integ.get("max_steps", 2_000_000), "integrator.max_steps")
    _require(max_steps.is_integer(),
             f"integrator.max_steps must be a whole number, got {max_steps}")
    try:
        cfg.integrator = IntegratorConfig(
            method=integ.get("method", "rk4"),
            dt=cfg.dt,
            abs_tol=_as_float(integ.get("abs_tol", 1e-12), "integrator.abs_tol"),
            rel_tol=_as_float(integ.get("rel_tol", 1e-12), "integrator.rel_tol"),
            max_steps=int(max_steps),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    init = raw.get("initial", {}) or {}
    _require(isinstance(init, dict), "initial must be a mapping")
    if "reduced" in init:
        red = init["reduced"]
        _require(isinstance(red, dict) and "q" in red and "qdot" in red,
                 "initial.reduced needs q and qdot lists")
        cfg.initial_reduced = {"q": _as_floats(red["q"], "initial.reduced.q"),
                               "qdot": _as_floats(red["qdot"], "initial.reduced.qdot")}
    if "full" in init:
        full = init["full"]
        _require(isinstance(full, dict), "initial.full must be a mapping")
        cfg.initial_full = {key: _as_floats(full.get(key), f"initial.full.{key}")
                            for key in ("q", "x", "psi", "qdot", "xdot", "psidot")}
    if "cyclic0" in init:
        cyc = init["cyclic0"]
        _require(isinstance(cyc, dict), "initial.cyclic0 must be a mapping")
        cfg.cyclic0_x = _as_floats(cyc.get("x"), "initial.cyclic0.x")
        cfg.cyclic0_psi = _as_floats(cyc.get("psi"), "initial.cyclic0.psi")

    if raw.get("output") is not None:
        cfg.output = str(raw["output"])

    if system == "custom-matrix":
        custom = raw.get("custom")
        _require(isinstance(custom, dict), "custom-matrix needs a custom: mapping")
        for key in ("n", "k", "l", "matrix"):
            _require(key in custom, f"custom needs {key}")
        cfg.custom = custom

    _validate_dimensions(cfg)
    return cfg


def _system_dims(cfg: RunConfig):
    if cfg.system == "rigid-body":
        return 2, 0, 1
    if cfg.system == "central-force":
        return 1, 0, 1
    return int(cfg.custom["n"]), int(cfg.custom["k"]), int(cfg.custom["l"])


def _validate_dimensions(cfg: RunConfig) -> None:
    n, k, l = _system_dims(cfg)
    _require(cfg.momentum_xi.size == k,
             f"momentum.xi needs {k} entries for {cfg.system}, got {cfg.momentum_xi.size}")
    _require(cfg.momentum_eta.size == l,
             f"momentum.eta needs {l} entries for {cfg.system}, got {cfg.momentum_eta.size}")
    if cfg.initial_reduced is not None:
        _require(cfg.initial_reduced["q"].size == n and cfg.initial_reduced["qdot"].size == n,
                 f"initial.reduced needs {n} shape coordinates for {cfg.system}")
    if cfg.initial_full is not None:
        sizes = {"q": n, "x": k, "psi": l, "qdot": n, "xdot": k, "psidot": l}
        for key, size in sizes.items():
            _require(cfg.initial_full[key].size == size,
                     f"initial.full.{key} needs {size} entries for {cfg.system}")
    _require(cfg.cyclic0_x.size in (0, k), f"initial.cyclic0.x needs {k} entries")
    _require(cfg.cyclic0_psi.size in (0, l), f"initial.cyclic0.psi needs {l} entries")


def build_params(cfg: RunConfig) -> Optional[RigidBodyParams]:
    if cfg.system != "rigid-body":
        return None
    pot = heavy_potential(cfg.potential_coefficient) if cfg.potential_kind == "heavy" else None
    return RigidBodyParams(*cfg.inertia, potential=pot)


def build_system(cfg: RunConfig) -> SymmetricSystem:
    """Assemble the symmetric system selected by the configuration."""
    if cfg.system == "rigid-body":
        return rb_system(build_params(cfg))
    if cfg.system == "central-force":
        pot = None
        if cfg.potential_kind == "harmonic":
            pot = harmonic_radial_potential(cfg.potential_coefficient)
        return central_force_system(pot)
    return constant_matrix_system(int(cfg.custom["n"]), int(cfg.custom["k"]),
                                  int(cfg.custom["l"]), cfg.custom["matrix"])


def build_momentum(cfg: RunConfig) -> MomentumValue:
    return MomentumValue(xi=cfg.momentum_xi, eta=cfg.momentum_eta)


def initial_reduced_state(cfg: RunConfig) -> ReducedState:
    _require(cfg.initial_reduced is not None, "config needs initial.reduced for this command")
    return ReducedState(q=cfg.initial_reduced["q"], qdot=cfg.initial_reduced["qdot"])


def initial_full_state(cfg: RunConfig, sys: SymmetricSystem) -> FullState:
    if cfg.initial_full is not None:
        init = cfg.initial_full
        return FullState(q=init["q"], x=init["x"], psi=init["psi"],
                         qdot=init["qdot"], xdot=init["xdot"], psidot=init["psidot"])
    # complete a reduced seed with momentum-consistent cyclic velocities
    from .reduction import complete_state
    red = initial_reduced_state(cfg)
    x0 = cfg.cyclic0_x if cfg.cyclic0_x.size else None
    psi0 = cfg.cyclic0_psi if cfg.cyclic0_psi.size else None
    return complete_state(sys, build_momentum(cfg), red, x=x0, psi=psi0)


def state_labels(cfg: RunConfig, reduced: bool) -> List[str]:
    """Column names: state components in declaration order."""
    n, k, l = _system_dims(cfg)
    if cfg.system == "rigid-body":
        pos, cyc_x, cyc_psi = ["phi", "theta"], [], ["psi"]
    elif cfg.system == "central-force":
        pos, cyc_x, cyc_psi = ["r"], [], ["angle"]
    else:
        pos = [f"q{i}" for i in range(n)]
        cyc_x = [f"x{i}" for i in range(k)]
        cyc_psi = [f"psi{i}" for i in range(l)]
    if reduced:
        return pos + [f"{c}dot" for c in pos]
    return (pos + cyc_x + cyc_psi
            + [f"{c}dot" for c in pos + cyc_x + cyc_psi])
