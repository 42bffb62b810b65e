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

Every rule that depends on the system (its dimensions, state labels,
accepted potentials and builder) is one row of ``_SYSTEMS``.  See the
README for the full key reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np
import yaml

from .errors import ConfigError
from .integrate import IntegratorConfig
from .reduction import FullState, MomentumValue, ReducedState, SymmetricSystem, complete_state
from .rigidbody import RigidBodyParams, heavy_potential, rb_system
from .systems import central_force_system, constant_matrix_system, harmonic_radial_potential


class _System(NamedTuple):
    """What the choice of system fixes about a run."""

    dims: Optional[Tuple[int, int, int]]   # (n, k, l); None reads them from custom:
    labels: Optional[tuple]                # shape, line and angle names; None numbers them
    potentials: dict                       # accepted kind -> constructor taking the coefficient
    build: Callable[["RunConfig"], SymmetricSystem]


def _rigid_body(cfg: "RunConfig") -> SymmetricSystem:
    return rb_system(build_params(cfg))


_SYSTEMS = {
    "rigid-body": _System((2, 0, 1), (("phi", "theta"), (), ("psi",)),
                          {"none": None, "heavy": heavy_potential}, _rigid_body),
    "central-force": _System((1, 0, 1), (("r",), (), ("angle",)),
                             {"none": None, "harmonic": harmonic_radial_potential},
                             lambda cfg: central_force_system(_potential(cfg))),
    "custom-matrix": _System(None, None, {"none": None},
                             lambda cfg: constant_matrix_system(*_system_dims(cfg),
                                                                cfg.custom["matrix"])),
}


@dataclass
class RunConfig:
    """Validated run settings.

    Initial states and cyclic start values the configuration leaves out
    are None; ``custom`` holds the parsed ``n``, ``k``, ``l`` and
    ``matrix`` of a custom-matrix run.
    """

    system: str
    inertia: tuple = (1.0, 2.0, 3.0)
    potential_kind: str = "none"
    potential_coefficient: float = 0.0
    momentum: Optional[MomentumValue] = None
    energy_target: Optional[float] = None
    t_end: float = 10.0
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    initial_reduced: Optional[ReducedState] = None
    initial_full: Optional[FullState] = None
    cyclic0_x: Optional[np.ndarray] = None
    cyclic0_psi: Optional[np.ndarray] = None
    output: Optional[str] = None
    custom: Optional[dict] = None


def _as_floats(value, name: str, ndim: int = 1) -> np.ndarray:
    """Finite numbers nested at most ``ndim`` deep (flattened for 1); no booleans."""
    items = np.asarray([] if value is None else value, dtype=object)
    what = "a number or a flat list of numbers" if ndim == 1 else "a matrix of numbers"
    _require(items.ndim <= ndim and not any(isinstance(v, (bool, np.bool_))
                                            for v in items.reshape(-1)),
             f"{name} must be {what}, got {value!r}")
    try:
        arr = items.astype(float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numeric, got {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return arr.reshape(-1) if ndim == 1 else arr


def _as_float(value, name: str) -> float:
    """One finite number: the scalar twin of ``_as_floats``."""
    arr = _as_floats(value, name)
    _require(arr.size == 1, f"{name} must be one number, got {value!r}")
    return float(arr[0])


def _as_whole(value, name: str, least: int) -> int:
    """One whole number no smaller than ``least``."""
    number = _as_float(value, name)
    _require(number.is_integer() and number >= least,
             f"{name} must be a whole number >= {least}, got {value!r}")
    return int(number)


def _sized(value, name: str, size: int, system: str, optional: bool = False):
    """``size`` finite numbers; with ``optional``, an empty or absent list is None."""
    arr = _as_floats(value, name)
    if optional and arr.size == 0:
        return None
    _require(arr.size == size, f"{name} needs {size} entries for {system}, got {arr.size}")
    return arr


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
    """Validate a configuration mapping against its system's row; ConfigError if not."""
    known = {"system", "inertia", "potential", "momentum", "energy_target",
             "t_end", "dt", "integrator", "initial", "output", "custom"}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    system = raw.get("system")
    names = tuple(_SYSTEMS)
    _require(system in names, f"system must be one of {names}, got {system!r}")
    spec = _SYSTEMS[system]
    cfg = RunConfig(system=system)

    if spec.dims is None:
        custom = raw.get("custom")
        _require(isinstance(custom, dict) and {"n", "k", "l", "matrix"} <= set(custom),
                 f"{system} needs a custom: mapping with n, k, l and matrix")
        cfg.custom = {"matrix": _as_floats(custom["matrix"], "custom.matrix", ndim=2)}
        for key, least in (("n", 1), ("k", 0), ("l", 0)):
            _require(np.asarray(custom[key], dtype=object).ndim == 0,
                     f"custom.{key} must be one whole number, got {custom[key]!r}")
            cfg.custom[key] = _as_whole(custom[key], f"custom.{key}", least)
        d = cfg.custom["n"] + cfg.custom["k"] + cfg.custom["l"]
        shape = cfg.custom["matrix"].shape
        _require(shape == (d, d), f"custom.matrix must be {d}x{d} for n + k + l = {d}, "
                                  f"got shape {shape}")
    n, k, l = _system_dims(cfg)

    if "inertia" in raw:
        cfg.inertia = tuple(_sized(raw["inertia"], "inertia", 3, system))

    pot = raw.get("potential", {"kind": "none"}) or {"kind": "none"}
    _require(isinstance(pot, dict), "potential must be a mapping {kind, coefficient}")
    kind = pot.get("kind", "none")
    kinds = tuple(spec.potentials)
    _require(kind in kinds, f"potential kind for {system} must be one of {kinds}, got {kind!r}")
    cfg.potential_kind = kind
    if kind != "none":
        _require("coefficient" in pot, f"potential kind {kind!r} needs a coefficient")
        cfg.potential_coefficient = _as_float(pot["coefficient"], "potential.coefficient")

    mom = raw.get("momentum", {}) or {}
    _require(isinstance(mom, dict), "momentum must be a mapping {xi, eta}")
    cfg.momentum = MomentumValue(xi=_sized(mom.get("xi"), "momentum.xi", k, system),
                                 eta=_sized(mom.get("eta"), "momentum.eta", l, system))

    if raw.get("energy_target") is not None:
        cfg.energy_target = _as_float(raw["energy_target"], "energy_target")
        _require(cfg.energy_target > 0,
                 f"energy_target must be positive, got {cfg.energy_target}")
    cfg.t_end = _as_float(raw.get("t_end", cfg.t_end), "t_end")
    _require(cfg.t_end > 0, f"t_end must be positive, got {cfg.t_end}")

    integ = raw.get("integrator", {}) or {}
    _require(isinstance(integ, dict), "integrator must be a mapping")
    try:
        cfg.integrator = IntegratorConfig(
            method=integ.get("method", "rk4"),
            dt=_as_float(raw.get("dt", cfg.integrator.dt), "dt"),
            abs_tol=_as_float(integ.get("abs_tol", 1e-12), "integrator.abs_tol"),
            rel_tol=_as_float(integ.get("rel_tol", 1e-12), "integrator.rel_tol"),
            max_steps=_as_whole(integ.get("max_steps", 2_000_000), "integrator.max_steps", 1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    init = raw.get("initial", {}) or {}
    _require(isinstance(init, dict), "initial must be a mapping")
    if "reduced" in init:
        red = init["reduced"]
        _require(isinstance(red, dict) and "q" in red and "qdot" in red,
                 "initial.reduced needs q and qdot lists")
        cfg.initial_reduced = ReducedState(
            q=_sized(red["q"], "initial.reduced.q", n, system),
            qdot=_sized(red["qdot"], "initial.reduced.qdot", n, system))
    if "full" in init:
        full = init["full"]
        _require(isinstance(full, dict), "initial.full must be a mapping")
        sizes = {"q": n, "x": k, "psi": l, "qdot": n, "xdot": k, "psidot": l}
        cfg.initial_full = FullState(**{
            key: _sized(full.get(key), f"initial.full.{key}", size, system)
            for key, size in sizes.items()})
    if "cyclic0" in init:
        cyc = init["cyclic0"]
        _require(isinstance(cyc, dict), "initial.cyclic0 must be a mapping")
        cfg.cyclic0_x = _sized(cyc.get("x"), "initial.cyclic0.x", k, system, optional=True)
        cfg.cyclic0_psi = _sized(cyc.get("psi"), "initial.cyclic0.psi", l, system,
                                 optional=True)

    if raw.get("output") is not None:
        cfg.output = str(raw["output"])
    return cfg


def _system_dims(cfg: RunConfig) -> Tuple[int, int, int]:
    return _SYSTEMS[cfg.system].dims or (cfg.custom["n"], cfg.custom["k"], cfg.custom["l"])


def _potential(cfg: RunConfig):
    make = _SYSTEMS[cfg.system].potentials[cfg.potential_kind]
    return None if make is None else make(cfg.potential_coefficient)


def build_params(cfg: RunConfig) -> RigidBodyParams:
    """Rigid-body parameters of the run; ConfigError for any other system."""
    _require(_SYSTEMS[cfg.system].build is _rigid_body,
             f"this command runs on the rigid-body system, not {cfg.system}")
    return RigidBodyParams(*cfg.inertia, potential=_potential(cfg))


def build_system(cfg: RunConfig) -> SymmetricSystem:
    """Assemble the symmetric system selected by the configuration."""
    return _SYSTEMS[cfg.system].build(cfg)


def initial_reduced_state(cfg: RunConfig) -> ReducedState:
    _require(cfg.initial_reduced is not None, "config needs initial.reduced for this command")
    return cfg.initial_reduced


def initial_full_state(cfg: RunConfig, sys: SymmetricSystem) -> FullState:
    """``initial.full``, or the reduced seed completed at the configured momentum."""
    if cfg.initial_full is not None:
        return cfg.initial_full
    return complete_state(sys, cfg.momentum, initial_reduced_state(cfg),
                          x=cfg.cyclic0_x, psi=cfg.cyclic0_psi)


def state_labels(cfg: RunConfig, reduced: bool) -> List[str]:
    """Column names: state components in declaration order."""
    n, k, l = _system_dims(cfg)
    pos, cyc_x, cyc_psi = _SYSTEMS[cfg.system].labels or (
        [f"q{i}" for i in range(n)], [f"x{i}" for i in range(k)], [f"psi{i}" for i in range(l)])
    coords = [*pos] if reduced else [*pos, *cyc_x, *cyc_psi]
    return coords + [f"{c}dot" for c in coords]
