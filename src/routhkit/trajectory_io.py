"""Trajectory serialization: CSV with a commented metadata preamble.

Layout: '#' metadata lines (key = JSON value), one header row with column
names (t first, then state components in declaration order), then one row
per sample at 17 significant digits, which round-trips IEEE doubles
exactly.  The '#' preamble keeps the files gnuplot-friendly.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import List, Tuple

import numpy as np

from .errors import ConfigError
from .integrate import Trajectory, TrajectoryMeta
from .reduction import MomentumValue


def write_atomic(path: str, text: str) -> None:
    """Write text atomically: a temp file in the target dir, then a rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trajectory_csv(path: str, traj: Trajectory, labels: List[str]) -> None:
    """Write a trajectory atomically with :func:`write_atomic`."""
    if len(labels) != traj.states.shape[1]:
        raise ValueError(
            f"{len(labels)} labels for {traj.states.shape[1]} state columns"
        )
    meta = traj.meta
    lines = [f"# system = {json.dumps(meta.system)}"]
    if meta.energy0 is not None:
        lines.append(f"# energy0 = {json.dumps(meta.energy0)}")
    if meta.momentum is not None:
        lines.append(f"# momentum_xi = {json.dumps([float(v) for v in meta.momentum.xi])}")
        lines.append(f"# momentum_eta = {json.dumps([float(v) for v in meta.momentum.eta])}")
    lines.append(",".join(["t"] + list(labels)))
    for row in np.column_stack([traj.times, traj.states]).tolist():
        lines.append(",".join(f"{v:.17g}" for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: str) -> Tuple[Trajectory, List[str]]:
    """Read a trajectory written by :func:`write_trajectory_csv`."""
    meta_kv = {}
    header = None
    rows = []
    with open(path, "r") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = (part.strip() for part in body.split("=", 1))
                    try:
                        meta_kv[key] = json.loads(value)
                    except json.JSONDecodeError as exc:
                        raise ConfigError(f"{path}: metadata {key} is not JSON: "
                                          f"{value!r}") from exc
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ConfigError(f"{path}: data row {len(rows) + 1} has {len(cells)} "
                                  f"values for {len(header)} columns")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ConfigError(f"{path}: unreadable data row {len(rows) + 1}") from exc
    if header is None or len(rows) < 2:
        raise ConfigError(f"{path}: not a trajectory file (need header and >= 2 rows)")
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ConfigError(f"{path}: non-finite value in data row {int(np.argmin(finite)) + 1}")
    try:
        momentum = None
        if "momentum_xi" in meta_kv or "momentum_eta" in meta_kv:
            momentum = MomentumValue(
                xi=np.asarray(meta_kv.get("momentum_xi", []), dtype=float),
                eta=np.asarray(meta_kv.get("momentum_eta", []), dtype=float))
        meta = TrajectoryMeta(system=meta_kv.get("system", ""),
                              momentum=momentum,
                              energy0=meta_kv.get("energy0"))
        traj = Trajectory(times=data[:, 0], states=data[:, 1:], meta=meta)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return traj, header[1:]
