"""Ready-made symmetric systems used by the CLI and the test harness."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .reduction import SymmetricSystem


def central_force_system(potential: Optional[Callable[[float], float]] = None) -> SymmetricSystem:
    """Planar central-force system: radius r as shape, polar angle as cyclic.

    Kinetic matrix diag(1, r^2) for a unit mass, handed over packed as
    (K_rr, K_r angle, K_angle angle); the chart excludes the collision r = 0.
    """

    def mass(q: np.ndarray) -> tuple:
        return 1.0, 0.0, float(q[0]) ** 2

    def mass_grad(q: np.ndarray) -> tuple:
        return (0.0, 0.0, 2.0 * float(q[0])),

    def v0(q: np.ndarray) -> float:
        return 0.0 if potential is None else float(potential(q[0]))

    return SymmetricSystem(n=1, k=0, l=1, mass_matrix=mass, potential=v0,
                           pole_guard=lambda q: float(q[0]), name="central-force",
                           mass_matrix_grad=mass_grad)


def harmonic_radial_potential(coefficient: float) -> Callable[[float], float]:
    """Radial potential coefficient * r^2 / 2 (closed-form circular orbits)."""
    return lambda r: 0.5 * coefficient * r * r


def constant_matrix_system(n: int, k: int, l: int, matrix,
                           potential: Optional[Callable[[np.ndarray], float]] = None,
                           name: str = "custom-matrix") -> SymmetricSystem:
    """System with a configuration-independent kinetic matrix."""
    K = np.asarray(matrix, dtype=float)
    d = n + k + l
    if K.shape != (d, d):
        raise ValueError(f"custom matrix must be {d}x{d}, got {K.shape}")

    dK = np.zeros((n, d, d))
    dK.flags.writeable = False

    def mass(q: np.ndarray) -> np.ndarray:
        return K

    def v0(q: np.ndarray) -> float:
        return 0.0 if potential is None else float(potential(q))

    return SymmetricSystem(n=n, k=k, l=l, mass_matrix=mass, potential=v0, name=name,
                           mass_matrix_grad=lambda q: dK)
