"""Rigid body with a fixed point in an axially symmetric field.

The configuration chart uses Euler angles with proper rotation ``phi`` and
nutation ``theta`` as shape coordinates and the precession ``psi`` about
the field symmetry axis as the single angular cyclic coordinate.  The
kinetic matrix comes from the body-frame angular velocity substitution

    w1 = psidot sin(theta) sin(phi) + thetadot cos(phi)
    w2 = psidot sin(theta) cos(phi) - thetadot sin(phi)
    w3 = psidot cos(theta) + phidot

with kinetic energy (A w1^2 + B w2^2 + C w3^2) / 2.  The chart excludes
the poles theta in {0, pi}; trajectories entering the guard band abort
with ChartBoundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ChartBoundary, GridMismatch, InvalidParams, SpanTooShort
from .integrate import Trajectory, cumulative_quadrature
from .reduction import BOUNDARY_TOL, TWO_PI, SymmetricSystem, _carried_potential_grad, _real


@dataclass(frozen=True)
class RigidBodyParams:
    """Principal moments of inertia and an axially symmetric potential.

    Attributes:
        A, B, C: principal moments of inertia, each positive and satisfying
            the triangle-type physicality bounds; stored as Python floats.
        potential: optional callable (phi, theta) -> energy; independence of
            the precession angle is structural.  A potential may carry a
            ``grad`` attribute, a callable (phi, theta) -> (dV/dphi,
            dV/dtheta); ``rb_system`` then uses it in place of central
            differences.
    """

    A: float
    B: float
    C: float
    potential: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        for name in "ABC":
            object.__setattr__(self, name, _real(getattr(self, name), name))
        moments = (self.A, self.B, self.C)
        if any(not (m > 0 and math.isfinite(m)) for m in moments):
            raise InvalidParams(f"inertia moments must be positive, got {moments}")
        if self.A + self.B < self.C or self.B + self.C < self.A or self.A + self.C < self.B:
            raise InvalidParams(
                f"inertia moments {moments} violate the triangle inequality"
            )

    def potential_value(self, phi: float, theta: float) -> float:
        if self.potential is None:
            return 0.0
        return float(self.potential(phi, theta))


def heavy_potential(coefficient: float) -> Callable[[float, float], float]:
    """Heavy-body potential: coefficient times the cosine of the nutation.

    The returned callable carries its closed-form gradient as ``grad``.
    The coefficient is taken as a Python float.
    """
    coefficient = _real(coefficient, "coefficient")

    def v0(phi: float, theta: float) -> float:
        return coefficient * math.cos(theta)

    def grad(phi: float, theta: float):
        return 0.0, -coefficient * math.sin(theta)

    v0.grad = grad
    return v0


def rb_system(p: RigidBodyParams) -> SymmetricSystem:
    """Adapted-chart system for the rigid body: n=2 shape (phi, theta), l=1.

    The pole guard is min(theta, pi - theta).  The potential gradient is
    exact for the free body and for a potential carrying ``grad``; other
    potentials are differenced.
    """

    A, B, C = p.A, p.B, p.C
    ab = A - B

    # The metric and its derivatives are handed over packed: the upper
    # triangles (K_pp, K_pt, K_ppsi, K_tt, K_tpsi, K_psipsi) as floats.
    def mass_matrix(q: np.ndarray) -> tuple:
        sp, cp = math.sin(q[0]), math.cos(q[0])
        st, ct = math.sin(q[1]), math.cos(q[1])
        return (C,                                            # k_pp
                0.0,                                          # k_pt
                C * ct,                                       # k_ppsi
                A * cp * cp + B * sp * sp,                    # k_tt
                ab * st * sp * cp,                            # k_tpsi
                (A * sp * sp + B * cp * cp) * st * st + C * ct * ct)  # k_psipsi

    def mass_matrix_grad(q: np.ndarray) -> tuple:
        sp, cp = math.sin(q[0]), math.cos(q[0])
        st, ct = math.sin(q[1]), math.cos(q[1])
        return ((0.0, 0.0,                                    # k_pp, k_pt
                 0.0,                                         # k_ppsi
                 -2.0 * ab * sp * cp,                         # k_tt
                 ab * st * (cp * cp - sp * sp),               # k_tpsi
                 2.0 * ab * sp * cp * st * st),               # k_psipsi
                (0.0, 0.0,                                    # k_pp, k_pt
                 -C * st,
                 0.0,
                 ab * ct * sp * cp,
                 2.0 * (A * sp * sp + B * cp * cp - C) * st * ct))

    def potential(q: np.ndarray) -> float:
        return p.potential_value(q[0], q[1])

    potential_grad = _carried_potential_grad(p.potential, 2,
                                             lambda grad: lambda q: grad(q[0], q[1]))

    def pole_guard(q: np.ndarray) -> float:
        return min(q[1], math.pi - q[1])

    return SymmetricSystem(n=2, k=0, l=1, mass_matrix=mass_matrix,
                           potential=potential, pole_guard=pole_guard,
                           name="rigid-body", mass_matrix_grad=mass_matrix_grad,
                           potential_grad=potential_grad)


def _guard_theta(theta: float) -> None:
    if min(theta, math.pi - theta) < BOUNDARY_TOL:
        raise ChartBoundary(f"theta={theta:.6g} within the pole guard band")


def kolosov_reduced_lagrangian(p: RigidBodyParams, phi: float, theta: float,
                               phidot: float, thetadot: float) -> float:
    """Closed form of the zero-momentum reduced Lagrangian in the chart.

    The quadratic form is the Schur complement of the precession block,
    written out explicitly; it agrees with the Routhian of ``rb_system``
    at zero momentum on the chart interior.  The kinetic part is
    homogeneous of degree 1 in the moments: it is evaluated at the moments
    scaled by a power of two to below 1 and scaled back exactly, so no
    product of moments overflows.
    """
    _guard_theta(theta)
    e = math.frexp(max(p.A, p.B, p.C))[1]
    A, B, C = math.ldexp(p.A, -e), math.ldexp(p.B, -e), math.ldexp(p.C, -e)
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    denom = (A * sp * sp + B * cp * cp) * st * st + C * ct * ct
    q_num = (A * cp * cp + B * sp * sp) * C * ct * ct + A * B * st * st
    r_num = (A * sp * sp + B * cp * cp) * C * st * st
    cross = 2.0 * (A - B) * C * phidot * thetadot * sp * cp * st * ct
    kinetic = 0.5 * (q_num * thetadot ** 2 + r_num * phidot ** 2 - cross) / denom
    return math.ldexp(kinetic, e) - p.potential_value(phi, theta)


def psi_dot_zero_momentum(p: RigidBodyParams, phi: float, theta: float,
                          phidot: float, thetadot: float) -> float:
    """Precession rate along zero-momentum motions."""
    _guard_theta(theta)
    A, B, C = p.A, p.B, p.C
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    denom = (A * sp * sp + B * cp * cp) * st * st + C * ct * ct
    return -((A - B) * thetadot * sp * cp * st + C * phidot * ct) / denom


def lambda_average(times, psidot_samples, T: float) -> float:
    """Average precession rate over exactly one period [0, T].

    Uses the same quadrature as reconstruction, so the lifted precession
    angle satisfies psi(T) - psi(0) = lambda * T up to quadrature error.

    Raises:
        GridMismatch: the samples do not align with at least two finite,
            strictly increasing times, or the times do not span exactly [0, T].
    """
    t = np.asarray(times, dtype=float)
    try:
        integral = cumulative_quadrature(t, psidot_samples)[-1]
    except ValueError as exc:
        raise GridMismatch(str(exc)) from exc
    if abs(t[0]) > 1e-9 * max(1.0, abs(T)) or abs(t[-1] - T) > 1e-9 * max(1.0, abs(T)):
        raise GridMismatch(
            f"samples span [{t[0]:.6g}, {t[-1]:.6g}], expected [0, {T:.6g}]"
        )
    return float(integral) / T


def _angle_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between angles modulo 2*pi."""
    d = np.mod(a - b + math.pi, TWO_PI) - math.pi
    return np.abs(d)


def rotating_frame_residual(full: Trajectory, lam: float, T: float) -> float:
    """Periodicity defect in the frame rotating at rate lam about the axis.

    Compares (phi, theta, psi - lam*t) at t and t + T for every grid point
    t in the first period; angle components are compared modulo 2*pi.  The
    states at t + T are linearly interpolated on the grid.

    Raises:
        SpanTooShort: the trajectory does not cover two periods.
    """
    t = full.times
    if t[-1] - t[0] < 2.0 * T - 1e-9:
        raise SpanTooShort(
            f"trajectory spans {t[-1] - t[0]:.6g}, need at least {2 * T:.6g}"
        )
    pos = full.states[:, :3]
    chi = pos.copy()
    chi[:, 2] = pos[:, 2] - lam * (t - t[0])

    first = t <= t[0] + T + 1e-12
    chi_a = chi[first]
    chi_b = np.column_stack([
        np.interp(t[first] + T, t, chi[:, j]) for j in range(3)
    ])

    gap_phi = _angle_gap(chi_a[:, 0], chi_b[:, 0])
    gap_theta = np.abs(chi_a[:, 1] - chi_b[:, 1])
    gap_psi = _angle_gap(chi_a[:, 2], chi_b[:, 2])
    return float(np.max(np.concatenate([gap_phi, gap_theta, gap_psi])))
