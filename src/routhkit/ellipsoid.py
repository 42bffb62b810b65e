"""Particle dynamics on the inertia ellipsoid and closed-geodesic checks.

The shape sphere maps onto the ellipsoid E: A x^2 + B y^2 + C z^2 = 1 by

    x = sin(theta) sin(phi) / sqrt(A)
    y = sin(theta) cos(phi) / sqrt(B)
    z = cos(theta) / sqrt(C)

Zero-momentum motions at energy h become, after the time change
dt = a(u) dtau with a(u) = ABC / (A^2 x^2 + B^2 y^2 + C^2 z^2), motions of
a unit-mass particle on E in the potential a(u) (V(u) - h) with total
energy zero.  For a free body this is the geodesic flow of the conformally
rescaled surface metric, checked here through speed constancy and
trajectory equivalence rather than through surface Christoffel symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .errors import InvalidParams, OffSurface
from .integrate import (
    IntegratorConfig,
    PeriodicOrbit,
    Trajectory,
    TrajectoryMeta,
    cumulative_quadrature,
    integrate_ode,
    propagate,
    shoot_periodic,
)
from .reduction import gradient
from .rigidbody import RigidBodyParams

# Constraint residual allowed before an operation refuses the state.
SURFACE_TOL = 1e-8


@dataclass(frozen=True)
class EllipsoidState:
    """Point on the ellipsoid with a tangent velocity."""

    u: np.ndarray
    udot: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        udot = np.asarray(self.udot, dtype=float)
        if u.shape != (3,) or udot.shape != (3,):
            raise ValueError("u and udot must be 3-vectors")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(udot))):
            raise ValueError("state must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "udot", udot)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.u, self.udot])

    @classmethod
    def from_vector(cls, vec) -> "EllipsoidState":
        vec = np.asarray(vec, dtype=float)
        return cls(u=vec[:3], udot=vec[3:6])


@dataclass(frozen=True)
class ConformalData:
    """Energy constant and the potential carried over to the ellipsoid.

    Attributes:
        h: energy constant of the reduced motion.
        potential: optional callable u -> V(u) on (a neighborhood of) the
            surface; None means a free body.
        potential_grad: optional analytic gradient of the potential; a
            central finite difference is used when absent.
    """

    h: float
    potential: Optional[Callable[[np.ndarray], float]] = None
    potential_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value(self, u: np.ndarray) -> float:
        if self.potential is None:
            return 0.0
        return float(self.potential(u))

    def grad(self, u: np.ndarray) -> np.ndarray:
        if self.potential is None:
            return np.zeros(3)
        if self.potential_grad is not None:
            return np.asarray(self.potential_grad(u), dtype=float)
        return gradient(self.potential, u)


def _residual_unchecked(p: RigidBodyParams, u):
    u = np.asarray(u, dtype=float)
    return p.A * u[..., 0] ** 2 + p.B * u[..., 1] ** 2 + p.C * u[..., 2] ** 2 - 1.0


def surface_residual(p: RigidBodyParams, u):
    """Constraint value A x^2 + B y^2 + C z^2 - 1 at a point, or at each
    row of a (..., 3) stack of points."""
    res = _residual_unchecked(p, u)
    return float(res) if res.ndim == 0 else res


def _require_on_surface(p: RigidBodyParams, u) -> None:
    """Refuse a point, or a (..., 3) stack, whose worst residual exceeds SURFACE_TOL."""
    worst = float(np.abs(_residual_unchecked(p, u)).max())
    if not worst <= SURFACE_TOL:
        raise OffSurface(f"constraint residual {worst:.3e} exceeds {SURFACE_TOL:.1e}")


def constraint_gradient(p: RigidBodyParams, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return 2.0 * np.array([p.A * u[0], p.B * u[1], p.C * u[2]])


def kolosov_map(p: RigidBodyParams, phi, theta) -> np.ndarray:
    """Shape-sphere point (phi, theta) mapped onto the ellipsoid; angle arrays
    of one shape give the points stacked on a new last axis."""
    st = np.sin(theta)
    return np.stack([
        st * np.sin(phi) / math.sqrt(p.A),
        st * np.cos(phi) / math.sqrt(p.B),
        np.cos(theta) / math.sqrt(p.C),
    ], axis=-1)


def kolosov_velocity(p: RigidBodyParams, phi, theta, phidot, thetadot) -> np.ndarray:
    """Tangent map of the ellipsoid diffeomorphism applied to (phidot, thetadot);
    arrays of one shape give the velocities stacked on a new last axis."""
    sp, cp = np.sin(phi), np.cos(phi)
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([
        (ct * sp * thetadot + st * cp * phidot) / math.sqrt(p.A),
        (ct * cp * thetadot - st * sp * phidot) / math.sqrt(p.B),
        -st * thetadot / math.sqrt(p.C),
    ], axis=-1)


def _factor_unchecked(p: RigidBodyParams, u):
    u = np.asarray(u, dtype=float)
    s = p.A ** 2 * u[..., 0] ** 2 + p.B ** 2 * u[..., 1] ** 2 + p.C ** 2 * u[..., 2] ** 2
    return p.A * p.B * p.C / s


def conformal_factor(p: RigidBodyParams, u):
    """Time-change density a(u) = ABC / (A^2 x^2 + B^2 y^2 + C^2 z^2).

    ``u`` is a point or a (..., 3) stack of points; a stack gives one
    density per row after one surface check on the worst row.
    """
    _require_on_surface(p, u)
    return _factor_unchecked(p, u)


def conformal_factor_grad(p: RigidBodyParams, u) -> np.ndarray:
    """Analytic gradient of the time-change density."""
    u = np.asarray(u, dtype=float)
    s = p.A ** 2 * u[0] ** 2 + p.B ** 2 * u[1] ** 2 + p.C ** 2 * u[2] ** 2
    w = np.array([p.A ** 2 * u[0], p.B ** 2 * u[1], p.C ** 2 * u[2]])
    return -2.0 * p.A * p.B * p.C * w / s ** 2


def kolosov_potential(p: RigidBodyParams, cd: ConformalData, u) -> float:
    """Potential of the rescaled-time dynamics: a(u) (V(u) - h).

    Strictly negative everywhere for a free body with h > 0.
    """
    return conformal_factor(p, u) * (cd.value(np.asarray(u, dtype=float)) - cd.h)


def _project(p: RigidBodyParams, state) -> list:
    """Six floats (u, udot) projected: the point onto the constraint along
    its gradient, the velocity onto the tangent plane there."""
    A, B, C = p.A, p.B, p.C
    x, y, z, vx, vy, vz = state
    for _ in range(3):
        res = A * x * x + B * y * y + C * z * z - 1.0
        if abs(res) < 1e-15:
            break
        gx, gy, gz = 2.0 * A * x, 2.0 * B * y, 2.0 * C * z
        gn2 = gx * gx + gy * gy + gz * gz
        x -= res * gx / gn2
        y -= res * gy / gn2
        z -= res * gz / gn2
    gx, gy, gz = 2.0 * A * x, 2.0 * B * y, 2.0 * C * z
    k = (gx * vx + gy * vy + gz * vz) / (gx * gx + gy * gy + gz * gz)
    return [x, y, z, vx - k * gx, vy - k * gy, vz - k * gz]


def project_to_surface(p: RigidBodyParams, u, udot):
    """Project a point onto the constraint along its gradient and the
    velocity onto the tangent plane."""
    out = _project(p, np.asarray(u, dtype=float).tolist()
                   + np.asarray(udot, dtype=float).tolist())
    return np.array(out[:3]), np.array(out[3:])


def _accel(p: RigidBodyParams, cd: ConformalData, u, udot, physical_time: bool):
    """Constrained acceleration and multiplier; no surface checks.

    Explicit integrator stage points sit slightly off the surface, so the
    flow evaluates this formula without checking them.  ``u`` and ``udot``
    are three floats each; the algebra runs on them directly and returns
    the acceleration as a list of three floats.  Products rather than
    powers let a huge state overflow to inf instead of raising.  A
    potential is handed an array point, built only when there is one.
    """
    A, B, C = p.A, p.B, p.C
    x, y, z = u
    vx, vy, vz = udot
    abc = A * B * C
    gx, gy, gz = 2.0 * A * x, 2.0 * B * y, 2.0 * C * z
    # conformal factor a = abc / s and its gradient c * (ex, ey, ez)
    ex, ey, ez = A * A * x, B * B * y, C * C * z
    s = ex * x + ey * y + ez * z
    factor = abc / s
    c = -2.0 * factor * factor / abc
    free = cd.potential is None
    if free:
        fx, fy, fz = 0.0, 0.0, 0.0
    else:
        point = np.array([x, y, z])
        fx, fy, fz = cd.grad(point).tolist()
    if physical_time:
        # w = T grad(a) - (grad(a) . udot) udot - grad(V)
        a, inv_a = factor, s / abc
        kinetic = 0.5 * (vx * vx + vy * vy + vz * vz)
        dax, day, daz = c * ex, c * ey, c * ez
        dav = dax * vx + day * vy + daz * vz
        wx = kinetic * dax - dav * vx - fx
        wy = kinetic * day - dav * vy - fy
        wz = kinetic * daz - dav * vz - fz
    else:
        # w = -grad(a (V - h))
        a, inv_a = 1.0, 1.0
        dv = (-cd.h if free else cd.value(point) - cd.h) * c
        wx = -(dv * ex + factor * fx)
        wy = -(dv * ey + factor * fy)
        wz = -(dv * ez + factor * fz)

    # second derivative of the constraint: g . uddot + udot^T Hess(Phi) udot = 0
    hess_term = 2.0 * (A * vx * vx + B * vy * vy + C * vz * vz)
    lam = -(a * hess_term + gx * wx + gy * wy + gz * wz) / (gx * gx + gy * gy + gz * gz)
    return [(wx + lam * gx) * inv_a, (wy + lam * gy) * inv_a, (wz + lam * gz) * inv_a], lam


def conformal_energy(p: RigidBodyParams, cd: ConformalData, s: EllipsoidState,
                     physical_time: bool = False) -> float:
    """Conserved energy of the corresponding constrained flow."""
    kinetic = 0.5 * float(s.udot @ s.udot)
    if physical_time:
        return conformal_factor(p, s.u) * kinetic + cd.value(s.u)
    return kinetic + kolosov_potential(p, cd, s.u)


def _flow_rhs(p: RigidBodyParams, cd: ConformalData, physical_time: bool = False):
    """The constrained flow as an ``integrate_ode`` right-hand side: six
    floats (u, udot) in, a list of six floats out."""
    def rhs(y) -> list:
        if not isinstance(y, list):  # direct callers may pass an array
            y = np.asarray(y, dtype=float).tolist()
        udot = y[3:]
        uddot, _ = _accel(p, cd, y[:3], udot, physical_time)
        return udot + uddot

    return rhs


def _flow_project(p: RigidBodyParams):
    """Surface projection as an ``integrate_ode`` projection: six floats in,
    a list of six floats out."""
    def project(y) -> list:
        return _project(p, y)

    return project


def constrained_flow(p: RigidBodyParams, cd: ConformalData, s0: EllipsoidState,
                     t0: float, t1: float, cfg: IntegratorConfig,
                     physical_time: bool = False) -> Trajectory:
    """Integrate the constrained dynamics with per-step surface projection:
    in rescaled time (default), conserving T + a (V - h) = 0, or with
    ``physical_time`` in the original time, conserving a T + V = h."""
    project = _flow_project(p)
    start = project(s0.to_vector())
    traj = integrate_ode(_flow_rhs(p, cd, physical_time), start, t0, t1, cfg,
                         project=project)
    traj.meta = TrajectoryMeta(system="ellipsoid", energy0=cd.h)
    return traj


def _speed_unchecked(p: RigidBodyParams, h: float, u, udot):
    return np.sqrt(h * _factor_unchecked(p, u)) * np.linalg.norm(udot, axis=-1)


def maupertuis_speed(p: RigidBodyParams, h: float, s: EllipsoidState) -> float:
    """Norm of the velocity in the rescaled surface metric, sqrt(h a(u)) |udot|.

    Along a free-body image in original time this value is constant
    (equal to h sqrt(2)); that constancy certifies the geodesic property
    without building surface Christoffel symbols.
    """
    _require_on_surface(p, s.u)
    return float(_speed_unchecked(p, h, s.u, s.udot))


# ---------------------------------------------------------------------------
# Principal-section closed orbits


# In-plane basis (ellipse axes) per section: indices of the two coordinates
# that stay active, in the parametrization order used by the seeds.
_SECTION_PLANE = {"z": (0, 1), "y": (0, 2), "x": (1, 2)}

# Chart points per angle of the grid on which max V is sampled.
_POTENTIAL_GRID = 64

# Adaptive flow of the periodic-orbit shooting and the section closure tolerance.
_SHOOT_CFG = IntegratorConfig(method="rk45", dt=1e-2, abs_tol=1e-12, rel_tol=1e-12)
_SECTION_TOL = 1e-8


def _max_potential(p: RigidBodyParams, cd: ConformalData) -> float:
    if cd.potential is None:
        return 0.0
    phi, theta = np.meshgrid(
        np.linspace(0.0, 2.0 * math.pi, _POTENTIAL_GRID, endpoint=False),
        np.linspace(1e-3, math.pi - 1e-3, _POTENTIAL_GRID), indexing="ij")
    return max(cd.value(u) for u in kolosov_map(p, phi, theta).reshape(-1, 3))


def require_energy_above_potential(p: RigidBodyParams, cd: ConformalData) -> None:
    """Refuse configurations violating the geodesic precondition h > max V.

    max V is the largest potential value on a 64 x 64 grid of chart points
    (phi, theta), so the check is a sample, not a bound: a potential that
    peaks between grid points can pass with h below its true maximum.
    """
    vmax = _max_potential(p, cd)
    if not cd.h > vmax:
        raise InvalidParams(
            f"energy constant h={cd.h:.6g} must exceed max V={vmax:.6g} "
            "for the geodesic statement"
        )


def section_seed(p: RigidBodyParams, cd: ConformalData, plane: str):
    """Seed state and period guess for a coordinate-plane section orbit.

    The seed sits on the principal ellipse of the section with an in-plane
    velocity matching the zero-energy relation; the period guess is the
    arclength-over-speed quadrature around the ellipse, evaluated on the
    whole 4001-point grid at once.

    Raises:
        InvalidParams: the energy does not exceed the potential somewhere
            on the ellipse, so the zero-energy speed is not real.
    """
    if plane not in _SECTION_PLANE:
        raise ValueError(f"plane must be one of x, y, z, got {plane!r}")
    moments = (p.A, p.B, p.C)
    i, j = _SECTION_PLANE[plane]
    ri, rj = math.sqrt(moments[i]), math.sqrt(moments[j])

    alpha = np.linspace(0.0, 2.0 * math.pi, 4001)
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    u = np.zeros((alpha.size, 3))  # one grid point per row
    u[:, i] = cos_a / ri
    u[:, j] = sin_a / rj
    if cd.potential is None:
        margin = np.full(alpha.size, cd.h)
    else:
        margin = cd.h - np.array([cd.value(point) for point in u])
    if not (margin > 0.0).all():
        raise InvalidParams(
            f"energy constant h={cd.h:.6g} does not exceed V on the {plane}-section "
            "ellipse"
        )
    speed = np.sqrt(2.0 * _factor_unchecked(p, u) * margin)
    darc = np.hypot(sin_a / ri, cos_a / rj)
    T_guess = float(cumulative_quadrature(alpha, darc / speed)[-1])

    udot0 = np.zeros(3)
    udot0[j] = speed[0]
    return np.concatenate([u[0], udot0]), T_guess


def principal_section_orbits(p: RigidBodyParams, cd: ConformalData) -> Dict[str, PeriodicOrbit]:
    """Refine the three coordinate-plane closed orbits of the rescaled flow.

    Coordinate planes are invariant under the flow because the factor and
    the default potentials are even under each coordinate sign flip, so the
    planar seeds are closed orbits; shooting only has to polish the period.

    Returns:
        dict mapping "x", "y", "z" (the section normal) to the refined
        orbit.

    Raises:
        InvalidParams: the energy does not dominate the potential.
        NoConvergence: a section failed to refine (propagated per section).
    """
    require_energy_above_potential(p, cd)
    rhs = _flow_rhs(p, cd)
    project = _flow_project(p)

    def flow(state: np.ndarray, T: float) -> np.ndarray:
        return propagate(rhs, project(state), 0.0, T, _SHOOT_CFG, project=project)

    orbits: Dict[str, PeriodicOrbit] = {}
    for plane in ("x", "y", "z"):
        seed, T_guess = section_seed(p, cd, plane)
        # phase anchor: the dominant velocity component; holding it pins the
        # energy of the orbit family while least squares absorbs the
        # time-shift direction
        phase_index = 3 + int(np.argmax(np.abs(seed[3:])))
        orbits[plane] = shoot_periodic(flow, seed, T_guess, tol=_SECTION_TOL,
                                       phase_index=phase_index)
    return orbits


def dsigma_length(p: RigidBodyParams, cd: ConformalData, orbit: PeriodicOrbit,
                  cfg: IntegratorConfig = _SHOOT_CFG) -> float:
    """Length of a closed orbit in the rescaled surface metric: the speed
    sqrt(h a(u)) |udot| integrated over one period of the constrained flow,
    carried as a seventh state that the projection leaves alone, so one
    integration gives it.  Every stored point must lie on the surface."""
    flow, project = _flow_rhs(p, cd), _flow_project(p)
    A2, B2, C2, h_abc = p.A * p.A, p.B * p.B, p.C * p.C, cd.h * p.A * p.B * p.C

    def rhs(s: list) -> list:
        x, y, z, vx, vy, vz = s[:6]
        a_h = h_abc / (A2 * x * x + B2 * y * y + C2 * z * z)
        return flow(s[:6]) + [math.sqrt(a_h * (vx * vx + vy * vy + vz * vz))]

    def project_carried(s: list) -> list:
        return project(s[:6]) + [s[6]]

    start = project(orbit.initial_state.tolist()) + [0.0]
    traj = integrate_ode(rhs, start, 0.0, orbit.period, cfg, project=project_carried)
    _require_on_surface(p, traj.states[:, :3])
    return float(traj.states[-1, 6])
