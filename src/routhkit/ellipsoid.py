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

from .errors import InvalidParams, OffSurface, TangencyViolation
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
# Relative tangency defect allowed in the constrained right-hand side.
TANGENCY_TOL = 1e-6


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
    return p.A * u[0] ** 2 + p.B * u[1] ** 2 + p.C * u[2] ** 2 - 1.0


def surface_residual(p: RigidBodyParams, u) -> float:
    """Constraint value A x^2 + B y^2 + C z^2 - 1."""
    return float(_residual_unchecked(p, np.asarray(u, dtype=float)))


def _require_on_surface(p: RigidBodyParams, u) -> None:
    res = surface_residual(p, u)
    if abs(res) > SURFACE_TOL:
        raise OffSurface(f"constraint residual {res:.3e} exceeds {SURFACE_TOL:.1e}")


def constraint_gradient(p: RigidBodyParams, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return 2.0 * np.array([p.A * u[0], p.B * u[1], p.C * u[2]])


def kolosov_map(p: RigidBodyParams, phi: float, theta: float) -> np.ndarray:
    """Shape-sphere point (phi, theta) mapped onto the ellipsoid."""
    st = math.sin(theta)
    return np.array([
        st * math.sin(phi) / math.sqrt(p.A),
        st * math.cos(phi) / math.sqrt(p.B),
        math.cos(theta) / math.sqrt(p.C),
    ])


def kolosov_velocity(p: RigidBodyParams, phi: float, theta: float,
                     phidot: float, thetadot: float) -> np.ndarray:
    """Tangent map of the ellipsoid diffeomorphism applied to (phidot, thetadot)."""
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    return np.array([
        (ct * sp * thetadot + st * cp * phidot) / math.sqrt(p.A),
        (ct * cp * thetadot - st * sp * phidot) / math.sqrt(p.B),
        -st * thetadot / math.sqrt(p.C),
    ])


def kolosov_angles(p: RigidBodyParams, u) -> tuple[float, float]:
    """Inverse of the ellipsoid map: chart angles of a surface point."""
    u = np.asarray(u, dtype=float)
    theta = math.acos(min(1.0, max(-1.0, math.sqrt(p.C) * u[2])))
    phi = math.atan2(math.sqrt(p.A) * u[0], math.sqrt(p.B) * u[1])
    return phi, theta


def surface_potential_from_chart(p: RigidBodyParams,
                                 v0: Callable[[float, float], float]) -> Callable[[np.ndarray], float]:
    """Pull a chart potential (phi, theta) back through the inverse map."""

    def potential(u: np.ndarray) -> float:
        phi, theta = kolosov_angles(p, u)
        return float(v0(phi, theta))

    return potential


def _factor_unchecked(p: RigidBodyParams, u: np.ndarray) -> float:
    s = p.A ** 2 * u[0] ** 2 + p.B ** 2 * u[1] ** 2 + p.C ** 2 * u[2] ** 2
    return p.A * p.B * p.C / s


def conformal_factor(p: RigidBodyParams, u) -> float:
    """Time-change density a(u) = ABC / (A^2 x^2 + B^2 y^2 + C^2 z^2)."""
    _require_on_surface(p, u)
    return _factor_unchecked(p, np.asarray(u, dtype=float))


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


def kolosov_potential_grad(p: RigidBodyParams, cd: ConformalData, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    a = conformal_factor(p, u)
    ga = conformal_factor_grad(p, u)
    return ga * (cd.value(u) - cd.h) + a * cd.grad(u)


def project_to_surface(p: RigidBodyParams, u, udot):
    """Project a point onto the constraint along its gradient and the
    velocity onto the tangent plane."""
    A, B, C = p.A, p.B, p.C
    x, y, z = np.asarray(u, dtype=float).tolist()
    vx, vy, vz = np.asarray(udot, dtype=float).tolist()
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
    return np.array([x, y, z]), np.array([vx - k * gx, vy - k * gy, vz - k * gz])


def _accel(p: RigidBodyParams, cd: ConformalData, u: np.ndarray, udot: np.ndarray,
           physical_time: bool):
    """Constrained acceleration and multiplier; no surface checks.

    Explicit integrator stage points sit slightly off the surface, so the
    flow evaluates this formula directly; the public operation wraps it in
    the contract checks.  The 3-vector algebra runs on Python floats, and
    products rather than powers let a huge state overflow to inf instead
    of raising.
    """
    A, B, C = p.A, p.B, p.C
    x, y, z = u.tolist()
    vx, vy, vz = udot.tolist()
    abc = A * B * C
    gx, gy, gz = 2.0 * A * x, 2.0 * B * y, 2.0 * C * z
    # conformal factor a = abc / s and its gradient c * (ex, ey, ez)
    ex, ey, ez = A * A * x, B * B * y, C * C * z
    s = ex * x + ey * y + ez * z
    factor = abc / s
    c = -2.0 * factor * factor / abc
    free = cd.potential is None
    fx, fy, fz = (0.0, 0.0, 0.0) if free else cd.grad(u).tolist()
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
        dv = (-cd.h if free else cd.value(u) - cd.h) * c
        wx = -(dv * ex + factor * fx)
        wy = -(dv * ey + factor * fy)
        wz = -(dv * ez + factor * fz)

    # second derivative of the constraint: g . uddot + udot^T Hess(Phi) udot = 0
    hess_term = 2.0 * (A * vx * vx + B * vy * vy + C * vz * vz)
    lam = -(a * hess_term + gx * wx + gy * wy + gz * wz) / (gx * gx + gy * gy + gz * gz)
    return np.array([(wx + lam * gx) * inv_a, (wy + lam * gy) * inv_a,
                     (wz + lam * gz) * inv_a]), lam


def constrained_rhs(p: RigidBodyParams, cd: ConformalData, s: EllipsoidState,
                    physical_time: bool = False):
    """Constrained Euler-Lagrange right-hand side with an exact multiplier.

    With ``physical_time`` False (default) the Lagrangian is
    T(u') - a(u)(V(u) - h) in the rescaled time, whose motions conserve
    T + a (V - h) = 0 on matched initial data.  With ``physical_time``
    True it is a(u) T(udot) - V(u) in the original time, conserving
    a T + V = h.  The multiplier is solved from the second derivative of
    the constraint and reported for diagnostics.

    Returns:
        (udot, uddot, lam).

    Raises:
        OffSurface, TangencyViolation: state violates the constraint or the
            tangency condition beyond tolerance.
    """
    u = s.u
    udot = s.udot
    _require_on_surface(p, u)
    g = constraint_gradient(p, u)
    tangency = abs(float(g @ udot))
    if tangency > TANGENCY_TOL * (1.0 + float(np.linalg.norm(udot))) * float(np.linalg.norm(g)):
        raise TangencyViolation(
            f"velocity tangency defect {tangency:.3e} beyond tolerance"
        )
    uddot, lam = _accel(p, cd, u, udot, physical_time)
    return udot.copy(), uddot, lam


def conformal_energy(p: RigidBodyParams, cd: ConformalData, s: EllipsoidState,
                     physical_time: bool = False) -> float:
    """Conserved energy of the corresponding constrained flow."""
    kinetic = 0.5 * float(s.udot @ s.udot)
    if physical_time:
        return conformal_factor(p, s.u) * kinetic + cd.value(s.u)
    return kinetic + kolosov_potential(p, cd, s.u)


def _flow_rhs(p: RigidBodyParams, cd: ConformalData, physical_time: bool = False):
    def rhs(y: np.ndarray) -> np.ndarray:
        out = np.empty(6)
        out[:3] = y[3:]
        out[3:], _ = _accel(p, cd, y[:3], y[3:], physical_time)
        return out

    return rhs


def _flow_project(p: RigidBodyParams):
    def project(y: np.ndarray) -> np.ndarray:
        u, udot = project_to_surface(p, y[:3], y[3:])
        return np.concatenate([u, udot])

    return project


def constrained_flow(p: RigidBodyParams, cd: ConformalData, s0: EllipsoidState,
                     t0: float, t1: float, cfg: IntegratorConfig,
                     physical_time: bool = False) -> Trajectory:
    """Integrate the constrained dynamics with per-step surface projection."""
    project = _flow_project(p)
    start = project(s0.to_vector())
    traj = integrate_ode(_flow_rhs(p, cd, physical_time), start, t0, t1, cfg,
                         project=project)
    traj.meta = TrajectoryMeta(system="ellipsoid", chart="embedded", energy0=cd.h)
    return traj


def maupertuis_speed(p: RigidBodyParams, h: float, s: EllipsoidState) -> float:
    """Norm of the velocity in the rescaled surface metric.

    Along a free-body image in original time this value is constant
    (equal to h sqrt(2)); that constancy certifies the geodesic property
    without building surface Christoffel symbols.
    """
    _require_on_surface(p, s.u)
    u = s.u
    sden = p.A ** 2 * u[0] ** 2 + p.B ** 2 * u[1] ** 2 + p.C ** 2 * u[2] ** 2
    return math.sqrt(h * p.A * p.B * p.C) * float(np.linalg.norm(s.udot)) / math.sqrt(sden)


# ---------------------------------------------------------------------------
# Principal-section closed orbits


_SECTION_AXES = {"x": 0, "y": 1, "z": 2}

# In-plane basis (ellipse axes) per section: indices of the two coordinates
# that stay active, in the parametrization order used by the seeds.
_SECTION_PLANE = {"z": (0, 1), "y": (0, 2), "x": (1, 2)}


def _max_potential(p: RigidBodyParams, cd: ConformalData, samples: int = 4096) -> float:
    if cd.potential is None:
        return 0.0
    best = -math.inf
    m = int(round(math.sqrt(samples)))
    for phi in np.linspace(0.0, 2.0 * math.pi, m, endpoint=False):
        for theta in np.linspace(1e-3, math.pi - 1e-3, m):
            u = kolosov_map(p, phi, theta)
            best = max(best, cd.value(u))
    return best


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
        OffSurface: a grid point misses the constraint beyond tolerance.
        InvalidParams: the energy does not exceed the potential somewhere
            on the ellipse, so the zero-energy speed is not real.
    """
    if plane not in _SECTION_AXES:
        raise ValueError(f"plane must be one of x, y, z, got {plane!r}")
    moments = (p.A, p.B, p.C)
    i, j = _SECTION_PLANE[plane]
    ri, rj = math.sqrt(moments[i]), math.sqrt(moments[j])

    alpha = np.linspace(0.0, 2.0 * math.pi, 4001)
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    u = np.zeros((3, alpha.size))  # one grid point per column
    u[i] = cos_a / ri
    u[j] = sin_a / rj
    res = float(np.abs(_residual_unchecked(p, u)).max())
    if not res <= SURFACE_TOL:
        raise OffSurface(f"constraint residual {res:.3e} exceeds {SURFACE_TOL:.1e}")
    if cd.potential is None:
        margin = np.full(alpha.size, cd.h)
    else:
        margin = cd.h - np.array([cd.value(point) for point in u.T])
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
    return np.concatenate([u[:, 0], udot0]), T_guess


def principal_section_orbits(p: RigidBodyParams, cd: ConformalData,
                             cfg: Optional[IntegratorConfig] = None,
                             tol: float = 1e-8) -> Dict[str, PeriodicOrbit]:
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
    if cfg is None:
        cfg = IntegratorConfig(method="rk45", dt=1e-2, abs_tol=1e-12, rel_tol=1e-12)

    rhs = _flow_rhs(p, cd)
    project = _flow_project(p)

    def flow(state: np.ndarray, T: float) -> np.ndarray:
        return propagate(rhs, project(state), 0.0, T, cfg, project=project)

    orbits: Dict[str, PeriodicOrbit] = {}
    for plane in ("x", "y", "z"):
        seed, T_guess = section_seed(p, cd, plane)
        # phase anchor: the dominant velocity component; holding it pins the
        # energy of the orbit family while least squares absorbs the
        # time-shift direction
        phase_index = 3 + int(np.argmax(np.abs(seed[3:])))
        orbits[plane] = shoot_periodic(flow, seed, T_guess, cfg, tol=tol,
                                       phase_index=phase_index)
    return orbits


def orbit_trajectory(p: RigidBodyParams, cd: ConformalData, orbit: PeriodicOrbit,
                     cfg: Optional[IntegratorConfig] = None,
                     periods: float = 1.0) -> Trajectory:
    """Sample a refined orbit over a number of periods (fixed-step RK4)."""
    if cfg is None:
        cfg = IntegratorConfig(method="rk4", dt=1e-3)
    state = EllipsoidState.from_vector(orbit.initial_state)
    return constrained_flow(p, cd, state, 0.0, periods * orbit.period, cfg)


def dsigma_length(p: RigidBodyParams, cd: ConformalData, orbit: PeriodicOrbit,
                  cfg: Optional[IntegratorConfig] = None) -> float:
    """Length of a closed orbit in the rescaled surface metric."""
    traj = orbit_trajectory(p, cd, orbit, cfg)
    speeds = np.array([
        maupertuis_speed(p, cd.h, EllipsoidState.from_vector(s)) for s in traj.states
    ])
    return float(cumulative_quadrature(traj.times, speeds)[-1])
