"""Invariant suites: reduction self-checks and the ellipsoid equivalence.

Every check returns a CheckResult with the measured residual and its
tolerance.  ``run_verify`` and ``run_kolosov`` gather them into the report
that the CLI prints and writes (``report_dict``).  The same functions back
the acceptance tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .ellipsoid import (
    ConformalData,
    _SHOOT_CFG,
    _flow_project,
    _flow_rhs,
    _speed_unchecked,
    conformal_factor,
    kolosov_map,
    kolosov_velocity,
    principal_section_orbits,
)
from .errors import ConfigError, InvalidParams, NotPositiveDefinite, SpanTooShort
from .integrate import (
    IntegratorConfig,
    Trajectory,
    TrajectoryMeta,
    cumulative_quadrature,
    integrate_full,
    integrate_grid,
    integrate_ode,
    integrate_reduced,
    reconstruct,
    reparametrize_time,
)
# Not called here: perfbench/tracing.py wraps these as attributes of this module.
from .ellipsoid import dsigma_length  # noqa: F401
from .integrate import propagate, reduced_vector_field, shoot_periodic  # noqa: F401
from .reduction import (
    FullState,
    MomentumValue,
    ReducedState,
    SymmetricSystem,
    complete_state,
    evaluate_metric,
    lagrangian_full,
    momentum_map,
    reduced_energy,
    routhian,
    symplectic_det_pair,
)
from .rigidbody import (
    RigidBodyParams,
    kolosov_reduced_lagrangian,
    lambda_average,
    rb_system,
    rotating_frame_residual,
)
from .systems import constant_matrix_system

REPORT_SCHEMA_VERSION = 1

# Random draws, generator seed and tolerance of each algebraic check.
_ROUND_TRIP_COUNT, _ROUND_TRIP_SEED, _ROUND_TRIP_TOL = 100, 1234, 1e-12
_DETERMINANT_COUNT, _DETERMINANT_SEED, _DETERMINANT_TOL = 50, 99, 1e-5
_DEGENERATION_COUNT, _DEGENERATION_SEED, _DEGENERATION_TOL = 100, 7, 1e-12
_CLOSED_FORM_COUNT, _CLOSED_FORM_SEED, _CLOSED_FORM_TOL = 100, 21, 1e-10
# Initial cyclic angle and gap tolerance of the projection check.
_PROJECTION_PSI0, _PROJECTION_TOL = 0.5, 1e-6


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


def _result(name: str, value: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(value <= tolerance),
                       value=float(value), tolerance=float(tolerance), detail=detail)


def random_system(rng: np.random.Generator, n: int = None, k: int = None,
                  l: int = None, constant: bool = True) -> SymmetricSystem:
    """Random symmetric system with a (possibly q-dependent) SPD matrix.
    Counts left as None are drawn; l = 1 replaces a drawn k = l = 0."""
    drawn = k is None and l is None
    n = int(rng.integers(1, 4)) if n is None else n
    k = int(rng.integers(0, 4)) if k is None else k
    l = int(rng.integers(0, 4)) if l is None else l
    if drawn and k + l == 0:
        l = 1
    d = n + k + l
    base = rng.normal(size=(d, d))
    K0 = base @ base.T + d * np.eye(d)
    if constant:
        return constant_matrix_system(n, k, l, K0, name="synthetic")
    amp = 0.1 * float(np.min(np.linalg.eigvalsh(K0)))
    seed_mat = rng.normal(size=(d, d))
    S = 0.5 * (seed_mat + seed_mat.T)
    freq = rng.uniform(0.5, 1.5, size=n)

    def mass(q: np.ndarray) -> np.ndarray:
        return K0 + amp * float(np.sin(freq @ q)) * S

    coeffs = rng.normal(size=n)

    def v0(q: np.ndarray) -> float:
        return float(coeffs @ np.cos(q))

    return SymmetricSystem(n=n, k=k, l=l, mass_matrix=mass, potential=v0,
                           name="synthetic-varying")


def random_momentum(rng: np.random.Generator, sys: SymmetricSystem) -> MomentumValue:
    return MomentumValue(xi=rng.normal(size=sys.k), eta=rng.normal(size=sys.l))


def momentum_round_trip_check() -> CheckResult:
    """Momentum of the momentum-completed state reproduces the target covector."""
    rng = np.random.default_rng(_ROUND_TRIP_SEED)
    worst = 0.0
    for _ in range(_ROUND_TRIP_COUNT):
        sys = random_system(rng, constant=bool(rng.integers(0, 2)))
        f = random_momentum(rng, sys)
        r = ReducedState(q=rng.normal(size=sys.n), qdot=rng.normal(size=sys.n))
        s = complete_state(sys, f, r)
        back = momentum_map(sys, s).as_vector()
        ref = max(1.0, float(np.max(np.abs(f.as_vector()))))
        worst = max(worst, float(np.max(np.abs(back - f.as_vector()))) / ref)
    return _result("momentum-round-trip", worst, _ROUND_TRIP_TOL,
                   f"{_ROUND_TRIP_COUNT} random systems")


def determinant_identity_check(params: RigidBodyParams) -> CheckResult:
    """Symplectic determinant vs (det K / det D)^2 on rigid-body and synthetic states."""
    rng = np.random.default_rng(_DETERMINANT_SEED)
    sys_rb = rb_system(params)
    worst = 0.0
    for i in range(_DETERMINANT_COUNT):
        if i % 2 == 0:
            sys = sys_rb
            q = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(0.4, np.pi - 0.4)])
            f = MomentumValue.zero(0, 1)
        else:
            sys = random_system(rng, constant=bool(rng.integers(0, 2)))
            q = rng.normal(size=sys.n)
            f = random_momentum(rng, sys)
        r = ReducedState(q=q, qdot=rng.normal(size=sys.n))
        lhs, rhs = symplectic_det_pair(sys, f, r)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return _result("symplectic-determinant-identity", worst, _DETERMINANT_TOL,
                   f"{_DETERMINANT_COUNT} states, rigid body and synthetic")


def zero_momentum_degeneration_check(params: RigidBodyParams) -> CheckResult:
    """At zero momentum the Routhian equals the completed-state Lagrangian."""
    rng = np.random.default_rng(_DEGENERATION_SEED)
    worst = 0.0
    for i in range(_DEGENERATION_COUNT):
        if i % 2 == 0:
            sys = rb_system(params)
            q = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(0.4, np.pi - 0.4)])
        else:
            sys = random_system(rng, constant=bool(rng.integers(0, 2)))
            q = rng.normal(size=sys.n)
        f0 = MomentumValue.zero(sys.k, sys.l)
        r = ReducedState(q=q, qdot=rng.normal(size=sys.n))
        a = routhian(sys, f0, r)
        b = lagrangian_full(sys, complete_state(sys, f0, r))
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return _result("zero-momentum-degeneration", worst, _DEGENERATION_TOL,
                   f"{_DEGENERATION_COUNT} random states")


def closed_form_lagrangian_check(params: RigidBodyParams) -> CheckResult:
    """Rigid-body Routhian at zero momentum matches the explicit chart formula."""
    rng = np.random.default_rng(_CLOSED_FORM_SEED)
    sys = rb_system(params)
    f0 = MomentumValue.zero(0, 1)
    worst = 0.0
    for _ in range(_CLOSED_FORM_COUNT):
        phi = rng.uniform(-np.pi, np.pi)
        theta = rng.uniform(0.3, np.pi - 0.3)
        phidot, thetadot = rng.normal(size=2)
        a = kolosov_reduced_lagrangian(params, phi, theta, phidot, thetadot)
        b = routhian(sys, f0, ReducedState(q=[phi, theta], qdot=[phidot, thetadot]))
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return _result("closed-form-reduced-lagrangian", worst, _CLOSED_FORM_TOL,
                   f"{_CLOSED_FORM_COUNT} random chart states")


def asymmetric_rejection_check() -> CheckResult:
    """An injected asymmetric kinetic matrix must be rejected."""
    bad = constant_matrix_system(1, 1, 0, [[2.0, 0.3], [0.1, 1.0]])
    try:
        evaluate_metric(bad, np.zeros(1))
    except NotPositiveDefinite:
        return CheckResult(name="asymmetric-metric-rejected", passed=True,
                           value=0.0, tolerance=0.0, detail="NotPositiveDefinite raised")
    return CheckResult(name="asymmetric-metric-rejected", passed=False,
                       value=1.0, tolerance=0.0, detail="no error raised")


def projection_equivalence_check(params: RigidBodyParams, r0: ReducedState,
                                 t_end: float = 10.0, dt: float = 1e-3) -> List[CheckResult]:
    """Projected full trajectory vs reduced trajectory, and reconstruction.

    Returns three results: the projection gap, the reconstructed cyclic
    angle gap, and the momentum residual along the reconstruction.
    """
    sys = rb_system(params)
    f0 = MomentumValue.zero(0, 1)
    cfg = IntegratorConfig(method="rk4", dt=dt)
    red = integrate_reduced(sys, f0, r0, 0.0, t_end, cfg)
    s0 = complete_state(sys, f0, r0, psi=[_PROJECTION_PSI0])
    full = integrate_full(sys, s0, 0.0, t_end, cfg)

    proj = full.states[:, [0, 1, 3, 4]]
    gap = float(np.max(np.abs(proj - red.states)))

    rec = reconstruct(sys, f0, red, x0=None, psi0=[_PROJECTION_PSI0])
    psi_gap = float(np.max(np.abs(rec.states[:, 2] - full.states[:, 2])))

    worst_mom = momentum_drift(sys, rec, max(1, rec.states.shape[0] // 200), f0)

    return [
        _result("projection-equivalence", gap, _PROJECTION_TOL, f"t_end={t_end}, dt={dt}"),
        _result("reconstruction-angle-match", psi_gap, _PROJECTION_TOL,
                "cyclic angle vs full run"),
        _result("reconstruction-momentum-residual", worst_mom, 1e-10,
                "momentum along reconstructed samples"),
    ]


def energy_drift(sys: SymmetricSystem, f: MomentumValue, red: Trajectory,
                 stride: int) -> float:
    """Largest |E - E0| over every stride-th sample of a reduced trajectory.

    E is the reduced energy at momentum f and E0 the trajectory's initial
    energy; callers pick the normalisation.
    """
    e0 = red.meta.energy0
    worst = 0.0
    for row in red.states[::stride]:
        e = reduced_energy(sys, f, ReducedState(q=row[:sys.n], qdot=row[sys.n:]))
        worst = max(worst, abs(e - e0))
    return worst


def momentum_drift(sys: SymmetricSystem, full: Trajectory, stride: int,
                   reference: MomentumValue) -> float:
    """Largest |J - reference| (max norm) over every stride-th full sample."""
    ref = reference.as_vector()
    worst = 0.0
    for row in full.states[::stride]:
        j = momentum_map(sys, FullState.from_vector(sys, row)).as_vector()
        worst = max(worst, float(np.max(np.abs(j - ref), initial=0.0)))
    return worst


def run_verify(params: RigidBodyParams, r0: ReducedState, t_end: float = 10.0,
               dt: float = 1e-3) -> dict:
    """Default verification suite: the report that ``routhkit verify`` writes.

    The report holds the algebraic checks, then the projection and
    reconstruction checks over [0, t_end] at RK4 step ``dt``; its fields
    are pinned by ``schemas/verify_report.schema.json``.
    """
    checks = [
        momentum_round_trip_check(),
        determinant_identity_check(params),
        zero_momentum_degeneration_check(params),
        closed_form_lagrangian_check(params),
        asymmetric_rejection_check(),
    ]
    checks.extend(projection_equivalence_check(params, r0, t_end=t_end, dt=dt))
    return report_dict(checks)


def report_dict(checks: List[CheckResult], **fields) -> dict:
    """A JSON report: the common fields, then ``fields`` in the order given.

    Both reporting verbs run on the rigid body only, so ``system`` is fixed.
    """
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "system": "rigid-body",
        "all_passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
        **fields,
    }


# ---------------------------------------------------------------------------
# Ellipsoid equivalence pipeline


def map_reduced_trajectory(params: RigidBodyParams, red: Trajectory) -> Trajectory:
    """Image of a reduced trajectory on the ellipsoid, original time."""
    phi, theta, phidot, thetadot = red.states.T
    img = np.concatenate([kolosov_map(params, phi, theta),
                          kolosov_velocity(params, phi, theta, phidot, thetadot)], axis=1)
    return Trajectory(times=red.times.copy(), states=img,
                      meta=TrajectoryMeta(system="ellipsoid", energy0=red.meta.energy0))


def run_kolosov(params: RigidBodyParams, r0: ReducedState, dt: float = 1e-3,
                energy_target: Optional[float] = None) -> Tuple[dict, Trajectory]:
    """Free-body pipeline: map, rescale time, compare flows, find geodesics.

    The energy constant is taken from the initial state unless
    ``energy_target`` rescales the initial velocity first.  The comparison
    window is one period of the equatorial section orbit in rescaled time.

    Returns the report that ``routhkit kolosov`` writes and the
    rescaled-time image on the ellipsoid that it writes as CSV.  After the
    common fields the report carries ``h``, ``window``, ``sections``,
    ``lambda`` and ``equatorial_period``; the section-period check is made
    for triaxial and spherical bodies only.  Each section orbit is
    integrated once, by its shooting.  Section i is the uniform rotation
    about principal axis i, so its ``dsigma_length`` is taken in closed
    form, 2 pi sqrt(h I_i).

    Raises:
        InvalidParams: ``params`` carries a potential; the run covers the
            free body only.
    """
    if params.potential is not None:
        raise InvalidParams("the ellipsoid equivalence run expects a free body (no potential)")
    sys = rb_system(params)
    f0 = MomentumValue.zero(0, 1)
    if energy_target is not None:
        if not (np.isfinite(energy_target) and energy_target > 0):
            raise ConfigError(f"energy_target must be positive and finite, got {energy_target}")
        e_now = reduced_energy(sys, f0, r0)
        if not e_now > 0:
            raise ConfigError(
                f"energy_target rescales the seed velocity, but the seed energy is {e_now:.6g}"
            )
        r0 = ReducedState(q=r0.q, qdot=r0.qdot * np.sqrt(energy_target / e_now))
    h = reduced_energy(sys, f0, r0)
    cd = ConformalData(h=h)
    cfg = IntegratorConfig(method="rk4", dt=dt, max_steps=10_000_000)

    # geodesic candidates first: their periods set the comparison window
    orbits = principal_section_orbits(params, cd)
    moments = (params.A, params.B, params.C)
    sections = {
        plane: {
            "period": orbits[plane].period,
            "closure_error": orbits[plane].closure_error,
            "dsigma_length": 2.0 * np.pi * np.sqrt(h * moment),
        }
        for plane, moment in zip("xyz", moments)
    }
    periods = [sections[p]["period"] for p in ("x", "y", "z")]
    gaps = [abs(periods[0] - periods[1]), abs(periods[1] - periods[2]),
            abs(periods[0] - periods[2])]
    period_checks = []
    if len(set(moments)) == 3:
        period_checks.append(CheckResult(name="section-periods-distinct",
                                         passed=bool(min(gaps) > 1e-6),
                                         value=float(min(gaps)), tolerance=1e-6,
                                         detail="pairwise period separation (pass if above)"))
    elif len(set(moments)) == 1:
        period_checks.append(_result("section-periods-equal", max(gaps), 1e-8,
                                     "sphere: all three periods agree"))

    window_tau = sections["z"]["period"]
    # matched rescaled-time data at the image of r0: u' = a(u) udot
    rhs = _flow_rhs(params, cd)
    project = _flow_project(params)
    u0 = kolosov_map(params, *r0.q)
    start = project(np.concatenate([
        u0, conformal_factor(params, u0) * kolosov_velocity(params, *r0.q, *r0.qdot)]))
    # a(u) ranges over [ABC/max, ABC/min] on the surface, so no fixed multiple
    # of the window bounds its physical time tightly; it is measured instead,
    # as the integral of a(u) along the rescaled-time flow over the window
    pre = integrate_ode(rhs, start, 0.0, window_tau, cfg, project=project)
    t_window = cumulative_quadrature(pre.times, conformal_factor(params, pre.states[:, :3]))[-1]
    red = integrate_reduced(sys, f0, r0, 0.0, 1.05 * float(t_window), cfg)
    image_t = map_reduced_trajectory(params, red)
    density = conformal_factor(params, image_t.states[:, :3])
    image_tau = reparametrize_time(image_t, density)
    if image_tau.times[-1] < window_tau:
        raise SpanTooShort(f"rescaled-time image ends at {image_tau.times[-1]:.6g}, "
                           f"before the window {window_tau:.6g}")

    stop = int(np.searchsorted(image_tau.times, window_tau)) + 1
    tau_w = image_tau.times[:stop]
    img_w = image_tau.states[:stop]

    # (a) zero-energy relation with the rescaled-time velocity u' = a(u) udot
    a = density[:stop]
    uprime = a[:, None] * img_w[:, 3:]
    worst_a = float(np.max(np.abs(0.5 * (uprime * uprime).sum(axis=1) - a * h) / (a * h)))
    rel_a = _result("zero-energy-relation", worst_a, 1e-6, "T(u') = a(u) h pointwise")

    # (b) independently integrated rescaled-time flow from matched data
    flow_states = integrate_grid(rhs, start, tau_w, dt, project=project)
    gap_b = float(np.max(np.abs(flow_states[:, :3] - img_w[:, :3])))
    match_b = _result("conformal-flow-match", gap_b, 1e-5,
                      f"sup position gap over one section period ({window_tau:.4g})")

    # (c) rescaled-metric speed constancy along the original-time image
    speeds = _speed_unchecked(params, h, image_t.states[:, :3], image_t.states[:, 3:])
    variation = float((speeds.max() - speeds.min()) / speeds.mean())
    const_c = _result("rescaled-speed-constancy", variation, 1e-5,
                      f"mean speed {speeds.mean():.6g}, expect h*sqrt(2) = {h * np.sqrt(2):.6g}")

    # relative-periodicity quantities on the chart-representable orbit
    lam, T_eq, endpoint, rotating = _equatorial_analysis(params, sys, f0, h)

    checks = [rel_a, match_b, const_c, *period_checks, endpoint, rotating]
    return report_dict(checks, h=h, window=window_tau, sections=sections,
                       **{"lambda": lam}, equatorial_period=T_eq), image_tau


def _equatorial_analysis(params: RigidBodyParams, sys: SymmetricSystem,
                         f0: MomentumValue, h: float):
    """Certify the equatorial periodic reduced orbit's average precession
    rate and its relative periodicity in the rotating frame.

    The orbit is the permanent rotation about the C axis, theta = pi/2 and
    phidot = omega = sqrt(2h/C), with period T = 2 pi / omega; both are
    taken in closed form.  It is integrated with DP45 at the shooter's step
    tolerance (``_SHOOT_CFG``, 1e-12) in two legs, [0, T] and [T, 2T], the
    second starting from the last state of the first; the rotating-frame
    residual over the second leg certifies that the integrated orbit
    closes.  The joined legs are reconstructed once.  lambda is the average
    of psidot over the first leg, and the endpoint identity
    psi(T) - psi(0) = lambda T is read at the leg boundary.  Nothing here
    depends on the RK4 step of the rest of the run.  Since phi is linear in
    t, the rotating-frame residual's linear interpolation on the coarse
    adaptive grid of the second leg is exact up to rounding.

    The other two principal-section orbits cross the chart poles and are
    analyzed on the ellipsoid only.
    """
    omega = float(np.sqrt(2.0 * h / params.C))
    T = 2.0 * np.pi / omega
    seed = ReducedState(q=[0.0, np.pi / 2.0], qdot=[omega, 0.0])
    leg1 = integrate_reduced(sys, f0, seed, 0.0, T, _SHOOT_CFG)
    leg2 = integrate_reduced(sys, f0, ReducedState.from_vector(sys, leg1.states[-1]),
                             T, 2.0 * T, _SHOOT_CFG)
    red = Trajectory(times=np.concatenate([leg1.times, leg2.times[1:]]),
                     states=np.concatenate([leg1.states, leg2.states[1:]]), meta=leg1.meta)
    full = reconstruct(sys, f0, red, x0=None, psi0=[0.0])

    i_T = leg1.times.size - 1
    lam = lambda_average(leg1.times, full.states[:i_T + 1, 5], T)
    defect = abs(full.states[i_T, 2] - full.states[0, 2] - lam * T)
    endpoint = _result("lambda-endpoint-consistency", defect, 1e-8,
                       f"|psi(T) - psi(0) - lambda T| at T={T:.6g}")
    residual = rotating_frame_residual(full, lam, T)
    rotating = _result("rotating-frame-periodicity", residual, 1e-6,
                       f"lambda={lam:.3e} over a second period")
    return lam, T, endpoint, rotating
