"""Invariant suites: reduction self-checks and the ellipsoid equivalence.

Every check returns a CheckResult with the measured residual and its
tolerance.  ``run_verify`` and ``run_kolosov`` gather them into the report
that the CLI prints and writes (``report_dict``).  The same functions back
the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .ellipsoid import (
    ConformalData,
    _SHOOT_CFG,
    _flow_project,
    _flow_rhs,
    conformal_factor,
    kolosov_map,
    kolosov_velocity,
    principal_section_orbits,
)
from .errors import ConfigError, InvalidParams, MaxStepsExceeded, NotPositiveDefinite
from .integrate import (
    IntegratorConfig,
    Trajectory,
    TrajectoryMeta,
    integrate_full,
    integrate_grid,
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
    momentum_map,
    reduced_energy,
    reduced_mass_matrix,
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
_ROUND_TRIP, _DETERMINANT = (100, 1234, 1e-12), (50, 99, 1e-5)
_DEGENERATION, _CLOSED_FORM = (100, 7, 1e-12), (100, 21, 1e-10)
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
    """Random symmetric system with a (possibly q-dependent) SPD matrix and
    closed-form derivatives of its metric and potential.
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

    def mass_grad(q: np.ndarray) -> np.ndarray:
        return (amp * float(np.cos(freq @ q)) * freq)[:, None, None] * S

    def v0_grad(q: np.ndarray) -> np.ndarray:
        return -coeffs * np.sin(q)

    return SymmetricSystem(n=n, k=k, l=l, mass_matrix=mass, potential=v0,
                           name="synthetic-varying", mass_matrix_grad=mass_grad,
                           potential_grad=v0_grad)


def random_momentum(rng: np.random.Generator, sys: SymmetricSystem) -> MomentumValue:
    return MomentumValue(xi=rng.normal(size=sys.k), eta=rng.normal(size=sys.l))


def _largest_gap(name: str, draws: Tuple[int, int, float], what: str,
                 gap: Callable[[np.random.Generator, int], float]) -> CheckResult:
    """Largest ``gap(rng, i)``, i < count, with one generator; ``draws`` is
    (count, seed, tolerance)."""
    count, seed, tolerance = draws
    rng = np.random.default_rng(seed)
    worst = max(0.0, *(gap(rng, i) for i in range(count)))
    return _result(name, worst, tolerance, f"{count} {what}")


def _rb_or_random(rng: np.random.Generator, i: int,
                  sys_rb: SymmetricSystem) -> Tuple[SymmetricSystem, np.ndarray]:
    """Draw i's system and shape point: ``sys_rb`` at a chart point at least
    0.4 from the poles on even draws, a ``random_system`` on odd ones."""
    if i % 2 == 0:
        return sys_rb, np.array([rng.uniform(-np.pi, np.pi), rng.uniform(0.4, np.pi - 0.4)])
    sys = random_system(rng, constant=bool(rng.integers(0, 2)))
    return sys, rng.normal(size=sys.n)


def momentum_round_trip_check() -> CheckResult:
    """Momentum of the momentum-completed state reproduces the target covector."""
    def gap(rng, _):
        sys = random_system(rng, constant=bool(rng.integers(0, 2)))
        f = random_momentum(rng, sys)
        r = ReducedState(q=rng.normal(size=sys.n), qdot=rng.normal(size=sys.n))
        back = momentum_map(sys, complete_state(sys, f, r)).as_vector()
        ref = max(1.0, float(np.max(np.abs(f.as_vector()))))
        return float(np.max(np.abs(back - f.as_vector()))) / ref
    return _largest_gap("momentum-round-trip", _ROUND_TRIP, "random systems", gap)


def determinant_identity_check(params: RigidBodyParams) -> CheckResult:
    """Symplectic determinant vs (det K / det D)^2 on rigid-body and synthetic states.

    Both sides are homogeneous of degree 2n in K, so the rigid body is taken
    at unit inertia scale: its moments times the exact power of two that
    brings the largest into [0.5, 1)."""
    shift = -math.frexp(max(params.A, params.B, params.C))[1]
    sys_rb = rb_system(replace(params, **{m: math.ldexp(getattr(params, m), shift)
                                          for m in "ABC"}))

    def gap(rng, i):
        sys, q = _rb_or_random(rng, i, sys_rb)
        f = random_momentum(rng, sys) if i % 2 else MomentumValue.zero(sys.k, sys.l)
        lhs, rhs = symplectic_det_pair(sys, f, ReducedState(q=q, qdot=rng.normal(size=sys.n)))
        return abs(lhs - rhs) / abs(rhs)
    return _largest_gap("symplectic-determinant-identity", _DETERMINANT,
                        "states, rigid body and synthetic", gap)


def zero_momentum_degeneration_check(params: RigidBodyParams) -> CheckResult:
    """At zero momentum the Routhian equals 0.5 qdot.M(q) qdot - V(q), with M
    the Schur complement from ``reduced_mass_matrix`` (numpy, not the float kernel)."""
    sys_rb = rb_system(params)

    def gap(rng, i):
        sys, q = _rb_or_random(rng, i, sys_rb)
        r = ReducedState(q=q, qdot=rng.normal(size=sys.n))
        a = routhian(sys, MomentumValue.zero(sys.k, sys.l), r)
        b = 0.5 * float(r.qdot @ reduced_mass_matrix(sys, r.q) @ r.qdot) - sys.potential(r.q)
        return abs(a - b) / max(1.0, abs(b))
    return _largest_gap("zero-momentum-degeneration", _DEGENERATION, "random states", gap)


def closed_form_lagrangian_check(params: RigidBodyParams) -> CheckResult:
    """Rigid-body Routhian at zero momentum matches the explicit chart formula."""
    sys = rb_system(params)
    f0 = MomentumValue.zero(0, 1)

    def gap(rng, _):
        phi = rng.uniform(-np.pi, np.pi)
        theta = rng.uniform(0.3, np.pi - 0.3)
        phidot, thetadot = rng.normal(size=2)
        a = kolosov_reduced_lagrangian(params, phi, theta, phidot, thetadot)
        b = routhian(sys, f0, ReducedState(q=[phi, theta], qdot=[phidot, thetadot]))
        return abs(a - b) / max(1.0, abs(b))
    return _largest_gap("closed-form-reduced-lagrangian", _CLOSED_FORM,
                        "random chart states", gap)


def asymmetric_rejection_check() -> CheckResult:
    """An injected asymmetric kinetic matrix must be rejected."""
    bad = constant_matrix_system(1, 1, 0, [[2.0, 0.3], [0.1, 1.0]])
    try:
        evaluate_metric(bad, np.zeros(1))
    except NotPositiveDefinite:
        return _result("asymmetric-metric-rejected", 0.0, 0.0, "NotPositiveDefinite raised")
    return _result("asymmetric-metric-rejected", 1.0, 0.0, "no error raised")


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
    ``energy_target`` rescales the initial velocity first.  The chart run
    lasts one period T = 2 pi sqrt(C / 2h) of the equatorial orbit, in
    closed form; its image in rescaled time is the comparison window, up to
    its last sample that closes a quadrature pair (``window`` is its tau).

    Returns the report that ``routhkit kolosov`` writes and the
    rescaled-time image on the ellipsoid that it writes as CSV.  After the
    common fields the report carries ``h``, ``window``, ``sections``,
    ``lambda`` and ``equatorial_period``; the section periods are checked
    against their closed form (``_section_period_checks``).  Each section
    orbit is integrated once, by its shooting.  Section i is the uniform
    rotation about principal axis i, so its ``dsigma_length`` is taken in
    closed form, 2 pi sqrt(h I_i).

    Raises:
        InvalidParams: ``params`` carries a potential; the run covers the
            free body only.  Or A*B*C, the numerator of the density a(u),
            overflows or underflows (refused before any flow).
        ConfigError: ``energy_target`` is not positive and finite, the seed
            energy is not positive, or their ratio overflows or underflows.
        MaxStepsExceeded: the chart run or check (b)'s flow needs over 1e7 steps at dt.
    """
    if params.potential is not None:
        raise InvalidParams("the ellipsoid equivalence run expects a free body (no potential)")
    abc = params.A * params.B * params.C
    if not 0.0 < abc < math.inf:
        raise InvalidParams(f"inertia product A*B*C = {abc:g} is not a finite positive float")
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
        factor = energy_target / e_now
        if not 0.0 < factor < math.inf:
            raise ConfigError(f"energy_target / seed energy = {factor:g} is not a finite "
                              "positive float, so the seed velocity cannot be rescaled")
        r0 = ReducedState(q=r0.q, qdot=r0.qdot * np.sqrt(factor))
    h = reduced_energy(sys, f0, r0)
    cd = ConformalData(h=h)
    cfg = IntegratorConfig(method="rk4", dt=dt, max_steps=10_000_000)

    # closed-geodesic candidates, shot on the ellipsoid
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
    period_checks = _section_period_checks(moments, h, [orbits[p].period for p in "xyz"])

    # relative-periodicity quantities on the chart-representable orbit; its
    # period T, in closed form, is the physical time that the chart run covers
    lam, T_eq, endpoint, rotating = _equatorial_analysis(params, sys, f0, h)
    red = integrate_reduced(sys, f0, r0, 0.0, T_eq, cfg)
    image_t = map_reduced_trajectory(params, red)
    density = conformal_factor(params, image_t.states[:, :3])
    image_tau = reparametrize_time(image_t, density)
    # compared up to the last sample that closes a quadrature pair (a trailing odd
    # interval has only the trapezoid rule), or to the end of a single step
    stop = max(2 * ((image_tau.times.size - 1) // 2), 1) + 1
    tau_w = image_tau.times[:stop]
    img_w = image_tau.states[:stop]

    # (a) zero-energy relation with the rescaled-time velocity u' = a(u) udot
    a = density[:stop]
    uprime = a[:, None] * img_w[:, 3:]
    worst_a = float(np.max(np.abs(0.5 * (uprime * uprime).sum(axis=1) - a * h) / (a * h)))
    rel_a = _result("zero-energy-relation", worst_a, 1e-6, "T(u') = a(u) h pointwise")

    # (b) independently integrated rescaled-time flow from the image's first
    # sample, with the rescaled-time velocity, stepped at dt in tau
    if tau_w[-1] / dt > cfg.max_steps:
        raise MaxStepsExceeded(f"{tau_w[-1] / dt:.12g} steps exceed max_steps={cfg.max_steps}")
    project = _flow_project(params)
    flow_states = integrate_grid(_flow_rhs(params, cd),
                                 project(img_w[0, :3].tolist() + uprime[0].tolist()), tau_w, dt,
                                 project=project)
    gap_b = float(np.max(np.abs(flow_states[:, :3] - img_w[:, :3])))
    match_b = _result("conformal-flow-match", gap_b, 1e-5,
                      f"sup position gap over one equatorial period ({tau_w[-1]:.4g})")

    # (c) rescaled-metric speed constancy along the original-time image
    speeds = np.sqrt(h * density) * np.linalg.norm(image_t.states[:, 3:], axis=-1)
    variation = float((speeds.max() - speeds.min()) / speeds.mean())
    const_c = _result("rescaled-speed-constancy", variation, 1e-5,
                      f"mean speed {speeds.mean():.6g}, expect h*sqrt(2) = {h * np.sqrt(2):.6g}")

    checks = [rel_a, match_b, const_c, *period_checks, endpoint, rotating]
    return report_dict(checks, h=h, window=float(tau_w[-1]), sections=sections,
                       **{"lambda": lam}, equatorial_period=T_eq), image_tau


def _section_period_checks(moments, h: float, periods) -> List[CheckResult]:
    """Shot section periods against their closed form.

    Section i is the uniform rotation about principal axis i: its physical
    period is 2 pi sqrt(I_i / 2h) and 1/a(u) averages (I_j + I_k) / 2ABC
    along it.  Pairs more than 1e-6 apart in closed form must be more than
    1e-6 apart when shot; the others must keep their closed-form gap to 1e-8.
    """
    abc = moments[0] * moments[1] * moments[2]
    closed = [2.0 * np.pi * np.sqrt(m / (2.0 * h)) * (sum(moments) - m) / (2.0 * abc)
              for m in moments]
    distinct, equal = [], []
    for i, j in ((0, 1), (1, 2), (0, 2)):
        shot, expected = abs(periods[i] - periods[j]), abs(closed[i] - closed[j])
        if expected > 1e-6:
            distinct.append(shot)
        else:
            equal.append(abs(shot - expected))
    checks = []
    if distinct:
        checks.append(CheckResult(name="section-periods-distinct",
                                  passed=bool(min(distinct) > 1e-6),
                                  value=float(min(distinct)), tolerance=1e-6,
                                  detail="smallest gap of the pairs distinct in closed form "
                                         "(pass if above)"))
    if equal:
        checks.append(_result("section-periods-equal", max(equal), 1e-8,
                              "largest gap from the closed form of the other pairs"))
    return checks


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
