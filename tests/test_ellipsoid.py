"""Ellipsoid map, conformal dynamics, and principal-section geodesics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routhkit import (
    ConfigError,
    ConformalData,
    EllipsoidState,
    IntegratorConfig,
    InvalidParams,
    MaxStepsExceeded,
    OffSurface,
    ReducedState,
    RigidBodyParams,
    StepFailure,
    conformal_energy,
    conformal_factor,
    conformal_factor_grad,
    constrained_flow,
    cumulative_quadrature,
    dsigma_length,
    heavy_potential,
    integrate_ode,
    kolosov_map,
    kolosov_potential,
    kolosov_velocity,
    maupertuis_speed,
    principal_section_orbits,
    project_to_surface,
    reduced_energy,
    section_seed,
    surface_residual,
)
from routhkit.ellipsoid import (
    _factor_unchecked,
    _flow_rhs,
    constraint_gradient,
)
from routhkit import ellipsoid as ellipsoid_module
from routhkit import integrate as integ
from routhkit import verify
from routhkit.verify import run_kolosov

from conftest import check, euler_poisson, float_bits


def closed_form_section_period(p, h, plane):
    """Free-body section period: arc length over speed around the principal
    ellipse collapses to an exact elementary integral."""
    pairs = {"x": (p.B, p.C, p.A), "y": (p.A, p.C, p.B), "z": (p.A, p.B, p.C)}
    m1, m2, m3 = pairs[plane]
    return np.pi * (m1 + m2) / (m1 * m2 * np.sqrt(2.0 * h * m3))


def random_surface_point(p, rng):
    phi = rng.uniform(-np.pi, np.pi)
    theta = rng.uniform(0.0, np.pi)
    return kolosov_map(p, phi, theta)


@pytest.fixture(scope="module")
def triaxial():
    return RigidBodyParams(1.0, 2.0, 3.0)


# ---------------------------------------------------------------------------
# the diffeomorphism onto the ellipsoid


def test_map_north_pole(triaxial):
    u = kolosov_map(triaxial, 0.7, 0.0)
    assert np.allclose(u, [0.0, 0.0, 1.0 / np.sqrt(3.0)], atol=1e-15)


def test_map_lands_on_surface(triaxial, rng):
    for _ in range(50):
        u = random_surface_point(triaxial, rng)
        assert abs(surface_residual(triaxial, u)) < 1e-14


def test_map_unit_sphere_is_spherical_coordinates(rng):
    p = RigidBodyParams(1.0, 1.0, 1.0)
    for _ in range(10):
        phi = rng.uniform(-np.pi, np.pi)
        theta = rng.uniform(0.0, np.pi)
        u = kolosov_map(p, phi, theta)
        expected = [np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi),
                    np.cos(theta)]
        assert np.allclose(u, expected, atol=1e-15)


def test_velocity_is_tangent_map(triaxial, rng):
    # compare against finite differences of the point map
    h = 1e-6
    for _ in range(10):
        phi = rng.uniform(-np.pi, np.pi)
        theta = rng.uniform(0.3, np.pi - 0.3)
        phidot, thetadot = rng.normal(size=2)
        v = kolosov_velocity(triaxial, phi, theta, phidot, thetadot)
        fd = (kolosov_map(triaxial, phi + h * phidot, theta + h * thetadot)
              - kolosov_map(triaxial, phi - h * phidot, theta - h * thetadot)) / (2 * h)
        assert np.max(np.abs(v - fd)) < 1e-8


def test_stacked_map_and_velocity_equal_scalar_calls(triaxial, rng):
    m = 200
    phi, theta = rng.uniform(-np.pi, np.pi, m), rng.uniform(0.0, np.pi, m)
    phidot, thetadot = rng.normal(size=(2, m))
    u = kolosov_map(triaxial, phi, theta)
    v = kolosov_velocity(triaxial, phi, theta, phidot, thetadot)
    assert u.shape == v.shape == (m, 3)
    for i in range(m):
        assert np.array_equal(u[i], kolosov_map(triaxial, phi[i], theta[i]))
        assert np.array_equal(v[i], kolosov_velocity(triaxial, phi[i], theta[i],
                                                     phidot[i], thetadot[i]))
    # a (rows, columns) grid of angles keeps its shape in front of the coordinates
    grid = kolosov_map(triaxial, phi.reshape(20, 10), theta.reshape(20, 10))
    assert np.array_equal(grid.reshape(m, 3), u)


# ---------------------------------------------------------------------------
# conformal factor and potential


def test_factor_constant_on_sphere(rng):
    c = 1.9
    p = RigidBodyParams(c, c, c)
    for _ in range(10):
        u = random_surface_point(p, rng)
        assert conformal_factor(p, u) == pytest.approx(c * c, rel=1e-13)


def test_factor_at_apex(triaxial):
    u = np.array([0.0, 0.0, 1.0 / np.sqrt(3.0)])
    assert conformal_factor(triaxial, u) == pytest.approx(2.0, rel=1e-13)


def test_factor_positive_everywhere(triaxial, rng):
    for _ in range(1000):
        assert conformal_factor(triaxial, random_surface_point(triaxial, rng)) > 0.0


def test_factor_rejects_off_surface(triaxial):
    with pytest.raises(OffSurface):
        conformal_factor(triaxial, np.array([1.0, 1.0, 1.0]))


def test_stacked_factor_equals_scalar_calls(triaxial, rng):
    u = np.array([random_surface_point(triaxial, rng) for _ in range(200)])
    a = conformal_factor(triaxial, u)
    assert a.shape == (200,)
    for i in range(u.shape[0]):
        assert a[i] == conformal_factor(triaxial, u[i])
    assert np.array_equal(surface_residual(triaxial, u),
                          [surface_residual(triaxial, row) for row in u])


@pytest.mark.parametrize("row", [0, 7, 19])
def test_stacked_factor_rejects_one_off_surface_row(triaxial, rng, row):
    u = np.array([random_surface_point(triaxial, rng) for _ in range(20)])
    u[row] *= 1.0 + 1e-6
    with pytest.raises(OffSurface):
        conformal_factor(triaxial, u)


def test_factor_gradient_matches_finite_differences(triaxial, rng):
    h = 1e-7
    for _ in range(10):
        u = random_surface_point(triaxial, rng)
        g = conformal_factor_grad(triaxial, u)
        from routhkit.ellipsoid import _factor_unchecked
        fd = np.empty(3)
        for j in range(3):
            up = u.copy(); up[j] += h
            um = u.copy(); um[j] -= h
            fd[j] = (_factor_unchecked(triaxial, up) - _factor_unchecked(triaxial, um)) / (2 * h)
        assert np.max(np.abs(g - fd)) < 1e-5


def test_potential_vanishes_when_v_equals_h(triaxial, rng):
    cd = ConformalData(h=1.2, potential=lambda u: 1.2)
    for _ in range(10):
        u = random_surface_point(triaxial, rng)
        assert kolosov_potential(triaxial, cd, u) == pytest.approx(0.0, abs=1e-13)


def test_potential_on_unit_sphere_free_body(rng):
    p = RigidBodyParams(1.0, 1.0, 1.0)
    cd = ConformalData(h=1.0)
    for _ in range(10):
        u = random_surface_point(p, rng)
        assert kolosov_potential(p, cd, u) == pytest.approx(-1.0, rel=1e-13)


def test_potential_negative_for_free_body(triaxial, rng):
    cd = ConformalData(h=0.8)
    for _ in range(1000):
        assert kolosov_potential(triaxial, cd, random_surface_point(triaxial, rng)) < 0.0


def test_reflection_invariance(triaxial, rng):
    cd = ConformalData(h=0.8)
    for _ in range(10):
        u = random_surface_point(triaxial, rng)
        for axis in range(3):
            v = u.copy()
            v[axis] = -v[axis]
            assert conformal_factor(triaxial, v) == conformal_factor(triaxial, u)
            assert kolosov_potential(triaxial, cd, v) == kolosov_potential(triaxial, cd, u)


# ---------------------------------------------------------------------------
# constrained dynamics


def test_great_circle_acceleration_on_unit_sphere():
    # factor and potential constant along the sphere: great-circle motion;
    # the radial (off-surface) part of the potential gradient only shifts
    # the multiplier
    p = RigidBodyParams(1.0, 1.0, 1.0)
    cd = ConformalData(h=0.5)
    u = np.array([1.0, 0.0, 0.0])
    udot = np.array([0.0, 0.7, 0.0])
    uddot = _flow_rhs(p, cd)(u.tolist() + udot.tolist())[3:]
    assert np.allclose(uddot, -float(udot @ udot) * u, atol=1e-13)


def test_single_step_constraint_residual(triaxial):
    # one unprojected RK4 step keeps the constraint to integrator accuracy
    from routhkit.ellipsoid import _flow_rhs
    from routhkit.integrate import _rk4_step
    cd = ConformalData(h=0.6)
    seed, _ = section_seed(triaxial, cd, "z")
    y = _rk4_step(_flow_rhs(triaxial, cd), seed, 1e-3)
    assert abs(surface_residual(triaxial, y[:3])) < 1e-9


def test_surface_preserved_along_flow(triaxial):
    cd = ConformalData(h=0.6)
    u0 = kolosov_map(triaxial, 0.5, 1.2)
    udot0 = kolosov_velocity(triaxial, 0.5, 1.2, 0.4, 0.3)
    u0, udot0 = project_to_surface(triaxial, u0, udot0)
    traj = constrained_flow(triaxial, cd, EllipsoidState(u=u0, udot=udot0),
                            0.0, 10.0, IntegratorConfig(dt=1e-3))
    worst = max(abs(surface_residual(triaxial, row[:3])) for row in traj.states[::50])
    assert worst < 1e-8


def test_zero_energy_flow_conserves_energy(triaxial):
    cd = ConformalData(h=0.6)
    seed, _ = section_seed(triaxial, cd, "z")
    traj = constrained_flow(triaxial, cd, EllipsoidState.from_vector(seed),
                            0.0, 10.0, IntegratorConfig(dt=1e-3))
    worst = max(abs(conformal_energy(triaxial, cd, EllipsoidState.from_vector(row)))
                for row in traj.states[::50])
    assert worst < 1e-9


def test_physical_time_flow_conserves_energy(triaxial):
    # original-time dynamics conserves a(u) T + V = h
    cd = ConformalData(h=0.6)
    u0 = kolosov_map(triaxial, 0.5, 1.2)
    direction = kolosov_velocity(triaxial, 0.5, 1.2, 0.4, 0.3)
    u0, direction = project_to_surface(triaxial, u0, direction)
    speed = np.sqrt(2.0 * cd.h / conformal_factor(triaxial, u0))
    udot0 = direction / np.linalg.norm(direction) * speed
    traj = constrained_flow(triaxial, cd, EllipsoidState(u=u0, udot=udot0),
                            0.0, 10.0, IntegratorConfig(dt=1e-3), physical_time=True)
    worst = max(abs(conformal_energy(triaxial, cd, EllipsoidState.from_vector(row),
                                     physical_time=True) - cd.h)
                for row in traj.states[::50])
    assert worst < 1e-7


@pytest.mark.parametrize("body, c", [
    ((1.0, 2.0, 3.0), 0.0), ((1.0, 1.5, 2.0), 0.0), ((2.0, 3.0, 4.5), 0.0), ((1.0, 2.0, 3.0), 0.8),
], ids=["1-2-3-free", "1-1.5-2-free", "2-3-4.5-free", "1-2-3-heavy"])
def test_physical_time_flow_is_euler_poisson_through_the_pole(body, c):
    # Kolosov: u = gamma / sqrt(I) carries zero-momentum Euler-Poisson
    # motions onto the physical-time flow on the ellipsoid with
    # V = c gamma_3 = c sqrt(C) u_z and h = 1/2 I w . w + V.  The start
    # gamma = e3 is the Euler-angle chart's pole, so no chart run could
    # follow these orbits.
    inertia = np.array(body)
    root = np.sqrt(inertia)
    g0 = np.array([0.0, 0.0, 1.0])
    w0 = np.array([0.6, -0.9, 0.0])  # I w . gamma = 0
    w0 /= np.sqrt(w0 @ (inertia * w0))  # 1/2 I w . w = 0.5
    cfg = IntegratorConfig(method="rk45", dt=1e-2, abs_tol=1e-12, rel_tol=1e-12)
    end = integ.propagate(euler_poisson(inertia, c), np.concatenate([inertia * w0, g0]),
                          0.0, 10.0, cfg)
    if c:
        cd = ConformalData(h=0.5 + c, potential=lambda u: c * root[2] * u[2],
                           potential_grad=lambda u: np.array([0.0, 0.0, c * root[2]]))
    else:
        cd = ConformalData(h=0.5)
    p = RigidBodyParams(*body)
    traj = constrained_flow(p, cd, EllipsoidState(u=g0 / root, udot=np.cross(g0, w0) / root),
                            0.0, 10.0, cfg, physical_time=True)
    assert np.max(np.abs(traj.states[-1, :3] - end[3:] / root)) <= 1e-9


# ---------------------------------------------------------------------------
# rescaled-metric speed


def test_speed_zero_velocity(triaxial):
    u = kolosov_map(triaxial, 0.3, 1.0)
    assert maupertuis_speed(triaxial, 1.0, EllipsoidState(u=u, udot=np.zeros(3))) == 0.0


def test_speed_unit_sphere_reduces_to_norm(rng):
    p = RigidBodyParams(1.0, 1.0, 1.0)
    for _ in range(10):
        u = random_surface_point(p, rng)
        udot = rng.normal(size=3)
        s = maupertuis_speed(p, 1.0, EllipsoidState(u=u, udot=udot))
        assert s == pytest.approx(float(np.linalg.norm(udot)), rel=1e-13)


# ---------------------------------------------------------------------------
# principal sections


def test_seed_period_guess_matches_closed_form(triaxial):
    cd = ConformalData(h=0.8)
    for plane in ("x", "y", "z"):
        _, T_guess = section_seed(triaxial, cd, plane)
        assert T_guess == pytest.approx(
            closed_form_section_period(triaxial, 0.8, plane), rel=1e-12)


def scalar_section_seed(p, cd, plane):
    """Section seed one grid point at a time, through the public scalar
    factor and potential."""
    i, j = {"z": (0, 1), "y": (0, 2), "x": (1, 2)}[plane]
    ri, rj = np.sqrt((p.A, p.B, p.C)[i]), np.sqrt((p.A, p.B, p.C)[j])

    def point(alpha):
        u = np.zeros(3)
        u[i], u[j] = np.cos(alpha) / ri, np.sin(alpha) / rj
        return u

    def speed(u):
        return np.sqrt(2.0 * conformal_factor(p, u) * (cd.h - cd.value(u)))

    grid = np.linspace(0.0, 2.0 * np.pi, 4001)
    integrand = [np.hypot(np.sin(a) / ri, np.cos(a) / rj) / speed(point(a)) for a in grid]
    udot0 = np.zeros(3)
    udot0[j] = speed(point(0.0))
    return np.concatenate([point(0.0), udot0]), cumulative_quadrature(grid, integrand)[-1]


@pytest.mark.parametrize("kind", ["free", "analytic-grad"])
@pytest.mark.parametrize("plane", ["x", "y", "z"])
def test_seed_matches_scalar_loop(triaxial, kind, plane):
    cd = POTENTIALS[kind](2.0)
    seed, T_guess = section_seed(triaxial, cd, plane)
    seed_ref, T_ref = scalar_section_seed(triaxial, cd, plane)
    assert np.allclose(seed, seed_ref, rtol=1e-14, atol=0.0)
    assert T_guess == pytest.approx(T_ref, rel=1e-12)


@pytest.mark.parametrize("potential", [None, lambda u: 10.0 * u[0] ** 2],
                         ids=["zero-energy", "potential-above-h"])
def test_seed_refuses_energy_not_above_potential(triaxial, potential):
    cd = ConformalData(h=0.0 if potential is None else 0.5, potential=potential)
    with pytest.raises(InvalidParams):
        section_seed(triaxial, cd, "z")


def test_seed_refuses_an_unknown_plane(triaxial):
    with pytest.raises(ValueError, match="plane must be one of x, y, z"):
        section_seed(triaxial, ConformalData(h=1.0), "w")


def test_sections_triaxial_periods_and_closure(triaxial):
    h = 0.8
    orbits = principal_section_orbits(triaxial, ConformalData(h=h))
    periods = []
    for plane in ("x", "y", "z"):
        orbit = orbits[plane]
        assert orbit.closure_error <= 1e-8
        assert orbit.period == pytest.approx(
            closed_form_section_period(triaxial, h, plane), rel=1e-9)
        periods.append(orbit.period)
    assert min(np.diff(sorted(periods))) > 1e-3  # pairwise distinct


def test_sections_stay_planar(triaxial):
    cd = ConformalData(h=0.8)
    axis = {"x": 0, "y": 1, "z": 2}
    for plane in ("x", "y", "z"):
        seed, T_guess = section_seed(triaxial, cd, plane)
        traj = constrained_flow(triaxial, cd, EllipsoidState.from_vector(seed),
                                0.0, T_guess, IntegratorConfig(dt=1e-3))
        assert np.max(np.abs(traj.states[:, axis[plane]])) < 1e-10


def test_sections_sphere_periods_equal():
    p = RigidBodyParams(1.0, 1.0, 1.0)
    h = 0.5
    orbits = principal_section_orbits(p, ConformalData(h=h))
    periods = [orbits[k].period for k in ("x", "y", "z")]
    assert max(periods) - min(periods) < 1e-8
    # closed form: circumference over speed = 2 pi / (c^{3/2} sqrt(2h)) = 2 pi
    assert periods[0] == pytest.approx(2.0 * np.pi, abs=1e-9)
    length = dsigma_length(p, ConformalData(h=h), orbits["z"])
    assert length == pytest.approx(2.0 * np.pi * np.sqrt(h), rel=1e-9)


@pytest.mark.parametrize("h", [0.5, 19.49])
@pytest.mark.parametrize("body", [(1.0, 2.0, 3.0), (1.0, 1.5, 2.0), (2.0, 3.0, 4.5)],
                         ids=["1-2-3", "1-1.5-2", "2-3-4.5"])
def test_dsigma_length_is_the_uniform_rotation_length(body, h):
    # section i is the uniform rotation about principal axis i, whose
    # sigma-length is 2 pi sqrt(h I_i)
    p = RigidBodyParams(*body)
    cd = ConformalData(h=h)
    orbits = principal_section_orbits(p, cd)
    for plane, moment in zip("xyz", body):
        expected = 2.0 * np.pi * np.sqrt(h * moment)
        assert dsigma_length(p, cd, orbits[plane]) == pytest.approx(expected, rel=1e-10)


def test_dsigma_length_with_a_potential_is_the_jacobi_metric_length(triaxial):
    # with V set, the length element is sqrt(a (h - V)) |du|; its line
    # integral around the z-section ellipse is the oracle (the free metric
    # sqrt(h a) |du| would give 10.8828 here)
    h, c = 1.0, 0.3
    cd = ConformalData(h=h, potential=lambda u: c * u[0] ** 2,
                       potential_grad=lambda u: np.array([2.0 * c * u[0], 0.0, 0.0]))
    orbit = principal_section_orbits(triaxial, cd)["z"]
    alpha = np.linspace(0.0, 2.0 * np.pi, 20_001)
    u = np.zeros((alpha.size, 3))
    u[:, 0] = np.cos(alpha) / np.sqrt(triaxial.A)
    u[:, 1] = np.sin(alpha) / np.sqrt(triaxial.B)
    darc = np.hypot(np.sin(alpha) / np.sqrt(triaxial.A), np.cos(alpha) / np.sqrt(triaxial.B))
    speed = np.sqrt(_factor_unchecked(triaxial, u) * (h - c * u[:, 0] ** 2))
    expected = cumulative_quadrature(alpha, speed * darc)[-1]
    assert dsigma_length(triaxial, cd, orbit) == pytest.approx(expected, rel=1e-8)


def test_sections_refine_perturbed_period_guess(triaxial):
    # Newton polishes a detuned period guess back to a closed orbit
    from routhkit.integrate import shoot_periodic, propagate
    from routhkit.ellipsoid import _flow_rhs, _flow_project
    cd = ConformalData(h=0.8)
    cfg = IntegratorConfig(method="rk45", dt=1e-2, abs_tol=1e-12, rel_tol=1e-12)
    rhs = _flow_rhs(triaxial, cd)
    project = _flow_project(triaxial)

    def flow(s, T):
        return propagate(rhs, project(s), 0.0, T, cfg, project=project)

    seed, T_guess = section_seed(triaxial, cd, "z")
    orbit = shoot_periodic(flow, seed, 1.005 * T_guess, phase_index=4)
    assert orbit.closure_error <= 1e-8
    assert orbit.iterations >= 1


def test_perturbed_geodesic_refines_with_one_jacobian():
    # a closed geodesic of the (1, 1.5, 2) body at h = 0.5, perturbed by 1e-3
    # of the state's norm with a period guess 1% off: one finite-difference
    # Jacobian (d + 1 = 7 propagations) and Broyden updates close it
    from routhkit.integrate import shoot_periodic
    p, cd = RigidBodyParams(1.0, 1.5, 2.0), ConformalData(h=0.5)
    cfg = IntegratorConfig(method="rk45", dt=1e-2, abs_tol=1e-12, rel_tol=1e-12)
    rng = np.random.default_rng(1)
    seed, T_guess = section_seed(p, cd, "x")
    direction = rng.normal(size=6)
    state = seed + 1e-3 * np.linalg.norm(seed) * direction / np.linalg.norm(direction)
    guess = np.concatenate(project_to_surface(p, state[:3], state[3:]))
    calls = []

    def flow(s, T):
        calls.append(T)
        return constrained_flow(p, cd, EllipsoidState.from_vector(s), 0.0, T, cfg).states[-1]

    orbit = shoot_periodic(flow, guess, 1.01 * T_guess,
                           phase_index=3 + int(np.argmax(np.abs(guess[3:]))))
    assert len(calls) <= 16
    assert orbit.closure_error <= 1e-8
    assert orbit.jacobians == 1
    assert orbit.closure_history[-1] == orbit.closure_error
    assert len(orbit.closure_history) >= orbit.iterations >= 1


def test_flow_match_covers_the_whole_window():
    # a(u) reaches ABC / min(A, B, C) = 3 on this body, so the rescaled time
    # of one equatorial period depends on the orbit; the window that check (b)
    # reports must be a sample of the image, and every check must pass over it
    rep, image = run_kolosov(RigidBodyParams(1.0, 1.5, 2.0),
                             ReducedState(q=[0.7, 1.1], qdot=[0.4, 0.15]),
                             dt=1e-2, energy_target=20.0)
    assert image.times[-1] >= rep["window"]
    assert all(c["passed"] for c in rep["checks"])


def test_kolosov_report_is_covariant_under_inertia_scaling():
    # at inertia 4^k (1, 2, 3) and energy 4^k h the chart run is the same in
    # physical time, a(u) scales as 16^k and positions on the ellipsoid as
    # 2^-k, with every square root exact; from k = 4 the absolute 1e-6 of
    # section-periods-distinct no longer holds the scaled gaps apart.  Check
    # (b) steps at dt in tau, one step per image interval from k = 0 up but
    # more below, so only from k = 0 is its gap 2^-k times the k = 0 gap
    def run(k):
        s = 4.0 ** k
        rep, _ = run_kolosov(RigidBodyParams(s, 2.0 * s, 3.0 * s),
                             ReducedState(q=[0.7, 1.1], qdot=[0.4, 0.15]),
                             dt=0.01, energy_target=s * 19.49)
        values = {c["name"]: c["value"] for c in rep["checks"]}
        scaled = [values["zero-energy-relation"], values["rescaled-speed-constancy"],
                  rep["lambda"], rep["equatorial_period"], rep["window"] * 16.0 ** k]
        passed = [(c["name"], c["passed"]) for c in rep["checks"]]
        return passed, scaled, values["conformal-flow-match"] * 2.0 ** k

    passed0, scaled0, gap0 = run(0)
    assert all(ok for _, ok in passed0)
    for k in (-1, 1, 2, 3):
        passed, scaled, gap = run(k)
        assert passed == passed0
        assert scaled == pytest.approx(scaled0, rel=1e-12, abs=0.0)
        if k >= 0:
            assert gap == pytest.approx(gap0, rel=1e-12, abs=0.0)


def test_one_step_kolosov_run_reports_that_step_as_its_window():
    # the equatorial seed stays on the chart through one RK4 step of dt = 2T;
    # with no quadrature pair closed, the window is that step's tau, never 0
    h = 19.49
    dt = 4.0 * np.pi * np.sqrt(3.0 / (2.0 * h))
    rep, image = run_kolosov(RigidBodyParams(1.0, 2.0, 3.0),
                             ReducedState(q=[0.0, np.pi / 2.0], qdot=[0.4, 0.0]),
                             dt=dt, energy_target=h)
    assert image.times.size == 2
    assert rep["window"] == image.times[1] > 0.0


def test_kolosov_refuses_a_rescaled_flow_over_the_step_budget():
    # at inertia 1e-3 (1, 2, 3) the rescaled time of one equatorial period is
    # ~4.6e5, so check (b)'s flow would take ~4.6e7 steps of dt = 0.01; it is
    # refused before the first of them, while the chart run takes 175
    with pytest.raises(MaxStepsExceeded,
                       match=r"^46248277\.1218 steps exceed max_steps=10000000$"):
        run_kolosov(RigidBodyParams(1e-3, 2e-3, 3e-3),
                    ReducedState(q=[0.7, 1.1], qdot=[0.4, 0.15]),
                    dt=0.01, energy_target=1e-3 * 19.49)


@pytest.mark.parametrize("moments", [(1.0, 2.0, 3.0), (1.0, 1.5, 2.0), (2.0, 3.0, 4.5),
                                     (1.0, 1.0 + 1e-7, 2.0)])
@pytest.mark.parametrize("h", [0.5, 19.49])
def test_section_periods_have_their_closed_form(moments, h):
    # section i is the uniform rotation about axis i: physical period
    # 2 pi sqrt(I_i / 2h), and 1/a(u) averages (I_j + I_k) / 2ABC along it
    orbits = principal_section_orbits(RigidBodyParams(*moments), ConformalData(h=h))
    abc = moments[0] * moments[1] * moments[2]
    for i, plane in enumerate("xyz"):
        T = (2.0 * np.pi * np.sqrt(moments[i] / (2.0 * h))
             * (sum(moments) - moments[i]) / (2.0 * abc))
        assert abs(orbits[plane].period - T) <= 1e-13 * T


@pytest.mark.parametrize("moments", [(2.0, 3.0, 4.5), (1.0, 1.0 + 1e-7, 2.0)],
                         ids=["Tx=Tz", "nearly-axisymmetric"])
def test_kolosov_passes_where_two_section_periods_coincide(moments):
    # 2 * 7.5^2 = 4.5 * 5^2 makes T_x = T_z on the first body; on the second
    # T_x and T_y differ by ~1e-8.  Such pairs are checked against the
    # closed-form gap, the other pairs for distinctness
    rep, _ = run_kolosov(RigidBodyParams(*moments), ReducedState(q=[0.7, 1.1], qdot=[0.4, 0.15]),
                         dt=1e-2, energy_target=20.0)
    assert rep["all_passed"] is True
    assert check(rep, "section-periods-distinct")["value"] > 1e-3
    assert check(rep, "section-periods-equal")["value"] <= 1e-12


def test_projection_is_handed_python_floats(monkeypatch, triaxial_params, generic_state):
    project = ellipsoid_module._project
    seen = set()

    def recording(p, state):
        seen.update(type(v) for v in state)
        return project(p, state)

    monkeypatch.setattr(ellipsoid_module, "_project", recording)
    run_kolosov(triaxial_params, generic_state, dt=1e-2, energy_target=20.0)
    start = EllipsoidState(kolosov_map(triaxial_params, 0.7, 1.1), [0.1, 0.2, -0.3])
    constrained_flow(triaxial_params, ConformalData(h=0.5), start, 0.0, 0.5,
                     IntegratorConfig(method="rk4", dt=1e-2))
    assert seen == {float}


def test_equatorial_results_do_not_depend_on_dt(triaxial_params, triaxial_system,
                                               zero_momentum, generic_state):
    # the equatorial orbit is taken in closed form and integrated with DP45
    # at the shooting tolerance, so halving the RK4 step of the rest of the
    # run leaves every equatorial number unchanged to the bit
    h0 = reduced_energy(triaxial_system, zero_momentum, generic_state)
    reps = [run_kolosov(triaxial_params, generic_state, dt=dt, energy_target=100.0 * h0)[0]
            for dt in (4e-3, 2e-3)]
    a, b = ([r["equatorial_period"], r["lambda"], check(r, "lambda-endpoint-consistency")["value"],
             check(r, "rotating-frame-periodicity")["value"]] for r in reps)
    assert a == b
    assert all(c["passed"] for rep in reps for c in rep["checks"])


def test_equatorial_analysis_rhs_budget(monkeypatch, triaxial_params, triaxial_system,
                                        zero_momentum, generic_state):
    # DP45 resolves the uniform rotation in a few steps per period; work that
    # grows like T / dt (about 139,000 calls at dt = 1e-3) fails the budget
    field = integ.reduced_vector_field
    calls = [0]

    def counted_field(sys, f):
        rhs = field(sys, f)

        def counted(y):
            calls[0] += 1
            return rhs(y)

        return counted

    monkeypatch.setattr(integ, "reduced_vector_field", counted_field)
    h = reduced_energy(triaxial_system, zero_momentum, generic_state)
    _, _, endpoint, rotating = verify._equatorial_analysis(
        triaxial_params, triaxial_system, zero_momentum, h)
    assert 0 < calls[0] < 1000
    assert endpoint.passed and rotating.passed


def test_run_kolosov_refuses_a_heavy_body():
    # the equivalence run covers the free body only; without the refusal this
    # heavy body meets the chart boundary mid-run
    params = RigidBodyParams(1.0, 2.0, 3.0, potential=heavy_potential(0.05))
    with pytest.raises(InvalidParams, match="free body"):
        run_kolosov(params, ReducedState(q=[0.7, 1.1], qdot=[0.4, 0.15]),
                    dt=1e-2, energy_target=20.0)


@pytest.mark.parametrize("target", [float("nan"), 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_run_kolosov_refuses_a_bad_energy_target(target):
    with pytest.raises(ConfigError, match="energy_target must be positive"):
        run_kolosov(RigidBodyParams(1.0, 2.0, 3.0), ReducedState(q=[0.7, 1.1], qdot=[0.4, 0.15]),
                    dt=1e-2, energy_target=target)


@pytest.mark.parametrize("u, udot, message", [
    ([1.0, 0.0], [0.0, 0.0, 0.0], "3-vectors"),
    ([1.0, 0.0, 0.0], [[0.0, 0.0, 0.0]], "3-vectors"),
    ([1.0, np.nan, 0.0], [0.0, 0.0, 0.0], "finite"),
    ([1.0, 0.0, 0.0], [0.0, np.inf, 0.0], "finite"),
], ids=["short-u", "stacked-udot", "nan-u", "inf-udot"])
def test_ellipsoid_state_rejects_bad_vectors(u, udot, message):
    with pytest.raises(ValueError, match=message):
        EllipsoidState(u=u, udot=udot)


def test_energy_below_potential_refused(triaxial):
    cd = ConformalData(h=0.5, potential=lambda u: 1.0)
    with pytest.raises(InvalidParams):
        principal_section_orbits(triaxial, cd)


def test_sections_unit_energy_regression_anchors(triaxial):
    # frozen closed-form values at h = 1 for the (1, 2, 3) body:
    # T_x = 5 pi / (6 sqrt(2)), T_y = 2 pi / 3, T_z = 3 pi / (2 sqrt(6))
    orbits = principal_section_orbits(triaxial, ConformalData(h=1.0))
    assert orbits["x"].period == pytest.approx(1.8512012242326523, abs=1e-9)
    assert orbits["y"].period == pytest.approx(2.0943951023931953, abs=1e-9)
    assert orbits["z"].period == pytest.approx(1.9238247452427963, abs=1e-9)


# ---------------------------------------------------------------------------
# scalar kernels against the vector formulas they replace


def accel_oracle(p, cd, u, udot, physical_time):
    """The constrained acceleration written with 3-vector numpy algebra.

    Returns uddot and the size of the terms summed into it, the scale
    against which rounding differences are measured.
    """
    g = constraint_gradient(p, u)
    gn2 = float(g @ g)
    if physical_time:
        a = _factor_unchecked(p, u)
        ga = conformal_factor_grad(p, u)
        gu = cd.grad(u)
    else:
        a = 1.0
        ga = np.zeros(3)
        gu = conformal_factor_grad(p, u) * (cd.value(u) - cd.h) \
            + _factor_unchecked(p, u) * cd.grad(u)
    kinetic = 0.5 * float(udot @ udot)
    w = kinetic * ga - float(ga @ udot) * udot - gu
    hess_term = 2.0 * float(p.A * udot[0] ** 2 + p.B * udot[1] ** 2 + p.C * udot[2] ** 2)
    lam = -(a * hess_term + float(g @ w)) / gn2
    uddot_scale = (np.linalg.norm(w) + abs(lam) * np.linalg.norm(g)) / a
    return (w + lam * g) / a, uddot_scale


def accel_reference(p, cd, u, udot, physical_time):
    """The constrained acceleration written out on floats, term by term in
    the operation order the flow kernel must keep, with every constant read
    from ``p`` and ``cd`` at the call: uddot as three floats."""
    A, B, C = p.A, p.B, p.C
    x, y, z = u
    vx, vy, vz = udot
    abc = A * B * C
    gx, gy, gz = 2.0 * A * x, 2.0 * B * y, 2.0 * C * z
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
        a, inv_a = factor, s / abc
        kinetic = 0.5 * (vx * vx + vy * vy + vz * vz)
        dax, day, daz = c * ex, c * ey, c * ez
        dav = dax * vx + day * vy + daz * vz
        wx = kinetic * dax - dav * vx - fx
        wy = kinetic * day - dav * vy - fy
        wz = kinetic * daz - dav * vz - fz
    else:
        a, inv_a = 1.0, 1.0
        dv = (-cd.h if free else cd.value(point) - cd.h) * c
        wx = -(dv * ex + factor * fx)
        wy = -(dv * ey + factor * fy)
        wz = -(dv * ez + factor * fz)
    hess_term = 2.0 * (A * vx * vx + B * vy * vy + C * vz * vz)
    lam = -(a * hess_term + gx * wx + gy * wy + gz * wz) / (gx * gx + gy * gy + gz * gz)
    return [(wx + lam * gx) * inv_a, (wy + lam * gy) * inv_a, (wz + lam * gz) * inv_a]


def project_oracle(p, u, udot):
    """Surface projection written with 3-vector numpy algebra."""
    u = np.asarray(u, dtype=float).copy()
    udot = np.asarray(udot, dtype=float).copy()
    for _ in range(3):
        res = surface_residual(p, u)
        if abs(res) < 1e-15:
            break
        g = constraint_gradient(p, u)
        u -= res * g / float(g @ g)
    g = constraint_gradient(p, u)
    udot -= (float(g @ udot) / float(g @ g)) * g
    return u, udot


def tilted_potential(u):
    return 0.3 * u[0] - 0.2 * u[1] * u[2] + 0.1 * u[2] ** 2


def tilted_potential_grad(u):
    return np.array([0.3, -0.2 * u[2], -0.2 * u[1] + 0.2 * u[2]])


POTENTIALS = {
    "free": lambda h: ConformalData(h=h),
    "analytic-grad": lambda h: ConformalData(h=h, potential=tilted_potential,
                                             potential_grad=tilted_potential_grad),
    "finite-difference-grad": lambda h: ConformalData(h=h, potential=tilted_potential),
}

# moments in [1, 2) times a common scale always meet the triangle inequality
moment = st.floats(1.0, 1.99)
angle = st.floats(-np.pi, np.pi)
component = st.floats(-3.0, 3.0)


@st.composite
def near_surface_states(draw, max_offset):
    """Body, a point within ``max_offset`` of the surface (relative), and a
    velocity whose normal part is at most ``max_offset`` of its size."""
    scale = draw(st.floats(0.3, 3.0))
    p = RigidBodyParams(scale * draw(moment), scale * draw(moment), scale * draw(moment))
    phi, theta = draw(angle), draw(st.floats(0.05, np.pi - 0.05))
    u = kolosov_map(p, phi, theta) * (1.0 + draw(st.floats(-max_offset, max_offset)))
    v = np.array([draw(component), draw(component), draw(component)])
    g = np.array([p.A * u[0], p.B * u[1], p.C * u[2]])
    v_tan = v - (g @ v) / (g @ g) * g
    normal = draw(st.floats(-max_offset, max_offset)) * np.linalg.norm(v)
    return p, u, v_tan + normal * g / np.linalg.norm(g)


def assert_close_rel(actual, expected, scale=None, rel=1e-12):
    """Agreement to ``rel`` of ``scale``, by default the expected norm."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.linalg.norm(expected) if scale is None else scale
    assert np.linalg.norm(actual - expected) <= rel * scale, (actual, expected)


@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@pytest.mark.parametrize("physical_time", [False, True], ids=["rescaled", "physical"])
@settings(max_examples=150, deadline=None)
@given(state=st.one_of(near_surface_states(0.0), near_surface_states(1e-6)),
       h=st.floats(0.2, 5.0))
def test_accel_matches_vector_formula(kind, physical_time, state, h):
    p, u, udot = state
    cd = POTENTIALS[kind](h)
    rhs = _flow_rhs(p, cd, physical_time)
    y = np.concatenate([u, udot])
    uddot_ref, uddot_scale = accel_oracle(p, cd, u, udot, physical_time)
    assert_close_rel(rhs(y)[3:], uddot_ref, uddot_scale)
    # bit for bit against the float formula, from a list and from an array;
    # uddot = (w + lam g) / a, so this pins the multiplier's arithmetic too
    expected = float_bits(udot.tolist() + accel_reference(p, cd, u.tolist(), udot.tolist(),
                                                          physical_time))
    assert float_bits(rhs(y.tolist())) == expected
    assert float_bits(rhs(y)) == expected


@settings(max_examples=300, deadline=None)
@given(state=st.one_of(near_surface_states(0.0), near_surface_states(1e-6),
                       near_surface_states(1e-2)))
def test_projection_matches_vector_algorithm(state):
    p, u, udot = state
    u_new, udot_new = project_to_surface(p, u, udot)
    u_ref, udot_ref = project_oracle(p, u, udot)
    assert_close_rel(u_new, u_ref)
    # the tangent part is udot minus its normal part, both at most |udot|
    assert_close_rel(udot_new, udot_ref, np.linalg.norm(udot))


@pytest.mark.parametrize("kind", ["free", "analytic-grad"])
@pytest.mark.parametrize("physical_time", [False, True], ids=["rescaled", "physical"])
@settings(max_examples=50, deadline=None)
@given(state=near_surface_states(0.0), slot=st.integers(0, 5),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_state_gives_non_finite_rhs(kind, physical_time, state, slot, bad):
    p, u, udot = state
    y = np.concatenate([u, udot])
    y[slot] = bad
    rhs = _flow_rhs(p, POTENTIALS[kind](0.7), physical_time)
    # at an infinite coordinate the potential itself gives the expected NaN
    with np.errstate(invalid="ignore"):
        assert not np.all(np.isfinite(rhs(y)))
        with pytest.raises(StepFailure):
            integrate_ode(rhs, y, 0.0, 1.0, IntegratorConfig(method="rk45", dt=1e-2))


@pytest.mark.parametrize("physical_time", [False, True], ids=["rescaled", "physical"])
@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_huge_state_overflows_without_raising(triaxial, physical_time, scale):
    rhs = _flow_rhs(triaxial, ConformalData(h=0.7), physical_time)
    for y in (np.array([scale, 0.5 * scale, 0.0, 1.0, 0.0, 0.0]),
              np.array([0.5, 0.0, 0.1, scale, -scale, scale])):
        out = rhs(y)
        assert np.shape(out) == (6,)
    u, udot = project_to_surface(triaxial, [scale, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert u.shape == udot.shape == (3,)
