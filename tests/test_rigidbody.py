"""Rigid-body chart: kinetic matrix, closed forms, precession analysis."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routhkit import (
    ChartBoundary,
    FullState,
    GridMismatch,
    IntegratorConfig,
    InvalidParams,
    MomentumValue,
    ReducedState,
    RigidBodyParams,
    SpanTooShort,
    Trajectory,
    TrajectoryMeta,
    heavy_potential,
    integrate_reduced,
    kolosov_reduced_lagrangian,
    lagrangian_full,
    lambda_average,
    momentum_map,
    propagate,
    psi_dot_zero_momentum,
    rb_system,
    reconstruct,
    reduced_energy,
    routhian,
    rotating_frame_residual,
    solve_cyclic,
)
from routhkit.reduction import evaluate_metric

from conftest import (GENERIC_Q, GENERIC_QDOT, TRIAXIAL, body_rates, euler_poisson, kinetic_oracle,
                      reduced_field)


def random_chart_state(rng):
    phi = rng.uniform(-np.pi, np.pi)
    theta = rng.uniform(0.3, np.pi - 0.3)
    phidot, thetadot = rng.normal(size=2)
    return phi, theta, phidot, thetadot


# ---------------------------------------------------------------------------
# parameters and kinetic matrix


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        RigidBodyParams(-1.0, 2.0, 3.0)
    with pytest.raises(InvalidParams):
        RigidBodyParams(1.0, 1.0, 5.0)  # violates A + B >= C


def test_precession_entry_formula(triaxial_params, triaxial_system, rng):
    # (A sin^2 phi + B cos^2 phi) sin^2 theta + C cos^2 theta
    p = triaxial_params
    for _ in range(20):
        phi, theta, _, _ = random_chart_state(rng)
        K = evaluate_metric(triaxial_system, np.array([phi, theta]))
        expected = ((p.A * np.sin(phi) ** 2 + p.B * np.cos(phi) ** 2) * np.sin(theta) ** 2
                    + p.C * np.cos(theta) ** 2)
        assert K[2, 2] == pytest.approx(expected, rel=1e-14)


def test_spherical_body_metric_determinant(rng):
    # A = B = C = c gives det = c^3 sin^2(theta)
    c = 1.7
    sys = rb_system(RigidBodyParams(c, c, c))
    for _ in range(10):
        phi, theta, _, _ = random_chart_state(rng)
        K = evaluate_metric(sys, np.array([phi, theta]))
        assert np.linalg.det(K) == pytest.approx(c ** 3 * np.sin(theta) ** 2, rel=1e-12)


def test_triaxial_metric_determinant(triaxial_params, triaxial_system, rng):
    p = triaxial_params
    for _ in range(10):
        phi, theta, _, _ = random_chart_state(rng)
        K = evaluate_metric(triaxial_system, np.array([phi, theta]))
        assert np.linalg.det(K) == pytest.approx(
            p.A * p.B * p.C * np.sin(theta) ** 2, rel=1e-12)


def test_pole_guard_trips(triaxial_system):
    with pytest.raises(ChartBoundary):
        evaluate_metric(triaxial_system, np.array([0.2, 5e-7]))
    with pytest.raises(ChartBoundary):
        evaluate_metric(triaxial_system, np.array([0.2, np.pi - 5e-7]))


def test_kinetic_energy_matches_body_rate_oracle(triaxial_params, triaxial_system, rng):
    for _ in range(20):
        phi, theta, phidot, thetadot = random_chart_state(rng)
        psidot = float(rng.normal())
        K = evaluate_metric(triaxial_system, np.array([phi, theta]))
        v = np.array([phidot, thetadot, psidot])
        assert 0.5 * v @ K @ v == pytest.approx(
            kinetic_oracle(triaxial_params, phi, theta, phidot, thetadot, psidot),
            rel=1e-13)


# ---------------------------------------------------------------------------
# closed-form reduced Lagrangian


def test_closed_form_equals_routhian(triaxial_params, triaxial_system, zero_momentum,
                                     rng):
    worst = 0.0
    for _ in range(100):
        phi, theta, phidot, thetadot = random_chart_state(rng)
        a = kolosov_reduced_lagrangian(triaxial_params, phi, theta, phidot, thetadot)
        b = routhian(triaxial_system, zero_momentum,
                     ReducedState(q=[phi, theta], qdot=[phidot, thetadot]))
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    assert worst < 1e-10


def test_closed_form_sphere_round_metric(rng):
    c = 2.3
    p = RigidBodyParams(c, c, c)
    for _ in range(10):
        phi, theta, phidot, thetadot = random_chart_state(rng)
        expected = 0.5 * c * (thetadot ** 2 + phidot ** 2 * np.sin(theta) ** 2)
        assert kolosov_reduced_lagrangian(p, phi, theta, phidot, thetadot) == \
            pytest.approx(expected, rel=1e-13)


def test_closed_form_zero_velocity_minus_potential():
    p = RigidBodyParams(1.0, 2.0, 3.0, potential=heavy_potential(0.8))
    assert kolosov_reduced_lagrangian(p, 0.3, 1.0, 0.0, 0.0) == \
        pytest.approx(-0.8 * np.cos(1.0), abs=1e-15)


def test_closed_form_with_heavy_potential_matches_routhian(rng):
    p = RigidBodyParams(1.0, 2.0, 3.0, potential=heavy_potential(0.5))
    sys = rb_system(p)
    f0 = MomentumValue.zero(0, 1)
    for _ in range(20):
        phi, theta, phidot, thetadot = random_chart_state(rng)
        a = kolosov_reduced_lagrangian(p, phi, theta, phidot, thetadot)
        b = routhian(sys, f0, ReducedState(q=[phi, theta], qdot=[phidot, thetadot]))
        assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# precession rate at zero momentum


def test_psi_dot_zero_velocities(triaxial_params):
    assert psi_dot_zero_momentum(triaxial_params, 0.4, 1.2, 0.0, 0.0) == 0.0


def test_psi_dot_symmetric_equatorial():
    p = RigidBodyParams(2.0, 2.0, 1.0)
    assert psi_dot_zero_momentum(p, 0.7, np.pi / 2, 1.3, 0.8) == pytest.approx(0.0, abs=1e-15)


def test_psi_dot_matches_cyclic_solve(triaxial_params, triaxial_system, zero_momentum,
                                      rng):
    for _ in range(50):
        phi, theta, phidot, thetadot = random_chart_state(rng)
        a = psi_dot_zero_momentum(triaxial_params, phi, theta, phidot, thetadot)
        w = solve_cyclic(triaxial_system, [phi, theta], [phidot, thetadot],
                         zero_momentum)
        assert abs(a - w[0]) < 1e-12


def test_psi_dot_pole_guard(triaxial_params):
    with pytest.raises(ChartBoundary):
        psi_dot_zero_momentum(triaxial_params, 0.0, 1e-8, 0.1, 0.1)


# ---------------------------------------------------------------------------
# structural symmetry and energy decomposition


def test_axial_translation_invariance(triaxial_system, rng):
    for _ in range(10):
        phi, theta, phidot, thetadot = random_chart_state(rng)
        psidot = float(rng.normal())
        shift = float(rng.uniform(0, 2 * np.pi))
        s1 = FullState(q=[phi, theta], x=[], psi=[0.3], qdot=[phidot, thetadot],
                       xdot=[], psidot=[psidot])
        s2 = FullState(q=[phi, theta], x=[], psi=[0.3 + shift],
                       qdot=[phidot, thetadot], xdot=[], psidot=[psidot])
        assert lagrangian_full(triaxial_system, s1) == lagrangian_full(triaxial_system, s2)
        assert momentum_map(triaxial_system, s1).eta[0] == \
            momentum_map(triaxial_system, s2).eta[0]


def test_energy_decomposition_zero_momentum(rng):
    # at zero momentum the reduced energy is the chart kinetic form plus V0
    coeff = 0.6
    p = RigidBodyParams(1.0, 2.0, 3.0, potential=heavy_potential(coeff))
    p_free = RigidBodyParams(1.0, 2.0, 3.0)
    sys = rb_system(p)
    f0 = MomentumValue.zero(0, 1)
    for _ in range(20):
        phi, theta, phidot, thetadot = random_chart_state(rng)
        kinetic = kolosov_reduced_lagrangian(p_free, phi, theta, phidot, thetadot)
        e = reduced_energy(sys, f0, ReducedState(q=[phi, theta], qdot=[phidot, thetadot]))
        assert e == pytest.approx(kinetic + coeff * np.cos(theta), abs=1e-12)


@pytest.mark.parametrize("theta", [0.4, 0.9, 1.3])
def test_staude_permanent_rotation_is_a_reduced_equilibrium(theta):
    # Heavy body at phi = pi/2: uniform precession psidot = w with
    # w^2 = c / ((C - A) cos theta) at momentum eta = D w, D = A sin^2 + C cos^2.
    A, B, C, c = 1.0, 2.0, 3.0, 0.8
    sys = rb_system(RigidBodyParams(A, B, C, potential=heavy_potential(c)))
    omega = np.sqrt(c / ((C - A) * np.cos(theta)))
    D = A * np.sin(theta) ** 2 + C * np.cos(theta) ** 2
    f = MomentumValue(xi=[], eta=[D * omega])
    _, qddot = reduced_field(sys, f, ReducedState(q=[np.pi / 2, theta], qdot=[0.0, 0.0]))
    assert np.max(np.abs(qddot)) <= 1e-14


def test_heavy_body_energy_conserved():
    p = RigidBodyParams(1.0, 2.0, 3.0, potential=heavy_potential(0.5))
    sys = rb_system(p)
    f0 = MomentumValue.zero(0, 1)
    r0 = ReducedState(q=[0.4, 1.2], qdot=[0.3, 0.2])
    traj = integrate_reduced(sys, f0, r0, 0.0, 5.0, IntegratorConfig(dt=1e-3))
    e0 = traj.meta.energy0
    for row in traj.states[::250]:
        e = reduced_energy(sys, f0, ReducedState(q=row[:2], qdot=row[2:]))
        assert abs(e - e0) / max(1.0, abs(e0)) < 1e-9


# ---------------------------------------------------------------------------
# lambda_average


def test_lambda_constant_rate():
    t = np.linspace(0.0, 3.0, 31)
    assert lambda_average(t, np.full(31, 1.4), 3.0) == pytest.approx(1.4, abs=1e-13)


def test_lambda_full_sine_period_averages_to_zero():
    T = 2.0
    t = np.linspace(0.0, T, 201)
    assert abs(lambda_average(t, np.sin(2 * np.pi * t / T), T)) < 1e-10


def test_lambda_grid_mismatch():
    t = np.linspace(0.0, 2.0, 21)
    with pytest.raises(GridMismatch):
        lambda_average(t, np.ones(21), 3.0)
    with pytest.raises(GridMismatch, match="values must align with times"):
        lambda_average(t, np.ones(20), 3.0)     # reported before the span
    with pytest.raises(GridMismatch, match="at least two samples"):
        lambda_average([], [], 3.0)
    with pytest.raises(GridMismatch, match="values must align with times"):
        lambda_average([0.0, 3.0], 1.0, 3.0)


def test_lambda_rejects_repeated_time():
    with pytest.raises(GridMismatch):
        lambda_average([0.0, 1.0, 1.0, 2.0], np.ones(4), 2.0)


def test_lambda_endpoint_consistency_on_periodic_orbit(triaxial_params,
                                                       triaxial_system,
                                                       zero_momentum):
    # steady rotation about the symmetry-orthogonal axis: theta = pi/2
    h = 0.3
    omega = np.sqrt(2 * h / triaxial_params.C)
    T = 2 * np.pi / omega
    r0 = ReducedState(q=[0.0, np.pi / 2], qdot=[omega, 0.0])
    cfg = IntegratorConfig(dt=T / 4000)
    red = integrate_reduced(triaxial_system, zero_momentum, r0, 0.0, T, cfg)
    full = reconstruct(triaxial_system, zero_momentum, red, x0=None, psi0=[0.7])
    lam = lambda_average(red.times, full.states[:, 5], T)
    assert abs(full.states[-1, 2] - full.states[0, 2] - lam * T) < 1e-8


# ---------------------------------------------------------------------------
# rotating_frame_residual


def _synthetic_full(lam, T, psi0=0.4, samples_per_period=400, t=None):
    if t is None:
        t = np.linspace(0.0, 2 * T, 2 * samples_per_period + 1)
    phi = 0.3 * np.sin(2 * np.pi * t / T)
    theta = np.pi / 2 + 0.2 * np.cos(2 * np.pi * t / T)
    psi = psi0 + lam * t + 0.1 * np.sin(2 * np.pi * t / T)
    vel = np.zeros_like(t)
    states = np.column_stack([phi, theta, psi, vel, vel, vel])
    return Trajectory(times=t, states=states, meta=TrajectoryMeta(system="rigid-body"))


def test_rotating_frame_exact_relative_periodicity():
    assert rotating_frame_residual(_synthetic_full(0.37, 1.5), 0.37, 1.5) < 1e-12


def test_rotating_frame_invariant_under_psi_shift():
    a = rotating_frame_residual(_synthetic_full(0.37, 1.5, psi0=0.0), 0.37, 1.5)
    b = rotating_frame_residual(_synthetic_full(0.37, 1.5, psi0=2.9), 0.37, 1.5)
    assert abs(a - b) < 1e-12


def test_rotating_frame_detects_wrong_rate():
    assert rotating_frame_residual(_synthetic_full(0.37, 1.5), 0.9, 1.5) > 1e-2


def test_rotating_frame_interpolates_on_a_non_uniform_grid():
    lam, T = 0.37, 1.5
    s = np.linspace(0.0, 1.0, 801)
    t = 2 * T * (s + 0.3 * np.sin(2 * np.pi * s) / (2 * np.pi))   # steps vary by +-30 %
    # linear interpolation errs by at most h^2 max|chi''| / 8; chi'' is the
    # second derivative of (phi, theta, psi - lam t) of _synthetic_full
    w = 2 * np.pi / T
    fine = np.linspace(0.0, 2 * T, 20001)
    chi2 = np.concatenate([0.3 * w ** 2 * np.sin(w * fine), 0.2 * w ** 2 * np.cos(w * fine),
                           0.1 * w ** 2 * np.sin(w * fine)])
    bound = np.max(np.diff(t)) ** 2 * np.max(np.abs(chi2)) / 8
    full = _synthetic_full(lam, T, t=t)
    assert 0.0 < rotating_frame_residual(full, lam, T) < bound
    assert rotating_frame_residual(full, 0.9, T) > 1e-2


def test_rotating_frame_span_too_short():
    with pytest.raises(SpanTooShort):
        rotating_frame_residual(_synthetic_full(0.3, 1.5), 0.3, 2.0)


def test_rotating_frame_on_detected_orbit(triaxial_params, triaxial_system,
                                          zero_momentum):
    h = 0.3
    omega = np.sqrt(2 * h / triaxial_params.C)
    T = 2 * np.pi / omega
    r0 = ReducedState(q=[0.0, np.pi / 2], qdot=[omega, 0.0])
    cfg = IntegratorConfig(dt=T / 4000)
    red = integrate_reduced(triaxial_system, zero_momentum, r0, 0.0, 2 * T, cfg)
    full = reconstruct(triaxial_system, zero_momentum, red, x0=None, psi0=[0.0])
    mask = red.times <= T + 1e-12
    lam = lambda_average(red.times[mask], full.states[mask, 5], T)
    assert rotating_frame_residual(full, lam, T) < 1e-6


def _vertical(phi, theta):
    """The spatial vertical in the body frame: gamma on the Poisson sphere."""
    return np.array([np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), np.cos(theta)])


@pytest.mark.parametrize("heavy", [False, True], ids=["free", "heavy"])
@settings(max_examples=15, deadline=None)
@given(moments=st.tuples(*3 * [st.floats(1.0, 1.99, exclude_max=True)]),
       q=st.tuples(st.floats(-np.pi, np.pi), st.floats(0.5, np.pi - 0.5)),
       qdot=st.tuples(*2 * [st.floats(-0.5, 0.5)]),
       c=st.floats(-1.0, 1.0), t_end=st.just(1.0))
@example(moments=TRIAXIAL, q=GENERIC_Q, qdot=GENERIC_QDOT, c=0.8, t_end=5.0)
def test_chart_reduction_matches_euler_poisson(heavy, moments, q, qdot, c, t_end):
    # Euler-Poisson is the chart-free reduced system; with the opposite
    # torque sign the heavy body's gamma ends about 1 away at t = 5 from the
    # frozen state.  Moments in [1, 2) always form a body; drawn
    # states keep off the chart poles.  The free body ignores the drawn c.
    c = c if heavy else 0.0
    p = RigidBodyParams(*moments, potential=heavy_potential(c) if heavy else None)
    inertia = np.array([p.A, p.B, p.C])
    (phi, theta), (phidot, thetadot) = q, qdot
    psidot = psi_dot_zero_momentum(p, phi, theta, phidot, thetadot)
    w0 = np.array(body_rates(phi, theta, phidot, thetadot, psidot))

    cfg = IntegratorConfig(method="rk45", dt=1e-2, abs_tol=1e-12, rel_tol=1e-12)
    end = propagate(euler_poisson(inertia, c),
                    np.concatenate([inertia * w0, _vertical(phi, theta)]), 0.0, t_end, cfg)
    chart = integrate_reduced(rb_system(p), MomentumValue.zero(0, 1),
                              ReducedState(q=q, qdot=qdot), 0.0, t_end, cfg)
    assert np.max(np.abs(end[3:] - _vertical(*chart.states[-1, :2]))) <= 1e-10
    assert abs(end[:3] @ end[3:]) <= 1e-10     # zero momentum: I w . gamma = 0
