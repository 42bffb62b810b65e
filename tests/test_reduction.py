"""Reduction core: blocks, momentum map, cyclic solve, Routhian, dynamics."""

import numpy as np
import pytest

from routhkit import (
    ChartBoundary,
    FullState,
    MomentumValue,
    NotPositiveDefinite,
    ReducedState,
    SymmetricSystem,
    complete_state,
    constant_matrix_system,
    lagrangian_full,
    mass_matrix_blocks,
    momentum_map,
    reduced_energy,
    reduced_mass_matrix,
    routhian,
    solve_cyclic,
    symplectic_det_pair,
)
from routhkit.integrate import full_rhs
from routhkit.reduction import _checked_metric, evaluate_metric

from conftest import kinetic_oracle, reduced_field


def identity_system(n, k, l):
    d = n + k + l
    return constant_matrix_system(n, k, l, np.eye(d))


def random_state(rng, sys):
    return ReducedState(q=rng.normal(size=sys.n), qdot=rng.normal(size=sys.n))


# ---------------------------------------------------------------------------
# mass_matrix_blocks


def test_blocks_identity_metric():
    sys = identity_system(2, 1, 1)
    Kqq, Kqc, D = mass_matrix_blocks(sys, np.zeros(2))
    assert np.array_equal(Kqq, np.eye(2))
    assert np.array_equal(Kqc, np.zeros((2, 2)))
    assert np.array_equal(D, np.eye(2))


def test_blocks_rigid_body_precession_entry(triaxial_system):
    # hand evaluation: (A sin^2 phi + B cos^2 phi) sin^2 theta + C cos^2 theta
    # at (phi, theta) = (0, pi/2) with (A, B, C) = (1, 2, 3) gives B = 2
    _, _, D = mass_matrix_blocks(triaxial_system, np.array([0.0, np.pi / 2]))
    assert D.shape == (1, 1)
    assert abs(D[0, 0] - 2.0) < 1e-14


def test_blocks_rejects_indefinite_matrix():
    sys = constant_matrix_system(1, 1, 0, np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        mass_matrix_blocks(sys, np.zeros(1))


def test_blocks_rejects_asymmetric_matrix():
    sys = constant_matrix_system(1, 1, 0, [[2.0, 0.3], [0.1, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        mass_matrix_blocks(sys, np.zeros(1))


@pytest.mark.parametrize("matrix", [5.0, np.eye(3)], ids=["scalar", "3x3-for-2"])
def test_constant_matrix_wrong_shape_is_a_value_error(matrix):
    # a library builder: the CLI's ConfigError belongs to parse_config
    with pytest.raises(ValueError, match="2x2"):
        constant_matrix_system(1, 1, 0, matrix)


def test_blocks_pole_guard(triaxial_system):
    with pytest.raises(ChartBoundary):
        mass_matrix_blocks(triaxial_system, np.array([0.0, 1e-7]))


# ---------------------------------------------------------------------------
# momentum_map


def test_momentum_zero_velocity():
    sys = identity_system(1, 1, 1)
    s = FullState(q=[0.3], x=[0.1], psi=[0.2], qdot=[0.0], xdot=[0.0], psidot=[0.0])
    f = momentum_map(sys, s)
    assert np.array_equal(f.xi, [0.0])
    assert np.array_equal(f.eta, [0.0])


def test_momentum_diagonal_metric():
    sys = constant_matrix_system(1, 1, 0, np.diag([2.0, 3.0]))
    s = FullState(q=[0.0], x=[0.0], psi=[], qdot=[1.0], xdot=[2.0], psidot=[])
    assert momentum_map(sys, s).xi[0] == pytest.approx(6.0, abs=1e-15)


def test_momentum_linearity(rng):
    # J is linear in the velocity: scaling the velocity scales the covector
    base = rng.normal(size=(4, 4))
    sys = constant_matrix_system(2, 1, 1, base @ base.T + 4 * np.eye(4))
    for _ in range(20):
        q = rng.normal(size=2)
        vel = rng.normal(size=4)
        c = float(rng.uniform(-3.0, 3.0))
        s1 = FullState(q=q, x=[0.0], psi=[0.0], qdot=vel[:2], xdot=vel[2:3], psidot=vel[3:])
        s2 = FullState(q=q, x=[0.0], psi=[0.0], qdot=c * vel[:2], xdot=c * vel[2:3],
                       psidot=c * vel[3:])
        a = momentum_map(sys, s1).as_vector()
        b = momentum_map(sys, s2).as_vector()
        ref = max(1.0, float(np.max(np.abs(b))))
        assert np.max(np.abs(b - c * a)) / ref < 1e-12


def test_momentum_round_trip(rng):
    base = rng.normal(size=(5, 5))
    sys = constant_matrix_system(2, 2, 1, base @ base.T + 5 * np.eye(5))
    for _ in range(20):
        f = MomentumValue(xi=rng.normal(size=2), eta=rng.normal(size=1))
        r = random_state(rng, sys)
        back = momentum_map(sys, complete_state(sys, f, r)).as_vector()
        ref = max(1.0, float(np.max(np.abs(f.as_vector()))))
        assert np.max(np.abs(back - f.as_vector())) / ref < 1e-12


# ---------------------------------------------------------------------------
# solve_cyclic


def test_solve_cyclic_identity_metric():
    sys = identity_system(1, 1, 1)
    w = solve_cyclic(sys, [0.0], [0.7], MomentumValue(xi=[0.4], eta=[-1.1]))
    assert np.array_equal(w, [0.4, -1.1])  # line-type rates first


def test_solve_cyclic_coupled_two_by_two():
    # D w = xi - Kcq qdot: w = (4 - 1) / 3 = 1
    sys = constant_matrix_system(1, 1, 0, [[2.0, 1.0], [1.0, 3.0]])
    w = solve_cyclic(sys, [0.0], [1.0], MomentumValue(xi=[4.0], eta=[]))
    assert w[0] == pytest.approx(1.0, abs=1e-15)


def test_solve_cyclic_symmetric_body_precession(rng):
    # at A = B the zero-momentum precession rate reduces to
    # -C phidot cos(theta) / (A sin^2 theta + C cos^2 theta)
    from routhkit import RigidBodyParams, rb_system
    p = RigidBodyParams(2.0, 2.0, 1.5)
    sys = rb_system(p)
    f0 = MomentumValue.zero(0, 1)
    for _ in range(20):
        phi = rng.uniform(-np.pi, np.pi)
        theta = rng.uniform(0.3, np.pi - 0.3)
        phidot, thetadot = rng.normal(size=2)
        w = solve_cyclic(sys, [phi, theta], [phidot, thetadot], f0)
        expected = -p.C * phidot * np.cos(theta) / (
            p.A * np.sin(theta) ** 2 + p.C * np.cos(theta) ** 2)
        assert w[0] == pytest.approx(expected, abs=1e-13)


def test_solve_cyclic_dimension_mismatch(central_force):
    with pytest.raises(ValueError):
        solve_cyclic(central_force, [1.0], [0.0], MomentumValue(xi=[1.0], eta=[]))


# ---------------------------------------------------------------------------
# lagrangian_full


def test_lagrangian_zero_velocity_is_minus_potential():
    sys = constant_matrix_system(1, 0, 1, np.eye(2), potential=lambda q: 2.5)
    s = FullState(q=[0.4], x=[], psi=[0.1], qdot=[0.0], xdot=[], psidot=[0.0])
    assert lagrangian_full(sys, s) == pytest.approx(-2.5, abs=1e-15)


def test_lagrangian_identity_metric_unit_velocities():
    sys = identity_system(2, 1, 1)
    s = FullState(q=[0.0, 0.0], x=[0.0], psi=[0.0],
                  qdot=[1.0, 1.0], xdot=[1.0], psidot=[1.0])
    assert lagrangian_full(sys, s) == pytest.approx(2.0, abs=1e-15)


def test_lagrangian_matches_body_rate_oracle(triaxial_params, triaxial_system, rng):
    for _ in range(25):
        phi = rng.uniform(-np.pi, np.pi)
        theta = rng.uniform(0.3, np.pi - 0.3)
        phidot, thetadot, psidot = rng.normal(size=3)
        s = FullState(q=[phi, theta], x=[], psi=[rng.uniform(0, 6)],
                      qdot=[phidot, thetadot], xdot=[], psidot=[psidot])
        oracle = kinetic_oracle(triaxial_params, phi, theta, phidot, thetadot, psidot)
        assert lagrangian_full(triaxial_system, s) == pytest.approx(oracle, rel=1e-13)


# ---------------------------------------------------------------------------
# routhian and reduced_energy


def test_routhian_zero_momentum_equals_lagrangian(rng):
    for trial in range(20):
        base = rng.normal(size=(4, 4))
        sys = constant_matrix_system(2, 1, 1, base @ base.T + 4 * np.eye(4),
                                     potential=lambda q: float(np.sum(q ** 2)))
        f0 = MomentumValue.zero(1, 1)
        r = random_state(rng, sys)
        a = routhian(sys, f0, r)
        b = lagrangian_full(sys, complete_state(sys, f0, r))
        assert a == b  # exact: the momentum pairing vanishes identically


def test_routhian_central_force_value(central_force):
    # 0.5 rdot^2 - eta^2 / (2 r^2) = 0.125 - 0.125 = 0
    f = MomentumValue(xi=[], eta=[1.0])
    r = ReducedState(q=[2.0], qdot=[0.5])
    assert routhian(central_force, f, r) == pytest.approx(0.0, abs=1e-15)


def test_routhian_identity_metric_formula(rng):
    sys = identity_system(2, 2, 0)
    for _ in range(10):
        f = MomentumValue(xi=rng.normal(size=2), eta=[])
        r = random_state(rng, sys)
        expected = 0.5 * float(r.qdot @ r.qdot) - 0.5 * float(f.xi @ f.xi)
        assert routhian(sys, f, r) == pytest.approx(expected, abs=1e-14)


def test_reduced_energy_zero_velocity_zero_momentum():
    sys = constant_matrix_system(1, 0, 1, np.eye(2), potential=lambda q: 1.75)
    e = reduced_energy(sys, MomentumValue.zero(0, 1), ReducedState(q=[0.2], qdot=[0.0]))
    assert e == pytest.approx(1.75, abs=1e-15)


def test_reduced_energy_central_force_value(central_force):
    # 0.5 rdot^2 + 0.5 r^2 (eta / r^2)^2 = 0.125 + 0.125
    f = MomentumValue(xi=[], eta=[1.0])
    r = ReducedState(q=[2.0], qdot=[0.5])
    assert reduced_energy(central_force, f, r) == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# reduced_mass_matrix


def test_reduced_mass_block_diagonal_returns_shape_block():
    sys = constant_matrix_system(2, 1, 0, np.diag([2.0, 3.0, 4.0]))
    assert np.array_equal(reduced_mass_matrix(sys, np.zeros(2)), np.diag([2.0, 3.0]))


def test_reduced_mass_hand_schur():
    sys = constant_matrix_system(1, 1, 0, [[2.0, 1.0], [1.0, 3.0]])
    M = reduced_mass_matrix(sys, np.zeros(1))
    assert M[0, 0] == pytest.approx(2.0 - 1.0 / 3.0, abs=1e-15)


def test_reduced_mass_is_velocity_hessian(triaxial_system, zero_momentum, rng):
    # oracle: central second differences of the Routhian in the velocity;
    # the Routhian is exactly quadratic there, so a large step is exact
    sys = triaxial_system
    h = 1e-3
    for _ in range(5):
        q = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(0.4, np.pi - 0.4)])
        qdot = rng.normal(size=2)
        M = reduced_mass_matrix(sys, q)
        hess = np.empty((2, 2))
        for a in range(2):
            for b in range(2):
                pp = qdot.copy(); pp[a] += h; pp[b] += h
                pm = qdot.copy(); pm[a] += h; pm[b] -= h
                mp = qdot.copy(); mp[a] -= h; mp[b] += h
                mm = qdot.copy(); mm[a] -= h; mm[b] -= h
                vals = [routhian(sys, zero_momentum, ReducedState(q=q, qdot=v))
                        for v in (pp, pm, mp, mm)]
                hess[a, b] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
        assert np.max(np.abs(hess - M)) / np.max(np.abs(M)) < 1e-6
        assert np.all(np.linalg.eigvalsh(M) > 0)


# ---------------------------------------------------------------------------
# the reduced vector field


def test_reduced_rhs_free_particle(rng):
    sys = identity_system(2, 1, 0)
    f = MomentumValue(xi=rng.normal(size=1), eta=[])
    r = random_state(rng, sys)
    qdot, qddot = reduced_field(sys, f, r)
    assert np.array_equal(qdot, r.qdot)
    assert np.max(np.abs(qddot)) < 1e-9


def test_reduced_rhs_centrifugal_term(central_force):
    # effective potential eta^2 / (2 r^2) gives rddot = eta^2 / r^3 = 1
    f = MomentumValue(xi=[], eta=[1.0])
    _, qddot = reduced_field(central_force, f, ReducedState(q=[1.0], qdot=[0.0]))
    assert qddot[0] == pytest.approx(1.0, rel=1e-8)


def test_reduced_rhs_second_order_property(triaxial_system, zero_momentum, rng):
    for _ in range(5):
        r = ReducedState(q=[rng.uniform(-1, 1), rng.uniform(0.5, 2.5)],
                         qdot=rng.normal(size=2))
        qdot, _ = reduced_field(triaxial_system, zero_momentum, r)
        assert np.array_equal(qdot, r.qdot)  # bit-exact


def test_reduced_rhs_matches_projected_full_curvature(triaxial_system, zero_momentum,
                                                      generic_state):
    # oracle: second time differences of the projected full trajectory
    from routhkit import IntegratorConfig, complete_state, integrate_full
    dt = 1e-3
    s0 = complete_state(triaxial_system, zero_momentum, generic_state, psi=[0.0])
    traj = integrate_full(triaxial_system, s0, 0.0, 2 * dt, IntegratorConfig(dt=dt))
    q = traj.states[:, :2]
    accel_fd = (q[2] - 2 * q[1] + q[0]) / dt ** 2
    # the finite difference approximates the acceleration at the middle sample
    r_mid = ReducedState(q=traj.states[1, :2], qdot=traj.states[1, 3:5])
    _, qddot = reduced_field(triaxial_system, zero_momentum, r_mid)
    assert np.max(np.abs(qddot - accel_fd)) < 1e-5


# ---------------------------------------------------------------------------
# symplectic determinant identity


def test_symplectic_pair_identity_metric():
    sys = identity_system(2, 1, 1)
    lhs, rhs = symplectic_det_pair(sys, MomentumValue.zero(1, 1),
                                   ReducedState(q=np.zeros(2), qdot=np.ones(2)))
    assert rhs == pytest.approx(1.0, abs=1e-15)
    assert lhs == pytest.approx(1.0, rel=1e-9)


def test_symplectic_pair_random_constant_metric(rng):
    for _ in range(10):
        base = rng.normal(size=(3, 3))
        sys = constant_matrix_system(1, 2, 0, base @ base.T + 3 * np.eye(3))
        f = MomentumValue(xi=rng.normal(size=2), eta=[])
        lhs, rhs = symplectic_det_pair(sys, f, random_state(rng, sys))
        assert abs(lhs - rhs) / abs(rhs) < 1e-5


def test_symplectic_pair_rigid_body(triaxial_system, zero_momentum, rng):
    for _ in range(5):
        r = ReducedState(q=[0.7, 1.1], qdot=rng.normal(size=2))
        lhs, rhs = symplectic_det_pair(triaxial_system, zero_momentum, r)
        assert abs(lhs - rhs) / abs(rhs) < 1e-5


# ---------------------------------------------------------------------------
# no cyclic coordinates: Routh reduction is the Euler-Lagrange system


def uncoupled_system(rng, n):
    """q-dependent metric and potential with k = l = 0."""
    base = rng.normal(size=(n, n))
    K0 = base @ base.T + n * np.eye(n)
    amp = 0.1 * float(np.min(np.linalg.eigvalsh(K0)))
    seed_mat = rng.normal(size=(n, n))
    S = 0.5 * (seed_mat + seed_mat.T)
    freq = rng.uniform(0.5, 1.5, size=n)
    coeffs = rng.normal(size=n)
    return SymmetricSystem(n=n, k=0, l=0,
                           mass_matrix=lambda q: K0 + amp * float(np.sin(freq @ q)) * S,
                           potential=lambda q: float(coeffs @ np.cos(q)))


@pytest.mark.parametrize("n, float_path", [(2, True), (4, False)],
                         ids=["d2-float-factor", "d4-numpy-solve"])
def test_empty_cyclic_block_is_the_euler_lagrange_system(rng, n, float_path):
    sys = uncoupled_system(rng, n)
    f = MomentumValue.zero(0, 0)
    for _ in range(3):
        r = random_state(rng, sys)
        assert (_checked_metric(sys, r.q)[1] is not None) == float_path
        # Schur complement of an empty block and det D of a 0 x 0 block
        assert np.array_equal(reduced_mass_matrix(sys, r.q), evaluate_metric(sys, r.q))
        lhs, rhs = symplectic_det_pair(sys, f, r)
        assert abs(lhs - rhs) / abs(rhs) < 1e-5
        w = solve_cyclic(sys, r.q, r.qdot, f)
        assert w.shape == (0,)
        # the reduced field is the full one: same rows, same bits
        qdot, qddot = reduced_field(sys, f, r)
        full = np.array(full_rhs(sys)(np.concatenate([r.q, r.qdot])))
        assert np.array_equal(qdot, full[:n])
        assert np.array_equal(qddot, full[n:])
        assert np.any(qddot != 0.0)


# ---------------------------------------------------------------------------
# error propagation


def test_chart_boundary_propagates_through_operations(triaxial_system, zero_momentum):
    r = ReducedState(q=[0.0, 5e-7], qdot=[0.1, 0.1])
    for op in (lambda: routhian(triaxial_system, zero_momentum, r),
               lambda: reduced_energy(triaxial_system, zero_momentum, r),
               lambda: reduced_field(triaxial_system, zero_momentum, r),
               lambda: reduced_mass_matrix(triaxial_system, r.q)):
        with pytest.raises(ChartBoundary):
            op()


def test_metric_validation_on_interior_state(triaxial_system):
    K = evaluate_metric(triaxial_system, np.array([0.3, 1.2]))
    assert np.allclose(K, K.T)
    assert np.all(np.linalg.eigvalsh(K) > 0)


# ---------------------------------------------------------------------------
# state and momentum value invariants


def test_full_state_normalizes_angles():
    s = FullState(q=[0.1], x=[], psi=[7.0, -1.0], qdot=[0.0], xdot=[],
                  psidot=[0.0, 0.0])
    assert np.all(s.psi >= 0.0)
    assert np.all(s.psi < 2 * np.pi)
    assert s.psi[0] == pytest.approx(7.0 - 2 * np.pi, abs=1e-15)


def test_momentum_value_rejects_non_finite():
    with pytest.raises(ValueError):
        MomentumValue(xi=[np.inf], eta=[])


def test_reduced_state_requires_matching_shapes():
    with pytest.raises(ValueError):
        ReducedState(q=[1.0, 2.0], qdot=[1.0])
