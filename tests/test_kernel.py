"""The Euler-Lagrange kernel shared by the reduced and full right-hand sides."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from routhkit import (
    ConformalData,
    MomentumValue,
    ReducedState,
    RigidBodyParams,
    central_force_system,
    complete_state,
    constant_matrix_system,
    harmonic_radial_potential,
    heavy_potential,
    rb_system,
    reduced_rhs,
    reduced_vector_field,
)
from routhkit.integrate import full_rhs
from routhkit.reduction import gradient, metric_grad
from routhkit.verify import random_system


def chart_states(rng, sys, count):
    """Interior chart positions of the shipped systems."""
    for _ in range(count):
        if sys.name == "rigid-body":
            yield np.array([rng.uniform(-np.pi, np.pi), rng.uniform(0.3, np.pi - 0.3)])
        elif sys.name == "central-force":
            yield np.array([rng.uniform(0.2, 3.0)])
        else:
            yield rng.normal(size=sys.n)


@pytest.mark.parametrize("make", [
    lambda: rb_system(RigidBodyParams(1.0, 2.0, 3.0)),
    lambda: rb_system(RigidBodyParams(1.0, 1.5, 2.0, potential=heavy_potential(0.8))),
    lambda: central_force_system(harmonic_radial_potential(1.0)),
    lambda: constant_matrix_system(2, 1, 1, np.diag([1.0, 2.0, 3.0, 4.0])),
], ids=["rigid-body", "heavy-body", "central-force", "constant-matrix"])
def test_closed_form_metric_grad_matches_central_differences(make, rng):
    sys = make()
    assert sys.mass_matrix_grad is not None
    for q in chart_states(rng, sys, 25):
        closed = metric_grad(sys, q)
        numeric = gradient(sys.mass_matrix, q)
        assert closed.shape == (sys.n, sys.dim, sys.dim)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert np.max(np.abs(closed - numeric)) <= 1e-8 * scale


def test_central_force_reduced_accel_closed_form(rng):
    k = 1.7
    sys = central_force_system(harmonic_radial_potential(k))
    for _ in range(20):
        r = rng.uniform(0.3, 3.0)
        eta = rng.normal()
        f = MomentumValue(xi=[], eta=[eta])
        _, qddot = reduced_rhs(sys, f, ReducedState(q=[r], qdot=[rng.normal()]))
        expected = eta ** 2 / r ** 3 - k * r
        assert qddot[0] == pytest.approx(expected, rel=1e-8, abs=1e-8)


def _routhian_accel_oracle(params, c, q, qdot):
    """Routhian Euler-Lagrange acceleration at 50 digits.

    The kinetic matrix is J^T diag(A, B, C) J from the body-rate Jacobian
    J, independently of the chart formulas in ``rb_system``.
    """
    A, B, C = (mpmath.mpf(m) for m in (params.A, params.B, params.C))
    c = mpmath.mpf(c)

    def routhian(phi, theta, phidot, thetadot):
        sp, cp = mpmath.sin(phi), mpmath.cos(phi)
        st, ct = mpmath.sin(theta), mpmath.cos(theta)
        J = mpmath.matrix([[0, cp, st * sp], [0, -sp, st * cp], [1, 0, ct]])
        K = J.T * mpmath.diag([A, B, C]) * J
        w = (c - K[2, 0] * phidot - K[2, 1] * thetadot) / K[2, 2]
        v = mpmath.matrix([phidot, thetadot, w])
        return (v.T * K * v)[0] / 2 - c * w

    x = [mpmath.mpf(float(val)) for val in (*q, *qdot)]

    def partial(*orders):
        return mpmath.diff(routhian, x, orders)

    # d/dt dR/dqdot = dR/dq:  M qddot = dR/dq - (d2R / dqdot dq) qdot
    M = mpmath.matrix([[partial(0, 0, 2, 0), partial(0, 0, 1, 1)],
                       [partial(0, 0, 1, 1), partial(0, 0, 0, 2)]])
    mixed = mpmath.matrix([[partial(1, 0, 1, 0), partial(0, 1, 1, 0)],
                           [partial(1, 0, 0, 1), partial(0, 1, 0, 1)]])
    force = mpmath.matrix([partial(1, 0, 0, 0), partial(0, 1, 0, 0)])
    rhs = force - mixed * mpmath.matrix([x[2], x[3]])
    return np.array([float(val) for val in mpmath.lu_solve(M, rhs)])


@pytest.mark.parametrize("eta", [0.0, 0.9])
def test_reduced_accel_matches_mpmath_routhian_oracle(triaxial_params, triaxial_system,
                                                      eta, rng):
    f = MomentumValue(xi=[], eta=[eta])
    with mpmath.workdps(50):
        for q in chart_states(rng, triaxial_system, 4):
            qdot = rng.normal(size=2)
            _, qddot = reduced_rhs(triaxial_system, f, ReducedState(q=q, qdot=qdot))
            oracle = _routhian_accel_oracle(triaxial_params, eta, q, qdot)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(qddot - oracle)) <= 1e-10 * scale


def _count_metric(sys):
    calls = []

    def mass(q):
        calls.append(1)
        return sys.mass_matrix(q)

    return replace(sys, mass_matrix=mass), calls


def test_closed_form_rhs_evaluates_the_metric_once(triaxial_system, zero_momentum,
                                                   generic_state):
    counted, calls = _count_metric(triaxial_system)
    reduced_vector_field(counted, zero_momentum)(generic_state.to_vector())
    assert len(calls) == 1
    s0 = complete_state(triaxial_system, zero_momentum, generic_state)
    full_rhs(counted)(s0.to_vector())
    assert len(calls) == 2


def test_random_system_exercises_the_finite_difference_fallback(rng):
    sys = random_system(rng, n=3, k=1, l=2, constant=False)
    assert sys.mass_matrix_grad is None
    counted, calls = _count_metric(sys)
    f = MomentumValue(xi=rng.normal(size=1), eta=rng.normal(size=2))
    y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
    reduced_vector_field(counted, f)(y)
    assert len(calls) == 1 + 2 * sys.n


def test_conformal_grad_bit_identical_to_the_former_loop(rng):
    coeffs = rng.normal(size=3)

    def potential(u):
        return float(coeffs @ np.sin(u) + 0.3 * u[0] * u[1] * u[2])

    cd = ConformalData(h=1.0, potential=potential)
    for _ in range(20):
        u = rng.normal(size=3) * rng.choice([0.1, 1.0, 10.0])
        former = np.empty(3)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(u[j]))
            up = u.copy()
            um = u.copy()
            up[j] += h
            um[j] -= h
            former[j] = (float(potential(up)) - float(potential(um))) / (2.0 * h)
        assert np.array_equal(cd.grad(u), former)
