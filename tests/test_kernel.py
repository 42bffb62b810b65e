"""The Euler-Lagrange kernel shared by the reduced and full right-hand sides."""

import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routhkit import (
    ChartBoundary,
    ConformalData,
    MomentumValue,
    NotPositiveDefinite,
    ReducedState,
    RigidBodyParams,
    SymmetricSystem,
    central_force_system,
    complete_state,
    constant_matrix_system,
    harmonic_radial_potential,
    heavy_potential,
    rb_system,
    reduced_energy,
    reduced_vector_field,
    routhian,
    shape_momentum,
    solve_cyclic,
    symplectic_det_pair,
)
from routhkit import reduction
from routhkit.integrate import full_rhs
from routhkit.reduction import evaluate_metric, gradient, metric_grad, potential_grad
from routhkit.verify import random_system

from conftest import reduced_field


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
        numeric = gradient(lambda p: evaluate_metric(sys, p), q)
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
        _, qddot = reduced_field(sys, f, ReducedState(q=[r], qdot=[rng.normal()]))
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
            _, qddot = reduced_field(triaxial_system, f, ReducedState(q=q, qdot=qdot))
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


def test_rhs_guards_the_chart_once(triaxial_system, zero_momentum, generic_state):
    calls = []

    def guard(q):
        calls.append(1)
        return triaxial_system.pole_guard(q)

    counted = replace(triaxial_system, pole_guard=guard)
    reduced_vector_field(counted, zero_momentum)(generic_state.to_vector())
    assert len(calls) == 1
    s0 = complete_state(triaxial_system, zero_momentum, generic_state)
    full_rhs(counted)(s0.to_vector())
    assert len(calls) == 2
    with pytest.raises(ChartBoundary):
        metric_grad(triaxial_system, np.array([0.2, 5e-7]))


@pytest.mark.parametrize("field, expected, value", [
    pytest.param("mass_matrix", r"\(2,2\), got \(3, 3\)", np.eye(3),
                 id=r"mass_matrix-\(2,2\), got \(3, 3\)"),
    pytest.param("mass_matrix_grad", r"\(1,2,2\), got \(3, 3\)", np.eye(3),
                 id=r"mass_matrix_grad-\(1,2,2\), got \(3, 3\)"),
    pytest.param("mass_matrix", r"must have 3 entries, got 4", (1.0, 0.0, 1.0, 0.0),
                 id="packed-metric"),
    pytest.param("mass_matrix_grad", r"derivative must have 3 entries, got 2", ((0.0, 0.0),),
                 id="packed-derivative"),
    pytest.param("mass_matrix_grad", r"must have 1 triangles, got 2", ((0.0, 0.0, 0.0),) * 2,
                 id="packed-derivative-count"),
])
def test_wrong_shape_metric_is_a_value_error(field, expected, value):
    sys = SymmetricSystem(n=1, k=0, l=1, mass_matrix=lambda q: np.eye(2),
                          potential=lambda q: 0.0,
                          mass_matrix_grad=lambda q: np.zeros((1, 2, 2)))
    sys = replace(sys, **{field: lambda q: value})
    with pytest.raises(ValueError, match=expected):
        full_rhs(sys)(np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("evaluate, expected", [
    (routhian, 1),
    (reduced_energy, 1),
    (lambda sys, f, r: shape_momentum(sys, f, r.q, r.qdot), 1),
    (symplectic_det_pair, 4 * 2 + 1),   # 4n finite-difference probes + the determinant side
], ids=["routhian", "reduced-energy", "shape-momentum", "symplectic-det-pair"])
def test_completed_state_evaluates_the_metric_once(triaxial_system, zero_momentum,
                                                   generic_state, evaluate, expected):
    counted, calls = _count_metric(triaxial_system)
    evaluate(counted, zero_momentum, generic_state)
    assert len(calls) == expected


def test_random_system_exercises_the_finite_difference_fallback(rng):
    sys = random_system(rng, n=3, k=1, l=2, constant=False)
    assert sys.mass_matrix_grad is None
    counted, calls = _count_metric(sys)
    f = MomentumValue(xi=rng.normal(size=1), eta=rng.normal(size=2))
    y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
    reduced_vector_field(counted, f)(y)
    assert len(calls) == 1 + 2 * sys.n


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "varying"])
def test_random_system_keeps_explicit_empty_cyclic_block(rng, constant):
    sys = random_system(rng, n=2, k=0, l=0, constant=constant)
    assert (sys.n, sys.k, sys.l) == (2, 0, 0)
    assert evaluate_metric(sys, rng.normal(size=2)).shape == (2, 2)


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


@pytest.mark.parametrize("potential", [None, heavy_potential(0.8)], ids=["free", "heavy"])
def test_closed_form_potential_grad_matches_central_differences(potential, rng):
    sys = rb_system(RigidBodyParams(1.0, 2.0, 3.0, potential=potential))
    assert sys.potential_grad is not None
    for q in chart_states(rng, sys, 25):
        closed = potential_grad(sys, q)
        numeric = gradient(sys.potential, q)
        assert closed.shape == (2,)
        if potential is None:
            assert np.array_equal(closed, numeric)   # the central difference of 0
        else:
            assert np.max(np.abs(closed - numeric)) <= 1e-8


def test_potential_grad_shape_is_checked(triaxial_system, zero_momentum, generic_state):
    bad = replace(triaxial_system, potential_grad=lambda q: np.zeros(1))
    with pytest.raises(ValueError, match="potential gradient"):
        reduced_vector_field(bad, zero_momentum)(generic_state.to_vector())


def test_potential_without_closed_gradient_is_differenced():
    sys = rb_system(RigidBodyParams(1.0, 2.0, 3.0, potential=lambda phi, theta: theta ** 2))
    assert sys.potential_grad is None
    q = np.array([0.4, 1.2])
    assert np.array_equal(potential_grad(sys, q), gradient(sys.potential, q))


# ---------------------------------------------------------------------------
# float path (d <= 3) against the numpy path written out


def _numpy_accel(sys, q, v):
    """Full acceleration on numpy, with the size of every summed term."""
    n = sys.n
    K = evaluate_metric(sys, q)
    T = metric_grad(sys, q) @ v
    g = potential_grad(sys, q)
    force = -(v[:n] @ T)
    force[:n] += 0.5 * (T @ v) - g
    terms = np.abs(v[:n]) @ np.abs(T)
    terms[:n] += 0.5 * (np.abs(T) @ np.abs(v)) + np.abs(g)
    return np.linalg.solve(K, force), np.abs(np.linalg.inv(K)) @ terms


def _numpy_cyclic(sys, q, qdot, c):
    n = sys.n
    K = evaluate_metric(sys, q)
    return np.linalg.solve(K[n:, n:], c - K[n:, :n] @ qdot)


_BODIES = [(1.0, 2.0, 3.0), (1.0, 1.5, 2.0), (2.0, 2.0, 3.0)]


@st.composite
def small_cases(draw, kinds=("rigid-body", "heavy-body", "random", "constant")):
    """(system, momentum covector, q, qdot, cyclic velocities) with d <= 3."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind in ("rigid-body", "heavy-body"):
        potential = heavy_potential(rng.uniform(-2.0, 2.0)) if kind == "heavy-body" else None
        sys = rb_system(RigidBodyParams(*draw(st.sampled_from(_BODIES)), potential=potential))
    elif kind == "central-force":
        sys = central_force_system(harmonic_radial_potential(rng.uniform(0.1, 2.0)))
    else:
        n, k, l = draw(st.sampled_from([(1, 1, 0), (1, 0, 1), (2, 0, 1), (2, 1, 0),
                                        (1, 2, 0), (1, 1, 1), (1, 0, 2)]))
        sys = random_system(rng, n=n, k=k, l=l, constant=kind == "constant")
    q = next(chart_states(rng, sys, 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    return (sys, rng.normal(size=sys.n_cyclic) * scale, q,
            rng.normal(size=sys.n) * scale, rng.normal(size=sys.n_cyclic) * scale)


@settings(max_examples=200, deadline=None)
@given(case=small_cases())
def test_float_path_matches_numpy_path(case):
    sys, c, q, qdot, w = case
    assert sys.dim <= reduction._FLOAT_MAX_DIM
    f = MomentumValue(xi=c[:sys.k], eta=c[sys.k:])

    # reduced right-hand side at momentum c
    _, qddot = reduced_field(sys, f, ReducedState(q=q, qdot=qdot))
    v = np.concatenate([qdot, _numpy_cyclic(sys, q, qdot, c)])
    expected, size = _numpy_accel(sys, q, v)
    assert np.all(np.abs(qddot - expected[:sys.n]) <= 1e-12 * size[:sys.n])

    # full right-hand side at an arbitrary velocity
    v = np.concatenate([qdot, w])
    y = np.concatenate([q, np.zeros(sys.n_cyclic), v])
    out = full_rhs(sys)(y)
    expected, size = _numpy_accel(sys, q, v)
    assert np.array_equal(out[:sys.dim], v)
    assert np.all(np.abs(out[sys.dim:] - expected) <= 1e-12 * size)


def _full_copy(sys):
    """The same system with its metric and derivatives handed over as full arrays."""
    return replace(sys, mass_matrix=lambda q: evaluate_metric(sys, q),
                   mass_matrix_grad=lambda q: metric_grad(sys, q))


@settings(max_examples=200, deadline=None)
@given(case=small_cases(kinds=("rigid-body", "heavy-body", "central-force")))
def test_packed_metric_matches_full_metric_bit_for_bit(case):
    sys, c, q, qdot, w = case
    full = _full_copy(sys)
    f = MomentumValue(xi=c[:sys.k], eta=c[sys.k:])
    assert isinstance(sys.mass_matrix(q), tuple)
    assert isinstance(full.mass_matrix(q), np.ndarray)
    y = np.concatenate([q, qdot])
    assert reduced_vector_field(sys, f)(y) == reduced_vector_field(full, f)(y)
    y = np.concatenate([q, np.zeros(sys.n_cyclic), qdot, w])
    assert full_rhs(sys)(y) == full_rhs(full)(y)
    assert np.array_equal(solve_cyclic(sys, q, qdot, f), solve_cyclic(full, q, qdot, f))


def _bad_metric(matrix):
    if isinstance(matrix, tuple):       # packed upper triangle of a 2x2 or 3x3 matrix
        n = {3: 1, 6: 2}[len(matrix)]
        return lambda: SymmetricSystem(n=n, k=0, l=1, mass_matrix=lambda q: matrix,
                                       potential=lambda q: 0.0)
    return lambda: constant_matrix_system(len(matrix) - 1, 0, 1, matrix)


@pytest.mark.parametrize("make, q, error", [
    (_bad_metric([[2.0, 0.3], [0.1, 1.0]]), [0.0], NotPositiveDefinite),
    (_bad_metric([[1.0, 0.0], [0.0, -1.0]]), [0.0], NotPositiveDefinite),
    (_bad_metric([[1.0, 2.0], [2.0, 1.0]]), [0.0], NotPositiveDefinite),
    (_bad_metric([[np.nan, 0.0], [0.0, 1.0]]), [0.0], NotPositiveDefinite),
    (_bad_metric([[np.inf, 0.0], [0.0, 1.0]]), [0.0], NotPositiveDefinite),
    (_bad_metric([[1.0, np.nan], [np.nan, 1.0]]), [0.0], NotPositiveDefinite),
    (_bad_metric([[1.0, 0.0, 0.0], [0.0, 1.0, -np.inf], [0.0, -np.inf, 1.0]]), [0.0, 0.0],
     NotPositiveDefinite),
    (lambda: rb_system(RigidBodyParams(1.0, 2.0, 3.0)), [0.2, 5e-7], ChartBoundary),
    (_bad_metric((1.0, np.nan, 1.0)), [0.0], NotPositiveDefinite),
    (_bad_metric((1.0, 0.0, 0.0, 1.0, 0.0, np.inf)), [0.0, 0.0], NotPositiveDefinite),
    (_bad_metric((1.0, 0.0, -1.0)), [0.0], NotPositiveDefinite),
    (_bad_metric((1.0, 2.0, 1.0)), [0.0], NotPositiveDefinite),
    (_bad_metric((1.0, 0.0, 0.0, 1.0, 0.0, 0.0)), [0.0, 0.0], NotPositiveDefinite),
    (_bad_metric((1.0, 0.0, 0.0, 1.0, 2.0, 1.0)), [0.0, 0.0], NotPositiveDefinite),
    (_bad_metric((1.0, 0.0, 2.0, 1.0, 0.0, 1.0)), [0.0, 0.0], NotPositiveDefinite),
], ids=["asymmetric", "indefinite", "indefinite-offdiagonal", "nan-diagonal", "inf-diagonal",
        "nan-offdiagonal", "inf-offdiagonal", "pole-band", "packed-nan", "packed-inf",
        "packed-d2-pivot0", "packed-d2-pivot1", "packed-d3-pivot0", "packed-d3-pivot1",
        "packed-d3-pivot2"])
@pytest.mark.parametrize("path", ["float", "numpy"])
def test_both_paths_raise_the_same_error(make, q, error, path, monkeypatch):
    if path == "numpy":
        monkeypatch.setattr(reduction, "_FLOAT_MAX_DIM", 0)
    sys = make()
    q = np.array(q)
    y = np.concatenate([q, np.zeros(sys.n_cyclic), np.ones(sys.dim)])
    f = MomentumValue(xi=np.ones(sys.k), eta=np.ones(sys.l))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            evaluate_metric(sys, q)
        with pytest.raises(error):
            reduced_vector_field(sys, f)(np.concatenate([q, np.ones(sys.n)]))
        with pytest.raises(error):
            full_rhs(sys)(y)


def test_non_finite_metric_refused_on_the_numpy_path():
    sys = constant_matrix_system(2, 1, 1, np.diag([1.0, 2.0, np.inf, 4.0]))
    assert sys.dim > reduction._FLOAT_MAX_DIM
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefinite):
            evaluate_metric(sys, np.zeros(2))


def test_rigid_body_rhs_makes_no_linalg_calls(triaxial_system, zero_momentum, generic_state,
                                              monkeypatch):
    linalg_calls = []
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            def counted(*args, _fn=fn, **kwargs):
                linalg_calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
    s0 = complete_state(triaxial_system, zero_momentum, generic_state).to_vector()
    linalg_calls.clear()

    counted_sys, calls = _count_metric(triaxial_system)
    reduced_vector_field(counted_sys, zero_momentum)(generic_state.to_vector())
    assert (len(calls), linalg_calls) == (1, [])
    full_rhs(counted_sys)(s0)
    assert (len(calls), linalg_calls) == (2, [])
