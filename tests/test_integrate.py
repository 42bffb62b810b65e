"""Integrators, quadrature, reconstruction, time change, and shooting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routhkit import (
    FullState,
    IntegratorConfig,
    MaxStepsExceeded,
    MomentumMismatch,
    MomentumValue,
    NoConvergence,
    NonPositiveFactor,
    PeriodicOrbit,
    ReducedState,
    StepFailure,
    Trajectory,
    TrajectoryMeta,
    central_force_system,
    complete_state,
    constant_matrix_system,
    cumulative_quadrature,
    harmonic_radial_potential,
    integrate_full,
    integrate_grid,
    integrate_ode,
    integrate_reduced,
    momentum_map,
    propagate,
    reconstruct,
    reparametrize_time,
    shoot_periodic,
)
from routhkit.integrate import _SHOOT_MAX_ITER, _dp_step, _rk4_step

from conftest import float_bits

OSC_CFG = IntegratorConfig(method="rk4", dt=1e-3)
TWO_PI = 2.0 * np.pi


def osc_rhs(y):
    return np.array([y[1], -y[0]])


# ---------------------------------------------------------------------------
# integrate_ode


def test_zero_rhs_constant_trajectory():
    traj = integrate_ode(lambda y: np.zeros(3), [1.0, 2.0, 3.0], 0.0, 1.0,
                         IntegratorConfig(dt=0.1))
    assert np.all(traj.states == traj.states[0])
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-15)


def test_rk4_oscillator_period_return():
    traj = integrate_ode(osc_rhs, [1.0, 0.0], 0.0, TWO_PI, OSC_CFG)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-9


def test_rk4_order_halving_step():
    # fourth order: halving the step shrinks the endpoint error ~16x
    errs = []
    for dt in (0.02, 0.01):
        traj = integrate_ode(osc_rhs, [1.0, 0.0], 0.0, TWO_PI,
                             IntegratorConfig(method="rk4", dt=dt))
        errs.append(np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0]))))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_rk45_oscillator_accuracy():
    cfg = IntegratorConfig(method="rk45", dt=0.1, abs_tol=1e-12, rel_tol=1e-12)
    traj = integrate_ode(osc_rhs, [1.0, 0.0], 0.0, TWO_PI, cfg)
    assert np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0]))) < 1e-9


def test_integrators_are_deterministic():
    for method in ("rk4", "rk45"):
        cfg = IntegratorConfig(method=method, dt=0.02, abs_tol=1e-10, rel_tol=1e-10)
        t1 = integrate_ode(osc_rhs, [1.0, 0.0], 0.0, 5.0, cfg)
        t2 = integrate_ode(osc_rhs, [1.0, 0.0], 0.0, 5.0, cfg)
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.states, t2.states)


def test_max_steps_exceeded():
    # RK4 knows its step count before it evaluates rhs at all
    calls = [0]

    def rhs(y):
        calls[0] += 1
        return osc_rhs(y)

    with pytest.raises(MaxStepsExceeded):
        integrate_ode(rhs, [1.0, 0.0], 0.0, 1.0,
                      IntegratorConfig(dt=1e-4, max_steps=10))
    assert calls[0] == 0


@pytest.mark.parametrize("run", [
    lambda rhs: integrate_ode(rhs, [1.0, 0.0], 0.0, 1e308, IntegratorConfig(dt=1e-3)),
    lambda rhs: integrate_ode(rhs, [1.0, 0.0], 0.0, 1.0, IntegratorConfig(dt=5e-324)),
    lambda rhs: integrate_grid(rhs, [1.0, 0.0], [0.0, 0.5, 1.0], 5e-324),
], ids=["integrate_ode-long-span", "integrate_ode-tiny-dt", "integrate_grid-tiny-dt"])
def test_overflowing_rk4_step_count_refused_before_any_rhs_call(run):
    calls = []

    def rhs(y):
        calls.append(y)
        return osc_rhs(y)

    with pytest.raises(MaxStepsExceeded, match="step count overflows"):
        run(rhs)
    assert calls == []


@pytest.mark.parametrize("rhs, s0, t1, cfg, error, message", [
    (osc_rhs, [1.0, 0.0], 100.0, IntegratorConfig(method="rk45", dt=1e-3, max_steps=3),
     MaxStepsExceeded, "max_steps=3"),
    # y' = y^2 from y = 1 blows up at t = 1
    (lambda y: [y[0] ** 2], [1.0], 2.0, IntegratorConfig(method="rk45"),
     StepFailure, "step size underflow"),
], ids=["step-budget", "step-underflow"])
def test_rk45_raise_paths(rhs, s0, t1, cfg, error, message):
    with pytest.raises(error, match=message):
        integrate_ode(rhs, s0, 0.0, t1, cfg)


@pytest.mark.parametrize("run", [
    lambda rhs: propagate(rhs, [1.0, 0.0], 1.0, 1.0, OSC_CFG),
    lambda rhs: integrate_ode(rhs, [1.0, 0.0], 1.0, 0.5, OSC_CFG),
], ids=["propagate-zero-span", "integrate_ode-backward"])
def test_empty_or_backward_span_refused_before_any_rhs_call(run):
    calls = []

    def rhs(y):
        calls.append(y)
        return osc_rhs(y)

    with pytest.raises(ValueError, match="t1 must exceed t0"):
        run(rhs)
    assert calls == []


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("call", [integrate_ode, propagate])
@pytest.mark.parametrize("t0, t1", [
    (0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (np.nan, 1.0), (-1e308, 1e308),
], ids=["t1-inf", "t0-minus-inf", "t1-nan", "t0-nan", "span-overflows"])
def test_non_finite_span_refused_before_any_rhs_call(t0, t1, call, method):
    calls = []

    def rhs(y):
        calls.append(y)
        return osc_rhs(y)

    with pytest.raises(ValueError, match="must be finite"):
        call(rhs, [1.0, 0.0], t0, t1, IntegratorConfig(method=method, dt=0.01))
    assert calls == []


@pytest.mark.parametrize("grid, dt, message", [
    ([0.0, -1.0], 0.1, "strictly increasing"),
    ([0.0], 0.1, "at least two samples"),
    ([0.0, np.nan], 0.1, "finite"),
    ([0.0, 1.0], -0.1, "dt must be finite and positive"),
    ([0.0, 1.0], np.nan, "dt must be finite and positive"),
    ([0.0, 1.0], np.inf, "dt must be finite and positive"),
], ids=["backward", "one-sample", "nan-time", "negative-dt", "nan-dt", "inf-dt"])
def test_integrate_grid_refuses_bad_grid_or_step(grid, dt, message):
    with pytest.raises(ValueError, match=message):
        integrate_grid(osc_rhs, [1.0, 0.0], grid, dt)


def test_non_finite_derivative_rejected():
    with pytest.raises(StepFailure):
        integrate_ode(lambda y: np.array([np.nan]), [1.0], 0.0, 1.0, OSC_CFG)


def blow_up_rhs(y):
    with np.errstate(over="ignore"):
        return np.array([y[1], 1e200 * y[0] ** 3])


@pytest.mark.parametrize("run", [
    lambda: integrate_ode(blow_up_rhs, [1.0, 0.0], 0.0, 1.0, IntegratorConfig(dt=0.1)),
    lambda: integrate_grid(blow_up_rhs, [1.0, 0.0], [0.0, 0.5, 1.0], 0.1),
], ids=["integrate_ode", "integrate_grid"])
def test_blow_up_raises_step_failure(run):
    with pytest.raises(StepFailure, match="non-finite state"):
        run()


def float_blow_up_rhs(y):
    # Python float powers raise OverflowError where numpy gives inf
    return [y[1], 1e200 * y[0] ** 3]


@pytest.mark.parametrize("run", [
    lambda: integrate_ode(float_blow_up_rhs, [1.0, 0.0], 0.0, 1.0, IntegratorConfig(dt=0.1)),
    lambda: integrate_ode(float_blow_up_rhs, [1.0, 0.0], 0.0, 1.0,
                          IntegratorConfig(method="rk45", dt=0.1)),
    lambda: integrate_grid(float_blow_up_rhs, [1.0, 0.0], [0.0, 0.5, 1.0], 0.1),
    # every stage is finite; y5 overflows to inf by addition, which raises nothing
    lambda: integrate_ode(lambda y: [1.7e308], [0.0], 0.0, 1.0,
                          IntegratorConfig(method="rk45", dt=1.0)),
], ids=["rk4", "rk45", "integrate_grid", "rk45-inf-state"])
def test_float_overflow_raises_step_failure(run):
    with pytest.raises(StepFailure, match="non-finite state"):
        run()


def square_rhs(y):
    return [y[0] ** 2]


@pytest.mark.parametrize("run, message", [
    # RK4 checks the derivative at the start through its first step
    (lambda: integrate_ode(square_rhs, [1e200], 0.0, 1.0, IntegratorConfig(method="rk4")),
     "non-finite state"),
    (lambda: integrate_ode(square_rhs, [1e200], 0.0, 1.0, IntegratorConfig(method="rk45")),
     "non-finite derivative"),
    # the first step is accepted; the derivative at the projected state overflows
    (lambda: integrate_ode(square_rhs, [1.0], 0.0, 1.0, IntegratorConfig(method="rk45"),
                           project=lambda y: [1e200]),
     "non-finite derivative"),
], ids=["rk4-initial", "rk45-initial", "rk45-after-projection"])
def test_overflowing_derivative_raises_step_failure(run, message):
    with pytest.raises(StepFailure, match=message):
        run()


def test_rk45_refuses_a_projected_state_not_finite():
    # the one step is accepted and its projection is the state that would be kept
    with pytest.raises(StepFailure, match="non-finite state"):
        integrate_ode(lambda y: [1.0], [0.0], 0.0, 1e-3, IntegratorConfig(method="rk45"),
                      project=lambda y: [np.nan])


def test_rk45_nan_last_stage_raises_instead_of_retrying():
    # the trial state y5 is finite but the derivative there is NaN, so the
    # error norm is NaN; rejecting the trial would repeat it without end
    y5 = _dp_step(lambda y: [y[0]], [1.0], 1.0, [1.0])[0][0]
    calls = [0]

    def rhs(y):
        calls[0] += 1
        if calls[0] > 10_000:
            raise RuntimeError("rhs call budget spent: the stepper repeats its trial")
        return [np.nan] if y[0] == y5 else [y[0]]

    with pytest.raises(StepFailure, match="non-finite derivative"):
        integrate_ode(rhs, [1.0], 0.0, 1.0, IntegratorConfig(method="rk45", dt=1.0))


def reciprocal_rhs(y):
    # Python float division raises ZeroDivisionError where numpy gives inf
    return [1.0 / y[0]]


@pytest.mark.parametrize("run", [
    lambda: integrate_ode(reciprocal_rhs, [0.0], 0.0, 1.0, IntegratorConfig(method="rk4")),
    lambda: integrate_ode(reciprocal_rhs, [0.0], 0.0, 1.0, IntegratorConfig(method="rk45")),
    lambda: integrate_grid(reciprocal_rhs, [0.0], [0.0, 0.1], 0.01),
], ids=["rk4", "rk45", "integrate_grid"])
def test_zero_division_raises_step_failure(run):
    with pytest.raises(StepFailure, match="non-finite"):
        run()


# the three entries to the steppers, by default on the 2-state [1, 0], over a short span
STEPPERS = [
    lambda rhs, project, s0=(1.0, 0.0): integrate_ode(
        rhs, s0, 0.0, 0.01, IntegratorConfig(method="rk4", dt=1e-3), project),
    lambda rhs, project, s0=(1.0, 0.0): integrate_ode(
        rhs, s0, 0.0, 0.01, IntegratorConfig(method="rk45", dt=1e-3), project),
    lambda rhs, project, s0=(1.0, 0.0): integrate_grid(
        rhs, s0, [0.0, 0.005, 0.01], 1e-3, project),
]
STEPPER_IDS = ["rk4", "rk45", "integrate_grid"]


@pytest.mark.parametrize("n", [1, 3], ids=["short", "long"])
@pytest.mark.parametrize("run", STEPPERS, ids=STEPPER_IDS)
def test_rhs_of_the_wrong_length_raises(run, n):
    # a constant derivative never indexes the state, so nothing else fails first
    with pytest.raises(ValueError, match="rhs must return 2 values"):
        run(lambda y: [0.5] * n, None)


@pytest.mark.parametrize("n", [1, 3], ids=["short", "long"])
@pytest.mark.parametrize("run", STEPPERS, ids=STEPPER_IDS)
def test_project_of_the_wrong_length_raises(run, n):
    with pytest.raises(ValueError, match="project must return 2 values"):
        run(lambda y: [0.5, 0.5], lambda y: [y[0]] * n)


@pytest.mark.parametrize("run", STEPPERS, ids=STEPPER_IDS)
def test_empty_state_raises_before_any_rhs_call(run):
    calls = []
    with pytest.raises(ValueError, match="the state must have at least one component"):
        run(lambda y: calls.append(y) or [], None, [])
    assert calls == []


def test_rk45_span_too_short_to_step_raises_step_failure():
    # 1e-15 lies inside the end slack of the step loop, 1e-14 * max(1, |t1|)
    with pytest.raises(StepFailure, match="step size underflow"):
        integrate_ode(lambda y: [1.0], [0.0], 0.0, 1e-15, IntegratorConfig(method="rk45"))


def test_config_validation():
    # each message begins with the field at fault; the config loader relies on it
    with pytest.raises(ValueError, match="^method "):
        IntegratorConfig(method="euler")
    # an infinite dt crosses any span in one RK4 step, an infinite tolerance
    # accepts every trial step: neither may pass as a setting
    for name in ("dt", "abs_tol", "rel_tol"):
        for bad in (-0.1, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{name} "):
                IntegratorConfig(**{name: bad})
    for bad in (0, np.nan, 2.5, np.inf):
        with pytest.raises(ValueError, match="^max_steps "):
            IntegratorConfig(max_steps=bad)


# ---------------------------------------------------------------------------
# cumulative quadrature


def test_quadrature_exact_for_quadratics():
    t = np.linspace(0.0, 2.0, 21)
    vals = 3.0 * t ** 2 - 2.0 * t + 1.0
    exact = t ** 3 - t ** 2 + t
    out = cumulative_quadrature(t, vals)
    assert np.max(np.abs(out - exact)) < 1e-13


def test_quadrature_nonuniform_grid():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0.0, 1.0, size=41))
    t[0], t[-1] = 0.0, 1.0
    out = cumulative_quadrature(t, np.sin(t))
    assert out[-1] == pytest.approx(1.0 - np.cos(1.0), abs=1e-6)


def test_quadrature_trapezoid_tail():
    # even sample count leaves one unpaired interval
    t = np.array([0.0, 1.0, 2.0, 3.0])
    out = cumulative_quadrature(t, np.array([0.0, 1.0, 2.0, 3.0]))
    assert out[-1] == pytest.approx(4.5, abs=1e-14)


def test_quadrature_columns():
    t = np.linspace(0.0, 1.0, 11)
    vals = np.column_stack([t, t ** 2])
    out = cumulative_quadrature(t, vals)
    assert out[-1, 0] == pytest.approx(0.5, abs=1e-14)
    assert out[-1, 1] == pytest.approx(1.0 / 3.0, abs=1e-13)


def pairwise_quadrature_oracle(t, y):
    """The quadrature rule one interval pair at a time: cumulative integrals
    and, alongside, the running sum of |weight * value| as an error scale."""
    out = np.zeros_like(y)
    scale = np.zeros_like(y)
    i = 0
    while i + 2 <= t.size - 1:
        a = t[i + 1] - t[i]
        b = t[i + 2] - t[i]
        seg = y[i:i + 3]
        for row, X in ((i + 1, a), (i + 2, b)):
            w = np.array([
                (X ** 3 / 3.0 - (a + b) * X ** 2 / 2.0 + a * b * X) / (a * b),
                (X ** 3 / 3.0 - b * X ** 2 / 2.0) / (a * (a - b)),
                (X ** 3 / 3.0 - a * X ** 2 / 2.0) / (b * (b - a)),
            ])
            out[row] = out[i] + np.tensordot(w, seg, axes=(0, 0))
            scale[row] = scale[i] + np.tensordot(np.abs(w), np.abs(seg), axes=(0, 0))
        i += 2
    if i == t.size - 2:
        h = t[i + 1] - t[i]
        out[i + 1] = out[i] + 0.5 * h * (y[i] + y[i + 1])
        scale[i + 1] = scale[i] + 0.5 * h * (np.abs(y[i]) + np.abs(y[i + 1]))
    return out, scale


@st.composite
def quadrature_inputs(draw):
    """A non-uniform grid of 2-64 samples and 1-D or (m, 3) values."""
    m = draw(st.integers(2, 64))
    start = draw(st.floats(-10.0, 10.0))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=m - 1, max_size=m - 1))
    t = start + np.concatenate([[0.0], np.cumsum(steps)])
    shape = draw(st.sampled_from([(m,), (m, 3)]))
    y = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))).reshape(shape)
    return t, y


@settings(max_examples=300, deadline=None)
@given(quadrature_inputs())
def test_quadrature_matches_pairwise_loop(inputs):
    t, y = inputs
    out = cumulative_quadrature(t, y)
    ref, scale = pairwise_quadrature_oracle(t, y)
    assert out.shape == y.shape
    assert np.all(np.abs(out - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("times", [
    [0.0, 0.0, 1.0],
    [0.0, 2.0, 1.0],
    [0.0, np.nan, 1.0],
    [0.0, 1.0, np.inf],
], ids=["repeated", "decreasing", "nan", "inf"])
def test_quadrature_rejects_bad_grid(times):
    with pytest.raises(ValueError):
        cumulative_quadrature(times, np.ones(3))


def test_quadrature_rejects_misaligned_values():
    with pytest.raises(ValueError, match="values must align"):
        cumulative_quadrature([0.0, 1.0, 2.0], np.ones(4))
    with pytest.raises(ValueError, match="values must align"):
        cumulative_quadrature([0.0, 1.0, 2.0], 1.0)


# ---------------------------------------------------------------------------
# integrate_full / integrate_reduced


def test_full_stationary_state():
    sys = constant_matrix_system(1, 0, 1, np.diag([1.0, 2.0]),
                                 potential=lambda q: 4.0)
    s0 = FullState(q=[0.3], x=[], psi=[0.7], qdot=[0.0], xdot=[], psidot=[0.0])
    traj = integrate_full(sys, s0, 0.0, 1.0, IntegratorConfig(dt=0.01))
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-13


def test_full_momentum_first_integral(triaxial_system, zero_momentum, generic_state):
    s0 = complete_state(triaxial_system, zero_momentum, generic_state, psi=[0.5])
    traj = integrate_full(triaxial_system, s0, 0.0, 2.0, OSC_CFG)
    worst = 0.0
    for row in traj.states[::100]:
        st = FullState.from_vector(triaxial_system, row)
        worst = max(worst, abs(momentum_map(triaxial_system, st).eta[0]))
    assert worst < 1e-10


def test_projection_equivalence_short(triaxial_system, zero_momentum, generic_state):
    # reduced trajectory equals the projection of the full one from matched data
    s0 = complete_state(triaxial_system, zero_momentum, generic_state, psi=[0.5])
    full = integrate_full(triaxial_system, s0, 0.0, 2.0, OSC_CFG)
    red = integrate_reduced(triaxial_system, zero_momentum, generic_state, 0.0, 2.0,
                            OSC_CFG)
    proj = full.states[:, [0, 1, 3, 4]]
    assert np.max(np.abs(proj - red.states)) < 1e-8


def test_reduced_constant_when_free():
    sys = constant_matrix_system(1, 1, 0, np.eye(2))
    f = MomentumValue(xi=[0.8], eta=[])
    traj = integrate_reduced(sys, f, ReducedState(q=[0.2], qdot=[0.0]), 0.0, 1.0,
                             IntegratorConfig(dt=0.01))
    assert np.max(np.abs(traj.states[:, 0] - 0.2)) < 1e-14


def test_central_force_circular_orbit():
    # harmonic radial potential: r^3 V'(r) = eta^2 picks r = 1 at eta = 1
    sys = central_force_system(harmonic_radial_potential(1.0))
    f = MomentumValue(xi=[], eta=[1.0])
    traj = integrate_reduced(sys, f, ReducedState(q=[1.0], qdot=[0.0]), 0.0, TWO_PI,
                             OSC_CFG)
    assert np.max(np.abs(traj.states[:, 0] - 1.0)) < 1e-8


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_decoupled_cyclics_constant():
    sys = constant_matrix_system(1, 1, 1, np.diag([1.0, 2.0, 3.0]))
    f0 = MomentumValue.zero(1, 1)
    red = integrate_reduced(sys, f0, ReducedState(q=[0.1], qdot=[0.4]), 0.0, 1.0,
                            IntegratorConfig(dt=0.01))
    full = reconstruct(sys, f0, red, x0=[2.0], psi0=[1.0])
    assert np.max(np.abs(full.states[:, 1] - 2.0)) < 1e-15
    assert np.max(np.abs(full.states[:, 2] - 1.0)) < 1e-15


def test_reconstruct_central_force_angle_oracle():
    # the harmonic central-force orbit is a planar oscillator in disguise;
    # the polar angle has the closed form atan2(y(t), x(t))
    sys = central_force_system(harmonic_radial_potential(1.0))
    eta = 1.0
    r0, rdot0 = 1.3, 0.2
    f = MomentumValue(xi=[], eta=[eta])
    red = integrate_reduced(sys, f, ReducedState(q=[r0], qdot=[rdot0]), 0.0, 5.0,
                            OSC_CFG)
    full = reconstruct(sys, f, red, x0=None, psi0=[0.0])
    t = red.times
    x = r0 * np.cos(t) + rdot0 * np.sin(t)
    y = (eta / r0) * np.sin(t)
    angle_oracle = np.unwrap(np.arctan2(y, x))
    assert np.max(np.abs(full.states[:, 1] - angle_oracle)) < 1e-8
    radius_oracle = np.hypot(x, y)
    assert np.max(np.abs(full.states[:, 0] - radius_oracle)) < 1e-8


def test_reconstruct_rigid_body_matches_full(triaxial_system, zero_momentum,
                                             generic_state):
    red = integrate_reduced(triaxial_system, zero_momentum, generic_state, 0.0, 2.0,
                            OSC_CFG)
    s0 = complete_state(triaxial_system, zero_momentum, generic_state, psi=[0.5])
    full = integrate_full(triaxial_system, s0, 0.0, 2.0, OSC_CFG)
    rec = reconstruct(triaxial_system, zero_momentum, red, x0=None, psi0=[0.5])
    assert np.max(np.abs(rec.states[:, 2] - full.states[:, 2])) < 1e-8


def test_reconstruct_momentum_mismatch(central_force):
    f = MomentumValue(xi=[], eta=[1.0])
    red = integrate_reduced(central_force, f, ReducedState(q=[1.0], qdot=[0.1]),
                            0.0, 0.5, IntegratorConfig(dt=0.01))
    with pytest.raises(MomentumMismatch):
        reconstruct(central_force, MomentumValue(xi=[], eta=[2.0]), red, None, [0.0])


@pytest.mark.parametrize("psi0, message", [
    ([0.5], r"psi0 must have shape \(2,\)"),
    ([np.nan, 0.0], "psi0 must be finite"),
], ids=["one-angle-for-two", "nan-angle"])
def test_reconstruct_checks_start_values(psi0, message):
    sys = constant_matrix_system(1, 0, 2, np.diag([1.0, 2.0, 3.0]))
    f = MomentumValue(xi=[], eta=[0.5, -0.5])
    red = integrate_reduced(sys, f, ReducedState(q=[0.0], qdot=[1.0]), 0.0, 0.1,
                            IntegratorConfig(dt=0.01))
    with pytest.raises(ValueError, match=message):
        reconstruct(sys, f, red, x0=None, psi0=psi0)
    with pytest.raises(ValueError, match=r"x0 must have shape \(0,\)"):
        reconstruct(sys, f, red, x0=[1.0], psi0=None)


def test_reconstruct_refuses_a_trajectory_of_another_system(triaxial_system, zero_momentum,
                                                           generic_state, central_force):
    red = integrate_reduced(triaxial_system, zero_momentum, generic_state, 0.0, 0.1,
                            IntegratorConfig(dt=0.01))
    # a rigid-body trajectory has 4 state columns; the central force needs 2
    with pytest.raises(MomentumMismatch, match="needs 2 columns"):
        reconstruct(central_force, MomentumValue(xi=[], eta=[0.0]), red, None, [0.0])
    # same width and momentum, but the metadata names another system
    f = MomentumValue(xi=[], eta=[1.0])
    red = integrate_reduced(central_force, f, ReducedState(q=[1.0], qdot=[0.1]),
                            0.0, 0.1, IntegratorConfig(dt=0.01))
    other = constant_matrix_system(1, 0, 1, np.diag([1.0, 2.0]))
    with pytest.raises(MomentumMismatch, match="'central-force', not 'custom-matrix'"):
        reconstruct(other, f, red, None, [0.0])


def test_reconstruct_momentum_constant_along_samples(central_force):
    f = MomentumValue(xi=[], eta=[0.7])
    red = integrate_reduced(central_force, f, ReducedState(q=[1.1], qdot=[0.3]),
                            0.0, 1.0, IntegratorConfig(dt=0.01))
    full = reconstruct(central_force, f, red, x0=None, psi0=[0.0])
    for row in full.states[::10]:
        st = FullState(q=row[:1], x=[], psi=[row[1]], qdot=row[2:3], xdot=[],
                       psidot=[row[3]])
        assert abs(momentum_map(central_force, st).eta[0] - 0.7) < 1e-10


def test_reconstruct_derivative_recovers_rates(central_force):
    # differentiating the recovered angle gives back the sampled rates to O(dt^2)
    dt = 0.01
    f = MomentumValue(xi=[], eta=[1.0])
    red = integrate_reduced(central_force, f, ReducedState(q=[1.3], qdot=[0.2]),
                            0.0, 3.0, IntegratorConfig(dt=dt))
    full = reconstruct(central_force, f, red, x0=None, psi0=[0.0])
    angle = full.states[:, 1]
    rates = full.states[:, 3]
    fd = (angle[2:] - angle[:-2]) / (2 * dt)
    assert np.max(np.abs(fd - rates[1:-1])) < 1e-3


# ---------------------------------------------------------------------------
# reparametrize_time


def _simple_traj():
    t = np.linspace(0.0, 2.0, 21)
    states = np.column_stack([np.sin(t), np.cos(t)])
    return Trajectory(times=t, states=states, meta=TrajectoryMeta(system="test"))


def test_reparametrize_unit_factor_identity():
    traj = _simple_traj()
    out = reparametrize_time(traj, np.ones(traj.times.size))
    assert np.max(np.abs(out.times - traj.times)) < 1e-14
    assert np.array_equal(out.states, traj.states)


def test_reparametrize_constant_factor():
    traj = _simple_traj()
    out = reparametrize_time(traj, np.full(traj.times.size, 2.0))
    assert np.max(np.abs(out.times - traj.times / 2.0)) < 1e-14


def test_reparametrize_round_trip():
    traj = _simple_traj()
    once = reparametrize_time(traj, np.full(traj.times.size, 2.0))
    shifted = Trajectory(times=once.times, states=once.states, meta=once.meta)
    back = reparametrize_time(shifted, np.full(traj.times.size, 0.5))
    assert np.max(np.abs(back.times - traj.times)) < 1e-9


def test_reparametrize_rejects_nonpositive_factor():
    with pytest.raises(NonPositiveFactor):
        reparametrize_time(_simple_traj(), np.full(21, -1.0))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_reparametrize_rejects_non_finite_factor(value):
    with pytest.raises(NonPositiveFactor):
        reparametrize_time(_simple_traj(), np.full(21, value))


@pytest.mark.parametrize("values", [np.ones(20), np.ones(22), np.ones((21, 1)), 1.0],
                         ids=["short", "long", "column", "scalar"])
def test_reparametrize_rejects_misaligned_values(values):
    with pytest.raises(ValueError, match="one value per sample"):
        reparametrize_time(_simple_traj(), values)


# ---------------------------------------------------------------------------
# shoot_periodic


def _osc_flow(s, T):
    cfg = IntegratorConfig(method="rk45", dt=0.05, abs_tol=1e-12, rel_tol=1e-12)
    return propagate(osc_rhs, s, 0.0, T, cfg)


def test_shoot_oscillator_from_coarse_guess():
    orbit = shoot_periodic(_osc_flow, [1.0, 0.0], 6.0)
    assert abs(orbit.period - TWO_PI) < 1e-9
    assert orbit.closure_error < 1e-9


def test_shoot_exact_input_returned_unchanged():
    orbit = shoot_periodic(_osc_flow, [1.0, 0.0], TWO_PI)
    assert orbit.iterations == 0
    assert orbit.period == TWO_PI
    assert np.array_equal(orbit.initial_state, [1.0, 0.0])


@pytest.mark.parametrize("period", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
def test_periodic_orbit_rejects_a_period_not_positive(period):
    with pytest.raises(ValueError, match="period must be positive"):
        PeriodicOrbit(initial_state=[1.0, 0.0], period=period, closure_error=0.0)


def test_shoot_no_orbit_raises():
    def drift_flow(s, T):
        return s + T
    with pytest.raises(NoConvergence):
        shoot_periodic(drift_flow, [0.0], 1.0)


def test_shoot_gives_up_after_its_step_budget():
    # every damped step lowers the closure 1e6 exp(-T), but after
    # _SHOOT_MAX_ITER of them it is still near 8.7e-3, far above tol
    with pytest.raises(NoConvergence, match=f"in {_SHOOT_MAX_ITER} iterations"):
        shoot_periodic(lambda s, T: s + 1e6 * np.exp(-T), [0.0], 1.0)


def test_shoot_rebuilds_jacobian_when_broyden_stalls():
    # flow(s, T) = s + g(T) with g piecewise linear: rising steeply through
    # a root at T = 1.4, falling through a second root at T = 1.5 + 0.3/1.4.
    # The first Newton step lands on the falling branch (T = 2) with a
    # smaller gap; the secant slope there still rises, so every damped step
    # along it grows the gap, and only a rebuilt Jacobian reaches the root.
    def g(T):
        return float(np.interp(T, [1.0, 1.1, 1.5, 4.0], [-1.0, -0.9, 0.3, -3.2]))

    def flow(s, T):
        return s + g(T)

    orbit = shoot_periodic(flow, [0.0], 1.0)
    assert orbit.jacobians >= 2
    assert orbit.closure_error <= 1e-8
    assert orbit.period == pytest.approx(1.5 + 0.3 / 1.4, abs=1e-9)
    assert list(orbit.closure_history) == sorted(orbit.closure_history, reverse=True)


def test_shoot_stalls_on_a_fresh_jacobian():
    # the period column of the first Jacobian is ~1e-6, so every damped
    # step drives the period below its floor and none is evaluated
    calls = []

    def flow(s, T):
        calls.append(T)
        return s + 1.0 + (T - 1.0) ** 2

    with pytest.raises(NoConvergence, match="stalled"):
        shoot_periodic(flow, [0.0], 1.0)
    assert len(calls) == 3


def test_periodic_orbit_positional_fields_keep_their_order():
    orbit = PeriodicOrbit([1.0, 0.0], TWO_PI, 0.0, 3)
    assert orbit.iterations == 3
    assert orbit.closure_history == ()
    assert orbit.jacobians == 0


# ---------------------------------------------------------------------------
# trajectory invariants


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], states=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Trajectory(times=[0.0], states=np.zeros((1, 1)))


def test_trajectory_requires_matching_lengths():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0, 2.0], states=np.zeros((2, 1)))


def rk4_array_step(rhs, y, h):
    """The classical RK4 step as numpy array arithmetic."""
    y = np.asarray(y, dtype=float)
    k1 = np.asarray(rhs(y))
    k2 = np.asarray(rhs(y + 0.5 * h * k1))
    k3 = np.asarray(rhs(y + 0.5 * h * k2))
    k4 = np.asarray(rhs(y + h * k3))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@settings(max_examples=300, deadline=None)
@given(y=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
       coeffs=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       h=st.floats(1e-4, 0.5))
def test_rk4_step_bit_equal_to_array_formula(y, coeffs, h):
    a, b, c = coeffs

    def rhs(s):
        # nonlinear and coupling every component to its neighbour
        s = np.asarray(s, dtype=float)
        return (a * np.sin(np.roll(s, 1)) * s + b * s * s - c * np.cos(s) * s.sum()).tolist()

    got = _rk4_step(rhs, list(y), h)
    assert [float(v) for v in got] == rk4_array_step(rhs, y, h).tolist()


# Dormand-Prince 5(4) tableau written out stage by stage.
DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]


def test_dp_step_matches_explicit_tableau_sums():
    from routhkit.integrate import _dp_step
    M = np.array([[0.1, 1.0, -0.3], [-1.0, 0.2, 0.5], [0.4, -0.6, -0.2]])

    def rhs(y):
        return M @ y

    rng = np.random.default_rng(7)
    for _ in range(20):
        y = rng.normal(size=3)
        h = rng.uniform(1e-3, 0.5)
        k = [rhs(y)]
        for row in DP_A[1:]:
            k.append(rhs(y + h * sum(a * kj for a, kj in zip(row, k))))
        y5 = y + h * sum(b * ki for b, ki in zip(DP_B5, k))
        y4 = y + h * sum(b * ki for b, ki in zip(DP_B4, k))
        got_y5, got_err, k_last = _dp_step(rhs, y, h, k[0])
        scale = np.linalg.norm(y) + h * sum((abs(b5) + abs(b4)) * np.linalg.norm(ki)
                                            for b5, b4, ki in zip(DP_B5, DP_B4, k))
        assert np.max(np.abs(got_y5 - y5)) <= 1e-15 * scale
        assert np.max(np.abs(got_err - (y5 - y4))) <= 1e-15 * scale
        # the last stage sits at the rounded stage point; |M| < 2
        assert np.max(np.abs(k_last - k[6])) <= 2e-15 * scale


def zip_rk4_step(rhs, y, h, project=None):
    """The RK4 step as one list comprehension per stage over zipped
    components: the reference for the compiled step, bit for bit."""
    hh = 0.5 * h
    k1 = rhs(y)
    k2 = rhs([a + hh * b for a, b in zip(y, k1)])
    k3 = rhs([a + hh * b for a, b in zip(y, k2)])
    k4 = rhs([a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    y = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
         for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return y if project is None else project(y)


def zip_dp_step(rhs, y, h, k1):
    """The Dormand-Prince 5(4) trial as one list comprehension per stage over
    zipped components: the reference for the compiled step, bit for bit."""
    k2 = rhs([a + h * (1 / 5 * b1) for a, b1 in zip(y, k1)])
    k3 = rhs([a + h * (3 / 40 * b1 + 9 / 40 * b2) for a, b1, b2 in zip(y, k1, k2)])
    k4 = rhs([a + h * (44 / 45 * b1 - 56 / 15 * b2 + 32 / 9 * b3)
              for a, b1, b2, b3 in zip(y, k1, k2, k3)])
    k5 = rhs([a + h * (19372 / 6561 * b1 - 25360 / 2187 * b2 + 64448 / 6561 * b3
                       - 212 / 729 * b4)
              for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
    k6 = rhs([a + h * (9017 / 3168 * b1 - 355 / 33 * b2 + 46732 / 5247 * b3 + 49 / 176 * b4
                       - 5103 / 18656 * b5)
              for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)])
    y5 = [a + h * (35 / 384 * b1 + 500 / 1113 * b3 + 125 / 192 * b4 - 2187 / 6784 * b5
                   + 11 / 84 * b6)
          for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(y5)
    err = [h * ((35 / 384 - 5179 / 57600) * b1 + (500 / 1113 - 7571 / 16695) * b3
                + (125 / 192 - 393 / 640) * b4 + (-2187 / 6784 + 92097 / 339200) * b5
                + (11 / 84 - 187 / 2100) * b6 - 1 / 40 * b7)
           for b1, b3, b4, b5, b6, b7 in zip(k1, k3, k4, k5, k6, k7)]
    return y5, err, k7


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(1, 12), h=st.floats(1e-4, 0.5),
       coeffs=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       as_array=st.booleans(), projected=st.booleans())
def test_compiled_steps_match_component_loops_bit_for_bit(data, d, h, coeffs, as_array,
                                                          projected):
    y = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d), label="y")
    a, b, c = coeffs

    def rhs(s):
        # nonlinear, and coupling every component to its neighbour and the sum
        total = sum(s)
        out = [a * math.sin(s[i - 1]) * s[i] + b * s[i] * s[i] - c * math.cos(s[i]) * total
               for i in range(d)]
        return np.array(out) if as_array else out

    def project(s):
        out = [v / (1.0 + 0.125 * v * v) for v in s]
        return np.array(out) if as_array else out

    project = project if projected else None
    assert float_bits(_rk4_step(rhs, y, h, project)) == \
        float_bits(zip_rk4_step(rhs, y, h, project))
    k1 = rhs(y)
    got, want = _dp_step(rhs, y, h, k1), zip_dp_step(rhs, y, h, k1)
    for got_part, want_part in zip(got, want):
        assert float_bits(got_part) == float_bits(want_part)


def count_dp_trials(monkeypatch):
    """Count the DP45 trial steps that ``integrate_ode`` takes."""
    from routhkit import integrate as integ
    step = integ._dp_step
    trials = [0]

    def counted(*args):
        trials[0] += 1
        return step(*args)

    monkeypatch.setattr(integ, "_dp_step", counted)
    return trials


@pytest.mark.parametrize("dt, tol, t1, accepted, trials", [
    (0.1, 1e-12, TWO_PI, 369, 371),
    (0.02, 1e-10, 5.0, 118, 118),
], ids=["accuracy-run", "determinism-run"])
def test_rk45_oscillator_step_counts(monkeypatch, dt, tol, t1, accepted, trials):
    # the two oscillator DP45 runs above, with their step counts pinned
    counted = count_dp_trials(monkeypatch)
    cfg = IntegratorConfig(method="rk45", dt=dt, abs_tol=tol, rel_tol=tol)
    traj = integrate_ode(osc_rhs, [1.0, 0.0], 0.0, t1, cfg)
    assert traj.times.size - 1 == accepted
    assert counted[0] == trials


def test_section_period_step_counts(monkeypatch):
    # one DP45 period of the constrained flow with the shooting settings, from
    # the x-section seed of the (1, 1.5, 2) body at h = 0.5; the counts are
    # those of the array-based stepper the float stepper replaced
    from routhkit.ellipsoid import (_SHOOT_CFG, ConformalData, EllipsoidState,
                                    constrained_flow, section_seed)
    from routhkit.rigidbody import RigidBodyParams
    counted = count_dp_trials(monkeypatch)
    p = RigidBodyParams(1.0, 1.5, 2.0)
    cd = ConformalData(h=0.5)
    seed, period = section_seed(p, cd, "x")
    traj = constrained_flow(p, cd, EllipsoidState.from_vector(seed), 0.0, period, _SHOOT_CFG)
    assert traj.times.size - 1 == 386
    assert counted[0] == 387


@pytest.mark.parametrize("method, projected", [
    ("rk45", False), ("rk45", True), ("rk4", False), ("rk4", True),
], ids=["plain", "projected", "rk4-plain", "rk4-projected"])
def test_rk45_rhs_evaluations(monkeypatch, method, projected):
    # rk45: 1 initial evaluation (also the first stage), 6 per trial, and with
    # a projection one re-evaluation per accepted step; rk4: 4 per step and
    # none at the start, with a projection or without
    trials = count_dp_trials(monkeypatch)
    rhs_calls = [0]

    def rhs(y):
        rhs_calls[0] += 1
        return osc_rhs(y)

    def project(y):
        return np.asarray(y) / np.linalg.norm(y)

    cfg = IntegratorConfig(method=method, dt=0.1, abs_tol=1e-10, rel_tol=1e-10)
    traj = integrate_ode(rhs, [1.0, 0.0], 0.0, 3.0, cfg,
                         project=project if projected else None)
    accepted = traj.times.size - 1
    if method == "rk4":
        assert accepted == 30
        assert rhs_calls[0] == 4 * accepted
    else:
        assert trials[0] >= accepted > 0
        assert rhs_calls[0] == 1 + 6 * trials[0] + (accepted if projected else 0)
