"""Deterministic ODE integration, quadrature, reconstruction, and shooting.

Fixed-step RK4 is the default for conservation runs (predictable drift);
an embedded Dormand-Prince 5(4) pair serves adaptive flows used by the
periodic-orbit shooter.  All routines are deterministic: identical inputs
produce bit-identical outputs.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    MaxStepsExceeded,
    MomentumMismatch,
    NoConvergence,
    NonPositiveFactor,
    StepFailure,
)
from .reduction import (
    FullState,
    MomentumValue,
    ReducedState,
    SymmetricSystem,
    _finite_vector,
    _real,
    energy_full,
    full_rhs,
    gradient,
    momentum_map,
    reduced_energy,
    reduced_vector_field,
    solve_cyclic,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    Attributes:
        method: "rk4" (fixed step) or "rk45" (adaptive Dormand-Prince).
        dt: fixed step for rk4, initial step for rk45 (time units).
        abs_tol, rel_tol: adaptive local error tolerances.
        max_steps: hard cap on accepted steps.

    ``dt``, ``abs_tol`` and ``rel_tol`` are stored as Python floats.

    Raises:
        ValueError: a setting is invalid (dt or a tolerance not finite and
            positive, max_steps not a whole number >= 1); the message begins
            with its field name.
        TypeError: dt or a tolerance is not a real number.
    """

    method: str = "rk4"
    dt: float = 1e-3
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"method must be 'rk4' or 'rk45', got {self.method!r}")
        for name in ("dt", "abs_tol", "rel_tol"):
            value = _real(getattr(self, name), name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive")
            object.__setattr__(self, name, value)
        if not (self.max_steps >= 1 and float(self.max_steps).is_integer()):
            raise ValueError("max_steps must be a whole number >= 1")


@dataclass
class TrajectoryMeta:
    """Bookkeeping attached to a trajectory."""

    system: str = ""
    momentum: Optional[MomentumValue] = None
    energy0: Optional[float] = None


@dataclass
class Trajectory:
    """Samples of an integral curve on a finite, strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray
    meta: TrajectoryMeta = field(default_factory=TrajectoryMeta)

    def __post_init__(self):
        self.times = _grid(self.times)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.size:
            raise ValueError("times and states must have matching length")


@dataclass
class PeriodicOrbit:
    """Refined periodic orbit: initial state, period, and closure gap.

    ``iterations`` counts the accepted damped steps of the shooter,
    ``closure_history`` holds the closure after each of them (and after the
    final undamped step when it was kept) and ``jacobians`` the number of
    finite-difference Jacobians built.
    """

    initial_state: np.ndarray
    period: float
    closure_error: float
    iterations: int = 0
    closure_history: tuple = ()
    jacobians: int = 0

    def __post_init__(self):
        self.initial_state = np.asarray(self.initial_state, dtype=float)
        if not self.period > 0:
            raise ValueError("period must be positive")


# One-component stage tables, in the operation order of the array formula.
# ``a`` is the state component and ``b<j>`` the same component of stage j.
# A row k<j> evaluates stage j at the point it gives (a bare name is passed
# as it is, and no expression means the stage came in as ``k``); any other
# row binds the list it gives to its name.
_RK4_STAGES = (
    ("k1", "y"),
    ("k2", "a + hh * b1"),
    ("k3", "a + hh * b2"),
    ("k4", "a + h * b3"),
    ("y", "a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)"),
)
# Dormand-Prince 5(4) with its zero entries left out.  The last stage row
# equals the fifth-order weights, so the last stage is evaluated at y5
# itself (first-same-as-last), and the error weights are b5 - b4.
_DP45_STAGES = (
    ("k1", None),
    ("k2", "a + h * (1 / 5 * b1)"),
    ("k3", "a + h * (3 / 40 * b1 + 9 / 40 * b2)"),
    ("k4", "a + h * (44 / 45 * b1 - 56 / 15 * b2 + 32 / 9 * b3)"),
    ("k5", "a + h * (19372 / 6561 * b1 - 25360 / 2187 * b2 + 64448 / 6561 * b3"
           " - 212 / 729 * b4)"),
    ("k6", "a + h * (9017 / 3168 * b1 - 355 / 33 * b2 + 46732 / 5247 * b3 + 49 / 176 * b4"
           " - 5103 / 18656 * b5)"),
    ("y5", "a + h * (35 / 384 * b1 + 500 / 1113 * b3 + 125 / 192 * b4 - 2187 / 6784 * b5"
           " + 11 / 84 * b6)"),
    ("k7", "y5"),
    ("err", "h * ((35 / 384 - 5179 / 57600) * b1 + (500 / 1113 - 7571 / 16695) * b3"
            " + (125 / 192 - 393 / 640) * b4 + (-2187 / 6784 + 92097 / 339200) * b5"
            " + (11 / 84 - 187 / 2100) * b6 - 1 / 40 * b7)"),
)

_LENGTH_ERROR = "{} must return {} values, one per state component"
_EMPTY_ERROR = "the state must have at least one component"

# method -> (signature, lines before the stages, stage table, lines after them)
_STEP_SOURCE = {
    "rk4": ("rhs, y, h, project", ["hh = 0.5 * h", "h6 = h / 6.0"], _RK4_STAGES, [
        "if project is not None:",
        "    y = project(y)",
        "    if len(y) != {d}:",
        "        raise ValueError({project_error!r})",
        "return y",
    ]),
    "dp45": ("rhs, y, h, k", [], _DP45_STAGES, ["return y5, err, k"]),
}


@functools.cache
def _kernel(method: str, d: int):
    """The straight-line ``method`` step for a state of length d, compiled
    on first use from its stage table (one cached entry per method and
    state length): per component, each expression of the table, so the
    arithmetic is the table's to the bit.

    An ``rhs`` value of another length than d raises ValueError where it
    is unpacked.
    """
    signature, head, stages, tail = _STEP_SOURCE[method]

    def components(expr):
        return ", ".join(re.sub(r"\b(a|b\d)\b", rf"\1_{i}", expr) for i in range(d))

    body = head + [f"[{components('a')}] = y"]
    for name, expr in stages:
        if name[0] == "k":
            if expr is not None:
                point = expr if expr.isidentifier() else f"[{components(expr)}]"
                body.append(f"k = rhs({point})")
            body += ["try:", f"    [{components('b' + name[1:])}] = k", "except ValueError:",
                     f"    raise ValueError({_LENGTH_ERROR.format('rhs', d)!r}) from None"]
        else:
            body.append(f"{name} = [{components(expr)}]")
    body += [line.format(d=d, project_error=_LENGTH_ERROR.format("project", d)) for line in tail]
    source = f"def step({signature}):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {}
    exec(compile(source, f"<{method} step, d={d}>", "exec"), namespace)
    return namespace["step"]


def _rk4_step(rhs, y, h: float, project=None) -> list:
    """One classical RK4 step on a float sequence, component by component,
    projected when ``project`` is given.

    Stages combine as ``y + 0.5*h*k`` and ``y + (h/6)*(k1 + 2k2 + 2k3 + k4)``,
    the operation order of the array formula, so results are bit-identical
    to it.  ``rhs`` and ``project`` must return len(y) values (ValueError).
    """
    return _kernel("rk4", len(y))(rhs, y, h, project)


def _dp_step(rhs, y, h: float, k1):
    """One Dormand-Prince 5(4) trial step; returns (y5, error_vector, k_last).

    ``k1`` is the derivative at ``y``; every stage must have len(y) values
    (ValueError).
    """
    return _kernel("dp45", len(y))(rhs, y, h, k1)


def _rk4_count(span: float, dt: float) -> int:
    """Number of RK4 steps of at most dt over a finite span > 0;
    MaxStepsExceeded when span / dt overflows."""
    ratio = span / dt
    if ratio == math.inf:
        raise MaxStepsExceeded(f"span {span:.6g} at dt={dt:.6g}: step count overflows")
    return max(1, int(math.ceil(ratio - 1e-12)))


def _checked(what: str, t: float, fn, *args):
    """``fn(*args)``, the ``what`` at time t; StepFailure when the call raises
    ArithmeticError (Python floats raise OverflowError and ZeroDivisionError
    where arrays give inf and nan) or returns a value that is not finite."""
    try:
        out = fn(*args)
    except ArithmeticError:
        pass
    else:
        if all(map(math.isfinite, out)):
            return out
    raise StepFailure(f"non-finite {what} at t={t:.6g}")


def integrate_ode(rhs: Callable[[list], Sequence[float]], s0, t0: float, t1: float,
                  cfg: IntegratorConfig,
                  project: Optional[Callable[[list], Sequence[float]]] = None) -> Trajectory:
    """Integrate ds/dt = rhs(s) over [t0, t1], recording every accepted step.

    The stepping runs on Python floats: ``rhs`` and ``project`` are handed
    the state as a list of floats and may return any sequence of floats
    (a list or a 1-D array) with exactly as many values as the state.

    Args:
        rhs: autonomous state derivative.
        s0: initial state vector.
        t0, t1: integration window, t1 > t0 and t1 - t0 finite.
        cfg: integrator settings.
        project: optional constraint projection applied after each accepted
            step (used by constrained surface flows).

    Raises:
        ValueError: the state is empty, the span is not finite (t0 or t1
            infinite or nan), or t1 <= t0, raised before ``rhs`` is
            evaluated; or ``rhs`` or ``project`` returned another number of
            values than the state has.
        StepFailure: step size underflow (also a span too short to step); a
            derivative, state or error estimate not finite; ArithmeticError.
            RK4 checks the derivative at s0 through its first step, so a
            non-finite one there fails as that step's state.
        MaxStepsExceeded: step budget exhausted, or for rk4 a step count
            span / dt that overflows (for rk4, raised before ``rhs`` is
            evaluated).
    """
    y = np.asarray(s0, dtype=float).tolist()
    d = len(y)
    if not d:
        raise ValueError(_EMPTY_ERROR)
    t0, t1 = float(t0), float(t1)
    if not math.isfinite(t1 - t0):
        raise ValueError(f"integration span [{t0:.6g}, {t1:.6g}] must be finite")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")

    if cfg.method == "rk4":
        span = t1 - t0
        n_steps = _rk4_count(span, cfg.dt)
        if n_steps > cfg.max_steps:
            raise MaxStepsExceeded(f"{n_steps:.12g} steps exceed max_steps={cfg.max_steps}")
        h = span / n_steps
        times = t0 + h * np.arange(n_steps + 1)
        times[-1] = t1
        states = np.empty((n_steps + 1, d))
        states[0] = y
        for i, t in enumerate(times[1:].tolist(), 1):
            states[i] = y = _checked("state", t, _rk4_step, rhs, y, h, project)
        return Trajectory(times=times, states=states)

    # rk45
    k1 = _checked("derivative", t0, rhs, y)  # the first stage of the first trial
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    t = t0
    h = min(cfg.dt, t1 - t0)
    times = [t0]
    states = [y]
    h_min = 1e-14 * max(1.0, abs(t1 - t0))
    t_stop = t1 - 1e-14 * max(1.0, abs(t1))
    # a span inside the end slack still takes one step, or underflows
    while t < t_stop or len(times) == 1:
        if len(times) > cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded max_steps={cfg.max_steps}")
        h = min(h, t1 - t)
        if h < h_min:
            raise StepFailure(f"step size underflow at t={t:.6g}")
        try:
            y_new, err, k_last = _dp_step(rhs, y, h, k1)
        except ArithmeticError:
            raise StepFailure(f"non-finite state at t={t:.6g}") from None
        if not all(map(math.isfinite, y_new)):
            raise StepFailure(f"non-finite state at t={t:.6g}")
        # RMS norm of the error against atol + rtol * max(|y|, |y_new|)
        acc = 0.0
        for a, b, e in zip(y, y_new, err):
            if a < 0.0:
                a = -a
            if b < 0.0:
                b = -b
            r = e / (atol + rtol * (b if b > a else a))
            acc += r * r
        err_norm = math.sqrt(acc / d)
        if err_norm <= 1.0:
            t = t + h
            y = y_new
            k1 = k_last  # first-same-as-last
            if project is not None:
                y = _checked("state", t, project, y)
                if len(y) != d:
                    raise ValueError(_LENGTH_ERROR.format("project", d))
                k1 = _checked("derivative", t, rhs, y)
            times.append(t)
            states.append(y)
        elif err_norm != err_norm:
            # NaN: a stage is not finite, and a rejection would retry the same trial
            raise StepFailure(f"non-finite derivative at t={t + h:.6g}")
        factor = 0.9 * (err_norm ** -0.2 if err_norm > 0 else 5.0)
        h = h * min(5.0, max(0.2, factor))
    return Trajectory(times=np.asarray(times), states=np.asarray(states))


def propagate(rhs, s0, t0: float, t1: float, cfg: IntegratorConfig,
              project=None) -> np.ndarray:
    """Final state of the flow over [t0, t1]; ``integrate_ode`` stores every step on the way.

    ``rhs`` and ``project`` follow the ``integrate_ode`` contract: a list of
    floats in, a sequence of as many floats out.

    Raises:
        ValueError: the state is empty, the span is not finite or t1 <= t0,
            or ``rhs`` or ``project`` returned another number of values than
            the state has.
        StepFailure, MaxStepsExceeded: as ``integrate_ode``.
    """
    return integrate_ode(rhs, s0, t0, t1, cfg, project=project).states[-1]


def integrate_grid(rhs, s0, grid, dt: float, project=None) -> np.ndarray:
    """RK4 states on a prescribed grid, substepping each segment at <= dt.

    ``rhs`` and ``project`` follow the ``integrate_ode`` contract: a list of
    floats in, a sequence of as many floats out.

    Raises:
        ValueError: ``grid`` breaks the ``cumulative_quadrature`` grid
            contract, ``dt`` is not finite and positive or the state is
            empty, raised before ``rhs`` is evaluated; or ``rhs`` or
            ``project`` returned another number of values than the state has.
        StepFailure: a substep's state is not finite or raised ArithmeticError.
        MaxStepsExceeded: a segment's step count overflows, raised before
            ``rhs`` is evaluated.
    """
    ts = _grid(grid).tolist()
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    y = np.asarray(s0, dtype=float).tolist()
    if not y:
        raise ValueError(_EMPTY_ERROR)
    counts = [_rk4_count(b - a, dt) for a, b in zip(ts, ts[1:])]
    out = np.empty((len(ts), len(y)))
    out[0] = y
    for i, n_sub in enumerate(counts):
        h = (ts[i + 1] - ts[i]) / n_sub
        for j in range(n_sub):
            y = _checked("state", ts[i] + (j + 1) * h, _rk4_step, rhs, y, h, project)
        out[i + 1] = y
    return out


def integrate_full(sys: SymmetricSystem, s0: FullState, t0: float, t1: float,
                   cfg: IntegratorConfig) -> Trajectory:
    """Integrate the full system; the momentum integral stays constant."""
    traj = integrate_ode(full_rhs(sys), s0.to_vector(), t0, t1, cfg)
    traj.meta = TrajectoryMeta(
        system=sys.name,
        momentum=momentum_map(sys, s0),
        energy0=energy_full(sys, s0),
    )
    return traj


def integrate_reduced(sys: SymmetricSystem, f: MomentumValue, r0: ReducedState,
                      t0: float, t1: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reduced system at fixed momentum."""
    traj = integrate_ode(reduced_vector_field(sys, f), r0.to_vector(), t0, t1, cfg)
    traj.meta = TrajectoryMeta(
        system=sys.name,
        momentum=f,
        energy0=reduced_energy(sys, f, r0),
    )
    return traj


def _grid(times) -> np.ndarray:
    """``times`` as a float array: 1-D, at least two finite, strictly increasing samples."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two samples")
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    if not (t[1:] > t[:-1]).all():
        raise ValueError("times must be strictly increasing")
    return t


def cumulative_quadrature(times, values) -> np.ndarray:
    """Cumulative integral of sampled values on the sample grid.

    Quadratic (Simpson-type) rule on consecutive interval pairs, with a
    trapezoid rule on a trailing unpaired interval; grids may be
    non-uniform.  ``values`` may be 1-D or (m, p) column-stacked.

    Grid contract: ``times`` is a 1-D array of at least two finite,
    strictly increasing samples, and ``values`` has one row per sample.

    Raises:
        ValueError: the grid breaks the contract or ``values`` does not
            align with it.
    """
    t = _grid(times)
    y = np.asarray(values, dtype=float)
    if y.shape[:1] != t.shape:
        raise ValueError("values must align with times")
    out = np.zeros_like(y)
    last = 2 * ((t.size - 1) // 2)  # index of the last sample closing a pair
    # Integrals of the Lagrange basis on nodes 0, a, b over [0, a] (half
    # pair) and [0, b] (full pair), one entry per pair.
    t0 = t[:last:2]
    a = t[1:last:2] - t0
    b = t[2:last + 1:2] - t0
    shape = (-1,) + (1,) * (y.ndim - 1)

    def increment(X):
        i0 = (X ** 3 / 3.0 - (a + b) * X ** 2 / 2.0 + a * b * X) / (a * b)
        i1 = (X ** 3 / 3.0 - b * X ** 2 / 2.0) / (a * (a - b))
        i2 = (X ** 3 / 3.0 - a * X ** 2 / 2.0) / (b * (b - a))
        return (i0.reshape(shape) * y[:last:2] + i1.reshape(shape) * y[1:last:2]
                + i2.reshape(shape) * y[2:last + 1:2])

    np.cumsum(increment(b), axis=0, out=out[2:last + 1:2])
    out[1:last:2] = out[:last:2] + increment(a)
    if last == t.size - 2:
        # trailing odd interval
        h = t[-1] - t[-2]
        out[-1] = out[-2] + 0.5 * h * (y[-2] + y[-1])
    return out


def reconstruct(sys: SymmetricSystem, f: MomentumValue, red: Trajectory,
                x0, psi0) -> Trajectory:
    """Recover cyclic coordinates along a reduced trajectory by quadrature.

    The cyclic velocities come from the momentum constraint at each sample,
    so the momentum integral of every reconstructed sample equals ``f``
    exactly.  The returned angle coordinates are the continuous lift; they
    are reduced modulo 2*pi only at presentation time.

    Raises:
        MomentumMismatch: the trajectory is not a reduced trajectory of
            ``sys`` at momentum ``f``: its states do not have 2n columns,
            its metadata names another system, or it was produced at a
            different momentum value.
        ValueError: ``x0`` or ``psi0`` is not a finite vector of k or l
            entries.
    """
    n = sys.n
    if red.states.ndim != 2 or red.states.shape[1] != 2 * n:
        raise MomentumMismatch(
            f"reduced trajectory has states of shape {red.states.shape}, "
            f"{sys.name or 'the system'} needs {2 * n} columns"
        )
    if red.meta.system and red.meta.system != sys.name:
        raise MomentumMismatch(
            f"reduced trajectory was produced by system {red.meta.system!r}, "
            f"not {sys.name!r}"
        )
    if red.meta.momentum is None or not red.meta.momentum.matches(f):
        raise MomentumMismatch(
            "reduced trajectory metadata does not carry the requested momentum value"
        )
    x0 = np.zeros(sys.k) if x0 is None else _finite_vector(x0, sys.k, "x0")
    psi0 = np.zeros(sys.l) if psi0 is None else _finite_vector(psi0, sys.l, "psi0")
    m = red.times.size
    w = np.empty((m, sys.n_cyclic))
    for i in range(m):
        w[i] = solve_cyclic(sys, red.states[i, :n], red.states[i, n:2 * n], f)
    cyc = cumulative_quadrature(red.times, w)
    cyc += np.concatenate([x0, psi0])
    states = np.column_stack([red.states[:, :n], cyc, red.states[:, n:2 * n], w])
    return Trajectory(times=red.times.copy(), states=states,
                      meta=TrajectoryMeta(system=sys.name, momentum=f,
                                          energy0=red.meta.energy0))


def reparametrize_time(traj: Trajectory, factor) -> Trajectory:
    """Rescale the time grid by the state-dependent density dt = factor d(tau).

    ``factor`` is the density sampled on the trajectory, one value per
    sample.  The states are unchanged; the new grid is tau(t) = integral
    of 1/factor along the trajectory, computed with the same quadrature
    as reconstruction.

    Raises:
        ValueError: ``factor`` does not hold one value per sample.
        NonPositiveFactor: factor is not finite and strictly positive at a
            sample.
    """
    vals = np.asarray(factor, dtype=float)
    if vals.shape != traj.times.shape:
        raise ValueError(f"factor has shape {vals.shape}, need one value per sample")
    bad = ~(np.isfinite(vals) & (vals > 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise NonPositiveFactor(
            f"time-change factor {vals[k]:.6g} at sample {k} is not positive and finite"
        )
    tau = cumulative_quadrature(traj.times, 1.0 / vals)
    return Trajectory(times=tau, states=traj.states.copy(), meta=replace(traj.meta))


_SHOOT_MAX_ITER = 25  # accepted damped steps before shoot_periodic gives up


def shoot_periodic(flow: Callable[[np.ndarray, float], np.ndarray], guess,
                   T_guess: float, cfg: IntegratorConfig = None, *,
                   tol: float = 1e-8, phase_index: int = 0) -> PeriodicOrbit:
    """Newton-Broyden refinement of a periodic orbit of ``flow``.

    Solves flow(s, T) = s for the unknown vector z = (s, T), with one phase
    condition pinning coordinate ``phase_index`` of the state to its
    initial value; the least-squares step handles the neutral directions
    of orbit families.  One forward-difference Jacobian
    (``reduction.gradient``) is built at the start and kept current by
    Broyden's rank-one update after each accepted damped step; it is
    rebuilt only when the line search stalls on an updated Jacobian.
    Trial periods must exceed 1e-6 |T_guess|.  Once the closure is within
    ``tol``, one more undamped step is taken and kept only if it lowers
    the closure.  An input that is already periodic to tolerance is
    returned unchanged.

    Args:
        cfg: ignored (``flow`` carries its own settings); kept for positional callers.

    Raises:
        NoConvergence: closure error above ``tol`` after ``_SHOOT_MAX_ITER``
            accepted steps, or the line search stalled on a freshly built
            Jacobian.
    """
    z = np.append(np.asarray(guess, dtype=float), float(T_guess))
    anchor = z[:-1][phase_index]
    T_min = 1e-6 * abs(T_guess)

    def residual(z):
        s = z[:-1]
        r = flow(s, float(z[-1])) - s
        return np.append(r, s[phase_index] - anchor)

    def closure_of(res):
        return float(np.max(np.abs(res[:-1])))

    r = residual(z)
    closure = closure_of(r)
    if closure <= tol:
        return PeriodicOrbit(initial_state=z[:-1], period=float(z[-1]), closure_error=closure)

    # forward differences: d + 1 propagations; rows are residual components
    J = gradient(residual, z, r).T.copy()
    jacobians, fresh = 1, True
    history = []
    while len(history) < _SHOOT_MAX_ITER:
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)

        # damped update: halve until the closure improves
        lam = 1.0
        for _ in range(10):
            z_new = z + lam * step
            if z_new[-1] > T_min:
                r_new = residual(z_new)
                c_new = closure_of(r_new)
                if c_new < closure or c_new <= tol:
                    break
            lam *= 0.5
        else:
            if fresh:
                raise NoConvergence(
                    f"shooting stalled at closure error {closure:.3e} (tol {tol:.1e})"
                )
            J = gradient(residual, z, r).T.copy()
            jacobians, fresh = jacobians + 1, True
            continue
        # Broyden: the secant condition J dx = dr along the step just taken
        dx = lam * step
        J += np.outer(r_new - r - J @ dx, dx) / (dx @ dx)
        fresh = False
        z, r, closure = z_new, r_new, c_new
        history.append(closure)
        if closure <= tol:
            iterations = len(history)
            # superlinear steps stop just under tol; keep one more if it helps
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            z_new = z + step
            if z_new[-1] > T_min:
                c_new = closure_of(residual(z_new))
                if c_new < closure:
                    z, closure = z_new, c_new
                    history.append(closure)
            return PeriodicOrbit(initial_state=z[:-1], period=float(z[-1]),
                                 closure_error=closure, iterations=iterations,
                                 closure_history=tuple(history), jacobians=jacobians)
    raise NoConvergence(
        f"shooting did not reach tol={tol:.1e} in {_SHOOT_MAX_ITER} iterations "
        f"(closure {closure:.3e})"
    )
