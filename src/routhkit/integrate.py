"""Deterministic ODE integration, quadrature, reconstruction, and shooting.

Fixed-step RK4 is the default for conservation runs (predictable drift);
an embedded Dormand-Prince 5(4) pair serves adaptive flows used by the
periodic-orbit shooter.  All routines are deterministic: identical inputs
produce bit-identical outputs.
"""

from __future__ import annotations

import math
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
    _checked_metric,
    _finite_vector,
    _reduced_accel,
    accel,
    energy_full,
    fd_step,
    momentum_map,
    reduced_energy,
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

    Raises:
        ValueError: a setting is invalid (dt or a tolerance not finite and
            positive, max_steps not a whole number >= 1); the message begins
            with its field name.
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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
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


def _rk4_step(rhs, y, h: float) -> list:
    """One classical RK4 step on a float sequence, component by component.

    Stages combine as ``y + 0.5*h*k`` and ``y + (h/6)*(k1 + 2k2 + 2k3 + k4)``,
    the operation order of the array formula, so results are bit-identical
    to it.
    """
    hh = 0.5 * h
    k1 = rhs(y)
    k2 = rhs([a + hh * b for a, b in zip(y, k1)])
    k3 = rhs([a + hh * b for a, b in zip(y, k2)])
    k4 = rhs([a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _dp_step(rhs, y, h: float, k1):
    """One Dormand-Prince 5(4) trial step; returns (y5, error_vector, k_last).

    The tableau is written out per component with its zero entries left
    out.  The last stage row equals the fifth-order weights, so the last
    stage is evaluated at y5 itself (first-same-as-last), and the error
    weights are b5 - b4.
    """
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


def _finite(y) -> bool:
    return all(map(math.isfinite, y))


def _rk4_advance(rhs, y, h: float, project):
    """One RK4 step, projected when ``project`` is given; None when the
    state is not finite or the float arithmetic overflowed (a Python float
    power raises OverflowError where an array would give inf)."""
    try:
        y = _rk4_step(rhs, y, h)
        if project is not None:
            y = project(y)
    except OverflowError:
        return None
    return y if _finite(y) else None


def integrate_ode(rhs: Callable[[list], Sequence[float]], s0, t0: float, t1: float,
                  cfg: IntegratorConfig,
                  project: Optional[Callable[[list], Sequence[float]]] = None) -> Trajectory:
    """Integrate ds/dt = rhs(s) over [t0, t1], recording every accepted step.

    The stepping runs on Python floats: ``rhs`` and ``project`` are handed
    the state as a list of floats and may return any sequence of floats
    (a list or a 1-D array).

    Args:
        rhs: autonomous state derivative.
        s0: initial state vector.
        t0, t1: integration window, t1 > t0 and t1 - t0 finite.
        cfg: integrator settings.
        project: optional constraint projection applied after each accepted
            step (used by constrained surface flows).

    Raises:
        ValueError: the span is not finite (t0 or t1 infinite or nan), or
            t1 <= t0; raised before ``rhs`` is evaluated.
        StepFailure: step size underflow, or a non-finite (or overflowing)
            derivative or state.
        MaxStepsExceeded: step budget exhausted.
    """
    y = np.asarray(s0, dtype=float).tolist()
    t0, t1 = float(t0), float(t1)
    if not math.isfinite(t1 - t0):
        raise ValueError(f"integration span [{t0:.6g}, {t1:.6g}] must be finite")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    k1 = rhs(y)
    if not _finite(k1):
        raise StepFailure("non-finite derivative at the initial state")

    if cfg.method == "rk4":
        span = t1 - t0
        n_steps = max(1, int(math.ceil(span / cfg.dt - 1e-12)))
        if n_steps > cfg.max_steps:
            raise MaxStepsExceeded(f"{n_steps} steps exceed max_steps={cfg.max_steps}")
        h = span / n_steps
        times = t0 + (span / n_steps) * np.arange(n_steps + 1)
        times[-1] = t1
        states = np.empty((n_steps + 1, len(y)))
        states[0] = y
        for i in range(n_steps):
            y = _rk4_advance(rhs, y, h, project)
            if y is None:
                raise StepFailure(f"non-finite state at t={times[i + 1]:.6g}")
            states[i + 1] = y
        return Trajectory(times=times, states=states)

    # rk45
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    t = t0
    h = float(min(cfg.dt, t1 - t0))
    times = [t0]
    states = [y]
    steps = 0
    h_min = 1e-14 * max(1.0, abs(t1 - t0))
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if steps >= cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded max_steps={cfg.max_steps}")
        h = min(h, t1 - t)
        if h < h_min:
            raise StepFailure(f"step size underflow at t={t:.6g}")
        try:
            y_new, err, k_last = _dp_step(rhs, y, h, k1)
            finite = _finite(y_new)
        except OverflowError:
            finite = False
        if not finite:
            raise StepFailure(f"non-finite state at t={t:.6g}")
        # RMS norm of the error against atol + rtol * max(|y|, |y_new|)
        acc = 0.0
        for a, b, e in zip(y, y_new, err):
            r = e / (atol + rtol * max(abs(a), abs(b)))
            acc += r * r
        err_norm = math.sqrt(acc / len(y))
        if err_norm <= 1.0:
            t = t + h
            y = y_new
            k1 = k_last  # first-same-as-last
            if project is not None:
                y = project(y)
                k1 = rhs(y)
            times.append(t)
            states.append(y)
            steps += 1
        factor = 0.9 * (err_norm ** -0.2 if err_norm > 0 else 5.0)
        h = h * min(5.0, max(0.2, factor))
    return Trajectory(times=np.asarray(times), states=np.asarray(states))


def propagate(rhs, s0, t0: float, t1: float, cfg: IntegratorConfig,
              project=None) -> np.ndarray:
    """Final state of the flow over [t0, t1]; ``integrate_ode`` stores every step on the way.

    ``rhs`` and ``project`` follow the ``integrate_ode`` contract: a list of
    floats in, a sequence of floats out.  A span that is not finite, or one
    with t1 <= t0, raises ValueError.
    """
    return integrate_ode(rhs, s0, t0, t1, cfg, project=project).states[-1]


def integrate_grid(rhs, s0, grid, dt: float, project=None) -> np.ndarray:
    """RK4 states on a prescribed grid, substepping each segment at <= dt.

    ``rhs`` and ``project`` follow the ``integrate_ode`` contract: a list of
    floats in, a sequence of floats out.

    Raises:
        ValueError: ``grid`` breaks the ``cumulative_quadrature`` grid
            contract, or ``dt`` is not finite and positive.
        StepFailure: a substep produced a non-finite (or overflowing) state.
    """
    ts = _grid(grid).tolist()
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    y = np.asarray(s0, dtype=float).tolist()
    out = np.empty((len(ts), len(y)))
    out[0] = y
    for i in range(len(ts) - 1):
        seg = ts[i + 1] - ts[i]
        n_sub = max(1, int(math.ceil(seg / dt - 1e-12)))
        h = seg / n_sub
        for j in range(n_sub):
            y = _rk4_advance(rhs, y, h, project)
            if y is None:
                raise StepFailure(f"non-finite state at t={ts[i] + (j + 1) * h:.6g}")
        out[i + 1] = y
    return out


def _floats(y) -> list:
    """The state as a list of floats: the ``integrate_ode`` contract."""
    return y if isinstance(y, list) else np.asarray(y, dtype=float).tolist()


def full_rhs(sys: SymmetricSystem) -> Callable[[list], list]:
    """Right-hand side of the full Euler-Lagrange system in all coordinates.

    The kinetic matrix and potential depend on the shape coordinates only,
    so the generalized force has no cyclic-position terms and the momentum
    integral is a first integral of the assembled field by construction.
    The velocities are read from the state as floats and the derivative is
    returned as a list of floats, the ``integrate_ode`` contract; only the
    shape position is handed to the system as an array.
    """
    n = sys.n
    d = sys.dim

    def rhs(y) -> list:
        y = _floats(y)
        q = np.array(y[:n], dtype=float)
        v = y[d:]
        return v + accel(sys, q, v, *_checked_metric(sys, q))

    return rhs


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


def reduced_vector_field(sys: SymmetricSystem, f: MomentumValue):
    """Reduced second-order field as a first-order rhs on (q, qdot).

    Like ``full_rhs`` it reads the velocities as floats and returns the
    derivative as a list of floats.
    """
    n = sys.n
    c = f.as_vector().tolist()

    def rhs(y) -> list:
        y = _floats(y)
        qdot = y[n:]
        return qdot + _reduced_accel(sys, c, np.array(y[:n], dtype=float), qdot)

    return rhs


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
    of orbit families.  One forward-difference Jacobian, each column
    stepped by ``reduction.fd_step``, is built at the start and kept
    current by Broyden's rank-one update after each accepted damped step;
    it is rebuilt only when the line search stalls on an updated Jacobian.
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

    def fd_jacobian(z, r):
        J = np.empty((z.size, z.size))
        for j in range(z.size):
            h = fd_step(z[j])
            zp = z.copy()
            zp[j] += h
            J[:, j] = (residual(zp) - r) / h
        return J

    J = fd_jacobian(z, r)
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
            J = fd_jacobian(z, r)
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
