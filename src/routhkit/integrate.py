"""Deterministic ODE integration, quadrature, reconstruction, and shooting.

Fixed-step RK4 is the default for conservation runs (predictable drift);
an embedded Dormand-Prince 5(4) pair serves adaptive flows used by the
periodic-orbit shooter.  All routines are deterministic: identical inputs
produce bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    _reduced_accel,
    accel,
    energy_full,
    evaluate_metric,
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
    """

    method: str = "rk4"
    dt: float = 1e-3
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class TrajectoryMeta:
    """Bookkeeping attached to a trajectory."""

    system: str = ""
    momentum: Optional[MomentumValue] = None
    chart: str = ""
    energy0: Optional[float] = None


@dataclass
class Trajectory:
    """Samples of an integral curve on a strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray
    meta: TrajectoryMeta = field(default_factory=TrajectoryMeta)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two samples")
        if self.states.shape[0] != self.times.size:
            raise ValueError("times and states must have matching length")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass
class PeriodicOrbit:
    """Refined periodic orbit: initial state, period, and closure gap."""

    initial_state: np.ndarray
    period: float
    closure_error: float
    iterations: int = 0

    def __post_init__(self):
        self.initial_state = np.asarray(self.initial_state, dtype=float)
        if not self.period > 0:
            raise ValueError("period must be positive")


def _rk4_step(rhs, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau: stage matrix (row i feeds stage i), the
# fifth-order weights and the error weights b5 - b4.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4


def _dp_step(rhs, y, h, k1):
    """One Dormand-Prince trial step; returns (y5, error_vector, k_last)."""
    k = np.empty((7, y.size))
    k[0] = k1
    for i in range(1, 7):
        k[i] = rhs(y + h * (_DP_A[i, :i] @ k[:i]))
    return y + h * (_DP_B5 @ k), h * (_DP_E @ k), k[6]


def integrate_ode(rhs: Callable[[np.ndarray], np.ndarray], s0, t0: float, t1: float,
                  cfg: IntegratorConfig,
                  project: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> Trajectory:
    """Integrate ds/dt = rhs(s) over [t0, t1], recording every accepted step.

    Args:
        rhs: autonomous state derivative.
        s0: initial state vector.
        t0, t1: integration window, t1 > t0.
        cfg: integrator settings.
        project: optional constraint projection applied after each accepted
            step (used by constrained surface flows).

    Raises:
        StepFailure: step size underflow or non-finite derivative.
        MaxStepsExceeded: step budget exhausted.
    """
    y = np.asarray(s0, dtype=float).copy()
    k1 = rhs(y)
    if not np.isfinite(k1).all():
        raise StepFailure("non-finite derivative at the initial state")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")

    if cfg.method == "rk4":
        span = t1 - t0
        n_steps = max(1, int(math.ceil(span / cfg.dt - 1e-12)))
        if n_steps > cfg.max_steps:
            raise MaxStepsExceeded(f"{n_steps} steps exceed max_steps={cfg.max_steps}")
        h = span / n_steps
        times = t0 + (span / n_steps) * np.arange(n_steps + 1)
        times[-1] = t1
        states = np.empty((n_steps + 1, y.size))
        states[0] = y
        for i in range(n_steps):
            y = _rk4_step(rhs, y, h)
            if project is not None:
                y = project(y)
            if not np.isfinite(y).all():
                raise StepFailure(f"non-finite state at t={times[i + 1]:.6g}")
            states[i + 1] = y
        return Trajectory(times=times, states=states)

    # rk45
    t = t0
    h = min(cfg.dt, t1 - t0)
    times = [t0]
    states = [y.copy()]
    steps = 0
    h_min = 1e-14 * max(1.0, abs(t1 - t0))
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if steps >= cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded max_steps={cfg.max_steps}")
        h = min(h, t1 - t)
        if h < h_min:
            raise StepFailure(f"step size underflow at t={t:.6g}")
        y_new, err, k_last = _dp_step(rhs, y, h, k1)
        if not np.isfinite(y_new).all():
            raise StepFailure(f"non-finite state at t={t:.6g}")
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        r = err / scale
        err_norm = math.sqrt(float((r * r).sum()) / r.size)
        if err_norm <= 1.0:
            t = t + h
            y = y_new
            k1 = k_last  # first-same-as-last
            if project is not None:
                y = project(y)
                k1 = rhs(y)
            times.append(t)
            states.append(y.copy())
            steps += 1
        factor = 0.9 * (err_norm ** -0.2 if err_norm > 0 else 5.0)
        h = h * min(5.0, max(0.2, factor))
    return Trajectory(times=np.asarray(times), states=np.asarray(states))


def propagate(rhs, s0, t0: float, t1: float, cfg: IntegratorConfig,
              project=None) -> np.ndarray:
    """Final state of the flow over [t0, t1]; ``integrate_ode`` stores every step on the way."""
    if t1 == t0:
        return np.asarray(s0, dtype=float).copy()
    return integrate_ode(rhs, s0, t0, t1, cfg, project=project).states[-1]


def integrate_grid(rhs, s0, grid, dt: float, project=None) -> np.ndarray:
    """RK4 states on a prescribed grid, substepping each segment at <= dt."""
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(s0, dtype=float).copy()
    out = np.empty((grid.size, y.size))
    out[0] = y
    for i in range(grid.size - 1):
        seg = grid[i + 1] - grid[i]
        n_sub = max(1, int(math.ceil(seg / dt - 1e-12)))
        h = seg / n_sub
        for _ in range(n_sub):
            y = _rk4_step(rhs, y, h)
            if project is not None:
                y = project(y)
        out[i + 1] = y
    return out


def full_rhs(sys: SymmetricSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side of the full Euler-Lagrange system in all coordinates.

    The kinetic matrix and potential depend on the shape coordinates only,
    so the generalized force has no cyclic-position terms and the momentum
    integral is a first integral of the assembled field by construction.
    """
    n = sys.n
    d = sys.dim

    def rhs(y: np.ndarray) -> np.ndarray:
        q = y[:n]
        v = y[d:]
        return np.concatenate([v, accel(sys, q, v, evaluate_metric(sys, q))])

    return rhs


def integrate_full(sys: SymmetricSystem, s0: FullState, t0: float, t1: float,
                   cfg: IntegratorConfig) -> Trajectory:
    """Integrate the full system; the momentum integral stays constant."""
    traj = integrate_ode(full_rhs(sys), s0.to_vector(), t0, t1, cfg)
    traj.meta = TrajectoryMeta(
        system=sys.name,
        momentum=momentum_map(sys, s0),
        chart="primary",
        energy0=energy_full(sys, s0),
    )
    return traj


def reduced_vector_field(sys: SymmetricSystem, f: MomentumValue):
    """Reduced second-order field as a first-order rhs on (q, qdot)."""
    n = sys.n
    c = f.as_vector()

    def rhs(y: np.ndarray) -> np.ndarray:
        return np.concatenate([y[n:], _reduced_accel(sys, c, y[:n], y[n:])])

    return rhs


def integrate_reduced(sys: SymmetricSystem, f: MomentumValue, r0: ReducedState,
                      t0: float, t1: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reduced system at fixed momentum."""
    traj = integrate_ode(reduced_vector_field(sys, f), r0.to_vector(), t0, t1, cfg)
    traj.meta = TrajectoryMeta(
        system=sys.name,
        momentum=f,
        chart="primary",
        energy0=reduced_energy(sys, f, r0),
    )
    return traj


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
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("need at least two samples")
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    if not (t[1:] > t[:-1]).all():
        raise ValueError("times must be strictly increasing")
    if y.shape[0] != t.size:
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
        MomentumMismatch: the trajectory was produced at a different
            momentum value than ``f``.
    """
    if red.meta.momentum is None or not red.meta.momentum.matches(f):
        raise MomentumMismatch(
            "reduced trajectory metadata does not carry the requested momentum value"
        )
    n = sys.n
    x0 = np.zeros(sys.k) if x0 is None else np.asarray(x0, dtype=float)
    psi0 = np.zeros(sys.l) if psi0 is None else np.asarray(psi0, dtype=float)
    m = red.times.size
    w = np.empty((m, sys.n_cyclic))
    for i in range(m):
        w[i] = solve_cyclic(sys, red.states[i, :n], red.states[i, n:2 * n], f).as_vector()
    cyc = cumulative_quadrature(red.times, w)
    cyc += np.concatenate([x0, psi0])
    states = np.column_stack([
        red.states[:, :n],          # q
        cyc[:, :sys.k],             # x
        cyc[:, sys.k:],             # psi (continuous lift)
        red.states[:, n:2 * n],     # qdot
        w[:, :sys.k],               # xdot
        w[:, sys.k:],               # psidot
    ])
    return Trajectory(times=red.times.copy(), states=states,
                      meta=TrajectoryMeta(system=sys.name, momentum=f,
                                          chart=red.meta.chart, energy0=red.meta.energy0))


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
    return Trajectory(times=tau, states=traj.states.copy(),
                      meta=TrajectoryMeta(system=traj.meta.system, momentum=traj.meta.momentum,
                                          chart=traj.meta.chart, energy0=traj.meta.energy0))


def shoot_periodic(flow: Callable[[np.ndarray, float], np.ndarray], guess,
                   T_guess: float, cfg: IntegratorConfig = None, *,
                   tol: float = 1e-8, max_iter: int = 25,
                   phase_index: int = 0,
                   angle_indices: tuple = ()) -> PeriodicOrbit:
    """Newton refinement of a periodic orbit of ``flow``.

    Solves flow(s, T) = s jointly in (s, T) with a finite-difference
    Jacobian and one phase condition pinning coordinate ``phase_index`` of
    the state to its initial value; the least-squares step handles the
    neutral directions of orbit families.  An input that is already
    periodic to tolerance is returned unchanged.

    Args:
        angle_indices: state components that live on a circle; their
            closure gap is taken modulo 2*pi (rotation-type orbits close
            only up to full turns of the chart angle).

    Raises:
        NoConvergence: closure error above ``tol`` after ``max_iter`` steps.
    """
    s = np.asarray(guess, dtype=float).copy()
    T = float(T_guess)
    anchor = s[phase_index]

    def residual(state, period):
        r = flow(state, period) - state
        for j in angle_indices:
            r[j] = (r[j] + np.pi) % (2.0 * np.pi) - np.pi
        return np.append(r, state[phase_index] - anchor)

    r = residual(s, T)
    closure = float(np.max(np.abs(r[:-1])))
    if closure <= tol:
        return PeriodicOrbit(initial_state=s, period=T, closure_error=closure, iterations=0)

    d = s.size
    for it in range(1, max_iter + 1):
        J = np.empty((d + 1, d + 1))
        for j in range(d):
            h = 1e-6 * max(1.0, abs(s[j]))
            sp = s.copy()
            sp[j] += h
            J[:, j] = (residual(sp, T) - r) / h
        hT = 1e-6 * max(1.0, abs(T))
        J[:, d] = (residual(s, T + hT) - r) / hT
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)

        # damped update: halve until the closure improves
        lam = 1.0
        for _ in range(10):
            s_new = s + lam * step[:d]
            T_new = T + lam * step[d]
            if T_new > 1e-6 * abs(T_guess):
                r_new = residual(s_new, T_new)
                c_new = float(np.max(np.abs(r_new[:-1])))
                if c_new < closure or c_new <= tol:
                    break
            lam *= 0.5
        else:
            raise NoConvergence(
                f"shooting stalled at closure error {closure:.3e} (tol {tol:.1e})"
            )
        s, T, r, closure = s_new, T_new, r_new, c_new
        if closure <= tol:
            return PeriodicOrbit(initial_state=s, period=T, closure_error=closure,
                                 iterations=it)
    raise NoConvergence(
        f"shooting did not reach tol={tol:.1e} in {max_iter} iterations "
        f"(closure {closure:.3e})"
    )
