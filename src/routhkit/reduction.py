"""Momentum map, cyclic-velocity elimination, and reduced dynamics.

Everything here works on a mechanical system with an abelian symmetry
group presented in a single adapted chart: shape coordinates ``q``,
line-type cyclic coordinates ``x``, and angle-type cyclic coordinates
``psi``.  The kinetic matrix and the potential depend on ``q`` only; the
group acts by translations in the cyclic coordinates.  All operations are
pure functions of their inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ChartBoundary,
    NotPositiveDefinite,
    SingularReducedMass,
)

# Evaluations closer than this to the chart boundary are refused.
BOUNDARY_TOL = 1e-6
# Relative tolerance on the symmetry defect of the kinetic matrix.
SYMMETRY_TOL = 1e-12
# Kinetic matrices up to this size are validated, factored and solved on
# Python floats; numpy's per-call overhead outweighs the work below it.
_FLOAT_MAX_DIM = 3

TWO_PI = 2.0 * np.pi


def _finite_vector(value, size: int, name: str) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    if vec.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} must be finite, got {vec}")
    return vec


@dataclass(frozen=True)
class SymmetricSystem:
    """Mechanical system with abelian symmetry in one adapted chart.

    Attributes:
        n: Number of shape coordinates q.
        k: Number of line-type cyclic coordinates x.
        l: Number of angle-type cyclic coordinates psi.
        mass_matrix: Callable q -> symmetric positive definite
            (n+k+l) x (n+k+l) kinetic matrix (energy per squared velocity).
        potential: Callable q -> potential energy.
        pole_guard: Optional callable q -> distance to the chart boundary.
            Evaluations with guard value below ``BOUNDARY_TOL`` raise
            ChartBoundary.
        name: Short identifier used in trajectory metadata.
        mass_matrix_grad: Optional callable q -> (n, d, d) array whose
            entry b is dK/dq_b.  Without it the dynamics take central
            differences of ``mass_matrix``.
        potential_grad: Optional callable q -> (n,) gradient of the
            potential.  Without it the dynamics take central differences
            of ``potential``.
    """

    n: int
    k: int
    l: int
    mass_matrix: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], float]
    pole_guard: Optional[Callable[[np.ndarray], float]] = None
    name: str = "system"
    mass_matrix_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    potential_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one shape coordinate")
        if self.k < 0 or self.l < 0:
            raise ValueError("cyclic coordinate counts must be non-negative")

    @property
    def dim(self) -> int:
        """Total configuration dimension n + k + l."""
        return self.n + self.k + self.l

    @property
    def n_cyclic(self) -> int:
        return self.k + self.l


@dataclass(frozen=True)
class MomentumValue:
    """Fixed value of the momentum integral: a covector (xi, eta)."""

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", _finite_vector(self.xi, np.size(self.xi), "xi"))
        object.__setattr__(self, "eta", _finite_vector(self.eta, np.size(self.eta), "eta"))

    @classmethod
    def zero(cls, k: int, l: int) -> "MomentumValue":
        return cls(xi=np.zeros(k), eta=np.zeros(l))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.xi, self.eta])

    def matches(self, other: "MomentumValue") -> bool:
        """Exact (bitwise) equality; reconstruction requires it."""
        return np.array_equal(self.xi, other.xi) and np.array_equal(self.eta, other.eta)


@dataclass(frozen=True)
class ReducedState:
    """Point of the reduced phase space: shape position and velocity."""

    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _finite_vector(self.q, np.size(self.q), "q"))
        object.__setattr__(self, "qdot", _finite_vector(self.qdot, np.size(self.q), "qdot"))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.qdot])

    @classmethod
    def from_vector(cls, sys: SymmetricSystem, vec) -> "ReducedState":
        vec = np.asarray(vec, dtype=float)
        n = sys.n
        return cls(q=vec[:n], qdot=vec[n:2 * n])


@dataclass(frozen=True)
class FullState:
    """Point of the full phase space; psi is normalized into [0, 2*pi)."""

    q: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    qdot: np.ndarray
    xdot: np.ndarray
    psidot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _finite_vector(self.q, np.size(self.q), "q"))
        object.__setattr__(self, "x", _finite_vector(self.x, np.size(self.x), "x"))
        psi = _finite_vector(self.psi, np.size(self.psi), "psi")
        object.__setattr__(self, "psi", np.mod(psi, TWO_PI))
        object.__setattr__(self, "qdot", _finite_vector(self.qdot, np.size(self.q), "qdot"))
        object.__setattr__(self, "xdot", _finite_vector(self.xdot, np.size(self.x), "xdot"))
        object.__setattr__(self, "psidot", _finite_vector(self.psidot, np.size(self.psi), "psidot"))

    def velocity(self) -> np.ndarray:
        return np.concatenate([self.qdot, self.xdot, self.psidot])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.x, self.psi, self.qdot, self.xdot, self.psidot])

    @classmethod
    def from_vector(cls, sys: SymmetricSystem, vec) -> "FullState":
        vec = np.asarray(vec, dtype=float)
        n, k, l = sys.n, sys.k, sys.l
        d = sys.dim
        return cls(
            q=vec[:n], x=vec[n:n + k], psi=vec[n + k:d],
            qdot=vec[d:d + n], xdot=vec[d + n:d + n + k], psidot=vec[d + n + k:2 * d],
        )


def guard_chart(sys: SymmetricSystem, q: np.ndarray) -> None:
    """Raise ChartBoundary when q is within the guard distance of the boundary."""
    if sys.pole_guard is not None:
        dist = float(sys.pole_guard(np.asarray(q, dtype=float)))
        if dist < BOUNDARY_TOL:
            raise ChartBoundary(
                f"state within {dist:.3e} of the chart boundary (guard {BOUNDARY_TOL:.1e})"
            )


def _metric_raw(sys: SymmetricSystem, q: np.ndarray) -> np.ndarray:
    """Guarded metric evaluation without definiteness checks.

    Used for finite-difference probe points a step away from a state whose
    matrix was already validated.
    """
    guard_chart(sys, q)
    K = np.asarray(sys.mass_matrix(q), dtype=float)
    if K.shape != (sys.dim, sys.dim):
        raise ValueError(f"kinetic matrix must be ({sys.dim},{sys.dim}), got {K.shape}")
    return K


def _asymmetric(defect: float) -> NotPositiveDefinite:
    return NotPositiveDefinite(
        f"kinetic matrix asymmetric: |K - K^T| = {defect:.3e} exceeds "
        f"{SYMMETRY_TOL:.1e} relative"
    )


_NON_FINITE = "kinetic matrix has a non-finite entry"
_INDEFINITE = "kinetic matrix is not positive definite"


def _float_factor(rows: list) -> list:
    """Validate a small kinetic matrix on floats and return its Cholesky factor.

    The factor is lower triangular, stored as ragged rows, for the matrix
    with its coordinates in reverse order, so the cyclic block comes
    first: the leading (k+l) rows factor the reversed cyclic block D.  A
    pivot that is not > 0 is the definiteness check.
    """
    d = len(rows)
    flat = [x for row in rows for x in row]
    if not all(map(math.isfinite, flat)):
        raise NotPositiveDefinite(_NON_FINITE)
    scale = max(1.0, max(flat), -min(flat))
    defect = 0.0
    for i in range(d):
        row = rows[i]
        for j in range(i):
            defect = max(defect, abs(row[j] - rows[j][i]))
    if defect > SYMMETRY_TOL * scale:
        raise _asymmetric(defect)
    L = []
    for i in range(d - 1, -1, -1):
        row = rows[i]
        out = []
        for j, Lj in enumerate(L):
            acc = row[d - 1 - j]
            for p in range(j):
                acc -= out[p] * Lj[p]
            out.append(acc / Lj[j])
        acc = row[i]
        for x in out:
            acc -= x * x
        if not acc > 0.0:
            raise NotPositiveDefinite(_INDEFINITE)
        out.append(math.sqrt(acc))
        L.append(out)
    return L


def _factor_solve(L: list, b: list) -> list:
    """Solve (L L^T) x = b on floats with the leading len(b) rows of L.

    ``b`` and the result are in the factor's (reversed) coordinate order.
    """
    m = len(b)
    y = list(b)
    for i in range(m):
        Li = L[i]
        acc = y[i]
        for p in range(i):
            acc -= Li[p] * y[p]
        y[i] = acc / Li[i]
    for i in range(m - 1, -1, -1):
        acc = y[i]
        for p in range(i + 1, m):
            acc -= L[p][i] * y[p]
        y[i] = acc / L[i][i]
    return y


def _checked_metric(sys: SymmetricSystem, q: np.ndarray):
    """Guarded and validated kinetic matrix at q, with its float factor.

    Returns:
        (K, L): the kinetic matrix, and for d <= ``_FLOAT_MAX_DIM`` its
        cyclic-first Cholesky factor from ``_float_factor`` (None for
        larger d, which validate and solve with numpy).

    Raises:
        ChartBoundary: q is within the pole-guard distance of the boundary.
        NotPositiveDefinite: the matrix has a non-finite entry, is
            asymmetric beyond tolerance, or its Cholesky factorization fails.
        ValueError: the matrix is not d x d.
    """
    K = _metric_raw(sys, q)
    if sys.dim <= _FLOAT_MAX_DIM:
        return K, _float_factor(K.tolist())
    top = float(np.abs(K).max())    # NaN or inf when an entry is not finite
    if not math.isfinite(top):
        raise NotPositiveDefinite(_NON_FINITE)
    scale = max(1.0, top)
    defect = float(np.abs(K - K.T).max())
    if defect > SYMMETRY_TOL * scale:
        raise _asymmetric(defect)
    try:
        np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(_INDEFINITE) from exc
    return K, None


def evaluate_metric(sys: SymmetricSystem, q) -> np.ndarray:
    """Evaluate and validate the kinetic matrix at q.

    Raises:
        ChartBoundary: q is within the pole-guard distance of the boundary.
        NotPositiveDefinite: the matrix has a non-finite entry, is
            asymmetric beyond tolerance, or a Cholesky factorization fails.
        ValueError: the matrix is not d x d.
    """
    return _checked_metric(sys, np.asarray(q, dtype=float))[0]


def mass_matrix_blocks(sys: SymmetricSystem, q):
    """Partition the kinetic matrix into shape/coupling/cyclic blocks.

    Returns:
        (Kqq, Kqc, D): the n x n shape block, the n x (k+l) coupling block,
        and the (k+l) x (k+l) cyclic block D (symmetric positive definite).
    """
    K = evaluate_metric(sys, q)
    n = sys.n
    return K[:n, :n].copy(), K[:n, n:].copy(), K[n:, n:].copy()


def momentum_map(sys: SymmetricSystem, s: FullState) -> MomentumValue:
    """Momentum integral of a full state: cyclic rows of K times the velocity."""
    K = evaluate_metric(sys, s.q)
    p = K[sys.n:, :] @ s.velocity()
    return MomentumValue(xi=p[:sys.k], eta=p[sys.k:])


def _cyclic_rates(sys: SymmetricSystem, K: np.ndarray, L, qdot: np.ndarray,
                  c: np.ndarray) -> np.ndarray:
    """Cyclic velocities D^-1 (c - Kcq qdot) from ``_checked_metric``'s (K, L)."""
    n = sys.n
    rhs = c - K[n:, :n] @ qdot
    if sys.n_cyclic == 1:
        return rhs / K[n, n]
    if L is None:
        return np.linalg.solve(K[n:, n:], rhs)
    return np.array(_factor_solve(L, rhs.tolist()[::-1])[::-1])


def _complete(sys: SymmetricSystem, f: MomentumValue, q, qdot):
    """State completed at fixed momentum from one validated metric evaluation.

    Returns:
        (q, K, v): the validated shape position, the kinetic matrix at q,
        and the full velocity (qdot, cyclic velocities solving the
        momentum constraint).
    """
    q = _finite_vector(q, sys.n, "q")
    qdot = _finite_vector(qdot, sys.n, "qdot")
    if f.xi.size != sys.k or f.eta.size != sys.l:
        raise ValueError(
            f"momentum dimensions ({f.xi.size},{f.eta.size}) do not match "
            f"system ({sys.k},{sys.l})"
        )
    K, L = _checked_metric(sys, q)
    return q, K, np.concatenate([qdot, _cyclic_rates(sys, K, L, qdot, f.as_vector())])


def _kinetic_potential(sys: SymmetricSystem, q, K: np.ndarray, v: np.ndarray):
    """Kinetic energy 0.5 v.K v and potential V(q)."""
    return 0.5 * float(v @ K @ v), float(sys.potential(q))


def solve_cyclic(sys: SymmetricSystem, q, qdot, f: MomentumValue) -> np.ndarray:
    """Cyclic velocities at fixed momentum: solve D w = (xi, eta) - Kcq qdot.

    Unique because D inherits positive definiteness from the full matrix.

    Returns:
        w, shape (k+l,): the line-type rates xdot, then the angle rates psidot.
    """
    _, _, v = _complete(sys, f, q, qdot)
    return v[sys.n:]


def complete_state(sys: SymmetricSystem, f: MomentumValue, r: ReducedState,
                   x=None, psi=None) -> FullState:
    """Lift a reduced state to the momentum level set, fixing cyclic positions."""
    w = solve_cyclic(sys, r.q, r.qdot, f)
    x = np.zeros(sys.k) if x is None else _finite_vector(x, sys.k, "x")
    psi = np.zeros(sys.l) if psi is None else _finite_vector(psi, sys.l, "psi")
    return FullState(q=r.q, x=x, psi=psi, qdot=r.qdot, xdot=w[:sys.k], psidot=w[sys.k:])


def lagrangian_full(sys: SymmetricSystem, s: FullState) -> float:
    """Full Lagrangian: kinetic energy minus potential."""
    kin, pot = _kinetic_potential(sys, s.q, evaluate_metric(sys, s.q), s.velocity())
    return kin - pot


def energy_full(sys: SymmetricSystem, s: FullState) -> float:
    """Full energy: kinetic energy plus potential."""
    kin, pot = _kinetic_potential(sys, s.q, evaluate_metric(sys, s.q), s.velocity())
    return kin + pot


def routhian(sys: SymmetricSystem, f: MomentumValue, r: ReducedState) -> float:
    """Routhian at fixed momentum.

    Completes the state with the cyclic velocities solving the momentum
    constraint, evaluates the full Lagrangian there, and subtracts the
    pairing of the momentum with the cyclic velocities.  At zero momentum
    this is exactly the full Lagrangian of the completed state.
    """
    q, K, v = _complete(sys, f, r.q, r.qdot)
    kin, pot = _kinetic_potential(sys, q, K, v)
    return kin - pot - float(f.as_vector() @ v[sys.n:])


def reduced_energy(sys: SymmetricSystem, f: MomentumValue, r: ReducedState) -> float:
    """Energy of the completed state; constant along reduced trajectories."""
    q, K, v = _complete(sys, f, r.q, r.qdot)
    kin, pot = _kinetic_potential(sys, q, K, v)
    return kin + pot


def reduced_mass_matrix(sys: SymmetricSystem, q) -> np.ndarray:
    """Schur complement of the cyclic block: Kqq - Kqc D^-1 Kqc^T.

    Equals the velocity Hessian of the Routhian; the velocity-quadratic
    part of the Routhian does not depend on the momentum value.
    """
    Kqq, Kqc, D = mass_matrix_blocks(sys, q)
    return Kqq - Kqc @ np.linalg.solve(D, Kqc.T)


def fd_step(value: float) -> float:
    """Finite-difference step for first derivatives: max(1e-6, 1e-6 |value|)."""
    return max(1e-6, 1e-6 * abs(value))


def gradient(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference derivative of fn along each coordinate of x.

    Returns an array of shape (x.size,) + shape of fn(x): the gradient of
    a scalar function, or the stacked partial derivatives of a matrix one.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for j in range(x.size):
        h = fd_step(x[j])
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        out.append((fn(xp) - fn(xm)) / (2.0 * h))
    return np.array(out, dtype=float)


def metric_grad(sys: SymmetricSystem, q: np.ndarray) -> np.ndarray:
    """Shape derivatives of the kinetic matrix, stacked as (n, d, d).

    Uses the system's closed form when it supplies ``mass_matrix_grad``,
    otherwise central differences of the guarded metric.

    Raises:
        ChartBoundary: q is within the pole-guard distance of the boundary.
        ValueError: the closed form is not (n, d, d).
    """
    guard_chart(sys, q)
    return _metric_grad(sys, q)


def _metric_grad(sys: SymmetricSystem, q: np.ndarray) -> np.ndarray:
    """``metric_grad`` at a q the caller has already guarded."""
    if sys.mass_matrix_grad is None:
        return gradient(lambda p: _metric_raw(sys, p), q)
    dK = np.asarray(sys.mass_matrix_grad(q), dtype=float)
    if dK.shape != (sys.n, sys.dim, sys.dim):
        raise ValueError(
            f"kinetic matrix derivative must be ({sys.n},{sys.dim},{sys.dim}), got {dK.shape}"
        )
    return dK


def potential_grad(sys: SymmetricSystem, q: np.ndarray) -> np.ndarray:
    """Gradient of the potential in the shape coordinates.

    Uses the system's closed form when it supplies ``potential_grad``,
    otherwise central differences of ``potential``.
    """
    if sys.potential_grad is None:
        return gradient(sys.potential, q)
    grad = np.asarray(sys.potential_grad(q), dtype=float)
    if grad.shape != (sys.n,):
        raise ValueError(f"potential gradient must be ({sys.n},), got {grad.shape}")
    return grad


def accel(sys: SymmetricSystem, q: np.ndarray, v: np.ndarray, K: np.ndarray,
          factor=None) -> np.ndarray:
    """Euler-Lagrange acceleration of the full system at (q, v).

    d/dt (K v) = dL/dq with K = K(q) already validated, which also guarded
    q: the cyclic rows carry no force, the shape rows carry
    0.5 v.(dK/dq_a) v - dV/dq_a.
    ``factor`` is K's cyclic-first float Cholesky factor from
    ``_checked_metric``; without it the solve goes through numpy.
    """
    n = sys.n
    T = _metric_grad(sys, q) @ v         # T[b] = (dK/dq_b) v
    force = -(v[:n] @ T)
    force[:n] += 0.5 * (T @ v) - potential_grad(sys, q)
    if factor is None:
        return np.linalg.solve(K, force)
    return np.array(_factor_solve(factor, force.tolist()[::-1])[::-1])


def _reduced_accel(sys: SymmetricSystem, c: np.ndarray, q: np.ndarray,
                   qdot: np.ndarray) -> np.ndarray:
    """Shape acceleration of the Routhian at fixed momentum covector c.

    Routh's equations are the shape rows of the full Euler-Lagrange system
    on the momentum level set, so the state is completed with its cyclic
    velocities and handed to the full kernel.
    """
    K, L = _checked_metric(sys, q)
    v = np.concatenate([qdot, _cyclic_rates(sys, K, L, qdot, c)])
    try:
        return accel(sys, q, v, K, L)[:sys.n]
    except np.linalg.LinAlgError as exc:
        raise SingularReducedMass("reduced mass matrix solve failed") from exc


def shape_momentum(sys: SymmetricSystem, f: MomentumValue, q, qdot) -> np.ndarray:
    """Shape rows of the full fiber derivative at the completed state.

    This is the covector whose exterior derivative against dq builds the
    reduced symplectic form; it is evaluated directly from the full kinetic
    matrix, independently of the Schur-complement path.
    """
    _, K, v = _complete(sys, f, q, qdot)
    return (K @ v)[:sys.n]


def symplectic_det_pair(sys: SymmetricSystem, f: MomentumValue, r: ReducedState):
    """Two independent evaluations of the reduced symplectic determinant.

    The left side assembles the 2n x 2n coordinate matrix of the reduced
    symplectic form from central finite differences (``gradient``) of the
    shape momentum covector, the constrained derivative rule applied
    numerically; the right side is (det K / det D)^2 from plain block
    determinants.

    Returns:
        (lhs, rhs): both scalars; they agree to 1e-5 relative on interior
        states.
    """
    n = sys.n
    q, qdot = r.q, r.qdot
    A = gradient(lambda p: shape_momentum(sys, f, p, qdot), q).T     # dP_a / dq_b
    B = gradient(lambda u: shape_momentum(sys, f, q, u), qdot).T     # dP_a / dqdot_b

    omega = np.zeros((2 * n, 2 * n))
    omega[:n, :n] = A - A.T
    omega[:n, n:] = B
    omega[n:, :n] = -B.T
    lhs = float(np.linalg.det(omega))

    K = evaluate_metric(sys, q)
    rhs = (float(np.linalg.det(K)) / float(np.linalg.det(K[n:, n:]))) ** 2
    return lhs, rhs
