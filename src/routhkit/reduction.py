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
import operator
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
# Python floats by a kernel written out for d <= 3; numpy's per-call
# overhead outweighs the work below it.
_FLOAT_MAX_DIM = 3
# Row and column indices of the packed upper triangle (row-major) and its
# length, for the sizes a system may hand its metric in packed form.
_UPPER = {d: tuple(zip(*[(i, j) for i in range(d) for j in range(i, d)])) for d in (1, 2, 3)}
_PACKED = {d: len(rows) for d, (rows, _) in _UPPER.items()}

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
            For d = n+k+l <= 3 it may instead return the packed upper
            triangle: a flat tuple of d(d+1)/2 floats in row-major order,
            (K00, K01, K02, K11, K12, K22) for d = 3.  A packed triangle is
            checked for its length, finiteness and positive pivots; a
            full matrix for its shape, finiteness, symmetry and positive
            pivots.  The public metric names (``evaluate_metric``,
            ``metric_grad``, ...) return full arrays either way.
        potential: Callable q -> potential energy.
        pole_guard: Optional callable q -> distance to the chart boundary.
            Evaluations with guard value below ``BOUNDARY_TOL`` raise
            ChartBoundary.
        name: Short identifier used in trajectory metadata.
        mass_matrix_grad: Optional callable q -> (n, d, d) array whose
            entry b is dK/dq_b, or for d <= 3 a tuple of n packed
            triangles.  Without it the dynamics take central differences
            of ``mass_matrix``.
        potential_grad: Optional callable q -> (n,) gradient of the
            potential (an array, or a tuple of n floats).  Without it the
            dynamics take central differences of ``potential``.
    """

    n: int
    k: int
    l: int
    mass_matrix: Callable[[np.ndarray], object]
    potential: Callable[[np.ndarray], float]
    pole_guard: Optional[Callable[[np.ndarray], float]] = None
    name: str = "system"
    mass_matrix_grad: Optional[Callable[[np.ndarray], object]] = None
    potential_grad: Optional[Callable[[np.ndarray], object]] = None

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


def _unpack(P, d: int) -> np.ndarray:
    """Full symmetric d x d matrix from its packed upper triangle."""
    rows, cols = _UPPER[d]
    K = np.empty((d, d))
    K[rows, cols] = P
    K[cols, rows] = P
    return K


def _wrong_size(raw: tuple, d: int, what: str) -> ValueError:
    return ValueError(f"packed {what} must have {_PACKED[d]} entries, got {len(raw)}")


def _as_matrix(raw, d: int) -> np.ndarray:
    """A metric as returned by a system, as a (d, d) array; the shape is checked."""
    if isinstance(raw, tuple) and d in _UPPER:
        if len(raw) != _PACKED[d]:
            raise _wrong_size(raw, d, "kinetic matrix")
        return _unpack(raw, d)
    K = np.asarray(raw, dtype=float)
    if K.shape != (d, d):
        raise ValueError(f"kinetic matrix must be ({d},{d}), got {K.shape}")
    return K


def _metric_raw(sys: SymmetricSystem, q: np.ndarray) -> np.ndarray:
    """Guarded metric evaluation as a full matrix, without definiteness checks.

    Used for finite-difference probe points a step away from a state whose
    matrix was already validated.
    """
    guard_chart(sys, q)
    return _as_matrix(sys.mass_matrix(q), sys.dim)


_NON_FINITE = "kinetic matrix has a non-finite entry"
_INDEFINITE = "kinetic matrix is not positive definite"


def _pivot(value: float) -> float:
    if not value > 0.0:
        raise NotPositiveDefinite(_INDEFINITE)
    return math.sqrt(value)


def _factor(P) -> tuple:
    """Cyclic-first Cholesky factor of a packed kinetic matrix, d <= 3.

    The factor is lower triangular for the matrix with its coordinates in
    reverse order, so the cyclic block comes first; it is stored row by
    row, (l00, l10, l11, l20, l21, l22) for d = 3, and its leading m rows
    factor the trailing m x m block of K.  A pivot that is not > 0 is the
    definiteness check.
    """
    if len(P) == 6:
        k00, k01, k02, k11, k12, k22 = P
        l00 = _pivot(k22)
        l10 = k12 / l00
        l20 = k02 / l00
        l11 = _pivot(k11 - l10 * l10)
        l21 = (k01 - l20 * l10) / l11
        return l00, l10, l11, l20, l21, _pivot(k00 - l20 * l20 - l21 * l21)
    if len(P) == 3:
        k00, k01, k11 = P
        l00 = _pivot(k11)
        l10 = k01 / l00
        return l00, l10, _pivot(k00 - l10 * l10)
    return (_pivot(P[0]),)


def _solve(L: tuple, b: list) -> list:
    """Solve B x = b for the trailing len(b) x len(b) block B of K.

    ``L`` is K's ``_factor`` factor; its leading rows factor B.  ``b`` and
    the result are in K's coordinate order.
    """
    if len(b) == 3:
        l00, l10, l11, l20, l21, l22 = L
        y0 = b[2] / l00
        y1 = (b[1] - l10 * y0) / l11
        y2 = (b[0] - l20 * y0 - l21 * y1) / l22 / l22
        y1 = (y1 - l21 * y2) / l11
        return [y2, y1, (y0 - l10 * y1 - l20 * y2) / l00]
    if len(b) == 2:
        l00, l10, l11 = L[:3]
        y0 = b[1] / l00
        y1 = (b[0] - l10 * y0) / l11 / l11
        return [y1, (y0 - l10 * y1) / l00]
    if len(b) == 1:
        return [b[0] / L[0] / L[0]]
    return []


def _sym_mv(P, v) -> list:
    """Packed symmetric matrix times v (d <= 3)."""
    if len(v) == 3:
        p0, p1, p2, p3, p4, p5 = P
        v0, v1, v2 = v
        return [p0 * v0 + p1 * v1 + p2 * v2,
                p1 * v0 + p3 * v1 + p4 * v2,
                p2 * v0 + p4 * v1 + p5 * v2]
    if len(v) == 2:
        p0, p1, p2 = P
        v0, v1 = v
        return [p0 * v0 + p1 * v1, p1 * v0 + p2 * v1]
    return [P[0] * v[0]]


def _force(dK, g, v: list, n: int) -> list:
    """Generalized force on packed derivatives dK_b = dK/dq_b (d <= 3).

    Every row carries -sum_b qdot_b (dK_b v); the shape rows a < n add
    0.5 v.dK_a v - g_a.
    """
    quad = []
    if len(v) == 3:
        v0, v1, v2 = v
        f0 = f1 = f2 = 0.0
        for b in range(n):
            p0, p1, p2, p3, p4, p5 = dK[b]
            t0 = p0 * v0 + p1 * v1 + p2 * v2
            t1 = p1 * v0 + p3 * v1 + p4 * v2
            t2 = p2 * v0 + p4 * v1 + p5 * v2
            vb = v[b]
            f0 += vb * t0
            f1 += vb * t1
            f2 += vb * t2
            quad.append(0.5 * (t0 * v0 + t1 * v1 + t2 * v2) - g[b])
        force = [-f0, -f1, -f2]
    elif len(v) == 2:
        v0, v1 = v
        f0 = f1 = 0.0
        for b in range(n):
            p0, p1, p2 = dK[b]
            t0 = p0 * v0 + p1 * v1
            t1 = p1 * v0 + p2 * v1
            vb = v[b]
            f0 += vb * t0
            f1 += vb * t1
            quad.append(0.5 * (t0 * v0 + t1 * v1) - g[b])
        force = [-f0, -f1]
    else:
        p0 = dK[0][0]
        v0 = v[0]
        t0 = p0 * v0
        force = [-(v0 * t0)]
        quad.append(0.5 * (t0 * v0) - g[0])
    for a in range(n):
        force[a] += quad[a]
    return force


def _asymmetric(defect: float) -> NotPositiveDefinite:
    return NotPositiveDefinite(
        f"kinetic matrix asymmetric: |K - K^T| = {defect:.3e} exceeds "
        f"{SYMMETRY_TOL:.1e} relative"
    )


def _checked_metric(sys: SymmetricSystem, q: np.ndarray):
    """Guarded and validated kinetic matrix at q, with its float factor.

    A packed triangle gets the length and finiteness checks; it is
    symmetric by construction.  A full matrix gets the shape, finiteness
    and symmetry checks.  Every matrix gets the definiteness check.

    Returns:
        (K, L): for d <= ``_FLOAT_MAX_DIM`` the packed upper triangle of the
        kinetic matrix as floats and its ``_factor`` factor; for larger d
        the (d, d) matrix and None (validated and solved with numpy).

    Raises:
        ChartBoundary: q is within the pole-guard distance of the boundary.
        NotPositiveDefinite: the matrix has a non-finite entry, is
            asymmetric beyond tolerance, or its Cholesky factorization fails.
        ValueError: the matrix is not d x d, or a packed triangle has the
            wrong number of entries.
    """
    d = sys.dim
    guard_chart(sys, q)
    raw = sys.mass_matrix(q)
    if d <= _FLOAT_MAX_DIM and isinstance(raw, tuple):
        if len(raw) != _PACKED[d]:
            raise _wrong_size(raw, d, "kinetic matrix")
        if not all(map(math.isfinite, raw)):
            raise NotPositiveDefinite(_NON_FINITE)
        return raw, _factor(raw)
    K = _as_matrix(raw, d)
    top = float(np.abs(K).max())    # NaN or inf when an entry is not finite
    if not math.isfinite(top):
        raise NotPositiveDefinite(_NON_FINITE)
    scale = max(1.0, top)
    defect = float(np.abs(K - K.T).max())
    if defect > SYMMETRY_TOL * scale:
        raise _asymmetric(defect)
    if d <= _FLOAT_MAX_DIM:
        P = K[_UPPER[d]].tolist()
        return P, _factor(P)
    try:
        np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(_INDEFINITE) from exc
    return K, None


def evaluate_metric(sys: SymmetricSystem, q) -> np.ndarray:
    """Evaluate and validate the kinetic matrix at q.

    Returns the (d, d) matrix, also for a system that hands it packed.

    Raises:
        ChartBoundary: q is within the pole-guard distance of the boundary.
        NotPositiveDefinite: the matrix has a non-finite entry, is
            asymmetric beyond tolerance, or a Cholesky factorization fails.
        ValueError: the matrix is not d x d, or a packed triangle has the
            wrong number of entries.
    """
    K, L = _checked_metric(sys, np.asarray(q, dtype=float))
    return K if L is None else _unpack(K, sys.dim)


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
    K, L = _checked_metric(sys, s.q)
    v = s.velocity()
    p = np.array(_sym_mv(K, v.tolist())[sys.n:]) if L is not None else K[sys.n:, :] @ v
    return MomentumValue(xi=p[:sys.k], eta=p[sys.k:])


def _cyclic_rates(sys: SymmetricSystem, K, L, qdot, c):
    """Cyclic velocities D^-1 (c - Kcq qdot) from ``_checked_metric``'s (K, L).

    With a float factor L, qdot, c and the result are lists of floats;
    otherwise arrays.
    """
    n = sys.n
    if L is None:
        rhs = c - K[n:, :n] @ qdot
        if sys.n_cyclic == 1:
            return rhs / K[n, n]
        return np.linalg.solve(K[n:, n:], rhs)
    m = sys.n_cyclic
    if m == 0:
        return []
    Kv = _sym_mv(K, qdot + [0.0] * m)    # cyclic rows: Kcq qdot
    if m == 1:
        return [(c[0] - Kv[n]) / K[-1]]
    return _solve(L, [c[0] - Kv[1], c[1] - Kv[2]])     # d = 3, n = 1


def _complete(sys: SymmetricSystem, f: MomentumValue, q, qdot):
    """State completed at fixed momentum from one validated metric evaluation.

    Returns:
        (q, K, v): the validated shape position, ``_checked_metric``'s
        kinetic matrix at q, and the full velocity (qdot, cyclic velocities
        solving the momentum constraint).  For d <= ``_FLOAT_MAX_DIM`` K is
        packed and v a list of floats, otherwise both are arrays.
    """
    q = _finite_vector(q, sys.n, "q")
    qdot = _finite_vector(qdot, sys.n, "qdot")
    if f.xi.size != sys.k or f.eta.size != sys.l:
        raise ValueError(
            f"momentum dimensions ({f.xi.size},{f.eta.size}) do not match "
            f"system ({sys.k},{sys.l})"
        )
    K, L = _checked_metric(sys, q)
    if L is None:
        return q, K, np.concatenate([qdot, _cyclic_rates(sys, K, L, qdot, f.as_vector())])
    qdot = qdot.tolist()
    return q, K, qdot + _cyclic_rates(sys, K, L, qdot, f.as_vector().tolist())


def _kinetic_potential(sys: SymmetricSystem, q, K, v):
    """Kinetic energy 0.5 v.K v (K full, or packed) and potential V(q)."""
    if isinstance(K, np.ndarray):
        kin = float(v @ K @ v)
    else:
        kin = sum(map(operator.mul, v, _sym_mv(K, v)))
    return 0.5 * kin, float(sys.potential(q))


def solve_cyclic(sys: SymmetricSystem, q, qdot, f: MomentumValue) -> np.ndarray:
    """Cyclic velocities at fixed momentum: solve D w = (xi, eta) - Kcq qdot.

    Unique because D inherits positive definiteness from the full matrix.

    Returns:
        w, shape (k+l,): the line-type rates xdot, then the angle rates psidot.
    """
    _, _, v = _complete(sys, f, q, qdot)
    return np.array(v[sys.n:], dtype=float)


def complete_state(sys: SymmetricSystem, f: MomentumValue, r: ReducedState,
                   x=None, psi=None) -> FullState:
    """Lift a reduced state to the momentum level set, fixing cyclic positions."""
    w = solve_cyclic(sys, r.q, r.qdot, f)
    x = np.zeros(sys.k) if x is None else _finite_vector(x, sys.k, "x")
    psi = np.zeros(sys.l) if psi is None else _finite_vector(psi, sys.l, "psi")
    return FullState(q=r.q, x=x, psi=psi, qdot=r.qdot, xdot=w[:sys.k], psidot=w[sys.k:])


def _full_kinetic_potential(sys: SymmetricSystem, s: FullState):
    K, L = _checked_metric(sys, s.q)
    v = s.velocity()
    return _kinetic_potential(sys, s.q, K, v if L is None else v.tolist())


def lagrangian_full(sys: SymmetricSystem, s: FullState) -> float:
    """Full Lagrangian: kinetic energy minus potential."""
    kin, pot = _full_kinetic_potential(sys, s)
    return kin - pot


def energy_full(sys: SymmetricSystem, s: FullState) -> float:
    """Full energy: kinetic energy plus potential."""
    kin, pot = _full_kinetic_potential(sys, s)
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

    Uses the system's closed form when it supplies ``mass_matrix_grad``
    (full or packed), otherwise central differences of the guarded metric.

    Raises:
        ChartBoundary: q is within the pole-guard distance of the boundary.
        ValueError: the closed form is not (n, d, d), nor n packed
            triangles of the right length.
    """
    guard_chart(sys, q)
    return _metric_grad(sys, q, packed=False)


def _metric_grad(sys: SymmetricSystem, q: np.ndarray, packed: bool):
    """``metric_grad`` at a q the caller has already guarded.

    Returns n packed triangles when ``packed`` (d <= 3), else (n, d, d).
    """
    n, d = sys.n, sys.dim
    if sys.mass_matrix_grad is None:
        dK = gradient(lambda p: _metric_raw(sys, p), q)
    else:
        dK = sys.mass_matrix_grad(q)
        if isinstance(dK, tuple) and d in _UPPER:
            if len(dK) != n:
                raise ValueError(
                    f"packed kinetic matrix derivative must have {n} triangles, got {len(dK)}"
                )
            for D in dK:
                if len(D) != _PACKED[d]:
                    raise _wrong_size(D, d, "kinetic matrix derivative")
            return dK if packed else np.array([_unpack(D, d) for D in dK])
        dK = np.asarray(dK, dtype=float)
        if dK.shape != (n, d, d):
            raise ValueError(
                f"kinetic matrix derivative must be ({n},{d},{d}), got {dK.shape}"
            )
    if packed:
        rows, cols = _UPPER[d]
        return dK[:, rows, cols].tolist()
    return dK


def _grad_array(sys: SymmetricSystem, grad) -> np.ndarray:
    grad = np.asarray(grad, dtype=float)
    if grad.shape != (sys.n,):
        raise ValueError(f"potential gradient must be ({sys.n},), got {grad.shape}")
    return grad


def potential_grad(sys: SymmetricSystem, q: np.ndarray) -> np.ndarray:
    """Gradient of the potential in the shape coordinates.

    Uses the system's closed form when it supplies ``potential_grad``,
    otherwise central differences of ``potential``.
    """
    if sys.potential_grad is None:
        return gradient(sys.potential, q)
    return _grad_array(sys, sys.potential_grad(q))


def _potential_floats(sys: SymmetricSystem, q: np.ndarray):
    """``potential_grad`` as n floats, for the float kernel."""
    if sys.potential_grad is None:
        return gradient(sys.potential, q).tolist()
    grad = sys.potential_grad(q)
    if isinstance(grad, tuple) and len(grad) == sys.n:
        return grad
    return _grad_array(sys, grad).tolist()


def accel(sys: SymmetricSystem, q: np.ndarray, v, K, L) -> list:
    """Euler-Lagrange acceleration of the full system at (q, v).

    d/dt (K v) = dL/dq with (K, L) from ``_checked_metric`` at q, which also
    guarded q: the cyclic rows carry no force, the shape rows carry
    0.5 v.(dK/dq_a) v - dV/dq_a.  With a float factor L the force is
    assembled on the packed derivatives and solved on floats, v being a
    list of floats; otherwise with numpy.
    """
    n = sys.n
    if L is None:
        v = np.asarray(v, dtype=float)
        T = _metric_grad(sys, q, packed=False) @ v      # T[b] = (dK/dq_b) v
        force = -(v[:n] @ T)
        force[:n] += 0.5 * (T @ v) - potential_grad(sys, q)
        return np.linalg.solve(K, force).tolist()
    force = _force(_metric_grad(sys, q, packed=True), _potential_floats(sys, q), v, n)
    return _solve(L, force)


def _reduced_accel(sys: SymmetricSystem, c: list, q: np.ndarray, qdot: list) -> list:
    """Shape acceleration of the Routhian at fixed momentum covector c.

    Routh's equations are the shape rows of the full Euler-Lagrange system
    on the momentum level set, so the state is completed with its cyclic
    velocities and handed to the full kernel.
    """
    K, L = _checked_metric(sys, q)
    if L is not None:
        return accel(sys, q, qdot + _cyclic_rates(sys, K, L, qdot, c), K, L)[:sys.n]
    qdot = np.array(qdot)
    v = np.concatenate([qdot, _cyclic_rates(sys, K, L, qdot, np.array(c))])
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
    p = K @ np.asarray(v) if isinstance(K, np.ndarray) else _sym_mv(K, v)
    return np.array(p[:sys.n], dtype=float)


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
