"""Routh reduction for abelian-symmetry mechanical systems.

Momentum maps and cyclic-velocity elimination, Routhian dynamics on the
shape space, reconstruction by quadrature, a rigid body in an axially
symmetric field, and the equivalence of its zero-momentum motions with
particle dynamics and geodesic flow on the inertia ellipsoid.
"""

from .errors import (
    ChartBoundary,
    ConfigError,
    GridMismatch,
    InvalidParams,
    MaxStepsExceeded,
    MomentumMismatch,
    NoConvergence,
    NonPositiveFactor,
    NotPositiveDefinite,
    OffSurface,
    RouthkitError,
    SingularReducedMass,
    SpanTooShort,
    StepFailure,
)
from .reduction import (
    FullState,
    MomentumValue,
    ReducedState,
    SymmetricSystem,
    complete_state,
    energy_full,
    evaluate_metric,
    lagrangian_full,
    mass_matrix_blocks,
    metric_grad,
    momentum_map,
    reduced_energy,
    reduced_mass_matrix,
    routhian,
    shape_momentum,
    solve_cyclic,
    symplectic_det_pair,
)
from .integrate import (
    IntegratorConfig,
    PeriodicOrbit,
    Trajectory,
    TrajectoryMeta,
    cumulative_quadrature,
    integrate_full,
    integrate_grid,
    integrate_ode,
    integrate_reduced,
    propagate,
    reconstruct,
    reduced_vector_field,
    reparametrize_time,
    shoot_periodic,
)
from .rigidbody import (
    RigidBodyParams,
    heavy_potential,
    kolosov_reduced_lagrangian,
    lambda_average,
    psi_dot_zero_momentum,
    rb_system,
    rotating_frame_residual,
)
from .ellipsoid import (
    ConformalData,
    EllipsoidState,
    conformal_energy,
    conformal_factor,
    conformal_factor_grad,
    constrained_flow,
    dsigma_length,
    kolosov_map,
    kolosov_potential,
    kolosov_velocity,
    maupertuis_speed,
    principal_section_orbits,
    project_to_surface,
    section_seed,
    surface_residual,
)
from .systems import central_force_system, constant_matrix_system, harmonic_radial_potential

__version__ = "0.1.0"
