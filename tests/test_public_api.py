"""The package's public names: adding or removing one is a deliberate edit here."""

import inspect

import routhkit

PUBLIC = {
    # errors
    "ChartBoundary", "ConfigError", "GridMismatch", "InvalidParams", "MaxStepsExceeded",
    "MomentumMismatch", "NoConvergence", "NonPositiveFactor", "NotPositiveDefinite",
    "OffSurface", "RouthkitError", "SingularReducedMass", "SpanTooShort", "StepFailure",
    # reduction
    "FullState", "MomentumValue", "ReducedState", "SymmetricSystem", "complete_state",
    "energy_full", "evaluate_metric", "lagrangian_full", "mass_matrix_blocks", "metric_grad",
    "momentum_map", "reduced_energy", "reduced_mass_matrix", "routhian", "shape_momentum",
    "solve_cyclic", "symplectic_det_pair",
    # integrate
    "IntegratorConfig", "PeriodicOrbit", "Trajectory", "TrajectoryMeta",
    "cumulative_quadrature", "integrate_full", "integrate_grid", "integrate_ode",
    "integrate_reduced", "propagate", "reconstruct", "reduced_vector_field",
    "reparametrize_time", "shoot_periodic",
    # rigidbody
    "RigidBodyParams", "heavy_potential", "kolosov_reduced_lagrangian", "lambda_average",
    "psi_dot_zero_momentum", "rb_system", "rotating_frame_residual",
    # ellipsoid
    "ConformalData", "EllipsoidState", "conformal_energy", "conformal_factor",
    "conformal_factor_grad", "constrained_flow", "dsigma_length", "kolosov_map",
    "kolosov_potential", "kolosov_velocity", "maupertuis_speed", "principal_section_orbits",
    "project_to_surface", "section_seed", "surface_residual",
    # systems
    "central_force_system", "constant_matrix_system", "harmonic_radial_potential",
}


def test_package_exports_exactly_the_public_names():
    # submodules become package attributes once imported, so they are not counted
    exported = {name for name, obj in vars(routhkit).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == PUBLIC
