"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every tolerance is fixed here, not calibrated elsewhere.  The rigid body
is the triaxial free body (1, 2, 3) at zero momentum with the frozen
interior initial state from conftest; long runs use RK4 at dt = 1e-3 as
stated by the criteria.
"""

import numpy as np
import pytest

from routhkit import (
    ConformalData,
    IntegratorConfig,
    RigidBodyParams,
    complete_state,
    dsigma_length,
    integrate_full,
    integrate_ode,
    integrate_reduced,
    mass_matrix_blocks,
    principal_section_orbits,
    reconstruct,
)
from routhkit import reduction, verify
from routhkit.verify import (
    asymmetric_rejection_check,
    closed_form_lagrangian_check,
    determinant_identity_check,
    energy_drift,
    momentum_drift,
    momentum_round_trip_check,
    run_kolosov,
    zero_momentum_degeneration_check,
)

from conftest import check

DT = 1e-3


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def kolosov_report(triaxial_params, generic_state):
    """The kolosov report and the rescaled-time image of the acceptance run."""
    return run_kolosov(triaxial_params, generic_state, dt=DT)


@pytest.fixture(scope="module")
def matched_runs(triaxial_system, zero_momentum, generic_state):
    cfg = IntegratorConfig(method="rk4", dt=DT, max_steps=10_000_000)
    red = integrate_reduced(triaxial_system, zero_momentum, generic_state,
                            0.0, 10.0, cfg)
    s0 = complete_state(triaxial_system, zero_momentum, generic_state, psi=[0.5])
    full = integrate_full(triaxial_system, s0, 0.0, 10.0, cfg)
    return red, full


def test_criterion_1_momentum_round_trip():
    res = momentum_round_trip_check()
    assert res.tolerance == 1e-12
    ok = _report("criterion 1 momentum round-trip",
                 res.passed, f"worst relative residual {res.value:.3e} <= 1e-12")
    assert ok


def test_criterion_2_determinant_identity(triaxial_params):
    res = determinant_identity_check(triaxial_params)
    assert res.tolerance == 1e-5
    ok = _report("criterion 2 symplectic determinant identity",
                 res.passed, f"worst relative gap {res.value:.3e} <= 1e-5")
    assert ok


def test_criterion_3_zero_momentum_degeneration(triaxial_params):
    res_a = zero_momentum_degeneration_check(triaxial_params)
    res_b = closed_form_lagrangian_check(triaxial_params)
    assert res_a.tolerance == 1e-12 and res_b.tolerance == 1e-10
    ok = _report(
        "criterion 3 zero-momentum degeneration",
        res_a.passed and res_b.passed,
        f"Routhian vs Schur-complement Lagrangian {res_a.value:.3e} <= 1e-12; "
        f"closed chart form {res_b.value:.3e} <= 1e-10")
    assert ok


def test_degeneration_check_fails_without_the_schur_term(monkeypatch, triaxial_params):
    # the right side's reduced mass matrix without its cyclic correction is
    # the shape block of K alone, which is not the Routhian's kinetic term
    monkeypatch.setattr(verify, "reduced_mass_matrix",
                        lambda sys, q: mass_matrix_blocks(sys, q)[0])
    res = zero_momentum_degeneration_check(triaxial_params)
    assert not res.passed and res.value > 0.1


def test_asymmetric_rejection_check_fails_without_the_rejection(monkeypatch):
    # at a symmetry tolerance of 1 the injected defect 0.2 of the 2x2 matrix
    # passes, and the matrix is positive definite, so nothing is rejected
    monkeypatch.setattr(reduction, "SYMMETRY_TOL", 1.0)
    res = asymmetric_rejection_check()
    assert (res.passed, res.value) == (False, 1.0)


def test_criterion_4_projection_equivalence(triaxial_system, zero_momentum,
                                            matched_runs):
    red, full = matched_runs
    proj_gap = float(np.max(np.abs(full.states[:, [0, 1, 3, 4]] - red.states)))
    rec = reconstruct(triaxial_system, zero_momentum, red, x0=None, psi0=[0.5])
    psi_gap = float(np.max(np.abs(rec.states[:, 2] - full.states[:, 2])))
    ok = _report(
        "criterion 4 projection equivalence",
        proj_gap <= 1e-6 and psi_gap <= 1e-6,
        f"sup projection gap {proj_gap:.3e} <= 1e-6 over t=[0,10]; "
        f"reconstructed precession gap {psi_gap:.3e} <= 1e-6")
    assert ok


def test_criterion_5_conservation(triaxial_system, zero_momentum, generic_state):
    cfg = IntegratorConfig(method="rk4", dt=DT, max_steps=10_000_000)
    red = integrate_reduced(triaxial_system, zero_momentum, generic_state,
                            0.0, 100.0, cfg)
    drift_e = (energy_drift(triaxial_system, zero_momentum, red, stride=200)
               / abs(red.meta.energy0))

    s0 = complete_state(triaxial_system, zero_momentum, generic_state, psi=[0.5])
    full = integrate_full(triaxial_system, s0, 0.0, 50.0, cfg)
    drift_j = momentum_drift(triaxial_system, full, stride=200, reference=zero_momentum)

    ok = _report(
        "criterion 5 conservation",
        drift_e <= 1e-6 and drift_j <= 1e-7,
        f"reduced energy drift {drift_e:.3e} <= 1e-6 over t=100; "
        f"momentum drift {drift_j:.3e} <= 1e-7 over t=50")
    assert ok


def test_criterion_6_ellipsoid_equivalence(kolosov_report):
    rep, image = kolosov_report
    a = check(rep, "zero-energy-relation")
    b = check(rep, "conformal-flow-match")
    c = check(rep, "rescaled-speed-constancy")
    tau_end = float(image.times[-1])
    ok = _report(
        "criterion 6 ellipsoid equivalence",
        a["passed"] and b["passed"] and c["passed"] and tau_end >= rep["window"],
        f"zero-energy relation {a['value']:.3e} <= 1e-6; "
        f"flow sup gap {b['value']:.3e} <= 1e-5 over tau in [0, {rep['window']:.4g}] "
        f"(image reaches {tau_end:.4g}); "
        f"speed variation {c['value']:.3e} <= 1e-5")
    assert ok


def test_criterion_7_closed_geodesics(kolosov_report):
    sections = kolosov_report[0]["sections"]
    closures = {plane: sections[plane]["closure_error"] for plane in ("x", "y", "z")}
    periods = [sections[plane]["period"] for plane in ("x", "y", "z")]
    triaxial_ok = max(closures.values()) <= 1e-8
    distinct = float(np.min(np.diff(np.sort(periods))))

    sphere = principal_section_orbits(RigidBodyParams(1.0, 1.0, 1.0),
                                      ConformalData(h=0.5))
    sphere_periods = [sphere[plane].period for plane in ("x", "y", "z")]
    sphere_spread = max(sphere_periods) - min(sphere_periods)
    sphere_ok = (sphere_spread <= 1e-8
                 and max(o.closure_error for o in sphere.values()) <= 1e-8)

    ok = _report(
        "criterion 7 closed geodesics",
        triaxial_ok and sphere_ok,
        f"triaxial closure errors {max(closures.values()):.3e} <= 1e-8, "
        f"periods {[f'{p:.9f}' for p in sorted(periods)]} "
        f"(min separation {distinct:.3e}); "
        f"sphere period spread {sphere_spread:.3e} <= 1e-8")
    assert ok


def test_criterion_8_rotating_frame(kolosov_report):
    rep = kolosov_report[0]
    endpoint = check(rep, "lambda-endpoint-consistency")
    rotating = check(rep, "rotating-frame-periodicity")
    ok = _report(
        "criterion 8 rotating-frame periodicity",
        endpoint["passed"] and rotating["passed"],
        f"|psi(T)-psi(0)-lambda T| = {endpoint['value']:.3e} <= 1e-8; "
        f"residual over second period {rotating['value']:.3e} <= 1e-6 "
        f"(lambda = {rep['lambda']:.3e}, "
        f"T = {rep['equatorial_period']:.6g})")
    assert ok


def test_equatorial_orbit_closed_form(kolosov_report, triaxial_params):
    # the equatorial orbit spins about the C axis at omega = sqrt(2h / C)
    # without precessing; the report takes its period in this closed form
    rep = kolosov_report[0]
    T = 2.0 * np.pi * np.sqrt(triaxial_params.C / (2.0 * rep["h"]))
    assert abs(rep["equatorial_period"] - T) <= 1e-12 * T
    assert abs(rep["lambda"]) <= 1e-12


def test_z_section_length_is_the_equatorial_orbit_time(kolosov_report, triaxial_params):
    # the z-section geodesic is the image of the equatorial reduced orbit; on
    # the zero-energy level sqrt(h a) |u'| = sqrt(2) h a, and a d(tau) = dt, so
    # its sigma-length is sqrt(2) h T_eq.  The left side is the length carried
    # along the shot z-section orbit on the ellipsoid at the report's h, the
    # right side the closed-form period of the equatorial orbit in the
    # Euler-angle chart.
    rep = kolosov_report[0]
    cd = ConformalData(h=rep["h"])
    orbit = principal_section_orbits(triaxial_params, cd)["z"]
    expected = np.sqrt(2.0) * rep["h"] * rep["equatorial_period"]
    assert abs(dsigma_length(triaxial_params, cd, orbit) - expected) <= 1e-10 * expected


def test_criterion_9_rk4_order():
    def rhs(y):
        return np.array([y[1], -y[0]])

    errs = []
    for dt in (0.02, 0.01):
        traj = integrate_ode(rhs, [1.0, 0.0], 0.0, 2.0 * np.pi,
                             IntegratorConfig(method="rk4", dt=dt))
        errs.append(float(np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0])))))
    ratio = errs[0] / errs[1]
    ok = _report("criterion 9 integrator order",
                 12.0 <= ratio <= 20.0,
                 f"halving dt scales the endpoint error by {ratio:.2f}, "
                 f"within [12, 20]")
    assert ok
