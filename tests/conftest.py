import numpy as np
import pytest
from hypothesis import settings

from routhkit import (
    MomentumValue,
    ReducedState,
    RigidBodyParams,
    central_force_system,
    rb_system,
    reduced_vector_field,
)

# Hypothesis draws the same examples on every run and keeps no example
# database between runs, so the suite's outcome does not depend on history.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# Frozen test geometry: triaxial free body and a zero-momentum initial state
# whose nutation stays in [1.0, 2.14] over t = 100 (checked numerically).
TRIAXIAL = (1.0, 2.0, 3.0)
GENERIC_Q = (0.7, 1.1)
GENERIC_QDOT = (0.4, 0.15)


@pytest.fixture(scope="session")
def triaxial_params():
    return RigidBodyParams(*TRIAXIAL)


@pytest.fixture(scope="session")
def triaxial_system(triaxial_params):
    return rb_system(triaxial_params)


@pytest.fixture(scope="session")
def zero_momentum():
    return MomentumValue.zero(0, 1)


@pytest.fixture(scope="session")
def generic_state():
    return ReducedState(q=GENERIC_Q, qdot=GENERIC_QDOT)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def central_force():
    return central_force_system()


def reduced_field(sys, f, r):
    """(qdot, qddot): the reduced vector field at the reduced state r."""
    out = np.array(reduced_vector_field(sys, f)(r.to_vector()))
    return out[:sys.n], out[sys.n:]


def check(report, name):
    """The entry of the check ``name`` in a verify or kolosov report."""
    return next(c for c in report["checks"] if c["name"] == name)


def body_rates(phi, theta, phidot, thetadot, psidot):
    """Body-frame angular velocity components for the Euler-angle chart."""
    w1 = psidot * np.sin(theta) * np.sin(phi) + thetadot * np.cos(phi)
    w2 = psidot * np.sin(theta) * np.cos(phi) - thetadot * np.sin(phi)
    w3 = psidot * np.cos(theta) + phidot
    return w1, w2, w3


def kinetic_oracle(params, phi, theta, phidot, thetadot, psidot):
    """Kinetic energy evaluated through the angular velocity substitution,
    independently of the assembled kinetic matrix."""
    w1, w2, w3 = body_rates(phi, theta, phidot, thetadot, psidot)
    return 0.5 * (params.A * w1 ** 2 + params.B * w2 ** 2 + params.C * w3 ** 2)


def euler_poisson(inertia, c):
    """Euler-Poisson on R^6 (m = I w, gamma), the chart-free reduced rigid
    body: (I w)' = I w x w + gamma x dV/dgamma and gamma' = gamma x w, with
    the heavy potential V = c gamma_3."""
    def rhs(y):
        m, g = np.asarray(y[:3]), np.asarray(y[3:])
        w = m / inertia
        return np.concatenate([np.cross(m, w) + np.cross(g, [0.0, 0.0, c]), np.cross(g, w)])

    return rhs
