import math

import numpy as np
import pytest

from koopcar import _kernels
from koopcar import mlp as mlp_mod
from koopcar.koopman import (N_INPUTS, N_STATES, KoopmanModel, PairBatch,
                             _Layout, edmd_fit, lift)
from koopcar.mlp import Normalizer
from koopcar.scenarios import make_scenario, run_scenario


def planar_rhs(vx, vy, wr, torque, steer, params, xp=math):
    """Time derivatives (dVx, dVy, dwr) of the planar model of the
    `VehicleParams` `params`: the derivative-only form of
    `_kernels.rk4_stepper`."""
    step = _kernels.rk4_stepper(params, 0.0, xp)   # the derivative ignores h
    return step(vx, vy, wr, torque / params.rw, steer, xp.cos(steer),
                xp.sin(steer), 1)


def rk4_step(vx, vy, wr, torque, steer, dt, substeps, params):
    """State after dt under a held input, `substeps` RK4 steps of
    `_kernels.rk4_stepper` for the `VehicleParams` `params`."""
    step = _kernels.rk4_stepper(params, dt / substeps)
    drive, cd, sd = torque / params.rw, math.cos(steer), math.sin(steer)
    for _ in range(substeps):
        vx, vy, wr, *_ = step(vx, vy, wr, drive, steer, cd, sd)
    return vx, vy, wr


@pytest.fixture(scope="session")
def short_mixed():
    """60 s nominal mixed-excitation trajectory shared across test modules."""
    return run_scenario(make_scenario("mixed", duration=60.0))


def quick_edmd_model(trajectory, seed=0, p=6, hidden=(16,)):
    """Cheap lifted-space model: random encoder, EDMD-fitted A and B.

    Good enough for adaptation/evaluation tests without a full training run.
    """
    pairs = PairBatch.from_trajectory(trajectory)
    rng = np.random.default_rng(seed)
    enc = (N_STATES, *hidden, p)
    dec = (p, *hidden, N_STATES)
    layout = _Layout.build(enc, dec)
    d = layout.lifted
    theta = layout.join(mlp_mod.init_theta(enc, rng), mlp_mod.init_theta(dec, rng),
                        np.zeros((d, d)), np.zeros((d, N_INPUTS)))
    normalizer = Normalizer.fit(np.hstack((pairs.x_now, pairs.u_now)))
    model = KoopmanModel(enc, dec, theta, normalizer, pairs.dt)
    z_now = lift(model, model.x_norm.apply(pairs.x_now))
    z_next = lift(model, model.x_norm.apply(pairs.x_next))
    u_now = model.u_norm.apply(pairs.u_now)
    # A and B are views of theta: the fit writes the model's parameters
    model.A[...], model.B[...] = edmd_fit(z_now.T, z_next.T, u_now.T, ridge=1e-9)
    return model


@pytest.fixture(scope="session")
def quick_model(short_mixed):
    return quick_edmd_model(short_mixed, seed=3)
