import math

import numpy as np
import pytest

from koopcar import _kernels
from koopcar import mlp as mlp_mod
from koopcar.koopman import (KoopmanDims, KoopmanModel, PairBatch, _build_layout,
                             edmd_fit, lift)
from koopcar.mlp import Normalizer, mlp_specs
from koopcar.scenarios import make_scenario, run_scenario


def planar_rhs(vx, vy, wr, torque, steer, pv, xp=math):
    """Time derivatives (dVx, dVy, dwr) of the planar model under the packed
    parameters `pv`: the derivative-only form of `_kernels.rk4_stepper`."""
    vc = _kernels.vehicle_constants(pv)
    step = _kernels.rk4_stepper(vc, 0.0, xp)   # the derivative ignores h
    return step(vx, vy, wr, torque / vc[5], steer, xp.cos(steer),
                xp.sin(steer), 1)


def rk4_step(vx, vy, wr, torque, steer, dt, substeps, pv):
    """State after dt under a held input, `substeps` RK4 steps of
    `_kernels.rk4_stepper`."""
    vc = _kernels.vehicle_constants(pv)
    step = _kernels.rk4_stepper(vc, dt / substeps)
    drive, cd, sd = torque / vc[5], math.cos(steer), math.sin(steer)
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
    dims = KoopmanDims(p=p)
    enc = mlp_specs((dims.n, *hidden, p))
    dec = mlp_specs((p, *hidden, dims.n))
    layout = _build_layout(enc, dec, dims)
    theta = np.zeros(layout.size)
    theta[:layout.enc.size] = mlp_mod.init_theta(enc, rng)
    theta[layout.enc.size:layout.enc.size + layout.dec.size] = (
        mlp_mod.init_theta(dec, rng))
    normalizer = Normalizer.fit(np.hstack((pairs.x_now, pairs.u_now)))
    model = KoopmanModel(dims, enc, dec, theta, normalizer, pairs.dt)
    z_now = lift(model, model.normalize_states(pairs.x_now))
    z_next = lift(model, model.normalize_states(pairs.x_next))
    u_now = model.normalize_inputs(pairs.u_now)
    a_mat, b_mat = edmd_fit(z_now.T, z_next.T, u_now.T, ridge=1e-9)
    d = dims.lifted
    theta[layout.a_off:layout.a_off + d * d] = a_mat.ravel()
    theta[layout.b_off:layout.b_off + d * dims.m] = b_mat.ravel()
    return model


@pytest.fixture(scope="session")
def quick_model(short_mixed):
    return quick_edmd_model(short_mixed, seed=3)
