"""Vehicle-physics and dense-network kernels.

The vehicle kernels (`tire_lateral`, `planar_rhs`, `rk4_step`) are written
once for single values and arrays alike. They take the vehicle parameters as
the tuple of Python floats from `VehicleParams.packed()` and a math namespace
`xp`: with the default `math` they run on floats, which is what the
sequential time loop in `simulate_path` uses; with `xp=np` the same source
runs elementwise on arrays, which is how `one_step_batch` advances every row
in one call (numpy >= 2 provides the `np.atan`/`np.atan2` names). The two
paths perform the same operations in the same order, so they differ only by
the last-bit rounding of numpy's and libm's transcendental functions.

The package reaches the plant through two entry points, both columnar and
both with `substeps` = 1: `vehicle.run_schedule` calls `simulate_path`, and
the physics baseline (`evaluation.physics_baseline`) calls `one_step_batch`.
`tire_lateral`, `planar_rhs` and `rk4_step` are the per-sample kernels those
two are built from; the tests call them directly.

Work that does not change between RK4 stages is done once: the per-vehicle
constants (axle loads, tire peaks, rolling force, half track) by
`vehicle_constants`, the per-step input terms (torque/rw, cos and sin of the
steering angle) by the caller of the stages. The hoisted expressions keep
their operand order, so the results are bitwise those of evaluating
everything in every stage.

The dense-network kernels work on a flat parameter vector at the offsets of
an `mlp.MlpLayout`; `koopman.lift` and the training loss call them directly.
"""

import math

import numpy as np

GRAVITY = 9.81
VALIDITY_FLOOR = 0.1  # m/s; slip angles degenerate at standstill


def tire_lateral(alpha, d_peak, b_stiff, c_shape, e_curv, xp=math):
    """Lateral tire force: peak d_peak (= mu*d_scale*Fz), sine-of-arctangent
    shape, odd in alpha."""
    ba = b_stiff * alpha
    return d_peak * xp.sin(c_shape * xp.atan(ba - e_curv * (ba - xp.atan(ba))))


def vehicle_constants(pv):
    """Step-invariant terms of the planar model, derived once per vehicle
    from the `VehicleParams.packed()` tuple: (m, iz, lf, lr, half_wb, rw,
    d_front, d_rear, b_stiff, c_shape, e_curv, drag, roll_force).

    The static normal loads give the tire peaks d = mu*d_scale*Fz per axle;
    roll_force = roll*m*g is the rolling part of the resistance.
    """
    m, iz, lf, lr, wb, rw, mu, tb, tc, td, te, drag, roll = pv
    fz_front = m * GRAVITY * lr / (2.0 * (lf + lr))
    fz_rear = m * GRAVITY * lf / (2.0 * (lf + lr))
    return (m, iz, lf, lr, 0.5 * wb, rw, mu * td * fz_front, mu * td * fz_rear,
            tb, tc, te, drag, roll * m * GRAVITY)


def _rhs(vx, vy, wr, drive, steer, cd, sd, vc, xp):
    """planar_rhs on the per-vehicle constants `vc` and the per-step input
    terms drive = torque/rw, cd = cos(steer), sd = sin(steer)."""
    m, iz, lf, lr, half_wb, rw, d_front, d_rear, tb, tc, te, drag, roll_force = vc

    # per-wheel longitudinal force (identical on all four wheels)
    fx = 0.25 * (drive - (roll_force + drag * vx * vx))

    half_track = half_wb * wr
    vy_front = vy + lf * wr
    vy_rear = vy - lr * wr
    a1 = steer - xp.atan2(vy_front, vx - half_track)
    a2 = steer - xp.atan2(vy_front, vx + half_track)
    a3 = -xp.atan2(vy_rear, vx - half_track)
    a4 = -xp.atan2(vy_rear, vx + half_track)

    fy1 = tire_lateral(a1, d_front, tb, tc, te, xp)
    fy2 = tire_lateral(a2, d_front, tb, tc, te, xp)
    fy3 = tire_lateral(a3, d_rear, tb, tc, te, xp)
    fy4 = tire_lateral(a4, d_rear, tb, tc, te, xp)

    fx_front = fx + fx
    fy_front = fy1 + fy2
    fy_rear = fy3 + fy4

    dvx = (fx_front * cd - fy_front * sd + (fx + fx)) / m + vy * wr
    dvy = (fx_front * sd + fy_front * cd + fy_rear) / m - vx * wr
    dwr = (half_wb * ((fy1 - fy2) * sd)
           + lf * (fx_front * sd + fy_front * cd)
           - lr * fy_rear) / iz
    return dvx, dvy, dwr


def planar_rhs(vx, vy, wr, torque, steer, pv, xp=math):
    """Time derivatives (dVx, dVy, dwr) of the planar four-wheel model.

    Wheel order: 1 front-left, 2 front-right, 3 rear-left, 4 rear-right.
    Driving torque splits evenly across the four wheels; rolling and aero
    resistance are lumped and split evenly too, so per-side longitudinal
    force differences vanish identically.
    """
    vc = vehicle_constants(pv)
    return _rhs(vx, vy, wr, torque / vc[5], steer, xp.cos(steer),
                xp.sin(steer), vc, xp)


def _rk4(vx, vy, wr, drive, steer, cd, sd, dt, substeps, vc, xp, k1=None):
    """rk4_step on the terms `_rhs` takes; the input is held over all stages.

    `k1` optionally supplies `_rhs` at the starting state, which a caller
    that has already evaluated it can pass to save one evaluation.
    """
    h = dt / substeps
    half_h = 0.5 * h
    for _ in range(substeps):
        if k1 is None:
            k1 = _rhs(vx, vy, wr, drive, steer, cd, sd, vc, xp)
        k1x, k1y, k1r = k1
        k1 = None
        k2x, k2y, k2r = _rhs(vx + half_h * k1x, vy + half_h * k1y,
                             wr + half_h * k1r, drive, steer, cd, sd, vc, xp)
        k3x, k3y, k3r = _rhs(vx + half_h * k2x, vy + half_h * k2y,
                             wr + half_h * k2r, drive, steer, cd, sd, vc, xp)
        k4x, k4y, k4r = _rhs(vx + h * k3x, vy + h * k3y,
                             wr + h * k3r, drive, steer, cd, sd, vc, xp)
        vx = vx + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        vy = vy + h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        wr = wr + h * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
    return vx, vy, wr


def rk4_step(vx, vy, wr, torque, steer, dt, substeps, pv, xp=math):
    """Classical RK4 advance of the planar model over dt, zero-order-hold input."""
    vc = vehicle_constants(pv)
    return _rk4(vx, vy, wr, torque / vc[5], steer, xp.cos(steer),
                xp.sin(steer), dt, substeps, vc, xp)


def simulate_path(x0, torques, steers, dt, substeps, pv):
    """Integrate a full input schedule; returns (states, accels, fail_index).

    states[k] holds the state at t=k*dt, accels[k] the body-frame sensor
    accelerations there under input k (ax = dVx - Vy*wr, ay = dVy + Vx*wr).
    fail_index >= 0 flags the first step where Vx fell to the validity floor
    or became NaN. The loop runs on Python floats, derives the vehicle
    constants once and the input terms once per step, and writes each step
    into the preallocated outputs through flat memoryviews.
    """
    n = torques.shape[0]
    states = np.zeros((n, 3))
    accels = np.zeros((n, 2))
    out_x = memoryview(states.reshape(-1))
    out_a = memoryview(accels.reshape(-1))
    torque_k = memoryview(np.ascontiguousarray(torques, dtype=np.float64))
    steer_k = memoryview(np.ascontiguousarray(steers, dtype=np.float64))
    vc = vehicle_constants(pv)
    rw = vc[5]
    cos, sin = math.cos, math.sin
    vx, vy, wr = (float(v) for v in x0)
    fail = -1
    for k in range(n):
        if not (vx > VALIDITY_FLOOR):
            fail = k
            break
        drive = torque_k[k] / rw
        steer = steer_k[k]
        cd = cos(steer)
        sd = sin(steer)
        out_x[3 * k] = vx
        out_x[3 * k + 1] = vy
        out_x[3 * k + 2] = wr
        deriv = _rhs(vx, vy, wr, drive, steer, cd, sd, vc, math)
        out_a[2 * k] = deriv[0] - vy * wr
        out_a[2 * k + 1] = deriv[1] + vx * wr
        if k < n - 1:
            vx, vy, wr = _rk4(vx, vy, wr, drive, steer, cd, sd, dt, substeps,
                              vc, math, deriv)
    return states, accels, fail


def one_step_batch(states, torques, steers, dt, substeps, pv):
    """One RK4 step from every row of `states`, all rows at once."""
    vx, vy, wr = rk4_step(states[:, 0], states[:, 1], states[:, 2], torques,
                          steers, dt, substeps, pv, np)
    return np.column_stack((vx, vy, wr))


# ---------------------------------------------------------------------------
# dense-network kernels on a flat parameter vector
#
# A network is described by parallel arrays (one entry per layer):
#   shapes[j] = (out_dim, in_dim)
#   w_off[j]  = offset of the row-major (out_dim, in_dim) weight block
#   b_off[j]  = offset of the bias vector, or -1 when the layer has none
#   acts[j]   = 0 linear, 1 tanh, 2 relu
# The forward cache stores the input batch followed by every layer's
# post-activation batch, which is all the backward pass needs.

ACT_LINEAR = 0
ACT_TANH = 1
ACT_RELU = 2


def dense_forward(theta, shapes, w_off, b_off, acts, x, cache=None):
    """Forward pass of the batch `x`; returns the output batch.

    With a `cache` array (batch, in0 + sum(out_j)) the input and every
    layer's post-activation batch are also stored there for
    `dense_backward`; with None (inference) nothing is kept.
    """
    layers = zip(shapes.tolist(), w_off.tolist(), b_off.tolist(), acts.tolist())
    if cache is not None:
        pos = x.shape[1]
        cache[:, :pos] = x
    a = x
    for (out_d, in_d), wo, bo, act in layers:
        a = np.dot(a, theta[wo:wo + out_d * in_d].reshape(out_d, in_d).T)
        if bo >= 0:
            a += theta[bo:bo + out_d]
        if act == ACT_TANH:
            np.tanh(a, out=a)
        elif act == ACT_RELU:
            np.maximum(a, 0.0, out=a)
        if cache is not None:
            cache[:, pos:pos + out_d] = a
            pos += out_d
    return a


def dense_backward(theta, shapes, w_off, b_off, acts, cache, gy, grad):
    """Reverse pass: accumulates parameter gradients into `grad`, returns input gradient."""
    dims = shapes.tolist()
    w_offs, b_offs, codes = w_off.tolist(), b_off.tolist(), acts.tolist()
    # activation-block start offsets inside the cache
    starts = [0]
    pos = dims[0][1]
    for out_d, _ in dims:
        starts.append(pos)
        pos += out_d

    g = gy
    for j in range(len(dims) - 1, -1, -1):
        out_d, in_d = dims[j]
        wo, bo = w_offs[j], b_offs[j]
        a_j = cache[:, starts[j + 1]:starts[j + 1] + out_d]
        if codes[j] == ACT_TANH:
            g = g * (1.0 - a_j * a_j)
        elif codes[j] == ACT_RELU:
            g = np.where(a_j > 0.0, g, 0.0)
        a_prev = cache[:, starts[j]:starts[j] + in_d]
        # g.T is copied to C order: with the transposed view BLAS sums the
        # batch in another order, which moves the gradient by ulps.
        gw = np.dot(np.ascontiguousarray(g.T), a_prev)
        grad[wo:wo + out_d * in_d] += gw.ravel()
        if bo >= 0:
            grad[bo:bo + out_d] += np.sum(g, axis=0)
        g = np.dot(g, theta[wo:wo + out_d * in_d].reshape(out_d, in_d))
    return g
