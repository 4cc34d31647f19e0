"""Vehicle-physics and dense-network kernels.

`rk4_stepper` is the one place the plant's equations are written: the four
Magic Formula tires, the planar dynamics and the four RK4 evaluations, one
Python call per step. With `xp=math` it runs on Python floats, as the
sequential time loop `simulate_path` (called by `vehicle.run_schedule`)
uses it; with `xp=np` the same source runs elementwise on arrays, as
`one_step_batch` (called by `evaluation.physics_baseline`) advances many
rows at once. Both perform the same operations in the same order, so they
differ only by the last-bit rounding of numpy's and libm's transcendental
functions. Values that do not change within a step are computed once, with
their operands in the same order, so the results are bitwise those of
evaluating each tire and each term separately in every evaluation.

The dense-network kernels work on a flat parameter vector at the offsets of
an `mlp.MlpLayout`; `koopman.lift` and the training loss call them directly.
"""

import math

import numpy as np

GRAVITY = 9.81
VALIDITY_FLOOR = 0.1  # m/s; slip angles degenerate at standstill
BATCH_ROWS = 4096  # rows per block of `one_step_batch`; bounds its temporaries


def rk4_stepper(params, h, xp=math):
    """Return `step(vx, vy, wr, drive, steer, cd, sd)`: one RK4 step over
    `h` of the planar four-wheel model of the `vehicle.VehicleParams`
    `params`, holding the input (drive = torque/rw, cd = cos(steer), sd =
    sin(steer)). It returns (vx', vy', wr', dvx, dvy, dwr): the state after
    `h` and the derivative at the start, which no later stage changes.

    Wheels are 1 front-left, 2 front-right, 3 rear-left, 4 rear-right. The
    torque and the lumped rolling and aero resistance split evenly over the
    wheels. Each lateral force is the Magic Formula
    d*sin(C*atan(B*a - E*(B*a - atan(B*a)))) of the wheel's slip angle a on
    its axle's peak d.

    The step-invariant terms are derived here, once per call, from the
    parameters read as Python floats: the static normal load per tire
    Fz = m*g*l/(2*(lf + lr)) of each axle (l the other axle's distance),
    the tire peaks d = mu*d_peak_scale*Fz, the rolling force roll*m*g and
    the half track 0.5*wB.
    """
    m, iz, lf, lr, wb, mu, drag, roll = map(float, (
        params.m, params.Iz, params.lf, params.lr, params.wB, params.mu,
        params.drag, params.roll))
    tire = params.tire
    tb, tc, td, te = map(float, (tire.b_stiff, tire.c_shape,
                                 tire.d_peak_scale, tire.e_curv))
    d_front = mu * td * (m * GRAVITY * lr / (2.0 * (lf + lr)))
    d_rear = mu * td * (m * GRAVITY * lf / (2.0 * (lf + lr)))
    roll_force = roll * m * GRAVITY
    half_wb = 0.5 * wb
    half_h = 0.5 * h
    atan, atan2, sin = xp.atan, xp.atan2, xp.sin

    def step(vx, vy, wr, drive, steer, cd, sd):
        x, y, r = vx, vy, wr
        for stage in range(4):
            # per-wheel longitudinal force (identical on all four wheels)
            fx = 0.25 * (drive - (roll_force + drag * x * x))

            half_track = half_wb * r
            vy_front = y + lf * r
            vy_rear = y - lr * r
            b1 = tb * (steer - atan2(vy_front, x - half_track))
            b2 = tb * (steer - atan2(vy_front, x + half_track))
            b3 = tb * -atan2(vy_rear, x - half_track)
            b4 = tb * -atan2(vy_rear, x + half_track)
            fy1 = d_front * sin(tc * atan(b1 - te * (b1 - atan(b1))))
            fy2 = d_front * sin(tc * atan(b2 - te * (b2 - atan(b2))))
            fy3 = d_rear * sin(tc * atan(b3 - te * (b3 - atan(b3))))
            fy4 = d_rear * sin(tc * atan(b4 - te * (b4 - atan(b4))))

            fx_front = fx + fx
            fy_front = fy1 + fy2
            fy_rear = fy3 + fy4
            lat_front = fx_front * sd + fy_front * cd

            dvx = (fx_front * cd - fy_front * sd + fx_front) / m + y * r
            dvy = (lat_front + fy_rear) / m - x * r
            dwr = (half_wb * ((fy1 - fy2) * sd) + lf * lat_front
                   - lr * fy_rear) / iz

            # s accumulates k1 + 2*k2 + 2*k3 + k4 in that order
            if stage == 0:
                kx, ky, kr = sx, sy, sr = dvx, dvy, dwr
            elif stage < 3:
                sx = sx + 2.0 * dvx
                sy = sy + 2.0 * dvy
                sr = sr + 2.0 * dwr
            else:
                return (vx + h * (sx + dvx) / 6.0, vy + h * (sy + dvy) / 6.0,
                        wr + h * (sr + dwr) / 6.0, kx, ky, kr)
            c = h if stage == 2 else half_h
            x = vx + c * dvx
            y = vy + c * dvy
            r = wr + c * dwr

    return step


def simulate_path(x0, torques, steers, dt, substeps, params):
    """Integrate a full input schedule from the `vehicle.VehicleState` `x0`
    under the `vehicle.VehicleParams` `params`, `substeps` RK4 steps per
    sample; returns (states, accels, fail_index).

    states[k] holds the state at t=k*dt, accels[k] the body-frame sensor
    accelerations there under input k (ax = dVx - Vy*wr, ay = dVy + Vx*wr).
    fail_index >= 0 flags the first step where Vx fell to the validity floor
    or became NaN. The loop runs on Python floats, computes the input terms
    once per sample, and writes each sample into the preallocated outputs
    through flat memoryviews. Of the step from the last sample, only the
    derivative at its start is kept.
    """
    n = torques.shape[0]
    states = np.zeros((n, 3))
    accels = np.zeros((n, 2))
    out_x = memoryview(states.reshape(-1))
    out_a = memoryview(accels.reshape(-1))
    torque_k = memoryview(np.ascontiguousarray(torques, dtype=np.float64))
    steer_k = memoryview(np.ascontiguousarray(steers, dtype=np.float64))
    rw = float(params.rw)
    step = rk4_stepper(params, dt / substeps)
    cos, sin = math.cos, math.sin
    vx, vy, wr = float(x0.Vx), float(x0.Vy), float(x0.wr)
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
        nx, ny, nr, dvx, dvy, _ = step(vx, vy, wr, drive, steer, cd, sd)
        out_a[2 * k] = dvx - vy * wr
        out_a[2 * k + 1] = dvy + vx * wr
        for _ in range(1, substeps):
            nx, ny, nr, *_ = step(nx, ny, nr, drive, steer, cd, sd)
        vx, vy, wr = nx, ny, nr
    return states, accels, fail


def one_step_batch(states, torques, steers, dt, substeps, params):
    """One sample interval of `substeps` RK4 steps under the
    `vehicle.VehicleParams` `params` from every row of `states`,
    `BATCH_ROWS` rows at a time."""
    rw = float(params.rw)
    step = rk4_stepper(params, dt / substeps, np)
    out = np.empty((states.shape[0], 3))
    for s in range(0, states.shape[0], BATCH_ROWS):
        e = s + BATCH_ROWS
        steer = steers[s:e]
        drive, cd, sd = torques[s:e] / rw, np.cos(steer), np.sin(steer)
        vx, vy, wr = states[s:e, 0], states[s:e, 1], states[s:e, 2]
        for _ in range(substeps):
            vx, vy, wr, *_ = step(vx, vy, wr, drive, steer, cd, sd)
        out[s:e, 0], out[s:e, 1], out[s:e, 2] = vx, vy, wr
    return out


# ---------------------------------------------------------------------------
# dense-network kernels on a flat parameter vector
#
# A network is described by parallel arrays (one entry per layer):
#   shapes[j] = (out_dim, in_dim)
#   w_off[j]  = offset of the row-major (out_dim, in_dim) weight block
#   b_off[j]  = offset of the bias vector; every layer has one
#   acts[j]   = 0 linear, 1 tanh
# The forward cache stores the input batch followed by every layer's
# post-activation batch, which is all the backward pass needs.

ACT_LINEAR = 0
ACT_TANH = 1


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
        a += theta[bo:bo + out_d]
        if act == ACT_TANH:
            np.tanh(a, out=a)
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
        a_prev = cache[:, starts[j]:starts[j] + in_d]
        # g.T is copied to C order: with the transposed view BLAS sums the
        # batch in another order, which moves the gradient by ulps.
        gw = np.dot(np.ascontiguousarray(g.T), a_prev)
        grad[wo:wo + out_d * in_d] += gw.ravel()
        grad[bo:bo + out_d] += np.sum(g, axis=0)
        g = np.dot(g, theta[wo:wo + out_d * in_d].reshape(out_d, in_d))
    return g
