import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import planar_rhs, rk4_step
from koopcar import _kernels, backend_name
from koopcar.evaluation import scenario_suite
from koopcar.vehicle import (GRAVITY, MAX_STEER, ROW_BLOCK, MagicFormulaParams,
                             ModelValidityError, Trajectory, VehicleParams,
                             VehicleState, equilibrium_torque, run_schedule,
                             write_rows)
from koopcar.scenarios import (InputProgram, Scenario, make_scenario,
                               run_scenario, scenario_from_config,
                               scenario_to_config)

P = VehicleParams()
TIRE = MagicFormulaParams()


def tire_force(alpha, m, mu):
    """Lateral force of one default front tire at slip angle alpha on
    adhesion mu, on a car of mass m (a power of two) whose c.g. is midway
    between the axles, so that the tire's normal load is `static_load(m)`.

    Read from the stepper's dVy with no resistance and no drive, at zero Vy
    and wr with the steering terms cos 1 and sin 0: both front slip angles
    are alpha and both rear ones 0, so dVy = (F + F) / m and F = dVy * m / 2
    exactly.
    """
    params = VehicleParams(m=m, lf=1.0, lr=1.0, mu=mu, drag=0.0, roll=0.0)
    step = _kernels.rk4_stepper(params, 0.0)
    return step(10.0, 0.0, 0.0, 0.0, alpha, 1.0, 0.0)[4] * m / 2


def static_load(m):
    """The normal load m*g*lr/(2*(lf + lr)) on each tire of `tire_force`'s car."""
    return m * GRAVITY * 1.0 / (2.0 * (1.0 + 1.0))


# ---------------------------------------------------------------------------
# oracle: the tire, the planar dynamics and RK4 as separate calls, in the
# operation order the stepper must reproduce bit for bit

def oracle_tire_lateral(alpha, d_peak, b_stiff, c_shape, e_curv, xp):
    ba = b_stiff * alpha
    return d_peak * xp.sin(c_shape * xp.atan(ba - e_curv * (ba - xp.atan(ba))))


def oracle_constants(p):
    """The step-invariant terms of `oracle_rhs` for the `VehicleParams` p:
    each axle's tire peak mu*d_peak_scale*Fz on its static load per tire
    Fz = m*g*l/(2*(lf + lr)) (l the other axle's distance), the rolling
    force roll*m*g and the half track."""
    fz_front = p.m * GRAVITY * p.lr / (2.0 * (p.lf + p.lr))
    fz_rear = p.m * GRAVITY * p.lf / (2.0 * (p.lf + p.lr))
    peak = p.mu * p.tire.d_peak_scale
    return (p.m, p.Iz, p.lf, p.lr, 0.5 * p.wB, peak * fz_front, peak * fz_rear,
            p.tire.b_stiff, p.tire.c_shape, p.tire.e_curv, p.drag,
            p.roll * p.m * GRAVITY)


def oracle_rhs(vx, vy, wr, drive, steer, cd, sd, vc, xp):
    m, iz, lf, lr, half_wb, d_front, d_rear, tb, tc, te, drag, roll_force = vc
    fx = 0.25 * (drive - (roll_force + drag * vx * vx))
    half_track = half_wb * wr
    vy_front = vy + lf * wr
    vy_rear = vy - lr * wr
    a1 = steer - xp.atan2(vy_front, vx - half_track)
    a2 = steer - xp.atan2(vy_front, vx + half_track)
    a3 = -xp.atan2(vy_rear, vx - half_track)
    a4 = -xp.atan2(vy_rear, vx + half_track)
    fy1 = oracle_tire_lateral(a1, d_front, tb, tc, te, xp)
    fy2 = oracle_tire_lateral(a2, d_front, tb, tc, te, xp)
    fy3 = oracle_tire_lateral(a3, d_rear, tb, tc, te, xp)
    fy4 = oracle_tire_lateral(a4, d_rear, tb, tc, te, xp)
    fx_front = fx + fx
    fy_front = fy1 + fy2
    fy_rear = fy3 + fy4
    dvx = (fx_front * cd - fy_front * sd + (fx + fx)) / m + vy * wr
    dvy = (fx_front * sd + fy_front * cd + fy_rear) / m - vx * wr
    dwr = (half_wb * ((fy1 - fy2) * sd)
           + lf * (fx_front * sd + fy_front * cd)
           - lr * fy_rear) / iz
    return dvx, dvy, dwr


def oracle_rk4(vx, vy, wr, drive, steer, cd, sd, dt, substeps, vc, xp):
    h = dt / substeps
    half_h = 0.5 * h
    for _ in range(substeps):
        k1x, k1y, k1r = oracle_rhs(vx, vy, wr, drive, steer, cd, sd, vc, xp)
        k2x, k2y, k2r = oracle_rhs(vx + half_h * k1x, vy + half_h * k1y,
                                   wr + half_h * k1r, drive, steer, cd, sd, vc, xp)
        k3x, k3y, k3r = oracle_rhs(vx + half_h * k2x, vy + half_h * k2y,
                                   wr + half_h * k2r, drive, steer, cd, sd, vc, xp)
        k4x, k4y, k4r = oracle_rhs(vx + h * k3x, vy + h * k3y,
                                   wr + h * k3r, drive, steer, cd, sd, vc, xp)
        vx = vx + h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        vy = vy + h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        wr = wr + h * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
    return vx, vy, wr


def rk4_generic(f, x, dt):
    """One classical RK4 step of dx/dt = f(x) for an arbitrary vector field."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def accels_at(vx, vy, wr, torque, steer):
    """(ax, ay) that `run_schedule` emits for one sample at this state."""
    tr = run_schedule(VehicleState(vx, vy, wr), np.array([torque]),
                      np.array([steer]), 0.025, P)
    return tr.accels[0]


# ---------------------------------------------------------------------------
# tire model

def test_tire_zero_slip_gives_zero_force():
    for m in (512.0, 2048.0, 4096.0):
        assert tire_force(0.0, m, 0.85) == 0.0


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_tire_odd_symmetry(alpha):
    f_pos = tire_force(alpha, 2048.0, 0.85)
    f_neg = tire_force(-alpha, 2048.0, 0.85)
    assert f_neg == -f_pos
    assert f_pos > 0.0


def test_tire_peak_bound_grid_sweep():
    # numeric sweep oracle over 10^4 grid points
    m, mu = 2048.0, 0.85
    fz = static_load(m)
    grid = np.linspace(-0.5, 0.5, 10_000)
    forces = np.array([tire_force(a, m, mu) for a in grid])
    assert np.abs(forces).max() <= mu * TIRE.d_peak_scale * fz + 1e-9
    assert np.array_equal(forces, [
        oracle_tire_lateral(a, mu * TIRE.d_peak_scale * fz, TIRE.b_stiff,
                            TIRE.c_shape, TIRE.e_curv, math)
        for a in grid.tolist()])


def test_tire_param_invariants():
    with pytest.raises(ValueError):
        MagicFormulaParams(b_stiff=-1.0)
    with pytest.raises(ValueError):
        MagicFormulaParams(d_peak_scale=1.5)
    with pytest.raises(ValueError):
        MagicFormulaParams(e_curv=1.5)
    # inf or NaN factors would otherwise surface later as a "Vx hit the
    # validity floor" error that blames the state
    for name in ("b_stiff", "c_shape"):
        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError,
                               match=f"^tire {name} must be positive and finite"):
                MagicFormulaParams(**{name: bad})
    for bad in (float("nan"), -float("inf"), 1.0):
        with pytest.raises(ValueError, match="^tire e_curv must be finite and < 1"):
            MagicFormulaParams(e_curv=bad)


# ---------------------------------------------------------------------------
# derivatives

def test_derivatives_frozen_hand_oracle():
    # independent term-by-term evaluation (frozen from an offline script)
    got = planar_rhs(20.0, 0.5, 0.1, 400.0, 0.05, P)
    expect = (0.35268658469509967, -1.9358666465600258, 2.1106556649351638)
    for g, e in zip(got, expect):
        assert abs(g - e) < 1e-10


def test_vehicle_param_invariants():
    with pytest.raises(ValueError):
        VehicleParams(m=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(mu=1.5)
    # NaN passes a `<= 0` test; the error must name the field, not a later state
    for name in ("m", "Iz", "lf", "lr", "wB", "rw"):
        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError,
                               match=f"^{name} must be positive and finite"):
                VehicleParams(**{name: bad})
    for name in ("drag", "roll"):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError,
                               match=f"^{name} must be non-negative and finite"):
                VehicleParams(**{name: bad})
        assert getattr(VehicleParams(**{name: 0.0}), name) == 0.0
    # a NaN bound would let every torque pass the schedule's `>` check
    for bad in (float("nan"), float("inf"), 0.0, -10.0):
        with pytest.raises(ValueError,
                           match="^max_torque must be positive and finite"):
            VehicleParams(max_torque=bad)


# ---------------------------------------------------------------------------
# sensor accelerations

def test_sensor_accels_no_coupling_at_rest_axes():
    ax, ay = accels_at(12.0, 0.0, 0.0, 300.0, 0.0)
    d = planar_rhs(12.0, 0.0, 0.0, 300.0, 0.0, P)
    assert ax == d[0] and ay == d[1]


# ---------------------------------------------------------------------------
# integrator

def test_rk4_equilibrium_fixed_point():
    t_eq = equilibrium_torque(15.0, P)
    vx, vy, wr = rk4_step(15.0, 0.0, 0.0, t_eq, 0.0, 0.025, 1, P)
    assert abs(vx - 15.0) <= 1e-9
    assert vy == 0.0 and wr == 0.0


def test_rk4_generic_matches_matrix_exponential():
    from scipy.linalg import expm
    lam = np.array([[-0.5, 0.3, 0.0], [-0.2, -0.8, 0.1], [0.0, 0.4, -1.2]])
    z0 = np.array([1.0, -0.5, 0.3])
    for dt in (0.2, 0.1, 0.05):
        num = rk4_generic(lambda x: lam @ x, z0, dt)
        exact = expm(lam * dt) @ z0
        assert np.linalg.norm(num - exact) <= 0.05 * dt ** 5


def test_vehicle_step_matches_generic_rk4():
    def rhs(x):
        return np.array(planar_rhs(*x, 250.0, 0.03, P))

    expect = rk4_generic(rhs, np.array([14.0, 0.3, 0.1]), 0.025)
    got = rk4_step(14.0, 0.3, 0.1, 250.0, 0.03, 0.025, 1, P)
    assert np.allclose(got, expect, rtol=0, atol=1e-13)


def _state_grid():
    """Inputs over Vx above the floor, both signs of Vy, wr and steering."""
    vx, vy, wr, steer = (a.ravel() for a in np.meshgrid(
        np.linspace(0.5, 40.0, 9), np.linspace(-3.0, 3.0, 7),
        np.linspace(-1.2, 1.2, 7), np.linspace(-MAX_STEER, MAX_STEER, 9),
        indexing="ij"))
    torque = np.resize(np.linspace(-3000.0, 4000.0, 11), vx.size)
    return vx, vy, wr, torque, steer


def _rows_close(got, expect, rtol):
    # relative to each row's largest magnitude: single entries can cancel to ~0
    scale = np.abs(expect).max(axis=1, keepdims=True)
    return np.all(np.abs(got - expect) <= rtol * scale)


@pytest.mark.parametrize("substeps", [1, 3])
def test_one_step_batch_matches_scalar_rk4_rows(substeps):
    vx, vy, wr, torque, steer = _state_grid()
    batch = _kernels.one_step_batch(np.column_stack((vx, vy, wr)), torque,
                                    steer, 0.025, substeps, P)
    scalar = np.array([
        rk4_step(*map(float, row), 0.025, substeps, P)
        for row in zip(vx, vy, wr, torque, steer)])
    assert batch.shape == scalar.shape == (vx.size, 3)
    assert _rows_close(batch, scalar, 1e-15)


def test_array_planar_rhs_matches_scalar_elementwise():
    vx, vy, wr, torque, steer = _state_grid()
    arrays = np.column_stack(planar_rhs(vx, vy, wr, torque, steer, P, np))
    scalar = np.array([planar_rhs(*map(float, row), P)
                       for row in zip(vx, vy, wr, torque, steer)])
    assert _rows_close(arrays, scalar, 1e-15)


def test_params_are_read_as_python_floats():
    # the kernels read every field through float(): a plant given in integers
    # and float32 runs bit for bit as the same plant in Python floats, where
    # float32 arithmetic would round every product to float32
    f32 = np.float32
    given = VehicleParams(m=2000, Iz=f32(3658.0), lf=f32(1.25), lr=1, wB=2,
                          rw=f32(0.25), mu=1, drag=f32(0.375), roll=f32(0.015625),
                          tire=MagicFormulaParams(b_stiff=10, c_shape=f32(1.5),
                                                  e_curv=0))
    floats = VehicleParams(m=2000.0, Iz=3658.0, lf=1.25, lr=1.0, wB=2.0,
                           rw=0.25, mu=1.0, drag=0.375, roll=0.015625,
                           tire=MagicFormulaParams(10.0, 1.5, 1.0, 0.0))
    torques, steers = np.full(40, 300.0), np.full(40, 0.05)
    a = _kernels.simulate_path(VehicleState(15, 0, 0), torques, steers, 0.025, 1, given)
    b = _kernels.simulate_path(VehicleState(15.0), torques, steers, 0.025, 1, floats)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    states = np.column_stack((np.linspace(5.0, 25.0, 8), np.full(8, 0.2),
                              np.full(8, 0.1)))
    assert np.array_equal(
        _kernels.one_step_batch(states, torques[:8], steers[:8], 0.025, 1, given),
        _kernels.one_step_batch(states, torques[:8], steers[:8], 0.025, 1, floats))
    assert backend_name() == "numpy"


def test_rk4_rejects_bad_dt():
    # run_schedule is the one way into the RK4 loop; a zero dt would return
    # every row at t = 0 and a negative one would integrate backwards
    torques, steers = np.full(5, 300.0), np.zeros(5)
    for dt in (0.0, -0.025, float("nan")):
        with pytest.raises(ValueError, match="^dt must be positive$"):
            run_schedule(VehicleState(15.0), torques, steers, dt, P)


# ---------------------------------------------------------------------------
# scenario runs

def test_run_scenario_snapshot_count():
    sc = Scenario(name="count", duration=1.0, dt=0.025,
                  initial_state=VehicleState(15.0),
                  input_program=InputProgram.make("equilibrium", speed=15.0))
    tr = run_scenario(sc)
    assert len(tr) == 41  # duration/dt + 1, including t=0


def test_scenario_rejects_zero_and_non_finite_duration():
    # a zero duration once meant "not given" and ran the 1400 s default
    with pytest.raises(ValueError, match="cover at least one sample interval"):
        make_scenario("mixed", duration=0.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^duration must be finite"):
            make_scenario("step_steer", duration=bad)
    with pytest.raises(ValueError, match="^dt must be positive$"):
        make_scenario("step_steer", dt=float("nan"))
    assert make_scenario("step_steer").duration == 30.0   # None: the default


def test_run_scenario_equilibrium_is_constant():
    sc = Scenario(name="eq", duration=2.0, dt=0.025,
                  initial_state=VehicleState(15.0),
                  input_program=InputProgram.make("equilibrium", speed=15.0))
    tr = run_scenario(sc)
    assert np.all(tr.states == tr.states[0])


def test_slalom_yaw_rate_follows_steering_period():
    tr = run_scenario(make_scenario("slalom"))
    wr = tr.states[:, 2]
    meaningful = wr[np.abs(wr) > 1e-6]
    crossings = int(np.sum(np.abs(np.diff(np.sign(meaningful)))) // 2)
    # zero-crossing oracle: period 100 s over 200 s gives crossings at ~50,
    # ~100 and ~150 s (t=0 start and the endpoint do not flip the sign)
    assert crossings == 3


def test_failed_run_reports_time_of_failure():
    sc = Scenario(name="brake", duration=60.0, dt=0.025,
                  initial_state=VehicleState(3.0),
                  input_program=InputProgram.make("constant", torque=-800.0))
    with pytest.raises(ModelValidityError, match="t="):
        run_scenario(sc)


def test_coastdown_speed_strictly_decreasing():
    sc = Scenario(name="coast", duration=30.0, dt=0.025,
                  initial_state=VehicleState(20.0),
                  input_program=InputProgram.make("constant", torque=0.0))
    tr = run_scenario(sc)
    vx = tr.states[:, 0]
    assert np.all(np.diff(vx) < 0.0)


def test_emitted_snapshots_satisfy_accel_identity():
    tr = run_scenario(make_scenario("mixed", duration=20.0))
    params = VehicleParams(mu=0.85)   # the library scenario's plant
    for k in range(0, len(tr), 37):
        (vx, vy, wr), (torque, steer), (ax, ay) = (
            tr.states[k], tr.inputs[k], tr.accels[k])
        d = planar_rhs(vx, vy, wr, torque, steer, params)
        assert abs((ax + vy * wr) - d[0]) <= 1e-12
        assert abs((ay - vx * wr) - d[1]) <= 1e-12


def test_mixed_run_matches_pinned_states():
    # recorded from the earlier array-indexed integrator; the float loop must
    # reproduce it, so any change to the physics shows here
    tr = run_scenario(make_scenario("mixed", duration=30.0))
    assert len(tr) == 1201
    pinned = {
        1: ((14.001077712396668, 0.05760252598133528, 0.04877070424702149),
            (0.04853890958169932, 2.500795941460762)),
        400: ((11.601842315184765, 0.14012879910857154, 0.4750613221783927),
              (-0.5020680900315165, 5.566816365978799)),
        777: ((10.69265744415697, -0.058609155671276766, -0.08909336265445869),
              (0.15695624714899586, -0.9931736466050255)),
        1200: ((12.630903736226252, 0.01054215325068999, 0.018362864811766758),
               (-0.06869106973038058, 0.2628216237980195)),
    }
    for k, (state, accel) in pinned.items():
        np.testing.assert_allclose(tr.states[k], state, rtol=1e-13, atol=0)
        np.testing.assert_allclose(tr.accels[k], accel, rtol=1e-13, atol=0)


def test_run_determinism_bit_identical():
    sc = make_scenario("mixed", duration=10.0)
    a = run_scenario(sc)
    b = run_scenario(sc)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.accels, b.accels)
    assert np.array_equal(a.inputs, b.inputs)


def test_run_schedule_rejects_invalid_initial_state():
    torques, steers = np.full(5, 100.0), np.zeros(5)
    with pytest.raises(ModelValidityError, match="validity floor"):
        run_schedule(VehicleState(0.05), torques, steers, 0.025, P)
    with pytest.raises(ValueError, match="non-finite vehicle state"):
        run_schedule(VehicleState(float("inf")), torques, steers, 0.025, P)


def test_run_schedule_validates_lengths():
    with pytest.raises(ValueError):
        run_schedule(VehicleState(15.0), np.zeros(5), np.zeros(4), 0.025, P)


@pytest.mark.parametrize("column, value", [
    ("torque", np.nan), ("steer", np.inf), ("steer", np.nan),
    ("torque", -np.inf)])
def test_run_schedule_rejects_non_finite_inputs(column, value):
    torques = np.full(40, 300.0)
    steers = np.zeros(40)
    (torques if column == "torque" else steers)[17] = value
    with pytest.raises(ValueError, match=r"non-finite input at step 17 \(t=0\.425 s\)"):
        run_schedule(VehicleState(15.0), torques, steers, 0.025, P)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_run_schedule_rejects_torque_beyond_max(sign):
    torques = np.full(40, 300.0)
    torques[23] = sign * 4000.5
    torques[31] = sign * 5000.0
    with pytest.raises(ValueError, match=r"max_torque at step 23 \(t=0\.575 s\)"):
        run_schedule(VehicleState(15.0), torques, np.zeros(40), 0.025, P)
    torques[23] = torques[31] = sign * P.max_torque   # the bound itself is allowed
    run_schedule(VehicleState(15.0), torques, np.zeros(40), 0.025, P)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_run_schedule_rejects_steering_beyond_max_steer(sign):
    torques = np.full(41, 300.0)
    steers = np.zeros(41)
    steers[3] = steers[9] = sign * 1.0
    with pytest.raises(ValueError, match=r"MAX_STEER at step 3 \(t=0\.075 s\)"):
        run_schedule(VehicleState(15.0), torques, steers, 0.025, P)
    steers[3] = steers[9] = sign * MAX_STEER   # the bound itself is allowed
    tr = run_schedule(VehicleState(15.0), torques, steers, 0.025, P)
    assert tr.inputs[3, 1] == sign * MAX_STEER


def test_simulate_path_stops_at_a_nan_state():
    torques, steers = np.full(10, 300.0), np.zeros(10)
    *_, fail = _kernels.simulate_path(VehicleState(np.nan), torques, steers,
                                      0.025, 1, P)
    assert fail == 0
    # a NaN lateral velocity reaches Vx through the slip angles in one step
    states, _, fail = _kernels.simulate_path(VehicleState(15.0, np.nan),
                                             torques, steers, 0.025, 1, P)
    assert fail == 1
    assert states[0, 0] == 15.0 and not states[1:].any()


@pytest.mark.parametrize("substeps", [1, 3])
def test_simulate_path_equals_oracle_bitwise(substeps):
    # the stepper writes the tire inline and shares subexpressions between
    # the derivatives; stepping the oracle sample by sample must give the
    # same bits on every suite scenario
    for sc in scenario_suite():
        sc = replace(sc, duration=10.0)
        torques, steers = sc.input_program.sample(sc.time_grid(), sc.params)
        vc = oracle_constants(sc.params)
        x0 = sc.initial_state
        states, accels, fail = _kernels.simulate_path(x0, torques, steers,
                                                      sc.dt, substeps, sc.params)
        assert fail == -1
        vx, vy, wr = x0.Vx, x0.Vy, x0.wr
        for k in range(torques.shape[0]):
            torque, steer = float(torques[k]), float(steers[k])
            terms = (torque / sc.params.rw, steer, math.cos(steer), math.sin(steer))
            dvx, dvy, _ = oracle_rhs(vx, vy, wr, *terms, vc, math)
            assert tuple(states[k]) == (vx, vy, wr), (sc.name, k)
            assert tuple(accels[k]) == (dvx - vy * wr, dvy + vx * wr), (sc.name, k)
            vx, vy, wr = oracle_rk4(vx, vy, wr, *terms, sc.dt, substeps, vc, math)


@pytest.mark.parametrize("substeps", [1, 3])
def test_one_step_batch_equals_oracle_bitwise(substeps, monkeypatch):
    vx, vy, wr, torque, steer = _state_grid()
    vc = oracle_constants(P)
    expect = np.column_stack(oracle_rk4(
        vx, vy, wr, torque / P.rw, steer, np.cos(steer), np.sin(steer),
        0.025, substeps, vc, np))
    for rows in (_kernels.BATCH_ROWS, 1000):   # one block, then four
        monkeypatch.setattr(_kernels, "BATCH_ROWS", rows)
        batch = _kernels.one_step_batch(np.column_stack((vx, vy, wr)), torque,
                                        steer, 0.025, substeps, P)
        assert np.array_equal(batch, expect), rows


# ---------------------------------------------------------------------------
# trajectory file round-trip and scenario config round-trip

def test_trajectory_csv_roundtrip_exact(tmp_path):
    tr = run_scenario(make_scenario("mixed", duration=5.0))
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    back = Trajectory.from_csv(path)
    assert np.array_equal(tr.t, back.t)
    assert np.array_equal(tr.states, back.states)
    assert np.array_equal(tr.inputs, back.inputs)
    assert np.array_equal(tr.accels, back.accels)


@pytest.mark.parametrize("n_rows", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                    2 * ROW_BLOCK + 5])
def test_write_rows_equals_per_row_formatting(n_rows):
    rng = np.random.default_rng(n_rows)
    scale = 10.0 ** rng.integers(-300, 300, (n_rows, 2))
    wide = rng.standard_normal((n_rows, 2)) * scale
    col = rng.standard_normal(n_rows)
    extremes = [-0.0, 1e-300, 1e300, -1e300, 5e-324, np.nan, np.inf]
    col[:len(extremes)] = extremes[:n_rows]
    wide[-1] = (-0.0, 1e300)
    fmt = "M%%,%d,%.17g,%.17g,%.17g\n"
    for first in (1, 2 ** 52):
        expect = "".join(fmt % (first + k, col[k], wide[k, 0], wide[k, 1])
                         for k in range(n_rows))
        fh = io.StringIO()
        write_rows(fh, fmt, (col, wide), first_index=first)
        assert fh.getvalue() == expect
    fh = io.StringIO()
    write_rows(fh, "%.17g,%.17g,%.17g\n", (col, wide))
    assert fh.getvalue() == "".join("%.17g,%.17g,%.17g\n" % (col[k], *wide[k])
                                    for k in range(n_rows))


def test_trajectory_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,Vx,Vy,wr,T,delta_f,ax,ay\n0,1,2,3,4,5,6\n")
    with pytest.raises(ValueError, match="row 2"):
        Trajectory.from_csv(path)


def test_trajectory_csv_names_file_line_after_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("t,Vx,Vy,wr,T,delta_f,ax,ay\n"
                    "0,10,0,0,100,0,0,0\n"
                    "\n"
                    "   \t\n"
                    "0.025,10,0,0,100,0,0,0\n"
                    "0.05,10,0,0,1oo,0,0,0\n")
    with pytest.raises(ValueError, match=r"^row 6: "):
        Trajectory.from_csv(path)
    path.write_text(path.read_text().replace("1oo", "100,0"))
    with pytest.raises(ValueError, match=r"^row 6: expected 8 columns, got 9"):
        Trajectory.from_csv(path)


def test_trajectory_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("t,Vx,Vy,wr,T,delta_f,ax,ay\n\n"
                    "0,10,0.5,0,100,0,0,0\n  \n"
                    "0.025,11,0,0.1,100,0.01,0.2,-0.3\n\n")
    tr = Trajectory.from_csv(path)
    assert np.array_equal(tr.t, [0.0, 0.025])
    assert np.array_equal(tr.states, [[10.0, 0.5, 0.0], [11.0, 0.0, 0.1]])
    assert np.array_equal(tr.accels[1], [0.2, -0.3])
    path.write_text("t,Vx,Vy,wr,T,delta_f,ax,ay\n \n\n")
    with pytest.raises(ValueError, match="empty trajectory file"):
        Trajectory.from_csv(path)


@pytest.mark.parametrize("body", ["", "\n \n\t\n"])
def test_trajectory_csv_empty_body_raises_without_warning(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("t,Vx,Vy,wr,T,delta_f,ax,ay\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^empty trajectory file$"):
            Trajectory.from_csv(path)


def test_trajectory_csv_reader_memory_is_bounded(tmp_path):
    # the body streams into the parser: at 24k rows the traced peak reads
    # 1.2x the returned arrays, against 4.7x when the file was first read
    # into a list of lines
    k = 24_000
    rng = np.random.default_rng(5)
    Trajectory(t=0.025 * np.arange(k), states=rng.normal(size=(k, 3)),
               inputs=rng.normal(size=(k, 2)),
               accels=rng.normal(size=(k, 2))).to_csv(tmp_path / "long.csv")
    tracemalloc.start()
    try:
        tr = Trajectory.from_csv(tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr) == k
    nbytes = sum(a.nbytes for a in (tr.t, tr.states, tr.inputs, tr.accels))
    assert peak < 2 * nbytes, (peak, nbytes)


def test_trajectory_dt_rejects_uneven_spacing():
    tr = run_scenario(make_scenario("mixed", duration=300.0))
    assert tr.dt == 0.025          # t = k * dt, rounded, is uniform
    for t in (np.array([0.0, 0.025, 0.075, 0.1]),
              np.array([0.0, 0.025, np.nan, 0.075])):
        gapped = Trajectory(t=t, states=np.zeros((4, 3)), inputs=np.zeros((4, 2)),
                            accels=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="not uniformly spaced.*t=0.025"):
            gapped.dt
    one = Trajectory(t=np.zeros(1), states=np.zeros((1, 3)),
                     inputs=np.zeros((1, 2)), accels=np.zeros((1, 2)))
    assert one.dt == 0.0


def test_scenario_config_roundtrip():
    sc = make_scenario("slalom")
    cfg = scenario_to_config(sc)
    back = scenario_from_config(cfg)
    assert back.duration == sc.duration
    assert back.dt == sc.dt
    assert back.params == sc.params
    assert back.input_program == sc.input_program
    assert back == sc
    # without params.* keys every parameter keeps its VehicleParams default
    plain = {k: v for k, v in cfg.items() if not k.startswith("params.")}
    assert scenario_from_config(plain).params == VehicleParams()


def test_mass_perturbation_knob():
    base = make_scenario("mixed", duration=10.0)
    heavy = make_scenario("mixed", duration=10.0, dm=160.0)
    assert heavy.params.m == base.params.m + 160.0
    assert heavy.params.Iz == base.params.Iz
    assert heavy != base
    assert heavy.name == "mixed_dm+160_dIz+0"   # suite report file names use it
