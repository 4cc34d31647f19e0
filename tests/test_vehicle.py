import io
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from koopcar import _kernels, backend_name
from koopcar.evaluation import scenario_suite
from koopcar.vehicle import (MAX_STEER, ROW_BLOCK, ControlInput,
                             MagicFormulaParams, ModelValidityError, Snapshot,
                             Trajectory, VehicleParams, VehicleState,
                             derivatives, equilibrium_torque, rk4_generic,
                             run_schedule, sensor_accels, step_rk4,
                             tire_lateral_force, write_rows)
from koopcar.scenarios import (InputProgram, Scenario, make_scenario,
                               run_scenario, scenario_from_config,
                               scenario_to_config)

P = VehicleParams()
TIRE = MagicFormulaParams()


# ---------------------------------------------------------------------------
# tire model

def test_tire_zero_slip_gives_zero_force():
    for fz in (1000.0, 5000.0, 9000.0):
        assert tire_lateral_force(0.0, fz, TIRE, 0.85) == 0.0


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_tire_odd_symmetry(alpha):
    f_pos = tire_lateral_force(alpha, 5000.0, TIRE, 0.85)
    f_neg = tire_lateral_force(-alpha, 5000.0, TIRE, 0.85)
    assert f_neg == -f_pos
    assert f_pos > 0.0


def test_tire_peak_bound_grid_sweep():
    # numeric sweep oracle over 10^4 grid points
    fz, mu = 5000.0, 0.85
    grid = np.linspace(-0.5, 0.5, 10_000)
    forces = np.array([tire_lateral_force(a, fz, TIRE, mu) for a in grid])
    assert np.abs(forces).max() <= mu * TIRE.d_peak_scale * fz + 1e-9


def test_tire_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tire_lateral_force(float("nan"), 5000.0, TIRE, 0.85)
    with pytest.raises(ValueError):
        tire_lateral_force(0.1, -10.0, TIRE, 0.85)


def test_tire_param_invariants():
    with pytest.raises(ValueError):
        MagicFormulaParams(b_stiff=-1.0)
    with pytest.raises(ValueError):
        MagicFormulaParams(d_peak_scale=1.5)
    with pytest.raises(ValueError):
        MagicFormulaParams(e_curv=1.5)


# ---------------------------------------------------------------------------
# derivatives

def test_straight_driving_has_no_lateral_response():
    for torque in (-500.0, 0.0, 400.0, 2000.0):
        dvx, dvy, dwr = derivatives(VehicleState(15.0, 0.0, 0.0),
                                    ControlInput(torque, 0.0), P)
        assert dvy == 0.0
        assert dwr == 0.0


def test_reflection_symmetry_of_derivatives():
    rng = np.random.default_rng(11)
    for _ in range(200):
        vx = rng.uniform(2.0, 30.0)
        vy = rng.uniform(-1.5, 1.5)
        wr = rng.uniform(-0.6, 0.6)
        torque = rng.uniform(-1000.0, 2000.0)
        steer = rng.uniform(-0.4, 0.4)
        d = derivatives(VehicleState(vx, vy, wr), ControlInput(torque, steer), P)
        mirrored = derivatives(VehicleState(vx, -vy, -wr),
                               ControlInput(torque, -steer), P)
        assert abs(mirrored[0] - d[0]) <= 1e-12
        assert abs(mirrored[1] + d[1]) <= 1e-12
        assert abs(mirrored[2] + d[2]) <= 1e-12


def test_derivatives_frozen_hand_oracle():
    # independent term-by-term evaluation (frozen from an offline script)
    got = derivatives(VehicleState(20.0, 0.5, 0.1), ControlInput(400.0, 0.05), P)
    expect = (0.35268658469509967, -1.9358666465600258, 2.1106556649351638)
    for g, e in zip(got, expect):
        assert abs(g - e) < 1e-10


def test_derivatives_validity_floor():
    with pytest.raises(ModelValidityError):
        derivatives(VehicleState(0.05, 0.0, 0.0), ControlInput(100.0, 0.0), P)
    with pytest.raises(ValueError):
        derivatives(VehicleState(float("inf"), 0.0, 0.0), ControlInput(0.0, 0.0), P)


def test_vehicle_param_invariants():
    with pytest.raises(ValueError):
        VehicleParams(m=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(mu=1.5)
    with pytest.raises(ValueError):
        ControlInput(0.0, 1.0)  # |delta_f| <= pi/4


# ---------------------------------------------------------------------------
# sensor accelerations

def test_sensor_accels_no_coupling_at_rest_axes():
    s = VehicleState(12.0, 0.0, 0.0)
    d = derivatives(s, ControlInput(300.0, 0.0), P)
    ax, ay = sensor_accels(s, d)
    assert ax == d[0] and ay == d[1]


def test_sensor_accel_reconstruction_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = VehicleState(rng.uniform(2, 25), rng.uniform(-1, 1),
                         rng.uniform(-0.5, 0.5))
        d = derivatives(s, ControlInput(rng.uniform(-500, 1500),
                                        rng.uniform(-0.3, 0.3)), P)
        ax, ay = sensor_accels(s, d)
        assert abs((ax + s.Vy * s.wr) - d[0]) <= 1e-12
        assert abs((ay - s.Vx * s.wr) - d[1]) <= 1e-12


def test_sensor_accels_direct_arithmetic():
    ax, ay = sensor_accels(VehicleState(10.0, 1.0, 0.2), (0.5, -0.3, 0.0))
    assert abs(ax - 0.3) < 1e-15
    assert abs(ay - 1.7) < 1e-15


# ---------------------------------------------------------------------------
# integrator

def test_rk4_equilibrium_fixed_point():
    t_eq = equilibrium_torque(15.0, P)
    s1 = step_rk4(VehicleState(15.0, 0.0, 0.0), ControlInput(t_eq, 0.0), 0.025, P)
    assert abs(s1.Vx - 15.0) <= 1e-9
    assert s1.Vy == 0.0 and s1.wr == 0.0


def test_rk4_fourth_order_global_convergence():
    # Richardson study over a fixed 0.4 s interval
    s = VehicleState(15.0, 0.4, 0.15)
    u = ControlInput(300.0, 0.04)
    ref = step_rk4(s, u, 0.4, P, substeps=512)
    ref_v = np.array([ref.Vx, ref.Vy, ref.wr])
    errs = []
    for n in (4, 8, 16, 32):
        a = step_rk4(s, u, 0.4, P, substeps=n)
        errs.append(np.linalg.norm(np.array([a.Vx, a.Vy, a.wr]) - ref_v))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_rk4_generic_matches_matrix_exponential():
    from scipy.linalg import expm
    lam = np.array([[-0.5, 0.3, 0.0], [-0.2, -0.8, 0.1], [0.0, 0.4, -1.2]])
    z0 = np.array([1.0, -0.5, 0.3])
    for dt in (0.2, 0.1, 0.05):
        num = rk4_generic(lambda x: lam @ x, z0, dt)
        exact = expm(lam * dt) @ z0
        assert np.linalg.norm(num - exact) <= 0.05 * dt ** 5


def test_vehicle_step_matches_generic_rk4():
    s = VehicleState(14.0, 0.3, 0.1)
    u = ControlInput(250.0, 0.03)

    def rhs(x):
        return np.array(derivatives(VehicleState(*x), u, P))

    expect = rk4_generic(rhs, s.as_array(), 0.025)
    got = step_rk4(s, u, 0.025, P)
    assert np.allclose([got.Vx, got.Vy, got.wr], expect, rtol=0, atol=1e-13)


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
    pv = P.packed()
    batch = _kernels.one_step_batch(np.column_stack((vx, vy, wr)), torque,
                                    steer, 0.025, substeps, pv)
    scalar = np.array([
        _kernels.rk4_step(*map(float, row), 0.025, substeps, pv)
        for row in zip(vx, vy, wr, torque, steer)])
    assert batch.shape == scalar.shape == (vx.size, 3)
    assert _rows_close(batch, scalar, 1e-15)


def test_array_planar_rhs_matches_scalar_elementwise():
    vx, vy, wr, torque, steer = _state_grid()
    pv = P.packed()
    arrays = np.column_stack(_kernels.planar_rhs(vx, vy, wr, torque, steer,
                                                 pv, np))
    scalar = np.array([_kernels.planar_rhs(*map(float, row), pv)
                       for row in zip(vx, vy, wr, torque, steer)])
    assert _rows_close(arrays, scalar, 1e-15)


def test_packed_params_are_python_floats():
    pv = VehicleParams(m=2000, mu=0.8).packed()
    assert len(pv) == 13 and all(type(v) is float for v in pv)
    assert pv[0] == 2000.0 and pv[6] == 0.8
    assert backend_name() == "numpy"


def test_rk4_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_rk4(VehicleState(10.0), ControlInput(0.0), -0.01, P)


# ---------------------------------------------------------------------------
# scenario runs

def test_run_scenario_snapshot_count():
    sc = Scenario(name="count", duration=1.0, dt=0.025,
                  initial_state=VehicleState(15.0),
                  input_program=InputProgram.make("equilibrium", speed=15.0))
    tr = run_scenario(sc)
    assert len(tr) == 41  # duration/dt + 1, including t=0


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
    for k in range(0, len(tr), 37):
        snap = tr[k]
        d = derivatives(snap.state, snap.input, tr_params(tr, snap))
        assert abs((snap.ax + snap.state.Vy * snap.state.wr) - d[0]) <= 1e-12
        assert abs((snap.ay - snap.state.Vx * snap.state.wr) - d[1]) <= 1e-12


def tr_params(tr, snap):
    # the library scenario uses nominal params with mu=0.85
    return VehicleParams(mu=0.85)


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
    assert tr[3].input.delta_f == sign * MAX_STEER


def test_simulate_path_stops_at_a_nan_state():
    pv = P.packed()
    torques, steers = np.full(10, 300.0), np.zeros(10)
    *_, fail = _kernels.simulate_path(np.array([np.nan, 0.0, 0.0]), torques,
                                      steers, 0.025, 1, pv)
    assert fail == 0
    # a NaN lateral velocity reaches Vx through the slip angles in one step
    states, _, fail = _kernels.simulate_path(np.array([15.0, np.nan, 0.0]),
                                             torques, steers, 0.025, 1, pv)
    assert fail == 1
    assert states[0, 0] == 15.0 and not states[1:].any()


@pytest.mark.parametrize("substeps", [1, 3])
def test_simulate_path_equals_public_stepping_bitwise(substeps):
    # the loop hoists vehicle constants and input terms out of the RK4
    # stages; stepping the public kernels sample by sample must give the
    # same bits on every suite scenario
    for sc in scenario_suite():
        sc = replace(sc, duration=10.0)
        torques, steers = sc.input_program.sample(sc.time_grid(), sc.params)
        pv = sc.params.packed()
        x0 = sc.initial_state.as_array()
        states, accels, fail = _kernels.simulate_path(x0, torques, steers,
                                                      sc.dt, substeps, pv)
        assert fail == -1
        vx, vy, wr = map(float, x0)
        for k in range(torques.shape[0]):
            torque, steer = float(torques[k]), float(steers[k])
            dvx, dvy, _ = _kernels.planar_rhs(vx, vy, wr, torque, steer, pv)
            assert tuple(states[k]) == (vx, vy, wr), (sc.name, k)
            assert tuple(accels[k]) == (dvx - vy * wr, dvy + vx * wr), (sc.name, k)
            vx, vy, wr = _kernels.rk4_step(vx, vy, wr, torque, steer, sc.dt,
                                           substeps, pv)


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


def test_snapshot_view_matches_arrays():
    tr = run_scenario(make_scenario("mixed", duration=2.0))
    snap = tr[7]
    assert isinstance(snap, Snapshot)
    assert snap.t == tr.t[7]
    assert snap.state.Vx == tr.states[7, 0]
    assert snap.ax == tr.accels[7, 0]


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
