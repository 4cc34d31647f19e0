"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive fixture trains
the DK/ALDK pair once at desk-scale defaults (seed 42) on the 20-minute
mixed-excitation trajectory; everything else reuses it.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import planar_rhs, rk4_step
from koopcar import mlp as mlp_mod
from koopcar.adapt import AdapterConfig, adapt_run, init, update
from koopcar.cli import main as cli_main
from koopcar.koopman import (N_INPUTS, KoopmanModel, LossWeights, PairBatch,
                             TrainConfig, _Layout, _loss_and_grad,
                             _prepared_arrays, edmd_fit, loss_gradient,
                             one_step_predictions, split_pairs, train)
from koopcar.mlp import Normalizer
from koopcar.evaluation import metrics
from koopcar.scenarios import make_scenario, run_scenario
from koopcar.vehicle import VehicleParams

SEED = 42


def check(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {status}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def dense_stable_system(rng, zdim, udim, radius=0.9):
    a_mat = rng.normal(size=(zdim, zdim))
    a_mat *= radius / np.abs(np.linalg.eigvals(a_mat)).max()
    return a_mat, rng.normal(size=(zdim, udim))


@pytest.fixture(scope="session")
def mixed_1200():
    return run_scenario(make_scenario("mixed", duration=1200.0))


def _train_all(jobs):
    """`train(*job)` for every job: in two `spawn` worker processes when
    there are two cores, else (or when the workers cannot start) one after
    another. Training is bound by numpy dispatch, not BLAS, so each worker
    gets one BLAS thread; the results are bitwise those of the serial run.
    A worker that dies breaks the pool, which raises instead of hanging."""
    if (os.cpu_count() or 1) >= 2:
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"   # read as each worker imports numpy
        try:
            with ProcessPoolExecutor(
                    2, mp_context=multiprocessing.get_context("spawn")) as pool:
                futures = [pool.submit(train, *job) for job in jobs]
                return [f.result() for f in futures]
        except OSError:
            pass   # no worker could start: train in this process
        finally:
            if saved is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
    return [train(*job) for job in jobs]


@pytest.fixture(scope="session")
def trained(mixed_1200):
    """DK and ALDK trained at desk-scale defaults on the 20-minute run, side
    by side when two cores are there."""
    pairs = PairBatch.from_trajectory(mixed_1200)
    dk, aldk = _train_all([
        (pairs, TrainConfig(seed=SEED, epochs=200, batch_size=256,
                            weights=LossWeights(accel=w_accel)))
        for w_accel in (0.0, 1.0)])
    return {"pairs": pairs, "DK": dk, "ALDK": aldk}


# ---------------------------------------------------------------------------

def test_criterion_01_swls_streaming_equals_windowed_ls():
    rng = np.random.default_rng(101)
    zdim, udim, window, steps = 15, 2, 100, 200
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        a_true, b_true = dense_stable_system(rng, zdim, udim)
        z = np.empty((steps, zdim))
        z[0] = rng.normal(size=zdim)
        u = rng.normal(size=(steps, udim))
        for k in range(steps - 1):
            z[k + 1] = a_true @ z[k] + b_true @ u[k]
        st = init(np.eye(zdim), np.zeros((zdim, udim)), z[0], u[0],
                  AdapterConfig(mode="SWLS", window=window, eps_reg=0.0))
        for k in range(1, steps):
            a_k, b_k = update(st, z[k], u[k - 1])
            if k >= window:
                lo = k - window
                g_mat = np.vstack((z[lo:k].T, u[lo:k].T))
                h_direct = z[lo + 1:k + 1].T @ np.linalg.pinv(g_mat)
                worst = max(worst, np.abs(np.hstack((a_k, b_k)) - h_direct).max())
    elapsed = time.perf_counter() - t0
    check(1, "streaming SWLS equals direct windowed LS for k >= M (20 systems)",
          worst < 1e-8 and elapsed < 30.0,
          f"max-abs diff {worst:.3g}, runtime {elapsed:.1f}s")


def test_criterion_02_growing_window_matches_textbook_rls():
    rng = np.random.default_rng(102)
    zdim, udim, steps = 15, 2, 1000
    a_true, b_true = dense_stable_system(rng, zdim, udim)
    z = np.empty((steps + 1, zdim))
    z[0] = rng.normal(size=zdim)
    u = rng.normal(size=(steps + 1, udim))
    for k in range(steps):
        z[k + 1] = a_true @ z[k] + b_true @ u[k]
    eps = 1e-2
    a0 = np.eye(zdim)
    b0 = np.zeros((zdim, udim))
    st = init(a0, b0, z[0], u[0],
              AdapterConfig(mode="SWLS", window=10 ** 9, eps_reg=eps))
    h_rls = np.hstack((a0, b0))
    p_rls = np.eye(zdim + udim) / eps
    worst = 0.0
    for k in range(1, steps + 1):
        a_k, b_k = update(st, z[k], u[k - 1])
        g = np.concatenate((z[k - 1], u[k - 1]))
        pg = p_rls @ g
        gain = pg / (1.0 + g @ pg)
        h_rls = h_rls + np.outer(z[k] - h_rls @ g, gain)
        p_rls = p_rls - np.outer(gain, pg)
        p_rls = 0.5 * (p_rls + p_rls.T)
        worst = max(worst, np.abs(np.hstack((a_k, b_k)) - h_rls).max())
    check(2, "M=k SWLS trajectory matches an independent textbook RLS over 1000 steps",
          worst < 1e-8, f"max-abs diff {worst:.3g}")


def test_criterion_03_edmd_recovers_known_system():
    rng = np.random.default_rng(103)
    d, m, l = 15, 2, 200
    a_true, b_true = dense_stable_system(rng, d, m)
    z = np.empty((d, l + 1))
    z[:, 0] = rng.normal(size=d)
    u = rng.normal(size=(m, l))
    for k in range(l):
        z[:, k + 1] = a_true @ z[:, k] + b_true @ u[:, k]
    a_fit, b_fit = edmd_fit(z[:, :-1], z[:, 1:], u)
    err = max(np.abs(a_fit - a_true).max(), np.abs(b_fit - b_true).max())
    check(3, "EDMD on 200 identity-lifted snapshots recovers (A, B)",
          err < 1e-10, f"max-abs error {err:.3g}")


def test_criterion_04_joint_loss_gradient_correctness():
    rng = np.random.default_rng(104)
    enc = (3, 8, 2)
    dec = (2, 8, 3)
    layout = _Layout.build(enc, dec)
    d = layout.lifted
    theta = layout.join(mlp_mod.init_theta(enc, rng), mlp_mod.init_theta(dec, rng),
                        np.eye(d) + 0.05 * rng.normal(size=(d, d)),
                        0.1 * rng.normal(size=(d, N_INPUTS)))
    norm = Normalizer(lo=np.array([5.0, -1.0, -0.5, -500.0, -0.1]),
                      hi=np.array([25.0, 1.0, 0.5, 1500.0, 0.1]))
    model = KoopmanModel(enc, dec, theta, norm, 0.025)
    n_s = 6
    batch = PairBatch(
        x_now=np.column_stack((rng.uniform(8, 20, n_s),
                               rng.uniform(-0.5, 0.5, n_s),
                               rng.uniform(-0.3, 0.3, n_s))),
        u_now=np.column_stack((rng.uniform(-200, 800, n_s),
                               rng.uniform(-0.05, 0.05, n_s))),
        x_next=np.column_stack((rng.uniform(8, 20, n_s),
                                rng.uniform(-0.5, 0.5, n_s),
                                rng.uniform(-0.3, 0.3, n_s))),
        acc_next=rng.normal(size=(n_s, 2)), dt=0.025)
    grad = loss_gradient(model, batch)
    arrs = _prepared_arrays(model, batch)

    def total(th):
        t, _ = _loss_and_grad(th, model, arrs, want_grad=False)
        return t.total(model.weights)

    h = 1e-3
    worst = 0.0
    for i in range(theta.size):
        def central(hh):
            tp = theta.copy(); tp[i] += hh
            tm = theta.copy(); tm[i] -= hh
            return (total(tp) - total(tm)) / (2 * hh)
        fd = (4.0 * central(h / 2) - central(h)) / 3.0  # Richardson-extrapolated
        worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8))
    check(4, "every joint-loss parameter gradient matches central differences",
          worst < 1e-5, f"worst relative error {worst:.3g} over {theta.size} params")


def test_criterion_05_simulator_physics_suite():
    pv = VehicleParams().packed()
    rng = np.random.default_rng(105)
    reflect_ok = True
    for _ in range(200):
        vx, vy, wr = (rng.uniform(2, 30), rng.uniform(-1.5, 1.5),
                      rng.uniform(-0.6, 0.6))
        torque, steer = rng.uniform(-1000, 2000), rng.uniform(-0.4, 0.4)
        d = planar_rhs(vx, vy, wr, torque, steer, pv)
        m = planar_rhs(vx, -vy, -wr, torque, -steer, pv)
        reflect_ok &= (abs(m[0] - d[0]) <= 1e-12 and abs(m[1] + d[1]) <= 1e-12
                       and abs(m[2] + d[2]) <= 1e-12)

    manifold_ok = True
    for torque in (-300.0, 0.0, 800.0):
        _, dvy, dwr = planar_rhs(12.0, 0.0, 0.0, torque, 0.0, pv)
        manifold_ok &= (dvy == 0.0 and dwr == 0.0)

    scenario = make_scenario("mixed", duration=30.0)
    tr = run_scenario(scenario)
    pv_run = scenario.params.packed()
    identity_ok = True
    for (vx, vy, wr), (torque, steer), (ax, ay) in zip(
            tr.states.tolist(), tr.inputs.tolist(), tr.accels.tolist()):
        d = planar_rhs(vx, vy, wr, torque, steer, pv_run)
        identity_ok &= (abs((ax + vy * wr) - d[0]) <= 1e-12
                        and abs((ay - vx * wr) - d[1]) <= 1e-12)

    ref = np.array(rk4_step(15.0, 0.4, 0.15, 300.0, 0.04, 0.4, 512, pv))
    errs = []
    for n in (4, 8, 16, 32):
        a = rk4_step(15.0, 0.4, 0.15, 300.0, 0.04, 0.4, n, pv)
        errs.append(np.linalg.norm(np.array(a) - ref))
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    rk4_ok = all(12.0 <= r <= 20.0 for r in ratios)

    check(5, "reflection symmetry, zero-steer manifold, sensor identity, RK4 order",
          reflect_ok and manifold_ok and identity_ok and rk4_ok,
          f"RK4 halving ratios {[f'{r:.1f}' for r in ratios]}")


def test_criterion_06_accel_loss_improves_lateral_channels(trained):
    pairs = trained["pairs"]
    rmse = {}
    for tag in ("DK", "ALDK"):
        res = trained[tag]
        hold = pairs.subset(res.holdout_idx)
        preds = one_step_predictions(res.model, hold.x_now, hold.u_now)
        rmse[tag] = metrics(preds, hold.x_next).rmse
    vy_gain = (rmse["DK"][1] - rmse["ALDK"][1]) / rmse["DK"][1]
    wr_gain = (rmse["DK"][2] - rmse["ALDK"][2]) / rmse["DK"][2]
    ok = (rmse["ALDK"][1] < rmse["DK"][1] and rmse["ALDK"][2] < rmse["DK"][2]
          and max(vy_gain, wr_gain) >= 0.05)
    check(6, "ALDK beats DK on held-out Vy and wr (>=5% margin on one channel)",
          ok, f"Vy {rmse['DK'][1]:.4f}->{rmse['ALDK'][1]:.4f} ({vy_gain:+.0%}), "
              f"wr {rmse['DK'][2]:.4f}->{rmse['ALDK'][2]:.4f} ({wr_gain:+.0%})")


def _adaptation_rmse(model, scenario):
    trajectory = run_scenario(scenario)
    out = {}
    for mode in ("frozen", "RLS", "SWLS"):
        cfg = AdapterConfig(mode=mode, window=100)
        res = adapt_run(model, trajectory, cfg)
        out[mode] = metrics(res.predictions, res.truth).rmse
    return out


def test_criterion_07_swls_beats_frozen_and_rls_on_perturbed_plants(trained):
    model = trained["ALDK"].model
    all_ok = True
    details = []
    for label, kwargs in (("+160kg", {"dm": 160.0}), ("+142kgm2", {"dIz": 142.0})):
        scenario = make_scenario("mixed", duration=120.0, **kwargs)
        t0 = time.perf_counter()
        rmse = _adaptation_rmse(model, scenario)
        elapsed = time.perf_counter() - t0
        beats_frozen = all(rmse["SWLS"][i] < rmse["frozen"][i] for i in range(3))
        beats_rls = sum(rmse["SWLS"][i] < rmse["RLS"][i] for i in range(3))
        all_ok &= beats_frozen and beats_rls >= 2 and elapsed < 120.0
        details.append(f"{label}: <frozen all3={beats_frozen}, "
                       f"<RLS {beats_rls}/3, {elapsed:.0f}s")
    check(7, "ALDK-SWLS beats frozen ALDK (all channels) and RLS (>=2 channels)",
          all_ok, "; ".join(details))


def test_criterion_08_generalization_to_unseen_low_friction_slalom(trained):
    model = trained["ALDK"].model
    trajectory = run_scenario(make_scenario("slalom"))
    frozen = adapt_run(model, trajectory, AdapterConfig(mode="frozen"))
    swls = adapt_run(model, trajectory, AdapterConfig(mode="SWLS", window=100))
    rmse_frozen = metrics(frozen.predictions, frozen.truth).rmse
    rmse_swls = metrics(swls.predictions, swls.truth).rmse
    ok = all(rmse_swls[i] < rmse_frozen[i] for i in range(3))
    fr = ", ".join(f"{v:.4f}" for v in rmse_frozen)
    sw = ", ".join(f"{v:.4f}" for v in rmse_swls)
    check(8, "ALDK-SWLS beats frozen ALDK on the unseen mu=0.6 slalom",
          ok, f"frozen RMSE ({fr}) vs SWLS ({sw})")


def test_criterion_09_cli_determinism(tmp_path):
    traj = tmp_path / "traj.csv"
    assert cli_main(["simulate", "--scenario", "mixed", "--duration", "30",
                     "--out", str(traj)]) == 0
    train_files = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"model_{tag}.json"
        log = tmp_path / f"log_{tag}.csv"
        assert cli_main(["train", "--data", str(traj), "--seed", "7",
                         "--epochs", "3", "--hidden", "8", "--feature-dim", "2",
                         "--log", str(log), "--out", str(ckpt)]) == 0
        # neutralize the self-referential output paths recorded in the echo
        body = ckpt.read_text().replace(f"model_{tag}.json", "model.json")
        body = body.replace(f"log_{tag}.csv", "log.csv")
        train_files.append((body, log.read_bytes()))
    train_ok = train_files[0] == train_files[1]

    compare_files = []
    for tag in ("a", "b"):
        prefix = tmp_path / f"cmp_{tag}"
        assert cli_main(["compare", "--methods", "ALDK,ALDK-SWLS",
                         "--checkpoint-aldk", str(tmp_path / "model_a.json"),
                         "--scenario", "step_steer", "--scenario-duration", "20",
                         "--seed", "7", "--out", str(prefix)]) == 0
        compare_files.append([
            (tmp_path / f"cmp_{tag}_step_steer.table.txt").read_bytes(),
            (tmp_path / f"cmp_{tag}_step_steer.metrics.csv").read_bytes(),
            (tmp_path / f"cmp_{tag}_step_steer.series.csv").read_bytes()])
    compare_ok = compare_files[0] == compare_files[1]
    check(9, "repeated cmd_train and cmd_compare runs are byte-identical",
          train_ok and compare_ok,
          f"train identical={train_ok}, compare identical={compare_ok}")


def test_criterion_10_dataset_protocol(tmp_path):
    out = tmp_path / "full.csv"
    assert cli_main(["simulate", "--scenario", "mixed", "--duration", "1400",
                     "--dt", "0.025", "--out", str(out)]) == 0
    n_rows = sum(1 for _ in open(out)) - 1
    count_ok = n_rows == 56_001

    splits = [split_pairs(56_000, 0.3, np.random.default_rng(SEED))
              for _ in range(2)]
    split_ok = (np.array_equal(splits[0][0], splits[1][0])
                and np.array_equal(splits[0][1], splits[1][1])
                and len(splits[0][0]) == 39_200)
    check(10, "1400 s at dt=0.025 yields 56,001 snapshots; split reproducible",
          count_ok and split_ok,
          f"rows {n_rows}, train share {len(splits[0][0])}")
