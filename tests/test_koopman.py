import numpy as np
import pytest

from koopcar import koopman
from koopcar import mlp as mlp_mod
from koopcar.koopman import (HOLDOUT_CHUNK, KoopmanDims, KoopmanModel,
                             LossWeights, PairBatch, TrainConfig,
                             _build_layout, edmd_fit, lift,
                             load_checkpoint, loss_components, loss_gradient,
                             one_step_predictions, predict_one_step, project,
                             save_checkpoint, split_pairs, train)
from koopcar.mlp import LayerSpec, Normalizer, mlp_specs
from koopcar.vehicle import Trajectory

NORM5 = Normalizer(lo=np.array([5.0, -1.0, -0.5, -500.0, -0.1]),
                   hi=np.array([25.0, 1.0, 0.5, 1500.0, 0.1]))


def build_model(dims, enc_specs, dec_specs, theta_fill=None, seed=0,
                normalizer=NORM5, dt=0.025, weights=LossWeights()):
    layout = _build_layout(enc_specs, dec_specs, dims)
    rng = np.random.default_rng(seed)
    theta = np.zeros(layout.size)
    if theta_fill == "random":
        theta[:layout.enc.size] = mlp_mod.init_theta(enc_specs, rng)
        theta[layout.enc.size:layout.enc.size + layout.dec.size] = (
            mlp_mod.init_theta(dec_specs, rng))
        d = dims.lifted
        theta[layout.a_off:layout.a_off + d * d] = (
            np.eye(d) + 0.05 * rng.normal(size=(d, d))).ravel()
        theta[layout.b_off:] = 0.1 * rng.normal(size=d * dims.m)
    return KoopmanModel(dims, enc_specs, dec_specs, theta, normalizer, dt,
                        weights)


def tiny_model(seed=0):
    dims = KoopmanDims(n=3, m=2, p=2)
    return build_model(dims, mlp_specs((3, 8, 2)), mlp_specs((2, 8, 3)),
                       "random", seed=seed)


def random_batch(n, seed=1, dt=0.025):
    rng = np.random.default_rng(seed)
    return PairBatch(
        x_now=np.column_stack((rng.uniform(8, 20, n), rng.uniform(-0.5, 0.5, n),
                               rng.uniform(-0.3, 0.3, n))),
        u_now=np.column_stack((rng.uniform(-200, 800, n),
                               rng.uniform(-0.05, 0.05, n))),
        x_next=np.column_stack((rng.uniform(8, 20, n), rng.uniform(-0.5, 0.5, n),
                                rng.uniform(-0.3, 0.3, n))),
        acc_next=rng.normal(size=(n, 2)),
        dt=dt)


# ---------------------------------------------------------------------------
# lift / project / predict

def test_lift_keeps_state_in_first_components():
    model = tiny_model()
    x = np.array([0.3, -0.2, 0.7])
    z = lift(model, x)
    assert np.array_equal(z[:3], x)
    assert z.shape == (5,)


def test_lift_with_zero_encoder_appends_zeros():
    dims = KoopmanDims(p=2)
    model = build_model(dims, mlp_specs((3, 4, 2)), mlp_specs((2, 4, 3)))
    z = lift(model, np.array([0.5, 0.1, -0.3]))
    assert np.array_equal(z, [0.5, 0.1, -0.3, 0.0, 0.0])


def test_lift_rejects_wrong_state_dim():
    model = tiny_model()
    with pytest.raises(ValueError, match="state dim"):
        lift(model, np.zeros(5))
    with pytest.raises(ValueError, match="state dim"):
        lift(model, np.zeros((4, 2)))


def test_lift_is_injective_on_states():
    model = tiny_model()
    za = lift(model, np.array([0.1, 0.2, 0.3]))
    zb = lift(model, np.array([0.1, 0.2, 0.30001]))
    assert not np.array_equal(za, zb)


def test_project_inverts_lift_exactly():
    model = tiny_model()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=3)
        assert np.array_equal(project(lift(model, x), 3), x)


def test_project_all_ones():
    assert np.array_equal(project(np.ones(15), 3), [1.0, 1.0, 1.0])


def test_project_dim_check():
    with pytest.raises(ValueError):
        project(np.ones(2), 3)


def test_predict_one_step_persistence():
    model = tiny_model()
    d = model.dims.lifted
    model.theta[model.layout.a_off:model.layout.a_off + d * d] = np.eye(d).ravel()
    model.theta[model.layout.b_off:] = 0.0
    z = np.arange(d, dtype=np.float64)
    assert np.array_equal(predict_one_step(model, z, np.array([1.0, -1.0])), z)


def test_predict_from_zero_state_reads_b_columns():
    model = tiny_model(seed=5)
    z = np.zeros(model.dims.lifted)
    u = np.array([1.0, 0.0])
    assert np.allclose(predict_one_step(model, z, u), model.B[:, 0], atol=1e-15)


def test_predict_matches_triple_loop_oracle():
    model = tiny_model(seed=6)
    rng = np.random.default_rng(3)
    z = rng.normal(size=model.dims.lifted)
    u = rng.normal(size=2)
    a_mat, b_mat = model.A, model.B
    expect = np.zeros(model.dims.lifted)
    for r in range(model.dims.lifted):
        acc = 0.0
        for c in range(model.dims.lifted):
            acc += a_mat[r, c] * z[c]
        for c in range(2):
            acc += b_mat[r, c] * u[c]
        expect[r] = acc
    assert np.allclose(predict_one_step(model, z, u), expect, atol=1e-12)


# ---------------------------------------------------------------------------
# pair construction

def test_pairs_reject_nonuniform_spacing():
    tr = Trajectory(t=np.array([0.0, 0.025, 0.08]), states=np.zeros((3, 3)),
                    inputs=np.zeros((3, 2)), accels=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="uniform"):
        PairBatch.from_trajectory(tr)


def test_pairs_are_views_of_the_trajectory():
    tr = Trajectory(t=0.025 * np.arange(4), states=np.ones((4, 3)),
                    inputs=np.ones((4, 2)), accels=np.ones((4, 2)))
    b = PairBatch.from_trajectory(tr)
    assert np.shares_memory(b.x_now, tr.states)
    assert np.shares_memory(b.x_next, tr.states)
    assert np.shares_memory(b.u_now, tr.inputs)
    assert np.shares_memory(b.acc_next, tr.accels)
    assert np.array_equal(b.x_next, tr.states[1:])


def test_pairs_reject_nonfinite_accels():
    b = random_batch(3)
    b.acc_next[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        PairBatch(b.x_now, b.u_now, b.x_next, b.acc_next, b.dt)


# ---------------------------------------------------------------------------
# losses

def test_exact_linear_model_has_zero_linear_and_pred_loss():
    # zero encoder => phi == 0; A with zero feature rows keeps the lifted
    # evolution consistent, and x_next is defined as the predicted state
    dims = KoopmanDims(p=2)
    model = build_model(dims, mlp_specs((3, 4, 2)), mlp_specs((2, 4, 3)))
    d = dims.lifted
    a_mat = np.zeros((d, d))
    a_mat[:3, :3] = np.array([[0.9, 0.05, 0.0], [0.0, 0.8, 0.1], [0.02, 0.0, 0.85]])
    b_mat = np.zeros((d, 2))
    b_mat[:3] = np.array([[0.05, 0.0], [0.0, 0.2], [0.01, 0.1]])
    model.theta[model.layout.a_off:model.layout.a_off + d * d] = a_mat.ravel()
    model.theta[model.layout.b_off:] = b_mat.ravel()

    x_now = np.array([[12.0, 0.3, -0.1]])
    u_now = np.array([[250.0, 0.02]])
    xn = model.normalize_states(x_now[0])
    un = model.normalize_inputs(u_now[0])
    zhat = a_mat @ np.concatenate([xn, [0.0, 0.0]]) + b_mat @ un
    x_next = model.denormalize_states(zhat[:3])[None, :]
    acc = np.zeros((1, 2))
    batch = PairBatch(x_now, u_now, x_next, acc, 0.025)
    terms = loss_components(model, batch)
    assert terms.linear < 1e-24
    assert terms.pred < 1e-24


def test_exact_decoder_gives_zero_recon_loss():
    # zero encoder (phi=0) and decoder bias set to the normalized sample
    dims = KoopmanDims(p=2)
    enc = mlp_specs((3, 4, 2))
    dec = (LayerSpec(2, 3, "linear"),)
    model = build_model(dims, enc, dec)
    batch = random_batch(1, seed=4)
    xn = model.normalize_states(batch.x_now[0])
    off = model.layout.enc.size + 2 * 3  # decoder bias location
    model.theta[off:off + 3] = xn
    assert loss_components(model, batch).recon == 0.0


def test_tiny_model_frozen_loss_oracle():
    # values frozen from an independent scalar evaluation script
    dims = KoopmanDims(n=3, m=2, p=1)
    enc = (LayerSpec(3, 1, "tanh"),)
    dec = (LayerSpec(1, 3, "linear"),)
    model = build_model(dims, enc, dec)
    model.theta[0:3] = [0.2, -0.1, 0.3]
    model.theta[3] = 0.05
    model.theta[4:7] = [0.4, -0.3, 0.1]
    model.theta[7:10] = [0.01, 0.02, -0.03]
    a_mat = np.array([[1.0, 0.0, 0.0, 0.1], [0.0, 0.95, 0.02, 0.0],
                      [0.01, 0.0, 0.9, -0.05], [0.0, 0.02, 0.0, 0.8]])
    b_mat = np.array([[0.002, 0.0], [0.0, 0.15], [0.001, 0.3], [0.0, 0.05]])
    model.theta[model.layout.a_off:model.layout.a_off + 16] = a_mat.ravel()
    model.theta[model.layout.b_off:] = b_mat.ravel()
    batch = PairBatch(x_now=np.array([[12.0, 0.3, -0.1]]),
                      u_now=np.array([[250.0, 0.02]]),
                      x_next=np.array([[12.1, 0.25, -0.08]]),
                      acc_next=np.array([[0.8, -0.4]]), dt=0.025)
    terms = loss_components(model, batch)
    assert abs(terms.linear - 0.006173597753396977) < 1e-15
    assert abs(terms.recon - 0.16113216679843562) < 1e-15
    assert abs(terms.pred - 0.0058815665333661251) < 1e-15
    assert abs(terms.accel - 24.684689422692884) < 1e-12


def test_accel_loss_zero_when_prediction_matches_forward_difference():
    model = tiny_model(seed=7)
    batch = random_batch(1, seed=8)
    xn = model.normalize_states(batch.x_now[0])
    un = model.normalize_inputs(batch.u_now[0])
    zhat = predict_one_step(model, lift(model, xn), un)
    vhat = model.denormalize_states(np.concatenate([zhat[:2], [0.0]]))[:2]
    a_target = (vhat - batch.x_now[0, :2]) / batch.dt
    # choose measured accelerations so the sensor combination equals a_target
    batch.acc_next[0, 0] = a_target[0] - batch.x_next[0, 1] * batch.x_next[0, 2]
    batch.acc_next[0, 1] = a_target[1] + batch.x_next[0, 0] * batch.x_next[0, 2]
    assert loss_components(model, batch).accel < 1e-22


def test_accel_loss_quadratic_around_its_minimum():
    # prediction-vs-target mismatch of eps on one velocity channel costs
    # exactly eps^2 (the eps/dt scaling of a velocity perturbation is folded
    # into the acceleration residual)
    model = tiny_model(seed=9)
    batch = random_batch(1, seed=10)
    xn = model.normalize_states(batch.x_now[0])
    un = model.normalize_inputs(batch.u_now[0])
    zhat = predict_one_step(model, lift(model, xn), un)
    vhat = model.denormalize_states(np.concatenate([zhat[:2], [0.0]]))[:2]
    a_target = (vhat - batch.x_now[0, :2]) / batch.dt
    batch.acc_next[0, 0] = a_target[0] - batch.x_next[0, 1] * batch.x_next[0, 2]
    batch.acc_next[0, 1] = a_target[1] + batch.x_next[0, 0] * batch.x_next[0, 2]
    assert loss_components(model, batch).accel < 1e-22
    for eps in (0.125, 0.25):
        probe = PairBatch(batch.x_now, batch.u_now, batch.x_next,
                          batch.acc_next.copy(), batch.dt)
        probe.acc_next[0, 0] += eps
        assert abs(loss_components(model, probe).accel - eps ** 2) < 1e-12


def test_batch_terms_are_the_mean_of_pair_terms():
    model = tiny_model(seed=11)
    tr = Trajectory(t=0.025 * np.arange(3),
                    states=np.array([[12.0, 0.3, -0.1], [12.1, 0.25, -0.08],
                                     [12.15, 0.2, -0.05]]),
                    inputs=np.array([[250.0, 0.02], [240.0, 0.02], [230.0, 0.01]]),
                    accels=np.array([[0.5, -0.2], [0.8, -0.4], [0.7, -0.3]]))
    batch = PairBatch.from_trajectory(tr)
    terms = loss_components(model, batch)
    pairs = [loss_components(model, batch.subset([k])) for k in range(2)]
    for name in terms._fields:
        mean = 0.5 * (getattr(pairs[0], name) + getattr(pairs[1], name))
        # to BLAS reassociation of the one- and two-row passes
        assert abs(getattr(terms, name) - mean) <= 1e-13 * abs(mean)


def test_loss_total_weight_algebra():
    model = tiny_model(seed=12)
    batch = random_batch(16, seed=13)
    terms = loss_components(model, batch)
    assert terms.total(LossWeights(1, 0, 0, 0)) == terms.linear
    assert terms.total(LossWeights(0, 0, 0, 2)) == 2 * terms.accel
    assert abs(terms.total(LossWeights()) - sum(terms)) < 1e-12
    with pytest.raises(ValueError):
        loss_components(model, batch.subset(np.array([], dtype=int)))
    with pytest.raises(ValueError):
        LossWeights(0, 0, 0, 0)


def test_unsquared_norm_option():
    dims = KoopmanDims(n=3, m=2, p=2)
    model_sq = tiny_model(seed=14)
    model_un = KoopmanModel(model_sq.dims, model_sq.enc_specs, model_sq.dec_specs,
                            model_sq.theta, model_sq.normalizer, model_sq.dt,
                            model_sq.weights, squared_norms=False)
    batch = random_batch(1, seed=15)
    sq = loss_components(model_sq, batch)
    un = loss_components(model_un, batch)
    for s, u in zip(sq, un):
        assert abs(u - np.sqrt(s)) < 1e-12  # single sample: ||r|| vs ||r||^2


def test_loss_gradient_matches_finite_differences():
    from koopcar.koopman import _loss_and_grad, _prepared_arrays
    model = tiny_model(seed=16)
    batch = random_batch(5, seed=17)
    grad = loss_gradient(model, batch)
    arrs = _prepared_arrays(model, batch)
    vel_half = model.normalizer.half_range[:2]
    vel_mid = model.normalizer.mid[:2]

    def total(th):
        t, _ = _loss_and_grad(th, model.layout, model.dims, arrs,
                              model.weights, batch.dt, vel_half, vel_mid,
                              True, False)
        return t.total(model.weights)

    h = 1e-3
    rng = np.random.default_rng(18)
    idx = rng.choice(model.theta.size, size=60, replace=False)
    for i in idx:
        def central(hh):
            tp = model.theta.copy(); tp[i] += hh
            tm = model.theta.copy(); tm[i] -= hh
            return (total(tp) - total(tm)) / (2 * hh)
        fd = (4.0 * central(h / 2) - central(h)) / 3.0
        rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
        assert rel < 1e-5, f"coord {i}: fd={fd}, analytic={grad[i]}"


# ---------------------------------------------------------------------------
# EDMD

def test_edmd_recovers_known_system():
    rng = np.random.default_rng(19)
    d, m, l = 5, 2, 200
    a_true = rng.normal(size=(d, d))
    a_true *= 0.9 / np.abs(np.linalg.eigvals(a_true)).max()
    b_true = rng.normal(size=(d, m))
    z = np.empty((d, l + 1))
    z[:, 0] = rng.normal(size=d)
    u = rng.normal(size=(m, l))
    for k in range(l):
        z[:, k + 1] = a_true @ z[:, k] + b_true @ u[:, k]
    a_fit, b_fit = edmd_fit(z[:, :-1], z[:, 1:], u)
    assert np.abs(a_fit - a_true).max() < 1e-10
    assert np.abs(b_fit - b_true).max() < 1e-10


def test_edmd_autonomous_data_zeroes_b():
    rng = np.random.default_rng(20)
    d, l = 4, 100
    a_true = 0.8 * np.eye(d) + 0.1 * rng.normal(size=(d, d))
    z = np.empty((d, l + 1))
    z[:, 0] = rng.normal(size=d)
    for k in range(l):
        z[:, k + 1] = a_true @ z[:, k]
    _, b_fit = edmd_fit(z[:, :-1], z[:, 1:], np.zeros((2, l)), ridge=1e-10)
    assert np.abs(b_fit).max() < 1e-6


def test_edmd_ridge_handles_degenerate_data():
    z = np.tile(np.array([[1.0], [2.0]]), (1, 5))
    u = np.zeros((1, 5))
    a_fit, b_fit = edmd_fit(z, z, u, ridge=1e-6)
    assert np.all(np.isfinite(a_fit)) and np.all(np.isfinite(b_fit))


def test_edmd_rejects_tiny_datasets():
    with pytest.raises(ValueError):
        edmd_fit(np.ones((3, 1)), np.ones((3, 1)), np.ones((2, 1)))


def test_edmd_solution_is_a_local_optimum():
    rng = np.random.default_rng(21)
    d, m, l = 4, 2, 120
    z_now = rng.normal(size=(d, l))
    z_next = rng.normal(size=(d, l))
    u = rng.normal(size=(m, l))
    a_fit, b_fit = edmd_fit(z_now, z_next, u)

    def objective(a_m, b_m):
        return np.sum((z_next - a_m @ z_now - b_m @ u) ** 2)

    base = objective(a_fit, b_fit)
    for r, c in [(0, 0), (1, 2), (3, 3), (2, 1)]:
        for delta in (1e-4, -1e-4):
            a_pert = a_fit.copy()
            a_pert[r, c] += delta
            assert objective(a_pert, b_fit) >= base - 1e-12
    for r, c in [(0, 0), (3, 1)]:
        for delta in (1e-4, -1e-4):
            b_pert = b_fit.copy()
            b_pert[r, c] += delta
            assert objective(a_fit, b_pert) >= base - 1e-12


# ---------------------------------------------------------------------------
# training

def synthetic_linear_pairs(n=2500, seed=22):
    """Independent pairs sampled from a stable linear plant over a symmetric
    box, with accelerations consistent with the sensor combination."""
    rng = np.random.default_rng(seed)
    a_true = np.array([[0.97, 0.02, 0.0], [-0.01, 0.95, 0.03], [0.0, -0.02, 0.9]])
    b_true = np.array([[0.05, 0.0], [0.0, 0.08], [0.01, 0.12]])
    dt = 0.025
    x_now = rng.uniform(-1.0, 1.0, size=(n, 3))
    u_now = rng.uniform(-1.0, 1.0, size=(n, 2))
    x_next = x_now @ a_true.T + u_now @ b_true.T
    acc = np.empty((n, 2))
    acc[:, 0] = (x_next[:, 0] - x_now[:, 0]) / dt - x_next[:, 1] * x_next[:, 2]
    acc[:, 1] = (x_next[:, 1] - x_now[:, 1]) / dt + x_next[:, 0] * x_next[:, 2]
    return PairBatch(x_now=x_now, u_now=u_now, x_next=x_next, acc_next=acc, dt=dt)


def test_train_learns_linear_plant():
    pairs = synthetic_linear_pairs()
    cfg = TrainConfig(seed=23, dt=pairs.dt, epochs=120, batch_size=128,
                      hidden=(8,), feature_dim=1, warm_start=False)
    res = train(pairs, KoopmanDims(p=1), cfg)
    hold = pairs.subset(res.holdout_idx)
    preds = one_step_predictions(res.model, hold.x_now, hold.u_now)
    rmse = np.sqrt(np.mean((preds - hold.x_next) ** 2))
    assert rmse < 1e-3


def test_train_ablation_beats_persistence(short_mixed):
    pairs = PairBatch.from_trajectory(short_mixed)
    results = {}
    for tag, w_accel in (("DK", 0.0), ("ALDK", 1.0)):
        cfg = TrainConfig(seed=24, dt=pairs.dt, epochs=15, batch_size=256,
                          weights=LossWeights(accel=w_accel), hidden=(16,),
                          feature_dim=4)
        res = train(pairs, KoopmanDims(p=4), cfg)
        hold = pairs.subset(res.holdout_idx)
        # normalized squared one-step prediction error
        xn1 = res.model.normalize_states(hold.x_next)
        xn = res.model.normalize_states(hold.x_now)
        preds = res.model.normalize_states(
            one_step_predictions(res.model, hold.x_now, hold.u_now))
        results[tag] = np.mean(np.sum((xn1 - preds) ** 2, axis=1))
        persistence = np.mean(np.sum((xn1 - xn) ** 2, axis=1))
        assert results[tag] < persistence, tag
        assert res.model.weights.accel == w_accel


def test_train_is_deterministic(short_mixed):
    pairs = PairBatch.from_trajectory(short_mixed)
    cfg = TrainConfig(seed=25, dt=pairs.dt, epochs=3, batch_size=256,
                      hidden=(8,), feature_dim=2)
    r1 = train(pairs, KoopmanDims(p=2), cfg)
    r2 = train(pairs, KoopmanDims(p=2), cfg)
    assert np.array_equal(r1.model.theta, r2.model.theta)
    assert [rec.csv_row() for rec in r1.history] == [rec.csv_row() for rec in r2.history]


# Per-epoch (total, linear, recon, pred, accel, holdout) of 60 s `mixed`,
# seed 42, default config, 5 epochs. Training reproduces these to the bit with
# the BLAS they were recorded on; rtol 1e-12 leaves room for another BLAS
# build's summation order.
PINNED_HISTORY_SEED42 = np.array([
    [0.9162841318076399, 0.0001617101549236983, 0.8756816000517937,
     8.118002119712894e-05, 0.04035964157972524, 0.4930312702802116],
    [0.3227304340404625, 0.00015530938996204184, 0.295546140396616,
     7.61660717412337e-05, 0.026952818182143217, 0.15272391314440653],
    [0.13664122708780463, 0.00016618443099752502, 0.12332232351352235,
     7.508856060823534e-05, 0.013077630582676523, 0.11538651794466341],
    [0.10600524068744978, 0.00017184795273299743, 0.09603019286324829,
     7.26012713196048e-05, 0.009730598600148882, 0.08308360476324252],
    [0.07303066802289239, 0.00017391675795593004, 0.06346481696449002,
     7.632128850874501e-05, 0.009315613011937684, 0.05490265312815732],
])


def test_train_matches_pinned_history(short_mixed):
    pairs = PairBatch.from_trajectory(short_mixed)
    res = train(pairs, KoopmanDims(), TrainConfig(seed=42, dt=pairs.dt, epochs=5))
    got = np.array([[r.loss_total, r.loss_linear, r.loss_recon, r.loss_pred,
                     r.loss_accel, r.holdout_total] for r in res.history])
    assert [r.epoch for r in res.history] == [1, 2, 3, 4, 5]
    np.testing.assert_allclose(got, PINNED_HISTORY_SEED42, rtol=1e-12, atol=0.0)


# holdouts of 4,500 pairs (two chunks, the last one partial) and 750 (one)
@pytest.mark.parametrize("n_pairs,fraction,n_chunks", [(9000, 0.5, 2),
                                                       (2500, 0.3, 1)])
def test_chunked_holdout_matches_single_batch(monkeypatch, n_pairs, fraction,
                                              n_chunks):
    pairs = synthetic_linear_pairs(n=n_pairs, seed=27)
    calls = []
    loss_and_grad = koopman._loss_and_grad

    def counting(*args):
        calls.append(args[9])
        return loss_and_grad(*args)

    monkeypatch.setattr(koopman, "_loss_and_grad", counting)
    cfg = TrainConfig(seed=27, dt=pairs.dt, epochs=0, hidden=(8,),
                      feature_dim=2, holdout_fraction=fraction)
    res = train(pairs, KoopmanDims(p=2), cfg)
    monkeypatch.undo()
    assert len(res.holdout_idx) % HOLDOUT_CHUNK != 0
    assert calls == [False] * n_chunks
    whole = loss_components(res.model, pairs.subset(res.holdout_idx))
    np.testing.assert_allclose(res.best_holdout, whole.total(cfg.weights),
                               rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_aborts_on_nonfinite_loss():
    # finite but absurd acceleration targets overflow the squared accel term
    pairs = synthetic_linear_pairs(n=64, seed=26)
    pairs.acc_next[:] = 1e200
    cfg = TrainConfig(seed=26, dt=pairs.dt, epochs=2, batch_size=16,
                      hidden=(8,), feature_dim=2)
    with pytest.raises(RuntimeError, match=r"epoch 1, batch 0"):
        train(pairs, KoopmanDims(p=2), cfg)


def test_split_is_seeded_and_disjoint():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    tr1, ho1 = split_pairs(1000, 0.3, rng1)
    tr2, ho2 = split_pairs(1000, 0.3, rng2)
    assert np.array_equal(tr1, tr2) and np.array_equal(ho1, ho2)
    assert len(tr1) == 700 and len(ho1) == 300
    assert not set(tr1) & set(ho1)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_is_exact(tmp_path, quick_model):
    path = tmp_path / "model.json"
    save_checkpoint(quick_model, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.theta, quick_model.theta)
    assert loaded.dims == quick_model.dims
    assert loaded.enc_specs == quick_model.enc_specs
    assert np.array_equal(loaded.normalizer.lo, quick_model.normalizer.lo)
    x = np.array([[12.0, 0.2, -0.1], [10.0, -0.3, 0.2]])
    u = np.array([[150.0, 0.02], [-50.0, -0.03]])
    assert np.array_equal(one_step_predictions(loaded, x, u),
                          one_step_predictions(quick_model, x, u))


def test_checkpoint_version_gate(tmp_path, quick_model):
    import json
    path = tmp_path / "model.json"
    save_checkpoint(quick_model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["theta_encoder", "A_row_major"])
def test_checkpoint_rejects_misplaced_block_values(tmp_path, quick_model, key):
    # the total theta length stays right; only the split between blocks moves
    import json
    path = tmp_path / "model.json"
    save_checkpoint(quick_model, path)
    doc = json.loads(path.read_text())
    following = {"theta_encoder": "theta_decoder", "A_row_major": "B_row_major"}[key]
    doc[following] = doc[key][-5:] + doc[following]
    doc[key] = doc[key][:-5]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=key):
        load_checkpoint(path)
