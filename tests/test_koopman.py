import dataclasses
import math
import re
import tracemalloc
import types

import numpy as np
import pytest

from koopcar import _kernels, koopman
from koopcar import mlp as mlp_mod
from koopcar.koopman import (N_INPUTS, N_STATES, KoopmanModel,
                             LossWeights, PairBatch, TrainConfig,
                             _Layout, edmd_fit, lift,
                             load_checkpoint, loss_components, loss_gradient,
                             one_step_predictions,
                             save_checkpoint, split_pairs, train)
from koopcar.mlp import AdamState, Normalizer, adam_step
from koopcar.vehicle import Trajectory

NORM5 = Normalizer(lo=np.array([5.0, -1.0, -0.5, -500.0, -0.1]),
                   hi=np.array([25.0, 1.0, 0.5, 1500.0, 0.1]))


def build_model(enc_widths, dec_widths, theta_fill=None, seed=0,
                normalizer=NORM5, dt=0.025, weights=LossWeights()):
    layout = _Layout.build(enc_widths, dec_widths)
    rng = np.random.default_rng(seed)
    theta = np.zeros(layout.size)
    if theta_fill == "random":
        d = layout.lifted
        theta = layout.join(mlp_mod.init_theta(enc_widths, rng),
                            mlp_mod.init_theta(dec_widths, rng),
                            np.eye(d) + 0.05 * rng.normal(size=(d, d)),
                            0.1 * rng.normal(size=(d, N_INPUTS)))
    return KoopmanModel(enc_widths, dec_widths, theta, normalizer, dt, weights)


def set_ab(model, a_mat, b_mat):
    """Write A and B into the model's parameter vector."""
    model.A[...], model.B[...] = a_mat, b_mat


def tiny_model(seed=0):
    return build_model((3, 8, 2), (2, 8, 3),
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
# lift / predict

def test_model_views_and_channel_normalizers():
    model = tiny_model()
    assert np.array_equal(model.x_norm.lo, NORM5.lo[:3])
    assert np.array_equal(model.x_norm.hi, NORM5.hi[:3])
    assert np.array_equal(model.u_norm.lo, NORM5.lo[3:])
    assert np.array_equal(model.u_norm.hi, NORM5.hi[3:])
    # A and B are views of theta: a write into theta shows in them
    values = np.arange(model.theta.size, dtype=np.float64)
    _, _, a_block, b_block = model.layout.blocks(values)
    model.theta[...] = values
    assert np.array_equal(model.A, a_block)
    assert np.array_equal(model.B, b_block)


@pytest.mark.parametrize("enc, dec, normalizer, theta_size, message", [
    ((4, 8, 2), (2, 8, 3), NORM5, None, "encoder dims must map n -> p"),
    ((3, 8, 2), (3, 8, 3), NORM5, None, "decoder dims must map p -> n"),
    ((3, 8, 2), (2, 8, 2), NORM5, None, "decoder dims must map p -> n"),
    ((3, 8, 2), (2, 8, 3), Normalizer(lo=NORM5.lo[:3], hi=NORM5.hi[:3]), None,
     "normalizer must cover state and input channels"),
    ((3, 8, 2), (2, 8, 3), NORM5, 7, r"theta must have shape \(136,\)"),
], ids=["encoder-in", "decoder-in", "decoder-out", "normalizer", "theta"])
def test_model_rejects_parts_that_do_not_fit(enc, dec, normalizer, theta_size, message):
    size = _Layout.build(enc, dec).size if theta_size is None else theta_size
    with pytest.raises(ValueError, match=f"^{message}$"):
        KoopmanModel(enc, dec, np.zeros(size), normalizer, 0.025)


def test_lift_keeps_state_in_first_components():
    model = tiny_model()
    x = np.array([0.3, -0.2, 0.7])
    z = lift(model, x)
    assert np.array_equal(z[:3], x)
    assert z.shape == (5,)


def test_lift_with_zero_encoder_appends_zeros():
    model = build_model((3, 4, 2), (2, 4, 3))
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


def test_predict_matches_triple_loop_oracle():
    # x+ = the first n rows of A lift(normalize(x)) + B normalize(u), denormalized
    model = tiny_model(seed=6)
    states, inputs = uniform_rows(model, 4, seed=3)
    a_mat, b_mat = model.A, model.B
    expect = np.zeros((4, N_STATES))
    for k in range(4):
        z = lift(model, model.x_norm.apply(states[k]))
        u = model.u_norm.apply(inputs[k])
        for r in range(N_STATES):
            acc = 0.0
            for c in range(model.lifted):
                acc += a_mat[r, c] * z[c]
            for c in range(N_INPUTS):
                acc += b_mat[r, c] * u[c]
            expect[k, r] = acc
    expect = model.x_norm.invert(expect)
    assert np.allclose(one_step_predictions(model, states, inputs), expect,
                       rtol=1e-12, atol=1e-12)


BLOCK_LENGTHS = [koopman.BLOCK_ROWS - 1, koopman.BLOCK_ROWS,
                 koopman.BLOCK_ROWS + 1, 3 * koopman.BLOCK_ROWS + 7]


def uniform_rows(model, n_rows, seed):
    """States and inputs in physical units, uniform over the normalizer range."""
    rng = np.random.default_rng(seed)
    lo, hi = model.normalizer.lo, model.normalizer.hi
    rows = rng.uniform(lo, hi, size=(n_rows, lo.size))
    return rows[:, :N_STATES], rows[:, N_STATES:]


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("n_rows", BLOCK_LENGTHS)
def test_blocked_lift_and_predictions_equal_one_pass(quick_model, n_rows):
    model = quick_model
    states, inputs = uniform_rows(model, n_rows, seed=n_rows)
    xn = model.x_norm.apply(states)
    enc = model.layout.enc
    feats = _kernels.dense_forward(model.theta, enc.shapes, enc.w_off,
                                   enc.b_off, enc.acts, xn)
    z = np.hstack((xn, feats))
    assert np.array_equal(lift(model, xn), z)
    z_next = z @ model.A.T + model.u_norm.apply(inputs) @ model.B.T
    assert np.array_equal(one_step_predictions(model, states, inputs),
                          model.x_norm.invert(z_next[:, :3]))


def test_one_step_predictions_rejects_length_mismatch(quick_model):
    # one input row used to broadcast silently over every state row
    states, inputs = uniform_rows(quick_model, 5, seed=6)
    with pytest.raises(ValueError, match="share the sample axis"):
        one_step_predictions(quick_model, states, inputs[:1])


def test_one_step_predictions_memory_is_bounded_by_the_block(quick_model):
    # Beyond its (N, 3) result a pass holds one block of fewer than
    # 2 * BLOCK_ROWS rows. Measured: 0.45 MB over the result at both lengths
    # (1.9 MB and 7.6 MB when all rows were encoded in one pass). The bound
    # allows 64 float64 temporaries per row of the largest block.
    bound = 64 * 8 * 2 * koopman.BLOCK_ROWS
    for n_rows in (8 * koopman.BLOCK_ROWS, 32 * koopman.BLOCK_ROWS):
        states, inputs = uniform_rows(quick_model, n_rows, seed=5)
        out, peak = traced_peak(
            lambda: one_step_predictions(quick_model, states, inputs))
        assert peak - out.nbytes < bound, (n_rows, peak, out.nbytes)


# ---------------------------------------------------------------------------
# pair construction

def test_pairs_reject_nonuniform_spacing():
    tr = Trajectory(t=np.array([0.0, 0.025, 0.08]), states=np.zeros((3, 3)),
                    inputs=np.zeros((3, 2)), accels=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="uniform"):
        PairBatch.from_trajectory(tr)


def test_pairs_reject_arrays_of_other_lengths_and_one_snapshot():
    b = random_batch(3)
    with pytest.raises(ValueError, match="^pair arrays must share the sample axis$"):
        PairBatch(b.x_now, b.u_now[:2], b.x_next, b.acc_next, b.dt)
    one = Trajectory(t=np.zeros(1), states=np.ones((1, 3)), inputs=np.ones((1, 2)),
                     accels=np.ones((1, 2)))
    with pytest.raises(ValueError, match="^need at least two snapshots to form pairs$"):
        PairBatch.from_trajectory(one)


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
    model = build_model((3, 4, 2), (2, 4, 3))
    d = model.lifted
    a_mat = np.zeros((d, d))
    a_mat[:3, :3] = np.array([[0.9, 0.05, 0.0], [0.0, 0.8, 0.1], [0.02, 0.0, 0.85]])
    b_mat = np.zeros((d, 2))
    b_mat[:3] = np.array([[0.05, 0.0], [0.0, 0.2], [0.01, 0.1]])
    set_ab(model, a_mat, b_mat)

    x_now = np.array([[12.0, 0.3, -0.1]])
    u_now = np.array([[250.0, 0.02]])
    xn = model.x_norm.apply(x_now[0])
    un = model.u_norm.apply(u_now[0])
    zhat = a_mat @ np.concatenate([xn, [0.0, 0.0]]) + b_mat @ un
    x_next = model.x_norm.invert(zhat[:3])[None, :]
    acc = np.zeros((1, 2))
    batch = PairBatch(x_now, u_now, x_next, acc, 0.025)
    terms = loss_components(model, batch)
    assert terms.linear < 1e-24
    assert terms.pred < 1e-24


def test_exact_decoder_gives_zero_recon_loss():
    # zero encoder (phi=0) and decoder bias set to the normalized sample
    model = build_model((3, 4, 2), (2, 3))
    batch = random_batch(1, seed=4)
    xn = model.x_norm.apply(batch.x_now[0])
    off = model.layout.enc.size + 2 * 3  # decoder bias location
    model.theta[off:off + 3] = xn
    assert loss_components(model, batch).recon == 0.0


def test_tiny_model_frozen_loss_oracle():
    # values frozen from an independent scalar evaluation script of a single
    # tanh feature; the encoder's linear head passes it on (weight 1, bias 0)
    model = build_model((3, 1, 1), (1, 3))
    model.theta[0:3] = [0.2, -0.1, 0.3]
    model.theta[3] = 0.05
    model.theta[4:6] = [1.0, 0.0]
    model.theta[6:9] = [0.4, -0.3, 0.1]
    model.theta[9:12] = [0.01, 0.02, -0.03]
    a_mat = np.array([[1.0, 0.0, 0.0, 0.1], [0.0, 0.95, 0.02, 0.0],
                      [0.01, 0.0, 0.9, -0.05], [0.0, 0.02, 0.0, 0.8]])
    b_mat = np.array([[0.002, 0.0], [0.0, 0.15], [0.001, 0.3], [0.0, 0.05]])
    set_ab(model, a_mat, b_mat)
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
    xn = model.x_norm.apply(batch.x_now[0])
    un = model.u_norm.apply(batch.u_now[0])
    zhat = lift(model, xn) @ model.A.T + un @ model.B.T
    vhat = model.x_norm.invert(np.concatenate([zhat[:2], [0.0]]))[:2]
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
    xn = model.x_norm.apply(batch.x_now[0])
    un = model.u_norm.apply(batch.u_now[0])
    zhat = lift(model, xn) @ model.A.T + un @ model.B.T
    vhat = model.x_norm.invert(np.concatenate([zhat[:2], [0.0]]))[:2]
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


@pytest.mark.parametrize("term", ["linear", "recon", "pred", "accel"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_loss_weights_reject_non_finite_and_negative(term, value):
    with pytest.raises(ValueError, match=f"loss weight {term} must be non-negative "
                                         f"and finite"):
        LossWeights(**{term: value})


def test_loss_rejects_batch_at_another_sample_time():
    # both evaluated at batch.dt, not the model's
    model = tiny_model()
    batch = random_batch(4, dt=2 * model.dt)
    for fn in (loss_components, loss_gradient):
        with pytest.raises(ValueError, match="sample time 0.05 s does not match"):
            fn(model, batch)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
def test_non_finite_sample_time_is_rejected(dt):
    # a NaN dt built a pair set, passed the sample-time check and gave losses
    b = random_batch(2)
    with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
        PairBatch(b.x_now, b.u_now, b.x_next, b.acc_next, dt)
    with pytest.raises(ValueError, match="does not match the model's dt"):
        koopman.check_sample_time(tiny_model(), types.SimpleNamespace(dt=dt))


# ---------------------------------------------------------------------------
# EDMD

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


def test_edmd_rejects_snapshot_matrices_of_other_column_counts():
    for z_next, u_now in ((np.ones((3, 4)), np.ones((2, 5))),
                          (np.ones((3, 5)), np.ones((2, 4))),
                          (np.ones((2, 5)), np.ones((2, 5)))):
        with pytest.raises(ValueError, match="^snapshot matrices must share the "
                                             "column count$"):
            edmd_fit(np.ones((3, 5)), z_next, u_now)


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
    # A fresh run's least-squares start already fits this plant (holdout RMSE
    # 3.4e-5 at epoch 0), so Adam starts from A = I, B = 0 instead: a resumed
    # run skips the fit. Measured: RMSE 0.065 at the start, 5.4e-4 after.
    pairs = synthetic_linear_pairs()
    cfg = TrainConfig(seed=23, epochs=120, batch_size=128,
                      hidden=(8,), feature_dim=1)
    fresh = train(pairs, dataclasses.replace(cfg, epochs=0)).model
    enc, dec, _, _ = fresh.layout.blocks(fresh.theta)
    d = fresh.lifted
    theta = fresh.layout.join(enc, dec, np.eye(d), np.zeros((d, N_INPUTS)))
    start = KoopmanModel(fresh.enc_widths, fresh.dec_widths, theta,
                         fresh.normalizer, fresh.dt)
    res = train(pairs, cfg, init_model=start)
    hold = pairs.subset(res.holdout_idx)

    def rmse(model):
        preds = one_step_predictions(model, hold.x_now, hold.u_now)
        return np.sqrt(np.mean((preds - hold.x_next) ** 2))

    assert rmse(start) > 0.05
    assert rmse(res.model) < 1e-3


def test_train_takes_feature_count_from_config_and_dt_from_pairs():
    pairs = synthetic_linear_pairs(n=64, seed=29)
    res = train(pairs, TrainConfig(seed=29, epochs=0, hidden=(4,), feature_dim=3))
    assert (res.model.p, res.model.hidden, res.model.lifted) == (3, (4,), 6)
    assert res.model.dt == pairs.dt
    # a resumed run keeps the checkpoint's network; its dt is the pairs'
    shifted = PairBatch(pairs.x_now, pairs.u_now, pairs.x_next, pairs.acc_next,
                        pairs.dt * (1 + 1e-10))
    resumed = train(shifted, TrainConfig(seed=30, epochs=0, hidden=(4,),
                                         feature_dim=3), init_model=res.model)
    assert resumed.model.enc_widths == res.model.enc_widths
    assert resumed.model.dt == shifted.dt


def test_train_refuses_a_fresh_split_without_two_training_pairs():
    # 400 pairs at holdout_fraction 0.999 leave one training pair, too few for
    # the least-squares start; a resumed run skips that start and trains on it
    pairs = synthetic_linear_pairs(n=400, seed=29)
    cfg = TrainConfig(seed=29, epochs=1, hidden=(4,), feature_dim=2,
                      holdout_fraction=0.999)
    with pytest.raises(ValueError, match=r"^holdout_fraction 0\.999 leaves 1 "
                                         r"training and 399 holdout pairs"):
        train(pairs, cfg)
    start = train(pairs, dataclasses.replace(cfg, epochs=0, holdout_fraction=0.3))
    resumed = train(pairs, cfg, init_model=start.model)
    assert len(resumed.holdout_idx) == 399 and len(resumed.history) == 1


@pytest.mark.parametrize("shape", [{"hidden": (4,), "feature_dim": 2},
                                   {"hidden": (5,), "feature_dim": 3},
                                   {}])
def test_train_resume_keeps_the_model_widths(shape):
    # a resumed run takes its network from the model; the config's widths,
    # here other than the model's, are not read
    pairs = synthetic_linear_pairs(n=64, seed=29)
    res = train(pairs, TrainConfig(seed=29, epochs=0, hidden=(4,), feature_dim=3))
    resumed = train(pairs, TrainConfig(seed=30, epochs=1, **shape),
                    init_model=res.model)
    assert (resumed.model.enc_widths, resumed.model.dec_widths) == ((3, 4, 3),
                                                                    (3, 4, 3))
    assert [rec.epoch for rec in resumed.history] == [1]


def test_train_ablation_beats_persistence(short_mixed):
    pairs = PairBatch.from_trajectory(short_mixed)
    results = {}
    for tag, w_accel in (("DK", 0.0), ("ALDK", 1.0)):
        cfg = TrainConfig(seed=24, epochs=15, batch_size=256,
                          weights=LossWeights(accel=w_accel), hidden=(16,),
                          feature_dim=4)
        res = train(pairs, cfg)
        hold = pairs.subset(res.holdout_idx)
        # normalized squared one-step prediction error
        xn1 = res.model.x_norm.apply(hold.x_next)
        xn = res.model.x_norm.apply(hold.x_now)
        preds = res.model.x_norm.apply(
            one_step_predictions(res.model, hold.x_now, hold.u_now))
        results[tag] = np.mean(np.sum((xn1 - preds) ** 2, axis=1))
        persistence = np.mean(np.sum((xn1 - xn) ** 2, axis=1))
        assert results[tag] < persistence, tag
        assert res.model.weights.accel == w_accel


def test_train_is_deterministic(short_mixed):
    pairs = PairBatch.from_trajectory(short_mixed)
    cfg = TrainConfig(seed=25, epochs=3, batch_size=256,
                      hidden=(8,), feature_dim=2)
    r1 = train(pairs, cfg)
    r2 = train(pairs, cfg)
    assert np.array_equal(r1.model.theta, r2.model.theta)
    assert r1.history == r2.history


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
    res = train(pairs, TrainConfig(seed=42, epochs=5))
    got = np.array([[r.loss_total, r.loss_linear, r.loss_recon, r.loss_pred,
                     r.loss_accel, r.holdout_total] for r in res.history])
    assert [r.epoch for r in res.history] == [1, 2, 3, 4, 5]
    np.testing.assert_allclose(got, PINNED_HISTORY_SEED42, rtol=1e-12, atol=0.0)


# holdouts of 2.5 chunks (several, the last one partial) and 0.75 (one)
@pytest.mark.parametrize("chunks", [2.5, 0.75])
def test_chunked_holdout_matches_single_batch(monkeypatch, chunks):
    n_hold = int(chunks * koopman.BLOCK_ROWS)
    pairs = synthetic_linear_pairs(n=2 * n_hold, seed=27)
    calls = []
    loss_and_grad = koopman._loss_and_grad

    def counting(*args, **kwargs):
        calls.append(kwargs["want_grad"])
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(koopman, "_loss_and_grad", counting)
    cfg = TrainConfig(seed=27, epochs=0, hidden=(8,),
                      feature_dim=2, holdout_fraction=0.5)
    res = train(pairs, cfg)
    monkeypatch.undo()
    assert len(res.holdout_idx) == n_hold
    assert calls == [False] * math.ceil(chunks)
    whole = loss_components(res.model, pairs.subset(res.holdout_idx))
    np.testing.assert_allclose(res.model.meta["best_holdout"],
                               whole.total(cfg.weights),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["shuffled", "sorted", "single", "all"])
def test_prepared_rows_equal_prepared_subset(quick_model, short_mixed, kind):
    pairs = PairBatch.from_trajectory(short_mixed)
    n, rng = len(pairs), np.random.default_rng(29)
    rows = {"shuffled": rng.permutation(n),
            "sorted": np.sort(rng.choice(n, size=n // 3, replace=False)),
            "single": rng.integers(n, size=1),
            "all": np.arange(n)}[kind]
    got = koopman._prepared_arrays(quick_model, pairs, rows)
    expect = koopman._prepared_arrays(quick_model, pairs.subset(rows))
    assert got.keys() == expect.keys()
    for key, v in expect.items():
        assert got[key].flags.c_contiguous, key
        assert got[key].shape == v.shape, key
        assert np.array_equal(got[key].view(np.uint64), v.view(np.uint64)), key


def test_prepared_arrays_refuse_an_empty_selection(quick_model, short_mixed):
    pairs = PairBatch.from_trajectory(short_mixed)
    with pytest.raises(ValueError, match="empty batch"):
        koopman._prepared_arrays(quick_model, pairs, np.arange(0))


def train_by_subsets(pairs, config):
    """`train` with subset copies of both splits, normalized once, a fresh
    `v[perm]` gather of the normalized training split per epoch and the
    holdout in one batch: the oracle for `train`'s gathers of raw rows, which
    it normalizes per epoch and per holdout chunk. Returns the best theta and
    the history rows (four training terms, their total, holdout total)."""
    rng = np.random.default_rng(config.seed)
    train_rows, hold_rows = split_pairs(len(pairs), config.holdout_fraction, rng)
    train_pairs, hold_pairs = pairs.subset(train_rows), pairs.subset(hold_rows)
    normalizer = Normalizer.fit(np.hstack((train_pairs.x_now, train_pairs.u_now)))
    p = config.feature_dim
    enc = (N_STATES, *config.hidden, p)
    dec = (p, *reversed(config.hidden), N_STATES)
    layout = _Layout.build(enc, dec)
    d = layout.lifted
    theta = layout.join(mlp_mod.init_theta(enc, rng), mlp_mod.init_theta(dec, rng),
                        np.zeros((d, d)), np.zeros((d, N_INPUTS)))
    model = KoopmanModel(enc, dec, theta, normalizer, pairs.dt, config.weights)
    arr_train = koopman._prepared_arrays(model, train_pairs)
    arr_hold = koopman._prepared_arrays(model, hold_pairs)
    koopman._least_squares_ab(*layout.blocks(theta)[2:], arr_train)

    def terms(th, arrs, want_grad):
        return koopman._loss_and_grad(th, model, arrs, want_grad=want_grad)

    adam = AdamState.create(layout.size, lr=config.learning_rate)
    best_theta = theta.copy()
    best_hold = terms(theta, arr_hold, False)[0].total(config.weights)
    n_train, history = len(train_rows), []
    for _ in range(config.epochs):
        perm = rng.permutation(n_train)
        shuffled = {k: v[perm] for k, v in arr_train.items()}
        sums = np.zeros(4)
        for start in range(0, n_train, config.batch_size):
            arrs = {k: v[start:start + config.batch_size]
                    for k, v in shuffled.items()}
            batch_terms, grad = terms(theta, arrs, True)
            theta, adam = adam_step(theta, grad, adam)
            sums += np.array(batch_terms) * len(arrs["xi"])
        mean_terms = koopman.LossTerms(*(sums / n_train))
        hold = terms(theta, arr_hold, False)[0].total(config.weights)
        history.append([*mean_terms, mean_terms.total(config.weights), hold])
        if hold < best_hold:
            best_hold, best_theta = hold, theta.copy()
    return best_theta, np.array(history)


def test_train_equals_subset_copy_data_flow(short_mixed):
    pairs = PairBatch.from_trajectory(short_mixed)
    cfg = TrainConfig(seed=31, epochs=3)
    res = train(pairs, cfg)
    theta, expect = train_by_subsets(pairs, cfg)
    got = np.array([[r.loss_linear, r.loss_recon, r.loss_pred, r.loss_accel,
                     r.loss_total, r.holdout_total] for r in res.history])
    assert np.array_equal(res.model.theta, theta)
    assert np.array_equal(got[:, :5], expect[:, :5])
    np.testing.assert_allclose(got[:, 5], expect[:, 5], rtol=1e-12, atol=0.0)


def test_train_memory_stays_under_measured_bound():
    # 12,000 pairs, one epoch: measured traced peak 2.62 MB when each epoch
    # and holdout chunk gathers and normalizes its rows from the pairs (3.77 MB
    # with a normalized table of every pair beside the epoch buffer, 7.34 MB
    # with subset copies of both splits, two shuffled copies of the training
    # split and 3,600 holdout pairs in one chunk)
    pairs = synthetic_linear_pairs(n=12_000, seed=28)
    cfg = TrainConfig(seed=28, epochs=1)
    _, peak = traced_peak(lambda: train(pairs, cfg))
    assert peak < 3.0e6, peak


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_aborts_on_nonfinite_loss():
    # finite but absurd acceleration targets overflow the squared accel term
    pairs = synthetic_linear_pairs(n=64, seed=26)
    pairs.acc_next[:] = 1e200
    cfg = TrainConfig(seed=26, epochs=2, batch_size=16,
                      hidden=(8,), feature_dim=2)
    with pytest.raises(RuntimeError, match=r"epoch 1, batch 0"):
        train(pairs, cfg)


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

@pytest.mark.parametrize("enc, dec", [
    ((3, 8, 8, 2), (2, 8, 8, 3)),   # two hidden layers
    ((3, 2), (2, 3)),               # no hidden layer (hidden=())
    ((3, 6, 4), (4, 5, 7, 3))],     # a decoder that does not mirror the encoder
    ids=["two-hidden", "no-hidden", "unmirrored"])
def test_every_api_model_saves_and_loads_bitwise(tmp_path, enc, dec):
    # a model with a tanh head saved a file that load_checkpoint refused
    model = build_model(enc, dec, "random", seed=21, dt=0.1 / 3,
                        weights=LossWeights(linear=0.5, recon=2.0, pred=1e-3,
                                            accel=0.0))
    model = KoopmanModel(model.enc_widths, model.dec_widths, model.theta,
                         model.normalizer, model.dt, model.weights,
                         meta={"seed": 3, "note": "api"})
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert (loaded.enc_widths, loaded.dec_widths) == (enc, dec)
    assert loaded.hidden == enc[1:-1] and loaded.p == enc[-1]
    assert np.array_equal(loaded.theta, model.theta)
    assert np.array_equal(loaded.normalizer.lo, model.normalizer.lo)
    assert np.array_equal(loaded.normalizer.hi, model.normalizer.hi)
    assert (loaded.dt, loaded.weights, loaded.meta) == (
        model.dt, model.weights, {"seed": 3, "note": "api"})
    save_checkpoint(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_checkpoint_roundtrip_is_exact(tmp_path, quick_model):
    path = tmp_path / "model.json"
    save_checkpoint(quick_model, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.theta, quick_model.theta)
    assert (loaded.p, loaded.hidden) == (quick_model.p, quick_model.hidden)
    assert loaded.enc_widths == quick_model.enc_widths
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


def test_checkpoint_loads_with_or_without_squared_norms(tmp_path, quick_model):
    # the writer drops the key; files written with it hold "squared_norms": true
    import json
    path = tmp_path / "model.json"
    save_checkpoint(quick_model, path)
    doc = json.loads(path.read_text())
    assert "squared_norms" not in doc
    for extra in ({}, {"squared_norms": True}):
        path.write_text(json.dumps({**doc, **extra}))
        assert np.array_equal(load_checkpoint(path).theta, quick_model.theta)


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


def edited_checkpoint(tmp_path, model, edit):
    """Path of `model`'s checkpoint after `edit(doc)` changed its JSON."""
    import json
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("key, value, message", [
    ("normalizer_min", math.nan, "normalizer channel 0 has min nan"),
    ("normalizer_max", math.inf, "normalizer channel 0 has min .* and max inf"),
    ("dt", -0.025, "model dt must be positive and finite, got -0.025"),
    ("dt", 0.0, "model dt must be positive and finite, got 0.0"),
    ("dt", math.nan, "model dt must be positive and finite, got nan"),
    ("accel", math.nan, "loss weight accel must be non-negative and finite")])
def test_checkpoint_rejects_non_finite_values(tmp_path, quick_model, key, value,
                                              message):
    def edit(doc):
        if key == "accel":
            doc["loss_weights"]["accel"] = value
        elif key == "dt":
            doc["dt"] = value
        else:
            doc[key][0] = value
    with pytest.raises(ValueError, match=message):
        load_checkpoint(edited_checkpoint(tmp_path, quick_model, edit))


@pytest.mark.parametrize("key", ["normalizer_max", "dt", "dims", "kind",
                                 "channels"])
def test_checkpoint_names_a_missing_key(tmp_path, quick_model, key):
    path = edited_checkpoint(tmp_path, quick_model, lambda doc: doc.pop(key))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"checkpoint {path}: missing key {key!r}"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(kind="not-a-model"),
     "checkpoint kind is 'not-a-model', not 'koopcar-model'"),
    (lambda doc: doc.update(channels=["Vy", "Vx", "wr", "T", "delta_f"]),
     r"checkpoint channels is \['Vy', 'Vx', .*\], not \['Vx', 'Vy', "),
    (lambda doc: doc["channels"].pop(),
     r"checkpoint channels is \[.*'T'\], not "),
    (lambda doc: doc["dims"].update(p=5),
     r"checkpoint dims is \{'n': 3, 'm': 2, 'p': 5\}, "
     r"not \{'n': 3, 'm': 2, 'p': 6\}"),
    (lambda doc: doc["dims"].update(q=1), r"checkpoint dims is \{.*'q': 1\}, not"),
    (lambda doc: doc["dims"].pop("m"), r"checkpoint dims is \{'n': 3, 'p': 6\}, not"),
    # layer lists must be what `save_checkpoint` writes for their widths
    (lambda doc: doc["encoder"][0].update(activation="relu"),
     r"checkpoint encoder layer 0 is \{.*'relu'.*\}, not \{.*'tanh'"),
    (lambda doc: doc["decoder"][0].update(activation="linear"),
     r"checkpoint decoder layer 0 is \{.*'linear'.*\}, not \{.*'tanh'"),
    (lambda doc: doc["encoder"][1].update(activation="tanh"),
     r"checkpoint encoder layer 1 is \{.*'tanh'.*\}, not \{.*'linear'"),
    (lambda doc: doc.update(  # the head's 6 biases cut from its block
        encoder=[doc["encoder"][0], {**doc["encoder"][1], "bias": False}],
        theta_encoder=doc["theta_encoder"][:-6]),
     r"checkpoint encoder layer 1 is \{.*'bias': False\}, not \{.*'bias': True"),
    (lambda doc: doc.update(encoder=[]), "checkpoint encoder has no layers"),
    (lambda doc: doc["decoder"][0].update({"in": "6"}),
     r"checkpoint decoder widths \['6', 16, 3\] must be positive integers")])
def test_checkpoint_checks_kind_channels_and_dims(tmp_path, quick_model, edit,
                                                  message):
    # each of these loaded, failed with a TypeError or IndexError, or was
    # blamed on A_row_major or on a constructor argument, before the reader
    # checked them
    # the reader puts the file's path after "checkpoint": "checkpoint <path>: kind is"
    path = edited_checkpoint(tmp_path, quick_model, edit)
    with pytest.raises(ValueError, match=message.replace(
            "checkpoint ", re.escape(f"checkpoint {path}: "), 1)):
        load_checkpoint(path)


def test_layout_blocks_are_views_and_join_inverts_them():
    layout = _Layout.build((3, 4, 2), (2, 4, 3))
    vec = np.arange(float(layout.size))
    enc, dec, a_mat, b_mat = layout.blocks(vec)
    assert (enc.size, dec.size, a_mat.shape, b_mat.shape) == (
        layout.enc.size, layout.dec.size, (5, 5), (5, N_INPUTS))
    assert np.array_equal(layout.join(enc, dec, a_mat, b_mat), vec)
    a_mat[0, 1] = -1.0
    assert vec[layout.enc.size + layout.dec.size + 1] == -1.0


def test_layout_join_names_every_block_that_does_not_fit():
    layout = _Layout.build((3, 4, 2), (2, 4, 3))
    enc, dec, a_mat, b_mat = layout.blocks(np.zeros(layout.size))
    with pytest.raises(ValueError) as err:
        layout.join(enc, dec[:-1], a_mat, np.zeros(4))
    assert str(err.value) == (
        f"parameter block theta_decoder has {dec.size - 1} values, the widths "
        f"need {dec.size}; B_row_major has 4 values, the widths need 10")
