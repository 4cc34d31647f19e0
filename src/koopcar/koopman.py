"""Lifted-space linear vehicle model learned by an encoder/decoder pair.

The lifted state is z = [x; phi(x)]: the (normalized) original state stacked
above learned encoder features, so projecting back to the original space is
exact by construction. A and B evolve z linearly one sample step. Training
jointly fits encoder, decoder, A, and B by Adam on a four-term objective:
one-step linearity in the lifted space, encoder/decoder reconstruction,
one-step prediction in the original space, and a physics term tying predicted
velocity change rates to measured body-frame accelerations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels, mlp
from .mlp import (AdamState, LayerSpec, MlpLayout, Normalizer, adam_step,
                  mlp_specs)
from .vehicle import Trajectory

CHANNELS = ("Vx", "Vy", "wr", "T", "delta_f")
CHECKPOINT_VERSION = 1

TRAIN_LOG_HEADER = ("epoch,loss_total,loss_linear,loss_recon,loss_pred,"
                    "loss_accel,holdout_total")

HOLDOUT_CHUNK = 4096  # holdout pairs per loss evaluation in `train`


@dataclass(frozen=True)
class KoopmanDims:
    """n original states, m inputs, p learned features; lifted dim = n + p."""
    n: int = 3
    m: int = 2
    p: int = 12

    def __post_init__(self):
        if min(self.n, self.m, self.p) <= 0:
            raise ValueError("dims must be positive")

    @property
    def lifted(self) -> int:
        return self.n + self.p


@dataclass(frozen=True)
class LossWeights:
    linear: float = 1.0
    recon: float = 1.0
    pred: float = 1.0
    accel: float = 1.0

    def __post_init__(self):
        vals = (self.linear, self.recon, self.pred, self.accel)
        if any(v < 0 for v in vals):
            raise ValueError("loss weights must be non-negative")
        if all(v == 0 for v in vals):
            raise ValueError("at least one loss weight must be positive")


class LossTerms(NamedTuple):
    linear: float
    recon: float
    pred: float
    accel: float

    def total(self, w: LossWeights) -> float:
        return (w.linear * self.linear + w.recon * self.recon
                + w.pred * self.pred + w.accel * self.accel)


@dataclass(frozen=True)
class _Layout:
    """Offsets of the joint parameter vector: encoder | decoder | A | B."""
    enc: MlpLayout
    dec: MlpLayout
    a_off: int
    b_off: int
    size: int


def _build_layout(enc_specs, dec_specs, dims: KoopmanDims) -> _Layout:
    enc = MlpLayout.build(enc_specs, base=0)
    dec = MlpLayout.build(dec_specs, base=enc.size)
    a_off = enc.size + dec.size
    b_off = a_off + dims.lifted * dims.lifted
    return _Layout(enc=enc, dec=dec, a_off=a_off, b_off=b_off,
                   size=b_off + dims.lifted * dims.m)


class KoopmanModel:
    """Immutable-by-convention bundle: dims, encoder/decoder, A, B, normalizer."""

    def __init__(self, dims: KoopmanDims, enc_specs, dec_specs,
                 theta: np.ndarray, normalizer: Normalizer, dt: float,
                 weights: LossWeights = LossWeights(),
                 squared_norms: bool = True, meta: dict | None = None):
        if enc_specs[0].in_dim != dims.n or enc_specs[-1].out_dim != dims.p:
            raise ValueError("encoder dims must map n -> p")
        if dec_specs[0].in_dim != dims.p or dec_specs[-1].out_dim != dims.n:
            raise ValueError("decoder dims must map p -> n")
        if normalizer.lo.shape[0] != dims.n + dims.m:
            raise ValueError("normalizer must cover state and input channels")
        self.dims = dims
        self.enc_specs = tuple(enc_specs)
        self.dec_specs = tuple(dec_specs)
        self.layout = _build_layout(self.enc_specs, self.dec_specs, dims)
        if theta.shape != (self.layout.size,):
            raise ValueError(f"theta must have shape ({self.layout.size},)")
        if not np.all(np.isfinite(theta)):
            raise ValueError("non-finite model parameters")
        self.theta = theta
        self.normalizer = normalizer
        self.dt = float(dt)
        self.weights = weights
        self.squared_norms = squared_norms
        self.meta = dict(meta or {})

    # --- parameter views -------------------------------------------------
    @property
    def A(self) -> np.ndarray:
        d = self.dims.lifted
        return self.theta[self.layout.a_off:self.layout.a_off + d * d].reshape(d, d)

    @property
    def B(self) -> np.ndarray:
        d, m = self.dims.lifted, self.dims.m
        return self.theta[self.layout.b_off:self.layout.b_off + d * m].reshape(d, m)

    # --- normalization helpers -------------------------------------------
    def normalize_states(self, x: np.ndarray) -> np.ndarray:
        return self.normalizer.select(slice(0, self.dims.n)).apply(x)

    def normalize_inputs(self, u: np.ndarray) -> np.ndarray:
        return self.normalizer.select(slice(self.dims.n, None)).apply(u)

    def denormalize_states(self, x: np.ndarray) -> np.ndarray:
        return self.normalizer.select(slice(0, self.dims.n)).invert(x)


def lift(model: KoopmanModel, x: np.ndarray) -> np.ndarray:
    """Lifted vector(s) z = [x; phi(x)] for normalized state(s) x."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    if xb.shape[1] != model.dims.n:
        raise ValueError(f"state dim {xb.shape[1]} != n={model.dims.n}")
    enc = model.layout.enc
    feats = _kernels.dense_forward(model.theta, enc.shapes, enc.w_off, enc.b_off,
                                   enc.acts, np.ascontiguousarray(xb))
    z = np.hstack((xb, feats))
    return z[0] if single else z


def project(z: np.ndarray, n: int = 3) -> np.ndarray:
    """First n components of the lifted vector(s): exact projection to states."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] < n:
        raise ValueError("lifted vector shorter than the state dim")
    return z[..., :n]


def predict_one_step(model: KoopmanModel, z: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """z_next = A z + B u (batched over leading axis when 2-D)."""
    z = np.asarray(z, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if z.shape[-1] != model.dims.lifted or u.shape[-1] != model.dims.m:
        raise ValueError("lifted/input dim mismatch")
    return z @ model.A.T + u @ model.B.T


# ---------------------------------------------------------------------------
# consecutive-pair datasets

@dataclass
class PairBatch:
    """Consecutive snapshot pairs in physical units.

    x_now/u_now at step k, x_next and measured accelerations at step k+1.
    """
    x_now: np.ndarray
    u_now: np.ndarray
    x_next: np.ndarray
    acc_next: np.ndarray
    dt: float

    def __post_init__(self):
        n = self.x_now.shape[0]
        if not (self.u_now.shape[0] == self.x_next.shape[0]
                == self.acc_next.shape[0] == n):
            raise ValueError("pair arrays must share the sample axis")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for name in ("x_now", "u_now", "x_next", "acc_next"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite (missing or bad channels?)")

    def __len__(self) -> int:
        return self.x_now.shape[0]

    def subset(self, idx) -> "PairBatch":
        return PairBatch(self.x_now[idx], self.u_now[idx], self.x_next[idx],
                         self.acc_next[idx], self.dt)

    @classmethod
    def from_trajectory(cls, tr: Trajectory) -> "PairBatch":
        """Every consecutive pair of a uniformly sampled trajectory.

        The fields are views: they share memory with the trajectory's arrays,
        so writing to one writes to the other.
        """
        if len(tr) < 2:
            raise ValueError("need at least two snapshots to form pairs")
        return cls(x_now=tr.states[:-1], u_now=tr.inputs[:-1],
                   x_next=tr.states[1:], acc_next=tr.accels[1:], dt=tr.dt)


def measured_accel_combination(x_next: np.ndarray,
                               acc_next: np.ndarray) -> np.ndarray:
    """Velocity change rates recovered from sensors: [ax + Vy*wr, ay - Vx*wr]."""
    return np.column_stack((
        acc_next[:, 0] + x_next[:, 1] * x_next[:, 2],
        acc_next[:, 1] - x_next[:, 0] * x_next[:, 2]))


# ---------------------------------------------------------------------------
# loss evaluation and gradients

def _norm_term(residual: np.ndarray, squared: bool) -> tuple[float, np.ndarray]:
    """Batch-mean norm of per-sample residual rows and its gradient wrt them."""
    n = residual.shape[0]
    if squared:
        value = float(np.mean(np.sum(residual * residual, axis=1)))
        grad = (2.0 / n) * residual
    else:
        norms = np.sqrt(np.sum(residual * residual, axis=1))
        value = float(np.mean(norms))
        grad = residual / (np.maximum(norms, 1e-300)[:, None] * n)
    return value, grad


def _prepared_arrays(model: KoopmanModel, batch: PairBatch) -> dict:
    return {
        "xi": np.ascontiguousarray(model.normalize_states(batch.x_now)),
        "ui": np.ascontiguousarray(model.normalize_inputs(batch.u_now)),
        "xi1": np.ascontiguousarray(model.normalize_states(batch.x_next)),
        "v_now": np.ascontiguousarray(batch.x_now[:, :2]),
        "a_meas": np.ascontiguousarray(
            measured_accel_combination(batch.x_next, batch.acc_next)),
    }


def _loss_and_grad(theta: np.ndarray, layout: _Layout, dims: KoopmanDims,
                   arrs: dict, weights: LossWeights, dt: float,
                   vel_half: np.ndarray, vel_mid: np.ndarray, squared: bool,
                   want_grad: bool) -> tuple[LossTerms, np.ndarray | None]:
    xi, ui, xi1 = arrs["xi"], arrs["ui"], arrs["xi1"]
    nb = xi.shape[0]
    n, d, m = dims.n, dims.lifted, dims.m
    A = theta[layout.a_off:layout.a_off + d * d].reshape(d, d)
    Bm = theta[layout.b_off:layout.b_off + d * m].reshape(d, m)
    enc, dec = layout.enc, layout.dec

    # xi and xi1 pass forward through the encoder as one stacked batch
    cache_e = np.empty((2 * nb, enc.cache_width)) if want_grad else None
    cache_d = np.empty((nb, dec.cache_width)) if want_grad else None
    x_both = np.concatenate((xi, xi1))
    phi = _kernels.dense_forward(theta, enc.shapes, enc.w_off, enc.b_off,
                                 enc.acts, x_both, cache_e)
    z_both = np.hstack((x_both, phi))
    z_i, z_1 = z_both[:nb], z_both[nb:]
    z_hat = z_i @ A.T + ui @ Bm.T

    r_lin = z_1 - z_hat
    l_lin, g_lin = _norm_term(r_lin, squared)
    r_pred = xi1 - z_hat[:, :n]
    l_pred, g_pred = _norm_term(r_pred, squared)

    x_rec = _kernels.dense_forward(theta, dec.shapes, dec.w_off, dec.b_off,
                                   dec.acts, phi[:nb], cache_d)
    r_rec = xi - x_rec
    l_rec, g_rec = _norm_term(r_rec, squared)

    v_hat = z_hat[:, :2] * vel_half + vel_mid
    a_hat = (v_hat - arrs["v_now"]) / dt
    r_al = arrs["a_meas"] - a_hat
    l_al, g_al = _norm_term(r_al, squared)

    terms = LossTerms(linear=l_lin, recon=l_rec, pred=l_pred, accel=l_al)
    if not want_grad:
        return terms, None

    g_zhat = -(weights.linear * g_lin)
    g_zhat[:, :n] -= weights.pred * g_pred
    g_zhat[:, :2] -= weights.accel * g_al * (vel_half / dt)

    grad = np.zeros(layout.size)
    grad[layout.a_off:layout.a_off + d * d] = (g_zhat.T @ z_i).ravel()
    grad[layout.b_off:layout.b_off + d * m] = (g_zhat.T @ ui).ravel()

    g_xrec = -(weights.recon * g_rec)
    g_phi_dec = _kernels.dense_backward(theta, dec.shapes, dec.w_off, dec.b_off,
                                        dec.acts, cache_d, g_xrec, grad)
    # One reverse pass per half of the stacked cache: a single pass would add
    # the two halves' batch sums in another order and move trained parameters
    # by ulps, which FFRLS (lambda < 1) downstream amplifies.
    _kernels.dense_backward(theta, enc.shapes, enc.w_off, enc.b_off, enc.acts,
                            cache_e[:nb], (g_zhat @ A)[:, n:] + g_phi_dec, grad)
    _kernels.dense_backward(theta, enc.shapes, enc.w_off, enc.b_off, enc.acts,
                            cache_e[nb:], weights.linear * g_lin[:, n:], grad)
    return terms, grad


def loss_components(model: KoopmanModel, batch: PairBatch) -> LossTerms:
    """Batch-mean values of the four loss terms."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    vel_half = model.normalizer.half_range[:2]
    vel_mid = model.normalizer.mid[:2]
    terms, _ = _loss_and_grad(model.theta, model.layout, model.dims,
                              _prepared_arrays(model, batch), model.weights,
                              batch.dt, vel_half, vel_mid,
                              model.squared_norms, want_grad=False)
    return terms


def loss_gradient(model: KoopmanModel, batch: PairBatch,
                  weights: LossWeights | None = None) -> np.ndarray:
    """Flat gradient of the weighted loss total over the joint parameter vector."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    w = weights if weights is not None else model.weights
    _, grad = _loss_and_grad(model.theta, model.layout, model.dims,
                             _prepared_arrays(model, batch), w, batch.dt,
                             model.normalizer.half_range[:2],
                             model.normalizer.mid[:2],
                             model.squared_norms, want_grad=True)
    return grad


# ---------------------------------------------------------------------------
# batch EDMD

def edmd_fit(z_now: np.ndarray, z_next: np.ndarray, u_now: np.ndarray,
             ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares lifted-space (A, B) from snapshot matrices.

    Columns are snapshots: z_now/z_next are (d, l), u_now is (m, l). Solves
    the normal equations through the Gram pseudo-inverse; a positive `ridge`
    switches to a Tikhonov-regularized solve for rank-deficient data.
    """
    z_now = np.atleast_2d(np.asarray(z_now, dtype=np.float64))
    z_next = np.atleast_2d(np.asarray(z_next, dtype=np.float64))
    u_now = np.atleast_2d(np.asarray(u_now, dtype=np.float64))
    d, l = z_now.shape
    if l < 2:
        raise ValueError("need at least 2 snapshot pairs")
    if z_next.shape != (d, l) or u_now.shape[1] != l:
        raise ValueError("snapshot matrices must share the column count")
    g = np.vstack((z_now, u_now))
    gram = g @ g.T
    cross = z_next @ g.T
    if ridge > 0.0:
        h = np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), cross.T).T
    else:
        h = cross @ np.linalg.pinv(gram)
    return h[:, :d], h[:, d:]


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainConfig:
    seed: int
    dt: float
    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 1e-3
    weights: LossWeights = field(default_factory=LossWeights)
    hidden: tuple[int, ...] = (32, 32)
    feature_dim: int = 12
    holdout_fraction: float = 0.3
    warm_start: bool = True
    squared_norms: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ValueError("holdout fraction must be in (0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch size and epochs must be sensible")


@dataclass
class EpochRecord:
    epoch: int
    loss_total: float
    loss_linear: float
    loss_recon: float
    loss_pred: float
    loss_accel: float
    holdout_total: float

    def csv_row(self) -> str:
        return ("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
                % (self.epoch, self.loss_total, self.loss_linear,
                   self.loss_recon, self.loss_pred, self.loss_accel,
                   self.holdout_total))


@dataclass
class TrainResult:
    model: KoopmanModel
    history: list[EpochRecord]
    best_epoch: int
    best_holdout: float
    holdout_idx: np.ndarray


def split_pairs(n_pairs: int, holdout_fraction: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffled split into sorted (train, holdout) row indices."""
    perm = rng.permutation(n_pairs)
    n_train = int(round(n_pairs * (1.0 - holdout_fraction)))
    n_train = min(max(n_train, 1), n_pairs - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _warm_start_ab(theta, layout, dims, xi, ui, xi1):
    """A = identity-padded state-space EDMD fit, B = its input map, rest zero."""
    a3, b3 = edmd_fit(xi.T, xi1.T, ui.T, ridge=1e-10)
    d = dims.lifted
    a_full = np.eye(d)
    a_full[:dims.n, :dims.n] = a3
    b_full = np.zeros((d, dims.m))
    b_full[:dims.n, :] = b3
    theta[layout.a_off:layout.a_off + d * d] = a_full.ravel()
    theta[layout.b_off:layout.b_off + d * dims.m] = b_full.ravel()


def train(pairs: PairBatch, dims: KoopmanDims, config: TrainConfig,
          init_model: KoopmanModel | None = None) -> TrainResult:
    """Mini-batch Adam over encoder, decoder, A, B; returns the best-holdout model.

    The pair set is split (seeded shuffle) into train/holdout; the normalizer
    is fit on the training split only. The holdout loss is evaluated in
    chunks of `HOLDOUT_CHUNK` pairs, each weighted by its length, so its
    temporaries stay bounded for any data length. Aborts on a non-finite loss
    naming the offending batch. Passing `init_model` resumes from its
    parameters and normalizer (epoch numbering continues from its recorded
    final epoch); its dt must be the pairs' sample time.
    """
    if abs(pairs.dt - config.dt) > 1e-9:
        raise ValueError(f"dataset spacing {pairs.dt} != configured dt {config.dt}")
    if init_model is not None:
        check_sample_time(init_model, pairs)
    if len(pairs) < 4:
        raise ValueError("need at least 4 pairs to train")
    rng = np.random.default_rng(config.seed)
    train_rows, hold_rows = split_pairs(len(pairs), config.holdout_fraction, rng)
    train_pairs = pairs.subset(train_rows)
    hold_pairs = pairs.subset(hold_rows)

    epoch0 = 0
    if init_model is not None:
        dims = init_model.dims
        enc_specs, dec_specs = init_model.enc_specs, init_model.dec_specs
        layout = init_model.layout
        theta = init_model.theta.copy()
        normalizer = init_model.normalizer
        epoch0 = int(init_model.meta.get("final_epoch", 0))
        model = init_model
    else:
        normalizer = Normalizer.fit(
            np.hstack((train_pairs.x_now, train_pairs.u_now)))
        enc_specs = mlp_specs((dims.n, *config.hidden, dims.p))
        dec_specs = mlp_specs((dims.p, *tuple(reversed(config.hidden)), dims.n))
        layout = _build_layout(enc_specs, dec_specs, dims)
        theta = np.zeros(layout.size)
        theta[:layout.enc.size] = mlp.init_theta(enc_specs, rng)
        theta[layout.enc.size:layout.enc.size + layout.dec.size] = (
            mlp.init_theta(dec_specs, rng))
        model = KoopmanModel(dims, enc_specs, dec_specs, theta, normalizer,
                             config.dt, config.weights, config.squared_norms)
    arr_train = _prepared_arrays(model, train_pairs)
    arr_hold = _prepared_arrays(model, hold_pairs)
    del train_pairs, hold_pairs   # only the prepared arrays are read below
    if init_model is None:
        if config.warm_start:
            _warm_start_ab(theta, layout, dims, arr_train["xi"],
                           arr_train["ui"], arr_train["xi1"])
        else:
            d = dims.lifted
            theta[layout.a_off:layout.a_off + d * d] = np.eye(d).ravel()

    vel_half = normalizer.half_range[:2]
    vel_mid = normalizer.mid[:2]
    adam = AdamState.create(layout.size, lr=config.learning_rate)
    n_train, n_hold = len(train_rows), len(hold_rows)

    def holdout_total(th):
        sums = np.zeros(4)
        for start in range(0, n_hold, HOLDOUT_CHUNK):
            stop = min(start + HOLDOUT_CHUNK, n_hold)
            arrs = {k: v[start:stop] for k, v in arr_hold.items()}
            terms, _ = _loss_and_grad(th, layout, dims, arrs, config.weights,
                                      config.dt, vel_half, vel_mid,
                                      config.squared_norms, False)
            sums += np.array(terms) * (stop - start)
        return LossTerms(*(sums / n_hold)).total(config.weights)

    best_theta = theta.copy()
    best_hold = holdout_total(theta)
    best_epoch = epoch0
    history: list[EpochRecord] = []

    for epoch in range(1, config.epochs + 1):
        # one gather per epoch; batches are contiguous slices of it
        perm = rng.permutation(n_train)
        shuffled = {k: v[perm] for k, v in arr_train.items()}
        sums = np.zeros(4)
        for bi, start in enumerate(range(0, n_train, config.batch_size)):
            stop = min(start + config.batch_size, n_train)
            arrs = {k: v[start:stop] for k, v in shuffled.items()}
            terms, grad = _loss_and_grad(theta, layout, dims, arrs,
                                         config.weights, config.dt, vel_half,
                                         vel_mid, config.squared_norms, True)
            tot = terms.total(config.weights)
            if not np.isfinite(tot):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}")
            theta, adam = adam_step(theta, grad, adam)
            sums += np.array(terms) * (stop - start)
        mean_terms = LossTerms(*(sums / n_train))
        hold = holdout_total(theta)
        history.append(EpochRecord(
            epoch=epoch0 + epoch, loss_total=mean_terms.total(config.weights),
            loss_linear=mean_terms.linear, loss_recon=mean_terms.recon,
            loss_pred=mean_terms.pred, loss_accel=mean_terms.accel,
            holdout_total=hold))
        if hold < best_hold:
            best_hold = hold
            best_theta = theta.copy()
            best_epoch = epoch0 + epoch

    meta = {"seed": config.seed, "epochs": config.epochs,
            "best_epoch": best_epoch, "best_holdout": best_hold,
            "final_epoch": epoch0 + config.epochs}
    final = KoopmanModel(dims, enc_specs, dec_specs, best_theta, normalizer,
                         config.dt, config.weights, config.squared_norms, meta)
    return TrainResult(model=final, history=history, best_epoch=best_epoch,
                       best_holdout=best_hold, holdout_idx=hold_rows)


def write_training_log(path, history: list[EpochRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAIN_LOG_HEADER + "\n")
        for rec in history:
            fh.write(rec.csv_row() + "\n")


# ---------------------------------------------------------------------------
# prediction

def check_sample_time(model: KoopmanModel,
                      trajectory: Trajectory | PairBatch) -> None:
    """Raise ValueError unless the trajectory (or pair set) is uniformly
    sampled at the model's dt (to 1e-9 relative): A and B are one-step maps
    for that dt only."""
    dt = trajectory.dt
    if abs(dt - model.dt) > 1e-9 * model.dt:
        raise ValueError(f"trajectory sample time {dt:g} s does not "
                         f"match the model's dt={model.dt:g} s")


def one_step_predictions(model: KoopmanModel, states: np.ndarray,
                         inputs: np.ndarray) -> np.ndarray:
    """Predicted x_{k+1} from each measured (x_k, u_k); physical units.

    Re-encodes the measured state every step; rows align with steps 1..K-1
    of the source trajectory when given its first K-1 states/inputs.
    """
    xn = model.normalize_states(np.asarray(states, dtype=np.float64))
    un = model.normalize_inputs(np.asarray(inputs, dtype=np.float64))
    z = lift(model, xn)
    z_next = predict_one_step(model, z, un)
    return model.denormalize_states(project(z_next, model.dims.n))


# ---------------------------------------------------------------------------
# checkpoint I/O (schema documented in README)

def _specs_to_json(specs):
    return [{"in": s.in_dim, "out": s.out_dim, "activation": s.activation,
             "bias": s.has_bias} for s in specs]


def _specs_from_json(items):
    return tuple(LayerSpec(in_dim=it["in"], out_dim=it["out"],
                           activation=it["activation"], has_bias=it["bias"])
                 for it in items)


def save_checkpoint(model: KoopmanModel, path) -> None:
    lay = model.layout
    d, m = model.dims.lifted, model.dims.m
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "koopcar-model",
        "dims": {"n": model.dims.n, "m": model.dims.m, "p": model.dims.p},
        "dt": model.dt,
        "channels": list(CHANNELS),
        "encoder": _specs_to_json(model.enc_specs),
        "decoder": _specs_to_json(model.dec_specs),
        "theta_encoder": model.theta[:lay.enc.size].tolist(),
        "theta_decoder": model.theta[lay.enc.size:lay.enc.size + lay.dec.size].tolist(),
        "A_row_major": model.theta[lay.a_off:lay.a_off + d * d].tolist(),
        "B_row_major": model.theta[lay.b_off:lay.b_off + d * m].tolist(),
        "normalizer_min": model.normalizer.lo.tolist(),
        "normalizer_max": model.normalizer.hi.tolist(),
        "loss_weights": {"linear": model.weights.linear,
                         "recon": model.weights.recon,
                         "pred": model.weights.pred,
                         "accel": model.weights.accel},
        "squared_norms": model.squared_norms,
        "meta": model.meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> KoopmanModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {version!r}")
    dims = KoopmanDims(**doc["dims"])
    enc_specs = _specs_from_json(doc["encoder"])
    dec_specs = _specs_from_json(doc["decoder"])
    layout = _build_layout(enc_specs, dec_specs, dims)
    d = dims.lifted
    blocks = []
    for key, size in (("theta_encoder", layout.enc.size),
                      ("theta_decoder", layout.dec.size),
                      ("A_row_major", d * d), ("B_row_major", d * dims.m)):
        block = np.asarray(doc[key], dtype=np.float64)
        if block.shape != (size,):
            raise ValueError(f"checkpoint block {key} has shape {block.shape}; "
                             f"the stored specs and dims need ({size},)")
        blocks.append(block)
    normalizer = Normalizer(lo=np.asarray(doc["normalizer_min"]),
                            hi=np.asarray(doc["normalizer_max"]))
    lw = doc["loss_weights"]
    return KoopmanModel(
        dims, enc_specs, dec_specs, np.concatenate(blocks), normalizer, doc["dt"],
        LossWeights(linear=lw["linear"], recon=lw["recon"], pred=lw["pred"],
                    accel=lw["accel"]),
        doc.get("squared_norms", True), doc.get("meta", {}))
