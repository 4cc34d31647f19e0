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
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels, mlp
from .mlp import AdamState, MlpLayout, Normalizer, adam_step
from .vehicle import Trajectory, write_rows

CHANNELS = ("Vx", "Vy", "wr", "T", "delta_f")
N_STATES = 3                          # x = CHANNELS[:3]
N_INPUTS = len(CHANNELS) - N_STATES   # u = CHANNELS[3:]
CHECKPOINT_VERSION = 1
CHECKPOINT_KIND = "koopcar-model"
# the joint parameter vector's blocks in order, named by their checkpoint keys
BLOCKS = ("theta_encoder", "theta_decoder", "A_row_major", "B_row_major")

BLOCK_ROWS = 1024  # rows per inference block and per holdout chunk in `train`


@dataclass(frozen=True)
class LossWeights:
    linear: float = 1.0
    recon: float = 1.0
    pred: float = 1.0
    accel: float = 1.0

    def __post_init__(self):
        for name, v in vars(self).items():
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"loss weight {name} must be non-negative "
                                 f"and finite, got {v}")
        if all(v == 0 for v in vars(self).values()):
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
    """The joint parameter vector, encoder | decoder | A (d x d) | B (d x m) with
    d = n + p; every split or join of parameters or gradient goes through it."""
    enc: MlpLayout
    dec: MlpLayout
    lifted: int
    bounds: tuple[int, ...]   # block k is [bounds[k], bounds[k + 1])
    size: int

    @classmethod
    def build(cls, enc_widths, dec_widths) -> "_Layout":
        enc = MlpLayout.build(enc_widths, base=0)
        dec = MlpLayout.build(dec_widths, base=enc.size)
        d = N_STATES + enc_widths[-1]
        bounds = np.cumsum((0, enc.size, dec.size, d * d, d * N_INPUTS)).tolist()
        return cls(enc, dec, lifted=d, bounds=tuple(bounds), size=bounds[-1])

    def blocks(self, vec: np.ndarray):
        """Encoder, decoder, A (d x d) and B (d x m) views of a flat vector."""
        o, d = self.bounds, self.lifted
        return (vec[o[0]:o[1]], vec[o[1]:o[2]], vec[o[2]:o[3]].reshape(d, d),
                vec[o[3]:o[4]].reshape(d, N_INPUTS))

    def join(self, enc, dec, A, B) -> np.ndarray:
        """One flat vector of the four blocks, each read in row-major order;
        raises ValueError naming every block whose size does not fit."""
        parts = [np.asarray(x, dtype=np.float64).ravel() for x in (enc, dec, A, B)]
        sizes = np.diff(self.bounds)
        bad = [f"{name} has {x.size} values, the widths need {size}"
               for name, x, size in zip(BLOCKS, parts, sizes) if x.size != size]
        if bad:
            raise ValueError("parameter block " + "; ".join(bad))
        return np.concatenate(parts)

    def dims(self) -> dict:
        """The checkpoint's `dims` record of this shape: n, m and p = d - n."""
        return {"n": N_STATES, "m": N_INPUTS, "p": self.lifted - N_STATES}


class KoopmanModel:
    """Immutable-by-convention bundle: encoder/decoder, A, B, normalizer.
    The networks are their widths (`mlp.MlpLayout`), which give the model's
    shape: p, the encoder's `hidden` widths, lifted n + p. A and B are views
    of theta; `x_norm` and `u_norm` are the five-channel `normalizer`'s
    state (Vx, Vy, wr) and input (T, delta_f) parts."""

    def __init__(self, enc_widths: tuple[int, ...], dec_widths: tuple[int, ...],
                 theta: np.ndarray, normalizer: Normalizer, dt: float,
                 weights: LossWeights = LossWeights(), meta: dict | None = None):
        self.layout = _Layout.build(enc_widths, dec_widths)
        self.enc_widths = tuple(map(int, enc_widths))
        self.dec_widths = tuple(map(int, dec_widths))
        p = self.enc_widths[-1]
        if self.enc_widths[0] != N_STATES:
            raise ValueError("encoder dims must map n -> p")
        if self.dec_widths[0] != p or self.dec_widths[-1] != N_STATES:
            raise ValueError("decoder dims must map p -> n")
        if normalizer.lo.shape[0] != N_STATES + N_INPUTS:
            raise ValueError("normalizer must cover state and input channels")
        dt = float(dt)
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"model dt must be positive and finite, got {dt}")
        self.p = p
        self.hidden = self.enc_widths[1:-1]
        self.lifted = self.layout.lifted
        if theta.shape != (self.layout.size,):
            raise ValueError(f"theta must have shape ({self.layout.size},)")
        if not np.all(np.isfinite(theta)):
            raise ValueError("non-finite model parameters")
        self.theta = theta
        # views: an in-place write to theta shows in A and B
        self.A, self.B = self.layout.blocks(theta)[2:]
        self.normalizer = normalizer
        self.x_norm = Normalizer(normalizer.lo[:N_STATES], normalizer.hi[:N_STATES])
        self.u_norm = Normalizer(normalizer.lo[N_STATES:], normalizer.hi[N_STATES:])
        self.dt = dt
        self.weights = weights
        self.meta = dict(meta or {})


def _row_blocks(n_rows: int):
    """(start, stop) of the blocks a row-blocked pass over `n_rows` rows
    takes: max(1, n_rows // BLOCK_ROWS) blocks of near-equal length.

    The temporaries of a pass then stay below 2 * BLOCK_ROWS rows for any
    n_rows, and no block is shorter than BLOCK_ROWS unless it is the only
    one: BLAS multiplies a short block with another kernel, which sums in
    another order, so a short tail block would round its rows differently
    from the same rows in one call.
    """
    k = max(1, n_rows // BLOCK_ROWS)
    bounds = [i * n_rows // k for i in range(k + 1)]
    return zip(bounds[:-1], bounds[1:])


def lift(model: KoopmanModel, x: np.ndarray) -> np.ndarray:
    """Lifted vector(s) z = [x; phi(x)] for normalized state(s) x.

    The features are encoded one `_row_blocks` block at a time into the
    preallocated (N, n + p) result, so the encoder's layer outputs take
    memory for a block of rows, not for all N; each row is bitwise what one
    pass over all rows gives.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    if xb.shape[1] != N_STATES:
        raise ValueError(f"state dim {xb.shape[1]} != n={N_STATES}")
    enc = model.layout.enc
    z = np.empty((xb.shape[0], model.lifted))
    z[:, :N_STATES] = xb
    for s, e in _row_blocks(xb.shape[0]):
        z[s:e, N_STATES:] = _kernels.dense_forward(
            model.theta, enc.shapes, enc.w_off, enc.b_off, enc.acts,
            np.ascontiguousarray(xb[s:e]))
    return z[0] if single else z


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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
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

def _norm_term(residual: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean squared norm of residual rows, and its gradient wrt them."""
    rows = residual.shape[0]
    value = float(np.add.reduce(np.add.reduce(residual * residual, axis=1)) / rows)
    return value, (2.0 / rows) * residual


def _prepared_arrays(model: KoopmanModel, batch: PairBatch,
                     rows=slice(None)) -> dict:
    """The loss's arrays of the selected `rows` (an index array or a slice)
    of a batch at the model's sample time; the selection must be non-empty.

    The raw fields are gathered one at a time, each released before the
    next: x_next (with acc_next while `a_meas` is formed), then x_now, then
    u_now. A gathered selection thus holds at most two raw fields beside the
    result. Every step is row-wise, so the arrays are bitwise those of
    `batch.subset(rows)`.
    """
    x_next = batch.x_next[rows]
    if len(x_next) == 0:
        raise ValueError("empty batch")
    check_sample_time(model, batch)
    arrs = {"a_meas": np.ascontiguousarray(
                measured_accel_combination(x_next, batch.acc_next[rows])),
            "xi1": np.ascontiguousarray(model.x_norm.apply(x_next))}
    del x_next
    x_now = batch.x_now[rows]
    arrs["xi"] = np.ascontiguousarray(model.x_norm.apply(x_now))
    arrs["v_now"] = np.ascontiguousarray(x_now[:, :2])
    del x_now
    arrs["ui"] = np.ascontiguousarray(model.u_norm.apply(batch.u_now[rows]))
    return arrs


def _loss_and_grad(theta: np.ndarray, model: KoopmanModel, arrs: dict, *,
                   want_grad: bool) -> tuple[LossTerms, np.ndarray | None]:
    """Loss terms, and their weighted gradient when `want_grad`, of the
    parameters `theta` on prepared arrays; everything else is `model`'s."""
    layout, weights, dt = model.layout, model.weights, model.dt
    vel_half = model.x_norm.half_range[:2]
    vel_mid = model.x_norm.mid[:2]
    xi, ui, xi1 = arrs["xi"], arrs["ui"], arrs["xi1"]
    nb, n = xi.shape[0], N_STATES
    _, _, A, Bm = layout.blocks(theta)
    enc, dec = layout.enc, layout.dec

    # xi and xi1 pass forward through the encoder as one stacked batch
    kept_e, kept_d = ([], []) if want_grad else (None, None)
    x_both = np.concatenate((xi, xi1))
    phi = _kernels.dense_forward(theta, enc.shapes, enc.w_off, enc.b_off,
                                 enc.acts, x_both, kept_e)
    z_both = np.hstack((x_both, phi))
    z_i, z_1 = z_both[:nb], z_both[nb:]
    z_hat = z_i @ A.T + ui @ Bm.T

    r_lin = z_1 - z_hat
    l_lin, g_lin = _norm_term(r_lin)
    r_pred = xi1 - z_hat[:, :n]
    l_pred, g_pred = _norm_term(r_pred)

    x_rec = _kernels.dense_forward(theta, dec.shapes, dec.w_off, dec.b_off,
                                   dec.acts, phi[:nb], kept_d)
    r_rec = xi - x_rec
    l_rec, g_rec = _norm_term(r_rec)

    v_hat = z_hat[:, :2] * vel_half + vel_mid
    a_hat = (v_hat - arrs["v_now"]) / dt
    r_al = arrs["a_meas"] - a_hat
    l_al, g_al = _norm_term(r_al)

    terms = LossTerms(linear=l_lin, recon=l_rec, pred=l_pred, accel=l_al)
    if not want_grad:
        return terms, None

    g_zhat = -(weights.linear * g_lin)
    g_zhat[:, :n] -= weights.pred * g_pred
    g_zhat[:, :2] -= weights.accel * g_al * (vel_half / dt)

    grad = np.zeros(layout.size)
    _, _, g_a, g_b = layout.blocks(grad)
    g_a[...], g_b[...] = g_zhat.T @ z_i, g_zhat.T @ ui

    g_xrec = -(weights.recon * g_rec)
    g_phi_dec = _kernels.dense_backward(theta, dec.shapes, dec.w_off, dec.b_off,
                                        dec.acts, g_xrec, grad, kept_d)
    # One reverse pass per half of the stacked batch: a single pass would add
    # the two halves' batch sums in another order and move trained parameters
    # by ulps, which FFRLS (lambda < 1) downstream amplifies.
    _kernels.dense_backward(theta, enc.shapes, enc.w_off, enc.b_off, enc.acts,
                            (g_zhat @ A)[:, n:] + g_phi_dec, grad,
                            [a[:nb] for a in kept_e])
    _kernels.dense_backward(theta, enc.shapes, enc.w_off, enc.b_off, enc.acts,
                            weights.linear * g_lin[:, n:], grad,
                            [a[nb:] for a in kept_e])
    return terms, grad


def loss_components(model: KoopmanModel, batch: PairBatch) -> LossTerms:
    """Batch-mean values of the four loss terms."""
    return _loss_and_grad(model.theta, model, _prepared_arrays(model, batch),
                          want_grad=False)[0]


def loss_gradient(model: KoopmanModel, batch: PairBatch) -> np.ndarray:
    """Flat gradient of the weighted loss total over the joint parameter vector."""
    return _loss_and_grad(model.theta, model, _prepared_arrays(model, batch),
                          want_grad=True)[1]


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
    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 1e-3
    weights: LossWeights = field(default_factory=LossWeights)
    hidden: tuple[int, ...] = (32, 32)
    feature_dim: int = 12
    holdout_fraction: float = 0.3

    def __post_init__(self):
        if self.feature_dim < 1 or min(self.hidden, default=1) < 1:
            raise ValueError(f"feature_dim and hidden widths must be >= 1, "
                             f"got {self.feature_dim} and {self.hidden}")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ValueError(f"holdout_fraction must be in (0, 1), "
                             f"got {self.holdout_fraction}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError(f"batch_size must be >= 1 and epochs >= 0, "
                             f"got {self.batch_size} and {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


class EpochRecord(NamedTuple):
    """One row of the training log; its fields are the log's columns."""
    epoch: int
    loss_total: float
    loss_linear: float
    loss_recon: float
    loss_pred: float
    loss_accel: float
    holdout_total: float


TRAIN_LOG_HEADER = ",".join(EpochRecord._fields)


@dataclass
class TrainResult:
    model: KoopmanModel
    history: list[EpochRecord]
    holdout_idx: np.ndarray


def split_pairs(n_pairs: int, holdout_fraction: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffled split into sorted (train, holdout) row indices."""
    perm = rng.permutation(n_pairs)
    n_train = int(round(n_pairs * (1.0 - holdout_fraction)))
    n_train = min(max(n_train, 1), n_pairs - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _least_squares_ab(A, B, arrs):
    """Write into the views A and B: A = identity-padded state-space EDMD
    fit of the prepared arrays `arrs`, B = its input map, rest zero."""
    a3, b3 = edmd_fit(arrs["xi"].T, arrs["xi1"].T, arrs["ui"].T, ridge=1e-10)
    A[...] = np.eye(A.shape[0])
    A[:N_STATES, :N_STATES] = a3
    B[...] = 0.0
    B[:N_STATES] = b3


def train(pairs: PairBatch, config: TrainConfig,
          init_model: KoopmanModel | None = None) -> TrainResult:
    """Mini-batch Adam over encoder, decoder, A, B; returns the best-holdout model.

    A fresh run builds a network of `config.hidden` widths and
    `config.feature_dim` features and starts A and B from the least-squares
    fit of the normalized training pairs, of which it refuses fewer than 2
    (ValueError); the model's dt is always the pairs' sample time. The pair set is split (seeded shuffle) into train/holdout;
    the normalizer is fit on the training split only. The pairs are the one
    copy of the data: each epoch gathers and normalizes its shuffled
    training rows into fresh arrays, whose contiguous slices are the batches,
    after the previous epoch's arrays are released. The holdout loss is
    evaluated in chunks of `BLOCK_ROWS` pairs, gathered and normalized one
    chunk at a time and weighted by their length, so its temporaries stay
    bounded for any data length. Aborts on a non-finite loss naming the
    offending batch. Passing `init_model` resumes from its network,
    parameters and normalizer (epoch numbering continues from its recorded
    final epoch), so `config.hidden` and `config.feature_dim` are not read;
    its dt must be the pairs' sample time. The best epoch and its holdout
    loss are in the model's `meta`.
    """
    if init_model is not None:
        check_sample_time(init_model, pairs)
    if len(pairs) < 4:
        raise ValueError("need at least 4 pairs to train")
    rng = np.random.default_rng(config.seed)
    train_rows, hold_rows = split_pairs(len(pairs), config.holdout_fraction, rng)
    if init_model is None and len(train_rows) < 2:
        raise ValueError(f"holdout_fraction {config.holdout_fraction} leaves "
                         f"{len(train_rows)} training and {len(hold_rows)} holdout pairs; "
                         f"a fresh run's least-squares start needs at least 2")

    if init_model is not None:
        enc_widths, dec_widths = init_model.enc_widths, init_model.dec_widths
        normalizer, theta = init_model.normalizer, init_model.theta.copy()
        epoch0 = int(init_model.meta.get("final_epoch", 0))
    else:
        normalizer = Normalizer.fit(pairs.x_now[train_rows], pairs.u_now[train_rows])
        p, d = config.feature_dim, N_STATES + config.feature_dim
        enc_widths = (N_STATES, *config.hidden, p)
        dec_widths = (p, *reversed(config.hidden), N_STATES)
        theta = _Layout.build(enc_widths, dec_widths).join(
            mlp.init_theta(enc_widths, rng), mlp.init_theta(dec_widths, rng),
            np.eye(d), np.zeros((d, N_INPUTS)))
        epoch0 = 0
    model = KoopmanModel(enc_widths, dec_widths, theta, normalizer,
                         pairs.dt, config.weights)
    layout, weights = model.layout, model.weights
    n_train, n_hold = len(train_rows), len(hold_rows)
    if init_model is None:
        _least_squares_ab(*layout.blocks(theta)[2:],
                          _prepared_arrays(model, pairs, train_rows))

    adam = AdamState.create(layout.size, lr=config.learning_rate)

    def holdout_total(th):
        sums = np.zeros(4)
        for start in range(0, n_hold, BLOCK_ROWS):
            rows = hold_rows[start:start + BLOCK_ROWS]
            arrs = _prepared_arrays(model, pairs, rows)
            terms, _ = _loss_and_grad(th, model, arrs, want_grad=False)
            sums += np.array(terms) * len(rows)
        return LossTerms(*(sums / n_hold)).total(weights)

    best_theta = theta.copy()
    best_hold = holdout_total(theta)
    best_epoch = epoch0
    history: list[EpochRecord] = []

    for epoch in range(1, config.epochs + 1):
        # One gather per epoch, whose contiguous slices are the batches. The
        # last epoch's arrays, and the last batch's views of them, go first.
        epoch_arrs = arrs = None
        epoch_arrs = _prepared_arrays(model, pairs,
                                      train_rows[rng.permutation(n_train)])
        sums = np.zeros(4)
        for bi, start in enumerate(range(0, n_train, config.batch_size)):
            stop = min(start + config.batch_size, n_train)
            arrs = {k: v[start:stop] for k, v in epoch_arrs.items()}
            terms, grad = _loss_and_grad(theta, model, arrs, want_grad=True)
            tot = terms.total(weights)
            if not np.isfinite(tot):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}")
            theta, adam = adam_step(theta, grad, adam)
            sums += np.array(terms) * (stop - start)
        mean_terms = LossTerms(*(sums / n_train))
        hold = holdout_total(theta)
        history.append(EpochRecord(epoch0 + epoch, mean_terms.total(weights),
                                   *mean_terms, hold))
        if hold < best_hold:
            best_hold = hold
            best_theta = theta.copy()
            best_epoch = epoch0 + epoch

    meta = {"seed": config.seed, "epochs": config.epochs,
            "best_epoch": best_epoch, "best_holdout": best_hold,
            "final_epoch": epoch0 + config.epochs}
    final = KoopmanModel(enc_widths, dec_widths, best_theta, normalizer,
                         pairs.dt, config.weights, meta)
    return TrainResult(model=final, history=history, holdout_idx=hold_rows)


def write_training_log(path, history: list[EpochRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAIN_LOG_HEADER + "\n")
        write_rows(fh, "%d" + ",%.17g" * 6 + "\n", (np.array(history).reshape(-1, 7),))


# ---------------------------------------------------------------------------
# prediction

def check_sample_time(model: KoopmanModel,
                      trajectory: Trajectory | PairBatch) -> None:
    """Raise ValueError unless the trajectory (or pair set) is uniformly
    sampled at the model's dt (to 1e-9 relative): A and B are one-step maps
    for that dt only."""
    dt = trajectory.dt
    if not abs(dt - model.dt) <= 1e-9 * model.dt:  # a NaN dt fails too
        raise ValueError(f"trajectory sample time {dt:g} s does not "
                         f"match the model's dt={model.dt:g} s")


def one_step_predictions(model: KoopmanModel, states: np.ndarray,
                         inputs: np.ndarray) -> np.ndarray:
    """Predicted x_{k+1} from each measured (x_k, u_k); physical units.

    Re-encodes the measured state every step; rows align with steps 1..K-1
    of the source trajectory when given its first K-1 states/inputs. Rows
    are normalized, lifted, stepped (z+ = A z + B u) and the first n columns
    of z+ denormalized one `_row_blocks` block at a time into the
    preallocated result, so the temporaries take memory for a block of rows,
    not for all of them.
    """
    states = np.asarray(states, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    if states.shape[0] != inputs.shape[0]:
        raise ValueError("states and inputs must share the sample axis")
    out = np.empty((states.shape[0], N_STATES))
    for s, e in _row_blocks(states.shape[0]):
        z = lift(model, model.x_norm.apply(states[s:e]))
        un = model.u_norm.apply(inputs[s:e])
        z_next = z @ model.A.T + un @ model.B.T
        out[s:e] = model.x_norm.invert(z_next[:, :N_STATES])
    return out


# ---------------------------------------------------------------------------
# checkpoint I/O (schema documented in README)

def _layers_json(widths) -> list[dict]:
    """The checkpoint's layer list of a network of these widths."""
    last = len(widths) - 2
    return [{"in": widths[j], "out": widths[j + 1],
             "activation": "linear" if j == last else "tanh", "bias": True}
            for j in range(last + 1)]


def save_checkpoint(model: KoopmanModel, path) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": CHECKPOINT_KIND,
        "dims": model.layout.dims(),
        "dt": model.dt,
        "channels": list(CHANNELS),
        "encoder": _layers_json(model.enc_widths),
        "decoder": _layers_json(model.dec_widths),
        **{key: block.ravel().tolist()
           for key, block in zip(BLOCKS, model.layout.blocks(model.theta))},
        "normalizer_min": model.normalizer.lo.tolist(),
        "normalizer_max": model.normalizer.hi.tolist(),
        "loss_weights": vars(model.weights),
        "meta": model.meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> KoopmanModel:
    """Read a checkpoint; each error is a ValueError prefixed `checkpoint
    <path>: `: not a JSON object, a missing key (named with the layer or the
    `loss_weights` that lacks it), a value of the wrong JSON type or length
    (named with its key and entry: a number, a list of numbers, an object, a
    non-negative integer `meta.final_epoch`), a value the model rejects, or
    a model of another loss."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _model_from_doc(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"checkpoint {path}: missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None


def _is_number(x) -> bool:
    return type(x) in (int, float)   # bool is not a JSON number


def _numbers(doc, key: str, n: int) -> np.ndarray:
    """doc[key] as a float vector; raises ValueError naming the key, and the
    entry, unless it is a list of n JSON numbers."""
    value = doc[key]
    if type(value) is not list:
        raise ValueError(f"{key} is {value!r}, not a list of {n} numbers")
    if len(value) != n:
        raise ValueError(f"{key} has {len(value)} entries, not {n}")
    if not {int, float}.issuperset(map(type, value)):
        j = next(j for j, x in enumerate(value) if not _is_number(x))
        raise ValueError(f"{key}[{j}] is {value[j]!r}, not a number")
    return np.array(value, dtype=np.float64)


def _model_from_doc(doc) -> KoopmanModel:
    if not isinstance(doc, dict):
        raise ValueError(f"top level is a {type(doc).__name__}, not a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported format_version: {version!r}")
    widths = []
    for block in ("encoder", "decoder"):
        items = doc[block]
        if not (type(items) is list and all(type(it) is dict for it in items)):
            raise ValueError(f"{block} is {items!r}, not a list of layer objects")
        if not items:
            raise ValueError(f"{block} has no layers")
        for j, item in enumerate(items):
            for key in ("in", "out"):
                if key not in item:
                    raise ValueError(f"missing key {key!r} in {block} layer {j}")
        w = [items[0]["in"], *(it["out"] for it in items)]
        if not all(type(x) is int and x > 0 for x in w):
            raise ValueError(f"{block} widths {w} must be positive integers")
        for j, (item, want) in enumerate(zip(items, _layers_json(w))):
            if item != want:
                raise ValueError(f"{block} layer {j} is {item!r}, not {want!r}")
        widths.append(tuple(w))
    layout = _Layout.build(*widths)
    for key, want in (("kind", CHECKPOINT_KIND), ("channels", list(CHANNELS)),
                      ("dims", layout.dims())):
        if doc[key] != want:
            raise ValueError(f"{key} is {doc[key]!r}, not {want!r}")
    # files may hold this key; any value but true is a model of another loss
    if doc.get("squared_norms", True) is not True:
        raise ValueError(f"squared_norms is {doc['squared_norms']!r}, not True")
    if not _is_number(doc["dt"]):
        raise ValueError(f"dt is {doc['dt']!r}, not a number")
    theta = np.concatenate([_numbers(doc, key, n)
                            for key, n in zip(BLOCKS, np.diff(layout.bounds))])
    normalizer = Normalizer(*(_numbers(doc, key, len(CHANNELS))
                              for key in ("normalizer_min", "normalizer_max")))
    lw, meta = doc["loss_weights"], doc.get("meta", {})
    for key, value in (("loss_weights", lw), ("meta", meta)):
        if type(value) is not dict:
            raise ValueError(f"{key} is {value!r}, not a JSON object")
    names = vars(LossWeights())   # the four term names
    for name in names:
        if name not in lw:
            raise ValueError(f"missing key {name!r} in loss_weights")
        if not _is_number(lw[name]):
            raise ValueError(f"loss_weights[{name!r}] is {lw[name]!r}, not a number")
    epoch = meta.get("final_epoch", 0)
    if not (type(epoch) is int and epoch >= 0):
        raise ValueError(f"meta['final_epoch'] is {epoch!r}, not a non-negative "
                         "integer")
    return KoopmanModel(*widths, theta, normalizer, doc["dt"],
                        LossWeights(**{name: lw[name] for name in names}), meta)
