"""Dense network layouts, Adam, and the normalizer.

Parameters of a network (and, one level up, of the whole lifted-space model)
live in a single float64 vector. That keeps Adam, checkpointing, and
finite-difference gradient checks trivial: an `MlpLayout` of a network's
widths gives the offsets at which the dense passes in `_kernels` slice the
weights. All arithmetic is 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ACT_LINEAR, ACT_TANH


@dataclass(frozen=True)
class MlpLayout:
    """Kernel-side description of the dense chain through a tuple of widths
    (input, hidden..., output): every layer has a bias, the hidden layers are
    tanh and the head is linear. Gives each layer's shape, the flat vector's
    offsets of its weights and of its bias, and its activation code."""
    shapes: np.ndarray   # (J, 2) int64: (out_dim, in_dim)
    w_off: np.ndarray    # (J,) int64
    b_off: np.ndarray    # (J,) int64
    acts: np.ndarray     # (J,) int64
    size: int
    cache_width: int

    @classmethod
    def build(cls, widths: tuple[int, ...], base: int = 0) -> "MlpLayout":
        if len(widths) < 2 or not all(
                isinstance(w, (int, np.integer)) and w > 0 for w in widths):
            raise ValueError(f"widths {tuple(widths)} must be an input and an "
                             f"output width, or more, each a positive integer")
        dims = np.array(widths, dtype=np.int64)
        shapes = np.column_stack((dims[1:], dims[:-1]))
        ends = base + np.cumsum(shapes[:, 0] * (shapes[:, 1] + 1))
        w_off = np.concatenate(([base], ends[:-1]))
        acts = np.full(len(shapes), ACT_TANH, dtype=np.int64)
        acts[-1] = ACT_LINEAR
        return cls(shapes=shapes, w_off=w_off, b_off=w_off + shapes[:, 0] * shapes[:, 1],
                   acts=acts, size=int(ends[-1]) - base, cache_width=int(dims.sum()))


def init_theta(widths: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Xavier-uniform weights, zero biases."""
    layout = MlpLayout.build(widths)
    theta = np.zeros(layout.size)
    for (out_d, in_d), wo in zip(layout.shapes.tolist(), layout.w_off.tolist()):
        bound = math.sqrt(6.0 / (in_d + out_d))
        theta[wo:wo + out_d * in_d] = rng.uniform(-bound, bound, size=out_d * in_d)
    return theta


# ---------------------------------------------------------------------------
# Adam, at the constants recommended by Kingma & Ba (ICLR 2015)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    lr: float
    step: int = 0

    @classmethod
    def create(cls, n_params: int, lr: float) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray,
              state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    if params.shape != grads.shape:
        raise ValueError("parameter/gradient shape mismatch")
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m=m, v=v, lr=state.lr, step=t)


# ---------------------------------------------------------------------------
# min-max normalization to [-1, 1]

@dataclass(frozen=True)
class Normalizer:
    """Per-channel affine map of the training range onto [-1, 1].

    Constant channels (min == max) map to 0 and invert back to the constant.
    """
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo/hi must be equal-length vectors")
        bad = np.flatnonzero(~(np.isfinite(self.lo) & np.isfinite(self.hi)))
        if bad.size:
            k = bad[0]
            raise ValueError(f"normalizer channel {k} has min {self.lo[k]} and "
                             f"max {self.hi[k]}; both must be finite")
        if np.any(self.hi < self.lo):
            raise ValueError("per-channel min must not exceed max")

    @classmethod
    def fit(cls, columns: np.ndarray) -> "Normalizer":
        """Fit from a (samples, channels) array."""
        cols = np.asarray(columns, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[0] < 1:
            raise ValueError("need a non-empty (samples, channels) array")
        return cls(lo=cols.min(axis=0), hi=cols.max(axis=0))

    @property
    def half_range(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.hi + self.lo)

    def _check_width(self, x: np.ndarray) -> None:
        if x.shape[-1:] != self.lo.shape:
            raise ValueError(f"normalizer expects {self.lo.size} channels, "
                             f"got {x.shape[-1]}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        self._check_width(x)
        span = self.hi - self.lo
        safe = np.where(span > 0.0, span, 1.0)
        return np.where(span > 0.0, (2.0 * (x - self.lo) / safe) - 1.0, 0.0)

    def invert(self, x: np.ndarray) -> np.ndarray:
        self._check_width(x)
        return self.mid + x * self.half_range

    def select(self, idx) -> "Normalizer":
        """Sub-normalizer over a subset of channels."""
        return Normalizer(lo=self.lo[idx].copy(), hi=self.hi[idx].copy())
