"""Dense layer specs and their kernel layouts, Adam, and the normalizer.

Parameters of a network (and, one level up, of the whole lifted-space model)
live in a single float64 vector. That keeps Adam, checkpointing, and
finite-difference gradient checks trivial: an `MlpLayout` gives the offsets
at which the dense passes in `_kernels` slice the weights. All arithmetic is
64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ACT_LINEAR, ACT_TANH

_ACT_CODES = {"linear": ACT_LINEAR, "tanh": ACT_TANH}


@dataclass(frozen=True)
class LayerSpec:
    """A dense layer with bias: out = act(W in + b)."""
    in_dim: int
    out_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        if self.activation not in _ACT_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def size(self) -> int:
        return self.out_dim * (self.in_dim + 1)


def mlp_specs(dims: tuple[int, ...]) -> tuple[LayerSpec, ...]:
    """Chain of layers through the given dims: tanh hidden layers, linear head."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    last = len(dims) - 2
    return tuple(LayerSpec(dims[j], dims[j + 1], "linear" if j == last else "tanh")
                 for j in range(last + 1))


@dataclass(frozen=True)
class MlpLayout:
    """Kernel-side description of a layer chain: each layer's shape, the flat
    vector's offsets of its weights and of its bias, and its activation code."""
    shapes: np.ndarray   # (J, 2) int64: (out_dim, in_dim)
    w_off: np.ndarray    # (J,) int64
    b_off: np.ndarray    # (J,) int64
    acts: np.ndarray     # (J,) int64
    size: int
    cache_width: int

    @classmethod
    def build(cls, specs: tuple[LayerSpec, ...], base: int = 0) -> "MlpLayout":
        nl = len(specs)
        shapes = np.zeros((nl, 2), dtype=np.int64)
        w_off = np.zeros(nl, dtype=np.int64)
        b_off = np.zeros(nl, dtype=np.int64)
        acts = np.zeros(nl, dtype=np.int64)
        pos = base
        for j, s in enumerate(specs):
            if j > 0 and s.in_dim != specs[j - 1].out_dim:
                raise ValueError(f"layer {j} input dim {s.in_dim} does not chain "
                                 f"with previous output {specs[j - 1].out_dim}")
            shapes[j] = (s.out_dim, s.in_dim)
            acts[j] = _ACT_CODES[s.activation]
            w_off[j] = pos
            b_off[j] = pos + s.out_dim * s.in_dim
            pos += s.size
        cache_width = specs[0].in_dim + sum(s.out_dim for s in specs)
        return cls(shapes=shapes, w_off=w_off, b_off=b_off, acts=acts,
                   size=pos - base, cache_width=cache_width)


def init_theta(specs: tuple[LayerSpec, ...], rng: np.random.Generator) -> np.ndarray:
    """Xavier-uniform weights, zero biases."""
    layout = MlpLayout.build(specs)
    theta = np.zeros(layout.size)
    for j, s in enumerate(specs):
        bound = math.sqrt(6.0 / (s.in_dim + s.out_dim))
        w = rng.uniform(-bound, bound, size=s.out_dim * s.in_dim)
        theta[layout.w_off[j]:layout.w_off[j] + w.size] = w
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        span = self.hi - self.lo
        safe = np.where(span > 0.0, span, 1.0)
        return np.where(span > 0.0, (2.0 * (x - self.lo) / safe) - 1.0, 0.0)

    def invert(self, x: np.ndarray) -> np.ndarray:
        return self.mid + x * self.half_range

    def select(self, idx) -> "Normalizer":
        """Sub-normalizer over a subset of channels."""
        return Normalizer(lo=self.lo[idx].copy(), hi=self.hi[idx].copy())
