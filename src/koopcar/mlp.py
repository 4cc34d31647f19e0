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

from ._kernels import ACT_LINEAR, ACT_RELU, ACT_TANH

_ACT_CODES = {"linear": ACT_LINEAR, "tanh": ACT_TANH, "relu": ACT_RELU}


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "tanh"
    has_bias: bool = True

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        if self.activation not in _ACT_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def size(self) -> int:
        return self.out_dim * self.in_dim + (self.out_dim if self.has_bias else 0)


def mlp_specs(dims: tuple[int, ...], activation: str = "tanh",
              out_activation: str = "linear") -> tuple[LayerSpec, ...]:
    """Chain of layers through the given dims, hidden activation + linear head."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    specs = []
    for j in range(len(dims) - 1):
        act = activation if j < len(dims) - 2 else out_activation
        specs.append(LayerSpec(dims[j], dims[j + 1], act))
    return tuple(specs)


@dataclass(frozen=True)
class MlpLayout:
    """Kernel-side description of a layer chain: shapes/offsets/activations."""
    shapes: np.ndarray   # (J, 2) int64: (out_dim, in_dim)
    w_off: np.ndarray    # (J,) int64
    b_off: np.ndarray    # (J,) int64, -1 when absent
    acts: np.ndarray     # (J,) int64
    size: int
    cache_width: int

    @classmethod
    def build(cls, specs: tuple[LayerSpec, ...], base: int = 0) -> "MlpLayout":
        nl = len(specs)
        shapes = np.zeros((nl, 2), dtype=np.int64)
        w_off = np.zeros(nl, dtype=np.int64)
        b_off = np.full(nl, -1, dtype=np.int64)
        acts = np.zeros(nl, dtype=np.int64)
        pos = base
        for j, s in enumerate(specs):
            if j > 0 and s.in_dim != specs[j - 1].out_dim:
                raise ValueError(f"layer {j} input dim {s.in_dim} does not chain "
                                 f"with previous output {specs[j - 1].out_dim}")
            shapes[j] = (s.out_dim, s.in_dim)
            acts[j] = _ACT_CODES[s.activation]
            w_off[j] = pos
            pos += s.out_dim * s.in_dim
            if s.has_bias:
                b_off[j] = pos
                pos += s.out_dim
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
# Adam

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def create(cls, n_params: int, lr: float = 1e-3, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: np.ndarray, grads: np.ndarray,
              state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    if params.shape != grads.shape:
        raise ValueError("parameter/gradient shape mismatch")
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamState(m=m, v=v, step=t, lr=state.lr, beta1=state.beta1,
                          beta2=state.beta2, eps=state.eps)
    return new_params, new_state


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
