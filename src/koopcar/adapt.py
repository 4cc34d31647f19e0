"""Online adaptation of the lifted-space matrices [A B].

Re-estimates the one-step linear map of lifted measurements over a sliding
window of the most recent pairs (SWLS), with recursive least squares (RLS),
exponentially forgetting RLS (FFRLS), and a frozen baseline for comparison.
Every adaptive mode solves one ridge problem per step, anchored at the
trained estimate H0:

    H = H0 + C (S + R)^{-1},   S = sum g g^T,   C = sum (z+ - H0 g) g^T

SWLS sums over the last M pairs with the fixed ridge R = eps I; with eps
fixed at init this is exactly textbook RLS while the window is still
growing, and within O(eps) of the plain windowed solution once it slides.
RLS and FFRLS are the information form of the recursive estimator: S and C
sum every pair seen, weighted by lambda^(k-i) (lambda = 1 for RLS), and
R = lambda^k / FFRLS_P0_SCALE I is the decayed prior. In exact arithmetic
this is the covariance (P-form) recursion started from P0 = FFRLS_P0_SCALE I,
with P = (S + R)^{-1} (Ljung & Soderstrom, Theory and Practice of Recursive
Identification), but no covariance is propagated, so nothing winds up in
directions the data do not excite. C stays in residual form: forming
T G^T - H0 S instead cancels badly.

Both paths below take each mode's lambda from `_lam`, its ridge after k
pairs from `_ridge` and the SWLS eps (`eps_reg`, or 1e-8 |g0|^2 / dim of the
first regressor g0) from `_eps`. `AdapterConfig.forgetting` holds the FFRLS
default lambda = 0.95, which the CLI reads as its default.

Two paths compute these estimates:

* Streaming, `init` + `update`: the online API, one measurement at a time.
  The SWLS window lives in ring buffers, and S and C are kept up to date with
  rank-1 terms: the new column is added and the evicted one subtracted. Every
  M pushes both are recomputed exactly from the buffers, which bounds the
  cancellation drift of the downdates (Golub & Van Loan, Matrix
  Computations). RLS and FFRLS scale S and C by lambda and add the new pair.
  `adapt_run` steps `update` for SWLS with eps = 0, whose min-norm lstsq per
  window has no batched form; it builds an `AdapterState` for nothing else.
* Batched, inside `adapt_run`, for SWLS with eps > 0, RLS and FFRLS over a
  known trajectory. It works in chunks of BATCH_CHUNK steps: the growing
  windows and every RLS/FFRLS step take S and C from a lambda-scaled running
  `cumsum`, each full window takes them from one matmul over a
  `sliding_window_view` of its M pairs (exact per window, no downdates), and
  one batched one-column solve per chunk gives the one-step predictions. The
  drift diagnostics (a solve for all of H) and `cond_gram` (an `eigvalsh`)
  are computed only on request. It agrees with streaming to rounding and,
  like it, refuses a non-finite estimate, even in rows no prediction reads.

An adapter is strictly sequential and single-owner; run one per stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .koopman import (N_STATES, KoopmanModel, check_sample_time, lift,
                      one_step_predictions)
from .vehicle import Trajectory, write_rows

MODES = ("SWLS", "RLS", "FFRLS", "frozen")

FFRLS_P0_SCALE = 1e4
# Steps per batched solve in `adapt_run`. Small chunks keep the per-chunk
# regressors, window Grams and their solve in cache and bound the RSS.
BATCH_CHUNK = 64
# The running sums of a chunk scale its pairs by up to lambda^-(steps - 1);
# chunks are shortened so that this weight stays below 1e100.
_LOG_MAX_WEIGHT = math.log(1e100)
# LAPACK's LU turns a zero column under a subnormal pivot into NaN, so the
# decayed prior of RLS/FFRLS stops at the smallest normal float.
_TINY = np.finfo(np.float64).tiny
ESTIMATE_HISTORY_HEADER = "k,frob_dA,frob_dB,cond_gram"
PREDICTIONS_HEADER = "pred_Vx,pred_Vy,pred_wr,true_Vx,true_Vy,true_wr"
# What the ridge of each mode's solve is, for error messages.
_RIDGE_SOURCE = {"SWLS": "eps_reg", "RLS": "1/FFRLS_P0_SCALE",
                 "FFRLS": "forgetting^k/FFRLS_P0_SCALE"}


@dataclass(frozen=True)
class AdapterConfig:
    mode: str = "SWLS"
    window: int = 100            # M, steps; SWLS only
    forgetting: float = 0.95     # lambda in (0, 1], FFRLS only
    eps_reg: float | None = None  # None -> auto (`_eps`); 0 -> min-norm lstsq

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "SWLS" and self.window < 1:
            raise ValueError(f"window length must be >= 1, got {self.window}")
        if not (0.0 < self.forgetting <= 1.0):
            raise ValueError(f"forgetting factor must be in (0, 1], "
                             f"got {self.forgetting}")
        if self.eps_reg is not None and not (math.isfinite(self.eps_reg)
                                             and self.eps_reg >= 0):
            raise ValueError(f"eps_reg must be non-negative and finite, "
                             f"got {self.eps_reg}")


class AdapterState:
    """Estimator state, built by `init`; mutate only through `update`.

    Every adaptive mode keeps the Gram S and the cross term C of its solve.
    SWLS also keeps its window in ring buffers whose capacity grows
    geometrically up to M, so a huge M costs memory only for the pairs
    actually pushed; RLS/FFRLS fold each pair into S and C and keep no window.
    """

    def __init__(self, h0: np.ndarray, z0: np.ndarray, u0: np.ndarray,
                 config: AdapterConfig):
        self.config = config
        self.zdim = z0.shape[0]
        self.udim = u0.shape[0]
        self.gdim = self.zdim + self.udim
        self.h_est = self.h_init = h0   # solves replace h_est, none writes in
        self.z_prev = z0
        self.eps = _eps(config, np.concatenate((z0, u0)))
        self.k = 0
        self._fill = 0
        self._regressors = np.empty((self.gdim, 0))   # G, ring order
        self._targets = np.empty((self.zdim, 0))      # T, same columns
        self._gram = np.zeros((self.gdim, self.gdim))
        self._cross = np.zeros((self.zdim, self.gdim))

    @property
    def window_fill(self) -> int:
        """Completed pairs held: min(k, M) for SWLS, 0 for the other modes."""
        return self._fill

    @property
    def A_k(self) -> np.ndarray:
        return self.h_est[:, :self.zdim]

    @property
    def B_k(self) -> np.ndarray:
        return self.h_est[:, self.zdim:]

    def window_gram(self) -> np.ndarray:
        """S of the current solve (a copy): the window Gram for SWLS."""
        return self._gram.copy()

    def _push(self, g: np.ndarray, target: np.ndarray) -> None:
        """Store the pair in slot k mod M and up/downdate S and C."""
        m = self.config.window
        slot = self.k % m            # SWLS pushes once per step
        recompute = (self.k + 1) % m == 0
        if self._fill < m:
            if self._fill == self._regressors.shape[1]:
                grow = min(m, max(1, 2 * self._fill)) - self._fill
                self._regressors = np.hstack((self._regressors,
                                              np.empty((self.gdim, grow))))
                self._targets = np.hstack((self._targets,
                                           np.empty((self.zdim, grow))))
            self._fill += 1
        elif not recompute:
            g_old = self._regressors[:, slot]
            self._gram -= g_old[:, None] * g_old
            self._cross -= ((self._targets[:, slot] - self.h_init @ g_old)[:, None]
                            * g_old)
        self._regressors[:, slot] = g
        self._targets[:, slot] = target
        if recompute:
            g_mat = self._regressors[:, :self._fill]
            self._gram = g_mat @ g_mat.T
            self._cross = (self._targets[:, :self._fill]
                           - self.h_init @ g_mat) @ g_mat.T
        else:
            self._gram += g[:, None] * g
            self._cross += (target - self.h_init @ g)[:, None] * g


def init(A0: np.ndarray, B0: np.ndarray, z0: np.ndarray, u0: np.ndarray,
         config: AdapterConfig) -> AdapterState:
    """Seed the adapter with the trained matrices and the first (z0, u0) sample."""
    A0 = np.asarray(A0, dtype=np.float64)
    B0 = np.asarray(B0, dtype=np.float64)
    z0 = np.asarray(z0, dtype=np.float64).ravel()
    u0 = np.asarray(u0, dtype=np.float64).ravel()
    if A0.shape != (z0.shape[0], z0.shape[0]):
        raise ValueError("A0 must be square and match the lifted dim")
    if B0.shape != (z0.shape[0], u0.shape[0]):
        raise ValueError("B0 must map inputs to the lifted dim")
    return AdapterState(np.hstack((A0, B0)), z0, u0, config)


def _ridge_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs^{-1} rhs for one matrix or a stack; pinv when one is singular."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(lhs) @ rhs


def _solve_window(state: AdapterState, reg: float) -> None:
    """Set H = H0 + C (S + reg I)^{-1}, or with reg = 0 (SWLS with eps = 0)
    the plain min-norm windowed LS. Raises LinAlgError if H is not finite."""
    if reg > 0.0:
        lhs = state._gram + reg * np.eye(state.gdim)
        h_new = state.h_init + _ridge_solve(lhs, state._cross.T).T
    else:
        # pseudo-inverse path: plain min-norm windowed LS via SVD
        h_new = np.linalg.lstsq(state._regressors[:, :state._fill].T,
                                state._targets[:, :state._fill].T,
                                rcond=None)[0].T
    if not np.isfinite(h_new).all():
        raise _singular(state.config.mode, state._gram, reg)
    state.h_est = h_new


def _singular(mode: str, gram: np.ndarray, reg: float) -> np.linalg.LinAlgError:
    cond = float(np.linalg.cond(gram)) if np.isfinite(gram).all() else math.inf
    return np.linalg.LinAlgError(
        f"non-finite {mode} estimate: singular solve (Gram cond~{cond:.3g}, "
        f"ridge {_RIDGE_SOURCE[mode]}={reg:.3g})")


def _lam(config: AdapterConfig) -> float:
    """The mode's forgetting factor: FFRLS forgets, SWLS and RLS use 1."""
    return config.forgetting if config.mode == "FFRLS" else 1.0


def _ridge(config: AdapterConfig, eps: float, k) -> np.ndarray:
    """The ridge of the solve after k pairs (k an int or an array of them):
    eps for SWLS; for RLS and FFRLS the decayed prior lam^k / FFRLS_P0_SCALE,
    no smaller than the smallest normal float."""
    if config.mode == "SWLS":
        return np.full(np.shape(k), eps)
    return np.maximum(np.power(_lam(config), k) / FFRLS_P0_SCALE, _TINY)


def _eps(config: AdapterConfig, g0: np.ndarray) -> float:
    """The SWLS ridge: `eps_reg`, or when it is None (auto) 1e-8 |g0|^2 / dim
    of the first regressor g0 = [z0; u0]."""
    if config.eps_reg is not None:
        return float(config.eps_reg)
    return 1e-8 * float(np.trace(np.outer(g0, g0))) / g0.shape[0]


def update(state: AdapterState, z_k: np.ndarray,
           u_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold in the measurement z_k (driven by u_prev); returns (A_k, B_k).

    The completed pair (z_{k-1}, u_prev) -> z_k enters the SWLS window,
    evicting the oldest pair once the window holds M of them. RLS and FFRLS
    (lambda=1 reduces FFRLS to RLS) scale their sums by lambda and add it.
    Raises LinAlgError when the solve gives a non-finite estimate; the state
    is then spent.
    """
    z_k = np.asarray(z_k, dtype=np.float64).ravel()
    u_prev = np.asarray(u_prev, dtype=np.float64).ravel()
    if z_k.shape[0] != state.zdim or u_prev.shape[0] != state.udim:
        raise ValueError("lifted/input dim mismatch")
    if not (np.isfinite(z_k).all() and np.isfinite(u_prev).all()):
        raise ValueError("non-finite measurement")
    g = np.concatenate((state.z_prev, u_prev))
    config = state.config
    if config.mode == "SWLS":
        state._push(g, z_k)
    elif config.mode != "frozen":
        lam = _lam(config)
        state._gram *= lam
        state._gram += g[:, None] * g
        state._cross *= lam
        state._cross += (z_k - state.h_init @ g)[:, None] * g
    if config.mode != "frozen":
        _solve_window(state, _ridge(config, state.eps, state.k + 1))
    state.z_prev = z_k
    state.k += 1
    return state.A_k.copy(), state.B_k.copy()


# ---------------------------------------------------------------------------
# runs over known trajectories

@dataclass
class AdaptRunResult:
    predictions: np.ndarray   # (K-1, n) physical one-step predictions for steps 1..K-1
    truth: np.ndarray         # (K-1, n) measured states at those steps
    # Diagnostics, None unless adapt_run(..., diagnostics=True):
    drift_a: np.ndarray | None    # ||A_k - A_0||_F after each step
    drift_b: np.ndarray | None
    cond_gram: np.ndarray | None  # cond(S) of the SWLS window, NaN otherwise


def _sym_cond(gram: np.ndarray) -> np.ndarray:
    """Condition number of each symmetric matrix in `gram`; inf if singular."""
    ev = np.linalg.eigvalsh(gram)
    lo, hi = ev[..., 0], ev[..., -1]
    return np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0.0)


def _running_sum(carry: np.ndarray, rows: np.ndarray, lam: float) -> np.ndarray:
    """lam carry + sum_{s<=t} lam^-s g_s [g_s | r_s] for every t of a chunk.

    `rows` holds [g_s | r_s] and `carry` is [S | C^T] before the chunk. Step t
    of the result is lam^-t times the [S | C^T] of the information form,
    lam^(t+1) carry + sum_{s<=t} lam^(t-s) g_s [g_s | r_s]: one cumsum adds
    the terms left to right. At lam = 1 every scaling is exact, so the sums
    are added as the rank-1 updates of `update` are.
    """
    gdim = carry.shape[0]
    weights = np.power(lam, -np.arange(len(rows)))
    out = np.empty((len(rows) + 1, *carry.shape))
    out[0] = lam * carry
    np.multiply((rows[:, :gdim] * weights[:, None])[:, :, None], rows[:, None, :],
                out=out[1:])
    np.cumsum(out, axis=0, out=out)
    return out[1:]


def _chunk_steps(lam: float) -> int:
    """BATCH_CHUNK, or fewer steps when lam^-(steps - 1) would pass 1e100."""
    decay = -math.log(lam)
    if decay * (BATCH_CHUNK - 1) <= _LOG_MAX_WEIGHT:
        return BATCH_CHUNK
    return 1 + int(_LOG_MAX_WEIGHT / decay)


def _batched(h0: np.ndarray, z_all: np.ndarray, un: np.ndarray,
             config: AdapterConfig, eps: float, diagnostics: bool):
    """SWLS (ridge eps > 0), RLS and FFRLS over every step, one chunk of
    steps per batched solve.

    Pair j is (g_j, z_{j+1}) with g_j = [z_j; u_j] and r_j = z_{j+1} - H0 g_j.
    After pair j the estimate is H_j = H0 + C_j (S_j + R_j I)^{-1}, where S_j
    and C_j sum g_i g_i^T and r_i g_i^T over the pairs [max(0, j-M+1), j]
    for SWLS, and over [0, j] weighted by lam^(j-i) for RLS (lam = 1) and
    FFRLS, and R_j = _ridge(config, eps, j+1). The prediction of z_{j+1}
    takes one column: H0[:n] g_{j+1} + C_j[:n] (S_j + R_j I)^{-1} g_{j+1}
    with n = N_STATES, so only the rows :n of C are summed per step unless
    `diagnostics` asks for the drift of every H_j. Within a chunk, S, C and R
    are all kept scaled by lam^-t (see `_running_sum`), which leaves H_j and
    cond(S_j) unchanged.

    Returns (preds_n, diag): the normalized predictions of rows :n, and
    with `diagnostics` a (3, steps) array of the drifts of A and B and
    cond(S) (NaN for RLS/FFRLS), else None. Raises LinAlgError when a
    prediction is not finite, or when H0 g is not finite in a row that no
    prediction reads (that estimate is then not finite either).
    """
    zdim, gdim = h0.shape
    steps = z_all.shape[0] - 1
    windowed = config.mode == "SWLS"
    lam = _lam(config)
    m = config.window
    grow_end = min(m - 1, steps) if windowed else steps   # first full window
    cols = gdim + (zdim if diagnostics else N_STATES)  # columns of [S | C^T] per step
    g = np.concatenate((z_all, un), axis=1)      # g_0 .. g_steps
    hg = g @ h0.T
    r = z_all[1:] - hg[:-1]
    rows = np.concatenate((g[:-1], r[:, :cols - gdim]), axis=1)
    preds_n = np.empty((steps, N_STATES))
    preds_n[0] = hg[0, :N_STATES]
    diag = np.full((3, steps), np.nan) if diagnostics else None
    carry = np.zeros((gdim, cols))   # [S | C^T] after the last growing step
    chunk = _chunk_steps(lam)
    for c0 in range(0, steps, chunk):
        c1 = min(c0 + chunk, steps)
        f0 = max(c0, grow_end)
        sums = np.empty((c1 - c0, gdim, cols))   # [S | C^T] of each step
        grown = min(f0, c1) - c0
        if grown > 0:      # windows still growing, and RLS/FFRLS: running sums
            sums[:grown] = _running_sum(carry, rows[c0:c0 + grown], lam)
            carry = sums[grown - 1] * lam ** (grown - 1)
        if grown < c1 - c0:   # full windows: one product over M pairs each
            win = sliding_window_view(rows[f0 - m + 1:c1], m, axis=0)   # (.., cols, M)
            np.matmul(win[:, :gdim], win.mT, out=sums[grown:])
        reg = _ridge(config, eps, np.arange(c0 + 1, c1 + 1))
        lhs = sums[:, :, :gdim].copy()
        lhs.reshape(c1 - c0, -1)[:, ::gdim + 1] += (
            reg * np.power(lam, -np.arange(c1 - c0)))[:, None]
        # the last pair's solve would predict past the end
        ahead = min(c1, steps - 1) - c0
        x = _ridge_solve(lhs[:ahead], g[c0 + 1:c0 + 1 + ahead, :, None])
        corr_pred = (x.mT @ sums[:ahead, :, gdim:gdim + N_STATES])[:, 0]
        finite = np.isfinite(corr_pred).all(axis=1)
        if not finite.all():
            bad = np.argmin(finite)
            raise _singular(config.mode, sums[bad, :, :gdim], reg[bad])
        preds_n[c0 + 1:c0 + 1 + ahead] = (hg[c0 + 1:c0 + 1 + ahead, :N_STATES]
                                         + corr_pred)
        if diagnostics:
            corr_t = _ridge_solve(lhs, sums[:, :, gdim:])
            diag[0, c0:c1] = np.linalg.norm(corr_t[:, :zdim], axis=(1, 2))
            diag[1, c0:c1] = np.linalg.norm(corr_t[:, zdim:], axis=(1, 2))
            if windowed:
                diag[2, c0:c1] = _sym_cond(sums[:, :, :gdim])
    if not np.isfinite(hg[:-1]).all():   # also in rows no prediction reads
        raise _singular(config.mode, sums[-1, :, :gdim], reg[-1])
    return preds_n, diag


def adapt_run(model: KoopmanModel, trajectory: Trajectory,
              config: AdapterConfig, *, diagnostics: bool = False) -> AdaptRunResult:
    """Run a trajectory through lift -> predict -> update.

    Each step k is predicted from the estimate that has only seen data through
    k-1, then the measurement at k updates the estimate. SWLS with eps > 0,
    RLS and FFRLS take the batched path from H0 = [A B] and eps; SWLS with
    eps = 0 steps `update`.
    Frozen mode delegates to `one_step_predictions`, so it matches it bit
    for bit.

    With `diagnostics`, the result also holds the drifts ||A_k - A_0||_F and
    ||B_k - B_0||_F after every step and `cond_gram`, the condition number of
    the SWLS window Gram (NaN for the modes that keep no window); without,
    these three are None and cost nothing. The predictions do not depend on
    `diagnostics`.

    Raises ValueError on unevenly spaced snapshots, a sample-time mismatch or
    a non-finite measurement, and LinAlgError when a solve gives a non-finite
    estimate, also in the rows of [A B] that no prediction reads.
    """
    n_snap = len(trajectory)
    if n_snap < 2:
        raise ValueError("trajectory too short to adapt over")
    check_sample_time(model, trajectory)
    if not (np.isfinite(trajectory.states).all()
            and np.isfinite(trajectory.inputs).all()):
        raise ValueError("non-finite measurement")
    truth = trajectory.states[1:].copy()
    if config.mode == "frozen":
        preds = one_step_predictions(model, trajectory.states[:-1],
                                     trajectory.inputs[:-1])
        diag = None
        if diagnostics:
            diag = np.zeros((3, n_snap - 1))
            diag[2] = np.nan
        return _result(preds, truth, diag)

    xn = model.x_norm.apply(trajectory.states)
    un = model.u_norm.apply(trajectory.inputs)
    z_all = lift(model, xn)
    if not np.isfinite(z_all).all():
        raise ValueError("non-finite measurement")
    eps = _eps(config, np.concatenate((z_all[0], un[0])))
    if config.mode == "SWLS" and eps == 0.0:
        # the min-norm lstsq of each window has no batched form: step `update`
        state = init(model.A, model.B, z_all[0], un[0], config)
        preds_n = np.empty((n_snap - 1, N_STATES))
        diag = np.empty((3, n_snap - 1)) if diagnostics else None
        for k in range(1, n_snap):
            g = np.concatenate((z_all[k - 1], un[k - 1]))
            preds_n[k - 1] = (state.h_est @ g)[:N_STATES]
            update(state, z_all[k], un[k - 1])
            if diagnostics:
                diag[0, k - 1] = np.linalg.norm(state.A_k - model.A)
                diag[1, k - 1] = np.linalg.norm(state.B_k - model.B)
                diag[2, k - 1] = _sym_cond(state.window_gram())
    else:
        preds_n, diag = _batched(np.hstack((model.A, model.B)), z_all, un,
                                 config, eps, diagnostics)
    return _result(model.x_norm.invert(preds_n), truth, diag)


def _result(preds, truth, diag) -> AdaptRunResult:
    drift_a, drift_b, cond = (None, None, None) if diag is None else diag
    return AdaptRunResult(predictions=preds, truth=truth, drift_a=drift_a,
                          drift_b=drift_b, cond_gram=cond)


def write_estimate_history(path, result: AdaptRunResult) -> None:
    """Columnar diagnostics dump: k,frob_dA,frob_dB,cond_gram.

    Raises ValueError for a result computed without diagnostics.
    """
    if result.drift_a is None:
        raise ValueError("no estimate history: the run was computed without "
                         "adapt_run(..., diagnostics=True)")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ESTIMATE_HISTORY_HEADER + "\n")
        write_rows(fh, "%d,%.17g,%.17g,%.17g\n",
                   (result.drift_a, result.drift_b, result.cond_gram),
                   first_index=1)


def write_predictions(path, result: AdaptRunResult) -> None:
    """Predictions beside the measured states: pred_*, true_* per step."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PREDICTIONS_HEADER + "\n")
        write_rows(fh, ",".join(["%.17g"] * 6) + "\n",
                   (result.predictions, result.truth))
