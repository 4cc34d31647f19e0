"""Online adaptation of the lifted-space matrices [A B].

Re-estimates the one-step linear map of lifted measurements over a sliding
window of the most recent pairs (SWLS), with recursive least squares (RLS),
exponentially forgetting RLS (FFRLS), and a frozen baseline for comparison.
SWLS re-solves the windowed least-squares problem every step, anchored at
the trained estimate by a small fixed ridge:

    H = H0 + C (S + eps I)^{-1},   S = G G^T,   C = (T - H0 G) G^T

With eps fixed at init this is exactly textbook RLS while the window is still
growing, and within O(eps) of the plain windowed solution once it slides.
RLS is the same solve over a window that never slides, with the prior
1/FFRLS_P0_SCALE in place of eps. C stays in residual form: forming
T G^T - H0 S instead cancels badly.

Two paths compute these estimates:

* Streaming, `init` + `update`: the online API, one measurement at a time.
  The SWLS window lives in ring buffers, and S and C are kept up to date with
  rank-1 terms: the new column is added and the evicted one subtracted. Every
  M pushes both are recomputed exactly from the buffers, which bounds the
  cancellation drift of the downdates (Golub & Van Loan, Matrix
  Computations). RLS and FFRLS propagate the covariance P.
* Batched, inside `adapt_run`, for SWLS with eps > 0 and for RLS over a known
  trajectory. It works in chunks of BATCH_CHUNK steps: the growing windows
  (and every RLS step) take S and C from a running `cumsum`, each full
  window takes them from one matmul over a `sliding_window_view` of its M
  pairs (exact per window, no downdates), and one batched solve gives the
  chunk's estimates. It agrees with streaming to rounding.

FFRLS keeps the P-form recursion: it winds up at lambda < 1, so its
information form would change its outputs, not only their rounding. Inside
`adapt_run`, FFRLS and SWLS with eps = 0 (min-norm lstsq) do not call
`update`: a lean loop steps the same kernels (`_rls_step`; `_push` and
`_solve_window`) on the run's checked inputs, bit for bit. When the windup
overflows P, both `update` and `adapt_run` raise LinAlgError naming the
first non-finite step.

An adapter is strictly sequential and single-owner; run one per stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .koopman import (KoopmanModel, check_sample_time, lift,
                      one_step_predictions)
from .vehicle import Trajectory, write_rows

MODES = ("SWLS", "RLS", "FFRLS", "frozen")

FFRLS_P0_SCALE = 1e4
# Steps per batched solve in `adapt_run`. Small chunks keep the per-chunk
# regressors, window Grams and their solve in cache and bound the RSS.
BATCH_CHUNK = 64
ESTIMATE_HISTORY_HEADER = "k,frob_dA,frob_dB,cond_gram"
PREDICTIONS_HEADER = "pred_Vx,pred_Vy,pred_wr,true_Vx,true_Vy,true_wr"


@dataclass(frozen=True)
class AdapterConfig:
    mode: str = "SWLS"
    window: int = 100            # M, steps
    forgetting: float = 1.0      # lambda in (0, 1]
    eps_reg: float | None = None  # None -> 1e-8 * trace(seed Gram)/dim; 0 -> min-norm lstsq

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.window < 1:
            raise ValueError("window length must be >= 1")
        if not (0.0 < self.forgetting <= 1.0):
            raise ValueError("forgetting factor must be in (0, 1]")
        if self.eps_reg is not None and self.eps_reg < 0:
            raise ValueError("eps_reg must be non-negative")


class AdapterState:
    """Estimator state; mutate only through `update`.

    SWLS keeps its window in ring buffers whose capacity grows geometrically
    up to M, so a huge M costs memory only for the pairs actually pushed.
    RLS/FFRLS keep the covariance `P` and no window; frozen keeps neither.
    """

    def __init__(self, h0: np.ndarray, z0: np.ndarray, u0: np.ndarray,
                 config: AdapterConfig):
        self.config = config
        self.zdim = z0.shape[0]
        self.udim = u0.shape[0]
        self.gdim = self.zdim + self.udim
        if h0.shape != (self.zdim, self.gdim):
            raise ValueError("[A B] estimate shape mismatch")
        self.h_est = h0.copy()
        self.h_init = h0.copy()
        self.z_prev = np.asarray(z0, dtype=np.float64).copy()
        self.u_seed = np.asarray(u0, dtype=np.float64).copy()
        self.k = 0
        self._fill = 0
        self._regressors = np.empty((self.gdim, 0))   # G, ring order
        self._targets = np.empty((self.zdim, 0))      # T, same columns
        self._gram = np.zeros((self.gdim, self.gdim))
        self._cross = np.zeros((self.zdim, self.gdim))

        g0 = np.concatenate((self.z_prev, self.u_seed))
        if config.eps_reg is None:
            self.eps = 1e-8 * float(np.trace(np.outer(g0, g0))) / self.gdim
        else:
            self.eps = float(config.eps_reg)
        self._ridge = self.eps * np.eye(self.gdim)
        recursive = config.mode in ("RLS", "FFRLS")
        self.P = FFRLS_P0_SCALE * np.eye(self.gdim) if recursive else None
        self._work = np.empty((self.gdim, self.gdim)) if recursive else None

    # --- exposed histories --------------------------------------------------
    @property
    def window_fill(self) -> int:
        """Completed pairs held: min(k, M) for SWLS, 0 for the other modes."""
        return self._fill

    # Views of the window in ring-storage order (not chronological); the
    # least-squares fit does not depend on the column order.
    @property
    def Psi(self) -> np.ndarray:
        """Lifted-state regressor columns of the completed window pairs."""
        return self._regressors[:self.zdim, :self._fill]

    @property
    def Uhist(self) -> np.ndarray:
        return self._regressors[self.zdim:, :self._fill]

    @property
    def Ztargets(self) -> np.ndarray:
        return self._targets[:, :self._fill]

    @property
    def A_k(self) -> np.ndarray:
        return self.h_est[:, :self.zdim]

    @property
    def B_k(self) -> np.ndarray:
        return self.h_est[:, self.zdim:]

    def window_gram(self) -> np.ndarray:
        """S = G G^T of the current window (a copy)."""
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
    if A0.shape[0] != A0.shape[1] or A0.shape[0] != z0.shape[0]:
        raise ValueError("A0 must be square and match the lifted dim")
    if B0.shape != (z0.shape[0], u0.shape[0]):
        raise ValueError("B0 must map inputs to the lifted dim")
    return AdapterState(np.hstack((A0, B0)), z0, u0, config)


def _solve_window(state: AdapterState) -> None:
    if state.eps > 0.0:
        gram = state._gram + state._ridge
        try:
            corr = np.linalg.solve(gram, state._cross.T).T
        except np.linalg.LinAlgError:
            corr = state._cross @ np.linalg.pinv(gram)
        h_new = state.h_init + corr
    else:
        # pseudo-inverse path: plain min-norm windowed LS via SVD
        h_new = np.linalg.lstsq(state._regressors[:, :state._fill].T,
                                state._targets[:, :state._fill].T,
                                rcond=None)[0].T
    if not np.isfinite(h_new).all():
        raise _singular(state._gram, state.eps)
    state.h_est = h_new


def _singular(gram: np.ndarray, eps: float) -> np.linalg.LinAlgError:
    cond = float(np.linalg.cond(gram))
    return np.linalg.LinAlgError(
        f"singular window Gram (cond~{cond:.3g}) with eps_reg={eps}")


def _rls_step(h: np.ndarray, p: np.ndarray, g: np.ndarray,
              residual: np.ndarray, lam: float, work: np.ndarray) -> None:
    """One P-form RLS step on H and P, in place, with `residual` = target - H g:

        pg = P g,  gain = pg / (lam + g^T pg),  H += residual gain^T,
        P' = (P - gain pg^T) / lam,  P = (P' + P'^T) / 2

    `work` is scratch of P's shape that holds P'.
    """
    pg = p.dot(g)
    gain = pg / (lam + g.dot(pg))
    h += residual[:, None] * gain
    np.multiply(gain[:, None], pg, out=work)
    np.subtract(p, work, out=work)
    np.divide(work, lam, out=work)
    np.add(work, work.T, out=p)
    np.multiply(p, 0.5, out=p)


def _forgetting(config: AdapterConfig) -> float:
    return 1.0 if config.mode == "RLS" else config.forgetting


def update(state: AdapterState, z_k: np.ndarray,
           u_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold in the measurement z_k (driven by u_prev); returns (A_k, B_k).

    The completed pair (z_{k-1}, u_prev) -> z_k enters the SWLS window,
    evicting the oldest pair once the window holds M of them. RLS and FFRLS
    (lambda=1 reduces FFRLS to RLS) fold it into the recursive estimate.
    Raises LinAlgError when the estimate or P turns non-finite (the P-form
    windup of FFRLS); the state is then spent.
    """
    z_k = np.asarray(z_k, dtype=np.float64).ravel()
    u_prev = np.asarray(u_prev, dtype=np.float64).ravel()
    if z_k.shape[0] != state.zdim or u_prev.shape[0] != state.udim:
        raise ValueError("lifted/input dim mismatch")
    if not (np.isfinite(z_k).all() and np.isfinite(u_prev).all()):
        raise ValueError("non-finite measurement")
    g = np.concatenate((state.z_prev, u_prev))
    mode = state.config.mode
    if mode == "SWLS":
        state._push(g, z_k)
        _solve_window(state)
    elif mode != "frozen":
        lam = _forgetting(state.config)
        _rls_step(state.h_est, state.P, g, z_k - state.h_est.dot(g), lam,
                  state._work)
        if not (np.isfinite(state.h_est).all() and np.isfinite(state.P).all()):
            raise np.linalg.LinAlgError(
                f"non-finite {mode} estimate at step {state.k + 1} "
                f"(covariance windup, forgetting={lam})")
    state.z_prev = z_k
    state.k += 1
    return state.A_k.copy(), state.B_k.copy()


# ---------------------------------------------------------------------------
# runs over known trajectories

@dataclass
class AdaptRunResult:
    predictions: np.ndarray   # (K-1, n) physical one-step predictions for steps 1..K-1
    truth: np.ndarray         # (K-1, n) measured states at those steps
    drift_a: np.ndarray       # ||A_k - A_0||_F after each step
    drift_b: np.ndarray
    cond_gram: np.ndarray
    final_A: np.ndarray
    final_B: np.ndarray
    config: AdapterConfig


def _frobenius(diff: np.ndarray) -> float:
    """Frobenius norm, computed as np.linalg.norm does, without its dispatch."""
    flat = diff.ravel()
    return math.sqrt(flat.dot(flat))


def _sym_cond(gram: np.ndarray) -> np.ndarray:
    """Condition number of each symmetric matrix in `gram`; inf if singular."""
    ev = np.linalg.eigvalsh(gram)
    lo, hi = ev[..., 0], ev[..., -1]
    return np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0.0)


def _running_sum(carry: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """carry + cumsum(terms), added left to right as the rank-1 updates are."""
    out = np.concatenate((carry[None], terms))
    return np.cumsum(out, axis=0, out=out)[1:]


def _streamed(state: AdapterState, z_all: np.ndarray, un: np.ndarray, n: int):
    """FFRLS, and SWLS with eps = 0, one step at a time; returns (preds_n,
    drift_a, drift_b, cond, H).

    It runs the kernels of `update` on inputs that `adapt_run` has already
    checked, without its per-step conversions, checks and copies, so it
    computes the same operations in the same order, bit for bit. Raises
    LinAlgError at the first step where `update` would.
    """
    steps = z_all.shape[0] - 1
    zdim = state.zdim
    a0 = state.A_k.copy()
    b0 = state.B_k.copy()
    g_all = np.concatenate((z_all[:-1], un[:-1]), axis=1)
    preds_n = np.empty((steps, n))
    drift_a = np.empty(steps)
    drift_b = np.empty(steps)
    cond = np.full(steps, np.nan)
    windowed = state.config.mode == "SWLS"
    lam = _forgetting(state.config)
    for k in range(1, steps + 1):
        g = g_all[k - 1]
        z_hat = state.h_est.dot(g)
        preds_n[k - 1] = z_hat[:n]
        if windowed:
            state._push(g, z_all[k])
            _solve_window(state)
            cond[k - 1] = _sym_cond(state._gram)
        else:
            _rls_step(state.h_est, state.P, g, z_all[k] - z_hat, lam,
                      state._work)
        state.k += 1
        drift_a[k - 1] = _frobenius(state.h_est[:, :zdim] - a0)
        drift_b[k - 1] = _frobenius(state.h_est[:, zdim:] - b0)
    if not (windowed or (np.isfinite(state.h_est).all()
                         and np.isfinite(state.P).all())):
        # Non-finite values persist once they appear, so one check of the
        # end state suffices; replaying through `update` names the step.
        replay = init(a0, b0, z_all[0], un[0], state.config)
        for k in range(1, steps + 1):
            update(replay, z_all[k], un[k - 1])
    return preds_n, drift_a, drift_b, cond, state.h_est


def _batched(h0: np.ndarray, z_all: np.ndarray, un: np.ndarray, n: int,
             config: AdapterConfig, reg: float):
    """SWLS and RLS estimates of every step, BATCH_CHUNK steps per solve.

    Pair j is (g_j, z_{j+1}) with g_j = [z_j; u_j]. Its estimate is
    H0 + C_j (S_j + reg I)^{-1} over the pairs [max(0, j-M+1), j] for SWLS
    and [0, j] for RLS. Returns (preds_n, drift_a, drift_b, cond, H) like
    `_streamed`.
    """
    zdim, gdim = h0.shape
    steps = z_all.shape[0] - 1
    windowed = config.mode == "SWLS"
    m = config.window
    grow_end = min(m - 1, steps) if windowed else steps   # first full window
    ridge = reg * np.eye(gdim)
    preds_n = np.empty((steps, n))
    drift_a = np.empty(steps)
    drift_b = np.empty(steps)
    cond = np.full(steps, np.nan)
    h_prev = h0
    gram_sum = np.zeros((gdim, gdim))
    cross_t_sum = np.zeros((gdim, zdim))
    for c0 in range(0, steps, BATCH_CHUNK):
        c1 = min(c0 + BATCH_CHUNK, steps)
        f0 = max(c0, grow_end)
        lo = f0 - m + 1 if f0 < c1 else c0   # oldest pair a window here reads
        g = np.concatenate((z_all[lo:c1], un[lo:c1]), axis=1)
        r = z_all[lo + 1:c1 + 1] - g @ h0.T
        gram = np.empty((c1 - c0, gdim, gdim))
        cross_t = np.empty((c1 - c0, gdim, zdim))   # C^T, laid out for the solve
        grown = min(f0, c1) - c0
        if grown > 0:      # windows still growing: running sums
            gg = g[c0 - lo:c0 - lo + grown]
            rr = r[c0 - lo:c0 - lo + grown]
            gram[:grown] = _running_sum(gram_sum, gg[:, :, None] * gg[:, None, :])
            cross_t[:grown] = _running_sum(cross_t_sum, gg[:, :, None] * rr[:, None, :])
            gram_sum, cross_t_sum = gram[grown - 1], cross_t[grown - 1]
        if grown < c1 - c0:   # full windows: one product over M pairs each
            gw = sliding_window_view(g, m, axis=0)   # (windows, gdim, M)
            np.matmul(gw, gw.mT, out=gram[grown:])
            np.matmul(gw, sliding_window_view(r, m, axis=0).mT, out=cross_t[grown:])
        lhs = gram + ridge
        try:
            corr = np.linalg.solve(lhs, cross_t).mT
        except np.linalg.LinAlgError:
            corr = (np.linalg.pinv(lhs) @ cross_t).mT
        finite = np.isfinite(corr).all(axis=(1, 2))
        if not finite.all():
            raise _singular(gram[np.argmin(finite)], reg)
        h = h0 + corr
        h_before = np.concatenate((h_prev[None], h[:-1]))
        preds_n[c0:c1] = (h_before[:, :n] @ g[c0 - lo:, :, None])[:, :, 0]
        drift_a[c0:c1] = np.linalg.norm(corr[:, :, :zdim], axis=(1, 2))
        drift_b[c0:c1] = np.linalg.norm(corr[:, :, zdim:], axis=(1, 2))
        if windowed:
            cond[c0:c1] = _sym_cond(gram)
        h_prev = h[-1]
    return preds_n, drift_a, drift_b, cond, h_prev


def adapt_run(model: KoopmanModel, trajectory: Trajectory,
              config: AdapterConfig) -> AdaptRunResult:
    """Run a trajectory through lift -> predict -> update.

    Each step k is predicted from the estimate that has only seen data through
    k-1, then the measurement at k updates the estimate. SWLS with eps > 0
    and RLS take the batched path; FFRLS and SWLS with eps = 0 step the
    kernels of `update` one step at a time, bit for bit. Frozen mode
    delegates to the vectorized one-step rollout, so it matches it bit for
    bit. `cond_gram` is the condition number of the window Gram for SWLS
    and NaN for the modes that keep no window. Raises ValueError on a
    sample-time mismatch or a non-finite measurement, and LinAlgError on a
    singular window or a non-finite RLS/FFRLS estimate.
    """
    n_snap = len(trajectory)
    if n_snap < 2:
        raise ValueError("trajectory too short to adapt over")
    check_sample_time(model, trajectory)
    if not (np.isfinite(trajectory.states).all()
            and np.isfinite(trajectory.inputs).all()):
        raise ValueError("non-finite measurement")
    n = model.dims.n
    truth = trajectory.states[1:].copy()
    if config.mode == "frozen":
        preds = one_step_predictions(model, trajectory.states[:-1],
                                     trajectory.inputs[:-1])
        zeros = np.zeros(n_snap - 1)
        return AdaptRunResult(predictions=preds, truth=truth, drift_a=zeros,
                              drift_b=zeros.copy(),
                              cond_gram=np.full(n_snap - 1, np.nan),
                              final_A=model.A.copy(), final_B=model.B.copy(),
                              config=config)

    xn = model.normalize_states(trajectory.states)
    un = model.normalize_inputs(trajectory.inputs)
    z_all = lift(model, xn)
    if not np.isfinite(z_all).all():
        raise ValueError("non-finite measurement")
    state = init(model.A, model.B, z_all[0], un[0], config)
    if config.mode == "RLS":
        out = _batched(state.h_init, z_all, un, n, config, 1.0 / FFRLS_P0_SCALE)
    elif config.mode == "SWLS" and state.eps > 0.0:
        out = _batched(state.h_init, z_all, un, n, config, state.eps)
    else:
        out = _streamed(state, z_all, un, n)
    preds_n, drift_a, drift_b, cond, h_end = out
    zdim = z_all.shape[1]
    return AdaptRunResult(predictions=model.denormalize_states(preds_n),
                          truth=truth, drift_a=drift_a, drift_b=drift_b,
                          cond_gram=cond, final_A=h_end[:, :zdim].copy(),
                          final_B=h_end[:, zdim:].copy(), config=config)


def write_estimate_history(path, result: AdaptRunResult) -> None:
    """Columnar diagnostics dump: k,frob_dA,frob_dB,cond_gram."""
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
