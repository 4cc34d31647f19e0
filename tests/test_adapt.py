import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from koopcar import adapt
from koopcar.adapt import (BATCH_CHUNK, FFRLS_P0_SCALE, AdapterConfig,
                           adapt_run, init, update, write_estimate_history,
                           write_predictions)
from koopcar.koopman import lift, one_step_predictions
from koopcar.scenarios import make_scenario, run_scenario
from koopcar.vehicle import Trajectory

ZDIM, UDIM = 15, 2
GDIM = ZDIM + UDIM


def random_system(seed, zdim=ZDIM, udim=UDIM, radius=0.9):
    """Dense stable system; near-scalar dynamics would make the window Gram
    ill-conditioned and the windowed LS problem ill-posed."""
    rng = np.random.default_rng(seed)
    a_true = rng.normal(size=(zdim, zdim))
    a_true *= radius / np.abs(np.linalg.eigvals(a_true)).max()
    b_true = rng.normal(size=(zdim, udim))
    return a_true, b_true, rng


def stream(a_true, b_true, rng, steps):
    z = np.empty((steps, a_true.shape[0]))
    z[0] = rng.normal(size=a_true.shape[0])
    u = rng.normal(size=(steps, b_true.shape[1]))
    for k in range(steps - 1):
        z[k + 1] = a_true @ z[k] + b_true @ u[k]
    return z, u


def fresh_state(a0, b0, z, u, **kw):
    return init(a0, b0, z[0], u[0], AdapterConfig(**kw))


# ---------------------------------------------------------------------------
# init

def test_init_keeps_seed_estimates():
    a_true, b_true, rng = random_system(0)
    z, u = stream(a_true, b_true, rng, 3)
    st = fresh_state(a_true, b_true, z, u, mode="SWLS", window=10)
    assert np.array_equal(st.A_k, a_true)
    assert np.array_equal(st.B_k, b_true)
    assert st.k == 0
    assert st.window_fill == 0
    assert np.array_equal(st.z_prev, z[0])  # pending regressor column


def test_init_validates_shapes():
    with pytest.raises(ValueError):
        init(np.eye(3), np.zeros((4, 2)), np.zeros(3), np.zeros(2),
             AdapterConfig())
    with pytest.raises(ValueError):
        AdapterConfig(mode="nope")
    with pytest.raises(ValueError, match="^window length must be >= 1, got 0$"):
        AdapterConfig(window=0)
    for mode in ("RLS", "FFRLS", "frozen"):   # only SWLS reads the window
        assert AdapterConfig(mode=mode, window=0).window == 0
    with pytest.raises(ValueError):
        AdapterConfig(forgetting=0.0)


def test_each_mode_has_one_forgetting_factor_and_ridge():
    k = np.arange(1, 4)
    ffrls = AdapterConfig(mode="FFRLS", forgetting=0.5)
    assert AdapterConfig().forgetting == 0.95
    assert [adapt._lam(AdapterConfig(mode=m, forgetting=0.5))
            for m in ("SWLS", "RLS", "FFRLS")] == [1.0, 1.0, 0.5]
    assert np.array_equal(adapt._ridge(AdapterConfig(mode="SWLS"), 1e-3, k),
                          [1e-3] * 3)
    assert np.array_equal(adapt._ridge(AdapterConfig(mode="RLS", forgetting=0.5),
                                       1e-3, k), [1 / FFRLS_P0_SCALE] * 3)
    assert np.array_equal(adapt._ridge(ffrls, 1e-3, k),
                          0.5 ** k / FFRLS_P0_SCALE)
    # the decayed prior stops at the smallest normal float
    assert adapt._ridge(ffrls, 1e-3, 5000) == np.finfo(np.float64).tiny


def test_auto_eps_rule():
    a_true, b_true, rng = random_system(1)
    z, u = stream(a_true, b_true, rng, 3)
    g0 = np.concatenate((z[0], u[0]))
    st = fresh_state(a_true, b_true, z, u, mode="SWLS")
    assert st.eps == adapt._eps(st.config, g0)
    assert st.eps == pytest.approx(1e-8 * (g0 @ g0) / GDIM, rel=1e-12)
    assert adapt._eps(AdapterConfig(eps_reg=0.0), g0) == 0.0


@pytest.mark.parametrize("mode, eps_reg, steps", [
    ("SWLS", 0.0, True), ("SWLS", None, False), ("SWLS", 1e-3, False),
    ("RLS", None, False), ("FFRLS", None, False), ("frozen", None, False)])
def test_adapt_run_builds_a_state_only_to_step_update(monkeypatch, quick_model,
                                                      mode, eps_reg, steps):
    built = []
    monkeypatch.setattr(adapt, "init", lambda *a: built.append(a) or init(*a))
    adapt_run(quick_model, run_scenario(make_scenario("mixed", duration=5.0)),
              AdapterConfig(mode=mode, window=20, eps_reg=eps_reg))
    assert len(built) == int(steps)


# ---------------------------------------------------------------------------
# SWLS streaming vs oracles

def test_swls_recovers_true_system_after_window_fills():
    a_true, b_true, rng = random_system(3)
    z, u = stream(a_true, b_true, rng, 160)
    a0 = np.eye(ZDIM)
    b0 = np.zeros((ZDIM, UDIM))
    st = fresh_state(a0, b0, z, u, mode="SWLS", window=100, eps_reg=0.0)
    for k in range(1, 130):
        a_k, b_k = update(st, z[k], u[k - 1])
    assert np.abs(a_k - a_true).max() < 1e-8
    assert np.abs(b_k - b_true).max() < 1e-8


def test_window_discipline_and_eviction():
    a_true, b_true, rng = random_system(5)
    window = 40
    z, u = stream(a_true, b_true, rng, 120)
    st = fresh_state(np.eye(ZDIM), np.zeros((ZDIM, UDIM)), z, u,
                     mode="SWLS", window=window, eps_reg=0.0)
    for k in range(1, 120):
        update(st, z[k], u[k - 1])
        assert st.window_fill == min(k, window)
    # evicted data has zero influence: re-solve from the last `window` pairs
    lo = len(z) - 1 - window
    g_mat = np.vstack((z[lo:-1].T, u[lo:-1].T))
    h_window = np.linalg.lstsq(g_mat.T, z[lo + 1:], rcond=None)[0].T
    assert np.abs(np.hstack((st.A_k, st.B_k)) - h_window).max() < 1e-10


def test_window_views_resolve_ridge_estimate():
    # auto eps: the up/downdated solve equals a fresh ridge solve of the views
    a_true, b_true, rng = random_system(5)
    window = 40
    z, u = stream(a_true, b_true, rng, 130)
    h0 = np.hstack((np.eye(ZDIM), np.zeros((ZDIM, UDIM))))
    st = fresh_state(h0[:, :ZDIM], h0[:, ZDIM:], z, u, mode="SWLS",
                     window=window)
    for k in range(1, 130):   # ends between two exact recomputes
        update(st, z[k], u[k - 1])
    lo = len(z) - 1 - window
    g_mat = np.vstack((z[lo:-1].T, u[lo:-1].T))
    resid = z[lo + 1:].T - h0 @ g_mat
    gram = g_mat @ g_mat.T + st.eps * np.eye(GDIM)
    h_window = h0 + np.linalg.solve(gram, (resid @ g_mat.T).T).T
    assert np.abs(np.hstack((st.A_k, st.B_k)) - h_window).max() < 1e-10


def test_maintained_gram_and_cross_match_recompute():
    # up/downdated S and C against a from-scratch recompute of the true
    # (chronological) window, over 12 window lengths of a drifting stream
    a_true, b_true, rng = random_system(16)
    window, steps = 25, 300
    z = np.empty((steps, ZDIM))
    z[0] = rng.normal(size=ZDIM)
    u = rng.normal(size=(steps, UDIM)) * np.linspace(1.0, 20.0, steps)[:, None]
    for k in range(steps - 1):
        drift = 1.0 + 0.1 * k / steps   # spectral radius 0.9 -> 0.99
        z[k + 1] = drift * a_true @ z[k] + b_true @ u[k]
    h0 = np.hstack((0.5 * np.eye(ZDIM), np.zeros((ZDIM, UDIM))))
    st = fresh_state(h0[:, :ZDIM], h0[:, ZDIM:], z, u, mode="SWLS",
                     window=window)
    assert st.eps > 0.0
    worst_s = worst_c = 0.0
    for k in range(1, steps):
        update(st, z[k], u[k - 1])
        lo = max(0, k - window)
        g_mat = np.vstack((z[lo:k].T, u[lo:k].T))
        s_ref = g_mat @ g_mat.T
        c_ref = (z[lo + 1:k + 1].T - h0 @ g_mat) @ g_mat.T
        worst_s = max(worst_s, np.abs(st.window_gram() - s_ref).max()
                      / np.abs(s_ref).max())
        worst_c = max(worst_c, np.abs(st._cross - c_ref).max()
                      / np.abs(c_ref).max())
    assert worst_s < 1e-10
    assert worst_c < 1e-10


def test_huge_window_buffer_grows_with_the_pushed_pairs():
    # a window of 10**9 must not be allocated up front
    a_true, b_true, rng = random_system(17)
    z, u = stream(a_true, b_true, rng, 1001)
    st = fresh_state(np.eye(ZDIM), np.zeros((ZDIM, UDIM)), z, u,
                     mode="SWLS", window=10 ** 9, eps_reg=1e-2)
    for k in range(1, 1001):
        update(st, z[k], u[k - 1])
        assert st.window_fill == k
        assert st._regressors.shape[1] <= 2 * k
        assert st._targets.shape[1] <= 2 * k


def test_frozen_mode_never_moves():
    a_true, b_true, rng = random_system(7)
    z, u = stream(a_true, b_true, rng, 50)
    st = fresh_state(np.eye(ZDIM), np.zeros((ZDIM, UDIM)), z, u, mode="frozen")
    for k in range(1, 50):
        a_k, b_k = update(st, z[k], u[k - 1])
    assert np.array_equal(a_k, np.eye(ZDIM))
    assert np.array_equal(b_k, np.zeros((ZDIM, UDIM)))


def test_update_validates_measurements():
    a_true, b_true, rng = random_system(9)
    z, u = stream(a_true, b_true, rng, 4)
    st = fresh_state(a_true, b_true, z, u, mode="SWLS", window=10)
    with pytest.raises(ValueError):
        update(st, np.full(ZDIM, np.nan), u[0])
    with pytest.raises(ValueError):
        update(st, np.zeros(ZDIM + 1), u[0])


# ---------------------------------------------------------------------------
# RLS / FFRLS

def test_ffrls_with_unit_lambda_equals_rls_mode():
    a_true, b_true, rng = random_system(10)
    z, u = stream(a_true, b_true, rng, 300)
    a0 = np.eye(ZDIM)
    b0 = np.zeros((ZDIM, UDIM))
    st_rls = fresh_state(a0, b0, z, u, mode="RLS")
    st_ff = fresh_state(a0, b0, z, u, mode="FFRLS", forgetting=1.0)
    for k in range(1, 300):
        a_r, b_r = update(st_rls, z[k], u[k - 1])
        a_f, b_f = update(st_ff, z[k], u[k - 1])
        assert np.array_equal(a_r, a_f)
        assert np.array_equal(b_r, b_f)


def test_ffrls_constant_stream_converges_to_consistency():
    rng = np.random.default_rng(11)
    z_fix = rng.normal(size=ZDIM)
    u_fix = rng.normal(size=UDIM)
    target = rng.normal(size=ZDIM)
    st = init(np.zeros((ZDIM, ZDIM)), np.zeros((ZDIM, UDIM)), z_fix, u_fix,
              AdapterConfig(mode="FFRLS", forgetting=0.98))
    g = np.concatenate((z_fix, u_fix))
    for _ in range(400):
        st.z_prev = z_fix  # replay the same regressor/target equation
        update(st, target, u_fix)
        st.z_prev = z_fix
    residual = target - st.h_est @ g
    assert np.linalg.norm(residual) < 1e-8


def test_forgetting_tracks_plant_switch_faster():
    a_1, b_1, rng = random_system(12)
    a_2 = -a_1
    steps, switch = 1100, 500

    def first_hit(lam):
        z = np.empty((steps, ZDIM))
        z[0] = rng_run.normal(size=ZDIM)
        u = rng_run.normal(size=(steps, UDIM))
        st = init(np.zeros((ZDIM, ZDIM)), np.zeros((ZDIM, UDIM)), z[0], u[0],
                  AdapterConfig(mode="FFRLS", forgetting=lam))
        hit = None
        for k in range(steps - 1):
            a_cur = a_1 if k < switch else a_2
            z[k + 1] = a_cur @ z[k] + b_1 @ u[k]
            a_k, _ = update(st, z[k + 1], u[k])
            if k >= switch and hit is None:
                if np.abs(a_k - a_2).max() < 1e-3:
                    hit = k - switch
        return hit if hit is not None else steps

    rng_run = np.random.default_rng(13)
    slow = first_hit(1.0)
    rng_run = np.random.default_rng(13)
    fast = first_hit(0.95)
    assert fast < slow


@pytest.mark.parametrize("lam", [0.95, 0.98])
def test_ffrls_matches_textbook_covariance_recursion(lam):
    # independently coded P-form FFRLS from P0 = FFRLS_P0_SCALE I, which the
    # information form of `update` equals in exact arithmetic
    z, u = noisy_stream(14, 1000)
    h0 = np.hstack((0.5 * np.eye(ZDIM), np.zeros((ZDIM, UDIM))))
    st = fresh_state(h0[:, :ZDIM], h0[:, ZDIM:], z, u, mode="FFRLS",
                     forgetting=lam)
    h_rls = h0.copy()
    p_rls = FFRLS_P0_SCALE * np.eye(GDIM)
    worst = 0.0
    for k in range(1, len(z)):
        a_k, b_k = update(st, z[k], u[k - 1])
        g = np.concatenate((z[k - 1], u[k - 1]))
        pg = p_rls @ g
        gain = pg / (lam + g @ pg)
        h_rls = h_rls + np.outer(z[k] - h_rls @ g, gain)
        p_rls = (p_rls - np.outer(gain, pg)) / lam
        p_rls = 0.5 * (p_rls + p_rls.T)
        worst = max(worst, np.abs(np.hstack((a_k, b_k)) - h_rls).max())
    assert worst < 1e-8


def test_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        AdapterConfig(mode="FFRLS", forgetting=-0.5)
    with pytest.raises(ValueError):
        AdapterConfig(mode="FFRLS", forgetting=1.5)


def test_m_equals_one_window_documented_behavior():
    # Remark-2 edge: a one-column window is rank deficient; under ridge the
    # estimate stays finite and fits the newest pair approximately
    a_true, b_true, rng = random_system(15)
    z, u = stream(a_true, b_true, rng, 60)
    st = fresh_state(np.zeros((ZDIM, ZDIM)), np.zeros((ZDIM, UDIM)), z, u,
                     mode="SWLS", window=1, eps_reg=1e-10)
    for k in range(1, 60):
        a_k, b_k = update(st, z[k], u[k - 1])
        assert st.window_fill == 1
        assert np.all(np.isfinite(a_k))
    g = np.concatenate((z[-2], u[-2]))
    fit = st.h_est @ g
    # newest pair is fit well along its own regressor direction
    assert np.linalg.norm(fit - z[-1]) < 1e-3 * np.linalg.norm(g)


# ---------------------------------------------------------------------------
# adapt_run over trajectories

@pytest.fixture(scope="module")
def heavy_mixed():
    """60 s mixed run of a plant 160 kg heavier than the training one."""
    return run_scenario(make_scenario("mixed", duration=60.0, dm=160.0))


def test_adapt_run_frozen_identity(short_mixed, quick_model):
    res = adapt_run(quick_model, short_mixed, AdapterConfig(mode="frozen"),
                    diagnostics=True)
    direct = one_step_predictions(quick_model, short_mixed.states[:-1],
                                  short_mixed.inputs[:-1])
    assert np.array_equal(res.predictions, direct)
    assert np.all(res.drift_a == 0.0)


def test_adapt_run_swls_not_worse_on_training_plant(short_mixed, quick_model):
    frozen = adapt_run(quick_model, short_mixed, AdapterConfig(mode="frozen"))
    swls = adapt_run(quick_model, short_mixed,
                     AdapterConfig(mode="SWLS", window=100))
    rmse_frozen = np.sqrt(np.mean((frozen.predictions - frozen.truth) ** 2, axis=0))
    rmse_swls = np.sqrt(np.mean((swls.predictions - swls.truth) ** 2, axis=0))
    assert np.all(rmse_swls <= rmse_frozen)


def test_adapt_run_swls_beats_frozen_on_perturbed_plant(quick_model, heavy_mixed):
    frozen = adapt_run(quick_model, heavy_mixed, AdapterConfig(mode="frozen"))
    swls = adapt_run(quick_model, heavy_mixed,
                     AdapterConfig(mode="SWLS", window=100))
    rmse_frozen = np.sqrt(np.mean((frozen.predictions - frozen.truth) ** 2, axis=0))
    rmse_swls = np.sqrt(np.mean((swls.predictions - swls.truth) ** 2, axis=0))
    assert np.all(rmse_swls < rmse_frozen)


def test_adapt_run_reports_drift_and_conditioning(short_mixed, quick_model):
    res = adapt_run(quick_model, short_mixed,
                    AdapterConfig(mode="SWLS", window=50), diagnostics=True)
    n = len(short_mixed) - 1
    assert res.predictions.shape == (n, 3)
    assert res.drift_a.shape == (n,) and res.drift_b.shape == (n,)
    assert np.all(np.isfinite(res.drift_a))
    assert res.drift_a[-1] > 0.0  # the estimate really moved
    assert np.all(res.cond_gram[1:] >= 1.0)


@pytest.mark.parametrize("mode", ["RLS", "FFRLS", "frozen"])
def test_adapt_run_cond_gram_nan_without_window(short_mixed, quick_model, mode):
    res = adapt_run(quick_model, short_mixed,
                    AdapterConfig(mode=mode, forgetting=0.98), diagnostics=True)
    assert res.cond_gram.shape == (len(short_mixed) - 1,)
    assert np.all(np.isnan(res.cond_gram))
    assert np.all(np.isfinite(res.drift_a))


@pytest.mark.parametrize("mode", ["SWLS", "frozen"])
def test_adapt_run_rejects_sample_time_mismatch(quick_model, mode):
    coarse = run_scenario(make_scenario("mixed", duration=5.0,
                                        dt=2.0 * quick_model.dt))
    with pytest.raises(ValueError, match="sample time"):
        adapt_run(quick_model, coarse, AdapterConfig(mode=mode))


def test_predictions_file_is_the_savetxt_output(tmp_path, short_mixed,
                                               quick_model):
    res = adapt_run(quick_model, short_mixed,
                    AdapterConfig(mode="SWLS", window=50))
    preds = res.predictions.copy()
    preds[:6, 0] = (-0.0, 1e-300, -1e300, 5e-324, np.nan, -np.inf)
    res = dataclasses.replace(res, predictions=preds)
    path = tmp_path / "pred.csv"
    write_predictions(path, res)
    ref = tmp_path / "ref.csv"
    np.savetxt(ref, np.column_stack((res.predictions, res.truth)),
               delimiter=",", fmt="%.17g",
               header="pred_Vx,pred_Vy,pred_wr,true_Vx,true_Vy,true_wr",
               comments="")
    assert path.read_bytes() == ref.read_bytes()


def test_estimate_history_dump_format(tmp_path, short_mixed, quick_model):
    res = adapt_run(quick_model, short_mixed,
                    AdapterConfig(mode="SWLS", window=50), diagnostics=True)
    path = tmp_path / "hist.csv"
    write_estimate_history(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,frob_dA,frob_dB,cond_gram"
    assert len(lines) == len(short_mixed)  # header + one row per step
    first = lines[1].split(",")
    assert first[0] == "1" and len(first) == 4


@pytest.mark.parametrize("mode", ["SWLS", "RLS", "FFRLS", "frozen"])
def test_estimate_history_needs_diagnostics(tmp_path, short_mixed, quick_model,
                                            mode):
    res = adapt_run(quick_model, short_mixed, AdapterConfig(mode=mode))
    assert res.drift_a is None and res.cond_gram is None
    with pytest.raises(ValueError, match="diagnostics"):
        write_estimate_history(tmp_path / "hist.csv", res)
    assert not (tmp_path / "hist.csv").exists()


# ---------------------------------------------------------------------------
# batched adapt_run (SWLS with eps > 0, RLS, FFRLS) against the per-step
# update loop

def stepped_run(h0, z, u, config, n):
    """The per-step `update` loop over lifted data: normalized predictions
    of rows :n, drifts and cond_gram (NaN without a window)."""
    zdim = z.shape[1]
    st = init(h0[:, :zdim], h0[:, zdim:], z[0], u[0], config)
    steps = z.shape[0] - 1
    preds = np.empty((steps, n))
    drift_a = np.empty(steps)
    drift_b = np.empty(steps)
    cond = np.full(steps, np.nan)
    for k in range(1, steps + 1):
        preds[k - 1] = (st.h_est @ np.concatenate((z[k - 1], u[k - 1])))[:n]
        a_k, b_k = update(st, z[k], u[k - 1])
        drift_a[k - 1] = np.linalg.norm(a_k - h0[:, :zdim])
        drift_b[k - 1] = np.linalg.norm(b_k - h0[:, zdim:])
        if config.mode == "SWLS":
            ev = np.linalg.eigvalsh(st.window_gram())
            cond[k - 1] = ev[-1] / ev[0] if ev[0] > 0.0 else np.inf
    return preds, drift_a, drift_b, cond


def noisy_stream(seed, steps):
    """Stable random system driven by inputs and process noise, so that every
    window of at least GDIM pairs has a well-conditioned Gram."""
    a_true, b_true, rng = random_system(seed, radius=0.5)
    z = np.empty((steps, ZDIM))
    z[0] = rng.normal(size=ZDIM)
    u = rng.normal(size=(steps, UDIM))
    w = rng.normal(size=(steps, ZDIM))
    for k in range(steps - 1):
        z[k + 1] = a_true @ z[k] + b_true @ u[k] + w[k]
    return z, u


def identity_lift_run(monkeypatch, h0, z, u, config, diagnostics=True):
    """adapt_run on a model whose lift of the states z[:, :3] is z itself
    and whose normalizers are the identity."""
    monkeypatch.setattr(adapt, "lift", lambda model, xn: z)
    same = lambda a: a  # noqa: E731
    identity = SimpleNamespace(apply=same, invert=same)
    model = SimpleNamespace(dt=0.025, A=h0[:, :ZDIM], B=h0[:, ZDIM:],
                            x_norm=identity, u_norm=identity)
    k = z.shape[0]
    trajectory = Trajectory(t=0.025 * np.arange(k), states=z[:, :3].copy(),
                            inputs=u, accels=np.zeros((k, 2)))
    return adapt_run(model, trajectory, config, diagnostics=diagnostics)


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("steps", [1, BATCH_CHUNK - 1, BATCH_CHUNK,
                                   BATCH_CHUNK + 1, 3 * BATCH_CHUNK + 7])
@pytest.mark.parametrize("mode, window, forgetting, tol", [
    pytest.param("SWLS", 1, 1.0, 1e-10, id="SWLS-1"),
    pytest.param("SWLS", 25, 1.0, 1e-10, id="SWLS-25"),
    pytest.param("SWLS", 100, 1.0, 1e-10, id="SWLS-100"),
    pytest.param("SWLS", 10 ** 6, 1.0, 1e-10, id="SWLS-1000000"),
    pytest.param("RLS", 100, 1.0, 1e-10, id="RLS-100"),
    # While fewer than GDIM pairs are in, S + R has cond ~1e6 and the prior
    # decays as 0.95^k; the per-step sums of `update` and the scaled cumsum
    # then each land up to 1.2e-10 from a 50-digit solve, and 1.3e-10 apart.
    pytest.param("FFRLS", 100, 0.95, 3e-10, id="FFRLS-0.95"),
    pytest.param("FFRLS", 100, 1.0, 1e-10, id="FFRLS-1.0"),
    # lambda^-63 overflows, so the chunks of the scaled sums shorten. With
    # S ~ sum 1e-6^(k-i) g g^T of cond ~1e96 no two roundings agree: the
    # run must only stay finite.
    pytest.param("FFRLS", 100, 1e-6, None, id="FFRLS-1e-06")])
def test_batched_run_equals_update_loop(monkeypatch, steps, mode, window,
                                        forgetting, tol):
    z, u = noisy_stream(steps, steps + 1)
    h0 = np.hstack((0.5 * np.eye(ZDIM), np.zeros((ZDIM, UDIM))))
    config = AdapterConfig(mode=mode, window=window, forgetting=forgetting,
                           eps_reg=1e-3)
    res = identity_lift_run(monkeypatch, h0, z, u, config)
    preds, drift_a, drift_b, cond = stepped_run(h0, z, u, config, 3)
    for got, ref in ((res.predictions, preds), (res.drift_a, drift_a),
                     (res.drift_b, drift_b)):
        assert np.isfinite(got).all()
        assert tol is None or rel_err(got, ref) < tol
    assert np.array_equal(res.truth, z[1:, :3])
    # the diagnostics never change the predictions
    bare = identity_lift_run(monkeypatch, h0, z, u, config, diagnostics=False)
    assert np.array_equal(bare.predictions, res.predictions)
    if mode != "SWLS":
        assert np.all(np.isnan(res.cond_gram))
    else:
        # a window of fewer than GDIM pairs is singular, its cond rounding noise
        full_rank = np.minimum(np.arange(1, steps + 1), window) >= GDIM
        if full_rank.any():
            assert rel_err(res.cond_gram[full_rank], cond[full_rank]) < 1e-10


def lifted(model, trajectory):
    un = model.u_norm.apply(trajectory.inputs)
    return lift(model, model.x_norm.apply(trajectory.states)), un


def test_batched_auto_eps_swls_matches_update_loop_on_drift_run(quick_model,
                                                               heavy_mixed):
    config = AdapterConfig(mode="SWLS", window=100)
    res = adapt_run(quick_model, heavy_mixed, config)
    z, un = lifted(quick_model, heavy_mixed)
    h0 = np.hstack((quick_model.A, quick_model.B))
    preds = quick_model.x_norm.invert(stepped_run(h0, z, un, config, 3)[0])
    assert rel_err(res.predictions, preds) < 1e-9


def test_batched_ffrls_predicts_as_the_update_loop(short_mixed, quick_model):
    # At lambda 0.95 the weighted Gram of this run has cond ~2.5e15, so the
    # estimate is fixed only in its excited directions and the two summation
    # orders leave different rounding in the rest; the predictions, which
    # use the excited directions, agree (measured 2.3e-7).
    config = AdapterConfig(mode="FFRLS", forgetting=0.95)
    res = adapt_run(quick_model, short_mixed, config, diagnostics=True)
    z, un = lifted(quick_model, short_mixed)
    h0 = np.hstack((quick_model.A, quick_model.B))
    preds = quick_model.x_norm.invert(stepped_run(h0, z, un, config, 3)[0])
    assert rel_err(res.predictions, preds) < 1e-6
    assert np.array_equal(res.truth, short_mixed.states[1:])
    for got in (res.drift_a, res.drift_b):
        assert np.isfinite(got).all()


@pytest.mark.parametrize("steps", [BATCH_CHUNK + 1, 3 * BATCH_CHUNK + 7])
@pytest.mark.parametrize("kw", [dict(mode="SWLS", window=1, eps_reg=0.0),
                                dict(mode="SWLS", window=25, eps_reg=0.0),
                                dict(mode="SWLS", window=100, eps_reg=0.0)])
def test_streamed_run_is_bitwise_the_update_loop(monkeypatch, steps, kw):
    z, u = noisy_stream(steps, steps + 1)
    h0 = np.hstack((0.5 * np.eye(ZDIM), np.zeros((ZDIM, UDIM))))
    config = AdapterConfig(**kw)
    res = identity_lift_run(monkeypatch, h0, z, u, config)
    preds, drift_a, drift_b, cond = stepped_run(h0, z, u, config, 3)
    assert np.array_equal(res.predictions, preds)
    assert np.array_equal(res.drift_a, drift_a)
    assert np.array_equal(res.drift_b, drift_b)
    assert np.array_equal(res.cond_gram, cond, equal_nan=True)


def test_streamed_run_predicts_the_same_without_diagnostics(short_mixed,
                                                             quick_model):
    config = AdapterConfig(mode="SWLS", window=25, eps_reg=0.0)
    full = adapt_run(quick_model, short_mixed, config, diagnostics=True)
    bare = adapt_run(quick_model, short_mixed, config)
    assert bare.drift_a is None and bare.cond_gram is None
    assert np.isfinite(full.drift_a).all() and full.drift_a[-1] > 0.0
    assert np.array_equal(bare.predictions, full.predictions)


def unexcited_stream(steps):
    """Regressors that excite only 3 of the 15 lifted directions and one of
    the two inputs: at lambda < 1 the covariance of the P-form grows as
    lambda^-k in the other directions."""
    rng = np.random.default_rng(3)
    z = np.zeros((steps, ZDIM))
    z[:, :3] = rng.normal(size=(steps, 3))
    u = np.zeros((steps, UDIM))
    u[:, 0] = rng.normal(size=steps)
    return z, u


def test_ffrls_unexcited_stream_stays_finite(monkeypatch):
    # the P-form overflowed near step 1,010 here; the prior 0.5^k/p0 of the
    # information form reaches the smallest normal float at about that step
    z, u = unexcited_stream(1100)
    h0 = np.hstack((0.5 * np.eye(ZDIM), np.zeros((ZDIM, UDIM))))
    config = AdapterConfig(mode="FFRLS", forgetting=0.5)
    res = identity_lift_run(monkeypatch, h0, z, u, config)
    assert np.isfinite(res.predictions).all()
    assert rel_err(res.predictions, stepped_run(h0, z, u, config, 3)[0]) < 1e-10
    # the unexcited directions keep their seed estimate in the streaming
    # reference
    st = init(h0[:, :ZDIM], h0[:, ZDIM:], z[0], u[0], config)
    for k in range(1, len(z)):
        a_k, b_k = update(st, z[k], u[k - 1])
    assert np.isfinite(a_k).all() and np.isfinite(b_k).all()
    assert np.array_equal(a_k[:, 3:], h0[:, 3:ZDIM])
    assert np.array_equal(b_k[:, 1], h0[:, ZDIM + 1])


@pytest.mark.parametrize("mode, ridge", [("SWLS", "eps_reg=0.001"),
                                         ("RLS", "1/FFRLS_P0_SCALE=0.0001"),
                                         ("FFRLS", "forgetting^k/FFRLS_P0_SCALE=9e-05")])
@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_non_finite_solve_names_mode_and_ridge(monkeypatch, mode, ridge):
    # a seed estimate this large overflows the residuals of the first pair
    z, u = noisy_stream(5, 40)
    h0 = np.full((ZDIM, GDIM), 1e308)
    config = AdapterConfig(mode=mode, forgetting=0.9, eps_reg=1e-3)
    st = init(h0[:, :ZDIM], h0[:, ZDIM:], z[0], u[0], config)
    with pytest.raises(np.linalg.LinAlgError) as online:
        update(st, z[1], u[0])
    with pytest.raises(np.linalg.LinAlgError) as run:
        identity_lift_run(monkeypatch, h0, z, u, config, diagnostics=False)
    for err in (online, run):
        assert f"non-finite {mode} estimate" in str(err.value)
        assert f"ridge {ridge})" in str(err.value)


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("mode", ["SWLS", "RLS", "FFRLS"])
@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_overflow_in_rows_no_prediction_reads_is_refused(monkeypatch, mode,
                                                         diagnostics):
    # H0 g overflows only in the lifted rows 5 onward; every prediction is
    # finite, but the estimate of those rows is not
    z, u = noisy_stream(7, 300)
    h0 = np.hstack((0.5 * np.eye(ZDIM), np.zeros((ZDIM, UDIM))))
    h0[5:] = 1e308
    config = AdapterConfig(mode=mode, eps_reg=1e-3)
    with pytest.raises(np.linalg.LinAlgError, match=f"^non-finite {mode} estimate"):
        identity_lift_run(monkeypatch, h0, z, u, config, diagnostics)


@pytest.mark.parametrize("mode", ["SWLS", "RLS", "FFRLS", "frozen"])
@pytest.mark.parametrize("column", ["states", "inputs"])
def test_adapt_run_rejects_a_non_finite_measurement(short_mixed, quick_model,
                                                    mode, column):
    bad = getattr(short_mixed, column).copy()
    bad[len(short_mixed) // 2, 1] = np.nan
    broken = dataclasses.replace(short_mixed, **{column: bad})
    with pytest.raises(ValueError, match="non-finite measurement"):
        adapt_run(quick_model, broken, AdapterConfig(mode=mode))
