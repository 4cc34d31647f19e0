import numpy as np
import pytest

from koopcar import _kernels
from koopcar.koopman import _norm_term
from koopcar.mlp import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, MlpLayout,
                         Normalizer, adam_step, init_theta)


def dense(widths, theta):
    """(forward, backward) of the `_kernels` dense passes over the network of
    these widths, called as `lift` and `_loss_and_grad` call them."""
    lay = MlpLayout.build(widths)
    args = (theta, lay.shapes, lay.w_off, lay.b_off, lay.acts)

    def forward(x):
        kept = []
        return _kernels.dense_forward(*args, x, kept), kept

    def backward(kept, gy):
        grad = np.zeros(lay.size)
        return grad, _kernels.dense_backward(*args, gy, grad, kept)

    return forward, backward


def from_arrays(layers):
    """(widths, theta) of explicit (W, b) pairs: tanh hidden layers, linear head."""
    widths = (layers[0][0].shape[1], *(w.shape[0] for w, _ in layers))
    theta = np.concatenate([x for w, b in layers for x in (w.ravel(), b)])
    return widths, theta.astype(np.float64)


def forward_of(layers, x):
    return dense(*from_arrays(layers))[0](x[None])[0][0]


# ---------------------------------------------------------------------------
# forward

def test_identity_linear_layer():
    x = np.array([0.3, -1.2, 5.0, 0.0])
    assert np.array_equal(forward_of([(np.eye(4), np.zeros(4))], x), x)


def test_tanh_layer_at_zero_weights():
    # a tanh hidden layer at zero, read through an identity head
    y = forward_of([(np.zeros((3, 2)), np.zeros(3)), (np.eye(3), np.zeros(3))],
                   np.array([0.7, -0.4]))
    assert np.array_equal(y, np.zeros(3))


def test_two_layer_frozen_oracle():
    # value frozen from an independent hand-rolled forward pass
    w1 = np.array([[0.1, -0.2], [0.3, 0.05], [-0.15, 0.25]])
    b1 = np.array([0.01, -0.02, 0.03])
    w2 = np.array([[0.5, -0.4, 0.2]])
    b2 = np.array([0.1])
    y = forward_of([(w1, b1), (w2, b2)], np.array([0.7, -0.3]))
    assert abs(y[0] - 0.070475154080701388) < 1e-15


def test_forward_batch_matches_single_rows():
    # same values up to BLAS kernel reassociation (gemm vs gemv)
    rng = np.random.default_rng(0)
    forward, _ = dense((3, 5, 2), init_theta((3, 5, 2), rng))
    xb = rng.normal(size=(6, 3))
    yb, _ = forward(xb)
    for i in range(6):
        yi, _ = forward(xb[i:i + 1])
        assert np.allclose(yb[i], yi[0], rtol=1e-14, atol=1e-15)


def test_forward_determinism():
    rng = np.random.default_rng(1)
    forward, _ = dense((4, 8, 8, 3), init_theta((4, 8, 8, 3), rng))
    x = np.random.default_rng(2).normal(size=(10, 4))
    assert np.array_equal(forward(x)[0], forward(x)[0])


def test_cache_free_forward_equals_cached_forward():
    # tanh hidden layers and the linear head; inference skips only the list
    rng = np.random.default_rng(11)
    theta = init_theta((3, 7, 5, 4), rng)
    theta += 0.1 * rng.normal(size=theta.size)
    lay = MlpLayout.build((3, 7, 5, 4))
    x = rng.normal(size=(9, 3))
    kept = []
    args = (theta, lay.shapes, lay.w_off, lay.b_off, lay.acts, x)
    cached = _kernels.dense_forward(*args, kept)
    free = _kernels.dense_forward(*args, None)
    assert np.array_equal(free, cached)
    assert [a.shape for a in kept] == [(9, 3), (9, 7), (9, 5), (9, 4)]
    assert kept[0] is x and kept[-1] is cached


def test_layout_derives_from_widths():
    # each layer reads the previous one's output: shapes chain by construction
    lay = MlpLayout.build((3, 7, 5, 4), base=10)
    assert lay.shapes.tolist() == [[7, 3], [5, 7], [4, 5]]
    assert lay.w_off.tolist() == [10, 38, 78]
    assert lay.b_off.tolist() == [31, 73, 98]
    assert lay.acts.tolist() == [_kernels.ACT_TANH, _kernels.ACT_TANH,
                                 _kernels.ACT_LINEAR]
    assert lay.size == 92
    for bad in [(3,), (3, 0, 2), (3, -1), (3, 2.0)]:
        with pytest.raises(ValueError, match="must be an input and an output width"):
            MlpLayout.build(bad)


# ---------------------------------------------------------------------------
# backward

def test_zero_output_grad_gives_zero_gradients():
    rng = np.random.default_rng(3)
    forward, backward = dense((3, 6, 2), init_theta((3, 6, 2), rng))
    _, cache = forward(rng.normal(size=(4, 3)))
    grad, gx = backward(cache, np.zeros((4, 2)))
    assert np.all(grad == 0.0)
    assert np.all(gx == 0.0)


def test_linear_layer_closed_form_gradient():
    w = np.array([[0.5, -0.2, 0.1], [0.0, 0.3, -0.4]])
    forward, backward = dense(*from_arrays([(w, np.zeros(2))]))
    x = np.array([1.0, -2.0, 0.5])
    _, cache = forward(x[None])
    g_out = np.array([2.0, -1.0])
    grad, gx = backward(cache, g_out[None])
    assert np.allclose(grad[:6].reshape(2, 3), np.outer(g_out, x), atol=1e-15)
    assert np.array_equal(grad[6:], g_out)
    assert np.allclose(gx[0], w.T @ g_out, atol=1e-15)


def _fd_check(widths, theta, x, h=1e-5):
    """Relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(99)
    c = rng.normal(size=widths[-1])  # fixed linear readout -> scalar loss

    def loss(th):
        return float(np.sum(dense(widths, th)[0](x)[0] @ c))

    forward, backward = dense(widths, theta)
    grad, _ = backward(forward(x)[1], np.tile(c, (x.shape[0], 1)))
    worst = 0.0
    for i in range(theta.size):
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        fd = (loss(tp) - loss(tm)) / (2 * h)
        worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8))
    return worst


def test_three_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    theta = init_theta((4, 8, 6, 3), rng)
    x = rng.normal(size=(5, 4))
    assert _fd_check((4, 8, 6, 3), theta, x) < 1e-6


def test_gradient_property_over_random_structures():
    # contract: any net up to 4 layers with widths up to 16 checks out
    # below 1e-6
    rng = np.random.default_rng(7)
    for trial in range(6):
        n_layers = int(rng.integers(1, 5))
        widths = tuple(int(rng.integers(1, 17)) for _ in range(n_layers + 1))
        theta = init_theta(widths, rng)
        x = rng.normal(size=(3, widths[0]))
        assert _fd_check(widths, theta, x) < 1e-6, f"trial {trial}: {widths}"


# ---------------------------------------------------------------------------
# bitwise oracles: the dense passes over one flat (rows, sum of widths) cache
# of layer outputs, and an Adam step that returns new moments; the kernels
# and the in-place Adam must match them bit for bit, as trained models do

def cached_forward(theta, shapes, w_off, b_off, acts, x, cache):
    layers = zip(shapes.tolist(), w_off.tolist(), b_off.tolist(), acts.tolist())
    pos = x.shape[1]
    cache[:, :pos] = x
    a = x
    for (out_d, in_d), wo, bo, act in layers:
        a = np.dot(a, theta[wo:wo + out_d * in_d].reshape(out_d, in_d).T)
        a += theta[bo:bo + out_d]
        if act == _kernels.ACT_TANH:
            np.tanh(a, out=a)
        cache[:, pos:pos + out_d] = a
        pos += out_d
    return a


def cached_backward(theta, shapes, w_off, b_off, acts, cache, gy, grad):
    dims = shapes.tolist()
    w_offs, b_offs, codes = w_off.tolist(), b_off.tolist(), acts.tolist()
    starts = [0]
    pos = dims[0][1]
    for out_d, _ in dims:
        starts.append(pos)
        pos += out_d
    g = gy
    for j in range(len(dims) - 1, -1, -1):
        out_d, in_d = dims[j]
        wo, bo = w_offs[j], b_offs[j]
        a_j = cache[:, starts[j + 1]:starts[j + 1] + out_d]
        if codes[j] == _kernels.ACT_TANH:
            g = g * (1.0 - a_j * a_j)
        a_prev = cache[:, starts[j]:starts[j] + in_d]
        gw = np.dot(np.ascontiguousarray(g.T), a_prev)
        grad[wo:wo + out_d * in_d] += gw.ravel()
        grad[bo:bo + out_d] += np.sum(g, axis=0)
        g = np.dot(g, theta[wo:wo + out_d * in_d].reshape(out_d, in_d))
    return g


def functional_adam_step(params, grads, state):
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m=m, v=v, lr=state.lr, step=t)


@pytest.mark.parametrize("rows", [1, 20, 256, 4096])
@pytest.mark.parametrize("widths", [(3, 12), (3, 32, 32, 12), (12, 32, 32, 3),
                                    (3, 16, 16, 16, 12)])
def test_kept_list_passes_equal_flat_cache_passes(widths, rows):
    # outputs, parameter and input gradients, bitwise: on one batch, and on a
    # stacked batch whose two halves each take a reverse pass into one
    # gradient, as the encoder's loss runs them
    rng = np.random.default_rng(rows + len(widths))
    lay = MlpLayout.build(widths)
    theta = init_theta(widths, rng) + 0.1 * rng.normal(size=lay.size)
    args = (theta, lay.shapes, lay.w_off, lay.b_off, lay.acts)
    forward, _ = dense(widths, theta)
    for halves in ([slice(None)], [slice(0, rows), slice(rows, None)]):
        x = rng.normal(size=(rows * len(halves), widths[0]))
        gy = rng.normal(size=(rows * len(halves), widths[-1]))
        cache = np.empty((x.shape[0], sum(widths)))
        expect = cached_forward(*args, x, cache)
        y, kept = forward(x)
        assert np.array_equal(y, expect)
        grad_old, grad_new = np.zeros(lay.size), np.zeros(lay.size)
        for h in halves:
            gx_old = cached_backward(*args, cache[h], gy[h], grad_old)
            gx_new = _kernels.dense_backward(*args, gy[h], grad_new,
                                             [a[h] for a in kept])
            assert np.array_equal(gx_new, gx_old)
        assert np.array_equal(grad_new, grad_old)


def test_in_place_adam_equals_functional_adam():
    rng = np.random.default_rng(12)
    params = expect = rng.normal(size=50)
    state, expect_state = AdamState.create(50, lr=1e-3), AdamState.create(50, lr=1e-3)
    for k in range(5):
        g = rng.normal(size=50) * 10.0 ** rng.integers(-6, 3, size=50)
        params, state = adam_step(params, g, state)
        expect, expect_state = functional_adam_step(expect, g, expect_state)
        assert np.array_equal(params, expect), k
        assert np.array_equal(state.m, expect_state.m), k
        assert np.array_equal(state.v, expect_state.v), k
        assert state.step == expect_state.step == k + 1


@pytest.mark.parametrize("rows", [1, 20, 256, 4096])
def test_norm_term_equals_mean_of_row_sums(rows):
    for width in (2, 3, 15):
        r = np.random.default_rng(rows + width).normal(size=(rows, width))
        value, grad = _norm_term(r)
        assert value == float(np.mean(np.sum(r * r, axis=1)))
        assert np.array_equal(grad, (2.0 / rows) * r)


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.create(3, lr=1e-3)
    new, new_state = adam_step(params, np.zeros(3), state)
    assert np.array_equal(new, params)
    assert new_state.step == 1


def test_adam_first_step_is_signed_learning_rate():
    rng = np.random.default_rng(8)
    g = rng.normal(size=20)
    g[np.abs(g) < 0.1] += 0.5  # keep |g| well above eps
    params = np.zeros(20)
    state = AdamState.create(20, lr=1e-3)
    new, _ = adam_step(params, g, state)
    assert np.all(np.abs(new - (-1e-3 * np.sign(g))) < 1e-9)


def test_adam_descends_a_quadratic():
    theta = np.array([2.0])
    state = AdamState.create(1, lr=0.1)
    losses = []
    for _ in range(2):
        losses.append(0.5 * theta[0] ** 2)
        theta, state = adam_step(theta, theta.copy(), state)
    assert 0.5 * theta[0] ** 2 < losses[0]
    assert losses[1] < losses[0]


def test_adam_rejects_nonfinite_gradient():
    # a refused gradient leaves the state, which a step advances in place,
    # as it was
    state = AdamState.create(2, lr=1e-3)
    adam_step(np.zeros(2), np.array([0.5, -2.0]), state)
    m, v = state.m.copy(), state.v.copy()
    for bad in (np.array([1.0, float("nan")]), np.array([float("inf"), 1.0]),
                np.ones(3)):
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), bad, state)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.step == 1


# ---------------------------------------------------------------------------
# normalizer

def test_normalizer_endpoints():
    norm = Normalizer.fit(np.array([[0.0, -3.0], [10.0, 5.0], [5.0, 1.0]]))
    assert np.array_equal(norm.apply(np.array([0.0, -3.0])), [-1.0, -1.0])
    assert np.array_equal(norm.apply(np.array([10.0, 5.0])), [1.0, 1.0])


def test_normalizer_roundtrip():
    rng = np.random.default_rng(9)
    data = rng.uniform(-5, 20, size=(50, 4))
    norm = Normalizer.fit(data)
    x = rng.uniform(data.min(axis=0), data.max(axis=0), size=(30, 4))
    assert np.allclose(norm.invert(norm.apply(x)), x, atol=1e-12)


def test_normalizer_constant_channel_rule():
    norm = Normalizer.fit(np.array([[5.0, 1.0], [5.0, 2.0]]))
    out = norm.apply(np.array([5.0, 1.5]))
    assert out[0] == 0.0
    assert norm.invert(np.array([0.0, 0.0]))[0] == 5.0


def test_normalizer_checks_the_channel_count():
    # one column of two once broadcast against both channels' ranges
    norm = Normalizer.fit(np.array([[0.0, -3.0], [10.0, 5.0]]))
    for x in (np.zeros((4, 1)), np.zeros((4, 3)), np.zeros(1)):
        for method in (norm.apply, norm.invert):
            with pytest.raises(ValueError, match=f"^normalizer expects 2 channels, "
                               f"got {x.shape[-1]}$"):
                method(x)


def test_normalizer_rejects_empty():
    with pytest.raises(ValueError):
        Normalizer.fit(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Normalizer.fit()


def test_normalizer_fits_blocks_as_their_stack():
    rng = np.random.default_rng(10)
    x, u = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
    norm, stacked = Normalizer.fit(x, u), Normalizer.fit(np.hstack((x, u)))
    assert np.array_equal(norm.lo, stacked.lo) and np.array_equal(norm.hi, stacked.hi)
    with pytest.raises(ValueError, match="share the sample axis"):
        Normalizer.fit(x, u[:-1])


@pytest.mark.parametrize("bound", ["lo", "hi"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_normalizer_rejects_non_finite_bounds(bound, value):
    # a NaN bound passed the min <= max test and then mapped its channel to 0
    bounds = {"lo": np.array([0.0, -1.0, -2.0]), "hi": np.array([1.0, 1.0, 2.0])}
    bounds[bound][1] = value
    with pytest.raises(ValueError, match="normalizer channel 1 .*must be finite"):
        Normalizer(**bounds)
