import numpy as np
import pytest

from koopcar import _kernels
from koopcar.mlp import AdamState, MlpLayout, Normalizer, adam_step, init_theta


def dense(widths, theta):
    """(forward, backward) of the `_kernels` dense passes over the network of
    these widths, called as `lift` and `_loss_and_grad` call them."""
    lay = MlpLayout.build(widths)
    args = (theta, lay.shapes, lay.w_off, lay.b_off, lay.acts)

    def forward(x):
        cache = np.empty((x.shape[0], lay.cache_width))
        return _kernels.dense_forward(*args, x, cache), cache

    def backward(cache, gy):
        grad = np.zeros(lay.size)
        return grad, _kernels.dense_backward(*args, cache, gy, grad)

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
    # tanh hidden layers and the linear head; inference skips only the cache
    rng = np.random.default_rng(11)
    theta = init_theta((3, 7, 5, 4), rng)
    theta += 0.1 * rng.normal(size=theta.size)
    lay = MlpLayout.build((3, 7, 5, 4))
    x = rng.normal(size=(9, 3))
    cache = np.empty((9, lay.cache_width))
    args = (theta, lay.shapes, lay.w_off, lay.b_off, lay.acts, x)
    cached = _kernels.dense_forward(*args, cache)
    free = _kernels.dense_forward(*args, None)
    assert np.array_equal(free, cached)
    assert np.array_equal(cache[:, -4:], cached)


def test_layout_derives_from_widths():
    # each layer reads the previous one's output: shapes chain by construction
    lay = MlpLayout.build((3, 7, 5, 4), base=10)
    assert lay.shapes.tolist() == [[7, 3], [5, 7], [4, 5]]
    assert lay.w_off.tolist() == [10, 38, 78]
    assert lay.b_off.tolist() == [31, 73, 98]
    assert lay.acts.tolist() == [_kernels.ACT_TANH, _kernels.ACT_TANH,
                                 _kernels.ACT_LINEAR]
    assert (lay.size, lay.cache_width) == (92, 19)
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
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.array([1.0, float("nan")]),
                  AdamState.create(2, lr=1e-3))


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
