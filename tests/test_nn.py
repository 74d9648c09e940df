"""Autograd, optimizer, and checkpoint behaviour."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_kernels as reference
from terrascout import nn
from terrascout.errors import ContractViolation, DataError, TrainingDivergenceError
from terrascout.nn import (
    Adam,
    DimensionError,
    Tensor,
    UsageError,
    clip_grad_norm,
    conv2d,
    gather_last,
    load_checkpoint,
    masked_bounded_softmax,
    matmul,
    mean,
    relu,
    save_checkpoint,
    tsum,
)


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def assert_grad_close(analytic, numeric, tol=1e-4):
    denom = np.abs(analytic) + np.abs(numeric) + 1e-8
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.3e}"


# ---------------------------------------------------------------------------
# basic autograd mechanics
# ---------------------------------------------------------------------------


def test_square_gradient():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_requires_forward():
    x = Tensor(np.array(3.0), requires_grad=True)
    with pytest.raises(UsageError):
        x.backward()


def test_backward_accumulates_across_calls():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = tsum(x * x)
    y.backward()
    first = x.grad.copy()
    y.backward()
    np.testing.assert_allclose(x.grad, 2 * first, atol=1e-15)


def test_shared_subexpression_gradient():
    # f = (x + x) * x = 2 x^2 -> df/dx = 4x
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    y = tsum((x + x) * x)
    y.backward()
    np.testing.assert_allclose(x.grad, 4 * x.data, atol=1e-12)


# ---------------------------------------------------------------------------
# per-op finite-difference checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_elementwise_ops_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)

    def build():
        return mean(relu(x * y + x / y - y) * (x + 0.5))

    loss = build()
    loss.backward()
    gx = numeric_grad(lambda: float(build().data), x.data)
    gy = numeric_grad(lambda: float(build().data), y.data)
    assert_grad_close(x.grad, gx)
    assert_grad_close(y.grad, gy)


def test_matmul_matches_finite_differences():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def build():
        return mean(matmul(a, b) * matmul(a, b))

    build().backward()
    assert_grad_close(a.grad, numeric_grad(lambda: float(build().data), a.data))
    assert_grad_close(b.grad, numeric_grad(lambda: float(build().data), b.data))


def test_broadcast_add_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)

    def build():
        return mean(relu(x + b))

    build().backward()
    assert_grad_close(b.grad, numeric_grad(lambda: float(build().data), b.data))


def test_gather_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    idx = np.array([0, 3, 5, 2, 2])

    def build():
        return mean(gather_last(x, idx) * gather_last(x, idx))

    build().backward()
    assert_grad_close(x.grad, numeric_grad(lambda: float(build().data), x.data))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_matches_finite_differences(stride, padding):
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)

    def build():
        return mean(relu(conv2d(x, w, b, stride, padding)))

    build().backward()
    assert_grad_close(x.grad, numeric_grad(lambda: float(build().data), x.data))
    assert_grad_close(w.grad, numeric_grad(lambda: float(build().data), w.data))
    assert_grad_close(b.grad, numeric_grad(lambda: float(build().data), b.data))


def test_softmax_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    mask = np.ones((4, 6), dtype=bool)
    mask[1, :3] = False
    actions = np.array([0, 4, 1, 5])

    def build():
        p = masked_bounded_softmax(logits, mask, 0.1)
        return mean(-nn.log(gather_last(p, actions)))

    build().backward()
    assert_grad_close(logits.grad, numeric_grad(lambda: float(build().data), logits.data))


# ---------------------------------------------------------------------------
# conv2d forward values
# ---------------------------------------------------------------------------


def test_conv_identity_kernel():
    x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b, 1, 0)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_ones_stride2():
    x = Tensor(np.ones((1, 1, 4, 4)))
    w = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b, 2, 0)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))


def test_conv_kernel_too_large():
    x = Tensor(np.ones((1, 1, 2, 2)))
    w = Tensor(np.ones((1, 1, 5, 5)))
    with pytest.raises(DimensionError):
        conv2d(x, w, Tensor(np.zeros(1)), 1, 0)
    for shape in ((1, 1, 2, 5), (1, 1, 5, 2)):  # too tall but not too wide, and the reverse
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.ones(shape)), Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)), 1, 0)
    with pytest.raises(DimensionError):
        conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 1, 2, 2))),
               Tensor(np.zeros(1)), 1, 0)


# ---------------------------------------------------------------------------
# masked bounded softmax values
# ---------------------------------------------------------------------------


def test_bounded_softmax_uniform_logits():
    p = masked_bounded_softmax(Tensor(np.zeros(6)), np.ones(6, dtype=bool), 0.3)
    np.testing.assert_allclose(p.data, np.full(6, 1 / 6), atol=1e-15)


def test_bounded_softmax_epsilon_one_ignores_logits():
    mask = np.array([True, True, False, True, False, False])
    p = masked_bounded_softmax(Tensor(np.array([9.0, -3.0, 50.0, 0.2, 0.0, 0.0])), mask, 1.0)
    np.testing.assert_allclose(p.data[mask], np.full(3, 1 / 3), atol=1e-15)
    assert (p.data[~mask] == 0.0).all()


def test_bounded_softmax_mixture_formula():
    logits = np.array([10.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    p = masked_bounded_softmax(Tensor(logits), np.ones(6, dtype=bool), 0.02)
    soft = np.exp(logits - 10.0)
    soft /= soft.sum()
    np.testing.assert_allclose(p.data, 0.98 * soft + 0.02 / 6, atol=1e-15)


def test_bounded_softmax_sums_to_one_with_zeros_on_masked():
    rng = np.random.default_rng(0)
    for _ in range(50):
        logits = rng.normal(scale=5.0, size=6)
        mask = rng.random(6) < 0.7
        if not mask.any():
            mask[0] = True
        p = masked_bounded_softmax(Tensor(logits), mask, rng.random())
        assert abs(p.data.sum() - 1.0) < 1e-12
        assert (p.data[~mask] == 0.0).all()
        assert (p.data[mask] >= 0.0).all()


def test_bounded_softmax_rejects_all_masked():
    with pytest.raises(ContractViolation):
        masked_bounded_softmax(Tensor(np.zeros(6)), np.zeros(6, dtype=bool), 0.1)


@pytest.mark.parametrize("epsilon", [math.nan, -0.1, 1.5, np.array([[0.1], [math.nan]])],
                         ids=["nan", "negative", "above-one", "nan-row"])
def test_bounded_softmax_rejects_epsilon_outside_unit_interval(epsilon):
    with pytest.raises(ContractViolation, match="epsilon"):
        masked_bounded_softmax(Tensor(np.zeros((2, 6))), np.ones((2, 6), dtype=bool), epsilon)


# ---------------------------------------------------------------------------
# tape-free mode and the im2col kernel against their references
# ---------------------------------------------------------------------------


def test_no_grad_records_no_tape():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    weight = Tensor(np.random.default_rng(0).normal(size=(3, 2)), requires_grad=True)
    fc_bias = Tensor(np.zeros(2), requires_grad=True)
    kernel = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    bias = Tensor(np.zeros(1), requires_grad=True)
    with nn.no_grad():
        outs = [x * 2.0, relu(x), nn.linear(x, weight, fc_bias),
                conv2d(x.data[None, None], kernel, bias)]
    for out in outs:
        assert out._parents == () and out._backward is None and not out._needs_grad
    taped = x * 2.0
    assert taped._parents == (x,) and taped._backward is not None


def test_no_grad_restores_recording_after_an_exception():
    with pytest.raises(DimensionError):
        with nn.no_grad():
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    x = Tensor(np.ones(2), requires_grad=True)
    assert (x * 3.0)._backward is not None
    with nn.no_grad():
        with nn.no_grad():
            pass
        assert (x * 3.0)._backward is None  # the inner exit restores the outer state
    assert (x * 3.0)._backward is not None


def assert_conv2d_equals_the_reference(x0, w0, b0, stride, padding, rng):
    """Forward and all three gradients of ``conv2d`` equal the reference's bits."""
    upstream = None
    results = []
    for kernel in (conv2d, reference.conv2d):
        x, weight, bias = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        out = kernel(x, weight, bias, stride, padding)
        if upstream is None:
            upstream = rng.normal(size=out.data.shape)
        tsum(out * Tensor(upstream)).backward()
        results.append([out.data, x.grad, weight.grad, bias.grad])
    for new, old in zip(*results):
        assert new.shape == old.shape
        assert new.tobytes() == old.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    bsz=st.integers(1, 4),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    ksize=st.integers(1, 4),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
# cout == cin*k*k == 1: einsum folds samples and pixels into one dot
@example(bsz=2, cin=1, cout=1, h=1, w=2, ksize=1, stride=1, padding=0, seed=2)
# a 1x1 output: each sample's weight gradient is a single product
@example(bsz=3, cin=2, cout=3, h=4, w=5, ksize=3, stride=3, padding=0, seed=7)
def test_conv2d_equals_the_reference_forward_and_backward(bsz, cin, cout, h, w, ksize, stride,
                                                          padding, seed):
    assume(ksize <= min(h, w) + 2 * padding)
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(bsz, cin, h, w))
    w0 = rng.normal(size=(cout, cin, ksize, ksize))
    b0 = rng.normal(size=cout)
    assert_conv2d_equals_the_reference(x0, w0, b0, stride, padding, rng)


@pytest.mark.parametrize("bsz", [1, 7, 33])
@pytest.mark.parametrize("cin, cout, stride", [(29, 16, 1), (16, 32, 1), (32, 32, 2)])
def test_conv2d_equals_the_reference_on_the_critic_layers(cin, cout, stride, bsz):
    rng = np.random.default_rng(bsz)
    x0 = rng.normal(size=(bsz, cin, 10, 10))
    w0 = rng.normal(size=(cout, cin, 3, 3))
    b0 = rng.normal(size=cout)
    assert_conv2d_equals_the_reference(x0, w0, b0, stride, 1, rng)


def test_conv2d_keeps_no_column_array_on_the_tape():
    """Between a taped forward and its backward, conv2d holds its output and
    the padded input, not the 9x larger im2col columns of the batch."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(64, 29, 10, 10)), requires_grad=True)
    weight = Tensor(rng.normal(size=(16, 29, 3, 3)), requires_grad=True)
    bias = Tensor(np.zeros(16), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = conv2d(x, weight, bias, 1, 1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4 * x.data.nbytes
    tsum(out).backward()
    assert x.grad.shape == x.data.shape


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    p.grad[...] = np.array([0.3, -4.0, 1e-3])
    before = p.data.copy()
    opt.step()
    # bias correction makes m_hat / sqrt(v_hat) = sign(g) on step one
    np.testing.assert_allclose(before - p.data, 0.01 * np.sign([0.3, -4.0, 1e-3]), rtol=1e-4)


def test_adam_zero_gradient_keeps_parameters():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([p], lr=0.5)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_adam_constant_gradient_matches_reference():
    # 100 steps of constant gradient 1.0 at lr 0.01 move the parameter by
    # about -1.0; verified against an independent scripted Adam.
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    for _ in range(100):
        p.grad[...] = 1.0
        opt.step()
        p.zero_grad()

    m = v = 0.0
    x = 0.0
    for t in range(1, 101):
        m = 0.9 * m + 0.1 * 1.0
        v = 0.999 * v + 0.001 * 1.0
        x -= 0.01 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert p.data[0] == pytest.approx(x, abs=1e-12)
    assert abs(p.data[0] + 1.0) < 0.05


def test_adam_rejects_non_finite_gradients():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    p.grad[...] = np.nan
    with pytest.raises(TrainingDivergenceError):
        opt.step()


def test_clip_grad_norm():
    p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    p.grad[...] = np.array([30.0, 40.0])
    norm = clip_grad_norm([p], 10.0)
    assert norm == pytest.approx(50.0)
    np.testing.assert_allclose(p.grad, [6.0, 8.0])


# ---------------------------------------------------------------------------
# layers + checkpoints
# ---------------------------------------------------------------------------


def test_linear_layer_forward():
    rng = np.random.default_rng(0)
    weight = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    bias = Tensor(rng.normal(size=2), requires_grad=True)
    x = Tensor(np.ones((4, 3)))
    out = nn.linear(x, weight, bias)
    np.testing.assert_allclose(out.data, x.data @ weight.data + bias.data)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    named = [
        ("conv.weight", rng.normal(size=(8, 3, 3, 3))),
        ("conv.bias", np.zeros(8)),
        ("fc.weight", rng.normal(size=(10, 4))),
        ("fc.bias", np.zeros(4)),
    ]
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, named, {"kind": "actor", "planes": ["a", "b"]})
    params, meta = load_checkpoint(path)
    assert meta == {"kind": "actor", "planes": ["a", "b"]}
    for name, value in named:
        assert params[name].tobytes() == value.tobytes()


def test_checkpoint_keeps_every_parameter_shape(tmp_path):
    named = [
        ("scalar", np.array(2.0)),
        ("vector", np.arange(3.0)),
        ("fortran", np.asfortranarray(np.arange(6.0).reshape(2, 3))),
        ("strided", np.arange(12.0).reshape(3, 4)[:, ::2]),
        ("single", np.float32(0.1)),
    ]
    path = tmp_path / "shapes.ckpt"
    save_checkpoint(path, named)
    params, _ = load_checkpoint(path)
    for name, value in named:
        assert params[name].shape == np.shape(value)
        np.testing.assert_array_equal(params[name], np.asarray(value, dtype=np.float64))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT anything")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_rejects_a_repeated_layer_name(tmp_path):
    # a dict of the layers would keep one of the two and drop the other unseen
    path = tmp_path / "twice.ckpt"
    save_checkpoint(path, [("w", np.zeros(2)), ("w", np.ones(2))])
    with pytest.raises(DataError, match="repeated layer name"):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    import builtins

    path = tmp_path / "actor.ckpt"
    save_checkpoint(path, [("w", np.arange(4.0))], {"kind": "actor"})
    real_open = builtins.open

    class DiskFull:
        """A file with room for 1000 bytes: the header fits, the 3200-byte blob does not."""

        def __init__(self, fh):
            self.fh, self.room = fh, 1000

        def write(self, data):
            if len(data) > self.room:
                self.fh.write(data[: self.room])
                raise OSError(28, "No space left on device")
            self.room -= len(data)
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", lambda *a, **kw: DiskFull(real_open(*a, **kw)))
        with pytest.raises(OSError):
            save_checkpoint(path, [("w", np.arange(400.0))], {"kind": "actor"})
    params, meta = load_checkpoint(path)
    assert params["w"].tobytes() == np.arange(4.0).tobytes()
    assert meta == {"kind": "actor"}
    assert [p.name for p in tmp_path.iterdir()] == ["actor.ckpt"]
