import numpy as np
import pytest

from trajkit import gradcore as gc
from trajkit.gradcore.tensor import Tensor, _make


def test_square_gradient():
    value, grads = gc.grad(lambda x: x * x, [3.0])
    assert value == 9.0
    assert grads[0] == 6.0


def test_stop_gradient_detaches():
    value, grads = gc.grad(lambda x: gc.mul(gc.stop_gradient(x), x), [2.0])
    assert value == 4.0
    assert grads[0] == 2.0  # not 4: the detached factor contributes nothing


def test_downstream_of_stop_gradient_is_exactly_zero():
    def f(x):
        return gc.tsum(gc.square(gc.stop_gradient(gc.tanh(x))))

    _, grads = gc.grad(f, [np.linspace(-1, 1, 7)])
    assert np.all(grads[0] == 0.0)


def test_three_layer_network_against_finite_differences():
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(5, 8)) * 0.5
    w2 = rng.normal(size=(8, 8)) * 0.5
    w3 = rng.normal(size=(8, 1)) * 0.5
    x = rng.normal(size=(4, 5))

    def loss(a, b, c):
        h = gc.tanh(gc.matmul(Tensor(x), a))
        h = gc.gelu(gc.matmul(h, b))
        out = gc.sigmoid(gc.matmul(h, c))
        return gc.tmean(gc.square(out - 0.3))

    err = gc.grad_check(loss, [w1, w2, w3], step=1e-5)
    assert err < 1e-6


def test_grad_check_linear_map_is_exact():
    w = np.arange(6.0).reshape(2, 3)
    err = gc.grad_check(lambda a: gc.tsum(gc.mul(a, 2.5)), [w])
    assert err < 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients_random_seeds(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4)) * 0.8
    b = rng.normal(size=(3, 4)) * 0.8 + 2.5  # keep div/log away from zero
    m = rng.random((3, 4)) > 0.5

    cases = [
        lambda x, y: gc.tsum(gc.add(x, y)),
        lambda x, y: gc.tsum(gc.mul(x, y)),
        lambda x, y: gc.tsum(gc.div(x, y)),
        lambda x, y: gc.tsum(gc.exp(gc.mul(x, 0.3))),
        lambda x, y: gc.tsum(gc.log(y)),
        lambda x, y: gc.tsum(gc.tanh(x)),
        lambda x, y: gc.tsum(gc.sigmoid(x)),
        lambda x, y: gc.tsum(gc.softplus(x)),
        lambda x, y: gc.tsum(gc.gelu(x)),
        lambda x, y: gc.tsum(gc.where(m, x, y)),
        lambda x, y: gc.tsum(gc.square(gc.reshape(x, (4, 3)))),
        lambda x, y: gc.tsum(gc.mul(gc.transpose(x, (1, 0)), gc.transpose(y, (1, 0)))),
        lambda x, y: gc.tsum(gc.square(gc.concat([x, y], axis=1))),
        lambda x, y: gc.tsum(gc.square(x[1:, :2])),
        lambda x, y: gc.tmean(x, axis=0).sum(),
    ]
    for f in cases:
        assert gc.grad_check(f, [a, b]) < 1e-4


def test_abs_gradient_away_from_kink():
    a = np.array([0.5, -1.5, 2.0])
    assert gc.grad_check(lambda x: gc.tsum(gc.absolute(x)), [a]) < 1e-10


def test_broadcasting_unbroadcast():
    a = np.ones((3, 4))
    b = np.full((4,), 2.0)
    value, grads = gc.grad(lambda x, y: gc.tsum(gc.mul(x, y)), [a, b])
    assert value == 24.0
    assert np.all(grads[0] == 2.0)
    assert np.all(grads[1] == 3.0)  # summed over the broadcast rows


def test_shape_error_names_primitive_and_shapes():
    with pytest.raises(gc.ShapeError) as exc:
        gc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value)


def test_grad_check_negative_control_detects_wrong_adjoint():
    # Hand-built primitive with a deliberately wrong vjp (factor 3 instead of 2).
    def bad_square(t):
        t = gc.as_tensor(t)
        return _make(t.data ** 2, (t,), (lambda g: g * 3.0 * t.data,), "bad_square")

    err = gc.grad_check(lambda x: gc.tsum(bad_square(x)), [np.array([1.0, 2.0])])
    assert err > 1e-2


def test_grad_check_nonfinite_probe_raises():
    with pytest.raises(gc.GradCheckError):
        gc.grad_check(lambda x: gc.tsum(gc.log(x)), [np.array([1e-6])], step=1e-5)


def test_disconnected_input_gets_zero_gradient():
    _, grads = gc.grad(lambda x, y: gc.tsum(gc.square(x)), [np.ones(3), np.ones(2)])
    assert np.all(grads[1] == 0.0)


@pytest.mark.parametrize("x_shape,axis", [((5, 3), -1), ((2, 3, 4, 3), -1), ((2, 3, 3, 4), 2),
                                         ((3, 2, 4), 0)])
def test_linear_gradients(x_shape, axis):
    rng = np.random.default_rng(3)
    fan_in = x_shape[axis]
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(fan_in, 2)) * 0.5
    b = rng.normal(size=2)
    f = lambda x_, w_, b_: gc.tsum(gc.tanh(gc.linear(x_, w_, b_, axis=axis)))
    assert gc.grad_check(f, [x, w, b]) < 1e-4


@pytest.mark.parametrize("axis", [-1, 2])
def test_linear_bit_equal_to_reshape_matmul_add_chain(axis):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 5, 6))
    fan_in = x.shape[axis]
    w = rng.normal(size=(fan_in, 7))
    b = rng.normal(size=7)
    out_shape = list(x.shape)
    out_shape[axis] = 7
    cot = rng.normal(size=out_shape)  # a generic cotangent for every output entry
    perm = (0, 1, 3, 2) if axis == 2 else (0, 1, 2, 3)

    def chain(x_, w_, b_):
        moved = gc.transpose(x_, perm)
        flat = gc.reshape(moved, (-1, fan_in))
        out = gc.add(gc.matmul(flat, w_), b_)
        return gc.transpose(gc.reshape(out, (*moved.shape[:-1], 7)), perm)

    def prim(x_, w_, b_):
        return gc.linear(x_, w_, b_, axis=axis)

    assert np.array_equal(prim(x, w, b).data, chain(x, w, b).data)
    _, g_prim = gc.grad(lambda *a: gc.tsum(gc.mul(prim(*a), cot)), [x, w, b])
    _, g_chain = gc.grad(lambda *a: gc.tsum(gc.mul(chain(*a), cot)), [x, w, b])
    for gp, gch in zip(g_prim, g_chain):
        assert np.array_equal(gp, gch)


@pytest.mark.parametrize("w_shape,b_shape", [((4, 2), (2,)), ((3, 2), (3,)), ((3, 2), (1, 2))])
def test_linear_shape_error_names_linear(w_shape, b_shape):
    with pytest.raises(gc.ShapeError, match="^linear: "):
        gc.linear(np.ones((5, 3)), np.ones(w_shape), np.ones(b_shape))


def test_backward_sets_grad_on_wrt_only():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = gc.tanh(x)
    out = gc.tsum(gc.square(hidden))
    (gx,) = gc.backward(out, [x])
    assert x.grad is gx
    assert hidden.grad is None and out.grad is None


@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("hop", [1, 2, 4])
def test_shift_diff_gradients(axis, hop):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 5, 6, 7, 2))
    f = lambda x_: gc.tsum(gc.tanh(gc.shift_diff(x_, hop, axis)))
    assert gc.grad_check(f, [x]) < 1e-4


def _chain_diff(x, hop, axis):
    lead = (slice(None),) * axis
    return gc.add(x[lead + (slice(hop, None),)], gc.mul(x[lead + (slice(None, -hop),)], -1.0))


@pytest.mark.parametrize("axis,hop", [(1, 1), (2, 2), (3, 4)])
def test_shift_diff_bit_equal_to_getitem_mul_add_chain(axis, hop):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 5, 6, 7, 2))
    cot = rng.normal(size=gc.shift_diff(x, hop, axis).shape)

    def loss(diff):  # x enters directly and through two differences, as in the VAE loss
        return lambda x_: gc.add(gc.tsum(gc.mul(gc.square(x_), 0.3)),
                                 gc.add(gc.tsum(gc.mul(diff(x_, hop, axis), cot)),
                                        gc.tsum(gc.absolute(diff(x_, 1, 1)))))

    assert np.array_equal(gc.shift_diff(x, hop, axis).data, _chain_diff(x, hop, axis).data)
    _, (g_prim,) = gc.grad(loss(gc.shift_diff), [x])
    _, (g_chain,) = gc.grad(loss(_chain_diff), [x])
    assert np.array_equal(g_prim, g_chain)


@pytest.mark.parametrize("hop,axis", [(0, 1), (-1, 1), (3, 1), (5, 2), (1, 3), (1, -4)])
def test_shift_diff_shape_error_names_shift_diff(hop, axis):
    with pytest.raises(gc.ShapeError, match="^shift_diff: "):
        gc.shift_diff(np.ones((2, 3, 4)), hop, axis)


class TestOptim:
    def test_zero_gradients_are_a_fixed_point(self):
        params = {"w": np.array([1.0, -2.0])}
        state = gc.optim_init(params, lr=0.1)
        out = gc.optim_step(params, {"w": np.zeros(2)}, state)
        assert np.all(out["w"] == params["w"])
        assert state.step == 1

    def test_positive_gradient_decreases_parameter(self):
        params = {"w": np.array([1.0])}
        state = gc.optim_init(params, lr=0.05)
        out = gc.optim_step(params, {"w": np.array([0.7])}, state)
        assert out["w"][0] < 1.0

    def test_three_step_trace_matches_scalar_reference(self):
        # Independent scalar re-implementation of the update rule.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads_seq = [0.3, -0.2, 0.05]
        p_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        for t, g in enumerate(grads_seq, start=1):
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            mh = m_ref / (1 - b1 ** t)
            vh = v_ref / (1 - b2 ** t)
            p_ref = p_ref - lr * (mh / (vh ** 0.5 + eps))

        params = {"w": np.array([1.0])}
        state = gc.optim_init(params, lr=lr)
        for g in grads_seq:
            params = gc.optim_step(params, {"w": np.array([g])}, state)
        assert params["w"][0] == pytest.approx(p_ref, rel=1e-12)

    def test_nonfinite_gradient_rejected_without_partial_update(self):
        params = {"a": np.array([1.0]), "b": np.array([2.0])}
        state = gc.optim_init(params, lr=0.1)
        with pytest.raises(FloatingPointError):
            gc.optim_step(params, {"a": np.array([0.1]), "b": np.array([np.nan])}, state)
        assert state.step == 0
        assert np.all(state.m["a"] == 0.0)

    def test_global_norm_clip(self):
        params = {"w": np.array([0.0, 0.0])}
        state = gc.optim_init(params, lr=1.0, clip_norm=1.0)
        g = {"w": np.array([3.0, 4.0])}
        gc.optim_step(params, g, state)
        # Clipped gradient has norm 1, so first moments reflect (0.06, 0.08).
        assert np.allclose(state.m["w"], 0.1 * np.array([0.6, 0.8]))


class TestRng:
    def test_same_seed_identical_sequence(self):
        a = gc.rng(123).draw_normal(100)
        b = gc.rng(123).draw_normal(100)
        assert np.array_equal(a, b)

    def test_normal_moments(self):
        draws = gc.rng(0).draw_normal(1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    def test_uniform_range(self):
        draws = gc.rng(1).draw_uniform(10_000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)

    def test_spawned_streams_are_deterministic(self):
        a = gc.rng(5).spawn(3)[1].draw_uniform(4)
        b = gc.rng(5).spawn(3)[1].draw_uniform(4)
        assert np.array_equal(a, b)
