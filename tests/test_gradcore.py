import numpy as np
import pytest

from trajkit import gradcore as gc
from trajkit.gradcore.tensor import Tensor, _is_basic_key, _make


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


@pytest.mark.parametrize("axis", [-1, 0, 1, 2])
def test_linear_bit_equal_to_reshape_matmul_add_chain(axis):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 5, 6))
    fan_in = x.shape[axis]
    w = rng.normal(size=(fan_in, 7))
    b = rng.normal(size=7)
    out_shape = list(x.shape)
    out_shape[axis] = 7
    cot = rng.normal(size=out_shape)  # a generic cotangent for every output entry
    perm = [i for i in range(4) if i != axis % 4] + [axis % 4]  # the mixed axis moved last

    def chain(x_, w_, b_):
        moved = gc.transpose(x_, perm)
        flat = gc.reshape(moved, (-1, fan_in))
        out = gc.add(gc.matmul(flat, w_), b_)
        return gc.transpose(gc.reshape(out, (*moved.shape[:-1], 7)), tuple(np.argsort(perm)))

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


def test_backward_never_writes_into_an_aliased_first_adjoint():
    """x gets three adjoints; the first is c's own adjoint array, passed on by
    `add`, which is also the .grad of the intermediate wrt tensors c and a."""
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    cot = np.arange(1.0, 13.0).reshape(4, 3)  # small integers: every sum below is exact
    a = gc.mul(x, 2.0)
    b = gc.getitem(x, slice(1, 3))  # a slice contribution
    c = gc.add(x, gc.add(gc.tsum(b), a))  # c replays first; on this tape b's slice comes next
    gx, ga, gcc = gc.backward(gc.tsum(gc.mul(c, cot)), [x, a, c])
    ref = cot + 2.0 * cot
    ref[1:3] += cot.sum()
    assert np.array_equal(gx, ref)
    assert c.grad is gcc and np.array_equal(gcc, cot) and np.array_equal(ga, cot)


def test_zero_d_leaf_used_four_times():
    s = Tensor(np.array(1.5), requires_grad=True)
    v = np.arange(1.0, 7.0).reshape(2, 3)
    out = gc.add(gc.add(gc.add(gc.tsum(gc.mul(v, s)), gc.mul(s, s)), gc.mul(s, 4.0)), s)
    (gs,) = gc.backward(out, [s])
    assert np.ndim(gs) == 0
    assert gs == v.sum() + 2 * 1.5 + 4.0 + 1.0


def _shift_l1_inputs(seed, hop, axis, shape=(2, 5, 6, 7, 2)):
    """x, a target for its hop-difference and a weight with zeros in it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    n = list(shape)
    n[axis] -= hop
    weight = (rng.random(n[:-1]) < 0.7) * rng.uniform(0.5, 2.0, size=n[:-1])
    return x, rng.normal(size=n), weight


@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("hop", [1, 2, 4])
def test_shift_l1_gradients(axis, hop):
    x, target, weight = _shift_l1_inputs(6, hop, axis)
    f = lambda x_: gc.tsum(gc.tanh(gc.shift_l1(x_, hop, axis, target, weight)))
    assert gc.grad_check(f, [x]) < 1e-4


def _chain_l1(x, hop, axis, target, weight):
    """The masked-L1 chain shift_l1 replaces, from getitem/add/abs/tsum/mul/reshape."""
    lead = (slice(None),) * axis
    diff = gc.add(x[lead + (slice(hop, None),)], gc.mul(x[lead + (slice(None, -hop),)], -1.0))
    l1 = gc.tsum(gc.absolute(gc.add(diff, -target)), axis=4)
    return gc.tsum(gc.reshape(gc.mul(l1, weight), (weight.shape[0], -1)), axis=1)


@pytest.mark.parametrize("axis,hop", [(1, 1), (2, 2), (3, 4)])
def test_shift_diff_bit_equal_to_getitem_mul_add_chain(axis, hop):
    """The hop-difference shift_l1 takes is the getitem/mul/add chain's, bit for bit:
    with that chain's difference as target, every mismatch and its sign is exactly 0."""
    x = np.random.default_rng(7).normal(size=(2, 5, 6, 7, 2))
    lead = (slice(None),) * axis
    diff = gc.add(x[lead + (slice(hop, None),)], gc.mul(x[lead + (slice(None, -hop),)], -1.0))
    ones = np.ones(diff.shape[:-1])
    assert np.array_equal(gc.shift_l1(x, hop, axis, diff.data, ones).data, np.zeros(2))
    _, (g,) = gc.grad(lambda x_: gc.tsum(gc.shift_l1(x_, hop, axis, diff.data, ones)), [x])
    assert np.array_equal(g, np.zeros_like(x))
    # one ulp off the chain in one entry is a nonzero mismatch
    off = diff.data.copy()
    off[(0,) * off.ndim] = np.nextafter(off[(0,) * off.ndim], np.inf)
    assert gc.shift_l1(x, hop, axis, off, ones).data[0] > 0


@pytest.mark.parametrize("axis,hop", [(1, 1), (2, 2), (3, 4)])
def test_shift_l1_bit_equal_to_masked_l1_chain(axis, hop):
    x, target, weight = _shift_l1_inputs(7, hop, axis)
    cot = np.array([0.7, -1.3])
    t1, w1 = _shift_l1_inputs(8, 1, 1)[1:]

    def loss(node):  # x enters directly and through two differences, as in the VAE loss
        return lambda x_: gc.add(gc.tsum(gc.mul(gc.square(x_), 0.3)),
                                 gc.add(gc.tsum(gc.mul(node(x_, hop, axis, target, weight), cot)),
                                        gc.tsum(node(x_, 1, 1, t1, w1))))

    assert np.array_equal(gc.shift_l1(x, hop, axis, target, weight).data,
                          _chain_l1(x, hop, axis, target, weight).data)
    _, (g_prim,) = gc.grad(loss(gc.shift_l1), [x])
    _, (g_chain,) = gc.grad(loss(_chain_l1), [x])
    assert np.array_equal(g_prim, g_chain)


@pytest.mark.parametrize("axis", [1, 2])
def test_shift_l1_hop_1_adjoint_bytes_equal_full_size_adds_in_tape_order(axis):
    """At hop 1 the two slices overlap in all but one row.  x also feeds a
    full-size consumer that replays first, so x's adjoint is that consumer's
    array plus the zero-padded hi and lo scatters, added in this order."""
    x, target, weight = _shift_l1_inputs(9, 1, axis)
    cot = np.random.default_rng(10).normal(size=x.shape)
    xt = Tensor(x, requires_grad=True)
    s = gc.tsum(gc.shift_l1(xt, 1, axis, target, weight))
    (g,) = gc.backward(gc.tsum(gc.mul(gc.mul(xt, s), cot)), [xt])  # mul(x, s) depends on s

    lead = (slice(None),) * axis
    hi, lo = lead + (slice(1, None),), lead + (slice(None, -1),)
    g_s = np.sum(cot * x)
    scaled = np.sign(x[hi] - x[lo] - target) * (weight * g_s)[..., None]
    add_hi, sub_lo = np.zeros(x.shape), np.zeros(x.shape)
    add_hi[hi] += scaled
    sub_lo[lo] -= scaled
    ref = cot * s.data + add_hi + sub_lo
    assert g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("hop,axis", [(0, 1), (-1, 1), (3, 1), (5, 2), (1, 3), (1, -4)])
def test_shift_l1_shape_error_names_shift_l1(hop, axis):
    with pytest.raises(gc.ShapeError, match="^shift_l1: "):
        gc.shift_l1(np.ones((2, 3, 4, 2)), hop, axis, np.ones((2, 2, 4, 2)), np.ones((2, 2, 4)))


@pytest.mark.parametrize("bad", [
    {"hop": 1.0}, {"hop": True}, {"axis": 1.0}, {"target": np.ones((2, 3, 4, 2))},
    {"weight": np.ones((2, 2, 4, 1))},
    {"a": np.ones((2, 3, 4, 3)), "target": np.ones((2, 2, 4, 3))}],
    ids=["float-hop", "bool-hop", "float-axis", "target", "weight", "three-channels"])
def test_shift_l1_rejects_bad_operands(bad):
    args = {"a": np.ones((2, 3, 4, 2)), "hop": 1, "axis": 1, "target": np.ones((2, 2, 4, 2)),
            "weight": np.ones((2, 2, 4)), **bad}
    with pytest.raises(gc.ShapeError, match="^shift_l1: "):
        gc.shift_l1(**args)


def test_gelu_matches_closed_form_into_the_tails():
    x = np.linspace(-8.0, 8.0, 4001)
    c = np.sqrt(2.0 / np.pi)
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
    # atol: in the left tail 1 + tanh cancels, so one ulp of tanh is already a
    # relative 3e-13 of the output at x = -3.5 in any formula; the absolute gap
    # stays below 1e-15.
    np.testing.assert_allclose(gc.gelu(x).data, ref, rtol=1e-13, atol=1e-15)
    assert gc.grad_check(lambda x_: gc.tsum(gc.gelu(x_)), [x]) < 1e-4


def test_gelu_bytes_equal_the_closed_form_expression():
    """Forward and VJP bytes are those of the plain expressions, in their
    association order, on a grid into both tails and a generic cotangent."""
    x = np.concatenate([np.linspace(-12.0, 12.0, 4801), [0.0, -0.0, -40.0, 40.0, 1e-300]])
    cot = np.random.default_rng(11).normal(size=x.shape)
    c = np.sqrt(2.0 / np.pi)
    th = np.tanh(c * (x + 0.044715 * (x * x * x)))
    out = 0.5 * x * (1.0 + th)
    adj = cot * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * (c * (1.0 + 3 * 0.044715 * x * x)))
    assert gc.gelu(x).data.tobytes() == out.tobytes()
    _, (g,) = gc.grad(lambda x_: gc.tsum(gc.mul(gc.gelu(x_), cot)), [x])
    assert g.tobytes() == adj.tobytes()


def _getitem_grad(x, key, cot):
    _, (g,) = gc.grad(lambda x_: gc.tsum(gc.mul(gc.getitem(x_, key), cot)), [x])
    return g


BASIC_KEYS = [
    slice(1, 4), slice(None, None, -1), slice(4, 0, -2), slice(-2, None), 2, -1, np.int64(3),
    None, Ellipsis, (1, slice(None, None, -1)), (Ellipsis, 0), (None, slice(1, 3), Ellipsis, -2),
    (slice(None), None, 1), (0, 1, slice(2, None)), (0, 1, 2), (-1, 0, -2),  # the last two: scalars
]


@pytest.mark.parametrize("key", BASIC_KEYS, ids=repr)
def test_getitem_basic_key_gradient_is_add_at_bit_for_bit(key):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 4, 6))
    cot = rng.normal(size=x[key].shape)
    cot.flat[::3] = -0.0  # signed zeros: 0 + -0 is +0 in both scatters
    assert _is_basic_key(key)
    ref = np.zeros(x.shape)
    np.add.at(ref, key, cot)
    assert _getitem_grad(x, key, cot).tobytes() == ref.tobytes()


def test_getitem_integer_array_key_accumulates_repeats():
    x = np.arange(10.0).reshape(5, 2)
    key = np.array([0, 3, 0, 0])
    assert not _is_basic_key(key)
    g = _getitem_grad(x, key, np.ones((4, 2)))
    assert np.array_equal(g, [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("key", [True, np.True_, (True, 1), False], ids=repr)
def test_getitem_bool_key_is_advanced(key):
    x = np.arange(6.0).reshape(2, 3)
    assert not _is_basic_key(key)  # a[True] is a copy with a new leading axis, not a view
    cot = np.arange(1.0, 1.0 + x[key].size).reshape(x[key].shape)
    ref = np.zeros(x.shape)
    np.add.at(ref, key, cot)
    assert np.array_equal(_getitem_grad(x, key, cot), ref)


def test_getitem_true_key_gradient_is_the_cotangent():
    cot = np.arange(1.0, 7.0).reshape(1, 2, 3)
    assert np.array_equal(_getitem_grad(np.zeros((2, 3)), True, cot), cot[0])


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
