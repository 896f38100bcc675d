"""Bit-equality references for gradcore's fused primitives.

Each fused primitive of gradcore does the arithmetic of an op chain in one
tape node.  This module holds those chains (the `*_chain` functions) and the
ops they are built of that the package itself does not ship: `matmul`,
`absolute`, `square`, `where`, and `linear` and `tsum` over a chosen axis.
The ops are built on the package's own `tensor._make`, `_unbroadcast` and
`_linear`, as a primitive of the package is; tests/test_gradcore.py gives
each its own finite-difference and constant-operand checks, and compares
each fused primitive with its chain, forward bytes and adjoint bytes.

The numpy references at the end hold the arithmetic that a faster form in
the package must match to the bit: `adam_step` is optim_step's update one
parameter array at a time, which the package runs over flat chunks,
`normalize_coords` and
`denormalize_coords` are the per-axis expressions that trajfield's functions
of those names compute in place, `coarse_positions` adds the anchors to the
whole dense field before it keeps one pixel per cell (tests/test_trajfield.py
compares all three), and `vepe` is the metric's `np.linalg.norm` form
(tests/test_metrics.py compares them).
"""

import numpy as np

from trajkit import gradcore as gc, trajfield
from trajkit.gradcore import optim, tensor
from trajkit.gradcore.tensor import Tensor, as_tensor


def matmul(a, b) -> Tensor:
    """a @ b of two 2-D operands."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data
    if not tensor._needs_grad((a, b)):
        return Tensor(out, _op="matmul")
    return tensor._make(out, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g), "matmul")


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out = np.abs(a.data)
    if not tensor._needs_grad((a,)):
        return Tensor(out, _op="abs")
    sign = np.sign(a.data)
    return tensor._make(out, (a,), (lambda g: g * sign,), "abs")


def square(a) -> Tensor:
    return gc.mul(a, a)


def where(mask, a, b) -> Tensor:
    """Select by a constant boolean mask; the mask never carries gradient."""
    mask = np.asarray(mask, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(mask, a.data, b.data)
    if not tensor._needs_grad((a, b)):
        return Tensor(out, _op="where")
    return tensor._make(out, (a, b),
                        (lambda g: tensor._unbroadcast(np.where(mask, g, 0.0), a.shape),
                         lambda g: tensor._unbroadcast(np.where(mask, 0.0, g), b.shape)), "where")


def linear(x, w, b, axis) -> Tensor:
    """gc.linear over any axis of x: the package's `_linear`, which
    residual_mlp calls at the axis it mixes."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    axis %= x.data.ndim
    if not tensor._needs_grad((x, w, b)):
        return Tensor(tensor._linear(x.data, w.data, b.data, axis)[0], _op="linear")
    out, vjps = tensor._linear(x.data, w.data, b.data, axis, w.requires_grad + b.requires_grad)
    return tensor._make(out, (x, w, b), vjps, "linear")


def tsum(a, axis) -> Tensor:
    """The sum over one axis of a."""
    a = as_tensor(a)
    out = a.data.sum(axis=axis)
    if not tensor._needs_grad((a,)):
        return Tensor(out, _op="sum")
    return tensor._make(
        out, (a,), (lambda g: np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),), "sum")


def linear_chain(x, w, b, axis) -> Tensor:
    """The regroup/matmul/add/regroup chain of linear over `axis`: the mixed
    axis moved last and flattened, multiplied, biased and moved back."""
    x = as_tensor(x)
    ndim, fan_out = x.data.ndim, w.shape[1]
    perm = [i for i in range(ndim) if i != axis % ndim] + [axis % ndim]
    moved = tuple(x.shape[i] for i in perm)
    out_shape = list(x.shape)
    out_shape[axis] = fan_out
    out = gc.add(matmul(gc.regroup(x, x.shape, perm, (-1, moved[-1])), w), b)
    return gc.regroup(out, (*moved[:-1], fan_out), np.argsort(perm), out_shape)


def residual_chain(h, w1, b1, w2, b2, axis) -> Tensor:
    """The linear/gelu/linear/add chain residual_mlp replaces."""
    return gc.add(h, linear(gc.gelu(linear(h, w1, b1, axis)), w2, b2, axis))


def huber_chain(x, target, weight, delta) -> Tensor:
    """The add/absolute/square/mul/add/where/tsum/mul/reshape/tsum chain huber
    replaces."""
    r = gc.add(x, -target)
    mag = absolute(r)
    quad = gc.mul(square(r), 0.5)
    lin = gc.add(gc.mul(mag, delta), -0.5 * delta * delta)
    rho = tsum(where(mag.data <= delta, quad, lin), -1)
    return tsum(gc.reshape(gc.mul(rho, weight), (x.shape[0], -1)), 1)


def weighted_sq_chain(x, target, weights) -> Tensor:
    """The add/square/tsum/mul/reshape/tsum/mul chain weighted_sq replaces."""
    b, c = x.shape[0], x.shape[3]
    sq = tsum(square(gc.add(x, -target)), 3)
    return gc.mul(tsum(gc.reshape(gc.mul(sq, weights), (b, -1)), 1), 1.0 / c)


def shift_l1_chain(x, hop, axis, target, weight) -> Tensor:
    """The masked-L1 chain shift_l1 replaces, from getitem/mul/add/absolute/
    tsum/reshape."""
    x = as_tensor(x)
    lead = (slice(None),) * axis
    diff = gc.add(x[lead + (slice(hop, None),)], gc.mul(x[lead + (slice(None, -hop),)], -1.0))
    l1 = tsum(absolute(gc.add(diff, -target)), 4)
    return tsum(gc.reshape(gc.mul(l1, weight), (weight.shape[0], -1)), 1)


def adam_step(params, grads, m, v, t, lr, clip_norm=None) -> dict:
    """Step t (from 1) of Adam with optim_step's clip: the new params; the
    moment dicts m and v, one array per parameter, are updated in place."""
    if clip_norm is not None:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > clip_norm:
            scale = clip_norm / total
            grads = {k: g * scale for k, g in grads.items()}
    bc1 = 1.0 - optim.BETA1 ** t
    bc2 = 1.0 - optim.BETA2 ** t
    out = {}
    for name, p in params.items():
        g = grads[name]
        m[name] *= optim.BETA1
        m[name] += (1.0 - optim.BETA1) * g
        v[name] *= optim.BETA2
        v[name] += (1.0 - optim.BETA2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + optim.EPS)
        out[name] = p - lr * update
    return out


def normalize_coords(coords_px, height: int, width: int) -> np.ndarray:
    coords_px = np.asarray(coords_px, dtype=np.float64)
    out = np.empty_like(coords_px)
    out[..., 0] = 2.0 * (coords_px[..., 0] + 0.5) / width - 1.0
    out[..., 1] = 2.0 * (coords_px[..., 1] + 0.5) / height - 1.0
    return out


def denormalize_coords(coords_norm, height: int, width: int) -> np.ndarray:
    coords_norm = np.asarray(coords_norm, dtype=np.float64)
    out = np.empty_like(coords_norm)
    out[..., 0] = (coords_norm[..., 0] + 1.0) * width / 2.0 - 0.5
    out[..., 1] = (coords_norm[..., 1] + 1.0) * height / 2.0 - 0.5
    return out


def coarse_positions(field):
    height, width = field.mask.shape[1:]
    s, c = field.stride, field.stride // 2
    sub = trajfield.to_absolute(field.offsets)[:, c::s, c::s, :]
    return denormalize_coords(sub, height, width), field.mask[:, c::s, c::s].copy()


def vepe(pred, target, visibility) -> float:
    vis = np.asarray(visibility).astype(bool)
    err = np.linalg.norm(np.asarray(pred, dtype=np.float64) - target, axis=-1)
    return float(err[vis].mean())
