"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps a float64 ndarray.  Every primitive records its operands
and a vector-Jacobian closure on the implicit tape (the operand links of the
output node); ``backward`` replays those closures in reverse topological
order.  ``stop_gradient`` cuts the tape: nothing upstream of it receives
adjoint contributions.

Training math runs in float64 so finite-difference checks stay tight; file
storage elsewhere in the package downcasts to float32.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when a primitive receives incompatibly shaped operands."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Node on the autodiff tape: value plus links to its operands."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_op")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjps=(), _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._vjps = _vjps
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other, dtype=np.float64))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def as_tensor(x) -> Tensor:
    """Lift numbers/ndarrays into constant Tensors; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _make(data, parents, vjps, op) -> Tensor:
    need = any(p.requires_grad for p in parents)
    if not need:
        return Tensor(data, _op=op)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjps=tuple(vjps), _op=op)


# -- binary elementwise (broadcasting) ----------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None
    return _make(out, (a, b), (lambda g: _unbroadcast(g, a.shape),
                               lambda g: _unbroadcast(g, b.shape)), "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None
    return _make(out, (a, b), (lambda g: _unbroadcast(g * b.data, a.shape),
                               lambda g: _unbroadcast(g * a.data, b.shape)), "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data / b.data
    except ValueError:
        raise ShapeError("div", a.shape, b.shape) from None
    return _make(out, (a, b), (lambda g: _unbroadcast(g / b.data, a.shape),
                               lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)), "div")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = a.data @ b.data
    return _make(out, (a, b), (lambda g: g @ b.data.T,
                               lambda g: a.data.T @ g), "matmul")


def linear(x, w, b, axis=-1) -> Tensor:
    """x @ w + b over one axis of N-D x: one tape node.

    The last axis is one 2-D product on x reshaped to 2-D (a view when x is
    contiguous); any other axis is swapped with axis -2 and mixed by a batched
    left product w.T @ x, so x is not copied to move it last.  The weight and
    bias adjoints sum over the other axes in their order, as the chain that
    moves `axis` last, flattens, multiplies and adds does, to the bit."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (w.data.ndim != 2 or b.shape != w.shape[1:] or not -x.data.ndim <= axis < x.data.ndim
            or x.shape[axis] != w.shape[0]):
        raise ShapeError("linear", x.shape, w.shape, b.shape)
    axis %= x.data.ndim
    others = [i for i in range(x.data.ndim) if i != axis]

    def flat_g(g):  # the output adjoint with `axis` moved last, flattened to 2-D
        return g.transpose(*others, axis).reshape(-1, w.shape[1])

    if axis == x.data.ndim - 1:
        out = x.data.reshape(-1, w.shape[0]) @ w.data
        out += b.data
        return _make(out.reshape(*x.shape[:-1], w.shape[1]), (x, w, b), (
            lambda g: (flat_g(g) @ w.data.T).reshape(x.shape),
            lambda g: x.data.reshape(-1, w.shape[0]).T @ flat_g(g),
            lambda g: flat_g(g).sum(axis=0)), "linear")
    out = np.matmul(w.data.T, x.data.swapaxes(axis, -2))
    out += b.data[:, None]
    return _make(out.swapaxes(-2, axis), (x, w, b), (
        lambda g: np.matmul(w.data, g.swapaxes(axis, -2)).swapaxes(-2, axis),
        lambda g: np.tensordot(x.data, g, axes=(others, others)),
        lambda g: flat_g(g).sum(axis=0)), "linear")


# -- unary elementwise ---------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), (lambda g: g * out,), "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)
    return _make(out, (a,), (lambda g: g / a.data,), "log")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), (lambda g: g * (1.0 - out * out),), "tanh")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), (lambda g: g * out * (1.0 - out),), "sigmoid")


def softplus(a) -> Tensor:
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), (lambda g: g * sig,), "softplus")


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a) -> Tensor:
    """Tanh-form GELU as a single primitive with its analytic adjoint.

    Computed in place, in the association order of
    out = 0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))) and
    g * (0.5 * (1 + th) + 0.5 * x * sech2 * (c * (1 + 3 * 0.044715 * x * x)))."""
    a = as_tensor(a)
    x = a.data
    th = np.multiply(x, x, out=np.empty_like(x))  # x ** 3 goes through libm pow
    th *= x
    th *= 0.044715
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    out = np.multiply(0.5, x, out=np.empty_like(x))
    out *= 1.0 + th

    def vjp(g):
        t = np.multiply(th, th, out=np.empty_like(x))
        np.subtract(1.0, t, out=t)  # sech2
        rhs = np.multiply(0.5, x, out=np.empty_like(x))
        rhs *= t
        np.multiply(x, 3 * 0.044715, out=t)
        t *= x
        t += 1.0
        t *= _GELU_C  # d_inner
        rhs *= t
        np.add(th, 1.0, out=t)
        t *= 0.5
        t += rhs
        t *= g
        return t

    return _make(out, (a,), (vjp,), "gelu")


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out = np.abs(a.data)
    sign = np.sign(a.data)
    return _make(out, (a,), (lambda g: g * sign,), "abs")


def square(a) -> Tensor:
    return mul(a, a)


def where(mask, a, b) -> Tensor:
    """Select by a constant boolean mask; the mask never carries gradient."""
    mask = np.asarray(mask, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(mask, a.data, b.data)
    return _make(out, (a, b), (lambda g: _unbroadcast(np.where(mask, g, 0.0), a.shape),
                               lambda g: _unbroadcast(np.where(mask, 0.0, g), b.shape)), "where")


# -- reductions / structure ----------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).copy() if np.ndim(g) == 0 else np.full(a.shape, g)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        return np.broadcast_to(gg, a.shape).copy()

    return _make(out, (a,), (vjp,), "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, shape) from None
    return _make(out, (a,), (lambda g: g.reshape(a.shape),), "reshape")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return _make(out, (a,), (lambda g: g.transpose(inv),), "transpose")


def concat(tensors, axis=0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[t.shape for t in ts]) from None
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return _make(out, ts, tuple(make_vjp(i) for i in range(len(ts))), "concat")


def _is_basic_key(key) -> bool:
    """True when `a[key]` is a view (numpy basic indexing), so no element repeats.

    `bool` subclasses `int`, but `a[True]` is advanced indexing: it copies."""
    items = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in items)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out = a.data[key]
    basic = _is_basic_key(key) and np.ndim(out) > 0  # all-int keys give a scalar, not a view

    def vjp(g):
        if basic:  # a view: a slice contribution, added into the keyed slice
            return key, g, np.add
        full = np.zeros(a.shape)
        np.add.at(full, key, g)  # advanced keys may repeat an index, and add.at accumulates
        return full

    return _make(out, (a,), (vjp,), "getitem")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def shift_l1(a, hop, axis, target, weight) -> Tensor:
    """Weighted L1 of a hop-difference's mismatch, per instance, as one node.

    With d = a[hop:] - a[:-hop] - target along `axis` (neither the leading
    instance axis nor the trailing length-2 coordinate axis), returns the
    (b,) sums of weight * (|d_x| + |d_y|).  `a` is listed once per slice, so
    its two adjoints accumulate like those of a getitem/mul/add chain."""
    a = as_tensor(a)
    if (not _is_int(hop) or not _is_int(axis) or not 1 <= axis < a.data.ndim - 1
            or a.shape[-1] != 2 or not 1 <= hop < a.shape[axis]):
        raise ShapeError("shift_l1", a.shape, (hop, axis))
    target, weight = np.asarray(target, dtype=np.float64), np.asarray(weight, dtype=np.float64)
    lead = (slice(None),) * axis
    hi, lo = lead + (slice(hop, None),), lead + (slice(None, -hop),)
    d = a.data[hi] - a.data[lo]
    if target.shape != d.shape or weight.shape != d.shape[:-1]:
        raise ShapeError("shift_l1", d.shape, target.shape, weight.shape)
    d -= target
    mag = np.abs(d)
    l1 = mag[..., 0] + mag[..., 1]
    l1 *= weight
    held = []  # (g, sign(d) * weight * g): made by the first adjoint, taken by the second

    def cotangent(g):
        if held and held[0][0] is g:
            return held.pop()[1]
        w = weight * g.reshape(-1, *(1,) * (weight.ndim - 1))
        dd = np.sign(d)
        dd[..., 0] *= w
        dd[..., 1] *= w
        held[:] = [(g, dd)]
        return dd

    def scatter(key, ufunc):  # a slice contribution: ufunc(adjoint[key], cotangent)
        return lambda g: (key, cotangent(g), ufunc)

    return _make(l1.reshape(l1.shape[0], -1).sum(axis=1), (a, a),
                 (scatter(hi, np.add), scatter(lo, np.subtract)), "shift_l1")


def stop_gradient(a) -> Tensor:
    """Detach: the value flows forward, no adjoint flows back."""
    a = as_tensor(a)
    return Tensor(a.data, _op="stop_gradient")


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


# -- backward pass --------------------------------------------------------


def backward(out: Tensor, wrt) -> list:
    """Adjoints of scalar `out` w.r.t. each Tensor in `wrt`.

    Tensors in `wrt` that do not influence `out` get zero gradients.  Only
    the `wrt` tensors have `.grad` set; intermediate adjoints are freed as
    soon as their node has been replayed.

    A VJP returns a full adjoint for its operand or a slice contribution
    `(key, value, ufunc)`: ufunc(adjoint[key], value), zeros elsewhere.
    Contributions go in place into accumulators `backward` allocated itself.
    A first full contribution may alias another node's adjoint (`add` passes
    `g` on), so it is never written into: the next full contribution makes a
    new array, a slice contribution copies it first.  0-d adjoints
    (`_unbroadcast` may give an `np.float64`) are summed out of place.  Adding
    a slice in place gives the floats of adding zeros around it, in the same
    order, except that a -0.0 accumulator entry may stay -0.0 where
    `acc + zeros` gives +0.0; the two compare equal.
    """
    if out.data.size != 1:
        raise ShapeError("backward", out.shape)
    targets = {id(t) for t in wrt}
    for t in wrt:
        t.grad = None
    # Postorder over the recorded tape (operands append before consumers);
    # the graph is a DAG by construction, so the gray-node case cannot occur.
    order: list[Tensor] = []
    visited = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    grads = {id(out): np.ones_like(out.data)}
    owned = set()  # ids of the nodes whose accumulator backward allocated
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) in targets:
            node.grad = g
        for parent, vjp in zip(node._parents, node._vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            pid = id(parent)
            acc = grads.get(pid)
            if isinstance(contrib, tuple):
                key, value, ufunc = contrib
                if pid not in owned:
                    acc = grads[pid] = np.zeros(parent.shape) if acc is None else np.array(acc)
                    owned.add(pid)
                ufunc(acc[key], value, out=acc[key])
            elif acc is None:
                grads[pid] = contrib
            elif pid in owned:
                np.add(acc, contrib, out=acc)
            else:
                acc = grads[pid] = acc + contrib
                if np.ndim(acc):
                    owned.add(pid)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in wrt]
