"""Reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps a float32 or float64 ndarray.  A primitive with an
operand that requires a gradient records its operands and a vector-Jacobian
closure on the implicit tape (the operand links of the output node);
``backward`` replays those closures in reverse topological order.  A
primitive none of whose operands requires a gradient records nothing: it
computes its value and builds no closure, so a forward pass over constant
parameters builds no tape.  A ``Tensor`` takes ``[]`` (``getitem``) and
``float()``; every other op is a function of this module.

Every primitive computes in its operands' dtype.  Training math runs in
float64 so finite-difference checks stay tight; file storage elsewhere in the
package downcasts to float32, and sampling runs in float32, the precision a
checkpoint stores.  The constants that meet sampling data are Python floats,
which keep a float32 array float32 (a numpy float64 scalar would widen it).
"""

from __future__ import annotations

import math

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


_F64, _F32 = np.dtype(np.float64), np.dtype(np.float32)  # numpy's native float dtype objects


def _floats(x) -> np.ndarray:
    """`x` as an ndarray: float32 or float64 data in its dtype (a native
    ndarray of either as it is), anything else widened to float64."""
    if type(x) is not np.ndarray or (x.dtype is not _F64 and x.dtype is not _F32):
        x = np.asarray(x)
        if x.dtype is not _F32:
            x = np.asarray(x, dtype=np.float64)
    return x


class Tensor:
    """Node on the autodiff tape: value plus links to its operands."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_op")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjps=(), _op="leaf"):
        kept = type(data) is np.ndarray and (data.dtype is _F64 or data.dtype is _F32)
        self.data = data if kept else _floats(data)  # the common case without a call
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

    @property
    def dtype(self):
        return self.data.dtype

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):  # the one op spelled as an operator: x[:, -1:]
        return getitem(self, key)


def as_tensor(x) -> Tensor:
    """Lift numbers/ndarrays into constant Tensors; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _needs_grad(operands) -> bool:
    """True when some operand requires a gradient, so the output is a tape node."""
    for t in operands:
        if t.requires_grad:
            return True
    return False


def _make(data, parents, vjps, op) -> Tensor:
    """A tape node; each primitive returns its constant output before it calls this."""
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjps=tuple(vjps), _op=op)


# -- binary elementwise (broadcasting) ----------------------------------


def _broadcast(op: str, ufunc, a, b):
    """`a` and `b` as Tensors, and `ufunc` of their arrays under numpy
    broadcasting; operands that do not broadcast are a ShapeError of `op`."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        return a, b, ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(op, a.shape, b.shape) from None


def add(a, b) -> Tensor:
    a, b, out = _broadcast("add", np.add, a, b)
    if not _needs_grad((a, b)):
        return Tensor(out, _op="add")
    return _make(out, (a, b), (lambda g: _unbroadcast(g, a.shape),
                               lambda g: _unbroadcast(g, b.shape)), "add")


def mul(a, b) -> Tensor:
    a, b, out = _broadcast("mul", np.multiply, a, b)
    if not _needs_grad((a, b)):
        return Tensor(out, _op="mul")
    return _make(out, (a, b), (lambda g: _unbroadcast(g * b.data, a.shape),
                               lambda g: _unbroadcast(g * a.data, b.shape)), "mul")


def div(a, b) -> Tensor:
    a, b, out = _broadcast("div", np.divide, a, b)
    if not _needs_grad((a, b)):
        return Tensor(out, _op="div")
    return _make(out, (a, b), (lambda g: _unbroadcast(g / b.data, a.shape),
                               lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)), "div")


def _shared(make, uses: int):
    """An adjoint part that `uses` adjoint calls of one node read: made by
    the first call with an output adjoint `g`, handed to the others with
    the same `g`, and dropped by the last, so it lives only while the node
    replays."""
    held = []  # [g, part, calls still to come]

    def part(g):
        if held and held[0] is g:
            value = held[1]
            held[2] -= 1
            if not held[2]:
                held.clear()
            return value
        value = make(g)
        if uses > 1:
            held[:] = [g, value, uses - 1]
        return value

    return part


def _linear(x, w, b, axis, wb_grads=None):
    """x @ w + b over `axis` (in range) of array x.  The last axis is one 2-D
    product on x reshaped to 2-D (a view when x is contiguous); any other,
    which only residual_mlp mixes, is swapped with axis -2 and mixed by a
    batched left product w.T @ x, so x is not copied to move it last.
    Returns (out, None) for a constant output; given `wb_grads`, how many of
    the weight and bias adjoints backward calls, returns (out, (x adjoint,
    w adjoint, b adjoint)) as functions of the output adjoint g.  The weight
    and bias adjoints share one copy of g with `axis` moved last, flattened
    to 2-D, so they sum over the other axes in the order of the chain that
    moves `axis` last, flattens, multiplies and adds, to the bit."""
    last = axis == x.ndim - 1
    if last:
        out = x.reshape(-1, w.shape[0]) @ w
        out += b
        out = out.reshape(*x.shape[:-1], w.shape[1])
    else:
        out = np.matmul(w.T, x.swapaxes(axis, -2))
        out += b[:, None]
        out = out.swapaxes(-2, axis)
    if wb_grads is None:
        return out, None
    others = [i for i in range(x.ndim) if i != axis]

    def flat_g(g):  # the output adjoint with `axis` moved last, flattened to 2-D
        return g.transpose(*others, axis).reshape(-1, w.shape[1])

    fg = _shared(flat_g, wb_grads)
    if last:
        dx = lambda g: (flat_g(g) @ w.T).reshape(x.shape)
        dw = lambda g: x.reshape(-1, w.shape[0]).T @ fg(g)
    else:  # np.tensordot(x, g, axes=(others, others)), spelled out to share fg
        dx = lambda g: np.matmul(w, g.swapaxes(axis, -2)).swapaxes(-2, axis)
        dw = lambda g: np.dot(x.transpose(axis, *others).reshape(w.shape[0], -1), fg(g))
    return out, (dx, dw, lambda g: fg(g).sum(axis=0))


def linear(x, w, b) -> Tensor:
    """x @ w + b over the last axis of N-D x: one tape node (see _linear)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    if wd.ndim != 2 or bd.shape != wd.shape[1:] or xd.shape[-1:] != wd.shape[:1]:
        raise ShapeError("linear", xd.shape, wd.shape, bd.shape)
    axis = xd.ndim - 1
    if not (x.requires_grad or w.requires_grad or b.requires_grad):
        return Tensor(_linear(xd, wd, bd, axis)[0], _op="linear")
    out, vjps = _linear(xd, wd, bd, axis, w.requires_grad + b.requires_grad)
    return _make(out, (x, w, b), vjps, "linear")


def residual_mlp(h, w1, b1, w2, b2, axis=-1) -> Tensor:
    """h + linear(gelu(linear(h, w1, b1)), w2, b2) as one node, both
    products mixing `axis` of h.

    The forward repeats linear's, gelu's and add's arithmetic in the chain's
    order; tests/reference_ops.py holds that chain, at any axis.  For its
    adjoints the node keeps gelu's derivative and output, not the inner
    linear's output, gelu's tanh or the outer linear's output.  `h` is
    listed twice: its first adjoint passes g on, as add's does, and its
    second is the inner chain's, so backward adds them into h in the chain's
    order."""
    h, w1, b1, w2, b2 = as_tensor(h), as_tensor(w1), as_tensor(b1), as_tensor(w2), as_tensor(b2)
    hd, w1d, b1d, w2d, b2d = h.data, w1.data, b1.data, w2.data, b2.data
    s1, s2, nd = w1d.shape, w2d.shape, hd.ndim
    if (w1d.ndim != 2 or s2 != s1[::-1] or b1d.shape != s1[1:] or b2d.shape != s2[1:]
            or not -nd <= axis < nd or hd.shape[axis] != s1[0]):
        raise ShapeError("residual_mlp", hd.shape, s1, b1d.shape, s2, b2d.shape)
    axis %= nd
    if not (h.requires_grad or w1.requires_grad or b1.requires_grad
            or w2.requires_grad or b2.requires_grad):
        a = _gelu(_linear(hd, w1d, b1d, axis)[0])[0]
        return Tensor(hd + _linear(a, w2d, b2d, axis)[0], _op="residual_mlp")
    m, (dx1, dw1, db1) = _linear(hd, w1d, b1d, axis, w1.requires_grad + b1.requires_grad)
    a, local = _gelu(m, derivative=True)
    del m  # no adjoint reads it: freed before the outer linear allocates
    y, (dx2, dw2, db2) = _linear(a, w2d, b2d, axis, w2.requires_grad + b2.requires_grad)
    y += hd  # y is the outer linear's fresh output, which no adjoint reads

    def inner(g):  # the inner linear's output adjoint: dx2's fresh output times local
        dm = dx2(g)
        dm *= local
        return dm

    # read by h's second adjoint, w1's and b1's
    dm = _shared(inner, h.requires_grad + w1.requires_grad + b1.requires_grad)
    return _make(y, (h, h, w1, b1, w2, b2),
                 (lambda g: g, lambda g: dx1(dm(g)), lambda g: dw1(dm(g)),
                  lambda g: db1(dm(g)), dw2, db2), "residual_mlp")


# -- unary elementwise ---------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    if not _needs_grad((a,)):
        return Tensor(out, _op="exp")
    return _make(out, (a,), (lambda g: g * out,), "exp")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    if not _needs_grad((a,)):
        return Tensor(out, _op="sigmoid")
    return _make(out, (a,), (lambda g: g * out * (1.0 - out),), "sigmoid")


def softplus(a) -> Tensor:
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    if not _needs_grad((a,)):
        return Tensor(out, _op="softplus")
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), (lambda g: g * sig,), "softplus")


_GELU_C = math.sqrt(2.0 / math.pi)


# Elements per chunk of the elementwise passes over large arrays (gelu's and
# Adam's): a chunk's operands, outputs and scratch stay in a 2 MB per-core L2.
CHUNK = 16384


def _gelu_into(x, out, local, th, hx):
    """gelu's value at array x into `out` and, unless `local` is None, its
    derivative into `local`, through scratch arrays th and hx (hx unread
    without `local`) of x's shape.  0.5 * x and 1 + th are computed once,
    for the value and the derivative both."""
    np.multiply(x, x, out=th)  # x ** 3 goes through libm pow
    th *= x
    th *= 0.044715
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    if local is None:
        np.multiply(0.5, x, out=out)
        th += 1.0
        out *= th
        return
    np.add(th, 1.0, out=local)
    np.multiply(0.5, x, out=hx)
    np.multiply(hx, local, out=out)
    local *= 0.5
    th *= th
    np.subtract(1.0, th, out=th)  # sech2
    hx *= th
    np.multiply(x, 3 * 0.044715, out=th)
    th *= x
    th += 1.0
    th *= _GELU_C  # d_inner
    hx *= th
    local += hx


def _gelu(x, derivative=False):
    """gelu's value at array x and, with `derivative`, its derivative there:
    (out, local), local None without it; the input adjoint is local * g.

    Both have x's layout.  An array of more than CHUNK elements goes through
    its memory order chunk by chunk, so each chunk's scratch stays in cache
    and writes straight into the outputs; one whose elements do not fill its
    memory in one order is copied C-contiguous first."""
    if x.size > CHUNK and not np.may_share_memory(x.ravel(order="K"), x):
        x = np.ascontiguousarray(x)
    out = np.empty_like(x)
    local = np.empty_like(x) if derivative else None
    if x.size <= CHUNK:
        _gelu_into(x, out, local, np.empty_like(x), np.empty_like(x) if derivative else None)
        return out, local
    xf, of = x.ravel(order="K"), out.ravel(order="K")
    lf = None if local is None else local.ravel(order="K")
    th, hx = np.empty((2, CHUNK), x.dtype)
    for i in range(0, x.size, CHUNK):
        s, n = slice(i, i + CHUNK), min(CHUNK, x.size - i)
        _gelu_into(xf[s], of[s], None if lf is None else lf[s], th[:n], hx[:n])
    return out, local


def gelu(a) -> Tensor:
    """Tanh-form GELU as a single primitive with its analytic adjoint.

    Computed in place, in the association order of
    out = 0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))) and
    g * (0.5 * (1 + th) + 0.5 * x * sech2 * (c * (1 + 3 * 0.044715 * x * x))).
    The derivative factor is computed in the forward, so the node keeps it
    alone, not x and th."""
    a = as_tensor(a)
    if not _needs_grad((a,)):
        return Tensor(_gelu(a.data)[0], _op="gelu")
    out, local = _gelu(a.data, derivative=True)
    return _make(out, (a,), (lambda g: local * g,), "gelu")


def _instance_sums(cell, weight):
    """The (b,) sums of weight * cell over every axis of a (b, ...) `cell`
    but the first; `cell` is scaled in place."""
    cell *= weight
    return cell.reshape(cell.shape[0], -1).sum(axis=1)


def _spread(weight, g):
    """_instance_sums' adjoint for `cell`: weight * g, each instance's g spread over its cells."""
    return weight * g.reshape(-1, *(1,) * (weight.ndim - 1))


def huber(x, target, weight, delta: float) -> Tensor:
    """sum weight * (rho(d_x) + rho(d_y)) per instance of (B, ..., 2) `x`, with
    d = x - target, rho(r) = r * r * 0.5 where |r| <= delta and
    |r| * delta - 0.5 * delta * delta elsewhere: a (B,) Tensor, one node.

    The arithmetic is the add/absolute/square/mul/add/where/tsum/mul/reshape/
    tsum chain's, which tests/reference_ops.py holds.  `x` is listed once,
    with one contribution (s + s) + m, the square's two parts and then the
    magnitude's, summed as the chain's backward sums them into the difference
    before add passes them on.  The node keeps d, the mask |d| <= delta and
    the weight."""
    x = as_tensor(x)
    target, weight = np.asarray(target, x.dtype), np.asarray(weight, x.dtype)
    if (x.data.ndim < 2 or x.shape[-1] != 2 or target.shape != x.shape
            or weight.shape != x.shape[:-1]):
        raise ShapeError("huber", x.shape, target.shape, weight.shape)
    d = np.negative(target)  # x + -target, the chain's difference down to a NaN's sign
    np.add(x.data, d, out=d)
    lin = np.abs(d)
    mask = lin <= delta
    quad = d * d
    quad *= 0.5
    lin *= delta
    lin += -0.5 * delta * delta
    rho = np.where(mask, quad, lin)
    # rho is never -0.0, so the planes' sum has the bytes of .sum(axis=-1),
    # which walks the length-2 axis one row at a time
    out = _instance_sums(rho[..., 0] + rho[..., 1], weight)
    if not _needs_grad((x,)):
        return Tensor(out, _op="huber")

    def vjp(g):
        w = _spread(weight, g)
        g = np.empty_like(d)
        g[..., 0] = w
        g[..., 1] = w
        s = np.where(mask, g, 0.0)
        s *= 0.5
        s *= d
        m = np.where(mask, 0.0, g)
        m *= delta
        m *= np.sign(d)
        s += s
        s += m
        return s

    return _make(out, (x,), (vjp,), "huber")


def weighted_sq(x, target, weights) -> Tensor:
    """(1/C) sum_{k,n} weights(k,n) ||x(k,n) - target(k,n)||^2 per instance
    of (B, K, N, C) `x`, with constant `target` and (B, K, N) `weights`: a
    (B,) Tensor, one node.

    The arithmetic is the add/square/tsum/mul/reshape/tsum/mul chain's,
    which tests/reference_ops.py holds.  `x` is listed once, with one
    contribution t + t: the chain's backward sums the square's two adjoints t
    into the difference before add passes that sum on, so backward adds it to
    the contributions of x's other consumers as one array, as it does for
    the chain."""
    x = as_tensor(x)
    target, weights = np.asarray(target, x.dtype), np.asarray(weights, x.dtype)
    if x.data.ndim != 4 or target.shape != x.shape or weights.shape != x.shape[:3]:
        raise ShapeError("weighted_sq", x.shape, target.shape, weights.shape)
    c = x.shape[3]
    d = np.negative(target)  # x + -target, the chain's difference down to a NaN's sign
    np.add(x.data, d, out=d)
    out = _instance_sums((d * d).sum(axis=3), weights)
    out *= 1.0 / c
    if not _needs_grad((x,)):
        return Tensor(out, _op="weighted_sq")

    def vjp(g):
        t = _spread(weights, g * (1.0 / c))[..., None] * d
        return t + t

    return _make(out, (x,), (vjp,), "weighted_sq")


# -- reductions / structure ----------------------------------------------


def tsum(a) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum()
    if not _needs_grad((a,)):
        return Tensor(out, _op="sum")
    return _make(out, (a,), (lambda g: np.broadcast_to(g, a.shape).copy(),), "sum")


def tmean(a) -> Tensor:
    return mul(tsum(a), 1.0 / as_tensor(a).size)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, shape) from None
    if not _needs_grad((a,)):
        return Tensor(out, _op="reshape")
    return _make(out, (a,), (lambda g: g.reshape(a.shape),), "reshape")


def regroup(a, split, axes, shape) -> Tensor:
    """a.reshape(split).transpose(axes).reshape(shape) as one node: the VAE's
    moves between frames, patches and tokens.  Pure data movement, so the
    adjoint is the inverse regroup of g, with the chain's bytes both ways."""
    a = as_tensor(a)
    try:
        moved = a.data.reshape(split).transpose(axes)
        out = moved.reshape(shape)
    except ValueError:
        raise ShapeError("regroup", a.shape, split, shape) from None
    if not _needs_grad((a,)):
        return Tensor(out, _op="regroup")
    moved_shape, inv = moved.shape, tuple(np.argsort(axes))
    return _make(out, (a,), (lambda g: g.reshape(moved_shape).transpose(inv).reshape(a.shape),),
                 "regroup")


def concat(tensors, axis=0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[t.shape for t in ts]) from None
    if not _needs_grad(ts):
        return Tensor(out, _op="concat")
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return _make(out, ts, tuple(make_vjp(i) for i in range(len(ts))), "concat")


def _is_int(v) -> bool:
    """An integer, not a bool: `bool` subclasses `int`, but `a[True]` is
    advanced indexing, which copies."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_basic_key(key) -> bool:
    """True when `a[key]` is a view (numpy basic indexing), so no element repeats."""
    items = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice) or _is_int(k) for k in items)


def getitem(a, key) -> Tensor:
    """a[key] for a view key, one that `_is_basic_key` accepts and that leaves
    an axis; its adjoint is a slice contribution, added into the keyed slice.
    Any other key is a ValueError."""
    a = as_tensor(a)
    if not _is_basic_key(key) or (out := a.data[key]).ndim == 0:
        raise ValueError(f"getitem: key {key!r} is not a view with an axis")
    if not _needs_grad((a,)):
        return Tensor(out, _op="getitem")
    return _make(out, (a,), (lambda g: (key, g, np.add),), "getitem")


def shift_l1(a, hop, axis, target, weight) -> Tensor:
    """Weighted L1 of a hop-difference's mismatch, per instance, as one node.

    With d = a[hop:] - a[:-hop] - target along `axis` (neither the leading
    instance axis nor the trailing length-2 coordinate axis), returns the
    (b,) sums of weight * (|d_x| + |d_y|).  `a` is listed once per slice, so
    its two adjoints accumulate like those of a getitem/mul/add chain.  The
    weight is bool only, any other dtype a TypeError.  The node keeps it, a
    byte a cell, widened only inside the products, exact for 0 and 1, and a
    float32 sign of d."""
    a = as_tensor(a)
    if (not _is_int(hop) or not _is_int(axis) or not 1 <= axis < a.data.ndim - 1
            or a.shape[-1] != 2 or not 1 <= hop < a.shape[axis]):
        raise ShapeError("shift_l1", a.shape, (hop, axis))
    target, weight, dtype = np.asarray(target, a.dtype), np.asarray(weight), a.dtype
    if weight.dtype != bool:
        raise TypeError(f"shift_l1: weight dtype {weight.dtype}, not bool")
    lead = (slice(None),) * axis
    hi, lo = lead + (slice(hop, None),), lead + (slice(None, -hop),)
    d = a.data[hi] - a.data[lo]
    if target.shape != d.shape or weight.shape != d.shape[:-1]:
        raise ShapeError("shift_l1", d.shape, target.shape, weight.shape)
    d += -target  # the chain's difference down to a NaN's sign
    mag = np.abs(d)
    out = _instance_sums(mag[..., 0] + mag[..., 1], weight)
    if not _needs_grad((a,)):
        return Tensor(out, _op="shift_l1")
    sign = np.sign(d, out=np.empty(d.shape, np.float32))  # -1, 0, 1 and nan are exact

    def cotangent(g):  # sign(d) * weight * g
        w = _spread(weight, g)
        dd = sign.astype(dtype)
        dd[..., 0] *= w
        dd[..., 1] *= w
        return dd

    shared = _shared(cotangent, 2)  # read by both slice adjoints

    def scatter(key, ufunc):  # a slice contribution: ufunc(adjoint[key], cotangent)
        return lambda g: (key, shared(g), ufunc)

    return _make(out, (a, a), (scatter(hi, np.add), scatter(lo, np.subtract)), "shift_l1")


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
        g = grads.pop(id(node))  # an operand of a node replayed before it
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
                    acc = grads[pid] = (np.zeros(parent.shape, parent.dtype) if acc is None
                                        else np.array(acc))
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
