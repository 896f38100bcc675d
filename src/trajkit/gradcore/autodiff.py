"""Gradient evaluation and finite-difference verification."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, backward

STEP = 1e-5  # grad_check's central-difference step


class GradCheckError(RuntimeError):
    """Raised when finite-difference probing hits a non-finite value."""


def grad(f, inputs):
    """Evaluate scalar `f` at `inputs` and return (value, gradients).

    `inputs` is a sequence of ndarrays; `f` receives one Tensor per input
    and must return a scalar Tensor.
    """
    xs = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = f(*xs)
    gs = backward(out, xs)
    return float(out.data), gs


def grad_check(f, inputs) -> float:
    """Max relative error between analytic adjoints and central differences.

    Error per coordinate is |analytic - fd| / max(1, |fd|), fd the central
    difference of step STEP; the max over all coordinates of all inputs is
    returned.
    """
    inputs = [np.array(x, dtype=np.float64) for x in inputs]
    _, analytic = grad(f, inputs)
    worst = 0.0
    for i, x in enumerate(inputs):
        flat = x.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + STEP
            up, _ = _eval(f, inputs, i, j)
            flat[j] = orig - STEP
            dn, _ = _eval(f, inputs, i, j)
            flat[j] = orig
            fd = (up - dn) / (2.0 * STEP)
            if not np.isfinite(fd):
                raise GradCheckError(f"non-finite probe at input {i}, coordinate {j}")
            err = abs(analytic[i].reshape(-1)[j] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    return worst


def _eval(f, inputs, i, j):
    out = f(*[Tensor(x) for x in inputs])
    val = float(out.data)
    if not np.isfinite(val):
        raise GradCheckError(f"non-finite value while probing input {i}, coordinate {j}")
    return val, out
