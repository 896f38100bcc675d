"""Dense-tensor numerics: reverse-mode autodiff, Adam, seeded RNG."""

from .autodiff import GradCheckError, grad, grad_check
from .optim import OptimState, optim_init, optim_step
from .rng import Rng, rng
from .tensor import (
    ShapeError,
    Tensor,
    absolute,
    add,
    as_tensor,
    backward,
    concat,
    div,
    exp,
    gelu,
    getitem,
    linear,
    log,
    matmul,
    mul,
    reshape,
    shift_diff,
    sigmoid,
    softplus,
    square,
    stop_gradient,
    tanh,
    tmean,
    transpose,
    tsum,
    where,
    zeros,
)

__all__ = [
    "GradCheckError", "grad", "grad_check",
    "OptimState", "optim_init", "optim_step",
    "Rng", "rng",
    "ShapeError", "Tensor", "absolute", "add", "as_tensor", "backward",
    "concat", "div", "exp", "gelu", "getitem", "linear", "log", "matmul",
    "mul", "reshape", "shift_diff", "sigmoid", "softplus", "square", "stop_gradient",
    "tanh", "tmean", "transpose", "tsum", "where", "zeros",
]
