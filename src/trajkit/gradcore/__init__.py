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
    huber,
    linear,
    matmul,
    mul,
    regroup,
    reshape,
    residual_mlp,
    shift_l1,
    sigmoid,
    softplus,
    square,
    tmean,
    tsum,
    weighted_sq,
    where,
)

__all__ = [
    "GradCheckError", "grad", "grad_check",
    "OptimState", "optim_init", "optim_step",
    "Rng", "rng",
    "ShapeError", "Tensor", "absolute", "add", "as_tensor", "backward",
    "concat", "div", "exp", "gelu", "getitem", "huber", "linear", "matmul",
    "mul", "regroup", "reshape", "residual_mlp", "shift_l1", "sigmoid", "softplus",
    "square", "tmean", "tsum", "weighted_sq", "where",
]
