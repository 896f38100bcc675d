"""Dense-tensor numerics: reverse-mode autodiff, Adam, seeded RNG."""

from .autodiff import GradCheckError, grad, grad_check
from .optim import OptimState, optim_init, optim_step
from .rng import Rng, rng
from .tensor import (
    ShapeError,
    Tensor,
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
    mul,
    regroup,
    reshape,
    residual_mlp,
    shift_l1,
    sigmoid,
    softplus,
    tmean,
    tsum,
    weighted_sq,
)

__all__ = [
    "GradCheckError", "grad", "grad_check",
    "OptimState", "optim_init", "optim_step",
    "Rng", "rng",
    "ShapeError", "Tensor", "add", "as_tensor", "backward", "concat", "div",
    "exp", "gelu", "getitem", "huber", "linear", "mul", "regroup", "reshape",
    "residual_mlp", "shift_l1", "sigmoid", "softplus", "tmean", "tsum", "weighted_sq",
]
