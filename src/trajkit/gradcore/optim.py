"""Adam over named arrays: fixed betas, no weight decay, optional global-norm clip."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimState:
    lr: float
    clip_norm: float | None = None  # global-norm clip, applied before moments
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optim_init(params: dict, lr: float, clip_norm: float | None = None) -> OptimState:
    state = OptimState(lr=lr, clip_norm=clip_norm)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def optim_step(params: dict, grads: dict, state: OptimState) -> dict:
    """One Adam update; returns new params, mutates `state` moments/counter.

    Rejects non-finite gradients before touching anything so a failed step
    never leaves params half-updated.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"optim_step: grad shape {g.shape} != param shape {p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"optim_step: non-finite gradient for {name!r}")

    if state.clip_norm is not None:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > state.clip_norm:
            scale = state.clip_norm / total
            grads = {k: g * scale for k, g in grads.items()}

    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        out[name] = p - state.lr * update
    return out
