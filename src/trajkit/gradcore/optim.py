"""Adam over named arrays: fixed betas, no weight decay, optional global-norm clip."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import CHUNK

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimState:
    lr: float
    clip_norm: float = 0.0  # global-norm clip, applied before moments; 0: no clip
    step: int = 0
    # the moments, one flat buffer each (2, total size), parameters in their
    # optim_init order; m and v hold each parameter's view of its row
    moments: np.ndarray = field(default_factory=lambda: np.zeros((2, 0)), repr=False)
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optim_init(params: dict, lr: float, clip_norm: float = 0.0) -> OptimState:
    state = OptimState(lr=lr, clip_norm=clip_norm,
                       moments=np.zeros((2, sum(np.size(p) for p in params.values()))))
    start = 0
    for name, p in params.items():
        stop = start + np.size(p)
        state.m[name] = state.moments[0, start:stop].reshape(np.shape(p))
        state.v[name] = state.moments[1, start:stop].reshape(np.shape(p))
        start = stop
    return state


def optim_step(params: dict, grads: dict, state: OptimState) -> dict:
    """One Adam update; returns new params, mutates `state` moments/counter.

    Rejects non-finite gradients before touching anything so a failed step
    never leaves params half-updated.  The update runs over flat copies of
    the gradients and parameters CHUNK elements at a time, with each
    element's arithmetic that of the per-array update; the new params are
    views of one fresh buffer.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"optim_step: grad shape {g.shape} != param shape {p.shape} for {name!r}")
    names = list(state.m)
    flat_g = np.concatenate([grads[name].reshape(-1) for name in names])
    if not np.isfinite(flat_g).all():
        bad = next(name for name in names if not np.all(np.isfinite(grads[name])))
        raise FloatingPointError(f"optim_step: non-finite gradient for {bad!r}")

    if state.clip_norm:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > state.clip_norm:
            flat_g *= state.clip_norm / total

    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    flat_p = np.concatenate([params[name].reshape(-1) for name in names])
    flat_m, flat_v = state.moments
    new = np.empty_like(flat_p)
    a, b = np.empty((2, min(CHUNK, new.size)))
    for i in range(0, new.size, CHUNK):
        s, n = slice(i, i + CHUNK), min(CHUNK, new.size - i)
        g, m, v, an, bn = flat_g[s], flat_m[s], flat_v[s], a[:n], b[:n]
        m *= BETA1
        np.multiply(1.0 - BETA1, g, out=an)
        m += an
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=an)
        an *= g
        v += an
        np.divide(m, bc1, out=an)
        np.divide(v, bc2, out=bn)
        np.sqrt(bn, out=bn)
        bn += EPS
        an /= bn  # the update
        an *= state.lr
        np.subtract(flat_p[s], an, out=new[s])
    out, start = {}, 0
    for name in names:
        stop = start + state.m[name].size
        # [()] returns a 0-d parameter as a numpy scalar, as p - lr * update does
        out[name] = new[start:stop].reshape(params[name].shape)[()]
        start = stop
    return out
