"""Rectified-flow machinery and the three training loops.

Covers flow-time sampling, noisy linear interpolation, boundary-anchored
source states, latent normalization, Euler and Dormand-Prince samplers, the
detached K-step rollout, and training for the VAE, the flow generator, the
on-policy fine-tuning stage, and the visibility head, all four through one
shared Adam loop.  Everything is bit-reproducible given (seed, config,
dataset).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import gradcore as gc
from . import lossbank as lb
from .gradcore import Rng
from .gradcore.tensor import _floats
from .models import (
    SEGMENT,
    FlowConfig,
    VaeConfig,
    _with_batch,
    broadcast_token_mask,
    encode_condition,
    latent_steps,
    vae_decode,
    vae_encode,
    velocity_forward,
    visibility_logits,
    visibility_predict,
    init_vae_params,
    init_velocity_params,
    init_visibility_params,
    pool_visibility,
    reparameterize,
    wrap_params,
)
from .rules import (AT_LEAST_0, AT_LEAST_1, AT_LEAST_2, FINITE_NONNEGATIVE, FINITE_POSITIVE,
                    Checked, FieldError, one_of, ranged)
from .trajfield import OffsetField

T_EPS = 1e-5


@dataclass
class SamplerConfig(Checked):
    """sample_future's solver: Euler's steps, or dopri5's tolerances."""

    method: str = ranged("euler", one_of(("euler", "dopri5")))
    steps: int = ranged(10, AT_LEAST_1)
    rtol: float = ranged(1e-5, FINITE_POSITIVE)
    atol: float = ranged(1e-8, FINITE_POSITIVE)


DOPRI5_H_MIN = 1e-13  # dopri5_sample gives up below this step size


def logit_grid(k: int) -> np.ndarray:
    """The (K+1,) flow times of a K-step rollout: the sigmoid of K+1 evenly
    spaced logits from logit(T_EPS) to logit(1 - T_EPS), clamped to that
    interval; they increase strictly."""
    lo = np.log(T_EPS / (1 - T_EPS))
    levels = np.linspace(lo, -lo, k + 1)
    return np.clip(1.0 / (1.0 + np.exp(-levels)), T_EPS, 1 - T_EPS)


@dataclass
class LatentStats:
    """Per-channel normalization statistics fit on a latent corpus."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if np.any(self.std <= 0):
            raise ValueError("latent std must be positive per channel")

    @classmethod
    def fit(cls, latents: np.ndarray) -> "LatentStats":
        flat = np.asarray(latents, dtype=np.float64).reshape(-1, latents.shape[-1])
        std = flat.std(axis=0)
        if np.any(std == 0):
            raise ValueError("latent corpus has a zero-variance channel")
        return cls(flat.mean(axis=0), std)


def _stats_for(z, stats: LatentStats):
    """float32 or float64 `z` (another dtype widened to float64) and the
    statistics' (mean, std) in its dtype."""
    z = _floats(z)
    if z.shape[-1] != stats.mean.shape[0]:
        raise ValueError(f"channel mismatch: {z.shape[-1]} vs {stats.mean.shape[0]}")
    return z, stats.mean.astype(z.dtype, copy=False), stats.std.astype(z.dtype, copy=False)


def normalize_latents(z: np.ndarray, stats: LatentStats) -> np.ndarray:
    z, mean, std = _stats_for(z, stats)
    return (z - mean) / std


def denormalize_latents(z: np.ndarray, stats: LatentStats) -> np.ndarray:
    z, mean, std = _stats_for(z, stats)
    return z * std + mean


def sample_time(rng: Rng) -> float:
    """Mixture flow time: with probability 0.2 uniform on (0, 0.1), else the
    sigmoid of a standard normal; clamped to [1e-5, 1 - 1e-5]."""
    if rng.draw_uniform() < 0.2:
        t = 0.1 * rng.draw_uniform()
    else:
        t = 1.0 / (1.0 + np.exp(-rng.draw_normal()))
    return float(np.clip(t, T_EPS, 1 - T_EPS))


def interpolate(z0: np.ndarray, z1: np.ndarray, t, sigma: float, rng: Rng):
    """Noisy linear interpolant from z0 to z1 at time t (a scalar or one per
    batch item), with tube noise of scale sigma, and its constant target
    velocity."""
    if z0.shape != z1.shape:
        raise ValueError(f"z0/z1 shape mismatch: {z0.shape} vs {z1.shape}")
    if sigma < 0:
        raise ValueError("noise scale sigma must be nonnegative")
    t_arr = np.asarray(t, dtype=np.float64).reshape(-1, *([1] * (z0.ndim - 1)))
    z_t = (1.0 - t_arr) * z0 + t_arr * z1
    if sigma > 0:
        z_t = z_t + sigma * rng.draw_normal(z0.shape)
    return z_t, z1 - z0


def boundary_init(z_hist_last: np.ndarray, cfg: FlowConfig, rng: Rng) -> np.ndarray:
    """Source states (B, future_steps, N, C) of the flow `cfg`: unit Gaussian,
    but for the first future latent step, which is the boundary latents
    (B, N, C) plus noise `cfg.sigma0`; in their dtype (drawn and anchored in
    float64, rounded once)."""
    z_last = _with_batch("boundary_init", z_hist_last, ("B", "N", "C"))
    b, n, c = z_last.shape
    z0 = rng.draw_normal((b, cfg.future_steps, n, c))
    z0[:, 0] = z_last + cfg.sigma0 * rng.draw_normal((b, n, c))
    return z0.astype(z_last.dtype, copy=False)


# -- ODE samplers ------------------------------------------------------------


def euler_sample(v_fn, z0: np.ndarray, steps: int = SamplerConfig.steps) -> np.ndarray:
    """Forward Euler from t=0 to t=1 on a uniform grid, in the dtype of
    float32 or float64 `z0` (another dtype widened to float64)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.array(_floats(z0))
    dt = 1.0 / steps
    for i in range(steps):
        z = z + dt * np.asarray(v_fn(z, i * dt), dtype=z.dtype)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"euler_sample: non-finite state at step {i}")
    return z


# Python floats, so that they keep a float32 state float32
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def dopri5_sample(v_fn, z0: np.ndarray, rtol: float = SamplerConfig.rtol,
                  atol: float = SamplerConfig.atol, h_init: float = 0.01) -> np.ndarray:
    """Adaptive Dormand-Prince 4(5) integration from t=0 to t=1, in the
    dtype of float32 or float64 `z0` (another dtype widened to float64)."""
    for name, value in (("rtol", rtol), ("atol", atol), ("h_init", h_init)):
        if not 0.0 < value < np.inf:  # NaN too: a NaN step never shrinks below DOPRI5_H_MIN
            raise ValueError(f"dopri5_sample: {name} must be a finite number > 0, got {value!r}")
    y = np.array(_floats(z0))
    t = 0.0
    h = min(h_init, 1.0)
    while t < 1.0:
        last = h >= (1.0 - t) * (1.0 - 1e-12)
        if last:
            h = 1.0 - t
        ks = []
        for i in range(7):
            yi = y
            for a, k in zip(_DP_A[i], ks):
                if a != 0.0:
                    yi = yi + h * a * k
            ks.append(np.asarray(v_fn(yi, t + _DP_C[i] * h), dtype=y.dtype))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks) if b != 0.0)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        if np.isfinite(err) and err <= 1.0:  # a non-finite y5 makes err NaN: never accepted
            t = 1.0 if last else t + h
            y = y5
        if not np.isfinite(err):
            h *= 0.2  # reject hard: the trial step blew up
        else:
            factor = 5.0 if err == 0.0 else 0.9 * err ** -0.2
            h *= min(5.0, max(0.2, factor))
        if h < DOPRI5_H_MIN and t < 1.0:
            raise FloatingPointError(f"dopri5_sample: step size underflow at t={t:.6f}")
    return y


def kstep_rollout(v_fn, z0, times: np.ndarray):
    """Detached forward-Euler rollout over the flow times `times`.

    Returns (states, velocities): K+1 float64 state arrays, which carry no
    gradient, and K velocities, which keep their full parameter gradients for
    the rollout losses.
    """
    states = [np.asarray(z0, dtype=np.float64)]
    velocities = []
    for i in range(len(times) - 1):
        v = v_fn(states[i], float(times[i]))
        velocities.append(v)
        states.append(states[i] + v.data * float(times[i + 1] - times[i]))
    return states, velocities


# -- datasets ----------------------------------------------------------------


@dataclass
class SegmentDataset:
    """Offset segments with masks: (M, T, H, W, 2) and (M, T, H, W)."""

    segments: np.ndarray
    masks: np.ndarray

    def __len__(self):
        return self.segments.shape[0]

    def split(self, past_frames: int) -> "PairDataset":
        """Each segment's first `past_frames` frames as its history, the rest
        as its future; every window array is a contiguous copy."""
        frames = self.segments.shape[1]
        if not 1 <= past_frames <= frames - 1:
            raise ValueError(f"past_frames must be in 1..{frames - 1}, got {past_frames}")
        past, future = slice(None, past_frames), slice(past_frames, None)
        return PairDataset(*(np.ascontiguousarray(a[:, w]) for w in (past, future)
                             for a in (self.segments, self.masks)))


@dataclass
class PairDataset:
    """History/future windows per item."""

    past: np.ndarray
    past_masks: np.ndarray
    future: np.ndarray
    future_masks: np.ndarray

    def __len__(self):
        return self.past.shape[0]

    def windows(self) -> SegmentDataset:
        """Every history, then every future, as independent segments."""
        return SegmentDataset(np.concatenate([self.past, self.future]),
                              np.concatenate([self.past_masks, self.future_masks]))


# -- training configs ---------------------------------------------------------


# Share of VAE training steps, at the end, over which the learning rate decays
# linearly to zero; the noise of small batches otherwise sets the loss floor.
VAE_LR_DECAY_SHARE = 0.3


@dataclass
class VaeTrainConfig(Checked):
    vae: VaeConfig = field(default_factory=VaeConfig)
    steps: int = ranged(500, AT_LEAST_0)
    batch: int = ranged(8, AT_LEAST_1)
    lr: float = ranged(2e-5, FINITE_POSITIVE)
    beta: float = ranged(5e-5, FINITE_NONNEGATIVE)
    lambda_temporal: float = ranged(0.1, FINITE_NONNEGATIVE)
    lambda_spatial: float = ranged(0.2, FINITE_NONNEGATIVE)
    neighbor: lb.NeighborSpec = field(default_factory=lb.NeighborSpec)
    # about the steady-state gradient norm: the large gradients of the first
    # steps would otherwise inflate Adam's second moment and starve later updates
    clip_norm: float = ranged(0.1, FINITE_NONNEGATIVE)  # 0: no clip

    def __post_init__(self):
        super().__post_init__()
        side = max(self.vae.height, self.vae.width)  # spatial_loss may use one axis only
        if max(self.neighbor.hops) >= side:
            raise FieldError("hops", self.neighbor.hops, f"below the frame's longer side {side}")


@dataclass
class FlowTrainConfig(Checked):
    flow: FlowConfig = field(default_factory=FlowConfig)
    steps: int = ranged(1000, AT_LEAST_0)
    batch: int = ranged(8, AT_LEAST_1)
    lr: float = ranged(6e-5, FINITE_POSITIVE)
    sigma: float = ranged(0.05, FINITE_NONNEGATIVE)
    invisible_token_weight: float = ranged(0.01, FINITE_NONNEGATIVE)
    clip_norm: float = ranged(1.0, FINITE_NONNEGATIVE)  # 0: no clip
    # train_visibility_head's steps and lr; the fields above are train_flow's
    vis_steps: int = ranged(300, AT_LEAST_0)
    vis_lr: float = ranged(1e-2, FINITE_POSITIVE)


@dataclass
class FinetuneConfig(Checked):
    steps: int = ranged(200, AT_LEAST_0)
    lr: float = ranged(1e-5, FINITE_POSITIVE)
    sub_batch: int = ranged(8, AT_LEAST_1)
    k_steps: int = ranged(8, AT_LEAST_2)  # endpoint_consistency compares consecutive steps
    w1: float = ranged(1.0, FINITE_NONNEGATIVE)
    w0: float = ranged(0.5, FINITE_NONNEGATIVE)
    gamma: float = ranged(0.1, FINITE_NONNEGATIVE)
    lambda_kstep: float = ranged(0.1, FINITE_NONNEGATIVE)


def check_sub_batch(cfg: FinetuneConfig, flow_cfg: FlowTrainConfig) -> None:
    """Raise FieldError unless the rollout's sub-batch fits in the flow batch
    it is cut from (a larger one would silently roll out the whole batch)."""
    if cfg.sub_batch > flow_cfg.batch:
        raise FieldError("sub_batch", cfg.sub_batch, f"at most the flow batch {flow_cfg.batch}")


@dataclass(frozen=True)
class FlowBundle:
    """Everything needed to sample futures end to end.

    A bundle is a value: change it with `dataclasses.replace`, which builds a
    new bundle, and never edit its parameter dicts or arrays in place, since
    the float32 Tensors sample_future samples with are built from them once
    per bundle: without a copy from a loaded bundle's read-only float32 arrays.
    """

    vae_cfg: VaeConfig
    flow_cfg: FlowConfig
    vae_params: dict
    flow_params: dict
    stats: LatentStats
    vis_params: dict | None = None

    @cached_property
    def _sampling_params(self) -> tuple:
        """(vae, flow, vis or None): the parameters as float32 constant Tensors."""
        return tuple(None if params is None else
                     wrap_params({k: np.asarray(v, np.float32) for k, v in params.items()}, False)
                     for params in (self.vae_params, self.flow_params, self.vis_params))


# -- the shared training loop ---------------------------------------------------


def _fit(name: str, params: dict, step_loss, rng: Rng, steps: int, n_items: int, batch: int,
         lr: float, clip_norm: float, lr_at=None):
    """Adam over `steps` minibatches; returns (params, curve).

    Each step sets the rate from `lr_at(step)` when given, draws `batch` item
    indices from `rng`, and calls `step_loss(wrapped_params, idx)`, which
    returns (loss, curve row).  A non-finite loss aborts the run naming
    `name` and the step.
    """
    state = gc.optim_init(params, lr=lr, clip_norm=clip_norm)
    curve = []
    for step in range(steps):
        if lr_at is not None:
            state.lr = lr_at(step)
        idx = rng.draw_integers(0, n_items, batch)
        wrapped = wrap_params(params)
        loss, row = step_loss(wrapped, idx)
        if not np.isfinite(float(loss)):
            raise FloatingPointError(f"{name}: non-finite loss at step {step}")
        grads = dict(zip(wrapped.keys(), gc.backward(loss, list(wrapped.values()))))
        del loss  # free this step's tape and its stored gradients before the next forward
        params = gc.optim_step(params, grads, state)
        curve.append({"step": step, **row})
    return params, curve


# -- VAE training --------------------------------------------------------------


def vae_loss_terms(params, x, m, cfg: VaeTrainConfig, rng: Rng):
    mu, logvar = vae_encode(x, params, cfg.vae)
    z = reparameterize(mu, logvar, rng)
    recon = vae_decode(z, params, cfg.vae, frames=x.shape[1])
    l_rec = lb.recon_loss(x, recon, m)
    w_tmp, w_sp, l_tmp, l_sp = lb.consistency_terms(x, recon, m, cfg.neighbor,
                                                    cfg.lambda_temporal, cfg.lambda_spatial)
    l_kl = lb.kl_loss(mu, logvar)
    total = gc.add(gc.add(l_rec, w_tmp), gc.add(w_sp, gc.mul(l_kl, cfg.beta)))
    return total, {"recon": float(l_rec), "temporal": float(l_tmp),
                   "spatial": float(l_sp), "kl": float(l_kl)}


def train_vae(dataset: SegmentDataset, cfg: VaeTrainConfig, seed: int = 0,
              params: dict | None = None):
    """Optimize reconstruction + consistency + beta*KL; returns (params, curve).

    The learning rate holds at `cfg.lr`, then decays linearly towards zero over
    the last `VAE_LR_DECAY_SHARE` of the steps.
    """
    rng = gc.rng(seed)
    if params is None:
        params = init_vae_params(cfg.vae, rng)

    def step_loss(wrapped, idx):
        total, parts = vae_loss_terms(wrapped, dataset.segments[idx], dataset.masks[idx], cfg, rng)
        return total, {"total": float(total), **parts}

    return _fit("train_vae", params, step_loss, rng, cfg.steps, len(dataset), cfg.batch,
                cfg.lr, cfg.clip_norm,
                lr_at=lambda step: cfg.lr * min(
                    1.0, (cfg.steps - step) / (VAE_LR_DECAY_SHARE * cfg.steps)))


ENCODE_CHUNK = 8  # windows per vae_encode call in encode_mean: the default training batch


def encode_mean(params: dict, cfg: VaeConfig, segments: np.ndarray) -> np.ndarray:
    """The posterior means (B, K, N, C) of offset segments (B, T, H, W, 2).

    The segments are encoded ENCODE_CHUNK windows at a time, so the encoder's
    activations hold one chunk however many windows a dataset has.  Every
    encoder op stays inside one window (token mixing within the window,
    elementwise GELU, row-by-row products), so the means are byte-equal to
    those of one vae_encode call over all B windows.
    """
    wrapped = wrap_params(params, requires_grad=False)
    segments = _with_batch("vae_encode", segments, SEGMENT)
    means = [vae_encode(segments[i:i + ENCODE_CHUNK], wrapped, cfg)[0].data
             for i in range(0, max(len(segments), 1), ENCODE_CHUNK)]
    return np.concatenate(means)


# -- flow training --------------------------------------------------------------


def _flow_inputs(dataset: PairDataset, vae_params: dict, vae_cfg: VaeConfig,
                 cfg: FlowTrainConfig, stats: LatentStats | None = None):
    """Precompute normalized latents, condition tokens, and token weights.

    The latent statistics are fit on this dataset's latents unless given.
    """
    t_p = dataset.past.shape[1]
    t_f = dataset.future.shape[1]
    k_p = latent_steps(t_p, vae_cfg.temporal_ratio)
    k_f = latent_steps(t_f, vae_cfg.temporal_ratio)
    if (k_p, k_f) != (cfg.flow.history_steps, cfg.flow.future_steps):
        raise ValueError(f"flow config expects {cfg.flow.history_steps}/{cfg.flow.future_steps} "
                         f"latent steps, dataset yields {k_p}/{k_f}")
    z_p = encode_mean(vae_params, vae_cfg, dataset.past)
    z_f = encode_mean(vae_params, vae_cfg, dataset.future)
    if stats is None:
        stats = LatentStats.fit(np.concatenate([z_p, z_f], axis=1))
    z_p = normalize_latents(z_p, stats)
    z_f = normalize_latents(z_f, stats)
    vis_tok = pool_visibility(dataset.past_masks, vae_cfg, reduce="mean")
    weights = lb.token_weights(dataset.future_masks, vae_cfg, cfg.invisible_token_weight)
    return z_p, z_f, stats, vis_tok, weights


def flow_step_loss(flow_params, z_p, z_f, vis_tok, weights, cfg: FlowTrainConfig,
                   rng: Rng):
    b = z_f.shape[0]
    z0 = boundary_init(z_p[:, -1], cfg.flow, rng)
    t = np.array([sample_time(rng) for _ in range(b)])
    z_t, u_t = interpolate(z0, z_f, t, cfg.sigma, rng)
    cond = encode_condition(z_p, vis_tok, flow_params, cfg.flow)
    v = velocity_forward(z_t, t, cond, flow_params, cfg.flow)
    return lb.fm_loss(v, u_t, weights), z0


def train_flow(dataset: PairDataset, vae_params: dict, vae_cfg: VaeConfig,
               cfg: FlowTrainConfig, seed: int = 0, flow_params: dict | None = None):
    """Flow-matching pretraining against frozen VAE latents."""
    rng = gc.rng(seed)
    if flow_params is None:
        flow_params = init_velocity_params(cfg.flow, rng)
    z_p, z_f, stats, vis_tok, weights = _flow_inputs(dataset, vae_params, vae_cfg, cfg)

    def step_loss(wrapped, idx):
        loss, _ = flow_step_loss(wrapped, z_p[idx], z_f[idx], vis_tok[idx], weights[idx],
                                 cfg, rng)
        return loss, {"fm": float(loss)}

    flow_params, curve = _fit("train_flow", flow_params, step_loss, rng, cfg.steps,
                              len(dataset), cfg.batch, cfg.lr, cfg.clip_norm)
    return FlowBundle(vae_cfg, cfg.flow, vae_params, flow_params, stats), curve


# -- on-policy fine-tuning -------------------------------------------------------


def finetune_onpolicy(bundle: FlowBundle, dataset: PairDataset, flow_cfg: FlowTrainConfig,
                      cfg: FinetuneConfig, seed: int = 0):
    """Continue flow training with the K-step rollout objective on a sub-batch.

    The flow model, source distribution included, is the bundle's; `flow_cfg`
    supplies only the training settings (tube noise, invisible-token weight, batch, clip).
    A `cfg.sub_batch` above that batch is a FieldError.
    """
    check_sub_batch(cfg, flow_cfg)
    rng = gc.rng(seed)
    flow_params = {k: np.array(v, np.float64) for k, v in bundle.flow_params.items()}
    flow_cfg = replace(flow_cfg, flow=bundle.flow_cfg)  # trained as the bundle samples
    z_p, z_f, _, vis_tok, weights = _flow_inputs(dataset, bundle.vae_params, bundle.vae_cfg,
                                                 flow_cfg, bundle.stats)
    grid = logit_grid(cfg.k_steps)

    def step_loss(wrapped, idx):
        fm, z0 = flow_step_loss(wrapped, z_p[idx], z_f[idx], vis_tok[idx],
                                weights[idx], flow_cfg, rng)
        total = fm
        parts = {"fm": float(fm), "kstep": 0.0, "cons": 0.0}
        if cfg.lambda_kstep > 0:
            sub = idx[:cfg.sub_batch]
            z0_sub = z0[:cfg.sub_batch]
            z1_sub = z_f[sub]
            w_sub = weights[sub]
            z_hist, vis_hist = z_p[sub], vis_tok[sub]

            def v_fn(z, t):
                # encoded per step: sharing one encoding would reorder the gradient accumulation
                cond = encode_condition(z_hist, vis_hist, wrapped, flow_cfg.flow)
                return velocity_forward(z, t, cond, wrapped, flow_cfg.flow)

            states, velocities = kstep_rollout(v_fn, z0_sub, grid)
            targets = [lb.kstep_targets(states[i], z0_sub, z1_sub, float(grid[i]))
                       for i in range(cfg.k_steps)]
            l_kstep = lb.kstep_loss(velocities, targets, w_sub, cfg.w1, cfg.w0)
            l_cons = lb.endpoint_consistency(states[:-1], velocities, grid)
            total = gc.add(total, gc.mul(gc.add(l_kstep, gc.mul(l_cons, cfg.gamma)),
                                         cfg.lambda_kstep))
            parts["kstep"] = float(l_kstep)
            parts["cons"] = float(l_cons)
        return total, {"total": float(total), **parts}

    flow_params, curve = _fit("finetune_onpolicy", flow_params, step_loss, rng, cfg.steps,
                              len(dataset), flow_cfg.batch, cfg.lr, flow_cfg.clip_norm)
    return replace(bundle, flow_params=flow_params), curve


# -- visibility head training -----------------------------------------------------


def train_visibility_head(latents: np.ndarray, targets: np.ndarray, flow_cfg: FlowConfig,
                          steps: int, lr: float, seed: int = 0):
    """Fit the per-token visibility predictor with logit BCE, on minibatches
    of up to 16 items with the gradient norm clipped at 1.0."""
    rng = gc.rng(seed)
    params = init_visibility_params(flow_cfg, rng)

    def step_loss(wrapped, idx):
        loss = lb.bce_logits(visibility_logits(latents[idx], wrapped), targets[idx])
        return loss, {"bce": float(loss)}

    m_total = latents.shape[0]
    return _fit("train_visibility_head", params, step_loss, rng, steps, m_total,
                min(16, m_total), lr, clip_norm=1.0)


# -- end-to-end sampling ------------------------------------------------------------


def sample_future(history: OffsetField, bundle: FlowBundle, sampler: dict | None = None,
                  seed: int = 0, future_frames: int | None = None):
    """History offsets in, generated future offsets and visibility out: the
    one single-instance entry, run as a batch of one.  The condition is
    encoded once and shared by every velocity evaluation of the solve.

    Every forward runs in float32, the precision a checkpoint stores: a
    trained bundle's parameters are narrowed on its first call and kept on
    it, the history's offsets once per call.  So a bundle is a value: change
    it with `dataclasses.replace`, not by editing its parameter dicts or arrays.

    The history's frames must give the flow's history_steps latent steps.
    `future_frames` (default: the history's length) must be in
    1..future_steps * temporal_ratio, the frames the future latents decode to.
    `sampler` holds SamplerConfig fields, the rest taking their defaults.
    """
    vae_cfg, flow_cfg = bundle.vae_cfg, bundle.flow_cfg
    r, k_p = vae_cfg.temporal_ratio, flow_cfg.history_steps
    if latent_steps(history.frames, r) != k_p:
        raise ValueError(f"history frames must be in {(k_p - 1) * r + 1}..{k_p * r} "
                         f"(history_steps {k_p} x temporal_ratio {r}), got {history.frames}")
    t_max = flow_cfg.future_steps * r
    t_f = future_frames if future_frames is not None else history.frames
    if not 1 <= t_f <= t_max:
        raise ValueError(f"future frames must be in 1..{t_max} (future_steps "
                         f"{flow_cfg.future_steps} x temporal_ratio {r}), got {t_f}")
    sampler = SamplerConfig(**(sampler or {}))
    rng = gc.rng(seed)
    vae, wrapped, vis = bundle._sampling_params
    mu, _ = vae_encode(history.offsets[None].astype(np.float32), vae, vae_cfg)
    z_hist = normalize_latents(mu.data, bundle.stats)
    vis_tok = pool_visibility(history.mask[None], vae_cfg, reduce="mean")
    z0 = boundary_init(z_hist[:, -1], flow_cfg, rng)
    cond = encode_condition(z_hist, vis_tok, wrapped, flow_cfg)  # vis_tok in z_hist's dtype

    def v_fn(z, t):
        return velocity_forward(z, float(t), cond, wrapped, flow_cfg).data

    if sampler.method == "euler":
        z1 = euler_sample(v_fn, z0, steps=sampler.steps)
    else:
        z1 = dopri5_sample(v_fn, z0, rtol=sampler.rtol, atol=sampler.atol)

    z1_denorm = denormalize_latents(z1, bundle.stats)
    # as when tlf narrows to float32: an offset beyond its range is inf, which write_tlf refuses
    with np.errstate(over="ignore"):
        offsets = vae_decode(z1_denorm, vae, vae_cfg, frames=t_f).data[0]
    if vis is not None:
        _, tok_mask = visibility_predict(z1_denorm, vis)
        mask = broadcast_token_mask(tok_mask[0], vae_cfg, t_f)
    else:
        mask = np.ones((t_f, vae_cfg.height, vae_cfg.width), dtype=np.uint8)
    return OffsetField(offsets, mask, stride=history.stride), mask
