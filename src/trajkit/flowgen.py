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

import numpy as np

from . import gradcore as gc
from . import lossbank as lb
from .gradcore import Rng, as_tensor
from .models import (
    FlowConfig,
    VaeConfig,
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
from .trajfield import OffsetField

T_EPS = 1e-5


@dataclass
class TimeGrid:
    """K+1 strictly increasing flow times inside [t_eps, 1 - t_eps]."""

    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("time grid needs at least 2 points")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if self.times[0] < T_EPS - 1e-12 or self.times[-1] > 1 - T_EPS + 1e-12:
            raise ValueError(f"time grid must stay within [{T_EPS}, {1 - T_EPS}]")

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def logit_grid(k: int, t_eps: float = T_EPS) -> TimeGrid:
    """K-step grid: sigmoid of K+1 evenly spaced logits, clamped to the
    admissible interval."""
    lo = np.log(t_eps / (1 - t_eps))
    levels = np.linspace(lo, -lo, k + 1)
    times = np.clip(1.0 / (1.0 + np.exp(-levels)), T_EPS, 1 - T_EPS)
    return TimeGrid(times)


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


def normalize_latents(z: np.ndarray, stats: LatentStats) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != stats.mean.shape[0]:
        raise ValueError(f"channel mismatch: {z.shape[-1]} vs {stats.mean.shape[0]}")
    return (z - stats.mean) / stats.std


def denormalize_latents(z: np.ndarray, stats: LatentStats) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != stats.mean.shape[0]:
        raise ValueError(f"channel mismatch: {z.shape[-1]} vs {stats.mean.shape[0]}")
    return z * stats.std + stats.mean


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
    t_arr = np.asarray(t, dtype=np.float64)
    if t_arr.ndim == 1:  # per-item time over a batch
        t_arr = t_arr.reshape(-1, *([1] * (z0.ndim - 1)))
    z_t = (1.0 - t_arr) * z0 + t_arr * z1
    if sigma > 0:
        z_t = z_t + sigma * rng.draw_normal(z0.shape)
    return z_t, z1 - z0


def boundary_init(z_hist_last: np.ndarray, future_steps: int, sigma0: float,
                  rng: Rng, anchor_mode: str = "first-slice") -> np.ndarray:
    """Source state: unit Gaussian with the boundary latent anchored in.

    first-slice (default) anchors only latent step k=0; all-slices repeats
    the boundary latent across the whole horizon.
    """
    z_last = np.asarray(z_hist_last, dtype=np.float64)
    single = z_last.ndim == 2
    if single:
        z_last = z_last[None]
    b, n, c = z_last.shape
    if anchor_mode == "first-slice":
        z0 = rng.draw_normal((b, future_steps, n, c))
        z0[:, 0] = z_last + sigma0 * rng.draw_normal((b, n, c))
    elif anchor_mode == "all-slices":
        z0 = z_last[:, None] + sigma0 * rng.draw_normal((b, future_steps, n, c))
    else:
        raise ValueError(f"unknown anchor_mode {anchor_mode!r}")
    return z0[0] if single else z0


# -- ODE samplers ------------------------------------------------------------


def euler_sample(v_fn, z0: np.ndarray, steps: int = 10) -> np.ndarray:
    """Forward Euler from t=0 to t=1 on a uniform grid."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.array(z0, dtype=np.float64)
    dt = 1.0 / steps
    for i in range(steps):
        z = z + dt * np.asarray(v_fn(z, i * dt))
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"euler_sample: non-finite state at step {i}")
    return z


_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])


def dopri5_sample(v_fn, z0: np.ndarray, rtol: float = 1e-5, atol: float = 1e-8,
                  h_init: float = 0.01, h_min: float = 1e-13) -> np.ndarray:
    """Adaptive Dormand-Prince 4(5) integration from t=0 to t=1."""
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    y = np.array(z0, dtype=np.float64)
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
            ks.append(np.asarray(v_fn(yi, t + _DP_C[i] * h)))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks) if b != 0.0)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        if np.isfinite(err) and err <= 1.0:
            t = 1.0 if last else t + h
            y = y5
            if not np.all(np.isfinite(y)):
                raise FloatingPointError(f"dopri5_sample: non-finite state at t={t:.6f}")
        if not np.isfinite(err):
            h *= 0.2  # reject hard: the trial step blew up
        else:
            factor = 5.0 if err == 0.0 else 0.9 * err ** -0.2
            h *= min(5.0, max(0.2, factor))
        if h < h_min and t < 1.0:
            raise FloatingPointError(f"dopri5_sample: step size underflow at t={t:.6f}")
    return y


def kstep_rollout(v_fn, z0, grid: TimeGrid):
    """Detached forward-Euler rollout along the grid.

    Returns (states, velocities): K+1 states and K velocities.  States carry
    no gradient (each step propagates through stop_gradient); velocities keep
    their full parameter gradients for the rollout losses.
    """
    z = as_tensor(z0)
    states = [gc.stop_gradient(z)]
    velocities = []
    times = grid.times
    for i in range(grid.steps):
        v = v_fn(states[i], float(times[i]))
        velocities.append(v)
        dt = float(times[i + 1] - times[i])
        states.append(gc.add(states[i], gc.mul(gc.stop_gradient(v), dt)))
    return states, velocities


# -- datasets ----------------------------------------------------------------


@dataclass
class SegmentDataset:
    """Offset segments with masks: (M, T, H, W, 2) and (M, T, H, W)."""

    segments: np.ndarray
    masks: np.ndarray

    def __len__(self):
        return self.segments.shape[0]


@dataclass
class PairDataset:
    """History/future windows per item."""

    past: np.ndarray
    past_masks: np.ndarray
    future: np.ndarray
    future_masks: np.ndarray

    def __len__(self):
        return self.past.shape[0]


def segments_from_fields(fields: list[OffsetField]) -> SegmentDataset:
    return SegmentDataset(np.stack([f.offsets for f in fields]),
                          np.stack([f.mask for f in fields]))


def pairs_from_fields(fields: list[OffsetField], past_frames: int) -> PairDataset:
    from .trajfield import split_windows
    past, pm, fut, fm = [], [], [], []
    for f in fields:
        p, fu = split_windows(f, past_frames, f.frames - past_frames)
        past.append(p.offsets)
        pm.append(p.mask)
        fut.append(fu.offsets)
        fm.append(fu.mask)
    return PairDataset(np.stack(past), np.stack(pm), np.stack(fut), np.stack(fm))


# -- training configs ---------------------------------------------------------


# Share of VAE training steps, at the end, over which the learning rate decays
# linearly to zero; the noise of small batches otherwise sets the loss floor.
VAE_LR_DECAY_SHARE = 0.3


@dataclass
class VaeTrainConfig:
    vae: VaeConfig = field(default_factory=VaeConfig)
    steps: int = 500
    batch: int = 8
    lr: float = 2e-5
    beta: float = 5e-5
    lambda_temporal: float = 0.1
    lambda_spatial: float = 0.2
    huber_delta: float = 1.0
    neighbor: lb.NeighborSpec = field(default_factory=lb.NeighborSpec)
    # about the steady-state gradient norm: the large gradients of the first
    # steps would otherwise inflate Adam's second moment and starve later updates
    clip_norm: float | None = 0.1


@dataclass
class FlowTrainConfig:
    flow: FlowConfig = field(default_factory=FlowConfig)
    steps: int = 1000
    batch: int = 8
    lr: float = 6e-5
    sigma: float = 0.05
    sigma0: float = 0.1
    anchor_mode: str = "first-slice"
    token_floor: float = 0.01
    clip_norm: float | None = 1.0


@dataclass
class FinetuneConfig:
    steps: int = 200
    lr: float = 1e-5
    sub_batch: int = 8
    k_steps: int = 8
    t_eps: float = T_EPS
    denom_clamp: float = 1e-3
    w1: float = 1.0
    w0: float = 0.5
    gamma: float = 0.1
    lambda_kstep: float = 0.1


@dataclass
class FlowBundle:
    """Everything needed to sample futures end to end."""

    vae_cfg: VaeConfig
    flow_cfg: FlowConfig
    vae_params: dict
    flow_params: dict
    stats: LatentStats
    vis_params: dict | None = None
    sigma0: float = 0.1
    anchor_mode: str = "first-slice"


# -- the shared training loop ---------------------------------------------------


def _fit(name: str, params: dict, step_loss, rng: Rng, steps: int, n_items: int, batch: int,
         lr: float, clip_norm: float | None, lr_at=None):
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
    pair = lb.SegmentPair(x, recon, m)
    l_rec = lb.recon_loss(pair, cfg.huber_delta)
    w_tmp, w_sp, l_tmp, l_sp = lb.consistency_terms(pair, cfg.neighbor, cfg.lambda_temporal,
                                                    cfg.lambda_spatial)
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
        total, parts = vae_loss_terms(wrapped, dataset.segments[idx], dataset.masks[idx],
                                      cfg, rng)
        return total, {"total": float(total), **parts}

    return _fit("train_vae", params, step_loss, rng, cfg.steps, len(dataset), cfg.batch,
                cfg.lr, cfg.clip_norm,
                lr_at=lambda step: cfg.lr * min(
                    1.0, (cfg.steps - step) / (VAE_LR_DECAY_SHARE * cfg.steps)))


def vae_reconstruct(params: dict, cfg: VaeConfig, segments: np.ndarray) -> np.ndarray:
    """Posterior-mean reconstruction, numpy in/out."""
    wrapped = wrap_params(params, requires_grad=False)
    mu, _ = vae_encode(segments, wrapped, cfg)
    return vae_decode(mu, wrapped, cfg, frames=segments.shape[1]).data


def encode_mean(params: dict, cfg: VaeConfig, segments: np.ndarray) -> np.ndarray:
    wrapped = wrap_params(params, requires_grad=False)
    mu, _ = vae_encode(segments, wrapped, cfg)
    return mu.data


# -- flow training --------------------------------------------------------------


def _flow_inputs(dataset: PairDataset, vae_params: dict, vae_cfg: VaeConfig,
                 cfg: FlowTrainConfig, stats: LatentStats | None = None):
    """Precompute normalized latents, condition tokens, and token weights.

    The latent statistics are fit on this dataset's latents unless given.
    """
    t_p = dataset.past.shape[1]
    t_f = dataset.future.shape[1]
    k_p = -(-t_p // vae_cfg.temporal_ratio)
    k_f = -(-t_f // vae_cfg.temporal_ratio)
    if (k_p, k_f) != (cfg.flow.history_steps, cfg.flow.future_steps):
        raise ValueError(f"flow config expects {cfg.flow.history_steps}/{cfg.flow.future_steps} "
                         f"latent steps, dataset yields {k_p}/{k_f}")
    z_p = encode_mean(vae_params, vae_cfg, dataset.past)
    z_f = encode_mean(vae_params, vae_cfg, dataset.future)
    if stats is None:
        stats = LatentStats.fit(np.concatenate([z_p, z_f], axis=1))
    z_p = normalize_latents(z_p, stats)
    z_f = normalize_latents(z_f, stats)
    r = vae_cfg.temporal_ratio
    vis_tok = pool_visibility(dataset.past_masks, vae_cfg.token_grid(t_p), reduce="mean",
                              ratio=r)
    weights = lb.token_weights(dataset.future_masks, vae_cfg.token_grid(t_f),
                               floor=cfg.token_floor, ratio=r)
    return z_p, z_f, stats, vis_tok, weights


def flow_step_loss(flow_params, z_p, z_f, vis_tok, weights, cfg: FlowTrainConfig,
                   rng: Rng):
    b = z_f.shape[0]
    k_f = cfg.flow.future_steps
    z0 = boundary_init(z_p[:, -1], k_f, cfg.sigma0, rng, cfg.anchor_mode)
    t = np.array([sample_time(rng) for _ in range(b)])
    z_t, u_t = interpolate(z0, z_f, t, cfg.sigma, rng)
    cond = {"z_hist": z_p, "visibility": vis_tok}
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
    bundle = FlowBundle(vae_cfg, cfg.flow, vae_params, flow_params, stats,
                        sigma0=cfg.sigma0, anchor_mode=cfg.anchor_mode)
    return bundle, curve


def eval_fm_loss(bundle: FlowBundle, dataset: PairDataset, cfg: FlowTrainConfig,
                 seed: int = 1234, flow_params: dict | None = None) -> float:
    """Deterministic held-out flow-matching loss (fixed noise/time draws)."""
    rng = gc.rng(seed)
    params = flow_params if flow_params is not None else bundle.flow_params
    z_p, z_f, _, vis_tok, weights = _flow_inputs(dataset, bundle.vae_params, bundle.vae_cfg,
                                                 cfg, bundle.stats)
    wrapped = wrap_params(params, requires_grad=False)
    loss, _ = flow_step_loss(wrapped, z_p, z_f, vis_tok, weights, cfg, rng)
    return float(loss)


# -- on-policy fine-tuning -------------------------------------------------------


def finetune_onpolicy(bundle: FlowBundle, dataset: PairDataset, flow_cfg: FlowTrainConfig,
                      cfg: FinetuneConfig, seed: int = 0):
    """Continue flow training with the K-step rollout objective on a sub-batch.

    The architecture, `sigma0` and `anchor_mode` are the bundle's; `flow_cfg`
    supplies only the training settings (tube noise, token floor, batch, clip).
    """
    flow_cfg = replace(flow_cfg, flow=bundle.flow_cfg, sigma0=bundle.sigma0,
                       anchor_mode=bundle.anchor_mode)
    rng = gc.rng(seed)
    flow_params = {k: v.copy() for k, v in bundle.flow_params.items()}
    z_p, z_f, _, vis_tok, weights = _flow_inputs(dataset, bundle.vae_params, bundle.vae_cfg,
                                                 flow_cfg, bundle.stats)
    grid = logit_grid(cfg.k_steps, cfg.t_eps)

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
            cond = {"z_hist": z_p[sub], "visibility": vis_tok[sub]}

            def v_fn(z, t):
                return velocity_forward(z, t, cond, wrapped, flow_cfg.flow)

            states, velocities = kstep_rollout(v_fn, z0_sub, grid)
            targets = [lb.kstep_targets(states[i].data, z0_sub, z1_sub,
                                        float(grid.times[i]), cfg.denom_clamp)
                       for i in range(grid.steps)]
            l_kstep = lb.kstep_loss(velocities, targets, w_sub, cfg.w1, cfg.w0)
            l_cons = lb.endpoint_consistency(states[:-1], velocities, grid.times)
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
                          steps: int = 300, lr: float = 1e-2, seed: int = 0):
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


def broadcast_token_mask(token_mask: np.ndarray, token_grid: tuple,
                         out_shape: tuple) -> np.ndarray:
    """Up-broadcast a (T_lat, N) token mask to dense (T, H, W)."""
    t_lat, h_tok, w_tok = token_grid
    t, h, w = out_shape
    r = -(-t // t_lat)
    ph, pw = h // h_tok, w // w_tok
    grid = token_mask.reshape(t_lat, h_tok, w_tok)
    dense = np.repeat(np.repeat(np.repeat(grid, r, axis=0), ph, axis=1), pw, axis=2)
    return dense[:t].astype(np.uint8)


def sample_future(history: OffsetField, bundle: FlowBundle, sampler: dict | None = None,
                  seed: int = 0, future_frames: int | None = None):
    """History offsets in, generated future offsets and visibility out.

    `future_frames` (default: the history's length) must be in
    1..future_steps * temporal_ratio, the frames the future latents decode to.
    """
    vae_cfg, flow_cfg = bundle.vae_cfg, bundle.flow_cfg
    t_max = flow_cfg.future_steps * vae_cfg.temporal_ratio
    t_f = future_frames if future_frames is not None else history.frames
    if not 1 <= t_f <= t_max:
        raise ValueError(f"future frames must be in 1..{t_max} (future_steps "
                         f"{flow_cfg.future_steps} x temporal_ratio {vae_cfg.temporal_ratio}), "
                         f"got {t_f}")
    sampler = sampler or {"method": "euler", "steps": 10}
    rng = gc.rng(seed)
    z_hist = normalize_latents(
        encode_mean(bundle.vae_params, vae_cfg, history.offsets[None])[0], bundle.stats)
    vis_tok = pool_visibility(history.mask, vae_cfg.token_grid(history.frames), reduce="mean",
                              ratio=vae_cfg.temporal_ratio)
    cond = {"z_hist": z_hist, "visibility": vis_tok}
    z0 = boundary_init(z_hist[-1], flow_cfg.future_steps, bundle.sigma0, rng,
                       bundle.anchor_mode)
    wrapped = wrap_params(bundle.flow_params, requires_grad=False)

    def v_fn(z, t):
        return velocity_forward(z, float(t), cond, wrapped, flow_cfg).data

    if sampler["method"] == "euler":
        z1 = euler_sample(v_fn, z0, steps=sampler.get("steps", 10))
    elif sampler["method"] == "dopri5":
        z1 = dopri5_sample(v_fn, z0, rtol=sampler.get("rtol", 1e-5),
                           atol=sampler.get("atol", 1e-8))
    else:
        raise ValueError(f"unknown sampler {sampler['method']!r}")

    z1_denorm = denormalize_latents(z1, bundle.stats)
    wrapped_vae = wrap_params(bundle.vae_params, requires_grad=False)
    offsets = vae_decode(z1_denorm, wrapped_vae, vae_cfg, frames=t_f).data
    if bundle.vis_params is not None:
        # broadcast over every decoded frame, then cut, as vae_decode does
        _, tok_mask = visibility_predict(z1_denorm, wrap_params(bundle.vis_params, False))
        mask = broadcast_token_mask(tok_mask, vae_cfg.token_grid(t_max),
                                    (t_max, vae_cfg.height, vae_cfg.width))[:t_f]
    else:
        mask = np.ones((t_f, vae_cfg.height, vae_cfg.width), dtype=np.uint8)
    return OffsetField(offsets, mask, stride=history.stride), mask
