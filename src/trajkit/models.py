"""Toy-scale networks on the gradcore tape: trajectory VAE with temporal
compression, a velocity network with token-aligned history fusion, and the
per-token visibility head.

Attention is replaced by token-mixing residual MLP blocks; the encoding,
losses, and flow machinery around these backbones are the point, not the
backbone itself.  Parameters live in flat name->ndarray dicts; forwards
accept the same dicts wrapped into Tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gradcore as gc
from .gradcore import Rng, Tensor, as_tensor


@dataclass
class VaeConfig:
    height: int = 32
    width: int = 32
    frames: int = 8          # segment length the VAE trains on
    patch: int = 8
    hidden: int = 64
    blocks: int = 2
    latent_channels: int = 8
    temporal_ratio: int = 4

    def __post_init__(self):
        if self.height % self.patch or self.width % self.patch:
            raise ValueError(f"patch {self.patch} must divide {self.height}x{self.width}")

    @property
    def tokens_h(self) -> int:
        return self.height // self.patch

    @property
    def tokens_w(self) -> int:
        return self.width // self.patch

    @property
    def n_tokens(self) -> int:
        return self.tokens_h * self.tokens_w

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * 2

    def token_grid(self, frames: int | None = None) -> tuple:
        t = self.frames if frames is None else frames
        return (-(-t // self.temporal_ratio), self.tokens_h, self.tokens_w)


@dataclass
class FlowConfig:
    hidden: int = 64
    blocks: int = 2
    cond_hidden: int = 32
    time_features: int = 8
    history_steps: int = 2   # latent steps of history context (>= 2 for fusion)
    future_steps: int = 2    # latent steps generated
    latent_channels: int = 8
    n_tokens: int = 16


# -- parameter initialization ---------------------------------------------


def _init_linear(params: dict, rng: Rng, name: str, fan_in: int, fan_out: int):
    params[f"{name}.w"] = rng.draw_normal((fan_in, fan_out)) / math.sqrt(fan_in)
    params[f"{name}.b"] = np.zeros(fan_out)


def _init_block(params: dict, rng: Rng, name: str, n_tokens: int, hidden: int):
    _init_linear(params, rng, f"{name}.tok1", n_tokens, n_tokens)
    _init_linear(params, rng, f"{name}.tok2", n_tokens, n_tokens)
    _init_linear(params, rng, f"{name}.ch1", hidden, 2 * hidden)
    _init_linear(params, rng, f"{name}.ch2", 2 * hidden, hidden)


def init_vae_params(cfg: VaeConfig, rng: Rng) -> dict:
    p: dict = {}
    d, c, r = cfg.hidden, cfg.latent_channels, cfg.temporal_ratio
    _init_linear(p, rng, "enc.embed", cfg.patch_dim, d)
    for i in range(cfg.blocks):
        _init_block(p, rng, f"enc.block{i}", cfg.n_tokens, d)
    _init_linear(p, rng, "enc.compress", r * d, d)
    _init_block(p, rng, "enc.post", cfg.n_tokens, d)
    _init_linear(p, rng, "enc.mu", d, c)
    _init_linear(p, rng, "enc.logvar", d, c)
    _init_linear(p, rng, "dec.embed", c, d)
    _init_block(p, rng, "dec.pre", cfg.n_tokens, d)
    _init_linear(p, rng, "dec.expand", d, r * d)
    for i in range(cfg.blocks):
        _init_block(p, rng, f"dec.block{i}", cfg.n_tokens, d)
    _init_linear(p, rng, "dec.head", d, cfg.patch_dim)
    return p


def init_velocity_params(cfg: FlowConfig, rng: Rng) -> dict:
    p: dict = {}
    d, c = cfg.hidden, cfg.latent_channels
    _init_linear(p, rng, "vel.tok", c, d)
    _init_linear(p, rng, "vel.cond", cfg.history_steps * (c + 1), cfg.cond_hidden)
    _init_linear(p, rng, "vel.merge", d + cfg.time_features + cfg.cond_hidden, d)
    for i in range(cfg.blocks):
        _init_block(p, rng, f"vel.block{i}", cfg.n_tokens, d)
    _init_linear(p, rng, "vel.head", d, c)
    # history injection: a learnable gain and one sigmoid gate per future step
    p["vel.fusion.alpha"] = np.array(0.1)
    p["vel.fusion.gate_raw"] = np.full(cfg.future_steps, 0.0)  # sigmoid(0) = 0.5
    return p


def init_visibility_params(cfg: FlowConfig, rng: Rng) -> dict:
    hidden = 16  # the visibility head's width
    p: dict = {}
    _init_linear(p, rng, "vis.embed", cfg.latent_channels, hidden)
    _init_linear(p, rng, "vis.conv0", 3 * hidden, hidden)
    _init_linear(p, rng, "vis.conv1", 3 * hidden, hidden)
    _init_linear(p, rng, "vis.head", hidden, 1)
    return p


def wrap_params(params: dict, requires_grad: bool = True) -> dict:
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


# -- shared forward pieces --------------------------------------------------


def _linear(params: dict, name: str, x: Tensor, axis: int = -1) -> Tensor:
    return gc.linear(x, params[f"{name}.w"], params[f"{name}.b"], axis=axis)


def _block(params: dict, name: str, h: Tensor) -> Tensor:
    """Residual token-mixing (axis 2) + channel MLP on (B, T, N, D) tokens."""
    mixed = gc.gelu(_linear(params, f"{name}.tok1", h, axis=2))
    h = gc.add(h, _linear(params, f"{name}.tok2", mixed, axis=2))
    hidden = gc.gelu(_linear(params, f"{name}.ch1", h))
    return gc.add(h, _linear(params, f"{name}.ch2", hidden))


def _batched(x, ndim_single: int):
    """(x with a batch axis, whether one was added).  A Tensor gets a reshape
    node; anything else becomes a float64 array, sliced with [None]."""
    if isinstance(x, Tensor):
        if x.data.ndim == ndim_single:
            return gc.reshape(x, (1, *x.shape)), True
        return x, False
    x = np.asarray(x, dtype=np.float64)
    return (x[None], True) if x.ndim == ndim_single else (x, False)


def _pad_frames(x: Tensor, ratio: int) -> Tensor:
    """Repeat the last frame so the time axis divides the compression ratio."""
    b, t = x.shape[0], x.shape[1]
    rem = t % ratio
    if rem == 0:
        return x
    pad = [x[:, t - 1:t] for _ in range(ratio - rem)]
    return gc.concat([x] + pad, axis=1)


# -- trajectory VAE ----------------------------------------------------------


def _patchify(x: Tensor, cfg: VaeConfig) -> Tensor:
    b, t = x.shape[0], x.shape[1]
    ph, pw, p = cfg.tokens_h, cfg.tokens_w, cfg.patch
    x = gc.reshape(x, (b, t, ph, p, pw, p, 2))
    x = gc.transpose(x, (0, 1, 2, 4, 3, 5, 6))
    return gc.reshape(x, (b, t, ph * pw, p * p * 2))


def _unpatchify(x: Tensor, cfg: VaeConfig) -> Tensor:
    b, t = x.shape[0], x.shape[1]
    ph, pw, p = cfg.tokens_h, cfg.tokens_w, cfg.patch
    x = gc.reshape(x, (b, t, ph, pw, p, p, 2))
    x = gc.transpose(x, (0, 1, 2, 4, 3, 5, 6))
    return gc.reshape(x, (b, t, ph * p, pw * p, 2))


def vae_encode(x, params: dict, cfg: VaeConfig):
    """Offset segment (T, H, W, 2) or batch -> posterior (mu, logvar), each
    (T_lat, N, C) (batched when the input is)."""
    x, single = _batched(x, 4)
    b, t, h, w, _ = x.shape
    if (h, w) != (cfg.height, cfg.width):
        raise gc.ShapeError("vae_encode", x.shape, (cfg.height, cfg.width))
    x = _pad_frames(x, cfg.temporal_ratio)
    t_pad = x.shape[1]
    t_lat = t_pad // cfg.temporal_ratio
    tok = _linear(params, "enc.embed", _patchify(x, cfg))
    for i in range(cfg.blocks):
        tok = _block(params, f"enc.block{i}", tok)
    d = cfg.hidden
    tok = gc.reshape(tok, (b, t_lat, cfg.temporal_ratio, cfg.n_tokens, d))
    tok = gc.transpose(tok, (0, 1, 3, 2, 4))
    tok = gc.reshape(tok, (b, t_lat, cfg.n_tokens, cfg.temporal_ratio * d))
    tok = gc.gelu(_linear(params, "enc.compress", tok))
    tok = _block(params, "enc.post", tok)
    mu = _linear(params, "enc.mu", tok)
    logvar = _linear(params, "enc.logvar", tok)
    if single:
        mu = gc.reshape(mu, mu.shape[1:])
        logvar = gc.reshape(logvar, logvar.shape[1:])
    return mu, logvar


def reparameterize(mu, logvar, rng: Rng) -> Tensor:
    mu = as_tensor(mu)
    logvar = as_tensor(logvar)
    if mu.shape != logvar.shape:
        raise gc.ShapeError("reparameterize", mu.shape, logvar.shape)
    eps = rng.draw_normal(mu.shape)
    return gc.add(mu, gc.mul(gc.exp(gc.mul(logvar, 0.5)), eps))


def vae_decode(z, params: dict, cfg: VaeConfig, frames: int | None = None) -> Tensor:
    """Latent (T_lat, N, C) or batch -> offset segment (frames, H, W, 2)."""
    z, single = _batched(z, 3)
    b, t_lat, n, c = z.shape
    if n != cfg.n_tokens or c != cfg.latent_channels:
        raise gc.ShapeError("vae_decode", z.shape, (cfg.n_tokens, cfg.latent_channels))
    frames = cfg.frames if frames is None else frames
    tok = _linear(params, "dec.embed", z)
    tok = _block(params, "dec.pre", tok)
    d, r = cfg.hidden, cfg.temporal_ratio
    tok = _linear(params, "dec.expand", tok)
    tok = gc.reshape(tok, (b, t_lat, n, r, d))
    tok = gc.transpose(tok, (0, 1, 3, 2, 4))
    tok = gc.reshape(tok, (b, t_lat * r, n, d))
    for i in range(cfg.blocks):
        tok = _block(params, f"dec.block{i}", tok)
    out = _unpatchify(_linear(params, "dec.head", tok), cfg)
    out = out[:, :frames]
    if single:
        out = gc.reshape(out, out.shape[1:])
    return out


# -- velocity network --------------------------------------------------------


def fusion_ramp(future_steps: int) -> np.ndarray:
    """Linear ramp over future latent steps; 0 at the first, 1 at the last."""
    if future_steps == 1:
        return np.zeros(1)
    return np.linspace(0.0, 1.0, future_steps)


def fuse_history(tokens: Tensor, z_hist, params: dict) -> Tensor:
    """Add the gated, ramped history cue to the query tokens.

    tokens: (B, K_f, N, D); z_hist: (B, K_p >= 2, N, C).  The boundary
    feature is the tokenized last history slice; the velocity hint is its
    difference with the second-last slice.  Tokenization shares weights with
    the main input tokenizer.
    """
    z_hist, _ = _batched(z_hist, 3)
    if z_hist.shape[1] < 2:
        raise ValueError("fuse_history: need at least 2 history latent steps")
    k_f = tokens.shape[1]
    boundary = _linear(params, "vel.tok", z_hist[:, -1:])   # (B, 1, N, D)
    hint = gc.add(boundary, gc.mul(_linear(params, "vel.tok", z_hist[:, -2:-1]), -1.0))
    omega = fusion_ramp(k_f).reshape(1, k_f, 1, 1)
    gates = gc.reshape(gc.sigmoid(params["vel.fusion.gate_raw"]), (1, k_f, 1, 1))
    cue = gc.add(boundary, gc.mul(hint, omega))  # (B, 1, N, D) broadcast over K_f
    return gc.add(tokens, gc.mul(gc.mul(cue, gates), params["vel.fusion.alpha"]))


def time_features(t, n_features: int) -> np.ndarray:
    """Sinusoidal embedding of flow time, (B, n_features)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = n_features // 2
    freqs = 2.0 ** np.arange(half)
    ang = 2.0 * np.pi * t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def velocity_forward(z_t, t, condition: dict, params: dict, cfg: FlowConfig) -> Tensor:
    """Conditional velocity for latent state z_t at flow time t.

    condition carries 'z_hist' (B, K_p, N, C) and 'visibility' history
    tokens (B, K_p, N).  Output matches z_t's shape.
    """
    z_t, single = _batched(z_t, 3)
    b, k_f, n, c = z_t.shape
    if n != cfg.n_tokens or c != cfg.latent_channels:
        raise gc.ShapeError("velocity_forward", z_t.shape, (cfg.n_tokens, cfg.latent_channels))
    z_hist, _ = _batched(condition["z_hist"], 3)
    vis = np.asarray(condition["visibility"], dtype=np.float64)
    if vis.ndim == 2:
        vis = vis[None]
    k_p = z_hist.shape[1]

    tok = _linear(params, "vel.tok", z_t)
    tok = fuse_history(tok, z_hist, params)

    emb = time_features(t, cfg.time_features)
    if emb.shape[0] == 1 and b > 1:
        emb = np.repeat(emb, b, axis=0)
    emb_t = np.broadcast_to(emb.reshape(b, 1, 1, cfg.time_features),
                            (b, k_f, n, cfg.time_features))

    hist_tok = gc.reshape(gc.transpose(z_hist, (0, 2, 1, 3)), (b, 1, n, k_p * c))
    vis_hist = Tensor(vis.transpose(0, 2, 1).reshape(b, 1, n, k_p))
    cond = _linear(params, "vel.cond", gc.concat([hist_tok, vis_hist], axis=3))
    cond = gc.add(np.zeros((b, k_f, n, cfg.cond_hidden)), cond)  # concat needs the full shape

    h = gc.concat([tok, emb_t, cond], axis=3)
    h = gc.gelu(_linear(params, "vel.merge", h))
    for i in range(cfg.blocks):
        h = _block(params, f"vel.block{i}", h)
    v = _linear(params, "vel.head", h)
    if single:
        v = gc.reshape(v, v.shape[1:])
    return v


# -- visibility head ---------------------------------------------------------


def pool_visibility(mask: np.ndarray, token_grid: tuple, reduce: str = "max", *,
                    ratio: int) -> np.ndarray:
    """Pool a dense (T, H, W) mask, or a batch of them, onto the latent token
    grid (t_lat, h_tok, w_tok), giving (T_lat, N) float64 per instance.

    reduce="max" is the logical OR (the visibility head's targets);
    reduce="mean" is the visible fraction (condition tokens, loss weights).
    The mask's (H, W) must tile onto the grid.  Time groups `ratio` frames
    per latent step (the VAE's temporal_ratio) and pads the last group with
    its last frame, as the VAE encoder does.
    """
    if reduce not in ("max", "mean"):
        raise ValueError(f"unknown reduce {reduce!r}")
    mask = np.asarray(mask, dtype=np.float64)
    single = mask.ndim == 3
    if single:
        mask = mask[None]
    t_lat, h_tok, w_tok = token_grid
    b, t, h, w = mask.shape
    if (t_lat <= 0 or h_tok <= 0 or w_tok <= 0 or h % h_tok or w % w_tok or ratio <= 0
            or -(-t // ratio) != t_lat):
        raise ValueError(f"token grid {token_grid} at {ratio} frames per step incompatible "
                         f"with mask {mask.shape}")
    if t_lat * ratio != t:
        mask = np.concatenate([mask, np.repeat(mask[:, -1:], t_lat * ratio - t, axis=1)], axis=1)
    blocks = mask.reshape(b, t_lat, ratio, h_tok, h // h_tok, w_tok, w // w_tok)
    out = getattr(blocks, reduce)(axis=(2, 4, 6)).reshape(b, t_lat, h_tok * w_tok)
    return out[0] if single else out


def _temporal_conv(params: dict, name: str, h: Tensor) -> Tensor:
    """Kernel-3 zero-padded 1-D convolution along latent time, as a strided
    affine map over shifted copies."""
    b, k, n, d = h.shape
    zero = gc.zeros((b, 1, n, d))
    prev = gc.concat([zero, h[:, :-1]], axis=1) if k > 1 else zero
    nxt = gc.concat([h[:, 1:], zero], axis=1) if k > 1 else zero
    stacked = gc.concat([prev, h, nxt], axis=3)
    return _linear(params, name, stacked)


def visibility_logits(z_f, params: dict) -> Tensor:
    z_f, single = _batched(z_f, 3)
    h = _linear(params, "vis.embed", z_f)
    h = gc.gelu(_temporal_conv(params, "vis.conv0", h))
    h = gc.gelu(_temporal_conv(params, "vis.conv1", h))
    logits = _linear(params, "vis.head", h)
    logits = gc.reshape(logits, logits.shape[:-1])
    if single:
        logits = gc.reshape(logits, logits.shape[1:])
    return logits


def visibility_predict(z_f, params: dict):
    """Per-token visibility (logits, mask of probability >= 0.5) for future latents."""
    logits = visibility_logits(z_f, params)
    prob = 1.0 / (1.0 + np.exp(-logits.data))
    return logits, (prob >= 0.5).astype(np.uint8)
