"""Toy-scale networks on the gradcore tape: trajectory VAE with temporal
compression, a velocity network with token-aligned history fusion, and the
per-token visibility head.

Attention is replaced by token-mixing residual MLP blocks; the encoding,
losses, and flow machinery around these backbones are the point, not the
backbone itself.  Parameters live in flat name->ndarray dicts; forwards
accept the same dicts wrapped into Tensors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gradcore as gc
from .gradcore import Rng, Tensor, as_tensor
from .gradcore.tensor import _floats
from .rules import (AT_LEAST_0, AT_LEAST_1, AT_LEAST_2, FINITE_NONNEGATIVE, Checked, FieldError,
                    ranged)


def latent_steps(frames: int, ratio: int) -> int:
    """Latent steps that `frames` frames encode to at `ratio` frames per step
    (the last step padded with the last frame)."""
    return -(-frames // ratio)


@dataclass
class VaeConfig(Checked):
    height: int = ranged(32, AT_LEAST_1)
    width: int = ranged(32, AT_LEAST_1)
    frames: int = ranged(8, AT_LEAST_1)  # segment length the VAE trains on
    patch: int = ranged(8, AT_LEAST_1)
    hidden: int = ranged(64, AT_LEAST_1)
    blocks: int = ranged(2, AT_LEAST_0)
    latent_channels: int = ranged(8, AT_LEAST_1)
    temporal_ratio: int = ranged(4, AT_LEAST_1)

    def __post_init__(self):
        super().__post_init__()
        if self.height % self.patch or self.width % self.patch:
            raise FieldError("patch", self.patch, f"a divisor of {self.height}x{self.width}")

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


@dataclass
class FlowConfig(Checked):
    hidden: int = ranged(64, AT_LEAST_1)
    blocks: int = ranged(2, AT_LEAST_0)
    cond_hidden: int = ranged(32, AT_LEAST_1)
    time_features: int = ranged(8, ("an even integer >= 2",
                                    lambda v: AT_LEAST_1[1](v) and v >= 2 and v % 2 == 0))
    # latent steps of history context; the history cue takes the last two
    history_steps: int = ranged(2, AT_LEAST_2)
    future_steps: int = ranged(2, AT_LEAST_1)  # latent steps generated
    latent_channels: int = ranged(8, AT_LEAST_1)
    n_tokens: int = ranged(16, AT_LEAST_1)
    # noise on the boundary latent of the source state boundary_init draws
    sigma0: float = ranged(0.1, FINITE_NONNEGATIVE)


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


def _linear(params: dict, name: str, x: Tensor) -> Tensor:
    return gc.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def _mlp_params(params: dict, name: str, part: str) -> tuple:
    """w1, b1, w2, b2 of a block's residual MLP `part` ("tok" or "ch")."""
    stem = f"{name}.{part}"
    return params[stem + "1.w"], params[stem + "1.b"], params[stem + "2.w"], params[stem + "2.b"]


def _block(params: dict, name: str, h: Tensor) -> Tensor:
    """Residual token-mixing (axis 2) + channel MLP on (B, T, N, D) tokens."""
    h = gc.residual_mlp(h, *_mlp_params(params, name, "tok"), axis=2)
    return gc.residual_mlp(h, *_mlp_params(params, name, "ch"))


SEGMENT, LATENT = ("B", "T", "H", "W", 2), ("B", "K", "N", "C")  # offsets and latents


def _with_batch(op: str, x, axes: tuple):
    """`x`, which must have the axes `axes`, the first the batch axis: a Tensor
    as it is, anything else as a float32 or float64 array (another dtype
    widened to float64).  Another rank is a ShapeError naming `op`."""
    if not isinstance(x, Tensor):
        x = _floats(x)
    if len(x.shape) != len(axes):
        raise gc.ShapeError(op, x.shape, axes)
    return x


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
    return gc.regroup(x, (b, t, ph, p, pw, p, 2), (0, 1, 2, 4, 3, 5, 6),
                      (b, t, ph * pw, p * p * 2))


def _unpatchify(x: Tensor, cfg: VaeConfig) -> Tensor:
    b, t = x.shape[0], x.shape[1]
    ph, pw, p = cfg.tokens_h, cfg.tokens_w, cfg.patch
    return gc.regroup(x, (b, t, ph, pw, p, p, 2), (0, 1, 2, 4, 3, 5, 6),
                      (b, t, ph * p, pw * p, 2))


def vae_encode(x, params: dict, cfg: VaeConfig):
    """Offset segments (B, T, H, W, 2) -> posterior (mu, logvar), each (B, T_lat, N, C)."""
    x = _with_batch("vae_encode", x, SEGMENT)
    b, t, h, w, _ = x.shape
    if (h, w) != (cfg.height, cfg.width):
        raise gc.ShapeError("vae_encode", x.shape, (cfg.height, cfg.width))
    r = cfg.temporal_ratio
    x = _pad_frames(x, r)
    t_lat = x.shape[1] // r
    tok = _linear(params, "enc.embed", _patchify(x, cfg))
    for i in range(cfg.blocks):
        tok = _block(params, f"enc.block{i}", tok)
    n, d = cfg.n_tokens, cfg.hidden
    tok = gc.regroup(tok, (b, t_lat, r, n, d), (0, 1, 3, 2, 4), (b, t_lat, n, r * d))
    tok = gc.gelu(_linear(params, "enc.compress", tok))
    tok = _block(params, "enc.post", tok)
    mu = _linear(params, "enc.mu", tok)
    logvar = _linear(params, "enc.logvar", tok)
    return mu, logvar


def reparameterize(mu, logvar, rng: Rng) -> Tensor:
    mu = as_tensor(mu)
    logvar = as_tensor(logvar)
    if mu.shape != logvar.shape:
        raise gc.ShapeError("reparameterize", mu.shape, logvar.shape)
    eps = rng.draw_normal(mu.shape)
    return gc.add(mu, gc.mul(gc.exp(gc.mul(logvar, 0.5)), eps))


def vae_decode(z, params: dict, cfg: VaeConfig, frames: int) -> Tensor:
    """Latents (B, T_lat, N, C) -> offset segments (B, frames, H, W, 2).

    `frames` is a ShapeError outside 1..T_lat * temporal_ratio, the frames
    the latents decode to.  At the full length the decoder's output is
    returned as it is."""
    z = _with_batch("vae_decode", z, LATENT)
    b, t_lat, n, c = z.shape
    if n != cfg.n_tokens or c != cfg.latent_channels:
        raise gc.ShapeError("vae_decode", z.shape, (cfg.n_tokens, cfg.latent_channels))
    d, r = cfg.hidden, cfg.temporal_ratio
    if not 1 <= frames <= t_lat * r:
        raise gc.ShapeError("vae_decode", (frames,), (t_lat * r,))
    tok = _linear(params, "dec.embed", z)
    tok = _block(params, "dec.pre", tok)
    tok = _linear(params, "dec.expand", tok)
    tok = gc.regroup(tok, (b, t_lat, n, r, d), (0, 1, 3, 2, 4), (b, t_lat * r, n, d))
    for i in range(cfg.blocks):
        tok = _block(params, f"dec.block{i}", tok)
    out = _unpatchify(_linear(params, "dec.head", tok), cfg)
    return out if frames == t_lat * r else out[:, :frames]


# -- velocity network --------------------------------------------------------


def history_cue(z_hist, params: dict, k_f: int) -> Tensor:
    """The gated, ramped history cue (B, K_f, N, D) added to the query tokens.

    z_hist: (B, K_p >= 2, N, C).  The boundary feature is the tokenized last
    history slice; the velocity hint is its difference with the second-last
    slice.  Tokenization shares weights with the main input tokenizer.
    """
    z_hist = _with_batch("history_cue", z_hist, LATENT)
    if z_hist.shape[1] < 2:
        raise ValueError("history_cue: need at least 2 history latent steps")
    boundary = _linear(params, "vel.tok", z_hist[:, -1:])   # (B, 1, N, D)
    minus_one = np.array(-1.0, boundary.dtype)  # a Tensor of Python -1.0 would be float64
    hint = gc.add(boundary, gc.mul(_linear(params, "vel.tok", z_hist[:, -2:-1]), minus_one))
    omega = _fusion_ramp(k_f, boundary.dtype)
    gates = gc.reshape(gc.sigmoid(params["vel.fusion.gate_raw"]), (1, k_f, 1, 1))
    cue = gc.add(boundary, gc.mul(hint, omega))  # (B, 1, N, D) broadcast over K_f
    return gc.mul(gc.mul(cue, gates), params["vel.fusion.alpha"])


@functools.cache
def _fusion_ramp(k_f: int, dtype) -> np.ndarray:
    """history_cue's fusion ramp (1, k_f, 1, 1): 0 at the first future step, 1 at
    the last; read-only, as every call shares it."""
    omega = np.linspace(0.0, 1.0, k_f, dtype=dtype).reshape(1, k_f, 1, 1)
    omega.flags.writeable = False
    return omega


@functools.cache
def _frequencies(half: int) -> np.ndarray:
    """time_features' frequency table, 2 ** k for k < half; read-only, as every call shares it."""
    freqs = 2.0 ** np.arange(half)
    freqs.flags.writeable = False
    return freqs


def time_features(t: np.ndarray, n_features: int) -> np.ndarray:
    """Sinusoidal embedding of the (B,) float64 flow times `t`, as
    velocity_forward converts them: (B, n_features)."""
    ang = 2.0 * np.pi * t[:, None] * _frequencies(n_features // 2)[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass(frozen=True)
class Condition:
    """A batch's flow condition, fixed over an ODE solve: the history cue
    (B, K_f, N, D) and the condition tokens (B, K_f, N, cond_hidden)."""

    cue: Tensor
    tokens: Tensor


def encode_condition(z_hist, visibility, params: dict, cfg: FlowConfig) -> Condition:
    """Encode history latents z_hist (B, K_p, N, C) and their visibility
    tokens (B, K_p, N) for the K_f = cfg.future_steps latent steps generated."""
    z_hist = _with_batch("encode_condition", z_hist, LATENT)
    vis = _with_batch("encode_condition", visibility, LATENT[:-1])
    b, k_p, n, c = z_hist.shape
    expected = (cfg.history_steps, cfg.n_tokens, cfg.latent_channels)
    if z_hist.shape[1:] != expected:
        raise gc.ShapeError("encode_condition", z_hist.shape, expected)
    if vis.shape != z_hist.shape[:-1]:
        raise gc.ShapeError("encode_condition", vis.shape, z_hist.shape[:-1])
    k_f = cfg.future_steps
    cue = history_cue(z_hist, params, k_f)
    hist_tok = gc.regroup(z_hist, z_hist.shape, (0, 2, 1, 3), (b, 1, n, k_p * c))
    vis_hist = vis.transpose(0, 2, 1).reshape(b, 1, n, k_p)
    vis_hist = Tensor(vis_hist.astype(z_hist.dtype, copy=False))
    tokens = _linear(params, "vel.cond", gc.concat([hist_tok, vis_hist], axis=3))
    # concat needs the full shape
    tokens = gc.add(np.zeros((b, k_f, n, cfg.cond_hidden), tokens.dtype), tokens)
    return Condition(cue, tokens)


def velocity_forward(z_t, t, cond: Condition, params: dict, cfg: FlowConfig) -> Tensor:
    """Conditional velocity for latent state z_t at flow time t.

    z_t is (B, K_f, N, C), and so is the output; t is one flow time or one
    per instance; cond is `encode_condition`'s encoding of the same batch.
    """
    z_t = _with_batch("velocity_forward", z_t, LATENT)
    b, k_f, n, c = z_t.shape
    if n != cfg.n_tokens or c != cfg.latent_channels:
        raise gc.ShapeError("velocity_forward", z_t.shape, (cfg.n_tokens, cfg.latent_channels))
    if cond.cue.shape[:3] != (b, k_f, n):
        raise gc.ShapeError("velocity_forward", z_t.shape, cond.cue.shape)
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t.shape not in ((1,), (b,)):
        raise gc.ShapeError("velocity_forward", t.shape, (b,))

    tok = gc.add(_linear(params, "vel.tok", z_t), cond.cue)
    emb = time_features(t, cfg.time_features).astype(z_t.dtype, copy=False)
    emb_t = np.broadcast_to(emb[:, None, None], (b, k_f, n, cfg.time_features))
    h = gc.concat([tok, emb_t, cond.tokens], axis=3)
    h = gc.gelu(_linear(params, "vel.merge", h))
    for i in range(cfg.blocks):
        h = _block(params, f"vel.block{i}", h)
    return _linear(params, "vel.head", h)


# -- visibility head ---------------------------------------------------------


def pool_visibility(mask: np.ndarray, cfg: VaeConfig, reduce: str = "max") -> np.ndarray:
    """Pool dense (B, T, H, W) masks onto the latent token grid of the VAE
    `cfg`, giving (B, T_lat, N) float64 (float32 for a float32 mask).

    reduce="max" is the logical OR (the visibility head's targets);
    reduce="mean" is the visible fraction (condition tokens, loss weights).
    As vae_encode does, time groups temporal_ratio frames per latent step and
    pads the last group with its last frame, and space groups patch x patch
    blocks; the masks' (H, W) must be the VAE's frame.
    """
    if reduce not in ("max", "mean"):
        raise ValueError(f"unknown reduce {reduce!r}")
    mask = _with_batch("pool_visibility", mask, SEGMENT[:-1])
    b, t, h, w = mask.shape
    if t < 1 or (h, w) != (cfg.height, cfg.width):
        raise gc.ShapeError("pool_visibility", mask.shape, (cfg.height, cfg.width))
    r, p = cfg.temporal_ratio, cfg.patch
    t_lat = latent_steps(t, r)
    if t_lat * r != t:
        mask = np.concatenate([mask, np.repeat(mask[:, -1:], t_lat * r - t, axis=1)], axis=1)
    blocks = mask.reshape(b, t_lat, r, cfg.tokens_h, p, cfg.tokens_w, p)
    return getattr(blocks, reduce)(axis=(2, 4, 6)).reshape(b, t_lat, cfg.n_tokens)


def broadcast_token_mask(token_mask: np.ndarray, cfg: VaeConfig, frames: int) -> np.ndarray:
    """Up-broadcast a (T_lat, N) token mask of the VAE `cfg` to a dense
    (frames, H, W) uint8 mask, the inverse of pool_visibility: a latent step
    covers temporal_ratio frames and a token a patch x patch block; frames
    past `frames` are cut, as vae_decode does."""
    r, p = cfg.temporal_ratio, cfg.patch
    grid = token_mask.reshape(-1, cfg.tokens_h, cfg.tokens_w)
    dense = np.repeat(np.repeat(np.repeat(grid, r, axis=0), p, axis=1), p, axis=2)
    return dense[:frames].astype(np.uint8)


def _temporal_conv(params: dict, name: str, h: Tensor) -> Tensor:
    """Kernel-3 zero-padded 1-D convolution along latent time, as a strided
    affine map over shifted copies."""
    b, k, n, d = h.shape
    zero = np.zeros((b, 1, n, d), h.dtype)
    prev = gc.concat([zero, h[:, :-1]], axis=1) if k > 1 else zero
    nxt = gc.concat([h[:, 1:], zero], axis=1) if k > 1 else zero
    stacked = gc.concat([prev, h, nxt], axis=3)
    return _linear(params, name, stacked)


def visibility_logits(z_f, params: dict) -> Tensor:
    """Per-token visibility logits (B, K_f, N) of future latents (B, K_f, N, C)."""
    z_f = _with_batch("visibility_logits", z_f, LATENT)
    h = _linear(params, "vis.embed", z_f)
    h = gc.gelu(_temporal_conv(params, "vis.conv0", h))
    h = gc.gelu(_temporal_conv(params, "vis.conv1", h))
    logits = _linear(params, "vis.head", h)
    return gc.reshape(logits, logits.shape[:-1])


def visibility_predict(z_f, params: dict):
    """Per-token visibility (logits, mask of probability >= 0.5) for future latents."""
    logits = visibility_logits(_with_batch("visibility_predict", z_f, LATENT), params)
    prob = 1.0 / (1.0 + np.exp(-logits.data))
    return logits, (prob >= 0.5).astype(np.uint8)
