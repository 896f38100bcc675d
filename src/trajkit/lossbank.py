"""Differentiable training objectives for trajectory fields and latents.

All losses accept a single instance or a leading batch dimension; masked
normalizations happen per instance, then instances average.  Reconstruction
targets and masks are plain arrays; the quantity being optimized may be a
gradcore Tensor, so every loss returns a Tensor (use float() to read it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import gradcore as gc
from .gradcore import Tensor, as_tensor
from .models import _batched, pool_visibility


@dataclass
class SegmentPair:
    """Target/reconstruction offset segments plus visibility mask.

    target, recon: (T, H, W, 2) or (B, T, H, W, 2); mask matches minus the
    channel axis.
    """

    target: np.ndarray
    recon: "Tensor | np.ndarray"
    mask: np.ndarray


@dataclass
class NeighborSpec:
    """Multi-hop neighborhood for the spatial consistency term."""

    hops: tuple = (1, 2, 4)
    weights: tuple = (1.0, 0.5, 0.25)

    def __post_init__(self):
        if len(self.hops) != len(self.weights):
            raise ValueError("hops and weights must pair up")
        if any(h <= 0 for h in self.hops) or any(w <= 0 for w in self.weights):
            raise ValueError("hops and weights must be positive")


def huber(residual: Tensor, delta: float) -> Tensor:
    """Quadratic inside |r| <= delta, linear outside; applied elementwise."""
    residual = as_tensor(residual)
    mag = gc.absolute(residual)
    quad = gc.mul(gc.square(residual), 0.5)
    lin = gc.add(gc.mul(mag, delta), -0.5 * delta * delta)
    return gc.where(mag.data <= delta, quad, lin)


def _pair_arrays(pair: SegmentPair):
    """recon, target and mask of a pair, each with a batch axis."""
    return _batched(pair.recon, 4)[0], _batched(pair.target, 4)[0], _batched(pair.mask, 3)[0]


def recon_loss(pair: SegmentPair, huber_delta: float = 1.0) -> Tensor:
    """Visibility-normalized Huber reconstruction error, per-coordinate and
    summed over the two channels."""
    recon, target, mask = _pair_arrays(pair)
    denom = mask.sum(axis=(1, 2, 3))
    if np.any(denom == 0):
        raise ValueError("recon_loss: a segment has no visible elements")
    w = mask / denom[:, None, None, None]
    rho = gc.tsum(huber(gc.add(recon, -target), huber_delta), axis=4)
    per_instance = gc.tsum(gc.reshape(gc.mul(rho, w), (w.shape[0], -1)), axis=1)
    return gc.tmean(per_instance)


def _shift_mismatch(recon, target, mask, hop: int, axis: int):
    """Per instance: the L1 mismatch of recon's and target's hop-differences
    along `axis`, summed over pairs whose two ends are visible, and the
    count of those pairs."""
    lead = (slice(None),) * axis
    hi, lo = lead + (slice(hop, None),), lead + (slice(None, -hop),)
    m_pair = mask[hi] * mask[lo]
    d_target = target[hi] - target[lo]
    l1 = gc.tsum(gc.absolute(gc.add(gc.shift_diff(recon, hop, axis), -d_target)), axis=4)
    masked = gc.tsum(gc.reshape(gc.mul(l1, m_pair), (m_pair.shape[0], -1)), axis=1)
    return masked, m_pair.sum(axis=(1, 2, 3))


def temporal_loss(pair: SegmentPair) -> Tensor:
    """Pair-masked mean L1 mismatch of frame-to-frame displacements."""
    recon, target, mask = _pair_arrays(pair)
    if target.shape[1] < 2:
        raise ValueError("temporal_loss: need at least 2 frames")
    masked, denom = _shift_mismatch(recon, target, mask, 1, 1)
    if np.any(denom == 0):
        raise ValueError("temporal_loss: no valid temporal pair in a segment")
    return gc.tmean(gc.div(masked, denom))


def spatial_loss(pair: SegmentPair, spec: NeighborSpec | None = None) -> Tensor:
    """Multi-hop neighbor-difference mismatch, both grid directions pooled
    per hop; hops with no valid pair drop out of the weight normalizer."""
    spec = spec or NeighborSpec()
    recon, target, mask = _pair_arrays(pair)
    terms, denoms = [], []  # per hop: (b,) mean mismatch Tensor or None, (b,) pair counts
    for hop in spec.hops:
        parts = [_shift_mismatch(recon, target, mask, hop, axis)
                 for axis in (3, 2) if mask.shape[axis] > hop]  # W, then H of (b, t, h, w)
        denoms.append(sum((count for _, count in parts), np.zeros(mask.shape[0])))
        terms.append(gc.div(reduce(gc.add, [part for part, _ in parts]),
                            np.maximum(denoms[-1], 1.0)) if parts else None)
    alpha = np.array(spec.weights, dtype=np.float64)
    valid = np.stack([d > 0 for d in denoms])  # (hops, b)
    norms = (alpha[:, None] * valid).sum(axis=0)
    if np.any(norms == 0):
        raise ValueError("spatial_loss: no valid neighbor pair at any hop")
    return gc.tmean(reduce(gc.add, [gc.mul(term, alpha[i] * valid[i] / norms)
                                    for i, term in enumerate(terms) if term is not None]))


def consistency_terms(pair: SegmentPair, spec: NeighborSpec | None,
                      lambda_temporal: float, lambda_spatial: float):
    """The spatiotemporal regularizer's terms: (lambda_temporal * temporal,
    lambda_spatial * spatial, temporal, spatial).  A zero weight skips its
    loss, which then reads 0."""
    l_tmp = temporal_loss(pair) if lambda_temporal else Tensor(0.0)
    l_sp = spatial_loss(pair, spec) if lambda_spatial else Tensor(0.0)
    return gc.mul(l_tmp, lambda_temporal), gc.mul(l_sp, lambda_spatial), l_tmp, l_sp


def kl_loss(mu, logvar) -> Tensor:
    """Mean per-element KL of N(mu, exp(logvar)) against the unit normal."""
    mu = as_tensor(mu)
    logvar = as_tensor(logvar)
    if mu.shape != logvar.shape:
        raise gc.ShapeError("kl_loss", mu.shape, logvar.shape)
    term = gc.add(gc.add(gc.square(mu), gc.exp(logvar)), gc.add(gc.mul(logvar, -1.0), -1.0))
    return gc.mul(gc.tmean(term), 0.5)


def token_weights(future_mask: np.ndarray, token_grid: tuple, floor: float = 0.01, *,
                  ratio: int) -> np.ndarray:
    """Mean-pool future visibility onto the latent token grid, floor it so
    invisible tokens keep a small weight, then normalize to sum 1 per
    instance: (T_lat, N), or (B, T_lat, N) for a batch of masks.

    token_grid is (t_lat, h_tok, w_tok); the mask's trailing (T, H, W) axes
    must tile onto it, `ratio` frames per latent step (see pool_visibility).
    """
    w = np.maximum(pool_visibility(future_mask, token_grid, reduce="mean", ratio=ratio), floor)
    total = w.sum(axis=(-2, -1), keepdims=True)
    if np.any(total == 0):
        raise ValueError("token_weights: all token weights zero (floor=0 and fully invisible)")
    return w / total


def _weighted_sq(diff: Tensor, weights: np.ndarray) -> Tensor:
    """(1/C) sum_{k,n} w(k,n) ||diff(k,n)||^2, batched; returns (b,) Tensor."""
    b, _, _, c = diff.shape
    sq = gc.tsum(gc.square(diff), axis=3)  # (b, k, n)
    if weights.shape != sq.shape:
        raise gc.ShapeError("token-weighted norm", weights.shape, sq.shape)
    return gc.mul(gc.tsum(gc.reshape(gc.mul(sq, weights), (b, -1)), axis=1), 1.0 / c)


def _weights_array(weights, batch: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    return np.broadcast_to(w[None], (batch, *w.shape)) if w.ndim == 2 else w


def fm_loss(v_pred, u_target, weights) -> Tensor:
    """Token-weighted squared flow-matching error, averaged over channels."""
    v, _ = _batched(v_pred, 3)
    u, _ = _batched(u_target.data if isinstance(u_target, Tensor) else u_target, 3)
    if v.shape != u.shape:
        raise gc.ShapeError("fm_loss", v.shape, u.shape)
    w = _weights_array(weights, v.shape[0])
    return gc.tmean(_weighted_sq(gc.add(v, -u), w))


def kstep_targets(z_i: np.ndarray, z0: np.ndarray, z1: np.ndarray, t_i: float,
                  denom_clamp: float = 1e-3):
    """Endpoint-consistent velocity targets from a visited state; denominators
    clamp away from zero near t = 0 and t = 1."""
    z_i = np.asarray(z_i, dtype=np.float64)
    v1 = (np.asarray(z1, dtype=np.float64) - z_i) / max(1.0 - t_i, denom_clamp)
    v0 = (z_i - np.asarray(z0, dtype=np.float64)) / max(t_i, denom_clamp)
    return v1, v0


def kstep_loss(velocities, targets_per_step, weights, w1: float = 1.0, w0: float = 0.5) -> Tensor:
    """Mean over rollout steps of the weighted pull toward both endpoints."""
    if len(velocities) != len(targets_per_step) or not velocities:
        raise ValueError(f"kstep_loss: {len(velocities)} velocities vs "
                         f"{len(targets_per_step)} target pairs")
    total = None
    for v, (v1, v0) in zip(velocities, targets_per_step):
        vb, _ = _batched(v, 3)
        v1b, _ = _batched(v1, 3)
        v0b, _ = _batched(v0, 3)
        w = _weights_array(weights, vb.shape[0])
        step = gc.add(gc.mul(_weighted_sq(gc.add(vb, -v1b), w), w1),
                      gc.mul(_weighted_sq(gc.add(vb, -v0b), w), w0))
        total = step if total is None else gc.add(total, step)
    return gc.tmean(gc.mul(total, 1.0 / len(velocities)))


def endpoint_consistency(states, velocities, times) -> Tensor:
    """Squared drift of consecutive implied endpoints along a rollout, with
    the previous step's endpoints detached; every token weighs 1/|Lambda|."""
    k = len(velocities)
    if k < 2:
        raise ValueError("endpoint_consistency: need at least 2 rollout steps")
    if len(states) < k or len(times) < k:
        raise ValueError("endpoint_consistency: states/times shorter than velocities")

    def implied(i, velocity):
        zb, _ = _batched(states[i], 3)
        vb, _ = _batched(velocity, 3)
        t = float(times[i])
        return gc.add(zb, gc.mul(vb, 1.0 - t)), gc.add(zb, gc.mul(vb, -t))

    # step 0's endpoints are only ever detached: build them from the velocity's
    # values, so no gradient-carrying node is made for them
    prev = [e.data for e in implied(0, as_tensor(velocities[0]).data)]
    total = None
    for i in range(1, k):
        cur = implied(i, velocities[i])
        b, kk, n, _ = cur[0].shape
        w = np.full((b, kk, n), 1.0 / (kk * n))
        term = gc.add(_weighted_sq(gc.add(cur[0], -prev[0]), w),
                      _weighted_sq(gc.add(cur[1], -prev[1]), w))
        total = term if total is None else gc.add(total, term)
        prev = [e.data for e in cur]
    return gc.tmean(gc.mul(total, 1.0 / (k - 1)))


def bce_logits(logits, targets) -> Tensor:
    """Numerically stable mean binary cross-entropy on logits."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise gc.ShapeError("bce_logits", logits.shape, targets.shape)
    if np.any((targets < 0) | (targets > 1)):
        raise ValueError("bce_logits: targets must lie in [0, 1]")
    return gc.tmean(gc.add(gc.softplus(logits), gc.mul(logits, -targets)))
