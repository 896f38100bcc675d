"""Differentiable training objectives for trajectory fields and latents.

Every loss takes inputs with a leading batch axis, also for one instance,
and refuses an input without it; masked normalizations happen per instance,
then instances average.  Segment losses take `target, recon, mask` first;
targets and masks are plain arrays, the quantity being optimized may be a
gradcore Tensor, so every loss returns a Tensor (use float() to read it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import gradcore as gc
from .gradcore import Tensor, as_tensor
from .models import LATENT, SEGMENT, VaeConfig, _with_batch, pool_visibility
from .rules import AT_LEAST_1, FINITE_POSITIVE, Checked, FieldError, each, ranged
from .trajfield import check_visibility

HUBER_DELTA = 1.0  # recon_loss's Huber transition
DENOM_CLAMP = 1e-3  # kstep_targets' floor on the time left to each endpoint


@dataclass
class NeighborSpec(Checked):
    """Multi-hop neighborhood for the spatial consistency term."""

    hops: tuple = ranged((1, 2, 4), each("integers >= 1", AT_LEAST_1))
    hop_weights: tuple = ranged((1.0, 0.5, 0.25), each("finite numbers > 0", FINITE_POSITIVE))

    def __post_init__(self):
        super().__post_init__()
        if len(self.hops) != len(self.hop_weights):
            raise FieldError("hops", self.hops, f"one per weight ({len(self.hop_weights)})")


def _pair_arrays(target, recon, mask, op: str):
    """target, recon (B, T, H, W, 2) and a 0/1 mask (B, T, H, W) of any dtype,
    returned as recon, target and the mask as bool, a byte a cell, whose pair
    products and counts are exact.  An input without its batch axis is a
    ShapeError, a mask entry other than 0 or 1 a ValueError, each naming `op`."""
    recon, target = _with_batch(op, recon, SEGMENT), _with_batch(op, target, SEGMENT)
    mask = np.asarray(mask)
    if mask.ndim != len(SEGMENT) - 1:
        raise gc.ShapeError(op, mask.shape, SEGMENT[:-1])
    try:
        check_visibility(mask, ("segment", "frame", "row", "column"))
    except ValueError as exc:
        raise ValueError(f"{op}: {exc}") from None
    return recon, target, mask != 0


def recon_loss(target, recon, mask) -> Tensor:
    """Visibility-normalized Huber reconstruction error, per-coordinate and
    summed over the two channels."""
    recon, target, mask = _pair_arrays(target, recon, mask, "recon_loss")
    denom = mask.sum(axis=(1, 2, 3))
    if np.any(denom == 0):
        raise ValueError("recon_loss: a segment has no visible elements")
    return gc.tmean(gc.huber(recon, target, mask / denom[:, None, None, None], HUBER_DELTA))


def _shift_mismatch(recon, target, mask, hop: int, axis: int):
    """Per instance: the L1 mismatch of recon's and target's hop-differences
    along `axis`, summed over pairs whose two ends are visible, and the
    count of those pairs."""
    lead = (slice(None),) * axis
    hi, lo = lead + (slice(hop, None),), lead + (slice(None, -hop),)
    m_pair = mask[hi] * mask[lo]
    return (gc.shift_l1(recon, hop, axis, target[hi] - target[lo], m_pair),
            m_pair.sum(axis=(1, 2, 3)))


def temporal_loss(target, recon, mask) -> Tensor:
    """Pair-masked mean L1 mismatch of frame-to-frame displacements."""
    recon, target, mask = _pair_arrays(target, recon, mask, "temporal_loss")
    if target.shape[1] < 2:
        raise ValueError("temporal_loss: need at least 2 frames")
    masked, denom = _shift_mismatch(recon, target, mask, 1, 1)
    if np.any(denom == 0):
        raise ValueError("temporal_loss: no valid temporal pair in a segment")
    return gc.tmean(gc.div(masked, denom))


def spatial_loss(target, recon, mask, spec: NeighborSpec | None = None) -> Tensor:
    """Multi-hop neighbor-difference mismatch, both grid directions pooled
    per hop; hops with no valid pair drop out of the weight normalizer."""
    spec = spec or NeighborSpec()
    recon, target, mask = _pair_arrays(target, recon, mask, "spatial_loss")
    terms, denoms = [], []  # per hop: (b,) mean mismatch Tensor or None, (b,) pair counts
    for hop in spec.hops:
        parts = [_shift_mismatch(recon, target, mask, hop, axis)
                 for axis in (3, 2) if mask.shape[axis] > hop]  # W, then H of (b, t, h, w)
        denoms.append(sum((count for _, count in parts), np.zeros(mask.shape[0])))
        terms.append(gc.div(reduce(gc.add, [part for part, _ in parts]),
                            np.maximum(denoms[-1], 1.0)) if parts else None)
    alpha = np.array(spec.hop_weights, dtype=np.float64)
    valid = np.stack([d > 0 for d in denoms])  # (hops, b)
    norms = (alpha[:, None] * valid).sum(axis=0)
    if np.any(norms == 0):
        raise ValueError("spatial_loss: no valid neighbor pair at any hop")
    return gc.tmean(reduce(gc.add, [gc.mul(term, alpha[i] * valid[i] / norms)
                                    for i, term in enumerate(terms) if term is not None]))


def consistency_terms(target, recon, mask, spec: NeighborSpec | None,
                      lambda_temporal: float, lambda_spatial: float):
    """The spatiotemporal regularizer's terms: (lambda_temporal * temporal,
    lambda_spatial * spatial, temporal, spatial).  A zero weight skips its
    loss, which then reads 0."""
    _pair_arrays(target, recon, mask, "consistency_terms")  # batch axes checked at any weight
    l_tmp = temporal_loss(target, recon, mask) if lambda_temporal else Tensor(0.0)
    l_sp = spatial_loss(target, recon, mask, spec) if lambda_spatial else Tensor(0.0)
    return gc.mul(l_tmp, lambda_temporal), gc.mul(l_sp, lambda_spatial), l_tmp, l_sp


def kl_loss(mu, logvar) -> Tensor:
    """Mean per-element KL of N(mu, exp(logvar)) against the unit normal."""
    mu = as_tensor(mu)
    logvar = as_tensor(logvar)
    if mu.shape != logvar.shape:
        raise gc.ShapeError("kl_loss", mu.shape, logvar.shape)
    term = gc.add(gc.add(gc.mul(mu, mu), gc.exp(logvar)), gc.add(gc.mul(logvar, -1.0), -1.0))
    return gc.mul(gc.tmean(term), 0.5)


def token_weights(future_mask: np.ndarray, cfg: VaeConfig, floor: float) -> np.ndarray:
    """Mean-pool future visibility masks (B, T, H, W) onto the token grid of
    the VAE `cfg` (see pool_visibility), floor it so invisible tokens keep a
    small weight, then normalize to sum 1 per instance: (B, T_lat, N).
    """
    future_mask = _with_batch("token_weights", future_mask, SEGMENT[:-1])
    w = np.maximum(pool_visibility(future_mask, cfg, reduce="mean"), floor)
    total = w.sum(axis=(1, 2), keepdims=True)
    if np.any(total == 0):
        raise ValueError("token_weights: all token weights zero (floor=0 and fully invisible)")
    return w / total


def fm_loss(v_pred, u_target, weights) -> Tensor:
    """Token-weighted squared flow-matching error, averaged over channels."""
    v = _with_batch("fm_loss", v_pred, LATENT)
    u = _with_batch("fm_loss", as_tensor(u_target).data, LATENT)
    return gc.tmean(gc.weighted_sq(v, u, _with_batch("fm_loss", weights, LATENT[:-1])))


def kstep_targets(z_i: np.ndarray, z0: np.ndarray, z1: np.ndarray, t_i: float):
    """Endpoint-consistent velocity targets from a visited state; denominators
    clamp away from zero near t = 0 and t = 1."""
    z_i = np.asarray(z_i, dtype=np.float64)
    v1 = (np.asarray(z1, dtype=np.float64) - z_i) / max(1.0 - t_i, DENOM_CLAMP)
    v0 = (z_i - np.asarray(z0, dtype=np.float64)) / max(t_i, DENOM_CLAMP)
    return v1, v0


def kstep_loss(velocities, targets_per_step, weights, w1: float = 1.0, w0: float = 0.5) -> Tensor:
    """Mean over rollout steps of the weighted pull toward both endpoints."""
    if len(velocities) != len(targets_per_step) or not velocities:
        raise ValueError(f"kstep_loss: {len(velocities)} velocities vs "
                         f"{len(targets_per_step)} target pairs")
    weights, total = _with_batch("kstep_loss", weights, LATENT[:-1]), None
    for v, (v1, v0) in zip(velocities, targets_per_step):
        v, v1, v0 = (_with_batch("kstep_loss", a, LATENT) for a in (v, v1, v0))
        step = gc.add(gc.mul(gc.weighted_sq(v, v1, weights), w1),
                      gc.mul(gc.weighted_sq(v, v0, weights), w0))
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
        z = _with_batch("endpoint_consistency", states[i], LATENT)
        v = _with_batch("endpoint_consistency", velocity, LATENT)
        t = float(times[i])
        return gc.add(z, gc.mul(v, 1.0 - t)), gc.add(z, gc.mul(v, -t))

    # step 0's endpoints are only ever detached: build them from the velocity's
    # values, so no gradient-carrying node is made for them
    prev = [e.data for e in implied(0, as_tensor(velocities[0]).data)]
    total = None
    for i in range(1, k):
        cur = implied(i, velocities[i])
        b, kk, n, _ = cur[0].shape
        w = np.full((b, kk, n), 1.0 / (kk * n))
        term = gc.add(gc.weighted_sq(cur[0], prev[0], w), gc.weighted_sq(cur[1], prev[1], w))
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
