"""Scores of trained models that the acceptance criteria and the digest read
and the package never runs: the VAE's posterior-mean reconstruction and a
bundle's held-out flow-matching loss at fixed draws."""

from dataclasses import replace

from trajkit import flowgen, gradcore as gc
from trajkit.models import vae_decode, vae_encode, wrap_params

EVAL_FM_SEED = 1234  # eval_fm_loss's noise and time draws


def vae_reconstruct(params, cfg, segments):
    """Posterior-mean reconstruction, numpy in/out."""
    wrapped = wrap_params(params, requires_grad=False)
    mu, _ = vae_encode(segments, wrapped, cfg)
    return vae_decode(mu, wrapped, cfg, frames=segments.shape[1]).data


def eval_fm_loss(bundle, dataset, cfg) -> float:
    """Deterministic held-out flow-matching loss of the bundle's model (fixed
    noise and time draws), under the bundle's VAE and latent statistics: a
    bundle is scored as it samples, whatever model `cfg` names."""
    rng = gc.rng(EVAL_FM_SEED)
    cfg = replace(cfg, flow=bundle.flow_cfg)
    z_p, z_f, _, vis_tok, weights = flowgen._flow_inputs(dataset, bundle.vae_params,
                                                         bundle.vae_cfg, cfg, bundle.stats)
    wrapped = wrap_params(bundle.flow_params, requires_grad=False)
    loss, _ = flowgen.flow_step_loss(wrapped, z_p, z_f, vis_tok, weights, cfg, rng)
    return float(loss)
