"""Shared desk-scale fixtures: scene suites, datasets, and tiny configs."""

from dataclasses import replace

import pytest

from trajkit import flowgen
from trajkit.config import RunConfig
from trajkit.models import FlowConfig, VaeConfig
from trajkit.scenes import pair_dataset, segment_dataset

DESK = RunConfig.desk()
DESK_GEOM = DESK.geometry()


def desk_vae_config(**overrides) -> VaeConfig:
    return replace(DESK.vae_config(), **overrides)


def desk_flow_config(vae: VaeConfig, **overrides) -> FlowConfig:
    """The desk flow config on `vae`'s latents (at the desk's temporal ratio)."""
    return replace(DESK.flow_config(), latent_channels=vae.latent_channels,
                   n_tokens=vae.n_tokens, **overrides)


def make_segment_dataset(kind_mix: str, n: int, seed: int, frames: int | None = None):
    return segment_dataset(kind_mix, n, seed, DESK_GEOM, frames=frames)


def make_pair_dataset(kind_mix: str, n: int, seed: int):
    return pair_dataset(kind_mix, n, seed, DESK_GEOM)


@pytest.fixture(scope="session")
def desk_vae_cfg():
    return desk_vae_config()


@pytest.fixture(scope="session")
def tiny_vae_cfg():
    return desk_vae_config(hidden=24, blocks=1, latent_channels=4)


@pytest.fixture(scope="session")
def tiny_bundle(tiny_vae_cfg):
    """A small trained-ish bundle shared by sampling/cli tests (few steps:
    wiring, not quality)."""
    dataset = make_segment_dataset("smooth", 8, seed=0)
    vcfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=30, batch=4, lr=3e-3)
    vae_params, _ = flowgen.train_vae(dataset, vcfg, seed=0)
    pairs = make_pair_dataset("translation", 8, seed=1)
    fcfg = flowgen.FlowTrainConfig(flow=desk_flow_config(tiny_vae_cfg, hidden=24, blocks=1),
                                   steps=30, batch=4, lr=1e-3)
    bundle, _ = flowgen.train_flow(pairs, vae_params, tiny_vae_cfg, fcfg, seed=2)
    return bundle, pairs, fcfg
