"""Shared desk-scale fixtures: scene suites, datasets, and tiny configs."""

import pytest

from trajkit import flowgen
from trajkit.models import FlowConfig, VaeConfig, latent_steps
from trajkit.scenes import SceneGeometry, pair_dataset, segment_dataset

DESK_GEOM = SceneGeometry(height=32, width=32, stride=8, frames=16, past=8)


def desk_vae_config(**overrides) -> VaeConfig:
    base = dict(height=DESK_GEOM.height, width=DESK_GEOM.width, frames=DESK_GEOM.past,
                patch=8, hidden=64, blocks=2, latent_channels=8, temporal_ratio=4)
    base.update(overrides)
    return VaeConfig(**base)


def desk_flow_config(vae: VaeConfig, **overrides) -> FlowConfig:
    base = dict(hidden=64, blocks=2, cond_hidden=32, time_features=8,
                history_steps=latent_steps(DESK_GEOM.past, vae.temporal_ratio),
                future_steps=latent_steps(DESK_GEOM.frames - DESK_GEOM.past, vae.temporal_ratio),
                latent_channels=vae.latent_channels, n_tokens=vae.n_tokens)
    base.update(overrides)
    return FlowConfig(**base)


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
