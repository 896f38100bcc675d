"""trajkit: dense trajectory-field motion toolkit.

Grid-anchored offset encoding of point tracks, a spatiotemporally
regularized trajectory VAE, rectified-flow generation of future motion
with boundary hints and on-policy rollout fine-tuning, and reference-free
flow diagnostics — all CPU-sized, with synthetic scene generators that
double as test oracles.
"""

from .flowgen import (
    FinetuneConfig,
    FlowBundle,
    FlowTrainConfig,
    LatentStats,
    SegmentDataset,
    PairDataset,
    TimeGrid,
    VaeTrainConfig,
    boundary_init,
    denormalize_latents,
    dopri5_sample,
    euler_sample,
    finetune_onpolicy,
    interpolate,
    kstep_rollout,
    logit_grid,
    normalize_latents,
    sample_future,
    sample_time,
    train_flow,
    train_vae,
    train_visibility_head,
)
from .lossbank import (
    NeighborSpec,
    SegmentPair,
    bce_logits,
    consistency_terms,
    endpoint_consistency,
    fm_loss,
    kl_loss,
    kstep_loss,
    kstep_targets,
    recon_loss,
    spatial_loss,
    temporal_loss,
    token_weights,
)
from .metrics import GridFlow, div_curl_energy, explained_variance, flow_from_positions, flow_tv, vepe
from .models import (
    FlowConfig,
    VaeConfig,
    encode_condition,
    pool_visibility,
    reparameterize,
    vae_decode,
    vae_encode,
    velocity_forward,
    visibility_predict,
)
from .motionlab import CameraStats, MotionSpec, caption, estimate_camera, generate, toy_1d_pair
from .trajfield import (
    DenseField,
    OffsetField,
    SparseTracks,
    anchor_grid,
    cell_anchors,
    coarse_positions,
    rasterize,
    to_absolute,
    to_offsets,
)

__version__ = "0.1.0"
