"""End-to-end future generation at desk scale.

Trains a small trajectory VAE and a boundary-anchored rectified-flow
generator on translating scenes (about three CPU minutes), then samples
futures for held-out histories and checks the decoded motion keeps the
ground-truth direction.
"""

import math

import numpy as np

from trajkit import flowgen
from trajkit.config import RunConfig
from trajkit.scenes import pair_dataset, scene_specs
from trajkit.trajfield import OffsetField, coarse_positions

desk = RunConfig.desk()
geom = desk.geometry()
vae_cfg = desk.vae_config()

print("training trajectory VAE (500 steps) ...")
# both windows of each scene, so the decoder sees late-window offset scales
segments = pair_dataset("smooth", 16, seed=0, geom=geom).windows()
vae_params, vae_curve = flowgen.train_vae(segments, desk.vae_train_config(), seed=0)
print(f"  loss {vae_curve[0]['total']:.4f} -> {vae_curve[-1]['total']:.4f}")

print("training rectified flow (1000 steps) ...")
pairs = pair_dataset("translation", 24, seed=1, geom=geom)
train_cfg = desk.flow_train_config()
bundle, flow_curve = flowgen.train_flow(pairs, vae_params, vae_cfg, train_cfg, seed=2)
print(f"  fm loss {flow_curve[0]['fm']:.4f} -> {flow_curve[-1]['fm']:.4f}")

print("sampling futures for held-out translation scenes ...")
eval_pairs = pair_dataset("translation", 4, seed=7, geom=geom)
eval_specs = scene_specs("translation", 4, seed=7, geom=geom)
for i, spec in enumerate(eval_specs):
    hist = OffsetField(eval_pairs.past[i], eval_pairs.past_masks[i], geom.stride)
    future, _ = flowgen.sample_future(hist, bundle, seed=100 + i)
    px, _ = coarse_positions(future)
    got = (px[1:] - px[:-1]).mean(axis=(0, 1, 2))
    want = np.array(spec.velocity)
    cos = got @ want / (np.linalg.norm(got) * np.linalg.norm(want))
    angle = math.degrees(math.acos(np.clip(cos, -1, 1)))
    print(f"  scene {i}: true v=({want[0]:+.2f},{want[1]:+.2f}) px/frame, "
          f"sampled v=({got[0]:+.2f},{got[1]:+.2f}), angle {angle:.1f} deg")
