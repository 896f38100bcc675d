"""Grid-anchored offset encoding, step by step.

Builds a translating synthetic scene, rasterizes the stride-grid tracks into
a dense field of anchor offsets, and shows why offsets are the
better learning representation: the share of coordinate variance explained
by grid location collapses once anchors are subtracted.
"""

import numpy as np

from trajkit import metrics
from trajkit.motionlab import MotionSpec, generate
from trajkit.trajfield import cell_anchors, normalize_coords, rasterize, to_absolute, to_offsets

spec = MotionSpec("translation", frames=12, height=32, width=32, stride=8,
                  velocity=(1.5, 0.5))
tracks = generate(spec)
print(f"scene: {spec.kind}, {tracks.frames} frames, "
      f"{tracks.coords.shape[1]} tracks on a stride-{spec.stride} grid")

field = rasterize(tracks)
coords = to_absolute(field.offsets)
print(f"dense field: {field.offsets.shape} anchor offsets "
      f"(coordinates piecewise constant per {spec.stride}x{spec.stride} cell)")
print("offset round trip max error:", np.max(np.abs(to_offsets(coords) - field.offsets)))

# Variance attributable to *where* a track sits vs *how* it moves, on a
# scene mixing a static background with an oscillating region.
from trajkit.scenes import SceneGeometry, mixed_region_tracks

mixed = mixed_region_tracks(seed=3, geom=SceneGeometry(32, 32, 8, 12, 8))
norm = normalize_coords(mixed.coords, 32, 32)
anchors = cell_anchors(32, 32, 8).reshape(-1, 2)
explained_abs = metrics.explained_variance(norm, mixed.visibility)
explained_off = metrics.explained_variance(norm - anchors[None], mixed.visibility)
print(f"explained by location, absolute coords: x={explained_abs[0]:.1f}% y={explained_abs[1]:.1f}%")
print(f"explained by location, anchor offsets:  x={explained_off[0]:.1f}% y={explained_off[1]:.1f}%")
print("offsets keep the motion and drop the location bias.")
