"""Deterministic synthetic scene suites for training, evaluation, and demos."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import motionlab, trajfield
from .flowgen import PairDataset, SegmentDataset
from .motionlab import MotionSpec
from .rules import AT_LEAST_1, Checked, FieldError, ranged

KIND_MIXES = ("smooth", "translation", "jitter")


@dataclass
class SceneGeometry(Checked):
    height: int = ranged(32, AT_LEAST_1)
    width: int = ranged(32, AT_LEAST_1)
    stride: int = ranged(8, AT_LEAST_1)
    frames: int = ranged(16, AT_LEAST_1)
    past: int = ranged(8, AT_LEAST_1)

    def __post_init__(self):
        super().__post_init__()
        if self.past >= self.frames:
            raise FieldError("past", self.past, f"less than frames ({self.frames})")
        if self.height % self.stride or self.width % self.stride:
            raise FieldError("stride", self.stride, f"a divisor of {self.height}x{self.width}")


def scene_specs(kind_mix: str, n: int, seed: int, geom: SceneGeometry,
                frames: int | None = None) -> list:
    """A reproducible list of motion specs.

    smooth: round-robin translation/zoom/rotation/static with random rates.
    translation: evenly spread directions, random speeds.
    jitter: alternating-sign overlay on slow translations.
    """
    rng = np.random.default_rng(seed)
    base = dict(frames=frames if frames is not None else geom.frames,
                height=geom.height, width=geom.width, stride=geom.stride)

    def moving(kind, angle, speed, **rates):
        return MotionSpec(kind, velocity=(speed * np.cos(angle), speed * np.sin(angle)),
                          **rates, **base)

    specs = []
    for i in range(n):
        if kind_mix == "translation":
            specs.append(moving("translation", 2 * np.pi * i / n, 0.3 + 0.5 * rng.random()))
        elif kind_mix == "smooth":
            kind = ("translation", "zoom", "rotation", "static")[i % 4]
            if kind == "translation":
                specs.append(moving(kind, 2 * np.pi * rng.random(), 0.2 + 0.6 * rng.random()))
            elif kind == "zoom":
                specs.append(MotionSpec("zoom", zoom_rate=float(rng.uniform(-0.012, 0.012)),
                                        **base))
            elif kind == "rotation":
                specs.append(MotionSpec("rotation",
                                        angular_rate=float(rng.uniform(-0.03, 0.03)), **base))
            else:
                specs.append(MotionSpec("static", **base))
        elif kind_mix == "jitter":
            # drawn in this order: angle, speed, amplitude
            specs.append(moving("jitter-overlay", 2 * np.pi * rng.random(),
                                0.2 + 0.4 * rng.random(),
                                jitter_amplitude=float(rng.uniform(0.2, 0.45)),
                                jitter_axis=("x", "y", "both")[i % 3]))
        else:
            raise ValueError(f"unknown kind mix {kind_mix!r}; choose from {KIND_MIXES}")
    return specs


def segments_from_specs(specs) -> SegmentDataset:
    """Generate and rasterize each spec; stack the offset fields."""
    fields = [trajfield.rasterize(motionlab.generate(s)) for s in specs]
    return SegmentDataset(np.stack([f.offsets for f in fields]),
                          np.stack([f.mask for f in fields]))


def segment_dataset(kind_mix: str, n: int, seed: int, geom: SceneGeometry,
                    frames: int | None = None) -> SegmentDataset:
    """`n` scenes of `frames` frames (default: the history length)."""
    return segments_from_specs(scene_specs(kind_mix, n, seed, geom,
                                           frames=frames if frames is not None else geom.past))


def pair_dataset(kind_mix: str, n: int, seed: int, geom: SceneGeometry) -> PairDataset:
    """`n` full-length scenes, each split into its history and future windows."""
    return segment_dataset(kind_mix, n, seed, geom, frames=geom.frames).split(geom.past)


def mixed_region_tracks(seed: int, geom: SceneGeometry, moving_fraction: float = 0.5,
                        oscillate: bool = True) -> trajfield.SparseTracks:
    """A scene with a static background and a moving block of cells, used by
    the variance-decomposition analysis.

    Oscillating blocks displace back and forth so their time-mean offset
    stays near zero; translating blocks drift slowly.
    """
    rng = np.random.default_rng(seed)
    static = motionlab.generate(MotionSpec("static", frames=geom.frames, height=geom.height,
                                           width=geom.width, stride=geom.stride))
    coords = static.coords.copy()
    hc, wc = static.coarse_shape
    n = hc * wc
    n_moving = max(1, int(round(moving_fraction * n)))
    moving = rng.permutation(n)[:n_moving]
    amp = 1.0 + 2.0 * rng.random()
    angle = 2 * np.pi * rng.random()
    direction = np.array([np.cos(angle), np.sin(angle)])
    t = np.arange(geom.frames, dtype=np.float64)
    if oscillate:
        wave = amp * np.sin(2 * np.pi * t / max(4, geom.frames // 2))
    else:
        wave = 0.4 * amp * t
    coords[:, moving, :] += wave[:, None, None] * direction[None, None, :]
    vis = np.ones(coords.shape[:2], dtype=np.uint8)
    return trajfield.SparseTracks(coords, vis, geom.stride, geom.height, geom.width)
