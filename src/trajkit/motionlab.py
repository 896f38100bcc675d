"""Synthetic trajectory generators with analytic ground truth, plus the
camera-motion caption heuristic.

Every generator is deterministic given (spec, seed) and exposes enough
structure (velocities, centers, radial laws) for tests to check outputs in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trajfield import SparseTracks, normalize_coords

KINDS = ("translation", "rotation", "zoom", "shear", "static", "jitter-overlay")


@dataclass
class MotionSpec:
    kind: str
    frames: int
    height: int = 32
    width: int = 32
    stride: int = 8
    velocity: tuple[float, float] = (0.0, 0.0)   # px/frame (translation)
    angular_rate: float = 0.0                    # rad/frame (rotation)
    zoom_rate: float = 0.0                       # 1/frame (zoom)
    shear_rate: float = 0.0                      # 1/frame (shear: u = rate * (x - cx))
    jitter_amplitude: float = 0.0                # px, alternating-sign overlay
    jitter_axis: str = "x"                       # x | y | both
    base: "MotionSpec | None" = None             # jitter-overlay wraps a base motion
    occlusions: list = field(default_factory=list)  # (t0, t1, x0, y0, x1, y1) px rects

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown motion kind {self.kind!r}")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        for rect in self.occlusions:
            t0, t1, x0, y0, x1, y1 = rect
            if not (0 <= x0 <= x1 <= self.width and 0 <= y0 <= y1 <= self.height):
                raise ValueError(f"occlusion rectangle {rect} outside frame")


@dataclass
class CameraStats:
    translation: tuple[float, float]  # px/frame
    zoom: float                       # 1/frame
    roll: float                       # rad/frame
    shake: float                      # residual RMS, px

    def as_dict(self) -> dict:
        return {"tx": self.translation[0], "ty": self.translation[1],
                "zoom": self.zoom, "roll": self.roll, "shake": self.shake}


def _grid_starts(spec: MotionSpec) -> np.ndarray:
    """Initial query points at stride-cell centers, (N, 2) px."""
    hc, wc = spec.height // spec.stride, spec.width // spec.stride
    xs = np.arange(wc) * spec.stride + (spec.stride - 1) / 2.0
    ys = np.arange(hc) * spec.stride + (spec.stride - 1) / 2.0
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def _center(height: int, width: int) -> np.ndarray:
    # Image center in continuous pixels; maps to normalized (0, 0).
    return np.array([width / 2.0 - 0.5, height / 2.0 - 0.5])


def _base_positions(spec: MotionSpec) -> np.ndarray:
    p0 = _grid_starts(spec)
    t = np.arange(spec.frames, dtype=np.float64)[:, None, None]
    c = _center(spec.height, spec.width)
    if spec.kind == "static":
        return np.broadcast_to(p0[None], (spec.frames, *p0.shape)).copy()
    if spec.kind == "translation":
        v = np.asarray(spec.velocity, dtype=np.float64)
        return p0[None] + t * v
    if spec.kind == "rotation":
        rel = p0 - c
        ang = spec.angular_rate * np.arange(spec.frames)[:, None]
        cos, sin = np.cos(ang), np.sin(ang)
        x = cos * rel[None, :, 0] - sin * rel[None, :, 1]
        y = sin * rel[None, :, 0] + cos * rel[None, :, 1]
        return np.stack([x, y], axis=-1) + c
    if spec.kind == "zoom":
        scale = (1.0 + spec.zoom_rate) ** np.arange(spec.frames)[:, None, None]
        return c + scale * (p0 - c)[None]
    if spec.kind == "shear":
        u = spec.shear_rate * (p0[:, 0] - c[0])
        out = np.broadcast_to(p0[None], (spec.frames, *p0.shape)).copy()
        out[..., 0] += t[..., 0] * u[None]
        return out
    if spec.kind == "jitter-overlay":
        if spec.base is None:
            raise ValueError("jitter-overlay requires a base spec")
        base = _base_positions(spec.base)
        wiggle = spec.jitter_amplitude * ((-1.0) ** np.arange(spec.frames))[:, None]
        if spec.jitter_axis in ("x", "both"):
            base[..., 0] += wiggle
        if spec.jitter_axis in ("y", "both"):
            base[..., 1] += wiggle
        return base
    raise ValueError(spec.kind)


def generate(spec: MotionSpec) -> SparseTracks:
    """Analytic tracks for the spec; visibility drops inside occlusion
    rectangles and when a point leaves the normalized frame [-1, 1]."""
    pos = _base_positions(spec)
    norm = normalize_coords(pos, spec.height, spec.width)
    vis = np.ones(pos.shape[:2], dtype=np.uint8)
    inside = (np.abs(norm[..., 0]) <= 1.0) & (np.abs(norm[..., 1]) <= 1.0)
    vis &= inside.astype(np.uint8)
    for (t0, t1, x0, y0, x1, y1) in spec.occlusions:
        for t in range(max(0, int(t0)), min(spec.frames, int(t1))):
            covered = ((pos[t, :, 0] >= x0) & (pos[t, :, 0] <= x1)
                       & (pos[t, :, 1] >= y0) & (pos[t, :, 1] <= y1))
            vis[t, covered] = 0
    return SparseTracks(pos, vis, spec.stride, spec.height, spec.width)


def toy_1d_pair(b: float, frames: int, grid: int = 2):
    """The 1-coordinate smooth-vs-jitter pair, embedded as spatially constant
    offset segments with full visibility.

    Ground truth x(t) = t, smooth recon x(t) = t + b, jitter recon
    x(t) = t + b*(-1)^t; the inactive coordinate is zero everywhere.
    Returns (target, smooth, jitter, mask) with fields (T, grid, grid, 2).
    """
    if frames < 3:
        raise ValueError("need at least 3 frames")
    t = np.arange(frames, dtype=np.float64)
    gt = t
    smooth = t + b
    jitter = t + b * (-1.0) ** t

    def embed(series):
        f = np.zeros((frames, grid, grid, 2))
        f[..., 0] = series[:, None, None]
        return f

    mask = np.ones((frames, grid, grid), dtype=np.uint8)
    return embed(gt), embed(smooth), embed(jitter), mask


def estimate_camera(tracks: SparseTracks) -> CameraStats:
    """Global camera motion from track displacements.

    Per frame pair: translation is the coordinate-wise median of visible
    displacements; the translation-compensated residual is decomposed around
    the image center into a radial part (zoom rate: median radial residual
    over radius) and a tangential part (roll rate); shake is the RMS of what
    the median zoom/roll model leaves unexplained.  Stats average over time.
    """
    t_frames = tracks.frames
    if t_frames < 2:
        raise ValueError("need at least 2 frames")
    c = _center(tracks.height, tracks.width)
    pos = tracks.coords
    vis = tracks.visibility.astype(bool)
    per_pair = []
    for t in range(1, t_frames):
        both = vis[t] & vis[t - 1]
        if both.sum() < 4:
            raise ValueError(f"fewer than 4 visible tracks between frames {t-1} and {t}")
        p_prev = pos[t - 1, both]
        p_cur = pos[t, both]
        disp = p_cur - p_prev
        trans = np.median(disp, axis=0)
        resid = disp - trans
        rel = p_prev - c
        radius = np.linalg.norm(rel, axis=1)
        ok = radius > 1e-9
        e_r = np.zeros_like(rel)
        e_r[ok] = rel[ok] / radius[ok, None]
        e_t = np.stack([-e_r[:, 1], e_r[:, 0]], axis=-1)
        radial = np.einsum("nd,nd->n", resid, e_r)
        tangential = np.einsum("nd,nd->n", resid, e_t)
        zoom = float(np.median(radial[ok] / radius[ok])) if ok.any() else 0.0
        roll = float(np.median(tangential[ok] / radius[ok])) if ok.any() else 0.0
        model = zoom * radius[:, None] * e_r + roll * radius[:, None] * e_t
        leftover = resid - model
        shake = float(np.sqrt(np.mean(np.sum(leftover ** 2, axis=1))))
        per_pair.append((trans[0], trans[1], zoom, roll, shake))
    arr = np.array(per_pair)
    mean = arr.mean(axis=0)
    return CameraStats((float(mean[0]), float(mean[1])), float(mean[2]), float(mean[3]), float(mean[4]))


DEFAULT_THRESHOLDS = {
    # Normalized units/frame; translation normalizes px by half frame extent.
    "translation": 0.002,
    "zoom": 0.003,
    "roll": 0.003,
    "shake_ratio": 1.5,     # handheld when shake exceeds ratio x largest systematic magnitude
    "fast_multiplier": 5.0,  # "fast" bucket at multiplier x the base threshold
}


def caption(stats: CameraStats, height: int, width: int) -> str:
    """Deterministic camera phrase from a fixed vocabulary.

    The dominant primitive is the one with the largest magnitude relative to
    its threshold; the speed bucket compares against fast_multiplier x the
    threshold.  Shake dominating every systematic term reads as handheld.
    """
    th = DEFAULT_THRESHOLDS
    tx = 2.0 * stats.translation[0] / width
    ty = 2.0 * stats.translation[1] / height
    shake = 2.0 * stats.shake / np.sqrt(height * width)

    candidates = {
        "pan": (abs(tx), th["translation"]),
        "tilt": (abs(ty), th["translation"]),
        "zoom": (abs(stats.zoom), th["zoom"]),
        "roll": (abs(stats.roll), th["roll"]),
    }
    scores = {k: mag / bar for k, (mag, bar) in candidates.items()}
    systematic = max(mag for mag, _ in candidates.values())
    if shake > th["shake_ratio"] * systematic and shake > th["translation"]:
        return "handheld camera"
    best = max(scores, key=scores.get)
    if scores[best] < 1.0:
        return "static camera"
    mag, bar = candidates[best]
    speed = "fast" if mag >= th["fast_multiplier"] * bar else "slow"
    if best == "pan":
        direction = "right" if tx > 0 else "left"
        return f"camera pans {direction}, {speed}"
    if best == "tilt":
        direction = "down" if ty > 0 else "up"
        return f"camera tilts {direction}, {speed}"
    if best == "zoom":
        direction = "in" if stats.zoom > 0 else "out"
        return f"camera zooms {direction}, {speed}"
    direction = "clockwise" if stats.roll > 0 else "counterclockwise"
    return f"camera rolls {direction}, {speed}"
