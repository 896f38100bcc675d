"""Synthetic trajectory generators with analytic ground truth, plus the
camera-motion caption heuristic.

Every generator is deterministic given (spec, seed) and exposes enough
structure (velocities, centers, radial laws) for tests to check outputs in
closed form.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field

import numpy as np

from .rules import FINITE, U32_COUNT, Checked, one_of, ranged
from .trajfield import SparseTracks, cell_centers, normalize_coords

KINDS = ("translation", "rotation", "zoom", "shear", "static", "jitter-overlay")
JITTER_AXES = ("x", "y", "both")


@dataclass
class MotionSpec(Checked):
    kind: str = ranged(MISSING, one_of(KINDS))  # MISSING: no default
    frames: int = ranged(MISSING, U32_COUNT)  # these four: u32 fields of the TLF header
    height: int = ranged(32, U32_COUNT)
    width: int = ranged(32, U32_COUNT)
    stride: int = ranged(8, U32_COUNT)
    velocity: tuple[float, float] = ranged(   # px/frame (translation, jitter-overlay)
        (0.0, 0.0), ("a pair of finite numbers",
                     lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(FINITE[1], v))))
    angular_rate: float = ranged(0.0, FINITE)      # rad/frame (rotation)
    zoom_rate: float = ranged(0.0, FINITE)         # 1/frame (zoom)
    shear_rate: float = ranged(0.0, FINITE)        # 1/frame (shear: u = rate * (x - cx))
    jitter_amplitude: float = ranged(0.0, FINITE)  # px, alternating-sign overlay
    jitter_axis: str = ranged("x", one_of(JITTER_AXES))
    occlusions: list = field(default_factory=list)  # (t0, t1, x0, y0, x1, y1) px rects

    def __post_init__(self):
        super().__post_init__()
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
    return cell_centers(spec.height, spec.width, spec.stride).reshape(-1, 2)


def _center(height: int, width: int) -> np.ndarray:
    # Image center in continuous pixels; maps to normalized (0, 0).
    return np.array([width / 2.0 - 0.5, height / 2.0 - 0.5])


def _base_positions(spec: MotionSpec) -> np.ndarray:
    p0 = _grid_starts(spec)
    t = np.arange(spec.frames, dtype=np.float64)[:, None, None]
    c = _center(spec.height, spec.width)
    if spec.kind == "static":
        return np.broadcast_to(p0[None], (spec.frames, *p0.shape)).copy()
    if spec.kind in ("translation", "jitter-overlay"):
        pos = p0[None] + t * np.asarray(spec.velocity, dtype=np.float64)
        if spec.kind == "jitter-overlay":
            wiggle = spec.jitter_amplitude * ((-1.0) ** np.arange(spec.frames))[:, None]
            if spec.jitter_axis in ("x", "both"):
                pos[..., 0] += wiggle
            if spec.jitter_axis in ("y", "both"):
                pos[..., 1] += wiggle
        return pos
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


def toy_1d_pair(b: float, frames: int):
    """The 1-coordinate smooth-vs-jitter pair, embedded as spatially constant
    offset segments with full visibility.

    Ground truth x(t) = t, smooth recon x(t) = t + b, jitter recon
    x(t) = t + b*(-1)^t; the inactive coordinate is zero everywhere.
    Returns (target, smooth, jitter, mask) with fields (T, 2, 2, 2).
    """
    if frames < 3:
        raise ValueError("need at least 3 frames")
    t = np.arange(frames, dtype=np.float64)
    gt = t
    smooth = t + b
    jitter = t + b * (-1.0) ** t

    def embed(series):
        f = np.zeros((frames, 2, 2, 2))
        f[..., 0] = series[:, None, None]
        return f

    mask = np.ones((frames, 2, 2), dtype=np.uint8)
    return embed(gt), embed(smooth), embed(jitter), mask


def _masked_median(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """np.median of each row of x (last axis) over its masked entries, to the
    bit: the row is sorted with +inf padding, and the middle entries are
    summed from +0.0, as np.median's mean sums them: 0.0 + s[mid] for an odd
    count, ((0.0 + s[lo]) + s[hi]) / 2 for an even one.  So a -0.0 middle
    gives +0.0, and an odd count's 1e308 stays finite.  A row with a NaN
    entry gives NaN; an empty row gives inf."""
    k = mask.sum(axis=-1, keepdims=True)
    s = np.sort(np.where(mask, x, np.inf), axis=-1)
    lo = 0.0 + np.take_along_axis(s, (k - 1) // 2, -1)
    med = np.where(k % 2 == 1, lo, (lo + np.take_along_axis(s, k // 2, -1)) / 2)
    return np.where(np.isnan(s[..., -1:]), np.nan, med)[..., 0]


def estimate_camera(tracks: SparseTracks) -> CameraStats:
    """Global camera motion from track displacements.

    Per frame pair: translation is the coordinate-wise median of visible
    displacements; the translation-compensated residual is decomposed around
    the image center into a radial part (zoom rate: median radial residual
    over radius) and a tangential part (roll rate); shake is the RMS of what
    the median zoom/roll model leaves unexplained.  Stats average over time.
    Every frame pair is computed at once, with the tracks not visible in both
    frames masked out (their points moved to the image center); only shake's
    mean runs per pair, over the visible tracks.

    The arrays are coordinate-first, (2, pairs, tracks): x and y are each a
    contiguous (pairs, tracks) plane, so every elementwise step runs over
    whole planes rather than over 2-long rows of (pairs, tracks, 2), which
    numpy walks one row at a time.  The medians see a (pairs, 2, tracks) view
    whose last axis is contiguous.  The bytes are those of the (..., 2) form:
    the norm is sqrt(x*x + y*y), and each dot product starts from +0.0, as
    np.einsum's accumulator does, so an all-zero product sums to +0.0.
    """
    if tracks.frames < 2:
        raise ValueError("need at least 2 frames")
    c = _center(tracks.height, tracks.width)[:, None, None]
    vis = tracks.visibility.astype(bool)
    both = vis[1:] & vis[:-1]
    few = np.flatnonzero(both.sum(axis=1) < 4)
    if few.size:
        raise ValueError(f"fewer than 4 visible tracks between frames {few[0]} and {few[0] + 1}")
    xy = tracks.coords.transpose(2, 0, 1).copy()  # (2, frames, tracks)
    p_prev = np.where(both, xy[:, :-1], c)
    disp = np.where(both, xy[:, 1:], c) - p_prev
    trans = _masked_median(disp.swapaxes(0, 1), both[:, None])  # (pairs, 2)
    rx, ry = disp - trans.T[..., None]
    rel = p_prev - c
    radius = np.sqrt(rel[0] * rel[0] + rel[1] * rel[1])
    ok = radius > 1e-9
    ex, ey = np.divide(rel, radius, out=np.zeros_like(rel), where=ok)  # e_r; e_t is (-ey, ex)
    used = both & ok
    rates = np.stack([0.0 + rx * ex + ry * ey, 0.0 - rx * ey + ry * ex])  # radial, tangential
    np.divide(rates, radius, out=rates, where=used)
    medians = _masked_median(rates.swapaxes(0, 1), used[:, None]).T
    zoom, roll = np.where(used.any(axis=1), medians, 0.0)
    zr, rr = zoom[:, None] * radius, roll[:, None] * radius
    lx, ly = rx - (zr * ex - rr * ey), ry - (zr * ey + rr * ex)
    sq = lx * lx + ly * ly
    shake = [np.sqrt(np.mean(row[m])) for row, m in zip(sq, both)]
    mean = np.column_stack([trans, zoom, roll, shake]).mean(axis=0)
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
