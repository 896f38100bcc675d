"""Trajectory data model: stride-grid tracks, dense rasterization, pixel-center
anchors, and the offset encoding used everywhere downstream.

Coordinate convention: a continuous pixel coordinate x on a width-W frame
normalizes to 2*(x + 1/2)/W - 1, so integer pixel indices land on pixel
centers and the frame spans [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SparseTracks:
    """Per-cell point tracks on a stride-s grid.

    coords: (T, N, 2) pixel coordinates (x, y), float64.
    visibility: (T, N) in {0, 1}.
    Track n belongs to coarse cell (n // W_c, n % W_c); N = (H/s)*(W/s).
    """

    coords: np.ndarray
    visibility: np.ndarray
    stride: int
    height: int
    width: int

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        check_grid(self.coords, self.visibility, self.height, self.width, self.stride)
        self.visibility = np.asarray(self.visibility, dtype=np.uint8)

    @property
    def frames(self) -> int:
        return self.coords.shape[0]

    @property
    def coarse_shape(self) -> tuple[int, int]:
        return self.height // self.stride, self.width // self.stride


def check_grid(coords, visibility, height: int, width: int, stride: int) -> None:
    """Raise ValueError unless (T, N, 2) coordinates and (T, N) visibility
    hold T >= 1 frames of one track per stride cell, N = (H/s)*(W/s), with
    every visibility 0 or 1."""
    if stride <= 0 or height % stride or width % stride:
        raise ValueError(f"frame {height}x{width} not divisible by stride {stride}")
    hc, wc = height // stride, width // stride
    if hc <= 0 or wc <= 0:
        raise ValueError(f"frame {height}x{width} / stride {stride} has no grid cell")
    if coords.ndim != 3 or coords.shape[2] != 2 or coords.shape[1] != hc * wc:
        raise ValueError(f"coords shape {coords.shape} inconsistent with grid {hc}x{wc}")
    if coords.shape[0] == 0:
        raise ValueError("no frames: a track record needs at least one")
    if np.shape(visibility) != coords.shape[:2]:
        raise ValueError(f"visibility shape {np.shape(visibility)} != {coords.shape[:2]}")
    check_visibility(visibility, ("frame", "track"))


def check_visibility(values, axes) -> None:
    """Raise ValueError naming the first entry of `values` other than 0 or 1
    (NaN included) and its index, one name of `axes` per dimension."""
    values = np.asarray(values)
    bad = (values != 0) & (values != 1)
    if bad.any():
        index = tuple(np.argwhere(bad)[0])
        where = ", ".join(f"{name} {i}" for name, i in zip(axes, index))
        raise ValueError(f"visibility {values[index]} at {where} is not 0 or 1")


@dataclass
class OffsetField:
    """Offsets from pixel-center anchors: adding the anchors back (`to_absolute`)
    recovers the dense normalized field.  Its frame is the arrays' H x W."""

    offsets: np.ndarray  # (T, H, W, 2)
    mask: np.ndarray     # (T, H, W)
    stride: int

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        mask = np.asarray(self.mask)
        if self.offsets.shape[:3] != mask.shape or self.offsets.shape[3:] != (2,):
            raise ValueError(f"field arrays inconsistent: {self.offsets.shape} vs {mask.shape}")
        check_visibility(mask, ("frame", "row", "column"))
        self.mask = mask.astype(np.uint8, copy=False)

    @property
    def frames(self) -> int:
        return self.offsets.shape[0]


def normalize_coords(coords_px: np.ndarray, height: int, width: int) -> np.ndarray:
    """Pixel (x, y) -> normalized [-1, 1] with pixel-center convention:
    2*(x + 1/2)/W - 1 per axis, in place on one float64 copy."""
    out = np.add(coords_px, 0.5, dtype=np.float64)
    out *= 2.0
    out[..., 0] /= width
    out[..., 1] /= height
    out -= 1.0
    return out


def denormalize_coords(coords_norm: np.ndarray, height: int, width: int) -> np.ndarray:
    """The inverse, (c + 1)*W/2 - 1/2 per axis, in place on one float64 copy."""
    out = np.add(coords_norm, 1.0, dtype=np.float64)
    out[..., 0] *= width
    out[..., 1] *= height
    out /= 2.0
    out -= 0.5
    return out


def cell_centers(height: int, width: int, stride: int) -> np.ndarray:
    """(H_c, W_c, 2) continuous pixel (x, y) centers of the stride cells.

    Cell (i, j) centers at (j*s + (s-1)/2, i*s + (s-1)/2), the mean position
    of the pixels it covers.
    """
    xs = np.arange(width // stride) * stride + (stride - 1) / 2.0
    ys = np.arange(height // stride) * stride + (stride - 1) / 2.0
    return np.stack(np.meshgrid(xs, ys), axis=-1)


def cell_anchors(height: int, width: int, stride: int) -> np.ndarray:
    """(H_c, W_c, 2) normalized anchors at stride-cell centers."""
    return normalize_coords(cell_centers(height, width, stride), height, width)


def anchor_grid(height: int, width: int) -> np.ndarray:
    """(H, W, 2) normalized pixel-center anchors: the cell anchors at stride 1."""
    return cell_anchors(height, width, 1)


def rasterize(tracks: SparseTracks) -> OffsetField:
    """Expand stride-grid tracks into the dense anchor-offset field.

    Every pixel of a stride cell shares that cell's track, so the normalized
    coordinates are piecewise constant within each s x s block; each pixel
    then stores its cell's track minus its own anchor.
    """
    t, (hc, wc), s = tracks.frames, tracks.coarse_shape, tracks.stride
    coarse = normalize_coords(tracks.coords, tracks.height, tracks.width).reshape(t, hc, wc, 2)
    dense = np.repeat(np.repeat(coarse, s, axis=1), s, axis=2)
    vis = tracks.visibility.reshape(t, hc, wc)
    mask = np.repeat(np.repeat(vis, s, axis=1), s, axis=2)
    return OffsetField(to_offsets(dense), mask, stride=s)


def to_offsets(coords: np.ndarray) -> np.ndarray:
    """(T, H, W, 2) normalized coordinates -> offsets from the anchors of their H x W frame."""
    return coords - anchor_grid(*coords.shape[1:3])[None]


def to_absolute(offsets: np.ndarray) -> np.ndarray:
    """(T, H, W, 2) anchor offsets -> normalized coordinates; inverts `to_offsets`."""
    return offsets + anchor_grid(*offsets.shape[1:3])[None]


def coarse_positions(field: OffsetField) -> tuple[np.ndarray, np.ndarray]:
    """Sample one representative pixel per stride cell, in pixel coordinates.

    Returns positions (T, H_c, W_c, 2) and visibility (T, H_c, W_c).  Exact
    for rasterized fields (constant within cells); for reconstructed fields
    this is the declared cell sample point (the center pixel).
    """
    height, width = field.mask.shape[1:]
    s, c = field.stride, field.stride // 2
    sub = field.offsets[:, c::s, c::s] + anchor_grid(height, width)[c::s, c::s]
    return denormalize_coords(sub, height, width), field.mask[:, c::s, c::s].copy()
