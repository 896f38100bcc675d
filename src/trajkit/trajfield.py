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
        self.visibility = np.asarray(self.visibility, dtype=np.uint8)
        if self.height % self.stride or self.width % self.stride:
            raise ValueError(f"frame {self.height}x{self.width} not divisible by stride {self.stride}")
        n_expected = (self.height // self.stride) * (self.width // self.stride)
        t, n, two = self.coords.shape
        if two != 2 or n != n_expected or self.visibility.shape != (t, n):
            raise ValueError(f"track arrays inconsistent: coords {self.coords.shape}, "
                             f"visibility {self.visibility.shape}, expected N={n_expected}")
        if not np.all((self.visibility == 0) | (self.visibility == 1)):
            raise ValueError("visibility must be binary")

    @property
    def frames(self) -> int:
        return self.coords.shape[0]

    @property
    def coarse_shape(self) -> tuple[int, int]:
        return self.height // self.stride, self.width // self.stride


def _field_arrays(values, mask):
    """Cast a (T, H, W, 2) field to float64 and its (T, H, W) mask to uint8."""
    values, mask = np.asarray(values, dtype=np.float64), np.asarray(mask, dtype=np.uint8)
    if values.shape[:3] != mask.shape or values.shape[3:] != (2,):
        raise ValueError(f"field arrays inconsistent: {values.shape} vs {mask.shape}")
    return values, mask


@dataclass
class DenseField:
    """Dense normalized coordinates and mask, piecewise constant per stride cell."""

    coords: np.ndarray  # (T, H, W, 2) normalized
    mask: np.ndarray    # (T, H, W) in {0, 1}
    stride: int

    def __post_init__(self):
        self.coords, self.mask = _field_arrays(self.coords, self.mask)

    @property
    def frames(self) -> int:
        return self.coords.shape[0]


@dataclass
class OffsetField:
    """Offsets from pixel-center anchors: adding the anchors back recovers
    the dense absolute field."""

    offsets: np.ndarray  # (T, H, W, 2)
    mask: np.ndarray     # (T, H, W)
    stride: int

    def __post_init__(self):
        self.offsets, self.mask = _field_arrays(self.offsets, self.mask)

    @property
    def frames(self) -> int:
        return self.offsets.shape[0]


def normalize_coords(coords_px: np.ndarray, height: int, width: int) -> np.ndarray:
    """Pixel (x, y) -> normalized [-1, 1] with pixel-center convention."""
    coords_px = np.asarray(coords_px, dtype=np.float64)
    out = np.empty_like(coords_px)
    out[..., 0] = 2.0 * (coords_px[..., 0] + 0.5) / width - 1.0
    out[..., 1] = 2.0 * (coords_px[..., 1] + 0.5) / height - 1.0
    return out


def denormalize_coords(coords_norm: np.ndarray, height: int, width: int) -> np.ndarray:
    coords_norm = np.asarray(coords_norm, dtype=np.float64)
    out = np.empty_like(coords_norm)
    out[..., 0] = (coords_norm[..., 0] + 1.0) * width / 2.0 - 0.5
    out[..., 1] = (coords_norm[..., 1] + 1.0) * height / 2.0 - 0.5
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


def rasterize(tracks: SparseTracks) -> DenseField:
    """Expand stride-grid tracks into a dense normalized coordinate field.

    Every pixel of a stride cell shares that cell's track, so the output is
    piecewise constant within each s x s block.
    """
    hc, wc = tracks.coarse_shape
    s = tracks.stride
    norm = normalize_coords(tracks.coords, tracks.height, tracks.width)  # (T, N, 2)
    t = tracks.frames
    coarse = norm.reshape(t, hc, wc, 2)
    dense = np.repeat(np.repeat(coarse, s, axis=1), s, axis=2)
    vis = tracks.visibility.reshape(t, hc, wc)
    mask = np.repeat(np.repeat(vis, s, axis=1), s, axis=2)
    return DenseField(dense, mask, stride=s)


def to_offsets(field: DenseField) -> OffsetField:
    g = anchor_grid(field.coords.shape[1], field.coords.shape[2])
    return OffsetField(field.coords - g[None], field.mask, stride=field.stride)


def to_absolute(offsets: OffsetField) -> DenseField:
    g = anchor_grid(offsets.offsets.shape[1], offsets.offsets.shape[2])
    return DenseField(offsets.offsets + g[None], offsets.mask, stride=offsets.stride)


def coarse_positions(field, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample one representative pixel per stride cell, in pixel coordinates.

    Returns positions (T, H_c, W_c, 2) and visibility (T, H_c, W_c).  Exact
    for rasterized fields (constant within cells); for reconstructed fields
    this is the declared cell sample point (the center pixel).
    """
    dense = to_absolute(field) if isinstance(field, OffsetField) else field
    s = dense.stride
    c = s // 2
    sub = dense.coords[:, c::s, c::s, :]
    vis = dense.mask[:, c::s, c::s]
    return denormalize_coords(sub, height, width), vis.copy()
