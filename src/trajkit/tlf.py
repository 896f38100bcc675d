"""Binary track-file (TLF) and checkpoint (TRJP) formats.

TLF layout, little-endian: magic "TRJF", version u32, then u32 header
fields T, H_c, W_c, H, W, s, convention (0 absolute-pixel, 1
absolute-normalized, 2 offset), then float32 coordinates [T*N*2] and
visibility bytes [T*N] with N = H_c*W_c.  Offset-convention coordinates are
relative to the stride-cell center anchors.  A record has at least one
frame.  `read_tlf` refuses a file whose H_c, W_c are not H/s, W/s or whose
coordinates are not all finite, hidden points included; `write_tlf` refuses
to write such coordinates.

Checkpoints (TRJP) store named float32 parameter blocks plus a JSON
metadata tail that ends the file; `load_checkpoint` returns each block as
the read-only float32 array the file holds, and refuses a non-finite value,
a block name given twice, and a tail nested too deep to parse.  This module
also lays out the checkpoint parts (`save_vae`, `load_vae`, `save_bundle`,
`load_bundle`).  Track conversions run in float64 and round once to float32.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields

import numpy as np

from . import gradcore as gc
from .flowgen import FlowBundle, LatentStats
from .models import (FlowConfig, VaeConfig, init_vae_params, init_velocity_params,
                     init_visibility_params)
from .trajfield import (
    OffsetField,
    SparseTracks,
    cell_anchors,
    check_grid,
    coarse_positions,
    denormalize_coords,
    normalize_coords,
)

TLF_MAGIC = b"TRJF"
TLF_VERSION = 1
CKPT_MAGIC = b"TRJP"
CKPT_VERSION = 1

CONV_PIXEL = 0
CONV_NORMALIZED = 1
CONV_OFFSET = 2
CONVENTIONS = {CONV_PIXEL: "absolute-pixel", CONV_NORMALIZED: "absolute-normalized",
               CONV_OFFSET: "offset"}


class TlfError(ValueError):
    """Malformed or inconsistent TLF content."""


class TlfFile:
    """In-memory TLF record: header plus coarse per-track payload."""

    def __init__(self, coords, visibility, height: int, width: int, stride: int,
                 convention: int):
        with np.errstate(over="ignore"):  # beyond float32's range is inf, which write_tlf refuses
            self.coords = np.asarray(coords, dtype=np.float32)
        self.height = int(height)
        self.width = int(width)
        self.stride = int(stride)
        self.convention = int(convention)
        if self.convention not in CONVENTIONS:
            raise TlfError(f"unknown coordinate convention {convention}")
        try:
            check_grid(self.coords, visibility, self.height, self.width, self.stride)
        except ValueError as exc:
            raise TlfError(str(exc)) from None
        self.visibility = np.asarray(visibility, dtype=np.uint8)

    @property
    def frames(self) -> int:
        return self.coords.shape[0]

    @property
    def coarse_shape(self):
        return self.height // self.stride, self.width // self.stride


def _first_nonfinite(coords: np.ndarray):
    """(frame, track) of the first track with a non-finite coordinate, or None."""
    finite = np.isfinite(coords)
    if finite.all():
        return None
    frame, track = np.argwhere(~finite.all(axis=2))[0]
    return frame, track


def write_tlf(path, tlf: TlfFile) -> None:
    """Raises FloatingPointError, before opening `path`, when a coordinate of
    the float32 payload is not finite (a float64 offset beyond float32's
    range becomes inf there)."""
    t, n, _ = tlf.coords.shape
    hc, wc = tlf.coarse_shape
    coords = tlf.coords.astype("<f4")
    bad = _first_nonfinite(coords)
    if bad is not None:
        raise FloatingPointError(f"{path}: non-finite coordinate at frame {bad[0]}, "
                                 f"track {bad[1]}; nothing written")
    with open(path, "wb") as fh:
        fh.write(TLF_MAGIC)
        fh.write(struct.pack("<7I", TLF_VERSION, t, hc, wc, tlf.height, tlf.width,
                             tlf.stride))
        fh.write(struct.pack("<I", tlf.convention))
        fh.write(coords.tobytes())
        fh.write(tlf.visibility.astype(np.uint8).tobytes())


def read_tlf(path) -> TlfFile:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 36 or raw[:4] != TLF_MAGIC:
        raise TlfError(f"{path}: not a TLF file")
    version, t, hc, wc, height, width, stride = struct.unpack("<7I", raw[4:32])
    if version != TLF_VERSION:
        raise TlfError(f"{path}: unsupported TLF version {version}")
    (convention,) = struct.unpack("<I", raw[32:36])
    n = hc * wc
    coord_bytes = t * n * 2 * 4
    expected = 36 + coord_bytes + t * n
    if len(raw) != expected:
        raise TlfError(f"{path}: payload length {len(raw)} != expected {expected}")
    coords = np.frombuffer(raw[36:36 + coord_bytes], dtype="<f4").reshape(t, n, 2)
    vis = np.frombuffer(raw[36 + coord_bytes:], dtype=np.uint8).reshape(t, n)
    try:
        record = TlfFile(coords, vis, height, width, stride, convention)
    except ValueError as exc:  # TlfError included: every message names the file
        raise TlfError(f"{path}: {exc}") from exc
    if (hc, wc) != record.coarse_shape:
        raise TlfError(f"{path}: header grid {hc}x{wc} != frame {height}x{width} "
                       f"/ stride {stride}")
    bad = _first_nonfinite(coords)  # hidden points too: a metric may weight them by 0
    if bad is not None:
        raise TlfError(f"{path}: non-finite coordinate at frame {bad[0]}, track {bad[1]}")
    return record


def from_tracks(tracks: SparseTracks) -> TlfFile:
    return TlfFile(tracks.coords, tracks.visibility, tracks.height, tracks.width,
                   tracks.stride, CONV_PIXEL)


def _cell_anchor_rows(height: int, width: int, stride: int) -> np.ndarray:
    return cell_anchors(height, width, stride).reshape(-1, 2)


def convert(tlf: TlfFile, convention: int) -> TlfFile:
    """Re-express the payload in another coordinate convention (float64
    arithmetic, one float32 rounding at the end)."""
    if convention not in CONVENTIONS:
        raise TlfError(f"unknown coordinate convention {convention}")
    if convention == tlf.convention:
        return TlfFile(tlf.coords.copy(), tlf.visibility.copy(), tlf.height,
                       tlf.width, tlf.stride, tlf.convention)
    norm = to_normalized(tlf)
    if convention == CONV_NORMALIZED:
        out = norm
    elif convention == CONV_PIXEL:
        out = denormalize_coords(norm, tlf.height, tlf.width)
    else:
        out = offset_coords(tlf, norm)
    return TlfFile(out, tlf.visibility.copy(), tlf.height, tlf.width, tlf.stride,
                   convention)


def to_normalized(tlf: TlfFile) -> np.ndarray:
    """(T, N, 2) float64 normalized coordinates, whatever the stored convention."""
    if tlf.convention == CONV_PIXEL:
        return normalize_coords(tlf.coords, tlf.height, tlf.width)
    coords = tlf.coords.astype(np.float64)
    if tlf.convention == CONV_NORMALIZED:
        return coords
    return coords + _cell_anchor_rows(tlf.height, tlf.width, tlf.stride)[None]


def offset_coords(tlf: TlfFile, norm: np.ndarray) -> np.ndarray:
    """`convert`'s float32 offset payload of `tlf`, from its normalized
    coordinates `norm`; an offset record's own payload."""
    if tlf.convention == CONV_OFFSET:
        return tlf.coords
    with np.errstate(over="ignore"):  # as in TlfFile: beyond float32's range is inf
        return (norm - _cell_anchor_rows(tlf.height, tlf.width, tlf.stride)).astype(np.float32)


def to_tracks(tlf: TlfFile) -> SparseTracks:
    """Back to pixel-coordinate tracks regardless of stored convention; a
    pixel record's coordinates are widened as stored, without a round trip."""
    px = (tlf.coords if tlf.convention == CONV_PIXEL
          else denormalize_coords(to_normalized(tlf), tlf.height, tlf.width))
    return SparseTracks(px, tlf.visibility.copy(), tlf.stride, tlf.height, tlf.width)


def coarse_pixel_positions(tlf: TlfFile):
    """(T, H_c, W_c, 2) pixel positions plus visibility, for the metrics."""
    tracks = to_tracks(tlf)
    grid = (tlf.frames, *tlf.coarse_shape)
    return tracks.coords.reshape(*grid, 2), tracks.visibility.reshape(grid)


def from_offset_field(field: OffsetField) -> TlfFile:
    """Coarse-sample a dense offset field back into an offset-convention TLF
    of the field's own frame."""
    height, width = field.mask.shape[1:]
    px, vis = coarse_positions(field)
    t, hc, wc, _ = px.shape
    norm = normalize_coords(px.reshape(t, hc * wc, 2), height, width)
    offsets = norm - _cell_anchor_rows(height, width, field.stride)[None]
    return TlfFile(offsets, vis.reshape(t, hc * wc), height, width, field.stride,
                   CONV_OFFSET)


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(path, blocks: dict, meta: dict | None = None) -> None:
    """Named float32 parameter blocks with a JSON metadata tail.

    Raises FloatingPointError, before opening `path`, when a block's float32
    payload holds a NaN or inf (a float64 value beyond float32's range
    becomes inf there)."""
    with np.errstate(over="ignore"):
        arrays = {name: np.asarray(blocks[name], dtype="<f4") for name in sorted(blocks)}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise FloatingPointError(f"{path}: block {name} has a non-finite value; "
                                     "nothing written")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<2I", CKPT_VERSION, len(arrays)))
        for name, arr in arrays.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
            fh.write(arr.tobytes())
        payload = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)


def load_checkpoint(path):
    """Returns (blocks, meta); each block is a read-only float32 view of the file's bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != CKPT_MAGIC:
        raise TlfError(f"{path}: not a checkpoint file")
    version, count = struct.unpack("<2I", raw[4:12])
    if version != CKPT_VERSION:
        raise TlfError(f"{path}: unsupported checkpoint version {version}")
    pos = 12
    blocks = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos:pos + name_len].decode("utf-8")
            pos += name_len
            if name in blocks:
                raise TlfError(f"{path}: block {name} appears twice")
            (ndim,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            shape = struct.unpack_from(f"<{ndim}I", raw, pos) if ndim else ()
            pos += 4 * ndim
            size = int(np.prod(shape)) if shape else 1
            blocks[name] = np.frombuffer(raw, dtype="<f4", count=size, offset=pos).reshape(shape)
            pos += size * 4
        (meta_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if pos + meta_len != len(raw):
            raise TlfError(f"{path}: metadata of {meta_len} bytes does not end the file "
                           f"({len(raw) - pos} bytes follow its length)")
        meta = json.loads(raw[pos:].decode("utf-8"))
    except TlfError:
        raise
    except (struct.error, ValueError, RecursionError) as exc:
        # ValueError: also a short block buffer; RecursionError: a tail nested too deep
        raise TlfError(f"{path}: truncated or corrupt checkpoint") from exc
    if not isinstance(meta, dict):
        raise TlfError(f"{path}: checkpoint metadata is not a JSON object")
    for name, arr in blocks.items():
        if not np.isfinite(arr).all():
            raise TlfError(f"{path}: block {name} has a non-finite value")
    return blocks, meta


# -- checkpoint parts: `vae/` (a VAE checkpoint), plus `flow/`, `vis/` and `stats/` (a bundle)


def _named(**parts) -> dict:
    """The blocks of `parts` (part -> {name: array} or None), named `<part>/<name>`."""
    return {f"{part}/{name}": v for part, params in parts.items()
            for name, v in (params or {}).items()}


def _blocks(blocks: dict, part: str) -> dict:
    """The `<part>/` blocks of a checkpoint, keyed without the prefix."""
    return {k[len(part) + 1:]: v for k, v in blocks.items() if k.startswith(f"{part}/")}


def _check_blocks(path, blocks: dict, want: dict) -> None:
    """Raise TlfError unless `blocks` are exactly the blocks of `want`, each of
    its shape, naming the first block that is missing, unexpected or misshapen."""
    for name in sorted(want.keys() | blocks.keys()):
        if name not in want or name not in blocks:
            raise TlfError(f"{path}: {'unexpected' if name in blocks else 'missing'} block {name}")
        if blocks[name].shape != want[name].shape:
            raise TlfError(f"{path}: block {name} has shape {blocks[name].shape}, "
                           f"expected {want[name].shape}")


def _read_cfg(path, meta: dict, part: str, cls):
    """The `<part>_cfg` metadata as `cls`, which must hold every field (a
    default would silently describe another model) and no other."""
    key = f"{part}_cfg"
    value, names = meta.get(key), {f.name for f in fields(cls)}
    if not isinstance(value, dict) or set(value) != names:
        got = set(value) if isinstance(value, dict) else set()
        raise TlfError(f"{path}: {key} metadata does not match {cls.__name__}: "
                       f"missing {sorted(names - got)}, unknown {sorted(got - names)}")
    try:
        return cls(**value)
    except ValueError as exc:
        raise TlfError(f"{path}: bad {key} metadata: {exc}") from exc


def save_vae(path, params: dict, cfg: VaeConfig, seed) -> None:
    save_checkpoint(path, _named(vae=params), {"vae_cfg": asdict(cfg), "seed": seed})


def load_vae(path):
    """(params, VaeConfig) of a VAE checkpoint or of a bundle's VAE."""
    blocks, meta = load_checkpoint(path)
    cfg, params = _read_cfg(path, meta, "vae", VaeConfig), _blocks(blocks, "vae")
    _check_blocks(path, _named(vae=params), _named(vae=init_vae_params(cfg, gc.rng(0))))
    return params, cfg


def save_bundle(path, bundle: FlowBundle, seed) -> None:
    blocks = _named(vae=bundle.vae_params, flow=bundle.flow_params, vis=bundle.vis_params,
                    stats={"mean": bundle.stats.mean, "std": bundle.stats.std})
    save_checkpoint(path, blocks, {"vae_cfg": asdict(bundle.vae_cfg),
                                   "flow_cfg": asdict(bundle.flow_cfg), "seed": seed})


def load_bundle(path) -> FlowBundle:
    """The bundle of a checkpoint, holding the file's read-only float32 blocks."""
    blocks, meta = load_checkpoint(path)
    vae_cfg = _read_cfg(path, meta, "vae", VaeConfig)
    flow_cfg = _read_cfg(path, meta, "flow", FlowConfig)
    for name in ("latent_channels", "n_tokens"):
        if getattr(flow_cfg, name) != getattr(vae_cfg, name):
            raise TlfError(f"{path}: flow_cfg.{name} {getattr(flow_cfg, name)} differs from "
                           f"vae_cfg.{name} {getattr(vae_cfg, name)}")
    vis = _blocks(blocks, "vis")  # the visibility head is optional
    channels = np.zeros(vae_cfg.latent_channels)
    _check_blocks(path, blocks, _named(
        vae=init_vae_params(vae_cfg, gc.rng(0)), flow=init_velocity_params(flow_cfg, gc.rng(0)),
        vis=init_visibility_params(flow_cfg, gc.rng(0)) if vis else None,
        stats={"mean": channels, "std": channels}))
    try:
        stats = LatentStats(blocks["stats/mean"], blocks["stats/std"])
    except ValueError as exc:
        raise TlfError(f"{path}: {exc}") from exc
    return FlowBundle(vae_cfg, flow_cfg, _blocks(blocks, "vae"), _blocks(blocks, "flow"), stats,
                      vis or None)
