import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops as ref
from trajkit import flowgen, motionlab, tlf, trajfield
from trajkit.trajfield import (
    SparseTracks,
    anchor_grid,
    coarse_positions,
    denormalize_coords,
    normalize_coords,
    rasterize,
    to_absolute,
    to_offsets,
)


def _random_tracks(seed=0, t=5, h=16, w=16, s=4):
    rng = np.random.default_rng(seed)
    n = (h // s) * (w // s)
    coords = rng.uniform(-2, max(h, w) + 2, size=(t, n, 2))
    vis = (rng.random((t, n)) > 0.3).astype(np.uint8)
    return SparseTracks(coords, vis, s, h, w)


class TestRasterize:
    def test_piecewise_constant_within_cells(self):
        tracks = _random_tracks(seed=1)
        field = rasterize(tracks)
        s, wc = tracks.stride, tracks.width // tracks.stride
        norm = normalize_coords(tracks.coords, tracks.height, tracks.width)
        g = anchor_grid(tracks.height, tracks.width)
        for t in range(field.frames):
            for i in range(0, tracks.height, s):
                for j in range(0, tracks.width, s):
                    idx = (i // s) * wc + j // s
                    block = field.offsets[t, i:i + s, j:j + s]
                    assert np.array_equal(block, norm[t, idx] - g[i:i + s, j:j + s])
                    mblock = field.mask[t, i:i + s, j:j + s]
                    assert np.all(mblock == tracks.visibility[t, idx])

    def test_pixel_maps_to_its_track(self):
        tracks = _random_tracks(seed=2)
        field = rasterize(tracks)
        s, wc = tracks.stride, tracks.width // tracks.stride
        norm = normalize_coords(tracks.coords, tracks.height, tracks.width)
        g = anchor_grid(tracks.height, tracks.width)
        for (h, w) in [(0, 0), (5, 11), (15, 3), (8, 8)]:
            idx = (h // s) * wc + w // s
            assert np.array_equal(field.offsets[:, h, w], norm[:, idx] - g[h, w])
            assert np.array_equal(field.mask[:, h, w], tracks.visibility[:, idx])

    def test_indivisible_frame_rejected(self):
        with pytest.raises(ValueError):
            SparseTracks(np.zeros((2, 4, 2)), np.ones((2, 4)), 5, 16, 16)


class TestCheckGrid:
    """SparseTracks refuses what TlfFile refuses, with the same messages."""

    @pytest.mark.parametrize("coords,vis,stride,message", [
        (np.zeros((2, 4, 2)), np.ones((2, 4)), 0, "not divisible by stride 0"),
        (np.zeros((4, 2)), np.ones(4), 8, r"coords shape \(4, 2\) inconsistent"),
        (np.zeros((0, 4, 2)), np.ones((0, 4)), 8, "no frames"),
        (np.zeros((2, 4, 2)), np.full((2, 4), 2), 8, "visibility 2 at frame 0, track 0"),
    ], ids=["stride-0", "2d-coords", "zero-frames", "visibility-2"])
    def test_sparse_tracks_refuses(self, coords, vis, stride, message):
        with pytest.raises(ValueError, match=message):
            SparseTracks(coords, vis, stride, 16, 16)
        with pytest.raises(tlf.TlfError, match=message):
            tlf.TlfFile(coords, vis, 16, 16, stride, tlf.CONV_PIXEL)

    @pytest.mark.parametrize("value", [0.6, -1.0, 2.0])
    def test_visibility_is_checked_before_the_byte_cast(self, value):
        """0.6 would cast to a hidden 0 and -1.0 to 255: each record names the value."""
        vis = np.ones((3, 16))
        vis[2, 5] = value
        message = f"^visibility {value} at frame 2, track 5 is not 0 or 1$"
        with pytest.raises(ValueError, match=message):
            SparseTracks(np.zeros((3, 16, 2)), vis, 4, 16, 16)
        with pytest.raises(tlf.TlfError, match=message):
            tlf.TlfFile(np.zeros((3, 16, 2)), vis, 16, 16, 4, tlf.CONV_PIXEL)
        mask = np.ones((3, 8, 8))
        mask[2, 5, 7] = value
        with pytest.raises(ValueError, match=f"^visibility {value} at frame 2, row 5, column 7 "):
            trajfield.OffsetField(np.zeros((3, 8, 8, 2)), mask, stride=4)


class TestAnchors:
    def test_symmetric_2x2_anchor(self):
        g = anchor_grid(2, 2)
        assert np.allclose(g[0, 0], (-0.5, -0.5))
        assert np.allclose(g[1, 1], (0.5, 0.5))

    @given(h=st.integers(1, 12), w=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_anchor_symmetry(self, h, w):
        g = anchor_grid(h, w)
        assert np.allclose(g + g[::-1, ::-1], 0.0, atol=1e-15)


class TestOffsets:
    def test_d_equals_g_gives_zero_offsets(self):
        g = anchor_grid(8, 8)
        off = to_offsets(np.broadcast_to(g, (3, 8, 8, 2)).copy())
        assert np.all(off == 0.0)

    def test_absolute_of_zero_offsets_is_anchor_grid(self):
        dense = to_absolute(np.zeros((2, 4, 4, 2)))
        assert np.allclose(dense[0], anchor_grid(4, 4))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_exact_in_stored_precision(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-1.2, 1.2, size=(2, 8, 8, 2))
        back = to_absolute(to_offsets(coords))
        assert np.array_equal(back.astype(np.float32), coords.astype(np.float32))

    def test_translated_scene_recovers_generator_truth(self):
        spec = motionlab.MotionSpec("translation", frames=6, height=32, width=32, stride=8,
                                    velocity=(2.0, 1.0))
        tracks = motionlab.generate(spec)
        pos_px, vis = coarse_positions(rasterize(tracks))
        gt = tracks.coords.reshape(6, 4, 4, 2)
        assert np.max(np.abs(pos_px - gt)) < 1e-6


class TestSplitWindows:
    """A field's history/future windows, cut by SegmentDataset.split."""

    def test_split_162_into_81_81(self):
        field = trajfield.OffsetField(np.zeros((162, 2, 2, 2)), np.ones((162, 2, 2)), stride=2)
        pairs = flowgen.SegmentDataset(field.offsets[None], field.mask[None]).split(81)
        assert pairs.past.shape[1] == 81 and pairs.future.shape[1] == 81

    def test_concatenation_reproduces_input(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(7, 4, 4, 2))
        mask = (rng.random((7, 4, 4)) > 0.5).astype(np.uint8)
        field = trajfield.OffsetField(coords, mask, stride=2)
        pairs = flowgen.SegmentDataset(field.offsets[None], field.mask[None]).split(3)
        assert np.array_equal(np.concatenate([pairs.past[0], pairs.future[0]]), coords)
        assert np.array_equal(np.concatenate([pairs.past_masks[0], pairs.future_masks[0]]), mask)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
@pytest.mark.parametrize("seed", range(4))
def test_normalize_and_denormalize_keep_the_per_axis_bytes(seed, dtype):
    rng = np.random.default_rng(seed)
    height, width = (int(v) for v in rng.integers(1, 300, size=2))
    if dtype is np.int64:
        coords = rng.integers(-500, 500, size=(3, 11, 2))
    else:
        coords = (rng.normal(size=(3, 11, 2)) * (1e-20, 1.0, 100.0, 1e30)[seed]).astype(dtype)
    for ours, theirs in ((normalize_coords, ref.normalize_coords),
                         (denormalize_coords, ref.denormalize_coords)):
        got, want = ours(coords, height, width), theirs(coords, height, width)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, coords)


@pytest.mark.parametrize("stride, height, width", [(1, 5, 7), (2, 6, 4), (3, 9, 12), (4, 16, 8)])
@pytest.mark.parametrize("seed", range(3))
def test_coarse_positions_keep_the_dense_field_bytes(seed, stride, height, width):
    """The anchors are added to the kept pixels only, with the bytes of adding
    them to the whole field first."""
    rng = np.random.default_rng(seed)
    offsets = rng.normal(size=(3, height, width, 2)) * (1e-20, 1.0, 1e3)[seed]
    offsets[0, 0, 0] = -anchor_grid(height, width)[0, 0]  # a point on its anchor
    field = trajfield.OffsetField(offsets, rng.random((3, height, width)) > 0.5, stride)
    for f in (field, rasterize(_random_tracks(seed, 4, height, width, stride))):
        (got, got_vis), (want, want_vis) = coarse_positions(f), ref.coarse_positions(f)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert got_vis.tobytes() == want_vis.tobytes() and got_vis.shape == want_vis.shape


def test_normalize_round_trip():
    rng = np.random.default_rng(4)
    px = rng.uniform(-3, 40, size=(5, 7, 2))
    back = denormalize_coords(normalize_coords(px, 24, 36), 24, 36)
    assert np.allclose(back, px, atol=1e-12)


def test_masks_stay_binary_through_pipeline():
    tracks = _random_tracks(seed=5)
    off = rasterize(tracks)
    assert set(np.unique(off.mask)) <= {0, 1}
