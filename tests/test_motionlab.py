import numpy as np
import pytest

from trajkit import motionlab, scenes
from trajkit.motionlab import CameraStats, MotionSpec, caption, estimate_camera, generate, toy_1d_pair
from trajkit.rules import FieldError
from trajkit.trajfield import SparseTracks


class TestGenerate:
    def test_translation_advances_exactly(self):
        spec = MotionSpec("translation", frames=8, velocity=(2.0, 0.0))
        tracks = generate(spec)
        dx = np.diff(tracks.coords[..., 0], axis=0)
        dy = np.diff(tracks.coords[..., 1], axis=0)
        assert np.all(dx == 2.0)
        assert np.all(dy == 0.0)

    def test_rotation_preserves_radius(self):
        spec = MotionSpec("rotation", frames=10, angular_rate=0.2)
        tracks = generate(spec)
        c = np.array([spec.width / 2 - 0.5, spec.height / 2 - 0.5])
        r = np.linalg.norm(tracks.coords - c, axis=-1)
        assert np.max(np.abs(r - r[0])) < 1e-9

    def test_zoom_radial_law(self):
        rate = 0.03
        spec = MotionSpec("zoom", frames=7, zoom_rate=rate)
        tracks = generate(spec)
        c = np.array([spec.width / 2 - 0.5, spec.height / 2 - 0.5])
        r = np.linalg.norm(tracks.coords - c, axis=-1)
        for t in range(spec.frames):
            assert np.max(np.abs(r[t] - r[0] * (1 + rate) ** t)) < 1e-9

    def test_out_of_frame_points_lose_visibility(self):
        spec = MotionSpec("translation", frames=12, velocity=(6.0, 0.0))
        tracks = generate(spec)
        assert tracks.visibility[0].all()
        assert not tracks.visibility[-1].all()

    def test_occlusion_rectangle(self):
        spec = MotionSpec("static", frames=4, occlusions=[(1, 3, 0, 0, 32, 32)])
        tracks = generate(spec)
        assert tracks.visibility[0].all()
        assert not tracks.visibility[1].any()
        assert not tracks.visibility[2].any()
        assert tracks.visibility[3].all()

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            MotionSpec("warp", frames=4)

    @pytest.mark.parametrize("field, value", [
        ("frames", 0), ("height", 0), ("width", 2.5), ("stride", 0), ("stride", True),
        ("velocity", (float("nan"), 0.0)), ("velocity", (1.0,)), ("angular_rate", float("inf")),
        ("zoom_rate", float("nan")), ("shear_rate", "0.1"), ("jitter_amplitude", float("-inf")),
        ("jitter_axis", "z")])
    def test_bad_field_raises_naming_it(self, field, value):
        with pytest.raises(FieldError, match=f"^{field} must be") as exc:
            MotionSpec("translation", **{"frames": 4, field: value})
        assert exc.value.field == field

    def test_jitter_overlay_alternates(self):
        spec = MotionSpec("jitter-overlay", frames=6, jitter_amplitude=0.5)
        tracks = generate(spec)
        x = tracks.coords[:, 0, 0]
        assert np.allclose(np.diff(x), [-1.0, 1.0, -1.0, 1.0, -1.0])


class TestToyPair:
    def test_zero_bias_collapses(self):
        gt, smooth, jitter, _ = toy_1d_pair(0.0, 6)
        assert np.array_equal(gt, smooth)
        assert np.array_equal(gt, jitter)

    def test_series_values(self):
        gt, smooth, jitter, mask = toy_1d_pair(0.1, 5)
        assert np.allclose(gt[:, 0, 0, 0], [0, 1, 2, 3, 4])
        assert np.allclose(smooth[:, 0, 0, 0], [0.1, 1.1, 2.1, 3.1, 4.1])
        assert np.allclose(jitter[:, 0, 0, 0], [0.1, 0.9, 2.1, 2.9, 4.1])
        assert mask.all()
        assert np.all(gt[..., 1] == 0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            toy_1d_pair(0.1, 2)


class TestEstimateCamera:
    def test_pure_translation(self):
        tracks = generate(MotionSpec("translation", frames=6, height=64, width=64,
                                     stride=8, velocity=(5.0, 0.0)))
        stats = estimate_camera(tracks)
        assert abs(stats.translation[0] - 5.0) < 1e-9
        assert abs(stats.translation[1]) < 1e-9
        assert abs(stats.zoom) < 1e-9
        assert abs(stats.roll) < 1e-9
        assert stats.shake < 1e-9

    def test_pure_zoom(self):
        tracks = generate(MotionSpec("zoom", frames=6, height=64, width=64,
                                     stride=8, zoom_rate=0.01))
        stats = estimate_camera(tracks)
        assert abs(stats.zoom - 0.01) < 1e-6
        assert abs(stats.translation[0]) < 1e-6
        assert abs(stats.translation[1]) < 1e-6
        assert abs(stats.roll) < 1e-9
        assert stats.shake < 1e-6

    def test_small_rotation(self):
        tracks = generate(MotionSpec("rotation", frames=6, height=64, width=64,
                                     stride=8, angular_rate=0.003))
        stats = estimate_camera(tracks)
        assert abs(stats.roll - 0.003) < 1e-6
        assert abs(stats.zoom) < 1e-5
        assert stats.shake < 1e-6

    def test_static_all_zero(self):
        tracks = generate(MotionSpec("static", frames=5, height=64, width=64, stride=8))
        stats = estimate_camera(tracks)
        assert stats.translation == (0.0, 0.0)
        assert stats.zoom == 0.0 and stats.roll == 0.0 and stats.shake == 0.0

    def test_insufficient_tracks_rejected(self):
        tracks = generate(MotionSpec("static", frames=3, height=64, width=64, stride=8,
                                     occlusions=[(0, 3, 0, 0, 64, 64)]))
        with pytest.raises(ValueError):
            estimate_camera(tracks)


def _per_pair_camera(tracks: SparseTracks) -> CameraStats:
    """estimate_camera as one loop iteration per frame pair over the compacted
    visible tracks: the oracle for the all-pairs form."""
    c = motionlab._center(tracks.height, tracks.width)
    pos = tracks.coords
    vis = tracks.visibility.astype(bool)
    per_pair = []
    for t in range(1, tracks.frames):
        both = vis[t] & vis[t - 1]
        if both.sum() < 4:
            raise ValueError(f"fewer than 4 visible tracks between frames {t-1} and {t}")
        p_prev = pos[t - 1, both]
        disp = pos[t, both] - p_prev
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
    mean = np.array(per_pair).mean(axis=0)
    return CameraStats((float(mean[0]), float(mean[1])), float(mean[2]), float(mean[3]), float(mean[4]))


def _ragged_tracks(kind: str, seed: int) -> SparseTracks:
    """Tracks with occlusion rectangles, points leaving the frame, per-point
    dropouts and sub-pixel noise, so each frame pair sees its own visible set."""
    rng = np.random.default_rng(seed)
    frames = 12
    occlusions = [(2, 7, 0.0, 0.0, 40.0, 24.0), (5, 9, 30.0, 20.0, 64.0, 64.0)]
    spec = MotionSpec(kind, frames=frames, height=64, width=64, stride=4, velocity=(4.5, -2.0),
                      angular_rate=0.04, zoom_rate=0.05, shear_rate=0.03, jitter_amplitude=1.5,
                      jitter_axis="both", occlusions=occlusions)
    tracks = generate(spec)
    vis = tracks.visibility * (rng.random(tracks.visibility.shape) > 0.3)
    coords = tracks.coords + rng.normal(0.0, 0.2, tracks.coords.shape)
    return SparseTracks(coords, vis, tracks.stride, tracks.height, tracks.width)


class TestAllPairsCamera:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", motionlab.KINDS)
    def test_equals_the_per_pair_loop(self, kind, seed):
        tracks = _ragged_tracks(kind, seed)
        vis = tracks.visibility.astype(bool)
        counts = (vis[1:] & vis[:-1]).sum(axis=1)
        assert len(set(counts)) > 1 and {0, 1} <= set(counts % 2)  # ragged, even and odd
        got, want = estimate_camera(tracks), _per_pair_camera(tracks)
        assert got == want
        assert repr(got) == repr(want)  # the sign of a zero too

    @pytest.mark.parametrize("ragged", [False, True], ids=["visible", "ragged"])
    @pytest.mark.parametrize("kind", motionlab.KINDS)
    def test_equals_the_per_pair_loop_at_the_benchmark_size(self, kind, ragged):
        """The geometry of perfbench's analyze scenes: 32 frames of 128x128 at
        stride 4 (1024 tracks), coordinates rounded to float32 as a TLF holds them."""
        tracks = generate(MotionSpec(kind, frames=32, height=128, width=128, stride=4,
                                     velocity=(1.2, -0.1), angular_rate=0.02, zoom_rate=0.01,
                                     shear_rate=0.01, jitter_amplitude=0.3, jitter_axis="both"))
        vis = np.ones_like(tracks.visibility)
        if ragged:
            vis = tracks.visibility * (np.random.default_rng(1).random(vis.shape) > 0.3)
        tracks = SparseTracks(tracks.coords.astype(np.float32), vis, 4, 128, 128)
        got, want = estimate_camera(tracks), _per_pair_camera(tracks)
        assert repr(got) == repr(want)

    def test_leaves_its_input_unchanged(self):
        tracks = _ragged_tracks("zoom", 0)
        coords, vis = tracks.coords.tobytes(), tracks.visibility.tobytes()
        estimate_camera(tracks)
        assert tracks.coords.tobytes() == coords and tracks.visibility.tobytes() == vis

    def test_no_point_off_the_centre_gives_zero_zoom_and_roll(self):
        rng = np.random.default_rng(0)
        coords = np.empty((3, 16, 2))
        coords[:2] = 15.5  # the centre of a 32x32 frame
        coords[2] = rng.uniform(0, 31, (16, 2))
        coords[1, :8] = rng.uniform(0, 31, (8, 2))
        vis = np.ones((3, 16), np.uint8)
        vis[1, :8] = 0  # frame 1's visible points sit at the centre
        tracks = SparseTracks(coords, vis, 8, 32, 32)
        got, want = estimate_camera(tracks), _per_pair_camera(tracks)
        assert got == want and repr(got) == repr(want)
        assert got.zoom == 0.0 and got.roll == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_coordinates_give_the_loop_floats(self):
        # a TLF payload may hold any float32: a visible NaN makes its pair's medians
        # NaN, as np.median does; non-finite hidden points change nothing
        for frame, value in [(4, np.nan), (0, np.inf), (7, -np.inf), (9, 1e30)]:
            tracks = _ragged_tracks("zoom", 0)
            vis = tracks.visibility.astype(bool)
            tracks.coords[frame, np.flatnonzero(vis[frame] & vis[frame + 1])[:3]] = value
            tracks.coords[frame, np.flatnonzero(~vis[frame])[:3]] = np.nan
            assert repr(estimate_camera(tracks)) == repr(_per_pair_camera(tracks))

    def test_first_short_pair_is_named(self):
        occlusions = [(3, 4, 0, 0, 64, 64), (5, 6, 0, 0, 64, 64)]
        tracks = generate(MotionSpec("static", frames=7, height=64, width=64, stride=8,
                                     occlusions=occlusions))
        with pytest.raises(ValueError, match=r"^fewer than 4 visible tracks between frames 2 and 3$"):
            estimate_camera(tracks)
        with pytest.raises(ValueError, match=r"^fewer than 4 visible tracks between frames 2 and 3$"):
            _per_pair_camera(tracks)


class TestCaption:
    def test_zero_stats_static(self):
        assert caption(CameraStats((0, 0), 0, 0, 0), 480, 832) == "static camera"

    def test_fast_pan_right(self):
        stats = CameraStats((5.0, 0.0), 0.0, 0.0, 0.0)
        assert caption(stats, 480, 832) == "camera pans right, fast"

    def test_handheld_when_shake_dominates(self):
        stats = CameraStats((0.3, 0.0), 0.0, 0.0, 20.0)
        assert caption(stats, 480, 832) == "handheld camera"

    def test_zoom_in_slow(self):
        stats = CameraStats((0.0, 0.0), 0.005, 0.0, 0.0)
        assert caption(stats, 480, 832) == "camera zooms in, slow"

    def test_invariant_to_uniform_frame_scaling(self):
        # Same normalized motion at two frame scales reads identically.
        small = CameraStats((1.0, 0.0), 0.001, 0.0, 0.1)
        large = CameraStats((4.0, 0.0), 0.001, 0.0, 0.4)
        assert caption(small, 120, 208) == caption(large, 480, 832)

    @pytest.mark.parametrize("vy,phrase", [(0.15, "camera tilts down, slow"),
                                           (0.75, "camera tilts down, fast"),
                                           (-0.75, "camera tilts up, fast")])
    def test_vertical_pan_reads_as_a_tilt(self, vy, phrase):
        # 0.15 px/frame is demo 05's slow tilt
        tracks = generate(MotionSpec("translation", frames=10, height=64, width=64,
                                     stride=8, velocity=(0.0, vy)))
        assert caption(estimate_camera(tracks), 64, 64) == phrase

    def test_end_to_end_from_generator(self):
        tracks = generate(MotionSpec("translation", frames=8, height=64, width=64,
                                     stride=8, velocity=(3.0, 0.0)))
        stats = estimate_camera(tracks)
        assert caption(stats, 64, 64) == "camera pans right, fast"


def test_generators_deterministic():
    spec = MotionSpec("rotation", frames=6, angular_rate=0.1)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.visibility, b.visibility)



def _median_cases():
    """Rows with -0.0 and 1e308 middles at odd and even counts, then ragged
    random rows; padding entries are masked out."""
    rows = [([-0.0], [1]), ([-0.0, -0.0], [1, 1]), ([-1.0, -0.0, 1.0], [1, 1, 1]),
            ([-0.0, 5.0, -0.0, -1.0], [1, 0, 1, 1]), ([-0.0, 2.5, -0.0, 1.0], [1, 0, 1, 0]),
            ([1e308, -1.0, 1e308], [1, 1, 1]), ([1e308, 1e308], [1, 1])]
    x = np.array([r + [7.0] * (7 - len(r)) for r, _ in rows])
    mask = np.array([m + [0] * (7 - len(m)) for _, m in rows], dtype=bool)
    rng = np.random.default_rng(5)
    values = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, np.nan, 2.5, 1e-320]
    mask_rand = rng.random((2000, 7)) < 0.6
    mask_rand[:, 0] = True  # no empty row: np.median of nothing is NaN, not inf
    return (np.concatenate([x, rng.choice(values, size=(2000, 7))]),
            np.concatenate([mask, mask_rand]))


def test_masked_median_has_the_bytes_of_np_median():
    """A -0.0 middle gives +0.0 and an odd count's 1e308 middle stays finite,
    as in np.median, which sums the middle entries from +0.0."""
    x, mask = _median_cases()
    with np.errstate(all="ignore"):
        got = motionlab._masked_median(x, mask)
        want = np.array([np.median(row[m]) for row, m in zip(x, mask)])
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[:5]).any() and got[5] == 1e308


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: MotionSpec("static", frames=4, occlusions=[(0, 2, 0, 0, 40, 8)]),
                 "occlusion rectangle (0, 2, 0, 0, 40, 8) outside frame", id="occlusion"),
    pytest.param(lambda: estimate_camera(generate(MotionSpec("static", frames=1))),
                 "need at least 2 frames", id="estimate_camera-one-frame"),
    pytest.param(lambda: scenes.scene_specs("bogus", 1, 0, scenes.SceneGeometry()),
                 f"unknown kind mix 'bogus'; choose from {scenes.KIND_MIXES}", id="kind-mix"),
])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
