import numpy as np
import pytest

from trajkit import motionlab
from trajkit.models import FieldError
from trajkit.motionlab import CameraStats, MotionSpec, caption, estimate_camera, generate, toy_1d_pair


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
        base = MotionSpec("static", frames=6)
        spec = MotionSpec("jitter-overlay", frames=6, jitter_amplitude=0.5, base=base)
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
