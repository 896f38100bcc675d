import contextlib
import gc as gc_module
import math
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import desk_flow_config, make_pair_dataset, make_segment_dataset
from criteria import eval_fm_loss
from reference_ops import matmul
from trajkit import (flowgen, gradcore as gc, lossbank as lb, models, motionlab, scenes, tlf,
                     trajfield)
from trajkit.flowgen import (
    LatentStats,
    boundary_init,
    denormalize_latents,
    dopri5_sample,
    euler_sample,
    interpolate,
    kstep_rollout,
    logit_grid,
    normalize_latents,
    sample_future,
    sample_time,
)
from trajkit.models import FlowConfig, VaeConfig, wrap_params
from trajkit.rules import FieldError
from trajkit.scenes import SceneGeometry


class TestModuleConfigChecks:
    @pytest.mark.parametrize("cls,field,value", [pytest.param(
        cls, field, value, id=f"{cls.__name__}.{field}={value!r}") for cls, field, value in [
            (VaeConfig, "patch", 0), (VaeConfig, "patch", 3), (VaeConfig, "temporal_ratio", 0),
            (VaeConfig, "patch", "8"), (VaeConfig, "patch", 8.0),
            (FlowConfig, "history_steps", 1), (FlowConfig, "time_features", 5),
            (FlowConfig, "sigma0", True), (FlowConfig, "sigma0", "0.1"),
            (FlowConfig, "anchor_mode", "bogus"),
            (lb.NeighborSpec, "hops", (1, 2)), (lb.NeighborSpec, "hops", (0, 1, 2)),
            (lb.NeighborSpec, "hop_weights", (1.0, float("nan"), 1.0)),
            (lb.NeighborSpec, "hops", 64), (lb.NeighborSpec, "hops", (True, 2, 4)),
            (lb.NeighborSpec, "hops", (1.5, 2, 4)),
            (lb.NeighborSpec, "hop_weights", ("1", 1.0, 1.0)),
            (flowgen.VaeTrainConfig, "lr", -1.0), (flowgen.VaeTrainConfig, "clip_norm", None),
            (flowgen.VaeTrainConfig, "steps", -1), (flowgen.VaeTrainConfig, "steps", 2.5),
            (flowgen.FlowTrainConfig, "batch", 0),
            (flowgen.FlowTrainConfig, "clip_norm", float("nan")),
            (flowgen.FinetuneConfig, "k_steps", 0), (flowgen.FinetuneConfig, "k_steps", 1),
            (SceneGeometry, "past", 16), (SceneGeometry, "stride", 3)]])
    def test_bad_field_raises_naming_it(self, cls, field, value):
        with pytest.raises(FieldError, match=f"^{field} must be") as info:
            cls(**{field: value})
        assert info.value.field == field

    def test_zero_steps_and_no_clip_are_allowed(self):
        assert flowgen.VaeTrainConfig(steps=0, clip_norm=0).clip_norm == 0
        assert flowgen.FlowTrainConfig(steps=0).steps == 0
        assert flowgen.FinetuneConfig(steps=0).steps == 0

    def test_numpy_scalars_and_integer_floats_are_allowed(self):
        assert VaeConfig(patch=np.int64(8), hidden=np.int32(16)).patch == 8
        assert FlowConfig(sigma0=np.float32(0.5)).sigma0 == 0.5
        assert FlowConfig(sigma0=0).sigma0 == 0
        assert flowgen.FlowTrainConfig(lr=1, clip_norm=np.float64(2.0)).lr == 1

    def test_hops_must_fit_the_longer_side_of_the_frame(self):
        def train_cfg(hops, **vae):
            return flowgen.VaeTrainConfig(vae=VaeConfig(**vae), neighbor=lb.NeighborSpec(
                hops=hops, hop_weights=(1.0,) * len(hops)))

        for hops in [(32,), (1, 64)]:
            with pytest.raises(FieldError, match=r"^hops must be below the frame's longer "
                                                 r"side 32") as info:
                train_cfg(hops)
            assert info.value.field == "hops"
        assert train_cfg((31,)).neighbor.hops == (31,)
        # a hop with pairs along one axis only is kept: spatial_loss drops the other axis
        assert train_cfg((16,), height=8, width=32).neighbor.hops == (16,)


class TestLogitGrid:
    @pytest.mark.parametrize("k", [1, 8, 1000])
    def test_strictly_increasing_within_bounds(self, k):
        grid = logit_grid(k)
        assert grid.shape == (k + 1,) and grid.dtype == np.float64
        assert np.all(np.diff(grid) > 0)
        assert grid[0] >= flowgen.T_EPS and grid[-1] <= 1 - flowgen.T_EPS


class TestSampleTime:
    def test_range_clamped(self):
        rng = gc.rng(0)
        draws = np.array([sample_time(rng) for _ in range(20_000)])
        assert draws.min() >= 1e-5
        assert draws.max() <= 1 - 1e-5

    def test_low_time_mass_matches_mixture(self):
        # P(t < 0.1) = 0.2 + 0.8 * Phi(logit(0.1)) evaluated with erf.
        rng = gc.rng(1)
        n = 1_000_000
        draws = np.array([sample_time(rng) for _ in range(n)])
        phi = 0.5 * (1 + math.erf(math.log(1 / 9) / math.sqrt(2)))
        expected = 0.2 + 0.8 * phi
        assert (draws < 0.1).mean() == pytest.approx(expected, abs=0.005)

    def test_reproducible(self):
        a = [sample_time(gc.rng(7)) for _ in range(5)]
        b = [sample_time(gc.rng(7)) for _ in range(5)]
        assert a == b


class TestInterpolate:
    def _endpoints(self):
        rng = np.random.default_rng(2)
        return rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))

    def test_endpoints_exact_without_noise(self):
        z0, z1 = self._endpoints()
        z_t, _ = interpolate(z0, z1, 0.0, 0.0, gc.rng(0))
        assert np.array_equal(z_t, z0)
        z_t, _ = interpolate(z0, z1, 1.0, 0.0, gc.rng(0))
        assert np.array_equal(z_t, z1)

    def test_velocity_constant_along_path(self):
        z0, z1 = self._endpoints()
        _, u1 = interpolate(z0, z1, 0.2, 0.0, gc.rng(0))
        _, u2 = interpolate(z0, z1, 0.9, 0.0, gc.rng(0))
        assert np.array_equal(u1, u2)
        assert np.array_equal(u1, z1 - z0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), 0.5, -0.1, gc.rng(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interpolate(np.zeros((1, 1, 1)), np.zeros((1, 1, 2)), 0.5, 0.0, gc.rng(0))


class TestBoundaryInit:
    def test_sigma0_zero_first_slice_exact(self):
        z_last = np.arange(12.0).reshape(1, 4, 3)
        z0 = boundary_init(z_last, FlowConfig(future_steps=3, sigma0=0.0), gc.rng(0))
        assert np.array_equal(z0[:, 0], z_last)

    def test_monte_carlo_anchor_mean(self):
        z_last = np.array([[[0.5, -0.3]]])
        draws = []
        rng = gc.rng(1)
        for _ in range(10_000):
            draws.append(boundary_init(z_last, FlowConfig(future_steps=2, sigma0=0.1), rng)[:, 0])
        mean = np.mean(draws, axis=0)
        assert np.allclose(mean, z_last, atol=0.01)

    def test_later_slices_unit_gaussian(self):
        z_last = np.zeros((1, 4, 2))
        rng = gc.rng(2)
        cfg = FlowConfig(future_steps=3, sigma0=0.1)
        draws = np.stack([boundary_init(z_last, cfg, rng)[:, 1:] for _ in range(5_000)])
        assert abs(draws.var() - 1.0) < 0.05
        assert abs(draws.mean()) < 0.05

    def test_all_slices_mode_repeats_anchor(self):
        z_last = np.arange(6.0).reshape(1, 3, 2)
        cfg = FlowConfig(future_steps=4, sigma0=0.0, anchor_mode="all-slices")
        z0 = boundary_init(z_last, cfg, gc.rng(3))
        for k in range(4):
            assert np.array_equal(z0[:, k], z_last)

    def test_unknown_mode_rejected(self):
        with pytest.raises(FieldError, match="^anchor_mode must be one of"):
            boundary_init(np.zeros((1, 2, 2)), FlowConfig(anchor_mode="middle"), gc.rng(0))


class TestLatentStats:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 2, 4, 3)) * 2 + 1
        stats = LatentStats.fit(z)
        back = denormalize_latents(normalize_latents(z, stats), stats)
        assert np.allclose(back, z, atol=1e-12)

    def test_fit_whitens_corpus(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(10, 2, 4, 3)) * np.array([1.0, 5.0, 0.2]) + 3
        stats = LatentStats.fit(z)
        norm = normalize_latents(z, stats)
        flat = norm.reshape(-1, 3)
        assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(flat.std(axis=0), 1.0, atol=1e-12)

    def test_hand_case(self):
        stats = LatentStats(np.array([0.0]), np.array([2.0]))
        assert normalize_latents(np.array([[[4.0]]]), stats)[0, 0, 0] == 2.0

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            LatentStats(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            LatentStats.fit(np.ones((3, 2, 2, 2)))


class TestEuler:
    def test_zero_field_returns_start(self):
        z0 = np.arange(6.0).reshape(2, 3)
        out = euler_sample(lambda z, t: np.zeros_like(z), z0, steps=10)
        assert np.array_equal(out, z0)

    def test_constant_field_exact_any_steps(self):
        z0 = np.zeros((2, 2))
        u = np.array([[1.0, -2.0], [0.5, 3.0]])
        for steps in (1, 3, 10):
            out = euler_sample(lambda z, t: u, z0, steps=steps)
            assert np.allclose(out, u, atol=1e-14)

    def test_exponential_decay_error_bounds(self):
        z0 = np.ones((3,))
        out10 = euler_sample(lambda z, t: -z, z0, steps=10)
        rel10 = abs(out10[0] - math.exp(-1)) / math.exp(-1)
        assert rel10 < 0.06
        out1000 = euler_sample(lambda z, t: -z, z0, steps=1000)
        rel1000 = abs(out1000[0] - math.exp(-1)) / math.exp(-1)
        assert rel1000 < 6e-4

    def test_nonfinite_state_reports_step(self):
        with pytest.raises(FloatingPointError) as exc:
            euler_sample(lambda z, t: z * np.inf, np.ones(2), steps=4)
        assert "step 0" in str(exc.value)


class TestDopri5:
    def test_constant_field_exact(self):
        u = np.array([2.0, -1.0])
        out = dopri5_sample(lambda z, t: u, np.zeros(2), rtol=1e-6, atol=1e-9)
        assert np.allclose(out, u, atol=1e-12)

    def test_exponential_decay_tight(self):
        out = dopri5_sample(lambda z, t: -z, np.ones(2), rtol=1e-6, atol=1e-10)
        assert abs(out[0] - math.exp(-1)) / math.exp(-1) < 1e-5

    def test_agrees_with_dense_euler_on_nonlinear_field(self):
        def v(z, t):
            return np.sin(z) + t * np.cos(z)

        z0 = np.array([0.3, -0.8, 1.2])
        ref = euler_sample(v, z0, steps=10_000)
        out = dopri5_sample(v, z0, rtol=1e-7, atol=1e-10)
        assert np.max(np.abs(out - ref)) < 1e-4

    def test_error_monotone_in_rtol(self):
        errs = []
        for rtol in (1e-3, 1e-5, 1e-7):
            out = dopri5_sample(lambda z, t: -z, np.ones(1), rtol=rtol, atol=1e-12)
            errs.append(abs(out[0] - math.exp(-1)))
        assert errs[0] > errs[1] > errs[2]

    def test_step_underflow_raises(self):
        def stiff(z, t):
            return np.full_like(z, np.nan)

        with pytest.raises(FloatingPointError):
            dopri5_sample(stiff, np.ones(1), rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("name,value", [("h_init", math.nan), ("h_init", math.inf),
                                            ("h_init", 0.0), ("h_init", -0.5),
                                            ("rtol", math.nan), ("atol", math.nan)])
    def test_bad_step_or_tolerance_raises_before_any_evaluation(self, name, value):
        """A NaN h_init once kept every step size NaN, so the solver never
        returned; the field raises after 10,000 calls rather than hang."""
        calls = []

        def v(z, t):
            calls.append(t)
            if len(calls) > 10_000:
                raise RuntimeError("dopri5_sample did not stop")
            return -z

        with pytest.raises(ValueError, match=f"^dopri5_sample: {name} must be"):
            dopri5_sample(v, np.ones(2), **{name: value})
        assert calls == []


class TestKstepRollout:
    def test_constant_field_telescopes(self):
        grid = logit_grid(8)
        u = np.full((1, 2, 2, 3), 0.7)

        def v_fn(z, t):
            return gc.Tensor(u)

        states, velocities = kstep_rollout(v_fn, np.zeros((1, 2, 2, 3)), grid)
        span = grid[-1] - grid[0]
        assert all(type(z) is np.ndarray and z.dtype == np.float64 for z in states)
        assert np.allclose(states[-1], span * u, atol=1e-12)
        assert len(velocities) == 8

    def test_states_carry_zero_parameter_gradient(self):
        w = gc.Tensor(np.array([[0.5]]), requires_grad=True)
        grid = logit_grid(4)

        def v_fn(z, t):
            flat = gc.reshape(z, (-1, 1))
            return gc.reshape(matmul(flat, w), z.shape)

        states, velocities = kstep_rollout(v_fn, np.ones((1, 1, 1, 1)), grid)
        total = gc.tsum(states[-1])
        grads = gc.backward(total, [w])
        assert np.all(grads[0] == 0.0)

    def test_velocities_carry_full_gradient(self):
        w = gc.Tensor(np.array([[0.5]]), requires_grad=True)
        grid = logit_grid(4)

        def v_fn(z, t):
            flat = gc.reshape(z, (-1, 1))
            return gc.reshape(matmul(flat, w), z.shape)

        _, velocities = kstep_rollout(v_fn, np.ones((1, 1, 1, 1)), grid)
        total = velocities[0]
        for v in velocities[1:]:
            total = gc.add(total, v)
        grads = gc.backward(gc.tsum(total), [w])
        assert grads[0][0, 0] != 0.0


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags["C_CONTIGUOUS"] and got.tobytes() == want.tobytes()


SCENE_GEOM = SceneGeometry(height=32, width=48, stride=8, frames=12, past=5)


def _scene_fields(kind_mix, frames):
    specs = scenes.scene_specs(kind_mix, 5, 42, SCENE_GEOM, frames=frames)
    return [trajfield.rasterize(motionlab.generate(s)) for s in specs]


class TestSceneDatasets:
    @pytest.mark.parametrize("kind_mix", scenes.KIND_MIXES)
    def test_builders_match_a_per_field_reference(self, kind_mix):
        geom = SCENE_GEOM
        fields = _scene_fields(kind_mix, geom.frames)
        pairs = scenes.pair_dataset(kind_mix, 5, 42, geom)
        _assert_same_arrays(pairs.past, np.stack([f.offsets[:geom.past] for f in fields]))
        _assert_same_arrays(pairs.past_masks, np.stack([f.mask[:geom.past] for f in fields]))
        _assert_same_arrays(pairs.future, np.stack([f.offsets[geom.past:] for f in fields]))
        _assert_same_arrays(pairs.future_masks, np.stack([f.mask[geom.past:] for f in fields]))
        fields = _scene_fields(kind_mix, geom.past)
        segments = scenes.segment_dataset(kind_mix, 5, 42, geom)
        _assert_same_arrays(segments.segments, np.stack([f.offsets for f in fields]))
        _assert_same_arrays(segments.masks, np.stack([f.mask for f in fields]))

    def test_split_windows_cover_the_segments(self):
        rng = np.random.default_rng(3)
        ds = flowgen.SegmentDataset(rng.normal(size=(2, 7, 4, 4, 2)),
                                    (rng.random((2, 7, 4, 4)) > 0.5).astype(np.uint8))
        pairs = ds.split(3)
        assert pairs.past.shape[1] == 3 and pairs.future.shape[1] == 4
        assert np.array_equal(np.concatenate([pairs.past, pairs.future], axis=1), ds.segments)
        assert np.array_equal(np.concatenate([pairs.past_masks, pairs.future_masks], axis=1),
                              ds.masks)

    @pytest.mark.parametrize("past_frames", [0, 7])
    def test_split_rejects_an_empty_window(self, past_frames):
        ds = flowgen.SegmentDataset(np.zeros((1, 7, 2, 2, 2)), np.ones((1, 7, 2, 2)))
        with pytest.raises(ValueError):
            ds.split(past_frames)

    def test_windows_put_every_history_before_every_future(self):
        m = 3
        past = np.arange(m, dtype=np.float64)[:, None, None, None, None] * np.ones((1, 4, 2, 2, 2))
        pairs = flowgen.PairDataset(past, np.zeros((m, 4, 2, 2), np.uint8),
                                    past + 100.0, np.ones((m, 4, 2, 2), np.uint8))
        ds = pairs.windows()
        assert len(ds) == 2 * m
        assert np.array_equal(ds.segments[:m], pairs.past)
        assert np.array_equal(ds.segments[m:], pairs.future)
        assert np.array_equal(ds.masks[:m], pairs.past_masks)
        assert np.array_equal(ds.masks[m:], pairs.future_masks)


class TestTrainingLoops:
    def test_train_vae_zero_steps_keeps_init(self, tiny_vae_cfg):
        dataset = make_segment_dataset("smooth", 4, seed=5)
        cfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=0)
        params, curve = flowgen.train_vae(dataset, cfg, seed=3)
        from trajkit.models import init_vae_params
        ref = init_vae_params(tiny_vae_cfg, gc.rng(3))
        assert curve == []
        for k in ref:
            assert np.array_equal(params[k], ref[k])

    def test_train_vae_reduces_loss_smoke(self, tiny_vae_cfg):
        dataset = make_segment_dataset("smooth", 8, seed=6)
        cfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=60, batch=4, lr=3e-3)
        _, curve = flowgen.train_vae(dataset, cfg, seed=0)
        assert curve[-1]["total"] < curve[0]["total"]

    def test_train_vae_bit_reproducible(self, tiny_vae_cfg):
        dataset = make_segment_dataset("smooth", 4, seed=7)
        cfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=5, batch=2, lr=1e-3)
        p1, c1 = flowgen.train_vae(dataset, cfg, seed=11)
        p2, c2 = flowgen.train_vae(dataset, cfg, seed=11)
        assert c1 == c2
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_train_vae_lr_holds_then_decays_linearly(self, tiny_vae_cfg, monkeypatch):
        dataset = make_segment_dataset("smooth", 4, seed=7)
        cfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=10, batch=2, lr=1e-3)
        seen, real_step = [], gc.optim_step

        def spy(params, grads, state):
            seen.append(state.lr)
            return real_step(params, grads, state)

        monkeypatch.setattr(gc, "optim_step", spy)
        flowgen.train_vae(dataset, cfg, seed=11)
        # the last 30% of 10 steps decay: 3/3, 2/3, 1/3 of the base rate
        assert seen[:8] == [1e-3] * 8
        assert seen[8:] == pytest.approx([2e-3 / 3, 1e-3 / 3], rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_train_vae_passes_0_1_visibility_as_bool(self, tiny_vae_cfg, monkeypatch, scale):
        """0/1 masks reach the consistency losses as bool; a fractional mask is
        refused before any optimizer step."""
        dataset = make_segment_dataset("smooth", 4, seed=7)
        assert dataset.masks.dtype == np.uint8
        dataset.masks[:, :, :4] = 0  # hide the top rows, so both values occur
        dataset.masks = dataset.masks * scale
        weights, steps, shift_l1, optim_step = [], [], gc.shift_l1, gc.optim_step

        def spy(*args):
            weights.append(args[4].dtype)
            return shift_l1(*args)

        def step_spy(*args):
            steps.append(args[2].step)
            return optim_step(*args)

        monkeypatch.setattr(gc, "shift_l1", spy)
        monkeypatch.setattr(gc, "optim_step", step_spy)
        cfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=2, batch=2)
        if scale == 1.0:
            flowgen.train_vae(dataset, cfg, seed=0)
            assert len(steps) == 2 and weights and set(weights) == {np.dtype(bool)}
        else:
            with pytest.raises(ValueError, match="^recon_loss: visibility 0.5 at segment 0, "):
                flowgen.train_vae(dataset, cfg, seed=0)
            assert steps == []

    @pytest.mark.parametrize("loop", ["train_vae", "train_visibility_head"])
    def test_nonfinite_loss_aborts_at_step_0(self, tiny_vae_cfg, loop):
        if loop == "train_vae":
            dataset = make_segment_dataset("smooth", 4, seed=7)
            dataset.segments[:] = np.nan
            cfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=3, batch=2)
            run = lambda: flowgen.train_vae(dataset, cfg, seed=0)
            warns = contextlib.nullcontext()
        else:
            flow_cfg = desk_flow_config(tiny_vae_cfg, hidden=24, blocks=1)
            latents = np.full((4, 2, 16, flow_cfg.latent_channels), np.nan)
            targets = np.zeros((4, 2, 16))
            run = lambda: flowgen.train_visibility_head(latents, targets, flow_cfg, steps=3,
                                                        lr=1e-2)
            warns = pytest.warns(RuntimeWarning, match="invalid value encountered in logaddexp")
        with warns, pytest.raises(FloatingPointError,
                                  match=f"^{loop}: non-finite loss at step 0$"):
            run()

    def test_train_flow_zero_steps(self, tiny_vae_cfg, tiny_bundle):
        bundle, pairs, fcfg = tiny_bundle
        cfg = flowgen.FlowTrainConfig(flow=fcfg.flow, steps=0)
        out, curve = flowgen.train_flow(pairs, bundle.vae_params, tiny_vae_cfg, cfg, seed=3)
        from trajkit.models import init_velocity_params
        ref = init_velocity_params(fcfg.flow, gc.rng(3))
        assert curve == []
        for k in ref:
            assert np.array_equal(out.flow_params[k], ref[k])

    def test_finetune_lambda_zero_matches_plain_flow_training(self, tiny_vae_cfg, tiny_bundle):
        bundle, pairs, fcfg = tiny_bundle
        steps = 4
        ft_cfg = flowgen.FinetuneConfig(steps=steps, lr=1e-3, lambda_kstep=0.0, sub_batch=2)
        tuned, _ = flowgen.finetune_onpolicy(bundle, pairs, fcfg, ft_cfg, seed=21)
        plain_cfg = flowgen.FlowTrainConfig(flow=fcfg.flow, steps=steps, batch=fcfg.batch,
                                            lr=1e-3, sigma=fcfg.sigma)
        plain, _ = flowgen.train_flow(pairs, bundle.vae_params, tiny_vae_cfg, plain_cfg,
                                      seed=21, flow_params={k: v.copy() for k, v
                                                            in bundle.flow_params.items()})
        for k in tuned.flow_params:
            assert np.allclose(tuned.flow_params[k], plain.flow_params[k], atol=1e-12)

    def test_finetune_refuses_a_sub_batch_above_the_flow_batch(self, tiny_bundle):
        # idx[:sub_batch] of a shorter batch would silently roll out the whole batch
        bundle, pairs, fcfg = tiny_bundle
        with pytest.raises(ValueError, match=r"^sub_batch must be at most the flow batch 4, "):
            flowgen.finetune_onpolicy(bundle, pairs, fcfg,
                                      flowgen.FinetuneConfig(steps=1, sub_batch=5), seed=0)

    def test_finetune_normalizes_by_bundle_stats(self, tiny_vae_cfg, tiny_bundle, monkeypatch):
        # The bundle samples with its pretraining statistics, so fine-tuning on
        # other data must normalize with those too, not refit them.
        bundle, _, fcfg = tiny_bundle
        other = make_pair_dataset("smooth", 8, seed=5)
        inputs = []
        real = flowgen._flow_inputs

        def recording(*args, **kwargs):
            inputs.append(real(*args, **kwargs))
            return inputs[-1]

        monkeypatch.setattr(flowgen, "_flow_inputs", recording)
        ft_cfg = flowgen.FinetuneConfig(steps=1, k_steps=2, sub_batch=2)
        flowgen.finetune_onpolicy(bundle, other, fcfg, ft_cfg, seed=0)
        z_p, z_f, stats = inputs[0][:3]
        raw_p = flowgen.encode_mean(bundle.vae_params, tiny_vae_cfg, other.past)
        raw_f = flowgen.encode_mean(bundle.vae_params, tiny_vae_cfg, other.future)
        refit = LatentStats.fit(np.concatenate([raw_p, raw_f], axis=1))
        assert not np.allclose(refit.mean, bundle.stats.mean)
        assert stats is bundle.stats
        assert np.array_equal(z_p, normalize_latents(raw_p, bundle.stats))
        assert np.array_equal(z_f, normalize_latents(raw_f, bundle.stats))

    def test_finetune_takes_model_settings_from_the_bundle(self, tiny_bundle):
        # A fine-tune config that disagrees on architecture, sigma0 and
        # anchor_mode must not change what is trained: the bundle samples with
        # its own settings, so it must be fine-tuned under them too.
        bundle, pairs, fcfg = tiny_bundle
        ft_cfg = flowgen.FinetuneConfig(steps=3, lr=1e-3, k_steps=2, sub_batch=2)
        other = replace(fcfg, flow=replace(fcfg.flow, hidden=8, cond_hidden=4, sigma0=0.7,
                                           anchor_mode="all-slices"))
        assert bundle.flow_cfg == fcfg.flow and bundle.flow_cfg.anchor_mode == "first-slice"
        want, curve_want = flowgen.finetune_onpolicy(bundle, pairs, fcfg, ft_cfg, seed=9)
        got, curve_got = flowgen.finetune_onpolicy(bundle, pairs, other, ft_cfg, seed=9)
        assert curve_got == curve_want
        assert got.flow_cfg == bundle.flow_cfg
        for k in want.flow_params:
            assert np.array_equal(got.flow_params[k], want.flow_params[k])

    def test_eval_fm_loss_scores_the_bundles_own_model(self, tiny_bundle):
        bundle, pairs, fcfg = tiny_bundle
        own = eval_fm_loss(bundle, pairs, fcfg)
        source = dict(sigma0=0.7, anchor_mode="all-slices")
        for changes in (dict(hidden=8, cond_hidden=4), source):
            other = replace(fcfg, flow=replace(fcfg.flow, **changes))
            assert eval_fm_loss(bundle, pairs, other) == own, changes
        # the source settings do move the loss of a model that holds them
        moved = replace(bundle, flow_cfg=replace(bundle.flow_cfg, **source))
        assert eval_fm_loss(moved, pairs, fcfg) != own

    def test_train_flow_bit_reproducible(self, tiny_vae_cfg, tiny_bundle):
        bundle, pairs, fcfg = tiny_bundle
        cfg = flowgen.FlowTrainConfig(flow=fcfg.flow, steps=5, batch=4, lr=1e-3)
        a, ca = flowgen.train_flow(pairs, bundle.vae_params, tiny_vae_cfg, cfg, seed=17)
        b, cb = flowgen.train_flow(pairs, bundle.vae_params, tiny_vae_cfg, cfg, seed=17)
        assert ca == cb
        for k in a.flow_params:
            assert np.array_equal(a.flow_params[k], b.flow_params[k])

    def test_static_scene_model_samples_near_static_futures(self, tiny_vae_cfg):
        # Trained on (near-)static scenes, sampled futures should barely move.
        from trajkit.motionlab import MotionSpec
        from trajkit.scenes import segments_from_specs
        from trajkit.trajfield import OffsetField
        rng = np.random.default_rng(0)
        specs = []
        for i in range(12):
            angle = 2 * np.pi * i / 12
            speed = 0.02 + 0.06 * rng.random()
            specs.append(MotionSpec("translation", frames=16, height=32, width=32,
                                    stride=8, velocity=(speed * np.cos(angle),
                                                        speed * np.sin(angle))))
        pairs = segments_from_specs(specs).split(8)
        segments = pairs.windows()
        vcfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=120, batch=8, lr=3e-3)
        vae_params, _ = flowgen.train_vae(segments, vcfg, seed=5)
        fcfg2 = flowgen.FlowTrainConfig(
            flow=flowgen.FlowConfig(hidden=24, blocks=1, cond_hidden=12,
                                    history_steps=2, future_steps=2,
                                    latent_channels=tiny_vae_cfg.latent_channels,
                                    n_tokens=tiny_vae_cfg.n_tokens),
            steps=200, batch=8, lr=1e-3)
        bundle, _ = flowgen.train_flow(pairs, vae_params, tiny_vae_cfg, fcfg2, seed=6)
        speeds = []
        for i in range(3):
            hist = OffsetField(pairs.past[i], pairs.past_masks[i], stride=8)
            fut, _ = sample_future(hist, bundle, seed=50 + i)
            speeds.append(float(np.linalg.norm(np.diff(fut.offsets, axis=0),
                                               axis=-1).mean()))
        assert max(speeds) < 0.05  # normalized units per frame

    def test_finetune_on_linear_oracle_has_zero_rollout_losses(self, tiny_vae_cfg, tiny_bundle):
        # With states exactly on the straight path and the oracle velocity
        # z1 - z0, both rollout losses vanish.  Times stay inside the
        # denominator-clamp region, where the targets are exact.
        bundle, pairs, fcfg = tiny_bundle
        rng = np.random.default_rng(0)
        z0 = rng.normal(size=(2, 2, 16, 4))
        z1 = rng.normal(size=(2, 2, 16, 4))
        grid = np.linspace(0.05, 0.95, 9)
        u = z1 - z0

        states = [(1 - t) * z0 + t * z1 for t in grid[:-1]]
        velocities = [gc.Tensor(u) for _ in states]
        targets = [lb.kstep_targets(z, z0, z1, float(t)) for z, t in zip(states, grid)]
        w = np.full((2, 2, 16), 1.0 / 32)
        assert float(lb.kstep_loss(velocities, targets, w)) == pytest.approx(0.0, abs=1e-20)
        assert float(lb.endpoint_consistency(states, velocities, grid)) == pytest.approx(0.0, abs=1e-20)


def _train_steps(loop, vae_cfg, steps=1):
    """`steps` steps of `loop` at the desk VAE and the default flow model."""
    vae_train_cfg = flowgen.VaeTrainConfig(vae=vae_cfg, steps=steps * (loop == "vae"))
    vae_params, _ = flowgen.train_vae(make_segment_dataset("smooth", 8, seed=0), vae_train_cfg,
                                      seed=0)
    if loop == "vae":
        return
    pairs = make_pair_dataset("translation", 8, seed=1)
    flow_cfg = flowgen.FlowTrainConfig(flow=FlowConfig(), steps=steps * (loop == "flow"))
    bundle, _ = flowgen.train_flow(pairs, vae_params, vae_cfg, flow_cfg, seed=2)
    if loop == "finetune":
        flowgen.finetune_onpolicy(bundle, pairs, flow_cfg, flowgen.FinetuneConfig(
            steps=steps, k_steps=8, sub_batch=4), seed=3)


@pytest.mark.parametrize("loop,ops,leaves", [("vae", 68, 62), ("flow", 25, 26),
                                             ("finetune", 313, 26)])
def test_grad_carrying_tape_nodes_per_step_are_pinned(desk_vae_cfg, monkeypatch, loop, ops,
                                                      leaves):
    """Op nodes and parameter leaves on the tape of one training step, walked
    from the loss through grad-carrying parents as perfbench's tracer walks it.
    The op counts were 121, 43 and 607 until each residual MLP half of a
    block became one residual_mlp node (ROADMAP item 11) and the recon loss's
    Huber chain one huber node; the flow and fine-tune counts were then 31
    and 499 until each weighted squared error of fm_loss, kstep_loss and
    endpoint_consistency, a chain of seven nodes, became one weighted_sq
    node (1 + 16 + 14 terms per fine-tune step).  The VAE count was 80 until
    each of its three grad-carrying token regroups (_unpatchify, the temporal
    compress and the expand), a reshape/transpose/reshape chain, became one
    regroup node, then 74 until the recon loss's add, tsum, mul, reshape and
    tsum around its huber node folded into that node, then 69 until
    vae_decode stopped slicing its output to the full decoded length."""
    sizes, real = [], gc.backward

    def walk(loss, wrt):
        seen, stack, kinds = {id(loss)}, [loss], []
        while stack:
            node = stack.pop()
            kinds.append(node._op == "leaf")
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        sizes.append((kinds.count(False), kinds.count(True)))
        return real(loss, wrt)

    monkeypatch.setattr(gc, "backward", walk)
    _train_steps(loop, desk_vae_cfg)
    assert sizes == [(ops, leaves)], (
        f"{loop}: (op nodes, leaves) per step is {sizes}, pinned at {(ops, leaves)}; a "
        "deliberate change of the graph (ROADMAP item 3) updates these numbers and reports "
        "them in CHANGES.md")


# Bytes a training step's forward leaves live when its backward starts: the
# arrays its tape keeps for the adjoints, measured on the second step of
# `_train_steps` (the first warms every code path), on the batch as the loop
# builds it.  A node that keeps more than its adjoints read fails here; a
# change that keeps less lowers the pin.  The VAE step held 58.0 MB until
# residual_mlp, huber and shift_l1 became single nodes (ROADMAP item 11), then
# 43,679,928 bytes until gelu's derivative replaced its operands on the tape
# and train_vae's 0/1 visibility reached the consistency losses as bool
# (33,646,280 since; the flow pretraining step 4,840,081 -> 4,052,875 and the
# fine-tune step, K = 8 and sub-batch 4, 24,840,598 -> 20,900,512 bytes),
# then 33,643,144 until the recon loss became one huber node, which keeps its
# difference, mask and weight but not the chain's -target, elementwise Huber,
# channel sum and weighted sum (30,493,168 since).  The VAE measure repeats
# within 100 bytes, the flow ones within 1 KB.
VAE_TAPE_BYTES = 30_550_000
FLOW_TAPE_BYTES = {"flow": 4_100_000, "finetune": 20_950_000}


def _live_tape_bytes(loop, vae_cfg, monkeypatch) -> int:
    """Traced bytes live at the last step's backward over those live when
    that step wrapped its parameters."""
    marks, wrap, backward = [], flowgen.wrap_params, gc.backward

    def mark(fn, name):
        def marked(*args, **kwargs):
            gc_module.collect()  # cyclic garbage of earlier work would blur the measure
            marks.append((name, tracemalloc.get_traced_memory()[0]))
            return fn(*args, **kwargs)
        return marked

    monkeypatch.setattr(flowgen, "wrap_params", mark(wrap, "wrap"))
    monkeypatch.setattr(gc, "backward", mark(backward, "backward"))
    tracemalloc.start()
    try:
        _train_steps(loop, vae_cfg, steps=2)
    finally:
        tracemalloc.stop()
    (first, start), (last, end) = marks[-2:]
    assert (first, last) == ("wrap", "backward")
    return end - start


def test_vae_step_tape_memory_is_pinned(desk_vae_cfg, monkeypatch):
    live = _live_tape_bytes("vae", desk_vae_cfg, monkeypatch)
    assert live <= VAE_TAPE_BYTES, (
        f"a desk VAE step's tape holds {live} bytes, pinned at {VAE_TAPE_BYTES}")


@pytest.mark.parametrize("loop", FLOW_TAPE_BYTES)
def test_flow_step_tape_memory_is_pinned(desk_vae_cfg, monkeypatch, loop):
    live = _live_tape_bytes(loop, desk_vae_cfg, monkeypatch)
    assert live <= FLOW_TAPE_BYTES[loop], (
        f"a {loop} step's tape holds {live} bytes, pinned at {FLOW_TAPE_BYTES[loop]}")


def _encode_peak_bytes(params, cfg, segments) -> int:
    """tracemalloc's peak over one encode_mean call, the segments already live."""
    gc_module.collect()
    tracemalloc.start()
    try:
        flowgen.encode_mean(params, cfg, segments)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_mean_memory_is_one_chunk_whatever_the_dataset_size(desk_vae_cfg):
    """The dataset encode holds one ENCODE_CHUNK of encoder activations: its
    peak over 64 windows is within 1.5 times its peak over 8 (about 8 times
    while one vae_encode call took every window)."""
    cfg = desk_vae_cfg
    params = models.init_vae_params(cfg, gc.rng(0))
    segments = np.random.default_rng(3).normal(size=(64, cfg.frames, cfg.height, cfg.width, 2))
    small, large = (_encode_peak_bytes(params, cfg, segments[:n]) for n in (8, 64))
    assert large <= 1.5 * small, (
        f"encode_mean peaks at {large} bytes over 64 windows and {small} over 8")


@pytest.fixture(scope="module")
def encode_cases(tiny_bundle, tmp_path_factory):
    """17 distinct windows, and tiny_bundle's VAE as float64 parameters and
    as the read-only float32 blocks that `tlf.load_vae` returns."""
    bundle = tiny_bundle[0]
    path = tmp_path_factory.mktemp("encode") / "vae.ckpt"
    tlf.save_vae(path, bundle.vae_params, bundle.vae_cfg, seed=0)
    loaded, _ = tlf.load_vae(path)
    assert all(v.dtype == np.float32 and not v.flags.writeable for v in loaded.values())
    segments = make_pair_dataset("smooth", 17, seed=7).future
    return bundle.vae_cfg, segments, {"float64": bundle.vae_params, "checkpoint": loaded}


@pytest.mark.parametrize("precision", ["float64", "checkpoint"])
@pytest.mark.parametrize("windows", [0, 1, 7, 8, 9, 17])
def test_encode_mean_is_the_one_call_encode_across_chunk_boundaries(encode_cases, precision,
                                                                    windows):
    cfg, segments, params = encode_cases
    params, segments = params[precision], segments[:windows]
    mu, _ = models.vae_encode(segments, wrap_params(params, requires_grad=False), cfg)
    got = flowgen.encode_mean(params, cfg, segments)
    assert got.dtype == mu.data.dtype == np.float64
    assert got.shape == mu.data.shape and got.tobytes() == mu.data.tobytes()
    if windows == 0:
        assert got.shape == (0, models.latent_steps(segments.shape[1], cfg.temporal_ratio),
                             cfg.n_tokens, cfg.latent_channels)


SAMPLERS = [pytest.param({"method": "euler", "steps": 10}, id="euler10"),
            pytest.param({"method": "dopri5", "rtol": 1e-4, "atol": 1e-6}, id="dopri5")]


def _history(pairs, i: int, frames: int | None = None):
    """Item i's history window, its frames cycled or cut to `frames`."""
    from trajkit.trajfield import OffsetField
    idx = np.arange(frames if frames is not None else pairs.past.shape[1]) % pairs.past.shape[1]
    return OffsetField(pairs.past[i][idx], pairs.past_masks[i][idx], stride=8)


class TestSampleFuture:
    def test_same_seed_identical(self, tiny_bundle):
        bundle, pairs, _ = tiny_bundle
        from trajkit.trajfield import OffsetField
        hist = OffsetField(pairs.past[0], pairs.past_masks[0], stride=8)
        a, _ = sample_future(hist, bundle, seed=5)
        b, _ = sample_future(hist, bundle, seed=5)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.mask, b.mask)

    def test_output_shapes(self, tiny_bundle):
        bundle, pairs, _ = tiny_bundle
        from trajkit.trajfield import OffsetField
        hist = OffsetField(pairs.past[1], pairs.past_masks[1], stride=8)
        fut, mask = sample_future(hist, bundle, seed=6)
        assert fut.offsets.shape == (8, 32, 32, 2)
        assert mask.shape == (8, 32, 32)
        assert np.all(np.isfinite(fut.offsets))

    def test_dopri5_sampler_path(self, tiny_bundle):
        bundle, pairs, _ = tiny_bundle
        from trajkit.trajfield import OffsetField
        hist = OffsetField(pairs.past[2], pairs.past_masks[2], stride=8)
        fut, _ = sample_future(hist, bundle, sampler={"method": "dopri5", "rtol": 1e-4,
                                                      "atol": 1e-6}, seed=7)
        assert np.all(np.isfinite(fut.offsets))

    @pytest.mark.parametrize("frames", [0, 9])
    def test_future_frames_outside_decoded_range_rejected(self, tiny_bundle, frames):
        bundle, pairs, _ = tiny_bundle
        from trajkit.trajfield import OffsetField
        hist = OffsetField(pairs.past[0], pairs.past_masks[0], stride=8)
        with pytest.raises(ValueError, match=r"future frames must be in 1\.\.8 .*got"):
            sample_future(hist, bundle, seed=5, future_frames=frames)

    @pytest.mark.parametrize("frames", [3, 5])
    def test_short_future_is_a_prefix_of_the_full_one(self, tiny_bundle, frames):
        # Frames group onto latent steps by the VAE's temporal ratio, so a
        # shorter request cuts the full-length sample, mask included.
        bundle, pairs, fcfg = tiny_bundle
        from dataclasses import replace
        from trajkit.models import init_visibility_params
        from trajkit.trajfield import OffsetField
        with_vis = replace(bundle, vis_params=init_visibility_params(fcfg.flow, gc.rng(8)))
        hist = OffsetField(pairs.past[0], pairs.past_masks[0], stride=8)
        full, full_mask = sample_future(hist, with_vis, seed=5)
        short, short_mask = sample_future(hist, with_vis, seed=5, future_frames=frames)
        assert np.array_equal(short.offsets, full.offsets[:frames])
        assert np.array_equal(short_mask, full_mask[:frames])


    @pytest.mark.parametrize("frames", [4, 12])
    def test_history_of_another_latent_length_rejected(self, tiny_bundle, frames):
        bundle, pairs, _ = tiny_bundle
        with pytest.raises(ValueError,
                           match=rf"^history frames must be in 5\.\.8 .*got {frames}$"):
            sample_future(_history(pairs, 0, frames), bundle, seed=5)

    def test_shortest_admissible_history_samples(self, tiny_bundle):
        bundle, pairs, _ = tiny_bundle
        fut, _ = sample_future(_history(pairs, 0, 5), bundle, seed=5)
        assert fut.offsets.shape == (5, 32, 32, 2)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_one_encoding_gives_the_bytes_of_one_per_evaluation(self, tiny_bundle, monkeypatch,
                                                                sampler):
        bundle, pairs, _ = tiny_bundle
        shared, shared_mask = sample_future(_history(pairs, 3), bundle, sampler, seed=9)
        raw = []

        def record(z_hist, visibility, params, cfg):
            raw.append((z_hist, visibility))
            return models.encode_condition(z_hist, visibility, params, cfg)

        def encode_per_evaluation(z, t, cond, params, cfg):
            return models.velocity_forward(z, t, models.encode_condition(*raw[-1], params, cfg),
                                           params, cfg)

        monkeypatch.setattr(flowgen, "encode_condition", record)
        monkeypatch.setattr(flowgen, "velocity_forward", encode_per_evaluation)
        fresh, fresh_mask = sample_future(_history(pairs, 3), bundle, sampler, seed=9)
        assert fresh.offsets.tobytes() == shared.offsets.tobytes()
        assert fresh_mask.tobytes() == shared_mask.tobytes()

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_one_encoding_and_one_velocity_call_per_evaluation(self, tiny_bundle, monkeypatch,
                                                               sampler):
        bundle, pairs, _ = tiny_bundle
        calls = {"encode": 0, "velocity": 0, "evaluations": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(flowgen, "encode_condition",
                            counted("encode", flowgen.encode_condition))
        monkeypatch.setattr(flowgen, "velocity_forward",
                            counted("velocity", flowgen.velocity_forward))
        for solver in ("euler_sample", "dopri5_sample"):
            monkeypatch.setattr(flowgen, solver, lambda v_fn, z0, solve=getattr(flowgen, solver),
                                **kw: solve(counted("evaluations", v_fn), z0, **kw))
        sample_future(_history(pairs, 3), bundle, sampler, seed=9)
        assert calls["encode"] == 1
        assert calls["velocity"] == calls["evaluations"] > 0
        if sampler["method"] == "euler":
            assert calls["evaluations"] == sampler["steps"]


class TestVisibilityTraining:
    def test_separable_toy_reaches_high_accuracy(self):
        from conftest import desk_vae_config
        flow_cfg = desk_flow_config(desk_vae_config(), hidden=24, blocks=1)
        rng = gc.rng(9)
        m = 64
        targets = (rng.draw_uniform((m, 2, 16)) > 0.5).astype(np.float64)
        # Visible tokens center at +0.8 on every channel, invisible at -0.8.
        latents = np.where(targets[..., None] > 0, 0.8, -0.8) + 0.2 * rng.draw_normal(
            (m, 2, 16, flow_cfg.latent_channels))
        params, curve = flowgen.train_visibility_head(latents, targets, flow_cfg,
                                                      steps=200, lr=3e-2, seed=0)
        from trajkit.models import visibility_predict
        _, pred = visibility_predict(latents, wrap_params(params, False))
        acc = (pred == targets).mean()
        assert acc > 0.95
        assert curve[-1]["bce"] < curve[0]["bce"]


# -- sampling precision: float32 forwards, float64 training ------------------------------

DEFAULT_SAMPLERS = [pytest.param({"method": "euler", "steps": 10}, id="euler10"),
                    pytest.param({"method": "dopri5"}, id="dopri5")]


@pytest.fixture(scope="module")
def vis_bundle(tiny_bundle):
    """tiny_bundle with a visibility head trained on its pairs' future latents."""
    bundle, pairs, _ = tiny_bundle
    latents = flowgen.encode_mean(bundle.vae_params, bundle.vae_cfg, pairs.future)
    targets = models.pool_visibility(pairs.future_masks, bundle.vae_cfg)
    params, _ = flowgen.train_visibility_head(latents, targets, bundle.flow_cfg, steps=30,
                                              lr=1e-2, seed=4)
    return replace(bundle, vis_params=params), pairs


def _tensor_dtypes(monkeypatch) -> Counter:
    """How many Tensors of each dtype are created from now on."""
    seen, init = Counter(), gc.Tensor.__init__

    def spy(self, data, *args, **kwargs):
        init(self, data, *args, **kwargs)
        seen[self.data.dtype.name] += 1

    monkeypatch.setattr(gc.Tensor, "__init__", spy)
    return seen


def _solver_states(monkeypatch) -> list:
    """The dtype of every state flowgen's solvers start from, evaluate the
    velocity at and return, in order."""
    states = []

    def watched(real):
        def solve(v_fn, z0, **kwargs):
            def v(z, t):
                states.append(z.dtype.name)
                return v_fn(z, t)
            states.append(z0.dtype.name)
            out = real(v, z0, **kwargs)
            states.append(out.dtype.name)
            return out
        return solve

    for name in ("euler_sample", "dopri5_sample"):
        monkeypatch.setattr(flowgen, name, watched(getattr(flowgen, name)))
    return states


def _head_outputs(monkeypatch) -> list:
    """Every (logits, token mask) that sample_future's visibility head returns from now on."""
    outputs = []

    def predict(z, params):
        outputs.append(models.visibility_predict(z, params))
        return outputs[-1]

    monkeypatch.setattr(flowgen, "visibility_predict", predict)
    return outputs


def _sample_float64(history, bundle, sampler, seed):
    """sample_future's steps on the bundle's float64 parameters and the
    history's float64 offsets, the reference its float32 forward is held to:
    (offsets, visibility token mask)."""
    vae_cfg, flow_cfg = bundle.vae_cfg, bundle.flow_cfg
    sampler = {**flowgen.SAMPLER, **sampler}
    z_hist = normalize_latents(flowgen.encode_mean(bundle.vae_params, vae_cfg,
                                                   history.offsets[None]), bundle.stats)
    vis_tok = models.pool_visibility(history.mask[None], vae_cfg, reduce="mean")
    z0 = boundary_init(z_hist[:, -1], flow_cfg, gc.rng(seed))
    params = wrap_params(bundle.flow_params, requires_grad=False)
    cond = models.encode_condition(z_hist, vis_tok, params, flow_cfg)

    def v_fn(z, t):
        return models.velocity_forward(z, float(t), cond, params, flow_cfg).data

    if sampler["method"] == "euler":
        z1 = euler_sample(v_fn, z0, steps=sampler["steps"])
    else:
        z1 = dopri5_sample(v_fn, z0, rtol=sampler["rtol"], atol=sampler["atol"])
    z1 = denormalize_latents(z1, bundle.stats)
    offsets = models.vae_decode(z1, wrap_params(bundle.vae_params, False), vae_cfg,
                                frames=history.frames).data[0]
    _, tok_mask = models.visibility_predict(z1, wrap_params(bundle.vis_params, False))
    return offsets, tok_mask[0]


class TestSamplingPrecision:
    @pytest.mark.parametrize("sampler", DEFAULT_SAMPLERS)
    def test_float32_sampling_creates_only_float32_tensors_and_states(self, vis_bundle,
                                                                      monkeypatch, sampler):
        """A float32 path that widens somewhere still returns plausible floats,
        so every Tensor created and every solver state is checked."""
        bundle, pairs = vis_bundle
        tensors, states = _tensor_dtypes(monkeypatch), _solver_states(monkeypatch)
        heads = _head_outputs(monkeypatch)
        # a copy not sampled yet, so its parameter Tensors are created here too
        sample_future(_history(pairs, 3), replace(bundle), sampler, seed=9)
        assert [logits.dtype.name for logits, _ in heads] == ["float32"]
        assert set(tensors) == {"float32"} and tensors["float32"] > 100
        assert set(states) == {"float32"} and len(states) > 10

    @pytest.mark.parametrize("loop", ["vae", "flow", "finetune"])
    def test_float64_training_steps_create_only_float64_tensors(self, desk_vae_cfg, monkeypatch,
                                                                loop):
        tensors = _tensor_dtypes(monkeypatch)
        _train_steps(loop, desk_vae_cfg)
        assert set(tensors) == {"float64"} and tensors["float64"] > 100

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("solve", [lambda v, z: euler_sample(v, z, steps=4),
                                       lambda v, z: dopri5_sample(v, z)],
                             ids=["euler", "dopri5"])
    def test_solvers_return_their_inputs_float_dtype(self, solve, dtype):
        want = np.float32 if dtype == np.float32 else np.float64
        z0 = np.arange(-2, 3).astype(dtype)
        assert solve(lambda z, t: np.cos(z) * (1.0 + t), z0).dtype == want
        # a velocity of another dtype is taken in the state's
        assert solve(lambda z, t: np.cos(z.astype(np.float64)), z0).dtype == want

    @pytest.mark.parametrize("sampler", DEFAULT_SAMPLERS)
    def test_float32_sampling_agrees_with_float64(self, vis_bundle, monkeypatch, sampler):
        """Offsets within 1e-5 relative RMS of the float64 reference over four
        histories (2.7e-6 to 4.1e-6 measured, for either solver).  The
        visibility head's token mask flipped at the 0.5 threshold in no cell:
        its smallest |logit| was 0.51."""
        bundle, pairs = vis_bundle
        heads = _head_outputs(monkeypatch)
        flips = 0
        for i in range(4):
            history = _history(pairs, i)
            field, _ = sample_future(history, bundle, sampler, seed=20 + i)
            offsets, tok_mask = _sample_float64(history, bundle, sampler, seed=20 + i)
            rel = np.sqrt(np.mean((field.offsets - offsets) ** 2) / np.mean(offsets ** 2))
            assert 0 < rel < 1e-5
            flips += int(np.sum(heads[-1][1][0] != tok_mask))
        assert flips == 0


class TestPreparedBundle:
    """A bundle narrows and wraps its parameters on its first sample_future
    call and keeps them; a replaced bundle prepares its own."""

    @staticmethod
    def _sample(bundle, pairs, sampler):
        field, mask = sample_future(_history(pairs, 2), bundle, sampler, seed=13)
        return field.offsets.tobytes(), mask.tobytes()

    @pytest.mark.parametrize("head", ["vis", "no_vis"])
    def test_parameters_are_wrapped_during_the_first_call_only(self, vis_bundle, tiny_bundle,
                                                                monkeypatch, head):
        bundle = replace(vis_bundle[0] if head == "vis" else tiny_bundle[0])
        calls = []

        def counted(params, requires_grad=True):
            calls.append(len(params))
            return wrap_params(params, requires_grad)

        monkeypatch.setattr(flowgen, "wrap_params", counted)
        self._sample(bundle, vis_bundle[1], {"method": "euler", "steps": 2})
        assert len(calls) == (3 if head == "vis" else 2)
        self._sample(bundle, vis_bundle[1], {"method": "euler", "steps": 2})
        assert len(calls) == (3 if head == "vis" else 2)

    @pytest.mark.parametrize("head", ["vis", "no_vis"])
    @pytest.mark.parametrize("sampler", DEFAULT_SAMPLERS)
    def test_first_and_second_calls_give_the_same_bytes(self, vis_bundle, tiny_bundle, head,
                                                        sampler):
        bundle = replace(vis_bundle[0] if head == "vis" else tiny_bundle[0])
        first = self._sample(bundle, vis_bundle[1], sampler)
        assert self._sample(bundle, vis_bundle[1], sampler) == first

    @pytest.mark.parametrize("changed", ["flow_params", "vis_params"])
    def test_a_replaced_bundle_samples_as_one_built_fresh(self, vis_bundle, changed):
        bundle, pairs = vis_bundle
        sampler = {"method": "euler", "steps": 4}
        before = self._sample(bundle, pairs, sampler)  # prepares `bundle`
        init = {"flow_params": models.init_velocity_params,
                "vis_params": models.init_visibility_params}[changed]
        params = init(bundle.flow_cfg, gc.rng(11))
        fresh = flowgen.FlowBundle(**{**{f.name: getattr(bundle, f.name) for f in fields(bundle)},
                                      changed: params})
        got = self._sample(replace(bundle, **{changed: params}), pairs, sampler)
        assert got == self._sample(fresh, pairs, sampler)
        assert got != before

    def test_fields_cannot_be_assigned(self, tiny_bundle):
        bundle = tiny_bundle[0]
        with pytest.raises(FrozenInstanceError):
            bundle.vis_params = None


def _zero_then_inf(z, t):
    """A field that blows up after t = 0.3: dopri5 shrinks its step there until it underflows."""
    return np.full_like(z, 0.0 if t <= 0.3 else np.inf)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda b, p: normalize_latents(np.zeros((1, 2, 3)),
                                                LatentStats(np.zeros(2), np.ones(2))),
                 ValueError, "channel mismatch: 3 vs 2", id="stats-channels"),
    pytest.param(lambda b, p: euler_sample(lambda z, t: z, np.ones(2), steps=0),
                 ValueError, "steps must be >= 1", id="euler-steps"),
    pytest.param(lambda b, p: dopri5_sample(_zero_then_inf, np.ones(2)), FloatingPointError,
                 "dopri5_sample: step size underflow at t=0.300000", id="dopri5-blow-up"),
    pytest.param(lambda b, p: flowgen._flow_inputs(
        SimpleNamespace(past=p.past[:, :4], future=p.future), b.vae_params, b.vae_cfg,
        flowgen.FlowTrainConfig(flow=b.flow_cfg)), ValueError,
                 "flow config expects 2/2 latent steps, dataset yields 1/2",
                 id="flow-inputs-latent-steps"),
    pytest.param(lambda b, p: sample_future(_history(p, 0), b, sampler={"method": "rk4"}),
                 ValueError, "unknown sampler 'rk4'", id="unknown-sampler"),
])
def test_refusals_name_their_cause(tiny_bundle, call, error, message):
    bundle, pairs, _ = tiny_bundle
    with np.errstate(all="ignore"), pytest.raises(error) as info:
        call(bundle, pairs)
    assert type(info.value) is error and str(info.value) == message
