import math

import numpy as np
import pytest

from conftest import desk_flow_config, make_pair_dataset, make_segment_dataset
from trajkit import flowgen, gradcore as gc, lossbank as lb
from trajkit.flowgen import (
    LatentStats,
    TimeGrid,
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
from trajkit.models import wrap_params


class TestTimeGrid:
    def test_logit_grid_k8_strictly_increasing_within_bounds(self):
        grid = logit_grid(8)
        assert grid.steps == 8
        assert np.all(np.diff(grid.times) > 0)
        assert grid.times[0] >= 1e-5 and grid.times[-1] <= 1 - 1e-5

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.1, 0.2]))


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
        z_last = np.arange(12.0).reshape(4, 3)
        z0 = boundary_init(z_last, 3, 0.0, gc.rng(0))
        assert np.array_equal(z0[0], z_last)

    def test_monte_carlo_anchor_mean(self):
        z_last = np.array([[0.5, -0.3]])
        draws = []
        rng = gc.rng(1)
        for _ in range(10_000):
            draws.append(boundary_init(z_last, 2, 0.1, rng)[0])
        mean = np.mean(draws, axis=0)
        assert np.allclose(mean, z_last, atol=0.01)

    def test_later_slices_unit_gaussian(self):
        z_last = np.zeros((4, 2))
        rng = gc.rng(2)
        draws = np.stack([boundary_init(z_last, 3, 0.1, rng)[1:] for _ in range(5_000)])
        assert abs(draws.var() - 1.0) < 0.05
        assert abs(draws.mean()) < 0.05

    def test_all_slices_mode_repeats_anchor(self):
        z_last = np.arange(6.0).reshape(3, 2)
        z0 = boundary_init(z_last, 4, 0.0, gc.rng(3), anchor_mode="all-slices")
        for k in range(4):
            assert np.array_equal(z0[k], z_last)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            boundary_init(np.zeros((2, 2)), 2, 0.1, gc.rng(0), anchor_mode="middle")


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


class TestKstepRollout:
    def test_constant_field_telescopes(self):
        grid = logit_grid(8)
        u = np.full((1, 2, 2, 3), 0.7)

        def v_fn(z, t):
            return gc.Tensor(u)

        states, velocities = kstep_rollout(v_fn, np.zeros((1, 2, 2, 3)), grid)
        span = grid.times[-1] - grid.times[0]
        assert np.allclose(states[-1].data, span * u, atol=1e-12)
        assert len(velocities) == 8

    def test_states_carry_zero_parameter_gradient(self):
        w = gc.Tensor(np.array([[0.5]]), requires_grad=True)
        grid = logit_grid(4)

        def v_fn(z, t):
            flat = gc.reshape(z, (-1, 1))
            return gc.reshape(gc.matmul(flat, w), z.shape)

        states, velocities = kstep_rollout(v_fn, np.ones((1, 1, 1, 1)), grid)
        total = gc.tsum(states[-1])
        grads = gc.backward(total, [w])
        assert np.all(grads[0] == 0.0)

    def test_velocities_carry_full_gradient(self):
        w = gc.Tensor(np.array([[0.5]]), requires_grad=True)
        grid = logit_grid(4)

        def v_fn(z, t):
            flat = gc.reshape(z, (-1, 1))
            return gc.reshape(gc.matmul(flat, w), z.shape)

        _, velocities = kstep_rollout(v_fn, np.ones((1, 1, 1, 1)), grid)
        total = velocities[0]
        for v in velocities[1:]:
            total = gc.add(total, v)
        grads = gc.backward(gc.tsum(total), [w])
        assert grads[0][0, 0] != 0.0


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

    @pytest.mark.parametrize("loop", ["train_vae", "train_visibility_head"])
    def test_nonfinite_loss_aborts_at_step_0(self, tiny_vae_cfg, loop):
        if loop == "train_vae":
            dataset = make_segment_dataset("smooth", 4, seed=7)
            dataset.segments[:] = np.nan
            cfg = flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=3, batch=2)
            run = lambda: flowgen.train_vae(dataset, cfg, seed=0)
        else:
            flow_cfg = desk_flow_config(tiny_vae_cfg, hidden=24, blocks=1)
            latents = np.full((4, 2, 16, flow_cfg.latent_channels), np.nan)
            targets = np.zeros((4, 2, 16))
            run = lambda: flowgen.train_visibility_head(latents, targets, flow_cfg, steps=3)
        with pytest.raises(FloatingPointError, match=f"^{loop}: non-finite loss at step 0$"):
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
                                            lr=1e-3, sigma=fcfg.sigma, sigma0=fcfg.sigma0)
        plain, _ = flowgen.train_flow(pairs, bundle.vae_params, tiny_vae_cfg, plain_cfg,
                                      seed=21, flow_params={k: v.copy() for k, v
                                                            in bundle.flow_params.items()})
        for k in tuned.flow_params:
            assert np.allclose(tuned.flow_params[k], plain.flow_params[k], atol=1e-12)

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
        from dataclasses import replace
        bundle, pairs, fcfg = tiny_bundle
        ft_cfg = flowgen.FinetuneConfig(steps=3, lr=1e-3, k_steps=2, sub_batch=2)
        other = replace(fcfg, flow=replace(fcfg.flow, hidden=8, cond_hidden=4),
                        sigma0=0.7, anchor_mode="all-slices")
        assert bundle.anchor_mode == "first-slice" and bundle.sigma0 == fcfg.sigma0
        want, curve_want = flowgen.finetune_onpolicy(bundle, pairs, fcfg, ft_cfg, seed=9)
        got, curve_got = flowgen.finetune_onpolicy(bundle, pairs, other, ft_cfg, seed=9)
        assert curve_got == curve_want
        assert (got.flow_cfg, got.sigma0, got.anchor_mode) == (
            bundle.flow_cfg, bundle.sigma0, bundle.anchor_mode)
        for k in want.flow_params:
            assert np.array_equal(got.flow_params[k], want.flow_params[k])

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
        from trajkit.scenes import fields_from_specs
        from trajkit.trajfield import OffsetField
        rng = np.random.default_rng(0)
        specs = []
        for i in range(12):
            angle = 2 * np.pi * i / 12
            speed = 0.02 + 0.06 * rng.random()
            specs.append(MotionSpec("translation", frames=16, height=32, width=32,
                                    stride=8, velocity=(speed * np.cos(angle),
                                                        speed * np.sin(angle))))
        pairs = flowgen.pairs_from_fields(fields_from_specs(specs), 8)
        segments = flowgen.SegmentDataset(
            np.concatenate([pairs.past, pairs.future]),
            np.concatenate([pairs.past_masks, pairs.future_masks]))
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
        grid = TimeGrid(np.linspace(0.05, 0.95, 9))
        u = z1 - z0

        states = [gc.Tensor((1 - t) * z0 + t * z1) for t in grid.times[:-1]]
        velocities = [gc.Tensor(u) for _ in range(grid.steps)]
        targets = [lb.kstep_targets(states[i].data, z0, z1, float(grid.times[i]))
                   for i in range(grid.steps)]
        w = np.full((2, 2, 16), 1.0 / 32)
        assert float(lb.kstep_loss(velocities, targets, w)) == pytest.approx(0.0, abs=1e-20)
        assert float(lb.endpoint_consistency(states, velocities, grid.times)) == pytest.approx(0.0, abs=1e-20)


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
