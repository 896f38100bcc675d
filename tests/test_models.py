import numpy as np
import pytest

from trajkit import gradcore as gc
from trajkit import models
from trajkit.models import (
    FlowConfig,
    VaeConfig,
    fuse_history,
    init_vae_params,
    init_velocity_params,
    init_visibility_params,
    pool_visibility,
    reparameterize,
    vae_decode,
    vae_encode,
    velocity_forward,
    visibility_predict,
    wrap_params,
)


@pytest.fixture(scope="module")
def small_cfg():
    return VaeConfig(height=16, width=16, frames=4, patch=8, hidden=24,
                     blocks=1, latent_channels=4, temporal_ratio=2)


@pytest.fixture(scope="module")
def vae_params(small_cfg):
    return init_vae_params(small_cfg, gc.rng(0))


@pytest.fixture(scope="module")
def flow_cfg():
    return FlowConfig(hidden=24, blocks=1, cond_hidden=12, history_steps=2,
                      future_steps=2, latent_channels=4, n_tokens=4)


@pytest.fixture(scope="module")
def vel_params(flow_cfg):
    return init_velocity_params(flow_cfg, gc.rng(1))


class TestBatched:
    def test_tensor_gets_a_reshape_node(self):
        t = gc.Tensor(np.ones((2, 3)), requires_grad=True)
        out, added = models._batched(t, 2)
        assert added and out._op == "reshape" and out.shape == (1, 2, 3)
        assert models._batched(out, 2) == (out, False)

    def test_array_stays_a_float64_array(self):
        out, added = models._batched(np.ones((2, 3), dtype=np.float32), 2)
        assert added and type(out) is np.ndarray and out.dtype == np.float64
        assert out.shape == (1, 2, 3)
        same, added = models._batched(out, 2)
        assert same is out and not added


class TestVaeShapes:
    def test_latent_shape_arithmetic(self, small_cfg, vae_params):
        x = gc.rng(2).draw_normal((4, 16, 16, 2)) * 0.1
        mu, logvar = vae_encode(x, vae_params, small_cfg)
        assert mu.shape == (2, 4, 4)
        assert logvar.shape == (2, 4, 4)

    def test_encode_deterministic(self, small_cfg, vae_params):
        x = gc.rng(3).draw_normal((4, 16, 16, 2))
        a, _ = vae_encode(x, vae_params, small_cfg)
        b, _ = vae_encode(x, vae_params, small_cfg)
        assert np.array_equal(a.data, b.data)

    def test_decode_round_trip_shape(self, small_cfg, vae_params):
        x = gc.rng(4).draw_normal((4, 16, 16, 2))
        mu, _ = vae_encode(x, vae_params, small_cfg)
        out = vae_decode(mu, vae_params, small_cfg)
        assert out.shape == x.shape

    def test_zero_latent_finite(self, small_cfg, vae_params):
        out = vae_decode(np.zeros((2, 4, 4)), vae_params, small_cfg)
        assert np.all(np.isfinite(out.data))

    def test_batched_matches_single(self, small_cfg, vae_params):
        x = gc.rng(5).draw_normal((3, 4, 16, 16, 2))
        mu_b, _ = vae_encode(x, vae_params, small_cfg)
        mu_1, _ = vae_encode(x[1], vae_params, small_cfg)
        assert np.allclose(mu_b.data[1], mu_1.data, atol=1e-12)

    def test_padding_handles_ragged_frames(self, vae_params):
        cfg = VaeConfig(height=16, width=16, frames=3, patch=8, hidden=24,
                        blocks=1, latent_channels=4, temporal_ratio=2)
        params = init_vae_params(cfg, gc.rng(0))
        x = gc.rng(6).draw_normal((3, 16, 16, 2))
        mu, _ = vae_encode(x, params, cfg)
        assert mu.shape == (2, 4, 4)  # ceil(6/4) latent steps
        out = vae_decode(mu, params, cfg)
        assert out.shape == (3, 16, 16, 2)

    def test_wrong_frame_size_rejected(self, small_cfg, vae_params):
        with pytest.raises(gc.ShapeError):
            vae_encode(np.zeros((4, 12, 16, 2)), vae_params, small_cfg)


class TestReparameterize:
    def test_tiny_variance_collapses_to_mean(self):
        mu = np.ones((2, 3, 4)) * 0.7
        z = reparameterize(mu, np.full((2, 3, 4), -30.0), gc.rng(0))
        assert np.allclose(z.data, mu, atol=1e-5)

    def test_monte_carlo_mean(self):
        mu = np.array([[[0.5, -0.2]]])
        rng = gc.rng(1)
        draws = np.stack([reparameterize(mu, np.zeros_like(mu), rng).data
                          for _ in range(100_000)])
        assert np.allclose(draws.mean(axis=0), mu, atol=0.01)

    def test_seeded_reproducible(self):
        mu = np.zeros((2, 2, 2))
        lv = np.zeros((2, 2, 2))
        a = reparameterize(mu, lv, gc.rng(7))
        b = reparameterize(mu, lv, gc.rng(7))
        assert np.array_equal(a.data, b.data)


class TestFusion:
    def test_alpha_zero_is_identity(self, flow_cfg, vel_params):
        params = wrap_params(dict(vel_params), requires_grad=False)
        params["vel.fusion.alpha"] = gc.Tensor(0.0)
        tokens = gc.Tensor(gc.rng(8).draw_normal((1, 2, 4, 24)))
        z_hist = gc.rng(9).draw_normal((1, 2, 4, 4))
        fused = fuse_history(tokens, z_hist, params)
        assert np.array_equal(fused.data, tokens.data)

    def test_first_step_gets_no_velocity_hint(self, flow_cfg, vel_params):
        # With a static history the hint is zero, so injection is k-independent
        # up to the gates; with distinct history slices, step 0 must see only
        # the boundary term (ramp starts at 0).
        params = wrap_params(dict(vel_params), requires_grad=False)
        params["vel.fusion.gate_raw"] = gc.Tensor(np.full(2, 100.0))  # gates -> 1
        tokens = gc.zeros((1, 2, 4, 24))
        rng = gc.rng(10)
        z_last = rng.draw_normal((1, 1, 4, 4))
        z_prev = rng.draw_normal((1, 1, 4, 4))
        z_hist = np.concatenate([z_prev, z_last], axis=1)
        fused = fuse_history(tokens, z_hist, params)
        tok_last = (z_last[0, 0] @ params["vel.tok.w"].data) + params["vel.tok.b"].data
        alpha = float(params["vel.fusion.alpha"].data)
        assert np.allclose(fused.data[0, 0], alpha * tok_last, atol=1e-9)

    def test_static_history_injection_independent_of_step(self, flow_cfg, vel_params):
        params = wrap_params(dict(vel_params), requires_grad=False)
        params["vel.fusion.gate_raw"] = gc.Tensor(np.zeros(2))  # equal gates
        tokens = gc.zeros((1, 2, 4, 24))
        z_slice = gc.rng(11).draw_normal((1, 1, 4, 4))
        z_hist = np.concatenate([z_slice, z_slice], axis=1)
        fused = fuse_history(tokens, z_hist, params)
        assert np.allclose(fused.data[0, 0], fused.data[0, 1], atol=1e-12)

    def test_single_history_step_rejected(self, flow_cfg, vel_params):
        params = wrap_params(dict(vel_params), requires_grad=False)
        with pytest.raises(ValueError):
            fuse_history(gc.zeros((1, 2, 4, 24)), np.zeros((1, 1, 4, 4)), params)


class TestVelocityForward:
    def _condition(self, b=1):
        rng = gc.rng(12)
        return {"z_hist": rng.draw_normal((b, 2, 4, 4)),
                "visibility": np.ones((b, 2, 4))}

    def test_output_shape_matches_input(self, flow_cfg, vel_params):
        z_t = gc.rng(13).draw_normal((2, 4, 4))
        v = velocity_forward(z_t, 0.3, self._condition(), vel_params, flow_cfg)
        assert v.shape == z_t.shape

    def test_deterministic(self, flow_cfg, vel_params):
        z_t = gc.rng(14).draw_normal((2, 4, 4))
        a = velocity_forward(z_t, 0.5, self._condition(), vel_params, flow_cfg)
        b = velocity_forward(z_t, 0.5, self._condition(), vel_params, flow_cfg)
        assert np.array_equal(a.data, b.data)

    def test_gradient_wrt_state(self, flow_cfg, vel_params):
        cond = self._condition()

        def f(z):
            v = velocity_forward(z, 0.4, cond, vel_params, flow_cfg)
            return gc.tsum(gc.square(v))

        z0 = gc.rng(15).draw_normal((2, 4, 4)) * 0.5
        assert gc.grad_check(f, [z0]) < 1e-4

    def test_batched_time_per_item(self, flow_cfg, vel_params):
        z_t = gc.rng(16).draw_normal((2, 2, 4, 4))
        cond = self._condition(b=2)
        v = velocity_forward(z_t, np.array([0.1, 0.9]), cond, vel_params, flow_cfg)
        v1 = velocity_forward(z_t[1], 0.9,
                              {"z_hist": cond["z_hist"][1], "visibility": cond["visibility"][1]},
                              vel_params, flow_cfg)
        assert np.allclose(v.data[1], v1.data, atol=1e-12)


class TestPoolVisibility:
    def test_all_visible(self):
        out = pool_visibility(np.ones((4, 8, 8)), (2, 2, 2), ratio=2)
        assert out.shape == (2, 4)
        assert np.all(out == 1)

    def test_all_invisible(self):
        assert np.all(pool_visibility(np.zeros((4, 8, 8)), (2, 2, 2), ratio=2) == 0)

    def test_single_pixel_lights_token(self):
        m = np.zeros((4, 8, 8))
        m[3, 5, 6] = 1  # second latent step, bottom-right token
        out = pool_visibility(m, (2, 2, 2), ratio=2)
        assert out[1, 3] == 1
        assert out.sum() == 1

    def test_matches_logical_or_oracle(self):
        rng = np.random.default_rng(17)
        m = (rng.random((4, 8, 8)) > 0.8).astype(np.uint8)
        out = pool_visibility(m, (2, 2, 2), ratio=2)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    block = m[2 * k:2 * k + 2, 4 * i:4 * i + 4, 4 * j:4 * j + 4]
                    assert out[k, 2 * i + j] == (1 if block.any() else 0)

    def test_groups_ratio_frames_and_pads_with_the_last(self):
        m = np.ones((6, 1, 1))
        m[3] = 0  # frames 0-3 form step 0; frames 4, 5, 5, 5 form step 1
        out = pool_visibility(m, (2, 1, 1), reduce="mean", ratio=4)
        assert np.array_equal(out[:, 0], [0.75, 1.0])

    def test_grid_must_match_ratio(self):
        with pytest.raises(ValueError, match="token grid"):
            pool_visibility(np.ones((6, 2, 2)), (3, 1, 1), ratio=4)

    @pytest.mark.parametrize("ratio", [3, 4])
    @pytest.mark.parametrize("frames", range(1, 10))
    def test_grouping_agrees_with_vae_encode(self, frames, ratio):
        cfg = VaeConfig(height=8, width=8, frames=frames, patch=8, hidden=8, blocks=1,
                        latent_channels=2, temporal_ratio=ratio)
        params = wrap_params(init_vae_params(cfg, gc.rng(1)), requires_grad=False)
        base_mu, _ = vae_encode(np.zeros((frames, 8, 8, 2)), params, cfg)
        full = pool_visibility(np.ones((frames, 8, 8)), cfg.token_grid(frames), ratio=ratio,
                               reduce="mean")
        for j in range(frames):  # the latent steps frame j reaches, through either path
            x = np.zeros((frames, 8, 8, 2))
            x[j] = 1.0
            mu, _ = vae_encode(x, params, cfg)
            m = np.ones((frames, 8, 8))
            m[j] = 0
            pooled = pool_visibility(m, cfg.token_grid(frames), ratio=ratio, reduce="mean")
            assert np.array_equal(np.any(mu.data != base_mu.data, axis=(1, 2)),
                                  np.any(pooled != full, axis=1))


class TestVisibilityPredict:
    def test_logit_shape(self, flow_cfg):
        params = init_visibility_params(flow_cfg, gc.rng(18))
        z = gc.rng(19).draw_normal((2, 4, 4))
        logits, mask = visibility_predict(z, params)
        assert logits.shape == (2, 4)
        assert mask.shape == (2, 4)

    def test_gradient_through_head(self, flow_cfg):
        params = init_visibility_params(flow_cfg, gc.rng(22))

        def f(z):
            return gc.tsum(gc.square(models.visibility_logits(z, params)))

        z0 = gc.rng(23).draw_normal((2, 4, 4)) * 0.5
        assert gc.grad_check(f, [z0]) < 1e-4


class TestVaeGradients:
    def test_encode_decode_grad_wrt_input(self, small_cfg, vae_params):
        def f(x):
            mu, logvar = vae_encode(x, vae_params, small_cfg)
            out = vae_decode(mu, vae_params, small_cfg)
            return gc.add(gc.tsum(gc.square(out)), gc.tsum(gc.square(logvar)))

        x0 = gc.rng(24).draw_normal((4, 16, 16, 2)) * 0.3
        assert gc.grad_check(f, [x0]) < 1e-4

    def test_grad_wrt_parameters(self, small_cfg):
        base = init_vae_params(small_cfg, gc.rng(25))
        x = gc.rng(26).draw_normal((4, 16, 16, 2)) * 0.3
        names = ["enc.embed.w", "enc.compress.w", "dec.head.b"]

        def f(*subset):
            params = wrap_params(base, requires_grad=False)
            for name, t in zip(names, subset):
                params[name] = t
            mu, _ = vae_encode(x, params, small_cfg)
            return gc.tsum(gc.square(vae_decode(mu, params, small_cfg)))

        assert gc.grad_check(f, [base[n] for n in names]) < 1e-4
