from types import SimpleNamespace

import numpy as np
import pytest

from reference_ops import square
from trajkit import flowgen
from trajkit import gradcore as gc
from trajkit import lossbank as lb
from trajkit import models
from trajkit.models import (
    FlowConfig,
    VaeConfig,
    encode_condition,
    history_cue,
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


LAT, HIST, VIS = np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 4, 4)), np.ones((1, 2, 4))
SEG, MASK, W = np.zeros((1, 2, 4, 4, 2)), np.ones((1, 2, 4, 4)), np.full((1, 2, 4), 0.125)
MASK_CFG = VaeConfig(height=4, width=4, frames=2, patch=2, temporal_ratio=2)  # MASK's frame
PAIR_LOSSES = {"recon_loss": lb.recon_loss, "temporal_loss": lb.temporal_loss,
               "spatial_loss": lb.spatial_loss,
               "consistency_terms": lambda *p: lb.consistency_terms(*p, None, 0.0, 0.0)}
UNBATCHED_PAIRS = {"target": (SEG[0], SEG, MASK), "recon": (SEG, SEG[0], MASK),
                   "mask": (SEG, SEG, MASK[0])}
# "function[input]" -> a call, given the networks `n`, that passes that input
# without its leading batch axis and every other input with it
UNBATCHED = {
    **{f"{name}[{field}]": lambda n, fn=fn, args=args: fn(*args)
       for name, fn in PAIR_LOSSES.items() for field, args in UNBATCHED_PAIRS.items()},
    "vae_encode[x]": lambda n: vae_encode(np.zeros((4, 16, 16, 2)), n.vae, n.vae_cfg),
    "vae_decode[z]": lambda n: vae_decode(LAT[0], n.vae, n.vae_cfg),
    "velocity_forward[z_t]": lambda n: velocity_forward(
        LAT[0], 0.3, encode_condition(HIST, VIS, n.vel, n.flow_cfg),
        n.vel, n.flow_cfg),
    "encode_condition[z_hist]": lambda n: encode_condition(HIST[0], VIS, n.vel, n.flow_cfg),
    "encode_condition[visibility]": lambda n: encode_condition(HIST, VIS[0], n.vel, n.flow_cfg),
    "history_cue[z_hist]": lambda n: history_cue(HIST[0], wrap_params(n.vel), 2),
    "visibility_logits[z_f]": lambda n: models.visibility_logits(LAT[0], n.vis),
    "visibility_predict[z_f]": lambda n: visibility_predict(LAT[0], n.vis),
    "pool_visibility[mask]": lambda n: pool_visibility(MASK[0], MASK_CFG),
    "token_weights[future_mask]": lambda n: lb.token_weights(MASK[0], MASK_CFG, 0.01),
    "fm_loss[v_pred]": lambda n: lb.fm_loss(LAT[0], LAT, W),
    "fm_loss[u_target]": lambda n: lb.fm_loss(LAT, LAT[0], W),
    "fm_loss[weights]": lambda n: lb.fm_loss(LAT, LAT, W[0]),
    "kstep_loss[velocities]": lambda n: lb.kstep_loss([LAT[0]], [(LAT, LAT)], W),
    "kstep_loss[v1]": lambda n: lb.kstep_loss([LAT], [(LAT[0], LAT)], W),
    "kstep_loss[v0]": lambda n: lb.kstep_loss([LAT], [(LAT, LAT[0])], W),
    "kstep_loss[weights]": lambda n: lb.kstep_loss([LAT], [(LAT, LAT)], W[0]),
    "endpoint_consistency[states]": lambda n: lb.endpoint_consistency(
        [LAT, LAT[0]], [LAT, LAT], [0.2, 0.6]),
    "endpoint_consistency[velocities]": lambda n: lb.endpoint_consistency(
        [LAT, LAT], [LAT, LAT[0]], [0.2, 0.6]),
    "boundary_init[z_hist_last]": lambda n: flowgen.boundary_init(np.zeros((4, 4)), n.flow_cfg,
                                                                  gc.rng(0)),
}


@pytest.mark.parametrize("case", list(UNBATCHED))
def test_input_without_batch_axis_is_a_shape_error_naming_the_function(
        small_cfg, vae_params, flow_cfg, vel_params, case):
    nets = SimpleNamespace(vae_cfg=small_cfg, vae=vae_params, flow_cfg=flow_cfg, vel=vel_params,
                           vis=init_visibility_params(flow_cfg, gc.rng(2)))
    name = case.split("[")[0]
    with pytest.raises(gc.ShapeError, match=f"^{name}: ") as exc:
        UNBATCHED[case](nets)
    assert exc.value.op == name


class TestVaeShapes:
    def test_latent_shape_arithmetic(self, small_cfg, vae_params):
        x = gc.rng(2).draw_normal((1, 4, 16, 16, 2)) * 0.1
        mu, logvar = vae_encode(x, vae_params, small_cfg)
        assert mu.shape == (1, 2, 4, 4)
        assert logvar.shape == (1, 2, 4, 4)

    def test_encode_deterministic(self, small_cfg, vae_params):
        x = gc.rng(3).draw_normal((1, 4, 16, 16, 2))
        a, _ = vae_encode(x, vae_params, small_cfg)
        b, _ = vae_encode(x, vae_params, small_cfg)
        assert np.array_equal(a.data, b.data)

    def test_decode_round_trip_shape(self, small_cfg, vae_params):
        x = gc.rng(4).draw_normal((1, 4, 16, 16, 2))
        mu, _ = vae_encode(x, vae_params, small_cfg)
        out = vae_decode(mu, vae_params, small_cfg)
        assert out.shape == x.shape

    @pytest.mark.parametrize("frames", [-1, 0, 5, 9])
    def test_decode_refuses_frames_the_latents_do_not_decode_to(self, small_cfg, vae_params,
                                                                 frames):
        """Two latent steps decode to 4 frames; slicing to -1, 0 or 9 of them
        gave 3, 0 and 4 frames."""
        with pytest.raises(gc.ShapeError, match=r"^vae_decode: .* \(4,\)$"):
            vae_decode(np.zeros((1, 2, 4, 4)), vae_params, small_cfg, frames=frames)

    @pytest.mark.parametrize("frames", [1, 3, 4])
    def test_decode_cuts_to_frames(self, small_cfg, vae_params, frames):
        z = np.zeros((1, 2, 4, 4))
        full = vae_decode(z, vae_params, small_cfg, frames=4).data
        out = vae_decode(z, vae_params, small_cfg, frames=frames)
        assert out.data.tobytes() == full[:, :frames].tobytes()

    def test_zero_latent_finite(self, small_cfg, vae_params):
        out = vae_decode(np.zeros((1, 2, 4, 4)), vae_params, small_cfg)
        assert np.all(np.isfinite(out.data))

    def test_padding_handles_ragged_frames(self, vae_params):
        cfg = VaeConfig(height=16, width=16, frames=3, patch=8, hidden=24,
                        blocks=1, latent_channels=4, temporal_ratio=2)
        params = init_vae_params(cfg, gc.rng(0))
        x = gc.rng(6).draw_normal((1, 3, 16, 16, 2))
        mu, _ = vae_encode(x, params, cfg)
        assert mu.shape == (1, 2, 4, 4)  # ceil(6/4) latent steps
        out = vae_decode(mu, params, cfg)
        assert out.shape == (1, 3, 16, 16, 2)

    def test_wrong_frame_size_rejected(self, small_cfg, vae_params):
        with pytest.raises(gc.ShapeError):
            vae_encode(np.zeros((1, 4, 12, 16, 2)), vae_params, small_cfg)


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
        fused = gc.add(tokens, history_cue(z_hist, params, 2))
        assert np.array_equal(fused.data, tokens.data)

    def test_first_step_gets_no_velocity_hint(self, flow_cfg, vel_params):
        # With a static history the hint is zero, so injection is k-independent
        # up to the gates; with distinct history slices, step 0 must see only
        # the boundary term (ramp starts at 0).
        params = wrap_params(dict(vel_params), requires_grad=False)
        params["vel.fusion.gate_raw"] = gc.Tensor(np.full(2, 100.0))  # gates -> 1
        tokens = np.zeros((1, 2, 4, 24))
        rng = gc.rng(10)
        z_last = rng.draw_normal((1, 1, 4, 4))
        z_prev = rng.draw_normal((1, 1, 4, 4))
        z_hist = np.concatenate([z_prev, z_last], axis=1)
        fused = gc.add(tokens, history_cue(z_hist, params, 2))
        tok_last = (z_last[0, 0] @ params["vel.tok.w"].data) + params["vel.tok.b"].data
        alpha = float(params["vel.fusion.alpha"].data)
        assert np.allclose(fused.data[0, 0], alpha * tok_last, atol=1e-9)

    def test_static_history_injection_independent_of_step(self, flow_cfg, vel_params):
        params = wrap_params(dict(vel_params), requires_grad=False)
        params["vel.fusion.gate_raw"] = gc.Tensor(np.zeros(2))  # equal gates
        tokens = np.zeros((1, 2, 4, 24))
        z_slice = gc.rng(11).draw_normal((1, 1, 4, 4))
        z_hist = np.concatenate([z_slice, z_slice], axis=1)
        fused = gc.add(tokens, history_cue(z_hist, params, 2))
        assert np.allclose(fused.data[0, 0], fused.data[0, 1], atol=1e-12)

    def test_single_history_step_rejected(self, flow_cfg, vel_params):
        params = wrap_params(dict(vel_params), requires_grad=False)
        with pytest.raises(ValueError):
            history_cue(np.zeros((1, 1, 4, 4)), params, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k_f", [1, 2, 3, 4])
    def test_fusion_ramp_is_a_read_only_linspace(self, k_f, dtype):
        ramp = models._fusion_ramp(k_f, np.dtype(dtype))
        want = np.linspace(0.0, 1.0, k_f, dtype=dtype).reshape(1, k_f, 1, 1)
        assert ramp.dtype == want.dtype and ramp.shape == want.shape
        assert ramp.tobytes() == want.tobytes()
        assert not ramp.flags.writeable


class TestVelocityForward:
    def _condition(self, b=1):
        """History latents and their visibility tokens."""
        rng = gc.rng(12)
        return rng.draw_normal((b, 2, 4, 4)), np.ones((b, 2, 4))

    def _encoded(self, vel_params, flow_cfg, b=1):
        return encode_condition(*self._condition(b), vel_params, flow_cfg)

    def test_output_shape_matches_input(self, flow_cfg, vel_params):
        z_t = gc.rng(13).draw_normal((1, 2, 4, 4))
        v = velocity_forward(z_t, 0.3, self._encoded(vel_params, flow_cfg), vel_params, flow_cfg)
        assert v.shape == z_t.shape

    def test_deterministic(self, flow_cfg, vel_params):
        z_t = gc.rng(14).draw_normal((1, 2, 4, 4))
        a = velocity_forward(z_t, 0.5, self._encoded(vel_params, flow_cfg), vel_params, flow_cfg)
        b = velocity_forward(z_t, 0.5, self._encoded(vel_params, flow_cfg), vel_params, flow_cfg)
        assert np.array_equal(a.data, b.data)

    def test_gradient_wrt_state(self, flow_cfg, vel_params):
        cond = self._encoded(vel_params, flow_cfg)

        def f(z):
            v = velocity_forward(z, 0.4, cond, vel_params, flow_cfg)
            return gc.tsum(square(v))

        z0 = gc.rng(15).draw_normal((1, 2, 4, 4)) * 0.5
        assert gc.grad_check(f, [z0]) < 1e-4

    def test_batched_time_per_item(self, flow_cfg, vel_params):
        z_t = gc.rng(16).draw_normal((2, 2, 4, 4))
        z_hist, vis = self._condition(b=2)
        v = velocity_forward(z_t, np.array([0.1, 0.9]),
                             encode_condition(z_hist, vis, vel_params, flow_cfg), vel_params,
                             flow_cfg)
        v1 = velocity_forward(z_t[1:], 0.9,
                              encode_condition(z_hist[1:], vis[1:], vel_params, flow_cfg),
                              vel_params, flow_cfg)
        assert np.allclose(v.data[1], v1.data[0], atol=1e-12)

    @pytest.mark.parametrize("b,t", [(1, [0.1, 0.9]), (2, [0.1, 0.5, 0.9]), (2, [[0.1, 0.9]])])
    def test_time_of_another_length_than_the_batch_is_a_shape_error(self, flow_cfg, vel_params,
                                                                     b, t):
        z_t = gc.rng(17).draw_normal((b, 2, 4, 4))
        with pytest.raises(gc.ShapeError, match="^velocity_forward: ") as exc:
            velocity_forward(z_t, np.array(t), self._encoded(vel_params, flow_cfg, b=b),
                             vel_params, flow_cfg)
        assert exc.value.op == "velocity_forward"

    def test_condition_of_another_batch_size_is_a_shape_error(self, flow_cfg, vel_params):
        z_t = gc.rng(18).draw_normal((2, 2, 4, 4))
        with pytest.raises(gc.ShapeError, match="^velocity_forward: ") as exc:
            velocity_forward(z_t, 0.5, self._encoded(vel_params, flow_cfg, b=1), vel_params,
                             flow_cfg)
        assert exc.value.op == "velocity_forward"

    def test_condition_of_another_horizon_is_a_shape_error(self, flow_cfg, vel_params):
        z_t = gc.rng(19).draw_normal((1, 3, 4, 4))  # K_f = 3; the condition is encoded for 2
        with pytest.raises(gc.ShapeError, match="^velocity_forward: ") as exc:
            velocity_forward(z_t, 0.5, self._encoded(vel_params, flow_cfg), vel_params, flow_cfg)
        assert exc.value.op == "velocity_forward"

    @pytest.mark.parametrize("z_hist,vis", [((1, 3, 4, 4), (1, 3, 4)), ((1, 2, 4, 4), (1, 3, 4)),
                                            ((1, 2, 4, 4), (2, 2, 4))])
    def test_condition_of_other_shapes_than_the_model_is_a_shape_error(
            self, flow_cfg, vel_params, z_hist, vis):
        with pytest.raises(gc.ShapeError, match="^encode_condition: ") as exc:
            encode_condition(np.zeros(z_hist), np.ones(vis), vel_params, flow_cfg)
        assert exc.value.op == "encode_condition"

    def test_encoded_cue_fuses_as_fuse_history(self, flow_cfg, vel_params):
        z_hist, vis = self._condition()
        encoded = encode_condition(z_hist, vis, vel_params, flow_cfg)
        tokens = gc.Tensor(gc.rng(20).draw_normal((1, 2, 4, 24)))
        fused = gc.add(tokens, history_cue(z_hist, vel_params, 2))
        assert np.array_equal(gc.add(tokens, encoded.cue).data, fused.data)


# 8x8 frames in 2x2 tokens, 2 frames per latent step
POOL_CFG = VaeConfig(height=8, width=8, frames=4, patch=4, temporal_ratio=2)


class TestPoolVisibility:
    def test_all_visible(self):
        out = pool_visibility(np.ones((1, 4, 8, 8)), POOL_CFG)
        assert out.shape == (1, 2, 4)
        assert np.all(out == 1)

    def test_all_invisible(self):
        assert np.all(pool_visibility(np.zeros((1, 4, 8, 8)), POOL_CFG) == 0)

    def test_single_pixel_lights_token(self):
        m = np.zeros((1, 4, 8, 8))
        m[0, 3, 5, 6] = 1  # second latent step, bottom-right token
        out = pool_visibility(m, POOL_CFG)
        assert out[0, 1, 3] == 1
        assert out.sum() == 1

    def test_matches_logical_or_oracle(self):
        rng = np.random.default_rng(17)
        m = (rng.random((4, 8, 8)) > 0.8).astype(np.uint8)
        out = pool_visibility(m[None], POOL_CFG)[0]
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    block = m[2 * k:2 * k + 2, 4 * i:4 * i + 4, 4 * j:4 * j + 4]
                    assert out[k, 2 * i + j] == (1 if block.any() else 0)

    def test_groups_ratio_frames_and_pads_with_the_last(self):
        m = np.ones((1, 6, 1, 1))
        m[0, 3] = 0  # frames 0-3 form step 0; frames 4, 5, 5, 5 form step 1
        cfg = VaeConfig(height=1, width=1, frames=6, patch=1, temporal_ratio=4)
        out = pool_visibility(m, cfg, reduce="mean")
        assert np.array_equal(out[0, :, 0], [0.75, 1.0])

    @pytest.mark.parametrize("shape", [(1, 4, 16, 8), (1, 4, 8, 4), (1, 0, 8, 8)],
                             ids=["taller", "narrower", "no-frame"])
    def test_mask_of_another_frame_size_or_no_frame_is_refused(self, shape):
        with pytest.raises(gc.ShapeError, match=r"^pool_visibility: .* vs \(8, 8\)$"):
            pool_visibility(np.ones(shape), POOL_CFG)

    @pytest.mark.parametrize("ratio", [3, 4])
    @pytest.mark.parametrize("frames", range(1, 10))
    def test_grouping_agrees_with_vae_encode(self, frames, ratio):
        cfg = VaeConfig(height=8, width=8, frames=frames, patch=8, hidden=8, blocks=1,
                        latent_channels=2, temporal_ratio=ratio)
        params = wrap_params(init_vae_params(cfg, gc.rng(1)), requires_grad=False)
        base_mu, _ = vae_encode(np.zeros((1, frames, 8, 8, 2)), params, cfg)
        full = pool_visibility(np.ones((1, frames, 8, 8)), cfg, reduce="mean")
        for j in range(frames):  # the latent steps frame j reaches, through either path
            x = np.zeros((1, frames, 8, 8, 2))
            x[0, j] = 1.0
            mu, _ = vae_encode(x, params, cfg)
            m = np.ones((1, frames, 8, 8))
            m[0, j] = 0
            pooled = pool_visibility(m, cfg, reduce="mean")
            assert np.array_equal(np.any(mu.data != base_mu.data, axis=(2, 3)),
                                  np.any(pooled != full, axis=2))


class TestVisibilityPredict:
    def test_logit_shape(self, flow_cfg):
        params = init_visibility_params(flow_cfg, gc.rng(18))
        z = gc.rng(19).draw_normal((1, 2, 4, 4))
        logits, mask = visibility_predict(z, params)
        assert logits.shape == (1, 2, 4)
        assert mask.shape == (1, 2, 4)

    def test_gradient_through_head(self, flow_cfg):
        params = init_visibility_params(flow_cfg, gc.rng(22))

        def f(z):
            return gc.tsum(square(models.visibility_logits(z, params)))

        z0 = gc.rng(23).draw_normal((1, 2, 4, 4)) * 0.5
        assert gc.grad_check(f, [z0]) < 1e-4


class TestVaeGradients:
    def test_encode_decode_grad_wrt_input(self, small_cfg, vae_params):
        def f(x):
            mu, logvar = vae_encode(x, vae_params, small_cfg)
            out = vae_decode(mu, vae_params, small_cfg)
            return gc.add(gc.tsum(square(out)), gc.tsum(square(logvar)))

        x0 = gc.rng(24).draw_normal((1, 4, 16, 16, 2)) * 0.3
        assert gc.grad_check(f, [x0]) < 1e-4

    def test_grad_wrt_parameters(self, small_cfg):
        base = init_vae_params(small_cfg, gc.rng(25))
        x = gc.rng(26).draw_normal((1, 4, 16, 16, 2)) * 0.3
        names = ["enc.embed.w", "enc.compress.w", "dec.head.b"]

        def f(*subset):
            params = wrap_params(base, requires_grad=False)
            for name, t in zip(names, subset):
                params[name] = t
            mu, _ = vae_encode(x, params, small_cfg)
            return gc.tsum(square(vae_decode(mu, params, small_cfg)))

        assert gc.grad_check(f, [base[n] for n in names]) < 1e-4


def _param_grad_errors(loss, params: dict, rng, per_block: int = 40, step: float = 1e-5):
    """grad_check's error, block by block, for every parameter block of
    loss(params): central differences at up to `per_block` sampled coordinates
    against one backward pass.  Also returns each block's largest |adjoint|."""
    names = sorted(params)
    arrays = [np.array(params[n], dtype=np.float64) for n in names]
    f = lambda *ts: loss(dict(zip(names, ts)))
    _, analytic = gc.grad(f, arrays)
    errors, largest = {}, {}
    for name, x, g in zip(names, arrays, analytic):
        flat, g = x.reshape(-1), np.reshape(g, -1)
        worst = 0.0
        for j in rng.choice(flat.size, min(per_block, flat.size), replace=False):
            orig, vals = flat[j], []
            for v in (orig + step, orig - step):
                flat[j] = v
                vals.append(float(f(*[gc.Tensor(a) for a in arrays]).data))
            flat[j] = orig
            fd = (vals[0] - vals[1]) / (2.0 * step)
            worst = max(worst, abs(g[j] - fd) / max(1.0, abs(fd)))
        errors[name], largest[name] = worst, np.abs(g).max()
    return errors, largest


def _vae_loss(draw, vae_cfg, flow_cfg):
    x = draw((2, vae_cfg.frames, vae_cfg.height, vae_cfg.width, 2)) * 0.3

    def loss(params):
        mu, logvar = vae_encode(x, params, vae_cfg)
        out = vae_decode(mu, params, vae_cfg)
        return gc.add(gc.tsum(square(out)), gc.tsum(square(logvar)))
    return init_vae_params(vae_cfg, gc.rng(30)), loss


def _velocity_loss(draw, vae_cfg, flow_cfg):
    """Through encode_condition, with one flow time per instance; vel.tok
    enters three times and vel.fusion.alpha is 0-d."""
    z_t, z_hist, t = draw((2, 2, 4, 4)) * 0.5, draw((2, 2, 4, 4)), np.array([0.3, 0.8])
    vis = np.array([[[1.0, 0.0, 1.0, 1.0]] * 2, [[0.0, 1.0, 1.0, 0.0]] * 2])

    def loss(params):
        cond = encode_condition(z_hist, vis, params, flow_cfg)
        return gc.tsum(square(velocity_forward(z_t, t, cond, params, flow_cfg)))
    params = init_velocity_params(flow_cfg, gc.rng(31))
    params["vel.fusion.gate_raw"] = np.array([0.4, -0.7])  # distinct gates
    return params, loss


def _visibility_loss(draw, vae_cfg, flow_cfg):
    z_f = draw((2, 2, 4, 4)) * 0.5
    return (init_visibility_params(flow_cfg, gc.rng(32)),
            lambda params: gc.tsum(square(models.visibility_logits(z_f, params))))


@pytest.mark.parametrize("network", [_vae_loss, _velocity_loss, _visibility_loss],
                         ids=["vae", "velocity", "visibility"])
def test_every_parameter_block_passes_grad_check(network, small_cfg, flow_cfg):
    params, loss = network(gc.rng(33).draw_normal, small_cfg, flow_cfg)
    errors, largest = _param_grad_errors(loss, params, np.random.default_rng(34))
    assert set(errors) == set(params)
    assert {n: e for n, e in errors.items() if not e < 1e-4} == {}
    assert [n for n, g in largest.items() if not g > 0] == []  # every block gets a gradient


def _network_outputs(cfg, flow_cfg, requires_grad: bool) -> dict:
    """The outputs of every network, its parameters (random, so no block is
    zero) wrapped with `requires_grad`."""
    rng = np.random.default_rng(40)

    def params(init, net_cfg):
        return wrap_params({k: rng.normal(size=np.shape(v)) * 0.3
                            for k, v in init(net_cfg, gc.rng(0)).items()}, requires_grad)
    vae = params(init_vae_params, cfg)
    vel, head = params(init_velocity_params, flow_cfg), params(init_visibility_params, flow_cfg)
    x = rng.normal(size=(2, cfg.frames, cfg.height, cfg.width, 2))
    z_t, z_hist = rng.normal(size=(2, 2, 4, 4)), rng.normal(size=(2, 2, 4, 4))
    vis = (rng.random((2, 2, 4)) > 0.3).astype(np.float64)
    mu, logvar = vae_encode(x, vae, cfg)
    cond = encode_condition(z_hist, vis, vel, flow_cfg)
    return {"vae_encode.mu": mu, "vae_encode.logvar": logvar,
            "vae_decode": vae_decode(mu, vae, cfg),
            "encode_condition.cue": cond.cue, "encode_condition.tokens": cond.tokens,
            "velocity_forward": velocity_forward(z_t, np.array([0.3, 0.8]), cond, vel, flow_cfg),
            "visibility_logits": models.visibility_logits(z_t, head)}


def test_constant_parameters_build_no_tape_and_give_the_same_bytes(small_cfg, flow_cfg,
                                                                     monkeypatch):
    recorded = []
    real = gc.tensor._make
    monkeypatch.setattr(gc.tensor, "_make", lambda *args: recorded.append(args[3]) or real(*args))
    const = _network_outputs(small_cfg, flow_cfg, requires_grad=False)
    assert recorded == []
    taped = _network_outputs(small_cfg, flow_cfg, requires_grad=True)
    assert recorded
    for name, out in const.items():
        assert not out.requires_grad and out._parents == () and taped[name].requires_grad, name
        assert out.data.tobytes() == taped[name].data.tobytes(), name


def _cue(k_f):
    """A condition whose only field, the cue, is (1, k_f, 16, 8)."""
    return SimpleNamespace(cue=np.zeros((1, k_f, 16, 8)))


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: reparameterize(np.zeros(2), np.zeros(3), gc.rng(0)), gc.ShapeError,
                 "reparameterize: incompatible shapes (2,) vs (3,)", id="reparameterize"),
    pytest.param(lambda: vae_decode(np.zeros((1, 2, 15, 8)), {}, VaeConfig()), gc.ShapeError,
                 "vae_decode: incompatible shapes (1, 2, 15, 8) vs (16, 8)", id="vae_decode"),
    pytest.param(lambda: velocity_forward(np.zeros((1, 2, 15, 8)), 0.5, _cue(2), {},
                                          FlowConfig()), gc.ShapeError,
                 "velocity_forward: incompatible shapes (1, 2, 15, 8) vs (16, 8)",
                 id="velocity_forward-tokens"),
    pytest.param(lambda: velocity_forward(np.zeros((1, 2, 16, 8)), 0.5, _cue(3), {},
                                          FlowConfig()), gc.ShapeError,
                 "velocity_forward: incompatible shapes (1, 2, 16, 8) vs (1, 3, 16, 8)",
                 id="velocity_forward-cue"),
    pytest.param(lambda: velocity_forward(np.zeros((1, 2, 16, 8)), np.zeros(3), _cue(2), {},
                                          FlowConfig()), gc.ShapeError,
                 "velocity_forward: incompatible shapes (3,) vs (1,)", id="velocity_forward-t"),
    pytest.param(lambda: pool_visibility(np.ones((1, 8, 32, 32)), VaeConfig(), reduce="sum"),
                 ValueError, "unknown reduce 'sum'", id="pool_visibility-reduce"),
])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
