import math
import re

import numpy as np
import pytest

from trajkit import gradcore as gc
from trajkit import lossbank as lb
from trajkit.models import VaeConfig
from trajkit.motionlab import toy_1d_pair


def _pair(seed=0, t=4, h=6, w=6, vis_p=1.0, residual_scale=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t, h, w, 2)) * 0.5
    xh = x + rng.normal(size=x.shape) * residual_scale
    m = (rng.random((t, h, w)) < vis_p).astype(np.uint8)
    if m.sum() == 0:
        m[0, 0, 0] = 1
    return x[None], xh[None], m[None]  # target, recon, mask: a batch of one


class TestReconLoss:
    def test_exact_reconstruction_is_zero(self):
        target, _, mask = _pair()
        assert float(lb.recon_loss(target, target.copy(), mask)) == 0.0

    def test_uniform_half_residual_quadratic_branch(self):
        x = np.zeros((1, 2, 3, 3, 2))
        xh = np.full_like(x, 0.5)
        m = np.ones((1, 2, 3, 3))
        # Two channels, each 0.5^2 / 2 = 0.125, summed -> 0.25.
        assert float(lb.recon_loss(x, xh, m)) == pytest.approx(0.25)

    def test_invisible_residual_ignored(self):
        x = np.zeros((1, 2, 3, 3, 2))
        xh = x.copy()
        m = np.ones((1, 2, 3, 3))
        m[0, 1] = 0
        xh[0, 1] += 7.0  # only on invisible frames
        assert float(lb.recon_loss(x, xh, m)) == 0.0

    def test_all_invisible_raises(self):
        with pytest.raises(ValueError):
            lb.recon_loss(np.zeros((1, 2, 2, 2, 2)), np.zeros((1, 2, 2, 2, 2)),
                          np.zeros((1, 2, 2, 2)))

    def test_linear_branch_engages_beyond_delta(self):
        x = np.zeros((1, 1, 1, 1, 2))
        xh = np.full_like(x, 2.0)
        m = np.ones((1, 1, 1, 1))
        # per channel: delta*(|r|-delta/2) = 1*(2-0.5) = 1.5; two channels.
        assert lb.HUBER_DELTA == 1.0
        assert float(lb.recon_loss(x, xh, m)) == pytest.approx(2 * 1.0 * (2.0 - 0.5))


class TestTemporalLoss:
    def test_exact_static_zero(self):
        x = np.zeros((1, 4, 3, 3, 2))
        assert float(lb.temporal_loss(x, x.copy(), np.ones((1, 4, 3, 3)))) == 0.0

    def test_toy_jitter_closed_form(self):
        gt, smooth, jitter, mask = (a[None] for a in toy_1d_pair(0.1, 8))
        assert float(lb.temporal_loss(gt, smooth, mask)) == pytest.approx(0.0, abs=1e-15)
        assert float(lb.temporal_loss(gt, jitter, mask)) == pytest.approx(0.2, abs=1e-12)

    def test_constant_offset_cancels(self):
        target, _, mask = _pair(seed=1)
        shifted = target + np.array([0.3, -0.7])
        assert float(lb.temporal_loss(target, shifted, mask)) == pytest.approx(0.0, abs=1e-14)

    def test_no_valid_pair_raises(self):
        m = np.zeros((1, 3, 2, 2))
        m[0, 0] = 1  # visible only in one frame: no consecutive pair
        with pytest.raises(ValueError):
            lb.temporal_loss(np.zeros((1, 3, 2, 2, 2)), np.zeros((1, 3, 2, 2, 2)), m)


def spatial_brute_force(x, xh, m, hops, alphas):
    """Independent double-loop evaluation of the neighbor-mismatch loss."""
    t_n, h_n, w_n, _ = x.shape
    total, norm = 0.0, 0.0
    for hop, alpha in zip(hops, alphas):
        num, den = 0.0, 0
        for t in range(t_n):
            for i in range(h_n):
                for j in range(w_n):
                    if j + hop < w_n and m[t, i, j] and m[t, i, j + hop]:
                        dt = x[t, i, j + hop] - x[t, i, j]
                        dr = xh[t, i, j + hop] - xh[t, i, j]
                        num += np.abs(dr - dt).sum()
                        den += 1
                    if i + hop < h_n and m[t, i, j] and m[t, i + hop, j]:
                        dt = x[t, i + hop, j] - x[t, i, j]
                        dr = xh[t, i + hop, j] - xh[t, i, j]
                        num += np.abs(dr - dt).sum()
                        den += 1
        if den > 0:
            total += alpha * num / den
            norm += alpha
    return total / norm


class TestSpatialLoss:
    def test_constant_field_shift_is_zero(self):
        target, _, mask = _pair(seed=2)
        shifted = target + np.array([0.2, 0.4])
        assert float(lb.spatial_loss(target, shifted, mask)) == pytest.approx(0.0, abs=1e-14)

    def test_perfect_reconstruction_zero(self):
        target, _, mask = _pair(seed=3)
        assert float(lb.spatial_loss(target, target.copy(), mask)) == 0.0

    def test_single_point_perturbation_matches_brute_force(self):
        x = np.zeros((2, 6, 6, 2))
        xh = x.copy()
        xh[1, 3, 3] += np.array([0.25, -0.1])
        m = np.ones((2, 6, 6))
        spec = lb.NeighborSpec()
        got = float(lb.spatial_loss(x[None], xh[None], m[None], spec))
        want = spatial_brute_force(x, xh, m, spec.hops, spec.hop_weights)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_fields_match_brute_force(self, seed):
        target, recon, mask = _pair(seed=seed, vis_p=0.8)
        spec = lb.NeighborSpec()
        got = float(lb.spatial_loss(target, recon, mask, spec))
        want = spatial_brute_force(target[0], recon[0], mask[0], spec.hops, spec.hop_weights)
        assert got == pytest.approx(want, rel=1e-12)

    def test_small_grid_drops_oversized_hop(self):
        # 2x2 grid: only hop 1 has pairs; value must renormalize over hop 1 alone.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2, 2, 2))
        xh = x + rng.normal(size=x.shape) * 0.1
        m = np.ones((2, 2, 2))
        spec = lb.NeighborSpec()
        got = float(lb.spatial_loss(x[None], xh[None], m[None], spec))
        want = spatial_brute_force(x, xh, m, spec.hops, spec.hop_weights)
        assert got == pytest.approx(want, rel=1e-12)

    def test_all_hops_empty_raises(self):
        m = np.zeros((1, 1, 6, 6))
        m[0, 0, 0, 0] = 1  # a visible point with no visible neighbor
        with pytest.raises(ValueError):
            lb.spatial_loss(np.zeros((1, 1, 6, 6, 2)), np.zeros((1, 1, 6, 6, 2)), m)


def _st_regularizer(target, recon, mask, lambda_temporal=0.1, lambda_spatial=0.2):
    """The weighted consistency terms, summed: the VAE objective's regularizer."""
    w_tmp, w_sp, _, _ = lb.consistency_terms(target, recon, mask, None, lambda_temporal,
                                             lambda_spatial)
    return float(gc.add(w_tmp, w_sp))


class TestStRegularizer:
    def test_zero_components(self):
        x = np.zeros((1, 3, 4, 4, 2))
        assert _st_regularizer(x, x.copy(), np.ones((1, 3, 4, 4))) == 0.0

    def test_zero_lambdas(self):
        p = _pair(seed=6)
        assert _st_regularizer(*p, lambda_temporal=0.0, lambda_spatial=0.0) == 0.0

    def test_terms_are_weighted_losses(self):
        p = _pair(seed=7)
        w_tmp, w_sp, l_tmp, l_sp = lb.consistency_terms(*p, None, 0.1, 0.2)
        assert float(l_tmp) == float(lb.temporal_loss(*p))
        assert float(l_sp) == float(lb.spatial_loss(*p))
        assert float(w_tmp) == 0.1 * float(l_tmp) and float(w_sp) == 0.2 * float(l_sp)

    def test_zero_weight_skips_its_loss(self):
        # one frame: temporal_loss would raise, so a zero weight must not evaluate it
        p = _pair(seed=8, t=1)
        w_tmp, w_sp, l_tmp, l_sp = lb.consistency_terms(*p, None, 0.0, 0.2)
        assert float(w_tmp) == 0.0 and float(l_tmp) == 0.0
        assert float(l_sp) == float(lb.spatial_loss(*p))

    @pytest.mark.parametrize("b", [0.05, 0.1, 0.2])
    def test_toy_separates_smooth_from_jitter(self, b):
        gt, smooth, jitter, mask = (a[None] for a in toy_1d_pair(b, 8))
        rec_s = float(lb.recon_loss(gt, smooth, mask))
        rec_j = float(lb.recon_loss(gt, jitter, mask))
        assert rec_s == pytest.approx(rec_j, abs=1e-12)
        st_s = _st_regularizer(gt, smooth, mask)
        st_j = _st_regularizer(gt, jitter, mask)
        assert st_j > st_s
        assert st_j - st_s == pytest.approx(0.1 * 2 * b, abs=1e-9)


def _masked_batch(seed=12):
    """target, recon and a bool mask: a batch of two with about 30% hidden."""
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(2, 4, 6, 6, 2)) * 0.5
    recon = target + rng.normal(size=target.shape) * 0.3
    return target, recon, rng.random((2, 4, 6, 6)) < 0.7


MASKED_LOSSES = {
    "recon_loss": lb.recon_loss,
    "temporal_loss": lb.temporal_loss,
    "spatial_loss": lb.spatial_loss,
    "consistency_terms": lambda t, r, m: gc.add(*lb.consistency_terms(t, r, m, None, 0.1, 0.2)[:2]),
}


def _value_and_grad(name, target, recon, mask):
    value, (g,) = gc.grad(lambda r: MASKED_LOSSES[name](target, r, mask), [recon])
    return value, g


class TestBoolMask:
    """A 0/1 mask of any dtype reaches the consistency losses as bool."""

    @pytest.mark.parametrize("name", MASKED_LOSSES)
    def test_bool_mask_bytes_equal_its_float_copy(self, name, monkeypatch):
        target, recon, mask = _masked_batch()
        weights, shift_l1 = [], gc.shift_l1

        def spy(*args):
            weights.append(args[4].dtype)
            return shift_l1(*args)

        monkeypatch.setattr(gc, "shift_l1", spy)
        v_bool, g_bool = _value_and_grad(name, target, recon, mask)
        for dtype in (np.uint8, np.float64):
            value, g = _value_and_grad(name, target, recon, mask.astype(dtype))
            assert value.hex() == v_bool.hex() and g.tobytes() == g_bool.tobytes()
        assert set(weights) == (set() if name == "recon_loss" else {np.dtype(bool)})

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
    @pytest.mark.parametrize("name", MASKED_LOSSES)
    def test_mask_entry_other_than_0_or_1_names_the_loss(self, name, value):
        target, recon, mask = _masked_batch()
        mask = mask.astype(np.float64)
        mask[1, 2, 3, 4] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{name}: visibility {value} at segment 1, frame 2, row 3, column 4 "
                "is not 0 or 1")):
            MASKED_LOSSES[name](target, recon, mask)

    def test_bool_mask_without_batch_axis_names_the_loss(self):
        target, recon, mask = _masked_batch()
        with pytest.raises(gc.ShapeError, match="^temporal_loss: "):
            lb.temporal_loss(target, recon, mask[0])


class TestKlLoss:
    def test_standard_normal_is_zero(self):
        assert float(lb.kl_loss(np.zeros((3, 4)), np.zeros((3, 4)))) == 0.0

    def test_unit_mean_half(self):
        assert float(lb.kl_loss(np.ones((2, 2)), np.zeros((2, 2)))) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        val = float(lb.kl_loss(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))))
        assert val >= 0.0


class TestTokenWeights:
    CFG = VaeConfig(height=8, width=8, frames=4, patch=4, temporal_ratio=2)  # 2x2 tokens

    def test_all_visible_uniform(self):
        tw = lb.token_weights(np.ones((1, 4, 8, 8)), self.CFG, 0.01)
        assert np.allclose(tw, 1.0 / 8)

    def test_all_invisible_uniform(self):
        tw = lb.token_weights(np.zeros((1, 4, 8, 8)), self.CFG, 0.01)
        assert np.allclose(tw, 1.0 / 8)

    def test_half_visible_ratio(self):
        m = np.zeros((1, 2, 4, 4))
        m[..., :2] = 1  # left half visible
        cfg = VaeConfig(height=4, width=4, frames=2, patch=2, temporal_ratio=2)
        tw = lb.token_weights(m, cfg, floor=0.01)
        flat = tw.reshape(-1)
        assert flat[0] / flat[1] == pytest.approx(100.0)
        assert tw.sum() == pytest.approx(1.0)

    def test_mask_of_another_frame_size_rejected(self):
        with pytest.raises(ValueError, match="^pool_visibility: "):
            lb.token_weights(np.ones((1, 2, 4, 4)), self.CFG, 0.01)


class TestFmLoss:
    def test_exact_zero(self):
        v = np.ones((1, 2, 4, 3))
        assert float(lb.fm_loss(v, v.copy(), np.full((1, 2, 4), 1.0 / 8))) == 0.0

    def test_constant_channel_error(self):
        u = np.zeros((1, 2, 4, 3))
        v = np.full_like(u, 0.5)
        assert float(lb.fm_loss(v, u, np.full((1, 2, 4), 1.0 / 8))) == pytest.approx(0.25)

    def test_zero_weight_token_excluded(self):
        u = np.zeros((1, 1, 2, 3))
        v = u.copy()
        v[0, 0, 1] = 5.0  # error only on the zero-weight token
        w = np.array([[[1.0, 0.0]]])
        assert float(lb.fm_loss(v, u, w)) == 0.0

    def test_weights_of_another_token_grid_name_weighted_sq(self):
        # the loss checks only the batch axis; the node checks the rest
        v = np.ones((1, 2, 4, 3))
        with pytest.raises(gc.ShapeError, match="^weighted_sq: "):
            lb.fm_loss(v, v.copy(), np.full((1, 2, 3), 1.0 / 6))


class TestKstepPieces:
    def test_on_path_targets_equal_straight_velocity(self):
        rng = np.random.default_rng(0)
        z0 = rng.normal(size=(2, 3, 4))
        z1 = rng.normal(size=(2, 3, 4))
        t = 0.4
        z_t = (1 - t) * z0 + t * z1
        v1, v0 = lb.kstep_targets(z_t, z0, z1, t)
        assert np.allclose(v1, z1 - z0, atol=1e-12)
        assert np.allclose(v0, z1 - z0, atol=1e-12)

    def test_target_at_endpoint_is_zero(self):
        z0 = np.zeros((1, 2, 2))
        z1 = np.ones((1, 2, 2))
        v1, _ = lb.kstep_targets(z1.copy(), z0, z1, 0.5)
        assert np.all(v1 == 0.0)

    def test_denominator_clamped_near_zero_time(self):
        z0 = np.zeros((1, 1, 1))
        z1 = np.ones((1, 1, 1))
        z_t = np.full((1, 1, 1), 0.002)
        _, v0 = lb.kstep_targets(z_t, z0, z1, 1e-6)
        assert lb.DENOM_CLAMP == 1e-3
        assert v0[0, 0, 0] == pytest.approx(0.002 / 1e-3)

    def test_kstep_loss_zero_on_straight_path(self):
        rng = np.random.default_rng(1)
        z0 = rng.normal(size=(1, 2, 3, 4))
        z1 = rng.normal(size=(1, 2, 3, 4))
        u = z1 - z0
        times = [0.2, 0.5, 0.8]
        velocities = [gc.Tensor(u) for _ in times]
        targets = [lb.kstep_targets((1 - t) * z0 + t * z1, z0, z1, t) for t in times]
        w = np.full((1, 2, 3), 1.0 / 6)
        assert float(lb.kstep_loss(velocities, targets, w)) == pytest.approx(0.0, abs=1e-24)

    def test_kstep_loss_zero_weights(self):
        v = [gc.Tensor(np.ones((1, 1, 2, 2)))]
        targets = [(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2)))]
        w = np.full((1, 1, 2), 0.5)
        assert float(lb.kstep_loss(v, targets, w, w1=0.0, w0=0.0)) == 0.0

    def test_kstep_loss_single_step_hand_value(self):
        v = [gc.Tensor(np.full((1, 1, 1, 2), 1.0))]
        v1 = np.full((1, 1, 1, 2), 0.5)
        v0 = np.full((1, 1, 1, 2), 2.0)
        w = np.ones((1, 1, 1))
        # w1 * (1/C)*1*(2*0.25) + w0 * (1/C)*1*(2*1.0) with C=2.
        want = 1.0 * 0.25 + 0.5 * 1.0
        assert float(lb.kstep_loss(v, [(v1, v0)], w)) == pytest.approx(want)

    def test_mismatched_step_counts_raise(self):
        with pytest.raises(ValueError):
            lb.kstep_loss([gc.Tensor(np.ones((1, 1, 1, 1)))], [], np.ones((1, 1, 1)))


class TestEndpointConsistency:
    def test_exact_linear_field_zero(self):
        rng = np.random.default_rng(2)
        z0 = rng.normal(size=(1, 1, 2, 3))
        z1 = rng.normal(size=(1, 1, 2, 3))
        u = z1 - z0
        times = [0.1, 0.4, 0.7]
        states = [(1 - t) * z0 + t * z1 for t in times]
        velocities = [gc.Tensor(u) for _ in times]
        val = float(lb.endpoint_consistency(states, velocities, times))
        assert val == pytest.approx(0.0, abs=1e-24)

    def test_constant_velocity_offset_matches_direct_evaluation(self):
        rng = np.random.default_rng(3)
        z0 = rng.normal(size=(1, 1, 2, 3))
        z1 = rng.normal(size=(1, 1, 2, 3))
        c = 0.3
        u = z1 - z0 + c
        times = [0.1, 0.5, 0.9]
        states = [z0.copy()]
        for i in range(2):
            states.append(states[-1] + (times[i + 1] - times[i]) * u)
        velocities = [gc.Tensor(u) for _ in times]
        got = float(lb.endpoint_consistency(states, velocities, times))
        # Direct evaluation of the drift of implied endpoints.
        want = 0.0
        k, n, ch = 2, 3, 1
        prev1 = states[0] + (1 - times[0]) * u
        prev0 = states[0] - times[0] * u
        for i in range(1, 3):
            cur1 = states[i] + (1 - times[i]) * u
            cur0 = states[i] - times[i] * u
            want += np.mean(np.sum((cur1 - prev1) ** 2, axis=-1)) / z0.shape[-1] * 1.0
            want += np.mean(np.sum((cur0 - prev0) ** 2, axis=-1)) / z0.shape[-1]
            prev1, prev0 = cur1, cur0
        want /= 2
        assert got == pytest.approx(want, rel=1e-12)

    def test_builds_no_dead_nodes(self, monkeypatch):
        # Step 0's endpoints are only ever detached, so no gradient-carrying
        # node may be built for them: every one must lie on the loss's tape.
        from trajkit.gradcore import tensor
        made, real = [], tensor._make

        def recording(*args):
            out = real(*args)
            if out.requires_grad:
                made.append(out)
            return out

        monkeypatch.setattr(tensor, "_make", recording)
        rng = np.random.default_rng(5)
        times = [0.2, 0.5, 0.8]
        states = [rng.normal(size=(1, 2, 2, 3)) for _ in times]
        velocities = [gc.Tensor(rng.normal(size=(1, 2, 2, 3)), requires_grad=True)
                      for _ in times]
        out = lb.endpoint_consistency(states, velocities, times)
        on_tape, stack = set(), [out]
        while stack:
            node = stack.pop()
            if id(node) not in on_tape:
                on_tape.add(id(node))
                stack.extend(p for p in node._parents if p.requires_grad)
        assert made and all(id(node) in on_tape for node in made)

    def test_single_step_raises(self):
        with pytest.raises(ValueError):
            lb.endpoint_consistency([np.zeros((1, 1, 1, 1))], [gc.Tensor(np.zeros((1, 1, 1, 1)))],
                                    [0.5])


class TestBceLogits:
    def test_logit_zero_target_half(self):
        val = float(lb.bce_logits(np.zeros((3, 3)), np.full((3, 3), 0.5)))
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_positive(self):
        val = float(lb.bce_logits(np.full((2, 2), 20.0), np.ones((2, 2))))
        assert val < 1e-8

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 5)) * 2
        targets = rng.random((4, 5))
        sig = 1 / (1 + np.exp(-logits))
        naive = -np.mean(targets * np.log(sig) + (1 - targets) * np.log(1 - sig))
        assert float(lb.bce_logits(logits, targets)) == pytest.approx(naive, abs=1e-9)


class TestInvariances:
    def test_losses_blind_to_invisible_perturbations(self):
        target, recon, mask = _pair(seed=7, vis_p=0.7)
        tweaked = np.array(recon, copy=True)
        tweaked[mask == 0] += 50.0
        for fn in (lb.recon_loss, lb.temporal_loss, lb.spatial_loss):
            base = float(fn(target, recon, mask))
            pert = float(fn(target, tweaked, mask))
            # Temporal/spatial pairs touching an invisible endpoint are masked out.
            assert base == pytest.approx(pert, abs=1e-12)

    def test_difference_losses_shift_invariant_both_fields(self):
        target, recon, mask = _pair(seed=8)
        shift = np.array([1.5, -2.0])
        a = float(lb.temporal_loss(target, recon, mask))
        b = float(lb.temporal_loss(target + shift, recon + shift, mask))
        assert a == pytest.approx(b, abs=1e-12)
        a = float(lb.spatial_loss(target, recon, mask))
        b = float(lb.spatial_loss(target + shift, recon + shift, mask))
        assert a == pytest.approx(b, abs=1e-12)


class TestGradCheck:
    @pytest.mark.parametrize("seed", range(3))
    def test_losses_differentiate_cleanly(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 3, 4, 4, 2)) * 0.5
        m = np.ones((1, 3, 4, 4))
        sign = rng.choice([-1.0, 1.0], size=x.shape)
        xh0 = x + sign * (0.05 + 0.4 * rng.random(x.shape))

        def recon(xh):
            return lb.recon_loss(x, xh, m)

        def temporal(xh):
            return lb.temporal_loss(x, xh, m)

        def spatial(xh):
            return lb.spatial_loss(x, xh, m)

        for fn in (recon, temporal, spatial):
            assert gc.grad_check(fn, [xh0]) < 1e-4

        mu = rng.normal(size=(2, 3, 4)) * 0.5
        lv = rng.normal(size=(2, 3, 4)) * 0.5
        assert gc.grad_check(lambda a, b: lb.kl_loss(a, b), [mu, lv]) < 1e-4

        u = rng.normal(size=(1, 2, 4, 3))
        v = u + rng.normal(size=u.shape) * 0.3
        w = np.full((1, 2, 4), 1.0 / 8)
        assert gc.grad_check(lambda vv: lb.fm_loss(vv, u, w), [v]) < 1e-4

        logits = rng.normal(size=(3, 4))
        targets = rng.random((3, 4))
        assert gc.grad_check(lambda l: lb.bce_logits(l, targets), [logits]) < 1e-4

    def test_masked_batch_differentiates_cleanly(self):
        # instance 1 hides row 0 and column 0 of a 5x5 frame, so hop 4 has
        # no valid pair there and drops out of that instance's normalizer
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 5, 5, 2)) * 0.5
        sign = rng.choice([-1.0, 1.0], size=x.shape)
        xh0 = x + sign * (0.05 + 0.4 * rng.random(x.shape))
        m = np.ones((2, 3, 5, 5))
        m[0][rng.random((3, 5, 5)) < 0.3] = 0
        m[1, :, 0, :] = 0
        m[1, :, :, 0] = 0
        spec = lb.NeighborSpec()
        hop4 = [m[1, :, 4:] * m[1, :, :-4], m[1, :, :, 4:] * m[1, :, :, :-4]]
        assert sum(p.sum() for p in hop4) == 0
        for fn in (lambda xh: lb.temporal_loss(x, xh, m),
                   lambda xh: lb.spatial_loss(x, xh, m, spec),
                   lambda xh: gc.add(*lb.consistency_terms(x, xh, m, spec, 0.7, 1.3)[:2])):
            assert gc.grad_check(fn, [xh0]) < 1e-4


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: lb.temporal_loss(*_pair_of_frames(1)), ValueError,
                 "temporal_loss: need at least 2 frames", id="temporal-one-frame"),
    pytest.param(lambda: lb.kl_loss(np.zeros(2), np.zeros(3)), gc.ShapeError,
                 "kl_loss: incompatible shapes (2,) vs (3,)", id="kl-shapes"),
    pytest.param(lambda: lb.bce_logits(np.zeros(2), np.zeros(3)), gc.ShapeError,
                 "bce_logits: incompatible shapes (2,) vs (3,)", id="bce-shapes"),
    pytest.param(lambda: lb.bce_logits(np.zeros(2), np.array([0.5, 1.5])), ValueError,
                 "bce_logits: targets must lie in [0, 1]", id="bce-target-range"),
    pytest.param(lambda: lb.token_weights(np.zeros((1, 8, 32, 32)), VaeConfig(), 0.0), ValueError,
                 "token_weights: all token weights zero (floor=0 and fully invisible)",
                 id="token-weights-all-zero"),
    pytest.param(lambda: lb.endpoint_consistency([np.zeros((1, 1, 1, 1))],
                                                 [np.zeros((1, 1, 1, 1))] * 2, [0.0, 0.5]),
                 ValueError,
                 "endpoint_consistency: states/times shorter than velocities",
                 id="endpoint-short-states"),
])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def _pair_of_frames(frames):
    """target, recon and mask of one visible segment with `frames` frames."""
    x = np.zeros((1, frames, 2, 2, 2))
    return x, x.copy(), np.ones((1, frames, 2, 2))
