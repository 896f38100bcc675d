import math

import numpy as np
import pytest

from trajkit import gradcore as gc
from trajkit import lossbank as lb
from trajkit.motionlab import toy_1d_pair


def _pair(seed=0, t=4, h=6, w=6, vis_p=1.0, residual_scale=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t, h, w, 2)) * 0.5
    xh = x + rng.normal(size=x.shape) * residual_scale
    m = (rng.random((t, h, w)) < vis_p).astype(np.uint8)
    if m.sum() == 0:
        m[0, 0, 0] = 1
    return lb.SegmentPair(x, xh, m)


class TestReconLoss:
    def test_exact_reconstruction_is_zero(self):
        p = _pair()
        assert float(lb.recon_loss(lb.SegmentPair(p.target, p.target.copy(), p.mask))) == 0.0

    def test_uniform_half_residual_quadratic_branch(self):
        x = np.zeros((2, 3, 3, 2))
        xh = np.full_like(x, 0.5)
        m = np.ones((2, 3, 3))
        # Two channels, each 0.5^2 / 2 = 0.125, summed -> 0.25.
        assert float(lb.recon_loss(lb.SegmentPair(x, xh, m), huber_delta=1.0)) == pytest.approx(0.25)

    def test_invisible_residual_ignored(self):
        x = np.zeros((2, 3, 3, 2))
        xh = x.copy()
        m = np.ones((2, 3, 3))
        m[1] = 0
        xh[1] += 7.0  # only on invisible frames
        assert float(lb.recon_loss(lb.SegmentPair(x, xh, m))) == 0.0

    def test_all_invisible_raises(self):
        with pytest.raises(ValueError):
            lb.recon_loss(lb.SegmentPair(np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 2)),
                                         np.zeros((2, 2, 2))))

    def test_linear_branch_engages_beyond_delta(self):
        x = np.zeros((1, 1, 1, 2))
        xh = np.full_like(x, 2.0)
        m = np.ones((1, 1, 1))
        # per channel: delta*(|r|-delta/2) = 0.5*(2-0.25) = 0.875; two channels.
        val = float(lb.recon_loss(lb.SegmentPair(x, xh, m), huber_delta=0.5))
        assert val == pytest.approx(2 * 0.5 * (2.0 - 0.25))


class TestTemporalLoss:
    def test_exact_static_zero(self):
        x = np.zeros((4, 3, 3, 2))
        assert float(lb.temporal_loss(lb.SegmentPair(x, x.copy(), np.ones((4, 3, 3))))) == 0.0

    def test_toy_jitter_closed_form(self):
        gt, smooth, jitter, mask = toy_1d_pair(0.1, 8)
        assert float(lb.temporal_loss(lb.SegmentPair(gt, smooth, mask))) == pytest.approx(0.0, abs=1e-15)
        assert float(lb.temporal_loss(lb.SegmentPair(gt, jitter, mask))) == pytest.approx(0.2, abs=1e-12)

    def test_constant_offset_cancels(self):
        p = _pair(seed=1)
        shifted = p.target + np.array([0.3, -0.7])
        assert float(lb.temporal_loss(lb.SegmentPair(p.target, shifted, p.mask))) == pytest.approx(0.0, abs=1e-14)

    def test_no_valid_pair_raises(self):
        m = np.zeros((3, 2, 2))
        m[0] = 1  # visible only in one frame: no consecutive pair
        with pytest.raises(ValueError):
            lb.temporal_loss(lb.SegmentPair(np.zeros((3, 2, 2, 2)), np.zeros((3, 2, 2, 2)), m))


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
        p = _pair(seed=2)
        shifted = p.target + np.array([0.2, 0.4])
        assert float(lb.spatial_loss(lb.SegmentPair(p.target, shifted, p.mask))) == pytest.approx(0.0, abs=1e-14)

    def test_perfect_reconstruction_zero(self):
        p = _pair(seed=3)
        assert float(lb.spatial_loss(lb.SegmentPair(p.target, p.target.copy(), p.mask))) == 0.0

    def test_single_point_perturbation_matches_brute_force(self):
        x = np.zeros((2, 6, 6, 2))
        xh = x.copy()
        xh[1, 3, 3] += np.array([0.25, -0.1])
        m = np.ones((2, 6, 6))
        spec = lb.NeighborSpec()
        got = float(lb.spatial_loss(lb.SegmentPair(x, xh, m), spec))
        want = spatial_brute_force(x, xh, m, spec.hops, spec.weights)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_fields_match_brute_force(self, seed):
        p = _pair(seed=seed, vis_p=0.8)
        spec = lb.NeighborSpec()
        got = float(lb.spatial_loss(p, spec))
        want = spatial_brute_force(p.target, p.recon, p.mask, spec.hops, spec.weights)
        assert got == pytest.approx(want, rel=1e-12)

    def test_small_grid_drops_oversized_hop(self):
        # 2x2 grid: only hop 1 has pairs; value must renormalize over hop 1 alone.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2, 2, 2))
        xh = x + rng.normal(size=x.shape) * 0.1
        m = np.ones((2, 2, 2))
        spec = lb.NeighborSpec()
        got = float(lb.spatial_loss(lb.SegmentPair(x, xh, m), spec))
        want = spatial_brute_force(x, xh, m, spec.hops, spec.weights)
        assert got == pytest.approx(want, rel=1e-12)

    def test_all_hops_empty_raises(self):
        m = np.zeros((1, 6, 6))
        m[0, 0, 0] = 1  # a visible point with no visible neighbor
        with pytest.raises(ValueError):
            lb.spatial_loss(lb.SegmentPair(np.zeros((1, 6, 6, 2)), np.zeros((1, 6, 6, 2)), m))


def _st_regularizer(pair, lambda_temporal=0.1, lambda_spatial=0.2):
    """The weighted consistency terms, summed: the VAE objective's regularizer."""
    w_tmp, w_sp, _, _ = lb.consistency_terms(pair, None, lambda_temporal, lambda_spatial)
    return float(gc.add(w_tmp, w_sp))


class TestStRegularizer:
    def test_zero_components(self):
        x = np.zeros((3, 4, 4, 2))
        assert _st_regularizer(lb.SegmentPair(x, x.copy(), np.ones((3, 4, 4)))) == 0.0

    def test_zero_lambdas(self):
        p = _pair(seed=6)
        assert _st_regularizer(p, lambda_temporal=0.0, lambda_spatial=0.0) == 0.0

    def test_terms_are_weighted_losses(self):
        p = _pair(seed=7)
        w_tmp, w_sp, l_tmp, l_sp = lb.consistency_terms(p, None, 0.1, 0.2)
        assert float(l_tmp) == float(lb.temporal_loss(p))
        assert float(l_sp) == float(lb.spatial_loss(p))
        assert float(w_tmp) == 0.1 * float(l_tmp) and float(w_sp) == 0.2 * float(l_sp)

    def test_zero_weight_skips_its_loss(self):
        # one frame: temporal_loss would raise, so a zero weight must not evaluate it
        p = _pair(seed=8, t=1)
        w_tmp, w_sp, l_tmp, l_sp = lb.consistency_terms(p, None, 0.0, 0.2)
        assert float(w_tmp) == 0.0 and float(l_tmp) == 0.0
        assert float(l_sp) == float(lb.spatial_loss(p))

    @pytest.mark.parametrize("b", [0.05, 0.1, 0.2])
    def test_toy_separates_smooth_from_jitter(self, b):
        gt, smooth, jitter, mask = toy_1d_pair(b, 8)
        rec_s = float(lb.recon_loss(lb.SegmentPair(gt, smooth, mask)))
        rec_j = float(lb.recon_loss(lb.SegmentPair(gt, jitter, mask)))
        assert rec_s == pytest.approx(rec_j, abs=1e-12)
        st_s = _st_regularizer(lb.SegmentPair(gt, smooth, mask))
        st_j = _st_regularizer(lb.SegmentPair(gt, jitter, mask))
        assert st_j > st_s
        assert st_j - st_s == pytest.approx(0.1 * 2 * b, abs=1e-9)


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
    def test_all_visible_uniform(self):
        tw = lb.token_weights(np.ones((4, 8, 8)), (2, 2, 2), ratio=2)
        assert np.allclose(tw, 1.0 / 8)

    def test_all_invisible_uniform(self):
        tw = lb.token_weights(np.zeros((4, 8, 8)), (2, 2, 2), ratio=2)
        assert np.allclose(tw, 1.0 / 8)

    def test_half_visible_ratio(self):
        m = np.zeros((2, 4, 4))
        m[:, :, :2] = 1  # left half visible
        tw = lb.token_weights(m, (1, 2, 2), floor=0.01, ratio=2)
        flat = tw.reshape(-1)
        assert flat[0] / flat[1] == pytest.approx(100.0)
        assert tw.sum() == pytest.approx(1.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lb.token_weights(np.ones((2, 4, 4)), (1, 0, 2), ratio=2)


class TestFmLoss:
    def test_exact_zero(self):
        v = np.ones((2, 4, 3))
        assert float(lb.fm_loss(v, v.copy(), np.full((2, 4), 1.0 / 8))) == 0.0

    def test_constant_channel_error(self):
        u = np.zeros((2, 4, 3))
        v = np.full_like(u, 0.5)
        assert float(lb.fm_loss(v, u, np.full((2, 4), 1.0 / 8))) == pytest.approx(0.25)

    def test_zero_weight_token_excluded(self):
        u = np.zeros((1, 2, 3))
        v = u.copy()
        v[0, 1] = 5.0  # error only on the zero-weight token
        w = np.array([[1.0, 0.0]])
        assert float(lb.fm_loss(v, u, w)) == 0.0


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
        _, v0 = lb.kstep_targets(z_t, z0, z1, 1e-6, denom_clamp=1e-3)
        assert v0[0, 0, 0] == pytest.approx(0.002 / 1e-3)

    def test_kstep_loss_zero_on_straight_path(self):
        rng = np.random.default_rng(1)
        z0 = rng.normal(size=(2, 3, 4))
        z1 = rng.normal(size=(2, 3, 4))
        u = z1 - z0
        times = [0.2, 0.5, 0.8]
        velocities = [gc.Tensor(u) for _ in times]
        targets = [lb.kstep_targets((1 - t) * z0 + t * z1, z0, z1, t) for t in times]
        w = np.full((2, 3), 1.0 / 6)
        assert float(lb.kstep_loss(velocities, targets, w)) == pytest.approx(0.0, abs=1e-24)

    def test_kstep_loss_zero_weights(self):
        v = [gc.Tensor(np.ones((1, 2, 2)))]
        targets = [(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))]
        w = np.full((1, 2), 0.5)
        assert float(lb.kstep_loss(v, targets, w, w1=0.0, w0=0.0)) == 0.0

    def test_kstep_loss_single_step_hand_value(self):
        v = [gc.Tensor(np.full((1, 1, 2), 1.0))]
        v1 = np.full((1, 1, 2), 0.5)
        v0 = np.full((1, 1, 2), 2.0)
        w = np.ones((1, 1))
        # w1 * (1/C)*1*(2*0.25) + w0 * (1/C)*1*(2*1.0) with C=2.
        want = 1.0 * 0.25 + 0.5 * 1.0
        assert float(lb.kstep_loss(v, [(v1, v0)], w)) == pytest.approx(want)

    def test_mismatched_step_counts_raise(self):
        with pytest.raises(ValueError):
            lb.kstep_loss([gc.Tensor(np.ones((1, 1, 1)))], [], np.ones((1, 1)))


class TestEndpointConsistency:
    def test_exact_linear_field_zero(self):
        rng = np.random.default_rng(2)
        z0 = rng.normal(size=(1, 2, 3))
        z1 = rng.normal(size=(1, 2, 3))
        u = z1 - z0
        times = [0.1, 0.4, 0.7]
        states = [(1 - t) * z0 + t * z1 for t in times]
        velocities = [gc.Tensor(u) for _ in times]
        val = float(lb.endpoint_consistency(states, velocities, times))
        assert val == pytest.approx(0.0, abs=1e-24)

    def test_constant_velocity_offset_matches_direct_evaluation(self):
        rng = np.random.default_rng(3)
        z0 = rng.normal(size=(1, 2, 3))
        z1 = rng.normal(size=(1, 2, 3))
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
        states = [rng.normal(size=(2, 2, 3)) for _ in times]
        velocities = [gc.Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True) for _ in times]
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
            lb.endpoint_consistency([np.zeros((1, 1, 1))], [gc.Tensor(np.zeros((1, 1, 1)))], [0.5])


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
        p = _pair(seed=7, vis_p=0.7)
        tweaked = np.array(p.recon, copy=True)
        tweaked[p.mask == 0] += 50.0
        for fn in (lb.recon_loss, lb.temporal_loss, lb.spatial_loss):
            base = float(fn(lb.SegmentPair(p.target, p.recon, p.mask)))
            pert = float(fn(lb.SegmentPair(p.target, tweaked, p.mask)))
            # Temporal/spatial pairs touching an invisible endpoint are masked out.
            assert base == pytest.approx(pert, abs=1e-12)

    def test_difference_losses_shift_invariant_both_fields(self):
        p = _pair(seed=8)
        shift = np.array([1.5, -2.0])
        a = float(lb.temporal_loss(p))
        b = float(lb.temporal_loss(lb.SegmentPair(p.target + shift, p.recon + shift, p.mask)))
        assert a == pytest.approx(b, abs=1e-12)
        a = float(lb.spatial_loss(p))
        b = float(lb.spatial_loss(lb.SegmentPair(p.target + shift, p.recon + shift, p.mask)))
        assert a == pytest.approx(b, abs=1e-12)


class TestGradCheck:
    @pytest.mark.parametrize("seed", range(3))
    def test_losses_differentiate_cleanly(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4, 4, 2)) * 0.5
        m = np.ones((3, 4, 4))
        sign = rng.choice([-1.0, 1.0], size=x.shape)
        xh0 = x + sign * (0.05 + 0.4 * rng.random(x.shape))

        def recon(xh):
            return lb.recon_loss(lb.SegmentPair(x, xh, m))

        def temporal(xh):
            return lb.temporal_loss(lb.SegmentPair(x, xh, m))

        def spatial(xh):
            return lb.spatial_loss(lb.SegmentPair(x, xh, m))

        for fn in (recon, temporal, spatial):
            assert gc.grad_check(fn, [xh0]) < 1e-4

        mu = rng.normal(size=(2, 3, 4)) * 0.5
        lv = rng.normal(size=(2, 3, 4)) * 0.5
        assert gc.grad_check(lambda a, b: lb.kl_loss(a, b), [mu, lv]) < 1e-4

        u = rng.normal(size=(2, 4, 3))
        v = u + rng.normal(size=u.shape) * 0.3
        w = np.full((2, 4), 1.0 / 8)
        assert gc.grad_check(lambda vv: lb.fm_loss(vv, u, w), [v]) < 1e-4

        logits = rng.normal(size=(3, 4))
        targets = rng.random((3, 4))
        assert gc.grad_check(lambda l: lb.bce_logits(l, targets), [logits]) < 1e-4
