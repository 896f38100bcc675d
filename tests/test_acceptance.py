"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (run with -s to
see them inline).  The training-based criteria use fixed seeds and the desk
preset, so results are bit-reproducible; measured values land in
test-artifacts/acceptance_results.json for regression tracking.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from criteria import eval_fm_loss, vae_reconstruct
from reference_ops import matmul, square
from trajkit import flowgen, gradcore as gc, lossbank as lb, metrics, motionlab, scenes, tlf
from trajkit.cli import dispatch
from trajkit.config import RunConfig
from trajkit.flowgen import boundary_init, dopri5_sample, euler_sample, logit_grid
from trajkit.models import (
    FlowConfig,
    VaeConfig,
    encode_condition,
    history_cue,
    init_vae_params,
    init_velocity_params,
    init_visibility_params,
    pool_visibility,
    vae_decode,
    vae_encode,
    velocity_forward,
    visibility_logits,
    visibility_predict,
    wrap_params,
)

DESK = RunConfig.desk()
GEOM = DESK.geometry()
RESULTS: dict = {}
ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "test-artifacts"


def report(num: int, desc: str):
    """Context manager printing one pass/fail line per criterion."""
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\n[acceptance] criterion {num:02d} {status} - {desc}")
            _dump_results()
            return False

    return _Reporter()


def _dump_results():
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / "acceptance_results.json").write_text(
        json.dumps(RESULTS, indent=1, sort_keys=True, default=float) + "\n")


# -- shared heavy runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def vae_cfg():
    return DESK.vae_config()


@pytest.fixture(scope="module")
def flow_cfg():
    return DESK.flow_config()


@pytest.fixture(scope="module")
def vae_train_data():
    smooth = scenes.segment_dataset("smooth", 16, 100, GEOM, frames=GEOM.frames)
    jitter = scenes.segment_dataset("jitter", 8, 101, GEOM, frames=GEOM.frames)
    # split each 16-frame scene into two 8-frame training segments
    windows = [ds.split(8).windows() for ds in (smooth, jitter)]
    return flowgen.SegmentDataset(np.concatenate([w.segments for w in windows]),
                                  np.concatenate([w.masks for w in windows]))


@pytest.fixture(scope="module")
def vae_runs(vae_train_data):
    """The 500-step default run and its lambda=0 ablation (paired seed)."""
    default_cfg = DESK.vae_train_config()
    ablation_cfg = replace(default_cfg, lambda_temporal=0.0, lambda_spatial=0.0)
    params_d, curve_d = flowgen.train_vae(vae_train_data, default_cfg, seed=42)
    params_a, curve_a = flowgen.train_vae(vae_train_data, ablation_cfg, seed=42)
    return {"default": (params_d, curve_d), "ablation": (params_a, curve_a)}


@pytest.fixture(scope="module")
def flow_runs(vae_cfg, vae_runs):
    """1000-step flow pretraining plus 200-step on-policy fine-tuning."""
    vae_params = vae_runs["default"][0]
    pairs = scenes.pair_dataset("translation", 24, 300, GEOM)
    train_cfg = DESK.flow_train_config()
    init_bundle, _ = flowgen.train_flow(pairs, vae_params, vae_cfg,
                                        replace(train_cfg, steps=0), seed=43)
    bundle, curve = flowgen.train_flow(pairs, vae_params, vae_cfg, train_cfg, seed=43)
    ft_cfg = DESK.finetune_config()
    tuned, _ = flowgen.finetune_onpolicy(bundle, pairs, train_cfg, ft_cfg, seed=44)
    return {"pairs": pairs, "train_cfg": train_cfg, "init": init_bundle,
            "pretrained": bundle, "finetuned": tuned}


# -- evaluation helpers -----------------------------------------------------------


def eval_vepe_px(params, vae_cfg, dataset) -> float:
    from trajkit.trajfield import OffsetField, coarse_positions
    recon = vae_reconstruct(params, vae_cfg, dataset.segments)
    vals = []
    for i in range(len(dataset)):
        pred = OffsetField(recon[i], dataset.masks[i], GEOM.stride)
        gt = OffsetField(dataset.segments[i], dataset.masks[i], GEOM.stride)
        p_px, vis = coarse_positions(pred)
        g_px, _ = coarse_positions(gt)
        vals.append(metrics.vepe(p_px, g_px, vis))
    return float(np.mean(vals))


def eval_temporal(params, vae_cfg, dataset) -> float:
    recon = vae_reconstruct(params, vae_cfg, dataset.segments)
    vals = [float(lb.temporal_loss(dataset.segments[i:i + 1], recon[i:i + 1],
                                   dataset.masks[i:i + 1]))
            for i in range(len(dataset))]
    return float(np.mean(vals))


def mean_displacement_px(field) -> np.ndarray:
    from trajkit.trajfield import coarse_positions
    px, _ = coarse_positions(field)
    return (px[1:] - px[:-1]).mean(axis=(0, 1, 2))


def endpoint_latent_error(bundle, pairs, seed_base: int) -> float:
    z_p = flowgen.normalize_latents(
        flowgen.encode_mean(bundle.vae_params, bundle.vae_cfg, pairs.past), bundle.stats)
    z_f = flowgen.normalize_latents(
        flowgen.encode_mean(bundle.vae_params, bundle.vae_cfg, pairs.future), bundle.stats)
    vis_tok = pool_visibility(pairs.past_masks, bundle.vae_cfg, reduce="mean")
    wrapped = wrap_params(bundle.flow_params, requires_grad=False)
    errs = []
    for i in range(len(pairs)):
        rng = gc.rng(seed_base + i)
        z0 = boundary_init(z_p[i:i + 1, -1], bundle.flow_cfg, rng)
        cond = encode_condition(z_p[i:i + 1], vis_tok[i:i + 1], wrapped, bundle.flow_cfg)

        def v_fn(z, t):
            return velocity_forward(z, float(t), cond, wrapped, bundle.flow_cfg).data

        z1 = euler_sample(v_fn, z0, steps=10)
        errs.append(float(np.sqrt(np.mean((z1 - z_f[i:i + 1]) ** 2))))
    return float(np.mean(errs))


# -- criterion 1: gradient suite ---------------------------------------------------


def test_criterion_01_gradient_suite():
    with report(1, "losses and network forwards pass grad_check < 1e-4 over 10 seeds"):
        worst = 0.0
        tiny_vae = VaeConfig(height=8, width=8, frames=4, patch=4, hidden=16, blocks=1,
                             latent_channels=4, temporal_ratio=2)
        tiny_flow = FlowConfig(hidden=16, blocks=1, cond_hidden=8, time_features=4,
                               history_steps=2, future_steps=2, latent_channels=4,
                               n_tokens=4)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rngg = gc.rng(seed)
            x = rng.normal(size=(1, 3, 4, 4, 2)) * 0.5
            sign = rng.choice([-1.0, 1.0], size=x.shape)
            xh0 = x + sign * (0.05 + 0.4 * rng.random(x.shape))
            m = np.ones((1, 3, 4, 4))
            spec = lb.NeighborSpec()
            mu0 = rng.normal(size=(2, 4, 4)) * 0.5
            lv0 = rng.normal(size=(2, 4, 4)) * 0.5
            u = rng.normal(size=(1, 2, 4, 3))
            v0 = u + rng.normal(size=u.shape) * 0.3
            w = np.full((1, 2, 4), 1.0 / 8)
            logits0 = rng.normal(size=(3, 4))
            btargets = rng.random((3, 4))
            z0k = rng.normal(size=(1, 1, 2, 3))
            z1k = rng.normal(size=(1, 1, 2, 3))
            times = [0.2, 0.5, 0.8]
            states = [(1 - t) * z0k + t * z1k for t in times]
            tgts = [lb.kstep_targets(states[i], z0k, z1k, times[i]) for i in range(3)]
            wk = np.full((1, 1, 2), 0.5)

            loss_checks = [
                (lambda r: lb.recon_loss(x, r, m), [xh0]),
                (lambda r: lb.temporal_loss(x, r, m), [xh0]),
                (lambda r: lb.spatial_loss(x, r, m, spec), [xh0]),
                (lambda r: gc.add(*lb.consistency_terms(x, r, m, spec, 0.1, 0.2)[:2]), [xh0]),
                (lambda a, b: lb.kl_loss(a, b), [mu0, lv0]),
                (lambda vv: lb.fm_loss(vv, u, w), [v0]),
                (lambda *vs: lb.kstep_loss([gc.as_tensor(v) for v in vs], tgts, wk),
                 [(z1k - z0k) + 0.1 * rng.normal(size=z0k.shape) for _ in range(3)]),
                (lambda l: lb.bce_logits(l, btargets), [logits0]),
            ]
            # consistency detaches earlier implied endpoints by design, so
            # finite differences probe the final (never-detached) velocity
            fixed_vel = [gc.Tensor((z1k - z0k) + 0.2 * rng.normal(size=z0k.shape))
                         for _ in range(2)]
            loss_checks.append(
                (lambda v: lb.endpoint_consistency(states, fixed_vel + [v], times),
                 [(z1k - z0k) + 0.2 * rng.normal(size=z0k.shape)]))
            for fn, args in loss_checks:
                worst = max(worst, gc.grad_check(fn, args))

            vae_params = init_vae_params(tiny_vae, rngg)
            seg = rngg.draw_normal((1, 4, 8, 8, 2)) * 0.3

            def enc_dec(inp):
                mu, logvar = vae_encode(inp, vae_params, tiny_vae)
                out = vae_decode(mu, vae_params, tiny_vae)
                return gc.add(gc.tsum(square(out)), gc.tsum(square(logvar)))

            worst = max(worst, gc.grad_check(enc_dec, [seg]))

            vel_params = init_velocity_params(tiny_flow, rngg)
            cond = encode_condition(rngg.draw_normal((1, 2, 4, 4)), np.ones((1, 2, 4)),
                                    vel_params, tiny_flow)

            def vel(z):
                return gc.tsum(square(velocity_forward(z, 0.4, cond, vel_params, tiny_flow)))

            worst = max(worst, gc.grad_check(vel, [rngg.draw_normal((1, 2, 4, 4)) * 0.5]))

            vis_params = init_visibility_params(tiny_flow, rngg)

            def vis(z):
                return gc.tsum(square(visibility_logits(z, vis_params)))

            worst = max(worst, gc.grad_check(vis, [rngg.draw_normal((1, 2, 4, 4)) * 0.5]))

        RESULTS["criterion_01_worst_grad_error"] = worst
        assert worst < 1e-4


# -- criterion 2: metric oracles -----------------------------------------------------


def test_criterion_02_metric_oracles():
    from test_metrics import (div_curl_brute, explained_brute, flow_tv_brute,
                              vepe_brute, _grid_positions)
    with report(2, "metrics match brute-force oracles (1e-9) and closed forms"):
        for seed in range(20):
            rng = np.random.default_rng(seed + 1000)
            p = rng.normal(size=(4, 5, 6, 2)) * 10
            vis = (rng.random((4, 5, 6)) > 0.25).astype(np.uint8)
            assert metrics.flow_tv(p, vis, 32.0) == pytest.approx(
                flow_tv_brute(p, vis, 32.0), abs=1e-9)
            assert metrics.div_curl_energy(p, vis, 32.0) == pytest.approx(
                div_curl_brute(p, vis, 32.0), abs=1e-9)
            b = rng.normal(size=p.shape)
            assert metrics.vepe(p, b, vis) == pytest.approx(vepe_brute(p, b, vis), abs=1e-9)
            vals = rng.normal(size=(6, 8)) + rng.normal(size=(1, 8)) * 2
            v2 = (rng.random((6, 8)) > 0.2).astype(np.float64)
            if (v2.sum(axis=0) > 0).sum() >= 2:
                assert metrics.explained_variance(vals[..., None], v2) == pytest.approx(
                    explained_brute(vals, v2), abs=1e-9)

        base = _grid_positions(4, 4, 32.0)
        shear_u = 0.1 * base[..., 0]
        p = np.stack([base + t * np.stack([shear_u, np.zeros_like(shear_u)], axis=-1)
                      for t in range(4)])
        assert metrics.flow_tv(p, np.ones((4, 4, 4)), 32.0) == pytest.approx(0.1, abs=1e-9)

        omega, s = 0.32, 32.0
        c = base.mean(axis=(0, 1))
        u = -omega * (base[..., 1] - c[1])
        v = omega * (base[..., 0] - c[0])
        p = np.stack([base + t * np.stack([u, v], axis=-1) for t in range(4)])
        assert metrics.div_curl_energy(p, np.ones((4, 4, 4)), s) == pytest.approx(4e-4, abs=1e-9)

        gt = np.zeros((2, 3, 3, 2))
        assert metrics.vepe(gt + np.array([3.0, 4.0]), gt,
                            np.ones((2, 3, 3))) == pytest.approx(5.0, abs=1e-9)


# -- criterion 3: smooth-vs-jitter toy -------------------------------------------------


def test_criterion_03_toy_reproduction():
    with report(3, "toy pair: equal recon, st gap = lambda_t * 2b"):
        for b in (0.05, 0.1, 0.2):
            gt, smooth, jitter, mask = (a[None] for a in motionlab.toy_1d_pair(b, 8))
            rec_s = float(lb.recon_loss(gt, smooth, mask))
            rec_j = float(lb.recon_loss(gt, jitter, mask))
            assert abs(rec_s - rec_j) < 1e-12
            st_s, st_j = (sum(map(float, lb.consistency_terms(gt, r, mask, None, 0.1, 0.2)[:2]))
                          for r in (smooth, jitter))
            assert st_j - st_s == pytest.approx(0.1 * 2 * b, abs=1e-9)


# -- criterion 4: variance-explained direction ------------------------------------------


def test_criterion_04_variance_direction():
    with report(4, "absolute vs offset explained variance gap >= 40 points on 32 scenes"):
        from trajkit.trajfield import cell_anchors, normalize_coords
        gaps_abs, gaps_off = [], []
        for i in range(32):
            tracks = scenes.mixed_region_tracks(seed=i, geom=GEOM,
                                                moving_fraction=0.3 + 0.4 * (i % 5) / 4,
                                                oscillate=(i % 2 == 0))
            norm = normalize_coords(tracks.coords, GEOM.height, GEOM.width)
            anchors = cell_anchors(GEOM.height, GEOM.width, GEOM.stride).reshape(-1, 2)
            offsets = norm - anchors[None]
            vis = tracks.visibility
            gaps_abs.append(np.mean(metrics.explained_variance(norm, vis)))
            gaps_off.append(np.mean(metrics.explained_variance(offsets, vis)))
        mean_abs = float(np.mean(gaps_abs))
        mean_off = float(np.mean(gaps_off))
        RESULTS["criterion_04_explained_absolute"] = mean_abs
        RESULTS["criterion_04_explained_offset"] = mean_off
        assert mean_abs - mean_off >= 40.0


# -- criterion 5: ODE solver suite -----------------------------------------------------


def test_criterion_05_ode_suite():
    with report(5, "solver exactness, decay error bounds, rtol monotonicity"):
        u = np.array([1.5, -2.0, 0.25])
        for steps in (1, 7, 10):
            out = euler_sample(lambda z, t: u, np.zeros(3), steps=steps)
            assert np.max(np.abs(out - u)) < 5e-14
        out = dopri5_sample(lambda z, t: u, np.zeros(3), rtol=1e-6, atol=1e-9)
        assert np.max(np.abs(out - u)) < 5e-14

        exact = math.exp(-1)
        e10 = abs(euler_sample(lambda z, t: -z, np.ones(1), 10)[0] - exact) / exact
        assert e10 < 0.06
        d = abs(dopri5_sample(lambda z, t: -z, np.ones(1), rtol=1e-6, atol=1e-10)[0]
                - exact) / exact
        assert d < 1e-5
        errs = [abs(dopri5_sample(lambda z, t: -z, np.ones(1), rtol=r, atol=1e-12)[0] - exact)
                for r in (1e-3, 1e-5, 1e-7)]
        assert errs[0] > errs[1] > errs[2]
        RESULTS["criterion_05_euler10_rel_error"] = e10
        RESULTS["criterion_05_dopri5_rel_error"] = d


# -- criterion 6: desk-scale VAE run -----------------------------------------------------


def test_criterion_06_vae_run(vae_cfg, vae_runs):
    with report(6, "VAE: loss halves, eval VEPE < 0.5 px, ablation jitters more"):
        # every value is measured before the first assertion, so a failing
        # run still records all of them
        params, curve = vae_runs["default"]
        RESULTS["criterion_06_loss_initial"] = curve[0]["total"]
        RESULTS["criterion_06_loss_final"] = curve[-1]["total"]

        # held-out smooth scenes, both windows (late windows carry the
        # largest offsets, the harder reconstruction case)
        held_out = scenes.pair_dataset("smooth", 8, 200, GEOM)
        vepe_px = eval_vepe_px(params, vae_cfg, held_out.windows())
        RESULTS["criterion_06_eval_vepe_px"] = vepe_px
        RESULTS["criterion_06_eval_vepe_past_px"] = eval_vepe_px(
            params, vae_cfg, flowgen.SegmentDataset(held_out.past, held_out.past_masks))
        RESULTS["criterion_06_eval_vepe_future_px"] = eval_vepe_px(
            params, vae_cfg, flowgen.SegmentDataset(held_out.future, held_out.future_masks))

        eval_jitter = scenes.segment_dataset("jitter", 8, 201, GEOM)
        t_default = eval_temporal(params, vae_cfg, eval_jitter)
        t_ablation = eval_temporal(vae_runs["ablation"][0], vae_cfg, eval_jitter)
        RESULTS["criterion_06_temporal_default"] = t_default
        RESULTS["criterion_06_temporal_ablation"] = t_ablation

        assert curve[-1]["total"] < 0.5 * curve[0]["total"]
        assert vepe_px < 0.5
        assert t_ablation > t_default


# -- criterion 7: desk-scale flow run ------------------------------------------------------


def test_criterion_07_flow_run(vae_cfg, flow_cfg, flow_runs):
    with report(7, "flow: fm < 0.3x initial, direction within 30 deg, finetune no worse"):
        pairs_eval = scenes.pair_dataset("translation", 8, 301, GEOM)
        train_cfg = flow_runs["train_cfg"]
        fm_initial = eval_fm_loss(flow_runs["init"], pairs_eval, train_cfg)
        fm_final = eval_fm_loss(flow_runs["pretrained"], pairs_eval, train_cfg)
        RESULTS["criterion_07_fm_initial"] = fm_initial
        RESULTS["criterion_07_fm_final"] = fm_final
        assert fm_final < 0.3 * fm_initial

        from trajkit.trajfield import OffsetField
        eval_specs = scenes.scene_specs("translation", 8, 301, GEOM)
        angles = []
        for i, spec in enumerate(eval_specs):
            hist = OffsetField(pairs_eval.past[i], pairs_eval.past_masks[i], GEOM.stride)
            fut, _ = flowgen.sample_future(hist, flow_runs["pretrained"], seed=500 + i)
            got = mean_displacement_px(fut)
            want = np.array(spec.velocity)
            cosang = got @ want / (np.linalg.norm(got) * np.linalg.norm(want))
            angles.append(math.degrees(math.acos(np.clip(cosang, -1, 1))))
        RESULTS["criterion_07_direction_angles_deg"] = angles
        assert max(angles) < 30.0

        err_pre = endpoint_latent_error(flow_runs["pretrained"], pairs_eval, seed_base=900)
        err_ft = endpoint_latent_error(flow_runs["finetuned"], pairs_eval, seed_base=900)
        RESULTS["criterion_07_endpoint_pretrained"] = err_pre
        RESULTS["criterion_07_endpoint_finetuned"] = err_ft
        assert err_ft <= err_pre


# -- criterion 8: boundary / fusion / rollout / time-sampling invariants ---------------------


def test_criterion_08_boundary_and_fusion_invariants(flow_cfg):
    with report(8, "anchoring, fusion identity, detached rollout, time mixture"):
        z_last = gc.rng(0).draw_normal((1, 16, 8))
        z0 = boundary_init(z_last, replace(flow_cfg, sigma0=0.0), gc.rng(1))
        assert np.array_equal(z0[:, 0], z_last)

        vel_params = wrap_params(init_velocity_params(flow_cfg, gc.rng(2)),
                                 requires_grad=False)
        vel_params["vel.fusion.alpha"] = gc.Tensor(0.0)
        tokens = gc.Tensor(gc.rng(3).draw_normal((1, 2, 16, 64)))
        z_hist = gc.rng(4).draw_normal((1, 2, 16, 8))
        fused = gc.add(tokens, history_cue(z_hist, vel_params, 2))
        assert np.array_equal(fused.data, tokens.data)

        w = gc.Tensor(np.array([[0.3]]), requires_grad=True)
        grid = logit_grid(8)

        def v_fn(z, t):
            flat = gc.reshape(z, (-1, 1))
            return gc.reshape(matmul(flat, w), z.shape)

        states, velocities = flowgen.kstep_rollout(v_fn, np.ones((1, 1, 1, 1)), grid)
        grads = gc.backward(gc.tsum(states[-1]), [w])
        assert np.all(grads[0] == 0.0)
        vsum = velocities[0]
        for v in velocities[1:]:
            vsum = gc.add(vsum, v)
        assert gc.backward(gc.tsum(vsum), [w])[0][0, 0] != 0.0

        rng = gc.rng(5)
        n = 1_000_000
        draws = np.fromiter((flowgen.sample_time(rng) for _ in range(n)), dtype=np.float64,
                            count=n)
        phi = 0.5 * (1 + math.erf(math.log(1 / 9) / math.sqrt(2)))
        expected = 0.2 + 0.8 * phi
        frac = float((draws < 0.1).mean())
        RESULTS["criterion_08_p_t_below_0p1"] = frac
        assert abs(frac - expected) < 0.005
        assert draws.min() >= 1e-5 and draws.max() <= 1 - 1e-5


# -- criterion 9: determinism and formats -----------------------------------------------------


TINY_TRAIN_CONFIG = """\
[run]
seed = 5

[data]
kind = translation
scenes = 4
frames = 16
past = 8

[vae]
steps = 6
lr = 0.003
batch = 4
hidden = 24
blocks = 1
latent_channels = 4

[flow]
steps = 6
lr = 0.001
hidden = 24
blocks = 1
cond_hidden = 12
vis_steps = 6
"""


def test_criterion_09_determinism_and_formats(tmp_path):
    with report(9, "seeded runs byte-identical; TLF and offset round trips exact"):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_TRAIN_CONFIG)
        trained = []
        for name in ("trainA", "trainB"):
            d = tmp_path / name
            assert dispatch(["train-vae", "--config", str(cfg), "--out", str(d / "vae")]) == 0
            assert dispatch(["train-flow", "--config", str(cfg),
                             "--vae", str(d / "vae" / "vae.ckpt"),
                             "--out", str(d / "flow")]) == 0
            trained.append([(d / f).read_bytes() for f in ("vae/vae.ckpt", "vae/vae_loss.csv",
                                                           "flow/flow.ckpt", "flow/flow_loss.csv")])
        assert trained[0] == trained[1]

        csvs = []
        for name in ("runA", "runB"):
            d = tmp_path / name
            scene = d / "scene.tlf"
            assert dispatch(["synth", str(scene), "--kind", "translation", "--vx", "1.5",
                             "--vy", "-0.5", "--frames", "12", "--seed", "7",
                             "--out", str(d)]) == 0
            assert dispatch(["eval", str(scene), "--metric", "flowtv",
                             "--out", str(d)]) == 0
            assert dispatch(["eval", str(scene), "--metric", "divcurle",
                             "--out", str(d)]) == 0
            csvs.append((d / "metrics.csv").read_bytes())
        assert csvs[0] == csvs[1]

        tracks = motionlab.generate(motionlab.MotionSpec(
            "rotation", frames=9, angular_rate=0.07, height=GEOM.height,
            width=GEOM.width, stride=GEOM.stride))
        record = tlf.from_tracks(tracks)
        p1 = tmp_path / "t1.tlf"
        p2 = tmp_path / "t2.tlf"
        tlf.write_tlf(p1, record)
        tlf.write_tlf(p2, tlf.read_tlf(p1))
        assert p1.read_bytes() == p2.read_bytes()

        from trajkit.trajfield import to_absolute, to_offsets
        rng = np.random.default_rng(11)
        coords = rng.uniform(-1.1, 1.1, size=(4, 32, 32, 2))
        back = to_absolute(to_offsets(coords))
        assert np.array_equal(back.astype(np.float32), coords.astype(np.float32))


# -- criterion 10: visibility predictor ---------------------------------------------------------


def test_criterion_10_visibility_predictor(vae_cfg, flow_cfg):
    with report(10, "pooled targets match OR oracle; trained head > 95% accurate"):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = (rng.random((8, 32, 32)) > 0.85).astype(np.uint8)
            out = pool_visibility(m[None], vae_cfg)[0]  # 2 steps of 4x4 tokens
            for k in range(2):
                for i in range(4):
                    for j in range(4):
                        block = m[4 * k:4 * k + 4, 8 * i:8 * i + 8, 8 * j:8 * j + 8]
                        assert out[k, 4 * i + j] == (1 if block.any() else 0)

        rngg = gc.rng(13)
        m_items = 64
        targets = (rngg.draw_uniform((m_items, 2, 16)) > 0.5).astype(np.float64)
        latents = np.where(targets[..., None] > 0, 0.8, -0.8) + 0.2 * rngg.draw_normal(
            (m_items, 2, 16, flow_cfg.latent_channels))
        params, _ = flowgen.train_visibility_head(latents, targets, flow_cfg,
                                                  steps=200, lr=3e-2, seed=0)
        _, pred = visibility_predict(latents, wrap_params(params, False))
        acc = float((pred == targets).mean())
        RESULTS["criterion_10_token_accuracy"] = acc
        assert acc > 0.95
