import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajkit import flowgen, gradcore as gc, plotting, tlf
from trajkit.cli import dispatch, load_bundle, save_bundle
from trajkit.config import ConfigError, RunConfig
from trajkit.models import FlowConfig, VaeConfig, init_vae_params, init_velocity_params
from trajkit.motionlab import MotionSpec, generate
from trajkit.trajfield import rasterize, to_absolute, to_offsets


def run(*argv):
    return dispatch([str(a) for a in argv])


class TestTlfFormat:
    def test_write_read_byte_exact(self, tmp_path):
        tracks = generate(MotionSpec("translation", frames=6, velocity=(1.5, -0.5)))
        record = tlf.from_tracks(tracks)
        path = tmp_path / "a.tlf"
        tlf.write_tlf(path, record)
        raw1 = path.read_bytes()
        back = tlf.read_tlf(path)
        tlf.write_tlf(tmp_path / "b.tlf", back)
        assert raw1 == (tmp_path / "b.tlf").read_bytes()
        assert np.array_equal(back.coords, record.coords)

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bad.tlf"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(tlf.TlfError):
            tlf.read_tlf(path)

    def test_truncated_payload_rejected(self, tmp_path):
        tracks = generate(MotionSpec("static", frames=4))
        path = tmp_path / "c.tlf"
        tlf.write_tlf(path, tlf.from_tracks(tracks))
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(tlf.TlfError):
            tlf.read_tlf(path)

    def test_offset_field_round_trip_through_tlf(self, tmp_path):
        tracks = generate(MotionSpec("translation", frames=5, velocity=(2.0, 1.0)))
        field = to_offsets(rasterize(tracks))
        record = tlf.from_offset_field(field, 32, 32)
        back = tlf.to_offset_field(record)
        assert np.allclose(back.offsets, field.offsets, atol=1e-6)

    def test_checkpoint_round_trip(self, tmp_path):
        blocks = {"a/w": np.arange(6.0).reshape(2, 3), "b": np.array(1.5)}
        meta = {"note": "x", "n": 3}
        path = tmp_path / "m.ckpt"
        tlf.save_checkpoint(path, blocks, meta)
        loaded, got_meta = tlf.load_checkpoint(path)
        assert got_meta == meta
        assert np.allclose(loaded["a/w"], blocks["a/w"])
        assert loaded["b"].shape == ()


def _damaged(raw: bytes):
    """`raw` cut short, or with one to four bytes overwritten."""
    cut = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])

    def overwrite(edits):
        out = bytearray(raw)
        for pos, value in edits:
            out[pos] = value
        return bytes(out)

    edits = st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4)
    return st.one_of(cut, edits.map(overwrite))


DAMAGE = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """A small TLF and a small VAE checkpoint, with a scratch directory."""
    root = tmp_path_factory.mktemp("damage")
    spec = MotionSpec("translation", frames=2, height=16, width=16, stride=8,
                      velocity=(1.0, 0.5))
    tlf.write_tlf(root / "ok.tlf", tlf.from_tracks(generate(spec)))
    tlf.save_checkpoint(root / "vae.ckpt", {"vae/w": np.arange(3.0)}, {"seed": 1})
    return root


def _rejects(loader, path) -> bool:
    """Whether `loader` refuses the file; any error but TlfError fails the test."""
    try:
        loader(path)
    except tlf.TlfError:
        return True
    return False


class TestDamagedFiles:
    @DAMAGE
    @given(data=st.data())
    def test_read_tlf_raises_only_tlf_error(self, intact, data):
        path = intact / "bad.tlf"
        path.write_bytes(data.draw(_damaged((intact / "ok.tlf").read_bytes())))
        _rejects(tlf.read_tlf, path)

    @DAMAGE
    @given(data=st.data())
    def test_load_checkpoint_raises_only_tlf_error(self, intact, data):
        path = intact / "bad.ckpt"
        path.write_bytes(data.draw(_damaged((intact / "vae.ckpt").read_bytes())))
        _rejects(tlf.load_checkpoint, path)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cli_exits_2_on_rejected_files(self, intact, data):
        track = intact / "cli.tlf"
        track.write_bytes(data.draw(_damaged((intact / "ok.tlf").read_bytes())))
        expected = 2 if _rejects(tlf.read_tlf, track) else 0
        assert run("offsets", track, intact / "out.tlf", "--out", intact / "runs") == expected
        ckpt = intact / "cli.ckpt"
        ckpt.write_bytes(data.draw(_damaged((intact / "vae.ckpt").read_bytes())))
        if _rejects(tlf.load_checkpoint, ckpt):  # an intact one would start training
            assert run("train-flow", "--vae", ckpt, "--out", intact / "runs") == 2

    def test_short_block_is_a_tlf_error(self, intact, capsys):
        path = intact / "cut.ckpt"
        path.write_bytes((intact / "vae.ckpt").read_bytes()[:30])  # 3 of 12 block bytes
        assert run("train-flow", "--vae", path, "--out", intact / "runs") == 2
        assert "truncated or corrupt checkpoint" in capsys.readouterr().err

    def test_metadata_must_be_an_object(self, intact):
        path = intact / "list.ckpt"
        tlf.save_checkpoint(path, {"vae/w": np.ones(2)}, [1, 2])
        with pytest.raises(tlf.TlfError, match="not a JSON object"):
            tlf.load_checkpoint(path)


class TestConfig:
    def test_defaults_match_published_values(self):
        cfg = RunConfig.default()
        assert cfg["vae"]["beta"] == 5e-5
        assert cfg["vae"]["lambda_temporal"] == 0.1
        assert cfg["vae"]["lambda_spatial"] == 0.2
        assert cfg["flow"]["sigma"] == 0.05
        assert cfg["flow"]["sigma0"] == 0.1
        assert cfg["finetune"]["k_steps"] == 8
        assert cfg["finetune"]["w1"] == 1.0
        assert cfg["finetune"]["w0"] == 0.5
        assert cfg["finetune"]["gamma"] == 0.1
        assert cfg["finetune"]["lambda_kstep"] == 0.1
        assert cfg["flow"]["invisible_token_weight"] == 0.01
        assert cfg["vae"]["lr"] == 2e-5
        assert cfg["flow"]["lr"] == 6e-5
        assert cfg["finetune"]["lr"] == 1e-5
        assert cfg["vae"]["hops"] == (1, 2, 4)
        assert cfg["vae"]["hop_weights"] == (1.0, 0.5, 0.25)

    def test_vae_grad_clip_default_matches_training_default(self):
        assert RunConfig.default().vae_train_config().clip_norm == \
            flowgen.VaeTrainConfig().clip_norm

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.loads("[vae]\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.loads("[mystery]\nx = 1\n")

    def test_round_trip_and_hash_stability(self):
        cfg = RunConfig.loads("[vae]\nlr = 0.003\n\n[run]\nseed = 7\n")
        again = RunConfig.loads(cfg.dumps())
        assert cfg.sha256() == again.sha256()
        assert again.seed == 7

    @pytest.mark.parametrize("section", ["vae", "flow", "finetune"])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_training_steps_below_one_rejected(self, section, steps):
        with pytest.raises(ConfigError, match=f"{section}.steps"):
            RunConfig.loads(f"[{section}]\nsteps = {steps}\n")

    @pytest.mark.parametrize("section,key,good,bad", [
        ("flow", "anchor_mode", "all-slices", "bogus"),
        ("sampler", "method", "dopri5", "rk4"),
        ("data", "kind", "jitter", "bogus"),
    ])
    def test_closed_set_values_checked_at_load(self, section, key, good, bad):
        assert RunConfig.loads(f"[{section}]\n{key} = {good}\n")[section][key] == good
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            RunConfig.loads(f"[{section}]\n{key} = {bad}\n")

    def test_out_dir_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TRAJLOOM_OUT", str(tmp_path / "envout"))
        cfg = RunConfig.default()
        assert cfg.out_dir() == str(tmp_path / "envout")


class TestSynthAndConversions:
    def test_synth_matches_generator_oracle(self, tmp_path):
        out = tmp_path / "scene.tlf"
        assert run("synth", out, "--kind", "translation", "--vx", 2, "--frames", 16,
                   "--out", tmp_path) == 0
        record = tlf.read_tlf(out)
        ref = generate(MotionSpec("translation", frames=16, velocity=(2.0, 0.0)))
        assert np.allclose(record.coords, ref.coords.astype(np.float32))
        assert np.array_equal(record.visibility, ref.visibility)

    def test_offsets_invert_bit_identical_payload(self, tmp_path):
        src = tmp_path / "in.tlf"
        run("synth", src, "--kind", "translation", "--vx", 2, "--vy", 1,
            "--frames", 12, "--out", tmp_path)
        norm = tmp_path / "norm.tlf"
        assert run("rasterize", src, norm, "--out", tmp_path) == 0
        off = tmp_path / "off.tlf"
        back = tmp_path / "back.tlf"
        assert run("offsets", norm, off, "--out", tmp_path) == 0
        assert run("offsets", "--invert", off, back, "--out", tmp_path) == 0
        a = tlf.read_tlf(norm)
        b = tlf.read_tlf(back)
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.visibility.tobytes() == b.visibility.tobytes()

    def test_rasterize_is_offsets_invert(self, tmp_path):
        src = tmp_path / "in.tlf"
        run("synth", src, "--kind", "rotation", "--omega", 0.05, "--frames", 6, "--out", tmp_path)
        assert run("rasterize", src, tmp_path / "r.tlf", "--out", tmp_path / "r") == 0
        assert run("offsets", "--invert", src, tmp_path / "o.tlf", "--out", tmp_path / "o") == 0
        assert (tmp_path / "r.tlf").read_bytes() == (tmp_path / "o.tlf").read_bytes()
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["command"] == "rasterize"

    def test_malformed_tlf_gives_exit_2(self, tmp_path):
        bad = tmp_path / "bad.tlf"
        bad.write_bytes(b"garbage")
        assert run("rasterize", bad, tmp_path / "out.tlf") == 2

    def test_bad_config_gives_exit_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[vae]\nnot_a_key = 3\n")
        assert run("train-vae", "--config", cfg, "--out", tmp_path) == 3

    def test_zero_training_steps_give_exit_3_and_write_nothing(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[vae]\nsteps = 0\n")
        assert run("train-vae", "--config", cfg, "--out", tmp_path) == 3
        assert not (tmp_path / "vae.ckpt").exists()


def _bundle_parts():
    """An untrained bundle of the default configs: real parameter blocks, so it
    can sample."""
    rng = gc.rng(0)
    blocks = {f"vae/{k}": v for k, v in init_vae_params(VaeConfig(), rng).items()}
    blocks.update({f"flow/{k}": v for k, v in init_velocity_params(FlowConfig(), rng).items()})
    blocks.update({"stats/mean": np.zeros(8), "stats/std": np.ones(8)})
    meta = {"vae_cfg": asdict(VaeConfig()), "flow_cfg": asdict(FlowConfig()),
            "sigma0": 0.1, "anchor_mode": "first-slice", "seed": 0}
    return blocks, meta


def _unknown_block(blocks, meta):
    blocks["zzz/a"] = np.zeros(1)


def _no_stats_mean(blocks, meta):
    del blocks["stats/mean"]


def _no_stats_std(blocks, meta):
    del blocks["stats/std"]


def _zero_stats_std(blocks, meta):
    blocks["stats/std"] = np.zeros(8)


def _extra_vae_cfg_key(blocks, meta):
    meta["vae_cfg"]["bogus"] = 1


def _missing_flow_cfg_key(blocks, meta):
    del meta["flow_cfg"]["hidden"]


# (corruption, the block the error names); the VAE ones also apply to a VAE checkpoint
def _missing_vae_block(blocks, meta):
    del blocks["vae/enc.embed.w"]


def _extra_vae_block(blocks, meta):
    blocks["vae/enc.embed.u"] = np.zeros(3)


def _misshapen_vae_block(blocks, meta):
    blocks["vae/dec.head.b"] = np.zeros(5)


def _misshapen_flow_block(blocks, meta):
    blocks["flow/vel.fusion.gate_raw"] = np.zeros(3)


def _partial_vis_head(blocks, meta):
    blocks["vis/vis.head.w"] = np.zeros((16, 1))


def _short_stats(blocks, meta):
    blocks["stats/mean"] = np.zeros(5)


BAD_BLOCKS = [(_missing_vae_block, "vae/enc.embed.w"), (_extra_vae_block, "vae/enc.embed.u"),
              (_misshapen_vae_block, "vae/dec.head.b")]


class TestMalformedBundle:
    def test_hand_built_bundle_loads(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        tlf.save_checkpoint(path, *_bundle_parts())
        bundle = load_bundle(path)
        assert bundle.vae_cfg == VaeConfig() and bundle.flow_cfg == FlowConfig()
        assert bundle.vis_params is None
        hist = tmp_path / "hist.tlf"
        run("synth", hist, "--kind", "translation", "--vx", 0.5, "--frames", 8, "--out", tmp_path)
        assert run("sample", "--ckpt", path, "--history", hist, "--out", tmp_path) == 0

    @pytest.mark.parametrize("corrupt,block", BAD_BLOCKS + [
        (_misshapen_flow_block, "flow/vel.fusion.gate_raw"), (_partial_vis_head, "vis/vis.conv0.b"),
        (_short_stats, "stats/mean")])
    def test_bad_parameter_block_gives_exit_2_naming_it(self, tmp_path, capsys, corrupt, block):
        blocks, meta = _bundle_parts()
        corrupt(blocks, meta)
        path = tmp_path / "bad.ckpt"
        tlf.save_checkpoint(path, blocks, meta)
        hist = tmp_path / "hist.tlf"
        run("synth", hist, "--kind", "translation", "--vx", 0.5, "--frames", 8, "--out", tmp_path)
        capsys.readouterr()
        assert run("sample", "--ckpt", path, "--history", hist, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and block in err

    @pytest.mark.parametrize("corrupt,block", BAD_BLOCKS)
    def test_train_flow_rejects_bad_vae_block(self, tmp_path, capsys, corrupt, block):
        blocks, meta = _bundle_parts()
        corrupt(blocks, meta)
        path = tmp_path / "vae.ckpt"
        tlf.save_checkpoint(path, {k: v for k, v in blocks.items() if k.startswith("vae/")},
                            {"vae_cfg": meta["vae_cfg"]})
        assert run("train-flow", "--vae", path, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and block in err

    @pytest.mark.parametrize("corrupt", [_unknown_block, _no_stats_mean, _no_stats_std,
                                         _extra_vae_cfg_key, _missing_flow_cfg_key,
                                         _zero_stats_std])
    def test_sample_gives_exit_2_with_message(self, tmp_path, capsys, corrupt):
        blocks, meta = _bundle_parts()
        corrupt(blocks, meta)
        path = tmp_path / "bad.ckpt"
        tlf.save_checkpoint(path, blocks, meta)
        code = run("sample", "--ckpt", path, "--history", tmp_path / "absent.tlf",
                   "--out", tmp_path)
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_train_flow_rejects_extra_vae_cfg_key(self, tmp_path, capsys):
        path = tmp_path / "vae.ckpt"
        tlf.save_checkpoint(path, {"vae/enc.w": np.ones(2)},
                            {"vae_cfg": {**asdict(VaeConfig()), "bogus": 1}})
        assert run("train-flow", "--vae", path, "--out", tmp_path) == 2
        assert "vae_cfg" in capsys.readouterr().err


class TestEvalAndCamcap:
    def test_flowtv_zero_on_uniform_translation(self, tmp_path, capsys):
        scene = tmp_path / "move.tlf"
        run("synth", scene, "--kind", "translation", "--vx", 1, "--frames", 8,
            "--out", tmp_path)
        assert run("eval", scene, "--metric", "flowtv", "--out", tmp_path) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(out) == 0.0
        rows = plotting.read_metrics_csv(tmp_path / "metrics.csv")
        assert rows[-1]["metric"] == "flowtv"
        assert rows[-1]["value"] == 0.0

    def test_vepe_requires_ref(self, tmp_path):
        scene = tmp_path / "s.tlf"
        run("synth", scene, "--kind", "static", "--frames", 4, "--out", tmp_path)
        assert run("eval", scene, "--metric", "vepe", "--out", tmp_path) == 1

    def test_camcap_pan_phrase(self, tmp_path, capsys):
        scene = tmp_path / "pan.tlf"
        run("synth", scene, "--kind", "translation", "--vx", 3, "--frames", 8,
            "--height", 64, "--width", 64, "--out", tmp_path)
        assert run("camcap", scene, "--out", tmp_path) == 0
        assert "camera pans right, fast" in capsys.readouterr().out

    def test_analyze_variance_direction(self, tmp_path, capsys):
        scene = tmp_path / "mix.tlf"
        run("synth", scene, "--kind", "translation", "--vx", 0.5, "--vy", 0.25,
            "--frames", 12, "--out", tmp_path)
        assert run("analyze-variance", scene, "--out", tmp_path) == 0
        rows = plotting.read_metrics_csv(tmp_path / "variance.csv")
        by_key = {(r["method"], r["metric"]): r["value"] for r in rows}
        assert by_key[("absolute", "explained_x")] > by_key[("offset", "explained_x")]


class TestGradcheckCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        assert run("gradcheck", "--seeds", 2, "--out", tmp_path) == 0
        out = capsys.readouterr().out
        assert "worst:" in out


class TestBundleIO:
    def test_bundle_round_trip(self, tmp_path, tiny_bundle):
        bundle, _, _ = tiny_bundle
        path = tmp_path / "bundle.ckpt"
        save_bundle(path, bundle, seed=3)
        loaded = load_bundle(path)
        assert loaded.vae_cfg == bundle.vae_cfg
        assert loaded.flow_cfg == bundle.flow_cfg
        assert loaded.anchor_mode == bundle.anchor_mode
        for k, v in bundle.flow_params.items():
            assert np.allclose(loaded.flow_params[k], v.astype(np.float32), atol=1e-7)


class TestSampleFrames:
    @pytest.mark.parametrize("frames", [0, 9, 12])
    def test_out_of_range_frames_give_exit_1_naming_range(self, tmp_path, capsys, tiny_bundle,
                                                          frames):
        bundle, _, _ = tiny_bundle
        save_bundle(tmp_path / "bundle.ckpt", bundle, seed=3)
        hist = tmp_path / "hist.tlf"
        run("synth", hist, "--kind", "translation", "--vx", 0.5, "--frames", 8, "--out", tmp_path)
        code = run("sample", "--ckpt", tmp_path / "bundle.ckpt", "--history", hist,
                   "--frames", frames, "--out", tmp_path)
        assert code == 1
        assert f"future frames must be in 1..8 (future_steps 2 x temporal_ratio 4), got {frames}" \
            in capsys.readouterr().err


class TestPlot:
    def test_overlay_positions_match_to_absolute(self, tmp_path):
        import re
        scene = tmp_path / "runA" / "scene.tlf"
        scene.parent.mkdir()
        run("synth", scene, "--kind", "rotation", "--omega", 0.1, "--frames", 6,
            "--out", scene.parent)
        assert run("plot", scene.parent, "--out", tmp_path / "figs") == 0
        svg = (tmp_path / "figs" / "runA_scene_overlay.svg").read_text()
        pts = re.findall(r'<polyline points="([^"]+)"', svg)
        record = tlf.read_tlf(scene)
        dense = to_absolute(tlf.to_offset_field(record))
        positions, _ = tlf.coarse_pixel_positions(record)
        first_track = [tuple(map(float, p.split(","))) for p in pts[0].split()]
        want = positions[:, 0, 0, :]
        got = np.array(first_track)
        assert np.allclose(got, want, atol=1e-5)
        # and the TLF positions agree with the dense decode path
        c = record.stride // 2
        assert np.allclose(
            positions[:, 0, 0, :],
            np.stack([(dense.coords[:, c, c, 0] + 1) * record.width / 2 - 0.5,
                      (dense.coords[:, c, c, 1] + 1) * record.height / 2 - 0.5], axis=-1),
            atol=1e-5)

    def test_empty_metrics_gives_header_only(self, tmp_path):
        rundir = tmp_path / "runB"
        rundir.mkdir()
        assert run("plot", rundir, "--out", tmp_path / "figs") == 0
        text = (tmp_path / "figs" / "metrics_table.csv").read_text()
        assert text.strip() == ",".join(plotting.METRIC_COLUMNS)

    def test_two_run_comparison_rows(self, tmp_path):
        for name, vx in (("r1", 1.0), ("r2", 2.0)):
            d = tmp_path / name
            d.mkdir()
            scene = d / "s.tlf"
            run("synth", scene, "--kind", "translation", "--vx", vx, "--frames", 6,
                "--out", d)
            run("eval", scene, "--metric", "flowtv", "--out", d)
        assert run("plot", tmp_path / "r1", tmp_path / "r2", "--out", tmp_path / "figs") == 0
        rows = plotting.read_metrics_csv(tmp_path / "figs" / "metrics_table.csv")
        assert len(rows) == 2
        assert {r["dataset"].split("/")[0] for r in rows} == {"r1", "r2"}


class TestManifest:
    def test_manifest_written_and_deterministic(self, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        run("synth", out1 / "s.tlf", "--kind", "static", "--frames", 4, "--out", out1)
        run("synth", out2 / "s.tlf", "--kind", "static", "--frames", 4, "--out", out2)
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["command"] == "synth"
        assert m1["seed"] == 0
        assert m1["outputs"] == ["s.tlf"]
        # identical except for the differing argv paths
        m1.pop("argv"), m2.pop("argv"), m1.pop("config_sha256"), m2.pop("config_sha256")
        assert m1 == m2
