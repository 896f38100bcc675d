import inspect
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
import trajkit
from trajkit import cli, flowgen, gradcore as gc, plotting, tlf
from trajkit.cli import dispatch
from trajkit.config import DEFAULTS, ConfigError, RunConfig
from trajkit.models import (FlowConfig, VaeConfig, init_vae_params, init_velocity_params,
                            init_visibility_params)
from trajkit.motionlab import MotionSpec, generate
from trajkit.tlf import load_bundle, save_bundle
from trajkit.trajfield import OffsetField, cell_centers, rasterize, to_absolute


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
        field = rasterize(tracks)
        record = tlf.from_offset_field(field)
        back = rasterize(tlf.to_tracks(record))
        assert np.allclose(back.offsets, field.offsets, atol=1e-6)

    def test_convert_round_trip_through_every_convention(self):
        # pixel -> normalized -> offset -> pixel: three float32 roundings
        record = tlf.from_tracks(generate(MotionSpec("rotation", frames=5, angular_rate=0.1)))
        back = record
        for convention in (tlf.CONV_NORMALIZED, tlf.CONV_OFFSET, tlf.CONV_PIXEL):
            back = tlf.convert(back, convention)
            assert back.convention == convention
        ulp = np.finfo(np.float32).eps * max(record.height, record.width)
        assert np.abs(back.coords - record.coords).max() <= ulp
        assert np.array_equal(back.visibility, record.visibility)

    def test_convert_to_its_own_convention_copies(self):
        record = tlf.convert(tlf.from_tracks(generate(MotionSpec("translation", frames=4,
                                                                 velocity=(1.0, 2.0)))),
                             tlf.CONV_OFFSET)
        same = tlf.convert(record, tlf.CONV_OFFSET)
        assert same.coords.tobytes() == record.coords.tobytes()
        assert same.visibility.tobytes() == record.visibility.tobytes()
        assert (same.height, same.width, same.stride, same.convention) == \
            (record.height, record.width, record.stride, record.convention)
        assert not np.shares_memory(same.coords, record.coords)
        assert not np.shares_memory(same.visibility, record.visibility)

    def test_pixel_tracks_are_the_stored_coordinates_widened(self):
        # a 40 x 48 frame: normalizing and back is not exact in float64
        record = tlf.from_tracks(generate(MotionSpec("rotation", frames=6, angular_rate=0.1,
                                                     height=40, width=48)))
        tracks = tlf.to_tracks(record)
        assert tracks.coords.tobytes() == record.coords.astype(np.float64).tobytes()
        assert not np.shares_memory(tracks.visibility, record.visibility)

    @pytest.mark.parametrize("convention", [tlf.CONV_NORMALIZED, tlf.CONV_OFFSET])
    def test_normalized_and_offset_tracks_denormalize_per_axis(self, convention):
        record = tlf.convert(tlf.from_tracks(generate(MotionSpec("zoom", frames=6,
                                                                 zoom_rate=0.05))), convention)
        norm = record.coords.astype(np.float64)
        if convention == tlf.CONV_OFFSET:
            centers = cell_centers(record.height, record.width, record.stride).reshape(-1, 2)
            norm = norm + reference_ops.normalize_coords(centers, record.height, record.width)
        want = reference_ops.denormalize_coords(norm, record.height, record.width)
        assert tlf.to_tracks(record).coords.tobytes() == want.tobytes()

    @pytest.mark.parametrize("convention", sorted(tlf.CONVENTIONS))
    def test_offset_coords_are_the_converted_payload(self, convention):
        # the offset record holds sub-ulp residuals, which a trip through
        # normalized coordinates would round away
        record = tlf.from_tracks(generate(MotionSpec("shear", frames=5, shear_rate=0.01)))
        record = tlf.convert(record, convention)
        if convention == tlf.CONV_OFFSET:
            record.coords[0, :3, 0] = (1e-17, -3e-20, 0.0)
        want = tlf.convert(record, tlf.CONV_OFFSET).coords
        got = tlf.offset_coords(record, tlf.to_normalized(record))
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_convert_to_an_unknown_convention_is_a_tlf_error(self):
        record = tlf.from_tracks(generate(MotionSpec("static", frames=2)))
        with pytest.raises(tlf.TlfError, match="unknown coordinate convention 7"):
            tlf.convert(record, 7)

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


def _scene_with(path, damage):
    """An 8-frame 32x32 stride-8 translation scene (16 tracks) with `damage`
    applied to its bytes: a header grid other than H/s x W/s, a NaN
    coordinate at frame 2, track 5, visible or hidden, a visibility byte
    of 2 there, a header of no frames and no payload, or a 0x0 frame of
    8 frames and no tracks."""
    record = tlf.from_tracks(generate(MotionSpec("translation", frames=8, velocity=(1.0, 0.0))))
    tlf.write_tlf(path, record)
    raw = bytearray(path.read_bytes())
    t, n = record.visibility.shape
    if damage == "grid":
        raw[12:20] = np.array([2, 8], dtype="<u4").tobytes()  # H_c, W_c: still 16 tracks
    elif damage == "frames":
        raw[8:12] = np.array([0], dtype="<u4").tobytes()  # T
        del raw[36:]
    elif damage == "empty-grid":
        raw[12:28] = np.zeros(4, dtype="<u4").tobytes()  # H_c, W_c, H, W: a 0x0 frame
        del raw[36:]  # no tracks, so no payload
    elif damage == "visibility":
        raw[36 + t * n * 8 + 2 * n + 5] = 2
    else:
        x = 36 + (2 * n + 5) * 8  # the x of frame 2, track 5
        raw[x:x + 4] = np.array([np.nan], dtype="<f4").tobytes()
        raw[36 + t * n * 8 + 2 * n + 5] = int(damage == "nan-visible")
    path.write_bytes(bytes(raw))
    return path


DAMAGED_SCENES = {"grid": "header grid 2x8 != frame 32x32 / stride 8",
                  "nan-visible": "non-finite coordinate at frame 2, track 5",
                  "nan-hidden": "non-finite coordinate at frame 2, track 5",
                  "visibility": "visibility 2 at frame 2, track 5 is not 0 or 1",
                  "frames": "no frames: a track record needs at least one",
                  "empty-grid": "frame 0x0 / stride 8 has no grid cell"}


class TestMalformedTrackValues:
    @pytest.mark.parametrize("damage", list(DAMAGED_SCENES))
    def test_read_tlf_names_the_file_and_the_fault(self, tmp_path, damage):
        path = _scene_with(tmp_path / "bad.tlf", damage)
        with pytest.raises(tlf.TlfError) as exc:
            tlf.read_tlf(path)
        assert str(exc.value) == f"{path}: {DAMAGED_SCENES[damage]}"

    @pytest.mark.parametrize("command", ["camcap", "eval", "offsets", "analyze-variance",
                                         "plot", "sample"])
    @pytest.mark.parametrize("damage", list(DAMAGED_SCENES))
    def test_every_reader_exits_2_with_one_error_line(self, tmp_path, capsys, tiny_bundle,
                                                      command, damage):
        scene = _scene_with(tmp_path / "bad.tlf", damage)
        argv = {"camcap": ["camcap", scene],
                "eval": ["eval", scene, "--metric", "flowtv"],
                "offsets": ["offsets", scene, tmp_path / "o.tlf"],
                "analyze-variance": ["analyze-variance", scene],
                "plot": ["plot", tmp_path]}.get(command)
        if argv is None:
            save_bundle(tmp_path / "bundle.ckpt", tiny_bundle[0], seed=3)
            argv = ["sample", "--ckpt", tmp_path / "bundle.ckpt", "--history", scene]
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "runs") == 2
        out = capsys.readouterr()
        assert out.err == f"error: {scene}: {DAMAGED_SCENES[damage]}\n" and out.out == ""


# every config key; adding, renaming or dropping one is a deliberate edit
# here and in README's config section
CONFIG_KEYS = """
run.out run.seed
data.frames data.height data.kind data.past data.scenes data.stride data.width
sampler.atol sampler.method sampler.rtol sampler.steps
vae.batch vae.beta vae.blocks vae.clip_norm vae.hidden vae.hop_weights vae.hops
vae.lambda_spatial vae.lambda_temporal vae.latent_channels vae.lr vae.patch vae.steps
vae.temporal_ratio
flow.batch flow.blocks flow.clip_norm flow.cond_hidden flow.hidden
flow.invisible_token_weight flow.lr flow.sigma flow.sigma0 flow.steps flow.time_features
flow.vis_lr flow.vis_steps
finetune.gamma finetune.k_steps finetune.lambda_kstep finetune.lr finetune.steps
finetune.sub_batch finetune.w0 finetune.w1
""".split()


class TestConfig:
    def test_keys_are_the_schema_and_the_readme_lists_each(self):
        assert len(CONFIG_KEYS) == 48
        assert sorted(f"{s}.{k}" for s, keys in DEFAULTS.items() for k in keys) == \
            sorted(CONFIG_KEYS)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("Configs are sectioned key-value files"):
                         readme.index("## File formats")]
        code = {word for span in re.findall(r"`([^`]*)`", section)
                for word in re.findall(r"\w+", span)}
        assert [key for key in CONFIG_KEYS if key.split(".")[1] not in code
                or f"[{key.split('.')[0]}]" not in section] == []

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

    def test_module_configs_take_the_dataclass_defaults(self):
        cfg = RunConfig.default()
        assert cfg.vae_train_config() == flowgen.VaeTrainConfig()
        assert cfg.flow_train_config() == flowgen.FlowTrainConfig()
        assert cfg.finetune_config() == flowgen.FinetuneConfig()
        spec = cfg.sampler_spec()
        euler, dopri5 = (inspect.signature(f).parameters for f in (
            flowgen.euler_sample, flowgen.dopri5_sample))
        assert flowgen.SamplerConfig(**spec) == flowgen.SamplerConfig() and spec["method"] == "euler"
        assert spec["steps"] == euler["steps"].default
        assert (spec["rtol"], spec["atol"]) == (dopri5["rtol"].default, dopri5["atol"].default)

    def test_preset_hashes_are_pinned(self):
        assert RunConfig.desk().sha256() == \
            "a505191ccdc052c71f2a3b871a5022555cad8d57b7c85cb931840b91dddd2f0d"
        assert RunConfig.default().sha256() == \
            "b90a4af55aa06d75b042289f549681cf39eb608690db9c34665fc7a6fa2bc428"

    @pytest.mark.parametrize("section", ["vae", "flow"])
    def test_clip_norm_zero_is_the_only_no_clip(self, section):
        convert = {"vae": RunConfig.vae_train_config, "flow": RunConfig.flow_train_config}[section]
        assert convert(RunConfig.loads(f"[{section}]\nclip_norm = 0\n")).clip_norm == 0
        assert convert(RunConfig.loads(f"[{section}]\nclip_norm = 0.5\n")).clip_norm == 0.5
        for bad in ("-1", "nan", "inf"):
            with pytest.raises(ConfigError, match=rf"{section}\.clip_norm: "):
                RunConfig.loads(f"[{section}]\nclip_norm = {bad}\n")

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

    @pytest.mark.parametrize("section", ["vae", "flow", "finetune", "sampler"])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_training_steps_below_one_rejected(self, section, steps):
        with pytest.raises(ConfigError, match=f"{section}.steps"):
            RunConfig.loads(f"[{section}]\nsteps = {steps}\n")

    @pytest.mark.parametrize("section,key,good,bad", [
        ("sampler", "method", "dopri5", "rk4"),
        ("data", "kind", "jitter", "bogus"),
    ])
    def test_closed_set_values_checked_at_load(self, section, key, good, bad):
        assert RunConfig.loads(f"[{section}]\n{key} = {good}\n")[section][key] == good
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            RunConfig.loads(f"[{section}]\n{key} = {bad}\n")

    @pytest.mark.parametrize("key,bad", [
        *[pytest.param("sigma0", bad, id=bad) for bad in ("-0.1", "nan", "inf")],
        *[pytest.param(key, bad, id=f"{key}={bad}")
          for key in ("sigma", "invisible_token_weight") for bad in ("-3", "nan", "inf")]])
    def test_flow_sigma0_must_be_finite_and_nonnegative(self, key, bad):
        assert RunConfig.loads(f"[flow]\n{key} = 0\n")["flow"][key] == 0.0
        with pytest.raises(ConfigError, match=rf"flow\.{key}: "):
            RunConfig.loads(f"[flow]\n{key} = {bad}\n")

    @pytest.mark.parametrize("key", ["rtol", "atol"])
    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
    def test_sampler_tolerances_must_be_finite_and_positive(self, key, bad):
        assert RunConfig.loads(f"[sampler]\n{key} = 1e-3\n")["sampler"][key] == 1e-3
        with pytest.raises(ConfigError, match=rf"sampler\.{key}: "):
            RunConfig.loads(f"[sampler]\n{key} = {bad}\n")

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
        assert run("offsets", "--invert", src, norm, "--out", tmp_path) == 0
        off = tmp_path / "off.tlf"
        back = tmp_path / "back.tlf"
        assert run("offsets", norm, off, "--out", tmp_path) == 0
        assert run("offsets", "--invert", off, back, "--out", tmp_path) == 0
        a = tlf.read_tlf(norm)
        b = tlf.read_tlf(back)
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.visibility.tobytes() == b.visibility.tobytes()

    @pytest.mark.parametrize("value", ["-1e-05", "-2E+3", "-1.5e-07"])
    @pytest.mark.parametrize("flag, kind", [("--vx", "translation"), ("--vy", "translation"),
                                            ("--omega", "rotation"), ("--zoom-rate", "zoom"),
                                            ("--shear-rate", "shear")])
    def test_negative_float_with_an_exponent_is_a_value(self, tmp_path, flag, kind, value):
        """argparse's own negative-number pattern has no exponent, so `--vy -1e-05`
        used to exit 1 with "expected one argument"."""
        spaced, joined = tmp_path / "spaced.tlf", tmp_path / "joined.tlf"
        scene = ("--kind", kind, "--frames", 4, "--out", tmp_path)
        assert run("synth", spaced, flag, value, *scene) == 0
        assert run("synth", joined, f"{flag}={value}", *scene) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("flag, value, field", [("--stride", 0, "stride"),
                                                     ("--height", 0, "height"),
                                                     ("--vx", "nan", "velocity")])
    def test_bad_scene_value_exits_1_naming_the_field(self, tmp_path, capsys, flag, value,
                                                      field):
        out = tmp_path / "s.tlf"
        assert run("synth", out, flag, value, "--out", tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} must be")
        assert not out.exists()

    @pytest.mark.parametrize("flags, field", [
        (("--height", 10 ** 31, "--width", 10 ** 31, "--stride", 10 ** 31), "height"),
        (("--height", 2 ** 40, "--width", 2 ** 40, "--stride", 2 ** 40), "height"),
        (("--frames", 2 ** 32), "frames")], ids=["1e31", "2**40", "frames-2**32"])
    def test_frame_size_the_tlf_header_cannot_hold_exits_1_naming_the_field(
            self, tmp_path, capsys, flags, field):
        """frames, height, width and stride are u32 fields of the TLF header."""
        out = tmp_path / "s.tlf"
        assert run("synth", out, *flags, "--out", tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {field} must be an integer from 1 to 2**32 - 1, got {flags[1]}"]
        assert list(tmp_path.iterdir()) == []

    def test_malformed_tlf_gives_exit_2(self, tmp_path):
        bad = tmp_path / "bad.tlf"
        bad.write_bytes(b"garbage")
        assert run("offsets", "--invert", bad, tmp_path / "out.tlf") == 2

    def test_bad_config_gives_exit_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[vae]\nnot_a_key = 3\n")
        assert run("train-vae", "--config", cfg, "--out", tmp_path) == 3

    def test_zero_training_steps_give_exit_3_and_write_nothing(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[vae]\nsteps = 0\n")
        assert run("train-vae", "--config", cfg, "--out", tmp_path) == 3
        assert not (tmp_path / "vae.ckpt").exists()

    def test_train_vae_of_two_window_lengths_exits_3_naming_the_keys(self, tmp_path, capsys):
        # a valid config (train-flow runs on it) whose history and future
        # windows differ in length, which the VAE's one training set cannot mix
        cfg = tmp_path / "uneven.cfg"
        cfg.write_text("[data]\npast = 6\nframes = 16\n")
        RunConfig.load(cfg)
        assert run("train-vae", "--config", cfg, "--out", tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in ("data.past", "data.frames", "6-frame", "10-frame"))
        assert not (tmp_path / "vae.ckpt").exists()


def _bad_value(key, value):
    """A config setting `key` ("section.name") to `value`, run by the first
    command that reads that section."""
    section, name = key.split(".")
    command = {"flow": "train-flow", "finetune": "finetune"}.get(section, "train-vae")
    return pytest.param(command, f"[{section}]\n{name} = {value}\n".encode(), f"{key}: ",
                        id=f"{key}={value}")


# (command, config bytes, what stderr must name); each fails at load
MALFORMED_CONFIGS = [
    pytest.param("train-vae", b"[vae]\nlr = 1\nlr = 2\n", "vae.lr: ", id="duplicate-key"),
    pytest.param("train-vae", b"[run]\nout = a%b\n", "run.out: ", id="interpolation"),
    pytest.param("train-vae", b"[vae]\nlr = 1\n[vae]\nbatch = 2\n", "section 'vae'",
                 id="duplicate-section"),
    pytest.param("train-vae", b"lr = 1\n", "lr = 1", id="no-section-header"),
    pytest.param("train-vae", b"[DEFAULT]\nsteps = 2\n", "unknown section [DEFAULT]",
                 id="default-section"),
    pytest.param("train-vae", b"[vae]\nlr = 1\xff\n", "utf-8", id="not-utf8"),
    pytest.param("train-vae", b"[vae]\nsteps = abc\n",
                 "vae.steps: 'abc' (invalid literal for int() with base 10: 'abc')",
                 id="not-an-integer"),
    pytest.param("train-vae", b"[vae]\nhops = 0\nhop_weights = 1\n", "vae.hops: ",
                 id="zero-hop"),
    *[pytest.param("train-vae", f"[vae]\nhops = {hops}\nhop_weights = {weights}\n".encode(),
                   "vae.hops: hops must be below the frame's longer side 32", id=f"hops={hops}")
      for hops, weights in [("64", "1"), ("1 64", "1 1")]],
    *[_bad_value(key, value) for key, value in [
        ("vae.patch", 0), ("vae.temporal_ratio", 0), ("data.scenes", 0), ("data.scenes", -1),
        ("data.past", 0), ("data.past", 16), ("data.past", 4), ("data.stride", 3),
        ("vae.batch", 0), ("vae.hidden", 0), ("vae.hops", 0), ("vae.hops", "1 2"),
        ("vae.lr", -1), ("vae.clip_norm", "nan"), ("vae.clip_norm", -1), ("flow.batch", 0),
        ("finetune.k_steps", 0), ("finetune.k_steps", 1), ("run.seed", -1),
        ("data.kind", "mixed-regions"), ("finetune.sub_batch", 16)]],
    pytest.param("train-flow", b"[flow]\nbatch = 4\n", "finetune.sub_batch: ",
                 id="flow.batch-below-sub_batch"),
    # key names that no config has any more
    *[pytest.param("train-vae", f"[{section}]\n{name} = 1\n".encode(),
                   f"unknown key {section}.{name}", id=f"old-{section}.{name}")
      for section, name in [("vae", "grad_clip"), ("flow", "grad_clip"), ("vae", "huber_delta"),
                            ("finetune", "t_eps"), ("finetune", "denom_clamp")]],
    pytest.param("train-flow", b"[flow]\nanchor_mode = first-slice\n",
                 "unknown key flow.anchor_mode", id="old-flow.anchor_mode"),
    # the sampler's own module config checks its keys, in the words of the config's rules
    *[pytest.param("train-vae", f"[sampler]\n{key} = {value}\n".encode(),
                   f"bad value for sampler.{key}: {key} must be {words}, got {got}",
                   id=f"sampler.{key}={value}")
      for key, value, words, got in [("method", "rk4", "one of euler, dopri5", "'rk4'"),
                                     ("steps", 0, "an integer >= 1", 0),
                                     ("rtol", 0, "a finite number > 0", 0.0)]],
]


class TestMalformedConfig:
    @pytest.mark.parametrize("command,body,needle", MALFORMED_CONFIGS)
    def test_exits_3_naming_the_key_and_writes_nothing(self, tmp_path, capsys, command, body,
                                                       needle):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(body)
        out = tmp_path / "out"
        extra = {"train-flow": ["--vae", tmp_path / "absent.ckpt"],
                 "finetune": ["--ckpt", tmp_path / "absent.ckpt"]}.get(command, [])
        assert run(command, "--config", cfg, *extra, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err and str(cfg) in err
        assert not out.exists()


def _bundle_parts():
    """An untrained bundle of the default configs: real parameter blocks, so it
    can sample."""
    rng = gc.rng(0)
    blocks = {f"vae/{k}": v for k, v in init_vae_params(VaeConfig(), rng).items()}
    blocks.update({f"flow/{k}": v for k, v in init_velocity_params(FlowConfig(), rng).items()})
    blocks.update({"stats/mean": np.zeros(8), "stats/std": np.ones(8)})
    meta = {"vae_cfg": asdict(VaeConfig()), "flow_cfg": asdict(FlowConfig()), "seed": 0}
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


def _flow_cfg_of(**changes):  # flow config and matching flow blocks, out of step with the VAE
    def corrupt(blocks, meta):
        cfg = FlowConfig(**changes)
        for k in [k for k in blocks if k.startswith("flow/")]:
            del blocks[k]
        blocks.update({f"flow/{k}": v for k, v in init_velocity_params(cfg, gc.rng(0)).items()})
        meta["flow_cfg"] = asdict(cfg)
    return corrupt


def _flow_cfg_value(key, value):
    def corrupt(blocks, meta):
        meta["flow_cfg"][key] = value
    return corrupt


BAD_META = [pytest.param(corrupt, field, id=name) for corrupt, field, name in [
    (_flow_cfg_of(latent_channels=4), "latent_channels", "latent_channels"),
    (_flow_cfg_of(n_tokens=8), "n_tokens", "n_tokens"),
    *[(_flow_cfg_value("sigma0", v), "sigma0", f"sigma0={v!r}")
      for v in (-0.1, float("nan"), float("inf"), "0.1", True)]]]


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
        (_short_stats, "stats/mean")] + BAD_META)
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

    def test_bundle_of_the_old_layout_gives_exit_2(self, tmp_path, capsys):
        # sigma0 was a top-level key before FlowConfig held it
        blocks, meta = _bundle_parts()
        meta["sigma0"] = meta["flow_cfg"].pop("sigma0")
        path = tmp_path / "old.ckpt"
        tlf.save_checkpoint(path, blocks, meta)
        assert run("sample", "--ckpt", path, "--history", tmp_path / "absent.tlf",
                   "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "flow_cfg" in err and "sigma0" in err

    def test_bundle_that_names_an_anchor_mode_gives_exit_2(self, tmp_path, capsys):
        # every bundle written while FlowConfig had an anchor_mode holds one
        blocks, meta = _bundle_parts()
        meta["flow_cfg"]["anchor_mode"] = "first-slice"
        path = tmp_path / "old.ckpt"
        tlf.save_checkpoint(path, blocks, meta)
        assert run("sample", "--ckpt", path, "--history", tmp_path / "absent.tlf",
                   "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
        assert ("flow_cfg metadata does not match FlowConfig: missing [], "
                "unknown ['anchor_mode']") in err

    @pytest.mark.parametrize("patch", [8.0, "8", True, None])
    def test_train_flow_rejects_a_patch_that_is_no_integer(self, tmp_path, capsys, patch):
        path = tmp_path / "vae.ckpt"
        tlf.save_checkpoint(path, {"vae/enc.w": np.ones(2)},
                            {"vae_cfg": {**asdict(VaeConfig()), "patch": patch}})
        assert run("train-flow", "--vae", path, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad vae_cfg metadata: patch must be an integer >= 1" in err

    def test_train_flow_rejects_zero_patch(self, tmp_path, capsys):
        path = tmp_path / "vae.ckpt"
        tlf.save_checkpoint(path, {"vae/enc.w": np.ones(2)},
                            {"vae_cfg": {**asdict(VaeConfig()), "patch": 0}})
        assert run("train-flow", "--vae", path, "--out", tmp_path) == 2
        assert "bad vae_cfg metadata: patch must be" in capsys.readouterr().err

    def test_train_flow_rejects_extra_vae_cfg_key(self, tmp_path, capsys):
        path = tmp_path / "vae.ckpt"
        tlf.save_checkpoint(path, {"vae/enc.w": np.ones(2)},
                            {"vae_cfg": {**asdict(VaeConfig()), "bogus": 1}})
        assert run("train-flow", "--vae", path, "--out", tmp_path) == 2
        assert "vae_cfg" in capsys.readouterr().err


class TestVaeThatDoesNotFitTheConfig:
    @pytest.mark.parametrize("vae,body,message", [
        (VaeConfig(latent_channels=4), "", "vae_cfg.latent_channels is 4, but the config gives 8"),
        (VaeConfig(height=64, width=64), "", "vae_cfg.height is 64, but the config gives 32")],
        ids=["latent_channels", "frame-size"])
    def test_train_flow_exits_1_naming_the_checkpoint_before_training(self, tmp_path, capsys,
                                                                      vae, body, message):
        path, cfg, out = tmp_path / "vae.ckpt", tmp_path / "run.cfg", tmp_path / "out"
        blocks = {f"vae/{k}": v for k, v in init_vae_params(vae, gc.rng(0)).items()}
        tlf.save_checkpoint(path, blocks, {"vae_cfg": asdict(vae)})
        cfg.write_text(body)
        assert run("train-flow", "--config", cfg, "--vae", path, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not any(out.iterdir())

    def test_finetune_exits_1_naming_the_bundle_before_training(self, tmp_path, capsys):
        path, cfg, out = tmp_path / "flow.ckpt", tmp_path / "run.cfg", tmp_path / "out"
        tlf.save_checkpoint(path, *_bundle_parts())  # a 32x32 VAE
        cfg.write_text("[data]\nheight = 64\nwidth = 64\n")
        assert run("finetune", "--config", cfg, "--ckpt", path, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: vae_cfg.height is 32, but the config gives 64\n")
        assert not any(out.iterdir())


class TestBundleThatDoesNotFitItsInput:
    @pytest.mark.parametrize("body,message", [
        ("[data]\npast = 12\n", "flow_cfg.history_steps is 2, but data.past = 12 gives 3"),
        ("[data]\nframes = 20\n",
         "flow_cfg.future_steps is 2, but data.frames - data.past = 12 gives 3")],
        ids=["past", "frames"])
    def test_finetune_of_other_latent_steps_exits_1_naming_the_bundle_and_key(
            self, tmp_path, capsys, body, message):
        path, cfg, out = tmp_path / "flow.ckpt", tmp_path / "run.cfg", tmp_path / "out"
        tlf.save_checkpoint(path, *_bundle_parts())  # 2 history and 2 future latent steps
        cfg.write_text(body)
        assert run("finetune", "--config", cfg, "--ckpt", path, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("height,width,field,value", [
        (64, 64, "height", 64), (32, 64, "width", 64), (16, 32, "height", 16)])
    def test_sample_of_another_frame_size_exits_1_naming_both_files(
            self, tmp_path, capsys, height, width, field, value):
        path, hist, out = tmp_path / "flow.ckpt", tmp_path / "hist.tlf", tmp_path / "out"
        tlf.save_checkpoint(path, *_bundle_parts())  # a 32x32 VAE
        run("synth", hist, "--frames", 8, "--height", height, "--width", width, "--out", tmp_path)
        capsys.readouterr()
        assert run("sample", "--ckpt", path, "--history", hist, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: vae_cfg.{field} is 32, but {hist} has {field} {value}\n")
        assert not any(out.iterdir())


def _checkpoint_with(path, damage):
    """A one-block checkpoint's bytes with `damage`: a metadata tail of
    200 000 nested `[`, its one block written twice, a tail length 5 bytes
    past the end of the file, or one byte after the tail."""
    meta = b'{"seed": 1}'
    tlf.save_checkpoint(path, {"vae/w": np.arange(3.0)}, {"seed": 1})
    raw = path.read_bytes()
    head, block = raw[:8], raw[12:-4 - len(meta)]
    if damage == "deep-tail":
        return raw[:-4 - len(meta)] + struct.pack("<I", 200_000) + b"[" * 200_000
    if damage == "repeated-block":
        return head + struct.pack("<I", 2) + block * 2 + raw[-4 - len(meta):]
    if damage == "long-tail":
        return raw[:-4 - len(meta)] + struct.pack("<I", len(meta) + 5) + meta
    return raw + b" "


class TestMalformedCheckpointLayout:
    @pytest.mark.parametrize("command", ["sample", "finetune", "train-flow"])
    @pytest.mark.parametrize("damage,reason", [
        ("deep-tail", "truncated or corrupt checkpoint"),
        ("repeated-block", "block vae/w appears twice"),
        ("long-tail", "metadata of 16 bytes does not end the file (11 bytes follow its length)"),
        ("trailing-byte", "metadata of 11 bytes does not end the file (12 bytes follow its length)")],
        ids=["deep-tail", "repeated-block", "long-tail", "trailing-byte"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, damage, reason):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_checkpoint_with(path, damage))
        argv = {"sample": ["--ckpt", path, "--history", tmp_path / "absent.tlf"],
                "finetune": ["--ckpt", path], "train-flow": ["--vae", path]}[command]
        assert run(command, *argv, "--out", tmp_path / "runs") == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: {reason}\n"


def _history_scene(tmp_path):
    hist = tmp_path / "hist.tlf"
    run("synth", hist, "--kind", "translation", "--vx", 0.5, "--frames", 8, "--out", tmp_path)
    return hist


def _patch_floats(path, replacements):
    """Overwrite, in a saved checkpoint, the float32 bytes of each finite
    marker value with those of its replacement (save_checkpoint refuses a
    non-finite block, so a test writes one this way)."""
    raw = path.read_bytes()
    for marker, value in replacements.items():
        old = np.float32(marker).tobytes()
        assert raw.count(old) == 1
        raw = raw.replace(old, np.float32(value).tobytes())
    path.write_bytes(raw)


class TestNonFiniteValues:
    """A TLF writer refuses what `read_tlf` refuses (exit 4, numeric); a
    checkpoint with a non-finite parameter block is malformed (exit 2), and
    its writer refuses to write one (exit 4)."""

    @pytest.mark.parametrize("value", [np.nan, 1e39])  # 1e39 is inf in float32
    def test_write_tlf_names_the_fault_and_writes_nothing(self, tmp_path, value):
        record = tlf.from_tracks(generate(MotionSpec("translation", frames=4)))
        coords = record.coords.astype(np.float64)
        coords[2, 5, 1] = value
        path = tmp_path / "bad.tlf"
        with pytest.raises(FloatingPointError) as exc:
            tlf.write_tlf(path, tlf.TlfFile(coords, record.visibility, record.height,
                                            record.width, record.stride, record.convention))
        assert str(exc.value) == f"{path}: non-finite coordinate at frame 2, track 5; " \
                                 "nothing written"
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])  # 1e39 is inf in float32
    def test_save_checkpoint_names_the_block_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        with pytest.raises(FloatingPointError) as exc:
            tlf.save_checkpoint(path, {"a/w": np.ones(2), "b/w": np.array([1.0, value])})
        assert str(exc.value) == f"{path}: block b/w has a non-finite value; nothing written"
        assert not path.exists()

    def test_train_vae_of_non_finite_parameters_exits_4_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        real = flowgen.train_vae

        def inf_params(*args, **kwargs):
            params, curve = real(*args, **kwargs)
            params["dec.head.b"] = np.full(params["dec.head.b"].shape, np.inf)
            return params, curve
        monkeypatch.setattr(flowgen, "train_vae", inf_params)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[data]\nscenes = 2\n\n[vae]\nsteps = 1\nbatch = 2\n")
        capsys.readouterr()
        assert run("train-vae", "--config", cfg, "--out", tmp_path / "vae") == 4
        out = capsys.readouterr()
        assert out.err == (f"error: {tmp_path / 'vae' / 'vae.ckpt'}: block vae/dec.head.b has "
                           "a non-finite value; nothing written\n")
        assert not (tmp_path / "vae" / "vae.ckpt").exists()

    def test_load_checkpoint_names_the_non_finite_block(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tlf.save_checkpoint(path, {"a/w": np.ones(2), "b/w": np.array([1.0, 2.5e5, 3.5e5])})
        _patch_floats(path, {2.5e5: np.nan, 3.5e5: np.inf})
        with pytest.raises(tlf.TlfError) as exc:
            tlf.load_checkpoint(path)
        assert str(exc.value) == f"{path}: block b/w has a non-finite value"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_sample_exits_2_on_a_non_finite_block(self, tmp_path, capsys, value):
        blocks, meta = _bundle_parts()
        blocks["vae/dec.head.b"] = blocks["vae/dec.head.b"].copy()
        blocks["vae/dec.head.b"][1] = 2.5e5
        path = tmp_path / "bad.ckpt"
        tlf.save_checkpoint(path, blocks, meta)
        _patch_floats(path, {2.5e5: value})
        hist = _history_scene(tmp_path)
        capsys.readouterr()
        assert run("sample", "--ckpt", path, "--history", hist, "--out", tmp_path / "runs") == 2
        out = capsys.readouterr()
        assert out.err == f"error: {path}: block vae/dec.head.b has a non-finite value\n"
        assert out.out == "" and not (tmp_path / "runs" / "future.tlf").exists()

    @pytest.mark.parametrize("fault", ["nan", "overflow"])
    def test_sample_of_a_non_finite_future_exits_4_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, fault):
        blocks, meta = _bundle_parts()
        if fault == "overflow":  # finite float32 weights whose decoded offsets are not
            blocks["vae/dec.head.w"] = np.full(blocks["vae/dec.head.w"].shape, 3e38)
        else:  # a NaN the solve or the decoder produced from finite parameters
            real = flowgen.sample_future

            def nan_future(*args, **kwargs):
                field, vis = real(*args, **kwargs)
                field.offsets[1] = np.nan
                return field, vis
            monkeypatch.setattr(flowgen, "sample_future", nan_future)
        path = tmp_path / "b.ckpt"
        tlf.save_checkpoint(path, blocks, meta)
        hist = _history_scene(tmp_path)
        runs = tmp_path / "runs"
        capsys.readouterr()
        assert run("sample", "--ckpt", path, "--history", hist, "--out", runs) == 4
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert len(lines) == 1 and out.out == ""
        assert lines[0].startswith(f"error: {runs / 'future.tlf'}: non-finite coordinate at frame ")
        assert lines[0].endswith("; nothing written")
        if fault == "nan":
            assert "at frame 1, track 0;" in lines[0]
        assert not (runs / "future.tlf").exists() and not (runs / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["synth", "train-vae"])
    def test_a_numeric_abort_prints_one_line_and_no_warning(self, tmp_path, capsys, command):
        """pytest sends Python warnings to its summary, not to capsys, so they
        are caught here: a real process prints them above its `error:` line."""
        if command == "synth":  # (1 + 1e300) ** 3 overflows
            path = tmp_path / "z.tlf"
            argv, want = (["synth", path, "--kind", "zoom", "--zoom-rate", "1e300",
                           "--frames", 4],
                          f"error: {path}: non-finite coordinate at frame 1, track 0; "
                          "nothing written")
        else:
            cfg = tmp_path / "lr.cfg"
            cfg.write_text("[vae]\nlr = 1e6\nsteps = 2\n")
            argv, want = ["train-vae", "--config", cfg], \
                "error: train_vae: non-finite loss at step 1"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--out", tmp_path / "out") == 4
        assert capsys.readouterr().err.splitlines() == [want]
        assert [f"{w.category.__name__}: {w.message}" for w in caught] == []


class TestSampleConfig:
    @pytest.mark.parametrize("body,key", [("steps = 0", "steps"),
                                          ("method = dopri5\nrtol = -1", "rtol"),
                                          ("method = dopri5\natol = nan", "atol")])
    def test_bad_sampler_key_gives_exit_3(self, tmp_path, capsys, body, key):
        path = tmp_path / "ok.ckpt"
        tlf.save_checkpoint(path, *_bundle_parts())
        hist = tmp_path / "hist.tlf"
        run("synth", hist, "--kind", "translation", "--vx", 0.5, "--frames", 8, "--out", tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[sampler]\n{body}\n")
        capsys.readouterr()
        assert run("sample", "--ckpt", path, "--history", hist, "--config", cfg,
                   "--out", tmp_path) == 3
        assert f"sampler.{key}" in capsys.readouterr().err

    def test_config_is_read_before_the_checkpoint(self, tmp_path):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"garbage")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[sampler]\nsteps = 0\n")
        assert run("sample", "--ckpt", ckpt, "--history", tmp_path / "absent.tlf",
                   "--config", cfg, "--out", tmp_path) == 3


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [["synth"], ["bogus"], ["eval", "x.tlf", "--metric", "bogus"],
                                      [], ["gradcheck", "--seeds", "-1"],
                                      ["sample", "--ckpt", "a.ckpt", "--history", "h.tlf",
                                       "--preset", "desk"]],
                             ids=["missing-argument", "unknown-command", "bad-choice", "empty",
                                  "negative-count", "sample-preset"])
    def test_usage_error_exits_1_with_argparse_message(self, capsys, argv):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: trajkit") and "error:" in err

    def test_negative_sample_seed_names_the_argument(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sample", "--ckpt", tmp_path / "absent.ckpt", "--history",
                   tmp_path / "absent.tlf", "--seed", "-1", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: trajkit") and "argument --seed" in err
        assert not out.exists()

    def test_preset_with_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[vae]\nsteps = 1\n")
        assert run("train-vae", "--config", cfg, "--preset", "desk", "--out", tmp_path) == 3
        assert capsys.readouterr().err == "error: --preset and --config are mutually exclusive\n"

    def test_help_exits_0(self, capsys):
        assert dispatch(["--help"]) == 0
        assert dispatch(["eval", "--help"]) == 0
        assert "--metric" in capsys.readouterr().out

    def test_eval_single_spacing_is_a_usage_error(self, tmp_path, capsys):
        scene = tmp_path / "s.tlf"
        run("synth", scene, "--kind", "rotation", "--omega", 0.05, "--frames", 6, "--out", tmp_path)
        capsys.readouterr()
        assert run("eval", scene, "--metric", "divcurle", "--single-spacing",
                   "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: trajkit")
        assert err.endswith("error: unrecognized arguments: --single-spacing\n")
        assert not (tmp_path / "o").exists()


class TestZeroFrameRecord:
    def test_record_of_no_frames_is_refused(self):
        with pytest.raises(tlf.TlfError, match="^no frames: "):
            tlf.TlfFile(np.zeros((0, 16, 2)), np.zeros((0, 16)), 32, 32, 8, tlf.CONV_PIXEL)

    @pytest.mark.parametrize("height,width", [(0, 0), (0, 32), (32, 0)])
    def test_record_of_no_grid_rows_or_columns_is_refused(self, height, width):
        n = (height // 8) * (width // 8)
        with pytest.raises(tlf.TlfError, match=f"^frame {height}x{width} / stride 8 has no grid"):
            tlf.TlfFile(np.zeros((4, n, 2)), np.zeros((4, n)), height, width, 8, tlf.CONV_PIXEL)


MALFORMED_METRICS = {
    "header": ("a,b\n1,2\n", "line 1: header is not dataset,method,metric,value"),
    "header-only": ("a,b\n", "line 1: header is not dataset,method,metric,value"),
    "short-row": ("dataset,method,metric,value\na,b\n", "line 2: 2 fields, not 4"),
    "value": ("dataset,method,metric,value\ns,m,flowtv,1.5\ns,m,flowtv,x\n",
              "line 3: value 'x' is not a number"),
}


class TestMalformedMetricsCsv:
    @pytest.mark.parametrize("case", list(MALFORMED_METRICS))
    def test_read_names_the_file_and_the_line(self, tmp_path, case):
        body, fault = MALFORMED_METRICS[case]
        path = tmp_path / "metrics.csv"
        path.write_text(body)
        with pytest.raises(ValueError) as exc:
            plotting.read_metrics_csv(path)
        assert str(exc.value) == f"{path}: {fault}"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("dataset,method,metric,value\n\ns,m,flowtv,1.5\n\n")
        assert plotting.read_metrics_csv(path) == [
            {"dataset": "s", "method": "m", "metric": "flowtv", "value": 1.5}]

    @pytest.mark.parametrize("command", ["plot", "eval"])
    @pytest.mark.parametrize("case", list(MALFORMED_METRICS))
    def test_command_exits_1_with_one_error_line_and_keeps_the_file(self, tmp_path, capsys,
                                                                    command, case):
        body, fault = MALFORMED_METRICS[case]
        runs = tmp_path / "runs"
        runs.mkdir()
        path = runs / "metrics.csv"
        path.write_text(body)
        if command == "plot":
            argv = ["plot", runs, "--out", tmp_path / "figs"]
        else:
            scene = tmp_path / "move.tlf"
            run("synth", scene, "--kind", "translation", "--vx", 1, "--frames", 8,
                "--out", tmp_path)
            argv = ["eval", scene, "--metric", "flowtv", "--out", runs]
        capsys.readouterr()
        assert run(*argv) == 1
        out = capsys.readouterr()
        assert out.err == f"error: {path}: {fault}\n" and out.out == ""
        assert path.read_text() == body

    def test_bytes_that_are_not_text_name_the_file(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        path = runs / "metrics.csv"
        path.write_bytes(b"dataset,method,metric,value\ns,m,flowtv,\xff\n")
        fault = f"{path}: not utf-8 text (invalid start byte)"
        with pytest.raises(ValueError) as exc:
            plotting.read_metrics_csv(path)
        assert str(exc.value) == fault
        assert run("plot", runs, "--out", tmp_path / "figs") == 1
        out = capsys.readouterr()
        assert out.err == f"error: {fault}\n" and out.out == ""


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

    @pytest.mark.parametrize("ref_args,ref_shape", [
        (["--frames", 8, "--height", 64, "--width", 64], "(8, 64, 64, 8)"),
        (["--frames", 1], "(1, 32, 32, 8)"),
        # the same 4x4 grid of tracks, over another frame size at another stride
        (["--frames", 8, "--height", 64, "--width", 64, "--stride", 16], "(8, 64, 64, 16)")],
        ids=["other-grid", "other-frames", "other-frame-size-and-stride"])
    def test_vepe_refuses_a_reference_of_another_shape(self, tmp_path, capsys, ref_args,
                                                       ref_shape):
        scene, ref = tmp_path / "s.tlf", tmp_path / "ref.tlf"
        run("synth", scene, "--kind", "translation", "--vx", 1, "--frames", 8, "--out", tmp_path)
        run("synth", ref, "--kind", "translation", "--vx", 1, *ref_args, "--out", tmp_path)
        run("eval", scene, "--metric", "flowtv", "--out", tmp_path)
        before = (tmp_path / "metrics.csv").read_bytes()
        capsys.readouterr()
        assert run("eval", scene, "--metric", "vepe", "--ref", ref, "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            f"error: vepe: {scene} has (frames, height, width, stride) (8, 32, 32, 8), "
            f"but {ref} has {ref_shape}\n")
        assert (tmp_path / "metrics.csv").read_bytes() == before

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
        for name in ("recon_loss", "temporal_loss", "spatial_loss"):
            assert f"{name}[seed 1]: " in out and f"{name}[seed 0, masked]: " in out


class TestBundleIO:
    def test_bundle_round_trip(self, tmp_path, tiny_bundle):
        bundle, _, _ = tiny_bundle
        path = tmp_path / "bundle.ckpt"
        save_bundle(path, bundle, seed=3)
        loaded = load_bundle(path)
        assert sorted(tlf.load_checkpoint(path)[1]) == ["flow_cfg", "seed", "vae_cfg"]
        assert loaded.vae_cfg == bundle.vae_cfg
        assert loaded.flow_cfg == bundle.flow_cfg
        for k, v in bundle.flow_params.items():
            assert np.allclose(loaded.flow_params[k], v.astype(np.float32), atol=1e-7)

    @staticmethod
    def _saved(tmp_path, tiny_bundle):
        """tiny_bundle with a visibility head, and the path it is saved to."""
        bundle = tiny_bundle[0]
        bundle = replace(bundle, vis_params=init_visibility_params(bundle.flow_cfg, gc.rng(4)))
        path = tmp_path / "bundle.ckpt"
        save_bundle(path, bundle, seed=3)
        return bundle, path

    def test_loaded_blocks_are_the_files_read_only_float32(self, tmp_path, tiny_bundle):
        _, path = self._saved(tmp_path, tiny_bundle)
        loaded = load_bundle(path)
        vae_params, _ = tlf.load_vae(path)
        for params in (loaded.vae_params, loaded.flow_params, loaded.vis_params, vae_params):
            for name, v in params.items():
                assert v.dtype == np.float32, name
                with pytest.raises(ValueError, match="read-only"):
                    v[...] = 0

    @pytest.mark.parametrize("sampler", [{"method": "euler", "steps": 10}, {"method": "dopri5"}],
                             ids=["euler10", "dopri5"])
    def test_a_loaded_bundle_samples_the_bytes_of_the_saved_one(self, tmp_path, tiny_bundle,
                                                                sampler):
        bundle, path = self._saved(tmp_path, tiny_bundle)
        pairs = tiny_bundle[1]
        history = OffsetField(pairs.past[0], pairs.past_masks[0], stride=8)
        got, want = (flowgen.sample_future(history, b, sampler, seed=13)
                     for b in (load_bundle(path), bundle))
        assert got[0].offsets.tobytes() == want[0].offsets.tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_finetune_of_a_loaded_bundle_equals_it_widened_by_hand(self, tmp_path, tiny_bundle):
        _, path = self._saved(tmp_path, tiny_bundle)
        _, pairs, fcfg = tiny_bundle
        loaded = load_bundle(path)
        wide = replace(loaded, **{name: {k: v.astype(np.float64)
                                         for k, v in getattr(loaded, name).items()}
                                  for name in ("vae_params", "flow_params", "vis_params")})
        ft_cfg = flowgen.FinetuneConfig(steps=2, k_steps=2, sub_batch=2)
        got, want = (flowgen.finetune_onpolicy(b, pairs, fcfg, ft_cfg, seed=3)[0].flow_params
                     for b in (loaded, wide))
        assert got.keys() == want.keys()
        for k in got:
            assert np.asarray(got[k]).dtype == np.float64, k
            assert np.asarray(got[k]).tobytes() == np.asarray(want[k]).tobytes(), k

    def test_saving_a_loaded_bundle_rewrites_its_file(self, tmp_path, tiny_bundle):
        _, path = self._saved(tmp_path, tiny_bundle)
        save_bundle(tmp_path / "again.ckpt", load_bundle(path), seed=3)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


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

    @pytest.mark.parametrize("frames", [4, 12])
    def test_history_of_another_latent_length_gives_exit_1_naming_range(
            self, tmp_path, capsys, tiny_bundle, frames):
        bundle, _, _ = tiny_bundle
        save_bundle(tmp_path / "bundle.ckpt", bundle, seed=3)
        hist = tmp_path / "hist.tlf"
        run("synth", hist, "--kind", "translation", "--vx", 0.5, "--frames", frames,
            "--out", tmp_path)
        capsys.readouterr()
        code = run("sample", "--ckpt", tmp_path / "bundle.ckpt", "--history", hist,
                   "--out", tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'bundle.ckpt'}: flow_cfg.history_steps is 2, but the {frames} "
            f"frames of {hist} (temporal_ratio 4) give {frames // 4}\n")


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
        dense = to_absolute(rasterize(tlf.to_tracks(record)).offsets)
        positions, _ = tlf.coarse_pixel_positions(record)
        first_track = [tuple(map(float, p.split(","))) for p in pts[0].split()]
        want = positions[:, 0, 0, :]
        got = np.array(first_track)
        assert np.allclose(got, want, atol=1e-5)
        # and the TLF positions agree with the dense decode path
        c = record.stride // 2
        assert np.allclose(
            positions[:, 0, 0, :],
            np.stack([(dense[:, c, c, 0] + 1) * record.width / 2 - 0.5,
                      (dense[:, c, c, 1] + 1) * record.height / 2 - 0.5], axis=-1),
            atol=1e-5)

    def test_empty_metrics_gives_header_only(self, tmp_path):
        rundir = tmp_path / "runB"
        rundir.mkdir()
        assert run("plot", rundir, "--out", tmp_path / "figs") == 0
        text = (tmp_path / "figs" / "metrics_table.csv").read_text()
        assert text.strip() == ",".join(plotting.METRIC_COLUMNS)

    def test_empty_curve_gives_the_step_header(self):
        assert plotting.curve_csv([]) == "step\n"

    def test_a_run_that_is_no_directory_exits_1(self, tmp_path, capsys):
        scene = tmp_path / "scene.tlf"
        run("synth", scene, "--frames", 4, "--out", tmp_path)
        capsys.readouterr()
        assert run("plot", scene, "--out", tmp_path / "figs") == 1
        assert capsys.readouterr().err == f"error: {scene} is not a run directory\n"
        assert not (tmp_path / "figs" / "metrics_table.csv").exists()

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

    @pytest.mark.parametrize("argv", [
        ["synth", "{d}/new.tlf", "--kind", "zoom", "--zoom-rate", "0.01"],
        pytest.param(["offsets", "--invert", "{s}", "{d}/r.tlf"], id="offsets-invert"),
        ["offsets", "{s}", "{d}/o.tlf"],
        ["analyze-variance", "{s}"],
        ["eval", "{s}", "--metric", "flowtv"],
        ["camcap", "{s}"],
        ["gradcheck", "--seeds", "1"],
        ["plot", "{s_dir}"],
    ], ids=lambda argv: argv[0])
    def test_every_command_leaves_a_manifest_listing_its_outputs(self, tmp_path, argv):
        scene = tmp_path / "src" / "s.tlf"
        run("synth", scene, "--kind", "translation", "--vx", 0.5, "--vy", 0.25, "--frames", 12,
            "--out", scene.parent)
        d = tmp_path / "out"
        argv = [a.format(d=d, s=scene, s_dir=scene.parent) for a in argv]
        assert run(*argv, "--out", d) == 0
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["argv"] == [*argv, "--out", str(d)]
        assert bool(manifest["outputs"]) == (argv[0] != "gradcheck")
        assert all((d / name).is_file() for name in manifest["outputs"])
        assert manifest["seed"] == (0 if argv[0] == "synth" else None)

    def test_eval_hash_covers_every_argument(self, tmp_path):
        scene, ref = tmp_path / "s.tlf", tmp_path / "ref.tlf"
        run("synth", scene, "--kind", "rotation", "--omega", 0.05, "--frames", 6, "--out", tmp_path)
        run("synth", ref, "--kind", "static", "--frames", 6, "--out", tmp_path)
        base = ["eval", scene, "--metric", "divcurle"]
        hashes = []
        for i, extra in enumerate([[], ["--ref", ref], ["--method", "b"]]):
            assert run(*base, *extra, "--out", tmp_path / f"o{i}") == 0
            hashes.append(json.loads((tmp_path / f"o{i}" / "manifest.json").read_text())
                          ["config_sha256"])
        assert len(set(hashes)) == 3
        # --out is not part of the hash
        assert run(*base, "--out", tmp_path / "again") == 0
        again = json.loads((tmp_path / "again" / "manifest.json").read_text())
        assert again["config_sha256"] == hashes[0]

    def test_outputs_outside_out_are_recorded_relative_to_it(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for argv, written in [(["synth", a / "x.tlf", "--frames", 4], a / "x.tlf"),
                              (["offsets", a / "x.tlf", a / "o.tlf"], a / "o.tlf")]:
            assert run(*argv, "--out", b) == 0
            outputs = json.loads((b / "manifest.json").read_text())["outputs"]
            assert outputs == [os.path.join("..", "a", written.name)]
            assert (b / outputs[0]).resolve() == written.resolve()

    def test_reused_parser_leaks_no_state(self, tmp_path):
        cli.build_parser.cache_clear()
        scene = tmp_path / "s.tlf"
        run("synth", scene, "--kind", "translation", "--vx", 1, "--frames", 4, "--out", tmp_path)
        assert run("offsets", "--invert", scene, tmp_path / "n.tlf", "--out", tmp_path) == 0
        assert run("offsets", tmp_path / "n.tlf", tmp_path / "o.tlf", "--out", tmp_path) == 0
        assert tlf.read_tlf(tmp_path / "n.tlf").convention == tlf.CONV_NORMALIZED
        assert tlf.read_tlf(tmp_path / "o.tlf").convention == tlf.CONV_OFFSET
        assert cli.build_parser.cache_info().misses == 1


def _no_libc(name):
    raise OSError("no C library")


class TestAllocatorPolicy:
    def test_first_dispatch_calls_mallopt_once(self, monkeypatch, tmp_path):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_memory.cache_clear()
        for _ in range(3):
            assert run("synth", tmp_path / "s.tlf", "--frames", 4, "--out", tmp_path) == 0
        assert dispatch(["bogus"]) == 1
        assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 256 << 20)]

    @pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc], ids=["no-mallopt", "no-libc"])
    def test_exit_codes_without_mallopt(self, monkeypatch, tmp_path, capsys, cdll):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._keep_freed_memory.cache_clear()
        garbage, cfg, huge = tmp_path / "bad.tlf", tmp_path / "bad.cfg", tmp_path / "lr.cfg"
        garbage.write_bytes(b"garbage")
        cfg.write_text("[vae]\nnot_a_key = 3\n")
        huge.write_text("[vae]\nlr = 1e6\nsteps = 2\n")
        assert run("synth", tmp_path / "s.tlf", "--frames", 4, "--out", tmp_path) == 0
        assert run("synth") == 1
        assert run("offsets", "--invert", garbage, tmp_path / "r.tlf", "--out", tmp_path) == 2
        assert run("train-vae", "--config", cfg, "--out", tmp_path) == 3
        assert run("train-vae", "--config", huge, "--out", tmp_path) == 4

    def test_import_leaves_the_allocator_alone(self):
        src = str(Path(trajkit.__file__).parents[1])
        code = ("import trajkit, trajkit.cli as c; "
                "print(c._keep_freed_memory.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "0", proc.stderr


class TestProcess:
    def test_main_passes_exit_status_to_the_shell(self, tmp_path):
        src = str(Path(trajkit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        garbage, cfg, dup = tmp_path / "bad.tlf", tmp_path / "bad.cfg", tmp_path / "dup.cfg"
        garbage.write_bytes(b"garbage")
        cfg.write_text("[vae]\nnot_a_key = 3\n")
        dup.write_text("[vae]\nlr = 1\nlr = 2\n")
        vae = tmp_path / "vae.ckpt"  # a float where the config needs an integer
        tlf.save_checkpoint(vae, {f"vae/{k}": v for k, v in
                                  init_vae_params(VaeConfig(), gc.rng(0)).items()},
                            {"vae_cfg": {**asdict(VaeConfig()), "patch": 8.0}, "seed": 0})
        for code, argv in [(0, ["synth", tmp_path / "s.tlf", "--frames", 4]),
                           (1, ["synth"]),
                           (1, ["synth", tmp_path / "s.tlf", "--stride", 0]),
                           (1, ["synth", tmp_path / "s.tlf", "--height", 0]),
                           (1, ["synth", tmp_path / "s.tlf", "--vx", "nan"]),
                           (2, ["offsets", "--invert", garbage, tmp_path / "r.tlf"]),
                           (2, ["train-flow", "--vae", vae]),
                           (3, ["train-vae", "--config", cfg]),
                           (3, ["train-vae", "--config", dup])]:
            proc = subprocess.run([sys.executable, "-m", "trajkit.cli", *map(str, argv),
                                   "--out", str(tmp_path / "runs")],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == code, (argv, proc.stderr)
            assert "Traceback" not in proc.stderr
