"""End-to-end CLI pipeline on a tiny budget: checks wiring and artifacts,
not model quality (the acceptance suite owns quality)."""

import json

import numpy as np
import pytest

from trajkit import tlf
from trajkit.cli import dispatch
from trajkit.config import RunConfig

TINY_CONFIG = """\
[run]
seed = 5

[data]
kind = translation
scenes = 8
frames = 16
past = 8

[vae]
steps = 25
lr = 0.003
batch = 4
hidden = 24
blocks = 1
latent_channels = 4

[flow]
steps = 25
lr = 0.001
hidden = 24
blocks = 1
cond_hidden = 12
vis_steps = 25

[finetune]
steps = 4
sub_batch = 2
lr = 0.0003
"""


def run(*argv):
    return dispatch([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    assert run("train-vae", "--config", cfg, "--out", root / "vae") == 0
    assert run("train-flow", "--config", cfg, "--vae", root / "vae" / "vae.ckpt",
               "--out", root / "flow") == 0
    assert run("finetune", "--config", cfg, "--ckpt", root / "flow" / "flow.ckpt",
               "--out", root / "ft") == 0
    hist = root / "hist.tlf"
    assert run("synth", hist, "--kind", "translation", "--vx", "0.5", "--frames", "8",
               "--out", root) == 0
    assert run("sample", "--ckpt", root / "ft" / "finetuned.ckpt", "--history", hist,
               "--config", cfg, "--seed", "3", "--out", root / "samp") == 0
    return root


def test_artifacts_exist(pipeline):
    assert (pipeline / "vae" / "vae.ckpt").exists()
    assert (pipeline / "vae" / "vae_loss.csv").exists()
    assert (pipeline / "flow" / "flow.ckpt").exists()
    assert (pipeline / "ft" / "finetuned.ckpt").exists()
    assert (pipeline / "samp" / "future.tlf").exists()


def test_manifests_record_config_hash(pipeline):
    m = json.loads((pipeline / "flow" / "manifest.json").read_text())
    m2 = json.loads((pipeline / "ft" / "manifest.json").read_text())
    assert m["config_sha256"] == m2["config_sha256"]
    assert m["seed"] == 5


def test_config_commands_leave_a_manifest_listing_their_outputs(pipeline, tmp_path):
    samp = tmp_path / "samp"  # the pipeline's own sample directory also holds an eval
    assert run("sample", "--ckpt", pipeline / "ft" / "finetuned.ckpt",
               "--history", pipeline / "hist.tlf", "--config", pipeline / "tiny.cfg",
               "--seed", "3", "--out", samp) == 0
    for command, d, seed in [("train-vae", pipeline / "vae", 5),
                             ("train-flow", pipeline / "flow", 5),
                             ("finetune", pipeline / "ft", 5), ("sample", samp, 3)]:
        m = json.loads((d / "manifest.json").read_text())
        assert (m["command"], m["argv"][0], m["seed"]) == (command, command, seed)
        assert m["config_sha256"] == RunConfig.load(pipeline / "tiny.cfg").sha256()
        assert m["outputs"] and all((d / name).is_file() for name in m["outputs"])
    assert (samp / "future.tlf").read_bytes() == (pipeline / "samp" / "future.tlf").read_bytes()


def test_sampled_future_is_valid_offset_tlf(pipeline):
    record = tlf.read_tlf(pipeline / "samp" / "future.tlf")
    assert record.convention == tlf.CONV_OFFSET
    assert record.frames == 8
    assert np.all(np.isfinite(record.coords))


def test_eval_runs_on_sampled_future(pipeline):
    assert run("eval", pipeline / "samp" / "future.tlf", "--metric", "flowtv",
               "--out", pipeline / "samp") == 0


def test_loss_csv_has_step_rows(pipeline):
    lines = (pipeline / "vae" / "vae_loss.csv").read_text().strip().splitlines()
    assert lines[0].startswith("step,")
    assert len(lines) == 26  # header + 25 steps
