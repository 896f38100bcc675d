"""The benchmark's span tracer (perfbench/tracer.py) still fits the package:
every module and `Rng` method it wraps exists, a wrapped primitive
produced every node on the tape of a VAE and of a fine-tune step, and a
forward pass over constant parameters still reaches the wrapped primitives."""

import sys
from pathlib import Path

from trajkit import flowgen
from trajkit.trajfield import OffsetField

from conftest import make_segment_dataset

BENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

from tracer import Tracer  # noqa: E402


def test_tracer_wraps_two_vae_steps_and_a_dopri5_solve(tiny_vae_cfg, tiny_bundle):
    bundle, pairs, _ = tiny_bundle
    segments = make_segment_dataset("smooth", 4, seed=0)
    history = OffsetField(pairs.past[0], pairs.past_masks[0], stride=8)
    tracer = Tracer()
    tracer.install()  # a CoverageError from backward's hook would fail the test here
    try:
        flowgen.train_vae(segments, flowgen.VaeTrainConfig(vae=tiny_vae_cfg, steps=2, batch=2),
                          seed=0)
        flowgen.sample_future(history, bundle, sampler={"method": "dopri5"}, seed=0)
    finally:
        tracer.uninstall()
    spans = tracer.phases["setup"]
    for op in ("linear", "residual_mlp", "huber", "shift_l1"):
        assert spans.calls[f"gradcore.{op}"] > 0 and spans.calls[f"gradcore.{op}.vjp"] > 0, op
    assert len(spans.series["tape_nodes"]) == 2
    # one huber node per step, whose one adjoint is x's single contribution
    assert spans.calls["gradcore.huber"] == spans.calls["gradcore.huber.vjp"] == 2
    assert len(spans.series["dopri5_times"]) == 1 and spans.series["dopri5_times"][0]
    assert spans.calls["gradcore.rng.draw_normal"] > 0


def test_tracer_covers_a_finetune_step(tiny_bundle):
    """The K-step rollout's tape, residual_mlp nodes of nine velocity
    evaluations on shared parameters included, passes the coverage walk."""
    bundle, pairs, fcfg = tiny_bundle
    tracer = Tracer()
    tracer.install()
    try:
        flowgen.finetune_onpolicy(bundle, pairs, fcfg,
                                  flowgen.FinetuneConfig(steps=1, k_steps=8, sub_batch=4), seed=3)
    finally:
        tracer.uninstall()
    spans = tracer.phases["setup"]
    assert len(spans.series["tape_nodes"]) == 1
    assert spans.calls["models.velocity_forward"] == 9
    assert spans.calls["gradcore.residual_mlp.vjp"] > 0
    # one node per weighted squared error: fm 1, kstep 2 x 8 and endpoint consistency 2 x 7
    assert spans.calls["gradcore.weighted_sq"] == spans.calls["gradcore.weighted_sq.vjp"] == 31


def test_tracer_wraps_a_constant_parameter_euler_sample(tiny_bundle):
    bundle, pairs, _ = tiny_bundle
    history = OffsetField(pairs.past[0], pairs.past_masks[0], stride=8)
    tracer = Tracer()
    tracer.install()
    try:
        flowgen.sample_future(history, bundle, sampler={"method": "euler", "steps": 10}, seed=0)
    finally:
        tracer.uninstall()
    spans = tracer.phases["setup"]
    assert spans.calls["models.velocity_forward"] == 10 and spans.calls["gradcore.linear"] > 0
    assert spans.counts["nodes_created"] > 0
    assert tracer.step_outputs == 0 and spans.calls["gradcore.linear.vjp"] == 0  # no tape
