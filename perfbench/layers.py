"""Per-layer metrics from a traced run.

Every metric covers the timed operations of the traced run and leaves its
set-up out, except ``scenes.dataset.s``: scene data is only generated in
set-up, so that metric is the set-up's.  Times named ``.s`` are self time (a
span's duration minus its child spans) summed over those operations;
``gradcore.backward.s`` and ``cli.dispatch.s`` are whole span durations,
since their self time is given separately.  ``*_per_op`` divides a time by
the number of operations (steps, samples or scenes).  Names are listed in
PER_LAYER so the benchmark definition can be checked against what a run
prints.
"""

from __future__ import annotations

import statistics

from harness import DOPRI5_STAGES, dopri5_attempts

OPS = ("gelu", "matmul", "add", "mul", "div", "getitem", "concat", "reshape", "transpose",
       "sum", "where", "abs", "exp")
SELF_TIMES = {  # metric -> span whose self time it sums
    **{f"models.{f}.s": f"models.{f}" for f in
       ("vae_encode", "vae_decode", "velocity_forward", "visibility_logits", "wrap_params")},
    **{f"lossbank.{f}.s": f"lossbank.{f}" for f in
       ("recon_loss", "temporal_loss", "spatial_loss", "kl_loss", "fm_loss", "kstep_loss",
        "kstep_targets", "endpoint_consistency")},
    **{f"flowgen.{f}.s": f"flowgen.{f}" for f in
       ("sample_time", "kstep_rollout", "boundary_init", "encode_mean", "euler_sample",
        "dopri5_sample")},
    **{f"trajfield.{f}.s": f"trajfield.{f}" for f in ("rasterize", "to_offsets", "coarse_positions")},
    **{f"tlf.{f}.s": f"tlf.{f}" for f in ("read_tlf", "write_tlf", "convert")},
    **{f"metrics.{f}.s": f"metrics.{f}" for f in ("flow_tv", "div_curl_energy", "vepe",
                                                  "explained_variance")},
    **{f"motionlab.{f}.s": f"motionlab.{f}" for f in ("generate", "estimate_camera", "caption")},
    "gradcore.optim_step.s": "gradcore.optim_step",
    "cli.build_parser.s": "cli.build_parser",
}
CALLS = {
    "gradcore.optim_step.calls": "gradcore.optim_step",
    "flowgen.sample_time.calls": "flowgen.sample_time",
    "models.vae_encode.calls": "models.vae_encode",
    "models.vae_decode.calls": "models.vae_decode",
    "models.velocity_forward.calls": "models.velocity_forward",
}
PER_OP = (  # times an optimisation is most likely to move, also given per operation
    "gradcore.gelu.fwd_s", "gradcore.gelu.vjp_s", "gradcore.getitem.vjp_s",
    "gradcore.add.vjp_s", "gradcore.matmul.fwd_s", "gradcore.matmul.vjp_s",
    "gradcore.mul.vjp_s", "gradcore.backward.s", "gradcore.backward.overhead_s",
    "gradcore.optim_step.s", "gradcore.rng.s", "models.velocity_forward.s",
    "lossbank.spatial_loss.s", "lossbank.kstep_loss.s", "flowgen.step.forward_s",
    "flowgen.step.backward_s", "flowgen.step.optim_s", "flowgen.euler_sample.s",
    "flowgen.dopri5_sample.s", "cli.dispatch.s", "cli.build_parser.s", "cli.self_s",
    "motionlab.estimate_camera.s", "tlf.read_tlf.s", "tlf.write_tlf.s",
)
RNG_DRAWS = ("draw_normal", "draw_uniform", "draw_integers")


def _names() -> list:
    names = []
    for op in OPS:
        names += [f"gradcore.{op}.calls", f"gradcore.{op}.fwd_s", f"gradcore.{op}.vjp_s"]
    names += ["gradcore.backward.s", "gradcore.backward.overhead_s",
              "gradcore.tape_nodes_per_step", "gradcore.dead_nodes_per_step",
              "gradcore.retained_grad_bytes_per_step",
              "gradcore.nodes_created", "gradcore.rng.draws", "gradcore.rng.s",
              "flowgen.step.forward_s", "flowgen.step.backward_s", "flowgen.step.optim_s",
              "flowgen.dopri5.nfe_per_sample", "flowgen.dopri5.accept_ratio",
              "tlf.bytes_read", "tlf.bytes_written", "cli.dispatch.s", "cli.self_s",
              "cli.nonzero_exits", "scenes.dataset.s", "trace.ops", "trace.overhead_pct"]
    names += list(SELF_TIMES) + list(CALLS)
    names += [f"{n}_per_op" for n in PER_OP]
    return names


PER_LAYER = tuple(_names())
UNITS = {"count": ("calls", "draws", "nodes_created", "nonzero_exits", "ops",
                   "tape_nodes_per_step", "dead_nodes_per_step", "nfe_per_sample"),
         "bytes": ("bytes_read", "bytes_written", "retained_grad_bytes_per_step"),
         "ratio": ("accept_ratio",), "%": ("overhead_pct",)}


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    for u, suffixes in UNITS.items():
        if last in suffixes:
            return u
    return "s"


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _values(agg, traced) -> dict:
    """Every metric but the per-operation ones, from one phase's aggregate."""
    S, C, T = agg.self_s, agg.calls, agg.total_s
    v = {}
    for op in OPS:
        v[f"gradcore.{op}.calls"] = C[f"gradcore.{op}"]
        v[f"gradcore.{op}.fwd_s"] = S[f"gradcore.{op}"]
        v[f"gradcore.{op}.vjp_s"] = S[f"gradcore.{op}.vjp"]
    v["gradcore.backward.s"] = T["gradcore.backward"]
    v["gradcore.backward.overhead_s"] = S["gradcore.backward"]
    v["gradcore.tape_nodes_per_step"] = _mean(agg.series["tape_nodes"])
    v["gradcore.dead_nodes_per_step"] = _mean(agg.series["dead_nodes"])
    v["gradcore.retained_grad_bytes_per_step"] = _mean(agg.series["grad_bytes"])
    v["gradcore.nodes_created"] = agg.counts["nodes_created"]
    v["gradcore.rng.draws"] = sum(C[f"gradcore.rng.{m}"] for m in RNG_DRAWS)
    v["gradcore.rng.s"] = sum(t for n, t in S.items() if n.startswith("gradcore.rng."))
    splits = traced.splits if traced is not None else []
    for i, part in enumerate(("forward_s", "backward_s", "optim_s")):
        v[f"flowgen.step.{part}"] = sum(s[i] for s in splits)
    solves = agg.series["dopri5_times"]
    v["flowgen.dopri5.nfe_per_sample"] = _mean([len(ts) for ts in solves])
    steps = [dopri5_attempts(ts) for ts in solves if len(ts) % DOPRI5_STAGES == 0]
    attempted = sum(a for _, a in steps)
    v["flowgen.dopri5.accept_ratio"] = sum(a for a, _ in steps) / attempted if attempted else 0.0
    v["tlf.bytes_read"] = agg.counts["tlf.bytes_read"]
    v["tlf.bytes_written"] = agg.counts["tlf.bytes_written"]
    v["cli.dispatch.s"] = T["cli.dispatch"]
    v["cli.self_s"] = sum(t for n, t in S.items() if n.startswith("cli."))
    v["cli.nonzero_exits"] = agg.counts["cli.nonzero_exits"]
    for name, span in SELF_TIMES.items():
        v[name] = S[span]
    for name, span in CALLS.items():
        v[name] = C[span]
    return v


def per_layer(tracer, traced, base_lat, traced_lat) -> dict:
    """Every PER_LAYER metric from a tracer and the traced Run.

    ``trace.overhead_pct`` compares the mean latency of the traced run with
    that of the untraced run before it (means, since medians of short runs
    on a shared machine are less steady).  Between two runs the machine's
    own drift can reach ten points either way, as large as the overhead, so
    a single value says little; negative values occur.
    """
    v = _values(tracer.phases["timed"], traced)
    setup = tracer.phases["setup"].self_s
    v["scenes.dataset.s"] = sum(t for n, t in setup.items() if n.startswith("scenes."))
    ops = sum(len(x) for x in traced.latencies.values()) if traced is not None else 0
    v["trace.ops"] = ops
    v["trace.overhead_pct"] = (100.0 * (_mean(traced_lat) / _mean(base_lat) - 1)
                               if traced_lat else 0.0)
    for name in PER_OP:
        v[f"{name}_per_op"] = v[name] / ops if ops else 0.0
    return {name: {"value": v[name], "unit": unit(name)} for name in PER_LAYER}
