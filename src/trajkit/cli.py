"""Command-line surface tying the toolkit into reproducible runs.

Every subcommand writes its artifacts plus a manifest (seed, config hash,
outputs) under the output directory.  Exit codes: 0 success, 2 malformed
track file or checkpoint, 3 config validation failure, 4 numerical abort,
1 other errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import flowgen, gradcore as gc, lossbank as lb, metrics, motionlab, plotting, scenes, tlf
from .config import ConfigError, RunConfig
from .models import (FlowConfig, VaeConfig, init_vae_params, init_velocity_params,
                     init_visibility_params, pool_visibility)
from .motionlab import MotionSpec
from .tlf import TlfError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TLF = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


def _write_manifest(out_dir: Path, command: str, argv: list, seed, config_hash: str,
                    outputs: list) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "config_sha256": config_hash,
        "outputs": sorted(outputs),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _args_hash(args: dict) -> str:
    return hashlib.sha256(json.dumps(args, sort_keys=True, default=str).encode()).hexdigest()


def _out_dir(arg: str | None, cfg: RunConfig | None = None) -> Path:
    if arg:
        path = Path(arg)
    elif cfg is not None:
        path = Path(cfg.out_dir())
    else:
        path = Path(os.environ.get("TRAJLOOM_OUT", "runs"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(path: str | None, preset: str | None) -> RunConfig:
    if path:
        cfg = RunConfig.load(path)
        if preset:
            raise ConfigError("--preset and --config are mutually exclusive")
        return cfg
    if preset == "desk":
        return RunConfig.desk()
    if preset in (None, "default"):
        return RunConfig.default()
    raise ConfigError(f"unknown preset {preset!r}")


def _geometry(cfg: RunConfig) -> scenes.SceneGeometry:
    d = cfg["data"]
    return scenes.SceneGeometry(height=d["height"], width=d["width"], stride=d["stride"],
                                frames=d["frames"], past=d["past"])


# -- subcommand implementations ------------------------------------------------


def cmd_synth(args) -> int:
    spec_kw = dict(frames=args.frames, height=args.height, width=args.width,
                   stride=args.stride)
    if args.kind == "translation":
        spec = MotionSpec("translation", velocity=(args.vx, args.vy), **spec_kw)
    elif args.kind == "rotation":
        spec = MotionSpec("rotation", angular_rate=args.omega, **spec_kw)
    elif args.kind == "zoom":
        spec = MotionSpec("zoom", zoom_rate=args.zoom_rate, **spec_kw)
    elif args.kind == "shear":
        spec = MotionSpec("shear", shear_rate=args.shear_rate, **spec_kw)
    elif args.kind == "static":
        spec = MotionSpec("static", **spec_kw)
    elif args.kind == "jitter-overlay":
        base = MotionSpec("translation", velocity=(args.vx, args.vy), **spec_kw)
        spec = MotionSpec("jitter-overlay", base=base, jitter_amplitude=args.jitter,
                          jitter_axis=args.jitter_axis, **spec_kw)
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    tracks = motionlab.generate(spec)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    tlf.write_tlf(out, tlf.from_tracks(tracks))
    out_dir = _out_dir(args.out)
    _write_manifest(out_dir, "synth", args.argv, args.seed,
                    _args_hash(vars(args) | {"argv": None, "func": None}), [out.name])
    print(f"wrote {out}")
    return EXIT_OK


def cmd_offsets(args) -> int:
    """`offsets`, and `rasterize` (which is `offsets --invert`); the manifest
    names the subcommand given."""
    record = tlf.read_tlf(args.input)
    target = tlf.CONV_NORMALIZED if args.invert else tlf.CONV_OFFSET
    out = tlf.convert(record, target)
    tlf.write_tlf(args.output, out)
    out_dir = _out_dir(args.out)
    _write_manifest(out_dir, args.command, args.argv, None,
                    _args_hash({"input": args.input, "output": args.output,
                                "invert": args.invert}), [Path(args.output).name])
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_analyze_variance(args) -> int:
    record = tlf.read_tlf(args.input)
    hc, wc = record.coarse_shape
    norm = tlf._to_normalized(record).reshape(record.frames, hc * wc, 2)
    offsets = tlf.convert(record, tlf.CONV_OFFSET).coords.astype(np.float64)
    vis = record.visibility
    exp_abs = metrics.explained_variance(norm, vis)
    exp_off = metrics.explained_variance(offsets, vis)
    stem = Path(args.input).stem
    rows = []
    for axis, label in enumerate(("x", "y")):
        rows.append({"dataset": stem, "method": "absolute",
                     "metric": f"explained_{label}", "value": float(exp_abs[axis])})
        rows.append({"dataset": stem, "method": "offset",
                     "metric": f"explained_{label}", "value": float(exp_off[axis])})
    out_dir = _out_dir(args.out)
    (out_dir / "variance.csv").write_text(plotting.metrics_csv(rows))
    _write_manifest(out_dir, "analyze-variance", args.argv, None,
                    _args_hash({"input": args.input}), ["variance.csv"])
    print(f"absolute explained%: x={exp_abs[0]:.2f} y={exp_abs[1]:.2f}")
    print(f"offset explained%:   x={exp_off[0]:.2f} y={exp_off[1]:.2f}")
    return EXIT_OK


def cmd_train_vae(args) -> int:
    cfg = _load_config(args.config, args.preset)
    out_dir = _out_dir(args.out, cfg)
    geom = _geometry(cfg)
    d = cfg["data"]
    dataset = _vae_dataset(d["kind"], d["scenes"], cfg.seed, geom)
    train_cfg = cfg.vae_train_config()
    params, curve = flowgen.train_vae(dataset, train_cfg, seed=cfg.seed)
    blocks = {f"vae/{k}": v for k, v in params.items()}
    meta = {"vae_cfg": asdict(train_cfg.vae), "seed": cfg.seed}
    tlf.save_checkpoint(out_dir / "vae.ckpt", blocks, meta)
    (out_dir / "vae_loss.csv").write_text(plotting.curve_csv(curve))
    _write_manifest(out_dir, "train-vae", args.argv, cfg.seed, cfg.sha256(),
                    ["vae.ckpt", "vae_loss.csv"])
    print(f"final loss {curve[-1]['total']!r} (initial {curve[0]['total']!r})")
    return EXIT_OK


def _vae_dataset(kind: str, n: int, seed: int, geom: scenes.SceneGeometry):
    """VAE segments: past and future windows of each scene as independent
    items, so the encoder sees the same windows the flow stage uses."""
    pairs = scenes.pair_dataset(kind, n, seed, geom)
    segs = np.concatenate([pairs.past, pairs.future], axis=0)
    masks = np.concatenate([pairs.past_masks, pairs.future_masks], axis=0)
    return flowgen.SegmentDataset(segs, masks)


def _meta_config(cls, meta: dict, key: str, path):
    """A model config rebuilt from checkpoint metadata.  Every field must be
    present (a default would silently describe another model) and no other."""
    value = meta[key]
    names = {f.name for f in fields(cls)}
    if not isinstance(value, dict) or set(value) != names:
        got = set(value) if isinstance(value, dict) else set()
        raise TlfError(f"{path}: {key} metadata does not match {cls.__name__}: "
                       f"missing {sorted(names - got)}, unknown {sorted(got - names)}")
    try:
        return cls(**value)
    except (TypeError, ValueError) as exc:
        raise TlfError(f"{path}: bad {key} metadata: {exc}") from exc


def _check_blocks(path, prefix: str, params: dict, want: dict) -> None:
    """Raise TlfError unless `params` holds exactly the blocks of `want`, each
    of its shape; the message names the first block that is missing, extra or
    misshapen."""
    for name in sorted(want.keys() | params.keys()):
        if name not in params:
            raise TlfError(f"{path}: missing block {prefix}/{name}")
        if name not in want:
            raise TlfError(f"{path}: unexpected block {prefix}/{name}")
        if params[name].shape != want[name].shape:
            raise TlfError(f"{path}: block {prefix}/{name} has shape {params[name].shape}, "
                           f"expected {want[name].shape}")


def _load_vae(path):
    blocks, meta = tlf.load_checkpoint(path)
    params = {k[len("vae/"):]: v for k, v in blocks.items() if k.startswith("vae/")}
    if not params or "vae_cfg" not in meta:
        raise TlfError(f"{path}: missing VAE parameters")
    cfg = _meta_config(VaeConfig, meta, "vae_cfg", path)
    _check_blocks(path, "vae", params, init_vae_params(cfg, gc.rng(0)))
    return params, cfg


def save_bundle(path, bundle: flowgen.FlowBundle, seed) -> None:
    blocks = {f"vae/{k}": v for k, v in bundle.vae_params.items()}
    blocks.update({f"flow/{k}": v for k, v in bundle.flow_params.items()})
    if bundle.vis_params:
        blocks.update({f"vis/{k}": v for k, v in bundle.vis_params.items()})
    blocks["stats/mean"] = bundle.stats.mean
    blocks["stats/std"] = bundle.stats.std
    meta = {"vae_cfg": asdict(bundle.vae_cfg), "flow_cfg": asdict(bundle.flow_cfg),
            "sigma0": bundle.sigma0, "anchor_mode": bundle.anchor_mode, "seed": seed}
    tlf.save_checkpoint(path, blocks, meta)


def load_bundle(path) -> flowgen.FlowBundle:
    blocks, meta = tlf.load_checkpoint(path)
    needed = ("vae_cfg", "flow_cfg", "sigma0", "anchor_mode")
    if any(k not in meta for k in needed):
        raise TlfError(f"{path}: not a flow bundle checkpoint")
    split = {"vae": {}, "flow": {}, "vis": {}, "stats": {}}
    for name, arr in blocks.items():
        prefix, _, rest = name.partition("/")
        if prefix not in split:
            raise TlfError(f"{path}: unknown block {name!r}")
        split[prefix][rest] = arr
    vae_cfg = _meta_config(VaeConfig, meta, "vae_cfg", path)
    flow_cfg = _meta_config(FlowConfig, meta, "flow_cfg", path)
    rng, channels = gc.rng(0), np.zeros(vae_cfg.latent_channels)
    _check_blocks(path, "vae", split["vae"], init_vae_params(vae_cfg, rng))
    _check_blocks(path, "flow", split["flow"], init_velocity_params(flow_cfg, rng))
    if split["vis"]:  # the visibility head is optional
        _check_blocks(path, "vis", split["vis"], init_visibility_params(flow_cfg, rng))
    _check_blocks(path, "stats", split["stats"], {"mean": channels, "std": channels})
    try:
        stats = flowgen.LatentStats(split["stats"]["mean"], split["stats"]["std"])
    except ValueError as exc:
        raise TlfError(f"{path}: {exc}") from exc
    return flowgen.FlowBundle(
        vae_cfg=vae_cfg, flow_cfg=flow_cfg,
        vae_params=split["vae"], flow_params=split["flow"], stats=stats,
        vis_params=split["vis"] or None,
        sigma0=meta["sigma0"], anchor_mode=meta["anchor_mode"])


def cmd_train_flow(args) -> int:
    cfg = _load_config(args.config, args.preset)
    out_dir = _out_dir(args.out, cfg)
    vae_params, vae_cfg = _load_vae(args.vae)
    geom = _geometry(cfg)
    d = cfg["data"]
    pairs = scenes.pair_dataset(d["kind"], d["scenes"], cfg.seed, geom)
    train_cfg = cfg.flow_train_config()
    bundle, curve = flowgen.train_flow(pairs, vae_params, vae_cfg, train_cfg,
                                       seed=cfg.seed)
    f = cfg["flow"]
    z_f = flowgen.encode_mean(vae_params, vae_cfg, pairs.future)
    targets = pool_visibility(pairs.future_masks, vae_cfg.token_grid(pairs.future.shape[1]),
                              ratio=vae_cfg.temporal_ratio)
    vis_params, _ = flowgen.train_visibility_head(z_f, targets, train_cfg.flow,
                                                  steps=f["vis_steps"], lr=f["vis_lr"],
                                                  seed=cfg.seed)
    bundle.vis_params = vis_params
    save_bundle(out_dir / "flow.ckpt", bundle, cfg.seed)
    (out_dir / "flow_loss.csv").write_text(plotting.curve_csv(curve))
    _write_manifest(out_dir, "train-flow", args.argv, cfg.seed, cfg.sha256(),
                    ["flow.ckpt", "flow_loss.csv"])
    print(f"final fm loss {curve[-1]['fm']!r} (initial {curve[0]['fm']!r})")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _load_config(args.config, args.preset)
    out_dir = _out_dir(args.out, cfg)
    bundle = load_bundle(args.ckpt)
    geom = _geometry(cfg)
    d = cfg["data"]
    pairs = scenes.pair_dataset(d["kind"], d["scenes"], cfg.seed, geom)
    flow_cfg = cfg.flow_train_config()
    tuned, curve = flowgen.finetune_onpolicy(bundle, pairs, flow_cfg,
                                             cfg.finetune_config(), seed=cfg.seed)
    save_bundle(out_dir / "finetuned.ckpt", tuned, cfg.seed)
    (out_dir / "finetune_loss.csv").write_text(plotting.curve_csv(curve))
    _write_manifest(out_dir, "finetune", args.argv, cfg.seed, cfg.sha256(),
                    ["finetuned.ckpt", "finetune_loss.csv"])
    print(f"final loss {curve[-1]['total']!r}")
    return EXIT_OK


def cmd_sample(args) -> int:
    bundle = load_bundle(args.ckpt)
    record = tlf.read_tlf(args.history)
    history = tlf.to_offset_field(record)
    cfg = _load_config(args.config, args.preset)
    sampler = cfg.sampler_spec()
    future, _ = flowgen.sample_future(history, bundle, sampler=sampler, seed=args.seed,
                                      future_frames=args.frames)
    out_dir = _out_dir(args.out, cfg)
    out_path = out_dir / args.output
    tlf.write_tlf(out_path, tlf.from_offset_field(future, record.height, record.width))
    _write_manifest(out_dir, "sample", args.argv, args.seed, cfg.sha256(), [args.output])
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    record = tlf.read_tlf(args.input)
    positions, vis = tlf.coarse_pixel_positions(record)
    if args.metric == "flowtv":
        value = metrics.flow_tv(positions, vis, record.stride)
    elif args.metric == "divcurle":
        value = metrics.div_curl_energy(positions, vis, record.stride,
                                        single_spacing=args.single_spacing)
    elif args.metric == "vepe":
        if not args.ref:
            raise ValueError("vepe needs --ref GT.tlf")
        ref = tlf.read_tlf(args.ref)
        ref_pos, ref_vis = tlf.coarse_pixel_positions(ref)
        value = metrics.vepe(positions, ref_pos, ref_vis & vis)
    else:
        raise ValueError(f"unknown metric {args.metric!r}")
    print(plotting.format_float(value))
    out_dir = _out_dir(args.out)
    row = {"dataset": Path(args.input).stem, "method": args.method,
           "metric": args.metric, "value": float(value)}
    path = out_dir / "metrics.csv"
    rows = plotting.read_metrics_csv(path) if path.exists() else []
    rows.append(row)
    path.write_text(plotting.metrics_csv(rows))
    _write_manifest(out_dir, "eval", args.argv, None,
                    _args_hash({"input": args.input, "metric": args.metric}),
                    ["metrics.csv"])
    return EXIT_OK


def cmd_camcap(args) -> int:
    record = tlf.read_tlf(args.input)
    tracks = tlf.to_tracks(record)
    stats = motionlab.estimate_camera(tracks)
    phrase = motionlab.caption(stats, record.height, record.width)
    print(phrase)
    out_dir = _out_dir(args.out)
    stem = Path(args.input).stem
    rows = [{"dataset": stem, "method": "camcap", "metric": k, "value": v}
            for k, v in stats.as_dict().items()]
    (out_dir / "camcap.csv").write_text(plotting.metrics_csv(rows))
    (out_dir / "caption.txt").write_text(phrase + "\n")
    _write_manifest(out_dir, "camcap", args.argv, None, _args_hash({"input": args.input}),
                    ["camcap.csv", "caption.txt"])
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = []
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4, 4, 2)) * 0.5
        sign = rng.choice([-1.0, 1.0], size=x.shape)
        xh = x + sign * (0.05 + 0.4 * rng.random(x.shape))
        m = np.ones((3, 4, 4))
        pair = lambda r: lb.SegmentPair(x, r, m)
        checks = {
            "recon_loss": lambda r: lb.recon_loss(pair(r)),
            "temporal_loss": lambda r: lb.temporal_loss(pair(r)),
            "spatial_loss": lambda r: lb.spatial_loss(pair(r)),
        }
        for name, fn in checks.items():
            report.append((f"{name}[seed {seed}]", gc.grad_check(fn, [xh])))
    worst = max(err for _, err in report)
    for name, err in report:
        print(f"{name}: {err:.3e}")
    print(f"worst: {worst:.3e}")
    if worst >= 1e-4:
        raise FloatingPointError(f"gradient check failed: {worst:.3e}")
    return EXIT_OK


def cmd_plot(args) -> int:
    out_dir = _out_dir(args.out)
    outputs = []
    merged = []
    for run in args.runs:
        run_path = Path(run)
        if not run_path.exists():
            raise ValueError(f"run directory {run} does not exist")
        for track_file in sorted(run_path.glob("*.tlf")):
            record = tlf.read_tlf(track_file)
            svg = plotting.overlay_svg(record)
            name = f"{run_path.name}_{track_file.stem}_overlay.svg"
            (out_dir / name).write_text(svg)
            outputs.append(name)
        metrics_file = run_path / "metrics.csv"
        if metrics_file.exists():
            for row in plotting.read_metrics_csv(metrics_file):
                merged.append({"dataset": f"{run_path.name}/{row['dataset']}",
                               "method": row["method"], "metric": row["metric"],
                               "value": row["value"]})
    table = plotting.metrics_csv(merged)
    (out_dir / "metrics_table.csv").write_text(table)
    outputs.append("metrics_table.csv")
    _write_manifest(out_dir, "plot", args.argv, None, _args_hash({"runs": args.runs}),
                    outputs)
    print(f"wrote {len(outputs)} artifacts to {out_dir}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajkit",
                                     description="dense trajectory motion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output directory "
                       "(default: config out, then $TRAJLOOM_OUT, then ./runs)")

    p = sub.add_parser("synth", help="generate an analytic scene as a TLF file")
    p.add_argument("output")
    p.add_argument("--kind", default="translation",
                   choices=["translation", "rotation", "zoom", "shear", "static",
                            "jitter-overlay"])
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--stride", type=int, default=8)
    p.add_argument("--vx", type=float, default=0.0)
    p.add_argument("--vy", type=float, default=0.0)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--zoom-rate", type=float, default=0.0)
    p.add_argument("--shear-rate", type=float, default=0.0)
    p.add_argument("--jitter", type=float, default=0.3)
    p.add_argument("--jitter-axis", default="x", choices=["x", "y", "both"])
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest only")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rasterize", help="convert a TLF to normalized coordinates "
                       "(the same as offsets --invert)")
    p.add_argument("input")
    p.add_argument("output")
    add_common(p)
    p.set_defaults(func=cmd_offsets, invert=True)

    p = sub.add_parser("offsets", help="convert to (or from) anchor offsets")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--invert", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_offsets)

    p = sub.add_parser("analyze-variance",
                       help="between/within variance split for absolute vs offset")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_analyze_variance)

    for name, fn, extra in (
            ("train-vae", cmd_train_vae, ()),
            ("train-flow", cmd_train_flow, ("--vae",)),
            ("finetune", cmd_finetune, ("--ckpt",))):
        p = sub.add_parser(name, help=f"{name} on synthetic scenes from the config")
        p.add_argument("--config", default=None)
        p.add_argument("--preset", default=None, choices=["default", "desk"])
        for flag in extra:
            p.add_argument(flag, required=True)
        add_common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("sample", help="generate future tracks from a history TLF")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--preset", default=None, choices=["default", "desk"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--output", default="future.tlf")
    add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="reference-free or reference metrics on a TLF")
    p.add_argument("input")
    p.add_argument("--metric", required=True, choices=["flowtv", "divcurle", "vepe"])
    p.add_argument("--ref", default=None)
    p.add_argument("--method", default="ours")
    p.add_argument("--single-spacing", action="store_true",
                   help="divide the finite differences by the grid spacing once, not twice")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("camcap", help="camera-motion caption from tracks")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_camcap)

    p = sub.add_parser("gradcheck", help="finite-difference check of the losses")
    p.add_argument("--seeds", type=int, default=3)
    add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("plot", help="SVG overlays and merged metric tables")
    p.add_argument("runs", nargs="+")
    add_common(p)
    p.set_defaults(func=cmd_plot)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = list(argv)
        return args.func(args)
    except TlfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TLF
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
