"""Command-line surface tying the toolkit into reproducible runs.

`dispatch` runs every subcommand the same way: it loads the config (for the
commands that take one), makes the output directory, runs the command and
writes `manifest.json` (argv, seed, config hash, outputs) there.  Exit codes:
0 success, 2 malformed track file or checkpoint, 3 config validation failure,
4 numerical abort, 1 other errors, each with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import flowgen, gradcore as gc, lossbank as lb, metrics, motionlab, plotting, scenes, tlf
from .config import ConfigError, RunConfig
from .models import FlowConfig, VaeConfig, latent_steps, pool_visibility
from .motionlab import MotionSpec
from .tlf import TlfError
from .trajfield import rasterize

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TLF = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
# the exit code of an error, by its first matching class (TlfError and ConfigError are ValueErrors)
EXIT_CODES = {TlfError: EXIT_TLF, ConfigError: EXIT_CONFIG, FloatingPointError: EXIT_NUMERIC,
              ValueError: EXIT_ERROR, OSError: EXIT_ERROR}

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _write_manifest(out_dir: Path, args, argv: list, cfg: RunConfig | None,
                    outputs: list) -> None:
    """The one manifest rule: the seed is the command's `--seed`, else the
    config's; the hash is the config's, else that of every argument but `--out`;
    outputs, names in `out_dir` or absolute paths, are recorded relative to it."""
    manifest = {
        "command": args.command,
        "argv": argv,
        "seed": getattr(args, "seed", cfg.seed if cfg else None),
        "config_sha256": cfg.sha256() if cfg else hashlib.sha256(json.dumps(
            {k: v for k, v in vars(args).items() if k not in ("out", "func")},
            sort_keys=True, default=str).encode()).hexdigest(),
        "outputs": sorted(os.path.relpath(out_dir / name, out_dir) for name in outputs),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _load_config(path: str | None, preset: str | None) -> RunConfig:
    if path and preset:
        raise ConfigError("--preset and --config are mutually exclusive")
    if path:
        return RunConfig.load(path)
    return RunConfig.desk() if preset == "desk" else RunConfig.default()


def _pairs(cfg: RunConfig) -> flowgen.PairDataset:
    d = cfg["data"]
    return scenes.pair_dataset(d["kind"], d["scenes"], cfg.seed, cfg.geometry())


# -- subcommand implementations ------------------------------------------------


def cmd_synth(args, cfg, out_dir) -> list:
    spec_kw = dict(frames=args.frames, height=args.height, width=args.width,
                   stride=args.stride)
    spec = MotionSpec(args.kind, velocity=(args.vx, args.vy), angular_rate=args.omega,
                      zoom_rate=args.zoom_rate, shear_rate=args.shear_rate,
                      jitter_amplitude=args.jitter, jitter_axis=args.jitter_axis, **spec_kw)
    tracks = motionlab.generate(spec)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    tlf.write_tlf(out, tlf.from_tracks(tracks))
    print(f"wrote {out}")
    return [out.absolute()]


def cmd_offsets(args, cfg, out_dir) -> list:
    """A TLF to anchor offsets, or with `--invert` to normalized coordinates."""
    record = tlf.read_tlf(args.input)
    target = tlf.CONV_NORMALIZED if args.invert else tlf.CONV_OFFSET
    out = tlf.convert(record, target)
    tlf.write_tlf(args.output, out)
    print(f"wrote {args.output}")
    return [Path(args.output).absolute()]


def cmd_analyze_variance(args, cfg, out_dir) -> list:
    record = tlf.read_tlf(args.input)
    norm = tlf.to_normalized(record)
    exp_abs = metrics.explained_variance(norm, record.visibility)
    exp_off = metrics.explained_variance(tlf.offset_coords(record, norm), record.visibility)
    stem = Path(args.input).stem
    rows = []
    for axis, label in enumerate(("x", "y")):
        rows.append({"dataset": stem, "method": "absolute",
                     "metric": f"explained_{label}", "value": float(exp_abs[axis])})
        rows.append({"dataset": stem, "method": "offset",
                     "metric": f"explained_{label}", "value": float(exp_off[axis])})
    (out_dir / "variance.csv").write_text(plotting.metrics_csv(rows))
    print(f"absolute explained%: x={exp_abs[0]:.2f} y={exp_abs[1]:.2f}")
    print(f"offset explained%:   x={exp_off[0]:.2f} y={exp_off[1]:.2f}")
    return ["variance.csv"]


def cmd_train_vae(args, cfg, out_dir) -> list:
    # past and future windows as independent items: the encoder sees the
    # windows the flow stage uses, so both must have one length
    past, frames = cfg["data"]["past"], cfg["data"]["frames"]
    if 2 * past != frames:
        raise ConfigError(f"train-vae: data.past ({past}) must be half of data.frames ({frames}), "
                          f"as it trains on the {past}-frame history and {frames - past}-frame "
                          f"future windows as one set")
    dataset = _pairs(cfg).windows()
    train_cfg = cfg.vae_train_config()
    params, curve = flowgen.train_vae(dataset, train_cfg, seed=cfg.seed)
    tlf.save_vae(out_dir / "vae.ckpt", params, train_cfg.vae, cfg.seed)
    (out_dir / "vae_loss.csv").write_text(plotting.curve_csv(curve))
    print(f"final loss {curve[-1]['total']!r} (initial {curve[0]['total']!r})")
    return ["vae.ckpt", "vae_loss.csv"]


def _check_fits(path, checks) -> None:
    """Raise ValueError at the first of `checks`, each (a field of checkpoint
    `path`, its value, what the input gives, the input's value), whose two
    values differ; the message names the checkpoint, the field, the input and
    both values."""
    for name, got, source, expected in checks:
        if got != expected:
            raise ValueError(f"{path}: {name} is {got}, but {source} {expected}")


def _config_checks(cfg: RunConfig, vae_cfg: VaeConfig, flow_cfg: FlowConfig | None = None):
    """`_check_fits` checks of a checkpoint's VAE, and of its flow when given,
    against the frame, patch, latent channels and temporal ratio that the run
    config's [data] and [vae] give, and the latent steps of its [data] windows."""
    want = cfg.vae_config()
    checks = [(f"vae_cfg.{name}", getattr(vae_cfg, name), "the config gives", getattr(want, name))
              for name in ("height", "width", "patch", "latent_channels", "temporal_ratio")]
    if flow_cfg is not None:
        d, flow = cfg["data"], cfg.flow_config()
        checks += [("flow_cfg.history_steps", flow_cfg.history_steps,
                    f"data.past = {d['past']} gives", flow.history_steps),
                   ("flow_cfg.future_steps", flow_cfg.future_steps,
                    f"data.frames - data.past = {d['frames'] - d['past']} gives",
                    flow.future_steps)]
    return checks


def cmd_train_flow(args, cfg, out_dir) -> list:
    vae_params, vae_cfg = tlf.load_vae(args.vae)
    _check_fits(args.vae, _config_checks(cfg, vae_cfg))
    pairs = _pairs(cfg)
    train_cfg = cfg.flow_train_config()
    bundle, curve = flowgen.train_flow(pairs, vae_params, vae_cfg, train_cfg, seed=cfg.seed)
    z_f = flowgen.encode_mean(vae_params, vae_cfg, pairs.future)
    targets = pool_visibility(pairs.future_masks, vae_cfg)
    vis_params, _ = flowgen.train_visibility_head(z_f, targets, train_cfg.flow,
                                                  train_cfg.vis_steps, train_cfg.vis_lr,
                                                  seed=cfg.seed)
    bundle = replace(bundle, vis_params=vis_params)
    tlf.save_bundle(out_dir / "flow.ckpt", bundle, cfg.seed)
    (out_dir / "flow_loss.csv").write_text(plotting.curve_csv(curve))
    print(f"final fm loss {curve[-1]['fm']!r} (initial {curve[0]['fm']!r})")
    return ["flow.ckpt", "flow_loss.csv"]


def cmd_finetune(args, cfg, out_dir) -> list:
    bundle = tlf.load_bundle(args.ckpt)
    _check_fits(args.ckpt, _config_checks(cfg, bundle.vae_cfg, bundle.flow_cfg))
    pairs = _pairs(cfg)
    flow_cfg = cfg.flow_train_config()
    tuned, curve = flowgen.finetune_onpolicy(bundle, pairs, flow_cfg,
                                             cfg.finetune_config(), seed=cfg.seed)
    tlf.save_bundle(out_dir / "finetuned.ckpt", tuned, cfg.seed)
    (out_dir / "finetune_loss.csv").write_text(plotting.curve_csv(curve))
    print(f"final loss {curve[-1]['total']!r}")
    return ["finetuned.ckpt", "finetune_loss.csv"]


def cmd_sample(args, cfg, out_dir) -> list:
    bundle = tlf.load_bundle(args.ckpt)
    record = tlf.read_tlf(args.history)
    vae_cfg, r = bundle.vae_cfg, bundle.vae_cfg.temporal_ratio
    _check_fits(args.ckpt, [
        ("vae_cfg.height", vae_cfg.height, f"{args.history} has height", record.height),
        ("vae_cfg.width", vae_cfg.width, f"{args.history} has width", record.width),
        ("flow_cfg.history_steps", bundle.flow_cfg.history_steps,
         f"the {record.frames} frames of {args.history} (temporal_ratio {r}) give",
         latent_steps(record.frames, r))])
    history = rasterize(tlf.to_tracks(record))
    sampler = cfg.sampler_spec()
    future, _ = flowgen.sample_future(history, bundle, sampler=sampler, seed=args.seed,
                                      future_frames=args.frames)
    out_path = out_dir / args.output
    tlf.write_tlf(out_path, tlf.from_offset_field(future))
    print(f"wrote {out_path}")
    return [args.output]


def cmd_eval(args, cfg, out_dir) -> list:
    record = tlf.read_tlf(args.input)
    positions, vis = tlf.coarse_pixel_positions(record)
    if args.metric == "flowtv":
        value = metrics.flow_tv(positions, vis, record.stride)
    elif args.metric == "divcurle":
        value = metrics.div_curl_energy(positions, vis, record.stride)
    else:  # vepe
        if not args.ref:
            raise ValueError("vepe needs --ref GT.tlf")
        ref = tlf.read_tlf(args.ref)
        shape, ref_shape = ((r.frames, r.height, r.width, r.stride) for r in (record, ref))
        if ref_shape != shape:
            raise ValueError(f"vepe: {args.input} has (frames, height, width, stride) "
                             f"{shape}, but {args.ref} has {ref_shape}")
        ref_pos, ref_vis = tlf.coarse_pixel_positions(ref)
        value = metrics.vepe(positions, ref_pos, ref_vis & vis)
    path = out_dir / "metrics.csv"
    rows = plotting.read_metrics_csv(path) if path.exists() else []
    print(plotting.format_float(value))
    rows.append({"dataset": Path(args.input).stem, "method": args.method,
                 "metric": args.metric, "value": float(value)})
    path.write_text(plotting.metrics_csv(rows))
    return ["metrics.csv"]


def cmd_camcap(args, cfg, out_dir) -> list:
    record = tlf.read_tlf(args.input)
    tracks = tlf.to_tracks(record)
    stats = motionlab.estimate_camera(tracks)
    phrase = motionlab.caption(stats, record.height, record.width)
    print(phrase)
    stem = Path(args.input).stem
    rows = [{"dataset": stem, "method": "camcap", "metric": k, "value": v}
            for k, v in stats.as_dict().items()]
    (out_dir / "camcap.csv").write_text(plotting.metrics_csv(rows))
    (out_dir / "caption.txt").write_text(phrase + "\n")
    return ["camcap.csv", "caption.txt"]


def cmd_gradcheck(args, cfg, out_dir) -> list:
    report = []
    # one partly masked row per loss: a hidden row of the middle frame and a
    # hidden last column put the pair masks into the consistency adjoints
    part = np.ones((3, 4, 4))
    part[1, 0, :] = part[:, :, 3] = 0
    cases = [(f"seed {seed}", seed, np.ones((3, 4, 4))) for seed in range(args.seeds)]
    for label, seed, m in cases + [("seed 0, masked", 0, part)]:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4, 4, 2)) * 0.5
        sign = rng.choice([-1.0, 1.0], size=x.shape)
        xh = x + sign * (0.05 + 0.4 * rng.random(x.shape))
        target, mask = x[None], m[None]  # a batch of one
        checks = {
            "recon_loss": lambda r: lb.recon_loss(target, r, mask),
            "temporal_loss": lambda r: lb.temporal_loss(target, r, mask),
            "spatial_loss": lambda r: lb.spatial_loss(target, r, mask),
        }
        for name, fn in checks.items():
            report.append((f"{name}[{label}]", gc.grad_check(fn, [xh[None]])))
    worst = max(err for _, err in report)
    for name, err in report:
        print(f"{name}: {err:.3e}")
    print(f"worst: {worst:.3e}")
    if worst >= 1e-4:
        raise FloatingPointError(f"gradient check failed: {worst:.3e}")
    return []


def cmd_plot(args, cfg, out_dir) -> list:
    outputs = []
    merged = []
    for run in args.runs:
        run_path = Path(run)
        if not run_path.is_dir():
            raise ValueError(f"{run} is not a run directory")
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
    print(f"wrote {len(outputs)} artifacts to {out_dir}")
    return outputs


# -- parser ----------------------------------------------------------------------


def _count(text: str) -> int:
    """An argparse type: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `parse_args` leaves it unchanged,
    so every dispatch can share it."""
    parser = argparse.ArgumentParser(prog="trajkit",
                                     description="dense trajectory motion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output directory "
                       "(default: config out, then $TRAJLOOM_OUT, then ./runs)")

    p = sub.add_parser("synth", help="generate an analytic scene as a TLF file")
    # argparse's own negative-number pattern (Python 3.11) has no exponent, so it
    # reads "--vy -1e-05" as an option without its value; any "-<digit>" and
    # "-.<digit>" is a value here, and `type=float` then checks its spelling
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("output")
    p.add_argument("--kind", default="translation",
                   choices=motionlab.KINDS)
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
    p.add_argument("--jitter-axis", default="x", choices=motionlab.JITTER_AXES)
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest only")
    add_common(p)
    p.set_defaults(func=cmd_synth)

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
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--output", default="future.tlf")
    add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="reference-free or reference metrics on a TLF")
    p.add_argument("input")
    p.add_argument("--metric", required=True, choices=["flowtv", "divcurle", "vepe"])
    p.add_argument("--ref", default=None)
    p.add_argument("--method", default="ours")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("camcap", help="camera-motion caption from tracks")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_camcap)

    p = sub.add_parser("gradcheck", help="finite-difference check of the losses")
    p.add_argument("--seeds", type=_count, default=3)
    add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("plot", help="SVG overlays and merged metric tables")
    p.add_argument("runs", nargs="+")
    add_common(p)
    p.set_defaults(func=cmd_plot)

    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc keep freed memory in the heap for the rest of the process.

    By default glibc gives large freed arrays and the top of the heap back to
    the kernel, so the next command (or the next array) faults the same pages
    in again: about 2000 minor faults per `analyze` scene of perfbench.  Here
    arrays under 32 MiB come from the heap, and up to 256 MiB of free heap top
    is kept.  Set once per process, by the first `dispatch`; where `mallopt`
    is not exported (not glibc) nothing changes.  `import trajkit` changes
    nothing, so library callers keep the default allocator.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


def dispatch(argv) -> int:
    _keep_freed_memory()
    argv = list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage and the error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        cfg = (_load_config(args.config, getattr(args, "preset", None))
               if hasattr(args, "config") else None)
        out_dir = Path(args.out or (cfg or RunConfig.default()).out_dir())
        out_dir.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):  # each non-finite result meets a check that exits 4
            _write_manifest(out_dir, args, argv, cfg, args.func(args, cfg, out_dir))
        return EXIT_OK
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
