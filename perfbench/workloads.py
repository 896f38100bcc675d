"""The four benchmark workloads.

Each workload takes the workload seed, generates its own inputs from it and
hands trajkit only those inputs.  A workload sets up, then times a fixed
number of operations, one client in a closed loop: about ``seconds`` of work
on the 2-CPU Xeon the benchmark was sized on (the ``*_PER_S`` rates), and
enough for every latency class's tail percentile.  The count depends only on
``seconds``, so every run attempts the same operations and fails the same
ones.  With ``setup_only`` a workload returns where its first timed
operation would begin.  Checks on the outputs run after the timed phase, off
the clock, and only while the tracer is not installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from trajkit import cli, flowgen, gradcore as gc, lossbank, scenes, tlf
from trajkit.models import FlowConfig, VaeConfig, init_vae_params
from trajkit.trajfield import OffsetField

from harness import HarnessError, StepClock, Stop, Tally, min_samples, op_count
from tracer import rebind, unbind

HERE = Path(__file__).resolve().parent
GEOM = scenes.SceneGeometry(height=32, width=32, stride=8, frames=16, past=8)
VAE_CFG = VaeConfig(height=32, width=32, frames=8, patch=8, hidden=64, blocks=2,
                    latent_channels=8, temporal_ratio=4)
FLOW_CFG = FlowConfig(hidden=64, blocks=2, cond_hidden=32, time_features=8,
                      history_steps=2, future_steps=2,
                      latent_channels=VAE_CFG.latent_channels, n_tokens=VAE_CFG.n_tokens)
FOREVER = 10 ** 9          # training calls run until the step clock stops them
P90_MIN = min_samples(0.9)  # 100
P75_MIN = min_samples(0.75)  # 40
REF_RTOL = 1e-8            # step-0 loss against the stored reference


def derive(seed: int, k: int) -> int:
    """The k-th input seed of a workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclasses.dataclass
class Run:
    """What one workload run measured."""

    latencies: dict = dataclasses.field(default_factory=dict)  # class -> seconds per op
    refs: dict = dataclasses.field(default_factory=dict)  # class -> reference time after each op
    items: int = 0
    busy_s: float = 0.0          # summed operation time of the timed phase
    tally: Tally = dataclasses.field(default_factory=Tally)
    checks: dict = dataclasses.field(default_factory=dict)  # name -> [passed, failed, detail]
    splits: list = dataclasses.field(default_factory=list)  # (forward, backward, optim) per step

    def check(self, name: str, ok: bool, detail="") -> None:
        """Count one check; keep the first failure's detail, else the last detail."""
        entry = self.checks.setdefault(name, [0, 0, ""])
        entry[0 if ok else 1] += 1
        if entry[1] == (0 if ok else 1):
            entry[2] = str(detail)

    @property
    def correct(self) -> bool:
        return all(failed == 0 for _, failed, _ in self.checks.values())


class Probe:
    """Outside wrappers on optim_init / optim_step / backward that feed a
    StepClock, plus loss capture for the fine-tuning terms.  One Python call
    per step, so it stays on in untraced runs."""

    def __init__(self, clock, speed=None):
        self.sc = StepClock(clock, speed)
        self.terms = {"kstep": [], "cons": []}
        self._undo = []

    def install(self):
        sc, terms = self.sc, self.terms
        init, step, bwd = gc.optim_init, gc.optim_step, gc.backward
        kstep, cons = lossbank.kstep_loss, lossbank.endpoint_consistency

        def optim_init(*a, **k):
            out = init(*a, **k)
            sc.init_returned()
            return out

        def optim_step(*a, **k):
            sc.step_called()
            out = step(*a, **k)
            sc.step_returned(out)
            return out

        def backward(out, wrt):
            sc.backward_called(float(out.data))
            return bwd(out, wrt)

        def kstep_loss(*a, **k):
            out = kstep(*a, **k)
            terms["kstep"].append(float(out.data))
            return out

        def endpoint_consistency(*a, **k):
            out = cons(*a, **k)
            terms["cons"].append(float(out.data))
            return out

        pairs = [(init, optim_init), (step, optim_step), (bwd, backward),
                 (kstep, kstep_loss), (cons, endpoint_consistency)]
        self._undo = rebind({id(f): (f, w) for f, w in pairs})

    def uninstall(self):
        unbind(self._undo)
        self._undo = []


@dataclasses.dataclass
class Ctx:
    """How a workload runs: clock, probe and options."""

    clock: object
    probe: Probe
    setup_only: bool = False    # return when set-up is done
    checks: bool = True         # check outputs after the timed phase
    tails: bool = True          # time enough operations for every tail percentile
    mark: object = None         # mark(timed, request): set-up or timed operation begins
    work: Path | None = None    # scratch directory for CLI outputs
    speed: object = None        # speed(): reference time, taken after each timed operation

    def ops(self, seconds: float, per_s: float, least: int, multiple: int = 1) -> int:
        return op_count(seconds, per_s, least if self.tails else 10, multiple)

    def timed(self, run: Run, kind: str, request: int, op):
        """Time one operation of a latency class.  ``op`` returns (ok, result),
        which this returns; a failed operation leaves no latency."""
        self.begin(True, request)
        t0 = self.clock()
        ok, out = op()
        dt = self.clock() - t0
        if ok:
            run.latencies.setdefault(kind, []).append(dt)
            run.busy_s += dt
            run.items += 1
            if self.speed is not None:
                run.refs.setdefault(kind, []).append(self.speed())
        return ok, out

    def begin(self, timed: bool, request: int = -1) -> None:
        if self.mark is not None:
            self.mark(timed, request)


def _train(call, ctx: Ctx, run: Run):
    """Run a training call until the step clock stops it.  A call that
    raises counts as one failed step; training resumes from the latest
    parameters, unless as many steps have failed as the phase wants.  What
    follows is set-up again."""
    sc, params = ctx.probe.sc, None
    while True:
        try:
            call(params)
            ctx.begin(False)
            return
        except Stop:
            ctx.begin(False)
            return
        except HarnessError:
            raise
        except Exception as exc:  # counted, then training goes on
            if sc.t_init is None:   # set-up failed: nothing to resume
                raise
            run.tally.record(False, f"{type(exc).__name__}: {exc}")
            params = sc.params if sc.params is not None else params
            if run.tally.failed >= sc.steps_wanted:
                return


def _phase(run: Run, sc: StepClock, phase: str, kind: str) -> list:
    """A finished training phase's steps, as latency class ``kind``."""
    steps = sc.phases[phase]
    run.latencies[kind] = steps
    if sc.refs[phase]:
        run.refs[kind] = sc.refs[phase]
    return steps


# -- vae-train -------------------------------------------------------------------


def vae_segments(seed_smooth: int, seed_jitter: int) -> flowgen.SegmentDataset:
    """16 smooth and 8 jitter scenes of 16 frames, each split into two 8-frame segments."""
    smooth = scenes.segment_dataset("smooth", 16, seed_smooth, GEOM, frames=GEOM.frames)
    jitter = scenes.segment_dataset("jitter", 8, seed_jitter, GEOM, frames=GEOM.frames)
    segs, masks = [], []
    for ds in (smooth, jitter):
        segs.extend([ds.segments[:, :8], ds.segments[:, 8:]])
        masks.extend([ds.masks[:, :8], ds.masks[:, 8:]])
    return flowgen.SegmentDataset(np.concatenate(segs), np.concatenate(masks))


def vae_train_cfg(steps: int) -> flowgen.VaeTrainConfig:
    return flowgen.VaeTrainConfig(vae=VAE_CFG, steps=steps, batch=8, lr=3e-3, clip_norm=1.0)


def vae_reference_loss() -> float:
    """Step-0 loss of the acceptance recipe (data seeds 100/101, train seed 42)."""
    _, curve = flowgen.train_vae(vae_segments(100, 101), vae_train_cfg(1), seed=42)
    return curve[0]["total"]


VAE_STEPS_PER_S = 4.0


def run_vae_train(seed, seconds, ctx: Ctx) -> Run:
    run, sc = Run(), ctx.probe.sc
    cfg = vae_train_cfg(FOREVER)
    ctx.begin(False)
    data = vae_segments(derive(seed, 0), derive(seed, 1))
    sc.begin("train", steps=ctx.ops(seconds, VAE_STEPS_PER_S, P90_MIN),
             stop_at_init=ctx.setup_only)
    _train(lambda p: flowgen.train_vae(data, cfg, seed=derive(seed, 2), params=p), ctx, run)
    if ctx.setup_only:
        return run
    steps = _phase(run, sc, "train", "step")
    run.splits = sc.splits["train"]
    run.items = cfg.batch * len(steps)
    run.busy_s = sum(steps)
    run.tally.attempted += len(steps)
    if ctx.checks:
        losses = sc.losses["train"]
        ref = json.loads((HERE / "reference.json").read_text())["vae_step0_loss"]
        sc.begin("check", timed=False)
        got = vae_reference_loss()
        run.check("vae step-0 loss matches reference", math.isclose(got, ref, rel_tol=REF_RTOL),
                  f"{got!r} vs {ref!r}")
        run.check("vae losses finite", all(map(math.isfinite, losses)), f"{len(losses)} losses")
        run.check("vae final loss below initial", losses[-1] < losses[0],
                  f"{losses[0]:.4f} -> {losses[-1]:.4f}")
    return run


# -- flow-train ------------------------------------------------------------------

PRETRAIN_SHARE = 0.35  # of --seconds; the rest fine-tunes
PRETRAIN_STEPS_PER_S = 40.0
FINETUNE_STEPS_PER_S = 8.0


def flow_train_cfg(steps: int) -> flowgen.FlowTrainConfig:
    return flowgen.FlowTrainConfig(flow=FLOW_CFG, steps=steps, batch=8, lr=1e-3)


def run_flow_train(seed, seconds, ctx: Ctx) -> Run:
    run, probe = Run(), ctx.probe
    sc = probe.sc
    cfg = flow_train_cfg(FOREVER)
    ft_cfg = flowgen.FinetuneConfig(steps=FOREVER, lr=3e-4, sub_batch=4, k_steps=8)
    ctx.begin(False)
    pairs = scenes.pair_dataset("translation", 24, derive(seed, 0), GEOM)
    vae_params = init_vae_params(VAE_CFG, gc.rng(derive(seed, 1)))
    sc.begin("pretrain", steps=ctx.ops(PRETRAIN_SHARE * seconds, PRETRAIN_STEPS_PER_S, P90_MIN),
             stop_at_init=ctx.setup_only)
    _train(lambda p: flowgen.train_flow(pairs, vae_params, VAE_CFG, cfg, seed=derive(seed, 2),
                                        flow_params=p), ctx, run)
    if ctx.setup_only:
        return run
    # Bundle the pretrained parameters (zero steps: latent stats only), off the step clock.
    sc.begin("bundle", timed=False)
    bundle, _ = flowgen.train_flow(pairs, vae_params, VAE_CFG, flow_train_cfg(0),
                                   flow_params=sc.params)
    ctx.begin(False)
    sc.begin("finetune",
             steps=ctx.ops((1 - PRETRAIN_SHARE) * seconds, FINETUNE_STEPS_PER_S, P90_MIN))
    _train(lambda p: flowgen.finetune_onpolicy(
        bundle if p is None else dataclasses.replace(bundle, flow_params=p),
        pairs, cfg, ft_cfg, seed=derive(seed, 3)), ctx, run)
    pre, ft = _phase(run, sc, "pretrain", "step"), _phase(run, sc, "finetune", "finetune_step")
    run.splits = sc.splits["pretrain"] + sc.splits["finetune"]
    run.items = cfg.batch * (len(pre) + len(ft))
    run.busy_s = sum(pre) + sum(ft)
    run.tally.attempted += len(pre) + len(ft)
    if ctx.checks:
        fm = sc.losses["pretrain"]
        k = max(1, len(fm) // 10)
        head, last = sum(fm[:k]) / k, sum(fm[-k:]) / k
        run.check("flow fm losses finite", all(map(math.isfinite, fm)), f"{len(fm)} losses")
        run.check("flow fm decreases", last < head, f"first {k}: {head:.4f}, last {k}: {last:.4f}")
        run.check("finetune total losses finite",
                  all(map(math.isfinite, sc.losses["finetune"])), f"{len(ft)} losses")
        for name in ("kstep", "cons"):
            vals = probe.terms[name]
            run.check(f"finetune {name} losses finite",
                      bool(vals) and all(map(math.isfinite, vals)), f"{len(vals)} losses")
    return run


# -- sample ------------------------------------------------------------------------

SAMPLERS = {"euler10": {"method": "euler", "steps": 10},
            "dopri5": {"method": "dopri5", "rtol": 1e-5, "atol": 1e-8}}
INTERLEAVE = ("euler10", "euler10", "euler10", "dopri5")
CYCLES_PER_S = 1.6  # of INTERLEAVE
BUNDLE_STEPS = 40   # short flow pretraining so the velocity field is not the random init
BUNDLE_SEED = 0     # the served model is fixed; the requests come from the workload seed
HISTORIES = 16


def sample_fixture(seed):
    held_out = scenes.pair_dataset("translation", HISTORIES, derive(seed, 0), GEOM)
    pairs = scenes.pair_dataset("translation", 24, derive(BUNDLE_SEED, 1), GEOM)
    vae_params = init_vae_params(VAE_CFG, gc.rng(derive(BUNDLE_SEED, 2)))
    bundle, _ = flowgen.train_flow(pairs, vae_params, VAE_CFG, flow_train_cfg(BUNDLE_STEPS),
                                   seed=derive(BUNDLE_SEED, 3))
    histories = [OffsetField(held_out.past[i], held_out.past_masks[i], GEOM.stride)
                 for i in range(HISTORIES)]
    return bundle, histories


def sample_request(j: int, seed: int, bundle, histories):
    kind = INTERLEAVE[j % len(INTERLEAVE)]
    return kind, lambda: flowgen.sample_future(histories[j % HISTORIES], bundle,
                                               SAMPLERS[kind], seed=derive(seed, 1000 + j))


def run_sample(seed, seconds, ctx: Ctx) -> Run:
    run = Run()
    ctx.begin(False)
    ctx.probe.sc.begin("bundle", timed=False)
    bundle, histories = sample_fixture(seed)
    if ctx.setup_only:
        return run
    run.latencies = {k: [] for k in SAMPLERS}
    first = {}
    # each cycle has 3 Euler-10 and 1 dopri5 request: enough for the p90 and the p75
    cycles = ctx.ops(seconds, CYCLES_PER_S, max(P75_MIN, math.ceil(P90_MIN / 3)))
    for j in range(cycles * len(INTERLEAVE)):
        kind, req = sample_request(j, seed, bundle, histories)
        ok, out = ctx.timed(run, kind, j, lambda: run.tally.call(req))
        if ok:
            first.setdefault(kind, (j, out))
    if ctx.checks:
        t_f = GEOM.frames - GEOM.past
        want = (t_f, GEOM.height, GEOM.width, 2)
        for kind, (j0, (field, mask)) in first.items():
            run.check(f"{kind} output shape", field.offsets.shape == want and
                      mask.shape == want[:3], f"{field.offsets.shape}")
            run.check(f"{kind} output finite", bool(np.all(np.isfinite(field.offsets))))
            _, again = sample_request(j0, seed, bundle, histories)
            f2, m2 = again()
            run.check(f"{kind} same seed gives identical bytes",
                      f2.offsets.tobytes() == field.offsets.tobytes()
                      and m2.tobytes() == mask.tobytes())
    return run


# -- analyze -----------------------------------------------------------------------

KINDS = ("translation", "rotation", "zoom", "shear", "static", "jitter-overlay")
SCENES_PER_S = 14.0
ANALYZE_GEOM = ["--frames", "32", "--height", "128", "--width", "128", "--stride", "4"]


def scene_plan(seed: int, i: int):
    """Synth arguments and the caption it must produce (None: no expectation).

    Translation is a pure pan.  The jitter overlay rides on a motion along one
    axis with a small cross component, so its caption names that axis.
    """
    rng = np.random.default_rng(derive(seed, 10_000 + i))
    kind = KINDS[i % len(KINDS)]
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if kind == "translation":
        vx = sign * rng.uniform(0.5, 1.5)
        return ["--kind", kind, "--vx", repr(vx), "--vy", "0.0"], \
            f"camera pans {'right' if vx > 0 else 'left'}"
    if kind == "rotation":
        omega = sign * rng.uniform(0.01, 0.03)
        return ["--kind", kind, "--omega", repr(omega)], \
            f"camera rolls {'clockwise' if omega > 0 else 'counterclockwise'}"
    if kind == "zoom":
        rate = sign * rng.uniform(0.005, 0.012)
        return ["--kind", kind, "--zoom-rate", repr(rate)], \
            f"camera zooms {'in' if rate > 0 else 'out'}"
    if kind == "shear":
        return ["--kind", kind, "--shear-rate", repr(sign * rng.uniform(0.005, 0.015))], None
    if kind == "static":
        return ["--kind", kind], "static camera"
    main = sign * rng.uniform(0.5, 1.0)
    cross = rng.uniform(-0.2, 0.2)
    axis = ("x", "y", "both")[int(rng.integers(3))]
    jitter = ["--jitter", repr(rng.uniform(0.2, 0.45)), "--jitter-axis", axis]
    if rng.random() < 0.5:
        return ["--kind", kind, "--vx", repr(main), "--vy", repr(cross), *jitter], \
            f"camera pans {'right' if main > 0 else 'left'}"
    return ["--kind", kind, "--vx", repr(cross), "--vy", repr(main), *jitter], \
        f"camera tilts {'down' if main > 0 else 'up'}"


def scene_commands(synth_args, d: Path):
    src, off, inv = str(d / "src.tlf"), str(d / "off.tlf"), str(d / "inv.tlf")
    out = ["--out", str(d)]
    return [
        ["synth", src, *synth_args, *ANALYZE_GEOM, *out],
        ["offsets", src, off, *out],
        ["offsets", off, inv, "--invert", *out],
        ["eval", src, "--metric", "flowtv", *out],
        ["eval", src, "--metric", "divcurle", *out],
        ["eval", inv, "--metric", "vepe", "--ref", src, *out],
        ["camcap", src, *out],
        ["analyze-variance", src, *out],
    ]


def _dispatch(argv) -> int:
    """cli.dispatch, with an argument-parser exit turned into its exit code."""
    try:
        return cli.dispatch(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


class ExitError(Exception):
    """A CLI command exited non-zero."""


def run_command(argv, tally: Tally) -> str:
    """One in-process CLI command, stdout captured; a non-zero exit fails."""
    buf, err = io.StringIO(), io.StringIO()

    def command():
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = _dispatch(argv)
        if code != 0:
            raise ExitError(f"{argv[0]} exit {code}: {err.getvalue().strip()}")

    tally.call(command)
    return buf.getvalue()


def check_scene(run: Run, kind: str, expected, outs, d: Path) -> None:
    src, inv = tlf.read_tlf(d / "src.tlf"), tlf.read_tlf(d / "inv.tlf")
    mem = tlf.convert(tlf.convert(src, tlf.CONV_OFFSET), tlf.CONV_NORMALIZED)
    run.check("offsets round trip bit-identical",
              np.array_equal(inv.coords, mem.coords) and np.array_equal(inv.visibility,
                                                                        src.visibility))
    vepe = float(outs[5].strip())
    run.check("vepe of round trip ~ 0", vepe < 1e-4, f"{vepe!r}")
    if kind == "translation":
        tv = float(outs[3].strip())
        run.check("flowtv of pure translation ~ 0", tv < 1e-6, f"{tv!r}")
    if expected is not None:
        phrase = outs[6].strip()
        run.check(f"camcap names {kind}", phrase.startswith(expected), f"{phrase!r}")


def run_analyze(seed, seconds, ctx: Ctx) -> Run:
    run, work = Run(), ctx.work
    ctx.begin(False)
    work.mkdir(parents=True, exist_ok=True)
    if ctx.setup_only:
        return run
    run.latencies["scene"] = []
    for i in range(ctx.ops(seconds, SCENES_PER_S, P90_MIN, len(KINDS))):
        synth_args, expected = scene_plan(seed, i)
        d = work / f"scene-{i}"
        cmds = scene_commands(synth_args, d)
        # a scene is timed whole, failed commands too; run_command counts each command
        _, outs = ctx.timed(run, "scene", i,
                            lambda: (True, [run_command(argv, run.tally) for argv in cmds]))
        if ctx.checks:
            try:
                check_scene(run, KINDS[i % len(KINDS)], expected, outs, d)
            except (OSError, ValueError, IndexError) as exc:
                run.check("scene outputs readable", False, f"scene {i}: {exc}")
        shutil.rmtree(d, ignore_errors=True)
    return run


WORKLOADS = {
    "vae-train": run_vae_train,
    "flow-train": run_flow_train,
    "sample": run_sample,
    "analyze": run_analyze,
}
