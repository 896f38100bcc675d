"""A bit-identity digest of what trajkit computes, one sha256 per part.

    PYTHONPATH=src python tests/digest.py

prints one line per part, its name and the first 16 hex digits of the
sha256 of its bytes, then a total over the parts.  A change that claims bit
identity quotes this output at its parent and at itself; a change that
alters floats names the parts that moved.  The parts:

- parameters and loss curves after 6 `train_vae`, 20 `train_flow` and
  6 `finetune_onpolicy` steps on the benchmark's builders
  (perfbench/workloads.py), then `eval_fm_loss` (tests/criteria.py) of the
  fine-tuned bundle;
- Euler-10 and dopri5 `sample_future` of one history;
- the value and gradient bytes of `kl_loss`, and of `recon_loss`,
  `temporal_loss` and `spatial_loss` at a bool, a uint8 and a float 0/1 mask;
- `trajkit gradcheck`'s stdout;
- `analyze`: the `eval` flowtv, divcurle and vepe values, the `camcap`
  stats and the `analyze-variance` values and exit codes of four fixed
  `synth` scenes: a fully visible rotation, a zoom that leaves the frame
  (partly hidden), and a static scene and a pure pan, whose camera residuals
  are exact zeros;
- `cli_checkpoints`: the exit codes and the bytes of `vae.ckpt`,
  `flow.ckpt`, `finetuned.ckpt` and an Euler and a dopri5 `future.tlf`
  from `train-vae`, `train-flow --vae`, `finetune --ckpt` and `sample`,
  each through `cli.dispatch`, on tests/test_cli_pipeline.py's
  `TINY_CONFIG` with every `steps` and `vis_steps` at 3.

It takes about 1.7 s on a 2-CPU desk.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as wl  # noqa: E402
from criteria import eval_fm_loss  # noqa: E402
from test_cli_pipeline import TINY_CONFIG  # noqa: E402
from trajkit import cli, flowgen, gradcore as gc, lossbank as lb, scenes  # noqa: E402
from trajkit.models import init_vae_params  # noqa: E402
from trajkit.trajfield import OffsetField  # noqa: E402

# synth arguments of the analyze part's scenes: all visible, partly hidden, then
# two whose camera residuals are exact zeros
ANALYZE_SCENES = {
    "rotation": ["--kind", "rotation", "--omega", "0.004"],
    "zoom": ["--kind", "zoom", "--zoom-rate", "0.02"],
    "static": ["--kind", "static"],
    "pan": ["--kind", "translation", "--vx", "0.75"],
}
ANALYZE_GEOM = ["--frames", "16", "--height", "32", "--width", "48", "--stride", "4"]
MASK_DTYPES = {"bool": bool, "uint8": np.uint8, "float": np.float64}
SEGMENT_LOSSES = {"recon_loss": lb.recon_loss, "temporal_loss": lb.temporal_loss,
                  "spatial_loss": lb.spatial_loss}


def _feed(h, item) -> None:
    """Hash `item`'s bytes: arrays with dtype and shape, containers in order
    (dicts by sorted key), Tensors by their data, numbers by repr."""
    if isinstance(item, gc.Tensor):
        item = item.data
    if isinstance(item, np.ndarray):
        h.update(f"{item.dtype.str}{item.shape}".encode())
        h.update(np.ascontiguousarray(item).tobytes())
    elif isinstance(item, dict):
        for key in sorted(item):
            h.update(repr(key).encode())
            _feed(h, item[key])
    elif isinstance(item, (list, tuple)):
        h.update(f"[{len(item)}]".encode())
        for x in item:
            _feed(h, x)
    elif isinstance(item, (str, bool, int, float, np.number)):
        h.update(repr(item.item() if isinstance(item, np.number) else item).encode())
    else:
        raise TypeError(f"digest: cannot hash {type(item).__name__}")


def _sha(*items) -> str:
    h = hashlib.sha256()
    _feed(h, items)
    return h.hexdigest()[:16]


def _value_and_grad(fn, *args):
    value, grads = gc.grad(fn, list(args))
    return float(value), grads


def _analyze(tmp: Path) -> list:
    """The CSV text of the diagnostics of every ANALYZE_SCENES scene, and the
    exit code of its `analyze-variance`, which refuses a scene without motion
    variance to split (the static scene and the pure pan exit 1, writing no
    `variance.csv`); every other command must succeed."""
    out = []
    for name, synth in ANALYZE_SCENES.items():
        d = tmp / name
        src, inv, where = str(d / "src.tlf"), str(d / "inv.tlf"), ["--out", str(d)]
        for argv in (["synth", src, *synth, *ANALYZE_GEOM], ["offsets", "--invert", src, inv],
                     ["eval", src, "--metric", "flowtv"], ["eval", src, "--metric", "divcurle"],
                     ["eval", inv, "--metric", "vepe", "--ref", src], ["camcap", src]):
            if cli.dispatch([*argv, *where]) != 0:
                raise RuntimeError(f"digest: {argv[0]} failed on the {name} scene")
        out.append(cli.dispatch(["analyze-variance", src, *where]))
        out += [(d / f).read_text() for f in ("metrics.csv", "camcap.csv", "variance.csv")
                if (d / f).exists()]
    return out


def _checkpoints(tmp: Path) -> list:
    """The exit code of each command of the checkpoint chain, then the bytes
    of the checkpoints and futures it writes."""
    body = re.sub(r"^(steps|vis_steps) = \d+", r"\1 = 3", TINY_CONFIG, flags=re.M)
    cfg, dopri5, hist = tmp / "tiny.cfg", tmp / "dopri5.cfg", tmp / "hist.tlf"
    cfg.write_text(body)
    dopri5.write_text(body + "\n[sampler]\nmethod = dopri5\n")
    sample = ["sample", "--ckpt", tmp / "ft" / "finetuned.ckpt", "--history", hist,
              "--seed", "3", "--config"]
    codes = [cli.dispatch([str(a) for a in argv]) for argv in (
        ["train-vae", "--config", cfg, "--out", tmp / "vae"],
        ["train-flow", "--config", cfg, "--vae", tmp / "vae" / "vae.ckpt", "--out", tmp / "flow"],
        ["finetune", "--config", cfg, "--ckpt", tmp / "flow" / "flow.ckpt", "--out", tmp / "ft"],
        ["synth", hist, "--kind", "translation", "--vx", "0.5", "--frames", "8", "--out", tmp],
        [*sample, cfg, "--out", tmp / "euler"], [*sample, dopri5, "--out", tmp / "dopri5"])]
    files = ("vae/vae.ckpt", "flow/flow.ckpt", "ft/finetuned.ckpt", "euler/future.tlf",
             "dopri5/future.tlf")
    return [codes, *((tmp / f).read_bytes().hex() for f in files)]


def parts() -> dict:
    """Part name -> the first 16 hex digits of its sha256."""
    out = {}
    vae_params, curve = flowgen.train_vae(wl.vae_segments(100, 101), wl.vae_train_cfg(6),
                                          seed=42)
    out["train_vae"] = _sha(vae_params, curve)

    pairs = scenes.pair_dataset("translation", 24, wl.derive(0, 0), wl.GEOM)
    flow_vae = init_vae_params(wl.VAE_CFG, gc.rng(wl.derive(0, 1)))
    cfg = wl.flow_train_cfg(20)
    bundle, curve = flowgen.train_flow(pairs, flow_vae, wl.VAE_CFG, cfg, seed=wl.derive(0, 2))
    out["train_flow"] = _sha(bundle.flow_params, bundle.stats.mean, bundle.stats.std, curve)
    ft_cfg = flowgen.FinetuneConfig(steps=6, lr=3e-4, sub_batch=4, k_steps=8)
    bundle, curve = flowgen.finetune_onpolicy(bundle, pairs, cfg, ft_cfg, seed=wl.derive(0, 3))
    out["finetune_onpolicy"] = _sha(bundle.flow_params, curve)
    out["eval_fm_loss"] = _sha(eval_fm_loss(bundle, pairs, cfg))

    history = OffsetField(pairs.past[0], pairs.past_masks[0], wl.GEOM.stride)
    for kind in ("euler10", "dopri5"):
        field, mask = flowgen.sample_future(history, bundle, wl.SAMPLERS[kind], seed=5)
        out[f"sample_{kind}"] = _sha(field.offsets, mask)

    rng = np.random.default_rng(7)
    mu, logvar = rng.normal(size=(2, 2, 16, 8)), rng.normal(size=(2, 2, 16, 8)) * 0.3
    out["kl_loss"] = _sha(*_value_and_grad(lb.kl_loss, mu, logvar))
    target = rng.normal(size=(2, 4, 8, 8, 2))
    recon = target + rng.normal(size=target.shape) * 0.5
    visible = rng.random(target.shape[:-1]) < 0.8
    for name, loss in SEGMENT_LOSSES.items():
        for label, dtype in MASK_DTYPES.items():
            mask = visible.astype(dtype)
            out[f"{name}[{label}]"] = _sha(*_value_and_grad(lambda r: loss(target, r, mask),
                                                            recon))

    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        code = cli.dispatch(["gradcheck", "--out", tmp])
    out["gradcheck"] = _sha(code, stdout.getvalue())

    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        out["analyze"] = _sha(_analyze(Path(tmp)))
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        out["cli_checkpoints"] = _sha(_checkpoints(Path(tmp)))
    return out


def total(digests: dict) -> str:
    return _sha([f"{name}={d}" for name, d in digests.items()])


def main() -> None:
    digests = parts()
    width = max(map(len, digests))
    for name, d in digests.items():
        print(f"{name:<{width}}  {d}")
    print(f"{'total':<{width}}  {total(digests)}")


if __name__ == "__main__":
    main()
