"""Run configuration: sectioned key-value text files with strict validation.

Every hyperparameter defaults to its published value where one exists
(loss weights, noise scales, rollout constants, learning rates); step
counts and scene counts default to desk scale so a run finishes in CPU
minutes.  Unknown sections or keys are rejected outright.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, field

from . import lossbank as lb
from .flowgen import FinetuneConfig, FlowTrainConfig, VaeTrainConfig
from .models import FlowConfig, VaeConfig
from .scenes import KIND_MIXES

OUT_ENV_VAR = "TRAJLOOM_OUT"


class ConfigError(ValueError):
    """Invalid, unknown, or ill-typed configuration content."""


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.replace(",", " ").split())


def _parse_steps(text: str) -> int:
    steps = int(text)
    if steps < 1:
        raise ValueError("a training run needs at least 1 step")
    return steps


def _one_of(*allowed: str):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}")
        return text
    return parse


# (default, parser) per section/key; parser None means str
SCHEMA: dict = {
    "run": {
        "seed": (0, int),
        "out": (None, str),  # None -> TRAJLOOM_OUT env or ./runs
    },
    "data": {
        "kind": ("smooth", _one_of(*KIND_MIXES)),
        "scenes": (24, int),
        "frames": (16, int),
        "past": (8, int),
        "height": (32, int),
        "width": (32, int),
        "stride": (8, int),
    },
    "vae": {
        "patch": (8, int),
        "hidden": (64, int),
        "blocks": (2, int),
        "latent_channels": (8, int),
        "temporal_ratio": (4, int),
        "beta": (5e-5, float),
        "lambda_temporal": (0.1, float),
        "lambda_spatial": (0.2, float),
        "huber_delta": (1.0, float),
        "hops": ((1, 2, 4), _parse_ints),
        "hop_weights": ((1.0, 0.5, 0.25), _parse_floats),
        "lr": (2e-5, float),
        "steps": (500, _parse_steps),
        "batch": (4, int),
        "grad_clip": (0.1, float),
    },
    "flow": {
        "hidden": (64, int),
        "blocks": (2, int),
        "cond_hidden": (32, int),
        "time_features": (8, int),
        "sigma": (0.05, float),
        "sigma0": (0.1, float),
        "anchor_mode": ("first-slice", _one_of("first-slice", "all-slices")),
        "invisible_token_weight": (0.01, float),
        "lr": (6e-5, float),
        "steps": (1000, _parse_steps),
        "batch": (8, int),
        "grad_clip": (1.0, float),
        "vis_steps": (300, int),
        "vis_lr": (0.01, float),
    },
    "finetune": {
        "k_steps": (8, int),
        "w1": (1.0, float),
        "w0": (0.5, float),
        "gamma": (0.1, float),
        "lambda_kstep": (0.1, float),
        "denom_clamp": (1e-3, float),
        "t_eps": (1e-5, float),
        "lr": (1e-5, float),
        "sub_batch": (8, int),
        "steps": (200, _parse_steps),
    },
    "sampler": {
        "method": ("euler", _one_of("euler", "dopri5")),
        "steps": (10, int),
        "rtol": (1e-5, float),
        "atol": (1e-8, float),
    },
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {s: {k: spec[0] for k, spec in keys.items()} for s, keys in SCHEMA.items()}
        for section, keys in self.values.items():
            merged[section].update(keys)
        self.values = merged

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    def out_dir(self) -> str:
        configured = self.values["run"]["out"]
        if configured:
            return configured
        return os.environ.get(OUT_ENV_VAR, "runs")

    # -- constructors ------------------------------------------------------

    @classmethod
    def default(cls) -> "RunConfig":
        return cls({})

    @classmethod
    def desk(cls) -> "RunConfig":
        """Desk-scale preset: small nets train in CPU minutes at the stated
        step counts; published loss weights are untouched."""
        cfg = cls({})
        cfg.values["vae"].update({"lr": 3e-3, "batch": 8})
        cfg.values["flow"].update({"lr": 1e-3})
        cfg.values["finetune"].update({"lr": 3e-4, "sub_batch": 4, "steps": 200})
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return cls._from_parser(parser, str(path))

    @classmethod
    def loads(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser()
        parser.read_string(text)
        return cls._from_parser(parser, "<string>")

    @classmethod
    def _from_parser(cls, parser, origin: str) -> "RunConfig":
        values: dict = {}
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"{origin}: unknown section [{section}]")
            values[section] = {}
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"{origin}: unknown key {key!r} in [{section}]")
                _, parse = SCHEMA[section][key]
                try:
                    values[section][key] = parse(raw) if parse else raw
                except ValueError as exc:
                    raise ConfigError(
                        f"{origin}: bad value for {section}.{key}: {raw!r} ({exc})") from exc
        return cls(values)

    # -- serialization -------------------------------------------------------

    def dumps(self) -> str:
        buf = io.StringIO()
        for section in sorted(self.values):
            buf.write(f"[{section}]\n")
            for key in sorted(self.values[section]):
                val = self.values[section][key]
                if isinstance(val, tuple):
                    val = " ".join(repr(x) if isinstance(x, float) else str(x) for x in val)
                buf.write(f"{key} = {val}\n")
            buf.write("\n")
        return buf.getvalue()

    def sha256(self) -> str:
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()

    # -- converters to module configs ----------------------------------------

    def vae_config(self) -> VaeConfig:
        d, v = self.values["data"], self.values["vae"]
        return VaeConfig(height=d["height"], width=d["width"], frames=d["past"],
                         patch=v["patch"], hidden=v["hidden"], blocks=v["blocks"],
                         latent_channels=v["latent_channels"],
                         temporal_ratio=v["temporal_ratio"])

    def vae_train_config(self) -> VaeTrainConfig:
        v = self.values["vae"]
        return VaeTrainConfig(
            vae=self.vae_config(), steps=v["steps"], batch=v["batch"], lr=v["lr"],
            beta=v["beta"], lambda_temporal=v["lambda_temporal"],
            lambda_spatial=v["lambda_spatial"], huber_delta=v["huber_delta"],
            neighbor=lb.NeighborSpec(tuple(v["hops"]), tuple(v["hop_weights"])),
            clip_norm=v["grad_clip"] if v["grad_clip"] > 0 else None)

    def flow_config(self) -> FlowConfig:
        d, f = self.values["data"], self.values["flow"]
        vae = self.vae_config()
        t_p = d["past"]
        t_f = d["frames"] - d["past"]
        return FlowConfig(hidden=f["hidden"], blocks=f["blocks"],
                          cond_hidden=f["cond_hidden"], time_features=f["time_features"],
                          history_steps=-(-t_p // vae.temporal_ratio),
                          future_steps=-(-t_f // vae.temporal_ratio),
                          latent_channels=vae.latent_channels, n_tokens=vae.n_tokens)

    def flow_train_config(self) -> FlowTrainConfig:
        f = self.values["flow"]
        return FlowTrainConfig(flow=self.flow_config(), steps=f["steps"], batch=f["batch"],
                               lr=f["lr"], sigma=f["sigma"], sigma0=f["sigma0"],
                               anchor_mode=f["anchor_mode"],
                               token_floor=f["invisible_token_weight"],
                               clip_norm=f["grad_clip"] if f["grad_clip"] > 0 else None)

    def finetune_config(self) -> FinetuneConfig:
        f = self.values["finetune"]
        return FinetuneConfig(steps=f["steps"], lr=f["lr"], sub_batch=f["sub_batch"],
                              k_steps=f["k_steps"], t_eps=f["t_eps"],
                              denom_clamp=f["denom_clamp"], w1=f["w1"], w0=f["w0"],
                              gamma=f["gamma"], lambda_kstep=f["lambda_kstep"])

    def sampler_spec(self) -> dict:
        s = self.values["sampler"]
        return {"method": s["method"], "steps": s["steps"], "rtol": s["rtol"],
                "atol": s["atol"]}
