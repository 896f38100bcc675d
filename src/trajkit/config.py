"""Run configuration: sectioned key-value text files with strict validation.

A key sets a field of a module config (`OWNERS`) and takes that field's
default, or is one of `FREE_KEYS`.  Unknown sections or keys are rejected,
and every module config, which checks its own ranges, is built once at load.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import flowgen
from . import lossbank as lb
from .flowgen import FinetuneConfig, FlowTrainConfig, VaeTrainConfig
from .models import FlowConfig, VaeConfig, latent_steps
from .rules import AT_LEAST_0, AT_LEAST_1, FINITE_NONNEGATIVE, FINITE_POSITIVE, FieldError
from .scenes import KIND_MIXES, SceneGeometry

OUT_ENV_VAR = "TRAJLOOM_OUT"


class ConfigError(ValueError):
    """Invalid, unknown, or ill-typed configuration content."""


# [section] -> module configs whose fields are its keys, but for those set from other keys
OWNERS = {
    "data": {SceneGeometry: ()},
    "vae": {VaeConfig: ("height", "width", "frames"), VaeTrainConfig: ("vae", "neighbor"),
            lb.NeighborSpec: ()},
    "flow": {FlowConfig: ("history_steps", "future_steps", "latent_channels", "n_tokens"),
             FlowTrainConfig: ("flow",)},
    "finetune": {FinetuneConfig: ()},
}
# the keys named unlike their field
KEY_OF = {"clip_norm": "grad_clip", "token_floor": "invisible_token_weight",
          "weights": "hop_weights"}

# keys that no module config owns, with their defaults; the sampler's are
# the defaults of flowgen's own functions
FREE_KEYS = {
    "run": {"seed": 0, "out": None},  # out None: $TRAJLOOM_OUT, then ./runs
    "data": {"kind": "smooth", "scenes": 24},
    "sampler": flowgen.SAMPLER,
}

# rules of the config alone (the library also trains 0 steps; a run prints its last loss)
RULES = {
    ("run", "seed"): AT_LEAST_0,
    ("data", "kind"): (f"one of {', '.join(KIND_MIXES)}", lambda v: v in KIND_MIXES),
    ("data", "scenes"): AT_LEAST_1,
    ("sampler", "method"): ("one of euler, dopri5", lambda v: v in ("euler", "dopri5")),
    ("sampler", "rtol"): FINITE_POSITIVE,
    ("sampler", "atol"): FINITE_POSITIVE,
    **{(section, "steps"): AT_LEAST_1 for section in ("vae", "flow", "finetune", "sampler")},
    **{(section, "grad_clip"): ("0 (no clip) or a finite number > 0", FINITE_NONNEGATIVE[1])
       for section in ("vae", "flow")},
}


def _defaults() -> dict:
    out = {section: dict(keys) for section, keys in FREE_KEYS.items()}
    for section, owners in OWNERS.items():
        for cls, derived in owners.items():
            out.setdefault(section, {}).update(
                {KEY_OF.get(f.name, f.name): f.default for f in fields(cls)
                 if f.name not in derived})
    return out


DEFAULTS = _defaults()


def _parse(section: str, key: str, text: str):
    """`text` as the type of the key's default (a tuple: a space- or comma-separated list)."""
    if key not in DEFAULTS[section]:
        raise ConfigError(f"unknown key {key!r} in [{section}]")
    default = DEFAULTS[section][key]
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(x) for x in text.replace(",", " ").split())
        return text if default is None else type(default)(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {text!r} ({exc})") from exc


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {section: dict(keys) for section, keys in DEFAULTS.items()}
        for section, keys in self.values.items():
            merged[section].update(keys)
        self.values = merged
        for (section, key), (expected, ok) in RULES.items():
            if not ok(self.values[section][key]):
                error = FieldError(key, self.values[section][key], expected)
                raise ConfigError(f"bad value for {section}.{key}: {error}")
        # build each module config once, so that its checks run now
        self.geometry(), self.vae_train_config()
        flow, finetune = self.flow_train_config(), self.finetune_config()
        try:
            flowgen.check_sub_batch(finetune, flow)
        except FieldError as exc:
            raise ConfigError(f"bad value for finetune.sub_batch: {exc}") from exc

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    def out_dir(self) -> str:
        return self.values["run"]["out"] or os.environ.get(OUT_ENV_VAR, "runs")

    # -- constructors ------------------------------------------------------

    @classmethod
    def default(cls) -> "RunConfig":
        return cls({})

    @classmethod
    def desk(cls) -> "RunConfig":
        """Desk-scale preset: small nets train in CPU minutes at the stated
        step counts; published loss weights are untouched."""
        return cls({"vae": {"lr": 3e-3}, "flow": {"lr": 1e-3},
                    "finetune": {"lr": 3e-4, "sub_batch": 4}})

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls._from_text(text, str(path))

    @classmethod
    def loads(cls, text: str) -> "RunConfig":
        return cls._from_text(text, "<string>")

    @classmethod
    def _from_text(cls, text: str, origin: str) -> "RunConfig":
        parser = configparser.ConfigParser(default_section="")  # [DEFAULT] is unknown too
        try:
            parser.read_string(text, source=origin)
            unknown = [s for s in parser.sections() if s not in DEFAULTS]
            if unknown:
                raise ConfigError(f"unknown section [{unknown[0]}]")
            return cls({section: {key: _parse(section, key, raw)
                                  for key, raw in parser.items(section)}
                        for section in parser.sections()})
        except configparser.Error as exc:  # on one line, as the CLI prints it
            key = f"{exc.section}.{exc.option}: " if getattr(exc, "option", None) else ""
            raise ConfigError(f"{origin}: {key}{' '.join(str(exc).split())}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{origin}: {exc}") from exc

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

    def _build(self, section: str, cls, **derived):
        """`cls` from the keys of [section] named after its fields, plus the
        `derived` fields; a FieldError becomes a ConfigError naming the key."""
        keys = self.values[section]
        kwargs = {f.name: keys[KEY_OF.get(f.name, f.name)] for f in fields(cls)
                  if f.name not in derived}
        if "clip_norm" in kwargs:  # grad_clip 0, and only 0, means no clip
            kwargs["clip_norm"] = kwargs["clip_norm"] or None
        try:
            return cls(**kwargs, **derived)
        except FieldError as exc:
            # history_steps is the one derived field that valid keys can fail
            where = ("data.past" if exc.field == "history_steps"
                     else f"{section}.{KEY_OF.get(exc.field, exc.field)}")
            raise ConfigError(f"bad value for {where}: {exc}") from exc

    def geometry(self) -> SceneGeometry:
        return self._build("data", SceneGeometry)

    def vae_config(self) -> VaeConfig:
        d = self.values["data"]
        return self._build("vae", VaeConfig, height=d["height"], width=d["width"],
                           frames=d["past"])

    def vae_train_config(self) -> VaeTrainConfig:
        return self._build("vae", VaeTrainConfig, vae=self.vae_config(),
                           neighbor=self._build("vae", lb.NeighborSpec))

    def flow_config(self) -> FlowConfig:
        d, vae = self.values["data"], self.vae_config()
        return self._build("flow", FlowConfig,
                           history_steps=latent_steps(d["past"], vae.temporal_ratio),
                           future_steps=latent_steps(d["frames"] - d["past"], vae.temporal_ratio),
                           latent_channels=vae.latent_channels, n_tokens=vae.n_tokens)

    def flow_train_config(self) -> FlowTrainConfig:
        return self._build("flow", FlowTrainConfig, flow=self.flow_config())

    def finetune_config(self) -> FinetuneConfig:
        return self._build("finetune", FinetuneConfig)

    def sampler_spec(self) -> dict:
        return dict(self.values["sampler"])
