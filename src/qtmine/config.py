"""Run configuration: one JSON file, overridable field by field from the CLI.

Only the keys present in the file are applied, so a config stays minimal and
self-documenting; unknown keys, values of the wrong type for their
`RunConfig` field, and strings that are not valid UTF-8 are rejected rather
than silently ignored. A command-line flag replaces the file's value, an
empty string included. The single seed here feeds every stochastic component
of a run.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DataFormatError
from .model import ModelConfig
from .qt import DEFAULT_RANK_TEMPLATE, DEFAULT_TARGET_PHRASE
from .highlight import DEFAULT_HIGHLIGHT_TEMPLATE
from .train import TrainConfig
from .util import reading, utf8


@dataclass
class RunConfig:
    corpus: str | None = None
    trials: str | None = None
    aliases: str | None = None
    approvals: str | None = None
    analogies: str | None = None
    checkpoint_dir: str = "checkpoints"
    output_dir: str = "out"

    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 128
    d_ff: int = 512
    max_seq: int = 128
    vocab_size: int = 8192

    lr: float = TrainConfig.lr
    batch_size: int = TrainConfig.batch_size
    n_epochs: int = TrainConfig.n_epochs
    max_steps: int | None = TrainConfig.max_steps
    warmup_frac: float = TrainConfig.warmup_frac

    template: str = DEFAULT_RANK_TEMPLATE
    target: str = DEFAULT_TARGET_PHRASE
    highlight_template: str = DEFAULT_HIGHLIGHT_TEMPLATE
    seed: int = 0

    def model_dims(self) -> dict[str, int]:
        """Every `ModelConfig` field but `vocab_size`, which the trained vocabulary sets."""
        return {f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name != "vocab_size"}

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(**self.model_dims(), vocab_size=vocab_size)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)
                              if hasattr(self, f.name)})


_FIELD_TYPES = typing.get_type_hints(RunConfig)
# JSON value types each field type accepts: an int is a valid float, a bool is
# not a valid number.
_ACCEPTS = {str: (str,), int: (int,), float: (int, float)}


def _checked(key: str, value):
    """`value` for RunConfig field `key`, or a DataFormatError if its type is wrong."""
    hint = _FIELD_TYPES[key]
    types = typing.get_args(hint) or (hint,)
    if value is None and type(None) in types:
        return None
    base = next(t for t in types if t is not type(None))
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[base]):
        raise DataFormatError(f"{key} must be {base.__name__}, got {value!r}")
    if base is str:
        utf8(value, key)
    return base(value)


def load_config(path: str | Path | None) -> RunConfig:
    """Read a JSON config; a missing path means all defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    with reading(path, "config") as text:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DataFormatError("must hold a JSON object")
        unknown = sorted(set(data) - _FIELD_TYPES.keys())
        if unknown:
            raise DataFormatError(f"unknown keys: {', '.join(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, _checked(key, value))
    return cfg


def apply_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Set any non-None keyword onto the config; unknown names are an error."""
    for key, value in overrides.items():
        if key not in _FIELD_TYPES:
            raise DataFormatError(f"unknown config field: {key}")
        if value is not None:
            setattr(cfg, key, value)
    return cfg
