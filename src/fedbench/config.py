"""Experiment configuration: INI-style files, grid expansion, snapshots.

Each section fills one config dataclass: its keys are the field names (two
aliases aside, see _KEY_OF), typed by the field annotations and defaulting to
the field defaults. The grid axes, the keys run_identity names a run by, take
comma-separated lists: a file expands to the cross-product of runs, and an iid
run, whose identity ignores alpha, is made once whatever the alpha list.
"""

from __future__ import annotations

import configparser
import copy
import itertools
import math
import types
import typing
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

from .adversary import AdversarySpec
from .data import SyntheticSpec, dataset_shape
from .errors import ConfigError
from .model import LocalOptimizerConfig, ModelSpec
from .partition import PartitionSpec
from .simulation import ExperimentConfig
from .strategies import StrategyConfig

# INI key of each field whose key is not its name; None: not settable
# (model.input_dim and model.output_classes are the dataset's shape).
_KEY_OF = {"local.kind": "optimizer", "adversary.affected_clients": "clients",
           "model.input_dim": None, "model.output_classes": None}

# The grid axes, outermost first, keyed by the run_identity key each one sets.
_AXES = {"dataset": ("experiment", "dataset"), "partition_mode": ("partition", "mode"),
         "alpha": ("partition", "alpha"), "strategy": ("strategy", "kind")}


def _unwrap_optional(hint):
    if isinstance(hint, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return hint


def _section(name: str, cls: type) -> tuple[type, dict[str, str]]:
    """(cls, {INI key: field it sets}); a field holding a dataclass is a
    section of its own."""
    hints = typing.get_type_hints(cls)
    return cls, {key: f.name for f in fields(cls)
                 if (key := _KEY_OF.get(f"{name}.{f.name}", f.name))
                 and not is_dataclass(_unwrap_optional(hints[f.name]))}


_SECTIONS = {name: _section(name, cls) for name, cls in [
    ("experiment", ExperimentConfig), ("partition", PartitionSpec), ("model", ModelSpec),
    ("local", LocalOptimizerConfig), ("strategy", StrategyConfig),
    ("synthetic", SyntheticSpec), ("adversary", AdversarySpec),
]}


def _coerce(text: str, hint, key: str):
    """Convert one INI value to the field type; `key` names it in errors."""
    hint = _unwrap_optional(hint)
    container = typing.get_origin(hint)
    if container is not None:  # list[int], frozenset[int]
        (item,) = typing.get_args(hint)
        parts = [part.strip() for part in text.split(",") if part.strip()]
        return container(_coerce(part, item, key) for part in parts)
    try:
        value = hint(text)
    except ValueError:
        expected = "an integer" if hint is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _read_sections(parser: configparser.ConfigParser) -> dict[str, dict]:
    """Typed field values each section sets, keyed by field name. Empty
    values count as unset."""
    given = {name: {} for name in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}], expected one of {sorted(_SECTIONS)}"
            )
        cls, keys = _SECTIONS[section]
        hints = typing.get_type_hints(cls)
        for key, text in parser[section].items():
            if key not in keys:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}], expected one of "
                    f"{sorted(keys)}"
                )
            if text.strip():
                field = keys[key]
                hint = list[hints[field]] if (section, field) in _AXES.values() else hints[field]
                given[section][field] = _coerce(text.strip(), hint, f"{section}.{key}")
    return given


def parse_config(path: str | Path) -> list[ExperimentConfig]:
    """Parse an experiment file into one config per grid combination."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(path.read_text(encoding="utf-8-sig"), str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as err:
        raise ConfigError(f"{path}: cannot read: {err.strerror or err}") from None
    except (UnicodeDecodeError, configparser.Error) as err:
        raise ConfigError(f"{path}: {err}") from None
    given = _read_sections(parser)
    axes = [given[section].pop(field, [getattr(_SECTIONS[section][0], field)])
            for section, field in _AXES.values()]
    for (section, field), items in zip(_AXES.values(), axes):
        if not items:
            raise ConfigError(f"{section}.{field}: the list has no items")

    configs = []
    for picks in itertools.product(*map(enumerate, axes)):
        sections = copy.deepcopy(given)
        for (section, field), (_, item) in zip(_AXES.values(), picks):
            sections[section][field] = item
        exp, par, mod, loc, strat, synth, adv = sections.values()
        synthetic = SyntheticSpec(**synth) if exp["dataset"] == "synthetic" else None
        input_dim, classes = dataset_shape(exp["dataset"], synthetic)
        model = {"hidden_dims": [256] if exp["dataset"] == "cifar10" else [128], **mod}
        cfg = ExperimentConfig(
            partition=PartitionSpec(**par),
            model=ModelSpec(input_dim, output_classes=classes, **model),
            local=LocalOptimizerConfig(**loc),
            strategy=StrategyConfig(**strat),
            adversary=AdversarySpec(**adv),
            synthetic=synthetic,
            **exp,
        )
        cfg.validate()
        # A later item on an axis the run's identity leaves out (None) repeats the run.
        identity = run_identity(cfg)
        if not any(i and identity[name] is None for name, (i, _) in zip(_AXES, picks)):
            configs.append(cfg)
    if given["synthetic"] and not any(cfg.synthetic for cfg in configs):
        raise ConfigError("[synthetic] is set, but no run of the grid has dataset = synthetic")
    return configs


def run_identity(cfg: ExperimentConfig) -> dict:
    """What tells a run apart in a grid: alpha counts only for Dirichlet."""
    mode = cfg.partition.mode
    return {"strategy": cfg.strategy.kind, "dataset": cfg.dataset, "partition_mode": mode,
            "alpha": cfg.partition.alpha if mode == "dirichlet" else None}


def run_name(identity: dict) -> str:
    """The id a run's replicas share; identity holds run_identity's keys (a summary row does)."""
    *parts, alpha = (identity[key] for key in ("strategy", "dataset", "partition_mode", "alpha"))
    if alpha is not None:  # :g, unless that would give two distinct alphas one id
        parts.append(f"a{alpha:g}" if float(f"{alpha:g}") == alpha else f"a{alpha!r}")
    return "_".join(parts)


def run_id_for(cfg: ExperimentConfig, replicate: int) -> str:
    return f"{run_name(run_identity(cfg))}_rep{replicate}"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-type snapshot that round-trips through JSON losslessly."""
    data = asdict(cfg)
    data["adversary"]["affected_clients"] = sorted(cfg.adversary.affected_clients)
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of config_to_dict; absent keys take the dataclass default."""
    return _from_dict(ExperimentConfig, data)


def _from_dict(cls: type, data: dict):
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        hint = _unwrap_optional(hints[f.name])
        if value is not None and is_dataclass(hint):
            value = _from_dict(hint, value)
        elif typing.get_origin(hint) is frozenset:
            value = frozenset(value)
        values[f.name] = value
    return cls(**values)
