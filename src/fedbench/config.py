"""Experiment configuration: INI-style files, grid expansion, snapshots.

Each section fills one config dataclass: its keys are the field names (two
aliases aside, see _SECTIONS), typed by the field annotations and defaulting to
the field defaults. The dataset, partition mode, and strategy kind accept
comma-separated lists; a file with lists expands to the cross-product of runs.
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

def _keys(names: str, **aliases: str) -> dict[str, str]:
    return {**{name: name for name in names.split()}, **aliases}


# INI section -> (dataclass it fills, {INI key: field it sets}). A dataclass
# field missing here (model.activation, partition.num_clients) is not settable;
# model.input_dim and model.output_classes are the dataset's shape.
_SECTIONS = {
    "experiment": (ExperimentConfig, _keys(
        "dataset rounds num_clients master_seed train_subset eval_subset data_dir")),
    "partition": (PartitionSpec, _keys("mode alpha seed")),
    "model": (ModelSpec, _keys("hidden_dims init_seed")),
    "local": (LocalOptimizerConfig, _keys(
        "learning_rate batch_size local_epochs adam_beta1 adam_beta2 adam_epsilon",
        optimizer="kind")),
    "strategy": (StrategyConfig, _keys(
        "kind server_lr momentum adam_beta1 adam_beta2 adaptivity prox_mu "
        "dp_noise_multiplier dp_target_quantile dp_clip_lr dp_initial_clip")),
    "synthetic": (SyntheticSpec, _keys(
        "num_classes train_per_class test_per_class input_dim class_sep seed")),
    "adversary": (AdversarySpec, _keys("kind scale_factor", clients="affected_clients")),
}


def _to_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _unwrap_optional(hint):
    if isinstance(hint, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return hint


def _coerce(text: str, hint, key: str):
    """Convert one INI value to the field type; `key` names it in errors."""
    hint = _unwrap_optional(hint)
    container = typing.get_origin(hint)
    if container is not None:  # list[int], frozenset[int]
        (item,) = typing.get_args(hint)
        return container(_coerce(part, item, key) for part in _to_list(text))
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
                given[section][field] = _coerce(text.strip(), hints[field], f"{section}.{key}")
    return given


def parse_config(path: str | Path) -> list[ExperimentConfig]:
    """Parse an experiment file into one config per grid combination."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from None
    exp, par, mod, loc, strat, synth, adv = _read_sections(parser).values()

    # The grid axes: comma-separated lists of the str fields they set.
    datasets = _to_list(exp.pop("dataset", ExperimentConfig.dataset))
    modes = _to_list(par.pop("mode", PartitionSpec.mode))
    kinds = _to_list(strat.pop("kind", StrategyConfig.kind))
    for key, items in [("experiment.dataset", datasets), ("partition.mode", modes),
                       ("strategy.kind", kinds)]:
        if not items:
            raise ConfigError(f"{key}: the list has no items")
    num_clients = exp.get("num_clients", ExperimentConfig.num_clients)
    synthetic = SyntheticSpec(**synth) if synth or "synthetic" in datasets else None

    configs = []
    for dataset, mode, kind in itertools.product(datasets, modes, kinds):
        input_dim, classes = dataset_shape(dataset, synthetic)
        model = {"hidden_dims": [256] if dataset == "cifar10" else [128], **mod}
        cfg = ExperimentConfig(
            dataset=dataset,
            partition=PartitionSpec(mode=mode, num_clients=num_clients, **par),
            model=ModelSpec(input_dim, output_classes=classes, **copy.deepcopy(model)),
            local=LocalOptimizerConfig(**loc),
            strategy=StrategyConfig(kind=kind, **strat),
            adversary=AdversarySpec(**adv),
            synthetic=copy.deepcopy(synthetic),
            **exp,
        )
        cfg.validate()
        configs.append(cfg)
    return configs


def run_id_for(cfg: ExperimentConfig, replicate: int) -> str:
    parts = [cfg.strategy.kind, cfg.dataset, cfg.partition.mode]
    if cfg.partition.mode == "dirichlet":
        parts.append(f"a{cfg.partition.alpha:g}")
    parts.append(f"rep{replicate}")
    return "_".join(parts)


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
