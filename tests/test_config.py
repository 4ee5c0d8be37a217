"""Config parsing: grids, validation messages, snapshot round-trips."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbench import ConfigError, ExperimentConfig, PartitionSpec, parse_config
from fedbench.cli import _expand_runs
from fedbench.config import (
    _AXES,
    _SECTIONS,
    config_from_dict,
    config_to_dict,
    run_id_for,
    run_identity,
)
from fedbench.data import DATASET_NAMES, dataset_shape
from fedbench.partition import PARTITION_MODES
from fedbench.strategies import STRATEGY_KINDS

ROOT = Path(__file__).resolve().parent.parent

# Every key an INI file may set, per section (37 in all). The model's input
# and output widths are the dataset's shape and not settable; the partition and
# model-init seeds derive from the master seed.
SETTABLE_KEYS = {
    "experiment": {"dataset", "rounds", "num_clients", "master_seed",
                   "train_subset", "eval_subset", "data_dir"},
    "partition": {"mode", "alpha"},
    "model": {"hidden_dims"},
    "local": {"optimizer", "learning_rate", "batch_size", "local_epochs",
              "adam_beta1", "adam_beta2", "adam_epsilon"},
    "strategy": {"kind", "server_lr", "momentum", "adam_beta1", "adam_beta2",
                 "adaptivity", "prox_mu", "dp_noise_multiplier",
                 "dp_target_quantile", "dp_clip_lr", "dp_initial_clip"},
    "synthetic": {"num_classes", "train_per_class", "test_per_class",
                  "input_dim", "class_sep", "seed"},
    "adversary": {"kind", "scale_factor", "clients"},
}

BASELINE = """
[experiment]
dataset = synthmnist
rounds = 25
num_clients = 10
master_seed = 42
train_subset = 10000

[partition]
mode = dirichlet
alpha = 0.5

[strategy]
kind = fedavg
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_paper_baseline_values(self, tmp_path):
        configs = parse_config(write(tmp_path, BASELINE))
        assert len(configs) == 1
        cfg = configs[0]
        assert cfg.num_clients == 10
        assert cfg.rounds == 25
        assert cfg.partition.alpha == 0.5
        assert cfg.partition.mode == "dirichlet"
        assert cfg.train_subset == 10000
        assert cfg.model.input_dim == 784
        assert cfg.model.output_classes == 10
        assert cfg.local.kind == "adam"
        assert cfg.local.lr == 0.001

    def test_grid_cross_product(self, tmp_path):
        text = """
[experiment]
dataset = synthmnist
rounds = 2

[partition]
mode = iid, dirichlet

[strategy]
kind = fedavg, fedmedian
"""
        configs = parse_config(write(tmp_path, text))
        assert len(configs) == 4
        combos = {(c.strategy.kind, c.partition.mode) for c in configs}
        assert combos == {
            ("fedavg", "iid"), ("fedavg", "dirichlet"),
            ("fedmedian", "iid"), ("fedmedian", "dirichlet"),
        }

    def test_dataset_grid_axis(self, tmp_path):
        text = """
[experiment]
dataset = synthmnist, synthetic
"""
        configs = parse_config(write(tmp_path, text))
        assert [c.dataset for c in configs] == ["synthmnist", "synthetic"]
        # synthetic resolves model dims from its section defaults; only its runs carry the spec
        assert configs[0].synthetic is None
        assert configs[1].synthetic is not None

    def test_negative_alpha_rejected(self, tmp_path):
        # An iid grid makes one run whatever the alpha list, yet every alpha is checked.
        for mode in ("dirichlet", "iid"):
            for alphas in ("-1", "0.5, -1"):
                text = BASELINE.replace("alpha = 0.5", f"alpha = {alphas}").replace(
                    "mode = dirichlet", f"mode = {mode}")
                with pytest.raises(ConfigError, match="alpha must be > 0, got -1"):
                    parse_config(write(tmp_path, text))

    def test_unknown_key_named(self, tmp_path):
        # The model's input and output widths are the dataset's, not keys.
        for key, text in [
            ("momentumm", BASELINE.replace("kind = fedavg", "kind = fedavg\nmomentumm = 0.9")),
            ("input_dim", BASELINE + "[model]\ninput_dim = 784\n"),
            ("output_classes", BASELINE + "[model]\noutput_classes = 10\n"),
        ]:
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(write(tmp_path, text))

    def test_unknown_section_named(self, tmp_path):
        text = BASELINE + "\n[plotting]\nstyle = dark\n"
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(write(tmp_path, text))

    def test_unknown_strategy_kind(self, tmp_path):
        text = BASELINE.replace("kind = fedavg", "kind = krum")
        with pytest.raises(ConfigError, match="kind"):
            parse_config(write(tmp_path, text))

    def test_type_error_names_key(self, tmp_path):
        text = BASELINE.replace("rounds = 25", "rounds = many")
        with pytest.raises(ConfigError, match="experiment.rounds"):
            parse_config(write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.ini")

    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path):
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + BASELINE.encode())
        assert parse_config(path) == parse_config(write(tmp_path, BASELINE))

    @pytest.mark.parametrize("text, match", [
        # Passed parsing once, then failed every run of the grid.
        (BASELINE + "[model]\nhidden_dims = 0\n", "model.hidden_dims"),
        (BASELINE.replace("synthmnist", "synthmnist, imagenet"), "unknown dataset 'imagenet'"),
        # NaN compares false against every bound, so validate alone lets it through.
        (BASELINE.replace("alpha = 0.5", "alpha = nan"), "partition.alpha: expected a finite"),
        (BASELINE.replace("alpha = 0.5", "alpha = 0.5, nan"), "partition.alpha: expected a finite"),
        (BASELINE + "server_lr = inf\n", "strategy.server_lr: expected a finite"),
        # An axis list with no items made an empty grid that exited 0.
        (BASELINE.replace("kind = fedavg", "kind = ,"), "strategy.kind: the list has no items"),
        (BASELINE.replace("mode = dirichlet", "mode = ,"), "partition.mode: the list has no items"),
        (BASELINE.replace("dataset = synthmnist", "dataset = ,"), "experiment.dataset: the list"),
        (BASELINE.replace("alpha = 0.5", "alpha = ,"), "partition.alpha: the list has no items"),
        # The run used SYNTH_MNIST, yet its run.json recorded these settings.
        (BASELINE + "[synthetic]\nclass_sep = 0.5\n", r"\[synthetic\] is set, but no run"),
        # An attack on no client ran as an honest experiment.
        (BASELINE + "[adversary]\nkind = scale\nscale_factor = -4\n", "adversary.clients"),
    ], ids=["hidden_zero", "unknown_dataset", "alpha_nan", "alpha_list_nan", "server_lr_inf",
            "kind_empty_list", "mode_empty_list", "dataset_empty_list", "alpha_empty_list",
            "synthetic_section_unused", "attack_without_clients"])
    def test_unrunnable_config_rejected(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(write(tmp_path, text))

    def test_model_dims_are_the_dataset_shape(self, tmp_path):
        text = f"[experiment]\ndataset = {', '.join(DATASET_NAMES)}\n"
        text += "[synthetic]\nnum_classes = 4\ninput_dim = 6\n"
        configs = parse_config(write(tmp_path, text))
        assert [c.dataset for c in configs] == list(DATASET_NAMES)
        for cfg in configs:
            shape = dataset_shape(cfg.dataset, cfg.synthetic)
            assert (cfg.model.input_dim, cfg.model.output_classes) == shape
        assert configs[DATASET_NAMES.index("synthetic")].model.input_dim == 6

    def test_cifar_defaults(self, tmp_path):
        text = """
[experiment]
dataset = cifar10
"""
        (cfg,) = parse_config(write(tmp_path, text))
        assert cfg.model.input_dim == 3072
        assert cfg.model.hidden_dims == [256]

    def test_adversary_section(self, tmp_path):
        text = BASELINE + """
[adversary]
kind = scale
scale_factor = 100
clients = 0, 3
"""
        (cfg,) = parse_config(write(tmp_path, text))
        assert cfg.adversary.kind == "scale"
        assert cfg.adversary.scale_factor == 100.0
        assert cfg.adversary.affected_clients == frozenset({0, 3})

    def test_absent_adversary_section_means_none(self, tmp_path):
        (cfg,) = parse_config(write(tmp_path, BASELINE))
        assert cfg.adversary.kind == "none"


def subsets(items):
    """Non-empty lists of distinct items, in drawn order."""
    return st.lists(st.sampled_from(items), min_size=1, max_size=len(items), unique=True)


# Any distinct finite alphas; those that print alike under :g included.
alpha_lists = st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                       min_size=1, max_size=4, unique=True)


class TestGrid:
    @settings(max_examples=50, deadline=None)
    @given(subsets(DATASET_NAMES), subsets(PARTITION_MODES), alpha_lists, subsets(STRATEGY_KINDS))
    def test_run_ids_are_the_grid(self, datasets, modes, alphas, kinds):
        text = (f"[experiment]\ndataset = {', '.join(datasets)}\n"
                f"[partition]\nmode = {', '.join(modes)}\n"
                f"alpha = {', '.join(map(repr, alphas))}\n"
                f"[strategy]\nkind = {', '.join(kinds)}\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), text)
            ids = [run_id for _, run_id, _ in _expand_runs(parse_config(path), 1, None, None)]
            # A repeated kind still names two runs alike.
            path.write_text(text.replace(f"kind = {kinds[0]}", f"kind = {kinds[0]}, {kinds[0]}"))
            with pytest.raises(ConfigError, match="duplicate run ids"):
                _expand_runs(parse_config(path), 1, None, None)
        # Grid order: dataset, mode, alpha, kind; an iid run is made once.
        expected = [
            (kind, dataset, mode, alpha if mode == "dirichlet" else None)
            for dataset in datasets for mode in modes
            for alpha in (alphas if mode == "dirichlet" else alphas[:1]) for kind in kinds
        ]
        named = []
        for run_id in ids:  # kind_dataset_mode[_a<alpha>]_rep0; the alpha reads back exactly
            kind, dataset, mode, *alpha, rep = run_id.split("_")
            assert rep == "rep0"
            named.append((kind, dataset, mode, float(alpha[0][1:]) if alpha else None))
        assert named == expected
        assert len(set(ids)) == len(ids) == len(datasets) * len(kinds) * (
            ("iid" in modes) + len(alphas) * ("dirichlet" in modes))

    def test_axes_are_the_run_identity(self):
        cfg = ExperimentConfig(partition=PartitionSpec(mode="dirichlet", alpha=0.3))
        identity = run_identity(cfg)
        assert set(_AXES) == set(identity)
        assert list(_AXES)[0] == "dataset"  # outermost: the split cache holds one dataset
        for name, (section, field) in _AXES.items():
            holder = cfg if section == "experiment" else getattr(cfg, section)
            assert identity[name] == getattr(holder, field), name


class TestRunIds:
    def test_includes_alpha_only_for_dirichlet(self, tmp_path):
        (cfg,) = parse_config(write(tmp_path, BASELINE))
        assert run_id_for(cfg, 0) == "fedavg_synthmnist_dirichlet_a0.5_rep0"
        cfg.partition.mode = "iid"
        assert run_id_for(cfg, 2) == "fedavg_synthmnist_iid_rep2"
        assert run_identity(cfg) == {"strategy": "fedavg", "dataset": "synthmnist",
                                     "partition_mode": "iid", "alpha": None}

    def test_alpha_is_short_unless_that_merges_two(self, tmp_path):
        text = BASELINE.replace("alpha = 0.5", "alpha = 1e-05, 0.1234561, 0.1234562")
        runs = _expand_runs(parse_config(write(tmp_path, text)), 1, None, None)
        assert [run_id for _, run_id, _ in runs] == [
            f"fedavg_synthmnist_dirichlet_a{alpha}_rep0"
            for alpha in ("1e-05", "0.1234561", "0.1234562")
        ]


class TestSnapshot:
    def test_round_trip_equality(self, tmp_path):
        (cfg,) = parse_config(write(tmp_path, BASELINE))
        restored = config_from_dict(config_to_dict(cfg))
        assert restored == cfg

    def test_round_trip_through_json(self, tmp_path):
        (cfg,) = parse_config(write(tmp_path, BASELINE + "\n[adversary]\nkind = scale\nclients = 1\n"))
        snapshot = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(snapshot) == cfg

    def test_snapshot_with_removed_keys_loads(self, tmp_path):
        # Snapshots from before partition.num_clients, model.activation,
        # partition.seed and model.init_seed were deleted still load; the
        # stale keys are ignored.
        (cfg,) = parse_config(write(tmp_path, BASELINE))
        snapshot = config_to_dict(cfg)
        snapshot["partition"]["num_clients"] = cfg.num_clients
        snapshot["model"]["activation"] = "relu"
        snapshot["partition"]["seed"] = 123
        snapshot["model"]["init_seed"] = 456
        assert config_from_dict(snapshot) == cfg

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda s: s.pop("train_subset"), lambda c: replace(c, train_subset=None),
                     id="older_lacks_a_key"),
        pytest.param(lambda s: s["partition"].pop("mode"),
                     lambda c: replace(c, partition=PartitionSpec(alpha=c.partition.alpha)),
                     id="older_lacks_a_nested_key"),
        pytest.param(lambda s: s.update(clients_per_round=5), lambda c: c,
                     id="newer_has_an_unknown_key"),
        pytest.param(lambda s: s["strategy"].update(server_nesterov=True), lambda c: c,
                     id="newer_has_an_unknown_nested_key"),
    ])
    def test_older_and_newer_snapshots_load(self, edit, expected, tmp_path):
        # A key absent from the snapshot takes its field's default; a key
        # that no field has is ignored.
        (cfg,) = parse_config(write(tmp_path, BASELINE))
        snapshot = json.loads(json.dumps(config_to_dict(cfg)))
        edit(snapshot)
        assert config_from_dict(snapshot) == expected(cfg)

    def test_shipped_configs_round_trip(self):
        assert {name: set(keys) for name, (_, keys) in _SECTIONS.items()} == SETTABLE_KEYS
        assert sum(len(keys) for keys in SETTABLE_KEYS.values()) == 37
        paths = [*ROOT.glob("configs/*.ini"), *ROOT.glob("bench/workloads/*.ini")]
        assert len(paths) >= 5
        for path in paths:
            configs = parse_config(path)
            assert configs, path
            for cfg in configs:
                snapshot = json.loads(json.dumps(config_to_dict(cfg)))
                assert config_from_dict(snapshot) == cfg, path
