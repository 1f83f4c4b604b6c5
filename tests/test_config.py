"""Config round-trips, strictness, and content hashing."""

import hashlib
import json
from pathlib import Path

import pytest

from randomout.config import (
    HASH_CHARS,
    DatasetCfg,
    ModelCfg,
    RandomOutCfg,
    TrainConfig,
    load_config,
)


def test_defaults_valid():
    cfg = TrainConfig()
    assert cfg.condition == "base"
    assert cfg.randomout is None
    assert cfg.model.name == "cratercnn"
    assert cfg.dataset.kind == "synth"


def test_unknown_fields_rejected_at_every_level():
    with pytest.raises(ValueError, match="unknown train field.*typo"):
        TrainConfig.from_dict({"typo": 1})
    with pytest.raises(ValueError, match="unknown model field.*depth"):
        TrainConfig.from_dict({"model": {"depth": 3}})
    with pytest.raises(ValueError, match="unknown dataset field.*n"):
        TrainConfig.from_dict({"dataset": {"n": 10}})
    with pytest.raises(ValueError, match="unknown randomout field.*threshold"):
        TrainConfig.from_dict({"condition": "randomout", "randomout": {"threshold": 0.1}})


def test_round_trip_preserves_everything():
    cfg = TrainConfig.from_dict(
        {
            "seed": 3,
            "epochs": 5,
            "lr": 0.01,
            "optimizer": "adam",
            "condition": "randomout",
            "model": {"name": "cratercnn", "width": 6},
            "dataset": {"kind": "synth", "n_pos": 32, "n_neg": 32},
            "randomout": {"tau": 1e-6, "p_active": 0.5, "check_every": 2},
        }
    )
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_hash_ignores_key_order_in_source_dict():
    d1 = {"seed": 1, "epochs": 2}
    d2 = {"epochs": 2, "seed": 1}
    assert TrainConfig.from_dict(d1).config_hash() == TrainConfig.from_dict(d2).config_hash()


def test_hash_changes_with_any_value():
    base = TrainConfig()
    assert len(base.config_hash()) == HASH_CHARS
    assert base.config_hash() != TrainConfig(seed=1).config_hash()
    assert base.config_hash() != TrainConfig(lr=0.051).config_hash()
    ro = TrainConfig(condition="randomout")
    assert ro.config_hash() != base.config_hash()
    assert (
        ro.config_hash()
        != TrainConfig(condition="randomout", randomout={"tau": 1e-7}).config_hash()
    )


def test_memoized_hash_is_the_canonical_json_digest():
    cfg = TrainConfig(seed=4, condition="randomout")
    digest = hashlib.sha256(cfg.canonical_json().encode()).hexdigest()[:HASH_CHARS]
    assert cfg.config_hash() == digest
    assert cfg.config_hash() == digest  # the kept value, read again
    other = cfg.replace(seed=5)
    assert other.config_hash() == hashlib.sha256(other.canonical_json().encode()).hexdigest()[:HASH_CHARS]
    assert other.config_hash() != digest
    assert cfg.replace(seed=4).config_hash() == digest
    assert "_config_hash" not in cfg.to_dict() and cfg == TrainConfig(seed=4, condition="randomout")


def test_hash_stable_across_processes():
    # sha256 of canonical JSON: same content, same hash, every time
    cfg = TrainConfig(seed=5)
    assert cfg.config_hash() == TrainConfig(seed=5).config_hash()
    payload = json.loads(cfg.canonical_json())
    assert payload["seed"] == 5


def test_randomout_autofilled_for_condition():
    cfg = TrainConfig(condition="randomout")
    assert cfg.randomout == RandomOutCfg()


def test_randomout_settings_rejected_off_condition():
    with pytest.raises(ValueError, match="only valid with condition='randomout'"):
        TrainConfig(condition="base", randomout={"tau": 0.1})
    with pytest.raises(ValueError, match="only valid"):
        TrainConfig(condition="batchnorm", randomout={"tau": 0.1})


def test_replace_updates_and_drops_stale_randomout():
    ro = TrainConfig(condition="randomout", randomout={"tau": 1e-5})
    base = ro.replace(condition="base")
    assert base.condition == "base" and base.randomout is None
    deeper = ro.replace(randomout={"tau": 1e-9, "p_active": 0.25, "check_every": 1})
    assert deeper.randomout.tau == 1e-9 and deeper.randomout.p_active == 0.25
    assert deeper.seed == ro.seed


def test_field_validation_messages():
    with pytest.raises(ValueError, match="unknown optimizer"):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ValueError, match="unknown condition"):
        TrainConfig(condition="dropout")
    with pytest.raises(ValueError, match="lr must be > 0"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match=r"seed must be < 2\*\*64, got 18446744073709551616"):
        TrainConfig(seed=2**64)
    with pytest.raises(ValueError, match="unknown model"):
        ModelCfg(name="vgg")
    with pytest.raises(ValueError, match="unknown dataset kind"):
        DatasetCfg(kind="imagenet")
    with pytest.raises(ValueError, match="n_pos and n_neg"):
        DatasetCfg(kind="synth", n_pos=1)
    with pytest.raises(ValueError, match=r"paths=\(images, labels\)"):
        DatasetCfg(kind="idx", paths=("only-one",))
    with pytest.raises(ValueError, match="batch_file"):
        DatasetCfg(kind="cifar10", paths=())
    with pytest.raises(ValueError, match=r"paths must be a list of non-empty strings, got \[0\]"):
        DatasetCfg(kind="cifar10", paths=[0])  # open(0) would read stdin
    with pytest.raises(ValueError, match="paths must be a list of non-empty strings, got 'ab'"):
        DatasetCfg(kind="idx", paths="ab")  # not the paths 'a' and 'b'
    with pytest.raises(ValueError, match="paths must be a list of non-empty strings"):
        DatasetCfg(kind="cifar10", paths=[""])


def test_file_dataset_hashes_are_unchanged_by_path_checks():
    idx = TrainConfig.from_dict({"dataset": {"kind": "idx", "paths": ["images.idx", "labels.idx"]}})
    cifar = TrainConfig.from_dict({"dataset": {"kind": "cifar10", "paths": ["data_batch_1.bin"]}})
    assert (idx.config_hash(), cifar.config_hash()) == ("99115a973955", "b5a892dc26f0")


@pytest.mark.parametrize(
    "dataset,name",
    [
        ({"kind": "synth", "paths": ["x.bin"]}, "paths"),
        ({"kind": "synth", "max_per_class": 3}, "max_per_class"),
        ({"kind": "idx", "paths": ["i.idx", "l.idx"], "n_pos": 500}, "n_pos"),
        ({"kind": "idx", "paths": ["i.idx", "l.idx"], "max_per_class": 3}, "max_per_class"),
        ({"kind": "cifar10", "paths": ["f.bin"], "n_neg": 500}, "n_neg"),
    ],
    ids=["synth-paths", "synth-max-per-class", "idx-n-pos", "idx-max-per-class", "cifar10-n-neg"],
)
def test_dataset_field_its_kind_does_not_read_is_rejected(dataset, name):
    # it would name another run directory for the same data
    with pytest.raises(ValueError, match=f"dataset kind '{dataset['kind']}' does not read '{name}'"):
        TrainConfig.from_dict({"dataset": dataset})


def test_unread_dataset_fields_at_their_defaults_keep_the_hash():
    synth = [{"kind": "synth"}, {"kind": "synth", "paths": [], "max_per_class": None}]
    assert {TrainConfig.from_dict({"dataset": d}).config_hash() for d in synth} == {"c279efd83313"}
    cifar = [{"kind": "cifar10", "paths": ["f.bin"]}, {"kind": "cifar10", "paths": ["f.bin"], "n_pos": 128, "n_neg": 128}]
    assert {TrainConfig.from_dict({"dataset": d}).config_hash() for d in cifar} == {"37a74a6f8082"}


NONFINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NONFINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["lr", "telemetry_tau", "tau"])
def test_nonfinite_numbers_rejected_by_name(field, value):
    # NaN passes `tau < 0` and `lr <= 0`, and then no score is ever below tau
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        if field == "tau":
            RandomOutCfg(tau=value)
        else:
            TrainConfig(**{field: value})
    # the same number spelled in a JSON config file (Python's json reads NaN and Infinity)
    d = {"condition": "randomout", "randomout": {"tau": value}} if field == "tau" else {field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig.from_dict(json.loads(json.dumps(d)))


def test_field_type_errors_name_the_field():
    with pytest.raises(ValueError, match="train field 'epochs' must be an int, got '3'"):
        TrainConfig.from_dict({"epochs": "3"})
    with pytest.raises(ValueError, match="train field 'lr' must be a number, got True"):
        TrainConfig.from_dict({"lr": True})
    for bad in (True, 3.0, "3"):
        with pytest.raises(ValueError, match="train field 'seed' must be an int"):
            TrainConfig.from_dict({"seed": bad})
    with pytest.raises(ValueError, match="train field 'optimizer' must be a string"):
        TrainConfig.from_dict({"optimizer": 1})
    with pytest.raises(ValueError, match="train field 'dead_first_layer' must be a bool, got 1"):
        TrainConfig.from_dict({"dead_first_layer": 1})
    with pytest.raises(ValueError, match="model field 'width' must be an int, got 4.0"):
        TrainConfig.from_dict({"model": {"width": 4.0}})
    with pytest.raises(ValueError, match="dataset field 'max_per_class' must be an int"):
        TrainConfig.from_dict({"dataset": {"kind": "synth", "max_per_class": "10"}})
    with pytest.raises(ValueError, match="randomout field 'tau' must be a number"):
        TrainConfig.from_dict({"condition": "randomout", "randomout": {"tau": "1e-8"}})


def test_float_fields_keep_ints_unconverted():
    cfg = TrainConfig.from_dict({"lr": 1, "condition": "randomout", "randomout": {"tau": 0, "p_active": 1}})
    assert type(cfg.lr) is int and type(cfg.randomout.tau) is int
    assert cfg.config_hash() == TrainConfig(lr=1, condition="randomout", randomout=RandomOutCfg(0, 1)).config_hash()
    assert TrainConfig.from_dict({"dataset": {"kind": "synth", "max_per_class": None}}).dataset.max_per_class is None


def test_load_config_reads_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 9, "condition": "randomout", "randomout": {"tau": 1e-4}}))
    cfg = load_config(p)
    assert cfg.seed == 9 and cfg.randomout.tau == 1e-4


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "seed": 1,\n}')
    with pytest.raises(ValueError, match=r"broken\.json: invalid JSON at line 3"):
        load_config(p)


def test_load_config_rejects_non_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ValueError, match="must be an object"):
        load_config(p)


def test_load_config_wraps_field_errors_with_path(tmp_path):
    p = tmp_path / "bad_field.json"
    p.write_text('{"optimizer": "sgdm"}')
    with pytest.raises(ValueError, match=r"bad_field\.json: unknown optimizer"):
        load_config(p)


def test_shipped_configs_parse():
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert len(configs) >= 3
    for path in configs:
        cfg = load_config(path)
        assert cfg.config_hash()  # parses and hashes
    ro = load_config(Path(__file__).parent.parent / "configs" / "cratercnn-synth-randomout.json")
    assert ro.randomout.tau == 1e-12 and ro.randomout.p_active == 1.0
