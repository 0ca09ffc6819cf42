from dataclasses import fields

import pytest

from gridcast.config import (
    RunConfig,
    apply_overrides,
    load_run_config,
    parse_run_config,
    save_run_config,
    serialize_run_config,
    set_key,
)
from gridcast.errors import ConfigError
from gridcast.model import ModelConfig
from gridcast.train import TrainHyper

SAMPLE = """\
# experiment config
data.path = data/sines.csv
data.split = 7:1:2

model.T = 336
model.F = 96
model.dropout = 0.1
train.lr = 0.0003
train.variate_ratio = 0.5
out.dir = runs/exp1
seed = 42
"""


def test_parse_defaults_from_empty():
    run = parse_run_config("")
    assert run == RunConfig()
    assert run.model["P"] == 16 and run.train["lr"] == 1e-4


def test_parse_sample_fields():
    run = parse_run_config(SAMPLE)
    assert run.data_path == "data/sines.csv"
    assert run.data_split == "7:1:2"
    assert run.model["T"] == 336 and run.model["F"] == 96
    assert run.model["dropout"] == 0.1
    assert run.train["lr"] == 0.0003
    assert run.train["variate_ratio"] == 0.5
    assert run.out_dir == "runs/exp1"
    assert run.seed == 42


def test_roundtrip_lossless():
    run = parse_run_config(SAMPLE)
    run.train["lr"] = 1.0 / 3.0  # value with no short decimal form
    again = parse_run_config(serialize_run_config(run))
    assert again == run
    assert parse_run_config(serialize_run_config(again)) == again


def test_roundtrip_via_file(tmp_path):
    run = parse_run_config(SAMPLE)
    path = tmp_path / "run.cfg"
    save_run_config(run, path)
    assert load_run_config(path) == run


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_run_config("model.width = 7\n")
    assert "model.width" in str(err.value)
    assert "line 1" in str(err.value)


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError) as err:
        parse_run_config("model.T = many\n")
    assert "model.T" in str(err.value)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_run_config("model.T\n")
    assert "line 1" in str(err.value)


def test_bool_parsing():
    for text, expected in [("true", True), ("1", True), ("yes", True), ("false", False), ("0", False), ("no", False)]:
        run = RunConfig()
        set_key(run, "data.borrow_prefix", text)
        assert run.data_borrow_prefix is expected
    with pytest.raises(ConfigError):
        set_key(RunConfig(), "data.borrow_prefix", "maybe")


def test_overrides_apply_in_order():
    run = RunConfig()
    apply_overrides(run, ["train.lr=0.01", "seed=7", "train.lr=0.02"])
    assert run.train["lr"] == 0.02 and run.seed == 7
    with pytest.raises(ConfigError):
        apply_overrides(run, ["no-equals-sign"])


def test_to_model_config_infers_width():
    run = parse_run_config("model.T = 96\nmodel.F = 24\n")
    cfg = run.to_model_config(5)
    assert cfg.N == 5 and cfg.T == 96 and cfg.F == 24
    with pytest.raises(ConfigError):
        run.to_model_config(None)
    run.model["N"] = 3
    assert run.to_model_config(None).N == 3
    assert run.to_model_config(3).N == 3


def test_to_model_config_rejects_a_width_the_data_does_not_have():
    run = parse_run_config("model.N = 5\n")
    with pytest.raises(ConfigError, match="model.N = 5 but the data has 4 variates"):
        run.to_model_config(4)


def test_to_model_config_carries_seed():
    run = RunConfig(seed=9)
    run.model["N"] = 2
    assert run.to_model_config().seed == 9


def test_to_hyper_mapping():
    run = parse_run_config("train.lr = 0.005\ntrain.batch_size = 8\ntrain.patience = 2\nseed = 4\n")
    hyper = run.to_hyper(log_path="x.jsonl")
    assert hyper.lr == 0.005 and hyper.batch_size == 8
    assert hyper.patience == 2 and hyper.seed == 4
    assert hyper.log_path == "x.jsonl"


def test_column_lists():
    run = RunConfig()
    assert run.columns("drop") is None
    run.data_drop_columns = "date"
    assert run.columns("drop") == ["date"]
    run.data_value_columns = "0, 2, OT"
    assert run.columns("value") == [0, 2, "OT"]


# The defaults as the flat-field RunConfig serialized them, minus the
# data.frequency line: the file format is unchanged by deriving the keys.
DEFAULT_TEXT = """\
data.path = 
data.name = 
data.split = 6:2:2
data.drop_columns = 
data.value_columns = 
data.borrow_prefix = false
model.T = 96
model.F = 24
model.N = 0
model.P = 16
model.S = 8
model.D = 16
model.H = 4
model.L = 2
model.D_ff = 32
model.dropout = 0.2
model.mode = alternate
model.norm_over = batch_and_tokens
train.lr = 0.0001
train.batch_size = 32
train.max_epochs = 10
train.patience = 5
train.clip_norm = 5.0
train.variate_ratio = 1.0
out.dir = runs
seed = 0
"""

# A config file as the flat-field RunConfig wrote it, minus data.frequency,
# with every model.* and train.* value away from its default.
WRITTEN_TEXT = """\
data.path = d.csv
data.name = 
data.split = 7:1:2
data.drop_columns = 
data.value_columns = 
data.borrow_prefix = false
model.T = 48
model.F = 12
model.N = 0
model.P = 8
model.S = 4
model.D = 24
model.H = 3
model.L = 3
model.D_ff = 40
model.dropout = 0.1
model.mode = time_first
model.norm_over = batch_only
train.lr = 0.0003
train.batch_size = 8
train.max_epochs = 3
train.patience = 2
train.clip_norm = 1.5
train.variate_ratio = 0.5
out.dir = runs
seed = 11
"""


def test_default_serialization_is_the_golden_text():
    assert serialize_run_config(RunConfig()) == DEFAULT_TEXT
    assert parse_run_config(DEFAULT_TEXT) == RunConfig()


def test_written_config_parses_to_equal_model_config_and_hyper():
    run = parse_run_config(WRITTEN_TEXT)
    assert run.to_model_config(5) == ModelConfig(
        T=48, F=12, N=5, P=8, S=4, D=24, H=3, L=3, D_ff=40, dropout=0.1,
        mode="time_first", seed=11, norm_over="batch_only",
    )
    assert run.to_hyper("x.jsonl") == TrainHyper(
        lr=0.0003, batch_size=8, max_epochs=3, patience=2, clip_norm=1.5,
        variate_ratio=0.5, seed=11, log_path="x.jsonl",
    )
    assert serialize_run_config(run) == WRITTEN_TEXT


def test_section_keys_are_the_dataclass_fields():
    run = RunConfig()
    assert list(run.model) == [f.name for f in fields(ModelConfig) if f.name != "seed"]
    assert list(run.train) == [
        f.name for f in fields(TrainHyper) if f.name not in ("seed", "log_path")
    ]
    for key in ("model.seed", "train.seed", "train.log_path", "data.frequency"):
        with pytest.raises(ConfigError, match="unknown config key"):
            set_key(run, key, "1")
