import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import overfill
from overfill import cli
from overfill.checkpoint import load_config, save_checkpoint, save_config
from overfill.corpus import Tokenizer, pack_calibration_batches
from overfill.engine import GenParams
from overfill.errors import ConfigError, DataError
from overfill.model import DESK_CONFIG, init_model
from overfill.perfmodel import BenchConfig, HardwareSpec, param_count, reference_geometry
from overfill.pruner import PruneConfig, prune_pipeline
from overfill.trainer import TrainConfig, run_training

# A geometry small enough that the whole pipeline runs in-process in seconds.
TINY_RUN = {
    "seed": 3,
    "model": {"hidden_dim": 16, "n_layers": 2, "n_heads": 2, "n_kv_heads": 1,
              "head_dim": 8, "intermediate_dim": 32},
    "prune": {"calib_batches": 1, "calib_rows": 2, "calib_seq_len": 32},
    "train": {"batch_size": 2, "base_steps": 3, "overfill_steps": 3,
              "kinds": ["copy", "kvlookup"], "train_per_kind": 4, "eval_per_kind": 2},
    "gen": {"max_new_tokens": 4},
}

# What the pipeline below leaves in the run directory.
PIPELINE_ARTEFACTS = (
    ["data/train_copy.jsonl", "data/eval_copy.jsonl",
     "data/train_kvlookup.jsonl", "data/eval_kvlookup.jsonl",
     "selection.json",
     "logs_base.csv", "logs_pruned.csv", "logs_overfill.csv",
     "eval_full.json", "eval_pruned.json", "eval_overfill.json"]
    + [f"checkpoints/{stem}.{ext}" for stem in ("base", "pruned_init", "pruned", "overfill")
       for ext in ("ovfl", "config.json")])


@pytest.fixture
def run_dir(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({"gen": {"max_new_tokens": 2}}))
    for stem in ("base", "overfill"):
        save_checkpoint(tmp_path / "checkpoints" / f"{stem}.ovfl", init_model(DESK_CONFIG, 0))
        save_config(tmp_path / "checkpoints" / f"{stem}.config.json", DESK_CONFIG)
    return tmp_path


def run_cli(run_dir, *args):
    return cli.main([args[0], "--config", str(run_dir / "run.json"), "--out", str(run_dir),
                     *args[1:]])


def test_pruned_mode_without_pruned_checkpoint_is_a_data_error(run_dir, capsys):
    # The overfill decoder exists but must not stand in for the pruned baseline.
    code = run_cli(run_dir, "generate", "--mode", "pruned", "--prompt", "hi")
    err = capsys.readouterr().err
    assert code == 2
    assert "pruned.ovfl" in err and "train-pruned" in err
    assert "Traceback" not in err


def test_pipeline_end_to_end(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    ckpt = tmp_path / "checkpoints"
    steps = [
        ("gen-data",),
        ("train-base",),
        ("prune",),
        ("train-pruned",),
        ("train-overfill",),
        ("eval", "--mode", "full"),
        ("eval", "--mode", "pruned"),
        ("eval", "--mode", "overfill"),
    ]
    for step in steps:
        assert run_cli(tmp_path, *step) == 0, step
    for rel in PIPELINE_ARTEFACTS:
        assert (tmp_path / rel).is_file(), rel

    pruned_cfg = json.loads((ckpt / "pruned.config.json").read_text())
    assert pruned_cfg["hidden_dim"] == 8 and pruned_cfg["intermediate_dim"] == 16
    assert json.loads((ckpt / "overfill.config.json").read_text()) == pruned_cfg
    sel = json.loads((tmp_path / "selection.json").read_text())
    assert len(sel["hidden_idx"]) == 8 and [len(i) for i in sel["inter_idx"]] == [16, 16]
    for stem in ("base", "pruned", "overfill"):
        lines = (tmp_path / f"logs_{stem}.csv").read_text().splitlines()
        assert lines[0] == "step,lr,loss,tokens_seen" and len(lines) == 4
    for mode in ("full", "pruned", "overfill"):
        doc = json.loads((tmp_path / f"eval_{mode}.json").read_text())
        assert set(doc) == {"copy", "kvlookup"}
        assert all(r["n"] == 2 and 0.0 <= r["exact_match"] <= 1.0 for r in doc.values())

    capsys.readouterr()
    assert run_cli(tmp_path, "generate", "--prompt", "abc") == 0
    assert capsys.readouterr().out.endswith("\n")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A tiny run directory taken through train-pruned and train-overfill."""
    out = tmp_path_factory.mktemp("trained")
    (out / "run.json").write_text(json.dumps(TINY_RUN))
    for step in ("gen-data", "train-base", "prune", "train-pruned", "train-overfill"):
        assert run_cli(out, step) == 0, step
    return out


def test_pruned_checkpoint_has_the_pruned_init_geometry(trained_run):
    ckpt = trained_run / "checkpoints"
    assert (load_config(ckpt / "pruned.config.json")
            == load_config(ckpt / "pruned_init.config.json"))


def test_prune_writes_what_prune_pipeline_returns(trained_run, tmp_path):
    cfg = cli.load_run_config(str(trained_run / "run.json"))
    pcfg = cfg["prune"]
    batches = pack_calibration_batches(cli._train_examples(cfg, trained_run), Tokenizer(),
                                       pcfg.calib_batches, pcfg.calib_rows, pcfg.calib_seq_len)
    provenance = {"calib_seed": cfg["seed"], "calib_batches": pcfg.calib_batches,
                  "calib_rows": pcfg.calib_rows, "calib_seq_len": pcfg.calib_seq_len}
    pruned, _, sel = prune_pipeline(cli._load_model(trained_run, "base"), batches, pcfg,
                                    provenance)
    sel.save(tmp_path / "selection.json")
    save_checkpoint(tmp_path / "pruned_init.ovfl", pruned)
    assert ((trained_run / "selection.json").read_bytes()
            == (tmp_path / "selection.json").read_bytes())
    assert ((trained_run / "checkpoints" / "pruned_init.ovfl").read_bytes()
            == (tmp_path / "pruned_init.ovfl").read_bytes())


def test_pruned_and_overfill_logs_share_steps_and_tokens(trained_run):
    def columns(stem):
        rows = csv.DictReader(open(trained_run / f"logs_{stem}.csv", newline=""))
        return [(r["step"], r["tokens_seen"]) for r in rows]
    assert columns("pruned") == columns("overfill")
    assert len(columns("pruned")) == TINY_RUN["train"]["overfill_steps"]


def test_train_pruned_trains_pruned_init_alone_on_the_overfill_batches(trained_run):
    cfg = cli.load_run_config(str(trained_run / "run.json"))
    w = cli._load_model(trained_run, "pruned_init")
    run_training(None, w, cli._train_examples(cfg, trained_run), Tokenizer(), cfg["train"],
                 steps=cfg["train"].overfill_steps, data_seed=cfg["seed"] + 2)
    trained = cli._load_model(trained_run, "pruned")
    assert trained.config == w.config and trained.checksum() == w.checksum()
    assert trained.checksum() != cli._load_model(trained_run, "pruned_init").checksum()


def test_eval_kind_replaces_only_its_own_entry(trained_run):
    assert run_cli(trained_run, "eval", "--mode", "full") == 0
    path = trained_run / "eval_full.json"
    whole = json.loads(path.read_text())
    assert set(whole) == {"copy", "kvlookup"}
    path.write_text(json.dumps(dict(whole, copy={"exact_match": -1.0, "n": 0})))
    assert run_cli(trained_run, "eval", "--mode", "full", "--kind", "copy") == 0
    assert json.loads(path.read_text()) == whole


@pytest.mark.parametrize("kind", ["nope", "reverse"])
def test_eval_kind_outside_train_kinds_exits_2(trained_run, capsys, kind):
    # "reverse" is a task kind, but not one of this run's train.kinds.
    code = run_cli(trained_run, "eval", "--mode", "overfill", "--kind", kind)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"--kind '{kind}'" in err and "['copy', 'kvlookup']" in err
    assert not (trained_run / "eval_overfill.json").exists()


def test_train_pruned_before_prune_exits_2(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    assert run_cli(tmp_path, "gen-data") == 0
    assert run_cli(tmp_path, "train-base") == 0
    code = run_cli(tmp_path, "train-pruned")
    err = capsys.readouterr().err
    assert code == 2 and "pruned_init" in err and "Traceback" not in err
    assert not (tmp_path / "checkpoints" / "pruned.ovfl").exists()


# A run's seed and step counts come from its run config only; param-count
# writes nothing, so it takes no --out (which run_cli always passes).
@pytest.mark.parametrize("args", [("train-base", "--tag", "pruned"),
                                  ("train-base", "--init-checkpoint", "x"),
                                  ("prune", "--p-hidden", "0.7"),
                                  ("train-base", "--steps", "1"),
                                  ("train-overfill", "--steps", "1"),
                                  ("eval", "--seed", "1"),
                                  ("gen-data", "--seed", "1"),
                                  ("param-count",)],
                         ids=["tag", "init-checkpoint", "p-hidden", "steps", "overfill-steps",
                              "seed", "gen-data-seed", "param-count-out"])
def test_removed_flags_are_usage_errors(run_dir, capsys, args):
    before = sorted(run_dir.rglob("*"))
    code = run_cli(run_dir, *args)
    err = capsys.readouterr().err
    assert code == 1 and "usage error: unrecognized arguments" in err
    assert sorted(run_dir.rglob("*")) == before


# Each subcommand's own options. Every subcommand also takes COMMON_OPTIONS,
# but param-count, which writes nothing, takes --config only. A new option is
# a deliberate change to the surface: add it here too.
COMMON_OPTIONS = {"--config", "--out"}
OPTIONS = {
    "gen-data": set(),
    "train-base": set(),
    "prune": set(),
    "train-pruned": set(),
    "train-overfill": set(),
    "generate": {"--mode", "--prompt", "--system"},
    "eval": {"--mode", "--kind"},
    "param-count": set(),
    "roofline": set(),
}


def test_version_is_the_package_and_project_version(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert capsys.readouterr().out == f"overfill {overfill.__version__}\n"
    assert overfill.__version__ == project["version"]


def test_subcommand_options_match_the_table():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    found = {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert found == {name: own | ({"--config"} if name == "param-count" else COMMON_OPTIONS)
                     for name, own in OPTIONS.items()}
    assert sum(map(len, OPTIONS.values())) == 5


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------

# Every leaf key of the run config, in section and field order: a new knob is
# added on purpose.
RUN_CONFIG_KEYS = """
/seed
/model/vocab_size /model/hidden_dim /model/n_layers /model/n_heads /model/n_kv_heads
/model/head_dim /model/intermediate_dim /model/norm_eps /model/rope_theta
/model/tied_embeddings
/prune/p_hidden /prune/p_intermediate /prune/calib_batches /prune/calib_rows
/prune/calib_seq_len
/train/base_lr /train/warmup_ratio /train/batch_size /train/max_seq_len /train/base_steps
/train/overfill_steps /train/kinds /train/train_per_kind
/train/eval_per_kind
/gen/max_new_tokens /gen/temperature
/bench/prompt_len /bench/gen_lens /bench/batch /bench/hardware/peak_flops
/bench/hardware/mem_bandwidth /bench/hardware/bytes_per_param
/bench/roofline_full_geometry
""".split()


def _leaf_keys(default, pointer):
    for key in cli.section_keys(default):
        value = getattr(default, key)
        if dataclasses.is_dataclass(value):
            yield from _leaf_keys(value, f"{pointer}/{key}")
        else:
            yield f"{pointer}/{key}"


def test_run_config_keys_match_the_table():
    keys = ["/seed"] + [key for name, default in cli.RUN_SECTIONS.items()
                        for key in _leaf_keys(default, f"/{name}")]
    assert keys == RUN_CONFIG_KEYS
    assert len(RUN_CONFIG_KEYS) == 34


@pytest.mark.parametrize("make", [
    lambda: dataclasses.replace(DESK_CONFIG, n_layers=0),
    lambda: PruneConfig(1.0, 0.0),
    lambda: GenParams(max_new_tokens=-1),
    lambda: HardwareSpec(peak_flops=0),
    lambda: GenParams(max_new_tokens=True),
    lambda: HardwareSpec(peak_flops=float("nan")),
    lambda: HardwareSpec(bytes_per_param=4.5),
    lambda: PruneConfig(0.5, 0.5, calib_rows=2.5),
    lambda: PruneConfig("0.5", 0.5),
    lambda: GenParams(max_new_tokens=1, seed=2**128),
    lambda: TrainConfig(kinds=["copy"]),
    lambda: TrainConfig(batch_size=0),
    lambda: BenchConfig(hardware={"peak_flops": 1.0}),
    lambda: BenchConfig(gen_lens=(32, 0)),
    lambda: TrainConfig(train_per_kind=2, batch_size=16),
], ids=["model", "prune", "gen", "hardware", "gen-bool", "hardware-nan", "hardware-float-int",
        "prune-float-int", "prune-str", "gen-seed", "train-list", "train-batch",
        "bench-dict", "bench-gen-lens", "train-batch-over-data"])
def test_config_objects_cannot_be_made_invalid(make):
    with pytest.raises(ConfigError):
        make()


CONFIG_DEFAULTS = [DESK_CONFIG, PruneConfig(0.5, 0.5), TrainConfig(),
                   GenParams(max_new_tokens=1), HardwareSpec(), BenchConfig()]


@pytest.mark.parametrize("config, name", [
    (config, f.name) for config in CONFIG_DEFAULTS for f in dataclasses.fields(config)],
    ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else v)
def test_every_config_field_rejects_a_wrong_type(config, name):
    # A near miss for the field's type (a bool for an int, an int for a
    # bool, a NaN for a float, a list for a tuple), and an object for any.
    value = getattr(config, name)
    near = (list(value) if isinstance(value, tuple)
            else {bool: 1, int: True, float: float("nan")}.get(type(value), object()))
    for wrong in (near, object()):
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(config, **{name: wrong})
        assert info.value.field == name and str(info.value).startswith(f"{name}: expected ")


def load(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return cli.load_run_config(str(path))


def test_run_config_defaults_match_the_config_classes(tmp_path):
    cfg = load(tmp_path, {})
    assert cfg["model"] == DESK_CONFIG
    assert cfg["prune"] == PruneConfig(0.5, 0.5)
    assert cfg["train"] == TrainConfig()
    assert cfg["bench"] == BenchConfig() and cfg["bench"].hardware == HardwareSpec()
    assert cfg["seed"] == 0 and cfg["gen"] == GenParams(max_new_tokens=32)


def test_run_config_accepts_ints_for_floats_and_none_where_optional(tmp_path):
    cfg = load(tmp_path, {"model": {"rope_theta": 500000}, "prune": {"p_hidden": 0},
                          "bench": {"hardware": {"peak_flops": 10}}})
    assert cfg["model"].rope_theta == 500000
    assert cfg["prune"].p_hidden == 0
    assert cfg["bench"].hardware.peak_flops == 10
    # An unset roofline geometry is the model section.
    cfg = load(tmp_path, {"model": {"n_layers": 2}, "bench": {"roofline_full_geometry": None}})
    assert cfg["roofline_full"] == cfg["model"]
    assert cfg["model"] == dataclasses.replace(DESK_CONFIG, n_layers=2)


# Each case has a fixed id. The first 49 keep the ids pytest once derived from a case's
# position and its message of the time, so rewording a message renames no test.
POINTER_CASE_IDS = [
    "doc0-/model/mystery: unknown key",
    "doc1-/bench/hardware/watts: unknown key",
    "doc2-/model/hidden_dim: expected int, got str",
    "doc3-/model/hidden_dim: expected int, got float",
    "doc4-/model/n_layers: expected int, got bool",
    "doc5-/model/norm_eps: expected int or float, got bool",
    "doc6-/model/tied_embeddings: expected bool, got int",
    "doc7-/prune/p_hidden: expected int or float, got str",
    "doc8-/bench/roofline_pruned_geometry: unknown key",
    "doc9-/prune/calib_rows: expected int, got bool",
    "doc10-/bench/hardware/bytes_per_param: expected int, got float",
    "doc11-/gen/max_new_tokens: expected int, got bool",
    "doc12-/seed: expected int, got bool",
    "doc13-/model: expected an object",
    "doc14-/: expected an object",
    "doc15-/bench/repeats: unknown key",
    "doc16-/bench/warmups: unknown key",
    "doc17-/seed: expected >= 0, got -1",
    "doc18-/gen: max_new_tokens must be >= 0, got -1",
    "doc19-/gen: temperature must be >= 0, got -0.5",
    "doc20-/train/base_lr: expected > 0, got -0.01",
    "doc21-/train/base_lr: expected > 0, got 0",
    "doc22-/train/warmup_ratio: expected in [0, 1), got 1",
    "doc23-/train/warmup_ratio: expected in [0, 1), got -0.1",
    "doc24-/train/max_seq_len: expected >= 2, got 1",
    "doc25-/train/checkpoint_every: expected >= 0, got -1",
    "doc26-/train/train_per_kind: expected >= 1, got 0",
    "doc27-/train/eval_per_kind: expected >= 1, got 0",
    "doc28-/train/kinds: expected names from ['copy', 'reverse', 'modadd', 'kvlookup']"
    ", got ['copy', 5]",
    "doc29-/train/kinds: expected names from ['copy', 'reverse', 'modadd', 'kvlookup']"
    ", got ['copy', 'sort']",
    "doc30-/bench/gen_lens: expected positive ints, got ['a']",
    "doc31-/bench/gen_lens: expected positive ints, got [32, 0]",
    "doc32-/bench/gen_lens: expected positive ints, got [True]",
    "doc33-/bench/gen_lens: expected positive ints, got [8.0]",
    "doc34-/train/kinds: expected a non-empty list without repeats, got []",
    "doc35-/train/kinds: expected a non-empty list without repeats"
    ", got ['copy', 'reverse', 'copy']",
    "doc36-/bench/gen_lens: expected a non-empty list",
    "doc37-/prune/hardware_round_to: unknown key",
    "doc38-/seed: expected in [0, 2**128), got 340282366920938463463374607431768211456",
    "doc39-/gen/seed: unknown key",
    "doc40-/gen/stop_token: unknown key",
    "doc41-/train/base_steps: expected >= 1, got 0",
    "doc42-/train/overfill_steps: expected >= 1, got 0",
    "doc43-/train/batch_size: expected >= 1, got 0",
    "doc44-/bench/hardware/peak_flops: expected > 0, got 0",
    "doc45-/bench/hardware: expected an object",
    "doc46-/bench/roofline_full_geometry: expected Optional[str], got int",
    "doc47-/model/head_dim: expected an even number for RoPE, got 7",
    "doc48-/model: n_heads 3 not divisible by n_kv_heads 2",
    "vocab-size", "batch-over-data",
]


@pytest.mark.parametrize("doc, message", [
    ({"model": {"mystery": 1}}, "/model/mystery: unknown key"),
    ({"bench": {"hardware": {"watts": 1}}}, "/bench/hardware/watts: unknown key"),
    ({"model": {"hidden_dim": "64"}}, "/model/hidden_dim: expected int, got str"),
    ({"model": {"hidden_dim": 64.0}}, "/model/hidden_dim: expected int, got float"),
    ({"model": {"n_layers": True}}, "/model/n_layers: expected int, got bool"),
    ({"model": {"norm_eps": False}}, "/model/norm_eps: expected int or float, got bool"),
    ({"model": {"tied_embeddings": 1}}, "/model/tied_embeddings: expected bool, got int"),
    ({"prune": {"p_hidden": "0.5"}}, "/prune/p_hidden: expected int or float, got str"),
    ({"bench": {"roofline_pruned_geometry": "llama32_1b"}},
     "/bench/roofline_pruned_geometry: unknown key"),
    ({"prune": {"calib_rows": True}}, "/prune/calib_rows: expected int, got bool"),
    ({"bench": {"hardware": {"bytes_per_param": 4.0}}},
     "/bench/hardware/bytes_per_param: expected int, got float"),
    ({"gen": {"max_new_tokens": True}}, "/gen/max_new_tokens: expected int, got bool"),
    ({"seed": True}, "/seed: expected int, got bool"),
    ({"model": []}, "/model: expected an object"),
    ([], "/: expected an object"),
    ({"bench": {"repeats": 5}}, "/bench/repeats: unknown key"),
    ({"bench": {"warmups": 2}}, "/bench/warmups: unknown key"),
    ({"seed": -1}, "/seed: expected in [0, 2**128), got -1"),
    ({"gen": {"max_new_tokens": -1}}, "/gen/max_new_tokens: expected >= 0, got -1"),
    ({"gen": {"temperature": -0.5}}, "/gen/temperature: expected >= 0, got -0.5"),
    ({"train": {"base_lr": -0.01}}, "/train/base_lr: expected > 0, got -0.01"),
    ({"train": {"base_lr": 0}}, "/train/base_lr: expected > 0, got 0"),
    ({"train": {"warmup_ratio": 1}}, "/train/warmup_ratio: expected in [0, 1), got 1"),
    ({"train": {"warmup_ratio": -0.1}}, "/train/warmup_ratio: expected in [0, 1), got -0.1"),
    ({"train": {"max_seq_len": 1}}, "/train/max_seq_len: expected >= 2, got 1"),
    ({"train": {"checkpoint_every": 2}}, "/train/checkpoint_every: unknown key"),
    ({"train": {"train_per_kind": 0}}, "/train/train_per_kind: expected >= 1, got 0"),
    ({"train": {"eval_per_kind": 0}}, "/train/eval_per_kind: expected >= 1, got 0"),
    ({"train": {"kinds": ["copy", 5]}}, "/train/kinds: expected tuple[str, ...], got ('copy', 5)"),
    ({"train": {"kinds": ["copy", "sort"]}}, "/train/kinds: expected names from "
     "('copy', 'reverse', 'modadd', 'kvlookup'), got ('copy', 'sort')"),
    ({"bench": {"gen_lens": ["a"]}}, "/bench/gen_lens: expected tuple[int, ...], got ('a',)"),
    ({"bench": {"gen_lens": [32, 0]}},
     "/bench/gen_lens: expected a non-empty tuple of ints >= 1, got (32, 0)"),
    ({"bench": {"gen_lens": [True]}}, "/bench/gen_lens: expected tuple[int, ...], got (True,)"),
    ({"bench": {"gen_lens": [8.0]}}, "/bench/gen_lens: expected tuple[int, ...], got (8.0,)"),
    ({"train": {"kinds": []}}, "/train/kinds: expected a non-empty tuple without repeats, got ()"),
    ({"train": {"kinds": ["copy", "reverse", "copy"]}}, "/train/kinds: expected a non-empty "
     "tuple without repeats, got ('copy', 'reverse', 'copy')"),
    ({"bench": {"gen_lens": []}},
     "/bench/gen_lens: expected a non-empty tuple of ints >= 1, got ()"),
    ({"prune": {"hardware_round_to": 8}}, "/prune/hardware_round_to: unknown key"),
    ({"seed": 2**128},
     "/seed: expected in [0, 2**128), got 340282366920938463463374607431768211456"),
    ({"gen": {"seed": 1}}, "/gen/seed: unknown key"),
    ({"gen": {"stop_token": 1}}, "/gen/stop_token: unknown key"),
    ({"train": {"base_steps": 0}}, "/train/base_steps: expected >= 1, got 0"),
    ({"train": {"overfill_steps": 0}}, "/train/overfill_steps: expected >= 1, got 0"),
    ({"train": {"batch_size": 0}}, "/train/batch_size: expected >= 1, got 0"),
    ({"bench": {"hardware": {"peak_flops": 0}}},
     "/bench/hardware/peak_flops: expected > 0, got 0"),
    ({"bench": {"hardware": 5}}, "/bench/hardware: expected an object"),
    ({"bench": {"roofline_full_geometry": 5}},
     "/bench/roofline_full_geometry: expected Optional[str], got int"),
    ({"model": {"head_dim": 7}}, "/model/head_dim: expected an even number for RoPE, got 7"),
    ({"model": {"n_heads": 3}}, "/model: n_heads 3 not divisible by n_kv_heads 2"),
    ({"model": {"vocab_size": 100}},
     "/model/vocab_size: expected >= 260 (the tokenizer's), got 100"),
    ({"train": {"train_per_kind": 2, "batch_size": 16}},
     "/train/batch_size: expected <= train_per_kind x kinds = 8, got 16"),
], ids=POINTER_CASE_IDS)
def test_run_config_errors_name_the_json_pointer(tmp_path, doc, message):
    with pytest.raises(DataError) as info:
        load(tmp_path, doc)
    assert str(info.value) == "invalid run config: " + message


def test_run_config_reports_every_error(tmp_path):
    with pytest.raises(DataError) as info:
        load(tmp_path, {"model": {"mystery": 1, "hidden_dim": "x"}, "seed": 1.5})
    assert str(info.value) == ("invalid run config: /seed: expected int, got float; "
                               "/model/mystery: unknown key; "
                               "/model/hidden_dim: expected int, got str")


@pytest.mark.parametrize("keep", [7, 2048, -4])
def test_truncated_checkpoint_exits_2(run_dir, capsys, keep):
    path = run_dir / "checkpoints" / "base.ovfl"
    path.write_bytes(path.read_bytes()[:keep])
    code = run_cli(run_dir, "generate", "--prompt", "hi")
    err = capsys.readouterr().err
    assert code == 2 and "truncated checkpoint" in err and "Traceback" not in err


def test_empty_pruned_checkpoint_exits_2(run_dir, capsys):
    # A 0-byte file cannot be mapped; that is a data error, not a crash.
    (run_dir / "checkpoints" / "pruned.ovfl").write_bytes(b"")
    save_config(run_dir / "checkpoints" / "pruned.config.json", DESK_CONFIG)
    code = run_cli(run_dir, "generate", "--mode", "pruned", "--prompt", "hi")
    err = capsys.readouterr().err
    assert code == 2 and "pruned.ovfl" in err and "Traceback" not in err


@pytest.mark.parametrize("gen, message", [({"max_new_tokens": -1}, "max_new_tokens"),
                                          ({"temperature": -0.5}, "temperature"),
                                          ({"temperature": float("nan")}, "temperature"),
                                          ({"temperature": float("inf")}, "temperature")])
def test_bad_generation_params_exit_2(run_dir, capsys, gen, message):
    (run_dir / "run.json").write_text(json.dumps({"gen": gen}))
    code = run_cli(run_dir, "generate", "--mode", "overfill", "--prompt", "hi")
    err = capsys.readouterr().err
    assert code == 2 and message in err and "Traceback" not in err


@pytest.mark.parametrize("subcommand", [c for c in cli.COMMANDS if c != "param-count"])
@pytest.mark.parametrize("doc, message", [
    ({"seed": -1}, "/seed: expected in [0, 2**128), got -1"),
    ({"gen": {"max_new_tokens": -1}}, "/gen/max_new_tokens: expected >= 0, got -1"),
    ({"bench": {"gen_lens": ["a"]}}, "/bench/gen_lens: expected tuple[int, ...], got ('a',)"),
    ({"train": {"kinds": ["copy", 5]}}, "/train/kinds: expected tuple[str, ...], got ('copy', 5)"),
    ({"train": {"base_lr": -0.01}}, "/train/base_lr: expected > 0, got -0.01"),
    ({"train": {"base_lr": float("inf")}}, "/train/base_lr: expected a finite number, got inf"),
    ({"gen": {"temperature": float("nan")}},
     "/gen/temperature: expected a finite number, got nan"),
    ({"model": {"rope_theta": float("nan")}},
     "/model/rope_theta: expected a finite number, got nan"),
    ({"bench": {"hardware": {"mem_bandwidth": float("-inf")}}},
     "/bench/hardware/mem_bandwidth: expected a finite number, got -inf"),
    ({"train": {"kinds": []}}, "/train/kinds: expected a non-empty tuple without repeats"),
    ({"train": {"kinds": ["copy", "copy"]}},
     "/train/kinds: expected a non-empty tuple without repeats, got ('copy', 'copy')"),
    ({"bench": {"gen_lens": []}},
     "/bench/gen_lens: expected a non-empty tuple of ints >= 1, got ()"),
    ({"prune": {"p_hidden": 2}}, "/prune/p_hidden: expected in [0, 1), got 2"),
    ({"model": {"n_heads": 3}}, "/model: n_heads 3 not divisible by n_kv_heads 2"),
    ({"prune": {"calib_rows": 0}}, "/prune/calib_rows: expected >= 1, got 0"),
    ({"bench": {"hardware": {"peak_flops": 0}}},
     "/bench/hardware/peak_flops: expected > 0, got 0"),
    ({"bench": {"prompt_len": 0}}, "/bench/prompt_len: expected >= 1, got 0"),
    ({"bench": {"batch": 0}}, "/bench/batch: expected >= 1, got 0"),
    ({"prune": {"hardware_round_to": 1024}}, "/prune/hardware_round_to: unknown key"),
    ({"train": {"checkpoint_every": 2}}, "/train/checkpoint_every: unknown key"),
    ({"prune": {"p_hidden": 0.99}}, "/prune: pruned dims must be >= 1"),
    ({"bench": {"roofline_full_geometry": "nope.json"}},
     "/bench/roofline_full_geometry: model config not found"),
    (b'{"seed": 1\xff}', "not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ({"seed": 2**128}, "/seed: expected in [0, 2**128), got 3402823669209384634633746"),
    ({"train": {"base_steps": 0}}, "/train/base_steps: expected >= 1, got 0"),
    ({"train": {"overfill_steps": 0}}, "/train/overfill_steps: expected >= 1, got 0"),
    ({"train": {"batch_size": 0}}, "/train/batch_size: expected >= 1, got 0"),
    # An int past the float range is not a finite number either.
    ({"bench": {"hardware": {"peak_flops": 10**400}}},
     "/bench/hardware/peak_flops: expected a finite number, got 10000000000"),
    # Training would refuse these later, after gen-data had written the data.
    ({"model": {"vocab_size": 100}}, "/model/vocab_size: expected >= 260"),
    ({"train": {"train_per_kind": 2, "batch_size": 16}},
     "/train/batch_size: expected <= train_per_kind x kinds = 8, got 16"),
], ids=["seed", "max-new-tokens", "gen-lens", "kinds", "base-lr",
        "base-lr-inf", "temperature-nan", "rope-theta-nan", "hardware-inf",
        "kinds-empty", "kinds-repeated", "gen-lens-empty", "p-hidden", "n-heads",
        "calib-rows", "peak-flops", "prompt-len", "batch", "round-to", "checkpoint-every",
        "p-hidden-empty", "roofline-file", "not-utf8", "seed-2-128", "base-steps",
        "overfill-steps", "batch-size", "peak-flops-huge", "vocab-size", "batch-over-data"])
def test_out_of_range_run_config_exits_2(run_dir, capsys, subcommand, doc, message):
    raw = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    (run_dir / "run.json").write_bytes(raw)
    extra = ("--prompt", "hi") if subcommand == "generate" else ()
    code = run_cli(run_dir, subcommand, *extra)
    err = capsys.readouterr().err
    assert code == 2 and message in err and "Traceback" not in err
    assert not (run_dir / "data").exists()


def test_bench_is_not_a_subcommand(run_dir, capsys):
    before = sorted(run_dir.rglob("*"))
    for name in ("bench", "calibrate"):
        assert run_cli(run_dir, name) == 1
        assert f"invalid choice: '{name}'" in capsys.readouterr().err
    assert sorted(run_dir.rglob("*")) == before


@pytest.mark.parametrize("lines", [
    ["5"],
    [json.dumps({"kind": "copy", "seed": 0, "count": 1}), "[1, 2]"],
    [json.dumps({"kind": "copy", "seed": 0, "count": 1}),
     json.dumps({"system": 5, "user": "a", "assistant": "a", "task_kind": "copy"})],
    # "\udcff" is written as the lone byte 0xff, which is not UTF-8.
    [json.dumps({"kind": "copy", "seed": 0, "count": 1}),
     '{"system": "\udcff", "user": "a", "assistant": "a", "task_kind": "copy"}'],
    *[[json.dumps({"kind": "copy", "seed": 0, "count": count}),
       json.dumps({"system": "a", "user": "a", "assistant": "a", "task_kind": "copy"})]
      for count in ("1", True)],
], ids=["header", "example", "field-type", "not-utf8", "count-str", "count-bool"])
def test_dataset_line_that_is_not_an_object_exits_2(run_dir, capsys, lines):
    (run_dir / "data").mkdir()
    text = "\n".join(lines) + "\n"
    (run_dir / "data" / "eval_copy.jsonl").write_bytes(text.encode("utf-8", "surrogateescape"))
    code = run_cli(run_dir, "eval", "--kind", "copy")
    err = capsys.readouterr().err
    assert code == 2 and "malformed dataset" in err and "Traceback" not in err


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    (tmp_path / "run.json").write_text("{}")
    (tmp_path / "afile").write_text("")
    code = cli.main(["gen-data", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "afile")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "Not a directory" in err
    assert "Traceback" not in err


def test_prompt_token_outside_the_model_vocabulary_exits_2(tmp_path, capsys):
    # A byte-level prompt needs a vocabulary of 260; these checkpoints have
    # 100 (a run config cannot ask for it, see vocab-size above).
    (tmp_path / "run.json").write_text("{}")
    w = init_model(dataclasses.replace(DESK_CONFIG, vocab_size=100), 0)
    for stem in ("base", "overfill"):
        save_checkpoint(tmp_path / "checkpoints" / f"{stem}.ovfl", w)
        save_config(tmp_path / "checkpoints" / f"{stem}.config.json", w.config)
    code = run_cli(tmp_path, "generate", "--prompt", "hi")
    err = capsys.readouterr().err
    assert code == 2 and "out of range" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# BLAS thread cap, param-count input, training counts
# ---------------------------------------------------------------------------

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [
    ({}, ["1", "1", "1", "1"]),
    ({"OVERFILL_THREADS": "3"}, ["3", "3", "3", "3"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1", "1"]),
])
def test_thread_cap_is_set_before_numpy_loads(preset, expected):
    # A fresh interpreter: in this one numpy is loaded already.
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_VARS and k != "OVERFILL_THREADS"}
    env.update(preset, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import json, os, sys; assert 'numpy' not in sys.modules; import overfill.cli; "
            f"print(json.dumps([os.environ[v] for v in {BLAS_VARS!r}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == expected


@pytest.mark.parametrize("text", ["5", "[1, 2]"])
def test_param_count_on_a_json_file_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    code = cli.main(["param-count", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "expected an object" in err and "Traceback" not in err


@pytest.mark.parametrize("bad, message", [
    ({"n_layers": True, "tied_embeddings": "no"}, "n_layers: expected int, got bool"),
    ({"tied_embeddings": "no"}, "tied_embeddings: expected bool, got str"),
    ({"rope_theta": True}, "rope_theta: expected int or float, got bool"),
], ids=["bool-dimension", "string-flag", "bool-float"])
def test_param_count_on_a_model_config_of_the_wrong_json_types_exits_2(tmp_path, capsys,
                                                                        bad, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**DESK_CONFIG.to_dict(), **bad}))
    code = cli.main(["param-count", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and message in captured.err and captured.out == ""
    assert "Traceback" not in captured.err


def test_param_count_on_a_model_config_missing_a_key_names_the_file(tmp_path, capsys):
    # Not a run config: it has keys a run config cannot have.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({k: v for k, v in DESK_CONFIG.to_dict().items()
                                if k != "vocab_size"}))
    code = cli.main(["param-count", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: missing model config keys: ['vocab_size']\n"


@pytest.mark.parametrize("doc", [{}, {"seed": 1}], ids=["empty", "seed-only"])
def test_param_count_reads_a_run_config_without_a_model_section(tmp_path, capsys, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["param-count", "--config", str(path)]) == 0
    assert capsys.readouterr().out == f"{param_count(DESK_CONFIG)}\n" == "262976\n"


# A count below one in the run config fails at load, in gen-data too (see
# test_out_of_range_run_config_exits_2); here the data is made first, so it
# is train-base that refuses.
@pytest.mark.parametrize("train", [{"base_steps": 0}, {"batch_size": 0}],
                         ids=["base-steps", "batch-size"])
def test_training_counts_below_one_exit_2(tmp_path, capsys, train):
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    assert run_cli(tmp_path, "gen-data") == 0
    run = {**TINY_RUN, "train": {**TINY_RUN["train"], **train}}
    (tmp_path / "run.json").write_text(json.dumps(run))
    code = run_cli(tmp_path, "train-base")
    err = capsys.readouterr().err
    assert code == 2 and ">= 1, got" in err and "Traceback" not in err
    assert not (tmp_path / "checkpoints" / "base.ovfl").exists()


# ---------------------------------------------------------------------------
# training steps, roofline
# ---------------------------------------------------------------------------

def test_one_training_step_moves_the_weights(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    assert run_cli(tmp_path, "gen-data") == 0
    run = {**TINY_RUN, "train": {**TINY_RUN["train"], "base_steps": 1}}
    (tmp_path / "run.json").write_text(json.dumps(run))
    assert run_cli(tmp_path, "train-base") == 0
    ckpt = tmp_path / "checkpoints"
    init = init_model(load_config(ckpt / "base.config.json"), TINY_RUN["seed"])
    save_checkpoint(tmp_path / "init.ovfl", init)
    assert (ckpt / "base.ovfl").read_bytes() != (tmp_path / "init.ovfl").read_bytes()


def test_the_last_training_step_moves_the_weights(tmp_path):
    # Every step, the last included, updates at a nonzero learning rate; that
    # the last update changes the weights is test_trainer's
    # test_the_third_of_three_steps_moves_the_decoder.
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    assert run_cli(tmp_path, "gen-data") == 0
    assert run_cli(tmp_path, "train-base") == 0
    log = list(csv.DictReader(open(tmp_path / "logs_base.csv", newline="")))
    assert len(log) == 3 and all(float(row["lr"]) > 0 for row in log)


TWO_LAYER = dataclasses.replace(DESK_CONFIG, n_layers=2)


def _halved(cfg):
    # The widths the default prune ratios (0.5, 0.5) keep.
    return dataclasses.replace(cfg, hidden_dim=cfg.hidden_dim // 2,
                               intermediate_dim=cfg.intermediate_dim // 2)


LLAMA32_3B = reference_geometry("llama32_3b")


@pytest.mark.parametrize("full_spec, prune, full, pruned", [
    (None, {}, DESK_CONFIG, _halved(DESK_CONFIG)),
    # 3B-to-1B: Llama-3.2-3B cut at 0.45 leaves about 1.24B parameters.
    ("llama32_3b", {"p_hidden": 0.45, "p_intermediate": 0.45}, LLAMA32_3B,
     dataclasses.replace(LLAMA32_3B, hidden_dim=1689, intermediate_dim=4505)),
    ("file", {}, TWO_LAYER, _halved(TWO_LAYER)),
], ids=["derived", "reference", "config-file"])
def test_roofline_writes_a_row_per_mode_and_length(tmp_path, full_spec, prune, full, pruned):
    if full_spec == "file":
        full_spec = str(tmp_path / "full.config.json")
        save_config(full_spec, full)
    doc = {"prune": prune, "bench": {"roofline_full_geometry": full_spec}}
    (tmp_path / "run.json").write_text(json.dumps(doc))
    assert run_cli(tmp_path, "roofline") == 0
    rows = list(csv.reader(open(tmp_path / "roofline.csv", newline="")))
    assert rows[0] == ["mode", "M", "N", "batch", "prefill_s", "decode_s", "total_s",
                       "params"]
    decoder = {"full": full, "pruned": pruned, "overfill": pruned}
    assert [(r[0], r[2], r[7]) for r in rows[1:]] == [
        (mode, str(n), str(param_count(decoder[mode])))
        for mode in ("full", "pruned", "overfill") for n in (32, 64, 128)]


def test_gen_data_rejects_a_roofline_geometry_the_prune_ratios_empty(tmp_path, capsys):
    # The model section keeps channels at p_hidden 0.9; the 8-wide geometry
    # that roofline would cut does not.
    geometry = tmp_path / "narrow.config.json"
    save_config(geometry, dataclasses.replace(DESK_CONFIG, hidden_dim=8))
    doc = {"prune": {"p_hidden": 0.9}, "bench": {"roofline_full_geometry": str(geometry)}}
    (tmp_path / "run.json").write_text(json.dumps(doc))
    for subcommand in ("gen-data", "roofline"):
        assert run_cli(tmp_path, subcommand) == 2
        err = capsys.readouterr().err
        assert "/bench/roofline_full_geometry: pruned dims must be >= 1" in err
        assert "Traceback" not in err
    assert not (tmp_path / "data").exists() and not (tmp_path / "roofline.csv").exists()


# ---------------------------------------------------------------------------
# text that UTF-8 cannot encode
# ---------------------------------------------------------------------------

# "\udcff" is what an argv byte 0xff decodes to.
@pytest.mark.parametrize("text", [("--prompt", "\udcff"),
                                  ("--prompt", "hi", "--system", "\udcff")],
                         ids=["prompt", "system"])
def test_generate_on_text_utf8_cannot_encode_exits_2(run_dir, capsys, text):
    code = run_cli(run_dir, "generate", *text)
    err = capsys.readouterr().err
    assert code == 2 and "not valid Unicode" in err and "Traceback" not in err


def test_training_on_a_dataset_line_utf8_cannot_encode_exits_2(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    assert run_cli(tmp_path, "gen-data") == 0
    path = tmp_path / "data" / "train_copy.jsonl"
    header, first, *rest = path.read_text().splitlines()
    # json.dumps writes the lone surrogate as the escape "\udcff": valid JSON in UTF-8.
    first = json.dumps({**json.loads(first), "user": "\udcff"})
    path.write_text("\n".join([header, first, *rest]) + "\n")
    code = run_cli(tmp_path, "train-base")
    err = capsys.readouterr().err
    assert code == 2 and "not valid Unicode" in err and "Traceback" not in err
    assert not (tmp_path / "checkpoints" / "base.ovfl").exists()
