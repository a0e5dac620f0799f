import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from overfill import cli
from overfill.checkpoint import load_config, save_checkpoint, save_config
from overfill.corpus import Tokenizer, pack_calibration_batches
from overfill.engine import GenParams
from overfill.errors import ConfigError, DataError
from overfill.model import DESK_CONFIG, init_model
from overfill.perfmodel import HardwareSpec, param_count, reference_geometry
from overfill.pruner import PruneConfig, prune_pipeline
from overfill.trainer import run_training

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
    t = cfg["train"]
    run_training(None, w, cli._train_examples(cfg, trained_run), Tokenizer(),
                 steps=t["overfill_steps"], batch_size=t["batch_size"],
                 max_seq_len=t["max_seq_len"], base_lr=t["base_lr"],
                 warmup_ratio=t["warmup_ratio"], data_seed=cfg["seed"] + 2)
    trained = cli._load_model(trained_run, "pruned")
    assert trained.config == w.config and trained.checksum() == w.checksum()
    assert trained.checksum() != cli._load_model(trained_run, "pruned_init").checksum()


def test_train_pruned_before_prune_exits_2(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    assert run_cli(tmp_path, "gen-data") == 0
    assert run_cli(tmp_path, "train-base") == 0
    code = run_cli(tmp_path, "train-pruned")
    err = capsys.readouterr().err
    assert code == 2 and "pruned_init" in err and "Traceback" not in err
    assert not (tmp_path / "checkpoints" / "pruned.ovfl").exists()


@pytest.mark.parametrize("args", [("train-base", "--tag", "pruned"),
                                  ("train-base", "--init-checkpoint", "x"),
                                  ("prune", "--p-hidden", "0.7")],
                         ids=["tag", "init-checkpoint", "p-hidden"])
def test_removed_flags_are_usage_errors(run_dir, capsys, args):
    before = sorted(run_dir.rglob("*"))
    code = run_cli(run_dir, *args)
    err = capsys.readouterr().err
    assert code == 1 and "usage error: unrecognized arguments" in err
    assert sorted(run_dir.rglob("*")) == before


# Every option of every subcommand. A new option is a deliberate change to
# the surface: add it here too.
COMMON_OPTIONS = {"--config", "--out", "--seed"}
OPTIONS = {
    "gen-data": set(),
    "train-base": {"--steps"},
    "prune": set(),
    "train-pruned": {"--steps"},
    "train-overfill": {"--steps"},
    "generate": {"--mode", "--prompt", "--system"},
    "eval": {"--mode", "--kind"},
    "param-count": set(),
    "roofline": set(),
}


def test_subcommand_options_match_the_table():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    found = {name: {opt for a in p._actions for opt in a.option_strings}
             - {"-h", "--help"} - COMMON_OPTIONS
             for name, p in sub.choices.items()}
    assert found == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 8


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------

# Every leaf key of the run config, in schema order: a new knob is added on purpose.
RUN_CONFIG_KEYS = """
/seed
/model/vocab_size /model/hidden_dim /model/n_layers /model/n_heads /model/n_kv_heads
/model/head_dim /model/intermediate_dim /model/norm_eps /model/rope_theta
/model/tied_embeddings
/prune/p_hidden /prune/p_intermediate /prune/calib_batches /prune/calib_rows
/prune/calib_seq_len
/train/base_lr /train/warmup_ratio /train/batch_size /train/max_seq_len /train/base_steps
/train/overfill_steps /train/checkpoint_every /train/kinds /train/train_per_kind
/train/eval_per_kind
/gen/max_new_tokens /gen/temperature
/bench/prompt_len /bench/gen_lens /bench/batch /bench/hardware/peak_flops
/bench/hardware/mem_bandwidth /bench/hardware/bytes_per_param
/bench/roofline_full_geometry
""".split()


def _leaf_keys(schema, pointer=""):
    for key, rule in schema.items():
        if isinstance(rule, dict):
            yield from _leaf_keys(rule, f"{pointer}/{key}")
        else:
            yield f"{pointer}/{key}"


def test_run_config_keys_match_the_table():
    assert list(_leaf_keys(cli.RUN_SCHEMA)) == RUN_CONFIG_KEYS
    assert len(RUN_CONFIG_KEYS) == 35


@pytest.mark.parametrize("make", [
    lambda: dataclasses.replace(DESK_CONFIG, n_layers=0),
    lambda: PruneConfig(1.0, 0.0),
    lambda: GenParams(max_new_tokens=-1),
    lambda: HardwareSpec(peak_flops=0),
], ids=["model", "prune", "gen", "hardware"])
def test_config_objects_cannot_be_made_invalid(make):
    with pytest.raises(ConfigError):
        make()


def load(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return cli.load_run_config(str(path))


def test_run_config_defaults_match_the_config_classes(tmp_path):
    cfg = load(tmp_path, {})
    assert cfg["model"] == DESK_CONFIG
    assert cfg["prune"] == PruneConfig(0.5, 0.5)
    assert cfg["bench"]["hardware"] == HardwareSpec()
    assert cfg["seed"] == 0 and cfg["gen"] == GenParams(max_new_tokens=32)


def test_run_config_accepts_ints_for_floats_and_none_where_optional(tmp_path):
    cfg = load(tmp_path, {"model": {"rope_theta": 500000}, "prune": {"p_hidden": 0},
                          "bench": {"hardware": {"peak_flops": 10}}})
    assert cfg["model"].rope_theta == 500000
    assert cfg["prune"].p_hidden == 0
    assert cfg["bench"]["hardware"].peak_flops == 10
    # An unset roofline geometry is the model section.
    cfg = load(tmp_path, {"model": {"n_layers": 2}, "bench": {"roofline_full_geometry": None}})
    assert cfg["bench"]["roofline_full_geometry"] == cfg["model"]
    assert cfg["model"] == dataclasses.replace(DESK_CONFIG, n_layers=2)


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
    ({"seed": -1}, "/seed: expected >= 0, got -1"),
    ({"gen": {"max_new_tokens": -1}}, "/gen: max_new_tokens must be >= 0, got -1"),
    ({"gen": {"temperature": -0.5}}, "/gen: temperature must be >= 0, got -0.5"),
    ({"train": {"base_lr": -0.01}}, "/train/base_lr: expected > 0, got -0.01"),
    ({"train": {"base_lr": 0}}, "/train/base_lr: expected > 0, got 0"),
    ({"train": {"warmup_ratio": 1}}, "/train/warmup_ratio: expected in [0, 1), got 1"),
    ({"train": {"warmup_ratio": -0.1}}, "/train/warmup_ratio: expected in [0, 1), got -0.1"),
    ({"train": {"max_seq_len": 1}}, "/train/max_seq_len: expected >= 2, got 1"),
    ({"train": {"checkpoint_every": -1}}, "/train/checkpoint_every: expected >= 0, got -1"),
    ({"train": {"train_per_kind": 0}}, "/train/train_per_kind: expected >= 1, got 0"),
    ({"train": {"eval_per_kind": 0}}, "/train/eval_per_kind: expected >= 1, got 0"),
    ({"train": {"kinds": ["copy", 5]}}, "/train/kinds: expected names from "
     "['copy', 'reverse', 'modadd', 'kvlookup'], got ['copy', 5]"),
    ({"train": {"kinds": ["copy", "sort"]}}, "/train/kinds: expected names from "
     "['copy', 'reverse', 'modadd', 'kvlookup'], got ['copy', 'sort']"),
    ({"bench": {"gen_lens": ["a"]}}, "/bench/gen_lens: expected positive ints, got ['a']"),
    ({"bench": {"gen_lens": [32, 0]}}, "/bench/gen_lens: expected positive ints, got [32, 0]"),
    ({"bench": {"gen_lens": [True]}}, "/bench/gen_lens: expected positive ints, got [True]"),
    ({"bench": {"gen_lens": [8.0]}}, "/bench/gen_lens: expected positive ints, got [8.0]"),
    ({"train": {"kinds": []}}, "/train/kinds: expected a non-empty list without repeats, "
     "got []"),
    ({"train": {"kinds": ["copy", "reverse", "copy"]}}, "/train/kinds: expected a non-empty "
     "list without repeats, got ['copy', 'reverse', 'copy']"),
    ({"bench": {"gen_lens": []}}, "/bench/gen_lens: expected a non-empty list"),
    ({"prune": {"hardware_round_to": 8}}, "/prune/hardware_round_to: unknown key"),
])
def test_run_config_errors_name_the_json_pointer(tmp_path, doc, message):
    with pytest.raises(DataError) as info:
        load(tmp_path, doc)
    assert str(info.value) == "invalid run config: " + message


def test_seed_override_is_range_checked(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({"seed": -1}))
    assert cli.load_run_config(str(tmp_path / "run.json"), seed=2)["seed"] == 2
    with pytest.raises(DataError, match="/seed: expected >= 0, got -5"):
        cli.load_run_config(str(tmp_path / "run.json"), seed=-5)


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
@pytest.mark.parametrize("doc, args, message", [
    ({"seed": -1}, (), "/seed: expected >= 0, got -1"),
    ({}, ("--seed", "-1"), "/seed: expected >= 0, got -1"),
    ({"gen": {"max_new_tokens": -1}}, (), "/gen: max_new_tokens must be >= 0"),
    ({"bench": {"gen_lens": ["a"]}}, (), "/bench/gen_lens: expected positive ints"),
    ({"train": {"kinds": ["copy", 5]}}, (), "/train/kinds: expected names from"),
    ({"train": {"base_lr": -0.01}}, (), "/train/base_lr: expected > 0, got -0.01"),
    ({"train": {"base_lr": float("inf")}}, (), "/train/base_lr: expected a finite number"),
    ({"gen": {"temperature": float("nan")}}, (), "/gen/temperature: expected a finite number"),
    ({"model": {"rope_theta": float("nan")}}, (), "/model/rope_theta: expected a finite"),
    ({"bench": {"hardware": {"mem_bandwidth": float("-inf")}}}, (),
     "/bench/hardware/mem_bandwidth: expected a finite number"),
    ({"train": {"kinds": []}}, (), "/train/kinds: expected a non-empty list"),
    ({"train": {"kinds": ["copy", "copy"]}}, (), "/train/kinds: expected a non-empty list"),
    ({"bench": {"gen_lens": []}}, (), "/bench/gen_lens: expected a non-empty list"),
    ({"prune": {"p_hidden": 2}}, (), "/prune: p_hidden must be in [0, 1), got 2"),
    ({"model": {"n_heads": 3}}, (), "/model: n_heads 3 not divisible by n_kv_heads 2"),
    ({"prune": {"calib_rows": 0}}, (), "/prune: calibration dimensions must be positive"),
    ({"bench": {"hardware": {"peak_flops": 0}}}, (),
     "/bench/hardware: hardware spec values must be positive"),
    ({"bench": {"prompt_len": 0}}, (), "/bench/prompt_len: expected >= 1, got 0"),
    ({"bench": {"batch": 0}}, (), "/bench/batch: expected >= 1, got 0"),
    ({"prune": {"hardware_round_to": 1024}}, (), "/prune/hardware_round_to: unknown key"),
    ({"prune": {"p_hidden": 0.99}}, (), "/prune: pruned dims must be >= 1"),
    ({"bench": {"roofline_full_geometry": "nope.json"}}, (),
     "/bench/roofline_full_geometry: model config not found"),
    (b'{"seed": 1\xff}', (), "not valid JSON: 'utf-8' codec can't decode byte 0xff"),
], ids=["seed", "seed-flag", "max-new-tokens", "gen-lens", "kinds", "base-lr",
        "base-lr-inf", "temperature-nan", "rope-theta-nan", "hardware-inf",
        "kinds-empty", "kinds-repeated", "gen-lens-empty", "p-hidden", "n-heads",
        "calib-rows", "peak-flops", "prompt-len", "batch", "round-to", "p-hidden-empty",
        "roofline-file", "not-utf8"])
def test_out_of_range_run_config_exits_2(run_dir, capsys, subcommand, doc, args, message):
    raw = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    (run_dir / "run.json").write_bytes(raw)
    extra = ("--prompt", "hi") if subcommand == "generate" else ()
    code = run_cli(run_dir, subcommand, *args, *extra)
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
    # A byte-level prompt needs a vocabulary of 260; this model has 100.
    (tmp_path / "run.json").write_text(json.dumps({"model": {"vocab_size": 100}}))
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
    ({"n_layers": True, "tied_embeddings": "no"}, "n_layers must be a positive integer"),
    ({"tied_embeddings": "no"}, "tied_embeddings must be a bool"),
    ({"rope_theta": True}, "rope_theta must be a finite number"),
], ids=["bool-dimension", "string-flag", "bool-float"])
def test_param_count_on_a_model_config_of_the_wrong_json_types_exits_2(tmp_path, capsys,
                                                                        bad, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**DESK_CONFIG.to_dict(), **bad}))
    code = cli.main(["param-count", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and message in captured.err and captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("doc", [{}, {"seed": 1}], ids=["empty", "seed-only"])
def test_param_count_reads_a_run_config_without_a_model_section(tmp_path, capsys, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["param-count", "--config", str(path)]) == 0
    assert capsys.readouterr().out == f"{param_count(DESK_CONFIG)}\n" == "262976\n"


def test_param_count_range_checks_the_seed_of_a_run_config(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("{}")
    code = cli.main(["param-count", "--config", str(path), "--seed", "-5"])
    captured = capsys.readouterr()
    assert code == 2 and "/seed: expected >= 0, got -5" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("train, args", [({"base_steps": 0}, ()),
                                         ({}, ("--steps", "-3")),
                                         ({}, ("--steps", "0")),
                                         ({"batch_size": 0}, ())])
def test_training_counts_below_one_exit_2(tmp_path, capsys, train, args):
    run = {**TINY_RUN, "train": {**TINY_RUN["train"], **train}}
    (tmp_path / "run.json").write_text(json.dumps(run))
    assert run_cli(tmp_path, "gen-data") == 0
    code = run_cli(tmp_path, "train-base", *args)
    err = capsys.readouterr().err
    assert code == 2 and "must be >= 1" in err and "Traceback" not in err
    assert not (tmp_path / "checkpoints" / "base.ovfl").exists()


# ---------------------------------------------------------------------------
# training steps, roofline
# ---------------------------------------------------------------------------

def test_one_training_step_moves_the_weights(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    assert run_cli(tmp_path, "gen-data") == 0
    assert run_cli(tmp_path, "train-base", "--steps", "1") == 0
    ckpt = tmp_path / "checkpoints"
    init = init_model(load_config(ckpt / "base.config.json"), TINY_RUN["seed"])
    save_checkpoint(tmp_path / "init.ovfl", init)
    assert (ckpt / "base.ovfl").read_bytes() != (tmp_path / "init.ovfl").read_bytes()


def test_the_last_training_step_moves_the_weights(tmp_path):
    run = {**TINY_RUN, "train": {**TINY_RUN["train"], "checkpoint_every": 2}}
    (tmp_path / "run.json").write_text(json.dumps(run))
    assert run_cli(tmp_path, "gen-data") == 0
    assert run_cli(tmp_path, "train-base") == 0
    ckpt = tmp_path / "checkpoints"
    assert (ckpt / "base.ovfl").read_bytes() != (ckpt / "base_step2.ovfl").read_bytes()
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
