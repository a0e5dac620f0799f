import dataclasses
import json

import pytest

from overfill import cli
from overfill.checkpoint import save_checkpoint, save_config
from overfill.errors import DataError
from overfill.model import DESK_CONFIG, init_model
from overfill.perfmodel import HardwareSpec
from overfill.pruner import PruneConfig

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
     "calibration.json", "selection.json",
     "logs_base.csv", "logs_pruned.csv", "logs_overfill.csv",
     "eval_full.json", "eval_pruned.json", "eval_overfill.json"]
    + [f"checkpoints/{stem}.{ext}" for stem in ("base", "pruned_init", "pruned", "overfill")
       for ext in ("ovfl", "config.json")])


@pytest.fixture(autouse=True)
def pinned_threads(monkeypatch):
    # main() caps BLAS threads with setdefault; pin the variables so the
    # test leaves the process environment as it found it.
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "1")


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
    assert "pruned.ovfl" in err and "train-base --tag pruned" in err
    assert "Traceback" not in err


def test_pipeline_end_to_end(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(TINY_RUN))
    ckpt = tmp_path / "checkpoints"
    steps = [
        ("gen-data",),
        ("train-base",),
        ("calibrate",),
        ("prune",),
        ("train-base", "--tag", "pruned",
         "--init-checkpoint", str(ckpt / "pruned_init.ovfl"),
         "--init-config", str(ckpt / "pruned_init.config.json")),
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


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------

def load(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return cli.load_run_config(str(path))


def test_run_config_defaults_match_the_config_classes(tmp_path):
    cfg = load(tmp_path, {})
    assert cfg["model"] == dataclasses.asdict(DESK_CONFIG)
    assert cfg["prune"] == dataclasses.asdict(PruneConfig(0.5, 0.5))
    assert cfg["bench"]["hardware"] == dataclasses.asdict(HardwareSpec())
    assert cfg["seed"] == 0 and cfg["gen"] == {"max_new_tokens": 32, "temperature": 0.0}


def test_run_config_accepts_ints_for_floats_and_none_where_optional(tmp_path):
    cfg = load(tmp_path, {"model": {"rope_theta": 500000},
                          "prune": {"p_hidden": 0, "hardware_round_to": 8},
                          "bench": {"hardware": {"peak_flops": 10}}})
    assert cfg["model"]["rope_theta"] == 500000
    assert cfg["prune"]["p_hidden"] == 0 and cfg["prune"]["hardware_round_to"] == 8
    assert cfg["bench"]["hardware"]["peak_flops"] == 10
    assert load(tmp_path, {"prune": {"hardware_round_to": None}})["prune"][
        "hardware_round_to"] is None


@pytest.mark.parametrize("doc, message", [
    ({"model": {"mystery": 1}}, "/model/mystery: unknown key"),
    ({"bench": {"hardware": {"watts": 1}}}, "/bench/hardware/watts: unknown key"),
    ({"model": {"hidden_dim": "64"}}, "/model/hidden_dim: expected int, got str"),
    ({"model": {"hidden_dim": 64.0}}, "/model/hidden_dim: expected int, got float"),
    ({"model": {"n_layers": True}}, "/model/n_layers: expected int, got bool"),
    ({"model": {"norm_eps": False}}, "/model/norm_eps: expected int or float, got bool"),
    ({"model": {"tied_embeddings": 1}}, "/model/tied_embeddings: expected bool, got int"),
    ({"prune": {"p_hidden": "0.5"}}, "/prune/p_hidden: expected int or float, got str"),
    ({"prune": {"hardware_round_to": 8.0}},
     "/prune/hardware_round_to: expected int or NoneType, got float"),
    ({"prune": {"calib_rows": True}}, "/prune/calib_rows: expected int, got bool"),
    ({"bench": {"hardware": {"bytes_per_param": 4.0}}},
     "/bench/hardware/bytes_per_param: expected int, got float"),
    ({"gen": {"max_new_tokens": True}}, "/gen/max_new_tokens: expected int, got bool"),
    ({"seed": True}, "/seed: expected int, got bool"),
    ({"model": []}, "/model: expected an object"),
    ([], "/: expected an object"),
])
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


@pytest.mark.parametrize("gen, message", [({"max_new_tokens": -1}, "max_new_tokens"),
                                          ({"temperature": -0.5}, "temperature")])
def test_bad_generation_params_exit_2(run_dir, capsys, gen, message):
    (run_dir / "run.json").write_text(json.dumps({"gen": gen}))
    code = run_cli(run_dir, "generate", "--mode", "overfill", "--prompt", "hi")
    err = capsys.readouterr().err
    assert code == 2 and message in err and "Traceback" not in err


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
