import json

import pytest

from overfill import cli
from overfill.checkpoint import save_checkpoint, save_config
from overfill.model import DESK_CONFIG, init_model


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    # main() caps BLAS threads with setdefault; pin the variables so the
    # test leaves the process environment as it found it.
    for var in cli._THREAD_ENV_VARS:
        monkeypatch.setenv(var, "1")
    (tmp_path / "run.json").write_text(json.dumps({"gen": {"max_new_tokens": 2}}))
    for stem in ("base", "overfill"):
        save_checkpoint(tmp_path / "checkpoints" / f"{stem}.ovfl", init_model(DESK_CONFIG, 0))
        save_config(tmp_path / "checkpoints" / f"{stem}.config.json", DESK_CONFIG)
    return tmp_path


def test_pruned_mode_without_pruned_checkpoint_is_a_data_error(run_dir, capsys):
    # The overfill decoder exists but must not stand in for the pruned baseline.
    code = cli.main(["generate", "--config", str(run_dir / "run.json"),
                     "--out", str(run_dir), "--mode", "pruned", "--prompt", "hi"])
    err = capsys.readouterr().err
    assert code == 2
    assert "pruned.ovfl" in err and "train-base --tag pruned" in err
    assert "Traceback" not in err
