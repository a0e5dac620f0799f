"""Write a workload's models to OVFL1 checkpoints before timing starts.

Run as a child of run.py so that generating and pruning the weights does
not count towards the serving process's peak memory:

    python3 perfbench/prepare.py <workload> <seed> <out_dir>

Writes full.ovfl, pruned.ovfl and manifest.json (configs and checksums).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from overfill.checkpoint import save_checkpoint
from overfill.corpus import pack_calibration_batches
from overfill.model import init_model
from overfill.pruner import prune_pipeline

from workloads import PRUNE, TOK, WORKLOADS, examples


def prepare(name: str, seed: int, out: Path) -> None:
    wl = WORKLOADS[name]
    full = init_model(wl.config, seed)
    calib = pack_calibration_batches(examples(seed + 101, 64), TOK, PRUNE.calib_batches,
                                     PRUNE.calib_rows, PRUNE.calib_seq_len)
    pruned, pruned_cfg, _ = prune_pipeline(full, calib, PRUNE)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "full.ovfl", full)
    save_checkpoint(out / "pruned.ovfl", pruned)
    manifest = {
        "full": {"config": wl.config.to_dict(), "checksum": full.checksum().hex(),
                 "params": full.param_count()},
        "pruned": {"config": pruned_cfg.to_dict(), "checksum": pruned.checksum().hex(),
                   "params": pruned.param_count()},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))


if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
