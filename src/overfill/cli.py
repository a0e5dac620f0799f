"""Single executable driving the pipeline, in order: gen-data -> train-base ->
prune -> train-pruned -> train-overfill -> eval (generate serves one prompt).
Each checkpoint has one producer, and every size and ratio comes from the run
config; --seed and --steps can replace its seed and step counts. param-count
and roofline give the analytic cost model.

Exit codes: 0 success, 1 usage error, 2 data or format error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .checkpoint import (load_checkpoint, load_config, read_json_object, save_checkpoint,
                         save_config)
from .corpus import (TASK_KINDS, ChatExample, Tokenizer, format_chat, gen_tasks,
                     load_dataset, pack_calibration_batches, save_dataset)
from .engine import MODES, GenParams, evaluate_exact_match, generate
from .errors import ConfigError, DataError
from .model import DESK_CONFIG, ModelConfig, check_handoff, init_model
from .perfmodel import (HardwareSpec, param_count, reference_geometries, reference_geometry,
                        roofline_estimate, write_cost_csv)
from .pruner import PruneConfig, compute_pruned_dims, prune_pipeline
from .trainer import run_training, write_training_log

EVAL_SEED_OFFSET = 104729  # keeps held-out example streams away from training ones


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Run configuration: schema with defaults, unknown keys rejected, errors
# reported with a JSON pointer.
# ---------------------------------------------------------------------------

_NUM = (int, float)
# Accepted JSON types for each annotation of a config dataclass field.
_FIELD_TYPES = {"int": int, "float": _NUM, "bool": bool,
                "Optional[int]": (int, type(None))}


def _section(defaults) -> dict:
    """Schema rules for a config dataclass: each field's type, with the
    value it has in `defaults` as its default."""
    return {f.name: (_FIELD_TYPES[f.type], getattr(defaults, f.name))
            for f in dataclasses.fields(defaults)}


# The run config schema: key -> (accepted types, default) or a section.
RUN_SCHEMA = {
    "seed": (int, 0),
    "model": _section(DESK_CONFIG),
    "prune": _section(PruneConfig(p_hidden=0.5, p_intermediate=0.5)),
    "train": {
        "base_lr": (_NUM, 1e-3),
        "warmup_ratio": (_NUM, 0.01),
        "batch_size": (int, 16),
        "max_seq_len": (int, 96),
        "base_steps": (int, 600),
        "overfill_steps": (int, 300),
        "checkpoint_every": (int, 0),
        "kinds": (list, list(TASK_KINDS)),
        "train_per_kind": (int, 2000),
        "eval_per_kind": (int, 100),
    },
    "gen": {
        "max_new_tokens": (int, 32),
        "temperature": (_NUM, 0.0),
    },
    "bench": {
        "prompt_len": (int, 64),
        "gen_lens": (list, [32, 64, 128]),
        "batch": (int, 1),
        "hardware": _section(HardwareSpec()),
        "roofline_full_geometry": ((str, type(None)), None),
        "roofline_pruned_geometry": ((str, type(None)), None),
    },
}


def _validate_section(schema: dict, doc, pointer: str, errors: list) -> dict:
    if not isinstance(doc, dict):
        errors.append(f"{pointer or '/'}: expected an object")
        return {}
    out = {}
    for key, value in doc.items():
        if key not in schema:
            errors.append(f"{pointer}/{key}: unknown key")
    for key, rule in schema.items():
        ptr = f"{pointer}/{key}"
        if isinstance(rule, dict):
            out[key] = _validate_section(rule, doc.get(key, {}), ptr, errors)
            continue
        expected, default = rule
        if key not in doc:
            out[key] = copy.deepcopy(default)
            continue
        value = doc[key]
        types = expected if isinstance(expected, tuple) else (expected,)
        # bool is a subclass of int, but true/false is not a number here.
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            errors.append(f"{ptr}: expected {' or '.join(t.__name__ for t in types)}, "
                          f"got {type(value).__name__}")
            continue
        if isinstance(value, float) and not math.isfinite(value):  # json reads NaN, Infinity
            errors.append(f"{ptr}: expected a finite number, got {value}")
            continue
        out[key] = value
    return out


def _geometry(spec: Optional[str]) -> Optional[ModelConfig]:
    """None, a bundled reference geometry by name, or a model config file."""
    if spec is None:
        return None
    return reference_geometry(spec) if spec in reference_geometries() else load_config(spec)


def _cut(full: ModelConfig, pcfg: PruneConfig) -> ModelConfig:
    """The geometry the prune ratios leave of `full`."""
    d_kept, i_kept = compute_pruned_dims(full.hidden_dim, full.intermediate_dim, pcfg)
    return dataclasses.replace(full, hidden_dim=d_kept, intermediate_dim=i_kept)


def _resolve_roofline_pair(cfg: dict, errors: list) -> None:
    """Check that the prune ratios leave channels of the model section (what
    `prune` cuts), and set bench.roofline_full_geometry and
    roofline_pruned_geometry to the pair `roofline` estimates: the model
    section when no full geometry is given, the full one cut by the prune
    ratios when no pruned one is. The pair must share a cache."""
    b, model, pcfg = cfg["bench"], cfg["model"], cfg["prune"]
    ptr = "/prune"  # what the next failure is reported against
    try:
        _cut(model, pcfg)
        ptr = "/bench/roofline_full_geometry"
        full = b["roofline_full_geometry"] or model
        pruned = b["roofline_pruned_geometry"] or _cut(full, pcfg)
        ptr = "/bench/roofline_pruned_geometry"
        check_handoff(full, pruned)
    except ConfigError as exc:
        errors.append(f"{ptr}: {exc}")
        return
    b["roofline_full_geometry"], b["roofline_pruned_geometry"] = full, pruned


def load_run_config(path: str, seed: Optional[int] = None) -> dict:
    """The run config with defaults filled in; `seed`, when given, replaces
    the file's. Values are range-checked once their types are right, and the
    `model`, `prune`, `gen` and `bench/hardware` sections come back as the
    ModelConfig, PruneConfig, GenParams and HardwareSpec built from them.
    `bench/roofline_full_geometry` and `roofline_pruned_geometry` come back
    as the ModelConfig pair that `roofline` estimates (see
    _resolve_roofline_pair)."""
    errors: list[str] = []
    cfg = _validate_section(RUN_SCHEMA, read_json_object(path, "run config"), "", errors)
    if seed is not None:
        cfg["seed"] = seed
    if not errors:
        if cfg["seed"] < 0:
            errors.append(f"/seed: expected >= 0, got {cfg['seed']}")
        b = cfg["bench"]
        for ptr, parent, key, spec in (("/gen", cfg, "gen", GenParams),
                                       ("/model", cfg, "model", ModelConfig),
                                       ("/prune", cfg, "prune", PruneConfig),
                                       ("/bench/hardware", b, "hardware", HardwareSpec)):
            try:
                parent[key] = spec(**parent[key])
            except ConfigError as exc:
                errors.append(f"{ptr}: {exc}")
        for key in ("roofline_full_geometry", "roofline_pruned_geometry"):
            try:
                b[key] = _geometry(b[key])
            except (ConfigError, DataError) as exc:
                errors.append(f"/bench/{key}: {exc}")
        if not errors:  # every section object and roofline geometry was built
            _resolve_roofline_pair(cfg, errors)
        # The step counts and batch_size are checked by run_training: --steps
        # can replace a step count, and gen-data never reads them.
        t = cfg["train"]
        for key, ok, want in (("base_lr", t["base_lr"] > 0, "> 0"),
                              ("warmup_ratio", 0 <= t["warmup_ratio"] < 1, "in [0, 1)"),
                              ("max_seq_len", t["max_seq_len"] >= 2, ">= 2"),
                              ("checkpoint_every", t["checkpoint_every"] >= 0, ">= 0"),
                              ("train_per_kind", t["train_per_kind"] >= 1, ">= 1"),
                              ("eval_per_kind", t["eval_per_kind"] >= 1, ">= 1")):
            if not ok:
                errors.append(f"/train/{key}: expected {want}, got {t[key]}")
        kinds = t["kinds"]
        if not all(k in TASK_KINDS for k in kinds):
            errors.append(f"/train/kinds: expected names from {list(TASK_KINDS)}, got {kinds}")
        elif not kinds or len(set(kinds)) < len(kinds):
            errors.append(f"/train/kinds: expected a non-empty list without repeats, got {kinds}")
        for key in ("prompt_len", "batch"):
            if b[key] < 1:
                errors.append(f"/bench/{key}: expected >= 1, got {b[key]}")
        lens = b["gen_lens"]
        if not all(type(n) is int and n > 0 for n in lens):
            errors.append(f"/bench/gen_lens: expected positive ints, got {lens}")
        elif not lens:
            errors.append("/bench/gen_lens: expected a non-empty list")
    if errors:
        raise DataError("invalid run config: " + "; ".join(errors))
    return cfg


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise DataError(f"{what} not found: {path} (run the earlier pipeline steps first)")
    return path


def _load_model(run_dir: Path, stem: str):
    ckpt = _require(run_dir / "checkpoints" / f"{stem}.ovfl", f"{stem} checkpoint")
    cfg = load_config(_require(run_dir / "checkpoints" / f"{stem}.config.json",
                               f"{stem} config"))
    return load_checkpoint(ckpt, cfg)


def _save_model(run_dir: Path, stem: str, weights) -> None:
    save_checkpoint(run_dir / "checkpoints" / f"{stem}.ovfl", weights)
    save_config(run_dir / "checkpoints" / f"{stem}.config.json", weights.config)


def _train_examples(cfg: dict, run_dir: Path):
    examples = []
    for kind in cfg["train"]["kinds"]:
        path = _require(run_dir / "data" / f"train_{kind}.jsonl", f"training data for {kind}")
        examples.extend(load_dataset(path))
    if not examples:
        raise DataError("no training examples found")
    order = np.random.default_rng(cfg["seed"]).permutation(len(examples))
    return [examples[i] for i in order]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    seed = cfg["seed"]
    for kind in cfg["train"]["kinds"]:
        train = gen_tasks(kind, seed, cfg["train"]["train_per_kind"])
        evalset = gen_tasks(kind, seed + EVAL_SEED_OFFSET, cfg["train"]["eval_per_kind"])
        save_dataset(run_dir / "data" / f"train_{kind}.jsonl", train, kind, seed)
        save_dataset(run_dir / "data" / f"eval_{kind}.jsonl", evalset, kind,
                     seed + EVAL_SEED_OFFSET)
        print(f"gen-data: {kind}: {len(train)} train, {len(evalset)} eval")
    return 0


def _train(args, cfg: dict, prefill_w, w, tag: str, steps_key: str, data_seed: int) -> int:
    """Train w (behind prefill_w when given) for --steps, else the config's
    `steps_key` count, and save it under `tag`."""
    steps = cfg["train"][steps_key] if args.steps is None else args.steps
    run_dir = Path(args.out)
    t = cfg["train"]
    rows = run_training(
        prefill_w, w, _train_examples(cfg, run_dir), Tokenizer(), steps=steps,
        batch_size=t["batch_size"], max_seq_len=t["max_seq_len"],
        base_lr=t["base_lr"], warmup_ratio=t["warmup_ratio"], data_seed=data_seed,
        checkpoint_every=t["checkpoint_every"] or None,
        checkpoint_fn=lambda s: _save_model(run_dir, f"{tag}_step{s}", w))
    _save_model(run_dir, tag, w)
    write_training_log(run_dir / f"logs_{tag}.csv", rows)
    print(f"{args.subcommand}: {steps} steps, final loss {rows[-1].loss:.4f} "
          f"-> checkpoints/{tag}.ovfl")
    return 0


def cmd_train_base(args, cfg: dict) -> int:
    w = init_model(cfg["model"], cfg["seed"])
    return _train(args, cfg, None, w, "base", "base_steps", cfg["seed"] + 1)


def cmd_prune(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    w = _load_model(run_dir, "base")
    pcfg = cfg["prune"]
    batches = pack_calibration_batches(_train_examples(cfg, run_dir), Tokenizer(),
                                       pcfg.calib_batches, pcfg.calib_rows, pcfg.calib_seq_len)
    provenance = {"calib_seed": cfg["seed"], "calib_batches": pcfg.calib_batches,
                  "calib_rows": pcfg.calib_rows, "calib_seq_len": pcfg.calib_seq_len}
    pruned, pruned_cfg, sel = prune_pipeline(w, batches, pcfg, provenance)
    sel.save(run_dir / "selection.json")
    _save_model(run_dir, "pruned_init", pruned)
    print(f"prune: kept {pruned_cfg.hidden_dim}/{w.config.hidden_dim} hidden, "
          f"{pruned_cfg.intermediate_dim}/{w.config.intermediate_dim} intermediate "
          f"-> checkpoints/pruned_init.ovfl")
    return 0


def cmd_train_pruned(args, cfg: dict) -> int:
    # The pruned baseline: the same step count and batches as train-overfill,
    # so the two decoders differ only in which model prefilled.
    w = _load_model(Path(args.out), "pruned_init")
    return _train(args, cfg, None, w, "pruned", "overfill_steps", cfg["seed"] + 2)


def cmd_train_overfill(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    full_w = _load_model(run_dir, "base")
    pruned_w = _load_model(run_dir, "pruned_init")
    return _train(args, cfg, full_w, pruned_w, "overfill", "overfill_steps", cfg["seed"] + 2)


def _decode_weights_for_mode(run_dir: Path, mode: str):
    """(prefill, decode) weights of a generation mode."""
    if mode == "pruned":
        # The standalone pruned baseline only, never the overfill-trained decoder.
        _require(run_dir / "checkpoints" / "pruned.ovfl",
                 "pruned baseline checkpoint (written by `train-pruned`)")
        w = _load_model(run_dir, "pruned")
        return w, w
    full = _load_model(run_dir, "base")
    return full, _load_model(run_dir, "overfill") if mode == "overfill" else full


def cmd_generate(args, cfg: dict) -> int:
    tok = Tokenizer()
    prefill_w, decode_w = _decode_weights_for_mode(Path(args.out), args.mode)
    ids, m = format_chat(ChatExample(args.system, args.prompt, "", "copy"), tok)
    params = dataclasses.replace(cfg["gen"], seed=cfg["seed"], stop_token=tok.eos)
    out, _ = generate(prefill_w, decode_w, ids[:m], params)
    print(tok.detokenize(out))
    return 0


def cmd_eval(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    tok = Tokenizer()
    prefill_w, decode_w = _decode_weights_for_mode(run_dir, args.mode)
    kinds = [args.kind] if args.kind else cfg["train"]["kinds"]
    results = {}
    for kind in kinds:
        examples = load_dataset(_require(run_dir / "data" / f"eval_{kind}.jsonl",
                                         f"eval data for {kind}"))
        acc = evaluate_exact_match(prefill_w, decode_w, examples, tok, seed=cfg["seed"])
        results[kind] = {"exact_match": acc, "n": len(examples)}
        print(f"eval[{args.mode}] {kind}: exact match {acc * 100:.1f}% ({len(examples)} examples)")
    out = run_dir / f"eval_{args.mode}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_param_count(args, cfg_unused) -> int:
    """Parameter count of a model config file or of a run config's model."""
    doc = read_json_object(args.config, "config")
    model = (ModelConfig.from_dict(doc) if "vocab_size" in doc
             else load_run_config(args.config, args.seed)["model"])
    print(param_count(model))
    return 0


def cmd_roofline(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    b = cfg["bench"]
    reports = []
    for mode in MODES:
        for n in b["gen_lens"]:
            reports.append(roofline_estimate(b["hardware"], b["roofline_full_geometry"],
                                             b["roofline_pruned_geometry"],
                                             b["prompt_len"], n, b["batch"], mode))
    write_cost_csv(run_dir / "roofline.csv", reports)
    print(f"roofline: wrote {len(reports)} rows to roofline.csv")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="overfill",
                     description="Full-model prefill, pruned-model decode.")
    parser.add_argument("--version", action="version", version="%(prog)s 0.1.0")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default="runs/run", help="run directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    for name in COMMANDS:
        p = sub.add_parser(name)
        common(p)
        if name.startswith("train-"):
            p.add_argument("--steps", type=int, default=None)
        elif name == "generate":
            p.add_argument("--mode", choices=MODES, default="overfill")
            p.add_argument("--prompt", required=True)
            p.add_argument("--system", default="")
        elif name == "eval":
            p.add_argument("--mode", choices=MODES, default="overfill")
            p.add_argument("--kind", default=None)
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-base": cmd_train_base,
    "prune": cmd_prune,
    "train-pruned": cmd_train_pruned,
    "train-overfill": cmd_train_overfill,
    "generate": cmd_generate,
    "eval": cmd_eval,
    "param-count": cmd_param_count,
    "roofline": cmd_roofline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.subcommand == "param-count":
            cfg = None
        else:
            cfg = load_run_config(args.config, args.seed)
        return COMMANDS[args.subcommand](args, cfg)
    except (DataError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
