"""Single executable driving the pipeline, in order: gen-data -> train-base ->
prune -> train-pruned -> train-overfill -> eval (generate serves one prompt).
Each checkpoint has one producer, and every size and ratio comes from the run
config, which is also the only source of a run's seed and training budgets,
so train-pruned and train-overfill train for the same steps on the same
batches. param-count and roofline give the analytic cost model.

Exit codes: 0 success, 1 usage error, 2 data or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import (load_checkpoint, load_config, read_json_object, save_checkpoint,
                         save_config)
from .corpus import (ChatExample, Tokenizer, format_chat, gen_tasks,
                     load_dataset, pack_calibration_batches, save_dataset)
from .engine import MODES, GenParams, evaluate_exact_match, generate
from .errors import ConfigError, DataError
from .model import DESK_CONFIG, ModelConfig, init_model
from .perfmodel import (BenchConfig, param_count, reference_geometries, reference_geometry,
                        roofline_estimate, write_cost_csv)
from .pruner import PruneConfig, compute_pruned_dims, prune_pipeline
from .trainer import TrainConfig, run_training, write_training_log

EVAL_SEED_OFFSET = 104729  # keeps held-out example streams away from training ones


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Run configuration: a seed and one config object per section. A section is
# its default below with the fields the file sets; each class checks its own
# fields, and every error names its JSON pointer.
# ---------------------------------------------------------------------------

RUN_SECTIONS = {
    "model": DESK_CONFIG,
    "prune": PruneConfig(p_hidden=0.5, p_intermediate=0.5),
    "train": TrainConfig(),
    "gen": GenParams(max_new_tokens=32),
    "bench": BenchConfig(),
}


def section_keys(default) -> list[str]:
    """The keys a run config section may set: every field of its class, but
    for a generation request's seed and stop token, which are the run's seed
    and the tokenizer's EOS."""
    return [f.name for f in dataclasses.fields(default)
            if not (isinstance(default, GenParams) and f.name in ("seed", "stop_token"))]


def _section(default, doc, pointer: str, errors: list):
    """`default` with the fields the JSON object `doc` sets (arrays as
    tuples), or None if that cannot be built. Errors go to `errors`."""
    if not isinstance(doc, dict):
        errors.append(f"{pointer}: expected an object")
        return None
    keys = section_keys(default)
    errors.extend(f"{pointer}/{key}: unknown key" for key in doc if key not in keys)
    values = {}
    for key in [k for k in keys if k in doc]:
        value = doc[key]
        if dataclasses.is_dataclass(getattr(default, key)):  # a nested section
            value = _section(getattr(default, key), value, f"{pointer}/{key}", errors)
            if value is None:
                return None
        values[key] = tuple(value) if isinstance(value, list) else value
    try:
        return dataclasses.replace(default, **values)
    except ConfigError as exc:  # at the pointer of its field, or else of the section
        errors.append(f"{pointer}/{exc}" if exc.field else f"{pointer}: {exc}")
        return None


def _cut(full: ModelConfig, pcfg: PruneConfig) -> ModelConfig:
    """The geometry the prune ratios leave of `full`."""
    d_kept, i_kept = compute_pruned_dims(full.hidden_dim, full.intermediate_dim, pcfg)
    return dataclasses.replace(full, hidden_dim=d_kept, intermediate_dim=i_kept)


def load_run_config(path: str) -> dict:
    """The run config: its `seed` and the object each section of
    RUN_SECTIONS builds. `roofline_full` is the ModelConfig that
    `bench.roofline_full_geometry` names, whose cut `roofline` estimates: the
    model section when the key is unset. What a later step would refuse
    fails here, before gen-data writes a file: the model's vocabulary must
    hold the tokenizer's, the prune ratios must leave channels of both the
    model section and `roofline_full`, and (TrainConfig checks this) a batch
    must fit in the training set that gen-data makes."""
    doc = read_json_object(path, "run config")
    errors = [f"/{key}: unknown key" for key in doc
              if key != "seed" and key not in RUN_SECTIONS]
    cfg = {"seed": doc.get("seed", 0)}
    try:  # the run seed seeds generation, so GenParams checks it
        dataclasses.replace(RUN_SECTIONS["gen"], seed=cfg["seed"])
    except ConfigError as exc:
        errors.append(f"/{exc}")
    for name, default in RUN_SECTIONS.items():
        cfg[name] = _section(default, doc.get(name, {}), f"/{name}", errors)
    if cfg["bench"] is not None:
        spec = cfg["bench"].roofline_full_geometry
        try:  # the model section, a bundled geometry by name, or a model config file
            cfg["roofline_full"] = (
                cfg["model"] if spec is None
                else reference_geometry(spec) if spec in reference_geometries()
                else load_config(spec))
        except (ConfigError, DataError) as exc:
            errors.append(f"/bench/roofline_full_geometry: {exc}")
    if not errors:  # every section object and the roofline geometry was built
        if cfg["model"].vocab_size < Tokenizer.vocab_size:
            errors.append(f"/model/vocab_size: expected >= {Tokenizer.vocab_size} (the "
                          f"tokenizer's), got {cfg['model'].vocab_size}")
        for ptr, model in (("/prune", cfg["model"]),
                           ("/bench/roofline_full_geometry", cfg["roofline_full"])):
            try:
                _cut(model, cfg["prune"])
            except ConfigError as exc:
                errors.append(f"{ptr}: {exc}")
                break
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
    for kind in cfg["train"].kinds:
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
    seed, t = cfg["seed"], cfg["train"]
    for kind in t.kinds:
        train = gen_tasks(kind, seed, t.train_per_kind)
        evalset = gen_tasks(kind, seed + EVAL_SEED_OFFSET, t.eval_per_kind)
        save_dataset(run_dir / "data" / f"train_{kind}.jsonl", train, kind, seed)
        save_dataset(run_dir / "data" / f"eval_{kind}.jsonl", evalset, kind,
                     seed + EVAL_SEED_OFFSET)
        print(f"gen-data: {kind}: {len(train)} train, {len(evalset)} eval")
    return 0


def _train(args, cfg: dict, prefill_w, w, tag: str, steps: int, data_seed: int) -> int:
    """Train w (behind prefill_w when given) for `steps` steps; save it as `tag`."""
    run_dir = Path(args.out)
    rows = run_training(prefill_w, w, _train_examples(cfg, run_dir), Tokenizer(), cfg["train"],
                        steps=steps, data_seed=data_seed)
    _save_model(run_dir, tag, w)
    write_training_log(run_dir / f"logs_{tag}.csv", rows)
    print(f"{args.subcommand}: {steps} steps, final loss {rows[-1].loss:.4f} "
          f"-> checkpoints/{tag}.ovfl")
    return 0


def cmd_train_base(args, cfg: dict) -> int:
    w = init_model(cfg["model"], cfg["seed"])
    return _train(args, cfg, None, w, "base", cfg["train"].base_steps, cfg["seed"] + 1)


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
    return _train(args, cfg, None, w, "pruned", cfg["train"].overfill_steps, cfg["seed"] + 2)


def cmd_train_overfill(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    full_w = _load_model(run_dir, "base")
    pruned_w = _load_model(run_dir, "pruned_init")
    return _train(args, cfg, full_w, pruned_w, "overfill", cfg["train"].overfill_steps,
                  cfg["seed"] + 2)


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
    """Score every kind of train.kinds, or with --kind just that one, whose
    entry then replaces its own in an existing eval_<mode>.json."""
    run_dir = Path(args.out)
    allowed = cfg["train"].kinds
    if args.kind is not None and args.kind not in allowed:
        raise ConfigError(f"--kind {args.kind!r}: expected one of train.kinds {list(allowed)}")
    tok = Tokenizer()
    prefill_w, decode_w = _decode_weights_for_mode(run_dir, args.mode)
    out = run_dir / f"eval_{args.mode}.json"
    results = read_json_object(out, "eval results") if args.kind and out.exists() else {}
    for kind in [args.kind] if args.kind else allowed:
        examples = load_dataset(_require(run_dir / "data" / f"eval_{kind}.jsonl",
                                         f"eval data for {kind}"))
        acc = evaluate_exact_match(prefill_w, decode_w, examples, tok)
        results[kind] = {"exact_match": acc, "n": len(examples)}
        print(f"eval[{args.mode}] {kind}: exact match {acc * 100:.1f}% ({len(examples)} examples)")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_param_count(args, cfg_unused) -> int:
    """Parameter count of a run config's model, or of a model config file. A
    document whose every key is a run-config key (`{}` too) is a run config."""
    is_run = read_json_object(args.config, "config").keys() <= {"seed", *RUN_SECTIONS}
    model = load_run_config(args.config)["model"] if is_run else load_config(args.config)
    print(param_count(model))
    return 0


def cmd_roofline(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    b, full = cfg["bench"], cfg["roofline_full"]
    pruned = _cut(full, cfg["prune"])
    reports = [roofline_estimate(b.hardware, full, pruned, b.prompt_len, n, b.batch, mode)
               for mode in MODES for n in b.gen_lens]
    write_cost_csv(run_dir / "roofline.csv", reports)
    print(f"roofline: wrote {len(reports)} rows to roofline.csv")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="overfill",
                     description="Full-model prefill, pruned-model decode.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config JSON")
        if name != "param-count":  # the one subcommand that writes nothing
            p.add_argument("--out", default="runs/run", help="run directory")
        if name == "generate":
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
        cfg = None if args.subcommand == "param-count" else load_run_config(args.config)
        return COMMANDS[args.subcommand](args, cfg)
    except (DataError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
