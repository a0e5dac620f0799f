"""Single executable driving the pipeline: data generation, base training,
calibration, pruning, two-model training, generation, evaluation, and
benchmarking.

Exit codes: 0 success, 1 usage error, 2 data or format error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (load_checkpoint, load_config, read_json_object, save_checkpoint,
                         save_config)
from .corpus import (ChatExample, Tokenizer, format_chat, gen_tasks, load_dataset,
                     pack_calibration_batches, save_dataset)
from .engine import MODES, GenParams, evaluate_exact_match, generate
from .errors import ConfigError, DataError
from .model import DESK_CONFIG, ModelConfig, init_model
from .perfmodel import (REFERENCE_GEOMETRIES, HardwareSpec, bench_wallclock, param_count,
                        reference_geometry, roofline_estimate, write_cost_csv)
from .pruner import (ImportanceScores, PruneConfig, collect_activations, compute_pruned_dims,
                     score_channels, select_and_slice)
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
        "kinds": (list, ["copy", "reverse", "modadd", "kvlookup"]),
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
        "repeats": (int, 5),
        "warmups": (int, 2),
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
        out[key] = value
    return out


def load_run_config(path: str) -> dict:
    errors: list[str] = []
    cfg = _validate_section(RUN_SCHEMA, read_json_object(path, "run config"), "", errors)
    if errors:
        raise DataError("invalid run config: " + "; ".join(errors))
    return cfg


def _model_config(cfg: dict):
    return ModelConfig.from_dict(cfg["model"])


def _prune_config(cfg: dict):
    return PruneConfig(**cfg["prune"]).validate()


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
    if args.init_checkpoint:
        mcfg = load_config(_require(Path(args.init_config), "init model config"))
        w = load_checkpoint(_require(Path(args.init_checkpoint), "init checkpoint"), mcfg)
    else:
        w = init_model(_model_config(cfg), cfg["seed"])
    return _train(args, cfg, None, w, args.tag, "base_steps", cfg["seed"] + 1)


def cmd_calibrate(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    w = _load_model(run_dir, "base")
    pcfg = _prune_config(cfg)
    examples = _train_examples(cfg, run_dir)
    batches = pack_calibration_batches(examples, Tokenizer(), pcfg.calib_batches,
                                       pcfg.calib_rows, pcfg.calib_seq_len)
    scores = score_channels(collect_activations(w, batches))
    doc = {
        "hidden_scores": [float(x) for x in scores.hidden_scores],
        "inter_scores": [[float(x) for x in s] for s in scores.inter_scores],
        "provenance": {"calib_seed": cfg["seed"],
                       "calib_batches": pcfg.calib_batches,
                       "calib_rows": pcfg.calib_rows,
                       "calib_seq_len": pcfg.calib_seq_len},
    }
    out = run_dir / "calibration.json"
    out.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"calibrate: scored {len(doc['hidden_scores'])} hidden channels -> {out.name}")
    return 0


def cmd_prune(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    w = _load_model(run_dir, "base")
    if args.p_hidden is not None:
        cfg["prune"]["p_hidden"] = args.p_hidden
    if args.p_inter is not None:
        cfg["prune"]["p_intermediate"] = args.p_inter
    pcfg = _prune_config(cfg)
    calib_path = _require(run_dir / "calibration.json", "calibration scores")
    doc = read_json_object(calib_path, "calibration file")
    try:
        scores = ImportanceScores(
            hidden_scores=np.asarray(doc["hidden_scores"], dtype=np.float64),
            inter_scores=[np.asarray(s, dtype=np.float64) for s in doc["inter_scores"]])
        provenance = doc.get("provenance", {})
    except KeyError as exc:
        raise DataError(f"{calib_path}: malformed calibration file: {exc}") from exc

    pruned, pruned_cfg, sel = select_and_slice(w, scores, pcfg, provenance)
    sel.save(run_dir / "selection.json")
    _save_model(run_dir, "pruned_init", pruned)
    print(f"prune: kept {pruned_cfg.hidden_dim}/{w.config.hidden_dim} hidden, "
          f"{pruned_cfg.intermediate_dim}/{w.config.intermediate_dim} intermediate "
          f"-> checkpoints/pruned_init.ovfl")
    return 0


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
                 "pruned baseline checkpoint (written by `train-base --tag pruned`)")
        w = _load_model(run_dir, "pruned")
        return w, w
    full = _load_model(run_dir, "base")
    return full, _load_model(run_dir, "overfill") if mode == "overfill" else full


def cmd_generate(args, cfg: dict) -> int:
    tok = Tokenizer()
    prefill_w, decode_w = _decode_weights_for_mode(Path(args.out), args.mode)
    ids, m = format_chat(ChatExample(args.system, args.prompt, "", "copy"), tok)
    params = GenParams(max_new_tokens=cfg["gen"]["max_new_tokens"],
                       temperature=cfg["gen"]["temperature"],
                       seed=cfg["seed"], stop_token=tok.eos)
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
    if "model" in doc and "vocab_size" not in doc:
        doc = load_run_config(args.config)["model"]
    print(param_count(ModelConfig.from_dict(doc)))
    return 0


def cmd_bench(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    b = cfg["bench"]
    full_w = init_model(_model_config(cfg), cfg["seed"])
    # Equal scores select the lowest channel indices: a prefix slice.
    mcfg = full_w.config
    flat = ImportanceScores(np.zeros(mcfg.hidden_dim),
                            [np.zeros(mcfg.intermediate_dim)] * mcfg.n_layers)
    pruned_w, _, _ = select_and_slice(full_w, flat, _prune_config(cfg))

    reports = []
    for mode in MODES:
        for n in b["gen_lens"]:
            reports.append(bench_wallclock(full_w, pruned_w, b["prompt_len"], n,
                                           b["batch"], mode, repeats=b["repeats"],
                                           warmups=b["warmups"], seed=cfg["seed"]))
            r = reports[-1]
            print(f"bench {mode}: M={r.prompt_len} N={r.gen_len} "
                  f"prefill {r.prefill_s * 1e3:.1f}ms decode {r.decode_s * 1e3:.1f}ms")
    write_cost_csv(run_dir / "bench.csv", reports)
    return 0


def cmd_roofline(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    b = cfg["bench"]
    hw = HardwareSpec(**b["hardware"]).validate()

    def geometry(spec):
        """None, a bundled reference geometry by name, or a model config file."""
        if spec is None:
            return None
        return reference_geometry(spec) if spec in REFERENCE_GEOMETRIES else load_config(spec)

    full_cfg = geometry(b["roofline_full_geometry"]) or _model_config(cfg)
    pruned_cfg = geometry(b["roofline_pruned_geometry"])
    if pruned_cfg is None:
        d_kept, i_kept = compute_pruned_dims(full_cfg.hidden_dim, full_cfg.intermediate_dim,
                                             _prune_config(cfg))
        pruned_cfg = dataclasses.replace(full_cfg, hidden_dim=d_kept, intermediate_dim=i_kept)
    reports = []
    for mode in MODES:
        for n in b["gen_lens"]:
            reports.append(roofline_estimate(hw, full_cfg, pruned_cfg,
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
        if name == "train-base":
            p.add_argument("--steps", type=int, default=None)
            p.add_argument("--tag", default="base", help="output checkpoint stem")
            p.add_argument("--init-checkpoint", default=None)
            p.add_argument("--init-config", default=None)
        elif name == "train-overfill":
            p.add_argument("--steps", type=int, default=None)
        elif name == "prune":
            p.add_argument("--p-hidden", type=float, default=None, dest="p_hidden")
            p.add_argument("--p-inter", type=float, default=None, dest="p_inter")
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
    "calibrate": cmd_calibrate,
    "prune": cmd_prune,
    "train-overfill": cmd_train_overfill,
    "generate": cmd_generate,
    "eval": cmd_eval,
    "param-count": cmd_param_count,
    "bench": cmd_bench,
    "roofline": cmd_roofline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "train-base" and bool(args.init_checkpoint) != bool(args.init_config):
            raise UsageError("--init-checkpoint and --init-config must be given together")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.subcommand == "param-count":
            cfg = None
        else:
            cfg = load_run_config(args.config)
            if args.seed is not None:
                cfg["seed"] = args.seed
        return COMMANDS[args.subcommand](args, cfg)
    except (DataError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
