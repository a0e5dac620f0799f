"""Single executable driving the pipeline: data generation, base training,
calibration, pruning, two-model training, generation, evaluation, and
benchmarking.

Exit codes: 0 success, 1 usage error, 2 data or format error. Kernel
parallelism is capped via OVERFILL_THREADS (default 1, for bit-identical
reruns); heavy imports happen after that cap is applied, so this module
must import only the standard library at the top level.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SUBCOMMANDS = ("gen-data", "train-base", "calibrate", "prune", "train-overfill",
               "generate", "eval", "param-count", "bench", "roofline")

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

RUN_SCHEMA = {
    "seed": (int, 0),
    "model": {
        "vocab_size": (int, 260),
        "hidden_dim": (int, 64),
        "n_layers": (int, 4),
        "n_heads": (int, 4),
        "n_kv_heads": (int, 2),
        "head_dim": (int, 16),
        "intermediate_dim": (int, 256),
        "norm_eps": (_NUM, 1e-5),
        "rope_theta": (_NUM, 10000.0),
        "tied_embeddings": (bool, True),
    },
    "prune": {
        "p_hidden": (_NUM, 0.5),
        "p_intermediate": (_NUM, 0.5),
        "calib_batches": (int, 8),
        "calib_rows": (int, 16),
        "calib_seq_len": (int, 128),
        "hardware_round_to": ((int, type(None)), None),
    },
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
        "hardware": {
            "peak_flops": (_NUM, 312e12),
            "mem_bandwidth": (_NUM, 2.039e12),
            "bytes_per_param": (int, 4),
        },
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
        if isinstance(value, bool) and expected is not bool and bool not in (
                expected if isinstance(expected, tuple) else (expected,)):
            errors.append(f"{ptr}: expected {_type_name(expected)}, got bool")
            continue
        if not isinstance(value, expected):
            errors.append(f"{ptr}: expected {_type_name(expected)}, "
                          f"got {type(value).__name__}")
            continue
        out[key] = value
    return out


def _type_name(expected) -> str:
    if isinstance(expected, tuple):
        return " or ".join(t.__name__ for t in expected)
    return expected.__name__


def load_run_config(path: str) -> dict:
    from .errors import DataError

    p = Path(path)
    if not p.is_file():
        raise DataError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{p}: not valid JSON: {exc}") from exc
    errors: list[str] = []
    cfg = _validate_section(RUN_SCHEMA, doc, "", errors)
    if errors:
        raise DataError("invalid run config: " + "; ".join(errors))
    return cfg


def _model_config(cfg: dict):
    from .model import ModelConfig

    return ModelConfig.from_dict(cfg["model"])


def _prune_config(cfg: dict):
    from .pruner import PruneConfig

    p = cfg["prune"]
    return PruneConfig(p_hidden=p["p_hidden"], p_intermediate=p["p_intermediate"],
                       calib_batches=p["calib_batches"], calib_rows=p["calib_rows"],
                       calib_seq_len=p["calib_seq_len"],
                       hardware_round_to=p["hardware_round_to"]).validate()


def _run_dir(args) -> Path:
    return Path(args.out)


def _require(path: Path, what: str) -> Path:
    from .errors import DataError

    if not path.exists():
        raise DataError(f"{what} not found: {path} (run the earlier pipeline steps first)")
    return path


def _load_model(run_dir: Path, stem: str):
    from .checkpoint import load_checkpoint, load_config

    ckpt = _require(run_dir / "checkpoints" / f"{stem}.ovfl", f"{stem} checkpoint")
    cfg = load_config(_require(run_dir / "checkpoints" / f"{stem}.config.json",
                               f"{stem} config"))
    return load_checkpoint(ckpt, cfg)


def _save_model(run_dir: Path, stem: str, weights) -> None:
    from .checkpoint import save_checkpoint, save_config

    save_checkpoint(run_dir / "checkpoints" / f"{stem}.ovfl", weights)
    save_config(run_dir / "checkpoints" / f"{stem}.config.json", weights.config)


def _train_examples(cfg: dict, run_dir: Path):
    from . import corpus
    from .errors import DataError

    examples = []
    for kind in cfg["train"]["kinds"]:
        path = _require(run_dir / "data" / f"train_{kind}.jsonl", f"training data for {kind}")
        examples.extend(corpus.load_dataset(path))
    if not examples:
        raise DataError("no training examples found")
    import numpy as np

    order = np.random.default_rng(cfg["seed"]).permutation(len(examples))
    return [examples[i] for i in order]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args, cfg: dict) -> int:
    from . import corpus

    run_dir = _run_dir(args)
    seed = cfg["seed"]
    for kind in cfg["train"]["kinds"]:
        train = corpus.gen_tasks(kind, seed, cfg["train"]["train_per_kind"])
        evalset = corpus.gen_tasks(kind, seed + EVAL_SEED_OFFSET,
                                   cfg["train"]["eval_per_kind"])
        corpus.save_dataset(run_dir / "data" / f"train_{kind}.jsonl", train, kind, seed)
        corpus.save_dataset(run_dir / "data" / f"eval_{kind}.jsonl", evalset, kind,
                            seed + EVAL_SEED_OFFSET)
        print(f"gen-data: {kind}: {len(train)} train, {len(evalset)} eval")
    return 0


def cmd_train_base(args, cfg: dict) -> int:
    from .checkpoint import load_checkpoint, load_config
    from .corpus import Tokenizer
    from .model import init_model
    from .trainer import run_standalone_training, write_training_log

    run_dir = _run_dir(args)
    tag = args.tag
    if args.init_checkpoint:
        mcfg = load_config(_require(Path(args.init_config), "init model config"))
        w = load_checkpoint(_require(Path(args.init_checkpoint), "init checkpoint"), mcfg)
    else:
        w = init_model(_model_config(cfg), cfg["seed"])
    steps = args.steps or cfg["train"]["base_steps"]
    examples = _train_examples(cfg, run_dir)
    rows = run_standalone_training(
        w, examples, Tokenizer(), steps=steps,
        batch_size=cfg["train"]["batch_size"], max_seq_len=cfg["train"]["max_seq_len"],
        base_lr=cfg["train"]["base_lr"], warmup_ratio=cfg["train"]["warmup_ratio"],
        data_seed=cfg["seed"] + 1,
        checkpoint_every=cfg["train"]["checkpoint_every"] or None,
        checkpoint_fn=lambda s: _save_model(run_dir, f"{tag}_step{s}", w))
    _save_model(run_dir, tag, w)
    write_training_log(run_dir / f"logs_{tag}.csv", rows)
    print(f"train-base: {steps} steps, final loss {rows[-1].loss:.4f} -> checkpoints/{tag}.ovfl")
    return 0


def cmd_calibrate(args, cfg: dict) -> int:
    from .corpus import Tokenizer, pack_calibration_batches
    from .pruner import collect_activations, score_channels

    run_dir = _run_dir(args)
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
    import numpy as np

    from .errors import DataError
    from .pruner import (ChannelSelection, ImportanceScores, compute_pruned_dims,
                         select_channels, slice_model)

    run_dir = _run_dir(args)
    w = _load_model(run_dir, "base")
    pcfg = _prune_config(cfg)
    if args.p_hidden is not None or args.p_inter is not None:
        import dataclasses

        pcfg = dataclasses.replace(
            pcfg,
            p_hidden=pcfg.p_hidden if args.p_hidden is None else args.p_hidden,
            p_intermediate=pcfg.p_intermediate if args.p_inter is None else args.p_inter,
        ).validate()
    calib_path = _require(run_dir / "calibration.json", "calibration scores")
    try:
        doc = json.loads(calib_path.read_text())
        scores = ImportanceScores(
            hidden_scores=np.asarray(doc["hidden_scores"], dtype=np.float64),
            inter_scores=[np.asarray(s, dtype=np.float64) for s in doc["inter_scores"]])
        provenance = doc.get("provenance", {})
    except (json.JSONDecodeError, KeyError) as exc:
        raise DataError(f"{calib_path}: malformed calibration file: {exc}") from exc

    d_kept, i_kept = compute_pruned_dims(w.config.hidden_dim,
                                         w.config.intermediate_dim, pcfg)
    sel = select_channels(scores, d_kept, i_kept)
    sel.provenance = dict(provenance)
    sel.provenance.update({"p_hidden": pcfg.p_hidden,
                           "p_intermediate": pcfg.p_intermediate})
    pruned, pruned_cfg = slice_model(w, sel, w.config)
    sel.save(run_dir / "selection.json")
    _save_model(run_dir, "pruned_init", pruned)
    print(f"prune: kept {d_kept}/{w.config.hidden_dim} hidden, "
          f"{i_kept}/{w.config.intermediate_dim} intermediate -> checkpoints/pruned_init.ovfl")
    return 0


def cmd_train_overfill(args, cfg: dict) -> int:
    from .corpus import Tokenizer
    from .trainer import run_overfill_training, write_training_log

    run_dir = _run_dir(args)
    full_w = _load_model(run_dir, "base").freeze()
    pruned_w = _load_model(run_dir, "pruned_init")
    steps = args.steps or cfg["train"]["overfill_steps"]
    examples = _train_examples(cfg, run_dir)
    rows = run_overfill_training(
        full_w, pruned_w, examples, Tokenizer(), steps=steps,
        batch_size=cfg["train"]["batch_size"], max_seq_len=cfg["train"]["max_seq_len"],
        base_lr=cfg["train"]["base_lr"], warmup_ratio=cfg["train"]["warmup_ratio"],
        data_seed=cfg["seed"] + 2,
        checkpoint_every=cfg["train"]["checkpoint_every"] or None,
        checkpoint_fn=lambda s: _save_model(run_dir, f"overfill_step{s}", pruned_w))
    _save_model(run_dir, "overfill", pruned_w)
    write_training_log(run_dir / f"logs_overfill.csv", rows)
    print(f"train-overfill: {steps} steps, final loss {rows[-1].loss:.4f} "
          f"-> checkpoints/overfill.ovfl")
    return 0


def _decode_weights_for_mode(run_dir: Path, mode: str):
    from .errors import DataError

    if mode == "full":
        w = _load_model(run_dir, "base")
        return w, None
    if mode == "pruned":
        # The standalone pruned baseline only, never the overfill-trained decoder.
        _require(run_dir / "checkpoints" / "pruned.ovfl",
                 "pruned baseline checkpoint (written by `train-base --tag pruned`)")
        return _load_model(run_dir, "pruned"), None
    if mode == "overfill":
        return _load_model(run_dir, "base"), _load_model(run_dir, "overfill")
    raise DataError(f"unknown mode {mode!r}")


def cmd_generate(args, cfg: dict) -> int:
    from .corpus import ChatExample, Tokenizer, format_chat
    from .engine import GenParams, generate_session

    run_dir = _run_dir(args)
    tok = Tokenizer()
    weights, decode_weights = _decode_weights_for_mode(run_dir, args.mode)
    ids, m = format_chat(ChatExample(args.system, args.prompt, "", "copy"), tok)
    params = GenParams(max_new_tokens=cfg["gen"]["max_new_tokens"],
                       temperature=cfg["gen"]["temperature"],
                       seed=cfg["seed"], stop_token=tok.eos)
    session = generate_session(weights, decode_weights, ids[:m], params, mode=args.mode)
    print(tok.detokenize(session.emitted))
    return 0


def cmd_eval(args, cfg: dict) -> int:
    from .corpus import Tokenizer, load_dataset
    from .engine import evaluate_exact_match

    run_dir = _run_dir(args)
    tok = Tokenizer()
    weights, decode_weights = _decode_weights_for_mode(run_dir, args.mode)
    kinds = [args.kind] if args.kind else cfg["train"]["kinds"]
    results = {}
    for kind in kinds:
        examples = load_dataset(_require(run_dir / "data" / f"eval_{kind}.jsonl",
                                         f"eval data for {kind}"))
        acc = evaluate_exact_match(weights, decode_weights, examples, tok,
                                   mode=args.mode, seed=cfg["seed"])
        results[kind] = {"exact_match": acc, "n": len(examples)}
        print(f"eval[{args.mode}] {kind}: exact match {acc * 100:.1f}% ({len(examples)} examples)")
    out = run_dir / f"eval_{args.mode}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_param_count(args, cfg_unused) -> int:
    from .errors import DataError
    from .model import ModelConfig
    from .perfmodel import param_count

    try:
        doc = json.loads(Path(args.config).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"config file not found: {args.config}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.config}: not valid JSON: {exc}") from exc
    if "model" in doc and "vocab_size" not in doc:
        mcfg = ModelConfig.from_dict(load_run_config(args.config)["model"])
    else:
        mcfg = ModelConfig.from_dict(doc)
    print(param_count(mcfg))
    return 0


def cmd_bench(args, cfg: dict) -> int:
    from .model import init_model
    from .perfmodel import bench_wallclock, write_cost_csv
    from .pruner import compute_pruned_dims, identity_selection, select_channels, slice_model
    import numpy as np

    run_dir = _run_dir(args)
    b = cfg["bench"]
    full_w = init_model(_model_config(cfg), cfg["seed"])
    pcfg = _prune_config(cfg)
    d_kept, i_kept = compute_pruned_dims(full_w.config.hidden_dim,
                                         full_w.config.intermediate_dim, pcfg)
    sel = identity_selection(full_w.config)
    sel.hidden_idx = sel.hidden_idx[:d_kept]
    sel.inter_idx = [idx[:i_kept] for idx in sel.inter_idx]
    pruned_w, _ = slice_model(full_w, sel, full_w.config)

    reports = []
    for mode in ("full", "pruned", "overfill"):
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
    from .model import ModelConfig
    from .perfmodel import (HardwareSpec, REFERENCE_GEOMETRIES, reference_geometry,
                            roofline_estimate, write_cost_csv)
    from .pruner import compute_pruned_dims
    import dataclasses

    run_dir = _run_dir(args)
    b = cfg["bench"]
    hw = HardwareSpec(**b["hardware"]).validate()

    def geometry(spec_value, fallback):
        if spec_value is None:
            return fallback()
        if spec_value in REFERENCE_GEOMETRIES:
            return reference_geometry(spec_value)
        from .checkpoint import load_config

        return load_config(spec_value)

    def run_model():
        return _model_config(cfg)

    def pruned_model():
        full = geometry(b["roofline_full_geometry"], run_model)
        d_kept, i_kept = compute_pruned_dims(full.hidden_dim, full.intermediate_dim,
                                             _prune_config(cfg))
        return dataclasses.replace(full, hidden_dim=d_kept, intermediate_dim=i_kept)

    full_cfg = geometry(b["roofline_full_geometry"], run_model)
    pruned_cfg = geometry(b["roofline_pruned_geometry"], pruned_model)
    reports = []
    for mode in ("full", "pruned", "overfill"):
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

    for name in SUBCOMMANDS:
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
            p.add_argument("--mode", choices=("full", "pruned", "overfill"),
                           default="overfill")
            p.add_argument("--prompt", required=True)
            p.add_argument("--system", default="")
        elif name == "eval":
            p.add_argument("--mode", choices=("full", "pruned", "overfill"),
                           default="overfill")
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
    threads = os.environ.get("OVERFILL_THREADS", "1")
    for var in _THREAD_ENV_VARS:
        os.environ.setdefault(var, threads)

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "train-base" and bool(args.init_checkpoint) != bool(args.init_config):
            raise UsageError("--init-checkpoint and --init-config must be given together")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    from .errors import ConfigError, DataError

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
