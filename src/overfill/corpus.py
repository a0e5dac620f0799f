"""Byte-level tokenizer, chat formatting, and seeded synthetic instruction tasks.

Tasks are deterministic functions of (kind, seed, index) so any slice of a
dataset can be regenerated independently. The kvlookup task is solvable
only by reading the prompt, which makes it sensitive to prefill quality.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

BOS = 256
EOS = 257
ROLE_SEP = 258
PAD = 259
VOCAB_SIZE = 260

SYS_TAG = b"<sys>"
USR_TAG = b"<usr>"
ASST_TAG = b"<asst>"

TASK_KINDS = ("copy", "reverse", "modadd", "kvlookup")

# Difficulty knobs. They aim at tasks the desk-scale full model can learn
# and a heavily width-pruned standalone model cannot; at the default
# training budget every mode still scores 0-1% exact match on every kind.
_COPY_LEN = (6, 10)
_REVERSE_LEN = (4, 7)
_MODADD_MOD = 97
_KV_PAIRS = 4
_KV_KEY_LEN = 2
_KV_VALUE_LEN = 6


class Tokenizer:
    """Bytes 0..255 plus BOS/EOS/ROLE_SEP/PAD specials; lossless on byte strings."""

    vocab_size = VOCAB_SIZE
    bos = BOS
    eos = EOS
    role_sep = ROLE_SEP
    pad = PAD

    def tokenize(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def tokenize_bytes(self, raw: bytes) -> list[int]:
        return list(raw)

    def detokenize_bytes(self, ids: Sequence[int]) -> bytes:
        return bytes(i for i in ids if i < 256)

    def detokenize(self, ids: Sequence[int]) -> str:
        return self.detokenize_bytes(ids).decode("utf-8", errors="replace")


@dataclass(frozen=True)
class ChatExample:
    system: str
    user: str
    assistant: str
    task_kind: str


def _rng_for(kind: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{kind}/{seed}/{index}")


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _make_example(kind: str, seed: int, index: int) -> ChatExample:
    rng = _rng_for(kind, seed, index)
    if kind == "copy":
        s = _word(rng, rng.randint(*_COPY_LEN))
        return ChatExample("echo", f"Copy: {s}", s, kind)
    if kind == "reverse":
        s = _word(rng, rng.randint(*_REVERSE_LEN))
        return ChatExample("flip", f"Reverse: {s}", s[::-1], kind)
    if kind == "modadd":
        a = rng.randrange(_MODADD_MOD)
        b = rng.randrange(_MODADD_MOD)
        return ChatExample("sum", f"{a}+{b} mod {_MODADD_MOD}?",
                           str((a + b) % _MODADD_MOD), kind)
    if kind == "kvlookup":
        keys = []
        while len(keys) < _KV_PAIRS:
            k = _word(rng, _KV_KEY_LEN)
            if k not in keys:
                keys.append(k)
        values = [_word(rng, _KV_VALUE_LEN) for _ in keys]
        query = rng.randrange(_KV_PAIRS)
        pairs = " ".join(f"{k}={v}" for k, v in zip(keys, values))
        return ChatExample("get", f"{pairs}; {keys[query]}?", values[query], kind)
    raise DataError(f"unknown task kind {kind!r}, expected one of {TASK_KINDS}")


def gen_tasks(kind: str, seed: int, n: int) -> list[ChatExample]:
    if n <= 0:
        raise DataError(f"task count must be positive, got {n}")
    return [_make_example(kind, seed, i) for i in range(n)]


def gen_mixture(kinds: Sequence[str], seed: int, n_per_kind: int) -> list[ChatExample]:
    """All kinds, deterministically shuffled together."""
    examples = []
    for kind in kinds:
        examples.extend(gen_tasks(kind, seed, n_per_kind))
    order = np.random.default_rng(seed).permutation(len(examples))
    return [examples[i] for i in order]


def format_chat(ex: ChatExample, tok: Tokenizer) -> tuple[list[int], int]:
    """Render one example through the fixed chat template.

    Returns (token_ids, prefill_len): ids[:prefill_len] is the prompt region
    ending with the assistant tag, ids[prefill_len:] is the assistant text
    followed by EOS.
    """
    ids = [BOS]
    ids += tok.tokenize_bytes(SYS_TAG) + tok.tokenize(ex.system) + [ROLE_SEP]
    ids += tok.tokenize_bytes(USR_TAG) + tok.tokenize(ex.user) + [ROLE_SEP]
    ids += tok.tokenize_bytes(ASST_TAG)
    prefill_len = len(ids)
    ids += tok.tokenize(ex.assistant) + [EOS]
    return ids, prefill_len


def pack_calibration_batches(examples: Iterable[ChatExample], tok: Tokenizer,
                             n_batches: int, rows: int, seq_len: int) -> list[np.ndarray]:
    """Pack formatted examples into dense [rows, seq_len] token batches.

    Examples are concatenated into one stream (cycled if too short) so no
    padding tokens pollute the activation statistics.
    """
    stream: list[int] = []
    need = n_batches * rows * seq_len
    pool = list(examples)
    if not pool:
        raise DataError("calibration needs at least one example")
    i = 0
    while len(stream) < need:
        stream.extend(format_chat(pool[i % len(pool)], tok)[0])
        i += 1
    arr = np.asarray(stream[:need], dtype=np.int64).reshape(n_batches, rows, seq_len)
    return [arr[b] for b in range(n_batches)]


def save_dataset(path, examples: Sequence[ChatExample], kind: str, seed: int) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"kind": kind, "seed": seed, "count": len(examples)}) + "\n")
        for ex in examples:
            f.write(json.dumps(asdict(ex)) + "\n")


def load_dataset(path) -> list[ChatExample]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset not found: {path}")
    examples = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            header = f.readline()
            meta = json.loads(header)
            if not isinstance(meta, dict) or not {"kind", "seed", "count"} <= set(meta):
                raise DataError(f"{path}: malformed dataset header: {header.strip()}")
            if type(meta["count"]) is not int:  # bool is an int subclass, not a count
                raise DataError(f"{path}: malformed dataset header: count must be an int, "
                                f"got {meta['count']!r}")
            for line in f:
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise DataError(f"{path}: malformed dataset line: expected an object")
                values = [d[fld.name] for fld in fields(ChatExample)]  # asdict's order
                if not all(isinstance(v, str) for v in values):
                    raise DataError(f"{path}: malformed dataset line: expected string fields")
                examples.append(ChatExample(*values))
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError) as exc:
            raise DataError(f"{path}: malformed dataset line: {exc}") from exc
    if len(examples) != meta["count"]:
        raise DataError(f"{path}: header count {meta['count']} != {len(examples)} rows")
    return examples
