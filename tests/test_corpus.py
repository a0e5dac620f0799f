import numpy as np
import pytest

from overfill.corpus import (ChatExample, Tokenizer, TASK_KINDS, format_chat,
                             gen_mixture, gen_tasks, load_dataset,
                             pack_calibration_batches, save_dataset)
from overfill.errors import DataError


def test_tokenizer_roundtrip_random_byte_strings():
    tok = Tokenizer()
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        raw = bytes(rng.integers(0, 256, size=rng.integers(0, 24)).tolist())
        assert tok.detokenize_bytes(tok.tokenize_bytes(raw)) == raw


def test_tokenizer_never_emits_specials_from_text():
    tok = Tokenizer()
    ids = tok.tokenize("hello <sys> \xff café")
    assert all(i < 256 for i in ids)


def test_tokenizer_rejects_text_utf8_cannot_encode():
    with pytest.raises(DataError, match="not valid Unicode"):
        Tokenizer().tokenize("a\udcffb")


def test_detokenize_skips_special_ids():
    tok = Tokenizer()
    assert tok.detokenize([tok.bos, 104, 105, tok.eos, tok.pad]) == "hi"


# ---------------------------------------------------------------------------
# task generation
# ---------------------------------------------------------------------------

def test_gen_tasks_deterministic():
    assert gen_tasks("copy", 7, 2) == gen_tasks("copy", 7, 2)


def test_gen_tasks_prefix_stable():
    assert gen_tasks("kvlookup", 3, 5) == gen_tasks("kvlookup", 3, 9)[:5]


def test_gen_tasks_unknown_kind():
    with pytest.raises(DataError, match="unknown task kind"):
        gen_tasks("riddles", 0, 1)


def test_gen_tasks_positive_count():
    with pytest.raises(DataError):
        gen_tasks("copy", 0, 0)


def test_modadd_answers_verify_by_direct_arithmetic():
    for ex in gen_tasks("modadd", 11, 200):
        lhs, rest = ex.user.split("+")
        rhs = rest.split(" mod ")[0]
        mod = int(rest.split(" mod ")[1].rstrip("?"))
        assert int(ex.assistant) == (int(lhs) + int(rhs)) % mod


def test_kvlookup_answer_matches_queried_pair():
    for ex in gen_tasks("kvlookup", 5, 200):
        pairs_text, query = ex.user.split("; ")
        table = dict(p.split("=") for p in pairs_text.split(" "))
        assert ex.assistant == table[query.rstrip("?")]


def test_copy_and_reverse_construction():
    for ex in gen_tasks("copy", 1, 50):
        assert ex.user == f"Copy: {ex.assistant}"
    for ex in gen_tasks("reverse", 1, 50):
        assert ex.user == f"Reverse: {ex.assistant[::-1]}"


def test_mixture_is_deterministic_and_covers_kinds():
    a = gen_mixture(TASK_KINDS, 0, 10)
    b = gen_mixture(TASK_KINDS, 0, 10)
    assert a == b
    assert {ex.task_kind for ex in a} == set(TASK_KINDS)


# ---------------------------------------------------------------------------
# chat template
# ---------------------------------------------------------------------------

def test_format_chat_prefill_shorter_than_total():
    tok = Tokenizer()
    for kind in TASK_KINDS:
        for ex in gen_tasks(kind, 2, 20):
            ids, m = format_chat(ex, tok)
            assert 0 < m < len(ids)


def test_format_chat_empty_system_still_emits_tags():
    tok = Tokenizer()
    ids, m = format_chat(ChatExample("", "hi", "yo", "copy"), tok)
    text = tok.detokenize(ids[:m])
    assert "<sys>" in text and "<usr>" in text and "<asst>" in text


def test_response_region_detokenizes_to_assistant_exactly():
    tok = Tokenizer()
    for kind in TASK_KINDS:
        for ex in gen_tasks(kind, 9, 25):
            ids, m = format_chat(ex, tok)
            assert ids[-1] == tok.eos
            assert tok.detokenize(ids[m:]) == ex.assistant


def test_response_region_reconstructs_assistant_plus_eos():
    tok = Tokenizer()
    ex = gen_tasks("kvlookup", 0, 1)[0]
    ids, m = format_chat(ex, tok)
    assert ids[m:] == tok.tokenize(ex.assistant) + [tok.eos]


# ---------------------------------------------------------------------------
# dataset files and calibration packing
# ---------------------------------------------------------------------------

def test_dataset_roundtrip(tmp_path):
    examples = gen_tasks("modadd", 4, 25)
    path = tmp_path / "d.jsonl"
    save_dataset(path, examples, "modadd", 4)
    assert load_dataset(path) == examples


def test_dataset_malformed_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"not_a_header": 1}\n')
    with pytest.raises(DataError):
        load_dataset(path)


def test_dataset_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_dataset(tmp_path / "nope.jsonl")


def test_pack_calibration_batches_shape_and_determinism():
    tok = Tokenizer()
    examples = gen_tasks("copy", 0, 8)
    a = pack_calibration_batches(examples, tok, n_batches=3, rows=4, seq_len=32)
    b = pack_calibration_batches(examples, tok, n_batches=3, rows=4, seq_len=32)
    assert len(a) == 3
    for x, y in zip(a, b):
        assert x.shape == (4, 32)
        assert (x == y).all()
    # content is real token ids, no padding filler
    assert all((x >= 0).all() and (x < 260).all() for x in a)
