"""The benchmark imports overfill names and its traced run wraps overfill
functions by name; every such name must exist, or the benchmark breaks while
the rest of the suite passes."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import overfill.engine as en
import overfill.pruner as pr
import overfill.trainer as tr
from overfill.model import init_model

from helpers import TINY_CONFIG

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_patched_call_site_exists():
    table = _load_spans()._patch_table()
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in table if not hasattr(owner, attr)]
    assert missing == []


def _overfill_names(tree):
    """(module, name) for every `from overfill... import name` and every
    `alias.name` read through an `import overfill... as alias` (or a plain
    `import overfill`) in a parsed file."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "overfill":
            yield from ((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.asname and a.name.startswith("overfill.")
                            or a.name == "overfill"})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


def test_every_overfill_name_the_benchmark_reads_exists():
    checked, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, name in _overfill_names(ast.parse(path.read_text(), str(path))):
            checked.add(f"{module}.{name}")
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert {"overfill.pruner.prune_pipeline", "overfill.pruner.collect_activations",
            "overfill.engine.overfill_generate"} <= checked
    assert missing == []


def test_traced_calls_complete_and_record_their_spans():
    # Calls go through the module attributes, as the benchmark makes them,
    # so the wrappers the tracer installs are the ones that run.
    full = init_model(TINY_CONFIG, seed=0).freeze()
    decoder = init_model(TINY_CONFIG, seed=1).set_requires_grad(True)
    rng = np.random.default_rng(0)
    calib = rng.integers(0, TINY_CONFIG.vocab_size, size=(2, 6))
    token_ids = rng.integers(0, TINY_CONFIG.vocab_size, size=(2, 8))
    batch = tr.TrainBatch(token_ids=token_ids, prefill_lens=np.array([3, 4]),
                          row_lengths=np.array([8, 7]), loss_mask=np.ones((2, 8), bool),
                          targets=np.roll(token_ids, -1, axis=1))
    opt = tr.OptState.for_weights(decoder, 1e-3, 0.0, 10)
    tracer = _load_spans().Tracer()
    with tracer.active("check"):
        out = en.overfill_generate(full, decoder, [1, 2, 3, 4], en.GenParams(max_new_tokens=3))
        scores = pr.score_channels(pr.collect_activations(full, [calib]))
        _, _, loss = tr.train_step(full, decoder, batch, opt)
    assert len(out) == 3
    assert scores.hidden_scores.shape == (TINY_CONFIG.hidden_dim,)
    assert np.isfinite(loss)
    recorded = {span[0] for span in tracer.spans}
    expected = {"model.forward_prefill", "model.decode_step", "engine.sample",
                "pruner.collect_activations", "pruner.score_channels", "trainer.forward",
                "model.run_block"}
    assert expected - recorded == set()
