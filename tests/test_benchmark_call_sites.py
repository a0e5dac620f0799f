"""The traced benchmark run wraps overfill functions by name; every name it
patches must exist, or that run breaks while the rest of the suite passes."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_patched_call_site_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = spans._patch_table()
    assert table
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in table if not hasattr(owner, attr)]
    assert missing == []
