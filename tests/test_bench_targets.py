"""The traced benchmark run wraps functions by (owner, attribute) name; every
one of them must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.SPAN_TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
