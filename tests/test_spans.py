"""The traced benchmark finds every layer it wraps under its current name.

`perfbench/spans.py` wraps bglab's functions by attribute name, so a
refactor that moves or renames one would otherwise fail only in a traced
benchmark run. The module is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_is_bound_by_name():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.layer_targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
