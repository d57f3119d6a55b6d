"""Every library name the benchmark's tracer wraps still resolves.

`bench/spans.py` wraps module attributes by name and reports a missing
one as absent instead of failing; CI's traced smoke step then fails on
any absent name outside a known set. This checks the same thing in
tier-1, so a refactor that drops a traced name fails here first.
"""

import ast
import importlib
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# The names CI's traced smoke step already allows to be absent.
KNOWN_ABSENT = {
    "adrrefine.baskets.normalize_item",
    "adrrefine.events.parse_bnf",
    "adrrefine.events.parse_read",
}


def traced_names() -> list[str]:
    """`module.attribute` of each entry of the literal `SPANS` and
    `COUNTERS` lists, read without running the file."""
    names = []
    for node in ast.parse(SPANS_PATH.read_text(encoding="utf-8")).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTERS"):
            names += [f"{module}.{attr}" for module, attr, *_ in ast.literal_eval(node.value)]
    return names


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) > 20
    absent = set()
    for name in names:
        module, attr = name.rsplit(".", 1)
        if getattr(importlib.import_module(module), attr, None) is None:
            absent.add(name)
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
