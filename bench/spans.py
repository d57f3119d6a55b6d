"""Spans and counters recorded around the library from outside it.

The benchmark never edits the library. `Tracer.install` replaces module
attributes with wrappers and `Tracer.uninstall` puts the originals back.
Each attribute is the name through which one layer calls another (for
example `refine.find_instances`, the name `refine` resolves when it calls
into `signals`), so calls between layers are seen as well as the
benchmark's own calls.

Spans record name, start, end, parent and signal id and are held in
memory until the run writes them out. Hot leaf functions get a call
counter instead of a span, and optionally their summed time. Every
wrapped call runs on the thread that called the pipeline (the miner's
worker threads call nothing wrapped, and `refine` runs with its default
single worker), so one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

# (module, attribute, span name). Two attributes may share a span name.
SPANS = [
    ("adrrefine.events", "load", "events.load"),
    ("adrrefine.events", "apply_prescription_exclusions", "events.exclusions"),
    ("adrrefine.baskets", "eligible_patients", "events.eligible"),
    ("adrrefine.baskets", "build_database", "baskets.build"),
    ("adrrefine.baskets", "BasketDatabase", "baskets.index"),
    ("adrrefine.mining", "mine_rules", "mining.mine"),
    ("adrrefine.mining", "mine_all_rules", "mining.mine"),
    ("adrrefine.mining", "frequent_antecedents", "mining.frequent"),
    ("adrrefine.mining", "write_rules_csv", "mining.rules_write"),
    ("adrrefine.mining", "read_rules_csv", "mining.rules_read"),
    ("adrrefine.refine", "refine", "refine.refine"),
    ("adrrefine.refine", "exposure_count", "signals.exposure"),
    ("adrrefine.refine", "find_instances", "signals.instances"),
    ("adrrefine.refine", "ab_ratio", "signals.ab_ratio"),
    ("adrrefine.refine", "assess_instance", "refine.assess"),
    ("adrrefine.refine", "write_report_json", "refine.report_write"),
    ("adrrefine.refine", "write_report_csv", "refine.report_write"),
]

# (module, attribute, counter name, also sum the call's seconds). Code
# parsing is counted at every module that imports the parsers.
COUNTERS = [
    ("adrrefine.events", "parse_read", "codes.parse_calls", False),
    ("adrrefine.events", "parse_bnf", "codes.parse_calls", False),
    ("adrrefine.signals", "parse_read", "codes.parse_calls", False),
    ("adrrefine.signals", "parse_bnf", "codes.parse_calls", False),
    ("adrrefine.baskets", "normalize_item", "codes.parse_calls", False),
    ("adrrefine.mining", "parse_item", "codes.parse_calls", False),
    ("adrrefine.refine", "pre_outcome_basket", "baskets.pre_outcome", True),
]

# Spans that also record resident-memory growth across the call.
RSS_SPANS = {"mining.mine"}
# The span whose result (antecedent id-tuple -> count) gives the per-level
# antecedent counts.
LEVELS_SPAN = "mining.frequent"

_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    signal: int | None
    rss_growth: int | None = None


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.levels: Counter[int] = Counter()
        self.absent: list[str] = []
        self.signal: int | None = None
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            self._wrap(module_name, attr, lambda fn, name=name: self._span_wrapper(fn, name))
        for module_name, attr, name, timed in COUNTERS:
            self._wrap(
                module_name, attr, lambda fn, name=name, timed=timed: self._count_wrapper(fn, name, timed)
            )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            # A later refactor may remove the name; report it, do not fail.
            self.absent.append(f"{module_name}.{attr}")
            return
        self._originals.append((module, attr, original))
        setattr(module, attr, functools.wraps(original, updated=())(make(original)))

    def _span_wrapper(self, fn, name: str):
        stack, spans = self._stack, self.spans
        track_rss = name in RSS_SPANS
        track_levels = name == LEVELS_SPAN

        def wrapper(*args, **kwargs):
            parent = stack[-1].id if stack else None
            span = Span(len(spans), name, 0.0, 0.0, parent, self.signal)
            spans.append(span)
            stack.append(span)
            rss0 = resident_bytes() if track_rss else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if track_rss:
                span.rss_growth = resident_bytes() - rss0
            if track_levels:
                self.levels.update(len(ids) for ids in result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str, timed: bool):
        calls, busy = self.calls, self.busy
        if not timed:

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_call(*args, **kwargs):
            calls[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += time.perf_counter() - t0

        return timed_call

    # ---- derived quantities -------------------------------------------

    def covered(self, *names: str) -> float:
        """Seconds covered by the union of the named spans' intervals."""
        return _union([(s.start, s.end) for s in self.spans if s.name in names])

    def self_time(self, name: str) -> float:
        """Summed self time of the named spans: each span's duration minus
        the time its direct children cover."""
        children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        return sum(
            (s.end - s.start) - _union(children[s.id]) for s in self.spans if s.name == name
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def to_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
