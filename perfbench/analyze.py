"""Trace analysis: per-layer self time and counts from a written trace.

Reads only the schema :mod:`tracer` documents.  A span's self time is its
duration minus the time its child spans cover; spans of one thread nest,
so that is the sum of its direct children's durations.  Layer numbers are
taken inside one ``phase.<name>`` span: the set-up layers inside
``phase.setup``, everything else inside ``phase.sweep``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from tracer import SCHEMA, SPAN_FIELDS

NS = 1e-9

#: Layer -> the span names whose self time it sums.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "bench.generate": ("bench.generate",),
    "bench.mem2reg": ("bench.mem2reg",),
    "transforms.opt": ("transforms.opt",),
    "ir.clone": ("ir.clone",),
    "analysis.fingerprint": ("analysis.fingerprint",),
    "analysis.compute": ("analysis.compute",),
    "gated.path_condition": ("gated.path_condition",),
    "vgraph.build": ("vgraph.build",),
    "vgraph.normalize": ("vgraph.normalize",),
    "validator.validate": ("validator.validate", "validator.validate_chain"),
    "validator.pipeline": ("validator.pipeline",),
    "validator.batch": ("validator.batch",),
    "scheduler.plan": ("scheduler.plan",),
    "scheduler.execute": ("scheduler.execute",),
    "scheduler.settle": ("scheduler.settle",),
    "cache.lookup": ("cache.lookup",),
    "cache.save": ("cache.save",),
    "cache.store_fetch": ("cache.store_fetch",),
    "cache.store_upsert": ("cache.store_upsert",),
}
SETUP_LAYERS = ("bench.generate", "bench.mem2reg")
#: Layers whose span count is reported as ``<layer>.calls``.
COUNTED_LAYERS = ("transforms.opt", "ir.clone", "analysis.fingerprint",
                  "gated.path_condition", "vgraph.build")

#: Counts the tracer takes at span boundaries.
TRACER_COUNTS = ("vgraph.make_calls", "vgraph.nodes_built", "vgraph.normalize_runs",
                 "vgraph.rule_invocations", "vgraph.rewrites", "vgraph.worklist_pushes",
                 "cache.rows_upserted")

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: List[Tuple[str, str]] = [
    ("bench.generate.self_s", "s"), ("bench.mem2reg.self_s", "s"),
    ("transforms.opt.self_s", "s"), ("transforms.opt.calls", "count"),
    ("ir.clone.self_s", "s"), ("ir.clone.calls", "count"),
    ("analysis.fingerprint.self_s", "s"), ("analysis.fingerprint.calls", "count"),
    ("analysis.compute.self_s", "s"), ("analysis.computed", "count"),
    ("analysis.reused", "count"), ("analysis.reuse_ratio", "ratio"),
    ("gated.path_condition.self_s", "s"), ("gated.path_condition.calls", "count"),
    ("vgraph.build.self_s", "s"), ("vgraph.build.calls", "count"),
    ("vgraph.make_calls", "count"), ("vgraph.nodes_built", "count"),
    ("vgraph.make_per_node", "ratio"),
    ("vgraph.normalize.self_s", "s"), ("vgraph.normalize_runs", "count"),
    ("vgraph.rule_invocations", "count"), ("vgraph.rewrites", "count"),
    ("vgraph.worklist_pushes", "count"),
    ("validator.validate.self_s", "s"), ("validator.pairs_fresh", "count"),
    ("validator.chain_fallbacks", "count"), ("validator.whole_fallbacks", "count"),
    ("validator.pipeline.self_s", "s"), ("validator.batch.self_s", "s"),
    ("scheduler.plan.self_s", "s"), ("scheduler.execute.self_s", "s"),
    ("scheduler.settle.self_s", "s"), ("scheduler.distinct_pairs", "count"),
    ("scheduler.inline_validations", "count"),
    ("cache.lookup.self_s", "s"), ("cache.save.self_s", "s"),
    ("cache.store_fetch.self_s", "s"), ("cache.store_upsert.self_s", "s"),
    ("cache.hits", "count"), ("cache.misses", "count"), ("cache.hit_ratio", "ratio"),
    ("cache.rows_upserted", "count"), ("cache.store_bytes_read", "bytes"),
    ("cache.store_bytes_written", "bytes"),
    ("trace.sweep_s", "s"), ("trace.overhead_pct", "%"),
    ("trace.counts_exact", "count"), ("trace.counts_jittered", "count"),
    ("trace.signatures_equal", "bool"),
]


def load(path: Path) -> dict:
    trace = json.loads(path.read_text())
    if trace.get("schema") != SCHEMA or tuple(trace.get("fields", ())) != SPAN_FIELDS:
        raise ValueError(f"{path}: not a schema-{SCHEMA} trace")
    return trace


def _phases_and_self(spans: List[list]) -> Tuple[Dict[int, str], Dict[int, int]]:
    """Enclosing phase and self time (ns) of every span."""
    by_id = {span[0]: span for span in spans}
    phase: Dict[int, str] = {}
    own: Dict[int, int] = {span[0]: span[5] - span[4] for span in spans}
    for span in sorted(spans, key=lambda s: s[0]):
        span_id, parent, name = span[0], span[1], span[2]
        if name.startswith("phase."):
            phase[span_id] = name[len("phase."):]
        else:
            phase[span_id] = phase.get(parent, "")
        if parent in by_id:
            own[parent] -= span[5] - span[4]
    return phase, own


def layer_table(trace: dict) -> Dict[str, Dict[str, float]]:
    """``layer -> {"self_s", "calls"}`` in the layer's phase."""
    spans = trace["spans"]
    phase, own = _phases_and_self(spans)
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    owner = {name: layer for layer, names in LAYERS.items() for name in names}
    for span in spans:
        layer = owner.get(span[2])
        if layer is None:
            continue
        wanted = "setup" if layer in SETUP_LAYERS else "sweep"
        if phase[span[0]] != wanted:
            continue
        table[layer]["self_s"] += own[span[0]] * NS
        table[layer]["calls"] += 1
    return table


def fresh_pairs(trace: dict) -> int:
    """Pair and chain validations run inside the sweep (not cache answers)."""
    phase, _ = _phases_and_self(trace["spans"])
    return sum(1 for span in trace["spans"]
               if span[2] in LAYERS["validator.validate"] and phase[span[0]] == "sweep")


def slowest_functions(trace: dict, top: int = 3) -> List[Tuple[str, float, str]]:
    """``(function id, seconds, layer with most self time)`` of the slowest."""
    spans = trace["spans"]
    by_id = {span[0]: span for span in spans}
    _, own = _phases_and_self(spans)
    owner = {name: layer for layer, names in LAYERS.items() for name in names}
    total: Dict[str, float] = {}
    per_layer: Dict[str, Dict[str, float]] = {}
    for span in spans:
        function_id = span[3]
        if not function_id:
            continue
        parent = by_id.get(span[1])
        if parent is None or parent[3] != function_id:
            total[function_id] = total.get(function_id, 0.0) + (span[5] - span[4]) * NS
        layers = per_layer.setdefault(function_id, {})
        layer = owner.get(span[2], span[2])
        layers[layer] = layers.get(layer, 0.0) + own[span[0]] * NS
    ranked = sorted(total.items(), key=lambda item: -item[1])[:top]
    return [(function_id, seconds, max(per_layer[function_id].items(), key=lambda i: i[1])[0])
            for function_id, seconds in ranked]


def count_metrics(trace: dict, counters: Dict[str, int]) -> Dict[str, int]:
    """Every per-layer count: span counts, tracer counts, program counters."""
    table = layer_table(trace)
    counts = {f"{layer}.calls": int(table[layer]["calls"]) for layer in COUNTED_LAYERS}
    counts["validator.pairs_fresh"] = fresh_pairs(trace)
    for name in TRACER_COUNTS:
        counts[name] = int(trace["counts"].get("sweep", {}).get(name, 0))
    counts.update({name: int(value) for name, value in counters.items()})
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(trace: dict, counts: Dict[str, int]) -> Dict[str, float]:
    """Self times plus counts and the ratios derived from them."""
    metrics: Dict[str, float] = {}
    for layer, row in layer_table(trace).items():
        metrics[f"{layer}.self_s"] = row["self_s"]
    metrics.update(counts)
    metrics["analysis.reuse_ratio"] = _ratio(
        counts["analysis.reused"], counts["analysis.reused"] + counts["analysis.computed"])
    metrics["vgraph.make_per_node"] = _ratio(counts["vgraph.make_calls"],
                                             counts["vgraph.nodes_built"])
    metrics["cache.hit_ratio"] = _ratio(counts["cache.hits"],
                                        counts["cache.hits"] + counts["cache.misses"])
    return metrics
