"""Graph construction stays polynomial, and its gate memo is sound.

Path conditions are DAGs: in a chain of if/else diamonds the condition
for reaching the join after diamond *i* is shared by both arms of
diamond *i + 1*.  Translating that DAG as a tree costs 2^d work for d
diamonds; :class:`~repro.vgraph.builder.GraphBuilder` memoizes gate
translation on the gate objects so the cost is linear in the DAG.
"""

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench import BENCHMARKS_BY_NAME, build_corpus
from repro.gated.gates import AndGate, CondGate, GateExpr, ReachedGate
from repro.ir import I32, IRBuilder, Module, clone_function, create_function, verify_function
from repro.ir.module import BasicBlock
from repro.transforms import PAPER_PIPELINE, optimize
from repro.validator import llvm_md, validate
from repro.vgraph import GraphBuilder, ValueGraph

DEPTHS = (4, 8, 16)


def nested_diamonds(depth: int):
    """``depth`` sequential if/else diamonds threading one value to the return.

    Each diamond branches on the value the previous join produced, the
    then-arm holds a constant SCCP folds and the else-arm recomputes
    ``a + b``, which GVN merges with the entry's copy.
    """
    module = Module("diamonds")
    function = create_function(module, f"diamonds{depth}", I32, [I32, I32], ["a", "b"])
    builder = IRBuilder(function.entry)
    a, b = function.args
    value = builder.add(a, b)
    for index in range(depth):
        then_block = function.add_block(f"then{index}")
        else_block = function.add_block(f"else{index}")
        join_block = function.add_block(f"join{index}")
        condition = builder.icmp("sgt", value, builder.const(index))
        builder.cbr(condition, then_block, else_block)
        builder.position_at_end(then_block)
        then_value = builder.add(value, builder.mul(builder.const(2), builder.const(3)))
        builder.br(join_block)
        builder.position_at_end(else_block)
        else_value = builder.sub(builder.add(a, b), value)
        builder.br(join_block)
        builder.position_at_end(join_block)
        value = builder.phi(I32, [(then_value, then_block), (else_value, else_block)])
    builder.ret(value)
    verify_function(function)
    return function


class TestNestedDiamonds:
    @pytest.mark.parametrize("transformed", [False, True], ids=["self", "gvn-sccp"])
    def test_construction_work_is_polynomial_in_depth(self, transformed):
        work = {}
        for depth in DEPTHS:
            before = nested_diamonds(depth)
            after = before
            if transformed:
                after = optimize(clone_function(before), ["gvn", "sccp"])
            result = validate(before, after)
            assert result.is_success, result.detail
            assert result.reason == ("equal" if transformed else "trivially-equal")
            work[depth] = result.stats
        for counter in ("make_calls", "gate_translations"):
            assert work[4][counter] > 0
            assert work[16][counter] / work[8][counter] <= 3, (
                counter, {depth: stats[counter] for depth, stats in work.items()})


def _churn() -> None:
    """Free many gate-sized objects so the next build can reuse their ids."""
    garbage = [AndGate([CondGate(None), ReachedGate("churn")]) for _ in range(2000)]
    del garbage
    gc.collect()


def _sweep(monkeypatch, spec_name: str, scale: float, memo: bool):
    original_build = GraphBuilder.build

    def churning_build(self):
        _churn()
        return original_build(self)

    with monkeypatch.context() as patch:
        patch.setattr(GraphBuilder, "build", churning_build)
        if not memo:
            patch.setattr(GraphBuilder, "_gate_to_node",
                          lambda self, gate, context: self._translate_gate(gate, context))
        module = build_corpus(BENCHMARKS_BY_NAME[spec_name], scale)
        _, report = llvm_md(module, PAPER_PIPELINE, strategy="stepwise")
    return [record.signature() for record in report.records], report.engine_totals()


class TestGateMemoSoundness:
    @pytest.mark.parametrize("spec_name,scale",
                             [("perlbench", 0.25), ("sqlite", 0.3), ("hmmer", 0.3)])
    def test_memo_matches_memo_free_reference(self, monkeypatch, spec_name, scale):
        signatures, totals = _sweep(monkeypatch, spec_name, scale, memo=True)
        reference, reference_totals = _sweep(monkeypatch, spec_name, scale, memo=False)
        assert signatures == reference
        assert totals["nodes_built"] == reference_totals["nodes_built"]
        assert totals["make_calls"] <= reference_totals["make_calls"]
        assert totals["gate_translations"] <= reference_totals["gate_translations"]

    def test_memo_keys_are_gate_objects(self):
        builder = GraphBuilder(ValueGraph(), nested_diamonds(4))
        builder.build()
        keys = list(builder._gate_nodes)
        assert keys
        for gate, context in keys:
            # An id()-keyed memo returns stale nodes once a temporary gate
            # is collected and its id recycled: the keys must be the
            # objects themselves, which keeps them alive.
            assert isinstance(gate, GateExpr)
            assert isinstance(context, BasicBlock)
        assert builder.gate_translations == len(keys)


_SEEDED_SWEEP = """
import json
from repro.bench import BENCHMARKS_BY_NAME, build_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import llvm_md
module = build_corpus(BENCHMARKS_BY_NAME["perlbench"], 0.1)
_, report = llvm_md(module, PAPER_PIPELINE, strategy="stepwise")
totals = report.engine_totals()
print(json.dumps({
    "signatures": [record.signature() for record in report.records],
    "counters": {key: totals[key]
                 for key in ("nodes_built", "make_calls", "gate_translations")},
}))
"""


def test_construction_counters_are_hash_seed_independent():
    root = pathlib.Path(__file__).resolve().parents[1]
    runs = []
    for seed in ("0", "1"):
        environment = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=seed)
        completed = subprocess.run([sys.executable, "-c", _SEEDED_SWEEP],
                                   capture_output=True, text=True, env=environment,
                                   check=True)
        runs.append(json.loads(completed.stdout))
    assert runs[0]["signatures"] == runs[1]["signatures"]
    assert runs[0]["counters"] == runs[1]["counters"]
    assert runs[0]["counters"]["make_calls"] > 0
