"""The per-checkpoint front end: one hash per checkpoint, a stable printer,
interval dominance and path conditions that leave no cycles.

Every changed pass yields a checkpoint that is cloned, fingerprinted and
analysed before any value-graph work.  These tests pin the cheap forms of
those steps to the behaviour of the forms they replaced: the fingerprint
count per checkpoint (and a kept checkpoint's release to its caller), the
printer's exact output, the dominance relation of an idom walk, the
boolean rule's answers, and the absence of cyclic garbage from
path-condition queries.
"""

import gc
import hashlib
import importlib
from typing import Dict, Optional

import pytest

from repro.analysis import DominatorTree, PostDominatorTree
from repro.analysis.manager import CHECKPOINT_FINGERPRINTS, AnalysisManager
from repro.analysis.cfg import predecessor_map, reverse_postorder
from repro.bench import BENCHMARKS_BY_NAME, build_corpus
from repro.gated.gates import GateAnalysis
from repro.ir import clone_function, parse_function, parse_module
from repro.ir.printer import print_module
from repro.transforms import PAPER_PIPELINE, optimize
from repro.validator import (ValidationCache, ValidatorConfig, llvm_md, validate,
                             validate_function_pipeline, validate_module_batch)
from repro.vgraph import ValueGraph, rules
from repro.vgraph.nodes import VNode

#: ``sha256(print_module(build_corpus(spec, 0.1)))``.  Fingerprints and
#: proof-store keys are hashes of this text, so a faster printer must not
#: change it.
PRINT_DIGESTS = {
    "bzip2": "140dbb6eb19ffecdd76603098429a1bff51f2a6bcb33de13a26b41b232556dd0",
    "gcc": "1c678b29ce8029abfdb7f0b63de315a7dcebd0235fa56d45879fd1b76f6c70ac",
    "h264ref": "0439cf1430f1d2deab53a3fcc4eca93010315adfc4ef7f2283c951e2a8f0a105",
    "hmmer": "fc8d8e828e77d9a91ade955f6097e04a5e3b6e9fa966896f618cd1ebc5ea4f16",
    "lbm": "3299ea513c3b658411f6fb1df0906c165cb5e36bbaf070dd4c580d46da3d5635",
    "libquantum": "9c8449f9b9ef86e3d2d449b0a7a825c4fdd4e3ef8d66826d720b66f00518afc6",
    "mcf": "30da88644e5e96f1ad59845f893c0a43137ba015db2152bae08027e644a5d4c0",
    "milc": "99ac844634ef53fd4ee83972cafc28961be0d1cb68f73af69347a00b9eace4c7",
    "perlbench": "ba479a4ba86009091c6a6c172ea5ec8733d2c459471047039d5892dac67187f2",
    "sjeng": "a95d3668f1d3a31cff3b21d5e3f152092423662e67b91c80f57e47231d357876",
    "sphinx": "56d9afc6de7e1c385949504cb98ea5b304c5f826461cf3de6cea357b0cd32db0",
    "sqlite": "6a674d344deee28b1215355af3b13f1fb4fe62189cc8a4651cea1a2539ff2d7e",
}

#: The modules whose ``function_fingerprint`` binding the validator calls.
FINGERPRINT_BINDINGS = (
    "repro.analysis.manager",
    "repro.validator.scheduler.plan",
)

#: A CFG with a block unreachable from entry (``orphan``) and a reachable
#: block that never reaches an exit (``spin``).
ODD_CFG = """
define i32 @odd(i1 %c, i32 %a) {
entry:
  br i1 %c, label %left, label %right
left:
  br label %join
right:
  br i1 %c, label %join, label %spin
spin:
  br label %spin
join:
  ret i32 %a
orphan:
  br label %join
}
"""


@pytest.fixture(scope="module")
def corpora():
    return {name: build_corpus(BENCHMARKS_BY_NAME[name], 0.1)
            for name in sorted(BENCHMARKS_BY_NAME)}


# -- one fingerprint per checkpoint ------------------------------------------

@pytest.mark.parametrize("name,scale", [("perlbench", 0.25), ("hmmer", 0.3)])
def test_each_checkpoint_is_fingerprinted_once(name, scale, tmp_path, monkeypatch):
    calls: Dict[int, list] = {}
    original = importlib.import_module("repro.analysis.manager").function_fingerprint

    def counting(function):
        calls.setdefault(id(function), [function, 0])[1] += 1
        return original(function)

    for module_name in FINGERPRINT_BINDINGS:
        monkeypatch.setattr(importlib.import_module(module_name),
                            "function_fingerprint", counting)

    module = build_corpus(BENCHMARKS_BY_NAME[name], scale)
    cache = ValidationCache(tmp_path, backend="sqlite")
    chained = 0
    for function in module.defined_functions():
        calls.clear()
        _, record = validate_function_pipeline(function, PAPER_PIPELINE, cache=cache,
                                               strategy="stepwise")
        changed = sum(record.transformed_by.values())
        if not changed:
            continue
        own = calls.pop(id(function), [function, 0])[1]
        assert 1 <= own <= 2, (function.name, own)
        assert all(count == 1 for _, count in calls.values()), function.name
        assert len(calls) <= changed
        if changed >= 2:
            # The chain path keys every adjacent pair up front.
            chained += 1
            assert len(calls) == changed, function.name
    assert chained


def kept_checkpoints(strategy, tmp_path):
    """Every kept checkpoint each driver hands back under ``strategy``."""
    module = build_corpus(BENCHMARKS_BY_NAME["sqlite"], 0.2)
    functions = list(module.defined_functions())
    kept = [validate_function_pipeline(function, PAPER_PIPELINE, strategy=strategy,
                                       cache=ValidationCache())[0]
            for function in functions]
    kept = [version for version, function in zip(kept, functions) if version is not function]
    for run in (lambda: llvm_md(module, PAPER_PIPELINE, strategy=strategy,
                                cache=ValidationCache()),
                lambda: validate_module_batch([module], PAPER_PIPELINE, strategy=strategy,
                                              cache=ValidationCache())[0]):
        result_module, report = run()
        kept += [result_module.functions[record.name] for record in report.records
                 if record.transformed]
    if strategy == "stepwise":
        config = ValidatorConfig(incremental=True, cache_dir=str(tmp_path))
        result_module, report = llvm_md(module, PAPER_PIPELINE, config, strategy=strategy)
        kept += [result_module.functions[record.name] for record in report.records
                 if record.transformed]
    return kept


@pytest.mark.parametrize("strategy", ["whole", "stepwise", "bisect"])
def test_mutating_a_kept_checkpoint_invalidates_analyses_and_keys(strategy, tmp_path):
    kept = kept_checkpoints(strategy, tmp_path)
    assert kept
    config = ValidatorConfig()
    manager = AnalysisManager()
    cache = ValidationCache()
    for function in kept:
        # Handed to the caller: no longer trusted from the shared table.
        assert CHECKPOINT_FINGERPRINTS.get(function) is None, function.name
        key = cache.key(function, function, config)
        manager.analyses_for(function)
        computed = manager.computed
        function.blocks[-1].name += "_mutated"
        manager.analyses_for(function)
        assert manager.computed == computed + 1, function.name
        assert cache.key(function, function, config) != key, function.name


# -- the printer ----------------------------------------------------------------

def test_print_module_is_byte_identical(corpora):
    for name, module in corpora.items():
        text = print_module(module)
        assert hashlib.sha256(text.encode()).hexdigest() == PRINT_DIGESTS[name], name
        assert print_module(parse_module(text, module.name)) == text, name


# -- dominance --------------------------------------------------------------------

def walk_dominates(dom: DominatorTree, a, b) -> bool:
    """Reference: walk ``b``'s idom chain looking for ``a``."""
    members = {id(block) for block in dom.reachable_blocks()}
    if id(a) not in members or id(b) not in members:
        return False
    node: Optional[object] = b
    while node is not None:
        if node is a:
            return True
        node = dom.idom(node)
    return False


def exit_reaching(function) -> set:
    """Entry-reachable blocks from which some exit is reachable."""
    blocks = reverse_postorder(function)
    preds = predecessor_map(function)
    reached = {id(b) for b in blocks if not b.successors()}
    stack = [b for b in blocks if id(b) in reached]
    while stack:
        for pred in preds[stack.pop()]:
            if id(pred) not in reached:
                reached.add(id(pred))
                stack.append(pred)
    return {id(b) for b in blocks} & reached


def walk_postdominates(pdt: PostDominatorTree, members: set, a, b) -> bool:
    """Reference: walk ``b``'s ipostdom chain looking for ``a``."""
    if id(a) not in members or id(b) not in members:
        return False
    node: Optional[object] = b
    while node is not None:
        if node is a:
            return True
        node = pdt.ipostdom(node)
    return False


def check_dominance(function) -> int:
    dom = DominatorTree.compute(function)
    pdt = PostDominatorTree.compute(function)
    members = exit_reaching(function)
    for a in function.blocks:
        for b in function.blocks:
            assert dom.dominates(a, b) == walk_dominates(dom, a, b), (a.name, b.name)
            assert pdt.postdominates(a, b) == walk_postdominates(pdt, members, a, b), \
                (a.name, b.name)
    return len(function.blocks) ** 2


def test_interval_dominance_matches_idom_walk(corpora):
    pairs = sum(check_dominance(function) for module in corpora.values()
                for function in module.defined_functions())
    assert pairs > 1000


def test_interval_dominance_on_unreachable_and_exitless_blocks():
    function = parse_function(ODD_CFG)
    check_dominance(function)
    blocks = {block.name: block for block in function.blocks}
    dom = DominatorTree.compute(function)
    pdt = PostDominatorTree.compute(function)
    assert not dom.dominates(blocks["orphan"], blocks["orphan"])
    assert not dom.dominates(blocks["entry"], blocks["orphan"])
    assert dom.dominates(blocks["right"], blocks["spin"])
    assert not pdt.postdominates(blocks["spin"], blocks["spin"])
    assert not pdt.postdominates(blocks["join"], blocks["orphan"])
    assert pdt.postdominates(blocks["join"], blocks["left"])
    assert not pdt.postdominates(blocks["join"], blocks["spin"])


# -- no cyclic garbage ------------------------------------------------------------

def test_path_conditions_leave_no_cyclic_garbage(corpora):
    function = max(corpora["perlbench"].defined_functions(),
                   key=lambda fn: len(fn.blocks))
    gates = GateAnalysis(function)
    graph = ValueGraph()
    roots = [graph.make("const", (index, "i32")) for index in range(3)]
    root = graph.make("binop", "add", [graph.make("binop", "mul", roots[:2]), roots[2]])
    gc.collect()
    gc.disable()
    try:
        queries = 0
        for block in function.blocks:
            start = gates.dom.idom(block) or function.entry
            gates.path_condition(start, block)
            gates.path_condition(function.entry, block)
            queries += 2
        for _ in range(10):
            graph.format_node(root)
        assert queries > 20
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the boolean rule ----------------------------------------------------------------

def reference_bool_connectives(graph: ValueGraph, node: VNode) -> Optional[int]:
    """The rule body before the cheap cases moved ahead of the boolean walk."""
    if node.kind != "binop" or node.data not in ("and", "or"):
        return None
    memo: Dict[int, bool] = {}
    if not all(rules._is_boolean_node(graph, a, memo) for a in node.args):
        return None
    lhs, rhs = graph.resolve(node.args[0]), graph.resolve(node.args[1])
    lhs_node, rhs_node = graph.node(lhs), graph.node(rhs)
    if node.data == "and":
        if lhs_node.is_true():
            return rhs
        if rhs_node.is_true():
            return lhs
        if lhs_node.is_false() or rhs_node.is_false():
            return graph.false()
    else:
        if lhs_node.is_false():
            return rhs
        if rhs_node.is_false():
            return lhs
        if lhs_node.is_true() or rhs_node.is_true():
            return graph.true()
    if lhs == rhs:
        return lhs
    return None


def test_bool_connectives_matches_reference(monkeypatch):
    rule = rules.rule_bool_connectives
    seen = {"calls": 0, "fired": 0}

    def checked(graph: ValueGraph, node: VNode) -> Optional[int]:
        watermark = graph.next_id
        result = rule(graph, node)
        created = graph.next_id - watermark
        # Called second, the reference makes no node the rule did not.
        assert reference_bool_connectives(graph, node) == result
        assert graph.next_id - watermark == created
        seen["calls"] += 1
        seen["fired"] += result is not None
        return result

    checked.kinds, checked.group = rule.kinds, rule.group
    groups = {group: [checked if entry is rule else entry for entry in members]
              for group, members in rules.RULE_GROUPS.items()}
    monkeypatch.setattr(rules, "RULE_GROUPS", groups)

    for name in ("perlbench", "sqlite", "hmmer"):
        module = build_corpus(BENCHMARKS_BY_NAME[name], 0.15)
        for function in module.defined_functions():
            validate(function, optimize(clone_function(function), PAPER_PIPELINE))
    assert seen["calls"] > 100
    assert seen["fired"] > 0

