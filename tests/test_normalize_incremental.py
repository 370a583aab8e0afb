"""The worklist engine's fixpoint never rescans the whole graph.

Sharing is re-established from the merge feed
(:meth:`~repro.vgraph.graph.ValueGraph.maximize_sharing_incremental`) in
every round and after every μ-cycle merge, structural signatures resolve
each argument once per call, and φ branches are rendered for tie-breaking
only when their signatures tie.  Each of these is an exact rewrite of the
slower form it replaced, and this file checks each against that form:

* a full :meth:`~repro.vgraph.graph.ValueGraph.maximize_sharing` run on a
  copy of the graph after every worklist normalization finds nothing left
  to merge among the nodes the goal depends on;
* ``signatures()`` equals a reference that resolves arguments every round;
* :func:`~repro.vgraph.normalize.order_phi_branches` equals one stable sort
  on the full key;
* signatures and the normalization work counters are identical across
  processes and hash seeds.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import zlib

import pytest

from repro.bench import BENCHMARKS_BY_NAME, build_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import llvm_md
from repro.vgraph import ValueGraph, merge_cycles
from repro.vgraph.normalize import Normalizer, order_phi_branches


def _counting_loop(graph: ValueGraph, start: int, stride: int) -> int:
    """μ for ``x = start; loop: x = x + stride``."""
    mu = graph.make_mu()
    body = graph.make("binop", "add", [mu, graph.const(stride)])
    graph.set_args(mu, [graph.const(start), body])
    return mu


class TestSharingCompleteness:
    @pytest.mark.parametrize("spec_name,scale",
                             [("perlbench", 0.25), ("sqlite", 0.3), ("hmmer", 0.3)])
    def test_full_scan_finds_nothing_left_to_merge(self, monkeypatch, spec_name, scale):
        original_rounds = Normalizer._run_rounds
        original_full = ValueGraph.maximize_sharing
        inside_rounds = [0]
        full_calls_inside = []
        checked = []
        unmerged = []

        def counting_full(graph, *args, **kwargs):
            if inside_rounds[0]:
                full_calls_inside.append(graph)
            return original_full(graph, *args, **kwargs)

        def checked_rounds(self, roots, stats, goal_pairs=None):
            inside_rounds[0] += 1
            try:
                result = original_rounds(self, roots, stats, goal_pairs=goal_pairs)
            finally:
                inside_rounds[0] -= 1
            copy = self.graph.clone()
            reachable = copy.reachable(roots)
            copy.maximize_sharing()
            checked.append(len(reachable))
            unmerged.extend(node_id for node_id in reachable
                            if copy.resolve(node_id) != node_id)
            return result

        monkeypatch.setattr(Normalizer, "_run_rounds", checked_rounds)
        monkeypatch.setattr(ValueGraph, "maximize_sharing", counting_full)
        module = build_corpus(BENCHMARKS_BY_NAME[spec_name], scale)
        _, report = llvm_md(module, PAPER_PIPELINE, strategy="stepwise")
        assert report.records
        assert checked, "no worklist normalization ran"
        assert unmerged == [], f"{len(unmerged)} reachable nodes left unmerged"
        assert full_calls_inside == [], "the worklist fixpoint ran a whole-graph scan"

    def test_merge_cycles_follows_its_merges_incrementally(self, monkeypatch):
        graph = ValueGraph()
        mu1 = _counting_loop(graph, 0, 1)
        mu2 = _counting_loop(graph, 0, 1)
        # Parents that only become duplicates once the loops merge.
        user1 = graph.make("binop", "mul", [mu1, graph.const(3)])
        user2 = graph.make("binop", "mul", [mu2, graph.const(3)])
        top1 = graph.make("binop", "sub", [user1, graph.const(7)])
        top2 = graph.make("binop", "sub", [user2, graph.const(7)])

        def forbidden(*args, **kwargs):
            raise AssertionError("merge_cycles ran a whole-graph scan")

        monkeypatch.setattr(ValueGraph, "maximize_sharing", forbidden)
        assert merge_cycles(graph, [top1, top2]) > 0
        assert graph.same(mu1, mu2)
        assert graph.same(user1, user2)
        assert graph.same(top1, top2)

    @pytest.mark.parametrize("engine", ["worklist", "fullscan"])
    def test_round_one_hash_conses_identical_mu_nodes(self, engine):
        # No constructor registers μ-nodes, so the worklist engine seeds
        # its first sharing pass with the reachable ones: identical loops
        # then merge by hash-consing, as in the full scan, rather than
        # being left to the cycle matcher.
        graph = ValueGraph()
        init = graph.const(4)
        users = []
        for _ in range(2):
            mu = graph.make_mu()
            graph.set_args(mu, [init, mu])  # x = 4; loop: x = x
            users.append(graph.make("binop", "add", [mu, graph.const(1)]))
        normalizer = Normalizer(graph, rule_groups=(), engine=engine)
        matched, stats = normalizer.normalize_until_equal([tuple(users)])
        assert matched
        assert (stats.sharing_merges, stats.cycle_merges) == (2, 0)


def _reference_signatures(graph: ValueGraph, rounds: int, roots) -> dict:
    """``signatures()`` as a direct transcription: resolve on every round."""
    def label(node) -> int:
        return zlib.crc32(repr((node.kind, node.data)).encode())

    node_ids = list(graph.reachable(roots))
    signature = {node_id: hash((label(graph.node(node_id)), len(graph.node(node_id).args)))
                 for node_id in node_ids}
    for _ in range(rounds):
        signature = {
            node_id: hash((label(graph.node(node_id)),
                           tuple(signature.get(graph.resolve(arg), 0)
                                 for arg in graph.node(node_id).args)))
            for node_id in node_ids
        }
    return signature


class TestExactRewrites:
    def _graph_with_redirects(self):
        graph = ValueGraph()
        loops = [_counting_loop(graph, start, stride)
                 for start, stride in ((0, 1), (0, 2), (5, 1))]
        param = graph.make("param", 0)
        condition = graph.make("icmp", "slt", [param, graph.const(10)])
        phi = graph.phi([(condition, loops[0]), (graph.not_(condition), loops[1])])
        root = graph.make("binop", "add", [phi, loops[2]])
        eta = graph.make("eta", None, [graph.not_(condition), root])
        # Redirects without any sharing pass leave stale ids in the
        # argument lists: signatures() must see through them.
        graph.redirect(graph.const(2), graph.const(1))
        graph.redirect(graph.const(5), graph.const(0))
        assert any(graph.resolve(arg) != arg
                   for node in graph.live_nodes() for arg in node.args)
        return graph, [eta, phi]

    @pytest.mark.parametrize("rounds", [0, 1, 3, 4])
    def test_signatures_match_per_round_resolution(self, rounds):
        graph, roots = self._graph_with_redirects()
        assert graph.signatures(rounds=rounds, roots=roots) == \
            _reference_signatures(graph, rounds, roots)
        every_root = [node.id for node in graph.live_nodes()]
        assert graph.signatures(rounds=rounds) == \
            _reference_signatures(graph, rounds, every_root)

    def test_phi_order_matches_full_key_sort(self):
        graph = ValueGraph()
        param = graph.make("param", 0)
        leaves = [graph.const(value) for value in range(6)]
        conditions = [graph.make("icmp", opcode, [param, leaf])
                      for opcode in ("eq", "slt") for leaf in leaves]
        values = leaves + [graph.make("binop", "add", [param, leaf]) for leaf in leaves]
        generator = random.Random(1234)

        def reference(branches, signatures):
            def key(branch):
                condition, value = (graph.resolve(node_id) for node_id in branch)
                return (signatures.get(condition, 0), signatures.get(value, 0),
                        graph.format_node(condition, max_depth=3),
                        graph.format_node(value, max_depth=3))
            return sorted(branches, key=key)

        for _ in range(300):
            # Signatures drawn from a tiny range force many ties, and
            # repeated branches check that the order stays stable.
            signatures = {node_id: generator.randrange(3)
                          for node_id in conditions + values}
            branches = [(generator.choice(conditions), generator.choice(values))
                        for _ in range(generator.randrange(1, 9))]
            branches += branches[:generator.randrange(3)]
            assert order_phi_branches(graph, branches, signatures) == \
                reference(branches, signatures)


_SEEDED_SWEEP = """
import json
from repro.bench import BENCHMARKS_BY_NAME, build_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import llvm_md
from repro.vgraph import ValueGraph
from repro.vgraph.normalize import Normalizer

COUNTERS = ("rule_invocations", "rewrites", "worklist_pushes")
work = dict.fromkeys(COUNTERS, 0)
original = Normalizer.normalize_until_equal

def counted(self, goal_pairs):
    matched, stats = original(self, goal_pairs)
    for key in COUNTERS:
        work[key] += getattr(stats, key)
    return matched, stats

Normalizer.normalize_until_equal = counted
module = build_corpus(BENCHMARKS_BY_NAME["perlbench"], 0.1)
_, report = llvm_md(module, PAPER_PIPELINE, strategy="stepwise")
graph = ValueGraph()
phi = graph.phi([(graph.make("param", 0), graph.make_mu()), (graph.true(), graph.const(3))])
print(json.dumps({
    "signatures": [record.signature() for record in report.records],
    "counters": work,
    "graph_signatures": sorted(graph.signatures().items()),
}))
"""


def test_normalization_counters_are_hash_seed_independent():
    root = pathlib.Path(__file__).resolve().parents[1]
    runs = []
    for seed in ("0", "0", "1"):
        environment = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=seed)
        completed = subprocess.run([sys.executable, "-c", _SEEDED_SWEEP],
                                   capture_output=True, text=True, env=environment,
                                   check=True)
        runs.append(json.loads(completed.stdout))
    assert runs[0]["counters"]["rule_invocations"] > 0
    for run in runs[1:]:
        assert run["signatures"] == runs[0]["signatures"]
        assert run["counters"] == runs[0]["counters"]
        assert run["graph_signatures"] == runs[0]["graph_signatures"]
