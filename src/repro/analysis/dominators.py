"""Dominator trees, dominance frontiers and post-dominators.

Implemented with the Cooper–Harvey–Kennedy iterative algorithm over the
reverse postorder numbering, which is simple and fast enough for the sizes
in the benchmark corpora.  Dominance frontiers are needed by mem2reg's
φ-placement; post-dominators by ADCE's control-dependence computation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.module import BasicBlock, Function
from .cfg import predecessor_map, reverse_postorder


class DominatorTree:
    """The dominator tree of a function's reachable CFG.

    Use :meth:`compute` to build one.  Unreachable blocks do not appear in
    the tree at all; :meth:`dominates` returns ``False`` for them.

    :meth:`dominates` is answered in O(1) from DFS enter/exit numbers over
    the tree.  The numbering is built on the first query, so clients that
    only need frontiers or the preorder (mem2reg) never pay for it.
    """

    def __init__(self, function: Function, idom: Dict[int, Optional[BasicBlock]],
                 order: List[BasicBlock]):
        self.function = function
        self._idom = idom
        self._order = order
        self._index = {id(b): i for i, b in enumerate(order)}
        self._children: Dict[int, List[BasicBlock]] = {id(b): [] for b in order}
        for block in order:
            parent = idom.get(id(block))
            if parent is not None and parent is not block:
                self._children[id(parent)].append(block)
        self._intervals: Optional[Dict[int, Tuple[int, int]]] = None

    # -- construction ------------------------------------------------------
    @classmethod
    def compute(cls, function: Function) -> "DominatorTree":
        """Compute the dominator tree of ``function``."""
        order = reverse_postorder(function)
        return cls(function, _compute_idoms(order, predecessor_map(function)), order)

    @classmethod
    def compute_post(cls, function: Function) -> "PostDominatorTree":
        """Compute the post-dominator forest of ``function``."""
        return PostDominatorTree.compute(function)

    # -- queries -------------------------------------------------------------
    def reachable_blocks(self) -> List[BasicBlock]:
        """Blocks reachable from entry, in reverse postorder."""
        return list(self._order)

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator of ``block`` (``None`` for the entry)."""
        parent = self._idom.get(id(block))
        if parent is block:
            return None
        return parent

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        """Blocks immediately dominated by ``block``."""
        return list(self._children.get(id(block), []))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` dominate ``b``?  (Every block dominates itself.)"""
        intervals = self._intervals
        if intervals is None:
            intervals = self._intervals = _tree_intervals(self._order[:1], self._children)
        outer = intervals.get(id(a))
        inner = intervals.get(id(b))
        if outer is None or inner is None:
            return False
        return outer[0] <= inner[0] and inner[1] <= outer[1]

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` dominate ``b`` and ``a is not b``?"""
        return a is not b and self.dominates(a, b)

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """The dominance frontier of every reachable block."""
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in self._order}
        preds = predecessor_map(self.function)
        for block in self._order:
            block_preds = [p for p in preds[block] if id(p) in self._index]
            if len(block_preds) < 2:
                continue
            idom_block = self._idom[id(block)]
            for pred in block_preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not idom_block:
                    frontier[runner].add(block)
                    next_runner = self._idom.get(id(runner))
                    if next_runner is runner:
                        break
                    runner = next_runner
        return frontier

    def dominator_tree_preorder(self) -> List[BasicBlock]:
        """Blocks in a preorder walk of the dominator tree."""
        result: List[BasicBlock] = []
        if not self._order:
            return result
        stack = [self._order[0]]
        while stack:
            block = stack.pop()
            result.append(block)
            stack.extend(reversed(self.children(block)))
        return result


class PostDominatorTree:
    """Post-dominator relation, computed over the reversed CFG.

    Functions may have several exit blocks (multiple ``ret`` / ``unreachable``),
    so the computation uses a virtual exit node that every real exit leads to.
    Each exit roots its own tree; :meth:`postdominates` answers from DFS
    enter/exit numbers over that forest, built on the first query.
    """

    def __init__(self, ipostdom: Dict[int, Optional[BasicBlock]], order: List[BasicBlock]):
        self._ipdom = ipostdom
        self._order = order
        self._intervals: Optional[Dict[int, Tuple[int, int]]] = None

    @classmethod
    def compute(cls, function: Function) -> "PostDominatorTree":
        """Compute post-dominators for ``function``."""
        blocks = reverse_postorder(function)
        exits = [b for b in blocks if not b.successors()]
        preds = predecessor_map(function)
        # Successors in the reversed graph are the original predecessors
        # (those reachable from entry: an unreachable block is not analysed).
        reachable = {id(b) for b in blocks}
        reversed_succ: Dict[int, List[BasicBlock]] = {
            id(b): [p for p in preds[b] if id(p) in reachable] for b in blocks}
        reversed_pred: Dict[int, List[BasicBlock]] = {id(b): list(b.successors()) for b in blocks}

        # Postorder of the reversed CFG starting from the virtual exit.
        seen: Set[int] = set()
        postorder: List[BasicBlock] = []

        def visit(start: BasicBlock) -> None:
            stack = [(start, iter(reversed_succ[id(start)]))]
            seen.add(id(start))
            while stack:
                current, it = stack[-1]
                advanced = False
                for nxt in it:
                    if id(nxt) not in seen:
                        seen.add(id(nxt))
                        stack.append((nxt, iter(reversed_succ[id(nxt)])))
                        advanced = True
                        break
                if not advanced:
                    postorder.append(current)
                    stack.pop()

        for exit_block in exits:
            if id(exit_block) not in seen:
                visit(exit_block)
        order = list(reversed(postorder))

        ipdom: Dict[int, Optional[BasicBlock]] = {}
        index = {id(b): i for i, b in enumerate(order)}
        # Virtual exit: exits have themselves as (temporary) roots.
        for exit_block in exits:
            ipdom[id(exit_block)] = exit_block

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[id(a)] > index[id(b)]:
                    a = ipdom[id(a)]
                while index[id(b)] > index[id(a)]:
                    b = ipdom[id(b)]
            return a

        changed = True
        while changed:
            changed = False
            for block in order:
                if block in exits:
                    continue
                candidates = [p for p in reversed_pred[id(block)]
                              if id(p) in ipdom and id(p) in index]
                if not candidates:
                    continue
                new_ipdom = candidates[0]
                for other in candidates[1:]:
                    new_ipdom = intersect(new_ipdom, other)
                if ipdom.get(id(block)) is not new_ipdom:
                    ipdom[id(block)] = new_ipdom
                    changed = True
        return cls(ipdom, order)

    def ipostdom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate post-dominator (``None`` for exit blocks/unreachable)."""
        parent = self._ipdom.get(id(block))
        if parent is block:
            return None
        return parent

    def postdominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` post-dominate ``b``?"""
        intervals = self._intervals
        if intervals is None:
            intervals = self._intervals = self._number()
        outer = intervals.get(id(a))
        inner = intervals.get(id(b))
        if outer is None or inner is None:
            return False
        return outer[0] <= inner[0] and inner[1] <= outer[1]

    def _number(self) -> Dict[int, Tuple[int, int]]:
        children: Dict[int, List[BasicBlock]] = {id(b): [] for b in self._order}
        roots: List[BasicBlock] = []
        for block in self._order:
            parent = self._ipdom.get(id(block))
            if parent is None or parent is block:
                roots.append(block)
            else:
                children[id(parent)].append(block)
        return _tree_intervals(roots, children)


def _tree_intervals(roots: Iterable[BasicBlock], children: Dict[int, List[BasicBlock]]
                    ) -> Dict[int, Tuple[int, int]]:
    """DFS ``(enter, exit)`` numbers of every block of a tree or forest.

    ``a`` is an ancestor of ``b`` (or ``b`` itself) exactly when ``a``'s
    interval contains ``b``'s.
    """
    intervals: Dict[int, Tuple[int, int]] = {}
    clock = 0
    for root in roots:
        stack = [(root, iter(children[id(root)]), clock)]
        clock += 1
        while stack:
            block, pending, enter = stack[-1]
            child = next(pending, None)
            if child is None:
                stack.pop()
                intervals[id(block)] = (enter, clock)
            else:
                stack.append((child, iter(children[id(child)]), clock))
                clock += 1
    return intervals


def _compute_idoms(order: List[BasicBlock], preds: Dict[BasicBlock, List[BasicBlock]]
                   ) -> Dict[int, Optional[BasicBlock]]:
    """Cooper–Harvey–Kennedy iterative immediate-dominator computation."""
    if not order:
        return {}
    index = {id(b): i for i, b in enumerate(order)}
    entry = order[0]
    idom: Dict[int, Optional[BasicBlock]] = {id(entry): entry}

    def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] > index[id(a)]:
                b = idom[id(b)]
        return a

    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            candidates = [p for p in preds[block] if id(p) in idom and id(p) in index]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(id(block)) is not new_idom:
                idom[id(block)] = new_idom
                changed = True
    return idom


__all__ = ["DominatorTree", "PostDominatorTree"]
