"""CFG simplification.

A conservative subset of LLVM's ``simplifycfg`` used as a cleanup pass by
tests, by the generator (to tidy its raw output) and optionally at the end
of pipelines:

* fold conditional branches whose condition is a literal constant;
* fold conditional branches whose two targets are identical;
* delete unreachable blocks (fixing φ-nodes in the survivors);
* merge a block into its unique predecessor when that predecessor has a
  single successor (straight-line concatenation);
* drop φ-nodes with a single incoming value.
"""

from __future__ import annotations

from ..analysis.cfg import predecessor_map, remove_unreachable_blocks
from ..ir.instructions import Branch, Phi
from ..ir.module import Function, UseIndex
from ..ir.values import ConstantInt
from .pass_manager import register_pass


def _fold_constant_branches(function: Function) -> bool:
    changed = False
    for block in function.blocks:
        terminator = block.terminator
        if not isinstance(terminator, Branch) or not terminator.is_conditional:
            continue
        true_target, false_target = terminator.targets
        target = None
        if isinstance(terminator.condition, ConstantInt):
            target = true_target if terminator.condition.value != 0 else false_target
        elif true_target is false_target:
            target = true_target
        if target is None:
            continue
        dead = false_target if target is true_target else true_target
        block.remove(terminator)
        block.append(Branch(target))
        if dead is not target:
            for phi in dead.phis():
                phi.remove_incoming(block)
        changed = True
    return changed


def _merge_straight_line(function: Function) -> bool:
    changed = False
    uses = UseIndex(function)
    while True:
        preds = predecessor_map(function)
        merged = False
        for block in list(function.blocks):
            if block is function.entry:
                continue
            block_preds = preds.get(block, [])
            if len(block_preds) != 1:
                continue
            pred = block_preds[0]
            if pred is block or len(pred.successors()) != 1:
                continue
            # Fold the φ-nodes (they have exactly one incoming value).
            for phi in list(block.phis()):
                value = phi.incoming[0][0] if phi.incoming else None
                if value is not None:
                    uses.replace_all_uses(phi, value)
                block.remove(phi)
            # Splice the block's instructions after the predecessor's body.
            pred.remove(pred.terminator)
            for inst in list(block.instructions):
                block.remove(inst)
                pred.append(inst)
            # Successor φ-nodes must now name the predecessor.
            for successor in pred.successors():
                for phi in successor.phis():
                    for value, incoming_block in list(phi.incoming):
                        if incoming_block is block:
                            phi.remove_incoming(incoming_block)
                            phi.add_incoming(value, pred)
            function.remove_block(block)
            merged = True
            changed = True
            break
        if not merged:
            return changed


def _simplify_single_entry_phis(function: Function) -> bool:
    changed = False
    uses = UseIndex(function)
    for block in function.blocks:
        for phi in list(block.phis()):
            incoming = phi.incoming
            if len(incoming) == 1:
                uses.replace_all_uses(phi, incoming[0][0])
                block.remove(phi)
                changed = True
            elif incoming and all(v is incoming[0][0] for v, _ in incoming):
                uses.replace_all_uses(phi, incoming[0][0])
                block.remove(phi)
                changed = True
    return changed


@register_pass("simplifycfg")
def simplifycfg(function: Function) -> bool:
    """Run CFG simplification.  Returns ``True`` if changed."""
    changed = False
    for _ in range(8):
        round_changed = False
        round_changed |= _fold_constant_branches(function)
        round_changed |= remove_unreachable_blocks(function) > 0
        round_changed |= _merge_straight_line(function)
        round_changed |= _simplify_single_entry_phis(function)
        changed = changed or round_changed
        if not round_changed:
            break
    return changed


__all__ = ["simplifycfg"]
