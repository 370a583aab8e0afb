"""Sparse conditional constant propagation (SCCP).

The classical Wegman–Zadeck algorithm over the three-level lattice
``undefined ⊏ constant ⊏ overdefined``, tracking executable CFG edges so
that constants can propagate through branches that are statically decided.
After the fixpoint:

* every instruction whose lattice value is a constant is replaced by that
  constant,
* conditional branches on constant conditions are rewritten to
  unconditional branches,
* blocks that became unreachable are removed (φ-nodes in the survivors are
  fixed up accordingly).

SCCP subsumes plain constant propagation and constant folding, which is
why the paper's pipeline carries only SCCP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.cfg import remove_unreachable_blocks
from ..ir.instructions import (
    BinaryOperator,
    Branch,
    Call,
    Cast,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import BasicBlock, Function, UseIndex
from ..ir.types import IntType
from ..ir.values import Argument, Constant, ConstantInt, UndefValue, Value
from .constfold import fold_binary_constants, fold_cast, fold_icmp_constants
from .pass_manager import register_pass

_UNDEFINED = "undefined"
_CONSTANT = "constant"
_OVERDEFINED = "overdefined"


class _Lattice:
    """Per-value lattice cell."""

    __slots__ = ("state", "constant")

    def __init__(self):
        self.state = _UNDEFINED
        self.constant: Optional[ConstantInt] = None

    def mark_constant(self, constant: ConstantInt) -> bool:
        """Lower to ``constant``; returns ``True`` if the cell changed."""
        if self.state == _OVERDEFINED:
            return False
        if self.state == _CONSTANT:
            if self.constant == constant:
                return False
            self.state = _OVERDEFINED
            self.constant = None
            return True
        self.state = _CONSTANT
        self.constant = constant
        return True

    def mark_overdefined(self) -> bool:
        """Lower to overdefined; returns ``True`` if the cell changed."""
        if self.state == _OVERDEFINED:
            return False
        self.state = _OVERDEFINED
        self.constant = None
        return True


class _SCCPSolver:
    def __init__(self, function: Function):
        self.function = function
        self.cells: Dict[int, _Lattice] = {}
        self.executable_edges: Set[Tuple[int, int]] = set()
        self.executable_blocks: Set[int] = set()
        self.block_worklist: List[BasicBlock] = []
        self.value_worklist: List[Instruction] = []
        # Static def→users map (the pass does not mutate the IR while solving).
        self.users: Dict[int, List[Instruction]] = {}
        for inst in function.instructions():
            for operand in inst.operands:
                self.users.setdefault(id(operand), []).append(inst)

    # -- lattice helpers -----------------------------------------------------
    def cell(self, value: Value) -> _Lattice:
        if id(value) not in self.cells:
            self.cells[id(value)] = _Lattice()
        return self.cells[id(value)]

    def value_state(self, value: Value) -> Tuple[str, Optional[ConstantInt]]:
        if isinstance(value, ConstantInt):
            return _CONSTANT, value
        if isinstance(value, UndefValue):
            return _UNDEFINED, None
        if isinstance(value, Constant):
            return _OVERDEFINED, None
        if isinstance(value, Argument):
            return _OVERDEFINED, None
        if isinstance(value, Instruction):
            cell = self.cell(value)
            return cell.state, cell.constant
        return _OVERDEFINED, None

    def _lowered(self, inst: Instruction, changed: bool) -> None:
        if changed:
            self.value_worklist.append(inst)

    # -- solver ---------------------------------------------------------------
    def solve(self) -> None:
        entry = self.function.entry
        self._mark_block_executable(entry)
        while self.block_worklist or self.value_worklist:
            while self.value_worklist:
                inst = self.value_worklist.pop()
                self._propagate_users(inst)
            while self.block_worklist:
                block = self.block_worklist.pop()
                for inst in block.instructions:
                    self.visit(inst)

    def _mark_block_executable(self, block: BasicBlock) -> None:
        if id(block) in self.executable_blocks:
            return
        self.executable_blocks.add(id(block))
        self.block_worklist.append(block)

    def _mark_edge_executable(self, source: BasicBlock, target: BasicBlock) -> None:
        edge = (id(source), id(target))
        if edge in self.executable_edges:
            return
        self.executable_edges.add(edge)
        if id(target) in self.executable_blocks:
            # Re-visit the φ-nodes: a new incoming edge may lower them.
            for phi in target.phis():
                self.visit(phi)
        else:
            self._mark_block_executable(target)

    def _propagate_users(self, value: Instruction) -> None:
        for inst in self.users.get(id(value), ()):
            if inst.parent is not None and id(inst.parent) in self.executable_blocks:
                self.visit(inst)

    # -- transfer functions ------------------------------------------------------
    def visit(self, inst: Instruction) -> None:
        if isinstance(inst, Phi):
            self._visit_phi(inst)
        elif isinstance(inst, Branch):
            self._visit_branch(inst)
        elif isinstance(inst, (BinaryOperator, ICmp, Cast, Select)):
            self._visit_foldable(inst)
        elif isinstance(inst, (Load, Call)):
            self._lowered(inst, self.cell(inst).mark_overdefined())
        elif isinstance(inst, (Store, Ret)):
            pass
        elif inst.has_result():
            self._lowered(inst, self.cell(inst).mark_overdefined())

    def _visit_phi(self, phi: Phi) -> None:
        cell = self.cell(phi)
        if cell.state == _OVERDEFINED:
            return
        merged_state = _UNDEFINED
        merged_const: Optional[ConstantInt] = None
        for value, pred in phi.incoming:
            if (id(pred), id(phi.parent)) not in self.executable_edges:
                continue
            state, constant = self.value_state(value)
            if state == _UNDEFINED:
                continue
            if state == _OVERDEFINED:
                self._lowered(phi, cell.mark_overdefined())
                return
            if merged_state == _UNDEFINED:
                merged_state, merged_const = _CONSTANT, constant
            elif merged_const != constant:
                self._lowered(phi, cell.mark_overdefined())
                return
        if merged_state == _CONSTANT and merged_const is not None:
            self._lowered(phi, cell.mark_constant(merged_const))

    def _visit_branch(self, branch: Branch) -> None:
        block = branch.parent
        if not branch.is_conditional:
            self._mark_edge_executable(block, branch.targets[0])
            return
        state, constant = self.value_state(branch.condition)
        if state == _CONSTANT and constant is not None:
            target = branch.targets[0] if constant.value != 0 else branch.targets[1]
            self._mark_edge_executable(block, target)
        elif state == _OVERDEFINED:
            self._mark_edge_executable(block, branch.targets[0])
            self._mark_edge_executable(block, branch.targets[1])
        # undefined: neither edge is executable yet.

    def _visit_foldable(self, inst: Instruction) -> None:
        cell = self.cell(inst)
        if cell.state == _OVERDEFINED:
            return
        states = [self.value_state(op) for op in inst.operands]
        if any(state == _OVERDEFINED for state, _ in states):
            # A select with a known constant condition only depends on one arm.
            if isinstance(inst, Select):
                cond_state, cond_const = states[0]
                if cond_state == _CONSTANT and cond_const is not None:
                    arm_state, arm_const = states[1] if cond_const.value != 0 else states[2]
                    if arm_state == _CONSTANT and arm_const is not None:
                        self._lowered(inst, cell.mark_constant(arm_const))
                        return
            self._lowered(inst, cell.mark_overdefined())
            return
        if any(state == _UNDEFINED for state, _ in states):
            return
        constants = [constant for _, constant in states]
        folded = self._fold(inst, constants)
        if folded is None:
            self._lowered(inst, cell.mark_overdefined())
        else:
            self._lowered(inst, cell.mark_constant(folded))

    @staticmethod
    def _fold(inst: Instruction, constants: List[ConstantInt]) -> Optional[ConstantInt]:
        if isinstance(inst, BinaryOperator):
            return fold_binary_constants(inst.opcode, constants[0], constants[1])
        if isinstance(inst, ICmp):
            return fold_icmp_constants(inst.predicate, constants[0], constants[1])
        if isinstance(inst, Cast):
            value = constants[0]
            if isinstance(inst.type, IntType) and isinstance(value.type, IntType):
                folded = fold_cast(inst.opcode, value.value, value.type.bits, inst.type.bits)
                if folded is not None:
                    return ConstantInt(inst.type, folded)
            return None
        if isinstance(inst, Select):
            condition, if_true, if_false = constants
            return if_true if condition.value != 0 else if_false
        return None


@register_pass("sccp")
def sccp(function: Function) -> bool:
    """Run SCCP on ``function``.  Returns ``True`` if changed."""
    if function.is_declaration:
        return False
    solver = _SCCPSolver(function)
    solver.solve()

    changed = False
    # Replace constant instructions.
    uses = UseIndex(function)
    for block in function.blocks:
        for inst in list(block.instructions):
            if not inst.has_result() or inst.has_side_effects():
                continue
            cell = solver.cells.get(id(inst))
            if cell is not None and cell.state == _CONSTANT and cell.constant is not None:
                uses.replace_all_uses(inst, cell.constant)
                block.remove(inst)
                changed = True

    # Rewrite branches whose condition is now a constant, and branches whose
    # only executable successor was decided by the solver.
    for block in function.blocks:
        terminator = block.terminator
        if not isinstance(terminator, Branch) or not terminator.is_conditional:
            continue
        condition = terminator.condition
        target: Optional[BasicBlock] = None
        if isinstance(condition, ConstantInt):
            target = terminator.targets[0] if condition.value != 0 else terminator.targets[1]
        if target is not None:
            dead_target = (
                terminator.targets[1] if target is terminator.targets[0] else terminator.targets[0]
            )
            block.remove(terminator)
            block.append(Branch(target))
            if dead_target is not target:
                for phi in dead_target.phis():
                    phi.remove_incoming(block)
            changed = True

    if remove_unreachable_blocks(function):
        changed = True
    return changed


__all__ = ["sccp"]
