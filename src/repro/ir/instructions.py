"""Instruction classes for the LLVM-like IR.

Each instruction is itself a :class:`~repro.ir.values.Value` (its result),
holds an ordered list of operand values, and knows which basic block it
lives in.  Operand edges reference :class:`Value` objects directly; there
is no use-list kept on the IR.  A pass that replaces uses builds a
:class:`~repro.ir.module.UseIndex` for its run; one-off def-use queries
use :func:`repro.analysis.usedef.users_of`.

Every instruction class declares ``__slots__``, so an instruction is
exactly its slots and :mod:`repro.ir.cloning` copies one slot by slot.

Supported opcodes closely follow LLVM's integer subset:

* binary arithmetic: ``add sub mul sdiv udiv srem urem and or xor shl lshr ashr``
  plus float variants ``fadd fsub fmul fdiv``
* comparisons: ``icmp`` with ten predicates
* ``select``, casts (``zext sext trunc bitcast ptrtoint inttoptr``)
* memory: ``alloca load store getelementptr``
* control flow: ``br`` (conditional/unconditional), ``ret``, ``unreachable``
* ``phi`` and ``call``
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .types import IntType, PointerType, Type, VoidType
from .values import Value

#: Opcodes of integer binary operators.
INT_BINARY_OPS = (
    "add",
    "sub",
    "mul",
    "sdiv",
    "udiv",
    "srem",
    "urem",
    "and",
    "or",
    "xor",
    "shl",
    "lshr",
    "ashr",
)

#: Opcodes of floating point binary operators.
FLOAT_BINARY_OPS = ("fadd", "fsub", "fmul", "fdiv")

#: All binary operator opcodes.
BINARY_OPS = INT_BINARY_OPS + FLOAT_BINARY_OPS

#: Binary operators that commute (used by normalization and GVN).
COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})

#: icmp predicates.
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")

#: Cast opcodes.
CAST_OPS = ("zext", "sext", "trunc", "bitcast", "ptrtoint", "inttoptr")

#: Maps a predicate to the predicate with swapped operands.
SWAPPED_PREDICATE = {
    "eq": "eq",
    "ne": "ne",
    "slt": "sgt",
    "sle": "sge",
    "sgt": "slt",
    "sge": "sle",
    "ult": "ugt",
    "ule": "uge",
    "ugt": "ult",
    "uge": "ule",
}

#: Maps a predicate to its logical negation.
NEGATED_PREDICATE = {
    "eq": "ne",
    "ne": "eq",
    "slt": "sge",
    "sle": "sgt",
    "sgt": "sle",
    "sge": "slt",
    "ult": "uge",
    "ule": "ugt",
    "ugt": "ule",
    "uge": "ult",
}


class Instruction(Value):
    """Base class of all instructions.

    Attributes
    ----------
    opcode:
        The instruction's opcode string (``"add"``, ``"load"``, ...).
    operands:
        The ordered list of operand :class:`Value` objects.  Mutating this
        list in place (e.g. during replace-all-uses) is permitted.
    parent:
        The :class:`~repro.ir.module.BasicBlock` containing the instruction,
        or ``None`` while detached.
    """

    __slots__ = ("opcode", "operands", "parent")

    def __init__(self, opcode: str, type_: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(type_, name)
        self.opcode = opcode
        self.operands: List[Value] = list(operands)
        self.parent = None

    # -- classification -------------------------------------------------
    def is_terminator(self) -> bool:
        """Return ``True`` for instructions that end a basic block."""
        return isinstance(self, (Branch, Ret, Unreachable))

    def has_result(self) -> bool:
        """Return ``True`` if the instruction defines an SSA register."""
        return not isinstance(self.type, VoidType)

    def may_read_memory(self) -> bool:
        """Conservative: does executing this instruction read memory?"""
        if isinstance(self, Load):
            return True
        if isinstance(self, Call):
            return not self.is_readnone()
        return False

    def may_write_memory(self) -> bool:
        """Conservative: does executing this instruction write memory?"""
        if isinstance(self, Store):
            return True
        if isinstance(self, Call):
            return not (self.is_readnone() or self.is_readonly())
        return False

    def has_side_effects(self) -> bool:
        """Return ``True`` if the instruction cannot be freely removed.

        Stores, calls to non-``readnone`` functions and terminators are
        side-effecting.  ``alloca`` is treated as removable when unused.
        """
        if self.is_terminator():
            return True
        if isinstance(self, Store):
            return True
        if isinstance(self, Call):
            return not self.is_readnone()
        return False

    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every occurrence of ``old`` among the operands.

        Returns the number of replacements made.
        """
        count = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ops = ", ".join(op.ref() for op in self.operands)
        return f"<{self.opcode} {self.ref()} [{ops}]>"


class BinaryOperator(Instruction):
    """A two-operand arithmetic/logical instruction."""

    __slots__ = ()

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPS:
            raise ValueError(f"unknown binary opcode: {opcode}")
        super().__init__(opcode, lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPS


class ICmp(Instruction):
    """Integer/pointer comparison producing an ``i1``."""

    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        super().__init__("icmp", IntType(1), [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class Select(Instruction):
    """``select i1 %c, T %a, T %b`` — a value-level conditional."""

    __slots__ = ()

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        super().__init__("select", if_true.type, [cond, if_true, if_false], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def if_true(self) -> Value:
        return self.operands[1]

    @property
    def if_false(self) -> Value:
        return self.operands[2]


class Cast(Instruction):
    """A value cast: ``zext``, ``sext``, ``trunc``, ``bitcast``, ...."""

    __slots__ = ()

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = ""):
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode: {opcode}")
        super().__init__(opcode, to_type, [value], name)

    @property
    def value(self) -> Value:
        return self.operands[0]


class Alloca(Instruction):
    """Stack allocation; yields a pointer to fresh, non-aliased storage."""

    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: Type, count: Optional[Value] = None, name: str = ""):
        operands = [count] if count is not None else []
        super().__init__("alloca", PointerType(allocated_type), operands, name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Load(Instruction):
    """Load a value of the pointee type from a pointer."""

    __slots__ = ()

    def __init__(self, pointer: Value, name: str = ""):
        if not isinstance(pointer.type, PointerType):
            raise TypeError("load requires a pointer operand")
        super().__init__("load", pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class Store(Instruction):
    """Store a value through a pointer.  Produces no result."""

    __slots__ = ()

    def __init__(self, value: Value, pointer: Value):
        if not isinstance(pointer.type, PointerType):
            raise TypeError("store requires a pointer operand")
        super().__init__("store", VoidType(), [value, pointer])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class GetElementPtr(Instruction):
    """Pointer arithmetic: compute the address of an element.

    The reproduction uses a simplified, single-index flavour over arrays and
    raw pointers: ``getelementptr T, T* %p, iN %idx`` computes
    ``%p + %idx`` elements.  That is sufficient for the workloads in the
    benchmark corpora and keeps the alias rules easy to state.
    """

    __slots__ = ("source_type",)

    def __init__(self, source_type: Type, pointer: Value, indices: Sequence[Value], name: str = ""):
        if not isinstance(pointer.type, PointerType):
            raise TypeError("getelementptr requires a pointer operand")
        super().__init__("getelementptr", pointer.type, [pointer, *indices], name)
        self.source_type = source_type

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]


class Phi(Instruction):
    """SSA φ-node: selects a value according to the predecessor edge taken.

    ``incoming`` pairs each value with the predecessor *block* it flows in
    from.  Blocks are stored as operands too (they are values of label
    type), interleaved as ``[v0, b0, v1, b1, ...]``.
    """

    __slots__ = ()

    def __init__(self, type_: Type, incoming: Sequence[Tuple[Value, "Value"]] = (), name: str = ""):
        operands: List[Value] = []
        for value, block in incoming:
            operands.extend([value, block])
        super().__init__("phi", type_, operands, name)

    @property
    def incoming(self) -> List[Tuple[Value, Value]]:
        """List of ``(value, predecessor_block)`` pairs."""
        ops = self.operands
        return [(ops[i], ops[i + 1]) for i in range(0, len(ops), 2)]

    def add_incoming(self, value: Value, block: Value) -> None:
        """Append an incoming edge."""
        self.operands.extend([value, block])

    def incoming_for(self, block: Value) -> Optional[Value]:
        """Return the value flowing in from ``block``, or ``None``."""
        for value, pred in self.incoming:
            if pred is block:
                return value
        return None

    def remove_incoming(self, block: Value) -> None:
        """Drop the incoming edge from ``block`` if present."""
        ops = self.operands
        for i in range(0, len(ops), 2):
            if ops[i + 1] is block:
                del ops[i : i + 2]
                return

    def set_incoming(self, block: Value, value: Value) -> None:
        """Replace the value flowing in from ``block``."""
        ops = self.operands
        for i in range(0, len(ops), 2):
            if ops[i + 1] is block:
                ops[i] = value
                return
        raise KeyError(f"phi has no incoming edge from {block.name}")


class Call(Instruction):
    """A direct call to a function or external declaration."""

    __slots__ = ()

    def __init__(self, callee: Value, args: Sequence[Value], return_type: Type, name: str = ""):
        super().__init__("call", return_type, [callee, *args], name)

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]

    def _callee_attrs(self) -> frozenset:
        attrs = getattr(self.callee, "attributes", None)
        return attrs if attrs is not None else frozenset()

    def is_readonly(self) -> bool:
        """Does the callee promise not to write memory?"""
        return "readonly" in self._callee_attrs()

    def is_readnone(self) -> bool:
        """Does the callee promise not to access memory at all?"""
        return "readnone" in self._callee_attrs()


class Branch(Instruction):
    """Conditional or unconditional branch terminator."""

    __slots__ = ()

    def __init__(self, *args):
        if len(args) == 1:
            (target,) = args
            super().__init__("br", VoidType(), [target])
        elif len(args) == 3:
            cond, if_true, if_false = args
            super().__init__("br", VoidType(), [cond, if_true, if_false])
        else:
            raise TypeError("Branch takes either (target) or (cond, if_true, if_false)")

    @property
    def is_conditional(self) -> bool:
        return len(self.operands) == 3

    @property
    def condition(self) -> Value:
        if not self.is_conditional:
            raise AttributeError("unconditional branch has no condition")
        return self.operands[0]

    @property
    def targets(self) -> List[Value]:
        """Successor blocks, in (true, false) order for conditional branches."""
        if self.is_conditional:
            return [self.operands[1], self.operands[2]]
        return [self.operands[0]]

    def replace_target(self, old: Value, new: Value) -> None:
        """Redirect every edge to ``old`` towards ``new``."""
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new


class Ret(Instruction):
    """Return terminator, with or without a value."""

    __slots__ = ()

    def __init__(self, value: Optional[Value] = None):
        operands = [value] if value is not None else []
        super().__init__("ret", VoidType(), operands)

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class Unreachable(Instruction):
    """Marks statically unreachable control flow."""

    __slots__ = ()

    def __init__(self):
        super().__init__("unreachable", VoidType(), [])


__all__ = [
    "Instruction",
    "BinaryOperator",
    "ICmp",
    "Select",
    "Cast",
    "Alloca",
    "Load",
    "Store",
    "GetElementPtr",
    "Phi",
    "Call",
    "Branch",
    "Ret",
    "Unreachable",
    "INT_BINARY_OPS",
    "FLOAT_BINARY_OPS",
    "BINARY_OPS",
    "COMMUTATIVE_OPS",
    "ICMP_PREDICATES",
    "CAST_OPS",
    "SWAPPED_PREDICATE",
    "NEGATED_PREDICATE",
]
