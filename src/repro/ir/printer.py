"""Textual printer for the LLVM-like IR.

The output syntax deliberately mirrors LLVM assembly so that IR written in
tests and documentation reads familiarly, and so the companion parser can
round-trip it.  Anonymous values are assigned ``%0``, ``%1``, ... names on
the fly exactly as ``llvm-as`` would.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

from .instructions import (
    Alloca,
    Branch,
    Call,
    Cast,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from .module import Function, Module
from .types import Type, VoidType
from .values import Constant, GlobalVariable, Value


class _Namer:
    """Assigns stable, unique textual names within one function.

    It also memoizes each named value's operand text (``%x``) and each
    type's text.  Those memos are keyed by ``id``, which is safe because a
    namer lives for one print of one function, whose values and types all
    stay alive meanwhile.
    """

    def __init__(self) -> None:
        self._names: Dict[int, str] = {}
        self._used: set = set()
        self._counter = 0
        self._refs: Dict[int, str] = {}
        self._types: Dict[int, str] = {}

    def name_of(self, value: Value) -> str:
        key = id(value)
        if key in self._names:
            return self._names[key]
        base = value.name
        if not base:
            name = str(self._counter)
            self._counter += 1
        else:
            name = base
            suffix = 1
            while name in self._used:
                name = f"{base}.{suffix}"
                suffix += 1
        self._names[key] = name
        self._refs[key] = f"%{name}"
        self._used.add(name)
        return name

    def texts(self, values: Sequence[Value]) -> List[str]:
        """Each operand's text without its type (``%x``, ``@g``, ``7``).

        Values are named in order, so a value's first mention names it.
        """
        refs = self._refs
        texts = []
        for value in values:
            text = refs.get(id(value))
            if text is None:
                if isinstance(value, Constant):
                    text = value.ref()
                elif isinstance(value, (GlobalVariable, Function)):
                    text = f"@{value.name}"
                else:
                    text = f"%{self.name_of(value)}"
            texts.append(text)
        return texts

    def typed(self, values: Sequence[Value]) -> List[str]:
        """Each operand's text prefixed with its type (``i32 %x``)."""
        types = self._types
        typed = []
        for value, text in zip(values, self.texts(values)):
            type_text = types.get(id(value.type))
            if type_text is None:
                type_text = types[id(value.type)] = str(value.type)
            typed.append(f"{type_text} {text}")
        return typed

    def type_text(self, type_: Type) -> str:
        text = self._types.get(id(type_))
        if text is None:
            text = self._types[id(type_)] = str(type_)
        return text

    def result(self, inst: Instruction) -> str:
        """``%name = `` for an instruction that defines a register, else ``""``."""
        if isinstance(inst.type, VoidType):
            return ""
        return f"%{self.name_of(inst)} = "


# One formatter per instruction class.  Each names the instruction's
# result (if it has one), then its operands in printed order, so anonymous
# values number as ``llvm-as`` numbers them.

def _format_generic(inst: Instruction, namer: _Namer) -> str:
    # Binary operators (and any future simple opcode).
    result = namer.result(inst)
    ops = inst.operands
    operands = ", ".join(namer.typed(ops[:1]) + namer.texts(ops[1:]))
    return f"{result}{inst.opcode} {operands}"


def _format_icmp(inst: ICmp, namer: _Namer) -> str:
    result = namer.result(inst)
    ops = inst.operands
    (lhs,), (rhs,) = namer.typed(ops[:1]), namer.texts(ops[1:])
    return f"{result}icmp {inst.predicate} {lhs}, {rhs}"


def _format_select(inst: Select, namer: _Namer) -> str:
    result = namer.result(inst)
    return f"{result}select {', '.join(namer.typed(inst.operands))}"


def _format_cast(inst: Cast, namer: _Namer) -> str:
    result = namer.result(inst)
    (value,) = namer.typed(inst.operands)
    return f"{result}{inst.opcode} {value} to {namer.type_text(inst.type)}"


def _format_alloca(inst: Alloca, namer: _Namer) -> str:
    result = namer.result(inst)
    allocated = namer.type_text(inst.allocated_type)
    if inst.operands:
        (count,) = namer.typed(inst.operands)
        return f"{result}alloca {allocated}, {count}"
    return f"{result}alloca {allocated}"


def _format_load(inst: Load, namer: _Namer) -> str:
    result = namer.result(inst)
    (pointer,) = namer.typed(inst.operands)
    return f"{result}load {namer.type_text(inst.type)}, {pointer}"


def _format_store(inst: Store, namer: _Namer) -> str:
    value, pointer = namer.typed(inst.operands)
    return f"store {value}, {pointer}"


def _format_gep(inst: GetElementPtr, namer: _Namer) -> str:
    result = namer.result(inst)
    pointer, *indices = namer.typed(inst.operands)
    return (f"{result}getelementptr {namer.type_text(inst.source_type)}, "
            f"{pointer}, {', '.join(indices)}")


def _format_phi(inst: Phi, namer: _Namer) -> str:
    result = namer.result(inst)
    texts = namer.texts(inst.operands)
    pairs = ", ".join([f"[ {texts[i]}, {texts[i + 1]} ]" for i in range(0, len(texts), 2)])
    return f"{result}phi {namer.type_text(inst.type)} {pairs}"


def _format_call(inst: Call, namer: _Namer) -> str:
    result = namer.result(inst)
    ops = inst.operands
    args = ", ".join(namer.typed(ops[1:]))
    (callee,) = namer.texts(ops[:1])
    return f"{result}call {namer.type_text(inst.type)} {callee}({args})"


def _format_branch(inst: Branch, namer: _Namer) -> str:
    ops = inst.operands
    if len(ops) == 3:
        (condition,), (if_true, if_false) = namer.typed(ops[:1]), namer.texts(ops[1:])
        return f"br {condition}, label {if_true}, label {if_false}"
    return f"br label {namer.texts(ops)[0]}"


def _format_ret(inst: Ret, namer: _Namer) -> str:
    if not inst.operands:
        return "ret void"
    return f"ret {namer.typed(inst.operands)[0]}"


def _format_unreachable(inst: Unreachable, namer: _Namer) -> str:
    return "unreachable"


_FORMATTERS: Dict[type, Callable[[Instruction, _Namer], str]] = {
    Instruction: _format_generic,
    ICmp: _format_icmp,
    Select: _format_select,
    Cast: _format_cast,
    Alloca: _format_alloca,
    Load: _format_load,
    Store: _format_store,
    GetElementPtr: _format_gep,
    Phi: _format_phi,
    Call: _format_call,
    Branch: _format_branch,
    Ret: _format_ret,
    Unreachable: _format_unreachable,
}


@lru_cache(maxsize=None)
def _formatter(cls: type) -> Callable[[Instruction, _Namer], str]:
    """The formatter of ``cls`` or of its nearest listed base class."""
    return next(_FORMATTERS[base] for base in cls.__mro__ if base in _FORMATTERS)


def print_instruction(inst: Instruction, namer: Optional[_Namer] = None) -> str:
    """Render one instruction as a line of assembly (no indentation)."""
    return _formatter(type(inst))(inst, namer or _Namer())


def print_function(function: Function) -> str:
    """Render a function definition or declaration."""
    namer = _Namer()
    params = ", ".join(
        f"{arg.type} %{namer.name_of(arg)}" for arg in function.args
    )
    attrs = (" " + " ".join(sorted(function.attributes))) if function.attributes else ""
    header = f"{function.return_type} @{function.name}({params})"
    if function.is_declaration:
        return f"declare {header}{attrs}"
    lines = [f"define {header}{attrs} {{"]
    for block in function.blocks:
        lines.append(f"{namer.name_of(block)}:")
        for inst in block.instructions:
            lines.append(f"  {_formatter(type(inst))(inst, namer)}")
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    """Render a whole module."""
    parts = [f"; ModuleID = '{module.name}'"]
    for global_var in module.globals.values():
        init = global_var.initializer.ref() if global_var.initializer is not None else "undef"
        kind = "constant" if global_var.is_constant else "global"
        parts.append(f"@{global_var.name} = {kind} {global_var.value_type} {init}")
    for function in module.functions.values():
        parts.append("")
        parts.append(print_function(function))
    return "\n".join(parts) + "\n"


__all__ = ["print_instruction", "print_function", "print_module"]
