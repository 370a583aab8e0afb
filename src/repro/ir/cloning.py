"""Deep copying of functions and modules.

Cloning is used by the validation driver (keep the original function while
the optimizer mutates a copy), by the loop-unswitching pass (duplicate a
loop body) and by tests that want to compare a pass's output against a
pristine input.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

from .instructions import Instruction
from .module import BasicBlock, Function, Module
from .values import GlobalVariable, Value

#: ``Instruction`` slots every copy sets itself; the rest are copied.
_OWN_SLOTS = frozenset(("type", "name", "opcode", "operands", "parent"))


@lru_cache(maxsize=None)
def _extra_slots(cls: type) -> Tuple[str, ...]:
    """The slots of ``cls`` beyond :data:`_OWN_SLOTS` (``predicate``, ...)."""
    return tuple(slot for klass in cls.__mro__ for slot in klass.__dict__.get("__slots__", ())
                 if slot not in _OWN_SLOTS)


def _copy_shell(inst: Instruction, parent: Optional[BasicBlock]) -> Instruction:
    """A copy of ``inst`` in ``parent`` whose ``operands`` the caller sets.

    Every instruction class declares ``__slots__``, so an instruction is
    exactly its slots and copying them copies the instruction.  Slot values
    are shared: opcodes and names are strings, and types are immutable.
    No constructor runs, so nothing is re-validated or re-allocated.
    """
    cls = type(inst)
    new = object.__new__(cls)
    new.type = inst.type
    new.name = inst.name
    new.opcode = inst.opcode
    new.parent = parent
    for slot in _extra_slots(cls):
        setattr(new, slot, getattr(inst, slot))
    return new


def clone_instruction(inst: Instruction, value_map: Dict[Value, Value]) -> Instruction:
    """Clone one detached instruction, mapping operands through ``value_map``.

    Operands not present in the map (constants, globals, declarations,
    values defined outside the cloned region) are shared with the original.
    """
    new = _copy_shell(inst, None)
    new.operands = [value_map.get(op, op) for op in inst.operands]
    return new


def clone_global(global_var: GlobalVariable) -> GlobalVariable:
    """Return a copy of a module-level global variable.

    The initializer constant is shared (constants are treated as
    immutable); the :class:`GlobalVariable` object itself — whose
    ``initializer``/``is_constant`` fields are mutable — is fresh, so a
    module holding the clone shares no mutable structure with the module
    holding the original.
    """
    return GlobalVariable(
        global_var.name,
        global_var.value_type,
        global_var.initializer,
        global_var.is_constant,
    )


def clone_function(function: Function, new_name: Optional[str] = None,
                   value_map: Optional[Dict[Value, Value]] = None) -> Function:
    """Return a deep copy of ``function``.

    Constants and module-level values (globals, declared functions) are
    shared; arguments, blocks and instructions are fresh objects, and every
    instruction gets a fresh operand list.  A ``value_map`` seed remaps
    additional operands during cloning — the driver passes
    ``{old global: cloned global}`` so a cloned function references its own
    module's globals instead of the input module's.

    Each instruction is copied slot by slot (:func:`_copy_shell`); once
    every copy exists, one pass maps all operands, so forward references
    (φ incoming values from back edges) need no fix-up.  The map is keyed
    by ``id``: every key is held by ``function`` or the seed for the whole
    call, and constant operands skip their structural ``__hash__``.
    """
    clone = Function(
        new_name or function.name,
        function.function_type,
        [a.name for a in function.args],
        function.attributes,
    )
    mapped: Dict[int, Value] = {id(old): new for old, new in value_map.items()} if value_map else {}
    for old_arg, new_arg in zip(function.args, clone.args):
        mapped[id(old_arg)] = new_arg

    copies = []
    for block in function.blocks:
        new_block = BasicBlock(block.name, parent=clone)
        clone.blocks.append(new_block)
        mapped[id(block)] = new_block
        new_instructions = new_block.instructions
        for inst in block.instructions:
            new = _copy_shell(inst, new_block)
            mapped[id(inst)] = new
            new_instructions.append(new)
            copies.append((inst.operands, new))

    get = mapped.get
    for operands, new in copies:
        new.operands = [get(id(op), op) for op in operands]
    return clone


def clone_globals_into(module: Module, new_module: Module) -> Dict[Value, Value]:
    """Clone every global of ``module`` into ``new_module``.

    Returns the ``{original: clone}`` map callers pass to
    :func:`clone_function` (or use to remap already-cloned bodies) so the
    new module's functions reference its own globals, never the input's.
    """
    global_map: Dict[Value, Value] = {}
    for global_var in module.globals.values():
        cloned = clone_global(global_var)
        global_map[global_var] = cloned
        new_module.add_global(cloned)
    return global_map


def clone_module(module: Module) -> Module:
    """Return a deep copy of a module (globals and functions cloned)."""
    new_module = Module(module.name)
    global_map = clone_globals_into(module, new_module)
    for function in module.functions.values():
        if function.is_declaration:
            new_module.add_function(function)
        else:
            new_module.add_function(clone_function(function, value_map=global_map))
    return new_module


__all__ = ["clone_instruction", "clone_function", "clone_global",
           "clone_globals_into", "clone_module"]
