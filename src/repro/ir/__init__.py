"""LLVM-like SSA intermediate representation.

This package is the substrate the paper's validator operates on: a small,
self-contained SSA IR closely modelled on LLVM assembly, with a textual
parser/printer, a structural verifier, an :class:`IRBuilder`, deep-copy
support and a reference interpreter used for differential testing of the
optimizer.
"""

from .builder import IRBuilder, create_function, declare_function
from .cloning import clone_function, clone_global, clone_module
from .instructions import (
    Alloca,
    BinaryOperator,
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
    BINARY_OPS,
    CAST_OPS,
    COMMUTATIVE_OPS,
    ICMP_PREDICATES,
    NEGATED_PREDICATE,
    SWAPPED_PREDICATE,
)
from .interpreter import ExecutionResult, Interpreter, run_function
from .module import BasicBlock, Function, Module, UseIndex
from .parser import parse_function, parse_module
from .printer import print_function, print_instruction, print_module
from .types import (
    ArrayType,
    DOUBLE,
    FloatType,
    FunctionType,
    I1,
    I8,
    I16,
    I32,
    I64,
    IntType,
    LabelType,
    PointerType,
    Type,
    VOID,
    VoidType,
    int_type,
    ptr,
)
from .values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
    Value,
    const_bool,
    const_int,
)
from .verifier import verify_function, verify_module

__all__ = [
    # types
    "Type", "IntType", "PointerType", "FloatType", "VoidType", "LabelType",
    "ArrayType", "FunctionType", "I1", "I8", "I16", "I32", "I64", "VOID",
    "DOUBLE", "int_type", "ptr",
    # values
    "Value", "Constant", "ConstantInt", "ConstantFloat", "ConstantPointerNull",
    "UndefValue", "Argument", "GlobalVariable", "const_int", "const_bool",
    # instructions
    "Instruction", "BinaryOperator", "ICmp", "Select", "Cast", "Alloca",
    "Load", "Store", "GetElementPtr", "Phi", "Call", "Branch", "Ret",
    "Unreachable", "BINARY_OPS", "CAST_OPS", "COMMUTATIVE_OPS",
    "ICMP_PREDICATES", "NEGATED_PREDICATE", "SWAPPED_PREDICATE",
    # containers
    "BasicBlock", "Function", "Module", "UseIndex",
    # tools
    "IRBuilder", "create_function", "declare_function",
    "clone_function", "clone_global", "clone_module",
    "parse_module", "parse_function",
    "print_module", "print_function", "print_instruction",
    "verify_module", "verify_function",
    "Interpreter", "ExecutionResult", "run_function",
]
