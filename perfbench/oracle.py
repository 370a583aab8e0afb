"""The correctness check: verdicts cross-checked by the reference interpreter.

Runs outside every timed region.  Two counts, each against its attempts:

``false_accepts``
    Functions whose kept body is not the original (the validator proved
    the whole pipeline or a prefix of it) and that disagree with the
    original on a seeded argument vector.
``missed_bugs``
    On a seeded sample of the functions, each injector of
    ``repro.transforms.ALL_BUGGY_PASSES`` runs after the pipeline; a
    bug the interpreter can observe but the validator accepts is missed.

Agreement is the validator's partial-equivalence promise: when both sides
run to completion they return the same value and leave the globals equal;
a run that traps or exhausts its step budget constrains nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import repro.validator as validator
from repro.errors import InterpreterError
from repro.ir import Interpreter, clone_function
from repro.ir.module import Function, Module
from repro.transforms import ALL_BUGGY_PASSES, get_pass

#: Marker for an execution that raised (trap, step budget, ...).
TRAP = ("trap",)
#: Argument vectors per function and the range their values come from.
VECTORS = 6
ARG_RANGE = (-20, 100)
MAX_STEPS = 20_000
#: Functions per run that get every injected miscompilation.
BUG_SAMPLE = 4


def observe(module: Module, function: Function, args: Sequence[int]):
    """Return value and final globals, or :data:`TRAP`; a fresh interpreter per run."""
    interpreter = Interpreter(module, max_steps=MAX_STEPS)
    try:
        result = interpreter.run(function, list(args))
    except InterpreterError:
        return TRAP
    final_globals = tuple(
        interpreter.memory.get(interpreter.global_addresses[name])
        for name in sorted(interpreter.global_addresses))
    return ("ok", result.return_value, final_globals)


def disagree(module: Module, before: Function, after: Function,
             vectors: List[List[int]]) -> bool:
    """Does some vector on which both sides complete give different results?"""
    for args in vectors:
        expected = observe(module, before, args)
        if expected == TRAP:
            continue
        actual = observe(module, after, args)
        if actual != TRAP and actual != expected:
            return True
    return False


def argument_vectors(rng: random.Random, function: Function) -> List[List[int]]:
    return [[rng.randint(*ARG_RANGE) for _ in function.args] for _ in range(VECTORS)]


@dataclass
class OracleResult:
    accepted_checked: int = 0
    false_accepts: int = 0
    bugs_injected: int = 0
    bugs_observable: int = 0
    missed_bugs: int = 0


def check(kept: Dict[Tuple[str, str], Tuple[Function, Function]],
          modules: Sequence[Module], seed: int) -> OracleResult:
    """Cross-check one sweep's kept bodies and a sample of injected bugs."""
    by_label = {module.name: module for module in modules}
    rng = random.Random(seed)
    outcome = OracleResult()
    keys = sorted(kept)
    for key in keys:
        original, body = kept[key]
        if body is original:
            continue
        outcome.accepted_checked += 1
        if disagree(by_label[key[0]], original, body, argument_vectors(rng, original)):
            outcome.false_accepts += 1
    for key in rng.sample(keys, min(BUG_SAMPLE, len(keys))):
        module = by_label[key[0]]
        _, body = kept[key]
        vectors = argument_vectors(rng, body)
        for bug in ALL_BUGGY_PASSES:
            mutated = clone_function(body)
            if not get_pass(bug)(mutated):
                continue
            outcome.bugs_injected += 1
            observable = disagree(module, body, mutated, vectors)
            outcome.bugs_observable += observable
            result, _ = validator.validate_function_pipeline(body, (bug,), strategy="whole")
            if observable and result is not body:
                outcome.missed_bugs += 1
    return outcome
