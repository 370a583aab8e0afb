"""Pass manager and pass registry.

A *pass* is any callable taking a :class:`~repro.ir.module.Function` and
returning ``True`` if it changed the function.  Passes register themselves
under a short name (``"gvn"``, ``"licm"``, ...) so pipelines can be
described as lists of strings — the same way the paper describes its
pipeline (``ADCE, GVN, SCCP, LICM, LD, LU, DSE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import TransformError
from ..ir.cloning import clone_function
from ..ir.module import Function, Module

#: Signature of a function pass.
FunctionPass = Callable[[Function], bool]

_REGISTRY: Dict[str, FunctionPass] = {}


def register_pass(name: str, pass_fn: Optional[FunctionPass] = None):
    """Register a pass under ``name``.

    Can be used as a decorator (``@register_pass("gvn")``) or called
    directly with the pass callable.
    """

    def decorator(fn: FunctionPass) -> FunctionPass:
        if name in _REGISTRY:
            raise TransformError(f"pass {name!r} registered twice")
        _REGISTRY[name] = fn
        return fn

    if pass_fn is not None:
        return decorator(pass_fn)
    return decorator


def get_pass(name: str) -> FunctionPass:
    """Look up a registered pass by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise TransformError(f"unknown pass {name!r} (known: {known})") from None


def available_passes() -> List[str]:
    """Names of every registered pass, sorted."""
    return sorted(_REGISTRY)


#: The optimization pipeline used throughout the paper's evaluation (§5.1).
PAPER_PIPELINE = ("adce", "gvn", "sccp", "licm", "loop-deletion", "loop-unswitch", "dse")


@dataclass
class PassSnapshot:
    """The function's state after one pipeline step.

    ``function`` is an immutable checkpoint: a fresh clone when the pass
    changed something (:func:`~repro.ir.cloning.clone_function`, a
    slot-by-slot copy of every instruction with a fresh operand list that
    shares the working copy's types, names and constants), otherwise
    *the same object* as the previous step's
    checkpoint (so adjacent unchanged steps compare by identity and a
    shared :class:`~repro.analysis.manager.AnalysisManager` never analyses
    the identical version twice).

    Snapshots are the unit of work the sharded batch driver ships to its
    process pool, so the whole payload — step name, changed flag and the
    checkpoint function — must stay pickle-safe (plain data and IR
    objects; no open handles, locks or pass callables).
    """

    #: Bookkeeping step name of the pass this snapshot follows
    #: (uniquified for repeated passes: ``"gvn"``, ``"gvn#2"``, ...).
    pass_name: str
    #: Did the pass change the function?
    changed: bool
    #: Checkpoint of the function after the pass ran.
    function: Function
    #: Lazily computed content hash of :attr:`function` (see
    #: :meth:`fingerprint`); excluded from equality/repr.
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    def fingerprint(self) -> str:
        """The checkpoint's content fingerprint, computed at most once.

        Checkpoints are immutable by contract, so the hash can be cached;
        the batch driver derives every adjacent-pair cache key from these
        instead of re-printing each function once per pair it appears in.

        Changed-pass checkpoints are private clones, so their hash also
        enters the process-wide
        :data:`~repro.analysis.manager.CHECKPOINT_FINGERPRINTS` table —
        the planner, the per-function providers, the incremental differ
        and the analysis manager all consult it instead of re-hashing per
        consumer.  Unchanged snapshots alias
        the caller's original function object (which the caller may later
        mutate in place), so those stay out of the global memo and only
        use this snapshot-local cache.
        """
        if self._fingerprint is None:
            from ..analysis.manager import (CHECKPOINT_FINGERPRINTS,
                                            function_fingerprint)

            if self.changed:
                self._fingerprint = CHECKPOINT_FINGERPRINTS.remember(self.function)
            else:
                self._fingerprint = function_fingerprint(self.function)
        return self._fingerprint


def checkpoint_chain(function: Function, snapshots: Sequence[PassSnapshot]
                     ) -> Tuple[List[PassSnapshot], List[Function]]:
    """Flatten a snapshot list into the stepwise validation version chain.

    Returns ``(steps, versions)`` where ``steps`` keeps only the snapshots
    whose pass *changed* the function (unchanged passes are identity steps
    — nothing to validate) and ``versions`` is the original followed by
    one checkpoint per changed step: ``versions[i]``/``versions[i + 1]``
    is exactly the adjacent pair validating ``steps[i]``.  Both the serial
    and the sharded drivers build their work from this one helper, so they
    cannot disagree about which pairs a pipeline produces; every element
    is a pickle-safe process-pool payload.
    """
    steps = [snapshot for snapshot in snapshots if snapshot.changed]
    versions = [function] + [snapshot.function for snapshot in steps]
    return steps, versions


class PassManager:
    """Runs a sequence of function passes over functions or whole modules.

    A pipeline may list the same pass several times (real optimizers
    re-run cleanups).  Bookkeeping — the per-pass changed flags, snapshot
    names and therefore the validator's per-pass verdicts and blame — is
    keyed by a *step name* that uniquifies repeats (``"gvn"``, ``"gvn#2"``,
    ...), so a second occurrence never overwrites the first's flag or,
    worse, makes a changed function look untransformed.
    """

    def __init__(self, pass_names: Sequence[str] = PAPER_PIPELINE):
        self.pass_names = list(pass_names)
        self._passes = []
        seen: Dict[str, int] = {}
        for name in self.pass_names:
            seen[name] = seen.get(name, 0) + 1
            step_name = name if seen[name] == 1 else f"{name}#{seen[name]}"
            self._passes.append((step_name, get_pass(name)))

    @property
    def step_names(self) -> List[str]:
        """The uniquified bookkeeping name of every pipeline step."""
        return [step_name for step_name, _ in self._passes]

    def run_on_function(self, function: Function) -> Dict[str, bool]:
        """Run the pipeline on one function.

        Returns a map from step name to whether that pass changed the
        function; the driver and the per-optimization experiments use it to
        count "transformed" functions the way the paper does (Figure 5
        counts only functions actually transformed by the optimization).
        """
        if function.is_declaration:
            return {step_name: False for step_name, _ in self._passes}
        changed = {}
        for step_name, pass_fn in self._passes:
            changed[step_name] = bool(pass_fn(function))
        return changed

    def run_on_module(self, module: Module) -> Dict[str, Dict[str, bool]]:
        """Run the pipeline on every defined function of a module."""
        return {
            function.name: self.run_on_function(function)
            for function in module.defined_functions()
        }

    def run_with_snapshots(self, function: Function) -> List[PassSnapshot]:
        """Run the pipeline on a working clone, checkpointing every step.

        ``function`` itself is never mutated.  Returns one
        :class:`PassSnapshot` per pipeline step; the last snapshot's
        function is the fully optimized version (or ``function`` itself
        when no pass changed anything).  The checkpoints are what the
        stepwise and bisecting validation strategies consume: validating
        adjacent checkpoints shrinks each equivalence problem to one
        pass's effect, and a rejection names the offending pass instead of
        discarding the whole pipeline's work.
        """
        if function.is_declaration:
            return [PassSnapshot(step_name, False, function)
                    for step_name, _ in self._passes]
        working = clone_function(function)
        checkpoint = function
        snapshots = []
        for step_name, pass_fn in self._passes:
            changed = bool(pass_fn(working))
            if changed:
                checkpoint = clone_function(working)
            snapshots.append(PassSnapshot(step_name, changed, checkpoint))
        return snapshots


def optimize(function: Function, pass_names: Iterable[str] = PAPER_PIPELINE) -> Function:
    """Run the named passes on ``function`` in place and return it.

    This is the convenience entry point used in examples and docstrings::

        after = optimize(before.clone(), ["instcombine", "gvn"])
    """
    for name in pass_names:
        get_pass(name)(function)
    return function


__all__ = [
    "FunctionPass",
    "PassManager",
    "PassSnapshot",
    "PAPER_PIPELINE",
    "checkpoint_chain",
    "register_pass",
    "get_pass",
    "available_passes",
    "optimize",
]
