"""The benchmark's workloads and the sweeps it times.

Every sweep drives the validator only through its public entry points
(``repro.bench.build_corpus``, ``repro.validator.validate_function_pipeline``
and ``repro.validator.validate_module_batch``).  They are looked up on
their modules at call time, so the tracer's wrappers apply when it is
installed and nothing else does when it is not.

The load is a closed loop with one caller: one process, the serial
executor, one request in flight.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pace
import repro.bench as bench
import repro.validator as validator
from repro.bench import BENCHMARKS_BY_NAME, TWEAKED_PIPELINE
from repro.ir.module import Function, Module
from repro.transforms import PAPER_PIPELINE
from repro.validator import FunctionRecord, ValidationCache, ValidationReport

#: The proof-store backend every workload uses.
STORE_BACKEND = "sqlite"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: corpora, how they are swept, and why."""

    name: str
    why: str
    #: ``(corpus name, scale)`` pairs handed to ``build_corpus``.
    corpora: Tuple[Tuple[str, float], ...]
    #: ``"cold"``: one ``validate_function_pipeline`` call per function
    #: against a fresh store.  ``"warm"``: a ``validate_module_batch``
    #: re-run of a tweaked pipeline against a filled store.
    kind: str
    #: Set-ups per measured run; ``setup_s`` is their median.
    setup_repeats: int


#: The eight corpora whose ``branch_probability`` is below 0.30.
LOOPY = ("bzip2", "h264ref", "hmmer", "lbm", "libquantum", "mcf", "milc", "sphinx")

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            "branchy-cold",
            "branch_probability >= 0.30 corpora (sqlite, perlbench, sjeng), "
            "stepwise into an empty store: graph construction dominates",
            # perlbench/fn0007 carries the gate-translation blow-up (a known
            # defect).  gcc is left out: its smallest slice is one function
            # whose single 20-26 s call a run cannot repeat, so its time
            # would be one sample of whatever load the host had then.
            corpora=(("sqlite", 0.3), ("perlbench", 0.25), ("sjeng", 1.0)),
            kind="cold", setup_repeats=9),
        Workload(
            "loopy-cold",
            "the other eight corpora, stepwise into an empty store: "
            "polynomial graph construction, load spread across layers",
            corpora=tuple((name, 0.3) for name in LOOPY),
            kind="cold", setup_repeats=9),
        Workload(
            "warm-tweak",
            "loopy-cold corpora re-run in one batch with the last two passes "
            "swapped against a filled store: proof-store reads, plan/execute/settle",
            corpora=tuple((name, 0.3) for name in LOOPY),
            kind="warm", setup_repeats=3),
    )
}


def corpus_specs(workload: Workload, corpus_seed: Optional[int]):
    """``(spec, scale)`` per corpus; a corpus seed replaces every spec's own."""
    specs = []
    for offset, (name, scale) in enumerate(workload.corpora):
        spec = BENCHMARKS_BY_NAME[name]
        if corpus_seed is not None:
            spec = dataclasses.replace(spec, seed=corpus_seed + offset)
        specs.append((spec, scale))
    return specs


@dataclasses.dataclass
class Corpus:
    """The inputs of one workload after set-up."""

    modules: List[Module]
    #: Defined functions as ``(corpus label, function)``, in corpus order.
    order: List[Tuple[str, Function]]
    #: Warm workloads: the filled proof store (a directory).
    store: Optional[Path] = None


@dataclasses.dataclass
class Sweep:
    """What one timed sweep produced."""

    #: Measured seconds of each timed step: every function's call to its
    #: verdict and then the store save (per-function sweeps), or the one
    #: batch call.
    steps: List[float]
    #: The same steps paced to the reference speed (:mod:`pace`).
    paced: List[float]
    #: Seconds of every reference unit timed around and inside the steps.
    references: List[float]
    reports: List[ValidationReport]
    #: ``(corpus label, function name) -> (original, kept body)``.
    kept: Dict[Tuple[str, str], Tuple[Function, Function]]
    cache_stats: Dict[str, int]

    @property
    def seconds(self) -> float:
        """Time from the first validation call to the last verdict."""
        return sum(self.steps)

    def records(self) -> List[FunctionRecord]:
        return [record for report in self.reports for record in report.records]


def set_up(workload: Workload, corpus_seed: Optional[int], store: Path) -> Corpus:
    """Build the corpora (generation + ``mem2reg``); warm: fill ``store``."""
    modules = [bench.build_corpus(spec, scale)
               for spec, scale in corpus_specs(workload, corpus_seed)]
    order = [(module.name, function) for module in modules
             for function in module.defined_functions()]
    corpus = Corpus(modules, order)
    if workload.kind == "warm":
        cache = ValidationCache(store, backend=STORE_BACKEND)
        try:
            validator.validate_module_batch(
                modules, PAPER_PIPELINE, labels=[m.name for m in modules],
                cache=cache, strategy="stepwise")
        finally:
            cache.close()
        corpus.store = store
    return corpus


def fresh_store(corpus: Corpus, directory: Path) -> Path:
    """An empty store directory (cold) or a copy of the filled one (warm)."""
    if directory.exists():
        shutil.rmtree(directory)
    if corpus.store is None:
        directory.mkdir(parents=True)
    else:
        shutil.copytree(corpus.store, directory)
    return directory


def function_sweep(corpus: Corpus, passes: Sequence[str], store: Path,
                   tracer=None) -> Sweep:
    """One ``validate_function_pipeline`` call per function, timed singly,
    then the store save, so a cold sweep pays its store writes."""
    cache = ValidationCache(store, backend=STORE_BACKEND)
    reports: Dict[str, ValidationReport] = {m.name: ValidationReport(label=m.name)
                                            for m in corpus.modules}
    steps: List[float] = []
    paced: List[float] = []
    kept = {}
    gc.collect()
    try:
        with pace.Pacer() as pacer:
            for label, function in corpus.order:
                if tracer is not None:
                    tracer.function_id = f"{label}/{function.name}"
                (body, record), seconds, at_pace = pacer.step(
                    lambda: validator.validate_function_pipeline(
                        function, passes, cache=cache, strategy="stepwise"))
                steps.append(seconds)
                paced.append(at_pace)
                reports[label].add(record)
                kept[(label, function.name)] = (function, body)
            if tracer is not None:
                tracer.function_id = ""
            _, seconds, at_pace = pacer.step(cache.save_if_dirty)
            steps.append(seconds)
            paced.append(at_pace)
        stats = cache.stats()
    finally:
        cache.close()
    return Sweep(steps, paced, pacer.references, list(reports.values()), kept, stats)


def batch_sweep(corpus: Corpus, passes: Sequence[str], store: Path) -> Sweep:
    """One ``validate_module_batch`` call over every module."""
    cache = ValidationCache(store, backend=STORE_BACKEND)
    modules = list(corpus.modules)
    labels = [module.name for module in modules]
    gc.collect()
    try:
        with pace.Pacer() as pacer:
            results, seconds, at_pace = pacer.step(
                lambda: validator.validate_module_batch(
                    modules, passes, labels=labels, cache=cache, strategy="stepwise"))
        stats = cache.stats()
    finally:
        cache.close()
    kept = {}
    for module, (result_module, report) in zip(modules, results):
        # The result module holds a clone even of a function nothing was
        # kept for; such a function counts as its original.
        proved = {record.name for record in report.records if record.kept_prefix}
        for function in module.defined_functions():
            body = result_module.get_function(function.name) \
                if function.name in proved else function
            kept[(module.name, function.name)] = (function, body)
    return Sweep([seconds], [at_pace], pacer.references,
                 [report for _, report in results], kept, stats)


def timed_sweep(workload: Workload, corpus: Corpus, store: Path,
                tracer=None) -> Sweep:
    """The sweep whose time is ``sweep_s``."""
    if workload.kind == "cold":
        return function_sweep(corpus, PAPER_PIPELINE, store, tracer)
    return batch_sweep(corpus, TWEAKED_PIPELINE, store)


def latency_sweep(workload: Workload, corpus: Corpus, store: Path) -> Optional[Sweep]:
    """Warm workloads: per-function times to verdict on a copy of the store.

    Cold sweeps time every function already; the batch call of a warm
    sweep returns all verdicts at once, so its per-function latency is
    measured by a separate pass of the lazy per-function path.
    """
    if workload.kind == "cold":
        return None
    return function_sweep(corpus, TWEAKED_PIPELINE, store)
