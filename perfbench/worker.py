"""One measured or traced pass of a workload, in its own process.

``run.py`` starts this script with ``PYTHONHASHSEED`` pinned and reads the
JSON document it writes to ``--out``.  Modes:

``measure``
    Set up ``setup_repeats`` times, then repeat the timed sweep (and, on a
    warm workload, the per-function latency pass) in rounds: at least
    ``MIN_ROUNDS``, and more while the next round is expected to end
    within ``--seconds``.  Then run the correctness check on the last
    sweep.  No tracer.  Every set-up, function call, store save and batch
    call is paced by the reference units timed around and inside it
    (``pace.py``).
``trace``
    Set up once and sweep once with the tracer installed, write the trace
    to ``--trace-out`` and report the program's own counters and a digest
    of every record signature.  With ``--full`` then alternate untraced and
    traced sweeps for ``--seconds`` (for the tracing overhead) and run the
    correctness check.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Timed rounds every measured run makes, however long they take: a
#: function's time is the median of its rounds, and fewer than three calls
#: have no middle one that a single burst of host load cannot move.
MIN_ROUNDS = 3


def validated_pct(sweep: workloads.Sweep) -> float:
    transformed = sum(report.transformed_functions for report in sweep.reports)
    validated = sum(report.validated_functions for report in sweep.reports)
    return 100.0 * validated / transformed


def signature_digest(sweep: workloads.Sweep) -> str:
    signatures = sorted((report.label, json.dumps(record.signature(), sort_keys=True))
                        for report in sweep.reports for record in report.records)
    return hashlib.sha256(json.dumps(signatures).encode()).hexdigest()


def program_counters(workload: workloads.Workload, sweep: workloads.Sweep) -> dict:
    """The validator's own counters for one sweep, summed over its reports."""
    records = sweep.records()
    if workload.kind == "warm":
        # One shared manager and executor serve the whole batch; every
        # report carries the same copy of their counters.
        analysis = sweep.reports[0].analysis_stats or {}
        shard = sweep.reports[0].shard_stats or {}
    else:
        analysis = {}
        for record in records:
            for key, value in (record.analysis_stats or {}).items():
                analysis[key] = analysis.get(key, 0) + value
        shard = {}
    cache = sweep.cache_stats
    return {
        "analysis.computed": analysis.get("analyses_computed", 0),
        "analysis.reused": analysis.get("analyses_reused", 0),
        "validator.chain_fallbacks": sum(report.chain_totals().get("chain_fallbacks", 0)
                                         for report in sweep.reports),
        "validator.whole_fallbacks": sum(record.whole_fallback for record in records),
        "scheduler.distinct_pairs": shard.get("distinct_pairs", 0),
        "scheduler.inline_validations": shard.get("inline_validations", 0),
        "cache.hits": cache.get("hits", 0),
        "cache.misses": cache.get("misses", 0),
        "cache.store_bytes_read": cache.get("store_bytes_read", 0),
        "cache.store_bytes_written": cache.get("store_bytes_written", 0),
    }


def oracle_summary(corpus, sweep, seed: int) -> dict:
    return dataclasses.asdict(oracle.check(sweep.kept, corpus.modules, seed))


def measure(workload, args, work: Path) -> dict:
    setup_times, setup_paced = [], []
    with pace.Pacer() as pacer:
        for repeat in range(workload.setup_repeats):
            gc.collect()
            corpus, seconds, at_pace = pacer.step(lambda: workloads.set_up(
                workload, args.corpus_seed, work / f"filled-{repeat}"))
            setup_times.append(seconds)
            setup_paced.append(at_pace)
    references = pacer.references
    seconds, saves, batches, percents, samples = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        began = time.perf_counter()
        # Only the numbers are kept, so earlier sweeps' bodies do not
        # pile up on the heap of later ones.
        sweep = workloads.timed_sweep(
            workload, corpus, workloads.fresh_store(corpus, work / "store-timed"))
        seconds.append(sweep.seconds)
        percents.append(validated_pct(sweep))
        latency = workloads.latency_sweep(
            workload, corpus, workloads.fresh_store(corpus, work / "store-latency"))
        if latency is None:
            # Cold: the steps are the function calls, then the store save.
            samples.append(sweep.paced[:-1])
            saves.append(sweep.paced[-1])
        else:
            batches += sweep.paced
            samples.append(latency.paced[:-1])
            references += latency.references
        references += sweep.references
        now = time.perf_counter()
        if len(seconds) >= MIN_ROUNDS and now + (now - began) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "kind": workload.kind,
        "setup_wall_s": setup_times,
        "setup_s": setup_paced,
        "sweep_wall_s": seconds,
        "save_s": saves,
        "batch_s": batches,
        "fn_samples_s": samples,
        "reference_s": references,
        "validated_pct": statistics.median(percents),
        "peak_rss_mb": peak_rss_mb,
        "functions": len(corpus.order),
        "oracle": oracle_summary(corpus, sweep, args.seed),
    }


def trace(workload, args, work: Path) -> dict:
    tracer = Tracer()
    with tracer.installed():
        with tracer.phase("setup"):
            corpus = workloads.set_up(workload, args.corpus_seed, work / "filled")
        store = workloads.fresh_store(corpus, work / "store-traced")
        with tracer.phase("sweep"):
            traced = workloads.timed_sweep(workload, corpus, store, tracer)
    tracer.write(Path(args.trace_out))
    result = {
        "traced_sweep_s": [traced.seconds],
        "traced_paced_s": [sum(traced.paced)],
        "counters": program_counters(workload, traced),
        "signatures": signature_digest(traced),
    }
    if args.full:
        # Untraced and traced sweeps alternate for --seconds; the tracing
        # overhead compares their paced medians.
        result["untraced_paced_s"] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            plain = workloads.timed_sweep(
                workload, corpus, workloads.fresh_store(corpus, work / "store-plain"))
            result["untraced_paced_s"].append(sum(plain.paced))
            if time.perf_counter() >= deadline:
                break
            with Tracer().installed() as again:
                result["traced_paced_s"].append(sum(workloads.timed_sweep(
                    workload, corpus, workloads.fresh_store(corpus, work / "store-traced"),
                    again).paced))
        result["oracle"] = oracle_summary(corpus, plain, args.seed)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--corpus-seed", type=int, default=None)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    result = (measure if args.mode == "measure" else trace)(workload, args, work)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
