"""The repository benchmark: time to every verdict over a synthetic corpus.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload loopy-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced pass and prints every per-layer metric with the counter-exactness
record.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--seed`` drives the
correctness check: the interpreter's argument vectors and the sample of
functions that get injected bugs.  ``--corpus-seed`` (default: each
corpus's own seed) regenerates the corpora themselves, for checking a
claim on inputs not used while writing it.

End-to-end times are paced (``pace.py``): each measured step is rescaled by
a reference unit of pure-Python work timed around and inside it, so the
host's changing speed drops out and the validator's does not.

Every pass runs in a child process (``worker.py``) under a pinned
``PYTHONHASHSEED``.  The traced run starts three: two under the pinned
hash seed and one under a second, and compares their counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import analyze
import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("branchy-cold", "loopy-cold", "warm-tweak")
PINNED_HASH_SEED = "0"
SECOND_HASH_SEED = "1"
#: Every child must finish inside this budget (seconds from start).
TIME_LIMIT = 172.0


class RunFailed(RuntimeError):
    """A child failed or the run produced no usable result."""


def start_child(mode: str, args, work: Path, name: str, hash_seed: str,
                extra=()) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--work", str(work / name),
               "--out", str(work / f"{name}.json"), *extra]
    if args.corpus_seed is not None:
        command += ["--corpus-seed", str(args.corpus_seed)]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    # Children write results to files; their stray output goes to stderr
    # so the last line of standard output stays the result.
    return subprocess.Popen(command, env=env, cwd=str(ROOT), stdout=sys.stderr)


def finish(children, work: Path, deadline: float):
    """Wait for every child; kill all of them if one fails, time runs out or
    this process is told to stop."""
    try:
        for name, child in children:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
            if code != 0:
                raise RunFailed(f"{name} exited with {code}")
    except BaseException:
        for _, child in children:
            child.kill()
            child.wait()
        raise
    return [json.loads((work / f"{name}.json").read_text()) for name, _ in children]


def beta_mass(a: float, b: float, low: float, high: float, steps: int = 64) -> float:
    """Probability that a Beta(a, b) variable lies in [low, high], by
    Simpson's rule; a, b >= 1 keep the density finite."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    width = (high - low) / steps
    return width / 3 * sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(low + k * width)
                           for k in range(steps + 1))


def quantile(samples, fraction: float) -> float:
    """Harrell-Davis estimate of a quantile: a Beta-weighted mean of all the
    order statistics.  A single order statistic jumps when a gap between
    neighbouring samples falls at the quantile, as it does among a few dozen
    functions of very different sizes; this estimate moves smoothly."""
    ordered = sorted(samples)
    count = len(ordered)
    a, b = fraction * (count + 1), (1 - fraction) * (count + 1)
    weights = [beta_mass(a, b, (i - 1) / count, i / count) for i in range(1, count + 1)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(samples):
    """The highest whole percentile with at least ten samples beyond it."""
    count = len(samples)
    if count <= 10:
        raise RunFailed(f"{count} samples: no percentile has ten beyond it")
    percentile = math.floor(100 * (count - 10) / count)
    return quantile(samples, percentile / 100), percentile, count


def oracle_lines(oracle: dict):
    return [
        f"false_accepts  {oracle['false_accepts']} / {oracle['accepted_checked']}"
        " accepted functions checked",
        f"missed_bugs    {oracle['missed_bugs']} / {oracle['bugs_injected']}"
        f" bugs injected ({oracle['bugs_observable']} observable)",
    ]


def verdict(oracle: dict, metrics: dict) -> dict:
    attempted = oracle["accepted_checked"] + oracle["bugs_injected"]
    failed = oracle["false_accepts"] + oracle["missed_bugs"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measured(args, work: Path, deadline: float):
    result, = finish([("measure", start_child("measure", args, work, "measure",
                                              PINNED_HASH_SEED))], work, deadline)
    # Every time is paced: measured, then rescaled by the reference units
    # timed around and inside it to a host running at reference speed
    # (pace.py).  Every round times the functions in the same order; a
    # function's time to verdict is the median of its rounds.
    samples = [statistics.median(calls) for calls in zip(*result["fn_samples_s"])]
    rounds = len(result["fn_samples_s"])
    tail_s, percentile, count = tail(samples)
    if result["kind"] == "cold":
        # The sweep is serial: its time to every verdict is each
        # function's time plus the store save after the last one.
        sweep_s = sum(samples) + statistics.median(result["save_s"])
        sweep_note = "functions' medians plus the median store save"
    else:
        sweep_s = statistics.median(result["batch_s"])
        sweep_note = "median batch sweep"
    values = {
        "sweep_s": (sweep_s, "s"),
        "fn_p50_ms": (quantile(samples, 0.5) * 1e3, "ms"),
        "fn_tail_ms": (tail_s * 1e3, "ms"),
        "validated_pct": (result["validated_pct"], "%"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
    }
    notes = {
        "sweep_s": f"{sweep_note} over {rounds} rounds"
                   f" (wall-clock median {statistics.median(result['sweep_wall_s']):.3f} s)",
        "fn_p50_ms": f"median of {count} functions (Harrell-Davis),"
                     f" median of {rounds} calls each",
        "fn_tail_ms": f"p{percentile} of {count} functions (Harrell-Davis)",
        "validated_pct": f"of transformed functions, {result['functions']} functions",
        "setup_s": f"median of {len(result['setup_s'])} set-ups"
                   f" (wall-clock median {statistics.median(result['setup_wall_s']):.3f} s)",
    }
    lines = [f"{name:<14} {value:12.4f} {unit:<3} {notes.get(name, '')}"
             for name, (value, unit) in values.items()]
    lines.append(f"reference unit {statistics.median(result['reference_s']) * 1e3:.3f} ms median"
                 f" of {len(result['reference_s'])}; times above are paced to"
                 f" {pace.REFERENCE_SECONDS * 1e3:.3f} ms")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return lines + oracle_lines(result["oracle"]), verdict(result["oracle"], metrics)


def traced(args, work: Path, deadline: float):
    def trace_args(name):
        return ["--trace-out", str(work / f"{name}.trace.json")]

    first, = finish([("main", start_child("trace", args, work, "main", PINNED_HASH_SEED,
                                         trace_args("main") + ["--full"]))], work, deadline)
    repeat, other = finish(
        [("repeat", start_child("trace", args, work, "repeat", PINNED_HASH_SEED,
                                trace_args("repeat"))),
         ("other", start_child("trace", args, work, "other", SECOND_HASH_SEED,
                               trace_args("other")))], work, deadline)
    traces = {name: analyze.load(work / f"{name}.trace.json")
              for name in ("main", "repeat", "other")}
    counts = {name: analyze.count_metrics(traces[name], run["counters"])
              for name, run in (("main", first), ("repeat", repeat), ("other", other))}

    exact = {name: value == counts["repeat"][name] for name, value in counts["main"].items()}
    seed_free = {name: value == counts["other"][name] for name, value in counts["main"].items()}
    signatures_equal = first["signatures"] == repeat["signatures"] == other["signatures"]

    values = analyze.per_layer_metrics(traces["main"], counts["main"])
    values["trace.sweep_s"] = first["traced_sweep_s"][0]
    untraced = statistics.median(first["untraced_paced_s"])
    values["trace.overhead_pct"] = \
        100.0 * (statistics.median(first["traced_paced_s"]) - untraced) / untraced
    values["trace.counts_exact"] = sum(exact.values())
    values["trace.counts_jittered"] = len(exact) - sum(exact.values())
    values["trace.signatures_equal"] = int(signatures_equal)

    lines = [f"{name:<30} {values[name]:16.6f} {unit}" for name, unit in analyze.PER_LAYER]
    lines.append("counter exactness (pinned hash seed twice; second hash seed once):")
    for name in sorted(counts["main"]):
        lines.append(
            f"  {name:<30} {counts['main'][name]:>10} repeat {counts['repeat'][name]:>10}"
            f" {'exact' if exact[name] else 'JITTER':<6}"
            f" hash-seed-{SECOND_HASH_SEED} {counts['other'][name]:>10}"
            f" {'same' if seed_free[name] else 'DIFFERS'}")
    lines.append(f"record signatures equal across runs and hash seeds: {signatures_equal}")
    slowest = analyze.slowest_functions(traces["main"])
    if slowest:
        lines.append("slowest functions (traced sweep):")
    for function_id, seconds, layer in slowest:
        lines.append(f"  {function_id:<24} {seconds:10.4f} s  most self time in {layer}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in analyze.PER_LAYER}
    return lines + oracle_lines(first["oracle"]), verdict(first["oracle"], metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None)
    args = parser.parse_args()
    # A stop request unwinds through finish(), which ends the children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no validator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        lines, result = (traced if args.trace else measured)(args, work, deadline)
    except (RunFailed, subprocess.TimeoutExpired) as error:
        print(f"run.py: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    corpus = "default" if args.corpus_seed is None else str(args.corpus_seed)
    print(f"workload {args.workload}  seed {args.seed}  corpus seed {corpus}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    if not result["correct"]:
        print(f"run.py: {args.workload}: the validator accepted a wrong body", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
