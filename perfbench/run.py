"""Run one gridemd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact_dense --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Load model: a closed loop with one caller in one process and
thread, the next operation starting when the previous one returns.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` the same operations are
replayed under the span recorder and the object holds the per-layer
metrics instead. Every output is checked outside its op's timer; the exit
code is 1 when any check fails and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable

import workloads
from tracing import Tracer
from workloads import OpError, Verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLOCK_OPS = 100  # so a block's 90th percentile has ten samples beyond it
MIN_OPS = BLOCK_OPS
SETUP_REPS = 5


def import_seconds(module: str) -> float:
    """Time ``import module`` in a fresh interpreter, excluding its start-up."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        f"t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


class Tally:
    """Checks outputs as they arrive and keeps the counts, the first few
    problems and the (mwd, qmwd, wd) triples of ops that yield the exact distance."""

    def __init__(self, w) -> None:
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exact: list[tuple[int, int, int]] = []

    def check(self, i: int, out: object) -> None:
        self.attempted += 1
        try:
            verdict = self.w.check(i, out)
        except Exception:  # a malformed output must count as a failure, not end the run
            verdict = Verdict(f"check raised\n{traceback.format_exc()}")
        if verdict.problem is not None:
            self.fail(f"op {i}: {verdict.problem}")
        if verdict.exact is not None:
            self.exact.append(verdict.exact)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def run_ops(w, sink: Callable[[int, object], None], seconds: float | None = None,
            count: int | None = None, tracer=None) -> list[int]:
    """Closed loop over ops 0, 1, 2, ...: for ``seconds`` (and at least
    MIN_OPS ops), or exactly ``count`` ops. Each output goes to ``sink``
    outside the op's timer. Returns the per-op wall times in ns."""
    times: list[int] = []
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9) if seconds is not None else None
    i = 0
    while (count is not None and i < count) or (
        deadline is not None and (i < MIN_OPS or clock() < deadline)
    ):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out = w.op(i)
        except Exception as exc:  # one failed op must not end the run
            out = OpError(exc)
        times.append(clock() - t0)
        sink(i, out)
        i += 1
    return times


def setup(make: Callable[[], object], reps: int):
    """Set the workload up ``reps`` times: import in a fresh interpreter,
    input generation, file writing and warm-up ops. Returns the last
    workload and the median set-up seconds."""
    samples = []
    for _ in range(reps):
        w = None  # drop the previous pool before building the next
        w = make()
        imported = import_seconds(w.entry_module)
        t0 = time.perf_counter()
        w.prepare()
        for i in range(w.warmup_ops):
            w.op(i)
        samples.append(imported + time.perf_counter() - t0)
    return w, statistics.median(samples)


def block_metrics(times: list[int]) -> dict[str, float]:
    """Throughput and per-op latency over the faster half of the run.

    The ops are cut into consecutive blocks of BLOCK_OPS (the last block
    takes the remainder), the blocks are ranked by their median op time, and
    the faster half of them, pooled, gives every figure. Contention from
    other tenants of a shared host comes in bursts of a few seconds and only
    ever slows ops down; this keeps such a burst out of the figures as long
    as it covers less than half the run. Each op is still timed once, so
    the program's own slow ops stay in the p90.
    """
    ms = [t / 1e6 for t in times]
    n = max(1, len(ms) // BLOCK_OPS)
    blocks = [ms[k * BLOCK_OPS : (k + 1) * BLOCK_OPS] for k in range(n - 1)] + [ms[(n - 1) * BLOCK_OPS :]]
    blocks.sort(key=statistics.median)
    kept = [t for block in blocks[: (n + 1) // 2] for t in block]
    cuts = statistics.quantiles(kept, n=10, method="inclusive")
    return {"ops_per_s": len(kept) * 1e3 / sum(kept), "op_ms_p50": cuts[4], "op_ms_p90": cuts[8]}


def finish(w):
    """The workload's once-per-run phase, if any: (seconds, problem) or None."""
    try:
        return w.finish()
    except Exception:  # a broken phase must count as a failure, not end the run
        return 0.0, f"raised\n{traceback.format_exc()}"


def accuracy(exact) -> dict[str, float]:
    """Mean |mwd - estimate| / mwd over ops with mwd > 0, and how often the
    quasi distance exceeds the exact one."""
    used = [(m, qm, wd) for m, qm, wd in exact if m > 0]
    if not used:
        return {"accuracy.pairs": 0, "accuracy.qmwd_rel_err_mean": 0.0, "accuracy.wd_rel_err_mean": 0.0,
                "qmwd.over_exact": 0}
    return {
        "accuracy.pairs": len(used),
        "accuracy.qmwd_rel_err_mean": statistics.fmean(abs(m - qm) / m for m, qm, _ in used),
        "accuracy.wd_rel_err_mean": statistics.fmean(abs(m - wd) / m for m, _, wd in used),
        "qmwd.over_exact": sum(qm > m for m, qm, _ in used),
    }


def canary_problem(name: str, workdir: str) -> str | None:
    """Compare the library's distances on the default seed's first pairs
    with the digest recorded when the benchmark was introduced."""
    w = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, workdir)
    got = w.digest(workloads.DIGEST_PAIRS)
    if got != workloads.PINNED_DIGESTS[name]:
        return f"default-seed distance digest {got} differs from the pinned one"
    return None


def run(make: Callable[[], object], seconds: float, trace: bool, spans_path: Path | None = None,
        canary: Callable[[], str | None] = lambda: None):
    """One benchmark run. Returns (result object, human-readable lines)."""
    w, setup_s = setup(make, SETUP_REPS)
    tally = Tally(w)
    times = run_ops(w, tally.check, seconds=seconds)
    acc = accuracy(tally.exact)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        # Traced outputs are kept and checked after the tracer is removed, so
        # the checks' own library calls record no spans.
        tracer = Tracer()
        traced: list[object] = []
        with tracer.installed():
            traced_times = run_ops(w, lambda i, out: traced.append(out), count=len(times), tracer=tracer)
            tracer.op_id = -1
            finished = finish(w)
        for i, out in enumerate(traced):
            tally.check(i, out)
    else:
        finished = finish(w)
    if finished is not None:
        tally.attempted += 1
        if finished[1] is not None:
            tally.fail(f"once-per-run phase: {finished[1]}")
    canary_msg = canary()

    lines = [
        f"{w.name}: {len(times)} timed ops, {tally.failed} of {tally.attempted} checks failed "
        f"(failed_ratio {tally.failed / tally.attempted:.6f})",
    ]
    if finished is not None:
        lines.append(f"sweep_s {finished[0]:.4f} s (gridemd bench + plot)")
    if acc["accuracy.pairs"]:
        lines.append(
            f"qmwd_rel_err_mean {acc['accuracy.qmwd_rel_err_mean']:.6f}, "
            f"wd_rel_err_mean {acc['accuracy.wd_rel_err_mean']:.6f} over {acc['accuracy.pairs']} ops"
        )

    if trace:
        values = tracer.layer_metrics()
        values.update(acc)
        values["trace.ops"] = len(traced_times)
        values["trace.wall_ms"] = sum(traced_times) / 1e6
        values["trace.overhead_ratio"] = sum(traced_times) / sum(times)
        if spans_path is not None:
            tracer.write_spans(spans_path)
        units = {k: _layer_unit(k) for k in values}
    else:
        values = block_metrics(times)
        values.update(peak_rss_mib=peak_rss_mib, setup_s=setup_s)
        units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mib": "MiB", "setup_s": "s"}
    lines += [f"{k} {v:.6g} {units[k]}" for k, v in values.items()]
    lines += tally.problems
    if canary_msg is not None:
        lines.append(canary_msg)
    result = {
        "correct": tally.failed == 0 and canary_msg is None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "rel_err_mean")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridemd" / "__init__.py").is_file():
        print(f"error: no gridemd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work")
    spans_path = None
    if args.trace:
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        result, lines = run(
            lambda: cls(args.seed, workdir),
            args.seconds,
            bool(args.trace),
            spans_path,
            canary=lambda: canary_problem(args.workload, workdir),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
