"""vidannot benchmark: one annotation workload, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload w1-oracle-smooth --seed 1 --seconds 10 --trace 0

The workload's inputs, one or more datasets of sequences, are generated from
--seed. Set-up (world generation and backend construction) is repeated at
least SETUP_REPS times, and until the set-ups took SETUP_SECONDS, and its
median reported. Then one client runs annotation operations back to back,
one per dataset in turn, until a whole pass through the datasets has taken
--seconds in total (at least one pass), and checks every operation's output.

--trace 0 prints the end-to-end metrics. --trace 1 sets up once and prints
the per-layer metrics. In each of its passes every dataset's operation runs
twice, traced and untraced, in an order that alternates from pass to pass;
trace.slowdown, traced over untraced time, is the tracing overhead.
Report lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Files go under
.perfbench/ in the checkout: the last result of each workload and mode and,
for traced runs, the spans.
"""

from __future__ import annotations

import os

# At most two threads of computation: the process's own, or the two workers
# of w2's pool. Must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
SETUP_SECONDS = 10.0

# End-to-end metrics of an untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
    ("idf1", "ratio"),
    ("mota", "ratio"),
    ("qa_iou", "ratio"),
)


def _import_program():
    """Import vidannot from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "vidannot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vidannot sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import vidannot

    if Path(vidannot.__file__).resolve().parent != src / "vidannot":
        sys.exit(f"perfbench: imported vidannot from {vidannot.__file__}, not {src}")


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean(values) -> float:
    """Mean, or 0.0 when every sequence failed and left no value."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _pooled(per_job: list[list], frames: list[int]) -> tuple[float, float]:
    """Frames per second over one pass through the jobs, and the mean
    restart-to-output time, each operation time being its job's median."""
    seconds = [statistics.median(op.seconds for op in ops) for ops in per_job]
    resume = [statistics.median(op.resume_seconds for op in ops) for ops in per_job]
    return sum(frames) / sum(seconds), _mean(resume)


def run(workload_name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    from tracing import (
        PER_LAYER,
        REPORT_ONLY,
        Instrumented,
        TracedDetector,
        TracedPropagator,
        Tracer,
        layer_metrics,
    )
    from vidannot.pipeline import SequenceSource
    from workloads import WORKLOADS, Job, build_jobs, check_op, fresh_dir, gt_tracks, uninterrupted_digests

    workload = WORKLOADS[workload_name]
    work = fresh_dir(scratch / f"work-{workload.name}-{os.getpid()}")
    try:
        datasets = workload.datasets(seed)
        cfg = workload.config(seed)
        setup_s, world_s = [], []
        # A traced run reports no set-up time, only world generation's.
        min_reps, min_s = (1, 0.0) if trace else (SETUP_REPS, SETUP_SECONDS)
        while len(setup_s) < min_reps or sum(setup_s) < min_s:
            jobs = None  # release the previous worlds before building the next
            gc.collect()
            started = time.perf_counter()
            jobs, world = build_jobs(datasets)
            setup_s.append(time.perf_counter() - started)
            world_s.append(world)
        frames = [sum(s.num_frames for s in job.sources.values()) for job in jobs]
        # The jobs of an interrupted workload differ only in where they are killed.
        reference = None
        if any(job.crash_after is not None for job in jobs):
            reference = uninterrupted_digests(jobs[0].sources, cfg, work / "uninterrupted")
        checks = []  # (dataset index, Checked) of every operation

        def measure(modes, at_least):
            """Passes through the jobs until the summed time of the first
            mode's operations reaches `at_least`. A mode is (jobs, context);
            in each pass every job runs one operation per mode, the first
            mode last in even passes and first in odd ones. Returns each
            mode's ops per job."""
            per_mode = [[[] for _ in jobs] for _ in modes]
            while True:
                order = list(zip(modes, per_mode))
                if len(per_mode[0][0]) % 2 == 0:
                    order.reverse()
                for i in range(len(jobs)):
                    for (run_jobs, context), per_job in order:
                        out = fresh_dir(work / f"op{len(checks)}")
                        with context():
                            op = workload.run_op(run_jobs[i], cfg, out)
                        checks.append((i, check_op(workload, jobs[i].sources, op, reference)))
                        shutil.rmtree(out)
                        per_job[i].append(op)
                if sum(op.seconds for ops in per_mode[0] for op in ops) >= at_least:
                    return per_mode

        untraced = (jobs, contextlib.nullcontext)

        if trace:
            tracer = Tracer()
            traced = [
                Job(
                    {
                        k: SequenceSource(
                            k, s.ground_truth, TracedDetector(s.detector, tracer),
                            TracedPropagator(s.propagator, tracer),
                        )
                        for k, s in job.sources.items()
                    },
                    job.crash_after,
                )
                for job in jobs
            ]
            instrumented = Instrumented(tracer)
            per_job, plain = measure([(traced, lambda: instrumented), untraced], seconds)
            passes = len(per_job[0])
            metrics = layer_metrics(
                tracer,
                ops=passes * len(jobs),
                frames=passes * sum(frames),
                seconds=sum(op.seconds for ops in per_job for op in ops),
                untraced_seconds=sum(op.seconds for ops in plain for op in ops),
                gt_tracks=passes * sum(gt_tracks(job.sources) for job in jobs),
                workers=workload.workers,
                world_s=statistics.median(world_s),
            )
            units = dict(PER_LAYER)
            tracer.write(scratch / f"trace-{workload.name}.jsonl")
        else:
            (per_job,) = measure([untraced], seconds)
            frames_per_s, resume_s = _pooled(per_job, frames)
            last = [c for _, c in checks[-len(jobs):]]
            metrics = {
                "setup_s": statistics.median(setup_s),
                "frames_per_s": frames_per_s,
                "resume_s": resume_s,
                "peak_rss_mb": _peak_rss_mb(),
                "idf1": _mean(v for c in last for v in c.idf1.values()),
                "mota": _mean(v for c in last for v in c.mota.values()),
                "qa_iou": _mean(v for c in last for v in c.qa.values()),
            }
            units = dict(END_TO_END)

        failures = [f for _, c in checks for f in c.failures]
        if trace:
            failures += [f"traced name {n} is missing from the program" for n in instrumented.missing]
        for i in range(len(jobs)):
            if len({json.dumps(c.digests, sort_keys=True) for j, c in checks if j == i}) > 1:
                failures.append(f"dataset {i}: output bytes differ between operations")
        attempted = sum(len(jobs[i].sources) for i, _ in checks)
        failed = sum(len(c.failed) for _, c in checks)
        summary = {
            "workload": workload.name,
            "trace": int(trace),
            "environment": _environment(seed),
            "operations": len(checks),
            "frames_per_operation": frames,
            "setup_seconds": setup_s,
            "operation_seconds": [[op.seconds for op in ops] for ops in per_job],
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "failures": failures,
            "digests": {f"{i}/{name}": d for i, c in checks for name, d in c.digests.items()},
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return {
            "summary": summary,
            "result": {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: m for k, m in summary["metrics"].items() if k not in REPORT_ONLY
                },
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(summary: dict) -> None:
    print(f"perfbench {summary['workload']} trace={summary['trace']} "
          f"operations={summary['operations']} frames={summary['frames_per_operation']}")
    print("environment " + json.dumps(summary["environment"], sort_keys=True))
    for name, m in summary["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':<30} {summary['fail_frac']:>16.6g} ratio")
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    for name, digest in sorted(summary["digests"].items()):
        print(f"sha256 {digest}  {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("w1-oracle-smooth", "w2-noisy-deploy", "hd-ckpt-resume"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    scratch = ROOT / ".perfbench"
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    path = scratch / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(out["summary"], indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _print_report(out["summary"])
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
