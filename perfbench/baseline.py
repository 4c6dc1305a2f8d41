"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 [--trace 0|1|0,1] [--out FILE]

Runs perfbench/run.py once per (workload, mode, seed), one run at a time, for
every workload of BENCHMARK.json and at its run_seconds. It reports for each
metric, and for fail_frac (failed over attempted sequences), the median of
its values and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median. With --out
the summaries, the environment and every run's values and output digests are
written there as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "n": len(values),
    }


def summarize(runs: list[dict], units: dict[str, str]) -> dict:
    """Median and spread of every metric, and of fail_frac, over the runs."""
    summary = {
        name: {"unit": units[name], **_spread([r["values"][name] for r in runs])}
        for name in units
    }
    fail_frac = [r["failed"] / r["attempted"] for r in runs]
    summary["fail_frac"] = {"unit": "ratio", **_spread(fail_frac)}
    return summary


def _run(workload: str, seed: int, trace: int) -> dict:
    """One run, as its result record: every metric, digests and environment."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    wall = time.perf_counter() - started
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = HERE.parent / ".perfbench" / f"result-{workload}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {
        "seed": seed,
        "wall_s": wall,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": record["failures"],
        "values": {k: m["value"] for k, m in record["metrics"].items()},
        "units": {k: m["unit"] for k, m in record["metrics"].items()},
        "digests": record["digests"],
        "environment": {k: v for k, v in record["environment"].items() if k != "seed"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=("0", "1", "0,1"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report: dict = {"seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        entry = report["workloads"][workload] = {}
        for trace in (int(t) for t in args.trace.split(",")):
            runs = []
            for seed in _seeds(args.seeds):
                run = _run(workload, seed, trace)
                report["environment"] = run.pop("environment")
                units = run.pop("units")
                runs.append(run)
                print(f"{workload} trace={trace} seed={seed} wall={run['wall_s']:.1f}s "
                      f"correct={run['correct']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in run["values"].items()), flush=True)
            summary = summarize(runs, units)
            entry[f"trace{trace}"] = {"summary": summary, "runs": runs}
            for name, s in summary.items():
                print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, "
                      f"spread {100 * s['spread']:.2f} % (n={s['n']})", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
