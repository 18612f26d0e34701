"""The radialtyz benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload lu-sweep --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; it imports radialtyz from ./src and
nothing else of the checkout. With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer ones (see perfbench/README.md). The
last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the lines before it are a readable summary and a context block.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, pin_to_one_cpu, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lu-sweep", "certify", "cli-oneshot")
SETUP_PROBES = 2  # extra set-ups per run; setup_s is the median with the main one
END_TO_END = ("setup_s", "eval_p50_ms", "eval_p90_ms", "evals_per_s", "cpu_ms_per_eval",
              "peak_rss_mb")
# printed in the summary but not gated: see "End-to-end metrics" in README.md
UNGATED = ("failed_frac", "undetermined_frac")


def _worker(args, *extra: str) -> tuple[float, float, dict]:
    """Start the workload process: (seconds from spawn to its first eval,
    the slowness factor just before, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    slowness = statistics.median(probe()[0] for _ in range(10)) / REFERENCE_S
    started = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["first_eval_at"] - started, slowness, out


def _git_commit() -> str:
    """HEAD of the checkout's own repository; "unknown" when it has none."""
    if not (ROOT / ".git").exists():  # not a clone: never report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="radialtyz benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "radialtyz" / "__init__.py").is_file():
        sys.stderr.write(f"error: no radialtyz sources under {ROOT / 'src'}\n")
        return 2
    load_at_start = os.getloadavg()
    pin_to_one_cpu()  # the workload process and its children inherit it
    # byte-compile first, so no run pays compilation inside its set-up time
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            sys.stderr.write(f"error: {tree} does not compile\n")
            return 2

    starts = [_worker(args, "--setup-only") for _ in range(0 if args.trace else SETUP_PROBES)]
    starts.append(_worker(args))
    out = starts[-1][2]
    setups = [seconds / slowness for seconds, slowness, _ in starts]

    metrics = dict(out["metrics"])
    ungated = {k: metrics.pop(k) for k in UNGATED if k in metrics}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics = {k: metrics[k] for k in END_TO_END}
    context = dict(out["context"], nproc=os.cpu_count(), loadavg_at_start=load_at_start,
                   git_commit=_git_commit(), src_lines=_src_lines(),
                   setup_samples_s=setups, setup_unscaled_s=[s for s, _, _ in starts],
                   spans_file=out["spans_file"])

    print(f"radialtyz benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  attempted {out['attempted']} evals, failed {out['failed']}")
    for problem in out["problems"]:
        print(f"  FAILED {problem}")
    for name, m in {**metrics, **ungated}.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
