"""Paired benchmark runs of two checkouts, written to one JSON file.

    python3 tools/bench.py --against ../parent --workload cli-oneshot \
        --pairs 4 --seconds 10 --out BENCH_28.json

Run from the root of a checkout. For each --workload (repeat the option for
several) it runs `perfbench/run.py --seed 0 --trace 0` N times from the
--against checkout (side "base") and N times from the current root (side
"head"), alternated: pair 0 runs base then head, pair 1 head then base, and
so on, so that neither side always runs second. After the pairs it runs
`--trace 1` once per side and keeps that run's per-layer metrics (the
"per_layer" names of BENCHMARK.json) under the workload's "trace". It reads
only run.py's output, the context block and the result line, and writes every
run's metrics and context. Per end-to-end metric of BENCHMARK.json it adds
each side's median and quartiles and the number of pairs in which head did
better than base; per side it adds the number of runs whose outputs run.py
found wrong ("correct": false), the `src/` line count of the context block
and the line count of the `tests/` Python files, counted from the checkout's
root. An existing --out file keeps its other workloads, so each workload can
run with its own --pairs and --seconds. After writing --out it exits non-zero
if any run was wrong, naming its workload, side and pair (or "trace"):
run.py itself exits 0 however many evals fail.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("lu-sweep", "certify", "cli-oneshot")


def run_once(root: Path, workload: str, seconds: float, trace: int = 0) -> dict:
    """One run.py run from the checkout at root: its result line, with its
    context block under "context"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    context = next(json.loads(line) for line in lines if line.startswith('{"context"'))
    return dict(json.loads(lines[-1]), **context)


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def tests_lines(root: Path) -> int:
    """The lines of the Python files under the checkout's tests/, counted as
    run.py counts src/."""
    return sum(len(p.read_bytes().splitlines()) for p in (root / "tests").rglob("*.py"))


def summarise(runs: list[dict], better: dict[str, str], tests: dict[str, int]) -> dict:
    """Per metric: each side's median and quartiles, and head's wins over base
    in the pairs, a win being a value on the metric's better side; and per
    side the number of wrong runs, the src line count and the tests line
    count given."""
    out = {"incorrect_runs": {side: sum(r["side"] == side and not r["correct"] for r in runs)
                              for side in ("base", "head")},
           "src_lines": {r["side"]: r["context"].get("src_lines") for r in runs},
           "tests_lines": tests}
    for name, way in better.items():
        sides = {side: [r["metrics"][name]["value"] for r in runs if r["side"] == side]
                 for side in ("base", "head")}
        sign = 1 if way == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(sides["base"], sides["head"]))
        out[name] = {"better": way, **{side: _spread(v) for side, v in sides.items()},
                     "head_wins": wins, "pairs": len(sides["head"])}
    return out


def bench(against: Path, root: Path, workload: str, pairs: int, seconds: float,
          better: dict[str, str], layers: list[str], run=run_once) -> dict:
    """The runs of one workload, in the order they ran, their summary, and
    per side one traced run's correctness and per-layer metrics."""
    runs = []
    order = [("base", against), ("head", root)]
    for pair in range(pairs):
        for side, checkout in order if pair % 2 == 0 else order[::-1]:
            runs.append(dict(run(checkout, workload, seconds), pair=pair, side=side))
    trace = {}
    for side, checkout in order:
        out = run(checkout, workload, seconds, trace=1)
        trace[side] = {"correct": out["correct"],
                       "metrics": {k: out["metrics"][k] for k in layers if k in out["metrics"]}}
    tests = {side: tests_lines(checkout) for side, checkout in order}
    return {"runs": runs, "summary": summarise(runs, better, tests), "trace": trace}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", type=Path, required=True, help="the other checkout's root")
    ap.add_argument("--workload", action="append", required=True, choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec.get("per_layer", [])]
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    for w in args.workload:
        report[w] = {"against": args.against.resolve().name, "pairs": args.pairs,
                     "seconds": args.seconds,
                     **bench(args.against.resolve(), root, w, args.pairs, args.seconds, better,
                             layers)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    wrong = [f"{w} {r['side']} pair {r['pair']}" for w in args.workload
             for r in report[w]["runs"] if not r["correct"]]
    wrong += [f"{w} {side} trace" for w in args.workload
              for side, t in report[w]["trace"].items() if not t["correct"]]
    if wrong:
        sys.exit(f"runs with wrong outputs (correct: false): {', '.join(wrong)}")


if __name__ == "__main__":
    main()
