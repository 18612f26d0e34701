"""Write the reference outputs of the default seed: perfbench/reference/*.jsonl.

    python3 perfbench/make_reference.py [--workload NAME]

Covers the first COVERED inputs of each workload, more than one run of
BENCHMARK.json's run_seconds gets through; later inputs of a run are checked
by the identities alone. Refuses to write an output that fails its checks.
Regenerate only when an output is meant to change, and say why in the commit.
"""
from __future__ import annotations

import argparse
import json

# worker puts ./src on the path, so reference and workloads come through it
from worker import reference, run_cli_process, run_in_process, workloads

COVERED = {"lu-sweep": 160, "certify": 700, "cli-oneshot": 100}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(COVERED), default=None)
    args = ap.parse_args()
    for workload in [args.workload] if args.workload else list(COVERED):
        inputs = workloads.generate(workload, reference.DEFAULT_SEED, COVERED[workload])
        run = run_cli_process if workload == "cli-oneshot" else run_in_process
        lines = []
        for i, inp in enumerate(inputs):
            outcome = run(inp)
            if outcome.problems:
                raise SystemExit(f"{workload} input {i} {inp}: {outcome.problems}")
            signs = workloads.sign_fields(inp, outcome.result)
            lines.append(json.dumps(reference.entry(inp, outcome.canonical, signs)))
        reference.HERE.mkdir(exist_ok=True)
        reference.path(workload).write_text("\n".join(lines) + "\n")
        print(f"{workload}: {len(lines)} reference outputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
