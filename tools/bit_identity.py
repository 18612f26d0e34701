"""One SHA-256 over the outputs of a benchmark workload's first inputs.

    python3 tools/bit_identity.py --workload lu-sweep --seed 0 --count 160
    python3 tools/bit_identity.py --workload cli-oneshot --count 100 --format csv

Run from the root of a checkout: it imports radialtyz from ./src and the
workload generator from ./perfbench/workloads.py, and changes neither. Run
the same file from the root of two checkouts (a parent commit and a change)
and compare the lines: equal digests mean every output is bit for bit the
same. An in-process input (lu-sweep, certify) adds the canonical JSON of its
output, keys sorted, and every ball's normalised endpoints (libmpf tuples, so
trailing zero bits of the integer endpoints do not count) and precision; a CLI
input (cli-oneshot) adds the process's stdout, stderr and exit code, the
report asked for in --format (default json, the workload's own); an input
that raises adds the exception's type and message.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def _balls(value) -> list:
    """(normalised endpoints, precision_bits) of every ball in a nested result,
    in order: equal balls give equal entries."""
    if getattr(value, "backend", None) == "ball":
        return [[[list(end) for end in value.mpi], value.precision_bits]]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [b for v in value for b in _balls(v)]
    return []


def _record(workloads, root: Path, workload: str, inp: dict, fmt: str) -> dict:
    if workload == "cli-oneshot":  # every CLI-only op is in this workload
        argv = workloads.cli_argv(inp)[:-1] + [fmt]  # in place of its trailing "json"
        proc = workloads.run_cli(str(root), argv)
        return {"stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode}
    try:
        out = workloads.evaluate(inp)
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return {"canonical": workloads.canonical(inp, out),
            "balls": _balls(workloads.result_of(inp, out))}


def digest(root: Path, workload: str, seed: int, count: int, fmt: str = "json") -> str:
    """The hex SHA-256 over one record per input, in input order."""
    for path in (str(root / "perfbench"), str(root / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    h = hashlib.sha256()
    for inp in workloads.generate(workload, seed, count):
        record = _record(workloads, root, workload, inp, fmt)
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("lu-sweep", "certify", "cli-oneshot"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--format", choices=("json", "csv", "table"), default="json",
                    help="the report format of cli-oneshot inputs")
    args = ap.parse_args(argv)
    print(digest(Path.cwd(), args.workload, args.seed, args.count, args.format))


if __name__ == "__main__":
    main()
