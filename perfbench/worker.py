"""One workload process: set up, run the closed loop, print one JSON line.

    python3 perfbench/worker.py --workload lu-sweep --seed 0 --seconds 10 --trace 0

run.py starts it and reads the last line; `--setup-only` stops where the
first timed eval would begin, so run.py can time set-up more than once. One
client, one eval at a time: the next eval starts when the previous one and
its checks are done. An eval is one call into the public API (lu-sweep,
certify) or one `python -m radialtyz.cli` process (cli-oneshot).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
_started = perf_counter()
import radialtyz  # noqa: E402,F401  (timed: the import every process pays)

IMPORT_S = perf_counter() - _started

import reference  # noqa: E402
import workloads  # noqa: E402
from mpmath import libmp  # noqa: E402
from radialtyz.scalars import Sign  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import ROOT_SPAN, TRACE_MARK, Tracer, self_times  # noqa: E402

SPANS_DIR = ROOT / ".bench_build" / "perfbench"
# inputs generated per run, well past what one run of at most 60 s gets through
COUNT = {"lu-sweep": 1000, "certify": 2000, "cli-oneshot": 300}
CHILD = [str(Path(__file__).resolve().parent / "cli_child.py")]

TIMED_LAYERS = [
    "jets.exp", "jets.pow", "jets.log", "jets.bijet_exp", "jets.bijet_compose",
    "potentials.fprime_jet", "obstruction.gh_sequence",
    "curvature.phi_table", "curvature.frame", "curvature.invariants",
    "curvature.laplacian", "curvature.lu_rest",
    "resolvability.germ", "resolvability.det", "resolvability.minor_matrix",
    "cli.main", "reports.dumps",
]
CALLED_LAYERS = [
    "jets.exp", "jets.pow", "jets.log", "jets.bijet_exp", "jets.bijet_compose",
    "potentials.fprime_jet", "obstruction.gh_sequence", "resolvability.det",
]
COUNTERS = [
    "scalars.ball_ops", "scalars.rational_ops", "scalars.root_ops", "scalars.promotions",
    "scalars.sign_queries", "scalars.sign_undetermined",
    "potentials.f_jet_calls", "obstruction.scan_escalations",
]


class Outcome:
    """One eval: wall and CPU seconds, its outputs, and what went wrong."""

    def __init__(self, seconds, cpu, canonical=None, result=None, problems=()):
        self.seconds, self.cpu = seconds, cpu
        self.canonical, self.result, self.problems = canonical, result, list(problems)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_in_process(inp: dict, call=None) -> Outcome:
    """One API call; `call(fn, inp)` lets the traced run wrap it in a span."""
    c0, t0 = process_time(), perf_counter()
    try:
        out = call(workloads.evaluate, inp) if call else workloads.evaluate(inp)
    except Exception as exc:  # a failed eval is counted, never fatal
        return Outcome(perf_counter() - t0, process_time() - c0,
                       problems=[f"{type(exc).__name__}: {exc}"])
    seconds, cpu = perf_counter() - t0, process_time() - c0
    try:
        res = workloads.result_of(inp, out)
        return Outcome(seconds, cpu, workloads.canonical(inp, out), res, workloads.check(inp, res))
    except Exception as exc:  # output the checks cannot read is wrong output
        return Outcome(seconds, cpu, problems=[f"unreadable output: {type(exc).__name__}: {exc}"])


def run_cli_process(inp: dict, tracer: Tracer | None = None) -> Outcome:
    """One CLI process; with a tracer, the launcher that sends its spans back."""
    argv = workloads.cli_argv(inp)
    c0, t0 = _children_cpu(), perf_counter()
    span = tracer.open(ROOT_SPAN) if tracer is not None else None
    try:
        proc = workloads.run_cli(str(ROOT), argv, child=None if tracer is None else CHILD)
    except subprocess.TimeoutExpired:
        return Outcome(perf_counter() - t0, _children_cpu() - c0, problems=["CLI timed out"])
    finally:
        if tracer is not None:
            tracer.close(span)
    seconds, cpu = perf_counter() - t0, _children_cpu() - c0
    if tracer is not None:
        lines = proc.stderr.splitlines()
        if not lines or not lines[-1].startswith(TRACE_MARK):
            return Outcome(seconds, cpu, problems=["traced CLI child sent no trace"])
        trace = json.loads(lines[-1][len(TRACE_MARK):])
        tracer.adopt(trace["spans"], trace["counts"], span)
        proc.stderr = "\n".join(lines[:-1])
    canonical, res, problems = workloads.cli_eval_output(inp, proc)
    return Outcome(seconds, cpu, canonical, res, problems)


def _under(tracer: Tracer, fn, arg):
    """fn(arg) as one root span, patched only while it runs."""
    with tracer:
        return tracer.call(ROOT_SPAN, fn, arg)


def run_traced(inp: dict, tracer: Tracer, cli: bool) -> Outcome:
    """One traced eval; the output checks run after the tracer is removed."""
    if cli:
        return run_cli_process(inp, tracer)
    return run_in_process(inp, lambda fn, arg: _under(tracer, fn, arg))


def _review(inp: dict, outcome: Outcome, ref: dict | None) -> tuple[list, list[str]]:
    """(sign fields, problems) of one finished eval, reference included."""
    if outcome.result is None:
        return [], outcome.problems
    signs = workloads.sign_fields(inp, outcome.result)
    problems = list(outcome.problems)
    if ref is not None:
        problems += reference.compare(ref, inp, outcome.canonical, signs)
    return signs, problems


def loop(workload: str, seed: int, seconds: float, inputs: list[dict], trace: bool) -> dict:
    """The closed loop; returns the samples (scaled to reference speed) and the tracer."""
    cli = workload == "cli-oneshot"
    tracer = Tracer() if trace else None
    refs: list[dict] | None = None
    first_eval_at = perf_counter()
    deadline = first_eval_at + seconds
    speed = Speed()  # its first probe is benchmark time, not set-up time
    lat, cpu, raw_lat, raw_cpu, traced_lat, eval_slowness = [], [], [], [], [], []
    failed = undetermined = sign_count = 0
    problems: list[str] = []
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        outcome = run_cli_process(inp) if cli else run_in_process(inp)
        slowness, cpu_slowness = speed.after_eval()
        raw_lat.append(outcome.seconds)
        raw_cpu.append(outcome.cpu)
        lat.append(outcome.seconds / slowness)
        cpu.append(outcome.cpu / cpu_slowness)
        eval_slowness.append(slowness)
        if refs is None:  # loaded after the first eval, so it is not set-up time
            refs = reference.load(workload) if seed == reference.DEFAULT_SEED else []
        signs, bad = _review(inp, outcome, refs[i] if i < len(refs) else None)
        if tracer is not None:
            tracer.eval_id = i
            traced = run_traced(inp, tracer, cli)
            traced_lat.append(traced.seconds)
            bad += traced.problems
            if traced.canonical != outcome.canonical:
                bad.append("traced output differs from the untraced output")
        if bad:
            failed += 1
            problems += [f"input {i}: {p}" for p in bad]
        undetermined += sum(s == Sign.UNDETERMINED for s in signs)
        sign_count += len(signs)
        i += 1
        if perf_counter() >= deadline:
            break
    return {"first_eval_at": first_eval_at, "lat": lat, "cpu": cpu, "traced_lat": traced_lat,
            "raw_lat": raw_lat, "raw_cpu": raw_cpu, "eval_slowness": eval_slowness,
            "slowness": speed.run_factor(),
            "attempted": i, "failed": failed, "problems": problems[:20],
            "undetermined": undetermined, "sign_count": sign_count, "tracer": tracer}


def end_to_end(raw: dict, workload: str, lat: str = "lat", cpu: str = "cpu") -> dict:
    """The end-to-end metrics; lat="raw_lat", cpu="raw_cpu" gives them unscaled."""
    lat, cpu, n = raw[lat], raw[cpu], raw["attempted"]
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return {
        "eval_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "eval_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000 if n > 1 else lat[0] * 1000, "ms"),
        "evals_per_s": (n / sum(lat), "1/s"),
        "cpu_ms_per_eval": (sum(cpu) / n * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "failed_frac": (raw["failed"] / n, "fraction"),
        "undetermined_frac": (raw["undetermined"] / max(raw["sign_count"], 1), "fraction"),
    }


def _sympy_import_share() -> float:
    """sympy's share of `import radialtyz`, from one `python -X importtime` run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import radialtyz"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]))
    return cumulative.get("sympy", 0) / cumulative["radialtyz"]


def per_layer(raw: dict, workload: str) -> dict:
    tracer = raw["tracer"]
    n = raw["attempted"]
    # a traced eval runs right after its untraced twin, at the slowness measured there
    slowness = raw["eval_slowness"]
    selfs = self_times(tracer.spans, slowness)
    calls: dict[str, int] = {}
    for _, name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    out = {f"{name}_s": (selfs.get(name, 0.0) / n, "s/eval") for name in TIMED_LAYERS}
    out.update({f"{name}_calls": (calls.get(name, 0) / n, "1/eval") for name in CALLED_LAYERS})
    out.update({name: (tracer.counts.get(name, 0) / n, "1/eval") for name in COUNTERS})
    queries = tracer.counts.get("scalars.sign_queries", 0)
    certified = 1 - tracer.counts.get("scalars.sign_undetermined", 0) / queries if queries else 1.0
    # the CLI children time their own import; the other workloads import once, here
    imports = calls.get("cli.import", 0)
    import_s = selfs["cli.import"] / imports if imports else IMPORT_S / raw["slowness"]
    out.update({
        "scalars.sign_certified_ratio": (certified, "fraction"),
        "cli.import_s": (import_s, "s"),
        # -X importtime inflates every import, so its sympy share scales the plain one
        "cli.import_sympy_s": (import_s * _sympy_import_share(), "s"),
        "trace.eval_s": (sum(t / s for t, s in zip(raw["traced_lat"], slowness)) / n, "s/eval"),
        "trace.other_s": (selfs.get(ROOT_SPAN, 0.0) / n, "s/eval"),
        "trace.overhead_frac": (1 - sum(raw["raw_lat"]) / sum(raw["traced_lat"]), "fraction"),
    })
    return out


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = workloads.generate(args.workload, args.seed, COUNT[args.workload])
    if args.setup_only:
        print(json.dumps({"first_eval_at": perf_counter()}))
        return 0
    raw = loop(args.workload, args.seed, args.seconds, inputs, bool(args.trace))
    unscaled = {}
    if args.trace:
        metrics = per_layer(raw, args.workload)
        spans_file = str(write_spans(raw["tracer"], args.workload, args.seed).relative_to(ROOT))
    else:
        metrics = end_to_end(raw, args.workload)
        unscaled = end_to_end(raw, args.workload, "raw_lat", "raw_cpu")
        spans_file = None
    print(json.dumps({
        "first_eval_at": raw["first_eval_at"], "attempted": raw["attempted"],
        "failed": raw["failed"], "problems": raw["problems"], "spans_file": spans_file,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "context": {"python": sys.version.split()[0], "mpmath_backend": libmp.BACKEND,
                    "import_radialtyz_s": IMPORT_S, "slowness": raw["slowness"],
                    "unscaled": {k: v for k, (v, _) in unscaled.items()}},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
