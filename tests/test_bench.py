import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_alternates_the_sides_and_summarises_the_pairs():
    tool = _tool()
    base, head = Path("base-checkout"), Path("head-checkout")
    # evals_per_s: head faster in pairs 0 and 2, slower in pair 1
    values = {base: iter([10.0, 12.0, 11.0]), head: iter([13.0, 11.0, 14.0])}
    calls = []

    def run(root, workload, seconds):
        calls.append(root)
        v = next(values[root])
        return {"correct": True, "attempted": 5, "failed": 0, "context": {"root": str(root)},
                "metrics": {"evals_per_s": {"value": v, "unit": "1/s"},
                            "eval_p50_ms": {"value": 1000 / v, "unit": "ms"}}}

    out = tool.bench(base, head, "certify", 3, 1.0,
                     {"evals_per_s": "higher", "eval_p50_ms": "lower"}, run=run)
    assert calls == [base, head, head, base, base, head]
    assert [(r["pair"], r["side"]) for r in out["runs"]] == [
        (0, "base"), (0, "head"), (1, "head"), (1, "base"), (2, "base"), (2, "head")]
    assert out["runs"][1]["context"] == {"root": "head-checkout"}
    rate, p50 = out["summary"]["evals_per_s"], out["summary"]["eval_p50_ms"]
    assert rate["base"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert rate["head"] == {"median": 13.0, "q1": 12.0, "q3": 13.5}
    assert (rate["head_wins"], rate["pairs"]) == (2, 3)
    # a lower latency wins on a lower-is-better metric
    assert (p50["better"], p50["head_wins"]) == ("lower", 2)


def test_bench_reads_the_context_block_and_the_result_line(monkeypatch):
    tool = _tool()
    stdout = (
        "radialtyz benchmark: workload certify, seed 0, 1 s, trace 0\n"
        "  attempted 5 evals, failed 0\n"
        '{"context": {"python": "3.11", "src_lines": 4049}}\n'
        '{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.1}}}\n'
    )
    seen = []

    def fake_run(cmd, cwd, **kwargs):
        seen.append((cmd[1:], cwd))
        return type("Proc", (), {"stdout": stdout})()

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    got = tool.run_once(Path("co"), "certify", 1.0)
    assert seen == [(["perfbench/run.py", "--workload", "certify", "--seed", "0",
                      "--seconds", "1.0", "--trace", "0"], Path("co"))]
    assert got == {"correct": True, "attempted": 5, "failed": 0,
                   "metrics": {"setup_s": {"value": 0.1}},
                   "context": {"python": "3.11", "src_lines": 4049}}
