import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_alternates_the_sides_and_summarises_the_pairs(tmp_path):
    tool = _tool()
    base, head = tmp_path / "base-checkout", tmp_path / "head-checkout"
    # tests/ holds 3 lines at base and 2 + 4 at head, one file in a subfolder;
    # a file that is not Python does not count
    for path, text in ((base / "tests" / "test_a.py", "a\nb\nc\n"),
                       (head / "tests" / "test_a.py", "a\nb"),
                       (head / "tests" / "sub" / "helpers.py", "1\n2\n3\n4\n"),
                       (head / "tests" / "notes.txt", "x\n")):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    # evals_per_s: head faster in pairs 0 and 2, slower in pair 1
    values = {base: iter([10.0, 12.0, 11.0]), head: iter([13.0, 11.0, 14.0])}
    calls = []

    def run(root, workload, seconds, trace=0):
        calls.append((root, trace))
        lines = {base: 4132, head: 4100}[root]
        if trace:  # per-layer spans, and a metric BENCHMARK.json does not list
            return {"correct": True, "attempted": 2, "failed": 0,
                    "context": {"root": str(root), "src_lines": lines},
                    "metrics": {"jets.bijet_exp_s": {"value": lines / 1e6, "unit": "s/eval"},
                                "trace.unlisted_s": {"value": 1.0, "unit": "s/eval"}}}
        v = next(values[root])
        return {"correct": True, "attempted": 5, "failed": 0,
                "context": {"root": str(root), "src_lines": lines},
                "metrics": {"evals_per_s": {"value": v, "unit": "1/s"},
                            "eval_p50_ms": {"value": 1000 / v, "unit": "ms"}}}

    out = tool.bench(base, head, "certify", 3, 1.0,
                     {"evals_per_s": "higher", "eval_p50_ms": "lower"},
                     ["jets.bijet_exp_s", "jets.bijet_compose_s"], run=run)
    # the pairs alternate the first side; one traced run per side follows them
    assert calls == [(base, 0), (head, 0), (head, 0), (base, 0), (base, 0), (head, 0),
                     (base, 1), (head, 1)]
    assert [(r["pair"], r["side"]) for r in out["runs"]] == [
        (0, "base"), (0, "head"), (1, "head"), (1, "base"), (2, "base"), (2, "head")]
    assert out["runs"][1]["context"] == {"root": str(head), "src_lines": 4100}
    assert out["trace"] == {
        side: {"correct": True, "metrics": {"jets.bijet_exp_s": {"value": n / 1e6, "unit": "s/eval"}}}
        for side, n in (("base", 4132), ("head", 4100))}
    assert out["summary"]["src_lines"] == {"base": 4132, "head": 4100}
    assert out["summary"]["tests_lines"] == {"base": 3, "head": 6}
    # the process wall times are the invocation's, not the workload's
    assert not {"import_s", "reproduce_paper_s"} & set(out["summary"])
    rate, p50 = out["summary"]["evals_per_s"], out["summary"]["eval_p50_ms"]
    assert rate["base"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert rate["head"] == {"median": 13.0, "q1": 12.0, "q3": 13.5}
    assert (rate["head_wins"], rate["pairs"]) == (2, 3)
    # a lower latency wins on a lower-is-better metric
    assert (p50["better"], p50["head_wins"]) == ("lower", 2)


def test_bench_times_import_and_reproduce_paper_alternating_the_sides(tmp_path):
    tool = _tool()
    base, head = tmp_path / "base", tmp_path / "head"
    # wall times 1, 2, 3, ... in call order; head's third import exits 1
    calls, ticks = [], iter(range(1, 100))

    def clock(root, args):
        calls.append((root, args[:2]))
        failed = root == head and sum(c == (head, ["-c", "import radialtyz"]) for c in calls) == 3
        return float(next(ticks)), int(failed)

    out = tool.process_times({"base": base, "head": head}, clock)
    imp, rep = ["-c", "import radialtyz"], ["-m", "radialtyz.cli"]
    assert calls == [(base, imp), (head, imp)] * 9 + [(base, rep), (head, rep)] * 7
    assert out == {
        "import_s": {"base": {"median": 9.0, "exit_codes": [0] * 9},
                     "head": {"median": 10.0, "exit_codes": [0, 0, 1] + [0] * 6}},
        "reproduce_paper_s": {"base": {"median": 25.0, "exit_codes": [0] * 7},
                              "head": {"median": 26.0, "exit_codes": [0] * 7}},
    }
    assert tool.PROCESSES["reproduce_paper_s"][0] == [
        "-m", "radialtyz.cli", "reproduce-paper", "--format", "json"]


def test_bench_times_a_process_on_its_checkouts_sources(monkeypatch):
    tool = _tool()
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        seen.append((cmd, cwd, env["PYTHONPATH"]))
        return type("Proc", (), {"returncode": 3})()

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    seconds, code = tool.time_process(Path("co"), ["-c", "import radialtyz"])
    assert seen == [([tool.sys.executable, "-c", "import radialtyz"], Path("co"), str(Path("co/src")))]
    assert code == 3 and seconds >= 0


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
    tool.run_once(Path("co"), "certify", 1.0, trace=1)
    assert seen[-1][0][-2:] == ["--trace", "1"]


def test_bench_counts_and_names_the_runs_with_wrong_outputs(monkeypatch, tmp_path, capsys):
    tool = _tool()
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "evals_per_s", "better": "higher"}]}')
    monkeypatch.chdir(tmp_path)
    # the third run.py process (pair 1, head first), the sixth (pair 2, head)
    # and the eighth (head's traced run) are wrong
    correct = iter([True, True, False, True, True, False, True, False])

    def fake_run(cmd, cwd, **kwargs):
        ok = next(correct)
        stdout = ('{"context": {"root": "%s"}}\n{"correct": %s, "attempted": 5, "failed": %d, '
                  '"metrics": {"evals_per_s": {"value": 1.0}}}\n') % (cwd, str(ok).lower(), 0 if ok else 2)
        return type("Proc", (), {"stdout": stdout})()

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        tool.main(["--against", str(tmp_path / "base"), "--workload", "certify",
                   "--pairs", "3", "--seconds", "1", "--out", str(out)],
                  clock=lambda root, args: (1.0, 0))
    assert exc.value.code == ("runs with wrong outputs (correct: false): certify head pair 1, "
                              "certify head pair 2, certify head trace")
    # the file is written first, with the count per side in the summary
    report = json.loads(out.read_text())
    assert report["certify"]["summary"]["incorrect_runs"] == {"base": 0, "head": 2}
    assert report["certify"]["summary"]["evals_per_s"]["pairs"] == 3
    assert report["certify"]["trace"]["head"]["correct"] is False


def test_bench_exits_zero_when_every_run_is_correct(monkeypatch, tmp_path):
    tool = _tool()
    (tmp_path / "BENCHMARK.json").write_text('{"end_to_end": []}')
    monkeypatch.chdir(tmp_path)
    stdout = '{"context": {}}\n{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}\n'
    monkeypatch.setattr(tool.subprocess, "run",
                        lambda cmd, cwd, **kwargs: type("Proc", (), {"stdout": stdout})())
    tool.main(["--against", str(tmp_path), "--workload", "lu-sweep", "--pairs", "2",
               "--seconds", "1", "--out", str(tmp_path / "BENCH.json")],
              clock=lambda root, args: (1.0, 0))
    report = json.loads((tmp_path / "BENCH.json").read_text())
    assert report["lu-sweep"]["summary"] == {
        "incorrect_runs": {"base": 0, "head": 0}, "src_lines": {"base": None, "head": None},
        "tests_lines": {"base": 0, "head": 0}}
    assert {name: report[name] for name in ("import_s", "reproduce_paper_s")} == {
        name: {side: {"median": 1.0, "exit_codes": [0] * count} for side in ("base", "head")}
        for name, count in (("import_s", 9), ("reproduce_paper_s", 7))}


def test_bench_times_the_processes_once_per_invocation(monkeypatch, tmp_path):
    # two workloads in one invocation: 9 imports and 7 reproduce-paper runs per
    # side in all, after every run.py process, written once at the top level
    tool = _tool()
    (tmp_path / "BENCHMARK.json").write_text('{"end_to_end": []}')
    monkeypatch.chdir(tmp_path)
    events = []
    stdout = '{"context": {}}\n{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}\n'

    def fake_run(cmd, cwd, **kwargs):
        events.append("run.py")
        return type("Proc", (), {"stdout": stdout})()

    def clock(root, args):
        events.append(("base" if root == tmp_path / "base" else "head", args[1]))
        return 1.0, 0

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    out.write_text('{"import_s": "stale", "certify": {"kept": true}}')
    tool.main(["--against", str(tmp_path / "base"), "--workload", "lu-sweep", "--workload",
               "cli-oneshot", "--pairs", "1", "--seconds", "1", "--out", str(out)], clock=clock)
    assert events == ["run.py"] * 8 + [("base", "import radialtyz"), ("head", "import radialtyz")] * 9 + [
        ("base", "radialtyz.cli"), ("head", "radialtyz.cli")] * 7
    report = json.loads(out.read_text())
    assert sorted(report) == ["certify", "cli-oneshot", "import_s", "lu-sweep", "reproduce_paper_s"]
    assert report["certify"] == {"kept": True}
    assert report["import_s"]["head"] == {"median": 1.0, "exit_codes": [0] * 9}
