"""tools/bench_record.py: the record it builds from perfbench's output lines,
checked with perfbench and git replaced by canned output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def fake_run(stdout_for):
    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, "abc123\n" if cmd[1] == "rev-parse" else "", "")
        workload = cmd[cmd.index("--workload") + 1]
        trace = int(cmd[cmd.index("--trace") + 1])
        return subprocess.CompletedProcess(cmd, *stdout_for(workload, trace))

    return run


@pytest.fixture
def root(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 45}), encoding="utf-8")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    return tmp_path


def test_record_keeps_info_and_result_lines(root, monkeypatch):
    def stdout_for(workload, trace):
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"m": {"value": trace, "unit": "ms"}}}
        return 0, f"m    {trace} ms\ninfo {json.dumps({'workload': workload})}\n{json.dumps(result)}\n", ""

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run(stdout_for))
    assert bench_record.main(["--pr", "9", "--seed", "3"]) == 0
    record = json.loads((root / "BENCH_9.json").read_text(encoding="utf-8"))
    assert record["pr"] == 9
    assert record["commit"] == "abc123"
    assert record["worktree_clean"] is True
    runs = record["runs"]
    assert [(r["workload"], r["trace"]) for r in runs] == [
        ("acceptance", 0), ("acceptance", 1), ("large_round", 0), ("large_round", 1),
    ]
    assert all(r["seed"] == 3 and r["seconds"] == 45.0 and r["exit"] == 0 for r in runs)
    assert runs[1]["result"]["metrics"]["m"]["value"] == 1
    assert runs[2]["info"] == {"workload": "large_round"}


def test_failed_check_is_recorded_and_reported(root, monkeypatch):
    def stdout_for(workload, trace):
        failed = workload == "large_round" and trace == 0
        result = {"correct": not failed, "attempted": 3, "failed": int(failed), "metrics": {}}
        return int(failed), f"info {{}}\n{json.dumps(result)}\n", ""

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run(stdout_for))
    assert bench_record.main(["--pr", "9", "--seed", "3"]) == 1
    runs = json.loads((root / "BENCH_9.json").read_text(encoding="utf-8"))["runs"]
    assert [r["exit"] for r in runs] == [0, 0, 1, 0]
    assert runs[0]["seconds"] == 45.0


def test_run_without_result_line_is_an_error(root, monkeypatch):
    monkeypatch.setattr(bench_record.subprocess, "run", fake_run(lambda w, t: (2, "", "Traceback ...")))
    with pytest.raises(SystemExit, match="printed no result"):
        bench_record.main(["--pr", "9", "--seed", "3"])
    assert not (root / "BENCH_9.json").exists()
