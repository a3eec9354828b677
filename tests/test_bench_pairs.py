"""tools/bench_pairs.py: pairing, alternation, worktree clean-up, set-up
probes and the gain and bound rules, checked with perfbench and git replaced
by canned output."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
bench_record = bench_pairs.bench_record

SPEC = {
    "run_seconds": 45,
    "workloads": [{"name": "large_round"}, {"name": "acceptance"}],
    "end_to_end": [
        {"name": "scene_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "trans_reduction", "unit": "share", "better": "higher", "bound": 0.03},
    ],
}


@pytest.fixture
def root(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    return tmp_path


def fake_run(values_for, calls):
    """subprocess.run stand-in: git succeeds; perfbench prints values_for(side, seed)."""

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            calls.append(("git", *cmd[1:3]))
            return subprocess.CompletedProcess(cmd, 0, "", "")
        side = "change" if Path(cmd[1]).parents[1] == bench_record.ROOT else "base"
        seed = int(cmd[cmd.index("--seed") + 1])
        assert cmd[cmd.index("--trace") + 1] == "0" and cmd[cmd.index("--seconds") + 1] == "45.0"
        assert kwargs["cwd"] == Path(cmd[1]).parents[1]
        calls.append((side, seed))
        p90, trans, failed = values_for(side, seed)
        metrics = {
            "scene_ms_p90": {"value": p90, "unit": "ms"},
            "setup_s": {"value": 1.0, "unit": "s"},
            "trans_reduction": {"value": trans, "unit": "share"},
        }
        result = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
        return subprocess.CompletedProcess(cmd, int(failed > 0), f"info {{}}\n{json.dumps(result)}\n", "")

    return run


def test_pairs_alternate_and_the_worktree_is_removed(root, monkeypatch, capsys):
    calls = []

    def values_for(side, seed):
        return (20.0 + seed % 3 if side == "base" else 17.0 + seed % 3), 0.9, 0

    monkeypatch.setattr(subprocess, "run", fake_run(values_for, calls))
    assert bench_pairs.main(["--base", "HEAD~1", "--workload", "large_round", "--pairs", "4", "--seed", "7"]) == 0
    assert calls[0][:2] == ("git", "worktree") and calls[0][2] == "add"
    assert calls[-1] == ("git", "worktree", "remove")
    assert calls[1:-1] == [
        ("base", 7), ("change", 7), ("change", 8), ("base", 8),
        ("base", 9), ("change", 9), ("change", 10), ("base", 10),
    ]
    out = capsys.readouterr().out
    assert "  7: 21 -> 18" in out
    assert "change won 4/4; gain holds: yes; worse than bound: no" in out
    assert "large_round change: 0 of 400 operations failed" in out


def test_exit_status_is_one_when_a_median_is_worse_than_its_bound(root, monkeypatch, capsys):
    def values_for(side, seed):
        return (10.0 if side == "base" else 12.6), 0.9, 0

    monkeypatch.setattr(subprocess, "run", fake_run(values_for, []))
    assert bench_pairs.main(["--base", "HEAD~1", "--workload", "acceptance", "--pairs", "3", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "change won 0/3; gain holds: no; worse than bound: yes" in out
    assert "acceptance change: 0 of 300 operations failed, 0 runs exited non-zero" in out


def test_worktree_is_removed_when_a_run_fails(root, monkeypatch):
    calls = []

    def broken(cmd, **kwargs):
        if cmd[0] == "git":
            calls.append(cmd[1:3])
            return subprocess.CompletedProcess(cmd, 0, "", "")
        return subprocess.CompletedProcess(cmd, 2, "", "Traceback ...")

    monkeypatch.setattr(subprocess, "run", broken)
    with pytest.raises(SystemExit, match="printed no result"):
        bench_pairs.main(["--base", "HEAD~1", "--workload", "large_round", "--pairs", "2", "--seed", "1"])
    assert calls == [["worktree", "add"], ["worktree", "remove"]]


def fake_probe(seconds_for, calls):
    """subprocess.run stand-in: git succeeds; a set-up probe prints seconds_for(side, seed)."""

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            calls.append(("git", *cmd[1:3]))
            return subprocess.CompletedProcess(cmd, 0, "", "")
        side = "change" if Path(cmd[1]).parents[1] == bench_record.ROOT else "base"
        seed = int(cmd[cmd.index("--seed") + 1])
        assert cmd[-1] == "--setup-only" and cmd[cmd.index("--workload") + 1] == "large_round"
        assert kwargs["cwd"] == Path(cmd[1]).parents[1]
        calls.append((side, seed))
        seconds = seconds_for(side, seed)
        if seconds is None:
            return subprocess.CompletedProcess(cmd, 1, "", "Traceback ...")
        return subprocess.CompletedProcess(cmd, 0, f"{seconds!r}\n", "")

    return run


def test_setup_probes_alternate_and_compare_setup_s_only(root, monkeypatch, capsys):
    calls = []

    def seconds_for(side, seed):
        return (1.30 + 0.01 * (seed % 4)) if side == "base" else (0.70 + 0.01 * (seed % 4))

    monkeypatch.setattr(subprocess, "run", fake_probe(seconds_for, calls))
    argv = ["--base", "HEAD~1", "--workload", "large_round", "--setup-probes", "10", "--seed", "3"]
    assert bench_pairs.main(argv) == 0
    assert calls[0] == ("git", "worktree", "add") and calls[-1] == ("git", "worktree", "remove")
    assert calls[1:5] == [("base", 3), ("change", 3), ("change", 4), ("base", 4)]
    assert len(calls) == 2 + 20
    out = capsys.readouterr().out
    assert "setup_s (s), base -> change per seed:" in out and "scene_ms_p90" not in out
    assert "  3: 1.33 -> 0.73" in out
    assert "median 1.315 [q1 1.3025, q3 1.3275] -> 0.715 [q1 0.7025, q3 0.7275]; base IQR 0.025" in out
    assert "change won 10/10; gain holds: yes; worse than bound: no" in out
    assert "operations failed" not in out


def test_setup_probes_exit_one_when_setup_is_worse_than_its_bound(root, monkeypatch, capsys):
    monkeypatch.setattr(subprocess, "run", fake_probe(lambda side, seed: 1.0 if side == "base" else 1.3, []))
    argv = ["--base", "HEAD~1", "--workload", "large_round", "--setup-probes", "2", "--seed", "1"]
    assert bench_pairs.main(argv) == 1
    assert "change won 0/2; gain holds: no; worse than bound: yes" in capsys.readouterr().out


def test_worktree_is_removed_when_a_probe_prints_nothing(root, monkeypatch):
    calls = []
    monkeypatch.setattr(subprocess, "run", fake_probe(lambda side, seed: None if side == "change" else 1.0, calls))
    with pytest.raises(SystemExit, match="set-up probe printed no seconds"):
        bench_pairs.main(["--base", "HEAD~1", "--workload", "large_round", "--setup-probes", "2", "--seed", "1"])
    assert calls == [("git", "worktree", "add"), ("base", 1), ("change", 1), ("git", "worktree", "remove")]


def test_pairs_and_setup_probes_exclude_each_other(root):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "X", "--workload", "large_round", "--pairs", "2", "--setup-probes", "2", "--seed", "1"])
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "X", "--workload", "large_round", "--seed", "1"])


def runs(values, name="scene_ms_p90"):
    return [{"result": {"metrics": {name: {"value": v}}}} for v in values]


def summary(base, change, better="lower", bound=0.25):
    spec = {"end_to_end": [{"name": "scene_ms_p90", "unit": "ms", "better": better, "bound": bound}]}
    return bench_pairs.compare(spec, runs(base), runs(change))[0]


def test_gain_needs_nine_in_ten_pairs_and_a_gap_above_the_base_iqr():
    base = [20.0, 21.0, 22.0, 20.5, 21.5, 20.0, 21.0, 22.0, 20.5, 21.5]
    held = summary(base, [v - 3.0 for v in base])
    assert (held["won"], held["gain"], held["worse_than_bound"]) == (10, True, False)
    # Eight pairs won is not enough, however large the gap.
    eight = summary(base, [v - 3.0 for v in base[:8]] + [v + 1.0 for v in base[8:]])
    assert (eight["won"], eight["gain"]) == (8, False)
    # Every pair won, but by less than the base's interquartile range.
    narrow = summary(base, [v - 0.1 for v in base])
    assert (narrow["won"], narrow["gain"]) == (10, False)


def test_bound_is_a_share_of_the_base_median_in_the_worse_direction():
    assert summary([10.0] * 3, [12.4] * 3)["worse_than_bound"] is False
    assert summary([10.0] * 3, [12.6] * 3)["worse_than_bound"] is True
    higher = summary([0.90] * 3, [0.88] * 3, better="higher", bound=0.03)
    assert (higher["won"], higher["gain"], higher["worse_than_bound"]) == (0, False, False)
    assert summary([0.90] * 3, [0.86] * 3, better="higher", bound=0.03)["worse_than_bound"] is True
    assert summary([0.90] * 3, [0.95] * 3, better="higher", bound=0.03)["gain"] is True
