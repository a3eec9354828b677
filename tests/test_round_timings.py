"""tools/round_timings.py: one real fresh-interpreter rep, then the alternation of base and change and the
printed table, checked with git and the measuring interpreters replaced by canned output."""

import importlib.util
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_SPEC = importlib.util.spec_from_file_location("round_timings", _TOOLS / "round_timings.py")
round_timings = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(round_timings)


def test_one_rep_of_this_checkout(capsys):
    assert round_timings.main(["--reps", "1", "--shapes", "4x10"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["shape", "side", "build_ms", "optimize_ms", "both_ms"]
    shape, side, *values = row.split()
    assert (shape, side) == ("4x10", "change")
    assert all(float(v) > 0.0 for v in values)


def test_base_and_change_alternate_in_fresh_interpreters(monkeypatch, capsys):
    calls = []

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            calls.append(("git", *cmd[1:]))
            buffer = io.BytesIO()
            tarfile.open(fileobj=buffer, mode="w").close()
            return subprocess.CompletedProcess(cmd, 0, buffer.getvalue(), b"")
        assert cmd[0] == sys.executable and cmd[cmd.index("--shapes") + 1] == "12x200"
        assert kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"
        side = "change" if Path(cmd[cmd.index("--measure") + 1]) == round_timings.ROOT / "src" else "base"
        calls.append(side)
        ms = [2.0, 4.0, 6.0] if side == "base" else [1.0, 4.0, 5.0]
        return subprocess.CompletedProcess(cmd, 0, json.dumps({"12x200": ms}), "")

    monkeypatch.setattr(subprocess, "run", run)
    assert round_timings.main(["--base", "HEAD~1", "--reps", "3", "--shapes", "12x200"]) == 0
    assert calls == [("git", "archive", "HEAD~1"), "base", "change", "change", "base", "base", "change"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:]] == [
        ["12x200", "base", "2.000", "4.000", "6.000"],
        ["12x200", "change", "1.000", "4.000", "5.000"],
        ["12x200", "change/base", "-50.0%", "+0.0%", "-16.7%"],
    ]


@pytest.mark.parametrize("argv", [["--shapes", "4x11"], ["--reps", "0"]])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        round_timings.main(argv)
    assert exc.value.code == 2
