"""Record one benchmark snapshot of this commit as BENCH_<pr>.json at the repository root.

Run from anywhere, on an idle machine:

    python3 tools/bench_record.py --pr 7 --seed 1

It runs ``perfbench/run.py`` once per workload with ``--trace 0`` (the gated
end-to-end metrics) and once with ``--trace 1`` (the per-layer metrics and
the sweep), one run at a time, each for BENCHMARK.json's ``run_seconds``.
Each run's ``info`` line and its final result line are kept as parsed JSON,
next to the commit hash and whether the work tree had uncommitted changes.
The file holds no timing that the runs themselves did not print.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("acceptance", "large_round")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def run_once(workload: str, trace: int, seed: int, seconds: float) -> dict:
    """One perfbench run: its exit status, info line and result line."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=seconds * 4 + 900)
    lines = out.stdout.strip().splitlines()
    info = [json.loads(line[len("info "):]) for line in lines if line.startswith("info ")]
    if not lines or not lines[-1].startswith("{") or len(info) != 1:
        raise SystemExit(
            f"bench_record: {workload} --trace {trace} printed no result (exit {out.returncode}):\n{out.stderr[-2000:]}"
        )
    return {
        "workload": workload,
        "trace": trace,
        "seed": seed,
        "seconds": seconds,
        "exit": out.returncode,
        "info": info[0],
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--seed", type=int, required=True, help="workload seed passed to perfbench")
    args = p.parse_args(argv)
    seconds = float(spec["run_seconds"])
    record = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD"),
        "worktree_clean": git("status", "--porcelain", "--untracked-files=no") == "",
        "runs": [
            run_once(workload, trace, args.seed, seconds) for workload in WORKLOADS for trace in (0, 1)
        ],
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = [f"{r['workload']} --trace {r['trace']}" for r in record["runs"] if r["exit"] != 0]
    print(f"wrote {out}" + (f"; runs with failed checks: {failed}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
