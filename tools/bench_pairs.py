"""Alternating benchmark pairs of this checkout against a base revision.

Run from anywhere, on an idle machine:

    python3 tools/bench_pairs.py --base HEAD~1 --workload large_round --pairs 10 --seed 901
    python3 tools/bench_pairs.py --base HEAD~1 --workload large_round --setup-probes 20 --seed 901

The base revision is checked out with ``git worktree add`` into a temporary
directory, removed again at the end. With ``--pairs N``, pair k runs
``perfbench/run.py --trace 0`` with seed S+k once in the base checkout and
once in this one, each for BENCHMARK.json's ``run_seconds``. With
``--setup-probes N``, pair k instead runs one fresh interpreter of
``perfbench/run.py --setup-only`` with seed S+k on each side and compares the
set-up seconds it prints as ``setup_s``: one probe takes seconds where a
benchmark run that reports ``setup_s`` takes ``run_seconds``. The base runs
first in even pairs and second in odd ones. The script prints each pair's
end-to-end values, each side's median and quartiles, and per metric:

- the pairs the change won, that is, where it was strictly better;
- whether a gain holds: the change won at least 9 in 10 pairs and its median
  is better than the base's by more than the base's interquartile range;
- whether the change's median is worse than the base's by more than the
  metric's ``bound``, taken as a share of the base's median.

It exits 1 when a run exited non-zero or some metric is worse than its bound,
else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record  # noqa: E402

ROOT = bench_record.ROOT


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(spec: dict, base: list[dict], change: list[dict]) -> list[dict]:
    """One summary per end-to-end metric of BENCHMARK.json over aligned base/change runs."""
    out = []
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        b = [run["result"]["metrics"][name]["value"] for run in base]
        c = [run["result"]["metrics"][name]["value"] for run in change]
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        won = sum(sign * (y - x) > 0.0 for x, y in zip(b, c))
        limit = bmed * (1.0 - sign * metric["bound"])
        out.append(
            {
                "name": name,
                "unit": metric["unit"],
                "pairs": list(zip(b, c)),
                "base": (bq1, bmed, bq3),
                "change": (cq1, cmed, cq3),
                "won": won,
                "gain": won >= math.ceil(0.9 * len(b)) and sign * (cmed - bmed) > bq3 - bq1,
                "worse_than_bound": sign * (cmed - limit) < 0.0,
            }
        )
    return out


def report_failures(workload: str, base: list[dict], change: list[dict]) -> None:
    for side, runs in (("base", base), ("change", change)):
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"{workload} {side}: {failed} of {attempted} operations failed, {sum(r['exit'] != 0 for r in runs)} runs exited non-zero")


def report(seeds: list[int], summary: list[dict]) -> None:
    n = len(seeds)
    for m in summary:
        print(f"{m['name']} ({m['unit']}), base -> change per seed:")
        for seed, (x, y) in zip(seeds, m["pairs"]):
            print(f"  {seed}: {x:.6g} -> {y:.6g}")
        (bq1, bmed, bq3), (cq1, cmed, cq3) = m["base"], m["change"]
        print(
            f"  median {bmed:.6g} [q1 {bq1:.6g}, q3 {bq3:.6g}] -> {cmed:.6g} [q1 {cq1:.6g}, q3 {cq3:.6g}]; "
            f"base IQR {bq3 - bq1:.6g}; change won {m['won']}/{n}; gain holds: {'yes' if m['gain'] else 'no'}; "
            f"worse than bound: {'yes' if m['worse_than_bound'] else 'no'}"
        )


def setup_probe(workload: str, seed: int, root: Path) -> dict:
    """One fresh-interpreter ``perfbench/run.py --setup-only`` of the checkout at root, as a run with metric setup_s."""
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    try:
        seconds = float(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"bench_pairs: {workload} set-up probe printed no seconds (exit {out.returncode}):\n{out.stderr[-2000:]}"
        ) from None
    return {"exit": out.returncode, "result": {"metrics": {"setup_s": {"value": seconds}}}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    count = p.add_mutually_exclusive_group(required=True)
    count.add_argument("--pairs", type=int, help="number of base/change benchmark pairs")
    count.add_argument("--setup-probes", type=int, help="number of base/change set-up probe pairs")
    p.add_argument("--seed", type=int, required=True, help="workload seed of the first pair")
    args = p.parse_args(argv)
    n = args.setup_probes if args.pairs is None else args.pairs
    if n < 1:
        p.error("--pairs and --setup-probes must be at least 1")
    if args.pairs is None:
        spec = dict(spec, end_to_end=[m for m in spec["end_to_end"] if m["name"] == "setup_s"])

        def run(root: Path, seed: int) -> dict:
            return setup_probe(args.workload, seed, root)
    else:
        seconds = float(spec["run_seconds"])

        def run(root: Path, seed: int) -> dict:
            return bench_record.run_once(args.workload, 0, seed, seconds, root=root)

    seeds = [args.seed + k for k in range(n)]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_root = Path(tmp) / "base"
        bench_record.git("worktree", "add", "--detach", str(base_root), args.base)
        try:
            base, change = [], []
            for k, seed in enumerate(seeds):
                sides = [(base_root, base), (ROOT, change)]
                for root, runs in sides if k % 2 == 0 else sides[::-1]:
                    runs.append(run(root, seed))
        finally:
            bench_record.git("worktree", "remove", "--force", str(base_root))
    summary = compare(spec, base, change)
    if args.pairs is not None:
        report_failures(args.workload, base, change)
    report(seeds, summary)
    failed = any(r["exit"] != 0 for r in base + change)
    return 1 if failed or any(m["worse_than_bound"] for m in summary) else 0


if __name__ == "__main__":
    sys.exit(main())
