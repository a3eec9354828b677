"""Median in-process CPU time of one solve round's graph build and weighted optimize, per shape.

Run from anywhere, on an idle machine:

    python3 tools/round_timings.py --reps 5
    python3 tools/round_timings.py --base HEAD~1 --reps 16 --shapes 12x200,48x1600

A round is the path ``agentpose solve`` takes, at seed 3: generate_scene
with extent 140 x 140 m and object gap 5 m in a square area (SHAPES),
make_messages at Gaussian noise 0.6 m / 0.6 deg, then build_pose_graph with
agent0 as ego and optimize with the default solver. Each rep runs one fresh
interpreter per side, with BLAS on one thread: process_time would otherwise
also count the time BLAS worker threads spin between calls. The interpreter
builds and solves every shape's round once untimed, then as many times as
SHAPES gives for that shape (more for the small rounds, so each shape takes
a similar share of a second), timing build_pose_graph and optimize with
time.process_time, and reports the median of each. With ``--base REV`` the
revision is exported with ``git archive`` into a temporary directory, and
each rep runs the base and this checkout in turn, the base first in even
reps and second in odd ones. The package is the one under each side's
src/; the timing code is this file for both. The script prints, per shape
and side, the median over the reps of the build, the optimize and their sum
(timed as one span), in ms, and with a base the change against the base's
median.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# name: (agents, objects, side of the square area in m, timed rounds per interpreter)
SHAPES = {"4x10": (4, 10, 120.0, 200), "12x200": (12, 200, 200.0, 40), "48x1600": (48, 1600, 480.0, 5)}
SEED = 3
COLUMNS = ("build", "optimize", "both")
ONE_BLAS_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def measure(shapes: list[str]) -> dict[str, list[float]]:
    """Per shape, the median CPU ms of build, optimize and both over the shape's timed rounds, in this interpreter."""
    from agentpose import DetectorSpec, NoiseSpec, build_pose_graph, generate_scene, make_messages, optimize

    out = {}
    for name in shapes:
        agents, objects, side, rounds = SHAPES[name]
        scene = generate_scene(agents, objects, (side, side), SEED, extent=(140.0, 140.0), min_object_gap=5.0)
        messages = make_messages(scene, NoiseSpec("gaussian", 0.6, 0.6), DetectorSpec(), SEED)
        ego = scene.agents[0].agent_id
        optimize(build_pose_graph(messages, ego))
        samples = []
        for _ in range(rounds):
            t0 = time.process_time()
            graph = build_pose_graph(messages, ego)
            t1 = time.process_time()
            optimize(graph)
            t2 = time.process_time()
            samples.append((t1 - t0, t2 - t1, t2 - t0))
        out[name] = [1e3 * statistics.median(column) for column in zip(*samples)]
    return out


def run_side(root: Path, shapes: list[str]) -> dict[str, list[float]]:
    """measure(shapes) in a fresh interpreter with BLAS on one thread, on the package under root/src."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--measure", str(root / "src"), "--shapes", ",".join(shapes)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, env={**os.environ, **ONE_BLAS_THREAD})
    if out.returncode != 0:
        raise SystemExit(f"round_timings: measuring {root} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout)


def shape_list(text: str) -> list[str]:
    shapes = text.split(",")
    unknown = [s for s in shapes if s not in SHAPES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown shapes {unknown}; choose from {', '.join(SHAPES)}")
    return shapes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="git revision to compare against")
    p.add_argument("--reps", type=int, default=5, help="fresh interpreters per side (default 5)")
    p.add_argument("--shapes", type=shape_list, default=list(SHAPES), help=f"comma-separated, of {','.join(SHAPES)}")
    p.add_argument("--measure", metavar="SRC", help="time the package under SRC in this interpreter and print JSON")
    args = p.parse_args(argv)
    if args.measure is not None:
        sys.path.insert(0, args.measure)
        print(json.dumps(measure(args.shapes)))
        return 0
    if args.reps < 1:
        p.error("--reps must be at least 1")

    with tempfile.TemporaryDirectory(prefix="round_timings_") as tmp:
        sides = [("change", ROOT)]
        if args.base is not None:
            archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(Path(tmp) / "base", filter="data")
            sides.insert(0, ("base", Path(tmp) / "base"))
        runs: dict[str, list[dict]] = {side: [] for side, _ in sides}
        for k in range(args.reps):
            for side, root in sides if k % 2 == 0 else sides[::-1]:
                runs[side].append(run_side(root, args.shapes))

    print(f"{'shape':<9}{'side':<13}" + "".join(f"{c + '_ms':>13}" for c in COLUMNS))
    for shape in args.shapes:
        medians = {}
        for side, _ in sides:
            medians[side] = [statistics.median(run[shape][c] for run in runs[side]) for c in range(len(COLUMNS))]
            print(f"{shape:<9}{side:<13}" + "".join(f"{v:>13.3f}" for v in medians[side]))
        if args.base is not None:
            shares = (f"{100.0 * (c / b - 1.0):+.1f}%" for b, c in zip(medians["base"], medians["change"]))
            print(f"{shape:<9}{'change/base':<13}" + "".join(f"{s:>13}" for s in shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
