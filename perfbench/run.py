"""Benchmark of agentpose: closed-loop workloads, output checks and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 20 --trace 0

Workloads: acceptance, large_round (see workloads.py).
``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json with
tracing off; ``--trace 1`` runs the traced pass and reports the per-layer
metrics. Every operation's output is checked. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is 0 when every check passed, 1 when a check failed
and 2 when the package or BENCHMARK.json cannot be found.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before the package loads

import os

# One BLAS thread: on a small shared machine a multi-threaded solve is timed by
# its neighbours' load, and the pool comparison would run two threads per worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated in this many fresh interpreters and reported as the median
# together with this process's own set-up.
SETUP_PROBES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("acceptance", "large_round"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help="print this process's set-up seconds and exit")
    return p.parse_args(argv)


def machine() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10, check=True)
            return int(out.stdout.strip())
        except (OSError, subprocess.SubprocessError, ValueError):
            return None

    import numpy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "last_level_cache_bytes": getconf("LEVEL3_CACHE_SIZE") or getconf("LEVEL2_CACHE_SIZE"),
    }


def setup(wl, workload: str, seed: int):
    if workload == "large_round":
        return wl.large_setup(seed)
    wl.acceptance_setup(seed)
    return None


def probe_setup(args) -> float:
    """Set-up seconds of one fresh interpreter running the same workload set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "agentpose" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/agentpose package or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.trace:
        return traced(args, wl, spec_path)

    state = setup(wl, args.workload, args.seed)
    own_setup = time.perf_counter() - _START
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setup_samples = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    if args.workload == "large_round":
        metrics, reported, info, outcome, ratios = wl.run_large(state, args.seconds)
    else:
        metrics, reported, info, outcome, ratios = wl.run_acceptance(args.seed, args.seconds)
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reported.update(
        {
            "error_rate": (outcome.failed / outcome.attempted, "share"),
            "trans_ratio": (ratios[0], "share"),
            "rot_ratio": (ratios[1], "share"),
        }
    )
    info["setup_s_samples"] = setup_samples
    return finish(args, spec_path, "end_to_end", metrics, info, outcome, reported)


def traced(args, wl, spec_path) -> int:
    import tracing

    if args.workload == "large_round":
        metrics, outcome = tracing.traced_large(args.seed, args.seconds)
    else:
        wl.acceptance_setup(args.seed)
        metrics, outcome = tracing.traced_acceptance(args.seed, args.seconds)
    sweep_metrics, sweep_info = tracing.sweep(args.seed)
    metrics.update(sweep_metrics)
    info = {
        "error_rate": outcome.failed / outcome.attempted,
        "sweep": sweep_info,
        "self_time": "ms_per_scene figures are span self time, children excluded",
        "computed": "jacobian_bytes_computed figures come from the Jacobian's shape, not from a measurement",
        "predicted_to_move": tracing.PREDICTIONS,
    }
    return finish(args, spec_path, "per_layer", metrics, info, outcome)


def finish(args, spec_path, kind: str, metrics: dict, info: dict, outcome, reported=None) -> int:
    """Print the metrics by name and unit, then the result line.

    ``reported`` maps name -> (value, unit) of figures printed and put on the
    ``info`` line but left out of the result, because BENCHMARK.json does not
    gate them.
    """
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        print(
            f"perfbench: {kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, unlisted {sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 2
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    info = {"workload": args.workload, "why": why, "seed": args.seed, "machine": machine(), **info}
    for name in units:
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    for name, (value, unit) in (reported or {}).items():
        print(f"{name:48s} {value:>16.6g} {unit} (reported, not gated)")
        info[name] = value
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print("info " + json.dumps(info, sort_keys=True))
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
