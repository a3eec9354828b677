"""Command-line entry points: generate, solve, benchmark, selftest.

Every run is fully described by a flat JSON config file plus a seed; flags
override config values. Exit codes: 0 success, 1 usage or config error,
2 runtime or partial failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from typing import Any

from .evaluate import BenchmarkConfig, run_benchmark, write_histogram_csv
from .posegraph import SolverParams, build_pose_graph, optimize, relative_poses
from .scenario import (
    DetectorSpec,
    NoiseSpec,
    ScenarioError,
    generate_scene,
    load_json,
    make_messages,
    save_json,
    scene_from_dict,
    scene_to_dict,
)

ENV_THREADS = "AGENTPOSE_THREADS"

# Config keys that name a BenchmarkConfig field differently, as "key" or "parent.key".
_RENAMES = {"num_agents": "agents", "num_objects": "objects", "noise_kind": "noise.kind"}
# Pose noise of `solve`; `benchmark` takes its noise levels from noise_grid.
_SOLVE_NOISE = {"trans_scale": 0.6, "rot_scale": 0.6}


def _slot(table: dict, name: str) -> tuple[dict, str]:
    """The dict and key that hold BenchmarkConfig field `name` in a config table."""
    *parent, key = _RENAMES.get(name, name).split(".")
    return (table[parent[0]] if parent else table), key


def config_defaults() -> dict:
    """The config table with its defaults: the BenchmarkConfig fields under their
    config keys, plus the keys only `solve` reads (ego and the noise scales)."""
    table: dict[str, Any] = {"ego": None, "noise": dict(_SOLVE_NOISE)}
    for name, value in json.loads(json.dumps(asdict(BenchmarkConfig(seed=0)))).items():
        node, key = _slot(table, name)
        node[key] = value
    table["seed"] = None
    return table


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _merge_config(path: str | None) -> dict:
    config = config_defaults()
    if path is None:
        return config
    try:
        user = load_json(path)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise UsageError(f"config {path}: top level must be an object")
    for key, value in user.items():
        if key not in config:
            raise UsageError(f"config {path}: unknown key {key!r}")
        if isinstance(config[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config {path}: field {key!r} must be an object")
            for sub, subval in value.items():
                if sub not in config[key]:
                    raise UsageError(f"config {path}: unknown key {key}.{sub}")
                config[key][sub] = subval
        else:
            config[key] = value
    return config


def _build(cls: type, cfg: dict, key: str) -> Any:
    try:
        return cls(**cfg[key])
    except (ValueError, TypeError) as exc:
        raise UsageError(f"config field {key!r}: {exc}") from exc


def _benchmark_config(cfg: dict, seed: int) -> BenchmarkConfig:
    """The BenchmarkConfig of a merged config table; every command reads its values through it."""
    kwargs = {}
    for f in fields(BenchmarkConfig):
        node, key = _slot(cfg, f.name)
        kwargs[f.name] = node[key]
    kwargs.update(
        seed=seed, detector=_build(DetectorSpec, cfg, "detector"), solver=_build(SolverParams, cfg, "solver")
    )
    try:
        return BenchmarkConfig(**kwargs)
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"invalid config: {exc}") from exc


def _require_seed(cfg: dict, args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else cfg["seed"]
    if seed is None:
        raise UsageError("a seed is required (--seed or config 'seed')")
    return int(seed)


def _thread_count(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return max(1, int(args.threads))
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"{ENV_THREADS} must be an integer, got {env!r}") from exc
    return 1


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args.config)
    seed = _require_seed(cfg, args)
    config = _benchmark_config(cfg, seed)
    scene = generate_scene(
        config.num_agents,
        config.num_objects,
        area=config.area,
        seed=seed,
        extent=config.extent,
        min_object_gap=config.min_object_gap,
    )
    out = args.out or "scene.json"
    try:
        save_json(scene_to_dict(scene), out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    print(f"seed: {seed}")
    print(f"wrote {out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _merge_config(args.config)
    try:
        scene = scene_from_dict(load_json(args.scene))
    except OSError as exc:
        raise UsageError(f"cannot read scene {args.scene}: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"scene {args.scene}: {exc}") from exc
    ego = args.ego or cfg["ego"] or scene.agents[0].agent_id
    if all(a.agent_id != ego for a in scene.agents):
        raise UsageError(f"ego agent {ego!r} not present in scene")
    seed = args.seed if args.seed is not None else (cfg["seed"] if cfg["seed"] is not None else 0)
    config = _benchmark_config(cfg, int(seed))
    noise = _build(NoiseSpec, cfg, "noise")

    messages = make_messages(scene, noise, config.detector, int(seed))
    graph = build_pose_graph(messages, ego, center_gap=config.cluster_gap)
    result = optimize(graph, config.solver)
    rel = relative_poses(result.agent_poses, ego)
    boxes = sum(len(m.block) for m in messages)
    payload = {
        "type": "solve_result",
        "version": 1,
        "ego": ego,
        "seed": int(seed),
        "measured_poses": {m.agent_id: [m.measured_pose.x, m.measured_pose.y, m.measured_pose.theta] for m in messages},
        "corrected_global_poses": {aid: [p.x, p.y, p.theta] for aid, p in result.agent_poses.items()},
        "corrected_relative_poses": {aid: [p.x, p.y, p.theta] for aid, p in rel.items()},
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "termination": result.termination,
        "rejected_steps": result.rejected_steps,
        "objective_trace": list(result.objective_trace),
        "graph": {
            "objects": len(graph.object_poses),
            "edges": len(graph.measurements),
            "boxes": boxes,
            "pruned_boxes": boxes - len(graph.measurements),
        },
    }
    if args.out:
        try:
            save_json(payload, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = _merge_config(args.config)
    config = _benchmark_config(cfg, _require_seed(cfg, args))
    result = run_benchmark(config, threads=_thread_count(args))
    stem = args.out or "benchmark"
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    report_path = f"{stem}.json"
    try:
        save_json(result.to_dict(), report_path)
        print(f"wrote {report_path}")
        if args.format == "csv":
            for level in result.levels:
                label = f"{level.noise.trans_scale:g}-{level.noise.rot_scale:g}"
                for metric in ("translation", "rotation"):
                    path = f"{stem}.{label}.{metric}.csv"
                    write_histogram_csv(level, metric, path)
                    print(f"wrote {path}")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    for level in result.levels:
        ratio = level.median_reduction_ratio
        t = "n/a" if ratio["translation"] is None else f"{ratio['translation']:.3f}"
        r = "n/a" if ratio["rotation"] is None else f"{ratio['rotation']:.3f}"
        print(
            f"noise {level.noise.trans_scale:g}/{level.noise.rot_scale:g}: "
            f"median reduction translation={t} rotation={r}"
        )
    return 0 if result.status == "clean" else 2


def _cmd_selftest() -> int:
    from .selftest import run_selftest

    results = run_selftest()
    failed = 0
    for name, ok, detail in results:
        status = "ok" if ok else "FAIL"
        line = f"{status:4s} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def _make_parser() -> _Parser:
    parser = _Parser(prog="agentpose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", help="output path")

    p_gen = sub.add_parser("generate", help="write a synthetic scene JSON")
    common(p_gen)
    p_solve = sub.add_parser("solve", help="correct relative poses for one scene")
    common(p_solve)
    p_solve.add_argument("--scene", required=True, help="scene JSON file")
    p_solve.add_argument("--ego", help="ego agent id (default: first agent)")
    p_bench = sub.add_parser("benchmark", help="run the noise-grid benchmark")
    common(p_bench)
    p_bench.add_argument("--format", choices=("json", "csv"), default="json")
    p_bench.add_argument("--threads", type=int, help=f"worker processes (default ${ENV_THREADS} or 1)")
    sub.add_parser("selftest", help="run oracle-based property checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "benchmark":
            return _cmd_benchmark(args)
        return _cmd_selftest()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
