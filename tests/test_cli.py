"""CLI tests: exit-code contract, file round-trips, and equality with direct
library calls."""

import ast
import json
from pathlib import Path

import pytest

import agentpose
from agentpose.cli import config_defaults, main
from agentpose.geometry import compose, inverse, normalize_angle
from agentpose.posegraph import build_pose_graph, optimize, relative_poses
from agentpose.scenario import (
    DetectorSpec,
    NoiseSpec,
    load_json,
    make_messages,
    scene_from_dict,
)

from helpers import BAD_SCENE_FIELDS, with_field


def run_generate(tmp_path, seed=1, extra=()):
    out = tmp_path / "scene.json"
    rc = main(["generate", "--seed", str(seed), "--out", str(out), *extra])
    return rc, out


class TestGenerate:
    def test_writes_loadable_scene(self, tmp_path):
        rc, out = run_generate(tmp_path)
        assert rc == 0
        scene = scene_from_dict(load_json(str(out)))
        assert len(scene.agents) == 4
        assert len(scene.objects) == 10

    def test_same_seed_identical_files(self, tmp_path):
        _, first = run_generate(tmp_path, seed=9)
        data1 = first.read_bytes()
        _, second = run_generate(tmp_path, seed=9)
        assert second.read_bytes() == data1

    def test_seed_required(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_infeasible_packing_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objects": 500, "area": [20.0, 20.0]}))
        rc = main(["generate", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "infeasible packing" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objetcs": 5}))
        rc = main(["generate", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err


class TestSolve:
    def test_zero_noise_recovers_truth(self, tmp_path):
        _, scene_path = run_generate(tmp_path, seed=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "noise": {"trans_scale": 0.0, "rot_scale": 0.0},
            "detector": {"center_noise_sd": 0.0, "heading_noise_sd": 0.0},
        }))
        out = tmp_path / "solve.json"
        rc = main(["solve", "--scene", str(scene_path), "--config", str(cfg), "--seed", "0", "--out", str(out)])
        assert rc == 0
        payload = load_json(str(out))
        scene = scene_from_dict(load_json(str(scene_path)))
        truth = {a.agent_id: a.pose for a in scene.agents}
        ego = payload["ego"]
        inv_ego = inverse(truth[ego])
        for aid, rel in payload["corrected_relative_poses"].items():
            want = compose(inv_ego, truth[aid])
            assert abs(rel[0] - want.x) <= 1e-6
            assert abs(rel[1] - want.y) <= 1e-6
            assert abs(normalize_angle(rel[2] - want.theta)) <= 1e-6
        trace = payload["objective_trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert payload["converged"] is True

    def test_matches_direct_api(self, tmp_path):
        _, scene_path = run_generate(tmp_path, seed=5)
        out = tmp_path / "solve.json"
        rc = main(["solve", "--scene", str(scene_path), "--seed", "11", "--out", str(out)])
        assert rc == 0
        payload = load_json(str(out))

        scene = scene_from_dict(load_json(str(scene_path)))
        messages = make_messages(scene, NoiseSpec(trans_scale=0.6, rot_scale=0.6), DetectorSpec(), 11)
        graph = build_pose_graph(messages, scene.agents[0].agent_id)
        result = optimize(graph)
        rel = relative_poses(result.agent_poses, scene.agents[0].agent_id)
        assert payload["objective"] == result.objective
        assert payload["iterations"] == result.iterations
        for aid, pose in rel.items():
            assert payload["corrected_relative_poses"][aid] == [pose.x, pose.y, pose.theta]

    def test_reports_why_the_solve_stopped(self, tmp_path):
        _, scene_path = run_generate(tmp_path, seed=5)
        out = tmp_path / "solve.json"
        assert main(["solve", "--scene", str(scene_path), "--seed", "11", "--out", str(out)]) == 0
        payload = load_json(str(out))

        scene = scene_from_dict(load_json(str(scene_path)))
        messages = make_messages(scene, NoiseSpec(trans_scale=0.6, rot_scale=0.6), DetectorSpec(), 11)
        result = optimize(build_pose_graph(messages, scene.agents[0].agent_id))
        assert payload["termination"] == result.termination
        assert payload["rejected_steps"] == result.rejected_steps
        assert payload["termination"] in ("gradient_tol", "decrease_tol", "no_step_accepted")

    def test_reports_graph_counts(self, tmp_path):
        _, scene_path = run_generate(tmp_path, seed=5)
        outs = [tmp_path / "solve1.json", tmp_path / "solve2.json"]
        for out in outs:
            assert main(["solve", "--scene", str(scene_path), "--seed", "11", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        payload = load_json(str(outs[0]))

        scene = scene_from_dict(load_json(str(scene_path)))
        messages = make_messages(scene, NoiseSpec(trans_scale=0.6, rot_scale=0.6), DetectorSpec(), 11)
        graph = build_pose_graph(messages, scene.agents[0].agent_id)
        boxes = sum(len(m.boxes) for m in messages)
        assert payload["graph"] == {
            "objects": len(graph.object_poses),
            "edges": len(graph.edges),
            "boxes": boxes,
            "pruned_boxes": boxes - len(graph.edges),
        }
        assert 0 < payload["graph"]["objects"] < payload["graph"]["edges"] <= boxes

    def test_unknown_ego_rejected(self, tmp_path, capsys):
        _, scene_path = run_generate(tmp_path, seed=3)
        rc = main(["solve", "--scene", str(scene_path), "--ego", "ghost", "--seed", "0"])
        assert rc == 1
        assert "ghost" in capsys.readouterr().err

    def test_malformed_scene_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "scene", "version": 1, "agents": [{"id": "a"}], "objects": [], "extent": [1, 1]}))
        rc = main(["solve", "--scene", str(bad), "--seed", "0"])
        assert rc == 1
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", BAD_SCENE_FIELDS)
    def test_bad_scene_field_is_one_error_line(self, tmp_path, capsys, path, value, message):
        _, scene_path = run_generate(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_field(load_json(str(scene_path)), path, value)))
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(["solve", "--scene", str(bad), "--seed", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: scene {bad}: {message}")
        assert len(captured.err.splitlines()) == 1 and not out.exists()

    def test_missing_scene_file(self, tmp_path):
        rc = main(["solve", "--scene", str(tmp_path / "nope.json"), "--seed", "0"])
        assert rc == 1


def small_benchmark_config(tmp_path, **overrides):
    cfg = {
        "scenes": 3,
        "noise_grid": [[0.0, 0.0], [0.2, 0.2], [0.4, 0.4], [0.6, 0.6]],
    }
    cfg.update(overrides)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    return path


class TestBenchmark:
    def test_report_structure_and_exit(self, tmp_path):
        cfg = small_benchmark_config(tmp_path)
        out = tmp_path / "report"
        rc = main(["benchmark", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        assert rc == 0
        report = load_json(str(out) + ".json")
        assert report["status"] == "clean"
        assert len(report["levels"]) == 4
        for level in report["levels"]:
            assert {"before", "after_graph", "after_weighted"} <= set(level["errors"]["translation"])
            assert set(level["quantiles"]["before"]["translation"]) == {"p25", "median", "p75"}
        assert len(report["median_reduction_table"]) == 4

    def test_csv_format_writes_histograms(self, tmp_path):
        cfg = small_benchmark_config(tmp_path, noise_grid=[[0.4, 0.4]])
        out = tmp_path / "report"
        rc = main(["benchmark", "--config", str(cfg), "--seed", "2", "--out", str(out), "--format", "csv"])
        assert rc == 0
        for metric in ("translation", "rotation"):
            csv_path = tmp_path / f"report.0.4-0.4.{metric}.csv"
            lines = csv_path.read_text().splitlines()
            assert lines[0] == "bin_left,bin_right,density,series"
            series = {line.rsplit(",", 1)[1] for line in lines[1:]}
            assert series == {"before", "after-graph", "after-graph+uncertainty"}

    def test_byte_identical_reports(self, tmp_path):
        cfg = small_benchmark_config(tmp_path, noise_grid=[[0.6, 0.6]])
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["benchmark", "--config", str(cfg), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["benchmark", "--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_threads_flag_same_output(self, tmp_path):
        cfg = small_benchmark_config(tmp_path, noise_grid=[[0.4, 0.4]])
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert main(["benchmark", "--config", str(cfg), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["benchmark", "--config", str(cfg), "--seed", "7", "--out", str(out2), "--threads", "2"]) == 0
        assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "parallel.json").read_bytes()

    def test_env_threads_honored_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AGENTPOSE_THREADS", "not-a-number")
        cfg = small_benchmark_config(tmp_path, noise_grid=[[0.2, 0.2]])
        rc = main(["benchmark", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "x")])
        assert rc == 1  # bad env value surfaces as usage error
        rc = main(["benchmark", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "x"), "--threads", "1"])
        assert rc == 0  # flag overrides the broken env value

    def test_seed_mandatory(self, tmp_path, capsys):
        cfg = small_benchmark_config(tmp_path)
        rc = main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_partial_failure_exit_code(self, tmp_path):
        cfg = small_benchmark_config(
            tmp_path, scenes=2, objects=500, area=[20.0, 20.0], noise_grid=[[0.2, 0.2]]
        )
        rc = main(["benchmark", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path / "r")])
        assert rc == 2
        report = load_json(str(tmp_path / "r.json"))
        assert report["status"] == "partial"


BAD_CONFIG_VALUES = [
    pytest.param({"noise": {"kind": "bogus"}}, id="noise_kind"),
    pytest.param({"agents": 0}, id="agents"),
    pytest.param({"area": [0, 10]}, id="area_zero"),
    pytest.param({"area": [10]}, id="area_one_value"),
    pytest.param({"extent": [0, -3]}, id="extent"),
    pytest.param({"min_object_gap": -5}, id="min_object_gap"),
    pytest.param({"noise_grid": [[-1, 0]]}, id="noise_grid"),
    pytest.param({"ap_thresholds": [1.5]}, id="ap_thresholds"),
    pytest.param({"cluster_gap": 0}, id="cluster_gap_zero"),
    pytest.param({"cluster_gap": -1}, id="cluster_gap_negative"),
    pytest.param({"nms_iou": 0}, id="nms_iou"),
    # json.load reads NaN and Infinity; every float field must be finite.
    pytest.param({"cluster_gap": float("nan")}, id="cluster_gap_nan"),
    pytest.param({"cluster_gap": float("inf")}, id="cluster_gap_inf"),
    pytest.param({"area": [float("nan"), 100]}, id="area_nan"),
    pytest.param({"area": [100, float("inf")]}, id="area_inf"),
    pytest.param({"min_object_gap": float("nan")}, id="min_object_gap_nan"),
    pytest.param({"min_object_gap": float("inf")}, id="min_object_gap_inf"),
    pytest.param({"noise_grid": [[float("nan"), 0.2]]}, id="noise_grid_nan"),
    pytest.param({"noise_grid": [[0.2, float("inf")]]}, id="noise_grid_inf"),
    pytest.param({"detector": {"center_noise_sd": float("nan")}}, id="detector_nan"),
    pytest.param({"detector": {"detection_range": float("inf")}}, id="detector_inf"),
    pytest.param({"solver": {"initial_damping": float("nan")}}, id="solver_nan"),
    pytest.param({"solver": {"max_iterations": float("inf")}}, id="solver_inf"),
    pytest.param({"scenes": float("inf")}, id="scenes_inf"),
    # Counts must be whole numbers: int() would silently truncate these.
    pytest.param({"scenes": 2.7}, id="scenes_fraction"),
    pytest.param({"agents": 3.5}, id="agents_fraction"),
    pytest.param({"objects": 9.5}, id="objects_fraction"),
    pytest.param({"solver": {"max_iterations": 2.5}}, id="max_iterations_fraction"),
    # JSON true and false are not numbers: float() and int() would read them as 1 and 0.
    pytest.param({"agents": True}, id="agents_true"),
    pytest.param({"detector": {"miss_rate": True}}, id="miss_rate_true"),
    pytest.param({"noise_grid": [[True, 0.6]]}, id="noise_grid_true"),
    pytest.param({"solver": {"max_iterations": True}}, id="max_iterations_true"),
    pytest.param({"cluster_gap": True}, id="cluster_gap_true"),
    pytest.param({"nms_iou": True}, id="nms_iou_true"),
    # A JSON string is not a list: iterating it would read its digits ("99" as 9, 9).
    pytest.param({"extent": "99"}, id="extent_text"),
    pytest.param({"area": "12"}, id="area_text"),
    pytest.param({"noise_grid": ["06"]}, id="noise_grid_text"),
    pytest.param({"noise_grid": [[0.1, 0.2, 0.3]]}, id="noise_grid_three_values"),
    pytest.param({"detector": {"noise_scale_choices": "25"}}, id="noise_scale_choices_text"),
    # Two thresholds that print alike under :g would share one AP key of the report.
    pytest.param({"ap_thresholds": [0.5, 0.7, 0.5000001]}, id="ap_thresholds_same_key"),
]


def command_argv(tmp_path, command, config, flags=(), out="out.json"):
    """argv of command with config written to a file, flags and --out; solve reads a freshly generated scene."""
    _, scene = run_generate(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [command, *flags, "--config", str(cfg), "--out", str(tmp_path / out)]
    return argv + ["--scene", str(scene)] if command == "solve" else argv


def assert_usage_error_and_no_output(tmp_path, capsys, command, config, flags):
    argv = command_argv(tmp_path, command, config, flags)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not list(tmp_path.glob("out*"))


class TestBadConfigValues:
    @pytest.mark.parametrize("command", ["generate", "solve", "benchmark"])
    @pytest.mark.parametrize("bad", BAD_CONFIG_VALUES)
    def test_usage_error_and_no_output(self, tmp_path, capsys, command, bad):
        assert_usage_error_and_no_output(tmp_path, capsys, command, bad, ["--seed", "1"])


# A seed is a whole number >= 0, from --seed or the config.
BAD_SEEDS = [
    pytest.param({"seed": 2.7}, [], id="config_fraction"),
    pytest.param({"seed": -3}, [], id="config_negative"),
    pytest.param({"seed": "abc"}, [], id="config_text"),
    pytest.param({"seed": [1]}, [], id="config_list"),
    pytest.param({"seed": True}, [], id="config_true"),
    pytest.param({}, ["--seed", "-3"], id="flag_negative"),
]


class TestSeedRule:
    @pytest.mark.parametrize("command", ["generate", "solve", "benchmark"])
    @pytest.mark.parametrize("config, flags", BAD_SEEDS)
    def test_usage_error_and_no_output(self, tmp_path, capsys, command, config, flags):
        assert_usage_error_and_no_output(tmp_path, capsys, command, config, flags)

    @pytest.mark.parametrize("command", ["generate", "solve", "benchmark"])
    def test_whole_float_seed_writes_the_bytes_of_the_int_seed(self, tmp_path, command):
        small = {"scenes": 1, "noise_grid": [[0.2, 0.2]]}
        assert main(command_argv(tmp_path, command, {**small, "seed": 7.0}, out="float.json")) == 0
        assert main(command_argv(tmp_path, command, small, ["--seed", "7"], out="flag.json")) == 0
        assert (tmp_path / "float.json").read_bytes() == (tmp_path / "flag.json").read_bytes()


@pytest.mark.parametrize(
    "flags, env",
    [(["--threads", "0"], None), (["--threads", "-2"], None), ([], "0"), ([], "abc")],
    ids=["flag_zero", "flag_negative", "env_zero", "env_text"],
)
def test_worker_count_is_a_whole_number_of_at_least_one(tmp_path, capsys, monkeypatch, flags, env):
    if env is None:
        monkeypatch.delenv("AGENTPOSE_THREADS", raising=False)
    else:
        monkeypatch.setenv("AGENTPOSE_THREADS", env)
    assert_usage_error_and_no_output(tmp_path, capsys, "benchmark", {"scenes": 1}, ["--seed", "1", *flags])


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed", "1"],
        ["solve", "--scene", "{scene}", "--seed", "1"],
        ["benchmark", "--config", "{config}", "--seed", "1", "--format", "csv"],
    ],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    _, scene = run_generate(tmp_path)
    config = small_benchmark_config(tmp_path, scenes=1, noise_grid=[[0.2, 0.2]])
    out = tmp_path / "missing" / "out.json"
    capsys.readouterr()
    assert main([a.format(scene=scene, config=config) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestSelftestAndUsage:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_unknown_command_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_usage_error(self):
        assert main(["generate", "--bogus"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--scene", "{scene}", "--seed", "0", "--threads", "2"],
            ["generate", "--seed", "1", "--out", "{out}", "--format", "csv"],
            ["selftest", "--seed", "1"],
        ],
    )
    def test_flag_of_another_subcommand_usage_error(self, tmp_path, capsys, argv):
        _, scene = run_generate(tmp_path)
        out = tmp_path / "out.json"
        assert main([a.format(scene=scene, out=out) for a in argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_config_block_equals_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("Config keys and their defaults", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        assert json.dumps(json.loads(block), sort_keys=True) == json.dumps(config_defaults(), sort_keys=True)

    def test_readme_library_use_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library use", 1)[1]
        block = section.split("```python", 1)[1].split("```", 1)[0]
        names: dict = {}
        exec(compile(block, "README.md", "exec"), names)
        assert set(names["corrected"]) == {a.agent_id for a in names["scene"].agents}
        assert names["report"].status == "clean" and names["report"].levels[0].n_scenes == 200
        assert capsys.readouterr().out.strip() == str(names["report"].levels[0].median_reduction_ratio)


def imported_names(module: str) -> set[str]:
    """Dotted names a package module imports; relative imports keep their leading dots."""
    tree = ast.parse((Path(agentpose.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestOracleIndependence:
    def test_oracles_import_nothing_from_the_package(self):
        names = imported_names("oracles")
        assert not [n for n in names if n.startswith(".") or n.split(".")[0] == "agentpose"]

    @pytest.mark.parametrize("module", ["__init__", "geometry", "uncertainty", "posegraph", "scenario", "evaluate"])
    def test_pipeline_does_not_import_checks(self, module):
        parts = {part for name in imported_names(module) for part in name.split(".")}
        assert not parts & {"oracles", "selftest"}
