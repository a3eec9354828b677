"""Print the SHA-256 of each output that a refactor must keep byte-identical.

Run from anywhere, on two commits, and compare the lines:

    python3 tools/output_digests.py

It prints one ``name sha256`` line per entry of OUTPUTS, using the package in
this checkout's src/. Each entry writes its files into a fresh temporary
directory: `agentpose` CLI runs (scene, solve result, benchmark report and
histogram CSVs, serial and with two worker processes, and a benchmark whose
config sets every list-valued key) or the message JSON of one `make_messages`
round at noise 0.6 m / 0.6 deg, once also read back with `messages_from_dict`
and saved again. An entry's digest is
``sha256sum * | sha256sum`` over every file it wrote, in name order. Standard
output is not hashed: it names the files written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from agentpose import (  # noqa: E402
    DetectorSpec, NoiseSpec, generate_scene, make_messages, messages_from_dict, messages_to_dict,
)
from agentpose.cli import main as agentpose_cli  # noqa: E402
from agentpose.scenario import load_json, save_json  # noqa: E402

GENERATE = ("generate", "--seed", "7", "--out", "scene.json")
BENCHMARK = ("benchmark", "--seed", "7", "--format", "csv", "--threads")
LARGE = {"agents": 12, "objects": 200, "area": [200.0, 200.0], "scenes": 10}
SPARSE = {"miss_rate": 0.3, "noise_scale_choices": (0.5, 1.0, 2.0)}
# Every list-valued config key, read through the config file.
LISTS = {
    "area": [100, 130], "extent": [90, 70], "noise_grid": [[0, 0], [0.6, 0.6], [1.0, 1.0]],
    "ap_thresholds": [0.3, 0.5, 0.7], "scenes": 5, "detector": {"noise_scale_choices": [0.5, 1, 2]},
}


def cli(*argvs: tuple[str, ...], config: dict | None = None):
    """An entry that runs the CLI once per argv in its directory, after writing config.json if given."""

    def write(directory: Path) -> None:
        if config is not None:
            (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = agentpose_cli(list(argv))
            if code != 0:
                raise SystemExit(f"output_digests: agentpose {' '.join(argv)} exited {code}")

    return write


def messages(agents: int, objects: int, side: float, seed: int, **detector):
    """An entry that saves one round of messages of generate_scene(agents, objects, (side, side), seed)."""

    def write(directory: Path) -> None:
        scene = generate_scene(agents, objects, area=(side, side), seed=seed)
        round_ = make_messages(scene, NoiseSpec("gaussian", 0.6, 0.6), DetectorSpec(**detector), seed)
        save_json(messages_to_dict(round_), str(directory / "messages.json"))

    return write


def roundtrip(agents: int, objects: int, side: float, seed: int):
    """An entry that saves messages(...)'s round, reads it back with messages_from_dict and saves it again."""

    def write(directory: Path) -> None:
        messages(agents, objects, side, seed)(directory)
        read_back = messages_from_dict(load_json(str(directory / "messages.json")))
        save_json(messages_to_dict(read_back), str(directory / "messages-read-back.json"))

    return write


OUTPUTS = (
    ("generate", cli(GENERATE)),
    ("solve", cli(GENERATE, ("solve", "--scene", "scene.json", "--seed", "7", "--out", "solve.json"))),
    ("benchmark", cli(BENCHMARK + ("1",))),
    ("benchmark-threads2", cli(BENCHMARK + ("2",))),
    ("benchmark-12x200", cli(BENCHMARK + ("1", "--config", "config.json"), config=LARGE)),
    ("benchmark-12x200-threads2", cli(BENCHMARK + ("2", "--config", "config.json"), config=LARGE)),
    ("benchmark-lists", cli(("benchmark", "--seed", "7", "--threads", "1", "--config", "config.json"), config=LISTS)),
    ("messages-4x10-seed0", messages(4, 10, 120.0, 0)),
    ("messages-4x10-seed0-sparse", messages(4, 10, 120.0, 0, **SPARSE)),
    ("messages-12x200-seed1", messages(12, 200, 200.0, 1)),
    ("messages-12x200-seed1-sparse", messages(12, 200, 200.0, 1, **SPARSE)),
    ("messages-roundtrip", roundtrip(4, 10, 120.0, 0)),
)


def digest(write) -> str:
    """``sha256sum * | sha256sum`` over the files that write puts into a fresh directory, run as its cwd."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output_digests_") as tmp:
        os.chdir(tmp)
        try:
            write(Path(tmp))
        finally:
            os.chdir(cwd)
        listing = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n" for path in sorted(Path(tmp).iterdir())
        )
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()


def main() -> int:
    for name, write in OUTPUTS:
        print(f"{name} {digest(write)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
