"""Synthetic scenes, pose-noise injection, and the noisy detection oracle.

Everything here is a pure function of its inputs and a seed. Per-agent draws
come from independent substreams derived by hashing (seed, agent id, purpose),
so adding an agent or changing one stream never perturbs the others.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Pose2, compose_columns, inverse, non_negative, number, numbers, positive_finite, unit_interval, whole_number,
)
from .posegraph import BOX_WIDTH, AgentMessage

# Reported variances are floored so zero-noise runs still produce valid
# (positive definite) information weights.
VARIANCE_FLOOR = 1e-6
# Scene defaults: each agent's (forward, lateral) visibility half-extent, and
# the smallest centre distance between two objects.
DEFAULT_EXTENT = (140.0, 140.0)
DEFAULT_MIN_OBJECT_GAP = 5.0

_GAUSSIAN = "gaussian"
_LAPLACE = "laplace"


def derive_seed(*parts) -> int:
    """Stable 64-bit child seed from arbitrary labels (platform independent)."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


class ScenarioError(RuntimeError):
    """Raised when a scene cannot be realized, e.g. infeasible object packing."""


def scene_arguments(num_agents, num_objects, area, extent, min_object_gap) -> tuple[int, int, tuple, tuple, float]:
    """generate_scene's arguments as it uses them; ValueError unless the counts are whole numbers, at least
    one agent and no negative object count, area and extent two positive finite numbers each (read by numbers)
    and min_object_gap finite and >= 0."""
    return (
        whole_number(num_agents, "num_agents", 1), whole_number(num_objects, "num_objects", 0),
        numbers(area, "area", positive_finite, 2), numbers(extent, "extent", positive_finite, 2),
        non_negative(min_object_gap, "min_object_gap"),
    )


@dataclass(frozen=True)
class SceneAgent:
    agent_id: str
    pose: Pose2


@dataclass(frozen=True)
class SceneObject:
    object_id: str
    pose: Pose2
    length: float
    width: float


@dataclass(frozen=True)
class Scene:
    """Ground-truth world: agents, objects, and the per-agent visibility extent.

    extent is the (forward, lateral) half-size of the rectangle, in each
    agent's own frame, inside which objects can be detected.
    """

    agents: tuple[SceneAgent, ...]
    objects: tuple[SceneObject, ...]
    extent: tuple[float, float] = DEFAULT_EXTENT

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "extent", numbers(self.extent, "extent", positive_finite, 2))
        if not self.agents:
            raise ValueError("scene needs at least one agent")
        ids = [a.agent_id for a in self.agents] + [o.object_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("agent and object ids must be unique")

    def agent(self, agent_id: str) -> SceneAgent:
        for a in self.agents:
            if a.agent_id == agent_id:
                return a
        raise ValueError(f"no agent {agent_id!r} in scene")


@dataclass(frozen=True)
class NoiseSpec:
    """Pose corruption model: translation scale in meters, rotation scale in degrees."""

    kind: str = _GAUSSIAN
    trans_scale: float = 0.0
    rot_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (_GAUSSIAN, _LAPLACE):
            raise ValueError(f"noise kind must be gaussian or laplace, got {self.kind!r}")
        object.__setattr__(self, "trans_scale", non_negative(self.trans_scale, "trans_scale"))
        object.__setattr__(self, "rot_scale", non_negative(self.rot_scale, "rot_scale"))


@dataclass(frozen=True)
class DetectorSpec:
    """Configurable stand-in for a single-agent detector.

    Reported variances are variance_calibration times the true sampling
    variances (floored at VARIANCE_FLOOR); confidence is base_confidence
    minus confidence_decay * distance / detection_range, clamped to [0, 1].
    When noise_scale_choices is set, each box draws a scale factor from it
    uniformly and multiplies both noise standard deviations (heteroscedastic
    detections with honestly reported per-box variances).
    """

    detection_range: float = 150.0
    miss_rate: float = 0.0
    center_noise_sd: float = 0.2
    heading_noise_sd: float = 0.05
    variance_calibration: float = 1.0
    base_confidence: float = 0.9
    confidence_decay: float = 0.2
    noise_scale_choices: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        rules = {
            "detection_range": positive_finite, "miss_rate": unit_interval, "center_noise_sd": non_negative,
            "heading_noise_sd": non_negative, "variance_calibration": positive_finite,
            "base_confidence": unit_interval, "confidence_decay": non_negative,
        }
        for name, rule in rules.items():
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if self.noise_scale_choices is not None:
            choices = numbers(self.noise_scale_choices, "noise_scale_choices", positive_finite)
            if not choices:
                raise ValueError("noise_scale_choices must not be empty")
            object.__setattr__(self, "noise_scale_choices", choices)


def generate_scene(
    num_agents: int,
    num_objects: int,
    area: tuple[float, float] = (100.0, 100.0),
    seed: int = 0,
    extent: tuple[float, float] = DEFAULT_EXTENT,
    min_object_gap: float = DEFAULT_MIN_OBJECT_GAP,
) -> Scene:
    """Deterministically place agents and non-overlapping objects in a rectangle.

    Objects keep pairwise center distance >= min_object_gap; placement is
    rejection-sampled and raises ScenarioError when the packing is infeasible.
    """
    num_agents, num_objects, area, extent, min_object_gap = scene_arguments(
        num_agents, num_objects, area, extent, min_object_gap
    )
    hx, hy = (0.5 * side for side in area)
    # Each rng.uniform(lo, hi) of the placement is written as the bare draw
    # lo + (hi - lo) * rng.random(), which is the same number from the same
    # stream (pinned in tests/test_scenario.py).
    rnd = np.random.default_rng(derive_seed(seed, "scene-gen")).random
    wx, wy, wt = hx - -hx, hy - -hy, math.pi - -math.pi

    agents = tuple(
        SceneAgent(agent_id=f"agent{i}", pose=Pose2(-hx + wx * rnd(), -hy + wy * rnd(), -math.pi + wt * rnd()))
        for i in range(num_agents)
    )

    # Every placed centre is filed under its grid cell and the eight around it,
    # so a candidate reads one cell. A cell is a little wider than the gap, and
    # at least 2**-40 of the larger half side, so |x / cell| <= 2**40 and a
    # centre closer than the gap lies at most one cell away even after the
    # rounding of x / cell. Each centre read is tested with the all-pairs
    # expression.
    near: dict[tuple[int, int], list[tuple[float, float]]] = {}
    objects: list[SceneObject] = []
    gap2 = min_object_gap * min_object_gap
    cell = max(min_object_gap * (1.0 + 2.0**-10), 2.0**-40 * max(hx, hy))
    for k in range(num_objects):
        for _ in range(200):
            x = -hx + wx * rnd()
            y = -hy + wy * rnd()
            if gap2 == 0.0:
                break
            i, j = math.floor(x / cell), math.floor(y / cell)
            if all((x - px) ** 2 + (y - py) ** 2 >= gap2 for px, py in near.get((i, j), ())):
                break
        else:
            raise ScenarioError(
                f"infeasible packing: could not place object {k + 1}/{num_objects} "
                f"with gap {min_object_gap} m in {area[0]} x {area[1]} m"
            )
        if gap2 != 0.0:
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    near.setdefault((i + di, j + dj), []).append((x, y))
        objects.append(
            SceneObject(
                object_id=f"obj{k}",
                pose=Pose2(x, y, -math.pi + wt * rnd()),
                length=3.8 + (5.2 - 3.8) * rnd(),
                width=1.7 + (2.1 - 1.7) * rnd(),
            )
        )
    return Scene(agents=agents, objects=tuple(objects), extent=extent)


def _draw(rng: np.random.Generator, kind: str, scale: float) -> float:
    if scale == 0.0:
        return 0.0
    if kind == _GAUSSIAN:
        return 0.0 + scale * rng.standard_normal()  # rng.normal(0.0, scale), bit for bit
    return float(rng.laplace(0.0, scale))


def corrupt_pose(pose: Pose2, noise: NoiseSpec, rng: np.random.Generator) -> Pose2:
    """Perturb a pose with i.i.d. noise; zero scales return the input exactly."""
    dx = _draw(rng, noise.kind, noise.trans_scale)
    dy = _draw(rng, noise.kind, noise.trans_scale)
    dt = _draw(rng, noise.kind, math.radians(noise.rot_scale))
    return Pose2(pose.x + dx, pose.y + dy, pose.theta + dt)


def _object_columns(scene: Scene) -> np.ndarray:
    """The scene's objects as one (n, 5) block: x, y, theta, length, width."""
    return np.array(
        [(o.pose.x, o.pose.y, o.pose.theta, o.length, o.width) for o in scene.objects], dtype=float
    ).reshape(-1, 5)


def _detect_block(
    objects: np.ndarray, agent_pose: Pose2, extent: tuple[float, float], spec: DetectorSpec, rng: np.random.Generator
) -> np.ndarray:
    """The agent's noisy boxes of the visible objects (_object_columns rows) as an AgentMessage block.

    Boxes are in the agent's true frame, and visibility uses its true pose:
    pose error enters only through the measured pose. Every object's local
    pose and the extent test come from one compose_columns step,
    bit-identical to compose, and each candidate's range from the scalar
    math.hypot. One loop over the candidates, in object order, then makes the
    draws and nothing else: the miss draw, the optional scale choice and
    three standard normals. Every column is computed after it, in the per-box
    operand order: a noise term rng.normal(0.0, sd) is 0.0 + sd * z bit for
    bit (pinned in tests/test_scenario.py), and the confidence clamp keeps a
    -0.0, as the scalar max(c, 0.0) does.
    """
    frame = inverse(agent_pose).as_tuple()
    lx, ly, lt = compose_columns(frame, 0, *objects[:, :3].T)
    inside = np.flatnonzero((np.abs(lx) <= extent[0]) & (np.abs(ly) <= extent[1]))
    rnd, normal, choices = rng.random, rng.standard_normal, spec.noise_scale_choices
    kept: list[int] = []
    dist: list[float] = []
    picks: list[int] = []
    z: list[float] = []
    for k, d in zip(inside.tolist(), map(math.hypot, lx[inside].tolist(), ly[inside].tolist())):
        if d > spec.detection_range or rnd() < spec.miss_rate:
            continue
        if choices is not None:
            picks.append(int(rng.integers(len(choices))))
        kept.append(k)
        dist.append(d)
        z += normal(3).tolist()
    if not kept:
        return np.empty((0, BOX_WIDTH))

    rows = np.array(kept)
    # Noise sd of (x, y, theta) per box; the variance columns share the order.
    sd = np.array([spec.center_noise_sd, spec.center_noise_sd, spec.heading_noise_sd])
    if choices is not None:
        sd = sd * np.array(choices)[picks][:, None]
    noise = sd * np.array(z).reshape(-1, 3)
    noise += 0.0  # normal's loc: a -0.0 product becomes 0.0, as in the scalar draw
    block = np.empty((len(kept), BOX_WIDTH))
    block[:, 0] = lx[rows] + noise[:, 0]
    block[:, 1] = ly[rows] + noise[:, 1]
    block[:, 2] = 0.0
    block[:, 3:5] = objects[rows, 3:5]
    block[:, 5] = 1.6
    block[:, 6] = lt[rows] + noise[:, 2]
    block[:, 7:10] = np.maximum(spec.variance_calibration * sd * sd, VARIANCE_FLOOR)
    confidence = spec.base_confidence - spec.confidence_decay * np.array(dist) / spec.detection_range
    confidence[confidence < 0.0] = 0.0
    block[:, 10] = np.minimum(confidence, 1.0)
    return block


def make_messages(
    scene: Scene,
    noise: NoiseSpec,
    det: DetectorSpec,
    seed: int,
) -> list[AgentMessage]:
    """One collaboration round: measured pose plus detections per agent."""
    objects = _object_columns(scene)
    messages = []
    for agent in scene.agents:
        pose_rng = np.random.default_rng(derive_seed(seed, agent.agent_id, "pose"))
        det_rng = np.random.default_rng(derive_seed(seed, agent.agent_id, "detect"))
        measured = corrupt_pose(agent.pose, noise, pose_rng)
        block = _detect_block(objects, agent.pose, scene.extent, det, det_rng)
        messages.append(AgentMessage(agent.agent_id, measured, block))
    return messages


# -- JSON wire formats ------------------------------------------------------
#
# Scene:    {"type": "scene", "version": 1, "extent": [ex, ey],
#            "agents": [{"id": str, "pose": [x, y, theta_rad]}, ...],
#            "objects": [{"id": str, "pose": [x, y, theta_rad],
#                         "length": m, "width": m}, ...]}
# Messages: {"type": "messages", "version": 1,
#            "messages": [{"agent_id": str, "measured_pose": [x, y, theta_rad],
#                          "boxes": [{"b": [cx, cy, cz, l, w, h, theta,
#                                           var_x, var_y, var_theta],
#                                     "confidence": c}, ...]}, ...]}


def _pose_from_list(v, where: str) -> Pose2:
    return Pose2(*numbers(v, where, count=3))


def scene_to_dict(scene: Scene) -> dict:
    return {
        "type": "scene",
        "version": 1,
        "extent": [scene.extent[0], scene.extent[1]],
        "agents": [{"id": a.agent_id, "pose": list(a.pose.as_tuple())} for a in scene.agents],
        "objects": [
            {"id": o.object_id, "pose": list(o.pose.as_tuple()), "length": o.length, "width": o.width}
            for o in scene.objects
        ],
    }


def scene_from_dict(data: dict) -> Scene:
    if not isinstance(data, dict) or data.get("type") != "scene":
        raise ValueError("scene: expected an object with type == 'scene'")
    try:
        agents = tuple(
            SceneAgent(str(a["id"]), _pose_from_list(a["pose"], f"scene.agents[{i}].pose"))
            for i, a in enumerate(data["agents"])
        )
        objects = tuple(
            SceneObject(
                str(o["id"]),
                _pose_from_list(o["pose"], f"scene.objects[{i}].pose"),
                positive_finite(o["length"], f"scene.objects[{i}].length"),
                positive_finite(o["width"], f"scene.objects[{i}].width"),
            )
            for i, o in enumerate(data["objects"])
        )
        return Scene(agents=agents, objects=objects, extent=data["extent"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"scene: malformed field ({exc!r})") from exc


def _box_row(vec, confidence: float) -> list[float]:
    """One block row from a wire box vector and its confidence."""
    return [*numbers(vec, "box vector b", count=10), confidence]


def messages_to_dict(messages: Sequence[AgentMessage]) -> dict:
    return {
        "type": "messages",
        "version": 1,
        "messages": [
            {
                "agent_id": m.agent_id,
                "measured_pose": list(m.measured_pose.as_tuple()),
                "boxes": [{"b": row[:10], "confidence": row[10]} for row in m.block.tolist()],
            }
            for m in messages
        ],
    }


def messages_from_dict(data: dict) -> list[AgentMessage]:
    if not isinstance(data, dict) or data.get("type") != "messages":
        raise ValueError("messages: expected an object with type == 'messages'")
    out = []
    try:
        for i, m in enumerate(data["messages"]):
            aid = str(m["agent_id"])
            rows = [_box_row(b["b"], number(b["confidence"], "box confidence")) for b in m["boxes"]]
            block = np.array(rows, dtype=float).reshape(-1, BOX_WIDTH)
            out.append(AgentMessage(aid, _pose_from_list(m["measured_pose"], f"messages[{i}].measured_pose"), block))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"messages: malformed field ({exc!r})") from exc
    return out


def save_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
