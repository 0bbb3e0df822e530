"""Sensor stream records and their JSON Lines serialization.

One record per line, `{"kind": ..., "t": ...}` plus kind-specific fields.
Rotations are serialized as 9 row-major reals. Records of the same kind
carry strictly increasing timestamps; the file order is the processing
order expected by the filter. At equal timestamps the simulator writes
swap, truth, surface, fk_rot, fk_pos, imu: truth follows the swap, so a
jump and its evaluation sample pair up, and precedes the kinematic
updates, so the errors recorded at a truth sample are prior errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

import numpy as np

from .liegroup import GroupElement, group_element
from .models import ImuStep


class StanceFoot(Enum):
    LEFT = "left"
    RIGHT = "right"

    def other(self) -> "StanceFoot":
        return StanceFoot.RIGHT if self is StanceFoot.LEFT else StanceFoot.LEFT


class StreamFormatError(ValueError):
    """Malformed or out-of-order stream data; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class FkPosition:
    """Forward-kinematics support-foot position relative to base, base frame."""

    t: float
    hp: np.ndarray


@dataclass(frozen=True)
class FkOrientation:
    """Forward-kinematics support-foot orientation in the base frame."""

    t: float
    rot: np.ndarray


@dataclass(frozen=True)
class SurfacePose:
    """Known orientation of the support surface in the world frame."""

    t: float
    rot: np.ndarray


@dataclass(frozen=True)
class SwapEvent:
    """Support-foot switch; h_d is the new-minus-old foot offset in the base frame."""

    t: float
    h_d: np.ndarray


@dataclass(frozen=True)
class TruthSample:
    """Ground-truth state for evaluation."""

    t: float
    element: GroupElement
    stance: StanceFoot


StreamRecord = Union[ImuStep, FkPosition, FkOrientation, SurfacePose,
                     SwapEvent, TruthSample]


def record_kind(rec: StreamRecord) -> str:
    return {ImuStep: "imu", FkPosition: "fk_pos", FkOrientation: "fk_rot",
            SurfacePose: "surface", SwapEvent: "swap", TruthSample: "truth"}[type(rec)]


def _rot_list(rot: np.ndarray) -> list[float]:
    return [float(v) for v in rot.reshape(-1)]


def _vec_list(v: np.ndarray) -> list[float]:
    return [float(x) for x in v]


def record_to_dict(rec: StreamRecord) -> dict:
    if isinstance(rec, ImuStep):
        return {"kind": "imu", "t": rec.t, "dt": rec.dt,
                "gyro": _vec_list(rec.gyro), "accel": _vec_list(rec.accel),
                "contact_vel": _vec_list(rec.contact_vel)}
    if isinstance(rec, FkPosition):
        return {"kind": "fk_pos", "t": rec.t, "hp": _vec_list(rec.hp)}
    if isinstance(rec, FkOrientation):
        return {"kind": "fk_rot", "t": rec.t, "rot": _rot_list(rec.rot)}
    if isinstance(rec, SurfacePose):
        return {"kind": "surface", "t": rec.t, "rot": _rot_list(rec.rot)}
    if isinstance(rec, SwapEvent):
        return {"kind": "swap", "t": rec.t, "h_d": _vec_list(rec.h_d)}
    if isinstance(rec, TruthSample):
        x = rec.element
        return {"kind": "truth", "t": rec.t, "rot": _rot_list(x.rot),
                "vel": _vec_list(x.vel), "pos": _vec_list(x.pos),
                "foot": _vec_list(x.foot), "stance": rec.stance.value}
    raise TypeError(f"unknown record type {type(rec)!r}")


def _vec(d: dict, key: str, n: int, line: int) -> np.ndarray:
    try:
        v = np.asarray(d[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise StreamFormatError(f"bad field {key!r}: {exc}", line) from exc
    if v.shape != (n,):
        raise StreamFormatError(f"field {key!r} must have {n} entries", line)
    return v


def _rot(d: dict, key: str, line: int) -> np.ndarray:
    return _vec(d, key, 9, line).reshape(3, 3)


def record_from_dict(d: dict, line: int = 0) -> StreamRecord:
    kind = d.get("kind")
    try:
        t = float(d["t"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StreamFormatError(f"bad field 't': {exc}", line) from exc
    if kind == "imu":
        return ImuStep(t, float(d.get("dt", 0.0)), _vec(d, "gyro", 3, line),
                       _vec(d, "accel", 3, line), _vec(d, "contact_vel", 3, line))
    if kind == "fk_pos":
        return FkPosition(t, _vec(d, "hp", 3, line))
    if kind == "fk_rot":
        return FkOrientation(t, _rot(d, "rot", line))
    if kind == "surface":
        return SurfacePose(t, _rot(d, "rot", line))
    if kind == "swap":
        return SwapEvent(t, _vec(d, "h_d", 3, line))
    if kind == "truth":
        stance = d.get("stance", "left")
        try:
            foot = StanceFoot(stance)
        except ValueError as exc:
            raise StreamFormatError(f"bad stance {stance!r}", line) from exc
        element = group_element(_rot(d, "rot", line), _vec(d, "vel", 3, line),
                                _vec(d, "pos", 3, line), _vec(d, "foot", 3, line))
        return TruthSample(t, element, foot)
    raise StreamFormatError(f"unknown record kind {kind!r}", line)


def write_jsonl(records: Iterable[StreamRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_dict(rec)) + "\n")


def read_jsonl(path) -> list[StreamRecord]:
    """Parse a stream file; enforces strictly increasing t per record kind."""
    records: list[StreamRecord] = []
    last_t: dict[str, float] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"invalid JSON: {exc}", line_no) from exc
            rec = record_from_dict(d, line_no)
            kind = record_kind(rec)
            if kind in last_t and rec.t <= last_t[kind]:
                raise StreamFormatError(
                    f"non-increasing timestamp for kind {kind!r}", line_no)
            last_t[kind] = rec.t
            records.append(rec)
    return records
