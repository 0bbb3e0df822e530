"""Sensor streams: columnar arrays, record objects and JSON Lines.

A `Stream` holds a sensor stream as one array per field of each record
kind, plus the merged record order; the estimator and the simulator work
on it. The record classes (`ImuStep`, `FkPosition`, ...) are its
record-by-record view, which the JSON Lines reader and writer use.

One record per line, `{"kind": ..., "t": ...}` plus kind-specific fields.
Rotations are serialized as 9 row-major reals. Records of the same kind
carry strictly increasing timestamps; the file order is the processing
order expected by the filter. At equal timestamps the simulator writes
swap, truth, surface, fk_rot, fk_pos, imu: truth follows the swap, so a
jump and its evaluation sample pair up, and precedes the kinematic
updates, so the errors recorded at a truth sample are prior errors.
IMU intervals must tile time: each starts where the previous one ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

import numpy as np

from .liegroup import GroupElement, group_element
from .models import ImuStep

# Timestamps closer than this are equal (IMU interval ends, record order).
TIME_TOL = 1e-9


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


# Record kind names and classes; a kind's code is its index here.
KINDS = ("swap", "truth", "surface", "fk_rot", "fk_pos", "imu")
RECORD_TYPES = (SwapEvent, TruthSample, SurfacePose, FkOrientation, FkPosition,
                ImuStep)
SWAP, TRUTH, SURFACE, FK_ROT, FK_POS, IMU = range(len(KINDS))
STANCES = (StanceFoot.LEFT, StanceFoot.RIGHT)
_CODE = {cls: code for code, cls in enumerate(RECORD_TYPES)}


def record_kind(rec: StreamRecord) -> str:
    return KINDS[_CODE[type(rec)]]


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


# Per kind, its value columns and the shape of one record's value. Truth
# elements are held as the GroupElement arrays rot and cols.
_VALUES = {
    "swap": {"h_d": (3,)},
    "truth": {"rot": (3, 3), "cols": (3, 3)},
    "surface": {"rot": (3, 3)},
    "fk_rot": {"rot": (3, 3)},
    "fk_pos": {"hp": (3,)},
    "imu": {"gyro": (3,), "accel": (3,), "contact_vel": (3,)},
}
# Columns every stream of a stack shares: the record layout.
_LAYOUT = {"swap": ("t",), "truth": ("t", "stance"), "surface": ("t",),
           "fk_rot": ("t",), "fk_pos": ("t",), "imu": ("t", "dt")}


def _field(rec: StreamRecord, name: str):
    if name == "stance":
        return STANCES.index(rec.stance)
    if isinstance(rec, TruthSample) and name != "t":
        return getattr(rec.element, name)
    return getattr(rec, name)


@dataclass(frozen=True)
class Stream:
    """A sensor stream as columns, plus the merged record order.

    `kinds` holds each record's kind code (its index in KINDS) in
    processing order. `columns[kind]` maps field names to arrays whose
    first axis runs over that kind's records: the layout columns `t`, the
    IMU `dt` and the truth `stance` (an index into STANCES) are 1-D; value
    columns (`gyro`, `hp`, truth `rot` and `cols`, ...) may carry a stream
    axis next, when `stack` has put several streams with the same layout
    side by side. Iterating yields the records in order (for a stack, each
    holds the values of every stream). Building one checks that the IMU
    intervals tile time.
    """

    kinds: np.ndarray
    columns: dict

    def __post_init__(self):
        imu = self.columns["imu"]
        t, end = imu["t"], imu["t"] + imu["dt"]
        gaps = np.flatnonzero(np.abs(end[:-1] - t[1:]) > TIME_TOL)
        if len(gaps):
            i = gaps[0]
            raise StreamFormatError(
                f"imu gap at t={end[i]:.9g}: the imu interval from "
                f"t={t[i]:.9g} ends there, the next imu record starts at "
                f"t={t[i + 1]:.9g}")

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        for code, k in self.index():
            yield self.record(code, k)

    def count(self, kind: str) -> int:
        return len(self.columns[kind]["t"])

    def index(self):
        """(kind code, index among records of that kind) for every record."""
        within = np.empty(len(self.kinds), dtype=np.int64)
        for code in range(len(KINDS)):
            mask = self.kinds == code
            within[mask] = np.arange(np.count_nonzero(mask))
        return zip(self.kinds.tolist(), within.tolist())

    def record(self, code: int, k: int, **extra) -> StreamRecord:
        """Record `k` of kind `code` (extra fields go to an ImuStep)."""
        c = self.columns[KINDS[code]]
        t = float(c["t"][k])
        if code == IMU:
            return ImuStep(t, float(c["dt"][k]), c["gyro"][k], c["accel"][k],
                           c["contact_vel"][k], **extra)
        if code == FK_POS:
            return FkPosition(t, c["hp"][k])
        if code == FK_ROT:
            return FkOrientation(t, c["rot"][k])
        if code == SURFACE:
            return SurfacePose(t, c["rot"][k])
        if code == SWAP:
            return SwapEvent(t, c["h_d"][k])
        return TruthSample(t, GroupElement(c["rot"][k], c["cols"][k]),
                           STANCES[c["stance"][k]])

    @classmethod
    def from_records(cls, records: Iterable[StreamRecord]) -> "Stream":
        """The columns of a record sequence (the record view's inverse)."""
        codes: list[int] = []
        rows: dict[str, list] = {kind: [] for kind in KINDS}
        for rec in records:
            code = _CODE[type(rec)]
            codes.append(code)
            rows[KINDS[code]].append(rec)
        columns = {}
        for kind, recs in rows.items():
            col = {name: np.array([_field(r, name) for r in recs],
                                  dtype=int if name == "stance" else float)
                   for name in _LAYOUT[kind]}
            for name, shape in _VALUES[kind].items():
                col[name] = np.array([_field(r, name) for r in recs],
                                     dtype=float).reshape((len(recs),) + shape)
            columns[kind] = col
        return cls(np.array(codes, dtype=np.int8), columns)

    @classmethod
    def stack(cls, streams: Iterable["Stream"], count: int) -> "Stream":
        """`count` streams with one record layout, side by side on a stream axis.

        Each stream's values are copied in as it arrives, so a generator
        of streams never has them all in memory at once.
        """
        columns = None
        for i, stream in enumerate(streams):
            if columns is None:
                first = stream
                columns = {kind: {name: stream.columns[kind][name] for name in names}
                           for kind, names in _LAYOUT.items()}
                for kind, values in _VALUES.items():
                    for name, shape in values.items():
                        n = len(stream.columns[kind]["t"])
                        columns[kind][name] = np.empty((n, count) + shape)
            elif not (np.array_equal(stream.kinds, first.kinds) and all(
                    np.array_equal(stream.columns[kind][name], columns[kind][name])
                    for kind, names in _LAYOUT.items() for name in names)):
                raise ValueError("streams to stack differ in record layout")
            for kind, values in _VALUES.items():
                for name in values:
                    columns[kind][name][:, i] = stream.columns[kind][name]
        if columns is None or i + 1 != count:
            raise ValueError(f"expected {count} streams to stack")
        return cls(first.kinds, columns)
