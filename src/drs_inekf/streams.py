"""Sensor streams: columnar arrays and JSON Lines.

A `Stream` holds a sensor stream as one array per field of each record
kind, plus the merged record order: the simulator builds one, the JSON
Lines reader and writer convert one, the estimator folds one. Building a
`Stream` is the one place that decides a stream is valid, however it was
made; a bad record is named by its index, which `read_jsonl` turns into
its line. The record classes (`SwapEvent`, `SurfacePose`, `FkOrientation`,
`FkPosition`) only serve `StreamEstimator.step`; the IMU runs it also
takes are the filter's own messages, built by `StreamEstimator.fold`.

One record per line, `{"kind": ..., "t": ...}` plus the kind's fields, all
required: JSON numbers (not true or false), and rotations as 9 row-major
reals. A valid stream has finite values, rotations with |R^T R - I|_F <=
ROT_TOL and det R > 0, and strictly increasing timestamps within each
kind; the record order is the processing order of the filter. At equal
timestamps, records go swap, truth, surface, fk_rot, fk_pos, imu: truth
follows the swap, so a jump and its evaluation sample pair up, and
precedes the kinematic updates, so the errors at a truth sample are prior
errors. IMU intervals tile time (each starts where the previous one ends)
with dt in (0, MAX_IMU_DT]. The stream clock starts at the first truth
sample and adds each imu dt in record order; an imu record starts at
the clock, within TIME_TOL, and no other record is more than TIME_TOL
before it, nor past the end of the imu interval that follows it (past
the clock, after the last imu record). The first record is a truth
record: the estimate starts from the truth the stream opens with, so no
record (a swap at that time, say) comes before it. No fk_rot record
precedes the first surface record, whose pose its orientation
measurement needs.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .liegroup import GroupElement, rotation_defect

# Timestamps closer than this are equal (IMU interval ends, record order).
TIME_TOL = 1e-9
# Largest |R^T R - I|_F of a rotation in a stream.
ROT_TOL = 1e-6
MAX_IMU_DT = 0.1  # longest IMU interval, in seconds


class StreamFormatError(ValueError):
    """Bad stream data; names its line (from a Stream: its `record` index)."""

    def __init__(self, message: str, line: int | None = None, record=None):
        self.line, self.record = line, record
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
class TruthSample:  # the truth record class, by which bench/tracing.py names the kind
    """Ground-truth state for evaluation: its time and the true element."""

    t: float
    element: GroupElement


# Record kind names; a kind's code is its index here.
KINDS = ("swap", "truth", "surface", "fk_rot", "fk_pos", "imu")
SWAP, TRUTH, SURFACE, FK_ROT, FK_POS, IMU = range(len(KINDS))

# Per kind, its file fields after "kind", in file order, with the shape of
# one record's value (rotations are 9 row-major reals): the columns of a
# Stream. Other keys of a record are ignored.
_FIELDS = {
    "swap": {"t": (), "h_d": (3,)},
    "truth": {"t": (), "rot": (3, 3), "vel": (3,), "pos": (3,), "foot": (3,)},
    "surface": {"t": (), "rot": (3, 3)},
    "fk_rot": {"t": (), "rot": (3, 3)},
    "fk_pos": {"t": (), "hp": (3,)},
    "imu": {"t": (), "dt": (), "gyro": (3,), "accel": (3,), "contact_vel": (3,)},
}
# The record class and value column of each kind whose record is (t, value),
# by kind code: what `StreamEstimator.fold` builds its records from.
RECORD_TYPES = {SWAP: (SwapEvent, "h_d"), SURFACE: (SurfacePose, "rot"),
                FK_ROT: (FkOrientation, "rot"), FK_POS: (FkPosition, "hp")}
# JSON integers are read as floats; NaN and Infinity too, which Stream rejects.
_DECODER = json.JSONDecoder(parse_int=float)
_BLOCK = 512  # records of a kind parsed before they are converted to arrays


@dataclass(frozen=True)
class Stream:
    """A sensor stream as columns, plus the merged record order.

    `kinds` holds each record's kind code (its index in KINDS) in
    processing order. `columns[kind]` maps field names to arrays whose
    first axis runs over that kind's records: the layout columns `t` and
    the IMU `dt` are 1-D; value columns (`gyro`, `hp`, `rot`, ...) may
    carry a stream axis next, for several streams with one record layout
    side by side (as the simulator writes a batch of them).
    Building one checks every rule of the module docstring, one column at a
    time, and names the first bad record by its index.
    """

    kinds: np.ndarray
    columns: dict

    def __post_init__(self):
        times, kinds = np.empty(len(self.kinds)), self.kinds
        for code, kind in enumerate(KINDS):
            c, at = self.columns[kind], np.flatnonzero(kinds == code)
            times[at] = c["t"]
            for name, col in c.items():
                _first_bad(_each(np.isfinite(col)), at, lambda i: (
                    f"field {name!r} must be {_what(_FIELDS[kind][name])}, "
                    f"got {col[i].tolist()}"), "record")
            if "rot" in c:  # det R as the triple product of its rows
                defect, rows = rotation_defect(c["rot"]), np.moveaxis(c["rot"], -2, 0)
                det = np.einsum("...i,...i->...", rows[0], np.cross(rows[1], rows[2]))
                _first_bad(_each((defect <= ROT_TOL) & (det > 0.0)), at, lambda i: (
                    f"field 'rot' is not a rotation: |R^T R - I|_F = "
                    f"{np.max(defect[i]):.3g} (at most {ROT_TOL:g}), "
                    f"det = {np.min(det[i]):.3g}"), "record")
            _first_bad(np.diff(c["t"], prepend=-np.inf) > 0.0, at,
                       lambda i: f"non-increasing timestamp for kind {kind!r}", "record")
        # A kind that goes back in KINDS at an equal time.
        _first_bad((np.diff(kinds) >= 0) | (np.abs(np.diff(times)) > TIME_TOL),
                   range(1, len(kinds)), lambda i: (
                       f"{KINDS[kinds[i + 1]]} record at t={times[i + 1]:.9g} "
                       f"after {KINDS[kinds[i]]} at that time"), "record")
        imu, is_imu = self.columns["imu"], kinds == IMU
        t, dt, at = imu["t"], imu["dt"], np.flatnonzero(is_imu)
        _first_bad((dt > 0.0) & (dt <= MAX_IMU_DT), at, lambda i: (
            f"imu record at t={t[i]:.9g}: dt {dt[i]:.9g} outside (0, {MAX_IMU_DT}]"),
            "record")
        _first_bad(np.abs(t[:-1] + dt[:-1] - t[1:]) <= TIME_TOL, at[1:], lambda i: (
            f"imu gap at t={t[i] + dt[i]:.9g}: the imu interval from t={t[i]:.9g} "
            f"ends there, the next imu record starts at t={t[i + 1]:.9g}"), "record")
        # The clock starts at the first record, which must be truth (checked
        # below). cumsum adds in record order (not pairwise), as a running
        # clock does; at each record, the clock and the end of the next imu
        # interval (the clock again after the last one).
        nxt = np.cumsum(is_imu) - is_imu
        ticks = np.cumsum(np.concatenate([times[:1], dt, [0.0]]))
        clock, end = ticks[nxt], ticks[nxt + 1]
        _first_bad(times >= clock - TIME_TOL, range(len(kinds)), lambda i: (
            f"out-of-order {KINDS[kinds[i]]} record at t={times[i]:.9g}: the "
            f"stream clock (first record's time plus the imu dt before it) is at "
            f"t={clock[i]:.9g}"), "record")
        _first_bad(times <= end + TIME_TOL, range(len(kinds)), lambda i: (
            f"early {KINDS[kinds[i]]} record at t={times[i]:.9g}: the stream "
            f"clock is at t={clock[i]:.9g}, and " + (
                f"the next imu interval ends at t={end[i]:.9g}" if nxt[i] < len(dt)
                else "no imu interval follows")), "record")
        _first_bad(np.abs(t - clock[at]) <= TIME_TOL, at, lambda i: (
            f"imu record at t={t[i]:.9g} off the stream clock at "
            f"t={clock[at[i]]:.9g}"), "record")
        if not len(kinds):
            raise StreamFormatError("no records: a stream opens with a truth record")
        if kinds[0] != TRUTH:
            raise StreamFormatError(f"{KINDS[kinds[0]]} record at t={times[0]:.9g} "
                                    f"before the first truth record", record=0)
        fk_rot = np.flatnonzero(kinds == FK_ROT)
        _first_bad(np.cumsum(kinds == SURFACE)[fk_rot] > 0, fk_rot, lambda i: (
            f"fk_rot record at t={times[fk_rot[i]]:.9g} before the first surface "
            f"record"), "record")

    def __len__(self) -> int:
        return len(self.kinds)


def _first_bad(ok, at, message, key="line") -> None:
    """StreamFormatError for the first False of `ok`, naming its entry of
    `at` as its line (or as its `key`, such as "record")."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if len(bad):
        raise StreamFormatError(message(bad[0]), **{key: int(at[bad[0]])})


def _each(ok: np.ndarray) -> np.ndarray:
    """Per record (first axis): whether `ok` holds for all its entries."""
    return ok.all(axis=tuple(range(1, ok.ndim)))


def _what(shape: tuple) -> str:
    return f"a list of {math.prod(shape)} finite numbers" if shape else "a finite number"


def _numbers(values: list, shape: tuple, lines, name: str) -> np.ndarray:
    """One field of every record of a kind, as an array (len(values),) + shape.

    Each value must be a JSON number (not true or false), or for a shape a
    list of math.prod(shape) of them; types are checked record by record
    only to find the line of a bad one.
    """
    n = math.prod(shape)
    ok = not shape or (set(map(type, values)) <= {list}
                       and set(map(len, values)) <= {n})
    flat = list(chain.from_iterable(values)) if shape and ok else values
    if not (ok and set(map(type, flat)) <= {float}):
        _first_bad([(type(v) is list and len(v) == n
                     and all(type(x) is float for x in v)) if shape
                    else type(v) is float for v in values], lines,
                   lambda i: f"field {name!r} must be {_what(shape)}, got {values[i]!r}")
    return np.array(flat, dtype=float).reshape((len(values),) + shape)


def read_jsonl(path) -> Stream:
    """Parse a stream file into columns.

    Each record's JSON, kind, fields, their types and shapes are parsed
    here, and the values and the record order are checked by building the
    Stream; a StreamFormatError names the line of a bad record.
    Records are converted to arrays _BLOCK at a time, so few parsed values
    are held at once; a kind's blocks are dropped as its columns are joined.
    """
    decode = _DECODER.decode
    kinds = array("b")
    lines = {kind: array("l") for kind in KINDS}  # the line of each pending record
    pending = {kind: [[] for _ in fields] for kind, fields in _FIELDS.items()}
    blocks = {kind: {name: [] for name in fields} for kind, fields in _FIELDS.items()}

    def convert(kind):  # the pending records of a kind to a block of arrays
        for (name, shape), values in zip(_FIELDS[kind].items(), pending[kind]):
            blocks[kind][name].append(_numbers(values, shape, lines[kind], name))
        pending[kind], lines[kind] = [[] for _ in _FIELDS[kind]], array("l")

    with open(path) as fh:
        for line_no, text in enumerate(fh, start=1):
            try:
                d = decode(text)
            except ValueError as exc:
                if not text.strip():
                    continue
                raise StreamFormatError(f"invalid JSON: {exc}", line_no) from exc
            kind = d.get("kind") if isinstance(d, dict) else None
            if not isinstance(kind, str) or kind not in _FIELDS:
                raise StreamFormatError(f"unknown record kind {kind!r}", line_no)
            try:
                record = [d[name] for name in _FIELDS[kind]]
            except KeyError as exc:
                raise StreamFormatError(f"missing field {exc.args[0]!r}",
                                        line_no) from None
            fields = pending[kind]
            for values, value in zip(fields, record):
                values.append(value)
            kinds.append(KINDS.index(kind))
            lines[kind].append(line_no)
            if len(fields[0]) == _BLOCK:
                convert(kind)
    for kind in KINDS:
        convert(kind)
    columns = {kind: {name: np.concatenate(parts)
                      for name, parts in blocks.pop(kind).items()} for kind in KINDS}
    try:
        return Stream(np.array(kinds, dtype=np.int8), columns)
    except StreamFormatError as exc:  # an empty stream names no record
        line = None if exc.record is None else record_line(path, exc.record)
        raise StreamFormatError(str(exc), line) from None


def record_line(path, record: int) -> int:
    """The file line of record `record` (its index in stream order) of a file
    that `read_jsonl` read: its records are its non-blank lines, in order."""
    with open(path) as fh:
        lines = (n for n, text in enumerate(fh, start=1) if text.strip())
        return next(islice(lines, record, None))


def _lines(kind: str, columns: dict):
    """The file line of every record of a kind, as json.dumps writes it.

    The lines are made as they are taken.
    """
    parts, numbers = [f'{{"kind": "{kind}"'], []
    for name, shape in _FIELDS[kind].items():
        n = math.prod(shape)
        value = "[" + ", ".join(["%r"] * n) + "]" if shape else "%r"
        parts.append(f'"{name}": {value}')
        numbers.append(columns[name].reshape(len(columns["t"]), n))
    numbers = np.concatenate(numbers, axis=1)
    template = ", ".join(parts) + "}\n"
    return (template % tuple(row.tolist()) for row in numbers)


def write_jsonl(stream: Stream, path) -> None:
    """Write a stream as JSON Lines, one line per record in stream order."""
    lines = [_lines(kind, stream.columns[kind]) for kind in KINDS]
    with open(path, "w") as fh:
        fh.writelines(next(lines[code]) for code in stream.kinds.tolist())
