import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drs_inekf.harness import TrialConfig, run_trial
from drs_inekf.filter import FilterConfig, Variant
from drs_inekf.liegroup import so3_exp
from drs_inekf.models import NoiseParams
from drs_inekf.sim import (
    GaitConfig,
    Rates,
    SurfaceConfig,
    generate_truth,
    synthesize_sensors,
)
from drs_inekf import streams
from drs_inekf.streams import (
    IMU,
    KINDS,
    Stream,
    StreamFormatError,
    read_jsonl,
    write_jsonl,
)

from conftest import streams_equal


def sample_records(rng):
    """File records of every kind with random values, as json.dumps takes them."""
    rot = so3_exp(rng.standard_normal(3)).reshape(-1).tolist()

    def vec():
        return rng.standard_normal(3).tolist()

    def imu(t):
        return {"kind": "imu", "t": t, "dt": 0.0025, "gyro": vec(), "accel": vec(),
                "contact_vel": vec()}

    return [
        {"kind": "truth", "t": 0.0, "rot": rot, "vel": vec(), "pos": vec(),
         "foot": vec(), "stance": "left"},
        {"kind": "surface", "t": 0.0, "rot": rot},
        {"kind": "fk_rot", "t": 0.0, "rot": rot},
        {"kind": "fk_pos", "t": 0.0, "hp": vec()},
        imu(0.0),
        {"kind": "swap", "t": 0.6, "h_d": vec()},
        imu(0.0025),
    ]


def write_records(path, records):
    path.write_text("".join(json.dumps(d) + "\n" for d in records))
    return path


def sim_stream(seed=5, duration=1.2):
    """A short simulated stream; 1.2 s at the default rates holds every kind."""
    return synthesize_sensors(generate_truth(GaitConfig(duration=duration),
                                             SurfaceConfig(), seed),
                              NoiseParams.from_scalars(), Rates(), seed)


SHORT = sim_stream()


def with_column(stream, kind, name, edit, k):
    """The columns of a stream with record k of a kind's column edited in a copy."""
    col = stream.columns[kind][name].copy()
    col[k] = edit(col[k])
    return {**stream.columns, kind: {**stream.columns[kind], name: col}}


def record_index(stream, kind, k):
    """The stream index of record k of a kind."""
    return int(np.flatnonzero(stream.kinds == KINDS.index(kind))[k])


class TestRoundtrip:
    def test_dict_roundtrip_preserves_values(self, rng, tmp_path):
        # Each record alone in a one-line file reads back with its kind,
        # time and values, and is written back as the same line.
        for d in sample_records(rng):
            path = write_records(tmp_path / "one.jsonl", [d])
            stream = read_jsonl(path)
            assert stream.kinds.tolist() == [KINDS.index(d["kind"])]
            assert stream.columns[d["kind"]]["t"].tolist() == [d["t"]]
            write_jsonl(stream, tmp_path / "back.jsonl")
            assert (tmp_path / "back.jsonl").read_text() == path.read_text()

    def test_file_roundtrip_is_exact(self, rng, tmp_path):
        records = sample_records(rng)
        path = write_records(tmp_path / "stream.jsonl", records)
        back = read_jsonl(path)
        assert len(back) == len(records)
        imu_in = [d for d in records if d["kind"] == "imu"]
        imu_out = back.columns["imu"]
        # JSON float serialization round-trips doubles exactly
        assert np.array_equal(imu_out["gyro"], [d["gyro"] for d in imu_in])
        assert np.array_equal(imu_out["accel"], [d["accel"] for d in imu_in])
        truth = back.columns["truth"]
        assert np.array_equal(truth["rot"].reshape(-1), records[0]["rot"])
        assert np.array_equal(truth["vel"][0], records[0]["vel"])
        assert truth["stance"].tolist() == [0]
        write_jsonl(back, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_text() == path.read_text()

    def test_sim_stream_round_trips_byte_exact(self, tmp_path):
        # 1.2 s at the default rates holds every record kind, a swap too.
        stream = synthesize_sensors(
            generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 5),
            NoiseParams.from_scalars(), Rates(), 5)
        assert all(len(stream.columns[kind]["t"]) for kind in KINDS)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_jsonl(stream, first)
        back = read_jsonl(first)
        assert streams_equal(back, stream)
        write_jsonl(back, second)
        assert second.read_bytes() == first.read_bytes()


    def test_blocks_join_and_keep_line_numbers(self, tmp_path, monkeypatch):
        # The reader converts records to arrays a block at a time. With tiny
        # blocks a stream still reads back exactly, and a bad value in a
        # later block names its own line.
        monkeypatch.setattr(streams, "_BLOCK", 7)
        stream = synthesize_sensors(
            generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 6),
            NoiseParams.from_scalars(), Rates(), 6)
        path = tmp_path / "s.jsonl"
        write_jsonl(stream, path)
        assert streams_equal(read_jsonl(path), stream)
        lines = path.read_text().splitlines(keepends=True)
        i = max(j for j, line in enumerate(lines) if json.loads(line)["kind"] == "imu")
        record = json.loads(lines[i])
        record["gyro"][1] = float("inf")
        lines[i] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(StreamFormatError, match=f"line {i + 1}: field 'gyro'"):
            read_jsonl(path)


class TestErrors:
    def test_truncated_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as fh:
            fh.write('{"kind": "fk_pos", "t": 0.0, "hp": [0, 0, 0]}\n')
            fh.write('{"kind": "fk_pos", "t": 0.01, "hp": [0, 0')
        with pytest.raises(StreamFormatError) as err:
            read_jsonl(path)
        assert err.value.line == 2

    def test_non_increasing_timestamp_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as fh:
            fh.write('{"kind": "fk_pos", "t": 0.02, "hp": [0, 0, 0]}\n')
            fh.write('{"kind": "fk_pos", "t": 0.01, "hp": [0, 0, 0]}\n')
        with pytest.raises(StreamFormatError, match="non-increasing"):
            read_jsonl(path)

    def test_interleaved_kinds_keep_independent_clocks(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        with open(path, "w") as fh:
            fh.write('{"kind": "fk_pos", "t": 0.02, "hp": [0, 0, 0]}\n')
            fh.write('{"kind": "surface", "t": 0.01, "rot": [1,0,0,0,1,0,0,0,1]}\n')
        assert len(read_jsonl(path)) == 2

    def test_imu_dt_checked_when_stream_is_built(self):
        # The last imu interval leaves no gap, so only the dt check sees it.
        stream = synthesize_sensors(
            generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 5),
            NoiseParams.from_scalars(), Rates(), 5)
        imu = dict(stream.columns["imu"])
        for dt in (0.5, 0.0):
            imu["dt"] = imu["dt"].copy()
            imu["dt"][-1] = dt
            with pytest.raises(StreamFormatError,
                               match=rf"imu record at t=1.1975: dt {dt:g} outside") as err:
                streams.Stream(stream.kinds, {**stream.columns, "imu": imu})
            assert err.value.record == np.flatnonzero(stream.kinds == IMU)[-1]

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_records(tmp_path / "bad.jsonl", [{"kind": "nope", "t": 0.0}])
        with pytest.raises(StreamFormatError, match="line 1: unknown record kind"):
            read_jsonl(path)

    def test_wrong_vector_length_rejected(self, tmp_path):
        path = write_records(tmp_path / "bad.jsonl",
                             [{"kind": "fk_pos", "t": 0.0, "hp": [1.0, 2.0]}])
        with pytest.raises(StreamFormatError, match="line 1: .*hp"):
            read_jsonl(path)

    def test_bad_stance_rejected(self, tmp_path):
        d = {"kind": "truth", "t": 0.0, "rot": [1, 0, 0, 0, 1, 0, 0, 0, 1],
             "vel": [0, 0, 0], "pos": [0, 0, 0], "foot": [0, 0, 0],
             "stance": "hopping"}
        path = write_records(tmp_path / "bad.jsonl", [d])
        with pytest.raises(StreamFormatError, match="line 1: .*stance"):
            read_jsonl(path)


class TestStreamChecks:
    """Building a Stream checks it, however it was made, naming the record."""

    def test_rejects_bad_dt(self):
        for dt in (0.0, -0.01, 0.2):
            columns = with_column(SHORT, "imu", "dt", lambda _: dt, 0)
            with pytest.raises(StreamFormatError, match=rf"dt {dt:g} outside") as err:
                Stream(SHORT.kinds, columns)
            assert err.value.record == record_index(SHORT, "imu", 0)

    def test_rejects_non_finite_input(self):
        columns = with_column(SHORT, "imu", "gyro", lambda g: [np.nan, 0.0, 0.0], 0)
        with pytest.raises(StreamFormatError, match="field 'gyro' must be") as err:
            Stream(SHORT.kinds, columns)
        assert err.value.record == record_index(SHORT, "imu", 0)

    def test_out_of_order_raises(self):
        # The first fk_pos record, 0.5 s before the clock (the first truth time).
        columns = with_column(SHORT, "fk_pos", "t", lambda _: -0.5, 0)
        with pytest.raises(StreamFormatError, match="out-of-order fk_pos") as err:
            Stream(SHORT.kinds, columns)
        assert err.value.record == record_index(SHORT, "fk_pos", 0)

    @pytest.mark.parametrize("kind, name, edit, k, message", [
        ("surface", "rot", lambda r: 2.0 * r, 3, "field 'rot' is not a rotation"),
        ("fk_rot", "rot", lambda r: 2.0 * r, 3, "field 'rot' is not a rotation"),
        ("fk_pos", "hp", lambda v: [v[0], np.nan, v[2]], -1, "field 'hp' must be"),
        ("swap", "h_d", lambda v: [np.nan, v[1], v[2]], 0, "field 'h_d' must be"),
        ("truth", "pos", lambda v: [v[0], v[1], np.nan], 7, "field 'pos' must be"),
    ], ids=["scaled-surface", "scaled-fk_rot", "nan-last-fk_pos", "nan-swap", "nan-truth"])
    def test_corruptions_that_ran_through_run_trial(self, kind, name, edit, k,
                                                    message):
        # Each of these once ran through run_trial without an error, or failed
        # in the filter or the metrics without naming the record.
        columns = with_column(SHORT, kind, name, edit, k)
        n = len(SHORT.columns[kind]["t"])
        with pytest.raises(StreamFormatError, match=message) as err:
            run_trial(Stream(SHORT.kinds, columns), TrialConfig(n_trials=1),
                      FilterConfig(noise=NoiseParams.from_scalars()),
                      (Variant.PROPOSED,), np.zeros(12))
        assert err.value.record == record_index(SHORT, kind, k % n)

    def test_reflection_rejected(self):
        # -R has R^T R = I exactly; only its determinant, -1, gives it away.
        columns = with_column(SHORT, "fk_rot", "rot", lambda r: -r, 5)
        with pytest.raises(StreamFormatError, match="not a rotation: .* det = -1") as err:
            Stream(SHORT.kinds, columns)
        assert err.value.record == record_index(SHORT, "fk_rot", 5)

    def test_stacked_stream_names_the_record(self):
        # A bad value of one stream of a stack is found on its stream axis.
        stacked = Stream.stack([SHORT, sim_stream(seed=6)], 2)
        columns = with_column(stacked, "imu", "accel",
                              lambda a: np.where([[False] * 3, [False, True, False]],
                                                 np.inf, a), 9)
        with pytest.raises(StreamFormatError, match="field 'accel'") as err:
            Stream(stacked.kinds, columns)
        assert err.value.record == record_index(SHORT, "imu", 9)

    def test_stack_is_not_checked_again(self, monkeypatch):
        # Its streams were checked when built: stacking runs no value check,
        # and the stack is the stream that checked columns would build.
        parts = [SHORT, sim_stream(seed=6)]
        calls = []
        monkeypatch.setattr(streams, "rotation_defect",
                            lambda rot: calls.append(1) or np.zeros(rot.shape[:-2]))
        stacked = Stream.stack(parts, 2)
        assert calls == []
        monkeypatch.undo()
        assert streams_equal(stacked, Stream(stacked.kinds, stacked.columns))
        for i, part in enumerate(parts):
            for kind, c in part.columns.items():
                for name, col in c.items():
                    got = stacked.columns[kind][name]
                    assert np.array_equal(got if col.ndim == 1 else got[:, i], col)

    def test_stack_rejects_differing_layouts(self):
        with pytest.raises(ValueError, match="differ in record layout"):
            Stream.stack([SHORT, sim_stream(duration=1.4)], 2)
        with pytest.raises(ValueError, match="expected 3 streams"):
            Stream.stack([SHORT, SHORT], 3)

    def test_stream_without_truth_has_no_clock(self):
        # With no truth sample there is no clock, so nothing is out of order.
        truth = {name: col[:0] for name, col in SHORT.columns["truth"].items()}
        kinds = SHORT.kinds[SHORT.kinds != KINDS.index("truth")]
        columns = with_column(SHORT, "fk_pos", "t", lambda _: -0.5, 0)
        assert len(Stream(kinds, {**columns, "truth": truth})) == len(kinds)


# -- property tests: any single corruption of a short stream is named ------------

_FLOAT_COLUMNS = [(kind, name) for kind in KINDS for name in SHORT.columns[kind]
                  if name != "stance"]


def _moves(kinds):
    """(p, j, run) for each record p that is not imu and is followed, after
    the other records at its time, by a run of at least two imu records:
    j is the first of them and run their number."""
    imu = (kinds == IMU).tolist() + [False]
    out = []
    for p in np.flatnonzero(kinds != IMU).tolist():
        j = next((i for i in range(p, len(kinds)) if imu[i]), None)
        run = 0 if j is None else imu[j:].index(False)
        if run >= 2:
            out.append((p, j, run))
    return out


_MOVES = _moves(SHORT.kinds)


@st.composite
def corruptions(draw):
    """One corruption of SHORT as (edits, move, record, message).

    `edits` lists (kind, k, field, value): record k of the kind gets the
    value for that field. `move` is None or (p, q): the record at stream
    index p moves to index q. `record` is the stream index the error must
    name and `message` a pattern of its text.
    """
    what = draw(st.sampled_from(["non-finite", "scaled-rotation", "repeated-time",
                                 "reversed-time", "before-clock"]))
    if what == "before-clock":
        # Moved past m >= 2 of the imu records after it: its time is then
        # m imu intervals behind the clock. It passes no record of its kind.
        p, j, run = draw(st.sampled_from(_MOVES))
        q = j + draw(st.integers(2, run)) - 1
        return [], (p, q), q, f"out-of-order {KINDS[SHORT.kinds[p]]} record"
    if what == "non-finite":
        kind, name = draw(st.sampled_from(_FLOAT_COLUMNS))
    elif what == "scaled-rotation":
        kind, name = draw(st.sampled_from(["truth", "surface", "fk_rot"])), "rot"
    else:
        kind, name = draw(st.sampled_from(
            [kind for kind in KINDS if len(SHORT.columns[kind]["t"]) > 1])), "t"
    col = SHORT.columns[kind][name]
    k = draw(st.integers(1 if name == "t" and what != "non-finite" else 0, len(col) - 1))
    record = record_index(SHORT, kind, k)
    if what == "non-finite":
        value = np.array(col[k])
        value.reshape(-1)[draw(st.integers(0, value.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        return [(kind, k, name, value)], None, record, f"field '{name}' must be"
    if what == "scaled-rotation":
        scale = draw(st.one_of(st.floats(-2.0, 0.99), st.floats(1.01, 2.0)))
        return ([(kind, k, name, scale * col[k])], None, record,
                "field 'rot' is not a rotation")
    edits = [(kind, k, "t", col[k - 1])]
    if what == "reversed-time":
        edits.append((kind, k - 1, "t", col[k]))
    return edits, None, record, "non-increasing timestamp"


def _moved(seq, move):
    if move is None:
        return seq
    p, q = move
    return np.insert(np.delete(seq, p), q, seq[p])


def corrupt_stream(edits, move) -> Stream:
    columns = {kind: dict(c) for kind, c in SHORT.columns.items()}
    for kind, k, name, value in edits:
        col = columns[kind][name] = columns[kind][name].copy()
        col[k] = value
    return Stream(_moved(SHORT.kinds, move), columns)


def corrupt_file(path, edits, move):
    """SHORT as write_jsonl writes it, then each edit made to its line."""
    write_jsonl(SHORT, path)
    lines = path.read_text().splitlines(keepends=True)
    for kind, k, name, value in edits:
        i = record_index(SHORT, kind, k)
        record = json.loads(lines[i])
        record[name] = np.reshape(value, -1).tolist() if np.ndim(value) else float(value)
        lines[i] = json.dumps(record) + "\n"
    path.write_text("".join(_moved(np.array(lines, dtype=object), move)))
    return path


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestCorruptionProperties:
    @PROPERTY
    @given(corruptions())
    def test_stream_names_the_record(self, case):
        edits, move, record, message = case
        with pytest.raises(StreamFormatError, match=message) as err:
            corrupt_stream(edits, move)
        assert err.value.record == record

    @settings(PROPERTY, max_examples=25)
    @given(corruptions())
    def test_file_names_the_line(self, tmp_path_factory, case):
        edits, move, record, message = case
        path = corrupt_file(tmp_path_factory.mktemp("corrupt") / "s.jsonl", edits, move)
        with pytest.raises(StreamFormatError, match=rf"^line {record + 1}: {message}"):
            read_jsonl(path)

    @settings(PROPERTY, max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.6, 1.2, 2.4]))
    def test_write_of_read_back_is_byte_exact(self, tmp_path_factory, seed, duration):
        path = tmp_path_factory.mktemp("roundtrip")
        write_jsonl(sim_stream(seed, duration), path / "first.jsonl")
        write_jsonl(read_jsonl(path / "first.jsonl"), path / "second.jsonl")
        assert (path / "second.jsonl").read_bytes() == (path / "first.jsonl").read_bytes()
