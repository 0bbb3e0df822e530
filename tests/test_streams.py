import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from drs_inekf.harness import TrialConfig, run_trial
from drs_inekf.filter import Variant
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

from conftest import one_stream, stream_at, streams_equal


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
         "foot": vec()},
        {"kind": "surface", "t": 0.0, "rot": rot},
        {"kind": "fk_rot", "t": 0.0, "rot": rot},
        {"kind": "fk_pos", "t": 0.0, "hp": vec()},
        imu(0.0),
        {"kind": "swap", "t": 0.0025, "h_d": vec()},
        imu(0.0025),
    ]


def write_records(path, records):
    path.write_text("".join(json.dumps(d) + "\n" for d in records))
    return path


def sim_stream(seed=5, duration=1.2):
    """A short simulated stream; 1.2 s at the default rates holds every kind."""
    return one_stream(generate_truth(GaitConfig(duration=duration), SurfaceConfig(), seed),
                      NoiseParams(), Rates(), seed)


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
        # Each record alone in a one-line file (an fk_rot record after the
        # surface pose it needs) reads back with its kind, time and values,
        # and is written back as the same lines.
        records = sample_records(rng)
        for d in records:
            before = [records[1]] if d["kind"] == "fk_rot" else []
            path = write_records(tmp_path / "one.jsonl", before + [d])
            stream = read_jsonl(path)
            assert stream.kinds.tolist()[-1:] == [KINDS.index(d["kind"])]
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
        write_jsonl(back, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_text() == path.read_text()

    def test_sim_stream_round_trips_byte_exact(self, tmp_path):
        # 1.2 s at the default rates holds every record kind, a swap too. The
        # batch of one, as `sim` writes it, reads back without its stream axis.
        batch = synthesize_sensors(
            [generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 5)],
            NoiseParams(), Rates(), [5])
        stream = stream_at(batch, 0)
        assert all(len(stream.columns[kind]["t"]) for kind in KINDS)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_jsonl(batch, first)
        back = read_jsonl(first)
        assert streams_equal(back, stream)
        write_jsonl(back, second)
        assert second.read_bytes() == first.read_bytes()

    def test_stance_of_older_files_is_ignored(self, tmp_path):
        # Truth lines once carried a "stance" label, which nothing read: a
        # file that has it reads to the stream of the file without it.
        write_jsonl(SHORT, tmp_path / "new.jsonl")
        lines = (tmp_path / "new.jsonl").read_text().splitlines()
        older = tmp_path / "older.jsonl"
        older.write_text("".join(
            line[:-1] + ', "stance": "left"}\n' if '"kind": "truth"' in line else line + "\n"
            for line in lines))
        assert older.read_text().count('"stance"') == len(SHORT.columns["truth"]["t"])
        assert streams_equal(read_jsonl(older), SHORT)

    def test_blocks_join_and_keep_line_numbers(self, tmp_path, monkeypatch):
        # The reader converts records to arrays a block at a time. With tiny
        # blocks a stream still reads back exactly, and a bad value in a
        # later block names its own line.
        monkeypatch.setattr(streams, "_BLOCK", 7)
        stream = one_stream(
            generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 6),
            NoiseParams(), Rates(), 6)
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
        stream = one_stream(
            generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 5),
            NoiseParams(), Rates(), 5)
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
                      NoiseParams(), (Variant.PROPOSED,), np.zeros(12))
        assert err.value.record == record_index(SHORT, kind, k % n)

    def test_reflection_rejected(self):
        # -R has R^T R = I exactly; only its determinant, -1, gives it away.
        columns = with_column(SHORT, "fk_rot", "rot", lambda r: -r, 5)
        with pytest.raises(StreamFormatError, match="not a rotation: .* det = -1") as err:
            Stream(SHORT.kinds, columns)
        assert err.value.record == record_index(SHORT, "fk_rot", 5)

    def test_stacked_stream_names_the_record(self):
        # A bad value of one stream of a batch is found on its stream axis.
        stacked = synthesize_sensors([generate_truth(GaitConfig(duration=1.2),
                                                     SurfaceConfig(), seed)
                                      for seed in (5, 6)], NoiseParams(), Rates(), [5, 6])
        columns = with_column(stacked, "imu", "accel",
                              lambda a: np.where([[False] * 3, [False, True, False]],
                                                 np.inf, a), 9)
        with pytest.raises(StreamFormatError, match="field 'accel'") as err:
            Stream(stacked.kinds, columns)
        assert err.value.record == record_index(SHORT, "imu", 9)

    @pytest.mark.parametrize("shift, message", [
        (0.002, r"imu record at t=0.002 off the stream clock at t=0$"),
        (-0.002, r"out-of-order imu record at t=-0.002"),
    ], ids=["2-ms-late", "2-ms-early"])
    def test_imu_record_off_the_clock_raises(self, shift, message):
        # Every imu interval moved by 2 ms leaves no gap between them, but
        # the clock still starts at the first truth sample: the first imu
        # record is named.
        columns = {**SHORT.columns, "imu": {**SHORT.columns["imu"],
                                            "t": SHORT.columns["imu"]["t"] + shift}}
        with pytest.raises(StreamFormatError, match=message) as err:
            Stream(SHORT.kinds, columns)
        assert err.value.record == record_index(SHORT, "imu", 0)

    def test_imu_record_within_time_tol_of_the_clock_is_kept(self):
        columns = {**SHORT.columns, "imu": {
            **SHORT.columns["imu"], "t": SHORT.columns["imu"]["t"] + 0.5 * streams.TIME_TOL}}
        assert len(Stream(SHORT.kinds, columns)) == len(SHORT)

    @pytest.mark.parametrize("kind, k, shift, message", [
        ("swap", 0, 1.0, r"early swap record at t=1.6: the stream clock is at t=0.6, "
                         r"and the next imu interval ends at t=0.6025"),
        ("fk_pos", -1, 0.01, r"early fk_pos record at t=1.21: the stream clock is at "
                             r"t=1.2, and no imu interval follows"),
    ], ids=["swap-a-second-late", "after-the-last-imu"])
    def test_record_past_the_next_imu_interval_raises(self, kind, k, shift, message):
        columns = with_column(SHORT, kind, "t", lambda t: t + shift, k)
        with pytest.raises(StreamFormatError, match=message) as err:
            Stream(SHORT.kinds, columns)
        assert err.value.record == record_index(SHORT, kind, k % len(
            SHORT.columns[kind]["t"]))

    def test_record_within_the_next_imu_interval_is_kept(self):
        # 2 ms late is inside the 2.5 ms imu interval that follows the swap.
        columns = with_column(SHORT, "swap", "t", lambda t: t + 0.002, 0)
        assert len(Stream(SHORT.kinds, columns)) == len(SHORT)

    def test_stream_without_truth_has_no_clock(self):
        # With no truth sample there is no clock, so no record is out of
        # order or early.
        truth = {name: col[:0] for name, col in SHORT.columns["truth"].items()}
        kinds = SHORT.kinds[SHORT.kinds != KINDS.index("truth")]
        columns = with_column(SHORT, "fk_pos", "t", lambda _: -0.5, 0)
        columns["swap"] = {**columns["swap"], "t": columns["swap"]["t"] + 1.0}
        assert len(Stream(kinds, {**columns, "truth": truth})) == len(kinds)

    @pytest.mark.parametrize("dropped", [slice(None), slice(1)],
                             ids=["no-surface", "first-surface"])
    def test_fk_rot_before_the_first_surface_raises(self, dropped):
        # The orientation measurement needs a surface pose: without one
        # before it, the first fk_rot record (at t = 0) is named.
        surface = np.flatnonzero(SHORT.kinds == KINDS.index("surface"))[dropped]
        kinds = np.delete(SHORT.kinds, surface)
        columns = {**SHORT.columns, "surface": {
            name: np.delete(col, np.arange(len(col))[dropped], axis=0)
            for name, col in SHORT.columns["surface"].items()}}
        with pytest.raises(StreamFormatError,
                           match="fk_rot record at t=0 before the first surface") as err:
            Stream(kinds, columns)
        assert err.value.record == np.flatnonzero(kinds == KINDS.index("fk_rot"))[0]


# -- property tests: any single corruption of a short stream is named ------------

_FLOAT_COLUMNS = [(kind, name) for kind in KINDS for name in SHORT.columns[kind]]


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
# Each property draws its examples from the seed pinned on it. `derandomize`
# alone would derive one from the test method's source, decorators included,
# so any change to its settings would draw other examples. These are the
# seeds it derived before they were pinned, so the examples stay the same.
RECORD_SEED = int("e296538c53c4bb42b114752c178389a0c29046ed20eece74"
                  "4fd26343f8c4a7568b1697117f20a9dc3de3e6f3004f8cd3", 16)
LINE_SEED = int("f425655763baef9c44131c240b50a523f9e967d5771eaaf4"
                "f72b9935e1b2a52e372392bbe00588230327fef819b60930", 16)
ROUNDTRIP_SEED = int("00ee2bd9754b31774abf03ae72f3fe1c439a1ae4f77d5de7"
                     "d1ffa2777ada6acc7a3bee4aeec79ecb5f28f0705fb24107", 16)


class TestCorruptionProperties:
    @seed(RECORD_SEED)
    @PROPERTY
    @given(corruptions())
    def test_stream_names_the_record(self, case):
        edits, move, record, message = case
        with pytest.raises(StreamFormatError, match=message) as err:
            corrupt_stream(edits, move)
        assert err.value.record == record

    @seed(LINE_SEED)
    @settings(PROPERTY, max_examples=25)
    @given(corruptions())
    def test_file_names_the_line(self, tmp_path_factory, case):
        edits, move, record, message = case
        path = corrupt_file(tmp_path_factory.mktemp("corrupt") / "s.jsonl", edits, move)
        with pytest.raises(StreamFormatError, match=rf"^line {record + 1}: {message}"):
            read_jsonl(path)

    @seed(ROUNDTRIP_SEED)
    @settings(PROPERTY, max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.6, 1.2, 2.4]))
    def test_write_of_read_back_is_byte_exact(self, tmp_path_factory, seed, duration):
        path = tmp_path_factory.mktemp("roundtrip")
        write_jsonl(sim_stream(seed, duration), path / "first.jsonl")
        write_jsonl(read_jsonl(path / "first.jsonl"), path / "second.jsonl")
        assert (path / "second.jsonl").read_bytes() == (path / "first.jsonl").read_bytes()
