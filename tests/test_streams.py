import json

import numpy as np
import pytest

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
from drs_inekf.streams import IMU, KINDS, StreamFormatError, read_jsonl, write_jsonl

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
