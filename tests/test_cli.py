import csv
import hashlib
import json
import os

import numpy as np
import pytest

from drs_inekf import filter as filter_module
from drs_inekf.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_GATE,
    EXIT_OK,
    main,
)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_config(tmp_path, overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


SMALL = {"gait": {"duration": 2.4}, "trials": {"n_trials": 2}}


def assert_stages(manifest_path, names):
    """The manifest times each named stage, within the command's duration."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    stages = manifest["stages_s"]
    assert set(stages) == names
    assert all(v >= 0.0 for v in stages.values())
    assert sum(stages.values()) <= manifest["duration_s"] + 0.005

# The shipped default config, as `--print-config` prints it: five
# sections, one per config dataclass.
DEFAULT_DOCUMENT = {
    "gait": {"base_height": 0.95, "bob_amplitude": 0.015, "duration": 30.0,
             "lean_amplitude_deg": 3.0, "stance_width": 0.2,
             "step_length": 0.25, "step_period": 0.6,
             "surge_amplitude": 0.01, "sway_amplitude": 0.03},
    "noise": {"accel_density": 0.0001, "contact_vel_density": 0.0001,
              "fk_pos_var": 0.0001, "gyro_density": 1e-05,
              "jump_pos_var": 1e-06, "surface_orient_var": 0.0001},
    "rates": {"imu_hz": 400, "kin_hz": 100},
    "surface": {"belt_speed": 0.0, "pitch_amplitude": 0.05235987755982989,
                "pitch_angular_freq": 4.71238898038469,
                "pivot": [0.0, 0.0, 0.0]},
    "trials": {"foot_range": 0.5, "n_trials": 100, "pos_range": 0.5,
               "roll_pitch_range_deg": 10.0, "static_control": True,
               "vel_range": 0.5, "yaw_range_deg": 30.0},
}

# Each value fails the typed field check; `section.field` must be named.
BAD_VALUES = [
    ("gait", "duration", float("inf")),
    ("surface", "pitch_amplitude", float("nan")),
    ("rates", "imu_hz", 400.7),
    ("trials", "n_trials", 1.9),
    ("trials", "static_control", "no"),
    ("surface", "pivot", [True, 0, 0]),
]

# Configs whose every field passes its own check, and the field to name.
OFF_GRID = [
    ({"gait": {"duration": 2.4001}}, "gait.duration"),
    ({"gait": {"step_period": 0.6025}}, "gait.step_period"),
    ({"rates": {"imu_hz": 5, "kin_hz": 5}}, "rates.imu_hz"),
]


def scaled_rot(d):
    d["rot"] = [5.0 * x for x in d["rot"]]


# One edit of the second record of a kind, and what the reader must say
# about that line.
BAD_RECORDS = [
    ("nan-fk_pos-hp", "fk_pos", lambda d: d["hp"].__setitem__(0, float("nan")),
     "field 'hp' must be a list of 3 finite numbers"),
    ("nan-imu-t", "imu", lambda d: d.update(t=float("nan")),
     "field 't' must be a finite number"),
    ("bool-swap-t", "swap", lambda d: d.update(t=True),
     "field 't' must be a finite number"),
    ("scaled-fk_rot", "fk_rot", scaled_rot, "field 'rot' is not a rotation"),
    ("scaled-surface", "surface", scaled_rot, "field 'rot' is not a rotation"),
    ("scaled-truth-rot", "truth", scaled_rot, "field 'rot' is not a rotation"),
    ("imu-without-dt", "imu", lambda d: d.pop("dt"), "missing field 'dt'"),
]


@pytest.fixture(scope="module")
def sim_lines(tmp_path_factory):
    """The lines of a 2.4 s stream (seed 3) and the config that made it."""
    cfg = write_config(tmp_path_factory.mktemp("sim"), {"gait": {"duration": 2.4}})
    stream = tmp_path_factory.mktemp("sim") / "s.jsonl"
    assert main(["sim", "--config", cfg, "--seed", "3",
                 "--out", str(stream)]) == EXIT_OK
    return stream.read_text().splitlines(keepends=True)


class TestSimCommand:
    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out1 = str(tmp_path / "a.jsonl")
        out2 = str(tmp_path / "b.jsonl")
        assert main(["sim", "--config", cfg, "--seed", "1", "--out", out1]) == EXIT_OK
        assert main(["sim", "--config", cfg, "--seed", "1", "--out", out2]) == EXIT_OK
        assert sha256(out1) == sha256(out2)
        assert os.path.exists(out1 + ".manifest.json")

    def test_manifest_times_stages(self, tmp_path):
        out = str(tmp_path / "s.jsonl")
        assert main(["sim", "--config", write_config(tmp_path, SMALL),
                     "--out", out]) == EXIT_OK
        assert_stages(out + ".manifest.json", {"simulate", "write"})

    def test_tiny_duration_still_has_truth(self, tmp_path):
        cfg = write_config(tmp_path, {"gait": {"duration": 0.01}})
        out = str(tmp_path / "tiny.jsonl")
        assert main(["sim", "--config", cfg, "--out", out]) == EXIT_OK
        kinds = [json.loads(line)["kind"] for line in open(out)]
        assert kinds.count("truth") >= 1

    def test_amplitude_validation_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"surface": {"pitch_amplitude": 0.35}})
        code = main(["sim", "--config", cfg, "--out", str(tmp_path / "x.jsonl")])
        assert code == EXIT_CONFIG
        assert "surface.pitch_amplitude" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        # A misspelt key, and a `filter` section: the filter is configured
        # by the noise section alone.
        for overrides, where in (({"surface": {"pitch_amp": 0.1}}, "surface.pitch_amp"),
                                 ({"filter": {"epsilon": 1e-9}}, "filter")):
            cfg = write_config(tmp_path, overrides)
            assert main(["sim", "--config", cfg,
                         "--out", str(tmp_path / "x.jsonl")]) == EXIT_CONFIG
            assert f"config error: {where}: unknown field" in capsys.readouterr().err

    def test_print_config(self, capsys):
        assert main(["sim", "--print-config"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == json.dumps(DEFAULT_DOCUMENT, indent=2, sort_keys=True) + "\n"

    def test_printed_config_round_trips(self, tmp_path, capsys):
        main(["sim", "--print-config"])
        printed = capsys.readouterr().out
        cfg = tmp_path / "printed.json"
        cfg.write_text(printed)
        out = str(tmp_path / "s.jsonl")
        assert main(["sim", "--config", str(cfg), "--out", out]) == EXIT_OK
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["config"] == json.loads(printed)


@pytest.mark.parametrize("command", ["sim", "estimate", "montecarlo"])
def test_every_command_prints_config(capsys, command):
    assert main([command, "--print-config"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed == json.dumps(DEFAULT_DOCUMENT, indent=2, sort_keys=True) + "\n"


def test_estimate_without_stream_exits_config(capsys):
    assert main(["estimate"]) == EXIT_CONFIG
    assert "--stream" in capsys.readouterr().err


class TestConfigChecks:
    # montecarlo builds every section before it runs anything.
    @pytest.mark.parametrize("section, key, value", BAD_VALUES,
                             ids=[f"{s}.{k}={v!r}" for s, k, v in BAD_VALUES])
    def test_bad_value_names_field(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path, {section: {key: value}})
        code = main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "mc")])
        assert code == EXIT_CONFIG
        assert f"config error: {section}.{key}:" in capsys.readouterr().err

    # sim checks the sections it does not use too, so it never records a
    # config that montecarlo would reject.
    @pytest.mark.parametrize("section, key, value", [("trials", "n_trials", 0)])
    def test_sim_checks_every_section(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path, {section: {key: value}})
        out = tmp_path / "s.jsonl"
        assert main(["sim", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {section}.{key}:" in capsys.readouterr().err
        assert not out.exists()

    # Each section is valid alone, but the gait is off the rates' tick grid
    # or the imu interval is too long for a stream. Every command rejects
    # the config before it reads, simulates or runs anything.
    @pytest.mark.parametrize("overrides, field", OFF_GRID,
                             ids=[field for _, field in OFF_GRID])
    @pytest.mark.parametrize("command", ["sim", "estimate", "montecarlo"])
    def test_off_grid_config_names_field(self, tmp_path, capsys, sim_lines,
                                         command, overrides, field):
        cfg = write_config(tmp_path, overrides)
        stream = tmp_path / "s.jsonl"
        stream.write_text("".join(sim_lines))
        out = tmp_path / "out"
        args = {"estimate": ["--stream", str(stream)]}.get(command, [])
        assert main([command, "--config", cfg, *args, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {field}:" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestEstimateCommand:
    def test_keystone_metrics_small(self, tmp_path):
        cfg = write_config(tmp_path, {
            "gait": {"duration": 2.4},
            "noise": {"gyro_density": 0.0, "accel_density": 0.0,
                      "contact_vel_density": 0.0, "fk_pos_var": 0.0,
                      "surface_orient_var": 0.0, "jump_pos_var": 0.0},
        })
        stream = str(tmp_path / "s.jsonl")
        assert main(["sim", "--config", cfg, "--seed", "2", "--out", stream]) == EXIT_OK
        out = str(tmp_path / "m.csv")
        # estimate with default (nonzero) filter noise over noiseless data
        assert main(["estimate", "--stream", stream, "--variant", "proposed",
                     "--out", out]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 241
        for row in rows:
            for key in ("pos_err", "vel_err", "roll_err", "pitch_err", "yaw_err"):
                assert abs(float(row[key])) < 1e-4

    def test_manifest_times_stages(self, tmp_path, sim_lines):
        stream = tmp_path / "s.jsonl"
        stream.write_text("".join(sim_lines))
        out = str(tmp_path / "m.csv")
        assert main(["estimate", "--stream", str(stream), "--out", out]) == EXIT_OK
        assert_stages(out + ".manifest.json", {"read", "estimate", "write"})

    def test_variants_differ_on_rocking_data(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        stream = str(tmp_path / "s.jsonl")
        main(["sim", "--config", cfg, "--seed", "3", "--out", stream])
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["estimate", "--stream", stream, "--variant", "proposed",
                     "--config", cfg, "--out", out_a]) == EXIT_OK
        assert main(["estimate", "--stream", stream, "--variant", "position-only",
                     "--config", cfg, "--out", out_b]) == EXIT_OK

        def yaw_column(path):
            with open(path) as fh:
                return [float(r["yaw_err"]) for r in csv.DictReader(fh)]

        yaw_a, yaw_b = yaw_column(out_a), yaw_column(out_b)
        assert len(yaw_a) == len(yaw_b)
        assert yaw_a != yaw_b

    def test_truncated_stream_exits_with_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        stream = str(tmp_path / "s.jsonl")
        main(["sim", "--config", cfg, "--out", stream])
        text = open(stream).read()
        with open(stream, "w") as fh:
            fh.write(text[:-20])
        code = main(["estimate", "--stream", stream,
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert "line" in capsys.readouterr().err

    def test_imu_gap_exits_with_data_error(self, tmp_path, capsys):
        # Dropping 40 imu records (100 ms at 400 Hz) leaves intervals that
        # no longer tile time; the stream time of the gap is named.
        stream = tmp_path / "s.jsonl"
        assert main(["sim", "--config", write_config(tmp_path, {"gait": {"duration": 2.4}}),
                     "--out", str(stream)]) == EXIT_OK
        lines = stream.read_text().splitlines(keepends=True)
        imu = [i for i, line in enumerate(lines)
               if json.loads(line)["kind"] == "imu" and json.loads(line)["t"] >= 1.0]
        dropped = set(imu[:40])
        stream.write_text("".join(line for i, line in enumerate(lines)
                                  if i not in dropped))
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert "imu gap at t=1:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, edit, message",
                             [case[1:] for case in BAD_RECORDS],
                             ids=[case[0] for case in BAD_RECORDS])
    def test_bad_value_exits_with_data_error(self, tmp_path, capsys, sim_lines,
                                             kind, edit, message):
        lines = list(sim_lines)
        i = [j for j, line in enumerate(lines) if json.loads(line)["kind"] == kind][1]
        record = json.loads(lines[i])
        edit(record)
        lines[i] = json.dumps(record) + "\n"
        stream = tmp_path / "bad.jsonl"
        stream.write_text("".join(lines))
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert f"line {i + 1}: {message}" in capsys.readouterr().err

    def test_last_imu_dt_out_of_range_reports_line(self, tmp_path, capsys,
                                                   sim_lines):
        # A dt of 0.5 on the last imu record leaves no gap to report; the
        # dt itself is named with its line and stream time.
        lines = list(sim_lines)
        i = max(j for j, line in enumerate(lines) if json.loads(line)["kind"] == "imu")
        record = json.loads(lines[i])
        record["dt"] = 0.5
        lines[i] = json.dumps(record) + "\n"
        stream = tmp_path / "bad.jsonl"
        stream.write_text("".join(lines))
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert (f"line {i + 1}: imu record at t={record['t']:.9g}: "
                "dt 0.5 outside (0, 0.1]") in capsys.readouterr().err

    def test_equal_time_kind_order_reports_line(self, tmp_path, capsys, sim_lines):
        # Records at equal timestamps go swap, truth, surface, fk_rot,
        # fk_pos, imu: a surface record before the truth sample at t = 0
        # is rejected at the truth sample's line.
        lines = list(sim_lines)
        assert [json.loads(line)["kind"] for line in lines[:2]] == ["truth", "surface"]
        lines[0], lines[1] = lines[1], lines[0]
        stream = tmp_path / "bad.jsonl"
        stream.write_text("".join(lines))
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert ("line 2: truth record at t=0 after surface at that time"
                in capsys.readouterr().err)

    def test_record_before_the_clock_reports_line(self, tmp_path, capsys, sim_lines):
        # The first fk_pos record moved past two imu records: the imu
        # intervals before it put the stream clock 5 ms after its time.
        lines = list(sim_lines)
        kinds = [json.loads(line)["kind"] for line in lines]
        i, j = kinds.index("fk_pos"), kinds.index("imu")
        lines.insert(j + 1, lines.pop(i))  # to line j + 2
        stream = tmp_path / "bad.jsonl"
        stream.write_text("".join(lines))
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert (f"stream error: line {j + 2}: out-of-order fk_pos record at t=0: "
                in capsys.readouterr().err)

    def test_record_past_the_next_imu_interval_reports_line(self, tmp_path, capsys,
                                                            sim_lines):
        # Every swap a second late: the first is named at its own line.
        lines = list(sim_lines)
        swaps = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "swap"]
        for i in swaps:
            record = json.loads(lines[i])
            record["t"] += 1.0
            lines[i] = json.dumps(record) + "\n"
        stream = tmp_path / "bad.jsonl"
        stream.write_text("".join(lines))
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert (f"stream error: line {swaps[0] + 1}: early swap record at t=1.6: "
                in capsys.readouterr().err)

    def test_imu_record_off_the_clock_reports_line(self, tmp_path, capsys, sim_lines):
        # Every imu record 2 ms late: the intervals still tile time, but the
        # first one starts off the clock, and its line is named.
        lines = list(sim_lines)
        imu = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "imu"]
        for i in imu:
            record = json.loads(lines[i])
            record["t"] += 0.002
            lines[i] = json.dumps(record) + "\n"
        stream = tmp_path / "bad.jsonl"
        stream.write_text("".join(lines))
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert (f"stream error: line {imu[0] + 1}: imu record at t=0.002 off the "
                f"stream clock at t=0\n" in capsys.readouterr().err)

    def test_stream_without_surface_reports_line(self, tmp_path, capsys, sim_lines):
        # Without surface records the proposed filter has no surface normal:
        # the first fk_rot record, now the stream's second line, is named.
        lines = [line for line in sim_lines if json.loads(line)["kind"] != "surface"]
        assert json.loads(lines[1])["kind"] == "fk_rot"
        stream = tmp_path / "bad.jsonl"
        stream.write_text("".join(lines))
        code = main(["estimate", "--stream", str(stream), "--variant", "proposed",
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert ("stream error: line 2: fk_rot record at t=0 before the first surface "
                "record" in capsys.readouterr().err)

    def test_failed_update_names_its_record(self, tmp_path, capsys, sim_lines,
                                            monkeypatch):
        # The 100th correction fails as a singular innovation covariance
        # would: the message names that record's line, kind and time. A
        # blank line, which holds no record, comes before it.
        calls, update = [], filter_module.update

        def failing(*args):
            calls.append(1)
            if len(calls) == 100:
                raise filter_module.FilterError("singular innovation covariance")
            return update(*args)

        monkeypatch.setattr(filter_module, "update", failing)
        stream = tmp_path / "s.jsonl"
        lines = [sim_lines[0], "\n", *sim_lines[1:]]
        stream.write_text("".join(lines))
        code = main(["estimate", "--stream", str(stream), "--variant", "proposed",
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        records = {n: json.loads(text) for n, text in enumerate(lines, start=1)
                   if text.strip()}
        line = [n for n, r in records.items() if r["kind"] in ("fk_rot", "fk_pos")][99]
        kind, t = records[line]["kind"], records[line]["t"]
        assert (f"error: line {line}: {kind} record at t={t:.9g}: singular innovation "
                "covariance\n" in capsys.readouterr().err)

    def test_swap_before_the_first_truth_reports_line(self, tmp_path, capsys, sim_lines):
        # A swap at the first truth time sorts before that truth sample, so
        # its jump would move the state the truth sample starts the filter
        # from: the swap, on line 1, is named.
        swap = {"kind": "swap", "t": 0.0, "h_d": [0.0, 0.25, 0.0]}
        stream = tmp_path / "bad.jsonl"
        stream.write_text(json.dumps(swap) + "\n" + "".join(sim_lines))
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert ("stream error: line 1: swap record at t=0 before the first truth "
                "record\n" in capsys.readouterr().err)

    def test_empty_stream_exits_with_data_error(self, tmp_path, capsys):
        # A blank line holds no record, so the stream has no first truth sample.
        stream = tmp_path / "empty.jsonl"
        stream.write_text("\n")
        out = tmp_path / "m.csv"
        code = main(["estimate", "--stream", str(stream), "--out", str(out)])
        assert code == EXIT_DATA
        assert "stream error: no records: " in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_order_stream_reports_line(self, tmp_path, capsys):
        stream = tmp_path / "bad.jsonl"
        lines = [
            {"kind": "truth", "t": 0.0, "rot": [1, 0, 0, 0, 1, 0, 0, 0, 1],
             "vel": [0, 0, 0], "pos": [0, 0, 0], "foot": [0, 0, 0]},
            {"kind": "fk_pos", "t": 0.02, "hp": [0.0, 0.0, 0.0]},
            {"kind": "fk_pos", "t": 0.01, "hp": [0.0, 0.0, 0.0]},
        ]
        stream.write_text("\n".join(json.dumps(d) for d in lines) + "\n")
        code = main(["estimate", "--stream", str(stream),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA
        assert "line 3" in capsys.readouterr().err


class TestMonteCarloCommand:
    def test_smoke_run_outputs_and_gates(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "mc")
        code = main(["montecarlo", "--config", cfg, "--seed", "5",
                     "--jobs", "1", "--out", out])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "aggregate.csv"))
        assert os.path.exists(os.path.join(out, "aggregate_static.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert os.path.exists(os.path.join(out, "trials", "trial_000.csv"))
        for metric in ("pos_err", "vel_err", "roll_err", "pitch_err",
                       "yaw_err", "nees"):
            svg = os.path.join(out, "plots", f"{metric}.svg")
            assert os.path.exists(svg)
            body = open(svg).read()
            assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
        gates = json.load(open(os.path.join(out, "gates.json")))
        assert all(g["passed"] for g in gates if g["gating"])

    def test_created_missing_output_dir(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "deep" / "nested" / "mc")
        assert main(["montecarlo", "--config", cfg, "--jobs", "1",
                     "--out", out]) == EXIT_OK
        assert os.path.isdir(out)

    def test_unwritable_output_dir_exits_config(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a dir")
        cfg = write_config(tmp_path, SMALL)
        code = main(["montecarlo", "--config", cfg,
                     "--out", str(blocker / "mc")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and str(blocker) in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_config(self, tmp_path, capsys, jobs):
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", write_config(tmp_path, SMALL),
                     "--jobs", jobs, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: --jobs: must be >= 1, got {jobs}" in err
        assert not out.exists()  # rejected before any work started

    def test_gate_failure_exits_four(self, tmp_path, capsys):
        # A static level surface cannot make yaw observable, so the
        # observability gate must fail and drive exit code 4.
        cfg = write_config(tmp_path, {
            "gait": {"duration": 2.4},
            "trials": {"n_trials": 2},
            "surface": {"pitch_amplitude": 0.0},
        })
        code = main(["montecarlo", "--config", cfg, "--jobs", "1",
                     "--out", str(tmp_path / "mc")])
        assert code == EXIT_GATE
        err = capsys.readouterr().err
        assert "yaw-observability" in err
        # A gate failure is a result: its run is timed in its manifest.
        assert_stages(tmp_path / "mc" / "manifest.json", {"campaigns", "outputs"})

    def test_manifest_times_stages(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", write_config(tmp_path, SMALL),
                     "--out", str(out)]) == EXIT_OK
        assert_stages(out / "manifest.json", {"campaigns", "outputs"})

    def test_manifest_reproducibility_fields(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "mc")
        main(["montecarlo", "--config", cfg, "--seed", "17", "--jobs", "1",
              "--out", out])
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["seed"] == 17
        assert manifest["command"] == "montecarlo"
        assert manifest["config"]["gait"]["duration"] == 2.4
        assert manifest["duration_s"] >= 0.0
        assert any(p.endswith("aggregate.csv") for p in manifest["outputs"])
