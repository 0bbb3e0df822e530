import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, seed, settings
from hypothesis import strategies as st

from drs_inekf import filter as filter_module
from drs_inekf import harness, plots
from drs_inekf.filter import EPSILON, State, StreamEstimator, Variant
from drs_inekf.harness import (
    METRIC_NAMES,
    PERCENTILES,
    VARIANTS,
    AggregateReport,
    TrialConfig,
    aggregate,
    campaigns,
    evaluate_gates,
    initial_covariance,
    metric_rows,
    nees,
    run_trial,
    run_trials,
    sample_initial_error,
    write_aggregate_csv,
    write_trial_csv,
)
from drs_inekf.liegroup import GroupElement, compose, sek3_exp, so3_exp
from drs_inekf.models import NoiseParams
from drs_inekf.sim import GaitConfig, Rates, SurfaceConfig, generate_truth, synthesize_sensors
from drs_inekf.streams import TruthSample

from conftest import one_stream, oracle_metric_rows, random_element, routed, stream_records

SHORT_GAIT = GaitConfig(duration=2.4)
ZERO = NoiseParams(0, 0, 0, 0, 0, 0)


def offset(seed, tcfg):
    """The initial-error offset a trial with this seed starts from."""
    return sample_initial_error(np.random.default_rng(seed), tcfg)


def one_campaign(tcfg, surface, noise, jobs=1):
    return campaigns(tcfg, SHORT_GAIT, [surface], noise, Rates(), jobs=jobs)[0]


def short_stream(seed=1, noise=None, surface=None):
    noise = noise or NoiseParams(jump_pos_var=1e-6)
    surface = surface or SurfaceConfig()
    return one_stream(generate_truth(SHORT_GAIT, surface, seed), noise, Rates(), seed)


class TestNees:
    def test_zero_error(self):
        assert nees(np.zeros(12), np.eye(12)) == 0.0

    def test_unit_vector_identity_cov(self):
        xi = np.zeros(12)
        xi[4] = 1.0
        assert nees(xi, np.eye(12)) == pytest.approx(1.0, rel=1e-8)
        assert nees(xi, np.eye(12)) == pytest.approx(1.0 / (1.0 + EPSILON), rel=1e-12)

    def test_matches_solve_oracle(self, rng):
        for _ in range(50):
            a = rng.standard_normal((12, 12))
            cov = a @ a.T + 0.5 * np.eye(12)
            xi = rng.standard_normal(12)
            oracle = float(xi @ np.linalg.inv(cov + 1e-9 * np.eye(12)) @ xi)
            assert nees(xi, cov) == pytest.approx(oracle, rel=1e-9)

    def test_singular_covariance_raises(self):
        # A NaN covariance stays NaN whatever EPSILON I is added to it.
        xi = np.ones(12)
        bad = np.full((12, 12), np.nan)
        with pytest.raises(ValueError):
            nees(xi, bad)


class TestMetricRows:
    # The columns of METRIC_NAMES from the invariant error: norms, and the
    # ZYX angles of the rotation error in degrees, taken absolute.
    @staticmethod
    def row(est, truth):
        return dict(zip(METRIC_NAMES, metric_rows(est, np.eye(12), truth)))

    def test_exact_estimate_gives_zeros(self, rng):
        truth = random_element(rng)
        m = self.row(truth, truth)
        assert m["nees"] < 1e-24
        assert m["pos_err"] == 0.0 and m["vel_err"] == 0.0
        assert m["roll_err"] < 1e-12 and m["yaw_err"] < 1e-12

    def test_pure_yaw_offset(self, rng):
        truth = random_element(rng)
        for degrees in (10.0, -10.0):
            yaw = so3_exp(np.array([0.0, 0.0, math.radians(degrees)]))
            est = GroupElement(yaw @ truth.rot, yaw @ truth.cols)
            m = self.row(est, truth)
            assert m["yaw_err"] == pytest.approx(10.0, abs=1e-10)
            assert m["roll_err"] < 1e-10 and m["pitch_err"] < 1e-10


class TestSampling:
    def test_ranges_respected(self, rng):
        tcfg = TrialConfig(n_trials=1, yaw_range_deg=30.0,
                           roll_pitch_range_deg=10.0, vel_range=0.5,
                           pos_range=0.4, foot_range=0.3)
        for _ in range(200):
            xi = sample_initial_error(rng, tcfg)
            assert abs(np.degrees(xi[2])) <= 30.0
            assert np.all(np.abs(np.degrees(xi[:2])) <= 10.0)
            assert np.all(np.abs(xi[3:6]) <= 0.5)
            assert np.all(np.abs(xi[6:9]) <= 0.4)
            assert np.all(np.abs(xi[9:12]) <= 0.3)

    def test_initial_covariance_matches_uniform_variances(self):
        tcfg = TrialConfig(n_trials=1)
        p = initial_covariance(tcfg)
        assert p[2, 2] == pytest.approx(np.radians(30.0) ** 2 / 3.0)
        assert p[3, 3] == pytest.approx(0.25 / 3.0)
        assert np.allclose(p, p.T)
        a = np.array([math.radians(10.0)] * 2 + [math.radians(30.0)] + [0.5] * 9)
        assert np.array_equal(p, np.diag(a ** 2 / 3.0))

    def test_sample_matches_one_draw_per_block(self):
        # Reference: roll, pitch, yaw, then the v, p and d blocks, each drawn
        # by its own call into zeros. Equal bits, so equal signs of zero too.
        tcfg = TrialConfig(n_trials=1, yaw_range_deg=20.0, roll_pitch_range_deg=0.0,
                           vel_range=0.0, pos_range=0.4, foot_range=0.3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            want = np.zeros(12)
            rp, yaw = math.radians(0.0), math.radians(20.0)
            want[0] = rng.uniform(-rp, rp)
            want[1] = rng.uniform(-rp, rp)
            want[2] = rng.uniform(-yaw, yaw)
            want[3:6] = rng.uniform(-0.0, 0.0, 3)
            want[6:9] = rng.uniform(-0.4, 0.4, 3)
            want[9:12] = rng.uniform(-0.3, 0.3, 3)
            got = sample_initial_error(np.random.default_rng(seed), tcfg)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(n_trials=0)
        with pytest.raises(ValueError):
            TrialConfig(n_trials=1, vel_range=-0.1)


class TestRunTrial:
    def test_same_seed_reproduces_bitwise(self):
        records = short_stream()
        noise = NoiseParams(jump_pos_var=1e-6)
        tcfg = TrialConfig(n_trials=1)
        a = run_trial(records, tcfg, noise, VARIANTS, offset(77, tcfg))
        b = run_trial(records, tcfg, noise, VARIANTS, offset(77, tcfg))
        assert a.shape == (len(VARIANTS), 241, len(METRIC_NAMES))
        assert np.array_equal(a, b)
        c = run_trial(records, tcfg, noise, VARIANTS, offset(78, tcfg))
        prop = VARIANTS.index(Variant.PROPOSED)
        assert not np.array_equal(a[prop], c[prop])

    def test_zero_initial_error_zero_noise_stays_keystone_small(self):
        records = short_stream(noise=ZERO)
        tcfg = TrialConfig(n_trials=1, yaw_range_deg=0.0,
                           roll_pitch_range_deg=0.0, vel_range=0.0,
                           pos_range=0.0, foot_range=0.0)
        # nonzero assumed noise, noiseless data, exact start
        noise = NoiseParams()
        rows = run_trial(records, tcfg, noise, VARIANTS, offset(5, tcfg))
        for table in rows:
            for name in ("pos_err", "vel_err", "roll_err", "pitch_err", "yaw_err"):
                assert np.max(table[:, METRIC_NAMES.index(name)]) < 1e-5

    def test_metrics_timestamped_on_truth_grid(self):
        records = short_stream()
        tcfg = TrialConfig(n_trials=1)
        noise = NoiseParams(jump_pos_var=1e-6)
        rows = run_trial(records, tcfg, noise, VARIANTS, offset(1, tcfg))
        t = records.columns["truth"]["t"]
        assert rows.shape[1] == len(t)
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), 0.01, atol=1e-12)

    def test_series_independent_of_truth_block(self, monkeypatch):
        # Metrics are evaluated _TRUTH_BLOCK truth samples at a time: blocks
        # of 1 and 7 samples and the default give bitwise the same series
        # (241 samples: full blocks and a partial one), for a batch of two
        # stacked trials and both variants.
        tcfg = TrialConfig(n_trials=2)
        noise = NoiseParams(jump_pos_var=1e-6)
        stream = synthesize_sensors([generate_truth(SHORT_GAIT, SurfaceConfig(), seed)
                                     for seed in (1, 2)], noise, Rates(), [1, 2])
        xi0 = np.array([offset(3, tcfg), offset(4, tcfg)])
        want = run_trials(stream, tcfg, noise, VARIANTS, xi0)
        assert want.shape == (len(VARIANTS), 2, 241, len(METRIC_NAMES))
        for block in (1, 7):
            monkeypatch.setattr(harness, "_TRUTH_BLOCK", block)
            got = run_trials(stream, tcfg, noise, VARIANTS, xi0)
            assert np.array_equal(got, want)

    def test_imu_runs_across_terms_blocks(self, monkeypatch):
        # With integration terms computed 3 intervals at a time, each run of
        # 4 imu records crosses a block boundary and is longer than a block,
        # so it is propagated as runs of 3 and 1. That changes only the
        # rounding of the covariance step: 1e-10 relative per metric, the
        # bound of the lockstep engine against the scalar oracle.
        tcfg = TrialConfig(n_trials=1)
        noise = NoiseParams(jump_pos_var=1e-6)
        stream = short_stream()
        want = run_trial(stream, tcfg, noise, VARIANTS, offset(5, tcfg))
        monkeypatch.setattr(filter_module, "_TERMS_BLOCK", 3)
        got = run_trial(stream, tcfg, noise, VARIANTS, offset(5, tcfg))
        for a, b in zip(got, want):
            assert np.all(np.abs(a - b).max(axis=0) <= 1e-10 * np.abs(b).max(axis=0))


def per_variant_metric_reductions(t, rows):
    """The bands, initial and final values, one variant and metric at a time."""
    final_mask = t >= t[-1] - harness.FINAL_WINDOW + 1e-9
    out = {}
    for i, j in np.ndindex(rows.shape[0], rows.shape[3]):
        vals = rows[i, :, :, j]
        out[i, j] = (np.percentile(vals, PERCENTILES, axis=0), vals[:, 0],
                     np.median(vals[:, final_mask], axis=1))
    return out


class TestAggregation:
    def test_single_trial_percentiles_equal_the_trial(self):
        records = short_stream()
        tcfg = TrialConfig(n_trials=1)
        noise = NoiseParams(jump_pos_var=1e-6)
        rows = run_trial(records, tcfg, noise, VARIANTS, offset(3, tcfg))
        report = aggregate(records.columns["truth"]["t"], rows[:, None])
        assert report.bands.shape == (3,) + rows.shape
        for i in range(len(VARIANTS)):
            for j in range(len(METRIC_NAMES)):
                band = report.bands[:, i, :, j]
                col = rows[i, :, j]
                assert np.allclose(band[0], col)
                assert np.allclose(band[1], col)
                assert np.allclose(band[2], col)

    def test_constant_series_aggregates_to_constant(self):
        rows = np.full((len(VARIANTS), 7, 11, len(METRIC_NAMES)), 3.25)
        report = aggregate(np.arange(11.0), rows)
        assert np.all(report.bands == 3.25)
        assert np.all(report.initial == 3.25)
        assert np.all(report.final == 3.25)

    def test_percentiles_match_sort_oracle(self, rng):
        rows = rng.standard_normal((len(VARIANTS), 101, 13, len(METRIC_NAMES)))
        band = aggregate(np.arange(13.0), rows).bands
        # independent sort-and-interpolate implementation
        for i, col, j in np.ndindex(rows.shape[0], rows.shape[2], rows.shape[3]):
            data = np.sort(rows[i, :, col, j])
            n = len(data)
            for row, q in zip(range(3), (0.10, 0.50, 0.90)):
                pos = q * (n - 1)
                lo = int(np.floor(pos))
                hi = min(lo + 1, n - 1)
                frac = pos - lo
                oracle = data[lo] * (1 - frac) + data[hi] * frac
                assert band[row, i, col, j] == pytest.approx(oracle, rel=1e-12)

    def test_equals_per_variant_metric_reductions(self, rng):
        # One percentile and one median call over the whole table give the
        # bits of one call per variant and metric, for odd and even trial
        # counts and a final window that is not a whole number of samples.
        t = np.arange(0.0, 12.01, 0.01)
        for n in (1, 2, 7):
            rows = rng.standard_normal((len(VARIANTS), n, len(t), len(METRIC_NAMES)))
            report = aggregate(t, rows)
            for (i, j), (band, initial, final) in per_variant_metric_reductions(
                    t, rows).items():
                assert report.bands[:, i, :, j].tobytes() == band.tobytes()
                assert report.initial[i, :, j].tobytes() == initial.tobytes()
                assert report.final[i, :, j].tobytes() == final.tobytes()

    def test_trial_order_does_not_change_aggregate(self, rng):
        records = short_stream()
        tcfg = TrialConfig(n_trials=1)
        noise = NoiseParams(jump_pos_var=1e-6)
        rows = np.stack([run_trial(records, tcfg, noise, VARIANTS, offset(s, tcfg))
                         for s in (1, 2, 3, 4, 5)], axis=1)
        t = records.columns["truth"]["t"]
        fwd = aggregate(t, rows)
        rev = aggregate(t, rows[:, ::-1])
        assert np.array_equal(fwd.bands, rev.bands)
        assert np.array_equal(np.sort(fwd.final, axis=1), np.sort(rev.final, axis=1))


class TestYawConvergenceReferenceRun:
    def test_thirty_degree_yaw_error_shrinks_tenfold(self):
        # Reference-run check, threshold frozen: a pure 30 deg initial yaw
        # error on the rocking surface ends at least 10x smaller under the
        # proposed filter within 12 s.
        gait = GaitConfig(duration=12.0)
        noise = NoiseParams(jump_pos_var=1e-6)
        records = stream_records(one_stream(
            generate_truth(gait, SurfaceConfig(), 21), noise, Rates(), 21))
        first = next(r for r in records if isinstance(r, TruthSample))
        xi0 = np.zeros(12)
        xi0[2] = np.radians(30.0)
        mean0 = compose(sek3_exp(xi0), first.element)
        est = StreamEstimator(
            State(mean0, initial_covariance(TrialConfig())), noise, (Variant.PROPOSED,))
        last = None
        for rec in records:
            if not isinstance(rec, TruthSample):
                est.step(routed(rec, est.noise))
            else:
                last = rec
        final_yaw = metric_rows(est.state.mean, est.state.cov,
                                last.element)[METRIC_NAMES.index("yaw_err")]
        assert final_yaw <= 3.0, final_yaw


class TestLockstepEngine:
    def test_matches_scalar_oracle(self):
        # Both variants run in one batch; each must match the scalar
        # record-by-record fold within 1e-10 relative per metric value.
        noise = NoiseParams(jump_pos_var=1e-6)
        stream = one_stream(generate_truth(GaitConfig(duration=6.0), SurfaceConfig(), 4),
                            noise, Rates(), 4)
        tcfg = TrialConfig(n_trials=1)
        xi0 = offset(13, tcfg)
        rows = run_trial(stream, tcfg, noise, VARIANTS, xi0)
        records = stream_records(stream)
        first = next(r for r in records if isinstance(r, TruthSample))
        mean0 = compose(sek3_exp(xi0), first.element)
        for variant, got in zip(VARIANTS, rows):
            want = oracle_metric_rows(
                records, mean0, initial_covariance(tcfg), noise,
                variant is Variant.PROPOSED, EPSILON)
            assert got.shape == want.shape == (601, len(METRIC_NAMES))
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= 1e-10, (variant, err.max())


# A noise variance within its config bounds: zero, or up to 100x the default.
VARIANCE = st.one_of(st.just(0.0), st.floats(1e-8, 1e-2))


def run_recorded(noise, pitch, belt, imu_ticks, seed):
    """run_trial of both variants on a scenario: the rows and the final covariance."""
    estimators = []

    class Recording(StreamEstimator):
        def __init__(self, *args):
            super().__init__(*args)
            estimators.append(self)

    gait = GaitConfig(duration=imu_ticks / Rates().imu_hz)
    surface = SurfaceConfig(pitch_amplitude=pitch, belt_speed=belt)
    stream = one_stream(generate_truth(gait, surface, seed), noise, Rates(), seed)
    tcfg = TrialConfig(n_trials=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "StreamEstimator", Recording)
        rows = run_trial(stream, tcfg, noise, VARIANTS, offset(seed, tcfg))
    assert rows.shape == (len(VARIANTS), len(stream.columns["truth"]["t"]),
                          len(METRIC_NAMES))
    return rows, estimators[0].state.cov


def assert_finite_and_psd(rows, cov):
    assert np.all(np.isfinite(rows))
    assert cov.shape == (len(VARIANTS), 12, 12)
    assert np.array_equal(cov, np.swapaxes(cov, -1, -2))
    eig = np.linalg.eigvalsh(cov)
    assert np.all(eig[:, 0] >= -1e-12 * eig[:, -1])


# The fuzz test draws its 25 examples from this seed. `derandomize` would
# derive one from the test method's source, decorators included, so any
# change to its settings would draw other examples; pinned, the draw stays.
FUZZ_SEED = int("f7e00d31841b5dc97641602f8d546d90f140cb3ed89cf7c9"
                "4985c847b3c0a7812b3dda8babe9db1acdbd84c7e3edcd4d", 16)


class TestEstimatorFuzz:
    # Valid scenarios of 1.2-2.4 s, sensors and filter on the same noise:
    # both variants keep every metric finite and end on a symmetric
    # covariance with no eigenvalue below rounding, exact measurements
    # (a variance of 0) included.
    # No shrink phase: a broken filter fails many examples, and shrinking them
    # took minutes; the failing example is printed either way. The explicit
    # example is one this seed draws when run for 60 examples: with exact
    # measurements (variance 0) and no models.VAR_FLOOR it fails, which
    # none of the 25 draws kept here does.
    @seed(FUZZ_SEED)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(seed=st.integers(0, 2**32 - 1),
           noise=st.builds(NoiseParams, VARIANCE, VARIANCE, VARIANCE,
                           VARIANCE, VARIANCE, VARIANCE),
           pitch=st.floats(0.0, 0.3), belt=st.floats(-1.0, 1.0),
           imu_ticks=st.integers(480, 960))
    @example(seed=480, noise=NoiseParams(0.005136795917146895, 0.0, 0.0, 0.0, 0.0, 0.0),
             pitch=0.005744148388516935, belt=0.6946720469707546, imu_ticks=480)
    def test_metrics_finite_and_covariance_psd(self, seed, noise, pitch, belt, imu_ticks):
        assert_finite_and_psd(*run_recorded(noise, pitch, belt, imu_ticks, seed))

    def test_exact_foot_positions_keep_the_covariance_psd(self):
        # The smallest case the fuzz test found with fk_pos_var = 0 allowed.
        noise = NoiseParams(0.0078125, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert_finite_and_psd(*run_recorded(noise, 0.0, 1.0, 480, 0))

    def test_exact_measurements_on_a_rocking_surface_keep_the_covariance_psd(self):
        # The case above on the default rocking surface (pitch amplitude 3
        # deg). Without models.VAR_FLOOR both cases went indefinite.
        noise = NoiseParams(0.0078125, 0.0, 0.0, 0.0, 0.0, 0.0)
        rows, cov = run_recorded(noise, math.radians(3.0), 1.0, 480, 0)
        assert_finite_and_psd(rows, cov)
        assert np.linalg.eigvalsh(cov).min() >= 0.0


class TestMonteCarlo:
    def test_parallel_equals_serial(self):
        # Trials are split into 1, 2 or 3 chunks, so each runs in batches of
        # different sizes and at different positions: every series and band
        # must be bitwise the same.
        tcfg = TrialConfig(n_trials=3, master_seed=9)
        noise = NoiseParams(jump_pos_var=1e-6)
        serial, serial_rows = one_campaign(tcfg, SurfaceConfig(), noise, jobs=1)
        assert serial_rows.shape == (len(VARIANTS), 3, 241, len(METRIC_NAMES))
        for jobs in (2, 3):
            parallel, rows = one_campaign(tcfg, SurfaceConfig(), noise, jobs=jobs)
            assert np.array_equal(serial.bands, parallel.bands)
            assert np.array_equal(serial.t, parallel.t)
            assert rows.shape == serial_rows.shape
            assert np.array_equal(serial_rows, rows)

    def test_campaigns_run_together_equal_apart(self):
        tcfg = TrialConfig(n_trials=2, master_seed=4)
        noise = NoiseParams(jump_pos_var=1e-6)
        surfaces = [SurfaceConfig(), SurfaceConfig(pitch_amplitude=0.0)]
        together = campaigns(tcfg, SHORT_GAIT, surfaces, noise, Rates())
        for surface, (_, rows) in zip(surfaces, together):
            _, apart = one_campaign(tcfg, surface, noise)
            assert rows.shape == apart.shape == (len(VARIANTS), 2, 241, len(METRIC_NAMES))
            assert np.array_equal(rows, apart)

    def test_gate_evaluation_structure(self):
        tcfg = TrialConfig(n_trials=2, master_seed=4)
        noise = NoiseParams(jump_pos_var=1e-6)
        rocking, _ = one_campaign(tcfg, SurfaceConfig(), noise)
        static, _ = one_campaign(tcfg, SurfaceConfig(pitch_amplitude=0.0), noise)
        gates = evaluate_gates(rocking, static)
        names = [g.name for g in gates]
        assert any("yaw-observability" in n for n in names)
        assert any("yaw non-convergence" in n for n in names)
        assert sum(1 for g in gates if not g.gating) == 1

    def test_csv_outputs(self, tmp_path):
        tcfg = TrialConfig(n_trials=2, master_seed=4)
        noise = NoiseParams(jump_pos_var=1e-6)
        report, rows = one_campaign(tcfg, SurfaceConfig(), noise)
        agg = tmp_path / "aggregate.csv"
        write_aggregate_csv(agg, report)
        header = agg.read_text().splitlines()[0]
        assert header == "t,variant,metric,p10,p50,p90"
        trial = tmp_path / "trial.csv"
        write_trial_csv(trial, report.t, VARIANTS, rows[:, 0])
        header = trial.read_text().splitlines()[0]
        assert header == "t,variant," + ",".join(METRIC_NAMES)


# Values whose printed form is easy to get wrong: signed zero, the smallest
# and largest magnitudes, all nine significant digits, halves, infinities.
EDGE = [-0.0, 1e-300, 123456789.5, 0.123456789, 9.87654321e-7, -2.5e-7,
        1.5, 2.675, -0.004999, 999999999.5, float("inf"), -float("inf")]
# Times that round at the sixth decimal.
EDGE_T = np.array([0.0, 0.0000005, 2.6750005, 0.0000015, 1e-300, 123456.7890125])


def reference_trial_lines(t, variants, rows):
    """The trial CSV formatted one row at a time."""
    row = "%.6f,%s" + ",%.9g" * len(METRIC_NAMES) + "\r\n"
    lines = ["t,variant," + ",".join(METRIC_NAMES) + "\r\n"]
    for variant, table in zip(variants, rows):
        lines += [row % (ti, variant.value, *values) for ti, values in
                  zip(t.tolist(), table.tolist())]
    return lines


def reference_aggregate_lines(report, names):
    """The aggregate CSV of metrics `names` formatted one row at a time."""
    row = "%.6f,%s,%s,%.9g,%.9g,%.9g\r\n"
    lines = ["t,variant,metric,p10,p50,p90\r\n"]
    for i, variant in enumerate(VARIANTS):
        for j, metric in enumerate(names):
            lines += [row % (ti, variant.value, metric, *b) for ti, b in
                      zip(report.t.tolist(), report.bands[:, i, :, j].T.tolist())]
    return lines


def reference_points(xs, ys):
    """SVG points formatted one point at a time."""
    return [f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys)]


def edge_table(shape, shift):
    return np.resize(np.roll(EDGE, shift), shape)


class TestOutputFormat:
    """Every byte the writers emit, against row-by-row formatting."""

    def test_trial_csv_lines(self, tmp_path):
        shape = (len(EDGE_T), len(METRIC_NAMES))
        rows = np.stack([edge_table(shape, i) for i in range(len(VARIANTS))])
        path = tmp_path / "trial.csv"
        write_trial_csv(path, EDGE_T, VARIANTS, rows)
        with open(path, newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert lines == reference_trial_lines(EDGE_T, VARIANTS, rows)
        assert len(lines) == 1 + len(VARIANTS) * len(EDGE_T)

    def test_aggregate_csv_lines(self, tmp_path, monkeypatch):
        # A `%` in a label must reach the file as it is.
        names = (*METRIC_NAMES, "share%d")
        monkeypatch.setattr(harness, "METRIC_NAMES", names)
        bands = np.empty((3, len(VARIANTS), len(EDGE_T), len(names)))
        for i, j in np.ndindex(len(VARIANTS), len(names)):
            bands[:, i, :, j] = edge_table((3, len(EDGE_T)), 3 * i + j)
        trials = np.zeros((len(VARIANTS), 3, len(names)))
        report = AggregateReport(EDGE_T, bands, trials, trials)
        path = tmp_path / "aggregate.csv"
        write_aggregate_csv(path, report)
        with open(path, newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert lines == reference_aggregate_lines(report, names)
        assert len(lines) == 1 + len(VARIANTS) * len(names) * len(EDGE_T)

    def test_svg_points(self):
        xs = np.array([62.0, 62.004999, 2.675, 1e-300, 578.125, 123456789.555])
        lo = np.array([-0.001, 0.005, 1.005, -0.0, 354.0, float("inf")])
        hi = lo + np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        pts = reference_points(xs, lo[::-1])
        assert plots._polyline(xs, lo[::-1], "#1f77b4") == (
            '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>')
        pts = reference_points(xs, lo) + reference_points(xs[::-1], hi[::-1])
        assert plots._band(xs, lo, hi, "#d62728") == (
            '<polygon fill="#d62728" fill-opacity="0.18" stroke="none" '
            f'points="{" ".join(pts)}"/>')
