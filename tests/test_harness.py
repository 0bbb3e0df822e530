import numpy as np
import pytest

from drs_inekf import filter as filter_module
from drs_inekf import harness
from drs_inekf.filter import FilterConfig, UpdateSchedule, Variant
from drs_inekf.harness import (
    METRIC_NAMES,
    TrialConfig,
    aggregate,
    campaigns,
    evaluate_gates,
    initial_covariance,
    nees,
    percentile_bands,
    run_trial,
    run_trials,
    sample_initial_error,
    write_aggregate_csv,
    write_trial_csv,
)
from drs_inekf.liegroup import compose, sek3_exp
from drs_inekf.models import NoiseParams
from drs_inekf.sim import GaitConfig, Rates, SurfaceConfig, generate_truth, synthesize_sensors
from drs_inekf.streams import TRUTH, Stream, TruthSample

from conftest import oracle_metric_rows, stream_records

SHORT_GAIT = GaitConfig(duration=2.4)
ZERO = NoiseParams.from_scalars(0, 0, 0, 0, 0, 0)


def offset(seed, tcfg):
    """The initial-error offset a trial with this seed starts from."""
    return sample_initial_error(np.random.default_rng(seed), tcfg)


def one_campaign(tcfg, surface, noise, jobs=1):
    return campaigns(tcfg, SHORT_GAIT, [surface], FilterConfig(noise=noise), Rates(),
                     jobs=jobs)[0]


def short_stream(seed=1, noise=None, surface=None):
    noise = noise or NoiseParams.from_scalars(jump_pos_var=1e-6)
    surface = surface or SurfaceConfig()
    return synthesize_sensors(generate_truth(SHORT_GAIT, surface, seed),
                              noise, Rates(), seed)


class TestNees:
    def test_zero_error(self):
        assert nees(np.zeros(12), np.eye(12)) == 0.0

    def test_unit_vector_identity_cov(self):
        xi = np.zeros(12)
        xi[4] = 1.0
        assert nees(xi, np.eye(12), 0.0) == pytest.approx(1.0, rel=1e-12)
        assert nees(xi, np.eye(12)) == pytest.approx(1.0, rel=1e-8)

    def test_matches_solve_oracle(self, rng):
        for _ in range(50):
            a = rng.standard_normal((12, 12))
            cov = a @ a.T + 0.5 * np.eye(12)
            xi = rng.standard_normal(12)
            oracle = float(xi @ np.linalg.inv(cov + 1e-9 * np.eye(12)) @ xi)
            assert nees(xi, cov) == pytest.approx(oracle, rel=1e-9)

    def test_singular_covariance_raises(self):
        xi = np.ones(12)
        bad = np.full((12, 12), np.nan)
        with pytest.raises(ValueError):
            nees(xi, bad, 0.0)


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

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(n_trials=0)
        with pytest.raises(ValueError):
            TrialConfig(n_trials=1, vel_range=-0.1)


class TestRunTrial:
    def test_same_seed_reproduces_bitwise(self):
        records = short_stream()
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        tcfg = TrialConfig(n_trials=1)
        cfg = FilterConfig(noise=noise)
        a = run_trial(records, tcfg, cfg, tcfg.variants, offset(77, tcfg))
        b = run_trial(records, tcfg, cfg, tcfg.variants, offset(77, tcfg))
        for v in tcfg.variants:
            assert np.array_equal(a.series[v].values, b.series[v].values)
        c = run_trial(records, tcfg, cfg, tcfg.variants, offset(78, tcfg))
        assert not np.array_equal(a.series[Variant.PROPOSED].values,
                                  c.series[Variant.PROPOSED].values)

    def test_zero_initial_error_zero_noise_stays_keystone_small(self):
        records = short_stream(noise=ZERO)
        tcfg = TrialConfig(n_trials=1, yaw_range_deg=0.0,
                           roll_pitch_range_deg=0.0, vel_range=0.0,
                           pos_range=0.0, foot_range=0.0)
        # nonzero assumed noise, noiseless data, exact start
        noise = NoiseParams.from_scalars()
        result = run_trial(records, tcfg, FilterConfig(noise=noise), tcfg.variants,
                           offset(5, tcfg))
        for v in tcfg.variants:
            series = result.series[v]
            for name in ("pos_err", "vel_err", "roll_err", "pitch_err", "yaw_err"):
                assert np.max(series.values[:, METRIC_NAMES.index(name)]) < 1e-5

    def test_metrics_timestamped_on_truth_grid(self):
        records = short_stream()
        tcfg = TrialConfig(n_trials=1)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        result = run_trial(records, tcfg, FilterConfig(noise=noise), tcfg.variants,
                           offset(1, tcfg))
        t = result.series[Variant.PROPOSED].t
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), 0.01, atol=1e-12)

    def test_series_independent_of_truth_block(self, monkeypatch):
        # Metrics are evaluated _TRUTH_BLOCK truth samples at a time: blocks
        # of 1 and 7 samples and the default give bitwise the same series
        # (241 samples: full blocks and a partial one), for a batch of two
        # stacked trials and both variants.
        tcfg = TrialConfig(n_trials=2)
        cfg = FilterConfig(noise=NoiseParams.from_scalars(jump_pos_var=1e-6))
        stream = Stream.stack((short_stream(seed) for seed in (1, 2)), 2)
        xi0 = np.array([offset(3, tcfg), offset(4, tcfg)])
        want = run_trials(stream, tcfg, cfg, tcfg.variants, xi0, [0, 1])
        for block in (1, 7):
            monkeypatch.setattr(harness, "_TRUTH_BLOCK", block)
            got = run_trials(stream, tcfg, cfg, tcfg.variants, xi0, [0, 1])
            for a, b in zip(got, want):
                for v in tcfg.variants:
                    assert np.array_equal(a.series[v].values, b.series[v].values)

    def test_imu_runs_across_terms_blocks(self, monkeypatch):
        # With integration terms computed 3 intervals at a time, each run of
        # 4 imu records crosses a block boundary and is longer than a block,
        # so it is propagated as runs of 3 and 1. That changes only the
        # rounding of the covariance step: 1e-10 relative per metric, the
        # bound of the lockstep engine against the scalar oracle.
        tcfg = TrialConfig(n_trials=1)
        cfg = FilterConfig(noise=NoiseParams.from_scalars(jump_pos_var=1e-6))
        stream = short_stream()
        want = run_trial(stream, tcfg, cfg, tcfg.variants, offset(5, tcfg))
        monkeypatch.setattr(filter_module, "_TERMS_BLOCK", 3)
        got = run_trial(stream, tcfg, cfg, tcfg.variants, offset(5, tcfg))
        for v in tcfg.variants:
            a, b = got.series[v].values, want.series[v].values
            assert np.all(np.abs(a - b).max(axis=0) <= 1e-10 * np.abs(b).max(axis=0))

    def test_stream_without_truth_rejected(self):
        stream = short_stream()
        truth = stream.columns["truth"]
        no_truth = {name: col[:0] for name, col in truth.items()}
        records = Stream(stream.kinds[stream.kinds != TRUTH],
                         {**stream.columns, "truth": no_truth})
        tcfg = TrialConfig(n_trials=1)
        noise = NoiseParams.from_scalars()
        with pytest.raises(ValueError, match="truth"):
            run_trial(records, tcfg, FilterConfig(noise=noise), (Variant.PROPOSED,),
                      offset(1, tcfg))


class TestAggregation:
    def test_single_trial_percentiles_equal_the_trial(self):
        records = short_stream()
        tcfg = TrialConfig(n_trials=1)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        result = run_trial(records, tcfg, FilterConfig(noise=noise), tcfg.variants,
                           offset(3, tcfg))
        report = aggregate([result])
        for v in tcfg.variants:
            for j, name in enumerate(METRIC_NAMES):
                band = report.bands[v][name]
                col = result.series[v].values[:, j]
                assert np.allclose(band[0], col)
                assert np.allclose(band[1], col)
                assert np.allclose(band[2], col)

    def test_constant_series_aggregates_to_constant(self):
        vals = np.full((7, 11), 3.25)
        band = percentile_bands(vals)
        assert np.all(band == 3.25)

    def test_percentiles_match_sort_oracle(self, rng):
        vals = rng.standard_normal((101, 13))
        band = percentile_bands(vals)
        # independent sort-and-interpolate implementation
        for col in range(vals.shape[1]):
            data = np.sort(vals[:, col])
            n = len(data)
            for row, q in zip(range(3), (0.10, 0.50, 0.90)):
                pos = q * (n - 1)
                lo = int(np.floor(pos))
                hi = min(lo + 1, n - 1)
                frac = pos - lo
                oracle = data[lo] * (1 - frac) + data[hi] * frac
                assert band[row, col] == pytest.approx(oracle, rel=1e-12)

    def test_trial_order_does_not_change_aggregate(self, rng):
        records = short_stream()
        tcfg = TrialConfig(n_trials=1)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        cfg = FilterConfig(noise=noise)
        results = [run_trial(records, tcfg, cfg, tcfg.variants, offset(s, tcfg), i)
                   for i, s in enumerate((1, 2, 3, 4, 5))]
        fwd = aggregate(results)
        rev = aggregate(results[::-1])
        for v in tcfg.variants:
            for name in METRIC_NAMES:
                assert np.array_equal(fwd.bands[v][name], rev.bands[v][name])
                assert np.array_equal(np.sort(fwd.final[v][name]),
                                      np.sort(rev.final[v][name]))


class TestYawConvergenceReferenceRun:
    def test_thirty_degree_yaw_error_shrinks_tenfold(self):
        # Reference-run check, threshold frozen: a pure 30 deg initial yaw
        # error on the rocking surface ends at least 10x smaller under the
        # proposed filter within 12 s.
        import numpy as np

        from drs_inekf.filter import State, StreamEstimator, error_vs_truth
        from drs_inekf.liegroup import compose, sek3_exp

        gait = GaitConfig(duration=12.0)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        records = stream_records(synthesize_sensors(
            generate_truth(gait, SurfaceConfig(), 21), noise, Rates(), 21))
        first = next(r for r in records if isinstance(r, TruthSample))
        xi0 = np.zeros(12)
        xi0[2] = np.radians(30.0)
        mean0 = compose(sek3_exp(xi0), first.element)
        est = StreamEstimator(
            State(mean0, initial_covariance(TrialConfig())),
            FilterConfig(noise=noise), (Variant.PROPOSED,))
        last = None
        for rec in records:
            if not isinstance(rec, TruthSample):
                est.step(rec)
            else:
                last = rec
        final_yaw = abs(error_vs_truth(est.state, last.element).yaw_deg)
        assert final_yaw <= 3.0, final_yaw


class TestLockstepEngine:
    @pytest.mark.parametrize("schedule", list(UpdateSchedule))
    def test_matches_scalar_oracle(self, schedule):
        # Both variants run in one batch; each must match the scalar
        # record-by-record fold within 1e-10 relative per metric value.
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        stream = synthesize_sensors(generate_truth(GaitConfig(duration=6.0),
                                                   SurfaceConfig(), 4),
                                    noise, Rates(), 4)
        tcfg = TrialConfig(n_trials=1)
        cfg = FilterConfig(noise=noise, update_schedule=schedule)
        xi0 = offset(13, tcfg)
        result = run_trial(stream, tcfg, cfg, tcfg.variants, xi0)
        records = stream_records(stream)
        first = next(r for r in records if isinstance(r, TruthSample))
        mean0 = compose(sek3_exp(xi0), first.element)
        for variant in tcfg.variants:
            want = oracle_metric_rows(
                records, mean0, initial_covariance(tcfg), noise,
                variant is Variant.PROPOSED,
                schedule is UpdateSchedule.ON_CONTACT_ONLY, cfg.epsilon)
            got = result.series[variant].values
            assert got.shape == want.shape == (601, len(METRIC_NAMES))
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= 1e-10, (variant, err.max())


class TestMonteCarlo:
    def test_parallel_equals_serial(self):
        # Trials are split into 1, 2 or 3 chunks, so each runs in batches of
        # different sizes and at different positions: every series and band
        # must be bitwise the same.
        tcfg = TrialConfig(n_trials=3, master_seed=9)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        serial, serial_results = one_campaign(tcfg, SurfaceConfig(), noise, jobs=1)
        for jobs in (2, 3):
            parallel, results = one_campaign(tcfg, SurfaceConfig(), noise, jobs=jobs)
            for v in serial.bands:
                for name in METRIC_NAMES:
                    assert np.array_equal(serial.bands[v][name],
                                          parallel.bands[v][name])
            assert [r.trial for r in results] == [0, 1, 2]
            for a, b in zip(serial_results, results):
                for v in tcfg.variants:
                    assert np.array_equal(a.series[v].t, b.series[v].t)
                    assert np.array_equal(a.series[v].values, b.series[v].values)

    def test_campaigns_run_together_equal_apart(self):
        tcfg = TrialConfig(n_trials=2, master_seed=4)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        surfaces = [SurfaceConfig(), SurfaceConfig(pitch_amplitude=0.0)]
        together = campaigns(tcfg, SHORT_GAIT, surfaces, FilterConfig(noise=noise),
                             Rates())
        for surface, (_, results) in zip(surfaces, together):
            _, apart = one_campaign(tcfg, surface, noise)
            for a, b in zip(results, apart):
                for v in tcfg.variants:
                    assert np.array_equal(a.series[v].values, b.series[v].values)

    def test_gate_evaluation_structure(self):
        tcfg = TrialConfig(n_trials=2, master_seed=4)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        rocking, _ = one_campaign(tcfg, SurfaceConfig(), noise)
        static, _ = one_campaign(tcfg, SurfaceConfig(pitch_amplitude=0.0), noise)
        gates = evaluate_gates(rocking, static)
        names = [g.name for g in gates]
        assert any("yaw-observability" in n for n in names)
        assert any("yaw non-convergence" in n for n in names)
        assert sum(1 for g in gates if not g.gating) == 1

    def test_csv_outputs(self, tmp_path):
        tcfg = TrialConfig(n_trials=2, master_seed=4)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        report, results = one_campaign(tcfg, SurfaceConfig(), noise)
        agg = tmp_path / "aggregate.csv"
        write_aggregate_csv(agg, report)
        header = agg.read_text().splitlines()[0]
        assert header == "t,variant,metric,p10,p50,p90"
        trial = tmp_path / "trial.csv"
        write_trial_csv(trial, results[0])
        header = trial.read_text().splitlines()[0]
        assert header == "t,variant," + ",".join(METRIC_NAMES)
