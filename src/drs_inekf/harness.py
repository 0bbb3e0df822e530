"""Monte Carlo experiment runner and evaluation metrics.

Each trial perturbs the true initial state by a sampled tangent offset,
runs every filter variant over the same sensor stream, and records
estimate-vs-truth metrics on the truth-sample grid. Aggregation reduces
the trial axis to percentile bands and summary statistics used by the
pass/fail gates (yaw observability dichotomy, roll/pitch/velocity
convergence).
"""

from __future__ import annotations

import csv
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .filter import (
    FilterConfig,
    State,
    StreamEstimator,
    UpdateSchedule,
    Variant,
    error_vs_truth,
)
from .liegroup import XI_D, XI_P, XI_V, compose, sek3_exp
from .models import NoiseParams, check_fields, param
from .sim import GaitConfig, Rates, SurfaceConfig, generate_truth, synthesize_sensors
from .streams import StreamRecord, TruthSample

METRIC_NAMES = ("pos_err", "vel_err", "roll_err", "pitch_err", "yaw_err", "nees")

# Metrics gated by the convergence checks; yaw is handled separately by
# the observability dichotomy.
CONVERGENCE_METRICS = ("roll_err", "pitch_err", "vel_err")


@dataclass(frozen=True)
class TrialConfig:
    """Initial-error sampling ranges (uniform, per block) and trial count.

    static_control asks the CLI's montecarlo command for a second campaign
    on a level, static surface whenever the configured one rocks.
    """

    n_trials: int = param(100, lo=1)
    yaw_range_deg: float = param(30.0, lo=0.0)
    roll_pitch_range_deg: float = param(10.0, lo=0.0)
    vel_range: float = param(0.5, lo=0.0)
    pos_range: float = param(0.5, lo=0.0)
    foot_range: float = param(0.5, lo=0.0)
    static_control: bool = param(True)
    master_seed: int = 0
    variants: tuple[Variant, ...] = (Variant.PROPOSED, Variant.POSITION_ONLY)

    def __post_init__(self):
        check_fields(self)


def sample_initial_error(rng: np.random.Generator, tcfg: TrialConfig) -> np.ndarray:
    """Draw the tangent perturbation applied as exp(xi0) @ X_true."""
    xi = np.zeros(12)
    rp = math.radians(tcfg.roll_pitch_range_deg)
    xi[0] = rng.uniform(-rp, rp)
    xi[1] = rng.uniform(-rp, rp)
    xi[2] = rng.uniform(-math.radians(tcfg.yaw_range_deg),
                        math.radians(tcfg.yaw_range_deg))
    xi[XI_V] = rng.uniform(-tcfg.vel_range, tcfg.vel_range, 3)
    xi[XI_P] = rng.uniform(-tcfg.pos_range, tcfg.pos_range, 3)
    xi[XI_D] = rng.uniform(-tcfg.foot_range, tcfg.foot_range, 3)
    return xi


def initial_covariance(tcfg: TrialConfig) -> np.ndarray:
    """Diagonal covariance matching the uniform sampling ranges (var = a^2/3)."""
    p = np.zeros((12, 12))
    rp = math.radians(tcfg.roll_pitch_range_deg) ** 2 / 3.0
    p[0, 0] = p[1, 1] = rp
    p[2, 2] = math.radians(tcfg.yaw_range_deg) ** 2 / 3.0
    p[XI_V, XI_V] = np.eye(3) * tcfg.vel_range ** 2 / 3.0
    p[XI_P, XI_P] = np.eye(3) * tcfg.pos_range ** 2 / 3.0
    p[XI_D, XI_D] = np.eye(3) * tcfg.foot_range ** 2 / 3.0
    return p


def nees(xi: np.ndarray, cov: np.ndarray,
         epsilon: float = FilterConfig.epsilon) -> float:
    """Normalized estimation error squared xi^T cov^-1 xi (regularized)."""
    try:
        sol = np.linalg.solve(cov + epsilon * np.eye(len(xi)), xi)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular covariance in nees: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise ValueError("singular covariance in nees")
    return float(xi @ sol)


@dataclass
class MetricSeries:
    """Per-variant trial output: one row per truth sample."""

    t: np.ndarray          # (T,)
    values: np.ndarray     # (T, len(METRIC_NAMES))

    def column(self, name: str) -> np.ndarray:
        return self.values[:, METRIC_NAMES.index(name)]


@dataclass
class TrialResult:
    trial: int
    series: dict[Variant, MetricSeries]


def metric_series(records: list[StreamRecord],
                  est: StreamEstimator) -> MetricSeries:
    """Fold a stream through `est`; one metric row per truth sample.

    Truth precedes the updates at its timestamp, so each row holds the
    prior error there.
    """
    n = sum(isinstance(r, TruthSample) for r in records)
    rows = np.empty((n, len(METRIC_NAMES)))
    times = np.empty(n)
    i = 0
    for rec in records:
        est.step(rec)
        if isinstance(rec, TruthSample):
            m = error_vs_truth(est.state, rec.element)
            rows[i] = (m.pos_err, m.vel_err, abs(m.roll_deg), abs(m.pitch_deg),
                       abs(m.yaw_deg), nees(m.xi, est.state.cov, est.cfg.epsilon))
            times[i] = rec.t
            i += 1
    return MetricSeries(times, rows)


def run_trial(records: list[StreamRecord], tcfg: TrialConfig,
              configs: dict[Variant, FilterConfig],
              trial_seed: int, trial_index: int = 0) -> TrialResult:
    """Run every variant over one stream from a common perturbed start."""
    rng = np.random.default_rng(trial_seed)
    xi0 = sample_initial_error(rng, tcfg)
    first = next((r for r in records if isinstance(r, TruthSample)), None)
    if first is None:
        raise ValueError("stream contains no truth samples")
    p0 = initial_covariance(tcfg)
    mean0 = compose(sek3_exp(xi0), first.element)

    series: dict[Variant, MetricSeries] = {}
    for variant, cfg in configs.items():
        est = StreamEstimator(State(mean0, p0.copy(), first.t, first.stance), cfg)
        try:
            series[variant] = metric_series(records, est)
        except Exception as exc:
            raise RuntimeError(
                f"trial {trial_index} (seed {trial_seed}, variant "
                f"{variant.value}) failed: {exc}") from exc
    return TrialResult(trial_index, series)


@dataclass
class AggregateReport:
    """Percentile bands plus the per-trial summaries the gates consume."""

    t: np.ndarray
    bands: dict[Variant, dict[str, np.ndarray]]       # metric -> (3, T) p10/p50/p90
    initial: dict[Variant, dict[str, np.ndarray]]     # metric -> (n_trials,)
    final: dict[Variant, dict[str, np.ndarray]]       # metric -> (n_trials,)
    final_window: float
    n_trials: int


def percentile_bands(values: np.ndarray,
                     qs: tuple[float, ...] = (10.0, 50.0, 90.0)) -> np.ndarray:
    """Percentiles across the trial axis; values is (n_trials, T)."""
    return np.percentile(values, qs, axis=0)


def aggregate(results: list[TrialResult],
              final_window: float = 5.0) -> AggregateReport:
    t = results[0].series[next(iter(results[0].series))].t
    variants = list(results[0].series.keys())
    final_mask = t >= t[-1] - final_window + 1e-9
    bands: dict[Variant, dict[str, np.ndarray]] = {}
    initial: dict[Variant, dict[str, np.ndarray]] = {}
    final: dict[Variant, dict[str, np.ndarray]] = {}
    for variant in variants:
        stacked = np.stack([r.series[variant].values for r in results])  # (n, T, m)
        bands[variant] = {}
        initial[variant] = {}
        final[variant] = {}
        for j, name in enumerate(METRIC_NAMES):
            vals = stacked[:, :, j]
            bands[variant][name] = percentile_bands(vals)
            initial[variant][name] = vals[:, 0].copy()
            final[variant][name] = np.median(vals[:, final_mask], axis=1)
    return AggregateReport(t, bands, initial, final, final_window, len(results))


def _trial_worker(args) -> TrialResult:
    (index, stream_seed, trial_seed, gait, surf, noise, rates, tcfg,
     epsilon, schedule) = args
    truth = generate_truth(gait, surf, seed=stream_seed)
    records = synthesize_sensors(truth, noise, rates, seed=stream_seed)
    configs = {v: FilterConfig(noise=noise, variant=v, update_schedule=schedule,
                               epsilon=epsilon)
               for v in tcfg.variants}
    return run_trial(records, tcfg, configs, trial_seed, index)


def monte_carlo(tcfg: TrialConfig, gait: GaitConfig, surf: SurfaceConfig,
                noise: NoiseParams, rates: Rates = Rates(), jobs: int = 1,
                epsilon: float = FilterConfig.epsilon,
                schedule: UpdateSchedule = FilterConfig.update_schedule,
                ) -> tuple[AggregateReport, list[TrialResult]]:
    """Run n_trials independent trials and aggregate percentile bands.

    Every trial derives its stream seed and initial-error seed from the
    master seed via numpy SeedSequence spawning, so results are reproducible
    and independent of execution order or worker count.
    """
    seq = np.random.SeedSequence(tcfg.master_seed)
    children = seq.spawn(tcfg.n_trials)
    args = []
    for i, child in enumerate(children):
        stream_seed, trial_seed = (int(s) for s in
                                   child.generate_state(2, dtype=np.uint64))
        args.append((i, stream_seed, trial_seed, gait, surf, noise, rates,
                     tcfg, epsilon, schedule))
    if jobs > 1 and tcfg.n_trials > 1:
        with multiprocessing.Pool(min(jobs, tcfg.n_trials)) as pool:
            results = pool.map(_trial_worker, args)
    else:
        results = [_trial_worker(a) for a in args]
    return aggregate(results), results


@dataclass
class GateResult:
    name: str
    passed: bool
    detail: str
    gating: bool = True


def evaluate_gates(rocking: AggregateReport,
                   static: AggregateReport | None = None,
                   yaw_ratio: float = 5.0,
                   static_floor: float = 0.5,
                   convergence_fraction: float = 0.1) -> list[GateResult]:
    """Pass/fail gates for the observability and convergence claims.

    With a rocking surface the proposed variant's median final-window yaw
    error must be at least `yaw_ratio` times smaller than the
    position-only baseline's, and both variants must pull roll/pitch and
    velocity errors below `convergence_fraction` of their median initial
    values. On a static level surface neither variant may shrink the yaw
    error below `static_floor` of its initial median.
    """
    gates: list[GateResult] = []
    prop, base = Variant.PROPOSED, Variant.POSITION_ONLY

    if prop in rocking.final and base in rocking.final:
        yaw_prop = float(np.median(rocking.final[prop]["yaw_err"]))
        yaw_base = float(np.median(rocking.final[base]["yaw_err"]))
        ok = yaw_prop * yaw_ratio <= yaw_base
        gates.append(GateResult(
            "yaw-observability (rocking)", ok,
            f"proposed median final yaw {yaw_prop:.3f} deg vs "
            f"position-only {yaw_base:.3f} deg (need >= {yaw_ratio}x smaller)"))

    for variant in rocking.final:
        for metric in CONVERGENCE_METRICS:
            init = float(np.median(rocking.initial[variant][metric]))
            fin = float(np.median(rocking.final[variant][metric]))
            ok = fin <= convergence_fraction * init
            gates.append(GateResult(
                f"{metric} convergence ({variant.value})", ok,
                f"median initial {init:.4f} -> final {fin:.4f} "
                f"(need <= {convergence_fraction:.0%})"))

    if static is not None:
        for variant in static.final:
            init = float(np.median(static.initial[variant]["yaw_err"]))
            fin = float(np.median(static.final[variant]["yaw_err"]))
            ok = fin >= static_floor * init
            gates.append(GateResult(
                f"yaw non-convergence (static, {variant.value})", ok,
                f"median initial {init:.3f} deg -> final {fin:.3f} deg "
                f"(must stay >= {static_floor}x)"))

    # Soft report only: base position is unobservable under both variants;
    # the proposed design tends to hold a smaller error.
    if prop in rocking.final and base in rocking.final:
        pos_prop = float(np.median(rocking.final[prop]["pos_err"]))
        pos_base = float(np.median(rocking.final[base]["pos_err"]))
        gates.append(GateResult(
            "position comparison (informational)", True,
            f"proposed median final pos {pos_prop:.3f} m vs "
            f"position-only {pos_base:.3f} m", gating=False))
    return gates


def write_trial_csv(path, result: TrialResult) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "variant"] + list(METRIC_NAMES))
        for variant, series in result.series.items():
            for i, t in enumerate(series.t):
                w.writerow([f"{t:.6f}", variant.value]
                           + [f"{v:.9g}" for v in series.values[i]])


def write_aggregate_csv(path, report: AggregateReport) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "variant", "metric", "p10", "p50", "p90"])
        for variant, metrics in report.bands.items():
            for metric, band in metrics.items():
                for i, t in enumerate(report.t):
                    w.writerow([f"{t:.6f}", variant.value, metric,
                                f"{band[0, i]:.9g}", f"{band[1, i]:.9g}",
                                f"{band[2, i]:.9g}"])
