"""Monte Carlo experiment runner and evaluation metrics.

Each trial perturbs the true initial state by a sampled tangent offset,
runs every filter variant over the same sensor stream, and records
estimate-vs-truth metrics on the truth-sample grid. The trials of a
worker's chunk and their variants run as one batch, in lockstep over
their stacked streams. Aggregation reduces the trial axis to percentile
bands and summary statistics used by the pass/fail gates (yaw
observability dichotomy, roll/pitch/velocity convergence).
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .filter import FilterConfig, State, StreamEstimator, Variant, error_vs_truth
from .liegroup import XI_D, XI_P, XI_V, GroupElement, compose, sek3_exp
from .liegroup import dot as _dot
from .models import check_fields, param
from .sim import GaitConfig, Rates, SurfaceConfig, generate_truth, synthesize_sensors
from .streams import Stream, StreamFormatError

METRIC_NAMES = ("pos_err", "vel_err", "roll_err", "pitch_err", "yaw_err", "nees")

# Metrics gated by the convergence checks; yaw is handled separately by
# the observability dichotomy.
CONVERGENCE_METRICS = ("roll_err", "pitch_err", "vel_err")
_TRUTH_BLOCK = 64  # truth samples whose metrics are evaluated together


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
         epsilon: float = FilterConfig.epsilon) -> np.ndarray:
    """Normalized estimation error squared xi^T cov^-1 xi (regularized)."""
    try:
        sol = np.linalg.solve(cov + epsilon * np.eye(xi.shape[-1]), xi[..., None])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular covariance in nees: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise ValueError("singular covariance in nees")
    return _dot(xi, sol[..., 0])


@dataclass
class MetricSeries:
    """Metric rows on the truth-sample grid, per member of a batch."""

    t: np.ndarray          # (T,)
    values: np.ndarray     # (..., T, len(METRIC_NAMES))


@dataclass
class TrialResult:
    trial: int
    series: dict[Variant, MetricSeries]


def run_trials(stream: Stream, tcfg: TrialConfig, cfg: FilterConfig,
               variants: tuple[Variant, ...], xi0: np.ndarray,
               indices: list[int]) -> list[TrialResult]:
    """Run every variant of every trial over a stream, in lockstep.

    Trial j starts from the first truth sample perturbed by the tangent
    offset xi0[j] (exp(xi0[j]) @ X_true); axis 1 of the stream's value
    columns runs over the trials (`Stream.stack`). One trial over an
    unstacked stream may pass its offset as xi0 of shape (12,). The state's
    batch axes are (variant, trial): the variant axis only for more than one
    variant, the trial axis only for xi0 of shape (n, 12). So one variant of
    one such trial runs unbatched, as small numpy operations run fastest.
    Truth precedes the updates at its timestamp, so each metric row holds
    the prior error there; metrics are evaluated _TRUTH_BLOCK samples at once.
    """
    truth = stream.columns["truth"]
    t = truth["t"]
    if not len(t):
        raise StreamFormatError("stream contains no truth records")
    mean0 = compose(sek3_exp(xi0), GroupElement(truth["rot"][0], np.stack(
        [truth[k][0] for k in ("vel", "pos", "foot")], axis=-1)))
    batch = ((len(variants),) if len(variants) > 1 else ()) + xi0.shape[:-1]
    est = StreamEstimator(State(
        GroupElement(np.broadcast_to(mean0.rot, batch + (3, 3)).copy(),
                     np.broadcast_to(mean0.cols, batch + (3, 3)).copy()),
        np.broadcast_to(initial_covariance(tcfg), batch + (12, 12)).copy()),
        cfg, variants)
    rows = np.empty((len(t),) + batch + (len(METRIC_NAMES),))
    rot, cols, cov = (np.empty((_TRUTH_BLOCK,) + batch + shape)
                      for shape in ((3, 3), (3, 3), (12, 12)))
    # Truth gets an axis for each batch axis before the stream's.
    expand = (slice(None),) + (None,) * (len(batch) - truth["rot"].ndim + 3)
    for i in est.fold(stream):
        j = i % _TRUTH_BLOCK
        rot[j], cols[j], cov[j] = est.state.mean.rot, est.state.mean.cols, est.state.cov
        if j + 1 < _TRUTH_BLOCK and i + 1 < len(t):
            continue
        ticks, n = slice(i - j, i + 1), j + 1
        m = error_vs_truth(State(GroupElement(rot[:n], cols[:n]), cov[:n]),
                           GroupElement(truth["rot"][ticks][expand], np.stack(
                               [truth[k][ticks] for k in ("vel", "pos", "foot")],
                               axis=-1)[expand]))
        rows[ticks] = np.stack([m.pos_err, m.vel_err, np.abs(m.roll_deg),
                                np.abs(m.pitch_deg), np.abs(m.yaw_deg),
                                nees(m.xi, cov[:n], cfg.epsilon)], axis=-1)
    rows = np.moveaxis(rows, 0, -2).reshape((len(variants), len(indices), len(t), -1))
    return [TrialResult(index, {v: MetricSeries(t, rows[i, j])
                                for i, v in enumerate(variants)})
            for j, index in enumerate(indices)]


def run_trial(stream: Stream, tcfg: TrialConfig, cfg: FilterConfig,
              variants: tuple[Variant, ...], xi0: np.ndarray,
              index: int = 0) -> TrialResult:
    """Run every variant over one stream from the truth perturbed by xi0."""
    return run_trials(stream, tcfg, cfg, variants, xi0, [index])[0]


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


def _chunk_worker(args) -> list[list[TrialResult]]:
    """One chunk of trials of every campaign, run as one batch."""
    indices, stream_seeds, trial_seeds, gait, surfaces, cfg, rates, tcfg = args
    stream = Stream.stack(
        (synthesize_sensors(generate_truth(gait, surf, seed=seed), cfg.noise, rates,
                            seed=seed)
         for surf in surfaces for seed in stream_seeds),
        len(surfaces) * len(stream_seeds))
    xi0 = np.array([sample_initial_error(np.random.default_rng(seed), tcfg)
                    for seed in trial_seeds])
    try:
        results = run_trials(stream, tcfg, cfg, tcfg.variants,
                             np.tile(xi0, (len(surfaces), 1)), indices * len(surfaces))
    except Exception as exc:
        raise RuntimeError(f"trials {indices[0]}..{indices[-1]} failed: {exc}") from exc
    n = len(indices)
    return [results[i * n:(i + 1) * n] for i in range(len(surfaces))]


def campaigns(tcfg: TrialConfig, gait: GaitConfig, surfaces: list[SurfaceConfig],
              cfg: FilterConfig, rates: Rates = Rates(), jobs: int = 1,
              ) -> list[tuple[AggregateReport, list[TrialResult]]]:
    """One Monte Carlo campaign per surface, all with the same trial seeds.

    Every trial derives its stream seed and initial-error seed from the
    master seed via numpy SeedSequence spawning, so results are reproducible
    and independent of execution order, worker count and of which campaigns
    run together. The trials are split into `jobs` (at least 1) contiguous
    chunks; a worker runs its chunk of every campaign as one batch. The
    streams are synthesized with the filter's noise model.
    """
    seq = np.random.SeedSequence(tcfg.master_seed)
    seeds = np.array([child.generate_state(2, dtype=np.uint64)
                      for child in seq.spawn(tcfg.n_trials)])
    chunks = np.array_split(np.arange(tcfg.n_trials), min(jobs, tcfg.n_trials))
    args = [(chunk.tolist(), seeds[chunk, 0].tolist(), seeds[chunk, 1].tolist(),
             gait, list(surfaces), cfg, rates, tcfg)
            for chunk in chunks]
    if len(args) > 1:
        with multiprocessing.Pool(len(args)) as pool:
            chunked = pool.map(_chunk_worker, args)
    else:
        chunked = [_chunk_worker(a) for a in args]
    out = []
    for i in range(len(surfaces)):
        results = [r for chunk in chunked for r in chunk[i]]
        out.append((aggregate(results), results))
    return out


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
    row = "%.6f,%s" + ",%.9g" * len(METRIC_NAMES) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("t,variant," + ",".join(METRIC_NAMES) + "\r\n")
        for variant, series in result.series.items():
            fh.writelines(row % (t, variant.value, *values) for t, values in
                          zip(series.t.tolist(), series.values.tolist()))


def write_aggregate_csv(path, report: AggregateReport) -> None:
    row = "%.6f,%s,%s,%.9g,%.9g,%.9g\r\n"
    t = report.t.tolist()
    with open(path, "w", newline="") as fh:
        fh.write("t,variant,metric,p10,p50,p90\r\n")
        for variant, metrics in report.bands.items():
            for metric, band in metrics.items():
                fh.writelines(row % (ti, variant.value, metric, *b)
                              for ti, b in zip(t, band.T.tolist()))
