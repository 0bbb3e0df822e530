"""Monte Carlo experiment runner and evaluation metrics.

Each trial perturbs the true initial state by a sampled tangent offset,
runs every filter variant over the same sensor stream, and records
estimate-vs-truth metrics on the truth-sample grid. The trials of a
worker's chunk and their variants run as one batch, in lockstep over
their streams, synthesized side by side as one Stream. A campaign's
results are one float array `rows`, axes VARIANTS x trial index x truth
sample x METRIC_NAMES, with the truth times `t` beside it. Aggregation
reduces the trial axis to percentile bands and the summaries used by the
pass/fail gates (yaw observability dichotomy, roll/pitch/velocity
convergence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filter import EPSILON, State, StreamEstimator, Variant, error_vs_truth
from .liegroup import GroupElement, compose, sek3_exp
from .liegroup import dot as _dot
from .models import NoiseParams, check_fields, param
from .sim import GaitConfig, Rates, SurfaceConfig, generate_truth, synthesize_sensors
from .streams import Stream

METRIC_NAMES = ("pos_err", "vel_err", "roll_err", "pitch_err", "yaw_err", "nees")

# Metrics gated by the convergence checks; yaw is handled separately by
# the observability dichotomy.
CONVERGENCE_METRICS = ("roll_err", "pitch_err", "vel_err")
_TRUTH_BLOCK = 64  # truth samples whose metrics are evaluated together
_EPSILON_I = EPSILON * np.eye(12)  # what nees adds to the covariance
_EPSILON_I.setflags(write=False)
FINAL_WINDOW = 5.0  # s at the end of a trial that its final value summarizes
# Gate thresholds (`evaluate_gates`).
YAW_RATIO = 5.0
STATIC_FLOOR = 0.5
CONVERGENCE_FRACTION = 0.1
VARIANTS = (Variant.PROPOSED, Variant.POSITION_ONLY)  # compared in every trial
PERCENTILES = (10.0, 50.0, 90.0)  # the p10/p50/p90 bands


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

    def __post_init__(self):
        check_fields(self)


def _half_widths(tcfg: TrialConfig) -> np.ndarray:
    """The 12 uniform half-widths: roll/pitch, yaw, then the v, p and d blocks."""
    return np.repeat([math.radians(tcfg.roll_pitch_range_deg),
                      math.radians(tcfg.yaw_range_deg),
                      tcfg.vel_range, tcfg.pos_range, tcfg.foot_range], [2, 1, 3, 3, 3])


def sample_initial_error(rng: np.random.Generator, tcfg: TrialConfig) -> np.ndarray:
    """Draw the tangent perturbation applied as exp(xi0) @ X_true."""
    a = _half_widths(tcfg)
    return rng.uniform(-a, a)


def initial_covariance(tcfg: TrialConfig) -> np.ndarray:
    """Diagonal covariance matching the uniform sampling ranges (var = a^2/3)."""
    return np.diag(_half_widths(tcfg) ** 2 / 3.0)


def nees(xi: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Normalized estimation error squared xi^T (cov + EPSILON I)^-1 xi."""
    try:
        sol = np.linalg.solve(cov + _EPSILON_I, xi[..., None])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular covariance in nees: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise ValueError("singular covariance in nees")
    return _dot(xi, sol[..., 0])


def metric_rows(mean: GroupElement, cov: np.ndarray, truth: GroupElement) -> np.ndarray:
    """The METRIC_NAMES columns of estimates (mean, cov) against the truth.

    Position and velocity error norms, the |roll|, |pitch| and |yaw| of the
    rotation error mean.rot truth.rot^T in degrees (ZYX convention), and the
    NEES of the invariant error xi; one row per member, on the last axis.
    """
    err, xi = error_vs_truth(mean, truth)
    r = err.rot
    angles = (np.arctan2(r[..., 2, 1], r[..., 2, 2]),
              -np.arcsin(np.clip(r[..., 2, 0], -1.0, 1.0)),
              np.arctan2(r[..., 1, 0], r[..., 0, 0]))
    pos, vel = mean.pos - truth.pos, mean.vel - truth.vel
    return np.stack([np.sqrt(_dot(pos, pos)), np.sqrt(_dot(vel, vel)),
                     *(np.abs(np.degrees(a)) for a in angles), nees(xi, cov)], axis=-1)


def _truth_element(truth: dict, ticks, expand=()) -> GroupElement:
    """The true states at `ticks` of a stream's truth columns, indexed by `expand`."""
    return GroupElement(truth["rot"][ticks][expand], np.stack(
        [truth[k][ticks] for k in ("vel", "pos", "foot")], axis=-1)[expand])


def run_trials(stream: Stream, tcfg: TrialConfig, noise: NoiseParams,
               variants: tuple[Variant, ...], xi0: np.ndarray) -> np.ndarray:
    """Run every variant of every trial over a stream, in lockstep.

    Trial j starts from the first truth sample perturbed by the tangent
    offset xi0[j] (exp(xi0[j]) @ X_true); axis 1 of the stream's value
    columns runs over the trials (as `sim.synthesize_sensors` writes
    them). One trial over a stream without that axis may pass its offset
    as xi0 of shape (12,). The state's batch axes are (variant, trial):
    the variant axis only for more than one variant, the trial axis only
    for xi0 of shape (n, 12). So one variant of one such trial runs
    unbatched, as small numpy operations run fastest. Truth precedes the
    updates at its timestamp, so each metric row holds the prior error
    there; `metric_rows` evaluates them _TRUTH_BLOCK samples at once.
    Returns the rows, axes (variant, trial, truth sample, metric) in the
    order `variants` x trial x truth time x METRIC_NAMES.
    """
    truth = stream.columns["truth"]
    t = truth["t"]
    mean0 = compose(sek3_exp(xi0), _truth_element(truth, 0))
    batch = ((len(variants),) if len(variants) > 1 else ()) + xi0.shape[:-1]
    est = StreamEstimator(State(
        GroupElement(np.broadcast_to(mean0.rot, batch + (3, 3)).copy(),
                     np.broadcast_to(mean0.cols, batch + (3, 3)).copy()),
        np.broadcast_to(initial_covariance(tcfg), batch + (12, 12)).copy()),
        noise, variants)
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
        rows[ticks] = metric_rows(GroupElement(rot[:n], cols[:n]), cov[:n],
                                  _truth_element(truth, ticks, expand))
    return np.moveaxis(rows, 0, -2).reshape(len(variants), -1, len(t), len(METRIC_NAMES))


def run_trial(stream: Stream, tcfg: TrialConfig, noise: NoiseParams,
              variants: tuple[Variant, ...], xi0: np.ndarray) -> np.ndarray:
    """Run every variant over one stream from the truth perturbed by xi0: rows[:, 0]."""
    return run_trials(stream, tcfg, noise, variants, xi0)[:, 0]


@dataclass
class AggregateReport:
    """Percentile bands plus the per-trial summaries the gates consume."""

    t: np.ndarray        # (T,) truth times
    bands: np.ndarray    # (PERCENTILES, variant, T, metric)
    initial: np.ndarray  # (variant, trial, metric) at the first truth sample
    final: np.ndarray    # (variant, trial, metric) median over FINAL_WINDOW


def aggregate(t: np.ndarray, rows: np.ndarray) -> AggregateReport:
    """Reduce the trial axis of rows (variant, trial, truth sample, metric)."""
    final_mask = t >= t[-1] - FINAL_WINDOW + 1e-9
    return AggregateReport(t, np.percentile(rows, PERCENTILES, axis=1),
                           rows[:, :, 0].copy(),
                           np.median(rows[:, :, final_mask], axis=2))


def _chunk_worker(args) -> tuple[np.ndarray, np.ndarray]:
    """One chunk of trials of every campaign, run as one batch: the truth
    times and the rows (surface, variant, trial, truth sample, metric)."""
    chunk, stream_seeds, trial_seeds, gait, surfaces, noise, rates, tcfg = args
    stream = synthesize_sensors([generate_truth(gait, surf, seed=seed)
                                 for surf in surfaces for seed in stream_seeds],
                                noise, rates, stream_seeds * len(surfaces))
    xi0 = np.array([sample_initial_error(np.random.default_rng(seed), tcfg)
                    for seed in trial_seeds])
    try:
        rows = run_trials(stream, tcfg, noise, VARIANTS, np.tile(xi0, (len(surfaces), 1)))
    except Exception as exc:
        raise RuntimeError(f"trials {chunk[0]}..{chunk[-1]} failed: {exc}") from exc
    rows = rows.reshape((len(VARIANTS), len(surfaces), len(chunk)) + rows.shape[2:])
    return stream.columns["truth"]["t"], rows.swapaxes(0, 1)


def campaigns(tcfg: TrialConfig, gait: GaitConfig, surfaces: list[SurfaceConfig],
              noise: NoiseParams, rates: Rates = Rates(), jobs: int = 1,
              ) -> list[tuple[AggregateReport, np.ndarray]]:
    """One Monte Carlo campaign per surface, all with the same trial seeds.

    Every trial derives its stream seed and initial-error seed from the
    master seed via numpy SeedSequence spawning, so results are reproducible
    and independent of execution order, worker count and of which campaigns
    run together. The trials are split into `jobs` (at least 1) contiguous
    chunks; a worker runs its chunk of every campaign as one batch. The
    streams are synthesized with the filter's noise model `noise`. Each campaign
    comes as its report and its rows (variant, trial, truth sample, metric).
    """
    seq = np.random.SeedSequence(tcfg.master_seed)
    seeds = np.array([child.generate_state(2, dtype=np.uint64)
                      for child in seq.spawn(tcfg.n_trials)])
    chunks = np.array_split(np.arange(tcfg.n_trials), min(jobs, tcfg.n_trials))
    args = [(chunk.tolist(), seeds[chunk, 0].tolist(), seeds[chunk, 1].tolist(),
             gait, list(surfaces), noise, rates, tcfg)
            for chunk in chunks]
    if len(args) > 1:
        import multiprocessing  # here only: a single chunk runs without it

        with multiprocessing.Pool(len(args)) as pool:
            chunked = pool.map(_chunk_worker, args)
    else:
        chunked = [_chunk_worker(a) for a in args]
    rows = np.concatenate([r for _, r in chunked], axis=2)
    return [(aggregate(chunked[0][0], r), r) for r in rows]


@dataclass
class GateResult:
    name: str
    passed: bool
    detail: str
    gating: bool = True


def evaluate_gates(rocking: AggregateReport,
                   static: AggregateReport | None = None) -> list[GateResult]:
    """Pass/fail gates for the observability and convergence claims.

    With a rocking surface the proposed variant's median final-window yaw
    error must be at least YAW_RATIO times smaller than the position-only
    baseline's, and both variants must pull roll/pitch and velocity errors
    below CONVERGENCE_FRACTION of their median initial values. On a static
    level surface neither variant may shrink the yaw error below
    STATIC_FLOOR of its initial median.
    """
    # Medians over the trials, indexed [variant][metric].
    init, fin = (np.median(a, axis=1).tolist() for a in (rocking.initial, rocking.final))
    prop, base = (VARIANTS.index(v) for v in (Variant.PROPOSED, Variant.POSITION_ONLY))
    yaw, pos = METRIC_NAMES.index("yaw_err"), METRIC_NAMES.index("pos_err")
    gates = [GateResult(
        "yaw-observability (rocking)", fin[prop][yaw] * YAW_RATIO <= fin[base][yaw],
        f"proposed median final yaw {fin[prop][yaw]:.3f} deg vs "
        f"position-only {fin[base][yaw]:.3f} deg (need >= {YAW_RATIO}x smaller)")]

    for i, variant in enumerate(VARIANTS):
        for metric in CONVERGENCE_METRICS:
            j = METRIC_NAMES.index(metric)
            gates.append(GateResult(
                f"{metric} convergence ({variant.value})",
                fin[i][j] <= CONVERGENCE_FRACTION * init[i][j],
                f"median initial {init[i][j]:.4f} -> final {fin[i][j]:.4f} "
                f"(need <= {CONVERGENCE_FRACTION:.0%})"))

    if static is not None:
        s_init, s_fin = (np.median(a, axis=1).tolist()
                         for a in (static.initial, static.final))
        for i, variant in enumerate(VARIANTS):
            gates.append(GateResult(
                f"yaw non-convergence (static, {variant.value})",
                s_fin[i][yaw] >= STATIC_FLOOR * s_init[i][yaw],
                f"median initial {s_init[i][yaw]:.3f} deg -> final {s_fin[i][yaw]:.3f} deg "
                f"(must stay >= {STATIC_FLOOR}x)"))

    # Soft report only: base position is unobservable under both variants;
    # the proposed design tends to hold a smaller error.
    gates.append(GateResult(
        "position comparison (informational)", True,
        f"proposed median final pos {fin[prop][pos]:.3f} m vs "
        f"position-only {fin[base][pos]:.3f} m", gating=False))
    return gates


def _write_rows(fh, labels: str, table: np.ndarray) -> None:
    """Write an (n, k) table as n `t,labels,values` CRLF rows, with one `%`."""
    row = "%.6f," + labels.replace("%", "%%") + ",%.9g" * (table.shape[1] - 1) + "\r\n"
    fh.write(row * len(table) % tuple(table.ravel().tolist()))


def write_trial_csv(path, t: np.ndarray, variants: tuple[Variant, ...],
                    rows: np.ndarray) -> None:
    """One trial's rows (variant, truth sample, metric) at truth times t."""
    with open(path, "w", newline="") as fh:
        fh.write("t,variant," + ",".join(METRIC_NAMES) + "\r\n")
        for variant, table in zip(variants, rows):
            _write_rows(fh, variant.value, np.column_stack([t, table]))


def write_aggregate_csv(path, report: AggregateReport) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,variant,metric,p10,p50,p90\r\n")
        for i, variant in enumerate(VARIANTS):
            for j, metric in enumerate(METRIC_NAMES):
                _write_rows(fh, f"{variant.value},{metric}",
                            np.column_stack([report.t, report.bands[:, i, :, j].T]))
