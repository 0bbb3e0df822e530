"""Mutation ledger: a fixed list of source mutants, each run against the tests.

Each mutant replaces one piece of `src/drs_inekf/` text with a deliberately
wrong one. The script copies the repository to a temporary directory, runs
the tier-1 suite there unmutated (it must pass), then once per mutant, and
prints the tests that fail under it, or SURVIVED. The tests that share the
Monte Carlo fixture (acceptance criteria 7, 8 and 10) are left out: a
mutant run costs about 45 s on two CPUs without them. It exits 1 if any
mutant survives, and 2 if a mutant's text is no longer in the sources or
the unmutated suite fails. `stale_mutants` is that text check alone; the
tier-1 suite runs it too (tests/test_mutants.py), and the mutant runs
leave that test out, as every mutant fails it.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "drs_inekf"  # the mutated sources, under a checkout
DESELECT = tuple(f"tests/test_acceptance.py::test_criterion_{name}" for name in (
    "7_yaw_observability_dichotomy", "8_observable_state_convergence",
    "10_nees_consistency")) + ("tests/test_mutants.py",)
TIMEOUT_S = 900  # a mutant that hangs the suite counts as killed

# (name, module of src/drs_inekf, original text, mutated text). Each original
# occurs exactly once in its module.
MUTANTS = (
    # The covariance's exact symmetry, the Joseph form, the rotation
    # re-projection and the jump noise.
    ("symmetrize-returns-input", "filter", "return 0.5 * (m + _T(m))", "return m"),
    ("update-short-form",
     "filter", "joseph = ikh @ s.cov @ _T(ikh)\n    joseph += (gain * m.var) @ _T(gain)",
     "joseph = ikh @ s.cov"),
    ("propagate-no-reproject",
     "filter", "if np.count_nonzero(np.abs(_T(rot) @ rot - _EYE3) > _ORTHO_TOL / 3.0):",
     "if False:"),
    ("jump-noise-subtracted",
     "filter", "cov = cov + jump_pos_var * (ad @ _T(ad))",
     "cov = cov - jump_pos_var * (ad @ _T(ad))"),
    # The closed-form IMU run.
    ("run-no-accel-contact-noise",
     "filter", "noise_cov = ((z * weight) @ _T(z)).sum(-3) + still",
     "noise_cov = ((z * weight) @ _T(z)).sum(-3)"),
    ("carried-no-gravity-drift",
     "filter", "carried[..., 3] += GRAVITY * rest.reshape(col.shape)", "pass"),
    ("rest-off-by-one-interval",
     "filter", "rest = tau[ends][run] - tau + dt", "rest = tau[ends][run] - tau"),
    ("scan-no-v-to-p-shift", "filter", "_shift(a[..., 3:], tau[k])", "pass"),
    ("phi-of-last-interval-only",
     "filter", "state_transition(tau[ends])", "state_transition(dt[ends])"),
    # The simulator's noise scales.
    ("sim-accel-density-times-dt",
     "sim", "math.sqrt(noise.accel_density / dt)", "math.sqrt(noise.accel_density * dt)"),
    ("sim-measurement-variances-swapped",
     "sim", "* math.sqrt(noise.fk_pos_var)\n    orient_n = rng.standard_normal((len(kin), 3))"
            " * math.sqrt(noise.surface_orient_var)",
     "* math.sqrt(noise.surface_orient_var)\n    orient_n = rng.standard_normal((len(kin), 3))"
     " * math.sqrt(noise.fk_pos_var)"),
    # The stream boundary.
    ("stream-no-clock-check",
     "streams", "_first_bad(times >= clock - TIME_TOL,", "_first_bad(times >= -np.inf,"),
    ("stream-no-finiteness-check",
     "streams", "_first_bad(_each(np.isfinite(col)), at,",
     "_first_bad(_each(np.isfinite(col) | True), at,"),
    ("stream-det-above-minus-two", "streams", "(det > 0.0)", "(det > -2)"),
    # A run's terms, a measurement's variance and the jump.
    ("run-map-at-first-interval", "filter", "run_maps = maps[ends]", "run_maps = maps[starts]"),
    ("fold-first-run-terms-of-block",
     "filter", "(ends + 1).tolist(), runs))",
     "(ends + 1).tolist(), [next(runs)] * len(starts)))"),
    ("variance-dropped-from-S",
     "filter", "sce = m.H @ pht[..., m.cols, :] + m.var * _EYE3 + _EPSILON_I",
     "sce = m.H @ pht[..., m.cols, :] + _EPSILON_I"),
    ("joseph-noise-term-dropped",
     "filter", "joseph += (gain * m.var) @ _T(gain)", "pass"),
    ("joseph-kh-block-dropped", "filter", "ikh[..., m.cols] -= gain @ m.H", "pass"),
    ("builders-variances-swapped",
     "models", "max(noise.surface_orient_var, VAR_FLOOR), XI_R)",
     "max(noise.fk_pos_var, VAR_FLOOR), XI_R)"),
    ("jump-noise-dropped", "filter", "if jump_pos_var:", "if False:"),
    # The correction step's structure: the columns H is nonzero on, the
    # surface normal and the exponential's left Jacobian.
    ("position-block-on-wrong-columns",
     "models", "slice(XI_P.start, XI_D.stop)", "slice(3, 9)"),
    ("surface-normal-from-column-1", "models", "n_s = surface_rot[..., 2]",
     "n_s = surface_rot[..., 1]"),
    ("left-jacobian-b-c-swapped",
     "liegroup", "_rodrigues(abc[:2], abc[1:], k, k @ k)",
     "_rodrigues(abc[[0, 2]], abc[[1, 1]], k, k @ k)"),
    # A block of IMU intervals that opens inside a run, and the fixed
    # SE_3(3) adjoint's last diagonal block (the one the jump noise enters).
    ("block-start-not-a-run", "filter", "first[0] = True", "pass"),
    ("adjoint-xi-d-block-dropped", "liegroup", "diagonal = np.arange(4)",
     "diagonal = np.arange(3)"),
    # A record past the end of the imu interval after it, and an fk_rot
    # record with no surface pose before it.
    ("stream-no-look-ahead-check",
     "streams", "_first_bad(times <= end + TIME_TOL,", "_first_bad(times <= np.inf,"),
    ("stream-fk-rot-before-surface-allowed",
     "streams", "np.cumsum(kinds == SURFACE)[fk_rot] > 0",
     "np.cumsum(kinds == SURFACE)[fk_rot] >= 0"),
    # An imu record that starts off the stream clock, and streams of two
    # gaits written side by side.
    ("stream-no-imu-clock-check",
     "streams", "_first_bad(np.abs(t - clock[at]) <= TIME_TOL,",
     "_first_bad(np.abs(t - clock[at]) <= np.inf,"),
    ("sim-second-gait-allowed", "sim", "if truth.gait != truths[0].gait:", "if False:"),
    # A failed correction that does not name its record.
    ("fold-failure-without-record",
     "filter", "raise FilterError(message, i) from exc", "raise"),
    # The next tick's foot of an IMU interval with the next tick's stance
    # (across a swap, the new foot), and a record's line counting blank lines.
    ("sim-next-foot-of-next-stance", "sim", "truth.foot_pos(t[1:], stance_idx[a:b])",
     "truth.foot_pos(t[1:], stance_idx[a + 1:b + 1])"),
    ("record-line-counts-blank-lines", "streams", "if text.strip())", "if True)"),
    # The metric table: yaw read from the roll entries of the rotation error,
    # and the angles left in radians. An exact measurement without the floor
    # on its variance.
    ("metric-yaw-from-roll-entries",
     "harness", "np.arctan2(r[..., 1, 0], r[..., 0, 0])",
     "np.arctan2(r[..., 2, 1], r[..., 2, 2])"),
    ("metric-angles-in-radians",
     "harness", "*(np.abs(np.degrees(a)) for a in angles)", "*(np.abs(a) for a in angles)"),
    ("measurement-variance-floor-dropped", "models", "VAR_FLOOR = 1e-7", "VAR_FLOOR = 0.0"),
    # A stream that opens with a record other than truth (a swap at the
    # first truth time, say), and an empty stream.
    ("stream-first-record-not-truth-allowed", "streams", "if kinds[0] != TRUTH:",
     "if False:"),
    ("stream-empty-check-dropped", "streams", "if not len(kinds):", "if False:"),
    # The small-angle table's J_l^-1 entry, the switch to its series, and
    # a negative master seed.
    ("left-jacobian-inv-series-sign", "liegroup", "(1.0 / 12.0, -720.0, 30240.0)",
     "(1.0 / 12.0, 720.0, 30240.0)"),
    ("gamma-series-below-one-radian", "liegroup",
     "small = theta < SMALL_ANGLE\n    n_small", "small = theta < 1.0\n    n_small"),
    ("negative-seed-allowed", "cli", "if args.seed < 0:", "if False:"),
)


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_build"))


def _failures(copy: Path) -> tuple[list[str], float]:
    """The tests that fail or error in `copy`, and the run's wall time."""
    # No bytecode: a mutant of the original's length could reuse a stale .pyc.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    command += [arg for node in DESELECT for arg in ("--deselect", node)]
    started = time.monotonic()
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"(suite timed out after {TIMEOUT_S} s)"], time.monotonic() - started
    # The short summary's lines (-rfE), not the captured output of the tests.
    summary = done.stdout.rpartition("short test summary info")[2]
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in summary.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode not in (0, 1) and not failed:
        failed = [f"(pytest exited {done.returncode})"]
    return failed, time.monotonic() - started


def stale_mutants(root: Path = ROOT) -> list[str]:
    """A line per mutant whose original text does not occur exactly once in
    its module of the checkout at `root`."""
    stale = []
    for name, module, original, _ in MUTANTS:
        count = (root / PACKAGE / f"{module}.py").read_text().count(original)
        if count != 1:
            stale.append(f"{name}: its text occurs {count} times in {module}.py")
    return stale


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="drs-inekf-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        _copy(copy)
        stale = stale_mutants(copy)
        if stale:
            print("\n".join(stale), file=sys.stderr)
            return 2
        failed, wall = _failures(copy)
        print(f"unmutated: {len(failed)} failing, {wall:.0f} s", flush=True)
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 2
        survived = []
        for name, module, original, mutated in MUTANTS:
            path = copy / PACKAGE / f"{module}.py"
            source = path.read_text()
            path.write_text(source.replace(original, mutated))
            failed, wall = _failures(copy)
            path.write_text(source)
            if failed:
                print(f"{name}: killed by {len(failed)} ({wall:.0f} s): {', '.join(failed)}",
                      flush=True)
            else:
                survived.append(name)
                print(f"{name}: SURVIVED ({wall:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed"
          + (f"; survived: {', '.join(survived)}" if survived else ""))
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
