"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see
them inline). The Monte Carlo comparison (criteria 7 and 8) runs once per
session at the shipped default configuration: 100 trials x 30 s on the
rocking surface plus a 100-trial static-level control.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.linalg import expm

from drs_inekf.cli import main
from drs_inekf.filter import (
    State,
    StreamEstimator,
    Variant,
    apply_jump,
    error_vs_truth,
)
from drs_inekf.harness import (
    FINAL_WINDOW,
    METRIC_NAMES,
    VARIANTS,
    TrialConfig,
    campaigns,
    evaluate_gates,
)
from drs_inekf.liegroup import (
    adjoint,
    compose,
    inverse,
    sek3_exp,
    sek3_log,
    so3_exp,
    so3_log,
)
from drs_inekf.models import (
    NoiseParams,
    error_jacobian_A,
    innovation,
    orientation_measurement,
    position_measurement,
)
from drs_inekf.sim import (
    GaitConfig,
    Rates,
    SurfaceConfig,
    generate_truth,
)
from drs_inekf.streams import TruthSample

from conftest import (
    ImuReading,
    algebra_hat,
    embed,
    fd_error_jacobian,
    fd_measurement_jacobian,
    group_affine_residual,
    identity,
    is_close,
    one_stream,
    process_dynamics,
    random_element,
    random_imu,
    routed,
    stream_records,
)

JOBS = max(1, os.cpu_count() or 1)
# Two-sided 95 % chi-square band of the 100-trial mean NEES, 12 x 100 dof
# divided by 100 (Bar-Shalom, Li & Kirubarajan 2001, sec. 5.4).
NEES_BAND = (11.06, 12.98)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


@pytest.fixture(scope="module")
def mc_results():
    # The dataclass defaults are the shipped default config.
    noise = NoiseParams()
    gait = GaitConfig()
    rates = Rates()
    rocking_surface = SurfaceConfig()
    static_surface = SurfaceConfig(pitch_amplitude=0.0)
    tcfg = TrialConfig(n_trials=100, master_seed=2024)
    started = time.time()
    rocking = campaigns(tcfg, gait, [rocking_surface], noise, rates, jobs=JOBS)[0]
    static = campaigns(tcfg, gait, [static_surface], noise, rates, jobs=JOBS)[0]
    wall = time.time() - started
    print(f"\n[info] Monte Carlo: 2 x {tcfg.n_trials} trials x "
          f"{gait.duration:.0f} s, jobs={JOBS}, wall {wall:.0f} s")
    return rocking, static  # each (report, rows)


def test_criterion_1_group_affine_property(rng):
    started = time.time()
    worst = max(
        group_affine_residual(random_element(rng), random_element(rng),
                              random_imu(rng))
        for _ in range(1000))

    def corrupted(x, u):
        out = process_dynamics(x, u)
        out[:3, 3] = x.rot @ u.accel * np.linalg.norm(x.vel)
        return out

    mutated = min(
        group_affine_residual(random_element(rng), random_element(rng),
                              random_imu(rng), dynamics=corrupted)
        for _ in range(50))
    elapsed = time.time() - started
    ok = worst <= 1e-9 and mutated > 1e-3 and elapsed < 1.0
    report(1, ok, f"group-affine residual worst {worst:.2e} (<=1e-9), "
                  f"mutated {mutated:.2e} (>1e-3), {elapsed:.2f}s (<1s)")
    assert worst <= 1e-9
    assert mutated > 1e-3
    assert elapsed < 1.0


def test_criterion_2_state_independent_error_dynamics(rng):
    started = time.time()
    a_const = error_jacobian_A()
    worst = 0.0
    for _ in range(100):
        u = random_imu(rng)
        u = ImuReading(u.t, u.dt, u.gyro, u.accel, np.zeros(3))
        fd = fd_error_jacobian(random_element(rng), u, substeps=2)
        worst = max(worst, float(np.max(np.abs(fd - a_const))))
    elapsed = time.time() - started
    ok = worst < 1e-6 and elapsed < 5.0
    report(2, ok, f"finite-difference error Jacobian at 100 random states, "
                  f"worst deviation {worst:.2e} (<1e-6), {elapsed:.1f}s (<5s)")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_3_lie_group_correctness(rng):
    worst_roundtrip = 0.0
    for _ in range(1000):
        xi = rng.standard_normal(12)
        xi[:3] *= rng.uniform(0.0, 3.0) / np.linalg.norm(xi[:3])
        worst_roundtrip = max(worst_roundtrip, float(np.linalg.norm(
            sek3_log(sek3_exp(xi)) - xi)))
        v = xi[:3]
        worst_roundtrip = max(worst_roundtrip, float(np.linalg.norm(
            so3_log(so3_exp(v)) - v)))

    worst_expm = max(
        float(np.linalg.norm(embed(sek3_exp(xi)) - expm(algebra_hat(xi))))
        for xi in (rng.standard_normal(12) for _ in range(200)))

    worst_adjoint = 0.0
    for _ in range(200):
        x = random_element(rng)
        xi = rng.standard_normal(12)
        lhs = embed(x) @ algebra_hat(xi) @ embed(inverse(x))
        rhs = algebra_hat(adjoint(x) @ xi)
        worst_adjoint = max(worst_adjoint, float(np.linalg.norm(lhs - rhs)))

    worst_assoc = 0.0
    for _ in range(1000):
        a, b, c = (random_element(rng) for _ in range(3))
        lhs = embed(compose(compose(a, b), c))
        rhs = embed(compose(a, compose(b, c)))
        worst_assoc = max(worst_assoc, float(np.linalg.norm(lhs - rhs)))
    x = random_element(rng)
    ident_ok = (is_close(compose(x, identity()), x, tol=1e-15)
                and is_close(compose(x, inverse(x)), identity(), tol=1e-12))

    ok = (worst_roundtrip <= 1e-10 and worst_expm <= 1e-9
          and worst_adjoint <= 1e-11 and worst_assoc <= 1e-11 and ident_ok)
    report(3, ok, f"exp/log roundtrip {worst_roundtrip:.2e} (<=1e-10), "
                  f"dense expm {worst_expm:.2e} (<=1e-9), "
                  f"adjoint identity {worst_adjoint:.2e} (<=1e-11), "
                  f"associativity {worst_assoc:.2e} (<=1e-11)")
    assert worst_roundtrip <= 1e-10
    assert worst_expm <= 1e-9
    assert worst_adjoint <= 1e-11
    assert worst_assoc <= 1e-11
    assert ident_ok


def test_criterion_4_measurement_jacobians(rng):
    noise = NoiseParams(0, 0, 0, 0, 0, 0)
    worst_orient = 0.0
    worst_pos = 0.0
    for _ in range(100):
        xhat = random_element(rng)
        rs = so3_exp(rng.standard_normal(3) * 0.5)

        def build_orient(xi):
            x_true = compose(sek3_exp(xi), xhat)
            m = orientation_measurement(rs, x_true.rot.T @ rs, noise)
            return innovation(m, xhat)

        def build_pos(xi):
            x_true = compose(sek3_exp(xi), xhat)
            hp = x_true.rot.T @ (x_true.foot - x_true.pos)
            m = position_measurement(hp, noise)
            return innovation(m, xhat)

        m_orient = orientation_measurement(rs, xhat.rot.T @ rs, noise)
        m_pos = position_measurement(np.zeros(3), noise)
        worst_orient = max(worst_orient, float(np.max(np.abs(
            fd_measurement_jacobian(build_orient) - m_orient.H))))
        worst_pos = max(worst_pos, float(np.max(np.abs(
            fd_measurement_jacobian(build_pos) - m_pos.H))))
    ok = worst_orient < 1e-6 and worst_pos < 1e-6
    report(4, ok, f"H vs finite differences at 100 random states: "
                  f"orientation {worst_orient:.2e}, position {worst_pos:.2e} "
                  f"(both <1e-6)")
    assert worst_orient < 1e-6
    assert worst_pos < 1e-6


def test_criterion_5_jump_invariance(rng):
    worst_d = 0.0
    bitwise = True
    unchanged = True
    for _ in range(100):
        mean = random_element(rng)
        a = rng.standard_normal((12, 12))
        s = State(mean, a @ a.T)
        h_d = rng.standard_normal(3) * 0.4
        s2 = apply_jump(s, h_d, 0.0)
        bitwise &= s2.cov.tobytes() == s.cov.tobytes()
        unchanged &= (np.array_equal(s2.mean.rot, mean.rot)
                      and np.array_equal(s2.mean.vel, mean.vel)
                      and np.array_equal(s2.mean.pos, mean.pos))
        worst_d = max(worst_d, float(np.max(np.abs(
            s2.mean.foot - (mean.foot + mean.rot @ h_d)))))
    ok = bitwise and unchanged and worst_d <= 1e-14
    report(5, ok, f"zero-noise jump: covariance bit-identical={bitwise}, "
                  f"R/v/p untouched={unchanged}, "
                  f"foot shift error {worst_d:.2e} (<=1e-14)")
    assert bitwise
    assert unchanged
    assert worst_d <= 1e-14


def test_criterion_6_keystone_self_consistency():
    started = time.time()
    gait = GaitConfig()  # the default config: 30 s at 400 Hz IMU
    rates = Rates()
    truth = generate_truth(gait, SurfaceConfig(), seed=7)
    records = stream_records(one_stream(
        truth, NoiseParams(0, 0, 0, 0, 0, 0), rates, seed=7))
    first = next(r for r in records if isinstance(r, TruthSample))
    start = State(first.element, np.eye(12) * 1e-4)
    est = StreamEstimator(start, NoiseParams(), (Variant.PROPOSED,))
    worst = np.zeros(12)
    worst_pos = worst_vel = 0.0
    for rec in records:
        if not isinstance(rec, TruthSample):
            est.step(routed(rec))
        else:
            m = error_vs_truth(est.state, rec.element)
            worst = np.maximum(worst, np.abs(m.xi))
            worst_pos = max(worst_pos, m.pos_err)
            worst_vel = max(worst_vel, m.vel_err)
    elapsed = time.time() - started
    worst_all = float(max(worst.max(), worst_pos, worst_vel))
    ok = worst_all < 1e-5 and elapsed < 10.0
    report(6, ok, f"noiseless 30 s end-to-end: worst error component "
                  f"{worst_all:.2e} (<1e-5), {elapsed:.1f}s (<10s)")
    assert worst_all < 1e-5
    assert elapsed < 10.0


def test_criterion_7_yaw_observability_dichotomy(mc_results):
    (rocking, _), (static, _) = mc_results
    gates = {g.name: g for g in evaluate_gates(rocking, static)}
    dichotomy = gates["yaw-observability (rocking)"]
    static_prop = gates["yaw non-convergence (static, proposed)"]
    static_base = gates["yaw non-convergence (static, position-only)"]
    ok = dichotomy.passed and static_prop.passed and static_base.passed
    report(7, ok, f"{dichotomy.detail}; static control: "
                  f"proposed [{static_prop.detail}], "
                  f"position-only [{static_base.detail}]")
    assert dichotomy.passed, dichotomy.detail
    assert static_prop.passed, static_prop.detail
    assert static_base.passed, static_base.detail


def test_criterion_8_observable_state_convergence(mc_results):
    (rocking, _), _ = mc_results
    gates = [g for g in evaluate_gates(rocking)
             if "convergence" in g.name and g.gating]
    assert len(gates) == 6  # roll/pitch/vel for both variants
    ok = all(g.passed for g in gates)
    details = "; ".join(g.detail for g in gates if not g.passed) or \
        "roll/pitch/velocity all below 10% of initial for both variants"
    report(8, ok, details)
    for g in gates:
        assert g.passed, f"{g.name}: {g.detail}"


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        {"gait": {"duration": 4.8}, "trials": {"n_trials": 2}}))
    sums = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["montecarlo", "--config", str(cfg_path), "--seed", "11",
                     "--jobs", "2", "--out", str(out)]) == 0
        stream = tmp_path / f"{name}.jsonl"
        assert main(["sim", "--config", str(cfg_path), "--seed", "11",
                     "--out", str(stream)]) == 0
        sums.append((_sha(out / "aggregate.csv"),
                     _sha(out / "aggregate_static.csv"),
                     _sha(out / "trials" / "trial_000.csv"),
                     _sha(out / "trials" / "trial_001.csv"),
                     _sha(stream)))
    ok = sums[0] == sums[1]
    report(9, ok, f"identical (config, seed) checksums across two runs: {ok}")
    assert ok


def test_criterion_10_nees_consistency(mc_results):
    # Per campaign and variant, the NEES averaged over the trials and over
    # the final window must lie in the chi-square band: the filter's
    # covariance matches its errors, not only shrinks with them.
    means, ok = {}, True
    for surface, (agg, rows) in zip(("rocking", "static"), mc_results):
        window = agg.t >= agg.t[-1] - FINAL_WINDOW + 1e-9
        for i, variant in enumerate(VARIANTS):
            nees = rows[i][:, window, METRIC_NAMES.index("nees")]
            means[f"{surface} {variant.value}"] = mean = float(nees.mean())
            ok &= NEES_BAND[0] <= mean <= NEES_BAND[1]
    report(10, ok, "final-window mean NEES " + ", ".join(
        f"{name} {mean:.3f}" for name, mean in means.items())
        + f" (in [{NEES_BAND[0]}, {NEES_BAND[1]}], 12 dof x {rows.shape[1]} trials)")
    for name, mean in means.items():
        assert NEES_BAND[0] <= mean <= NEES_BAND[1], (name, mean)
