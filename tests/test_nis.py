"""The filter's innovations match its innovation covariance at unequal noise.

A rocking campaign whose kinematic and orientation noise variances are ten
times apart: each kind's NIS z^T S^-1 z, averaged over the second half of
its updates, must lie in the two-sided 95 % chi-square band of that mean
(Bar-Shalom, Li & Kirubarajan 2001, sec. 5.4). A position innovation has 3
dof; an orientation innovation has 2, since the surface normal's own
direction carries only second-order error. Swapping the two variances,
where the streams are made or where the filter reads them, moves a mean
tenfold.
"""

import math

import numpy as np

from drs_inekf.harness import TrialConfig, campaigns
from drs_inekf.models import NoiseParams
from drs_inekf.sim import GaitConfig, Rates, SurfaceConfig

N_TRIALS, DURATION = 8, 6.0
NOISE = NoiseParams(fk_pos_var=1e-4, surface_orient_var=1e-3)
DOF = {"fk_pos": 3, "fk_rot": 2}


def band(dof: int, samples: int) -> tuple[float, float]:
    """The two-sided 95 % band of the mean of `samples` chi-square(dof) draws."""
    half = 1.96 * math.sqrt(2.0 * dof / samples)
    return dof - half, dof + half


def test_nis_in_chi_square_band_per_kind(nis_by_kind):
    campaigns(TrialConfig(n_trials=N_TRIALS), GaitConfig(duration=DURATION),
              [SurfaceConfig()], NOISE, Rates())
    means = {}
    for kind, calls in nis_by_kind.items():
        nis = np.concatenate(calls[len(calls) // 2:])
        lo, hi = band(DOF[kind], len(nis))
        means[kind] = (float(nis.mean()), len(nis), lo, hi)
    print("mean NIS over the second half of the updates: " + ", ".join(
        f"{kind} {mean:.4f} ({n} samples, band [{lo:.3f}, {hi:.3f}])"
        for kind, (mean, n, lo, hi) in means.items()))
    for kind, (mean, n, lo, hi) in means.items():
        assert lo <= mean <= hi, (kind, mean, n)
