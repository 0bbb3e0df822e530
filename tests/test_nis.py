"""The filter's innovations match its innovation covariance at unequal noise.

A rocking campaign whose kinematic and orientation noise variances are ten
times apart: each kind's NIS z^T S^-1 z, averaged over the second half of
its updates, must lie in the two-sided 95 % chi-square band of that mean
(Bar-Shalom, Li & Kirubarajan 2001, sec. 5.4), per variant. Both variants
read the same fk_pos noise of a trial, so their samples are not
independent of each other: each variant's mean is gated alone, in the band
of its own samples. A position innovation has 3 dof; an orientation
innovation has 2, since the surface normal's own direction carries only
second-order error. Swapping the two variances, where the streams are made
or where the filter reads them, moves a mean tenfold.
"""

import math

import numpy as np

from drs_inekf.filter import Variant
from drs_inekf.harness import VARIANTS, TrialConfig, campaigns
from drs_inekf.models import NoiseParams
from drs_inekf.sim import GaitConfig, Rates, SurfaceConfig

N_TRIALS, DURATION = 8, 6.0
NOISE = NoiseParams(fk_pos_var=1e-4, surface_orient_var=1e-3)
DOF = {"fk_pos": 3, "fk_rot": 2}
# The variants each kind's updates reach, in the order of the state's rows.
ROWS = {"fk_pos": VARIANTS, "fk_rot": (Variant.PROPOSED,)}


def band(dof: int, samples: int) -> tuple[float, float]:
    """The two-sided 95 % band of the mean of `samples` chi-square(dof) draws."""
    half = 1.96 * math.sqrt(2.0 * dof / samples)
    return dof - half, dof + half


def test_nis_in_chi_square_band_per_kind(nis_by_kind):
    campaigns(TrialConfig(n_trials=N_TRIALS), GaitConfig(duration=DURATION),
              [SurfaceConfig()], NOISE, Rates())
    means = {}
    for kind, calls in nis_by_kind.items():
        rows = np.stack(calls[len(calls) // 2:], axis=1)  # (row, update, trial)
        for variant, nis in zip(ROWS[kind], rows, strict=True):
            lo, hi = band(DOF[kind], nis.size)
            means[kind, variant.value] = (float(nis.mean()), nis.size, lo, hi)
    print("mean NIS over the second half of the updates: " + ", ".join(
        f"{kind} {variant} {mean:.4f} ({n} samples, band [{lo:.3f}, {hi:.3f}])"
        for (kind, variant), (mean, n, lo, hi) in means.items()))
    for key, (mean, n, lo, hi) in means.items():
        assert lo <= mean <= hi, (key, mean, n)
