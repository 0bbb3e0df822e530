"""Deterministic observability of the paper's central claim.

Both measurement Jacobians are independent of the estimate: H_pos is
constant and H_orient = [hat(n_s) 0 0 0] depends only on the known surface
normal. The error transition Phi(tau) is closed-form and jumps have the
identity Jacobian. So the observability matrix [H_k Phi(t_k - t_0)] over a
window of kinematic samples follows from a stream alone; its null space is
the unobservable subspace of the error dynamics over that window. The
Monte Carlo gates (acceptance criteria 7-8) test the same claim
statistically.
"""

import numpy as np
import pytest

from drs_inekf.filter import Variant
from drs_inekf.models import (
    NoiseParams,
    orientation_measurement,
    position_measurement,
    state_transition,
)
from drs_inekf.sim import GaitConfig, Rates, SurfaceConfig, generate_truth

from conftest import one_stream


WINDOW = 40  # kinematic samples, 10 ms apart at the default rates
NOISE = NoiseParams()


def observability_matrix(stream, variant: Variant) -> np.ndarray:
    """[H_k Phi(t_k - t_0)] stacked over the first WINDOW kinematic samples."""
    fk_pos, fk_rot = stream.columns["fk_pos"], stream.columns["fk_rot"]
    surface = stream.columns["surface"]
    t = fk_pos["t"][:WINDOW]
    assert len(t) == WINDOW
    assert np.array_equal(surface["t"][:WINDOW], t)
    assert np.array_equal(fk_rot["t"][:WINDOW], t)
    rows = []
    for k, phi in enumerate(state_transition(t - t[0])):
        rows.append(position_measurement(fk_pos["hp"][k], NOISE).H @ phi)
        if variant is Variant.PROPOSED:
            rows.append(orientation_measurement(surface["rot"][k], fk_rot["rot"][k],
                                                NOISE).H @ phi)
    return np.concatenate(rows)


@pytest.mark.parametrize("pitch_amplitude, variant, unobservable", [
    (0.0, Variant.PROPOSED, 4),         # level: yaw and the common translation
    (0.0, Variant.POSITION_ONLY, 4),
    (None, Variant.POSITION_ONLY, 4),   # rocking, without the orientation update
    (None, Variant.PROPOSED, 3),        # rocking: the surface normal reveals yaw
])
def test_unobservable_dimension(pitch_amplitude, variant, unobservable):
    surface = (SurfaceConfig() if pitch_amplitude is None
               else SurfaceConfig(pitch_amplitude=pitch_amplitude))
    stream = one_stream(generate_truth(GaitConfig(duration=1.2), surface, 3),
                        NOISE, Rates(), 3)
    o = observability_matrix(stream, variant)
    assert 12 - np.linalg.matrix_rank(o) == unobservable
