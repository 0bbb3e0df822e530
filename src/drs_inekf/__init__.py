"""Invariant EKF for bipedal walking on moving rigid surfaces.

Subpackages: `liegroup` (SO(3)/SE_3(3) math), `models` (process and
right-invariant measurement models), `filter` (the estimator), `sim`
(synthetic scenario and sensor synthesis), `harness` (Monte Carlo runner),
`cli` (command-line front end).
"""

__version__ = "0.1.0"
