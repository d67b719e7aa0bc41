"""LinDist3Flow voltage-drop matrices A and B of a branch.

Kept apart from ``lindist`` so that ``network`` can stack every branch's
A and B once per feeder without importing the linear model built on it.
See ``lindist`` for the model and the role of Gamma.
"""

import numpy as np

_ALPHA = np.exp(-2j * np.pi / 3)

GAMMA = np.array([[1.0, _ALPHA ** 2, _ALPHA],
                  [_ALPHA, 1.0, _ALPHA ** 2],
                  [_ALPHA ** 2, _ALPHA, 1.0]])

GAMMA_RE = np.real(GAMMA)
GAMMA_IM = np.imag(GAMMA)


def ab_matrices(r_pu: np.ndarray, x_pu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voltage-drop coefficient matrices (A, B) of one branch, per-unit, or
    of a stack of branches given (..., 3, 3) impedances."""
    r = np.asarray(r_pu, dtype=float)
    x = np.asarray(x_pu, dtype=float)
    a = 2.0 * (GAMMA_RE * r + GAMMA_IM * x)
    b = 2.0 * (GAMMA_RE * x - GAMMA_IM * r)
    return a, b
