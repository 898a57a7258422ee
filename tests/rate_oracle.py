"""Time propagation of the rate equation (test oracle only).

Explicit RK4 steps of dp/dt = gamma @ p: after many relaxation times the
populations reach the stationary state that `ltrans.steady.full_secular_steady`
solves for directly.
"""

import numpy as np

from ltrans.redfield import RateMatrix


def propagate_rate_equation(rates: RateMatrix, p0: np.ndarray, t: float,
                            steps: int = 200000) -> np.ndarray:
    """Populations at time t from p0, by `steps` explicit RK4 steps."""
    g = rates.gamma
    p = np.asarray(p0, dtype=float).copy()
    h = t / steps
    for _ in range(steps):
        k1 = g @ p
        k2 = g @ (p + 0.5 * h * k1)
        k3 = g @ (p + 0.5 * h * k2)
        k4 = g @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p
