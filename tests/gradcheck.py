"""Central-finite-difference check of an analytic gradient, for the tests."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_index: int
    n_params: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(f, x0: np.ndarray, h: float = 1e-3, tol: float = 1e-4) -> GradCheckReport:
    """Compare f's analytic gradient against central finite differences.

    f maps a flat parameter vector to (value, gradient). The relative error
    denominator is floored at 1e-6, the checker's noise floor; f should be
    smooth near x0 (keep away from OHEM cutoffs and smooth-L1 kinks).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    _, analytic = f(x0)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x0.shape:
        raise ValueError("gradient shape mismatch")
    numeric = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        up, _ = f(x0 + step)
        down, _ = f(x0 - step)
        numeric[i] = (up - down) / (2.0 * h)
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    return GradCheckReport(
        max_rel_error=float(rel.max()) if rel.size else 0.0,
        worst_index=worst,
        n_params=int(x0.size),
        tol=tol,
    )
