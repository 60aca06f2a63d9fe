"""Statistics helpers for experiment reporting.

The paper reports plain means (e.g. "the average of 100 random
patterns").  For judging reproduction quality we additionally want
dispersion and simple uncertainty estimates; these helpers are used by
the experiment drivers and the benches.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and (n-1) standard deviation (0 for n < 2)."""
    if not values:
        raise ValueError("no values")
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def mean_ci(
    values: Sequence[float], *, confidence: float = 0.95
) -> tuple[float, float]:
    """Mean and half-width of a normal-approximation confidence interval.

    Uses the z quantile (1.96 at 95%); fine for the >=20-sample sweeps
    the drivers run, conservative enough for quick runs.
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    mean, std = mean_std(values)
    if len(values) < 2:
        return mean, 0.0
    # Abramowitz-Stegun rational approximation of the normal quantile.
    z = _normal_quantile(0.5 + confidence / 2)
    return mean, z * std / math.sqrt(len(values))


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    # Coefficients for the central region approximation.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p <= 1 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
    )


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference| (inf-safe)."""
    if reference == 0:
        return 0.0 if measured == 0 else math.inf
    return abs(measured - reference) / abs(reference)


def within(measured: float, reference: float, rel: float) -> bool:
    """True iff ``measured`` is within ``rel`` of ``reference``."""
    return relative_error(measured, reference) <= rel
