"""Gaussian-quantile codebooks for block-scaled weight coding.

The codebook for ``b`` bits places ``2**(b-1)`` probabilities evenly on
``[delta, 1/2]`` and ``2**(b-1) + 1`` probabilities evenly on
``[1/2, 1 - delta]``, counting the shared midpoint once, then maps them
through the standard normal quantile function and normalizes by the
largest quantile.  The resulting levels span exactly [-1, 1] and contain
an exact zero, so an absmax-scaled block always has a representable
maximum and a representable zero.

The quantile starts from the standard library's ``NormalDist.inv_cdf``
(Wichura's AS241) and takes up to two Newton steps on the forward CDF.
The polish is what fixes the levels bit for bit: the estimate alone
moves some levels by a few ulps, and a stored container holds codes,
not levels, so it would decode to different floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

SUPPORTED_BITS = (2, 3, 4, 8)

# Tail probability assigned to the outermost codebook entries: the
# midpoint of 1/30 and 1/32, i.e. 31/960.
TAIL_DELTA = 0.5 * (1.0 / 30.0 + 1.0 / 32.0)

_SQRT2 = math.sqrt(2.0)

_STANDARD_NORMAL = NormalDist()


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _lower_half_quantile(p: float) -> float:
    """Quantile for 0 < p <= 1/2, where the float forward CDF is precise."""
    x = _STANDARD_NORMAL.inv_cdf(p)
    # Newton refinement; the estimate is already accurate so two steps
    # reach double-precision roundoff.  Skipped in the far tails where
    # the density underflows the correction.
    for _ in range(2):
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        if pdf < 1e-280:
            break
        step = (normal_cdf(x) - p) / pdf
        x -= step
        if abs(step) <= 1e-13 * max(1.0, abs(x)):
            break
    return x


def inverse_normal_cdf(p: float) -> float:
    """Quantile function of the standard normal distribution.

    AS241 initial estimate polished by Newton steps on the forward CDF.
    The upper half mirrors the lower half through the exact complement
    1 - p, keeping full precision where the CDF saturates toward 1.
    Relative error stays within a few ulps over all of (0, 1), down to
    subnormal p; exactly zero at p = 1/2.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly inside (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        # 1 - p is exact for p in [1/2, 1)
        return -_lower_half_quantile(1.0 - p)
    return _lower_half_quantile(p)


@dataclass(frozen=True)
class Codebook:
    """Sorted quantization levels for one bit width."""

    bits: int
    probabilities: np.ndarray
    levels: np.ndarray
    midpoints: np.ndarray

    def __len__(self) -> int:
        return self.levels.size

    @property
    def zero_index(self) -> int:
        # The probability grid puts 1/2 here, so the level is exactly 0.
        return (1 << (self.bits - 1)) - 1


@lru_cache(maxsize=None)
def build_codebook(bits: int) -> Codebook:
    """Construct the ``2**bits``-entry codebook for a supported width."""
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported codebook width {bits!r}, expected one of {SUPPORTED_BITS}")
    half = 1 << (bits - 1)
    lower = np.linspace(TAIL_DELTA, 0.5, half)
    upper = np.linspace(0.5, 1.0 - TAIL_DELTA, half + 1)
    probs = np.concatenate([lower, upper[1:]])
    quantiles = np.array([inverse_normal_cdf(p) for p in probs])
    # The outermost probabilities are exact complements, so their
    # quantiles are exact negatives; realize that identity in floats so
    # normalization lands the endpoints on -1 and +1 exactly.
    quantiles[-1] = -quantiles[0]
    levels = quantiles / quantiles[-1]
    mids = 0.5 * (levels[:-1] + levels[1:])
    for arr in (probs, quantiles, levels, mids):
        arr.flags.writeable = False
    return Codebook(bits=bits, probabilities=probs, levels=levels, midpoints=mids)
