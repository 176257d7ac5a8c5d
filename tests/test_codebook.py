"""Codebook construction and inverse normal CDF accuracy."""

import hashlib
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lqdec.codebook import (
    SUPPORTED_BITS,
    TAIL_DELTA,
    build_codebook,
    inverse_normal_cdf,
    normal_cdf,
)


def bisect_inverse_cdf(p, iters=200):
    """Independent oracle: bisection on the forward CDF.

    Solves on the lower half only, where erfc keeps full relative
    precision, and mirrors the upper half through the exact complement.
    """
    if p > 0.5:
        return -bisect_inverse_cdf(1.0 - p, iters)
    lo, hi = -40.0, 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


class TestInverseNormalCdf:
    def test_median_is_exactly_zero(self):
        assert inverse_normal_cdf(0.5) == 0.0

    def test_classic_quantile(self):
        # 97.5th percentile of the standard normal
        assert inverse_normal_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3, 0.45, 0.499):
            assert inverse_normal_cdf(p) == pytest.approx(-inverse_normal_cdf(1 - p), abs=1e-12)

    @pytest.mark.parametrize("p", [1e-10, 1e-6, 1e-3, 0.025, 0.2, 0.5, 0.8, 0.999999, 1 - 1e-10,
                                   1e-30, 1e-82, 1e-200, 1e-300])
    def test_against_bisection(self, p):
        assert inverse_normal_cdf(p) == pytest.approx(bisect_inverse_cdf(p), abs=1e-9)

    def test_against_scipy_grid(self):
        ps = np.linspace(1e-9, 1 - 1e-9, 20001)
        ours = np.array([inverse_normal_cdf(p) for p in ps])
        assert np.max(np.abs(ours - scipy.special.ndtri(ps))) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)

    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    @settings(max_examples=200)
    def test_round_trip_through_forward_cdf(self, p):
        x = inverse_normal_cdf(p)
        assert normal_cdf(x) == pytest.approx(p, abs=1e-12)


class TestCodebook:
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_exact_endpoints_and_zero(self, bits):
        cb = build_codebook(bits)
        assert cb.levels[0] == -1.0
        assert cb.levels[cb.zero_index] == 0.0
        assert cb.levels[-1] == 1.0

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_sizes(self, bits):
        cb = build_codebook(bits)
        assert len(cb) == 2 ** bits
        assert len(cb.levels) == 2 ** bits
        assert len(cb.probabilities) == 2 ** bits
        assert len(cb.midpoints) == 2 ** bits - 1
        assert cb.zero_index == 2 ** (bits - 1) - 1

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_strictly_increasing(self, bits):
        cb = build_codebook(bits)
        assert np.all(np.diff(cb.levels) > 0)
        assert np.all(np.diff(cb.probabilities) > 0)

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_midpoints_between_levels(self, bits):
        cb = build_codebook(bits)
        expected = 0.5 * (cb.levels[:-1] + cb.levels[1:])
        assert np.allclose(cb.midpoints, expected, rtol=0, atol=0)

    def test_two_bit_probabilities(self):
        # linspace(delta, 1/2, 2) then linspace(1/2, 1 - delta, 3), the
        # shared median kept once
        cb = build_codebook(2)
        d = TAIL_DELTA
        expected = [d, 0.5, 0.75 - d / 2, 1 - d]
        assert np.allclose(cb.probabilities, expected, rtol=0, atol=1e-15)

    def test_tail_delta_value(self):
        assert TAIL_DELTA == 0.5 * (1.0 / 30.0 + 1.0 / 32.0)

    def test_four_bit_levels_match_published_table(self):
        # reference values rounded to float32 elsewhere, hence the loose bound
        reference = np.array([
            -1.0, -0.6961928009986877, -0.5250730514526367, -0.39491748809814453,
            -0.28444138169288635, -0.18477343022823334, -0.09105003625154495, 0.0,
            0.07958029955625534, 0.16093020141124725, 0.24611230194568634,
            0.33791524171829224, 0.4407098591327667, 0.5626170039176941,
            0.7229568362236023, 1.0,
        ])
        cb = build_codebook(4)
        assert np.max(np.abs(cb.levels - reference)) < 1e-6

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_levels_match_quantile_construction(self, bits):
        cb = build_codebook(bits)
        lo = np.linspace(TAIL_DELTA, 0.5, 2 ** (bits - 1))
        hi = np.linspace(0.5, 1 - TAIL_DELTA, 2 ** (bits - 1) + 1)
        probs = np.concatenate([lo, hi[1:]])
        ref = scipy.special.ndtri(probs) / scipy.special.ndtri(1 - TAIL_DELTA)
        assert np.max(np.abs(cb.levels - ref)) < 1e-12

    # Stored containers hold codes, not levels, so they decode through
    # these exact floats; any change to the quantile path must keep them.
    GOLDEN_LEVELS_SHA256 = {
        2: "08d0a0eb540b19c9a836baae397e3fdc3dbfb3c1da332661b0cd62f677a87936",
        3: "dc0efed39570df81f185b567da6f7db20a58f4980766e36528bcab1be66e9b7b",
        4: "df29a21cbd98fc9ee7df4ae8e13c0bc85b1f22c0af2fcbe2ff13e6b6b5f9ebc7",
        8: "b36733383202762542b7357f30ffbb11852ddd0a2304d614bae9940049872c80",
    }

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_levels_are_bit_identical_to_golden(self, bits):
        digest = hashlib.sha256(build_codebook(bits).levels.tobytes()).hexdigest()
        assert digest == self.GOLDEN_LEVELS_SHA256[bits]

    @pytest.mark.parametrize("bits", [0, 1, 5, 16])
    def test_unsupported_bits(self, bits):
        with pytest.raises(ValueError):
            build_codebook(bits)

    def test_arrays_are_frozen(self):
        cb = build_codebook(4)
        with pytest.raises(ValueError):
            cb.levels[0] = 5.0

    def test_cached(self):
        assert build_codebook(4) is build_codebook(4)
