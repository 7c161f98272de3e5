"""The renewal importance-sampling ARLFA curve against exact and direct routes.

The exact route is a Brook-Evans Markov chain (Biometrika 1972): the CuSum
statistic on [0, a] is discretized into an atom at 0 and ``n`` intervals
represented by their midpoints, and the expected run length from 0 solves
(I - P) L = 1.  Plain CuSum and random transmission have i.i.d. increments,
so the chain is exact up to the discretization, whose error falls as 1/n^2.
"""

import hashlib
import math

import numpy as np
import pytest

from cusumac.detectors import CusumSpec, RandomTxSpec, two_level
from cusumac.montecarlo import estimate_arlfa
from cusumac.renewal import arlfa_curve

_normal_cdf = np.vectorize(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)))


def brook_evans_arl(a: float, n: int, mixture) -> float:
    """ARL from 0 of CuSum with a strict alarm at ``a`` and increments from ``mixture``.

    ``mixture`` lists (weight, mean, sd) Gaussian components; sd = 0 is an
    atom at 0 (an increment that leaves the statistic where it is).
    """
    width = a / n
    x = np.concatenate([[0.0], (np.arange(1, n + 1) - 0.5) * width])
    edges = np.arange(n + 1) * width
    P = np.zeros((n + 1, n + 1))
    for weight, mean, sd in mixture:
        if sd == 0.0:
            P += weight * np.eye(n + 1)
            continue
        below = _normal_cdf((edges[None, :] - x[:, None] - mean) / sd)
        P[:, 0] += weight * below[:, 0]
        P[:, 1:] += weight * np.diff(below, axis=1)
    return float(np.linalg.solve(np.eye(n + 1) - P, np.ones(n + 1))[0])


def fused_mixture(m: int, epsilon: float, mu1: float = 0.5):
    """The fused increment of m N(0,1) -> N(mu1,1) sensors each sending with prob epsilon.

    Each sent LLR is N(-mu1^2/2, mu1^2); k senders sum to N(-k mu1^2/2, k mu1^2).
    """
    d = mu1 * mu1
    return [(math.comb(m, k) * epsilon**k * (1 - epsilon) ** (m - k),
             -k * d / 2, math.sqrt(k * d)) for k in range(m + 1)]


class TestBrookEvans:
    @pytest.mark.parametrize("detector, epsilon", [(CusumSpec(0.0), 1.0),
                                                   (RandomTxSpec(0.0, 0.4), 0.4)])
    def test_curve_matches_the_exact_chain(self, pairs3, detector, epsilon):
        grid = [5.0, 7.0, 20.0]
        curve = arlfa_curve(detector, pairs3, grid, 20_000, seed=41)
        for i, a in enumerate(grid):
            exact = brook_evans_arl(a, 1000, fused_mixture(3, epsilon))
            est = curve.estimate(i)
            assert abs(est.mean - exact) <= 3 * est.std_error, (a, est, exact)

    def test_chain_reproduces_known_values(self):
        # Plain CuSum, fused increment N(-0.375, 0.75): 1062.0 at a = 5.
        assert brook_evans_arl(5.0, 500, fused_mixture(3, 1.0)) == pytest.approx(1062.0,
                                                                                  rel=1e-4)


class TestAgainstEngine:
    @pytest.mark.parametrize("family, m, a", [
        ("cusum", 3, 4.0),
        ("cusum_ac", 1, 3.5),
        ("cusum_ac", 3, 4.0),
        ("random_tx", 3, 4.0),
    ])
    def test_curve_matches_direct_arlfa(self, pair, family, m, a):
        pairs = [pair] * m
        if family == "cusum":
            make = CusumSpec
        elif family == "random_tx":
            make = lambda a: RandomTxSpec(a, 0.4)
        else:
            a1, eps1 = (0.78, 0.63) if m == 1 else (0.79, 0.27)
            make = lambda a: two_level(pairs, a, a1, eps1)
        curve = arlfa_curve(make(a), pairs, [a], 10_000, seed=42)
        direct = estimate_arlfa(make(a), pairs, 2000, cap=10_000_000, seed=43)
        est = curve.estimate(0)
        assert direct.truncated_reps == 0 and est.truncated_reps == 0
        band = 3 * math.hypot(est.std_error, direct.std_error)
        assert abs(est.mean - direct.mean) <= band, (est, direct)


# sha256 of ArlfaCurve.sums for three sensors, 1500 legs rounded up to two
# leg batches, seed 46, regenerated when each batch of legs came to draw one
# stream per leg kind.
GOLDEN_SUMS = {
    "cusum": "6965fdd5e9cd9a62c099d6b18254f1c584f4c951de5b8a951b4d09c44c705df2",
    "random_tx": "8d0bb74ff352b30c392efed9f44ca8c3e8ae0f85295b2c35ad7f9062fb92dd6c",
    "cusum_ac": "12942bc1e35df9ff74210aa0baf6241f7b47989a42c6f5e791192a33fbbf80a9",
}


class TestCurve:
    @pytest.mark.parametrize("family", sorted(GOLDEN_SUMS))
    def test_three_sensor_sums_golden(self, pairs3, family):
        if family == "cusum_ac":
            detector = two_level(pairs3, math.inf, 0.79, 0.27)
            grid = [0.8, 2.0, 4.0, 6.0]
        else:
            detector = CusumSpec(0.0) if family == "cusum" else RandomTxSpec(0.0, 0.4)
            grid = [0.0, 2.0, 4.0, 6.0]
        curve = arlfa_curve(detector, pairs3, grid, 1500, seed=46)
        assert hashlib.sha256(curve.sums.tobytes()).hexdigest() == GOLDEN_SUMS[family]
        assert curve.capped == 0

    def test_growing_in_steps_equals_one_build(self, pair):
        family = two_level(pair, math.inf, 0.78, 0.63)
        grid = [0.9, 2.0, 3.5, 5.0]
        once = arlfa_curve(family, pair, grid, 2500, seed=44)
        grown = arlfa_curve(family, pair, grid, 700, seed=44).grown(1900).grown(2500)
        assert grown.n_legs == once.n_legs == 3000
        assert np.array_equal(grown.sums, once.sums)
        assert np.array_equal(grown.mean, once.mean)
        assert np.array_equal(grown.std_error, once.std_error)

    def test_leg_count_rounds_up_to_whole_batches(self, pairs3):
        detector = RandomTxSpec(0.0, 0.4)
        part = arlfa_curve(detector, pairs3, [2.0, 4.0], 1500, seed=47)
        whole = arlfa_curve(detector, pairs3, [2.0, 4.0], 2000, seed=47)
        assert part.n_legs == whole.n_legs == 2000
        assert np.array_equal(part.sums, whole.sums)
        assert part.capped == whole.capped

    def test_curve_is_nondecreasing_and_above_exp_a(self, pairs3):
        # Every increment's exponential has mean one before the change, so
        # ARLFA(a) >= e^a; the calibration grid's upper bracket rests on it.
        family = two_level(pairs3, math.inf, 0.79, 0.27)
        grid = np.arange(0.8, 9.3, 0.5)
        curve = arlfa_curve(family, pairs3, grid, 2000, seed=45)
        assert (np.diff(curve.mean) >= 0).all()
        assert (curve.mean >= np.exp(grid)).all()

    def test_grid_must_be_legal_thresholds(self, pair):
        family = two_level(pair, math.inf, 0.78, 0.63)
        with pytest.raises(ValueError, match="above a1"):
            arlfa_curve(family, pair, [0.78, 2.0], 100, seed=1)
        with pytest.raises(ValueError, match="nondecreasing"):
            arlfa_curve(CusumSpec(0.0), pair, [2.0, 1.0], 100, seed=1)
        with pytest.raises(ValueError, match="nonnegative"):
            arlfa_curve(CusumSpec(0.0), pair, [-1.0, 1.0], 100, seed=1)

    def test_sensor_count_mismatch_is_the_engine_error(self, pair):
        # A one-sensor config on three pairs would leave sensors 2-3 uncensored.
        family = two_level(pair, math.inf, 0.78, 0.63)
        with pytest.raises(ValueError, match="config has 1 sensors, got 3 pairs"):
            arlfa_curve(family, [pair] * 3, [3.0], 100, seed=1)
