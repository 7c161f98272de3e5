import math

import numpy as np
import pytest

from cusumac import renewal
from cusumac._engine import _rep_draws, _StepTables
from cusumac.montecarlo import McEstimate, estimate_arlfa, estimate_comm_rate, pre_change_run
from cusumac.detectors import CusumSpec, two_level
from cusumac.renewal import (
    _WALK_BLOCK,
    _WALK_FIRST,
    _batch_draws,
    _walk,
    CycleStats,
    check_eprime_membership,
    estimate_cycle,
    estimate_cycle_direct,
    feedback_expectation,
    rate_upper_bound,
)

from test_calibration import _no_walk

# Exit probability of the one-step band: P(llr < 0) = Phi(0.25).
P_RETURN_DEGENERATE = 0.598706

# Single-sensor means (eta0, eta0_given_return, phi_given_return, t_a1,
# p_return) and capped_walks at (a1, a, eps1, seed), 2000 reps, generated
# before the three cycle legs shared one walker, when t_a1 came from the
# engine's plain-CuSum run.
GOLDEN_M1 = [
    ((0.78, 4.5, 0.63, 31),
     (3.0875, 3.017570281124498, 10.328313253012048, 12.126, 0.996), 0),
    ((0.78, math.inf, 0.63, 32), (3.2115, 3.2115, 9.5455, 12.6445, 1.0), 0),
    ((0.78, 0.78 + 1e-9, 0.5, 33),
     (1.0, 1.0, 11.318030050083472, 12.3485, 0.599), 0),
]

# The same means and capped_walks for three sensors sharing one strategy,
# 2000 reps, generated before the walker stepped the engine's step table.
GOLDEN_M3 = [
    ((0.78, 4.5, 0.63, 34),
     (2.0865, 2.0544354838709675, 8.23991935483871, 8.9745, 0.992), 0),
    ((0.79, math.inf, 0.27, 35), (2.0845, 2.0845, 9.366, 8.92, 1.0), 0),
]


def make_stats(eta_ret, phi_ret, p_return, eps1=0.5, t_a1=5.0, se=1e-6):
    def est(v):
        return McEstimate(mean=v, std_error=se, n_reps=1000)

    return CycleStats(
        eps1=eps1,
        eta0=est(eta_ret), eta0_given_return=est(eta_ret),
        phi_given_return=est(phi_ret), t_a1=est(t_a1), p_return=est(p_return),
        return_value_samples=np.zeros(1), capped_walks=0)


class TestCycleEstimation:
    def test_vanishing_band_degenerates(self, pair):
        stats = estimate_cycle(two_level(pair, 0.78 + 1e-9, 0.78, 0.5), pair,
                               n_reps=4000, seed=1)
        assert stats.eta0.mean == pytest.approx(1.0, abs=1e-6)
        se = stats.p_return.std_error
        assert abs(stats.p_return.mean - P_RETURN_DEGENERATE) <= 3 * se

    def test_composition_identity(self, pair):
        # Two independent routes to the mean cycle length: the eta/phi
        # decomposition against whole cycles stepped through the detector.
        cfg = two_level(pair, 4.5, 0.78, 0.63)
        stats = estimate_cycle(cfg, pair, n_reps=6000, seed=2)
        direct = estimate_cycle_direct(cfg, pair, n_cycles=3000, seed=3)
        p = stats.p_return.mean
        composed = stats.eta0.mean + p * stats.phi_given_return.mean
        se = math.sqrt(
            stats.eta0.std_error ** 2
            + (p * stats.phi_given_return.std_error) ** 2
            + (stats.phi_given_return.mean * stats.p_return.std_error) ** 2
            + direct.cycle_length.std_error ** 2)
        assert abs(direct.cycle_length.mean - composed) <= 3 * se
        p_se = math.hypot(stats.p_return.std_error, direct.p_return.std_error)
        assert abs(direct.p_return.mean - stats.p_return.mean) <= 3 * p_se

    @pytest.mark.parametrize("config, means, capped", GOLDEN_M1)
    def test_single_sensor_golden(self, pair, config, means, capped):
        a1, a, eps1, seed = config
        stats = estimate_cycle(two_level(pair, a, a1, eps1), pair, n_reps=2000, seed=seed)
        got = (stats.eta0.mean, stats.eta0_given_return.mean,
               stats.phi_given_return.mean, stats.t_a1.mean, stats.p_return.mean)
        assert got == means
        assert stats.capped_walks == capped

    @pytest.mark.parametrize("config, means, capped", GOLDEN_M3)
    def test_three_sensor_golden(self, pairs3, config, means, capped):
        a1, a, eps1, seed = config
        stats = estimate_cycle(two_level(pairs3, a, a1, eps1), pairs3, n_reps=2000,
                               seed=seed)
        got = (stats.eta0.mean, stats.eta0_given_return.mean,
               stats.phi_given_return.mean, stats.t_a1.mean, stats.p_return.mean)
        assert got == means
        assert stats.capped_walks == capped

    def test_composition_identity_fused(self, pairs3):
        # The identity for the fused 3-sensor statistic, against whole cycles
        # stepped through cusum_ac_multi_step.
        cfg = two_level(pairs3, 4.5, 0.78, 0.63)
        stats = estimate_cycle(cfg, pairs3, n_reps=6000, seed=17)
        direct = estimate_cycle_direct(cfg, pairs3, n_cycles=3000, seed=18)
        p = stats.p_return.mean
        composed = stats.eta0.mean + p * stats.phi_given_return.mean
        se = math.sqrt(
            stats.eta0.std_error ** 2
            + (p * stats.phi_given_return.std_error) ** 2
            + (stats.phi_given_return.mean * stats.p_return.std_error) ** 2
            + direct.cycle_length.std_error ** 2)
        assert abs(direct.cycle_length.mean - composed) <= 3 * se

    def test_fused_t_a1_matches_engine_arlfa(self, pairs3):
        # The plain-CuSum leg against the engine's ARLFA run at threshold a1.
        a1 = 0.78
        stats = estimate_cycle(two_level(pairs3, math.inf, a1, 0.63), pairs3, n_reps=4000,
                               seed=19)
        arl = estimate_arlfa(CusumSpec(a1), pairs3, 2000, cap=100_000, seed=20)
        se = math.hypot(stats.t_a1.std_error, arl.std_error)
        assert abs(stats.t_a1.mean - arl.mean) <= 3 * se

    def test_open_band_walks_stay_finite(self, pair):
        stats = estimate_cycle(two_level(pair, math.inf, 0.78, 0.63), pair,
                               n_reps=3000, seed=4)
        assert stats.capped_walks == 0
        assert stats.p_return.mean == 1.0
        assert np.all(stats.return_value_samples < 0.78)

    def test_eta_stable_as_band_grows(self, pair):
        s10 = estimate_cycle(two_level(pair, 10.0, 0.78, 0.63), pair, n_reps=6000, seed=5)
        sinf = estimate_cycle(two_level(pair, math.inf, 0.78, 0.63), pair, n_reps=6000,
                              seed=6)
        se = math.hypot(s10.eta0.std_error, sinf.eta0.std_error)
        assert abs(s10.eta0.mean - sinf.eta0.mean) <= 3 * se


@pytest.mark.parametrize("estimator", [estimate_cycle, estimate_cycle_direct])
class TestCycleRefusals:
    # Each detector is refused before a leg is walked or a cycle is stepped.
    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        monkeypatch.setattr(renewal, "_walk", _no_walk)
        monkeypatch.setattr(renewal, "cusum_ac_multi_step", _no_walk)

    def test_plain_cusum_refused(self, pairs3, estimator):
        with pytest.raises(TypeError, match="need a CusumAcConfig"):
            estimator(CusumSpec(4.0), pairs3, 200, 21)

    def test_one_strategy_for_three_pairs_refused(self, pair, pairs3, estimator):
        with pytest.raises(ValueError, match="config has 1 sensors, got 3 pairs"):
            estimator(two_level(pair, 4.0, 0.78, 0.63), pairs3, 200, 21)

    def test_mixed_rates_refused(self, pairs3, estimator):
        with pytest.raises(ValueError, match="one censored rate"):
            estimator(two_level(pairs3, 4.0, 0.78, [0.27, 0.63, 0.63]), pairs3, 200, 21)


class _RecordingPair:
    """Delegates to a pair and records the size of every sample0 and sample1 request."""

    def __init__(self, pair):
        self.pair = pair
        self.sizes = []

    def sample0(self, rng, size=None):
        self.sizes.append(size)
        return self.pair.sample0(rng, size)

    def sample1(self, rng, size=None):
        self.sizes.append(size)
        return self.pair.sample1(rng, size)

    def __getattr__(self, name):
        return getattr(self.pair, name)


class TestWalkDraws:
    def test_short_leg_draws_one_first_block(self, pair):
        sensors = [_RecordingPair(pair), _RecordingPair(pair)]
        # A vanishing band: every walk leaves it at its first step.
        tab = _StepTables(CusumSpec(0.0), sensors)
        dur, _, capped = _walk(tab, False, np.full(50, 0.78), 0.78, 0.78 + 1e-9,
                               _rep_draws(tab, 1, 0, 50, None), cap=10_000)
        assert capped == 0 and (dur == 1).all()
        for rec in sensors:
            assert rec.sizes == [(1, _WALK_FIRST)] * 50

    def test_long_leg_blocks_double_up_to_the_largest(self, pair):
        rec = _RecordingPair(pair)
        schedule = [16, 16, 32, 64, 128, 256, 256, 100]
        cap = sum(schedule)
        tab = _StepTables(CusumSpec(0.0), [rec])
        dur, exit_s, capped = _walk(tab, False, np.zeros(3), -math.inf, math.inf,
                                    _rep_draws(tab, 2, 0, 3, None), cap=cap)
        assert capped == 3 and (dur == cap).all() and np.isnan(exit_s).all()
        assert schedule[0] == _WALK_FIRST and max(schedule) == _WALK_BLOCK
        assert rec.sizes == [(1, b) for b in schedule for _ in range(3)]

    def test_curve_batch_draws_one_array_per_sensor_per_block(self, pair):
        # The curve's walks share one stream: each block is one (n_active, B)
        # draw per sensor, whatever the number of legs still walking.
        sensors = [_RecordingPair(pair), _RecordingPair(pair)]
        tab = _StepTables(CusumSpec(0.0), sensors)
        schedule = [16, 16, 32, 64, 128, 256, 256, 100]
        cap = sum(schedule)
        dur, _, capped = _walk(tab, False, np.zeros(3), -math.inf, math.inf,
                               _batch_draws(tab, [2, 0, 0], False), cap=cap)
        assert capped == 3 and (dur == cap).all()
        for rec in sensors:
            assert rec.sizes == [(3, b) for b in schedule]
            rec.sizes.clear()
        starts = np.linspace(0.0, 3.0, 40)
        dur, _, _ = _walk(tab, False, starts, 0.0, 3.0, _batch_draws(tab, [2, 1000, 1], True),
                          cap=10_000)
        active = [int((dur > k).sum()) for k in np.cumsum([0, 16, 16, 32, 64, 128])]
        expected = [(n, b) for n, b in zip(active, [16, 16, 32, 64, 128, 256]) if n]
        for rec in sensors:
            assert rec.sizes == expected


class TestEprimeMembership:
    def test_full_rate_is_rejected(self, pair):
        # Without censoring the climb from a re-entry point is strictly
        # faster than a fresh run to a1.
        stats = estimate_cycle(two_level(pair, math.inf, 0.78, 1.0), pair, n_reps=6000,
                               seed=9)
        check = check_eprime_membership(stats)
        assert check.verdict == "rejected"

    def test_heavy_censoring_is_member(self, pair):
        stats = estimate_cycle(two_level(pair, math.inf, 0.78, 0.1), pair, n_reps=4000,
                               seed=10)
        check = check_eprime_membership(stats)
        assert check.verdict == "member"

    def test_margin_grows_as_rate_shrinks(self, pair):
        margins = []
        for eps1 in (0.6, 0.3, 0.1):
            stats = estimate_cycle(two_level(pair, math.inf, 0.78, eps1), pair,
                                   n_reps=4000, seed=11)
            margins.append(check_eprime_membership(stats).margin)
        assert margins[0] < margins[1] < margins[2]

    def test_tiny_a1_everything_is_member(self, pair):
        stats = estimate_cycle(two_level(pair, math.inf, 0.05, 0.3), pair, n_reps=4000,
                               seed=12)
        assert check_eprime_membership(stats).verdict == "member"

    @pytest.mark.parametrize("phi, verdict, margin", [
        (1.0, "rejected", -math.inf), (7.0, "member", math.inf), (5.0, "indeterminate", 0.0)])
    def test_exact_means_decide_by_their_difference(self, phi, verdict, margin):
        stats = make_stats(2.0, phi_ret=phi, p_return=0.9, t_a1=5.0, se=0.0)
        assert check_eprime_membership(stats) == renewal.EprimeCheck(verdict, margin)


class TestRateUpperBound:
    def test_full_rate_bound_is_one(self):
        assert rate_upper_bound(make_stats(5.0, 20.0, 0.9, eps1=1.0)) == 1.0

    def test_phi_dominant_limit(self):
        stats = make_stats(eta_ret=2.0, phi_ret=1e9, p_return=0.99, eps1=0.37)
        assert rate_upper_bound(stats) == pytest.approx(0.37, abs=1e-6)

    def test_bound_dominates_measured_rate(self, pair):
        for (a1, eps1) in ((0.78, 0.63), (1.2, 0.3)):
            stats = estimate_cycle(two_level(pair, math.inf, a1, eps1), pair, n_reps=5000,
                                   seed=13)
            bound = rate_upper_bound(stats)
            cfg = two_level(pair, a1 + 100.0, a1, eps1)
            rate = estimate_comm_rate(cfg, pair, 10_000, 150, seed=14)
            assert rate.mean <= bound + 3 * rate.std_error

    @pytest.mark.parametrize("m, a1, eps1, seed", [(1, 0.5, 0.63, 15), (3, 0.79, 0.27, 16)])
    def test_ratio_is_the_no_stop_rate(self, pair, m, a1, eps1, seed):
        # Renewal-reward makes the ratio the long-run no-stop rate, so the
        # test is two-sided.  20 000 cycles give the ratio an SE of about
        # 0.0013 and 200 runs of 10^4 slots give the rate about 0.0005.
        # Start-up bias: a no-stop run starts at 0, inside the censored
        # region, and its first climb to a1 sends at eps1, below the ratio.
        # Measured with 60 000 runs of 100 and 300 slots, it falls 0.9 sends
        # per sensor short of ratio * T at M = 1 and 0.4 at M = 3, so the rate
        # over 10^4 slots reads low by under 1e-4, which the band adds.
        startup_bias, horizon = 1e-4, 10_000
        pairs = [pair] * m
        cfg = two_level(pairs, math.inf, a1, eps1)
        stats = estimate_cycle(cfg, pairs, n_reps=20_000, seed=seed)
        rate = estimate_comm_rate(cfg, pairs, horizon, 200, seed=seed + 100)
        # Delta method for (eta + eps1 * phi) / (eta + phi) in the means of
        # eta and phi given a return.
        eta, phi = stats.eta0_given_return, stats.phi_given_return
        ratio_se = ((1 - eps1) / (eta.mean + phi.mean) ** 2
                    * math.hypot(phi.mean * eta.std_error, eta.mean * phi.std_error))
        se = math.hypot(ratio_se, rate.std_error)
        assert abs(rate.mean - rate_upper_bound(stats)) <= 3 * se + startup_bias


class TestFeedback:
    def test_closed_form_points(self):
        assert feedback_expectation(make_stats(3.0, 8.0, 0.0)) == 2.0
        assert feedback_expectation(make_stats(3.0, 8.0, 0.5)) == 4.0

    def test_certain_return_is_unbounded(self):
        assert feedback_expectation(make_stats(3.0, 8.0, 1.0)) == math.inf

    def test_formula_matches_simulated_feedback(self, pair):
        # Per-alarm announcements counted by the detector vs the renewal
        # formula 2 / (1 - p_return); equivalently the up-crossings per alarm
        # are geometric with mean 1 / (1 - p_return).
        cfg = two_level(pair, 4.0, 0.78, 0.63)
        stats = estimate_cycle(cfg, pair, n_reps=8000, seed=15)
        run = pre_change_run(cfg, pair, 3000, cap=100_000, seed=16)
        predicted = feedback_expectation(stats)
        p, se_p = stats.p_return.mean, stats.p_return.std_error
        se_pred = 2.0 * se_p / (1.0 - p) ** 2
        combined = 3 * math.hypot(run.feedback_per_alarm.std_error, se_pred)
        assert abs(run.feedback_per_alarm.mean - predicted) <= combined
