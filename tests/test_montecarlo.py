import math
import os

import numpy as np
import pytest

from cusumac import _engine as eng, montecarlo
from cusumac.calibration import calibrate_threshold, threshold_curve
from cusumac.detectors import CusumSpec, RandomTxSpec, two_level
from cusumac.montecarlo import (
    InfeasibleError,
    delay_samples,
    estimate_arlfa,
    estimate_comm_rate,
    estimate_delay,
    paired_gap,
    pre_change_run,
    measure_performance,
    summarize,
)

# Analytic oracles for the zero-threshold degenerate detectors: the run
# length is geometric in the probability of a positive LLR increment.
# 1 / P_inf(llr > 0) = 1 / (1 - Phi(0.25)) and 1 / P_1(llr > 0).
ARLFA_AT_ZERO_THRESHOLD = 2.491941
DELAY_AT_ZERO_THRESHOLD = 1.670268


def three_se(*ests):
    return 3.0 * math.hypot(*[e.std_error for e in ests])


class TestArlfa:
    def test_degenerate_threshold_geometric_oracle(self, pair):
        est = estimate_arlfa(CusumSpec(0.0), pair, 4000, cap=2000, seed=1)
        assert abs(est.mean - ARLFA_AT_ZERO_THRESHOLD) <= 3 * est.std_error
        assert est.truncated_reps == 0

    def test_truncation_is_flagged(self, pair):
        est = estimate_arlfa(CusumSpec(9.0), pair, 200, cap=50, seed=2)
        assert est.truncated_reps == 200
        assert est.mean == 50.0

    def test_replication_floor(self, pair):
        with pytest.raises(ValueError, match="100"):
            estimate_arlfa(CusumSpec(1.0), pair, 50, cap=100, seed=3)

    @pytest.mark.parametrize("run", [estimate_arlfa, pre_change_run])
    def test_cap_must_be_positive(self, pair, run):
        with pytest.raises(ValueError, match="cap must be positive"):
            run(CusumSpec(1.0), pair, 100, cap=0, seed=3)

    def test_calibration_self_consistency(self, pair):
        curve = threshold_curve(CusumSpec(0.0), pair, [500.0], seed=4, tolerance=0.05)
        cal = calibrate_threshold(curve, 500.0)
        est = estimate_arlfa(CusumSpec(cal.a), pair, 2000, cap=50_000, seed=5)
        assert abs(est.mean - 500.0) <= max(3 * est.std_error, 0.05 * 500.0)

    def test_ac_dominates_cusum_at_same_threshold(self, pair):
        # Slow-regime censoring can only lengthen the pre-change run.
        cfg = two_level(pair, a=4.0, a1=0.78, eps1=0.2)
        ac = estimate_arlfa(cfg, pair, 1500, cap=500_000, seed=6)
        cu = estimate_arlfa(CusumSpec(4.0), pair, 1500, cap=500_000, seed=6)
        assert ac.mean >= cu.mean - three_se(ac, cu)
        assert ac.mean > cu.mean  # comfortably larger in practice


class TestDelay:
    def test_degenerate_threshold(self, pair):
        est = estimate_delay(CusumSpec(0.0), pair, 4000, seed=7, nu=1)
        assert abs(est.mean - DELAY_AT_ZERO_THRESHOLD) <= 3 * est.std_error

    def test_delay_decreases_with_divergence(self, pair):
        from cusumac import gaussian_mean_shift
        big_shift = gaussian_mean_shift(0.0, 1.0, 1.0)
        d_small = estimate_delay(CusumSpec(4.5), pair, 1000, seed=8)
        d_big = estimate_delay(CusumSpec(4.5), big_shift, 1000, seed=8)
        assert d_big.mean < d_small.mean

    def test_worst_history_equalizer(self, pair):
        cfg = two_level(pair, a=4.5, a1=0.78, eps1=0.63)
        d1 = estimate_delay(cfg, pair, 2000, seed=9, nu=1)
        d20 = estimate_delay(cfg, pair, 2000, seed=10, nu=20, worst_history=True)
        assert abs(d1.mean - d20.mean) <= three_se(d1, d20)

    @pytest.mark.parametrize("det", [CusumSpec(4.5), RandomTxSpec(4.5, 0.5)],
                             ids=["cusum", "random_tx"])
    def test_iid_worst_history_is_the_first_step_start(self, pair, det):
        # A statistic at zero when the change arrives is the nu = 1 start, so
        # the two delay laws are equal for the i.i.d. detectors.
        d1 = estimate_delay(det, pair, 2000, seed=13, nu=1)
        d20 = estimate_delay(det, pair, 2000, seed=14, nu=20, worst_history=True)
        assert abs(d1.mean - d20.mean) <= three_se(d1, d20)

    def test_unconditional_late_change_is_not_worst_case(self, pair):
        # Favorable pre-change histories shorten the delay, so the
        # unconditional nu > 1 mean sits below the worst-history one.
        cfg = two_level(pair, a=4.5, a1=0.78, eps1=0.63)
        plain = estimate_delay(cfg, pair, 3000, seed=11, nu=20)
        worst = estimate_delay(cfg, pair, 3000, seed=11, nu=20, worst_history=True)
        assert plain.mean < worst.mean - three_se(plain, worst) / 3

    def test_paired_gap_reduces_variance(self, pair):
        da, ta = delay_samples(CusumSpec(4.6), pair, 1500, seed=12)
        db, tb = delay_samples(CusumSpec(4.5), pair, 1500, seed=12)
        gap = paired_gap(da, db, ta + tb)
        delay_a, delay_b = summarize(da, ta), summarize(db, tb)
        assert gap.mean == pytest.approx(delay_a.mean - delay_b.mean, abs=1e-9)
        assert gap.std_error < 0.5 * math.hypot(delay_a.std_error, delay_b.std_error)
        assert gap.mean > 0  # higher threshold stops later on shared streams


class TestCommRate:
    def test_full_rate_levels_rate_one_exactly(self, pair):
        cfg = two_level(pair, a=6.0, a1=0.78, eps1=1.0)
        est = estimate_comm_rate(cfg, pair, 10_000, 50, seed=13)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_plain_cusum_rate_one(self, pair):
        est = estimate_comm_rate(CusumSpec(5.0), pair, 10_000, 20, seed=14)
        assert est.mean == 1.0

    def test_random_tx_rate_matches_epsilon(self, pair):
        est = estimate_comm_rate(RandomTxSpec(5.0, 0.3), pair, 10_000, 100, seed=15)
        assert abs(est.mean - 0.3) <= 3 * est.std_error

    def test_unreachable_top_level_rate_is_eps1(self, pair):
        cfg = two_level(pair, a=31.0, a1=30.0, eps1=0.4)
        est = estimate_comm_rate(cfg, pair, 10_000, 100, seed=16)
        assert abs(est.mean - 0.4) <= max(3 * est.std_error, 1e-3)

    def test_network_rate_symmetry(self, pair, pairs3):
        # Identical sensors switching levels together: every sensor's marginal
        # send rate must match the network average (the per-sensor count is
        # collected through the scalar multi-sensor step).
        from cusumac.detectors import cusum_ac_multi_step, initial_state

        cfg = two_level(pairs3, a=1000.0, a1=0.78, eps1=0.27)
        rng = np.random.default_rng(17)
        horizon = 12_000
        per_sensor = np.zeros(3)
        state = initial_state(cfg)
        for _ in range(horizon):
            xs = pair.sample0(rng, 3)
            state, sent = cusum_ac_multi_step(state, cfg, list(xs), pairs3)
            per_sensor += sent
        rates = per_sensor / horizon
        network = rates.mean()
        se = math.sqrt(network * (1 - network) / horizon)
        for r in rates:
            assert abs(r - network) <= 3 * se

    def test_two_horizon_agreement(self, pair):
        cfg = two_level(pair, a=6.0, a1=0.78, eps1=0.63)
        r1 = estimate_comm_rate(cfg, pair, 10_000, 120, seed=19)
        r2 = estimate_comm_rate(cfg, pair, 20_000, 120, seed=20)
        assert abs(r1.mean - r2.mean) <= three_se(r1, r2)
        # the rate always sits between the lowest level rate and full rate
        for est in (r1, r2):
            assert 0.63 <= est.mean <= 1.0

    def test_conditional_agrees_with_no_stop_at_large_a(self, pair):
        cfg = two_level(pair, a=8.0, a1=0.78, eps1=0.63)
        ns = estimate_comm_rate(cfg, pair, 10_000, 100, seed=21, mode="no_stop")
        cond = estimate_comm_rate(cfg, pair, 10_000, 100, seed=22, mode="conditional")
        assert abs(ns.mean - cond.mean) <= max(three_se(ns, cond), 0.01)

    def test_conditional_infeasible_when_survival_rare(self, pair):
        with pytest.raises(InfeasibleError):
            estimate_comm_rate(CusumSpec(2.0), pair, 10_000, 10, seed=23,
                               mode="conditional")

    def test_no_stop_rate_ignores_the_alarm_threshold(self, pairs3):
        # The grid search measures a candidate's rate before calibrating its
        # threshold, so the no_stop rate must be the same at every threshold.
        def ac(a):
            return two_level(pairs3, a, 0.78, 0.27)

        def rate(det):
            return estimate_comm_rate(det, pairs3, 10_000, 20, seed=25)

        assert rate(ac(2.0)) == rate(ac(50.0))
        assert rate(RandomTxSpec(2.0, 0.4)) == rate(RandomTxSpec(50.0, 0.4))

    def test_horizon_floor(self, pair):
        with pytest.raises(ValueError, match="10\\^4|10000"):
            estimate_comm_rate(CusumSpec(5.0), pair, 500, 10, seed=24)


class TestDiagnosticsAndDeterminism:
    def test_bit_identical_reruns(self, pair):
        cfg = two_level(pair, a=4.0, a1=0.78, eps1=0.63)
        a = pre_change_run(cfg, pair, 300, cap=100_000, seed=25)
        b = pre_change_run(cfg, pair, 300, cap=100_000, seed=25)
        assert a == b

    def test_worker_count_invariance(self, pair):
        one = estimate_arlfa(CusumSpec(4.0), pair, 200, cap=100_000, seed=26, n_jobs=1)
        two = estimate_arlfa(CusumSpec(4.0), pair, 200, cap=100_000, seed=26, n_jobs=2)
        assert one == two

    def test_worker_pool_capped_at_core_count(self, pair, monkeypatch):
        # A pool forks all its workers at once; an in-process stand-in records the size.
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        # The cores this process may run on cap the pool, not the machine's count.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        many = estimate_arlfa(CusumSpec(4.0), pair, 200, cap=100_000, seed=26, n_jobs=64)
        assert pools == [2]
        assert many == estimate_arlfa(CusumSpec(4.0), pair, 200, cap=100_000, seed=26, n_jobs=1)
        # Without an affinity call the core count caps it.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        estimate_arlfa(CusumSpec(4.0), pair, 200, cap=100_000, seed=26, n_jobs=64)
        assert pools == [2, 3]

    def test_one_pool_reused_until_a_map_raises(self, pair, monkeypatch):
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                self.closed = False
                pools.append(self)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self, wait=True, *, cancel_futures=False):
                self.closed = True

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        estimate_arlfa(CusumSpec(4.0), pair, 200, cap=100_000, seed=26, n_jobs=2)
        estimate_delay(CusumSpec(4.0), pair, 200, seed=26, n_jobs=2)
        assert len(pools) == 1 and not pools[0].closed
        with pytest.raises(ZeroDivisionError):
            montecarlo.pool_map(lambda t: 1 / t, [1, 0], 2)
        assert pools[0].closed
        assert montecarlo.pool_map(abs, [1, -2], 2) == [1, 2]
        assert len(pools) == 2

    def test_worker_count_invariance_on_kernel(self, pair):
        # The second worker's chunk starts at rep_offset > 0 on the kernel.
        cfg = two_level(pair, a=4.0, a1=0.78, eps1=0.63)
        one = pre_change_run(cfg, pair, 201, cap=100_000, seed=26, n_jobs=1)
        two = pre_change_run(cfg, pair, 201, cap=100_000, seed=26, n_jobs=2)
        assert one == two

    def test_frac_above_stabilizes_in_a(self, pair):
        cfg_stop = two_level(pair, a=0.78 + 5.0, a1=0.78, eps1=0.63)
        run = pre_change_run(cfg_stop, pair, 600, cap=200_000, seed=27)
        # Open-band surrogate: stopping disabled, fraction over a fixed horizon.
        batch = eng.run_batch(cfg_stop, [pair], n_reps=300, seed=28, limit=10_000,
                              stop_enabled=False)
        frac_inf = batch.time_above / 10_000.0
        se_inf = frac_inf.std(ddof=1) / math.sqrt(frac_inf.size)
        combined = 3 * math.hypot(run.frac_time_above_a1.std_error, se_inf)
        assert abs(run.frac_time_above_a1.mean - frac_inf.mean()) <= combined

    def test_measure_performance_bundle(self, pair):
        cfg = two_level(pair, a=4.0, a1=0.78, eps1=0.63)
        report = measure_performance(cfg, pair, n_reps=300, cap=100_000,
                                     horizon=10_000, seed=29)
        assert report.arlfa.mean > 0
        assert report.delay.mean > 0
        assert 0.0 <= report.comm_rate.mean <= 1.0
        assert 0.0 <= report.frac_time_above_a1.mean <= 1.0
        assert report.feedback_ratio.mean > 0


class TestOrderings:
    def test_delay_nonincreasing_in_rate_at_matched_arlfa(self, pair):
        zeta = 500.0
        delays = {}
        for eps1 in (0.3, 0.8, 1.0):
            family = two_level(pair, math.inf, 0.78, eps1)
            cal = calibrate_threshold(
                threshold_curve(family, pair, [zeta], seed=30, tolerance=0.04), zeta)
            cfg = two_level(pair, cal.a, 0.78, eps1)
            delays[eps1] = estimate_delay(cfg, pair, 2000, seed=31)
        assert delays[0.8].mean <= delays[0.3].mean + three_se(delays[0.8], delays[0.3])
        assert delays[1.0].mean <= delays[0.8].mean + three_se(delays[1.0], delays[0.8])

    def test_adaptive_beats_random_transmission(self, pair):
        # Matched ARLFA and matched rate budget 0.5: the adaptive detector
        # must be faster with at least three-standard-error separation.
        zeta = 500.0
        family = two_level(pair, math.inf, 0.78, 0.4)
        cal_ac = calibrate_threshold(
            threshold_curve(family, pair, [zeta], seed=32, tolerance=0.04), zeta)
        cal_rtx = calibrate_threshold(
            threshold_curve(RandomTxSpec(0.0, 0.5), pair, [zeta], seed=33, tolerance=0.04),
            zeta)
        cfg = two_level(pair, cal_ac.a, 0.78, 0.4)
        samp_ac, t_ac = delay_samples(cfg, pair, 2500, seed=34)
        samp_rtx, t_rtx = delay_samples(RandomTxSpec(cal_rtx.a, 0.5), pair, 2500,
                                        seed=34)
        gap = paired_gap(samp_rtx, samp_ac, t_ac + t_rtx)
        assert gap.mean > 3 * gap.std_error
