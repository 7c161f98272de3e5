import dataclasses
import math
import pickle

import pytest

from cusumac import montecarlo
from cusumac.calibration import (
    CalibrationError,
    CalibrationTarget,
    CandidateRecord,
    calibrate_threshold,
    search_two_level,
    threshold_curve,
)
from cusumac.detectors import CusumSpec, two_level
from cusumac.montecarlo import derive_seed, estimate_comm_rate, estimate_delay
from cusumac.renewal import check_eprime_membership, estimate_cycle


def calibrated(detector, pairs, zeta, seed, tolerance=0.05):
    """The threshold for ``zeta`` from the detector family's own curve."""
    curve = threshold_curve(detector, pairs, [zeta], seed, tolerance)
    return calibrate_threshold(curve, zeta)


def _no_walk(*args, **kwargs):
    raise AssertionError("a leg was walked")


class TestCalibrateThreshold:
    def test_degenerate_target_returns_zero(self, pair):
        cal = calibrated(CusumSpec(0.0), pair, 1.0, seed=1)
        assert cal.a == 0.0
        assert cal.arlfa.mean >= 1.0  # any run length satisfies zeta = 1

    def test_found_threshold_near_log_zeta(self, pair):
        zeta = 1000.0
        cal = calibrated(CusumSpec(0.0), pair, zeta, seed=2, tolerance=0.05)
        assert abs(cal.arlfa.mean - zeta) <= 0.05 * zeta
        # the asymptotic rule is a guide, not the answer (offset ~2.6 here)
        assert abs(cal.a - math.log(zeta)) < 3.0
        assert cal.a != math.log(zeta)
        assert len(cal.probes) >= 1

    def test_threshold_nondecreasing_in_zeta(self, pair):
        zetas = (100.0, 1000.0, 10000.0)
        curve = threshold_curve(CusumSpec(0.0), pair, zetas, seed=3, tolerance=0.05)
        found = [calibrate_threshold(curve, zeta).a for zeta in zetas]
        assert found[0] < found[1] < found[2]

    def test_probes_bracket_the_target(self, pair):
        curve = threshold_curve(CusumSpec(0.0), pair, [1000.0], seed=4, tolerance=0.2)
        cal = calibrate_threshold(curve, 1000.0)
        lo, hi = cal.probes
        assert lo.a < cal.a <= hi.a and hi.a - lo.a == pytest.approx(0.1)
        assert lo.arlfa_mean < 1000.0 <= hi.arlfa_mean
        assert cal.arlfa.n_reps == lo.n_reps == curve.n_legs
        # the relative SE target is tolerance / 6 at both bracketing points
        assert max(p.arlfa_se / p.arlfa_mean for p in cal.probes) <= 0.2 / 6

    def test_unreachable_target_is_a_calibration_error(self, pair):
        # ARLFA just above a1 = 2 already exceeds 50, so no threshold matches.
        with pytest.raises(CalibrationError, match="no threshold reaches") as err:
            calibrated(two_level(pair, math.inf, 2.0, 0.5), pair, 50.0, seed=5,
                       tolerance=0.2)
        (point,) = err.value.probes
        assert 2.0 < point.a < 2.0 + 1e-12 and point.arlfa_mean > 50.0

    def test_tolerance_beyond_the_leg_cap_is_refused(self, pair):
        with pytest.raises(CalibrationError, match="legs"):
            threshold_curve(CusumSpec(0.0), pair, [1000.0], seed=5, tolerance=1e-6)

    @pytest.mark.parametrize("zetas, tolerance, message", [
        ([], 0.2, "zetas must be nonempty"),
        ([0.0], 0.2, "zeta must be"),
        ([100.0, math.nan], 0.2, "zeta must be"),
        ([math.inf], 0.2, "zeta must be"),
        ([100.0], 0.0, "tolerance must lie"),
        ([100.0], -0.1, "tolerance must lie"),
        ([100.0], 1.0, "tolerance must lie"),
        ([100.0], math.nan, "tolerance must lie"),
    ])
    def test_bad_curve_input_rejected_before_any_leg(self, pair, monkeypatch, zetas,
                                                     tolerance, message):
        monkeypatch.setattr("cusumac.renewal._walk", _no_walk)
        with pytest.raises(ValueError, match=message):
            threshold_curve(CusumSpec(0.0), pair, zetas, seed=5, tolerance=tolerance)

    def test_zeta_below_one_rejected(self, pair):
        curve = threshold_curve(CusumSpec(0.0), pair, [10.0], seed=5, tolerance=0.2)
        with pytest.raises(ValueError):
            calibrate_threshold(curve, 0.5)
        with pytest.raises(ValueError):
            calibrate_threshold(curve, math.nan)


class TestTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            CalibrationTarget(zeta=0.5, epsilon=0.4)
        with pytest.raises(ValueError):
            CalibrationTarget(zeta=math.inf, epsilon=0.4)
        with pytest.raises(ValueError):
            CalibrationTarget(zeta=100.0, epsilon=1.5)
        with pytest.raises(ValueError):
            CalibrationTarget(zeta=100.0, epsilon=0.4, nu=0)
        with pytest.raises(ValueError):
            CalibrationTarget(zeta=100.0, epsilon=0.4, tolerance=1.5)


class TestSearchTwoLevel:
    def test_reported_point_for_budget_04_close_to_budget(self, pairs3):
        # The quoted rate-0.4 operating point, re-verified by simulation: the
        # ARLFA target is reachable and the rate sits within half a percent
        # of the budget (this implementation measures it a shade above, about
        # 0.402 open-band and 0.4015 under survive-to-horizon conditioning).
        cfg_of = lambda a: two_level(pairs3, a, 0.79, 0.27)
        cal = calibrated(cfg_of(math.inf), pairs3, 2000.0, seed=6, tolerance=0.05)
        assert abs(cal.arlfa.mean - 2000.0) <= 100.0
        rate = estimate_comm_rate(cfg_of(cal.a), pairs3, 10_000, 100, seed=60)
        assert rate.mean <= 0.40 + 0.005

    def test_reported_point_for_budget_07_rate_within_one_percent(self, pairs3):
        # The quoted rate-0.7 operating point measures a shade above budget
        # with this optimizer (about 0.704); verify it is reachable and within
        # one percent absolute of the budget rather than asserting strict
        # admissibility.
        cfg_of = lambda a: two_level(pairs3, a, 0.78, 0.63)
        cal = calibrated(cfg_of(math.inf), pairs3, 2000.0, seed=7, tolerance=0.05)
        assert abs(cal.arlfa.mean - 2000.0) <= 100.0
        rate = estimate_comm_rate(cfg_of(cal.a), pairs3, 10_000, 100, seed=8)
        assert rate.mean <= 0.70 + 0.01

    def test_full_budget_degenerates_to_plain_cusum(self, pair):
        target = CalibrationTarget(zeta=500.0, epsilon=1.0, tolerance=0.05)
        result = search_two_level(pair, target, a1_grid=[0.78], eps1_grid=[1.0],
                                  n_reps=800, seed=9, cycle_reps=1500)
        assert result.feasible
        cal = calibrated(CusumSpec(0.0), pair, 500.0, seed=10, tolerance=0.05)
        d_c = estimate_delay(CusumSpec(cal.a), pair, 2000, seed=11)
        d_ac = result.report.delay
        assert abs(d_ac.mean - d_c.mean) <= 3 * math.hypot(d_ac.std_error,
                                                           d_c.std_error)

    def test_infeasible_budget_flagged(self, pair):
        target = CalibrationTarget(zeta=300.0, epsilon=0.05, tolerance=0.05)
        result = search_two_level(pair, target, a1_grid=[0.78], eps1_grid=[0.3],
                                  n_reps=400, seed=12, cycle_reps=1000)
        assert not result.feasible
        assert result.config is None  # rate screen kills the only candidate
        assert result.search_trace[0].note == "rate screen failed"

    def test_eprime_margin_is_from_the_fused_statistic(self, pairs3):
        target = CalibrationTarget(zeta=300.0, epsilon=0.8, tolerance=0.05)
        result = search_two_level(pairs3, target, a1_grid=[0.78], eps1_grid=[0.5],
                                  n_reps=400, seed=14, cycle_reps=1000)
        cycle = estimate_cycle(two_level(pairs3, math.inf, 0.78, 0.5), pairs3, 1000,
                               derive_seed(14, 25))
        assert result.search_trace[0].eprime_margin == check_eprime_membership(cycle).margin

    @pytest.mark.parametrize("reps", [dict(n_reps=50), dict(cycle_reps=50)])
    def test_too_few_replications_refused_before_any_rate_batch(self, pair, monkeypatch,
                                                                reps):
        def no_rate(*args, **kwargs):
            raise AssertionError("a rate batch was run")

        monkeypatch.setattr("cusumac.calibration.estimate_comm_rate", no_rate)
        target = CalibrationTarget(zeta=300.0, epsilon=0.8, tolerance=0.05)
        with pytest.raises(ValueError, match="at least 100"):
            search_two_level(pair, target, a1_grid=[0.78], eps1_grid=[0.5], seed=15, **reps)

    def test_search_is_deterministic(self, pair):
        target = CalibrationTarget(zeta=300.0, epsilon=0.8, tolerance=0.05)
        kw = dict(a1_grid=[0.6, 1.0], eps1_grid=[0.5], n_reps=400, seed=13,
                  cycle_reps=1000)
        r1 = search_two_level(pair, target, **kw)
        r2 = search_two_level(pair, target, **kw)
        assert r1.search_trace == r2.search_trace
        assert r1.config == r2.config

    def test_fanned_out_candidates_match_the_serial_search(self, pairs3, monkeypatch):
        # The CI smoke search: (0.8, 0.27) is calibrated, (0.8, 0.6) fails the rate screen.
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)  # a pool even on one core
        target = CalibrationTarget(zeta=200, epsilon=0.4, tolerance=0.2)
        kw = dict(a1_grid=[0.8], eps1_grid=[0.27, 0.6], n_reps=200, seed=16)
        one = search_two_level(pairs3, target, n_jobs=1, **kw)
        two = search_two_level(pairs3, target, n_jobs=2, **kw)
        assert [rec.note for rec in one.search_trace] == ["", "rate screen failed"]
        assert two.search_trace == one.search_trace
        assert two.config == one.config
        assert two.report == one.report

    def test_records_with_nan_fields_compare_by_value(self):
        # A skipped candidate's NaN placeholders, as a pool worker returns them.
        rec = CandidateRecord(a1=0.8, eps1=0.6, a=math.nan, arlfa_mean=math.nan,
                              arlfa_se=math.nan, rate_mean=0.61, rate_se=0.01,
                              delay_mean=math.nan, delay_se=math.nan,
                              eprime_verdict="skipped", eprime_margin=math.nan,
                              admissible=False, note="rate screen failed")
        copy = pickle.loads(pickle.dumps(rec))
        assert copy.a is not rec.a
        assert copy == rec and hash(copy) == hash(rec)
        assert copy != dataclasses.replace(rec, a=5.0)
        assert rec.to_record()["admissible"] == 0

    def test_unbuildable_probe_fails_only_its_candidate(self, pairs3):
        # ARLFA just above a1 = 1.6 already exceeds 50: no threshold reaches
        # the target, and the search records it on this candidate only.
        result = search_two_level(pairs3, CalibrationTarget(zeta=50, epsilon=0.7),
                                  a1_grid=(1.6,), eps1_grid=(0.63,), n_reps=100, seed=1)
        assert not result.feasible and result.config is None
        (rec,) = result.search_trace
        assert rec.note.startswith("calibration failed: ")
        assert "no threshold reaches ARLFA 50" in rec.note

    def test_grid_validation(self, pair):
        target = CalibrationTarget(zeta=300.0, epsilon=0.8)
        with pytest.raises(ValueError):
            search_two_level(pair, target, a1_grid=[], eps1_grid=[0.5])
        with pytest.raises(ValueError):
            search_two_level(pair, target, a1_grid=[0.5], eps1_grid=[5e-4])
        for a1 in (0.0, -0.5):
            with pytest.raises(ValueError, match="a1"):
                search_two_level(pair, target, a1_grid=[0.8, a1], eps1_grid=[0.5])


class TestRatePlateau:
    def test_conditional_rate_flat_in_a(self, pair):
        # Doubling a large threshold must not move the conditional rate.
        cfg8 = two_level(pair, 8.0, 0.78, 0.27)
        cfg16 = two_level(pair, 16.0, 0.78, 0.27)
        r8 = estimate_comm_rate(cfg8, pair, 10_000, 120, seed=14, mode="conditional")
        r16 = estimate_comm_rate(cfg16, pair, 10_000, 120, seed=15, mode="conditional")
        assert abs(r8.mean - r16.mean) <= 3 * math.hypot(r8.std_error, r16.std_error)
