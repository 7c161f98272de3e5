import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusumac.detectors import (
    CusumAcConfig,
    CusumSpec,
    RandomTxSpec,
    cusum_ac_multi_step,
    cusum_ac_step,
    cusum_step,
    initial_state,
    random_tx_cusum_step,
    simulate_trace,
    two_level,
)

# Plain-CuSum mean stop time at a = 4.5 under the post-change law, frozen
# from a 200k-replication standalone simulation (oracle SE 0.041).  The
# asymptotic first-passage guess a / KL = 36 overshoots because the
# reflection at zero speeds up early climbs.
CUSUM_POSTCHANGE_MEAN_STOP_A45 = 32.6272
CUSUM_POSTCHANGE_ORACLE_SE = 0.0411


@pytest.fixture(scope="module")
def cfg2(pair):
    return two_level(pair, a=4.5, a1=0.78, eps1=0.63)


def state_at(config, s):
    return dataclasses.replace(initial_state(config), s=s)


class TestCusumStep:
    def test_reflection_at_zero(self):
        st0 = initial_state()
        st1 = cusum_step(st0, -1.0, a=4.5)
        assert st1.s == 0.0 and not st1.stopped
        assert st1.tx_count == 1 and st1.k == 1

    def test_strict_threshold_crossing(self):
        st0 = dataclasses.replace(initial_state(), s=4.4)
        st1 = cusum_step(st0, 0.2, a=4.5)
        assert st1.s == pytest.approx(4.6, abs=1e-15)
        assert st1.stopped and st1.k == 1
        # Landing exactly on the threshold does not stop (strict inequality).
        st2 = cusum_step(dataclasses.replace(initial_state(), s=4.0), 0.5, a=4.5)
        assert not st2.stopped

    def test_stepping_stopped_detector_rejected(self):
        st0 = dataclasses.replace(initial_state(), stopped=True)
        with pytest.raises(ValueError, match="stopped"):
            cusum_step(st0, 0.1, a=1.0)

    def test_postchange_mean_stop_matches_oracle(self, pair):
        rng = np.random.default_rng(2024)
        stops = np.empty(10_000)
        for i in range(stops.size):
            state = initial_state()
            while not state.stopped:
                state = cusum_step(state, float(pair.llr(pair.sample1(rng))), a=4.5)
            stops[i] = state.k
        se = stops.std(ddof=1) / math.sqrt(stops.size)
        combined = math.hypot(se, CUSUM_POSTCHANGE_ORACLE_SE)
        assert abs(stops.mean() - CUSUM_POSTCHANGE_MEAN_STOP_A45) <= 3 * combined
        # sanity anchor: within 15% of the first-passage guess a / KL
        assert abs(stops.mean() - 36.0) / 36.0 <= 0.15


class TestCusumAcStep:
    def test_reset_clamps_to_a1_exactly(self, pair, cfg2):
        st0 = state_at(cfg2, 0.5)
        x = 1.05  # raw LLR 0.4, outside the no-send interval
        st1, sent = cusum_ac_step(st0, cfg2, x, pair)
        assert sent
        assert st1.s == cfg2.a1  # bit-exact clamp
        assert st1.feedback_count == st0.feedback_count + 1
        assert not st1.stopped

    def test_no_reset_above_a1(self, pair, cfg2):
        st0 = state_at(cfg2, 0.9)
        st1, sent = cusum_ac_step(st0, cfg2, 1.05, pair)
        assert sent
        assert st1.s == pytest.approx(1.3, abs=1e-12)
        assert st1.s != cfg2.a1
        assert st1.feedback_count == st0.feedback_count

    def test_censored_slot_uses_stored_constant(self, pair, cfg2):
        strat = cfg2.strategies[0]
        inside = 0.5 * (strat.nosend_x_lo + strat.nosend_x_hi)
        st0 = state_at(cfg2, 0.5)
        st1, sent = cusum_ac_step(st0, cfg2, inside, pair)
        assert not sent
        assert st1.s == max(0.0, 0.5 + strat.llr_censored)
        assert st1.tx_count == 0

    def test_initial_state_announces_strategy(self, cfg2):
        st0 = initial_state(cfg2)
        assert st0.feedback_count == 1

    def test_inclusive_stop_and_reset_precedence(self, pair, cfg2):
        # From the full-rate band, reaching a exactly stops (inclusive rule).
        st0 = state_at(cfg2, 4.2)
        x = (0.3 + 0.125) / 0.5  # raw LLR exactly 0.3 up to rounding
        st1, _ = cusum_ac_step(st0, cfg2, x, pair)
        assert st1.s >= 4.5 and st1.stopped
        # From below a1 a huge jump is clamped to a1 first, so no stop.
        st2 = state_at(cfg2, 0.5)
        st3, _ = cusum_ac_step(st2, cfg2, 100.0, pair)
        assert st3.s == cfg2.a1 and not st3.stopped

    def test_full_rate_levels_dominated_by_plain_cusum(self, pair):
        cfg = two_level(pair, a=4.5, a1=0.78, eps1=1.0)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            ac = initial_state(cfg)
            c = initial_state()
            k = 0
            while not (ac.stopped or c.stopped) and k < 120:
                x = float(pair.sample1(rng))
                ac, sent = cusum_ac_step(ac, cfg, x, pair)
                assert sent
                c = cusum_step(c, float(pair.llr(x)), cfg.a)
                k += 1
                assert ac.s <= c.s + 1e-12
                assert ac.tx_count == ac.k

    def test_multi_sensor_m1_equivalence(self, pair, cfg2):
        rng = np.random.default_rng(11)
        s_scalar = initial_state(cfg2)
        s_multi = initial_state(cfg2)
        for _ in range(300):
            if s_scalar.stopped:
                break
            x = float(pair.sample0(rng))
            s_scalar, sent_a = cusum_ac_step(s_scalar, cfg2, x, pair)
            s_multi, sent_b = cusum_ac_multi_step(s_multi, cfg2, [x], [pair])
            assert sent_b == [sent_a]
            assert s_multi == s_scalar

    def test_multi_sensor_fused_increment(self, pair, pairs3):
        cfg = two_level(pairs3, a=9.0, a1=0.78, eps1=0.63)
        strat = cfg.strategies[0]
        # All three sent from the full-rate band: fused = sum of raw LLRs.
        st0 = state_at(cfg, 1.0)
        xs = [1.1, -0.2, 0.4]
        st1, sent = cusum_ac_multi_step(st0, cfg, xs, pairs3)
        assert sent == [True, True, True]
        fused = sum(float(pair.llr(x)) for x in xs)
        assert st1.s == pytest.approx(1.0 + fused, abs=1e-12)
        assert st1.tx_count == 3
        # All three censored from below: fused = 3 * censored constant.
        inside = 0.5 * (strat.nosend_x_lo + strat.nosend_x_hi)
        st2 = state_at(cfg, 0.3)
        st3, sent = cusum_ac_multi_step(st2, cfg, [inside] * 3, pairs3)
        assert sent == [False, False, False]
        assert st3.s == pytest.approx(max(0.0, 0.3 + 3 * strat.llr_censored), abs=1e-12)
        assert st3.tx_count == 0

    def test_heterogeneous_sensor_rates(self, pair):
        # Sensors may censor at different rates within one level; they still
        # switch together on the fused statistic.
        pairs2 = [pair, pair]
        cfg = two_level(pairs2, a=6.0, a1=0.78, eps1=[0.2, 0.8])
        s_lo, s_hi = cfg.strategies
        assert tuple(s.rate for s in cfg.strategies) == (0.2, 0.8)
        # a value censored by the tight strategy but sent by the loose one
        # (the rate-0.2 no-send interval is much wider than the rate-0.8 one)
        x = -1.0
        assert not s_lo.apply(x) and s_hi.apply(x)
        st0 = state_at(cfg, 0.3)
        st1, sent = cusum_ac_multi_step(st0, cfg, [x, x], pairs2)
        assert sent == [False, True]
        expected = max(0.0, 0.3 + s_lo.llr_censored + float(pair.llr(x)))
        if st0.s < cfg.a1 <= expected:
            expected = cfg.a1
        assert st1.s == pytest.approx(expected, abs=1e-12)
        assert st1.tx_count == 1

    def test_multi_sensor_length_mismatch(self, pair, pairs3):
        cfg = two_level(pairs3, a=9.0, a1=0.78, eps1=0.63)
        with pytest.raises(ValueError):
            cusum_ac_multi_step(initial_state(cfg), cfg, [0.1], [pair])

    def test_stepping_stopped_rejected(self, pair, cfg2):
        stopped = dataclasses.replace(initial_state(cfg2), stopped=True)
        with pytest.raises(ValueError):
            cusum_ac_step(stopped, cfg2, 0.0, pair)


class TestRandomTxStep:
    def test_full_rate_equals_plain_cusum(self, pair):
        rng = np.random.default_rng(3)
        aux = np.random.default_rng(4)
        rtx = initial_state()
        c = initial_state()
        for _ in range(500):
            if rtx.stopped:
                break
            x = float(pair.sample0(rng))
            rtx, sent = random_tx_cusum_step(rtx, x, pair, 1.0, 4.5, aux)
            assert sent
            c = cusum_step(c, float(pair.llr(x)), 4.5)
            assert rtx.s == c.s and rtx.stopped == c.stopped

    def test_zero_rate_freezes_statistic(self, pair):
        aux = np.random.default_rng(6)
        state = initial_state()
        for _ in range(200):
            state, sent = random_tx_cusum_step(state, 5.0, pair, 0.0, 4.5, aux)
            assert not sent
        assert state.s == 0.0 and state.tx_count == 0 and not state.stopped

    def test_epsilon_validation(self, pair):
        with pytest.raises(ValueError):
            random_tx_cusum_step(initial_state(), 0.0, pair, 1.5, 4.5,
                                 np.random.default_rng(0))


class TestConfigValidation:
    def test_threshold_ordering_enforced(self, pair):
        with pytest.raises(ValueError, match="below the alarm"):
            two_level(pair, a=0.5, a1=0.78, eps1=0.63)
        with pytest.raises(ValueError, match="must be positive"):
            two_level(pair, a=5.0, a1=0.0, eps1=0.63)

    def test_nan_alarm_threshold_rejected(self, pair):
        # A NaN threshold never alarms; infinity (curve families) stays allowed.
        with pytest.raises(ValueError, match="NaN"):
            two_level(pair, math.nan, 0.78, 0.63)
        assert two_level(pair, math.inf, 0.78, 0.63).a == math.inf

    def test_needs_a_strategy(self):
        with pytest.raises(ValueError):
            CusumAcConfig(a=5.0, a1=1.0, strategies=())

    def test_rate_outside_unit_interval_rejected(self, cfg2):
        ok = cfg2.strategies[0]
        for rate in (0.0, 1.5, math.nan):
            bad = dataclasses.replace(ok, rate=rate)
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                CusumAcConfig(a=5.0, a1=1.0, strategies=(ok, bad))

    def test_level_of_bands(self, cfg2):
        # Only a start below a1 (censored) differs from the full-rate default.
        assert initial_state(cfg2, 2.0).feedback_count == 0
        assert initial_state(cfg2, 0.78).feedback_count == 0
        assert initial_state(cfg2, 0.5).feedback_count == 1


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(-6, 6), min_size=1, max_size=60))
def test_ac_step_invariants(xs, pair, cfg2):
    """Statistic nonnegative, feedback counts band changes, resets bit-exact."""
    state = initial_state(cfg2)
    for x in xs:
        if state.stopped:
            break
        prev = state
        state, _ = cusum_ac_step(state, cfg2, x, pair)
        assert state.s >= 0.0
        assert state.k == prev.k + 1
        if prev.s < cfg2.a1 <= state.s and not state.s == cfg2.a1:
            # the only way to sit above a crossed a1 is the exact clamp
            raise AssertionError(f"reset not bit-exact: {state.s} vs {cfg2.a1}")
        if (state.s < cfg2.a1) != (prev.s < cfg2.a1):
            assert state.feedback_count == prev.feedback_count + 1
        else:
            assert state.feedback_count == prev.feedback_count
        assert state.time_above_a1 == prev.time_above_a1 + (state.s >= cfg2.a1)


def test_feedback_counts_level_changes(pair, cfg2):
    rng = np.random.default_rng(8)
    state = initial_state(cfg2)
    changes = 0
    for _ in range(400):
        if state.stopped:
            break
        prev_censored = state.s < cfg2.a1
        state, _ = cusum_ac_step(state, cfg2, float(pair.sample0(rng)), pair)
        changes += (state.s < cfg2.a1) != prev_censored
    assert state.feedback_count == 1 + changes


def test_simulate_trace_schema_and_stop(pair):
    rows = simulate_trace(CusumSpec(a=4.5), pair, nu=60, horizon=400, seed=1234)
    assert [set(r) for r in rows] == [{"k", "s", "level", "sent", "stopped"}] * len(rows)
    ks = [r["k"] for r in rows]
    assert ks == list(range(1, len(rows) + 1))
    assert all(r["s"] >= 0 for r in rows)
    if rows[-1]["stopped"]:
        assert all(not r["stopped"] for r in rows[:-1])
    cfg_rows = simulate_trace(
        two_level(pair, a=4.5, a1=0.78, eps1=0.63), pair, nu=60, horizon=400, seed=99)
    assert any(r["sent"] == 0 for r in cfg_rows)
    assert {r["level"] for r in cfg_rows} <= {0, 1}


# sha256 of repr(simulate_trace(...)) per detector and (nu, horizon, seed),
# generated by the scalar stepping loop that preceded the engine-backed trace.
# The second setting's runs pass the first observation block.
_TRACE_DIGESTS = {
    ("cusum", 60, 300, 7): "d4e26f5e4f3ba447d7d132dd300086109e2ef8cc5add3dc9f574706282b56c37",
    ("cusum", None, 2000, 8): "5b6df161a3e95f384a20bedd7e9f82f5142febf1d9fac181a741a9a289b79e35",
    ("random_tx", 60, 300, 7):
        "b698106f72613e1c5235c490b930f967e490926e1bc32c6aa3ff12a6ac85d3bb",
    ("random_tx", None, 2000, 8):
        "fddc32ee20b7b032121bbbbda104550292d1d4ca230ddfa12023075a2da3b255",
    ("cusum_ac", 60, 300, 7): "42d67d6b890e21d50d120b8a70c95c39b6e1f82678917f3c9e2205895e95956f",
    ("cusum_ac", None, 2000, 8):
        "1f1779c22bb3f882ea2099beeba311a3cbca9afdeb2b8ee8f3a34451f216ff0d",
}


@pytest.mark.parametrize("key", sorted(_TRACE_DIGESTS, key=str))
def test_simulate_trace_golden_digests(pair, key):
    name, nu, horizon, seed = key
    detector = {"cusum": CusumSpec(4.5), "random_tx": RandomTxSpec(4.5, 0.5),
                "cusum_ac": two_level(pair, 4.5, 0.78, 0.63)}[name]
    rows = simulate_trace(detector, pair, nu, horizon, seed)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _TRACE_DIGESTS[key]
