import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.stats import norm

from cusumac import censoring
from cusumac.censoring import CensoringStrategy, optimize
from cusumac.detectors import cusum_ac_step, initial_state, two_level
from cusumac.model import gaussian_mean_shift

# Frozen output of the exhaustive-grid oracle below at eps = 0.5 (2000 grid
# points over the feasible lower endpoints; closed-form truncated-Gaussian
# integrals, recomputed live by test_optimizer_matches_grid_oracle).
GRID_ORACLE_POST_KL_05 = 0.1175918798


def grid_oracle_best_post_kl(eps: float, n_grid: int = 2000) -> float:
    """Exhaustive search over no-send intervals satisfying the rate constraint.

    Independent route: post-censoring divergence evaluated with closed-form
    Gaussian truncated moments instead of adaptive quadrature, maximized over
    a dense grid of lower endpoints (the upper endpoint is pinned by the
    rate constraint through the exact Gaussian quantile).
    """
    mu1 = 0.5
    full_kl = 0.125

    def value(l):
        u = norm.ppf(norm.cdf(l) + (1.0 - eps))
        p0 = norm.cdf(u) - norm.cdf(l)
        p1 = norm.cdf(u - mu1) - norm.cdf(l - mu1)
        # E1[x; l <= x <= u] for unit variance
        ex = mu1 * p1 - (norm.pdf(u - mu1) - norm.pdf(l - mu1))
        inside = 0.5 * ex - 0.125 * p1
        return (full_kl - inside) + p1 * math.log(p1 / p0)

    ls = np.linspace(norm.ppf(1e-6), norm.ppf(eps - 1e-6), n_grid)
    return max(value(l) for l in ls)


@pytest.fixture
def optimizer_runs(monkeypatch):
    """Records each golden-section search, which every uncached optimization runs once."""
    runs = []
    search = censoring._golden_max
    monkeypatch.setattr(censoring, "_golden_max",
                        lambda *args: runs.append(args) or search(*args))
    return runs


class TestOptimizer:
    def test_optimizer_matches_grid_oracle(self, pair):
        oracle = grid_oracle_best_post_kl(0.5)
        assert oracle == pytest.approx(GRID_ORACLE_POST_KL_05, abs=2e-8)
        strat = optimize(pair, 0.5)
        assert abs(strat.post_kl - oracle) <= 1e-4

    def test_full_rate_short_circuit(self, pair):
        strat = optimize(pair, 1.0)
        assert strat.rate == 1.0
        assert strat.post_kl == pytest.approx(0.125, abs=1e-12)
        assert strat.p0_nosend == 0.0 and strat.p1_nosend == 0.0
        assert strat.apply(123.4)

    def test_rejects_bad_epsilon(self, pair):
        for eps in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                optimize(pair, eps)
        with pytest.raises(ValueError, match="degenerates"):
            optimize(pair, 5e-4)

    def test_rejects_non_monotone_pair(self, pair):
        class Wrapped:
            monotone_llr = False

            def __getattr__(self, name):
                return getattr(pair, name)

        with pytest.raises(NotImplementedError):
            optimize(Wrapped(), 0.5)

    @pytest.mark.parametrize("hidden, eps", [
        ("cdf0", 0.4), ("cdf1", 0.4), ("quantile0", 0.4), ("send_region_kl", 0.4),
        ("closed_form_kl", 1.0),
    ])
    def test_pair_without_closed_form_refused(self, pair_without, hidden, eps):
        lacking = pair_without(hidden)
        with pytest.raises(TypeError, match=hidden):
            optimize(lacking, eps)
        assert lacking.calls == []

    def test_refusal_names_every_missing_method(self):
        class Bare:
            monotone_llr = True

        with pytest.raises(TypeError, match="cdf0, cdf1, quantile0, send_region_kl;"):
            optimize(Bare(), 0.4)

    @pytest.mark.parametrize("eps", [0.1, 0.27, 0.5, 0.9])
    def test_decreasing_llr_mirrors_increasing(self, eps):
        # N(1, 2.5^2) -> N(-0.3, 2.5^2) has a decreasing LLR; x -> -x maps
        # it onto N(-1, 2.5^2) -> N(0.3, 2.5^2) and [lo, hi] onto [-hi, -lo].
        down = gaussian_mean_shift(1.0, -0.3, 2.5)
        up = gaussian_mean_shift(-1.0, 0.3, 2.5)
        s_down, s_up = optimize(down, eps), optimize(up, eps)
        assert abs(s_down.post_kl - s_up.post_kl) <= 1e-12
        assert s_down.nosend_x_lo == pytest.approx(-s_up.nosend_x_hi, abs=1e-5)
        assert s_down.nosend_x_hi == pytest.approx(-s_up.nosend_x_lo, abs=1e-5)
        for p, strat in ((down, s_down), (up, s_up)):
            lo, hi = strat.nosend_x_lo, strat.nosend_x_hi
            send = sum(integrate.quad(lambda x: p.f1(x) * p.llr(x), a, b, epsabs=1e-13,
                                      epsrel=1e-13, limit=200)[0]
                       for a, b in ((-np.inf, lo), (hi, np.inf)))
            p0 = norm.cdf(hi, p.mu0, p.sigma) - norm.cdf(lo, p.mu0, p.sigma)
            p1 = norm.cdf(hi, p.mu1, p.sigma) - norm.cdf(lo, p.mu1, p.sigma)
            assert abs(strat.post_kl - (send + p1 * math.log(p1 / p0))) <= 1e-10

    def test_memoized_per_pair_and_rate(self, optimizer_runs):
        pair = gaussian_mean_shift(0.0, 0.55, 1.0)  # a key no other test uses
        strategies = [optimize(p, 0.27) for p in [pair] * 3]
        assert len(optimizer_runs) == 1
        assert strategies[0] is strategies[1] is strategies[2]
        assert optimize(gaussian_mean_shift(0.0, 0.55, 1.0), 0.27) is strategies[0]
        optimize(pair, 0.3)
        assert len(optimizer_runs) == 2

    def test_unhashable_pair_is_optimized_uncached(self, pair, optimizer_runs):
        class Unhashable:
            __hash__ = None

            def __getattr__(self, name):
                return getattr(pair, name)

        first = optimize(Unhashable(), 0.4)
        second = optimize(Unhashable(), 0.4)
        assert len(optimizer_runs) == 2
        assert first == second == optimize(pair, 0.4)

    def test_rate_constraint_holds_exactly(self, pair):
        for eps in (0.1, 0.4, 0.9):
            strat = optimize(pair, eps)
            p0 = pair.cdf0(strat.nosend_x_hi) - pair.cdf0(strat.nosend_x_lo)
            assert p0 == pytest.approx(1.0 - eps, abs=1e-9)
            assert strat.p0_nosend == pytest.approx(1.0 - eps, abs=1e-9)

    def test_monte_carlo_send_frequency(self, pair):
        # Rate self-consistency at eps = 0.4 per the stated +-0.005 band,
        # and across the full grid within 3 binomial standard errors.
        rng = np.random.default_rng(321)
        x = pair.sample0(rng, 100_000)
        assert abs(optimize(pair, 0.4).apply(x).mean() - 0.4) <= 0.005
        for eps in [round(0.1 * i, 1) for i in range(1, 11)]:
            freq = optimize(pair, eps).apply(x).mean()
            se = math.sqrt(eps * (1 - eps) / x.size)
            assert abs(freq - eps) <= max(3 * se, 1e-12)

    def test_post_kl_nondecreasing_in_rate(self, pair):
        grid = [round(0.1 * i, 1) for i in range(1, 11)]
        values = [optimize(pair, eps).post_kl for eps in grid]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_garbling_bound(self, pair):
        for eps in [round(0.1 * i, 1) for i in range(1, 11)]:
            assert optimize(pair, eps).post_kl <= 0.125 + 1e-12

    def test_drift_signs(self, pair):
        strat = optimize(pair, 0.4)
        rng = np.random.default_rng(99)

        def censored_llr_of(x):
            sent = strat.apply(x)
            return np.where(sent, pair.llr(x), strat.llr_censored)

        pre = censored_llr_of(pair.sample0(rng, 100_000))
        post = censored_llr_of(pair.sample1(rng, 100_000))
        assert pre.mean() + 3 * pre.std(ddof=1) / math.sqrt(pre.size) < 0
        se_post = post.std(ddof=1) / math.sqrt(post.size)
        assert abs(post.mean() - strat.post_kl) <= 3 * se_post


class TestStrategyBehavior:
    def test_apply_interval_membership(self):
        strat = CensoringStrategy(
            rate=0.5, nosend_x_lo=-0.3, nosend_x_hi=0.9, llr_censored=-0.1,
            p0_nosend=0.5, p1_nosend=0.45, post_kl=0.1)
        assert strat.apply(0.0) is False
        assert strat.apply(1.5) is True
        assert strat.apply(-0.3) is False  # closed interval

    def test_strategy_is_one_observation_interval(self, pair):
        assert [f.name for f in dataclasses.fields(CensoringStrategy)] == [
            "rate", "nosend_x_lo", "nosend_x_hi", "llr_censored",
            "p0_nosend", "p1_nosend", "post_kl"]
        with pytest.raises(TypeError):
            optimize(pair, 0.5).apply(0.0, pair)

    def test_apply_sends_nan(self, pair):
        # NaN lies inside no interval, so it is sent, element-wise as well.
        strat = optimize(pair, 0.5)
        assert strat.apply(math.nan) is True
        inside = 0.5 * (strat.nosend_x_lo + strat.nosend_x_hi)
        np.testing.assert_array_equal(strat.apply(np.array([math.nan, inside])),
                                      [True, False])

    def test_apply_llr_space_route(self, pair):
        # Over a batch, the observation-interval decision is the paper's
        # no-send set of likelihood ratios (GaussianPair's LLR increases in x).
        strat = optimize(pair, 0.5)
        rng = np.random.default_rng(17)
        x = pair.sample0(rng, 10_000)
        v = pair.llr(x)
        inside_llr = (v >= pair.llr(strat.nosend_x_lo)) & (v <= pair.llr(strat.nosend_x_hi))
        sent = strat.apply(x)
        assert sent.dtype == bool and sent.shape == x.shape
        np.testing.assert_array_equal(sent, ~inside_llr)

    def test_censored_llr_branches(self, pair):
        # In the censoring band a sent observation adds its raw LLR and a
        # no-send slot adds the constant llr_censored.
        strat = optimize(pair, 0.5)
        cfg = two_level(pair, a=9.0, a1=5.0, eps1=0.5)
        st0 = dataclasses.replace(initial_state(cfg), s=2.0)
        outside = strat.nosend_x_hi + 1.0
        st1, sent = cusum_ac_step(st0, cfg, outside, pair)
        assert sent is True
        assert st1.s == pytest.approx(2.0 + float(pair.llr(outside)), abs=1e-15)
        inside = 0.5 * (strat.nosend_x_lo + strat.nosend_x_hi)
        st2, sent = cusum_ac_step(st0, cfg, inside, pair)
        assert sent is False
        assert st2.s == 2.0 + strat.llr_censored
        assert (st1.tx_count, st2.tx_count) == (1, 0)

    def test_censored_llr_full_rate_branch(self, pair):
        cfg = two_level(pair, a=9.0, a1=5.0, eps1=1.0)
        st0 = dataclasses.replace(initial_state(cfg), s=3.0)
        st1, sent = cusum_ac_step(st0, cfg, -2.2, pair)
        assert sent is True
        assert st1.s == pytest.approx(3.0 + float(pair.llr(-2.2)), abs=1e-15)

    def test_censored_value_matches_cdf_ratio(self, pair):
        # ln[(Phi(u - 0.5) - Phi(l - 0.5)) / (Phi(u) - Phi(l))] evaluated
        # directly for the optimizer's interval at eps = 0.5.
        strat = optimize(pair, 0.5)
        l, u = strat.nosend_x_lo, strat.nosend_x_hi
        expected = math.log(
            (norm.cdf(u - 0.5) - norm.cdf(l - 0.5)) / (norm.cdf(u) - norm.cdf(l)))
        assert strat.llr_censored == pytest.approx(expected, abs=1e-9)
        assert strat.llr_censored == pytest.approx(
            math.log(strat.p1_nosend / strat.p0_nosend), abs=1e-12)

    def test_post_change_rate(self, pair):
        # After the change a sensor sends with probability 1 - p1_nosend.
        assert 1.0 - optimize(pair, 1.0).p1_nosend == 1.0
        strat = optimize(pair, 0.4)
        expected = 1.0 - (norm.cdf(strat.nosend_x_hi - 0.5)
                          - norm.cdf(strat.nosend_x_lo - 0.5))
        assert 1.0 - strat.p1_nosend == pytest.approx(expected, abs=1e-9)
        assert 0.4 < 1.0 - strat.p1_nosend < 1.0

    def test_record_round_trip_exact(self, pair):
        # Every field is a plain float that its repr carries exactly, the
        # full-rate strategy's infinite interval included.
        for eps in (0.3, 1.0):
            strat = optimize(pair, eps)
            as_text = {k: repr(v) for k, v in dataclasses.asdict(strat).items()}
            back = CensoringStrategy(**{k: float(v) for k, v in as_text.items()})
            assert back == strat


@settings(max_examples=50)
@given(x=st.floats(-30, 30))
def test_interval_and_llr_decisions_agree(x, pair):
    for eps in (0.2, 0.5, 0.8):
        strat = optimize(pair, eps)
        by_interval = strat.apply(x)
        # GaussianPair's LLR increases in x, so these are the LLR-space bounds.
        llr_lo, llr_hi = pair.llr(strat.nosend_x_lo), pair.llr(strat.nosend_x_hi)
        inside_llr = llr_lo <= float(pair.llr(x)) <= llr_hi
        assert by_interval == (not inside_llr)
