import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy.stats import kstest, norm

from cusumac.model import GaussianPair, gaussian_mean_shift, kl_divergence


class TestGaussianPair:
    def test_llr_vanishes_at_midpoint(self, pair):
        assert pair.llr(0.25) == 0.0

    def test_llr_closed_form_value(self, pair):
        assert pair.llr(1.0) == pytest.approx(0.375, abs=1e-15)

    def test_llr_vectorized(self, pair):
        x = np.array([-1.0, 0.25, 2.0])
        np.testing.assert_allclose(pair.llr(x), 0.5 * x - 0.125)

    def test_monotone_flag(self, pair):
        assert pair.monotone_llr

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gaussian_mean_shift(0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            gaussian_mean_shift(0.0, 0.5, -1.0)
        with pytest.raises(ValueError):
            gaussian_mean_shift(0.3, 0.3, 1.0)

    @pytest.mark.parametrize("mu0, mu1, sigma", [
        (0.0, 0.5, 0.0), (0.0, 0.5, -1.0), (0.3, 0.3, 1.0), (math.nan, 0.5, 1.0),
    ])
    def test_constructor_validates(self, mu0, mu1, sigma):
        with pytest.raises(ValueError):
            GaussianPair(mu0, mu1, sigma)

    def test_llr_consistent_with_log_densities(self, pair):
        rng = np.random.default_rng(42)
        x = rng.normal(0.0, 3.0, 1000)
        direct = pair.llr(x)
        from_densities = pair.logf1(x) - pair.logf0(x)
        np.testing.assert_allclose(direct, from_densities, atol=1e-12)

    def test_density_is_exp_of_log_density(self, pair):
        x = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(pair.f0(x), norm.pdf(x), atol=1e-14)
        np.testing.assert_allclose(pair.f1(x), norm.pdf(x, loc=0.5), atol=1e-14)

    def test_quantile_inverts_cdf(self, pair):
        q = np.array([0.01, 0.3, 0.5, 0.9, 0.999])
        np.testing.assert_allclose(pair.cdf0(pair.quantile0(q)), q, atol=1e-12)


class TestGaussianClosedForms:
    # The Gaussian path computes its CDF, quantile and send-region divergence
    # without scipy; these pin it against scipy's routines.
    PAIRS = [(0.0, 0.5, 1.0), (1.0, -0.3, 2.5)]  # the second LLR decreases

    @pytest.mark.parametrize("mu0, mu1, sigma", PAIRS)
    def test_send_region_kl_matches_quadrature(self, mu0, mu1, sigma):
        p = gaussian_mean_shift(mu0, mu1, sigma)

        def g(x):
            return p.f1(x) * p.llr(x)

        for lo in np.linspace(mu1 - 5 * sigma, mu1 + 3 * sigma, 9):
            for width in (0.0, 0.2 * sigma, sigma, 4 * sigma):
                hi = lo + width
                left, _ = integrate.quad(g, -np.inf, lo, epsabs=1e-13, epsrel=1e-13,
                                         limit=200)
                right, _ = integrate.quad(g, hi, np.inf, epsabs=1e-13, epsrel=1e-13,
                                          limit=200)
                assert abs(p.send_region_kl(lo, hi) - (left + right)) <= 1e-10

    @pytest.mark.parametrize("mu0, mu1, sigma", PAIRS)
    def test_cdfs_match_scipy(self, mu0, mu1, sigma):
        p = gaussian_mean_shift(mu0, mu1, sigma)
        x = np.array([-40.0, -3.0, -0.2, 0.0, 0.7, 3.0, 40.0])
        np.testing.assert_allclose(p.cdf0(x), norm.cdf(x, mu0, sigma), rtol=1e-12, atol=0)
        np.testing.assert_allclose(p.cdf1(x), norm.cdf(x, mu1, sigma), rtol=1e-12, atol=0)
        np.testing.assert_allclose(p.cdf0(x.reshape(7, 1)), norm.cdf(x, mu0, sigma)[:, None],
                                   rtol=1e-12, atol=0)
        for v in x:
            assert isinstance(p.cdf0(v), float)
            assert p.cdf0(v) == pytest.approx(norm.cdf(v, mu0, sigma), rel=1e-12, abs=0)
            assert p.cdf1(v) == pytest.approx(norm.cdf(v, mu1, sigma), rel=1e-12, abs=0)

    @pytest.mark.parametrize("mu0, mu1, sigma", PAIRS)
    def test_quantile_matches_scipy(self, mu0, mu1, sigma):
        p = gaussian_mean_shift(mu0, mu1, sigma)
        q = np.array([0.0, 1e-12, 0.01, 0.5, 0.93, 1.0 - 1e-12, 1.0])
        np.testing.assert_allclose(p.quantile0(q), norm.ppf(q, mu0, sigma),
                                   rtol=1e-12, atol=1e-12)
        for v in q:
            assert isinstance(p.quantile0(v), float)
            assert p.quantile0(v) == pytest.approx(norm.ppf(v, mu0, sigma),
                                                   rel=1e-12, abs=1e-12)
        assert p.quantile0(0.0) == -np.inf and p.quantile0(1.0) == np.inf
        assert np.isnan(p.quantile0(-0.1)) and np.isnan(p.quantile0(1.1))


class TestSamplers:
    def test_sampler_matches_cdf_pre_change(self, pair):
        rng = np.random.default_rng(7)
        draws = pair.sample0(rng, 100_000)
        stat = kstest(draws, pair.cdf0).statistic
        assert stat <= 0.01

    def test_sampler_matches_cdf_post_change(self, pair):
        rng = np.random.default_rng(8)
        draws = pair.sample1(rng, 100_000)
        stat = kstest(draws, pair.cdf1).statistic
        assert stat <= 0.01

    def test_llr_sign_under_each_measure(self, pair):
        rng = np.random.default_rng(9)
        assert pair.llr(pair.sample0(rng, 100_000)).mean() < 0
        assert pair.llr(pair.sample1(rng, 100_000)).mean() > 0


class TestKlDivergence:
    def test_closed_form_half_shift(self, pair):
        report = kl_divergence(pair)
        assert report.i_f1_f0 == pytest.approx(0.125, abs=1e-15)
        assert report.i_f0_f1 == pytest.approx(0.125, abs=1e-15)

    def test_closed_form_unit_shift(self):
        report = kl_divergence(gaussian_mean_shift(0.0, 1.0, 1.0))
        assert report.i_f1_f0 == pytest.approx(0.5, abs=1e-15)
        assert report.i_f0_f1 == pytest.approx(0.5, abs=1e-15)

    def test_divergent_pair_rejected(self):
        class Divergent:
            def closed_form_kl(self):
                return math.inf, 0.5

        with pytest.raises(ValueError, match="not finite"):
            kl_divergence(Divergent())

    def test_identical_densities_rejected(self):
        class Identical:
            def closed_form_kl(self):
                return 0.0, 0.0

        with pytest.raises(ValueError, match="not strictly positive"):
            kl_divergence(Identical())

    def test_pair_without_closed_form_refused(self, pair_without):
        lacking = pair_without("closed_form_kl")
        with pytest.raises(TypeError, match="closed_form_kl"):
            kl_divergence(lacking)
        assert lacking.calls == []


@given(
    mu0=st.floats(-5, 5),
    shift=st.floats(0.05, 5),
    sigma=st.floats(0.1, 10),
    x=st.floats(-20, 20),
)
def test_llr_identity_property(mu0, shift, sigma, x):
    p = gaussian_mean_shift(mu0, mu0 + shift, sigma)
    midpoint = (2 * mu0 + shift) / 2
    assert abs(p.llr(midpoint)) < 1e-9
    assert abs(p.llr(x) - (p.logf1(x) - p.logf0(x))) < 1e-9
