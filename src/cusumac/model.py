"""Observation models: pre/post-change distribution pairs and K-L divergences.

A distribution pair bundles everything the detectors and simulators need to
know about the observation model: densities, CDFs, samplers and the
log-likelihood ratio (LLR).  The LLR is always a first-class function of the
pair, never reconstructed from density ratios at run time, and densities are
evaluated in log space so the tails do not underflow.

Only the Gaussian mean-shift pair ships built in.  Any object exposing the
surface a caller needs can be passed wherever a pair is expected: the
engine reads ``sample0``, ``sample1`` and ``llr``; the censoring optimizer
reads ``cdf0``, ``cdf1``, ``quantile0``, ``send_region_kl`` (the post-change
LLR mass outside a no-send interval, its objective) and ``monotone_llr``;
``kl_divergence`` reads ``closed_form_kl``.  The last two callers' methods
are closed forms, never integrated numerically: a pair missing one is
refused with ``TypeError``.  ``GaussianPair`` has them all and computes its
CDF and quantile with the standard library.  The engine passes the samplers
a ``(g, steps)`` shape, for g equal sensors drawn together (g may be 1), so a
sampler must fill a shape in C order from the stream, as numpy's generators
do: one ``(g, steps)`` draw equals g draws of ``steps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "GaussianPair",
    "KlReport",
    "as_pairs",
    "gaussian_mean_shift",
    "kl_divergence",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def as_pairs(pairs) -> list:
    """One pair, or a list or tuple of per-sensor pairs, as a list of pairs."""
    return list(pairs) if isinstance(pairs, (list, tuple)) else [pairs]


def require_methods(pair, *names: str) -> None:
    """Refuse, with ``TypeError``, a pair that lacks any of the named methods."""
    missing = [name for name in names if not hasattr(pair, name)]
    if missing:
        raise TypeError(f"{type(pair).__name__} lacks {', '.join(missing)}; "
                        "a pair must supply these closed forms")


def _elementwise(fn, x):
    """``fn`` of a scalar as a float, of an array elementwise as a float array."""
    if np.ndim(x) == 0:
        return fn(float(x))
    return np.vectorize(fn, otypes=[float])(x)


def _normal_cdf(z: float) -> float:
    """Standard normal CDF, erfc(-z / sqrt 2) / 2; Q(z) is ``_normal_cdf(-z)``."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _normal_quantile(q: float) -> float:
    # NormalDist.inv_cdf rejects the endpoints; keep norm.ppf's conventions.
    if 0.0 < q < 1.0:
        return _STD_NORMAL.inv_cdf(q)
    if q == 0.0:
        return -math.inf
    if q == 1.0:
        return math.inf
    return math.nan


@dataclass(frozen=True)
class GaussianPair:
    """Mean shift in Gaussian noise: N(mu0, sigma^2) before, N(mu1, sigma^2) after.

    The LLR is affine, ``llr(x) = llr_slope * x + llr_intercept``, hence
    monotone, so censoring regions can be expressed directly in observation
    space.  Immutable and safely shareable across concurrent replications;
    samplers take the RNG stream as an explicit argument.
    """

    mu0: float
    mu1: float
    sigma: float

    def __post_init__(self):
        # Identical distributions have zero divergence and make every
        # detection statistic degenerate.
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")
        if not (math.isfinite(self.mu0) and math.isfinite(self.mu1)):
            raise ValueError("mu0 and mu1 must be finite")
        if self.mu0 == self.mu1:
            raise ValueError("mu0 == mu1 gives zero divergence; the pair is inadmissible")

    @property
    def monotone_llr(self) -> bool:
        return True

    @property
    def llr_slope(self) -> float:
        return (self.mu1 - self.mu0) / self.sigma**2

    @property
    def llr_intercept(self) -> float:
        return -(self.mu1**2 - self.mu0**2) / (2.0 * self.sigma**2)

    def llr(self, x):
        """Log-likelihood ratio ln(f1(x)/f0(x)); scalar or ndarray."""
        return self.llr_slope * np.asarray(x, dtype=float) + self.llr_intercept

    def logf0(self, x):
        z = (np.asarray(x, dtype=float) - self.mu0) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI

    def logf1(self, x):
        z = (np.asarray(x, dtype=float) - self.mu1) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI

    def f0(self, x):
        return np.exp(self.logf0(x))

    def f1(self, x):
        return np.exp(self.logf1(x))

    def cdf0(self, x):
        return _elementwise(lambda v: _normal_cdf((v - self.mu0) / self.sigma), x)

    def cdf1(self, x):
        return _elementwise(lambda v: _normal_cdf((v - self.mu1) / self.sigma), x)

    def quantile0(self, q):
        return _elementwise(lambda p: self.mu0 + self.sigma * _normal_quantile(p), q)

    def sample0(self, rng: np.random.Generator, size=None):
        return rng.normal(self.mu0, self.sigma, size)

    def sample1(self, rng: np.random.Generator, size=None):
        return rng.normal(self.mu1, self.sigma, size)

    def closed_form_kl(self) -> tuple[float, float]:
        d = (self.mu1 - self.mu0) ** 2 / (2.0 * self.sigma**2)
        return d, d

    def send_region_kl(self, lo: float, hi: float) -> float:
        """Integral of f1 * llr over the send region (-inf, lo) u (hi, inf).

        With z = (x - mu1) / sigma, the truncated first moments of N(mu1,
        sigma^2) are mu1 * Phi(z_lo) - sigma * phi(z_lo) below ``lo`` and
        mu1 * Q(z_hi) + sigma * phi(z_hi) above ``hi``; the LLR is affine.
        """
        z_lo = (lo - self.mu1) / self.sigma
        z_hi = (hi - self.mu1) / self.sigma
        below = _normal_cdf(z_lo)
        above = _normal_cdf(-z_hi)
        dens_lo = math.exp(-0.5 * z_lo * z_lo - _LOG_SQRT_2PI)
        dens_hi = math.exp(-0.5 * z_hi * z_hi - _LOG_SQRT_2PI)
        slope, c = self.llr_slope, self.llr_intercept
        return (slope * (self.mu1 * below - self.sigma * dens_lo) + c * below
                + slope * (self.mu1 * above + self.sigma * dens_hi) + c * above)


@dataclass(frozen=True)
class KlReport:
    """Both K-L divergences of a pair, in nats."""

    i_f1_f0: float
    i_f0_f1: float


def gaussian_mean_shift(mu0: float, mu1: float, sigma: float) -> GaussianPair:
    """Build the Gaussian mean-shift pair N(mu0, sigma^2) -> N(mu1, sigma^2).

    ``GaussianPair`` rejects ``sigma <= 0``, non-finite means and ``mu0 == mu1``.
    """
    return GaussianPair(float(mu0), float(mu1), float(sigma))


def kl_divergence(pair) -> KlReport:
    """I(f1||f0) and I(f0||f1) of an admitted pair, from its ``closed_form_kl()``.

    A pair without ``closed_form_kl`` is refused with ``TypeError``.
    Non-finite or numerically zero (<= 1e-12) divergences break the
    finiteness assumption and are rejected.
    """
    require_methods(pair, "closed_form_kl")
    i10, i01 = pair.closed_form_kl()
    for name, value in (("I(f1||f0)", i10), ("I(f0||f1)", i01)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite; pair violates the divergence assumption")
        if value <= 1e-12:
            raise ValueError(
                f"{name} = {value:g} is not strictly positive; pair is inadmissible"
            )
    return KlReport(float(i10), float(i01))
