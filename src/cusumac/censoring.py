"""Censoring strategies and the rate-constrained divergence-maximizing optimizer.

A censoring strategy sends an observation only when it falls outside a single
closed no-send interval of the observation.  For the monotone-LLR pairs this
package optimizes and simulates, that interval is the paper's no-send set of
likelihood ratios, compared in observation space as a sensor would.
``optimize`` returns, for a given pre-change send probability ``epsilon``,
the strategy maximizing the post-censoring K-L divergence

    E1[censored_llr] = integral of f1*llr over the send region
                       + p1_nosend * ln(p1_nosend / p0_nosend).

The no-send event itself carries the constant log-likelihood ratio
``ln(p1_nosend / p0_nosend)``, so a censored stream is still informative.
Both terms come from the pair's closed forms (``send_region_kl``, the CDFs
and ``quantile0``); nothing is integrated numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import kl_divergence, require_methods

__all__ = ["CensoringStrategy", "optimize", "full_rate_strategy"]

# Rates below this make the censored LLR and drift collapse toward zero,
# which blows up every downstream Monte Carlo horizon.
MIN_RATE = 1e-3

_QUANTILE_MARGIN = 1e-6
_GRID_POINTS = 256
_TIE_TOL = 1e-10


@dataclass(frozen=True)
class CensoringStrategy:
    """A send/no-send rule with its rate and information bookkeeping.

    ``rate`` is the pre-change send probability.  The no-send region is the
    closed observation interval [``nosend_x_lo``, ``nosend_x_hi``]; the
    full-rate strategy's empty interval is encoded as (+inf, +inf).  A no-send
    slot carries the constant LLR ``llr_censored`` = ln(p1_nosend / p0_nosend).
    """

    rate: float
    nosend_x_lo: float
    nosend_x_hi: float
    llr_censored: float
    p0_nosend: float
    p1_nosend: float
    post_kl: float

    def apply(self, x):
        """Send decision for observation(s) ``x``: True means transmit."""
        x = np.asarray(x)
        send = ~((x >= self.nosend_x_lo) & (x <= self.nosend_x_hi))
        return bool(send) if send.ndim == 0 else send


def full_rate_strategy(pair) -> CensoringStrategy:
    """Degenerate strategy that transmits everything (rate 1, empty interval)."""
    kl = kl_divergence(pair)
    return CensoringStrategy(
        rate=1.0,
        nosend_x_lo=math.inf,
        nosend_x_hi=math.inf,
        llr_censored=0.0,
        p0_nosend=0.0,
        p1_nosend=0.0,
        post_kl=kl.i_f1_f0,
    )


def _evaluate_interval(pair, lo: float, hi: float) -> tuple[float, float, float, float]:
    """(post_kl, p0_nosend, p1_nosend, llr_censored) for no-send interval [lo, hi]."""
    p0 = float(pair.cdf0(hi) - pair.cdf0(lo))
    p1 = float(pair.cdf1(hi) - pair.cdf1(lo))
    llr_c = math.log(p1 / p0)
    post = pair.send_region_kl(lo, hi) + p1 * llr_c
    return post, p0, p1, llr_c


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Golden-section maximizer on [lo, hi]; returns the abscissa."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def optimize(pair, epsilon: float) -> CensoringStrategy:
    """Strategy with pre-change send probability ``epsilon`` and maximal post-censoring K-L.

    The no-send interval's lower endpoint is searched on a 256-point grid
    (refined by golden section); for each candidate the upper endpoint is
    pinned by the rate constraint cdf0(hi) - cdf0(lo) = 1 - epsilon.  Ties
    within 1e-10 nats resolve to the smallest lower endpoint.  Everything is
    evaluated from the pair's closed forms ``cdf0``, ``cdf1``, ``quantile0``
    and ``send_region_kl``, never integrated numerically; a pair lacking one
    is refused with ``TypeError``.  Requires a monotone-LLR pair, the case
    where one observation interval is the optimal no-send set; epsilon = 1
    short-circuits to the full-rate strategy, which needs only the pair's
    ``closed_form_kl``, and rates below 1e-3 are rejected as degenerate.

    Results are memoized on ``(pair, epsilon)`` when the pair is hashable
    (``GaussianPair`` is a frozen dataclass), so a network of identical
    sensors is optimized once; the returned strategy is immutable and
    shared.  Unhashable pairs are optimized on every call.
    """
    try:
        hash(pair)
    except TypeError:
        return _optimize(pair, epsilon)
    return _optimize_memo(pair, epsilon)


@functools.lru_cache(maxsize=1024)
def _optimize_memo(pair, epsilon: float) -> CensoringStrategy:
    return _optimize(pair, epsilon)


def _optimize(pair, epsilon: float) -> CensoringStrategy:
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if epsilon == 1.0:
        return full_rate_strategy(pair)
    if epsilon < MIN_RATE:
        raise ValueError(
            f"epsilon={epsilon} below {MIN_RATE}: censored drift degenerates to zero"
        )
    require_methods(pair, "cdf0", "cdf1", "quantile0", "send_region_kl")
    if not getattr(pair, "monotone_llr", False):
        raise NotImplementedError(
            "a censoring strategy is one no-send interval of the observation, "
            "which is optimal only for pairs with a monotone likelihood ratio"
        )

    nosend_mass = 1.0 - epsilon

    def upper_for(lo: float) -> float:
        return float(pair.quantile0(float(pair.cdf0(lo)) + nosend_mass))

    def objective(lo: float) -> float:
        return _evaluate_interval(pair, lo, upper_for(lo))[0]

    # Feasible lower endpoints satisfy cdf0(lo) <= epsilon so the pinned upper
    # endpoint stays inside the support; a 1e-6 margin keeps both solvable.
    l_min = float(pair.quantile0(_QUANTILE_MARGIN))
    l_max = float(pair.quantile0(epsilon - _QUANTILE_MARGIN))
    grid = np.linspace(l_min, l_max, _GRID_POINTS)
    values = np.array([objective(l) for l in grid])

    best_value = values.max()
    best_idx = int(np.nonzero(values >= best_value - _TIE_TOL)[0][0])
    lo_bracket = grid[max(best_idx - 1, 0)]
    hi_bracket = grid[min(best_idx + 1, len(grid) - 1)]
    lo_star = _golden_max(objective, float(lo_bracket), float(hi_bracket))
    if objective(lo_star) < values[best_idx]:
        lo_star = float(grid[best_idx])

    hi_star = upper_for(lo_star)
    post, p0, p1, llr_c = _evaluate_interval(pair, lo_star, hi_star)
    return CensoringStrategy(
        rate=float(epsilon),
        nosend_x_lo=float(lo_star),
        nosend_x_hi=float(hi_star),
        llr_censored=llr_c,
        p0_nosend=p0,
        p1_nosend=p1,
        post_kl=post,
    )
