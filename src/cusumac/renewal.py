"""Renewal-cycle estimators for the adaptive-censoring detector.

Between alarms the fused M-sensor statistic decomposes into i.i.d. cycles: a
full-rate excursion from the switching threshold a1 (the two-sided SPRT leg,
duration eta) that either reaches the alarm threshold or falls back below a1
with re-entry value s_hat, followed - on return - by a censored climb back to
a1 (duration phi).  This module estimates those cycle quantities by
simulation, plus the derived checks built on them: the slow-regime
membership test (is the censored climb at least as long as a plain CuSum run
to a1?), the renewal-reward communication rate (``rate_upper_bound``, which
equals the long-run no-stop rate), and the expected per-alarm feedback
count.

Every leg, and the plain CuSum run t_a1, is one call of a single walker,
which steps one row of the engine's step table (``_engine._StepTables``)
from a start value until the statistic leaves (lower, upper): the
full-rate row for the SPRT leg, t_a1 and every plain CuSum or
random-transmission leg, the censored row for the climb back to a1.  The
table decides the increments, the regeneration level (a1, or 0) and which
alarms are strict, so the walker and the engine cannot disagree on the
detector they run.  Within a leg the row never changes, so the increments
are i.i.d. and a block of steps reduces to the engine's closed-form
reflected walk.  The walker draws on the engine's block schedule
(``_engine._block_steps``) with its own, smaller bounds: legs last a few to
a few dozen steps, so its first block has ``_WALK_FIRST`` steps per
replication and each later block doubles up to ``_WALK_BLOCK``.  The
schedule depends only on the step count.  Each call takes its draw source
as an argument.  The cycle estimators pass the engine's per-replication
source (``_engine._rep_draws``), so each leg reads its own stream in the
engine's layout and their results do not depend on batching.  The ARLFA
curve walks its legs in fixed batches of ``_LEG_BATCH`` and draws each
batch's block from one stream, as one array per sensor; its batches start
at multiples of ``_LEG_BATCH``, so the curve is a function of its seed and
leg count.

Both cycle estimators take the detector as every simulator does, as
``(config, pairs)``: a :class:`CusumAcConfig` whose strategies share one
censored rate.  ``estimate_cycle_direct`` measures whole cycles through the
scalar detector step function instead, giving an independent route for the
composition identity E[cycle] = E[eta] + p_return * E[phi | return].

``arlfa_curve`` turns the same decomposition into the mean time to false
alarm of all three detector families at every threshold of a grid, with the
rare alarm probability estimated by importance sampling; calibration reads
its thresholds off that curve.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._engine import _block_steps, _reflected, _rep_draws, _rep_rngs, _StepTables
from .detectors import CusumAcConfig, cusum_ac_multi_step, initial_state
from .montecarlo import McEstimate, derive_seed, summarize

__all__ = [
    "CycleStats",
    "DirectCycleStats",
    "EprimeCheck",
    "estimate_cycle",
    "estimate_cycle_direct",
    "ArlfaCurve",
    "arlfa_curve",
    "check_eprime_membership",
    "rate_upper_bound",
    "feedback_expectation",
]

_WALK_CAP = 10_000_000  # hard step cap for open-band walks; hits are flagged, never silent
_WALK_FIRST = 16   # steps in a walk's first block; blocks then double
_WALK_BLOCK = 256  # largest block
_LEG_BATCH = 1000  # legs of an ARLFA curve walked together


@dataclass(frozen=True)
class CycleStats:
    """Monte Carlo estimates of the renewal-cycle quantities at censored rate ``eps1``."""

    eps1: float
    eta0: McEstimate                 # mean SPRT leg duration from a1
    eta0_given_return: McEstimate    # same, conditioned on falling back below a1
    phi_given_return: McEstimate     # mean censored climb back to a1 after a return
    t_a1: McEstimate                 # plain-CuSum mean run length at threshold a1
    p_return: McEstimate             # probability the SPRT leg returns below a1
    return_value_samples: np.ndarray
    capped_walks: int


@dataclass(frozen=True)
class DirectCycleStats:
    """Whole-cycle measurements taken through the scalar detector steps."""

    cycle_length: McEstimate
    p_return: McEstimate


@dataclass(frozen=True)
class EprimeCheck:
    """Statistical verdict on slow-regime membership with its margin in SEs."""

    verdict: str  # "member" | "rejected" | "indeterminate"
    margin: float

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"


def _cycle_tables(config, pairs) -> _StepTables:
    """The step table of a renewal cycle's detector, refused unless the cycle is defined.

    Cycles are CuSum-AC's, with one censored rate shared by every sensor
    (the rate :class:`CycleStats` reports); the table checks the sensor count.
    """
    if not isinstance(config, CusumAcConfig):
        raise TypeError(f"renewal cycles need a CusumAcConfig, got {config!r}")
    if len({st.rate for st in config.strategies}) != 1:
        raise ValueError("renewal cycles need one censored rate shared by every sensor")
    return _StepTables(config, pairs)


def _batch_draws(tab: _StepTables, entropy: list, post_change: bool):
    """Whole-batch draws from the one stream ``default_rng(entropy)``.

    Each block is one (n_active, B) draw per sensor, then, for random
    transmission, the send flags as one (n_active, M, B) draw of uniforms.
    """
    rng = np.random.default_rng(entropy)
    samplers = [p.sample1 if post_change else p.sample0 for p in tab.pairs]

    def draw(act, k, B):
        x = np.empty((act.size, len(samplers), B))
        for m, sample in enumerate(samplers):
            x[:, m] = sample(rng, (act.size, B))
        if tab.send_prob is None:
            return x, None
        return x, rng.random(x.shape) < tab.send_prob
    return draw


def _walk(tab: _StepTables, censored: bool, starts: np.ndarray, lower: float, upper: float,
          draw, cap: int, *, levels=None):
    """Step one row of ``tab`` from ``starts`` until the statistic leaves (lower, upper).

    The fused increment is the table's censored row (in force below a1)
    throughout if ``censored``, else its full-rate row.  Blocks have 16, 16,
    32, 64, ... steps, doubling up to ``_WALK_BLOCK``, and come from
    ``draw(act, k, B) -> (obs, send flags)`` for the walks ``act`` still
    running after step k: the engine's per-replication source
    (:func:`_engine._rep_draws`, the cycle estimators') or one stream per
    call (:func:`_batch_draws`, the ARLFA curve's).  The schedule depends
    only on the step count.  The statistic is the closed-form reflected
    walk of the engine's :func:`_reflected`.

    Returns (durations, exit values, n_capped); a capped walk has duration
    ``cap`` and exit value NaN.  With nondecreasing ``levels`` it also
    returns (times, values), each (n, len(levels)): the step at which the
    statistic first reached each level (0 if never) and its value there.
    """
    n = starts.size
    act = np.arange(n)
    w = np.zeros(n)
    w_min = -starts
    dur = np.full(n, cap, dtype=np.int64)
    exit_s = np.full(n, np.nan)
    if levels is not None:
        times, values = np.zeros((n, levels.size), dtype=np.int64), np.zeros((n, levels.size))
    k = 0
    while act.size and k < cap:
        B = _block_steps(k, cap, _WALK_FIRST, _WALK_BLOCK)
        fused, _ = tab.increments(*draw(act, k, B), censored)
        s, w, w_min = _reflected(fused, w, w_min)
        out = (s <= lower) | (s >= upper)
        found = out.any(axis=1)
        last = np.where(found, out.argmax(axis=1), B - 1)
        rows = np.nonzero(found)[0]
        dur[act[rows]] = k + last[rows] + 1
        exit_s[act[rows]] = s[rows, last[rows]]
        if levels is not None:
            # at[i, j]: the first column where walk i has reached level j, or B.
            # Row i's count of levels reached never decreases, so offsetting it
            # by i * (len(levels) + 1) makes one sorted array for all rows.
            run = np.maximum.accumulate(np.where(np.arange(B) <= last[:, None], s, -np.inf), 1)
            row = np.arange(act.size)[:, None]
            count = np.searchsorted(levels, run, side="right") + row * (levels.size + 1)
            at = np.searchsorted(count.ravel(), row * (levels.size + 1) + np.arange(levels.size),
                                 side="right") - row * B
            r, j = np.nonzero((at < B) & (times[act] == 0))
            times[act[r], j] = k + 1 + at[r, j]
            values[act[r], j] = s[r, at[r, j]]
        keep = ~found
        act, w, w_min = act[keep], w[keep], w_min[keep]
        k += B
    if levels is None:
        return dur, exit_s, int(act.size)
    return dur, exit_s, int(act.size), (times, values)


def estimate_cycle(config: CusumAcConfig, pairs, n_reps: int, seed: int, *,
                   cap: int = _WALK_CAP) -> CycleStats:
    """Estimate the renewal-cycle quantities of the fused statistic pre-change.

    ``config`` is the CuSum-AC detector on ``pairs`` (one pair or a list of
    per-sensor pairs), its strategies sharing one censored rate.  Its alarm
    threshold may be infinite (the SPRT leg is then open above).  The
    censored climb is simulated from every observed re-entry value, so the
    conditional mean over the empirical re-entry distribution needs no
    parametric form.
    """
    tab = _cycle_tables(config, pairs)
    if n_reps < 100:
        raise ValueError("cycle estimation needs at least 100 replications")
    a1, a = config.a1, config.a

    def draws(salt, n):  # leg i of the walk reads stream [derive_seed(seed, salt), i, 0]
        return _rep_draws(tab, derive_seed(seed, salt), 0, n, None)

    eta, shat, capped_eta = _walk(tab, False, np.full(n_reps, a1),
                                  np.nextafter(a1, -math.inf), a, draws(11, n_reps), cap)
    returned = shat < a1
    ret_vals = shat[returned]
    phi, _, capped_phi = _walk(tab, True, ret_vals, -math.inf, a1,
                               draws(12, ret_vals.size), cap)
    # Plain CuSum's run to a1, whose alarm S > a1 is strict.
    t_a1, _, capped_t = _walk(tab, False, np.zeros(n_reps), -math.inf,
                              np.nextafter(a1, math.inf), draws(13, n_reps), cap)

    return CycleStats(
        eps1=config.strategies[0].rate,
        eta0=summarize(eta, capped_eta),
        eta0_given_return=summarize(eta[returned]),
        phi_given_return=summarize(phi, capped_phi),
        t_a1=summarize(t_a1, capped_t),
        p_return=summarize(returned.astype(float)),
        return_value_samples=ret_vals,
        capped_walks=capped_eta + capped_phi + capped_t,
    )


def estimate_cycle_direct(config: CusumAcConfig, pairs, n_cycles: int, seed: int, *,
                          cap: int = 1_000_000) -> DirectCycleStats:
    """Measure whole SPRT cycles by stepping the scalar fused detector from a1.

    Takes the detector as :func:`estimate_cycle` does.  A cycle ends at the
    alarm or at the bit-exact reset back to a1 after a spell below; this is
    the independent route the composition identity is checked against.
    """
    pairs = _cycle_tables(config, pairs).pairs
    a1 = config.a1
    lengths = np.zeros(n_cycles, dtype=np.int64)
    returned = np.zeros(n_cycles, dtype=bool)
    for i, rng in enumerate(_rep_rngs(seed, 0, n_cycles, 0)):
        state = initial_state(config, s0=a1)
        while True:
            prev_s = state.s
            xs = [float(p.sample0(rng)) for p in pairs]
            state, _ = cusum_ac_multi_step(state, config, xs, pairs)
            if state.stopped:
                lengths[i] = state.k
                break
            if prev_s < a1 and state.s == a1:
                lengths[i] = state.k
                returned[i] = True
                break
            if state.k >= cap:
                lengths[i] = cap
                break
    return DirectCycleStats(
        cycle_length=summarize(lengths),
        p_return=summarize(returned.astype(float)),
    )


@dataclass(frozen=True)
class ArlfaCurve:
    """ARLFA estimates at the thresholds ``a`` from ``n_legs`` legs of each kind.

    ``sums`` holds per threshold the sums over legs of y, y^2, q, q^2, z and
    z^2 (see :func:`arlfa_curve`); ``capped`` walks hit the step cap.
    """

    detector: object
    pairs: tuple
    a: np.ndarray
    seed: int
    n_legs: int
    sums: np.ndarray
    capped: int

    @property
    def mean(self) -> np.ndarray:
        y, q, z = self.sums[0::2] / self.n_legs
        with np.errstate(divide="ignore", invalid="ignore"):
            return z + y / q

    @property
    def std_error(self) -> np.ndarray:
        """Delta-method standard error of :attr:`mean`; the leg kinds are independent."""
        n = self.n_legs
        y, q, z = means = self.sums[0::2] / n
        var_y, var_q, var_z = np.maximum(self.sums[1::2] / n - means**2, 0.0) / (n - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sqrt(var_z + var_y / q**2 + y**2 * var_q / q**4)

    def estimate(self, i: int) -> McEstimate:
        """The curve at threshold ``a[i]``; ``n_reps`` counts legs."""
        return McEstimate(mean=float(self.mean[i]), std_error=float(self.std_error[i]),
                          n_reps=self.n_legs, truncated_reps=self.capped)

    def grown(self, n_legs: int) -> "ArlfaCurve":
        """This curve grown to ``n_legs`` legs, rounded up to whole batches of ``_LEG_BATCH``.

        Batch j holds legs j * _LEG_BATCH onward and draws from streams of
        its own, and the sums fold in one batch at a time, so growing in
        steps gives the curve built at once, bit for bit.
        """
        tab = _StepTables(self.detector, self.pairs)
        sums, capped = self.sums.copy(), self.capped
        total = max(self.n_legs, math.ceil(n_legs / _LEG_BATCH) * _LEG_BATCH)
        for start in range(self.n_legs, total, _LEG_BATCH):
            y, q, z, n_capped = _curve_legs(tab, self, start)
            sums += np.stack([v.sum(axis=0) for v in (y, y * y, q, q * q, z, z * z)])
            capped += n_capped
        return dataclasses.replace(self, n_legs=total, sums=sums, capped=capped)


def _curve_legs(tab: _StepTables, curve: ArlfaCurve, start: int):
    """y, q and z per threshold of the batch of legs from ``start``, and its capped walks."""
    n, r = _LEG_BATCH, tab.regen
    lower = max(np.nextafter(r, -math.inf), 0.0)  # a leg returns below r, or back to 0
    alarms = tab.inclusive(curve.a)

    def draws(kind, post_change=False):
        return _batch_draws(tab, [curve.seed, start, kind], post_change)

    dur, exit_s, capped, (t0, _) = _walk(tab, False, np.full(n, r), lower, alarms[-1],
                                         draws(0), _WALK_CAP, levels=alarms)
    _, _, capped_1, (t1, v1) = _walk(tab, False, np.full(n, r), lower, alarms[-1],
                                     draws(1, True), _WALK_CAP, levels=alarms)
    tail, z = dur.astype(float), np.zeros(n)
    if tab.censors:  # the censored climbs back to r: after a returned leg, and the first from 0
        returned = exit_s <= lower
        phi, _, capped_phi = _walk(tab, True, np.where(returned, exit_s, 0.0), -math.inf, r,
                                   draws(2), _WALK_CAP)
        z, _, capped_z = _walk(tab, True, np.zeros(n), -math.inf, r, draws(3), _WALK_CAP)
        tail += np.where(returned, phi, 0)
        capped += capped_phi + capped_z
    y = np.where(t0 > 0, t0, tail[:, None])
    q = np.where(t1 > 0, np.exp(r - v1), 0.0)
    return y, q, np.broadcast_to(z[:, None], y.shape).astype(float), capped + capped_1


def arlfa_curve(detector, pairs, a_grid, n_legs: int, seed: int) -> ArlfaCurve:
    """Renewal importance-sampling estimate of ARLFA(a) at every ``a`` in ``a_grid``.

    ``detector`` names the family (plain CuSum, random transmission, or
    two-level CuSum-AC with its a1 and strategies); its own threshold plays
    no part.  Every such detector regenerates at a level r: 0 for plain
    CuSum and random transmission, a1 for CuSum-AC, whose upward crossings
    clamp there.  So ARLFA(a) = E[z] + E[y(a)] / E[q(a)] over legs, where
    y is the full-rate leg from r until it reaches a or returns below r,
    plus for CuSum-AC the censored climb back to a1 after a return; q is the
    leg's indicator of reaching a; and z is the censored climb from 0 to a1
    (zero for the other families).  The path does not depend on a, only
    where it stops, so one walk to the top of the grid serves every
    threshold.  Reaching a is rare, so q is estimated by importance
    sampling (Siegmund, Ann. Statist. 1976): a second set of legs walks
    under the post-change law, and a passage with value s counts
    exp(-(s - r)), the exact likelihood ratio of a path that has not
    reflected.

    Legs are walked in batches of ``_LEG_BATCH``, and ``n_legs`` is rounded
    up to whole batches.  The batch of legs from i draws each kind from one
    stream [seed, i, k]: k = 0 for its pre-change legs, 1 for its
    post-change legs, 2 for the climbs after the pre-change legs and 3 for
    the first climbs.  So the curve is a function of (seed, n_legs), and
    growing it in steps (:meth:`ArlfaCurve.grown`) gives the same curve.
    Thresholds must be finite and nondecreasing, at least 0, and above a1
    for CuSum-AC.
    """
    tab = _StepTables(detector, pairs)
    a = np.asarray(a_grid, dtype=float)
    if a.ndim != 1 or not a.size or not np.isfinite(a).all() or (np.diff(a) < 0).any():
        raise ValueError("a_grid must be a nonempty nondecreasing sequence of finite reals")
    if not tab.inclusive(a[0]) > tab.regen:  # every alarm lies above the regeneration
        raise ValueError("thresholds must be nonnegative, and above a1 for CuSum-AC")
    if n_legs < 1:
        raise ValueError("an ARLFA curve needs at least one leg")
    empty = ArlfaCurve(detector=detector, pairs=tuple(tab.pairs), a=a, seed=seed,
                       n_legs=0, sums=np.zeros((6, a.size)), capped=0)
    return empty.grown(n_legs)


def check_eprime_membership(stats: CycleStats) -> EprimeCheck:
    """Decide whether the censored climb dominates a plain CuSum run to a1.

    The defining inequality compares two estimated means, so the verdict is
    statistical: member at margin >= +3 combined standard errors, rejected
    at <= -3, indeterminate in between.  Means without error give margin
    +inf or -inf by the sign of their difference, and 0 when equal.
    """
    se = math.hypot(stats.phi_given_return.std_error, stats.t_a1.std_error)
    diff = stats.phi_given_return.mean - stats.t_a1.mean
    margin = diff / se if se > 0 else (math.copysign(math.inf, diff) if diff else 0.0)
    if margin >= 3.0:
        verdict = "member"
    elif margin <= -3.0:
        verdict = "rejected"
    else:
        verdict = "indeterminate"
    return EprimeCheck(verdict=verdict, margin=float(margin))


def rate_upper_bound(stats: CycleStats) -> float:
    """The long-run pre-change communication rate, by renewal-reward.

    With the alarm open above, every SPRT leg returns, so pre-change time
    splits into i.i.d. cycles of a full-rate leg (mean eta, conditioned on
    return) and a censored climb (mean phi).  Every sensor sends on every
    full-rate step; a censored sensor sends with probability eps1 at each
    step, and the climb is a stopping time, so by Wald's identity a climb
    sends eps1 * phi on average.  The ratio (eta + eps1 * phi) / (eta + phi)
    is therefore exactly the no-stop rate, not only a bound on it.  Both
    means are estimates, so the ratio carries their Monte Carlo error.
    """
    eta = stats.eta0_given_return.mean
    phi = stats.phi_given_return.mean
    return (eta + stats.eps1 * phi) / (eta + phi)


def feedback_expectation(stats: CycleStats) -> float:
    """Expected strategy announcements per alarm, 2 / (1 - p_return).

    Each SPRT leg costs two announcements (the switch into the censored mode
    and the one out of it, the initial announcement standing in for the
    final leg's missing switch); legs per alarm are geometric.  A return
    probability at one within Monte Carlo resolution gives an unbounded
    count, reported as infinity.
    """
    p = stats.p_return.mean
    if p >= 1.0 - max(stats.p_return.std_error, 1e-12):
        return math.inf
    return 2.0 / (1.0 - p)
