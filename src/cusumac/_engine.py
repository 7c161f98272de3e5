"""Vectorized batch simulator behind the Monte Carlo estimators.

Replications are advanced in lockstep with numpy across the active set; each
replication owns RNG streams derived from (seed, replication index, substream)
so results do not depend on batching, chunk boundaries or worker count;
:func:`_rep_draws` lays them out for the kernel and the renewal-cycle walks.
Substream 0 carries observations, consumed in blocks that grow from one
``CHUNK`` of steps and double up to ``OBS_BLOCK`` (:func:`_block_steps`):
pre-change segment first when the change time falls inside a block, sensor
by sensor within a segment.  A run of consecutive equal pairs draws its
segment in one ``(g, steps)`` call, which numpy fills in C order, so it
equals g per-sensor calls; with identical sensors a replication draws each
segment of a block in one call.  Substream 1 carries the Bernoulli uniforms
of the random-transmission policy, one ``(B, M)`` draw per block of B steps.
The block sizes depend only on the step count, so two detectors simulated
under the same seed see identical observation sequences, which the paired
delay comparisons rely on, and a delay run that ends within a few dozen
steps draws one short block instead of a whole ``OBS_BLOCK``.  At M = 1 the
observations form one sequence whatever the block sizes, and the send
uniforms are drawn row-major, so only the sensor-major layout at M > 1
depends on the schedule.

A detector's step is described once, by :class:`_StepTables`, which the
kernel here and the renewal walker of :mod:`cusumac.renewal` both step: the
fused increment and send count of the full-rate row and, for CuSum-AC, of
the censored row in force below the switching threshold a1 (random
transmission's send flags mask the full-rate row), the regeneration level,
and the alarm test.  The table draws nothing.
Plain CuSum and random transmission are its case without a1; the table
turns their strict alarm ``S > a`` into the inclusive test against
``nextafter(a, inf)`` that CuSum-AC uses at ``a``.

Every batch runs on one kernel, and every observation block takes the same
four steps: draw, increments, one walk of the statistic, one outcome pass.
The row in force depends only on the statistic, so each block's increments
of both rows are computed in bulk first, from one LLR evaluation per sensor,
and the observation block is released unless the batch records.  The walk
returns the block's statistic (n, B) in one of three ways.  Without a1 and
without ``record`` the increments are i.i.d., and the reflected statistic is
the one closed form of :func:`_reflected`, a cumulative sum against its
running minimum, restarted from the statistic at each block here and
carried over a whole leg by the renewal walker.  Every other block takes
the per-step recursion (:func:`_recursion`): select the increment of the
row in force, reflect at zero, clamp an upward crossing of a1 to a1.  An
all-pre-change block walks its K chunks side by side as K * n lanes
(:func:`_walk_block`), chunk 0 from the statistic and every later chunk
from 0.0, after which each later chunk is repaired from the previous
chunk's end, stepping only its lanes that differ until they equal the
walked path bit for bit.  This is exact because the kernel carries only
the statistic.  Pre-change the statistic resets to exactly 0 or clamps to
exactly a1 every few steps, so the repair is short.  After the
change it drifts up, and paths from different starts do not meet, so a
block holding post-change steps is walked whole by the plain recursion, one
lane per replication.  The outcome pass (:func:`_block_outcomes`) then
reads everything else off the statistic, once per block for all three
detectors: the alarm (at +inf in a batch without stopping), the
``require_zero_at`` rejection, the stop time, and the send, feedback and
sojourn counts, which accumulate straight into the :class:`BatchResult`,
plus the trajectories of a recorded batch.  The row in force is a function
of the statistic, since a clamp lands on a1, and a detector without a1 is
always on its full-rate row and keeps no feedback or sojourn counts.
Recorded trajectories replay bit for bit through the scalar step functions
of :mod:`cusumac.detectors`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from .detectors import CusumAcConfig, CusumSpec, RandomTxSpec
from .model import as_pairs

OBS_BLOCK = 1024  # steps in the largest observation block; blocks double from one CHUNK
CHUNK = 128       # the first block's steps and the side-by-side walk's lane width


@dataclass
class BatchResult:
    """Per-replication outcomes of one simulated batch."""

    stop_time: np.ndarray   # int64; equals the step limit when not stopped
    stopped: np.ndarray     # bool
    tx: np.ndarray          # int64, transmissions summed over sensors
    feedback: np.ndarray    # int64, strategy announcements (initial one included)
    time_above: np.ndarray  # int64, steps with statistic >= a1; CuSum-AC's other steps are below
    rejected: np.ndarray    # bool; only populated under require_zero_at
    records: Optional[dict] = None

    @property
    def n_reps(self) -> int:
        return self.stop_time.size


def concat_results(parts: Sequence[BatchResult]) -> BatchResult:
    if len(parts) == 1:
        return parts[0]
    arrays = {f.name: np.concatenate([getattr(p, f.name) for p in parts])
              for f in fields(BatchResult) if f.name != "records"}
    return BatchResult(**arrays)


def _block_steps(k: int, limit: int, first: int = CHUNK, largest: int = OBS_BLOCK) -> int:
    """Steps in the observation block after step ``k`` of a run capped at ``limit``.

    The first block has ``first`` steps and every later one doubles, up to
    ``largest``: 128, 128, 256, 512, 1024, 1024, ... by default.  The size
    depends only on ``k``, so every replication draws the same blocks
    whatever it is batched with.
    """
    return min(largest, max(first, k), limit - k)


def _pre_steps(k0: int, B: int, nu: Optional[int]) -> int:
    if nu is None:
        return B
    return min(max(nu - 1 - k0, 0), B)


# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF


class _SeedWords:
    """A SeedSequence whose ``generate_state(4, uint64)`` output is precomputed.

    :func:`_rep_rngs` registers it as a numpy ``ISeedSequence`` on first
    use, so importing this module does not import ``numpy.random``.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64, "only PCG64 seeding"
        return self.words


def _u32_words(v: int) -> list:
    """The little-endian 32-bit words numpy's SeedSequence makes of an integer."""
    words = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        words.append(v & _MASK32)
    return words


def _hashmix(value: np.ndarray, hash_const: int, mult: int = _MULT_A) -> tuple:
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> np.uint32(16))


def _seed_words(seed: int, ids: np.ndarray, substream: int) -> np.ndarray:
    """``SeedSequence([seed, id, substream]).generate_state(4, uint64)`` for every id.

    The pool mixing and state generation of numpy's SeedSequence, run on
    uint32 columns: row r of the (n, 4) result seeds the generator of
    replication ``ids[r]``.  Ids must fit one 32-bit word, as numpy
    coerces them.
    """
    n = ids.size
    entropy = ([np.full(n, w, np.uint32) for w in _u32_words(seed)]
               + [ids.astype(np.uint32)]
               + [np.full(n, w, np.uint32) for w in _u32_words(substream)])
    hc = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, hc = _hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32), hc)
        pool.append(word)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                h, hc = _hashmix(pool[i_src], hc)
                pool[i_dst] = _mix(pool[i_dst], h)
    for extra in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            h, hc = _hashmix(extra, hc)
            pool[i_dst] = _mix(pool[i_dst], h)

    hc = _INIT_B
    state = []
    for i in range(8):  # 4 uint64 words, low half first
        word, hc = _hashmix(pool[i % _POOL_SIZE], hc, _MULT_B)
        state.append(word.astype(np.uint64))
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(state[::2], state[1::2])],
                    axis=1)


def _rep_rngs(seed: int, rep_offset: int, n_reps: int, substream: int) -> list:
    """One generator per replication, indexed by its position in the batch.

    Replication i gets ``default_rng([seed, rep_offset + i, substream])``,
    bit for bit.  The SeedSequence hashing of all n_reps generators runs at
    once in :func:`_seed_words`, so each generator costs only its PCG64
    construction.
    """
    seed, rep_offset = int(seed), int(rep_offset)
    if seed < 0 or rep_offset < 0:
        raise ValueError("seeds and replication offsets must be non-negative")
    if rep_offset + n_reps > 2**32:
        raise ValueError("replication ids must stay below 2**32")
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    words = _seed_words(seed, np.arange(rep_offset, rep_offset + n_reps, dtype=np.uint64),
                        substream)
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]


def _rep_draws(tab: _StepTables, seed: int, rep_offset: int, n_reps: int, nu: Optional[int]):
    """The draw source of a batch: ``draw(rep_ids, k0, B) -> (obs, send flags)``.

    For steps k0+1 .. k0+B of every listed replication, observations
    (n, M, B) come from its substream 0, pre-change segment first, sensor by
    sensor within a segment; a run of g equal pairs draws its segment in one
    (g, steps) call.  Random transmission's send flags, a C-contiguous
    (n, M, B) array, come from its substream 1, one (B, M) draw of uniforms
    per block; other detectors get None.
    """
    pairs, M, eps = tab.pairs, len(tab.pairs), tab.send_prob
    groups, m0 = [], 0  # (first sensor, one past the last, count, pair) per run of equal pairs
    for p, run in groupby(pairs):
        g = len(list(run))
        groups.append((m0, m0 + g, g, p))
        m0 += g
    obs_rngs = _rep_rngs(seed, rep_offset, n_reps, 0)
    flag_rngs = None if eps is None else _rep_rngs(seed, rep_offset, n_reps, 1)

    def draw(rep_ids, k0: int, B: int):
        n_pre = _pre_steps(k0, B, nu)
        obs = np.empty((len(rep_ids), M, B))
        flags = None if eps is None else np.empty((len(rep_ids), M, B), dtype=bool)
        for row, rid in enumerate(rep_ids):
            rng = obs_rngs[rid]
            # A (g, steps) draw fills g equal sensors in C order, as g draws in turn would.
            if n_pre:
                for m0, m1, g, p in groups:
                    obs[row, m0:m1, :n_pre] = p.sample0(rng, (g, n_pre))
            if n_pre < B:
                for m0, m1, g, p in groups:
                    obs[row, m0:m1, n_pre:] = p.sample1(rng, (g, B - n_pre))
            if flags is not None:
                flags[row] = (flag_rngs[rid].random((B, M)) < eps).T
        return obs, flags
    return draw


def _new_result(n_reps: int, limit: int) -> BatchResult:
    return BatchResult(
        stop_time=np.full(n_reps, limit, dtype=np.int64),
        stopped=np.zeros(n_reps, dtype=bool),
        tx=np.zeros(n_reps, dtype=np.int64),
        feedback=np.zeros(n_reps, dtype=np.int64),
        time_above=np.zeros(n_reps, dtype=np.int64),
        rejected=np.zeros(n_reps, dtype=bool),
    )


def run_batch(
    detector,
    pairs,
    *,
    n_reps: int,
    seed: int,
    rep_offset: int = 0,
    nu: Optional[int] = None,
    limit: int,
    stop_enabled: bool = True,
    require_zero_at: Optional[int] = None,
    record: bool = False,
) -> BatchResult:
    """Simulate ``n_reps`` independent trajectories of one detector.

    ``nu`` is the change time (observations switch to the post-change law
    from step nu on; None means the change never happens).  Every
    trajectory runs until its alarm, or for ``limit`` steps.  With
    ``stop_enabled=False`` the alarm threshold is ignored entirely (the
    censoring levels still apply).  ``require_zero_at=t`` marks as rejected
    every replication whose statistic is not exactly zero after step t (or
    that already alarmed by then), and stops simulating it.  ``record=True``
    keeps full per-step trajectories; intended for small test batches only.

    Every batch runs on the one kernel; see the module docstring for the
    growing observation blocks it draws, the three walks that give a
    block's statistic (the closed form of :func:`_reflected`, restarted at
    each block, and the per-step recursion side by side before the change
    or whole after it) and the one outcome pass that folds each block's
    statistic into the result.
    """
    if limit < 1:
        raise ValueError("limit must be at least one step")
    return _run_kernel(_StepTables(detector, pairs), n_reps, seed, rep_offset, nu, limit,
                       stop_enabled, require_zero_at, record)


def _reflected(inc: np.ndarray, w: np.ndarray, w_min: np.ndarray) -> tuple:
    """The reflected statistic c_k = w_k - min(-c_0, min_{j<=k} w_j) over ``inc`` (n, C).

    The one closed form of the CuSum recursion max(0, c + inc) on i.i.d.
    increments (Lindley, 1952).  ``w`` carries each lane's walk and
    ``w_min`` its running minimum (from -c_0); returns the statistic and
    both carries after the last column.  The kernel restarts it at each
    block (``w`` = 0, ``w_min`` = -statistic); the renewal walker carries
    both over a leg.  The statistic overwrites the walk, so the call holds
    two (n, C) arrays besides ``inc``.
    """
    walk = np.cumsum(inc, axis=1)
    walk += w[:, None]
    walk_min = np.minimum.accumulate(walk, axis=1)
    np.minimum(walk_min, w_min[:, None], out=walk_min)
    w, w_min = walk[:, -1].copy(), walk_min[:, -1].copy()
    return np.subtract(walk, walk_min, out=walk), w, w_min


class _StepTables:
    """The step of one detector on its sensors: a full-rate row, plus a censored row for CuSum-AC.

    CuSum-AC (``censors``) steps its censored row below a1, with each
    sensor's no-send interval ``lo``..``hi`` and the censored LLR ``llrc``
    of a no-send slot, and its full-rate row at or above a1.  Plain CuSum
    and random transmission have a1 = +inf, an empty no-send interval and
    only the full-rate row, which random transmission masks with Bernoulli
    send flags of probability ``send_prob``.  Their strict alarm ``S > a``
    is the inclusive ``S >= nextafter(a, inf)`` (see :meth:`inclusive`), and
    they never count time above a1.  ``regen`` is the level the statistic
    regenerates at: a1 for CuSum-AC, whose upward crossings clamp there, and
    0 for the others.
    """

    def __init__(self, detector, pairs):
        pairs = as_pairs(pairs)
        M = len(pairs)
        self.censors = isinstance(detector, CusumAcConfig)
        if self.censors:
            if detector.n_sensors != M:
                raise ValueError(f"config has {detector.n_sensors} sensors, got {M} pairs")
        elif not isinstance(detector, (CusumSpec, RandomTxSpec)):
            raise TypeError(f"unsupported detector {detector!r}")
        self.pairs = pairs
        self.send_prob = detector.epsilon if isinstance(detector, RandomTxSpec) else None
        self.a = self.inclusive(detector.a)
        self.a1 = detector.a1 if self.censors else np.inf
        self.regen = detector.a1 if self.censors else 0.0
        self.lo, self.hi, self.llrc = np.full(M, np.inf), np.full(M, -np.inf), np.zeros(M)
        if self.censors:
            for m, strat in enumerate(detector.strategies):
                self.lo[m], self.hi[m] = strat.nosend_x_lo, strat.nosend_x_hi
                self.llrc[m] = strat.llr_censored

    def inclusive(self, a):
        """Thresholds ``a`` as the test ``S >= inclusive(a)``: ``S > a`` unless CuSum-AC."""
        return a if self.censors else np.nextafter(a, np.inf)

    def increments(self, x, mask=None, censored=(False,)):
        """Fused increment and send count (n, C) of each row named in ``censored``.

        ``censored`` holds one flag per row wanted, True for the censored row
        and False for the full-rate row; a list of (fused, n_sent) pairs
        comes back in that order.  ``x`` is (n, M, C) for any number of steps
        C, as is ``mask``, the random-transmission send flags applied to the
        full-rate row; pass it C-contiguous, since the multiply by a strided
        view of each sensor's flags is several times slower.  Each sensor's
        LLR is evaluated once for all rows, and each row adds its sensors in
        order onto 0.0, as the scalar step function does.  Send counts take
        the smallest signed integer type that holds M, which is the one that
        holds -(M + 1).
        """
        n, M, C = x.shape
        fused = [np.zeros((n, C)) for _ in censored]
        n_sent = [np.full((n, C), M, dtype=np.min_scalar_type(-M - 1)) for _ in censored]
        for m, pair in enumerate(self.pairs):
            xm = x[:, m]
            raw = pair.llr(xm)
            for i, row_censored in enumerate(censored):
                if row_censored:
                    inside = (xm >= self.lo[m]) & (xm <= self.hi[m])
                    fused[i] += np.where(inside, self.llrc[m], raw)
                    n_sent[i] -= inside
                elif mask is None:
                    fused[i] += raw
                else:
                    fused[i] += raw * mask[:, m]
                    n_sent[i] -= ~mask[:, m]
        return list(zip(fused, n_sent))

    def sent(self, xt, censored, mask=None):
        """Send flags (C, n, M) of observations ``xt``, censored where ``censored`` (C, n).

        ``mask`` holds random transmission's send flags, (n, M, C) as in :meth:`increments`.
        """
        flags = ~censored[..., None] | (xt < self.lo) | (xt > self.hi)
        return flags if mask is None else flags & mask.transpose(2, 0, 1)


def _recursion(s, cen, full, a1, guess=None):
    """The per-step recursion from ``s`` over increments (C, L): the statistic after each step.

    Select the increment of the row in force (``cen`` below a1), reflect at
    zero, clamp an upward crossing of a1 to a1.  Given ``guess``, a path of
    the same lanes, it stops at the first step where every lane equals it:
    the recursion carries only the statistic, so the guess is the path from
    there on.
    """
    S = np.empty_like(cen)
    below = s < a1
    for j in range(cen.shape[0]):
        s = np.add(s, np.where(below, cen[j], full[j]), out=S[j])
        np.maximum(s, 0.0, out=s)
        np.copyto(s, a1, where=below & (s >= a1))
        if guess is not None and (s == guess[j]).all():
            return S[:j + 1]
        below = s < a1
    return S


def _walk_block(s, cen, full, a1):
    """The recursion's statistic (W, K, n) over K chunks of W steps of increments (n, B).

    The chunks are walked side by side as K * n lanes, chunk 0 from ``s`` and
    every later chunk from 0.0.  Pre-change, the statistic resets to exactly
    0 or clamps to exactly a1 every few steps, so paths from different
    starts merge bit for bit (the coupling of Propp and Wilson, 1996).  Each
    round then repairs the chunks whose start differs from the previous
    chunk's end: those lanes restart from that end and step until they equal
    the walked path.  A lane that never rejoins changes its chunk's end and
    hands it to the next round.  After round r chunks 0..r are exact, so at
    most K - 1 rounds run; with K = 1 the walk is the plain recursion.
    """
    n, B = cen.shape
    W = min(CHUNK, B)
    K = -(-B // W)

    def lanes(inc):  # column c * n + i holds chunk c of lane i; the last chunk is zero-padded
        if B < K * W:
            inc = np.pad(inc, ((0, 0), (0, K * W - B)))
        return inc.reshape(n, K, W).transpose(2, 1, 0).reshape(W, K * n)

    cen, full = lanes(cen), lanes(full)
    start = np.zeros(K * n)
    start[:n] = s
    S = _recursion(start, cen, full, a1)
    todo = np.arange(n, K * n)  # lanes whose start may differ from the previous chunk's end
    while True:
        prev_end = S[-1, todo - n]
        wrong = prev_end != start[todo]
        if not wrong.any():
            return S.reshape(W, K, n)
        todo = todo[wrong]
        start[todo] = prev_end[wrong]
        old_end = S[-1, todo]
        path = _recursion(start[todo], cen[:, todo], full[:, todo], a1, guess=S[:, todo])
        S[:path.shape[0], todo] = path
        todo = todo[S[-1, todo] != old_end] + n
        todo = todo[todo < K * n]


def _block_outcomes(res: BatchResult, tab: _StepTables, ids, s, S, n_full, n_cen, k: int,
                    alarm: float, require_zero_at: Optional[int], blocks, obs, gam) -> tuple:
    """Fold the statistic S (n, B) of one block, steps k+1 .. k+B, into ``res``.

    ``s`` holds each running replication's statistic before the block.  A
    replication ends at its first step at or above ``alarm``, or, with
    ``require_zero_at`` in the block, is rejected there unless its statistic
    is exactly zero.  Everything else follows from the statistic up to that
    step; the row in force is a function of it, since a clamp lands on a1.
    A detector without a1 is always on its full-rate row and keeps no
    feedback or sojourn counts.  Trajectories go to ``blocks`` when it is a
    list.  Returns the replications still running and their statistics.
    """
    n, B = S.shape
    hit = S >= alarm
    first = hit.argmax(axis=1)
    end = np.where(hit[np.arange(n), first], first, B)  # column of each last step
    alarmed = end < B
    if require_zero_at is not None and 0 <= require_zero_at - k - 1 < B:
        jr = require_zero_at - k - 1
        rej = (end > jr) & (S[:, jr] != 0.0)
        end[rej] = jr
        alarmed &= ~rej
        res.rejected[ids[rej]] = True
    live = np.arange(B) <= end[:, None]
    sends = n_full
    if tab.censors or blocks is not None:
        low = S < tab.a1  # below a1 after each step
        low_in = np.hstack((s[:, None] < tab.a1, low[:, :-1]))  # the censored row in force
        sends = np.where(low_in, n_cen, n_full)
        res.feedback[ids] += ((low != low_in) & live).sum(axis=1)
        res.time_above[ids] += (~low & live).sum(axis=1)
    res.tx[ids] += (sends * live).sum(axis=1)
    if blocks is not None:
        xt = obs.transpose(2, 0, 1)  # (B, n, M)
        sent = tab.sent(xt, low_in.T, gam)
        blocks.append((k, ids, np.where(live, S, np.nan).T,
                       np.where(live, low & tab.censors, -1).T,
                       sent & live.T[..., None], np.where(live.T[..., None], xt, np.nan)))
    done = end < B
    res.stop_time[ids[done]] = k + end[done] + 1
    res.stopped[ids[alarmed]] = True
    return ids[~done], S[~done, B - 1]


def _run_kernel(tab: _StepTables, n_reps, seed, rep_offset, nu, limit,
                stop_enabled, require_zero_at, record) -> BatchResult:
    closed = not tab.censors and not record  # i.i.d. increments: the closed-form step

    res = _new_result(n_reps, limit)
    draw = _rep_draws(tab, seed, rep_offset, n_reps, nu)

    ids = np.arange(n_reps)  # replications still running
    s = np.zeros(n_reps)
    alarm = tab.a if stop_enabled else np.inf
    blocks = [] if record else None

    k = 0
    while ids.size and k < limit:
        B = _block_steps(k, limit)
        obs, gam = draw(ids, k, B)
        # A detector that does not censor is always below a1 = +inf, on its full-rate row.
        inc = tab.increments(obs, gam, (False, True) if tab.censors else (False,))
        (full, n_full), (cen, n_cen) = inc[0], inc[-1]
        if not record:  # the increments are all the kernel reads of the block
            obs = gam = None
        if closed:
            S = _reflected(full, np.zeros(ids.size), -s)[0]
        elif _pre_steps(k, B, nu) == B:  # pre-change paths merge: walk the chunks side by side
            S = _walk_block(s, cen, full, tab.a1).transpose(2, 1, 0).reshape(ids.size, -1)[:, :B]
        else:
            S = _recursion(s, cen.T.copy(), full.T.copy(), tab.a1).T
        inc = full = cen = None  # the outcomes read only the statistic and the send counts
        ids, s = _block_outcomes(res, tab, ids, s, S, n_full, n_cen, k, alarm, require_zero_at,
                                 blocks, obs, gam)
        k += B
        obs = gam = S = n_full = n_cen = None  # release the block before drawing the next

    if tab.censors:
        # The starting level differs from the sensors' full-rate default, so the
        # initial strategy announcement counts as one feedback message.  A
        # detector that does not censor keeps no feedback or sojourn counts.
        res.feedback += 1
    if require_zero_at is not None:
        res.rejected |= res.stopped & (res.stop_time <= require_zero_at)
    if record:
        res.records = _records(res, blocks, len(tab.pairs))
    return res


def _records(res: BatchResult, blocks, M: int) -> dict:
    """Per-step (T, n_reps[, M]) trajectories up to the last replication's end.

    Steps after a replication ended hold NaN (``s``, ``obs``), -1 (``level``)
    and False (``sent``).
    """
    T = int(res.stop_time.max(initial=0))
    n = res.n_reps
    recs = {
        "s": np.full((T, n), np.nan),
        "level": np.full((T, n), -1, dtype=np.int64),
        "sent": np.zeros((T, n, M), dtype=bool),
        "obs": np.full((T, n, M), np.nan),
    }
    for k0, ids, *arrays in blocks:
        c = min(arrays[0].shape[0], T - k0)
        for key, arr in zip(("s", "level", "sent", "obs"), arrays):
            recs[key][k0:k0 + c, ids] = arr[:c]
    recs["stopped"] = res.stopped & (np.arange(1, T + 1)[:, None] >= res.stop_time)
    return recs

