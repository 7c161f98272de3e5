"""Cross-validation of the batch simulator against the scalar step functions.

The engine must be a bit-exact vectorization of the single-step semantics;
these tests replay recorded engine trajectories through the step functions
and check every statistic, level, send decision and counter.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusumac import _engine as eng
from cusumac.censoring import CensoringStrategy
from cusumac.detectors import (
    CusumAcConfig,
    CusumSpec,
    RandomTxSpec,
    cusum_ac_multi_step,
    cusum_step,
    initial_state,
    random_tx_cusum_step,
    two_level,
)
from cusumac.model import GaussianPair
from test_renewal import _RecordingPair


class _ScriptedRng:
    """Serves 0.0/1.0 so a replayed Bernoulli matches recorded send flags."""

    def __init__(self, flags):
        self.flags = list(flags)

    def random(self):
        return 0.0 if self.flags.pop(0) else 1.0


def replay_cusum_ac(batch, config, pairs):
    recs = batch.records
    n = batch.n_reps
    for i in range(n):
        state = initial_state(config)
        steps = int(batch.stop_time[i]) if batch.stopped[i] else recs["s"].shape[0]
        for k in range(steps):
            xs = [recs["obs"][k, i, m] for m in range(len(pairs))]
            state, sent = cusum_ac_multi_step(state, config, xs, pairs)
            assert state.s == recs["s"][k, i]
            assert recs["level"][k, i] == (state.s < config.a1)
            assert sent == list(recs["sent"][k, i])
        if batch.stopped[i]:
            assert state.stopped and state.k == batch.stop_time[i]
        assert state.tx_count == batch.tx[i]
        assert state.feedback_count == batch.feedback[i]
        assert state.time_above_a1 == batch.time_above[i]
        assert state.k - state.time_above_a1 == batch.stop_time[i] - batch.time_above[i]


class TestCusumAcReplay:
    def test_single_sensor(self, pair):
        cfg = two_level(pair, a=3.0, a1=0.78, eps1=0.4)
        batch = eng.run_batch(cfg, [pair], n_reps=8, seed=100, limit=600, record=True)
        assert batch.stopped.all()
        replay_cusum_ac(batch, cfg, [pair])

    def test_three_sensors(self, pair, pairs3):
        cfg = two_level(pairs3, a=6.0, a1=0.79, eps1=0.27)
        batch = eng.run_batch(cfg, pairs3, n_reps=6, seed=101, limit=400,
                              nu=20, record=True)
        replay_cusum_ac(batch, cfg, pairs3)

    def test_heterogeneous_sensor_rates(self, pair):
        cfg = two_level([pair, pair], a=5.0, a1=0.78, eps1=[0.2, 0.8])
        batch = eng.run_batch(cfg, [pair, pair], n_reps=6, seed=104, limit=400,
                              record=True)
        replay_cusum_ac(batch, cfg, [pair, pair])

    def test_switching_threshold_near_alarm(self, pair):
        # a1 close to a: most climbs are clamped to a1 before they alarm.
        cfg = two_level(pair, a=1.5, a1=1.2, eps1=0.6)
        batch = eng.run_batch(cfg, [pair], n_reps=6, seed=102, limit=800, record=True)
        assert (batch.records["s"] == cfg.a1).any()
        replay_cusum_ac(batch, cfg, [pair])

    def test_no_stop_mode_ignores_alarm(self, pair):
        cfg = two_level(pair, a=1.5, a1=0.5, eps1=0.5)
        batch = eng.run_batch(cfg, [pair], n_reps=5, seed=103, limit=300,
                              stop_enabled=False, record=True)
        assert not batch.stopped.any()
        assert (batch.stop_time == 300).all()
        assert (batch.records["s"] > cfg.a).any()  # statistic roams past a
        assert (batch.time_above == (batch.records["s"] >= cfg.a1).sum(axis=0)).all()


class TestIidReplay:
    def test_cusum_steploop(self, pair):
        batch = eng.run_batch(CusumSpec(2.5), [pair], n_reps=6, seed=44,
                              nu=1, limit=500, record=True)
        recs = batch.records
        for i in range(6):
            state = initial_state()
            steps = int(batch.stop_time[i]) if batch.stopped[i] else 500
            for k in range(steps):
                x = recs["obs"][k, i, 0]
                state = cusum_step(state, float(pair.llr(x)), 2.5)
                assert state.s == recs["s"][k, i]
                assert recs["level"][k, i] == 0
            assert recs["sent"][:steps, i, 0].all()
            assert state.stopped == batch.stopped[i]
            assert state.tx_count == batch.tx[i]
        for field in ("feedback", "time_above"):
            assert not getattr(batch, field).any(), field

    def test_random_tx_steploop(self, pair):
        det = RandomTxSpec(2.0, 0.5)
        batch = eng.run_batch(det, [pair], n_reps=6, seed=45, nu=1, limit=800,
                              record=True)
        recs = batch.records
        for i in range(6):
            state = initial_state()
            steps = int(batch.stop_time[i]) if batch.stopped[i] else 800
            flags = _ScriptedRng(recs["sent"][:steps, i, 0])
            for k in range(steps):
                x = recs["obs"][k, i, 0]
                state, sent = random_tx_cusum_step(state, x, pair, det.epsilon,
                                                   det.a, flags)
                assert sent == bool(recs["sent"][k, i, 0])
                assert state.s == recs["s"][k, i]
                assert recs["level"][k, i] == 0
            assert state.stopped == batch.stopped[i]
            assert state.tx_count == batch.tx[i]
        for field in ("feedback", "time_above"):
            assert not getattr(batch, field).any(), field

    # Each case runs the closed-form step (record=False) against the per-step
    # recursion (record=True) on the same draws.
    _FORMS_CASES = {
        "m1_nu1": ((CusumSpec(3.0), RandomTxSpec(3.0, 0.6)), 1,
                   dict(n_reps=40, seed=46, nu=1, limit=3000)),
        "m3_change_in_second_block": ((RandomTxSpec(4.0, 0.5),), 3,
                                      dict(n_reps=40, seed=48, nu=1500, limit=5000)),
        # Rejection at a step past two blocks makes the statistic's zeros count.
        "nostop_past_two_blocks": ((CusumSpec(3.0),), 1,
                                   dict(n_reps=40, seed=49, limit=2 * eng.OBS_BLOCK + 200,
                                        stop_enabled=False,
                                        require_zero_at=2 * eng.OBS_BLOCK + 100)),
        "conditioned": ((CusumSpec(4.0), RandomTxSpec(4.0, 0.5)), 1,
                        dict(n_reps=120, seed=50, nu=20, limit=3000, require_zero_at=19)),
        # The block pass's edges; test_block_edge_cases_reach_their_edge keeps them there.
        "m3_random_tx_arl_full_blocks": ((RandomTxSpec(5.0, 0.5),), 3,
                                         dict(n_reps=40, seed=60, limit=8000)),
        "limit_inside_a_block": ((CusumSpec(5.0), RandomTxSpec(5.0, 0.5)), 1,
                                 dict(n_reps=40, seed=61, limit=2 * eng.OBS_BLOCK + 300)),
        "zero_in_fifth_chunk": ((CusumSpec(5.0), RandomTxSpec(5.0, 0.5)), 1,
                                dict(n_reps=60, seed=62, limit=4000,
                                     require_zero_at=eng.OBS_BLOCK + 4 * eng.CHUNK + 60)),
        "alarm_in_last_chunk": ((CusumSpec(6.0),), 3,
                                dict(n_reps=40, seed=70, nu=1912, limit=6000)),
        # The closed form restarts at each block of a 10 000-step run; the
        # statistic's zeros count at the first step of the last block, whose
        # statistic is the restart's.
        "m3_nostop_ten_blocks": ((CusumSpec(6.0), RandomTxSpec(5.5, 0.5)), 3,
                                 dict(n_reps=20, seed=71, limit=10_000, stop_enabled=False,
                                      require_zero_at=9 * eng.OBS_BLOCK + 1)),
    }

    @pytest.mark.parametrize("name", sorted(_FORMS_CASES))
    def test_block_path_matches_steploop(self, pair, name):
        # The closed-form block path and the per-step loop must agree exactly.
        dets, m, kwargs = self._FORMS_CASES[name]
        for det in dets:
            fast = eng.run_batch(det, [pair] * m, **kwargs)
            slow = eng.run_batch(det, [pair] * m, record=True, **kwargs)
            for field in _FIELDS:
                np.testing.assert_array_equal(getattr(fast, field), getattr(slow, field),
                                              err_msg=field)
            if "require_zero_at" in kwargs:
                assert fast.rejected.any() and (~fast.rejected).any()

    def test_block_edge_cases_reach_their_edge(self, pair):
        def block(t, limit):  # (steps before, size) of the observation block holding step t
            k = 0
            while k + eng._block_steps(k, limit) < t:
                k += eng._block_steps(k, limit)
            return k, eng._block_steps(k, limit)

        def run(name):
            dets, m, kwargs = self._FORMS_CASES[name]
            return [(eng.run_batch(det, [pair] * m, **kwargs), kwargs) for det in dets]

        for batch, kw in run("m3_random_tx_arl_full_blocks"):
            assert (batch.stop_time > 2 * eng.OBS_BLOCK).sum() >= 5
        for batch, kw in run("limit_inside_a_block"):
            k, B = block(kw["limit"], kw["limit"])
            assert B % eng.CHUNK and k + eng.OBS_BLOCK > kw["limit"]
            assert batch.stopped.any() and (batch.stop_time == kw["limit"]).any()
        for batch, kw in run("zero_in_fifth_chunk"):
            k, B = block(kw["require_zero_at"], kw["limit"])
            assert B == eng.OBS_BLOCK and (kw["require_zero_at"] - k - 1) // eng.CHUNK == 4
        for batch, kw in run("alarm_in_last_chunk"):
            last = []
            for t in batch.stop_time[batch.stopped]:
                k, B = block(t, kw["limit"])
                last.append(B == eng.OBS_BLOCK and t > k + B - eng.CHUNK)
            assert sum(last) >= 3

    # sha256 over the BatchResult arrays of conditioned runs.  The M = 1 pin
    # was generated by the per-step i.i.d. loop that preceded the kernel's
    # no-level case; the M = 3 pin by the kernel, once observation blocks grew
    # from one chunk, since that schedule reorders the sensor-major draws.
    _GOLDEN_CONDITIONED = {
        "cusum": (CusumSpec(4.0), 1, dict(n_reps=300, seed=52, nu=20, limit=5000,
                                          require_zero_at=19),
                  "2e642dd1245e5d28f8a462e15782a41c0a0a77a126d0aabd9b97312286daed3a"),
        "random_tx": (RandomTxSpec(5.0, 0.5), 3,
                      dict(n_reps=200, seed=53, nu=1101, limit=6000, require_zero_at=1100),
                      "b9ec2cd38da74d2bb672dddce573f6a348826226f1726b379f9835a9cc724f12"),
    }

    @pytest.mark.parametrize("name", sorted(_GOLDEN_CONDITIONED))
    def test_conditioned_golden_digests(self, pair, name):
        det, m, kwargs, digest = self._GOLDEN_CONDITIONED[name]
        batch = eng.run_batch(det, [pair] * m, **kwargs)
        assert batch.rejected.any() and (~batch.rejected).any()
        assert _digest(batch, det) == digest

    # sha256 over the BatchResult arrays of unrecorded, unconditioned runs.
    # The M = 1 pin was generated by the closed-form block body that preceded
    # the single kernel; the M >= 2 pins by the kernel, once observation
    # blocks grew from one chunk, since that schedule reorders their draws.
    _GOLDEN_IID = {
        "cusum_m3": (CusumSpec(5.0), 3, dict(n_reps=64, seed=401, limit=6000),
                     "12c6c9b5708547001af1ea9febc6ce3a10b85bf253b967ea934b44c344ddfbd9"),
        "random_tx_m3_delay": (RandomTxSpec(4.0, 0.5), 3,
                               dict(n_reps=48, seed=402, limit=5000, nu=1500),
                               "7e2498d589bb9f7fb27c88a116605153233ece92eb40282e3cb3e30416d65c34"),
        "cusum_nostop": (CusumSpec(3.0), 1,
                         dict(n_reps=20, seed=403, limit=2500, stop_enabled=False),
                         "fbe366dbcee7c3050b16c689b3bbb010a94cddcba5cddbe3075dfe9de1038194"),
        "random_tx_m2": (RandomTxSpec(5.0, 0.3), 2, dict(n_reps=40, seed=404, limit=6000),
                         "ecf09de8c07a327de3f06fbd9d342bc7803cede1be22f568f152860ba4377f22"),
    }

    @pytest.mark.parametrize("name", sorted(_GOLDEN_IID))
    def test_iid_golden_digests(self, pair, name):
        det, m, kwargs, digest = self._GOLDEN_IID[name]
        assert _digest(eng.run_batch(det, [pair] * m, **kwargs), det) == digest

    def test_block_path_multisensor_full_rate_identity(self, pairs3):
        # eps = 1 random transmission is pathwise the plain fused CuSum.
        c = eng.run_batch(CusumSpec(5.0), pairs3, n_reps=50, seed=47, limit=4000)
        r = eng.run_batch(RandomTxSpec(5.0, 1.0), pairs3, n_reps=50, seed=47,
                          limit=4000)
        np.testing.assert_array_equal(c.stop_time, r.stop_time)
        np.testing.assert_array_equal(c.tx, r.tx)


class TestEngineDeterminism:
    def test_chunking_invariance(self, pair):
        cfg = two_level(pair, a=4.0, a1=0.78, eps1=0.63)
        whole = eng.run_batch(cfg, [pair], n_reps=30, seed=9, limit=50_000)
        part1 = eng.run_batch(cfg, [pair], n_reps=11, seed=9, limit=50_000)
        part2 = eng.run_batch(cfg, [pair], n_reps=19, seed=9, rep_offset=11,
                              limit=50_000)
        merged = eng.concat_results([part1, part2])
        np.testing.assert_array_equal(whole.stop_time, merged.stop_time)
        np.testing.assert_array_equal(whole.tx, merged.tx)
        np.testing.assert_array_equal(whole.feedback, merged.feedback)

    def test_same_seed_same_result(self, pair):
        a = eng.run_batch(CusumSpec(4.0), [pair], n_reps=50, seed=10, limit=30_000)
        b = eng.run_batch(CusumSpec(4.0), [pair], n_reps=50, seed=10, limit=30_000)
        np.testing.assert_array_equal(a.stop_time, b.stop_time)
        c = eng.run_batch(CusumSpec(4.0), [pair], n_reps=50, seed=11, limit=30_000)
        assert not np.array_equal(a.stop_time, c.stop_time)

    def test_shared_seed_pairs_observation_streams(self, pair):
        # Different detectors under one seed must consume identical
        # observations; with every level at full rate the adaptive detector's
        # alarm can only come earlier (the reset only lowers the statistic).
        cfg = two_level(pair, a=4.0, a1=0.78, eps1=1.0)
        ac = eng.run_batch(cfg, [pair], n_reps=60, seed=12, nu=1, limit=20_000)
        cu = eng.run_batch(CusumSpec(4.0), [pair], n_reps=60, seed=12, nu=1,
                           limit=20_000)
        assert (ac.stop_time >= cu.stop_time).all()

    def test_require_zero_at_partitions_reps(self, pair):
        cfg = two_level(pair, a=4.5, a1=0.78, eps1=0.63)
        batch = eng.run_batch(cfg, [pair], n_reps=300, seed=13, nu=20,
                              limit=5000, require_zero_at=19)
        assert batch.rejected.any() and (~batch.rejected).any()
        # Accepted replications continued past the conditioning step.
        assert (batch.stop_time[~batch.rejected] > 19).all()
        assert (batch.stop_time[batch.rejected] <= 19).all()


class TestRepRngs:
    @pytest.mark.parametrize("n_reps", [0, 1, 5])
    @pytest.mark.parametrize("substream", [0, 1])
    @pytest.mark.parametrize("rep_offset", [0, 123_456_789])
    # 2**96 + 7 has three 32-bit words, so its entropy overflows the hash pool.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1,
                                      2**96 + 7])
    def test_bulk_seeding_matches_default_rng(self, seed, rep_offset, substream, n_reps):
        rngs = eng._rep_rngs(seed, rep_offset, n_reps, substream)
        assert len(rngs) == n_reps
        for i, rng in enumerate(rngs):
            ref = np.random.default_rng([seed, rep_offset + i, substream])
            assert rng.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(rng.standard_normal(64), ref.standard_normal(64))

    def test_ids_beyond_32_bits_rejected(self):
        assert len(eng._rep_rngs(3, 2**32 - 2, 2, 0)) == 2
        with pytest.raises(ValueError, match="2\\*\\*32"):
            eng._rep_rngs(3, 2**32 - 2, 3, 0)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            eng._rep_rngs(3, 2**32, 1, 0)


class TestRepDraws:
    def test_layout_matches_default_rng(self):
        # Random transmission on two unlike sensors; the change at nu = 200
        # falls inside the second block (steps 129..256), and replications
        # are drawn out of order.
        pairs = [GaussianPair(0.0, 0.5, 1.0), GaussianPair(1.0, 2.0, 2.0)]
        seed, rep_offset, nu, eps = 17, 5, 200, 0.3
        draw = eng._rep_draws(eng._StepTables(RandomTxSpec(4.0, eps), pairs), seed,
                              rep_offset, 3, nu)
        blocks = [draw([2, 0], 0, 128), draw([2, 0], 128, 128)]
        n_pre = nu - 1 - 128  # pre-change steps of the second block
        for row, i in enumerate([2, 0]):
            rng = np.random.default_rng([seed, rep_offset + i, 0])
            first = [rng.normal(p.mu0, p.sigma, 128) for p in pairs]
            pre = [rng.normal(p.mu0, p.sigma, n_pre) for p in pairs]
            post = [rng.normal(p.mu1, p.sigma, 128 - n_pre) for p in pairs]
            np.testing.assert_array_equal(blocks[0][0][row], np.stack(first))
            np.testing.assert_array_equal(blocks[1][0][row],
                                          np.concatenate([pre, post], axis=1))
            flag_rng = np.random.default_rng([seed, rep_offset + i, 1])
            for _, flags in blocks:
                np.testing.assert_array_equal(flags[row], (flag_rng.random((128, 2)) < eps).T)

    def test_equal_sensors_draw_as_one_group(self):
        # Three equal pairs then an unlike one: the first three sensors' segment
        # is one (3, steps) draw, which numpy fills in C order, so it equals
        # three per-sensor draws.  The change at nu = 200 falls inside the
        # second block.
        p, q = GaussianPair(0.0, 0.5, 1.0), GaussianPair(1.0, 2.0, 2.0)
        pairs = [p, p, GaussianPair(0.0, 0.5, 1.0), q]
        seed, rep_offset, nu = 23, 2, 200
        draw = eng._rep_draws(eng._StepTables(_config(5.0, 0.79, 0.27, 0.27, 0.27, 0.4),
                                              pairs), seed, rep_offset, 2, nu)
        blocks = [draw([1, 0], 0, 128), draw([1, 0], 128, 128)]
        n_pre = nu - 1 - 128
        for row, i in enumerate([1, 0]):
            rng = np.random.default_rng([seed, rep_offset + i, 0])
            first = [rng.normal(pr.mu0, pr.sigma, 128) for pr in pairs]
            pre = [rng.normal(pr.mu0, pr.sigma, n_pre) for pr in pairs]
            post = [rng.normal(pr.mu1, pr.sigma, 128 - n_pre) for pr in pairs]
            obs, flags = blocks[0]
            assert flags is None
            np.testing.assert_array_equal(obs[row], np.stack(first))
            np.testing.assert_array_equal(blocks[1][0][row], np.concatenate([pre, post], axis=1))


# Optimal strategies of N(0,1) -> N(0.5,1) as literals, so the golden digests
# below do not depend on the optimizer's last bits: rate -> (x_lo, x_hi, llr_c).
_STRATEGIES = {
    0.2: (-1.7868143415818163, 0.9821367160101848, -0.17131892658374642),
    0.27: (-1.5281329733305615, 0.8177140711871368, -0.1905044096024566),
    0.3: (-1.437926491020713, 0.7561736521687219, -0.19710075650620332),
    0.4: (-1.1885429568879657, 0.574868206365261, -0.21445910320145783),
    0.6: (-0.8147482993239386, 0.273090564307135, -0.23588111737853446),
    0.63: (-0.766700978278845, 0.23173907731746082, -0.2380578448554408),
    0.8: (-0.5164299934708632, 0.006961115732081234, -0.24666667622260083),
}


def _strategy(rate):
    lo, hi, llr_c = _STRATEGIES[rate]
    # The engine reads only the observation-space interval and the censored
    # LLR; the remaining fields are placeholders.
    return CensoringStrategy(rate=rate, nosend_x_lo=lo, nosend_x_hi=hi,
                             llr_censored=llr_c, p0_nosend=1.0 - rate,
                             p1_nosend=0.5, post_kl=0.1)


def _config(a, a1, *rates):
    """CuSum-AC at thresholds ``a`` and ``a1``, one pinned strategy per sensor rate."""
    return CusumAcConfig(a, a1, tuple(_strategy(rate) for rate in rates))


def _golden_case(name, pair):
    p2, p3 = [pair] * 2, [pair] * 3
    m3 = _config(5.0, 0.79, 0.27, 0.27, 0.27)
    worst = _config(4.5, 0.78, 0.63)
    return {
        "m1": (_config(3.5, 0.78, 0.4), [pair], dict(n_reps=64, seed=201, limit=6000)),
        "m3": (m3, p3, dict(n_reps=48, seed=202, limit=5000)),
        "hetero": (_config(4.0, 0.78, 0.2, 0.8), p2, dict(n_reps=40, seed=203, limit=5000)),
        "high_a1": (_config(4.0, 1.2, 0.6), [pair], dict(n_reps=40, seed=204, limit=5000)),
        "nostop": (m3, p3, dict(n_reps=20, seed=205, limit=2500, stop_enabled=False)),
        "delay": (m3, p3, dict(n_reps=40, seed=206, limit=6000, nu=1500)),
        "worst_history": (worst, [pair], dict(n_reps=200, seed=207, limit=3000, nu=20,
                                              require_zero_at=19)),
        "late_reject": (worst, [pair], dict(n_reps=60, seed=208, limit=5000, nu=1101,
                                            require_zero_at=1100)),
    }[name]


# sha256 over the BatchResult arrays.  The M = 1 pins were generated by the
# per-step engine that preceded the chunked kernel, which must reproduce them
# bit for bit.  The M >= 2 pins (m3, hetero, nostop, delay) were regenerated
# when observation blocks grew from one chunk: the schedule is part of the
# sensor-major draw order at M > 1, and the replay tests cross-check it.
_GOLDEN = {
    "m1": "fd650615a500974b6fbae884eb86af4d05d727aaf096f2ce3bd077b0f863d6cb",
    "m3": "5599a29b7a110751b3d13909a9d6c7121af881dfde6f520196c7446f024168e2",
    "hetero": "1ece83ef5c8ef932df4cddd2fe74a01bc34945a9b8449d3b6a8b27d153eafc16",
    "high_a1": "466afd5549673839b8e7d48d5c5be2d5da953d5d4e777343761ced44edda4b21",
    "nostop": "e5f514cd13bd7ef0e1d4410b3556fd0c9976ac9b0767e0f6c9800f3d7649fccc",
    "delay": "d5a1d573596097ae8e76ba24e4bc2c77a610e80738c70cb862181a30c89e3167",
    "worst_history": "db1c732c5225f30c286a0739c56662fb76c5544541689b496701d4a59554978e",
    "late_reject": "729a467c39a94f6ba8a45d5e54acb0410333e0d9a3aab4a8d00a951aafab90c1",
}
_FIELDS = ("stop_time", "stopped", "tx", "feedback", "time_above", "rejected")


def _digest(batch, detector):
    """sha256 over the result arrays, with the steps below a1 hashed before ``rejected``.

    The pins were generated while those steps were a result field, so they
    are derived and hashed in its place: CuSum-AC's steps not above a1, and
    none for the other detectors.
    """
    below = (batch.stop_time - batch.time_above if isinstance(detector, CusumAcConfig)
             else np.zeros_like(batch.time_above))
    h = hashlib.sha256()
    for array in [getattr(batch, field) for field in _FIELDS[:-1]] + [below, batch.rejected]:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class TestCusumAcKernel:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_golden_digests(self, pair, name):
        # Runs cross several CHUNK and OBS_BLOCK boundaries.
        config, pairs, kwargs = _golden_case(name, pair)
        assert kwargs["limit"] > 2 * eng.OBS_BLOCK
        assert _digest(eng.run_batch(config, pairs, **kwargs), config) == _GOLDEN[name]

    def test_replay_across_observation_blocks(self, pair):
        cfg = _config(5.0, 0.78, 0.4, 0.4)
        limit = 2 * eng.OBS_BLOCK + 552
        batch = eng.run_batch(cfg, [pair, pair], n_reps=4, seed=304, limit=limit,
                              record=True)
        assert batch.records["s"].shape == (limit, 4)
        assert (batch.stop_time > eng.OBS_BLOCK).sum() >= 2
        replay_cusum_ac(batch, cfg, [pair, pair])

    def test_replay_post_change_block_wider_than_one_chunk(self, pair):
        # The change falls in chunk 4 of the 1024-step block [1024, 2048), so
        # the recursion walks that whole block with every lane still running.
        cfg = _config(40.0, 0.79, 0.27, 0.27)
        nu = 1600
        batch = eng.run_batch(cfg, [pair, pair], n_reps=4, seed=309, nu=nu, limit=2100,
                              record=True)
        assert eng._block_steps(eng.OBS_BLOCK, 2100) == eng.OBS_BLOCK
        assert batch.stopped.all()
        assert (batch.stop_time > nu + eng.CHUNK // 2).all()
        assert (batch.stop_time <= 2 * eng.OBS_BLOCK).all()
        replay_cusum_ac(batch, cfg, [pair, pair])

    def test_replay_many_sensors(self, pair):
        # Sensors are added in order, as the scalar step does; numpy's
        # pairwise sum would round differently from eight sensors on.
        pairs = [pair] * 9
        cfg = _config(9.0, 1.5, *[0.27] * 9)
        batch = eng.run_batch(cfg, pairs, n_reps=3, seed=305, limit=300, nu=100,
                              record=True)
        replay_cusum_ac(batch, cfg, pairs)

    @pytest.mark.parametrize("family", ["cusum_ac", "random_tx"])
    def test_send_counts_hold_many_sensors(self, pair, family):
        # At M = 128 every sensor sends on the full-rate row, a count that
        # the smallest signed integer type holding -M could not hold.
        M = 128
        detector = {"cusum_ac": _config(50.0, 0.5, *[0.27] * M),
                    "random_tx": RandomTxSpec(50.0, 0.9)}[family]
        batch = eng.run_batch(detector, [pair] * M, n_reps=3, seed=307, limit=200, nu=1,
                              stop_enabled=False, record=True)
        sent = batch.records["sent"].astype(np.int64).sum(axis=(0, 2))
        np.testing.assert_array_equal(batch.tx, sent)
        assert (batch.tx > 100 * M).all()

    def test_generic_llr_path_matches_gaussian(self, pair):
        class Generic:  # exactly the surface the engine reads
            sample0, sample1, llr = pair.sample0, pair.sample1, pair.llr

        cfg = _config(5.0, 0.79, 0.27, 0.27, 0.27)
        kwargs = dict(n_reps=30, seed=306, limit=3000, nu=400)
        fast = eng.run_batch(cfg, [pair] * 3, **kwargs)
        generic = eng.run_batch(cfg, [Generic()] * 3, **kwargs)
        assert _digest(fast, cfg) == _digest(generic, cfg)

    def test_both_rows_from_one_llr_evaluation_per_sensor(self, pair):
        calls = []

        class Spy:  # the surface the engine reads, counting LLR evaluations
            sample0, sample1 = pair.sample0, pair.sample1

            def llr(self, x):
                calls.append(x.shape)
                return pair.llr(x)

        schedule = [128, 128, 256]
        cfg = _config(5.0, 0.79, 0.27, 0.27, 0.27)
        eng.run_batch(cfg, [Spy()] * 3, n_reps=4, seed=308, limit=sum(schedule),
                      stop_enabled=False)
        assert calls == [(4, b) for b in schedule for _ in range(3)]

    def test_records_end_with_each_replication(self, pair):
        cfg = _config(3.0, 0.78, 0.4)
        batch = eng.run_batch(cfg, [pair], n_reps=8, seed=100, limit=600, record=True)
        recs = batch.records
        assert recs["s"].shape[0] == batch.stop_time.max()
        for i, t in enumerate(batch.stop_time):
            assert not np.isnan(recs["s"][:t, i]).any()
            assert np.isnan(recs["s"][t:, i]).all()
            assert recs["stopped"][t - 1:, i].all() and not recs["stopped"][:t - 1, i].any()


def _walk_reference(s, cen, full, a1):
    """The recursion one step at a time over all lanes of increments (n, B): the path (B, n)."""
    path = np.empty(cen.shape[::-1])
    for j in range(cen.shape[1]):
        below = s < a1
        s = np.maximum(s + np.where(below, cen[:, j], full[:, j]), 0.0)
        s = np.where(below & (s >= a1), a1, s)
        path[j] = s
    return path


def _walked_path(walked, B):
    """The (W, K, n) statistic of a block walk as one path (B, n)."""
    W, K, n = walked.shape
    return walked.transpose(1, 0, 2).reshape(K * W, n)[:B]


class TestBlockWalk:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           B=st.sampled_from([1, 37, 128, 256, 300, 1024]),
           drift=st.sampled_from([-0.25, -0.1, 0.1, 0.3]),
           a1=st.sampled_from([0.3, 0.79, 1.5, np.inf]),
           start_scale=st.sampled_from([0.0, 1.0, 4.0]))
    def test_equals_the_per_step_recursion_bit_for_bit(self, seed, n, B, drift, a1,
                                                       start_scale):
        # Negative drifts are pre-change-like, positive ones post-change-like;
        # starts reach above a1, and B = 300 leaves a short last chunk.
        rng = np.random.default_rng(seed)
        full = rng.normal(drift, 1.0, (n, B))
        cen = np.where(rng.random((n, B)) < 0.7, -0.2, full)
        s = start_scale * rng.random(n)
        walked = eng._walk_block(s, cen, full, a1)
        assert walked.shape == (min(eng.CHUNK, B), -(-B // eng.CHUNK), n)
        np.testing.assert_array_equal(_walked_path(walked, B).view(np.uint64),
                                      _walk_reference(s, cen, full, a1).view(np.uint64))

    def test_chunks_that_never_rejoin_take_every_round(self, monkeypatch):
        # With only positive increments a chunk walked from 0.0 stays below the
        # true path, so each round repairs every later chunk to its end and
        # hands the new end on: K - 1 repair rounds after the side-by-side walk.
        rng = np.random.default_rng(5)
        B, n = 1000, 4
        full = rng.uniform(0.01, 0.5, (n, B))
        cen = rng.uniform(0.01, 0.5, (n, B))
        s = np.array([0.0, 0.5, 2.0, 10.0])
        calls = []  # lanes stepped by each call of the recursion
        recursion = eng._recursion

        def counted(s, *args, **kwargs):
            calls.append(s.size)
            return recursion(s, *args, **kwargs)

        monkeypatch.setattr(eng, "_recursion", counted)
        walked = eng._walk_block(s, cen, full, 0.79)
        K = -(-B // eng.CHUNK)
        assert calls == [K * n] + [(K - r) * n for r in range(1, K)]
        np.testing.assert_array_equal(_walked_path(walked, B).view(np.uint64),
                                      _walk_reference(s, cen, full, 0.79).view(np.uint64))


class TestObservationBlocks:
    def test_blocks_grow_from_one_chunk(self, pair):
        rec = _RecordingPair(pair)
        schedule = [128, 128, 256, 512, 1024, 1024, 300]
        limit = sum(schedule)
        batch = eng.run_batch(CusumSpec(3.0), [rec], n_reps=3, seed=1, limit=limit,
                              stop_enabled=False)
        assert (batch.stop_time == limit).all()
        assert schedule[0] == eng.CHUNK and max(schedule) == eng.OBS_BLOCK
        assert rec.sizes == [(1, b) for b in schedule for _ in range(3)]

    @pytest.mark.parametrize("family", ["cusum", "cusum_ac", "random_tx"])
    def test_short_delay_batch_draws_one_chunk(self, pair, family):
        detector = {
            "cusum": CusumSpec(4.0),
            "cusum_ac": _config(5.0, 0.79, 0.27, 0.27, 0.27),
            "random_tx": RandomTxSpec(4.0, 0.5),
        }[family]
        sensors = [_RecordingPair(pair) for _ in range(3)]
        batch = eng.run_batch(detector, sensors, n_reps=50, seed=2, nu=1, limit=100_000)
        assert batch.stopped.all() and batch.stop_time.max() <= eng.CHUNK
        for rec in sensors:
            assert rec.sizes == [(1, eng.CHUNK)] * 50

    @pytest.mark.parametrize("family", ["cusum", "cusum_ac", "random_tx"])
    def test_single_sensor_results_ignore_the_schedule(self, pair, family, monkeypatch):
        # At M = 1 the observations are one sequence per replication and
        # random transmission's (B, M) send uniforms are drawn row-major, so
        # only the sensor-major layout at M > 1 depends on the block sizes.
        detector = {
            "cusum": CusumSpec(5.0),
            "cusum_ac": _config(5.0, 0.78, 0.63),
            "random_tx": RandomTxSpec(5.0, 0.5),
        }[family]
        # The change falls inside a block of either schedule, and runs cross blocks.
        kwargs = dict(n_reps=60, seed=3, nu=1000, limit=3000)
        grown = eng.run_batch(detector, [pair], **kwargs)
        assert (grown.stop_time > kwargs["nu"]).sum() >= 10
        assert grown.stop_time.max() > eng.OBS_BLOCK
        monkeypatch.setattr(eng, "_block_steps", lambda k, limit: min(eng.OBS_BLOCK, limit - k))
        fixed = eng.run_batch(detector, [pair], **kwargs)
        assert _digest(fixed, detector) == _digest(grown, detector)

    def test_short_delay_batch_memory(self, pair):
        # Runs here end after about 30 steps.  A whole 1024-step block per lane
        # would hold 49 MB of observations and 49 MB of send uniforms, for a
        # peak near 108 MB.
        tracemalloc.start()
        try:
            batch = eng.run_batch(RandomTxSpec(5.0, 0.4), [pair] * 3, n_reps=2000, seed=7,
                                  nu=1, limit=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.stopped.all()
        assert peak < 50e6

    def test_arl_batch_memory(self, pair):
        # The closed form holds a block's walk and running minimum beside its
        # increments, each (n, B) floats, but only after the observation block
        # is released, so they stay below the peak of drawing and fusing a
        # block.  Stepped chunk by chunk, this batch peaked at 16.13 MB; the
        # bound is 5% above.
        tracemalloc.start()
        try:
            batch = eng.run_batch(RandomTxSpec(6.8, 0.5), [pair] * 3, n_reps=300, seed=1,
                                  limit=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.stopped.all() and batch.stop_time.max() > 10 * eng.OBS_BLOCK
        assert peak < 16.9e6
