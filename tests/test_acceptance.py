"""Acceptance suite: one test per acceptance criterion, at full stated scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; the whole suite is Monte Carlo heavy and takes on the order of
ten minutes on one core.  All randomness flows from ACCEPT_SEED, so the
outcome is deterministic.
"""

import csv
import math

import numpy as np
import pytest

from cusumac.censoring import optimize
from cusumac.cli import reproduce
from cusumac.detectors import (
    CusumSpec,
    cusum_ac_multi_step,
    cusum_ac_step,
    cusum_step,
    initial_state,
    two_level,
)
from cusumac.montecarlo import (
    estimate_arlfa,
    estimate_comm_rate,
    estimate_delay,
    pre_change_run,
)
from cusumac.renewal import (
    check_eprime_membership,
    estimate_cycle,
    estimate_cycle_direct,
    feedback_expectation,
    rate_upper_bound,
)

from test_censoring import grid_oracle_best_post_kl

ACCEPT_SEED = 20260808


def report(criterion: int, text: str):
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


def rows_by(rows, **filters):
    out = []
    for row in rows:
        if all(str(row[k]) == str(v) for k, v in filters.items()):
            out.append(row)
    return out


def one_row(rows, **filters):
    found = rows_by(rows, **filters)
    assert len(found) == 1, f"expected one row for {filters}, got {len(found)}"
    return found[0]


@pytest.fixture(scope="session")
def fig5_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5")
    reproduce("fig5", out, seed=ACCEPT_SEED, n_reps=2000)
    with open(out / "fig5.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="session")
def fig6_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig6")
    reproduce("fig6", out, seed=ACCEPT_SEED, n_reps=2000)
    with open(out / "fig6.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_delay_gap_constant_across_arlfa(fig5_rows):
    """Three sensors, budget 0.4 (eps1=0.27, a1=0.79) vs plain CuSum at
    matched ARLFA in {2e3, 5e3, 1e4}: delay gap 1.2 +- 0.5 slots at 2000
    replications, approximately constant across the grid."""
    gaps = {}
    for zeta in ("2000.0", "5000.0", "10000.0"):
        row = one_row(fig5_rows, metric="delay_gap_vs_cusum", zeta_target=zeta)
        gap = float(row["mean"])
        gaps[zeta] = gap
        assert abs(gap - 1.2) <= 0.5, f"gap at zeta={zeta}: {gap:.3f} not within 1.2+-0.5"
        # both detectors actually hit the ARLFA target
        for det in ("cusum", "cusum_ac"):
            arlfa = float(one_row(fig5_rows, detector=det, metric="arlfa",
                                  zeta_target=zeta)["mean"])
            assert abs(arlfa - float(zeta)) <= 0.05 * float(zeta)
    spread = max(gaps.values()) - min(gaps.values())
    assert spread <= 0.5, f"gap spread {spread:.3f} not approximately constant"
    report(1, "delay gaps " + ", ".join(
        f"{z}:{g:.2f}" for z, g in gaps.items()) + f" (spread {spread:.2f})")


def test_criterion_2_delay_vs_rate_at_fixed_arlfa(fig6_rows):
    """ARLFA fixed at 1e4: the rate-0.1 adaptive detector trails plain CuSum
    by about 7 slots (+-2), and random transmission is strictly slower than
    adaptive censoring at every budget with >= 3-SE separation."""
    gap01 = float(one_row(fig6_rows, metric="delay_gap_vs_cusum",
                          epsilon="0.1")["mean"])
    assert abs(gap01 - 7.0) <= 2.0, f"rate-0.1 gap {gap01:.2f} not within 7+-2"
    separations = {}
    for eps in ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"):
        row = one_row(fig6_rows, metric="delay_gap_vs_cusum_ac", epsilon=eps)
        gap, se = float(row["mean"]), float(row["std_error"])
        separations[eps] = gap / se
        assert gap > 0 and gap >= 3.0 * se, (
            f"random transmission not 3-SE slower at eps={eps}: {gap:.2f} +- {se:.2f}")
        for det in ("cusum_ac", "random_tx"):
            arlfa = float(one_row(fig6_rows, detector=det, metric="arlfa",
                                  epsilon=eps)["mean"])
            assert abs(arlfa - 10_000.0) <= 500.0
    worst = min(separations.values())
    report(2, f"rate-0.1 gap {gap01:.2f}; random-tx separation min "
              f"{worst:.1f} SEs over the budget grid")


def test_criterion_3_equalizer_rule(pair):
    """Worst-history delay agrees between change times 1 and 20 within 3
    combined SEs at 5000 replications, for two distinct configurations."""
    results = []
    for i, (a1, eps1) in enumerate(((0.78, 0.63), (0.79, 0.27))):
        cfg = two_level(pair, 4.5, a1, eps1)
        d1 = estimate_delay(cfg, pair, 5000, ACCEPT_SEED + 10 + i, nu=1)
        d20 = estimate_delay(cfg, pair, 5000, ACCEPT_SEED + 20 + i, nu=20,
                             worst_history=True)
        diff = abs(d1.mean - d20.mean)
        band = 3.0 * math.hypot(d1.std_error, d20.std_error)
        assert diff <= band, (
            f"(a1={a1}, eps1={eps1}): nu=1 delay {d1.mean:.2f} vs nu=20 "
            f"{d20.mean:.2f}, diff {diff:.3f} > {band:.3f}")
        results.append(f"(a1={a1},eps1={eps1}): {d1.mean:.2f} vs {d20.mean:.2f}")
    report(3, "; ".join(results))


def test_criterion_4_arlfa_dominance(pair):
    """For a censoring rate in the slow-regime set, the adaptive detector's
    ARLFA dominates plain CuSum at the same threshold, a in {4, 6, 8}."""
    eps1, a1 = 0.2, 0.78
    cycle = estimate_cycle(two_level(pair, math.inf, a1, eps1), pair, 4000, ACCEPT_SEED + 30)
    membership = check_eprime_membership(cycle)
    assert membership.is_member, f"eps1={eps1} not in the slow-regime set"
    lines = []
    for a in (4.0, 6.0, 8.0):
        cfg = two_level(pair, a, a1, eps1)
        ac = estimate_arlfa(cfg, pair, 200, cap=5_000_000, seed=ACCEPT_SEED + 40)
        cu = estimate_arlfa(CusumSpec(a), pair, 200, cap=5_000_000,
                            seed=ACCEPT_SEED + 40)
        band = 3.0 * math.hypot(ac.std_error, cu.std_error)
        assert ac.mean >= cu.mean - band, (
            f"a={a}: adaptive ARLFA {ac.mean:.0f} below plain {cu.mean:.0f}")
        lines.append(f"a={a:g}: {ac.mean:.0f} >= {cu.mean:.0f}")
    report(4, f"membership margin {membership.margin:.1f} SEs; " + "; ".join(lines))


def test_criterion_5_rate_machinery(pair):
    """(i) optimizer send rates hit epsilon on the whole grid; (ii) measured
    rates respect the alternating-renewal upper bound for six configurations;
    (iii) the rate plateaus between a and 2a."""
    rng = np.random.default_rng(ACCEPT_SEED + 50)
    x = pair.sample0(rng, 100_000)
    for eps in [round(0.1 * i, 1) for i in range(1, 11)]:
        freq = optimize(pair, eps).apply(x).mean()
        se = math.sqrt(eps * (1 - eps) / x.size)
        assert abs(freq - eps) <= max(3 * se, 1e-12), f"send rate off at eps={eps}"

    combos = [(a1, e1) for a1 in (0.5, 0.78, 1.2) for e1 in (0.3, 0.63)]
    bounds = []
    for i, (a1, eps1) in enumerate(combos):
        stats = estimate_cycle(two_level(pair, math.inf, a1, eps1), pair, 4000,
                               ACCEPT_SEED + 60 + i)
        bound = rate_upper_bound(stats)
        cfg = two_level(pair, a1 + 100.0, a1, eps1)
        rate = estimate_comm_rate(cfg, pair, 10_000, 150, ACCEPT_SEED + 70 + i)
        assert rate.mean <= bound + 3 * rate.std_error, (
            f"(a1={a1}, eps1={eps1}): rate {rate.mean:.4f} above bound {bound:.4f}")
        bounds.append(f"({a1},{eps1}): {rate.mean:.3f}<={bound:.3f}")

    cfg8 = two_level(pair, 8.0, 0.78, 0.27)
    cfg16 = two_level(pair, 16.0, 0.78, 0.27)
    r8 = estimate_comm_rate(cfg8, pair, 10_000, 120, ACCEPT_SEED + 80,
                            mode="conditional")
    r16 = estimate_comm_rate(cfg16, pair, 10_000, 120, ACCEPT_SEED + 81,
                             mode="conditional")
    band = 3.0 * math.hypot(r8.std_error, r16.std_error)
    assert abs(r8.mean - r16.mean) <= band, "rate plateau violated between a and 2a"
    report(5, "send rates on grid; " + "; ".join(bounds)
              + f"; plateau {r8.mean:.4f} vs {r16.mean:.4f}")


def test_criterion_6_renewal_decomposition_oracle(pair):
    """Direct whole-cycle simulation matches the eta/phi composition, and the
    simulated per-alarm feedback count matches 2/(1 - p_return)."""
    a1, a, eps1 = 0.78, 4.0, 0.63
    cfg = two_level(pair, a, a1, eps1)
    stats = estimate_cycle(cfg, pair, 24_000, ACCEPT_SEED + 90)
    direct = estimate_cycle_direct(cfg, pair, 3000, ACCEPT_SEED + 91)
    p = stats.p_return.mean
    composed = stats.eta0.mean + p * stats.phi_given_return.mean
    se = math.sqrt(
        stats.eta0.std_error ** 2
        + (p * stats.phi_given_return.std_error) ** 2
        + (stats.phi_given_return.mean * stats.p_return.std_error) ** 2
        + direct.cycle_length.std_error ** 2)
    assert abs(direct.cycle_length.mean - composed) <= 3 * se, (
        f"cycle mean {direct.cycle_length.mean:.2f} vs composed {composed:.2f}")
    p_se = math.hypot(stats.p_return.std_error, direct.p_return.std_error)
    assert abs(direct.p_return.mean - p) <= 3 * p_se

    run = pre_change_run(cfg, pair, 3000, cap=100_000, seed=ACCEPT_SEED + 92)
    predicted = feedback_expectation(stats)
    se_pred = 2.0 * stats.p_return.std_error / (1.0 - p) ** 2
    band = 3.0 * math.hypot(run.feedback_per_alarm.std_error, se_pred)
    assert abs(run.feedback_per_alarm.mean - predicted) <= band, (
        f"feedback {run.feedback_per_alarm.mean:.2f} vs 2/(1-p) = {predicted:.2f}")
    report(6, f"cycle {direct.cycle_length.mean:.2f} = {composed:.2f} composed; "
              f"feedback {run.feedback_per_alarm.mean:.2f} = {predicted:.2f} predicted")


def test_criterion_7_property_suite(pair, pairs3):
    """Structural properties: nonnegativity, bit-exact reset, full-rate
    pathwise dominance, M=1 fusion equivalence, K-L monotonicity, optimizer
    equivalence with the exhaustive grid oracle, deterministic reruns."""
    cfg = two_level(pair, 4.5, 0.78, 0.63)

    # nonnegativity and bit-exact reset along a long driven path
    rng = np.random.default_rng(ACCEPT_SEED + 100)
    state = initial_state(cfg)
    resets = 0
    for _ in range(4000):
        if state.stopped:
            state = initial_state(cfg)
        prev = state
        state, _ = cusum_ac_step(state, cfg, float(pair.sample0(rng)), pair)
        assert state.s >= 0.0
        if prev.s < cfg.a1 <= state.s:
            assert state.s == cfg.a1  # bit-exact clamp
            resets += 1
    assert resets > 0

    # full-rate pathwise dominance s_k <= c_k and tx_count == k
    full = two_level(pair, 4.5, 0.78, 1.0)
    for rep in range(400):
        prng = np.random.default_rng([ACCEPT_SEED + 101, rep])
        ac, cu = initial_state(full), initial_state()
        for _ in range(150):
            if ac.stopped or cu.stopped:
                break
            xv = float(pair.sample1(prng))
            ac, _ = cusum_ac_step(ac, full, xv, pair)
            cu = cusum_step(cu, float(pair.llr(xv)), 4.5)
            assert ac.s <= cu.s + 1e-12
            assert ac.tx_count == ac.k

    # M=1 fusion equivalence on a shared stream
    srng = np.random.default_rng(ACCEPT_SEED + 102)
    s_one, s_multi = initial_state(cfg), initial_state(cfg)
    for _ in range(500):
        if s_one.stopped:
            break
        xv = float(pair.sample0(srng))
        s_one, sent_a = cusum_ac_step(s_one, cfg, xv, pair)
        s_multi, sent_b = cusum_ac_multi_step(s_multi, cfg, [xv], [pair])
        assert s_multi == s_one and sent_b == [sent_a]

    # K-L monotonicity of the optimal strategy in the rate
    grid = [round(0.1 * i, 1) for i in range(1, 11)]
    post = [optimize(pair, e).post_kl for e in grid]
    assert all(b >= a - 1e-10 for a, b in zip(post, post[1:]))

    # optimizer equivalence with the 2000-point exhaustive grid oracle
    oracle = grid_oracle_best_post_kl(0.5)
    assert abs(optimize(pair, 0.5).post_kl - oracle) <= 1e-4

    # deterministic reruns are bit-identical
    est1 = estimate_arlfa(cfg, pair, 300, cap=200_000, seed=ACCEPT_SEED + 103)
    est2 = estimate_arlfa(cfg, pair, 300, cap=200_000, seed=ACCEPT_SEED + 103)
    assert est1 == est2

    report(7, f"{resets} bit-exact resets; dominance, fusion equivalence, "
              f"K-L monotonicity, oracle gap "
              f"{abs(optimize(pair, 0.5).post_kl - oracle):.2e}, determinism")
