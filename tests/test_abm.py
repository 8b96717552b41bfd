import math

import mpmath
import numpy as np
import pytest

from arrivalgames.abm import (
    AbmConfig,
    _path_dominates,
    _queue_lengths,
    _workload_path,
    choose_slot,
    coupled_dominance,
    run_abm,
    simulate_day,
    theta,
)
from arrivalgames.dists import make_deterministic, make_geometric
from arrivalgames.fluid import FluidParams
from arrivalgames.signals import SignalParams
from arrivalgames.workload import ArrivalStrategy, SlotGame, workload_profile


def small_cfg(**kw):
    """The small ABM setting; keywords of SignalParams go to the signal."""
    signal = dict(lam=4.0, p=0.5, q=0.9, x_a=make_geometric(4), x_b=make_geometric(2))
    base = dict(tau=3, n_slots=5, pool=12, days=400, seed=11)
    for key, value in kw.items():
        (signal if key in signal else base)[key] = value
    return AbmConfig(SignalParams(**signal), **base)


# The exponential model of the coupled-path experiment: 5 + 5 arrivals on
# [0, 60], believed service rates 0.25 and 0.5.
DOMINANCE = FluidParams(5.0, 5.0, 0.25, 0.5, 60.0)


class TestTheta:
    def test_zero_visits_always_explores(self):
        assert theta(0, 1.0, 0.005) == 0.0

    def test_limit_is_one(self):
        assert theta(10**9, 1.0, 0.005) == pytest.approx(1.0, abs=1e-12)
        assert theta(10**9, 1.0, 0.005) < 1.0

    def test_reference_value_high_precision(self):
        want = float(mpmath.exp(1 / (1 - mpmath.e ** (0.01 * 100))))
        assert theta(100, 1.0, 0.01) == pytest.approx(want, abs=1e-14)

    def test_nondecreasing(self):
        vals = [theta(x, 1.0, 0.005) for x in range(0, 2000, 25)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            theta(1, 0.0, 0.005)
        with pytest.raises(ValueError):
            theta(-1, 1.0, 0.005)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_non_finite_visit_count(self, x):
        with pytest.raises(ValueError, match="visit count must be nonnegative and finite"):
            theta(x, 1.0, 0.005)

    @pytest.mark.parametrize("c1, c2", [(math.nan, 0.005), (1.0, math.nan), (math.inf, 0.005), (1.0, math.inf)])
    def test_rejects_non_finite_params(self, c1, c2):
        with pytest.raises(ValueError, match="sigmoid"):
            theta(1, c1, c2)


class TestChooseSlot:
    def test_fresh_agent_uniform(self):
        rng = np.random.default_rng(0)
        wbar, visits = np.zeros(4), np.zeros(4, dtype=np.int64)
        counts = np.zeros(4)
        for _ in range(20_000):
            slot, explored = choose_slot(wbar, visits, rng, 1.0, 0.005)
            assert explored
            counts[slot] += 1
        expected = 5000.0
        sigma = math.sqrt(20_000 * 0.25 * 0.75)
        assert np.max(np.abs(counts - expected)) <= 4 * sigma

    def test_exploiting_agent_picks_minimum(self):
        rng = np.random.default_rng(1)
        wbar = np.array([5.0, 4.0, 3.0, 0.5, 4.0, 5.0])
        visits = np.zeros(6, dtype=np.int64)
        visits[0] = 10**9
        picks = [choose_slot(wbar, visits, rng, 1.0, 0.005)[0] for _ in range(1000)]
        assert np.mean(np.array(picks) == 3) > 0.99

    def test_tie_break_uniform(self):
        rng = np.random.default_rng(2)
        wbar, visits = np.zeros(5), np.zeros(5, dtype=np.int64)
        visits[0] = 10**9
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            slot, explored = choose_slot(wbar, visits, rng, 1.0, 0.005)
            counts[slot] += 1
        sigma = math.sqrt(draws * 0.2 * 0.8)
        assert np.max(np.abs(counts - draws / 5)) <= 3 * sigma


class TestSimulateDay:
    def test_single_arrival_waits_nothing(self):
        rng = np.random.default_rng(3)
        waits = simulate_day([2], make_geometric(3), 2, rng)
        assert waits[0] == 0.0

    def test_same_slot_cohort_fcfs(self):
        rng = np.random.default_rng(4)
        waits = simulate_day([0, 0], make_deterministic(2), 3, rng)
        assert sorted(waits) == [0.0, 2.0]

    def test_cohort_work_conservation(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 5):
            waits = simulate_day([0] * m, make_deterministic(3), 1, rng)
            assert sorted(waits) == [3.0 * j for j in range(m)]

    def test_backlog_carries_and_drains(self):
        rng = np.random.default_rng(6)
        waits = simulate_day([0, 1], make_deterministic(5), 3, rng)
        assert waits[0] == 0.0 and waits[1] == pytest.approx(2.0)

    def test_pooled_means_match_recursion(self):
        # pooled per-slot waits across many replications are the
        # size-biased tagged-customer waits the analytic recursion yields
        rng = np.random.default_rng(7)
        n_slots, tau, lam = 5, 2, 4.0
        probs = np.array([0.4, 0.0, 0.3, 0.2, 0.1])
        service = make_geometric(2.5)
        game = SlotGame(lam, 0.0, tau, n_slots, service, make_deterministic(1))
        prof = workload_profile(game, probs, ArrivalStrategy.uniform(n_slots), "a")
        sums = np.zeros(n_slots)
        counts = np.zeros(n_slots)
        for _ in range(60_000):
            sizes = rng.poisson(lam * probs)
            slots = [t for t in range(n_slots) for _ in range(sizes[t])]
            waits = simulate_day(slots, service, tau, rng)
            for slot, w in zip(slots, waits):
                sums[slot] += w
                counts[slot] += 1
        visited = counts > 0
        pooled = sums[visited] / counts[visited]
        bound = 3 * prof.w.max() / math.sqrt(counts[visited].min())
        assert np.max(np.abs(pooled - prof.w[visited])) <= bound


class TestRunAbm:
    @pytest.mark.parametrize("field", ["tau", "n_slots"])
    @pytest.mark.parametrize("value", [0, 2.5, math.nan, math.inf])
    def test_rejects_bad_slot_structure(self, field, value):
        with pytest.raises(ValueError, match="slot"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value, match",
        [("c1", math.nan, "sigmoid"), ("c2", math.nan, "sigmoid"), ("c1", math.inf, "sigmoid"),
         ("c2", 0.0, "sigmoid"), ("days", 2.5, "day count"), ("days", math.nan, "day count"),
         ("days", 0, "day count"), ("pool", 12.5, "agent pool"), ("pool", math.nan, "agent pool"),
         ("seed", -1, "seed"), ("seed", 1.5, "seed"), ("seed", math.nan, "seed")],
    )
    def test_rejects_bad_learning_settings(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("pool, lam", [(3, 4.0), (12, 12.5)])
    def test_rejects_more_daily_arrivals_than_agents(self, pool, lam):
        with pytest.raises(ValueError, match="cannot exceed the pool size"):
            small_cfg(pool=pool, lam=lam)

    @pytest.mark.parametrize(
        "field, value, match",
        [("p", 1.5, "mode probability"), ("p", math.nan, "mode probability"),
         ("q", 0.5, "signal correctness"), ("lam", math.inf, "population mean"),
         ("x_b", make_geometric(5), "slow-mode mean")],
    )
    def test_signal_is_checked_by_signal_params(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            small_cfg(**{field: value})

    def test_integral_float_counts_run(self):
        res = run_abm(small_cfg(pool=12.0, days=20.0, tau=3.0, n_slots=5.0, seed=11.0))
        assert np.array_equal(res.pbar, run_abm(small_cfg(days=20)).pbar)

    def test_cdf_rejects_unknown_belief(self):
        res = run_abm(small_cfg(days=20))
        assert np.array_equal(res.cdf("b"), np.cumsum(res.pbar[1]))
        with pytest.raises(ValueError, match="belief"):
            res.cdf("c")

    def test_deterministic_given_seed(self):
        r1 = run_abm(small_cfg())
        r2 = run_abm(small_cfg())
        assert np.array_equal(r1.pbar, r2.pbar)
        assert np.array_equal(r1.slot_mean_wait, r2.slot_mean_wait)
        assert np.array_equal(r1.explored, r2.explored)

    def test_rows_are_distributions(self):
        res = run_abm(small_cfg())
        assert np.all(res.pbar >= 0.0)
        assert res.pbar.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_wait_identity(self):
        res = run_abm(small_cfg())
        for i in range(2):
            assert res.wbar_pop[i] == pytest.approx(
                float(res.pbar[i] @ res.slot_mean_wait[i]), abs=1e-9
            )

    def test_joiner_rate(self):
        cfg = small_cfg(days=2000)
        res = run_abm(cfg)
        mean_daily = res.decisions.mean()
        lam = cfg.signal.lam
        sigma = math.sqrt(lam * (1 - cfg.join_prob) / cfg.days)
        assert abs(mean_daily - lam) <= 3 * sigma

    def test_indistinguishable_beliefs_converge_together(self):
        cfg = small_cfg(
            q=0.95,
            x_a=make_geometric(2.0001),
            x_b=make_geometric(2.0),
            days=3000,
            pool=8,
            lam=3.0,
            seed=21,
        )
        res = run_abm(cfg)
        assert np.max(np.abs(res.pbar[0] - res.pbar[1])) < 0.1

    def test_exploration_decays(self):
        cfg = small_cfg(days=1200, seed=9)
        res = run_abm(cfg)
        blocks = 6
        size = cfg.days // blocks
        frac = [
            res.explored[i * size : (i + 1) * size].sum()
            / max(1, res.decisions[i * size : (i + 1) * size].sum())
            for i in range(blocks)
        ]
        assert all(b <= a + 0.03 for a, b in zip(frac, frac[1:]))
        assert frac[-1] < frac[0]


def lindley(times, jobs):
    """Workloads just after each arrival by the Lindley recursion, the
    reference for the closed form."""
    out, v, prev = [], 0.0, 0.0
    for t, j in zip(times, jobs):
        v = max(0.0, v - (t - prev)) + j
        out.append(v)
        prev = t
    return np.array(out)


def queue_by_matrix(times, departures, epochs):
    """Queue lengths from the (system, epoch, customer) matrix of who has
    arrived and not yet departed, the reference for `_queue_lengths`."""
    arrived = times <= epochs[:, None]
    return (arrived & (departures[:, None] > epochs[:, None])).sum(axis=2)


def dominates_by_epoch(times, jobs_a, jobs_b):
    """One epoch at a time over every epoch, the reference for
    `_path_dominates`."""
    v = [lindley(times, jobs_a), lindley(times, jobs_b)]
    dep = [times + x for x in v]
    ok, worst = True, 0.0
    for e in np.concatenate([times, *dep]):
        k = int(np.searchsorted(times, e, side="right")) - 1
        va, vb = (max(0.0, x[k] - (e - times[k])) for x in v)
        qa, qb = (int(np.sum((times <= e) & (d > e))) for d in dep)
        worst = max(worst, vb - va, float(qb - qa))
        ok = ok and not (vb > va + 1e-9 or qb > qa)
    return ok, worst


class TestCoupledDominance:
    def test_dominance_holds_on_all_paths(self):
        rng = np.random.default_rng(12)
        rep = coupled_dominance(DOMINANCE, None, None, 300, rng)
        assert rep.dominance_holds and rep.violating_paths == 0

    def test_equal_rates_identical_paths(self):
        # equal rates make the coupled jobs, and so both systems' paths,
        # identical: no excess anywhere
        rng = np.random.default_rng(13)
        for _ in range(100):
            times = np.sort(rng.uniform(0.0, 60.0, rng.poisson(10) + 1))
            jobs = rng.exponential(2.0, times.size)
            assert _path_dominates(times, jobs, jobs) == (True, 0.0)

    @pytest.mark.parametrize(
        "mu_a, mu_b, match",
        [(0.5, 0.5, "must exceed mu_a"), (0.5, 0.25, "must exceed mu_a"),
         (0.0, 0.5, "positive and finite"), (0.25, math.nan, "positive and finite")],
    )
    def test_rates_are_checked_by_fluid_params(self, mu_a, mu_b, match):
        with pytest.raises(ValueError, match=match):
            coupled_dominance(
                FluidParams(5.0, 5.0, mu_a, mu_b, 60.0), None, None, 10, np.random.default_rng(0)
            )

    def test_decoupled_negative_control(self):
        rng = np.random.default_rng(14)
        rep = coupled_dominance(DOMINANCE, None, None, 300, rng, coupled=False)
        assert not rep.dominance_holds
        assert rep.violating_paths >= 1

    def test_strategy_driven_streams(self):
        rng = np.random.default_rng(15)
        f_a = ArrivalStrategy.point_mass(20)
        f_b = np.full(20, 0.05)
        rep = coupled_dominance(FluidParams(3.0, 3.0, 0.25, 0.5, 60.0), f_a, f_b, 100, rng)
        assert rep.dominance_holds

    def test_workload_path_is_the_lindley_recursion(self):
        rng = np.random.default_rng(17)
        times = np.sort(rng.uniform(0.0, 60.0, 40))
        jobs = rng.exponential(2.0, 40)
        assert np.max(np.abs(_workload_path(times, jobs) - lindley(times, jobs))) <= 1e-12

    def test_path_check_matches_epoch_loop(self):
        rng = np.random.default_rng(18)
        verdicts = set()
        for _ in range(200):
            times = np.sort(rng.uniform(0.0, 60.0, rng.poisson(10) + 1))
            jobs_b = rng.exponential(2.0, times.size)
            jobs_a = 2.0 * jobs_b if rng.random() < 0.5 else rng.exponential(4.0, times.size)
            ok, gap = _path_dominates(times, jobs_a, jobs_b)
            want_ok, want_gap = dominates_by_epoch(times, jobs_a, jobs_b)
            assert ok == want_ok and abs(gap - want_gap) <= 1e-9
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_queue_counts_match_the_matrix_form(self):
        rng = np.random.default_rng(19)
        for i in range(600):
            n = int(rng.integers(1, 40))
            if i % 2:
                # integer times and jobs, zero jobs included, so arrivals,
                # departures and epochs tie
                times = np.sort(rng.integers(0, 20, n)).astype(float)
                jobs = rng.integers(0, 4, (2, n)).astype(float)
            else:
                times = np.sort(rng.uniform(0.0, 60.0, n))
                jobs = rng.exponential(2.0, (2, n))
            departures = times + np.stack([_workload_path(times, j) for j in jobs])
            epochs = np.concatenate([times, departures.ravel()])
            arrived = np.searchsorted(times, epochs, side="right")
            want = queue_by_matrix(times, departures, epochs)
            assert np.array_equal(_queue_lengths(arrived, departures, epochs), want)

    def test_hand_path(self):
        # arrivals at 0 and 1; jobs of 2 in the slow system, 1 in the fast
        # one: workloads after arrival 2, 3 and 1, 1, departures at 2, 4
        # and 1, 2
        times = np.array([0.0, 1.0])
        slow, fast = np.array([2.0, 2.0]), np.array([1.0, 1.0])
        assert _path_dominates(times, slow, fast) == (True, 0.0)
        # swapped, the larger system is ahead by 2 in workload at t = 1
        # and t = 2, and by one customer in queue at t = 1 and t = 2
        assert _path_dominates(times, fast, slow) == (False, 2.0)

    def test_fluid_profile_stream(self):
        from arrivalgames.fluid import solve_case

        params = FluidParams(1.0, 2.0, 1.0, 2.0, 1.0)
        eq = solve_case(params, "ii")
        rng = np.random.default_rng(16)
        rep = coupled_dominance(params, (eq, "a"), (eq, "b"), 100, rng)
        assert rep.dominance_holds
