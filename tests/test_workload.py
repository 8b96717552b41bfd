import math

import numpy as np
import pytest

from arrivalgames.dists import (
    NumericFailure,
    Pmf,
    compound_poisson,
    convolve,
    make_deterministic,
    make_geometric,
    make_geometric_mixture,
)
from arrivalgames.workload import (
    ArrivalStrategy,
    InvalidStrategyError,
    SlotGame,
    SlotState,
    WorkloadStepper,
    workload_profile,
)


def collapse_shift(c: np.ndarray, tau: int) -> np.ndarray:
    """Drain tau units from the workload-plus-arrivals law ``c`` into a new
    array: its mass at or below tau collapses onto zero and the remainder
    shifts left by tau. The kernel's in-place collapse must match it."""
    if c.size <= tau + 1:
        return np.array([float(c.sum())])
    return np.concatenate(([float(c[: tau + 1].sum())], c[tau + 1 :]))


def step_pmf(v: Pmf, h: Pmf, tau: int) -> Pmf:
    """One-slot update on checked laws, an oracle for the array kernel:
    add the arriving work, then drain tau units."""
    c = convolve(v, h)
    return Pmf(collapse_shift(c.mass, tau), c.tail_bound)


def sample_pmf(pmf: Pmf, size: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(len(pmf), size=size, p=pmf.mass / pmf.total)


class TestSlotGame:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_population(self, lam):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SlotGame(lam, 1.0, 1, 2, make_geometric(3), make_geometric(2))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SlotGame(1.0, lam, 1, 2, make_geometric(3), make_geometric(2))

    @pytest.mark.parametrize(
        "tau, n_slots",
        [(0, 2), (1.5, 2), (math.nan, 2), (math.inf, 2), (1, 0), (1, 2.5), (1, math.nan), (1, math.inf)],
    )
    def test_rejects_bad_slot_structure(self, tau, n_slots):
        with pytest.raises(ValueError, match="slot"):
            SlotGame(1.0, 1.0, tau, n_slots, make_geometric(3), make_geometric(2))

    @pytest.mark.parametrize("belief", ["c", "A", ""])
    def test_rejects_unknown_belief(self, belief):
        g = SlotGame(1.0, 2.0, 1, 2, make_geometric(3), make_geometric(2))
        for read in (g.service, g.own_lam, g.other_lam):
            with pytest.raises(ValueError, match="belief"):
                read(belief)
        with pytest.raises(ValueError, match="belief"):
            workload_profile(g, np.full(2, 0.5), np.full(2, 0.5), belief)


class TestArrivalStrategy:
    @pytest.mark.parametrize("bad", [[], [[0.5, 0.5]], [0.5, math.nan], [1.5, -0.5], [0.5, math.inf]])
    def test_entry_check_raises_typed_error(self, bad):
        with pytest.raises(InvalidStrategyError):
            ArrivalStrategy(np.array(bad, dtype=float))

    def test_zero_strategy_cannot_be_normalized(self):
        with pytest.raises(ValueError, match="zero strategy"):
            ArrivalStrategy(np.zeros(3)).normalized()

    def test_rebuilds_from_a_strategy(self):
        s = ArrivalStrategy(np.array([0.25, -1e-13, 0.75]))
        again = ArrivalStrategy(s)
        assert np.array_equal(again.probs, s.probs) and again.probs[1] == 0.0


class TestStepPmf:
    def test_empty_system_stays_empty(self):
        out = step_pmf(Pmf.point_mass(0), Pmf.point_mass(0), 3)
        assert out.mass[0] == 1.0 and len(out) == 1

    def test_sample_path_step(self):
        out = step_pmf(Pmf.point_mass(2), Pmf.point_mass(4), 3)
        assert len(out) == 4 and out.mass[3] == 1.0

    def test_against_monte_carlo(self):
        h = compound_poisson(1.0, make_deterministic(2))
        out = step_pmf(Pmf.point_mass(0), h, 3)
        rng = np.random.default_rng(42)
        draws = np.maximum(2 * rng.poisson(1.0, 1_000_000) - 3, 0)
        empirical = np.bincount(draws, minlength=len(out)) / draws.size
        assert np.max(np.abs(out.mass - empirical[: len(out)])) <= 1e-3
        stepper = WorkloadStepper(make_deterministic(2), 3)
        v = stepper.advance(stepper.initial(), 1.0).v
        assert v.size == len(out) and np.max(np.abs(v - out.mass)) <= 1e-12


class TestWorkloadProfile:
    def test_no_work_no_wait(self):
        g = SlotGame(0.0, 0.0, 2, 4, make_deterministic(2), make_deterministic(1))
        prof = workload_profile(g, ArrivalStrategy.point_mass(4), ArrivalStrategy.point_mass(4), "a")
        assert np.all(prof.ev == 0.0) and np.all(prof.w == 0.0)

    def test_opening_rush_oracle(self):
        g = SlotGame(5.0, 5.0, 3, 5, make_deterministic(4), make_deterministic(2))
        p0 = ArrivalStrategy.point_mass(5)
        prof = workload_profile(g, p0, p0, "a")
        h = compound_poisson(10.0, make_deterministic(4))
        oracle = float(np.maximum(np.arange(len(h)) - 3, 0.0) @ h.mass)
        assert prof.ev[1] == pytest.approx(oracle, abs=1e-10)

    def test_single_type_against_simulation(self):
        rng = np.random.default_rng(7)
        g = SlotGame(4.0, 0.0, 2, 6, make_geometric(3), make_geometric(1.5))
        probs = rng.dirichlet(np.ones(6))
        prof = workload_profile(g, probs, ArrivalStrategy.uniform(6), "a", mass_tol=1e-9)
        reps = 200_000
        v = np.zeros(reps)
        sim_ev = np.zeros(6)
        for t in range(6):
            sim_ev[t] = v.mean()
            counts = rng.poisson(4.0 * probs[t], reps)
            jobs = sample_pmf(g.x_a.pmf, int(counts.sum()), rng)
            slices = np.zeros(reps)
            np.add.at(slices, np.repeat(np.arange(reps), counts), jobs)
            v = np.maximum(v + slices - 2, 0.0)
        assert np.max(np.abs(sim_ev - prof.ev)) <= 1e-2 * max(1.0, prof.ev.max())

    def test_off_simplex_rejected(self):
        g = SlotGame(1.0, 1.0, 1, 3, make_deterministic(2), make_deterministic(1))
        with pytest.raises(InvalidStrategyError):
            workload_profile(g, np.array([0.5, 0.1, 0.1]), np.full(3, 1 / 3), "a")


class TestDualMeanAgreement:
    def test_small_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(12):
            n = int(rng.integers(2, 11))
            tau = int(rng.integers(1, 4))
            g = SlotGame(
                rng.uniform(0, 5),
                rng.uniform(0, 5),
                tau,
                n,
                make_geometric(rng.uniform(1, 5)),
                make_deterministic(int(rng.integers(1, 5))),
            )
            pa = rng.dirichlet(np.ones(n))
            pb = rng.dirichlet(np.ones(n))
            for belief in "ab":
                prof = workload_profile(g, pa, pb, belief, mass_tol=1e-9)
                # The longest workload law, from the states the profile walks.
                stepper = WorkloadStepper(g.service(belief), tau)
                state = stepper.initial()
                k_max = state.v.size
                for load in (g.lam_a * pa + g.lam_b * pb)[:-1]:
                    state = stepper.advance(state, load)
                    k_max = max(k_max, state.v.size)
                tol = 10 * 1e-12 * max(k_max, 1)
                assert np.max(np.abs(prof.ev - prof.ev_telescoped)) <= tol

    def test_disagreement_raises_typed_error(self):
        # a state whose telescoped mean (0) misstates its law's mean (5)
        stepper = WorkloadStepper(make_geometric(2.5), 2)
        with pytest.raises(NumericFailure, match="cross-check"):
            stepper.advance(SlotState(0, Pmf.point_mass(5), 5.0, 0.0), 1.0)

    @pytest.mark.parametrize("slots", [2, 7])
    def test_disagreement_raises_through_multi_slot_drain(self, slots):
        stepper = WorkloadStepper(make_geometric(2.5), 2)
        with pytest.raises(NumericFailure, match="cross-check"):
            stepper.advance(SlotState(0, Pmf.point_mass(5), 5.0, 0.0), 1.0, slots)


class TestMultiSlotDrain:
    @pytest.mark.parametrize(
        "service", [make_deterministic(4), make_geometric(3.0), make_geometric_mixture(3.0, 2.0)]
    )
    @pytest.mark.parametrize("tau", [1, 3])
    def test_equals_one_slot_drains(self, service, tau):
        # one drain of k slots after a slot's arrivals against that slot
        # and k - 1 empty ones, from laws short and long against k tau
        stepper = WorkloadStepper(service, tau)
        start = stepper.advance(stepper.advance(stepper.initial(), 2.0), 6.0)
        for slots in (1, 2, 5, 40):
            for load in (0.0, 1.5):
                once = stepper.advance(start, load, slots)
                step = stepper.advance(start, load)
                for _ in range(slots - 1):
                    step = stepper.advance(step, 0.0)
                assert once.slot == step.slot == start.slot + slots
                assert once.v.size == step.v.size
                assert np.max(np.abs(once.v - step.v)) <= 1e-15
                assert once.ev == step.ev and once.tail == step.tail


class TestMonotoneLoad:
    def test_extra_early_load_raises_later_workload(self):
        rng = np.random.default_rng(13)
        stepper = WorkloadStepper(make_geometric(2.5), 2)
        for _ in range(8):
            loads = rng.uniform(0.0, 3.0, 6)
            bumped = loads.copy()
            u = int(rng.integers(0, 5))
            bumped[u] += rng.uniform(0.1, 1.0)
            s1, s2 = stepper.initial(), stepper.initial()
            for t in range(6):
                s1 = stepper.advance(s1, loads[t])
                s2 = stepper.advance(s2, bumped[t])
                if t >= u:
                    assert s2.ev >= s1.ev - 1e-12


class TestBeliefDominance:
    def test_slow_belief_waits_no_less(self):
        pairs = [
            (make_deterministic(4), make_deterministic(2)),
            (make_geometric(4), make_geometric(2)),
            (make_geometric_mixture(4, 1.74), make_geometric_mixture(2, 1.42)),
        ]
        rng = np.random.default_rng(3)
        for x_a, x_b in pairs:
            g = SlotGame(3.0, 3.0, 2, 8, x_a, x_b)
            for _ in range(4):
                pa = rng.dirichlet(np.ones(8))
                pb = rng.dirichlet(np.ones(8))
                wa = workload_profile(g, pa, pb, "a", mass_tol=1e-9).w
                wb = workload_profile(g, pa, pb, "b", mass_tol=1e-9).w
                assert np.all(wa >= wb - 1e-9)


class TestExpectedWait:
    def test_opening_formula(self):
        g = SlotGame(5.0, 5.0, 3, 5, make_deterministic(4), make_deterministic(2))
        p0 = ArrivalStrategy.point_mass(5)
        assert workload_profile(g, p0, p0, "a").w[0] == pytest.approx(20.0, abs=1e-12)

    def test_zero_mass_zero_backlog(self):
        g = SlotGame(2.0, 0.0, 4, 3, make_deterministic(1), make_deterministic(1))
        last = ArrivalStrategy.point_mass(3, slot=2)
        assert workload_profile(g, last, last, "a").w[0] == 0.0

    def test_slot_bounds(self):
        g = SlotGame(1.0, 1.0, 1, 3, make_deterministic(1), make_deterministic(1))
        p = ArrivalStrategy.uniform(3)
        assert workload_profile(g, p, p, "a").w.shape == (3,)
