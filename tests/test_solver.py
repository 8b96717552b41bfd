import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrivalgames import solver
from arrivalgames.dists import (
    NumericFailure,
    Pmf,
    make_deterministic,
    make_geometric,
    make_geometric_mixture,
)
from arrivalgames.signals import SignalParams, posterior_views
from arrivalgames.solver import (
    SolverConfig,
    _ResponseEngine,
    _search_wbar,
    _Warm,
    best_response,
    iterated_best_response,
    solve_fr,
    verify_equilibrium,
)
from arrivalgames.workload import (
    ArrivalStrategy,
    InvalidStrategyError,
    SlotGame,
    WorkloadStepper,
    workload_profile,
)

EPS = 1e-5


FAMILIES = (
    lambda chi: make_deterministic(max(1, int(round(chi)))),
    make_geometric,
    lambda chi: make_geometric_mixture(chi, 1.5 * math.sqrt(1 - 1 / chi) + 0.05),
)


def random_game(rng, lam_max=5.0, slots=(2, 10)) -> SlotGame:
    chi_b = rng.uniform(1.2, 3.0)
    chi_a = chi_b + rng.uniform(0.5, 3.0)
    fam = FAMILIES[rng.integers(0, 3)]
    return SlotGame(
        lam_a=rng.uniform(0.2, lam_max),
        lam_b=rng.uniform(0.2, lam_max),
        tau=int(rng.integers(1, 4)),
        n_slots=int(rng.integers(slots[0], slots[1] + 1)),
        x_a=fam(chi_a),
        x_b=fam(chi_b),
    )


def wide_game(rng) -> SlotGame:
    """A game over the ranges of `random_game`, but with populations from
    0.2 to 20 and 5 to 30 slots."""
    return random_game(rng, lam_max=20.0, slots=(5, 30))


@st.composite
def small_game(draw, max_slots=10):
    """A small game drawn over the ranges of `random_game`."""
    chi_b = draw(st.floats(1.2, 3.0))
    chi_a = chi_b + draw(st.floats(0.5, 3.0))
    fam = FAMILIES[draw(st.integers(0, 2))]
    return SlotGame(
        lam_a=draw(st.floats(0.2, 5.0)),
        lam_b=draw(st.floats(0.2, 5.0)),
        tau=draw(st.integers(1, 3)),
        n_slots=draw(st.integers(2, max_slots)),
        x_a=fam(chi_a),
        x_b=fam(chi_b),
    )


@st.composite
def game_and_opponent(draw):
    """A small game and an opponent profile on the simplex. A heavy
    opening atom in the profile makes some start slots overfill at a zero
    atom."""
    g = draw(small_game())
    n = g.n_slots
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    weights[0] += draw(st.floats(0.0, 20.0))
    return g, weights / weights.sum()


PROPERTY = settings(max_examples=8, deadline=None, derandomize=True, database=None)


def stall_game() -> SlotGame:
    """A game whose types share eight slots. Its plain alternation drifts
    by one fixed step per round: slots 1-9 carry about the same total
    load, so the split of that block is not unique. The joint finish
    shares the block and ends the solve at round 4."""
    return SlotGame(
        0.46043044880251627, 0.23710764490245248, 2, 10,
        make_deterministic(2), make_deterministic(1),
    )


@st.composite
def block_opponent(draw):
    """The 60-slot deterministic game at 50 arrivals per type and unit
    slots, and an opponent on one block of slots with a heavy first slot:
    the responding type's waits drop below the block's only once its
    work drains, so the two supports are disjoint and the fills cross
    long stretches without opponent load."""
    g = SlotGame(50.0, 50.0, 1, 60, make_deterministic(4), make_deterministic(2))
    start = draw(st.integers(0, 20))
    width = draw(st.integers(1, 30))
    weights = np.zeros(g.n_slots)
    weights[start : start + width] = draw(
        st.lists(st.floats(0.01, 1.0), min_size=width, max_size=width)
    )
    weights[start] += draw(st.floats(0.0, 20.0))
    return g, weights / weights.sum()


@st.composite
def idle_opponent(draw):
    """A small game and an opponent profile with runs of slots without
    load, which the responding type's own-zero prefix crosses in one drain
    each."""
    g, weights = draw(game_and_opponent())
    idle = np.array(draw(st.lists(st.booleans(), min_size=g.n_slots, max_size=g.n_slots)))
    idle[draw(st.integers(0, g.n_slots - 1))] = False
    weights[idle] = 0.0
    return g, weights / weights.sum()


def period_two_game() -> SlotGame:
    """Game 29 of 100 games drawn with `random_game` at seed 7: the plain
    alternation cycles with period 2 between two pairs 0.022 apart."""
    return SlotGame(
        4.232810322360271, 0.7395475591643792, 3, 7,
        make_deterministic(4), make_deterministic(2),
    )


def cycle_game() -> SlotGame:
    """Game 37 of the large draw (lambda up to 50, 30-80 slots) at seed 2:
    the plain alternation cycles with period 2 and no finisher call
    succeeds."""
    return SlotGame(
        9.245190285168976, 39.99057308459679, 2, 61,
        make_geometric(3.226814267235141), make_geometric(1.5426855963785786),
    )


def move_back_game() -> SlotGame:
    """Game 81 of the wide draw at seed 8, whose finisher calls at rounds
    18, 29 and 40 end on a move back of their shared set."""
    return SlotGame(
        10.805466858099232, 10.326958814841857, 3, 19,
        make_geometric_mixture(2.5978213239603773, 1.2263883820469692),
        make_geometric_mixture(1.3060003074054283, 0.7760734407415243),
    )


def br20() -> SlotGame:
    """The paper's 20-slot geometric game."""
    return SlotGame(5.0, 5.0, 3, 20, make_geometric(4), make_geometric(2))


def det240() -> SlotGame:
    """The full-scale 240-slot deterministic game."""
    return SlotGame(50.0, 50.0, 1, 240, make_deterministic(4), make_deterministic(2))


def own_zero_wait(engine: _ResponseEngine, t: int) -> float:
    """The wait at slot t when the responding type never arrives."""
    return engine.stepper.wait(engine.prefix_state(t), engine.other_load[t])


def unpruned_fill(engine: _ResponseEngine, wbar: float, mass_cap: float):
    """The fill before the drift bound, kept as its oracle: it steps one
    slot at a time from the first slot whose own-zero wait is below wbar
    to the horizon, or until the mass passes the cap."""
    p = np.zeros(engine.n)
    mass = 0.0
    theta = next((t for t in range(engine.n) if own_zero_wait(engine, t) < wbar), engine.n)
    if theta == engine.n:
        return p, mass
    state = engine.prefix_state(theta)
    for t in range(theta, engine.n):
        if t > theta:
            state = engine.stepper.advance(state, load)
        raw = (2.0 / engine.chi) * (wbar - state.ev) - engine.other_load[t]
        p[t] = max(0.0, raw / engine.lam_own)
        load = engine.lam_own * p[t] + engine.other_load[t]
        mass += p[t]
        if mass > mass_cap:
            break
    return p, mass


def scan_and_bisect(g: SlotGame, belief: str, minus, eps: float) -> np.ndarray:
    """The best response by the search the w̄ search replaced, kept as its
    oracle: scan the start slots in order; a slot qualifies when its
    own-zero wait beats every earlier slot's, is rejected when its fill
    from a zero atom carries more than unit mass, and otherwise takes the
    atom that bisection on [0, 1] closes on unit mass."""
    engine = _ResponseEngine(g, belief, minus)
    lam, chi, other = engine.lam_own, engine.chi, engine.other_load
    cap, target = 1.0 + eps, min(eps * 1e-4, 1e-9)

    def fill(theta, atom):
        p = np.zeros(g.n_slots)
        p[theta] = atom
        state = engine.prefix_state(theta)
        load = lam * atom + other[theta]
        wbar = engine.stepper.wait(state, load)
        mass = atom
        for t in range(theta + 1, g.n_slots):
            state = engine.stepper.advance(state, load)
            p[t] = max(0.0, ((2.0 / chi) * (wbar - state.ev) - other[t]) / lam)
            load = lam * p[t] + other[t]
            mass += p[t]
            if mass > cap:
                break
        return p, mass

    w_min = math.inf
    for theta in range(g.n_slots):
        if own_zero_wait(engine, theta) >= w_min:
            continue
        w_min = own_zero_wait(engine, theta)
        if fill(theta, 0.0)[1] > 1.0:
            continue
        a_lo, a_hi, a_mid = 0.0, 1.0, 0.5
        for _ in range(200):
            p, mass = fill(theta, a_mid)
            if abs(mass - 1.0) < target or a_hi - a_lo < 1e-15:
                return p
            if mass < 1.0:
                a_lo = a_mid
            else:
                a_hi = a_mid
            a_mid = 0.5 * (a_lo + a_hi)
        return p
    raise AssertionError("no start slot admits a response")


def cold_search(engine: _ResponseEngine) -> tuple[np.ndarray, float]:
    """The fill and w̄ of a search with no warm start."""
    warm = _Warm()
    p = _search_wbar(engine, EPS, 200, warm)
    return p, warm.wbar


def fill_path(engine: _ResponseEngine, wbar: float):
    """Workload means and own-zero waits of every slot along the
    unpruned fill at wbar without a mass cap; a wbar below every own-zero
    wait gives the own-zero prefix."""
    state, evs, waits = engine.stepper.initial(), [], []
    for t in range(engine.n):
        if t > 0:
            state = engine.stepper.advance(state, load)
        evs.append(state.ev)
        waits.append(engine.stepper.wait(state, engine.other_load[t]))
        raw = (2.0 / engine.chi) * (wbar - state.ev) - engine.other_load[t]
        load = engine.lam_own * max(0.0, raw / engine.lam_own) + engine.other_load[t]
    return evs, waits


class TestSolverProperties:
    @PROPERTY
    @given(case=game_and_opponent())
    def test_response_mass_and_constant_wait(self, case):
        g, minus = case
        p = best_response(minus, g, "a", EPS)
        assert 1.0 - EPS < p.sum() < 1.0 + EPS
        prof = workload_profile(g, p, minus, "a", mass_tol=1e-3)
        on = prof.w[p > 1e-8]
        assert on.max() - on.min() <= 2 * EPS * g.x_a.chi

    @PROPERTY
    @given(case=game_and_opponent())
    def test_response_matches_scan_and_bisect(self, case):
        # cold, and warm-started from guesses below, at and above the root,
        # each with a carried slope that is missing, unusable, far off or
        # true
        g, minus = case
        for belief in ("a", "b"):
            want = scan_and_bisect(g, belief, minus, EPS)
            warm = _Warm()
            got = best_response(minus, g, belief, EPS, 200, warm)
            assert np.max(np.abs(got - want)) <= 1e-8, belief
            assert warm.violations == 0, belief
            root = warm.wbar
            engine = _ResponseEngine(g, belief, minus)
            h = 1e-6 * root
            true = (engine.fill(root + h, math.inf)[1] - engine.fill(root - h, math.inf)[1]) / (2 * h)
            slopes = (None, 0.0, -true, math.nan, math.inf, 1e-12 * true, 1e12 * true, true)
            for factor in (0.5, 1.0, 1.5):
                for slope in slopes:
                    warm = _Warm(wbar=factor * root, slope=slope)
                    got = best_response(minus, g, belief, EPS, 200, warm)
                    assert np.max(np.abs(got - want)) <= 1e-8, (belief, factor, slope)
                    assert warm.violations == 0, (belief, factor, slope)

    @PROPERTY
    @given(case=game_and_opponent())
    def test_first_slot_with_mass_is_first_below_wbar(self, case):
        g, minus = case
        engine = _ResponseEngine(g, "a", minus)
        zero_waits = np.array([own_zero_wait(engine, t) for t in range(g.n_slots)])
        p_star, w_star = cold_search(engine)
        trials = [(p_star, w_star)]
        just_above = zero_waits + 1e-9 * (1.0 + zero_waits)
        for w in np.concatenate([zero_waits, just_above, zero_waits + 0.25 * g.x_a.chi * g.lam_a]):
            trials.append((engine.fill(w, math.inf)[0], w))
        for p, w in trials:
            below = np.flatnonzero(zero_waits < w)
            first = below[0] if below.size else g.n_slots
            assert np.all(p[:first] == 0.0), w
            assert first == g.n_slots or p[first] > 0.0, w

    @PROPERTY
    @given(case=game_and_opponent())
    def test_fill_mass_monotone_in_wbar(self, case):
        g, minus = case
        engine = _ResponseEngine(g, "a", minus)
        w_min = min(own_zero_wait(engine, t) for t in range(g.n_slots))
        _, w_star = cold_search(engine)
        grid = np.linspace(w_min, w_min + 2.0 * (w_star - w_min), 17)
        masses = [engine.fill(w, math.inf)[1] for w in grid]
        assert masses[0] == 0.0
        assert np.all(np.diff(masses) >= -1e-12), masses


    @PROPERTY
    @given(case=st.one_of(game_and_opponent(), block_opponent()))
    def test_drift_floor_holds_for_computed_means(self, case):
        # from every slot of a fill path, the engine must not rule out a
        # level just above a later slot's own-zero wait: neither all later
        # slots at once nor an idle slot among them
        g, minus = case
        for belief in ("a", "b"):
            engine = _ResponseEngine(g, belief, minus)
            _, root = cold_search(engine)
            for wbar in (-1.0, root, 2.0 * root):
                evs, waits = fill_path(engine, wbar)
                for t in range(g.n_slots - 1):
                    level = np.nextafter(min(waits[t + 1 :]), math.inf)
                    assert engine._later[t] < engine._rest(t, evs[t], level), (belief, wbar, t)
                    for s in range(t + 1, g.n_slots):
                        if engine.other_load[s] == 0.0:
                            level = np.nextafter(waits[s], math.inf)
                            assert engine._reach[s] < engine._rest(t, evs[t], level)

    @PROPERTY
    @given(
        case=st.one_of(game_and_opponent(), block_opponent(), idle_opponent()), data=st.data()
    )
    def test_pruned_fill_matches_unpruned_oracle(self, case, data):
        # w̄ on a grid from the smallest own-zero wait to twice the root,
        # and at own-zero waits and their neighbours, where the drift
        # bound is closest to the waits it rules out
        g, minus = case
        for belief in ("a", "b"):
            engine = _ResponseEngine(g, belief, minus)
            waits = [own_zero_wait(engine, t) for t in range(g.n_slots)]
            _, root = cold_search(engine)
            near = [np.nextafter(w, side) for w in waits for side in (-math.inf, math.inf)]
            for w in waits + near:
                # a cap below zero stops both fills at their first slot
                p, _ = engine.fill(w, -1.0)
                assert np.array_equal(p, unpruned_fill(engine, w, -1.0)[0]), (belief, w)
            picks = data.draw(st.lists(st.sampled_from(waits + near), max_size=6))
            for w in list(np.linspace(min(waits), 2.0 * root, 9)) + picks:
                for cap in (1.0 + EPS, math.inf):
                    p, mass = engine.fill(w, cap)
                    want_p, want_mass = unpruned_fill(engine, w, cap)
                    assert np.max(np.abs(p - want_p)) <= 1e-15, (belief, w, cap)
                    assert abs(mass - want_mass) <= 1e-15, (belief, w, cap)

    @PROPERTY
    @given(g=small_game(), data=st.data())
    def test_vanishing_population_picks_first_cheapest_slot(self, g, data):
        # with lam_b = 0 type b's response is the point mass at the first
        # argmin of its waits when it stays away, stepped one slot at a time
        g = dataclasses.replace(g, lam_b=0.0)
        n = g.n_slots
        minus = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        waits = workload_profile(g, minus, np.zeros(n), "b", mass_tol=math.inf).w
        want = np.zeros(n)
        want[int(np.argmin(waits))] = 1.0
        assert np.array_equal(best_response(minus, g, "b", EPS), want)

    @PROPERTY
    @given(g=small_game(max_slots=6))
    def test_converged_solve_passes_at_its_gate(self, g):
        cfg = SolverConfig(max_outer=60)
        _, _, rep = iterated_best_response(g, cfg)
        assert rep.tol == cfg.verify_tol
        if rep.converged:
            assert rep.passed


class TestSolverConfig:
    @pytest.mark.parametrize("max_bisect", [0, -3])
    def test_rejects_search_without_fills(self, max_bisect):
        with pytest.raises(ValueError, match="max_bisect"):
            SolverConfig(max_bisect=max_bisect)

    @pytest.mark.parametrize("max_bisect", [0, -3])
    def test_best_response_rejects_search_without_fills(self, max_bisect):
        g = SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))
        minus = ArrivalStrategy.uniform(5).probs
        with pytest.raises(ValueError, match="max_bisect"):
            best_response(minus, g, "a", EPS, max_bisect=max_bisect)

    def test_rejects_no_outer_iterations(self):
        with pytest.raises(ValueError, match="max_outer"):
            SolverConfig(max_outer=0)

    @pytest.mark.parametrize("value", [2.5, math.inf, math.nan])
    def test_caps_must_be_integers(self, value):
        for field in ("max_outer", "max_bisect"):
            with pytest.raises(ValueError, match=field):
                SolverConfig(**{field: value})
        g = SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))
        minus = ArrivalStrategy.uniform(5).probs
        with pytest.raises(ValueError, match="max_bisect"):
            best_response(minus, g, "a", EPS, max_bisect=value)

    def test_integral_float_caps_are_stored_as_ints(self):
        cfg = SolverConfig(max_outer=60.0, max_bisect=200.0)
        assert (cfg.max_outer, cfg.max_bisect) == (60, 200)
        assert type(cfg.max_outer) is int and type(cfg.max_bisect) is int
        g = SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))
        minus = ArrivalStrategy.uniform(5).probs
        want = best_response(minus, g, "a", EPS)
        assert np.array_equal(best_response(minus, g, "a", EPS, max_bisect=200.0), want)

    @pytest.mark.parametrize(
        "field, value",
        [("eps", math.nan), ("eps", math.inf), ("eps", 0.0), ("max_bisect", math.nan)],
    )
    def test_rejects_non_finite_or_non_positive_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})


class TestBestResponseInputs:
    GAME = SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))

    @pytest.mark.parametrize(
        "minus",
        [
            np.ones(1),
            np.full(7, 1 / 7),
            np.array([0.25, 0.25, math.nan, 0.25, 0.25]),
            np.array([-0.5, 0.5, 0.5, 0.5, 0.0]),
            np.array([-1e-11, 0.25, 0.25, 0.25, 0.25]),
        ],
    )
    def test_rejects_bad_opponent_profile(self, minus):
        with pytest.raises(InvalidStrategyError):
            best_response(minus, self.GAME, "a", EPS)

    def test_opponent_mass_is_not_checked(self):
        # an absent opponent is the zero profile; entries just below zero
        # are rounding and clip to it
        p = best_response(np.zeros(5), self.GAME, "a", EPS)
        q = best_response(np.full(5, -1e-13), self.GAME, "a", EPS)
        assert np.array_equal(p, q) and abs(p.sum() - 1.0) < EPS

    @pytest.mark.parametrize(
        "belief, eps, match",
        [("c", EPS, "belief"), ("a", 0.0, "eps"), ("a", -1.0, "eps"), ("a", math.nan, "eps")],
    )
    def test_rejects_bad_settings_before_any_fill(self, monkeypatch, belief, eps, match):
        def no_fill(*args):
            raise AssertionError("filled before checking the settings")

        monkeypatch.setattr(_ResponseEngine, "fill", no_fill)
        monkeypatch.setattr(_ResponseEngine, "prefix_state", no_fill)
        minus = ArrivalStrategy.uniform(5)
        with pytest.raises(ValueError, match=match):
            best_response(minus, self.GAME, belief, eps)


class TestBisection:
    def test_tiny_load_equalizes_waits(self):
        g = SlotGame(0.1, 0.0, 3, 2, make_deterministic(1), make_deterministic(1))
        p, _ = cold_search(_ResponseEngine(g, "a", np.zeros(2)))
        assert abs(p.sum() - 1.0) < EPS
        prof = workload_profile(g, p / p.sum(), ArrivalStrategy.uniform(2), "a")
        assert abs(prof.w[0] - prof.w[1]) <= 2 * EPS * g.x_a.chi

    def test_success_mass_window(self):
        g = SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))
        minus = ArrivalStrategy.uniform(5).probs
        p, _ = cold_search(_ResponseEngine(g, "a", minus))
        assert 1.0 - EPS < p.sum() < 1.0 + EPS

    def test_overshoot_moves_start(self):
        # a huge opposing atom at the opening makes the opening's own-zero
        # wait so high that the equilibrium wait lies below it
        g = SlotGame(0.5, 12.5, 1, 60, make_deterministic(4), make_deterministic(2))
        minus = np.zeros(60)
        minus[0] = 1.0
        engine = _ResponseEngine(g, "a", minus)
        p, wbar = cold_search(engine)
        assert own_zero_wait(engine, 0) >= wbar
        assert p[0] == 0.0 and abs(p.sum() - 1.0) < EPS

    def test_step_cap_raises(self):
        g = SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))
        minus = ArrivalStrategy.uniform(5).probs
        with pytest.raises(NumericFailure):
            best_response(minus, g, "a", EPS, max_bisect=1)


class StepMassEngine:
    """A one-slot response engine whose fill carries mass w̄ / 2, except
    0.4 at w̄ = 2: a search that fills at 1 and then at 2 sees the mass
    fall, a monotonicity violation."""

    chi, lam_own, n = 2.0, 1.0, 1

    def __init__(self, *args):
        self.fills = 0

    def fill(self, wbar: float, mass_cap: float) -> tuple[np.ndarray, float]:
        self.fills += 1
        mass = 0.4 if wbar == 2.0 else 0.5 * wbar
        return np.array([mass]), mass


class TestMonotonicityCount:
    def test_search_counts_a_falling_mass(self):
        # warm at 1 with slope 1/2, the secant step lands on 2; the search
        # then closes on the jump at 2 by bisection
        cfg, engine = SolverConfig(), StepMassEngine()
        warm = _Warm(wbar=1.0, slope=0.5)
        p = _search_wbar(engine, cfg.eps, cfg.max_bisect, warm)
        assert abs(p.sum() - 1.0) < cfg.eps
        assert (warm.violations, engine.fills) == (1, 33)

    def test_solve_reports_both_types_counts(self, monkeypatch):
        # each type's cold first search fills at 1 and then at 2 and counts
        # one violation; the second round's responses close at once
        monkeypatch.setattr(solver, "_ResponseEngine", StepMassEngine)
        g = SlotGame(1.0, 1.0, 1, 1, make_deterministic(2), make_deterministic(2))
        _, _, rep = iterated_best_response(g, SolverConfig())
        assert rep.monotonicity_violations == 2


class TestBestResponse:
    def test_point_mass_when_cohort_cost_dominates(self):
        # tiny population, heavy jobs, short slots: the opening cohort term
        # exceeds any leftover backlog, so everyone at the opening is stable
        g = SlotGame(0.1, 0.0, 1, 3, make_deterministic(4), make_deterministic(1))
        p = best_response(np.zeros(3), g, "a", EPS)
        assert p[0] == pytest.approx(1.0, abs=EPS)
        assert p[1:].sum() == pytest.approx(0.0, abs=EPS)

    def test_fixed_point_self_consistency(self):
        g = SlotGame(25.0, 25.0, 1, 60, make_deterministic(4), make_deterministic(2))
        pa, pb, rep = iterated_best_response(g, SolverConfig())
        assert rep.converged
        again = best_response(pb, g, "a", EPS)
        assert np.max(np.abs(again / again.sum() - pa.probs)) <= 1e-4

    def test_constant_wait_on_support(self):
        g = SlotGame(3.0, 0.0, 2, 6, make_geometric(2.0), make_geometric(1.5))
        p = best_response(np.zeros(6), g, "a", EPS)
        prof = workload_profile(g, p, ArrivalStrategy.uniform(6), "a", mass_tol=1e-3)
        on = prof.w[p > 1e-8]
        assert on.max() - on.min() <= 2 * EPS * g.x_a.chi

    def test_mass_within_eps(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_game(rng)
            minus = rng.dirichlet(np.ones(g.n_slots))
            p = best_response(minus, g, "a", EPS)
            assert 1.0 - EPS < p.sum() < 1.0 + EPS


class TestIteratedBestResponse:
    def test_heavy_load_all_at_opening(self):
        g = SlotGame(50.0, 50.0, 1, 60, make_deterministic(4), make_deterministic(2))
        pa, pb, rep = iterated_best_response(g, SolverConfig())
        assert rep.converged
        assert pa.cdf()[0] == pytest.approx(1.0, abs=1e-3)
        assert pb.cdf()[0] == pytest.approx(1.0, abs=1e-3)
        assert rep.wbar_a == pytest.approx(200.0, rel=1e-3)
        assert rep.wbar_b == pytest.approx(100.0, rel=1e-3)

    def test_case_iv_analogue_orders_types(self):
        g = SlotGame(12.5, 12.5, 1, 60, make_deterministic(4), make_deterministic(2))
        pa, pb, rep = iterated_best_response(g, SolverConfig())
        assert rep.converged and rep.passes(5e-4)
        assert rep.support_a.max() < rep.support_b.min()

    def test_degenerate_second_type(self):
        g = SlotGame(2.0, 0.0, 2, 5, make_geometric(2.5), make_geometric(1.2))
        pa, pb, rep = iterated_best_response(g, SolverConfig())
        assert rep.converged
        solo = best_response(pb, g, "a", EPS)
        assert np.max(np.abs(solo / solo.sum() - pa.probs)) <= 1e-6

    def test_outputs_exactly_normalized(self):
        rng = np.random.default_rng(5)
        g = random_game(rng)
        pa, pb, _ = iterated_best_response(g, SolverConfig())
        assert pa.total == pytest.approx(1.0, abs=1e-12)
        assert pb.total == pytest.approx(1.0, abs=1e-12)

    def test_report_gate_is_verify_tol(self):
        cfg = SolverConfig()
        g = SlotGame(2.0, 2.0, 2, 4, make_geometric(3), make_geometric(2))
        _, _, rep = iterated_best_response(g, cfg)
        assert rep.converged
        assert rep.tol == cfg.verify_tol and rep.passed

    def test_stalled_solve_verifies_once(self, monkeypatch):
        # the check of the finished pair that ends the stall game's solve
        # is its report
        gates, checks = [], []
        verify = solver.verify_equilibrium

        def counted(game, p_a, p_b, tol):
            gates.append(tol)
            checks.append(verify(game, p_a, p_b, tol))
            return checks[-1]

        monkeypatch.setattr(solver, "verify_equilibrium", counted)
        cfg = SolverConfig()
        g = stall_game()
        sa, sb, rep = iterated_best_response(g, cfg)
        assert rep is checks[-1] and gates == [cfg.verify_tol]
        fresh = verify(g, sa, sb, cfg.verify_tol)
        for field in ("wbar_a", "wbar_b", "max_support_spread", "max_offsupport_violation"):
            assert getattr(rep, field) == getattr(fresh, field), field
        assert np.array_equal(rep.support_a, fresh.support_a)
        assert np.array_equal(rep.support_b, fresh.support_b)

    def test_stall_game_converges_without_stall(self, monkeypatch):
        # the joint fill that closes the finish shares slots 2-9, whose gaps
        # agree to within the block rule's band. Any split of the block
        # with the right masses is an equilibrium, so only the waits are
        # pinned: to those of the pair that a jump along the repeated step
        # of the plain alternation once reached
        shared = []
        fill = solver._joint_fill

        def recorded(game, wbar_a, wbar_b, block=()):
            shared.append(len(block))
            return fill(game, wbar_a, wbar_b, block)

        monkeypatch.setattr(solver, "_joint_fill", recorded)
        cfg = SolverConfig()
        _, _, rep = iterated_best_response(stall_game(), cfg)
        assert rep.converged and rep.iterations == 4
        assert rep.tol == cfg.verify_tol and rep.passes(0.1 * cfg.verify_tol)
        assert shared[-1] >= 2
        assert abs(rep.wbar_a - 0.07439242971919939) <= 1e-5
        assert abs(rep.wbar_b - 0.03467423153102941) <= 1e-5

    def test_warm_start_does_not_leak_between_solves(self, monkeypatch):
        # each solve carries its own w̄ guesses and slopes: solving x again
        # after y, or as an equal but distinct game, repeats x's output bit
        # for bit, and each solve's first responses get a record with
        # neither a w̄ nor a slope
        seen = []
        respond = solver.best_response

        def recorded(p_minus, game, belief, eps, max_bisect, warm):
            seen.append((belief, warm.wbar, warm.slope))
            return respond(p_minus, game, belief, eps, max_bisect, warm)

        monkeypatch.setattr(solver, "best_response", recorded)

        def solve(g):
            seen.clear()
            sa, sb, rep = iterated_best_response(g, SolverConfig())
            assert seen[:2] == [("a", None, None), ("b", None, None)]
            assert all(w is not None for _, w, _ in seen[2:])
            return sa.probs, sb.probs, rep.wbar_a, rep.wbar_b, rep.iterations

        def game_x():
            return SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))

        x = game_x()
        alone = solve(x)
        solve(SlotGame(12.5, 12.5, 1, 60, make_deterministic(4), make_deterministic(2)))
        for again in (solve(x), solve(game_x())):
            assert np.array_equal(again[0], alone[0]) and np.array_equal(again[1], alone[1])
            assert again[2:] == alone[2:]

    @pytest.mark.parametrize("game", [br20(), det240()], ids=["br20", "det240"])
    def test_only_the_first_round_stops_loose(self, monkeypatch, game):
        # round 1 answers the all-at-opening start, which round 2
        # overwrites, so its two searches stop once |mass - 1| < 0.1 eps;
        # every later response, and a direct call, closes below 1e-9
        misses = []
        respond = solver.best_response

        def recorded(*args):
            p = respond(*args)
            misses.append(abs(p.sum() - 1.0))
            return p

        monkeypatch.setattr(solver, "best_response", recorded)
        iterated_best_response(game, SolverConfig())
        assert 1e-9 <= max(misses[:2]) < 0.1 * EPS
        assert max(misses[2:]) < 1e-9
        start = ArrivalStrategy.point_mass(game.n_slots).probs
        assert abs(respond(start, game, "a", EPS).sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("n_slots", [350, 400], ids=["T1.75", "T2.0"])
    def test_fluid_limit_game_converges_on_a_verified_pair(self, n_slots):
        # the fluid limit at N = 100: lambda 100 / 200 and 2 N T unit slots.
        # A round that moved the pair by less than eps once ended these
        # solves at an off-support violation of 5.9e-4 (T = 1.75) and a
        # spread of 6.3e-4 (T = 2.0), against a gate of 5e-4
        cfg = SolverConfig()
        g = SlotGame(100.0, 200.0, 1, n_slots, make_deterministic(2), make_deterministic(1))
        _, _, rep = iterated_best_response(g, cfg)
        assert rep.converged
        assert rep.tol == cfg.verify_tol and rep.passed
        assert rep.passes(0.1 * cfg.verify_tol)

    def test_period_three_cycle_converges(self):
        # the plain alternation cycles with period 4 on this game: iterates
        # 4 rounds apart differ by 2.5e-14, iterates 1 or 3 rounds apart by
        # about 0.1. The joint finish ends it at round 5, sharing slot 3
        cfg = SolverConfig(max_outer=60)
        g = SlotGame(
            4.59239342549526,
            1.0732023832590347,
            3,
            5,
            make_geometric(3.377256143431456),
            make_geometric(2.3385075468504226),
        )
        _, _, rep = iterated_best_response(g, cfg)
        assert rep.converged
        assert rep.passes(0.1 * cfg.verify_tol)

    def test_period_two_cycle_converges(self):
        # the plain alternation cycles with period 2 on this game: the pair
        # moves 0.022 each round and back, and the support spread stays at
        # 0.05 after 200 rounds. The finisher's call at round 6 fails, and
        # its retry 11 rounds later, from the cycle's other state, ends it
        cfg = SolverConfig(max_outer=200)
        _, _, rep = iterated_best_response(period_two_game(), cfg)
        assert rep.converged and rep.iterations == 17
        assert rep.passes(0.1 * cfg.verify_tol)

    def test_finisher_retries_every_eleven_rounds(self, monkeypatch):
        # a finisher that returns nothing leaves the period-2 cycle slow at
        # every other round: it is called at the first slow round and then
        # whenever a slow round comes _RETRY_ROUNDS or more rounds after
        # the last call, each time with a budget of two fills per round
        budgets = []

        def failed(game, wbar, eps, budget):
            budgets.append(budget)

        monkeypatch.setattr(solver, "_finish", failed)
        _, _, rep = iterated_best_response(period_two_game(), SolverConfig(max_outer=60))
        assert not rep.converged and rep.iterations == 60
        assert budgets == [2 * r for r in range(6, 61, 11)]

    def test_fluid_limit_game_sharing_two_slots_converges(self, monkeypatch):
        # the fluid limit T = 2 at N = 50: the alternation shares slots 56
        # and 57 and does not converge in 500 rounds; the finisher's call
        # at round 8 fails, and its retry at round 19 shares slot 57 alone
        steps = []
        advance = WorkloadStepper.advance

        def counted(stepper, *args):
            steps.append(args)
            return advance(stepper, *args)

        monkeypatch.setattr(WorkloadStepper, "advance", counted)
        cfg = SolverConfig()
        g = SlotGame(50.0, 100.0, 1, 200, make_deterministic(2), make_deterministic(1))
        _, _, rep = iterated_best_response(g, cfg)
        assert rep.converged and rep.iterations == 19
        assert rep.passes(0.1 * cfg.verify_tol)
        # 19 893 workload steps; 34 077 when the retry waited for round 50
        assert len(steps) <= 1.1 * 19893


class TestPrunedFillCost:
    def test_equilibrium_fill_steps_only_to_slots_with_mass(self):
        # the full-scale 240-slot deterministic game: type a arrives at
        # the opening and in a late block, type b after it; an unpruned
        # equilibrium fill of type a steps through all 239 later slots
        g = det240()
        _, pb, _ = iterated_best_response(g, SolverConfig())
        _, wbar = cold_search(_ResponseEngine(g, "a", pb.probs))
        engine = _ResponseEngine(g, "a", pb.probs)
        calls = []
        advance = engine.stepper.advance

        def counted(*args):
            calls.append(args)
            return advance(*args)

        engine.stepper.advance = counted
        p, mass = engine.fill(wbar, 1.0 + EPS)
        assert abs(mass - 1.0) < EPS
        # the fill ends at type a's last slot, and the gap after the
        # opening is one drain
        assert len(calls) <= 108
        assert len(calls) <= np.count_nonzero(p)


def stepped_prefix(engine: _ResponseEngine) -> list:
    """The own-zero prefix states stepped one slot at a time, kept as the
    oracle of the cached prefix that drains each idle run in one step."""
    states = [engine.stepper.initial()]
    for load in engine.other_load[:-1]:
        states.append(engine.stepper.advance(states[-1], load))
    return states


def check_sparse_prefix(g: SlotGame, belief: str, minus: np.ndarray) -> _ResponseEngine:
    """Check that the cached prefix matches slot-by-slot stepping whatever
    the order of the requests; return the engine."""
    want = stepped_prefix(_ResponseEngine(g, belief, minus))
    ascending, descending = _ResponseEngine(g, belief, minus), _ResponseEngine(g, belief, minus)
    for t in reversed(range(g.n_slots)):
        descending.prefix_state(t)
    for t, oracle in enumerate(want):
        got = ascending.prefix_state(t)
        assert got.slot == t
        assert abs(got.ev - oracle.ev) <= 1e-12, t
        size = max(got.v.size, oracle.v.size)
        gap = np.pad(got.v, (0, size - got.v.size)) - np.pad(oracle.v, (0, size - oracle.v.size))
        assert np.abs(gap).max() <= 1e-15, t
        # a state depends on t alone, not on the states asked for before
        assert np.array_equal(descending.prefix_state(t).v, got.v), t
    return ascending


class TestSparsePrefix:
    @PROPERTY
    @given(case=idle_opponent())
    def test_prefix_drains_idle_runs_like_single_steps(self, case):
        # test_pruned_fill_matches_unpruned_oracle checks these games' fills
        g, minus = case
        for belief in ("a", "b"):
            check_sparse_prefix(g, belief, minus)

    def test_full_scale_prefix_matches_single_steps(self):
        # type b against the solved type a, whose opening atom and late
        # block leave long runs without load. The fill matches its oracle
        # at every own-zero wait and both of its float neighbours: at its
        # first slot everywhere, and with a search's mass cap at every
        # twelfth wait, as the oracle steps each slot to the horizon
        g = det240()
        pa, _, _ = iterated_best_response(g, SolverConfig())
        engine = check_sparse_prefix(g, "b", pa.probs)
        for i in range(g.n_slots):
            w = own_zero_wait(engine, i)
            for level in (np.nextafter(w, -math.inf), w, np.nextafter(w, math.inf)):
                p, _ = engine.fill(level, -1.0)
                assert np.array_equal(p, unpruned_fill(engine, level, -1.0)[0]), level
                if i % 12 == 0:
                    p, mass = engine.fill(level, 1.0 + EPS)
                    want_p, want_mass = unpruned_fill(engine, level, 1.0 + EPS)
                    assert np.max(np.abs(p - want_p)) <= 1e-15, level
                    assert abs(mass - want_mass) <= 1e-15, level

    def test_full_scale_solve_steps_few_prefix_states(self, monkeypatch):
        # 99 prefix advances per solve; 815 when the prefix took one
        # advance per slot
        steps = []
        prefix_state = _ResponseEngine.prefix_state

        def counted(engine, t):
            advance = engine.stepper.advance
            engine.stepper.advance = lambda *args: steps.append(t) or advance(*args)
            try:
                return prefix_state(engine, t)
            finally:
                engine.stepper.advance = advance

        monkeypatch.setattr(_ResponseEngine, "prefix_state", counted)
        iterated_best_response(det240(), SolverConfig())
        assert len(steps) <= 100


class TestSearchCost:
    @pytest.mark.parametrize(
        "game, iterations, most",
        [
            # the paper's 20-slot geometric game: round 8 is the first whose
            # step is more than half the step two rounds before, and the
            # joint finish there closes in 9 joint fills; the 16 responses
            # close in 70 fills (286 fills in 44 rounds when the alternation
            # ran to a verified pair alone, 582 with the search this one
            # replaced)
            (br20(), 8, 80),
            # the full-scale 240-slot deterministic game, whose masses form
            # a staircase in w̄: 14 responses in 72 fills (87 with a tight
            # first round, whose cold type-a search took 19; 154 before)
            (det240(), 7, 75),
        ],
        ids=["br20", "det240"],
    )
    def test_solve_closes_its_responses_in_few_fills(self, monkeypatch, game, iterations, most):
        fills = []
        fill = _ResponseEngine.fill

        def counted(engine, wbar, mass_cap):
            fills.append(wbar)
            return fill(engine, wbar, mass_cap)

        monkeypatch.setattr(_ResponseEngine, "fill", counted)
        _, _, rep = iterated_best_response(game, SolverConfig())
        assert rep.converged and rep.iterations == iterations
        assert rep.monotonicity_violations == 0
        assert len(fills) <= most

    @pytest.mark.parametrize(
        "game, most",
        [
            # 1 569 workload steps: 8 rounds, 9 joint fills and one
            # verification (4 835 in 44 rounds when the alternation ran to a
            # verified pair alone, 4 730 in 43 when a small step alone
            # stopped the solve)
            (br20(), 1585),
            # 5 622: 6 338 with one prefix step per slot, 7 856 also with a
            # tight first round, 8 234 when a scan of the own-zero prefix
            # preceded each fill and gave a cold search its lower end
            (det240(), 5680),
        ],
        ids=["br20", "det240"],
    )
    def test_solve_takes_few_workload_steps(self, monkeypatch, game, most):
        # the count of steps, unlike a time, does not depend on the machine
        steps = []
        advance = WorkloadStepper.advance

        def counted(stepper, *args):
            steps.append(args)
            return advance(stepper, *args)

        monkeypatch.setattr(WorkloadStepper, "advance", counted)
        iterated_best_response(game, SolverConfig())
        assert len(steps) <= most


def recorded_finishes(monkeypatch) -> list:
    """The (game, pair or None) of every call of the joint finisher."""
    calls = []
    finish = solver._finish

    def spy(game, *args):
        out = finish(game, *args)
        calls.append((game, out))
        return out

    monkeypatch.setattr(solver, "_finish", spy)
    return calls


class TestJointFinish:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(g=small_game(), data=st.data())
    def test_joint_fill_meets_both_wait_conditions(self, g, data):
        # the oracle is the workload profile of the pair the loads make:
        # every slot's wait is at least each type's w̄, and equal to it on
        # the slots the type owns
        wbar = [
            data.draw(st.floats(0.0, 0.5 * lam * x.chi))
            for lam, x in ((g.lam_a, g.x_a), (g.lam_b, g.x_b))
        ]
        load, gap = solver._joint_fill(g, *wbar)
        # a fill that passed its load cap before the last slot left the
        # slots after it empty
        assume(load[:-1].sum() <= (1.0 + solver._EXACT_SPAN) * (g.lam_a + g.lam_b))
        own = gap >= 0.0
        pair = np.stack((np.where(own, load / g.lam_a, 0.0), np.where(own, 0.0, load / g.lam_b)))
        for row, belief, w in zip(pair, "ab", wbar):
            waits = workload_profile(g, pair[0], pair[1], belief, mass_tol=math.inf).w
            assert waits.min() >= w - 1e-9
            owned = row > 0.0
            assert np.abs(waits[owned] - w).max(initial=0.0) <= 1e-9

    @pytest.mark.parametrize(
        "game, iterations, wbar_a, wbar_b",
        [
            (det240(), 7, 93.00052313179, 3.4108550287857193),
            (
                SlotGame(50.0, 50.0, 1, 240, make_geometric(4), make_geometric(2)),
                16, 93.6074916036867, 4.965593797321343,
            ),
            (
                SlotGame(
                    50.0, 50.0, 1, 240,
                    make_geometric_mixture(4, 2.0 * math.sqrt(0.75)),
                    make_geometric_mixture(2, 2.0 * math.sqrt(0.5)),
                ),
                15, 97.13079328856863, 8.966542464055541,
            ),
            (
                SlotGame(100.0, 200.0, 1, 350, make_deterministic(2), make_deterministic(1)),
                18, 95.29770561901506, 2.357567630244409,
            ),
            (
                SlotGame(100.0, 200.0, 1, 400, make_deterministic(2), make_deterministic(1)),
                24, 89.36299897595225, 1.1511586388147759,
            ),
        ],
        ids=["det240", "geometric240", "mixture240", "fluid-T1.75", "fluid-T2.0"],
    )
    def test_contracting_solves_never_finish(self, monkeypatch, game, iterations, wbar_a, wbar_b):
        # each round's step is at most half the step two rounds before, so
        # these solves never call the finisher and keep the rounds and the
        # waits, bit for bit, of the alternation alone
        calls = recorded_finishes(monkeypatch)
        _, _, rep = iterated_best_response(game, SolverConfig())
        assert calls == []
        assert (rep.iterations, rep.wbar_a, rep.wbar_b) == (iterations, wbar_a, wbar_b)

    def test_finisher_that_returns_nothing_leaves_the_alternation(self, monkeypatch):
        # the alternation carries on exactly as without a finisher: br20
        # takes its 45 rounds and 4 867 steps
        monkeypatch.setattr(solver, "_finish", lambda *args: None)
        steps = []
        advance = WorkloadStepper.advance

        def counted(stepper, *args):
            steps.append(args)
            return advance(stepper, *args)

        monkeypatch.setattr(WorkloadStepper, "advance", counted)
        _, _, rep = iterated_best_response(br20(), SolverConfig())
        assert rep.converged and rep.iterations == 45 and len(steps) == 4867

    def test_finished_pair_is_exact(self, monkeypatch):
        # br20 shares slot 9, whose split puts a's mass at one exactly
        calls = recorded_finishes(monkeypatch)
        _, _, rep = iterated_best_response(br20(), SolverConfig())
        (_, pair), = calls
        assert rep.iterations == 8 and np.array_equal(rep.support_a, [0, 3, 4, 5, 6, 7, 9])
        assert 9 in rep.support_b
        assert pair[0].sum() == pytest.approx(1.0, abs=1e-15)
        assert rep.max_support_spread <= 1e-8 and rep.max_offsupport_violation <= 1e-8

    @pytest.mark.parametrize(
        "game, iterations",
        [
            (SlotGame(2.3429755827809537, 3.0109823974048937, 2, 28,
                      make_deterministic(4), make_deterministic(2)), 29),
            (SlotGame(4.967507646378521, 1.3219755298448663, 3, 26,
                      make_deterministic(3), make_deterministic(2)), 345),
            (SlotGame(5.809116184543649, 1.1915552921035906, 3, 72,
                      make_deterministic(4), make_deterministic(2)), 7),
        ],
        ids=["wide10-game34", "wide12-game76", "large2-game11"],
    )
    def test_block_games_converge(self, game, iterations):
        # games of the wide draws at seeds 10 and 12 and of the large draw
        # (lambda up to 50, 30-80 slots) at seed 2, whose types share
        # slots. They converge only if the finisher's block is narrow
        # enough for its pair to pass a tenth of verify_tol and its moves
        # of the shared set do not cycle
        cfg = SolverConfig()
        _, _, rep = iterated_best_response(game, cfg)
        assert rep.converged and rep.iterations == iterations
        assert rep.passes(0.1 * cfg.verify_tol)

    def test_failing_solve_is_bounded_and_warns_nothing(self, monkeypatch):
        # every finisher call on the cycle game fails: the one at round 6
        # spends its budget of 12 fills, and the four after it close their
        # residuals with slot 7 shared but no load on it, and give up
        # instead of splitting that set's load (0 / 0)
        steps = [0]
        advance = WorkloadStepper.advance

        def counted(stepper, *args):
            steps[0] += 1
            return advance(stepper, *args)

        monkeypatch.setattr(WorkloadStepper, "advance", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, rep = iterated_best_response(cycle_game(), SolverConfig(max_outer=60))
        assert not rep.converged
        assert steps[0] <= 1.1 * 24836

    def test_late_converging_game_stays_within_max_outer(self, monkeypatch):
        # game 26 of the wide draw at seed 9: 36 of its 37 finisher calls
        # return None and the 37th ends the solve at round 400 of the
        # default 500, after 37 354 workload steps
        steps = [0]
        advance = WorkloadStepper.advance

        def counted(stepper, *args):
            steps[0] += 1
            return advance(stepper, *args)

        monkeypatch.setattr(WorkloadStepper, "advance", counted)
        g = SlotGame(8.19931867603644, 2.8925934929841195, 3, 28,
                     make_deterministic(3), make_deterministic(2))
        cfg = SolverConfig()
        _, _, rep = iterated_best_response(g, cfg)
        assert rep.converged and rep.iterations == 400
        assert rep.passes(0.1 * cfg.verify_tol)
        assert steps[0] <= 1.1 * 37354

    def test_move_back_ends_a_call(self, monkeypatch):
        # the calls at rounds 18, 29 and 40 move their shared set back to a
        # slot it has left and give up there; the solve converges at round
        # 44 after 6 695 workload steps, and takes 10 655 when those calls
        # spend their budgets instead
        steps = [0]
        advance = WorkloadStepper.advance

        def counted(stepper, *args):
            steps[0] += 1
            return advance(stepper, *args)

        monkeypatch.setattr(WorkloadStepper, "advance", counted)
        cfg = SolverConfig()
        _, _, rep = iterated_best_response(move_back_game(), cfg)
        assert rep.converged and rep.iterations == 44
        assert rep.passes(0.1 * cfg.verify_tol)
        assert steps[0] <= 1.1 * 6695

    @pytest.mark.parametrize(
        "game, max_outer",
        [(cycle_game(), 60), (move_back_game(), 500)],
        ids=["cycle", "move-back"],
    )
    def test_call_makes_at_most_its_budget_of_joint_fills(self, monkeypatch, game, max_outer):
        # a call's first fill, the block's refill and the two forward
        # differences come before its first budget check, so it makes at
        # most max(budget, 4) joint fills. The calls at round 6 of the cycle
        # game and round 7 of the other spend their whole budgets
        fills, calls = [0], []
        joint_fill, finish = solver._joint_fill, solver._finish

        def counted(*args):
            fills[0] += 1
            return joint_fill(*args)

        def spy(game, wbar, eps, budget):
            fills[0] = 0
            out = finish(game, wbar, eps, budget)
            calls.append((budget, fills[0]))
            return out

        monkeypatch.setattr(solver, "_joint_fill", counted)
        monkeypatch.setattr(solver, "_finish", spy)
        iterated_best_response(game, SolverConfig(max_outer=max_outer))
        assert all(used <= max(budget, 4) for budget, used in calls), calls
        assert any(used == budget for budget, used in calls), calls

    def test_slots_flipping_together_end_a_call(self, monkeypatch):
        # the first Newton step, from (0, 0) to (5, -50), turns slots 1 and
        # 2 to a's together and at the same point of the step, so no cut
        # passes only one of them
        fills = [0]

        def stub(game, wbar_a, wbar_b, shared=()):
            fills[0] += 1
            s = wbar_a - wbar_b
            return (np.array([0.5 + 0.1 * wbar_a, 0.5, 1.0 + 0.01 * wbar_b]),
                    np.array([10.0, s - 5.0, 2.0 * (s - 5.0)]))

        monkeypatch.setattr(solver, "_joint_fill", stub)
        g = SlotGame(1.0, 1.0, 1, 3, make_deterministic(2), make_deterministic(1))
        assert solver._finish(g, (0.0, 0.0), EPS, 10) is None
        assert fills[0] == 4

    def test_no_move_candidate_ends_a_call(self, monkeypatch):
        # the residuals close on the block {0, 1}, but b's share of it
        # comes out negative, and the only slot on a's side has no load
        lam_b = 1e-12
        total = (1.0 - 1e-10) * (1.0 + lam_b)
        fills = [0]

        def stub(game, wbar_a, wbar_b, shared=()):
            fills[0] += 1
            return np.array([0.5 * total, 0.5 * total, 0.0]), np.array([0.0, 0.0, -1.0])

        monkeypatch.setattr(solver, "_joint_fill", stub)
        g = SlotGame(1.0, lam_b, 1, 3, make_deterministic(2), make_deterministic(1))
        assert solver._finish(g, (0.0, 0.0), EPS, 10) is None
        assert fills[0] == 4

    def test_overfilled_start_gives_up_after_one_fill(self, monkeypatch):
        # waits far past br20's equilibrium load more than 1 + _EXACT_SPAN
        # times both populations, which no pair of masses can match
        fills = []
        joint_fill = solver._joint_fill

        def counted(*args):
            fills.append(joint_fill(*args))
            return fills[-1]

        monkeypatch.setattr(solver, "_joint_fill", counted)
        g = br20()
        assert solver._finish(g, (1e3, 1e3), EPS, 100) is None
        (load, _), = fills
        assert load.sum() > (1.0 + solver._EXACT_SPAN) * (g.lam_a + g.lam_b)


class TestExistenceBattery:
    def test_fifty_random_instances_converge_and_verify(self):
        # every instance converges and verifies at verify_tol, games 1, 42
        # and 49 too, whose types share slots
        rng = np.random.default_rng(2024)
        cfg = SolverConfig()
        failures = []
        for i in range(50):
            g = random_game(rng)
            try:
                _, _, rep = iterated_best_response(g, cfg)
            except Exception as exc:  # log, never drop silently
                failures.append((i, g, repr(exc)))
                continue
            if not (rep.converged and rep.passes(cfg.verify_tol)):
                failures.append((i, g, rep))
        assert not failures, failures

    def test_seed_seven_draw_converges_without_stall(self, monkeypatch):
        # game 29 of this draw cycles with period 2 in the plain
        # alternation; the joint finish ends it at round 17 and ends eleven
        # more solves. Every pair the finisher returns is verified at a
        # tenth of verify_tol and carries masses within eps of one
        rng = np.random.default_rng(7)
        cfg = SolverConfig()
        calls = recorded_finishes(monkeypatch)
        failures = []
        for i in range(100):
            g = random_game(rng)
            _, _, rep = iterated_best_response(g, cfg)
            if not (rep.converged and rep.passes(0.1 * cfg.verify_tol)):
                failures.append((i, g, rep))
        assert not failures, failures
        finished = [(g, pair) for g, pair in calls if pair is not None]
        assert finished
        for g, pair in finished:
            assert np.abs(pair.sum(axis=1) - 1.0).max() < cfg.eps
            assert verify_equilibrium(g, pair[0], pair[1], cfg.verify_tol).passes(0.1 * cfg.verify_tol)


    def test_wide_draw_converges(self, monkeypatch):
        # 120 wide games at seed 7: 54 159 workload steps, 70 869 when the
        # finisher was retried only at 25-round checkpoints and 93 525 when
        # a jump along a repeated step and a stall test helped it. Game 111
        # (lambda 8.18 / 0.26, 25 slots, mixture service) once did not
        # converge in 500 rounds: its finisher shared slot 23, whose split
        # went negative. The shared slot moves to 24, a's side. A call
        # succeeds only from an odd round of 9 or more, so the calls at
        # rounds 3 and 14 fail and the one at round 25 ends the solve, with
        # a on slots 0 and 24 and b on 23 and 24
        rng = np.random.default_rng(7)
        cfg = SolverConfig()
        calls = recorded_finishes(monkeypatch)
        steps = [0]
        advance = WorkloadStepper.advance

        def counted(stepper, *args):
            steps[0] += 1
            return advance(stepper, *args)

        monkeypatch.setattr(WorkloadStepper, "advance", counted)
        failures, reports = [], []
        for i in range(120):
            g = wide_game(rng)
            _, _, rep = iterated_best_response(g, cfg)
            reports.append(rep)
            if not (rep.converged and rep.passes(0.1 * cfg.verify_tol)):
                failures.append((i, g, rep))
        assert not failures, failures
        assert steps[0] <= 1.1 * 54159
        rep = reports[111]
        assert rep.iterations == 25
        assert np.array_equal(rep.support_a, [0, 24]) and np.array_equal(rep.support_b, [23, 24])
        for g, pair in calls:
            if pair is not None:
                assert np.abs(pair.sum(axis=1) - 1.0).max() < cfg.eps
                assert verify_equilibrium(g, pair[0], pair[1], cfg.verify_tol).passes(0.1 * cfg.verify_tol)


class TestVerifyEquilibrium:
    def test_singleton_slot_passes(self):
        g = SlotGame(2.0, 2.0, 1, 1, make_deterministic(2), make_deterministic(1))
        one = ArrivalStrategy.point_mass(1)
        rep = verify_equilibrium(g, one, one, tol=1e-9)
        assert rep.passes(1e-9)

    def test_uniform_under_heavy_load_fails(self):
        g = SlotGame(25.0, 25.0, 1, 20, make_deterministic(4), make_deterministic(2))
        u = ArrivalStrategy.uniform(20)
        rep = verify_equilibrium(g, u, u, tol=1e-3)
        assert not rep.passes(1e-3)
        assert rep.max_support_spread > 1.0

    def test_builds_no_checked_pmf(self, monkeypatch):
        # Verification reads the workload states' arrays: checked Pmf
        # objects are built only at the API boundary.
        g = SlotGame(5.0, 5.0, 3, 20, make_geometric(4), make_geometric(2))
        u = ArrivalStrategy.uniform(20)
        built = []
        post_init = Pmf.__post_init__

        def counted(pmf):
            built.append(len(pmf.mass))
            post_init(pmf)

        monkeypatch.setattr(Pmf, "__post_init__", counted)
        rep = verify_equilibrium(g, u, u, tol=1e-3)
        assert built == []
        assert rep.wbar_a > rep.wbar_b > 0.0


class TestSolveFr:
    def test_perfect_signal_degenerates_to_prior(self):
        sig = SignalParams(4.0, 0.5, 1.0, make_geometric(4), make_geometric(2))
        va, vb = posterior_views(sig)
        assert va.nu == (pytest.approx(4.0), pytest.approx(0.0))
        assert np.allclose(va.z.pmf.mass, sig.x_a.pmf.mass)
        pa, pb, (ra, rb) = solve_fr(sig, 2, 6, SolverConfig())
        assert ra.converged and rb.converged
        solo_a = iterated_best_response(
            SlotGame(4.0, 0.0, 2, 6, sig.x_a, sig.x_b), SolverConfig()
        )[0]
        assert np.max(np.abs(pa.probs - solo_a.probs)) <= 1e-6

    def test_posterior_games_verify(self):
        sig = SignalParams(6.0, 0.5, 0.9, make_deterministic(4), make_deterministic(2))
        cfg = SolverConfig()
        pa, pb, (ra, rb) = solve_fr(sig, 3, 8, cfg)
        assert ra.converged and ra.passes(cfg.verify_tol)
        assert rb.converged and rb.passes(cfg.verify_tol)
        assert pa.total == pytest.approx(1.0, abs=1e-12)
        assert pb.total == pytest.approx(1.0, abs=1e-12)
