import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrivalgames.dists import (
    NumericFailure,
    make_deterministic,
    make_geometric,
    make_geometric_mixture,
)
from arrivalgames.signals import SignalParams, posterior_views
from arrivalgames.solver import (
    SolverConfig,
    _ResponseEngine,
    _search_wbar,
    best_response,
    iterated_best_response,
    solve_fr,
    verify_equilibrium,
)
from arrivalgames.workload import ArrivalStrategy, SlotGame, workload_profile

EPS = 1e-5


FAMILIES = (
    lambda chi: make_deterministic(max(1, int(round(chi)))),
    make_geometric,
    lambda chi: make_geometric_mixture(chi, 1.5 * math.sqrt(1 - 1 / chi) + 0.05),
)


def random_game(rng) -> SlotGame:
    chi_b = rng.uniform(1.2, 3.0)
    chi_a = chi_b + rng.uniform(0.5, 3.0)
    fam = FAMILIES[rng.integers(0, 3)]
    return SlotGame(
        lam_a=rng.uniform(0.2, 5.0),
        lam_b=rng.uniform(0.2, 5.0),
        tau=int(rng.integers(1, 4)),
        n_slots=int(rng.integers(2, 11)),
        x_a=fam(chi_a),
        x_b=fam(chi_b),
    )


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
        if engine.own_zero_wait(theta) >= w_min:
            continue
        w_min = engine.own_zero_wait(theta)
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
        # cold, and warm-started from guesses below, at and above the root
        g, minus = case
        for belief in ("a", "b"):
            want = scan_and_bisect(g, belief, minus, EPS)
            stats = {}
            got = best_response(minus, g, belief, EPS, 200, stats)
            assert np.max(np.abs(got - want)) <= 1e-8, belief
            root = stats[f"wbar_{belief}"]
            for factor in (0.5, 1.0, 1.5):
                stats[f"wbar_{belief}"] = factor * root
                got = best_response(minus, g, belief, EPS, 200, stats)
                assert np.max(np.abs(got - want)) <= 1e-8, (belief, factor)

    @PROPERTY
    @given(case=game_and_opponent())
    def test_first_slot_with_mass_is_first_below_wbar(self, case):
        g, minus = case
        engine = _ResponseEngine(g, "a", minus)
        zero_waits = np.array([engine.own_zero_wait(t) for t in range(g.n_slots)])
        p_star, w_star = _search_wbar(engine, EPS, 200, None)
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
        w_min = min(engine.own_zero_wait(t) for t in range(g.n_slots))
        _, w_star = _search_wbar(engine, EPS, 200, None)
        grid = np.linspace(w_min, w_min + 2.0 * (w_star - w_min), 17)
        masses = [engine.fill(w, math.inf)[1] for w in grid]
        assert masses[0] == 0.0
        assert np.all(np.diff(masses) >= -1e-12), masses


    @PROPERTY
    @given(g=small_game(max_slots=6))
    def test_converged_solve_passes_at_its_gate(self, g):
        cfg = SolverConfig(max_outer=60)
        _, _, rep = iterated_best_response(g, cfg)
        assert rep.tol == (cfg.stall_tol if rep.stalled else cfg.verify_tol)
        if rep.converged:
            assert rep.passed


class TestBisection:
    def test_tiny_load_equalizes_waits(self):
        g = SlotGame(0.1, 0.0, 3, 2, make_deterministic(1), make_deterministic(1))
        p, _ = _search_wbar(_ResponseEngine(g, "a", np.zeros(2)), EPS, 200, None)
        assert abs(p.sum() - 1.0) < EPS
        prof = workload_profile(g, p / p.sum(), ArrivalStrategy.uniform(2), "a")
        assert abs(prof.w[0] - prof.w[1]) <= 2 * EPS * g.x_a.chi

    def test_success_mass_window(self):
        g = SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))
        minus = ArrivalStrategy.uniform(5).probs
        p, _ = _search_wbar(_ResponseEngine(g, "a", minus), EPS, 200, None)
        assert 1.0 - EPS < p.sum() < 1.0 + EPS

    def test_overshoot_moves_start(self):
        # a huge opposing atom at the opening makes the opening's own-zero
        # wait so high that the equilibrium wait lies below it
        g = SlotGame(0.5, 12.5, 1, 60, make_deterministic(4), make_deterministic(2))
        minus = np.zeros(60)
        minus[0] = 1.0
        engine = _ResponseEngine(g, "a", minus)
        p, wbar = _search_wbar(engine, EPS, 200, None)
        assert engine.own_zero_wait(0) >= wbar
        assert p[0] == 0.0 and abs(p.sum() - 1.0) < EPS

    def test_step_cap_raises(self):
        g = SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))
        minus = ArrivalStrategy.uniform(5).probs
        with pytest.raises(NumericFailure):
            best_response(minus, g, "a", EPS, max_bisect=1)


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
        assert rep.converged and not rep.stalled
        assert rep.tol == cfg.verify_tol and rep.passed

    def test_report_gate_is_stall_tol_after_a_stall(self):
        # a game whose alternation drifts and ends through the stall test
        cfg = SolverConfig()
        g = SlotGame(
            0.46043044880251627, 0.23710764490245248, 2, 10,
            make_deterministic(2), make_deterministic(1),
        )
        _, _, rep = iterated_best_response(g, cfg)
        assert rep.converged and rep.stalled and rep.iterations == 50
        assert rep.tol == cfg.stall_tol and rep.passed

    def test_warm_start_does_not_leak_between_solves(self):
        # each solve carries its own w̄ guesses: solving x again after y,
        # or as an equal but distinct game, repeats x's output bit for bit
        def solve(g):
            sa, sb, rep = iterated_best_response(g, SolverConfig())
            return sa.probs, sb.probs, rep.wbar_a, rep.wbar_b, rep.iterations

        def game_x():
            return SlotGame(2.0, 1.0, 2, 5, make_geometric(3), make_geometric(1.5))

        x = game_x()
        alone = solve(x)
        solve(SlotGame(12.5, 12.5, 1, 60, make_deterministic(4), make_deterministic(2)))
        for again in (solve(x), solve(game_x())):
            assert np.array_equal(again[0], alone[0]) and np.array_equal(again[1], alone[1])
            assert again[2:] == alone[2:]

    @pytest.mark.xfail(
        strict=True,
        reason="the alternation cycles with period 3 (distance about 0.1) on this "
        "game; ROADMAP item 4, an accelerated outer iteration, is to fix it",
    )
    def test_period_three_cycle_converges(self):
        g = SlotGame(
            4.59239342549526,
            1.0732023832590347,
            3,
            5,
            make_geometric(3.377256143431456),
            make_geometric(2.3385075468504226),
        )
        _, _, rep = iterated_best_response(g, SolverConfig(max_outer=60))
        assert rep.converged


class TestExistenceBattery:
    def test_fifty_random_instances_converge_and_verify(self):
        # converged output must verify at the documented stall_tol;
        # most instances meet the tighter verify_tol as well
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
            if not (rep.converged and rep.passes(cfg.stall_tol)):
                failures.append((i, g, rep))
            if not rep.stalled and not rep.passes(cfg.verify_tol):
                failures.append((i, g, rep))
        assert not failures, failures


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
