"""End-to-end acceptance suite.

Each test is one committed criterion, run at its stated tolerance, and
reports a PASS/FAIL line via the conftest hook. Criteria 4 and 5 run on
two equilibrium grids of four horizons by three service families: the
paper's full-scale grid (50 arrivals per type, one slot per time unit),
and a quick one of 60 unit slots with the populations rescaled in
proportion to the horizon, which preserves the fluid case structure of
the four reference horizons.
"""

import math

import numpy as np
import pytest

from arrivalgames.abm import AbmConfig, coupled_dominance, run_abm
from arrivalgames.cli import main as cli_main
from arrivalgames.dists import (
    compound_poisson,
    make_deterministic,
    make_geometric,
    make_geometric_mixture,
)
from arrivalgames.fluid import (
    FluidEquilibrium,
    FluidParams,
    Segment,
    classify,
    solve_case,
    thresholds,
    verify_fluid,
)
from arrivalgames.signals import SignalParams, posterior_views
from arrivalgames.solver import SolverConfig, iterated_best_response, solve_fr
from arrivalgames.workload import SlotGame, workload_profile
from test_dists import brute_force_compound

HORIZONS = (60, 120, 180, 240)
FAMILIES = ("deterministic", "geometric", "mixture")


def service(family: str, chi: float):
    if family == "deterministic":
        return make_deterministic(chi)
    if family == "geometric":
        return make_geometric(chi)
    return make_geometric_mixture(chi, 2.0 * math.sqrt(1.0 - 1.0 / chi))


def solve_grid(game_for) -> dict:
    """Converged equilibria for horizons x service families, of the games
    ``game_for(horizon, x_a, x_b)``."""
    cfg = SolverConfig()
    out = {}
    for horizon in HORIZONS:
        for family in FAMILIES:
            game = game_for(horizon, service(family, 4), service(family, 2))
            pa, pb, rep = iterated_best_response(game, cfg)
            out[horizon, family] = (game, pa, pb, rep)
    return out


@pytest.fixture(scope="module")
def equilibrium_grid():
    """The quick grid: 60 unit slots, populations scaled by 60/horizon."""

    def game(horizon, x_a, x_b):
        lam = 50.0 * 60.0 / horizon
        return SlotGame(lam, lam, 1, 60, x_a, x_b)

    return solve_grid(game)


@pytest.fixture(scope="module")
def fullscale_grid():
    """The paper's grid: 50 arrivals per type, one unit slot per time unit."""
    return solve_grid(lambda h, x_a, x_b: SlotGame(50.0, 50.0, 1, h, x_a, x_b))


@pytest.fixture(scope="module")
def abm_comparison():
    """BR equilibrium, FR equilibrium, and the learning simulation at the
    twenty-slot reference setting with geometric services."""
    cfg = SolverConfig()
    x_a, x_b = make_geometric(4), make_geometric(2)
    game = SlotGame(5.0, 5.0, 3, 20, x_a, x_b)
    br = iterated_best_response(game, cfg)
    sig = SignalParams(10.0, 0.5, 0.9, x_a, x_b)
    fr = solve_fr(sig, 3, 20, cfg)
    abm = run_abm(AbmConfig(sig, tau=3, n_slots=20, pool=40, days=4000, seed=2026))
    return game, br, fr, abm


@pytest.mark.criterion("1 (signal posteriors, exact)")
def test_criterion_1_signal_posteriors():
    sig = SignalParams(10.0, 0.5, 0.9, make_deterministic(4), make_deterministic(2))
    view_a, view_b = posterior_views(sig)
    nu_a, nu_b = view_a.nu, view_b.nu
    assert abs(nu_a[0] - 8.2) <= 1e-12 and abs(nu_a[1] - 1.8) <= 1e-12
    assert abs(nu_b[0] - 1.8) <= 1e-12 and abs(nu_b[1] - 8.2) <= 1e-12
    assert abs(view_a.zeta - 3.8) <= 1e-12
    assert abs(view_b.zeta - 2.2) <= 1e-12


@pytest.mark.criterion("2 (fluid thresholds, exact)")
def test_criterion_2_fluid_thresholds():
    xi = thresholds(FluidParams(50.0, 50.0, 0.25, 0.5, 240.0))
    for got, want in zip(xi, (100.0, 150.0, 200.0, 300.0)):
        assert abs(got - want) <= 1e-12


@pytest.mark.criterion("3 (fluid solutions verified)")
def test_criterion_3_fluid_solutions():
    for mu_b in (1.5, 2.0, 4.0, 8.0):
        params = FluidParams(1.0, 2.0, 1.0, mu_b, 1.0)
        for tag in classify(params):
            eq = solve_case(params, tag)
            violation = verify_fluid(params, eq, 10_000)
            assert violation <= 1e-9, (mu_b, tag, violation)
    eq = solve_case(FluidParams(1.0, 2.0, 1.0, 2.0, 1.0), "ii")
    assert eq.atom_b == 0.5
    assert eq.segments_b[0].start == 0.5


def check_equilibria_valid(grid: dict) -> None:
    for (horizon, family), (game, pa, pb, rep) in grid.items():
        assert rep.converged, (horizon, family, rep)
        assert rep.passes(5e-4), (horizon, family, rep)
        if horizon in (60, 120, 180):
            assert abs(pa.cdf()[0] - 1.0) <= 1e-3, (horizon, family, pa.cdf()[0])


def check_waits_increase_with_cv(grid: dict) -> None:
    for horizon in HORIZONS:
        reps = [grid[horizon, family][3] for family in FAMILIES]
        for attr in ("wbar_a", "wbar_b"):
            w_det, w_geo, w_mix = (getattr(r, attr) for r in reps)
            assert w_det <= w_geo + 1e-9, (horizon, attr)
            assert w_geo <= w_mix + 1e-9, (horizon, attr)
    # strictness at the longest horizon, on the population-average wait
    pop = {}
    for family in FAMILIES:
        game, _, _, rep = grid[240, family]
        pop[family] = (game.lam_a * rep.wbar_a + game.lam_b * rep.wbar_b) / (
            game.lam_a + game.lam_b
        )
    assert pop["geometric"] >= 1.01 * pop["deterministic"]
    assert pop["mixture"] >= 1.01 * pop["geometric"]


@pytest.mark.criterion("4 (discrete equilibrium validity)")
def test_criterion_4_discrete_equilibria(equilibrium_grid):
    check_equilibria_valid(equilibrium_grid)


@pytest.mark.criterion("4 (discrete equilibrium validity, full scale)")
def test_criterion_4_discrete_equilibria_fullscale(fullscale_grid):
    check_equilibria_valid(fullscale_grid)


@pytest.mark.criterion("5 (waits increase with service CV)")
def test_criterion_5_cv_monotonicity(equilibrium_grid):
    check_waits_increase_with_cv(equilibrium_grid)


@pytest.mark.criterion("5 (waits increase with service CV, full scale)")
def test_criterion_5_cv_monotonicity_fullscale(fullscale_grid):
    check_waits_increase_with_cv(fullscale_grid)


@pytest.mark.criterion("6 (compound-Poisson oracle equivalence)")
def test_criterion_6_compound_oracle():
    rng = np.random.default_rng(606)
    for _ in range(20):
        lam = rng.uniform(0.05, 5.0)
        kind = rng.integers(0, 3)
        if kind == 0:
            x = make_deterministic(int(rng.integers(1, 6)))
        elif kind == 1:
            x = make_geometric(rng.uniform(1.0, 5.0))
        else:
            chi = rng.uniform(1.5, 5.0)
            x = make_geometric_mixture(chi, math.sqrt(1 - 1 / chi) * rng.uniform(1.2, 2.5))
        got = compound_poisson(lam, x)
        want = brute_force_compound(lam, x.pmf.mass, len(got) - 1)
        assert np.max(np.abs(got.mass - want)) <= 1e-10


@pytest.mark.criterion("7 (workload recursion vs Monte Carlo)")
def test_criterion_7_workload_vs_monte_carlo():
    rng = np.random.default_rng(707)
    reps = 1_000_000
    for trial in range(5):
        family = FAMILIES[trial % 3]
        belief = "ab"[trial % 2]
        game = SlotGame(5.0, 5.0, 3, 20, service(family, 4), service(family, 2))
        pa = rng.dirichlet(np.ones(20) * 0.5)
        pb = rng.dirichlet(np.ones(20) * 0.5)
        prof = workload_profile(game, pa, pb, belief, mass_tol=1e-9)
        svc = game.service(belief)
        support = np.arange(len(svc.pmf))
        probs = svc.pmf.mass / svc.pmf.total
        loads = 5.0 * pa + 5.0 * pb
        v = np.zeros(reps)
        for t in range(20):
            err = v.mean() - prof.ev[t]
            se = v.std() / math.sqrt(reps)
            assert abs(err) <= max(3 * se, 1e-9), (trial, t, err, se)
            counts = rng.poisson(loads[t], reps)
            jobs = rng.choice(support, size=int(counts.sum()), p=probs)
            slot_work = np.bincount(
                np.repeat(np.arange(reps), counts), weights=jobs, minlength=reps
            )
            v = np.maximum(v + slot_work - 3.0, 0.0)


@pytest.mark.criterion("8 (pathwise coupling dominance)")
def test_criterion_8_coupling_dominance():
    rng = np.random.default_rng(808)
    exponential = FluidParams(5.0, 5.0, 0.25, 0.5, 60.0)
    rep = coupled_dominance(exponential, None, None, 1000, rng)
    assert rep.dominance_holds and rep.paths_checked == 1000
    rng = np.random.default_rng(809)
    control = coupled_dominance(exponential, None, None, 1000, rng, coupled=False)
    assert control.violating_paths >= 1


@pytest.mark.criterion("9 (learning vs equilibrium orderings)")
def test_criterion_9_abm_orderings(abm_comparison):
    game, (pa_br, pb_br, rep_br), (pa_fr, pb_fr, (rep_fr_a, rep_fr_b)), abm = abm_comparison
    assert rep_br.converged and rep_fr_a.converged and rep_fr_b.converged
    # (a) the learning dynamics keep strictly more slots in play
    for i, br_support in enumerate((rep_br.support_a, rep_br.support_b)):
        abm_support = set(np.flatnonzero(abm.pbar[i] > 1e-8))
        assert set(br_support) < abm_support, (i, br_support, abm_support)
    # (b) learning hurts the optimists and helps the pessimists vs BR
    assert abm.wbar_pop[1] > rep_br.wbar_b
    assert abm.wbar_pop[0] <= rep_br.wbar_a
    # (c) the learning outcome is closer to the fully-rational solution
    for i, (p_br, p_fr) in enumerate(((pa_br, pa_fr), (pb_br, pb_fr))):
        d_br = float(np.max(np.abs(np.cumsum(abm.pbar[i]) - p_br.cdf())))
        d_fr = float(np.max(np.abs(np.cumsum(abm.pbar[i]) - p_fr.cdf())))
        assert d_fr < d_br, (i, d_fr, d_br)


@pytest.mark.criterion("10 (determinism of seeded scenarios)")
def test_criterion_10_determinism(tmp_path):
    scenario = """
[scenario]
mode = compare
seed = 12

[signal]
lambda = 4
p = 0.5
q = 0.9

[game]
lambda_a = 2
lambda_b = 2
tau = 3
slots = 6
service = geometric
chi_a = 4
chi_b = 2

[abm]
pool = 10
days = 150
"""
    path = tmp_path / "scenario.ini"
    path.write_text(scenario)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        outs.append(out)
    for csv in ("cdf_br.csv", "cdf_fr.csv", "cdf_abm.csv"):
        assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()
    assert (outs[0] / "summary.txt").read_bytes() == (outs[1] / "summary.txt").read_bytes()


def discrete_fluid_profile(horizon: float, n: int) -> FluidEquilibrium:
    """The discrete equilibrium at scale n as a fluid profile of the
    reference parameters lambda = mu = (1, 2) on [0, horizon].

    Type a has n arrivals and type b 2n, over round(2 n horizon) unit
    slots, with believed services of 2 and 1 slots: a slot is 1/(2n) of
    fluid time, and the beliefs drain 1 and 2 units of mass per unit of
    time. Slot 0 gives the opening atoms; slot s >= 1 with mass p[s]
    gives the segment [s, s + 1) / (2n) at density 2n p[s].
    """
    slots = round(2 * n * horizon)
    game = SlotGame(n, 2 * n, 1, slots, make_deterministic(2), make_deterministic(1))
    pa, pb, rep = iterated_best_response(game, SolverConfig())
    assert rep.converged, (horizon, n)

    def segments(p):
        return tuple(
            Segment(s / (2 * n), (s + 1) / (2 * n), 2 * n * p[s])
            for s in range(1, slots)
            if p[s] > 0
        )

    atom_a, atom_b = pa.probs[0], pb.probs[0]
    return FluidEquilibrium(
        horizon, atom_a, atom_b, segments(pa.probs), segments(pb.probs), (atom_a + 2 * atom_b) / 2
    )


@pytest.mark.criterion("11 (fluid limit of the discrete equilibrium)")
def test_criterion_11_fluid_limit():
    # The bound on violation x N. A slot is a window of 1/(2N) fluid time,
    # and the discrete game equalises waits at slot starts only. Across a
    # window the faced queue moves by the window's arrivals less its drain,
    # and one slot's drain at the faster belief's rate mu_b = 2 is 1/N:
    # that is the scale of the discretisation, C = 1. What the fluid limit
    # drops besides (Poisson noise in the discrete waits, and 2NT rounded
    # to whole slots) is of smaller order: it reads at most 0.03 / N at
    # N = 25, 50 and 100, and the bound leaves a tenth of a slot for it.
    slot_bound = 1.1
    # At T = x3 type a's gain condition binds: its faced queue falls to q0
    # where b's segment starts. So the Poisson noise of the opening cohort
    # no longer averages out; type a's count has standard deviation
    # sqrt(N), 1 / sqrt(N) in fluid mass, and the bound on violation x
    # sqrt(N) is that one standard deviation.
    noise_bound = 1.0
    for horizon in (0.5, 1.0, 1.25, 1.5, 1.75, 2.0):
        params = FluidParams(1.0, 2.0, 1.0, 2.0, horizon)
        (tag,) = classify(params)
        ref = solve_case(params, tag)
        grid = np.linspace(0.0, horizon, 20_001)
        dist = {}
        for n in (25, 100):
            eq = discrete_fluid_profile(horizon, n)
            violation = verify_fluid(params, eq, 20_001)
            if horizon == thresholds(params)[2]:
                assert violation * math.sqrt(n) <= noise_bound, (horizon, n, violation)
            else:
                assert violation * n <= slot_bound, (horizon, n, violation)
            dist[n] = max(float(np.abs(eq.cdf(s, grid) - ref.cdf(s, grid)).max()) for s in "ab")
        # Cases i-iii have one equilibrium, and the discrete one nears it.
        # Here case iv has more than one (solve_case sets non_unique;
        # Juneja and Shimkin 2013 study the same limit for one type), and
        # the discrete limit selects one that is neither closed form: type
        # a's opening atom is about 0.95 at T = 1.75 and about 0.89 at
        # T = 2, against 0.5 and 0 for solve_case's profile and 1 for the
        # second one. So only the violation is checked there.
        if tag == "iv":
            assert ref.non_unique
        else:
            assert dist[100] < dist[25] or dist[25] == dist[100] == 0.0, (horizon, dist)
