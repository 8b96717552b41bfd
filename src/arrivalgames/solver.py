"""Equilibrium computation for the discrete-time arrival game.

A symmetric (within type) equilibrium makes each type's expected wait
constant across its arrival slots and no smaller elsewhere. The fixed
point characterization gives the slot probabilities in closed form from
a candidate equilibrium wait w̄: each slot receives whatever probability
brings its wait up to w̄, clipped at zero. A best response is one
safeguarded secant search for the w̄ whose fill carries unit mass,
warm-started at the previous w̄ of the outer alternation. The solver
alternates best responses between the two types until the pair stops
moving in the sup norm. Any point the alternation converges to is an
equilibrium, which `verify_equilibrium` checks independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import NumericFailure
from .signals import SignalParams, posterior_views
from .workload import (
    ArrivalStrategy,
    SlotGame,
    WorkloadStepper,
    _strategy_probs,
    workload_profile,
)

# Slots with probability at or below this count as off the support.
_MASS_FLOOR = 1e-8
# The reported verification tolerance, and the looser gate at which a
# stalled alternation is accepted, as multiples of eps.
_VERIFY_SCALE = 50.0
_STALL_SCALE = 200.0


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and caps for the best-response solver.

    ``eps`` is the accepted deviation of total strategy mass from one and
    ``delta`` the stopping distance between successive iterates.
    ``verify_tol`` is the reported verification tolerance (50 eps);
    ``stall_tol`` is the looser gate at which a stalled alternation is
    accepted (200 eps), so converged output always verifies at stall_tol.
    ``max_bisect`` caps the fills (bracket doublings and steps) of each
    best response's search on w̄; past it the search raises
    ``NumericFailure``.
    """

    eps: float = 1e-5
    delta: float = 1e-5
    max_outer: int = 500
    max_bisect: int = 200

    def __post_init__(self):
        if self.eps <= 0.0 or self.delta <= 0.0:
            raise ValueError("eps and delta must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """Sup-norm distance between two slot vectors."""
        return float(np.abs(x - y).max())

    @property
    def verify_tol(self) -> float:
        return _VERIFY_SCALE * self.eps

    @property
    def stall_tol(self) -> float:
        return _STALL_SCALE * self.eps


@dataclass
class EquilibriumReport:
    """Verification summary for a strategy pair.

    ``max_support_spread`` is the worst within-support wait spread over the
    two types; ``max_offsupport_violation`` the worst amount by which an
    unused slot beats the equilibrium wait. ``tol`` is the gate the pair
    was checked at and ``passed`` the verdict there; after a solve, the
    gate is ``stall_tol`` when the alternation ended through the stall
    test and ``verify_tol`` otherwise.
    """

    wbar_a: float
    wbar_b: float
    support_a: np.ndarray
    support_b: np.ndarray
    max_support_spread: float
    max_offsupport_violation: float
    iterations: int = 0
    converged: bool = True
    stalled: bool = False
    monotonicity_violations: int = 0
    tol: float = math.inf
    passed: bool = True

    def passes(self, tol: float) -> bool:
        return self.max_support_spread <= tol and self.max_offsupport_violation <= tol


class _ResponseEngine:
    """Workload bookkeeping for one responding type against a fixed
    opponent profile.

    Keeps the own-mass-zero prefix states cached, so every fill replays
    only the slots from its first slot with mass on.
    """

    def __init__(self, game: SlotGame, belief: str, p_minus: np.ndarray):
        self.n = game.n_slots
        self.lam_own = game.own_lam(belief)
        self.chi = game.service(belief).chi
        self.other_load = game.other_lam(belief) * np.asarray(p_minus, dtype=float)
        self.stepper = WorkloadStepper(game.service(belief), game.tau)
        self._prefix = [self.stepper.initial()]
        self.monotonicity_violations = 0

    def prefix_state(self, t: int):
        """Workload state before slot t when the responding type never arrives."""
        while len(self._prefix) <= t:
            u = len(self._prefix) - 1
            self._prefix.append(
                self.stepper.advance(self._prefix[u], self.other_load[u])
            )
        return self._prefix[t]

    def own_zero_wait(self, t: int) -> float:
        return self.stepper.wait(self.prefix_state(t), self.other_load[t])

    def fill(self, wbar: float, mass_cap: float) -> tuple[np.ndarray, float]:
        """Fill every slot from the fixed-point formula at equilibrium wait wbar.

        Each slot receives whatever probability brings its wait up to
        wbar, clipped at zero; slots before the first one whose own-zero
        wait is below wbar stay empty, so the fill starts there from the
        cached prefix state. Stops early once total mass exceeds
        ``mass_cap``, so a returned mass at or below the cap means the fill
        ran to the horizon.
        """
        p = np.zeros(self.n)
        mass = 0.0
        theta = next((t for t in range(self.n) if self.own_zero_wait(t) < wbar), self.n)
        if theta == self.n:
            return p, mass
        state = self.prefix_state(theta)
        for t in range(theta, self.n):
            if t > theta:
                state = self.stepper.advance(state, load)
            raw = (2.0 / self.chi) * (wbar - state.ev) - self.other_load[t]
            p[t] = max(0.0, raw / self.lam_own)
            load = self.lam_own * p[t] + self.other_load[t]
            mass += p[t]
            if mass > mass_cap:
                break
        return p, mass


def _search_wbar(
    engine: _ResponseEngine, eps: float, max_fills: int, guess: float | None
) -> tuple[np.ndarray, float]:
    """Search the equilibrium wait w̄ whose fill carries unit mass; return
    the fill and w̄.

    The mass is zero up to the smallest own-zero wait and grows without
    bound above it, so a bracket always closes. A ``guess`` (the previous
    w̄ of an outer alternation) is tried at w̄(1 ± 1e-6) first. Failing a
    bracket, its lower end is the smallest own-zero wait, and the upper
    end starts chi*lam/2 above the lower end and doubles that increment
    until a fill overfills. Each step is the secant through the last two
    fills that ran to the horizon (an early-stopped fill only bounds the
    mass), or a bisection when that leaves the bracket or the bracket has
    not halved in three steps. The search stops at a mass within
    ``eps * 1e-4`` of one, well inside the acceptance window, so that the
    response is a stable function of its inputs. After ``max_fills``
    fills, or once the bracket closes to float resolution, it accepts a
    mass within eps of one or raises ``NumericFailure``.
    """
    cap, target = 1.0 + eps, min(eps * 1e-4, 1e-9)
    lo, m_lo, hi, m_hi = -math.inf, 0.0, math.inf, math.inf
    recent: list[tuple[float, float]] = []  # the last two fills that ran to the horizon
    warm = [] if guess is None else [guess * (1.0 + 1e-6), guess * (1.0 - 1e-6)]
    step, width, stale = 0.5 * engine.chi * engine.lam_own, math.inf, 0
    p, w, m = None, math.nan, math.nan
    for _ in range(max_fills):
        if warm and hi == math.inf:
            w = warm.pop()
        elif lo == -math.inf:
            w = min(engine.own_zero_wait(t) for t in range(engine.n))
        elif hi == math.inf:
            w, step = lo + step, 2.0 * step
        else:
            if hi - lo <= 0.5 * width:
                width, stale = hi - lo, 0
            else:
                stale += 1
            w = 0.5 * (lo + hi)
            if stale < 3 and len(recent) == 2 and recent[0][1] != recent[1][1]:
                (w1, m1), (w2, m2) = recent
                secant = w2 + (1.0 - m2) * (w2 - w1) / (m2 - m1)
                if lo < secant < hi:
                    w = secant
            if not lo < w < hi:
                break
        p, m = engine.fill(w, cap)
        if m <= cap:
            # Every fill lies inside the bracket, and an upper end that
            # stopped early holds more than the cap: the masses compare.
            if not (m_lo <= m + 1e-12 and m <= m_hi + 1e-12):
                engine.monotonicity_violations += 1
            recent = recent[-1:] + [(w, m)]
        if abs(m - 1.0) < target:
            return p, w
        if m < 1.0:
            lo, m_lo = w, m
        else:
            hi, m_hi = w, m
    if 1.0 - eps < m < cap:
        return p, w
    raise NumericFailure(f"search on the equilibrium wait did not close on unit mass (mass {m!r})")


def best_response(
    p_minus,
    game: SlotGame,
    belief: str,
    eps: float,
    max_bisect: int = 200,
    stats: dict | None = None,
) -> np.ndarray:
    """Symmetric best response of one type to the other type's profile.

    Searches the equilibrium wait w̄ at which the fixed-point fill carries
    unit mass; the returned vector has total mass within eps of one.
    ``max_bisect`` caps the fills of the search.
    ``stats``, when given, accumulates the monotonicity violations and
    carries this type's last w̄ (key ``"wbar_<belief>"``) from one call to
    the next as the search's first guess.
    """
    engine = _ResponseEngine(game, belief, _strategy_probs(p_minus))
    if engine.lam_own == 0.0:
        # A vanishing population does not move the queue: its members all
        # pick the cheapest slot.
        waits = [engine.own_zero_wait(t) for t in range(engine.n)]
        p = np.zeros(engine.n)
        p[int(np.argmin(waits))] = 1.0
        return p
    if stats is None:
        stats = {}
    key = f"wbar_{belief}"
    p, stats[key] = _search_wbar(engine, eps, max_bisect, stats.get(key))
    stats["monotonicity_violations"] = (
        stats.get("monotonicity_violations", 0) + engine.monotonicity_violations
    )
    return p


def verify_equilibrium(game: SlotGame, p_a, p_b, tol: float) -> EquilibriumReport:
    """Check the constant-wait conditions for a strategy pair.

    The equilibrium wait per type is the mass-weighted average wait; the
    report carries the within-support spread and the worst off-support
    improvement, and ``passes(tol)`` requires both below tol.
    """
    pa, pb = _strategy_probs(p_a), _strategy_probs(p_b)
    out = {}
    for belief, probs in (("a", pa), ("b", pb)):
        prof = workload_profile(game, pa, pb, belief, mass_tol=1e-3)
        support = np.flatnonzero(probs > _MASS_FLOOR)
        off = np.flatnonzero(probs <= _MASS_FLOOR)
        wbar = float(probs @ prof.w) / float(probs.sum())
        spread = float(prof.w[support].max() - prof.w[support].min()) if support.size else 0.0
        viol = float(max(0.0, (wbar - prof.w[off]).max())) if off.size else 0.0
        out[belief] = (wbar, support, spread, viol)
    report = EquilibriumReport(
        wbar_a=out["a"][0],
        wbar_b=out["b"][0],
        support_a=out["a"][1],
        support_b=out["b"][1],
        max_support_spread=max(out["a"][2], out["b"][2]),
        max_offsupport_violation=max(out["a"][3], out["b"][3]),
        tol=tol,
    )
    report.passed = report.passes(tol)
    return report


def iterated_best_response(
    game: SlotGame, cfg: SolverConfig = SolverConfig()
) -> tuple[ArrivalStrategy, ArrivalStrategy, EquilibriumReport]:
    """Alternate best responses from the all-at-opening start until the
    pair stops moving, then verify.

    When both types keep positive mass in shared slots only their joint
    load is pinned down, and the plain alternation can drift along that
    continuum of near-equilibria at a roughly constant step size without
    the iterate distance ever reaching ``delta``. A stalled distance
    sequence therefore also stops the loop, but only once the current
    pair independently verifies as an equilibrium at ``stall_tol``.

    Non-convergence within ``cfg.max_outer`` rounds is reported, not
    raised; the report's ``converged`` flag and verification numbers let
    the caller decide.
    """
    n = game.n_slots
    pa = np.zeros(n)
    pa[0] = 1.0
    pb = pa.copy()
    # This solve's own: it carries each type's last w̄ into its next response.
    stats: dict = {}
    converged = False
    stalled = False
    iterations = 0
    delta_checkpoint = math.inf
    for iterations in range(1, cfg.max_outer + 1):
        pa_next = best_response(pb, game, "a", cfg.eps, cfg.max_bisect, stats)
        pb_next = best_response(pa_next, game, "b", cfg.eps, cfg.max_bisect, stats)
        delta = max(cfg.distance(pa_next, pa), cfg.distance(pb_next, pb))
        pa, pb = pa_next, pb_next
        if delta < cfg.delta:
            converged = True
            break
        if iterations % 25 == 0:
            if delta > 0.5 * delta_checkpoint:
                probe = verify_equilibrium(
                    game,
                    ArrivalStrategy(pa).normalized(),
                    ArrivalStrategy(pb).normalized(),
                    cfg.stall_tol,
                )
                if probe.passes(cfg.stall_tol):
                    converged = True
                    stalled = True
                    break
            delta_checkpoint = delta
    sa = ArrivalStrategy(pa).normalized()
    sb = ArrivalStrategy(pb).normalized()
    report = verify_equilibrium(game, sa, sb, cfg.stall_tol if stalled else cfg.verify_tol)
    report.iterations = iterations
    report.converged = converged
    report.stalled = stalled
    report.monotonicity_violations = stats.get("monotonicity_violations", 0)
    return sa, sb, report


def solve_fr(
    params: SignalParams,
    tau: int,
    n_slots: int,
    cfg: SolverConfig = SolverConfig(),
) -> tuple[ArrivalStrategy, ArrivalStrategy, tuple[EquilibriumReport, EquilibriumReport]]:
    """Fully-rational equilibrium: each signal's game is solved under its
    own posterior population split and the shared posterior service pair;
    the a-strategy is taken from the signal-a game, the b-strategy from
    the signal-b game."""
    view_a, view_b = posterior_views(params)
    game_a = SlotGame(view_a.nu[0], view_a.nu[1], tau, n_slots, view_a.z, view_b.z)
    game_b = SlotGame(view_b.nu[0], view_b.nu[1], tau, n_slots, view_a.z, view_b.z)
    pa_hat, _, rep_a = iterated_best_response(game_a, cfg)
    _, pb_hat, rep_b = iterated_best_response(game_b, cfg)
    return pa_hat, pb_hat, (rep_a, rep_b)
