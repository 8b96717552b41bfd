"""Equilibrium computation for the discrete-time arrival game.

A symmetric (within type) equilibrium makes each type's expected wait
constant across its arrival slots and no smaller elsewhere. The fixed
point characterization gives, for a candidate equilibrium wait, the slot
probabilities in closed form once the start slot and its atom are known.
The solver scans the start slots in order; a slot qualifies when arriving
there beats every earlier slot. A qualifying slot whose fill from a zero
atom already carries more than unit mass is rejected after that one
fill; at the first one that is not, the solver bisects on the atom until
the filled vector carries unit mass. It alternates best responses
between the two types until the pair stops moving in the sup norm. Any
point the alternation converges to is an equilibrium, which
`verify_equilibrium` checks independently.
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


class InfeasibleResponseError(RuntimeError):
    """No start slot admits a valid best-response distribution."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and caps for the best-response solver.

    ``eps`` is the accepted deviation of total strategy mass from one and
    ``delta`` the stopping distance between successive iterates.
    ``verify_tol`` is the reported verification tolerance (50 eps);
    ``stall_tol`` is the looser gate at which a stalled alternation is
    accepted (200 eps), so converged output always verifies at stall_tol.
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

    Keeps the own-mass-zero prefix states cached so the start-slot scan
    and every bisection trial replay only the slots they change.
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

    def fill(self, theta: int, atom: float, mass_cap: float) -> tuple[np.ndarray, float]:
        """Fill slots after theta from the fixed-point formula.

        The candidate equilibrium wait is the wait at theta given the atom;
        each later slot receives whatever probability equalizes its wait,
        clipped at zero. Stops early once total mass exceeds ``mass_cap``,
        so a returned mass at or below the cap means the fill ran to the
        horizon.
        """
        p = np.zeros(self.n)
        p[theta] = atom
        state = self.prefix_state(theta)
        load = self.lam_own * atom + self.other_load[theta]
        wbar = self.stepper.wait(state, load)
        mass = atom
        for t in range(theta + 1, self.n):
            state = self.stepper.advance(state, load)
            raw = (2.0 / self.chi) * (wbar - state.ev) - self.other_load[t]
            p[t] = max(0.0, raw / self.lam_own)
            load = self.lam_own * p[t] + self.other_load[t]
            mass += p[t]
            if mass > mass_cap:
                break
        return p, mass


def _bisect_tail(
    engine: _ResponseEngine, theta: int, eps: float, max_iter: int
) -> np.ndarray | None:
    """Bisection on the atom at the start slot until the filled strategy
    carries unit mass.

    The zero atom is filled first: when it already carries more than unit
    mass, no response starts at theta and the search returns None after
    that one fill. Otherwise the atom is halved from 1/2 within [0, 1],
    with the upper end's mass unknown until a trial overfills.

    Success requires the total within eps of one; internally the search
    pushes well past that (down to ``eps * 1e-4``) so that the response is
    a stable function of its inputs and the outer alternation does not
    rattle around inside the acceptance window.
    """
    cap = 1.0 + eps
    target = min(eps * 1e-4, 1e-9)
    _, m_lo = engine.fill(theta, 0.0, cap)
    if m_lo > 1.0:
        return None
    a_lo, a_mid, a_hi, m_hi = 0.0, 0.5, 1.0, math.inf
    p_mid, m_mid = engine.fill(theta, a_mid, cap)
    for _ in range(max_iter):
        if abs(m_mid - 1.0) < target:
            return p_mid
        # The lower end always ran to the horizon (its mass is below one),
        # and an upper end that stopped early holds more than the cap, so
        # the masses are comparable whenever the mid fill ran to the horizon.
        if m_mid <= cap and not (m_lo <= m_mid + 1e-12 and m_mid <= m_hi + 1e-12):
            engine.monotonicity_violations += 1
        if m_mid < 1.0:
            a_lo, m_lo = a_mid, m_mid
        else:
            a_hi, m_hi = a_mid, m_mid
        if a_hi - a_lo < 1e-15:
            break
        a_mid = 0.5 * (a_lo + a_hi)
        p_mid, m_mid = engine.fill(theta, a_mid, cap)
    if 1.0 - eps < m_mid < cap:
        return p_mid
    raise NumericFailure(f"atom bisection at slot {theta} did not close on unit mass")


def best_response(
    p_minus,
    game: SlotGame,
    belief: str,
    eps: float,
    max_bisect: int = 200,
    stats: dict | None = None,
) -> np.ndarray:
    """Symmetric best response of one type to the other type's profile.

    Scans candidate start slots in order; a slot qualifies when arriving
    there (with no own-type mass anywhere) beats every earlier slot, and
    is accepted when the atom bisection closes on unit mass. The returned
    vector has total mass within eps of one.
    """
    engine = _ResponseEngine(game, belief, _strategy_probs(p_minus))
    if engine.lam_own == 0.0:
        # A vanishing population does not move the queue: its members all
        # pick the cheapest slot.
        waits = [engine.own_zero_wait(t) for t in range(engine.n)]
        p = np.zeros(engine.n)
        p[int(np.argmin(waits))] = 1.0
        return p
    w_min = math.inf
    for theta in range(engine.n):
        w_start = engine.own_zero_wait(theta)
        if w_start < w_min:
            w_min = w_start
            p = _bisect_tail(engine, theta, eps, max_bisect)
            if p is not None:
                if stats is not None:
                    stats["monotonicity_violations"] = (
                        stats.get("monotonicity_violations", 0)
                        + engine.monotonicity_violations
                    )
                return p
    raise InfeasibleResponseError(f"no start slot admits a response for type {belief}")


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
