"""Equilibrium computation for the discrete-time arrival game.

A symmetric (within type) equilibrium makes each type's expected wait
constant across its arrival slots and no smaller elsewhere. The fixed
point characterization gives the slot probabilities in closed form from
a candidate equilibrium wait w̄: each slot receives whatever probability
brings its wait up to w̄, clipped at zero. A best response is one
safeguarded secant search for the w̄ whose fill carries unit mass. Within
an outer alternation it starts with a fill at the type's previous w̄ and
a Newton step with the last secant slope of mass in w̄. The solver
alternates best responses between the two types until the pair stops
moving in the sup norm at a pair that `verify_equilibrium` accepts with
margin. An alternation that stops contracting is finished by one joint
solve of both equilibrium waits, which also picks the slots the two
types share.
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
    _as_probs,
    _count,
    workload_profile,
)

# Slots with probability at or below this count as off the support.
_MASS_FLOOR = 1e-8
# The reported verification tolerance, as a multiple of eps.
_VERIFY_SCALE = 50.0
# Margins of the drift bound of `_ResponseEngine`: a relative loss of the
# workload mean per slot of the horizon, and an absolute one per slot per
# unit of (1 + tau). On the benchmark's and the full-scale games a step
# falls short of the bound by at most 5e-14 relative and 2e-11 absolute.
_DRIFT_REL = 1e-9
_DRIFT_ABS = 1e-9
# A search's fill runs to the horizon, so that its mass is exact, unless
# the mass passes one by more than this (or eps); a joint fill, unless
# its total mass does.
_EXACT_SPAN = 0.5
# The fewest rounds between two calls of the joint finisher. Odd, so that
# the retries of a period-2 cycle alternate between its two states.
_RETRY_ROUNDS = 11


def _check_search(eps: float, max_bisect: int) -> int:
    """A best response's search needs a finite positive ``eps`` and a
    positive integer ``max_bisect``, else ``ValueError`` (NaN and infinity
    included). Returns ``max_bisect`` as an int."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return _count(max_bisect, "max_bisect")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and caps for the best-response solver.

    ``eps``, positive and finite, is the accepted deviation of total
    strategy mass from one, and the step between successive iterates
    below which a solve checks its pair at verify_tol / 10 to converge.
    ``verify_tol`` is the reported verification tolerance (50 eps).
    ``max_bisect`` caps the steps of each best response's search on w̄:
    its fills and the one step that sets its bracket's lower end at 0;
    past it the search raises ``NumericFailure``. Both caps must be
    positive integers (integral floats pass and are stored as ints). A
    setting out of range, NaN included, raises ``ValueError``.
    """

    eps: float = 1e-5
    max_outer: int = 500
    max_bisect: int = 200

    def __post_init__(self):
        object.__setattr__(self, "max_bisect", _check_search(self.eps, self.max_bisect))
        object.__setattr__(self, "max_outer", _count(self.max_outer, "max_outer"))

    @property
    def verify_tol(self) -> float:
        return _VERIFY_SCALE * self.eps


@dataclass
class EquilibriumReport:
    """Verification summary for a strategy pair.

    ``max_support_spread`` is the worst within-support wait spread over the
    two types; ``max_offsupport_violation`` the worst amount by which an
    unused slot beats the equilibrium wait. ``tol`` is the gate the pair
    was checked at and ``passed`` the verdict there; after a solve, the
    gate is ``verify_tol``. ``stalled`` is always False: it is kept only
    for the benchmark, which reads it.
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

    Keeps the own-mass-zero prefix states cached: every fill walks them
    to its first slot with mass, crossing the runs of slots without
    opponent load that the drift bound rules out, and replays only the
    slots from there on.

    A drift bound, built once per response from the opponent's loads,
    rules slots out without stepping to them. A step's workload mean obeys
    E[(V + A - tau)^+] >= E[V] + m E[N] - tau, with m the mean of the
    truncated jump law the kernel adds, and the own type's arrivals only
    raise it. So from a state of mean ``ev`` at slot t, a later slot s has
    an own-zero wait of at least
    ``shrink * ev - reach[t] + reach[s] + chi/2 other_load[s]``, where
    ``reach[s]`` sums ``shrink * m * other_load - tau - margin`` over the
    slots before s, and ``later[t]`` is the least of the last two terms
    over s > t. The margins, ``1 - shrink = _DRIFT_REL (n + 1)`` relative
    and ``_DRIFT_ABS (1 + tau)`` per slot, cover the kernel's truncation
    dust (lost mass scales the mean down, a dropped first moment shifts
    it) and the rounding of the means: the floor holds for the computed
    means, and a slot it rules out takes exactly no mass.
    """

    def __init__(self, game: SlotGame, belief: str, p_minus: np.ndarray):
        self.n = game.n_slots
        self.lam_own = game.own_lam(belief)
        service = game.service(belief)
        self.chi = service.chi
        other = game.other_lam(belief) * np.asarray(p_minus, dtype=float)
        self.other_load = other.tolist()
        self.stepper = WorkloadStepper(service, game.tau)
        self._prefix = {0: self.stepper.initial()}
        # The last slot before each slot with opponent load, or the opening.
        last = np.maximum.accumulate(np.where(other > 0.0, np.arange(self.n), 0))
        self._from = [0] + last[:-1].tolist()
        self._shrink = 1.0 - _DRIFT_REL * (self.n + 1)
        drift = (self._shrink * service.pmf.mean()) * other - (
            game.tau + _DRIFT_ABS * (1.0 + game.tau)
        )
        reach = np.cumsum(drift) - drift
        later = np.minimum.accumulate((reach + (0.5 * self.chi) * other)[::-1])
        self._reach = reach.tolist()
        self._later = later[-2::-1].tolist() + [math.inf]

    def prefix_state(self, t: int):
        """Workload state before slot t when the responding type never arrives.

        One advance from the state at the last slot before t with opponent
        load, or the opening, drains each idle run at once; as only those
        states are stepped from, a state does not depend on which states
        were asked for before."""
        chain = []
        while t not in self._prefix:
            chain.append(t)
            t = self._from[t]
        state = self._prefix[t]
        for s in reversed(chain):
            u = state.slot
            state = self.stepper.advance(state, self.other_load[u], s - u)
            self._prefix[s] = state
        return state

    def _rest(self, t: int, ev: float, wbar: float) -> float:
        """From a state of mean ``ev`` at slot t, a later slot s can have an
        own-zero wait below wbar only if ``reach[s] + chi/2 other_load[s]``
        is below this; no later slot can once ``later[t]`` is not."""
        return wbar - self._shrink * ev + self._reach[t]

    def _cross(self, t: int, rest: float) -> int:
        """The first slot after t with opponent load or an own-zero floor
        ``reach[s]`` below ``rest``: the idle slots between take no mass.
        It lies before n when ``later[t] < rest``."""
        s = t + 1
        while self.other_load[s] == 0.0 and self._reach[s] >= rest:
            s += 1
        return s

    def fill(self, wbar: float, mass_cap: float) -> tuple[np.ndarray, float]:
        """Fill every slot from the fixed-point formula at equilibrium wait wbar.

        Each slot receives whatever probability brings its wait up to
        wbar, clipped at zero; slots before the first one whose own-zero
        wait is below wbar stay empty, so the fill walks the prefix states
        to it and starts there. Stops early once total mass exceeds
        ``mass_cap``, so a returned mass at or below the cap means the fill
        ran to the horizon.

        The drift bound of the class, E[(V + A - tau)^+] >= E[V] + m E[N]
        - tau less its margin for truncation dust, skips slots that take
        exactly no mass: the walk or the fill ends once no later slot's
        floor is below wbar, and both cross a run of slots without
        opponent load whose floors are at or above wbar in one drain.
        """
        p = np.zeros(self.n)
        mass = 0.0
        lam, other, later = self.lam_own, self.other_load, self._later
        t, state = 0, self.prefix_state(0)
        while self.stepper.wait(state, other[t]) >= wbar:
            rest = self._rest(t, state.ev, wbar)
            if later[t] >= rest:
                return p, mass
            t = self._cross(t, rest)
            state = self.prefix_state(t)
        while True:
            raw = (2.0 / self.chi) * (wbar - state.ev) - other[t]
            p[t] = max(0.0, raw / lam)
            load = lam * p[t] + other[t]
            mass += p[t]
            if mass > mass_cap:
                break
            rest = self._rest(t, state.ev, wbar)
            if later[t] >= rest:  # always at t = n - 1, where later is inf
                break
            s = self._cross(t, rest)
            state = self.stepper.advance(state, load, s - t)
            t = s
        return p, mass


@dataclass
class _Warm:
    """One type's search state, carried from one of its best responses to
    the next within a solve: the last w̄ and the last secant slope of mass
    in w̄ (None before a search has set them), the stop on |mass - 1|
    (None for the default) and the count of monotonicity violations."""

    wbar: float | None = None
    slope: float | None = None
    target: float | None = None
    violations: int = 0


def _search_wbar(engine: _ResponseEngine, eps: float, max_fills: int, warm: _Warm) -> np.ndarray:
    """Search the equilibrium wait w̄ whose fill carries unit mass; return
    the fill, and leave w̄ and the slope of mass in w̄ on ``warm``.

    The mass is zero up to the smallest own-zero wait and grows without
    bound above it, so a bracket always closes. The previous w̄ in
    ``warm``, if any, is filled first, to the horizon. Every later step
    is a Newton step from the last fill that ran to the horizon, with the
    secant slope through the last two such fills, or, before there are
    two, with the previous search's last slope in ``warm``. A step may
    extrapolate into a side of the bracket that is still open. The search
    falls back when a step leaves the bracket, when there is none, or
    when |mass - 1| has not halved in two fills: to w̄ = 0 (mass 0, as no
    wait is negative) while the bracket has no lower end, then to chi*lam/2
    above the lower end, doubling that increment, while it has no upper
    end, and to bisection once it has both. Other fills stop early only
    once their mass passes one by more than ``_EXACT_SPAN`` (or eps), so
    fills near the root are exact and serve the secant; an early-stopped
    fill only bounds its mass from below, and monotonicity is checked
    between exact masses alone, a violation counted on ``warm``. It stops
    at a mass within ``warm.target`` of one, by default min(eps * 1e-4,
    1e-9), well inside the acceptance window, so that the response is a
    stable function of its inputs. After ``max_fills`` steps, or once the
    bracket closes to float resolution, it accepts a mass within eps of
    one or raises ``NumericFailure``.
    """
    target = min(eps * 1e-4, 1e-9) if warm.target is None else warm.target
    guess, slope = warm.wbar, warm.slope
    lo, m_lo, hi, m_hi = -math.inf, 0.0, math.inf, math.inf  # m_hi is inf unless exact
    last = None  # the last fill that ran to the horizon, as (w̄, mass)
    resid: list[float] = []  # |mass - 1| of every fill
    increment = 0.5 * engine.chi * engine.lam_own
    p, w, m = None, math.nan, math.nan
    for _ in range(max_fills):
        if guess is not None:
            w, guess, cap = guess, None, math.inf
        else:
            cap = 1.0 + max(eps, _EXACT_SPAN)
            # A secant step is a Newton step with the latest secant slope.
            # A slope that is 0, negative, nan or inf gives no step inside
            # the bracket.
            w = last[0] + (1.0 - last[1]) / slope if last and slope else math.nan
            stalled = len(resid) > 2 and resid[-1] > 0.5 * resid[-3]
            if stalled or not lo < w < hi:
                if lo == -math.inf:
                    # No wait is negative, so mass 0 is exact at w̄ = 0,
                    # which lies below every fill that carries mass.
                    lo = 0.0
                    if last:
                        slope = last[1] / last[0]
                    last = (lo, m_lo)
                    continue
                if hi == math.inf:
                    w, increment = lo + increment, 2.0 * increment
                else:
                    w = 0.5 * (lo + hi)
                if not lo < w < hi:
                    break
        p, m = engine.fill(w, cap)
        resid.append(abs(m - 1.0))
        if m <= cap:
            # Each fill but the first lies strictly inside the bracket,
            # whose ends hold exact masses (or inf): they compare, and the
            # secant has a width.
            if not (m_lo <= m + 1e-12 and m <= m_hi + 1e-12):
                warm.violations += 1
            if last:
                secant = (m - last[1]) / (w - last[0])
                if 0.0 < secant < math.inf:
                    slope = secant
            last = (w, m)
        if resid[-1] < target:
            break
        if m < 1.0:
            lo, m_lo = w, m
        else:
            hi, m_hi = w, (m if m <= cap else math.inf)
    if 1.0 - eps < m < 1.0 + eps:
        warm.wbar, warm.slope = w, slope
        return p
    raise NumericFailure(f"search on the equilibrium wait did not close on unit mass (mass {m!r})")


def best_response(
    p_minus,
    game: SlotGame,
    belief: str,
    eps: float,
    max_bisect: int = SolverConfig.max_bisect,
    warm: _Warm | None = None,
) -> np.ndarray:
    """Symmetric best response of one type to the other type's profile.

    Searches the equilibrium wait w̄ at which the fixed-point fill carries
    unit mass; the returned vector has total mass within eps of one.
    ``max_bisect`` caps the steps of the search, as in ``SolverConfig``.
    ``warm`` is the solver's record of this type's previous search in an
    outer alternation; a direct call leaves it out and starts cold.

    Inputs are checked before any fill. ``p_minus``, an array-like or an
    ``ArrivalStrategy``, must have ``game.n_slots`` finite entries, none
    below -1e-12, else ``InvalidStrategyError``; its mass is not checked,
    so ``np.zeros(n)`` stands for an absent opponent. ``belief`` must be
    "a" or "b", ``eps`` positive and finite and ``max_bisect`` a positive
    integer, else ``ValueError``.
    """
    max_bisect = _check_search(eps, max_bisect)
    engine = _ResponseEngine(game, belief, _as_probs(p_minus, game.n_slots, math.inf))
    if engine.lam_own == 0.0:
        # A vanishing population does not move the queue: its members all
        # pick the first slot with the smallest own-zero wait.
        waits = [engine.stepper.wait(engine.prefix_state(t), load)
                 for t, load in enumerate(engine.other_load)]
        p = np.zeros(engine.n)
        p[int(np.argmin(waits))] = 1.0
        return p
    return _search_wbar(engine, eps, max_bisect, _Warm() if warm is None else warm)


def verify_equilibrium(game: SlotGame, p_a, p_b, tol: float) -> EquilibriumReport:
    """Check the constant-wait conditions for a strategy pair.

    The equilibrium wait per type is the mass-weighted average wait; the
    report carries the within-support spread and the worst off-support
    improvement, and ``passes(tol)`` requires both below tol.

    ``p_a`` and ``p_b``, array-likes or ``ArrivalStrategy`` objects, must
    have ``game.n_slots`` finite entries, none below -1e-12, and a mass
    within 1e-3 of one, else ``InvalidStrategyError``.
    """
    # workload_profile checks the length and mass of both vectors.
    pa, pb = ArrivalStrategy(p_a).probs, ArrivalStrategy(p_b).probs
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


def _joint_fill(
    game: SlotGame, wbar_a: float, wbar_b: float, shared: tuple[int, ...] | list[int] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Fill every slot from both equilibrium waits in one forward pass.

    Slot t takes the joint load L_t = max(0, (2/chi_a)(wbar_a - ev_a,t),
    (2/chi_b)(wbar_b - ev_b,t)), with each type's mean workload from its
    own stepper, so every slot's wait is at least w̄ for both types, and
    equal to it for the one whose term is larger, which owns the slot.
    The slots in ``shared`` take the mean of the two terms instead, which
    keeps the total load smooth in both waits. Stops once the total load
    passes (1 + ``_EXACT_SPAN``) (lam_a + lam_b). Returns the loads and
    the gaps of a's term over b's: a slot is a's where its gap is at
    least zero."""
    n, cap = game.n_slots, (1.0 + _EXACT_SPAN) * (game.lam_a + game.lam_b)
    step_a, step_b = (WorkloadStepper(game.service(x), game.tau) for x in "ab")
    scale_a, scale_b = 2.0 / step_a.service.chi, 2.0 / step_b.service.chi
    load, gap = np.zeros(n), np.zeros(n)
    state_a, state_b = step_a.initial(), step_b.initial()
    total = 0.0
    for t in range(n):
        term_a, term_b = scale_a * (wbar_a - state_a.ev), scale_b * (wbar_b - state_b.ev)
        gap[t] = term_a - term_b
        load[t] = max(0.0, 0.5 * (term_a + term_b) if t in shared else max(term_a, term_b))
        total += load[t]
        if total > cap or t + 1 == n:
            break
        state_a, state_b = step_a.advance(state_a, load[t]), step_b.advance(state_b, load[t])
    return load, gap


def _finish(
    game: SlotGame, wbar: tuple[float, float], eps: float, budget: int
) -> np.ndarray | None:
    """Solve both equilibrium waits at once, from ``wbar``, by Broyden's
    (1965) method on the joint fill. Returns the pair (one row per type)
    with both masses within eps of one, or None when that fails within
    ``budget`` joint fills.

    Every joint fill meets both types' wait conditions (a complementarity
    point given the waits), so only the masses and the shared slots are
    left. The residuals are the total load / (lam_a + lam_b) - 1 and a's
    owned mass - 1 or, once slots are shared, their mean gap over lam_a +
    lam_b; a's leftover mass is split over them in proportion to load.
    The search stops once both are below min(1e-4 eps, 1e-9). Before the
    first step, the loaded slots whose gaps lie within 20 eps / max(chi_a,
    chi_b) of the gap nearest zero are shared if there are two or more: a
    wait on a shared slot of gap g is off its w̄ by chi |g| / 4, so by at
    most 5 eps. The first Jacobian takes two forward differences. a's
    mass jumps where a slot with load changes owner, so such a step leaves
    the Jacobian as it is. A step that changes the sign of a's residual
    through one such slot makes it shared, with the gap's forward
    differences as the first row; through several, it is cut to pass only
    the first, by the gaps' linear interpolation, and slots whose gaps
    would change sign together make the search give up, as do a total
    load past the fill's cap and a singular Jacobian. When the residuals
    close on a's share of the set below zero or above its load / lam_a,
    the set moves to the loaded slot on the over-served type's side whose
    gap is nearest zero (one active-set change per step; Nocedal and
    Wright 2006, ch. 16)."""
    lam_a, lam = game.lam_a, game.lam_a + game.lam_b
    shared: list[int] = []

    def residual(w: np.ndarray):
        load, gap = _joint_fill(game, w[0], w[1], shared)
        first = gap[shared].mean() / lam if shared else load[gap >= 0.0].sum() / lam_a - 1.0
        return np.array([first, load.sum() / lam - 1.0]), load, gap

    w = np.array(wbar)
    f, load, gap = residual(w)
    if f[1] > _EXACT_SPAN:
        return None
    fills = 3
    near = gap[np.argmin(np.where(load > 0.0, np.abs(gap), np.inf))]
    band = 20.0 * eps / max(game.x_a.chi, game.x_b.chi)
    block = np.flatnonzero((load > 0.0) & (np.abs(gap - near) <= band))
    if block.size > 1:
        shared = block.tolist()
        f, load, gap = residual(w)
        fills += 1
    jac, slope = np.empty((2, 2)), np.empty((game.n_slots, 2))
    for i in range(2):
        h = 1e-7 * (1.0 + w[i])
        f_h, _, gap_h = residual(w + h * np.eye(2)[i])
        jac[:, i], slope[:, i] = (f_h - f) / h, (gap_h - gap) / h
    dw = None
    while True:
        closed = np.abs(f).max() < min(eps * 1e-4, 1e-9)
        if closed:
            own = gap >= 0.0
            own[shared] = False
            pair = np.zeros((2, game.n_slots))
            pair[0, own], pair[1, ~own] = load[own] / lam_a, load[~own] / game.lam_b
            pair[0, shared] = (1.0 - pair[0].sum()) * (load[shared] / load[shared].sum())
            pair[1, shared] = (load[shared] - lam_a * pair[0, shared]) / game.lam_b
            if pair[:, shared].min(initial=0.0) >= 0.0:
                break
        if fills >= budget:
            return None
        fills += 1
        if closed:
            side = (gap >= 0.0) if pair[0, shared].min() < 0.0 else (gap < 0.0)
            side[shared] = False
            moves = np.flatnonzero(side & (load > 0.0))
            if not moves.size:
                return None
            shared = [int(moves[np.argmin(np.abs(gap[moves]))])]
            f, load, gap = residual(w)
            jac[0] = slope[shared[0]] / lam
            continue
        if dw is None:
            # The Newton step with the 2 x 2 Jacobian, in closed form.
            det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
            if not det:
                return None
            dw = np.array([jac[0, 1] * f[1] - jac[1, 1] * f[0],
                           jac[1, 0] * f[0] - jac[0, 0] * f[1]]) / det
        f_new, load_new, gap_new = residual(w + dw)
        if f_new[1] > _EXACT_SPAN:
            return None
        flips = np.flatnonzero(((gap_new >= 0.0) != (gap >= 0.0)) & (load > 0.0) & (load_new > 0.0))
        if not shared and flips.size and f[0] * f_new[0] < 0.0:
            if flips.size > 1:
                theta = np.sort(gap[flips] / (gap[flips] - gap_new[flips]))
                if not theta[1] - theta[0] > 1e-9:
                    return None
                dw = 0.5 * (theta[0] + theta[1]) * dw
                continue
            shared = [int(flips[0])]
            f[0], f_new[0] = (g[shared[0]] / lam for g in (gap, gap_new))
            jac[0] = slope[shared[0]] / lam
        if shared or not flips.size:
            jac += np.outer(f_new - f - jac @ dw, dw) / (dw @ dw)
        w, f, load, gap, dw = w + dw, f_new, load_new, gap_new, None
    return pair if np.abs(pair.sum(axis=1) - 1.0).max() < eps else None


def iterated_best_response(
    game: SlotGame, cfg: SolverConfig = SolverConfig()
) -> tuple[ArrivalStrategy, ArrivalStrategy, EquilibriumReport]:
    """Alternate best responses from the all-at-opening start until the
    pair stops moving at an equilibrium.

    With both supports fixed, each response sets the joint load
    lambda_a p_a + lambda_b p_b on its own support from its w̄ and the
    earlier loads alone, so it is affine in the opponent's vector with
    slope -lambda_opp / lambda_own. Where the supports share two or more
    slots the two types ask for different joint loads there, and each
    round shifts the split in those slots by the same step until a slot
    empties: the plain alternation drifts, or cycles, without its
    distance falling below ``eps``. A round that moves the pair by less
    than ``eps`` has the pair verified, and the solve converges only on a
    pair that passes at ``verify_tol / 10`` (a wait moves by about lambda
    chi / 2 times a step in probability); that check is its report, at
    gate ``verify_tol``.

    Each type carries one fresh ``_Warm`` record through its responses of
    a solve. Its target stops the first round's responses to the
    arbitrary start, which the second round overwrites, at |mass - 1| <
    0.1 eps (inexact Newton, Dembo, Eisenstat and Steihaug 1982); later
    ones close as a direct call does.

    A round whose step is more than half the step two rounds before calls
    the joint finisher from both types' last w̄, with a budget of two joint
    fills per round so far, unless the finisher ran fewer than
    ``_RETRY_ROUNDS`` rounds ago. It shares a single slot or a block of
    slots, and moves a shared slot whose split comes out of range. Its
    pair replaces the alternation's only if it passes at ``verify_tol /
    10``, and that check is the report; otherwise the alternation carries
    on as before.

    Non-convergence within ``cfg.max_outer`` rounds is reported, not
    raised: the last pair is verified at ``verify_tol`` and reported with
    ``converged`` False, so a converged report always has ``passed``.
    """
    pair = np.zeros((2, game.n_slots))
    pair[:, 0] = 1.0
    warm_a, warm_b = _Warm(target=0.1 * cfg.eps), _Warm(target=0.1 * cfg.eps)

    def verified(p, tol: float) -> tuple[ArrivalStrategy, ArrivalStrategy, EquilibriumReport]:
        sa, sb = ArrivalStrategy(p[0]).normalized(), ArrivalStrategy(p[1]).normalized()
        return sa, sb, verify_equilibrium(game, sa, sb, tol)

    two_back = one_back = math.inf  # the steps of the two rounds before
    last_finish = -_RETRY_ROUNDS
    for iterations in range(1, cfg.max_outer + 1):
        pa = best_response(pair[1], game, "a", cfg.eps, cfg.max_bisect, warm_a)
        pb = best_response(pa, game, "b", cfg.eps, cfg.max_bisect, warm_b)
        warm_a.target = warm_b.target = None
        prev, pair = pair, np.stack((pa, pb))
        delta = float(np.abs(pair - prev).max())
        # A check that stops the loop is the solve's report.
        if delta < cfg.eps:
            sa, sb, report = verified(pair, cfg.verify_tol)
            if report.passes(0.1 * cfg.verify_tol):
                break
        slow = delta > 0.5 * two_back and iterations - last_finish >= _RETRY_ROUNDS
        two_back, one_back = one_back, delta
        if slow and None not in (warm_a.wbar, warm_b.wbar):
            last_finish = iterations
            joint = _finish(game, (warm_a.wbar, warm_b.wbar), cfg.eps, 2 * iterations)
            if joint is not None:
                sa, sb, report = verified(joint, cfg.verify_tol)
                if report.passes(0.1 * cfg.verify_tol):
                    break
    else:
        sa, sb, report = verified(pair, cfg.verify_tol)
        report.converged = False
    report.iterations = iterations
    report.monotonicity_violations = warm_a.violations + warm_b.violations
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
